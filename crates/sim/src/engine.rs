//! The cycle-level simulation engine (Comal analogue).
//!
//! Every SAMML node is a state machine; a step first *flushes* previously
//! produced tokens (at most one per output port per cycle — the fully
//! pipelined II=1 rate of SAM/Comal), then retires completed memory
//! requests, then performs at most one *action* (consume input tokens,
//! produce output tokens, issue DRAM requests). Bounded channels provide
//! backpressure; a [`Dram`] model serializes bandwidth. Simulation ends
//! when every writer has received `Done`.
//!
//! # Event-driven scheduling
//!
//! Nodes are *not* swept every cycle. [`Rt::step`] reports a
//! [`StepOutcome`] and the shard loop ([`Shard::run_event`]) services a
//! node only when a wake condition fires: a push into one of its input
//! channels, a pop of one of its full output channels (channels carry
//! reader/writer back-pointers), a registered timer (in-flight memory or
//! busy ALU; see `sched.rs` for the calendar queue), or its own progress
//! in the previous cycle. The legacy dense sweep is retained behind
//! [`SimConfig::scheduler`] as a differential-testing oracle; the two are
//! bit-identical (see the determinism notes on [`Shard::run_event`] and
//! `crates/sim/tests/determinism.rs`).
//!
//! # Sharded parallel execution
//!
//! The graph is partitioned into its weakly-connected components
//! ("shards"). Nodes only communicate through channels, and every channel
//! connects two nodes of the same component, so shards share no mutable
//! state: each shard owns its nodes, its channels, its clock, and a static
//! 1/k slice of the configured DRAM bandwidth (so aggregate bandwidth
//! matches the single shared channel; single-component graphs keep the
//! full channel). A shard's simulation is therefore a pure function of
//! the graph and the bound tensors, and shards can run on a scoped worker
//! pool ([`SimConfig::threads`]) while staying **bit-identical** to the
//! sequential `threads = 1` schedule: the only cross-shard interaction is
//! the deterministic merge barrier at the end of the run (stats fold in
//! shard order, the global cycle count is the max over shard clocks, and
//! errors are reported for the lowest-indexed failing shard).

use crate::dram::{AccessKind, Dram};
use crate::pool::parallel_map;
use crate::rebuild::assemble_output;
use crate::sched::{ReadySet, WakeQueue};
use crate::stats::{SchedCounters, Stats};
use crate::TimingConfig;
use fuseflow_sam::{
    AluOp, Block, GraphError, MemLocation, NodeKind, Payload, ReduceOp, SamGraph, Token,
};
use fuseflow_tensor::{Level, SparseTensor};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Which shard execution loop [`simulate`] runs.
///
/// Both schedulers are **bit-identical** on every graph: the event-driven
/// engine performs exactly the effective (state-changing) steps of the
/// sweep, in the same relative order, at the same simulated cycle — it
/// only skips steps that are provably no-ops (see [`Shard::run_event`]).
/// The sweep is retained as the differential-testing oracle
/// (`crates/sim/tests/determinism.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// Event-driven ready-set + calendar wake queue (the default): only
    /// nodes that can possibly progress are stepped.
    #[default]
    Event,
    /// Legacy dense per-cycle sweep: every node steps every cycle.
    Sweep,
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Timing backend (Comal or FPGA-RTL flavoured).
    pub timing: TimingConfig,
    /// Capacity of every stream channel, in tokens.
    pub channel_capacity: usize,
    /// Hard cycle budget; exceeding it is an error.
    pub max_cycles: u64,
    /// Worker threads for shard execution. `1` (the default) runs every
    /// shard on the calling thread; larger values run weakly-connected
    /// graph components concurrently with bit-identical results.
    pub threads: usize,
    /// Shard execution loop; `Scheduler::Sweep` is the legacy oracle.
    pub scheduler: Scheduler,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            timing: TimingConfig::comal(),
            channel_capacity: 256,
            max_cycles: 400_000_000,
            threads: 1,
            scheduler: Scheduler::Event,
        }
    }
}

impl SimConfig {
    /// Returns the config with the shard worker-pool size set.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Returns the config with the given shard execution loop.
    pub fn with_scheduler(mut self, scheduler: Scheduler) -> Self {
        self.scheduler = scheduler;
        self
    }
}

/// Named input tensors supplied to a simulation.
#[derive(Debug, Clone, Default)]
pub struct TensorEnv {
    map: HashMap<String, SparseTensor>,
}

impl TensorEnv {
    /// Creates an empty environment.
    pub fn new() -> Self {
        TensorEnv::default()
    }

    /// Binds a tensor by name, replacing any previous binding.
    pub fn insert(&mut self, name: impl Into<String>, tensor: SparseTensor) -> &mut Self {
        self.map.insert(name.into(), tensor);
        self
    }

    /// Looks up a binding.
    pub fn get(&self, name: &str) -> Option<&SparseTensor> {
        self.map.get(name)
    }

    /// Iterates over bindings.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &SparseTensor)> {
        self.map.iter()
    }
}

impl<S: Into<String>> FromIterator<(S, SparseTensor)> for TensorEnv {
    fn from_iter<T: IntoIterator<Item = (S, SparseTensor)>>(iter: T) -> Self {
        let mut env = TensorEnv::new();
        for (k, v) in iter {
            env.insert(k, v);
        }
        env
    }
}

/// Errors produced by [`simulate`].
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The graph failed validation.
    Validation(GraphError),
    /// A tensor slot had no binding in the environment.
    MissingTensor(String),
    /// No node could make progress before all writers finished.
    Deadlock {
        /// Cycle at which progress stopped.
        cycle: u64,
        /// Human-readable diagnostic.
        detail: String,
    },
    /// The cycle budget was exhausted.
    MaxCycles(u64),
    /// Output stream reconstruction failed.
    Rebuild(String),
    /// Streams violated SAMML semantics (compiler bug).
    Semantics(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Validation(e) => write!(f, "graph validation failed: {e}"),
            SimError::MissingTensor(n) => write!(f, "no binding for tensor '{n}'"),
            SimError::Deadlock { cycle, detail } => {
                write!(f, "deadlock at cycle {cycle}: {detail}")
            }
            SimError::MaxCycles(c) => write!(f, "exceeded cycle budget of {c}"),
            SimError::Rebuild(m) => write!(f, "output reconstruction failed: {m}"),
            SimError::Semantics(m) => write!(f, "stream semantics violated: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

/// The result of simulating one SAMML graph.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Assembled output tensors, keyed by output-slot name.
    pub outputs: HashMap<String, SparseTensor>,
    /// Performance counters.
    pub stats: Stats,
}

// ---------------------------------------------------------------------------
// Channels
// ---------------------------------------------------------------------------

/// Sentinel for a channel endpoint with no node attached (test harness
/// channels that are pre-seeded or captured externally).
const NO_NODE: u32 = u32::MAX;

#[derive(Debug)]
struct Chan {
    buf: VecDeque<Token>,
    cap: usize,
    /// Local index of the node that pops this channel (wake target for
    /// pushes), or [`NO_NODE`].
    reader: u32,
    /// Local index of the node that pushes this channel (wake target for
    /// full -> not-full transitions), or [`NO_NODE`].
    writer: u32,
}

impl Chan {
    fn new(cap: usize, writer: u32, reader: u32) -> Self {
        Chan { buf: VecDeque::new(), cap, reader, writer }
    }
}

// ---------------------------------------------------------------------------
// Runtime node state
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct ScanState {
    fiber: Vec<(u32, usize)>,
    fidx: usize,
    emitting: bool,
}

#[derive(Debug, Default)]
struct SerState {
    cur: usize,
    pending_unit: bool,
    in_unit: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JoinMode {
    Intersect,
    Union,
    UnionLeft,
}

/// A node's primitive: one variant per SAMML kind, carrying that kind's
/// static parameters next to its mutable state, so every action
/// destructures exactly what it needs.
#[derive(Debug)]
enum Prim {
    Root {
        emitted: u8,
    },
    Scan {
        tensor: usize,
        level: usize,
        st: ScanState,
    },
    Repeat {
        base: Option<Payload>,
    },
    Join(JoinMode),
    Array {
        tensor: usize,
    },
    Alu {
        op: AluOp,
    },
    Reduce {
        op: ReduceOp,
        acc: Option<Payload>,
    },
    Spacc {
        op: ReduceOp,
        map: BTreeMap<u32, Payload>,
    },
    CrdDrop {
        done: [bool; 2],
    },
    /// `level` is `Some` for a coordinate writer, `None` for the value
    /// writer.
    Writer {
        output: usize,
        level: Option<usize>,
        tokens: Vec<Token>,
    },
    Par {
        factor: usize,
        rr: usize,
    },
    Ser {
        factor: usize,
        depth: u8,
        st: SerState,
    },
}

impl Prim {
    fn new(kind: NodeKind) -> Self {
        match kind {
            NodeKind::Root => Prim::Root { emitted: 0 },
            NodeKind::LevelScanner { tensor, level } => {
                Prim::Scan { tensor, level, st: ScanState::default() }
            }
            NodeKind::Repeat => Prim::Repeat { base: None },
            NodeKind::Intersect => Prim::Join(JoinMode::Intersect),
            NodeKind::Union => Prim::Join(JoinMode::Union),
            NodeKind::UnionLeft => Prim::Join(JoinMode::UnionLeft),
            NodeKind::Array { tensor } => Prim::Array { tensor },
            NodeKind::Alu { op } => Prim::Alu { op },
            NodeKind::Reduce { op } => Prim::Reduce { op, acc: None },
            NodeKind::Spacc1 { op } => Prim::Spacc { op, map: BTreeMap::new() },
            NodeKind::CrdDrop => Prim::CrdDrop { done: [false; 2] },
            NodeKind::CrdWriter { output, level } => {
                Prim::Writer { output, level: Some(level), tokens: Vec::new() }
            }
            NodeKind::ValWriter { output } => {
                Prim::Writer { output, level: None, tokens: Vec::new() }
            }
            NodeKind::Parallelizer { factor } => Prim::Par { factor, rr: 0 },
            NodeKind::Serializer { factor, depth } => {
                Prim::Ser { factor, depth, st: SerState::default() }
            }
        }
    }
}

/// A runtime node: its primitive plus the kind-independent [`Io`].
struct Rt {
    prim: Prim,
    io: Io,
}

/// The kind-independent half of a runtime node: port wiring, output and
/// memory queues, occupancy timers, and counters.
struct Io {
    label: String,
    in_chans: Vec<Option<usize>>,
    out_chans: Vec<Vec<usize>>,
    out_q: Vec<VecDeque<Token>>,
    pending_mem: VecDeque<(Token, u64, usize)>,
    busy_until: u64,
    ii_extra: u64,
    done: bool,
    elems: u64,
}

/// Everything a node step may read or charge that is not the node's own
/// state: the shard's channels and DRAM slice, the read-only tensor
/// bindings, and the shard clock plus its counters.
struct Ctx<'a> {
    chans: &'a mut [Chan],
    dram: &'a mut Dram,
    tensors: &'a [&'a SparseTensor],
    tensor_locs: &'a [MemLocation],
    output_locs: &'a [MemLocation],
    cfg: &'a SimConfig,
    now: u64,
    flops: u64,
    pending_busy: u64,
    /// Local node indices woken by channel activity during the current
    /// step; drained by the event scheduler (ignored by the sweep).
    wakes: Vec<u32>,
}

impl Ctx<'_> {
    /// Records a multi-cycle occupancy requested by the current action
    /// (block ALU contractions); committed by the action epilogue.
    fn busy(&mut self, cycles: u64) {
        self.pending_busy = self.pending_busy.max(cycles);
    }

    /// Pushes a token and wakes the channel's reader. Readers are woken on
    /// *every* push, not just empty -> nonempty: consumers like `Repeat`
    /// and `Serializer` block on the channel's *depth* (`peek_at` beyond
    /// the head), so a push into a nonempty channel can unblock them too.
    fn push_chan(&mut self, c: usize, tok: Token) {
        let ch = &mut self.chans[c];
        ch.buf.push_back(tok);
        if ch.reader != NO_NODE {
            self.wakes.push(ch.reader);
        }
    }

    /// Pops a token; wakes the channel's writer only on the full ->
    /// not-full transition (a writer can only be flush-blocked on a
    /// channel that is at capacity).
    fn pop_chan(&mut self, c: usize) -> Token {
        let ch = &mut self.chans[c];
        let was_full = ch.buf.len() >= ch.cap;
        let tok = ch.buf.pop_front().expect("pop from empty channel");
        if was_full && ch.writer != NO_NODE {
            self.wakes.push(ch.writer);
        }
        tok
    }
}

/// What one [`Rt::step`] call did, and when the node next needs service.
///
/// The event scheduler keys off this: `Progressed` re-enqueues the node for
/// the next cycle, `SleepingUntil` registers a calendar wake, and the two
/// `Blocked*` variants arm nothing — the static channel back-pointers raise
/// the wake when a peer pushes an input or drains a full output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepOutcome {
    /// The step changed state (flushed, retired, or acted); step again next
    /// cycle.
    Progressed,
    /// Waiting on input tokens; a push into any input channel re-arms it.
    BlockedInput,
    /// Flush-blocked: some output channel is at capacity; a pop of it
    /// re-arms the node (which channel is recorded by the channel's own
    /// writer back-pointer, so the scheduler needs no id here).
    BlockedOutput,
    /// Nothing runnable before the given cycle (in-flight memory at the
    /// head of `pending_mem`, or a busy ALU).
    SleepingUntil(u64),
    /// `done` with all queues drained: the node never acts again.
    Finished,
}

impl Rt {
    fn new(
        kind: NodeKind,
        label: String,
        in_chans: Vec<Option<usize>>,
        out_chans: Vec<Vec<usize>>,
        timing: &TimingConfig,
    ) -> Rt {
        let n_out = kind.output_ports().len();
        let ii_extra = (timing.ii_extra)(&kind);
        let io = Io {
            label,
            in_chans,
            out_chans,
            out_q: vec![VecDeque::new(); n_out],
            pending_mem: VecDeque::new(),
            busy_until: 0,
            ii_extra,
            done: false,
            elems: 0,
        };
        Rt { prim: Prim::new(kind), io }
    }

    fn is_writer(&self) -> bool {
        matches!(self.prim, Prim::Writer { .. })
    }

    /// One simulated cycle of this node.
    fn step(&mut self, ctx: &mut Ctx) -> Result<StepOutcome, SimError> {
        let is_writer = self.is_writer();
        let io = &mut self.io;
        // Phase 1: flush one queued token per output port.
        let (mut progress, flush_blocked) = io.flush_phase(ctx);

        // Phase 2: retire completed memory requests into the output queues
        // (or drop them, for writers).
        while let Some((_, ready, _)) = io.pending_mem.front() {
            if *ready > ctx.now {
                break;
            }
            let (tok, _, port) = io.pending_mem.pop_front().expect("nonempty");
            if !is_writer {
                io.out_q[port].push_back(tok);
            }
            progress = true;
        }

        // Phase 3: one action, if not busy and output queues drained.
        if !io.done && ctx.now >= io.busy_until && io.out_q.iter().all(|q| q.is_empty()) {
            let acted = self.action(ctx)?;
            if acted && self.io.ii_extra > 0 {
                self.io.busy_until = ctx.now + 1 + self.io.ii_extra;
            }
            progress |= acted;
        }

        // Classify. A no-progress step never mutates node or channel state
        // (actions commit only after every precondition peek succeeds), so
        // the event scheduler may skip a node until one of the reported
        // wake conditions fires — this is the sweep-equivalence invariant.
        if progress {
            return Ok(StepOutcome::Progressed);
        }
        if self.io.finished() {
            return Ok(StepOutcome::Finished);
        }
        // After phase 2, any pending-memory head is strictly in the future,
        // so `next_wake` is exact here.
        if let Some(t) = self.io.next_wake(ctx.now) {
            return Ok(StepOutcome::SleepingUntil(t));
        }
        Ok(if flush_blocked { StepOutcome::BlockedOutput } else { StepOutcome::BlockedInput })
    }

    fn action(&mut self, ctx: &mut Ctx) -> Result<bool, SimError> {
        let io = &mut self.io;
        match &mut self.prim {
            Prim::Root { emitted } => Ok(io.act_root(emitted)),
            Prim::Scan { tensor, level, st } => io.act_scan(ctx, *tensor, *level, st),
            Prim::Repeat { base } => io.act_repeat(ctx, base),
            Prim::Join(mode) => io.act_join(ctx, *mode),
            Prim::Array { tensor } => io.act_array(ctx, *tensor),
            Prim::Alu { op } => io.act_alu(ctx, *op),
            Prim::Reduce { op, acc } => io.act_reduce(ctx, *op, acc),
            Prim::Spacc { op, map } => io.act_spacc(ctx, *op, map),
            Prim::CrdDrop { done } => Ok(io.act_crddrop(ctx, done)),
            Prim::Writer { output, tokens, .. } => Ok(io.act_writer(ctx, *output, tokens)),
            Prim::Par { factor, rr } => io.act_par(ctx, *factor, rr),
            Prim::Ser { factor, depth, st } => io.act_ser(ctx, *factor, *depth, st),
        }
    }
}

impl Io {
    fn finished(&self) -> bool {
        self.done && self.out_q.iter().all(|q| q.is_empty()) && self.pending_mem.is_empty()
    }

    /// Earliest future wake-up time held by this node (pending memory
    /// retirements or a busy ALU), if any.
    fn next_wake(&self, now: u64) -> Option<u64> {
        self.pending_mem
            .front()
            .map(|x| x.1)
            .into_iter()
            .chain((self.busy_until > now).then_some(self.busy_until))
            .filter(|&t| t > now)
            .min()
    }

    // -- channel access ----------------------------------------------------

    fn peek<'c>(&self, ctx: &'c Ctx, port: usize) -> Option<&'c Token> {
        self.in_chans[port].and_then(|c| ctx.chans[c].buf.front())
    }

    fn peek_at<'c>(&self, ctx: &'c Ctx, port: usize, idx: usize) -> Option<&'c Token> {
        self.in_chans[port].and_then(|c| ctx.chans[c].buf.get(idx))
    }

    fn connected(&self, port: usize) -> bool {
        self.in_chans[port].is_some()
    }

    fn pop(&self, ctx: &mut Ctx, port: usize) -> Token {
        let c = self.in_chans[port].expect("pop from unconnected port");
        ctx.pop_chan(c)
    }

    /// Can one token be pushed to every fan-out channel of this port?
    fn can_flush(&self, ctx: &Ctx, port: usize) -> bool {
        self.out_chans[port].iter().all(|&c| ctx.chans[c].buf.len() < ctx.chans[c].cap)
    }

    /// Pops a coordinate-side token together with its payload companion (if
    /// the payload port is connected); returns the payload token.
    fn pop_side(&self, ctx: &mut Ctx, crd_port: usize, pay_port: usize) -> Option<Token> {
        let _crd = self.pop(ctx, crd_port);
        if self.connected(pay_port) {
            Some(self.pop(ctx, pay_port))
        } else {
            None
        }
    }

    /// Payload heads available whenever their crd side has a token?
    fn side_ready(&self, ctx: &Ctx, pay_port: usize) -> bool {
        !self.connected(pay_port) || self.peek(ctx, pay_port).is_some()
    }

    /// Phase 1 of a step: flush one queued token per output port. Returns
    /// `(progress, flush_blocked)`.
    #[inline]
    fn flush_phase(&mut self, ctx: &mut Ctx) -> (bool, bool) {
        let mut progress = false;
        let mut flush_blocked = false;
        for port in 0..self.out_q.len() {
            if self.out_q[port].is_empty() {
                continue;
            }
            if self.out_chans[port].is_empty() {
                // Unconnected port: discard.
                self.out_q[port].clear();
                continue;
            }
            if self.can_flush(ctx, port) {
                let tok = self.out_q[port].pop_front().expect("nonempty");
                if tok.is_elem() {
                    self.elems += 1;
                }
                for &c in &self.out_chans[port] {
                    ctx.push_chan(c, tok.clone());
                }
                progress = true;
            } else {
                flush_blocked = true;
            }
        }
        (progress, flush_blocked)
    }

    // -- individual node actions ------------------------------------------

    fn act_root(&mut self, emitted: &mut u8) -> bool {
        match *emitted {
            0 => {
                *emitted = 1;
                self.out_q[0].push_back(Token::idx(0));
            }
            1 => {
                *emitted = 2;
                self.out_q[0].push_back(Token::Done);
                self.done = true;
            }
            _ => return false,
        }
        true
    }

    fn act_scan(
        &mut self,
        ctx: &mut Ctx,
        tensor: usize,
        level: usize,
        st: &mut ScanState,
    ) -> Result<bool, SimError> {
        let compressed = matches!(ctx.tensors[tensor].level(level), Level::Compressed { .. });
        let in_dram = ctx.tensor_locs[tensor] == MemLocation::Dram;
        let outstanding = ctx.cfg.timing.outstanding;

        if st.emitting {
            if st.fidx < st.fiber.len() {
                if self.pending_mem.len() >= outstanding {
                    return Ok(false);
                }
                let ready = if compressed && in_dram {
                    ctx.dram.request(ctx.now, 4, AccessKind::Stream, false)
                } else {
                    ctx.now
                };
                let (c, p) = st.fiber[st.fidx];
                st.fidx += 1;
                self.pending_mem.push_back((Token::idx(c), ready, 0));
                self.pending_mem.push_back((Token::idx(p as u32), ready, 1));
                return Ok(true);
            }
            // Fiber boundary (stops flow through the in-order pending
            // queue so they never overtake memory-delayed elements).
            let Some(head) = self.peek(ctx, 0) else { return Ok(false) };
            let head = head.clone();
            st.emitting = false;
            let now = ctx.now;
            match head {
                Token::Elem(_) | Token::Done => {
                    self.pending_mem.push_back((Token::Stop(0), now, 0));
                    self.pending_mem.push_back((Token::Stop(0), now, 1));
                }
                Token::Stop(k) => {
                    self.pop(ctx, 0);
                    self.pending_mem.push_back((Token::Stop(k + 1), now, 0));
                    self.pending_mem.push_back((Token::Stop(k + 1), now, 1));
                }
            }
            return Ok(true);
        }

        // Idle: load the next fiber or forward boundaries.
        let Some(head) = self.peek(ctx, 0) else { return Ok(false) };
        let head = head.clone();
        match head {
            Token::Elem(Payload::Idx(r)) => {
                self.pop(ctx, 0);
                if compressed && in_dram {
                    // pos-array read for the fiber bounds.
                    let _ = ctx.dram.request(ctx.now, 8, AccessKind::Stream, false);
                }
                st.fiber = ctx.tensors[tensor].level(level).fiber(r as usize).collect();
                st.fidx = 0;
                st.emitting = true;
            }
            Token::Elem(Payload::Empty) => {
                self.pop(ctx, 0);
                st.fiber = Vec::new();
                st.fidx = 0;
                st.emitting = true;
            }
            Token::Elem(other) => {
                return Err(SimError::Semantics(format!("scanner received payload {other:?}")))
            }
            Token::Stop(k) => {
                self.pop(ctx, 0);
                let now = ctx.now;
                self.pending_mem.push_back((Token::Stop(k + 1), now, 0));
                self.pending_mem.push_back((Token::Stop(k + 1), now, 1));
            }
            Token::Done => {
                self.pop(ctx, 0);
                let now = ctx.now;
                self.pending_mem.push_back((Token::Done, now, 0));
                self.pending_mem.push_back((Token::Done, now, 1));
                self.done = true;
            }
        }
        Ok(true)
    }

    fn act_repeat(&mut self, ctx: &mut Ctx, base: &mut Option<Payload>) -> Result<bool, SimError> {
        let Some(rep_head) = self.peek(ctx, 1) else { return Ok(false) };
        let rep_head = rep_head.clone();
        match rep_head {
            Token::Elem(_) => {
                if base.is_none() {
                    let Some(head) = self.peek(ctx, 0) else { return Ok(false) };
                    match head {
                        Token::Elem(p) => {
                            let p = p.clone();
                            self.pop(ctx, 0);
                            *base = Some(p);
                        }
                        other => {
                            return Err(SimError::Semantics(format!(
                                "repeat expected base element, found {other:?}"
                            )))
                        }
                    }
                }
                self.pop(ctx, 1);
                let p = base.clone().expect("loaded above");
                self.out_q[0].push_back(Token::Elem(p));
            }
            Token::Stop(k) => {
                // Close the pairing: discard the base element for this rep
                // fiber (it may be unloaded if the fiber was empty), then
                // consume the aligned base stop for k >= 1.
                let mut base_idx = 0usize;
                if base.is_none() {
                    match self.peek_at(ctx, 0, base_idx) {
                        Some(Token::Elem(_)) => base_idx += 1, // will discard
                        Some(_) => {}
                        None => return Ok(false),
                    }
                }
                if k >= 1 {
                    match self.peek_at(ctx, 0, base_idx) {
                        Some(Token::Stop(bk)) if *bk == k - 1 => base_idx += 1,
                        Some(other) => {
                            return Err(SimError::Semantics(format!(
                                "repeat base misaligned: rep Stop({k}) vs base {other:?}"
                            )))
                        }
                        None => return Ok(false),
                    }
                }
                // Commit.
                self.pop(ctx, 1);
                for _ in 0..base_idx {
                    self.pop(ctx, 0);
                }
                *base = None;
                self.out_q[0].push_back(Token::Stop(k));
            }
            Token::Done => {
                match self.peek(ctx, 0) {
                    Some(Token::Done) => {}
                    Some(other) => {
                        return Err(SimError::Semantics(format!(
                            "repeat base should be Done, found {other:?}"
                        )))
                    }
                    None => return Ok(false),
                }
                self.pop(ctx, 1);
                self.pop(ctx, 0);
                self.out_q[0].push_back(Token::Done);
                self.done = true;
            }
        }
        Ok(true)
    }

    fn act_join(&mut self, ctx: &mut Ctx, mode: JoinMode) -> Result<bool, SimError> {
        let (Some(a), Some(b)) = (self.peek(ctx, 0), self.peek(ctx, 2)) else {
            return Ok(false);
        };
        let (a, b) = (a.clone(), b.clone());
        if !self.side_ready(ctx, 1) || !self.side_ready(ctx, 3) {
            return Ok(false);
        }
        match (&a, &b) {
            (Token::Elem(ca), Token::Elem(cb)) => {
                let (ia, ib) = (ca.idx(), cb.idx());
                if ia == ib {
                    let pa = self.pop_side(ctx, 0, 1);
                    let pb = self.pop_side(ctx, 2, 3);
                    self.out_q[0].push_back(Token::idx(ia));
                    if let Some(t) = pa {
                        self.out_q[1].push_back(t);
                    }
                    if let Some(t) = pb {
                        self.out_q[2].push_back(t);
                    }
                } else if ia < ib {
                    match mode {
                        JoinMode::Intersect => {
                            let _ = self.pop_side(ctx, 0, 1);
                        }
                        JoinMode::Union | JoinMode::UnionLeft => {
                            let pa = self.pop_side(ctx, 0, 1);
                            self.out_q[0].push_back(Token::idx(ia));
                            if let Some(t) = pa {
                                self.out_q[1].push_back(t);
                            }
                            self.out_q[2].push_back(Token::Elem(Payload::Empty));
                        }
                    }
                } else {
                    match mode {
                        JoinMode::Intersect | JoinMode::UnionLeft => {
                            let _ = self.pop_side(ctx, 2, 3);
                        }
                        JoinMode::Union => {
                            let pb = self.pop_side(ctx, 2, 3);
                            self.out_q[0].push_back(Token::idx(ib));
                            self.out_q[1].push_back(Token::Elem(Payload::Empty));
                            if let Some(t) = pb {
                                self.out_q[2].push_back(t);
                            }
                        }
                    }
                }
            }
            (Token::Elem(ca), Token::Stop(_)) => match mode {
                JoinMode::Intersect => {
                    let _ = self.pop_side(ctx, 0, 1);
                }
                JoinMode::Union | JoinMode::UnionLeft => {
                    let ia = ca.idx();
                    let pa = self.pop_side(ctx, 0, 1);
                    self.out_q[0].push_back(Token::idx(ia));
                    if let Some(t) = pa {
                        self.out_q[1].push_back(t);
                    }
                    self.out_q[2].push_back(Token::Elem(Payload::Empty));
                }
            },
            (Token::Stop(_), Token::Elem(cb)) => match mode {
                JoinMode::Intersect | JoinMode::UnionLeft => {
                    let _ = self.pop_side(ctx, 2, 3);
                }
                JoinMode::Union => {
                    let ib = cb.idx();
                    let pb = self.pop_side(ctx, 2, 3);
                    self.out_q[0].push_back(Token::idx(ib));
                    self.out_q[1].push_back(Token::Elem(Payload::Empty));
                    if let Some(t) = pb {
                        self.out_q[2].push_back(t);
                    }
                }
            },
            (Token::Stop(ka), Token::Stop(kb)) => {
                if ka != kb {
                    return Err(SimError::Semantics(format!(
                        "join stop mismatch: {ka} vs {kb} at {}",
                        self.label
                    )));
                }
                let k = *ka;
                let _ = self.pop_side(ctx, 0, 1);
                let _ = self.pop_side(ctx, 2, 3);
                self.out_q[0].push_back(Token::Stop(k));
                self.out_q[1].push_back(Token::Stop(k));
                self.out_q[2].push_back(Token::Stop(k));
            }
            (Token::Done, Token::Done) => {
                let _ = self.pop_side(ctx, 0, 1);
                let _ = self.pop_side(ctx, 2, 3);
                for q in 0..3 {
                    self.out_q[q].push_back(Token::Done);
                }
                self.done = true;
            }
            (x, y) => {
                return Err(SimError::Semantics(format!(
                    "join token mismatch: {x:?} vs {y:?} at {}",
                    self.label
                )))
            }
        }
        Ok(true)
    }

    fn act_array(&mut self, ctx: &mut Ctx, tensor: usize) -> Result<bool, SimError> {
        if self.pending_mem.len() >= ctx.cfg.timing.outstanding {
            return Ok(false);
        }
        let Some(head) = self.peek(ctx, 0) else { return Ok(false) };
        let head = head.clone();
        let t = ctx.tensors[tensor];
        let in_dram = ctx.tensor_locs[tensor] == MemLocation::Dram;
        match head {
            Token::Elem(Payload::Idx(r)) => {
                self.pop(ctx, 0);
                let (payload, bytes) = if t.is_blocked() {
                    let [b0, b1] = t.block();
                    let blk = Block::new(b0, b1, t.val_block(r as usize).to_vec());
                    (Payload::Blk(blk), (b0 * b1 * 4) as u64)
                } else {
                    (Payload::F(t.val(r as usize)), 4)
                };
                let ready = if in_dram {
                    ctx.dram.request(ctx.now, bytes, AccessKind::Random, false)
                } else {
                    ctx.now
                };
                self.pending_mem.push_back((Token::Elem(payload), ready, 0));
            }
            Token::Elem(Payload::Empty) => {
                self.pop(ctx, 0);
                let payload = if t.is_blocked() {
                    let [b0, b1] = t.block();
                    Payload::Blk(Block::zeros(b0, b1))
                } else {
                    Payload::F(0.0)
                };
                self.pending_mem.push_back((Token::Elem(payload), ctx.now, 0));
            }
            Token::Elem(other) => {
                return Err(SimError::Semantics(format!("array received payload {other:?}")))
            }
            Token::Stop(k) => {
                self.pop(ctx, 0);
                self.pending_mem.push_back((Token::Stop(k), ctx.now, 0));
            }
            Token::Done => {
                self.pop(ctx, 0);
                self.pending_mem.push_back((Token::Done, ctx.now, 0));
                self.done = true;
            }
        }
        Ok(true)
    }

    fn act_alu(&mut self, ctx: &mut Ctx, op: AluOp) -> Result<bool, SimError> {
        ctx.pending_busy = 0;
        if op.arity() == 1 {
            let Some(head) = self.peek(ctx, 0) else { return Ok(false) };
            let head = head.clone();
            match head {
                Token::Elem(p) => {
                    self.pop(ctx, 0);
                    let out = alu_unary(ctx, op, p)?;
                    self.out_q[0].push_back(Token::Elem(out));
                }
                Token::Stop(k) => {
                    self.pop(ctx, 0);
                    self.out_q[0].push_back(Token::Stop(k));
                }
                Token::Done => {
                    self.pop(ctx, 0);
                    self.out_q[0].push_back(Token::Done);
                    self.done = true;
                }
            }
        } else {
            let (Some(a), Some(b)) = (self.peek(ctx, 0), self.peek(ctx, 1)) else {
                return Ok(false);
            };
            let (a, b) = (a.clone(), b.clone());
            match (a, b) {
                (Token::Elem(pa), Token::Elem(pb)) => {
                    self.pop(ctx, 0);
                    self.pop(ctx, 1);
                    let out = alu_combine(ctx, op, pa, pb)?;
                    self.out_q[0].push_back(Token::Elem(out));
                }
                (Token::Stop(ka), Token::Stop(kb)) if ka == kb => {
                    self.pop(ctx, 0);
                    self.pop(ctx, 1);
                    self.out_q[0].push_back(Token::Stop(ka));
                }
                (Token::Done, Token::Done) => {
                    self.pop(ctx, 0);
                    self.pop(ctx, 1);
                    self.out_q[0].push_back(Token::Done);
                    self.done = true;
                }
                (x, y) => {
                    return Err(SimError::Semantics(format!(
                        "alu stream misalignment: {x:?} vs {y:?} at {}",
                        self.label
                    )))
                }
            }
        }
        if ctx.pending_busy > 0 {
            self.busy_until = ctx.now + ctx.pending_busy;
        }
        Ok(true)
    }

    fn act_reduce(
        &mut self,
        ctx: &mut Ctx,
        op: ReduceOp,
        acc: &mut Option<Payload>,
    ) -> Result<bool, SimError> {
        let Some(head) = self.peek(ctx, 0) else { return Ok(false) };
        let head = head.clone();
        match head {
            Token::Elem(p) => {
                self.pop(ctx, 0);
                let mut extra_flops = 0u64;
                let new = match (acc.take(), p) {
                    (None, p) => p,
                    (Some(Payload::F(a)), Payload::F(b)) => {
                        extra_flops += 1;
                        Payload::F(op.apply(a, b))
                    }
                    (Some(Payload::F(a)), Payload::Empty)
                    | (Some(Payload::Empty), Payload::F(a)) => {
                        Payload::F(op.apply(a, op.identity()))
                    }
                    (Some(Payload::Blk(a)), Payload::Blk(b)) => {
                        extra_flops += a.len() as u64;
                        Payload::Blk(a.zip(&b, |x, y| op.apply(x, y)))
                    }
                    (Some(a), b) => {
                        return Err(SimError::Semantics(format!("reduce operands {a:?} / {b:?}")))
                    }
                };
                *acc = Some(new);
                ctx.flops += extra_flops;
            }
            Token::Stop(k) => {
                self.pop(ctx, 0);
                let out = acc.take().unwrap_or(Payload::F(op.identity()));
                self.out_q[0].push_back(Token::Elem(out));
                if k >= 1 {
                    self.out_q[0].push_back(Token::Stop(k - 1));
                }
            }
            Token::Done => {
                self.pop(ctx, 0);
                self.out_q[0].push_back(Token::Done);
                self.done = true;
            }
        }
        Ok(true)
    }

    fn act_spacc(
        &mut self,
        ctx: &mut Ctx,
        op: ReduceOp,
        map: &mut BTreeMap<u32, Payload>,
    ) -> Result<bool, SimError> {
        let (Some(c), Some(v)) = (self.peek(ctx, 0), self.peek(ctx, 1)) else {
            return Ok(false);
        };
        let (c, v) = (c.clone(), v.clone());
        match (c, v) {
            (Token::Elem(pc), Token::Elem(pv)) => {
                self.pop(ctx, 0);
                self.pop(ctx, 1);
                let key = pc.idx();
                let mut extra_flops = 0u64;
                match map.entry(key) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(pv);
                    }
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        let merged = match (e.get().clone(), pv) {
                            (Payload::F(a), Payload::F(b)) => {
                                extra_flops += 1;
                                Payload::F(op.apply(a, b))
                            }
                            (Payload::Blk(a), Payload::Blk(b)) => {
                                extra_flops += a.len() as u64;
                                Payload::Blk(a.zip(&b, |x, y| op.apply(x, y)))
                            }
                            (Payload::Empty, p) | (p, Payload::Empty) => p,
                            (a, b) => {
                                return Err(SimError::Semantics(format!(
                                    "spacc operands {a:?} / {b:?}"
                                )))
                            }
                        };
                        e.insert(merged);
                    }
                }
                ctx.flops += extra_flops;
            }
            (Token::Stop(kc), Token::Stop(kv)) => {
                if kc != kv {
                    return Err(SimError::Semantics(format!("spacc stop mismatch {kc} vs {kv}")));
                }
                self.pop(ctx, 0);
                self.pop(ctx, 1);
                if kc >= 1 {
                    for (c, v) in std::mem::take(map) {
                        self.out_q[0].push_back(Token::idx(c));
                        self.out_q[1].push_back(Token::Elem(v));
                    }
                    self.out_q[0].push_back(Token::Stop(kc - 1));
                    self.out_q[1].push_back(Token::Stop(kc - 1));
                }
                // Stop(0) boundaries separate the fibers being accumulated:
                // keep accumulating.
            }
            (Token::Done, Token::Done) => {
                self.pop(ctx, 0);
                self.pop(ctx, 1);
                if !map.is_empty() {
                    return Err(SimError::Semantics(
                        "spacc reached Done with unflushed state".into(),
                    ));
                }
                self.out_q[0].push_back(Token::Done);
                self.out_q[1].push_back(Token::Done);
                self.done = true;
            }
            (x, y) => {
                return Err(SimError::Semantics(format!(
                    "spacc stream misalignment: {x:?} vs {y:?}"
                )))
            }
        }
        Ok(true)
    }

    fn act_crddrop(&mut self, ctx: &mut Ctx, done: &mut [bool; 2]) -> bool {
        let mut progress = false;
        for port in 0..2 {
            if self.peek(ctx, port).is_some() {
                let tok = self.pop(ctx, port);
                if tok == Token::Done {
                    done[port] = true;
                }
                self.out_q[port].push_back(tok);
                if done[0] && done[1] {
                    self.done = true;
                }
                progress = true;
            }
        }
        progress
    }

    fn act_writer(&mut self, ctx: &mut Ctx, output: usize, tokens: &mut Vec<Token>) -> bool {
        if self.pending_mem.len() >= ctx.cfg.timing.outstanding {
            return false;
        }
        let Some(head) = self.peek(ctx, 0) else { return false };
        let head = head.clone();
        let in_dram = ctx.output_locs[output] == MemLocation::Dram;
        self.pop(ctx, 0);
        if let Token::Elem(p) = &head {
            let bytes = match p {
                Payload::Blk(b) => (b.len() * 4) as u64,
                _ => 4,
            };
            let ready = if in_dram {
                ctx.dram.request(ctx.now, bytes, AccessKind::Stream, true)
            } else {
                ctx.now
            };
            self.pending_mem.push_back((Token::Stop(0), ready, 0));
            self.elems += 1;
        }
        if head == Token::Done {
            self.done = true;
        }
        tokens.push(head);
        true
    }

    fn act_par(&mut self, ctx: &mut Ctx, factor: usize, rr: &mut usize) -> Result<bool, SimError> {
        let has_payload = self.connected(1);
        let Some(head) = self.peek(ctx, 0) else { return Ok(false) };
        let head = head.clone();
        if has_payload && self.peek(ctx, 1).is_none() {
            return Ok(false);
        }
        match head {
            Token::Elem(_) => {
                let c = self.pop(ctx, 0);
                let b = *rr;
                *rr = (*rr + 1) % factor;
                self.out_q[2 * b].push_back(c);
                if has_payload {
                    let p = self.pop(ctx, 1);
                    self.out_q[2 * b + 1].push_back(p);
                }
            }
            Token::Stop(k) => {
                self.pop(ctx, 0);
                if has_payload {
                    let p = self.pop(ctx, 1);
                    if p != Token::Stop(k) {
                        return Err(SimError::Semantics(format!(
                            "parallelizer payload misaligned: {p:?} vs Stop({k})"
                        )));
                    }
                }
                *rr = 0;
                for b in 0..factor {
                    self.out_q[2 * b].push_back(Token::Stop(k));
                    if has_payload {
                        self.out_q[2 * b + 1].push_back(Token::Stop(k));
                    }
                }
            }
            Token::Done => {
                self.pop(ctx, 0);
                if has_payload {
                    self.pop(ctx, 1);
                }
                for b in 0..factor {
                    self.out_q[2 * b].push_back(Token::Done);
                    if has_payload {
                        self.out_q[2 * b + 1].push_back(Token::Done);
                    }
                }
                self.done = true;
            }
        }
        Ok(true)
    }

    fn act_ser(
        &mut self,
        ctx: &mut Ctx,
        factor: usize,
        depth: u8,
        st: &mut SerState,
    ) -> Result<bool, SimError> {
        let order_port = factor;
        let cur = st.cur;

        if st.in_unit {
            // Pull the current unit's tokens from branch `cur`.
            let Some(head) = self.peek(ctx, cur) else { return Ok(false) };
            let head = head.clone();
            match head {
                Token::Elem(_) => {
                    let tok = self.pop(ctx, cur);
                    self.out_q[0].push_back(tok);
                }
                Token::Stop(k) if depth >= 1 && k == depth - 1 => {
                    // Ordinary unit boundary.
                    self.pop(ctx, cur);
                    st.in_unit = false;
                    st.pending_unit = true;
                    st.cur = (st.cur + 1) % factor;
                }
                Token::Stop(k) if k + 1 < depth => {
                    // Interior stop: part of this unit.
                    let tok = self.pop(ctx, cur);
                    self.out_q[0].push_back(tok);
                }
                Token::Stop(_) => {
                    // The unit's boundary coalesced into a barrier stop: the
                    // unit is over, but the barrier token is consumed later
                    // by the order-stream barrier action.
                    st.in_unit = false;
                    st.pending_unit = true;
                    st.cur = (st.cur + 1) % factor;
                }
                Token::Done => {
                    return Err(SimError::Semantics("serializer branch finished mid-unit".into()))
                }
            }
            return Ok(true);
        }

        let Some(order_head) = self.peek(ctx, order_port) else { return Ok(false) };
        let order_head = order_head.clone();
        match order_head {
            Token::Elem(_) => {
                if st.pending_unit {
                    // Close the previous unit before starting the next one.
                    self.out_q[0].push_back(Token::Stop(depth - 1));
                    st.pending_unit = false;
                    return Ok(true);
                }
                if depth == 0 {
                    // Units are single elements.
                    let Some(bh) = self.peek(ctx, cur) else { return Ok(false) };
                    match bh {
                        Token::Elem(_) => {
                            self.pop(ctx, order_port);
                            let tok = self.pop(ctx, cur);
                            self.out_q[0].push_back(tok);
                            st.cur = (st.cur + 1) % factor;
                        }
                        other => {
                            return Err(SimError::Semantics(format!(
                                "serializer depth-0 expected element, found {other:?}"
                            )))
                        }
                    }
                } else {
                    // Check for a coalesced-empty unit before committing.
                    let Some(bh) = self.peek(ctx, cur) else { return Ok(false) };
                    let coalesced = matches!(bh, Token::Stop(k) if *k >= depth);
                    self.pop(ctx, order_port);
                    if coalesced {
                        st.pending_unit = true;
                        st.cur = (st.cur + 1) % factor;
                    } else {
                        st.in_unit = true;
                    }
                }
            }
            Token::Stop(k) => {
                // Barrier: every branch holds the corresponding deeper stop.
                for b in 0..factor {
                    match self.peek_at(ctx, b, 0) {
                        Some(Token::Stop(bk)) if *bk == k + depth => {}
                        Some(other) => {
                            return Err(SimError::Semantics(format!(
                                "serializer barrier mismatch on branch {b}: {other:?} vs Stop({})",
                                k + depth
                            )))
                        }
                        None => return Ok(false),
                    }
                }
                self.pop(ctx, order_port);
                for b in 0..factor {
                    self.pop(ctx, b);
                }
                self.out_q[0].push_back(Token::Stop(k + depth));
                st.pending_unit = false;
                st.cur = 0;
            }
            Token::Done => {
                for b in 0..factor {
                    match self.peek_at(ctx, b, 0) {
                        Some(Token::Done) => {}
                        Some(other) => {
                            return Err(SimError::Semantics(format!(
                                "serializer expected branch Done, found {other:?}"
                            )))
                        }
                        None => return Ok(false),
                    }
                }
                self.pop(ctx, order_port);
                for b in 0..factor {
                    self.pop(ctx, b);
                }
                self.out_q[0].push_back(Token::Done);
                self.done = true;
            }
        }
        Ok(true)
    }
}

// -- ALU payload combiners (charge FLOPs / occupancy through the context) ---

fn alu_combine(ctx: &mut Ctx, op: AluOp, a: Payload, b: Payload) -> Result<Payload, SimError> {
    let lanes = ctx.cfg.timing.block_lanes_factor;
    Ok(match (a, b) {
        (Payload::F(x), Payload::F(y)) => {
            ctx.flops += op.flops_per_elem();
            Payload::F(op.apply_scalar(x, y))
        }
        (Payload::Empty, Payload::F(y)) => {
            ctx.flops += op.flops_per_elem();
            Payload::F(op.apply_scalar(0.0, y))
        }
        (Payload::F(x), Payload::Empty) => {
            ctx.flops += op.flops_per_elem();
            Payload::F(op.apply_scalar(x, 0.0))
        }
        (Payload::Empty, Payload::Empty) => Payload::F(op.apply_scalar(0.0, 0.0)),
        (Payload::Blk(x), Payload::Blk(y)) => {
            let blk = match op {
                AluOp::Mul => {
                    // Tile contraction: b^2-lane unit retires one column
                    // per cycle.
                    ctx.flops += 2 * (x.rows() * x.cols() * y.cols()) as u64;
                    let busy = (y.cols() as f64 / lanes).ceil() as u64;
                    ctx.busy(busy);
                    x.matmul(&y)
                }
                AluOp::BlockColDiv => {
                    ctx.flops += x.len() as u64;
                    x.broadcast_col(&y, |p, q| AluOp::Div.apply_scalar(p, q))
                }
                AluOp::BlockColSub => {
                    ctx.flops += x.len() as u64;
                    x.broadcast_col(&y, |p, q| p - q)
                }
                other => {
                    ctx.flops += x.len() as u64 * other.flops_per_elem();
                    x.zip(&y, |p, q| other.apply_scalar(p, q))
                }
            };
            Payload::Blk(blk)
        }
        (Payload::Blk(x), Payload::F(s)) => {
            ctx.flops += x.len() as u64;
            Payload::Blk(x.map(|v| op.apply_scalar(v, s)))
        }
        (Payload::F(s), Payload::Blk(y)) => {
            ctx.flops += y.len() as u64;
            Payload::Blk(y.map(|v| op.apply_scalar(s, v)))
        }
        (Payload::Empty, Payload::Blk(y)) => {
            ctx.flops += y.len() as u64;
            let z = Block::zeros(y.rows(), y.cols());
            Payload::Blk(z.zip(&y, |p, q| op.apply_scalar(p, q)))
        }
        (Payload::Blk(x), Payload::Empty) => {
            ctx.flops += x.len() as u64;
            match op {
                AluOp::BlockColDiv | AluOp::BlockColSub => {
                    let z = Block::zeros(x.rows(), 1);
                    Payload::Blk(x.broadcast_col(&z, |p, q| op.apply_scalar(p, q)))
                }
                _ => {
                    let z = Block::zeros(x.rows(), x.cols());
                    Payload::Blk(x.zip(&z, |p, q| op.apply_scalar(p, q)))
                }
            }
        }
        (a, b) => return Err(SimError::Semantics(format!("alu operands {a:?} / {b:?}"))),
    })
}

fn alu_unary(ctx: &mut Ctx, op: AluOp, a: Payload) -> Result<Payload, SimError> {
    Ok(match a {
        Payload::F(x) => {
            ctx.flops += op.flops_per_elem();
            Payload::F(op.apply_scalar(x, 0.0))
        }
        Payload::Empty => Payload::F(op.apply_scalar(0.0, 0.0)),
        Payload::Blk(x) => {
            ctx.flops += x.len() as u64 * op.flops_per_elem();
            let blk = match op {
                AluOp::BlockRowSum => x.row_reduce(0.0, |a, b| a + b),
                AluOp::BlockRowMax => x.row_reduce(f32::MIN, f32::max),
                other => x.map(|v| other.apply_scalar(v, 0.0)),
            };
            Payload::Blk(blk)
        }
        a @ Payload::Idx(_) => return Err(SimError::Semantics(format!("alu operand {a:?}"))),
    })
}

// ---------------------------------------------------------------------------
// Shards
// ---------------------------------------------------------------------------

/// Read-only simulation inputs shared by every shard (and every worker
/// thread): the bound tensors, location tables, and the config.
struct Shared<'a> {
    tensors: &'a [&'a SparseTensor],
    tensor_locs: &'a [MemLocation],
    output_locs: &'a [MemLocation],
    cfg: &'a SimConfig,
}

/// One weakly-connected component of the graph with everything it mutates:
/// its nodes, its channels, its clock, and its DRAM channel slice.
struct Shard {
    nodes: Vec<Rt>,
    chans: Vec<Chan>,
    order: Vec<usize>,
    dram: Dram,
    now: u64,
    flops: u64,
    sched: SchedCounters,
}

fn make_ctx<'a>(
    chans: &'a mut [Chan],
    dram: &'a mut Dram,
    shared: &'a Shared<'a>,
    now: u64,
) -> Ctx<'a> {
    Ctx {
        chans,
        dram,
        tensors: shared.tensors,
        tensor_locs: shared.tensor_locs,
        output_locs: shared.output_locs,
        cfg: shared.cfg,
        now,
        flops: 0,
        pending_busy: 0,
        wakes: Vec::new(),
    }
}

impl Shard {
    /// Runs this shard to completion (all writers finished) or to an error.
    fn run(&mut self, shared: &Shared<'_>) -> Result<(), SimError> {
        match shared.cfg.scheduler {
            Scheduler::Event => self.run_event(shared),
            Scheduler::Sweep => self.run_sweep(shared),
        }
    }

    /// The event-driven execution loop: a ready set drained in ascending
    /// topological rank plus a calendar wake queue.
    ///
    /// **Bit-identity with the sweep.** The sweep steps every node at every
    /// visited cycle, in topological-order rank; a step with no progress is
    /// a pure no-op (see [`Rt::step`]). This loop steps exactly the nodes
    /// whose wake conditions fired, in the same ascending-rank order, at
    /// the same cycle the sweep would have serviced them:
    ///
    /// * a push wakes the channel's reader — in the *current* cycle when
    ///   the reader's rank is still ahead of the drain cursor (the sweep
    ///   would reach it later this cycle), else in the next;
    /// * a pop from a full channel wakes the writer the same way;
    /// * a node that progressed re-steps next cycle (as the sweep would);
    /// * a node stalled on memory or a busy ALU registers a timer for its
    ///   exact wake cycle.
    ///
    /// Any node not woken is in a state where the sweep's step would no-op,
    /// so skipping it cannot change outputs, counters, or the clock. The
    /// clock itself advances to `now + 1` whenever any node is scheduled
    /// there (exactly the cycles the sweep visits after progress) and
    /// otherwise jumps to the earliest timer — the same target as the
    /// sweep's idle fast-forward, without its O(nodes) `next_wake` scan.
    /// Writer completion is tracked with a `live_writers` counter instead
    /// of the sweep's O(nodes) `writers_done` rescan per cycle.
    fn run_event(&mut self, shared: &Shared<'_>) -> Result<(), SimError> {
        let n = self.order.len();
        let mut rank_of = vec![0u32; n];
        for (rank, &node) in self.order.iter().enumerate() {
            rank_of[node] = rank as u32;
        }
        let mut writer_live: Vec<bool> =
            self.nodes.iter().map(|n| n.is_writer() && !n.io.finished()).collect();
        let mut live_writers = writer_live.iter().filter(|&&w| w).count();

        let mut cur = ReadySet::new(n);
        let mut next = ReadySet::new(n);
        for rank in 0..n {
            cur.insert(rank);
        }
        let mut wakes = WakeQueue::new(n);
        let mut counters = SchedCounters::default();

        let order = std::mem::take(&mut self.order);
        let nodes = &mut self.nodes;
        let mut ctx = make_ctx(&mut self.chans, &mut self.dram, shared, self.now);
        let res = 'run: loop {
            // Drain this cycle's ready set in ascending rank (= sweep order).
            let mut stepped = 0u64;
            let mut pos = 0;
            while let Some(rank) = cur.pop_ge(pos) {
                pos = rank;
                let node = order[rank];
                let outcome = match nodes[node].step(&mut ctx) {
                    Ok(o) => o,
                    Err(e) => break 'run Err(e),
                };
                stepped += 1;
                // Channel wakes raised by this step: same-cycle if the
                // target is still ahead of the drain cursor, else next.
                for k in 0..ctx.wakes.len() {
                    let w = rank_of[ctx.wakes[k] as usize] as usize;
                    if w > rank {
                        cur.insert(w);
                    } else {
                        next.insert(w);
                    }
                }
                ctx.wakes.clear();
                match outcome {
                    StepOutcome::Progressed => next.insert(rank),
                    StepOutcome::SleepingUntil(t) => wakes.schedule(ctx.now, t, rank as u32),
                    StepOutcome::BlockedInput
                    | StepOutcome::BlockedOutput
                    | StepOutcome::Finished => {}
                }
                if writer_live[node] && nodes[node].io.finished() {
                    writer_live[node] = false;
                    live_writers -= 1;
                }
            }
            counters.events += stepped;
            counters.peak_ready = counters.peak_ready.max(stepped);
            // Same termination point as the sweep: it checks writers after
            // sweeping a full cycle, so the whole ready set drains first.
            if live_writers == 0 {
                ctx.now += 1;
                break 'run Ok(());
            }
            let t_next = if !next.is_empty() {
                ctx.now + 1
            } else {
                match wakes.next_time(ctx.now) {
                    Some(t) => t,
                    None => {
                        let detail = deadlock_detail(nodes, ctx.chans);
                        break 'run Err(SimError::Deadlock { cycle: ctx.now, detail });
                    }
                }
            };
            counters.cycles_skipped += t_next - ctx.now - 1;
            ctx.now = t_next;
            if ctx.now > ctx.cfg.max_cycles {
                break 'run Err(SimError::MaxCycles(ctx.cfg.max_cycles));
            }
            std::mem::swap(&mut cur, &mut next);
            wakes.drain_at(ctx.now, &mut cur);
        };
        self.now = ctx.now;
        self.flops += ctx.flops;
        self.order = order;
        self.sched.merge(&counters);
        res
    }

    /// The legacy dense sweep: every node steps at every visited cycle.
    /// Kept as the differential-testing oracle for the event scheduler
    /// ([`Scheduler::Sweep`]).
    fn run_sweep(&mut self, shared: &Shared<'_>) -> Result<(), SimError> {
        let order = std::mem::take(&mut self.order);
        let mut counters = SchedCounters::default();
        let nodes = &mut self.nodes;
        let mut ctx = make_ctx(&mut self.chans, &mut self.dram, shared, self.now);
        let res = 'run: loop {
            let mut progress = false;
            for &i in &order {
                match nodes[i].step(&mut ctx) {
                    Ok(o) => progress |= o == StepOutcome::Progressed,
                    Err(e) => break 'run Err(e),
                }
                ctx.wakes.clear();
            }
            counters.events += order.len() as u64;
            counters.peak_ready = counters.peak_ready.max(order.len() as u64);
            let writers_done = nodes.iter().all(|n| !n.is_writer() || n.io.finished());
            if writers_done {
                ctx.now += 1;
                break 'run Ok(());
            }
            if progress {
                ctx.now += 1;
            } else {
                // Distinguish stalls on memory latency / initiation intervals
                // from true deadlock: fast-forward to the next wake-up time.
                let now = ctx.now;
                let next_wake = nodes.iter().filter_map(|n| n.io.next_wake(now)).min();
                match next_wake {
                    Some(t) => {
                        counters.cycles_skipped += t - ctx.now - 1;
                        ctx.now = t;
                    }
                    None => {
                        let detail = deadlock_detail(nodes, ctx.chans);
                        break 'run Err(SimError::Deadlock { cycle: ctx.now, detail });
                    }
                }
            }
            if ctx.now > ctx.cfg.max_cycles {
                break 'run Err(SimError::MaxCycles(ctx.cfg.max_cycles));
            }
        };
        self.now = ctx.now;
        self.flops += ctx.flops;
        self.order = order;
        self.sched.merge(&counters);
        res
    }

    /// Runs a single isolated node until it can make no further progress,
    /// fast-forwarding over busy/memory stalls exactly like the shard
    /// loops do.
    fn run_standalone(&mut self, shared: &Shared<'_>, budget: u64) -> Result<(), SimError> {
        let nodes = &mut self.nodes;
        let mut ctx = make_ctx(&mut self.chans, &mut self.dram, shared, self.now);
        let res = 'run: loop {
            match nodes[0].step(&mut ctx) {
                Ok(StepOutcome::Progressed) => ctx.now += 1,
                // Stalled on `busy_until` / in-flight memory, which still
                // holds undelivered output: jump to the wake-up time.
                Ok(StepOutcome::SleepingUntil(t)) => ctx.now = t,
                // Exhausted inputs (or finished): the stream is complete.
                Ok(_) => break 'run Ok(()),
                Err(e) => break 'run Err(e),
            }
            ctx.wakes.clear();
            if ctx.now > budget {
                break 'run Err(SimError::MaxCycles(budget));
            }
        };
        self.now = ctx.now;
        self.flops += ctx.flops;
        res
    }
}

/// Names a channel peer by graph label (`ext` for a harness endpoint).
fn peer_name(nodes: &[Rt], id: u32) -> String {
    match nodes.get(id as usize) {
        Some(n) => format!("{}#{id}", n.io.label),
        None => "ext".into(),
    }
}

fn deadlock_detail(nodes: &[Rt], chans: &[Chan]) -> String {
    let mut parts = Vec::new();
    for (i, n) in nodes.iter().map(|n| &n.io).enumerate() {
        if !n.finished() {
            let ins: Vec<String> = n
                .in_chans
                .iter()
                .map(|c| match c {
                    Some(id) => format!("{}", chans[*id].buf.len()),
                    None => "-".into(),
                })
                .collect();
            let outs: Vec<String> = n.out_q.iter().map(|q| q.len().to_string()).collect();
            // Name every at-capacity output channel this node is trying to
            // flush into, so runtime reports line up with `samcheck`'s
            // static buffer-sizing diagnostics (SA012/SA013).
            let mut full = Vec::new();
            for (p, q) in n.out_q.iter().enumerate() {
                if q.is_empty() {
                    continue;
                }
                for &c in &n.out_chans[p] {
                    let ch = &chans[c];
                    if ch.buf.len() >= ch.cap {
                        full.push(format!(
                            "out{p}->{} at cap {}",
                            peer_name(nodes, ch.reader),
                            ch.cap
                        ));
                    }
                }
            }
            let why = if full.is_empty() {
                String::new()
            } else {
                format!(" full:[{}]", full.join("; "))
            };
            parts.push(format!(
                "{}#{i}[in:{} outq:{} pend:{} done:{} busy:{}]{}",
                n.label,
                ins.join(","),
                outs.join(","),
                n.pending_mem.len(),
                n.done,
                n.busy_until,
                why
            ));
        }
    }
    parts.join(" ")
}

/// Weakly-connected-component id per node, components numbered in order of
/// their lowest node id (so shard numbering is deterministic).
fn shard_assignment(graph: &SamGraph) -> (Vec<usize>, usize) {
    let n = graph.node_count();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut r = x;
        while parent[r] != r {
            r = parent[r];
        }
        let mut c = x;
        while parent[c] != r {
            let next = parent[c];
            parent[c] = r;
            c = next;
        }
        r
    }
    for e in graph.edges() {
        let (a, b) = (find(&mut parent, e.src.node.0), find(&mut parent, e.dst.node.0));
        if a != b {
            parent[b] = a;
        }
    }
    let mut shard_of = vec![usize::MAX; n];
    let mut count = 0;
    for i in 0..n {
        let r = find(&mut parent, i);
        if shard_of[r] == usize::MAX {
            shard_of[r] = count;
            count += 1;
        }
        shard_of[i] = shard_of[r];
    }
    (shard_of, count)
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Runs a SAMML graph on the given environment and configuration.
///
/// The graph is partitioned into weakly-connected shards which run
/// concurrently when `cfg.threads > 1`; see the module docs for why the
/// result is bit-identical to the sequential schedule.
///
/// # Errors
///
/// See [`SimError`]; notably graphs must validate, every tensor slot must be
/// bound, and the run must finish within `cfg.max_cycles`.
pub fn simulate(graph: &SamGraph, env: &TensorEnv, cfg: &SimConfig) -> Result<SimResult, SimError> {
    graph.validate().map_err(SimError::Validation)?;
    let tensors: Vec<&SparseTensor> = graph
        .tensors()
        .iter()
        .map(|slot| env.get(&slot.name).ok_or_else(|| SimError::MissingTensor(slot.name.clone())))
        .collect::<Result<_, _>>()?;
    let tensor_locs: Vec<MemLocation> = graph
        .tensors()
        .iter()
        .map(|s| if cfg.timing.honor_on_chip { s.location } else { MemLocation::Dram })
        .collect();
    let output_locs: Vec<MemLocation> = graph
        .outputs()
        .iter()
        .map(|s| if cfg.timing.honor_on_chip { s.location } else { MemLocation::Dram })
        .collect();

    // Partition nodes into weakly-connected shards. Every edge joins two
    // nodes of the same shard, so channels are shard-local by construction.
    // The configured DRAM bandwidth is statically partitioned across shards
    // (each gets a 1/k channel slice; latencies are unchanged), so a
    // multi-component graph models the same aggregate bandwidth as the
    // single shared channel did — contention is approximated by the static
    // split instead of request-order arbitration. Single-component graphs
    // (the common case) keep the full channel and are unaffected.
    let (shard_of, n_shards) = shard_assignment(graph);
    let slice_bw = cfg.timing.dram_bytes_per_cycle / (n_shards.max(1) as f64);
    let mut shards: Vec<Shard> = (0..n_shards)
        .map(|_| Shard {
            nodes: Vec::new(),
            chans: Vec::new(),
            order: Vec::new(),
            dram: Dram::new(
                slice_bw,
                cfg.timing.dram_stream_latency,
                cfg.timing.dram_random_latency,
            ),
            now: 0,
            flops: 0,
            sched: SchedCounters::default(),
        })
        .collect();

    // Shard-local node indices, assigned in increasing global-id order
    // (needed up front so channels can carry reader/writer back-pointers).
    let mut local_of = vec![0usize; graph.node_count()];
    let mut shard_sizes = vec![0usize; n_shards];
    for (i, slot) in local_of.iter_mut().enumerate() {
        *slot = shard_sizes[shard_of[i]];
        shard_sizes[shard_of[i]] += 1;
    }

    // Channels: one per edge, ids local to the owning shard, each carrying
    // back-pointers to its writing (src) and reading (dst) node for the
    // event scheduler's wake lists.
    let fanin = graph.fanin();
    let fanout = graph.fanout();
    let mut edge_chan: HashMap<(usize, usize, usize, usize), usize> = HashMap::new();
    for e in graph.edges() {
        let s = shard_of[e.src.node.0];
        let id = shards[s].chans.len();
        shards[s].chans.push(Chan::new(
            cfg.channel_capacity,
            local_of[e.src.node.0] as u32,
            local_of[e.dst.node.0] as u32,
        ));
        edge_chan.insert((e.src.node.0, e.src.port, e.dst.node.0, e.dst.port), id);
    }

    for (i, kind) in graph.nodes().iter().enumerate() {
        let n_in = kind.input_ports().len();
        let n_out = kind.output_ports().len();
        let mut in_chans = vec![None; n_in];
        for (p, slot) in in_chans.iter_mut().enumerate() {
            if let Some(src) = fanin.get(&(fuseflow_sam::NodeId(i), p)) {
                *slot = Some(edge_chan[&(src.node.0, src.port, i, p)]);
            }
        }
        let mut out_chans = vec![Vec::new(); n_out];
        for (p, dsts_out) in out_chans.iter_mut().enumerate() {
            if let Some(dsts) = fanout.get(&(fuseflow_sam::NodeId(i), p)) {
                for d in dsts {
                    dsts_out.push(edge_chan[&(i, p, d.node.0, d.port)]);
                }
            }
        }
        let shard = &mut shards[shard_of[i]];
        debug_assert_eq!(local_of[i], shard.nodes.len());
        shard.nodes.push(Rt::new(
            kind.clone(),
            graph.label(fuseflow_sam::NodeId(i)).to_string(),
            in_chans,
            out_chans,
            &cfg.timing,
        ));
    }

    // Per-shard topological order (the global order filtered per shard).
    for nid in graph.topo_order().expect("validated graphs are acyclic") {
        let order = local_of[nid.0];
        shards[shard_of[nid.0]].order.push(order);
    }

    // Run every shard: sequentially, or on the scoped worker pool. Either
    // way the reported error is the lowest-indexed failing shard's.
    let shared =
        Shared { tensors: &tensors, tensor_locs: &tensor_locs, output_locs: &output_locs, cfg };
    if cfg.threads > 1 && shards.len() > 1 {
        let shared_ref = &shared;
        let ran = parallel_map(cfg.threads, shards, |mut shard| {
            let res = shard.run(shared_ref);
            (shard, res)
        });
        let mut first_err = Ok(());
        shards = ran
            .into_iter()
            .map(|(shard, res)| {
                if first_err.is_ok() {
                    if let Err(e) = res {
                        first_err = Err(e);
                    }
                }
                shard
            })
            .collect();
        first_err?;
    } else {
        for shard in &mut shards {
            shard.run(&shared)?;
        }
    }

    // Merge counters deterministically (shard order). Shards model
    // concurrently executing partitions, so wall-clock cycles are the max
    // over shard clocks while traffic and work counters sum.
    let mut stats = Stats {
        cycles: shards.iter().map(|s| s.now).max().unwrap_or(1),
        dram_read_bytes: shards.iter().map(|s| s.dram.read_bytes()).sum(),
        dram_write_bytes: shards.iter().map(|s| s.dram.write_bytes()).sum(),
        flops: shards.iter().map(|s| s.flops).sum(),
        node_tokens: HashMap::new(),
        sched: SchedCounters::default(),
    };
    for shard in &shards {
        stats.sched.merge(&shard.sched);
        for rt in &shard.nodes {
            *stats.node_tokens.entry(rt.io.label.clone()).or_insert(0) += rt.io.elems;
        }
    }

    // Collect writer streams per output slot: one per coordinate level plus
    // the value stream.
    type Streams = (Vec<Option<Vec<Token>>>, Option<Vec<Token>>);
    let mut streams: Vec<Streams> =
        graph.outputs().iter().map(|slot| (vec![None; slot.format.order()], None)).collect();
    for rt in shards.iter_mut().flat_map(|s| s.nodes.iter_mut()) {
        if let Prim::Writer { output, level, tokens } = &mut rt.prim {
            let (crds, vals) = &mut streams[*output];
            let tokens = Some(std::mem::take(tokens));
            match level {
                Some(l) => crds[*l] = tokens,
                None => *vals = tokens,
            }
        }
    }
    let mut outputs = HashMap::new();
    for (slot, (crds, vals)) in graph.outputs().iter().zip(streams) {
        let crd_streams: Vec<Vec<Token>> = crds
            .into_iter()
            .enumerate()
            .map(|(l, s)| {
                s.ok_or(SimError::Rebuild(format!(
                    "output '{}' missing level {l} writer",
                    slot.name
                )))
            })
            .collect::<Result<_, _>>()?;
        let vals =
            vals.ok_or(SimError::Rebuild(format!("output '{}' missing value writer", slot.name)))?;
        let t = assemble_output(slot, &crd_streams, &vals).map_err(SimError::Rebuild)?;
        outputs.insert(slot.name.clone(), t);
    }

    Ok(SimResult { outputs, stats })
}

/// Runs a single node in isolation on literal input streams. Intended for
/// unit and property tests of primitive semantics.
///
/// `inputs[p]` feeds input port `p` (empty vector = unconnected). Returns
/// one token vector per output port.
///
/// # Errors
///
/// Propagates [`SimError`] exactly like [`simulate`].
pub fn run_node_standalone(
    kind: NodeKind,
    inputs: Vec<Vec<Token>>,
    tensors: Vec<SparseTensor>,
) -> Result<Vec<Vec<Token>>, SimError> {
    let cfg = SimConfig::default();
    let n_in = kind.input_ports().len();
    let n_out = kind.output_ports().len();
    assert_eq!(inputs.len(), n_in, "one input stream per port (empty = unconnected)");

    let mut chans = Vec::new();
    let mut in_chans = vec![None; n_in];
    for (p, toks) in inputs.iter().enumerate() {
        if !toks.is_empty() {
            // Pre-seeded by the harness: no writer node.
            let mut c = Chan::new(usize::MAX, NO_NODE, 0);
            c.buf.extend(toks.iter().cloned());
            chans.push(c);
            in_chans[p] = Some(chans.len() - 1);
        }
    }
    let mut out_chans = vec![Vec::new(); n_out];
    let mut capture = Vec::new();
    for (p, oc) in out_chans.iter_mut().enumerate() {
        // Captured by the harness: no reader node.
        chans.push(Chan::new(usize::MAX, 0, NO_NODE));
        oc.push(chans.len() - 1);
        capture.push((p, chans.len() - 1));
    }

    let rt = Rt::new(kind, "standalone".into(), in_chans, out_chans, &cfg.timing);
    let tensor_refs: Vec<&SparseTensor> = tensors.iter().collect();
    let tensor_locs = vec![MemLocation::OnChip; tensors.len()];
    let output_locs = Vec::new();
    let shared = Shared {
        tensors: &tensor_refs,
        tensor_locs: &tensor_locs,
        output_locs: &output_locs,
        cfg: &cfg,
    };
    let mut shard = Shard {
        nodes: vec![rt],
        chans,
        order: vec![0],
        dram: Dram::new(1e9, 0, 0),
        now: 0,
        flops: 0,
        sched: SchedCounters::default(),
    };
    shard.run_standalone(&shared, 10_000_000)?;
    Ok(capture.into_iter().map(|(_, c)| shard.chans[c].buf.iter().cloned().collect()).collect())
}
