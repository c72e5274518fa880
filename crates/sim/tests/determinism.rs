//! Sequential/parallel engine equivalence and standalone-runner timing
//! regressions.
//!
//! The sharded engine must produce **bit-identical** `outputs` and `Stats`
//! for `threads = 1` and `threads >= 2` on every graph — including graphs
//! with several weakly-connected components, where threads > 1 actually
//! runs shards concurrently.

use fuseflow_sam::{AluOp, Block, MemLocation, NodeKind, Payload, ReduceOp, SamGraph, Token};
use fuseflow_sim::{run_node_standalone, simulate, Scheduler, SimConfig, SimResult, TensorEnv};
use fuseflow_tensor::{gen, reference, Format};

fn assert_bit_identical(seq: &SimResult, par: &SimResult) {
    assert_eq!(seq.stats, par.stats, "stats must not depend on the thread count");
    assert_eq!(
        seq.outputs.len(),
        par.outputs.len(),
        "output sets must not depend on the thread count"
    );
    for (name, t) in &seq.outputs {
        assert_eq!(Some(t), par.outputs.get(name), "output '{name}' diverged");
    }
}

/// Cross-scheduler comparison: outputs and *semantic* stats (cycles,
/// FLOPs, bytes, token counts) must be bit-identical; only the
/// scheduler-implementation counters (`stats.sched`) may differ.
fn assert_schedulers_agree(event: &SimResult, sweep: &SimResult) {
    assert_eq!(
        event.stats.semantic(),
        sweep.stats.semantic(),
        "semantic stats must not depend on the scheduler backend"
    );
    assert_eq!(event.outputs.len(), sweep.outputs.len());
    for (name, t) in &event.outputs {
        assert_eq!(Some(t), sweep.outputs.get(name), "output '{name}' diverged across schedulers");
    }
}

/// Both scheduler backends, for the Sweep ≡ Event differential suites.
const ALL_SCHEDULERS: [Scheduler; 2] = [Scheduler::Event, Scheduler::Sweep];

/// Runs `g` under every scheduler x thread-count combination and asserts
/// all of them agree with the `Event`/1-thread base run, which is
/// returned.
fn assert_two_way_identical(g: &SamGraph, env: &TensorEnv, cfg: &SimConfig) -> SimResult {
    let base = simulate(g, env, &cfg.clone().with_scheduler(Scheduler::Event)).unwrap();
    for sched in ALL_SCHEDULERS {
        for threads in [1usize, 2, 4] {
            let other =
                simulate(g, env, &cfg.clone().with_scheduler(sched).with_threads(threads)).unwrap();
            assert_eq!(
                base.stats.semantic(),
                other.stats.semantic(),
                "semantic stats diverged for {sched:?} x {threads} threads"
            );
            for (name, t) in &base.outputs {
                assert_eq!(
                    Some(t),
                    other.outputs.get(name),
                    "output '{name}' diverged for {sched:?} x {threads} threads"
                );
            }
        }
    }
    base
}

fn run_both(g: &SamGraph, env: &TensorEnv) -> (SimResult, SimResult) {
    let seq = simulate(g, env, &SimConfig::default()).unwrap();
    let par = simulate(g, env, &SimConfig::default().with_threads(4)).unwrap();
    (seq, par)
}

/// Gustavson SpMM `T_ij = sum_k A_ik * X_kj` (same wiring as the graphs.rs
/// suite): a single weakly-connected component.
fn build_spmm(g: &mut SamGraph, m: usize, n: usize) {
    let a = g.add_tensor("A", MemLocation::Dram);
    let x = g.add_tensor("X", MemLocation::Dram);
    let out = g.add_output("T", vec![m, n], Format::csr(), MemLocation::Dram);

    let root_a = g.add_node(NodeKind::Root);
    let root_x = g.add_node(NodeKind::Root);
    let ai = g.add_node(NodeKind::LevelScanner { tensor: a, level: 0 });
    let rep_x = g.add_node(NodeKind::Repeat);
    let ak = g.add_node(NodeKind::LevelScanner { tensor: a, level: 1 });
    let xk = g.add_node(NodeKind::LevelScanner { tensor: x, level: 0 });
    let isect_k = g.add_node(NodeKind::Intersect);
    let a_vals = g.add_node(NodeKind::Array { tensor: a });
    let xj = g.add_node(NodeKind::LevelScanner { tensor: x, level: 1 });
    let rep_a = g.add_node(NodeKind::Repeat);
    let x_vals = g.add_node(NodeKind::Array { tensor: x });
    let mul = g.add_node(NodeKind::Alu { op: AluOp::Mul });
    let spacc = g.add_node(NodeKind::Spacc1 { op: ReduceOp::Sum });
    let wc0 = g.add_node(NodeKind::CrdWriter { output: out, level: 0 });
    let wc1 = g.add_node(NodeKind::CrdWriter { output: out, level: 1 });
    let wv = g.add_node(NodeKind::ValWriter { output: out });

    g.connect(root_a, 0, ai, 0);
    g.connect(root_x, 0, rep_x, 0);
    g.connect(ai, 0, rep_x, 1);
    g.connect(ai, 0, wc0, 0);
    g.connect(ai, 1, ak, 0);
    g.connect(rep_x, 0, xk, 0);
    g.connect(ak, 0, isect_k, 0);
    g.connect(ak, 1, isect_k, 1);
    g.connect(xk, 0, isect_k, 2);
    g.connect(xk, 1, isect_k, 3);
    g.connect(isect_k, 1, a_vals, 0);
    g.connect(isect_k, 2, xj, 0);
    g.connect(a_vals, 0, rep_a, 0);
    g.connect(xj, 0, rep_a, 1);
    g.connect(xj, 1, x_vals, 0);
    g.connect(rep_a, 0, mul, 0);
    g.connect(x_vals, 0, mul, 1);
    g.connect(xj, 0, spacc, 0);
    g.connect(mul, 0, spacc, 1);
    g.connect(spacc, 0, wc1, 0);
    g.connect(spacc, 1, wv, 0);
}

/// An identity-copy pipeline `scan -> writers` over one CSR matrix, with a
/// caller-chosen tensor/output name. Each instance is its own
/// weakly-connected component, so `k` instances in one graph give the
/// parallel engine `k` shards to schedule.
fn add_copy_pipeline(g: &mut SamGraph, tensor_name: &str, out_name: &str, shape: [usize; 2]) {
    let t = g.add_tensor(tensor_name, MemLocation::Dram);
    let o = g.add_output(out_name, shape.to_vec(), Format::csr(), MemLocation::Dram);
    let root = g.add_node(NodeKind::Root);
    let bi = g.add_node(NodeKind::LevelScanner { tensor: t, level: 0 });
    let bj = g.add_node(NodeKind::LevelScanner { tensor: t, level: 1 });
    let arr = g.add_node(NodeKind::Array { tensor: t });
    let wc0 = g.add_node(NodeKind::CrdWriter { output: o, level: 0 });
    let wc1 = g.add_node(NodeKind::CrdWriter { output: o, level: 1 });
    let wv = g.add_node(NodeKind::ValWriter { output: o });
    g.connect(root, 0, bi, 0);
    g.connect(bi, 0, wc0, 0);
    g.connect(bi, 1, bj, 0);
    g.connect(bj, 0, wc1, 0);
    g.connect(bj, 1, arr, 0);
    g.connect(arr, 0, wv, 0);
}

#[test]
fn spmm_parallel_bit_identical_to_sequential() {
    let a = gen::adjacency(24, 0.12, gen::GraphPattern::Uniform, 42, &Format::csr());
    let x = gen::sparse_features(24, 16, 0.3, 7, &Format::csr());
    let expect = reference::matmul(&a.to_dense(), &x.to_dense());
    let mut g = SamGraph::new();
    build_spmm(&mut g, 24, 16);
    let mut env = TensorEnv::new();
    env.insert("A", a);
    env.insert("X", x);
    let (seq, par) = run_both(&g, &env);
    assert_bit_identical(&seq, &par);
    assert!(seq.outputs["T"].to_dense().approx_eq(&expect));
}

#[test]
fn multi_shard_graph_parallel_bit_identical_to_sequential() {
    // Four disconnected copy pipelines: the parallel engine really runs
    // these as four concurrent shards.
    let mut g = SamGraph::new();
    let mut env = TensorEnv::new();
    let mut tensors = Vec::new();
    for i in 0..4 {
        let name = format!("B{i}");
        let out = format!("T{i}");
        add_copy_pipeline(&mut g, &name, &out, [12, 12]);
        let t = gen::sparse_features(12, 12, 0.2 + 0.1 * i as f64, 30 + i as u64, &Format::csr());
        env.insert(name, t.clone());
        tensors.push((out, t));
    }
    let (seq, par) = run_both(&g, &env);
    assert_bit_identical(&seq, &par);
    for (out, t) in &tensors {
        assert_eq!(seq.outputs[out].to_dense(), t.to_dense(), "pipeline {out} copied wrong data");
    }
    // Shards of different sizes finish at different local times; the merged
    // cycle count is their max, so it must dominate any single pipeline
    // simulated alone.
    let mut alone = SamGraph::new();
    add_copy_pipeline(&mut alone, "B3", "T3", [12, 12]);
    let solo = simulate(&alone, &env, &SimConfig::default()).unwrap();
    assert!(seq.stats.cycles >= solo.stats.cycles);
}

#[test]
fn oversubscribed_thread_pool_is_still_identical() {
    // More threads than shards (and than host cores) must change nothing.
    let mut g = SamGraph::new();
    add_copy_pipeline(&mut g, "B0", "T0", [10, 10]);
    add_copy_pipeline(&mut g, "B1", "T1", [10, 10]);
    let mut env = TensorEnv::new();
    env.insert("B0", gen::sparse_features(10, 10, 0.3, 1, &Format::csr()));
    env.insert("B1", gen::sparse_features(10, 10, 0.4, 2, &Format::csr()));
    let seq = simulate(&g, &env, &SimConfig::default()).unwrap();
    for threads in [2, 3, 16] {
        let par = simulate(&g, &env, &SimConfig::default().with_threads(threads)).unwrap();
        assert_bit_identical(&seq, &par);
    }
}

#[test]
fn parallel_error_reporting_matches_sequential() {
    let mut g = SamGraph::new();
    add_copy_pipeline(&mut g, "B0", "T0", [8, 8]);
    add_copy_pipeline(&mut g, "B1", "T1", [8, 8]);
    let mut env = TensorEnv::new();
    env.insert("B0", gen::sparse_features(8, 8, 0.3, 3, &Format::csr()));

    // Missing binding: detected before any shard runs, same both ways.
    let seq = simulate(&g, &env, &SimConfig::default()).unwrap_err();
    let par = simulate(&g, &env, &SimConfig::default().with_threads(4)).unwrap_err();
    assert_eq!(seq, par);

    // Exhausted cycle budget inside the shard runner: with every shard
    // failing, both schedules must deterministically report the error of
    // the lowest-indexed shard.
    env.insert("B1", gen::sparse_features(8, 8, 0.3, 4, &Format::csr()));
    let tiny = SimConfig { max_cycles: 2, ..SimConfig::default() };
    let seq = simulate(&g, &env, &tiny).unwrap_err();
    let par = simulate(&g, &env, &tiny.clone().with_threads(4)).unwrap_err();
    assert_eq!(seq, fuseflow_sim::SimError::MaxCycles(2));
    assert_eq!(seq, par);
}

/// Regression: `run_node_standalone` used to exit on the first no-progress
/// cycle, truncating the output of any node that stalls on `busy_until` or
/// in-flight memory. A blocked tile matmul occupies the ALU for
/// `cols / lanes` cycles per tile, so the second input pair (and the
/// trailing `Done`) arrived while the node was "busy" and got dropped.
#[test]
fn standalone_runner_fast_forwards_over_busy_stalls() {
    let b = 4; // busy = b cycles per tile under the Comal backend (1 lane)
    let tile =
        |seed: f32| Block::new(b, b, (0..b * b).map(|i| seed + i as f32).collect::<Vec<_>>());
    let lhs = vec![
        Token::Elem(Payload::Blk(tile(1.0))),
        Token::Elem(Payload::Blk(tile(2.0))),
        Token::Stop(0),
        Token::Done,
    ];
    let rhs = vec![
        Token::Elem(Payload::Blk(tile(3.0))),
        Token::Elem(Payload::Blk(tile(4.0))),
        Token::Stop(0),
        Token::Done,
    ];
    let out =
        run_node_standalone(NodeKind::Alu { op: AluOp::Mul }, vec![lhs, rhs], vec![]).unwrap();
    // Both products, the stop, and Done must all come through.
    assert_eq!(out[0].len(), 4, "busy stalls truncated the stream: {:?}", out[0]);
    assert!(matches!(out[0][0], Token::Elem(Payload::Blk(_))));
    assert!(matches!(out[0][1], Token::Elem(Payload::Blk(_))));
    assert_eq!(out[0][2], Token::Stop(0));
    assert_eq!(out[0][3], Token::Done);
    // And the first product is the actual tile matmul.
    let Token::Elem(Payload::Blk(p)) = &out[0][0] else { unreachable!() };
    assert_eq!(p.data(), tile(1.0).matmul(&tile(3.0)).data());
}

/// Regression companion: scanners park DRAM retirements in `pending_mem`;
/// the standalone runner must drain them rather than stopping at the first
/// stalled cycle.
#[test]
fn standalone_scanner_drains_pending_memory() {
    let d = gen::sparse_features(10, 10, 0.3, 5, &Format::csr());
    let nnz_row0: usize = d.to_dense().data()[0..10].iter().filter(|v| **v != 0.0).count();
    let refs = vec![Token::idx(0), Token::Stop(0), Token::Done];
    let out =
        run_node_standalone(NodeKind::LevelScanner { tensor: 0, level: 1 }, vec![refs], vec![d])
            .unwrap();
    // crd port: nnz elements, then Stop(1) (outer stop bumped), then Done.
    let elems = out[0].iter().filter(|t| t.is_elem()).count();
    assert_eq!(elems, nnz_row0);
    assert_eq!(out[0].last(), Some(&Token::Done));
}

#[test]
fn threads_knob_clamps_to_one() {
    let cfg = SimConfig::default().with_threads(0);
    assert_eq!(cfg.threads, 1);
}

// ---------------------------------------------------------------------------
// Two-way oracle: event-driven vs. legacy sweep
// ---------------------------------------------------------------------------

#[test]
fn event_scheduler_is_default() {
    assert_eq!(SimConfig::default().scheduler, Scheduler::Event);
}

#[test]
fn spmm_two_way_bit_identical() {
    let a = gen::adjacency(24, 0.12, gen::GraphPattern::Uniform, 42, &Format::csr());
    let x = gen::sparse_features(24, 16, 0.3, 7, &Format::csr());
    let mut g = SamGraph::new();
    build_spmm(&mut g, 24, 16);
    let mut env = TensorEnv::new();
    env.insert("A", a);
    env.insert("X", x);
    let event = assert_two_way_identical(&g, &env, &SimConfig::default());
    let sweep = simulate(&g, &env, &SimConfig::default().with_scheduler(Scheduler::Sweep)).unwrap();
    // The event engine must actually be doing less scheduler work: every
    // visited cycle, the sweep steps all nodes; the event engine only the
    // woken ones.
    assert!(
        event.stats.sched.events < sweep.stats.sched.events,
        "event engine stepped {} nodes vs sweep {}",
        event.stats.sched.events,
        sweep.stats.sched.events
    );
}

#[test]
fn copy_pipeline_two_way_bit_identical() {
    // A straight scan -> write pipeline: one shard, no joins.
    let mut g = SamGraph::new();
    add_copy_pipeline(&mut g, "B0", "T0", [12, 12]);
    let mut env = TensorEnv::new();
    env.insert("B0", gen::sparse_features(12, 12, 0.3, 11, &Format::csr()));
    assert_two_way_identical(&g, &env, &SimConfig::default());
}

#[test]
fn multi_shard_two_way_bit_identical_at_all_thread_counts() {
    let mut g = SamGraph::new();
    let mut env = TensorEnv::new();
    for i in 0..4 {
        let name = format!("B{i}");
        let out = format!("T{i}");
        add_copy_pipeline(&mut g, &name, &out, [12, 12]);
        env.insert(
            name,
            gen::sparse_features(12, 12, 0.2 + 0.1 * i as f64, 30 + i as u64, &Format::csr()),
        );
    }
    let sweep = simulate(&g, &env, &SimConfig::default().with_scheduler(Scheduler::Sweep)).unwrap();
    for sched in ALL_SCHEDULERS {
        for threads in [1, 2, 4, 16] {
            let other = simulate(
                &g,
                &env,
                &SimConfig::default().with_scheduler(sched).with_threads(threads),
            )
            .unwrap();
            assert_schedulers_agree(&other, &sweep);
        }
    }
}

/// Long-latency stall coverage: block ALUs occupy the unit for many cycles
/// and DRAM gathers park tokens in `pending_mem`, exercising the calendar
/// queue's timer wakes (including idle-gap jumps) on both backends. The
/// 700-cycle random latency puts scanner wakes past the calendar horizon
/// (heap path).
#[test]
fn latency_dominated_graph_two_way_bit_identical() {
    use fuseflow_sim::TimingConfig;
    let a = gen::adjacency(16, 0.2, gen::GraphPattern::PowerLaw, 9, &Format::csr());
    let x = gen::sparse_features(16, 8, 0.4, 10, &Format::csr());
    let mut g = SamGraph::new();
    build_spmm(&mut g, 16, 8);
    let mut env = TensorEnv::new();
    env.insert("A", a);
    env.insert("X", x);
    let mut timing = TimingConfig::comal();
    timing.dram_stream_latency = 96;
    timing.dram_random_latency = 700; // beyond the calendar horizon: heap path
    timing.outstanding = 2;
    let cfg = SimConfig { timing, ..SimConfig::default() };
    let event = assert_two_way_identical(&g, &env, &cfg);
    assert!(event.stats.sched.cycles_skipped > 0, "expected idle-gap fast-forwards");
}

#[test]
fn error_paths_match_across_schedulers() {
    // Exhausted cycle budget must be reported at the same point by both
    // backends.
    let mut g = SamGraph::new();
    add_copy_pipeline(&mut g, "B0", "T0", [8, 8]);
    let mut env = TensorEnv::new();
    env.insert("B0", gen::sparse_features(8, 8, 0.3, 3, &Format::csr()));
    let tiny = SimConfig { max_cycles: 2, ..SimConfig::default() };
    for sched in ALL_SCHEDULERS {
        let err = simulate(&g, &env, &tiny.clone().with_scheduler(sched)).unwrap_err();
        assert_eq!(err, fuseflow_sim::SimError::MaxCycles(2), "wrong error under {sched:?}");
    }

    // A run that genuinely deadlocks must report the same cycle under every
    // scheduler: with `outstanding = 0` no node can ever issue a memory
    // request, so after the initial token exchanges every node starves with
    // no pending wake-up.
    let mut g = SamGraph::new();
    build_spmm(&mut g, 8, 8);
    let mut env = TensorEnv::new();
    env.insert("A", gen::adjacency(8, 0.3, gen::GraphPattern::Uniform, 5, &Format::csr()));
    env.insert("X", gen::sparse_features(8, 8, 0.4, 6, &Format::csr()));
    let mut timing = fuseflow_sim::TimingConfig::comal();
    timing.outstanding = 0;
    let cfg = SimConfig { timing, ..SimConfig::default() };
    let mut cycles = Vec::new();
    for sched in ALL_SCHEDULERS {
        match simulate(&g, &env, &cfg.clone().with_scheduler(sched)) {
            Err(fuseflow_sim::SimError::Deadlock { cycle, .. }) => cycles.push(cycle),
            other => panic!("expected deadlock under {sched:?}, got {other:?}"),
        }
    }
    assert_eq!(cycles[0], cycles[1], "event vs sweep deadlock cycle");
}

// ---------------------------------------------------------------------------
// Two-way oracle over the model zoo (full compiler pipeline)
// ---------------------------------------------------------------------------

/// Runs one model end to end (compile + simulate every region) under every
/// scheduler x thread-count combination, fused and unfused, asserting
/// bit-identical outputs and semantic stats throughout. Tensors live at
/// `loc` (`MemLocation::OnChip` compiles a graph with no DRAM traffic).
fn assert_model_two_way_identical(m: &fuseflow_models::ModelInstance, loc: MemLocation) {
    use fuseflow_core::pipeline::{compile_at, run};
    use fuseflow_models::Fusion;
    for fusion in [Fusion::Unfused, Fusion::Full] {
        let sched = m.schedule(fusion);
        let compiled = compile_at(&m.program, &sched, loc).unwrap();
        let base = run(&m.program, &compiled, &m.inputs, &SimConfig::default()).unwrap();
        for scheduler in ALL_SCHEDULERS {
            for threads in [1usize, 2, 4] {
                let cfg = SimConfig::default().with_scheduler(scheduler).with_threads(threads);
                let other = run(&m.program, &compiled, &m.inputs, &cfg).unwrap();
                assert_eq!(
                    base.stats.semantic(),
                    other.stats.semantic(),
                    "{}: stats diverged for {fusion} x {loc:?} x {scheduler:?} x {threads} threads",
                    m.name
                );
                assert_eq!(
                    &base.outputs, &other.outputs,
                    "{}: outputs diverged for {fusion} x {loc:?} x {scheduler:?} x {threads} threads",
                    m.name
                );
            }
        }
    }
}

#[test]
fn model_zoo_sae_two_way_bit_identical() {
    assert_model_two_way_identical(
        &fuseflow_models::sae("sae", 16, 8, 4, 0.4, 13),
        MemLocation::Dram,
    );
}

#[test]
fn model_zoo_gcn_two_way_bit_identical() {
    let ds = fuseflow_models::GraphDataset {
        name: "tiny",
        nodes: 16,
        feats: 8,
        density: 0.15,
        pattern: gen::GraphPattern::PowerLaw,
    };
    // DRAM-resident and pinned on-chip (the BRAM-resident regime).
    let m = fuseflow_models::gcn(&ds, 8, 4, 17);
    assert_model_two_way_identical(&m, MemLocation::Dram);
    assert_model_two_way_identical(&m, MemLocation::OnChip);
}

#[test]
fn model_zoo_graphsage_two_way_bit_identical() {
    let ds = fuseflow_models::GraphDataset {
        name: "tiny",
        nodes: 16,
        feats: 8,
        density: 0.15,
        pattern: gen::GraphPattern::Uniform,
    };
    assert_model_two_way_identical(&fuseflow_models::graphsage(&ds, 8, 4, 19), MemLocation::Dram);
}

#[test]
fn model_zoo_gpt_attention_two_way_bit_identical() {
    assert_model_two_way_identical(&fuseflow_models::gpt_attention(8, 4, 4, 23), MemLocation::Dram);
}

/// The fully-fused map stack lowers to one long unary-ALU chain: deep
/// single-reader/single-writer pipelines where most channels hold a token
/// every cycle.
#[test]
fn model_zoo_map_stack_two_way_bit_identical() {
    assert_model_two_way_identical(&fuseflow_models::map_stack(16, 9, 0.3, 29), MemLocation::Dram);
}
