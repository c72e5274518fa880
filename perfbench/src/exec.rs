//! Executing one point, either through the library's own entry points
//! (`compile_with`, `run`) or as a traced replay of what they do, built
//! from the public pass functions with a span around each call.

use crate::trace::Tracer;
use fuseflow_core::fusion::fuse_region;
use fuseflow_core::heuristic::estimate;
use fuseflow_core::interp::{interpret, Structured};
use fuseflow_core::ir::{Program, TensorId};
use fuseflow_core::lower::{globalize_region, lower_region, LowerError, LowerOptions, Lowered};
use fuseflow_core::pipeline::{compile_with, run, PipelineError};
use fuseflow_core::schedule::{IterationStyle, Schedule};
use fuseflow_models::ModelInstance;
use fuseflow_sam::MemLocation;
use fuseflow_sim::{simulate, SimConfig, Stats, TensorEnv};
use fuseflow_tensor::SparseTensor;
use fuseflow_verify::{enforce, verify_graph, VerifyConfig};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// What a point produced. Equal outcomes mean equal simulated behaviour:
/// this is what the determinism and replay checks compare.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Compiled, scored by the heuristic, simulated, and every output
    /// matched the reference.
    Simulated { nodes: Vec<usize>, est_bytes: f64, stats: Stats },
    /// Compiled and scored by the heuristic (`schedule_prune`).
    Scored { nodes: Vec<usize>, est_bytes: f64 },
    /// The compiler refused the schedule with a typed error
    /// (`schedule_prune` only; elsewhere it is a failure).
    Rejected(String),
    /// A panic, a simulator error, a refused schedule where one was
    /// expected to compile, or an output that diverges from the reference.
    Failed(String),
}

impl Outcome {
    pub fn failed(&self) -> bool {
        matches!(self, Outcome::Failed(_))
    }
}

/// Host time one untraced point spent in each call.
#[derive(Debug, Default, Clone, Copy)]
pub struct PointTimes {
    pub compile_s: f64,
    pub run_s: f64,
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

/// Runs `f`, turning a panic into `Outcome::Failed`.
fn guarded(f: impl FnOnce() -> Outcome) -> Outcome {
    catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|p| Outcome::Failed(format!("panic: {}", panic_message(p))))
}

/// A refused compile: a typed rejection when the workload prunes
/// schedules, a failure when every schedule is expected to compile.
fn refused(simulates: bool, e: &PipelineError) -> Outcome {
    if simulates {
        Outcome::Failed(format!("compile: {e}"))
    } else {
        Outcome::Rejected(e.to_string())
    }
}

/// The untraced path: `compile_with` and `estimate`, then `run` and the
/// reference check unless the workload only scores schedules.
pub fn run_point(
    m: &ModelInstance,
    schedule: &Schedule,
    simulates: bool,
    times: &mut PointTimes,
) -> Outcome {
    guarded(|| {
        let t0 = Instant::now();
        let compiled =
            compile_with(&m.program, schedule, MemLocation::Dram, &VerifyConfig::default());
        times.compile_s = t0.elapsed().as_secs_f64();
        let compiled = match compiled {
            Ok(c) => c,
            Err(e) => return refused(simulates, &e),
        };
        let nodes = compiled.lowered.iter().map(|l| l.graph.node_count()).collect();
        let est = estimate(&m.program, schedule, &m.inputs);
        if !simulates {
            return Outcome::Scored { nodes, est_bytes: est.bytes };
        }
        let t1 = Instant::now();
        let result = run(&m.program, &compiled, &m.inputs, &SimConfig::default());
        times.run_s = t1.elapsed().as_secs_f64();
        let result = match result {
            Ok(r) => r,
            Err(e) => return Outcome::Failed(format!("run: {e}")),
        };
        let checked = interpret(&m.program, &m.inputs)
            .map_err(|e| format!("reference: {e}"))
            .and_then(|golden| compare(&m.program, &golden, &result.outputs));
        match checked {
            Ok(()) => {
                Outcome::Simulated { nodes, est_bytes: est.bytes, stats: result.stats.semantic() }
            }
            Err(msg) => Outcome::Failed(msg),
        }
    })
}

/// Checks every program output against the reference interpreter.
fn compare(
    program: &Program,
    golden: &HashMap<String, Structured>,
    outputs: &HashMap<String, SparseTensor>,
) -> Result<(), String> {
    for &t in program.outputs() {
        let name = &program.tensor(t).name;
        let got = outputs.get(name).ok_or_else(|| format!("output '{name}' missing"))?;
        let want = golden.get(name).ok_or_else(|| format!("reference lacks '{name}'"))?;
        let got = got.to_dense();
        if !got.approx_eq(&want.vals) {
            return Err(format!(
                "output '{name}' diverges from the reference (max abs diff {})",
                got.max_abs_diff(&want.vals)
            ));
        }
    }
    Ok(())
}

/// Work counted by the traced replay, summed over the points of a pass.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counters {
    /// SAMML nodes in the lowered graphs that were kept.
    pub lower_nodes: u64,
    /// Regions whose parallelized lowering failed and fell back to serial.
    pub par_fallbacks: u64,
    /// Points refused by fusion or lowering (`LowerError`).
    pub lower_rejects: u64,
    /// Diagnostics `verify_graph` reported, before the lint policy.
    pub verify_diags: u64,
    pub sim_events: u64,
    pub sim_cycles: u64,
    pub sim_cycles_skipped: u64,
    /// Largest ready set of any `simulate` call.
    pub sim_peak_ready: u64,
    /// Data tokens processed, over every node.
    pub sim_tokens: u64,
}

/// The fiber-length bound `compile_with` hands the static analyzer: the
/// largest tensor dimension of the program.
fn fiber_upper_bound(program: &Program) -> Option<u64> {
    program.tensors().iter().flat_map(|t| t.shape.iter()).max().map(|&d| d as u64)
}

/// The traced path: the same steps as [`run_point`], made of the public
/// functions `compile_with` and `run` call, each inside a span. The caller
/// compares the outcome with [`run_point`]'s to prove the two paths agree.
pub fn replay_point(
    m: &ModelInstance,
    schedule: &Schedule,
    simulates: bool,
    t: &mut Tracer,
    c: &mut Counters,
) -> Outcome {
    let outcome = guarded(|| {
        t.span("point", |t| {
            let lowered = match t.span("compile", |t| replay_compile(&m.program, schedule, t, c)) {
                Ok(l) => l,
                Err(e) => {
                    if let PipelineError::Lower(_) = e {
                        c.lower_rejects += 1;
                    }
                    return refused(simulates, &e);
                }
            };
            let nodes: Vec<usize> = lowered.iter().map(|l| l.graph.node_count()).collect();
            c.lower_nodes += nodes.iter().sum::<usize>() as u64;
            let est = t.span("estimate", |_| estimate(&m.program, schedule, &m.inputs));
            if !simulates {
                return Outcome::Scored { nodes, est_bytes: est.bytes };
            }
            let (outputs, stats) = match t.span("run", |t| replay_run(m, &lowered, t, c)) {
                Ok(r) => r,
                Err(e) => return Outcome::Failed(format!("run: {e}")),
            };
            let golden = match t.span("interpret", |_| interpret(&m.program, &m.inputs)) {
                Ok(g) => g,
                Err(e) => return Outcome::Failed(format!("reference: {e}")),
            };
            match t.span("check", |_| compare(&m.program, &golden, &outputs)) {
                Ok(()) => {
                    Outcome::Simulated { nodes, est_bytes: est.bytes, stats: stats.semantic() }
                }
                Err(msg) => Outcome::Failed(msg),
            }
        })
    });
    t.close_open();
    outcome
}

/// `compile_with` at `MemLocation::Dram` under the default lint policy.
fn replay_compile(
    program: &Program,
    schedule: &Schedule,
    t: &mut Tracer,
    c: &mut Counters,
) -> Result<Vec<Lowered>, PipelineError> {
    let location = MemLocation::Dram;
    let mut lowered = Vec::new();
    for r in schedule.resolve_regions(program.exprs().len()) {
        let mut region =
            t.span("fuse_region", |_| fuse_region(program, r.clone())).map_err(LowerError::from)?;
        if schedule.iteration == IterationStyle::Global {
            region = t.span("globalize_region", |_| globalize_region(&region))?;
        }
        let produced: Vec<TensorId> =
            program.exprs()[r.clone()].iter().map(|e| e.output.tensor).collect();
        let mut outs = Vec::new();
        for &tensor in &produced {
            let consumed_later = program.exprs()[r.end..]
                .iter()
                .any(|e| e.inputs.iter().any(|a| a.tensor == tensor));
            if consumed_later || program.outputs().contains(&tensor) {
                outs.push(tensor);
            }
        }
        if schedule.iteration == IterationStyle::Global {
            outs.retain(|tensor| region.exprs.iter().any(|e| e.output.0 == *tensor));
        }
        let parallelize = schedule
            .parallelize
            .iter()
            .filter_map(|(var, factor)| region.global_for_program_var(*var).map(|g| (g, *factor)))
            .collect();
        let opts = LowerOptions { parallelize, location };
        let low = match t.span("lower_region", |_| lower_region(program, &region, &outs, &opts)) {
            Ok(l) => l,
            Err(e) if !opts.parallelize.is_empty() => {
                let serial = LowerOptions { parallelize: vec![], location };
                let l = t
                    .span("lower_region", |_| lower_region(program, &region, &outs, &serial))
                    .map_err(|_| e)?;
                c.par_fallbacks += 1;
                l
            }
            Err(e) => return Err(e.into()),
        };
        lowered.push(low);
    }
    let cfg = VerifyConfig::default();
    let mut opts = cfg.options.clone();
    if opts.fiber_hi.is_none() {
        opts.fiber_hi = fiber_upper_bound(program);
    }
    for (region, low) in lowered.iter().enumerate() {
        let report = t.span("verify_graph", |_| verify_graph(&low.graph, &opts));
        c.verify_diags += report.diags.len() as u64;
        if let Err(denied) = enforce(&report, &cfg) {
            return Err(PipelineError::Static {
                region,
                rendered: denied.render_human(&low.graph),
            });
        }
    }
    Ok(lowered)
}

/// `run` under `SimConfig::default()`.
#[allow(clippy::type_complexity)]
fn replay_run(
    m: &ModelInstance,
    lowered: &[Lowered],
    t: &mut Tracer,
    c: &mut Counters,
) -> Result<(HashMap<String, SparseTensor>, Stats), PipelineError> {
    let missing = |name: &str| PipelineError::MissingInput(name.to_string());
    let cfg = SimConfig::default();
    let mut env = TensorEnv::new();
    for (_, decl) in m.program.inputs() {
        let input = m.inputs.get(&decl.name).ok_or_else(|| missing(&decl.name))?;
        env.insert(decl.name.clone(), input.clone());
    }
    let mut total = Stats::default();
    for low in lowered {
        for p in &low.permuted_inputs {
            let base = env.get(&p.base).ok_or_else(|| missing(&p.base))?;
            let permuted = t.span("permute", |_| base.permute(&p.perm, base.format()));
            env.insert(p.derived.clone(), permuted);
        }
        let res = t.span("simulate", |_| simulate(&low.graph, &env, &cfg))?;
        c.sim_events += res.stats.sched.events;
        c.sim_cycles += res.stats.cycles;
        c.sim_cycles_skipped += res.stats.sched.cycles_skipped;
        c.sim_peak_ready = c.sim_peak_ready.max(res.stats.sched.peak_ready);
        c.sim_tokens += res.stats.node_tokens.values().sum::<u64>();
        total.accumulate(&res.stats);
        for (name, tensor) in res.outputs {
            env.insert(name, tensor);
        }
    }
    let mut outputs = HashMap::new();
    for &tensor in m.program.outputs() {
        let name = &m.program.tensor(tensor).name;
        let out = env
            .get(name)
            .ok_or_else(|| PipelineError::Verify(format!("output '{name}' never produced")))?;
        outputs.insert(name.clone(), out.clone());
    }
    Ok((outputs, total))
}
