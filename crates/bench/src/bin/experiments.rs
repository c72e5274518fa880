//! Regenerates every table and figure of the FuseFlow evaluation
//! (Section 8). Run `experiments all` or a specific id (`fig12`,
//! `table4`, ...). Results print as aligned text and are written as CSV
//! under `results/`.
//!
//! Flags:
//!
//! * `--quick`   tiny instances, one point per sweep — the CI smoke mode.
//! * `--threads N`  worker threads for the sweep pool (default: all cores).
//!
//! Independent simulation points within each sweep run on the shared
//! [`parallel_map`] worker pool; results are collected in point order, so
//! the printed tables and CSVs are identical for any thread count.

use fuseflow_core::estimate;
use fuseflow_core::fuse_region;
use fuseflow_core::pipeline::compile_with;
use fuseflow_core::pipeline::{compile, compile_at, run};
use fuseflow_core::schedule::Schedule;
use fuseflow_models::{
    gcn, gpt_attention, gpt_attention_blocked, gpt_decoder, graphsage, map_stack, sae, Fusion,
    GraphDataset, ModelInstance, GRAPH_DATASETS, SAE_DATASETS,
};
use fuseflow_sam::MemLocation;
use fuseflow_sim::{parallel_map, Scheduler, SimConfig, Stats, TimingConfig};
use fuseflow_tensor::gen::GraphPattern;
use fuseflow_verify::{verify_graph, VerifyConfig, VerifyOptions};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Sweep-wide options parsed from the command line.
#[derive(Debug, Clone, Copy)]
struct Opts {
    /// Tiny sizes, one point per sweep (CI smoke mode).
    quick: bool,
    /// Worker threads for the sweep pool.
    threads: usize,
}

/// Deterministic per-point cycle counts a figure contributes to
/// `BENCH_sim.json` (label -> simulated cycles).
type Points = Vec<(String, u64)>;

/// One scheduler measurement row (the `sched` experiment): the same
/// workload under the legacy sweep and the event-driven scheduler.
struct SchedRow {
    workload: String,
    cycles: u64,
    sweep_wall_s: f64,
    event_wall_s: f64,
    sweep_events: u64,
    event_events: u64,
    cycles_skipped: u64,
    peak_ready: u64,
}

/// One figure entry of the machine-readable report: its deterministic
/// cycle points plus the pool/simulator configuration that produced them.
struct FigEntry {
    id: String,
    wall_s: f64,
    /// Worker threads the figure's sweep pool ran with.
    threads: usize,
    points: Points,
}

/// Machine-readable run report, written to `BENCH_sim.json` at the repo
/// root so the perf trajectory is comparable across PRs. `--quick` emits
/// the same shape on tiny instances; CI diffs its cycle counts against
/// `results/quick_cycles.json`.
#[derive(Default)]
struct Report {
    figures: Vec<FigEntry>,
    sched: Vec<SchedRow>,
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

impl Report {
    fn add(&mut self, id: &str, wall_s: f64, threads: usize, points: Points) {
        // Figures that produce no deterministic cycle points (analytical
        // models, error tables) still print and write CSVs, but are kept
        // out of the report: a zero-point figure is indistinguishable from
        // a silently broken sweep, and CI's drift gate rejects it.
        if points.is_empty() {
            println!("  ({id}: no cycle points — figure omitted from BENCH_sim.json)");
            return;
        }
        self.figures.push(FigEntry { id: id.to_string(), wall_s, threads, points });
    }

    fn to_json(&self, o: Opts, wall_s_total: f64) -> String {
        let mut j = String::from("{\n");
        let _ = writeln!(j, "  \"schema\": \"fuseflow-bench-sim/1\",");
        let _ = writeln!(j, "  \"quick\": {},", o.quick);
        let _ = writeln!(j, "  \"threads\": {},", o.threads);
        let _ = writeln!(j, "  \"wall_s_total\": {wall_s_total:.3},");
        let _ = writeln!(j, "  \"figures\": [");
        for (fi, fig) in self.figures.iter().enumerate() {
            let _ = writeln!(j, "    {{");
            let _ = writeln!(j, "      \"id\": \"{}\",", json_escape(&fig.id));
            let _ = writeln!(j, "      \"wall_s\": {:.3},", fig.wall_s);
            let _ = writeln!(j, "      \"threads\": {},", fig.threads);
            let _ = writeln!(j, "      \"points\": [");
            for (pi, (label, cycles)) in fig.points.iter().enumerate() {
                let comma = if pi + 1 < fig.points.len() { "," } else { "" };
                let _ = writeln!(
                    j,
                    "        {{\"label\": \"{}\", \"cycles\": {cycles}}}{comma}",
                    json_escape(label)
                );
            }
            let _ = writeln!(j, "      ]");
            let comma = if fi + 1 < self.figures.len() { "," } else { "" };
            let _ = writeln!(j, "    }}{comma}");
        }
        let _ = writeln!(j, "  ],");
        let _ = writeln!(j, "  \"sched\": [");
        for (ri, r) in self.sched.iter().enumerate() {
            let comma = if ri + 1 < self.sched.len() { "," } else { "" };
            let speedup = r.sweep_wall_s / r.event_wall_s.max(1e-9);
            let _ = writeln!(
                j,
                "    {{\"workload\": \"{}\", \"cycles\": {}, \
                 \"sweep_wall_s\": {:.4}, \"event_wall_s\": {:.4}, \"speedup\": {:.2}, \
                 \"sweep_events\": {}, \"event_events\": {}, \
                 \"cycles_skipped\": {}, \"peak_ready\": {}}}{comma}",
                json_escape(&r.workload),
                r.cycles,
                r.sweep_wall_s,
                r.event_wall_s,
                speedup,
                r.sweep_events,
                r.event_events,
                r.cycles_skipped,
                r.peak_ready
            );
        }
        let _ = writeln!(j, "  ]");
        j.push_str("}\n");
        j
    }
}

fn sim() -> SimConfig {
    SimConfig::default()
}

fn run_model(m: &ModelInstance, schedule: &Schedule) -> Stats {
    let compiled = compile(&m.program, schedule).unwrap_or_else(|e| panic!("{}: {e}", m.name));
    run(&m.program, &compiled, &m.inputs, &sim())
        .unwrap_or_else(|e| panic!("{}: {e}", m.name))
        .stats
}

fn run_model_on_chip(m: &ModelInstance, schedule: &Schedule) -> Stats {
    let compiled = compile_at(&m.program, schedule, MemLocation::OnChip)
        .unwrap_or_else(|e| panic!("{}: {e}", m.name));
    run(&m.program, &compiled, &m.inputs, &sim())
        .unwrap_or_else(|e| panic!("{}: {e}", m.name))
        .stats
}

fn save(name: &str, content: &str) {
    std::fs::create_dir_all("results").ok();
    std::fs::write(format!("results/{name}.csv"), content).ok();
}

/// Fig 1: roofline-model GPU utilization for GCN inference (substitution:
/// analytical RTX-5090-class device; DESIGN.md §4).
fn fig1(o: Opts) -> Points {
    println!("\n== Fig 1: GPU SM/DRAM utilization for GCN inference (roofline model) ==");
    let mut csv = String::from("dataset,sm_util_pct,mem_util_pct\n");
    // RTX-5090-class peaks: ~105 TFLOP/s FP32, ~1.8 TB/s DRAM, ~2.6 GHz.
    let (peak_flops, peak_bw) = (105e12, 1.79e12);
    let datasets: Vec<_> =
        GRAPH_DATASETS.iter().take(if o.quick { 1 } else { usize::MAX }).collect();
    for ds in datasets {
        let m = gcn(ds, 32, 16, 42);
        let est = estimate(&m.program, &Schedule::unfused(), &m.inputs);
        // Kernel-launch-bound time: each of the model's kernels needs at
        // least one ~3us launch+sync on small sparse workloads.
        let kernels = m.program.exprs().len() as f64;
        let t = (est.flops / peak_flops + est.bytes / peak_bw).max(kernels * 3e-6);
        let sm = 100.0 * est.flops / (t * peak_flops);
        let mem = 100.0 * est.bytes / (t * peak_bw);
        println!("  {:10} SM {:6.2}%   Mem {:6.3}%", ds.name, sm, mem);
        writeln!(csv, "{},{:.4},{:.4}", ds.name, sm, mem).unwrap();
    }
    save("fig1", &csv);
    Vec::new()
}

/// Fig 4b / §8.4: prior-compiler comparison on GCN/collab.
fn fig4b(o: Opts) -> Points {
    println!("\n== Fig 4b: C+S (unfused) vs C+S (rewrite) vs FuseFlow, GCN ==");
    let ds = GraphDataset {
        name: "collab",
        nodes: if o.quick { 32 } else { 96 },
        feats: if o.quick { 8 } else { 24 },
        density: 0.03,
        pattern: GraphPattern::PowerLaw,
    };
    let m = gcn(&ds, 16, 8, 7);
    let configs: Vec<(&str, Schedule)> = vec![
        ("C+S (unfused)", Schedule::unfused()),
        // C+S rewrite: the user hand-composes the two matmuls of each layer
        // into one expression compiled with a global iteration space;
        // non-algebraic ops stay unfused (Fig 4a).
        ("C+S (rewrite)", Schedule::regions(vec![0..2, 4..6]).with_global_iteration()),
        ("FuseFlow", m.schedule(Fusion::Partial)),
    ];
    let cycles =
        parallel_map(o.threads, configs, |(name, sched)| (name, run_model(&m, &sched).cycles));
    let unfused = cycles[0].1;
    let mut csv = String::from("config,cycles,speedup\n");
    let mut points = Points::new();
    for (name, c) in cycles {
        println!("  {:15} {:>12} cycles   speedup {:.2}x", name, c, unfused as f64 / c as f64);
        writeln!(csv, "{},{},{:.3}", name, c, unfused as f64 / c as f64).unwrap();
        points.push((name.to_string(), c));
    }
    save("fig4b", &csv);
    points
}

/// Fig 12: fusion granularity sweep across the four model classes.
fn fig12(o: Opts) -> Points {
    println!("\n== Fig 12: fusion effect across models (speedup over unfused) ==");
    let mut models: Vec<(String, String, ModelInstance)> = Vec::new();
    let sae_take = if o.quick { 1 } else { 2 };
    for (name, n_in, batch) in SAE_DATASETS.iter().take(sae_take) {
        let scale = if o.quick { 16 } else { 8 };
        models.push(("sae".into(), (*name).into(), sae(name, *n_in / scale, 48, *batch, 0.5, 11)));
    }
    let graph_take = if o.quick { 1 } else { 3 };
    for ds in GRAPH_DATASETS.iter().take(graph_take) {
        let div = if o.quick { 4 } else { 2 };
        let small = GraphDataset { nodes: ds.nodes / div, feats: ds.feats / div, ..*ds };
        models.push(("gcn".into(), ds.name.into(), gcn(&small, 16, 8, 21)));
        if !o.quick {
            models.push(("graphsage".into(), ds.name.into(), graphsage(&small, 16, 8, 23)));
        }
    }
    let blocks: &[usize] = if o.quick { &[16] } else { &[16, 32, 64] };
    for &block in blocks {
        let seq = if o.quick { 64 } else { 128 };
        models.push((
            "gpt3-bigbird".into(),
            format!("block{block}"),
            gpt_decoder(seq, 16, block, 31),
        ));
    }
    // Each model sweeps its fusion granularities on one pool worker; model
    // sweeps are independent, so they fan out across the pool.
    let rows = parallel_map(o.threads, models, |(model, dsname, m)| {
        let base = run_model(&m, &m.schedule(Fusion::Unfused)).cycles;
        let per: Vec<(Fusion, u64)> =
            Fusion::ALL.iter().map(|&f| (f, run_model(&m, &m.schedule(f)).cycles)).collect();
        (model, dsname, base, per)
    });
    let mut csv = String::from("model,dataset,fusion,cycles,speedup\n");
    let mut points = Points::new();
    for (model, dsname, base, per) in rows {
        for (f, c) in per {
            println!(
                "  {model:10} {dsname:10} {f:8} {:>12} cycles  {:.2}x",
                c,
                base as f64 / c as f64
            );
            writeln!(csv, "{model},{dsname},{f},{c},{:.3}", base as f64 / c as f64).unwrap();
            points.push((format!("{model}/{dsname}/{f}"), c));
        }
    }
    save("fig12", &csv);
    points
}

/// Fig 13: Comal vs FPGA-RTL backend latency correlation (R^2).
fn fig13(o: Opts) -> Points {
    println!("\n== Fig 13: Comal vs FPGA-RTL backend trend agreement ==");
    let ds = GraphDataset {
        name: "karate",
        nodes: 34,
        feats: 16,
        density: 0.14,
        pattern: GraphPattern::Uniform,
    };
    let mut kernels: Vec<(String, ModelInstance)> =
        vec![("gcn".into(), gcn(&ds, 8, 4, 3)), ("graphsage".into(), graphsage(&ds, 8, 4, 5))];
    if !o.quick {
        kernels.push(("gpt3".into(), gpt_attention(32, 8, 8, 7)));
    }
    let per_kernel = parallel_map(o.threads, kernels, |(name, m)| {
        // Per-kernel latency (unfused singleton regions) on both backends,
        // tensors pinned on-chip like the paper's BRAM-resident kernels.
        let compiled = compile_at(&m.program, &Schedule::unfused(), MemLocation::OnChip).unwrap();
        let comal = run(&m.program, &compiled, &m.inputs, &sim()).unwrap();
        let fpga_cfg = SimConfig { timing: TimingConfig::fpga_rtl(), ..sim() };
        let fpga = run(&m.program, &compiled, &m.inputs, &fpga_cfg).unwrap();
        comal
            .per_region
            .iter()
            .zip(&fpga.per_region)
            .enumerate()
            .map(|(i, (c, f))| (c.cycles as f64, f.cycles as f64, format!("{name}/k{i}")))
            .collect::<Vec<_>>()
    });
    let pairs: Vec<(f64, f64, String)> = per_kernel.into_iter().flatten().collect();
    // R^2 of log-latencies across kernels.
    let xs: Vec<f64> = pairs.iter().map(|p| p.0.ln()).collect();
    let ys: Vec<f64> = pairs.iter().map(|p| p.1.ln()).collect();
    let n = xs.len() as f64;
    let (mx, my) = (xs.iter().sum::<f64>() / n, ys.iter().sum::<f64>() / n);
    let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let (vx, vy): (f64, f64) =
        (xs.iter().map(|x| (x - mx).powi(2)).sum(), ys.iter().map(|y| (y - my).powi(2)).sum());
    let r2 = (cov * cov) / (vx * vy);
    println!("  {} kernels, R^2 = {:.3}", pairs.len(), r2);
    let mut csv = String::from("kernel,comal_cycles,fpga_cycles\n");
    let mut points = Points::new();
    for (c, f, k) in &pairs {
        writeln!(csv, "{k},{c},{f}").unwrap();
        points.push((format!("{k}/comal"), *c as u64));
        points.push((format!("{k}/fpga"), *f as u64));
    }
    writeln!(csv, "r2,{r2:.4},").unwrap();
    save("fig13", &csv);
    points
}

/// Fig 14: GCN FLOPs / bytes normalized to unfused + operational intensity.
fn fig14(o: Opts) -> Points {
    println!("\n== Fig 14: GCN FLOPs & DRAM bytes normalized to unfused ==");
    let take = if o.quick { 1 } else { 3 };
    let datasets: Vec<GraphDataset> = GRAPH_DATASETS
        .iter()
        .take(take)
        .map(|ds| {
            let div = if o.quick { 4 } else { 2 };
            GraphDataset { nodes: ds.nodes / div, feats: ds.feats / div, ..*ds }
        })
        .collect();
    let rows = parallel_map(o.threads, datasets, |ds| {
        let m = gcn(&ds, 16, 8, 77);
        let base = run_model(&m, &m.schedule(Fusion::Unfused));
        let per: Vec<(Fusion, Stats)> =
            Fusion::ALL.iter().map(|&f| (f, run_model(&m, &m.schedule(f)))).collect();
        (ds.name, base, per)
    });
    let mut csv = String::from("dataset,fusion,flops_rel,bytes_rel,op_intensity\n");
    let mut points = Points::new();
    for (name, base, per) in rows {
        for (f, s) in per {
            points.push((format!("{name}/{f}"), s.cycles));
            let fr = s.flops as f64 / base.flops as f64;
            let br = s.dram_bytes() as f64 / base.dram_bytes() as f64;
            println!(
                "  {:8} {:8} flops x{:.2}  bytes x{:.2}  OI {:.3}",
                name,
                f,
                fr,
                br,
                s.operational_intensity()
            );
            writeln!(csv, "{},{},{:.4},{:.4},{:.4}", name, f, fr, br, s.operational_intensity())
                .unwrap();
        }
    }
    save("fig14", &csv);
    points
}

/// Fig 15: sparsity ablation on synthetic graphs.
fn fig15(o: Opts) -> Points {
    println!("\n== Fig 15: speedup vs sparsity (synthetic 2-layer GCN) ==");
    let patterns: &[GraphPattern] = if o.quick {
        &[GraphPattern::Uniform]
    } else {
        &[GraphPattern::Uniform, GraphPattern::PowerLaw, GraphPattern::BlockDiagonal]
    };
    let sparsities: &[f64] = if o.quick { &[0.9] } else { &[0.5, 0.7, 0.8, 0.9, 0.95] };
    let mut points = Vec::new();
    for &pattern in patterns {
        for &sparsity in sparsities {
            points.push((pattern, sparsity));
        }
    }
    let rows = parallel_map(o.threads, points, |(pattern, sparsity)| {
        let ds = GraphDataset {
            name: "synthetic",
            nodes: if o.quick { 40 } else { 100 },
            feats: if o.quick { 12 } else { 24 },
            density: 1.0 - sparsity,
            pattern,
        };
        let m = gcn(&ds, 16, 8, 55);
        let base = run_model(&m, &m.schedule(Fusion::Unfused)).cycles;
        let part_c = run_model(&m, &m.schedule(Fusion::Partial)).cycles;
        let full_c = run_model(&m, &m.schedule(Fusion::Full)).cycles;
        (pattern, sparsity, base, part_c, full_c)
    });
    let mut csv = String::from("pattern,sparsity,partial_speedup,full_speedup\n");
    let mut points = Points::new();
    for (pattern, sparsity, base, part_c, full_c) in rows {
        let (part, full) = (base as f64 / part_c as f64, base as f64 / full_c as f64);
        println!("  {pattern:10} sparsity {sparsity:.2}: partial {part:.2}x  full {full:.2}x");
        writeln!(csv, "{pattern},{sparsity},{part:.3},{full:.3}").unwrap();
        points.push((format!("{pattern}/{sparsity}/unfused"), base));
        points.push((format!("{pattern}/{sparsity}/partial"), part_c));
        points.push((format!("{pattern}/{sparsity}/full"), full_c));
    }
    save("fig15", &csv);
    points
}

/// Fig 16: parallelization factor and location sweeps on BigBird attention.
fn fig16(o: Opts) -> Points {
    println!("\n== Fig 16a: parallelization factor sweep (BigBird attention) ==");
    // The blocked pipeline parallelizes end to end (no deferred softmax
    // references crossing the split); the scalar pipeline's softmax region
    // falls back to serial lowering under a split.
    let m = if o.quick {
        gpt_attention_blocked(128, 16, 8, 91)
    } else {
        gpt_attention_blocked(1024, 64, 16, 91)
    };
    let i_var = m.program.exprs()[0].output.indices[0];
    let factors: &[usize] = if o.quick { &[1, 2] } else { &[1, 2, 4, 8, 16, 32, 64] };
    let cycles = parallel_map(o.threads, factors.to_vec(), |factor| {
        let sched = m.schedule(Fusion::Partial).with_parallelization(i_var, factor);
        (factor, run_model_on_chip(&m, &sched).cycles)
    });
    let base = run_model_on_chip(&m, &m.schedule(Fusion::Partial)).cycles;
    let mut csv = String::from("factor,cycles,speedup\n");
    let mut points = Points::new();
    for (factor, c) in cycles {
        println!("  factor {factor:>2}: {c:>12} cycles  {:.2}x", base as f64 / c as f64);
        writeln!(csv, "{factor},{c},{:.3}", base as f64 / c as f64).unwrap();
        points.push((format!("a/factor{factor}"), c));
    }
    save("fig16a", &csv);

    println!("\n== Fig 16b: parallelization location sweep ==");
    // Level 1 = attention row i (legal in every kernel); level 2 = score
    // column j (legal only where it is a free non-innermost row — other
    // kernels fall back to serial lowering, so location matters).
    let j_var = m.program.exprs()[0].output.indices[1];
    let base_unf = run_model_on_chip(&m, &m.schedule(Fusion::Unfused)).cycles;
    let locations: Vec<(&str, Vec<_>)> = if o.quick {
        vec![("level1", vec![i_var])]
    } else {
        vec![("level1", vec![i_var]), ("level2", vec![j_var]), ("both", vec![i_var, j_var])]
    };
    let loc_factors: &[usize] = if o.quick { &[2] } else { &[1, 2, 4] };
    let mut jobs = Vec::new();
    for (loc, vars) in &locations {
        for &factor in loc_factors {
            jobs.push((*loc, vars.clone(), factor));
        }
    }
    let rows = parallel_map(o.threads, jobs, |(loc, vars, factor)| {
        let mut sched = m.schedule(Fusion::Unfused);
        for v in &vars {
            sched = sched.with_parallelization(*v, factor);
        }
        (loc, factor, run_model_on_chip(&m, &sched).cycles)
    });
    let mut csv = String::from("location,factor,cycles,speedup\n");
    for (loc, factor, c) in rows {
        println!("  {loc:6} factor {factor}: {c:>12} cycles ({:.2}x)", base_unf as f64 / c as f64);
        writeln!(csv, "{loc},{factor},{c},{:.3}", base_unf as f64 / c as f64).unwrap();
        points.push((format!("b/{loc}/x{factor}"), c));
    }
    save("fig16b", &csv);
    points
}

/// Fig 17: block-sparse vs unstructured BigBird attention.
fn fig17(o: Opts) -> Points {
    println!("\n== Fig 17: blocked vs unstructured BigBird attention ==");
    let blocks: &[usize] = if o.quick { &[16] } else { &[16, 32, 64] };
    let rows = parallel_map(o.threads, blocks.to_vec(), |block| {
        let seq = if o.quick { 64 } else { 128 };
        let dh = if o.quick { 16 } else { 64 };
        let un = gpt_attention(seq, dh, block, 13);
        // Unstructured arm: same mask, scalar streams, no softmax tail to
        // mirror the blocked pipeline's op set.
        let bl = gpt_attention_blocked(seq, dh, block, 13);
        let cu = run_model(&un, &un.schedule(Fusion::Full)).cycles;
        let cb = run_model(&bl, &bl.schedule(Fusion::Full)).cycles;
        (block, cu, cb)
    });
    let mut csv = String::from("block,unstructured_cycles,blocked_cycles,speedup\n");
    let mut points = Points::new();
    for (block, cu, cb) in rows {
        println!(
            "  block {block:>2}: unstructured {cu:>12}  blocked {cb:>10}  {:.1}x",
            cu as f64 / cb as f64
        );
        writeln!(csv, "{block},{cu},{cb},{:.3}", cu as f64 / cb as f64).unwrap();
        points.push((format!("block{block}/unstructured"), cu));
        points.push((format!("block{block}/blocked"), cb));
    }
    save("fig17", &csv);
    points
}

/// Fig 18: dataflow order sweep for a chained matmul via user dataflow
/// schedules; discordant orders materialize permuted input copies through
/// the POG cycle-resolution path.
fn fig18(o: Opts) -> Points {
    println!("\n== Fig 18: dataflow order sweep, nested matmul ==");
    use fuseflow_core::ir::{IndexVar, Program};
    use fuseflow_tensor::{gen, Format, SparseTensor};
    let n = if o.quick { 16 } else { 34 }; // KarateClub scale
    let feats = if o.quick { 8 } else { 16 };
    let build = |o1: &[usize], o2: &[usize]| -> (Program, String) {
        let mut p = Program::new();
        let (i, k, u, j) = (p.index("i"), p.index("k"), p.index("u"), p.index("j"));
        let a = p.input("A", vec![n, n], Format::csr());
        let x = p.input("X", vec![n, feats], Format::csr());
        let w = p.input("W", vec![feats, 8], Format::dense(2));
        let v1 = [i, k, u];
        let v2 = [i, u, j];
        let t0 = p.contract(
            "T0",
            vec![i, u],
            vec![(a, vec![i, k]), (x, vec![k, u])],
            vec![k],
            Format::csr(),
        );
        let d1: Vec<IndexVar> = o1.iter().map(|&d| v1[d]).collect();
        p.set_dataflow(d1.clone());
        let t1 = p.contract(
            "T1",
            vec![i, j],
            vec![(t0, vec![i, u]), (w, vec![u, j])],
            vec![u],
            Format::csr(),
        );
        let d2: Vec<IndexVar> = o2.iter().map(|&d| v2[d]).collect();
        p.set_dataflow(d2.clone());
        p.mark_output(t1);
        let name = |v: &[IndexVar]| {
            v.iter().map(|x| p.index_name(*x).to_string()).collect::<Vec<_>>().join("")
        };
        let label = format!("{}|{}", name(&d1), name(&d2));
        let _ = t0;
        let _ = t1;
        (p, label)
    };
    let mut inputs = HashMap::new();
    inputs
        .insert("A".to_string(), gen::adjacency(n, 0.13, GraphPattern::Uniform, 3, &Format::csr()));
    inputs.insert("X".to_string(), gen::sparse_features(n, feats, 0.4, 4, &Format::csr()));
    inputs.insert(
        "W".to_string(),
        SparseTensor::from_dense(
            &fuseflow_tensor::gen::dense_features(feats, 8, 5),
            &Format::dense(2),
        ),
    );
    let perms3: Vec<[usize; 3]> =
        vec![[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
    let cap = if o.quick { 3 } else { 12 };
    let mut order_pairs = Vec::new();
    for o1 in &perms3 {
        for o2 in &perms3 {
            order_pairs.push((*o1, *o2));
        }
    }
    // Order pairs simulate independently, but only the first `cap` unique
    // results (in pair order) are reported — so pairs are fanned out one
    // pool-sized chunk at a time with an early exit, instead of simulating
    // all 36 pairs to print 3 rows in --quick mode. Chunking in pair order
    // keeps the output thread-count invariant.
    let mut results: Vec<(String, u64)> = Vec::new();
    let mut order_pairs = order_pairs.into_iter();
    while results.len() < cap {
        let chunk: Vec<_> = order_pairs.by_ref().take(o.threads.max(cap)).collect();
        if chunk.is_empty() {
            break;
        }
        let sweep = parallel_map(o.threads, chunk, |(o1, o2)| {
            let (p, label) = build(&o1, &o2);
            let Ok(compiled) = compile(&p, &Schedule::unfused()) else { return None };
            let Ok(res) = run(&p, &compiled, &inputs, &sim()) else { return None };
            Some((label, res.stats.cycles))
        });
        for (label, cycles) in sweep.into_iter().flatten() {
            if results.len() >= cap {
                break;
            }
            if results.iter().any(|(l, _)| *l == label) {
                continue;
            }
            results.push((label, cycles));
        }
    }
    let worst = results.iter().map(|r| r.1).max().unwrap_or(1);
    let mut csv = String::from("order,cycles,speedup_vs_worst\n");
    let mut points = Points::new();
    for (name, c) in &results {
        println!("  {name:16} {c:>12} cycles  {:.2}x", worst as f64 / *c as f64);
        writeln!(csv, "{name},{c},{:.3}", worst as f64 / *c as f64).unwrap();
        points.push((name.clone(), *c));
    }
    save("fig18", &csv);
    points
}

/// Table 3: heuristic FLOPs/bytes error against the simulator.
fn table3(o: Opts) -> Points {
    println!("\n== Table 3: heuristic avg % error (FLOPs / bytes) ==");
    let ds = GraphDataset {
        name: "collab",
        nodes: if o.quick { 32 } else { 96 },
        feats: if o.quick { 8 } else { 24 },
        density: 0.03,
        pattern: GraphPattern::PowerLaw,
    };
    let mut models: Vec<(&str, ModelInstance)> = vec![
        ("gpt3-b16", if o.quick { gpt_decoder(32, 8, 8, 1) } else { gpt_decoder(64, 16, 16, 1) }),
        ("gcn", gcn(&ds, 16, 8, 2)),
    ];
    if !o.quick {
        models.push(("graphsage", graphsage(&ds, 16, 8, 3)));
    }
    let rows = parallel_map(o.threads, models, |(name, m)| {
        let mut fe = 0.0;
        let mut be = 0.0;
        let mut cnt = 0.0;
        for f in [Fusion::Unfused, Fusion::Partial] {
            let sched = m.schedule(f);
            let meas = run_model(&m, &sched);
            let est = estimate(&m.program, &sched, &m.inputs);
            fe += (est.flops - meas.flops as f64).abs() / meas.flops as f64 * 100.0;
            be += (est.bytes - meas.dram_bytes() as f64).abs() / meas.dram_bytes() as f64 * 100.0;
            cnt += 1.0;
        }
        (name, fe / cnt, be / cnt)
    });
    let mut csv = String::from("model,flops_err_pct,bytes_err_pct\n");
    for (name, fe, be) in rows {
        println!("  {:10} FLOPs {:5.1}%   bytes {:5.1}%", name, fe, be);
        writeln!(csv, "{},{:.2},{:.2}", name, fe, be).unwrap();
    }
    save("table3", &csv);
    Vec::new()
}

/// Table 4: design-space size with and without local (per-kernel best
/// dataflow order) constraints, plus the POG linear-extension counts for
/// the first fused region (exact via the frontier DP in
/// `Pog::count_orders`, `*` marks capped entries like the paper).
fn table4(o: Opts) -> Points {
    println!("\n== Table 4: dataflow-order design-space size ==");
    let cap: u128 = 200_000_000;
    let mut csv =
        String::from("model,unconstrained,capped,constrained,pog_formats_only,pog_full\n");
    let ds = GraphDataset {
        name: "collab",
        nodes: if o.quick { 24 } else { 64 },
        feats: if o.quick { 8 } else { 16 },
        density: 0.04,
        pattern: GraphPattern::PowerLaw,
    };
    let fact = |n: usize| -> u128 { (1..=n as u128).product() };
    for (name, m) in [("gcn", gcn(&ds, 8, 4, 1)), ("graphsage", graphsage(&ds, 8, 4, 2))] {
        let mut un: u128 = 1;
        let mut con: u128 = 1;
        let mut capped = false;
        for e in m.program.exprs() {
            let n = e.index_set().len();
            un = un.saturating_mul(fact(n));
            if un > cap {
                un = cap;
                capped = true;
            }
            // Local constraint: contraction kernels pinned to their best
            // order (Section 8.8); elementwise kernels keep their freedom.
            if e.reduce.is_empty() {
                con = con.saturating_mul(fact(n)).min(cap);
            }
        }
        // POG-level counts for the leading fused region: mode orders alone
        // vs mode orders + user dataflow constraints.
        let region_len = m.program.exprs().len().min(2);
        let (pog_fmt, pog_full) = match fuse_region(&m.program, 0..region_len) {
            Ok(region) => {
                let fmt = region.pog_formats_only.count_orders(cap);
                let full = region.pog.count_orders(cap);
                (
                    format!("{}{}", fmt.0, if fmt.1 { "*" } else { "" }),
                    format!("{}{}", full.0, if full.1 { "*" } else { "" }),
                )
            }
            Err(_) => ("-".into(), "-".into()),
        };
        println!(
            "  {:10} unconstrained {}{}   constrained {}   pog {} -> {}",
            name,
            un,
            if capped { "*" } else { "" },
            con,
            pog_fmt,
            pog_full
        );
        writeln!(csv, "{name},{un},{capped},{con},{pog_fmt},{pog_full}").unwrap();
    }
    save("table4", &csv);
    Vec::new()
}

/// Scheduler comparison: the same workloads simulated under the legacy
/// dense per-cycle sweep and the event-driven calendar-queue scheduler.
/// Semantic results are asserted bit-identical across both; what differs
/// is simulator wall-clock, which this experiment records (with the
/// engine counters) into `BENCH_sim.json`.
fn sched(o: Opts, rep: &mut Report) -> Points {
    println!("\n== Sched: sweep vs event (wall-clock) ==");
    /// One sched workload: a compiled model plus the simulator
    /// configuration to measure it under.
    struct Workload {
        name: &'static str,
        m: ModelInstance,
        sched: Schedule,
        cfg: SimConfig,
        on_chip: bool,
    }
    let ds = GraphDataset {
        name: "karate",
        nodes: if o.quick { 24 } else { 34 },
        feats: 16,
        density: 0.14,
        pattern: GraphPattern::Uniform,
    };
    // The fig13 GCN kernel (DRAM-resident), the same kernel on a
    // high-latency memory (the latency-dominated regime: most nodes idle
    // at any instant), and the fig18 nested matmul.
    let mut far = TimingConfig::comal();
    far.dram_stream_latency = 96;
    far.dram_random_latency = 480;
    // Schedules: unfused = many small per-region graphs; full = one large
    // fused graph where most nodes idle at any instant (the sweep's worst
    // case, since its whole-shard fast-forward only fires when *nothing*
    // progresses).
    let wl = |name: &'static str, m: ModelInstance, sched: Schedule, cfg: SimConfig| Workload {
        name,
        m,
        sched,
        cfg,
        on_chip: false,
    };
    let mut workloads: Vec<Workload> = vec![
        wl("gcn_dram", gcn(&ds, 8, 4, 3), Schedule::unfused(), sim()),
        wl(
            "gcn_hbm_far",
            gcn(&ds, 8, 4, 3),
            Schedule::unfused(),
            SimConfig { timing: far.clone(), ..sim() },
        ),
        wl("gcn_fused", gcn(&ds, 8, 4, 3), Schedule::full(), sim()),
        wl(
            "gcn_fused_far",
            gcn(&ds, 8, 4, 3),
            Schedule::full(),
            SimConfig { timing: far, ..sim() },
        ),
        // The same fused GCN pinned in on-chip memory (the paper's
        // BRAM-resident regime): no DRAM nodes at all.
        Workload {
            name: "gcn_fused_chip",
            m: gcn(&ds, 8, 4, 3),
            sched: Schedule::full(),
            cfg: sim(),
            on_chip: true,
        },
        // Deep elementwise pipelines (matmul -> bias -> nonlinearity,
        // twice): the fully-fused schedules produce long producer-consumer
        // chains.
        {
            let m = if o.quick {
                sae("sae", 24, 12, 8, 0.5, 7)
            } else {
                sae("sae", 48, 24, 16, 0.5, 7)
            };
            wl("sae_fused", m, Schedule::full(), sim())
        },
        {
            let m = if o.quick { gpt_attention(24, 8, 8, 5) } else { gpt_attention(48, 8, 8, 5) };
            wl("gpt_fused", m, Schedule::full(), sim())
        },
        // A pure activation pipeline: the fully-fused schedule is one long
        // single-reader/single-writer chain (see fuseflow_models::map_stack).
        // Simulated against a near memory (low latency, deep
        // outstanding-request queue) so the source sustains ~1 token/cycle
        // and the whole chain stays busy: under the default DRAM timing the
        // random-gather source caps the pipe at ~outstanding/latency tokens
        // per cycle and the comparison degenerates into a memory-model
        // benchmark both schedulers pay identically.
        {
            let m = if o.quick { map_stack(48, 24, 0.5, 9) } else { map_stack(96, 48, 0.5, 9) };
            let mut near = TimingConfig::comal();
            near.dram_stream_latency = 2;
            near.dram_random_latency = 8;
            near.outstanding = 64;
            wl("stack_fused", m, Schedule::full(), SimConfig { timing: near, ..sim() })
        },
        // The same activation pipeline pinned on-chip and scaled up: no
        // DRAM endpoints, so every stage runs at the channel rate.
        Workload {
            name: "stack_fused_chip",
            m: if o.quick { map_stack(128, 24, 0.5, 9) } else { map_stack(256, 32, 0.5, 9) },
            sched: Schedule::full(),
            cfg: sim(),
            on_chip: true,
        },
    ];
    if !o.quick {
        workloads.push(wl("graphsage_fused", graphsage(&ds, 8, 4, 5), Schedule::full(), sim()));
    }
    let mut csv = String::from(
        "workload,cycles,sweep_wall_s,event_wall_s,speedup,sweep_events,event_events,\
         cycles_skipped,peak_ready\n",
    );
    let mut points = Points::new();
    let reps = if o.quick { 2 } else { 3 };
    for w in workloads {
        let (name, m, cfg) = (w.name, &w.m, &w.cfg);
        let compiled = if w.on_chip {
            compile_at(&m.program, &w.sched, MemLocation::OnChip).unwrap()
        } else {
            compile(&m.program, &w.sched).unwrap()
        };
        let timed = |cfg: &SimConfig| {
            let mut best = f64::INFINITY;
            let mut stats = None;
            for _ in 0..reps {
                let t0 = Instant::now();
                let r = run(&m.program, &compiled, &m.inputs, cfg).unwrap();
                best = best.min(t0.elapsed().as_secs_f64());
                stats = Some(r.stats);
            }
            (stats.unwrap(), best)
        };
        let (ev, event_wall) = timed(cfg);
        let (sw, sweep_wall) = timed(&cfg.clone().with_scheduler(Scheduler::Sweep));
        assert_eq!(
            ev.semantic(),
            sw.semantic(),
            "{name}: event vs sweep diverged (this is a simulator bug)"
        );
        let speedup = sweep_wall / event_wall.max(1e-9);
        println!(
            "  {name:16} {:>10} cycles  sweep {sweep_wall:.4}s  event {event_wall:.4}s  \
             {speedup:.2}x  (events {} -> {}, skipped {}, peak ready {})",
            ev.cycles,
            sw.sched.events,
            ev.sched.events,
            ev.sched.cycles_skipped,
            ev.sched.peak_ready,
        );
        writeln!(
            csv,
            "{name},{},{sweep_wall:.4},{event_wall:.4},{speedup:.3},{},{},{},{}",
            ev.cycles,
            sw.sched.events,
            ev.sched.events,
            ev.sched.cycles_skipped,
            ev.sched.peak_ready,
        )
        .unwrap();
        points.push((name.to_string(), ev.cycles));
        rep.sched.push(SchedRow {
            workload: name.to_string(),
            cycles: ev.cycles,
            sweep_wall_s: sweep_wall,
            event_wall_s: event_wall,
            sweep_events: sw.sched.events,
            event_events: ev.sched.events,
            cycles_skipped: ev.sched.cycles_skipped,
            peak_ready: ev.sched.peak_ready,
        });
    }
    save("sched", &csv);
    points
}

/// Autotune candidates: a small schedule-space enumeration on the fig4b
/// GCN (fusion regions x stream parallelization), scored analytically
/// (`estimate`) and by simulation. Regenerates `results/autotune.csv` with
/// every `cycles` cell filled (or explicitly marked `-` when a candidate
/// fails to compile).
fn autotune(o: Opts) -> Points {
    println!("\n== Autotune: schedule candidates, heuristic vs simulated ==");
    let ds = GraphDataset {
        name: "collab",
        nodes: if o.quick { 32 } else { 96 },
        feats: if o.quick { 8 } else { 24 },
        density: 0.03,
        pattern: GraphPattern::PowerLaw,
    };
    let m = gcn(&ds, 16, 8, 7);
    let n = m.program.exprs().len();
    let i0 = m.program.exprs()[0].output.indices[0];
    let split = (n / 2).max(1);
    let candidates: Vec<(String, Schedule)> = vec![
        ("unfused/factored".into(), Schedule::unfused()),
        ("unfused/factored/par{i0x2}".into(), Schedule::unfused().with_parallelization(i0, 2)),
        (
            format!("regions[0..{split},{split}..{n}]/factored"),
            Schedule::regions(vec![0..split, split..n]),
        ),
        (
            format!("regions[0..{split},{split}..{n}]/factored/par{{i0x2}}"),
            Schedule::regions(vec![0..split, split..n]).with_parallelization(i0, 2),
        ),
        (format!("regions[0..{n}]/factored"), Schedule::regions(vec![0..n])),
        (
            format!("regions[0..{n}]/factored/par{{i0x2}}"),
            Schedule::regions(vec![0..n]).with_parallelization(i0, 2),
        ),
    ];
    let mut rows = parallel_map(
        o.threads,
        candidates.into_iter().enumerate().collect(),
        |(idx, (label, sched))| {
            let est = estimate(&m.program, &sched, &m.inputs);
            let cycles = compile(&m.program, &sched)
                .ok()
                .and_then(|c| run(&m.program, &c, &m.inputs, &sim()).ok())
                .map(|r| r.stats.cycles);
            (idx, label, est.flops, est.bytes, cycles)
        },
    );
    // Best-first like an autotuner's report; failed candidates sink.
    rows.sort_by_key(|r| (r.4.is_none(), r.4, r.0));
    let mut csv = String::from("index,schedule,est_flops,est_bytes,cycles\n");
    let mut points = Points::new();
    for (idx, label, flops, bytes, cycles) in rows {
        let cell = cycles.map_or("-".to_string(), |c| c.to_string());
        println!(
            "  [{idx}] {label:44} est_flops {flops:>10.0} est_bytes {bytes:>10.0} cycles {cell}"
        );
        writeln!(csv, "{idx},{label},{flops:.0},{bytes:.0},{cell}").unwrap();
        if let Some(c) = cycles {
            points.push((label, c));
        }
    }
    save("autotune", &csv);
    points
}

/// `samcheck`: lints every model-zoo graph with the `fuseflow-verify`
/// static analyzer, at every fusion granularity, and writes the combined
/// report to `results/samcheck.json`.
///
/// Unlike the figure experiments this is a pass/fail gate, not a
/// measurement: it is excluded from `all` (so `BENCH_sim.json`'s tracked
/// point set stays stable) and the process exits nonzero when any
/// error-severity diagnostic fires. CI runs it as its own step.
fn samcheck(o: Opts) -> (Points, usize) {
    println!("\n== samcheck: static lints over the model zoo ==");
    let ds = GRAPH_DATASETS[0];
    let small = GraphDataset { nodes: ds.nodes / 4, feats: ds.feats / 4, ..ds };
    let (sae_name, sae_in, sae_batch) = SAE_DATASETS[0];
    let models: Vec<(String, ModelInstance)> = vec![
        (format!("sae/{sae_name}"), sae(sae_name, sae_in / 16, 48, sae_batch, 0.5, 11)),
        (format!("gcn/{}", ds.name), gcn(&small, 16, 8, 21)),
        (format!("graphsage/{}", ds.name), graphsage(&small, 16, 8, 23)),
        ("gpt_attention".into(), gpt_attention(32, 8, 8, 7)),
        ("gpt_attention_blocked".into(), gpt_attention_blocked(128, 16, 8, 91)),
        ("gpt_decoder".into(), gpt_decoder(32, 8, 8, 1)),
        ("map_stack".into(), map_stack(48, 24, 0.5, 9)),
    ];
    let mut points = Points::new();
    let mut errors = 0usize;
    let mut json = String::from("[");
    let mut first = true;
    let rows = parallel_map(o.threads, models, |(name, m)| {
        let mut out = Vec::new();
        for fusion in Fusion::ALL {
            let schedule = m.schedule(fusion);
            // Compile with enforcement off: samcheck reports every
            // diagnostic itself instead of aborting at the first denial.
            let compiled =
                compile_with(&m.program, &schedule, MemLocation::Dram, &VerifyConfig::disabled())
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
            let fiber_hi =
                m.program.tensors().iter().flat_map(|t| t.shape.iter()).max().map(|&d| d as u64);
            let opts = VerifyOptions {
                channel_capacity: sim().channel_capacity,
                fiber_hi,
                ..Default::default()
            };
            let reports: Vec<_> = compiled
                .lowered
                .into_iter()
                .map(|l| (verify_graph(&l.graph, &opts), l.graph))
                .collect();
            out.push((name.clone(), fusion, reports));
        }
        out
    });
    for per_model in rows {
        for (name, fusion, reports) in per_model {
            let mut errs = 0;
            let mut warns = 0;
            let mut certified = 0;
            let mut unknown = 0;
            let mut flagged = 0;
            for (i, (report, graph)) in reports.iter().enumerate() {
                errs += report.errors().count();
                warns += report.warnings().count();
                certified += report.regions.certified;
                unknown += report.regions.unknown;
                flagged += report.regions.flagged;
                if !report.is_clean() {
                    print!("{}", report.render_human(graph));
                }
                if !first {
                    json.push(',');
                }
                first = false;
                let _ = write!(
                    json,
                    "{{\"model\":\"{name}\",\"fusion\":\"{fusion}\",\"region\":{i},\"report\":{}}}",
                    report.to_json(graph)
                );
            }
            println!(
                "samcheck {name:<28} {fusion:<8} regions {:<2} errors {errs} warnings {warns} \
                 (deadlock-free: {certified} certified, {unknown} unknown, {flagged} flagged)",
                reports.len(),
            );
            points.push((format!("samcheck/{name}/{fusion}"), (errs + warns) as u64));
            errors += errs;
        }
    }
    json.push(']');
    std::fs::create_dir_all("results").ok();
    std::fs::write("results/samcheck.json", json).ok();
    if errors == 0 {
        println!("samcheck: model zoo clean ({} graphs linted)", points.len());
    } else {
        println!("samcheck: {errors} error-severity diagnostic(s)");
    }
    (points, errors)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut opts = Opts {
        quick: false,
        threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    };
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--threads" => {
                let v = it.next().expect("--threads takes a value");
                opts.threads = v.parse().expect("--threads takes a positive integer");
            }
            _ => which.push(a),
        }
    }
    if which.is_empty() {
        which.push("all".into());
    }
    let all = which.iter().any(|w| w == "all");
    let want = |id: &str| all || which.iter().any(|w| w == id);
    let t0 = Instant::now();
    let mut report = Report::default();
    let timed = |rep: &mut Report, id: &str, f: &mut dyn FnMut(&mut Report) -> Points| {
        let t = Instant::now();
        let points = f(rep);
        rep.add(id, t.elapsed().as_secs_f64(), opts.threads, points);
    };
    if want("fig1") {
        timed(&mut report, "fig1", &mut |_| fig1(opts));
    }
    if want("fig4b") {
        timed(&mut report, "fig4b", &mut |_| fig4b(opts));
    }
    if want("fig12") {
        timed(&mut report, "fig12", &mut |_| fig12(opts));
    }
    if want("fig13") {
        timed(&mut report, "fig13", &mut |_| fig13(opts));
    }
    if want("fig14") {
        timed(&mut report, "fig14", &mut |_| fig14(opts));
    }
    if want("fig15") {
        timed(&mut report, "fig15", &mut |_| fig15(opts));
    }
    if want("fig16") {
        timed(&mut report, "fig16", &mut |_| fig16(opts));
    }
    if want("fig17") {
        timed(&mut report, "fig17", &mut |_| fig17(opts));
    }
    if want("fig18") {
        timed(&mut report, "fig18", &mut |_| fig18(opts));
    }
    if want("table3") {
        timed(&mut report, "table3", &mut |_| table3(opts));
    }
    if want("table4") {
        timed(&mut report, "table4", &mut |_| table4(opts));
    }
    if want("sched") {
        timed(&mut report, "sched", &mut |r| sched(opts, r));
    }
    if want("autotune") {
        timed(&mut report, "autotune", &mut |_| autotune(opts));
    }
    // Explicit-only (not part of `all`): a lint gate, not a figure, and
    // keeping it out of `all` keeps BENCH_sim.json's point set stable.
    let mut samcheck_errors = 0usize;
    if which.iter().any(|w| w == "samcheck") {
        timed(&mut report, "samcheck", &mut |_| {
            let (points, errs) = samcheck(opts);
            samcheck_errors = errs;
            points
        });
    }
    let wall = t0.elapsed().as_secs_f64();
    // Only a full `all` run refreshes the tracked cross-PR report: a
    // filtered subset would clobber it with a partial point set that no
    // longer matches results/quick_cycles.json.
    let report_note = if all {
        std::fs::write("BENCH_sim.json", report.to_json(opts, wall))
            .expect("write BENCH_sim.json (CI's drift gate reads it)");
        ", report in BENCH_sim.json"
    } else {
        " (subset run: BENCH_sim.json untouched)"
    };
    println!(
        "\nDone in {wall:.1}s ({} pool threads{}); CSVs in results/{report_note}.",
        opts.threads,
        if opts.quick { ", --quick" } else { "" }
    );
    if samcheck_errors > 0 {
        eprintln!("samcheck: failing with {samcheck_errors} error-severity diagnostic(s)");
        std::process::exit(2);
    }
}
