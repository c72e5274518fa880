//! The FuseFlow benchmark: runs one workload through the public API for a
//! fixed time and prints every metric by name and unit, then one JSON
//! object as the last line of standard output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig12_zoo --seed 1 --seconds 50 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is a separate
//! run that replays each point with spans around every layer call and
//! reports the per-layer metrics. See `README.md` in this directory.

mod exec;
mod stats;
mod trace;
mod workload;

use exec::{replay_point, run_point, Counters, Outcome, PointTimes};
use stats::{kendall_tau_b, median, percentile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{layer, self_times, Tracer};
use workload::{Kind, Workload, BIGBIRD};

/// Set-ups per run (`setup_s` is their median).
const SETUPS: usize = 3;
/// Fewest measured passes per run, however long each takes.
const MIN_PASSES: usize = 5;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <fig12_zoo|split_sweep|schedule_prune> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, 1, 50, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args { kind, seed, seconds, trace })
}

/// Host time of one point in one pass.
struct Sample {
    wall_s: f64,
    /// Time in `compile_with`; `None` when it rejected the schedule, which
    /// returns early and is counted by `reject_ratio` instead.
    compile_s: Option<f64>,
    /// Time in `run`.
    run_s: f64,
}

/// One pass over every point of the workload.
struct Pass {
    wall_s: f64,
    /// Per point, in point order (untraced passes only).
    samples: Vec<Sample>,
    outcomes: Vec<Outcome>,
}

fn untraced_pass(w: &Workload) -> Pass {
    let start = Instant::now();
    let mut samples = Vec::with_capacity(w.points.len());
    let mut outcomes = Vec::with_capacity(w.points.len());
    for p in &w.points {
        let t0 = Instant::now();
        let mut times = PointTimes::default();
        let outcome = run_point(&w.models[p.model], &p.schedule, w.kind.simulates(), &mut times);
        let compiled = !matches!(outcome, Outcome::Rejected(_));
        samples.push(Sample {
            wall_s: t0.elapsed().as_secs_f64(),
            compile_s: compiled.then_some(times.compile_s),
            run_s: times.run_s,
        });
        outcomes.push(outcome);
    }
    Pass { wall_s: start.elapsed().as_secs_f64(), samples, outcomes }
}

/// A traced pass; spans of point `i` carry the id `first_id + i`.
fn traced_pass(w: &Workload, t: &mut Tracer, first_id: u32) -> (Pass, Counters) {
    let start = Instant::now();
    let mut c = Counters::default();
    let mut outcomes = Vec::new();
    for (i, p) in w.points.iter().enumerate() {
        t.set_point(Some(first_id + i as u32));
        outcomes.push(replay_point(&w.models[p.model], &p.schedule, w.kind.simulates(), t, &mut c));
    }
    t.set_point(None);
    (Pass { wall_s: start.elapsed().as_secs_f64(), samples: Vec::new(), outcomes }, c)
}

/// Per point, its fastest time over all passes (`None` for a point with no
/// time). Interference from other work on the host only ever adds time, and
/// on a shared host it comes in phases that can outlast a pass, so each
/// point's fastest run is the steadiest estimate of what the program costs.
fn fastest(passes: &[Pass], time: impl Fn(&Sample) -> Option<f64>) -> Vec<f64> {
    let npoints = passes.first().map_or(0, |p| p.samples.len());
    (0..npoints)
        .filter_map(|i| passes.iter().filter_map(|p| time(&p.samples[i])).min_by(f64::total_cmp))
        .collect()
}

/// A metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    (name.to_string(), value, unit)
}

/// Totals over the simulated points of one pass.
fn sim_totals(outcomes: &[Outcome]) -> (u64, u64, u64) {
    let mut t = (0, 0, 0);
    for o in outcomes {
        if let Outcome::Simulated { stats, .. } = o {
            t.0 += stats.cycles;
            t.1 += stats.dram_bytes();
            t.2 += stats.flops;
        }
    }
    t
}

fn cycles(o: &Outcome) -> Option<f64> {
    match o {
        Outcome::Simulated { stats, .. } => Some(stats.cycles as f64),
        _ => None,
    }
}

/// The metrics that repeat exactly for a seed.
fn deterministic_metrics(w: &Workload, outcomes: &[Outcome]) -> Vec<Metric> {
    let mut out = Vec::new();
    if w.kind.simulates() {
        let (cyc, bytes, flops) = sim_totals(outcomes);
        out.push(metric("sim_cycles", cyc as f64, "cycles"));
        out.push(metric("dram_bytes", bytes as f64, "B"));
        out.push(metric("flops", flops as f64, "flop"));
        let mut taus = Vec::new();
        for mi in 0..w.models.len() {
            let (x, y): (Vec<f64>, Vec<f64>) = w
                .points
                .iter()
                .zip(outcomes)
                .filter(|(p, _)| p.model == mi)
                .filter_map(|(_, o)| match o {
                    Outcome::Simulated { est_bytes, stats, .. } => {
                        Some((*est_bytes, stats.cycles as f64))
                    }
                    _ => None,
                })
                .unzip();
            if let Some(tau) = kendall_tau_b(&x, &y) {
                println!("# heuristic_tau[{}] = {tau}", w.models[mi].name);
                taus.push(tau);
            }
        }
        if !taus.is_empty() {
            out.push(metric("heuristic_tau", taus.iter().sum::<f64>() / taus.len() as f64, "tau"));
        }
    }
    if w.kind == Kind::Fig12Zoo {
        let find = |label: &str| {
            w.points
                .iter()
                .position(|p| p.label == format!("{BIGBIRD}/{label}"))
                .and_then(|i| cycles(&outcomes[i]))
        };
        if let (Some(unfused), Some(full)) = (find("unfused"), find("full")) {
            out.push(metric("bigbird_speedup", unfused / full, "x"));
        }
    }
    if w.kind == Kind::SchedulePrune {
        let rejected = outcomes.iter().filter(|o| matches!(o, Outcome::Rejected(_))).count();
        out.push(metric("reject_ratio", rejected as f64 / outcomes.len() as f64, "ratio"));
    }
    out
}

/// The process's resident-set high-water mark, from `/proc/self/status`.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The commit of the checkout, when it is a git work tree.
fn git_commit(root: &std::path::Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    let line = packed.lines().find(|l| l.ends_with(reference))?;
    line.split(' ').next().map(str::to_string)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let bench_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let commit = bench_dir.parent().and_then(git_commit).unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    println!(
        "# host {{\"nproc\":{nproc},\"profile\":{},\"rustc\":{},\"commit\":{},\"workload\":{},\
         \"seed\":{},\"seconds\":{},\"trace\":{}}}",
        json_str(profile),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&commit),
        json_str(args.kind.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let kind = args.kind;
    let mut tracer = Tracer::new();
    let mut problems: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0usize, 0usize);
    let mut tally = |outcomes: &[Outcome], problems: &mut Vec<String>| {
        attempted += outcomes.len();
        for o in outcomes.iter().filter(|o| o.failed()) {
            failed += 1;
            if problems.len() < 20 {
                problems.push(format!("{o:?}"));
            }
        }
    };

    // Set-up: build the models and inputs, then one untimed warm-up pass,
    // repeated; each repetition must reproduce the first one's outcomes.
    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let mut baseline: Option<Vec<Outcome>> = None;
    let mut w = None;
    for rep in 0..SETUPS {
        // Free the previous repetition's models before building new ones.
        drop(w.take());
        let t0 = Instant::now();
        let built = tracer.span("models", |_| workload::build(kind, args.seed));
        build_s.push(t0.elapsed().as_secs_f64());
        let warm = untraced_pass(&built);
        setup_s.push(t0.elapsed().as_secs_f64());
        tally(&warm.outcomes, &mut problems);
        match &baseline {
            None => baseline = Some(warm.outcomes),
            Some(b) if *b != warm.outcomes => problems
                .push(format!("set-up {rep}: outcomes differ from set-up 0 (nondeterminism)")),
            Some(_) => {}
        }
        w = Some(built);
    }
    let w = w.expect("at least one set-up");
    let baseline = baseline.expect("at least one set-up");
    let npoints = w.points.len();
    // Measurement: whole passes until the time is up.
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    // Wall time and layer counters of each traced pass.
    let mut traced: Vec<(f64, Counters)> = Vec::new();
    let check = |pass: &Pass, what: &str, problems: &mut Vec<String>| {
        if pass.outcomes != baseline {
            problems.push(format!("{what}: outcomes differ from the warm-up pass"));
        }
    };
    while start.elapsed() < budget || passes.len() < MIN_PASSES {
        let mut pass = untraced_pass(&w);
        tally(&pass.outcomes, &mut problems);
        check(&pass, &format!("pass {}", passes.len()), &mut problems);
        // Keep only the timings, so memory does not grow with the number
        // of passes and `peak_rss_mib` does not depend on host speed.
        pass.outcomes = Vec::new();
        passes.push(pass);
        if args.trace {
            let first_id = (traced.len() * npoints) as u32;
            let (pass, counters) = traced_pass(&w, &mut tracer, first_id);
            tally(&pass.outcomes, &mut problems);
            check(
                &pass,
                &format!("traced pass {} (replay drifted from compile_with/run)", traced.len()),
                &mut problems,
            );
            if traced.first().is_some_and(|(_, c)| *c != counters) {
                problems.push(format!("traced pass {}: layer counters changed", traced.len()));
            }
            traced.push((pass.wall_s, counters));
        }
    }

    let mut metrics: Vec<Metric> = Vec::new();
    let med = |xs: &[f64]| median(xs).expect("at least one pass");
    let wall: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    if !args.trace {
        let point_s: f64 = fastest(&passes, |s| Some(s.wall_s)).iter().sum();
        let compile_ms: Vec<f64> =
            fastest(&passes, |s| s.compile_s).iter().map(|s| s * 1e3).collect();
        metrics.push(metric("setup_s", med(&setup_s), "s"));
        metrics.push(metric("points_per_s", npoints as f64 / point_s, "1/s"));
        if !compile_ms.is_empty() {
            let mean = compile_ms.iter().sum::<f64>() / compile_ms.len() as f64;
            metrics.push(metric("compile_ms_mean", mean, "ms"));
        }
        for (name, q) in [("compile_ms_p50", 50.0), ("compile_ms_p90", 90.0)] {
            if let Some(v) = percentile(&compile_ms, q) {
                metrics.push(metric(name, v, "ms"));
            }
        }
        match peak_rss_mib() {
            Some(v) => metrics.push(metric("peak_rss_mib", v, "MiB")),
            None => problems.push("peak_rss_mib: /proc/self/status has no VmHWM".into()),
        }
        if kind.simulates() {
            let run_s: f64 = fastest(&passes, |s| Some(s.run_s)).iter().sum();
            let cycles = sim_totals(&baseline).0 as f64;
            metrics.push(metric("sim_mcycles_per_s", cycles / 1e6 / run_s, "Mcycle/s"));
        }
    } else {
        metrics.extend(layer_metrics(&w, &tracer, &traced, &build_s));
        let traced_wall: Vec<f64> = traced.iter().map(|(wall_s, _)| *wall_s).collect();
        metrics.push(metric("trace.overhead_s", med(&traced_wall) - med(&wall), "s"));
    }
    metrics.extend(deterministic_metrics(&w, &baseline));
    metrics.push(metric("error_ratio", failed as f64 / attempted as f64, "ratio"));

    println!(
        "# {} passes in {:.2} s; {} points per pass",
        passes.len() + traced.len(),
        start.elapsed().as_secs_f64(),
        npoints
    );
    let mut sorted = wall.clone();
    sorted.sort_by(f64::total_cmp);
    println!("# untraced pass wall s, sorted: {sorted:.3?}");
    for (name, value, unit) in &metrics {
        println!("{name:<22} {value:>16.6} {unit}");
    }

    if args.trace {
        let path =
            bench_dir.join("out").join(format!("trace-{}-seed{}.jsonl", kind.name(), args.seed));
        let written = std::fs::create_dir_all(bench_dir.join("out"))
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| tracer.write_jsonl(&mut std::io::BufWriter::new(f)));
        match written {
            Ok(()) => println!("# {} spans written to {}", tracer.spans().len(), path.display()),
            Err(e) => problems.push(format!("writing {}: {e}", path.display())),
        }
    }

    // The result line: the end-to-end metrics untraced, the per-layer ones
    // traced, as BENCHMARK.json lists them.
    let listed: &[&str] = if args.trace { PER_LAYER } else { END_TO_END };
    let mut json = String::new();
    for name in listed {
        match metrics.iter().find(|(n, _, _)| n == name) {
            Some((_, v, _)) if !v.is_finite() => problems.push(format!("metric {name} is {v}")),
            Some((_, v, unit)) => {
                if !json.is_empty() {
                    json.push(',');
                }
                write!(json, "{}:{{\"value\":{v},\"unit\":{}}}", json_str(name), json_str(unit))
                    .expect("write to String");
            }
            None => problems.push(format!("metric {name} was not measured")),
        }
    }
    for p in &problems {
        eprintln!("perfbench: {p}");
    }
    let correct = problems.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{json}}}}}"
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The end-to-end metrics every workload reports (`BENCHMARK.json`).
const END_TO_END: &[&str] = &["setup_s", "points_per_s", "compile_ms_mean", "peak_rss_mib"];

/// The per-layer metrics every traced run reports (`BENCHMARK.json`). The
/// self times of `tensor`, `sim`, `interp` and `check` are printed but left
/// out: those layers do no work on some workloads, and a time that reads 0
/// on every run of a workload is not a measurement the result should carry.
const PER_LAYER: &[&str] = &[
    "models.build_s",
    "fusion.self_s",
    "fusion.calls",
    "lower.self_s",
    "lower.calls",
    "lower.nodes",
    "lower.par_fallbacks",
    "lower.rejects",
    "verify.self_s",
    "verify.calls",
    "verify.diags",
    "heuristic.self_s",
    "sim.calls",
    "sim.events",
    "sim.skip_ratio",
    "sim.peak_ready",
    "sim.tokens",
    "interp.calls",
    "trace.overhead_s",
];

/// Per-layer self time (median over traced passes) and call counts per
/// pass, plus the counters the replay kept.
fn layer_metrics(
    w: &Workload,
    tracer: &Tracer,
    traced: &[(f64, Counters)],
    build_s: &[f64],
) -> Vec<Metric> {
    let npoints = w.points.len();
    let spans = tracer.spans();
    let selfs = self_times(spans);
    // Per layer: self seconds and calls of each traced pass.
    let mut per: BTreeMap<&str, (Vec<f64>, Vec<u64>)> = BTreeMap::new();
    for l in ["fusion", "lower", "verify", "heuristic", "tensor", "sim", "interp", "check"] {
        per.insert(l, (vec![0.0; traced.len()], vec![0; traced.len()]));
    }
    for (s, self_ns) in spans.iter().zip(&selfs) {
        let (Some(l), Some(point)) = (layer(s.name), s.point) else { continue };
        let Some(entry) = per.get_mut(l) else { continue };
        let pass = point as usize / npoints;
        entry.0[pass] += *self_ns as f64 * 1e-9;
        entry.1[pass] += 1;
    }
    let self_s = |l: &str| median(&per[l].0).unwrap_or(0.0);
    let calls = |l: &str| per[l].1.last().copied().unwrap_or(0) as f64;
    let c = traced.last().map(|(_, c)| c.clone()).unwrap_or_default();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    vec![
        metric("models.build_s", median(build_s).unwrap_or(0.0), "s"),
        metric("fusion.self_s", self_s("fusion"), "s"),
        metric("fusion.calls", calls("fusion"), "count"),
        metric("lower.self_s", self_s("lower"), "s"),
        metric("lower.calls", calls("lower"), "count"),
        metric("lower.nodes", c.lower_nodes as f64, "count"),
        metric("lower.par_fallbacks", c.par_fallbacks as f64, "count"),
        metric("lower.rejects", c.lower_rejects as f64, "count"),
        metric("verify.self_s", self_s("verify"), "s"),
        metric("verify.calls", calls("verify"), "count"),
        metric("verify.diags", c.verify_diags as f64, "count"),
        metric("heuristic.self_s", self_s("heuristic"), "s"),
        metric("tensor.permute_s", self_s("tensor"), "s"),
        metric("sim.self_s", self_s("sim"), "s"),
        metric("sim.calls", calls("sim"), "count"),
        metric("sim.events", c.sim_events as f64, "count"),
        metric("sim.ns_per_event", ratio(self_s("sim") * 1e9, c.sim_events as f64), "ns"),
        metric("sim.us_per_call", ratio(self_s("sim") * 1e6, calls("sim")), "us"),
        metric("sim.skip_ratio", ratio(c.sim_cycles_skipped as f64, c.sim_cycles as f64), "ratio"),
        metric("sim.peak_ready", c.sim_peak_ready as f64, "count"),
        metric("sim.tokens", c.sim_tokens as f64, "count"),
        metric("interp.self_s", self_s("interp"), "s"),
        metric("interp.calls", calls("interp"), "count"),
        metric("check.self_s", self_s("check"), "s"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names listed in one array of `BENCHMARK.json`.
    fn listed(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..start + json[start..].find(']').expect("array closes")];
        body.split("\"name\": \"").skip(1).map(|s| s[..s.find('"').unwrap()].to_string()).collect()
    }

    #[test]
    fn benchmark_json_lists_the_metrics_the_result_carries() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).unwrap();
        assert_eq!(listed(&json, "end_to_end"), END_TO_END);
        assert_eq!(listed(&json, "per_layer"), PER_LAYER);
        // `split_sweep` is run by hand only (README.md, "Workloads").
        let workloads = listed(&json, "workloads");
        assert_eq!(workloads, ["fig12_zoo", "schedule_prune"]);
        assert!(workloads.iter().all(|w| Kind::parse(w).is_some()));
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_string));
        let a = parse("--workload split_sweep --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!((a.kind, a.seed, a.seconds, a.trace), (Kind::SplitSweep, 7, 3, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload fig12_zoo --trace 2").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload fig12_zoo --seed").is_err());
    }
}
