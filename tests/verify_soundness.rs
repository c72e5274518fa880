//! Differential soundness suite for the `fuseflow-verify` static
//! analyzer: its definite verdicts must agree with the simulator.
//!
//! * *Certified* is a guarantee: a graph whose reconvergent regions are
//!   all certified deadlock-free at capacity `C` must never hit
//!   [`SimError::Deadlock`] at that capacity — under either scheduler
//!   and any thread count.
//! * *GuaranteedDeadlock* (SA012) is also a guarantee: a flagged graph
//!   must actually deadlock, and the reported minimum safe capacity must
//!   be exact for the hand-built reconvergent witness.
//!
//! The suite checks both directions over ≥100 random programs plus the
//! hand-built softmax-normalization graph from the analyzer's design.

use fuseflow::core::ir::Program;
use fuseflow::core::pipeline::{compile_with, run};
use fuseflow::core::schedule::Schedule;
use fuseflow::sam::{AluOp, MemLocation, NodeKind, ReduceOp, SamGraph};
use fuseflow::sim::{simulate, Scheduler, SimConfig, SimError, TensorEnv};
use fuseflow::tensor::{CooEntry, Format, SparseTensor};
use fuseflow::verify::{verify_graph, Code, Report, VerifyConfig, VerifyOptions};
use proptest::prelude::*;
use std::collections::HashMap;

fn coo_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Vec<CooEntry>> {
    proptest::collection::vec(
        (0..rows as u32, 0..cols as u32, -4i32..=4).prop_map(|(r, c, v)| (vec![r, c], v as f32)),
        0..40,
    )
}

/// A random two-expression SpMM + ReLU pipeline (the workhorse shape of
/// the equivalence suite) with its input bindings.
fn spmm_chain(
    a_entries: Vec<CooEntry>,
    x_entries: Vec<CooEntry>,
) -> (Program, HashMap<String, SparseTensor>) {
    let mut p = Program::new();
    let (i, k, j) = (p.index("i"), p.index("k"), p.index("j"));
    let a = p.input("A", vec![8, 8], Format::csr());
    let x = p.input("X", vec![8, 6], Format::csr());
    let t =
        p.contract("T", vec![i, j], vec![(a, vec![i, k]), (x, vec![k, j])], vec![k], Format::csr());
    let r = p.map("R", AluOp::Relu, (t, vec![i, j]), Format::csr());
    p.mark_output(r);
    let mut inputs = HashMap::new();
    inputs.insert(
        "A".to_string(),
        SparseTensor::from_coo(vec![8, 8], a_entries, &Format::csr()).unwrap(),
    );
    inputs.insert(
        "X".to_string(),
        SparseTensor::from_coo(vec![8, 6], x_entries, &Format::csr()).unwrap(),
    );
    (p, inputs)
}

/// Lints every lowered region graph of `p` at `capacity` and reports
/// whether the whole program is certified deadlock-free (no flagged *or*
/// unknown regions, no diagnostics at all).
fn analyze(
    p: &Program,
    schedule: &Schedule,
    capacity: usize,
) -> (Vec<Report>, bool, fuseflow::core::pipeline::Compiled) {
    let compiled = compile_with(p, schedule, MemLocation::Dram, &VerifyConfig::disabled()).unwrap();
    let opts =
        VerifyOptions { channel_capacity: capacity, fiber_hi: Some(8), ..Default::default() };
    let reports: Vec<Report> =
        compiled.lowered.iter().map(|l| verify_graph(&l.graph, &opts)).collect();
    let certified =
        reports.iter().all(|r| r.is_clean() && r.regions.flagged == 0 && r.regions.unknown == 0);
    (reports, certified, compiled)
}

proptest! {
    // 34 cases x 3 schedules > 100 random (program, schedule) points.
    #![proptest_config(ProptestConfig { cases: 34, ..ProptestConfig::default() })]

    /// Soundness of *Certified*: when the analyzer certifies every
    /// reconvergent region of every lowered graph at the simulated
    /// channel capacity, no scheduler/thread combination may deadlock.
    #[test]
    fn certified_programs_never_deadlock(
        a_entries in coo_matrix(8, 8),
        x_entries in coo_matrix(8, 6),
        cap in 4usize..48,
    ) {
        let (p, inputs) = spmm_chain(a_entries, x_entries);
        for schedule in [Schedule::unfused(), Schedule::full(), Schedule::regions(vec![0..2])] {
            let (_, certified, compiled) = analyze(&p, &schedule, cap);
            if !certified {
                // No claim at this capacity; the positive direction is
                // covered by the hand-built witness below.
                continue;
            }
            for scheduler in [Scheduler::Sweep, Scheduler::Event] {
                for threads in [1usize, 2, 4] {
                    let cfg = SimConfig {
                        channel_capacity: cap,
                        threads,
                        scheduler,
                        ..SimConfig::default()
                    };
                    if let Err(e) = run(&p, &compiled, &inputs, &cfg) {
                        let msg = format!("{e}");
                        prop_assert!(
                            !msg.contains("deadlock"),
                            "certified program deadlocked at cap {cap} under {scheduler:?} \
                             x{threads} threads: {msg}"
                        );
                    }
                }
            }
        }
    }

    /// At the default channel capacity the random-program family is not
    /// just deadlock-free but *provably* so: every region certifies, so
    /// the certified direction above is exercised on every case rather
    /// than vacuously skipped.
    #[test]
    fn default_capacity_certifies_random_programs(
        a_entries in coo_matrix(8, 8),
        x_entries in coo_matrix(8, 6),
    ) {
        let (p, _) = spmm_chain(a_entries, x_entries);
        for schedule in [Schedule::unfused(), Schedule::full()] {
            let (reports, certified, _) = analyze(&p, &schedule, SimConfig::default().channel_capacity);
            prop_assert!(certified, "uncertified region at default capacity: {reports:?}");
        }
    }
}

/// The hand-built reconvergent witness: a softmax-normalization shape
/// where the values fan out into a direct ALU operand and into
/// `Reduce -> Repeat`, which must absorb a whole fiber (N elems + stop)
/// before the ALU's first commit. With fibers of exactly `N = 8`
/// elements the graph needs capacity 9.
fn reconvergent_witness() -> SamGraph {
    let mut g = SamGraph::new();
    let b = g.add_tensor("B", MemLocation::OnChip);
    let o = g.add_output("T", vec![8], Format::sparse_vec(), MemLocation::OnChip);
    let root = g.add_node(NodeKind::Root);
    let ls = g.add_node(NodeKind::LevelScanner { tensor: b, level: 0 });
    let arr = g.add_node(NodeKind::Array { tensor: b });
    let red = g.add_node(NodeKind::Reduce { op: ReduceOp::Sum });
    let rep = g.add_node(NodeKind::Repeat);
    let div = g.add_node(NodeKind::Alu { op: AluOp::Div });
    let cw = g.add_node(NodeKind::CrdWriter { output: o, level: 0 });
    let vw = g.add_node(NodeKind::ValWriter { output: o });
    g.connect(root, 0, ls, 0);
    g.connect(ls, 0, cw, 0);
    g.connect(ls, 0, rep, 1);
    g.connect(ls, 1, arr, 0);
    g.connect(arr, 0, div, 0);
    g.connect(arr, 0, red, 0);
    g.connect(red, 0, rep, 0);
    g.connect(rep, 0, div, 1);
    g.connect(div, 0, vw, 0);
    g
}

/// A dense length-8 vector so every fiber carries exactly 8 elements.
fn witness_env() -> TensorEnv {
    let entries: Vec<CooEntry> = (0..8).map(|i| (vec![i as u32], (i + 1) as f32)).collect();
    let mut env = TensorEnv::new();
    env.insert("B", SparseTensor::from_coo(vec![8], entries, &Format::sparse_vec()).unwrap());
    env
}

/// The acceptance witness: the statically reported minimum safe capacity
/// is *exactly* the empirical deadlock threshold, SA012 fires exactly
/// below it, and the simulator agrees in both directions at every
/// capacity.
#[test]
fn witness_min_safe_capacity_is_exact() {
    let g = reconvergent_witness();
    g.validate().unwrap();
    let env = witness_env();
    // Static min-safe: the max over flagged regions' reports, taken at a
    // deliberately inadequate capacity so both regions flag.
    let opts = VerifyOptions {
        channel_capacity: 2,
        fiber_lo: Some(8),
        fiber_hi: Some(8),
        ..Default::default()
    };
    let report = verify_graph(&g, &opts);
    let min_safe =
        report.with_code(Code::SA012).filter_map(|d| d.min_safe_capacity).max().expect("SA012");
    assert_eq!(min_safe, 9, "report:\n{}", report.render_human(&g));

    // Empirical threshold: the smallest capacity that completes.
    let mut empirical = None;
    for cap in 2..=16 {
        let cfg = SimConfig { channel_capacity: cap, ..SimConfig::default() };
        match simulate(&g, &env, &cfg) {
            Ok(_) => {
                empirical = Some(cap);
                break;
            }
            Err(SimError::Deadlock { .. }) => {}
            Err(e) => panic!("unexpected sim error at cap {cap}: {e}"),
        }
    }
    assert_eq!(empirical, Some(min_safe as usize), "static and empirical thresholds diverge");

    // Verdicts agree with the simulator at every capacity: SA012 fires
    // exactly below the threshold, and at/above it the graph is fully
    // certified and completes under every scheduler.
    for cap in 2..=12 {
        let opts = VerifyOptions {
            channel_capacity: cap,
            fiber_lo: Some(8),
            fiber_hi: Some(8),
            ..Default::default()
        };
        let r = verify_graph(&g, &opts);
        let flagged_guaranteed = r.with_code(Code::SA012).count() > 0;
        assert_eq!(flagged_guaranteed, cap < 9, "cap {cap}: {}", r.render_human(&g));
        if cap >= 9 {
            assert_eq!(r.regions.flagged, 0, "cap {cap}: {}", r.render_human(&g));
            assert!(r.regions.certified >= 2, "cap {cap}: {}", r.render_human(&g));
        }
        for scheduler in [Scheduler::Sweep, Scheduler::Event] {
            let cfg = SimConfig { channel_capacity: cap, scheduler, ..SimConfig::default() };
            let result = simulate(&g, &env, &cfg);
            if flagged_guaranteed {
                assert!(
                    matches!(result, Err(SimError::Deadlock { .. })),
                    "analyzer guaranteed a deadlock at cap {cap} but {scheduler:?} ran: {result:?}"
                );
            } else {
                assert!(
                    result.is_ok(),
                    "certified at cap {cap} but {scheduler:?} failed: {result:?}"
                );
            }
        }
    }
}

/// The enriched deadlock detail names the blocked nodes by label and the
/// at-capacity channel (the runtime face of SA012's static story).
#[test]
fn deadlock_detail_names_blocked_nodes_and_channels() {
    let g = reconvergent_witness();
    let env = witness_env();
    let cfg = SimConfig { channel_capacity: 4, ..SimConfig::default() };
    let err = simulate(&g, &env, &cfg).unwrap_err();
    let SimError::Deadlock { detail, .. } = err else { panic!("expected deadlock: {err}") };
    assert!(detail.contains("at cap 4"), "detail: {detail}");
    assert!(detail.contains("full:[out0->ALU[Div]#5 at cap 4]"), "detail: {detail}");
    assert!(detail.contains("Array[t0]#2"), "detail: {detail}");
}
