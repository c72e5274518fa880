//! Property-based tests (proptest) over the core invariants:
//! format round-trips, dataflow-vs-reference equivalence for random
//! programs, POG order validity, and stream well-formedness.

use fuseflow::core::ir::{OpKind, Program};
use fuseflow::core::pipeline::{compile, compile_run_verify, run};
use fuseflow::core::schedule::Schedule;
use fuseflow::core::{fuse_region, GlobalIx};
use fuseflow::sim::{Scheduler, SimConfig};
use fuseflow::tensor::{CooEntry, DenseTensor, Format, LevelFormat, SparseTensor};
use proptest::prelude::*;

fn coo_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Vec<CooEntry>> {
    proptest::collection::vec(
        (0..rows as u32, 0..cols as u32, -4i32..=4).prop_map(|(r, c, v)| (vec![r, c], v as f32)),
        0..40,
    )
}

fn any_matrix_format() -> impl Strategy<Value = Format> {
    proptest::collection::vec(
        prop_oneof![Just(LevelFormat::Dense), Just(LevelFormat::Compressed)],
        2,
    )
    .prop_map(Format::new)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Any COO matrix round-trips through any per-level format.
    #[test]
    fn format_round_trip(entries in coo_matrix(7, 9), fmt in any_matrix_format()) {
        let t = SparseTensor::from_coo(vec![7, 9], entries.clone(), &fmt).unwrap();
        let mut dense = DenseTensor::zeros(vec![7, 9]);
        for (c, v) in &entries {
            let idx = [c[0] as usize, c[1] as usize];
            let cur = dense.get(&idx);
            dense.set(&idx, cur + v);
        }
        prop_assert!(t.to_dense().approx_eq(&dense));
    }

    /// Permuting twice with the inverse permutation is the identity.
    #[test]
    fn permute_round_trip(entries in coo_matrix(6, 8)) {
        let t = SparseTensor::from_coo(vec![6, 8], entries, &Format::dcsr()).unwrap();
        let p = t.permute(&[1, 0], &Format::dcsr());
        let back = p.permute(&[1, 0], &Format::dcsr());
        prop_assert_eq!(back.to_dense(), t.to_dense());
    }

    /// A random SpMM chain verifies against the reference at every fusion
    /// granularity (the end-to-end compiler invariant).
    #[test]
    fn spmm_chain_fused_equals_reference(
        a_entries in coo_matrix(8, 8),
        x_entries in coo_matrix(8, 6),
        fused in any::<bool>(),
    ) {
        let mut p = Program::new();
        let (i, k, j) = (p.index("i"), p.index("k"), p.index("j"));
        let a = p.input("A", vec![8, 8], Format::csr());
        let x = p.input("X", vec![8, 6], Format::csr());
        let t = p.contract("T", vec![i, j], vec![(a, vec![i, k]), (x, vec![k, j])], vec![k], Format::csr());
        let r = p.map("R", fuseflow_sam::AluOp::Relu, (t, vec![i, j]), Format::csr());
        p.mark_output(r);
        let mut inputs = std::collections::HashMap::new();
        inputs.insert("A".to_string(), SparseTensor::from_coo(vec![8, 8], a_entries, &Format::csr()).unwrap());
        inputs.insert("X".to_string(), SparseTensor::from_coo(vec![8, 6], x_entries, &Format::csr()).unwrap());
        let sched = if fused { Schedule::full() } else { Schedule::unfused() };
        compile_run_verify(&p, &sched, &inputs, &SimConfig::default()).unwrap();
    }

    /// Elementwise union ops verify for random operand structures.
    #[test]
    fn union_ops_equal_reference(
        a_entries in coo_matrix(6, 6),
        b_entries in coo_matrix(6, 6),
        use_add in any::<bool>(),
    ) {
        let mut p = Program::new();
        let (i, j) = (p.index("i"), p.index("j"));
        let a = p.input("A", vec![6, 6], Format::dcsr());
        let b = p.input("B", vec![6, 6], Format::dcsr());
        let op = if use_add { OpKind::Add } else { OpKind::Max };
        let c = p.binary("C", op, (a, vec![i, j]), (b, vec![i, j]), vec![i, j], Format::dcsr());
        p.mark_output(c);
        let mut inputs = std::collections::HashMap::new();
        inputs.insert("A".to_string(), SparseTensor::from_coo(vec![6, 6], a_entries, &Format::dcsr()).unwrap());
        inputs.insert("B".to_string(), SparseTensor::from_coo(vec![6, 6], b_entries, &Format::dcsr()).unwrap());
        compile_run_verify(&p, &Schedule::full(), &inputs, &SimConfig::default()).unwrap();
    }

    /// Random small programs simulate to bit-identical outputs and
    /// semantic `Stats` under the event-driven scheduler and the legacy
    /// sweep, at every thread count (the cross-scheduler /
    /// cross-parallelism determinism invariant).
    #[test]
    fn schedulers_and_thread_counts_agree_on_random_graphs(
        a_entries in coo_matrix(7, 7),
        x_entries in coo_matrix(7, 5),
        fused in any::<bool>(),
    ) {
        let mut p = Program::new();
        let (i, k, j) = (p.index("i"), p.index("k"), p.index("j"));
        let a = p.input("A", vec![7, 7], Format::csr());
        let x = p.input("X", vec![7, 5], Format::csr());
        let t = p.contract("T", vec![i, j], vec![(a, vec![i, k]), (x, vec![k, j])], vec![k], Format::csr());
        let r = p.map("R", fuseflow_sam::AluOp::Relu, (t, vec![i, j]), Format::csr());
        p.mark_output(r);
        let mut inputs = std::collections::HashMap::new();
        inputs.insert("A".to_string(), SparseTensor::from_coo(vec![7, 7], a_entries, &Format::csr()).unwrap());
        inputs.insert("X".to_string(), SparseTensor::from_coo(vec![7, 5], x_entries, &Format::csr()).unwrap());
        let sched = if fused { Schedule::full() } else { Schedule::unfused() };
        let compiled = compile(&p, &sched).unwrap();

        let base = run(&p, &compiled, &inputs, &SimConfig::default()).unwrap();
        for scheduler in [Scheduler::Event, Scheduler::Sweep] {
            for threads in [1usize, 2, 4] {
                let cfg = SimConfig::default().with_scheduler(scheduler).with_threads(threads);
                let other = run(&p, &compiled, &inputs, &cfg).unwrap();
                prop_assert_eq!(
                    base.stats.semantic(),
                    other.stats.semantic(),
                    "stats diverged for {:?} x {} threads", scheduler, threads
                );
                prop_assert_eq!(&base.outputs, &other.outputs,
                    "outputs diverged for {:?} x {} threads", scheduler, threads);
            }
        }
    }

    /// Every order the POG enumerates respects every edge, and the exact
    /// linear-extension count matches the enumeration for small POGs.
    #[test]
    fn pog_orders_respect_constraints(edges in proptest::collection::vec((0u32..6, 0u32..6), 0..8)) {
        let mut pog = fuseflow::core::Pog::new(6);
        for (a, b) in &edges {
            if a != b {
                pog.add_edge(GlobalIx(*a), GlobalIx(*b));
            }
        }
        let orders = pog.all_orders(10_000);
        let (count, capped) = pog.count_orders(1 << 60);
        prop_assert!(!capped);
        prop_assert_eq!(orders.len() as u128, count);
        for order in &orders {
            let posn: std::collections::HashMap<_, _> =
                order.iter().enumerate().map(|(p, g)| (*g, p)).collect();
            for (a, b) in pog.edges() {
                prop_assert!(posn[&a] < posn[&b], "edge violated");
            }
        }
    }

    /// Fusing a matmul chain never loses or invents index variables.
    #[test]
    fn fusion_preserves_index_space(n in 4usize..10) {
        let mut p = Program::new();
        let (i, k, u, j) = (p.index("i"), p.index("k"), p.index("u"), p.index("j"));
        let a = p.input("A", vec![n, n], Format::csr());
        let x = p.input("X", vec![n, 5], Format::csr());
        let w = p.input("W", vec![5, 3], Format::dense(2));
        let t0 = p.contract("T0", vec![i, u], vec![(a, vec![i, k]), (x, vec![k, u])], vec![k], Format::csr());
        let _t1 = p.contract("T1", vec![i, j], vec![(t0, vec![i, u]), (w, vec![u, j])], vec![u], Format::csr());
        let region = fuse_region(&p, 0..2).unwrap();
        // Four distinct loop dimensions: i, the two contractions, j.
        prop_assert_eq!(region.order.len(), 4);
        // The chosen order is itself one of the POG's valid orders.
        let orders = region.pog.all_orders(10_000);
        prop_assert!(orders.contains(&region.order));
    }
}
