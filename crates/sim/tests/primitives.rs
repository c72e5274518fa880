//! Unit-level semantics tests for each SAMML primitive, driven through
//! `run_node_standalone` with literal token streams.

use fuseflow_sam::{AluOp, NodeKind, Payload, ReduceOp, Token};
use fuseflow_sim::{run_node_standalone, SimError};
use fuseflow_tensor::{DenseTensor, Format, SparseTensor};

fn idx(i: u32) -> Token {
    Token::idx(i)
}

fn val(v: f32) -> Token {
    Token::val(v)
}

fn s(k: u8) -> Token {
    Token::Stop(k)
}

const D: Token = Token::Done;

#[test]
fn root_emits_reference_and_done() {
    let out = run_node_standalone(NodeKind::Root, vec![], vec![]).unwrap();
    assert_eq!(out[0], vec![idx(0), D]);
}

#[test]
fn scanner_csr_outer_level() {
    // 3x4 matrix with rows {0: [0,2], 1: [], 2: [3]} in CSR.
    let dense =
        DenseTensor::from_vec(vec![3, 4], vec![1., 0., 2., 0., 0., 0., 0., 0., 0., 0., 0., 3.]);
    let t = SparseTensor::from_dense(&dense, &Format::csr());
    // Dense outer level scanned from root.
    let out = run_node_standalone(
        NodeKind::LevelScanner { tensor: 0, level: 0 },
        vec![vec![idx(0), D]],
        vec![t],
    )
    .unwrap();
    assert_eq!(out[0], vec![idx(0), idx(1), idx(2), s(0), D]);
    assert_eq!(out[1], vec![idx(0), idx(1), idx(2), s(0), D]);
}

#[test]
fn scanner_csr_inner_level_nests_stops() {
    let dense =
        DenseTensor::from_vec(vec![3, 4], vec![1., 0., 2., 0., 0., 0., 0., 0., 0., 0., 0., 3.]);
    let t = SparseTensor::from_dense(&dense, &Format::csr());
    let refs = vec![idx(0), idx(1), idx(2), s(0), D];
    let out =
        run_node_standalone(NodeKind::LevelScanner { tensor: 0, level: 1 }, vec![refs], vec![t])
            .unwrap();
    // Row 1 is empty: bare stop (adjacent stops convention).
    assert_eq!(out[0], vec![idx(0), idx(2), s(0), s(0), idx(3), s(1), D]);
    // References address the stored positions 0..3.
    assert_eq!(out[1], vec![idx(0), idx(1), s(0), s(0), idx(2), s(1), D]);
}

#[test]
fn scanner_forwards_empty_payloads_as_empty_fibers() {
    let dense = DenseTensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]);
    let t = SparseTensor::from_dense(&dense, &Format::csr());
    let refs = vec![Token::Elem(Payload::Empty), idx(1), s(0), D];
    let out =
        run_node_standalone(NodeKind::LevelScanner { tensor: 0, level: 1 }, vec![refs], vec![t])
            .unwrap();
    assert_eq!(out[0], vec![s(0), idx(0), idx(1), s(1), D]);
}

#[test]
fn repeat_root_per_coordinate() {
    // Repeat X's root reference once per i coordinate.
    let base = vec![idx(0), D];
    let rep = vec![idx(3), idx(7), s(0), D];
    let out = run_node_standalone(NodeKind::Repeat, vec![base, rep], vec![]).unwrap();
    assert_eq!(out[0], vec![idx(0), idx(0), s(0), D]);
}

#[test]
fn repeat_values_across_inner_fibers() {
    // Base values per (i,k); rep stream is the j-coordinate stream.
    let base = vec![val(10.0), val(20.0), s(0), val(30.0), s(1), D];
    let rep = vec![idx(0), idx(1), s(0), idx(2), s(1), idx(0), s(2), D];
    let out = run_node_standalone(NodeKind::Repeat, vec![base, rep], vec![]).unwrap();
    assert_eq!(out[0], vec![val(10.0), val(10.0), s(0), val(20.0), s(1), val(30.0), s(2), D]);
}

#[test]
fn repeat_discards_base_for_empty_rep_fiber() {
    let base = vec![val(1.0), val(2.0), s(0), D];
    let rep = vec![s(0), idx(5), s(1), D]; // first fiber empty
    let out = run_node_standalone(NodeKind::Repeat, vec![base, rep], vec![]).unwrap();
    assert_eq!(out[0], vec![s(0), val(2.0), s(1), D]);
}

#[test]
fn intersect_matches_coordinates() {
    let ca = vec![idx(0), idx(2), idx(5), s(0), D];
    let pa = vec![idx(10), idx(12), idx(15), s(0), D];
    let cb = vec![idx(2), idx(3), idx(5), s(0), D];
    let pb = vec![idx(22), idx(23), idx(25), s(0), D];
    let out = run_node_standalone(NodeKind::Intersect, vec![ca, pa, cb, pb], vec![]).unwrap();
    assert_eq!(out[0], vec![idx(2), idx(5), s(0), D]);
    assert_eq!(out[1], vec![idx(12), idx(15), s(0), D]);
    assert_eq!(out[2], vec![idx(22), idx(25), s(0), D]);
}

#[test]
fn intersect_handles_disjoint_fibers() {
    let ca = vec![idx(0), s(0), idx(1), s(1), D];
    let pa = vec![idx(0), s(0), idx(1), s(1), D];
    let cb = vec![idx(1), s(0), idx(1), s(1), D];
    let pb = vec![idx(9), s(0), idx(9), s(1), D];
    let out = run_node_standalone(NodeKind::Intersect, vec![ca, pa, cb, pb], vec![]).unwrap();
    assert_eq!(out[0], vec![s(0), idx(1), s(1), D]);
}

#[test]
fn union_emits_empty_placeholders() {
    let ca = vec![idx(0), idx(2), s(0), D];
    let pa = vec![idx(10), idx(12), s(0), D];
    let cb = vec![idx(1), idx(2), s(0), D];
    let pb = vec![idx(21), idx(22), s(0), D];
    let out = run_node_standalone(NodeKind::Union, vec![ca, pa, cb, pb], vec![]).unwrap();
    assert_eq!(out[0], vec![idx(0), idx(1), idx(2), s(0), D]);
    assert_eq!(out[1], vec![idx(10), Token::Elem(Payload::Empty), idx(12), s(0), D]);
    assert_eq!(out[2], vec![Token::Elem(Payload::Empty), idx(21), idx(22), s(0), D]);
}

#[test]
fn union_drains_longer_side_after_stop() {
    let ca = vec![idx(0), s(0), D];
    let pa = vec![idx(10), s(0), D];
    let cb = vec![idx(0), idx(4), idx(6), s(0), D];
    let pb = vec![idx(20), idx(24), idx(26), s(0), D];
    let out = run_node_standalone(NodeKind::Union, vec![ca, pa, cb, pb], vec![]).unwrap();
    assert_eq!(out[0], vec![idx(0), idx(4), idx(6), s(0), D]);
}

#[test]
fn alu_binary_add() {
    let a = vec![val(1.0), val(2.0), s(0), D];
    let b = vec![val(10.0), val(20.0), s(0), D];
    let out = run_node_standalone(NodeKind::Alu { op: AluOp::Add }, vec![a, b], vec![]).unwrap();
    assert_eq!(out[0], vec![val(11.0), val(22.0), s(0), D]);
}

#[test]
fn alu_add_treats_empty_as_zero() {
    let a = vec![Token::Elem(Payload::Empty), val(2.0), s(0), D];
    let b = vec![val(10.0), Token::Elem(Payload::Empty), s(0), D];
    let out = run_node_standalone(NodeKind::Alu { op: AluOp::Add }, vec![a, b], vec![]).unwrap();
    assert_eq!(out[0], vec![val(10.0), val(2.0), s(0), D]);
}

#[test]
fn alu_unary_relu() {
    let a = vec![val(-1.0), val(3.0), s(0), D];
    let out = run_node_standalone(NodeKind::Alu { op: AluOp::Relu }, vec![a], vec![]).unwrap();
    assert_eq!(out[0], vec![val(0.0), val(3.0), s(0), D]);
}

/// A crd operand is a typed semantics error for unary ALUs, exactly like
/// for binary ones, never a panic.
#[test]
fn alu_rejects_crd_operands_unary_and_binary() {
    let unary =
        run_node_standalone(NodeKind::Alu { op: AluOp::Relu }, vec![vec![idx(0), D]], vec![])
            .unwrap_err();
    assert_eq!(unary, SimError::Semantics("alu operand Idx(0)".into()));
    let binary = run_node_standalone(
        NodeKind::Alu { op: AluOp::Add },
        vec![vec![idx(0), D], vec![idx(1), D]],
        vec![],
    )
    .unwrap_err();
    assert_eq!(binary, SimError::Semantics("alu operands Idx(0) / Idx(1)".into()));
}

#[test]
fn reduce_sums_inner_fibers() {
    let v = vec![val(1.0), val(2.0), s(0), val(5.0), s(1), D];
    let out = run_node_standalone(NodeKind::Reduce { op: ReduceOp::Sum }, vec![v], vec![]).unwrap();
    assert_eq!(out[0], vec![val(3.0), val(5.0), s(0), D]);
}

#[test]
fn reduce_emits_identity_for_empty_fiber() {
    let v = vec![s(0), val(4.0), s(1), D];
    let out = run_node_standalone(NodeKind::Reduce { op: ReduceOp::Sum }, vec![v], vec![]).unwrap();
    assert_eq!(out[0], vec![val(0.0), val(4.0), s(0), D]);
}

#[test]
fn reduce_max() {
    let v = vec![val(1.0), val(7.0), val(3.0), s(1), D];
    let out = run_node_standalone(NodeKind::Reduce { op: ReduceOp::Max }, vec![v], vec![]).unwrap();
    assert_eq!(out[0], vec![val(7.0), s(0), D]);
}

#[test]
fn spacc_accumulates_across_inner_boundaries() {
    // Two k-fibers for i0: {j0: 1, j2: 2} then {j0: 10, j1: 20}; one for i1.
    let crd = vec![idx(0), idx(2), s(0), idx(0), idx(1), s(1), idx(3), s(2), D];
    let vals = vec![val(1.), val(2.), s(0), val(10.), val(20.), s(1), val(3.), s(2), D];
    let out = run_node_standalone(NodeKind::Spacc1 { op: ReduceOp::Sum }, vec![crd, vals], vec![])
        .unwrap();
    assert_eq!(out[0], vec![idx(0), idx(1), idx(2), s(0), idx(3), s(1), D]);
    assert_eq!(out[1], vec![val(11.0), val(20.0), val(2.0), s(0), val(3.0), s(1), D]);
}

#[test]
fn spacc_flushes_empty_fiber_for_empty_accumulation() {
    let crd = vec![s(1), idx(2), s(2), D];
    let vals = vec![s(1), val(5.0), s(2), D];
    let out = run_node_standalone(NodeKind::Spacc1 { op: ReduceOp::Sum }, vec![crd, vals], vec![])
        .unwrap();
    assert_eq!(out[0], vec![s(0), idx(2), s(1), D]);
    assert_eq!(out[1], vec![s(0), val(5.0), s(1), D]);
}

#[test]
fn parallelizer_round_robins_elements_and_broadcasts_stops() {
    let crd = vec![idx(0), idx(1), idx(2), s(0), D];
    let refs = vec![idx(10), idx(11), idx(12), s(0), D];
    let out =
        run_node_standalone(NodeKind::Parallelizer { factor: 2 }, vec![crd, refs], vec![]).unwrap();
    assert_eq!(out[0], vec![idx(0), idx(2), s(0), D]); // branch 0 crd
    assert_eq!(out[1], vec![idx(10), idx(12), s(0), D]); // branch 0 ref
    assert_eq!(out[2], vec![idx(1), s(0), D]); // branch 1 crd
    assert_eq!(out[3], vec![idx(11), s(0), D]); // branch 1 ref
}

#[test]
fn serializer_merges_depth0_elements() {
    let b0 = vec![idx(0), idx(2), s(0), D];
    let b1 = vec![idx(1), s(0), D];
    let order = vec![idx(0), idx(1), idx(2), s(0), D];
    let out = run_node_standalone(
        NodeKind::Serializer { factor: 2, depth: 0 },
        vec![b0, b1, order],
        vec![],
    )
    .unwrap();
    assert_eq!(out[0], vec![idx(0), idx(1), idx(2), s(0), D]);
}

#[test]
fn serializer_merges_depth1_fibers() {
    // Branch 0 carries rows 0 and 2; branch 1 carries rows 1 and 3.
    let b0 = vec![val(1.0), val(2.0), s(0), val(5.0), s(1), D];
    let b1 = vec![val(3.0), s(0), val(7.0), val(8.0), s(1), D];
    let order = vec![idx(0), idx(1), idx(2), idx(3), s(0), D];
    let out = run_node_standalone(
        NodeKind::Serializer { factor: 2, depth: 1 },
        vec![b0, b1, order],
        vec![],
    )
    .unwrap();
    assert_eq!(
        out[0],
        vec![val(1.0), val(2.0), s(0), val(3.0), s(0), val(5.0), s(0), val(7.0), val(8.0), s(1), D]
    );
}

#[test]
fn serializer_handles_empty_coalesced_unit() {
    // Branch 0's second unit (row 2) is empty and its boundary coalesced
    // into the barrier stop; the order stream disambiguates it.
    let b0 = vec![val(1.0), s(0), s(1), D];
    let b1 = vec![val(3.0), s(0), val(7.0), s(1), D];
    let order = vec![idx(0), idx(1), idx(2), idx(3), s(0), D];
    let out = run_node_standalone(
        NodeKind::Serializer { factor: 2, depth: 1 },
        vec![b0, b1, order],
        vec![],
    )
    .unwrap();
    assert_eq!(out[0], vec![val(1.0), s(0), val(3.0), s(0), s(0), val(7.0), s(1), D]);
}

#[test]
fn serializer_handles_starved_branch() {
    // Only 3 units for 4 branches: branch 3 receives just the broadcast
    // barrier and must not contribute a phantom unit.
    let b0 = vec![val(1.0), s(1), D];
    let b1 = vec![val(2.0), s(1), D];
    let b2 = vec![val(3.0), s(1), D];
    let b3 = vec![s(1), D];
    let order = vec![idx(0), idx(1), idx(2), s(0), D];
    let out = run_node_standalone(
        NodeKind::Serializer { factor: 4, depth: 1 },
        vec![b0, b1, b2, b3, order],
        vec![],
    )
    .unwrap();
    assert_eq!(out[0], vec![val(1.0), s(0), val(2.0), s(0), val(3.0), s(1), D]);
}

#[test]
fn array_reads_values_and_zeros_for_empty() {
    let dense = DenseTensor::from_vec(vec![4], vec![5., 6., 7., 8.]);
    let t = SparseTensor::from_dense(&dense, &Format::dense_vec());
    let refs = vec![idx(2), Token::Elem(Payload::Empty), idx(0), s(0), D];
    let out = run_node_standalone(NodeKind::Array { tensor: 0 }, vec![refs], vec![t]).unwrap();
    assert_eq!(out[0], vec![val(7.0), val(0.0), val(5.0), s(0), D]);
}

#[test]
fn blocked_array_and_matmul_alu() {
    let a = SparseTensor::from_blocks(
        vec![2, 2],
        [2, 2],
        vec![(vec![0, 0], vec![1., 2., 3., 4.])],
        &Format::csr(),
    )
    .unwrap();
    let refs = vec![idx(0), s(0), D];
    let out = run_node_standalone(NodeKind::Array { tensor: 0 }, vec![refs], vec![a]).unwrap();
    let Token::Elem(Payload::Blk(b)) = &out[0][0] else { panic!("expected block") };
    assert_eq!(b.data(), &[1., 2., 3., 4.]);

    // Tile contraction through the Mul ALU.
    let lhs = vec![out[0][0].clone(), s(0), D];
    let rhs = vec![out[0][0].clone(), s(0), D];
    let prod =
        run_node_standalone(NodeKind::Alu { op: AluOp::Mul }, vec![lhs, rhs], vec![]).unwrap();
    let Token::Elem(Payload::Blk(p)) = &prod[0][0] else { panic!("expected block") };
    assert_eq!(p.data(), &[7., 10., 15., 22.]);
}

#[test]
fn crddrop_passes_streams_through() {
    let outer = vec![idx(0), s(0), D];
    let inner = vec![idx(1), idx(2), s(1), D];
    let out =
        run_node_standalone(NodeKind::CrdDrop, vec![outer.clone(), inner.clone()], vec![]).unwrap();
    assert_eq!(out[0], outer);
    assert_eq!(out[1], inner);
}
