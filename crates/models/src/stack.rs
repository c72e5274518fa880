//! Deep elementwise activation pipeline: `depth` chained unary maps over
//! one sparse operand. Not a paper model — a scheduler microbench kernel
//! whose fully-fused lowering is one long single-reader/single-writer
//! chain where every node is busy every cycle (real models interleave
//! scanners and repeats, capping chains at a few nodes).

use crate::ModelInstance;
use fuseflow_core::ir::Program;
use fuseflow_sam::AluOp;
use fuseflow_tensor::{gen, Format};
use std::collections::HashMap;

/// Builds a `depth`-deep stack of alternating ReLU/Sigmoid maps over an
/// `n` x `n` sparse matrix at `density`.
pub fn map_stack(n: usize, depth: usize, density: f64, seed: u64) -> ModelInstance {
    assert!(depth >= 1);
    let mut p = Program::new();
    let x = p.input("X", vec![n, n], Format::csr());
    let (i, j) = (p.index("i"), p.index("j"));
    let mut cur = x;
    for d in 0..depth {
        let op = if d % 2 == 0 { AluOp::Relu } else { AluOp::Sigmoid };
        cur = p.map(format!("M{d}"), op, (cur, vec![i, j]), Format::csr());
    }
    p.mark_output(cur);

    let mut inputs = HashMap::new();
    inputs.insert("X".to_string(), gen::sparse_features(n, n, density, seed, &Format::csr()));

    // Partial fusion: blocks of four layers; full fusion: the whole stack.
    let partial_regions = (0..depth).step_by(4).map(|s| s..(s + 4).min(depth)).collect::<Vec<_>>();
    ModelInstance {
        name: format!("map_stack_{n}x{depth}"),
        program: p,
        inputs,
        partial_regions,
        full_regions: vec![0..depth],
    }
}
