//! Structural reference interpreter for Einsum programs.
//!
//! Evaluates a [`Program`] densely while tracking each tensor's *structure*
//! (which coordinates exist), exactly mirroring streaming-sparse semantics:
//! unary non-linearities apply only to present coordinates (sparse softmax
//! operates over the nonzero structure), intersections require all
//! operands present, unions any. This is the oracle every compiled dataflow
//! graph is verified against, mirroring the paper's verification "against a
//! dense PyTorch implementation" (§8.1) while staying faithful to
//! structure-dependent operators.
//!
//! Blocked (tile-carrying) programs are verified against model-specific
//! dense references instead (see `fuseflow-models`); this interpreter
//! rejects them.

use crate::ir::{Access, IndexVar, OpKind, Program, ReduceOp, TensorId};
use fuseflow_tensor::{DenseTensor, Format, LevelFormat, SparseTensor};
use std::collections::HashMap;

/// A dense value tensor plus its 0/1 structure mask.
#[derive(Debug, Clone)]
pub struct Structured {
    /// Values (zero where absent).
    pub vals: DenseTensor,
    /// Structure: 1.0 where a coordinate exists.
    pub mask: DenseTensor,
}

impl Structured {
    /// Builds from a sparse tensor: structure = stored coordinates
    /// (expanded blocks for blocked tensors; all coordinates for dense
    /// formats).
    pub fn from_sparse(t: &SparseTensor) -> Self {
        let vals = t.to_dense();
        let mut mask = DenseTensor::zeros(t.shape().to_vec());
        if !t.format().has_compressed() {
            mask = mask.map(|_| 1.0);
        } else if t.is_blocked() {
            let [b0, b1] = t.block();
            // Every element of a stored block is present.
            for (c, _) in structure_coo(t) {
                for r in 0..b0 {
                    for cc in 0..b1 {
                        mask.set(&[c[0] as usize * b0 + r, c[1] as usize * b1 + cc], 1.0);
                    }
                }
            }
        } else {
            for (c, _) in t.to_coo() {
                let idx: Vec<usize> = c.iter().map(|&x| x as usize).collect();
                mask.set(&idx, 1.0);
            }
        }
        Structured { vals, mask }
    }
}

/// Stored block-grid coordinates of a blocked tensor.
fn structure_coo(t: &SparseTensor) -> Vec<(Vec<u32>, f32)> {
    // Walk levels directly: every stored position is structure.
    let mut out = Vec::new();
    fn walk(
        t: &SparseTensor,
        lvl: usize,
        parent: usize,
        coords: &mut Vec<u32>,
        out: &mut Vec<(Vec<u32>, f32)>,
    ) {
        for (c, child) in t.level(lvl).fiber(parent) {
            coords.push(c);
            if lvl + 1 == t.order() {
                out.push((coords.clone(), 1.0));
            } else {
                walk(t, lvl + 1, child, coords, out);
            }
            coords.pop();
        }
    }
    walk(t, 0, 0, &mut Vec::new(), &mut out);
    out
}

/// Errors from interpretation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// An input tensor had no binding.
    MissingInput(String),
    /// The program uses blocked tensors (verified elsewhere).
    Blocked(String),
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpError::MissingInput(n) => write!(f, "missing input '{n}'"),
            InterpError::Blocked(n) => {
                write!(f, "tensor '{n}' is blocked; use a model-specific reference")
            }
        }
    }
}

impl std::error::Error for InterpError {}

/// Where an access lands in a row-major tensor: per level, the iteration
/// slot that indexes it and the level's extent.
struct AccessView {
    slots: Vec<usize>,
    extents: Vec<usize>,
}

impl AccessView {
    fn new(acc: &Access, shape: &[usize], slot: &impl Fn(&IndexVar) -> usize) -> Self {
        debug_assert_eq!(acc.indices.len(), shape.len());
        AccessView { slots: acc.indices.iter().map(slot).collect(), extents: shape.to_vec() }
    }

    /// Row-major offset of each prefix of the access at `point`: `off[t]`
    /// indexes the prefixes of length `t + 1`, so the last entry is the
    /// element's flat offset.
    fn prefix_offsets(&self, point: &[usize], off: &mut [usize]) {
        let mut at = 0;
        for ((o, &s), &n) in off.iter_mut().zip(&self.slots).zip(&self.extents) {
            at = at * n + point[s];
            *o = at;
        }
    }

    /// Flat row-major offset of the element at `point`.
    fn flat(&self, point: &[usize]) -> usize {
        self.slots.iter().zip(&self.extents).fold(0, |at, (&s, &n)| at * n + point[s])
    }
}

/// One input of an expression, with its structure indexed for the
/// per-point presence test.
///
/// Storage-format closure: a dense level materializes every coordinate
/// under a present parent (empty CSR rows exist as fibers), so a prefix is
/// supported when its coordinates up to the *last compressed level* match
/// a stored element; interior dense coordinates still select fibers.
struct Operand<'a> {
    view: AccessView,
    vals: &'a [f32],
    /// Per level `t`: the last compressed level in `0..=t`, if any.
    last_comp: Vec<Option<usize>>,
    /// Per compressed level `l`: which prefixes of length `l + 1` hold a
    /// stored element, indexed by prefix offset (empty for dense levels).
    support: Vec<Vec<bool>>,
}

impl<'a> Operand<'a> {
    fn new(
        acc: &Access,
        s: &'a Structured,
        fmt: &Format,
        slot: &impl Fn(&IndexVar) -> usize,
    ) -> Self {
        let view = AccessView::new(acc, s.mask.shape(), slot);
        let ext = &view.extents;
        let comp: Vec<bool> =
            (0..ext.len()).map(|l| fmt.level(l) == LevelFormat::Compressed).collect();
        let last_comp = (0..ext.len()).map(|t| (0..=t).rev().find(|&l| comp[l])).collect();
        let mut support: Vec<Vec<bool>> = (0..ext.len())
            .map(|l| if comp[l] { vec![false; ext[..=l].iter().product()] } else { Vec::new() })
            .collect();
        // The prefix of length l + 1 of flat element `f` is
        // `f / ext[l + 1..].product()`.
        let suffix: Vec<usize> = (0..ext.len()).map(|l| ext[l + 1..].iter().product()).collect();
        for (f, _) in s.mask.data().iter().enumerate().filter(|(_, &m)| m != 0.0) {
            for (bits, &div) in support.iter_mut().zip(&suffix).filter(|(b, _)| !b.is_empty()) {
                bits[f / div] = true;
            }
        }
        Operand { view, vals: s.vals.data(), last_comp, support }
    }

    /// Is the prefix of length `t + 1` supported, given the point's prefix
    /// offsets `off`?
    fn supported(&self, t: usize, off: &[usize]) -> bool {
        match self.last_comp[t] {
            Some(l) => self.support[l][off[l]],
            None => true,
        }
    }

    /// Is the whole element present? A scalar access always is.
    fn present(&self, off: &[usize]) -> bool {
        match off.len().checked_sub(1) {
            Some(t) => self.supported(t, off),
            None => true,
        }
    }
}

/// Evaluates every expression of `program` on `inputs`, returning all
/// produced tensors (keyed by name) with structural sparse semantics.
///
/// # Errors
///
/// Returns [`InterpError`] for missing inputs or blocked tensors.
pub fn interpret(
    program: &Program,
    inputs: &HashMap<String, SparseTensor>,
) -> Result<HashMap<String, Structured>, InterpError> {
    let mut env: HashMap<TensorId, Structured> = HashMap::new();
    for (id, decl) in program.inputs() {
        if decl.block != [1, 1] {
            return Err(InterpError::Blocked(decl.name.clone()));
        }
        let t =
            inputs.get(&decl.name).ok_or_else(|| InterpError::MissingInput(decl.name.clone()))?;
        env.insert(id, Structured::from_sparse(t));
    }

    for e in program.exprs() {
        let out_decl = program.tensor(e.output.tensor);
        if out_decl.block != [1, 1] {
            return Err(InterpError::Blocked(out_decl.name.clone()));
        }
        // Collect the iteration space: every index of the expression.
        let all_ix = e.index_set();
        let dims: Vec<usize> = all_ix.iter().map(|ix| program.index_size(*ix)).collect();
        let mut out_vals = DenseTensor::zeros(out_decl.shape.clone());
        let mut out_mask = DenseTensor::zeros(out_decl.shape.clone());
        let slot = |ix: &IndexVar| all_ix.iter().position(|x| x == ix).expect("index in set");
        let out_view = AccessView::new(&e.output, out_mask.shape(), &slot);

        let ins: Vec<Operand> = e
            .inputs
            .iter()
            .map(|acc| {
                let s = &env[&acc.tensor];
                let fmt = &program.tensor(acc.tensor).format;
                Operand::new(acc, s, fmt, &slot)
            })
            .collect();
        // Union-like ops: for each output index, the (input, level) pairs
        // whose marginal support can cover it (the input's first level
        // bound to that index).
        let union_like = !(e.op.intersects() || e.op.arity() == Some(1));
        let owners: Vec<Vec<(usize, usize)>> = e
            .output
            .indices
            .iter()
            .map(|d| {
                e.inputs
                    .iter()
                    .enumerate()
                    .filter_map(|(n, acc)| acc.indices.iter().position(|x| x == d).map(|l| (n, l)))
                    .collect()
            })
            .collect();

        let mut point = vec![0usize; dims.len()];
        let mut offs: Vec<Vec<usize>> = ins.iter().map(|o| vec![0; o.view.slots.len()]).collect();
        let mut vals = Vec::with_capacity(ins.len());
        'space: loop {
            // Prefix offsets and values per input.
            vals.clear();
            for (o, off) in ins.iter().zip(offs.iter_mut()) {
                o.view.prefix_offsets(&point, off);
                vals.push(o.vals[off.last().copied().unwrap_or(0)]);
            }
            let here = if !union_like {
                // Closed element presence: all compressed coordinates must
                // be stored; dense levels are materialized.
                ins.iter().zip(&offs).all(|(o, off)| o.present(off))
            } else {
                // A point exists iff every output index is covered by some
                // owning input's (format-closed) marginal support:
                // broadcast inputs do not extend structure along
                // dimensions they lack.
                owners.iter().all(|own| own.iter().any(|&(n, l)| ins[n].supported(l, &offs[n])))
            };
            if here {
                let v = match e.op {
                    OpKind::Mul | OpKind::MulElem => vals.iter().product::<f32>(),
                    OpKind::Add => vals.iter().sum(),
                    OpKind::Sub => vals[0] - vals[1],
                    OpKind::Div | OpKind::ColDiv => {
                        if vals[0] == 0.0 {
                            0.0
                        } else {
                            vals[0] / vals[1]
                        }
                    }
                    OpKind::ColSub => vals[0] - vals[1],
                    OpKind::Max => vals[0].max(vals[1]),
                    OpKind::Unary(op) => op.apply_scalar(vals[0], 0.0),
                    OpKind::Id => vals[0],
                };
                let at = out_view.flat(&point);
                let mask = &mut out_mask.data_mut()[at];
                let cur = &mut out_vals.data_mut()[at];
                if *mask == 0.0 {
                    *mask = 1.0;
                    *cur = v;
                } else {
                    *cur = if e.reduce.is_empty() {
                        // Multiple contributions without a reduction cannot
                        // happen for well-formed expressions; sum keeps the
                        // semantics of duplicate coordinates.
                        *cur + v
                    } else {
                        match e.reduce_op {
                            ReduceOp::Sum => *cur + v,
                            ReduceOp::Max => cur.max(v),
                        }
                    };
                }
            }
            // Advance the iteration point.
            for d in (0..dims.len()).rev() {
                point[d] += 1;
                if point[d] < dims[d] {
                    continue 'space;
                }
                point[d] = 0;
            }
            break;
        }
        env.insert(e.output.tensor, Structured { vals: out_vals, mask: out_mask });
    }

    Ok(env.into_iter().map(|(id, s)| (program.tensor(id).name.clone(), s)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::OpKind;
    use fuseflow_sam::AluOp;
    use fuseflow_tensor::{gen, reference, Format};

    fn bind(pairs: Vec<(&str, SparseTensor)>) -> HashMap<String, SparseTensor> {
        pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn matmul_matches_dense_reference() {
        let mut p = Program::new();
        let (i, k, j) = (p.index("i"), p.index("k"), p.index("j"));
        let a = p.input("A", vec![6, 5], Format::csr());
        let x = p.input("X", vec![5, 4], Format::dense(2));
        let t = p.contract(
            "T",
            vec![i, j],
            vec![(a, vec![i, k]), (x, vec![k, j])],
            vec![k],
            Format::csr(),
        );
        p.mark_output(t);

        let at = gen::sparse_features(6, 5, 0.4, 1, &Format::csr());
        let xt = SparseTensor::from_dense(&gen::dense_features(5, 4, 2), &Format::dense(2));
        let expect = reference::matmul(&at.to_dense(), &xt.to_dense());
        let out = interpret(&p, &bind(vec![("A", at), ("X", xt)])).unwrap();
        assert!(out["T"].vals.approx_eq(&expect));
    }

    #[test]
    fn unary_applies_only_to_structure() {
        // exp over a sparse matrix: absent coordinates stay absent/zero
        // (the sparse-softmax semantics).
        let mut p = Program::new();
        let (i, j) = (p.index("i"), p.index("j"));
        let a = p.input("A", vec![2, 2], Format::dcsr());
        let e = p.map("E", AluOp::Exp, (a, vec![i, j]), Format::dcsr());
        p.mark_output(e);

        let at =
            SparseTensor::from_coo(vec![2, 2], vec![(vec![0, 0], 2.0)], &Format::dcsr()).unwrap();
        let out = interpret(&p, &bind(vec![("A", at)])).unwrap();
        assert!((out["E"].vals.get(&[0, 0]) - 2.0f32.exp()).abs() < 1e-5);
        assert_eq!(out["E"].vals.get(&[1, 1]), 0.0, "absent coordinate must stay zero");
        assert_eq!(out["E"].mask.get(&[1, 1]), 0.0);
    }

    #[test]
    fn union_add_presence() {
        let mut p = Program::new();
        let (i, j) = (p.index("i"), p.index("j"));
        let a = p.input("A", vec![2, 2], Format::dcsr());
        let b = p.input("B", vec![2, 2], Format::dcsr());
        let c = p.binary(
            "C",
            OpKind::Add,
            (a, vec![i, j]),
            (b, vec![i, j]),
            vec![i, j],
            Format::dcsr(),
        );
        p.mark_output(c);

        let at =
            SparseTensor::from_coo(vec![2, 2], vec![(vec![0, 0], 1.0)], &Format::dcsr()).unwrap();
        let bt =
            SparseTensor::from_coo(vec![2, 2], vec![(vec![1, 1], 2.0)], &Format::dcsr()).unwrap();
        let out = interpret(&p, &bind(vec![("A", at), ("B", bt)])).unwrap();
        assert_eq!(out["C"].vals.get(&[0, 0]), 1.0);
        assert_eq!(out["C"].vals.get(&[1, 1]), 2.0);
        assert_eq!(out["C"].mask.get(&[0, 1]), 0.0);
    }

    #[test]
    fn max_reduce_over_structure_only() {
        // Row max of a sparse matrix with negative values: stored values
        // only (no spurious zeros).
        let mut p = Program::new();
        let (i, j) = (p.index("i"), p.index("j"));
        let a = p.input("A", vec![2, 3], Format::dcsr());
        let m = p.reduce("M", (a, vec![i, j]), vec![j], ReduceOp::Max, Format::sparse_vec());
        p.mark_output(m);

        let at = SparseTensor::from_coo(
            vec![2, 3],
            vec![(vec![0, 0], -5.0), (vec![0, 2], -1.0)],
            &Format::dcsr(),
        )
        .unwrap();
        let out = interpret(&p, &bind(vec![("A", at)])).unwrap();
        assert_eq!(out["M"].vals.get(&[0]), -1.0);
        assert_eq!(out["M"].mask.get(&[1]), 0.0, "empty row has no structure");
    }

    #[test]
    fn broadcast_bias() {
        let mut p = Program::new();
        let (i, j) = (p.index("i"), p.index("j"));
        let t = p.input("T", vec![2, 2], Format::dense(2));
        let b = p.input("b", vec![2], Format::dense_vec());
        let o =
            p.binary("O", OpKind::Add, (t, vec![i, j]), (b, vec![j]), vec![i, j], Format::dense(2));
        p.mark_output(o);

        let tt = SparseTensor::from_dense(
            &DenseTensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]),
            &Format::dense(2),
        );
        let bt = SparseTensor::from_dense(
            &DenseTensor::from_vec(vec![2], vec![10., 20.]),
            &Format::dense_vec(),
        );
        let out = interpret(&p, &bind(vec![("T", tt), ("b", bt)])).unwrap();
        assert_eq!(out["O"].vals.data(), &[11., 22., 13., 24.]);
    }

    /// `O[i,j] = A[i,j] + b[j]` with A's row 1 empty. Under CSR the dense
    /// row level materializes row 1 as a fiber, so the bias fills it; under
    /// DCSR row 1 is not stored and stays absent.
    #[test]
    fn union_add_bias_over_empty_csr_row() {
        let run = |fmt: Format| {
            let mut p = Program::new();
            let (i, j) = (p.index("i"), p.index("j"));
            let a = p.input("A", vec![3, 3], fmt.clone());
            let b = p.input("b", vec![3], Format::dense_vec());
            let o = p.binary("O", OpKind::Add, (a, vec![i, j]), (b, vec![j]), vec![i, j], fmt);
            p.mark_output(o);
            let dense = DenseTensor::from_vec(vec![3, 3], vec![1., 0., 2., 0., 0., 0., 0., 3., 0.]);
            let at = SparseTensor::from_dense(&dense, &p.tensor(a).format);
            let bt = SparseTensor::from_dense(
                &DenseTensor::from_vec(vec![3], vec![10., 20., 30.]),
                &Format::dense_vec(),
            );
            interpret(&p, &bind(vec![("A", at), ("b", bt)])).unwrap().remove("O").unwrap()
        };
        let csr = run(Format::csr());
        assert_eq!(csr.vals.data(), &[11., 20., 32., 10., 20., 30., 10., 23., 30.]);
        assert_eq!(csr.mask.data(), &[1.; 9]);
        let dcsr = run(Format::dcsr());
        assert_eq!(dcsr.vals.data(), &[11., 20., 32., 0., 0., 0., 10., 23., 30.]);
        assert_eq!(dcsr.mask.data(), &[1., 1., 1., 0., 0., 0., 1., 1., 1.]);
    }

    /// `D[i,j] = A[i,j] * B[i,j] * C[i,j]` over DCSR: present only where all
    /// three are stored, multiplied left to right.
    #[test]
    fn three_way_intersect_keeps_product_order() {
        let (x, y, z) = (0.1f32, 0.2f32, 1.3f32);
        assert_ne!(x * y * z, x * (y * z), "values must expose the association order");
        let mut p = Program::new();
        let (i, j) = (p.index("i"), p.index("j"));
        let ids: Vec<_> =
            ["A", "B", "C"].iter().map(|n| p.input(*n, vec![2, 3], Format::dcsr())).collect();
        let d = p.contract(
            "D",
            vec![i, j],
            ids.iter().map(|&t| (t, vec![i, j])).collect(),
            vec![],
            Format::dcsr(),
        );
        p.mark_output(d);
        let coo = |e: Vec<(Vec<u32>, f32)>| SparseTensor::from_coo(vec![2, 3], e, &Format::dcsr());
        let at = coo(vec![(vec![0, 1], x), (vec![1, 0], 5.), (vec![1, 2], 2.)]).unwrap();
        let bt = coo(vec![(vec![0, 0], 7.), (vec![0, 1], y), (vec![1, 2], 3.)]).unwrap();
        let ct = coo(vec![(vec![0, 1], z), (vec![1, 1], 4.), (vec![1, 2], -1.)]).unwrap();
        let out = interpret(&p, &bind(vec![("A", at), ("B", bt), ("C", ct)])).unwrap();
        assert_eq!(out["D"].vals.data(), &[0., x * y * z, 0., 0., 0., -6.]);
        assert_eq!(out["D"].mask.data(), &[0., 1., 0., 0., 0., 1.]);
    }

    /// `M[i] = max_{j,k} A[i,j] * B[j,k]` over negative products: absent
    /// points contribute nothing (no spurious zero), and an empty row stays
    /// absent.
    #[test]
    fn three_index_contraction_max_reduce_over_negatives() {
        let mut p = Program::new();
        let (i, j, k) = (p.index("i"), p.index("j"), p.index("k"));
        let a = p.input("A", vec![3, 2], Format::dcsr());
        let b = p.input("B", vec![2, 2], Format::dcsr());
        let m = p.expr(
            "M",
            vec![i],
            vec![(a, vec![i, j]), (b, vec![j, k])],
            OpKind::Mul,
            vec![j, k],
            ReduceOp::Max,
            Format::sparse_vec(),
        );
        p.mark_output(m);
        let at = SparseTensor::from_coo(
            vec![3, 2],
            vec![(vec![0, 0], -1.), (vec![0, 1], -2.), (vec![1, 1], -3.)],
            &Format::dcsr(),
        )
        .unwrap();
        let bt = SparseTensor::from_coo(
            vec![2, 2],
            vec![(vec![0, 0], 4.), (vec![0, 1], 0.5), (vec![1, 1], 5.)],
            &Format::dcsr(),
        )
        .unwrap();
        let out = interpret(&p, &bind(vec![("A", at), ("B", bt)])).unwrap();
        // Row 0: max(-4, -0.5, -10); row 1: -15 alone; row 2 is empty.
        assert_eq!(out["M"].vals.data(), &[-0.5, -15., 0.]);
        assert_eq!(out["M"].mask.data(), &[1., 1., 0.]);
    }

    #[test]
    fn missing_input_reported() {
        let mut p = Program::new();
        let (i, j) = (p.index("i"), p.index("j"));
        let a = p.input("A", vec![2, 2], Format::csr());
        let _ = p.map("R", AluOp::Relu, (a, vec![i, j]), Format::csr());
        let err = interpret(&p, &HashMap::new()).unwrap_err();
        assert_eq!(err, InterpError::MissingInput("A".into()));
    }
}
