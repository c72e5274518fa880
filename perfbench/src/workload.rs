//! The workloads: which model instances and schedules each runs.
//! `README.md` in this directory says why each was chosen.

use fuseflow_core::ir::IndexVar;
use fuseflow_core::schedule::Schedule;
use fuseflow_models::{
    gcn, gpt_decoder, graphsage, sae, Fusion, GraphDataset, ModelInstance, GRAPH_DATASETS,
    SAE_DATASETS,
};
use std::collections::BTreeSet;
use std::ops::Range;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Paper Fig 12: the zoo at the three fusion granularities.
    Fig12Zoo,
    /// Unfused and partial schedules, serial and stream-parallelized, on
    /// larger instances: many short region graphs per point. Run by hand
    /// only; `BENCHMARK.json` does not list it (see `README.md`).
    SplitSweep,
    /// A seeded sample of each program's schedule space, compiled and
    /// scored by the analytic heuristic, never simulated.
    SchedulePrune,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Fig12Zoo, Kind::SplitSweep, Kind::SchedulePrune];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig12Zoo => "fig12_zoo",
            Kind::SplitSweep => "split_sweep",
            Kind::SchedulePrune => "schedule_prune",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Whether a point is compiled, simulated and checked (`true`) or
    /// compiled and scored by `estimate` (`false`).
    pub fn simulates(self) -> bool {
        self != Kind::SchedulePrune
    }
}

/// The model whose unfused-over-full cycle ratio is `bigbird_speedup`.
pub const BIGBIRD: &str = "gpt3-bigbird-b16";

/// One (model instance, schedule) pair.
pub struct Point {
    pub model: usize,
    pub label: String,
    pub schedule: Schedule,
}

pub struct Workload {
    pub kind: Kind,
    pub models: Vec<ModelInstance>,
    pub points: Vec<Point>,
}

/// SplitMix64: a small, fixed generator, so a seed means the same inputs
/// on every platform and in every later version of the benchmark.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Distinct region partitions sampled per program and per iteration
/// variant in `schedule_prune`.
const PRUNE_PARTITIONS: usize = 100;

/// Builds a workload's models (inputs drawn from `seed`) and points.
pub fn build(kind: Kind, seed: u64) -> Workload {
    let mut rng = Rng::new(seed);
    let mut next_seed = || rng.next_u64() % 1_000_000_007;
    let cora = GRAPH_DATASETS[0];
    let graph =
        |div: usize| GraphDataset { nodes: cora.nodes / div, feats: cora.feats / div, ..cora };
    let (sae_name, sae_in, sae_batch) = SAE_DATASETS[0];
    let named = |name: &str, mut m: ModelInstance| {
        m.name = name.to_string();
        m
    };
    // The models draw their seeds in a fixed order, so adding a model at
    // the end leaves the earlier models' inputs unchanged.
    let models = match kind {
        Kind::Fig12Zoo | Kind::SchedulePrune => vec![
            named("sae", sae(sae_name, sae_in / 16, 48, sae_batch, 0.5, next_seed())),
            named("gcn", gcn(&graph(4), 16, 8, next_seed())),
            named("graphsage", graphsage(&graph(4), 16, 8, next_seed())),
            named(BIGBIRD, gpt_decoder(64, 16, 16, next_seed())),
        ],
        Kind::SplitSweep => vec![
            named("sae", sae(sae_name, sae_in / 8, 48, sae_batch, 0.5, next_seed())),
            named("gcn", gcn(&graph(3), 16, 8, next_seed())),
            named("graphsage", graphsage(&graph(3), 16, 8, next_seed())),
            named(BIGBIRD, gpt_decoder(32, 16, 16, next_seed())),
        ],
    };
    let mut points = Vec::new();
    for (mi, m) in models.iter().enumerate() {
        let mut add = |label: String, schedule: Schedule| {
            points.push(Point { model: mi, label: format!("{}/{label}", m.name), schedule })
        };
        match kind {
            Kind::Fig12Zoo => {
                for f in Fusion::ALL {
                    add(f.to_string(), m.schedule(f));
                }
            }
            Kind::SplitSweep => {
                let i0 = first_output_index(m);
                for f in [Fusion::Unfused, Fusion::Partial] {
                    for factor in [1, 2, 4] {
                        add(
                            format!("{f}/i0x{factor}"),
                            m.schedule(f).with_parallelization(i0, factor),
                        );
                    }
                }
            }
            Kind::SchedulePrune => {
                for (label, schedule) in sample_schedules(m, &mut rng_for(seed, mi)) {
                    add(label, schedule);
                }
            }
        }
    }
    Workload { kind, models, points }
}

fn rng_for(seed: u64, model: usize) -> Rng {
    Rng::new(seed ^ (0xA5A5_0000 + model as u64).wrapping_mul(0x2545_F491_4F6C_DD1D))
}

fn first_output_index(m: &ModelInstance) -> IndexVar {
    m.program.exprs()[0].output.indices[0]
}

/// Samples the program's schedule space: contiguous region partitions x
/// {factored, global iteration} x {serial, first output index
/// parallelized by 2}. Each of the four iteration variants gets its own
/// [`PRUNE_PARTITIONS`] distinct partitions (all of them when the program
/// has fewer), so the variant mix, and with it the share of schedules the
/// compiler rejects, does not depend on the seed.
fn sample_schedules(m: &ModelInstance, rng: &mut Rng) -> Vec<(String, Schedule)> {
    let n = m.program.exprs().len();
    assert!(n < 64, "partition key must fit in a u64");
    let partitions = 1u64 << n.saturating_sub(1);
    let want = PRUNE_PARTITIONS.min(partitions as usize);
    let i0 = first_output_index(m);
    let mut out = Vec::new();
    for (global, par) in [(false, false), (false, true), (true, false), (true, true)] {
        let mut seen = BTreeSet::new();
        while seen.len() < want {
            let cuts = rng.next_u64() % partitions;
            if !seen.insert(cuts) {
                continue;
            }
            let regions = regions_from_cuts(n, cuts);
            let mut label = format!("{regions:?}");
            let mut s = Schedule::regions(regions);
            if global {
                s = s.with_global_iteration();
                label.push_str("/global");
            }
            if par {
                s = s.with_parallelization(i0, 2);
                label.push_str("/i0x2");
            }
            out.push((label, s));
        }
    }
    out
}

/// The contiguous partition of `0..n` that cuts after expression `i`
/// wherever bit `i` of `cuts` is set.
fn regions_from_cuts(n: usize, cuts: u64) -> Vec<Range<usize>> {
    let mut regions = Vec::new();
    let mut start = 0;
    for i in 0..n {
        if i + 1 == n || cuts & (1 << i) != 0 {
            regions.push(start..i + 1);
            start = i + 1;
        }
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cuts_give_contiguous_partitions() {
        assert_eq!(regions_from_cuts(4, 0), vec![0..4]);
        assert_eq!(regions_from_cuts(4, 0b111), vec![0..1, 1..2, 2..3, 3..4]);
        assert_eq!(regions_from_cuts(4, 0b010), vec![0..2, 2..4]);
        assert_eq!(regions_from_cuts(1, 0), vec![0..1]);
    }

    #[test]
    fn rng_is_fixed() {
        let mut r = Rng::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
    }
}
