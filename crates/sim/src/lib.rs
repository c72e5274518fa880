//! Comal-style cycle-level simulator for SAMML dataflow graphs.
//!
//! This crate executes the streaming dataflow graphs produced by the
//! FuseFlow compiler: each SAMML primitive runs as a state machine over
//! bounded token channels (a deterministic realization of the DAM
//! process-network model the paper's Comal simulator builds on), with a
//! ramulator-lite DRAM model supplying bandwidth/latency costs and full
//! instrumentation (cycles, FLOPs, bytes).
//!
//! Graphs are partitioned into weakly-connected *shards* which can run on a
//! scoped worker pool ([`SimConfig::threads`]) with results bit-identical
//! to the sequential schedule; the same [`parallel_map`] pool drives the
//! sweep harnesses in `fuseflow-bench`. Two shard execution loops exist
//! ([`Scheduler`]): the event-driven engine (the default) and the dense
//! per-cycle sweep it is differentially tested against; both produce
//! identical outputs and semantic [`Stats`]. See `crates/sim/src/engine.rs`
//! for the determinism arguments.
//!
//! Two timing backends implement the paper's §8.2 validation methodology:
//! [`TimingConfig::comal`] (HBM-class, fully pipelined) and
//! [`TimingConfig::fpga_rtl`] (BRAM-resident, deeper IIs).
//!
//! # Example
//!
//! Simulating a compiled graph (see `fuseflow-core` for the compiler):
//!
//! ```no_run
//! use fuseflow_sim::{simulate, SimConfig, TensorEnv};
//! # let graph = fuseflow_sam::SamGraph::new();
//! let env = TensorEnv::new();
//! let result = simulate(&graph, &env, &SimConfig::default())?;
//! println!("{}", result.stats);
//! # Ok::<(), fuseflow_sim::SimError>(())
//! ```

mod backend;
mod dram;
mod engine;
mod pool;
mod rebuild;
mod sched;
mod stats;

pub use backend::TimingConfig;
pub use dram::{AccessKind, Dram};
pub use engine::{
    run_node_standalone, simulate, Scheduler, SimConfig, SimError, SimResult, TensorEnv,
};
pub use pool::parallel_map;
pub use rebuild::{assemble_output, streams_to_entries};
pub use stats::{SchedCounters, Stats};
