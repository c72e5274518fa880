//! Simulation instrumentation.

use std::collections::HashMap;

/// Scheduler-implementation counters: how much work the shard execution
/// loop itself did. These describe the *simulator*, not the simulated
/// hardware — two scheduler backends that agree on every semantic counter
/// will legitimately differ here (the event engine exists to make `events`
/// small). Compare runs across backends with [`Stats::semantic`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedCounters {
    /// Node steps executed (the sweep pays `nodes x visited cycles`).
    pub events: u64,
    /// Simulated cycles never visited because nothing was runnable
    /// (idle-gap fast-forwards).
    pub cycles_skipped: u64,
    /// Most node steps serviced in any single simulated cycle, maxed over
    /// shards (the high-water mark of the ready set).
    pub peak_ready: u64,
}

impl SchedCounters {
    /// Folds another shard's (or run's) counters into this one.
    pub fn merge(&mut self, other: &SchedCounters) {
        self.events += other.events;
        self.cycles_skipped += other.cycles_skipped;
        self.peak_ready = self.peak_ready.max(other.peak_ready);
    }
}

/// Counters collected while simulating one SAMML graph (the paper's
/// "instrumentation to estimate operations and memory accesses", §8.1),
/// feeding Figures 12-18 and Tables 3-4.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Bytes read from DRAM.
    pub dram_read_bytes: u64,
    /// Bytes written to DRAM.
    pub dram_write_bytes: u64,
    /// Floating-point operations performed by ALUs and reducers.
    pub flops: u64,
    /// Data tokens processed, per node label.
    pub node_tokens: HashMap<String, u64>,
    /// Scheduler-implementation counters (not semantic; see
    /// [`SchedCounters`]).
    pub sched: SchedCounters,
}

impl Stats {
    /// The semantic counters only, with the scheduler-implementation
    /// counters cleared. Two runs of the same graph must produce equal
    /// `semantic()` stats regardless of scheduler backend or thread count.
    pub fn semantic(&self) -> Stats {
        Stats { sched: SchedCounters::default(), ..self.clone() }
    }

    /// Total DRAM traffic in bytes.
    pub fn dram_bytes(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes
    }

    /// Operational intensity in FLOPs per DRAM byte (Fig 14's dashed
    /// lines); `f64::INFINITY` when no DRAM traffic occurred.
    pub fn operational_intensity(&self) -> f64 {
        let bytes = self.dram_bytes();
        if bytes == 0 {
            f64::INFINITY
        } else {
            self.flops as f64 / bytes as f64
        }
    }

    /// Accumulates another run's counters (sequential multi-kernel
    /// execution of unfused configurations).
    pub fn accumulate(&mut self, other: &Stats) {
        self.cycles += other.cycles;
        self.dram_read_bytes += other.dram_read_bytes;
        self.dram_write_bytes += other.dram_write_bytes;
        self.flops += other.flops;
        for (k, v) in &other.node_tokens {
            *self.node_tokens.entry(k.clone()).or_insert(0) += v;
        }
        self.sched.merge(&other.sched);
    }
}

impl std::fmt::Display for Stats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cycles={} flops={} dram_rd={}B dram_wr={}B oi={:.3} sched_events={} \
             sched_skipped={}",
            self.cycles,
            self.flops,
            self.dram_read_bytes,
            self.dram_write_bytes,
            self.operational_intensity(),
            self.sched.events,
            self.sched.cycles_skipped
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_sums() {
        let mut a = Stats {
            cycles: 10,
            dram_read_bytes: 100,
            dram_write_bytes: 50,
            flops: 7,
            ..Default::default()
        };
        a.node_tokens.insert("x".into(), 3);
        let mut b = Stats {
            cycles: 5,
            dram_read_bytes: 1,
            dram_write_bytes: 2,
            flops: 3,
            ..Default::default()
        };
        b.node_tokens.insert("x".into(), 4);
        b.node_tokens.insert("y".into(), 1);
        a.accumulate(&b);
        assert_eq!(a.cycles, 15);
        assert_eq!(a.dram_bytes(), 153);
        assert_eq!(a.flops, 10);
        assert_eq!(a.node_tokens["x"], 7);
        assert_eq!(a.node_tokens["y"], 1);
    }

    #[test]
    fn semantic_strips_scheduler_counters() {
        let mut a = Stats { cycles: 3, ..Default::default() };
        a.sched = SchedCounters { events: 9, cycles_skipped: 2, peak_ready: 4 };
        let mut b = a.clone();
        b.sched = SchedCounters { events: 1, cycles_skipped: 0, peak_ready: 7 };
        assert_ne!(a, b);
        assert_eq!(a.semantic(), b.semantic());
        a.accumulate(&b);
        assert_eq!(a.sched.events, 10);
        assert_eq!(a.sched.cycles_skipped, 2);
        assert_eq!(a.sched.peak_ready, 7);
    }

    #[test]
    fn operational_intensity() {
        let s =
            Stats { flops: 100, dram_read_bytes: 40, dram_write_bytes: 10, ..Default::default() };
        assert!((s.operational_intensity() - 2.0).abs() < 1e-12);
        let none = Stats::default();
        assert!(none.operational_intensity().is_infinite());
    }
}
