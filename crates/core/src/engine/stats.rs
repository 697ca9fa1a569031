//! Serving counters: what a worker accepted, classified, shed and how
//! long verdicts took.
//!
//! Counters live in lock-free atomics updated on the submit and resolve
//! paths ([`StatCells`]); [`StatCells::snapshot`] reads them into the
//! plain [`EngineStats`] struct that `mlr serve-stats` prints. The
//! invariant the saturation harness checks is **conservation**: every
//! accepted submission is eventually completed or failed —
//! [`EngineStats::outstanding`] returns to zero once an engine drains —
//! and every rejected one is counted against a typed shed reason, so an
//! overloaded fleet loses nothing silently.

use std::sync::atomic::{AtomicU64, Ordering};

use super::Qos;

/// Lock-free counter cells, one set per engine worker.
#[derive(Debug, Default)]
pub(super) struct StatCells {
    submitted: [AtomicU64; Qos::CLASSES],
    shed: [AtomicU64; Qos::CLASSES],
    rejected_closed: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    flushes: AtomicU64,
    max_depth: AtomicU64,
    latency_ns_sum: AtomicU64,
    latency_ns_max: AtomicU64,
}

impl StatCells {
    /// Counts `n` accepted submissions in one atomic add — submission
    /// pays two atomics per *window* (a lone shot is a window of one),
    /// not two per shot.
    pub(super) fn record_submit_n(&self, qos: Qos, n: usize, depth: usize) {
        self.submitted[qos as usize].fetch_add(n as u64, Ordering::Relaxed);
        self.max_depth.fetch_max(depth as u64, Ordering::Relaxed);
    }

    pub(super) fn record_shed_n(&self, qos: Qos, n: usize) {
        self.shed[qos as usize].fetch_add(n as u64, Ordering::Relaxed);
    }

    pub(super) fn record_rejected_closed_n(&self, n: usize) {
        self.rejected_closed.fetch_add(n as u64, Ordering::Relaxed);
    }

    pub(super) fn record_flush(&self) {
        self.flushes.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a whole flush's completions in one set of atomic adds —
    /// the resolve path pays three atomics per *flush*, not three per
    /// shot. Callers pre-aggregate the latency sum and max.
    pub(super) fn record_completed_batch(&self, n: u64, latency_ns_sum: u64, latency_ns_max: u64) {
        self.completed.fetch_add(n, Ordering::Relaxed);
        self.latency_ns_sum
            .fetch_add(latency_ns_sum, Ordering::Relaxed);
        self.latency_ns_max
            .fetch_max(latency_ns_max, Ordering::Relaxed);
    }

    pub(super) fn record_failed(&self, count: usize) {
        self.failed.fetch_add(count as u64, Ordering::Relaxed);
    }

    pub(super) fn snapshot(&self) -> EngineStats {
        let completed = self.completed.load(Ordering::Relaxed);
        let sum_ns = self.latency_ns_sum.load(Ordering::Relaxed);
        EngineStats {
            submitted: self.submitted.each_ref().map(|c| c.load(Ordering::Relaxed)),
            shed: self.shed.each_ref().map(|c| c.load(Ordering::Relaxed)),
            rejected_closed: self.rejected_closed.load(Ordering::Relaxed),
            completed,
            failed: self.failed.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            max_depth: self.max_depth.load(Ordering::Relaxed),
            mean_latency_us: if completed == 0 {
                0.0
            } else {
                sum_ns as f64 / completed as f64 / 1e3
            },
            max_latency_us: self.latency_ns_max.load(Ordering::Relaxed) as f64 / 1e3,
        }
    }
}

/// A point-in-time snapshot of one worker's serving counters
/// ([`crate::ReadoutEngine::stats`]), or a fleet-wide sum
/// ([`crate::FleetEngine::aggregate_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EngineStats {
    /// Accepted submissions per QoS class ([`Qos`] discriminant order:
    /// realtime, standard, bulk).
    pub submitted: [u64; Qos::CLASSES],
    /// Admission-control rejections per QoS class (watermark or full
    /// queue; see [`crate::Rejected`]).
    pub shed: [u64; Qos::CLASSES],
    /// Submissions rejected because the worker had already shut down or
    /// failed.
    pub rejected_closed: u64,
    /// Tickets resolved with a verdict.
    pub completed: u64,
    /// Tickets failed by a worker fault (model panic or wrong-shape
    /// output) — resolved loudly, never lost.
    pub failed: u64,
    /// Micro-batches classified.
    pub flushes: u64,
    /// Deepest queue observed at submission time.
    pub max_depth: u64,
    /// Mean submit→verdict latency over completed tickets, microseconds
    /// (on the engine's [`super::Clock`]).
    pub mean_latency_us: f64,
    /// Worst submit→verdict latency, microseconds.
    pub max_latency_us: f64,
}

impl EngineStats {
    /// Accepted submissions across all QoS classes.
    pub fn total_submitted(&self) -> u64 {
        self.submitted.iter().sum()
    }

    /// Shed submissions across all QoS classes (excluding
    /// [`EngineStats::rejected_closed`]).
    pub fn total_shed(&self) -> u64 {
        self.shed.iter().sum()
    }

    /// Accepted submissions not yet resolved: the conservation check.
    /// Zero once an engine has drained — anything else means tickets
    /// were lost.
    pub fn outstanding(&self) -> u64 {
        self.total_submitted()
            .saturating_sub(self.completed + self.failed)
    }

    /// Mean classified shots per flush.
    pub fn mean_batch(&self) -> f64 {
        if self.flushes == 0 {
            0.0
        } else {
            self.completed as f64 / self.flushes as f64
        }
    }

    /// Element-wise sum, for fleet-wide aggregation. Latency fields
    /// combine as a completed-weighted mean and a max.
    pub fn merge(&self, other: &EngineStats) -> EngineStats {
        let completed = self.completed + other.completed;
        let mean_latency_us = if completed == 0 {
            0.0
        } else {
            (self.mean_latency_us * self.completed as f64
                + other.mean_latency_us * other.completed as f64)
                / completed as f64
        };
        EngineStats {
            submitted: [
                self.submitted[0] + other.submitted[0],
                self.submitted[1] + other.submitted[1],
                self.submitted[2] + other.submitted[2],
            ],
            shed: [
                self.shed[0] + other.shed[0],
                self.shed[1] + other.shed[1],
                self.shed[2] + other.shed[2],
            ],
            rejected_closed: self.rejected_closed + other.rejected_closed,
            completed,
            failed: self.failed + other.failed,
            flushes: self.flushes + other.flushes,
            max_depth: self.max_depth.max(other.max_depth),
            mean_latency_us,
            max_latency_us: self.max_latency_us.max(other.max_latency_us),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reports_conservation_and_latency() {
        let cells = StatCells::default();
        cells.record_submit_n(Qos::Realtime, 1, 1);
        cells.record_submit_n(Qos::Standard, 1, 2);
        cells.record_submit_n(Qos::Bulk, 1, 3);
        cells.record_shed_n(Qos::Bulk, 1);
        cells.record_flush();
        cells.record_completed_batch(2, 40_000, 30_000);
        cells.record_failed(1);

        let s = cells.snapshot();
        assert_eq!(s.total_submitted(), 3);
        assert_eq!(s.total_shed(), 1);
        assert_eq!(s.completed, 2);
        assert_eq!(s.failed, 1);
        assert_eq!(s.outstanding(), 0);
        assert_eq!(s.max_depth, 3);
        assert!((s.mean_latency_us - 20.0).abs() < 1e-9);
        assert!((s.max_latency_us - 30.0).abs() < 1e-9);
        assert!((s.mean_batch() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn merge_sums_counts_and_weights_latency() {
        let a = EngineStats {
            submitted: [1, 2, 3],
            completed: 2,
            mean_latency_us: 10.0,
            max_latency_us: 12.0,
            flushes: 1,
            ..EngineStats::default()
        };
        let b = EngineStats {
            submitted: [0, 1, 0],
            completed: 6,
            mean_latency_us: 30.0,
            max_latency_us: 50.0,
            flushes: 2,
            max_depth: 9,
            ..EngineStats::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.total_submitted(), 7);
        assert_eq!(m.completed, 8);
        assert_eq!(m.flushes, 3);
        assert_eq!(m.max_depth, 9);
        assert!((m.mean_latency_us - 25.0).abs() < 1e-9);
        assert!((m.max_latency_us - 50.0).abs() < 1e-9);
    }
}
