//! Per-lock acquisition statistics.
//!
//! [`LockStats`] counts which route each acquisition of a
//! [`crate::ReorderableLock`] took through the dispatch layer. Tests
//! use these *path* counters to verify that reordering actually
//! happens; the harness reports them alongside throughput so figure
//! shapes can be explained ("little cores mostly waited out their
//! windows at this contention level").
//!
//! Snapshots speak the zoo-wide [`TelemetrySnapshot`] format too, so
//! the harness's per-lock stats tables and the ASL-specific reports
//! share one format. Contention and sampled hold/wait time are
//! recorded in a private [`asl_locks::telemetry::TelemetryCell`];
//! the acquisition count is *derived* from the path counters at
//! snapshot time rather than recorded twice. Each acquisition
//! therefore writes one shared statistics line (its path counter),
//! plus the cell's `contended` counter only when the lock was held
//! on entry.

use std::sync::atomic::{AtomicU64, Ordering};

use asl_locks::telemetry::{TelemetryCell, TelemetrySnapshot};

/// Live counters (one per [`crate::ReorderableLock`]): the ASL
/// acquisition-path split, plus contention and sampled timing.
///
/// Atomic-ordering audit: like [`TelemetryCell`], every counter here
/// is a pure statistic — incremented on the acquire path, read only
/// by [`LockStats::snapshot`] for reporting/tests, never consulted by
/// lock-protocol control flow. `Relaxed` suffices throughout: each
/// counter's own modification order keeps its count exact, and tests
/// that compare counters across threads first join those threads
/// (which supplies the cross-counter happens-before). The snapshot's
/// `telemetry.acquisitions` is the sum of the four path counters, so
/// it is exact for a quiescent lock by the same argument. The cell
/// only ever sees `record_contended`, never `record_acquisition`, so
/// an ASL cell keeps no contended streak (nothing reads one for it).
#[derive(Debug, Default)]
pub struct LockStats {
    /// Contended acquisitions and sampled hold/wait time. Its own
    /// acquisition counter stays zero: [`LockStats::snapshot`]
    /// derives that figure from the path counters. Written by
    /// [`crate::ReorderableLock`]; readers use [`LockStats::snapshot`].
    pub(crate) telemetry: TelemetryCell,
    /// `lock_immediately` acquisitions (big-core path).
    pub immediate: AtomicU64,
    /// `lock_reorder` acquisitions that found the lock free on entry.
    pub standby_free_entry: AtomicU64,
    /// `lock_reorder` acquisitions whose probe saw the lock free
    /// during the window.
    pub standby_observed_free: AtomicU64,
    /// `lock_reorder` acquisitions that waited out the full window.
    pub standby_expired: AtomicU64,
}

impl LockStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Turn hold/wait timing on or off (counts are always recorded).
    pub fn set_sampling(&self, on: bool) {
        self.telemetry.set_sampling(on);
    }

    /// Consistent-enough snapshot for reporting;
    /// `telemetry.acquisitions` is [`LockStatsSnapshot::total`].
    pub fn snapshot(&self) -> LockStatsSnapshot {
        let mut snap = LockStatsSnapshot {
            telemetry: self.telemetry.snapshot(),
            immediate: self.immediate.load(Ordering::Relaxed),
            standby_free_entry: self.standby_free_entry.load(Ordering::Relaxed),
            standby_observed_free: self.standby_observed_free.load(Ordering::Relaxed),
            standby_expired: self.standby_expired.load(Ordering::Relaxed),
        };
        snap.telemetry.acquisitions = snap.total();
        snap
    }

    /// Zero all counters.
    pub fn reset(&self) {
        self.telemetry.reset();
        self.immediate.store(0, Ordering::Relaxed);
        self.standby_free_entry.store(0, Ordering::Relaxed);
        self.standby_observed_free.store(0, Ordering::Relaxed);
        self.standby_expired.store(0, Ordering::Relaxed);
    }
}

/// Point-in-time view of [`LockStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LockStatsSnapshot {
    /// Generic acquisition telemetry (shared snapshot format; its
    /// `acquisitions` is the path-counter sum, [`Self::total`]).
    pub telemetry: TelemetrySnapshot,
    /// See [`LockStats::immediate`].
    pub immediate: u64,
    /// See [`LockStats::standby_free_entry`].
    pub standby_free_entry: u64,
    /// See [`LockStats::standby_observed_free`].
    pub standby_observed_free: u64,
    /// See [`LockStats::standby_expired`].
    pub standby_expired: u64,
}

impl LockStatsSnapshot {
    /// Total acquisitions recorded (path-counter sum; the snapshot's
    /// `telemetry.acquisitions` is this figure).
    pub fn total(&self) -> u64 {
        self.immediate + self.standby_free_entry + self.standby_observed_free + self.standby_expired
    }

    /// Total acquisitions that went through the standby (reorder) path.
    pub fn standby_total(&self) -> u64 {
        self.standby_free_entry + self.standby_observed_free + self.standby_expired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_reset() {
        let s = LockStats::new();
        s.immediate.fetch_add(3, Ordering::Relaxed);
        s.standby_expired.fetch_add(2, Ordering::Relaxed);
        s.telemetry.record_contended();
        let snap = s.snapshot();
        assert_eq!(snap.immediate, 3);
        assert_eq!(snap.standby_expired, 2);
        assert_eq!(snap.total(), 5);
        assert_eq!(snap.telemetry.acquisitions, 5);
        assert_eq!(snap.standby_total(), 2);
        assert_eq!(snap.telemetry.contended, 1);
        s.reset();
        assert_eq!(s.snapshot().total(), 0);
        assert_eq!(s.snapshot().telemetry, TelemetrySnapshot::default());
    }

    #[test]
    fn telemetry_rides_along() {
        let s = LockStats::new();
        // One uncontended acquisition, two held on entry: the lock
        // records the path and, only when held, the contention.
        s.immediate.fetch_add(1, Ordering::Relaxed);
        for path in [&s.immediate, &s.standby_expired] {
            s.telemetry.record_contended();
            path.fetch_add(1, Ordering::Relaxed);
        }
        let t = s.snapshot().telemetry;
        assert_eq!(t.acquisitions, 3);
        assert_eq!(t.contended, 2);
        assert!(t.contention_ratio() > 0.6);
    }
}
