//! Deterministic fault injection for the async refresh pipeline.
//!
//! A [`FaultPlan`] is a list of [`Fault`]s addressed by pipeline coordinates
//! — epoch (1-based slide number) and optionally shard — that the worker,
//! snapshot, and delivery paths consult at well-defined seams:
//!
//! * [`FaultKind::PanicInRefresh`] fires at the **entry** of a worker's
//!   refresh attempt, before any shard state has been mutated.  The panic is
//!   caught at the worker's isolation boundary
//!   (`catch_unwind` around `refresh_scheduled`), the attempt is retried
//!   with bounded backoff, and a shard that exhausts its budget is
//!   quarantined.  Because injection is pre-mutation, a recovering fault
//!   leaves refresh decisions bit-identical to a fault-free run — which is
//!   exactly what the chaos equivalence oracles assert.
//! * [`FaultKind::DelaySnapshot`] stalls epoch snapshot capture, widening
//!   the race window between ingestion and refresh without changing any
//!   decision.
//! * [`FaultKind::PoisonDelivery`] makes one delivery send panic; the
//!   caught panic is converted into a counted shed so
//!   `delivered + dropped == result_changes` keeps reconciling.
//! * [`FaultKind::KillWorker`] makes a worker thread exit after finishing
//!   its current item; the pool detects the death at the next dispatch and
//!   respawns within its budget.  A synchronous ingest that drains a lane on
//!   its own thread consumes the fault there and stops nothing.
//!
//! Plans are consulted with *consume-on-match* semantics: each [`Fault`]
//! carries a `fires` budget and is removed when exhausted, so a plan is
//! also a test's fault *schedule* — `remaining()` going to zero proves every
//! planned fault actually fired.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::shard::ShardKey;

/// The kind of fault to inject.  See the module docs for where each fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the entry of a refresh attempt (pre-mutation).
    PanicInRefresh,
    /// Delay epoch snapshot capture by this many milliseconds.
    DelaySnapshot(u64),
    /// Panic inside one delivery send; converted into a counted shed.
    PoisonDelivery,
    /// Make the worker thread that picks this up exit after its current
    /// item completes (a no-op when the ingesting thread drains the lane).
    KillWorker,
}

/// One scheduled fault: where it fires, what it does, how many times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// The 1-based slide number the fault is armed for.
    pub epoch: u64,
    /// The shard the fault targets; `None` matches any shard (or a seam
    /// with no shard coordinate, like snapshot capture).
    pub shard: Option<ShardKey>,
    /// What to inject.
    pub kind: FaultKind,
    /// Remaining firings; the fault is removed when this reaches zero.
    pub fires: usize,
}

impl Fault {
    /// A fault that fires exactly once at the given coordinates.
    pub fn once(epoch: u64, shard: Option<ShardKey>, kind: FaultKind) -> Self {
        Fault {
            epoch,
            shard,
            kind,
            fires: 1,
        }
    }

    /// The same fault with a firing budget of `n`.  A refresh panic with
    /// `fires` larger than the worker retry budget forces quarantine.
    pub fn times(mut self, n: usize) -> Self {
        self.fires = n;
        self
    }
}

/// A deterministic schedule of faults, shared across the manager, workers,
/// and delivery paths.  Thread-safe; consult methods consume matches.
#[derive(Debug, Default)]
pub struct FaultPlan {
    faults: Mutex<Vec<Fault>>,
    injected: AtomicU64,
}

impl FaultPlan {
    /// A plan pre-loaded with `faults`.
    pub fn new(faults: Vec<Fault>) -> Self {
        FaultPlan {
            faults: Mutex::new(faults),
            injected: AtomicU64::new(0),
        }
    }

    /// Adds one fault to the schedule.
    pub fn push(&self, fault: Fault) {
        self.faults
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(fault);
    }

    /// Total faults fired so far, across all kinds.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Scheduled faults not yet (fully) fired.  Zero after a run proves the
    /// whole schedule executed.
    pub fn remaining(&self) -> usize {
        self.faults
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|f| f.fires)
            .sum()
    }

    fn take(
        &self,
        epoch: u64,
        shard: Option<ShardKey>,
        want: impl Fn(FaultKind) -> bool,
    ) -> Option<FaultKind> {
        let mut faults = self.faults.lock().unwrap_or_else(|p| p.into_inner());
        let hit = faults.iter().position(|f| {
            f.epoch == epoch
                && want(f.kind)
                && (f.shard.is_none() || shard.is_none() || f.shard == shard)
        })?;
        let kind = faults[hit].kind;
        faults[hit].fires -= 1;
        if faults[hit].fires == 0 {
            faults.swap_remove(hit);
        }
        drop(faults);
        self.injected.fetch_add(1, Ordering::Relaxed);
        Some(kind)
    }

    /// Consumes a [`FaultKind::PanicInRefresh`] armed for these coordinates,
    /// if any.  Returns `true` when the caller must panic.
    pub fn take_refresh_panic(&self, epoch: u64, shard: ShardKey) -> bool {
        self.take(epoch, Some(shard), |k| k == FaultKind::PanicInRefresh)
            .is_some()
    }

    /// Consumes a [`FaultKind::DelaySnapshot`] armed for this epoch,
    /// returning the delay in milliseconds.
    pub fn take_snapshot_delay(&self, epoch: u64) -> Option<u64> {
        match self.take(epoch, None, |k| matches!(k, FaultKind::DelaySnapshot(_)))? {
            FaultKind::DelaySnapshot(ms) => Some(ms),
            _ => unreachable!("filtered to DelaySnapshot"),
        }
    }

    /// Consumes a [`FaultKind::PoisonDelivery`] armed for this epoch.
    /// Returns `true` when the caller must poison the next send.
    pub fn take_delivery_poison(&self, epoch: u64) -> bool {
        self.take(epoch, None, |k| k == FaultKind::PoisonDelivery)
            .is_some()
    }

    /// Consumes a [`FaultKind::KillWorker`] armed for these coordinates.
    /// Returns `true` when the consuming worker must exit its loop.
    pub fn take_worker_kill(&self, epoch: u64, shard: ShardKey) -> bool {
        self.take(epoch, Some(shard), |k| k == FaultKind::KillWorker)
            .is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksir_types::TopicId;

    #[test]
    fn faults_consume_on_match_and_respect_coordinates() {
        let plan = FaultPlan::new(vec![
            Fault::once(
                3,
                Some(ShardKey::Topic(TopicId(1))),
                FaultKind::PanicInRefresh,
            ),
            Fault::once(4, None, FaultKind::DelaySnapshot(7)),
        ]);
        assert_eq!(plan.remaining(), 2);
        // Wrong epoch, wrong shard: no fire.
        assert!(!plan.take_refresh_panic(2, ShardKey::Topic(TopicId(1))));
        assert!(!plan.take_refresh_panic(3, ShardKey::Topic(TopicId(2))));
        // Exact match fires once, then is gone.
        assert!(plan.take_refresh_panic(3, ShardKey::Topic(TopicId(1))));
        assert!(!plan.take_refresh_panic(3, ShardKey::Topic(TopicId(1))));
        assert_eq!(plan.take_snapshot_delay(4), Some(7));
        assert_eq!(plan.take_snapshot_delay(4), None);
        assert_eq!(plan.injected(), 2);
        assert_eq!(plan.remaining(), 0);
    }

    #[test]
    fn wildcard_shard_matches_any_and_times_bounds_firings() {
        let plan = FaultPlan::new(vec![
            Fault::once(1, None, FaultKind::PanicInRefresh).times(2)
        ]);
        assert!(plan.take_refresh_panic(1, ShardKey::Overflow));
        assert!(plan.take_refresh_panic(1, ShardKey::Topic(TopicId(9))));
        assert!(!plan.take_refresh_panic(1, ShardKey::Overflow));
        assert_eq!(plan.injected(), 2);
    }

    #[test]
    fn kill_and_poison_seams_consume_independently() {
        let plan = FaultPlan::default();
        plan.push(Fault::once(2, None, FaultKind::KillWorker));
        plan.push(Fault::once(2, None, FaultKind::PoisonDelivery));
        assert!(!plan.take_delivery_poison(1));
        assert!(plan.take_worker_kill(2, ShardKey::Overflow));
        assert!(plan.take_delivery_poison(2));
        assert_eq!(plan.remaining(), 0);
    }
}
