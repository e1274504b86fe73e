//! Thread-local allocation counters for the buffer-reuse layer.
//!
//! The scratch-arena work in `rr-mp` routes hot-path limb buffers
//! through a per-thread free list; whether a given acquisition actually
//! hit the system allocator is the number the arena exists to drive
//! down. That number is recorded here — in `rr-obs` rather than in the
//! metrics cost model — for two reasons:
//!
//! * it is **physical**, not modeled: the paper cost snapshot must stay
//!   bit-identical whatever the arenas held when the solve started, so
//!   anything that varies with how warm an arena is cannot live in
//!   `CostSnapshot`; and
//! * the **scheduler** wants per-task deltas: `rr-sched` (which cannot
//!   depend on `rr-mp`) reads this counter around every pool task to
//!   attribute allocation churn to scopes, surfacing the totals in
//!   `PoolStats`.
//!
//! The counters are plain monotone thread-local cells: recording is two
//! wrapping adds, reading is two loads, and there is no cross-thread
//! aggregation here — callers that need totals (the metrics sinks, the
//! pool) take deltas on the thread doing the work.

use crate::metrics::Counter;
use std::cell::Cell;
use std::sync::LazyLock;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

static M_ALLOCS: LazyLock<Counter> = crate::register_metric!(
    counter,
    "rr_alloc_total",
    "Limb-buffer acquisitions that hit the system allocator"
);
static M_BYTES: LazyLock<Counter> = crate::register_metric!(
    counter,
    "rr_alloc_bytes_total",
    "Bytes requested by allocator-hitting limb-buffer acquisitions"
);

/// A point-in-time reading of the calling thread's allocation counters.
/// Monotone: the churn of a region is `after - before`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AllocReading {
    /// Limb-buffer acquisitions that hit the system allocator.
    pub allocs: u64,
    /// Bytes requested by those acquisitions.
    pub bytes: u64,
}

impl std::ops::Sub for AllocReading {
    type Output = AllocReading;
    fn sub(self, rhs: AllocReading) -> AllocReading {
        AllocReading {
            allocs: self.allocs.wrapping_sub(rhs.allocs),
            bytes: self.bytes.wrapping_sub(rhs.bytes),
        }
    }
}

/// Records one buffer allocation of `bytes` bytes on the calling
/// thread. Called from `rr-mp`'s scratch layer at every acquisition
/// that reached the system allocator; not usually called directly.
#[inline]
pub fn record(bytes: u64) {
    ALLOCS.with(|c| c.set(c.get().wrapping_add(1)));
    BYTES.with(|c| c.set(c.get().wrapping_add(bytes)));
    // Mirror into the always-on registry so fleet dashboards see
    // allocation rates without per-task delta plumbing.
    M_ALLOCS.inc();
    M_BYTES.add(bytes);
}

/// The calling thread's monotone allocation counters. Take a reading
/// before and after a region and subtract to get the region's churn.
#[inline]
pub fn reading() -> AllocReading {
    AllocReading {
        allocs: ALLOCS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reading_delta_counts_region() {
        let before = reading();
        record(64);
        record(128);
        let d = reading() - before;
        assert_eq!(d.allocs, 2);
        assert_eq!(d.bytes, 192);
    }

    #[test]
    fn counters_are_thread_local() {
        let before = reading();
        std::thread::spawn(|| record(1 << 20)).join().unwrap();
        let d = reading() - before;
        assert_eq!(d.allocs, 0);
        assert_eq!(d.bytes, 0);
    }
}
