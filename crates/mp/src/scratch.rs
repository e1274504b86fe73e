//! Per-thread scratch arenas: reusable limb buffers for the hot paths.
//!
//! The solve stack's inner loops — the subresultant remainder step, the
//! tree-stage matrix products, Karatsuba's split temporaries — create
//! short-lived `Vec<Limb>` buffers at every step. Each one is a system
//! allocator round trip, and profiles show the remainder phase is bound
//! by exactly that churn. This module gives every thread a small LIFO
//! free list of limb buffers; rewritten hot paths acquire their
//! temporaries with [`take`] and return them with [`put`], so in steady
//! state a worker reuses the same few buffers for the whole solve.
//!
//! ## Counted cold misses
//!
//! Reuse is unconditional: every acquisition that actually hits the
//! allocator — a cold miss on an empty or undersized free list — is
//! counted once, as [`Exec::Allocs`] and [`Exec::AllocBytes`] under the
//! current phase ([`crate::metrics::count`]), so the per-phase
//! allocation counters of a solve are measured, not estimated. A warm
//! repeat solve's remainder phase records zero (the `profile_diff`
//! suite asserts it; the historical `results/BENCH_arena.json`, written
//! by a since-removed harness, records the same zero).
//!
//! ## Aliasing and hygiene contract
//!
//! A buffer returned by [`take`] has `len == 0` and at least the
//! requested capacity, but its *spare capacity is dirty*: it may hold
//! limbs from a previous use. Kernels writing into scratch must fully
//! initialize every limb they read back (the `_into` kernels do:
//! they `resize`/overwrite before reading) — the differential suite in
//! `crates/mp/tests/inplace_diff.rs` drives every kernel with
//! deliberately poisoned buffers to hold this. Buffers must go back via
//! [`put`] on the thread that took them (the free list is
//! thread-local); dropping one instead is safe but forfeits the reuse.
//!
//! Take/put pairs are stack-shaped in practice (each kernel returns
//! what it took before its caller resumes), which is what keeps the
//! LIFO list hot in cache; [`Scratch::outstanding`] exposes the balance
//! so tests can assert a scope returned everything it took.

use crate::limb::Limb;
use crate::metrics::Exec;
use std::cell::RefCell;

/// Retained buffers beyond this count are dropped by [`Scratch::put`]:
/// deep recursions (Karatsuba) briefly take many buffers, but steady
/// state needs only a handful, and an unbounded list would pin the
/// high-water mark of every past solve.
const MAX_RETAINED: usize = 64;

/// Retained buffers larger than this (in limbs) are dropped rather than
/// kept: one huge outlier operand should not permanently occupy the
/// free list. 1 Mi limbs = 8 MiB.
const MAX_RETAINED_LIMBS: usize = 1 << 20;

/// A LIFO free list of reusable limb buffers. One lives per thread
/// (accessed through [`take`]/[`put`]); the type is public so tests and
/// single-threaded callers can run a private arena.
#[derive(Debug, Default)]
pub struct Scratch {
    bufs: Vec<Vec<Limb>>,
    outstanding: usize,
}

impl Scratch {
    /// An empty arena.
    pub fn new() -> Scratch {
        Scratch::default()
    }

    /// Acquires a buffer with `len == 0` and capacity ≥ `min_limbs`.
    ///
    /// Reuses the most recently [`put`](Scratch::put) buffer when one
    /// with enough capacity is available; otherwise allocates fresh and
    /// counts the allocation ([`crate::metrics::count`]). The
    /// buffer's spare capacity is dirty — see the module docs for the
    /// hygiene contract.
    pub fn take(&mut self, min_limbs: usize) -> Vec<Limb> {
        self.outstanding += 1;
        // LIFO scan from the top: the most recent buffers are the
        // cache-hot ones, and sizes within one kernel repeat.
        for i in (0..self.bufs.len()).rev() {
            if self.bufs[i].capacity() >= min_limbs {
                let mut v = self.bufs.swap_remove(i);
                v.clear();
                return v;
            }
        }
        let bytes = (min_limbs * std::mem::size_of::<Limb>()) as u64;
        crate::metrics::count(&[(Exec::Allocs, 1), (Exec::AllocBytes, bytes)]);
        // No fit: recycle the top buffer by growing it (one counted
        // allocation, but the list stays bounded).
        match self.bufs.pop() {
            Some(mut v) => {
                v.clear();
                v.reserve(min_limbs);
                v
            }
            None => Vec::with_capacity(min_limbs),
        }
    }

    /// Returns a buffer to the free list (or drops it when the list is
    /// full or the buffer is outsized).
    pub fn put(&mut self, mut v: Vec<Limb>) {
        self.outstanding = self.outstanding.saturating_sub(1);
        if self.bufs.len() < MAX_RETAINED
            && v.capacity() <= MAX_RETAINED_LIMBS
            && v.capacity() > 0
        {
            v.clear();
            self.bufs.push(v);
        }
    }

    /// Buffers currently taken but not yet returned. Balanced scopes
    /// leave this where they found it; the tests assert it.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Buffers currently held by the free list.
    pub fn retained(&self) -> usize {
        self.bufs.len()
    }

    /// Drops every retained buffer (the idle-worker release path).
    pub fn release(&mut self) {
        self.bufs.clear();
        self.bufs.shrink_to_fit();
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// Acquires a buffer from the calling thread's arena — see
/// [`Scratch::take`]. The thread-local borrow is released before this
/// returns, so kernels are free to call back into arithmetic (and thus
/// into [`take`] again) while holding the buffer.
#[inline]
pub fn take(min_limbs: usize) -> Vec<Limb> {
    SCRATCH.with(|s| s.borrow_mut().take(min_limbs))
}

/// Returns a buffer to the calling thread's arena — see
/// [`Scratch::put`].
#[inline]
pub fn put(v: Vec<Limb>) {
    SCRATCH.with(|s| s.borrow_mut().put(v));
}

/// Drops every buffer retained by the calling thread's arena.
///
/// Pool workers call this (through the scheduler's idle hook) before
/// parking indefinitely, so an idle pool holds no solve-sized buffers;
/// the next solve warms the list back up with a handful of cold
/// (counted) allocations.
pub fn release_thread() {
    SCRATCH.with(|s| s.borrow_mut().release());
}

/// Buffers currently retained by the calling thread's arena (test and
/// diagnostics hook).
pub fn retained_on_thread() -> usize {
    SCRATCH.with(|s| s.borrow().retained())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reuses_put_buffers() {
        let mut s = Scratch::new();
        let mut v = s.take(16);
        v.extend_from_slice(&[1, 2, 3]);
        let cap = v.capacity();
        let ptr = v.as_ptr();
        s.put(v);
        assert_eq!(s.retained(), 1);
        let v2 = s.take(8);
        // Same buffer back: cleared, same storage.
        assert_eq!(v2.len(), 0);
        assert_eq!(v2.capacity(), cap);
        assert_eq!(v2.as_ptr(), ptr);
        assert_eq!(s.retained(), 0);
        s.put(v2);
        assert_eq!(s.outstanding(), 0);
    }

    #[test]
    fn only_cold_misses_count() {
        let ctx = crate::SolveCtx::new(crate::Profile::Paper);
        ctx.run(|| {
            let mut s = Scratch::new();
            for _ in 0..10 {
                let v = s.take(32);
                s.put(v);
            }
        });
        assert_eq!(ctx.exec().get(Exec::Allocs), 1, "one cold miss, nine reuses");
    }

    #[test]
    fn session_sink_sees_per_phase_allocs() {
        use crate::metrics::Phase;
        let ctx = crate::SolveCtx::new(crate::Profile::Paper);
        ctx.run(|| {
            crate::metrics::with_phase(Phase::RemainderSeq, || {
                let mut s = Scratch::new();
                let v = s.take(8);
                s.put(v);
                let v = s.take(8);
                s.put(v);
            });
        });
        let a = ctx.exec();
        assert_eq!(a.phase(Phase::RemainderSeq, Exec::Allocs), 1);
        assert_eq!(
            a.phase(Phase::RemainderSeq, Exec::AllocBytes),
            8 * std::mem::size_of::<Limb>() as u64
        );
        assert_eq!(a.get(Exec::Allocs), 1);
    }

    #[test]
    fn undersized_buffers_are_not_reused_as_is() {
        let mut s = Scratch::new();
        s.put(Vec::with_capacity(4));
        s.put(Vec::with_capacity(100));
        let v = s.take(50);
        assert!(v.capacity() >= 50);
        assert_eq!(s.retained(), 1, "the 4-limb buffer stays for later");
    }

    #[test]
    fn retention_is_bounded() {
        let mut s = Scratch::new();
        for _ in 0..(MAX_RETAINED + 10) {
            s.put(Vec::with_capacity(1));
        }
        assert_eq!(s.retained(), MAX_RETAINED);
        s.put(Vec::with_capacity(MAX_RETAINED_LIMBS + 1));
        assert_eq!(s.retained(), MAX_RETAINED, "outsized buffer dropped");
        s.release();
        assert_eq!(s.retained(), 0);
    }
}
