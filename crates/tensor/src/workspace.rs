//! Thread-local scratch buffers for hot kernels.
//!
//! The seed allocated a fresh `vec![0.0; krows * ncols]` im2col buffer on
//! every conv2d call (and packing would need two more per GEMM). For the
//! small tensors this codebase trains on, those allocations dominate the
//! kernel runtime. This arena keeps one buffer per ([`Slot`], thread) alive
//! across calls, growing it monotonically to the high-water mark, plus one
//! `usize` buffer per thread for the conv patch offset tables
//! (`take_offsets`).
//!
//! Usage is a take/give pair:
//!
//! ```
//! use cae_tensor::workspace::{self, Slot};
//!
//! let mut buf = workspace::take(Slot::Padded, 128); // zeroed, len == 128
//! buf[0] = 1.0;
//! workspace::give(Slot::Padded, buf); // returned for the next caller
//! ```
//!
//! `take` moves the buffer *out* of the thread-local slot (no `RefCell`
//! borrow is held while the caller works), so a kernel may hold one slot
//! while calling another kernel that takes a different slot — conv2d holds
//! [`Slot::Padded`] and [`Slot::ConvOut`] while the GEMM underneath takes
//! [`Slot::PackA`] and [`Slot::PackB`]. If a slot is taken twice without an
//! intervening `give` (re-entrancy), the second `take` simply falls back to
//! a fresh allocation — correctness never depends on reuse.
//!
//! Because slots are thread-local, every pool worker (see
//! [`crate::pool`]) automatically owns a private workspace; parallel conv
//! batch loops need no locking.

use std::cell::RefCell;

/// Named scratch slots. Each slot holds one `Vec<f32>` per thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// Packed A panels of the blocked GEMM.
    PackA,
    /// Packed B panels of the blocked GEMM.
    PackB,
    /// Zero-padded copy of a conv input, `[N, C, H+2p, W+2p]`, that the
    /// GEMM's B packer gathers patches from, or the stride-1 forward reads
    /// in place (then followed by the grid's tail slack). Unused when the
    /// padding is zero and no slack is needed.
    Padded,
    /// Gradient w.r.t. the unfolded patch matrix (conv2d input gradient,
    /// folded back into the image by `col2im`).
    DCol,
    /// Per-chunk partial accumulators for parallel reductions.
    Partial,
    /// GEMM product of one conv2d batch chunk, `[O, images·columns]`
    /// (`OH·OW` columns per image, or the padded output grid in whole
    /// tiles), before the epilogue copies it into NCHW order.
    ConvOut,
}

const SLOT_COUNT: usize = 6;

thread_local! {
    static SLOTS: RefCell<[Vec<f32>; SLOT_COUNT]> = const {
        RefCell::new([Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new()])
    };
    static OFFSETS: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Takes the thread's buffer for `slot`, zeroed and resized to `len`.
///
/// Always returns a buffer with `buf.len() == len` and all elements `0.0`.
/// Pair with [`give`] to recycle the allocation.
pub fn take(slot: Slot, len: usize) -> Vec<f32> {
    let mut buf = take_unzeroed(slot, len);
    buf.iter_mut().for_each(|v| *v = 0.0);
    buf
}

/// Like [`take`] but without the zeroing memset: the returned buffer has
/// `buf.len() == len` and *unspecified contents* (stale data from earlier
/// uses of the slot). For callers that overwrite every element they later
/// read — the GEMM packing routines — where the memset is pure overhead on
/// small products.
pub fn take_unzeroed(slot: Slot, len: usize) -> Vec<f32> {
    resized(SLOTS.with(|s| std::mem::take(&mut s.borrow_mut()[slot as usize])), len)
}

/// The thread's `usize` scratch buffer with `len` elements of unspecified
/// contents — the conv patch offset tables. Pair with [`give_offsets`].
pub(crate) fn take_offsets(len: usize) -> Vec<usize> {
    resized(OFFSETS.with(|s| std::mem::take(&mut *s.borrow_mut())), len)
}

/// Returns a buffer taken with [`take_offsets`], keeping the larger one.
pub(crate) fn give_offsets(buf: Vec<usize>) {
    OFFSETS.with(|s| keep_larger(&mut s.borrow_mut(), buf));
}

/// Counts the take and truncates or grows `buf` to `len`.
fn resized<T: Copy + Default>(mut buf: Vec<T>, len: usize) -> Vec<T> {
    cae_trace::counters(&[
        ("workspace.takes", 1),
        (
            if buf.capacity() >= len {
                "workspace.reuses"
            } else {
                "workspace.allocs"
            },
            1,
        ),
    ]);
    if buf.len() >= len {
        buf.truncate(len);
    } else {
        // Only the grown suffix is written; the warm-path cost is zero.
        buf.resize(len, T::default());
    }
    buf
}

fn keep_larger<T>(resident: &mut Vec<T>, buf: Vec<T>) {
    if resident.capacity() < buf.capacity() {
        *resident = buf;
    }
}

/// Returns a buffer taken with [`take`] so later calls on this thread can
/// reuse its allocation. Keeps the larger of the incoming and resident
/// buffers (re-entrant callers may give back in any order).
pub fn give(slot: Slot, buf: Vec<f32>) {
    SLOTS.with(|s| keep_larger(&mut s.borrow_mut()[slot as usize], buf));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_zeroed_buffer_of_requested_len() {
        let mut buf = take(Slot::Padded, 16);
        assert_eq!(buf.len(), 16);
        assert!(buf.iter().all(|&v| v == 0.0));
        buf.iter_mut().for_each(|v| *v = 7.0);
        give(Slot::Padded, buf);
        // The recycled buffer must be re-zeroed, including when shrinking
        // and growing across calls.
        let again = take(Slot::Padded, 8);
        assert_eq!(again.len(), 8);
        assert!(again.iter().all(|&v| v == 0.0));
        give(Slot::Padded, again);
        let grown = take(Slot::Padded, 32);
        assert_eq!(grown.len(), 32);
        assert!(grown.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn reuse_preserves_capacity() {
        let buf = take(Slot::PackA, 1024);
        let ptr = buf.as_ptr();
        give(Slot::PackA, buf);
        let again = take(Slot::PackA, 512);
        assert_eq!(again.as_ptr(), ptr, "warm take must not reallocate");
    }

    #[test]
    fn double_take_falls_back_to_fresh_allocation() {
        let first = take(Slot::DCol, 4);
        let second = take(Slot::DCol, 4);
        assert_eq!(second.len(), 4);
        give(Slot::DCol, first);
        give(Slot::DCol, second);
    }
}
