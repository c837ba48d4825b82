//! Working memory that is reused, call after call, instead of allocated.
//!
//! [`Scratch::take`] lends `len` floats of this thread's pool, starting on a
//! 64-byte boundary; dropping the [`Scratch`] gives them back. The pool
//! keeps buffers by size class (eight classes per doubling, so a class
//! wastes at most an eighth), and a request is served only by a buffer of
//! its own class: a caller whose requests repeat — a training step, a
//! served forward — allocates on its first pass and never after, whatever
//! order the buffers come back in. The contents of a lent buffer are
//! whatever its last user left: every caller either overwrites what it
//! reads or asks for [`Scratch::zeroed`]. A caller done repeating its
//! requests hands the memory back to the allocator with
//! [`Scratch::release`] (a training run does, so what it kept does not
//! outlive it in the thread's pool).

use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};

/// Floats a thread's pool holds at most; a buffer given back beyond this
/// is freed.
const POOL_FLOATS: usize = 1 << 26;

/// Spare floats in front of every buffer, so that its slice can start on a
/// 64-byte boundary.
const ALIGN_SPARE: usize = 15;

#[derive(Default)]
struct Pool {
    free: HashMap<usize, Vec<Vec<f32>>>,
    floats: usize,
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
}

/// The size class a request for `len` floats is served from: `len` plus the
/// alignment spare, rounded up to an eighth of its power of two.
fn class(len: usize) -> usize {
    let need = (len + ALIGN_SPARE).max(64);
    let step = 1usize << (usize::BITS - 1 - need.leading_zeros() - 3);
    need.div_ceil(step) * step
}

/// `len` floats of reused memory, 64-byte aligned; see the module docs.
pub struct Scratch {
    memory: Vec<f32>,
    start: usize,
    len: usize,
}

impl Scratch {
    /// `len` floats of this thread's pool, contents unspecified.
    pub fn take(len: usize) -> Scratch {
        let class = class(len);
        let memory = POOL
            .try_with(|pool| {
                let mut pool = pool.borrow_mut();
                let buffer = pool.free.get_mut(&class)?.pop()?;
                pool.floats -= class;
                Some(buffer)
            })
            .ok()
            .flatten()
            .unwrap_or_else(|| vec![0.0; class]);
        let start = memory.as_ptr().align_offset(64).min(ALIGN_SPARE);
        Scratch { memory, start, len }
    }

    /// Frees every buffer this thread's pool holds: for a caller that has
    /// finished a run of repeated requests (a training run) and will not
    /// repeat them soon, so that its memory goes back to the allocator for
    /// whatever the thread does next.
    pub fn release() {
        let _ = POOL.try_with(|pool| *pool.borrow_mut() = Pool::default());
    }

    /// `len` floats of this thread's pool, every one `0.0`.
    pub fn zeroed(len: usize) -> Scratch {
        let mut scratch = Scratch::take(len);
        scratch.fill(0.0);
        scratch
    }
}

impl Deref for Scratch {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.memory[self.start..][..self.len]
    }
}

impl DerefMut for Scratch {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.memory[self.start..][..self.len]
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let memory = std::mem::take(&mut self.memory);
        let class = memory.len();
        // A thread being torn down frees instead.
        let _ = POOL.try_with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.floats + class <= POOL_FLOATS {
                pool.floats += class;
                pool.free.entry(class).or_default().push(memory);
            }
        });
    }
}

impl std::fmt::Debug for Scratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Scratch({} floats)", self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_cover_their_requests_within_an_eighth() {
        for len in [0, 1, 48, 49, 100, 1000, 4096, 18_432, 1 << 20] {
            let c = class(len);
            assert!(c >= len + ALIGN_SPARE && c >= 64, "{len} -> {c}");
            assert!(c <= (len + ALIGN_SPARE).max(64) * 9 / 8 + 1, "{len} -> {c}");
            assert_eq!(class(c - ALIGN_SPARE), c, "a class is its own class");
        }
    }

    #[test]
    fn a_repeated_request_reuses_the_buffer_aligned() {
        let first = Scratch::take(1000);
        let at = first.as_ptr();
        assert_eq!(at.align_offset(64), 0);
        assert_eq!(first.len(), 1000);
        drop(first);
        let again = Scratch::take(1001);
        assert_eq!(again.as_ptr(), at, "the same class is served from the pool");
        assert!(Scratch::zeroed(1000).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn release_frees_what_the_pool_holds() {
        drop((Scratch::take(10), Scratch::take(5000)));
        assert!(POOL.with(|pool| pool.borrow().floats) > 0);
        Scratch::release();
        assert_eq!(POOL.with(|pool| pool.borrow().floats), 0);
        assert!(POOL.with(|pool| pool.borrow().free.is_empty()));
    }
}
