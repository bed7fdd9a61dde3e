//! Simulated per-block shared memory.
//!
//! A [`SharedVec`] is allocated from a block's shared-memory quota via
//! [`crate::Block::shared_alloc`]. It carries a shared-address-space base so
//! bank-conflict math sees real addresses. Lifetime is the block's closure
//! invocation, exactly like `__shared__` arrays in CUDA.

use crate::pod::Pod;

/// A typed shared-memory array belonging to one block.
#[derive(Debug)]
pub struct SharedVec<T: Pod> {
    data: Vec<T>,
    base: u64,
}

/// Upper bound on recycled buffers kept per type per thread; beyond this the
/// dropped buffer is simply freed.
const MAX_POOLED: usize = 64;

impl<T: Pod> SharedVec<T> {
    /// Zero-initialized array of `len` elements, reusing a recycled buffer
    /// from this thread's scratch pool when one is available — the per-block
    /// `__shared__` churn of the kernel hot path must not hit the allocator.
    pub(crate) fn recycled(len: usize, base: u64) -> Self {
        let data = T::scratch_pool()
            .try_with(|pool| pool.borrow_mut().pop())
            .ok()
            .flatten()
            .map(|mut v| {
                v.clear();
                v.resize(len, T::default());
                v
            })
            .unwrap_or_else(|| vec![T::default(); len]);
        SharedVec { data, base }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the array holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Shared-space byte address of element `idx`.
    #[inline]
    pub fn addr(&self, idx: usize) -> u64 {
        debug_assert!(idx < self.data.len());
        self.base + (idx as u64) * T::SIZE as u64
    }

    /// Shared-space base address of the array (element 0, even when empty).
    #[inline]
    pub(crate) fn base(&self) -> u64 {
        self.base
    }

    /// Direct (un-accounted) view; for assertions inside kernels and tests,
    /// and for the data a replayed scope moves (see [`crate::Block::warp_scope`]).
    #[inline]
    pub fn host(&self) -> &[T] {
        &self.data
    }

    /// Direct (un-accounted) mutable view; what a kernel writes through inside
    /// a replayed scope, whose accounting is already applied.
    #[inline]
    pub fn host_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    #[inline]
    pub(crate) fn get(&self, idx: usize) -> T {
        self.data[idx]
    }

    #[inline]
    pub(crate) fn set(&mut self, idx: usize, v: T) {
        self.data[idx] = v;
    }

    #[inline]
    pub(crate) fn get_mut(&mut self, idx: usize) -> &mut T {
        &mut self.data[idx]
    }

    /// Contiguous element view used by the SoA run operations.
    #[inline]
    pub(crate) fn slice(&self, start: usize, len: usize) -> &[T] {
        &self.data[start..start + len]
    }

    /// Contiguous mutable element view used by the SoA run operations.
    #[inline]
    pub(crate) fn slice_mut(&mut self, start: usize, len: usize) -> &mut [T] {
        &mut self.data[start..start + len]
    }
}

impl<T: Pod> Drop for SharedVec<T> {
    fn drop(&mut self) {
        let data = std::mem::take(&mut self.data);
        if data.capacity() == 0 {
            return;
        }
        // try_with: silently skip recycling during thread teardown.
        let _ = T::scratch_pool().try_with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < MAX_POOLED {
                pool.push(data);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addressing() {
        let s: SharedVec<f32> = SharedVec::recycled(4, 128);
        assert_eq!(s.addr(0), 128);
        assert_eq!(s.addr(2), 136);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
    }

    #[test]
    fn host_views() {
        let mut s: SharedVec<u32> = SharedVec::recycled(3, 0);
        s.host_mut()[1] = 9;
        assert_eq!(s.host(), &[0, 9, 0]);
        assert_eq!(s.get(1), 9);
    }
}
