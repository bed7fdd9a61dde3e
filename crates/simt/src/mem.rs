//! Simulated device (global) memory.
//!
//! A [`DevVec`] owns its element storage on the host but carries a *device
//! byte address* assigned by the [`crate::Gpu`] allocator; all coalescing
//! math works on these addresses, so layout effects (alignment, adjacency of
//! consecutive elements) behave as on real hardware.

use crate::pod::Pod;
use std::marker::PhantomData;

/// Alignment of device allocations (matches `cudaMalloc`'s 256-byte
/// guarantee, which is what makes "consecutive elements coalesce" sound).
pub const ALLOC_ALIGN: u64 = 256;

/// A typed device-memory buffer.
///
/// Created through [`crate::Gpu::alloc`] / [`crate::Gpu::upload`]; element
/// access from kernels goes through the accounting operations on
/// [`crate::Block`]. Host-side access (`host` / `host_mut`) is free and
/// un-accounted — use it for test setup and assertions, and inside a kernel
/// only where the accounting is already paid (a replayed scope, see
/// [`crate::Block::warp_scope`]); transfers that should cost PCIe time go
/// through [`crate::Gpu::download`] and [`crate::Gpu::h2d`].
#[derive(Debug)]
pub struct DevVec<T: Pod> {
    data: Vec<T>,
    base: u64,
    _marker: PhantomData<T>,
}

impl<T: Pod> DevVec<T> {
    pub(crate) fn from_parts(data: Vec<T>, base: u64) -> Self {
        DevVec {
            data,
            base,
            _marker: PhantomData,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the buffer holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Device byte address of element `idx`.
    #[inline]
    pub fn addr(&self, idx: usize) -> u64 {
        debug_assert!(idx < self.data.len());
        self.base + (idx as u64) * T::SIZE as u64
    }

    /// Device base address of the buffer.
    #[inline]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Size of the allocation in bytes.
    #[inline]
    pub fn size_bytes(&self) -> u64 {
        self.data.len() as u64 * T::SIZE as u64
    }

    /// Un-accounted host view (test setup, assertions, replayed scopes).
    #[inline]
    pub fn host(&self) -> &[T] {
        &self.data
    }

    /// Un-accounted mutable host view (test setup, replayed scopes).
    #[inline]
    pub fn host_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Raw element read used by kernel operations (bounds-checked, as an
    /// out-of-range device access is a bug in the kernel under simulation).
    #[inline]
    pub(crate) fn get(&self, idx: usize) -> T {
        self.data[idx]
    }

    /// Raw element write used by kernel operations.
    #[inline]
    pub(crate) fn set(&mut self, idx: usize, v: T) {
        self.data[idx] = v;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_math() {
        let v: DevVec<u32> = DevVec::from_parts(vec![0; 8], 512);
        assert_eq!(v.base(), 512);
        assert_eq!(v.addr(0), 512);
        assert_eq!(v.addr(3), 524);
        assert_eq!(v.size_bytes(), 32);
        assert_eq!(v.len(), 8);
        assert!(!v.is_empty());
    }

    #[test]
    fn host_views() {
        let mut v: DevVec<u32> = DevVec::from_parts(vec![1, 2, 3], 0);
        v.host_mut()[1] = 99;
        assert_eq!(v.host(), &[1, 99, 3]);
        assert_eq!(v.get(1), 99);
        v.set(0, 7);
        assert_eq!(v.get(0), 7);
    }
}
