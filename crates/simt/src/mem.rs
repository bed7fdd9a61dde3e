//! Simulated device (global) memory.
//!
//! A [`DevVec`] holds its element storage on the host but carries a *device
//! byte address* assigned by the [`crate::Gpu`] allocator; all coalescing
//! math works on these addresses, so layout effects (alignment, adjacency of
//! consecutive elements) behave as on real hardware. Its storage is its own,
//! or a range of an `Arc<[T]>` the host shares with other buffers
//! ([`crate::Gpu::try_upload_shared`]): a buffer nothing writes costs no host
//! copy, and the first write to a shared one copies it out.

use crate::pod::Pod;
use std::ops::Range;
use std::sync::Arc;

/// Alignment of device allocations (matches `cudaMalloc`'s 256-byte
/// guarantee, which is what makes "consecutive elements coalesce" sound).
pub const ALLOC_ALIGN: u64 = 256;

/// A typed device-memory buffer.
///
/// Created through [`crate::Gpu::alloc`] / [`crate::Gpu::upload`]; element
/// access from kernels goes through the accounting operations on
/// [`crate::Block`]. Host-side access (`host` / `host_mut`) is free and
/// un-accounted — use it for test setup and assertions, and inside a kernel
/// only where the accounting is already paid (a body a launch record holds,
/// see [`crate::LaunchRecord`]); transfers that should cost PCIe time go
/// through [`crate::Gpu::download`] and [`crate::Gpu::h2d`].
#[derive(Debug)]
pub struct DevVec<T: Pod> {
    data: Store<T>,
    base: u64,
}

/// Where a buffer's elements live.
#[derive(Debug)]
enum Store<T> {
    Owned(Vec<T>),
    /// Elements `range` of storage shared with the host and other buffers.
    Shared(Arc<[T]>, Range<usize>),
}

impl<T: Pod> DevVec<T> {
    pub(crate) fn from_parts(data: Vec<T>, base: u64) -> Self {
        DevVec {
            data: Store::Owned(data),
            base,
        }
    }

    pub(crate) fn shared(data: &Arc<[T]>, range: Range<usize>, base: u64) -> Self {
        assert!(range.end <= data.len(), "shared range out of bounds");
        DevVec {
            data: Store::Shared(Arc::clone(data), range),
            base,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.host().len()
    }

    /// True if the buffer holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.host().is_empty()
    }

    /// Device byte address of element `idx`.
    #[inline]
    pub fn addr(&self, idx: usize) -> u64 {
        debug_assert!(idx < self.len());
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
        self.len() as u64 * T::SIZE as u64
    }

    /// Whether the buffer still reads from `storage` (a range of it, shared
    /// by [`crate::Gpu::try_upload_shared`] and not written since).
    pub fn shares(&self, storage: &Arc<[T]>) -> bool {
        matches!(&self.data, Store::Shared(data, _) if Arc::ptr_eq(data, storage))
    }

    /// Un-accounted host view (test setup, assertions, a recorded kernel's data).
    #[inline]
    pub fn host(&self) -> &[T] {
        match &self.data {
            Store::Owned(v) => v,
            Store::Shared(data, range) => &data[range.clone()],
        }
    }

    /// Un-accounted mutable host view (test setup, a recorded kernel's data). A
    /// shared buffer copies its range out first: a write never reaches the
    /// storage it shares.
    #[inline]
    pub fn host_mut(&mut self) -> &mut [T] {
        if let Store::Shared(data, range) = &self.data {
            self.data = Store::Owned(data[range.clone()].to_vec());
        }
        match &mut self.data {
            Store::Owned(v) => v,
            Store::Shared(..) => unreachable!("copied out above"),
        }
    }

    /// Raw element read used by kernel operations (bounds-checked, as an
    /// out-of-range device access is a bug in the kernel under simulation).
    #[inline]
    pub(crate) fn get(&self, idx: usize) -> T {
        self.host()[idx]
    }

    /// Raw element write used by kernel operations.
    #[inline]
    pub(crate) fn set(&mut self, idx: usize, v: T) {
        self.host_mut()[idx] = v;
    }

    /// Contiguous element view used by the SoA run operations.
    #[inline]
    pub(crate) fn slice(&self, start: usize, len: usize) -> &[T] {
        &self.host()[start..start + len]
    }

    /// Contiguous mutable element view used by the SoA run operations.
    #[inline]
    pub(crate) fn slice_mut(&mut self, start: usize, len: usize) -> &mut [T] {
        &mut self.host_mut()[start..start + len]
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

    #[test]
    fn a_shared_buffer_copies_out_on_its_first_write() {
        let storage: Arc<[u32]> = Arc::from(vec![1, 2, 3, 4]);
        let mut v = DevVec::shared(&storage, 1..3, 256);
        assert!(v.shares(&storage));
        assert_eq!((v.host(), v.len(), v.addr(1)), (&[2, 3][..], 2, 260));
        v.set(0, 9);
        assert!(!v.shares(&storage));
        assert_eq!(v.host(), &[9, 3]);
        assert_eq!(&*storage, &[1, 2, 3, 4]);
    }
}
