//! Simulated device global memory: an allocator with capacity enforcement and
//! live/peak byte tracking, plus typed buffers the kernels operate on.
//!
//! Buffers hold their data in host memory (execution is functional) but carry
//! a unique virtual base address so the coalescing and cache models see a
//! realistic address space. Peak-byte tracking regenerates the paper's Fig. 9
//! (GPU memory consumption); capacity enforcement reproduces ParTI's
//! out-of-memory failures on the large SpMTTKRP intermediates.

use crate::faults::{self, FaultCell};
use crate::instrument;
use crate::record::AccessKind;
use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Allocation failure: the device ran out of global memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes that were requested.
    pub requested: usize,
    /// Bytes that were live at the time.
    pub live: usize,
    /// Device capacity.
    pub capacity: usize,
}

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "device out of memory: requested {} B with {} B live of {} B capacity",
            self.requested, self.live, self.capacity
        )
    }
}

impl std::error::Error for OutOfMemory {}

struct MemoryInner {
    capacity: usize,
    live: AtomicUsize,
    peak: AtomicUsize,
    next_base: AtomicUsize,
    /// Serializes the capacity check against concurrent allocations.
    alloc_lock: Mutex<()>,
    /// Live allocations by base address (`base → bytes`), the shadow map the
    /// sanitizer's out-of-bounds pass checks accesses against.
    allocations: Mutex<BTreeMap<u64, usize>>,
    /// Fault-injection slot (state plus lock-free fast flags); see
    /// [`crate::faults`].
    faults: FaultCell,
}

impl Drop for MemoryInner {
    fn drop(&mut self) {
        // A memory destroyed with an injector still installed must release
        // its claim on the global fault gate.
        if self.faults.state.get_mut().is_some() {
            faults::device_uninstalled();
        }
    }
}

/// Handle to a device's global memory.
#[derive(Clone)]
pub struct DeviceMemory {
    inner: Arc<MemoryInner>,
}

impl DeviceMemory {
    /// Creates a memory arena with the given capacity in bytes.
    pub fn new(capacity: usize) -> Self {
        DeviceMemory {
            inner: Arc::new(MemoryInner {
                capacity,
                live: AtomicUsize::new(0),
                peak: AtomicUsize::new(0),
                next_base: AtomicUsize::new(256),
                alloc_lock: Mutex::new(()),
                allocations: Mutex::new(BTreeMap::new()),
                faults: FaultCell::new(),
            }),
        }
    }

    /// Allocates a zero-initialized buffer of `len` elements.
    ///
    /// The storage is one zeroed allocation (`calloc`), so the host commits a
    /// page only once a kernel writes to it.
    pub fn alloc_zeroed<T: DeviceValue>(&self, len: usize) -> Result<DeviceBuffer<T>, OutOfMemory> {
        self.alloc_with(len, || vec![T::ZERO; len])
    }

    /// Allocates a buffer initialized from a slice (a host→device copy).
    pub fn alloc_from_slice<T: DeviceValue>(
        &self,
        data: &[T],
    ) -> Result<DeviceBuffer<T>, OutOfMemory> {
        self.alloc_with(data.len(), || data.to_vec())
    }

    /// The one construction path: decides injected failures and capacity for
    /// `len` elements first, and only then calls `storage` for the host
    /// backing (exactly `len` elements), so an over-capacity request fails
    /// before any host memory exists.
    fn alloc_with<T: DeviceValue>(
        &self,
        len: usize,
        storage: impl FnOnce() -> Vec<T>,
    ) -> Result<DeviceBuffer<T>, OutOfMemory> {
        // Saturates instead of overflowing: such a request exceeds any
        // capacity and is refused below.
        let bytes = len.saturating_mul(std::mem::size_of::<T>());
        // Fault-injection hook: a spurious allocation failure is reported as
        // a normal OutOfMemory (callers need no special handling) while the
        // injector latches an AllocFailure event so the host can tell it from
        // genuine capacity exhaustion.
        if faults::faults_active() && self.fault_alloc(bytes) {
            return Err(OutOfMemory {
                requested: bytes,
                live: self.inner.live.load(Ordering::Relaxed),
                capacity: self.inner.capacity,
            });
        }
        {
            let _guard = self.inner.alloc_lock.lock();
            let live = self.inner.live.load(Ordering::Relaxed);
            // `live <= capacity` always holds, so the subtraction cannot wrap.
            if bytes > self.inner.capacity - live {
                return Err(OutOfMemory {
                    requested: bytes,
                    live,
                    capacity: self.inner.capacity,
                });
            }
            let new_live = live + bytes;
            self.inner.live.store(new_live, Ordering::Relaxed);
            self.inner.peak.fetch_max(new_live, Ordering::Relaxed);
        }
        let data = storage();
        assert_eq!(data.len(), len, "storage length differs from the request");
        // 256-byte aligned virtual bases, like cudaMalloc. The extra 256-byte
        // gap between allocations guarantees that one-off overruns land in
        // unmapped address space, where the sanitizer's shadow check sees
        // them.
        let base = self
            .inner
            .next_base
            .fetch_add(bytes.div_ceil(256) * 256 + 256, Ordering::Relaxed);
        if bytes > 0 {
            self.inner.allocations.lock().insert(base as u64, bytes);
        }
        // Fault-injection hook: value (`f32`) regions are eligible bit-flip
        // targets; index/metadata words are modeled as parity-protected.
        if faults::faults_active() && T::FLIPPABLE {
            self.fault_register_region(base as u64, bytes);
        }
        Ok(DeviceBuffer {
            data: into_cells(data),
            base: base as u64,
            memory: Arc::clone(&self.inner),
        })
    }

    /// Snapshot of the live allocations as `(base, bytes)` pairs, sorted by
    /// base address (the sanitizer's shadow memory map).
    pub fn live_allocations(&self) -> Vec<(u64, usize)> {
        self.inner
            .allocations
            .lock()
            .iter()
            .map(|(&base, &bytes)| (base, bytes))
            .collect()
    }

    /// Bytes currently allocated.
    pub fn live_bytes(&self) -> usize {
        self.inner.live.load(Ordering::Relaxed)
    }

    /// High-water mark of allocated bytes.
    pub fn peak_bytes(&self) -> usize {
        self.inner.peak.load(Ordering::Relaxed)
    }

    /// Resets the peak to the current live bytes (to measure one phase).
    pub fn reset_peak(&self) {
        self.inner
            .peak
            .store(self.inner.live.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// The fault-injection slot shared by this memory's buffers (see
    /// [`crate::faults`] for the methods implemented on top of it).
    pub(crate) fn fault_cell(&self) -> &FaultCell {
        &self.inner.faults
    }
}

/// Types storable in device buffers.
pub trait DeviceValue: Copy + Send + Sync + 'static {
    /// The zero pattern used by [`DeviceMemory::alloc_zeroed`].
    const ZERO: Self;
    /// Whether buffers of this type are eligible ECC bit-flip targets under
    /// fault injection (value words; index/metadata words are modeled as
    /// parity-protected).
    const FLIPPABLE: bool;
    /// XORs a fault mask into the value's bit pattern (ECC-style corruption).
    fn xor_bits(self, mask: u32) -> Self;
}

impl DeviceValue for f32 {
    const ZERO: Self = 0.0;
    const FLIPPABLE: bool = true;
    fn xor_bits(self, mask: u32) -> Self {
        f32::from_bits(self.to_bits() ^ mask)
    }
}
impl DeviceValue for u32 {
    const ZERO: Self = 0;
    const FLIPPABLE: bool = false;
    fn xor_bits(self, mask: u32) -> Self {
        self ^ mask
    }
}
impl DeviceValue for u8 {
    const ZERO: Self = 0;
    const FLIPPABLE: bool = false;
    fn xor_bits(self, mask: u32) -> Self {
        self ^ (mask as u8)
    }
}

/// A typed buffer in simulated device memory.
///
/// Reads are always safe. Plain writes require the caller (the kernel) to
/// guarantee that no two threads write the same element — the same contract
/// CUDA gives global memory. For racy accumulation, `f32` buffers provide
/// [`DeviceBuffer::atomic_add_f32`], matching CUDA's `atomicAdd`.
pub struct DeviceBuffer<T: DeviceValue> {
    data: Vec<UnsafeCell<T>>,
    base: u64,
    memory: Arc<MemoryInner>,
}

impl<T: DeviceValue> std::fmt::Debug for DeviceBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceBuffer")
            .field("len", &self.data.len())
            .field("base", &self.base)
            .finish()
    }
}

// SAFETY: element disjointness for plain writes is delegated to kernels,
// exactly like real GPU global memory; concurrent reads are fine.
unsafe impl<T: DeviceValue> Send for DeviceBuffer<T> {}
// SAFETY: same contract as `Send` above — shared references only allow
// reads and the explicitly-unsafe `write`, whose caller owns disjointness.
unsafe impl<T: DeviceValue> Sync for DeviceBuffer<T> {}

impl<T: DeviceValue> DeviceBuffer<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the buffer has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Virtual device address of element `index` (for the coalescing and
    /// cache models). The one-past-the-end index is allowed, as for raw
    /// pointers, so range narration can express exclusive end addresses.
    ///
    /// # Panics
    /// If `index` is beyond one past the end of the buffer, naming the index
    /// and the buffer length.
    #[inline]
    pub fn addr(&self, index: usize) -> u64 {
        assert!(
            index <= self.data.len(),
            "DeviceBuffer address out of bounds: index {index} exceeds length {} (base {:#x})",
            self.data.len(),
            self.base
        );
        self.base + (index * std::mem::size_of::<T>()) as u64
    }

    /// Reads element `index`.
    ///
    /// # Panics
    /// If `index` is out of bounds, naming the index and the buffer length
    /// (a `cudaMemcheck`-style loud failure instead of undefined behaviour).
    #[inline]
    pub fn get(&self, index: usize) -> T {
        assert!(
            index < self.data.len(),
            "DeviceBuffer read out of bounds: index {index} >= length {} (base {:#x})",
            self.data.len(),
            self.base
        );
        instrument::functional(
            AccessKind::FunctionalRead,
            self.base + (index * std::mem::size_of::<T>()) as u64,
            std::mem::size_of::<T>() as u32,
        );
        // SAFETY: kernels never write an element that another thread reads
        // concurrently without atomics (CUDA global-memory contract).
        let value = unsafe { *self.data[index].get() };
        // Fault-injection hook: armed uncorrectable flips corrupt the read
        // until the memory is scrubbed. Gated on the same zero-cost global
        // check as recording, then a per-memory armed-flip count.
        if faults::faults_active() && self.memory.faults.flips_armed.load(Ordering::Relaxed) > 0 {
            let addr = self.base + (index * std::mem::size_of::<T>()) as u64;
            return faults::corrupt_value(&self.memory.faults, addr, value);
        }
        value
    }

    /// Writes element `index`.
    ///
    /// # Panics
    /// If `index` is out of bounds, naming the index and the buffer length.
    ///
    /// # Safety
    /// No other thread may access this element concurrently.
    #[inline]
    pub unsafe fn write(&self, index: usize, value: T) {
        assert!(
            index < self.data.len(),
            "DeviceBuffer write out of bounds: index {index} >= length {} (base {:#x})",
            self.data.len(),
            self.base
        );
        instrument::functional(
            AccessKind::FunctionalWrite,
            self.base + (index * std::mem::size_of::<T>()) as u64,
            std::mem::size_of::<T>() as u32,
        );
        // SAFETY: `index` is bounds-checked above; exclusive access to this
        // element is the caller's obligation, stated in this fn's contract.
        unsafe { *self.data[index].get() = value };
    }

    /// Copies the buffer back to host memory.
    ///
    /// One bulk copy, unless sanitizer recording is active or ECC flips are
    /// armed: then every element goes through the checked [`Self::get`], so
    /// recorded events and fault corruption are exactly those of per-element
    /// reads.
    pub fn to_vec(&self) -> Vec<T> {
        if self.checked_reads() {
            return (0..self.len()).map(|i| self.get(i)).collect();
        }
        // SAFETY: `UnsafeCell<T>` is `repr(transparent)` over `T`, so the
        // cells are `len` initialized `T`s. Downloads run between launches,
        // so no kernel writes an element while the slice is alive (the same
        // contract `get` relies on).
        unsafe { std::slice::from_raw_parts(self.data.as_ptr().cast::<T>(), self.len()) }.to_vec()
    }

    /// Downloads the buffer and frees it: releases the device bytes, the
    /// allocation-map entry and the fault region exactly as dropping it
    /// would, then hands the storage itself to the caller instead of copying
    /// it. Under recording or armed flips it is [`Self::to_vec`] followed by
    /// a drop.
    pub fn into_vec(mut self) -> Vec<T> {
        if self.checked_reads() {
            return self.to_vec();
        }
        self.release();
        // The emptied buffer's own drop then releases nothing, exactly like
        // a zero-length buffer's.
        from_cells(std::mem::take(&mut self.data))
    }

    /// True when reads must take the per-element path of [`Self::get`]:
    /// recording is active or this memory has armed ECC flips.
    fn checked_reads(&self) -> bool {
        instrument::recording_active()
            || (faults::faults_active()
                && self.memory.faults.flips_armed.load(Ordering::Relaxed) > 0)
    }

    /// Returns this buffer's bytes, allocation-map entry and fault region to
    /// the memory (the whole of freeing it).
    fn release(&self) {
        let bytes = self.bytes();
        let start = self.data.as_ptr() as usize;
        instrument::flush_atomics(start, start + bytes);
        self.memory.live.fetch_sub(bytes, Ordering::Relaxed);
        if bytes > 0 {
            self.memory.allocations.lock().remove(&self.base);
        }
        // Fault-injection hook: flips aimed at freed memory are disarmed.
        if faults::faults_active() && T::FLIPPABLE {
            faults::forget_region(&self.memory.faults, self.base, bytes);
        }
    }

    /// Bytes this buffer occupies.
    pub fn bytes(&self) -> usize {
        self.len() * std::mem::size_of::<T>()
    }
}

impl DeviceBuffer<f32> {
    /// Atomically adds `value` to element `index` (CUDA `atomicAdd` on
    /// `float`), implemented as a compare-and-swap loop on the bit pattern.
    ///
    /// Inside a launched block the add is recorded and fault-checked here
    /// but applied when the launch ends, in block-linear order (see
    /// [`GpuDevice::launch`](crate::GpuDevice::launch)), so kernels must not
    /// read an element they atomically update within the same launch.
    ///
    /// # Panics
    /// If `index` is out of bounds, naming the index and the buffer length.
    #[inline]
    pub fn atomic_add_f32(&self, index: usize, value: f32) {
        assert!(
            index < self.data.len(),
            "DeviceBuffer atomic out of bounds: index {index} >= length {} (base {:#x})",
            self.data.len(),
            self.base
        );
        instrument::functional(
            AccessKind::FunctionalAtomic,
            self.base + (index * std::mem::size_of::<f32>()) as u64,
            std::mem::size_of::<f32>() as u32,
        );
        // Fault-injection hook (after the record event fires: the hardware
        // acknowledged the transaction, then lost the write). Gated on the
        // zero-cost global check, then this launch's armed flag.
        if faults::faults_active()
            && self.memory.faults.atomics_armed.load(Ordering::Relaxed)
            && faults::drop_atomic(
                &self.memory.faults,
                self.base + (index * std::mem::size_of::<f32>()) as u64,
                value.to_bits(),
            )
        {
            return;
        }
        // SAFETY: the cell is an element of this live buffer.
        unsafe { instrument::atomic_add(self.data[index].get(), value) };
    }
}

impl<T: DeviceValue> Drop for DeviceBuffer<T> {
    fn drop(&mut self) {
        self.release();
    }
}

/// Wraps host storage as buffer cells without copying it.
fn into_cells<T>(data: Vec<T>) -> Vec<UnsafeCell<T>> {
    let mut data = std::mem::ManuallyDrop::new(data);
    // SAFETY: `UnsafeCell<T>` is `repr(transparent)` over `T` (same size and
    // alignment), so the allocation, length and capacity describe a valid
    // `Vec<UnsafeCell<T>>`; `ManuallyDrop` hands ownership over exactly once.
    unsafe {
        Vec::from_raw_parts(
            data.as_mut_ptr().cast::<UnsafeCell<T>>(),
            data.len(),
            data.capacity(),
        )
    }
}

/// Unwraps buffer cells into host storage without copying it.
fn from_cells<T>(cells: Vec<UnsafeCell<T>>) -> Vec<T> {
    let mut cells = std::mem::ManuallyDrop::new(cells);
    // SAFETY: the inverse of `into_cells`: same layout, and the caller owns
    // the cells, so no reference into them outlives the conversion.
    unsafe {
        Vec::from_raw_parts(
            cells.as_mut_ptr().cast::<T>(),
            cells.len(),
            cells.capacity(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_tracks_live_and_peak() {
        let memory = DeviceMemory::new(1 << 20);
        let a = memory.alloc_zeroed::<f32>(1000).unwrap();
        assert_eq!(memory.live_bytes(), 4000);
        {
            let _b = memory.alloc_zeroed::<u32>(500).unwrap();
            assert_eq!(memory.live_bytes(), 6000);
            assert_eq!(memory.peak_bytes(), 6000);
        }
        assert_eq!(memory.live_bytes(), 4000);
        assert_eq!(memory.peak_bytes(), 6000);
        drop(a);
        assert_eq!(memory.live_bytes(), 0);
    }

    #[test]
    fn oom_is_reported_not_panicked() {
        let memory = DeviceMemory::new(1024);
        let small = memory.alloc_zeroed::<f32>(128).unwrap();
        let err = memory.alloc_zeroed::<f32>(200).unwrap_err();
        assert_eq!(err.requested, 800);
        assert_eq!(err.live, 512);
        assert_eq!(err.capacity, 1024);
        drop(small);
        assert!(memory.alloc_zeroed::<f32>(200).is_ok());
    }

    #[test]
    fn buffers_have_disjoint_address_ranges() {
        let memory = DeviceMemory::new(1 << 20);
        let a = memory.alloc_zeroed::<f32>(100).unwrap();
        let b = memory.alloc_zeroed::<f32>(100).unwrap();
        let a_end = a.addr(99) + 4;
        assert!(b.addr(0) >= a_end, "buffer addresses overlap");
    }

    #[test]
    fn read_write_round_trip() {
        let memory = DeviceMemory::new(1 << 20);
        let buffer = memory.alloc_from_slice(&[1.0f32, 2.0, 3.0]).unwrap();
        // SAFETY: single-threaded test, no concurrent access to element 1.
        unsafe { buffer.write(1, 9.5) };
        assert_eq!(buffer.to_vec(), vec![1.0, 9.5, 3.0]);
    }

    #[test]
    fn atomic_add_from_many_threads() {
        let memory = DeviceMemory::new(1 << 20);
        let buffer = std::sync::Arc::new(memory.alloc_zeroed::<f32>(4).unwrap());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let buffer = std::sync::Arc::clone(&buffer);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        buffer.atomic_add_f32(2, 1.0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(buffer.get(2), 8000.0);
        assert_eq!(buffer.get(0), 0.0);
    }

    #[test]
    fn get_out_of_bounds_panics_loudly() {
        let memory = DeviceMemory::new(1 << 20);
        let buffer = memory.alloc_zeroed::<f32>(3).unwrap();
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| buffer.get(3))).unwrap_err();
        let message = err
            .downcast_ref::<String>()
            .expect("panic carries a message");
        assert!(message.contains("read out of bounds"), "got: {message}");
        assert!(message.contains("index 3"), "got: {message}");
        assert!(message.contains("length 3"), "got: {message}");
    }

    #[test]
    fn write_out_of_bounds_panics_loudly() {
        let memory = DeviceMemory::new(1 << 20);
        let buffer = memory.alloc_zeroed::<u32>(5).unwrap();
        // SAFETY: index 17 is out of bounds, so the call panics before any
        // write happens; no aliasing is possible.
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
            buffer.write(17, 1)
        }))
        .unwrap_err();
        let message = err
            .downcast_ref::<String>()
            .expect("panic carries a message");
        assert!(message.contains("write out of bounds"), "got: {message}");
        assert!(message.contains("index 17"), "got: {message}");
        assert!(message.contains("length 5"), "got: {message}");
    }

    #[test]
    fn atomic_add_out_of_bounds_panics_loudly() {
        let memory = DeviceMemory::new(1 << 20);
        let buffer = memory.alloc_zeroed::<f32>(2).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            buffer.atomic_add_f32(2, 1.0)
        }))
        .unwrap_err();
        let message = err
            .downcast_ref::<String>()
            .expect("panic carries a message");
        assert!(message.contains("atomic out of bounds"), "got: {message}");
        assert!(message.contains("index 2"), "got: {message}");
        assert!(message.contains("length 2"), "got: {message}");
    }

    #[test]
    fn addr_allows_one_past_end_but_not_beyond() {
        let memory = DeviceMemory::new(1 << 20);
        let buffer = memory.alloc_zeroed::<f32>(4).unwrap();
        assert_eq!(buffer.addr(4), buffer.addr(0) + 16);
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| buffer.addr(5))).unwrap_err();
        let message = err
            .downcast_ref::<String>()
            .expect("panic carries a message");
        assert!(message.contains("address out of bounds"), "got: {message}");
        assert!(message.contains("index 5"), "got: {message}");
    }

    #[test]
    fn live_allocations_tracks_alloc_and_drop() {
        let memory = DeviceMemory::new(1 << 20);
        assert!(memory.live_allocations().is_empty());
        let a = memory.alloc_zeroed::<f32>(10).unwrap();
        let b = memory.alloc_zeroed::<u8>(7).unwrap();
        let map = memory.live_allocations();
        assert_eq!(map, vec![(a.addr(0), 40), (b.addr(0), 7)]);
        drop(a);
        assert_eq!(memory.live_allocations(), vec![(b.addr(0), 7)]);
        drop(b);
        assert!(memory.live_allocations().is_empty());
    }

    #[test]
    fn zero_length_buffers_do_not_enter_shadow_map() {
        let memory = DeviceMemory::new(1 << 20);
        let empty = memory.alloc_zeroed::<f32>(0).unwrap();
        assert!(memory.live_allocations().is_empty());
        drop(empty);
        assert!(memory.live_allocations().is_empty());
    }

    #[test]
    fn over_capacity_request_fails_before_any_host_storage() {
        let memory = DeviceMemory::new(1 << 20);
        let held = memory.alloc_zeroed::<f32>(1000).unwrap();
        // 2^36 `f32`s are 256 GiB: taking host storage before the capacity
        // check would abort the process instead of returning an error.
        let err = memory.alloc_zeroed::<f32>(1 << 36).unwrap_err();
        assert_eq!(
            err,
            OutOfMemory {
                requested: 1 << 38,
                live: 4000,
                capacity: 1 << 20
            }
        );
        // A byte count beyond `usize::MAX` saturates and is refused too.
        let err = memory.alloc_zeroed::<f32>(usize::MAX).unwrap_err();
        assert_eq!(err.requested, usize::MAX);
        assert_eq!(memory.live_bytes(), 4000);
        assert_eq!(memory.peak_bytes(), 4000);
        assert_eq!(memory.live_allocations(), vec![(held.addr(0), 4000)]);
    }

    /// The per-element download the bulk paths must reproduce.
    fn checked_download<T: DeviceValue>(buffer: &DeviceBuffer<T>) -> Vec<T> {
        (0..buffer.len()).map(|i| buffer.get(i)).collect()
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn bulk_downloads_match_per_element_reads() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(13);
        let memory = DeviceMemory::new(1 << 24);
        for _ in 0..20 {
            let n = rng.gen_range(0..3000);
            // Arbitrary bit patterns, NaNs and infinities included.
            let host: Vec<f32> = (0..n).map(|_| f32::from_bits(rng.gen())).collect();
            let uploaded = memory.alloc_from_slice(&host).unwrap();
            let zeroed = memory.alloc_zeroed::<f32>(n).unwrap();
            let mut expected = vec![0.0f32; n];
            for _ in 0..n / 7 {
                let i = rng.gen_range(0..n);
                expected[i] = host[i];
                // SAFETY: single-threaded test, no concurrent access.
                unsafe { zeroed.write(i, host[i]) };
            }
            for (buffer, want) in [(uploaded, &host), (zeroed, &expected)] {
                let checked = checked_download(&buffer);
                assert_eq!(bits(&checked), bits(want));
                assert_eq!(bits(&buffer.to_vec()), bits(&checked));
                assert_eq!(bits(&buffer.into_vec()), bits(&checked));
            }
            let indices: Vec<u32> = (0..n).map(|_| rng.gen()).collect();
            let buffer = memory.alloc_from_slice(&indices).unwrap();
            assert_eq!(buffer.to_vec(), checked_download(&buffer));
            assert_eq!(buffer.into_vec(), indices);
        }
        assert_eq!(memory.live_bytes(), 0);
    }

    #[test]
    fn recorded_launch_and_download_log_per_element_events() {
        let run = |download: fn(DeviceBuffer<f32>) -> Vec<f32>| {
            let device = crate::GpuDevice::titan_x();
            let out = device.memory().alloc_zeroed::<f32>(64).unwrap();
            device.start_recording();
            device.launch((2, 1), 32, |ctx| {
                ctx.begin_warp();
                let x = ctx.block_x();
                for lane in 0..32 {
                    // SAFETY: each (block, lane) pair writes its own element.
                    unsafe { out.write(x * 32 + lane, (x * 32 + lane) as f32) };
                }
            });
            let values = download(out);
            let log = device.stop_recording();
            (bits(&values), format!("{log:?}"))
        };
        let checked = run(|buffer| checked_download(&buffer));
        assert!(
            checked.1.contains("FunctionalWrite"),
            "nothing was recorded"
        );
        assert_eq!(run(|buffer| buffer.to_vec()), checked);
        assert_eq!(run(DeviceBuffer::into_vec), checked);
    }

    #[test]
    fn into_vec_releases_exactly_what_drop_releases() {
        // Two memories see the same allocations; one frees by dropping, the
        // other by consuming downloads.
        let run = |consume: bool| {
            let memory = DeviceMemory::new(1 << 20);
            let kept = memory.alloc_zeroed::<u32>(10).unwrap();
            let values = memory.alloc_from_slice(&[1.5f32, -2.0, 3.25]).unwrap();
            let empty = memory.alloc_zeroed::<u8>(0).unwrap();
            let peak = memory.peak_bytes();
            if consume {
                assert_eq!(values.into_vec(), vec![1.5, -2.0, 3.25]);
                assert!(empty.into_vec().is_empty());
            } else {
                drop(values);
                drop(empty);
            }
            assert_eq!(memory.peak_bytes(), peak);
            let after = (memory.live_bytes(), memory.live_allocations());
            drop(kept);
            assert_eq!(memory.live_bytes(), 0);
            assert!(memory.live_allocations().is_empty());
            after
        };
        let dropped = run(false);
        assert_eq!(dropped.0, 40);
        assert_eq!(dropped.1.len(), 1);
        assert_eq!(run(true), dropped);
    }

    #[test]
    fn reset_peak_rebases_to_live() {
        let memory = DeviceMemory::new(1 << 20);
        {
            let _big = memory.alloc_zeroed::<f32>(10_000).unwrap();
        }
        assert_eq!(memory.peak_bytes(), 40_000);
        memory.reset_peak();
        assert_eq!(memory.peak_bytes(), 0);
    }
}
