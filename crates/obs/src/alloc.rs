//! Opt-in resource accounting: a counting global allocator and the
//! scrape-side stats it feeds.
//!
//! With the `alloc` feature, `CountingAlloc` wraps the system allocator
//! and keeps four relaxed atomics — live bytes, peak live bytes, total
//! allocations, total bytes — that the registry exposes as
//! `snet_mem_live_bytes`, `snet_mem_peak_bytes`, `snet_alloc_total`,
//! and `snet_alloc_bytes_total`. A binary opts in with:
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: snet_obs::alloc::CountingAlloc = snet_obs::alloc::CountingAlloc;
//! ```
//!
//! Without the feature, [`stats`] returns `None` and nothing is
//! instrumented; the accounting costs two `fetch_add`s and a
//! `fetch_max` per allocation when on, zero when off.

/// A point-in-time copy of the allocator counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Bytes currently allocated and not yet freed.
    pub live_bytes: u64,
    /// High-water mark of `live_bytes`.
    pub peak_bytes: u64,
    /// Allocations performed since process start.
    pub total_allocs: u64,
    /// Bytes allocated since process start (frees do not subtract).
    pub total_bytes: u64,
}

#[cfg(feature = "alloc")]
mod imp {
    use super::AllocStats;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static LIVE: AtomicU64 = AtomicU64::new(0);
    static PEAK: AtomicU64 = AtomicU64::new(0);
    static TOTAL_ALLOCS: AtomicU64 = AtomicU64::new(0);
    static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);

    /// The counting allocator. Zero-sized; install with
    /// `#[global_allocator]`.
    pub struct CountingAlloc;

    fn on_alloc(size: usize) {
        let size = size as u64;
        TOTAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
        TOTAL_BYTES.fetch_add(size, Ordering::Relaxed);
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            // SAFETY: forwards this call's own contract to `System`.
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() {
                on_alloc(layout.size());
            }
            p
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            // SAFETY: forwards this call's own contract to `System`.
            let p = unsafe { System.alloc_zeroed(layout) };
            if !p.is_null() {
                on_alloc(layout.size());
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` through this allocator
            // with `layout`, as `dealloc`'s caller guarantees.
            unsafe { System.dealloc(ptr, layout) };
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // SAFETY: `ptr` came from `System` through this allocator
            // with `layout`, as `realloc`'s caller guarantees.
            let p = unsafe { System.realloc(ptr, layout, new_size) };
            if !p.is_null() {
                let old = layout.size() as u64;
                let new = new_size as u64;
                TOTAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
                TOTAL_BYTES.fetch_add(new.saturating_sub(old), Ordering::Relaxed);
                if new >= old {
                    let live = LIVE.fetch_add(new - old, Ordering::Relaxed) + (new - old);
                    PEAK.fetch_max(live, Ordering::Relaxed);
                } else {
                    LIVE.fetch_sub(old - new, Ordering::Relaxed);
                }
            }
            p
        }
    }

    pub fn stats() -> Option<AllocStats> {
        Some(AllocStats {
            live_bytes: LIVE.load(Ordering::Relaxed),
            peak_bytes: PEAK.load(Ordering::Relaxed),
            total_allocs: TOTAL_ALLOCS.load(Ordering::Relaxed),
            total_bytes: TOTAL_BYTES.load(Ordering::Relaxed),
        })
    }
}

#[cfg(feature = "alloc")]
pub use imp::CountingAlloc;

/// Current allocator counters; `None` unless the `alloc` feature is
/// enabled (the counters read zero until a binary actually installs
/// `CountingAlloc` as its global allocator).
pub fn stats() -> Option<AllocStats> {
    #[cfg(feature = "alloc")]
    {
        imp::stats()
    }
    #[cfg(not(feature = "alloc"))]
    {
        None
    }
}
