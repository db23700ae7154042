//! Host measurements: the STREAM-triad bandwidth roof and peak memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::time::Instant;

/// Last-level cache of the reference machine (Xeon, 105 MiB L3). The triad
/// arrays are sized well past it so the probe measures DRAM, not cache.
pub const LLC_BYTES: usize = 105 << 20;

/// Elements per triad array: 448 MiB of f64, 4.3× the LLC per array and
/// 1.3 GiB for the three.
pub const STREAM_LEN: usize = 56 << 20;
const _: () = assert!(STREAM_LEN * 8 >= 4 * LLC_BYTES);

/// STREAM triad `a[i] = b[i] + s·c[i]` bandwidth in GB/s (10^9 bytes/s,
/// 24 bytes per element as STREAM counts them), best of `reps`, for each
/// thread count in `threads`. The arrays are allocated and first touched
/// once and shared by every thread count.
pub fn stream_triad_gb_s(len: usize, threads: &[usize], reps: usize) -> Vec<f64> {
    let mut a = vec![0f64; len];
    let b = vec![1f64; len];
    let c = vec![2f64; len];
    // One untimed pass faults in `a`'s pages (b and c were written above).
    triad(
        &mut a,
        &b,
        &c,
        3.0,
        threads.iter().copied().max().unwrap_or(1),
    );
    threads
        .iter()
        .map(|&t| {
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                let start = Instant::now();
                triad(&mut a, &b, &c, 3.0, t);
                best = best.min(start.elapsed().as_secs_f64());
            }
            std::hint::black_box(&a);
            24.0 * len as f64 / best / 1e9
        })
        .collect()
}

/// One triad pass split into `threads` contiguous ranges.
fn triad(a: &mut [f64], b: &[f64], c: &[f64], s: f64, threads: usize) {
    let per = a.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        for ((a, b), c) in a.chunks_mut(per).zip(b.chunks(per)).zip(c.chunks(per)) {
            scope.spawn(move || {
                for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
                    *x = y + s * z;
                }
            });
        }
    });
}

/// The system allocator, counting the bytes it holds for the program.
///
/// The benchmark binary installs it as its global allocator, so peak memory
/// is the program's own high-water mark of live heap bytes. The resident
/// set (`VmHWM`) is not used: how much freed memory glibc keeps mapped
/// depends on thread timing (bfs-road read 105 to 143 MiB by run).
pub struct CountingAlloc;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// Net bytes a thread allocates or frees before it adds them to `LIVE`. A
/// shared counter touched on every allocation costs two threads about
/// 140 ns per allocation in cache-line transfers; gathered per thread, the
/// peak reads low by at most this much per thread.
const BATCH: isize = 64 << 10;

/// A thread's bytes not yet added to `LIVE`; added when the thread exits.
struct Pending(Cell<isize>);

impl Drop for Pending {
    fn drop(&mut self) {
        publish(self.0.replace(0));
    }
}

thread_local! {
    static PENDING: Pending = const { Pending(Cell::new(0)) };
}

fn publish(delta: isize) {
    if delta == 0 {
        return;
    }
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

/// Records `delta` live bytes: gathered per thread, published in batches
/// (directly while the thread's local storage is being torn down).
fn note(delta: isize) {
    let due = PENDING.try_with(|p| {
        let d = p.0.get() + delta;
        if d.abs() < BATCH {
            p.0.set(d);
            0
        } else {
            p.0.set(0);
            d
        }
    });
    publish(due.unwrap_or(delta));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters only observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's layout.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's layout.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        note(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from this allocator with `layout`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Peak live heap bytes so far, in MiB; 0 unless [`CountingAlloc`] is the
/// global allocator.
pub fn peak_heap_mib() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1 << 20) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triad_is_positive_and_the_counter_tracks_the_peak() {
        let bw = stream_triad_gb_s(1 << 16, &[1, 2], 2);
        assert_eq!(bw.len(), 2);
        assert!(bw.iter().all(|&x| x > 0.0 && x.is_finite()));
        let layout = Layout::from_size_align(3 << 20, 8).unwrap();
        // SAFETY: a non-zero layout, freed with the same layout.
        unsafe { CountingAlloc.dealloc(CountingAlloc.alloc(layout), layout) };
        assert!(peak_heap_mib() >= 3.0);
    }
}
