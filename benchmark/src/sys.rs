//! Process accounting: on-CPU time and the resident-set high-water mark
//! straight from `/proc` (no libc), and the heap's high-water mark from a
//! counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting live bytes and their high-water mark.
///
/// `VmHWM` on this box takes one of three values (50, 56 or 77 MB on
/// `mem_exec`) from one process to the next of the same seed, depending on
/// what glibc happens to keep mapped; the bytes the engine has *asked for*
/// do not. The counters are statistics and publish no other data, hence
/// `Relaxed`.
pub struct CountingAllocator {
    live: AtomicUsize,
    peak: AtomicUsize,
}

#[global_allocator]
pub static HEAP: CountingAllocator =
    CountingAllocator { live: AtomicUsize::new(0), peak: AtomicUsize::new(0) };

impl CountingAllocator {
    fn grew(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    /// Start a new high-water mark from what is live now.
    pub fn restart_peak(&self) {
        self.peak.store(self.live.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Most bytes live at once since the last [`Self::restart_peak`].
    pub fn peak_bytes(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters never influence what is returned.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout is passed through as is.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            self.grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout, via `alloc` above.
        unsafe { System.dealloc(ptr, layout) };
        self.live.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            self.grew(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` and `layout` describe a live block from this allocator,
        // and the caller guarantees `new_size` is valid for `layout.align()`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                self.grew(new_size - layout.size());
            } else {
                self.live.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        new
    }
}

/// Reads this thread's cumulative on-CPU nanoseconds from
/// `/proc/self/schedstat`. The harness runs every workload on one thread,
/// so the main task's figure is the process's. The file is opened once;
/// each sample is one `pread`, cheap enough to take around every op.
pub struct CpuClock {
    file: Option<File>,
}

impl CpuClock {
    pub fn open() -> CpuClock {
        CpuClock { file: File::open("/proc/self/schedstat").ok() }
    }

    /// Cumulative on-CPU nanoseconds, or 0 where `/proc` has no schedstat.
    pub fn now_ns(&self) -> u64 {
        let Some(file) = &self.file else { return 0 };
        let mut buf = [0u8; 96];
        let n = file.read_at(&mut buf, 0).unwrap_or(0);
        parse_first_u64(&buf[..n])
    }
}

fn parse_first_u64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .fold(0u64, |acc, b| acc.wrapping_mul(10).wrapping_add(u64::from(b - b'0')))
}

/// `VmHWM` (peak resident set) in MB, or 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_status_kb(&status, "VmHWM:") as f64 / 1024.0
}

/// Ask the kernel to restart the resident-set high-water mark from the
/// current RSS, so [`peak_rss_mb`] is the timed section's peak and not the
/// set-up's. Not every sandbox allows it; the run records whether it did.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn parse_status_kb(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .map(|rest| parse_first_u64(rest.trim_start().as_bytes()))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_formats() {
        assert_eq!(parse_first_u64(b"123456789 42 7\n"), 123_456_789);
        assert_eq!(parse_first_u64(b""), 0);
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM:"), 20_480);
        assert_eq!(parse_status_kb(status, "VmSwap:"), 0);
    }

    #[test]
    fn heap_peak_follows_the_largest_live_allocation() {
        HEAP.restart_peak();
        let base = HEAP.peak_bytes();
        let big = vec![1u8; 8 << 20];
        std::hint::black_box(&big);
        drop(big);
        let small = vec![1u8; 1 << 20];
        std::hint::black_box(&small);
        let grown = HEAP.peak_bytes() - base;
        // other tests allocate concurrently; they are small next to 8 MB
        assert!((8 << 20..12 << 20).contains(&grown), "{grown}");
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let clock = CpuClock::open();
        let before = clock.now_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let after = clock.now_ns();
        // schedstat may be absent in a sandbox; when present it must be monotone
        assert!(after >= before);
        assert!(peak_rss_mb() >= 0.0);
    }
}
