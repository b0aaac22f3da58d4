//! The allocator policy of a materialising executor: keep freed heap.
//!
//! Every intermediate relation of this engine is one small heap allocation
//! per row, so a query over a witness fan-out allocates tens of megabytes
//! and frees all of it when its result is dropped. glibc's answer to a free
//! top-of-heap above its trim threshold (128 KiB, adapting to a few MiB
//! here) is to hand the pages back to the kernel at once — and the next
//! query faults every one of them in again. On the benchmark's
//! `spill_budget` workload that was 480 000 – 900 000 minor faults per 7 s
//! run against 19 000 without the trimming, all of it system time inside
//! the join and the projection that fill the fresh pages. Nor was it
//! steady: whether a process trims its whole heap or only the upper half
//! depends on which freed chunk happens to sit in a thread cache below the
//! top, so identical runs fell into one of two modes, 10 ms apart on every
//! execution of the largest kind — 4 % of it while its sort ran above the
//! fan-out (240 ms), 20 % once the sort ran below (50 ms).
//!
//! A serving process runs its next query a moment later, so the engine asks
//! glibc, once per process, to keep up to [`RETAINED_HEAP_BYTES`] of freed
//! top-of-heap (`mallopt(M_TRIM_THRESHOLD, …)`). Peak memory is what it was
//! — the peak is the peak either way — and a burst above the limit is still
//! returned. With any other platform or C library this is a no-op. It is
//! the workspace's only `unsafe` block: one foreign call, two integers. The
//! compiler holds it to that: every other library crate forbids
//! `unsafe_code`, and `perm-exec` denies it everywhere but here.
//!
//! Re-measured once joins built each witness row once and a fan-out query
//! freed ~24 MB instead of ~60 MB (ten 15 s `spill_budget` runs each way):
//! 19 450 minor faults, 0.24 s system time and 146 queries/s with this
//! policy; 2.1 M, 3.2 s and 108 without. It stays.

use std::sync::Once;

/// Freed top-of-heap the process keeps instead of returning it to the
/// kernel; what a burst above it frees is trimmed as before.
pub(crate) const RETAINED_HEAP_BYTES: i32 = 1 << 30;

/// Installs the policy of this module; idempotent, and free after the
/// first call. `Executor::new` calls it — the one door every execution goes
/// through, on whichever thread.
pub(crate) fn retain_freed_heap() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        // A refused setting leaves glibc's default in place: slower, not
        // wrong.
        set_trim_threshold(RETAINED_HEAP_BYTES);
    });
}

/// Whether the allocator took the setting.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[allow(unsafe_code)]
fn set_trim_threshold(bytes: i32) -> bool {
    use std::ffi::c_int;
    /// `M_TRIM_THRESHOLD` of `<malloc.h>`.
    const M_TRIM_THRESHOLD: c_int = -1;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    // SAFETY: `mallopt` is a thread-safe glibc entry point that takes two
    // integers by value and touches no memory of ours.
    unsafe { mallopt(M_TRIM_THRESHOLD, bytes) == 1 }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn set_trim_threshold(_bytes: i32) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_policy_installs_and_repeats() {
        retain_freed_heap();
        retain_freed_heap();
        #[cfg(all(target_os = "linux", target_env = "gnu"))]
        assert!(set_trim_threshold(RETAINED_HEAP_BYTES));
    }
}
