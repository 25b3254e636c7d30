//! Shard-to-core pinning via `sched_setaffinity`.
//!
//! Pinning stops the scheduler migrating a worker between cores
//! mid-run, which would drag its cache-warm pipeline state and ring
//! lines along with it. It is opt-in
//! ([`EngineConfig::pin_cores`](crate::engine::EngineConfig::pin_cores)):
//! on a busy or oversubscribed machine pinning can *hurt* by stacking
//! shards behind other load on the chosen core, so the default leaves
//! placement to the OS.
//!
//! This is the one place the crate steps outside safe Rust: there is no
//! std API for CPU affinity and the workspace vendors no libc binding,
//! so the raw syscall wrapper is declared here, in the smallest
//! possible scope (`deny(unsafe_code)` guards the rest of the crate).
//! Non-Linux builds compile the same public function and simply report
//! failure.

/// Pins the *calling thread* to `core` (0-based). Returns `true` on
/// success; `false` when the OS refuses (core offline or outside the
/// process's cpuset) or the platform does not support pinning — callers
/// treat failure as "run unpinned", never as an error.
pub fn pin_to_core(core: usize) -> bool {
    imp::pin_to_core(core)
}

#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod imp {
    extern "C" {
        /// glibc/musl wrapper for the `sched_setaffinity(2)` syscall.
        /// `pid == 0` targets the calling thread.
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn pin_to_core(core: usize) -> bool {
        // A fixed 1024-bit mask (16 × u64), the kernel's traditional
        // cpu_set_t width; cores beyond it are refused, not truncated.
        let mut mask = [0u64; 16];
        let Some(word) = mask.get_mut(core / 64) else {
            return false;
        };
        *word = 1u64 << (core % 64);
        // SAFETY: the mask outlives the call, the length matches the
        // buffer, and the syscall only reads from the pointer.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
        rc == 0
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn pin_to_core(_core: usize) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_to_core_zero_succeeds_on_linux() {
        // Core 0 exists on every machine; off Linux the call must fail
        // gracefully rather than pretend.
        assert_eq!(pin_to_core(0), cfg!(target_os = "linux"));
    }

    #[test]
    fn absurd_core_is_refused_not_ub() {
        assert!(!pin_to_core(1 << 20), "mask width exceeded");
    }
}
