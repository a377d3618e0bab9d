//! Best-effort physical CPU pinning.
//!
//! The paper binds threads to cores for stable results (a standard
//! evaluation practice it cites from many lock papers). On Linux we
//! use `sched_setaffinity(2)` directly; on other platforms pinning is
//! a no-op and the emulation still works (virtual-core identity is
//! what drives behaviour, not the physical placement).

/// Pin the calling thread to the given OS CPU. Returns `true` on
/// success, `false` when pinning is unsupported or fails (e.g. the
/// CPU does not exist inside a restricted cgroup).
///
/// The process-wide wait policy ([`crate::relax::yields_every_poll`])
/// is resolved from the calling thread's affinity mask the first time
/// it is asked, so it is resolved here, before the mask narrows to one
/// CPU and would make a multi-core process look single-core.
pub fn pin_to_cpu(os_cpu: usize) -> bool {
    crate::relax::yields_every_poll();
    #[cfg(target_os = "linux")]
    {
        if os_cpu >= libc::CPU_SETSIZE as usize {
            return false;
        }
        unsafe {
            let mut set: libc::cpu_set_t = std::mem::zeroed();
            libc::CPU_ZERO(&mut set);
            libc::CPU_SET(os_cpu, &mut set);
            libc::sched_setaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &set) == 0
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = os_cpu;
        false
    }
}

/// Number of CPUs visible to this process.
pub fn online_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// True when running `threads` busy threads exceeds the CPUs available
/// to this process. Under oversubscription, wall-clock timing and
/// short-run fairness of spinning locks are dominated by the OS
/// scheduler (a preempted holder stalls everyone for a quantum), so
/// tests gate their timing/fairness assertions on this.
pub fn oversubscribed(threads: usize) -> bool {
    threads > online_cpus()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_cpus_positive() {
        assert!(online_cpus() >= 1);
    }

    #[test]
    fn pin_to_cpu0_usually_works_on_linux() {
        // CPU 0 exists almost everywhere; tolerate failure in odd
        // sandboxes but exercise the call.
        let _ = pin_to_cpu(0);
    }

    #[test]
    fn pin_to_absurd_cpu_fails() {
        assert!(!pin_to_cpu(100_000));
    }
}
