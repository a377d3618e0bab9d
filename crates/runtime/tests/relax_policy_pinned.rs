//! The wait policy is per process, not per pinned thread.
//!
//! `relax::yields_every_poll` caches its answer the first time it is
//! asked, and `available_parallelism` reads the calling thread's
//! affinity mask. A thread that pins itself before anything asked must
//! still get the answer for the CPUs the process may use. This lives in
//! its own test binary so that no other test resolves the policy first.

use asl_runtime::affinity::pin_to_cpu;
use asl_runtime::relax::yields_every_poll;

#[test]
fn pinning_first_does_not_narrow_the_relax_policy() {
    let unpinned_single = std::thread::available_parallelism()
        .map(|n| n.get() <= 1)
        .unwrap_or(true);
    let pinned = (0..1024).any(pin_to_cpu);
    if pinned {
        assert_eq!(
            std::thread::available_parallelism().map(|n| n.get()).ok(),
            Some(1),
            "pinning should narrow this thread's mask to one CPU"
        );
    }
    assert_eq!(yields_every_poll(), unpinned_single);
}
