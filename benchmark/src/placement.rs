//! Fixed thread placement for the service workloads.
//!
//! On a two-core host the kernel sometimes packs the generator thread and
//! the service's pool worker onto one core and sometimes spreads them, and
//! keeps whichever it chose for minutes. `svc_hot_8r` hands every job from
//! one thread to the other, so it ran at 88 k jobs/s packed and 65 k spread:
//! two stable modes, no run-to-run noise inside either, and nothing in
//! between, which is unusable as a yardstick. The benchmark therefore fixes the
//! placement a multi-core deployment has: the generator on the first
//! allowed CPU, every thread the service spawns on the others.
//!
//! Affinity is inherited at thread creation, so no access to the service's
//! threads is needed: narrow the creating thread, create, narrow it again.
//! With one allowed CPU, or where the kernel refuses, nothing is pinned and
//! the run says so.

use std::sync::OnceLock;

/// 1024 CPUs, the kernel's default `cpu_set_t`.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
mod sys {
    use super::CpuSet;

    extern "C" {
        // glibc, which std already links: sched_setaffinity(2) / sched_getaffinity(2).
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    }

    pub fn get() -> Option<CpuSet> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a live, writable buffer of exactly the size passed;
        // pid 0 names the calling thread; the call writes at most that many bytes.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        (rc == 0).then_some(set)
    }

    pub fn set(set: &CpuSet) -> bool {
        // SAFETY: `set` is a live buffer of exactly the size passed and is only
        // read; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::CpuSet;

    pub fn get() -> Option<CpuSet> {
        None
    }

    pub fn set(_: &CpuSet) -> bool {
        false
    }
}

fn mask_of(cpus: &[usize]) -> CpuSet {
    let mut set: CpuSet = [0; 16];
    for &c in cpus {
        set[c / 64] |= 1 << (c % 64);
    }
    set
}

fn cpus_of(set: &CpuSet) -> Vec<usize> {
    (0..set.len() * 64)
        .filter(|c| set[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// The CPUs this process may use, split between the generator and the
/// service's threads.
pub struct Placement {
    generator: Vec<usize>,
    workers: Vec<usize>,
}

impl Placement {
    /// The process's placement, read from the affinity mask on first use -
    /// that is, before this module has narrowed any thread.
    pub fn get() -> &'static Placement {
        static PLACEMENT: OnceLock<Placement> = OnceLock::new();
        PLACEMENT.get_or_init(Placement::detect)
    }

    fn detect() -> Self {
        let allowed = sys::get().map(|s| cpus_of(&s)).unwrap_or_default();
        match allowed.split_first() {
            Some((&first, rest)) if !rest.is_empty() => Placement {
                generator: vec![first],
                workers: rest.to_vec(),
            },
            _ => Placement {
                generator: Vec::new(),
                workers: Vec::new(),
            },
        }
    }

    /// Run `create` - which spawns the service's threads - confined to the
    /// worker CPUs, then confine the calling (generator) thread to its own.
    /// Returns what `create` built and whether both pins took.
    pub fn split<R>(&self, create: impl FnOnce() -> R) -> (R, bool) {
        if self.workers.is_empty() {
            return (create(), false);
        }
        let for_workers = sys::set(&mask_of(&self.workers));
        let built = create();
        let for_generator = sys::set(&mask_of(&self.generator));
        (built, for_workers && for_generator)
    }

    pub fn describe(&self, pinned: bool) -> String {
        if pinned {
            format!(
                "placement: generator on cpu {:?}, service threads on cpu {:?}",
                self.generator, self.workers
            )
        } else {
            "placement: UNPINNED (one allowed CPU, or the kernel refused): expect two throughput modes".into()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_round_trip() {
        let cpus = vec![0, 1, 63, 64, 130];
        assert_eq!(cpus_of(&mask_of(&cpus)), cpus);
        assert_eq!(cpus_of(&mask_of(&[])), Vec::<usize>::new());
    }

    #[test]
    fn threads_created_inside_split_inherit_the_worker_cpus() {
        let restore = sys::get();
        let p = Placement::detect();
        let (seen, pinned) = p.split(|| {
            std::thread::spawn(|| sys::get().map(|s| cpus_of(&s)))
                .join()
                .expect("probe thread")
        });
        if pinned {
            assert_eq!(seen, Some(p.workers.clone()));
            assert_eq!(sys::get().map(|s| cpus_of(&s)), Some(p.generator.clone()));
        }
        if let Some(mask) = restore {
            sys::set(&mask);
        }
    }
}
