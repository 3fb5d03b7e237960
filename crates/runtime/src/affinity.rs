//! CPU affinity for stage-pool workers.
//!
//! Hercules' CPU sizing assumes each inference worker owns its cores; on a
//! multi-socket host the embedding arenas additionally want their pages
//! first-touched by the threads that will gather from them (NUMA locality).
//! This module provides a thin, dependency-free shim over the Linux
//! `sched_setaffinity` syscall (declared directly against glibc — the
//! workspace deliberately has no registry dependencies) plus a deterministic
//! core-assignment plan. On non-Linux targets every pin is a graceful no-op
//! that reports `false`, and the runtime falls back to OS scheduling.

/// How the wall-clock executor places its stage-pool workers on cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PinPolicy {
    /// Leave thread placement to the OS scheduler (the seed behaviour).
    None,
    /// Pin workers to distinct cores in pool order — front pool first (it
    /// owns the memory-bound gathers and first-touches the embedding
    /// arenas), then back pool, then GPU proxy workers — wrapping when the
    /// pools oversubscribe the machine.
    Compact,
}

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t` as glibc lays it out: 1024 bits of cpu mask.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct CpuSet(pub [u64; 16]);

    impl CpuSet {
        pub fn empty() -> Self {
            CpuSet([0; 16])
        }

        pub fn set(&mut self, cpu: usize) {
            if cpu < 1024 {
                self.0[cpu / 64] |= 1u64 << (cpu % 64);
            }
        }

        pub fn is_set(&self, cpu: usize) -> bool {
            cpu < 1024 && self.0[cpu / 64] & (1u64 << (cpu % 64)) != 0
        }
    }

    extern "C" {
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        pub fn sched_getcpu() -> i32;
    }
}

/// Pins the calling thread to `core`. Returns `false` when the kernel
/// refuses (offline core, cgroup cpuset restriction) or the target OS has
/// no affinity support — callers treat that as "run unpinned", never as an
/// error.
#[cfg(target_os = "linux")]
pub fn pin_current_thread(core: usize) -> bool {
    let mut set = sys::CpuSet::empty();
    set.set(core);
    // SAFETY: `set` is a live `CpuSet`, which has the kernel's `cpu_set_t`
    // size and layout (`repr(C)`, 1024 bits), and the size passed is
    // exactly its own, so the kernel reads only inside it. pid 0 targets
    // the calling thread.
    unsafe { sys::sched_setaffinity(0, std::mem::size_of::<sys::CpuSet>(), &set) == 0 }
}

/// Pins the calling thread to `core` (no-op off Linux; always `false`).
#[cfg(not(target_os = "linux"))]
pub fn pin_current_thread(_core: usize) -> bool {
    false
}

/// The core the calling thread is currently executing on, when the OS can
/// tell us.
#[cfg(target_os = "linux")]
pub fn current_core() -> Option<usize> {
    // SAFETY: `sched_getcpu` takes no arguments and touches no memory of
    // ours; it returns the calling thread's core, or -1.
    let cpu = unsafe { sys::sched_getcpu() };
    (cpu >= 0).then_some(cpu as usize)
}

/// The core the calling thread is currently executing on (unknown off
/// Linux).
#[cfg(not(target_os = "linux"))]
pub fn current_core() -> Option<usize> {
    None
}

/// Cores this process is allowed to run on, in ascending order. Respects
/// cgroup/cpuset restrictions (a container limited to one core reports one
/// core, not the host's count). Falls back to `0..available_parallelism`
/// when the mask cannot be read.
pub fn online_cores() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut set = sys::CpuSet::empty();
        // SAFETY: `set` is a live, writable `CpuSet`, which has the
        // kernel's `cpu_set_t` size and layout, and the size passed is
        // exactly its own, so the kernel writes only inside it.
        let rc = unsafe { sys::sched_getaffinity(0, std::mem::size_of::<sys::CpuSet>(), &mut set) };
        if rc == 0 {
            let cores: Vec<usize> = (0..1024).filter(|&c| set.is_set(c)).collect();
            if !cores.is_empty() {
                return cores;
            }
        }
    }
    let n = std::thread::available_parallelism().map_or(1, |n| n.get());
    (0..n).collect()
}

/// Deterministic worker→core assignment for the three stage pools.
///
/// Under [`PinPolicy::Compact`] the allowed cores are dealt out in pool
/// order (front, back, GPU proxies), wrapping modulo the core count when
/// the pools oversubscribe the machine. Under [`PinPolicy::None`] every
/// pool's list is empty and workers run wherever the OS puts them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorePlan {
    /// Core per front-pool worker (index = worker id).
    pub front: Vec<usize>,
    /// Core per back-pool worker.
    pub back: Vec<usize>,
    /// Core per GPU proxy worker.
    pub gpu: Vec<usize>,
}

impl CorePlan {
    /// Builds the assignment for `front`/`back`/`gpu` workers over the
    /// process's allowed cores.
    pub fn plan(policy: PinPolicy, front: usize, back: usize, gpu: usize) -> Self {
        match policy {
            PinPolicy::None => CorePlan {
                front: Vec::new(),
                back: Vec::new(),
                gpu: Vec::new(),
            },
            PinPolicy::Compact => Self::plan_over(&online_cores(), front, back, gpu),
        }
    }

    /// Assignment over an explicit core list (testable without the OS).
    pub fn plan_over(cores: &[usize], front: usize, back: usize, gpu: usize) -> Self {
        if cores.is_empty() {
            return CorePlan {
                front: Vec::new(),
                back: Vec::new(),
                gpu: Vec::new(),
            };
        }
        let mut next = 0usize;
        let mut deal = |n: usize| -> Vec<usize> {
            (0..n)
                .map(|_| {
                    let c = cores[next % cores.len()];
                    next += 1;
                    c
                })
                .collect()
        };
        let front = deal(front);
        let back = deal(back);
        let gpu = deal(gpu);
        CorePlan { front, back, gpu }
    }

    /// Core for front worker `i`, when the plan pins.
    pub fn front_core(&self, i: usize) -> Option<usize> {
        self.front.get(i).copied()
    }

    /// Core for back worker `i`, when the plan pins.
    pub fn back_core(&self, i: usize) -> Option<usize> {
        self.back.get(i).copied()
    }

    /// Core for GPU proxy worker `i`, when the plan pins.
    pub fn gpu_core(&self, i: usize) -> Option<usize> {
        self.gpu.get(i).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_plan_deals_in_pool_order_and_wraps() {
        let plan = CorePlan::plan_over(&[0, 1, 2, 3], 2, 2, 2);
        assert_eq!(plan.front, vec![0, 1]);
        assert_eq!(plan.back, vec![2, 3]);
        assert_eq!(plan.gpu, vec![0, 1], "oversubscription wraps");
        assert_eq!(plan.front_core(0), Some(0));
        assert_eq!(plan.gpu_core(5), None);
    }

    #[test]
    fn none_policy_and_empty_cores_pin_nothing() {
        let plan = CorePlan::plan(PinPolicy::None, 4, 4, 1);
        assert!(plan.front.is_empty() && plan.back.is_empty() && plan.gpu.is_empty());
        let plan = CorePlan::plan_over(&[], 4, 4, 1);
        assert!(plan.front.is_empty());
    }

    #[test]
    fn online_cores_nonempty_sorted() {
        let cores = online_cores();
        assert!(!cores.is_empty());
        assert!(cores.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn pinning_to_an_allowed_core_roundtrips_on_linux() {
        let cores = online_cores();
        let target = cores[0];
        let pinned = pin_current_thread(target);
        if cfg!(target_os = "linux") {
            assert!(pinned, "pin to an allowed core should succeed");
            if let Some(now) = current_core() {
                assert_eq!(now, target);
            }
        } else {
            assert!(!pinned);
        }
        // Absurd core id: must fail gracefully, not panic.
        assert!(!pin_current_thread(100_000));
    }
}
