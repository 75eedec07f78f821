//! CPU affinity for the single-client workloads.
//!
//! A closed-loop client and a daemon ping-ponging over a pipe run either on
//! one CPU (the wake-up is a context switch) or on two (every wake-up
//! pulls the other CPU out of idle — on a virtual machine, a `HLT` exit
//! and an interrupt, several times the cost of a read). The scheduler
//! picks one and sticks to it for minutes, then flips: the same binary
//! reads 45 µs in one run and 130 µs in the next. Pinning the client
//! thread — and the daemons it spawns, which inherit the mask — to one CPU
//! takes that choice away. So is `cold_collab_par`, whose two workers
//! would otherwise need both CPUs of a shared two-CPU host to themselves;
//! only `serve_mixed`, which waits on the network most of the time, stays
//! unpinned.

extern "C" {
    /// glibc's wrapper of `sched_setaffinity(2)`; `pid` 0 is the calling
    /// thread, `mask` points to `cpusetsize` bytes of CPU bits.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Parses a `Cpus_allowed_list` value such as `0-1,4,6-7`.
pub fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let (lo, hi): (usize, usize) = (lo.trim().parse().ok()?, hi.trim().parse().ok()?);
        if lo > hi || hi >= 4096 {
            return None;
        }
        cpus.extend(lo..=hi);
    }
    (!cpus.is_empty()).then_some(cpus)
}

/// The CPUs the calling thread may run on.
fn allowed_cpus() -> Option<Vec<usize>> {
    let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
    let line = status
        .lines()
        .find(|l| l.starts_with("Cpus_allowed_list:"))?;
    parse_cpu_list(line.split_once(':')?.1)
}

/// Restricts the calling thread to `cpus`. False when the kernel refuses.
fn set_affinity(cpus: &[usize]) -> bool {
    let Some(&max) = cpus.iter().max() else {
        return false;
    };
    let mut mask = vec![0u64; max / 64 + 1];
    for &cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live allocation of exactly `mask.len() * 8` bytes,
    // which is the size passed; the call only reads it. Pid 0 names the
    // calling thread, so no other thread's state is touched.
    unsafe { sched_setaffinity(0, mask.len() * 8, mask.as_ptr()) == 0 }
}

/// While alive, the calling thread (and every process it spawns) is
/// restricted to one CPU; dropping restores the previous set.
pub struct Pinned {
    restore: Vec<usize>,
}

impl Pinned {
    /// Pins to the highest-numbered allowed CPU (CPU 0 takes most device
    /// interrupts). `None` — and nothing changed — when `/proc` or the
    /// kernel does not cooperate; the run proceeds unpinned.
    pub fn to_last_cpu() -> Option<Pinned> {
        let allowed = allowed_cpus()?;
        let last = *allowed.last()?;
        set_affinity(&[last]).then_some(Pinned { restore: allowed })
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        let _ = set_affinity(&self.restore);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists() {
        assert_eq!(parse_cpu_list("0-1"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("\t0-1,4,6-7\n"), Some(vec![0, 1, 4, 6, 7]));
        assert_eq!(parse_cpu_list("3"), Some(vec![3]));
        assert_eq!(parse_cpu_list(""), None);
        assert_eq!(parse_cpu_list("2-1"), None);
        assert_eq!(parse_cpu_list("a-b"), None);
    }

    #[test]
    fn pin_and_restore() {
        // Runs on the test's own thread, so it cannot disturb another test.
        let before = allowed_cpus().expect("/proc/thread-self is readable");
        if let Some(pin) = Pinned::to_last_cpu() {
            assert_eq!(allowed_cpus(), Some(vec![*before.last().unwrap()]));
            drop(pin);
        }
        assert_eq!(allowed_cpus(), Some(before));
    }
}
