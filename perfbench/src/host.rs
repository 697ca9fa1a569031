//! What the result was measured on, and the CPU placement of the two busy
//! threads (the client and the fleet's single pool worker).

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The record printed with every result.
pub struct Host {
    pub cpu: String,
    pub nproc: usize,
    pub simd: bool,
    pub fma: bool,
    pub mlr_threads: String,
    pub git_rev: String,
}

impl Host {
    pub fn probe() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, name)| name.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Self {
            cpu,
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            simd: mlr_core::plan::simd_active(),
            fma: mlr_core::plan::fma_active(),
            mlr_threads: std::env::var("MLR_THREADS").unwrap_or_else(|_| "unset".to_owned()),
            git_rev: git_rev(Path::new(".git")).unwrap_or_else(|| "unknown".to_owned()),
        }
    }
}

/// The commit checked out in the working directory, read from `.git`
/// without running git (which would search directories above it). `None`
/// outside a git checkout.
fn git_rev(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.chars().take(12).collect());
    };
    let rev = std::fs::read_to_string(git.join(reference))
        .ok()
        .or_else(|| {
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)?
                    .strip_suffix(' ')
                    .map(str::to_owned)
            })
        })?;
    Some(rev.trim().chars().take(12).collect())
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread (and threads it spawns afterwards) to
/// `cpu`. Returns whether the kernel accepted it.
pub fn pin_current_thread(cpu: usize) -> bool {
    if cpu >= 1024 {
        return false;
    }
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: pid 0 names the calling thread; `mask` is a live, readable
    // 1024-bit cpu set and `cpusetsize` is exactly its size in bytes.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Linux's `SCHED_IDLE`: runs only when nothing else on the CPU wants to.
const SCHED_IDLE: i32 = 5;

/// Idle-priority threads that spin on the given CPUs so those virtual CPUs
/// never halt. A halted virtual CPU wakes through the hypervisor, whose
/// delay depends on other guests; a spinning one takes the wake-up at
/// once, and any ordinary thread preempts the spinner on arrival.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start(cpus: &[usize]) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = cpus
            .iter()
            .map(|&cpu| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let param = SchedParam { sched_priority: 0 };
                    // SAFETY: pid 0 names the calling thread and `param` is a
                    // live sched_param for the duration of the call.
                    let idle = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } == 0;
                    if !(idle && pin_current_thread(cpu)) {
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        Self { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
