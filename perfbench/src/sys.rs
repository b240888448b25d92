//! The few OS facilities the standard library does not expose: CPU time of
//! this process, per-child CPU time and peak memory (`wait4`), and a
//! resettable peak-RSS mark (`/proc/self/clear_refs`). Linux only; the
//! symbols are declared directly so the benchmark needs no extra crate.

use std::time::Duration;

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

const RUSAGE_SELF: i32 = 0;
const WNOHANG: i32 = 1;
const SIGKILL: i32 = 9;

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

fn seconds(t: Timeval) -> f64 {
    t.tv_sec as f64 + t.tv_usec as f64 / 1e6
}

/// User plus system CPU seconds consumed so far by every thread of this
/// process.
pub fn process_cpu_s() -> f64 {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a valid, writable `struct rusage` for the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    seconds(usage.ru_utime) + seconds(usage.ru_stime)
}

/// Returns freed heap memory to the system and resets this process's
/// peak-RSS mark (`VmHWM`) to the resulting RSS, so the next
/// [`peak_rss_mib`] covers live memory plus what ran in between — not
/// memory an earlier operation freed but the allocator kept.
pub fn reset_peak_rss() {
    // SAFETY: glibc's malloc_trim only releases free heap pages.
    unsafe { malloc_trim(0) };
    // Unsupported kernels simply keep the process-lifetime peak.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// How a reaped child ended and what it used.
#[derive(Debug, Clone, Copy)]
pub struct ChildUsage {
    /// Raw wait status (0 means exited with code 0).
    pub status: i32,
    /// User plus system CPU seconds over all the child's threads.
    pub cpu_s: f64,
    /// The child's peak resident memory in MiB.
    pub peak_rss_mib: f64,
}

/// A spawned child process reaped with `wait4`, which returns its own
/// resource usage. Dropping an unreaped child kills and reaps it, so no
/// process outlives the benchmark.
pub struct Reaper {
    pid: i32,
    usage: Option<ChildUsage>,
}

impl Reaper {
    /// Takes over reaping of `child`. The caller must not wait on it
    /// through `std::process::Child` as well.
    pub fn new(child: &std::process::Child) -> Reaper {
        Reaper {
            pid: i32::try_from(child.id()).expect("pids fit in i32"),
            usage: None,
        }
    }

    /// The child's process id.
    pub fn pid(&self) -> i32 {
        self.pid
    }

    fn wait(&mut self, options: i32) -> Option<ChildUsage> {
        if self.usage.is_some() {
            return self.usage;
        }
        let mut status = 0i32;
        let mut usage = Rusage::default();
        // SAFETY: `status` and `usage` are valid, writable out-parameters.
        let rc = unsafe { wait4(self.pid, &mut status, options, &mut usage) };
        if rc == self.pid {
            self.usage = Some(ChildUsage {
                status,
                cpu_s: seconds(usage.ru_utime) + seconds(usage.ru_stime),
                peak_rss_mib: usage.ru_maxrss as f64 / 1024.0,
            });
        }
        self.usage
    }

    /// Reaps the child if it has exited, without blocking.
    pub fn try_reap(&mut self) -> Option<ChildUsage> {
        self.wait(WNOHANG)
    }

    /// Waits for the child to exit, polling so a hung child cannot block
    /// past `timeout`; on timeout it is killed.
    pub fn reap(&mut self, timeout: Duration) -> Option<ChildUsage> {
        let deadline = std::time::Instant::now() + timeout;
        while std::time::Instant::now() < deadline {
            if let Some(usage) = self.try_reap() {
                return Some(usage);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        self.kill();
        None
    }

    /// Kills the child (if still running) and reaps it.
    pub fn kill(&mut self) {
        if self.usage.is_none() {
            // SAFETY: signalling a pid we spawned and have not yet reaped.
            unsafe { kill(self.pid, SIGKILL) };
            self.wait(0);
        }
    }
}

impl Drop for Reaper {
    fn drop(&mut self) {
        self.kill();
    }
}
