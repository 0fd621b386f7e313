//! Host-side clocks and counters: CPU time of the process and of the
//! calling thread, page faults, peak resident memory, core count.
//!
//! Linux only, like the reactor tier itself (`vendor/mio` is raw epoll).

use std::time::Instant;

mod sys {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    pub const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    extern "C" {
        pub fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
    }
}

fn cpu_clock_ns(clock_id: i32) -> u64 {
    let mut ts = sys::Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` of the layout the
    // 64-bit Linux ABI defines, and both clock ids are valid constants
    // from <time.h>; the call writes `ts` and nothing else.
    let rc = unsafe { sys::clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by every thread of this process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(sys::CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(sys::CLOCK_THREAD_CPUTIME_ID)
}

/// Wall and process-CPU time of one timed section.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Process CPU seconds (all threads).
    pub cpu_s: f64,
}

/// Run `f`, timing it on the wall clock and the process CPU clock.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let cpu0 = process_cpu_ns();
    let start = Instant::now();
    let out = f();
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = (process_cpu_ns() - cpu0) as f64 / 1e9;
    (out, Timed { wall_s, cpu_s })
}

/// The `/proc/self/stat` fields the benchmark reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcStat {
    /// Minor page faults so far.
    pub minor_faults: u64,
    /// User-mode clock ticks so far.
    pub user_ticks: u64,
    /// Kernel-mode clock ticks so far.
    pub sys_ticks: u64,
}

/// Parse the body of `/proc/<pid>/stat`. The command name (field 2) may
/// hold spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_proc_stat(body: &str) -> Option<ProcStat> {
    let rest = &body[body.rfind(')')? + 1..];
    // `rest` starts at field 3 (state): minflt is field 10, utime 14, stime 15.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some(ProcStat {
        minor_faults: field(10)?,
        user_ticks: field(14)?,
        sys_ticks: field(15)?,
    })
}

/// This process's fault and tick counters (zeros if `/proc` is absent).
pub fn proc_stat() -> ProcStat {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_proc_stat(&s))
        .unwrap_or_default()
}

/// Parse `VmHWM` (peak resident set, kB) out of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .expect("/proc/self/status carries VmHWM on Linux");
    kb as f64 / 1024.0
}

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_stat_survives_a_hostile_command_name() {
        let body = "42 (a b) c) R 1 2 3 4 5 6 777 8 9 10 1300 250 0 0 20 0 2 0 99";
        let s = parse_proc_stat(body).unwrap();
        assert_eq!(
            s,
            ProcStat {
                minor_faults: 777,
                user_ticks: 1300,
                sys_ticks: 250
            }
        );
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status = "Name:\tx\nVmPeak:\t  100 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (t0, p0) = (thread_cpu_ns(), process_cpu_ns());
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(thread_cpu_ns() > t0);
        assert!(process_cpu_ns() > p0);
    }
}
