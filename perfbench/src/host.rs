//! Host facts the benchmark reads or sets about its own process: CPU
//! time, peak memory and CPU affinity. Linux only, through the C library
//! `std` already links.

use std::ffi::c_int;

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `cpu_set_t`: a 1024-bit CPU mask.
#[repr(C)]
struct CpuSet([u64; 16]);

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// Process CPU time (all threads, user + system) in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for) and
    // the clock id is a valid constant, so the call only writes `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restricts the calling thread — and so every thread it spawns later —
/// to the highest-numbered CPU it may run on, and returns that CPU.
///
/// # Errors
///
/// Fails when the kernel refuses to report or set the mask.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = CpuSet([0; 16]);
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `mask` is a live, writable buffer of exactly `size` bytes,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut mask) } != 0 {
        return Err("sched_getaffinity failed".into());
    }
    let cpu = (0..1024).rev().find(|&c| mask.0[c / 64] & (1 << (c % 64)) != 0);
    let cpu = cpu.ok_or("empty CPU affinity mask")?;
    let mut one = CpuSet([0; 16]);
    one.0[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly `size` bytes, and pid 0
    // names the calling thread.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err("sched_setaffinity failed".into());
    }
    Ok(cpu)
}
