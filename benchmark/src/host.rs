//! The host: its descriptor (stamped into every result), the process's
//! own CPU time and peak memory, and the roofline probe the native kernels
//! are judged against (Table 4 on real silicon).

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

fn field_after<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split(':').nth(1))
        .map(str::trim)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    // `output` waits for the child, so nothing outlives this call
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The commit of the checkout, read from `.git` without spawning git (a
/// driver checkout is not a repository: `unknown` there).
fn git_rev(repo_root: &Path) -> String {
    let head = std::fs::read_to_string(repo_root.join(".git/HEAD")).unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(repo_root.join(".git").join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".to_string()
    } else {
        rev.to_string()
    }
}

/// Size in bytes of the last-level cache CPU 0 sees, from sysfs.
pub fn llc_bytes() -> u64 {
    let mut best = (0u32, 0u64);
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let level: u32 = read(&format!("{dir}/level")).trim().parse().unwrap_or(0);
        let size = read(&format!("{dir}/size"));
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().unwrap_or(0) << 10,
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<u64>().unwrap_or(0) << 20,
                None => size.parse().unwrap_or(0),
            },
        };
        if level > best.0 && bytes > 0 {
            best = (level, bytes);
        }
    }
    best.1
}

pub fn mem_total_bytes() -> u64 {
    field_after(&read("/proc/meminfo"), "MemTotal")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb << 10)
}

pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host descriptor fields stamped into every result.
pub fn descriptor(seed: u64) -> Json {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    Json::obj(vec![
        ("git_rev", Json::str(git_rev(&repo_root))),
        (
            "rustc",
            Json::str(command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        ("nproc", Json::Num(threads() as f64)),
        (
            "cpu_model",
            Json::str(field_after(&read("/proc/cpuinfo"), "model name").unwrap_or("unknown")),
        ),
        ("llc_bytes", Json::Num(llc_bytes() as f64)),
        ("mem_total_bytes", Json::Num(mem_total_bytes() as f64)),
        ("loadavg_at_start", Json::str(read("/proc/loadavg").trim())),
        ("seed", Json::Num(seed as f64)),
    ])
}

/// User and system CPU time of this process so far, in clock ticks of
/// 10 ms, threads that already exited included (`/proc/self/stat` fields
/// 14 and 15). Only the *ratio* of the two is used (`proc.sys_frac`);
/// [`cpu_time_ns`] is the fine-grained total.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = read("/proc/self/stat");
    // the command name (field 2) may contain spaces; fields resume after `)`
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let utime = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0);
    let stime = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0);
    (utime, stime)
}

#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

extern "C" {
    fn clock_gettime(clock_id: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
    fn sched_getcpu() -> std::ffi::c_int;
    fn sched_setaffinity(
        pid: std::ffi::c_int,
        cpusetsize: usize,
        mask: *const u64,
    ) -> std::ffi::c_int;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;

/// User+system CPU time of this process so far (every thread, live or
/// exited), nanoseconds. `/proc` only has it in 10 ms ticks, too coarse
/// for a pass of about a second, and the standard library has no
/// process-CPU clock, hence the one foreign call.
pub fn cpu_time_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer and keeps nothing. `ts` is a live, exclusively borrowed value
    // whose layout is the C struct's on Linux (`time_t` and `long` are both
    // `c_long` there), and the clock id is a constant the kernel knows.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Pins the calling thread, and every thread spawned from it afterwards,
/// to the CPU it is running on. Returns that CPU, or `None` if the kernel
/// refused (the run then goes on unpinned).
///
/// The serve workloads call this before they start the daemon. Their
/// closed loop is two threads that are never runnable at once; left to the
/// scheduler they either share one CPU or sit on two, and on two every
/// hand-off is a cross-CPU wake-up, which in a VM costs three times the
/// request path itself (an inter-processor interrupt into a halted vCPU).
/// Which of the two a run gets is the scheduler's whim, and the request
/// path — the thing under test — is the same in both.
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).ok().filter(|c| *c < 1024)?;
    // glibc's `cpu_set_t`: 1024 bits
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live array of exactly the `cpusetsize` bytes
    // passed, which the kernel only reads; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    field_after(&read("/proc/self/status"), "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[derive(Clone, Copy, Debug, Default)]
pub struct Roofline {
    /// STREAM-triad bandwidth over all threads, bytes/s.
    pub stream_bytes_per_s: f64,
    /// Independent random 8-byte reads over all threads, accesses/s.
    pub gather_per_s: f64,
    pub llc_bytes: u64,
    /// Bytes in each of the three probe arrays.
    pub array_bytes: u64,
}

/// Measures the host's streaming and random-access rates.
///
/// Each of the three arrays is four times the last-level cache, capped so
/// that together they stay within a quarter of RAM and `cap_bytes` each;
/// both sizes are reported. The arrays are written once before timing so
/// page faults are not measured, and the best of three timed sweeps is
/// kept — a roofline is a ceiling.
pub fn roofline(cap_bytes: u64) -> Roofline {
    let llc = llc_bytes().max(1 << 20);
    let array_bytes = (4 * llc)
        .min(mem_total_bytes().max(1 << 30) / 4 / 3)
        .min(cap_bytes)
        & !0xfff;
    let len = (array_bytes / 8) as usize;
    let workers = threads();
    let mut a = vec![0.0f64; len];
    let b = vec![1.5f64; len];
    let c = vec![2.5f64; len];
    let chunk = len.div_ceil(workers);

    let triad = |a: &mut [f64]| {
        let t = Instant::now();
        std::thread::scope(|s| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                s.spawn(move || {
                    for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
                        *x = y + 3.0 * z;
                    }
                });
            }
        });
        t.elapsed().as_secs_f64()
    };
    triad(&mut a);
    let best = (0..3).map(|_| triad(&mut a)).fold(f64::MAX, f64::min);
    black_box(&a);
    // two arrays read, one written
    let stream_bytes_per_s = 3.0 * array_bytes as f64 / best;

    // the gather reads `a` (now resident) at independent pseudo-random
    // indices, so loads overlap the way an irregular graph gather's do
    let per_thread = (len / 4).clamp(1 << 16, 1 << 23);
    let gather = || {
        let t = Instant::now();
        std::thread::scope(|s| {
            for w in 0..workers {
                let a = &a;
                s.spawn(move || {
                    let mut x = 0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(w as u64 + 1);
                    let mut acc = 0.0;
                    for _ in 0..per_thread {
                        x = x
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        acc += a[((x >> 24) as usize) % len];
                    }
                    black_box(acc);
                });
            }
        });
        t.elapsed().as_secs_f64()
    };
    gather();
    let best = (0..3).map(|_| gather()).fold(f64::MAX, f64::min);
    Roofline {
        stream_bytes_per_s,
        gather_per_s: (per_thread * workers) as f64 / best,
        llc_bytes: llc,
        array_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        let (u, s) = cpu_ticks();
        assert!(u + s < 1 << 40);
        let before = cpu_time_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        let burnt = cpu_time_ns() - before;
        assert!(burnt > 100_000, "a busy loop uses CPU time: {burnt} ns");
        assert!(peak_rss_mib() > 0.5);
        assert!(mem_total_bytes() > 1 << 26);
        let d = descriptor(7);
        assert_eq!(d.get("seed").unwrap().as_f64(), Some(7.0));
        assert!(d.get("nproc").unwrap().as_f64().unwrap() >= 1.0);
    }

    #[test]
    fn roofline_probe_measures_positive_rates_at_a_small_cap() {
        let r = roofline(1 << 22);
        assert!(r.array_bytes <= 1 << 22 && r.array_bytes > 0);
        assert!(r.stream_bytes_per_s > 1e8, "{r:?}");
        assert!(r.gather_per_s > 1e5, "{r:?}");
    }
}
