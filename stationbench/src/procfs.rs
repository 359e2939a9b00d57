//! Process counters from `/proc/self/status`, `/proc/self/io` and
//! `getrusage`.

/// One reading of the process counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Proc {
    /// User CPU seconds (all threads, finished ones included).
    pub user_s: f64,
    /// Kernel CPU seconds.
    pub sys_s: f64,
    /// Voluntary context switches (a thread blocked: I/O, lock parking).
    pub vol_cs: u64,
    /// Involuntary context switches (a thread was preempted).
    pub invol_cs: u64,
    /// Bytes this process caused to be written to storage.
    pub write_bytes: u64,
    /// Peak resident set, KiB (`VmHWM`).
    pub peak_rss_kib: u64,
}

impl Proc {
    /// Read the counters now.
    ///
    /// # Panics
    /// When a counter source is missing: the benchmark's numbers would
    /// silently read 0 otherwise.
    #[must_use]
    pub fn now() -> Proc {
        let ru = rusage();
        Proc {
            user_s: ru.utime.secs(),
            sys_s: ru.stime.secs(),
            vol_cs: u64::try_from(ru.nvcsw).unwrap_or(0),
            invol_cs: u64::try_from(ru.nivcsw).unwrap_or(0),
            write_bytes: field("/proc/self/io", "write_bytes:"),
            peak_rss_kib: field("/proc/self/status", "VmHWM:"),
        }
    }

    /// Counter growth from `earlier` to `self` (the peak is kept).
    #[must_use]
    pub fn since(&self, earlier: &Proc) -> Proc {
        Proc {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            vol_cs: self.vol_cs - earlier.vol_cs,
            invol_cs: self.invol_cs - earlier.invol_cs,
            write_bytes: self.write_bytes - earlier.write_bytes,
            peak_rss_kib: self.peak_rss_kib,
        }
    }
}

/// Hand the heap's free pages back to the kernel, then reset the peak
/// resident set (`VmHWM`) to the current resident set, so that the next
/// reading gives the peak of what ran in between rather than memory the
/// allocator kept from earlier work.
///
/// # Errors
/// When the kernel refuses the write to `/proc/self/clear_refs`.
pub fn reset_peak_rss() -> std::io::Result<()> {
    // SAFETY: malloc_trim only releases free heap pages; it reads and
    // writes no memory of ours.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5")
}

/// The first number after `key` on its line of `path`.
fn field(path: &str, key: &str) -> u64 {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("{path} has no {key} line"))
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

impl Timeval {
    fn secs(&self) -> f64 {
        self.sec as f64 + self.usec as f64 / 1e6
    }
}

/// `struct rusage` as laid out on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

const RUSAGE_SELF: i32 = 0;

#[cfg(not(all(target_os = "linux", target_env = "gnu", target_pointer_width = "64")))]
compile_error!("the process counters read the 64-bit Linux `struct rusage` layout and trim the glibc heap");

fn rusage() -> Rusage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit
    // Linux layout (checked at compile time above); getrusage writes
    // only within it and keeps no pointer after returning.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    ru
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_read_and_grow() {
        let a = Proc::now();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let b = Proc::now();
        assert!(b.peak_rss_kib > 0);
        assert!(b.since(&a).user_s + b.since(&a).sys_s >= 0.0);
        assert!(b.user_s + b.sys_s > 0.0);
    }

    #[test]
    fn peak_resets_to_current() {
        let big = std::hint::black_box(vec![1u8; 64 << 20]);
        drop(big);
        let high = Proc::now().peak_rss_kib;
        reset_peak_rss().expect("clear_refs");
        assert!(Proc::now().peak_rss_kib + (32 << 10) < high);
    }
}
