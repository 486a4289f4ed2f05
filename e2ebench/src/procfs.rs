//! What the benchmark asks of the operating system: CPU time and memory
//! of this process, read from `/proc`, and CPU affinity. On a system
//! without `/proc` every reading is `0` and the derived diagnostics read
//! `0` too; nothing gated depends on them.

/// Kernel clock ticks per second (`USER_HZ`); 100 on every Linux ABI.
const TICKS_PER_S: u64 = 100;

/// `utime + stime` in microseconds from a `/proc/.../stat` line.
fn cpu_us_of(stat: &str) -> Option<u64> {
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 1_000_000 / TICKS_PER_S)
}

fn read_cpu_us(path: &str) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| cpu_us_of(&s))
        .unwrap_or(0)
}

/// CPU time of the whole process so far, microseconds.
pub fn process_cpu_us() -> u64 {
    read_cpu_us("/proc/self/stat")
}

/// CPU time of the calling thread so far, microseconds.
pub fn thread_cpu_us() -> u64 {
    read_cpu_us("/proc/thread-self/stat")
}

/// Peak resident set size of the process, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Pins the calling thread, and every thread spawned from it afterwards,
/// to the highest-numbered CPU it may run on; `false` where that cannot
/// be done, and the run goes on unpinned.
///
/// The closed-loop HTTP workloads call this before set-up. One client
/// waits for one server thread and back, so nothing is lost by sharing a
/// CPU, and a wake-up becomes a context switch on a CPU that never idles.
/// Unpinned, the kernel sometimes wakes the peer on the other, halted
/// CPU, which on a virtual machine is a trip through the hypervisor: a
/// 300 µs request and reply then read 390 µs for minutes at a time, and
/// 311 µs when pinned, whatever the mode.
pub fn pin_to_one_cpu() -> bool {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        let mut mask = [0u64; 16];
        let bytes = std::mem::size_of_val(&mask);
        // SAFETY: both calls read or write exactly `bytes` bytes of
        // `mask`, which outlives them; pid 0 is the calling thread.
        if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
            return false;
        }
        let Some(word) = mask.iter().rposition(|w| *w != 0) else {
            return false;
        };
        let bit = 63 - mask[word].leading_zeros();
        mask = [0u64; 16];
        mask[word] = 1 << bit;
        // SAFETY: as above.
        unsafe { sched_setaffinity(0, bytes, mask.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_stat_line_with_spaces_in_the_command() {
        let line = "42 (my (odd) cmd) S 1 42 42 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 1 2 3";
        assert_eq!(cpu_us_of(line), Some(3_000_000));
        assert_eq!(cpu_us_of("garbage"), None);
    }
}
