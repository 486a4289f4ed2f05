//! Host-speed calibration.
//!
//! The hosts this benchmark is accepted on change speed under it, for a
//! second to minutes at a time and with no steal time to show for it:
//! stretches of identical work inside one run disagree by 8–25 % on the
//! wall clock, and ten runs of one binary by as much. A fixed slice of
//! benchmark-owned work, timed on the measuring thread right beside the
//! measured work and off its clock, follows most of that, so the gated
//! times are reported in *calibrated* seconds: what the work would have
//! taken on a host that runs the slice in its reference time. `AA.md`
//! has every figure both ways.
//!
//! There are two slices, because a slice has to be steady where it runs:
//!
//! * [`Calibration::mixed`] — short-string formatting, allocation and
//!   hashing into a map: the data plane's own instruction mix. The lanes'
//!   stepped drive and set-up use it; beside them it repeats within a
//!   few percent.
//! * [`Calibration::scan`] — a varint-style decode over a 64 KiB buffer,
//!   no allocation. The closed-loop HTTP workloads use it: beside a
//!   server with a large, long-lived heap the allocating slice varies by
//!   ± 20 % of its own accord (it would add noise, not remove it), the
//!   scan by ± 2 %.
//!
//! Both are benchmark code over the standard library; a change to the
//! program cannot speed them up, though they share its caches. Only work
//! that alternates with the slice on one CPU can be calibrated this way:
//! the stepped drive is one thread, and the HTTP workloads pin client
//! and server to one CPU and keep one request in flight.

use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Instant;

use crate::stats::median;

/// Runs one slice of mixed work and returns how long it took, seconds:
/// 3 000 short strings formatted, cloned, hashed into a 500-key map and
/// dropped again.
fn mixed_slice() -> f64 {
    let t0 = Instant::now();
    let mut counts: HashMap<String, u64> = HashMap::new();
    let mut recent: Vec<String> = Vec::with_capacity(64);
    let mut x = 1u64;
    for _ in 0..3_000u32 {
        x = crate::gen::mix(x.wrapping_add(0x9e37_79b9_7f4a_7c15));
        let key = format!("/p/{:04}/index.html", x % 500);
        *counts.entry(key.clone()).or_default() += 1;
        if recent.len() == 64 {
            recent.clear();
        }
        recent.push(key);
    }
    std::hint::black_box((&counts, &recent));
    t0.elapsed().as_secs_f64()
}

/// Runs one scanning slice and returns how long it took, seconds: a
/// varint-style decode (continuation bit, shift, accumulate, bucket by
/// magnitude) over 64 KiB of fixed pseudo-random bytes. Run twice, the
/// second timing kept: the first brings the buffer back into the cache
/// after whatever ran in between.
fn scan_slice() -> f64 {
    static BUF: OnceLock<Vec<u8>> = OnceLock::new();
    let buf = BUF.get_or_init(|| {
        let mut x = 7u64;
        (0..65_536)
            .map(|_| {
                x = crate::gen::mix(x.wrapping_add(0x9e37_79b9_7f4a_7c15));
                (x >> 24) as u8
            })
            .collect()
    });
    let mut secs = 0.0;
    for _ in 0..2 {
        let t0 = Instant::now();
        let (mut acc, mut cur, mut shift) = (0u64, 0u64, 0u32);
        let mut magnitudes = [0u32; 64];
        for &b in buf {
            cur |= u64::from(b & 0x7f) << shift;
            if b & 0x80 != 0 && shift < 49 {
                shift += 7;
            } else {
                acc = acc.wrapping_add(cur);
                magnitudes[(cur.leading_zeros() & 63) as usize] += 1;
                cur = 0;
                shift = 0;
            }
        }
        std::hint::black_box((acc, &magnitudes));
        secs = t0.elapsed().as_secs_f64();
    }
    secs
}

/// Slice timings gathered beside one measurement.
#[derive(Debug, Clone)]
pub struct Calibration {
    slice: fn() -> f64,
    /// Duration of one slice on the reference host, seconds.
    reference_s: f64,
    slices: Vec<f64>,
}

impl Calibration {
    /// Calibration by the mixed slice (reference: 400 µs).
    pub fn mixed() -> Calibration {
        Calibration {
            slice: mixed_slice,
            reference_s: 400e-6,
            slices: Vec::new(),
        }
    }

    /// Calibration by the scanning slice (reference: 350 µs).
    pub fn scan() -> Calibration {
        Calibration {
            slice: scan_slice,
            reference_s: 350e-6,
            slices: Vec::new(),
        }
    }

    /// Takes one more slice and returns the seconds it cost, which the
    /// caller keeps off its clock.
    pub fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        self.slices.push((self.slice)());
        t0.elapsed().as_secs_f64()
    }

    /// Median slice duration, seconds; the reference when none was taken.
    pub fn slice_s(&self) -> f64 {
        if self.slices.is_empty() {
            self.reference_s
        } else {
            median(&self.slices)
        }
    }

    /// Converts `wall` (seconds, or any time) measured beside these
    /// slices into calibrated time.
    pub fn calibrated(&self, wall: f64) -> f64 {
        wall * self.reference_s / self.slice_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_scales_by_the_median_slice() {
        let fast = Calibration {
            slices: vec![200e-6, 200e-6, 9.0],
            ..Calibration::mixed()
        };
        // A host twice as fast as the reference: its second is worth two.
        assert!((fast.calibrated(1.0) - 2.0).abs() < 1e-12);
        assert_eq!(Calibration::mixed().calibrated(3.0), 3.0);
        for mut live in [Calibration::mixed(), Calibration::scan()] {
            assert!(live.sample() > 0.0);
            assert!(live.slice_s() > 0.0);
        }
    }
}
