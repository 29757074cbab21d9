//! Host-speed calibration.
//!
//! The VM this benchmark is sized for shares its cores: for stretches of
//! tenths of a second to tens of seconds every throughput-bound
//! instruction stream runs up to 1.7× slower, whatever this process does
//! (`FINDINGS.md`, "Host noise").  Raw wall times therefore spread by
//! 15–30 % between back-to-back runs, far wider than any useful bound.
//!
//! Each measured call is sandwiched between two runs of a fixed kernel, on
//! as many threads as the call itself keeps busy.  With `c` the kernel's
//! mean time around the call, the call's time is modelled as
//! `quiet × (1 + s × (c / NOMINAL − 1))`, where the sensitivity `s` is the
//! share of the kernel's slowdown the measured code feels (a latency-bound
//! loop feels none, a byte parser nearly all of it), and the harness
//! reports `quiet`: what the call takes on a host that runs the kernel at
//! its nominal speed.  The kernel and `s` are harness constants, so a
//! change to the program moves the reported number by exactly its real
//! share.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// What one kernel run takes on this VM when its neighbours are quiet
/// (the floor of some 2 000 readings).  Only a scale: it makes normalised
/// times read like quiet-host wall times.
pub const NOMINAL_MS: f64 = 4.85;

/// The same when two kernels run at once: this VM's two hardware threads
/// share execution resources, so each runs about a tenth slower than one
/// alone (ratio of the two series' low deciles over some 800 readings).
/// Keeps one- and two-thread calibrations on one scale.
pub const NOMINAL_TWO_THREADS_MS: f64 = 5.3;

fn nominal_ms(threads: usize) -> f64 {
    if threads <= 1 {
        NOMINAL_MS
    } else {
        NOMINAL_TWO_THREADS_MS
    }
}

const BUFFER: usize = 64 * 1024;
const PASSES: usize = 136;

/// Branchy, throughput-bound integer work over an L1/L2-resident buffer —
/// decimal parsing, like the text parser the largest workload spends its
/// time in.  Small on purpose: a child's peak memory is a metric.
fn kernel(text: &[u8]) -> u64 {
    let (mut total, mut current) = (0u64, 0u64);
    for &byte in text {
        if byte.is_ascii_digit() {
            current = current * 10 + u64::from(byte - b'0');
        } else {
            total = total.wrapping_add(current);
            current = 0;
        }
    }
    total
}

/// How a piece of measured code meets the host.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HostModel {
    /// Threads the code keeps busy; the kernel runs on as many at once, so
    /// a two-thread command is calibrated against both cores' state.
    pub threads: usize,
    /// Share of the kernel's slowdown the code feels.
    pub sensitivity: f64,
}

impl HostModel {
    /// Single-threaded library code (set-up, the layer calls of the traced
    /// run): the sensitivity that fits the workloads' commands on average.
    pub const LIBRARY: HostModel = HostModel {
        threads: 1,
        sensitivity: 0.7,
    };
}

/// Runs the kernel once on each of `threads` threads at the same time and
/// returns their mean wall time in milliseconds.
pub fn calibrate_ms(threads: usize) -> f64 {
    std::thread::scope(|scope| {
        let others: Vec<_> = (1..threads).map(|_| scope.spawn(kernel_ms)).collect();
        let own = kernel_ms();
        let sum: f64 = others
            .into_iter()
            .map(|other| other.join().expect("the kernel does not panic"))
            .sum();
        (own + sum) / threads as f64
    })
}

fn kernel_ms() -> f64 {
    static TEXT: OnceLock<Vec<u8>> = OnceLock::new();
    let text = TEXT.get_or_init(|| {
        (0..BUFFER as u32)
            .map(|i| {
                if i % 7 == 6 {
                    b' '
                } else {
                    b'0' + (i % 10) as u8
                }
            })
            .collect()
    });
    let start = Instant::now();
    let mut total = 0u64;
    for _ in 0..PASSES {
        total = total.wrapping_add(kernel(black_box(text)));
    }
    black_box(total);
    start.elapsed().as_secs_f64() * 1e3
}

/// The host's slowdown as `threads` kernels at once saw it around a call:
/// 1 when quiet.
pub fn slowdown(threads: usize, before_ms: f64, after_ms: f64) -> f64 {
    (before_ms + after_ms) / 2.0 / nominal_ms(threads)
}

/// `raw_ms` on a host at nominal speed, for code that feels the share
/// `sensitivity` of the kernel's slowdown.
pub fn normalise(raw_ms: f64, slowdown: f64, sensitivity: f64) -> f64 {
    raw_ms / (1.0 + sensitivity * (slowdown - 1.0))
}

/// A call timed between two runs of the calibration kernel.
pub struct Timed<T> {
    pub value: T,
    /// Wall time, ms.
    pub raw_ms: f64,
    /// Wall time normalised to a quiet host, ms.
    pub quiet_ms: f64,
    /// Host slowdown the kernel saw around the call.
    pub slowdown: f64,
}

/// Runs `work`, which returns its value and its own wall time in ms (a
/// [`crate::spans::Tracer::time`] call), between two kernel runs.
pub fn measure<T>(host: HostModel, work: impl FnOnce() -> (T, f64)) -> Timed<T> {
    let before = calibrate_ms(host.threads);
    let (value, raw_ms) = work();
    let slowdown = slowdown(host.threads, before, calibrate_ms(host.threads));
    Timed {
        value,
        raw_ms,
        quiet_ms: normalise(raw_ms, slowdown, host.sensitivity),
        slowdown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalising_removes_the_felt_share_of_the_slowdown() {
        assert_eq!(slowdown(1, NOMINAL_MS, NOMINAL_MS), 1.0);
        assert_eq!(slowdown(1, NOMINAL_MS, 2.0 * NOMINAL_MS), 1.5);
        assert_eq!(
            slowdown(2, NOMINAL_TWO_THREADS_MS, NOMINAL_TWO_THREADS_MS),
            1.0
        );
        assert_eq!(normalise(100.0, 1.0, 0.7), 100.0);
        assert_eq!(normalise(150.0, 1.5, 1.0), 100.0);
        assert_eq!(normalise(125.0, 1.5, 0.5), 100.0);
        assert_eq!(normalise(125.0, 1.5, 0.0), 125.0);
    }

    #[test]
    fn measure_normalises_the_time_the_work_reports() {
        let timed = measure(HostModel::LIBRARY, || (7, 100.0));
        assert_eq!((timed.value, timed.raw_ms), (7, 100.0));
        assert!(timed.slowdown > 0.0);
        assert_eq!(timed.quiet_ms, normalise(100.0, timed.slowdown, 0.7));
    }

    #[test]
    fn the_kernel_does_its_work() {
        assert_eq!(kernel(b"12 30 7x"), 49);
        assert!(calibrate_ms(1) > 0.0 && calibrate_ms(2) > 0.0);
    }
}
