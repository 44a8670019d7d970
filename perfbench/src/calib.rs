//! Host-speed calibration: every reported time is in calibrated seconds.
//!
//! A 2-vCPU shared virtual machine (Intel Xeon, 2.1 GHz) changes speed by
//! up to 1.8× from one second to the next, on each vCPU on its own (a pure
//! ALU loop shows it, and thread CPU time slows with the wall clock, so it
//! is not time stolen from the thread). Over a 30-second run the mix of
//! fast and slow seconds moved the completion rate by a fifth or more from
//! one run to the next, which no amount of work inside the run averages
//! away.
//!
//! So every measuring thread pauses every [`SLICE`] of wall time, between
//! two units of work, and times a fixed computation of the benchmark's own,
//! [`reference`]. It shares no code with the program, so a change to the
//! program cannot move it. A slice's calibrated duration is its wall time
//! scaled by [`NOMINAL_NS`] over the median reference time of the slice and
//! its neighbours, and each unit's latency is scaled by its slice's factor:
//! the figures read as wall time on the host at its nominal speed. The time
//! spent in the reference is left out of both the wall and the calibrated
//! time. Each run prints its uncalibrated rate and the mean speed factor
//! beside them. The reference follows the host's second-to-second changes;
//! a spell in which the workload's speed moves and the reference's does not
//! still shows in the figures.

use crate::stats::{self, Sample};
use std::time::{Duration, Instant};

/// How often a measuring thread times the reference.
pub const SLICE: Duration = Duration::from_millis(20);

/// The reference's duration at the host's nominal speed: its median on a
/// 2-vCPU shared virtual machine (Intel Xeon, 2.1 GHz), about a fortieth of
/// a slice.
pub const NOMINAL_NS: f64 = 450_000.0;

/// Slices on each side whose reference times enter a slice's median, so
/// that one reference interrupted by the host does not set its slice.
const SMOOTH: usize = 2;

/// The fixed reference computation: SplitMix64 words folded into a 16 KiB
/// buffer (level-1 cache sized), 96 passes; multiplies, shifts and stores,
/// about 0.45 ms.
pub fn reference() -> u64 {
    let mut buffer = vec![0u64; 2048];
    let mut state = 0x5eed_ca11_b4a7_e000u64;
    for _ in 0..96 {
        for word in buffer.iter_mut() {
            *word ^= stats::splitmix(&mut state);
        }
    }
    buffer.iter().fold(0, |acc, word| acc ^ word)
}

/// Nominal over measured time of one reference run: the factor that turns
/// wall time taken now into calibrated time.
pub fn factor_now() -> f64 {
    let start = Instant::now();
    std::hint::black_box(reference());
    NOMINAL_NS / start.elapsed().as_nanos().max(1) as f64
}

/// One slice: when it ended (microseconds since the phase began), its wall
/// time without the reference, and the reference time that closed it.
#[derive(Debug, Clone, Copy)]
struct Slice {
    end_us: u32,
    wall_ns: u64,
    reference_ns: u64,
}

/// One measuring thread's calibration over one phase.
#[derive(Debug)]
pub struct HostClock {
    start: Instant,
    slice_start: Instant,
    slices: Vec<Slice>,
    enabled: bool,
}

/// A phase's time, measured and calibrated.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTime {
    /// Wall time, without the time spent in the reference.
    pub wall: Duration,
    /// The same time at the host's nominal speed.
    pub calibrated: Duration,
}

impl PhaseTime {
    /// The threads' mean of each time, for a phase run by several.
    pub fn mean(times: &[PhaseTime]) -> PhaseTime {
        let n = times.len().max(1) as u32;
        PhaseTime {
            wall: times.iter().map(|t| t.wall).sum::<Duration>() / n,
            calibrated: times.iter().map(|t| t.calibrated).sum::<Duration>() / n,
        }
    }
}

impl HostClock {
    /// A clock for the phase that began at `start`. A disabled clock (the
    /// warm-up, probes and the traced phase, whose ledger must not see the
    /// reference) never pauses and reports wall time as calibrated.
    pub fn new(start: Instant, enabled: bool) -> Self {
        Self {
            start,
            slice_start: start,
            slices: Vec::new(),
            enabled,
        }
    }

    /// Called between two units of work: closes the slice when it is due.
    pub fn tick(&mut self) {
        if self.enabled && self.slice_start.elapsed() >= SLICE {
            self.close_slice();
        }
    }

    fn close_slice(&mut self) {
        let ended = Instant::now();
        let wall_ns = (ended - self.slice_start).as_nanos() as u64;
        std::hint::black_box(reference());
        let reference_ns = ended.elapsed().as_nanos() as u64;
        let end_us = u32::try_from((ended - self.start).as_micros()).unwrap_or(u32::MAX);
        self.slices.push(Slice {
            end_us,
            wall_ns,
            reference_ns,
        });
        self.slice_start = Instant::now();
    }

    /// Ends the phase: scales the latency of each of `samples` (this
    /// thread's, stamped from the same start) by its slice's factor and
    /// returns the phase's wall and calibrated time.
    pub fn finish(mut self, samples: &mut [Sample]) -> PhaseTime {
        if !self.enabled {
            let wall = self.start.elapsed();
            return PhaseTime {
                wall,
                calibrated: wall,
            };
        }
        self.close_slice();
        let references: Vec<f64> = self.slices.iter().map(|s| s.reference_ns as f64).collect();
        let factors: Vec<f64> = (0..references.len())
            .map(|i| {
                let window =
                    &references[i.saturating_sub(SMOOTH)..(i + SMOOTH + 1).min(references.len())];
                NOMINAL_NS / stats::median(window)
            })
            .collect();
        let (mut wall, mut calibrated) = (0f64, 0f64);
        for (slice, factor) in self.slices.iter().zip(&factors) {
            wall += slice.wall_ns as f64;
            calibrated += slice.wall_ns as f64 * factor;
        }
        for sample in samples.iter_mut() {
            let index = self.slices.partition_point(|s| s.end_us < sample.0);
            let factor = factors[index.min(factors.len() - 1)];
            sample.1 = (f64::from(sample.1) * factor)
                .round()
                .min(f64::from(u32::MAX)) as u32;
        }
        PhaseTime {
            wall: Duration::from_nanos(wall as u64),
            calibrated: Duration::from_nanos(calibrated as u64),
        }
    }
}
