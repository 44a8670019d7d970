//! Order statistics and the seeded input generator.

use std::time::{Duration, Instant};

/// SplitMix64: every input the benchmark generates is drawn from this
/// stream, seeded from `--seed`.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `len` seeded bytes.
pub fn bytes(state: &mut u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&splitmix(state).to_le_bytes());
    }
    out.truncate(len);
    out
}

/// 32 seeded bytes.
pub fn array32(state: &mut u64) -> [u8; 32] {
    bytes(state, 32).try_into().expect("32 bytes")
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of ascending `sorted`.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank position of percentile `p`.
pub fn beyond(len: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * len as f64).ceil() as usize;
    len - rank.clamp(1, len)
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `part / whole`, or zero when nothing was counted.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Completions per window: enough that a window's p99 has ten samples
/// beyond it.
pub const WINDOW_SAMPLES: usize = 1000;

/// Fewest windows a phase must fill.
pub const MIN_WINDOWS: usize = 10;

/// Windowed summary of one phase.
///
/// The phase's completions, in completion order, are cut into windows of
/// [`WINDOW_SAMPLES`], each with a median and a tail latency.
///
/// On a shared host the speed of the whole machine switches between a fast
/// and a slow state for seconds at a time, so a run's latencies form two
/// humps whose mix varies from run to run. A median taken over the whole
/// run jumps from one hump to the other as the mix crosses one half; the
/// mean of the windows' medians moves only in proportion to the mix, as the
/// completion rate does. The tail is the median of the windows' tails, so
/// one window stalled by the host does not carry it.
#[derive(Debug, Clone)]
pub struct Windowed {
    /// Completion rate over the whole phase, per second.
    pub rate: f64,
    /// Mean of the windows' median latencies, in nanoseconds.
    pub p50_ns: f64,
    /// Median of the windows' tail latencies, in nanoseconds.
    pub tail_ns: f64,
    /// Windows the phase filled.
    pub windows: usize,
    /// Each window's median latency, in nanoseconds.
    pub p50s: Vec<f64>,
    /// The median of the windows' p95, p98 and p99, in nanoseconds, so a
    /// reader can see how far down a tail substitution would have to go.
    pub ladder: Vec<(f64, f64)>,
}

/// One completed unit of work: when it completed, in microseconds since the
/// phase began, and its latency in nanoseconds. Eight bytes, because the
/// busiest workload keeps millions.
pub type Sample = (u32, u32);

/// The sample of a unit completing now, `latency_ns` after it began, in a
/// phase that began at `phase_start`.
pub fn sample(phase_start: Instant, latency_ns: u64) -> Sample {
    let at = phase_start.elapsed().as_micros();
    (
        u32::try_from(at).unwrap_or(u32::MAX),
        u32::try_from(latency_ns).unwrap_or(u32::MAX),
    )
}

/// Summarizes the `samples` of a phase that lasted `elapsed`, with the
/// `tail` percentile as its tail, or `None` when the phase filled fewer than
/// [`MIN_WINDOWS`] windows.
pub fn windowed(samples: &mut [Sample], elapsed: Duration, tail: f64) -> Option<Windowed> {
    samples.sort_unstable();
    let windows = samples.len() / WINDOW_SAMPLES;
    if windows < MIN_WINDOWS {
        return None;
    }
    debug_assert!(
        beyond(WINDOW_SAMPLES, tail) >= 10,
        "p{tail} of a window has ten samples beyond it"
    );
    const LADDER: [f64; 3] = [95.0, 98.0, 99.0];
    let (mut p50s, mut tails) = (Vec::new(), Vec::new());
    let mut rungs = vec![Vec::new(); LADDER.len()];
    for window in samples.chunks_exact(WINDOW_SAMPLES) {
        let mut latencies: Vec<u64> = window.iter().map(|s| u64::from(s.1)).collect();
        latencies.sort_unstable();
        p50s.push(percentile(&latencies, 50.0) as f64);
        tails.push(percentile(&latencies, tail) as f64);
        for (rung, p) in rungs.iter_mut().zip(LADDER) {
            rung.push(percentile(&latencies, p) as f64);
        }
    }
    let ladder = LADDER
        .iter()
        .zip(&rungs)
        .map(|(p, rung)| (*p, median(rung)))
        .collect();
    Some(Windowed {
        rate: samples.len() as f64 / elapsed.as_secs_f64(),
        p50_ns: p50s.iter().sum::<f64>() / p50s.len() as f64,
        tail_ns: median(&tails),
        windows,
        p50s,
        ladder,
    })
}
