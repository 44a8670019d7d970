//! The monitor's benchmark: four closed-loop workloads that drive the
//! committed crates through their public calls only.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload enclave_churn --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` first runs a
//! third of the time untraced (the tracing-overhead baseline) and then
//! times every call into a layer for the rest, printing the per-layer
//! metrics. Human-readable lines come first; the last line of standard
//! output is the JSON result. A failed check makes the exit code 1.
//! Times are in calibrated seconds (see `calib`). `NOTES.md` beside this
//! crate explains the workloads and the metrics.

mod calib;
mod churn;
mod contended;
mod explore;
mod fleet;
mod ledger;
mod stats;

use calib::PhaseTime;
use ledger::Ledger;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// How many times each workload sets up its world; `setup_s` is the median.
/// The first four or five set-ups of a process run at another speed than
/// the rest (2–3× slower in `enclave_churn` and `attest_fleet`, faster in
/// `contended_2h`); with nine the median sat on the edge between the two
/// groups and jumped from run to run, with fifteen it falls among the
/// settled ones.
pub const SETUPS: usize = 15;

/// How long each workload runs, unmeasured, before its measured phases:
/// the allocator and caches settle in the first second of a fresh world.
pub const WARMUP: Duration = Duration::from_secs(1);

/// The end-to-end metrics every workload reports in an untraced run.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_tail_us", "us"),
];

/// The per-layer metrics a traced run reports, `(name, unit)`. A layer the
/// workload never enters reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    // core, through the register ABI (enclave_churn) or SmApi (contended_2h)
    ("core.block_resource.ns", "ns"),
    ("core.block_resource.cycles", "cycles"),
    ("core.clean_resource.ns", "ns"),
    ("core.clean_resource.cycles", "cycles"),
    ("core.create_enclave.ns", "ns"),
    ("core.create_enclave.cycles", "cycles"),
    ("core.allocate_page_table.ns", "ns"),
    ("core.allocate_page_table.cycles", "cycles"),
    ("core.load_page.ns", "ns"),
    ("core.load_page.cycles", "cycles"),
    ("core.load_thread.ns", "ns"),
    ("core.load_thread.cycles", "cycles"),
    ("core.init_enclave.ns", "ns"),
    ("core.init_enclave.cycles", "cycles"),
    ("core.enter_enclave.ns", "ns"),
    ("core.enter_enclave.cycles", "cycles"),
    ("core.exit_enclave.ns", "ns"),
    ("core.exit_enclave.cycles", "cycles"),
    ("core.delete_enclave.ns", "ns"),
    ("core.delete_enclave.cycles", "cycles"),
    ("core.grant_resource.ns", "ns"),
    ("core.grant_resource.cycles", "cycles"),
    ("core.abi.p99_us", "us"),
    ("core.sm.cleaning_cycles", "cycles"),
    ("crypto.sha3_page.ns", "ns"),
    ("os.run_thread.ns", "ns"),
    ("os.run_thread.cycles", "cycles"),
    ("machine.stage.ns", "ns"),
    ("machine.cache.flushed_lines", "count"),
    ("machine.tlb.invalidations", "count"),
    ("machine.lifecycle.cycles", "cycles"),
    // contended_2h
    ("core.get_field.ns", "ns"),
    ("core.resource_state.ns", "ns"),
    ("core.peek_mail.ns", "ns"),
    ("core.accept_mail.ns", "ns"),
    ("core.send_mail.ns", "ns"),
    ("core.get_mail.ns", "ns"),
    ("core.get_field.retries_per_call", "count"),
    ("core.resource_state.retries_per_call", "count"),
    ("core.peek_mail.retries_per_call", "count"),
    ("core.block_resource.retries_per_call", "count"),
    ("core.clean_resource.retries_per_call", "count"),
    ("core.create_enclave.retries_per_call", "count"),
    ("core.allocate_page_table.retries_per_call", "count"),
    ("core.load_thread.retries_per_call", "count"),
    ("core.init_enclave.retries_per_call", "count"),
    ("core.accept_mail.retries_per_call", "count"),
    ("core.send_mail.retries_per_call", "count"),
    ("core.get_mail.retries_per_call", "count"),
    ("core.delete_enclave.retries_per_call", "count"),
    ("core.sm.concurrency_failures", "count"),
    ("contended.retries_per_step", "count"),
    ("contended.useful_ratio", "ratio"),
    // attest_fleet
    ("verifier.begin.ns", "ns"),
    ("enclave.submit.ns", "ns"),
    ("enclave.drain.ns", "ns"),
    ("enclave.collect.ns", "ns"),
    ("verifier.verify.ns", "ns"),
    ("verifier.verify_batch.ns", "ns"),
    ("enclave.shared_secret.ns", "ns"),
    ("verifier.session.ns", "ns"),
    ("verifier.pool_insert.ns", "ns"),
    ("attest.wave_wait.us", "us"),
    ("verifier.chain_cache_hit_ratio", "ratio"),
    ("enclave.signing_cache_hit_ratio", "ratio"),
    // explore
    ("explorer.boot.ns", "ns"),
    ("explorer.generate.ns", "ns"),
    ("explorer.step.build.ns", "ns"),
    ("explorer.step.teardown.ns", "ns"),
    ("explorer.step.run.ns", "ns"),
    ("explorer.step.tick.ns", "ns"),
    ("explorer.step.block-region.ns", "ns"),
    ("explorer.step.clean-region.ns", "ns"),
    ("explorer.step.grant-region.ns", "ns"),
    ("explorer.step.delete-enclave.ns", "ns"),
    ("explorer.step.load-after-init.ns", "ns"),
    ("explorer.step.mail-roundtrip.ns", "ns"),
    ("explorer.step.enclave-mail.ns", "ns"),
    ("explorer.step.mail-queue.ns", "ns"),
    ("explorer.step.attest-service.ns", "ns"),
    ("explorer.step.get-field.ns", "ns"),
    ("explorer.step.batch.ns", "ns"),
    ("explorer.step.attack.ns", "ns"),
    ("explorer.step.crashed.ns", "ns"),
    // every workload
    ("bench.unattributed.ns", "ns"),
    ("bench.unattributed.share", "ratio"),
    ("bench.tracing_overhead.ratio", "ratio"),
];

/// Command-line settings shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measured time of the whole run.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Config {
    /// `(untraced, traced)` phase lengths: the whole run untraced, or a
    /// third untraced (the overhead baseline) and two thirds traced.
    pub fn phases(&self) -> (Duration, Option<Duration>) {
        let total = Duration::from_secs_f64(self.seconds);
        if self.trace {
            (total / 3, Some(total - total / 3))
        } else {
            (total, None)
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Worker threads the workload ran.
    pub threads: usize,
    /// What one unit of work is ("lifecycle", "session", ...).
    pub unit: &'static str,
    /// Set-up time of each repetition, in seconds, as measured.
    pub setup_s: Vec<f64>,
    /// The host's speed factor measured just before each set-up.
    pub setup_factor: Vec<f64>,
    /// Units (and checked probe units) attempted, and how many failed.
    pub attempted: u64,
    /// Units that failed a call or a check.
    pub failed: u64,
    /// Failed checks, with what went wrong.
    pub errors: Vec<String>,
    /// Each unit the untraced phase completed.
    pub samples: Vec<stats::Sample>,
    /// Time of the untraced phase, measured and calibrated.
    pub time: PhaseTime,
    /// The tail percentile reported: 99, or the highest percentile that
    /// repeats within a tenth of its median across runs where p99 does not.
    pub tail_wanted: f64,
    /// How the workload's users name its rate and latency.
    pub labels: Labels,
    /// Further metrics under the workload's own names, printed beside the
    /// JSON (`name`, value, unit).
    pub named: Vec<(String, f64, &'static str)>,
    /// Exact counters, checked bit-identical across the run's repeated
    /// probes of the same seed.
    pub exact: Vec<(String, u64)>,
    /// The traced phase, when there was one.
    pub traced: Option<Traced>,
    /// Extra human-readable report lines.
    pub lines: Vec<String>,
}

/// The names of a workload's rate and latency metrics in the human-readable
/// report (`lifecycles_per_s`, `lifecycle_p50_us`, ...).
#[derive(Debug, Default, Clone, Copy)]
pub struct Labels {
    /// Name of the completion rate.
    pub rate: &'static str,
    /// Prefix of the latency percentiles, for workloads that name them.
    pub latency: Option<&'static str>,
    /// Whether the median latency is named in nanoseconds.
    pub p50_ns: bool,
}

/// The traced phase of a run.
#[derive(Debug, Default)]
pub struct Traced {
    /// All threads' spans, merged.
    pub ledger: Ledger,
    /// Units the traced phase completed.
    pub units: u64,
    /// Wall time of the traced phase.
    pub elapsed: Duration,
    /// Per-layer metrics the workload derived from its ledger.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a failed check.
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        self.errors.push(error);
    }

    /// Checks that the repeated probes of one seed agree on every exact
    /// counter, and keeps the first probe's counters.
    pub fn check_exact(&mut self, probes: Vec<Vec<(String, u64)>>) {
        let mut probes = probes.into_iter();
        let first = probes.next().expect("at least one probe");
        for (index, other) in probes.enumerate() {
            if other != first {
                self.fail(format!(
                    "nondeterminism: probe {} of the same seed gave {other:?}, probe 0 gave {first:?}",
                    index + 1
                ));
            }
        }
        self.exact = first;
    }

    /// Times one set-up, with the host's speed factor just before it.
    pub fn time_setup<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        self.setup_factor.push(calib::factor_now());
        let start = std::time::Instant::now();
        let built = setup();
        self.setup_s.push(start.elapsed().as_secs_f64());
        built
    }

    /// The median set-up time, calibrated by the median of the set-ups'
    /// speed factors: the set-ups take a fraction of a second, less than
    /// the host takes to change speed, and one reference run is too short
    /// to calibrate a set-up on its own.
    fn setup_calibrated(&self) -> f64 {
        stats::median(&self.setup_s) * stats::median(&self.setup_factor)
    }

    /// Uncalibrated completion rate of the untraced phase.
    fn units_per_s(&self) -> f64 {
        self.samples.len() as f64 / self.time.wall.as_secs_f64()
    }
}

/// `.ns` per item of every span in `ledger`, and `.cycles` per item where
/// the metric is declared.
pub fn span_layers(ledger: &Ledger) -> BTreeMap<&'static str, f64> {
    let mut layers = BTreeMap::new();
    for (name, entry) in ledger.entries() {
        let per_item = |total: u64| stats::ratio(total as f64, entry.items as f64);
        layers.insert(leak(format!("{name}.ns")), per_item(entry.ns));
        let cycles = format!("{name}.cycles");
        if PER_LAYER.iter().any(|(declared, _)| *declared == cycles) {
            layers.insert(leak(cycles), per_item(entry.cycles));
        }
    }
    layers
}

/// Interns a metric name built at run time (a few dozen per process).
pub fn leak(name: String) -> &'static str {
    Box::leak(name.into_boxed_str())
}

fn parse_args() -> Result<(String, Config), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        Config {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        },
    ))
}

/// The commit of the checkout, read from `.git` when there is one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|line| line.ends_with(reference))
                    .and_then(|line| Some(line[..line.find(' ')?].to_string()))
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let hash = hash.trim();
    if hash.is_empty() {
        "none".to_string()
    } else {
        hash.to_string()
    }
}

/// FNV-1a digest of the program's sources (every file under `crates/` and
/// `src/`, plus the root manifests), so a result names the code it measured
/// even in a checkout without git metadata.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk("crates".as_ref(), &mut files);
    walk("src".as_ref(), &mut files);
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in files {
        let contents = std::fs::read(&file).unwrap_or_default();
        for byte in file.to_string_lossy().bytes().chain(contents) {
            hash = (hash ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// A metrics object of the JSON result: name → (value, unit).
type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

fn print_host(workload: &str, config: &Config, outcome: &Outcome) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "host nproc={nproc} seed={} commit={} source={} workload={workload} threads={} trace={} seconds={}",
        config.seed,
        commit(),
        source_digest(),
        outcome.threads,
        u8::from(config.trace),
        config.seconds
    );
    println!("setup_s repetitions (measured) {:?}", outcome.setup_s);
    println!("setup speed factors {:?}", outcome.setup_factor);
}

/// The end-to-end metrics of the untraced phase, printed under the
/// workload's own names too; `None` when the phase filled too few windows.
fn end_to_end(outcome: &mut Outcome) -> Option<Metrics> {
    let summary = stats::windowed(
        &mut outcome.samples,
        outcome.time.calibrated,
        outcome.tail_wanted,
    );
    let Some(summary) = summary else {
        println!(
            "{} {}s completed untraced, fewer than {} windows of {}",
            outcome.samples.len(),
            outcome.unit,
            stats::MIN_WINDOWS,
            stats::WINDOW_SAMPLES
        );
        return None;
    };
    let tail = outcome.tail_wanted;
    if tail != 99.0 {
        println!(
            "tail substitution: p99 -> p{tail}, the highest percentile that repeats within a tenth"
        );
    }
    let (wall, calibrated) = (outcome.time.wall, outcome.time.calibrated);
    println!(
        "host calibration: {:.3} s wall, {:.3} s calibrated (mean speed factor {:.3}); uncalibrated {} {:.1} 1/s",
        wall.as_secs_f64(),
        calibrated.as_secs_f64(),
        stats::ratio(calibrated.as_secs_f64(), wall.as_secs_f64()),
        outcome.labels.rate,
        outcome.units_per_s()
    );
    println!(
        "{} {}s in {:.3} calibrated s untraced: {} windows of {} ({} beyond p{} in each)",
        outcome.samples.len(),
        outcome.unit,
        calibrated.as_secs_f64(),
        summary.windows,
        stats::WINDOW_SAMPLES,
        stats::beyond(stats::WINDOW_SAMPLES, tail),
        tail
    );
    let fastest = summary.p50s.iter().copied().fold(f64::INFINITY, f64::min);
    let slowest = summary.p50s.iter().copied().fold(0.0, f64::max);
    println!("window medians: fastest {fastest:.0} ns, slowest {slowest:.0} ns");
    let mut line = String::from("tail ladder (median over windows):");
    for (p, ns) in &summary.ladder {
        let _ = write!(line, " p{p} {:.3} us", ns / 1e3);
    }
    println!("{line}");
    let labels = outcome.labels;
    println!("metric {} {} 1/s", labels.rate, summary.rate);
    if let Some(prefix) = labels.latency {
        if labels.p50_ns {
            println!("metric {prefix}_p50_ns {} ns", summary.p50_ns);
        } else {
            println!("metric {prefix}_p50_us {} us", summary.p50_ns / 1e3);
        }
        println!("metric {prefix}_p{tail}_us {} us", summary.tail_ns / 1e3);
    }
    for (name, value, unit) in &outcome.named {
        println!("metric {name} {value} {unit}");
    }
    let failed_ratio = stats::ratio(outcome.failed as f64, outcome.attempted as f64);
    println!("metric failed_ratio {failed_ratio} ratio");
    let values = [
        outcome.setup_calibrated(),
        summary.rate,
        summary.p50_ns / 1e3,
        summary.tail_ns / 1e3,
    ];
    Some(
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, (value, unit)))
            .collect(),
    )
}

/// The per-layer metrics of the traced phase, with the ledger check, the
/// layer shares and the tracing overhead.
fn per_layer(outcome: &mut Outcome) -> Metrics {
    let untraced_rate = outcome.units_per_s();
    let Some(traced) = outcome.traced.take() else {
        outcome.fail("the traced phase did not run".to_string());
        return Metrics::new();
    };
    let ledger = &traced.ledger;
    if let Err(err) = ledger.check() {
        outcome.fail(err);
    }
    let traced_rate = traced.units as f64 / traced.elapsed.as_secs_f64();
    let overhead = stats::ratio(untraced_rate, traced_rate);
    println!(
        "tracing overhead: {untraced_rate:.1} {u}s/s untraced vs {traced_rate:.1} {u}s/s traced (x{overhead:.3})",
        u = outcome.unit
    );
    println!(
        "ledger: wall {} ns = spans {} ns + unattributed {} ns over {} traced {}s",
        ledger.wall_ns(),
        ledger.attributed_ns(),
        ledger.residual_ns(),
        traced.units,
        outcome.unit
    );
    let mut shares: Vec<(&str, u64)> = ledger.entries().iter().map(|(n, e)| (*n, e.ns)).collect();
    shares.sort_by_key(|(_, ns)| std::cmp::Reverse(*ns));
    let mut line = String::from("layer shares of traced wall:");
    for (name, ns) in shares {
        let _ = write!(
            line,
            " {name} {:.1}%",
            100.0 * stats::ratio(ns as f64, ledger.wall_ns() as f64)
        );
    }
    println!("{line}");

    let mut layers = traced.layers;
    layers.insert(
        "bench.unattributed.ns",
        stats::ratio(ledger.residual_ns() as f64, traced.units as f64),
    );
    layers.insert(
        "bench.unattributed.share",
        stats::ratio(ledger.residual_ns() as f64, ledger.wall_ns() as f64),
    );
    layers.insert("bench.tracing_overhead.ratio", overhead);
    let metrics: Metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, (layers.remove(name).unwrap_or(0.0), unit)))
        .collect();
    if !layers.is_empty() {
        outcome.fail(format!("undeclared per-layer metrics {:?}", layers.keys()));
    }
    for (name, (value, unit)) in &metrics {
        println!("layer {name} {value} {unit}");
    }
    metrics
}

fn main() {
    let (workload, config) = match parse_args() {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!("perfbench: {err}");
            eprintln!(
                "usage: perfbench --workload <enclave_churn|attest_fleet|contended_2h|explore> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let mut outcome = match workload.as_str() {
        "enclave_churn" => churn::run(&config),
        "attest_fleet" => fleet::run(&config),
        "contended_2h" => contended::run(&config),
        "explore" => explore::run(&config),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    print_host(&workload, &config, &outcome);
    let end_to_end = end_to_end(&mut outcome);
    for (name, value) in &outcome.exact {
        println!("exact {name} {value}");
    }
    for line in &outcome.lines {
        println!("{line}");
    }
    let metrics = if config.trace {
        per_layer(&mut outcome)
    } else {
        end_to_end.unwrap_or_else(|| {
            outcome.fail("the untraced phase filled too few windows".to_string());
            Metrics::new()
        })
    };
    for error in &outcome.errors {
        println!("check failed: {error}");
    }
    let correct = outcome.errors.is_empty() && outcome.failed == 0;
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted.max(1),
        outcome.failed
    );
    for (index, (name, (value, unit))) in metrics.iter().enumerate() {
        let sep = if index == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    json.push_str("}}");
    println!("{json}");
    if !correct {
        std::process::exit(1);
    }
}
