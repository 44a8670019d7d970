//! `explore`: the cost of one explorer step.
//!
//! One thread walks seeded explorer seeds: `trace::generate(seed, 2, 200)`
//! applied through `diff::DiffPair::step`, both backends in lockstep with
//! the invariant kernel audited after every step. Any violation fails the
//! run.

use crate::calib::{HostClock, PhaseTime};
use crate::ledger::Ledger;
use crate::stats::Sample;
use crate::{leak, span_layers, stats, Config, Labels, Outcome, Traced, SETUPS, WARMUP};
use sanctorum_explorer::diff::DiffPair;
use sanctorum_explorer::explorer_machine_config;
use sanctorum_explorer::trace;
use sanctorum_hal::domain::CoreId;
use sanctorum_machine::MachineConfig;
use sanctorum_os::ops::Op;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Steps per explorer seed (the explorer's default).
const STEPS: usize = 200;
/// Interleaved hart streams (the explorer's default).
const HARTS: u32 = 2;
/// Tail percentile of the step latency.
const TAIL: f64 = 99.0;

struct Explore {
    machine: MachineConfig,
    /// `explorer.step.<label>` span names, by op label.
    spans: BTreeMap<&'static str, &'static str>,
}

impl Explore {
    /// Runs one explorer seed; returns the steps executed, or the violation.
    fn seed(
        &self,
        seed: u64,
        ledger: &mut Ledger,
        start: Instant,
        clock: &mut HostClock,
        samples: &mut Vec<Sample>,
    ) -> Result<(usize, DiffPair), String> {
        let ops = ledger.time("explorer.generate", || trace::generate(seed, HARTS, STEPS));
        let mut pair = ledger.time("explorer.boot", || DiffPair::boot(&self.machine, None));
        for (index, step) in ops.iter().enumerate() {
            clock.tick();
            let began = Instant::now();
            let result = ledger.time(self.spans[step.op.label()], || {
                pair.step(CoreId::new(step.hart), &step.op)
            });
            let latency = began.elapsed().as_nanos() as u64;
            samples.push(stats::sample(start, latency));
            result.map_err(|v| format!("seed {seed:#x} step {index}: {v}"))?;
        }
        Ok((ops.len(), pair))
    }

    /// Walks seeds drawn from `rng` until `phase` has elapsed; the host
    /// clock runs whenever the ledger does not.
    fn measure(
        &self,
        phase: Duration,
        rng: &mut u64,
        ledger: &mut Ledger,
        outcome: &mut Outcome,
        samples: &mut Vec<Sample>,
    ) -> (u64, PhaseTime) {
        let start = Instant::now();
        let mut clock = HostClock::new(start, !ledger.enabled());
        let mut steps = 0u64;
        ledger.begin();
        while start.elapsed() < phase {
            let seed = stats::splitmix(rng);
            match self.seed(seed, ledger, start, &mut clock, samples) {
                Ok((done, _)) => steps += done as u64,
                Err(err) => {
                    outcome.fail(err);
                    break;
                }
            }
        }
        if let Err(err) = ledger.end() {
            outcome.fail(err);
        }
        outcome.attempted += steps;
        (steps, clock.finish(samples))
    }
}

/// Runs the workload.
pub fn run(config: &Config) -> Outcome {
    let mut outcome = Outcome {
        threads: 1,
        unit: "step",
        tail_wanted: TAIL,
        labels: Labels {
            rate: "explorer_steps_per_s",
            latency: None,
            p50_ns: false,
        },
        ..Outcome::default()
    };
    let mut rng = config.seed ^ 0xe8_910e;
    let mut probes = Vec::new();
    let mut explore = None;
    let first_seed = stats::splitmix(&mut rng);
    for _ in 0..SETUPS {
        let built = outcome.time_setup(|| {
            let built = Explore {
                machine: explorer_machine_config(),
                spans: Op::ALL_LABELS
                    .iter()
                    .map(|label| (*label, leak(format!("explorer.step.{label}"))))
                    .collect(),
            };
            // Boot once so lazily built process-wide state is in place
            // before the loop times boots.
            std::hint::black_box(DiffPair::boot(&built.machine, None));
            built
        });
        // The probe: the first seed's final machine digests and modelled
        // cycles must repeat exactly on every setup.
        outcome.attempted += STEPS as u64;
        match built.seed(
            first_seed,
            &mut Ledger::new(false),
            Instant::now(),
            &mut HostClock::new(Instant::now(), false),
            &mut Vec::new(),
        ) {
            Ok((_, pair)) => {
                let sanctum = &pair.sanctum.world.system.machine;
                let keystone = &pair.keystone.world.system.machine;
                probes.push(vec![
                    ("probe_sanctum.digest".to_string(), sanctum.state_digest()),
                    ("probe_keystone.digest".to_string(), keystone.state_digest()),
                    (
                        "probe_sanctum.cycles".to_string(),
                        sanctum.total_cycles().count(),
                    ),
                    (
                        "probe_keystone.cycles".to_string(),
                        keystone.total_cycles().count(),
                    ),
                ]);
            }
            Err(err) => {
                outcome.fail(format!("probe: {err}"));
                probes.push(Vec::new());
            }
        }
        explore = Some(built);
    }
    outcome.check_exact(probes);
    let explore = explore.expect("at least one setup");

    let (untraced, traced) = config.phases();
    explore.measure(
        WARMUP,
        &mut rng,
        &mut Ledger::new(false),
        &mut outcome,
        &mut Vec::new(),
    );
    let mut samples = Vec::new();
    let (_, time) = explore.measure(
        untraced,
        &mut rng,
        &mut Ledger::new(false),
        &mut outcome,
        &mut samples,
    );
    outcome.samples = samples;
    outcome.time = time;

    if let Some(phase) = traced {
        if outcome.failed > 0 {
            return outcome;
        }
        let mut ledger = Ledger::new(true);
        let (units, time) =
            explore.measure(phase, &mut rng, &mut ledger, &mut outcome, &mut Vec::new());
        let seeds = ledger.entry("explorer.boot").items;
        let layers = span_layers(&ledger);
        outcome.lines.push(format!(
            "{seeds} explorer seeds traced; boot {:.1}% and trace generation {:.1}% of traced wall",
            100.0
                * stats::ratio(
                    ledger.entry("explorer.boot").ns as f64,
                    ledger.wall_ns() as f64
                ),
            100.0
                * stats::ratio(
                    ledger.entry("explorer.generate").ns as f64,
                    ledger.wall_ns() as f64
                ),
        ));
        outcome.traced = Some(Traced {
            ledger,
            units,
            elapsed: time.wall,
            layers,
        });
    }
    outcome
}
