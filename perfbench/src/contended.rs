//! `contended_2h`: the concurrency contract under real parallelism.
//!
//! Two threads share one Sanctum monitor in the concurrent geometry, each
//! owning half of the untrusted regions. Every step is a seeded draw: half
//! are reads (`get_field`, `resource_state` of any region, the other
//! thread's included, and `peek_mail` on the thread's reader enclave), half
//! are lifecycle slices on the thread's own regions (block/clean +
//! create/page table/thread/init, a mail round trip, delete/clean).
//! `ConcurrentCall` is retried as `sanctorum_os::concurrent` retries it:
//! spin, yielding every 64th retry; `Again` a bounded number of times.
//! Every mail round trip must return its payload, and the quiescent
//! invariants must hold after the run.

use crate::calib::{HostClock, PhaseTime};
use crate::ledger::Ledger;
use crate::stats::Sample;
use crate::{leak, stats, Config, Labels, Outcome, Traced, SETUPS, WARMUP};
use sanctorum_core::api::SmApi;
use sanctorum_core::error::SmError;
use sanctorum_core::monitor::{PublicField, SecurityMonitor, SmConfig};
use sanctorum_core::resource::{ResourceId, ResourceState};
use sanctorum_core::session::CallerSession;
use sanctorum_explorer::concurrent::{concurrent_machine_config, quiescent_invariants};
use sanctorum_hal::addr::VirtAddr;
use sanctorum_hal::domain::{DomainKind, EnclaveId};
use sanctorum_hal::isolation::RegionId;
use sanctorum_os::{PlatformKind, System};
use sanctorum_trust::Tainted;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Worker threads.
const THREADS: usize = 2;
/// Steps per thread in a probe.
const PROBE_STEPS: usize = 2_000;
/// Tail percentile of the step latency.
const TAIL: f64 = 99.0;
/// `Again` rejections one call absorbs before failing.
const AGAIN_RETRY_BUDGET: u32 = 8;
/// The message each reader enclave keeps queued for `peek_mail`.
const PROBE_MAIL: &[u8] = b"peek at me";

/// The monitor calls a step can make, in report order.
const CALLS: [&str; 13] = [
    "get_field",
    "resource_state",
    "peek_mail",
    "block_resource",
    "clean_resource",
    "create_enclave",
    "allocate_page_table",
    "load_thread",
    "init_enclave",
    "accept_mail",
    "send_mail",
    "get_mail",
    "delete_enclave",
];

#[derive(Clone, Copy)]
enum Call {
    GetField,
    ResourceState,
    PeekMail,
    Block,
    Clean,
    Create,
    PageTable,
    LoadThread,
    Init,
    AcceptMail,
    SendMail,
    GetMail,
    Delete,
}

/// Per-call tallies of one thread.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
struct Tally {
    committed: u64,
    retries: u64,
}

struct Worker<'m> {
    monitor: &'m SecurityMonitor,
    /// Regions this worker churns (its reader enclave's region excluded).
    regions: Vec<RegionId>,
    /// Every region of the machine, for cross-thread `resource_state` reads.
    all_regions: u32,
    reader: EnclaveId,
    enclave: Option<(EnclaveId, RegionId)>,
    rng: u64,
    tally: [Tally; CALLS.len()],
    ledger: Ledger,
    /// `core.<call>` span names, built once.
    spans: [&'static str; CALLS.len()],
}

impl<'m> Worker<'m> {
    /// One monitor call with the retry discipline, timed (retries included)
    /// as `core.<call>`.
    fn call<T>(
        &mut self,
        which: Call,
        mut f: impl FnMut(&SecurityMonitor) -> Result<T, SmError>,
    ) -> Result<T, SmError> {
        let monitor = self.monitor;
        let span = self.spans[which as usize];
        let tally = &mut self.tally[which as usize];
        self.ledger.time(span, || {
            let mut spins = 0u32;
            let mut transient = 0u32;
            loop {
                match f(monitor) {
                    Err(SmError::ConcurrentCall) => {
                        tally.retries += 1;
                        spins += 1;
                        if spins.is_multiple_of(64) {
                            std::thread::yield_now();
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                    Err(SmError::Again) if transient < AGAIN_RETRY_BUDGET => {
                        transient += 1;
                        tally.retries += 1;
                        for _ in 0..(1u32 << transient) {
                            std::hint::spin_loop();
                        }
                    }
                    other => {
                        if other.is_ok() {
                            tally.committed += 1;
                        }
                        return other;
                    }
                }
            }
        })
    }

    fn build(&mut self, region: RegionId) -> Result<EnclaveId, SmError> {
        let os = CallerSession::os();
        let eid = self.call(Call::Create, |m| {
            m.create_enclave(os, VirtAddr::new(0x10_0000), 0x4000, &[region])
        })?;
        self.call(Call::PageTable, |m| m.allocate_page_table(os, eid))?;
        self.call(Call::LoadThread, |m| {
            m.load_thread(os, eid, 0x10_0000, None)
        })?;
        self.call(Call::Init, |m| m.init_enclave(os, eid))?;
        Ok(eid)
    }

    /// Blocks and cleans `region` out of the OS's hands, as far as needed.
    fn make_available(&mut self, region: RegionId) -> Result<bool, SmError> {
        let os = CallerSession::os();
        let id = ResourceId::Region(region);
        match self.call(Call::ResourceState, |m| m.resource_state(id))? {
            ResourceState::Owned(DomainKind::Untrusted) => {
                self.call(Call::Block, |m| m.block_resource(os, id))?;
                self.call(Call::Clean, |m| m.clean_resource(os, id))?;
            }
            ResourceState::Blocked(_) => {
                self.call(Call::Clean, |m| m.clean_resource(os, id))?;
            }
            ResourceState::Available => {}
            ResourceState::Owned(_) => return Ok(false),
        }
        Ok(true)
    }

    /// One seeded step.
    fn step(&mut self) -> Result<(), String> {
        let os = CallerSession::os();
        let draw = stats::splitmix(&mut self.rng);
        let fail = |what: &str, e: SmError| format!("{what}: {e:?}");
        if draw & 1 == 0 {
            match (draw >> 1) % 3 {
                0 => {
                    let field = PublicField::from_selector((draw >> 3) & 3).expect("selector < 4");
                    self.call(Call::GetField, |m| Ok(m.get_field(os, field)))
                        .map_err(|e| fail("get_field", e))?;
                }
                1 => {
                    let region = RegionId::new(((draw >> 3) % self.all_regions as u64) as u32);
                    self.call(Call::ResourceState, |m| {
                        m.resource_state(ResourceId::Region(region))
                    })
                    .map_err(|e| fail("resource_state", e))?;
                }
                _ => {
                    let session = CallerSession::enclave(self.reader);
                    let (len, _) = self
                        .call(Call::PeekMail, |m| m.peek_mail(session, 0))
                        .map_err(|e| fail("peek_mail", e))?;
                    if len != PROBE_MAIL.len() {
                        return Err(format!("peek_mail saw a {len}-byte message"));
                    }
                }
            }
            return Ok(());
        }
        match self.enclave {
            None => {
                let region = self.regions[((draw >> 1) % self.regions.len() as u64) as usize];
                if self
                    .make_available(region)
                    .map_err(|e| fail("block/clean", e))?
                {
                    let eid = self.build(region).map_err(|e| fail("build", e))?;
                    self.enclave = Some((eid, region));
                }
            }
            Some((eid, _)) if draw & 4 != 0 => {
                let session = CallerSession::enclave(eid);
                let payload = draw.to_le_bytes();
                self.call(Call::AcceptMail, |m| m.accept_mail(session, 0, 0))
                    .map_err(|e| fail("accept_mail", e))?;
                self.call(Call::SendMail, |m| {
                    m.send_mail(os, eid, Tainted::new(&payload))
                })
                .map_err(|e| fail("send_mail", e))?;
                let (bytes, _) = self
                    .call(Call::GetMail, |m| m.get_mail(session, 0))
                    .map_err(|e| fail("get_mail", e))?;
                if bytes != payload {
                    return Err(format!(
                        "mail round trip returned {bytes:?} for {payload:?}"
                    ));
                }
            }
            Some((eid, region)) => {
                self.call(Call::Delete, |m| m.delete_enclave(os, eid))
                    .map_err(|e| fail("delete_enclave", e))?;
                self.call(Call::Clean, |m| {
                    m.clean_resource(os, ResourceId::Region(region))
                })
                .map_err(|e| fail("clean_resource", e))?;
                self.enclave = None;
            }
        }
        Ok(())
    }
}

/// A booted monitor with each thread's regions and reader enclave.
struct World {
    system: System,
    slices: Vec<(Vec<RegionId>, EnclaveId)>,
}

fn setup() -> World {
    let system = System::boot(
        PlatformKind::Sanctum,
        concurrent_machine_config(),
        SmConfig::default(),
    );
    let monitor = &system.monitor;
    let untrusted: Vec<RegionId> = (0..system.machine.config().num_regions() as u32)
        .map(RegionId::new)
        .filter(|r| {
            matches!(
                monitor.resource_state(ResourceId::Region(*r)),
                Ok(ResourceState::Owned(DomainKind::Untrusted))
            )
        })
        .collect();
    let os = CallerSession::os();
    let slices = (0..THREADS)
        .map(|thread| {
            let mut regions: Vec<RegionId> = untrusted
                .iter()
                .copied()
                .skip(thread)
                .step_by(THREADS)
                .collect();
            // The first region hosts the thread's reader enclave, which
            // keeps one message queued for `peek_mail`.
            let reader_region = regions.remove(0);
            let id = ResourceId::Region(reader_region);
            monitor.block_resource(os, id).expect("block reader region");
            monitor.clean_resource(os, id).expect("clean reader region");
            let eid = monitor
                .create_enclave(os, VirtAddr::new(0x10_0000), 0x4000, &[reader_region])
                .expect("create reader");
            monitor
                .allocate_page_table(os, eid)
                .expect("reader page table");
            monitor
                .load_thread(os, eid, 0x10_0000, None)
                .expect("reader thread");
            monitor.init_enclave(os, eid).expect("init reader");
            monitor
                .accept_mail(CallerSession::enclave(eid), 0, 0)
                .expect("reader accepts OS mail");
            monitor
                .send_mail(os, eid, Tainted::new(PROBE_MAIL))
                .expect("queue the probe message");
            (regions, eid)
        })
        .collect();
    World { system, slices }
}

/// Merged results of one phase.
#[derive(Default)]
struct Phase {
    ledger: Ledger,
    /// One sample per step.
    samples: Vec<Sample>,
    steps: u64,
    tally: [Tally; CALLS.len()],
    errors: Vec<String>,
    /// The threads' mean time.
    time: PhaseTime,
}

impl Phase {
    /// Counts the phase's steps and failures into `outcome`.
    fn absorb_into(&mut self, outcome: &mut Outcome) {
        outcome.attempted += self.steps + self.errors.len() as u64;
        outcome.failed += self.errors.len() as u64;
        outcome.errors.append(&mut self.errors);
    }
}

impl World {
    /// Runs both threads for `steps` steps each, or for `phase` when
    /// `steps` is `None`, continuing each thread's stream from `rngs`. The
    /// host clocks run in untraced timed phases.
    fn drive(
        &self,
        rngs: &mut [u64],
        enclaves: &mut [Option<(EnclaveId, RegionId)>],
        steps: Option<usize>,
        phase: Duration,
        traced: bool,
        timed: bool,
    ) -> Phase {
        let barrier = Barrier::new(THREADS);
        let spans = CALLS.map(|call| leak(format!("core.{call}")));
        let all_regions = self.system.machine.config().num_regions() as u32;
        let mut merged = Phase {
            ledger: Ledger::new(traced),
            ..Phase::default()
        };
        let mut times = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .slices
                .iter()
                .zip(rngs.iter_mut())
                .zip(enclaves.iter_mut())
                .map(|(((regions, reader), rng), enclave)| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut worker = Worker {
                            monitor: &self.system.monitor,
                            regions: regions.clone(),
                            all_regions,
                            reader: *reader,
                            enclave: *enclave,
                            rng: *rng,
                            tally: [Tally::default(); CALLS.len()],
                            ledger: Ledger::new(traced),
                            spans,
                        };
                        let mut samples = Vec::new();
                        let mut errors = Vec::new();
                        let mut done = 0u64;
                        barrier.wait();
                        let start = Instant::now();
                        let mut clock = HostClock::new(start, timed && !traced);
                        worker.ledger.begin();
                        loop {
                            match steps {
                                Some(limit) if done as usize >= limit => break,
                                None if start.elapsed() >= phase => break,
                                _ => {}
                            }
                            clock.tick();
                            let began = timed.then(Instant::now);
                            if let Err(err) = worker.step() {
                                errors.push(err);
                                break;
                            }
                            if let Some(began) = began {
                                let latency = began.elapsed().as_nanos() as u64;
                                samples.push(stats::sample(start, latency));
                            }
                            done += 1;
                        }
                        if let Err(err) = worker.ledger.end() {
                            errors.push(err);
                        }
                        let time = clock.finish(&mut samples);
                        *rng = worker.rng;
                        *enclave = worker.enclave;
                        (worker.ledger, worker.tally, samples, errors, done, time)
                    })
                })
                .collect();
            for handle in handles {
                let (ledger, tally, samples, errors, done, time) =
                    handle.join().expect("contended worker panicked");
                merged.ledger.merge(ledger);
                for (sum, t) in merged.tally.iter_mut().zip(tally) {
                    sum.committed += t.committed;
                    sum.retries += t.retries;
                }
                if merged.samples.is_empty() {
                    merged.samples = samples;
                } else {
                    merged.samples.extend(samples);
                }
                merged.errors.extend(errors);
                merged.steps += done;
                times.push(time);
            }
        });
        merged.time = PhaseTime::mean(&times);
        merged
    }
}

fn thread_seeds(seed: u64) -> Vec<u64> {
    (0..THREADS as u64)
        .map(|t| seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(t + 1))
        .collect()
}

/// Runs the workload.
pub fn run(config: &Config) -> Outcome {
    let mut outcome = Outcome {
        threads: THREADS,
        unit: "step",
        tail_wanted: TAIL,
        labels: Labels {
            rate: "steps_per_s",
            latency: Some("step"),
            p50_ns: true,
        },
        ..Outcome::default()
    };
    let mut probes = Vec::new();
    let mut state = None;
    for _ in 0..SETUPS {
        let world = outcome.time_setup(setup);
        // The probe: a fixed number of steps per thread, whose committed
        // calls (retries excluded) must repeat exactly for this seed.
        let mut rngs = thread_seeds(config.seed);
        let mut enclaves = vec![None; THREADS];
        let probe = world.drive(
            &mut rngs,
            &mut enclaves,
            Some(PROBE_STEPS),
            Duration::ZERO,
            false,
            false,
        );
        outcome.attempted += (PROBE_STEPS * THREADS) as u64;
        outcome.failed += (PROBE_STEPS * THREADS) as u64 - probe.steps;
        outcome.errors.extend(probe.errors);
        let committed: Vec<(String, u64)> = CALLS
            .iter()
            .zip(probe.tally)
            .map(|(call, t)| (format!("probe_committed.{call}"), t.committed))
            .collect();
        probes.push(committed);
        state = Some((world, rngs, enclaves));
    }
    outcome.check_exact(probes);
    let (world, mut rngs, mut enclaves) = state.expect("at least one setup");

    let (untraced, traced) = config.phases();
    let mut phase = world.drive(&mut rngs, &mut enclaves, None, WARMUP, false, false);
    phase.absorb_into(&mut outcome);
    let mut phase = world.drive(&mut rngs, &mut enclaves, None, untraced, false, true);
    phase.absorb_into(&mut outcome);
    outcome.samples = phase.samples;
    outcome.time = phase.time;

    if let Some(duration) = traced {
        if outcome.failed == 0 {
            let failures = || {
                world
                    .system
                    .monitor
                    .stats()
                    .concurrency_failures
                    .load(Ordering::Relaxed)
            };
            let failures_before = failures();
            let mut phase = world.drive(&mut rngs, &mut enclaves, None, duration, true, false);
            let failed_calls = failures() - failures_before;
            phase.absorb_into(&mut outcome);
            outcome.traced = Some(traced_layers(&mut outcome, phase, failed_calls));
        }
    }
    if let Err(err) = quiescent_invariants(&world.system) {
        outcome.fail(format!("quiescent invariants after the run: {err}"));
    }
    outcome
}

fn traced_layers(outcome: &mut Outcome, phase: Phase, failures: u64) -> Traced {
    let steps = phase.steps as f64;
    let mut layers = BTreeMap::new();
    let mut ranking = Vec::new();
    let (mut committed, mut retries) = (0u64, 0u64);
    for (call, tally) in CALLS.iter().zip(phase.tally) {
        let entry = phase.ledger.entry(&format!("core.{call}"));
        layers.insert(
            leak(format!("core.{call}.ns")),
            stats::ratio(entry.ns as f64, entry.items as f64),
        );
        layers.insert(
            leak(format!("core.{call}.retries_per_call")),
            stats::ratio(tally.retries as f64, tally.committed as f64),
        );
        committed += tally.committed;
        retries += tally.retries;
        ranking.push((tally.retries, *call, tally.committed));
    }
    layers.insert(
        "contended.retries_per_step",
        stats::ratio(retries as f64, steps),
    );
    layers.insert(
        "contended.useful_ratio",
        stats::ratio(committed as f64, (committed + retries) as f64),
    );
    layers.insert(
        "core.sm.concurrency_failures",
        stats::ratio(failures as f64, steps),
    );
    ranking.sort_by(|a, b| b.cmp(a));
    let mut line = String::from("retries by call:");
    for (count, call, calls) in ranking {
        line.push_str(&format!(
            " {call} {count} ({:.1}%, {:.2}/call)",
            100.0 * stats::ratio(count as f64, retries as f64),
            stats::ratio(count as f64, calls as f64)
        ));
    }
    outcome.lines.push(line);
    Traced {
        ledger: phase.ledger,
        units: phase.steps,
        elapsed: phase.time.wall,
        layers,
    }
}
