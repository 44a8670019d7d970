//! `attest_fleet`: the relying party's view.
//!
//! Two threads each own one machine in the fleet geometry (eight client
//! enclaves plus the signing service) and share one `RemoteVerifier` and
//! one `SessionPool`. Clients attest in waves of `MAILBOX_QUEUE_DEPTH`:
//! begin → submit → drain → collect → verify → X25519 → `SecureSession`
//! seal/open → pool insert. Waves alternate between per-item `verify` and
//! `verify_batch`. A session's latency runs from its challenge to its pool
//! insert; every seal must open to its payload and every insert must be
//! fresh.

use crate::calib::{HostClock, PhaseTime};
use crate::ledger::Ledger;
use crate::stats::Sample;
use crate::{span_layers, stats, Config, Labels, Outcome, Traced, SETUPS, WARMUP};
use sanctorum_core::attestation::Certificate;
use sanctorum_core::mailbox::MAILBOX_QUEUE_DEPTH;
use sanctorum_core::monitor::SmConfig;
use sanctorum_enclave::client::AttestationClient;
use sanctorum_enclave::image::EnclaveImage;
use sanctorum_enclave::signing::SigningEnclave;
use sanctorum_machine::MachineConfig;
use sanctorum_os::{Os, PlatformKind, System};
use sanctorum_verifier::{ManufacturerCa, RemoteVerifier, SecureSession, SessionPool};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Machines, one per thread.
const MACHINES: usize = 2;
/// Client enclaves per machine.
const CLIENTS: usize = 8;
/// Tail percentile of the session latency.
const TAIL: f64 = 99.0;

/// One machine: its system, signing service and clients.
struct Node {
    index: usize,
    system: System,
    /// Owns the region bookkeeping behind the machine's enclaves.
    _os: Os,
    signing: SigningEnclave,
    certificate: Certificate,
    clients: Vec<AttestationClient>,
    round: u64,
    waves: u64,
}

struct World {
    nodes: Vec<Node>,
    verifier: RemoteVerifier,
    pool: SessionPool,
}

fn setup(seed: u64) -> World {
    let mut rng = seed ^ 0x0f1e_e7a7_7e57;
    let ca = ManufacturerCa::new(stats::array32(&mut rng));
    let scratch = System::boot_small(PlatformKind::Sanctum);
    let signing_measurement = Os::new(&scratch)
        .build_enclave(&EnclaveImage::signing_enclave(), 1)
        .expect("probe build of the signing enclave")
        .measurement;
    let mut client_measurement = None;
    let nodes = (0..MACHINES)
        .map(|index| {
            // The fleet geometry: half-megabyte regions, a PMP budget that
            // covers them all.
            let regions = (CLIENTS + 4).max(16);
            let machine_config = MachineConfig {
                memory_size: regions * 512 * 1024,
                dram_region_size: 512 * 1024,
                pmp_entries: regions + 8,
                device_id: stats::splitmix(&mut rng),
                ..MachineConfig::small()
            };
            let system = System::boot(
                PlatformKind::Sanctum,
                machine_config,
                SmConfig {
                    signing_enclave_measurement: Some(signing_measurement),
                    ..SmConfig::default()
                },
            );
            let mut os = Os::new(&system);
            let built = os
                .build_enclave(&EnclaveImage::signing_enclave(), 1)
                .expect("signing enclave builds");
            let mut signing = SigningEnclave::new(built.eid);
            signing
                .open_service(&system.monitor)
                .expect("the monitor releases the key to the signing enclave");
            let certificate = ca.certify_device(system.machine.root_of_trust());
            let clients = (0..CLIENTS)
                .map(|_| {
                    let built = os
                        .build_enclave(&EnclaveImage::attestation_client(), 1)
                        .expect("client enclave builds");
                    client_measurement = Some(built.measurement);
                    AttestationClient::new(built.eid, stats::array32(&mut rng))
                })
                .collect();
            Node {
                index,
                system,
                _os: os,
                signing,
                certificate,
                clients,
                round: 0,
                waves: 0,
            }
        })
        .collect();
    let verifier = RemoteVerifier::new(
        ca.root_public_key(),
        vec![client_measurement.expect("at least one client")],
        stats::array32(&mut rng),
    );
    World {
        nodes,
        verifier,
        pool: SessionPool::new(),
    }
}

/// One thread's results.
#[derive(Default)]
struct Worker {
    ledger: Ledger,
    /// One sample per session.
    samples: Vec<Sample>,
    sessions: u64,
    attempted: u64,
    wave_wait_ns: u64,
    errors: Vec<String>,
}

impl Node {
    /// One wave of clients `slots`, each session checked and filed.
    fn wave(
        &mut self,
        slots: std::ops::Range<usize>,
        verifier: &RemoteVerifier,
        pool: &SessionPool,
        start: Instant,
        rng: &mut u64,
        worker: &mut Worker,
    ) -> Result<(), String> {
        let batch = self.waves % 2 == 1;
        self.waves += 1;
        let sm = &*self.system.monitor;
        let Worker {
            ledger,
            samples,
            sessions,
            attempted,
            wave_wait_ns,
            ..
        } = worker;
        let n = slots.len();
        // Per session: (slot, challenge, started, own span time in ns).
        let mut pending = Vec::with_capacity(n);
        for slot in slots {
            let started = Instant::now();
            *attempted += 1;
            let challenge = ledger.time("verifier.begin", || verifier.begin());
            let mut own = ledger.last_ns();
            let client = &self.clients[slot];
            ledger
                .time("enclave.submit", || {
                    client.submit_request(sm, self.signing.eid(), challenge.nonce)
                })
                .map_err(|e| format!("submit: {e:?}"))?;
            own += ledger.last_ns();
            pending.push((slot, challenge, started, own));
        }
        let signing = &mut self.signing;
        let served = ledger
            .time_items("enclave.drain", n as u64, || signing.drain(sm))
            .map_err(|e| format!("drain: {e:?}"))?;
        if served.len() != n {
            return Err(format!("drain served {} of {n} requests", served.len()));
        }
        let drain_share = ledger.last_ns() / n as u64;
        let mut responses = Vec::with_capacity(n);
        for (slot, _, _, own) in &mut pending {
            let client = &self.clients[*slot];
            let response = ledger
                .time("enclave.collect", || {
                    client.collect_response(sm, self.certificate.clone())
                })
                .map_err(|e| format!("collect: {e:?}"))?;
            *own += drain_share + ledger.last_ns();
            responses.push((response.evidence, response.enclave_dh_public));
        }
        let verified = if batch {
            let results = ledger.time_items("verifier.verify_batch", n as u64, || {
                verifier.verify_batch(&responses)
            });
            let share = ledger.last_ns() / n as u64;
            pending.iter_mut().for_each(|p| p.3 += share);
            results
        } else {
            let mut results = Vec::with_capacity(n);
            for ((evidence, dh_public), p) in responses.iter().zip(&mut pending) {
                results
                    .push(ledger.time("verifier.verify", || verifier.verify(evidence, dh_public)));
                p.3 += ledger.last_ns();
            }
            results
        };
        for ((slot, challenge, started, mut own), result) in pending.into_iter().zip(verified) {
            let mut session = result.map_err(|e| format!("verify: {e:?}"))?;
            let client = &self.clients[slot];
            let shared = ledger.time("enclave.shared_secret", || {
                client.shared_secret(&challenge.verifier_dh_public)
            });
            own += ledger.last_ns();
            let payload = stats::bytes(rng, 32);
            let opened = ledger.time("verifier.session", || {
                let mut enclave_side = SecureSession::new(&shared, &challenge.nonce);
                let sealed = session.seal(&payload);
                enclave_side.open(&sealed)
            });
            own += ledger.last_ns();
            if opened.as_deref() != Ok(payload.as_slice()) {
                return Err(format!(
                    "session of slot {slot} did not round-trip: {opened:?}"
                ));
            }
            let tag = (self.round << 24) | ((self.index as u64) << 12) | slot as u64;
            let inserted = ledger.time("verifier.pool_insert", || pool.insert(tag, session));
            own += ledger.last_ns();
            if !inserted.is_fresh() {
                return Err(format!("pool insert of tag {tag:#x} was {inserted:?}"));
            }
            let latency = started.elapsed().as_nanos() as u64;
            samples.push(stats::sample(start, latency));
            *wave_wait_ns += latency.saturating_sub(own);
            *sessions += 1;
        }
        Ok(())
    }

    /// Attests in waves until `phase` has elapsed; the host clock runs
    /// whenever the ledger does not.
    fn measure(
        &mut self,
        verifier: &RemoteVerifier,
        pool: &SessionPool,
        phase: Duration,
        rng: &mut u64,
        worker: &mut Worker,
    ) -> PhaseTime {
        let start = Instant::now();
        let mut clock = HostClock::new(start, !worker.ledger.enabled());
        worker.ledger.begin();
        'rounds: while start.elapsed() < phase {
            // A round may end early at the deadline; its number is never
            // reused, so every pool tag stays fresh across phases.
            self.round += 1;
            for first in (0..CLIENTS).step_by(MAILBOX_QUEUE_DEPTH) {
                if start.elapsed() >= phase {
                    break 'rounds;
                }
                let slots = first..(first + MAILBOX_QUEUE_DEPTH).min(CLIENTS);
                clock.tick();
                if let Err(err) = self.wave(slots, verifier, pool, start, rng, worker) {
                    worker.errors.push(format!("machine {}: {err}", self.index));
                    break 'rounds;
                }
            }
        }
        if let Err(err) = worker.ledger.end() {
            worker.errors.push(err);
        }
        clock.finish(&mut worker.samples)
    }
}

impl World {
    /// Runs both machines on their own threads for `phase`; returns the
    /// merged worker results and the threads' mean time.
    fn measure(&mut self, phase: Duration, traced: bool, seed: u64) -> (Worker, PhaseTime) {
        let barrier = Barrier::new(self.nodes.len());
        let (verifier, pool) = (&self.verifier, &self.pool);
        let mut merged = Worker {
            ledger: Ledger::new(traced),
            ..Worker::default()
        };
        let mut times = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .nodes
                .iter_mut()
                .map(|node| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut rng = seed ^ (node.index as u64 + 1).wrapping_mul(0x5e55_1015);
                        let mut worker = Worker {
                            ledger: Ledger::new(traced),
                            ..Worker::default()
                        };
                        barrier.wait();
                        let time = node.measure(verifier, pool, phase, &mut rng, &mut worker);
                        (worker, time)
                    })
                })
                .collect();
            for handle in handles {
                let (worker, time) = handle.join().expect("fleet worker panicked");
                times.push(time);
                merged.ledger.merge(worker.ledger);
                merged.samples.extend(worker.samples);
                merged.sessions += worker.sessions;
                merged.attempted += worker.attempted;
                merged.wave_wait_ns += worker.wave_wait_ns;
                merged.errors.extend(worker.errors);
            }
        });
        (merged, PhaseTime::mean(&times))
    }

    /// `(signing cache hits, signatures produced)` across the machines.
    fn signing_cache(&self) -> (u64, u64) {
        self.nodes.iter().fold((0, 0), |(h, p), node| {
            let (hits, produced) = node.signing.cache_stats();
            (h + hits, p + produced)
        })
    }
}

/// Runs the workload.
pub fn run(config: &Config) -> Outcome {
    let mut outcome = Outcome {
        threads: MACHINES,
        unit: "session",
        tail_wanted: TAIL,
        labels: Labels {
            rate: "sessions_per_s",
            latency: Some("session"),
            p50_ns: false,
        },
        ..Outcome::default()
    };
    let mut world = None;
    for _ in 0..SETUPS {
        world = Some(outcome.time_setup(|| setup(config.seed)));
    }
    let mut world = world.expect("at least one setup");
    let absorb = |outcome: &mut Outcome, worker: &mut Worker| {
        outcome.attempted += worker.attempted;
        outcome.failed += worker.attempted - worker.sessions;
        outcome.errors.append(&mut worker.errors);
    };

    let (untraced, traced) = config.phases();
    let (mut worker, _) = world.measure(WARMUP, false, !config.seed);
    absorb(&mut outcome, &mut worker);
    let (mut worker, time) = world.measure(untraced, false, config.seed);
    absorb(&mut outcome, &mut worker);
    outcome.samples = worker.samples;
    outcome.time = time;

    if let Some(phase) = traced {
        if outcome.failed > 0 {
            return outcome;
        }
        let chain_before = world.verifier.stats();
        let signing_before = world.signing_cache();
        let (mut worker, time) = world.measure(phase, true, config.seed.rotate_left(17));
        absorb(&mut outcome, &mut worker);
        let chain_after = world.verifier.stats();
        let signing_after = world.signing_cache();
        let mut layers = span_layers(&worker.ledger);
        layers.insert(
            "attest.wave_wait.us",
            stats::ratio(worker.wave_wait_ns as f64, worker.sessions as f64) / 1e3,
        );
        layers.insert(
            "verifier.chain_cache_hit_ratio",
            stats::ratio(
                (chain_after.chain_cache_hits - chain_before.chain_cache_hits) as f64,
                (chain_after.verified_sessions - chain_before.verified_sessions) as f64,
            ),
        );
        let hits = signing_after.0 - signing_before.0;
        let produced = signing_after.1 - signing_before.1;
        layers.insert(
            "enclave.signing_cache_hit_ratio",
            stats::ratio(hits as f64, (hits + produced) as f64),
        );
        let ledger = &worker.ledger;
        let crypto: u64 = [
            "verifier.verify",
            "verifier.verify_batch",
            "enclave.shared_secret",
            "enclave.drain",
        ]
        .iter()
        .map(|name| ledger.entry(name).ns)
        .sum();
        outcome.lines.push(format!(
            "crypto-bound calls (verify, verify_batch, X25519, drain with Ed25519 sign) hold {:.1}% of traced thread time",
            100.0 * stats::ratio(crypto as f64, ledger.wall_ns() as f64)
        ));
        outcome.traced = Some(Traced {
            ledger: worker.ledger,
            units: worker.sessions,
            elapsed: time.wall,
            layers,
        });
    }
    outcome
}
