//! `enclave_churn`: the OS's view of the monitor.
//!
//! One OS thread drives whole enclave lifecycles through the register ABI
//! (`stage_call` → `handle_event` → `read_call_result`) on hart 0: block and
//! clean a region, create, allocate the page table, load eight seeded pages
//! staged with `phys_write`, load a thread, init, enter and run the thread
//! to its exit ecall, delete, clean and grant the region back. Lifecycles
//! alternate between a Sanctum and a Keystone system. Every `init` must
//! produce the measurement a reference build through `Os::build_enclave`
//! gives for the same image on a fresh system of that backend.

use crate::calib::{HostClock, PhaseTime};
use crate::ledger::Ledger;
use crate::stats::Sample;
use crate::{span_layers, stats, Config, Labels, Outcome, Traced, SETUPS, WARMUP};
use sanctorum_core::api::{status, SmCall};
use sanctorum_core::dispatch::EventOutcome;
use sanctorum_core::measurement::Measurement;
use sanctorum_core::monitor::SmConfig;
use sanctorum_crypto::sha3::Sha3_256;
use sanctorum_enclave::image::{EnclaveImage, ThreadSpec};
use sanctorum_hal::addr::{PhysAddr, PAGE_SIZE};
use sanctorum_hal::domain::{CoreId, DomainKind, EnclaveId};
use sanctorum_hal::isolation::RegionId;
use sanctorum_hal::perm::MemPerms;
use sanctorum_machine::guest::{ExitReason, GuestOp, GuestProgram, REG_A0};
use sanctorum_machine::hart::PrivilegeLevel;
use sanctorum_machine::trap::TrapCause;
use sanctorum_machine::MachineConfig;
use sanctorum_os::{Os, PlatformKind, System};
use sanctorum_trust::Tainted;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Pages loaded per lifecycle.
const PAGES: usize = 8;
/// The hart the OS issues its calls from.
const CORE: CoreId = CoreId::new(0);
/// Guest steps allowed before a run counts as stuck.
const RUN_BUDGET: u64 = 10_000;
/// Lifecycles per probe (two per backend).
const PROBE_LIFECYCLES: usize = 4;
/// Tail percentile of the lifecycle latency: p98, because the lifecycle p99
/// did not repeat within a tenth over ten 30-second runs on a shared 2-vCPU
/// host (quartile spread 0.11 of the median), while p98 did.
const TAIL: f64 = 98.0;
/// Passes over the image's pages when timing SHA3-256 alone.
const SHA3_REPS: usize = 512;

/// One booted backend with the region its lifecycles cycle through.
struct Side {
    system: System,
    staging: PhysAddr,
    region: RegionId,
    expected: Measurement,
}

struct Churn {
    sides: Vec<Side>,
    image: EnclaveImage,
    program: GuestProgram,
}

/// The seeded image: eight full pages of seeded bytes (text first) and one
/// thread that copies a word between two data pages and exits.
fn image(seed: u64) -> EnclaveImage {
    let mut rng = seed ^ 0x00c4_0e0c_4a11;
    let (base, len) = EnclaveImage::default_evrange();
    let page = |i: usize| base.offset((i * PAGE_SIZE) as u64);
    let program = GuestProgram::new(
        "churn-enclave",
        vec![
            GuestOp::MovImm {
                dst: 1,
                value: page(1).as_u64(),
            },
            GuestOp::Load { dst: 2, addr: 1 },
            GuestOp::MovImm {
                dst: 3,
                value: page(2).as_u64(),
            },
            GuestOp::Store { src: 2, addr: 3 },
            GuestOp::MovImm {
                dst: REG_A0,
                value: 8,
            },
            GuestOp::Ecall,
            GuestOp::Exit,
        ],
    );
    let mut image = EnclaveImage::new("churn", base, len).with_thread(ThreadSpec {
        entry_pc: 0,
        fault_handler_pc: None,
        program,
    });
    for i in 0..PAGES {
        let perms = if i == 0 { MemPerms::RX } else { MemPerms::RW };
        image = image.with_page(page(i), perms, stats::bytes(&mut rng, PAGE_SIZE));
    }
    image
}

fn setup(seed: u64) -> Churn {
    let image = image(seed);
    let program = image.threads[0].program.clone();
    let sides = [PlatformKind::Sanctum, PlatformKind::Keystone]
        .into_iter()
        .map(|platform| {
            let system = System::boot(platform, MachineConfig::small(), SmConfig::default());
            let os = Os::new(&system);
            let region = *os.free_regions().last().expect("a free region");
            system.machine.install_context(
                CORE,
                DomainKind::Untrusted,
                PrivilegeLevel::Supervisor,
                None,
                0,
            );
            // The oracle: the same image built through the direct SmApi path
            // on a fresh system of the same backend.
            let reference = System::boot(platform, MachineConfig::small(), SmConfig::default());
            let expected = Os::new(&reference)
                .build_enclave(&image, 1)
                .expect("reference build succeeds")
                .measurement;
            Side {
                staging: os.staging_base(),
                region,
                expected,
                system,
            }
        })
        .collect();
    Churn {
        sides,
        image,
        program,
    }
}

impl Churn {
    /// One register-ABI round trip; returns the call's value.
    fn abi(
        &self,
        side: &Side,
        ledger: &mut Ledger,
        name: &'static str,
        call: SmCall,
        abi_ns: &mut Vec<u64>,
    ) -> Result<u64, String> {
        let sm = &*side.system.monitor;
        let start = Instant::now();
        let (outcome, (code, value)) = ledger.time_cycles(name, &side.system.machine, || {
            sm.stage_call(CORE, &call);
            let outcome = sm.handle_event(CORE, TrapCause::EnvironmentCall);
            (outcome, sm.read_call_result(CORE))
        });
        abi_ns.push(start.elapsed().as_nanos() as u64);
        match outcome {
            EventOutcome::SmCallDone {
                status: status::OK, ..
            } if code == status::OK => Ok(value),
            other => Err(format!("{name} returned {other:?} (a0 = {code})")),
        }
    }

    /// Enters the thread through the ABI and runs it to its exit ecall.
    fn run_thread(
        &self,
        side: &Side,
        ledger: &mut Ledger,
        eid: EnclaveId,
        tid: u64,
        abi_ns: &mut Vec<u64>,
    ) -> Result<(), String> {
        let sm = &*side.system.monitor;
        let machine = &*side.system.machine;
        let start = Instant::now();
        let entered = ledger.time_cycles("core.enter_enclave", machine, || {
            sm.stage_call(CORE, &SmCall::EnterEnclave { eid, tid });
            sm.handle_event(CORE, TrapCause::EnvironmentCall)
        });
        abi_ns.push(start.elapsed().as_nanos() as u64);
        if !matches!(
            entered,
            EventOutcome::SmCallDone {
                status: status::OK,
                ..
            }
        ) || !machine.hart(CORE).domain.is_enclave()
        {
            return Err(format!("enter_enclave returned {entered:?}"));
        }
        let ran = ledger.time_cycles("os.run_thread", machine, || {
            machine.run_guest(CORE, &self.program, RUN_BUDGET)
        });
        if ran.exit != ExitReason::Ecall {
            return Err(format!("enclave thread stopped with {:?}", ran.exit));
        }
        let start = Instant::now();
        let exited = ledger.time_cycles("core.exit_enclave", machine, || {
            sm.handle_event(CORE, TrapCause::EnvironmentCall)
        });
        abi_ns.push(start.elapsed().as_nanos() as u64);
        if !matches!(
            exited,
            EventOutcome::SmCallDone {
                status: status::OK,
                ..
            }
        ) || machine.hart(CORE).domain != DomainKind::Untrusted
        {
            return Err(format!("exit_enclave returned {exited:?}"));
        }
        Ok(())
    }

    /// One whole lifecycle on `side`; returns the modelled cycles it cost.
    fn lifecycle(
        &self,
        side: &Side,
        ledger: &mut Ledger,
        abi_ns: &mut Vec<u64>,
    ) -> Result<u64, String> {
        let machine = &*side.system.machine;
        let cycles_before = machine.total_cycles().count();
        let region = side.region;
        self.abi(
            side,
            ledger,
            "core.block_resource",
            SmCall::BlockRegion { region },
            abi_ns,
        )?;
        self.abi(
            side,
            ledger,
            "core.clean_resource",
            SmCall::CleanRegion { region },
            abi_ns,
        )?;
        let (evrange_base, evrange_len) = (self.image.evrange_base, self.image.evrange_len);
        let eid = EnclaveId::new(self.abi(
            side,
            ledger,
            "core.create_enclave",
            SmCall::CreateEnclave {
                evrange_base,
                evrange_len,
                region,
            },
            abi_ns,
        )?);
        self.abi(
            side,
            ledger,
            "core.allocate_page_table",
            SmCall::AllocatePageTable { eid },
            abi_ns,
        )?;
        for (vaddr, perms, contents) in &self.image.pages {
            ledger
                .time("machine.stage", || {
                    machine.phys_write(side.staging, contents)
                })
                .map_err(|e| format!("staging a page: {e:?}"))?;
            let call = SmCall::LoadPage {
                eid,
                vaddr: *vaddr,
                src: Tainted::new(side.staging),
                perms: *perms,
            };
            self.abi(side, ledger, "core.load_page", call, abi_ns)?;
        }
        let tid = self.abi(
            side,
            ledger,
            "core.load_thread",
            SmCall::LoadThread { eid, entry_pc: 0 },
            abi_ns,
        )?;
        self.abi(
            side,
            ledger,
            "core.init_enclave",
            SmCall::InitEnclave { eid },
            abi_ns,
        )?;
        let measured = side.system.monitor.enclave_measurement(eid);
        if measured.as_ref() != Ok(&side.expected) {
            return Err(format!(
                "init measured {measured:?}, expected {:?}",
                side.expected
            ));
        }
        self.run_thread(side, ledger, eid, tid, abi_ns)?;
        self.abi(
            side,
            ledger,
            "core.delete_enclave",
            SmCall::DeleteEnclave { eid },
            abi_ns,
        )?;
        self.abi(
            side,
            ledger,
            "core.clean_resource",
            SmCall::CleanRegion { region },
            abi_ns,
        )?;
        self.abi(
            side,
            ledger,
            "core.grant_resource",
            SmCall::GrantRegion {
                region,
                owner_eid: 0,
            },
            abi_ns,
        )?;
        Ok(machine.total_cycles().count() - cycles_before)
    }

    /// Machine-wide counters the traced run reports per lifecycle:
    /// `(flushed cache lines, TLB invalidations, SM cleaning cycles)`.
    fn counters(side: &Side) -> [u64; 3] {
        let machine = &side.system.machine;
        let flushed = machine.with_cache_mut(|cache| cache.stats().flushed_lines);
        let invalidations = (0..machine.num_harts() as u32)
            .map(|hart| machine.tlb(CoreId::new(hart)).stats().invalidations)
            .sum();
        let cleaning = side
            .system
            .monitor
            .stats()
            .cleaning_cycles
            .load(Ordering::Relaxed);
        [flushed, invalidations, cleaning]
    }

    /// Runs lifecycles until `phase` has elapsed; the host clock runs
    /// whenever the ledger does not.
    fn measure(
        &self,
        phase: Duration,
        ledger: &mut Ledger,
        outcome: &mut Outcome,
        samples: &mut Vec<Sample>,
        abi_ns: &mut Vec<u64>,
        cycles: &mut Vec<u64>,
    ) -> (u64, PhaseTime) {
        let start = Instant::now();
        let mut clock = HostClock::new(start, !ledger.enabled());
        let mut done = 0u64;
        ledger.begin();
        while start.elapsed() < phase {
            clock.tick();
            let side = &self.sides[done as usize % self.sides.len()];
            let before = ledger.enabled().then(|| Self::counters(side));
            let began = Instant::now();
            outcome.attempted += 1;
            match self.lifecycle(side, ledger, abi_ns) {
                Ok(spent) => {
                    let latency = began.elapsed().as_nanos() as u64;
                    samples.push(stats::sample(start, latency));
                    cycles.push(spent);
                    done += 1;
                }
                Err(err) => {
                    outcome.fail(format!("lifecycle {done}: {err}"));
                    break;
                }
            }
            if let Some(before) = before {
                let after = Self::counters(side);
                ledger.add("machine.cache.flushed_lines", (after[0] - before[0]) as f64);
                ledger.add("machine.tlb.invalidations", (after[1] - before[1]) as f64);
                ledger.add("core.sm.cleaning_cycles", (after[2] - before[2]) as f64);
            }
        }
        if let Err(err) = ledger.end() {
            outcome.fail(err);
        }
        (done, clock.finish(samples))
    }
}

/// Runs the workload.
pub fn run(config: &Config) -> Outcome {
    let mut outcome = Outcome {
        threads: 1,
        unit: "lifecycle",
        tail_wanted: TAIL,
        labels: Labels {
            rate: "lifecycles_per_s",
            latency: Some("lifecycle"),
            p50_ns: false,
        },
        ..Outcome::default()
    };
    let mut probes = Vec::new();
    let mut churn = None;
    for _ in 0..SETUPS {
        let built = outcome.time_setup(|| setup(config.seed));
        // The probe: the first lifecycles of a fresh world, whose modelled
        // cycles must repeat exactly on every setup of this seed.
        let mut probe = Vec::new();
        for index in 0..PROBE_LIFECYCLES {
            let side = &built.sides[index % built.sides.len()];
            outcome.attempted += 1;
            match built.lifecycle(side, &mut Ledger::new(false), &mut Vec::new()) {
                Ok(spent) => probe.push((format!("probe_lifecycle_{index}.cycles"), spent)),
                Err(err) => outcome.fail(format!("probe lifecycle {index}: {err}")),
            }
        }
        probes.push(probe);
        churn = Some(built);
    }
    outcome.check_exact(probes);
    let churn = churn.expect("at least one setup");

    let (untraced, traced) = config.phases();
    churn.measure(
        WARMUP,
        &mut Ledger::new(false),
        &mut outcome,
        &mut Vec::new(),
        &mut Vec::new(),
        &mut Vec::new(),
    );
    let mut abi_ns = Vec::new();
    let mut cycles = Vec::new();
    let mut samples = Vec::new();
    let (_, time) = churn.measure(
        untraced,
        &mut Ledger::new(false),
        &mut outcome,
        &mut samples,
        &mut abi_ns,
        &mut cycles,
    );
    outcome.samples = samples;
    outcome.time = time;
    abi_ns.sort_unstable();
    if !abi_ns.is_empty() {
        let cycles_mean = stats::ratio(cycles.iter().sum::<u64>() as f64, cycles.len() as f64);
        outcome.named = vec![
            (
                "sm_call_p99_us".into(),
                stats::percentile(&abi_ns, 99.0) as f64 / 1e3,
                "us",
            ),
            ("lifecycle_cycles".into(), cycles_mean, "cycles"),
        ];
    }
    let distinct: std::collections::BTreeSet<u64> = cycles.iter().copied().collect();
    outcome.lines.push(format!(
        "distinct lifecycle cycle counts in the untraced phase: {distinct:?}"
    ));

    if let Some(phase) = traced {
        if outcome.failed > 0 {
            return outcome;
        }
        let mut ledger = Ledger::new(true);
        let (mut samples, mut abi, mut cyc) = (Vec::new(), Vec::new(), Vec::new());
        let (units, time) = churn.measure(
            phase,
            &mut ledger,
            &mut outcome,
            &mut samples,
            &mut abi,
            &mut cyc,
        );
        abi.sort_unstable();
        let mut layers = span_layers(&ledger);
        let per_unit = |total: f64| stats::ratio(total, units as f64);
        for name in [
            "machine.cache.flushed_lines",
            "machine.tlb.invalidations",
            "core.sm.cleaning_cycles",
        ] {
            layers.insert(name, per_unit(ledger.counter(name)));
        }
        layers.insert(
            "machine.lifecycle.cycles",
            per_unit(cyc.iter().sum::<u64>() as f64),
        );
        if !abi.is_empty() {
            layers.insert(
                "core.abi.p99_us",
                stats::percentile(&abi, 99.0) as f64 / 1e3,
            );
        }
        let load = ledger.entry("core.load_page").ns + ledger.entry("machine.stage").ns;
        let clean = ledger.entry("core.clean_resource").ns;
        outcome.lines.push(format!(
            "load_page+stage share of traced wall {:.1}%, clean_resource {:.1}%",
            100.0 * stats::ratio(load as f64, ledger.wall_ns() as f64),
            100.0 * stats::ratio(clean as f64, ledger.wall_ns() as f64)
        ));
        // The hash inside load_page, timed on its own after the traced
        // phase (outside the ledger): SHA3-256 over the image's pages.
        let start = Instant::now();
        for _ in 0..SHA3_REPS {
            for (_, _, page) in &churn.image.pages {
                std::hint::black_box(Sha3_256::digest(std::hint::black_box(page)));
            }
        }
        let hashes = (SHA3_REPS * churn.image.pages.len()) as f64;
        let sha3_ns = start.elapsed().as_nanos() as f64 / hashes;
        layers.insert("crypto.sha3_page.ns", sha3_ns);
        outcome.lines.push(format!(
            "SHA3-256 of one 4 KiB page {sha3_ns:.0} ns, {:.1}% of a load_page call",
            100.0 * stats::ratio(sha3_ns, layers["core.load_page.ns"])
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
