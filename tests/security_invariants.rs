//! Security-invariant integration tests: the adversarial-OS battery plus the
//! exclusivity and clean-before-reuse invariants of DESIGN.md Section 4.

use sanctorum_bench::boot;
use sanctorum_core::api::SmApi;
use sanctorum_core::error::SmError;
use sanctorum_core::resource::ResourceId;
use sanctorum_core::session::CallerSession;
use sanctorum_enclave::image::{EnclaveImage, ThreadSpec};
use sanctorum_hal::addr::{PhysAddr, PAGE_SIZE};
use sanctorum_hal::domain::{CoreId, DomainKind};
use sanctorum_hal::isolation::RegionId;
use sanctorum_hal::perm::MemPerms;
use sanctorum_machine::guest::{GuestOp, GuestProgram, REG_A0};
use sanctorum_os::adversary::{self, run_attack_battery};
use sanctorum_os::os::Os;
use sanctorum_os::system::{PlatformKind, System};

#[test]
fn attack_battery_is_fully_blocked_on_both_platforms() {
    for platform in PlatformKind::ALL {
        let system = System::boot_small(platform);
        let mut os = Os::new(&system);
        let victim = os.build_enclave(&EnclaveImage::hello(0xaaaa), 1).unwrap();
        let rogue = os.build_enclave(&EnclaveImage::compute(2, 100), 1).unwrap();
        for (name, outcome) in run_attack_battery(&system, &mut os, &victim, &rogue) {
            assert!(outcome.blocked(), "attack '{name}' succeeded on {platform:?}");
        }
    }
}

#[test]
fn enclave_secrets_never_reach_os_memory_or_registers() {
    let (system, mut os) = boot(PlatformKind::Sanctum);
    let secret = 0x5ec2_e7d4_7a11_u64;
    let built = os.build_enclave(&EnclaveImage::hello(secret), 1).unwrap();
    os.run_thread(&built, built.main_thread(), CoreId::new(0), 10_000)
        .unwrap();

    // 1. No OS-visible register holds the secret after the exit.
    for hart in 0..system.machine.num_harts() {
        let hart = system.machine.hart(CoreId::new(hart as u32));
        assert!(hart.regs.iter().all(|&r| r != secret));
    }
    // 2. The OS cannot read the enclave's physical memory at all.
    let base = adversary::enclave_phys_base(&system, &built);
    assert!(!system.machine.check_access(DomainKind::Untrusted, base, MemPerms::READ));
    // 3. After teardown the memory is zero: the secret is gone before the OS
    //    regains access.
    os.teardown_enclave(&built).unwrap();
    let mut page = vec![0u8; 4096];
    system.machine.phys_read(base.offset(4096 * 4), &mut page).unwrap();
    assert!(page.iter().all(|&b| b == 0));
}

fn region_base(system: &System, region: RegionId) -> PhysAddr {
    let config = system.machine.config();
    config.memory_base.offset((region.index() * config.dram_region_size) as u64)
}

/// Returns every byte of `region`'s DRAM, read with the SM's view.
fn region_bytes(system: &System, region: RegionId) -> Vec<u8> {
    let mut bytes = vec![0u8; system.machine.config().dram_region_size];
    system.machine.phys_read(region_base(system, region), &mut bytes).unwrap();
    bytes
}

#[test]
fn teardown_zeroes_every_page_of_every_enclave_region_on_both_platforms() {
    let secret = 0x5ec2_e7d4_7a11_u64;
    let dma_pattern = [0xd3u8; 256];
    // The data page starts all zero: only the guest's store at run time puts
    // the secret there.
    let (evbase, evlen) = EnclaveImage::default_evrange();
    let data = evbase.offset(PAGE_SIZE as u64);
    let program = GuestProgram::new(
        "store-secret",
        vec![
            GuestOp::MovImm { dst: 1, value: data.as_u64() },
            GuestOp::MovImm { dst: 2, value: secret },
            GuestOp::Store { src: 2, addr: 1 },
            GuestOp::MovImm { dst: REG_A0, value: 8 },
            GuestOp::Ecall,
            GuestOp::Exit,
        ],
    );
    let image = EnclaveImage::new("store-secret", evbase, evlen)
        .with_page(evbase, MemPerms::RX, b"enclave text page".to_vec())
        .with_page(data, MemPerms::RW, vec![0u8; PAGE_SIZE])
        .with_thread(ThreadSpec { entry_pc: 0, fault_handler_pc: None, program });
    for platform in PlatformKind::ALL {
        let (system, mut os) = boot(platform);
        let region_size = system.machine.config().dram_region_size;
        // While both regions the enclave will take are still the OS's, a
        // device DMA-copies data into the last page of each.
        let regions: Vec<RegionId> = os.free_regions().iter().rev().take(2).copied().collect();
        system.machine.phys_write(os.staging_base(), &dma_pattern).unwrap();
        for &region in &regions {
            let last_page = region_base(&system, region).offset((region_size - PAGE_SIZE) as u64);
            system
                .machine
                .dma_copy(os.staging_base(), last_page, dma_pattern.len() as u64)
                .unwrap();
            assert!(region_bytes(&system, region).windows(256).any(|w| w == dma_pattern));
        }

        let built = os.build_enclave(&image, 2).unwrap();
        assert_eq!(built.regions, regions, "{platform:?}: the enclave took other regions");
        os.run_thread(&built, built.main_thread(), CoreId::new(0), 10_000)
            .unwrap();
        let secret_bytes = secret.to_le_bytes();
        assert!(
            built
                .regions
                .iter()
                .any(|&r| region_bytes(&system, r).windows(8).any(|w| w == secret_bytes)),
            "{platform:?}: the guest's store never reached DRAM"
        );

        os.teardown_enclave(&built).unwrap();
        for &region in &built.regions {
            let bytes = region_bytes(&system, region);
            let dirty = bytes.iter().position(|&b| b != 0);
            assert_eq!(dirty, None, "{platform:?}: region {region:?} kept data after teardown");
        }
    }
}

#[test]
fn ownership_is_exclusive_after_random_operation_sequences() {
    // Drive a pseudo-random interleaving of lifecycle operations and check
    // after every step that each region has exactly one owner and protected
    // ranges never overlap.
    let (system, mut os) = boot(PlatformKind::Sanctum);
    let mut live: Vec<_> = Vec::new();
    let mut x = 0x12345678u64;
    for step in 0..40 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        match x % 3 {
            0 => {
                if let Ok(built) = os.build_enclave(&EnclaveImage::hello(step), 1) {
                    live.push(built);
                }
            }
            1 => {
                if !live.is_empty() {
                    let built = live.remove((x as usize / 7) % live.len());
                    os.teardown_enclave(&built).unwrap();
                }
            }
            _ => {
                if let Some(built) = live.last() {
                    let _ = os.run_thread(built, built.main_thread(), CoreId::new(0), 500);
                }
            }
        }
        // Invariant: protected ranges are disjoint (the access-control table
        // rejects overlap, so its length equals the distinct range count) and
        // every live enclave still owns its region.
        for built in &live {
            assert_eq!(
                system.monitor.resource_state(ResourceId::Region(built.regions[0])).unwrap(),
                sanctorum_core::resource::ResourceState::Owned(DomainKind::Enclave(built.eid))
            );
        }
    }
}

#[test]
fn api_rejects_wrong_callers_everywhere() {
    let (system, mut os) = boot(PlatformKind::Keystone);
    let built = os.build_enclave(&EnclaveImage::hello(3), 1).unwrap();
    let enclave_caller = CallerSession::enclave(built.eid);
    let os_caller = CallerSession::os();
    let sm = &system.monitor;

    // Enclaves cannot run OS-only calls.
    assert_eq!(
        sm.create_enclave(enclave_caller, sanctorum_hal::addr::VirtAddr::new(0x1000), 0x1000, &built.regions)
            .unwrap_err(),
        SmError::Unauthorized
    );
    assert_eq!(sm.delete_enclave(enclave_caller, built.eid).unwrap_err(), SmError::Unauthorized);
    assert_eq!(
        sm.enter_enclave(enclave_caller, built.eid, built.main_thread()).unwrap_err(),
        SmError::Unauthorized
    );
    // The OS cannot run enclave-only calls.
    assert_eq!(sm.accept_mail(os_caller, 0, 0).unwrap_err(), SmError::Unauthorized);
    assert_eq!(sm.get_mail(os_caller, 0).unwrap_err(), SmError::Unauthorized);
    assert_eq!(
        sm.get_attestation_key(os_caller).unwrap_err(),
        SmError::Unauthorized
    );
    // Nobody can grant resources to the SM through the API.
    assert!(sm
        .grant_resource(
            os_caller,
            ResourceId::Region(built.regions[0]),
            DomainKind::SecurityMonitor
        )
        .is_err());
}

#[test]
fn concurrent_api_storm_preserves_invariants() {
    use std::sync::Arc;
    // Several OS threads hammer the monitor with lifecycle calls; fine-grained
    // locking may fail individual calls with ConcurrentCall but must never
    // corrupt state or deadlock.
    let system = Arc::new(System::boot_default(PlatformKind::Sanctum));
    let monitor = Arc::clone(&system.monitor);
    let regions: Vec<_> = (1..5).map(sanctorum_hal::isolation::RegionId::new).collect();

    // Make four regions available up front.
    for r in &regions {
        monitor.block_resource(CallerSession::os(), ResourceId::Region(*r)).unwrap();
        monitor.clean_resource(CallerSession::os(), ResourceId::Region(*r)).unwrap();
    }

    let threads: Vec<_> = regions
        .into_iter()
        .map(|region| {
            let monitor = Arc::clone(&monitor);
            std::thread::spawn(move || {
                // ConcurrentCall is the expected "retry" signal of the
                // fine-grained locking discipline.
                fn retry<T>(mut f: impl FnMut() -> Result<T, SmError>) -> T {
                    loop {
                        match f() {
                            Ok(v) => return v,
                            Err(SmError::ConcurrentCall) => std::thread::yield_now(),
                            Err(other) => panic!("unexpected error: {other:?}"),
                        }
                    }
                }
                let mut successes = 0;
                for _ in 0..20 {
                    let eid = retry(|| {
                        monitor.create_enclave(
                            CallerSession::os(),
                            sanctorum_hal::addr::VirtAddr::new(0x10_0000),
                            0x10000,
                            &[region],
                        )
                    });
                    retry(|| monitor.delete_enclave(CallerSession::os(), eid));
                    retry(|| {
                        monitor.clean_resource(CallerSession::os(), ResourceId::Region(region))
                    });
                    successes += 1;
                }
                successes
            })
        })
        .collect();
    let total: u32 = threads.into_iter().map(|t| t.join().unwrap()).sum();
    assert!(total > 0, "at least some transactions must succeed");
    assert!(system.monitor.enclaves().is_empty());
}
