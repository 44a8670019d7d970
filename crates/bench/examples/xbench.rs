//! Crypto primitive microbenchmarks: the per-operation costs that set the
//! floor for attestation throughput (`attestation_service_stats`) and fleet
//! latency percentiles (`fleet_stats`).
//!
//! Run with:
//! `cargo run --release -p sanctorum-bench --example xbench`

use sanctorum_crypto::ed25519::{verify_batch, Keypair, PublicKey, Signature};
use sanctorum_crypto::sha3::Sha3_256;
use sanctorum_crypto::x25519;
use std::time::Instant;

fn main() {
    let mut acc = 0u8;

    let secret = x25519::clamp_scalar([0x11; 32]);
    let peer = x25519::public_key(&[0x22; 32]);
    let n = 2000u32;
    let t = Instant::now();
    for _ in 0..n {
        acc ^= x25519::shared_secret(&secret, &peer)[0];
    }
    println!(
        "x25519 shared_secret (ladder): {:>7.1} us/op",
        t.elapsed().as_micros() as f64 / n as f64
    );

    let t = Instant::now();
    for i in 0..n {
        acc ^= x25519::public_key(&[i as u8; 32])[0];
    }
    println!(
        "x25519 public_key (comb):      {:>7.1} us/op",
        t.elapsed().as_micros() as f64 / n as f64
    );

    let msg = [0u8; 64];
    let t = Instant::now();
    for _ in 0..n {
        acc ^= Sha3_256::digest(&msg)[0];
    }
    println!(
        "sha3-256 (64 B):               {:>7.2} us/op",
        t.elapsed().as_micros() as f64 / n as f64
    );

    // One enclave page, as `MeasurementContext::extend_page` hashes it.
    let page = [0x5au8; 4096];
    let t = Instant::now();
    for _ in 0..n {
        acc ^= Sha3_256::digest(std::hint::black_box(&page))[0];
    }
    println!(
        "sha3-256 (4 KiB page):         {:>7.2} us/op",
        t.elapsed().as_micros() as f64 / n as f64
    );

    let kp = Keypair::from_seed([7u8; 32]);
    let sig = kp.sign(&msg);
    let t = Instant::now();
    for _ in 0..1000 {
        assert!(kp.public().verify(&msg, &sig));
    }
    println!(
        "ed25519 verify (single):       {:>7.1} us/op",
        t.elapsed().as_micros() as f64 / 1000.0
    );

    let t = Instant::now();
    for i in 0..1000u32 {
        acc ^= kp.sign(&[i as u8; 64]).to_bytes()[0];
    }
    println!(
        "ed25519 sign:                  {:>7.1} us/op",
        t.elapsed().as_micros() as f64 / 1000.0
    );

    let t = Instant::now();
    for i in 0..200u32 {
        acc ^= Keypair::from_seed([i as u8; 32]).sign(&msg).to_bytes()[0];
    }
    println!(
        "ed25519 from_seed + sign:      {:>7.1} us/op",
        t.elapsed().as_micros() as f64 / 200.0
    );

    for batch_size in [4usize, 8, 16] {
        let keys: Vec<Keypair> = (0..batch_size)
            .map(|i| Keypair::from_seed([i as u8 + 1; 32]))
            .collect();
        let messages: Vec<Vec<u8>> = (0..batch_size)
            .map(|i| format!("attestation report {i}").into_bytes())
            .collect();
        let sigs: Vec<Signature> = keys.iter().zip(&messages).map(|(k, m)| k.sign(m)).collect();
        let batch: Vec<(&PublicKey, &[u8], &Signature)> = (0..batch_size)
            .map(|i| (keys[i].public(), messages[i].as_slice(), &sigs[i]))
            .collect();
        let rounds = 200u32;
        let t = Instant::now();
        for _ in 0..rounds {
            assert!(verify_batch(&batch));
        }
        let per_sig = t.elapsed().as_micros() as f64 / (rounds as usize * batch_size) as f64;
        println!("ed25519 verify (batch of {batch_size:>2}): {per_sig:>7.1} us/sig");
    }

    std::hint::black_box(acc);
}
