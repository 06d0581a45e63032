//! Differential validation of the batched pad path — on every AES
//! dispatch tier the host offers — against the serial byte-oriented
//! reference engine.
//!
//! `OtpEngine::new` (batched fast path, on hw or T-table tiers) and
//! `OtpEngine::new_reference` must emit bit-identical pads for every
//! `(address, counter)` pair, through the single and paired entry
//! points — this is the engine-level half of the
//! bit-identical-ciphertext contract (the cipher-level half lives in
//! `deuce-aes/tests/differential.rs`). `scripts/ci.sh` additionally
//! re-runs the suite with each `DEUCE_AES_FORCE` tier pinned.

use deuce_crypto::{available_backends, LineAddr, OtpEngine, SecretKey};
use deuce_rng::{DeuceRng, Rng};

#[test]
fn line_pads_agree_across_engines() {
    let key = SecretKey::from_seed(0x5EED);
    let reference = OtpEngine::new_reference(&key);
    let engines: Vec<(String, OtpEngine)> = available_backends()
        .iter()
        .map(|b| (format!("{b}"), OtpEngine::new(&key).with_aes_backend(*b)))
        .collect();
    let mut rng = DeuceRng::seed_from_u64(0x11AE);
    for _ in 0..2000 {
        let mut raw = [0u8; 16];
        rng.fill(&mut raw);
        let addr = LineAddr::new(u64::from_le_bytes(raw[..8].try_into().unwrap()));
        let counter = u64::from_le_bytes(raw[8..].try_into().unwrap()) & ((1 << 48) - 1);
        let expected = reference.line_pad(addr, counter);
        for (label, engine) in &engines {
            assert_eq!(
                engine.line_pad(addr, counter),
                expected,
                "{label} diverged at addr {addr}, counter {counter}"
            );
        }
    }
}

/// The paired entry point (DEUCE read path: LCTR and TCTR pads in one
/// 8-block batch) must be bit-identical to serial reference pads on
/// every tier.
#[test]
fn paired_pads_agree_across_engines() {
    let key = SecretKey::from_seed(0xFA12);
    let reference = OtpEngine::new_reference(&key);
    let mut rng = DeuceRng::seed_from_u64(0x33CE);
    for backend in available_backends() {
        let engine = OtpEngine::new(&key).with_aes_backend(*backend);
        for _ in 0..500 {
            let mut raw = [0u8; 24];
            rng.fill(&mut raw);
            let addr = LineAddr::new(u64::from_le_bytes(raw[..8].try_into().unwrap()));
            let ctr_a = u64::from_le_bytes(raw[8..16].try_into().unwrap()) & ((1 << 48) - 1);
            let ctr_b = u64::from_le_bytes(raw[16..].try_into().unwrap()) & ((1 << 48) - 1);
            let exp_a = reference.line_pad(addr, ctr_a);
            let exp_b = reference.line_pad(addr, ctr_b);
            let (a, b) = engine.line_pad_pair(addr, ctr_a, ctr_b);
            assert_eq!(a, exp_a, "{backend} pair.a at addr {addr}");
            assert_eq!(b, exp_b, "{backend} pair.b at addr {addr}");
        }
    }
}

#[test]
fn block_pads_agree_across_engines() {
    let key = SecretKey::from_seed(0xB10C);
    let fast = OtpEngine::new(&key);
    let reference = OtpEngine::new_reference(&key);
    let mut rng = DeuceRng::seed_from_u64(0x22BE);
    for _ in 0..2000 {
        let mut raw = [0u8; 16];
        rng.fill(&mut raw);
        let addr = LineAddr::new(u64::from_le_bytes(raw[..8].try_into().unwrap()));
        let counter = u64::from_le_bytes(raw[8..].try_into().unwrap()) & ((1 << 48) - 1);
        for block in 0..4 {
            assert_eq!(
                fast.block_pad(addr, block, counter),
                reference.block_pad(addr, block, counter),
                "addr {addr}, counter {counter}, block {block}"
            );
        }
    }
}

/// Boundary values of the 48-bit counter field and the address space
/// must agree too — the randomized sweep is unlikely to land on them.
#[test]
fn edge_inputs_agree_across_engines() {
    let key = SecretKey::from_seed(7);
    let fast = OtpEngine::new(&key);
    let reference = OtpEngine::new_reference(&key);
    for addr in [0u64, 1, u64::MAX] {
        for counter in [0u64, 1, (1 << 48) - 1] {
            let addr = LineAddr::new(addr);
            assert_eq!(fast.line_pad(addr, counter), reference.line_pad(addr, counter));
            for block in 0..4 {
                assert_eq!(
                    fast.block_pad(addr, block, counter),
                    reference.block_pad(addr, block, counter)
                );
            }
        }
    }
}
