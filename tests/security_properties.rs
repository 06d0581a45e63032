//! Cross-crate security property tests: the §4.3.5 argument (pad
//! uniqueness under DEUCE) and the attack-model coverage of §2.1,
//! exercised through the public API.

use std::collections::HashSet;

use deuce::crypto::{EpochInterval, LineAddr, OtpEngine, SecretKey, BLOCK_BYTES};
use deuce::integrity::{CounterTree, LineMac};
use deuce::rng::{DeuceRng, Rng};
use deuce::schemes::{DeuceLine, SchemeConfig, SchemeKind, SchemeLine, WordSize};
use deuce::sim::{FileStoreConfig, SimConfig, Simulator, StoreBackend};
use deuce::trace::TraceEvent;

fn engine() -> OtpEngine {
    OtpEngine::new(&SecretKey::from_seed(0x0005_ECDE))
}

/// Stolen-DIMM attack: data at rest never equals (or resembles) the
/// plaintext under any encrypted scheme, across many lines and writes.
#[test]
fn data_at_rest_is_unrecognizable() {
    let engine = engine();
    let secret: [u8; 64] = std::array::from_fn(|i| (i as u8) ^ 0x41);
    for kind in SchemeKind::ALL.into_iter().filter(|k| k.is_encrypted()) {
        for line_idx in 0..8u64 {
            let mut line = SchemeLine::new(
                &SchemeConfig::new(kind),
                &engine,
                LineAddr::new(line_idx),
                &secret,
            );
            for round in 0..5u8 {
                let image = line.image();
                // Hamming distance to the plaintext should look random
                // (~256 of 512); anything below 150 would leak structure.
                let distance: u32 = image
                    .data()
                    .iter()
                    .zip(&secret)
                    .map(|(a, b)| (a ^ b).count_ones())
                    .sum();
                assert!(
                    distance > 150,
                    "{kind}, line {line_idx}, round {round}: distance {distance}"
                );
                let mut update = secret;
                update[usize::from(round)] ^= 0xFF;
                let _ = line.write(&engine, &update);
            }
        }
    }
}

/// Stolen-media attack on the page file: every line a run wrote is
/// paged out through a one-page resident cache and flushed, and no
/// 16-byte block of any plaintext the run wrote, earlier values
/// included, appears anywhere in the file. Covers the five schemes that
/// compare a write against the line's previous plaintext.
#[test]
fn page_file_holds_no_written_plaintext() {
    const LINES: u64 = 200;
    const ROUNDS: u8 = 4;
    for kind in [
        SchemeKind::Deuce,
        SchemeKind::DynDeuce,
        SchemeKind::DeuceFnw,
        SchemeKind::Ble,
        SchemeKind::BleDeuce,
    ] {
        let path = std::env::temp_dir().join(format!(
            "deuce-stolen-page-file-{}-{}.pages",
            std::process::id(),
            kind.label()
        ));
        let config = SimConfig::new(kind)
            .with_store_backend(StoreBackend::File(FileStoreConfig::new(&path, 1)));
        let mut session = Simulator::new(config).session(1).expect("open session");
        let mut rng = DeuceRng::seed_from_u64(0x0570_1E11);
        let mut lines: Vec<[u8; 64]> = (0..LINES)
            .map(|_| {
                let mut data = [0u8; 64];
                rng.fill(&mut data);
                data
            })
            .collect();
        let mut written = HashSet::new();
        for round in 0..ROUNDS {
            for (line, data) in lines.iter_mut().enumerate() {
                if round > 0 {
                    // A sparse update: two words change, the rest stays.
                    for _ in 0..2 {
                        let at = rng.gen_range(0usize..32) * 2;
                        data[at] ^= rng.gen_range(1u8..=255);
                    }
                }
                written.extend(data.chunks_exact(BLOCK_BYTES).map(<[u8]>::to_vec));
                let at = LineAddr::new(line as u64);
                let _ = session.step(&TraceEvent::write(0, u64::from(round) * LINES, at, *data));
            }
        }
        let result = session.finish().expect("run finishes without a store error");
        let flushed = result.store.map_or(0, |stats| stats.pages_flushed);
        assert!(flushed > 1, "{kind}: pages reached the file");
        let file = std::fs::read(&path).expect("read page file");
        std::fs::remove_file(&path).ok();
        let leaked = file
            .windows(BLOCK_BYTES)
            .filter(|window| written.contains(*window))
            .count();
        assert_eq!(leaked, 0, "{kind}: {leaked} plaintext blocks found in the page file");
    }
}

/// Bus-snooping resistance: under DEUCE, the ciphertext delta of a
/// modified word across two writes is keystream, not plaintext delta.
#[test]
fn deuce_ciphertext_deltas_are_keystream() {
    let engine = engine();
    let mut line = DeuceLine::new(
        &engine,
        LineAddr::new(0xF00),
        &[0u8; 64],
        WordSize::Bytes2,
        EpochInterval::DEFAULT,
        28,
    );
    // Apply the *same plaintext delta* twice; if pads were reused, the
    // ciphertext deltas would repeat.
    let mut deltas = HashSet::new();
    let mut data = [0u8; 64];
    for i in 1..=16u8 {
        data[0] = i;
        let before = *line.image().data();
        let _ = line.write(&engine, &data);
        let after = *line.image().data();
        let delta: Vec<u8> = before.iter().zip(&after).map(|(a, b)| a ^ b).collect();
        assert!(
            deltas.insert(delta.clone()),
            "ciphertext delta repeated at write {i}: pad reuse!"
        );
    }
}

/// §4.3.5's stated leak bound: an in-epoch DEUCE write reveals *which*
/// words changed (the modified bits are public), and nothing else
/// outside those words.
#[test]
fn deuce_leaks_only_the_modified_word_positions() {
    let engine = engine();
    let mut line = DeuceLine::new(
        &engine,
        LineAddr::new(0xF01),
        &[0u8; 64],
        WordSize::Bytes2,
        EpochInterval::DEFAULT,
        28,
    );
    let mut data = [0u8; 64];
    data[20] = 9; // word 10
    let outcome = line.write(&engine, &data);
    for bit in outcome.old_image.changed_bits(&outcome.new_image) {
        let in_word_10 = (160..176).contains(&bit);
        let word_10_meta = bit == 512 + 10;
        assert!(in_word_10 || word_10_meta, "bit {bit} outside the modified word");
    }
}

/// A wrong key cannot decrypt.
#[test]
fn wrong_key_decrypts_to_garbage() {
    let good = OtpEngine::new(&SecretKey::from_seed(1));
    let evil = OtpEngine::new(&SecretKey::from_seed(2));
    let secret = [0x77u8; 64];
    let line = SchemeLine::new(
        &SchemeConfig::new(SchemeKind::Deuce),
        &good,
        LineAddr::new(5),
        &secret,
    );
    assert_eq!(line.read(&good), secret);
    assert_ne!(line.read(&evil), secret);
}

/// Bus-tampering defense in depth: counter rollback and data splicing
/// are both caught when the integrity layer shadows a DEUCE line.
#[test]
fn integrity_layer_covers_deuce_counters() {
    let engine = engine();
    let mut tree = CounterTree::new(16, [0xA0; 16]);
    let mac = LineMac::new([0xB0; 16]);
    let addr = LineAddr::new(3);
    let mut line = DeuceLine::new(
        &engine,
        addr,
        &[0u8; 64],
        WordSize::Bytes2,
        EpochInterval::DEFAULT,
        28,
    );

    let mut tags = Vec::new();
    let mut images = Vec::new();
    let mut data = [0u8; 64];
    for i in 1..=5u8 {
        data[0] = i;
        let _ = line.write(&engine, &data);
        tree.update(3, line.counter());
        tags.push(mac.tag(addr, line.counter(), line.image().data()));
        images.push(*line.image().data());
    }

    // Current state verifies.
    assert!(tree.verify(3, line.counter()).is_ok());
    assert!(mac.check(addr, line.counter(), line.image().data(), tags.last().unwrap()));

    // Replay of any earlier (counter, data, tag) triple fails somewhere.
    for (i, image) in images.iter().enumerate().take(4) {
        let old_counter = i as u64 + 1;
        let rollback_caught = tree.verify(3, old_counter).is_err();
        let splice_caught = !mac.check(addr, line.counter(), image, tags.last().unwrap());
        assert!(
            rollback_caught && splice_caught,
            "replay of write {i} not fully detected"
        );
    }
}
