//! Golden hashes of the generated event streams.
//!
//! Every simulated figure starts from these bytes, so a generator change
//! that alters one event — an address, an instruction count, a data byte
//! or the read/write interleaving — shows up here by name. Each stream is
//! hashed with 64-bit FNV-1a over a fixed per-event encoding.
//!
//! If a change alters the generator on purpose, the failure message
//! prints the full replacement table.

use deuce_trace::{Benchmark, Op, TraceConfig, TraceEvent, WriteSource, HELPER_MIN_WRITES};

/// `(lines per core, cores, seed)`: line counts from a single line to a
/// 65,536-line working set (a power of two and not), every core count
/// from 1 to 8, two seeds.
const SHAPES: [(usize, u8, u64); 10] = [
    (1, 1, 0),
    (1, 4, 0x5eed),
    (7, 3, 0),
    (7, 6, 0x5eed),
    (256, 8, 0),
    (256, 2, 0x5eed),
    (1_000, 5, 0),
    (1_000, 7, 0x5eed),
    (65_536, 1, 0),
    (65_536, 2, 0x5eed),
];

/// Writebacks per stream (reads ride along at each profile's ratio).
const WRITES: usize = 1_500;

/// One row per `Benchmark::ALL` entry, one column per `SHAPES` entry.
const GOLDEN: [[u64; 10]; 12] = [
    // libq
    [
        0x5904b177e4579dbe,
        0xa737471f1a5ac293,
        0xb699bac21569d96a,
        0x723274f2f89fd14f,
        0x01ceeb0412808dc1,
        0xc8974d433d84689b,
        0x6c9b91c98d3de0d8,
        0x3cad2a9a2294372e,
        0x8f3c8670f1dc023e,
        0xd74a71c30d68d239,
    ],
    // mcf
    [
        0xecae61f2a02dcafc,
        0xfe15987fa447cca0,
        0x1f8dced7b20ad38f,
        0xad1848f1e832be5d,
        0x67fa0d207686294e,
        0x9d22366c1f45d903,
        0x0e0837a9276542bc,
        0x4a5ca518e75415a8,
        0xf410bc8ccba66dbe,
        0xc5a396d53515f84d,
    ],
    // lbm
    [
        0xaf883108360a357d,
        0xc02784695cf2a275,
        0xe7bbd86d44693a25,
        0x156bc317d157f754,
        0x1ef9a0bc5bc85b8f,
        0x2555b40a40633613,
        0x0215379a93ca0846,
        0x8c152464bd592859,
        0x6270ece7815265ce,
        0x49223f162c501c8e,
    ],
    // Gems
    [
        0xbde4f022ef9370d7,
        0xfec42c18484f46a8,
        0xd96ed40ac1231730,
        0xc1325169dd5dd89c,
        0xe7ce41a3db489774,
        0x2ce571b9c32d66d5,
        0xe0b41cf4f94905c3,
        0xa4bb22b4f485f758,
        0x8a73dc03a550645c,
        0x7732986992833a51,
    ],
    // milc
    [
        0x56f3b4815efdb136,
        0x296457ddd71e3cc5,
        0xa852228354fd6d7d,
        0xdcfabbd8b2e8b0b0,
        0x4ee8a1678f83c317,
        0xcbfbd9d78becf152,
        0x5f2cdd2bd49bba54,
        0xb88d2459b26ec0b4,
        0x21d2f0bad1fdefd6,
        0xe4a1c0954e37c709,
    ],
    // omnetpp
    [
        0xf748864af997b634,
        0xac95adeebfda2e9f,
        0x9650fcd24eeb322a,
        0xcfdc90d6a91964ab,
        0x2e2b4f44c969c14b,
        0x7e627d942d78e92d,
        0x375b30adf303ca6d,
        0xde6d809d80accc0c,
        0xea48be94d79c32c9,
        0x0381e499f23e498f,
    ],
    // leslie3d
    [
        0xf061863e1daf02f3,
        0x7a8d08f9cdecf426,
        0xf98aac9d264e642f,
        0x4953eddf91705e68,
        0xc37e6175f9e0cca5,
        0x9fea512ccf8f41b6,
        0x28dfc24845cef324,
        0x8623c8711e59a482,
        0x33006239ea895eb4,
        0xd1de607f3ff82428,
    ],
    // soplex
    [
        0x3c30d67b677406dc,
        0x057843883ebabcf8,
        0x2709556011eb35ce,
        0xe2f5f4b438a0f52e,
        0xab0875bd4c39a6bb,
        0xac641594c103a211,
        0xbe19a4545e207ebb,
        0x63538f21de1d5e52,
        0x0d59c3864212ca8c,
        0x13136819c2895741,
    ],
    // zeusmp
    [
        0x251aaa3e48471736,
        0xefabe94e69fb73dc,
        0xa171e0d6014984a1,
        0x5c3e854445ae3e81,
        0x17f7cdf18ee86651,
        0x9fd74b1104e7e127,
        0x24c49de139fccada,
        0x8c0888f21546fc76,
        0xccebbbdb123663f9,
        0xac28c04a0791d1b8,
    ],
    // wrf
    [
        0x265d3dbeb69672ef,
        0xf076d3d3644a4f0a,
        0xf9e78ade352af2a1,
        0x2603c3d61263d832,
        0x1c0ae2f4e33b4ebe,
        0xb72e8cb1de90f901,
        0xccebbc60799ba81a,
        0xcf597960f8634950,
        0xc266e887cf77c584,
        0x69a897b0b23da350,
    ],
    // xalanc
    [
        0x41b00c93480b7993,
        0xda9f6ffc639d9472,
        0x2e3a20251147d57b,
        0x894717094f101f70,
        0x41191fe3f4d3652d,
        0xca5a4dce26a57638,
        0x98266b38f49ab8ec,
        0x7a1e1e866a9be4e5,
        0x0236504b0c5f1a25,
        0xe2c2638acf11f0a4,
    ],
    // astar
    [
        0x83f43c17253ba258,
        0x49c4bd73340e009f,
        0x15a454e2938620de,
        0x76d14b08e31c3a5c,
        0xae52c68ce5461114,
        0x6ab6fed3c4a9f9ca,
        0xf32e08d83a0f5b41,
        0x6643806c77d80a84,
        0x8bd6093f922453eb,
        0x97b67dfb2d960f82,
    ],
];

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn hash_event(hash: &mut u64, event: &TraceEvent) {
    fnv1a(hash, &[event.core]);
    fnv1a(hash, &event.instr.to_le_bytes());
    fnv1a(hash, &event.line.value().to_le_bytes());
    match (event.op, &event.data) {
        (Op::Read, None) => fnv1a(hash, &[0]),
        (Op::Write, Some(data)) => {
            fnv1a(hash, &[1]);
            fnv1a(hash, data);
        }
        (op, data) => panic!("{op:?} event with data {:?}", data.is_some()),
    }
}

fn stream_hash(benchmark: Benchmark, (lines, cores, seed): (usize, u8, u64)) -> u64 {
    let mut source = TraceConfig::new(benchmark)
        .lines(lines)
        .cores(cores)
        .seed(seed)
        .writes(WRITES)
        .stream();
    events_hash(std::iter::from_fn(|| {
        source.next_event().expect("generator sources do not fail")
    }))
}

/// FNV-1a over every event's encoding, then the event count.
fn events_hash(events: impl IntoIterator<Item = TraceEvent>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut count = 0u64;
    for event in events {
        hash_event(&mut hash, &event);
        count += 1;
    }
    fnv1a(&mut hash, &count.to_le_bytes());
    hash
}

/// A stream long enough to generate on the helper thread yields the
/// materialised trace event for event. The length is not a multiple of
/// the cores, and the batches end mid-way through the profile's read
/// runs.
#[test]
fn helper_stream_matches_generate() {
    let config = TraceConfig::new(Benchmark::Mcf)
        .lines(1_000)
        .cores(3)
        .seed(0x5eed)
        .writes(HELPER_MIN_WRITES + 1_001);
    let generated = config.generate();
    assert_eq!(generated.write_count(), HELPER_MIN_WRITES + 1_001);
    let mut source = config.stream();
    let streamed = events_hash(std::iter::from_fn(|| {
        source.next_event().expect("the helper thread starts")
    }));
    assert_eq!(streamed, events_hash(generated.events().iter().cloned()));
}

#[test]
fn generated_streams_match_golden_hashes() {
    let found: Vec<[u64; 10]> = Benchmark::ALL
        .iter()
        .map(|&b| core::array::from_fn(|i| stream_hash(b, SHAPES[i])))
        .collect();
    let mut mismatches = Vec::new();
    for (row, &benchmark) in Benchmark::ALL.iter().enumerate() {
        for (col, shape) in SHAPES.iter().enumerate() {
            if found[row][col] != GOLDEN[row][col] {
                mismatches.push(format!(
                    "{} (lines, cores, seed) = {shape:?}: {:#018x}, expected {:#018x}",
                    benchmark.name(),
                    found[row][col],
                    GOLDEN[row][col]
                ));
            }
        }
    }
    if !mismatches.is_empty() {
        let mut table = String::from("const GOLDEN: [[u64; 10]; 12] = [\n");
        for (row, &benchmark) in found.iter().zip(Benchmark::ALL.iter()) {
            table.push_str(&format!("    // {}\n    [\n", benchmark.name()));
            for h in row {
                table.push_str(&format!("        {h:#018x},\n"));
            }
            table.push_str("    ],\n");
        }
        table.push_str("];");
        panic!(
            "{} generated streams changed:\n{}\nreplacement table:\n{table}",
            mismatches.len(),
            mismatches.join("\n")
        );
    }
}
