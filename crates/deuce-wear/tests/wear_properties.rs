//! Randomized tests for the wear-leveling substrate, driven by seeded
//! [`deuce_rng`] streams.

use deuce_rng::{DeuceRng, Rng};
use deuce_wear::{HorizontalWearLeveler, HwlMode, StartGap};
use std::collections::HashSet;

/// Start-Gap's remapping stays a bijection into the frame space at
/// every point of any write sequence.
#[test]
fn start_gap_remains_bijective() {
    let mut rng = DeuceRng::seed_from_u64(0x3EA6_0001);
    for _ in 0..128 {
        let lines = rng.gen_range(2usize..64);
        let gap_interval = rng.gen_range(1u32..8);
        let steps = rng.gen_range(0usize..500);
        let mut sg = StartGap::new(lines, gap_interval);
        for _ in 0..steps {
            let _ = sg.record_write();
        }
        let mapped: HashSet<usize> = (0..lines).map(|la| sg.remap(la)).collect();
        assert_eq!(mapped.len(), lines);
        assert!(mapped.iter().all(|&pa| pa < lines + 1));
        assert!(!mapped.contains(&sg.gap()));
    }
}

/// Sweeps advance exactly once per (lines + 1) gap moves.
#[test]
fn sweep_rate() {
    let mut rng = DeuceRng::seed_from_u64(0x3EA6_0002);
    for _ in 0..128 {
        let lines = rng.gen_range(2usize..32);
        let moves = rng.gen_range(1usize..200);
        let mut sg = StartGap::new(lines, 1);
        for _ in 0..moves {
            let _ = sg.record_write();
        }
        assert_eq!(sg.sweeps(), (moves / (lines + 1)) as u64);
    }
}

/// HWL rotations are always within the ring, in both modes.
#[test]
fn rotations_in_range() {
    let mut rng = DeuceRng::seed_from_u64(0x3EA6_0003);
    for _ in 0..64 {
        let lines = rng.gen_range(2usize..32);
        let steps = rng.gen_range(0usize..300);
        let ring = rng.gen_range(1u32..1024);
        let addr: u64 = rng.gen();
        let mut sg = StartGap::new(lines, 1);
        for _ in 0..steps {
            let _ = sg.record_write();
        }
        for mode in [HwlMode::Algebraic, HwlMode::Hashed] {
            let hwl = HorizontalWearLeveler::new(mode, ring);
            for la in 0..lines {
                assert!(hwl.rotation(&sg, la, addr) < ring);
            }
        }
    }
}

/// The algebraic rotation advances by exactly one per sweep for a
/// line the gap has not yet passed. Exhaustive over the sizes the
/// original randomized test drew.
#[test]
fn algebraic_rotation_tracks_sweeps() {
    for lines in 2usize..16 {
        let mut sg = StartGap::new(lines, 1);
        let hwl = HorizontalWearLeveler::new(HwlMode::Algebraic, 544);
        for expected_sweep in 0..5u64 {
            // At the start of a sweep the gap is at the top: nothing
            // passed yet.
            for la in 0..lines {
                if !sg.gap_passed(la) {
                    assert_eq!(hwl.rotation(&sg, la, 0), (expected_sweep % 544) as u32);
                }
            }
            while sg.sweeps() == expected_sweep {
                let _ = sg.record_write();
            }
        }
    }
}

/// The §5.3 invariant as a long-run test: after the gap passes a line,
/// the line's rotation equals the next sweep's value — so when Start
/// increments, all passed lines are already rotated correctly.
#[test]
fn gap_passage_pre_rotates_consistently() {
    let lines = 12;
    let mut sg = StartGap::new(lines, 1);
    let hwl = HorizontalWearLeveler::new(HwlMode::Algebraic, 97);
    for _ in 0..1000 {
        let sweeps = sg.sweeps();
        for la in 0..lines {
            let expected = if sg.gap_passed(la) { sweeps + 1 } else { sweeps };
            assert_eq!(hwl.rotation(&sg, la, 0), (expected % 97) as u32);
        }
        let _ = sg.record_write();
    }
}
