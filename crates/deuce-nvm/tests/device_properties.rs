//! Randomized tests over the PCM device model, driven by seeded
//! [`deuce_rng`] streams.

use deuce_nvm::{region_flips, write_slots, CellArray, LineImage, MetaBits, SlotConfig};
use deuce_rng::{DeuceRng, Rng};

fn image(data: [u8; 64], meta_raw: u32) -> LineImage {
    LineImage::new(data, MetaBits::from_raw(u64::from(meta_raw), 32))
}

/// Region flips partition the changed bits: their sum equals the
/// total flip count, whatever the images.
#[test]
fn region_flips_partition_changes() {
    let mut rng = DeuceRng::seed_from_u64(0x0001_0001);
    for _ in 0..256 {
        let old = image(rng.gen(), rng.gen());
        let new = image(rng.gen(), rng.gen());
        let regions = region_flips(&old, &new, SlotConfig::PAPER);
        assert_eq!(regions.len(), 4);
        assert_eq!(regions.iter().sum::<u32>(), old.flips_to(&new).total());
    }
}

/// Slot count bounds: at least 1, at most the region count, and
/// monotone under the flips-per-slot budget.
#[test]
fn slot_count_bounds() {
    let mut rng = DeuceRng::seed_from_u64(0x0001_0002);
    for _ in 0..256 {
        let old = image(rng.gen(), 0);
        let new = image(rng.gen(), 0);
        let slots = write_slots(&old, &new, SlotConfig::PAPER);
        assert!(slots >= 1);
        assert!(slots <= 4);
        // A roomier budget can never need more slots.
        let roomy = SlotConfig::new(128, 128).expect("a valid slot config");
        assert!(write_slots(&old, &new, roomy) <= slots);
    }
}

/// Flip counting is a metric: symmetric, zero on identity, triangle
/// inequality.
#[test]
fn flip_count_is_a_metric() {
    let mut rng = DeuceRng::seed_from_u64(0x0001_0003);
    for _ in 0..256 {
        let ia = image(rng.gen(), 0);
        let ib = image(rng.gen(), 0);
        let ic = image(rng.gen(), 0);
        assert_eq!(ia.flips_to(&ia).total(), 0);
        assert_eq!(ia.flips_to(&ib).total(), ib.flips_to(&ia).total());
        assert!(
            ia.flips_to(&ic).total() <= ia.flips_to(&ib).total() + ib.flips_to(&ic).total()
        );
    }
}

/// Cell-array conservation: recorded bit writes equal the flips of
/// the writes recorded, under any rotation.
#[test]
fn cell_array_conserves_flips() {
    let mut rng = DeuceRng::seed_from_u64(0x0001_0004);
    for _ in 0..32 {
        let mut cells = CellArray::new(1, 544);
        let mut current = image([0u8; 64], 0);
        let mut expected = 0u64;
        let writes = rng.gen_range(1usize..20);
        for _ in 0..writes {
            let next = image(rng.gen(), 0);
            let rotation = rng.gen_range(0u32..544);
            expected += u64::from(current.flips_to(&next).total());
            cells.record_write(0, &current, &next, rotation);
            current = next;
        }
        assert_eq!(cells.wear_summary().total_bit_writes, expected);
    }
}

/// Rotation is a bijection on cells: totals per line are invariant,
/// only positions move.
#[test]
fn rotation_preserves_totals() {
    let mut rng = DeuceRng::seed_from_u64(0x0001_0005);
    for _ in 0..64 {
        let data: [u8; 64] = rng.gen();
        let rotation = rng.gen_range(0u32..544);
        let old = image([0u8; 64], 0);
        let new = image(data, 0);
        let mut rotated = CellArray::new(1, 544);
        rotated.record_write(0, &old, &new, rotation);
        let mut straight = CellArray::new(1, 544);
        straight.record_write(0, &old, &new, 0);
        assert_eq!(
            rotated.wear_summary().total_bit_writes,
            straight.wear_summary().total_bit_writes
        );
        // The rotated histogram is the straight histogram shifted.
        let r = rotated.position_totals();
        let s = straight.position_totals();
        for pos in 0..544usize {
            assert_eq!(r[(pos + rotation as usize) % 544], s[pos]);
        }
    }
}
