//! The §6.1 write-throughput model: write slots and fragmentation.
//!
//! PCM write power is limited: the 8Gb prototype the paper references has
//! a 128-bit write width, so a 64-byte line takes up to 4 sequential write
//! slots of 150 ns each. Each 128-bit slot is provisioned (via internal
//! Flip-N-Write) to flip at most 64 cells. Fewer bit flips can let several
//! 128-bit regions share a slot — but fragmentation means the reduction in
//! flips does not always reduce slots (a 70-flip write still takes 2
//! slots).

use core::fmt;
use core::ops::Deref;

use crate::line_image::LineImage;

/// The most regions a line's data bits divide into: one per 64-bit
/// lane at the narrowest accepted region width.
const MAX_REGIONS: usize = deuce_crypto::LINE_BITS / 64;

/// Write-slot configuration (defaults follow §6.1 / Table 1).
///
/// A region is 64, 128, 256 or 512 bits wide: a line divides into at
/// most eight whole regions, each a power-of-two run of 64-bit lanes,
/// so [`write_slots`] counts with shifts and packs in fixed arrays.
///
/// # Examples
///
/// ```
/// use deuce_nvm::SlotConfig;
///
/// let roomy = SlotConfig::new(128, 128).unwrap();
/// assert_eq!(roomy.regions_for(512), 4);
/// assert!(SlotConfig::new(192, 64).is_err()); // not a power of two
/// assert!(SlotConfig::new(0, 64).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotConfig {
    region_bits: u32,
    flips_per_slot: u32,
}

impl SlotConfig {
    /// The paper's configuration: 128-bit regions, 64 flips per slot.
    pub const PAPER: Self = Self {
        region_bits: 128,
        flips_per_slot: 64,
    };

    /// A configuration of `region_bits`-wide regions whose slots can
    /// each drive `flips_per_slot` cell flips.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidSlotConfig`] unless `region_bits` is 64, 128, 256
    /// or 512 and `flips_per_slot` is at least 1.
    pub fn new(region_bits: u32, flips_per_slot: u32) -> Result<Self, InvalidSlotConfig> {
        let widths = 64..=deuce_crypto::LINE_BITS as u32;
        if region_bits.is_power_of_two() && widths.contains(&region_bits) && flips_per_slot > 0 {
            Ok(Self { region_bits, flips_per_slot })
        } else {
            Err(InvalidSlotConfig { region_bits, flips_per_slot })
        }
    }

    /// Bits written per slot region (the device write width).
    #[must_use]
    pub fn region_bits(&self) -> u32 {
        self.region_bits
    }

    /// Maximum cell flips a single slot's current budget can drive.
    #[must_use]
    pub fn flips_per_slot(&self) -> u32 {
        self.flips_per_slot
    }

    /// Number of regions a line (data + metadata) divides into, rounding
    /// up so metadata bits occupy the tail region.
    #[must_use]
    pub fn regions_for(&self, total_bits: u32) -> u32 {
        total_bits.div_ceil(self.region_bits)
    }
}

impl Default for SlotConfig {
    fn default() -> Self {
        Self::PAPER
    }
}

/// Error for a write-slot configuration outside the modelled range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidSlotConfig {
    /// The rejected region width in bits.
    pub region_bits: u32,
    /// The rejected per-slot flip budget.
    pub flips_per_slot: u32,
}

impl fmt::Display for InvalidSlotConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid write-slot configuration ({}-bit regions, {} flips per slot): regions must \
             be 64, 128, 256 or 512 bits wide and a slot must flip at least one cell",
            self.region_bits, self.flips_per_slot
        )
    }
}

impl std::error::Error for InvalidSlotConfig {}

/// Flip counts of one write per data region, in region order (a slice
/// of [`SlotConfig::regions_for`] the line's data bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionFlips {
    counts: [u32; MAX_REGIONS],
    regions: usize,
}

impl Deref for RegionFlips {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.counts[..self.regions]
    }
}

/// Flip counts per region for a write of `new` over `old`.
///
/// Metadata bits are physically co-located with the data they describe
/// (a flip/modified bit sits next to its word), so metadata bit `i` of a
/// width-`m` field is charged to data region `i * regions / m` rather
/// than occupying a region of its own.
///
/// # Panics
///
/// Panics if the images disagree on total bits.
#[must_use]
pub fn region_flips(old: &LineImage, new: &LineImage, cfg: SlotConfig) -> RegionFlips {
    assert_eq!(old.total_bits(), new.total_bits(), "image size mismatch");
    // A region is 2^shift lanes, so the line holds 2^(3 - shift)
    // regions: fold neighbouring lanes' counts together `shift` times.
    let shift = cfg.region_bits.trailing_zeros() - 6;
    let (old_lanes, new_lanes) = (lanes(old), lanes(new));
    let mut counts: [u32; MAX_REGIONS] =
        core::array::from_fn(|i| (old_lanes[i] ^ new_lanes[i]).count_ones());
    for _ in 0..shift {
        counts = core::array::from_fn(|i| {
            if i < MAX_REGIONS / 2 { counts[2 * i] + counts[2 * i + 1] } else { 0 }
        });
    }
    // Metadata bit `i` of `m` goes to region `⌊i · R / m⌋`, so region
    // `r` holds bits `⌈r · m / R⌉..⌈(r + 1) · m / R⌉`.
    let regions = MAX_REGIONS as u32 >> shift;
    let meta_bits = old.total_bits() - deuce_crypto::LINE_BITS as u32;
    let meta = old.meta().raw() ^ new.meta().raw();
    if meta != 0 {
        let first_bit = |r: u32| (r * meta_bits + regions - 1) >> (3 - shift);
        for (r, count) in (0..regions).zip(&mut counts) {
            *count += (meta & below(first_bit(r + 1)) & !below(first_bit(r))).count_ones();
        }
    }
    RegionFlips { counts, regions: regions as usize }
}

/// The line's data as eight little-endian `u64` lanes.
fn lanes(image: &LineImage) -> [u64; MAX_REGIONS] {
    let lanes = image.data().as_chunks::<8>().0;
    core::array::from_fn(|i| u64::from_le_bytes(lanes[i]))
}

/// The low `bits` bits set (`bits` ≤ 64).
fn below(bits: u32) -> u64 {
    1u64.checked_shl(bits).map_or(u64::MAX, |bit| bit - 1)
}

/// Number of write slots a write consumes: first-fit-decreasing packing of
/// the per-region flip counts into slots with a `flips_per_slot` budget.
///
/// Internal FNW guarantees each region needs at most `flips_per_slot`
/// flips, so every region fits in some slot. A write that flips nothing
/// still consumes one slot (the device must still drive the write
/// command).
#[must_use]
pub fn write_slots(old: &LineImage, new: &LineImage, cfg: SlotConfig) -> u32 {
    // Internal FNW bounds each region's flips at half the region bits.
    let mut loads = [0u32; MAX_REGIONS];
    let mut regions = 0;
    for &f in region_flips(old, new, cfg).iter() {
        if f > 0 {
            loads[regions] = f.min(cfg.flips_per_slot);
            regions += 1;
        }
    }
    if regions == 0 {
        return 1;
    }
    let loads = &mut loads[..regions];
    loads.sort_unstable_by(|a, b| b.cmp(a));
    // The budget left in each open slot; there are never more slots
    // than regions.
    let mut room = [0u32; MAX_REGIONS];
    let mut slots = 0;
    for &f in loads.iter() {
        match room[..slots].iter_mut().find(|left| **left >= f) {
            Some(left) => *left -= f,
            None => {
                room[slots] = cfg.flips_per_slot - f;
                slots += 1;
            }
        }
    }
    slots as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line_image::{LineImage, MetaBits};

    fn image_with_region_flips(per_region: &[u32]) -> (LineImage, LineImage) {
        let old = LineImage::new([0u8; 64], MetaBits::new(32));
        let mut new = old;
        for (region, &n) in per_region.iter().enumerate() {
            for i in 0..n {
                let bit = region as u32 * 128 + i;
                assert!(bit < 512, "test helper only sets data bits");
                new.data_mut()[(bit / 8) as usize] |= 1 << (bit % 8);
            }
        }
        (old, new)
    }

    #[test]
    fn zero_flip_write_takes_one_slot() {
        let (old, _) = image_with_region_flips(&[0, 0, 0, 0]);
        assert_eq!(write_slots(&old, &old, SlotConfig::PAPER), 1);
    }

    #[test]
    fn dense_write_takes_four_slots() {
        // ~64 flips in each of 4 regions: no two regions can share a slot.
        let (old, new) = image_with_region_flips(&[64, 64, 64, 64]);
        assert_eq!(write_slots(&old, &new, SlotConfig::PAPER), 4);
    }

    #[test]
    fn paper_fragmentation_example() {
        // §6.1: "if the given write causes 70 flips, and one slot can only
        // handle 64 flips, then this write will take two slots."
        let (old, new) = image_with_region_flips(&[35, 35, 0, 0]);
        // 35+35=70 > 64: cannot share.
        assert_eq!(write_slots(&old, &new, SlotConfig::PAPER), 2);
    }

    #[test]
    fn sparse_regions_pack_into_one_slot() {
        let (old, new) = image_with_region_flips(&[16, 16, 16, 16]);
        assert_eq!(write_slots(&old, &new, SlotConfig::PAPER), 1);
    }

    #[test]
    fn two_pairs_pack_into_two_slots() {
        let (old, new) = image_with_region_flips(&[40, 30, 24, 30]);
        // FFD: 40+24=64 in slot 1, 30+30=60 in slot 2.
        assert_eq!(write_slots(&old, &new, SlotConfig::PAPER), 2);
    }

    #[test]
    fn region_flips_colocate_metadata_with_its_words() {
        let old = LineImage::new([0u8; 64], MetaBits::new(32));
        let mut new = old;
        new.meta_mut().set(0, true); // word 0's bit -> region 0
        new.meta_mut().set(31, true); // word 31's bit -> region 3
        let flips = region_flips(&old, &new, SlotConfig::PAPER);
        assert_eq!(flips.len(), 4);
        assert_eq!(flips[0], 1);
        assert_eq!(flips[3], 1);
    }

    /// The `Vec`-based counting and packing the fixed-array versions
    /// replaced, kept as the reference they are checked against.
    mod reference {
        use super::*;

        pub(super) fn region_flips(old: &LineImage, new: &LineImage, cfg: SlotConfig) -> Vec<u32> {
            assert_eq!(old.total_bits(), new.total_bits(), "image size mismatch");
            let data_bits = deuce_crypto::LINE_BITS as u32;
            let regions = cfg.regions_for(data_bits);
            let meta_bits = old.total_bits() - data_bits;
            let mut flips = vec![0u32; regions as usize];
            for (word_base, mut word) in old.changed_words(new) {
                let last_bit = word_base + 63;
                if last_bit < data_bits && word_base / cfg.region_bits == last_bit / cfg.region_bits {
                    flips[(word_base / cfg.region_bits) as usize] += word.count_ones();
                } else {
                    while word != 0 {
                        let bit = word_base + word.trailing_zeros();
                        word &= word - 1;
                        let region = if bit < data_bits {
                            bit / cfg.region_bits
                        } else {
                            (bit - data_bits) * regions / meta_bits.max(1)
                        };
                        flips[region.min(regions - 1) as usize] += 1;
                    }
                }
            }
            flips
        }

        pub(super) fn write_slots(old: &LineImage, new: &LineImage, cfg: SlotConfig) -> u32 {
            let mut flips = region_flips(old, new, cfg);
            for f in &mut flips {
                *f = (*f).min(cfg.flips_per_slot);
            }
            flips.retain(|&f| f > 0);
            if flips.is_empty() {
                return 1;
            }
            flips.sort_unstable_by(|a, b| b.cmp(a));
            let mut bins: Vec<u32> = Vec::new();
            for f in flips {
                match bins.iter_mut().find(|remaining| **remaining >= f) {
                    Some(remaining) => *remaining -= f,
                    None => bins.push(cfg.flips_per_slot - f),
                }
            }
            bins.len() as u32
        }
    }

    /// Every accepted configuration: each region width × a spread of
    /// per-slot budgets.
    fn accepted_configs() -> impl Iterator<Item = SlotConfig> {
        [64, 128, 256, 512].into_iter().flat_map(|region_bits| {
            [1, 32, 64, 128]
                .into_iter()
                .map(move |flips| SlotConfig::new(region_bits, flips).expect("accepted config"))
        })
    }

    /// Differential check: the fixed-array counting and packing match
    /// the `Vec` reference and a bit-at-a-time count, for every accepted
    /// configuration, metadata of 0, 32 and 33 bits, and random images
    /// from nearly unchanged to fully rewritten.
    #[test]
    fn counting_and_packing_match_the_vec_reference() {
        let mut lcg = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            lcg
        };
        let data_bits = deuce_crypto::LINE_BITS as u32;
        for cfg in accepted_configs() {
            let regions = cfg.regions_for(data_bits);
            for meta_width in [0u32, 32, 33] {
                let meta_mask = (1u64 << meta_width) - 1;
                for round in 0..200 {
                    let mut old = LineImage::new([0u8; 64], MetaBits::new(meta_width));
                    for b in old.data_mut().iter_mut() {
                        *b = next() as u8;
                    }
                    *old.meta_mut() = MetaBits::from_raw(next() & meta_mask, meta_width);
                    // Rewrite one byte in 2^(round % 7): from a handful
                    // of changed bits to a fully rewritten line.
                    let mut new = old;
                    let keep = (1u64 << (round % 7)) - 1;
                    for b in new.data_mut().iter_mut() {
                        if next() & keep == 0 {
                            *b = next() as u8;
                        }
                    }
                    if next() & keep == 0 {
                        *new.meta_mut() = MetaBits::from_raw(next() & meta_mask, meta_width);
                    }

                    let mut bitwise = vec![0u32; regions as usize];
                    for bit in old.changed_bits(&new) {
                        let region = if bit < data_bits {
                            bit / cfg.region_bits
                        } else {
                            (bit - data_bits) * regions / meta_width
                        };
                        bitwise[region as usize] += 1;
                    }
                    let what = format!("{cfg:?}, {meta_width} meta bits, round {round}");
                    let flips = region_flips(&old, &new, cfg);
                    assert_eq!(&flips[..], &reference::region_flips(&old, &new, cfg)[..], "{what}");
                    assert_eq!(&flips[..], &bitwise[..], "{what}");
                    assert_eq!(
                        write_slots(&old, &new, cfg),
                        reference::write_slots(&old, &new, cfg),
                        "{what}"
                    );
                }
            }
        }
    }

    /// Region widths other than 64, 128, 256 and 512, and a budget of no
    /// flips, cannot be built.
    #[test]
    fn out_of_range_configs_are_refused() {
        for region_bits in [0, 1, 32, 63, 65, 96, 100, 192, 320, 448, 576, 1024, u32::MAX] {
            let err = SlotConfig::new(region_bits, 64).expect_err("region width out of range");
            assert_eq!(err.region_bits, region_bits);
            assert!(err.to_string().contains(&format!("{region_bits}-bit regions")), "{err}");
        }
        assert!(SlotConfig::new(128, 0).is_err());
        assert_eq!(SlotConfig::new(128, 64), Ok(SlotConfig::PAPER));
        assert_eq!(accepted_configs().count(), 16);
    }

    #[test]
    fn regions_for_rounds_up() {
        assert_eq!(SlotConfig::PAPER.regions_for(512), 4);
        assert_eq!(SlotConfig::PAPER.regions_for(544), 5);
        assert_eq!(SlotConfig::PAPER.regions_for(128), 1);
        assert_eq!(SlotConfig::PAPER.regions_for(129), 2);
    }
}
