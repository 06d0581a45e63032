//! Wear leveling for endurance-limited PCM (§5 of the DEUCE paper).
//!
//! DEUCE halves the bits written per writeback, but lifetime only improves
//! 11% because the *same* words keep getting re-encrypted: the hottest
//! cell still wears out early. The paper's fix is **Horizontal Wear
//! Leveling (HWL)**: instead of tracking a rotation amount per line, the
//! rotation is an *algebraic function* of the global Start-Gap registers
//! that vertical wear leveling already maintains — zero storage overhead,
//! and the rotation writes piggy-back on the line movement Start-Gap
//! performs anyway.
//!
//! Provided here:
//!
//! - [`StartGap`] — the vertical wear-leveling substrate \[20\]: the
//!   Start/Gap registers, gap movement, and logical→physical remapping.
//! - [`SecurityRefresh`] — the randomized alternative \[21\]: key-XOR
//!   remapping with gradual pairwise migration, also HWL-extensible.
//! - [`HorizontalWearLeveler`] — rotation = `Start' % BitsInLine`
//!   (§5.3), plus the hashed per-line variant of footnote 2 that resists
//!   adversarial write patterns.
//! - [`LifetimePolicy`] / [`relative_lifetime`] — turning
//!   [`deuce_nvm::WearSummary`]-style cell wear into the normalized
//!   lifetimes of Fig. 14.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attack_detector;
mod hwl;
mod lifetime;
mod security_refresh;
mod start_gap;

pub use attack_detector::{AttackDetector, WriteVerdict};
pub use hwl::{HorizontalWearLeveler, HwlMode};
pub use lifetime::{relative_lifetime, LifetimePolicy};
pub use security_refresh::{FrameSwap, SecurityRefresh};
pub use start_gap::{GapMove, StartGap};
