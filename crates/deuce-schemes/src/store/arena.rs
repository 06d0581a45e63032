//! The fully-resident in-RAM backend: the original arena, now one
//! [`PageBackend`] among several.

use deuce_crypto::LineBytes;

use crate::scheme::{LineMut, LineRef, LineScheme};
use crate::store::backend::PageBackend;

/// Dense in-RAM slot storage: two parallel arrays, every page
/// permanently resident. This is the default backend and is
/// bit-identical to the historical monolithic `LineStore` layout.
#[derive(Debug, Clone)]
pub struct ArenaBackend<S: LineScheme> {
    stored: Vec<LineBytes>,
    state: Vec<S::State>,
}

impl<S: LineScheme> ArenaBackend<S> {
    /// Creates an empty arena; nothing is allocated until the first
    /// slot is pushed.
    #[must_use]
    pub fn new() -> Self {
        Self {
            stored: Vec::new(),
            state: Vec::new(),
        }
    }
}

impl<S: LineScheme> Default for ArenaBackend<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: LineScheme> PageBackend<S> for ArenaBackend<S> {
    fn push(&mut self, stored: &LineBytes, state: S::State) -> u32 {
        let slot = u32::try_from(self.stored.len()).expect("more than u32::MAX lines");
        self.stored.push(*stored);
        self.state.push(state);
        slot
    }

    fn len(&self) -> usize {
        self.stored.len()
    }

    fn with_slot_mut<T>(&mut self, slot: u32, f: impl FnOnce(LineMut<'_, S::State>) -> T) -> T {
        let i = slot as usize;
        f(LineMut {
            stored: &mut self.stored[i],
            state: &mut self.state[i],
        })
    }

    fn with_slot<T>(&self, slot: u32, f: impl FnOnce(LineRef<'_, S::State>) -> T) -> T {
        let i = slot as usize;
        f(LineRef {
            stored: &self.stored[i],
            state: &self.state[i],
        })
    }

    fn resident_bytes(&self) -> u64 {
        self.len() as u64 * PageBackend::<S>::per_line_bytes(self)
    }
}
