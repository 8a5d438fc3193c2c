//! The schedulers' side of [`Protocol::dormant`](crate::Protocol::dormant):
//! one bit per node, kept beside the scheduler so that skipping a node
//! touches none of the node's own memory.

/// Which nodes have promised that their next activations are no-ops.
pub(crate) struct DormantSet {
    words: Vec<u64>,
    /// Raised by `nodes_mut()`, which hands out every node at once and must
    /// stay O(1): the next step clears the whole set.
    wake_all: bool,
    /// Activations skipped so far.
    pub skips: u64,
}

impl DormantSet {
    /// `n` nodes, all awake.
    pub fn new(n: usize) -> Self {
        DormantSet {
            words: vec![0; n.div_ceil(64)],
            wake_all: false,
            skips: 0,
        }
    }

    /// Node `i` was handed out mutably: step it at its next activation.
    #[inline]
    pub fn wake(&mut self, i: usize) {
        self.set(i, false);
    }

    /// Every node was handed out mutably.
    #[inline]
    pub fn wake_all(&mut self) {
        self.wake_all = true;
    }

    /// Apply a pending wake-all; each step opens with this.
    #[inline]
    pub fn settle(&mut self) {
        if std::mem::take(&mut self.wake_all) {
            self.words.fill(0);
        }
    }

    /// Is node `i`'s bit set?
    #[inline]
    pub fn asleep(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 != 0
    }

    /// May node `i`'s activation be skipped? Counts it if so. Valid after
    /// [`Self::settle`].
    #[inline]
    pub fn skip(&mut self, i: usize) -> bool {
        let asleep = self.asleep(i);
        self.skips += u64::from(asleep);
        asleep
    }

    /// Record what node `i` said about itself right after it was stepped.
    #[inline]
    pub fn set(&mut self, i: usize, dormant: bool) {
        let word = &mut self.words[i / 64];
        *word = (*word & !(1 << (i % 64))) | (u64::from(dormant) << (i % 64));
    }
}
