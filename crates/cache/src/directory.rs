//! Full-map directory entries.
//!
//! One [`DirEntry`] per line that any private cache holds (or held): a
//! sharer bit per core (up to 64) and an optional exclusive owner. The
//! entry carries the protocol's directory transitions as methods; the
//! coherence engine that uses a directory stores one entry per line in
//! its own flat per-line table, beside the rest of its line state, so
//! one interned line id reaches all of it.

use rce_common::CoreId;

/// Directory state for one line. The default (no sharers, no owner) is
/// the idle entry: no private cache holds the line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirEntry {
    /// Bit `i` set: core `i` holds the line in a readable state.
    pub sharers: u64,
    /// The core holding the line exclusively (M or E), if any.
    pub owner: Option<CoreId>,
}

impl DirEntry {
    /// True if no private cache holds the line.
    pub fn is_idle(&self) -> bool {
        self.sharers == 0 && self.owner.is_none()
    }

    /// Number of sharers.
    pub fn sharer_count(&self) -> u32 {
        self.sharers.count_ones()
    }

    /// Iterate sharer cores in ascending order, straight off the
    /// bitmask (one step per set bit).
    pub fn sharer_cores(&self) -> impl Iterator<Item = CoreId> + Clone {
        let mut bits = self.sharers;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let i = bits.trailing_zeros();
                bits &= bits - 1;
                CoreId(i as u16)
            })
        })
    }

    /// True if `c` is a sharer.
    pub fn has_sharer(&self, c: CoreId) -> bool {
        self.sharers & (1u64 << c.0) != 0
    }

    /// Add a sharer. Any owner must be `c` itself, whose ownership
    /// ends.
    pub fn add_sharer(&mut self, c: CoreId) {
        debug_assert!(
            self.owner.is_none() || self.owner == Some(c),
            "adding sharer while another core owns the line"
        );
        self.owner = None;
        self.sharers |= 1u64 << c.0;
    }

    /// Add a sharer while keeping the current owner (MOESI: a dirty
    /// Owned copy coexists with clean Shared copies).
    pub fn add_sharer_keep_owner(&mut self, c: CoreId) {
        self.sharers |= 1u64 << c.0;
    }

    /// Remove a sharer (invalidation or eviction notice), and its
    /// ownership if it owned the line.
    pub fn remove_sharer(&mut self, c: CoreId) {
        self.sharers &= !(1u64 << c.0);
        if self.owner == Some(c) {
            self.owner = None;
        }
    }

    /// Grant exclusive ownership to `c`, clearing all sharers. The
    /// caller is responsible for having invalidated them.
    pub fn set_owner(&mut self, c: CoreId) {
        self.sharers = 1u64 << c.0;
        self.owner = Some(c);
    }

    /// Downgrade the owner to a plain sharer (on a remote read).
    pub fn downgrade_owner(&mut self) {
        self.owner = None;
    }

    /// Check the entry's own invariants on a `cores`-core machine;
    /// returns a description of the first violation. An owner's bit
    /// must be set, and `exclusive_owner` further demands that the
    /// owner be the sole sharer (true for MESI; false under MOESI,
    /// where an Owned copy coexists with Shared copies). No bit may
    /// name a core beyond the machine.
    pub fn check(&self, cores: usize, exclusive_owner: bool) -> Result<(), String> {
        if let Some(o) = self.owner {
            if exclusive_owner && self.sharers != (1u64 << o.0) {
                return Err(format!("owner {o} but sharers {:#x}", self.sharers));
            }
            if !self.has_sharer(o) {
                return Err(format!("owner {o} without its bit"));
            }
        }
        if self.sharers.checked_shr(cores as u32).unwrap_or(0) != 0 {
            return Err("sharer bit beyond core count".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharer_lifecycle() {
        let mut e = DirEntry::default();
        e.add_sharer(CoreId(1));
        e.add_sharer(CoreId(3));
        assert_eq!(e.sharer_count(), 2);
        assert!(e.has_sharer(CoreId(3)));
        e.remove_sharer(CoreId(1));
        assert_eq!(e.sharer_count(), 1);
        e.remove_sharer(CoreId(3));
        assert!(e.is_idle());
        assert_eq!(e, DirEntry::default(), "an emptied entry is the idle one");
    }

    #[test]
    fn ownership() {
        let mut e = DirEntry::default();
        e.set_owner(CoreId(2));
        assert_eq!(e.owner, Some(CoreId(2)));
        assert_eq!(e.sharer_count(), 1);
        assert_eq!(e.check(4, true), Ok(()));

        e.downgrade_owner();
        assert_eq!(e.owner, None);
        assert!(e.has_sharer(CoreId(2)));
        // MOESI: a reader joins while the owner keeps its line.
        e.set_owner(CoreId(2));
        e.add_sharer_keep_owner(CoreId(0));
        assert_eq!(e.owner, Some(CoreId(2)));
        assert_eq!(e.sharer_cores().collect::<Vec<_>>(), [CoreId(0), CoreId(2)]);
        assert_eq!(e.check(4, false), Ok(()));
    }

    #[test]
    fn sharers_except_excludes_requester() {
        let mut e = DirEntry::default();
        for c in 0..3 {
            e.add_sharer(CoreId(c));
        }
        let v: Vec<_> = e.sharer_cores().filter(|c| *c != CoreId(1)).collect();
        assert_eq!(v, vec![CoreId(0), CoreId(2)]);
    }

    #[test]
    fn sharer_cores_ascend_over_random_masks() {
        use rce_common::{Rng, SplitMix64};
        let mut rng = SplitMix64::new(63);
        for i in 0..1000 {
            // Every third mask forces the top bit on.
            let sharers = rng.next_u64() | if i % 3 == 0 { 1 << 63 } else { 0 };
            let e = DirEntry {
                sharers,
                owner: None,
            };
            let want: Vec<_> = (0..64u16)
                .filter(|c| sharers & (1 << c) != 0)
                .map(CoreId)
                .collect();
            let got: Vec<_> = e.sharer_cores().collect();
            assert_eq!(got, want, "sharers {sharers:#x}");
        }
        let none = DirEntry::default();
        assert_eq!(none.sharer_cores().count(), 0);
    }

    #[test]
    fn invariants_hold_at_64_cores() {
        let mut e = DirEntry::default();
        e.set_owner(CoreId(63));
        assert_eq!(e.check(64, true), Ok(()));
        e.downgrade_owner();
        e.add_sharer(CoreId(5));
        assert_eq!(e.check(64, true), Ok(()));
        assert_eq!(
            e.sharer_cores().collect::<Vec<_>>(),
            [CoreId(5), CoreId(63)]
        );
        // A bit beyond the core count is still caught below 64 cores.
        assert!(e.check(63, true).is_err());
    }

    #[test]
    fn invariants_catch_corruption() {
        // An owner beside another sharer: corrupt under MESI, an Owned
        // line with a Shared copy under MOESI.
        let mut e = DirEntry::default();
        e.set_owner(CoreId(0));
        e.add_sharer_keep_owner(CoreId(1));
        assert!(e.check(2, true).is_err());
        assert_eq!(e.check(2, false), Ok(()));
        // An owner whose own bit is clear is corrupt either way.
        let e = DirEntry {
            sharers: 1 << 1,
            owner: Some(CoreId(0)),
        };
        assert!(e.check(2, true).is_err());
        assert!(e.check(2, false).is_err());
    }

    #[test]
    fn owner_eviction_clears_ownership() {
        let mut e = DirEntry::default();
        e.set_owner(CoreId(1));
        e.remove_sharer(CoreId(1));
        assert!(e.is_idle());
    }
}
