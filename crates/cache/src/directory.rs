//! Full-map coherence directory.
//!
//! One entry per line that any private cache holds (or held): a sharer
//! bit per core (up to 64) and an optional exclusive owner. The
//! engines consult and update it on every coherence event; invariant
//! checks (`check_invariants`) run in debug tests to catch protocol
//! bugs — e.g. an owner coexisting with sharers.

use rce_common::{CoreId, LineAddr, LineMap, LineTable, MAX_CORES};

/// Directory state for one line.
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
}

/// The directory: line → entry. Modeled unbounded (see crate docs).
///
/// Storage is flat: lines are interned once into a [`LineTable`] and
/// entries live in a dense vector indexed by the interned id, so the
/// per-coherence-event lookups the engines issue are array indexing
/// rather than hashing. An idle entry is indistinguishable from an
/// absent one (both are the default `DirEntry`): an entry whose last
/// holder leaves is reclaimed without any explicit removal.
#[derive(Debug, Clone, Default)]
pub struct Directory {
    table: LineTable,
    entries: LineMap<DirEntry>,
    /// Count of non-idle entries (what a real directory would have to
    /// track capacity for).
    tracked: usize,
    cores: usize,
}

impl Directory {
    /// Build for `cores` cores (at most [`MAX_CORES`]).
    pub fn new(cores: usize) -> Self {
        assert!(
            cores <= MAX_CORES,
            "full-map directory supports up to {MAX_CORES} cores"
        );
        Directory {
            table: LineTable::new(),
            entries: LineMap::new(),
            tracked: 0,
            cores,
        }
    }

    /// Mutate a line's entry, keeping the non-idle count in sync.
    #[inline]
    fn update(&mut self, line: LineAddr, f: impl FnOnce(&mut DirEntry)) {
        let id = self.table.intern(line);
        let e = self.entries.slot(id);
        let was_idle = e.is_idle();
        f(e);
        match (was_idle, e.is_idle()) {
            (true, false) => self.tracked += 1,
            (false, true) => self.tracked -= 1,
            _ => {}
        }
    }

    /// Entry for a line (idle default if never seen).
    pub fn entry(&self, line: LineAddr) -> DirEntry {
        self.table
            .lookup(line)
            .and_then(|id| self.entries.get(id).copied())
            .unwrap_or_default()
    }

    /// Add a sharer.
    pub fn add_sharer(&mut self, line: LineAddr, c: CoreId) {
        debug_assert!(c.index() < self.cores);
        self.update(line, |e| {
            debug_assert!(
                e.owner.is_none() || e.owner == Some(c),
                "adding sharer while another core owns the line"
            );
            e.owner = None;
            e.sharers |= 1u64 << c.0;
        });
    }

    /// Add a sharer while keeping the current owner (MOESI: a dirty
    /// Owned copy coexists with clean Shared copies).
    pub fn add_sharer_keep_owner(&mut self, line: LineAddr, c: CoreId) {
        debug_assert!(c.index() < self.cores);
        self.update(line, |e| e.sharers |= 1u64 << c.0);
    }

    /// Remove a sharer (invalidation or eviction notice).
    pub fn remove_sharer(&mut self, line: LineAddr, c: CoreId) {
        if self.table.lookup(line).is_none() {
            return;
        }
        self.update(line, |e| {
            e.sharers &= !(1u64 << c.0);
            if e.owner == Some(c) {
                e.owner = None;
            }
        });
    }

    /// Grant exclusive ownership to `c`, clearing all sharers. The
    /// caller is responsible for having invalidated them.
    pub fn set_owner(&mut self, line: LineAddr, c: CoreId) {
        debug_assert!(c.index() < self.cores);
        self.update(line, |e| {
            e.sharers = 1u64 << c.0;
            e.owner = Some(c);
        });
    }

    /// Downgrade the owner to a plain sharer (on a remote read).
    pub fn downgrade_owner(&mut self, line: LineAddr) {
        if self.table.lookup(line).is_none() {
            return;
        }
        self.update(line, |e| e.owner = None);
    }

    /// Number of tracked (non-idle) lines.
    #[cfg(test)]
    pub(crate) fn tracked_lines(&self) -> usize {
        self.tracked
    }

    /// Check protocol invariants assuming exclusive (MESI) ownership.
    #[cfg(test)]
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        self.check_invariants_mode(true)
    }

    /// Check protocol invariants; returns a description of the first
    /// violation. `exclusive_owner` demands that an owner be the sole
    /// sharer (true for MESI; false under MOESI, where an Owned copy
    /// coexists with Shared copies — the owner's bit must still be
    /// set).
    pub fn check_invariants_mode(&self, exclusive_owner: bool) -> Result<(), String> {
        for (id, e) in self.entries.iter() {
            if e.is_idle() {
                continue;
            }
            let line = self.table.addr(id).0;
            if let Some(o) = e.owner {
                if exclusive_owner && e.sharers != (1u64 << o.0) {
                    return Err(format!(
                        "line {line:#x}: owner {o} but sharers {:#x}",
                        e.sharers
                    ));
                }
                if e.sharers & (1u64 << o.0) == 0 {
                    return Err(format!("line {line:#x}: owner {o} without its bit"));
                }
            }
            if e.sharers.checked_shr(self.cores as u32).unwrap_or(0) != 0 {
                return Err(format!("line {line:#x}: sharer bit beyond core count"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rce_common::LineAddr;

    #[test]
    fn sharer_lifecycle() {
        let mut d = Directory::new(4);
        let l = LineAddr(10);
        d.add_sharer(l, CoreId(1));
        d.add_sharer(l, CoreId(3));
        assert_eq!(d.entry(l).sharer_count(), 2);
        assert!(d.entry(l).has_sharer(CoreId(3)));
        d.remove_sharer(l, CoreId(1));
        assert_eq!(d.entry(l).sharer_count(), 1);
        d.remove_sharer(l, CoreId(3));
        assert!(d.entry(l).is_idle());
        assert_eq!(d.tracked_lines(), 0, "idle entries are reclaimed");
    }

    #[test]
    fn ownership() {
        let mut d = Directory::new(4);
        let l = LineAddr(5);
        d.set_owner(l, CoreId(2));
        let e = d.entry(l);
        assert_eq!(e.owner, Some(CoreId(2)));
        assert_eq!(e.sharer_count(), 1);
        assert!(d.check_invariants().is_ok());

        d.downgrade_owner(l);
        assert_eq!(d.entry(l).owner, None);
        assert!(d.entry(l).has_sharer(CoreId(2)));
    }

    #[test]
    fn sharers_except_excludes_requester() {
        let mut d = Directory::new(4);
        let l = LineAddr(1);
        for c in 0..3 {
            d.add_sharer(l, CoreId(c));
        }
        let v: Vec<_> = d
            .entry(l)
            .sharer_cores()
            .filter(|c| *c != CoreId(1))
            .collect();
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
        let mut d = Directory::new(64);
        let l = LineAddr(2);
        d.set_owner(l, CoreId(63));
        assert_eq!(d.check_invariants(), Ok(()));
        d.downgrade_owner(l);
        d.add_sharer(l, CoreId(5));
        assert_eq!(d.check_invariants(), Ok(()));
        assert_eq!(
            d.entry(l).sharer_cores().collect::<Vec<_>>(),
            [CoreId(5), CoreId(63)]
        );
        d.set_owner(LineAddr(3), CoreId(5));
        assert_eq!(d.check_invariants(), Ok(()));
        // A bit beyond the core count is still caught below 64 cores.
        let mut small = Directory::new(63);
        small.entries.slot(small.table.intern(l)).sharers = 1 << 63;
        assert!(small.check_invariants().is_err());
    }

    #[test]
    fn invariants_catch_corruption() {
        let mut d = Directory::new(2);
        let l = LineAddr(9);
        d.set_owner(l, CoreId(0));
        // Corrupt: add a sharer bit by hand via public API misuse is
        // prevented by debug_assert, so emulate by removing then
        // re-checking a fabricated state through set_owner + add.
        d.downgrade_owner(l);
        d.add_sharer(l, CoreId(1));
        assert!(d.check_invariants().is_ok());
    }

    #[test]
    fn owner_eviction_clears_ownership() {
        let mut d = Directory::new(2);
        let l = LineAddr(3);
        d.set_owner(l, CoreId(1));
        d.remove_sharer(l, CoreId(1));
        assert!(d.entry(l).is_idle());
    }

    #[test]
    #[should_panic(expected = "up to 64")]
    fn too_many_cores_rejected() {
        Directory::new(65);
    }
}
