//! Interned line identifiers and flat per-line storage.
//!
//! Every simulated access touches per-line metadata — access-bit
//! tables, sharer state, region classifications, heatmaps. Hashing the
//! sparse 64-bit line address into a `HashMap` on each of those
//! touches dominates the simulator's hot path. [`LineTable`] interns a
//! line address into a dense [`LineId`] exactly once per distinct
//! line; consumers then index plain vectors ([`LineMap`]) or bitsets
//! ([`LineFlags`], [`LineSet`]) by the dense id instead.
//!
//! A simulation run keeps one table for its lines (`rce_core`'s
//! `Substrate::lines`), shared by the engine, its metadata store and
//! conflict forensics, so one access interns its line once however
//! many per-line stores it touches. The oracle keeps a second table
//! over word addresses, because it tracks words, not lines.
//!
//! Interning is insertion-ordered (the first line seen gets id 0, the
//! next new line id 1, ...) and never forgets a line, so a `LineId` is
//! valid for the lifetime of its table and the table's memory is
//! bounded by the number of *distinct* lines a run touches, not by the
//! address-space span. Nothing here is serialized: reports keep
//! speaking raw [`LineAddr`]es, which is what keeps them byte-identical
//! across the sparse-to-flat storage swap.

use crate::addr::LineAddr;

/// Dense identifier for an interned line address.
///
/// Ids are assigned contiguously from 0 in first-seen order by the
/// [`LineTable`] that produced them; they are meaningless across
/// tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineId(pub u32);

impl LineId {
    /// The id as a vector index.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// Open-addressing intern table mapping [`LineAddr`] to dense
/// [`LineId`].
///
/// Insert-only: lines are never removed, so consumers can cache ids
/// and index flat arrays without tombstone or rehash invalidation
/// concerns. Lookup is a multiply-shift hash plus linear probing over
/// a power-of-two slot array kept below 7/8 load.
#[derive(Debug, Clone)]
pub struct LineTable {
    /// Each slot holds `line_index + 1`, or 0 for empty.
    slots: Vec<u32>,
    /// Interned raw line addresses, indexed by `LineId`.
    lines: Vec<u64>,
}

impl Default for LineTable {
    fn default() -> Self {
        LineTable::new()
    }
}

impl LineTable {
    /// New empty table.
    pub fn new() -> Self {
        LineTable {
            slots: vec![0; 64],
            lines: Vec::new(),
        }
    }

    /// SplitMix64-style finalizer; sequential line addresses must not
    /// cluster into the same probe run.
    #[inline]
    fn mix(key: u64) -> u64 {
        let mut x = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^ (x >> 31)
    }

    /// Find `key`'s slot: (slot index, Some(id) if present).
    #[inline]
    fn probe(&self, key: u64) -> (usize, Option<LineId>) {
        let mask = self.slots.len() - 1;
        let mut i = (Self::mix(key) as usize) & mask;
        loop {
            let s = self.slots[i];
            if s == 0 {
                return (i, None);
            }
            let idx = (s - 1) as usize;
            if self.lines[idx] == key {
                return (i, Some(LineId(s - 1)));
            }
            i = (i + 1) & mask;
        }
    }

    /// Intern a line, returning its dense id. Stable: the same address
    /// always yields the same id.
    pub fn intern(&mut self, line: LineAddr) -> LineId {
        if (self.lines.len() + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let (slot, found) = self.probe(line.0);
        if let Some(id) = found {
            return id;
        }
        let id = LineId(self.lines.len() as u32);
        self.lines.push(line.0);
        self.slots[slot] = id.0 + 1;
        id
    }

    /// Id for a line if it has been interned, without interning it.
    #[inline]
    pub fn lookup(&self, line: LineAddr) -> Option<LineId> {
        self.probe(line.0).1
    }

    /// The address a dense id was interned from.
    ///
    /// # Panics
    /// If `id` did not come from this table.
    #[inline]
    pub fn addr(&self, id: LineId) -> LineAddr {
        LineAddr(self.lines[id.index()])
    }

    /// Number of distinct lines interned.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.lines.len()
    }

    fn grow(&mut self) {
        let cap = self.slots.len() * 2;
        let mask = cap - 1;
        let mut slots = vec![0u32; cap];
        for (idx, &key) in self.lines.iter().enumerate() {
            let mut i = (Self::mix(key) as usize) & mask;
            while slots[i] != 0 {
                i = (i + 1) & mask;
            }
            slots[i] = idx as u32 + 1;
        }
        self.slots = slots;
    }
}

/// Flat per-line value store indexed by [`LineId`].
///
/// Grows on demand with `T::default()`; "absent" is represented by the
/// default value (consumers pair this with an emptiness predicate such
/// as `MetaMap::is_empty`).
#[derive(Debug, Clone)]
pub struct LineMap<T> {
    vals: Vec<T>,
}

impl<T: Default> Default for LineMap<T> {
    fn default() -> Self {
        LineMap::new()
    }
}

impl<T: Default> LineMap<T> {
    /// New empty map.
    pub fn new() -> Self {
        LineMap { vals: Vec::new() }
    }

    /// Mutable access to `id`'s value, growing with defaults as
    /// needed.
    #[inline]
    pub fn slot(&mut self, id: LineId) -> &mut T {
        if id.index() >= self.vals.len() {
            self.vals.resize_with(id.index() + 1, T::default);
        }
        &mut self.vals[id.index()]
    }

    /// The value at `id`, if the map has grown that far.
    #[inline]
    pub fn get(&self, id: LineId) -> Option<&T> {
        self.vals.get(id.index())
    }

    /// Mutable access to `id`'s value, if the map has grown that far;
    /// unlike [`LineMap::slot`], never grows it.
    #[inline]
    pub fn get_mut(&mut self, id: LineId) -> Option<&mut T> {
        self.vals.get_mut(id.index())
    }

    /// All populated slots in id order.
    pub fn iter(&self) -> impl Iterator<Item = (LineId, &T)> {
        self.vals
            .iter()
            .enumerate()
            .map(|(i, v)| (LineId(i as u32), v))
    }
}

/// Growable bitset over [`LineId`]s: membership only, no iteration
/// order.
#[derive(Debug, Clone, Default)]
pub struct LineFlags {
    words: Vec<u64>,
}

impl LineFlags {
    /// New empty flag set.
    pub fn new() -> Self {
        LineFlags::default()
    }

    /// Set `id`'s flag; true if it was newly set.
    #[inline]
    pub fn insert(&mut self, id: LineId) -> bool {
        let (w, b) = (id.index() / 64, id.index() % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        fresh
    }

    /// Clear `id`'s flag; true if it was set.
    #[inline]
    pub fn remove(&mut self, id: LineId) -> bool {
        let (w, b) = (id.index() / 64, id.index() % 64);
        if w >= self.words.len() {
            return false;
        }
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        was
    }

    /// Whether `id`'s flag is set.
    #[inline]
    pub fn contains(&self, id: LineId) -> bool {
        let (w, b) = (id.index() / 64, id.index() % 64);
        self.words.get(w).is_some_and(|x| x & (1 << b) != 0)
    }

    /// Number of set flags.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Deduplicating set of [`LineId`]s that remembers its members for a
/// later bulk drain — the flat replacement for a `HashSet<u64>` that
/// is filled during a region and flushed at its boundary.
#[derive(Debug, Clone, Default)]
pub struct LineSet {
    flags: LineFlags,
    members: Vec<LineId>,
}

impl LineSet {
    /// New empty set.
    pub fn new() -> Self {
        LineSet::default()
    }

    /// Insert `id`; true if it was not already present.
    #[inline]
    pub fn insert(&mut self, id: LineId) -> bool {
        if self.flags.insert(id) {
            self.members.push(id);
            true
        } else {
            false
        }
    }

    /// Whether `id` is in the set.
    #[cfg(test)]
    #[inline]
    pub(crate) fn contains(&self, id: LineId) -> bool {
        self.flags.contains(id)
    }

    /// Number of members.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the set has no members.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Remove every member, yielding them in insertion order, and
    /// leave the set empty with its capacity kept, so a set refilled
    /// every region stops allocating once it has grown. Callers that
    /// feed hardware models must sort the members by address
    /// themselves — insertion order is program-dependent, not
    /// canonical.
    pub fn drain(&mut self) -> std::vec::Drain<'_, LineId> {
        for &id in &self.members {
            self.flags.remove(id);
        }
        self.members.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_n;
    use crate::{prop_assert, prop_assert_eq, Rng, SplitMix64};

    #[test]
    fn interning_is_stable_and_dense() {
        let mut t = LineTable::new();
        let a = t.intern(LineAddr(0x40));
        let b = t.intern(LineAddr(0x80));
        let a2 = t.intern(LineAddr(0x40));
        assert_eq!(a, LineId(0));
        assert_eq!(b, LineId(1));
        assert_eq!(a, a2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.addr(a), LineAddr(0x40));
        assert_eq!(t.addr(b), LineAddr(0x80));
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut t = LineTable::new();
        assert_eq!(t.lookup(LineAddr(7)), None);
        let id = t.intern(LineAddr(7));
        assert_eq!(t.lookup(LineAddr(7)), Some(id));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn growth_preserves_ids() {
        let mut t = LineTable::new();
        let ids: Vec<LineId> = (0..10_000u64).map(|i| t.intern(LineAddr(i * 64))).collect();
        assert_eq!(t.len(), 10_000);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.index(), i);
            assert_eq!(t.lookup(LineAddr(i as u64 * 64)), Some(*id));
            assert_eq!(t.addr(*id), LineAddr(i as u64 * 64));
        }
    }

    /// Property: ids are assigned densely in first-occurrence order,
    /// and re-interning any address is stable — on arbitrary address
    /// streams with duplicates.
    #[test]
    fn prop_interning_stable_and_dense() {
        check_n(
            "prop_interning_stable_and_dense",
            128,
            |rng: &mut SplitMix64| {
                let n = 1 + rng.gen_range(200) as usize;
                (0..n).map(|_| rng.gen_range(64) * 64).collect::<Vec<u64>>()
            },
            |addrs| {
                let mut t = LineTable::new();
                let mut first_seen: Vec<u64> = Vec::new();
                for &a in addrs {
                    let id = t.intern(LineAddr(a));
                    if !first_seen.contains(&a) {
                        prop_assert_eq!(id.index(), first_seen.len(), "dense in first-seen order");
                        first_seen.push(a);
                    } else {
                        let expect = first_seen.iter().position(|&x| x == a).unwrap();
                        prop_assert_eq!(id.index(), expect, "stable on re-intern");
                    }
                }
                prop_assert_eq!(t.len(), first_seen.len());
                for (i, &a) in first_seen.iter().enumerate() {
                    prop_assert_eq!(t.lookup(LineAddr(a)), Some(LineId(i as u32)));
                    prop_assert_eq!(t.addr(LineId(i as u32)), LineAddr(a));
                }
                Ok(())
            },
        );
    }

    /// Property: on random op streams over interned addresses,
    /// `LineFlags`, `LineMap` and `LineSet` answer every query exactly
    /// as `HashSet`, `HashMap` and insertion-ordered `Vec` references
    /// fed the same ops — the work an engine access and a region flush
    /// do on them.
    #[test]
    fn prop_flat_stores_match_std_references() {
        use std::collections::{HashMap, HashSet};
        check_n(
            "prop_flat_stores_match_std_references",
            128,
            |rng: &mut SplitMix64| {
                let n = 1 + rng.gen_range(400) as usize;
                // 300 lines span several 64-bit flag words.
                (0..n)
                    .map(|_| (rng.gen_range(8) as u8, rng.gen_range(300) * 64))
                    .collect::<Vec<(u8, u64)>>()
            },
            |ops| {
                let mut table = LineTable::new();
                let mut flags = LineFlags::new();
                let mut map: LineMap<u64> = LineMap::new();
                let mut set = LineSet::new();
                let mut ref_flags: HashSet<u64> = HashSet::new();
                let mut ref_map: HashMap<u64, u64> = HashMap::new();
                let mut ref_set: Vec<u64> = Vec::new();
                let mut map_len = 0usize;
                for (step, &(op, addr)) in ops.iter().enumerate() {
                    let id = table.intern(LineAddr(addr));
                    match op {
                        0 => prop_assert_eq!(flags.insert(id), ref_flags.insert(addr)),
                        1 => prop_assert_eq!(flags.remove(id), ref_flags.remove(&addr)),
                        2 => {
                            prop_assert_eq!(flags.contains(id), ref_flags.contains(&addr));
                            prop_assert_eq!(flags.count(), ref_flags.len());
                        }
                        3 => {
                            let bit = 1u64 << (step % 64);
                            *map.slot(id) |= bit;
                            *ref_map.entry(addr).or_default() |= bit;
                            map_len = map_len.max(id.index() + 1);
                        }
                        4 => {
                            // Ids below the grown length read as the
                            // default; beyond it, as absent.
                            let want = ref_map.get(&addr).copied().unwrap_or(0);
                            let got = map.get(id).copied();
                            prop_assert_eq!(got.is_some(), id.index() < map_len);
                            prop_assert_eq!(got.unwrap_or(0), want);
                        }
                        5 => {
                            let fresh = !ref_set.contains(&addr);
                            if fresh {
                                ref_set.push(addr);
                            }
                            prop_assert_eq!(set.insert(id), fresh);
                        }
                        6 => prop_assert_eq!(set.contains(id), ref_set.contains(&addr)),
                        _ => {
                            // A region flush: drain, map back to
                            // addresses, sort.
                            let mut drained: Vec<u64> =
                                set.drain().map(|i| table.addr(i).0).collect();
                            let mut want = std::mem::take(&mut ref_set);
                            prop_assert_eq!(&drained, &want, "drain in insertion order");
                            drained.sort_unstable();
                            want.sort_unstable();
                            prop_assert_eq!(drained, want);
                            prop_assert!(set.is_empty());
                        }
                    }
                    prop_assert_eq!(set.len(), ref_set.len());
                }
                for (&addr, &bits) in &ref_map {
                    let id = table.lookup(LineAddr(addr)).expect("interned above");
                    prop_assert_eq!(map.get(id), Some(&bits));
                }
                for addr in (0..300).map(|l| l * 64) {
                    if let Some(id) = table.lookup(LineAddr(addr)) {
                        prop_assert_eq!(flags.contains(id), ref_flags.contains(&addr));
                        prop_assert_eq!(set.contains(id), ref_set.contains(&addr));
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn line_map_grows_with_defaults() {
        let mut m: LineMap<u64> = LineMap::new();
        assert_eq!(m.get(LineId(3)), None);
        *m.slot(LineId(3)) += 5;
        assert_eq!(m.get(LineId(3)), Some(&5));
        assert_eq!(m.get(LineId(0)), Some(&0));
        assert_eq!(m.iter().count(), 4);
    }

    #[test]
    fn flags_insert_remove_contains() {
        let mut f = LineFlags::new();
        assert!(!f.contains(LineId(70)));
        assert!(f.insert(LineId(70)));
        assert!(!f.insert(LineId(70)), "second insert is not fresh");
        assert!(f.contains(LineId(70)));
        assert!(f.remove(LineId(70)));
        assert!(!f.remove(LineId(70)));
        assert!(!f.contains(LineId(70)));
        assert!(!f.remove(LineId(9999)), "beyond-capacity remove is a no-op");
    }

    #[test]
    fn line_set_dedups_and_drains() {
        let mut s = LineSet::new();
        assert!(s.insert(LineId(2)));
        assert!(s.insert(LineId(0)));
        assert!(!s.insert(LineId(2)));
        assert_eq!(s.len(), 2);
        assert!(s.contains(LineId(0)));
        let drained: Vec<LineId> = s.drain().collect();
        assert_eq!(drained, vec![LineId(2), LineId(0)], "insertion order");
        assert!(s.is_empty());
        assert!(!s.contains(LineId(2)));
        assert!(s.members.capacity() >= 2, "draining keeps the capacity");
        assert!(s.insert(LineId(2)), "reusable after a drain");
    }
}
