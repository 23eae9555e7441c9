//! Physical addresses and cache-line geometry.
//!
//! The simulator works at word granularity inside 64-byte cache lines:
//! an [`Addr`] is a byte address, a [`LineAddr`] is the address of the
//! containing line, and a [`WordIdx`] names one of the
//! [`LineGeometry::WORDS_PER_LINE`] 8-byte words within a line. Access
//! metadata (the heart of conflict detection) is kept as per-word
//! bitmasks ([`WordMask`]).

use crate::impl_json_newtype;

/// Cache-line geometry constants shared by every model in the workspace.
///
/// The paper (and essentially all of the coherence literature it builds
/// on) assumes 64-byte lines; access bits are tracked per 8-byte word,
/// which is the granularity CE's hardware proposal used for its
/// read/write bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineGeometry;

impl LineGeometry {
    /// Line size in bytes.
    pub const LINE_BYTES: u64 = 64;
    /// Word size in bytes (the access-bit granularity).
    pub const WORD_BYTES: u64 = 8;
    /// Words per line.
    pub(crate) const WORDS_PER_LINE: u32 = (Self::LINE_BYTES / Self::WORD_BYTES) as u32;
    /// log2(line size).
    pub const LINE_SHIFT: u32 = Self::LINE_BYTES.trailing_zeros();
    /// log2(word size).
    pub(crate) const WORD_SHIFT: u32 = Self::WORD_BYTES.trailing_zeros();
}

/// A byte-granularity physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl_json_newtype!(Addr);
impl_json_newtype!(to_json LineAddr, WordIdx, WordMask);

impl Addr {
    /// The cache line containing this address.
    #[inline]
    pub fn line(self) -> LineAddr {
        LineAddr(self.0 >> LineGeometry::LINE_SHIFT)
    }

    /// The word within the containing line.
    #[inline]
    pub fn word(self) -> WordIdx {
        WordIdx(
            ((self.0 >> LineGeometry::WORD_SHIFT) & (LineGeometry::WORDS_PER_LINE as u64 - 1))
                as u8,
        )
    }

    /// Byte offset within the line.
    #[inline]
    pub(crate) fn line_offset(self) -> u64 {
        self.0 & (LineGeometry::LINE_BYTES - 1)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A cache-line-granularity address (the byte address shifted right by
/// [`LineGeometry::LINE_SHIFT`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// First byte address of this line.
    #[inline]
    pub fn base(self) -> Addr {
        Addr(self.0 << LineGeometry::LINE_SHIFT)
    }

    /// Byte address of a word within this line.
    #[inline]
    pub fn word_addr(self, w: WordIdx) -> Addr {
        Addr(self.base().0 + (w.0 as u64) * LineGeometry::WORD_BYTES)
    }
}

impl std::fmt::Display for LineAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

/// Index of an 8-byte word within a 64-byte line (0..8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WordIdx(pub u8);

/// A bitmask over the words of one line: bit `i` set means word `i` is
/// in the set. This is the unit of access metadata: CE keeps one read
/// mask and one write mask per line per core, ARC keeps them per region
/// at the LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct WordMask(pub u8);

impl WordMask {
    /// The empty mask.
    pub const EMPTY: WordMask = WordMask(0);
    /// All words in the line.
    pub const FULL: WordMask = WordMask(0xff);

    /// A mask containing only `w`.
    #[inline]
    pub fn single(w: WordIdx) -> Self {
        WordMask(1u8 << w.0)
    }

    /// A mask covering `len` bytes starting at byte address `a`,
    /// clamped to the line containing `a`.
    pub fn span(a: Addr, len: u64) -> Self {
        debug_assert!(len > 0);
        let first = a.word().0 as u32;
        let last_byte = (a.line_offset() + len - 1).min(LineGeometry::LINE_BYTES - 1);
        let last = (last_byte >> LineGeometry::WORD_SHIFT) as u32;
        let mut m = 0u8;
        for w in first..=last {
            m |= 1 << w;
        }
        WordMask(m)
    }

    /// True if no words are set.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of words set.
    #[inline]
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Union.
    #[inline]
    pub(crate) fn union(self, other: WordMask) -> WordMask {
        WordMask(self.0 | other.0)
    }

    /// Intersection.
    #[inline]
    pub fn intersect(self, other: WordMask) -> WordMask {
        WordMask(self.0 & other.0)
    }

    /// Words in `self` but not `other`.
    #[inline]
    pub fn minus(self, other: WordMask) -> WordMask {
        WordMask(self.0 & !other.0)
    }

    /// True if word `w` is set.
    #[inline]
    pub fn contains(self, w: WordIdx) -> bool {
        self.0 & (1 << w.0) != 0
    }

    /// Iterate over set words.
    pub fn iter(self) -> impl Iterator<Item = WordIdx> {
        (0..LineGeometry::WORDS_PER_LINE as u8)
            .filter(move |w| self.0 & (1 << w) != 0)
            .map(WordIdx)
    }
}

impl std::ops::BitOr for WordMask {
    type Output = WordMask;
    fn bitor(self, rhs: Self) -> Self {
        self.union(rhs)
    }
}

impl std::ops::BitOrAssign for WordMask {
    fn bitor_assign(&mut self, rhs: Self) {
        self.0 |= rhs.0;
    }
}

impl std::ops::BitAnd for WordMask {
    type Output = WordMask;
    fn bitand(self, rhs: Self) -> Self {
        self.intersect(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_geometry_is_consistent() {
        assert_eq!(LineGeometry::LINE_BYTES, 64);
        assert_eq!(LineGeometry::WORDS_PER_LINE, 8);
        assert_eq!(LineGeometry::LINE_SHIFT, 6);
        assert_eq!(LineGeometry::WORD_SHIFT, 3);
    }

    #[test]
    fn addr_line_and_word_extraction() {
        let a = Addr(0x1234);
        assert_eq!(a.line(), LineAddr(0x48));
        assert_eq!(a.line_offset(), 0x34);
        assert_eq!(a.word(), WordIdx(6));
    }

    #[test]
    fn line_base_roundtrip() {
        let l = LineAddr(7);
        assert_eq!(l.base(), Addr(7 * 64));
        assert_eq!(l.base().line(), l);
        assert_eq!(l.word_addr(WordIdx(3)), Addr(7 * 64 + 24));
    }

    #[test]
    fn word_mask_span_single_word() {
        let m = WordMask::span(Addr(8), 4);
        assert_eq!(m, WordMask::single(WordIdx(1)));
        assert_eq!(m.count(), 1);
    }

    #[test]
    fn word_mask_span_multi_word() {
        // 16 bytes starting at byte 4 covers words 0..=2.
        let m = WordMask::span(Addr(4), 16);
        assert_eq!(m.0, 0b0000_0111);
    }

    #[test]
    fn word_mask_span_clamps_to_line() {
        // A span that would run off the end of the line is clamped.
        let m = WordMask::span(Addr(60), 32);
        assert_eq!(m, WordMask::single(WordIdx(7)));
    }

    #[test]
    fn word_mask_set_ops() {
        let a = WordMask(0b0011);
        let b = WordMask(0b0110);
        assert!(!a.intersect(b).is_empty());
        assert_eq!(a.union(b).0, 0b0111);
        assert_eq!(a.intersect(b).0, 0b0010);
        assert_eq!(a.minus(b).0, 0b0001);
        assert!(a.minus(b).intersect(b).is_empty());
    }

    #[test]
    fn word_mask_iter_matches_contains() {
        let m = WordMask(0b1010_0001);
        let words: Vec<_> = m.iter().collect();
        assert_eq!(words, vec![WordIdx(0), WordIdx(5), WordIdx(7)]);
        for w in (0..LineGeometry::WORDS_PER_LINE as u8).map(WordIdx) {
            assert_eq!(m.contains(w), words.contains(&w));
        }
    }

    #[test]
    fn full_and_empty() {
        assert_eq!(WordMask::FULL.count(), 8);
        assert!(WordMask::EMPTY.is_empty());
        assert!(WordMask::FULL.intersect(WordMask::EMPTY).is_empty());
    }
}
