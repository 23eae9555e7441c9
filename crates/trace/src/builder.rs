//! Program assembly: arenas, locks, barriers, per-thread op emission.
//!
//! The builder enforces the address-space discipline the rest of the
//! workspace relies on: *shared* arenas live in a low address range,
//! *private* arenas in disjoint high per-thread ranges, and neither
//! overlaps. Workload generators only speak in terms of arenas and the
//! typed emit helpers, which keeps them short and makes structural
//! validity (balanced locks, global barriers) easy to audit.

use crate::op::Op;
use crate::program::Program;
use rce_common::{Addr, BarrierId, LineGeometry, LockId};

/// Base of the shared address range.
const SHARED_BASE: u64 = 0x1000_0000;
/// Base of the private ranges; thread `t` owns
/// `[PRIVATE_BASE + t*PRIVATE_SPAN, …)`.
const PRIVATE_BASE: u64 = 0x1_0000_0000;
/// Span reserved per thread for private data.
const PRIVATE_SPAN: u64 = 0x1000_0000;

/// A contiguous allocated address range.
///
/// Arenas hand out word- and line-granularity addresses; generators
/// index them instead of doing address arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arena {
    base: Addr,
    bytes: u64,
}

impl Arena {
    /// First byte.
    #[cfg(test)]
    pub(crate) fn base(&self) -> Addr {
        self.base
    }

    /// Size in bytes.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of 8-byte words.
    pub fn words(&self) -> u64 {
        self.bytes / LineGeometry::WORD_BYTES
    }

    /// Number of 64-byte lines.
    pub(crate) fn lines(&self) -> u64 {
        self.bytes / LineGeometry::LINE_BYTES
    }

    /// Byte address of word `i` (panics if out of range).
    pub fn word(&self, i: u64) -> Addr {
        assert!(i < self.words(), "word index {i} out of range");
        Addr(self.base.0 + i * LineGeometry::WORD_BYTES)
    }

    /// Byte address of the first word of line `i`.
    pub(crate) fn line(&self, i: u64) -> Addr {
        assert!(i < self.lines(), "line index {i} out of range");
        Addr(self.base.0 + i * LineGeometry::LINE_BYTES)
    }

    /// Split into `n` equal contiguous chunks (for per-thread slices of
    /// a shared array). `bytes` must divide evenly by `n` lines.
    pub(crate) fn chunks(&self, n: usize) -> Vec<Arena> {
        let lines = self.lines();
        assert!(
            n > 0 && lines >= n as u64,
            "cannot split {lines} lines into {n}"
        );
        let per = lines / n as u64;
        (0..n as u64)
            .map(|i| Arena {
                base: Addr(self.base.0 + i * per * LineGeometry::LINE_BYTES),
                bytes: per * LineGeometry::LINE_BYTES,
            })
            .collect()
    }
}

/// Incrementally builds a [`Program`].
#[derive(Debug)]
pub struct Builder {
    name: String,
    threads: Vec<Vec<Op>>,
    next_shared: u64,
    next_private: Vec<u64>,
    n_locks: u32,
    n_barriers: u32,
}

impl Builder {
    /// Start a program with `n_threads` threads.
    pub fn new(name: impl Into<String>, n_threads: usize) -> Self {
        assert!(n_threads > 0, "need at least one thread");
        Builder {
            name: name.into(),
            threads: vec![Vec::new(); n_threads],
            next_shared: SHARED_BASE,
            next_private: (0..n_threads as u64)
                .map(|t| PRIVATE_BASE + t * PRIVATE_SPAN)
                .collect(),
            // locks/barriers allocated on demand
            n_locks: 0,
            n_barriers: 0,
        }
    }

    /// Allocate a fresh lock object.
    pub fn lock(&mut self) -> LockId {
        let id = LockId(self.n_locks);
        self.n_locks += 1;
        id
    }

    /// Allocate a fresh barrier object.
    pub fn barrier(&mut self) -> BarrierId {
        let id = BarrierId(self.n_barriers);
        self.n_barriers += 1;
        id
    }

    /// Allocate a line-aligned shared arena of at least `bytes` bytes.
    pub fn shared(&mut self, bytes: u64) -> Arena {
        let bytes = round_lines(bytes);
        let a = Arena {
            base: Addr(self.next_shared),
            bytes,
        };
        self.next_shared += bytes;
        assert!(
            self.next_shared <= PRIVATE_BASE,
            "shared arena space exhausted"
        );
        a
    }

    /// Allocate a line-aligned private arena for thread `t`.
    pub fn private(&mut self, t: usize, bytes: u64) -> Arena {
        let bytes = round_lines(bytes);
        let a = Arena {
            base: Addr(self.next_private[t]),
            bytes,
        };
        self.next_private[t] += bytes;
        assert!(
            self.next_private[t] <= PRIVATE_BASE + (t as u64 + 1) * PRIVATE_SPAN,
            "private arena space exhausted for thread {t}"
        );
        a
    }

    /// Emit an 8-byte read on thread `t`.
    pub fn read(&mut self, t: usize, addr: Addr) {
        self.threads[t].push(Op::Read { addr, len: 8 });
    }

    /// Emit a read of `len` bytes on thread `t`.
    pub fn read_n(&mut self, t: usize, addr: Addr, len: u32) {
        debug_assert!(len >= 1 && len as u64 <= LineGeometry::LINE_BYTES);
        self.threads[t].push(Op::Read { addr, len });
    }

    /// Emit an 8-byte write on thread `t`.
    pub fn write(&mut self, t: usize, addr: Addr) {
        self.threads[t].push(Op::Write { addr, len: 8 });
    }

    /// Emit a write of `len` bytes on thread `t`.
    pub fn write_n(&mut self, t: usize, addr: Addr, len: u32) {
        debug_assert!(len >= 1 && len as u64 <= LineGeometry::LINE_BYTES);
        self.threads[t].push(Op::Write { addr, len });
    }

    /// Emit local compute on thread `t`.
    pub fn work(&mut self, t: usize, cycles: u32) {
        self.threads[t].push(Op::Work { cycles });
    }

    /// Emit an acquire on thread `t`.
    pub fn acquire(&mut self, t: usize, lock: LockId) {
        self.threads[t].push(Op::Acquire { lock });
    }

    /// Emit a release on thread `t`.
    pub fn release(&mut self, t: usize, lock: LockId) {
        self.threads[t].push(Op::Release { lock });
    }

    /// Emit a critical section on thread `t`: acquire, body, release.
    pub fn critical(&mut self, t: usize, lock: LockId, body: impl FnOnce(&mut Self)) {
        self.acquire(t, lock);
        body(self);
        self.release(t, lock);
    }

    /// Emit a barrier arrival on **every** thread (global barrier).
    pub fn barrier_all(&mut self, bar: BarrierId) {
        for t in 0..self.threads.len() {
            self.threads[t].push(Op::Barrier { bar });
        }
    }

    /// Emit a barrier arrival on one thread (caller must ensure every
    /// thread eventually arrives the same number of times).
    #[cfg(test)]
    pub(crate) fn barrier_one(&mut self, t: usize, bar: BarrierId) {
        self.threads[t].push(Op::Barrier { bar });
    }

    /// Raw op emission (escape hatch for tests).
    #[cfg(test)]
    pub(crate) fn push(&mut self, t: usize, op: Op) {
        self.threads[t].push(op);
    }

    /// Finish and produce the program.
    pub fn finish(self) -> Program {
        Program {
            name: self.name,
            threads: self.threads,
            n_locks: self.n_locks,
            n_barriers: self.n_barriers,
            shared_base: Addr(SHARED_BASE),
            shared_end: Addr(self.next_shared),
        }
    }
}

fn round_lines(bytes: u64) -> u64 {
    let b = bytes.max(1);
    b.div_ceil(LineGeometry::LINE_BYTES) * LineGeometry::LINE_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arenas_do_not_overlap() {
        let mut b = Builder::new("t", 2);
        let s1 = b.shared(100);
        let s2 = b.shared(64);
        let p0 = b.private(0, 64);
        let p1 = b.private(1, 64);
        assert_eq!(s1.bytes(), 128); // rounded to lines
        assert!(s1.base().0 + s1.bytes() <= s2.base().0);
        assert!(s2.base().0 + s2.bytes() <= p0.base().0);
        assert_ne!(p0.base(), p1.base());
        // private ranges are per-thread disjoint
        assert!(p0.base().0 + PRIVATE_SPAN <= p1.base().0 + PRIVATE_SPAN);
    }

    #[test]
    fn arena_indexing() {
        let mut b = Builder::new("t", 1);
        let a = b.shared(128);
        assert_eq!(a.words(), 16);
        assert_eq!(a.lines(), 2);
        assert_eq!(a.word(0), a.base());
        assert_eq!(a.word(8), a.line(1));
        assert_eq!(a.word(1).0 - a.word(0).0, 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn arena_word_bounds_checked() {
        let mut b = Builder::new("t", 1);
        let a = b.shared(64);
        let _ = a.word(8);
    }

    #[test]
    fn chunks_partition_evenly() {
        let mut b = Builder::new("t", 1);
        let a = b.shared(4 * 64);
        let cs = a.chunks(2);
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0].lines(), 2);
        assert_eq!(cs[1].base().0, a.base().0 + 2 * 64);
    }

    #[test]
    fn critical_emits_balanced_section() {
        let mut b = Builder::new("t", 1);
        let l = b.lock();
        let a = b.shared(64);
        b.critical(0, l, |b| b.write(0, a.word(0)));
        let p = b.finish();
        assert_eq!(p.threads[0].len(), 3);
        assert!(matches!(p.threads[0][0], Op::Acquire { .. }));
        assert!(matches!(p.threads[0][1], Op::Write { .. }));
        assert!(matches!(p.threads[0][2], Op::Release { .. }));
    }

    #[test]
    fn barrier_all_hits_every_thread() {
        let mut b = Builder::new("t", 3);
        let bar = b.barrier();
        b.barrier_all(bar);
        let p = b.finish();
        for t in &p.threads {
            assert_eq!(t.len(), 1);
            assert!(matches!(t[0], Op::Barrier { .. }));
        }
        assert_eq!(p.n_barriers, 1);
    }

    #[test]
    fn finish_records_shared_span() {
        let mut b = Builder::new("t", 1);
        b.shared(64);
        b.shared(64);
        let p = b.finish();
        assert_eq!(p.shared_base, Addr(SHARED_BASE));
        assert_eq!(p.shared_end, Addr(SHARED_BASE + 128));
    }
}
