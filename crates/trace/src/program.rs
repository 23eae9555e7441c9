//! A complete multithreaded program trace.

use crate::op::Op;
use rce_common::{impl_json_struct, Addr};

/// A multithreaded program: one operation list per thread, plus the
/// synchronization-object universe it uses.
///
/// Thread `i` is pinned to core `i` by the simulator. Programs are
/// produced by [`crate::workloads::WorkloadSpec::build`] or assembled
/// by hand through [`crate::builder::Builder`]; either way they should
/// satisfy [`crate::validate::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Human-readable workload name (figure row label).
    pub name: String,
    /// Per-thread operation lists.
    pub threads: Vec<Vec<Op>>,
    /// Number of distinct lock objects referenced.
    pub n_locks: u32,
    /// Number of distinct barrier objects referenced.
    pub n_barriers: u32,
    /// First byte of the shared address range (for characterization;
    /// addresses below this are thread-private by construction).
    pub shared_base: Addr,
    /// One past the last shared byte.
    pub shared_end: Addr,
}

impl_json_struct!(Program {
    name,
    threads,
    n_locks,
    n_barriers,
    shared_base,
    shared_end,
});

impl Program {
    /// Number of threads.
    pub fn n_threads(&self) -> usize {
        self.threads.len()
    }

    /// Total operations across all threads.
    pub fn total_ops(&self) -> usize {
        self.threads.iter().map(Vec::len).sum()
    }

    /// Total memory operations across all threads.
    pub fn total_mem_ops(&self) -> usize {
        self.threads
            .iter()
            .flat_map(|t| t.iter())
            .filter(|o| o.is_mem())
            .count()
    }

    /// Total synchronization operations across all threads.
    pub fn total_sync_ops(&self) -> usize {
        self.threads
            .iter()
            .flat_map(|t| t.iter())
            .filter(|o| o.is_sync())
            .count()
    }

    /// True if `a` lies in the shared range.
    #[cfg(test)]
    pub(crate) fn is_shared_addr(&self, a: Addr) -> bool {
        a >= self.shared_base && a < self.shared_end
    }

    /// Iterate `(thread_index, &op)` over every operation.
    pub(crate) fn iter_ops(&self) -> impl Iterator<Item = (usize, &Op)> {
        self.threads
            .iter()
            .enumerate()
            .flat_map(|(t, ops)| ops.iter().map(move |o| (t, o)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rce_common::LockId;

    fn tiny() -> Program {
        Program {
            name: "tiny".into(),
            threads: vec![
                vec![
                    Op::Read {
                        addr: Addr(0x100),
                        len: 8,
                    },
                    Op::Acquire { lock: LockId(0) },
                    Op::Write {
                        addr: Addr(0x108),
                        len: 8,
                    },
                    Op::Release { lock: LockId(0) },
                ],
                vec![Op::Work { cycles: 5 }],
            ],
            n_locks: 1,
            n_barriers: 0,
            shared_base: Addr(0x100),
            shared_end: Addr(0x200),
        }
    }

    #[test]
    fn counting_helpers() {
        let p = tiny();
        assert_eq!(p.n_threads(), 2);
        assert_eq!(p.total_ops(), 5);
        assert_eq!(p.total_mem_ops(), 2);
        assert_eq!(p.total_sync_ops(), 2);
    }

    #[test]
    fn shared_range_check() {
        let p = tiny();
        assert!(p.is_shared_addr(Addr(0x100)));
        assert!(p.is_shared_addr(Addr(0x1ff)));
        assert!(!p.is_shared_addr(Addr(0x200)));
        assert!(!p.is_shared_addr(Addr(0x0)));
    }

    #[test]
    fn iter_ops_tags_threads() {
        let p = tiny();
        let tags: Vec<usize> = p.iter_ops().map(|(t, _)| t).collect();
        assert_eq!(tags, vec![0, 0, 0, 0, 1]);
    }
}
