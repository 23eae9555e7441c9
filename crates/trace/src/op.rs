//! The per-thread operation alphabet.

use rce_common::json::{FromJson, JsonValue, ToJson};
use rce_common::{Addr, BarrierId, LockId};

/// One operation in a thread's trace.
///
/// Memory operations carry a byte address and length; the simulator
/// splits them into the lines/words they touch. Synchronization
/// operations (`Acquire`, `Release`, `Barrier`) are region boundaries.
/// `Work` models local computation between memory operations; it
/// advances the core's clock without touching memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Load `len` bytes at `addr`.
    Read {
        /// Byte address.
        addr: Addr,
        /// Access length in bytes (1..=64; may not cross a line).
        len: u32,
    },
    /// Store `len` bytes at `addr`.
    Write {
        /// Byte address.
        addr: Addr,
        /// Access length in bytes (1..=64; may not cross a line).
        len: u32,
    },
    /// Acquire a mutex (blocks until available). Region boundary.
    Acquire {
        /// Which lock.
        lock: LockId,
    },
    /// Release a held mutex. Region boundary.
    Release {
        /// Which lock.
        lock: LockId,
    },
    /// Global barrier: waits until every thread arrives. Region
    /// boundary.
    Barrier {
        /// Which barrier object.
        bar: BarrierId,
    },
    /// Local compute for `cycles` cycles; no memory traffic.
    Work {
        /// Duration in cycles.
        cycles: u32,
    },
}

impl Op {
    /// True for `Read`/`Write`.
    #[inline]
    pub(crate) fn is_mem(&self) -> bool {
        matches!(self, Op::Read { .. } | Op::Write { .. })
    }

    /// True for `Acquire`/`Release`/`Barrier` — the SFR boundaries.
    #[inline]
    pub(crate) fn is_sync(&self) -> bool {
        matches!(
            self,
            Op::Acquire { .. } | Op::Release { .. } | Op::Barrier { .. }
        )
    }

    /// The address touched, if a memory operation.
    #[inline]
    pub fn addr(&self) -> Option<Addr> {
        match self {
            Op::Read { addr, .. } | Op::Write { addr, .. } => Some(*addr),
            _ => None,
        }
    }

    /// True for writes.
    #[inline]
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Write { .. })
    }
}

// The interchange format is externally tagged, matching the serde
// convention the trace-file contract (`paper dump`, then `paper report`
// on the file) was pinned against:
// `{"Read": {"addr": 256, "len": 8}}`, `{"Acquire": {"lock": 0}}`.
impl ToJson for Op {
    fn to_json(&self) -> JsonValue {
        let (tag, body) = match self {
            Op::Read { addr, len } => (
                "Read",
                vec![
                    ("addr".to_string(), addr.to_json()),
                    ("len".to_string(), len.to_json()),
                ],
            ),
            Op::Write { addr, len } => (
                "Write",
                vec![
                    ("addr".to_string(), addr.to_json()),
                    ("len".to_string(), len.to_json()),
                ],
            ),
            Op::Acquire { lock } => ("Acquire", vec![("lock".to_string(), lock.to_json())]),
            Op::Release { lock } => ("Release", vec![("lock".to_string(), lock.to_json())]),
            Op::Barrier { bar } => ("Barrier", vec![("bar".to_string(), bar.to_json())]),
            Op::Work { cycles } => ("Work", vec![("cycles".to_string(), cycles.to_json())]),
        };
        JsonValue::Object(vec![(tag.to_string(), JsonValue::Object(body))])
    }
}

impl FromJson for Op {
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        let JsonValue::Object(pairs) = v else {
            return Err(format!("expected externally tagged op object, got {v}"));
        };
        let [(tag, body)] = pairs.as_slice() else {
            return Err(format!("op object must have exactly one tag, got {v}"));
        };
        match tag.as_str() {
            "Read" => Ok(Op::Read {
                addr: Addr::from_json(body.field("addr")?)?,
                len: u32::from_json(body.field("len")?)?,
            }),
            "Write" => Ok(Op::Write {
                addr: Addr::from_json(body.field("addr")?)?,
                len: u32::from_json(body.field("len")?)?,
            }),
            "Acquire" => Ok(Op::Acquire {
                lock: LockId::from_json(body.field("lock")?)?,
            }),
            "Release" => Ok(Op::Release {
                lock: LockId::from_json(body.field("lock")?)?,
            }),
            "Barrier" => Ok(Op::Barrier {
                bar: BarrierId::from_json(body.field("bar")?)?,
            }),
            "Work" => Ok(Op::Work {
                cycles: u32::from_json(body.field("cycles")?)?,
            }),
            other => Err(format!("unknown op tag `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_classification() {
        let r = Op::Read {
            addr: Addr(8),
            len: 8,
        };
        let w = Op::Write {
            addr: Addr(16),
            len: 8,
        };
        let a = Op::Acquire { lock: LockId(0) };
        let b = Op::Barrier { bar: BarrierId(0) };
        let k = Op::Work { cycles: 10 };
        assert!(r.is_mem() && w.is_mem());
        assert!(!a.is_mem() && !k.is_mem());
        assert!(a.is_sync() && b.is_sync());
        assert!(!r.is_sync() && !k.is_sync());
        assert!(w.is_write() && !r.is_write());
        assert_eq!(r.addr(), Some(Addr(8)));
        assert_eq!(k.addr(), None);
    }

    #[test]
    fn ops_use_externally_tagged_json() {
        let r = Op::Read {
            addr: Addr(256),
            len: 8,
        };
        assert_eq!(r.to_json().to_string(), r#"{"Read":{"addr":256,"len":8}}"#);
        let a = Op::Acquire { lock: LockId(0) };
        assert_eq!(a.to_json().to_string(), r#"{"Acquire":{"lock":0}}"#);
        for op in [
            r,
            a,
            Op::Write {
                addr: Addr(64),
                len: 4,
            },
            Op::Release { lock: LockId(3) },
            Op::Barrier { bar: BarrierId(1) },
            Op::Work { cycles: 17 },
        ] {
            assert_eq!(Op::from_json(&op.to_json()).unwrap(), op);
        }
        assert!(Op::from_json(&JsonValue::parse(r#"{"Jump":{}}"#).unwrap()).is_err());
    }
}
