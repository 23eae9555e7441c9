//! Identifiers for the entities of a simulated execution.
//!
//! All are thin newtypes over integers so they can be used as array
//! indices without allocation while staying type-distinct.

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $inner:ty, $prefix:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub $inner);

        impl $name {
            /// The raw index value.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                $name(v)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// A hardware core. The simulator pins thread `i` to core `i`, so
    /// `CoreId` doubles as the scheduling index.
    CoreId,
    u16,
    "c"
);

id_type!(
    /// A software thread of the traced program.
    ThreadId,
    u16,
    "t"
);

id_type!(
    /// A synchronization-free region (SFR) instance. Region IDs are
    /// globally unique and monotonically increasing per core, so
    /// `(core, region)` pairs totally order a core's regions.
    RegionId,
    u64,
    "r"
);

id_type!(
    /// A program lock object (models a mutex address).
    LockId,
    u32,
    "lk"
);

id_type!(
    /// A program barrier object.
    BarrierId,
    u32,
    "br"
);

// Only locks and barriers are read back, inside trace files.
crate::impl_json_newtype!(to_json CoreId, RegionId);
crate::impl_json_newtype!(LockId, BarrierId);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(CoreId(3).to_string(), "c3");
        assert_eq!(ThreadId(1).to_string(), "t1");
        assert_eq!(RegionId(9).to_string(), "r9");
        assert_eq!(LockId(0).to_string(), "lk0");
        assert_eq!(BarrierId(2).to_string(), "br2");
    }

    #[test]
    fn ids_index_and_order() {
        assert_eq!(CoreId(5).index(), 5);
        assert!(RegionId(1) < RegionId(2));
    }
}
