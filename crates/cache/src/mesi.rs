//! MESI coherence states and legal-transition helpers.
//!
//! The engines in `rce-core` drive these states; this module only
//! encodes what the states mean so invariants can be asserted in one
//! place.

/// Classic MESI stable states for a line in a private cache, plus the
/// optional Owned state used when the MOESI extension is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MesiState {
    /// Modified: this cache holds the only, dirty copy.
    M,
    /// Owned (MOESI only): this cache holds a dirty copy *and* other
    /// caches hold clean shared copies; this cache is responsible for
    /// supplying data and writing back on eviction.
    O,
    /// Exclusive: this cache holds the only, clean copy.
    E,
    /// Shared: possibly other clean copies exist.
    S,
    /// Invalid.
    #[default]
    I,
}

impl MesiState {
    /// Can a write be performed locally without coherence actions?
    #[inline]
    pub fn can_write(self) -> bool {
        matches!(self, MesiState::M | MesiState::E)
    }

    /// Does this state imply the line may be dirty?
    #[inline]
    pub fn may_be_dirty(self) -> bool {
        matches!(self, MesiState::M | MesiState::O)
    }

    /// Display letter.
    pub(crate) fn letter(self) -> char {
        match self {
            MesiState::M => 'M',
            MesiState::O => 'O',
            MesiState::E => 'E',
            MesiState::S => 'S',
            MesiState::I => 'I',
        }
    }
}

impl std::fmt::Display for MesiState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.letter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permissions() {
        assert!(MesiState::M.can_write() && MesiState::E.can_write());
        assert!(!MesiState::S.can_write() && !MesiState::O.can_write());
        assert!(!MesiState::I.can_write());
    }

    #[test]
    fn dirtiness() {
        assert!(MesiState::M.may_be_dirty());
        assert!(MesiState::O.may_be_dirty());
        assert!(!MesiState::E.may_be_dirty());
        assert!(!MesiState::S.may_be_dirty());
        assert_eq!(MesiState::O.letter(), 'O');
    }

    #[test]
    fn default_is_invalid() {
        assert_eq!(MesiState::default(), MesiState::I);
        assert_eq!(MesiState::M.to_string(), "M");
    }
}
