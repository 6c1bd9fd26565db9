//! Integer data types of the abstract code.

use std::fmt;

/// A data type in the abstract code.
///
/// The rewrite system of the paper operates purely on *types*: rule (19) turns a value
/// of type `UInt(2ω)` into two values of type `UInt(ω)`, and lowering repeats this until
/// every remaining `UInt` is the machine word type. `Flag` is the 1-bit type `δ¹` used
/// for carries, borrows, and comparison results in Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ty {
    /// An unsigned integer of the given bit-width (must be positive).
    UInt(u32),
    /// A single-bit value: a carry/borrow or a boolean comparison result (`δ¹`).
    Flag,
}

impl Ty {
    /// Bit-width of the type (1 for [`Ty::Flag`]).
    pub fn bits(&self) -> u32 {
        match self {
            Ty::UInt(w) => *w,
            Ty::Flag => 1,
        }
    }

    /// Returns `true` if this is a word type wider than `word_bits` and therefore still
    /// needs lowering.
    pub(crate) fn needs_lowering(&self, word_bits: u32) -> bool {
        matches!(self, Ty::UInt(w) if *w > word_bits)
    }

    /// The type of one half of this type (rule (19) right-hand side).
    ///
    /// # Panics
    ///
    /// Panics if the type is [`Ty::Flag`] or has an odd bit-width.
    pub fn half(&self) -> Ty {
        match self {
            Ty::UInt(w) => {
                assert!(w % 2 == 0, "cannot halve a type of odd width {w}");
                Ty::UInt(w / 2)
            }
            Ty::Flag => panic!("cannot halve a flag"),
        }
    }

    /// The type twice as wide as this one.
    ///
    /// # Panics
    ///
    /// Panics if the type is [`Ty::Flag`].
    pub fn double(&self) -> Ty {
        match self {
            Ty::UInt(w) => Ty::UInt(w * 2),
            Ty::Flag => panic!("cannot double a flag"),
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::UInt(w) => write!(f, "u{w}"),
            Ty::Flag => write!(f, "flag"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths() {
        assert_eq!(Ty::UInt(256).bits(), 256);
        assert_eq!(Ty::Flag.bits(), 1);
        assert_eq!(Ty::UInt(256).half(), Ty::UInt(128));
        assert_eq!(Ty::UInt(128).double(), Ty::UInt(256));
    }

    #[test]
    fn lowering_predicate() {
        assert!(Ty::UInt(128).needs_lowering(64));
        assert!(!Ty::UInt(64).needs_lowering(64));
        assert!(!Ty::UInt(32).needs_lowering(64));
        assert!(!Ty::Flag.needs_lowering(64));
    }

    #[test]
    #[should_panic(expected = "cannot halve")]
    fn halving_flag_panics() {
        Ty::Flag.half();
    }

    #[test]
    fn display() {
        assert_eq!(Ty::UInt(512).to_string(), "u512");
        assert_eq!(Ty::Flag.to_string(), "flag");
    }
}
