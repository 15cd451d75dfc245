//! Runtime traps (the exceptions whose precise semantics motivate the paper).

use abcd_ir::{CheckSite, FuncId};
use std::error::Error;
use std::fmt;

/// Why execution trapped.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TrapKind {
    /// A bounds check failed: `index` violated the checked bound of an
    /// array of length `len`.
    BoundsCheckFailed {
        /// The failing site.
        site: CheckSite,
        /// The out-of-bounds index.
        index: i64,
        /// The array length.
        len: i64,
    },
    /// An (unchecked) load or store went out of bounds. In unoptimized code
    /// this is unreachable — a `BoundsCheck` always precedes the access — so
    /// hitting it after optimization indicates an optimizer soundness bug.
    /// The differential test suite relies on this signal.
    UncheckedAccessOutOfBounds {
        /// The out-of-bounds index.
        index: i64,
        /// The array length.
        len: i64,
    },
    /// `new_array` with a negative length.
    NegativeArrayLength(i64),
    /// `new_array` with a length above [`MAX_ARRAY_LEN`](crate::MAX_ARRAY_LEN).
    ArrayTooLarge(i64),
    /// Integer division or remainder by zero.
    DivisionByZero,
    /// The call stack exceeded the configured limit.
    CallDepthExceeded,
    /// The instruction budget was exhausted (guards against accidental
    /// non-termination in generated test programs).
    StepLimitExceeded,
}

impl fmt::Display for TrapKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrapKind::BoundsCheckFailed { site, index, len } => {
                write!(f, "bounds check {site} failed: index {index}, length {len}")
            }
            TrapKind::UncheckedAccessOutOfBounds { index, len } => write!(
                f,
                "unchecked access out of bounds: index {index}, length {len} (optimizer bug?)"
            ),
            TrapKind::NegativeArrayLength(n) => write!(f, "negative array length {n}"),
            TrapKind::ArrayTooLarge(n) => write!(
                f,
                "array length {n} exceeds the maximum {}",
                crate::MAX_ARRAY_LEN
            ),
            TrapKind::DivisionByZero => write!(f, "division by zero"),
            TrapKind::CallDepthExceeded => write!(f, "call depth exceeded"),
            TrapKind::StepLimitExceeded => write!(f, "step limit exceeded"),
        }
    }
}

/// A trap, located in the function that raised it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Trap {
    /// What went wrong.
    pub kind: TrapKind,
    /// The function in which the trap occurred.
    pub func: FuncId,
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trap in {}: {}", self.func, self.kind)
    }
}

impl Error for Trap {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let t = Trap {
            kind: TrapKind::BoundsCheckFailed {
                site: CheckSite::new(3),
                index: 10,
                len: 5,
            },
            func: FuncId::new(0),
        };
        let s = t.to_string();
        assert!(s.contains("ck3"));
        assert!(s.contains("index 10"));
    }
}
