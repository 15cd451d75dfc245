//! The IR type system: integers, booleans, and (possibly nested) arrays.

use std::fmt;
use std::sync::Arc;

/// A value type.
///
/// The IR is strongly typed, like the Java bytecode the paper targets:
/// array loads/stores are typed, and bounds checks only apply to array
/// references. Arrays may nest (`int[][]`), which the benchmark kernels
/// (e.g. the DCT-style `mpeg` kernel) use.
///
/// An array type shares its element type: every value, local and
/// instruction of one array type holds the same allocation, so cloning a
/// type never allocates.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// A 64-bit signed integer (the only numeric type).
    Int,
    /// A boolean produced by comparison instructions.
    Bool,
    /// A reference to an array with the given element type.
    Array(Arc<Type>),
}

impl Type {
    /// Convenience constructor for an array type.
    ///
    /// ```
    /// use abcd_ir::Type;
    /// assert_eq!(Type::array_of(Type::Int).to_string(), "int[]");
    /// ```
    pub fn array_of(elem: Type) -> Type {
        Type::Array(Arc::new(elem))
    }

    /// Returns the element type if `self` is an array type.
    pub fn elem(&self) -> Option<&Type> {
        match self {
            Type::Array(e) => Some(e),
            _ => None,
        }
    }

    /// Returns `true` if `self` is an array type.
    pub fn is_array(&self) -> bool {
        matches!(self, Type::Array(_))
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => write!(f, "int"),
            Type::Bool => write!(f, "bool"),
            Type::Array(e) => write!(f, "{e}[]"),
        }
    }
}

impl fmt::Debug for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nested_array() {
        let t = Type::array_of(Type::array_of(Type::Int));
        assert_eq!(t.to_string(), "int[][]");
        assert_eq!(t.elem().unwrap().to_string(), "int[]");
    }

    #[test]
    fn elem_of_scalar_is_none() {
        assert!(Type::Int.elem().is_none());
        assert!(!Type::Bool.is_array());
        assert!(Type::array_of(Type::Bool).is_array());
    }
}
