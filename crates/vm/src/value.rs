//! Runtime values and the array heap.

use abcd_ir::Type;
use std::fmt;

/// A runtime value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RtVal {
    /// A 64-bit integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// A reference to a heap array.
    Ref(ArrayRef),
}

impl RtVal {
    /// The integer payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not an integer (the verifier makes this
    /// unreachable for verified programs).
    pub fn as_int(self) -> i64 {
        match self {
            RtVal::Int(i) => i,
            v => panic!("expected int, found {v:?}"),
        }
    }

    /// The boolean payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a boolean.
    pub fn as_bool(self) -> bool {
        match self {
            RtVal::Bool(b) => b,
            v => panic!("expected bool, found {v:?}"),
        }
    }

    /// The array reference payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not an array reference.
    pub fn as_ref(self) -> ArrayRef {
        match self {
            RtVal::Ref(r) => r,
            v => panic!("expected array ref, found {v:?}"),
        }
    }
}

impl fmt::Display for RtVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtVal::Int(i) => write!(f, "{i}"),
            RtVal::Bool(b) => write!(f, "{b}"),
            RtVal::Ref(r) => write!(f, "@{}", r.0),
        }
    }
}

/// The longest array a `new_array` may allocate: 2³¹ − 1 elements, Java's
/// array length limit and so the paper's setting. A longer one traps with
/// [`TrapKind::ArrayTooLarge`](crate::TrapKind::ArrayTooLarge).
pub const MAX_ARRAY_LEN: i64 = (1 << 31) - 1;

/// An opaque handle to a heap array.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ArrayRef(pub(crate) usize);

/// A heap-allocated array.
#[derive(Clone, Debug)]
pub struct HeapArray {
    /// Element type.
    pub elem: Type,
    /// Element storage.
    pub data: Vec<RtVal>,
}

/// The array heap: a growing arena of arrays (no deallocation; programs in
/// this reproduction are short-lived benchmark kernels).
#[derive(Clone, Debug, Default)]
pub struct Heap {
    arrays: Vec<HeapArray>,
}

impl Heap {
    /// Allocates an array of `len` elements of type `elem`, zero/default
    /// initialized (`0`, `false`, or a zero-length inner array for nested
    /// array types — matching Java's null-free default of this IR: nested
    /// arrays start as empty arrays rather than null references).
    pub fn alloc(&mut self, elem: &Type, len: usize) -> ArrayRef {
        let default = match elem {
            Type::Int => RtVal::Int(0),
            Type::Bool => RtVal::Bool(false),
            Type::Array(inner) => {
                // Allocate one shared empty inner array to stand for the
                // default; loads of unset slots see a zero-length array.
                let empty = self.alloc(inner, 0);
                RtVal::Ref(empty)
            }
        };
        let r = ArrayRef(self.arrays.len());
        self.arrays.push(HeapArray {
            elem: elem.clone(),
            data: vec![default; len],
        });
        r
    }

    /// The array behind `r`.
    pub fn get(&self, r: ArrayRef) -> &HeapArray {
        &self.arrays[r.0]
    }

    /// Mutable access to the array behind `r`.
    pub fn get_mut(&mut self, r: ArrayRef) -> &mut HeapArray {
        &mut self.arrays[r.0]
    }

    /// The length of the array behind `r`.
    pub fn len_of(&self, r: ArrayRef) -> usize {
        self.arrays[r.0].data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_int_array_is_zeroed() {
        let mut h = Heap::new_for_test();
        let r = h.alloc(&Type::Int, 3);
        assert_eq!(h.len_of(r), 3);
        assert_eq!(h.get(r).data, vec![RtVal::Int(0); 3]);
    }

    #[test]
    fn nested_array_defaults_to_empty_inner() {
        let mut h = Heap::new_for_test();
        let r = h.alloc(&Type::array_of(Type::Int), 2);
        let inner = h.get(r).data[0].as_ref();
        assert_eq!(h.len_of(inner), 0);
    }

    #[test]
    #[should_panic(expected = "expected int")]
    fn as_int_of_bool_panics() {
        let _ = RtVal::Bool(true).as_int();
    }

    impl Heap {
        fn new_for_test() -> Heap {
            Heap::default()
        }
    }
}
