//! Instructions, operators, π-guards, and block terminators.

use crate::entities::{Block, CheckSite, FuncId, Local, Value};
use std::fmt;

/// A binary arithmetic operator.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Signed division (traps on division by zero).
    Div,
    /// Signed remainder (traps on division by zero).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift (shift amount masked to 63).
    Shl,
    /// Arithmetic right shift (shift amount masked to 63).
    Shr,
}

impl BinOp {
    /// The textual mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
        }
    }
}

/// A unary operator.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnOp {
    /// Integer negation.
    Neg,
    /// Boolean negation.
    Not,
}

impl UnOp {
    /// The textual mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnOp::Neg => "Neg",
            UnOp::Not => "Not",
        }
    }
}

/// A comparison operator producing a [`Type::Bool`](crate::Type::Bool).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<` (signed)
    Lt,
    /// `<=` (signed)
    Le,
    /// `>` (signed)
    Gt,
    /// `>=` (signed)
    Ge,
}

impl CmpOp {
    /// The textual mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }

    /// The comparison that holds when this one does with operands swapped
    /// (`a < b` ⇔ `b > a`).
    pub fn swapped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// The comparison that holds exactly when this one does not
    /// (`!(a < b)` ⇔ `a >= b`).
    pub fn negated(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// Evaluates the comparison on concrete integers.
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// Which bound(s) a check instruction validates.
///
/// The paper treats lower- and upper-bound elimination as independent
/// problems (§2); [`CheckKind::Both`] is the merged unsigned comparison of
/// §7.2, produced by the `merge_checks` pass.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CheckKind {
    /// `index >= 0`
    Lower,
    /// `index <= array.length - 1`
    Upper,
    /// Both bounds via one unsigned comparison (§7.2).
    Both,
}

impl CheckKind {
    /// The textual mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CheckKind::Lower => "lower",
            CheckKind::Upper => "upper",
            CheckKind::Both => "both",
        }
    }
}

/// The provenance of a π-assignment in e-SSA form (§3 of the paper).
///
/// A π-assignment renames a value on a control-flow edge (or after a check)
/// so that the constraint generated there attaches to a fresh name. The guard
/// records exactly which constraint that is; the inequality-graph builder in
/// the `abcd` crate consumes it (constraint classes C4 and C5 of Table 1).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum PiGuard {
    /// The renamed value flows out of the conditional branch terminating
    /// `block`; `taken` tells which out-edge.
    ///
    /// The comparison itself is found through the branch: its condition is a
    /// [`InstKind::Compare`] whose operands include the π's input. Storing
    /// the block (rather than the operand values) keeps the guard stable
    /// under SSA renaming and lets the inequality-graph builder pair the πs
    /// of the two comparison operands on the same edge (Table 1, C4).
    Branch {
        /// The block whose terminator generates the constraint.
        block: Block,
        /// `true` for the then-edge, `false` for the else-edge.
        taken: bool,
    },
    /// The renamed value is the index of a bounds check that succeeded
    /// (constraint class C5): after `check A[i]`, `i ≤ A.length − 1`
    /// (upper) or `i ≥ 0` (lower).
    Check {
        /// The site of the generating check.
        site: CheckSite,
        /// The checked array reference.
        array: Value,
        /// Which bound the check validated.
        kind: CheckKind,
    },
}

/// An instruction: an operation plus an optional result value.
#[derive(Clone, PartialEq, Debug)]
pub struct Inst {
    /// What the instruction does.
    pub kind: InstKind,
    /// The value the instruction defines, if any.
    pub result: Option<Value>,
}

/// The operation an instruction performs.
#[derive(Clone, PartialEq, Debug)]
pub enum InstKind {
    /// An integer constant.
    Const(i64),
    /// A boolean constant.
    BoolConst(bool),
    /// A unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        arg: Value,
    },
    /// A binary arithmetic operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// A comparison producing a boolean.
    Compare {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// Allocates a zero-initialized array of the given element type.
    NewArray {
        /// Element type of the allocated array.
        elem: crate::Type,
        /// Number of elements (traps if negative).
        len: Value,
    },
    /// Reads the length of an array (constraint class C1 when assigned).
    ArrayLen {
        /// Array reference.
        array: Value,
    },
    /// Loads `array[index]`. The load itself performs **no** check; safety
    /// relies on the preceding check instructions, exactly as in the paper's
    /// IR where checks are separate, removable instructions.
    Load {
        /// Array reference.
        array: Value,
        /// Element index.
        index: Value,
    },
    /// Stores `value` into `array[index]` (unchecked; see [`InstKind::Load`]).
    Store {
        /// Array reference.
        array: Value,
        /// Element index.
        index: Value,
        /// Value stored.
        value: Value,
    },
    /// An array bounds check: traps if the index violates `kind`.
    ///
    /// This is the instruction ABCD removes. Each check carries a stable
    /// [`CheckSite`] for profiling and reporting.
    BoundsCheck {
        /// Stable site identifier.
        site: CheckSite,
        /// Checked array reference.
        array: Value,
        /// Checked index.
        index: Value,
        /// Which bound to validate.
        kind: CheckKind,
    },
    /// A *speculative* (hoisted) bounds check inserted by partial-redundancy
    /// elimination (§6.2). Instead of trapping it records the failure in a
    /// per-activation flag for `site`; the residual [`InstKind::TrapIfFlagged`]
    /// at the original program point raises the exception, preserving precise
    /// exception semantics.
    SpecCheck {
        /// Site of the original (optimized) check.
        site: CheckSite,
        /// Checked array reference.
        array: Value,
        /// Checked index.
        index: Value,
        /// Which bound to validate.
        kind: CheckKind,
    },
    /// Traps iff a [`InstKind::SpecCheck`] for `site` failed on this
    /// activation **and** the original bound is actually violated here
    /// (re-validated against `array`/`index`, handling the speculative case
    /// where the hoisted check failed spuriously, §6.2).
    TrapIfFlagged {
        /// Site of the original check.
        site: CheckSite,
        /// Array of the original check.
        array: Value,
        /// Index of the original check.
        index: Value,
        /// Bound of the original check.
        kind: CheckKind,
    },
    /// An SSA φ: selects the argument corresponding to the predecessor block
    /// the edge was taken from. Arguments are keyed by predecessor.
    Phi {
        /// `(predecessor, value)` pairs, one per CFG predecessor.
        args: Vec<(Block, Value)>,
    },
    /// An e-SSA π-assignment: a copy of `input` valid only where the
    /// constraint described by `guard` holds (§3).
    Pi {
        /// The renamed value.
        input: Value,
        /// Why the rename generates a constraint.
        guard: PiGuard,
    },
    /// A plain copy (used by tests and as a normalization target).
    Copy {
        /// Copied value.
        arg: Value,
    },
    /// A direct call.
    Call {
        /// Callee.
        func: FuncId,
        /// Actual arguments.
        args: Vec<Value>,
    },
    /// Emits a value to the VM's output stream (used by examples and for
    /// differential testing of optimized code).
    Output {
        /// Emitted value.
        arg: Value,
    },
    /// Reads a mutable local slot (pre-SSA form only).
    GetLocal {
        /// The slot.
        local: Local,
    },
    /// Writes a mutable local slot (pre-SSA form only; has no result).
    SetLocal {
        /// The slot.
        local: Local,
        /// Stored value.
        value: Value,
    },
}

impl InstKind {
    /// Calls `f` on every value this instruction uses.
    pub fn for_each_use(&self, mut f: impl FnMut(Value)) {
        match self {
            InstKind::Const(_) | InstKind::BoolConst(_) | InstKind::GetLocal { .. } => {}
            InstKind::Unary { arg, .. }
            | InstKind::Copy { arg }
            | InstKind::Output { arg }
            | InstKind::Pi { input: arg, .. } => f(*arg),
            InstKind::Binary { lhs, rhs, .. } | InstKind::Compare { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            InstKind::NewArray { len, .. } => f(*len),
            InstKind::ArrayLen { array } => f(*array),
            InstKind::Load { array, index } => {
                f(*array);
                f(*index);
            }
            InstKind::Store {
                array,
                index,
                value,
            } => {
                f(*array);
                f(*index);
                f(*value);
            }
            InstKind::BoundsCheck { array, index, .. }
            | InstKind::SpecCheck { array, index, .. }
            | InstKind::TrapIfFlagged { array, index, .. } => {
                f(*array);
                f(*index);
            }
            InstKind::Phi { args } => {
                for (_, v) in args {
                    f(*v);
                }
            }
            InstKind::Call { args, .. } => {
                for v in args {
                    f(*v);
                }
            }
            InstKind::SetLocal { value, .. } => f(*value),
        }
    }

    /// Rewrites every used value through `f` (including π-guard operands).
    pub fn map_uses(&mut self, mut f: impl FnMut(Value) -> Value) {
        match self {
            InstKind::Const(_) | InstKind::BoolConst(_) | InstKind::GetLocal { .. } => {}
            InstKind::Unary { arg, .. } | InstKind::Copy { arg } | InstKind::Output { arg } => {
                *arg = f(*arg)
            }
            InstKind::Pi { input, guard } => {
                *input = f(*input);
                if let PiGuard::Check { array, .. } = guard {
                    *array = f(*array);
                }
            }
            InstKind::Binary { lhs, rhs, .. } | InstKind::Compare { lhs, rhs, .. } => {
                *lhs = f(*lhs);
                *rhs = f(*rhs);
            }
            InstKind::NewArray { len, .. } => *len = f(*len),
            InstKind::ArrayLen { array } => *array = f(*array),
            InstKind::Load { array, index } => {
                *array = f(*array);
                *index = f(*index);
            }
            InstKind::Store {
                array,
                index,
                value,
            } => {
                *array = f(*array);
                *index = f(*index);
                *value = f(*value);
            }
            InstKind::BoundsCheck { array, index, .. }
            | InstKind::SpecCheck { array, index, .. }
            | InstKind::TrapIfFlagged { array, index, .. } => {
                *array = f(*array);
                *index = f(*index);
            }
            InstKind::Phi { args } => {
                for (_, v) in args {
                    *v = f(*v);
                }
            }
            InstKind::Call { args, .. } => {
                for v in args {
                    *v = f(*v);
                }
            }
            InstKind::SetLocal { value, .. } => *value = f(*value),
        }
    }

    /// Returns `true` for instructions with no side effect and no result
    /// dependence on memory, i.e. candidates for dead-code elimination when
    /// their result is unused.
    pub fn is_pure(&self) -> bool {
        matches!(
            self,
            InstKind::Const(_)
                | InstKind::BoolConst(_)
                | InstKind::Unary { .. }
                | InstKind::Compare { .. }
                | InstKind::ArrayLen { .. }
                | InstKind::Phi { .. }
                | InstKind::Pi { .. }
                | InstKind::Copy { .. }
        ) || matches!(
            self,
            // Add/Sub/Mul and bitwise ops cannot trap; Div/Rem can.
            InstKind::Binary { op, .. } if !matches!(op, BinOp::Div | BinOp::Rem)
        )
    }

    /// Returns `true` if this is any flavor of check instruction
    /// (regular, speculative, or residual trap).
    pub fn is_check(&self) -> bool {
        matches!(
            self,
            InstKind::BoundsCheck { .. }
                | InstKind::SpecCheck { .. }
                | InstKind::TrapIfFlagged { .. }
        )
    }
}

/// The control-flow transfer ending a basic block.
#[derive(Clone, PartialEq, Debug)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(Block),
    /// Two-way conditional branch on a boolean value.
    Branch {
        /// The boolean condition.
        cond: Value,
        /// Destination when `cond` is true.
        then_dst: Block,
        /// Destination when `cond` is false.
        else_dst: Block,
    },
    /// Function return with an optional value.
    Return(Option<Value>),
}

impl Terminator {
    /// Calls `f` on every value the terminator uses.
    pub fn for_each_use(&self, mut f: impl FnMut(Value)) {
        match self {
            Terminator::Jump(_) => {}
            Terminator::Branch { cond, .. } => f(*cond),
            Terminator::Return(v) => {
                if let Some(v) = v {
                    f(*v)
                }
            }
        }
    }

    /// Rewrites every used value through `f`.
    pub fn map_uses(&mut self, mut f: impl FnMut(Value) -> Value) {
        match self {
            Terminator::Jump(_) => {}
            Terminator::Branch { cond, .. } => *cond = f(*cond),
            Terminator::Return(v) => {
                if let Some(v) = v {
                    *v = f(*v)
                }
            }
        }
    }

    /// Rewrites every successor block through `f`.
    pub fn map_successors(&mut self, mut f: impl FnMut(Block) -> Block) {
        match self {
            Terminator::Jump(dst) => *dst = f(*dst),
            Terminator::Branch {
                then_dst, else_dst, ..
            } => {
                *then_dst = f(*then_dst);
                *else_dst = f(*else_dst);
            }
            Terminator::Return(_) => {}
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

impl fmt::Display for CheckKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_negation_is_involutive() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.negated().negated(), op);
            assert_eq!(op.swapped().swapped(), op);
        }
    }

    #[test]
    fn cmp_eval_agrees_with_negation() {
        let cases = [(3, 5), (5, 3), (4, 4), (-1, 0), (i64::MIN, i64::MAX)];
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for (a, b) in cases {
                assert_eq!(op.eval(a, b), !op.negated().eval(a, b), "{op:?} {a} {b}");
                assert_eq!(op.eval(a, b), op.swapped().eval(b, a), "{op:?} {a} {b}");
            }
        }
    }

    #[test]
    fn for_each_use_covers_store() {
        let k = InstKind::Store {
            array: Value::new(0),
            index: Value::new(1),
            value: Value::new(2),
        };
        let mut seen = Vec::new();
        k.for_each_use(|v| seen.push(v.index()));
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn map_uses_rewrites_phi_and_pi_guard() {
        let mut phi = InstKind::Phi {
            args: vec![
                (Block::new(0), Value::new(4)),
                (Block::new(1), Value::new(5)),
            ],
        };
        phi.map_uses(|v| Value::new(v.index() + 10));
        let mut seen = Vec::new();
        phi.for_each_use(|v| seen.push(v.index()));
        assert_eq!(seen, vec![14, 15]);

        let mut pi = InstKind::Pi {
            input: Value::new(1),
            guard: PiGuard::Check {
                site: CheckSite::new(0),
                array: Value::new(9),
                kind: CheckKind::Upper,
            },
        };
        pi.map_uses(|v| Value::new(v.index() + 1));
        match pi {
            InstKind::Pi {
                input,
                guard: PiGuard::Check { array, .. },
            } => {
                assert_eq!(input.index(), 2);
                assert_eq!(array.index(), 10);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn purity_classification() {
        assert!(InstKind::Const(3).is_pure());
        assert!(InstKind::Binary {
            op: BinOp::Add,
            lhs: Value::new(0),
            rhs: Value::new(1)
        }
        .is_pure());
        assert!(!InstKind::Binary {
            op: BinOp::Div,
            lhs: Value::new(0),
            rhs: Value::new(1)
        }
        .is_pure());
        assert!(!InstKind::Store {
            array: Value::new(0),
            index: Value::new(1),
            value: Value::new(2)
        }
        .is_pure());
        assert!(InstKind::BoundsCheck {
            site: CheckSite::new(0),
            array: Value::new(0),
            index: Value::new(1),
            kind: CheckKind::Upper
        }
        .is_check());
    }
}
