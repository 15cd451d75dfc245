//! Function bodies: arenas of values, instructions, and basic blocks.

use crate::entities::{Block, CheckSite, InstId, Local, Value};
use crate::inst::{Inst, InstKind, Terminator};
use crate::types::Type;
use std::sync::Arc;

/// Where a [`Value`] comes from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ValueDef {
    /// The `index`-th function parameter.
    Param(u32),
    /// The result of an instruction.
    Inst(InstId),
}

/// A basic block: an ordered list of instructions plus a terminator.
#[derive(Debug, Default)]
pub struct BlockData {
    pub(crate) insts: Vec<InstId>,
    pub(crate) term: Option<Terminator>,
}

impl Clone for BlockData {
    #[inline]
    fn clone(&self) -> BlockData {
        BlockData {
            insts: self.insts.clone(),
            term: self.term.clone(),
        }
    }

    /// Reuses the instruction list's capacity.
    #[inline]
    fn clone_from(&mut self, source: &BlockData) {
        self.insts.clone_from(&source.insts);
        self.term.clone_from(&source.term);
    }
}

impl BlockData {
    /// The instructions of the block, in order.
    pub fn insts(&self) -> &[InstId] {
        &self.insts
    }

    /// The block terminator.
    ///
    /// # Panics
    ///
    /// Panics if the block has not been terminated yet (only possible during
    /// construction; [`crate::verify_function`] rejects such functions).
    pub fn terminator(&self) -> &Terminator {
        self.term.as_ref().expect("block missing terminator")
    }

    /// The terminator if the block has one.
    pub fn terminator_opt(&self) -> Option<&Terminator> {
        self.term.as_ref()
    }
}

/// A function: parameters, local slots, and a CFG of basic blocks.
///
/// The arenas are append-only; passes that delete instructions remove them
/// from the owning block's instruction list (the arena slot simply becomes
/// unreferenced). All iteration goes through block lists, so unreferenced
/// slots are invisible.
#[derive(Debug)]
pub struct Function {
    name: Arc<str>,
    param_types: Vec<Type>,
    ret_type: Option<Type>,
    local_types: Vec<Type>,
    pub(crate) values: Vec<ValueDef>,
    pub(crate) value_types: Vec<Type>,
    pub(crate) insts: Vec<Inst>,
    pub(crate) blocks: Vec<BlockData>,
    entry: Block,
    next_check_site: u32,
}

impl Clone for Function {
    #[inline]
    fn clone(&self) -> Function {
        Function {
            name: self.name.clone(),
            param_types: self.param_types.clone(),
            ret_type: self.ret_type.clone(),
            local_types: self.local_types.clone(),
            values: self.values.clone(),
            value_types: self.value_types.clone(),
            insts: self.insts.clone(),
            blocks: self.blocks.clone(),
            entry: self.entry,
            next_check_site: self.next_check_site,
        }
    }

    /// Field by field, reusing every arena's capacity and each block's
    /// instruction list: a pooled copy that has held functions of the
    /// source's size allocates only for call and φ argument lists.
    fn clone_from(&mut self, source: &Function) {
        self.name.clone_from(&source.name);
        self.param_types.clone_from(&source.param_types);
        self.ret_type.clone_from(&source.ret_type);
        self.local_types.clone_from(&source.local_types);
        self.values.clone_from(&source.values);
        self.value_types.clone_from(&source.value_types);
        self.insts.clone_from(&source.insts);
        self.blocks.clone_from(&source.blocks);
        self.entry = source.entry;
        self.next_check_site = source.next_check_site;
    }
}

impl Function {
    /// Creates an empty function with one (entry) block.
    ///
    /// Parameters become values `v0..vN` in order.
    pub fn new(name: impl Into<Arc<str>>, param_types: Vec<Type>, ret_type: Option<Type>) -> Self {
        let mut f = Function {
            name: name.into(),
            values: Vec::new(),
            value_types: Vec::new(),
            param_types: param_types.clone(),
            ret_type,
            local_types: Vec::new(),
            insts: Vec::new(),
            blocks: vec![BlockData::default()],
            entry: Block::new(0),
            next_check_site: 0,
        };
        for (i, ty) in param_types.iter().enumerate() {
            f.values.push(ValueDef::Param(i as u32));
            f.value_types.push(ty.clone());
        }
        f
    }

    /// Re-initializes `self` as [`Function::new`] would, keeping the
    /// capacity of every arena.
    pub(crate) fn reset(&mut self, name: Arc<str>, param_types: Vec<Type>, ret_type: Option<Type>) {
        self.name = name;
        self.local_types.clear();
        self.values.clear();
        self.value_types.clear();
        self.insts.clear();
        self.blocks.clear();
        self.blocks.push(BlockData::default());
        self.entry = Block::new(0);
        self.next_check_site = 0;
        for (i, ty) in param_types.iter().enumerate() {
            self.values.push(ValueDef::Param(i as u32));
            self.value_types.push(ty.clone());
        }
        self.param_types = param_types;
        self.ret_type = ret_type;
    }

    /// Moves the function out into exactly-sized arenas (one allocation
    /// each), leaving `self` an empty shell whose arenas keep their
    /// capacity for the next [`reset`](Function::reset).
    pub(crate) fn take_compact(&mut self) -> Function {
        Function {
            name: self.name.clone(),
            param_types: std::mem::take(&mut self.param_types),
            ret_type: self.ret_type.take(),
            local_types: self.local_types.drain(..).collect(),
            values: self.values.drain(..).collect(),
            value_types: self.value_types.drain(..).collect(),
            insts: self.insts.drain(..).collect(),
            blocks: self.blocks.drain(..).collect(),
            entry: self.entry,
            next_check_site: self.next_check_site,
        }
    }

    /// The function's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The function's name as a new handle on the string it owns: a
    /// reference-count bump, so reports and incidents name the function
    /// without copying the text.
    pub fn name_arc(&self) -> Arc<str> {
        self.name.clone()
    }

    /// Renames the function (used when cloning specialized versions).
    pub fn set_name(&mut self, name: impl Into<Arc<str>>) {
        self.name = name.into();
    }

    /// Parameter types, in order.
    pub fn param_types(&self) -> &[Type] {
        &self.param_types
    }

    /// The return type, or `None` for a void function.
    pub fn ret_type(&self) -> Option<&Type> {
        self.ret_type.as_ref()
    }

    /// The value naming the `index`-th parameter.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn param(&self, index: usize) -> Value {
        assert!(index < self.param_types.len(), "parameter out of range");
        Value::new(index)
    }

    /// Number of parameters.
    pub fn param_count(&self) -> usize {
        self.param_types.len()
    }

    /// The entry block.
    pub fn entry(&self) -> Block {
        self.entry
    }

    /// Number of basic blocks ever created (dense index space).
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Iterates over all block ids in creation order.
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = Block> + DoubleEndedIterator + '_ {
        (0..self.blocks.len()).map(Block::new)
    }

    /// The data of block `b`.
    pub fn block(&self, b: Block) -> &BlockData {
        &self.blocks[b.index()]
    }

    /// Number of values (dense index space).
    pub fn value_count(&self) -> usize {
        self.values.len()
    }

    /// Iterates over all values.
    pub fn values(&self) -> impl ExactSizeIterator<Item = Value> + DoubleEndedIterator + '_ {
        (0..self.values.len()).map(Value::new)
    }

    /// The definition site of `v`.
    pub fn value_def(&self, v: Value) -> ValueDef {
        self.values[v.index()]
    }

    /// The type of `v`.
    pub fn value_type(&self, v: Value) -> &Type {
        &self.value_types[v.index()]
    }

    /// The instruction `id`.
    pub fn inst(&self, id: InstId) -> &Inst {
        &self.insts[id.index()]
    }

    /// Number of instructions ever created (dense index space, including
    /// unlinked ones).
    pub fn inst_count(&self) -> usize {
        self.insts.len()
    }

    /// Mutable access to instruction `id`.
    pub fn inst_mut(&mut self, id: InstId) -> &mut Inst {
        &mut self.insts[id.index()]
    }

    /// Declares a new local slot of type `ty` (pre-SSA form).
    pub fn new_local(&mut self, ty: Type) -> Local {
        let l = Local::new(self.local_types.len());
        self.local_types.push(ty);
        l
    }

    /// Number of local slots.
    pub fn local_count(&self) -> usize {
        self.local_types.len()
    }

    /// The type of local `l`.
    pub fn local_type(&self, l: Local) -> &Type {
        &self.local_types[l.index()]
    }

    /// Allocates a fresh bounds-check site id.
    pub fn new_check_site(&mut self) -> CheckSite {
        let s = CheckSite::new(self.next_check_site as usize);
        self.next_check_site += 1;
        s
    }

    /// Number of check sites ever allocated.
    pub fn check_site_count(&self) -> usize {
        self.next_check_site as usize
    }

    /// Creates a new, empty, unterminated block.
    pub fn new_block(&mut self) -> Block {
        let b = Block::new(self.blocks.len());
        self.blocks.push(BlockData::default());
        b
    }

    /// Creates an instruction (not yet placed in any block). If `result_ty`
    /// is `Some`, a fresh result value of that type is allocated.
    pub fn create_inst(&mut self, kind: InstKind, result_ty: Option<Type>) -> InstId {
        let id = InstId::new(self.insts.len());
        let result = result_ty.map(|ty| {
            let v = Value::new(self.values.len());
            self.values.push(ValueDef::Inst(id));
            self.value_types.push(ty);
            v
        });
        self.insts.push(Inst { kind, result });
        id
    }

    /// Appends instruction `id` to block `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is already terminated.
    pub fn append_inst(&mut self, b: Block, id: InstId) {
        assert!(
            self.blocks[b.index()].term.is_none(),
            "appending to terminated block {b}"
        );
        self.blocks[b.index()].insts.push(id);
    }

    /// Inserts instruction `id` into block `b` at position `pos`.
    pub fn insert_inst(&mut self, b: Block, pos: usize, id: InstId) {
        self.blocks[b.index()].insts.insert(pos, id);
    }

    /// Removes (unlinks) instruction `id` from block `b`. The arena slot
    /// remains but is no longer reachable. Returns `true` if it was present.
    pub fn remove_inst(&mut self, b: Block, id: InstId) -> bool {
        let insts = &mut self.blocks[b.index()].insts;
        if let Some(pos) = insts.iter().position(|&i| i == id) {
            insts.remove(pos);
            true
        } else {
            false
        }
    }

    /// Unlinks every instruction of block `b` for which `keep` returns
    /// `false`, in one pass that keeps the order of the rest.
    pub fn retain_insts(&mut self, b: Block, keep: impl FnMut(&InstId) -> bool) {
        self.blocks[b.index()].insts.retain(keep);
    }

    /// Replaces the instruction list of block `b` wholesale.
    pub fn set_block_insts(&mut self, b: Block, insts: Vec<InstId>) {
        self.blocks[b.index()].insts = insts;
    }

    /// Empties block `b`: removes all instructions **and** the terminator,
    /// detaching its out-edges from the CFG. Used to neutralize unreachable
    /// blocks (the verifier permits unreachable, unterminated blocks).
    pub fn clear_block(&mut self, b: Block) {
        self.blocks[b.index()] = BlockData::default();
    }

    /// Sets (or replaces) the terminator of block `b`.
    pub fn set_terminator(&mut self, b: Block, term: Terminator) {
        self.blocks[b.index()].term = Some(term);
    }

    /// Returns `true` if block `b` has a terminator.
    pub fn is_terminated(&self, b: Block) -> bool {
        self.blocks[b.index()].term.is_some()
    }

    /// Rewrites every value use in the function through `f`
    /// (instructions, π-guards, and terminators).
    pub fn map_all_uses(&mut self, mut f: impl FnMut(Value) -> Value) {
        // Iterate via block lists so unlinked instructions are skipped.
        for data in &mut self.blocks {
            for id in &data.insts {
                self.insts[id.index()].kind.map_uses(&mut f);
            }
            if let Some(term) = &mut data.term {
                term.map_uses(&mut f);
            }
        }
    }

    /// Convenience: the block and position of every instruction, computed
    /// from block lists. Useful for passes that need def locations.
    pub fn inst_locations(&self) -> Vec<Option<(Block, usize)>> {
        let mut loc = vec![None; self.insts.len()];
        for b in self.blocks() {
            for (pos, &id) in self.block(b).insts().iter().enumerate() {
                loc[id.index()] = Some((b, pos));
            }
        }
        loc
    }

    /// Counts the check instructions currently linked into blocks, by kind:
    /// `(bounds_checks, spec_checks, traps)`.
    pub fn count_checks(&self) -> (usize, usize, usize) {
        let mut n = (0, 0, 0);
        for b in self.blocks() {
            for &id in self.block(b).insts() {
                match &self.inst(id).kind {
                    InstKind::BoundsCheck { .. } => n.0 += 1,
                    InstKind::SpecCheck { .. } => n.1 += 1,
                    InstKind::TrapIfFlagged { .. } => n.2 += 1,
                    _ => {}
                }
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::BinOp;

    fn sample() -> Function {
        Function::new("f", vec![Type::Int, Type::Int], Some(Type::Int))
    }

    #[test]
    fn params_become_values() {
        let f = sample();
        assert_eq!(f.param_count(), 2);
        assert_eq!(f.param(0), Value::new(0));
        assert_eq!(f.value_def(Value::new(1)), ValueDef::Param(1));
        assert_eq!(*f.value_type(Value::new(0)), Type::Int);
    }

    #[test]
    fn create_and_append_inst() {
        let mut f = sample();
        let id = f.create_inst(
            InstKind::Binary {
                op: BinOp::Add,
                lhs: f.param(0),
                rhs: f.param(1),
            },
            Some(Type::Int),
        );
        let entry = f.entry();
        f.append_inst(entry, id);
        let result = f.inst(id).result.unwrap();
        assert_eq!(f.value_def(result), ValueDef::Inst(id));
        f.set_terminator(entry, Terminator::Return(Some(result)));
        assert_eq!(f.block(entry).insts(), &[id]);
        assert!(f.is_terminated(entry));
    }

    #[test]
    #[should_panic(expected = "appending to terminated block")]
    fn append_after_terminator_panics() {
        let mut f = sample();
        let entry = f.entry();
        f.set_terminator(entry, Terminator::Return(None));
        let id = f.create_inst(InstKind::Const(1), Some(Type::Int));
        f.append_inst(entry, id);
    }

    #[test]
    fn remove_inst_unlinks() {
        let mut f = sample();
        let entry = f.entry();
        let id = f.create_inst(InstKind::Const(1), Some(Type::Int));
        f.append_inst(entry, id);
        assert!(f.remove_inst(entry, id));
        assert!(!f.remove_inst(entry, id));
        assert!(f.block(entry).insts().is_empty());
    }

    #[test]
    fn retain_insts_filters_in_order() {
        let mut f = sample();
        let entry = f.entry();
        let ids: Vec<InstId> = (0..4)
            .map(|c| {
                let id = f.create_inst(InstKind::Const(c), Some(Type::Int));
                f.append_inst(entry, id);
                id
            })
            .collect();
        assert_eq!(f.inst_count(), 4);
        f.retain_insts(entry, |id| id.index() % 2 == 1);
        assert_eq!(f.block(entry).insts(), &[ids[1], ids[3]]);
    }

    #[test]
    fn clone_from_copies_every_field() {
        let mut f = sample();
        let entry = f.entry();
        let next = f.new_block();
        let sum = f.create_inst(
            InstKind::Binary {
                op: BinOp::Add,
                lhs: f.param(0),
                rhs: f.param(1),
            },
            Some(Type::Int),
        );
        f.append_inst(entry, sum);
        let r = f.inst(sum).result;
        let phi = f.create_inst(
            InstKind::Phi {
                args: vec![(entry, r.unwrap())],
            },
            Some(Type::Int),
        );
        f.append_inst(next, phi);
        f.new_local(Type::Int);
        f.new_check_site();
        f.set_terminator(entry, Terminator::Jump(next));
        f.set_terminator(next, Terminator::Return(f.inst(phi).result));
        // A target with more blocks and instructions of other kinds.
        let mut g = Function::new("g", vec![Type::array_of(Type::Int)], None);
        for _ in 0..3 {
            let b = g.new_block();
            let c = g.create_inst(InstKind::Const(7), Some(Type::Int));
            g.append_inst(b, c);
            g.set_terminator(b, Terminator::Return(None));
        }
        g.clone_from(&f);
        assert_eq!(format!("{g:?}"), format!("{f:?}"));
        assert_eq!(g.to_string(), f.to_string());
    }

    #[test]
    fn map_all_uses_rewrites_terminator() {
        let mut f = sample();
        let entry = f.entry();
        f.set_terminator(entry, Terminator::Return(Some(f.param(0))));
        f.map_all_uses(|_| Value::new(1));
        match f.block(entry).terminator() {
            Terminator::Return(Some(v)) => assert_eq!(*v, Value::new(1)),
            t => panic!("unexpected {t:?}"),
        }
    }

    #[test]
    fn check_sites_are_sequential() {
        let mut f = sample();
        assert_eq!(f.new_check_site(), CheckSite::new(0));
        assert_eq!(f.new_check_site(), CheckSite::new(1));
        assert_eq!(f.check_site_count(), 2);
    }

    #[test]
    fn locals_are_typed() {
        let mut f = sample();
        let l = f.new_local(Type::array_of(Type::Int));
        assert_eq!(f.local_count(), 1);
        assert!(f.local_type(l).is_array());
    }
}
