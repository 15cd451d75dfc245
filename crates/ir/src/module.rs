//! Modules: collections of functions with name-based lookup.

use crate::entities::FuncId;
use crate::function::Function;

/// A compilation unit: an ordered collection of functions.
///
/// Call instructions reference functions by [`FuncId`]; ids are assigned in
/// insertion order. The first function named `main` (or the one passed to the
/// VM) acts as the entry point by convention.
#[derive(Clone, Debug, Default)]
pub struct Module {
    functions: Vec<Function>,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Self {
        Module::default()
    }

    /// Adds a function, returning its id.
    pub fn add_function(&mut self, f: Function) -> FuncId {
        let id = FuncId::new(self.functions.len());
        self.functions.push(f);
        id
    }

    /// The function with the given id.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Mutable access to the function with the given id.
    pub fn function_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.functions[id.index()]
    }

    /// Iterates over `(id, function)` pairs in insertion order.
    pub fn functions(&self) -> impl ExactSizeIterator<Item = (FuncId, &Function)> {
        self.functions
            .iter()
            .enumerate()
            .map(|(i, f)| (FuncId::new(i), f))
    }

    /// Number of functions.
    pub fn function_count(&self) -> usize {
        self.functions.len()
    }

    /// Looks a function up by name (a linear scan; the first match wins).
    pub fn function_by_name(&self, name: &str) -> Option<FuncId> {
        self.functions
            .iter()
            .position(|f| f.name() == name)
            .map(FuncId::new)
    }

    /// Iterates over `(id, function)` pairs with mutable access, in
    /// insertion order. The borrows are disjoint, so callers may hand the
    /// functions to worker threads (e.g. the parallel optimizer driver).
    pub fn functions_mut(&mut self) -> impl ExactSizeIterator<Item = (FuncId, &mut Function)> {
        self.functions
            .iter_mut()
            .enumerate()
            .map(|(i, f)| (FuncId::new(i), f))
    }

    /// Replaces the function behind `id` wholesale, keeping the id (and so
    /// every call instruction referencing it) valid. Used by transformations
    /// that substitute a dispatcher for the original body (e.g. the
    /// optimizer's guarded entries).
    pub fn replace_function(&mut self, id: FuncId, f: Function) -> Function {
        std::mem::replace(&mut self.functions[id.index()], f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Type;

    #[test]
    fn lookup_by_name() {
        let mut m = Module::new();
        let a = m.add_function(Function::new("a", vec![], None));
        let b = m.add_function(Function::new("b", vec![Type::Int], Some(Type::Int)));
        assert_eq!(m.function_by_name("a"), Some(a));
        assert_eq!(m.function_by_name("b"), Some(b));
        assert_eq!(m.function_by_name("c"), None);
        assert_eq!(m.function_count(), 2);
        assert_eq!(m.function(b).param_count(), 1);
    }
}
