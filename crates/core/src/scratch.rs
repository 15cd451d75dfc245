//! Pooled per-worker scratch for the zero-allocation prove path.
//!
//! Everything the analysis allocates per function — graph shells, demand
//! memo tables, PRE worklists — lives in a
//! [`ScratchArena`] that a worker checks out of a [`ScratchPool`] once and
//! reuses across every function it analyzes. After the first few functions
//! warm the buffers to the module's high-water capacities, steady-state
//! re-optimization performs no heap allocation on the prove path (the
//! bench suite's counting-allocator gate pins this).
//!
//! The take/put protocol is panic-safe by construction: a worker that
//! unwinds mid-function simply fails to return the items it took, so the
//! pool loses capacity but never observes torn state.

use crate::graph::{InequalityGraph, Problem, Vertex};
use crate::solver::{DemandProver, DemandScratch, PreScratch, ProverBackend};
use std::sync::Mutex;

/// One worker's reusable analysis storage.
#[derive(Debug, Default)]
pub struct ScratchArena {
    graphs: Vec<InequalityGraph>,
    demand: Vec<DemandScratch>,
    pre: Vec<PreScratch>,
}

impl ScratchArena {
    /// A fresh, cold arena.
    pub fn new() -> ScratchArena {
        ScratchArena::default()
    }

    /// Takes a pooled graph shell (or a cold one), ready for
    /// `rebuild_excluding`.
    pub(crate) fn take_graph(&mut self, problem: Problem) -> InequalityGraph {
        self.graphs
            .pop()
            .unwrap_or_else(|| InequalityGraph::empty(problem))
    }

    /// Returns a graph shell to the pool.
    pub(crate) fn put_graph(&mut self, graph: InequalityGraph) {
        self.graphs.push(graph);
    }

    /// Takes a donated demand-prover scratch.
    pub(crate) fn take_demand(&mut self) -> DemandScratch {
        self.demand.pop().unwrap_or_default()
    }

    /// Returns a demand-prover scratch.
    pub(crate) fn put_demand(&mut self, scratch: DemandScratch) {
        self.demand.push(scratch);
    }

    /// Takes a donated PRE scratch.
    pub(crate) fn take_pre(&mut self) -> PreScratch {
        self.pre.pop().unwrap_or_default()
    }

    /// Returns a PRE scratch.
    pub(crate) fn put_pre(&mut self, scratch: PreScratch) {
        self.pre.push(scratch);
    }
}

impl<'g> DemandProver<'g> {
    /// `with_scratch` on a table from `arena`; stays only for the frozen benchmark replay.
    pub fn with_arena(
        graph: &'g InequalityGraph,
        source: Vertex,
        _backend: ProverBackend,
        arena: &mut ScratchArena,
    ) -> DemandProver<'g> {
        DemandProver::with_scratch(graph, source, arena.take_demand())
    }

    /// Puts the table back into `arena`; stays only for the frozen benchmark replay.
    pub fn reclaim(self, arena: &mut ScratchArena) {
        arena.put_demand(self.into_scratch());
    }
}

/// A shared pool of [`ScratchArena`]s, one checked out per driver worker
/// (or per `abcdd` request) so arenas never cross threads concurrently but
/// their warm capacity survives across modules and requests.
#[derive(Debug, Default)]
pub struct ScratchPool {
    arenas: Mutex<Vec<ScratchArena>>,
}

impl ScratchPool {
    /// An empty pool; arenas are created cold on first checkout.
    pub fn new() -> ScratchPool {
        ScratchPool::default()
    }

    /// Checks out an arena (warm if one was returned before).
    pub fn checkout(&self) -> ScratchArena {
        self.arenas
            .lock()
            .map(|mut v| v.pop())
            .unwrap_or_default()
            .unwrap_or_default()
    }

    /// Returns an arena after a worker finishes with it.
    pub fn checkin(&self, arena: ScratchArena) {
        if let Ok(mut v) = self.arenas.lock() {
            v.push(arena);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_round_trips_arenas() {
        let pool = ScratchPool::new();
        let mut a = pool.checkout();
        a.put_demand(DemandScratch::default());
        pool.checkin(a);
        let mut b = pool.checkout();
        // The arena we get back is the one we returned (its pooled demand
        // scratch is still there), and a second checkout is a cold arena.
        let _ = b.take_demand();
        assert!(b.demand.is_empty());
        let c = pool.checkout();
        assert!(c.demand.is_empty() && c.graphs.is_empty());
    }
}
