//! The `scale` workload's seeded MJ module generator.
//!
//! Every generated function has the same signature,
//! `fn fK(a: int[], idx: int[], g: int[][], n: int) -> int`, so any sample
//! of them can be run in the VM with one set of arguments. The shapes are
//! the ones ABCD treats differently: loops whose checks are fully
//! removable, partially redundant loops (removed by PRE), indirect
//! `a[idx[x]]` accesses, 2-D nests, strided windows and call chains.

use abcd_loadgen::SplitMix64;
use abcd_vm::{RtVal, Vm};
use std::fmt::Write as _;

/// The function shapes, in the order [`Shape::of`] numbers them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Forward and backward sweeps bounded by `a.length`: fully removable.
    Full,
    /// Sweeps bounded by the parameter `n`: partially redundant.
    Partial,
    /// `a[idx[x]]`: the inner check stays, the outer one goes.
    Indirect,
    /// A 2-D nest over `g`'s rows.
    Nest,
    /// A strided window `a[x]`, `a[x + k]`.
    Window,
    /// A call to an earlier function plus a short loop.
    Chain,
}

/// All shapes, for stratified sampling.
pub const SHAPES: [Shape; 6] = [
    Shape::Full,
    Shape::Partial,
    Shape::Indirect,
    Shape::Nest,
    Shape::Window,
    Shape::Chain,
];

/// Arguments every sampled function is called with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Args {
    /// `a`.
    pub a: Vec<i64>,
    /// `idx`, every element a valid index into `a`.
    pub idx: Vec<i64>,
    /// `g`, a rectangular 2-D array.
    pub g: Vec<Vec<i64>>,
    /// `n`, at most `a.len()`.
    pub n: i64,
}

impl Args {
    /// Seeded arguments under which no generated function traps.
    pub fn new(seed: u64) -> Args {
        let mut rng = SplitMix64::new(seed ^ 0xA265);
        // Large enough that the sampled calls interpret loops rather than
        // mostly set up a VM for the module.
        let len = 256;
        let a = (0..len).map(|_| (rng.next_u64() % 1000) as i64).collect();
        let idx = (0..128).map(|_| (rng.next_u64() % len) as i64).collect();
        let g = (0..16)
            .map(|_| (0..16).map(|_| (rng.next_u64() % 100) as i64).collect())
            .collect();
        Args {
            a,
            idx,
            g,
            n: len as i64 - 8,
        }
    }

    /// Allocates the arguments in `vm`.
    pub fn alloc(&self, vm: &mut Vm) -> Vec<RtVal> {
        let a = vm.alloc_int_array(&self.a);
        let idx = vm.alloc_int_array(&self.idx);
        let rows: Vec<RtVal> = self.g.iter().map(|r| vm.alloc_int_array(r)).collect();
        let g = vm.alloc_ref_array(&rows);
        vec![a, idx, g, RtVal::Int(self.n)]
    }
}

/// A generated module: its source and the shape of each function `fK`.
pub struct Generated {
    /// MJ source text.
    pub source: String,
    /// `shapes[k]` is the shape of function `fK`.
    pub shapes: Vec<Shape>,
}

/// Generates `functions` functions from `seed`.
pub fn module(seed: u64, functions: usize) -> Generated {
    let mut rng = SplitMix64::new(seed ^ 0x5CA1E);
    let mut source = String::new();
    let mut shapes = Vec::with_capacity(functions);
    for k in 0..functions {
        let shape = if k == 0 {
            Shape::Full
        } else {
            SHAPES[(rng.next_u64() % SHAPES.len() as u64) as usize]
        };
        let c = 1 + rng.next_u64() % 9;
        let _ = writeln!(
            source,
            "fn f{k}(a: int[], idx: int[], g: int[][], n: int) -> int {{\n    let s: int = {};",
            rng.next_u64() % 1000
        );
        let body = match shape {
            Shape::Full => format!(
                "    for (let x: int = 0; x < a.length; x = x + 1) {{ s = s + a[x] * {c}; }}
    for (let x: int = a.length - 1; x >= 0; x = x - 1) {{ s = s - a[x]; }}"
            ),
            Shape::Partial => format!(
                "    let lim: int = n;
    while (lim > 0) {{
        for (let x: int = 0; x < lim; x = x + 1) {{ s = s + a[x]; }}
        lim = lim - {};
    }}",
                8 + c
            ),
            Shape::Indirect => format!(
                "    for (let x: int = 0; x < idx.length; x = x + 1) {{ s = s + a[idx[x]] + {c}; }}"
            ),
            Shape::Nest => format!(
                "    for (let r: int = 0; r < g.length; r = r + 1) {{
        let row: int[] = g[r];
        for (let j: int = 0; j < row.length; j = j + 1) {{ s = s + row[j] * {c} - g[r][j]; }}
    }}"
            ),
            Shape::Window => format!(
                "    for (let x: int = 0; x + {c} < a.length; x = x + {}) {{ s = s + a[x] - a[x + {c}]; }}",
                1 + c % 3
            ),
            Shape::Chain => {
                let callee = k - 1 - (rng.next_u64() % k.min(8) as u64) as usize;
                format!(
                    "    s = s + f{callee}(a, idx, g, n);
    for (let x: int = 0; x < {c}; x = x + 1) {{ s = s + a[x]; }}"
                )
            }
        };
        source.push_str(&body);
        source.push_str("\n    return s;\n}\n");
        shapes.push(shape);
    }
    Generated { source, shapes }
}

/// A seeded sample of up to `per_shape` function indices of each shape, so
/// that the sample's mix of shapes does not depend on the seed.
pub fn sample(seed: u64, shapes: &[Shape], per_shape: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ 0x5A3B1E);
    let mut picked = Vec::new();
    for shape in SHAPES {
        let mut of_shape: Vec<usize> = (0..shapes.len()).filter(|&k| shapes[k] == shape).collect();
        for _ in 0..per_shape.min(of_shape.len()) {
            let at = (rng.next_u64() % of_shape.len() as u64) as usize;
            picked.push(of_shape.swap_remove(at));
        }
    }
    picked.sort_unstable();
    picked
}
