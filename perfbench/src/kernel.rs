//! The protocol's two per-round kernels, timed in isolation.

use std::hint::black_box;

use ftgcs::agreement::trimmed_midpoint;
use ftgcs::params::Params;
use ftgcs::triggers::evaluate;

use crate::workloads::mix;
use ftgcs_sim::Stopwatch;

const INPUT_SETS: usize = 64;
const CALLS: usize = 200_000;

/// `INPUT_SETS` fixed pseudo-random vectors of length `n`, scaled like
/// clock offsets (milliseconds).
fn inputs(n: usize) -> Vec<Vec<f64>> {
    (0..INPUT_SETS)
        .map(|s| {
            (0..n)
                .map(|i| (mix((s * 131 + i) as u64) >> 11) as f64 / (1u64 << 53) as f64 * 1e-3)
                .collect()
        })
        .collect()
}

fn ns_per_call(mut call: impl FnMut(usize)) -> f64 {
    let t = Stopwatch::start();
    for c in 0..CALLS {
        call(c % INPUT_SETS);
    }
    t.elapsed_secs() * 1e9 / CALLS as f64
}

/// `agreement::trimmed_midpoint` over `n = 3f + 1` observations.
pub fn trimmed_midpoint_ns(f: usize) -> f64 {
    let sets = inputs(3 * f + 1);
    ns_per_call(|s| {
        let _ = black_box(trimmed_midpoint(black_box(&sets[s]), f));
    })
}

/// `triggers::evaluate` with `degree` neighbour estimates and the
/// slack the node uses (`κ`, `δ`).
pub fn trigger_evaluate_ns(degree: usize, p: &Params) -> f64 {
    let sets = inputs(degree + 1);
    ns_per_call(|s| {
        let v = &sets[s];
        black_box(evaluate(
            black_box(v[0]),
            black_box(&v[1..]),
            p.kappa,
            p.delta,
        ));
    })
}
