//! The generated inputs: one spec text per workload cell, a pure
//! function of `--seed` and `--size`.

use ftgcs::params::Params;

/// The seed whose outputs the benchmark records. At this seed
/// `mobile_attack` runs the checked-in `f7_mobile_adversary.spec`
/// verbatim (spec seed 500).
pub const DEFAULT_SEED: u64 = 0;

/// `full` is what the benchmark measures; `tiny` is the self-test size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// The environment `(ρ, d, U)` every workload runs in (the one the
/// checked-in specs use).
pub const ENV: &str = "1e-4 1e-3 1e-4";

pub fn params(f: usize) -> Params {
    Params::practical(1e-4, 1e-3, 1e-4, f).expect("the benchmark environment is feasible")
}

/// SplitMix64: derives independent per-cell seeds from `--seed`.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A seed the spec format accepts and prints back unchanged.
fn spec_seed(x: u64) -> u64 {
    x % 1_000_000_007
}

/// `grid_parallel`: a 3×3 grid of f=1 clusters (36 nodes), one silent
/// Byzantine node per cluster, the parallel executor with one worker
/// per core, streamed through the `xp run` observers.
pub fn grid(seed: u64, size: Size) -> String {
    let rounds = match size {
        Size::Full => 600,
        Size::Tiny => 20,
    };
    format!(
        "name grid_parallel\ntopology grid 3 3\nf 1\nenv {ENV}\nseed {}\n\
         duration {rounds} rounds\nfault_per_cluster 1 silent\nscheduler parallel 0\n\
         csv_stride 25\n",
        spec_seed(mix(seed ^ 0x6772_6964))
    )
}

/// `torus_global`: a 16×16 torus of f=1 clusters (1024 nodes), one
/// two-faced node per cluster, the single global event heap.
pub fn torus(seed: u64, size: Size) -> String {
    let (side, rounds) = match size {
        Size::Full => (16, 8),
        Size::Tiny => (4, 6),
    };
    let p = params(1);
    format!(
        "name torus_global\ntopology torus {side} {side}\nf 1\nenv {ENV}\nseed {}\n\
         duration {rounds} rounds\nfault_per_cluster 1 two_faced {}\nscheduler global\n\
         csv_stride 25\n",
        spec_seed(mix(seed ^ 0x0074_6f72_7573)),
        0.9 * p.phi * p.tau3
    )
}

/// `mobile_attack`: the `f7_mobile_adversary` analysis spec. At the
/// default seed this is the checked-in spec's content (seed 500).
pub fn mobile(seed: u64) -> String {
    format!(
        "name f7_mobile_adversary\nanalysis f7_mobile_adversary\ntopology line 3\nf 1\n\
         env {ENV}\nseed {}\n",
        spec_seed(500 + seed)
    )
}

/// `cell_sweep`'s base spec: a 3-cluster line streamed for ten rounds.
pub const SWEEP_BASE: &str = "name cell_sweep\ntopology line 3\nenv 1e-4 1e-3 1e-4\n\
                              duration 10 rounds\n";

/// `cell_sweep`'s axes (`key`, values), expanded like `xp sweep`: the
/// last axis varies fastest. f ∈ {1, 2} × four fault kinds × seeds.
pub fn sweep_axes(seed: u64, size: Size) -> Vec<(&'static str, Vec<String>)> {
    let seeds = match size {
        Size::Full => 8,
        Size::Tiny => 1,
    };
    let p = params(1);
    let kinds = vec![
        "1 silent".to_string(),
        format!("1 crash {}", 5.0 * p.t_round),
        format!("1 two_faced {}", 0.9 * p.phi * p.tau3),
        format!("1 random_pulser {}", p.t_round / 3.0),
    ];
    vec![
        ("f", vec!["1".to_string(), "2".to_string()]),
        ("fault_per_cluster", kinds),
        (
            "seed",
            (0..seeds)
                .map(|i| spec_seed(mix(mix(seed) ^ i)).to_string())
                .collect(),
        ),
    ]
}
