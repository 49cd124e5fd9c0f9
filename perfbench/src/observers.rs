//! Observers the benchmark adds around the program's own sinks: an
//! output digest (every run), a timing wrapper per sink and a skew
//! checker (traced runs only).

use std::ops::Range;

use ftgcs::params::Params;
use ftgcs_metrics::FaultMask;
use ftgcs_sim::engine::SimStats;
use ftgcs_sim::observe::Observer;
use ftgcs_sim::trace::{ClockSample, Row};
use ftgcs_sim::Stopwatch;
use ftgcs_topology::ClusterGraph;

/// A 64-bit FNV-1a-style digest over every streamed sample and row,
/// bit-exact: two runs agree on it only if they streamed identical
/// values in identical order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    hash: u64,
    samples: u64,
    rows: u64,
}

impl Digest {
    pub fn new() -> Self {
        Digest {
            hash: 0xcbf2_9ce4_8422_2325,
            samples: 0,
            rows: 0,
        }
    }

    fn word(&mut self, w: u64) {
        self.hash = (self.hash ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// The digest folded with the run's event and message counts, as
    /// one hex string.
    pub fn seal(mut self, stats: &SimStats) -> String {
        self.word(stats.events);
        self.word(stats.messages);
        format!("{:016x}", self.hash)
    }

    pub fn samples(&self) -> u64 {
        self.samples
    }

    pub fn rows(&self) -> u64 {
        self.rows
    }
}

impl Observer for Digest {
    fn on_sample(&mut self, sample: &ClockSample) {
        self.samples += 1;
        self.word(sample.t.as_secs().to_bits());
        for x in sample.logical.iter().chain(&sample.hardware) {
            self.word(x.to_bits());
        }
    }

    fn on_row(&mut self, row: &Row) {
        self.rows += 1;
        self.word(row.t.as_secs().to_bits());
        self.word(row.node.0 as u64);
        for b in row.kind.bytes() {
            self.word(u64::from(b));
        }
        for x in &row.values {
            self.word(x.to_bits());
        }
    }
}

/// FNV-1a 64 of `bytes`, as hex.
pub fn fnv(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Wraps one sink and accumulates the host time spent inside its
/// callbacks.
pub struct Timed<'a> {
    inner: &'a mut dyn Observer,
    pub busy_s: f64,
}

impl<'a> Timed<'a> {
    pub fn new(inner: &'a mut dyn Observer) -> Self {
        Timed { inner, busy_s: 0.0 }
    }
}

impl Observer for Timed<'_> {
    fn on_sample(&mut self, sample: &ClockSample) {
        let t = Stopwatch::start();
        self.inner.on_sample(sample);
        self.busy_s += t.elapsed_secs();
    }

    fn on_row(&mut self, row: &Row) {
        let t = Stopwatch::start();
        self.inner.on_row(row);
        self.busy_s += t.elapsed_secs();
    }

    fn on_finish(&mut self, stats: &SimStats) {
        let t = Stopwatch::start();
        self.inner.on_finish(stats);
        self.busy_s += t.elapsed_secs();
    }
}

/// Post-warm-up maxima of the three skews the paper bounds, over the
/// nodes of `mask` that are never faulty — the same quantities
/// `ftgcs_bench::measure_skews` computes from a full trace, taken from
/// the stream instead.
pub struct Skews {
    mask: FaultMask,
    members: Vec<Range<usize>>,
    base_edges: Vec<(usize, usize)>,
    warmup: f64,
    clocks: Vec<f64>,
    pub samples: u64,
    pub intra: f64,
    pub local: f64,
    pub global: f64,
}

impl Skews {
    pub fn new(cg: &ClusterGraph, mask: FaultMask, warmup: f64) -> Self {
        Skews {
            mask,
            members: (0..cg.cluster_count()).map(|c| cg.members(c)).collect(),
            base_edges: cg.base().edges().collect(),
            warmup,
            clocks: vec![f64::NAN; cg.cluster_count()],
            samples: 0,
            intra: 0.0,
            local: 0.0,
            global: 0.0,
        }
    }

    /// Checks the maxima against the paper's bounds for base-graph
    /// diameter `diameter` (the global one only if `global`); one
    /// message per broken bound.
    pub fn violations(&self, params: &Params, diameter: usize, global: bool) -> Vec<String> {
        let mut out = Vec::new();
        if self.samples == 0 {
            out.push("no post-warm-up sample to check the skew bounds on".to_string());
        }
        let checks = [
            (
                "intra-cluster",
                self.intra,
                params.intra_cluster_skew_bound(),
            ),
            ("local", self.local, params.local_skew_bound(diameter)),
            ("global", self.global, params.global_skew_bound(diameter)),
        ];
        for (name, value, bound) in checks.into_iter().take(if global { 3 } else { 2 }) {
            if value > bound {
                out.push(format!(
                    "{name} skew {value:.3e} s exceeds its bound {bound:.3e} s"
                ));
            }
        }
        out
    }
}

impl Observer for Skews {
    fn on_sample(&mut self, sample: &ClockSample) {
        if sample.t.as_secs() < self.warmup {
            return;
        }
        self.samples += 1;
        let (mut gmin, mut gmax) = (f64::INFINITY, f64::NEG_INFINITY);
        for (c, members) in self.members.iter().enumerate() {
            let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
            for v in members.clone() {
                if !self.mask.is_faulty(v) {
                    min = min.min(sample.logical[v]);
                    max = max.max(sample.logical[v]);
                }
            }
            if min.is_finite() {
                self.intra = self.intra.max(max - min);
                self.clocks[c] = (min + max) / 2.0;
                gmin = gmin.min(min);
                gmax = gmax.max(max);
            } else {
                self.clocks[c] = f64::NAN;
            }
        }
        if gmin.is_finite() {
            self.global = self.global.max(gmax - gmin);
        }
        for &(a, b) in &self.base_edges {
            let skew = (self.clocks[a] - self.clocks[b]).abs();
            if !skew.is_nan() {
                self.local = self.local.max(skew);
            }
        }
    }
}
