//! The fault-tolerant global-maximum estimator `M_v` (Appendix C.2).
//!
//! Every node maintains a conservative estimate `M_v(t) ≤ L_max(t)` of the
//! maximum correct logical clock:
//!
//! * `M_v` grows continuously at rate `h_v/(1+ρ) ≤ 1` — never faster than
//!   `L_max`, whose rate is at least 1 (Lemma C.1);
//! * `M_v ← max(M_v, L_v)` — a node's own clock is a valid lower bound;
//! * whenever `M_v` crosses a multiple of the *level unit* `X`, the node
//!   broadcasts a level pulse; when `f+1` members of any single adjacent
//!   cluster have reported level `ℓ`, the receiver raises
//!   `M_v ← max(M_v, ℓ·X + (d−U))` — at least one reporter was correct and
//!   its message was in flight for at least `d−U` while `L_max` kept
//!   rising at rate ≥ 1 (Lemma C.2's argument).
//!
//! **Deviation from the paper (documented in DESIGN.md):** the paper uses
//! `X = d−U`, which is safe with the bump `(ℓ+1)(d−U)` but floods
//! `Θ(1/(d−U))` messages per second per node. We use a configurable
//! `X ≥ d−U` (default `δ`) with the weaker-but-safe bump
//! `ℓ·X + (d−U)`; the resulting estimate lag is `O(X + d·D)` ⊆ `O(δ·D)`,
//! preserving Theorem C.3's global skew bound while keeping message rates
//! practical.

use ftgcs_sim::engine::Ctx;
use ftgcs_sim::node::{NodeId, TimerTag, TrackId};

use crate::messages::Msg;

/// Timer kind: `M_v` reached the next level boundary.
pub const TIMER_LEVEL: u32 = 4;

/// The `(f+1)`-th largest entry of `seen` (0 if it has at most `f`
/// entries): the highest level that at least `f+1` distinct members have
/// reported. Selected in place, without sorting a copy; clusters are
/// small (`k = 3f+1`), so the quadratic scan is cheap.
fn confirmed_level(seen: &[u64], f: usize) -> u64 {
    seen.iter()
        .copied()
        .filter(|&level| seen.iter().filter(|&&other| other >= level).count() > f)
        .max()
        .unwrap_or(0)
}

/// Level reports observed from one adjacent cluster.
#[derive(Debug, Clone)]
struct ClusterLevels {
    /// Members of the cluster, in slot order.
    members: Vec<NodeId>,
    /// Highest level reported by each member.
    seen: Vec<u64>,
}

/// The per-node max-estimator component.
#[derive(Debug)]
pub struct MaxEstimator {
    track: TrackId,
    /// Level unit `X` (logical seconds per level pulse).
    unit: f64,
    /// Minimum message delay `d − U`.
    min_delay: f64,
    /// Per-cluster fault budget `f`.
    f: usize,
    /// Highest level this node has announced.
    sent_level: u64,
    /// Level reports per observable cluster (own + adjacent).
    clusters: Vec<ClusterLevels>,
}

impl MaxEstimator {
    /// Creates the estimator.
    ///
    /// `track` must be a dedicated clock track created by the owner with
    /// multiplier `1/(1+ρ)` (so `M_v` self-advances at ≤ 1). `clusters`
    /// lists the member sets of every cluster this node can hear (its own
    /// plus all adjacent ones).
    ///
    /// # Panics
    ///
    /// Panics if `unit < min_delay` (the bump rule would over-claim) or
    /// `min_delay < 0`.
    #[must_use]
    pub fn new(
        track: TrackId,
        unit: f64,
        min_delay: f64,
        f: usize,
        clusters: Vec<Vec<NodeId>>,
    ) -> Self {
        assert!(min_delay >= 0.0, "minimum delay must be non-negative");
        assert!(
            unit >= min_delay,
            "level unit must be at least d-U for the flooding to make progress"
        );
        MaxEstimator {
            track,
            unit,
            min_delay,
            f,
            sent_level: 0,
            clusters: clusters
                .into_iter()
                .map(|members| ClusterLevels {
                    seen: vec![0; members.len()],
                    members,
                })
                .collect(),
        }
    }

    /// Arms the first level-boundary timer. Call from the owner's
    /// `on_start` after creating the track.
    pub fn start(&self, ctx: &mut Ctx<'_, Msg>) {
        ctx.set_timer_at(self.track, self.unit, TimerTag::new(TIMER_LEVEL).with_b(1));
    }

    /// Current estimate `M_v`.
    #[must_use]
    pub fn value(&self, ctx: &mut Ctx<'_, Msg>) -> f64 {
        ctx.track_value(self.track)
    }

    /// Applies `M_v ← max(M_v, own_logical)` (the node's own clock lower-
    /// bounds `L_max`). Call at round boundaries before reading
    /// [`Self::value`] for the catch-up rule.
    pub fn observe_own_clock(&mut self, ctx: &mut Ctx<'_, Msg>, own_logical: f64) {
        if own_logical > self.value(ctx) {
            ctx.jump_track(self.track, own_logical);
        }
    }

    /// Handles a level report from a neighbor.
    ///
    /// Reports from nodes outside the registered clusters are ignored (a
    /// Byzantine node cannot inject reports for clusters it is not in,
    /// because identity is carried by the channel).
    pub fn on_level(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, level: u64) {
        let mut candidate = None;
        for cl in &mut self.clusters {
            if let Some(slot) = cl.members.iter().position(|&m| m == from) {
                if level > cl.seen[slot] {
                    cl.seen[slot] = level;
                }
                // (f+1)-th largest report: at least one correct member of
                // this cluster has genuinely crossed this level.
                let confirmed = confirmed_level(&cl.seen, self.f);
                if confirmed > 0 {
                    let bump = confirmed as f64 * self.unit + self.min_delay;
                    candidate = Some(candidate.map_or(bump, |c: f64| c.max(bump)));
                }
                break;
            }
        }
        if let Some(bump) = candidate {
            if bump > self.value(ctx) {
                ctx.jump_track(self.track, bump);
                // The pending boundary timer now targets the past and will
                // fire immediately, announcing the crossed levels.
            }
        }
    }

    /// Handles the level-boundary timer: announce newly crossed levels and
    /// re-arm for the next boundary.
    ///
    /// `tag` must be the fired timer's tag: its `b` field carries the
    /// level the timer was armed for. The track has reached that boundary
    /// (that is why the timer fired), but re-reading the track can yield
    /// a value a few ulps *below* it; trusting only the re-read value
    /// would re-arm at the same boundary and livelock the event loop at a
    /// constant Newtonian time.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: TimerTag) {
        let value = self.value(ctx);
        let level = ((value / self.unit).floor() as u64).max(tag.b);
        if level > self.sent_level {
            self.sent_level = level;
            ctx.broadcast(Msg::Level { level });
        }
        let next_level = self.sent_level + 1;
        ctx.set_timer_at(
            self.track,
            next_level as f64 * self.unit,
            TimerTag::new(TIMER_LEVEL).with_b(next_level),
        );
    }

    /// Highest level announced so far.
    #[must_use]
    pub fn sent_level(&self) -> u64 {
        self.sent_level
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftgcs_sim::clock::RateModel;
    use ftgcs_sim::engine::{SimBuilder, SimConfig};
    use ftgcs_sim::network::{DelayConfig, DelayDistribution};
    use ftgcs_sim::node::Behavior;
    use ftgcs_sim::time::{SimDuration, SimTime};
    use std::sync::Arc;
    use std::sync::Mutex;

    #[test]
    #[should_panic(expected = "at least d-U")]
    fn rejects_sub_delay_unit() {
        let _ = MaxEstimator::new(TrackId(1), 0.5e-3, 1e-3, 1, vec![]);
    }

    /// Reference: the `(f+1)`-th largest entry of a sorted copy.
    fn confirmed_level_by_sorting(seen: &[u64], f: usize) -> u64 {
        let mut sorted = seen.to_vec();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        sorted.get(f).copied().unwrap_or(0)
    }

    #[test]
    fn confirmed_level_matches_sorting_exhaustively() {
        // Every `seen` vector of length 0..=3f+2 over levels 0..=3, for
        // f = 1 and 2: ties, zeros and too-short vectors included.
        const LEVELS: u64 = 4;
        for f in [1usize, 2] {
            for len in 0..=3 * f + 2 {
                let mut seen = vec![0u64; len];
                for code in 0..LEVELS.pow(len as u32) {
                    let mut c = code;
                    for slot in &mut seen {
                        *slot = c % LEVELS;
                        c /= LEVELS;
                    }
                    assert_eq!(
                        confirmed_level(&seen, f),
                        confirmed_level_by_sorting(&seen, f),
                        "seen = {seen:?}, f = {f}"
                    );
                }
            }
        }
    }

    #[test]
    fn construction_and_accessors() {
        let est = MaxEstimator::new(
            TrackId(1),
            0.01,
            1e-3,
            1,
            vec![vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]],
        );
        assert_eq!(est.sent_level(), 0);
    }

    const UNIT: f64 = 0.01;
    const MIN_DELAY: f64 = 1e-3;

    /// Feeds a scripted sequence of level reports into one MaxEstimator
    /// at t = 0 (before the track has self-advanced measurably) and
    /// records the value after each report.
    struct LevelHarness {
        script: Vec<(NodeId, u64)>,
        values: Arc<Mutex<Vec<f64>>>,
    }

    impl Behavior<Msg> for LevelHarness {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            let track = ctx.new_track(0.0, 1.0);
            let members: Vec<NodeId> = (1..=4).map(NodeId).collect();
            let mut est = MaxEstimator::new(track, UNIT, MIN_DELAY, 1, vec![members]);
            for &(from, level) in &self.script {
                est.on_level(ctx, from, level);
                self.values.lock().unwrap().push(est.value(ctx));
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, _msg: &Msg) {}
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, Msg>, _tag: TimerTag) {}
    }

    fn run_script(script: Vec<(NodeId, u64)>) -> Vec<f64> {
        let values = Arc::new(Mutex::new(Vec::new()));
        let config = SimConfig {
            delay: DelayConfig::new(
                SimDuration::from_millis(1.0),
                SimDuration::ZERO,
                DelayDistribution::Maximal,
            ),
            rho: 0.0,
            rate_model: RateModel::Constant { frac: 0.0 },
            seed: 5,
            sample_interval: None,
            ..SimConfig::default()
        };
        let mut b = SimBuilder::new(config);
        b.add_node(Box::new(LevelHarness {
            script,
            values: Arc::clone(&values),
        }));
        let mut sim = b.build();
        sim.run_until(SimTime::ZERO);
        let out = values.lock().unwrap().clone();
        drop(sim);
        out
    }

    #[test]
    fn single_report_is_not_confirmed() {
        // f = 1: one reporter may be Byzantine; no bump.
        let v = run_script(vec![(NodeId(1), 3)]);
        assert!(v[0].abs() < 1e-12, "bumped on unconfirmed report: {}", v[0]);
    }

    #[test]
    fn f_plus_one_distinct_reporters_confirm_a_level() {
        let v = run_script(vec![(NodeId(1), 3), (NodeId(2), 3)]);
        let expect = 3.0 * UNIT + MIN_DELAY;
        assert!(v[0].abs() < 1e-12);
        assert!((v[1] - expect).abs() < 1e-12, "bump {} != {expect}", v[1]);
    }

    #[test]
    fn repeated_reports_from_one_sender_do_not_confirm() {
        // A flooder escalating alone: the (f+1)-th largest stays at the
        // honest level, so its huge claims never move M_v.
        let v = run_script(vec![
            (NodeId(1), 3),
            (NodeId(2), 3),
            (NodeId(1), 100),
            (NodeId(1), 100_000),
        ]);
        let expect = 3.0 * UNIT + MIN_DELAY;
        assert!((v[2] - expect).abs() < 1e-12, "flooder moved M_v: {}", v[2]);
        assert!((v[3] - expect).abs() < 1e-12, "flooder moved M_v: {}", v[3]);
    }

    #[test]
    fn confirmation_takes_the_f_plus_one_th_largest() {
        // Reports 5, 4, 3 from three distinct members with f = 1: the
        // 2nd largest (4) is confirmed — at least one of {5, 4} is
        // honest, so L_max has genuinely crossed level 4.
        let v = run_script(vec![(NodeId(1), 5), (NodeId(2), 4), (NodeId(3), 3)]);
        let expect = 4.0 * UNIT + MIN_DELAY;
        assert!((v[1] - expect).abs() < 1e-12, "bump {} != {expect}", v[1]);
        // The third (lower) report must not regress the estimate.
        assert!((v[2] - expect).abs() < 1e-12);
    }

    #[test]
    fn reports_from_unknown_senders_are_ignored() {
        let v = run_script(vec![(NodeId(9), 50), (NodeId(8), 50)]);
        assert!(v[1].abs() < 1e-12, "strangers moved M_v: {}", v[1]);
    }

    #[test]
    fn value_never_decreases_on_lower_confirmations() {
        let v = run_script(vec![
            (NodeId(1), 10),
            (NodeId(2), 10),
            (NodeId(3), 2),
            (NodeId(4), 2),
        ]);
        let expect = 10.0 * UNIT + MIN_DELAY;
        assert!((v[3] - expect).abs() < 1e-12, "M_v regressed: {}", v[3]);
    }
}
