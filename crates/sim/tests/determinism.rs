//! Regression test for the `ftgcs_sim::rng` pure-function contract: a
//! simulation run is a pure function of `(seed, SimConfig)`, so two runs
//! with identical inputs must produce **byte-identical** traces — same
//! clock samples, same rows, in the same order.

use ftgcs_sim::clock::RateModel;
use ftgcs_sim::engine::{Ctx, SimBuilder, SimConfig, Simulation};
use ftgcs_sim::network::{DelayConfig, DelayDistribution};
use ftgcs_sim::node::{Behavior, NodeId, TimerTag, TrackId};
use ftgcs_sim::time::{SimDuration, SimTime};
use ftgcs_sim::trace::Trace;

/// Every logical second, broadcast a random token and jitter the clock
/// rate; record every received message. Exercises all the randomness in
/// the substrate: message delays, hardware drift, and per-node RNG.
struct Gossip;

impl Behavior<u64> for Gossip {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.set_timer_at(TrackId::MAIN, 1.0, TimerTag::new(0));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _tag: TimerTag) {
        let token = ctx.rng().next_u64();
        ctx.broadcast(token);
        let wiggle = 1.0 + 1e-3 * ctx.rng().uniform(0.0, 1.0);
        ctx.set_multiplier(TrackId::MAIN, wiggle);
        let next = ctx.track_value(TrackId::MAIN) + 1.0;
        ctx.set_timer_at(TrackId::MAIN, next, TimerTag::new(0));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: &u64) {
        ctx.emit("gossip", &[from.index() as f64, (*msg % 4096) as f64]);
    }
}

fn config(seed: u64) -> SimConfig {
    SimConfig {
        delay: DelayConfig::new(
            SimDuration::from_millis(1.0),
            SimDuration::from_micros(100.0),
            DelayDistribution::Uniform,
        ),
        rho: 1e-4,
        rate_model: RateModel::RandomWalk {
            dwell: 0.5,
            step: 0.5,
        },
        seed,
        sample_interval: Some(SimDuration::from_millis(250.0)),
        scheduler: ftgcs_sim::shard::SchedulerKind::Global,
        telemetry: false,
    }
}

fn run(seed: u64) -> Trace {
    let mut builder = SimBuilder::new(config(seed));
    let n = 8;
    let ids: Vec<NodeId> = (0..n).map(|_| builder.add_node(Box::new(Gossip))).collect();
    for i in 0..n {
        builder.add_edge(ids[i], ids[(i + 1) % n]);
    }
    let mut sim: Simulation<u64> = builder.build();
    sim.run_until(SimTime::from_secs(20.0));
    sim.into_trace()
}

#[test]
fn identical_seed_and_config_give_byte_identical_traces() {
    let a = run(42);
    let b = run(42);
    assert!(
        !a.samples.is_empty() && !a.rows.is_empty(),
        "trace must be non-trivial for the comparison to mean anything"
    );
    assert_eq!(
        a.to_bytes(),
        b.to_bytes(),
        "same (seed, SimConfig) must reproduce the trace byte-for-byte"
    );
}

#[test]
fn different_seeds_give_different_traces() {
    let a = run(42);
    let c = run(43);
    assert_ne!(
        a.to_bytes(),
        c.to_bytes(),
        "a different seed must actually change the run, or the \
         determinism test above has no power"
    );
}
