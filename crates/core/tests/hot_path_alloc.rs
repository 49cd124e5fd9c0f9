//! Regression test: a full FTGCS run — cluster sync, estimators, the
//! max estimator, Byzantine faults, streaming observers — must not
//! allocate per event in steady state.
//!
//! `crates/sim/tests/hot_path_alloc.rs` proves the engine alone is
//! allocation-free; this guard covers the layers above it. The
//! per-message and per-round sites it watches: the max estimator's
//! level confirmation, each cluster instance's observation multiset,
//! the node's estimate vector at round boundaries, row payloads
//! (`Ctx::emit`), the Byzantine fan-out over the neighbor list, and the
//! parallel executor's row merge.
//!
//! What may remain is per *sample*, not per event: every `ClockSample`
//! carries two freshly allocated vectors (one sample per half round
//! here, about 2,900 events apart), plus the amortized growth of
//! random-walk clock segments: together about 0.8 allocations per 1,000
//! events in this window. The bound of one per 1,000 leaves room for
//! that and fails on any per-event or per-message allocation.
//!
//! The test binary has exactly one test so no concurrent test thread
//! can pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use ftgcs::params::Params;
use ftgcs::runner::Scenario;
use ftgcs::FaultKind;
use ftgcs_metrics::skew::FaultMask;
use ftgcs_metrics::stream::{CsvSampleWriter, RowCounter, SkewStream};
use ftgcs_sim::observe::{Fanout, Observer};
use ftgcs_sim::shard::SchedulerKind;
use ftgcs_sim::time::SimTime;
use ftgcs_topology::{generators, ClusterGraph};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates directly to the system allocator; the counter has
// no allocator-visible side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: forwards `layout` unchanged to `System.alloc`, inheriting
    // its contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }
    // SAFETY: forwards `ptr`/`layout` unchanged to `System.dealloc`;
    // the caller's obligations are exactly `System`'s.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    // SAFETY: forwards all arguments unchanged to `System.realloc`,
    // inheriting its contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// At most this many allocations per 1,000 events in the window.
const ALLOCS_PER_1000_EVENTS: u64 = 1;

/// A 3×3 grid of f = 1 clusters with the max estimator on and one
/// two-faced node per cluster: every protocol message class (pulses,
/// virtual pulses, level reports) and every per-round site runs. With
/// `workers`, the run uses the parallel executor on that many threads;
/// otherwise the global heap.
fn scenario(workers: Option<usize>) -> Scenario {
    let params = Params::practical(1e-4, 1e-3, 1e-4, 1).expect("feasible environment");
    let cg = ClusterGraph::new(generators::grid(3, 3), 4, 1);
    let mut s = Scenario::new(cg, params);
    s.seed(17)
        .initial_offset_spread(1e-4)
        .max_estimator(true)
        .with_fault_per_cluster(&FaultKind::TwoFaced { amplitude: 1e-3 }, 1);
    match workers {
        Some(workers) => s.parallel(workers),
        None => s.scheduler(SchedulerKind::Global),
    };
    s
}

/// Runs `scenario` through the `xp run` observers, warms up, and returns
/// `(allocations, events)` of the steady-state window.
fn steady_state_window(scenario: &Scenario) -> (u64, u64) {
    let params = scenario.params();
    let nodes = scenario.cluster_graph().physical().node_count();
    let mask = FaultMask::from_nodes(nodes, &scenario.faulty_nodes());
    let mut skew = SkewStream::new(mask).with_warmup(5.0 * params.t_round);
    let mut csv = CsvSampleWriter::new(io::sink(), 1);
    let mut rows = RowCounter::new();
    let mut sinks = Fanout::new(vec![&mut csv, &mut skew, &mut rows]);

    let mut sim = scenario.build();
    // Warm-up: reach the high-water mark of every queue, buffer and
    // per-node scratch vector.
    let warm = SimTime::from_secs(40.0 * params.t_round);
    sim.run_until_with(warm, &mut sinks);
    let events_before = sim.stats().events;

    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    sim.run_until_with(SimTime::from_secs(160.0 * params.t_round), &mut sinks);
    COUNTING.store(false, Ordering::SeqCst);
    let window_allocs = ALLOCS.load(Ordering::SeqCst);
    let window_events = sim.stats().events - events_before;
    sinks.on_finish(&sim.stats());
    drop(sinks);
    assert!(
        rows.count("mode") > 0 && skew.count() > 0,
        "the observers must have seen rows and samples"
    );
    (window_allocs, window_events)
}

#[test]
fn full_stack_steady_state_does_not_allocate_per_event() {
    // Sanity: the counter must actually observe allocations, or the
    // assertions below would pass vacuously.
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    std::hint::black_box(Vec::<u64>::with_capacity(32));
    COUNTING.store(false, Ordering::SeqCst);
    assert!(
        ALLOCS.load(Ordering::SeqCst) >= 1,
        "counting allocator is not wired up"
    );

    for (name, workers) in [("global", None), ("parallel(2)", Some(2))] {
        let (allocs, events) = steady_state_window(&scenario(workers));
        assert!(
            events > 50_000,
            "{name}: window too small to be meaningful: {events} events"
        );
        assert!(
            allocs * 1000 <= ALLOCS_PER_1000_EVENTS * events,
            "{name}: the full stack allocated {allocs} times over {events} events \
             (more than {ALLOCS_PER_1000_EVENTS} per 1,000) — a per-event \
             allocation crept back in"
        );
    }
}
