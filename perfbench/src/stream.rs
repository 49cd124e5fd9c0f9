//! `grid_parallel` and `torus_global`: one streaming run per pass,
//! through the sinks `xp run` uses (samples CSV, `SkewStream`,
//! `RowCounter`) plus the benchmark's output digest.
//!
//! The pass replays `Scenario::run_streaming_telemetry` step by step
//! (`build`, then `Simulation::run_until_with`, then `on_finish`) so
//! set-up and run phase are timed apart.

use std::path::{Path, PathBuf};

use ftgcs::runner::Scenario;
use ftgcs_bench::driver::{cell_key, CellKind};
use ftgcs_bench::spec::SpecFile;
use ftgcs_metrics::stream::{CsvSampleWriter, RowCounter, SkewStream};
use ftgcs_metrics::FaultMask;
use ftgcs_serve::ResultStore;
use ftgcs_sim::observe::{Fanout, Observer};
use ftgcs_sim::time::{SimDuration, SimTime};
use ftgcs_sim::Stopwatch;
use ftgcs_sim::TelemetryReport;
use ftgcs_topology::analysis::diameter;

use crate::observers::{Digest, Skews, Timed};
use crate::setup::{Cell, Setup};
use crate::stats::median;
use crate::workloads;
use crate::{alloc, kernel, Ctx, Pass, Report, Workload, WARM_REPEATS};

/// Recorded `Digest::seal` of each workload at the default seed and
/// full size.
const GRID_DEFAULT_DIGEST: &str = "a54a4a481adf9b34";
const TORUS_DEFAULT_DIGEST: &str = "57f2cf0dd63bd08b";

pub struct Streaming {
    name: &'static str,
    text: String,
    expected: Option<&'static str>,
    cache_root: PathBuf,
    /// The first pass's product; every later pass must reproduce it.
    first: Option<String>,
    kernel_degree: usize,
    kernel_f: usize,
}

impl Streaming {
    pub fn grid(ctx: &Ctx, report: &mut Report) -> Result<Self, String> {
        Self::new(
            "grid_parallel",
            workloads::grid(ctx.seed, ctx.size),
            GRID_DEFAULT_DIGEST,
            ctx,
            report,
        )
    }

    pub fn torus(ctx: &Ctx, report: &mut Report) -> Result<Self, String> {
        Self::new(
            "torus_global",
            workloads::torus(ctx.seed, ctx.size),
            TORUS_DEFAULT_DIGEST,
            ctx,
            report,
        )
    }

    fn new(
        name: &'static str,
        text: String,
        expected: &'static str,
        ctx: &Ctx,
        report: &mut Report,
    ) -> Result<Self, String> {
        let file = SpecFile::parse(&text).map_err(|e| format!("{name}: {e}"))?;
        let base = file.scenario.topology.build();
        report.note(format!(
            "{name}: {} clusters, f={}, seed {}",
            base.node_count(),
            file.scenario.f,
            file.scenario.seed
        ));
        Ok(Streaming {
            name,
            expected: ctx.at_default().then_some(expected),
            kernel_degree: base.max_degree(),
            kernel_f: file.scenario.f,
            text,
            cache_root: ctx.cache_root.clone(),
            first: None,
        })
    }
}

/// Everything a pass needs to check, besides its timings.
struct Run {
    product: String,
    problems: Vec<String>,
}

impl Workload for Streaming {
    fn cells(&self) -> usize {
        1
    }

    fn pass(&mut self, k: usize, traced: bool, report: &mut Report) -> Pass {
        let mut pass = Pass::default();
        let store = ResultStore::new(self.cache_root.join(format!("pass{k}")));
        let t_pass = Stopwatch::start();

        let (cell, setup) = Setup::cell(&self.text, traced);
        let Cell {
            file,
            scenario,
            mut sim,
        } = cell;
        pass.setup_s = setup.total_s();

        let spec = &file.scenario;
        let params = spec
            .params()
            .expect("generated spec has feasible parameters");
        let horizon = spec.duration.resolve(&params);
        let cg = scenario.cluster_graph();
        let nodes = cg.physical().node_count();
        let faulty = scenario.faulty_nodes();
        let warm = 5.0 * params.t_round;
        let csv_path = Path::new("results").join(format!("{}_samples.csv", spec.name));
        std::fs::create_dir_all("results").expect("create results/ in the working directory");
        let mut csv =
            CsvSampleWriter::create(&csv_path, file.csv_stride).expect("create samples csv");
        let mut skew = SkewStream::new(FaultMask::from_nodes(nodes, &faulty)).with_warmup(warm);
        let mut rows = RowCounter::new();
        let mut digest = Digest::new();
        let mut skews = Skews::new(cg, FaultMask::from_nodes(nodes, &faulty), warm);

        // Run phase.
        let until = SimTime::ZERO + SimDuration::from_secs(horizon);
        let a1 = alloc::count();
        let r0 = Stopwatch::start();
        let busy;
        let stats;
        if traced {
            let mut tc = Timed::new(&mut csv);
            let mut ts = Timed::new(&mut skew);
            let mut tr = Timed::new(&mut rows);
            {
                let sinks: Vec<&mut dyn Observer> =
                    vec![&mut tc, &mut ts, &mut tr, &mut digest, &mut skews];
                let mut fan = Fanout::new(sinks);
                sim.run_until_with(until, &mut fan);
                stats = sim.stats();
                fan.on_finish(&stats);
            }
            busy = [tc.busy_s, ts.busy_s, tr.busy_s];
        } else {
            let sinks: Vec<&mut dyn Observer> = vec![&mut csv, &mut skew, &mut rows, &mut digest];
            let mut fan = Fanout::new(sinks);
            sim.run_until_with(until, &mut fan);
            stats = sim.stats();
            fan.on_finish(&stats);
            busy = [0.0; 3];
        }
        pass.run_s = r0.elapsed_secs();
        pass.run_allocs = alloc::count() - a1;
        pass.events = stats.events;
        let telemetry = sim.telemetry();
        drop(sim);
        let mut problems = Vec::new();
        if let Err(e) = csv.finish() {
            problems.push(format!("samples csv: {e}"));
        }

        let run = self.check(&scenario, &file, &stats, digest, &skew, &rows, problems);
        if k == 0 {
            report.note(format!("{}: {}", self.name, run.product.trim_end()));
            report.note(match telemetry.workers {
                Some(w) => format!("resolved workers={w} (parallel scheduler)"),
                None => "resolved workers=1 (serial scheduler)".to_string(),
            });
        }
        pass.wall_s = t_pass.elapsed_secs();
        pass.cell_ms.push(pass.wall_s * 1e3);

        pass.warm_s = cache_round_trip(
            &store,
            &self.text,
            run.product.as_bytes(),
            traced,
            &format!("{} pass {k} (warm)", self.name),
            report,
        );
        report.op(&format!("{} pass {k}", self.name), run.problems);

        if traced {
            let base_d = diameter(scenario.cluster_graph().base());
            setup.report(report);
            report.layer("alloc.run_allocs", pass.run_allocs as f64);
            engine_layers(report, &telemetry, pass.run_s);
            let run_s = pass.run_s;
            report.layer("metrics.csv_writer_busy_s", busy[0]);
            report.layer("metrics.skew_stream_busy_s", busy[1]);
            report.layer("metrics.row_counter_busy_s", busy[2]);
            report.layer("observe.busy_share", busy.iter().sum::<f64>() / run_s);
            report.layer("observe.samples", digest.samples() as f64);
            report.layer("observe.rows", digest.rows() as f64);
            let mid = kernel::trimmed_midpoint_ns(self.kernel_f);
            let trig = kernel::trigger_evaluate_ns(self.kernel_degree, &params);
            report.layer("kernel.trimmed_midpoint_ns", mid);
            report.layer("kernel.trigger_evaluate_ns", trig);
            let est = (mid * rows.count("round") as f64 + trig * rows.count("mode") as f64)
                / (run_s * 1e9);
            report.layer("kernel.est_share", est);
            let viol = skews.violations(&params, base_d, true);
            report.layer(
                "bounds.intra_share",
                skews.intra / params.intra_cluster_skew_bound(),
            );
            report.layer(
                "bounds.local_share",
                skews.local / params.local_skew_bound(base_d),
            );
            report.layer(
                "bounds.global_share",
                skews.global / params.global_skew_bound(base_d),
            );
            report.op(&format!("{} pass {k} (traced bounds)", self.name), viol);
        }
        pass
    }
}

impl Streaming {
    #[allow(clippy::too_many_arguments)] // the pieces of one finished run
    fn check(
        &mut self,
        scenario: &Scenario,
        file: &SpecFile,
        stats: &ftgcs_sim::SimStats,
        digest: Digest,
        skew: &SkewStream,
        rows: &RowCounter,
        mut problems: Vec<String>,
    ) -> Run {
        let params = file.scenario.params().expect("feasible parameters");
        let d = diameter(scenario.cluster_graph().base());
        let bound = params.global_skew_bound(d);
        match skew.max() {
            None => problems.push("no post-warm-up sample reached SkewStream".into()),
            Some(max) if max > bound => problems.push(format!(
                "global skew {max:.3e} s exceeds global_skew_bound({d}) = {bound:.3e} s"
            )),
            Some(_) => {}
        }
        let (samples, rows_seen) = (digest.samples(), digest.rows());
        let row_total: u64 = rows.iter().map(|(_, n)| n).sum();
        if row_total != rows_seen {
            problems.push(format!(
                "RowCounter saw {row_total} rows, the digest {rows_seen}"
            ));
        }
        let sealed = digest.seal(stats);
        let product = format!(
            "digest {sealed} events {} messages {} samples {samples} rows {rows_seen}\n",
            stats.events, stats.messages
        );
        match &self.first {
            None => {
                if let Some(want) = self.expected {
                    if sealed != want {
                        problems.push(format!(
                            "digest {sealed} differs from the recorded default-seed digest {want}"
                        ));
                    }
                }
                self.first = Some(product.clone());
            }
            Some(first) if *first != product => problems.push(format!(
                "output differs between repetitions: {} vs {}",
                first.trim_end(),
                product.trim_end()
            )),
            Some(_) => {}
        }
        Run { product, problems }
    }
}

/// The engine and parallel-executor metrics of one telemetry report.
pub fn engine_layers(report: &mut Report, t: &TelemetryReport, run_s: f64) {
    let d = &t.deterministic;
    report.layer("engine.run_s", run_s);
    report.layer("engine.ns_per_event", run_s * 1e9 / d.events.max(1) as f64);
    report.layer("engine.events", d.events as f64);
    report.layer("engine.messages", d.messages_delivered as f64);
    report.layer("engine.timers_set", d.timers_set as f64);
    report.layer("engine.timers_fired", d.timers_fired as f64);
    let w = &t.wall;
    let total = w.total_secs.max(f64::MIN_POSITIVE);
    report.layer("par.barrier_share", w.barrier_secs / total);
    report.layer("par.merge_share", w.merge_secs / total);
    report.layer("par.execute_share", w.execute_secs / total);
    let g = &t.diagnostics;
    let windows = g.shards_dealt + g.shards_stolen;
    report.layer(
        "par.events_per_shard_window",
        if windows > 0 {
            d.events as f64 / windows as f64
        } else {
            0.0
        },
    );
    report.layer("par.stolen_share", g.stolen_share);
    report.layer(
        "par.cross_shard_share",
        d.cross_shard_staged as f64 / d.messages_delivered.max(1) as f64,
    );
}

/// The result cache for a one-cell workload, in a fresh store: the
/// cell must miss, its product is published, then the warm pass runs
/// `WARM_REPEATS` times — the cell re-resolved from its spec text alone
/// (parse, canonical print, content key) and its product read back and
/// compared. Returns the median warm wall time.
pub fn cache_round_trip(
    store: &ResultStore,
    text: &str,
    product: &[u8],
    traced: bool,
    what: &str,
    report: &mut Report,
) -> f64 {
    let mut problems = Vec::new();
    let file = SpecFile::parse(text).expect("generated spec parses");
    let key = cell_key(&file, CellKind::Run);
    if store.is_done(&key) {
        problems.push("the fresh cache already held the cell".to_string());
    }
    if let Ok(staging) = store.begin(&key) {
        if std::fs::write(staging.dir().join("product.txt"), product).is_ok() {
            let _ = staging.publish();
        }
    }
    let mut walls = Vec::with_capacity(WARM_REPEATS);
    for _ in 0..WARM_REPEATS {
        let t = Stopwatch::start();
        let answer = SpecFile::parse(text).ok().and_then(|file| {
            let key = cell_key(&file, CellKind::Run);
            store
                .is_done(&key)
                .then(|| store.read(&key, "product.txt").ok())?
        });
        walls.push(t.elapsed_secs());
        match answer {
            Some(p) if p == product => {}
            Some(_) => problems.push("the cached product differs from the run's".to_string()),
            None => problems.push("the warm pass missed the cache".to_string()),
        }
    }
    let _ = std::fs::remove_dir_all(store.root());
    report.op(what, problems);
    let warm_s = median(&walls);
    if traced {
        report.layer("serve.lookup_ms", warm_s * 1e3);
        report.layer("serve.cache_hits", 1.0);
        report.layer("serve.cache_misses", 1.0);
        report.layer("serve.hit_ratio", 1.0);
    }
    warm_s
}
