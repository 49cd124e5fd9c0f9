//! `mobile_attack`: the `f7_mobile_adversary` analysis, called through
//! `exp::find`, one analysis per pass.
//!
//! The analysis runs its grid of scenarios internally and reports no
//! event count, so the benchmark rebuilds the same grid from outside
//! once per process (the replica): it streams each scenario through
//! the skew checker, counts its events, and cross-checks the skews it
//! measures against the analysis's own CSV. The replica's set-ups are
//! also what `setup_s` times.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ftgcs::runner::Scenario;
use ftgcs::spec::{DurationSpec, ScenarioSpec, TopologySpec};
use ftgcs::FaultKind;
use ftgcs_bench::exp;
use ftgcs_bench::spec::SpecFile;
use ftgcs_metrics::stream::RowCounter;
use ftgcs_metrics::FaultMask;
use ftgcs_serve::ResultStore;
use ftgcs_sim::observe::{Fanout, Observer};
use ftgcs_sim::time::{SimDuration, SimTime};
use ftgcs_sim::Stopwatch;

use crate::observers::Skews;
use crate::setup::Setup;
use crate::stream::cache_round_trip;
use crate::{alloc, kernel, workloads, Ctx, Pass, Report, Workload};

/// The checked-in output the analysis must reproduce byte for byte at
/// the default seed.
const REFERENCE_CSV: &[u8] = include_bytes!("../../results/f7_mobile_adversary.csv");
const CSV_PATH: &str = "results/f7_mobile_adversary.csv";

/// One scenario of the analysis's grid, as spec text.
struct ReplicaCell {
    text: String,
    /// CSV data row whose values this scenario's skews must match.
    row: usize,
    /// The static twin (its local skew is the `static local (s)`
    /// column), or the mobile cell (`intra (s)` and `local (s)`).
    twin: bool,
}

pub struct Mobile {
    text: String,
    at_default: bool,
    cells: Vec<ReplicaCell>,
    events: u64,
    /// Per-layer values the replica measured (deterministic counts).
    layers: Vec<(&'static str, f64)>,
    /// `round` and `mode` rows of the grid, which the kernel estimate
    /// multiplies by the kernels' per-call costs.
    kernel_rows: (u64, u64),
    cache_root: std::path::PathBuf,
    first: Option<Vec<u8>>,
}

/// The analysis's grid: two attacks × two hop lengths on a 3-cluster
/// line, each with a static twin (cell `i` at `seed + i`, its twin at
/// `seed + i + 500`), exactly as `ftgcs_bench::exp::f7` assembles it.
fn replica(file: &SpecFile) -> Vec<ReplicaCell> {
    let params = file.params_with_f(1);
    let horizon = params.suggested_horizon(2);
    let attacks = [
        FaultKind::TwoFaced {
            amplitude: 0.9 * params.phi * params.tau3,
        },
        FaultKind::SkewPuller {
            offset: -2.0 * params.e,
        },
    ];
    let mut out = Vec::new();
    let mut cell = 0u64;
    for kind in attacks {
        for hops in [6.0, 4.0] {
            let mut s = ScenarioSpec::new("f7cell", TopologySpec::Line(3), params.f);
            s.cluster_size = params.cluster_size;
            (s.rho, s.d, s.u) = file.env();
            s.seed = file.seed() + cell;
            s.duration = DurationSpec::Secs(horizon);
            s.mobile.push((1, kind.clone(), horizon / hops));
            let mut twin = s.clone();
            twin.mobile.clear();
            twin.seed = file.seed() + cell + 500;
            twin.faults.push((0, kind.clone()));
            out.push(ReplicaCell {
                text: s.print(),
                row: cell as usize,
                twin: false,
            });
            out.push(ReplicaCell {
                text: twin.print(),
                row: cell as usize,
                twin: true,
            });
            cell += 1;
        }
    }
    out
}

/// Streams one replica scenario; returns its skews and counters
/// (telemetry always on: the replica is never timed).
fn run_replica(text: &str) -> (Skews, RowCounter, ftgcs_sim::TelemetryReport) {
    let file = SpecFile::parse(text).expect("replica spec parses");
    let mut scenario = Scenario::from_spec(&file.scenario).expect("replica spec assembles");
    scenario.telemetry(true);
    let params = file.scenario.params().expect("feasible");
    let cg = scenario.cluster_graph();
    let mask = FaultMask::from_nodes(cg.physical().node_count(), &scenario.faulty_nodes());
    let mut skews = Skews::new(cg, mask, 5.0 * params.t_round);
    let mut sim = scenario.build();
    let horizon = file.scenario.duration.resolve(&params);
    let mut rows = RowCounter::new();
    {
        let sinks: Vec<&mut dyn Observer> = vec![&mut skews, &mut rows];
        let mut fan = Fanout::new(sinks);
        sim.run_until_with(SimTime::ZERO + SimDuration::from_secs(horizon), &mut fan);
        fan.on_finish(&sim.stats());
    }
    (skews, rows, sim.telemetry())
}

/// The value of `column` in data row `row` of a CSV table.
fn csv_cell(csv: &str, row: usize, column: &str) -> Option<String> {
    let mut lines = csv.lines();
    let col = lines.next()?.split(',').position(|h| h == column)?;
    lines.nth(row)?.split(',').nth(col).map(str::to_string)
}

impl Mobile {
    pub fn new(ctx: &Ctx, report: &mut Report) -> Result<Self, String> {
        let text = workloads::mobile(ctx.seed);
        let file = SpecFile::parse(&text).map_err(|e| format!("mobile_attack: {e}"))?;
        if exp::find("f7_mobile_adversary").is_none() {
            return Err("the f7_mobile_adversary analysis is missing".into());
        }
        report.note(format!(
            "mobile_attack: f7_mobile_adversary at spec seed {}",
            file.seed()
        ));
        report.note("resolved workers=1 (the analysis uses the global scheduler)".into());
        let cells = replica(&file);
        Ok(Mobile {
            text,
            at_default: ctx.at_default(),
            cells,
            events: 0,
            layers: Vec::new(),
            kernel_rows: (0, 0),
            cache_root: ctx.cache_root.clone(),
            first: None,
        })
    }

    /// Runs the replica once (in the warm-up pass): counts the analysis's events and checks
    /// the skews against the analysis's CSV and the paper's bounds.
    fn check_replica(&mut self, csv: &str, report: &mut Report) {
        let params = workloads::params(1);
        let mut totals = [0u64; 8];
        let (mut intra, mut local, mut global) = (0.0f64, 0.0f64, 0.0f64);
        for (i, cell) in self.cells.iter().enumerate() {
            let (skews, rows, telemetry) = run_replica(&cell.text);
            let d = &telemetry.deterministic;
            totals[4] += d.samples;
            totals[5] += rows.iter().map(|(_, n)| n).sum::<u64>();
            totals[6] += rows.count("round");
            totals[7] += rows.count("mode");
            totals[0] += d.events;
            totals[1] += d.messages_delivered;
            totals[2] += d.timers_set;
            totals[3] += d.timers_fired;
            // The analysis claims the intra-cluster and local bounds
            // (its own asserts); the global bound is reported, not
            // enforced: a hopping adversary drives the never-faulty
            // nodes past it (see README.md).
            let mut problems = skews.violations(&params, 2, false);
            let columns: &[(&str, f64)] = if cell.twin {
                &[("static local (s)", skews.local)]
            } else {
                &[("intra (s)", skews.intra), ("local (s)", skews.local)]
            };
            for &(column, value) in columns {
                let ours = format!("{value:.3e}");
                match csv_cell(csv, cell.row, column) {
                    Some(theirs) if theirs == ours => {}
                    theirs => problems.push(format!(
                        "replica {column} = {ours}, the analysis's CSV says {theirs:?}"
                    )),
                }
            }
            intra = intra.max(skews.intra);
            local = local.max(skews.local);
            global = global.max(skews.global);
            report.op(&format!("mobile_attack replica scenario {i}"), problems);
        }
        report.note(format!(
            "mobile_attack: replica global skew {global:.3e} s = {:.2} x global_skew_bound(2) \
             (reported, not enforced)",
            global / params.global_skew_bound(2)
        ));
        self.layers = vec![
            (
                "bounds.intra_share",
                intra / params.intra_cluster_skew_bound(),
            ),
            ("bounds.local_share", local / params.local_skew_bound(2)),
            ("bounds.global_share", global / params.global_skew_bound(2)),
            ("engine.events", totals[0] as f64),
            ("engine.messages", totals[1] as f64),
            ("engine.timers_set", totals[2] as f64),
            ("engine.timers_fired", totals[3] as f64),
            ("observe.samples", totals[4] as f64),
            ("observe.rows", totals[5] as f64),
        ];
        self.kernel_rows = (totals[6], totals[7]);
        self.events = totals[0];
    }
}

impl Workload for Mobile {
    fn cells(&self) -> usize {
        1
    }

    fn pass(&mut self, k: usize, traced: bool, report: &mut Report) -> Pass {
        let mut pass = Pass::default();
        let store = ResultStore::new(self.cache_root.join(format!("pass{k}")));

        // Set-up, timed on the replica's scenarios (the analysis
        // assembles the same ones internally).
        let setup = Setup::cells(self.cells.iter().map(|c| c.text.as_str()), traced);
        pass.setup_s = setup.total_s();

        // The analysis itself.
        let a1 = alloc::count();
        let t = Stopwatch::start();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let file = SpecFile::parse(&self.text).expect("generated spec parses");
            let name = file.analysis.clone().expect("the spec names its analysis");
            let analysis = exp::find(&name).expect("analysis exists");
            analysis(&file);
        }));
        pass.run_s = t.elapsed_secs();
        pass.wall_s = pass.run_s;
        pass.run_allocs = alloc::count() - a1;
        pass.cell_ms.push(pass.wall_s * 1e3);

        let mut problems = Vec::new();
        if outcome.is_err() {
            problems.push("the analysis panicked (one of its own asserts failed)".to_string());
        }
        let csv = std::fs::read(CSV_PATH).unwrap_or_default();
        if self.at_default && csv != REFERENCE_CSV {
            problems.push(format!(
                "{CSV_PATH} differs from the checked-in reference at the default seed"
            ));
        }
        match &self.first {
            None => self.first = Some(csv.clone()),
            Some(first) if *first != csv => {
                problems.push("output CSV differs between repetitions".to_string());
            }
            Some(_) => {}
        }
        report.op(&format!("mobile_attack pass {k}"), problems);
        if k == 0 {
            self.check_replica(&String::from_utf8_lossy(&csv), report);
        }
        pass.events = self.events;

        pass.warm_s = cache_round_trip(
            &store,
            &self.text,
            &csv,
            traced,
            &format!("mobile_attack pass {k} (warm)"),
            report,
        );

        if traced {
            setup.report(report);
            report.layer("alloc.run_allocs", pass.run_allocs as f64);
            for &(name, v) in &self.layers {
                report.layer(name, v);
            }
            report.layer("engine.run_s", pass.run_s);
            report.layer(
                "engine.ns_per_event",
                pass.run_s * 1e9 / self.events.max(1) as f64,
            );
            let mid = kernel::trimmed_midpoint_ns(1);
            let trig = kernel::trigger_evaluate_ns(2, &workloads::params(1));
            report.layer("kernel.trimmed_midpoint_ns", mid);
            report.layer("kernel.trigger_evaluate_ns", trig);
            let (round, mode) = self.kernel_rows;
            report.layer(
                "kernel.est_share",
                (mid * round as f64 + trig * mode as f64) / (pass.run_s * 1e9),
            );
        }
        pass
    }
}
