//! `perfbench` — the repository benchmark.
//!
//! ```sh
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]
//! perfbench run-cell --row        # sweep child: spec text on stdin
//! ```
//!
//! Normally started through `run.py`, which builds this package, gives
//! every run a fresh working directory and result-cache directory, and
//! prints the result. Each workload is generated from `--seed`; the
//! program receives only the generated spec text. Every layer is timed
//! from outside, around calls into the program's public functions; the
//! program itself carries no benchmark tracing. See README.md for why
//! each workload exists and what every metric means.
//!
//! Output: `perfbench: <line>` lines for humans, then one
//! `perfbench-result: <json>` line. With `--trace 0` the JSON carries
//! the end-to-end metrics (untraced passes only); with `--trace 1` it
//! carries the per-layer metrics, taken from traced passes that
//! alternate with untraced ones so the tracing overhead is measured too.

mod alloc;
mod kernel;
mod mobile;
mod observers;
mod setup;
mod stats;
mod stream;
mod sweep;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use ftgcs_sim::Stopwatch;
use stats::{median, quantile, tail};
use workloads::Size;

/// Every end-to-end metric, with its unit, in print order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("events_per_s", "1/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("allocs_per_event", "count"),
    ("cells_per_s", "1/s"),
    ("cell_p50_ms", "ms"),
    ("cell_tail_ms", "ms"),
];

/// Every per-layer metric, with its unit. A workload on which a layer
/// does no work reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("par.barrier_share", "share"),
    ("par.merge_share", "share"),
    ("par.execute_share", "share"),
    ("par.events_per_shard_window", "count"),
    ("par.stolen_share", "share"),
    ("par.cross_shard_share", "share"),
    ("engine.run_s", "s"),
    ("engine.ns_per_event", "ns"),
    ("engine.events", "count"),
    ("engine.messages", "count"),
    ("engine.timers_set", "count"),
    ("engine.timers_fired", "count"),
    ("alloc.setup_allocs", "count"),
    ("alloc.run_allocs", "count"),
    ("observe.samples", "count"),
    ("observe.rows", "count"),
    ("metrics.skew_stream_busy_s", "s"),
    ("metrics.csv_writer_busy_s", "s"),
    ("metrics.row_counter_busy_s", "s"),
    ("observe.busy_share", "share"),
    ("kernel.trimmed_midpoint_ns", "ns"),
    ("kernel.trigger_evaluate_ns", "ns"),
    ("kernel.est_share", "share"),
    ("spec.parse_s", "s"),
    ("spec.from_spec_s", "s"),
    ("topology.augment_s", "s"),
    ("engine.build_s", "s"),
    ("serve.cell_wall_ms", "ms"),
    ("serve.cell_compute_ms", "ms"),
    ("serve.overhead_share", "share"),
    ("serve.lookup_ms", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.hit_ratio", "share"),
    ("serve.retries", "count"),
    ("serve.warm_sweep_s", "s"),
    ("bounds.intra_share", "share"),
    ("bounds.local_share", "share"),
    ("bounds.global_share", "share"),
    ("trace.events_per_s_untraced", "1/s"),
    ("trace.events_per_s_traced", "1/s"),
    ("trace.overhead_share", "share"),
];

/// Warm passes per pass; the pass reports their median wall time.
pub const WARM_REPEATS: usize = 5;

/// The workloads `--workload` accepts.
pub const WORKLOADS: &[&str] = &[
    "grid_parallel",
    "torus_global",
    "mobile_attack",
    "cell_sweep",
];

/// One pass of a workload: its cold work, timed from outside, plus the
/// warm re-read of its results from a filled result cache.
#[derive(Debug, Default, Clone)]
pub struct Pass {
    /// Wall time of the cold work.
    pub wall_s: f64,
    /// Spec parse + `Scenario::from_spec` + `Scenario::build`, summed
    /// over the pass's cells.
    pub setup_s: f64,
    /// Host time of the run phase (the time `events` took).
    pub run_s: f64,
    /// Simulated events dispatched in the run phase.
    pub events: u64,
    /// Heap allocations made during the run phase.
    pub run_allocs: u64,
    /// Latency of every cell of the pass, in milliseconds.
    pub cell_ms: Vec<f64>,
    /// Median wall time of the warm passes (every cell answered from
    /// the cache).
    pub warm_s: f64,
}

impl Pass {
    fn events_per_s(&self) -> f64 {
        self.events as f64 / self.run_s.max(f64::MIN_POSITIVE)
    }
}

/// What one run found: operations attempted and failed, the reasons,
/// and the per-layer samples of the traced passes.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub notes: Vec<String>,
    layers: BTreeMap<&'static str, Vec<f64>>,
}

impl Report {
    /// Records one operation (a cell run or a cache answer) and the
    /// problems its checks found; any problem makes it a failure.
    pub fn op(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                self.errors.push(format!("{what}: {p}"));
            }
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Adds one sample of a per-layer metric; the run reports the
    /// median of its samples.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|&(n, _)| n == name), "{name}");
        self.layers.entry(name).or_default().push(value);
    }
}

/// The run's shared context.
pub struct Ctx {
    pub seed: u64,
    pub size: Size,
    /// Root of the fresh result-cache directory (`FTGCS_CACHE_DIR`).
    pub cache_root: PathBuf,
}

impl Ctx {
    /// Whether the workload's recorded default-seed outputs apply.
    pub fn at_default(&self) -> bool {
        self.seed == workloads::DEFAULT_SEED && self.size == Size::Full
    }
}

/// A workload: one pass at a time, traced or not.
pub trait Workload {
    /// Runs pass `k` (0 is the untimed warm-up) and checks its outputs.
    fn pass(&mut self, k: usize, traced: bool, report: &mut Report) -> Pass;
    /// Cells per pass.
    fn cells(&self) -> usize;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: workloads::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => out.workload.clone_from(value),
            "--seed" => out.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace is 0 or 1".into()),
                }
            }
            "--size" => {
                out.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err("--size is full or tiny".into()),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(out)
}

/// Runs passes until `seconds` of timed passes have elapsed (at least
/// `min_passes`), after one untimed warm-up pass. In traced mode the
/// timed passes alternate untraced and traced.
fn measure(
    w: &mut dyn Workload,
    seconds: f64,
    traced_mode: bool,
    report: &mut Report,
) -> (Vec<Pass>, Vec<Pass>) {
    const MIN_PASSES: usize = 3;
    w.pass(0, traced_mode, report);
    let start = Stopwatch::start();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut k = 1;
    while start.elapsed_secs() < seconds || plain.len() < MIN_PASSES {
        let trace_this = traced_mode && k % 2 == 0;
        let p = w.pass(k, trace_this, report);
        if trace_this {
            traced.push(p);
        } else {
            plain.push(p);
        }
        k += 1;
    }
    if traced_mode && traced.is_empty() {
        traced.push(w.pass(k, true, report));
    }
    (plain, traced)
}

fn end_to_end(passes: &[Pass], cells: usize, report: &mut Report) -> Vec<(&'static str, f64)> {
    let pick = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let lat: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.cell_ms.iter().copied())
        .collect();
    let (p, tail_ms) = tail(&lat);
    report.note(format!(
        "cell_tail_ms is the p{p} of {} cell latencies{}",
        lat.len(),
        if p == 50.0 && lat.len() < 20 {
            " (fewer than 20 samples: no higher percentile has ten beyond it)"
        } else {
            ""
        }
    ));
    let wall = pick(&|p| p.wall_s);
    let rates: Vec<f64> = passes.iter().map(Pass::events_per_s).collect();
    report.note(format!(
        "within-run spread of events_per_s over {} passes: IQR = {:.1}% of the median; \
         per pass (M/s): {}",
        rates.len(),
        100.0 * (quantile(&rates, 0.75) - quantile(&rates, 0.25)) / median(&rates),
        rates
            .iter()
            .map(|r| format!("{:.2}", r / 1e6))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    vec![
        ("events_per_s", pick(&Pass::events_per_s)),
        ("wall_s", wall),
        ("setup_s", pick(&|p| p.setup_s)),
        ("peak_rss_mb", alloc::peak_rss_mb()),
        (
            "allocs_per_event",
            pick(&|p| p.run_allocs as f64 / p.events.max(1) as f64),
        ),
        ("cells_per_s", cells as f64 / wall),
        ("cell_p50_ms", median(&lat)),
        ("cell_tail_ms", tail_ms),
    ]
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let mut s = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" }
        );
    }
    s.push('}');
    s
}

fn run(args: &Args) -> Result<Report, String> {
    let cache_root = std::env::var_os("FTGCS_CACHE_DIR")
        .map(PathBuf::from)
        .ok_or("FTGCS_CACHE_DIR must name a fresh directory (run.py sets it)")?;
    let ctx = Ctx {
        seed: args.seed,
        size: args.size,
        cache_root,
    };
    let mut report = Report::default();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    report.note(format!("nproc={nproc}"));
    let mut w: Box<dyn Workload> = match args.workload.as_str() {
        "grid_parallel" => Box::new(stream::Streaming::grid(&ctx, &mut report)?),
        "torus_global" => Box::new(stream::Streaming::torus(&ctx, &mut report)?),
        "mobile_attack" => Box::new(mobile::Mobile::new(&ctx, &mut report)?),
        _ => Box::new(sweep::Sweep::new(&ctx, &mut report)?),
    };
    let (plain, traced) = measure(w.as_mut(), args.seconds, args.trace, &mut report);
    let cells = w.cells();
    drop(w);
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let warm = median(
        &plain
            .iter()
            .chain(&traced)
            .map(|p| p.warm_s)
            .collect::<Vec<_>>(),
    );
    report.note(format!("warm sweep (serve.warm_sweep_s) = {warm} s"));
    if args.trace {
        for p in &traced {
            report.layer("serve.warm_sweep_s", p.warm_s);
        }
        let untraced = median(&plain.iter().map(Pass::events_per_s).collect::<Vec<_>>());
        let with = median(&traced.iter().map(Pass::events_per_s).collect::<Vec<_>>());
        report.layer("trace.events_per_s_untraced", untraced);
        report.layer("trace.events_per_s_traced", with);
        report.layer("trace.overhead_share", 1.0 - with / untraced);
        for &(name, unit) in PER_LAYER {
            let v = report.layers.get(name).map_or(0.0, |v| median(v));
            metrics.push((name, v, unit));
        }
    } else {
        let e2e = end_to_end(&plain, cells, &mut report);
        for (&(name, unit), (n2, v)) in END_TO_END.iter().zip(e2e) {
            debug_assert_eq!(name, n2);
            metrics.push((name, v, unit));
        }
    }
    report.note(format!(
        "{} timed pass(es) untraced, {} traced",
        plain.len(),
        traced.len()
    ));
    for (name, value, unit) in &metrics {
        println!("perfbench: {name} = {value} {unit}");
    }
    println!(
        "perfbench: error_rate = {} ({} failed of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    let json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted.max(1),
        report.failed,
        json_metrics(&metrics)
    );
    for line in &report.notes {
        println!("perfbench: {line}");
    }
    for e in &report.errors {
        println!("perfbench: CHECK FAILED: {e}");
    }
    println!("perfbench-result: {json}");
    Ok(report)
}

/// The sweep child: runs one cell exactly as `xp run-cell --row` does,
/// then reports its heap allocations on stderr for the parent to read.
fn run_cell(args: &[String]) -> ExitCode {
    if args != ["--row"] {
        eprintln!("perfbench run-cell: only --row is supported");
        return ExitCode::FAILURE;
    }
    let before = alloc::count();
    match ftgcs_bench::driver::run_cell_cmd(true, None) {
        Ok(()) => {
            eprintln!("{}{}", sweep::CHILD_ALLOCS, alloc::count() - before);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench run-cell: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("run-cell") {
        return run_cell(&args[1..]);
    }
    let parsed = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&parsed) {
        Ok(report) if report.failed == 0 => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
