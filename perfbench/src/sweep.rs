//! `cell_sweep`: short streaming cells through the multi-process sweep
//! executor (`run_indexed` + `CellRunner` + `ResultStore`), first
//! against an empty cache, then again against the filled one.
//!
//! The pass replays the parallel branch of `xp sweep` with a timer
//! around each call into `ftgcs_serve`. The children are this binary's
//! `run-cell --row` mode, which calls the same `run_cell_cmd` as
//! `xp run-cell --row`.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use ftgcs_bench::driver::{self, cell_key, CellKind, SweepAxis, SweepOptions};
use ftgcs_bench::spec::SpecFile;
use ftgcs_metrics::Table;
use ftgcs_serve::{run_indexed, CellRunner, ResultStore};
use ftgcs_sim::Stopwatch;

use crate::observers::fnv;
use crate::setup::Setup;
use crate::stats::median;
use crate::workloads;
use crate::{kernel, Ctx, Pass, Report, Workload, WARM_REPEATS};

/// Prefix of the stderr line on which a child reports its allocations.
pub const CHILD_ALLOCS: &str = "perfbench-cell allocs=";

/// Recorded digest of the sweep's CSV at the default seed, full size.
const DEFAULT_DIGEST: &str = "dae82901781b269d";

const HEADERS: [&str; 6] = [
    "nodes",
    "events",
    "messages",
    "skew max (s)",
    "skew mean (s)",
    "skew p99 (s)",
];

struct Cell {
    values: Vec<String>,
    file: SpecFile,
    /// Canonical spec text: what the child receives.
    canonical: String,
    global_bound: f64,
}

/// What the pool returns for one cell.
struct CellResult {
    line: String,
    cached: bool,
    lookup_s: f64,
    cell_s: f64,
    attempts: u32,
    allocs: u64,
}

pub struct Sweep {
    axes: Vec<SweepAxis>,
    cells: Vec<Cell>,
    reference_csv: String,
    expected: Option<&'static str>,
    cache_root: PathBuf,
    runner: CellRunner,
    jobs: usize,
    first: Option<String>,
}

/// One `row.tsv` line: child wall, events, then the six table fields.
fn parse_row(line: &str) -> Result<(f64, u64, Vec<String>), String> {
    let parts: Vec<&str> = line.trim_end_matches('\n').split('\t').collect();
    if parts.len() != 8 {
        return Err(format!("malformed row ({} of 8 fields)", parts.len()));
    }
    let wall = parts[0]
        .parse()
        .map_err(|e| format!("wall {:?}: {e}", parts[0]))?;
    let events = parts[1]
        .parse()
        .map_err(|e| format!("events {:?}: {e}", parts[1]))?;
    Ok((
        wall,
        events,
        parts[2..].iter().map(ToString::to_string).collect(),
    ))
}

impl Sweep {
    pub fn new(ctx: &Ctx, report: &mut Report) -> Result<Self, String> {
        let axes: Vec<SweepAxis> = workloads::sweep_axes(ctx.seed, ctx.size)
            .into_iter()
            .map(|(key, values)| SweepAxis {
                key: key.to_string(),
                values,
            })
            .collect();
        // Expand like `xp sweep`: the base text with one `key value`
        // line appended per axis, the last axis varying fastest.
        let total: usize = axes.iter().map(|a| a.values.len()).product();
        let mut cells = Vec::with_capacity(total);
        let mut index = vec![0usize; axes.len()];
        for _ in 0..total {
            let mut text = workloads::SWEEP_BASE.to_string();
            let mut values = Vec::new();
            for (a, axis) in axes.iter().enumerate() {
                let value = &axis.values[index[a]];
                text.push_str(&format!("\n{} {value}", axis.key));
                values.push(value.clone());
            }
            let file = SpecFile::parse(&text).map_err(|e| format!("cell {values:?}: {e}"))?;
            let params = file.scenario.params().map_err(|e| e.to_string())?;
            cells.push(Cell {
                values,
                canonical: file.print(),
                global_bound: params.global_skew_bound(2),
                file,
            });
            for a in (0..axes.len()).rev() {
                index[a] += 1;
                if index[a] < axes[a].values.len() {
                    break;
                }
                index[a] = 0;
            }
        }

        // The reference: the in-process sequential sweep of the same
        // base and axes, as `xp sweep` without `--parallel` runs it.
        let base_path = Path::new("cell_sweep.spec");
        std::fs::write(base_path, workloads::SWEEP_BASE).map_err(|e| e.to_string())?;
        driver::sweep_file_with(
            base_path,
            &axes,
            &SweepOptions {
                parallel: false,
                jobs: 1,
            },
        )?;
        let reference_csv = std::fs::read_to_string("results/cell_sweep_sweep.csv")
            .map_err(|e| format!("reference sweep csv: {e}"))?;

        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let jobs = nproc.min(total);
        report.note(format!("cell_sweep: {total} cells, --jobs {jobs}"));
        report.note(format!(
            "resolved workers={jobs} (sweep jobs; cells use the global scheduler)"
        ));
        Ok(Sweep {
            axes,
            cells,
            reference_csv,
            expected: ctx.at_default().then_some(DEFAULT_DIGEST),
            cache_root: ctx.cache_root.clone(),
            runner: CellRunner {
                binary: std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
                retries: 2,
            },
            jobs,
            first: None,
        })
    }

    /// One sweep over the pool: every cell looked up in `store` first,
    /// run as a child on a miss, and published.
    fn sweep(&self, store: &ResultStore) -> (f64, Vec<Result<CellResult, String>>) {
        let t = Stopwatch::start();
        let results = run_indexed(
            self.cells.len(),
            self.jobs,
            |i| {
                let cell = &self.cells[i];
                let l0 = Stopwatch::start();
                let key = cell_key(&cell.file, CellKind::SweepRow);
                if store.is_done(&key) {
                    if let Ok(Ok(line)) = store.read(&key, "row.tsv").map(String::from_utf8) {
                        return Ok(CellResult {
                            line,
                            cached: true,
                            lookup_s: l0.elapsed_secs(),
                            cell_s: l0.elapsed_secs(),
                            attempts: 0,
                            allocs: 0,
                        });
                    }
                }
                let lookup_s = l0.elapsed_secs();
                let allocs = Mutex::new(0u64);
                let on_line = |line: &str| {
                    if let Some(n) = line.strip_prefix(CHILD_ALLOCS).and_then(|n| n.parse().ok()) {
                        *allocs.lock().expect("alloc count lock") = n;
                    }
                };
                let c0 = Stopwatch::start();
                let outcome = self
                    .runner
                    .run_cell(&["--row"], &cell.canonical, Some(&on_line))?;
                if let Ok(staging) = store.begin(&key) {
                    if std::fs::write(staging.dir().join("row.tsv"), &outcome.stdout).is_ok() {
                        let _ = staging.publish();
                    } else {
                        staging.discard();
                    }
                }
                let allocs = *allocs.lock().expect("alloc count lock");
                Ok(CellResult {
                    line: outcome.stdout,
                    cached: false,
                    lookup_s,
                    cell_s: c0.elapsed_secs(),
                    attempts: outcome.attempts,
                    allocs,
                })
            },
            |_, _| {},
        );
        (t.elapsed_secs(), results)
    }

    /// The sweep CSV the results make, checked cell by cell.
    fn table(
        &self,
        results: &[Result<CellResult, String>],
        want_cached: bool,
        what: &str,
        report: &mut Report,
    ) -> String {
        let mut headers: Vec<&str> = self.axes.iter().map(|a| a.key.as_str()).collect();
        headers.extend_from_slice(&HEADERS);
        let mut table = Table::new(&headers);
        for (cell, r) in self.cells.iter().zip(results) {
            let mut problems = Vec::new();
            let mut row = cell.values.clone();
            match r.as_ref().map_err(Clone::clone).and_then(|c| {
                if c.cached != want_cached {
                    problems.push(format!(
                        "cache {} expected",
                        if want_cached { "hit" } else { "miss" }
                    ));
                }
                parse_row(&c.line)
            }) {
                Ok((_, _, fields)) => {
                    match fields[3].parse::<f64>() {
                        Ok(max) if max <= cell.global_bound => {}
                        _ => problems.push(format!(
                            "global skew {} s is not within global_skew_bound(2) = {:.3e} s",
                            fields[3], cell.global_bound
                        )),
                    }
                    row.extend(fields);
                }
                Err(e) => {
                    problems.push(e);
                    row.extend(std::iter::repeat_n("?".to_string(), HEADERS.len()));
                }
            }
            report.op(
                &format!("cell_sweep {what} cell {}", cell.values.join("/")),
                problems,
            );
            table.row(&row);
        }
        table.to_csv()
    }
}

impl Workload for Sweep {
    fn cells(&self) -> usize {
        self.cells.len()
    }

    fn pass(&mut self, k: usize, traced: bool, report: &mut Report) -> Pass {
        let mut pass = Pass::default();

        // Set-up of every cell, in this process (each child repeats it
        // for its own cell).
        let setup = Setup::cells(self.cells.iter().map(|c| c.canonical.as_str()), traced);
        pass.setup_s = setup.total_s();

        let store = ResultStore::new(self.cache_root.join(format!("pass{k}")));
        let (cold_s, cold) = self.sweep(&store);
        let cold_csv = self.table(&cold, false, &format!("pass {k} cold"), report);
        let mut problems = Vec::new();
        let mut warm_walls = Vec::with_capacity(WARM_REPEATS);
        let mut warm = Vec::new();
        for _ in 0..WARM_REPEATS {
            let (warm_s, results) = self.sweep(&store);
            warm_walls.push(warm_s);
            if self.table(&results, true, &format!("pass {k} warm"), report) != cold_csv {
                problems.push("rows served from the cache differ from the computed rows".into());
            }
            warm = results;
        }
        let _ = std::fs::remove_dir_all(store.root());
        pass.wall_s = cold_s;
        pass.warm_s = median(&warm_walls);
        if cold_csv != self.reference_csv {
            problems.push("parallel sweep rows differ from the in-process sequential sweep".into());
        }
        let digest = fnv(cold_csv.as_bytes());
        match &self.first {
            None => {
                if let Some(want) = self.expected {
                    if digest != want {
                        problems.push(format!(
                            "sweep digest {digest} differs from the recorded default-seed digest {want}"
                        ));
                    }
                }
                report.note(format!("cell_sweep: rows digest {digest}"));
                self.first = Some(digest);
            }
            Some(first) if *first != digest => {
                problems.push("sweep rows differ between repetitions".into());
            }
            Some(_) => {}
        }
        report.op(&format!("cell_sweep pass {k} rows"), problems);

        let mut compute = Vec::new();
        let (mut messages, mut retries, mut misses, mut max_share) = (0u64, 0u64, 0u64, 0.0f64);
        for (cell, r) in self.cells.iter().zip(&cold) {
            let Ok(r) = r else { continue };
            if let Ok((wall, events, fields)) = parse_row(&r.line) {
                pass.run_s += wall;
                pass.events += events;
                compute.push(wall * 1e3);
                messages += fields[2].parse::<u64>().unwrap_or(0);
                if let Ok(max) = fields[3].parse::<f64>() {
                    max_share = max_share.max(max / cell.global_bound);
                }
            }
            pass.run_allocs += r.allocs;
            pass.cell_ms.push(r.cell_s * 1e3);
            retries += u64::from(r.attempts.saturating_sub(1));
            misses += u64::from(!r.cached);
        }

        if traced {
            let hits = warm.iter().flatten().filter(|r| r.cached).count();
            let lookups: Vec<f64> = warm.iter().flatten().map(|r| r.lookup_s * 1e3).collect();
            let cell_total: f64 = cold.iter().flatten().map(|r| r.cell_s).sum();
            report.layer("serve.cell_wall_ms", median(&pass.cell_ms));
            report.layer("serve.cell_compute_ms", median(&compute));
            report.layer("serve.overhead_share", 1.0 - pass.run_s / cell_total);
            report.layer("serve.lookup_ms", median(&lookups));
            report.layer("serve.cache_hits", hits as f64);
            report.layer("serve.cache_misses", misses as f64);
            report.layer("serve.hit_ratio", hits as f64 / self.cells.len() as f64);
            report.layer("serve.retries", retries as f64);
            setup.report(report);
            report.layer("alloc.run_allocs", pass.run_allocs as f64);
            report.layer("engine.run_s", pass.run_s);
            report.layer(
                "engine.ns_per_event",
                pass.run_s * 1e9 / pass.events.max(1) as f64,
            );
            report.layer("engine.events", pass.events as f64);
            report.layer("engine.messages", messages as f64);
            report.layer("bounds.global_share", max_share);
            report.layer("kernel.trimmed_midpoint_ns", kernel::trimmed_midpoint_ns(1));
            report.layer(
                "kernel.trigger_evaluate_ns",
                kernel::trigger_evaluate_ns(2, &workloads::params(1)),
            );
        }
        pass
    }
}
