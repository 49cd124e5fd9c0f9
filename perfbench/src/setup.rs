//! Set-up of one cell, timed layer by layer: `SpecFile::parse`,
//! `Scenario::from_spec`, `Scenario::build`, and (traced passes only)
//! `ClusterGraph::new` alone, which otherwise runs inside `from_spec`.

use ftgcs::runner::Scenario;
use ftgcs::Msg;
use ftgcs_bench::spec::SpecFile;
use ftgcs_sim::{Simulation, Stopwatch};
use ftgcs_topology::ClusterGraph;

use crate::{alloc, Report};

#[derive(Debug, Default, Clone, Copy)]
pub struct Setup {
    pub parse_s: f64,
    pub from_spec_s: f64,
    pub build_s: f64,
    pub augment_s: f64,
    /// Heap allocations of parse + assembly + build.
    pub allocs: u64,
}

/// One cell, set up and ready to run.
pub struct Cell {
    pub file: SpecFile,
    pub scenario: Scenario,
    pub sim: Simulation<Msg>,
}

impl Setup {
    /// Sets up the cell `text` describes, with engine telemetry on if
    /// `traced`.
    pub fn cell(text: &str, traced: bool) -> (Cell, Setup) {
        let a0 = alloc::count();
        let sw = Stopwatch::start();
        let file = SpecFile::parse(text).expect("generated spec parses");
        let t1 = sw.elapsed_secs();
        let mut scenario = Scenario::from_spec(&file.scenario).expect("generated spec assembles");
        let t2 = sw.elapsed_secs();
        scenario.telemetry(traced);
        let sim = scenario.build();
        let t3 = sw.elapsed_secs();
        let allocs = alloc::count() - a0;
        let mut augment_s = 0.0;
        if traced {
            let s = &file.scenario;
            let g = Stopwatch::start();
            drop(std::hint::black_box(ClusterGraph::new(
                s.topology.build(),
                s.cluster_size,
                s.f,
            )));
            augment_s = g.elapsed_secs();
        }
        let setup = Setup {
            parse_s: t1,
            from_spec_s: t2 - t1,
            build_s: t3 - t2,
            augment_s,
            allocs,
        };
        (
            Cell {
                file,
                scenario,
                sim,
            },
            setup,
        )
    }

    /// The summed set-up of every cell in `texts` (the simulations are
    /// built and dropped).
    pub fn cells<'a>(texts: impl Iterator<Item = &'a str>, traced: bool) -> Setup {
        let mut sum = Setup::default();
        for text in texts {
            let (_, s) = Setup::cell(text, traced);
            sum.parse_s += s.parse_s;
            sum.from_spec_s += s.from_spec_s;
            sum.build_s += s.build_s;
            sum.augment_s += s.augment_s;
            sum.allocs += s.allocs;
        }
        sum
    }

    /// `setup_s`: parse + assembly + build.
    pub fn total_s(&self) -> f64 {
        self.parse_s + self.from_spec_s + self.build_s
    }

    pub fn report(&self, report: &mut Report) {
        report.layer("spec.parse_s", self.parse_s);
        report.layer("spec.from_spec_s", self.from_spec_s);
        report.layer("topology.augment_s", self.augment_s);
        report.layer("engine.build_s", self.build_s);
        report.layer("alloc.setup_allocs", self.allocs as f64);
    }
}
