//! End-to-end and per-layer benchmark of the PI2M image-to-mesh pipeline.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload refine-1t --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Runs one workload against the public library API for `--seconds`, checks
//! every mesh it receives with its own arithmetic, and prints one JSON line:
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics of a traced
//! run (`--trace 1`), with the counts of meshes (or jobs) attempted and
//! failed. `--baseline` instead prints the sequential `IsosurfaceBaseline`
//! element rate on the `refine-1t` input. See README.md.

mod check;
mod layers;
mod probes;
mod serve_mix;
mod single;
mod util;
mod vtk;
mod workloads;

use check::MeshFigures;
use std::path::PathBuf;
use util::{Metrics, Report};
use workloads::Workload;

/// Whether a run has set up often enough: once for a traced run; for an
/// untraced run at least three times and for at least a second in all (at
/// most 25 times), so that `setup_s`, their median, is steady even when one
/// set-up is short.
pub fn setup_done(trace: bool, setup_s: &[f64]) -> bool {
    let n = setup_s.len();
    if trace {
        return n >= 1;
    }
    n >= 25 || (n >= 3 && setup_s.iter().sum::<f64>() >= 1.0)
}

/// Operations attempted and failed, and the worst quality figures of the
/// meshes that passed.
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub tets: usize,
    pub radius_edge_max: f64,
    pub boundary_angle_min_deg: f64,
    pub hausdorff: f64,
}

impl Default for Tally {
    fn default() -> Tally {
        Tally {
            attempted: 0,
            failed: 0,
            tets: 0,
            radius_edge_max: 0.0,
            boundary_angle_min_deg: 180.0,
            hausdorff: 0.0,
        }
    }
}

impl Tally {
    pub fn fail(&mut self, what: &str, why: String) {
        self.failed += 1;
        eprintln!("perfbench: {what}: FAILED: {why}");
    }

    /// Fold one checked mesh in; false if it failed a check.
    pub fn record(&mut self, what: &str, r: Result<MeshFigures, String>) -> bool {
        match r {
            Ok(f) => {
                self.tets += f.tets;
                self.radius_edge_max = self.radius_edge_max.max(f.radius_edge_max);
                self.boundary_angle_min_deg =
                    self.boundary_angle_min_deg.min(f.boundary_angle_min_deg);
                self.hausdorff = self.hausdorff.max(f.hausdorff);
                true
            }
            Err(e) => {
                self.fail(what, e);
                false
            }
        }
    }

    pub fn put_quality(&self, m: &mut Metrics) {
        m.put("radius_edge_max", self.radius_edge_max, "ratio");
        m.put("boundary_angle_min_deg", self.boundary_angle_min_deg, "deg");
        m.put("hausdorff_mm", self.hausdorff, "mm");
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    baseline: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        baseline: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--baseline" {
            a.baseline = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// Sequential baseline rate on the `refine-1t` input (the paper's Table 6
/// single-thread reference), for the README.
fn baseline() {
    let img = pi2m_image::phantoms::abdominal(1.0);
    let cfg = pi2m_baseline::isosurface::IsosurfaceBaselineConfig {
        delta: 1.0,
        ..Default::default()
    };
    let out = pi2m_baseline::IsosurfaceBaseline::new(img, cfg).run();
    println!(
        "IsosurfaceBaseline abdominal δ1.0: {} tets in {:.3} s = {:.0} tets/s",
        out.mesh.num_tets(),
        out.total_time,
        out.tets_per_second()
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                workloads::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    if args.baseline {
        baseline();
        return;
    }
    let Some(workload) = workloads::build(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {})",
            args.workload,
            workloads::NAMES.join(", ")
        );
        std::process::exit(2);
    };
    // Inputs and artifacts are written under the current directory and
    // removed again at the end.
    let work = PathBuf::from(".perfbench_work").join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).expect("cannot create the work directory");
    let report: Report = match &workload {
        Workload::Single(w) => single::run(w, args.seed, args.seconds, args.trace, &work),
        Workload::ServeMix(inputs) => {
            serve_mix::run(inputs, args.seed, args.seconds, args.trace, &work)
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench_work");
    println!("{}", report.to_json());
}
