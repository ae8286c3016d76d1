//! The single-mesh workloads (`refine-1t`, `refine-2t`, `large-ct`): one
//! input meshed over and over on one warm session.
//!
//! Each mesh's VTK bytes go to a file in the work directory and are checked
//! after the timed loop, once `peak_rss_mb` has been read, so that neither
//! the checks nor the bytes they wait on are in the peak.

use crate::check::{check_vtk, Expect, MeshFigures, Reference};
use crate::layers::{self, attribution_totals, Counts, Engine, Probes, Spans};
use crate::util::{median, peak_rss_mb, tail_mean, Metrics, Report, Rng};
use crate::workloads::Single;
use crate::{probes, setup_done, Tally};
use pi2m_refine::{MeshOutput, MesherConfig, MeshingSession, RunOptions, StageStatus};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One timed mesh: `.pim` bytes in, VTK bytes out.
struct MeshRun {
    out: MeshOutput,
    vtk: Vec<u8>,
    spans: Spans,
}

/// Stage start/end times of the run in flight, filled by the callback.
type StageLog = Arc<Mutex<[(f64, f64); 7]>>;

fn config(w: &Single, trace: bool) -> MesherConfig {
    MesherConfig {
        delta: w.input.delta,
        threads: w.threads,
        trace,
        ..Default::default()
    }
}

/// Traced runs watch the stages through the progress callback; timed runs
/// pass the default options.
fn options(log: Option<&StageLog>) -> RunOptions {
    let Some(log) = log else {
        return RunOptions::default();
    };
    let log = Arc::clone(log);
    RunOptions {
        cancel: None,
        on_stage: Some(Arc::new(move |ev| {
            let mut l = log.lock().expect("stage log lock");
            let slot = &mut l[ev.stage.index()];
            match ev.status {
                StageStatus::Started => slot.0 = ev.elapsed_s,
                StageStatus::Finished => slot.1 = ev.elapsed_s,
            }
        })),
    }
}

fn mesh_once(
    session: &mut MeshingSession,
    w: &Single,
    cfg: &MesherConfig,
    opts: &RunOptions,
    log: Option<&StageLog>,
) -> Result<MeshRun, String> {
    let t0 = Instant::now();
    let img = pi2m_image::io::read_pim(&w.input.pim[..]).map_err(|e| format!("read_pim: {e}"))?;
    let t1 = Instant::now();
    let out = session
        .mesh_with(img, cfg.clone(), opts)
        .map_err(|e| format!("mesh: {e}"))?;
    let t2 = Instant::now();
    let mut vtk = Vec::with_capacity(64 * out.mesh.num_tets());
    pi2m_meshio::write_vtk(&out.mesh, &mut vtk).map_err(|e| format!("write_vtk: {e}"))?;
    let t3 = Instant::now();
    let stages = log.map_or([0.0; 7], |l| {
        l.lock().expect("stage log lock").map(|(a, b)| b - a)
    });
    let read_s = (t1 - t0).as_secs_f64();
    let vtk_s = (t3 - t2).as_secs_f64();
    let spans = Spans {
        read_s,
        stages,
        vtk_s,
        vtk_bytes: vtk.len(),
        mesh_s: (t3 - t0).as_secs_f64(),
        accounted_s: read_s + stages.iter().sum::<f64>() + vtk_s,
    };
    Ok(MeshRun { out, vtk, spans })
}

/// A mesh whose check waits until the timed part of the run is over: the
/// file its VTK bytes were written to, and what the program reported.
struct Pending {
    path: PathBuf,
    expect: Expect,
}

/// A timed mesh, with what a traced run reads from it.
struct Timed {
    pending: Pending,
    spans: Spans,
    counts: Option<Counts>,
    attribution: Option<[f64; 6]>,
}

/// Write the mesh's VTK bytes to the work directory, to be checked later.
fn park(run: &MeshRun, path: PathBuf) -> Result<Pending, String> {
    std::fs::write(&path, &run.vtk).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let expect = Expect {
        points: Some(run.out.mesh.num_points()),
        tets: run.out.mesh.num_tets(),
    };
    Ok(Pending { path, expect })
}

/// Check a parked mesh and remove its file.
fn check(reference: &Reference, p: &Pending) -> Result<MeshFigures, String> {
    let bytes =
        std::fs::read(&p.path).map_err(|e| format!("cannot read {}: {e}", p.path.display()));
    let _ = std::fs::remove_file(&p.path);
    check_vtk(reference, &bytes?, p.expect)
}

pub fn run(w: &Single, seed: u64, seconds: f64, trace: bool, work: &Path) -> Report {
    let cfg = config(w, trace);
    let log: Option<StageLog> = trace.then(|| Arc::new(Mutex::new([(0.0, 0.0); 7])));
    let opts = options(log.as_ref());
    let name = w.input.name;
    let mut setup = Tally::default();

    // Set-up: a new session plus the cold first mesh, several times; the
    // last session stays warm for the timed loop.
    let mut setup_s = Vec::new();
    let mut setup_meshes = Vec::new();
    let mut session = None;
    while !setup_done(trace, &setup_s) {
        drop(session.take());
        let t0 = Instant::now();
        let mut s = MeshingSession::new(w.threads);
        let run = mesh_once(&mut s, w, &cfg, &opts, log.as_ref());
        setup_s.push(t0.elapsed().as_secs_f64());
        setup.attempted += 1;
        let path = work.join(format!("setup-{}.vtk", setup_s.len()));
        match run.and_then(|run| park(&run, path)) {
            Ok(p) => setup_meshes.push(p),
            Err(e) => setup.fail(name, e),
        }
        session = Some(s);
    }
    let mut session = session.expect("at least one set-up");

    let mut timed = Tally::default();
    let mut meshes = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs_f64(seconds) {
        timed.attempted += 1;
        let path = work.join(format!("mesh-{}.vtk", timed.attempted));
        let run = mesh_once(&mut session, w, &cfg, &opts, log.as_ref());
        let (run, pending) = match run.and_then(|run| park(&run, path).map(|p| (run, p))) {
            Ok(x) => x,
            Err(e) => {
                timed.fail(name, e);
                continue;
            }
        };
        meshes.push(Timed {
            pending,
            spans: run.spans,
            counts: trace.then(|| Counts::read(|id| run.out.metrics.counter(id))),
            attribution: trace.then(|| {
                let a = pi2m_obs::attribute(&run.out.flight, w.threads, run.out.stats.wall_time);
                attribution_totals(&a)
            }),
        });
        if trace {
            last = Some(run); // kept for the probes
        }
    }
    let peak_rss = peak_rss_mb();

    // The checks, now that the peak is read.
    let reference = w.input.reference();
    for p in &setup_meshes {
        setup.record(name, check(&reference, p));
    }
    let mut spans = Vec::new();
    let mut engine = Engine::default();
    for m in meshes {
        if timed.record(name, check(&reference, &m.pending)) {
            spans.push(m.spans);
            engine.counts.extend(m.counts);
            engine.attribution.extend(m.attribution);
        }
    }

    let mut metrics = Metrics::default();
    let mut probe = Tally::default();
    if trace {
        // The serve.* split is measured on `serve-mix` only; it reads 0 here.
        let mut rng = Rng::new(seed);
        let mut p = Probes::default();
        if let Some(run) = &last {
            p.closest_point_us = probes::closest_point_us(&run.out.oracle, &mut rng);
            (p.insert_us, p.remove_us) = probes::kernel_replay_us(&run.out.mesh.points, &mut rng);
        }
        drop(last);
        let speculative = w
            .speculative_probe
            .then(|| probes::speculative(&w.input, &reference, &mut probe));
        metrics = layers::metrics(&spans, &engine, speculative.as_ref(), &p);
    } else {
        let mesh_s: Vec<f64> = spans.iter().map(|s| s.mesh_s).collect();
        let busy: f64 = mesh_s.iter().sum();
        metrics.put("setup_s", median(&setup_s), "s");
        metrics.put("mesh_s.p50", median(&mesh_s), "s");
        metrics.put("mesh_s.p90_tail_mean", tail_mean(&mesh_s, 0.9), "s");
        metrics.put("tets_per_s", timed.tets as f64 / busy, "tets/s");
        metrics.put("peak_rss_mb", peak_rss, "MB");
        timed.put_quality(&mut metrics);
    }
    Report {
        attempted: setup.attempted + timed.attempted + probe.attempted,
        failed: setup.failed + timed.failed + probe.failed,
        metrics,
    }
}
