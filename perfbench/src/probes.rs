//! Probes run after a traced loop (the oracle's closest-point query, a
//! kernel replay of a mesh's own points, and the two-thread speculative
//! probe), and the served-job helpers of `serve-mix`.

use crate::check::{check_vtk, Expect, MeshFigures, Reference};
use crate::layers::{attribution_totals, Counts, Engine};
use crate::util::Rng;
use crate::workloads::Input;
use crate::Tally;
use pi2m_delaunay::{SharedMesh, VertexKind};
use pi2m_geometry::{Aabb, Point3};
use pi2m_obs::metrics::{SERVE_JOBS_CANCELLED, SERVE_JOBS_FAILED, SERVE_JOBS_SUCCEEDED};
use pi2m_oracle::IsosurfaceOracle;
use pi2m_refine::{MesherConfig, MeshingSession};
use pi2m_serve::{JobId, JobRecord, JobSpec, JobStatus, MeshService, Priority, TraceEventKind};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Mean microseconds per `closest_surface_point` over seeded points
/// uniform in the image box.
pub fn closest_point_us(oracle: &IsosurfaceOracle, rng: &mut Rng) -> f64 {
    const N: usize = 2000;
    let b = oracle.image().bounds();
    let pts: Vec<Point3> = (0..N)
        .map(|_| {
            Point3::new(
                b.min.x + rng.unit() * (b.max.x - b.min.x),
                b.min.y + rng.unit() * (b.max.y - b.min.y),
                b.min.z + rng.unit() * (b.max.z - b.min.z),
            )
        })
        .collect();
    let t0 = Instant::now();
    for &p in &pts {
        black_box(oracle.closest_surface_point(black_box(p)));
    }
    t0.elapsed().as_secs_f64() * 1e6 / N as f64
}

/// Replay `points` in seeded order into a fresh triangulation through the
/// public insert call, then remove a seeded tenth of them (at most 1000).
/// Returns mean microseconds per insertion and per removal.
pub fn kernel_replay_us(points: &[Point3], rng: &mut Rng) -> (f64, f64) {
    let mut order: Vec<usize> = (0..points.len()).collect();
    rng.shuffle(&mut order);
    let mut domain = Aabb::empty();
    for &p in points {
        domain.include(p);
    }
    let mesh = SharedMesh::enclosing(&domain);
    let mut ctx = mesh.make_ctx(0);
    let t0 = Instant::now();
    let mut inserted = Vec::with_capacity(points.len());
    for i in order {
        if let Ok(r) = ctx.insert(points[i].to_array(), VertexKind::Circumcenter) {
            inserted.push(r.vertex);
            ctx.recycle_insert(r);
        }
    }
    let insert_us = t0.elapsed().as_secs_f64() * 1e6 / inserted.len().max(1) as f64;
    rng.shuffle(&mut inserted);
    inserted.truncate((inserted.len() / 10).clamp(1, 1000));
    let t0 = Instant::now();
    let mut removed = 0usize;
    for &v in &inserted {
        if let Ok(r) = ctx.remove(v) {
            removed += 1;
            ctx.recycle_remove(r);
        }
    }
    let remove_us = t0.elapsed().as_secs_f64() * 1e6 / removed.max(1) as f64;
    (insert_us, remove_us)
}

/// Meshes in the speculative probe: enough for a mean, few enough that the
/// two-thread radius-edge fault (README.md) seldom lands in a traced run.
const SPECULATIVE_MESHES: usize = 3;
/// Threads of the speculative probe: the most the workloads use.
const SPECULATIVE_THREADS: usize = 2;

/// The speculative layer (vertex locks, rollbacks, contention-manager parks,
/// work stealing) at two threads: traced meshes of `input` on a fresh
/// two-thread session, each checked and counted like any other mesh.
/// Returns the engine counters and attribution of those that passed.
pub fn speculative(input: &Input, reference: &Reference, tally: &mut Tally) -> Engine {
    let mut session = MeshingSession::new(SPECULATIVE_THREADS);
    let cfg = MesherConfig {
        delta: input.delta,
        threads: SPECULATIVE_THREADS,
        trace: true,
        ..Default::default()
    };
    let mut engine = Engine::default();
    for _ in 0..SPECULATIVE_MESHES {
        tally.attempted += 1;
        let out = pi2m_image::io::read_pim(&input.pim[..])
            .map_err(|e| format!("read_pim: {e}"))
            .and_then(|img| {
                session
                    .mesh(img, cfg.clone())
                    .map_err(|e| format!("mesh: {e}"))
            });
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                tally.fail(input.name, e);
                continue;
            }
        };
        let mut vtk = Vec::new();
        pi2m_meshio::write_vtk(&out.mesh, &mut vtk).expect("writing to memory cannot fail");
        let expect = Expect {
            points: Some(out.mesh.num_points()),
            tets: out.mesh.num_tets(),
        };
        let what = format!("{} on {SPECULATIVE_THREADS} threads", input.name);
        if tally.record(&what, check_vtk(reference, &vtk, expect)) {
            engine
                .counts
                .push(Counts::read(|id| out.metrics.counter(id)));
            let a = pi2m_obs::attribute(&out.flight, SPECULATIVE_THREADS, out.stats.wall_time);
            engine.attribution.push(attribution_totals(&a));
        }
    }
    engine
}

/// A job spec for a `.pim` file, at the service's defaults unless `delta`
/// is given.
pub fn job(path: &Path, delta: Option<f64>) -> JobSpec {
    JobSpec {
        input: path.display().to_string(),
        delta,
        threads: None,
        priority: Priority::Normal,
        deadline_s: None,
        max_retries: None,
        shards: None,
        halo: None,
    }
}

/// Jobs that have reached a terminal state so far. The service counts a
/// job after it has set the job's terminal status.
fn terminal_jobs(svc: &MeshService) -> u64 {
    [
        SERVE_JOBS_SUCCEEDED,
        SERVE_JOBS_FAILED,
        SERVE_JOBS_CANCELLED,
    ]
    .iter()
    .map(|&id| svc.counter(id))
    .sum()
}

/// Wait until the job is terminal; `None` if it is not within 120 s. Polls
/// every millisecond, and snapshots the job's record (and its trace) only
/// when the service's count of terminal jobs has moved. README.md has the
/// effect of the poll interval on `serve-mix`.
pub fn wait_terminal(svc: &MeshService, id: JobId) -> Option<JobRecord> {
    let t0 = Instant::now();
    let mut seen = None;
    while t0.elapsed() < Duration::from_secs(120) {
        let now = terminal_jobs(svc);
        if seen != Some(now) {
            seen = Some(now);
            if let Some(r) = svc.job(id).filter(|r| r.status.is_terminal()) {
                return Some(r);
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    None
}

/// Seconds from submission to the job's terminal trace event.
pub fn terminal_s(r: &JobRecord) -> Option<f64> {
    r.trace
        .events()
        .iter()
        .rev()
        .find(|e| matches!(e.kind, TraceEventKind::Terminal { .. }))
        .map(|e| e.t_s)
}

/// A served job's artifact that passed every check, with its figures.
pub type Passed = Option<(Vec<u8>, MeshFigures)>;

/// Check a served job: it succeeded, and its spooled artifact passes every
/// check against the reference of the input it meshed. An artifact
/// byte-identical to the one in `memo` (an earlier job of the same input
/// that passed) gets the same verdict without a second pass. Returns the
/// artifact's size on success.
pub fn check_job(
    rec: &JobRecord,
    name: &str,
    reference: &Reference,
    tally: &mut Tally,
    memo: &mut Passed,
) -> Option<usize> {
    let artifact = match (rec.status, &rec.artifact, rec.tets) {
        (JobStatus::Succeeded, Some(a), Some(tets)) => std::fs::read(a)
            .map_err(|e| format!("cannot read artifact {}: {e}", a.display()))
            .map(|bytes| (bytes, tets as usize)),
        _ => Err(format!(
            "job {} ended {} ({})",
            rec.id,
            rec.status.as_str(),
            rec.error.as_deref().unwrap_or("no artifact")
        )),
    };
    let (bytes, tets) = match artifact {
        Ok(a) => a,
        Err(e) => {
            tally.fail(name, e);
            return None;
        }
    };
    let len = bytes.len();
    if let Some((seen, figures)) = memo {
        if *seen == bytes && figures.tets == tets {
            return tally.record(name, Ok(*figures)).then_some(len);
        }
    }
    let figures = check_vtk(reference, &bytes, Expect { points: None, tets });
    if let Ok(f) = &figures {
        *memo = Some((bytes, *f));
    }
    tally.record(name, figures).then_some(len)
}
