//! The `serve-mix` workload: a closed loop of two clients against an
//! in-process `MeshService` with two one-thread slots. Each client submits
//! a job, waits for it to reach a terminal state, and submits the next.

use crate::check::Reference;
use crate::layers::{self, attribution_totals, Counts, Engine, Probes, Spans};
use crate::probes::{self, check_job, job, terminal_s, wait_terminal, Passed};
use crate::util::{mean, median, peak_rss_mb, tail_mean, Metrics, Report, Rng};
use crate::workloads::Input;
use crate::{setup_done, Tally};
use pi2m_refine::{MesherConfig, MeshingSession, Stage};
use pi2m_serve::{JobRecord, MeshService, ServiceConfig, TraceEventKind};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;

/// Hands out jobs in whole rounds. A round is every input of the mix once,
/// in a seeded order; once time is up, the round in progress is finished
/// and no new one starts.
struct Dispenser {
    rng: Rng,
    round: Vec<usize>,
    next: usize,
    stop_at: Option<usize>,
    deadline: Instant,
}

impl Dispenser {
    fn pull(&mut self) -> Option<usize> {
        let n = self.round.len();
        if self.stop_at.is_none() && Instant::now() >= self.deadline {
            self.stop_at = Some(self.next.div_ceil(n) * n);
        }
        if self.stop_at.is_some_and(|s| self.next >= s) {
            return None;
        }
        if self.next.is_multiple_of(n) {
            self.rng.shuffle(&mut self.round);
        }
        let input = self.round[self.next % n];
        self.next += 1;
        Some(input)
    }
}

/// One finished job of the timed loop.
struct Done {
    input: usize,
    latency_s: f64,
    record: JobRecord,
}

fn start_service(spool: PathBuf) -> Arc<MeshService> {
    MeshService::start(ServiceConfig {
        sessions: 2,
        threads: 1,
        spool,
        ..Default::default()
    })
    .expect("the service starts")
}

fn stop_service(svc: Arc<MeshService>) {
    svc.begin_drain();
    svc.drain(Duration::from_secs(30));
}

/// Per-stage seconds of a job, from its trace's stage events.
fn job_stages(r: &JobRecord) -> [f64; 7] {
    let mut start = [0.0; 7];
    let mut out = [0.0; 7];
    for e in r.trace.events() {
        let (stage, t, begin) = match &e.kind {
            TraceEventKind::StageStarted { stage, run_t_s } => (stage, run_t_s, true),
            TraceEventKind::StageFinished { stage, run_t_s } => (stage, run_t_s, false),
            _ => continue,
        };
        let Some(i) = Stage::ALL.iter().position(|s| s.phase_name() == *stage) else {
            continue;
        };
        if begin {
            start[i] = *t;
        } else {
            out[i] = t - start[i];
        }
    }
    out
}

pub fn run(inputs: &[Input], seed: u64, seconds: f64, trace: bool, work: &Path) -> Report {
    let paths: Vec<PathBuf> = inputs
        .iter()
        .map(|i| {
            let p = work.join(format!("{}.pim", i.name));
            std::fs::write(&p, &i.pim).expect("the work directory is writable");
            p
        })
        .collect();
    let mut setup = Tally::default();

    // Set-up: start the service and serve the first input once, cold. Each
    // service spools to a directory of its own, so that every set-up job's
    // artifact is still there to be checked after the timed loop.
    let mut setup_s = Vec::new();
    let mut setup_jobs = Vec::new();
    let mut svc = None;
    while !setup_done(trace, &setup_s) {
        if let Some(s) = svc.take() {
            stop_service(s);
        }
        let t0 = Instant::now();
        let s = start_service(work.join(format!("spool-{}", setup_s.len())));
        setup.attempted += 1;
        let rec = s
            .submit(job(&paths[0], None))
            .ok()
            .and_then(|id| wait_terminal(&s, id));
        setup_s.push(t0.elapsed().as_secs_f64());
        match rec {
            Some(rec) => setup_jobs.push(rec),
            None => setup.fail(inputs[0].name, "set-up job was refused or timed out".into()),
        }
        svc = Some(s);
    }
    let svc = svc.expect("at least one set-up");
    let base = Counts::read(|id| svc.counter(id));

    let dispenser = Mutex::new(Dispenser {
        rng: Rng::new(seed),
        round: (0..inputs.len()).collect(),
        next: 0,
        stop_at: None,
        deadline: Instant::now() + Duration::from_secs_f64(seconds),
    });
    let done: Mutex<Vec<Done>> = Mutex::new(Vec::new());
    let refused = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| loop {
                let Some(input) = dispenser.lock().expect("dispenser lock").pull() else {
                    break;
                };
                let t0 = Instant::now();
                let rec = svc
                    .submit(job(&paths[input], None))
                    .ok()
                    .and_then(|id| wait_terminal(&svc, id));
                let latency_s = t0.elapsed().as_secs_f64();
                match rec {
                    Some(record) => done.lock().expect("results lock").push(Done {
                        input,
                        latency_s,
                        record,
                    }),
                    None => refused.lock().expect("results lock").push(input),
                }
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let peak_rss = peak_rss_mb();
    let jobs_done = done.into_inner().expect("results lock");
    let counts = Counts::read(|id| svc.counter(id)).per_job(&base, jobs_done.len());
    stop_service(svc);

    // The checks, now that the peak is read.
    let references: Vec<Reference> = inputs.iter().map(Input::reference).collect();
    for rec in &setup_jobs {
        check_job(rec, inputs[0].name, &references[0], &mut setup, &mut None);
    }
    let mut timed = Tally::default();
    for &input in refused.into_inner().expect("results lock").iter() {
        timed.attempted += 1;
        timed.fail(inputs[input].name, "job was refused or timed out".into());
    }
    let mut latencies = Vec::new();
    let mut spans = Vec::new();
    let mut memo: Vec<Passed> = inputs.iter().map(|_| None).collect();
    for d in &jobs_done {
        timed.attempted += 1;
        let (name, reference) = (inputs[d.input].name, &references[d.input]);
        let Some(bytes) = check_job(&d.record, name, reference, &mut timed, &mut memo[d.input])
        else {
            continue;
        };
        latencies.push(d.latency_s);
        if trace {
            spans.push(traced_spans(d, &inputs[d.input], bytes));
        }
    }

    let mut metrics = Metrics::default();
    if trace {
        let (p, attribution) = replay(inputs, &jobs_done, seed);
        let engine = Engine {
            counts: vec![counts],
            attribution,
        };
        metrics = layers::metrics(&spans, &engine, None, &p);
    } else {
        metrics.put("setup_s", median(&setup_s), "s");
        metrics.put("mesh_s.p50", median(&latencies), "s");
        metrics.put("mesh_s.p90_tail_mean", tail_mean(&latencies, 0.9), "s");
        metrics.put("tets_per_s", timed.tets as f64 / wall_s, "tets/s");
        metrics.put("peak_rss_mb", peak_rss, "MB");
        timed.put_quality(&mut metrics);
    }
    Report {
        attempted: setup.attempted + timed.attempted,
        failed: setup.failed + timed.failed,
        metrics,
    }
}

/// The spans of one served job: the stage spans from its trace, plus the
/// benchmark's own timing of `read_pim` on its input and of `write_vtk` on
/// its artifact (the service runs both inside its attempt, unobserved).
fn traced_spans(d: &Done, input: &Input, vtk_bytes: usize) -> Spans {
    let t0 = Instant::now();
    let img = pi2m_image::io::read_pim(&input.pim[..]).expect("the input was written by write_pim");
    let read_s = t0.elapsed().as_secs_f64();
    drop(img);
    let vtk_s = d
        .record
        .artifact
        .as_ref()
        .and_then(|a| std::fs::read(a).ok())
        .and_then(|b| crate::vtk::parse_vtk(&b).ok())
        .map_or(f64::NAN, |m| {
            let mesh = pi2m_refine::FinalMesh {
                points: m.points.iter().map(|&p| p.into()).collect(),
                point_kinds: Vec::new(),
                tets: m.tets,
                labels: m.labels,
            };
            let mut out = Vec::with_capacity(vtk_bytes);
            let t0 = Instant::now();
            pi2m_meshio::write_vtk(&mesh, &mut out).expect("writing to memory cannot fail");
            t0.elapsed().as_secs_f64()
        });
    let stages = job_stages(&d.record);
    let wait = d.record.queue_wait_s.unwrap_or(0.0);
    Spans {
        read_s,
        stages,
        vtk_s,
        vtk_bytes,
        mesh_s: d.latency_s,
        accounted_s: wait + stages.iter().sum::<f64>(),
    }
}

/// What the service does not expose, from a traced replay of each mix input
/// on a one-thread session: the wall-time attribution, the oracle probe and
/// the kernel replay (means over the inputs); and the service split (means
/// over the served jobs).
fn replay(inputs: &[Input], jobs: &[Done], seed: u64) -> (Probes, Vec<[f64; 6]>) {
    let mut rng = Rng::new(seed);
    let mut session = MeshingSession::new(1);
    let mut attribution = Vec::new();
    let (mut closest, mut insert, mut remove) = (Vec::new(), Vec::new(), Vec::new());
    for input in inputs {
        let img =
            pi2m_image::io::read_pim(&input.pim[..]).expect("the input was written by write_pim");
        let cfg = MesherConfig {
            delta: input.delta,
            threads: 1,
            trace: true,
            ..Default::default()
        };
        let Ok(out) = session.mesh(img, cfg) else {
            continue;
        };
        let a = pi2m_obs::attribute(&out.flight, 1, out.stats.wall_time);
        attribution.push(attribution_totals(&a));
        closest.push(probes::closest_point_us(&out.oracle, &mut rng));
        let (i, r) = probes::kernel_replay_us(&out.mesh.points, &mut rng);
        insert.push(i);
        remove.push(r);
    }
    let per_job = |f: &dyn Fn(&JobRecord) -> Option<f64>| {
        mean(&jobs.iter().filter_map(|d| f(&d.record)).collect::<Vec<_>>())
    };
    let probes = Probes {
        closest_point_us: mean(&closest),
        insert_us: mean(&insert),
        remove_us: mean(&remove),
        queue_wait_s: per_job(&|r| r.queue_wait_s),
        run_s: per_job(&|r| r.run_s),
        overhead_s: per_job(&|r| Some(terminal_s(r)? - r.queue_wait_s? - r.run_s?)),
    };
    (probes, attribution)
}
