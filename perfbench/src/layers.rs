//! Per-layer figures of a traced run, and how they fold into the printed
//! per-layer metrics. Both the single-mesh and the `serve-mix` runners fill
//! the same three inputs, so every traced run prints the same metric list.

use crate::util::{mean, median, quantile, Metrics};
use pi2m_obs::metrics::{self as m, CounterId};
use pi2m_obs::TimeAttribution;
use pi2m_refine::Stage;

/// The benchmark's own spans around one mesh (or one served job).
#[derive(Clone, Copy, Debug, Default)]
pub struct Spans {
    /// Seconds in `read_pim`.
    pub read_s: f64,
    /// Seconds of each [`Stage`], in `Stage::ALL` order.
    pub stages: [f64; 7],
    /// Seconds in `write_vtk`, and the bytes it wrote.
    pub vtk_s: f64,
    pub vtk_bytes: usize,
    /// The measured seconds per mesh (job latency for `serve-mix`).
    pub mesh_s: f64,
    /// The part of `mesh_s` the spans above account for.
    pub accounted_s: f64,
}

/// The engine counters read per mesh, in this order.
const COUNTERS: [CounterId; 16] = [
    m::OPS_INSERTIONS,
    m::OPS_REMOVALS,
    m::OPS_ROLLBACKS,
    m::CLASSIFY_CALLS,
    m::WALK_LOCATES,
    m::WALK_STEPS,
    m::CELLS_CREATED,
    m::PRED_ORIENT_SEMI_STATIC,
    m::PRED_ORIENT_FILTERED,
    m::PRED_ORIENT_EXACT,
    m::PRED_INSPHERE_SEMI_STATIC,
    m::PRED_INSPHERE_FILTERED,
    m::PRED_INSPHERE_EXACT,
    m::EDT_VOXELS,
    m::PRED_BATCH_ORIENT_LANES,
    m::PRED_BATCH_INSPHERE_LANES,
];
/// Batched waves, read alongside the lanes for the occupancy.
const BATCHES: [CounterId; 2] = [m::PRED_BATCH_ORIENT_BATCHES, m::PRED_BATCH_INSPHERE_BATCHES];

/// Engine counters of one mesh (or the per-job mean over served jobs).
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    c: [f64; 16],
    batches: f64,
}

impl Counts {
    pub fn read(counter: impl Fn(CounterId) -> u64) -> Counts {
        Counts {
            c: COUNTERS.map(|id| counter(id) as f64),
            batches: BATCHES.iter().map(|&id| counter(id) as f64).sum(),
        }
    }

    /// `self - base`, divided over `jobs` (service-lifetime counters).
    pub fn per_job(&self, base: &Counts, jobs: usize) -> Counts {
        let n = jobs.max(1) as f64;
        Counts {
            c: std::array::from_fn(|i| (self.c[i] - base.c[i]) / n),
            batches: (self.batches - base.batches) / n,
        }
    }
}

/// Worker-seconds per attribution category: committed, rolled back, CM
/// park, begging park, steal/donate, unattributed residual.
pub fn attribution_totals(a: &TimeAttribution) -> [f64; 6] {
    let mut t = [0.0; 6];
    for w in &a.per_worker {
        let v = [
            w.committed_s,
            w.rolled_back_s,
            w.cm_park_s,
            w.beg_park_s,
            w.steal_donate_s,
            w.idle_s,
        ];
        for (s, x) in t.iter_mut().zip(v) {
            *s += x;
        }
    }
    t
}

/// Figures from the probes run after the traced loop.
#[derive(Clone, Copy, Debug, Default)]
pub struct Probes {
    pub closest_point_us: f64,
    pub insert_us: f64,
    pub remove_us: f64,
    pub queue_wait_s: f64,
    pub run_s: f64,
    pub overhead_s: f64,
}

fn med(spans: &[Spans], f: impl Fn(&Spans) -> f64) -> f64 {
    median(&spans.iter().map(f).collect::<Vec<_>>())
}

fn safe_div(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Engine counters and wall-time attribution of a set of traced meshes.
#[derive(Clone, Debug, Default)]
pub struct Engine {
    pub counts: Vec<Counts>,
    pub attribution: Vec<[f64; 6]>,
}

impl Engine {
    /// Mean of counter `i` per mesh.
    fn c(&self, i: usize) -> f64 {
        mean(&self.counts.iter().map(|k| k.c[i]).collect::<Vec<_>>())
    }

    /// Mean of attribution category `i` per mesh.
    fn attr(&self, i: usize) -> f64 {
        mean(&self.attribution.iter().map(|a| a[i]).collect::<Vec<_>>())
    }
}

/// Fold a traced run into the per-layer metric list. Spans are medians over
/// meshes; counters and attribution are means per mesh. `speculative`, when
/// given, is a set of two-thread meshes: the operations, rollbacks, commit
/// ratio and worker-second attribution of the `refine.*` metrics are then
/// read from it rather than from `engine`.
pub fn metrics(
    spans: &[Spans],
    engine: &Engine,
    speculative: Option<&Engine>,
    p: &Probes,
) -> Metrics {
    let mut out = Metrics::default();
    let stage = |s: Stage| med(spans, |x| x.stages[s.index()]);
    let c = |i: usize| engine.c(i);
    let batches = mean(&engine.counts.iter().map(|k| k.batches).collect::<Vec<_>>());
    let (ins, rem, classify) = (c(0), c(1), c(3));
    let refine = speculative.unwrap_or(engine);
    let (r_ins, r_rem, rb) = (refine.c(0), refine.c(1), refine.c(2));
    let (locates, steps, cells) = (c(4), c(5), c(6));
    let orient = c(7) + c(8) + c(9);
    let insphere = c(10) + c(11) + c(12);
    let edt_s = stage(Stage::Edt);

    out.put("image.read_s", med(spans, |x| x.read_s), "s");
    out.put("load_stage.s", stage(Stage::Load), "s");
    out.put("edt.s", edt_s, "s");
    out.put("edt.voxels_per_s", safe_div(c(13), edt_s), "voxels/s");
    out.put("oracle.s", stage(Stage::Oracle), "s");
    out.put("oracle.closest_point_us", p.closest_point_us, "us");
    out.put("surface_recovery.s", stage(Stage::SurfaceRecovery), "s");
    out.put("volume_refine.s", stage(Stage::VolumeRefine), "s");
    out.put("quality_stage.s", stage(Stage::Quality), "s");
    out.put("export.s", stage(Stage::Export), "s");
    out.put("meshio.vtk_s", med(spans, |x| x.vtk_s), "s");
    out.put(
        "meshio.vtk_mb",
        med(spans, |x| x.vtk_bytes as f64 / 1e6),
        "MB",
    );
    out.put("refine.insertions", r_ins, "count");
    out.put("refine.removals", r_rem, "count");
    out.put("refine.rollbacks", rb, "count");
    out.put(
        "refine.commit_ratio",
        safe_div(r_ins + r_rem, r_ins + r_rem + rb),
        "ratio",
    );
    out.put("rules.classify_calls", classify, "count");
    out.put(
        "rules.classify_per_op",
        safe_div(classify, ins + rem),
        "ratio",
    );
    out.put("refine.committed_s", refine.attr(0), "worker-s");
    out.put("refine.rolled_back_s", refine.attr(1), "worker-s");
    out.put("refine.cm_park_s", refine.attr(2), "worker-s");
    out.put("refine.beg_park_s", refine.attr(3), "worker-s");
    out.put("refine.steal_donate_s", refine.attr(4), "worker-s");
    out.put("refine.unattributed_s", refine.attr(5), "worker-s");
    out.put(
        "delaunay.walk_steps_per_locate",
        safe_div(steps, locates),
        "ratio",
    );
    out.put("delaunay.cells_created", cells, "count");
    out.put("delaunay.insert_us", p.insert_us, "us");
    out.put("delaunay.remove_us", p.remove_us, "us");
    out.put("predicates.orient_calls", orient, "count");
    out.put("predicates.insphere_calls", insphere, "count");
    out.put(
        "predicates.semi_static_ratio",
        safe_div(c(7) + c(10), orient + insphere),
        "ratio",
    );
    out.put(
        "predicates.batch_occupancy",
        safe_div(
            c(14) + c(15),
            batches * pi2m_predicates::batch::BATCH_LANES as f64,
        ),
        "ratio",
    );
    out.put("serve.queue_wait_s", p.queue_wait_s, "s");
    out.put("serve.run_s", p.run_s, "s");
    out.put("serve.overhead_s", p.overhead_s, "s");
    out.put("trace.mesh_s.p50", med(spans, |x| x.mesh_s), "s");
    let mesh_s: Vec<f64> = spans.iter().map(|x| x.mesh_s).collect();
    out.put("trace.mesh_s.p90", quantile(&mesh_s, 0.9), "s");
    out.put(
        "trace.accounted_share",
        med(spans, |x| safe_div(x.accounted_s, x.mesh_s)),
        "ratio",
    );
    out
}
