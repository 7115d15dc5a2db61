//! Application payback: ingest → reorder → relabel → compress → Louvain,
//! IMM and PageRank on both adjacency forms, under the natural and the
//! RCM ordering.

use crate::spans::Tracer;
use crate::stats::median;
use crate::Outcome;
use reorderlab_community::{louvain, louvain_compressed, CommunityResult, LouvainConfig};
use reorderlab_core::Scheme;
use reorderlab_graph::CompressedCsr;
use reorderlab_influence::{imm, imm_compressed, DiffusionModel, ImmConfig, ImmResult};
use reorderlab_kernels::{pagerank, pagerank_compressed, PageRankConfig, PageRankResult};
use reorderlab_memsim::{
    replay_louvain_move, replay_pagerank_iteration, Hierarchy, HierarchyConfig, LouvainReplayKernel,
};
use reorderlab_ops::{
    read_graph_auto, run_with_threads, FsResolver, GraphSource, OpError, ResolveGraph,
};
use std::collections::BTreeMap;

/// The two orderings compared, in run order.
pub const ORDERS: [&str; 2] = ["natural", "rcm"];
/// The applications, in run order.
pub const APPS: [&str; 3] = ["louvain", "imm", "pagerank"];
/// The adjacency forms, in run order.
pub const FORMS: [&str; 2] = ["flat", "csrz"];

fn scheme(order: &str) -> Scheme {
    if order == "rcm" {
        Scheme::Rcm
    } else {
        Scheme::Natural
    }
}

/// IMM as the benchmark runs it: 8 seeds, ε = 0.9, IC with p = 0.25, all
/// set through the validating setters; the workload seed is IMM's seed.
fn imm_config(seed: u64) -> ImmConfig {
    ImmConfig::new(8)
        .epsilon(0.9)
        .model(DiffusionModel::IndependentCascade { probability: 0.25 })
        .seed(seed)
}

/// PageRank as the benchmark runs it: the standard damping, and exactly
/// [`PAGERANK_ITERATIONS`] iterations. Under the default tolerance the
/// iteration count follows the seed's graph (37 to 56 on `youtube`), which
/// alone would spread the time by a fifth.
fn pagerank_config() -> PageRankConfig {
    PageRankConfig::new().tolerance(f64::MIN_POSITIVE).max_iterations(PAGERANK_ITERATIONS)
}

/// Iterations of every PageRank run.
const PAGERANK_ITERATIONS: usize = 40;

/// Application wall times of one pass, keyed `app.form.order`, plus the
/// RCM reorder time and the whole pass.
pub struct Pass {
    /// Seconds per `app.form.order`.
    pub app_s: BTreeMap<String, f64>,
    /// Seconds `Scheme::Rcm` took on the ingested graph.
    pub rcm_s: f64,
    /// Ingest through the last application.
    pub pipeline_s: f64,
}

struct Results {
    louvain: [CommunityResult; 2],
    imm: [ImmResult; 2],
    pagerank: [PageRankResult; 2],
}

/// Runs one payback pass over the `.csrbin` at `path`.
pub fn run(path: &str, seed: u64, tracer: &Tracer, outcome: &mut Outcome) -> Option<Pass> {
    let mut app_s = BTreeMap::new();
    let mut rcm_s = 0.0;
    let mut results: Vec<(String, Result<Results, String>)> = Vec::new();
    let pipeline = tracer.enter(|| "pipeline".into());
    let source = GraphSource::Path(path.to_string());
    let (resolved, _) = tracer.time(|| "ingest.app".into(), || FsResolver.resolve(&source));
    outcome.attempted += 1;
    let g = match resolved {
        Ok(r) => r.graph,
        Err(e) => {
            outcome.record("payback.ingest", Err(e.to_string()));
            return None;
        }
    };
    for order in ORDERS {
        let (perm, secs) =
            tracer.time(|| format!("reorder.app.{order}"), || scheme(order).try_reorder(&g));
        if order == "rcm" {
            rcm_s = secs;
        }
        let laid = perm.map_err(|e| e.to_string()).and_then(|pi| {
            tracer
                .time(|| format!("relabel.{order}"), || g.permuted(&pi))
                .0
                .map_err(|e| e.to_string())
        });
        let graphs = laid.and_then(|gp| {
            let cz = tracer
                .time(|| format!("compress.{order}"), || CompressedCsr::from_csr(&gp))
                .0
                .map_err(|e| e.to_string())?;
            Ok((gp, cz))
        });
        let (gp, cz) = match graphs {
            Ok(pair) => pair,
            Err(e) => {
                results.push((order.to_string(), Err(e)));
                continue;
            }
        };
        let key = |app: &str| format!("{app}.{order}");
        let lcfg = LouvainConfig::new();
        let lf = timed(tracer, &mut app_s, key("louvain.flat"), 1, || louvain(&gp, &lcfg));
        let lc =
            timed(tracer, &mut app_s, key("louvain.csrz"), 1, || louvain_compressed(&cz, &lcfg));
        let icfg = imm_config(seed);
        let if_ = timed(tracer, &mut app_s, key("imm.flat"), 1, || imm(&gp, &icfg));
        let ic = timed(tracer, &mut app_s, key("imm.csrz"), 1, || imm_compressed(&cz, &icfg));
        let pcfg = pagerank_config();
        let reps = PAGERANK_REPS;
        let pf = timed(tracer, &mut app_s, key("pagerank.flat"), reps, || pagerank(&gp, &pcfg));
        let pc = timed(tracer, &mut app_s, key("pagerank.csrz"), reps, || {
            pagerank_compressed(&cz, &pcfg)
        });
        let res = match (ic, pc) {
            (Ok(ic), Ok(pc)) => {
                Ok(Results { louvain: [lf, lc], imm: [if_, ic], pagerank: [pf, pc] })
            }
            (Err(e), _) => Err(format!("imm_compressed: {e}")),
            (_, Err(e)) => Err(format!("pagerank_compressed: {e}")),
        };
        results.push((order.to_string(), res));
    }
    let pipeline_s = pipeline.close();
    for (order, res) in results {
        outcome.attempted += 6;
        if let (Ok(r), true) = (&res, tracer.is_on()) {
            let louvain = r.louvain[0].stats.total_iterations();
            outcome.count(&format!("louvain.{order}.iterations"), louvain as f64);
            outcome.count(&format!("imm.{order}.rr_sets"), r.imm[0].stats.rr_sets as f64);
            outcome.count(&format!("pagerank.{order}.iterations"), r.pagerank[0].iterations as f64);
        }
        outcome.record(&format!("payback.{order}"), res.and_then(|r| check(&r)));
    }
    Some(Pass { app_s, rcm_s, pipeline_s })
}

/// PageRank is the cheapest application by far, so each form runs this
/// many times back to back and its time is the median.
const PAGERANK_REPS: usize = 3;

/// Runs `f` `reps` times, each in a span named `key`; records the median
/// time under `key` and returns the last result.
fn timed<T>(
    tracer: &Tracer,
    app_s: &mut BTreeMap<String, f64>,
    key: String,
    reps: usize,
    f: impl Fn() -> T,
) -> T {
    let mut secs = Vec::with_capacity(reps);
    let mut last = tracer.time(|| key.clone(), &f);
    secs.push(last.1);
    for _ in 1..reps {
        last = tracer.time(|| key.clone(), &f);
        secs.push(last.1);
    }
    app_s.insert(key, median(&secs));
    last.0
}

/// The payback gate: each compressed result bit-identical to its flat
/// twin — Louvain assignment and modularity, IMM seeds, PageRank scores.
fn check(r: &Results) -> Result<(), String> {
    let [lf, lc] = &r.louvain;
    if lf.assignment != lc.assignment || lf.modularity.to_bits() != lc.modularity.to_bits() {
        return Err("louvain_compressed differs from louvain".into());
    }
    let [i_f, i_c] = &r.imm;
    if i_f.seeds != i_c.seeds || i_f.seeds.is_empty() {
        return Err("imm_compressed seeds differ from imm".into());
    }
    let [pf, pc] = &r.pagerank;
    let same = pf.scores.len() == pc.scores.len()
        && pf.scores.iter().zip(&pc.scores).all(|(a, b)| a.to_bits() == b.to_bits());
    if !same || pf.iterations != pc.iterations {
        return Err("pagerank_compressed scores differ from pagerank".into());
    }
    Ok(())
}

/// Traced-run probe outside the pipeline: RCM at one thread, and for each
/// ordering the computed bytes one PageRank iteration streams and the
/// simulated L1 hit ratios of the Louvain move and PageRank kernels.
pub fn probe(path: &str, tracer: &Tracer, outcome: &mut Outcome) {
    outcome.attempted += 1;
    let g = match read_graph_auto(path) {
        Ok(g) => g,
        Err(e) => return outcome.record("payback.probe", Err(e.to_string())),
    };
    for order in ORDERS {
        let (pi, secs) = tracer.time(
            || format!("reorder.app.{order}.t1"),
            || run_with_threads(Some(1), || scheme(order).try_reorder(&g).map_err(OpError::Scheme)),
        );
        if order == "rcm" {
            outcome.layer("reorder.app.rcm.t1_s", secs);
        }
        let laid = pi.map_err(|e| e.to_string()).and_then(|pi| {
            let gp = g.permuted(&pi).map_err(|e| e.to_string())?;
            let cz = CompressedCsr::from_csr(&gp).map_err(|e| e.to_string())?;
            Ok((gp, cz))
        });
        let (gp, cz) = match laid {
            Ok(pair) => pair,
            Err(e) => return outcome.record("payback.probe", Err(e)),
        };
        let bytes = [("flat", 4.0 * gp.num_arcs() as f64), ("csrz", cz.gap_bytes() as f64)];
        for (form, b) in bytes {
            outcome.count(&format!("pagerank.{order}.{form}.computed_bytes_per_iter"), b);
        }
        let mut h = Hierarchy::new(HierarchyConfig::scaled_cascade_lake());
        replay_louvain_move(&gp, LouvainReplayKernel::FlatScatter, &mut h);
        outcome.count(&format!("memsim.louvain.{order}.l1_hit_ratio"), h.report().l1_hit_rate());
        let mut h = Hierarchy::new(HierarchyConfig::scaled_cascade_lake());
        replay_pagerank_iteration(&gp, &mut h);
        outcome.count(&format!("memsim.pagerank.{order}.l1_hit_ratio"), h.report().l1_hit_rate());
    }
}
