//! The reorder sweep: `measure` requests through `ops::execute_with` on
//! files written at set-up, one per sweep graph.
//!
//! The permutation source wraps `ComputePerm` so the benchmark can time
//! each scheme and keep each ordering for the correctness gate; the
//! resolver wraps `FsResolver` to time ingest. Both only observe: the
//! request runs exactly as `ops::execute` would run it.

use crate::spans::Tracer;
use crate::Outcome;
use reorderlab_core::measures::gap_measures;
use reorderlab_core::Scheme;
use reorderlab_graph::{read_binary_csr, read_edge_list, Csr, Permutation};
use reorderlab_ops::{
    execute_with, run_with_threads, ComputePerm, FsResolver, GraphSource, OpError, OpReport,
    OpRequest, PermSource, ResolveGraph, ResolvedGraph,
};
use reorderlab_trace::RunRecorder;
use std::cell::RefCell;
use std::fs::File;
use std::io::BufReader;
use std::sync::Arc;

/// The seed `measure` uses for its default evaluation suite.
const SUITE_SEED: u64 = 42;

/// The scheme left out of the social sweep: Gorder alone takes about 82 s
/// on `hyves` at two threads, more than the rest of the suite together.
const SOCIAL_EXCLUDED: &str = "gorder";

/// One sweep graph: its role in metric names, its file and its schemes.
pub struct SweepGraph {
    /// `road` or `social`.
    pub role: &'static str,
    /// The file written at set-up (`.csrbin` or `.el`).
    pub path: String,
    /// The schemes the request runs, in order.
    pub schemes: Vec<Scheme>,
    /// Scheme specs sent in the request; empty selects the default suite.
    pub specs: Vec<String>,
}

impl SweepGraph {
    /// The road graph: the full 11-scheme evaluation suite (the request's
    /// default).
    pub fn road(path: String) -> SweepGraph {
        SweepGraph {
            role: "road",
            path,
            schemes: Scheme::evaluation_suite(SUITE_SEED),
            specs: Vec::new(),
        }
    }

    /// The social graph: the suite without Gorder, named explicitly.
    pub fn social(path: String) -> SweepGraph {
        let schemes: Vec<Scheme> = Scheme::evaluation_suite(SUITE_SEED)
            .into_iter()
            .filter(|s| slug(s) != SOCIAL_EXCLUDED)
            .collect();
        let specs = schemes.iter().map(Scheme::spec).collect();
        SweepGraph { role: "social", path, schemes, specs }
    }
}

/// A scheme's name in metric keys: its spec without parameters.
pub fn slug(s: &Scheme) -> String {
    s.spec().split(':').next().unwrap_or_default().to_string()
}

struct TimedResolver<'a> {
    tracer: &'a Tracer,
    role: &'static str,
    graph: RefCell<Option<Arc<Csr>>>,
}

impl ResolveGraph for TimedResolver<'_> {
    fn resolve(&self, source: &GraphSource) -> Result<ResolvedGraph, OpError> {
        let _span = self.tracer.enter(|| format!("ops.{}.resolve", self.role));
        let resolved = FsResolver.resolve(source)?;
        *self.graph.borrow_mut() = Some(Arc::clone(&resolved.graph));
        Ok(resolved)
    }
}

struct TimedPerms<'a> {
    tracer: &'a Tracer,
    role: &'static str,
    orderings: Vec<Arc<Permutation>>,
}

impl PermSource for TimedPerms<'_> {
    fn ordering(
        &mut self,
        resolved: &ResolvedGraph,
        scheme: &Scheme,
        rec: &mut RunRecorder,
    ) -> Result<(Arc<Permutation>, bool), OpError> {
        let span = self.tracer.enter(|| format!("reorder.{}.{}", self.role, slug(scheme)));
        let out = ComputePerm.ordering(resolved, scheme, rec);
        span.close();
        if let Ok((pi, _)) = &out {
            self.orderings.push(Arc::clone(pi));
        }
        out
    }
}

/// Runs one `measure` request on `sg` and checks its report; returns the
/// request's wall time (execute through the rendered report).
pub fn run(sg: &SweepGraph, tracer: &Tracer, outcome: &mut Outcome) -> f64 {
    let request = OpRequest::Measure {
        source: GraphSource::Path(sg.path.clone()),
        schemes: sg.specs.clone(),
    };
    let resolver = TimedResolver { tracer, role: sg.role, graph: RefCell::new(None) };
    let mut perms = TimedPerms { tracer, role: sg.role, orderings: Vec::new() };
    let span = tracer.enter(|| format!("sweep.{}", sg.role));
    let exec = tracer.enter(|| format!("ops.{}.execute", sg.role));
    let result = execute_with(&request, &resolver, &mut perms);
    exec.close();
    let rendered = result.as_ref().ok().map(|out| match &out.report {
        OpReport::Measure(m) => {
            tracer.time(|| format!("ops.{}.render", sg.role), || m.render_text()).0
        }
        other => format!("unexpected {} report", other.op_name()),
    });
    let secs = span.close();

    outcome.attempted += 1;
    let graph = resolver.graph.borrow().clone();
    let verdict = match (result, graph, rendered) {
        (Ok(out), Some(g), Some(text)) => {
            let _gate = tracer.enter(|| format!("measure.{}.gap", sg.role));
            check(sg, &out.report, &g, &perms.orderings, &text)
        }
        (Err(e), _, _) => Err(format!("measure request failed: {e}")),
        _ => Err("measure request resolved no graph".into()),
    };
    outcome.record(&format!("sweep.{}", sg.role), verdict);
    secs
}

/// The sweep's correctness gate: one row per scheme in order, every
/// ordering a bijection on the graph's vertices, and every row equal to a
/// direct `gap_measures` recomputation.
fn check(
    sg: &SweepGraph,
    report: &OpReport,
    g: &Csr,
    orderings: &[Arc<Permutation>],
    text: &str,
) -> Result<(), String> {
    let OpReport::Measure(m) = report else {
        return Err(format!("expected a measure report, got {}", report.op_name()));
    };
    if m.rows.len() != sg.schemes.len() || orderings.len() != sg.schemes.len() {
        return Err(format!(
            "{} rows and {} orderings for {} schemes",
            m.rows.len(),
            orderings.len(),
            sg.schemes.len()
        ));
    }
    if text.lines().count() != sg.schemes.len() + 2 {
        return Err("rendered table has the wrong number of lines".into());
    }
    for ((scheme, row), pi) in sg.schemes.iter().zip(&m.rows).zip(orderings) {
        if row.scheme != scheme.name() {
            return Err(format!("row {} where {} was expected", row.scheme, scheme.name()));
        }
        if pi.len() != g.num_vertices() || Permutation::from_ranks(pi.ranks().to_vec()).is_err() {
            return Err(format!("{} ordering is not a bijection", scheme.name()));
        }
        let direct = gap_measures(g, pi);
        let same = direct.avg_gap.to_bits() == row.gaps.avg_gap.to_bits()
            && direct.bandwidth == row.gaps.bandwidth
            && direct.avg_bandwidth.to_bits() == row.gaps.avg_bandwidth.to_bits()
            && direct.avg_log_gap.to_bits() == row.gaps.avg_log_gap.to_bits();
        if !same {
            return Err(format!("{} row differs from a direct gap_measures", scheme.name()));
        }
    }
    Ok(())
}

/// Traced-run probes outside the request: direct graph-layer ingest of the
/// sweep file, and a one-thread baseline of every scheme.
pub fn probe(sg: &SweepGraph, tracer: &Tracer, outcome: &mut Outcome) {
    let bytes = std::fs::metadata(&sg.path).map(|m| m.len()).unwrap_or(0);
    let is_bin = sg.path.ends_with(".csrbin");
    let kind = if is_bin { "csrbin" } else { "el" };
    let (graph, secs) = tracer.time(
        || format!("ingest.{kind}"),
        || -> Result<Csr, String> {
            let mut reader =
                BufReader::new(File::open(&sg.path).map_err(|e| format!("{}: {e}", sg.path))?);
            if is_bin {
                read_binary_csr(&mut reader).map_err(|e| e.to_string())
            } else {
                read_edge_list(reader).map_err(|e| e.to_string())
            }
        },
    );
    outcome.attempted += 1;
    let g = match graph {
        Ok(g) => g,
        Err(e) => {
            outcome.record(&format!("ingest.{kind}"), Err(e));
            return;
        }
    };
    outcome.record(&format!("ingest.{kind}"), Ok(()));
    outcome.layer(&format!("ingest.{kind}_s"), secs);
    outcome.layer(&format!("ingest.{kind}_mb_per_s"), bytes as f64 / 1e6 / secs);
    for scheme in &sg.schemes {
        let name = || format!("reorder.{}.{}.t1", sg.role, slug(scheme));
        let (res, secs) = tracer.time(name, || {
            run_with_threads(Some(1), || scheme.try_reorder(&g).map_err(OpError::Scheme))
        });
        outcome.attempted += 1;
        outcome.record(&name(), res.map(|_| ()).map_err(|e| e.to_string()));
        outcome.layer(&format!("{}_s", name()), secs);
    }
}
