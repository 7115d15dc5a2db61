//! The metric catalogue: every end-to-end and per-layer metric by name and
//! unit, and the derived values (payback rows, serve splits) of a run.

use crate::payback::{APPS, FORMS, ORDERS};
use crate::serving::Traffic;
use crate::stats::{median, percentile, tail};
use crate::sweep::{slug, SweepGraph};
use crate::Outcome;
use std::collections::BTreeMap;

/// A metric's name and unit.
pub struct Metric {
    /// Name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, unit: &'static str) -> Metric {
    Metric { name: name.into(), unit }
}

/// The end-to-end metric of application `app` on adjacency `form`.
pub fn app_metric(app: &str, form: &str) -> &'static str {
    match (app, form) {
        ("louvain", "flat") => "louvain_flat_s",
        ("louvain", _) => "louvain_csrz_s",
        ("imm", "flat") => "imm_flat_s",
        ("imm", _) => "imm_csrz_s",
        ("pagerank", "flat") => "pagerank_flat_s",
        _ => "pagerank_csrz_s",
    }
}

/// The 12 end-to-end metrics, each a median over the run's samples.
pub fn end_to_end() -> Vec<Metric> {
    let mut out =
        vec![metric("setup_s", "s"), metric("sweep_road_s", "s"), metric("sweep_social_s", "s")];
    for app in APPS {
        for form in FORMS {
            out.push(metric(app_metric(app, form), "s"));
        }
    }
    out.push(metric("pipeline_s", "s"));
    out.push(metric("serve_rps", "1/s"));
    out.push(metric("serve_p50_ms", "ms"));
    out.push(metric("serve_p99_ms", "ms"));
    out
}

/// Every per-layer metric of the traced run, grouped by crate.
pub fn per_layer() -> Vec<Metric> {
    let mut out = Vec::new();
    // graph: ingest, relabel, compress
    for kind in ["csrbin", "el"] {
        out.push(metric(format!("ingest.{kind}_s"), "s"));
        out.push(metric(format!("ingest.{kind}_mb_per_s"), "MB/s"));
    }
    out.push(metric("ingest.app_s", "s"));
    for order in ORDERS {
        out.push(metric(format!("relabel.{order}_s"), "s"));
        out.push(metric(format!("compress.{order}_s"), "s"));
    }
    // core and partition: schemes at two threads and one, and measures
    for sg in [SweepGraph::road(String::new()), SweepGraph::social(String::new())] {
        for s in &sg.schemes {
            out.push(metric(format!("reorder.{}.{}_s", sg.role, slug(s)), "s"));
            out.push(metric(format!("reorder.{}.{}.t1_s", sg.role, slug(s)), "s"));
        }
        out.push(metric(format!("measure.{}.gap_s", sg.role), "s"));
        // ops: resolve, render and the rest of execute
        for part in ["resolve", "render", "unattributed"] {
            out.push(metric(format!("ops.{}.{part}_s", sg.role), "s"));
        }
    }
    out.push(metric("reorder.app.rcm_s", "s"));
    out.push(metric("reorder.app.rcm.t1_s", "s"));
    // community, influence, kernels
    for app in APPS {
        for form in FORMS {
            for order in ORDERS {
                out.push(metric(format!("{app}.{form}.{order}_s"), "s"));
            }
        }
    }
    for order in ORDERS {
        out.push(metric(format!("louvain.{order}.iterations"), "count"));
        out.push(metric(format!("imm.{order}.rr_sets"), "count"));
        out.push(metric(format!("pagerank.{order}.iterations"), "count"));
        for form in FORMS {
            out.push(metric(format!("pagerank.{order}.{form}.computed_bytes_per_iter"), "bytes"));
        }
        for app in ["louvain", "pagerank"] {
            out.push(metric(format!("memsim.{app}.{order}.l1_hit_ratio"), "ratio"));
        }
    }
    for app in APPS {
        for form in FORMS {
            out.push(metric(format!("payback.{app}.{form}.rcm_saved_s"), "s"));
        }
    }
    // serve
    for name in [
        "engine_p50_ms",
        "engine_p99_ms",
        "socket_ms",
        "hit_p50_ms",
        "miss_p50_ms",
        "threads_env_p50_ms",
        "plain_p50_ms",
    ] {
        out.push(metric(format!("serve.{name}"), "ms"));
    }
    out.push(metric("serve.cache_hit_ratio", "ratio"));
    for name in ["cache_hits", "cache_lookups", "cache_evictions", "coalesced", "shed", "errors"] {
        out.push(metric(format!("serve.{name}"), "count"));
    }
    // trace
    out.push(metric("trace.overhead_s", "s"));
    out.push(metric("unattributed_s", "s"));
    out
}

/// One payback row: what RCM saves an application, and how many runs
/// repay its reorder time.
pub struct Payback {
    /// `payback.<app>.<form>`.
    pub key: String,
    /// Natural minus RCM application seconds (medians).
    pub saved_s: f64,
    /// The printed row.
    pub text: String,
}

/// Payback rows from the run's medians: `rcm_runs = reorder.app.rcm_s ÷
/// (natural − rcm)`, or "never" when RCM saves no time.
pub fn payback_rows(app_s: &BTreeMap<String, Vec<f64>>, rcm_s: &[f64]) -> Vec<Payback> {
    let reorder = median(rcm_s);
    let mut rows = Vec::new();
    for app in APPS {
        for form in FORMS {
            let at = |order: &str| {
                app_s.get(&format!("{app}.{form}.{order}")).map_or(f64::NAN, |v| median(v))
            };
            let saved = at("natural") - at("rcm");
            let key = format!("payback.{app}.{form}");
            let runs = if saved > 0.0 { format!("{:.2}", reorder / saved) } else { "never".into() };
            let text = format!(
                "{key}.rcm_runs {runs} (reorder {reorder:.4} s, natural {:.4} s, rcm {:.4} s)",
                at("natural"),
                at("rcm")
            );
            rows.push(Payback { key, saved_s: saved, text });
        }
    }
    rows
}

/// Fills `values` with the traced run's per-layer metrics.
pub fn traced_values(
    values: &mut BTreeMap<String, f64>,
    outcome: &Outcome,
    traffic: &Traffic,
    payback: &[Payback],
) {
    for (k, v) in outcome.layer_samples() {
        values.insert(k.clone(), median(v));
    }
    for (k, v) in outcome.counts() {
        values.insert(k.clone(), *v);
    }
    for row in payback {
        values.insert(format!("{}.rcm_saved_s", row.key), row.saved_s);
    }
    let p50 = |xs: &[f64]| percentile(xs, 50.0);
    let engine_p50 = p50(&traffic.engine_ms);
    values.insert("serve.engine_p50_ms".into(), engine_p50);
    values.insert("serve.engine_p99_ms".into(), tail(&traffic.engine_ms).1);
    values.insert("serve.socket_ms".into(), p50(&traffic.all_ms) - engine_p50);
    values.insert("serve.hit_p50_ms".into(), p50(&traffic.hit_ms));
    values.insert("serve.miss_p50_ms".into(), p50(&traffic.miss_ms));
    values.insert("serve.threads_env_p50_ms".into(), p50(&traffic.threads_ms));
    values.insert("serve.plain_p50_ms".into(), p50(&traffic.plain_ms));
    for (k, v) in &traffic.counters {
        values.insert(format!("serve.{k}"), *v);
    }
    let lookups = traffic.counters.get("cache_lookups").copied().unwrap_or(0.0);
    let hits = traffic.counters.get("cache_hits").copied().unwrap_or(0.0);
    values.insert("serve.cache_hit_ratio".into(), if lookups > 0.0 { hits / lookups } else { 0.0 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorderlab_trace::Json;

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let doc = Json::parse(&text).unwrap();
        let ours = |ms: Vec<Metric>| -> Vec<(String, String)> {
            ms.into_iter().map(|m| (m.name, m.unit.to_string())).collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), ours(end_to_end()));
        assert_eq!(listed(&doc, "per_layer"), ours(per_layer()));
    }

    #[test]
    fn metric_names_are_unique_and_within_limits() {
        let mut names: Vec<String> =
            end_to_end().into_iter().chain(per_layer()).map(|m| m.name).collect();
        assert!(per_layer().len() <= 128);
        for n in &names {
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
