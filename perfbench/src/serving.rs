//! Served traffic: the daemon self-hosted in-process over a preloaded
//! corpus, driven closed-loop by two client connections replaying a seeded
//! zipf trace of request templates.

use crate::inputs::{instance, mix};
use crate::spans::Tracer;
use crate::stats::{percentile, tail};
use crate::Outcome;
use reorderlab_graph::write_binary_csr;
use reorderlab_ops::{execute, GraphSource, OpReport, OpRequest, RequestEnvelope};
use reorderlab_serve::loadgen::exchange;
use reorderlab_serve::{
    serve, zipf_trace, Corpus, CorpusResolver, Engine, ServerConfig, ServerHandle, SubmitResult,
};
use reorderlab_trace::Json;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The preloaded corpus, largest first.
pub const CORPUS: [&str; 4] = ["cora", "pgp", "delaunay_n13", "euroroad"];
/// The schemes the templates request, costliest first: the zipf head holds
/// the orderings that are dear to compute, the tail the cheap ones.
const SCHEMES: [&str; 6] = ["grappolo", "slashburn", "rcm", "hubsort", "degree", "dbg"];
/// Permutation-cache capacity: below the 24 distinct (graph, scheme) keys,
/// so hits, misses and evictions go on all run long. The costly keys at the
/// zipf head stay cached; the cheap tail churns.
const CACHE_CAP: usize = 20;
/// Client connections, each a closed loop.
const CLIENTS: usize = 2;
/// Zipf exponent over template ranks.
const ZIPF_S: f64 = 1.1;
/// Requests per traffic phase: enough that p99 leaves ten samples beyond.
pub const REQUESTS: usize = 1000;
/// Requests that warm the permutation cache before timing.
const WARM_REQUESTS: usize = 300;

/// The index of the trace that warms the permutation cache before timing.
pub const WARM_TRACE: u64 = u64::MAX;

/// Trace `index` of workload `seed`: template indices drawn by zipf rank.
fn phase_trace(templates: &[Template], seed: u64, index: u64) -> Vec<usize> {
    let trace_seed = mix(seed) ^ 0x5e55 ^ index.wrapping_mul(0x2545_f491_4f6c_dd1d);
    let requests = if index == WARM_TRACE { WARM_REQUESTS } else { REQUESTS };
    zipf_trace(templates.len(), requests, ZIPF_S, trace_seed)
}

/// Daemon worker shards. One worker whose parallel calls use the process's
/// two threads keeps the whole process within two busy threads; a worker
/// per client would run four on two cores, and queueing on the
/// oversubscribed cores would set the tail.
const SHARDS: usize = 1;

/// The daemon's configuration.
fn config() -> ServerConfig {
    ServerConfig { shards: SHARDS, queue_cap: 32, cache_cap: CACHE_CAP, ..ServerConfig::default() }
}

/// One request template: its wire line, the render a local execution
/// gives, and for a `"threads":1` template the index of its plain twin.
pub struct Template {
    /// The wire line.
    pub line: String,
    /// The request it decodes to.
    pub request: OpRequest,
    /// The render of a local `ops::execute` of the request over the corpus.
    pub expected: String,
    /// For a `"threads":1` template, its plain twin's index.
    pub twin: Option<usize>,
}

/// The template set over `loaded`, in zipf rank order (rank 0 is the most
/// popular). Reorder, measure, compression and stats requests are
/// interleaved so every popularity band mixes operations.
pub fn templates(loaded: &Arc<Corpus>) -> Vec<Template> {
    let resolver = CorpusResolver::new(Arc::clone(loaded));
    let corpus = |g: &str| GraphSource::Corpus(g.to_string());
    let mut out: Vec<Template> = Vec::new();
    let mut push = |request: OpRequest, threads: Option<usize>, twin: Option<usize>| {
        let line = RequestEnvelope { request: request.clone(), threads }.to_json().to_line();
        let expected = execute(&request, &resolver)
            .map(|o| render(&o.report))
            .unwrap_or_else(|e| format!("local execution failed: {e}"));
        out.push(Template { line, request, expected, twin });
        out.len() - 1
    };
    for (si, s) in SCHEMES.iter().enumerate() {
        for (gi, g) in CORPUS.iter().enumerate() {
            let reorder = OpRequest::Reorder {
                source: corpus(g),
                scheme: Some((*s).to_string()),
                apply_perm: None,
                return_perm: false,
            };
            let plain = push(reorder.clone(), None, None);
            if si == gi {
                push(reorder, Some(1), Some(plain));
            }
        }
        let g = CORPUS[si % CORPUS.len()];
        let next = SCHEMES[(si + 1) % SCHEMES.len()];
        match si % 3 {
            0 => push(
                OpRequest::Measure {
                    source: corpus(g),
                    schemes: vec![(*s).to_string(), next.to_string()],
                },
                None,
                None,
            ),
            1 => push(
                OpRequest::Compression { source: corpus(g), schemes: vec![(*s).to_string()] },
                None,
                None,
            ),
            _ => push(OpRequest::Stats { source: corpus(g) }, None, None),
        };
    }
    out
}

/// Writes the seeded corpus into `dir` as `.csrbin` files.
///
/// # Errors
///
/// A message naming the entry that could not be generated or written.
pub fn write_corpus(dir: &Path, seed: u64) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for name in CORPUS {
        let g = instance(name, seed)?;
        let path = dir.join(format!("{name}.csrbin"));
        let file = File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut w = BufWriter::new(file);
        write_binary_csr(&g, &mut w).map_err(|e| format!("{}: {e}", path.display()))?;
        std::io::Write::flush(&mut w).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// Preloads the corpus and starts the daemon; answers one ping first.
///
/// # Errors
///
/// A message when the corpus does not load or the daemon does not answer.
pub fn start(dir: &Path) -> Result<(Arc<Corpus>, ServerHandle), String> {
    let corpus = Arc::new(Corpus::load_dir(dir).map_err(|e| e.to_string())?);
    let handle = serve(Arc::clone(&corpus), config()).map_err(|e| e.to_string())?;
    let (mut w, mut r) = connect(&handle.addr().to_string())?;
    let pong = exchange(&mut w, &mut r, "{\"control\":\"ping\"}").map_err(|e| e.to_string())?;
    if !pong.contains("\"pong\":true") {
        return Err(format!("daemon did not answer ping: {pong}"));
    }
    Ok((corpus, handle))
}

fn connect(addr: &str) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    let reading = stream.try_clone().map_err(|e| format!("clone socket: {e}"))?;
    Ok((stream, BufReader::new(reading)))
}

/// A replayed request: template, latency and the raw response.
struct Sample {
    template: usize,
    ms: f64,
    response: Result<String, String>,
}

/// Replays `trace` with [`CLIENTS`] closed-loop clients; `open` builds
/// one client (a send-and-wait function) per thread.
fn replay<O, C>(trace: &[usize], templates: &[Template], open: O) -> (Vec<Sample>, f64)
where
    O: Fn() -> Result<C, String> + Sync,
    C: FnMut(&str) -> Result<String, String>,
{
    let cursor = AtomicUsize::new(0);
    let failed = |e: String| vec![Sample { template: 0, ms: f64::INFINITY, response: Err(e) }];
    let t0 = Instant::now();
    let samples = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = match open() {
                        Ok(c) => c,
                        Err(e) => return failed(e),
                    };
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&t) = trace.get(i) else { break };
                        let rt0 = Instant::now();
                        let response = client(&templates[t].line);
                        let ms = rt0.elapsed().as_secs_f64() * 1e3;
                        local.push(Sample { template: t, ms, response });
                    }
                    local
                })
            })
            .collect();
        let joined = handles.into_iter().map(|h| h.join());
        joined.flat_map(|r| r.unwrap_or_else(|_| failed("client thread panicked".into()))).collect()
    });
    (samples, t0.elapsed().as_secs_f64())
}

/// The canonical render of a report: the text the CLI prints, plus every
/// number at full precision where the text rounds it. Reorder reports
/// leave out their wall time and cache flag.
fn render(report: &OpReport) -> String {
    match report {
        OpReport::Stats(s) => s.render_text(),
        OpReport::Reorder(r) => format!(
            "{} {} {} {} {:?} {:?} {:?}",
            r.graph, r.vertices, r.edges, r.label, r.before, r.after, r.permutation
        ),
        OpReport::Measure(m) => {
            let exact: Vec<_> = m.rows.iter().map(|r| &r.gaps).collect();
            format!("{}\n{exact:?}", m.render_text())
        }
        OpReport::Compression(c) => {
            let exact: Vec<_> = c.rows.iter().map(|r| r.bits_per_edge).collect();
            format!("{}\n{exact:?}", c.render_text())
        }
        other => format!("unexpected {} report", other.op_name()),
    }
}

/// Decodes an `ok` response's report.
fn ok_report(line: &str) -> Result<OpReport, String> {
    let v = Json::parse(line).map_err(|e| format!("unparsable response: {e}"))?;
    match (v.get("status").and_then(Json::as_str), v.get("report")) {
        (Some("ok"), Some(r)) => OpReport::from_json(r).map_err(|e| e.to_string()),
        _ => Err(format!("not ok: {line}")),
    }
}

/// The daemon and its inputs, as set-up leaves them.
pub struct Daemon {
    /// The corpus the daemon serves.
    pub corpus: Arc<Corpus>,
    /// The running daemon.
    pub handle: ServerHandle,
}

/// Per-phase latency pools and counters across a run.
#[derive(Default)]
pub struct Traffic {
    /// Every request latency, ms (failures as infinity).
    pub all_ms: Vec<f64>,
    /// Requests per second of each phase.
    pub rps: Vec<f64>,
    /// Median latency of each phase, ms.
    pub p50_ms: Vec<f64>,
    /// Tail latency of each phase, ms (see [`tail`]).
    pub tail_ms: Vec<f64>,
    /// Reorder responses served from the cache, ms.
    pub hit_ms: Vec<f64>,
    /// Reorder responses computed, ms.
    pub miss_ms: Vec<f64>,
    /// `"threads":1` templates, ms.
    pub threads_ms: Vec<f64>,
    /// The plain twins of those templates, ms.
    pub plain_ms: Vec<f64>,
    /// In-process engine replay latencies, ms.
    pub engine_ms: Vec<f64>,
    /// Daemon counters accumulated over the measured phases.
    pub counters: BTreeMap<&'static str, f64>,
}

fn counters(engine: &Engine) -> [(&'static str, f64); 6] {
    let c = engine.cache();
    let s = engine.stats();
    [
        ("cache_hits", c.hits() as f64),
        ("cache_lookups", (c.hits() + c.misses()) as f64),
        ("cache_evictions", c.evictions() as f64),
        ("coalesced", s.coalesced.load(Ordering::Relaxed) as f64),
        ("shed", s.shed.load(Ordering::Relaxed) as f64),
        ("errors", s.errors.load(Ordering::Relaxed) as f64),
    ]
}

impl Traffic {
    /// Replays trace `trace_index` ([`REQUESTS`] long; the warm-up trace is
    /// shorter) against the daemon and checks every response.
    pub fn run(
        &mut self,
        daemon: &Daemon,
        templates: &[Template],
        (seed, trace_index): (u64, u64),
        tracer: &Tracer,
        outcome: &mut Outcome,
    ) {
        let trace = phase_trace(templates, seed, trace_index);
        let addr = daemon.handle.addr().to_string();
        let engine = daemon.handle.engine();
        let before = counters(&engine);
        let open = || {
            let (mut w, mut r) = connect(&addr)?;
            Ok(move |line: &str| exchange(&mut w, &mut r, line).map_err(|e| e.to_string()))
        };
        let span = tracer.enter(|| "serve.traffic".into());
        let (samples, wall) = replay(&trace, templates, open);
        span.close();
        for ((key, a), (_, b)) in counters(&engine).iter().zip(before) {
            *self.counters.entry(key).or_default() += a - b;
        }
        self.rps.push(samples.len() as f64 / wall);
        let _gate = tracer.enter(|| "serve.gate".into());
        let from = self.all_ms.len();
        self.check(templates, samples, outcome);
        self.p50_ms.push(percentile(&self.all_ms[from..], 50.0));
        self.tail_ms.push(tail(&self.all_ms[from..]).1);
    }

    /// The traffic gate: every response `ok` and rendering exactly as the
    /// local execution of its template did.
    fn check(&mut self, templates: &[Template], samples: Vec<Sample>, outcome: &mut Outcome) {
        for s in samples {
            outcome.attempted += 1;
            let t = &templates[s.template];
            let verdict = s.response.and_then(|line| {
                let report = ok_report(&line)?;
                if render(&report) == t.expected {
                    Ok(line)
                } else {
                    Err(format!("response differs from local render: {}", t.line))
                }
            });
            match verdict {
                Ok(line) => {
                    self.all_ms.push(s.ms);
                    if matches!(t.request, OpRequest::Reorder { .. }) {
                        if line.contains("\"cache_hit\":true") {
                            self.hit_ms.push(s.ms);
                        } else {
                            self.miss_ms.push(s.ms);
                        }
                    }
                    if t.twin.is_some() {
                        self.threads_ms.push(s.ms);
                    } else if templates.iter().any(|o| o.twin == Some(s.template)) {
                        self.plain_ms.push(s.ms);
                    }
                    outcome.record("serve", Ok(()));
                }
                Err(e) => {
                    self.all_ms.push(f64::INFINITY);
                    outcome.record("serve", Err(e));
                }
            }
        }
    }

    /// Traced-run probe: the first trace of the run replayed through a
    /// fresh in-process engine, bypassing the socket. The engine is warmed
    /// with the same trace the daemon was warmed with.
    pub fn engine_probe(
        &mut self,
        daemon: &Daemon,
        templates: &[Template],
        seed: u64,
        tracer: &Tracer,
    ) {
        let engine = Engine::new(Arc::clone(&daemon.corpus), &config());
        let open = || {
            Ok(|line: &str| match engine.submit_line(line) {
                SubmitResult::Response(r) | SubmitResult::Shutdown(r) => Ok(r),
            })
        };
        replay(&phase_trace(templates, seed, WARM_TRACE), templates, open);
        let trace = phase_trace(templates, seed, 0);
        let span = tracer.enter(|| "serve.engine".into());
        let (samples, _) = replay(&trace, templates, open);
        span.close();
        engine.shutdown_workers();
        for s in samples {
            let ok = s.response.is_ok_and(|r| r.starts_with("{\"status\":\"ok\""));
            self.engine_ms.push(if ok { s.ms } else { f64::INFINITY });
        }
    }
}
