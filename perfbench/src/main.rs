//! End-to-end benchmark of the reorderlab workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload reorder_sweep --seed 0 --seconds 40 --trace 0
//! ```
//!
//! Every workload runs the same three phases — a reorder sweep through
//! `ops::execute_with`, the application payback pipeline, and zipf traffic
//! against the self-hosted daemon — on its own input mix: the workload's
//! namesake phase runs at full size, the other two on small companions, so
//! every run reports all end-to-end metrics. Inputs are generated from
//! `--seed` and written to files at set-up; the program reads only those
//! files and the preloaded corpus. The last stdout line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
//! exit code is 0 only when every correctness gate passed.

mod inputs;
mod metrics;
mod payback;
mod serving;
mod spans;
mod stats;
mod sweep;

use reorderlab_ops::write_graph_auto;
use reorderlab_trace::Json;
use spans::{Record, Tracer};
use stats::median;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use sweep::SweepGraph;

/// Worker threads the whole process may use.
const MAX_THREADS: usize = 2;
/// Where set-up writes the inputs, under the directory the run starts in.
const WORK_DIR: &str = ".perfbench_work";
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The three phases every workload runs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `measure` requests on the road and social graphs.
    Sweep,
    /// The application payback pipeline.
    Payback,
    /// Zipf traffic against the daemon.
    Traffic,
}

/// One workload: the phase it stresses, which runs once per slot on
/// full-size inputs, and the inputs of every phase. The other two phases
/// run on small companions in repeated cycles that fill the rest of each
/// slot, so their medians settle.
pub struct Mix {
    /// Workload name.
    pub name: &'static str,
    /// The phase this workload stresses.
    pub heavy: Phase,
    /// Slots per round: each runs the heavy phase once, then companions.
    pub slots: usize,
    /// Road graph of the sweep (written as `.csrbin`).
    pub road: &'static str,
    /// Social graph of the sweep (written as `.el` text).
    pub social: &'static str,
    /// Graph of the payback pipeline (written as `.csrbin`).
    pub app: &'static str,
}

/// The small companion inputs.
const SMALL_ROAD: &str = "us_power_grid";
const SMALL_SOCIAL: &str = "openflights";
const SMALL_APP: &str = "delaunay_n14";
/// Companion cycles per slot, at least.
const MIN_CYCLES: usize = 2;

/// The workloads; `BENCHMARK.json` records why each was chosen.
pub const MIXES: [Mix; 2] = [
    Mix {
        name: "reorder_sweep",
        heavy: Phase::Sweep,
        slots: 2,
        road: "ca_roadnet",
        social: "hyves",
        app: SMALL_APP,
    },
    Mix {
        name: "app_payback",
        heavy: Phase::Payback,
        slots: 1,
        road: SMALL_ROAD,
        social: SMALL_SOCIAL,
        app: "youtube",
    },
];

/// Operation counts, correctness verdicts and per-layer samples of a run.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a gate.
    pub failed: u64,
    errors: Vec<String>,
    layers: BTreeMap<String, Vec<f64>>,
    counts: BTreeMap<String, f64>,
}

impl Outcome {
    /// Records one gate verdict; a failure counts as a failed operation.
    pub fn record(&mut self, what: &str, verdict: Result<(), String>) {
        if let Err(e) = verdict {
            self.failed += 1;
            if self.errors.len() < 10 {
                self.errors.push(format!("{what}: {e}"));
            }
        }
    }

    /// Adds one per-layer timing sample.
    pub fn layer(&mut self, key: &str, value: f64) {
        self.layers.entry(key.to_string()).or_default().push(value);
    }

    /// Per-layer timing samples by metric name.
    pub fn layer_samples(&self) -> &BTreeMap<String, Vec<f64>> {
        &self.layers
    }

    /// Exact counts by metric name.
    pub fn counts(&self) -> &BTreeMap<String, f64> {
        &self.counts
    }

    /// Records an exact count; a count that changes between passes of the
    /// same run fails the gate.
    pub fn count(&mut self, key: &str, value: f64) {
        if let Some(&prev) = self.counts.get(key) {
            if prev.to_bits() != value.to_bits() {
                self.attempted += 1;
                self.record(key, Err(format!("exact count changed: {prev} then {value}")));
            }
        } else {
            self.counts.insert(key.to_string(), value);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args =
        Args { workload: String::new(), seed: inputs::DEFAULT_SEED, seconds: 20.0, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
            }
            "--trace" => match value.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// A workload's inputs as set-up leaves them.
struct Inputs {
    road: SweepGraph,
    social: SweepGraph,
    app: String,
    daemon: serving::Daemon,
}

/// Generates and writes every input, preloads the corpus and starts the
/// daemon.
fn setup(mix: &Mix, seed: u64, dir: &Path) -> Result<Inputs, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let write = |name: &str, file: &str| -> Result<String, String> {
        let path = dir.join(file).to_string_lossy().into_owned();
        write_graph_auto(&inputs::instance(name, seed)?, &path).map_err(|e| e.to_string())?;
        Ok(path)
    };
    let road = SweepGraph::road(write(mix.road, "road.csrbin")?);
    let social = SweepGraph::social(write(mix.social, "social.el")?);
    let app = write(mix.app, "app.csrbin")?;
    let corpus_dir = dir.join("corpus");
    serving::write_corpus(&corpus_dir, seed)?;
    let (corpus, handle) = serving::start(&corpus_dir)?;
    Ok(Inputs { road, social, app, daemon: serving::Daemon { corpus, handle } })
}

/// End-to-end samples of a run.
#[derive(Default)]
struct Samples {
    e2e: BTreeMap<&'static str, Vec<f64>>,
    rcm_s: Vec<f64>,
    app_s: BTreeMap<String, Vec<f64>>,
}

/// What one round runs on, with the workload seed.
struct Ctx<'a> {
    mix: &'a Mix,
    inputs: &'a Inputs,
    templates: &'a [serving::Template],
    seed: u64,
}

/// A round's sinks: end-to-end samples, traffic pools, gate verdicts.
struct Sinks<'a> {
    samples: &'a mut Samples,
    traffic: &'a mut serving::Traffic,
    outcome: &'a mut Outcome,
}

/// Runs `phase` once.
fn phase(ctx: &Ctx, phase: Phase, trace_index: u64, tracer: &Tracer, sinks: &mut Sinks) {
    let Sinks { samples, traffic, outcome } = sinks;
    match phase {
        Phase::Sweep => {
            let road = sweep::run(&ctx.inputs.road, tracer, outcome);
            let social = sweep::run(&ctx.inputs.social, tracer, outcome);
            samples.e2e.entry("sweep_road_s").or_default().push(road);
            samples.e2e.entry("sweep_social_s").or_default().push(social);
        }
        Phase::Payback => {
            if let Some(p) = payback::run(&ctx.inputs.app, ctx.seed, tracer, outcome) {
                samples.add_payback(p);
            }
        }
        Phase::Traffic => {
            let (daemon, templates) = (&ctx.inputs.daemon, ctx.templates);
            traffic.run(daemon, templates, (ctx.seed, trace_index), tracer, outcome);
        }
    }
}

/// How a round decides its companion cycles.
enum Plan<'a> {
    /// Fill this many seconds from now, split evenly across the slots.
    Fill(f64),
    /// Repeat a previous round's cycle counts, one per slot.
    Repeat(&'a [usize]),
}

/// One round of the workload's slots. A slot runs the workload's heavy phase,
/// then cycles of the two companion phases until its share of the budget
/// is spent, at least [`MIN_CYCLES`] of them. Returns the wall time and the
/// cycles per slot.
fn round(ctx: &Ctx, plan: &Plan, tracer: &Tracer, sinks: &mut Sinks) -> (f64, Vec<usize>) {
    let span = tracer.enter(|| "round".into());
    let start = Instant::now();
    let companions: Vec<Phase> = [Phase::Sweep, Phase::Payback, Phase::Traffic]
        .into_iter()
        .filter(|p| *p != ctx.mix.heavy)
        .collect();
    let mut trace_index = 0;
    let slots = ctx.mix.slots;
    let mut cycles = Vec::with_capacity(slots);
    for slot in 0..slots {
        phase(ctx, ctx.mix.heavy, trace_index, tracer, sinks);
        trace_index += 1;
        let cycles_start = Instant::now();
        let mut done = 0;
        loop {
            let more = match plan {
                Plan::Repeat(counts) => done < counts[slot],
                Plan::Fill(secs) => {
                    let slot_end = secs * (slot + 1) as f64 / slots as f64;
                    let per_cycle = cycles_start.elapsed().as_secs_f64() / done.max(1) as f64;
                    done < MIN_CYCLES || start.elapsed().as_secs_f64() + per_cycle < slot_end
                }
            };
            if !more {
                break;
            }
            for &p in &companions {
                phase(ctx, p, trace_index, tracer, sinks);
            }
            trace_index += 1;
            done += 1;
        }
        cycles.push(done);
    }
    (span.close(), cycles)
}

impl Samples {
    fn add_payback(&mut self, p: payback::Pass) {
        for app in payback::APPS {
            for form in payback::FORMS {
                let total: f64 = payback::ORDERS
                    .iter()
                    .map(|o| p.app_s.get(&format!("{app}.{form}.{o}")).copied().unwrap_or(0.0))
                    .sum();
                self.e2e.entry(metrics::app_metric(app, form)).or_default().push(total);
            }
        }
        for (k, v) in p.app_s {
            self.app_s.entry(k).or_default().push(v);
        }
        self.rcm_s.push(p.rcm_s);
        self.e2e.entry("pipeline_s").or_default().push(p.pipeline_s);
    }
}

/// Per-layer samples of one traced round: every span's duration, the ops
/// layer's self time inside `execute`, and the round's time outside every
/// leaf span.
fn layers_from_spans(records: &[Record], outcome: &mut Outcome) {
    for (i, r) in records.iter().enumerate() {
        outcome.layer(&format!("{}_s", r.name), r.secs());
        if let Some(role) = r.name.strip_prefix("ops.").and_then(|s| s.strip_suffix(".execute")) {
            outcome.layer(&format!("ops.{role}.unattributed_s"), Tracer::self_secs(records, i));
        }
    }
    let is_leaf = |i: usize| !records.iter().any(|r| r.parent == Some(i));
    let leaves: f64 = (0..records.len()).filter(|&i| is_leaf(i)).map(|i| records[i].secs()).sum();
    let roots: f64 = records.iter().filter(|r| r.parent.is_none()).map(Record::secs).sum();
    outcome.layer("unattributed_s", roots - leaves);
}

fn run(args: &Args) -> Result<(Json, bool), String> {
    let mix = MIXES.iter().find(|m| m.name == args.workload).ok_or_else(|| {
        let names: Vec<&str> = MIXES.iter().map(|m| m.name).collect();
        format!("unknown workload {:?}; one of {}", args.workload, names.join(", "))
    })?;
    let work =
        PathBuf::from(WORK_DIR).join(format!("{}-{}-{}", mix.name, args.seed, std::process::id()));
    let result = measure(mix, args, &work);
    let _ = std::fs::remove_dir_all(&work);
    // Removed only once no other run is using it.
    let _ = std::fs::remove_dir(WORK_DIR);
    result
}

/// What the traced round and its probes leave behind.
struct Traced {
    wall: f64,
    traffic: serving::Traffic,
    spans: Json,
}

/// Repeats the untraced round (same companion cycles) with spans on, then
/// runs the probes that time layers outside the request path.
fn traced_round(ctx: &Ctx, cycles: &[usize], outcome: &mut Outcome) -> Traced {
    let tracer = Tracer::new(true);
    let mut traffic = serving::Traffic::default();
    let mut scratch = Samples::default();
    let mut sinks = Sinks { samples: &mut scratch, traffic: &mut traffic, outcome };
    let (wall, _) = round(ctx, &Plan::Repeat(cycles), &tracer, &mut sinks);
    let records = tracer.records();
    layers_from_spans(&records, outcome);
    let probes = Tracer::new(false);
    sweep::probe(&ctx.inputs.road, &probes, outcome);
    sweep::probe(&ctx.inputs.social, &probes, outcome);
    payback::probe(&ctx.inputs.app, &probes, outcome);
    traffic.engine_probe(&ctx.inputs.daemon, ctx.templates, ctx.seed, &probes);
    Traced { wall, traffic, spans: Tracer::to_json(&records) }
}

fn measure(mix: &Mix, args: &Args, work: &Path) -> Result<(Json, bool), String> {
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for k in 0..SETUPS {
        drop(inputs.take());
        let t0 = Instant::now();
        inputs = Some(setup(mix, args.seed, &work.join(format!("setup{k}")))?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let inputs = inputs.ok_or("no set-up ran")?;
    let templates = serving::templates(&inputs.daemon.corpus);
    let ctx = Ctx { mix, inputs: &inputs, templates: &templates, seed: args.seed };
    let mut outcome = Outcome::default();
    // Fill the permutation cache before timing: a long-running daemon is
    // warm, and a cold start would weigh on the first traffic phase only.
    let warm = (args.seed, serving::WARM_TRACE);
    let quiet = Tracer::new(false);
    serving::Traffic::default().run(&inputs.daemon, &templates, warm, &quiet, &mut outcome);

    let mut samples = Samples::default();
    let mut traffic = serving::Traffic::default();
    let mut sinks = Sinks { samples: &mut samples, traffic: &mut traffic, outcome: &mut outcome };
    let (wall, cycles) = round(&ctx, &Plan::Fill(args.seconds), &quiet, &mut sinks);
    let traced = args.trace.then(|| traced_round(&ctx, &cycles, &mut outcome));
    drop(inputs);
    samples.e2e.insert("setup_s", setup_s);
    samples.e2e.insert("serve_rps", traffic.rps.clone());
    samples.e2e.insert("serve_p50_ms", traffic.p50_ms.clone());
    samples.e2e.insert("serve_p99_ms", traffic.tail_ms.clone());

    println!(
        "perfbench workload={} seed={} trace={} threads={} companion_cycles={cycles:?}",
        mix.name,
        args.seed,
        u8::from(args.trace),
        std::env::var("RAYON_NUM_THREADS").unwrap_or_default(),
    );
    println!(
        "inputs: road={} social={} app={} corpus={} requests/phase={}",
        mix.road,
        mix.social,
        mix.app,
        serving::CORPUS.join(","),
        serving::REQUESTS
    );
    let payback = metrics::payback_rows(&samples.app_s, &samples.rcm_s);
    for row in &payback {
        println!("{}", row.text);
    }
    println!(
        "serve: {} requests in {} phases; latency metrics are medians of per-phase p50 and p99",
        traffic.all_ms.len(),
        traffic.rps.len(),
    );
    for e in &outcome.errors {
        println!("FAILED {e}");
    }

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    let list = if let Some(t) = &traced {
        metrics::traced_values(&mut values, &outcome, &t.traffic, &payback);
        values.insert("trace.overhead_s".into(), t.wall - wall);
        for (k, v) in outcome.layer_samples() {
            counts.insert(k.clone(), v.len());
        }
        let file = format!(".perfbench_out/spans-{}-seed{}.json", mix.name, args.seed);
        let written = std::fs::create_dir_all(".perfbench_out")
            .and_then(|()| std::fs::write(&file, t.spans.to_pretty()));
        match written {
            Ok(()) => println!("spans: {file}"),
            Err(e) => println!("spans not written: {e}"),
        }
        metrics::per_layer()
    } else {
        for (k, v) in &samples.e2e {
            values.insert((*k).to_string(), median(v));
            counts.insert((*k).to_string(), v.len());
        }
        metrics::end_to_end()
    };
    let mut out = Vec::new();
    let mut complete = true;
    for m in list {
        let v = values.get(&m.name).copied().unwrap_or(f64::NAN);
        complete &= v.is_finite();
        let n = counts.get(&m.name).copied().unwrap_or(1);
        println!("{:<48} {:>14.6} {:<6} (n={n})", m.name, v, m.unit);
        let entry = vec![("value".into(), Json::Num(v)), ("unit".into(), Json::Str(m.unit.into()))];
        out.push((m.name, Json::Obj(entry)));
    }
    let correct = outcome.failed == 0 && complete;
    let json = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(outcome.attempted as f64)),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        ("metrics".into(), Json::Obj(out)),
    ]);
    Ok((json, correct))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    // Bound every parallel call in the process, daemon workers included,
    // before any thread starts.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("RAYON_NUM_THREADS", cores.min(MAX_THREADS).to_string());
    match run(&args) {
        Ok((json, correct)) => {
            println!("{}", json.to_line());
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
