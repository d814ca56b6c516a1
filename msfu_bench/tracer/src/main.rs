//! Traced in-process replay of one msfu benchmark workload, plus the
//! reference-simulator spot check the end-to-end runs use to validate
//! `msfu serve` output.
//!
//! ```text
//! msfu-bench-tracer replay --input REQUESTS.ndjson --out TRACE.json
//!                          [--cache-dir DIR] [--workers N]
//! msfu-bench-tracer check --input POINTS.ndjson
//! ```
//!
//! `replay` reads the request lines the benchmark generator wrote (one JSON
//! object per line: `{"phase": "setup"|"run", "line": "<request JSON>",
//! "hits": [bool, ...]}`) and executes them twice, each pass against a fresh
//! cache directory when `--cache-dir` is given:
//!
//! 1. untraced, through the program's own request path: `Request::from_json`,
//!    `Service::run` (or `run_clustered` over an in-process pool of
//!    `--workers` threads for sweeps and searches, as `msfu serve --workers`
//!    does), `Response::to_json`;
//! 2. traced, recording a span around every call into a layer. A sweep
//!    without a cache directory is replayed point by point through
//!    `Factory::build`, `Strategy::map` and `evaluate_mapped_with`, on as
//!    many threads as the real run uses. Other jobs run whole inside their
//!    `service.run` span; when a cache directory is set, *probe* spans
//!    outside the request measure what that span hides: the disk-tier open
//!    (`EvalCache::with_disk`), and the build, mapping and (for predicted
//!    misses) simulation of each sweep and evaluate point.
//!
//! Both passes must produce equal results; any difference is reported under
//! `mismatches`. Spans, per-pass wall times and counters are written to
//! `--out` as one JSON object; the benchmark derives its per-layer metrics
//! from them.
//!
//! `check` maps each listed point again and simulates it with
//! `msfu_sim::reference::run`, comparing the simulated fields with the
//! evaluation `msfu serve` returned (`{"factory", "strategy", "eval",
//! "expect"}` per line). It prints `{"checked": n, "mismatches": [...]}`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use msfu::core::spec::{eval_from_json, factory_from_json, strategy_from_json};
use msfu::core::{
    effective_factory, evaluate_mapped_with, process_cache_stats, CacheStats, EvalCache,
    Evaluation, EvaluationConfig, NoProgress, Strategy, SweepResults, SweepRow, SweepSpec,
};
use msfu::distill::{Factory, FactoryConfig};
use msfu::service::{
    run_clustered, Cluster, ClusterBackend, Job, JobHandle, Payload, Request, Response,
    ResponsePerf, Service, ServiceError,
};
use msfu::sim::SimEngine;
use serde_json::Value;

const USAGE: &str = "usage: msfu-bench-tracer replay --input FILE --out FILE [--cache-dir DIR] [--workers N]\n       msfu-bench-tracer check --input FILE";

/// One recorded span. `parent` indexes the recorder's span list; probe spans
/// have no parent and sit outside every request span.
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
    request: usize,
    probe: bool,
    attrs: Vec<(String, Value)>,
}

/// In-memory span store shared by the replay threads; written out once at
/// the end.
struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn open(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: usize,
        probe: bool,
    ) -> usize {
        let start = self.origin.elapsed().as_secs_f64();
        let mut spans = self.spans.lock().expect("span store lock poisoned");
        spans.push(Span {
            name,
            start,
            end: f64::NAN,
            parent,
            request,
            probe,
            attrs: Vec::new(),
        });
        spans.len() - 1
    }

    fn close(&self, id: usize, attrs: Vec<(String, Value)>) {
        let end = self.origin.elapsed().as_secs_f64();
        let mut spans = self.spans.lock().expect("span store lock poisoned");
        spans[id].end = end;
        spans[id].attrs = attrs;
    }

    fn to_value(&self) -> Value {
        let spans = self.spans.lock().expect("span store lock poisoned");
        Value::Array(
            spans
                .iter()
                .map(|s| {
                    let mut entries = vec![
                        ("name".to_string(), Value::Str(s.name.to_string())),
                        ("start".to_string(), Value::Float(s.start)),
                        // A span left open by a failed call ends where it began.
                        (
                            "end".to_string(),
                            Value::Float(if s.end.is_nan() { s.start } else { s.end }),
                        ),
                        (
                            "parent".to_string(),
                            s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                        ),
                        ("request".to_string(), Value::UInt(s.request as u64)),
                        ("probe".to_string(), Value::Bool(s.probe)),
                    ];
                    entries.extend(s.attrs.iter().cloned());
                    Value::Object(entries)
                })
                .collect(),
        )
    }
}

/// One input line of a replay.
struct Input {
    setup: bool,
    line: String,
    hits: Vec<bool>,
}

fn read_inputs(path: &Path) -> Result<Vec<Input>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut inputs = Vec::new();
    for (n, raw) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let value = serde_json::from_str(raw).map_err(|e| format!("line {}: {e}", n + 1))?;
        let line = value
            .get("line")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: missing `line`", n + 1))?
            .to_string();
        let hits = match value.get("hits").and_then(Value::as_array) {
            Some(items) => items
                .iter()
                .map(|v| matches!(v, Value::Bool(true)))
                .collect(),
            None => Vec::new(),
        };
        inputs.push(Input {
            setup: value.get("phase").and_then(Value::as_str) == Some("setup"),
            line,
            hits,
        });
    }
    Ok(inputs)
}

fn uint(key: &str, n: u64) -> (String, Value) {
    (key.to_string(), Value::UInt(n))
}

fn float(key: &str, x: f64) -> (String, Value) {
    (key.to_string(), Value::Float(x))
}

fn text(key: &str, s: &str) -> (String, Value) {
    (key.to_string(), Value::Str(s.to_string()))
}

fn threads_available() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Points the session-default cache directory at a job that has none, the
/// way `msfu serve --cache-dir` does.
fn inject_cache_dir(request: &mut Request, dir: &Path) {
    match &mut request.job {
        Job::Sweep { spec } if spec.cache_dir.is_none() => spec.cache_dir = Some(dir.into()),
        Job::Search { spec } if spec.cache_dir.is_none() => spec.cache_dir = Some(dir.into()),
        Job::Stream { spec } if spec.cache_dir.is_none() => spec.cache_dir = Some(dir.into()),
        _ => {}
    }
}

fn opens_cache(request: &Request) -> bool {
    matches!(
        request.job,
        Job::Sweep { .. } | Job::Search { .. } | Job::Stream { .. }
    )
}

/// A sweep the traced pass can replay point by point with public calls.
fn decomposable(request: &Request) -> Option<&SweepSpec> {
    match &request.job {
        Job::Sweep { spec }
            if spec.cache_dir.is_none()
                && !spec.collect_breakdowns
                && !spec.collect_mapping_metrics =>
        {
            Some(spec)
        }
        _ => None,
    }
}

fn cache_attrs(delta: &CacheStats) -> Vec<(String, Value)> {
    vec![
        uint("cache_hits", delta.hits),
        uint("cache_misses", delta.misses),
        uint("cache_loaded", delta.loaded),
        uint("cache_persisted", delta.persisted),
    ]
}

fn sim_attrs(evaluation: &Evaluation) -> Vec<(String, Value)> {
    vec![
        uint("cycles", evaluation.latency_cycles),
        uint("routing_conflicts", evaluation.routing_conflicts),
    ]
}

/// Executes one pass over the inputs. Setup lines run untraced in both
/// passes; only run lines are timed and recorded.
struct Pass<'a> {
    cache_dir: Option<PathBuf>,
    cluster: Option<Cluster>,
    trace: Option<&'a Recorder>,
}

impl Pass<'_> {
    /// The program's own request path.
    fn execute(&mut self, request: &Request) -> Response {
        let handle = JobHandle::new();
        let clustered = matches!(request.job, Job::Sweep { .. } | Job::Search { .. });
        match &mut self.cluster {
            Some(cluster) if clustered => {
                run_clustered(cluster, request, &handle, None::<&Mutex<std::io::Sink>>)
            }
            _ => Service::new().run(request, &handle, &NoProgress),
        }
    }

    fn decode(&self, line: &str) -> Result<Request, Box<Response>> {
        let mut request = Request::from_json(line)
            .map_err(|error| Box::new(Response::for_request_error(error)))?;
        if let Some(dir) = &self.cache_dir {
            inject_cache_dir(&mut request, dir);
        }
        Ok(request)
    }

    fn untraced(&mut self, line: &str) -> Response {
        let response = match self.decode(line) {
            Ok(request) => self.execute(&request),
            Err(response) => *response,
        };
        std::hint::black_box(response.to_json());
        response
    }

    fn traced(&mut self, rec: &Recorder, index: usize, input: &Input) -> Response {
        if let (Some(dir), Ok(request)) = (&self.cache_dir, self.decode(&input.line)) {
            probe(rec, index, dir, &request, &input.hits);
        }
        let root = rec.open("request", None, index, false);
        let span = rec.open("service.protocol.decode", Some(root), index, false);
        let decoded = self.decode(&input.line);
        rec.close(span, Vec::new());
        let response = match decoded {
            Ok(request) => {
                let span = rec.open("service.run", Some(root), index, false);
                let before = process_cache_stats();
                let (response, mut attrs) = match decomposable(&request) {
                    Some(spec) => replay_sweep(rec, span, index, &request, spec),
                    None => (self.execute(&request), Vec::new()),
                };
                attrs.extend(cache_attrs(&process_cache_stats().since(&before)));
                if let Some(cluster) = response.perf.cluster {
                    attrs.extend([
                        float("cluster_coordinator_s", cluster.coordinator_seconds),
                        uint("cluster_shards", cluster.shards),
                        uint("cluster_shards_retried", cluster.shards_retried),
                        float("cluster_occupancy", cluster.occupancy),
                    ]);
                }
                attrs.push(text("kind", request.job.kind()));
                rec.close(span, attrs);
                response
            }
            Err(response) => *response,
        };
        let span = rec.open("service.protocol.encode", Some(root), index, false);
        let bytes = response.to_json().len();
        rec.close(span, vec![uint("bytes", bytes as u64)]);
        rec.close(root, vec![text("id", &response.id)]);
        response
    }

    /// Runs the setup lines, then the timed run lines: (run wall seconds,
    /// run responses, failed setup requests).
    fn run(&mut self, inputs: &[Input]) -> (f64, Vec<Response>, usize) {
        let mut setup_errors = 0;
        for input in inputs.iter().filter(|i| i.setup) {
            let response = self.untraced(&input.line);
            if let Err(error) = &response.result {
                eprintln!("setup request {} failed: {error}", response.id);
                setup_errors += 1;
            }
        }
        let start = Instant::now();
        let responses = inputs
            .iter()
            .filter(|i| !i.setup)
            .enumerate()
            .map(|(index, input)| match self.trace {
                Some(rec) => self.traced(rec, index, input),
                None => self.untraced(&input.line),
            })
            .collect();
        (start.elapsed().as_secs_f64(), responses, setup_errors)
    }
}

/// Probe spans for a request whose job runs whole inside `service.run`
/// against a cache directory: the same public calls, on the same inputs and
/// the same directory state, timed outside the request.
fn probe(rec: &Recorder, index: usize, dir: &Path, request: &Request, hits: &[bool]) {
    if opens_cache(request) {
        let span = rec.open("core.persist.open", None, index, true);
        let opened = EvalCache::new().with_disk(dir);
        rec.close(span, Vec::new());
        drop(opened);
    }
    let points: Vec<(FactoryConfig, &Strategy, &EvaluationConfig, bool)> = match &request.job {
        Job::Sweep { spec } => spec
            .points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                (
                    p.factory,
                    &p.strategy,
                    &spec.eval,
                    hits.get(i) == Some(&true),
                )
            })
            .collect(),
        Job::Evaluate {
            factory,
            strategy,
            eval,
        } => vec![(*factory, strategy, eval, false)],
        _ => Vec::new(),
    };
    for (config, strategy, eval, hit) in points {
        let span = rec.open("distill.build", None, index, true);
        let Ok(factory) = Factory::build(&config) else {
            continue; // the request itself reports the error
        };
        rec.close(span, Vec::new());
        let mut engine = SimEngine::new(eval.sim);
        let _ = map_and_simulate(
            rec,
            None,
            index,
            true,
            &factory,
            strategy,
            eval,
            hit,
            &mut engine,
        );
    }
}

/// Maps one point and, unless the cache answers it, simulates it: one span
/// per layer call.
#[allow(clippy::too_many_arguments)]
fn map_and_simulate(
    rec: &Recorder,
    parent: Option<usize>,
    index: usize,
    probe: bool,
    factory: &Factory,
    strategy: &Strategy,
    eval: &EvaluationConfig,
    hit: bool,
    engine: &mut SimEngine,
) -> msfu::core::Result<Option<Evaluation>> {
    let span = rec.open("layout.map", parent, index, probe);
    let layout = strategy.map(factory)?;
    rec.close(
        span,
        vec![
            text("mapper", strategy.short_name()),
            ("hit".to_string(), Value::Bool(hit)),
        ],
    );
    if hit {
        return Ok(None);
    }
    let span = rec.open("sim.run", parent, index, probe);
    let effective = effective_factory(factory, &layout)?;
    let evaluation =
        evaluate_mapped_with(engine, &effective, &layout, strategy.short_name(), eval)?;
    rec.close(span, sim_attrs(&evaluation));
    Ok(Some(evaluation))
}

/// Replays an uncached sweep point by point: each distinct factory is built
/// once, then the points run on one thread (serial requests) or on as many
/// threads as the machine offers, pulling points in order from a shared
/// cursor like the sweep engine's pool.
fn replay_sweep(
    rec: &Recorder,
    parent: usize,
    index: usize,
    request: &Request,
    spec: &SweepSpec,
) -> (Response, Vec<(String, Value)>) {
    let start = Instant::now();
    let threads = if request.serial {
        1
    } else {
        threads_available().min(spec.points.len()).max(1)
    };
    let mut factories: Vec<(FactoryConfig, msfu::core::Result<Factory>)> = Vec::new();
    for point in &spec.points {
        if !factories.iter().any(|(c, _)| *c == point.factory) {
            let span = rec.open("distill.build", Some(parent), index, false);
            factories.push((
                point.factory,
                Factory::build(&point.factory).map_err(Into::into),
            ));
            rec.close(span, Vec::new());
        }
    }
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<msfu::core::Result<SweepRow>>>> =
        Mutex::new((0..spec.points.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut engine = SimEngine::new(spec.eval.sim);
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(point) = spec.points.get(i) else {
                        break;
                    };
                    let span = rec.open("core.sweep.point", Some(parent), index, false);
                    let factory = &factories
                        .iter()
                        .find(|(c, _)| *c == point.factory)
                        .expect("every point's factory was built")
                        .1;
                    let row = match factory {
                        Ok(factory) => map_and_simulate(
                            rec,
                            Some(span),
                            index,
                            false,
                            factory,
                            &point.strategy,
                            &spec.eval,
                            false,
                            &mut engine,
                        )
                        .map(|evaluation| SweepRow {
                            label: point.label.clone(),
                            evaluation: evaluation.expect("a miss always simulates"),
                            breakdown: None,
                            metrics: None,
                        }),
                        Err(e) => Err(e.clone()),
                    };
                    rec.close(span, Vec::new());
                    slots.lock().expect("row slots lock poisoned")[i] = Some(row);
                }
            });
        }
    });
    let rows: msfu::core::Result<Vec<SweepRow>> = slots
        .into_inner()
        .expect("row slots lock poisoned")
        .into_iter()
        .map(|slot| slot.expect("every point is replayed exactly once"))
        .collect();
    let result = rows
        .map(|rows| {
            Payload::Sweep(SweepResults {
                name: spec.name.clone(),
                rows,
            })
        })
        .map_err(|e| ServiceError::from_core(&e));
    let response = Response::new(
        request.id.clone(),
        "sweep",
        false,
        ResponsePerf::new(start.elapsed().as_secs_f64(), request.serial),
        result,
    );
    (response, vec![uint("threads", threads as u64)])
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

fn pass_cache_dir(base: Option<&PathBuf>, name: &str) -> Result<Option<PathBuf>, String> {
    let Some(base) = base else { return Ok(None) };
    let dir = base.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)
            .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    Ok(Some(dir))
}

fn connect(workers: usize) -> Result<Option<Cluster>, String> {
    if workers == 0 {
        return Ok(None);
    }
    Cluster::connect(&ClusterBackend::LocalThreads, workers, None)
        .map(Some)
        .map_err(|e| format!("cannot connect the worker pool: {e}"))
}

fn replay(args: &Args) -> Result<(), String> {
    let inputs = read_inputs(&args.input)?;
    let untraced_dir = pass_cache_dir(args.cache_dir.as_ref(), "untraced")?;
    let (untraced_wall, expected, untraced_setup_errors) = Pass {
        cache_dir: untraced_dir,
        cluster: connect(args.workers)?,
        trace: None,
    }
    .run(&inputs);

    let rec = Recorder::new();
    let traced_dir = pass_cache_dir(args.cache_dir.as_ref(), "traced")?;
    let (traced_wall, responses, traced_setup_errors) = Pass {
        cache_dir: traced_dir.clone(),
        cluster: connect(args.workers)?,
        trace: Some(&rec),
    }
    .run(&inputs);

    let mismatches = expected
        .iter()
        .zip(&responses)
        .filter(|(a, b)| a.result != b.result || a.cancelled != b.cancelled)
        .count()
        + expected.len().abs_diff(responses.len());
    let errors = responses.iter().filter(|r| r.result.is_err()).count()
        + untraced_setup_errors
        + traced_setup_errors;
    let out = Value::Object(vec![
        float("untraced_wall_s", untraced_wall),
        float("traced_wall_s", traced_wall),
        uint("requests", responses.len() as u64),
        uint("errors", errors as u64),
        uint("mismatches", mismatches as u64),
        uint("threads", threads_available() as u64),
        uint(
            "cache_dir_bytes",
            traced_dir.as_deref().map_or(0, dir_bytes),
        ),
        ("spans".to_string(), rec.to_value()),
    ]);
    let body = serde_json::to_string(&out).map_err(|e| e.to_string())?;
    std::fs::write(&args.out, body).map_err(|e| format!("cannot write {}: {e}", args.out.display()))
}

/// Compares one point's served evaluation with the reference simulator.
fn check_point(value: &Value) -> Result<Option<String>, String> {
    let field = |key: &str| value.get(key).ok_or_else(|| format!("missing `{key}`"));
    let config = factory_from_json(field("factory")?).map_err(|e| e.to_string())?;
    let strategy = strategy_from_json(field("strategy")?).map_err(|e| e.to_string())?;
    let eval = eval_from_json(field("eval")?).map_err(|e| e.to_string())?;
    let expect = field("expect")?;
    let factory = Factory::build(&config).map_err(|e| e.to_string())?;
    let layout = strategy.map(&factory).map_err(|e| e.to_string())?;
    let effective = effective_factory(&factory, &layout).map_err(|e| e.to_string())?;
    let sim = msfu::sim::reference::run(&eval.sim, effective.circuit(), &layout)
        .map_err(|e| e.to_string())?;
    let want = |key: &str| expect.get(key).and_then(Value::as_u64);
    let got = [
        ("latency_cycles", sim.cycles),
        ("area", sim.area as u64),
        ("volume", sim.volume()),
        ("stall_cycles", sim.stall_cycles),
        ("routing_conflicts", sim.routing_conflicts),
    ];
    let diffs: Vec<String> = got
        .iter()
        .filter(|(key, v)| want(key) != Some(*v))
        .map(|(key, v)| format!("{key}: served {:?}, reference {v}", want(key)))
        .collect();
    Ok((!diffs.is_empty()).then(|| diffs.join(", ")))
}

fn check(args: &Args) -> Result<(), String> {
    let text = std::fs::read_to_string(&args.input)
        .map_err(|e| format!("cannot read {}: {e}", args.input.display()))?;
    let mut checked = 0u64;
    let mut mismatches = Vec::new();
    for (n, raw) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let value = serde_json::from_str(raw).map_err(|e| format!("line {}: {e}", n + 1))?;
        checked += 1;
        match check_point(&value) {
            Ok(None) => {}
            Ok(Some(diff)) => mismatches.push(Value::Str(format!("line {}: {diff}", n + 1))),
            Err(error) => mismatches.push(Value::Str(format!("line {}: {error}", n + 1))),
        }
    }
    let out = Value::Object(vec![
        uint("checked", checked),
        ("mismatches".to_string(), Value::Array(mismatches)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&out).map_err(|e| e.to_string())?
    );
    Ok(())
}

struct Args {
    mode: String,
    input: PathBuf,
    out: PathBuf,
    cache_dir: Option<PathBuf>,
    workers: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mode = argv.next().ok_or("missing mode")?;
    let mut args = Args {
        mode,
        input: PathBuf::new(),
        out: PathBuf::new(),
        cache_dir: None,
        workers: 0,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--input" => args.input = value.into(),
            "--out" => args.out = value.into(),
            "--cache-dir" => args.cache_dir = Some(value.into()),
            "--workers" => {
                args.workers = value
                    .parse()
                    .map_err(|_| format!("bad --workers `{value}`"))?
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.input.as_os_str().is_empty() {
        return Err("--input is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match args.mode.as_str() {
        "replay" if !args.out.as_os_str().is_empty() => replay(&args),
        "check" => check(&args),
        _ => Err("unknown mode or missing --out".to_string()),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("msfu-bench-tracer: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
