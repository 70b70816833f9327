//! Wall-clock end-to-end benchmark of JITBULL serving and batch runs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_repeat|serve_unique|batch> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Every workload runs minijs scripts through engines protected by a
//! JITBULL guard over the whole VDC catalog, and checks each script's
//! printed output against the interpreter tier's. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Untraced runs report the end-to-end metrics;
//! traced runs (`--trace 1`) attach a telemetry collector (see [`trace`])
//! and report the per-layer breakdown instead, so tracing never perturbs
//! the end-to-end numbers.
//!
//! Workloads, and why each exists:
//!
//! * `serve_repeat` — a closed-loop client over a 2-worker pool, serving
//!   the repository's request mix (`jitbull_workloads::serving_mix`): the
//!   shared DNA memo and each worker's verdict cache serve most guard work.
//! * `serve_unique` — the same loop, but every script is freshly
//!   generated (see [`gen`]): Δ-extraction and Δ-comparison run on every
//!   optimizing compile.
//! * `batch` — the Octane analogues (`jitbull_workloads::octane_analogues`)
//!   run back to back on one thread at the default tier thresholds, one
//!   fresh engine per program over a long-lived guard: interpretation,
//!   tier-up and compiled execution dominate, with no pool in the path.

mod gen;
mod trace;

use std::cell::RefCell;
use std::collections::HashMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use jitbull::{CompareConfig, DnaDatabase, Guard};
use jitbull_jit::engine::{Engine, EngineConfig};
use jitbull_pool::{Pool, PoolConfig, Request, Ticket};
use jitbull_prng::Rng;
use jitbull_vdc::{all_vdcs, build_database};
use jitbull_workloads::{octane_analogues, serving_mix};

use crate::trace::Tracer;

/// One measured slice of a serving run.
const SLICE: Duration = Duration::from_secs(1);
/// Pool worker threads.
const WORKERS: usize = 2;
/// Fresh scripts `serve_unique` warms each pool with.
const UNIQUE_WARMUP: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeRepeat,
    ServeUnique,
    Batch,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "serve_repeat" => Workload::ServeRepeat,
                    "serve_unique" => Workload::ServeUnique,
                    "batch" => Workload::Batch,
                    _ => return Err(bad()),
                });
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=120).contains(s))
                        .ok_or_else(bad)?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// A script the engine answered, kept until its output is checked.
struct Answer {
    source: Rc<str>,
    printed: Vec<String>,
    /// Submit (or start) to answer.
    latency: Duration,
    /// The engine's whole run.
    engine_run: Duration,
    cycles: u64,
    analysis_cycles: u64,
    /// The measured slice (serving: second; batch: pass) it ran in.
    slice: usize,
}

/// What one run measured.
#[derive(Debug, Default)]
struct Run {
    /// Per correctly answered script: submit (or start) to answer.
    latency: Vec<Duration>,
    /// Per correctly answered script: the measured slice it ran in.
    slice: Vec<usize>,
    /// Per correctly answered script: the engine's whole run.
    engine_run: Vec<Duration>,
    /// Traced runs: frontend parse per script.
    parse: Vec<Duration>,
    /// Traced runs: bytecode compilation per script.
    bytecode: Vec<Duration>,
    /// Simulated cycles over correctly answered scripts.
    cycles: u64,
    /// Simulated JITBULL analysis cycles over correctly answered scripts.
    analysis_cycles: u64,
    attempted: u64,
    failed: u64,
}

impl Run {
    /// Counts a script the engine failed to answer.
    fn reject(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    /// Checks each answer against the interpreter tier, after the
    /// measured window so the oracle costs no measured time; only
    /// `measured` answers enter the timings.
    fn settle(&mut self, answers: Vec<Answer>, measured: bool) {
        let mut oracle: HashMap<Rc<str>, Vec<String>> = HashMap::new();
        for a in answers {
            let expected = oracle.entry(a.source.clone()).or_insert_with(|| {
                jitbull_vm::run_source(&a.source).map_or_else(|_| Vec::new(), |o| o.printed)
            });
            self.attempted += 1;
            if expected.len() != 1 || *expected != a.printed {
                self.failed += 1;
            } else if measured {
                self.latency.push(a.latency);
                self.slice.push(a.slice);
                self.engine_run.push(a.engine_run);
                self.cycles += a.cycles;
                self.analysis_cycles += a.analysis_cycles;
            }
        }
    }

    /// Times the frontend and bytecode compiler on `source`, the two
    /// layers the engine runs before any tiering.
    fn frontend_spans(&mut self, source: &str) {
        let started = Instant::now();
        let program = jitbull_frontend::parse_program(black_box(source));
        let parsed = Instant::now();
        self.parse.push(parsed - started);
        if let Ok(program) = program {
            black_box(jitbull_vm::compile_program(&program).is_ok());
            self.bytecode.push(parsed.elapsed());
        }
    }
}

/// Everything a workload hands to the metric computation.
struct Outcome {
    run: Run,
    setups: Vec<Duration>,
}

fn vdc_database() -> DnaDatabase {
    build_database(&all_vdcs()).expect("the VDC catalog builds")
}

/// Seeded permutations of `0..n`, one after another, so every source
/// runs equally often whatever the seed.
struct Cycle {
    order: Vec<usize>,
    next: usize,
}

impl Cycle {
    fn new(n: usize) -> Cycle {
        Cycle {
            order: (0..n).collect(),
            next: n,
        }
    }

    fn pass(&mut self, rng: &mut Rng) -> &[usize] {
        for i in (1..self.order.len()).rev() {
            self.order.swap(i, rng.gen_range(0..i + 1));
        }
        self.next = self.order.len();
        &self.order
    }

    fn next(&mut self, rng: &mut Rng) -> usize {
        if self.next == self.order.len() {
            self.pass(rng);
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

/// Submits `source` and waits for its answer; `None` when the pool
/// rejected, failed or degraded the request.
fn serve_one(pool: &Pool, source: Rc<str>) -> Option<Answer> {
    let request = Request::new(source.to_string()).with_config(EngineConfig::fast_test());
    let sent = Instant::now();
    let result = pool.submit(request).and_then(Ticket::wait);
    let latency = sent.elapsed();
    let r = result.ok().filter(|r| !r.degraded)?;
    Some(Answer {
        source,
        printed: r.printed,
        latency,
        engine_run: Duration::from_micros(r.run_micros),
        cycles: r.cycles,
        analysis_cycles: r.analysis_cycles,
        slice: 0,
    })
}

fn serve(args: &Args, unique: bool, tracer: Option<&Arc<Mutex<Tracer>>>) -> Outcome {
    let mut rng = Rng::seed_from_u64(args.seed);
    let mix: Vec<Rc<str>> = serving_mix().into_iter().map(|w| w.source.into()).collect();
    let mut cycle = Cycle::new(mix.len());
    let mut next_script = |rng: &mut Rng| -> Rc<str> {
        if unique {
            gen::script(rng).into()
        } else {
            mix[cycle.next(rng)].clone()
        }
    };

    // Set-up: build the VDC database and start the pool.
    let start_pool = || {
        let started = Instant::now();
        let config = PoolConfig {
            workers: WORKERS,
            ..PoolConfig::default()
        };
        let pool = match tracer {
            Some(t) => Pool::with_collector(config, vdc_database(), t.clone()),
            None => Pool::new(config, vdc_database()),
        };
        (pool, started.elapsed())
    };
    let (pool, setup) = start_pool();
    let mut setups = vec![setup];

    // Warm-up, outside set-up and the measured window: enough scripts
    // that both workers' guards and the shared memo are live.
    let mut run = Run::default();
    let warmup_len = if unique {
        UNIQUE_WARMUP
    } else {
        2 * WORKERS * mix.len()
    };
    let mut warmup = Vec::new();
    for _ in 0..warmup_len {
        match serve_one(&pool, next_script(&mut rng)) {
            Some(answer) => warmup.push(answer),
            None => run.reject(),
        }
    }
    run.settle(warmup, false);
    if let Some(t) = tracer {
        *t.lock().expect("tracer lock") = Tracer::default();
    }

    // The measured window is one-second slices. After each, outside the
    // window, one more set-up is timed and torn down, so set-up samples
    // spread over the run the way latency samples do.
    let mut answers = Vec::new();
    for slice in 0..args.seconds as usize {
        let deadline = Instant::now() + SLICE;
        while Instant::now() < deadline {
            let source = next_script(&mut rng);
            if args.trace {
                run.frontend_spans(&source);
            }
            match serve_one(&pool, source) {
                Some(answer) => answers.push(Answer { slice, ..answer }),
                None => run.reject(),
            }
        }
        let (extra, setup) = start_pool();
        setups.push(setup);
        extra.shutdown();
    }
    pool.shutdown();
    run.settle(answers, true);
    Outcome { run, setups }
}

/// Runs one program on a fresh engine over the long-lived guard, the way
/// a browser process runs one page after another; returns the guard and
/// the answer, or `None` when the run failed or was compromised.
fn run_program(
    config: &EngineConfig,
    guard: Guard,
    source: &Rc<str>,
    tracer: Option<&Rc<RefCell<Tracer>>>,
) -> (Guard, Option<Answer>) {
    let mut engine = Engine::with_guard(config.clone(), guard);
    if let Some(t) = tracer {
        engine.set_collector(t.clone());
    }
    let started = Instant::now();
    let out = engine.run_source_with(source);
    let engine_run = started.elapsed();
    let guard = engine.into_guard().expect("engine built with a guard");
    let answer = out
        .ok()
        .filter(|o| !o.outcome.status.is_compromised())
        .map(|o| Answer {
            source: source.clone(),
            printed: o.outcome.printed,
            latency: Duration::ZERO,
            engine_run,
            cycles: o.outcome.cycles,
            analysis_cycles: o.analysis_cycles,
            slice: 0,
        });
    (guard, answer)
}

fn batch(args: &Args, tracer: Option<&Rc<RefCell<Tracer>>>) -> Outcome {
    let mut rng = Rng::seed_from_u64(args.seed);
    let programs: Vec<Rc<str>> = octane_analogues()
        .into_iter()
        .map(|w| w.source.into())
        .collect();
    let mut cycle = Cycle::new(programs.len());

    // Set-up: build the VDC database and the guard.
    let build_guard = || {
        let started = Instant::now();
        let guard = Guard::new(vdc_database(), CompareConfig::default());
        (guard, started.elapsed())
    };
    let (mut guard, setup) = build_guard();
    let mut setups = vec![setup];
    let config = EngineConfig::default();

    // Each pass runs every program once in a seeded order; the window
    // runs whole passes, so every program weighs the same in every run.
    // One warm-up pass comes first, outside the window. After each
    // measured program one more set-up is timed and dropped, so set-up
    // samples spread over the run.
    let mut run = Run::default();
    let mut answers = Vec::new();
    for measured in [false, true] {
        let deadline = Instant::now() + Duration::from_secs(args.seconds);
        for slice in 0.. {
            let order = cycle.pass(&mut rng).to_vec();
            for i in order {
                let source = &programs[i];
                if measured && args.trace {
                    run.frontend_spans(source);
                }
                let started = Instant::now();
                let (next, answer) = run_program(&config, guard, source, tracer);
                let latency = started.elapsed();
                guard = next;
                match answer {
                    Some(answer) => answers.push(Answer {
                        latency,
                        slice,
                        ..answer
                    }),
                    None => run.reject(),
                }
                if measured {
                    setups.push(build_guard().1);
                }
            }
            if !measured || Instant::now() >= deadline {
                break;
            }
        }
        run.settle(std::mem::take(&mut answers), measured);
        if let Some(t) = tracer {
            if !measured {
                *t.borrow_mut() = Tracer::default();
            }
        }
    }
    Outcome { run, setups }
}

/// Nearest-rank quantile of `values` (sorted here), 0 when empty.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn in_units(spans: &[Duration], per_second: f64) -> Vec<f64> {
    spans.iter().map(|d| d.as_secs_f64() * per_second).collect()
}

fn median_us(spans: &[Duration]) -> f64 {
    quantile(&in_units(spans, 1e6), 0.5)
}

fn total_s(spans: &[Duration]) -> f64 {
    spans.iter().map(Duration::as_secs_f64).sum()
}

/// `part / whole`, 0 when there is no whole.
fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

type Metric = (&'static str, f64, &'static str);

fn end_to_end(o: &Outcome) -> Vec<Metric> {
    // The centre is each slice's mean latency, then the median over the
    // slices, so a burst of host noise in one slice does not move it. The
    // slice mean stands in for its median: pool hand-offs make per-script
    // latency bimodal, and a median between the modes jumps. p90 is taken
    // over the whole window, the highest percentile the batch sample
    // (over a hundred programs a run) supports with ten samples beyond it.
    let mut slices: Vec<Vec<f64>> = Vec::new();
    for (&s, d) in o.run.slice.iter().zip(&o.run.latency) {
        if slices.len() <= s {
            slices.resize(s + 1, Vec::new());
        }
        slices[s].push(d.as_secs_f64() * 1e3);
    }
    slices.retain(|v| !v.is_empty());
    let means: Vec<f64> = slices
        .iter()
        .map(|v| v.iter().sum::<f64>() / v.len() as f64)
        .collect();
    vec![
        ("mean_ms", quantile(&means, 0.5), "ms"),
        (
            "p90_ms",
            quantile(&in_units(&o.run.latency, 1e3), 0.9),
            "ms",
        ),
        ("setup_s", quantile(&in_units(&o.setups, 1.0), 0.5), "s"),
    ]
}

fn per_layer(o: &Outcome, t: &Tracer) -> Vec<Metric> {
    let r = &o.run;
    let scripts = r.latency.len() as f64;
    let run_s = total_s(&r.engine_run);
    let rounds = t.compile.len() as f64;
    vec![
        (
            "traced_p50_ms",
            quantile(&in_units(&r.latency, 1e3), 0.5),
            "ms",
        ),
        // Mean time a script spends outside the engine run: pool queue,
        // thread hand-offs, engine construction.
        (
            "handoff_us",
            1e6 * ratio(total_s(&r.latency) - run_s, scripts),
            "us",
        ),
        ("engine_run_us", median_us(&r.engine_run), "us"),
        ("parse_us", median_us(&r.parse), "us"),
        ("bytecode_us", median_us(&r.bytecode), "us"),
        ("ion_compile_us", median_us(&t.compile), "us"),
        ("optimize_us", median_us(&t.optimize), "us"),
        ("guard_us", median_us(&t.guard), "us"),
        (
            "compile_time_share",
            100.0 * ratio(total_s(&t.compile), run_s),
            "%",
        ),
        (
            "guard_time_share",
            100.0 * ratio(total_s(&t.guard), run_s),
            "%",
        ),
        ("ion_rounds_per_script", ratio(rounds, scripts), "count"),
        (
            "restrictive_verdict_share",
            100.0 * ratio(t.restrictive as f64, t.decisions as f64),
            "%",
        ),
        (
            "memo_hit_ratio",
            100.0 * ratio(t.memo_hits as f64, t.extractions as f64),
            "%",
        ),
        (
            "verdict_cache_hit_ratio",
            100.0 * ratio(t.verdict_hits as f64, t.comparisons as f64),
            "%",
        ),
        (
            "chains_per_extraction",
            ratio(t.chains_enumerated as f64, t.extractions as f64),
            "count",
        ),
        (
            "set_merges_per_comparison",
            ratio(t.set_merges as f64, t.comparisons as f64),
            "count",
        ),
        (
            "sim_cycles_per_script",
            ratio(r.cycles as f64, scripts),
            "count",
        ),
        (
            "analysis_cycles_per_script",
            ratio(r.analysis_cycles as f64, scripts),
            "count",
        ),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: jitbull-perfbench --workload <serve_repeat|serve_unique|batch> \
                 --seed <n> --seconds <1-120> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };

    let (outcome, tracer) = match args.workload {
        Workload::ServeRepeat | Workload::ServeUnique => {
            let tracer = args.trace.then(|| Arc::new(Mutex::new(Tracer::default())));
            let unique = args.workload == Workload::ServeUnique;
            let outcome = serve(&args, unique, tracer.as_ref());
            let tracer = tracer.map(|t| std::mem::take(&mut *t.lock().expect("tracer lock")));
            (outcome, tracer)
        }
        Workload::Batch => {
            let tracer = args.trace.then(|| Rc::new(RefCell::new(Tracer::default())));
            let outcome = batch(&args, tracer.as_ref());
            (outcome, tracer.map(|t| t.take()))
        }
    };
    let metrics = match &tracer {
        Some(t) => per_layer(&outcome, t),
        None => end_to_end(&outcome),
    };

    let run = &outcome.run;
    let correct = run.failed == 0 && !run.latency.is_empty();
    for (name, value, unit) in &metrics {
        eprintln!("{name:>28} {value:>14.4} {unit}");
    }
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted,
        run.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
