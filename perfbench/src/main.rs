//! `perfbench`: the spec → mapped netlist + report + verdict benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig6_fsm --seed 1 --seconds 35 --trace 0
//! ```
//!
//! One client drives one operation at a time (a closed loop): a design
//! compiled the way `synthir fsm` does it, or a verdict decided the way
//! `synthir equiv --synth --engine sat` does it. The workload's job list
//! is run in whole rounds until `--seconds` have passed. Outputs are
//! checked in the first round against independent references; later
//! rounds must reproduce the first exactly. The last stdout line is one
//! JSON object: end-to-end metrics with `--trace 0`, per-layer metrics
//! (from span self times) with `--trace 1`. A traced run alternates
//! untraced and traced rounds, so it also measures the tracing overhead,
//! and writes a Chrome trace plus a per-layer summary under
//! `perfbench/out/`.

mod check;
mod gen;
mod ops;
mod stats;
mod trace;

use gen::{Job, Workload};
use ops::OpResult;
use stats::{fit_exponent, geomean, median, percentile};
use std::collections::{BTreeMap, HashMap};
use std::panic::{self, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use synthir_netlist::Library;
use trace::{self_times, Span};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Per-operation time budget. An operation that overruns it is a counted
/// failure and ends the run, so a runaway design cannot hang it.
const BUDGET: Duration = Duration::from_secs(40);
/// A further round starts only if it is expected to end within this
/// share of `--seconds`.
const OVERSHOOT: f64 = 1.15;
/// Untraced runs time at least this many operations, so the 90th
/// percentile has ten samples beyond it, unless [`HARD_STOP_S`] passes.
const MIN_SAMPLES: usize = 100;
/// No round starts after this many seconds of measurement.
const HARD_STOP_S: f64 = 120.0;

/// Layers whose self times partition the operation time. `bench.op` is
/// the benchmark's own time inside an operation: the unattributed rest.
const LAYERS: &[&str] = &[
    "core.parse",
    "core.lower",
    "rtl.elaborate",
    "synth.compile",
    "synth.aig_opt",
    "synth.fsm_reencode",
    "synth.resynthesize",
    "synth.map",
    "synth.cleanup",
    "synth.other_passes",
    "netlist.verilog",
    "netlist.report",
    "pctrl.synthesize",
    "sim.equiv_proved",
    "sim.equiv_cex",
    "bench.op",
];

/// Layers whose scaling exponent is fitted against elaborated gates.
const EXPONENTS: &[(&str, &str)] = &[
    ("core.lower_exp", "core.lower"),
    ("synth.resynthesize_exp", "synth.resynthesize"),
    ("synth.map_exp", "synth.map"),
    ("synth.fsm_reencode_exp", "synth.fsm_reencode"),
];

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{k}`"))?;
        let v = it.next().ok_or_else(|| format!("`{k}` needs a value"))?;
        kv.insert(key.to_string(), v);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload_name = get("workload")?.clone();
    let workload = Workload::parse(&workload_name).ok_or_else(|| {
        format!("unknown workload `{workload_name}` (fig6_fsm, flexible_ctrl, equiv_bmc)")
    })?;
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed takes an integer")?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    if !(seconds > 0.0 && seconds <= 100.0) {
        return Err("--seconds must be in (0, 100]".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    if let Some(k) = kv
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown option --{k}"));
    }
    Ok(Args {
        workload,
        workload_name,
        seed,
        seconds,
        trace,
    })
}

/// What the worker hands back: the job, its result or panic, its time.
type Done = (Job, thread::Result<Result<OpResult, String>>, Duration);

/// Runs jobs on a worker thread so the caller can enforce [`BUDGET`].
struct Worker {
    tasks: mpsc::Sender<(Job, bool)>,
    done: mpsc::Receiver<Done>,
    handle: thread::JoinHandle<()>,
}

impl Worker {
    fn spawn(lib: Arc<Library>, epoch: Instant) -> Worker {
        let (tasks, task_rx) = mpsc::channel::<(Job, bool)>();
        let (done_tx, done) = mpsc::channel();
        let handle = thread::Builder::new()
            .name("perfbench-op".into())
            // The size of a main thread's stack, where the CLI runs.
            .stack_size(8 << 20)
            .spawn(move || {
                for (job, traced) in task_rx {
                    let t0 = Instant::now();
                    let r = panic::catch_unwind(AssertUnwindSafe(|| {
                        ops::run(&job, &lib, traced, epoch)
                    }));
                    if done_tx.send((job, r, t0.elapsed())).is_err() {
                        break;
                    }
                }
            })
            .expect("the operating system starts a thread");
        Worker {
            tasks,
            done,
            handle,
        }
    }

    /// Runs one job; `None` when it overran [`BUDGET`] (the worker is
    /// then still busy with it).
    fn run(&self, job: Job, traced: bool) -> Option<(Job, Result<OpResult, String>, Duration)> {
        self.tasks.send((job, traced)).ok()?;
        let (job, r, dt) = self.done.recv_timeout(BUDGET).ok()?;
        let r = r.unwrap_or_else(|p| {
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            Err(format!("panicked: {msg}"))
        });
        Some((job, r, dt))
    }

    fn join(self) {
        drop(self.tasks);
        if self.handle.join().is_err() {
            eprintln!("perfbench: worker thread panicked outside an operation");
        }
    }
}

/// Builds the library and the first job set, then warms up on the
/// workload's fixed warm-up jobs.
fn setup(w: Workload, seed: u64) -> (Vec<Job>, Library) {
    let lib = Library::vt90();
    let jobs = gen::jobs(w, seed, 0);
    for job in gen::warmup(w) {
        std::hint::black_box(ops::run(&job, &lib, false, Instant::now()).is_ok());
    }
    (jobs, lib)
}

/// Everything measured in one run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
    /// Operation times of untraced rounds, seconds.
    untraced: Vec<f64>,
    untraced_rounds: usize,
    traced_total: f64,
    traced_rounds: usize,
    /// Operation time of each round, seconds.
    round_op_s: Vec<f64>,
    /// Digests of the current job set's untraced results, by job id.
    digests: HashMap<String, u64>,
    /// Hash over the first round's results, for comparing runs.
    run_digest: u64,
    /// Jobs whose traced result differs from their untraced one.
    unrepeatable: Vec<String>,
    areas: Vec<f64>,
    criticals: Vec<f64>,
    check_s: f64,
    /// Traced rounds: self time per layer, seconds.
    layer_s: BTreeMap<&'static str, f64>,
    compile_inclusive_s: f64,
    sta_s: f64,
    elab_gates: Vec<f64>,
    gates_out: Vec<f64>,
    reencode: (usize, usize),
    resynth: (usize, usize),
    verdicts: usize,
    cexes: usize,
    rows: Vec<stats::Row>,
    chrome: Vec<(String, Vec<Span>)>,
}

impl Tally {
    /// Accounts one successful operation and checks its outputs.
    fn record(&mut self, seed: u64, lib: &Library, job: &Job, r: OpResult, dt: f64, traced: bool) {
        let t0 = Instant::now();
        if let Err(e) = check::check(&job.input, &r, seed) {
            self.failures.push(format!("{}: wrong output: {e}", job.id));
        }
        self.check_s += t0.elapsed().as_secs_f64();
        for c in &r.compiled {
            self.areas.push(c.area);
            self.criticals.push(c.critical_ns);
        }
        if !traced {
            self.untraced.push(dt);
            if self.round_op_s.is_empty() {
                self.run_digest = (self.run_digest ^ r.digest).wrapping_mul(0x0100_0000_01b3);
            }
            self.digests.insert(job.id.clone(), r.digest);
            return;
        }
        // The traced round reruns the untraced round's jobs: a result that
        // differs is correct (it passed the check) but not reproducible.
        if self.digests.get(&job.id) != Some(&r.digest) {
            self.unrepeatable.push(job.id.clone());
        }
        self.traced_total += dt;
        let own = self_times(&r.spans);
        let mut per_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, t) in r.spans.iter().zip(&own) {
            *per_layer.entry(s.name).or_default() += t.as_secs_f64();
            if s.name == "synth.compile" {
                self.compile_inclusive_s += (s.end - s.start).as_secs_f64();
            }
        }
        for (&k, &v) in &per_layer {
            *self.layer_s.entry(k).or_default() += v;
        }
        let mut size = 0.0;
        for c in &r.compiled {
            let t0 = Instant::now();
            let timing = synthir_synth::sta(&c.netlist, lib);
            self.sta_s += t0.elapsed().as_secs_f64();
            if timing.critical_delay.to_bits() != c.critical_ns.to_bits() {
                self.failures.push(format!(
                    "{}: STA does not reproduce the reported critical path",
                    job.id
                ));
            }
            if let Some(g) = c.elab_gates {
                self.elab_gates.push(g as f64);
                size += g as f64;
            }
            self.gates_out.push(c.netlist.num_gates() as f64);
            self.reencode.0 += c.reencode_gates.0;
            self.reencode.1 += c.reencode_gates.1;
            self.resynth.0 += c.resynth_gates.0;
            self.resynth.1 += c.resynth_gates.1;
        }
        if let Some(eq) = r.equivalent {
            self.verdicts += 1;
            self.cexes += usize::from(!eq);
        }
        self.rows
            .push((job.id.clone(), job.family, size, dt, per_layer));
        self.chrome.push((job.id.clone(), r.spans));
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metric(out: &mut Vec<String>, name: &str, value: f64, unit: &str) {
    let v = if value.is_finite() { value } else { 0.0 };
    out.push(format!(
        "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
    ));
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <fig6_fsm|flexible_ctrl|equiv_bmc> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };

    let mut setup_times = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        built = Some(setup(args.workload, args.seed));
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let (mut jobs, lib) = built.expect("SETUP_REPS is positive");
    let jobs_per_round = jobs.len();

    // Untraced runs take a fresh job set every round. Traced runs pair an
    // untraced round with a traced rerun of the same jobs, which measures
    // the tracing overhead on identical work and checks reproducibility.
    let epoch = Instant::now();
    let lib = Arc::new(lib);
    let worker = Worker::spawn(Arc::clone(&lib), epoch);
    let mut t = Tally {
        run_digest: 0xcbf2_9ce4_8422_2325,
        ..Tally::default()
    };
    let mut overrun = false;
    let start = Instant::now();
    let mut round_walls: Vec<f64> = Vec::new();
    let mut rounds: u64 = 0;
    while !overrun {
        let traced = args.trace && rounds % 2 == 1;
        if rounds > 0 && !traced {
            let set = if args.trace { rounds / 2 } else { rounds };
            jobs = gen::jobs(args.workload, args.seed, set);
            t.digests.clear();
        }
        let round_start = Instant::now();
        let mut round_op_s = 0.0;
        let mut back = Vec::with_capacity(jobs.len());
        for (i, job) in jobs.drain(..).enumerate() {
            t.attempted += 1;
            let id = job.id.clone();
            match worker.run(job, traced) {
                Some((job, Ok(r), dt)) => {
                    round_op_s += dt.as_secs_f64();
                    let seed = args.seed ^ rounds << 32 ^ i as u64;
                    t.record(seed, &lib, &job, r, dt.as_secs_f64(), traced);
                    back.push(job);
                }
                Some((job, Err(e), _)) => {
                    t.failures.push(format!("{}: {e}", job.id));
                    back.push(job);
                }
                None => {
                    t.failures
                        .push(format!("{id}: exceeded the {BUDGET:?} budget"));
                    overrun = true;
                    break;
                }
            }
        }
        jobs = back;
        rounds += 1;
        t.round_op_s.push(round_op_s);
        if traced {
            t.traced_rounds += 1;
        } else {
            t.untraced_rounds += 1;
        }
        round_walls.push(round_start.elapsed().as_secs_f64());
        // Stop before a round (a pair of rounds when traced) that would end
        // past the time allowance.
        let step: u64 = if args.trace { 2 } else { 1 };
        let next: f64 = round_walls.iter().rev().take(step as usize).sum();
        let elapsed = start.elapsed().as_secs_f64();
        let enough = args.trace || t.untraced.len() >= MIN_SAMPLES;
        if rounds.is_multiple_of(step)
            && (elapsed > HARD_STOP_S || enough && elapsed + next > args.seconds * OVERSHOOT)
        {
            break;
        }
    }
    let measured_s = start.elapsed().as_secs_f64();
    if !overrun {
        worker.join();
    }

    let failed = t.failures.len() as u64;
    for f in &t.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    for id in &t.unrepeatable {
        eprintln!(
            "perfbench: NOT REPRODUCIBLE {id}: correct, but differs from its untraced result"
        );
    }
    eprintln!(
        "perfbench: {} seed {}: {} jobs/round, {} rounds ({} traced) in {:.1} s, \
         {} operations timed untraced, {} threads, digest {:016x}, \
         operation seconds per round {:.3?}",
        args.workload_name,
        args.seed,
        jobs_per_round,
        rounds,
        t.traced_rounds,
        measured_s,
        t.untraced.len(),
        synthir_logic::par::max_threads(),
        t.run_digest,
        t.round_op_s,
    );

    let mut m = Vec::new();
    if !args.trace {
        let total: f64 = t.untraced.iter().sum();
        metric(&mut m, "ops_per_s", t.untraced.len() as f64 / total, "1/s");
        metric(
            &mut m,
            "op_p50_ms",
            percentile(&t.untraced, 0.5) * 1e3,
            "ms",
        );
        metric(
            &mut m,
            "op_p90_ms",
            percentile(&t.untraced, 0.9) * 1e3,
            "ms",
        );
        metric(&mut m, "area_um2_geomean", geomean(&t.areas), "um2");
        metric(&mut m, "critical_ns_geomean", geomean(&t.criticals), "ns");
        metric(&mut m, "setup_s", median(&setup_times), "s");
        metric(&mut m, "peak_rss_mb", peak_rss_mb(), "MB");
    } else {
        per_layer_metrics(&mut m, &args, &t);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && !overrun,
        t.attempted,
        m.join(", ")
    );
    if overrun {
        // The worker is still inside the runaway operation; exiting the
        // process is the only way to stop it.
        std::process::exit(0);
    }
    ExitCode::SUCCESS
}

/// Per-layer metrics of the traced rounds, each per round of the job
/// list; writes the Chrome trace and the self-time summary.
fn per_layer_metrics(m: &mut Vec<String>, args: &Args, t: &Tally) {
    let rounds = t.traced_rounds.max(1) as f64;
    let op_total = t.traced_total;
    let layer = |name: &str| t.layer_s.get(name).copied().unwrap_or(0.0);
    let mut summary = Vec::new();
    for &l in LAYERS {
        let name = match l {
            "bench.op" => "bench.unattributed",
            "synth.compile" => "synth.compile_self",
            other => other,
        };
        metric(m, &format!("{name}_ms"), layer(l) / rounds * 1e3, "ms");
        metric(m, &format!("{name}_share"), layer(l) / op_total, "fraction");
        summary.push(format!(
            "    \"{name}\": {{\"self_ms_per_round\": {}, \"share\": {}}}",
            layer(l) / rounds * 1e3,
            layer(l) / op_total
        ));
    }
    metric(
        m,
        "synth.compile_ms",
        t.compile_inclusive_s / rounds * 1e3,
        "ms",
    );
    metric(m, "synth.sta_ms", t.sta_s / rounds * 1e3, "ms");
    metric(m, "rtl.elab_gates", stats::mean(&t.elab_gates), "gates");
    metric(m, "synth.gates_out", stats::mean(&t.gates_out), "gates");
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    metric(
        m,
        "synth.fsm_reencode_growth",
        ratio(t.reencode.1, t.reencode.0),
        "ratio",
    );
    metric(
        m,
        "synth.resynthesize_useful",
        ratio(t.resynth.0.saturating_sub(t.resynth.1), t.resynth.0),
        "ratio",
    );
    metric(
        m,
        "sim.cex_found_frac",
        ratio(t.cexes, t.verdicts),
        "fraction",
    );
    metric(m, "bench.check_ms", t.check_s * 1e3, "ms");
    metric(
        m,
        "bench.unrepeatable_jobs",
        t.unrepeatable.len() as f64,
        "count",
    );
    let untraced_per_round = t.untraced.iter().sum::<f64>() / t.untraced_rounds.max(1) as f64;
    let overhead = op_total / rounds - untraced_per_round;
    metric(m, "bench.trace_overhead_ms", overhead * 1e3, "ms");
    metric(
        m,
        "bench.trace_overhead_share",
        overhead / untraced_per_round,
        "fraction",
    );
    let mut exps = Vec::new();
    for &(name, l) in EXPONENTS {
        let e = fit_exponent(&t.rows, l);
        metric(m, name, e, "exponent");
        exps.push(format!("\"{name}\": {e}"));
    }
    metric(m, "bench.traced_ops", t.rows.len() as f64, "count");

    let dominant = LAYERS
        .iter()
        .copied()
        .filter(|&l| l != "bench.op")
        .max_by(|a, b| layer(a).total_cmp(&layer(b)))
        .unwrap_or("none");
    eprintln!(
        "perfbench: dominant layer {dominant} ({:.1}% of traced operation time), \
         unattributed {:.2}%, tracing overhead {:+.2}%",
        100.0 * layer(dominant) / op_total,
        100.0 * layer("bench.op") / op_total,
        100.0 * overhead / untraced_per_round
    );

    let rows: Vec<String> = t
        .rows
        .iter()
        .map(|(id, family, size, dt, layers)| {
            let l: Vec<String> = layers
                .iter()
                .map(|(k, v)| format!("\"{k}\": {}", v * 1e3))
                .collect();
            format!(
                "    {{\"id\": \"{id}\", \"family\": \"{family}\", \"elab_gates\": {size}, \
                 \"op_ms\": {}, \"self_ms\": {{{}}}}}",
                dt * 1e3,
                l.join(", ")
            )
        })
        .collect();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!("{}-seed{}", args.workload_name, args.seed);
    let summary = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"traced_rounds\": {},\n  \
         \"traced_op_ms_per_round\": {},\n  \"untraced_op_ms_per_round\": {},\n  \
         \"dominant_layer\": \"{dominant}\",\n  \"exponents\": {{{}}},\n  \"layers\": {{\n{}\n  }},\n  \
         \"operations\": [\n{}\n  ]\n}}\n",
        args.workload_name,
        args.seed,
        t.traced_rounds,
        op_total / rounds * 1e3,
        untraced_per_round * 1e3,
        exps.join(", "),
        summary.join(",\n"),
        rows.join(",\n")
    );
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("{stem}.trace.json")),
                trace::chrome_json(&t.chrome),
            )
        })
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.summary.json")), summary));
    if let Err(e) = written {
        eprintln!(
            "perfbench: cannot write the trace under {}: {e}",
            dir.display()
        );
    }
}
