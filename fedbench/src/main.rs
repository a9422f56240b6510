//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path fedbench/Cargo.toml -- \
//!     --workload <cohort_sync|xdev_async|eval_cnn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates one fixed federated workload from the seed, runs it through the
//! public `Simulator::run` again and again for `--seconds`, checks every
//! result, and prints the metrics by name with their units. The last line
//! of standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. With `--trace 0` the metrics are the end-to-end ones, with
//! `--trace 1` the per-layer ones. See `README.md` for the workloads and
//! what each metric means.

mod trace;
mod workloads;

use std::collections::BTreeSet;
use std::process::ExitCode;

use fedlps::core::FedLps;
use fedlps::sim::{RoundMode, RunResult, Simulator};

use trace::{now, Breakdown, Layer, LayerStats, Span, Traced};
use workloads::{Prepared, Workload};

/// Worker threads of the untraced runs that give the end-to-end timings.
/// On the shared 2-core host the benchmark was sized on, two busy workers
/// leave no core for anything else in the machine, and whatever does run
/// stalls one of them at a round barrier: across processes, the CPU time of
/// a `cohort_sync` run spread 0.07 (interquartile range ÷ median) at 2
/// threads against 0.03 at 1 (see `README.md`).
const E2E_PARALLELISM: usize = 1;
/// Worker threads of the traced runs, which give the per-layer figures:
/// the host's 2 cores, so the backend layer's pool is measured.
const POOL_PARALLELISM: usize = 2;
/// Timed runs of each kind (untraced, traced) made even past `--seconds`.
const MIN_SAMPLES: usize = 3;
/// Timed runs after which the loop stops even before `--seconds`.
const MAX_SAMPLES: usize = 400;

const USAGE: &str = "usage: fedbench --workload <cohort_sync|xdev_async|eval_cnn> \
                     --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |what: &str| format!("`{flag}` must be {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| bad("a workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Correctness bookkeeping: every `Simulator::run` is one attempted
/// operation, failed when any check on it fails.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checks {
    fn record(&mut self, run: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems
                .extend(problems.into_iter().map(|p| format!("{run}: {p}")));
        }
    }
}

/// The workload's quality figure. `cohort_sync` and `eval_cnn` evaluate
/// every client's personalized model inside the run, so the figure is the
/// run's final accuracy. `xdev_async` evaluates nothing inside the run (its
/// federation has a million clients), so the benchmark scores the final
/// global model on the 64 shard test sets; the second value times those
/// evaluations, empty for the other workloads.
fn quality(wl: Workload, sim: &Simulator, algo: &FedLps, result: &RunResult) -> (f64, LayerStats) {
    if wl != Workload::XdevAsync {
        return (result.final_accuracy, LayerStats::default());
    }
    let env = sim.env();
    let (mut correct, mut samples, mut durations) = (0.0, 0usize, Vec::new());
    for shard in 0..env.data.num_clients() {
        let t = now();
        let stats = env
            .arch
            .evaluate(algo.global_params(), env.test_data(shard));
        durations.push((now() - t).as_secs_f64());
        correct += stats.accuracy * stats.samples as f64;
        samples += stats.samples;
    }
    let accuracy = if samples == 0 {
        0.0
    } else {
        correct / samples as f64
    };
    (
        accuracy,
        LayerStats::from_durations(durations, samples as u64),
    )
}

/// Checks one traced run's spans against its result: every dispatched step
/// (one `client_step` span) ends absorbed, dropped for a recorded cause, or
/// in flight when the run stops, and no more can be in flight than there
/// are slots. On `xdev_async`, every lazy per-client store must hold at
/// most one entry per distinct participant.
fn check_spans(
    wl: Workload,
    sim: &Simulator,
    algo: &FedLps,
    result: &RunResult,
    spans: &[Span],
) -> Vec<String> {
    let mut problems = Vec::new();
    let count = |layer| spans.iter().filter(|s| s.layer == layer).count() as u64;
    let dispatched = count(Layer::ClientStep);
    let absorbed = count(Layer::Absorb);
    let dropped: u64 = result.drop_causes().iter().map(|&(_, n)| n).sum();
    let config = sim.env().config;
    let slots = match config.round_mode {
        RoundMode::Deadline { over_select, .. } => config.clients_per_round + over_select,
        RoundMode::Synchronous | RoundMode::Async { .. } => config.clients_per_round,
    } as u64;
    match dispatched.checked_sub(absorbed + dropped) {
        Some(in_flight) if in_flight <= slots => {}
        Some(in_flight) => problems.push(format!(
            "{in_flight} steps in flight at the end, more than the {slots} slots"
        )),
        None => problems.push(format!(
            "{absorbed} absorbed + {dropped} dropped exceed {dispatched} dispatched steps"
        )),
    }
    if wl == Workload::XdevAsync {
        let participants = spans
            .iter()
            .filter(|s| s.layer == Layer::ClientStep)
            .map(|s| s.client)
            .collect::<BTreeSet<_>>()
            .len();
        for (store, held) in lazy_stores(sim, algo) {
            if held > participants {
                problems.push(format!(
                    "lazy store {store} holds {held} entries for {participants} participants"
                ));
            }
        }
    }
    problems
}

/// Entries held by each per-client store that materializes on first use.
fn lazy_stores(sim: &Simulator, algo: &FedLps) -> [(&'static str, usize); 4] {
    [
        ("profiles", sim.env().fleet.materialized_profiles()),
        ("clients", algo.materialized_clients()),
        ("arms", algo.materialized_arms()),
        ("masks", algo.mask_cache().map_or(0, |c| c.len())),
    ]
}

/// Runs `prepared` under the decorator; returns the result, the algorithm,
/// the spans and the run's wall-clock in nanoseconds since its epoch.
fn traced_run(prepared: Prepared) -> (Simulator, RunResult, FedLps, Vec<Span>, u64) {
    let epoch = now();
    let mut traced = Traced::new(prepared.algo, epoch);
    let result = prepared.sim.run(&mut traced);
    let run_ns = u64::try_from((now() - epoch).as_nanos()).unwrap_or(u64::MAX);
    let (algo, spans) = traced.finish();
    (prepared.sim, result, algo, spans, run_ns)
}

/// Checks a timed run's result against the reference.
fn same_as_reference(json: &str, reference: &str, quality: f64, ref_quality: f64) -> Vec<String> {
    let mut problems = Vec::new();
    if json != reference {
        problems.push("RunResult differs from the reference run's".to_string());
    }
    if quality.to_bits() != ref_quality.to_bits() {
        problems.push(format!(
            "quality {quality} differs from the reference's {ref_quality}"
        ));
    }
    problems
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The highest of a fixed ladder of quantiles that leaves at least ten
/// samples above it (the median when none does).
fn tail_quantile(samples: usize) -> f64 {
    [0.999, 0.99, 0.95, 0.9, 0.75]
        .into_iter()
        .find(|q| samples as f64 * (1.0 - q) >= 10.0)
        .unwrap_or(0.5)
}

/// Peak resident set size of this process, megabytes (Linux `VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU time this process has used, all its threads (exited ones too), in
/// seconds: `utime` + `stime` from `/proc/self/stat`. The kernel reports
/// them in ticks of 1/100 s whatever its own tick rate. A guest kernel that
/// accounts steal time leaves out the time the hypervisor gave to other
/// tenants.
fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name in parentheses may hold spaces; fields follow it.
    let fields: Vec<&str> = stat
        .get(stat.rfind(')')? + 1..)?
        .split_whitespace()
        .collect();
    let ticks = |i: usize| fields.get(i)?.parse::<u64>().ok();
    // `utime` and `stime` are fields 14 and 15; `state`, field 3, is first.
    Some((ticks(11)? + ticks(12)?) as f64 / 100.0)
}

/// Host-wide CPU time counters from `/proc/stat`, in ticks: time stolen by
/// the hypervisor for other tenants, and all time.
fn host_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// The checked-out commit, read from `.git` in the working directory
/// ("unknown" outside a git checkout).
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(reference) {
        return rev.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// One named metric with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A JSON number: finite values as Rust prints them (every digit kept),
/// non-finite ones, which JSON cannot hold, as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Per-layer metrics of one traced run, in `BENCHMARK.json`'s order.
fn layer_metrics(b: &Breakdown, total_flops: f64) -> Vec<Metric> {
    let step = &b.client_step;
    let tail_q = tail_quantile(step.sorted_s.len());
    let per_s = |n: f64, s: f64| if s > 0.0 { n / s } else { 0.0 };
    vec![
        metric("client_step.count", step.count as f64, "count"),
        metric("client_step.busy_s", step.busy_s, "s"),
        metric("client_step.p50_ms", step.quantile_s(0.5) * 1e3, "ms"),
        metric("client_step.tail_ms", step.quantile_s(tail_q) * 1e3, "ms"),
        metric("client_step.tail_pct", tail_q * 100.0, "%"),
        metric(
            "client_step.useful_gflops_per_s",
            per_s(total_flops / 1e9, step.busy_s),
            "GFLOP/s",
        ),
        metric(
            "backend.concurrency",
            per_s(step.busy_s, b.step_cover_s),
            "steps",
        ),
        metric(
            "backend.parallel_efficiency",
            per_s(step.busy_s, POOL_PARALLELISM as f64 * b.step_cover_s),
            "fraction",
        ),
        metric("absorb.count", b.absorb.count as f64, "count"),
        metric("absorb.busy_s", b.absorb.busy_s, "s"),
        metric("aggregate.count", b.aggregate.count as f64, "count"),
        metric("aggregate.busy_s", b.aggregate.busy_s, "s"),
        metric("aggregate.p50_ms", b.aggregate.quantile_s(0.5) * 1e3, "ms"),
        metric("evaluate.count", b.evaluate.count as f64, "count"),
        metric("evaluate.busy_s", b.evaluate.busy_s, "s"),
        metric(
            "evaluate.samples_per_s",
            per_s(b.evaluate.samples as f64, b.evaluate.busy_s),
            "1/s",
        ),
        metric("algo_setup.busy_s", b.algo_setup.busy_s, "s"),
        metric("round_hooks.busy_s", b.round_hooks.busy_s, "s"),
        metric("trace.run_s", b.run_s, "s"),
        metric("trace.span_cover_s", b.span_cover_s, "s"),
    ]
}

/// Element-wise median of equally shaped metric lists.
fn median_metrics(runs: Vec<Vec<Metric>>) -> Vec<Metric> {
    let Some(first) = runs.first() else {
        return Vec::new();
    };
    (0..first.len())
        .map(|i| {
            let values: Vec<f64> = runs.iter().map(|r| r[i].value).collect();
            metric(first[i].name, median(&values), first[i].unit)
        })
        .collect()
}

/// A JSON object from already rendered values.
fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn quoted(s: &str) -> String {
    format!("\"{s}\"")
}

/// What the reference run established: the result every timed run must
/// reproduce and the deterministic figures reported from it.
struct Reference {
    json: String,
    result: RunResult,
    quality: f64,
    /// Client steps dispatched per run.
    steps: u64,
    /// Entries of each lazy per-client store after the run.
    stores: [(&'static str, usize); 4],
}

/// The decorated algorithm at `parallelism`, the thread count the timed
/// runs do not use. Every timed run must reproduce its result byte for
/// byte, which also proves the decorator transparent and the backend a pure
/// wall-clock knob.
fn reference_run(wl: Workload, seed: u64, parallelism: usize, checks: &mut Checks) -> Reference {
    let (sim, result, algo, spans, _) = traced_run(wl.prepare(seed, parallelism));
    let (quality, _) = quality(wl, &sim, &algo, &result);
    let mut problems = check_spans(wl, &sim, &algo, &result, &spans);
    if quality.is_nan() || quality < wl.accuracy_floor() {
        problems.push(format!(
            "accuracy {quality} is below the floor {}",
            wl.accuracy_floor()
        ));
    }
    checks.record("reference run", problems);
    Reference {
        json: serde_json::to_string(&result).expect("RunResult serializes"),
        quality,
        steps: spans
            .iter()
            .filter(|s| s.layer == Layer::ClientStep)
            .count() as u64,
        stores: lazy_stores(&sim, &algo),
        result,
    }
}

/// Per-layer metrics that are counts of the (deterministic) reference run.
fn count_metrics(reference: &Reference) -> Vec<Metric> {
    let r = &reference.result;
    let mut m = vec![
        metric("mask_cache.hit_rate", r.mask_cache_hit_rate(), "fraction"),
        metric(
            "faults.retry_attempts",
            r.total_retry_attempts() as f64,
            "count",
        ),
        metric("drops.stale", r.total_stale_discards() as f64, "count"),
        metric(
            "drops.upload_failure",
            r.total_upload_failure_drops() as f64,
            "count",
        ),
    ];
    let names = [
        "lazy.materialized_profiles",
        "lazy.materialized_clients",
        "lazy.materialized_arms",
        "lazy.materialized_masks",
    ];
    m.extend(
        names
            .into_iter()
            .zip(reference.stores)
            .map(|(name, (_, held))| metric(name, held as f64, "count")),
    );
    m
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fedbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let wl = args.workload;
    let mut checks = Checks::default();
    // The end-to-end timings come from serial runs, the per-layer figures
    // from pooled ones; the reference runs at the other thread count.
    let (parallelism, reference_parallelism) = if args.trace {
        (POOL_PARALLELISM, E2E_PARALLELISM)
    } else {
        (E2E_PARALLELISM, POOL_PARALLELISM)
    };
    let reference = reference_run(wl, args.seed, reference_parallelism, &mut checks);

    // Timed runs, each from a fresh set-up. With tracing, untraced and
    // traced runs alternate so the overhead ratio compares like with like.
    let (mut setup_s, mut data_s, mut env_s, mut run_s) = (vec![], vec![], vec![], vec![]);
    let mut run_cpu_s = Some(0.0);
    let mut layers = Vec::new();
    let mut rss_mb = None;
    let ticks_before = host_ticks();
    let started = now();
    for i in 0..MAX_SAMPLES {
        let traced_turn = args.trace && i % 2 == 1;
        let done = if args.trace {
            run_s.len().min(layers.len())
        } else {
            run_s.len()
        };
        if done >= MIN_SAMPLES && (now() - started).as_secs_f64() >= args.seconds {
            break;
        }
        let prepared = wl.prepare(args.seed, parallelism);
        setup_s.push(prepared.data_s + prepared.env_s);
        data_s.push(prepared.data_s);
        env_s.push(prepared.env_s);
        if traced_turn {
            let (sim, result, algo, spans, run_ns) = traced_run(prepared);
            let json = serde_json::to_string(&result).expect("RunResult serializes");
            let (q, post_eval) = quality(wl, &sim, &algo, &result);
            let mut problems = same_as_reference(&json, &reference.json, q, reference.quality);
            problems.extend(check_spans(wl, &sim, &algo, &result, &spans));
            checks.record(&format!("traced run {}", layers.len() + 1), problems);
            let mut breakdown = Breakdown::of(&spans, run_ns);
            // xdev_async evaluates after the run; its scoring is the
            // evaluate layer's work there (outside the timed run).
            if breakdown.evaluate.count == 0 {
                breakdown.evaluate = post_eval;
            }
            layers.push(layer_metrics(&breakdown, result.total_flops));
        } else {
            let Prepared { sim, mut algo, .. } = prepared;
            let cpu = process_cpu_s();
            let t = now();
            let result = sim.run(&mut algo);
            run_s.push((now() - t).as_secs_f64());
            run_cpu_s = match (run_cpu_s, cpu, process_cpu_s()) {
                (Some(sum), Some(c0), Some(c1)) => Some(sum + c1 - c0),
                _ => None,
            };
            // Resident memory grows with every run a process makes (the
            // main thread's scratch pool keeps buffers), so the peak is
            // read at a fixed point: after the reference run and the first
            // timed run, whatever the machine's speed.
            if rss_mb.is_none() {
                rss_mb = peak_rss_mb();
            }
            let json = serde_json::to_string(&result).expect("RunResult serializes");
            let (q, _) = quality(wl, &sim, &algo, &result);
            checks.record(
                &format!("timed run {}", run_s.len()),
                same_as_reference(&json, &reference.json, q, reference.quality),
            );
        }
    }
    let measured_s = (now() - started).as_secs_f64();
    let steal = match (ticks_before, host_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => num((s1 - s0) as f64 / (t1 - t0) as f64),
        _ => "null".to_string(),
    };

    let run_median = median(&run_s);
    let per_s = |n: f64, s: f64| if s > 0.0 { n / s } else { 0.0 };
    let metrics = if args.trace {
        let mut m = median_metrics(layers);
        let median_of = |name| m.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
        let traced_run_s = median_of("trace.run_s");
        // In every traced run the driver's self time is exactly the run's
        // wall-clock minus the span cover; deriving it from the two medians
        // keeps that identity in the reported figures.
        let driver_self_s = traced_run_s - median_of("trace.span_cover_s");
        m.extend([
            metric("driver.self_s", driver_self_s, "s"),
            metric(
                "trace.overhead_ratio",
                per_s(traced_run_s, run_median),
                "ratio",
            ),
            metric("setup.data_s", median(&data_s), "s"),
            metric("setup.env_s", median(&env_s), "s"),
        ]);
        m.extend(count_metrics(&reference));
        m
    } else {
        let (Some(rss), Some(cpu_s)) = (rss_mb, run_cpu_s) else {
            eprintln!("fedbench: cannot read /proc/self/status or /proc/self/stat");
            return ExitCode::FAILURE;
        };
        // The mean, not the median: each run's CPU time is read in whole
        // ticks of 10 ms, and only their sum over many runs is finer.
        let run_cpu_mean = cpu_s / run_s.len().max(1) as f64;
        let dropped: u64 = reference.result.drop_causes().iter().map(|&(_, n)| n).sum();
        let steps = reference.steps as f64;
        vec![
            metric("run_cpu_s", run_cpu_mean, "s"),
            metric("setup_s", median(&setup_s), "s"),
            metric("client_steps_per_cpu_s", per_s(steps, run_cpu_mean), "1/s"),
            metric("peak_rss_mb", rss, "MB"),
            metric("final_accuracy", reference.quality, "fraction"),
            metric("virtual_time_s", reference.result.total_time, "sim_s"),
            metric("upload_mb", reference.result.total_upload_bytes / 1e6, "MB"),
            metric(
                "delivered_step_ratio",
                1.0 - per_s(dropped as f64, steps),
                "fraction",
            ),
        ]
    };

    for p in &checks.problems {
        eprintln!("fedbench: check failed: {p}");
    }
    println!(
        "fedbench {} seed {} ({}): {} timed runs in {:.1} s",
        wl.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        setup_s.len(),
        measured_s
    );
    for m in &metrics {
        println!("  {:<34} {:>22} {}", m.name, num(m.value), m.unit);
    }
    let mut sorted_run_s = run_s.clone();
    sorted_run_s.sort_by(f64::total_cmp);
    let quartiles: Vec<String> = [0.25, 0.5, 0.75]
        .into_iter()
        .map(|q| num(trace::quantile(&sorted_run_s, q)))
        .collect();
    let samples = object(&[
        ("untraced_runs", run_s.len().to_string()),
        ("setup_s", setup_s.len().to_string()),
        ("traced_runs", (setup_s.len() - run_s.len()).to_string()),
        ("client_steps_per_run", reference.steps.to_string()),
    ]);
    let meta = object(&[
        ("workload", quoted(wl.name())),
        ("seed", args.seed.to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("parallelism", parallelism.to_string()),
        ("reference_parallelism", reference_parallelism.to_string()),
        ("git_rev", quoted(&git_rev())),
        ("seconds", num(args.seconds)),
        ("samples", samples),
        (
            "run_wall_s_quartiles",
            format!("[{}]", quartiles.join(", ")),
        ),
        ("host_steal_fraction", steal),
        (
            "client_step_tail_quantile",
            num(tail_quantile(reference.steps as usize)),
        ),
    ]);
    println!("{}", object(&[("meta", meta)]));
    let rendered: Vec<(&str, String)> = metrics
        .iter()
        .map(|m| {
            (
                m.name,
                object(&[("value", num(m.value)), ("unit", quoted(m.unit))]),
            )
        })
        .collect();
    let correct = checks.failed == 0;
    println!(
        "{}",
        object(&[
            ("correct", correct.to_string()),
            ("attempted", checks.attempted.to_string()),
            ("failed", checks.failed.to_string()),
            ("metrics", object(&rendered)),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload xdev_async --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::XdevAsync);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload eval_cnn --seed x --seconds 1 --trace 0",
            "--workload eval_cnn --seed 1 --seconds 0 --trace 0",
            "--workload eval_cnn --seed 1 --seconds 1 --trace 2",
            "--workload eval_cnn --seed 1 --seconds 1",
            "--workload eval_cnn --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(args(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn tail_quantile_leaves_ten_samples_above() {
        assert_eq!(tail_quantile(5), 0.5);
        assert_eq!(tail_quantile(40), 0.75);
        assert_eq!(tail_quantile(200), 0.95);
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(20_000), 0.999);
    }

    #[test]
    fn process_cpu_time_is_read_and_grows() {
        let before = process_cpu_s().expect("/proc/self/stat is readable");
        let mut x = 0u64;
        while process_cpu_s().unwrap() < before + 0.02 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(x > 0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
