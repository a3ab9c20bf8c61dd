//! `perfbench`: the benchmark of the BVF reproduction.
//!
//! ```text
//! python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `run.py` builds the release binaries and this harness, then runs it
//! with the same arguments plus `--bin-dir`. With `--trace 0` the harness
//! measures the end-to-end metrics from outside (spawned `reproduce` /
//! `bvf_serve` processes, every output checked); with `--trace 1` it runs
//! the traced harness and prints the per-layer metrics. The last line of
//! stdout is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `perfbench/README.md` for the workloads and metric definitions.

mod expected;
mod gen;
mod openloop;
mod paper;
mod serve_open;
mod server;
mod stats;
mod traced;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use expected::Expected;
use paper::{Mode, Pass};
use stats::{median, percentile};

/// Workers, sender threads and `--jobs`, capped at the core count.
const MAX_JOBS: usize = 2;
/// Passes per run that are set-up, not measurement.
const SETUP_PASSES: usize = 3;
const MIN_PASSES: usize = 3;

/// Metrics by name: value and unit.
type Out = BTreeMap<String, (f64, &'static str)>;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    root: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("{flag} is required"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let num = |v: String, flag: &str| -> Result<u64, String> {
        v.parse()
            .map_err(|_| format!("{flag} needs a whole number, got {v:?}"))
    };
    let workload = get("--workload")?;
    let seed = num(get("--seed")?, "--seed")?;
    let seconds = num(get("--seconds")?, "--seconds")? as f64;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let bin_dir = PathBuf::from(get("--bin-dir")?);
    let root = PathBuf::from(get("--root")?);
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        bin_dir,
        root,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let jobs = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(MAX_JOBS);
    let work_dir = args.root.join(".bench_work");
    let out_dir = args.root.join(".bench_out");
    for d in [&work_dir, &out_dir] {
        if let Err(e) = std::fs::create_dir_all(d) {
            eprintln!("error: cannot create {}: {e}", d.display());
            std::process::exit(2);
        }
    }
    let expected = Expected::load(&args.root.join("perfbench/expected.json")).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let reproduce = args.bin_dir.join("reproduce");
    let serve = args.bin_dir.join("bvf_serve");
    let mode = match args.workload.as_str() {
        "paper-cold" => Some(Mode::Cold),
        "paper-sharded" => Some(Mode::Sharded),
        "paper-warm" => Some(Mode::Warm),
        "serve-open" => None,
        other => {
            eprintln!("error: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "perfbench: {} seed {} for {}s, trace {}, {jobs} workers",
        args.workload, args.seed, args.seconds, args.trace
    );
    let result = match (mode, args.trace) {
        (Some(mode), false) => paper_e2e(&args, mode, jobs, &reproduce, &work_dir, &expected),
        (Some(mode), true) => paper_traced(
            &args, mode, jobs, &reproduce, &work_dir, &out_dir, &expected,
        ),
        (None, trace) => serve_run(&args, jobs, &serve, &work_dir, &out_dir, trace),
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    match result {
        Ok(r) => finish(&args.workload, r),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// A finished run, ready to print.
struct RunResult {
    metrics: Out,
    /// Lines printed before the JSON summary: the metrics kept out of it,
    /// the work vector and the output checks' findings.
    report: Vec<String>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

fn finish(workload: &str, r: RunResult) -> ! {
    for line in &r.report {
        println!("{workload}: {line}");
    }
    for e in &r.errors {
        eprintln!("check failed: {e}");
    }
    let correct = r.failed == 0 && r.errors.is_empty();
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(k, (v, unit))| {
            format!(
                "\"{k}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}

/// A JSON number with every digit Rust keeps; non-finite values become 0
/// (a failed run is already marked incorrect).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        // `+ 0.0` turns the -0.0 an empty float sum yields into 0.0.
        format!("{:?}", v + 0.0)
    } else {
        "0".to_string()
    }
}

/// `== fig18 ...` through its `AVG` row: (chip red %, bvf-units red %).
fn avg_row(stdout: &str, fig: &str) -> Option<(f64, f64)> {
    let start = stdout.find(&format!("== {fig} "))?;
    let line = stdout[start..].lines().find(|l| l.starts_with("AVG"))?;
    let cols: Vec<f64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|c| c.parse().ok())
        .collect();
    Some((*cols.get(1)?, *cols.get(2)?))
}

/// Mean |measured - paper| of the fig18/fig19 AVG chip and BVF-unit
/// reductions against the paper's 21%/24% and 47%/53%.
fn accuracy_gaps(stdout: &str) -> Option<(f64, f64)> {
    let (c28, u28) = avg_row(stdout, "fig18")?;
    let (c40, u40) = avg_row(stdout, "fig19")?;
    Some((
        ((c28 - 21.0).abs() + (c40 - 24.0).abs()) / 2.0,
        ((u28 - 47.0).abs() + (u40 - 53.0).abs()) / 2.0,
    ))
}

fn paper_e2e(
    args: &Args,
    mode: Mode,
    jobs: usize,
    reproduce: &Path,
    work_dir: &Path,
    expected: &Expected,
) -> Result<RunResult, String> {
    let mut errors = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut record = |p: &Pass, errors: &mut Vec<String>| {
        attempted += 1;
        if !p.ok() {
            failed += 1;
            errors.extend(p.errors.iter().cloned());
        }
    };
    // Set-up: warm-up passes, or for paper-warm one cold `--cache` fill
    // per fresh store (the last store stays for the measured passes).
    let mut setup = Vec::new();
    let store = work_dir.join("store");
    let mut first_gaps = None;
    for _ in 0..SETUP_PASSES {
        let p = if mode == Mode::Warm {
            paper::fresh_dir(work_dir, "store").map_err(|e| format!("store dir: {e}"))?;
            paper::run_pass(
                reproduce,
                work_dir,
                jobs,
                Mode::Fill,
                Some(&store),
                expected,
                false,
            )
        } else {
            paper::run_pass(reproduce, work_dir, jobs, mode, None, expected, false)
        };
        record(&p, &mut errors);
        setup.push(p.wall_s);
        first_gaps.get_or_insert(p.gaps);
    }
    let cache = (mode == Mode::Warm).then_some(store.as_path());
    // One traced pass, neither set-up nor measured: its launch spans must
    // match the telemetry's launch count.
    let traced = paper::run_pass(reproduce, work_dir, jobs, mode, cache, expected, true);
    record(&traced, &mut errors);
    let t0 = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < MIN_PASSES || t0.elapsed().as_secs_f64() < args.seconds {
        let p = paper::run_pass(reproduce, work_dir, jobs, mode, cache, expected, false);
        record(&p, &mut errors);
        passes.push(p);
    }
    // The work vector repeats exactly on every pass and equals the pinned
    // one.
    let work = passes[0].work.clone();
    if std::iter::once(&traced)
        .chain(&passes)
        .any(|p| p.work != work)
    {
        errors.push("the work vector differs between passes".to_string());
    }
    if let Some(pinned) = expected.work.get(&args.workload) {
        for (name, value) in work.fields() {
            if pinned.get(name) != Some(&value) {
                errors.push(format!(
                    "work.{name} = {value}, pinned {:?}",
                    pinned.get(name)
                ));
            }
        }
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let wall_s = median(&walls);
    let items: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.items.iter().map(|i| i.wall_ns as f64 / 1e6))
        .collect();
    let mut m = Out::new();
    m.insert("wall_s".into(), (wall_s, "s"));
    m.insert(
        "sim_minstr_per_s".into(),
        (
            work.simulated_instructions() as f64 / wall_s / 1e6,
            "Minstr/s",
        ),
    );
    m.insert("setup_s".into(), (median(&setup), "s"));
    m.insert("latency_p50_ms".into(), (percentile(&items, 0.5), "ms"));
    let mut report = vec![format!(
        "{} measured passes (wall IQR {:.4} of the median), {} set-up passes, {} app items per pass, \
         item latency p99 {:.3} ms over {} items",
        passes.len(),
        stats::iqr_share(&walls).unwrap_or(0.0),
        setup.len(),
        work.items,
        percentile(&items, 0.99),
        items.len()
    )];
    report.push(format!(
        "failed_ratio {} ({failed} of {attempted} passes)",
        failed as f64 / attempted.max(1) as f64
    ));
    match first_gaps.flatten() {
        Some((chip, unit)) => report.push(format!(
            "chip_gap_pp {chip:.4} pp | unit_gap_pp {unit:.4} pp (fig18/fig19 AVG vs the paper's 21/24% chip, 47/53% BVF-unit)"
        )),
        None => errors.push("no fig18/fig19 AVG rows on stdout".to_string()),
    }
    report.push(format!(
        "work {} (launches checked against {} launch spans of a --trace pass; derived_* from the pivot ablation's definition)",
        work.fields().map(|(k, v)| format!("{k}={v}")).join(" "),
        traced.launch_spans.unwrap_or(0)
    ));
    Ok(RunResult {
        metrics: m,
        report,
        attempted,
        failed,
        errors,
    })
}

/// Every per-layer metric, with its unit. A traced run reports each one;
/// a layer a workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("campaign.wall_ms", "ms"),
    ("campaign.busy_share", "ratio"),
    ("campaign.tail_ms", "ms"),
    ("workloads.prepare_ms", "ms"),
    ("workloads.kernel_ms", "ms"),
    ("isa.mask_ms", "ms"),
    ("gpu.launch_ms", "ms"),
    ("gpu.launches", "count"),
    ("gpu.instructions", "count"),
    ("gpu.ns_per_instr", "ns"),
    ("gpu.exec_ms", "ms"),
    ("gpu.ifetch_ms", "ms"),
    ("gpu.data_memory_ms", "ms"),
    ("gpu.dram_drain_ms", "ms"),
    ("gpu.other_ms", "ms"),
    ("gpu.dram_requests", "count"),
    ("gpu.uniform_share", "ratio"),
    ("gpu.exec_events", "count"),
    ("gpu.ifetch_events", "count"),
    ("gpu.data_memory_events", "count"),
    ("stats.data_ms", "ms"),
    ("stats.instr_ms", "ms"),
    ("stats.events", "count"),
    ("stats.data_events", "count"),
    ("stats.instr_events", "count"),
    ("merge.ms", "ms"),
    ("merge.count", "count"),
    ("store.load_ms", "ms"),
    ("store.loads", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.save_ms", "ms"),
    ("store.saves", "count"),
    ("figures.energy_ms", "ms"),
    ("figures.profile_ms", "ms"),
    ("figures.ablation_ms", "ms"),
    ("figures.pivot_share", "ratio"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.max_rate_rps", "1/s"),
    ("serve.ttfb_ms", "ms"),
    ("serve.connect_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.simulate_ms", "ms"),
    ("serve.body_ms", "ms"),
    ("serve.unattributed_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.requests", "count"),
    ("serve.simulations", "count"),
    ("serve.reused", "count"),
    ("serve.attach_ratio", "ratio"),
    ("serve.store_hit_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("serve.gen_late_ms", "ms"),
    ("serve.repeat_share", "ratio"),
    ("serve.inflight_repeat_share", "ratio"),
    ("serve.cold_capacity_rps", "1/s"),
    ("serve.cold_share", "ratio"),
    ("serve.distinct_keys", "count"),
    ("obs.trace_overhead_share", "ratio"),
    ("trace.pass_ms", "ms"),
    ("self.unattributed_ms", "ms"),
    ("self.campaign_ms", "ms"),
    ("self.isa_ms", "ms"),
    ("self.workloads_ms", "ms"),
    ("self.gpu_ms", "ms"),
    ("self.stats_ms", "ms"),
    ("self.merge_ms", "ms"),
    ("self.store_ms", "ms"),
    ("self.figures_ms", "ms"),
    ("self.bench_ms", "ms"),
];

/// Keep exactly the per-layer metrics, 0 where the run has none.
fn per_layer(mut m: BTreeMap<String, f64>) -> Out {
    // Exhibit layers are traced per kind; their self times fold into one
    // `figures` row.
    let figures: f64 = ["figures.energy", "figures.profile", "figures.ablation"]
        .iter()
        .filter_map(|k| m.remove(&format!("self.{k}_ms")))
        .sum();
    if figures > 0.0 {
        m.insert("self.figures_ms".into(), figures);
    }
    PER_LAYER
        .iter()
        .map(|(k, unit)| (k.to_string(), (m.get(*k).copied().unwrap_or(0.0), *unit)))
        .collect()
}

fn paper_traced(
    args: &Args,
    mode: Mode,
    jobs: usize,
    reproduce: &Path,
    work_dir: &Path,
    out_dir: &Path,
    expected: &Expected,
) -> Result<RunResult, String> {
    let mut errors = Vec::new();
    // Untraced reference passes of the same workload, for the overhead.
    let store = work_dir.join("store");
    if mode == Mode::Warm {
        paper::fresh_dir(work_dir, "store").map_err(|e| format!("store dir: {e}"))?;
        let p = paper::run_pass(
            reproduce,
            work_dir,
            jobs,
            Mode::Fill,
            Some(&store),
            expected,
            false,
        );
        errors.extend(p.errors);
    }
    let cache = (mode == Mode::Warm).then_some(store.as_path());
    let mut walls = Vec::new();
    for _ in 0..SETUP_PASSES {
        let p = paper::run_pass(reproduce, work_dir, jobs, mode, cache, expected, false);
        walls.push(p.wall_s);
        errors.extend(p.errors);
    }
    let traced_store =
        paper::fresh_dir(work_dir, "traced-store").map_err(|e| format!("store dir: {e}"))?;
    let t = traced::run_paper(mode, jobs, &traced_store)?;
    errors.extend(t.errors.iter().cloned());
    let digest = bvf_store::fnv1a(t.stdout.as_bytes());
    if digest != expected.stdout_fnv64 {
        errors.push(format!(
            "the traced pass's exhibits hash to {digest:#018x}, pinned {:#018x}",
            expected.stdout_fnv64
        ));
    }
    if t.dropped > 0 {
        errors.push(format!("{} trace events dropped", t.dropped));
    }
    let mut m = t.metrics;
    let untraced = median(&walls);
    let pass_s = m["trace.pass_ms"] / 1e3;
    m.insert("obs.trace_overhead_share".into(), pass_s / untraced - 1.0);
    let trace_path = out_dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(
        &trace_path,
        bvf_obs::trace::export_chrome(&t.events, t.dropped),
    )
    .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    let report = vec![
        format!(
            "traced pass {:.1} ms vs untraced median {:.1} ms; self.unattributed {:.3} ms",
            m["trace.pass_ms"],
            untraced * 1e3,
            m.get("self.unattributed_ms").copied().unwrap_or(0.0)
        ),
        format!(
            "{} spans written to {}",
            t.events.len(),
            trace_path.display()
        ),
    ];
    let failed = u64::from(!errors.is_empty());
    Ok(RunResult {
        metrics: per_layer(m),
        report,
        attempted: SETUP_PASSES as u64 + 1,
        failed,
        errors,
    })
}

fn serve_run(
    args: &Args,
    jobs: usize,
    serve: &Path,
    work_dir: &Path,
    out_dir: &Path,
    trace: bool,
) -> Result<RunResult, String> {
    let bins = serve_open::Bins {
        serve,
        work_dir,
        jobs,
    };
    let mut run = serve_open::run(&bins, args.seed, args.seconds, trace)?;
    let s = &run.shape;
    let metric = |k: &str| run.metrics.get(k).copied().unwrap_or(0.0);
    let mut report = vec![
        format!(
            "stream: {} requests at {:.1} req/s, {} distinct bodies, {} store keys, repeat share {:.3}, \
             measured in-flight repeat share {:.3}, cold share {:.3}",
            s.requests,
            serve_open::NOMINAL_RATE,
            s.distinct_bodies,
            s.distinct_keys,
            s.repeat_share,
            metric("serve.inflight_repeat_share"),
            s.cold_share
        ),
        format!(
            "cold capacity {:.1} req/s (stream requests / cold-batch wall), cold utilization {:.4} \
             at the nominal rate (target {})",
            metric("serve.cold_capacity_rps"),
            serve_open::NOMINAL_RATE / metric("serve.cold_capacity_rps"),
            serve_open::TARGET_COLD_UTILIZATION
        ),
    ];
    let [(cold50, cold99), (rep50, rep99)] = serve_open::split_latency(&run);
    report.push(format!(
        "latency ms over {} requests: p50 {:.3} p99 {:.3}; first requests of a body p50 {cold50:.3} \
         p99 {cold99:.3}; repeats p50 {rep50:.3} p99 {rep99:.3}",
        run.nominal.len(),
        run.metrics.get("latency_p50_ms").copied().unwrap_or(0.0),
        run.metrics.get("serve.latency_p99_ms").copied().unwrap_or(0.0),
    ));
    let c = |k: &str| run.counters.get(k).copied().unwrap_or(0.0);
    report.push(format!(
        "work simulations={} reused={} (attached={} store_hits={}) store_misses={} rejected={} requests={} \
         instructions={} dram_requests={}",
        c("bvf_serve_simulations"),
        c("bvf_serve_attached") + c("bvf_serve_store_hits"),
        c("bvf_serve_attached"),
        c("bvf_serve_store_hits"),
        c("bvf_serve_store_misses"),
        c("bvf_serve_rejected"),
        c("bvf_serve_requests"),
        c("bvf_sim_step_count"),
        c("bvf_dram_requests")
    ));
    let metrics = if trace {
        let mut errors = Vec::new();
        let m = serve_open::layer_metrics(&run, &mut errors);
        run.failed += errors.len() as u64;
        run.errors.extend(errors);
        let events = client_spans(&run.nominal);
        let trace_path = out_dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        std::fs::write(&trace_path, bvf_obs::trace::export_chrome(&events, 0))
            .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
        report.push(format!(
            "{} spans written to {}",
            events.len(),
            trace_path.display()
        ));
        per_layer(m)
    } else {
        let units = [
            ("wall_s", "s"),
            ("sim_minstr_per_s", "Minstr/s"),
            ("setup_s", "s"),
            ("latency_p50_ms", "ms"),
        ];
        units
            .iter()
            .map(|(k, u)| {
                (
                    k.to_string(),
                    (run.metrics.get(*k).copied().unwrap_or(0.0), *u),
                )
            })
            .collect()
    };
    report.push(format!(
        "failed_ratio {} ({} of {} operations)",
        run.failed as f64 / run.attempted.max(1) as f64,
        run.failed,
        run.attempted
    ));
    Ok(RunResult {
        metrics,
        report,
        attempted: run.attempted,
        failed: run.failed,
        errors: run.errors,
    })
}

/// Client-side spans of the nominal phase: one per request from its due
/// time to its last byte, with connect and first-byte children.
fn client_spans(outcomes: &[openloop::Outcome]) -> Vec<bvf_obs::trace::TraceEvent> {
    let mut events = Vec::new();
    for (i, o) in outcomes.iter().enumerate() {
        let root = format!("serve-open/req:{i}");
        let ev = |path: String, t0: u64, t1: u64| bvf_obs::trace::TraceEvent {
            path,
            cat: "serve",
            seq: 0,
            tid: (i % MAX_JOBS) as u32,
            t0_ns: t0,
            dur_ns: t1.saturating_sub(t0),
            args: vec![("status", u64::from(o.status))],
        };
        events.push(ev(root.clone(), o.due_ns, o.last_byte_ns));
        events.push(ev(format!("{root}/late"), o.due_ns, o.send_ns));
        events.push(ev(format!("{root}/connect"), o.send_ns, o.connected_ns));
        events.push(ev(
            format!("{root}/first_byte"),
            o.connected_ns,
            o.first_byte_ns,
        ));
        events.push(ev(format!("{root}/body"), o.first_byte_ns, o.last_byte_ns));
    }
    events
}
