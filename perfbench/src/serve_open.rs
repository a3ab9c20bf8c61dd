//! The `serve-open` workload: an open-loop, seeded stream of `POST /run`
//! requests against a spawned `bvf_serve`, each server with a fresh store.
//!
//! A run has three phases, each server with a fresh store:
//!
//! 1. **Set-up.** Spawn servers until `/metrics` answers (every spawn of
//!    the run is timed; `setup_s` is their median).
//! 2. **Nominal.** The stream at the nominal rate: latency p50/p99 from
//!    each request's due time to its last body byte, with the output
//!    oracle and the exact counters checked.
//! 3. **Cold batches.** Every distinct body of the stream once, closed-loop
//!    from as many clients as workers, five times: the median wall of
//!    serving the stream's whole working set cold (`wall_s`,
//!    `sim_minstr_per_s`).
//!
//! The traced run adds the **ladder**: a binary search over a fixed
//! geometric ladder of rates, one fresh server per probe, for the highest
//! rate whose tail meets the latency limit with no failure and no backlog
//! growth (`serve.max_rate_rps`).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use bvf_sim::serve::{client, protocol};
use bvf_sim::{Campaign, CampaignOptions, Parallelism, ResultStore};

use crate::gen::{self, Shape};
use crate::openloop::{self, Outcome};
use crate::paper::fresh_dir;
use crate::server::Server;
use crate::stats::{median, percentile, tail_fraction};

/// The stream's requests per second of cold-batch wall: how fast two
/// workers serve the stream's cold work closed-loop, in requests of the
/// stream (`serve.cold_capacity_rps`). Median of the runs recorded in
/// `README.md`.
pub const MEASURED_COLD_CAPACITY_RPS: f64 = 867.0;
/// The share of that capacity the nominal stream's cold work uses. For two
/// workers at utilization u, the Erlang-C chance that a cold request waits
/// for a worker is 2u²/(1+u), 3.9% at 0.15 (an upper estimate for evenly
/// spaced arrivals). That stays below the 4% of cold requests beyond the
/// p99 (see `gen::COLD_EVERY`), so the p99 is service time, not queueing.
pub const TARGET_COLD_UTILIZATION: f64 = 0.15;
/// Requests per second of the nominal phase.
pub const NOMINAL_RATE: f64 = TARGET_COLD_UTILIZATION * MEASURED_COLD_CAPACITY_RPS;
/// Fewest nominal requests: enough for a p99 with ten samples beyond it.
pub const MIN_NOMINAL_REQUESTS: usize = 1000;
/// The latency limit the tail must meet, in milliseconds.
pub const LIMIT_MS: f64 = 100.0;
/// Ladder rungs: `LADDER_BASE * LADDER_STEP^k` requests per second.
pub const LADDER_BASE: f64 = 50.0;
pub const LADDER_STEP: f64 = 1.05;
pub const LADDER_RUNGS: usize = 64;
/// Requests per ladder probe; its tail percentile leaves ten beyond.
pub const PROBE_REQUESTS: usize = 400;
/// Ladder probes per run (a binary search over the rungs).
pub const PROBES: usize = 6;
/// Responses compared byte for byte against a direct `Campaign`.
const ORACLE_SAMPLE: usize = 3;
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);
/// Set-up spawns besides the ones the phases use.
const SETUP_SPAWNS: usize = 3;
/// Cold batches per run; `wall_s` is their median.
const BATCHES: usize = 5;

/// `/metrics` series (or named metrics) by name.
pub type Counters = BTreeMap<String, f64>;
/// Response bodies, or why a request failed.
type Answers = Vec<Result<String, String>>;

pub struct ServeRun {
    pub metrics: Counters,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Client-side spans of the nominal phase, for the traced run.
    pub nominal: Vec<Outcome>,
    pub shape: Shape,
    /// `/metrics` deltas over the nominal phase.
    pub counters: Counters,
    pub stream: gen::Stream,
    /// The nominal server's store directory.
    pub store_dir: PathBuf,
}

/// Share of the stream's requests that repeat a body whose first request
/// had not finished by the repeat's due time: the repeats that could
/// attach to a running simulation, measured on the nominal phase.
fn inflight_repeat_share(stream: &gen::Stream, outcomes: &[Outcome]) -> f64 {
    let mut done_at: HashMap<usize, u64> = HashMap::new();
    let mut inflight = 0;
    for (r, o) in stream.requests.iter().zip(outcomes) {
        if r.first {
            done_at.insert(r.body_id, o.last_byte_ns);
        } else if done_at.get(&r.body_id).is_some_and(|&t| r.due_ns < t) {
            inflight += 1;
        }
    }
    inflight as f64 / stream.requests.len().max(1) as f64
}

pub struct Bins<'a> {
    pub serve: &'a Path,
    pub work_dir: &'a Path,
    pub jobs: usize,
}

/// Counter deltas between two scrapes (series present in `after`).
fn delta(before: &Counters, after: &Counters) -> Counters {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0)))
        .collect()
}

/// Spawn a server with a fresh store, recording its set-up time.
fn spawn(bins: &Bins, name: &str, setups: &mut Vec<f64>) -> Result<(Server, PathBuf), String> {
    let dir = fresh_dir(bins.work_dir, name).map_err(|e| format!("store dir: {e}"))?;
    let server = Server::spawn(bins.serve, &dir, bins.jobs)?;
    setups.push(server.setup_s);
    Ok((server, dir))
}

/// Send `stream` open-loop through a fresh server; returns outcomes and
/// the `/metrics` deltas.
fn drive(
    bins: &Bins,
    name: &str,
    stream: &gen::Stream,
    setups: &mut Vec<f64>,
    lifecycle: &mut Vec<String>,
) -> Result<(Vec<Outcome>, Counters, PathBuf), String> {
    let (server, dir) = spawn(bins, name, setups)?;
    let before = server.scrape()?;
    let requests: Vec<(u64, &str)> = stream
        .requests
        .iter()
        .map(|r| (r.due_ns, stream.bodies[r.body_id].as_str()))
        .collect();
    let outcomes = openloop::run(server.addr, &requests, bins.jobs, REQUEST_TIMEOUT);
    let after = server.scrape()?;
    if let Err(e) = server.stop() {
        lifecycle.push(e);
    }
    Ok((outcomes, delta(&before, &after), dir))
}

/// The oracle over one phase: every request succeeded, identical bodies
/// got identical responses, and each response is well formed.
fn check_responses(stream: &gen::Stream, outcomes: &[Outcome], errors: &mut Vec<String>) -> u64 {
    let mut failed = 0;
    let mut by_body: HashMap<usize, &str> = HashMap::new();
    for (r, o) in stream.requests.iter().zip(outcomes) {
        if !o.ok() {
            failed += 1;
            if errors.len() < 20 {
                errors.push(format!("request failed: status {} {:?}", o.status, o.error));
            }
            continue;
        }
        let apps = stream.body_apps[r.body_id].len();
        let lines: Vec<&str> = o.body.lines().collect();
        let well_formed = lines.len() == apps + 2
            && lines[0].starts_with("{\"record\":\"accepted\"")
            && lines[apps + 1] == protocol::done_line(apps, 0);
        let same = match by_body.get(&r.body_id) {
            Some(first) => *first == o.body,
            None => {
                by_body.insert(r.body_id, &o.body);
                true
            }
        };
        if !well_formed || !same {
            failed += 1;
            if errors.len() < 20 {
                errors.push(format!(
                    "body {} answered {} (well formed: {well_formed}, equal to earlier: {same})",
                    r.body_id,
                    o.body.lines().next().unwrap_or_default()
                ));
            }
        }
    }
    failed
}

/// A seeded sample of responses must equal `body_from_campaign` on a
/// direct `Campaign` over the same request.
fn oracle_sample(
    seed: u64,
    stream: &gen::Stream,
    outcomes: &[Outcome],
    errors: &mut Vec<String>,
) -> u64 {
    let mut rng = gen::Rng::new(seed ^ 0x5eed);
    let mut failed = 0;
    for _ in 0..ORACLE_SAMPLE {
        let i = rng.below(stream.requests.len());
        let o = &outcomes[i];
        if !o.ok() {
            continue;
        }
        let body = &stream.bodies[stream.requests[i].body_id];
        let req = protocol::parse_request(body).expect("generated bodies parse");
        let campaign = Campaign::run_with_options(
            req.config.clone(),
            &req.apps,
            &CampaignOptions {
                par: Parallelism::Sequential,
                arch: req.arch,
                ..CampaignOptions::default()
            },
        );
        if protocol::body_from_campaign(&req, &campaign) != o.body {
            failed += 1;
            errors.push(format!(
                "served body for {body} differs from a direct Campaign"
            ));
        }
    }
    failed
}

/// Whether a probe's rate is sustained: every request succeeded, the tail
/// meets the limit, and the last quarter's median latency has not grown
/// past the first quarter's (no backlog building up).
fn sustained(outcomes: &[Outcome]) -> bool {
    let lat: Vec<f64> = outcomes.iter().map(Outcome::latency_ms).collect();
    let q = lat.len() / 4;
    let tail = tail_fraction(lat.len(), 10).expect("probes are long enough");
    lat.iter().all(|l| l.is_finite())
        && percentile(&lat, tail) <= LIMIT_MS
        && median(&lat[lat.len() - q..]) <= 2.0 * median(&lat[..q]) + 5.0
}

pub fn rung(k: usize) -> f64 {
    LADDER_BASE * LADDER_STEP.powi(k as i32)
}

/// Nominal requests for a run of `seconds`: half the run, at least
/// [`MIN_NOMINAL_REQUESTS`]; the cold batches take most of the rest.
pub fn nominal_requests(seconds: f64) -> usize {
    ((NOMINAL_RATE * seconds * 0.5) as usize).max(MIN_NOMINAL_REQUESTS)
}

/// Serve `bodies` closed-loop from `jobs` clients through a fresh server:
/// returns the wall from the first send to the last byte, the responses
/// in `bodies` order, and the `/metrics` deltas.
fn closed_loop(
    bins: &Bins,
    name: &str,
    bodies: &[String],
    setups: &mut Vec<f64>,
    lifecycle: &mut Vec<String>,
) -> Result<(f64, Answers, Counters), String> {
    let (server, _) = spawn(bins, name, setups)?;
    let before = server.scrape()?;
    let addr = server.addr.to_string();
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let mut answers: Vec<(usize, Result<String, String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..bins.jobs.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(body) = bodies.get(i) else { break };
                        let answer = match client::post_run(&addr, body, REQUEST_TIMEOUT) {
                            Ok(r) if r.status == 200 => Ok(r.body),
                            Ok(r) => Err(format!("status {}", r.status)),
                            Err(e) => Err(e.to_string()),
                        };
                        mine.push((i, answer));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let after = server.scrape()?;
    if let Err(e) = server.stop() {
        lifecycle.push(e);
    }
    answers.sort_by_key(|(i, _)| *i);
    Ok((
        wall,
        answers.into_iter().map(|(_, a)| a).collect(),
        delta(&before, &after),
    ))
}

/// The ladder: binary search over the rungs for the highest sustained
/// rate, one fresh server per probe. Returns 0 when no rung holds.
fn max_rate(
    bins: &Bins,
    seed: u64,
    setups: &mut Vec<f64>,
    lifecycle: &mut Vec<String>,
) -> Result<f64, String> {
    // `lo` is the highest sustained rung seen (-1: none yet), `hi` the
    // lowest unsustained one.
    let (mut lo, mut hi) = (-1i64, LADDER_RUNGS as i64);
    for probe in 0..PROBES {
        if hi - lo <= 1 {
            break;
        }
        let k = (lo + hi) / 2;
        let s = gen::generate(
            seed.wrapping_add(1 + probe as u64),
            PROBE_REQUESTS,
            rung(k as usize),
        );
        let (out, _, _) = drive(bins, &format!("probe-{probe}"), &s, setups, lifecycle)?;
        if sustained(&out) {
            lo = k;
        } else {
            hi = k;
        }
    }
    Ok(if lo < 0 { 0.0 } else { rung(lo as usize) })
}

/// Run the workload. The ladder runs only when `ladder` is set (the
/// traced run), see `README.md`.
pub fn run(bins: &Bins, seed: u64, seconds: f64, ladder: bool) -> Result<ServeRun, String> {
    let mut setups = Vec::new();
    let mut errors = Vec::new();
    // Servers that failed to drain and exit 0 on SIGTERM.
    let mut lifecycle = Vec::new();
    for i in 0..SETUP_SPAWNS {
        let (server, _) = spawn(bins, &format!("setup-{i}"), &mut setups)?;
        if let Err(e) = server.stop() {
            lifecycle.push(e);
        }
    }

    let stream = gen::generate(seed, nominal_requests(seconds), NOMINAL_RATE);
    let shape = stream.shape();
    let (outcomes, counters, store_dir) =
        drive(bins, "nominal", &stream, &mut setups, &mut lifecycle)?;
    let mut failed = check_responses(&stream, &outcomes, &mut errors);
    failed += oracle_sample(seed, &stream, &outcomes, &mut errors);
    let mut attempted = outcomes.len() as u64;

    // Exact counters: one simulation per distinct store key, every other
    // app result an attach or a store hit, nothing rejected.
    let count = |c: &Counters, k: &str| c.get(k).copied().unwrap_or(-1.0);
    let simulations = count(&counters, "bvf_serve_simulations");
    let reused = count(&counters, "bvf_serve_attached") + count(&counters, "bvf_serve_store_hits");
    if simulations != shape.distinct_keys as f64
        || reused != (shape.app_results - shape.distinct_keys) as f64
        || count(&counters, "bvf_serve_rejected") != 0.0
        || count(&counters, "bvf_serve_requests") != shape.requests as f64
    {
        failed += 1;
        errors.push(format!(
            "serve counters: {simulations} simulations, {reused} attaches+hits, {} rejected, {} requests; \
             the stream has {} keys, {} app results, {} requests",
            count(&counters, "bvf_serve_rejected"),
            count(&counters, "bvf_serve_requests"),
            shape.distinct_keys,
            shape.app_results,
            shape.requests
        ));
    }

    // The cold batch, repeated: every distinct body once, closed-loop,
    // through a fresh server. Its answers must equal the nominal phase's,
    // and it must simulate exactly the same work.
    let mut first: HashMap<usize, &str> = HashMap::new();
    for (r, o) in stream.requests.iter().zip(&outcomes) {
        if o.ok() {
            first.entry(r.body_id).or_insert(&o.body);
        }
    }
    let instructions = count(&counters, "bvf_sim_step_count");
    let mut batch_walls = Vec::with_capacity(BATCHES);
    for b in 0..BATCHES {
        let (wall, answers, batch) = closed_loop(
            bins,
            &format!("batch-{b}"),
            &stream.bodies,
            &mut setups,
            &mut lifecycle,
        )?;
        batch_walls.push(wall);
        attempted += answers.len() as u64;
        for (id, answer) in answers.iter().enumerate() {
            let same = matches!((answer, first.get(&id)), (Ok(a), Some(b)) if a == b);
            if !same {
                failed += 1;
                if errors.len() < 20 {
                    errors.push(format!(
                        "cold batch answer for body {id} differs: {answer:?}"
                    ));
                }
            }
        }
        if count(&batch, "bvf_sim_step_count") != instructions
            || count(&batch, "bvf_serve_simulations") != simulations
        {
            failed += 1;
            errors.push(format!(
                "cold batch simulated {} instructions in {} simulations, the stream {instructions} in {simulations}",
                count(&batch, "bvf_sim_step_count"),
                count(&batch, "bvf_serve_simulations")
            ));
        }
    }
    let batch_wall = median(&batch_walls);

    let lat: Vec<f64> = outcomes.iter().map(Outcome::latency_ms).collect();
    let mut metrics = BTreeMap::new();
    metrics.insert(
        "serve.cold_capacity_rps".to_string(),
        stream.requests.len() as f64 / batch_wall,
    );
    metrics.insert(
        "serve.inflight_repeat_share".to_string(),
        inflight_repeat_share(&stream, &outcomes),
    );
    metrics.insert("wall_s".to_string(), batch_wall);
    metrics.insert(
        "sim_minstr_per_s".to_string(),
        instructions / batch_wall / 1e6,
    );
    metrics.insert("latency_p50_ms".to_string(), percentile(&lat, 0.5));
    metrics.insert("serve.latency_p99_ms".to_string(), percentile(&lat, 0.99));
    if ladder {
        metrics.insert(
            "serve.max_rate_rps".to_string(),
            max_rate(bins, seed, &mut setups, &mut lifecycle)?,
        );
    }
    metrics.insert("setup_s".to_string(), median(&setups));
    // Every server spawned is an operation too: it must start, answer and
    // drain cleanly.
    attempted += setups.len() as u64;
    failed += lifecycle.len() as u64;
    errors.extend(lifecycle);
    Ok(ServeRun {
        metrics,
        attempted,
        failed,
        errors,
        nominal: outcomes,
        shape,
        counters,
        stream,
        store_dir,
    })
}

/// Median and p99 latency of the requests that introduced a body (cold
/// work) and of the repeats.
pub fn split_latency(run: &ServeRun) -> [(f64, f64); 2] {
    let mut cold = Vec::new();
    let mut repeat = Vec::new();
    for (r, o) in run.stream.requests.iter().zip(&run.nominal) {
        if r.first { &mut cold } else { &mut repeat }.push(o.latency_ms());
    }
    [cold, repeat].map(|l| (percentile(&l, 0.5), percentile(&l, 0.99)))
}

/// Per-layer numbers of a traced serve-open run: client-side spans of
/// the nominal phase, `protocol::parse_request` timed in-process on every
/// body, the server's own counters from `/metrics`, and every store key
/// loaded back from the nominal server's store, each of which must be
/// there (a failure is pushed to `errors`).
pub fn layer_metrics(run: &ServeRun, errors: &mut Vec<String>) -> Counters {
    let mut m = BTreeMap::new();
    let n = run.nominal.len().max(1) as f64;
    let mean = |f: &dyn Fn(&Outcome) -> u64| -> f64 {
        run.nominal.iter().map(|o| f(o) as f64).sum::<f64>() / n / 1e6
    };
    let ttfb = mean(&|o| o.first_byte_ns.saturating_sub(o.send_ns));
    let connect = mean(&|o| o.connected_ns.saturating_sub(o.send_ns));
    let late = mean(&|o| o.send_ns.saturating_sub(o.due_ns));
    // Parse cost of every body the server saw, timed here.
    let t0 = Instant::now();
    for r in &run.stream.requests {
        let body = &run.stream.bodies[r.body_id];
        std::hint::black_box(protocol::parse_request(std::hint::black_box(body)).ok());
    }
    let parse_us = t0.elapsed().as_secs_f64() * 1e6 / n;
    let c = |k: &str| run.counters.get(k).copied().unwrap_or(0.0);
    let sims = c("bvf_serve_simulations");
    let queue_jobs = c("bvf_serve_queue_wait_ns_count").max(1.0);
    let requests = c("bvf_serve_requests").max(1.0);
    let reused = run.shape.app_results as f64 - run.shape.distinct_keys as f64;
    m.insert("serve.ttfb_ms".into(), ttfb);
    m.insert("serve.connect_ms".into(), connect);
    m.insert("serve.parse_us".into(), parse_us);
    m.insert(
        "serve.unattributed_ms".into(),
        ttfb - connect - parse_us / 1e3,
    );
    m.insert(
        "serve.queue_wait_ms".into(),
        c("bvf_serve_queue_wait_ns_sum") / queue_jobs / 1e6,
    );
    m.insert(
        "serve.simulate_ms".into(),
        c("bvf_serve_simulate_nanos_total") / sims.max(1.0) / 1e6,
    );
    m.insert(
        "serve.body_ms".into(),
        mean(&|o| o.last_byte_ns.saturating_sub(o.first_byte_ns)),
    );
    m.insert("serve.simulations".into(), sims);
    // Exact: which reused results attached to a flight and which hit the
    // store depends on timing, their sum does not.
    m.insert(
        "serve.reused".into(),
        c("bvf_serve_attached") + c("bvf_serve_store_hits"),
    );
    for k in [
        "serve.max_rate_rps",
        "serve.latency_p99_ms",
        "serve.cold_capacity_rps",
        "serve.inflight_repeat_share",
    ] {
        if let Some(v) = run.metrics.get(k) {
            m.insert(k.into(), *v);
        }
    }
    m.insert("serve.requests".into(), requests);
    m.insert(
        "serve.attach_ratio".into(),
        if reused > 0.0 {
            c("bvf_serve_attached") / reused
        } else {
            0.0
        },
    );
    let consults = c("bvf_serve_store_hits") + c("bvf_serve_store_misses");
    m.insert(
        "serve.store_hit_ratio".into(),
        if consults > 0.0 {
            c("bvf_serve_store_hits") / consults
        } else {
            0.0
        },
    );
    m.insert("serve.rejected".into(), c("bvf_serve_rejected"));
    m.insert("serve.gen_late_ms".into(), late);
    m.insert("serve.repeat_share".into(), run.shape.repeat_share);
    m.insert("serve.cold_share".into(), run.shape.cold_share);
    m.insert("serve.distinct_keys".into(), run.shape.distinct_keys as f64);
    // The simulator inside the server, from its own timers.
    let ms = |k: &str| c(k) / 1e6;
    let step = ms("bvf_sim_step_nanos_total");
    let ifetch = ms("bvf_sim_ifetch_nanos_total");
    let gmem = ms("bvf_sim_global_mem_nanos_total") + ms("bvf_sim_shared_mem_nanos_total");
    let si = ms("bvf_stats_instr_path_nanos_total");
    let sd = ms("bvf_stats_data_path_nanos_total");
    let dram = ms("bvf_dram_drain_nanos_total");
    let launch = ms("bvf_sim_launch_nanos_total");
    let instr = c("bvf_sim_step_count");
    m.insert("gpu.launch_ms".into(), launch);
    m.insert("gpu.launches".into(), c("bvf_sim_launch_count"));
    m.insert("gpu.exec_events".into(), instr);
    m.insert("gpu.ifetch_events".into(), c("bvf_sim_ifetch_count"));
    m.insert(
        "gpu.data_memory_events".into(),
        c("bvf_sim_global_mem_count") + c("bvf_sim_shared_mem_count"),
    );
    m.insert("gpu.instructions".into(), instr);
    m.insert(
        "gpu.ns_per_instr".into(),
        if instr > 0.0 {
            launch * 1e6 / instr
        } else {
            0.0
        },
    );
    m.insert("gpu.exec_ms".into(), (step - ifetch - gmem).max(0.0));
    m.insert("gpu.ifetch_ms".into(), (ifetch - si).max(0.0));
    m.insert("gpu.data_memory_ms".into(), (gmem - sd).max(0.0));
    m.insert("gpu.dram_drain_ms".into(), dram);
    m.insert("gpu.other_ms".into(), (launch - step - dram).max(0.0));
    m.insert("gpu.dram_requests".into(), c("bvf_dram_requests"));
    m.insert(
        "gpu.uniform_share".into(),
        if instr > 0.0 {
            c("bvf_sim_uniform_instructions") / instr
        } else {
            0.0
        },
    );
    m.insert("stats.data_ms".into(), sd);
    m.insert("stats.instr_ms".into(), si);
    m.insert("stats.data_events".into(), c("bvf_stats_data_path_count"));
    m.insert("stats.instr_events".into(), c("bvf_stats_instr_path_count"));
    m.insert(
        "stats.events".into(),
        c("bvf_stats_data_path_count") + c("bvf_stats_instr_path_count"),
    );
    m.insert("store.loads".into(), consults);
    m.insert("store.saves".into(), sims);
    m.insert(
        "store.hit_ratio".into(),
        if consults > 0.0 {
            c("bvf_serve_store_hits") / consults
        } else {
            0.0
        },
    );
    // Store reads on the server's own store, timed in-process: every key
    // the stream names must load.
    match ResultStore::open(&run.store_dir) {
        Ok(store) => {
            let t0 = Instant::now();
            let mut loads = HashSet::new();
            for body in &run.stream.bodies {
                let req = protocol::parse_request(body).expect("generated bodies parse");
                let mask = req.isa_mask();
                for app in &req.apps {
                    let key = ResultStore::key(&req.config, req.arch, mask, app.code);
                    if store.load(key, app.code).is_some() {
                        loads.insert(key);
                    }
                }
            }
            m.insert("store.load_ms".into(), t0.elapsed().as_secs_f64() * 1e3);
            if loads.len() != run.shape.distinct_keys {
                errors.push(format!(
                    "{} of the stream's {} store keys load from the server's store",
                    loads.len(),
                    run.shape.distinct_keys
                ));
            }
        }
        Err(e) => errors.push(format!("cannot open the server's store: {e}")),
    }
    m
}
