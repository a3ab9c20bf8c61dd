//! The traced run of the `paper-*` workloads: an in-process harness that
//! reproduces the paper by calling each layer's public functions itself,
//! recording a span around every call.
//!
//! The run has three stages:
//!
//! 1. **Reference.** `Campaign::run_with_options` for the seven campaigns
//!    (untraced), giving the campaign-layer numbers and the results every
//!    harness summary must equal.
//! 2. **Fill** (`paper-warm` only). The harness simulates every application
//!    and writes it with `ResultStore::save`.
//! 3. **Traced pass.** The harness renders every exhibit in `reproduce`'s
//!    order, and for each campaign derives the ISA mask and fans the
//!    applications (or their shards) over the worker pool:
//!    `Application::kernel`, `Gpu::new`, `Application::prepare`,
//!    `Gpu::launch` / `launch_shard` and `merge_shards` — or
//!    `ResultStore::load` on the warm path. Launch phase self times come
//!    from the `PhaseProfile` an enabled `MetricsSink` returns.
//!
//! Spans stay in a `TraceSink` until the run ends. Self time is computed
//! per layer in wall-equivalent milliseconds: a span's duration minus its
//! same-thread children, and a fan-out's worker spans count 1/workers of
//! their duration. The layers plus `unattributed` (main-thread time
//! outside any span) therefore add up to the pass's wall time; what the
//! run checks is that no span's own time is negative, so no time is
//! counted twice.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use bvf_circuit::ProcessNode;
use bvf_gpu::{
    merge_shards, CodingView, Gpu, GpuConfig, LaunchShard, Phase, SchedulerKind, TraceSummary,
};
use bvf_isa::Architecture;
use bvf_obs::trace::{TraceEvent, TraceRecorder};
use bvf_obs::{MetricsSink, TraceSink};
use bvf_sim::figures::{ablation, circuit, energy, overhead, profile, sensitivity};
use bvf_sim::{Campaign, CampaignOptions, Parallelism, ResultStore, ShardMode, Table};
use bvf_workloads::Application;

use crate::paper::{Mode, PIVOT_APPS};

/// Metrics of one traced run, by name.
pub type Metrics = BTreeMap<String, f64>;

/// The seven campaigns `reproduce` runs, in its order.
pub fn campaigns() -> Vec<(&'static str, GpuConfig)> {
    let sched = |kind| {
        let mut c = GpuConfig::baseline();
        c.scheduler = kind;
        c
    };
    vec![
        ("main", GpuConfig::baseline()),
        ("sched-gto", sched(SchedulerKind::Gto)),
        ("sched-lrr", sched(SchedulerKind::Lrr)),
        ("sched-two-level", sched(SchedulerKind::TwoLevel)),
        ("cap-gtx480", GpuConfig::gtx480()),
        ("cap-p100", GpuConfig::tesla_p100()),
        ("cap-k80", GpuConfig::tesla_k80()),
    ]
}

pub fn parallelism(jobs: usize) -> Parallelism {
    if jobs <= 1 {
        Parallelism::Sequential
    } else {
        Parallelism::Fixed(jobs)
    }
}

/// What the traced pass produced, beside its spans.
pub struct PaperTrace {
    pub metrics: Metrics,
    /// `reproduce`'s stdout, rebuilt from the harness's exhibits.
    pub stdout: String,
    pub events: Vec<TraceEvent>,
    pub dropped: u64,
    /// Mismatches between the harness and `Campaign` results, or accounting
    /// errors; empty when the run is correct.
    pub errors: Vec<String>,
}

/// Run `f` inside a span `path` of layer `cat` on `rec`.
fn span<R>(rec: &mut TraceRecorder, path: String, cat: &'static str, f: impl FnOnce() -> R) -> R {
    let guard = rec.begin();
    let out = f();
    rec.end(guard, path, cat, 0, Vec::new());
    out
}

/// One harness work item: an application, or one shard of it.
struct Item {
    app: usize,
    shard: u32,
    shards: u32,
}

/// What a worker produced for an item.
enum Produced {
    Summary(Box<TraceSummary>),
    Shard(Box<LaunchShard>),
    Missing,
}

/// Exact work counts of the traced pass.
#[derive(Default)]
struct Counts {
    launches: u64,
    instructions: u64,
    dram_requests: u64,
    uniform: u64,
    phase_nanos: BTreeMap<Phase, u64>,
    phase_events: BTreeMap<Phase, u64>,
    loads: u64,
    load_hits: u64,
    saves: u64,
    merges: u64,
}

impl Counts {
    fn profile(&mut self, p: &bvf_gpu::PhaseProfile) {
        self.uniform += p.uniform_instructions;
        for s in &p.slices {
            *self.phase_nanos.entry(s.phase).or_default() += s.nanos;
            *self.phase_events.entry(s.phase).or_default() += s.events;
        }
    }
}

/// Emit one child span per phase slice inside a launch span, laid end to
/// end from the launch's start, so a trace viewer shows the split.
fn emit_phases(rec: &mut TraceRecorder, parent: &str, t0_ns: u64, p: &bvf_gpu::PhaseProfile) {
    let mut at = t0_ns;
    for s in &p.slices {
        if s.nanos == 0 {
            continue;
        }
        let cat = match s.phase {
            Phase::StatsData | Phase::StatsInstr => "stats",
            _ => "gpu",
        };
        rec.emit(
            format!("{parent}/phase:{}", s.phase.name()),
            cat,
            0,
            at,
            s.nanos,
            vec![("events", s.events)],
        );
        at += s.nanos;
    }
}

/// Everything one fan-out needs to share with its workers.
struct FanOut<'a> {
    mode: Mode,
    config: &'a GpuConfig,
    views: &'a [CodingView],
    arch: Architecture,
    mask: u64,
    apps: &'a [Application],
    store: Option<&'a ResultStore>,
    sink: &'a MetricsSink,
    tracer: &'a TraceSink,
    root: &'a str,
    /// Whether a worker saves what it simulated (the warm fill).
    save: bool,
}

impl FanOut<'_> {
    fn item(&self, rec: &mut TraceRecorder, it: &Item, counts: &Mutex<Counts>) -> Produced {
        let app = &self.apps[it.app];
        let path = format!("{}/app:{}/shard:{}", self.root, app.code, it.shard);
        let item_guard = rec.begin();
        let produced = if self.mode == Mode::Warm {
            let store = self.store.expect("warm fan-outs have a store");
            let key = ResultStore::key(self.config, self.arch, self.mask, app.code);
            let loaded = span(rec, format!("{path}/store:load"), "store", || {
                store.load(key, app.code)
            });
            let mut c = counts.lock().expect("counts lock");
            c.loads += 1;
            c.load_hits += u64::from(loaded.is_some());
            loaded.map_or(Produced::Missing, |s| Produced::Summary(Box::new(s)))
        } else {
            let kernel = span(rec, format!("{path}/kernel"), "workloads", || app.kernel());
            let mut gpu = span(rec, format!("{path}/gpu:new"), "gpu", || {
                let mut gpu = Gpu::new(self.config.clone(), self.views.to_vec());
                gpu.set_architecture(self.arch);
                gpu.set_metrics(self.sink.clone());
                gpu
            });
            span(rec, format!("{path}/prepare"), "workloads", || {
                app.prepare(&mut gpu)
            });
            let launch_path = format!("{path}/launch");
            let t0 = rec.now_ns();
            let produced = if it.shards == 1 {
                let s = span(rec, launch_path.clone(), "gpu", || {
                    gpu.launch(&kernel, app.launch_config())
                });
                emit_phases(rec, &launch_path, t0, &s.profile);
                let mut c = counts.lock().expect("counts lock");
                c.profile(&s.profile);
                c.launches += 1;
                c.instructions += s.dynamic_instructions;
                c.dram_requests += s.dram.requests;
                Produced::Summary(Box::new(s))
            } else {
                let s = span(rec, launch_path.clone(), "gpu", || {
                    gpu.launch_shard(&kernel, app.launch_config(), it.shard, it.shards)
                });
                emit_phases(rec, &launch_path, t0, &s.profile);
                let mut c = counts.lock().expect("counts lock");
                c.profile(&s.profile);
                c.launches += 1;
                c.instructions += s.dynamic_instructions;
                Produced::Shard(Box::new(s))
            };
            if self.save {
                if let (Some(store), Produced::Summary(s)) = (self.store, &produced) {
                    let key = ResultStore::key(self.config, self.arch, self.mask, app.code);
                    span(rec, format!("{path}/store:save"), "store", || {
                        store.save(key, app.code, s)
                    });
                    counts.lock().expect("counts lock").saves += 1;
                }
            }
            produced
        };
        rec.end(item_guard, path, "campaign", 0, Vec::new());
        produced
    }

    /// Run every item over `jobs` workers, claiming items in order.
    fn run(&self, items: &[Item], jobs: usize, counts: &Mutex<Counts>) -> Vec<Produced> {
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Produced>>> = items.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..jobs.max(1) {
                scope.spawn(|| {
                    let mut rec = self.tracer.lane_recorder();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(it) = items.get(i) else { break };
                        let p = self.item(&mut rec, it, counts);
                        *slots[i].lock().expect("slot lock") = Some(p);
                    }
                    rec.flush();
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("slot lock").expect("every item ran"))
            .collect()
    }
}

/// Reproduce `reproduce`'s exhibit sequence, timing each exhibit.
struct Exhibits {
    stdout: String,
}

impl Exhibits {
    fn emit(
        &mut self,
        rec: &mut TraceRecorder,
        name: &str,
        cat: &'static str,
        f: impl FnOnce() -> Table,
    ) {
        let t = span(rec, format!("pass/figures:{name}"), cat, f);
        self.stdout.push_str(&format!("{t}\n"));
    }
}

/// Run the traced paper workload `mode` (`Cold`, `Sharded` or `Warm`)
/// with `jobs` workers; `store_dir` is an empty directory for the warm
/// path's store.
pub fn run_paper(mode: Mode, jobs: usize, store_dir: &Path) -> Result<PaperTrace, String> {
    let apps = Application::all();
    let par = parallelism(jobs);
    let arch = Architecture::Pascal;
    let shards: u32 = if mode == Mode::Sharded { 2 } else { 1 };
    let store = match mode {
        Mode::Warm => Some(Arc::new(
            ResultStore::open(store_dir).map_err(|e| format!("cannot open store: {e}"))?,
        )),
        _ => None,
    };
    let tracer = TraceSink::enabled();
    let sink = MetricsSink::enabled();
    let counts = Mutex::new(Counts::default());
    let mut errors = Vec::new();
    let mut metrics = Metrics::new();

    // ---- Fill (warm only): the harness simulates and saves every result.
    if let Some(store) = store.as_deref() {
        let mask = Campaign::derive_isa_mask(arch, &apps);
        let views = CodingView::standard_set(mask);
        for (label, cfg) in campaigns() {
            let items: Vec<Item> = (0..apps.len())
                .map(|app| Item {
                    app,
                    shard: 0,
                    shards: 1,
                })
                .collect();
            let fan = FanOut {
                mode: Mode::Fill,
                config: &cfg,
                views: &views,
                arch,
                mask,
                apps: &apps,
                store: Some(store),
                sink: &sink,
                tracer: &tracer,
                root: &format!("fill/campaign:{label}"),
                save: true,
            };
            fan.run(&items, jobs, &counts);
        }
    }
    // The fill is set-up, not part of the pass: keep only its save count.
    {
        let mut c = counts.lock().expect("counts lock");
        let saves = c.saves;
        *c = Counts::default();
        c.saves = saves;
    }

    // ---- Reference: the seven campaigns through `Campaign`.
    let mut reference: Vec<(&'static str, Campaign)> = Vec::new();
    let (mut camp_wall, mut camp_serial, mut camp_tail, mut camp_workers) = (0.0, 0.0, 0.0, 0usize);
    for (label, cfg) in campaigns() {
        let opts = CampaignOptions {
            par,
            store: store.clone(),
            shards: if shards > 1 {
                ShardMode::Fixed(shards)
            } else {
                ShardMode::Off
            },
            ..CampaignOptions::default()
        };
        let c = Campaign::run_with_options(cfg, &apps, &opts);
        if !c.failures.is_empty() {
            errors.push(format!("campaign {label} failed: {:?}", c.failures));
        }
        let r = c.run_report();
        let wall = r.wall.as_secs_f64() * 1e3;
        let serial = r.serial_wall.as_secs_f64() * 1e3;
        camp_wall += wall;
        camp_serial += serial;
        camp_tail += (wall - serial / r.workers.max(1) as f64).max(0.0);
        camp_workers = r.workers;
        reference.push((label, c));
    }
    metrics.insert("campaign.wall_ms".into(), camp_wall);
    metrics.insert(
        "campaign.busy_share".into(),
        camp_serial / (camp_workers.max(1) as f64 * camp_wall),
    );
    metrics.insert("campaign.tail_ms".into(), camp_tail);

    // ---- Traced pass.
    let mut main = tracer.recorder(u32::MAX);
    let pass_guard = main.begin();
    let mut ex = Exhibits {
        stdout: String::new(),
    };
    ex.emit(&mut main, "fig05_06-28nm", "figures.energy", || {
        circuit::fig05_06(ProcessNode::N28)
    });
    ex.emit(&mut main, "fig05_06-40nm", "figures.energy", || {
        circuit::fig05_06(ProcessNode::N40)
    });
    ex.emit(
        &mut main,
        "table_6t_stability",
        "figures.energy",
        circuit::table_6t_stability,
    );
    ex.emit(&mut main, "fig14", "isa", || profile::fig14(&apps, arch));
    ex.emit(&mut main, "table2", "isa", || profile::table2(&apps));
    ex.emit(&mut main, "overhead_table", "figures.energy", || {
        overhead::overhead_table(&GpuConfig::baseline())
    });
    ex.emit(&mut main, "overhead_inventory", "figures.energy", || {
        overhead::overhead_inventory(&GpuConfig::baseline())
    });
    for (label, campaign) in &reference {
        let root = format!("pass/campaign:{label}");
        let cfg = &campaign.config;
        let mask = span(&mut main, format!("{root}/isa_mask"), "isa", || {
            Campaign::derive_isa_mask(arch, &apps)
        });
        if mask != campaign.isa_mask {
            errors.push(format!(
                "{label}: harness ISA mask differs from the campaign's"
            ));
        }
        let views = CodingView::standard_set(mask);
        let mut items: Vec<Item> = Vec::new();
        for app in 0..apps.len() {
            for shard in 0..shards {
                items.push(Item { app, shard, shards });
            }
        }
        let fan = FanOut {
            mode,
            config: cfg,
            views: &views,
            arch,
            mask,
            apps: &apps,
            store: store.as_deref(),
            sink: &sink,
            tracer: &tracer,
            root: &format!("{root}/fanout"),
            save: false,
        };
        let fan_guard = main.begin();
        let produced = fan.run(&items, jobs, &counts);
        main.end(
            fan_guard,
            format!("{root}/fanout"),
            "campaign",
            0,
            vec![("workers", jobs as u64)],
        );
        let mut summaries: Vec<Option<TraceSummary>> = Vec::with_capacity(apps.len());
        let mut produced = produced.into_iter();
        for app in &apps {
            let parts: Vec<Produced> = produced.by_ref().take(shards as usize).collect();
            let summary = if shards > 1 {
                let pieces: Vec<LaunchShard> = parts
                    .into_iter()
                    .filter_map(|p| match p {
                        Produced::Shard(s) => Some(*s),
                        _ => None,
                    })
                    .collect();
                let merge_path = format!("{root}/merge:{}", app.code);
                let t0 = main.now_ns();
                let shard_drain: u64 = pieces
                    .iter()
                    .filter_map(|s| s.profile.slice(Phase::DramDrain))
                    .map(|s| s.nanos)
                    .sum();
                let merged = span(&mut main, merge_path.clone(), "merge", || {
                    merge_shards(cfg, &pieces)
                });
                let replay = merged
                    .profile
                    .slice(Phase::DramDrain)
                    .map_or(0, |s| s.nanos)
                    .saturating_sub(shard_drain);
                main.emit(
                    format!("{merge_path}/dram_replay"),
                    "gpu",
                    0,
                    t0,
                    replay,
                    Vec::new(),
                );
                let mut c = counts.lock().expect("counts lock");
                c.merges += 1;
                c.dram_requests += merged.dram.requests;
                *c.phase_nanos.entry(Phase::DramDrain).or_default() += replay;
                Some(merged)
            } else {
                parts.into_iter().next().and_then(|p| match p {
                    Produced::Summary(s) => Some(*s),
                    _ => None,
                })
            };
            summaries.push(summary);
        }
        span(&mut main, format!("{root}/check"), "bench", || {
            for (app, s) in apps.iter().zip(&summaries) {
                match (s, campaign.try_result(app.code)) {
                    (Some(s), Some(r)) if *s == r.summary => {}
                    _ => errors.push(format!(
                        "{label}/{}: harness summary differs from Campaign's",
                        app.code
                    )),
                }
            }
        });
        if *label == "main" {
            let c = campaign;
            ex.emit(&mut main, "fig08", "figures.profile", || profile::fig08(c));
            ex.emit(&mut main, "fig09", "figures.profile", || profile::fig09(c));
            ex.emit(&mut main, "fig11", "figures.profile", || profile::fig11(c));
            ex.emit(&mut main, "fig12", "figures.profile", || profile::fig12(c));
            ex.emit(&mut main, "fig16-28nm", "figures.energy", || {
                energy::fig16_17(c, ProcessNode::N28)
            });
            ex.emit(&mut main, "fig17-40nm", "figures.energy", || {
                energy::fig16_17(c, ProcessNode::N40)
            });
            ex.emit(&mut main, "fig18", "figures.energy", || {
                energy::fig18_19(c, ProcessNode::N28)
            });
            ex.emit(&mut main, "fig19", "figures.energy", || {
                energy::fig18_19(c, ProcessNode::N40)
            });
            ex.emit(&mut main, "fig20", "figures.energy", || {
                sensitivity::fig20(c)
            });
            ex.emit(&mut main, "fig23", "figures.energy", || {
                sensitivity::fig23(c)
            });
        }
        if *label == "sched-two-level" {
            let by = |l: &str| &reference.iter().find(|(x, _)| *x == l).expect("ran").1;
            let (g, l, t) = (by("sched-gto"), by("sched-lrr"), by("sched-two-level"));
            ex.emit(&mut main, "fig21", "figures.energy", || {
                sensitivity::fig21(&[("GTO", g), ("LRR", l), ("Two-Level", t)])
            });
        }
        if *label == "cap-k80" {
            let by = |l: &str| &reference.iter().find(|(x, _)| *x == l).expect("ran").1;
            let (a, b, k) = (by("cap-gtx480"), by("cap-p100"), by("cap-k80"));
            ex.emit(&mut main, "fig22", "figures.energy", || {
                sensitivity::fig22(&[("GTX-480", a), ("Tesla-P100", b), ("Tesla-K80", k)])
            });
        }
    }
    let main_campaign = &reference[0].1;
    ex.emit(
        &mut main,
        "ablation-bus-invert",
        "figures.ablation",
        ablation::bus_invert_ablation,
    );
    ex.emit(&mut main, "ablation-isa-mask", "figures.ablation", || {
        ablation::isa_mask_ablation(&apps, arch)
    });
    let pivot_apps: Vec<Application> = PIVOT_APPS
        .iter()
        .map(|c| Application::by_code(c).expect("pivot app"))
        .collect();
    ex.emit(&mut main, "ablation-pivot", "figures.ablation", || {
        ablation::pivot_ablation(&GpuConfig::baseline(), &pivot_apps, par)
    });
    ex.emit(&mut main, "ablation-edram", "figures.ablation", || {
        ablation::edram_substrate(main_campaign, ProcessNode::N40)
    });
    main.end(pass_guard, "pass".to_string(), "pass", 0, Vec::new());
    main.flush();

    let events: Vec<TraceEvent> = tracer
        .events()
        .into_iter()
        .filter(|e| !e.path.starts_with("fill/"))
        .collect();
    let c = counts.into_inner().expect("counts lock");
    let (selfs, overfull) = self_times(&events, jobs);
    errors.extend(overfull);
    let pass_ns = events
        .iter()
        .find(|e| e.path == "pass")
        .map_or(0, |e| e.dur_ns);
    layer_metrics(&mut metrics, &events, &selfs, &c, pass_ns as f64 / 1e6);
    if let Some(store) = store.as_deref() {
        let s = store.stats();
        metrics.insert("store.hit_ratio".into(), ratio(c.load_hits, c.loads));
        if s.corrupt > 0 {
            errors.push(format!("{} corrupt store entries", s.corrupt));
        }
    }
    Ok(PaperTrace {
        metrics,
        stdout: ex.stdout,
        dropped: tracer.dropped(),
        events,
        errors,
    })
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Wall-equivalent own time of every span, in nanoseconds: its duration
/// minus its children's. A child on another thread than its parent counts
/// `1/workers` of its duration against the parent.
fn own_times(events: &[TraceEvent], workers: usize) -> Vec<(&TraceEvent, f64)> {
    let by_path: BTreeMap<&str, &TraceEvent> =
        events.iter().map(|e| (e.path.as_str(), e)).collect();
    let mut child_time: BTreeMap<&str, f64> = BTreeMap::new();
    let mut weight: BTreeMap<&str, f64> = BTreeMap::new();
    // Weight of each span: the product of 1/workers over every thread
    // hop between it and the pass root.
    let mut sorted: Vec<&TraceEvent> = events.iter().collect();
    sorted.sort_by_key(|e| e.path.matches('/').count());
    for e in &sorted {
        let parent = parent_span(&by_path, &e.path);
        let w = match parent {
            None => 1.0,
            Some(p) => {
                let pw = weight.get(p.path.as_str()).copied().unwrap_or(1.0);
                if p.tid == e.tid {
                    pw
                } else {
                    pw / workers.max(1) as f64
                }
            }
        };
        weight.insert(e.path.as_str(), w);
        if let Some(p) = parent {
            *child_time.entry(p.path.as_str()).or_default() += e.dur_ns as f64 * w;
        }
    }
    events
        .iter()
        .map(|e| {
            let w = weight[e.path.as_str()];
            let own = e.dur_ns as f64 * w - child_time.get(e.path.as_str()).copied().unwrap_or(0.0);
            (e, own)
        })
        .collect()
}

/// Self time per layer (span category) in wall-equivalent nanoseconds,
/// with the pass root's own time as `unattributed`, and every span whose
/// children take longer than it does. A launch whose `PhaseProfile` slices
/// exceed the launch, a fan-out whose workers' time exceeds workers × its
/// wall, or a merge whose DRAM replay exceeds the merge is such a span:
/// its time would be counted twice.
pub fn self_times(events: &[TraceEvent], workers: usize) -> (BTreeMap<String, f64>, Vec<String>) {
    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    let mut overfull = Vec::new();
    for (e, own) in own_times(events, workers) {
        if own < 0.0 {
            overfull.push(format!(
                "{}: children take {:.0} ns more than the span",
                e.path, -own
            ));
        }
        let layer = if e.cat == "pass" {
            "unattributed"
        } else {
            e.cat
        };
        *layers.entry(layer.to_string()).or_default() += own;
    }
    (layers, overfull)
}

/// The nearest recorded ancestor of `path`.
fn parent_span<'a>(by_path: &BTreeMap<&str, &'a TraceEvent>, path: &str) -> Option<&'a TraceEvent> {
    let mut p = path;
    while let Some((head, _)) = p.rsplit_once('/') {
        if let Some(e) = by_path.get(head) {
            return Some(e);
        }
        p = head;
    }
    None
}

fn layer_metrics(
    m: &mut Metrics,
    events: &[TraceEvent],
    selfs: &BTreeMap<String, f64>,
    c: &Counts,
    pass_ms: f64,
) {
    let ms = |ns: u64| ns as f64 / 1e6;
    // Thread time summed over calls whose path ends with `suffix`.
    let total = |pred: &dyn Fn(&TraceEvent) -> bool| -> f64 {
        events
            .iter()
            .filter(|e| pred(e))
            .map(|e| e.dur_ns as f64 / 1e6)
            .sum()
    };
    let phase = |p: Phase| ms(c.phase_nanos.get(&p).copied().unwrap_or(0));
    let events_of = |p: Phase| c.phase_events.get(&p).copied().unwrap_or(0) as f64;
    let launch_ms = total(&|e| e.name() == "launch");
    m.insert(
        "workloads.kernel_ms".into(),
        total(&|e| e.name() == "kernel"),
    );
    m.insert(
        "workloads.prepare_ms".into(),
        total(&|e| e.name() == "prepare"),
    );
    m.insert("isa.mask_ms".into(), total(&|e| e.cat == "isa"));
    m.insert("gpu.launch_ms".into(), launch_ms);
    m.insert("gpu.launches".into(), c.launches as f64);
    m.insert("gpu.instructions".into(), c.instructions as f64);
    m.insert(
        "gpu.ns_per_instr".into(),
        if c.instructions == 0 {
            0.0
        } else {
            launch_ms * 1e6 / c.instructions as f64
        },
    );
    m.insert("gpu.exec_ms".into(), phase(Phase::Exec));
    m.insert("gpu.ifetch_ms".into(), phase(Phase::Ifetch));
    m.insert("gpu.data_memory_ms".into(), phase(Phase::DataMemory));
    m.insert("gpu.dram_drain_ms".into(), phase(Phase::DramDrain));
    m.insert("gpu.other_ms".into(), phase(Phase::Other));
    m.insert("gpu.dram_requests".into(), c.dram_requests as f64);
    m.insert("gpu.uniform_share".into(), ratio(c.uniform, c.instructions));
    m.insert("stats.data_ms".into(), phase(Phase::StatsData));
    m.insert("stats.instr_ms".into(), phase(Phase::StatsInstr));
    m.insert("stats.data_events".into(), events_of(Phase::StatsData));
    m.insert("stats.instr_events".into(), events_of(Phase::StatsInstr));
    m.insert(
        "stats.events".into(),
        events_of(Phase::StatsData) + events_of(Phase::StatsInstr),
    );
    m.insert("gpu.exec_events".into(), events_of(Phase::Exec));
    m.insert("gpu.ifetch_events".into(), events_of(Phase::Ifetch));
    m.insert(
        "gpu.data_memory_events".into(),
        events_of(Phase::DataMemory),
    );
    m.insert("merge.ms".into(), total(&|e| e.cat == "merge"));
    m.insert("merge.count".into(), c.merges as f64);
    m.insert("store.load_ms".into(), total(&|e| e.name() == "store:load"));
    m.insert("store.loads".into(), c.loads as f64);
    m.insert("store.save_ms".into(), total(&|e| e.name() == "store:save"));
    m.insert("store.saves".into(), c.saves as f64);
    m.entry("store.hit_ratio".into()).or_insert(0.0);
    m.insert(
        "figures.energy_ms".into(),
        total(&|e| e.cat == "figures.energy"),
    );
    m.insert(
        "figures.profile_ms".into(),
        total(&|e| e.cat == "figures.profile"),
    );
    m.insert(
        "figures.ablation_ms".into(),
        total(&|e| e.cat == "figures.ablation"),
    );
    let pivot_ms = total(&|e| e.name() == "figures:ablation-pivot");
    m.insert("figures.pivot_share".into(), pivot_ms / pass_ms);
    m.insert("trace.pass_ms".into(), pass_ms);
    for (layer, ns) in selfs {
        m.insert(format!("self.{layer}_ms"), ns / 1e6);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(path: &str, cat: &'static str, tid: u32, t0_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent {
            path: path.to_string(),
            cat,
            seq: 0,
            tid,
            t0_ns,
            dur_ns,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_times_split_a_fan_out_by_workers() {
        // A 100 ns pass with a 60 ns fan-out over two workers, each busy
        // 50 ns, one launch of which 30 ns are phase slices.
        let events = vec![
            ev("pass", "pass", 9, 0, 100),
            ev("pass/fanout", "campaign", 9, 10, 60),
            ev("pass/fanout/app:A", "campaign", 0, 10, 50),
            ev("pass/fanout/app:A/launch", "gpu", 0, 10, 40),
            ev("pass/fanout/app:A/launch/phase:exec", "gpu", 0, 10, 30),
            ev("pass/fanout/app:B", "campaign", 1, 10, 50),
        ];
        let (layers, overfull) = self_times(&events, 2);
        assert!(overfull.is_empty(), "{overfull:?}");
        assert_eq!(layers["unattributed"], 40.0);
        // Fan-out: 60 - (50 + 50) / 2; items: (50 - 40 + 50) / 2.
        assert_eq!(layers["campaign"], 10.0 + 30.0);
        assert_eq!(layers["gpu"], 20.0);
        assert_eq!(layers.values().sum::<f64>(), 100.0);
    }

    #[test]
    fn overfull_spans_fail() {
        // Phase slices longer than their launch, and workers busier than
        // the fan-out's wall allows.
        let events = vec![
            ev("pass", "pass", 9, 0, 100),
            ev("pass/fanout", "campaign", 9, 0, 40),
            ev("pass/fanout/app:A", "campaign", 0, 0, 50),
            ev("pass/fanout/app:A/launch", "gpu", 0, 0, 20),
            ev("pass/fanout/app:A/launch/phase:exec", "gpu", 0, 0, 25),
            ev("pass/fanout/app:B", "campaign", 1, 0, 50),
        ];
        let (_, overfull) = self_times(&events, 2);
        assert_eq!(overfull.len(), 2, "{overfull:?}");
        assert!(overfull[0].starts_with("pass/fanout:"));
        assert!(overfull[1].starts_with("pass/fanout/app:A/launch:"));
    }
}
