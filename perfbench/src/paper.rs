//! The `paper-*` workloads measured from outside: spawn the release
//! `reproduce` binary, time it from spawn to exit, and check everything it
//! printed.
//!
//! Every pass runs with `--jobs` capped at the core count and `--metrics`,
//! whose JSON-lines telemetry gives the pass's work vector (simulated
//! applications, instructions, DRAM requests, cache provenance, shards)
//! and per-application latencies without any probe in the program. A pass
//! run with `--trace` also counts the kernel launches the program itself
//! recorded, which must match the telemetry.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use bvf_obs::json::{self, Value};

use crate::expected::Expected;

/// The applications `reproduce` re-simulates for the pivot ablation, each
/// once per pivot candidate, on the baseline configuration and never
/// through the store. The ablation runs outside any campaign, so neither
/// the telemetry nor the trace sees its launches: its share of the work
/// vector is derived from these constants, not measured.
pub const PIVOT_APPS: [&str; 4] = ["OCE", "SCP", "HOT", "BFS"];
pub const PIVOT_CANDIDATES: u64 = 3;

/// Which reproduction a pass runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Cold,
    Sharded,
    /// `--cache` into an empty store: simulates and writes.
    Fill,
    /// `--cache` against a filled store: every campaign result is a hit.
    Warm,
}

impl Mode {
    /// The store line (hits, misses, corrupt, writes) a pass must print,
    /// if it uses a store.
    pub fn store_line(self) -> Option<[u64; 4]> {
        match self {
            // The sched-gto campaign repeats the baseline configuration, so
            // a fill pass hits the store for its 58 applications.
            Mode::Fill => Some([58, 348, 0, 348]),
            Mode::Warm => Some([406, 0, 0, 0]),
            Mode::Cold | Mode::Sharded => None,
        }
    }
}

/// One application result line of the telemetry.
#[derive(Debug, Clone)]
pub struct Item {
    pub campaign: String,
    pub app: String,
    pub wall_ns: u64,
    pub cached: bool,
    pub shards: u64,
    pub instructions: u64,
    pub dram_requests: u64,
}

/// Exact counts a pass did; every pass of one workload must repeat them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Work {
    pub items: u64,
    pub campaigns: u64,
    /// Campaign kernel launches: one per simulated shard of every uncached
    /// application (checked against the launch spans of a traced pass).
    pub launches: u64,
    /// Dynamic instructions of the simulated campaign results.
    pub instructions: u64,
    pub dram_requests: u64,
    pub store_hits: u64,
    pub store_misses: u64,
    pub store_corrupt: u64,
    pub store_writes: u64,
    /// The pivot ablation's launches and instructions, derived from
    /// [`PIVOT_APPS`] and the main campaign's instructions for them.
    pub derived_pivot_launches: u64,
    pub derived_pivot_instructions: u64,
}

impl Work {
    pub fn fields(&self) -> [(&'static str, u64); 11] {
        [
            ("items", self.items),
            ("campaigns", self.campaigns),
            ("launches", self.launches),
            ("instructions", self.instructions),
            ("dram_requests", self.dram_requests),
            ("store_hits", self.store_hits),
            ("store_misses", self.store_misses),
            ("store_corrupt", self.store_corrupt),
            ("store_writes", self.store_writes),
            ("derived_pivot_launches", self.derived_pivot_launches),
            (
                "derived_pivot_instructions",
                self.derived_pivot_instructions,
            ),
        ]
    }

    /// Every instruction the pass simulated, the pivot ablation's included.
    pub fn simulated_instructions(&self) -> u64 {
        self.instructions + self.derived_pivot_instructions
    }
}

/// The outcome of one `reproduce` process.
#[derive(Debug, Clone)]
pub struct Pass {
    pub wall_s: f64,
    pub items: Vec<Item>,
    pub work: Work,
    /// The fig18/fig19 accuracy gaps read from stdout.
    pub gaps: Option<(f64, f64)>,
    /// Launch spans in the pass's `--trace` output, if it was traced.
    pub launch_spans: Option<u64>,
    /// Every output check that failed; empty for a correct pass.
    pub errors: Vec<String>,
}

impl Pass {
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Spawn one pass and check its outputs. With `trace`, the pass also
/// writes a Chrome trace whose launch spans must match the telemetry.
pub fn run_pass(
    reproduce: &Path,
    work_dir: &Path,
    jobs: usize,
    mode: Mode,
    cache: Option<&Path>,
    expected: &Expected,
    trace: bool,
) -> Pass {
    let metrics = work_dir.join("telemetry.jsonl");
    let _ = std::fs::remove_file(&metrics);
    let trace_file = work_dir.join("trace.json");
    let _ = std::fs::remove_file(&trace_file);
    let mut cmd = Command::new(reproduce);
    cmd.arg("--jobs").arg(jobs.to_string());
    cmd.arg("--metrics").arg(&metrics);
    if trace {
        cmd.arg("--trace").arg(&trace_file);
    }
    if mode == Mode::Sharded {
        cmd.arg("--shards").arg("2");
    }
    if let Some(dir) = cache {
        cmd.arg("--cache").arg(dir);
    }
    let t0 = Instant::now();
    let output = cmd.output();
    let wall_s = t0.elapsed().as_secs_f64();
    let mut errors = Vec::new();
    let output = match output {
        Ok(o) => o,
        Err(e) => {
            return Pass {
                wall_s,
                items: Vec::new(),
                work: Work::default(),
                gaps: None,
                launch_spans: None,
                errors: vec![format!("cannot spawn {}: {e}", reproduce.display())],
            }
        }
    };
    if !output.status.success() {
        errors.push(format!("reproduce exited with {}", output.status));
    }
    let digest = bvf_store::fnv1a(&output.stdout);
    if digest != expected.stdout_fnv64 || output.stdout.len() as u64 != expected.stdout_bytes {
        errors.push(format!(
            "stdout digest {digest:#018x} ({} bytes) differs from the pinned {:#018x} ({} bytes)",
            output.stdout.len(),
            expected.stdout_fnv64,
            expected.stdout_bytes
        ));
    }
    let gaps = crate::accuracy_gaps(&String::from_utf8_lossy(&output.stdout));
    let stderr = String::from_utf8_lossy(&output.stderr);
    let telemetry = std::fs::read_to_string(&metrics).unwrap_or_default();
    let (items, campaigns) = match parse_telemetry(&telemetry) {
        Ok(v) => v,
        Err(e) => {
            errors.push(e);
            (Vec::new(), 0)
        }
    };
    let mut work = work_of(&items, campaigns);
    match (parse_store_line(&stderr), mode.store_line()) {
        (Some(s), Some(want)) => {
            [
                work.store_hits,
                work.store_misses,
                work.store_corrupt,
                work.store_writes,
            ] = s;
            if s != want {
                errors.push(format!("store line reads {s:?}, expected {want:?}"));
            }
        }
        (None, Some(_)) => errors.push("no store line on stderr".to_string()),
        (Some(_), None) => errors.push("unexpected store line on stderr".to_string()),
        (None, None) => {}
    }
    check_items(&items, mode, expected, &mut errors);
    let mut launch_spans = None;
    if trace {
        match std::fs::read_to_string(&trace_file)
            .map_err(|e| format!("cannot read the pass's trace: {e}"))
            .and_then(|text| count_launches(&text))
        {
            Ok((spans, instructions)) => {
                launch_spans = Some(spans);
                if (spans, instructions) != (work.launches, work.instructions) {
                    errors.push(format!(
                        "the trace has {spans} launch spans of {instructions} instructions, \
                         the telemetry {} launches of {}",
                        work.launches, work.instructions
                    ));
                }
            }
            Err(e) => errors.push(e),
        }
    }
    Pass {
        wall_s,
        items,
        work,
        gaps,
        launch_spans,
        errors,
    }
}

/// Launch spans (`launch:N` in category `gpu`) of a `reproduce --trace`
/// file and the instructions they record; fails if events were dropped.
pub fn count_launches(text: &str) -> Result<(u64, u64), String> {
    let v = json::parse(text).map_err(|e| format!("bad trace: {e}"))?;
    if u64_at(&v, "droppedEvents") != Some(0) {
        return Err("the trace dropped events".to_string());
    }
    let Some(Value::Array(events)) = v.get("traceEvents") else {
        return Err("the trace has no traceEvents".to_string());
    };
    let launches = events.iter().filter(|e| {
        e.get("cat").and_then(Value::as_str) == Some("gpu")
            && e.get("name")
                .and_then(Value::as_str)
                .is_some_and(|n| n.starts_with("launch:"))
    });
    let (mut spans, mut instructions) = (0, 0);
    for e in launches {
        spans += 1;
        instructions += e
            .get("args")
            .and_then(|a| u64_at(a, "instructions"))
            .ok_or("a launch span records no instructions")?;
    }
    Ok((spans, instructions))
}

/// Per-item checks: every application is present once per campaign, and
/// each ran on the path its workload is for.
fn check_items(items: &[Item], mode: Mode, expected: &Expected, errors: &mut Vec<String>) {
    if items.len() as u64 != expected.items {
        errors.push(format!(
            "telemetry has {} app records, expected {}",
            items.len(),
            expected.items
        ));
    }
    let instructions: u64 = items.iter().map(|i| i.instructions).sum();
    if instructions != expected.campaign_instructions {
        errors.push(format!(
            "campaign instructions {instructions}, expected {}",
            expected.campaign_instructions
        ));
    }
    let (want_shards, want_cached) = match mode {
        Mode::Cold | Mode::Fill => (1, false),
        Mode::Sharded => (2, false),
        Mode::Warm => (1, true),
    };
    // A fill pass hits the store where a campaign repeats an earlier
    // campaign's configuration, so only its simulated items are checked.
    let wrong_path = items
        .iter()
        .filter(|i| {
            (i.cached && mode != Mode::Fill && !want_cached)
                || (!i.cached && (want_cached || i.shards != want_shards))
        })
        .count();
    if wrong_path > 0 {
        errors.push(format!(
            "{wrong_path} app records did not run the {mode:?} path"
        ));
    }
}

/// The pass's work vector from its telemetry, plus the pivot ablation's
/// derived share.
fn work_of(items: &[Item], campaigns: u64) -> Work {
    let simulated = items.iter().filter(|i| !i.cached);
    Work {
        items: items.len() as u64,
        campaigns,
        launches: simulated.clone().map(|i| i.shards).sum(),
        instructions: simulated.clone().map(|i| i.instructions).sum(),
        dram_requests: simulated.map(|i| i.dram_requests).sum(),
        // The ablation re-runs the main campaign's configuration with only
        // the register pivot changed, which does not change what executes.
        derived_pivot_launches: PIVOT_APPS.len() as u64 * PIVOT_CANDIDATES,
        derived_pivot_instructions: items
            .iter()
            .filter(|i| i.campaign == "main" && PIVOT_APPS.contains(&i.app.as_str()))
            .map(|i| i.instructions)
            .sum::<u64>()
            * PIVOT_CANDIDATES,
        ..Work::default()
    }
}

fn u64_at(v: &Value, key: &str) -> Option<u64> {
    v.get(key)?.as_f64().map(|x| x as u64)
}

/// App records and the campaign-record count of a `--metrics` stream.
pub fn parse_telemetry(text: &str) -> Result<(Vec<Item>, u64), String> {
    let mut items = Vec::new();
    let mut campaigns = 0;
    for line in text.lines() {
        let v = json::parse(line).map_err(|e| format!("bad telemetry line: {e}"))?;
        match v.get("record").and_then(Value::as_str) {
            Some("app") => {
                let timing = v.get("timing").ok_or("app record without timing")?;
                let field = |k: &str| u64_at(&v, k).ok_or(format!("app record lacks {k}"));
                items.push(Item {
                    campaign: v
                        .get("campaign")
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    app: v
                        .get("app")
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    wall_ns: u64_at(timing, "wall_ns").ok_or("timing lacks wall_ns")?,
                    cached: matches!(timing.get("cached"), Some(Value::Bool(true))),
                    shards: u64_at(timing, "shards").ok_or("timing lacks shards")?,
                    instructions: field("instructions")?,
                    dram_requests: field("dram_requests")?,
                });
            }
            Some("campaign") => {
                campaigns += 1;
                if u64_at(&v, "failed") != Some(0) {
                    return Err(format!("campaign record reports failures: {line}"));
                }
            }
            _ => {}
        }
    }
    Ok((items, campaigns))
}

/// `store: H hits, M misses (C corrupt), W writes under DIR` → [H, M, C, W].
pub fn parse_store_line(stderr: &str) -> Option<[u64; 4]> {
    let line = stderr.lines().find(|l| l.starts_with("store: "))?;
    let nums: Vec<u64> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .take(4)
        .map(|s| s.parse().expect("digits"))
        .collect();
    nums.try_into().ok()
}

/// A fresh, empty directory under `work_dir`.
pub fn fresh_dir(work_dir: &Path, name: &str) -> std::io::Result<PathBuf> {
    let dir = work_dir.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_line_parses() {
        let err = "campaign: ...\nstore: 406 hits, 0 misses (0 corrupt), 0 writes under /x/7\n";
        assert_eq!(parse_store_line(err), Some([406, 0, 0, 0]));
        assert_eq!(parse_store_line("nothing here"), None);
    }

    #[test]
    fn telemetry_items_and_work_vector() {
        let text = r#"{"record":"exhibit","id":"x"}
{"record":"app","campaign":"main","app":"OCE","instructions":10,"dram_requests":4,"timing":{"wall_ns":5,"cached":false,"shards":2}}
{"record":"app","campaign":"cap","app":"VAD","instructions":7,"dram_requests":1,"timing":{"wall_ns":9,"cached":true,"shards":1}}
{"record":"campaign","campaign":"main","failed":0}"#;
        let (items, campaigns) = parse_telemetry(text).expect("parses");
        assert_eq!((items.len(), campaigns), (2, 1));
        let w = work_of(&items, campaigns);
        assert_eq!((w.launches, w.derived_pivot_launches), (2, 12));
        assert_eq!((w.instructions, w.derived_pivot_instructions), (10, 3 * 10));
        assert_eq!(w.dram_requests, 4);
        let failed = r#"{"record":"campaign","campaign":"main","failed":1}"#;
        assert!(parse_telemetry(failed).is_err());
    }

    #[test]
    fn trace_launch_spans_count() {
        let trace = r#"{"traceEvents":[
{"name":"launch:0","cat":"gpu","ph":"X","ts":0,"dur":1,"pid":1,"tid":0,"id":"c:main/app:A/launch:0","seq":0,"args":{"instructions":7,"cycles":3}},
{"name":"exec","cat":"gpu","ph":"X","ts":0,"dur":1,"pid":1,"tid":0,"id":"c:main/app:A/launch:0/exec","seq":0,"args":{}},
{"name":"launch:1","cat":"gpu","ph":"X","ts":0,"dur":1,"pid":1,"tid":0,"id":"c:main/app:B/launch:1","seq":0,"args":{"instructions":5,"cycles":3}},
{"name":"app:A","cat":"app","ph":"X","ts":0,"dur":1,"pid":1,"tid":0,"id":"c:main/app:A","seq":0,"args":{}}
],"droppedEvents":0}"#;
        assert_eq!(count_launches(trace), Ok((2, 12)));
        let dropped = trace.replace("\"droppedEvents\":0", "\"droppedEvents\":3");
        assert!(count_launches(&dropped).is_err());
    }
}
