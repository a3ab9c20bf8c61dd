//! Pinned outputs the benchmark checks every pass against
//! (`perfbench/expected.json`): the digest of `reproduce`'s stdout, which
//! is byte-identical across the cold, sharded and warm reproductions, and
//! each paper workload's exact work vector.

use std::collections::BTreeMap;
use std::path::Path;

use bvf_obs::json::{self, Value};

#[derive(Debug, Clone)]
pub struct Expected {
    /// FNV-1a 64 of `reproduce`'s stdout.
    pub stdout_fnv64: u64,
    pub stdout_bytes: u64,
    /// Application results per pass (7 campaigns x 58 applications).
    pub items: u64,
    /// Dynamic instructions of those results, simulated or loaded.
    pub campaign_instructions: u64,
    /// Work vector per paper workload, by counter name.
    pub work: BTreeMap<String, BTreeMap<String, u64>>,
}

fn num(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .map(|x| x as u64)
        .ok_or_else(|| format!("expected.json lacks {key:?}"))
}

impl Expected {
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let digest = v
            .get("stdout_fnv64")
            .and_then(Value::as_str)
            .and_then(|s| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok())
            .ok_or("expected.json lacks a hex \"stdout_fnv64\"")?;
        let mut work = BTreeMap::new();
        if let Some(Value::Object(per)) = v.get("work") {
            for (workload, counts) in per {
                let Value::Object(counts) = counts else {
                    return Err(format!("work.{workload} must be an object"));
                };
                let mut m = BTreeMap::new();
                for (name, n) in counts {
                    let n = n
                        .as_f64()
                        .ok_or_else(|| format!("work.{workload}.{name} must be a number"))?;
                    m.insert(name.clone(), n as u64);
                }
                work.insert(workload.clone(), m);
            }
        }
        Ok(Self {
            stdout_fnv64: digest,
            stdout_bytes: num(&v, "stdout_bytes")?,
            items: num(&v, "items")?,
            campaign_instructions: num(&v, "campaign_instructions")?,
            work,
        })
    }
}
