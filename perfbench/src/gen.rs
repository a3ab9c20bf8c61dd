//! The seeded `serve-open` request stream.
//!
//! The seed is the only input: the same seed gives the same bodies in the
//! same order at the same due times, and the server only ever sees the
//! bodies. Each request names 1–3 applications, an SM count from
//! {1, 2, 4} and a scheduler. One request in four, at a seeded position
//! in each block of four, introduces a new body (cold work); the rest
//! repeat an earlier body, so the typical request is a store hit or a
//! single-flight attach and the tail is a cold simulation.
//!
//! Cold bodies are drawn *stratified*: applications come from seeded
//! permutations of the full suite taken in turn, and set sizes and SM
//! counts from shuffled blocks of {1, 2, 3} and {1, 2, 4}. Every seed
//! therefore asks for the same mix of work in a different order and
//! grouping, which keeps the latency tail comparable across seeds.
//!
//! The mix is synthetic: no record of real traffic to this server exists
//! to fit it to. The constants below give the reason for each share; the
//! request rate is derived from a measurement in `serve_open.rs`.

use std::collections::{HashMap, HashSet};

use bvf_sim::serve::protocol;
use bvf_sim::ResultStore;
use bvf_workloads::Application;

/// One request in every block of this many introduces a new body, at a
/// seeded position within the block: a quarter of the stream is cold
/// work, spread evenly instead of in random bursts. With cold requests
/// the slow ones, a quarter puts the median request at the repeats' 67th
/// percentile and the p99 at the cold requests' 96th, each well inside
/// one population, so neither quantile changes population between seeds.
pub const COLD_EVERY: usize = 4;
/// Share of repeats aimed at the most recently introduced body, which is
/// the one most likely to still be simulating. Without it the single-flight
/// layer would go unexercised: a repeat drawn uniformly from hundreds of
/// bodies almost never finds its body's simulation still running. The
/// measured in-flight repeat share and attach ratio are reported per run.
const RECENT_SHARE: f64 = 0.25;

const SCHEDULERS: [&str; 3] = ["gto", "lrr", "two_level"];

/// SplitMix64: a tiny, well-mixed generator whose whole state is the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// One request of the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Due time relative to the start of the stream.
    pub due_ns: u64,
    /// Index of the distinct body this request carries.
    pub body_id: usize,
    /// Whether this request is the body's first occurrence.
    pub first: bool,
}

/// A generated stream: distinct bodies plus the requests that carry them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stream {
    pub bodies: Vec<String>,
    /// Application codes per body, in request order.
    pub body_apps: Vec<Vec<&'static str>>,
    pub requests: Vec<Request>,
}

/// Counts describing a stream, recorded beside its timings.
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    pub requests: usize,
    pub distinct_bodies: usize,
    pub repeat_share: f64,
    pub cold_share: f64,
    /// Distinct result-store keys the stream names: the number of
    /// simulations a server with a fresh store must run.
    pub distinct_keys: usize,
    /// Application results the stream returns (sum of apps per request).
    pub app_results: usize,
}

/// Stratified source of cold bodies.
struct ColdSource {
    apps: Vec<Application>,
    perm: Vec<usize>,
    sizes: Vec<usize>,
    sms: Vec<u32>,
}

impl ColdSource {
    fn new() -> Self {
        Self {
            apps: Application::all(),
            perm: Vec::new(),
            sizes: Vec::new(),
            sms: Vec::new(),
        }
    }

    fn next_app(&mut self, rng: &mut Rng) -> usize {
        if self.perm.is_empty() {
            self.perm = (0..self.apps.len()).collect();
            rng.shuffle(&mut self.perm);
        }
        self.perm.pop().expect("refilled above")
    }

    fn next_body(&mut self, rng: &mut Rng) -> (String, Vec<&'static str>) {
        if self.sizes.is_empty() {
            self.sizes = vec![1, 2, 3];
            rng.shuffle(&mut self.sizes);
        }
        if self.sms.is_empty() {
            self.sms = vec![1, 2, 4];
            rng.shuffle(&mut self.sms);
        }
        let size = self.sizes.pop().expect("refilled above");
        let sms = self.sms.pop().expect("refilled above");
        let scheduler = SCHEDULERS[rng.below(SCHEDULERS.len())];
        let mut picked: Vec<usize> = Vec::with_capacity(size);
        while picked.len() < size {
            let a = self.next_app(rng);
            if !picked.contains(&a) {
                picked.push(a);
            }
        }
        picked.sort_unstable();
        let codes: Vec<&'static str> = picked.iter().map(|&i| self.apps[i].code).collect();
        let quoted: Vec<String> = codes.iter().map(|c| format!("\"{c}\"")).collect();
        let body = format!(
            "{{\"apps\":[{}],\"sms\":{sms},\"scheduler\":\"{scheduler}\"}}",
            quoted.join(",")
        );
        (body, codes)
    }
}

/// Generate `n` requests at `rate` per second (evenly spaced due times).
pub fn generate(seed: u64, n: usize, rate: f64) -> Stream {
    let mut rng = Rng::new(seed);
    let mut cold = ColdSource::new();
    let mut bodies: Vec<String> = Vec::new();
    let mut body_apps = Vec::new();
    let mut seen: HashMap<String, usize> = HashMap::new();
    let mut requests = Vec::with_capacity(n);
    let spacing = 1e9 / rate;
    let mut cold_at = 0;
    for i in 0..n {
        let due_ns = (i as f64 * spacing) as u64;
        if i % COLD_EVERY == 0 {
            cold_at = i + rng.below(COLD_EVERY);
        }
        let want_new = bodies.is_empty() || i == cold_at;
        let (body_id, first) = if want_new {
            let (body, codes) = cold.next_body(&mut rng);
            match seen.get(&body) {
                Some(&id) => (id, false),
                None => {
                    seen.insert(body.clone(), bodies.len());
                    bodies.push(body);
                    body_apps.push(codes);
                    (bodies.len() - 1, true)
                }
            }
        } else if rng.unit() < RECENT_SHARE {
            (bodies.len() - 1, false)
        } else {
            (rng.below(bodies.len()), false)
        };
        requests.push(Request {
            due_ns,
            body_id,
            first,
        });
    }
    Stream {
        bodies,
        body_apps,
        requests,
    }
}

impl Stream {
    /// The stream's shape. Store keys come from the server's own request
    /// parser and key function, so they are exactly the keys it will use.
    pub fn shape(&self) -> Shape {
        let n = self.requests.len();
        let repeats = self.requests.iter().filter(|r| !r.first).count();
        let mut keys = HashSet::new();
        for body in &self.bodies {
            let req = protocol::parse_request(body).expect("generated bodies are valid");
            let mask = req.isa_mask();
            for app in &req.apps {
                keys.insert(ResultStore::key(&req.config, req.arch, mask, app.code));
            }
        }
        let app_results = self
            .requests
            .iter()
            .map(|r| self.body_apps[r.body_id].len())
            .sum();
        Shape {
            requests: n,
            distinct_bodies: self.bodies.len(),
            repeat_share: repeats as f64 / n as f64,
            cold_share: (n - repeats) as f64 / n as f64,
            distinct_keys: keys.len(),
            app_results,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        assert_eq!(generate(7, 400, 100.0), generate(7, 400, 100.0));
        assert_ne!(generate(7, 400, 100.0), generate(8, 400, 100.0));
    }

    #[test]
    fn bodies_parse_and_match_the_stated_shape() {
        let s = generate(3, 2000, 150.0);
        let shape = s.shape();
        assert_eq!(shape.requests, 2000);
        // Duplicate draws turn a few cold slots into repeats.
        let quarter = 1.0 / COLD_EVERY as f64;
        assert!(shape.cold_share <= quarter + 1.0 / 2000.0, "{shape:?}");
        assert!(shape.cold_share > quarter - 0.02, "{shape:?}");
        assert!((shape.repeat_share + shape.cold_share - 1.0).abs() < 1e-12);
        assert!(shape.distinct_keys >= shape.distinct_bodies);
        for (body, apps) in s.bodies.iter().zip(&s.body_apps) {
            let req = protocol::parse_request(body).expect("valid body");
            assert!((1..=3).contains(&req.apps.len()));
            assert!([1, 2, 4].contains(&req.config.sms));
            let codes: Vec<&str> = req.apps.iter().map(|a| a.code).collect();
            assert_eq!(&codes, apps);
        }
        let distinct: HashSet<&String> = s.bodies.iter().collect();
        assert_eq!(distinct.len(), s.bodies.len(), "bodies are deduplicated");
    }

    #[test]
    fn cold_work_is_stratified_across_seeds() {
        // Every seed draws applications a full suite permutation at a
        // time, so per-app counts differ only by the few draws lost to
        // duplicate bodies and to an app repeated within one body.
        for seed in [1, 2, 3] {
            let s = generate(seed, 2000, 150.0);
            let mut count: HashMap<&str, usize> = HashMap::new();
            for apps in &s.body_apps {
                for a in apps {
                    *count.entry(a).or_default() += 1;
                }
            }
            let (lo, hi) = (
                count.values().min().copied().unwrap_or(0),
                count.values().max().copied().unwrap_or(0),
            );
            assert_eq!(count.len(), Application::all().len());
            assert!(hi - lo <= 4, "seed {seed}: {lo}..{hi}");
        }
    }

    #[test]
    fn due_times_are_evenly_spaced() {
        let s = generate(1, 5, 100.0);
        let due: Vec<u64> = s.requests.iter().map(|r| r.due_ns).collect();
        assert_eq!(due, vec![0, 10_000_000, 20_000_000, 30_000_000, 40_000_000]);
    }
}
