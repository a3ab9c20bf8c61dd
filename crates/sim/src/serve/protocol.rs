//! The `bvf-serve` wire protocol: JSON request bodies in, JSONL record
//! lines out.
//!
//! A request selects a named [`GpuConfig`] plus optional overrides and an
//! application list; the response body is a deterministic function of the
//! request — an `accepted` record, one scrubbed `app` record per
//! application in request order (see
//! [`crate::metrics::app_record_scrubbed`]), a `failure` record where a
//! worker panicked, and a closing `done` record. Determinism is the
//! contract single-flight relies on: N clients attached to one simulation
//! all receive the same bytes, and those bytes equal what a direct
//! [`Campaign`] run would have produced.

use bvf_gpu::{GpuConfig, SchedulerKind, TraceSummary};
use bvf_isa::Architecture;
use bvf_obs::json::{self, Value};
use bvf_obs::jsonl::Record;
use bvf_workloads::Application;

use crate::campaign::Campaign;
use crate::metrics::app_record_scrubbed;

/// Campaign label stamped on every streamed app record.
pub const CAMPAIGN_LABEL: &str = "serve";

/// Upper bound on a request's `priority` (higher runs sooner).
pub const MAX_PRIORITY: u64 = 1_000_000;
/// Upper bound on the `hold_ms` test hook.
pub const MAX_HOLD_MS: u64 = 10_000;

/// One validated campaign request.
#[derive(Debug, Clone)]
pub struct SimRequest {
    /// Applications to simulate, in request (= response) order.
    pub apps: Vec<Application>,
    /// Fully resolved GPU configuration (named base plus overrides).
    pub config: GpuConfig,
    /// ISA generation for assembly and mask derivation.
    pub arch: Architecture,
    /// Scheduling priority: higher-priority jobs leave the queue first.
    pub priority: u32,
    /// Fault drill: the worker simulating this application code panics.
    pub fault: Option<String>,
    /// Test hook: the worker sleeps this long before touching the store
    /// or simulator, widening the in-flight window so tests can overlap
    /// requests deterministically.
    pub hold_ms: u64,
}

impl SimRequest {
    /// The ISA mask this request derives — part of every result-store key,
    /// so it is also the single-flight identity of each app's work.
    pub fn isa_mask(&self) -> u64 {
        Campaign::derive_isa_mask(self.arch, &self.apps)
    }
}

fn str_field<'a>(v: &'a Value, key: &str) -> Result<Option<&'a str>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::String(s)) => Ok(Some(s)),
        Some(_) => Err(format!("\"{key}\" must be a string")),
    }
}

fn uint_field(v: &Value, key: &str, max: u64) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Number(n)) if n.fract() == 0.0 && *n >= 0.0 && *n <= max as f64 => {
            Ok(Some(*n as u64))
        }
        Some(_) => Err(format!("\"{key}\" must be an integer in 0..={max}")),
    }
}

fn config_by_name(name: &str) -> Result<GpuConfig, String> {
    match name {
        "baseline" => Ok(GpuConfig::baseline()),
        "gtx480" => Ok(GpuConfig::gtx480()),
        "tesla_k80" => Ok(GpuConfig::tesla_k80()),
        "tesla_p100" => Ok(GpuConfig::tesla_p100()),
        other => Err(format!(
            "unknown config {other:?} (expected baseline, gtx480, tesla_k80, or tesla_p100)"
        )),
    }
}

fn arch_by_name(name: &str) -> Result<Architecture, String> {
    match name {
        "fermi" => Ok(Architecture::Fermi),
        "kepler" => Ok(Architecture::Kepler),
        "maxwell" => Ok(Architecture::Maxwell),
        "pascal" => Ok(Architecture::Pascal),
        other => Err(format!(
            "unknown arch {other:?} (expected fermi, kepler, maxwell, or pascal)"
        )),
    }
}

fn scheduler_by_name(name: &str) -> Result<SchedulerKind, String> {
    match name {
        "gto" => Ok(SchedulerKind::Gto),
        "lrr" => Ok(SchedulerKind::Lrr),
        "two_level" => Ok(SchedulerKind::TwoLevel),
        other => Err(format!(
            "unknown scheduler {other:?} (expected gto, lrr, or two_level)"
        )),
    }
}

/// Parse and validate one request body. Every failure is a client error
/// (HTTP 400) whose message names the offending field.
pub fn parse_request(body: &str) -> Result<SimRequest, String> {
    let v = json::parse(body).map_err(|e| format!("request body is not valid JSON: {e}"))?;
    if !matches!(v, Value::Object(_)) {
        return Err("request body must be a JSON object".to_string());
    }

    let Some(Value::Array(app_values)) = v.get("apps") else {
        return Err("\"apps\" must be an array of application codes".to_string());
    };
    if app_values.is_empty() {
        return Err("\"apps\" must name at least one application".to_string());
    }
    if app_values.len() > 64 {
        return Err("\"apps\" lists more than 64 applications".to_string());
    }
    let mut apps = Vec::with_capacity(app_values.len());
    for av in app_values {
        let code = av
            .as_str()
            .ok_or_else(|| "\"apps\" entries must be strings".to_string())?;
        let app = Application::by_code(code)
            .ok_or_else(|| format!("unknown application code {code:?}"))?;
        apps.push(app);
    }

    let mut config = match str_field(&v, "config")? {
        Some(name) => config_by_name(name)?,
        None => GpuConfig::baseline(),
    };
    if let Some(sms) = uint_field(&v, "sms", 128)? {
        if sms == 0 {
            return Err("\"sms\" must be at least 1".to_string());
        }
        config.sms = sms as u32;
    }
    if let Some(name) = str_field(&v, "scheduler")? {
        config.scheduler = scheduler_by_name(name)?;
    }
    let arch = match str_field(&v, "arch")? {
        Some(name) => arch_by_name(name)?,
        None => Architecture::Pascal,
    };
    let priority = uint_field(&v, "priority", MAX_PRIORITY)?.unwrap_or(100) as u32;
    let fault = match str_field(&v, "inject_panic")? {
        Some(code) => {
            if !apps.iter().any(|a| a.code == code) {
                return Err(format!(
                    "\"inject_panic\" names {code:?}, which is not in \"apps\""
                ));
            }
            Some(code.to_string())
        }
        None => None,
    };
    let hold_ms = uint_field(&v, "hold_ms", MAX_HOLD_MS)?.unwrap_or(0);

    Ok(SimRequest {
        apps,
        config,
        arch,
        priority,
        fault,
        hold_ms,
    })
}

/// The opening record of a response body.
pub fn accepted_line(apps: usize, isa_mask: u64) -> String {
    Record::new("accepted")
        .u64("apps", apps as u64)
        .str("isa_mask", &format!("{isa_mask:#018x}"))
        .finish()
}

/// One application whose worker panicked.
pub fn failure_line(app: &str, error: &str) -> String {
    Record::new("failure")
        .str("app", app)
        .str("error", error)
        .finish()
}

/// The closing record of a response body.
pub fn done_line(apps: usize, failed: usize) -> String {
    Record::new("done")
        .u64("apps", apps as u64)
        .u64("failed", failed as u64)
        .finish()
}

/// One streamed per-application result line.
pub fn app_line(app: &Application, summary: &TraceSummary) -> String {
    app_record_scrubbed(CAMPAIGN_LABEL, app, summary)
}

/// The error body for a non-200 response.
pub fn error_body(message: &str) -> String {
    let mut line = Record::new("error").str("error", message).finish();
    line.push('\n');
    line
}

/// Assemble the full response body a server would stream for `req` from a
/// completed direct [`Campaign`] over the same apps — the byte-identity
/// oracle the loopback test and the CI smoke job diff against.
pub fn body_from_campaign(req: &SimRequest, campaign: &Campaign) -> String {
    let mut body = accepted_line(req.apps.len(), campaign.isa_mask);
    body.push('\n');
    let mut failed = 0;
    for app in &req.apps {
        if let Some(r) = campaign.try_result(app.code) {
            body.push_str(&app_line(&r.app, &r.summary));
        } else {
            let failure = campaign
                .failures
                .iter()
                .find(|f| f.app == app.code)
                .expect("every app is a result or a failure");
            failed += 1;
            body.push_str(&failure_line(failure.app, &failure.error));
        }
        body.push('\n');
    }
    body.push_str(&done_line(req.apps.len(), failed));
    body.push('\n');
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn minimal_request_fills_defaults() {
        let r = parse_request(r#"{"apps":["VAD","SGE"]}"#).expect("parses");
        assert_eq!(r.apps.len(), 2);
        assert_eq!(r.config, GpuConfig::baseline());
        assert_eq!(r.arch, Architecture::Pascal);
        assert_eq!(r.priority, 100);
        assert_eq!(r.fault, None);
        assert_eq!(r.hold_ms, 0);
    }

    #[test]
    fn overrides_apply() {
        let r = parse_request(
            r#"{"apps":["VAD"],"config":"gtx480","sms":2,"scheduler":"lrr",
                "arch":"kepler","priority":7,"hold_ms":5}"#,
        )
        .expect("parses");
        assert_eq!(r.config.sms, 2);
        assert_eq!(r.config.scheduler, SchedulerKind::Lrr);
        assert_eq!(r.arch, Architecture::Kepler);
        assert_eq!(r.priority, 7);
        assert_eq!(r.hold_ms, 5);
    }

    #[test]
    fn bad_requests_name_the_field() {
        for (body, needle) in [
            ("[", "not valid JSON"),
            ("[]", "must be a JSON object"),
            ("{}", "\"apps\""),
            (r#"{"apps":[]}"#, "at least one"),
            (r#"{"apps":["NOPE"]}"#, "unknown application"),
            (r#"{"apps":[3]}"#, "must be strings"),
            (r#"{"apps":["VAD"],"config":"titan"}"#, "unknown config"),
            (r#"{"apps":["VAD"],"sms":0}"#, "at least 1"),
            (r#"{"apps":["VAD"],"sms":-3}"#, "\"sms\""),
            (
                r#"{"apps":["VAD"],"scheduler":"fifo"}"#,
                "unknown scheduler",
            ),
            (r#"{"apps":["VAD"],"arch":"volta"}"#, "unknown arch"),
            (r#"{"apps":["VAD"],"priority":1000001}"#, "\"priority\""),
            (r#"{"apps":["VAD"],"hold_ms":99999}"#, "\"hold_ms\""),
            (
                r#"{"apps":["VAD"],"inject_panic":"SGE"}"#,
                "not in \"apps\"",
            ),
        ] {
            let err = parse_request(body).expect_err(body);
            assert!(err.contains(needle), "{body}: {err:?} lacks {needle:?}");
        }
    }

    #[test]
    fn depth_bombs_are_errors_not_crashes() {
        // The satellite depth-limit fix, exercised through the server's
        // own entry point: a hostile body must fail cleanly.
        let bomb = "[".repeat(50_000);
        let err = parse_request(&bomb).expect_err("bomb rejected");
        assert!(err.contains("not valid JSON"), "{err}");
    }

    #[test]
    fn isa_mask_depends_on_the_whole_app_set() {
        let one = parse_request(r#"{"apps":["VAD"]}"#).expect("parses");
        let two = parse_request(r#"{"apps":["VAD","SGE"]}"#).expect("parses");
        assert_ne!(
            one.isa_mask(),
            two.isa_mask(),
            "mask derivation must see the request's full corpus"
        );
    }

    /// Decode a valid request body from a seed stream: 1–4 suite apps and
    /// each optional field present or absent, with in-range values.
    fn valid_body(seed: &[u32]) -> String {
        let suite = Application::all();
        let mut w = seed.iter().copied().cycle();
        let mut next = || w.next().unwrap_or(0);
        let apps: Vec<&str> = (0..1 + next() % 4)
            .map(|_| suite[next() as usize % suite.len()].code)
            .collect();
        let quoted: Vec<String> = apps.iter().map(|c| format!("\"{c}\"")).collect();
        let mut body = format!("{{\"apps\": [{}]", quoted.join(","));
        let present = next();
        let fields: [(&str, String); 7] = [
            (
                "config",
                format!(
                    "\"{}\"",
                    ["baseline", "gtx480", "tesla_k80", "tesla_p100"][next() as usize % 4]
                ),
            ),
            ("sms", (1 + next() % 128).to_string()),
            (
                "scheduler",
                format!("\"{}\"", ["gto", "lrr", "two_level"][next() as usize % 3]),
            ),
            (
                "arch",
                format!(
                    "\"{}\"",
                    ["fermi", "kepler", "maxwell", "pascal"][next() as usize % 4]
                ),
            ),
            (
                "priority",
                (u64::from(next()) % (MAX_PRIORITY + 1)).to_string(),
            ),
            (
                "hold_ms",
                (u64::from(next()) % (MAX_HOLD_MS + 1)).to_string(),
            ),
            (
                "inject_panic",
                format!("\"{}\"", apps[next() as usize % apps.len()]),
            ),
        ];
        for (i, (key, value)) in fields.iter().enumerate() {
            if present >> i & 1 == 1 {
                body.push_str(&format!(", \"{key}\": {value}"));
            }
        }
        body.push('}');
        body
    }

    proptest! {
        /// Arbitrary text is answered with `Ok` or `Err`, never a panic.
        #[test]
        fn random_bodies_never_panic(raw in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = parse_request(&String::from_utf8_lossy(&raw));
        }

        /// A generated valid body parses, and every strict prefix of it —
        /// never a complete JSON object — is an error.
        #[test]
        fn valid_bodies_parse_and_truncations_fail(
            seed in proptest::collection::vec(any::<u32>(), 1..16),
            cut: u64,
        ) {
            let body = valid_body(&seed);
            prop_assert!(parse_request(&body).is_ok(), "{body} rejected");
            let cut = (cut % body.len() as u64) as usize;
            prop_assert!(parse_request(&body[..cut]).is_err(), "prefix {cut} of {body} parsed");
        }

        /// Flipping any single bit of a valid body never panics.
        #[test]
        fn bit_flips_never_panic(
            seed in proptest::collection::vec(any::<u32>(), 1..16),
            bit: u64,
        ) {
            let mut raw = valid_body(&seed).into_bytes();
            let bit = (bit % (raw.len() as u64 * 8)) as usize;
            raw[bit / 8] ^= 1 << (bit % 8);
            let _ = parse_request(&String::from_utf8_lossy(&raw));
        }
    }
}
