//! A `bvf_serve serve` child process: spawn it on a free port, wait until
//! `/metrics` answers, scrape its counters, and stop it with SIGTERM,
//! checking it drains and exits 0.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bvf_sim::serve::client;

const READY_TIMEOUT: Duration = Duration::from_secs(20);
const STOP_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    /// Spawn until the first successful `/metrics` scrape.
    pub setup_s: f64,
    stderr: Option<JoinHandle<String>>,
}

impl Server {
    /// Spawn with a fresh store under `cache` and `workers` workers.
    pub fn spawn(bin: &Path, cache: &Path, workers: usize) -> Result<Self, String> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--workers")
            .arg(workers.to_string())
            .arg("--cache")
            .arg(cache)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("bvf_serve exited before listening".to_string());
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.strip_prefix("bvf-serve listening on ") {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                match addr.parse::<SocketAddr>() {
                    Ok(a) => break a,
                    Err(_) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(format!("unparseable listen line {line:?}"));
                    }
                }
            }
        };
        // Keep draining stderr so the server never blocks on a full pipe;
        // the shutdown summary is checked when the child exits.
        let drain = std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = stderr.read_to_string(&mut rest);
            rest
        });
        let mut server = Self {
            child,
            addr,
            setup_s: 0.0,
            stderr: Some(drain),
        };
        let url = addr.to_string();
        loop {
            if matches!(client::scrape_metrics(&url, Duration::from_secs(2)), Ok(r) if r.status == 200)
            {
                break;
            }
            if t0.elapsed() > READY_TIMEOUT {
                let _ = server.stop();
                return Err("bvf_serve never answered /metrics".to_string());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        server.setup_s = t0.elapsed().as_secs_f64();
        Ok(server)
    }

    /// Scrape `/metrics` into `name{labels} -> value` (validated first).
    pub fn scrape(&self) -> Result<BTreeMap<String, f64>, String> {
        let r = client::scrape_metrics(&self.addr.to_string(), Duration::from_secs(10))
            .map_err(|e| format!("/metrics: {e}"))?;
        if r.status != 200 {
            return Err(format!("/metrics answered {}", r.status));
        }
        bvf_obs::validate_exposition(&r.body)?;
        Ok(parse_exposition(&r.body))
    }

    /// SIGTERM, then wait for a clean drain and exit 0.
    pub fn stop(mut self) -> Result<(), String> {
        let pid = self.child.id().to_string();
        let signalled = Command::new("kill")
            .arg("-TERM")
            .arg(&pid)
            .status()
            .map(|s| s.success())
            .unwrap_or(false);
        let deadline = Instant::now() + STOP_TIMEOUT;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if signalled && Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break None;
                }
            }
        };
        let log = self
            .stderr
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default();
        match status {
            Some(s) if s.success() && log.contains("bvf-serve: clean shutdown") => Ok(()),
            Some(s) => Err(format!("bvf_serve exited with {s} after SIGTERM")),
            None => Err("bvf_serve did not stop after SIGTERM".to_string()),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Only reached when `stop` was not called (an error path): never
        // leave a server behind.
        if let Some(drain) = self.stderr.take() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            let _ = drain.join();
        }
    }
}

/// Prometheus text exposition → `series -> value` (comments skipped).
pub fn parse_exposition(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_series_parse() {
        let text = "# TYPE bvf_serve_requests counter\nbvf_serve_requests 12\n\
                    bvf_serve_queue_wait_ns_bucket{le=\"1024\"} 3\n";
        let m = parse_exposition(text);
        assert_eq!(m["bvf_serve_requests"], 12.0);
        assert_eq!(m["bvf_serve_queue_wait_ns_bucket{le=\"1024\"}"], 3.0);
    }
}
