//! Open-loop HTTP load: send each request at its due time whatever the
//! server is doing, and time it from that due time to the last body byte.
//!
//! A fixed number of sender threads each own every n-th request. A thread
//! connects and writes a request when it falls due, then multiplexes the
//! replies of all its in-flight requests over non-blocking sockets, so a
//! slow reply never holds back the next send. The server closes each
//! connection after one response, so end of stream is the last byte.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How often a sender wakes to poll its in-flight replies.
const POLL: Duration = Duration::from_micros(500);

/// What happened to one request. Times are nanoseconds from the stream
/// start.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub due_ns: u64,
    /// Connect call returned (the request is written right after).
    pub connected_ns: u64,
    pub first_byte_ns: u64,
    pub last_byte_ns: u64,
    pub status: u16,
    /// Decoded body of a 200 response.
    pub body: String,
    pub error: Option<String>,
    /// When the connect call started, so `connected_ns - send_ns` is the
    /// connect time and `send_ns - due_ns` the generator's lateness.
    pub send_ns: u64,
}

impl Outcome {
    pub fn ok(&self) -> bool {
        self.error.is_none() && self.status == 200
    }

    /// Due time to last byte, in milliseconds; infinite when the request
    /// failed, so a failure counts as over any latency limit.
    pub fn latency_ms(&self) -> f64 {
        if self.ok() {
            (self.last_byte_ns - self.due_ns) as f64 / 1e6
        } else {
            f64::INFINITY
        }
    }
}

struct InFlight {
    idx: usize,
    stream: TcpStream,
    raw: Vec<u8>,
}

/// Send `requests` (due time, body) to `POST /run` on `addr` from
/// `threads` sender threads, returning one outcome per request in order.
pub fn run(
    addr: SocketAddr,
    requests: &[(u64, &str)],
    threads: usize,
    timeout: Duration,
) -> Vec<Outcome> {
    let threads = threads.max(1);
    let t0 = Instant::now();
    let mut out: Vec<Outcome> = vec![Outcome::default(); requests.len()];
    let per_thread: Vec<Vec<(usize, Outcome)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let mine: Vec<usize> = (t..requests.len()).step_by(threads).collect();
                scope.spawn(move || sender(addr, requests, &mine, t0, timeout))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sender threads do not panic"))
            .collect()
    });
    for (idx, o) in per_thread.into_iter().flatten() {
        out[idx] = o;
    }
    out
}

fn since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

fn sender(
    addr: SocketAddr,
    requests: &[(u64, &str)],
    mine: &[usize],
    t0: Instant,
    timeout: Duration,
) -> Vec<(usize, Outcome)> {
    let mut done: Vec<(usize, Outcome)> = Vec::with_capacity(mine.len());
    let mut outcomes: std::collections::HashMap<usize, Outcome> = Default::default();
    let mut flying: Vec<InFlight> = Vec::new();
    let mut next = 0usize;
    let timeout_ns = timeout.as_nanos() as u64;
    let mut buf = vec![0u8; 16 * 1024];
    while next < mine.len() || !flying.is_empty() {
        // Send everything that is due.
        while next < mine.len() && requests[mine[next]].0 <= since(t0) {
            let idx = mine[next];
            next += 1;
            let (due_ns, body) = requests[idx];
            let mut o = Outcome {
                due_ns,
                send_ns: since(t0),
                ..Outcome::default()
            };
            match connect_and_send(addr, body, timeout) {
                Ok(stream) => {
                    o.connected_ns = since(t0);
                    outcomes.insert(idx, o);
                    flying.push(InFlight {
                        idx,
                        stream,
                        raw: Vec::new(),
                    });
                }
                Err(e) => {
                    o.error = Some(format!("send: {e}"));
                    done.push((idx, o));
                }
            }
        }
        // Drain whatever replies have arrived.
        let mut i = 0;
        while i < flying.len() {
            let f = &mut flying[i];
            let o = outcomes.get_mut(&f.idx).expect("registered at send");
            let finished = loop {
                match f.stream.read(&mut buf) {
                    Ok(0) => break Some(None),
                    Ok(n) => {
                        if f.raw.is_empty() {
                            o.first_byte_ns = since(t0);
                        }
                        f.raw.extend_from_slice(&buf[..n]);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break None,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => break Some(Some(format!("read: {e}"))),
                }
            };
            let now = since(t0);
            let finished = finished.or_else(|| {
                (now.saturating_sub(o.due_ns) > timeout_ns).then(|| Some("timed out".to_string()))
            });
            match finished {
                None => i += 1,
                Some(err) => {
                    let f = flying.swap_remove(i);
                    let mut o = outcomes.remove(&f.idx).expect("registered at send");
                    o.last_byte_ns = now;
                    match err {
                        Some(e) => o.error = Some(e),
                        None => match parse_response(&f.raw) {
                            Ok((status, body)) => {
                                o.status = status;
                                o.body = body;
                            }
                            Err(e) => o.error = Some(e),
                        },
                    }
                    done.push((f.idx, o));
                }
            }
        }
        // Sleep until the next send or poll, whichever is first.
        let wait = match mine.get(next) {
            Some(&idx) => Duration::from_nanos(requests[idx].0.saturating_sub(since(t0))),
            None => POLL,
        };
        let wait = if flying.is_empty() {
            wait
        } else {
            wait.min(POLL)
        };
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
    }
    done
}

fn connect_and_send(addr: SocketAddr, body: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_nodelay(true)?;
    let request = format!(
        "POST /run HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

/// Status code and decoded body of a raw HTTP/1.1 response.
pub fn parse_response(raw: &[u8]) -> Result<(u16, String), String> {
    let text = std::str::from_utf8(raw).map_err(|_| "response is not UTF-8".to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("response has no header/body separator")?;
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("unparseable status line")?;
    let chunked = head
        .lines()
        .any(|l| l.eq_ignore_ascii_case("transfer-encoding: chunked"));
    if !chunked {
        return Ok((status, body.to_string()));
    }
    let mut out = String::new();
    let mut rest = body;
    loop {
        let (size, after) = rest.split_once("\r\n").ok_or("truncated chunk size")?;
        let size = usize::from_str_radix(size.trim(), 16).map_err(|_| "bad chunk size")?;
        if size == 0 {
            return Ok((status, out));
        }
        out.push_str(after.get(..size).ok_or("truncated chunk")?);
        rest = after.get(size + 2..).ok_or("unterminated chunk")?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_chunked_and_plain_bodies() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
                    6\r\nline1\n\r\n6\r\nline2\n\r\n0\r\n\r\n";
        assert_eq!(parse_response(raw), Ok((200, "line1\nline2\n".to_string())));
        let raw = b"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 2\r\n\r\nno";
        assert_eq!(parse_response(raw), Ok((429, "no".to_string())));
        assert!(
            parse_response(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n6\r\nli")
                .is_err()
        );
    }

    #[test]
    fn failed_requests_have_infinite_latency() {
        let o = Outcome {
            error: Some("timed out".into()),
            ..Outcome::default()
        };
        assert_eq!(o.latency_ms(), f64::INFINITY);
        let o = Outcome {
            status: 200,
            due_ns: 1_000_000,
            last_byte_ns: 3_500_000,
            ..Outcome::default()
        };
        assert_eq!(o.latency_ms(), 2.5);
    }
}
