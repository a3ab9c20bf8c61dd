//! A minimal HTTP/1.1 server-side codec over [`TcpStream`].
//!
//! Covers exactly what `bvf-serve` needs and nothing more: parse one
//! request (method, path, headers, `Content-Length` body) with hard size
//! limits — the peer is untrusted — and write either a plain response or a
//! `Transfer-Encoding: chunked` stream, one JSONL line per chunk. Every
//! response carries `Connection: close`: one request per connection keeps
//! the server's concurrency story (one handler thread per connection, no
//! keep-alive bookkeeping) trivial to reason about.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Hard cap on the request line plus all header bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Hard cap on the request body. Campaign requests are a few hundred
/// bytes; anything near this limit is garbage or abuse.
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ... (uppercased by the client, echoed verbatim).
    pub method: String,
    /// The request target, e.g. `/run`.
    pub path: String,
    /// The body (empty when the request carried none).
    pub body: String,
}

/// Why a request could not be parsed, mapped to the status the handler
/// should answer with.
#[derive(Debug)]
pub enum RequestError {
    /// Head or body exceeded its limit → 413.
    TooLarge,
    /// Not parseable as HTTP/1.1 → 400.
    Malformed(&'static str),
    /// The socket failed mid-read; no response is possible.
    Io(std::io::Error),
}

/// Read one request from `stream`.
///
/// For a socket, the caller is expected to have set a read timeout: a
/// peer that opens a connection and never finishes its head would
/// otherwise pin a handler thread forever.
pub fn read_request<R: Read>(stream: &mut R) -> Result<Request, RequestError> {
    let mut reader = BufReader::new(stream);
    let mut head_bytes = 0usize;
    // Each line is read through `take` with the rest of the head budget
    // plus one byte, so a peer that never sends a newline is cut off at
    // the cap instead of growing the line without bound. The size check
    // comes before the UTF-8 check: an oversized head is `TooLarge`
    // whatever its bytes.
    let mut read_line = |reader: &mut BufReader<&mut R>| -> Result<String, RequestError> {
        let budget = (MAX_HEAD_BYTES - head_bytes + 1) as u64;
        let mut raw = Vec::new();
        let n = reader
            .by_ref()
            .take(budget)
            .read_until(b'\n', &mut raw)
            .map_err(RequestError::Io)?;
        if n == 0 {
            return Err(RequestError::Malformed("connection closed mid-request"));
        }
        head_bytes += n;
        if head_bytes > MAX_HEAD_BYTES {
            return Err(RequestError::TooLarge);
        }
        String::from_utf8(raw)
            .map_err(|e| RequestError::Io(std::io::Error::new(std::io::ErrorKind::InvalidData, e)))
    };

    let line = read_line(&mut reader)?;
    let request_line = line.trim_end_matches(['\r', '\n']);
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(RequestError::Malformed("empty request line"))?
        .to_string();
    let path = parts
        .next()
        .ok_or(RequestError::Malformed("request line has no target"))?
        .to_string();
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        _ => return Err(RequestError::Malformed("not an HTTP/1.x request")),
    }

    let mut content_length = 0usize;
    loop {
        let line = read_line(&mut reader)?;
        let header = line.trim_end_matches(['\r', '\n']);
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(RequestError::Malformed("header line has no colon"));
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| RequestError::Malformed("unparseable Content-Length"))?;
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // Accepting chunked *requests* would mean trusting the peer's
            // framing for an unbounded body; nothing this server serves
            // needs one.
            return Err(RequestError::Malformed(
                "chunked request bodies unsupported",
            ));
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(RequestError::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(RequestError::Io)?;
    let body = String::from_utf8(body).map_err(|_| RequestError::Malformed("body is not UTF-8"))?;
    Ok(Request { method, path, body })
}

/// Write a complete (non-chunked) response and flush it.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    extra_headers: &[(&str, &str)],
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// An in-progress `Transfer-Encoding: chunked` response body. Each line
/// goes out as its own chunk the moment it exists, so a client sees
/// per-application results while later applications are still simulating.
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedWriter<'a> {
    /// Write the status line and headers, committing to a chunked body.
    pub fn begin(
        stream: &'a mut TcpStream,
        status: u16,
        reason: &str,
        content_type: &str,
    ) -> std::io::Result<Self> {
        let head = format!(
            "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
             Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
        );
        stream.write_all(head.as_bytes())?;
        stream.flush()?;
        Ok(Self { stream })
    }

    /// Send `line` plus a trailing newline as one chunk.
    pub fn line(&mut self, line: &str) -> std::io::Result<()> {
        let chunk = format!("{:x}\r\n{line}\n\r\n", line.len() + 1);
        self.stream.write_all(chunk.as_bytes())?;
        self.stream.flush()
    }

    /// Terminate the chunk stream.
    pub fn finish(self) -> std::io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const METHODS: [&str; 4] = ["GET", "POST", "PUT", "DELETE"];

    /// A well-formed request: `path` and `body` are printable ASCII, and
    /// `headers` are `(name letter, value length)` pairs padded with `v`.
    fn valid_request(method: usize, path: &[u8], headers: &[(u8, usize)], body: &[u8]) -> Vec<u8> {
        let mut raw = format!(
            "{} /{} HTTP/1.1\r\nContent-Length: {}\r\n",
            METHODS[method],
            String::from_utf8_lossy(path),
            body.len()
        );
        for &(name, len) in headers {
            raw.push_str(&format!(
                "X-{}: {}\r\n",
                char::from(b'a' + name),
                "v".repeat(len)
            ));
        }
        raw.push_str("\r\n");
        let mut raw = raw.into_bytes();
        raw.extend_from_slice(body);
        raw
    }

    fn parse(mut raw: &[u8]) -> Result<Request, RequestError> {
        read_request(&mut raw)
    }

    proptest! {
        /// Arbitrary bytes are answered with `Ok` or `Err`, never a panic.
        #[test]
        fn random_bytes_never_panic(raw in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = parse(&raw);
        }

        /// A valid request parses back to its parts, and every strict
        /// prefix of it is an error: the peer closed mid-request.
        #[test]
        fn valid_requests_parse_and_truncations_fail(
            method in 0usize..4,
            path in proptest::collection::vec(b'!'..=b'~', 0..48),
            headers in proptest::collection::vec((0u8..26, 0usize..64), 0..8),
            body in proptest::collection::vec(b' '..=b'~', 0..256),
            cut: u64,
        ) {
            let raw = valid_request(method, &path, &headers, &body);
            let request = parse(&raw).expect("a valid request parses");
            prop_assert_eq!(request.method.as_str(), METHODS[method]);
            prop_assert_eq!(request.path.as_bytes(), [b"/", &path[..]].concat().as_slice());
            prop_assert_eq!(request.body.as_bytes(), body.as_slice());
            let cut = (cut % raw.len() as u64) as usize;
            prop_assert!(parse(&raw[..cut]).is_err(), "prefix of {cut} bytes parsed");
        }

        /// Flipping any single bit of a valid request never panics.
        #[test]
        fn bit_flips_never_panic(
            path in proptest::collection::vec(b'!'..=b'~', 0..48),
            headers in proptest::collection::vec((0u8..26, 0usize..64), 0..8),
            body in proptest::collection::vec(b' '..=b'~', 0..256),
            bit: u64,
        ) {
            let mut raw = valid_request(1, &path, &headers, &body);
            let bit = (bit % (raw.len() as u64 * 8)) as usize;
            raw[bit / 8] ^= 1 << (bit % 8);
            let _ = parse(&raw);
        }

        /// A head over `MAX_HEAD_BYTES` is `TooLarge`, whether one line or
        /// many carry it.
        #[test]
        fn oversized_heads_are_too_large(
            lines in 1usize..64,
            excess in 1usize..4096,
        ) {
            let pad = (MAX_HEAD_BYTES + excess) / lines + 1;
            let headers = vec![(0u8, pad); lines];
            let raw = valid_request(0, b"", &headers, b"");
            prop_assert!(matches!(parse(&raw), Err(RequestError::TooLarge)));
        }

        /// A `Content-Length` over `MAX_BODY_BYTES` is `TooLarge` before
        /// any body byte is read.
        #[test]
        fn oversized_bodies_are_too_large(
            length in (MAX_BODY_BYTES as u64 + 1)..(1 << 40),
            sent in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let mut raw =
                format!("POST /run HTTP/1.1\r\nContent-Length: {length}\r\n\r\n").into_bytes();
            raw.extend_from_slice(&sent);
            prop_assert!(matches!(parse(&raw), Err(RequestError::TooLarge)));
        }
    }

    /// A peer streaming head bytes with no newline is cut off at the head
    /// budget: `TooLarge` after pulling at most the budget, one byte and
    /// one `BufReader` fill — not a line buffered without bound.
    #[test]
    fn endless_line_is_too_large_within_the_budget() {
        /// Yields `a` forever (a 1 MiB guard stops a regression from
        /// exhausting memory instead of failing the bound below).
        struct Endless(usize);
        impl Read for Endless {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = buf.len().min((1 << 20) - self.0);
                buf[..n].fill(b'a');
                self.0 += n;
                Ok(n)
            }
        }
        const BUF_READER_CAPACITY: usize = 8 * 1024;
        for prefix in [&b""[..], b"GET / HTTP/1.1\r\nX-a: "] {
            let mut peer = prefix.chain(Endless(0));
            assert!(matches!(
                read_request(&mut peer),
                Err(RequestError::TooLarge)
            ));
            let pulled = prefix.len() + peer.into_inner().1 .0;
            assert!(
                pulled <= MAX_HEAD_BYTES + 1 + BUF_READER_CAPACITY,
                "pulled {pulled} bytes"
            );
        }
    }
}
