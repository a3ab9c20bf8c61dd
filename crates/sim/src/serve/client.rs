//! A minimal HTTP/1.1 client for `bvf-serve`: the load generator, the CI
//! smoke job, and the loopback tests all talk to the server through this —
//! no external `curl` dependency and one shared implementation of chunked
//! decoding.
//!
//! The server closes every connection after one response, so the client
//! reads to EOF and then parses: status line, headers, then either a
//! `Content-Length` or `Transfer-Encoding: chunked` body.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One parsed response.
#[derive(Debug)]
pub struct Response {
    /// The HTTP status code.
    pub status: u16,
    /// Header `(name, value)` pairs in wire order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The decoded body (chunk framing stripped).
    pub body: String,
}

impl Response {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Issue one request and read the full response. `timeout` bounds both the
/// connect and every socket read — a wedged server fails the caller
/// instead of hanging it.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> std::io::Result<Response> {
    let addr = addr
        .parse::<std::net::SocketAddr>()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

/// POST a campaign request body to `/run`.
pub fn post_run(addr: &str, body: &str, timeout: Duration) -> std::io::Result<Response> {
    request(addr, "POST", "/run", body, timeout)
}

/// GET `/metrics`.
pub fn scrape_metrics(addr: &str, timeout: Duration) -> std::io::Result<Response> {
    request(addr, "GET", "/metrics", "", timeout)
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

/// Parse one complete response read to EOF: status line, headers, then a
/// `Content-Length` or chunked body. For callers that drive the socket
/// themselves.
pub fn parse_response(raw: &[u8]) -> std::io::Result<Response> {
    let text = std::str::from_utf8(raw).map_err(|_| bad("response is not UTF-8"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| bad("response has no header/body separator"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty response"))?;
    let mut parts = status_line.splitn(3, ' ');
    if !matches!(parts.next(), Some(v) if v.starts_with("HTTP/1.")) {
        return Err(bad("not an HTTP/1.x status line"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("unparseable status code"))?;
    let mut headers = Vec::new();
    let mut chunked = false;
    let mut content_length = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad("header line has no colon"));
        };
        let name = name.to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "transfer-encoding" && value.eq_ignore_ascii_case("chunked") {
            chunked = true;
        }
        if name == "content-length" {
            content_length = Some(
                value
                    .parse::<usize>()
                    .map_err(|_| bad("unparseable Content-Length"))?,
            );
        }
        headers.push((name, value));
    }
    let body = if chunked {
        decode_chunked(body)?
    } else if let Some(len) = content_length {
        body.get(..len)
            .ok_or_else(|| bad("body shorter than Content-Length"))?
            .to_string()
    } else {
        body.to_string()
    };
    Ok(Response {
        status,
        headers,
        body,
    })
}

fn decode_chunked(mut rest: &str) -> std::io::Result<String> {
    let mut out = String::new();
    loop {
        let (size_line, after) = rest
            .split_once("\r\n")
            .ok_or_else(|| bad("chunk stream truncated before a size line"))?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| bad("unparseable chunk size"))?;
        if size == 0 {
            return Ok(out);
        }
        let data = after
            .get(..size)
            .ok_or_else(|| bad("chunk shorter than its size line"))?;
        out.push_str(data);
        rest = after
            .get(size + 2..)
            .ok_or_else(|| bad("chunk not terminated by CRLF"))?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_plain_response() {
        let raw = b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\n\
                    Content-Length: 5\r\n\r\nhello";
        let r = parse_response(raw).expect("parses");
        assert_eq!(r.status, 429);
        assert_eq!(r.header("retry-after"), Some("1"));
        assert_eq!(r.header("Retry-After"), Some("1"));
        assert_eq!(r.body, "hello");
    }

    #[test]
    fn decodes_a_chunked_body() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
                    6\r\nline1\n\r\n6\r\nline2\n\r\n0\r\n\r\n";
        let r = parse_response(raw).expect("parses");
        assert_eq!(r.body, "line1\nline2\n");
    }

    #[test]
    fn truncated_chunk_streams_are_errors() {
        for raw in [
            &b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n6\r\nlin"[..],
            &b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n"[..],
            &b"HTTP/1.1 200 OK\r\nno separator"[..],
        ] {
            assert!(parse_response(raw).is_err());
        }
    }
}
