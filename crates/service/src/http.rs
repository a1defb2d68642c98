//! The plain-HTTP shim shared by every HTTP surface of the workspace:
//! the daemon's `/metrics` listener, the fleet collector's
//! `/metrics` + `/trace/<id>` endpoint, and the load generator's
//! scraper.
//!
//! Each exchange is one `GET` on its own connection: the server reads
//! the request head, answers with a `Content-Length`-framed body and
//! `Connection: close`, and the client reads to end of stream. Routing
//! stays with each listener; only the framing lives here.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Request heads past this size are cut off: a `GET` has no body worth
/// waiting for.
const MAX_HEAD_BYTES: usize = 4096;

/// How long a server waits for a request head before giving up.
const HEAD_TIMEOUT: Duration = Duration::from_secs(5);

/// How long [`get`] waits for the reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Reads one request head from `stream` (up to the blank line, end of
/// stream or the 4 KiB cap) and returns its request target, e.g.
/// `/metrics`; empty when the request line has none. `None` when the
/// read fails or times out — the caller then drops the connection
/// unanswered.
pub fn read_request_target(stream: &mut TcpStream) -> Option<String> {
    let _ = stream.set_read_timeout(Some(HEAD_TIMEOUT));
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() >= MAX_HEAD_BYTES {
                    break;
                }
            }
            Err(_) => return None,
        }
    }
    let head = String::from_utf8_lossy(&head);
    let target = head
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .nth(1)
        .unwrap_or("");
    Some(target.to_string())
}

/// Writes one complete response (`status` is e.g. `200 OK`) and lets
/// the caller close the connection. A peer that hung up is ignored: the
/// answer has nobody left to read it.
pub fn write_response(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
}

/// Sends `GET target` to `addr` and returns the reply's status line
/// (e.g. `HTTP/1.1 200 OK`) and body.
///
/// # Errors
///
/// Connect, write or read failure (including the 10 s read timeout),
/// or a reply without a header/body separator.
pub fn get(addr: impl ToSocketAddrs, target: &str) -> io::Result<(String, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: bfdn\r\nConnection: close\r\n\r\n"
    )?;
    let mut reply = String::new();
    stream.read_to_string(&mut reply)?;
    let (head, body) = reply
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::other("HTTP reply has no body"))?;
    let status = head.lines().next().unwrap_or("").to_string();
    Ok((status, body.to_string()))
}
