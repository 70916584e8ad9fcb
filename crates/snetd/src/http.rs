//! A minimal, dependency-free HTTP/1.1 layer for `snetd`.
//!
//! Only the subset the daemon speaks is implemented: request parsing
//! with hard byte limits (oversized headers or bodies are rejected with
//! `413` before the daemon buffers them), fixed-length and chunked
//! responses, and keep-alive with pipelining (the parser consumes
//! exactly one request per call, so back-to-back requests on one socket
//! are answered in order).
//!
//! Everything is synchronous over `std::net::TcpStream`; concurrency is
//! the server's worker pool, not an event loop.

use std::io::{self, BufRead, Write};

/// Default cap on the request head (request line + all headers).
pub const DEFAULT_MAX_HEADER_BYTES: usize = 16 * 1024;
/// Default cap on a request body.
pub const DEFAULT_MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// Configurable request size limits; exceeding either is a `413`.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Max bytes of request line + headers (including CRLFs).
    pub max_header_bytes: usize,
    /// Max bytes of request body (`Content-Length` is checked before
    /// the body is read, so an oversized upload is refused, not
    /// buffered).
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_header_bytes: DEFAULT_MAX_HEADER_BYTES,
            max_body_bytes: DEFAULT_MAX_BODY_BYTES,
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method verbatim (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// Request target verbatim (path, plus query if any).
    pub path: String,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body (empty when there is none).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value under `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Outcome of one [`read_request`] call.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request was parsed.
    Request(Request),
    /// The peer closed the connection cleanly between requests.
    Eof,
    /// A read timeout fired before the first byte of a request — the
    /// connection is idle; the caller decides whether to keep waiting.
    Idle,
}

/// A rejected request: the HTTP status to answer with and why, sent as
/// an `ErrorBody`. [`read_request`] returns one for a malformed or
/// over-limit request (`400`, `413`, `505`, …), after which the server
/// closes the connection. The routes and the job manager return one for
/// a body that does not decode or that they refuse (`422`), a drain
/// (`503`), or an unknown route or job (`404`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    /// HTTP status to answer with.
    pub status: u16,
    /// Human-readable detail for the error body.
    pub message: String,
}

impl HttpError {
    pub(crate) fn new(status: u16, message: impl Into<String>) -> HttpError {
        HttpError { status, message: message.into() }
    }
}

/// Reads exactly one request from `r`.
///
/// Timeouts (`WouldBlock`/`TimedOut`) before the first byte surface as
/// [`ReadOutcome::Idle`]; mid-request they are an error (a stalled peer
/// holding half a request does not get to wedge a worker forever).
/// Byte-limit violations surface as `413`, malformed syntax as `400`,
/// and a non-1.1 version as `505`.
pub fn read_request(r: &mut impl BufRead, limits: &Limits) -> Result<ReadOutcome, HttpError> {
    // --- head: everything up to the blank line, under the byte cap ---
    let mut head: Vec<u8> = Vec::with_capacity(256);
    loop {
        let byte = match read_one(r) {
            Ok(Some(b)) => b,
            Ok(None) => {
                return if head.is_empty() {
                    Ok(ReadOutcome::Eof)
                } else {
                    Err(HttpError::new(400, "connection closed mid-request"))
                };
            }
            Err(e) if is_timeout(&e) => {
                return if head.is_empty() {
                    Ok(ReadOutcome::Idle)
                } else {
                    Err(HttpError::new(408, "timed out mid-request"))
                };
            }
            Err(e) => return Err(HttpError::new(400, format!("read error: {e}"))),
        };
        head.push(byte);
        if head.len() > limits.max_header_bytes {
            return Err(HttpError::new(413, "request head exceeds the byte limit"));
        }
        if head.ends_with(b"\r\n\r\n") {
            break;
        }
        // Be lenient about bare-LF clients (curl never sends them, but
        // the parser should not hang on them).
        if head.ends_with(b"\n\n") {
            break;
        }
    }

    let head_text =
        std::str::from_utf8(&head).map_err(|_| HttpError::new(400, "request head is not UTF-8"))?;
    let mut lines = head_text.split("\r\n").flat_map(|l| l.split('\n')).filter(|l| !l.is_empty());
    let request_line = lines.next().ok_or_else(|| HttpError::new(400, "empty request head"))?;

    // --- request line ---
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("");
    let target = parts.next().ok_or_else(|| HttpError::new(400, "request line lacks a target"))?;
    let version =
        parts.next().ok_or_else(|| HttpError::new(400, "request line lacks a version"))?;
    if parts.next().is_some() {
        return Err(HttpError::new(400, "request line has too many fields"));
    }
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::new(400, format!("malformed method {method:?}")));
    }
    if !target.starts_with('/') {
        return Err(HttpError::new(400, format!("malformed target {target:?}")));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::new(505, format!("unsupported version {version:?}")));
    }

    // --- headers ---
    let mut headers = Vec::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::new(400, format!("malformed header line {line:?}")))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::new(400, format!("malformed header name {name:?}")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    // --- body ---
    let mut body = Vec::new();
    if let Some(te) = headers.iter().find(|(k, _)| k == "transfer-encoding").map(|(_, v)| v) {
        // The daemon never needs chunked *uploads*; refusing them keeps
        // the request parser's memory bound provable from Content-Length
        // alone.
        return Err(HttpError::new(
            411,
            format!("transfer-encoding {te:?} not accepted; send a content-length"),
        ));
    }
    if let Some(cl) = headers.iter().find(|(k, _)| k == "content-length").map(|(_, v)| v.clone()) {
        let len: usize = cl
            .parse()
            .map_err(|_| HttpError::new(400, format!("malformed content-length {cl:?}")))?;
        if len > limits.max_body_bytes {
            return Err(HttpError::new(413, "request body exceeds the byte limit"));
        }
        body.resize(len, 0);
        let mut read = 0;
        while read < len {
            match r.read(&mut body[read..]) {
                Ok(0) => return Err(HttpError::new(400, "connection closed mid-body")),
                Ok(n) => read += n,
                Err(e) if is_timeout(&e) => return Err(HttpError::new(408, "timed out mid-body")),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(HttpError::new(400, format!("read error: {e}"))),
            }
        }
    }

    Ok(ReadOutcome::Request(Request {
        method: method.to_string(),
        path: target.to_string(),
        headers,
        body,
    }))
}

fn read_one(r: &mut impl BufRead) -> io::Result<Option<u8>> {
    let mut byte = [0u8; 1];
    loop {
        match r.read(&mut byte) {
            Ok(0) => return Ok(None),
            Ok(_) => return Ok(Some(byte[0])),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Canonical reason phrase for the statuses the daemon sends.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// The head of a response: status line, `content-type`, the framing
/// header (`content-length` when `body_len` is known, else chunked
/// transfer encoding), any `extra` headers and the blank line.
fn head(
    status: u16,
    content_type: &str,
    body_len: Option<usize>,
    extra: &[(&str, &str)],
) -> Vec<u8> {
    let mut out = Vec::new();
    // Writing into a `Vec` cannot fail.
    let _ = write!(out, "HTTP/1.1 {} {}\r\n", status, status_reason(status));
    let _ = write!(out, "content-type: {content_type}\r\n");
    let _ = match body_len {
        Some(len) => write!(out, "content-length: {len}\r\n"),
        None => write!(out, "transfer-encoding: chunked\r\n"),
    };
    for (k, v) in extra {
        let _ = write!(out, "{k}: {v}\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out
}

/// Writes one fixed-length response (status line, standard headers, any
/// `extra` headers, `Content-Length`, body). Head and body go to `w` in
/// one write: the accept loop sets `TCP_NODELAY`, so each write would
/// leave as a segment of its own.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
    extra: &[(&str, &str)],
) -> io::Result<()> {
    let mut out = head(status, content_type, Some(body.len()), extra);
    out.extend_from_slice(body);
    w.write_all(&out)?;
    w.flush()
}

/// A chunked-transfer-encoding response in progress; each
/// [`ChunkedWriter::chunk`] flushes immediately so ND-JSON progress
/// frames reach the client as they happen, not at job completion. The
/// head and each chunk are one write each.
pub struct ChunkedWriter<'w, W: Write> {
    w: &'w mut W,
    finished: bool,
}

impl<'w, W: Write> ChunkedWriter<'w, W> {
    /// Writes the response head (with `Transfer-Encoding: chunked`) and
    /// returns the body writer.
    pub fn start(
        w: &'w mut W,
        status: u16,
        content_type: &str,
        extra: &[(&str, &str)],
    ) -> io::Result<ChunkedWriter<'w, W>> {
        w.write_all(&head(status, content_type, None, extra))?;
        w.flush()?;
        Ok(ChunkedWriter { w, finished: false })
    }

    /// Sends one chunk (no-op for empty slices — an empty chunk would
    /// terminate the stream).
    pub fn chunk(&mut self, bytes: &[u8]) -> io::Result<()> {
        if bytes.is_empty() {
            return Ok(());
        }
        let mut out = Vec::with_capacity(bytes.len() + 20);
        let _ = write!(out, "{:x}\r\n", bytes.len());
        out.extend_from_slice(bytes);
        out.extend_from_slice(b"\r\n");
        self.w.write_all(&out)?;
        self.w.flush()
    }

    /// Terminates the stream (the zero-length chunk).
    pub fn finish(mut self) -> io::Result<()> {
        self.finished = true;
        self.w.write_all(b"0\r\n\r\n")?;
        self.w.flush()
    }
}

impl<W: Write> Drop for ChunkedWriter<'_, W> {
    fn drop(&mut self) {
        if !self.finished {
            let _ = self.w.write_all(b"0\r\n\r\n");
            let _ = self.w.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> Result<ReadOutcome, HttpError> {
        read_request(&mut BufReader::new(bytes), &Limits::default())
    }

    #[test]
    fn parses_a_get_and_a_post_with_body() {
        let out = parse(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n").unwrap();
        match out {
            ReadOutcome::Request(r) => {
                assert_eq!(r.method, "GET");
                assert_eq!(r.path, "/healthz");
                assert_eq!(r.header("host"), Some("x"));
                assert!(r.body.is_empty());
            }
            other => panic!("expected request, got {other:?}"),
        }
        let out = parse(b"POST /v1/check HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcd").unwrap();
        match out {
            ReadOutcome::Request(r) => assert_eq!(r.body, b"abcd"),
            other => panic!("expected request, got {other:?}"),
        }
    }

    #[test]
    fn eof_between_requests_is_clean() {
        assert!(matches!(parse(b"").unwrap(), ReadOutcome::Eof));
    }

    /// Counts the writes a response takes.
    #[derive(Default)]
    struct Writes {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_one_write_and_each_chunk_is_one() {
        let mut w = Writes::default();
        let extra = [("x-snet-cache", "hit"), ("x-snet-job", "job-1")];
        write_response(&mut w, 200, "application/json", b"{\"a\":1}", &extra).unwrap();
        assert_eq!(w.writes, 1);
        assert_eq!(
            String::from_utf8(w.bytes).unwrap(),
            "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 7\r\n\
             x-snet-cache: hit\r\nx-snet-job: job-1\r\n\r\n{\"a\":1}"
        );
        let mut w = Writes::default();
        let mut cw = ChunkedWriter::start(&mut w, 200, "application/x-ndjson", &[]).unwrap();
        cw.chunk(b"{}\n").unwrap();
        cw.chunk(b"[]\n").unwrap();
        cw.finish().unwrap();
        assert_eq!(w.writes, 4, "head, two chunks, the terminator");
    }

    #[test]
    fn chunked_writer_emits_wellformed_chunks() {
        let mut out = Vec::new();
        {
            let mut cw = ChunkedWriter::start(&mut out, 200, "application/x-ndjson", &[]).unwrap();
            cw.chunk(b"{\"a\":1}\n").unwrap();
            cw.chunk(b"").unwrap(); // must not terminate the stream
            cw.chunk(b"{\"b\":2}\n").unwrap();
            cw.finish().unwrap();
        }
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("transfer-encoding: chunked"));
        assert!(text.ends_with("8\r\n{\"a\":1}\n\r\n8\r\n{\"b\":2}\n\r\n0\r\n\r\n"));
    }
}
