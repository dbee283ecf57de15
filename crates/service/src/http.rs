//! A deliberately small HTTP/1.1 server-side parser over `std::io`.
//!
//! No dependency, no async, no percent-decoding — just enough of RFC
//! 9112 for the sweep service's JSON API, hardened against hostile
//! input with *hard limits on everything* (pinned by
//! `tests/http_hostile.rs`):
//!
//! | limit                | constant            | violation |
//! |----------------------|---------------------|-----------|
//! | method length        | [`MAX_METHOD`]      | 400       |
//! | request-target bytes | [`MAX_TARGET`]      | 414       |
//! | header line bytes    | [`MAX_HEADER_LINE`] | 431       |
//! | header count         | [`MAX_HEADERS`]     | 431       |
//! | body bytes           | [`MAX_BODY`]        | 413       |
//!
//! Bytes outside printable ASCII in the request target (NUL, controls,
//! spaces smuggled via splitting) and malformed chunked framing are
//! rejected with 400 before any routing happens. One request per
//! connection (`Connection: close` on every response) keeps the state
//! machine trivial — this is a lab-bench control plane, not a CDN.

use std::io::{BufRead, Write};

/// Longest accepted request method ("OPTIONS" is 7; 16 leaves slack).
pub const MAX_METHOD: usize = 16;
/// Longest accepted request target (path + query).
pub const MAX_TARGET: usize = 1024;
/// Longest accepted single header line (name + value).
pub const MAX_HEADER_LINE: usize = 8192;
/// Most headers (and, separately, most chunked trailers) accepted.
pub const MAX_HEADERS: usize = 64;
/// Largest accepted request body, summed across chunks when chunked.
pub const MAX_BODY: usize = 1 << 20;

/// Why a request was refused before routing. Each variant maps onto the
/// 4xx the server answers with ([`HttpError::status`]).
#[derive(Debug, Clone, PartialEq)]
pub enum HttpError {
    /// Malformed request line, header, framing, or byte-level garbage.
    BadRequest(String),
    /// Request target longer than [`MAX_TARGET`].
    UriTooLong,
    /// Header line over [`MAX_HEADER_LINE`] or more than [`MAX_HEADERS`].
    HeaderTooLarge,
    /// Declared or actual body over [`MAX_BODY`].
    PayloadTooLarge,
    /// The peer did not deliver its request within the server's deadline.
    Timeout,
    /// The peer closed before sending a complete request line; there is
    /// nobody to answer, so the connection is just dropped.
    Closed,
}

impl HttpError {
    /// `(status code, reason phrase)` for the error response.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            HttpError::BadRequest(_) => (400, "Bad Request"),
            HttpError::UriTooLong => (414, "URI Too Long"),
            HttpError::HeaderTooLarge => (431, "Request Header Fields Too Large"),
            HttpError::PayloadTooLarge => (413, "Payload Too Large"),
            HttpError::Timeout => (408, "Request Timeout"),
            HttpError::Closed => (400, "Bad Request"),
        }
    }

    /// Human-readable detail for the JSON error body.
    pub fn message(&self) -> String {
        match self {
            HttpError::BadRequest(m) => m.clone(),
            HttpError::UriTooLong => format!("request target exceeds {MAX_TARGET} bytes"),
            HttpError::HeaderTooLarge => format!(
                "headers exceed {MAX_HEADERS} fields or {MAX_HEADER_LINE} bytes per line"
            ),
            HttpError::PayloadTooLarge => format!("request body exceeds {MAX_BODY} bytes"),
            HttpError::Timeout => "timed out reading the request".into(),
            HttpError::Closed => "connection closed mid-request".into(),
        }
    }
}

/// One parsed request. Header names are lowercased; the body is fully
/// read (and de-chunked) before routing sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub method: String,
    /// The path component of the target (before any `?`).
    pub path: String,
    /// The raw query string (after `?`), if present.
    pub query: Option<String>,
    /// `(lowercased name, value)` in arrival order.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// `key=value` lookup in the query string (no percent-decoding —
    /// the API's values are ids and numbers).
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.as_deref()?.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == name).then_some(v)
        })
    }
}

/// One `read`, retried when interrupted: a stall past the socket's
/// timeout is [`HttpError::Timeout`], any other failure means the peer
/// is gone.
fn read_some(r: &mut impl BufRead, buf: &mut [u8]) -> Result<usize, HttpError> {
    use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
    loop {
        match r.read(buf) {
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == Interrupted => {}
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut) => return Err(HttpError::Timeout),
            Err(_) => return Err(HttpError::Closed),
        }
    }
}

/// Read one CRLF- (or bare-LF-) terminated line, capped at `max` bytes
/// (terminator excluded); a longer line yields `overflow`.
fn read_line(r: &mut impl BufRead, max: usize, overflow: HttpError) -> Result<String, HttpError> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        if read_some(r, &mut byte)? == 0 {
            return Err(if buf.is_empty() {
                HttpError::Closed
            } else {
                HttpError::BadRequest("unexpected end of request".into())
            });
        }
        if byte[0] == b'\n' {
            break;
        }
        buf.push(byte[0]);
        if buf.len() > max {
            return Err(overflow);
        }
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf).map_err(|_| HttpError::BadRequest("line is not valid UTF-8".into()))
}

/// Fill `buf` from the reader; the peer closing first is a 400 that
/// says `short`.
fn read_full(r: &mut impl BufRead, buf: &mut [u8], short: &str) -> Result<(), HttpError> {
    let mut filled = 0;
    while filled < buf.len() {
        match read_some(r, &mut buf[filled..])? {
            0 => return Err(HttpError::BadRequest(short.into())),
            k => filled += k,
        }
    }
    Ok(())
}

fn is_token(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b))
}

/// Decode a chunked body: bounded hex size lines, CRLF framing enforced
/// after every chunk, total capped at [`MAX_BODY`], trailers read and
/// discarded under the header limits.
fn read_chunked(r: &mut impl BufRead) -> Result<Vec<u8>, HttpError> {
    let mut body = Vec::new();
    loop {
        let line = read_line(
            r,
            256,
            HttpError::BadRequest("chunk size line too long".into()),
        )?;
        let size_str = line.split(';').next().unwrap_or("").trim();
        if size_str.is_empty()
            || size_str.len() > 16
            || !size_str.bytes().all(|b| b.is_ascii_hexdigit())
        {
            return Err(HttpError::BadRequest(format!(
                "malformed chunk size line `{size_str}`"
            )));
        }
        let size = usize::from_str_radix(size_str, 16)
            .map_err(|_| HttpError::BadRequest("malformed chunk size".into()))?;
        if size == 0 {
            break;
        }
        if body.len() + size > MAX_BODY {
            return Err(HttpError::PayloadTooLarge);
        }
        let start = body.len();
        body.resize(start + size, 0);
        read_full(r, &mut body[start..], "body shorter than declared")?;
        let mut crlf = [0u8; 2];
        read_full(r, &mut crlf, "truncated chunk")?;
        if &crlf != b"\r\n" {
            return Err(HttpError::BadRequest(
                "malformed chunked framing (chunk data not CRLF-terminated)".into(),
            ));
        }
    }
    // Trailers: tolerated, bounded, discarded.
    let mut trailers = 0usize;
    loop {
        let line = read_line(r, MAX_HEADER_LINE, HttpError::HeaderTooLarge)?;
        if line.is_empty() {
            break;
        }
        trailers += 1;
        if trailers > MAX_HEADERS {
            return Err(HttpError::HeaderTooLarge);
        }
    }
    Ok(body)
}

/// Parse one complete request (head + body) from the reader, enforcing
/// every limit in the module docs.
pub fn parse_request(r: &mut impl BufRead) -> Result<Request, HttpError> {
    // Request line. The cap is generous enough that a legal line always
    // fits; overflowing it can only mean an oversized target.
    let line = read_line(r, MAX_METHOD + MAX_TARGET + 16, HttpError::UriTooLong)?;
    let mut parts = line.splitn(3, ' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(HttpError::BadRequest(
                "malformed request line (want `METHOD TARGET HTTP/1.1`)".into(),
            ))
        }
    };
    if method.len() > MAX_METHOD || !is_token(method) {
        return Err(HttpError::BadRequest("malformed request method".into()));
    }
    if target.len() > MAX_TARGET {
        return Err(HttpError::UriTooLong);
    }
    if !target.bytes().all(|b| (0x21..=0x7e).contains(&b)) {
        return Err(HttpError::BadRequest(
            "request target contains control or non-ASCII bytes".into(),
        ));
    }
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "unsupported protocol version `{version}`"
        )));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target.to_string(), None),
    };

    // Headers.
    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let line = read_line(r, MAX_HEADER_LINE, HttpError::HeaderTooLarge)?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::HeaderTooLarge);
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest("malformed header line (no `:`)".into()));
        };
        if !is_token(name) {
            return Err(HttpError::BadRequest(format!(
                "malformed header name `{name}`"
            )));
        }
        let value = value.trim();
        if !value.bytes().all(|b| b == b'\t' || (0x20..0x7f).contains(&b)) {
            return Err(HttpError::BadRequest(format!(
                "control bytes in value of header `{name}`"
            )));
        }
        headers.push((name.to_ascii_lowercase(), value.to_string()));
    }
    let req_headers = Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body: Vec::new(),
    };

    // Body.
    let te = req_headers.header("transfer-encoding");
    let cl = req_headers.header("content-length");
    let body = match (te, cl) {
        (Some(_), Some(_)) => {
            return Err(HttpError::BadRequest(
                "both Transfer-Encoding and Content-Length given".into(),
            ))
        }
        (Some(te), None) => {
            if !te.eq_ignore_ascii_case("chunked") {
                return Err(HttpError::BadRequest(format!(
                    "unsupported transfer-encoding `{te}`"
                )));
            }
            read_chunked(r)?
        }
        (None, Some(cl)) => {
            let n: usize = cl
                .parse()
                .map_err(|_| HttpError::BadRequest(format!("bad content-length `{cl}`")))?;
            if n > MAX_BODY {
                return Err(HttpError::PayloadTooLarge);
            }
            let mut body = vec![0; n];
            read_full(r, &mut body, "body shorter than declared")?;
            body
        }
        (None, None) => Vec::new(),
    };
    Ok(Request { body, ..req_headers })
}

/// Serialize a complete response. Every response closes the connection
/// and carries an explicit `Content-Length`.
pub fn response(
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(String, String)],
    body: &[u8],
) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (k, v) in extra_headers {
        out.push_str(&format!("{k}: {v}\r\n"));
    }
    out.push_str("\r\n");
    let mut bytes = out.into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// The head of a chunked response (the caller then writes chunks with
/// [`write_chunk`] and finishes with [`finish_chunked`]).
pub fn chunked_head(status: u16, reason: &str, content_type: &str) -> Vec<u8> {
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    )
    .into_bytes()
}

fn push_chunk(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(format!("{:x}\r\n", payload.len()).as_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(b"\r\n");
}

/// Write one chunk in one `write` (empty payloads are skipped — an empty
/// chunk would terminate the stream).
pub fn write_chunk(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.is_empty() {
        return Ok(());
    }
    let mut out = Vec::with_capacity(payload.len() + 20);
    push_chunk(&mut out, payload);
    w.write_all(&out)?;
    w.flush()
}

/// Write the stream's last chunk and terminate the chunked response, in
/// one `write`.
pub fn finish_chunked(w: &mut impl Write, last: &[u8]) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(last.len() + 25);
    if !last.is_empty() {
        push_chunk(&mut out, last);
    }
    out.extend_from_slice(b"0\r\n\r\n");
    w.write_all(&out)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        parse_request(&mut Cursor::new(bytes.to_vec()))
    }

    #[test]
    fn parses_a_simple_get() {
        let req = parse(b"GET /jobs/1?baseline=2 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/jobs/1");
        assert_eq!(req.query_param("baseline"), Some("2"));
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_content_length_and_chunked_bodies_identically() {
        let plain = parse(b"POST /jobs HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        let chunked = parse(
            b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nhel\r\n2\r\nlo\r\n0\r\n\r\n",
        )
        .unwrap();
        assert_eq!(plain.body, b"hello");
        assert_eq!(chunked.body, b"hello");
    }

    #[test]
    fn rejects_nul_and_controls_in_the_target() {
        assert!(matches!(
            parse(b"GET /jobs/\x001 HTTP/1.1\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse("GET /caf\u{e9} HTTP/1.1\r\n\r\n".as_bytes()),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn rejects_oversized_pieces_with_the_specific_limit_error() {
        let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_TARGET + 1));
        assert_eq!(parse(long_target.as_bytes()), Err(HttpError::UriTooLong));

        let long_header = format!("GET / HTTP/1.1\r\nX-A: {}\r\n\r\n", "b".repeat(MAX_HEADER_LINE));
        assert_eq!(parse(long_header.as_bytes()), Err(HttpError::HeaderTooLarge));

        let many_headers = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            (0..=MAX_HEADERS)
                .map(|i| format!("X-H{i}: v\r\n"))
                .collect::<String>()
        );
        assert_eq!(parse(many_headers.as_bytes()), Err(HttpError::HeaderTooLarge));

        let big_decl = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        assert_eq!(parse(big_decl.as_bytes()), Err(HttpError::PayloadTooLarge));
    }

    #[test]
    fn rejects_malformed_chunked_framing() {
        // Chunk data not CRLF-terminated.
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nhelXX0\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        // Non-hex chunk size.
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        // Chunks summing past the body cap.
        let huge = format!(
            "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n{:x}\r\n",
            MAX_BODY + 1
        );
        assert_eq!(parse(huge.as_bytes()), Err(HttpError::PayloadTooLarge));
    }

    #[test]
    fn rejects_protocol_garbage() {
        assert!(matches!(parse(b"\r\n\r\n"), Err(HttpError::BadRequest(_))));
        assert!(matches!(
            parse(b"GET / SPDY/99\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"G\x7fT / HTTP/1.1\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert_eq!(parse(b""), Err(HttpError::Closed));
    }

    /// Serves `head`, then fails every read with `kind`.
    struct FailsAfter(Cursor<Vec<u8>>, std::io::ErrorKind);

    impl std::io::Read for FailsAfter {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.read(buf)? {
                0 => Err(self.1.into()),
                n => Ok(n),
            }
        }
    }

    #[test]
    fn a_read_error_means_the_same_wherever_it_strikes() {
        use std::io::ErrorKind::{ConnectionReset, TimedOut, WouldBlock};
        // In the request line, in a declared body, in a chunk, and on the
        // CRLF after a chunk's data.
        for head in [
            &b"GET /jo"[..],
            b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhe",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nh",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nhel",
        ] {
            for (kind, want) in [
                (TimedOut, HttpError::Timeout),
                (WouldBlock, HttpError::Timeout),
                (ConnectionReset, HttpError::Closed),
            ] {
                let source = FailsAfter(Cursor::new(head.to_vec()), kind);
                let got = parse_request(&mut std::io::BufReader::new(source));
                assert_eq!(got, Err(want), "{kind:?} after {:?}", String::from_utf8_lossy(head));
            }
        }
    }

    #[test]
    fn a_chunk_and_the_terminator_are_one_write_each() {
        #[derive(Default)]
        struct Writes(Vec<Vec<u8>>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = Writes::default();
        write_chunk(&mut w, b"hello\n").unwrap();
        write_chunk(&mut w, b"").unwrap();
        finish_chunked(&mut w, b"bye\n").unwrap();
        assert_eq!(w.0, [&b"6\r\nhello\n\r\n"[..], b"4\r\nbye\n\r\n0\r\n\r\n"]);
    }

    #[test]
    fn response_bytes_are_well_formed() {
        let bytes = response(202, "Accepted", "application/json", &[], b"{}");
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 202 Accepted\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
