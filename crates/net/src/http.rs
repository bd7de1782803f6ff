//! Incremental, bounds-checked HTTP/1.1 message handling.
//!
//! The parser is a byte-at-a-time-safe state machine: callers feed it
//! whatever the socket produced (one byte or sixty kilobytes) and it
//! returns a complete [`Request`] as soon as one is buffered, keeping
//! any pipelined surplus for the next call. Every phase is bounded —
//! an over-long request line or header block fails with 431, an
//! oversized declared body with 413, and anything structurally invalid
//! with 400 — so no peer can make the server buffer without limit.

use covidkg_serve::Entry;
use std::borrow::Cow;
use std::io::Write;
use std::sync::Arc;

/// Longest accepted request line (method + target + version).
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Cap on the total header block (all lines + terminator).
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Cap on individual header count.
pub const MAX_HEADERS: usize = 64;
/// Largest accepted body, whether declared via `Content-Length` or
/// accumulated across `Transfer-Encoding: chunked` chunks.
pub const MAX_BODY_BYTES: usize = 64 * 1024;
/// Longest accepted chunk-size line (hex size + optional extensions).
pub const MAX_CHUNK_LINE: usize = 64;

/// A fully parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method token, e.g. `GET`.
    pub method: String,
    /// Origin-form target as sent: path plus optional `?query`.
    pub target: String,
    /// `true` for HTTP/1.1, `false` for HTTP/1.0.
    pub http11: bool,
    /// Header `(name, value)` pairs in arrival order; names unchanged.
    pub headers: Vec<(String, String)>,
    /// The `Content-Length` body (empty when none was declared).
    pub body: Vec<u8>,
}

impl Request {
    /// Path component of the target (before any `?`).
    pub fn path(&self) -> &str {
        match self.target.split_once('?') {
            Some((p, _)) => p,
            None => &self.target,
        }
    }

    /// Raw query string (after `?`), if any.
    pub fn query(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, q)| q)
    }

    /// First header with this name, compared case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection must close after this request: explicit
    /// `Connection: close`, or HTTP/1.0 without `keep-alive`.
    pub fn wants_close(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => true,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => false,
            _ => !self.http11,
        }
    }

    /// Value of the first query parameter named `name`. Plus signs and
    /// `%XX` escapes are decoded, in the name too; malformed escapes pass
    /// through as-is. Only the pair asked for is decoded.
    pub fn query_param(&self, name: &str) -> Option<String> {
        self.query()?.split('&').find_map(|kv| {
            let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
            let named = k == name || (k.contains(['%', '+']) && percent_decode(k) == name);
            named.then(|| percent_decode(v))
        })
    }
}

/// Decode `+` and `%XX` sequences (the browser/query-string convention).
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                // `bytes.get` bounds-checks: a '%' within two bytes of
                // the end has no full escape and passes through as-is.
                let hex = bytes.get(i + 1..i + 3);
                match hex.and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Typed parse failures, each carrying its HTTP status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Request line exceeded [`MAX_REQUEST_LINE`] → 431.
    RequestLineTooLong,
    /// Header block exceeded [`MAX_HEADER_BYTES`] / [`MAX_HEADERS`] → 431.
    HeadersTooLarge,
    /// Declared `Content-Length` exceeded [`MAX_BODY_BYTES`] → 413.
    BodyTooLarge,
    /// Structurally invalid request line → 400.
    BadRequestLine(String),
    /// Structurally invalid header line → 400.
    BadHeader(String),
    /// Unparseable or conflicting `Content-Length` → 400.
    BadContentLength,
    /// Malformed chunked framing (bad size line, missing CRLF after
    /// chunk data, over-long size line) → 400.
    BadChunk,
    /// A `Transfer-Encoding` other than plain `chunked` is recognized
    /// but not implemented → 501. Distinct from malformed input: the
    /// request is well-formed HTTP, this server just doesn't decode
    /// such bodies.
    UnsupportedTransferEncoding,
}

impl ParseError {
    /// The response status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            ParseError::RequestLineTooLong | ParseError::HeadersTooLarge => 431,
            ParseError::BodyTooLarge => 413,
            ParseError::BadRequestLine(_)
            | ParseError::BadHeader(_)
            | ParseError::BadContentLength
            | ParseError::BadChunk => 400,
            ParseError::UnsupportedTransferEncoding => 501,
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::RequestLineTooLong => write!(f, "request line too long"),
            ParseError::HeadersTooLarge => write!(f, "header block too large"),
            ParseError::BodyTooLarge => write!(f, "declared body too large"),
            ParseError::BadRequestLine(l) => write!(f, "malformed request line: {l:?}"),
            ParseError::BadHeader(l) => write!(f, "malformed header: {l:?}"),
            ParseError::BadContentLength => write!(f, "bad content-length"),
            ParseError::BadChunk => write!(f, "malformed chunked framing"),
            ParseError::UnsupportedTransferEncoding => {
                write!(f, "transfer-encoding not supported")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Everything parsed before the body: request line + header block.
#[derive(Debug, Default)]
struct Head {
    method: String,
    target: String,
    http11: bool,
    headers: Vec<(String, String)>,
}

impl Head {
    fn into_request(self, body: Vec<u8>) -> Request {
        Request {
            method: self.method,
            target: self.target,
            http11: self.http11,
            headers: self.headers,
            body,
        }
    }
}

#[derive(Debug)]
enum Phase {
    /// Waiting for the CRLF ending the request line.
    Line,
    /// Request line parsed; collecting header lines.
    Headers {
        head: Head,
        /// Bytes of header block consumed so far (for the 431 bound).
        header_bytes: usize,
    },
    /// Headers done; waiting for `needed` `Content-Length` body bytes.
    Body { head: Head, needed: usize },
    /// Chunked body: waiting for the CRLF-terminated hex size line.
    ChunkSize { head: Head, body: Vec<u8> },
    /// Chunked body: waiting for `needed` data bytes plus their CRLF.
    ChunkData {
        head: Head,
        body: Vec<u8>,
        needed: usize,
    },
    /// Terminal chunk seen; discarding trailer lines until the blank.
    ChunkTrailer {
        head: Head,
        body: Vec<u8>,
        /// Bytes of trailer block consumed so far (431 bound, same
        /// budget as the header block).
        trailer_bytes: usize,
    },
    /// A previous feed errored; the connection is poisoned.
    Failed,
}

/// Incremental request parser. Feed arbitrary byte chunks; complete
/// requests pop out in order, surplus bytes carry over.
#[derive(Debug)]
pub struct Parser {
    buf: Vec<u8>,
    phase: Phase,
}

impl Default for Parser {
    fn default() -> Parser {
        Parser::new()
    }
}

impl Parser {
    /// A parser at the start of a request.
    pub fn new() -> Parser {
        Parser {
            buf: Vec::new(),
            phase: Phase::Line,
        }
    }

    /// True when no partial request is buffered (safe to idle-reap the
    /// connection without losing anything).
    pub fn is_idle(&self) -> bool {
        matches!(self.phase, Phase::Line) && self.buf.is_empty()
    }

    /// Feed `bytes`; returns a complete request as soon as one is
    /// buffered (`Ok(None)` = need more input). After an `Err` the
    /// parser is poisoned — the connection must be closed, since byte
    /// framing can no longer be trusted.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Option<Request>, ParseError> {
        if matches!(self.phase, Phase::Failed) {
            return Err(ParseError::BadRequestLine("parser poisoned".into()));
        }
        self.buf.extend_from_slice(bytes);
        match self.drive() {
            Ok(out) => Ok(out),
            Err(e) => {
                self.phase = Phase::Failed;
                self.buf.clear();
                Err(e)
            }
        }
    }

    fn drive(&mut self) -> Result<Option<Request>, ParseError> {
        loop {
            match &mut self.phase {
                Phase::Failed => unreachable!("checked in feed"),
                Phase::Line => {
                    let Some(line_end) = find_crlf(&self.buf, MAX_REQUEST_LINE) else {
                        if self.buf.len() > MAX_REQUEST_LINE {
                            return Err(ParseError::RequestLineTooLong);
                        }
                        return Ok(None);
                    };
                    let line = self.buf.drain(..line_end + 2).collect::<Vec<u8>>();
                    let line = &line[..line_end];
                    // Be lenient to one stray CRLF between pipelined
                    // requests (RFC 9112 §2.2 allows ignoring it).
                    if line.is_empty() {
                        continue;
                    }
                    let (method, target, http11) = parse_request_line(line)?;
                    self.phase = Phase::Headers {
                        head: Head {
                            method,
                            target,
                            http11,
                            headers: Vec::new(),
                        },
                        header_bytes: 0,
                    };
                }
                Phase::Headers { head, header_bytes } => {
                    let budget = MAX_HEADER_BYTES
                        .checked_sub(*header_bytes)
                        .ok_or(ParseError::HeadersTooLarge)?;
                    let Some(line_end) = find_crlf(&self.buf, budget) else {
                        if self.buf.len() > budget {
                            return Err(ParseError::HeadersTooLarge);
                        }
                        return Ok(None);
                    };
                    // Reject a line that would push the block past the
                    // cap *before* consuming it, so `header_bytes` can
                    // never exceed `MAX_HEADER_BYTES` (`find_crlf`'s
                    // horizon extends 2 bytes past the budget, which
                    // would otherwise let `header_bytes` overshoot and
                    // underflow the subtraction above).
                    if line_end + 2 > budget {
                        return Err(ParseError::HeadersTooLarge);
                    }
                    let line = self.buf.drain(..line_end + 2).collect::<Vec<u8>>();
                    let line = &line[..line_end];
                    *header_bytes += line_end + 2;
                    if line.is_empty() {
                        // End of headers: figure out the body framing.
                        let head = std::mem::take(head);
                        self.phase = match body_framing(&head.headers)? {
                            Framing::Sized(needed) => {
                                if needed > MAX_BODY_BYTES {
                                    return Err(ParseError::BodyTooLarge);
                                }
                                Phase::Body { head, needed }
                            }
                            Framing::Chunked => Phase::ChunkSize {
                                head,
                                body: Vec::new(),
                            },
                        };
                        continue;
                    }
                    if head.headers.len() >= MAX_HEADERS {
                        return Err(ParseError::HeadersTooLarge);
                    }
                    head.headers.push(parse_header_line(line)?);
                }
                Phase::Body { head, needed } => {
                    if self.buf.len() < *needed {
                        return Ok(None);
                    }
                    let body = self.buf.drain(..*needed).collect();
                    let request = std::mem::take(head).into_request(body);
                    self.phase = Phase::Line;
                    return Ok(Some(request));
                }
                Phase::ChunkSize { head, body } => {
                    let Some(line_end) = find_crlf(&self.buf, MAX_CHUNK_LINE) else {
                        if self.buf.len() > MAX_CHUNK_LINE {
                            return Err(ParseError::BadChunk);
                        }
                        return Ok(None);
                    };
                    let line = self.buf.drain(..line_end + 2).collect::<Vec<u8>>();
                    let size = parse_chunk_size(&line[..line_end])?;
                    if size > MAX_BODY_BYTES as u64
                        || body.len() + size as usize > MAX_BODY_BYTES
                    {
                        return Err(ParseError::BodyTooLarge);
                    }
                    let head = std::mem::take(head);
                    let body = std::mem::take(body);
                    self.phase = if size == 0 {
                        Phase::ChunkTrailer {
                            head,
                            body,
                            trailer_bytes: 0,
                        }
                    } else {
                        Phase::ChunkData {
                            head,
                            body,
                            needed: size as usize,
                        }
                    };
                }
                Phase::ChunkData { head, body, needed } => {
                    // The chunk's data bytes plus the CRLF that must
                    // immediately follow them.
                    if self.buf.len() < *needed + 2 {
                        return Ok(None);
                    }
                    let mut chunk = self.buf.drain(..*needed + 2).collect::<Vec<u8>>();
                    if chunk[*needed..] != *b"\r\n" {
                        return Err(ParseError::BadChunk);
                    }
                    chunk.truncate(*needed);
                    body.extend_from_slice(&chunk);
                    self.phase = Phase::ChunkSize {
                        head: std::mem::take(head),
                        body: std::mem::take(body),
                    };
                }
                Phase::ChunkTrailer {
                    head,
                    body,
                    trailer_bytes,
                } => {
                    let budget = MAX_HEADER_BYTES
                        .checked_sub(*trailer_bytes)
                        .ok_or(ParseError::HeadersTooLarge)?;
                    let Some(line_end) = find_crlf(&self.buf, budget) else {
                        if self.buf.len() > budget {
                            return Err(ParseError::HeadersTooLarge);
                        }
                        return Ok(None);
                    };
                    if line_end + 2 > budget {
                        return Err(ParseError::HeadersTooLarge);
                    }
                    let line = self.buf.drain(..line_end + 2).collect::<Vec<u8>>();
                    let line = &line[..line_end];
                    *trailer_bytes += line_end + 2;
                    if line.is_empty() {
                        let request =
                            std::mem::take(head).into_request(std::mem::take(body));
                        self.phase = Phase::Line;
                        return Ok(Some(request));
                    }
                    // Trailer fields must be well-formed headers, but the
                    // router never consults them: validate and discard.
                    parse_header_line(line)?;
                }
            }
        }
    }
}

/// Hex chunk size with optional `;ext=...` extensions (ignored).
fn parse_chunk_size(line: &[u8]) -> Result<u64, ParseError> {
    let text = std::str::from_utf8(line).map_err(|_| ParseError::BadChunk)?;
    let size = text.split(';').next().unwrap_or("").trim_matches([' ', '\t']);
    if size.is_empty() || !size.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(ParseError::BadChunk);
    }
    u64::from_str_radix(size, 16).map_err(|_| ParseError::BadChunk)
}

/// Position of the first CRLF within the first `max + 2` bytes.
fn find_crlf(buf: &[u8], max: usize) -> Option<usize> {
    let horizon = buf.len().min(max.saturating_add(2));
    buf[..horizon].windows(2).position(|w| w == b"\r\n")
}

fn is_token_byte(b: u8) -> bool {
    // RFC 9110 token characters.
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

fn parse_request_line(line: &[u8]) -> Result<(String, String, bool), ParseError> {
    let text = std::str::from_utf8(line)
        .map_err(|_| ParseError::BadRequestLine(String::from_utf8_lossy(line).into_owned()))?;
    let bad = || ParseError::BadRequestLine(text.to_string());
    let mut parts = text.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next())
    {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return Err(bad()),
    };
    if method.is_empty() || !method.bytes().all(is_token_byte) {
        return Err(bad());
    }
    // Origin-form targets only (no authority/absolute forms): visible
    // ASCII starting with '/', or the literal '*' for OPTIONS.
    let target_ok = (target.starts_with('/') || target == "*")
        && target.bytes().all(|b| (0x21..=0x7e).contains(&b));
    if !target_ok {
        return Err(bad());
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(bad()),
    };
    Ok((method.to_string(), target.to_string(), http11))
}

fn parse_header_line(line: &[u8]) -> Result<(String, String), ParseError> {
    let text = std::str::from_utf8(line)
        .map_err(|_| ParseError::BadHeader(String::from_utf8_lossy(line).into_owned()))?;
    let bad = || ParseError::BadHeader(text.to_string());
    let (name, value) = text.split_once(':').ok_or_else(bad)?;
    // No whitespace is allowed between field name and colon (RFC 9112
    // §5.1 — it has been used for request smuggling).
    if name.is_empty() || !name.bytes().all(is_token_byte) {
        return Err(bad());
    }
    let value = value.trim_matches([' ', '\t']);
    // Field values: visible ASCII plus SP/HTAB (obs-text rejected).
    if !value.bytes().all(|b| b == b' ' || b == b'\t' || (0x21..=0x7e).contains(&b)) {
        return Err(bad());
    }
    Ok((name.to_string(), value.to_string()))
}

/// How the body is delimited on the wire.
#[derive(Debug, PartialEq, Eq)]
enum Framing {
    /// A `Content-Length` body of exactly this many bytes (0 when the
    /// header is absent).
    Sized(usize),
    /// `Transfer-Encoding: chunked`.
    Chunked,
}

/// Body framing from the header block. Plain `chunked` is decoded; any
/// other coding (or a chain like `gzip, chunked`) is 501. A request
/// carrying both `Transfer-Encoding` and `Content-Length` is rejected
/// outright — the ambiguity is the classic smuggling vector (RFC 9112
/// §6.1).
fn body_framing(headers: &[(String, String)]) -> Result<Framing, ParseError> {
    let codings: Vec<String> = headers
        .iter()
        .filter(|(n, _)| n.eq_ignore_ascii_case("transfer-encoding"))
        .flat_map(|(_, v)| v.split(','))
        .map(|c| c.trim_matches([' ', '\t']).to_ascii_lowercase())
        .filter(|c| !c.is_empty())
        .collect();
    let has_length = headers
        .iter()
        .any(|(n, _)| n.eq_ignore_ascii_case("content-length"));
    if !codings.is_empty() {
        if has_length {
            return Err(ParseError::BadContentLength);
        }
        if codings != ["chunked"] {
            return Err(ParseError::UnsupportedTransferEncoding);
        }
        return Ok(Framing::Chunked);
    }
    let mut declared: Option<usize> = None;
    for (n, v) in headers {
        if n.eq_ignore_ascii_case("content-length") {
            let len: usize = v.parse().map_err(|_| ParseError::BadContentLength)?;
            if declared.is_some_and(|d| d != len) {
                return Err(ParseError::BadContentLength);
            }
            declared = Some(len);
        }
    }
    Ok(Framing::Sized(declared.unwrap_or(0)))
}

/// Standard reason phrase for the statuses this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Content Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// A header value, written into the head as it is: the numeric ones
/// (`X-Generation`, `X-Replica-Lag`, …) without a `String` in between.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeaderValue {
    /// A literal.
    Static(&'static str),
    /// A number, formatted when the head is written.
    Number(u64),
    /// Anything else.
    Owned(String),
}

impl std::fmt::Display for HeaderValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeaderValue::Static(s) => f.write_str(s),
            HeaderValue::Number(n) => write!(f, "{n}"),
            HeaderValue::Owned(s) => f.write_str(s),
        }
    }
}

impl PartialEq<str> for HeaderValue {
    fn eq(&self, other: &str) -> bool {
        match self {
            HeaderValue::Static(s) => *s == other,
            HeaderValue::Number(n) => n.to_string() == other,
            HeaderValue::Owned(s) => s == other,
        }
    }
}

impl From<&'static str> for HeaderValue {
    fn from(s: &'static str) -> HeaderValue {
        HeaderValue::Static(s)
    }
}

impl From<u64> for HeaderValue {
    fn from(n: u64) -> HeaderValue {
        HeaderValue::Number(n)
    }
}

impl From<String> for HeaderValue {
    fn from(s: String) -> HeaderValue {
        HeaderValue::Owned(s)
    }
}

/// A response body: a serve-cache [`Entry`], shared and never copied on
/// its way to the socket, and — when the entry was computed for another
/// spelling of this request's query — the request's own `query` string
/// literal, sent in place of the entry's. A page the front-end renders
/// itself (an error, `/stats`) is an entry nobody else holds.
#[derive(Debug, Clone)]
pub struct Body {
    entry: Arc<Entry>,
    query: Option<Box<str>>,
}

impl Body {
    /// `entry`, echoing `query` (unescaped) when given.
    pub fn new(entry: Arc<Entry>, query: Option<&str>) -> Body {
        Body {
            entry,
            query: query.map(Entry::literal),
        }
    }

    /// The body as the slices that make it up, in order; unused ones
    /// are empty.
    pub fn slices(&self) -> [&[u8]; 3] {
        self.entry.slices(self.query.as_deref())
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.slices().iter().map(|s| s.len()).sum()
    }

    /// True for a body of no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bytes, gathered (tests and diagnostics; the wire path never
    /// does).
    pub fn to_vec(&self) -> Vec<u8> {
        self.slices().concat()
    }
}

impl From<String> for Body {
    fn from(body: String) -> Body {
        Body::new(Arc::new(Entry::from(body)), None)
    }
}

/// An outgoing response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers (`Content-Length` and `Connection` are added by
    /// [`Response::head`]).
    pub headers: Vec<(Cow<'static, str>, HeaderValue)>,
    /// The body.
    pub body: Body,
}

impl Response {
    fn typed(status: u16, content_type: &'static str, body: Body) -> Response {
        let mut headers = Vec::with_capacity(8);
        headers.push((Cow::Borrowed("Content-Type"), content_type.into()));
        Response {
            status,
            headers,
            body,
        }
    }

    /// A `application/json` response.
    pub fn json(status: u16, body: impl Into<Body>) -> Response {
        Response::typed(status, "application/json", body.into())
    }

    /// A `text/plain` response.
    pub fn text(status: u16, body: String) -> Response {
        Response::typed(status, "text/plain; charset=utf-8", body.into())
    }

    /// Builder: add one header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<HeaderValue>) -> Response {
        self.headers.push((Cow::Borrowed(name), value.into()));
        self
    }

    /// The status line and header block (HTTP/1.1, explicit
    /// `Content-Length`, and a `Connection` header matching `close`),
    /// blank line included.
    pub fn head(&self, close: bool) -> Vec<u8> {
        let mut head = Vec::with_capacity(256);
        let _ = write!(
            head,
            "HTTP/1.1 {} {}\r\n",
            self.status,
            reason_phrase(self.status)
        );
        for (n, v) in &self.headers {
            let _ = write!(head, "{n}: {v}\r\n");
        }
        let connection = if close { "close" } else { "keep-alive" };
        let _ = write!(
            head,
            "Content-Length: {}\r\nConnection: {connection}\r\n\r\n",
            self.body.len()
        );
        head
    }

    /// Serialize onto `w`: [`Response::head`], then the body. Returns
    /// bytes written.
    pub fn write_to(&self, w: &mut impl Write, close: bool) -> std::io::Result<u64> {
        let head = self.head(close);
        w.write_all(&head)?;
        for part in self.body.slices() {
            w.write_all(part)?;
        }
        w.flush()?;
        Ok((head.len() + self.body.len()) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(raw: &[u8]) -> Result<Option<Request>, ParseError> {
        Parser::new().feed(raw)
    }

    #[test]
    fn parses_simple_get() {
        let req = parse_one(b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .expect("complete");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path(), "/stats");
        assert_eq!(req.query(), None);
        assert!(req.http11);
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert!(!req.wants_close());
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_query_string_with_escapes() {
        let req = parse_one(b"GET /search/all-fields?q=mask+mandates%21&page=2 HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.path(), "/search/all-fields");
        assert_eq!(req.query_param("q").as_deref(), Some("mask mandates!"));
        assert_eq!(req.query_param("page").as_deref(), Some("2"));
        assert_eq!(req.query_param("missing"), None);
    }

    #[test]
    fn one_byte_at_a_time_yields_the_same_request() {
        let raw = b"POST /ingest?n=3 HTTP/1.1\r\nContent-Length: 5\r\nX-A: b\r\n\r\nhello";
        let whole = parse_one(raw).unwrap().unwrap();
        let mut p = Parser::new();
        let mut split = None;
        for (i, b) in raw.iter().enumerate() {
            match p.feed(std::slice::from_ref(b)).unwrap() {
                Some(req) => {
                    assert_eq!(i, raw.len() - 1, "completes exactly on the last byte");
                    split = Some(req);
                }
                None => assert!(i < raw.len() - 1),
            }
        }
        assert_eq!(split.unwrap(), whole);
        assert_eq!(whole.body, b"hello");
    }

    #[test]
    fn pipelined_requests_pop_in_order() {
        let mut p = Parser::new();
        let first = p
            .feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(first.target, "/a");
        let second = p.feed(b"").unwrap().unwrap();
        assert_eq!(second.target, "/b");
        assert!(p.feed(b"").unwrap().is_none());
        assert!(p.is_idle());
    }

    #[test]
    fn connection_close_semantics() {
        let close = parse_one(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(close.wants_close());
        let http10 = parse_one(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(http10.wants_close(), "HTTP/1.0 defaults to close");
        let http10_ka = parse_one(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!http10_ka.wants_close());
    }

    #[test]
    fn oversized_inputs_map_to_431_and_413() {
        let mut long_line = Vec::from(&b"GET /"[..]);
        long_line.resize(MAX_REQUEST_LINE + 10, b'a');
        let err = parse_one(&long_line).unwrap_err();
        assert_eq!(err, ParseError::RequestLineTooLong);
        assert_eq!(err.status(), 431);

        let mut many_headers = Vec::from(&b"GET / HTTP/1.1\r\n"[..]);
        for i in 0..(MAX_HEADERS + 1) {
            many_headers.extend_from_slice(format!("X-H{i}: v\r\n").as_bytes());
        }
        many_headers.extend_from_slice(b"\r\n");
        let err = parse_one(&many_headers).unwrap_err();
        assert_eq!(err, ParseError::HeadersTooLarge);
        assert_eq!(err.status(), 431);

        let big = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let err = parse_one(big.as_bytes()).unwrap_err();
        assert_eq!(err, ParseError::BodyTooLarge);
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn header_budget_boundary_fails_clean_with_431() {
        // A header line consuming exactly the remaining budget (or one
        // or two bytes past it — `find_crlf`'s horizon allows the CRLF
        // to land there) used to underflow the budget subtraction on
        // the next iteration. All three offsets must be a clean 431.
        for over in 0..=2usize {
            // "X-P: " (5) + value + CRLF (2) consumes MAX_HEADER_BYTES + over.
            let value_len = MAX_HEADER_BYTES + over - 7;
            let mut raw = Vec::from(&b"GET / HTTP/1.1\r\nX-P: "[..]);
            raw.resize(raw.len() + value_len, b'a');
            raw.extend_from_slice(b"\r\n\r\n");
            let err = parse_one(&raw).expect_err(&format!("over={over}"));
            assert_eq!(err, ParseError::HeadersTooLarge, "over={over}");
            assert_eq!(err.status(), 431);
        }
        // A block that fits exactly (header lines + terminator ==
        // MAX_HEADER_BYTES) still parses.
        let value_len = MAX_HEADER_BYTES - 9;
        let mut raw = Vec::from(&b"GET / HTTP/1.1\r\nX-P: "[..]);
        raw.resize(raw.len() + value_len, b'a');
        raw.extend_from_slice(b"\r\n\r\n");
        let req = parse_one(&raw).unwrap().expect("complete");
        assert_eq!(req.header("X-P").map(str::len), Some(value_len));
    }

    #[test]
    fn malformed_inputs_map_to_400() {
        for raw in [
            &b"GET\r\n\r\n"[..],
            b"GET / HTTP/2.0\r\n\r\n",
            b"GET /a b HTTP/1.1\r\n\r\n",
            b"GET nopath HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1\r\nBad Header: x\r\n\r\n",
            b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n",
        ] {
            let err = parse_one(raw).expect_err(&format!("{:?}", String::from_utf8_lossy(raw)));
            assert_eq!(err.status(), 400, "{err:?}");
        }
    }

    #[test]
    fn chunked_bodies_decode() {
        let raw = b"POST /ingest HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                    4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n";
        let req = parse_one(raw).unwrap().expect("complete");
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"Wikipedia");

        // Empty chunked body, uppercase hex, and chunk extensions.
        let req = parse_one(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n")
            .unwrap()
            .expect("complete");
        assert!(req.body.is_empty());
        let req = parse_one(
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nA;name=v\r\n0123456789\r\n0\r\n\r\n",
        )
        .unwrap()
        .expect("complete");
        assert_eq!(req.body, b"0123456789");
    }

    #[test]
    fn chunked_body_one_byte_at_a_time() {
        let raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                    3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n";
        let whole = parse_one(raw).unwrap().unwrap();
        let mut p = Parser::new();
        let mut split = None;
        for (i, b) in raw.iter().enumerate() {
            if let Some(req) = p.feed(std::slice::from_ref(b)).unwrap() {
                assert_eq!(i, raw.len() - 1, "completes exactly on the last byte");
                split = Some(req);
            }
        }
        assert_eq!(split.unwrap(), whole);
        assert_eq!(whole.body, b"abcde");
    }

    #[test]
    fn chunked_trailers_are_validated_and_discarded() {
        let raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                    5\r\nhello\r\n0\r\nX-Checksum: abc\r\nX-Other: y\r\n\r\n";
        let req = parse_one(raw).unwrap().expect("complete");
        assert_eq!(req.body, b"hello");
        assert_eq!(req.header("X-Checksum"), None, "trailers are not promoted");

        // A malformed trailer line poisons the connection like any
        // malformed header.
        let raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                    0\r\nNoColonHere\r\n\r\n";
        assert_eq!(parse_one(raw).unwrap_err().status(), 400);
    }

    #[test]
    fn keep_alive_continues_after_a_chunked_request() {
        let mut p = Parser::new();
        let first = p
            .feed(
                b"POST /a HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                  2\r\nhi\r\n0\r\n\r\nGET /b HTTP/1.1\r\n\r\n",
            )
            .unwrap()
            .unwrap();
        assert_eq!(first.target, "/a");
        assert_eq!(first.body, b"hi");
        assert!(!first.wants_close());
        let second = p.feed(b"").unwrap().unwrap();
        assert_eq!(second.target, "/b");
        assert!(p.is_idle());
    }

    #[test]
    fn chunked_bodies_are_size_capped_with_413() {
        // One chunk over the cap.
        let raw = format!(
            "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n{:x}\r\n",
            MAX_BODY_BYTES + 1
        );
        let err = parse_one(raw.as_bytes()).unwrap_err();
        assert_eq!(err, ParseError::BodyTooLarge);
        assert_eq!(err.status(), 413);

        // Many small chunks accumulating past the cap fail as soon as
        // the size lines alone reveal the overflow.
        let mut p = Parser::new();
        p.feed(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
            .unwrap();
        let chunk = format!("{:x}\r\n{}\r\n", 1024, "a".repeat(1024));
        let mut err = None;
        for _ in 0..=(MAX_BODY_BYTES / 1024) {
            match p.feed(chunk.as_bytes()) {
                Ok(_) => {}
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert_eq!(err, Some(ParseError::BodyTooLarge));
    }

    #[test]
    fn malformed_chunked_framing_maps_to_400() {
        for raw in [
            // Non-hex size line.
            &b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n\r\n"[..],
            // Empty size line.
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\r\n\r\n",
            // Chunk data not followed by CRLF.
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nabXX0\r\n\r\n",
            // Both framings at once: the smuggling vector.
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 5\r\n\r\n",
        ] {
            let err = parse_one(raw).expect_err(&format!("{:?}", String::from_utf8_lossy(raw)));
            assert_eq!(err.status(), 400, "{err:?}");
        }

        // A size line that never terminates is bounded by MAX_CHUNK_LINE.
        let mut raw = Vec::from(&b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"[..]);
        raw.resize(raw.len() + MAX_CHUNK_LINE + 8, b'1');
        let err = parse_one(&raw).unwrap_err();
        assert_eq!(err, ParseError::BadChunk);
    }

    #[test]
    fn other_transfer_encodings_still_map_to_501() {
        // Well-formed HTTP we deliberately don't implement: only plain
        // `chunked` is decoded; anything else (including a chain that
        // ends in chunked) stays 501.
        for raw in [
            &b"POST / HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n"[..],
            b"POST / HTTP/1.1\r\ntransfer-encoding: gzip, chunked\r\n\r\n",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: gzip\r\nTransfer-Encoding: chunked\r\n\r\n",
        ] {
            let err = parse_one(raw).expect_err(&format!("{:?}", String::from_utf8_lossy(raw)));
            assert_eq!(err, ParseError::UnsupportedTransferEncoding);
            assert_eq!(err.status(), 501, "{err:?}");
        }
        assert_eq!(reason_phrase(501), "Not Implemented");
    }

    #[test]
    fn poisoned_parser_stays_failed() {
        let mut p = Parser::new();
        assert!(p.feed(b"BAD LINE\r\n\r\n").is_err());
        assert!(p.feed(b"GET / HTTP/1.1\r\n\r\n").is_err());
    }

    #[test]
    fn response_serializes_with_length_and_connection() {
        let mut out = Vec::new();
        let n = Response::json(200, "{\"x\":1}".to_string())
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"x\":1}"));
        assert_eq!(n, text.len() as u64);

        let mut out = Vec::new();
        Response::text(503, String::new())
            .with_header("Retry-After", "1")
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: close\r\n"));
    }

    #[test]
    fn percent_decode_handles_edges() {
        assert_eq!(percent_decode("a+b"), "a b");
        assert_eq!(percent_decode("%41%62"), "Ab");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode(""), "");
    }
}
