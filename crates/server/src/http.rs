//! Hand-rolled HTTP/1.1 request parsing and response writing.
//!
//! The workspace must build with an empty registry, so there is no hyper;
//! this module implements exactly the slice of HTTP the service needs —
//! persistent (keep-alive) connections with pipelining, `Connection`
//! header token semantics, `Expect: 100-continue` — with the robustness
//! a network front end cannot skip: a header-size cap, a body size limit
//! enforced *before* allocation, a bounded wait for each read and write
//! **and** an overall per-request deadline (a client trickling one byte
//! per read interval cannot park a worker past
//! [`Limits::request_deadline`]), and precise 4xx classification of
//! malformed input.
//!
//! The front end that `dram-serve` and `dram-route` share keeps its
//! client sockets nonblocking for life: a read or write is tried first,
//! and only when it would block does the thread wait in `poll(2)`, for
//! a bounded time. No socket option is set per request.
//!
//! Pipelining support is carried through the `leftover` byte buffers:
//! every parse entry point accepts bytes already pulled off the wire by
//! a previous request's reads and returns whatever it over-read in turn,
//! so no byte of a later pipelined request is ever dropped or re-parsed.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::reactor::{self, POLLIN, POLLOUT};

/// Parsing limits and socket timeouts.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum size of the request line plus headers, in bytes.
    pub max_head: usize,
    /// Maximum request body size, in bytes. Larger declared bodies are
    /// rejected with `413` before any body byte is read.
    pub max_body: usize,
    /// Longest wait for the socket to turn readable while parsing, or
    /// writable while answering. A client that stalls completely gets
    /// `408` after at most this long.
    pub io_timeout: Duration,
    /// Overall deadline for receiving one complete request (head and
    /// body). A slowloris client that trickles bytes — ending every
    /// wait with a fresh byte — still gets `408` when this expires.
    pub request_deadline: Duration,
    /// Maximum total decoded size of a streamed (chunked) request body,
    /// in bytes. Streaming endpoints never buffer the body, so this can
    /// be far above [`Limits::max_body`]; it bounds how long one
    /// connection can keep a worker, alongside the deadline.
    pub max_stream: usize,
}

/// The default [`Limits::max_head`], also the bound the response reader
/// in [`crate::client`] holds heads to.
pub(crate) const DEFAULT_MAX_HEAD: usize = 16 * 1024;

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_head: DEFAULT_MAX_HEAD,
            max_body: 1024 * 1024,
            io_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(15),
            max_stream: 256 * 1024 * 1024,
        }
    }
}

/// A parsed request: method, path, headers (keys lowercased) and body.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, uppercased as received (`GET`, `POST`, …).
    pub method: String,
    /// Request target path, query string stripped.
    pub path: String,
    /// Raw query string (the part after `?`), without the `?`; empty
    /// when the target had none.
    pub query: String,
    /// Header fields, names lowercased; repeated fields joined with
    /// `", "` in arrival order.
    pub headers: HashMap<String, String>,
    /// Raw request body.
    pub body: Vec<u8>,
    /// Whether the request line declared `HTTP/1.1` (as opposed to
    /// `HTTP/1.0`). Decides the keep-alive default: 1.1 connections
    /// persist unless `Connection: close`, 1.0 connections close unless
    /// `Connection: keep-alive`.
    pub http11: bool,
}

impl Request {
    /// The value of query parameter `name`, if present: `?a=1&b=2`
    /// style, no percent-decoding (the API's parameter values are plain
    /// tokens). A bare `?name` yields an empty string.
    #[must_use]
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == name).then_some(v)
        })
    }

    /// Whether the client is willing to reuse this connection for
    /// another request (RFC 9112 §9.3). `Connection` is a
    /// case-insensitive comma-separated token list; `close` wins over
    /// `keep-alive` if a confused client sends both, and the absence of
    /// either token falls back to the HTTP-version default.
    #[must_use]
    pub fn wants_keep_alive(&self) -> bool {
        let connection = self.headers.get("connection");
        keeps_alive(
            |token| connection.is_some_and(|v| header_has_token(v, token)),
            self.http11,
        )
    }

    /// Whether the client declared `Expect: 100-continue` and is holding
    /// the body back until the server commits to reading it.
    #[must_use]
    pub fn expects_continue(&self) -> bool {
        self.headers
            .get("expect")
            .is_some_and(|v| header_has_token(v, "100-continue"))
    }
}

/// Whether a connection persists past a message (RFC 9112 §9.3), given
/// whether its `Connection` field lists a token: `close` wins over
/// `keep-alive` if a confused peer sends both, and the absence of either
/// token falls back to the HTTP-version default (1.1 persists).
#[must_use]
pub fn keeps_alive(connection_has: impl Fn(&str) -> bool, http11: bool) -> bool {
    !connection_has("close") && (http11 || connection_has("keep-alive"))
}

/// Whether a comma-separated header value contains `token`, compared
/// case-insensitively with surrounding whitespace ignored (RFC 9110
/// §5.6.1 list syntax). `Connection: Keep-Alive, TE` contains
/// `keep-alive`; `Transfer-Encoding: Chunked` contains `chunked`.
#[must_use]
pub fn header_has_token(value: &str, token: &str) -> bool {
    value
        .split(',')
        .any(|t| t.trim().eq_ignore_ascii_case(token))
}

/// Why a request could not be parsed; maps 1:1 to a 4xx status.
///
/// Every variant is answerable — the peer-closed-silently case is
/// [`ReadError::Closed`], deliberately *outside* this type so no code
/// path can ever build a response for a connection that asked nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Syntactically invalid request line, header or framing → 400.
    BadRequest(String),
    /// Declared or actual body beyond [`Limits::max_body`] → 413.
    PayloadTooLarge,
    /// Request line + headers beyond [`Limits::max_head`] → 431.
    HeadersTooLarge,
    /// The socket timed out or the overall [`Limits::request_deadline`]
    /// expired before a full request arrived → 408.
    Timeout,
}

impl HttpError {
    /// The HTTP status this error answers with.
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            HttpError::BadRequest(_) => 400,
            HttpError::Timeout => 408,
            HttpError::PayloadTooLarge => 413,
            HttpError::HeadersTooLarge => 431,
        }
    }

    /// Human-readable reason used in the JSON error body.
    #[must_use]
    pub fn message(&self) -> String {
        match self {
            HttpError::BadRequest(m) => m.clone(),
            HttpError::Timeout => "request timed out".to_string(),
            HttpError::PayloadTooLarge => "request body too large".to_string(),
            HttpError::HeadersTooLarge => "request headers too large".to_string(),
        }
    }
}

/// Why no [`Request`] came off a connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadError {
    /// The peer closed the connection before sending a single byte —
    /// a port probe or TCP health check. There is nothing to answer:
    /// this variant carries no status and no message *by construction*,
    /// so response bytes cannot be written for it.
    Closed,
    /// A protocol failure the caller answers with
    /// [`HttpError::status`].
    Http(HttpError),
}

impl From<HttpError> for ReadError {
    fn from(e: HttpError) -> Self {
        ReadError::Http(e)
    }
}

fn io_to_http(e: &std::io::Error) -> HttpError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => HttpError::Timeout,
        _ => HttpError::BadRequest(format!("read failed: {}", e.kind())),
    }
}

/// Reads into `buf` from a nonblocking socket: reads first, and only
/// when nothing is there waits in `poll(2)` for at most the lesser of
/// `io_timeout` and the time left until `deadline`, so a trickling
/// sender cannot extend its welcome by keeping bytes coming. Past the
/// deadline, or when a wait runs out, the error is
/// [`io::ErrorKind::TimedOut`]. On a blocking socket each read waits
/// for as long as the peer takes, and the deadline is checked only
/// between reads.
pub(crate) fn read_within(
    stream: &mut TcpStream,
    buf: &mut [u8],
    deadline: Instant,
    io_timeout: Duration,
) -> io::Result<usize> {
    loop {
        if Instant::now() >= deadline {
            return Err(io::ErrorKind::TimedOut.into());
        }
        match stream.read(buf) {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                let left = deadline.saturating_duration_since(Instant::now());
                if !reactor::wait_ready(stream.as_raw_fd(), POLLIN, left.min(io_timeout))? {
                    return Err(io::ErrorKind::TimedOut.into());
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            done => return done,
        }
    }
}

/// Writes all of `bytes` to a nonblocking socket, waiting in
/// `poll(POLLOUT)` for at most `io_timeout` each time the send buffer
/// is full. The one writer of the front end: responses, the
/// `100 Continue` interim and the router's relay. On a blocking socket
/// the write itself blocks and `io_timeout` does not apply.
///
/// # Errors
///
/// [`io::ErrorKind::TimedOut`] when a wait runs out, or the first write
/// error; the stream state is then unknown and the caller must close.
pub(crate) fn write_within(
    stream: &mut TcpStream,
    mut bytes: &[u8],
    io_timeout: Duration,
) -> io::Result<()> {
    let io_timeout = io_timeout.max(Duration::from_millis(1));
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if !reactor::wait_ready(stream.as_raw_fd(), POLLOUT, io_timeout)? {
                    return Err(io::ErrorKind::TimedOut.into());
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads one chunk within both the wait bound and the overall request
/// deadline (see [`read_within`]).
fn read_bounded(
    stream: &mut TcpStream,
    chunk: &mut [u8],
    deadline: Instant,
    io_timeout: Duration,
) -> Result<usize, HttpError> {
    // Fault site: a `delay` rule stalls this read (served inside the
    // trip); a `short` rule caps it to one byte, turning the peer into
    // an apparent trickler the deadline logic must still bound.
    let cap = match dram_faults::trip("http.read") {
        Some(inj) if inj.kind == dram_faults::Kind::Short => 1,
        _ => chunk.len(),
    };
    read_within(stream, &mut chunk[..cap], deadline, io_timeout).map_err(|e| io_to_http(&e))
}

/// How the request body is framed on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Framing {
    /// `Content-Length` (or no body at all).
    Length(usize),
    /// `Transfer-Encoding: chunked`.
    Chunked,
}

/// One request coming off a connection: either fully buffered, or a
/// parsed head whose chunked body is still on the wire.
///
/// Streaming endpoints take the [`Inbound::Streaming`] arm and take
/// decoded body bytes in place through [`ChunkedBody::next_run`];
/// every other route drains the body into memory first (bounded by
/// [`Limits::max_body`]) and proceeds exactly as before.
#[derive(Debug)]
pub enum Inbound {
    /// Head and complete body are in memory.
    Buffered {
        /// The parsed request, body included.
        request: Request,
        /// Bytes read past the end of this request's body — the start
        /// of the next pipelined request, owed to the next parse.
        leftover: Vec<u8>,
    },
    /// Head is parsed; `request.body` is empty and the chunked body is
    /// read on demand.
    Streaming {
        /// The parsed head (empty `body`).
        request: Request,
        /// The resumable body reader.
        body: ChunkedBody,
    },
}

/// Reads and parses one request from the stream under the given limits,
/// without buffering a chunked body.
///
/// [`Limits::io_timeout`] and [`Limits::request_deadline`] bind only on
/// a nonblocking socket; on a blocking one each read waits for as long
/// as the peer takes, and the deadline is checked only between reads.
///
/// # Errors
///
/// Returns [`ReadError::Closed`] for a silent probe (nothing to answer)
/// or [`ReadError::Http`] classifying the protocol failure; the caller
/// converts the latter to a 4xx response.
pub fn read_inbound(stream: &mut TcpStream, limits: &Limits) -> Result<Inbound, ReadError> {
    read_inbound_after(stream, limits, Vec::new())
}

/// [`read_inbound`] resuming from `carry` — bytes a previous request on
/// the same connection over-read (the pipelining path). The carry is
/// parsed before the socket is touched, so a fully buffered pipelined
/// request costs no reads at all.
///
/// Honors `Expect: 100-continue`: once the head passes the framing and
/// size checks and body bytes are still owed, an interim
/// `HTTP/1.1 100 Continue` is written so a compliant client releases
/// the body instead of stalling until its own timeout. Requests whose
/// declared body already fails a check get the final 4xx straight away,
/// never the interim reply.
///
/// # Errors
///
/// As [`read_inbound`].
pub fn read_inbound_after(
    stream: &mut TcpStream,
    limits: &Limits,
    carry: Vec<u8>,
) -> Result<Inbound, ReadError> {
    let deadline = Instant::now() + limits.request_deadline;
    let (mut request, leftover, framing) = read_head(stream, limits, deadline, carry)?;
    match framing {
        Framing::Length(content_length) => {
            if content_length > limits.max_body {
                return Err(HttpError::PayloadTooLarge.into());
            }
            let mut body = leftover;
            if body.len() < content_length {
                send_continue_if_expected(stream, &request, limits)?;
            }
            // Anything past the declared length is the next pipelined
            // request, not part of this body.
            let next = if body.len() > content_length {
                body.split_off(content_length)
            } else {
                Vec::new()
            };
            // The body grows to its declared length once and each read
            // fills its tail in place. A read is capped at the bytes
            // still owed, so the loop can never pull in the next
            // pipelined request from the socket — `next` stays the only
            // source of over-read bytes.
            let mut filled = body.len();
            body.resize(content_length, 0);
            while filled < content_length {
                let n = read_bounded(stream, &mut body[filled..], deadline, limits.io_timeout)?;
                if n == 0 {
                    return Err(HttpError::BadRequest("truncated request body".into()).into());
                }
                filled += n;
            }
            request.body = body;
            Ok(Inbound::Buffered {
                request,
                leftover: next,
            })
        }
        Framing::Chunked => {
            send_continue_if_expected(stream, &request, limits)?;
            Ok(Inbound::Streaming {
                request,
                body: ChunkedBody::new(leftover, deadline, limits),
            })
        }
    }
}

/// Writes the interim `100 Continue` reply when the request asked for
/// one. Called only after the head has passed every early rejection
/// (framing, declared size), per RFC 9110 §10.1.1.
fn send_continue_if_expected(
    stream: &mut TcpStream,
    request: &Request,
    limits: &Limits,
) -> Result<(), HttpError> {
    if !request.expects_continue() {
        return Ok(());
    }
    write_within(stream, b"HTTP/1.1 100 Continue\r\n\r\n", limits.io_timeout)
        .map_err(|e| HttpError::BadRequest(format!("interim write failed: {}", e.kind())))
}

/// Reads one complete request, buffering chunked bodies in memory
/// (bounded by [`Limits::max_body`]). As with [`read_inbound`], the
/// timeouts and the request deadline bind only on a nonblocking socket.
///
/// # Errors
///
/// As [`read_inbound`].
pub fn read_request(stream: &mut TcpStream, limits: &Limits) -> Result<Request, ReadError> {
    match read_inbound(stream, limits)? {
        Inbound::Buffered { request, .. } => Ok(request),
        Inbound::Streaming {
            mut request,
            mut body,
        } => {
            request.body = body.read_all(stream, limits.max_body)?;
            Ok(request)
        }
    }
}

/// Reads and parses the request head; returns the request (empty body),
/// any body bytes pulled in by the head reads, and the body framing.
/// `carry` seeds the buffer with bytes a previous request over-read.
fn read_head(
    stream: &mut TcpStream,
    limits: &Limits,
    deadline: Instant,
    carry: Vec<u8>,
) -> Result<(Request, Vec<u8>, Framing), ReadError> {
    // Accumulate until the blank line that ends the head section.
    let mut buf: Vec<u8> = carry;
    let head_end = loop {
        // RFC 9112 §2.2: ignore blank lines before the request line —
        // clients commonly emit a stray CRLF after a body, which would
        // otherwise desync every pipelined request behind it.
        while buf.starts_with(b"\r\n") {
            buf.drain(..2);
        }
        if let Some(pos) = find_head(&buf, limits.max_head)? {
            break pos;
        }
        let mut chunk = [0u8; 1024];
        let n = read_bounded(stream, &mut chunk, deadline, limits.io_timeout)?;
        if n == 0 {
            if buf.is_empty() {
                return Err(ReadError::Closed);
            }
            return Err(HttpError::BadRequest("truncated request head".into()).into());
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::BadRequest("request head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let (method, path, query, http11) = parse_request_line(request_line)?;

    let mut headers: HashMap<String, String> = HashMap::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = split_field(line)?;
        let name = name.to_ascii_lowercase();
        let value = value.to_string();
        match headers.entry(name) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(value);
            }
            std::collections::hash_map::Entry::Occupied(mut e) => {
                if e.key() == "content-length" {
                    same_length(e.get(), &value)?;
                } else {
                    let joined = e.get_mut();
                    joined.push_str(", ");
                    joined.push_str(&value);
                }
            }
        }
    }

    // Body framing: Content-Length or `Transfer-Encoding: chunked`. A
    // request carrying *both* is a smuggling vector (RFC 9112 §6.3) and
    // is rejected outright rather than letting one header win. The
    // transfer-encoding value is a case-insensitive token list (RFC 9110
    // §5.6.1): `Chunked` and `identity, chunked` both mean chunked, and
    // any coding this server cannot reverse is a 400, not a silent
    // pass-through to the content-length branch.
    let framing = match headers.get("transfer-encoding") {
        Some(te) if header_has_token(te, "chunked") => {
            let stacked = te
                .split(',')
                .map(str::trim)
                .filter(|t| !t.is_empty() && !t.eq_ignore_ascii_case("identity"))
                .count();
            if stacked != 1 {
                return Err(HttpError::BadRequest(format!(
                    "unsupported transfer-encoding stack `{te}`"
                ))
                .into());
            }
            if headers.contains_key("content-length") {
                return Err(HttpError::BadRequest(
                    "content-length conflicts with chunked transfer-encoding".into(),
                )
                .into());
            }
            Framing::Chunked
        }
        Some(te)
            if !te
                .split(',')
                .map(str::trim)
                .all(|t| t.is_empty() || t.eq_ignore_ascii_case("identity")) =>
        {
            return Err(
                HttpError::BadRequest(format!("unsupported transfer-encoding `{te}`")).into(),
            );
        }
        _ => {
            let content_length = match headers.get("content-length") {
                None => 0,
                Some(v) => parse_content_length(v)?,
            };
            Framing::Length(content_length)
        }
    };

    // The head read may have pulled in the start of the body already.
    let leftover = buf[head_end + 4..].to_vec();
    Ok((
        Request {
            method,
            path,
            query,
            headers,
            body: Vec::new(),
            http11,
        },
        leftover,
        framing,
    ))
}

/// Incremental decoder for `Transfer-Encoding: chunked` (RFC 9112 §7.1):
/// hex chunk-size lines (extensions after `;` ignored), chunk data, the
/// `0`-size terminator, and trailer fields (parsed and discarded). Pure
/// state machine over bytes — callers own the socket.
#[derive(Debug)]
pub struct ChunkedDecoder {
    state: ChunkState,
    max_chunk: usize,
    trailer_bytes: usize,
}

#[derive(Debug)]
enum ChunkState {
    /// Accumulating a chunk-size line up to its LF.
    Size(Vec<u8>),
    /// Copying chunk data.
    Data(usize),
    /// Expecting the CRLF that closes a chunk's data.
    DataEnd { cr_seen: bool },
    /// Accumulating a trailer line (after the 0-size chunk).
    Trailer(Vec<u8>),
    /// The terminating empty trailer line was consumed.
    Done,
}

impl ChunkedDecoder {
    /// Longest accepted chunk-size line (hex digits plus extensions).
    pub const MAX_SIZE_LINE: usize = 256;
    /// Total trailer bytes tolerated before the request is rejected.
    pub const MAX_TRAILER_BYTES: usize = 16 * 1024;

    /// A decoder that rejects any single chunk larger than `max_chunk`.
    #[must_use]
    pub fn new(max_chunk: usize) -> Self {
        Self {
            state: ChunkState::Size(Vec::new()),
            max_chunk,
            trailer_bytes: 0,
        }
    }

    /// Whether the terminating chunk and trailers have been consumed.
    #[must_use]
    pub fn is_done(&self) -> bool {
        matches!(self.state, ChunkState::Done)
    }

    /// Consumes bytes from `input`, appending decoded body bytes to
    /// `out`; returns how many input bytes were consumed. Consumption
    /// stops at the end of the encoding — bytes after it are left for
    /// the caller to judge.
    ///
    /// # Errors
    ///
    /// `400` for malformed framing, `413` for a chunk beyond
    /// `max_chunk`, `431` for oversized trailers.
    pub fn advance(&mut self, input: &[u8], out: &mut Vec<u8>) -> Result<usize, HttpError> {
        let mut i = 0;
        loop {
            let run = self.next_run(&input[i..])?;
            out.extend_from_slice(&input[i..][run.clone()]);
            i += run.end;
            if run.is_empty() {
                return Ok(i);
            }
        }
    }

    /// Consumes the framing at the front of `input` up to the next run of
    /// chunk data, and that run, which the caller reads in place: the
    /// returned range of `input` is body data, and everything before it
    /// was framing. The range is empty once `input` is used up, or at
    /// the end of the encoding, before any byte after it.
    ///
    /// # Errors
    ///
    /// As [`Self::advance`].
    fn next_run(&mut self, input: &[u8]) -> Result<Range<usize>, HttpError> {
        let mut i = 0;
        while i < input.len() {
            match &mut self.state {
                ChunkState::Size(line) => {
                    let b = input[i];
                    i += 1;
                    if b == b'\n' {
                        let size = parse_chunk_size(line)?;
                        if size > self.max_chunk {
                            return Err(HttpError::PayloadTooLarge);
                        }
                        self.state = if size == 0 {
                            ChunkState::Trailer(Vec::new())
                        } else {
                            ChunkState::Data(size)
                        };
                    } else {
                        if line.len() >= Self::MAX_SIZE_LINE {
                            return Err(HttpError::BadRequest("chunk-size line too long".into()));
                        }
                        line.push(b);
                    }
                }
                ChunkState::Data(remaining) => {
                    let take = (*remaining).min(input.len() - i);
                    *remaining -= take;
                    if *remaining == 0 {
                        self.state = ChunkState::DataEnd { cr_seen: false };
                    }
                    return Ok(i..i + take);
                }
                ChunkState::DataEnd { cr_seen } => {
                    let b = input[i];
                    i += 1;
                    match (b, *cr_seen) {
                        (b'\r', false) => *cr_seen = true,
                        (b'\n', true) => self.state = ChunkState::Size(Vec::new()),
                        _ => {
                            return Err(HttpError::BadRequest(
                                "chunk data not terminated by CRLF".into(),
                            ));
                        }
                    }
                }
                ChunkState::Trailer(line) => {
                    let b = input[i];
                    i += 1;
                    self.trailer_bytes += 1;
                    if self.trailer_bytes > Self::MAX_TRAILER_BYTES {
                        return Err(HttpError::HeadersTooLarge);
                    }
                    if b == b'\n' {
                        // Trailer fields are legal but meaningless here;
                        // only the terminating empty line matters.
                        let empty = line.iter().all(|&c| c == b'\r');
                        if empty {
                            self.state = ChunkState::Done;
                        } else {
                            line.clear();
                        }
                    } else {
                        line.push(b);
                    }
                }
                ChunkState::Done => break,
            }
        }
        Ok(i..i)
    }
}

/// Parses a chunk-size line: hex digits, optionally followed by
/// `;extension` (ignored), with an optional trailing CR.
fn parse_chunk_size(line: &[u8]) -> Result<usize, HttpError> {
    let text = std::str::from_utf8(line)
        .map_err(|_| HttpError::BadRequest("chunk-size line is not UTF-8".into()))?;
    let text = text.trim_end_matches('\r');
    let digits = text.split(';').next().unwrap_or("").trim();
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(HttpError::BadRequest(format!("bad chunk size `{digits}`")));
    }
    usize::from_str_radix(digits, 16)
        .map_err(|_| HttpError::BadRequest(format!("bad chunk size `{digits}`")))
}

/// A chunked request body still (partially) on the wire. It reads the
/// socket into one buffer it keeps for the whole body and hands out each
/// run of chunk data in place, as a slice of that buffer, under the
/// original request deadline and a total-size cap of
/// [`Limits::max_stream`]. The body is judged in byte order: a caller
/// sees every byte before a framing error or the cap, however the reads
/// split the bytes.
#[derive(Debug)]
pub struct ChunkedBody {
    decoder: ChunkedDecoder,
    /// The read buffer: first the bytes read past the head, then each
    /// socket read.
    buf: Vec<u8>,
    /// Where the decoder resumes in `buf`.
    pos: usize,
    /// End of the bytes read into `buf`.
    filled: usize,
    deadline: Instant,
    io_timeout: Duration,
    max_stream: usize,
    /// Chunk data decoded so far, past the cap included.
    total: usize,
}

impl ChunkedBody {
    /// Bytes asked of each socket read.
    const READ_BYTES: usize = 16 * 1024;

    fn new(leftover: Vec<u8>, deadline: Instant, limits: &Limits) -> Self {
        Self {
            decoder: ChunkedDecoder::new(limits.max_stream),
            filled: leftover.len(),
            buf: leftover,
            pos: 0,
            deadline,
            io_timeout: limits.io_timeout,
            max_stream: limits.max_stream,
            total: 0,
        }
    }

    /// The next run of decoded body bytes, as a slice of the reader's
    /// buffer, read from the socket as needed; `None` once the
    /// terminating chunk (and trailers) have been consumed. Bytes past
    /// the terminator are not an error: they are the next pipelined
    /// request, retained for [`ChunkedBody::take_leftover`].
    ///
    /// # Errors
    ///
    /// `400` on malformed framing, `408` past the request deadline,
    /// `413` at the first decoded byte past [`Limits::max_stream`]; each
    /// only after every body byte before it was handed out.
    pub fn next_run(&mut self, stream: &mut TcpStream) -> Result<Option<&[u8]>, HttpError> {
        loop {
            if self.total > self.max_stream {
                return Err(HttpError::PayloadTooLarge);
            }
            let run = self.decoder.next_run(&self.buf[self.pos..self.filled])?;
            let start = self.pos + run.start;
            self.pos += run.end;
            if !run.is_empty() {
                // Only the bytes up to the cap go out; a byte past it
                // makes the next call a 413.
                let room = self.max_stream - self.total;
                self.total += run.len();
                if room > 0 {
                    return Ok(Some(&self.buf[start..start + run.len().min(room)]));
                }
                continue;
            }
            if self.decoder.is_done() {
                return Ok(None);
            }
            if self.buf.len() < Self::READ_BYTES {
                self.buf.resize(Self::READ_BYTES, 0);
            }
            let n = read_bounded(stream, &mut self.buf, self.deadline, self.io_timeout)?;
            if n == 0 {
                return Err(HttpError::BadRequest("truncated chunked body".into()));
            }
            self.pos = 0;
            self.filled = n;
        }
    }

    /// Reads the rest of the body into memory, for routes that need it
    /// whole. The next pipelined request stays behind for
    /// [`ChunkedBody::take_leftover`].
    ///
    /// # Errors
    ///
    /// As [`ChunkedBody::next_run`], plus `413` once the decoded body
    /// passes `max_body`.
    pub fn read_all(
        &mut self,
        stream: &mut TcpStream,
        max_body: usize,
    ) -> Result<Vec<u8>, HttpError> {
        let mut body = Vec::new();
        while let Some(run) = self.next_run(stream)? {
            if body.len() + run.len() > max_body {
                return Err(HttpError::PayloadTooLarge);
            }
            body.extend_from_slice(run);
        }
        Ok(body)
    }

    /// The bytes read past the chunked terminator — the start of the
    /// next pipelined request. Meaningful only once `next_run` has
    /// returned `None`; draining empties the reader's buffer.
    #[must_use]
    pub fn take_leftover(&mut self) -> Vec<u8> {
        let rest = self.buf[self.pos..self.filled].to_vec();
        self.pos = self.filled;
        rest
    }
}

// The field rules below are shared by the request parser and the
// response reader in [`crate::client`], so both ends of every hop frame
// messages the same way.

/// Position of the `\r\n\r\n` that ends the head at the front of `buf`,
/// or `None` while the head is still incomplete.
///
/// # Errors
///
/// `431` once the head — complete or not — is longer than `max_head`
/// bytes, so the verdict never depends on how reads split the bytes.
pub(crate) fn find_head(buf: &[u8], max_head: usize) -> Result<Option<usize>, HttpError> {
    match buf.windows(4).position(|w| w == b"\r\n\r\n") {
        Some(end) if end + 4 <= max_head => Ok(Some(end)),
        None if buf.len() <= max_head => Ok(None),
        _ => Err(HttpError::HeadersTooLarge),
    }
}

/// Splits one header line into its name, as sent, and its value with
/// the optional surrounding whitespace trimmed.
///
/// # Errors
///
/// `400` for a line without a colon, and for an empty name or one that
/// holds whitespace: RFC 9112 §5.1 allows none between the name and the
/// colon, and `Content-Length : 5` is a smuggling vector, not a header.
pub(crate) fn split_field(line: &str) -> Result<(&str, &str), HttpError> {
    let (name, value) = line
        .split_once(':')
        .ok_or_else(|| HttpError::BadRequest(format!("malformed header `{line}`")))?;
    if name.is_empty() || name.chars().any(|c| c.is_ascii_whitespace()) {
        return Err(HttpError::BadRequest(format!(
            "malformed header name `{name}`"
        )));
    }
    Ok((name, value.trim()))
}

/// Checks a repeated `content-length` field against the first one.
///
/// # Errors
///
/// `400` unless the two agree (RFC 9110 §8.6): anything else is a
/// smuggling attempt.
pub(crate) fn same_length(first: &str, again: &str) -> Result<(), HttpError> {
    if first == again {
        Ok(())
    } else {
        Err(HttpError::BadRequest(
            "conflicting content-length headers".into(),
        ))
    }
}

/// Parses a `content-length` value: ASCII digits only (the surrounding
/// optional whitespace was already trimmed). Rust's `usize::parse` also
/// accepts `+42`, which HTTP does not.
pub(crate) fn parse_content_length(v: &str) -> Result<usize, HttpError> {
    if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
        return Err(HttpError::BadRequest(format!("bad content-length `{v}`")));
    }
    v.parse::<usize>()
        .map_err(|_| HttpError::BadRequest(format!("bad content-length `{v}`")))
}

fn parse_request_line(line: &str) -> Result<(String, String, String, bool), HttpError> {
    let mut parts = line.split(' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::BadRequest(format!(
            "malformed request line `{line}`"
        )));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "unsupported protocol `{version}`"
        )));
    }
    let http11 = version != "HTTP/1.0";
    if method.is_empty() || !method.chars().all(|c| c.is_ascii_uppercase()) {
        return Err(HttpError::BadRequest(format!("bad method `{method}`")));
    }
    if !target.starts_with('/') {
        return Err(HttpError::BadRequest(format!(
            "bad request target `{target}`"
        )));
    }
    // Split the query string off; the API is mostly body-driven but
    // `/metrics` selects its format with `?format=...`.
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    Ok((method.to_string(), path, query, http11))
}

/// An HTTP response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond the always-present set.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// Whether serialization advertises `connection: keep-alive`
    /// (the server will read another request off this connection)
    /// instead of the default `connection: close`.
    pub keep_alive: bool,
}

/// Appends the JSON error object `{"error": message}` to `out`: the
/// body of every error response, and the item a failed `/v1/batch`
/// entry answers with.
pub(crate) fn write_error(out: &mut String, message: &str) {
    out.push_str("{\"error\":");
    dram_units::json::write_string(out, message);
    out.push('}');
}

impl Response {
    /// A JSON response with the given status.
    #[must_use]
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            headers: Vec::new(),
            body: body.into_bytes(),
            content_type: "application/json",
            keep_alive: false,
        }
    }

    /// A JSON error body `{"error": ...}` with the given status.
    #[must_use]
    pub fn error(status: u16, message: &str) -> Self {
        let mut body = String::new();
        write_error(&mut body, message);
        Self::json(status, body)
    }

    /// Adds a header field.
    #[must_use]
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Sets the connection disposition the serialized response
    /// advertises. The emitted header always matches what the server
    /// then does: callers decide, the response never promises reuse the
    /// connection handler won't honor.
    #[must_use]
    pub fn with_keep_alive(mut self, keep_alive: bool) -> Self {
        self.keep_alive = keep_alive;
        self
    }

    /// The reason phrase for the statuses this service emits.
    #[must_use]
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            502 => "Bad Gateway",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serializes the response (status line, headers, body) to bytes.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            Self::reason(self.status),
            self.content_type,
            self.body.len(),
            if self.keep_alive {
                "keep-alive"
            } else {
                "close"
            },
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        let mut out = head.into_bytes();
        out.extend_from_slice(&self.body);
        out
    }

    /// Writes the response, waiting in `poll(POLLOUT)` for at most
    /// `io_timeout` whenever the send buffer is full — the
    /// [`Limits::io_timeout`] contract on the write side. On a blocking
    /// socket the write itself blocks and `io_timeout` does not apply.
    ///
    /// A hard failure (peer gone, wait ran out) is returned so the
    /// caller can log it — the caller must *not* attempt a second
    /// response on the same connection, the stream state is unknown.
    ///
    /// # Errors
    ///
    /// The first write error, if any.
    pub fn send_within(&self, stream: &mut TcpStream, io_timeout: Duration) -> io::Result<()> {
        let bytes = self.to_bytes();
        // Fault site: a `delay` rule stalls the write (served inside the
        // trip); a `short` rule fragments it — the full response is
        // still delivered, split mid-stream, so a client that can't
        // reassemble partial writes is flushed out by chaos testing
        // without ever corrupting a response.
        if let Some(inj) = dram_faults::trip("http.write") {
            if inj.kind == dram_faults::Kind::Short {
                let (head, tail) = bytes.split_at(bytes.len() / 2);
                write_within(stream, head, io_timeout)?;
                return write_within(stream, tail, io_timeout);
            }
        }
        write_within(stream, &bytes, io_timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_line_parses_and_rejects() {
        assert_eq!(
            parse_request_line("GET /healthz HTTP/1.1").unwrap(),
            ("GET".into(), "/healthz".into(), String::new(), true)
        );
        assert_eq!(
            parse_request_line("POST /v1/evaluate?x=1 HTTP/1.0").unwrap(),
            ("POST".into(), "/v1/evaluate".into(), "x=1".into(), false)
        );
        for bad in [
            "",
            "GET",
            "GET /x",
            "GET /x HTTP/2 extra",
            "get /x HTTP/1.1",
            "GET x HTTP/1.1",
            "GET /x FTP/1.1",
        ] {
            assert!(parse_request_line(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn query_params_split_on_ampersand_and_equals() {
        let req = Request {
            method: "GET".into(),
            path: "/metrics".into(),
            query: "format=prometheus&flag&x=a=b".into(),
            headers: HashMap::new(),
            body: Vec::new(),
            http11: true,
        };
        assert_eq!(req.query_param("format"), Some("prometheus"));
        assert_eq!(req.query_param("flag"), Some(""));
        // Only the first `=` separates key from value.
        assert_eq!(req.query_param("x"), Some("a=b"));
        assert_eq!(req.query_param("missing"), None);
        let bare = Request {
            query: String::new(),
            ..req
        };
        assert_eq!(bare.query_param("format"), None);
    }

    #[test]
    fn response_serializes_with_framing() {
        let r = Response::json(200, "{\"ok\":true}".into()).with_header("retry-after", "1");
        let text = String::from_utf8(r.to_bytes()).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
        // Opting into reuse flips the advertised disposition.
        let kept = Response::json(200, "{}".into()).with_keep_alive(true);
        let text = String::from_utf8(kept.to_bytes()).unwrap();
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(!text.contains("connection: close\r\n"));
    }

    #[test]
    fn header_token_lists_are_case_insensitive() {
        assert!(header_has_token("Chunked", "chunked"));
        assert!(header_has_token("identity, Chunked", "chunked"));
        assert!(header_has_token("Keep-Alive, TE", "keep-alive"));
        assert!(header_has_token(" close ", "close"));
        assert!(!header_has_token("keep-alive-ish", "keep-alive"));
        assert!(!header_has_token("chunk", "chunked"));
        assert!(!header_has_token("", "chunked"));
    }

    fn req_with(version11: bool, connection: Option<&str>) -> Request {
        let mut headers = HashMap::new();
        if let Some(v) = connection {
            headers.insert("connection".to_string(), v.to_string());
        }
        Request {
            method: "GET".into(),
            path: "/healthz".into(),
            query: String::new(),
            headers,
            body: Vec::new(),
            http11: version11,
        }
    }

    #[test]
    fn keep_alive_follows_tokens_then_version_default() {
        // HTTP/1.1 persists by default; 1.0 closes by default.
        assert!(req_with(true, None).wants_keep_alive());
        assert!(!req_with(false, None).wants_keep_alive());
        // Tokens are case-insensitive list members and beat the default.
        assert!(!req_with(true, Some("Close")).wants_keep_alive());
        assert!(req_with(false, Some("Keep-Alive, TE")).wants_keep_alive());
        // `close` wins when a confused client sends both.
        assert!(!req_with(true, Some("keep-alive, close")).wants_keep_alive());
        // Unrelated connection options fall back to the version default.
        assert!(req_with(true, Some("TE")).wants_keep_alive());
        assert!(!req_with(false, Some("TE")).wants_keep_alive());
    }

    #[test]
    fn error_statuses_map() {
        assert_eq!(HttpError::BadRequest("x".into()).status(), 400);
        assert_eq!(HttpError::Timeout.status(), 408);
        assert_eq!(HttpError::PayloadTooLarge.status(), 413);
        assert_eq!(HttpError::HeadersTooLarge.status(), 431);
    }

    fn decode_chunked(input: &[u8], piece: usize) -> Result<Vec<u8>, HttpError> {
        let mut d = ChunkedDecoder::new(1024 * 1024);
        let mut out = Vec::new();
        let mut offset = 0;
        while offset < input.len() && !d.is_done() {
            let end = (offset + piece.max(1)).min(input.len());
            let used = d.advance(&input[offset..end], &mut out)?;
            offset += used;
            if used == 0 {
                break;
            }
        }
        if !d.is_done() {
            return Err(HttpError::BadRequest("incomplete".into()));
        }
        Ok(out)
    }

    #[test]
    fn chunked_decoder_reassembles_across_any_split() {
        let wire = b"4\r\nWiki\r\n5\r\npedia\r\nF\r\n in \r\n\r\nchunks.\r\n0\r\n\r\n";
        let whole = decode_chunked(wire, wire.len()).unwrap();
        assert_eq!(whole, b"Wikipedia in \r\n\r\nchunks.");
        for piece in 1..=7 {
            assert_eq!(decode_chunked(wire, piece).unwrap(), whole, "piece {piece}");
        }
    }

    #[test]
    fn chunked_decoder_ignores_extensions_and_trailers() {
        let wire = b"5;ext=1;x\r\nhello\r\n0\r\nx-trailer: ignored\r\nanother: one\r\n\r\n";
        assert_eq!(decode_chunked(wire, 3).unwrap(), b"hello");
    }

    #[test]
    fn chunked_decoder_rejects_malformed_framing() {
        // Non-hex size.
        let err = decode_chunked(b"zz\r\nhi\r\n0\r\n\r\n", 100).unwrap_err();
        assert_eq!(err.status(), 400);
        // Missing CRLF after chunk data.
        let err = decode_chunked(b"2\r\nhiX\r\n0\r\n\r\n", 100).unwrap_err();
        assert_eq!(err.status(), 400);
        // Empty size line.
        let err = decode_chunked(b"\r\n\r\n", 100).unwrap_err();
        assert_eq!(err.status(), 400);
        // Oversized size line.
        let long = vec![b'1'; 2 * ChunkedDecoder::MAX_SIZE_LINE];
        let err = decode_chunked(&long, 100).unwrap_err();
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn chunked_decoder_enforces_limits() {
        // A chunk larger than the decoder's cap → 413 before any data.
        let mut d = ChunkedDecoder::new(16);
        let mut out = Vec::new();
        let err = d.advance(b"FFFF\r\n", &mut out).unwrap_err();
        assert_eq!(err, HttpError::PayloadTooLarge);
        assert!(out.is_empty());
        // Unbounded trailers → 431.
        let mut d = ChunkedDecoder::new(16);
        d.advance(b"0\r\n", &mut out).unwrap();
        let spam = vec![b'x'; ChunkedDecoder::MAX_TRAILER_BYTES + 2];
        let err = d.advance(&spam, &mut out).unwrap_err();
        assert_eq!(err, HttpError::HeadersTooLarge);
    }

    #[test]
    fn chunked_decoder_stops_at_terminator() {
        let mut d = ChunkedDecoder::new(1024);
        let mut out = Vec::new();
        let wire = b"2\r\nok\r\n0\r\n\r\ngarbage after";
        let used = d.advance(wire, &mut out).unwrap();
        assert!(d.is_done());
        assert_eq!(out, b"ok");
        // The decoder refuses to consume past the end; the leftover is
        // the caller's evidence of trailing garbage.
        assert_eq!(&wire[used..], b"garbage after");
    }

    /// A chunked encoding, with the places a fuzzer breaks it.
    struct Framed {
        wire: Vec<u8>,
        /// Each size line's offset, with the body bytes sent before it.
        sizes: Vec<(usize, usize)>,
        /// The offset of the CRLF after each chunk's data, with the body
        /// bytes sent through that chunk.
        data_ends: Vec<(usize, usize)>,
    }

    /// A chunked encoding of `body` in random chunk sizes up to
    /// `max_chunk`, each size in upper- or lower-case hex with leading
    /// zeros and an extension now and then, then the last chunk and up to
    /// two trailer fields.
    fn frame_chunked(body: &[u8], max_chunk: usize, next: &mut impl FnMut() -> usize) -> Framed {
        let (mut wire, mut sizes, mut data_ends) = (Vec::new(), Vec::new(), Vec::new());
        let size_line = |wire: &mut Vec<u8>, size: usize, next: &mut dyn FnMut() -> usize| {
            wire.resize(wire.len() + next() % 3, b'0');
            let hex = match next() % 2 {
                0 => format!("{size:x}"),
                _ => format!("{size:X}"),
            };
            wire.extend_from_slice(hex.as_bytes());
            if next().is_multiple_of(4) {
                wire.extend_from_slice([&b";ext"[..], b";name=value", b";a;b=\"c\""][next() % 3]);
            }
            wire.extend_from_slice(b"\r\n");
        };
        let mut sent = 0;
        while sent < body.len() {
            let size = (1 + next() % max_chunk).min(body.len() - sent);
            sizes.push((wire.len(), sent));
            size_line(&mut wire, size, next);
            wire.extend_from_slice(&body[sent..sent + size]);
            sent += size;
            data_ends.push((wire.len(), sent));
            wire.extend_from_slice(b"\r\n");
        }
        sizes.push((wire.len(), sent));
        size_line(&mut wire, 0, next);
        for _ in 0..next() % 3 {
            wire.extend_from_slice(b"x-checksum: 0a1b\r\n");
        }
        wire.extend_from_slice(b"\r\n");
        Framed {
            wire,
            sizes,
            data_ends,
        }
    }

    /// Feeds `wire` to `d` in random pieces until the decoder is done or
    /// fails. Returns the bytes consumed or the error, and the body.
    fn feed_in_pieces(
        d: &mut ChunkedDecoder,
        wire: &[u8],
        next: &mut impl FnMut() -> usize,
    ) -> (Result<usize, HttpError>, Vec<u8>) {
        let mut out = Vec::new();
        let mut offset = 0;
        while offset < wire.len() && !d.is_done() {
            let end = match next() % 4 {
                0 => wire.len(),
                _ => (offset + 1 + next() % 24).min(wire.len()),
            };
            match d.advance(&wire[offset..end], &mut out) {
                Ok(used) => offset += used,
                Err(e) => return (Err(e), out),
            }
        }
        (Ok(offset), out)
    }

    /// Seeded fuzz of chunked framing with exact expectations, over
    /// random bodies, chunk sizes, size spellings, trailers and read
    /// splits: a well-formed encoding decodes to exactly its body and
    /// stops at its end; a non-hex size digit or a byte other than CRLF
    /// after chunk data is a 400 and a chunk over `max_chunk` a 413, each
    /// after exactly the body bytes before it; trailers of 16 KiB pass
    /// and one byte more is a 431.
    #[test]
    fn fuzz_chunked_decoder_decodes_exactly() {
        let mut state = 0xfeed_f00d_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let bad_request = |r: &Result<usize, HttpError>| matches!(r, Err(HttpError::BadRequest(_)));
        for case in 0..2_000 {
            let body: Vec<u8> = (0..next() % 700).map(|_| next() as u8).collect();
            let max_chunk = 1 + next() % 300;
            let Framed {
                mut wire,
                sizes,
                data_ends,
            } = frame_chunked(&body, max_chunk, &mut next);
            let framed = wire.len();
            if next().is_multiple_of(4) {
                wire.extend_from_slice(b"POST / HTTP/1.1\r\n");
            }
            let mut d = ChunkedDecoder::new(max_chunk);
            let (consumed, out) = feed_in_pieces(&mut d, &wire, &mut next);
            assert_eq!(consumed, Ok(framed), "case {case}");
            assert!(d.is_done(), "case {case}");
            assert_eq!(out, body, "case {case}");

            let mut wire = wire[..framed].to_vec();
            let (at, before) = sizes[next() % sizes.len()];
            match next() % 3 {
                0 => {
                    // A non-hex byte in place of one size digit.
                    let digits = wire[at..]
                        .iter()
                        .take_while(|b| b.is_ascii_hexdigit())
                        .count();
                    wire[at + next() % digits] = b"gGxz-+.\xff"[next() % 8];
                    let mut d = ChunkedDecoder::new(max_chunk);
                    let (result, out) = feed_in_pieces(&mut d, &wire, &mut next);
                    assert!(bad_request(&result), "case {case}: {result:?}");
                    assert_eq!(out, body[..before], "case {case}");
                }
                1 if !data_ends.is_empty() => {
                    // A byte other than the CR or LF due after chunk data.
                    let (end, sent) = data_ends[next() % data_ends.len()];
                    let at = end + next() % 2;
                    let mut byte = next() as u8;
                    if byte == wire[at] {
                        byte ^= 1;
                    }
                    wire[at] = byte;
                    let mut d = ChunkedDecoder::new(max_chunk);
                    let (result, out) = feed_in_pieces(&mut d, &wire, &mut next);
                    assert!(bad_request(&result), "case {case}: {result:?}");
                    assert_eq!(out, body[..sent], "case {case}");
                }
                _ => {
                    // One size line over the cap.
                    let digits = wire[at..]
                        .iter()
                        .take_while(|b| b.is_ascii_hexdigit())
                        .count();
                    let over = format!("{:x}", max_chunk + 1 + next() % 4096);
                    wire.splice(at..at + digits, over.bytes());
                    let mut d = ChunkedDecoder::new(max_chunk);
                    let (result, out) = feed_in_pieces(&mut d, &wire, &mut next);
                    assert_eq!(result, Err(HttpError::PayloadTooLarge), "case {case}");
                    assert_eq!(out, body[..before], "case {case}");
                }
            }
        }
        // Trailers, terminating CRLF included, may take 16 KiB exactly.
        for extra in [0, 1] {
            let field = b"x-pad: ";
            let fill = ChunkedDecoder::MAX_TRAILER_BYTES + extra - field.len() - 4;
            let wire = [
                &b"3\r\nabc\r\n0\r\n"[..],
                field,
                &vec![b'p'; fill],
                b"\r\n\r\n",
            ]
            .concat();
            let mut d = ChunkedDecoder::new(16);
            let (result, out) = feed_in_pieces(&mut d, &wire, &mut next);
            assert_eq!(out, b"abc");
            match extra {
                0 => assert_eq!((result, d.is_done()), (Ok(wire.len()), true)),
                _ => assert_eq!(result, Err(HttpError::HeadersTooLarge)),
            }
        }
    }

    /// A request as the parser hands it on, body read to its end.
    #[derive(Debug, Clone, PartialEq)]
    struct Parsed {
        method: String,
        path: String,
        query: String,
        headers: std::collections::BTreeMap<String, String>,
        body: Vec<u8>,
        http11: bool,
    }

    /// Parses `wire` as one request off a loopback connection: the first
    /// `split` bytes are the carry an earlier read left, the rest arrive
    /// on the socket, which the peer then shuts.
    fn parse_split(
        listener: &std::net::TcpListener,
        wire: &[u8],
        split: usize,
        limits: &Limits,
    ) -> Result<Parsed, ReadError> {
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut stream, _) = listener.accept().unwrap();
        peer.write_all(&wire[split..]).unwrap();
        peer.shutdown(std::net::Shutdown::Write).unwrap();
        let carry = wire[..split].to_vec();
        let (request, body) = match read_inbound_after(&mut stream, limits, carry)? {
            Inbound::Buffered { mut request, .. } => {
                let body = std::mem::take(&mut request.body);
                (request, body)
            }
            Inbound::Streaming { request, mut body } => {
                let bytes = body.read_all(&mut stream, limits.max_body)?;
                (request, bytes)
            }
        };
        Ok(Parsed {
            method: request.method,
            path: request.path,
            query: request.query,
            headers: request.headers.into_iter().collect(),
            body,
            http11: request.http11,
        })
    }

    /// A random request for the head fuzzer, and what parsing it gives.
    struct Generated {
        wire: Vec<u8>,
        /// Bytes of the head, its blank line included.
        head_len: usize,
        expected: Parsed,
        /// Where the method sits, and the first `content-length` digits.
        method: std::ops::Range<usize>,
        digits: std::ops::Range<usize>,
        /// Whether the head declares a length or chunked framing.
        framed: bool,
    }

    /// A request with a random method, a target with or without a query,
    /// either version, fields in random letter case and padding (one
    /// repeated with different values), and no body, a `content-length`
    /// one (its field now and then repeated) or a chunked one.
    fn generate(next: &mut dyn FnMut() -> usize) -> Generated {
        let method = ["GET", "POST", "PUT", "DELETE", "PATCH", "OPTIONS", "QZX"][next() % 7];
        let path: String = (0..1 + next() % 3)
            .map(|_| ["/v1", "/evaluate", "/trace", "/x-9", "/a.b"][next() % 5])
            .collect();
        let query: Vec<String> = (0..next() % 3)
            .map(|i| format!("k{i}={}", next() % 1000))
            .collect();
        let query = query.join("&");
        let http11 = !next().is_multiple_of(4);
        let mut wire = format!("{method} {path}");
        if !query.is_empty() {
            wire.push('?');
            wire.push_str(&query);
        }
        wire.push_str(&format!(" HTTP/1.{}\r\n", u8::from(http11)));
        let mut headers = std::collections::BTreeMap::new();
        let mut digits = 0..0;
        let mut field = |name: &str, value: &str, next: &mut dyn FnMut() -> usize| {
            for c in name.chars() {
                let upper = c.to_ascii_uppercase();
                wire.push(if next().is_multiple_of(2) { upper } else { c });
            }
            let pad = [" ", "", "  ", "\t"][next() % 4];
            wire.push(':');
            wire.push_str(pad);
            if name == "content-length" && digits.is_empty() {
                digits = wire.len()..wire.len() + value.len();
            }
            for part in [value, pad, "\r\n"] {
                wire.push_str(part);
            }
            // Agreeing lengths collapse; other repeats join in order.
            headers
                .entry(name.to_string())
                .and_modify(|joined: &mut String| {
                    if name != "content-length" {
                        joined.push_str(", ");
                        joined.push_str(value);
                    }
                })
                .or_insert_with(|| value.to_string());
        };
        field("host", "dram", next);
        for i in 0..next() % 3 {
            field("x-tag", &format!("t{i}"), next);
        }
        let framing = next() % 3;
        let (body, encoded) = match framing {
            0 => (String::new(), String::new()),
            1 => {
                let body: String = (0..next() % 64)
                    .map(|_| char::from(b'a' + (next() % 26) as u8))
                    .collect();
                for _ in 0..1 + next() % 2 {
                    field("content-length", &body.len().to_string(), next);
                }
                (body.clone(), body)
            }
            _ => {
                field("transfer-encoding", "chunked", next);
                let encoded = "3\r\nabc\r\n5\r\ndefgh\r\n0\r\n\r\n";
                ("abcdefgh".to_string(), encoded.to_string())
            }
        };
        for i in 0..next() % 4 {
            field(&format!("x-extra-{i}"), &"v".repeat(next() % 20), next);
        }
        wire.push_str("\r\n");
        let head_len = wire.len();
        wire.push_str(&encoded);
        Generated {
            wire: wire.into_bytes(),
            head_len,
            expected: Parsed {
                method: method.to_string(),
                path,
                query,
                headers,
                body: body.into_bytes(),
                http11,
            },
            method: 0..method.len(),
            digits,
            framed: framing != 0,
        }
    }

    /// Seeded fuzz of the request-head parser. The same bytes give the
    /// same request whatever the read split; a flipped bit gives a
    /// request or a 400, and a flip that breaks the method or a length
    /// digit is always a 400; a head past `max_head` is a 431 whether or
    /// not its blank line has arrived; `content-length` beside chunked
    /// framing is a 400.
    #[test]
    fn fuzz_request_heads_fail_with_typed_errors() {
        let mut state = 0x5eed_4ead_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let limits = Limits::default();
        for case in 0..300 {
            let Generated {
                wire,
                head_len,
                expected,
                method,
                digits,
                framed,
            } = generate(&mut next);

            // Read splits: the same request wherever the carry ends.
            for split in [0, wire.len(), next() % (wire.len() + 1)] {
                let parsed = parse_split(&listener, &wire, split, &limits);
                assert_eq!(parsed, Ok(expected.clone()), "case {case} split {split}");
            }

            // One flipped bit in the head.
            let mut flipped = wire.clone();
            let at = next() % head_len;
            flipped[at] ^= 1 << (next() % 8);
            let broken = (method.contains(&at) && !flipped[at].is_ascii_uppercase())
                || (digits.contains(&at) && !flipped[at].is_ascii_digit());
            match parse_split(&listener, &flipped, next() % (wire.len() + 1), &limits) {
                Ok(_) => assert!(!broken, "case {case}: flip at {at} accepted"),
                Err(ReadError::Http(HttpError::BadRequest(_))) => {}
                Err(other) => panic!("case {case}: flip at {at} gave {other:?}"),
            }

            // Oversize, with and without the blank line.
            let unterminated = &wire[..head_len - 2];
            let tight = head_len - 1 - next() % 8;
            for (bytes, max_head) in [(&wire[..], tight), (unterminated, head_len - 3)] {
                let split = next() % (bytes.len() + 1);
                let oversize = parse_split(&listener, bytes, split, &Limits { max_head, ..limits });
                let want = Err(HttpError::HeadersTooLarge.into());
                assert_eq!(oversize, want, "case {case} max_head {max_head}");
            }

            // A length beside chunked framing, in either order.
            let mut smuggled = unterminated.to_vec();
            smuggled.extend_from_slice(match next() % 2 {
                0 => b"Content-Length: 3\r\ntransfer-encoding: Chunked\r\n",
                _ => b"Transfer-Encoding: chunked\r\ncontent-length: 3\r\n",
            });
            smuggled.extend_from_slice(b"\r\n3\r\nabc\r\n0\r\n\r\n");
            let split = next() % (smuggled.len() + 1);
            match parse_split(&listener, &smuggled, split, &limits) {
                Err(ReadError::Http(HttpError::BadRequest(m))) if !framed => {
                    assert!(m.contains("conflicts with chunked"), "case {case}: {m}");
                }
                // Beside the head's own framing a length conflicts or a
                // coding stacks: a 400 either way.
                Err(ReadError::Http(HttpError::BadRequest(_))) => {}
                other => panic!("case {case}: {other:?}"),
            }
        }
    }

    /// Seeded loopback test of the `Content-Length` body reader: a
    /// request with a random body, then a pipelined request, split at
    /// random between the bytes read with the head and the pieces a
    /// writer thread still sends. The body is exactly the declared bytes
    /// and what follows it exactly the pipelined request at every split;
    /// a body cut short is a 400 `truncated request body`.
    #[test]
    fn length_body_is_read_into_its_own_buffer() {
        let mut state = 0x1e46_b0d4_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let limits = Limits::default();
        let pipelined = b"GET /healthz HTTP/1.1\r\n\r\n";
        let mut truncated = 0;
        for case in 0..200 {
            let body: Vec<u8> = (0..next() % 40_000).map(|_| next() as u8).collect();
            let mut wire = format!(
                "POST /v1/evaluate HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes();
            wire.extend_from_slice(&body);
            let cut = !body.is_empty() && next() % 4 == 0;
            if cut {
                wire.truncate(wire.len() - 1 - next() % body.len());
            } else {
                wire.extend_from_slice(pipelined);
            }
            let split = next() % (wire.len() + 1);
            let pieces: Vec<usize> = (0..next() % 8).map(|_| 1 + next() % 4096).collect();
            let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (mut stream, _) = listener.accept().unwrap();
            let wire = &wire[..];
            let (got, behind) = std::thread::scope(|scope| {
                scope.spawn(move || {
                    let mut rest = &wire[split..];
                    for &n in &pieces {
                        let (piece, tail) = rest.split_at(n.min(rest.len()));
                        rest = tail;
                        peer.write_all(piece).unwrap();
                    }
                    peer.write_all(rest).unwrap();
                    peer.shutdown(std::net::Shutdown::Write).unwrap();
                });
                let got = read_inbound_after(&mut stream, &limits, wire[..split].to_vec());
                let mut behind = Vec::new();
                stream.read_to_end(&mut behind).unwrap();
                (got, behind)
            });
            match got {
                Ok(Inbound::Buffered { request, leftover }) if !cut => {
                    assert_eq!(request.body, body, "case {case} split {split}");
                    assert_eq!(
                        [leftover, behind].concat(),
                        pipelined,
                        "case {case} split {split}"
                    );
                }
                Err(ReadError::Http(HttpError::BadRequest(m))) if cut => {
                    assert_eq!(m, "truncated request body", "case {case} split {split}");
                    truncated += 1;
                }
                other => panic!("case {case} split {split} cut {cut}: {other:?}"),
            }
        }
        assert!(truncated > 20, "{truncated} truncated bodies");
    }

    /// Hands a [`ChunkedBody`] and the server's end of a loopback
    /// connection to `run`: the first `split` bytes of `wire` are what
    /// the head read left over, and the peer writes the rest in writes
    /// of the `pieces` sizes, then the remainder, then hangs up.
    fn with_chunked_body<T>(
        listener: &std::net::TcpListener,
        wire: &[u8],
        split: usize,
        pieces: &[usize],
        max_stream: usize,
        run: impl FnOnce(&mut ChunkedBody, &mut TcpStream) -> T,
    ) -> T {
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut stream, _) = listener.accept().unwrap();
        let limits = Limits {
            max_stream,
            ..Limits::default()
        };
        let deadline = Instant::now() + limits.request_deadline;
        let mut body = ChunkedBody::new(wire[..split].to_vec(), deadline, &limits);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut rest = &wire[split..];
                for &n in pieces {
                    let (piece, tail) = rest.split_at(n.min(rest.len()));
                    rest = tail;
                    if peer.write_all(piece).is_err() {
                        return;
                    }
                }
                let _ = peer.write_all(rest);
            });
            run(&mut body, &mut stream)
        })
    }

    /// Seeded loopback test of the in-place body reader over random
    /// bodies and chunkings, a `max_stream` of a few hundred bytes, and
    /// random splits between the bytes read with the head and the writes
    /// still on the wire. The runs it hands out concatenate to exactly
    /// the body; a framing error comes after exactly the body bytes
    /// before it; the 413 comes at the first decoded byte past the cap,
    /// after every byte up to it; and the bytes behind the terminator are
    /// exactly the pipelined request. A trace error before a chunk that
    /// passes the cap gets the same 400 at every split.
    #[test]
    fn chunked_body_judges_the_body_in_byte_order() {
        let mut state = 0xb0d1_0dd5_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let pipelined = b"GET /healthz HTTP/1.1\r\n\r\n";
        let mut verdicts = [0; 3];
        for case in 0..400 {
            let max_stream = 100 + next() % 300;
            let body: Vec<u8> = (0..next() % (2 * max_stream))
                .map(|_| next() as u8)
                .collect();
            // No chunk passes the cap alone, so only the running total
            // can.
            let Framed {
                mut wire,
                sizes,
                data_ends,
            } = frame_chunked(&body, 1 + next() % max_stream, &mut next);
            // The body bytes before the byte that breaks the framing.
            let mut broken_after = None;
            match next() % 3 {
                0 => {
                    let (at, before) = sizes[next() % sizes.len()];
                    let digits = wire[at..]
                        .iter()
                        .take_while(|b| b.is_ascii_hexdigit())
                        .count();
                    wire[at + next() % digits] = b"gGxz-+.\xff"[next() % 8];
                    broken_after = Some(before);
                }
                1 if !data_ends.is_empty() => {
                    let (end, sent) = data_ends[next() % data_ends.len()];
                    let at = end + next() % 2;
                    wire[at] = if wire[at] == b'x' { b'y' } else { b'x' };
                    broken_after = Some(sent);
                }
                _ => {}
            }
            let handed = broken_after.unwrap_or(body.len()).min(max_stream);
            wire.extend_from_slice(pipelined);
            let split = next() % (wire.len() + 1);
            let pieces: Vec<usize> = (0..next() % 6).map(|_| 1 + next() % 64).collect();
            let read = |body: &mut ChunkedBody, stream: &mut TcpStream| {
                let mut runs = Vec::new();
                let verdict = loop {
                    match body.next_run(stream) {
                        Ok(Some(run)) => {
                            assert!(!run.is_empty(), "case {case}: an empty run");
                            runs.extend_from_slice(run);
                        }
                        Ok(None) => break Ok(()),
                        Err(e) => break Err(e),
                    }
                };
                let mut behind = body.take_leftover();
                if verdict.is_ok() {
                    stream.read_to_end(&mut behind).unwrap();
                }
                (runs, verdict, behind)
            };
            let (runs, verdict, behind) =
                with_chunked_body(&listener, &wire, split, &pieces, max_stream, read);
            assert_eq!(runs, body[..handed], "case {case} split {split}");
            match broken_after {
                Some(before) if before <= max_stream => {
                    assert!(
                        matches!(verdict, Err(HttpError::BadRequest(_))),
                        "case {case}: {verdict:?}"
                    );
                    verdicts[1] += 1;
                }
                _ if body.len().min(broken_after.unwrap_or(usize::MAX)) > max_stream => {
                    assert_eq!(verdict, Err(HttpError::PayloadTooLarge), "case {case}");
                    verdicts[2] += 1;
                }
                _ => {
                    assert_eq!(verdict, Ok(()), "case {case}");
                    assert_eq!(behind, pipelined, "case {case} split {split}");
                    verdicts[0] += 1;
                }
            }
        }
        assert!(verdicts.iter().all(|&n| n > 50), "verdicts {verdicts:?}");

        // A trace error in the first chunk, then a chunk that takes the
        // body past the cap: the error comes first in the body, so it
        // answers whether or not one read holds both chunks.
        let first = b"0 act 0\n5 act 1\nbogus line\n";
        let second = b"# pad\n".repeat(40);
        let mut wire = Vec::new();
        for chunk in [&first[..], &second] {
            wire.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
            wire.extend_from_slice(chunk);
            wire.extend_from_slice(b"\r\n");
        }
        wire.extend_from_slice(b"0\r\n\r\n");
        let max_stream = 256;
        assert!(first.len() < max_stream && first.len() + second.len() > max_stream);
        let request = Request {
            method: "POST".into(),
            path: "/v1/trace".into(),
            query: "preset=ddr3_1g_x16_55nm".into(),
            headers: HashMap::new(),
            body: Vec::new(),
            http11: true,
        };
        let want = r#"{"error":"line 3: bad cycle \"bogus\"","kind":"syntax","line":3}"#;
        for split in 0..=wire.len() {
            let pieces = [1 + next() % 32, 1 + next() % 32];
            let serve = |body: &mut ChunkedBody, stream: &mut TcpStream| {
                crate::api::handle_trace_stream(&request, stream, body)
            };
            let (response, _) =
                with_chunked_body(&listener, &wire, split, &pieces, max_stream, serve);
            let answer = (response.status, String::from_utf8_lossy(&response.body));
            assert_eq!(answer, (400, want.into()), "split {split}");
        }
    }

    #[test]
    fn content_length_values_are_strictly_digits() {
        assert_eq!(parse_content_length("0").unwrap(), 0);
        assert_eq!(parse_content_length("42").unwrap(), 42);
        for bad in ["", "+42", "-1", "4 2", "0x10", "12a", "½"] {
            assert!(parse_content_length(bad).is_err(), "accepted `{bad}`");
        }
        // Larger than usize: classified as bad framing, not a panic.
        assert!(parse_content_length("99999999999999999999999999").is_err());
    }
}
