//! The workspace's one HTTP/1.1 client: a request writer for
//! `content-length` and chunked bodies, and a buffered response reader.
//!
//! `dram-route` reaches its nodes through it (forwarded requests, health
//! probes, `/metrics` scrapes), and so does every bench, test and
//! example that talks to a server.
//!
//! The reader parses header fields with the same helpers as the server's
//! request parser ([`crate::http`]): no whitespace in field names,
//! digits-only `content-length`, conflicting lengths rejected, and the
//! same head-size bound. A final response must carry a valid
//! `content-length` — [`Response::to_bytes`](crate::http::Response::to_bytes)
//! always writes one, so an unframed or chunked response is an error
//! here, never a body that runs to EOF. Interim `1xx` heads come back
//! with no body. Bytes read past the end of a response stay buffered
//! for the next one, so pipelined responses are never dropped.
//!
//! ```
//! use dram_server::client;
//!
//! let server = dram_server::serve("127.0.0.1:0", dram_server::ServerConfig::default())
//!     .expect("bind");
//! let reply = client::fetch(server.local_addr(), "GET", "/healthz", b"").expect("fetch");
//! assert_eq!(reply.status(), 200);
//! assert_eq!(reply.text(), r#"{"status":"ok"}"#);
//! server.shutdown();
//! ```

use std::borrow::Cow;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::http::{self, HttpError};

/// Bytes the reader asks the socket for at once.
const READ_SIZE: usize = 16 * 1024;

/// Read, write and connect timeout of [`fetch`].
pub const FETCH_TIMEOUT: Duration = Duration::from_secs(30);

/// The zero-size chunk and empty trailer section that end a chunked
/// body.
pub const LAST_CHUNK: &[u8] = b"0\r\n\r\n";

/// Why no response came off a connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// A socket read or write failed, timeouts included.
    Io(io::ErrorKind),
    /// The peer closed the connection before sending a byte of the
    /// response.
    Closed,
    /// The peer closed the connection part-way through a response.
    Truncated,
    /// The head grew past the head-size bound.
    HeadTooLarge,
    /// The status line is missing or is not `HTTP/1.x NNN reason`.
    StatusLine(String),
    /// A header field broke the shared field rules.
    Field(String),
    /// A final response without a `content-length`.
    NoLength,
    /// This many bytes followed the response on a connection that
    /// should have closed after it.
    Trailing(usize),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(kind) => write!(f, "i/o error: {kind}"),
            ClientError::Closed => f.write_str("connection closed before a response"),
            ClientError::Truncated => f.write_str("connection closed mid-response"),
            ClientError::HeadTooLarge => f.write_str("response head too large"),
            ClientError::StatusLine(line) => write!(f, "bad status line `{line}`"),
            ClientError::Field(message) => write!(f, "bad header: {message}"),
            ClientError::NoLength => f.write_str("final response without a content-length"),
            ClientError::Trailing(n) => write!(f, "{n} bytes after the last response"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::UnexpectedEof => ClientError::Truncated,
            kind => ClientError::Io(kind),
        }
    }
}

impl From<HttpError> for ClientError {
    fn from(e: HttpError) -> Self {
        match e {
            HttpError::HeadersTooLarge => ClientError::HeadTooLarge,
            other => ClientError::Field(other.message()),
        }
    }
}

/// A parsed response head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Head {
    /// Status code.
    pub status: u16,
    /// Header fields in arrival order: names lowercased, values with the
    /// surrounding whitespace trimmed.
    pub headers: Vec<(String, String)>,
    /// Body length: the `content-length` of a final response, 0 for an
    /// interim `1xx` head.
    pub content_length: usize,
    /// Whether the status line said `HTTP/1.1` rather than `HTTP/1.0`.
    http11: bool,
}

impl Head {
    /// The first value of header `name` (lowercase).
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find_map(|(n, v)| (n == name).then_some(v.as_str()))
    }

    /// The `retry-after` hint, when it is a whole number of seconds.
    #[must_use]
    pub fn retry_after(&self) -> Option<Duration> {
        self.header("retry-after")?
            .parse()
            .ok()
            .map(Duration::from_secs)
    }

    /// Whether the server will read another request on this connection:
    /// `Connection` tokens first (`close` wins), then the version
    /// default, as on the request side.
    #[must_use]
    pub fn keep_alive(&self) -> bool {
        http::keeps_alive(
            |token| {
                self.headers
                    .iter()
                    .any(|(n, v)| n == "connection" && http::header_has_token(v, token))
            },
            self.http11,
        )
    }
}

/// A complete response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// The head.
    pub head: Head,
    /// The body, exactly `head.content_length` bytes.
    pub body: Vec<u8>,
}

impl Reply {
    /// Status code.
    #[must_use]
    pub fn status(&self) -> u16 {
        self.head.status
    }

    /// The first value of header `name` (lowercase).
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.head.header(name)
    }

    /// The body as text, with invalid UTF-8 replaced.
    #[must_use]
    pub fn text(&self) -> Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }
}

/// A client connection: the socket and the bytes read from it that no
/// response has consumed yet.
///
/// Writes go straight to the socket. Reads through [`Read`] return the
/// buffered bytes first, so a test can still look for EOF or stray
/// bytes after the last response.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    /// `buf[start..end]` holds the unconsumed bytes.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Conn {
    /// Wraps a connected stream; its socket options are left as they
    /// are.
    #[must_use]
    pub fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            buf: Vec::new(),
            start: 0,
            end: 0,
        }
    }

    /// Connects within `timeout`, with `timeout` as the read and write
    /// timeout and Nagle off.
    ///
    /// # Errors
    ///
    /// Connect failures and socket-option failures.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Self::new(stream))
    }

    /// The underlying socket.
    #[must_use]
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Bytes read past the last consumed response: the start of a
    /// pipelined response, or bytes nothing asked for.
    #[must_use]
    pub fn buffered(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Reads one response head. An interim `1xx` head comes back as it
    /// is, with `content_length` 0; the final response follows it.
    ///
    /// # Errors
    ///
    /// [`ClientError::Closed`] if the peer closed before the first
    /// byte, [`ClientError::Truncated`] if it closed mid-head, socket
    /// errors, and the framing errors of the shared field rules.
    pub fn read_head(&mut self) -> Result<Head, ClientError> {
        loop {
            if let Some((head, used)) = parse_head(self.buffered(), http::DEFAULT_MAX_HEAD)? {
                self.start += used;
                return Ok(head);
            }
            if self.fill()? == 0 {
                return Err(if self.buffered().is_empty() {
                    ClientError::Closed
                } else {
                    ClientError::Truncated
                });
            }
        }
    }

    /// Reads a body of `length` bytes into memory. Memory grows with
    /// the bytes that arrive, not with the length a peer declares.
    ///
    /// # Errors
    ///
    /// [`ClientError::Truncated`] if the peer closes early, and socket
    /// errors.
    pub fn read_body(&mut self, length: usize) -> Result<Vec<u8>, ClientError> {
        let mut body = Vec::new();
        Read::take(&mut *self, length as u64).read_to_end(&mut body)?;
        if body.len() < length {
            return Err(ClientError::Truncated);
        }
        Ok(body)
    }

    /// The next run of body bytes, at most `remaining` of them: buffered
    /// bytes first, then one socket read capped at `remaining`, so a
    /// body read never pulls in the response after it. Relaying a body
    /// this way copies it once, from the socket to the caller's writer.
    ///
    /// # Errors
    ///
    /// [`ClientError::Truncated`] if the peer closes first, and socket
    /// errors.
    pub fn read_body_part(&mut self, remaining: usize) -> Result<&[u8], ClientError> {
        if remaining == 0 {
            return Ok(&[]);
        }
        if self.start == self.end {
            if self.buf.is_empty() {
                self.buf.resize(READ_SIZE, 0);
            }
            let want = remaining.min(self.buf.len());
            let n = self.stream.read(&mut self.buf[..want])?;
            if n == 0 {
                return Err(ClientError::Truncated);
            }
            self.start = 0;
            self.end = n;
        }
        Ok(self.take_buffered(remaining))
    }

    /// Consumes up to `max` buffered bytes without touching the socket:
    /// the part of a body that arrived with its head.
    pub(crate) fn take_buffered(&mut self, max: usize) -> &[u8] {
        let from = self.start;
        self.start += (self.end - from).min(max);
        &self.buf[from..self.start]
    }

    /// Reads one response, head and body.
    ///
    /// # Errors
    ///
    /// As [`Conn::read_head`] and [`Conn::read_body`].
    pub fn read_response(&mut self) -> Result<Reply, ClientError> {
        let head = self.read_head()?;
        let body = self.read_body(head.content_length)?;
        Ok(Reply { head, body })
    }

    /// Reads the one response of a `connection: close` exchange, then
    /// waits for the close. Once the peer has closed, the server is done
    /// with the request, its accounting included.
    ///
    /// # Errors
    ///
    /// As [`Conn::read_response`], and [`ClientError::Trailing`] when
    /// bytes follow the response.
    pub fn read_to_close(&mut self) -> Result<Reply, ClientError> {
        let reply = self.read_response()?;
        let mut rest = Vec::new();
        self.read_to_end(&mut rest)?;
        if rest.is_empty() {
            Ok(reply)
        } else {
            Err(ClientError::Trailing(rest.len()))
        }
    }

    /// Reads more bytes behind the unconsumed ones; returns how many,
    /// 0 at EOF.
    fn fill(&mut self) -> io::Result<usize> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            // The unconsumed bytes fill the buffer: grow it. `parse_head`
            // bounds the growth at the head-size limit.
            self.buf.resize((2 * self.buf.len()).max(READ_SIZE), 0);
        }
        let n = self.stream.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }
}

impl Read for Conn {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if self.start == self.end {
            return self.stream.read(out);
        }
        let n = (self.end - self.start).min(out.len());
        out[..n].copy_from_slice(&self.buf[self.start..self.start + n]);
        self.start += n;
        Ok(n)
    }
}

impl Write for Conn {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.stream.write(bytes)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

/// One close-per-request exchange: connects to `addr`, sends `body` as
/// JSON with `connection: close`, and reads the reply and the close,
/// all under [`FETCH_TIMEOUT`].
///
/// # Errors
///
/// Connect and write failures as [`ClientError::Io`], and everything
/// [`Conn::read_to_close`] reports.
pub fn fetch(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
) -> Result<Reply, ClientError> {
    let mut conn = Conn::connect(addr, FETCH_TIMEOUT)?;
    let host = addr.to_string();
    let headers = [
        ("host", host.as_str()),
        ("content-type", "application/json"),
        ("connection", "close"),
    ];
    conn.write_all(&request(method, target, &headers, body))?;
    conn.read_to_close()
}

/// Serializes a request with a `content-length` body: the request line,
/// `headers` in order, the length, a blank line, then `body`.
#[must_use]
pub fn request(method: &str, target: &str, headers: &[(&str, &str)], body: &[u8]) -> Vec<u8> {
    let mut out = request_line(method, target, headers, body.len());
    out.extend_from_slice(format!("content-length: {}\r\n\r\n", body.len()).as_bytes());
    out.extend_from_slice(body);
    out
}

/// Serializes the head of a request whose body follows in chunks,
/// written with [`write_chunk`] and ended by [`LAST_CHUNK`].
#[must_use]
pub fn chunked_head(method: &str, target: &str, headers: &[(&str, &str)]) -> Vec<u8> {
    let mut out = request_line(method, target, headers, 0);
    out.extend_from_slice(b"transfer-encoding: chunked\r\n\r\n");
    out
}

/// The request line and `headers`, with room for `extra` more bytes.
fn request_line(method: &str, target: &str, headers: &[(&str, &str)], extra: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(128 + extra);
    for part in [method, " ", target, " HTTP/1.1\r\n"] {
        out.extend_from_slice(part.as_bytes());
    }
    for (name, value) in headers {
        for part in [*name, ": ", *value, "\r\n"] {
            out.extend_from_slice(part.as_bytes());
        }
    }
    out
}

/// Writes `data` as one chunk of a chunked body. Empty `data` writes
/// nothing, because a zero-size chunk would end the body.
///
/// # Errors
///
/// The first write error.
pub fn write_chunk(w: &mut impl Write, data: &[u8]) -> io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    w.write_all(format!("{:x}\r\n", data.len()).as_bytes())?;
    w.write_all(data)?;
    w.write_all(b"\r\n")
}

/// Parses the response head at the front of `buf`. Returns the head and
/// its length in bytes, terminator included, or `None` while the head
/// is still incomplete.
fn parse_head(buf: &[u8], max_head: usize) -> Result<Option<(Head, usize)>, ClientError> {
    let Some(end) = http::find_head(buf, max_head)? else {
        return Ok(None);
    };
    let text = std::str::from_utf8(&buf[..end])
        .map_err(|_| ClientError::Field("response head is not UTF-8".into()))?;
    let mut lines = text.split("\r\n");
    let (status, http11) = parse_status_line(lines.next().unwrap_or_default())?;
    let mut headers = Vec::new();
    let mut length = None;
    for line in lines {
        let (name, value) = http::split_field(line)?;
        let name = name.to_ascii_lowercase();
        match name.as_str() {
            "content-length" => match length {
                Some(first) => http::same_length(first, value)?,
                None => length = Some(value),
            },
            "transfer-encoding" => {
                return Err(ClientError::Field(format!(
                    "unsupported response transfer-encoding `{value}`"
                )));
            }
            _ => {}
        }
        headers.push((name, value.to_string()));
    }
    let declared = length.map(http::parse_content_length).transpose()?;
    let content_length = match declared {
        _ if status < 200 => 0,
        Some(n) => n,
        None => return Err(ClientError::NoLength),
    };
    let head = Head {
        status,
        headers,
        content_length,
        http11,
    };
    Ok(Some((head, end + 4)))
}

/// Parses `HTTP/1.x NNN reason`; returns the status and whether the
/// version is 1.1.
fn parse_status_line(line: &str) -> Result<(u16, bool), ClientError> {
    let bad = || ClientError::StatusLine(line.chars().take(80).collect());
    let (version, rest) = line.split_once(' ').ok_or_else(bad)?;
    if !version.starts_with("HTTP/1.") {
        return Err(bad());
    }
    let (code, reason) = rest.split_at_checked(3).ok_or_else(bad)?;
    if !code.bytes().all(|b| b.is_ascii_digit()) || !(reason.is_empty() || reason.starts_with(' '))
    {
        return Err(bad());
    }
    let status: u16 = code.parse().map_err(|_| bad())?;
    if !(100..600).contains(&status) {
        return Err(bad());
    }
    Ok((status, version != "HTTP/1.0"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAX_HEAD: usize = http::DEFAULT_MAX_HEAD;

    fn parse(bytes: &[u8]) -> Result<Option<(Head, usize)>, ClientError> {
        parse_head(bytes, MAX_HEAD)
    }

    #[test]
    fn heads_parse_with_lowercased_names_and_trimmed_values() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                     Content-Length:  2 \r\nconnection: keep-alive\r\n\r\n{}";
        let (head, used) = parse(wire).unwrap().expect("complete");
        assert_eq!(used, wire.len() - 2);
        assert_eq!(head.status, 200);
        assert_eq!(head.content_length, 2);
        assert_eq!(head.header("content-type"), Some("application/json"));
        assert_eq!(head.header("content-length"), Some("2"));
        assert!(head.keep_alive());
        // Incomplete heads ask for more bytes.
        assert_eq!(parse(&wire[..20]).unwrap(), None);
    }

    #[test]
    fn interim_heads_have_no_body() {
        let (head, used) = parse(b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK")
            .unwrap()
            .expect("complete");
        assert_eq!((head.status, head.content_length, used), (100, 0, 25));
    }

    #[test]
    fn connection_tokens_then_version_decide_reuse() {
        let head = |wire: &[u8]| parse(wire).unwrap().expect("complete").0;
        assert!(head(b"HTTP/1.1 200 OK\r\ncontent-length: 0\r\n\r\n").keep_alive());
        assert!(!head(b"HTTP/1.0 200 OK\r\ncontent-length: 0\r\n\r\n").keep_alive());
        assert!(
            head(b"HTTP/1.0 200 OK\r\ncontent-length: 0\r\nconnection: Keep-Alive\r\n\r\n")
                .keep_alive()
        );
        assert!(
            !head(b"HTTP/1.1 200 OK\r\ncontent-length: 0\r\nConnection: TE, close\r\n\r\n")
                .keep_alive()
        );
    }

    #[test]
    fn framing_follows_the_request_parser_rules() {
        let err = |wire: &[u8]| parse(wire).unwrap_err();
        // Conflicting and signed lengths, and whitespace before the colon.
        assert!(matches!(
            err(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\ncontent-length: 5\r\n\r\n"),
            ClientError::Field(m) if m.contains("conflicting")
        ));
        assert!(matches!(
            err(b"HTTP/1.1 200 OK\r\ncontent-length: +5\r\n\r\n"),
            ClientError::Field(m) if m.contains("bad content-length")
        ));
        assert!(matches!(
            err(b"HTTP/1.1 200 OK\r\ncontent-length : 5\r\n\r\n"),
            ClientError::Field(m) if m.contains("malformed header name")
        ));
        // Agreeing repeats are fine.
        let (head, _) = parse(b"HTTP/1.1 200 OK\r\ncontent-length: 3\r\ncontent-length: 3\r\n\r\n")
            .unwrap()
            .expect("complete");
        assert_eq!(head.content_length, 3);
        // A final response must be length-framed; chunked is not decoded.
        assert_eq!(
            err(b"HTTP/1.1 200 OK\r\nconnection: close\r\n\r\n"),
            ClientError::NoLength
        );
        assert!(matches!(
            err(b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\ncontent-length: 1\r\n\r\n"),
            ClientError::Field(_)
        ));
    }

    #[test]
    fn status_lines_are_checked() {
        for bad in [
            "",
            "HTTP/1.1",
            "HTTP/1.1 ",
            "HTTP/1.1 20",
            "HTTP/1.1 2000 OK",
            "HTTP/1.1 abc OK",
            "HTTP/1.1 099 Low",
            "HTTP/1.1 600 High",
            "HTTP/2 200 OK",
            "content-length: 0",
        ] {
            let wire = format!("{bad}\r\ncontent-length: 0\r\n\r\n");
            assert!(
                matches!(parse(wire.as_bytes()), Err(ClientError::StatusLine(_))),
                "accepted `{bad}`"
            );
        }
        // A status with no reason phrase is legal.
        let (head, _) = parse(b"HTTP/1.1 204\r\ncontent-length: 0\r\n\r\n")
            .unwrap()
            .expect("complete");
        assert_eq!(head.status, 204);
    }

    #[test]
    fn requests_serialize_with_their_framing() {
        let wire = request("POST", "/v1/evaluate", &[("host", "t")], b"{}");
        assert_eq!(
            wire,
            b"POST /v1/evaluate HTTP/1.1\r\nhost: t\r\ncontent-length: 2\r\n\r\n{}"
        );
        let mut wire = chunked_head("POST", "/v1/trace", &[]);
        write_chunk(&mut wire, b"0123456789abcdef!").unwrap();
        write_chunk(&mut wire, b"").unwrap();
        wire.extend_from_slice(LAST_CHUNK);
        assert_eq!(
            wire,
            b"POST /v1/trace HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n\
              11\r\n0123456789abcdef!\r\n0\r\n\r\n"
        );
    }

    /// Seeded fuzz of the head parser. Split points never change the
    /// outcome; bit flips, oversize heads and broken status lines each
    /// end in the typed error their damage calls for, never a panic.
    #[test]
    fn fuzz_response_heads_fail_with_typed_errors() {
        let mut state = 0x5eed_c11e_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let valid = |status: u32, length: u32, extra: u32| {
            let mut wire = format!(
                "HTTP/1.1 {status} X\r\ncontent-type: application/json\r\n\
                 content-length: {length}\r\nx-request-id: 19a-{extra:08x}\r\n"
            );
            for i in 0..extra % 4 {
                wire.push_str(&format!("x-extra-{i}: {}\r\n", "v".repeat(i as usize * 7)));
            }
            wire.push_str("\r\n");
            wire.into_bytes()
        };
        // Parses `wire` fed in pieces cut at random points, as socket
        // reads would deliver it.
        fn by_pieces(
            wire: &[u8],
            max_head: usize,
            next: &mut impl FnMut() -> u32,
        ) -> Result<Option<(Head, usize)>, ClientError> {
            let mut end = 0;
            loop {
                end = (end + 1 + (next() % 40) as usize).min(wire.len());
                match parse_head(&wire[..end], max_head) {
                    Ok(None) if end < wire.len() => continue,
                    outcome => return outcome,
                }
            }
        }

        for _ in 0..400 {
            let status = 100 + next() % 500;
            let (length, extra) = (next() % 100_000, next());
            let mut wire = valid(status, length, extra);
            let head_len = wire.len();
            // The start of a pipelined response: never part of the head.
            wire.extend_from_slice(b"HTTP/1.1 200 OK\r\n");

            // Split points: the same head whatever the reads.
            let whole = parse_head(&wire, MAX_HEAD).unwrap().expect("complete");
            assert_eq!(whole.1, head_len);
            let want = if status < 200 { 0 } else { length as usize };
            assert_eq!(
                (whole.0.status, whole.0.content_length),
                (status as u16, want)
            );
            assert_eq!(
                by_pieces(&wire, MAX_HEAD, &mut next).unwrap(),
                Some(whole.clone())
            );

            // One flipped bit: a typed error or a head, and a flip that
            // breaks a status digit or a length digit is always caught.
            // The status digits sit at 9..12 (`HTTP/1.1 NNN X\r\n`).
            let digits = {
                let text = String::from_utf8_lossy(&wire);
                let from = text.find("content-length: ").unwrap() + 16;
                from..from + length.to_string().len()
            };
            let mut flipped = wire[..head_len].to_vec();
            let at = (next() as usize) % flipped.len();
            flipped[at] ^= 1 << (next() % 8);
            let digit_broken =
                ((9..12).contains(&at) || digits.contains(&at)) && !flipped[at].is_ascii_digit();
            match parse_head(&flipped, MAX_HEAD) {
                Ok(_) => assert!(!digit_broken, "digit flip at {at} accepted"),
                Err(ClientError::StatusLine(_)) => assert!(at < 16, "status error from byte {at}"),
                Err(ClientError::Field(_)) => {}
                Err(ClientError::NoLength) => assert!(!digit_broken && status >= 200),
                Err(other) => panic!("flip at {at} gave {other:?}"),
            }

            // Oversize: a head past the bound fails the same way whether
            // its terminator has arrived or not.
            let tight = head_len - 1 - (next() as usize % 8);
            assert_eq!(parse_head(&wire, tight), Err(ClientError::HeadTooLarge));
            assert_eq!(
                by_pieces(&wire, tight, &mut next),
                Err(ClientError::HeadTooLarge)
            );
            let unterminated = &wire[..head_len - 2];
            assert_eq!(
                parse_head(unterminated, unterminated.len() - 1),
                Err(ClientError::HeadTooLarge)
            );

            // A missing status line, then a garbage one.
            let fields = wire.iter().position(|&b| b == b'\n').unwrap() + 1;
            assert!(matches!(
                parse_head(&wire[fields..], MAX_HEAD),
                Err(ClientError::StatusLine(_))
            ));
            let mut garbage: Vec<u8> = (0..1 + next() % 30)
                .map(|_| b"HTP/1. 0123456789xyz"[(next() % 20) as usize])
                .collect();
            garbage.extend_from_slice(&wire[fields - 2..]);
            match parse_head(&garbage, MAX_HEAD) {
                Err(ClientError::StatusLine(_)) => {}
                // The draw spelled a valid status line by chance.
                Ok(Some(_)) => assert!(garbage.starts_with(b"HTTP/1.")),
                other => panic!("garbage status line gave {other:?}"),
            }
        }
    }

    /// Over-read bytes stay buffered for the next response, and a body
    /// relayed in parts never reads past its own end.
    #[test]
    fn pipelined_replies_keep_their_leftover() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.write_all(
                b"HTTP/1.1 100 Continue\r\n\r\n\
                  HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nhello\
                  HTTP/1.1 503 Service Unavailable\r\ncontent-length: 4\r\n\r\nbusy\
                  HTTP/1.1 200 OK\r\ncontent-length: 3\r\n\r\nabcHTTP/1.1 2",
            )
            .unwrap();
        });
        let mut conn = Conn::connect(addr, Duration::from_secs(5)).unwrap();
        server.join().unwrap();
        assert_eq!(conn.read_response().unwrap().status(), 100);
        let first = conn.read_response().unwrap();
        assert_eq!((first.status(), first.text().as_ref()), (200, "hello"));
        let busy = conn.read_response().unwrap();
        assert_eq!((busy.status(), busy.body.as_slice()), (503, &b"busy"[..]));
        let head = conn.read_head().unwrap();
        let mut relayed = Vec::new();
        let mut remaining = head.content_length;
        while remaining > 0 {
            let part = conn.read_body_part(remaining).unwrap();
            relayed.extend_from_slice(part);
            remaining -= part.len();
        }
        assert_eq!(relayed, b"abc");
        assert_eq!(conn.buffered(), b"HTTP/1.1 2");
        // The peer is gone mid-head: truncated, not closed.
        assert_eq!(conn.read_head(), Err(ClientError::Truncated));
    }

    #[test]
    fn read_to_close_waits_for_the_close_and_flags_stray_bytes() {
        for (wire, want) in [
            (
                &b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok"[..],
                Ok(200),
            ),
            (
                b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nokHTTP",
                Err(ClientError::Trailing(4)),
            ),
        ] {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let server = std::thread::spawn(move || {
                let (mut s, _) = listener.accept().unwrap();
                s.write_all(wire).unwrap();
            });
            let mut conn = Conn::connect(addr, Duration::from_secs(5)).unwrap();
            server.join().unwrap();
            assert_eq!(conn.read_to_close().map(|reply| reply.status()), want);
        }
    }

    #[test]
    fn length_digit_damage_is_a_field_error() {
        for bad in [
            "1x",
            "x",
            "",
            "1 2",
            "+1",
            "-1",
            "0x10",
            "99999999999999999999999",
        ] {
            let wire = format!("HTTP/1.1 200 OK\r\ncontent-length: {bad}\r\n\r\n");
            assert!(
                matches!(parse(wire.as_bytes()), Err(ClientError::Field(_))),
                "accepted `{bad}`"
            );
        }
    }
}
