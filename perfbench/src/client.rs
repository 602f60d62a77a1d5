//! A keep-alive HTTP/1.1 client for the server's `content-length`-framed
//! replies.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Connect, read and write timeout of every client socket.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Largest reply body accepted before allocating for it.
const MAX_BODY: usize = 64 * 1024 * 1024;

/// One response.
#[derive(Debug)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// The `x-request-id` header, when present.
    pub id: Option<String>,
    /// The body.
    pub body: Vec<u8>,
    /// The server announced `connection: close`.
    pub close: bool,
}

/// A persistent connection to one address. It reconnects on the next
/// request after the server closes the connection — a `connection:
/// close` reply, as at the server's per-connection request budget — or
/// after an I/O error.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    connects: u64,
}

impl Client {
    /// A client that connects on its first request.
    #[must_use]
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            conn: None,
            connects: 0,
        }
    }

    /// Connections opened so far, reconnects included.
    #[must_use]
    pub fn connects(&self) -> u64 {
        self.connects
    }

    /// Sends one request and reads its reply.
    ///
    /// # Errors
    ///
    /// Connect, write or read failures and malformed replies. The
    /// connection is dropped, so the next call reconnects.
    pub fn send(&mut self, request: &[u8]) -> io::Result<Reply> {
        if self.conn.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            self.connects += 1;
            self.conn = Some(BufReader::with_capacity(64 * 1024, stream));
        }
        let conn = self.conn.as_mut().expect("connected above");
        let result = conn
            .get_mut()
            .write_all(request)
            .and_then(|()| read_reply(conn));
        if !matches!(&result, Ok(reply) if !reply.close) {
            self.conn = None;
        }
        result
    }
}

fn malformed(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Reads one `content-length`-framed response.
fn read_reply(conn: &mut impl BufRead) -> io::Result<Reply> {
    let mut line = String::new();
    read_line(conn, &mut line)?;
    let status = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| malformed("bad status line"))?;
    let (mut id, mut length, mut close) = (None, None, false);
    loop {
        read_line(conn, &mut line)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| malformed("bad header line"))?;
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => length = value.parse::<usize>().ok(),
            "x-request-id" => id = Some(value.to_string()),
            "connection" => close = value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    let length = length
        .filter(|&n| n <= MAX_BODY)
        .ok_or_else(|| malformed("reply without a usable content-length"))?;
    let mut body = vec![0; length];
    conn.read_exact(&mut body)?;
    Ok(Reply {
        status,
        id,
        body,
        close,
    })
}

/// Reads one line into `line`, without its CRLF.
fn read_line(conn: &mut impl BufRead, line: &mut String) -> io::Result<()> {
    line.clear();
    if conn.read_line(line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-reply",
        ));
    }
    let kept = line.trim_end_matches(['\r', '\n']).len();
    line.truncate(kept);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_are_framed_by_content_length() {
        let wire = b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 2\r\n\
                     connection: keep-alive\r\nx-request-id: 19a-00000001\r\n\r\n{}\
                     HTTP/1.1 503 Service Unavailable\r\ncontent-length: 0\r\nconnection: close\r\n\r\n";
        let mut reader = &wire[..];
        let first = read_reply(&mut reader).expect("first reply");
        assert_eq!(first.status, 200);
        assert_eq!(first.body, b"{}");
        assert_eq!(first.id.as_deref(), Some("19a-00000001"));
        assert!(!first.close);
        let second = read_reply(&mut reader).expect("second reply");
        assert_eq!((second.status, second.close, second.id), (503, true, None));
        assert!(read_reply(&mut reader).is_err(), "nothing left to read");
    }

    #[test]
    fn replies_without_a_length_are_rejected() {
        let mut reader = &b"HTTP/1.1 200 OK\r\nconnection: close\r\n\r\n{}"[..];
        assert!(read_reply(&mut reader).is_err());
    }
}
