//! A blocking HTTP/1.1 client over `std::net`: one-shot requests and an
//! incremental reader for chunked NDJSON streams. Every socket carries
//! read and write deadlines, so a stalled server turns into an error,
//! never a hang.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// The deadline on every wait in the benchmark.
pub const DEADLINE: Duration = Duration::from_secs(30);

/// Opens a connection with the benchmark's deadlines applied.
pub fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let s = TcpStream::connect_timeout(&addr, DEADLINE)?;
    s.set_read_timeout(Some(DEADLINE))?;
    s.set_write_timeout(Some(DEADLINE))?;
    s.set_nodelay(true)?;
    Ok(s)
}

/// A complete response: status code and (de-chunked) body.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpResponse {
    pub status: u16,
    pub body: String,
}

fn write_request(s: &mut TcpStream, method: &str, path: &str, body: &str) -> io::Result<()> {
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes())
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn status_of(head: &str) -> io::Result<u16> {
    head.split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| bad("malformed status line"))
}

/// Sends one request and reads the whole response (the server closes
/// the connection after each).
///
/// # Errors
///
/// Connect / IO failures, deadlines, or a malformed response head.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<HttpResponse> {
    let mut s = connect(addr)?;
    write_request(&mut s, method, path, body)?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let (head, payload) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| bad("no header terminator"))?;
    let status = status_of(head)?;
    let body = if head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        let mut r = NdjsonReader::new(payload.as_bytes());
        let mut out = String::new();
        while let Some(line) = r.next_line()? {
            out.push_str(&line);
            out.push('\n');
        }
        out
    } else {
        payload.to_string()
    };
    Ok(HttpResponse { status, body })
}

/// Opens a streaming GET and returns the status plus a line reader over
/// the chunked body.
///
/// # Errors
///
/// Connect / IO failures, deadlines, or a malformed response head.
pub fn open_stream(addr: SocketAddr, path: &str) -> io::Result<(u16, NdjsonReader<TcpStream>)> {
    let mut s = connect(addr)?;
    write_request(&mut s, "GET", path, "")?;
    // Read the head byte-wise up to the blank line; the body stays in
    // the socket for the chunk decoder.
    let mut head = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        if s.read(&mut byte)? == 0 {
            return Err(bad("connection closed inside the response head"));
        }
        head.push(byte[0]);
        if head.len() > 16 * 1024 {
            return Err(bad("response head too large"));
        }
    }
    let status = status_of(&String::from_utf8_lossy(&head))?;
    Ok((status, NdjsonReader::new(s)))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChunkState {
    /// Reading the hex size line.
    Size,
    /// Inside chunk data, this many bytes left.
    Data(usize),
    /// Expecting the CRLF that closes a chunk.
    DataEnd,
    /// The zero-size chunk was seen.
    Done,
}

/// Incremental decoder for an HTTP chunked body carrying
/// newline-delimited JSON. Chunk boundaries may fall anywhere — inside a
/// size line, inside a JSON line, between the CR and LF — and blank
/// keep-alive lines are skipped.
pub struct NdjsonReader<R> {
    inner: R,
    buf: Vec<u8>,
    pos: usize,
    state: ChunkState,
    size_line: Vec<u8>,
    line: Vec<u8>,
    /// Blank (keep-alive) lines skipped so far.
    pub keepalives: u64,
}

impl<R: Read> NdjsonReader<R> {
    /// Wraps a reader positioned at the first chunk-size line.
    pub fn new(inner: R) -> Self {
        NdjsonReader {
            inner,
            buf: Vec::new(),
            pos: 0,
            state: ChunkState::Size,
            size_line: Vec::new(),
            line: Vec::new(),
            keepalives: 0,
        }
    }

    fn fill(&mut self) -> io::Result<bool> {
        self.buf.resize(16 * 1024, 0);
        let n = self.inner.read(&mut self.buf)?;
        self.buf.truncate(n);
        self.pos = 0;
        Ok(n > 0)
    }

    /// The next non-blank line, without its newline. `None` at the end
    /// of the stream (terminal chunk or connection closed).
    ///
    /// # Errors
    ///
    /// IO failures, deadlines, or malformed chunk framing.
    pub fn next_line(&mut self) -> io::Result<Option<String>> {
        loop {
            if self.state == ChunkState::Done {
                return Ok(None);
            }
            if self.pos == self.buf.len() && !self.fill()? {
                return Ok(None);
            }
            while self.pos < self.buf.len() {
                let b = self.buf[self.pos];
                match self.state {
                    ChunkState::Size => {
                        self.pos += 1;
                        if b == b'\n' {
                            let hex = String::from_utf8_lossy(&self.size_line);
                            let hex = hex.trim().split(';').next().unwrap_or("");
                            let size = usize::from_str_radix(hex, 16)
                                .map_err(|_| bad("malformed chunk size"))?;
                            self.size_line.clear();
                            self.state = if size == 0 {
                                ChunkState::Done
                            } else {
                                ChunkState::Data(size)
                            };
                            if size == 0 {
                                return Ok(None);
                            }
                        } else {
                            self.size_line.push(b);
                        }
                    }
                    ChunkState::Data(left) => {
                        let avail = (self.buf.len() - self.pos).min(left);
                        let data = &self.buf[self.pos..self.pos + avail];
                        let (take, newline) = match data.iter().position(|&c| c == b'\n') {
                            Some(i) => (i + 1, true),
                            None => (avail, false),
                        };
                        self.line.extend_from_slice(&data[..take]);
                        self.pos += take;
                        self.state = if left == take {
                            ChunkState::DataEnd
                        } else {
                            ChunkState::Data(left - take)
                        };
                        if newline {
                            self.line.pop();
                            if self.line.last() == Some(&b'\r') {
                                self.line.pop();
                            }
                            if self.line.is_empty() {
                                self.keepalives += 1;
                            } else {
                                let line = String::from_utf8_lossy(&self.line).into_owned();
                                self.line.clear();
                                return Ok(Some(line));
                            }
                        }
                    }
                    ChunkState::DataEnd => {
                        self.pos += 1;
                        if b == b'\n' {
                            self.state = ChunkState::Size;
                        } else if b != b'\r' {
                            return Err(bad("missing CRLF after chunk data"));
                        }
                    }
                    ChunkState::Done => return Ok(None),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hands out the wrapped bytes `step` at a time.
    struct Dribble {
        data: Vec<u8>,
        at: usize,
        step: usize,
    }

    impl Read for Dribble {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(self.data.len() - self.at).min(out.len());
            out[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    fn chunk(body: &str) -> String {
        format!("{:x}\r\n{body}\r\n", body.len())
    }

    fn lines_with_step(wire: &str, step: usize) -> (Vec<String>, u64) {
        let mut r = NdjsonReader::new(Dribble {
            data: wire.as_bytes().to_vec(),
            at: 0,
            step,
        });
        let mut out = Vec::new();
        while let Some(l) = r.next_line().unwrap() {
            out.push(l);
        }
        (out, r.keepalives)
    }

    #[test]
    fn decodes_lines_whatever_the_read_granularity() {
        // One line per chunk (what the server sends), a blank keep-alive,
        // a line split across two chunks, two lines in one chunk.
        let wire = [
            chunk("{\"a\":1}\n"),
            chunk("\n"),
            chunk("{\"b\":"),
            chunk("22}\n"),
            chunk("{\"c\":3}\n{\"d\":4}\n"),
            "0\r\n\r\n".to_string(),
        ]
        .concat();
        let want = vec!["{\"a\":1}", "{\"b\":22}", "{\"c\":3}", "{\"d\":4}"];
        for step in [1, 2, 3, 5, 7, 64, 4096] {
            let (got, keepalives) = lines_with_step(&wire, step);
            assert_eq!(got, want, "step {step}");
            assert_eq!(keepalives, 1, "step {step}");
        }
    }

    #[test]
    fn a_closed_connection_ends_the_stream() {
        let wire = [chunk("{\"a\":1}\n"), "5\r\n{\"tr".to_string()].concat();
        let (got, _) = lines_with_step(&wire, 3);
        assert_eq!(got, vec!["{\"a\":1}"], "the torn tail is not a line");
    }

    #[test]
    fn malformed_framing_is_an_error() {
        let mut r = NdjsonReader::new("zz\r\nabc".as_bytes());
        assert!(r.next_line().is_err());
        let mut r = NdjsonReader::new("1\r\naXY".as_bytes());
        assert!(r.next_line().is_err());
    }

    #[test]
    fn status_line_parsing() {
        assert_eq!(status_of("HTTP/1.1 201 Created\r\nX: y").unwrap(), 201);
        assert!(status_of("garbage").is_err());
    }
}
