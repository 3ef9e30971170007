//! The workspace's one blocking HTTP client: keep-alive and one-shot
//! `GET`/`HEAD` with `Content-Length` framing, request pipelining, and
//! responses that keep their headers (tests and the load driver read
//! `Content-Range`/`ETag`).

use ccm_httpd::http::Headers;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// A parsed response with its headers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response headers (case-insensitive multimap).
    pub headers: Headers,
    /// The body (empty for HEAD).
    pub body: Vec<u8>,
}

fn read_response(reader: &mut impl BufRead, head_only: bool) -> std::io::Result<Response> {
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(bad("connection closed before status line"));
    }
    let status: u16 = line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut headers = Headers::new();
    loop {
        let mut h = String::new();
        if reader.read_line(&mut h)? == 0 {
            return Err(bad("eof in headers"));
        }
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        let (name, value) = h.split_once(':').ok_or_else(|| bad("bad header"))?;
        headers.push(name.trim(), value.trim());
    }
    let content_length: usize = headers
        .get("content-length")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| bad("missing content-length"))?;
    let mut body = vec![0u8; if head_only { 0 } else { content_length }];
    reader.read_exact(&mut body)?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// The bytes of one request head: request line, `Host`, `extra` in
/// order, and the blank line.
fn request_head(method: &str, path: &str, extra: &[(&str, &str)]) -> String {
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: front\r\n");
    for (name, value) in extra {
        // Formatting into a `String` cannot fail.
        let _ = write!(head, "{name}: {value}\r\n");
    }
    head.push_str("\r\n");
    head
}

/// A persistent connection to one front endpoint.
pub struct FrontClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl FrontClient {
    /// Open a keep-alive connection to `addr`.
    pub fn connect(addr: SocketAddr) -> std::io::Result<FrontClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(FrontClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// `GET path` with extra request headers (e.g. `Range`).
    pub fn get_with(&mut self, path: &str, extra: &[(&str, &str)]) -> std::io::Result<Response> {
        self.send("GET", path, extra)?;
        read_response(&mut self.reader, false)
    }

    /// Plain keep-alive `GET`.
    pub fn get(&mut self, path: &str) -> std::io::Result<Response> {
        self.get_with(path, &[])
    }

    /// `HEAD path` with extra request headers.
    pub fn head_with(&mut self, path: &str, extra: &[(&str, &str)]) -> std::io::Result<Response> {
        self.send("HEAD", path, extra)?;
        read_response(&mut self.reader, true)
    }

    /// Write one request head, in one write, without reading the response
    /// — the pipelining half. Follow with [`FrontClient::read_pipelined`].
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        extra: &[(&str, &str)],
    ) -> std::io::Result<()> {
        self.writer
            .write_all(request_head(method, path, extra).as_bytes())
    }

    /// Read one response off the wire (responses to pipelined requests
    /// arrive strictly in request order).
    pub fn read_pipelined(&mut self) -> std::io::Result<Response> {
        read_response(&mut self.reader, false)
    }
}

/// One-shot `GET` with extra headers (fresh connection, close).
pub fn get_with(addr: SocketAddr, path: &str, extra: &[(&str, &str)]) -> std::io::Result<Response> {
    let close = [extra, &[("Connection", "close")]].concat();
    FrontClient::connect(addr)?.get_with(path, &close)
}

/// One-shot plain `GET`.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<Response> {
    get_with(addr, path, &[])
}

#[cfg(test)]
mod tests {
    use super::request_head;

    #[test]
    fn request_heads_keep_their_golden_bytes() {
        assert_eq!(
            request_head("GET", "/file/7", &[]),
            "GET /file/7 HTTP/1.1\r\nHost: front\r\n\r\n"
        );
        assert_eq!(
            request_head(
                "HEAD",
                "/file/12",
                &[("Range", "bytes=0-9"), ("Connection", "close")]
            ),
            "HEAD /file/12 HTTP/1.1\r\nHost: front\r\nRange: bytes=0-9\r\nConnection: close\r\n\r\n"
        );
    }
}
