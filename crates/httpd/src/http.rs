//! Minimal HTTP/1.x request parsing and response writing — the one codec
//! every HTTP-speaking layer in this workspace shares: the front tier's
//! server and client (`ccm-front`) and the benchmark's layer probes.
//!
//! Parsing captures every header into [`Headers`], a case-insensitive
//! multimap that also combines repeated fields the way RFC 9110 §5.2
//! prescribes (same semantics as one comma-joined field) — the front
//! tier needs real header access (`Range`, `If-Range`, multi-valued
//! fields), not just `Connection`. Robust against malformed input (a bad
//! request yields a 400, never a panic) and bounded (every line is read
//! against what is left of [`MAX_HEAD_BYTES`], so neither an oversized
//! head nor one endless line is buffered past it) so listeners can face
//! untrusted bytes.
//!
//! Responses leave in one write: [`write_response_with`] formats the head
//! into a local buffer and hands head and body to one `write_vectored`,
//! resuming after a short write.

use std::io::{self, BufRead, IoSlice, Read, Write};

/// Largest accepted request head (request line + headers), bytes.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// The headers of one request, in arrival order.
///
/// HTTP header names are case-insensitive, and a field may legally appear
/// several times (equivalent to one field with comma-joined values). Both
/// rules live here so no caller ever string-compares names itself.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Headers {
    fields: Vec<(String, String)>,
}

impl Headers {
    /// An empty header set.
    pub fn new() -> Headers {
        Headers::default()
    }

    /// Append one field (parser use, but handy in tests).
    pub fn push(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.fields.push((name.into(), value.into()));
    }

    /// Number of fields (repeated names count each occurrence).
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if no fields were present.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// First value of `name`, case-insensitively.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Every value of `name` in arrival order, case-insensitively.
    pub fn all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.fields
            .iter()
            .filter(move |(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Every comma-separated token of every occurrence of `name`, trimmed,
    /// in arrival order — the RFC 9110 §5.2 view in which
    /// `Connection: keep-alive` + `Connection: close` equals
    /// `Connection: keep-alive, close`.
    pub fn tokens<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.all(name)
            .flat_map(|v| v.split(','))
            .map(str::trim)
            .filter(|t| !t.is_empty())
    }

    /// True if any occurrence of `name` carries `token` (case-insensitive
    /// list membership — how `Connection` options are matched).
    pub fn has_token(&self, name: &str, token: &str) -> bool {
        self.tokens(name).any(|t| t.eq_ignore_ascii_case(token))
    }
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET` or `HEAD` (anything else is rejected with 405 by the server).
    pub method: String,
    /// The request target, e.g. `/file/42`.
    pub path: String,
    /// True if the connection should be kept open after the response.
    pub keep_alive: bool,
    /// Every header field, in arrival order.
    pub headers: Headers,
}

/// Why a request could not be parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// The peer closed before sending a full request (normal at keep-alive
    /// end-of-session; not an error worth a response).
    ConnectionClosed,
    /// Malformed request line or headers → 400.
    Malformed,
    /// Request head exceeded [`MAX_HEAD_BYTES`] → 400.
    TooLarge,
}

/// Read one head line into `line` (cleared first), charging it to
/// `budget`, the head bytes still allowed. Reading stops one byte past the
/// budget, so an endless line costs at most `budget + 1` bytes before it
/// is `TooLarge`, whatever characters it holds: the length is checked on
/// raw bytes before any UTF-8 decoding. End of input, an I/O error or a
/// line that is not UTF-8 is `eof`.
fn read_line_within<'a>(
    reader: &mut impl BufRead,
    line: &'a mut Vec<u8>,
    budget: &mut usize,
    eof: ParseError,
) -> Result<&'a str, ParseError> {
    line.clear();
    let limit = *budget as u64 + 1;
    let n = match reader.by_ref().take(limit).read_until(b'\n', line) {
        Ok(0) | Err(_) => return Err(eof),
        Ok(n) => n,
    };
    *budget = budget.checked_sub(n).ok_or(ParseError::TooLarge)?;
    std::str::from_utf8(line).map_err(|_| eof)
}

/// Read and parse one request head from `reader`.
pub fn read_request(reader: &mut impl BufRead) -> Result<Request, ParseError> {
    let mut buf = Vec::new();
    let mut budget = MAX_HEAD_BYTES;

    // Request line.
    let line = read_line_within(reader, &mut buf, &mut budget, ParseError::ConnectionClosed)?;
    let mut parts = line.split_ascii_whitespace();
    let method = parts.next().ok_or(ParseError::Malformed)?.to_string();
    let path = parts.next().ok_or(ParseError::Malformed)?.to_string();
    let version = parts.next().unwrap_or("HTTP/1.0");
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Malformed);
    }
    let http11 = version == "HTTP/1.1";
    if !path.starts_with('/') {
        return Err(ParseError::Malformed);
    }

    // Headers until the blank line.
    let mut headers = Headers::new();
    loop {
        // EOF mid-head is malformed.
        let h = read_line_within(reader, &mut buf, &mut budget, ParseError::Malformed)?.trim_end();
        if h.is_empty() {
            break;
        }
        let Some((name, value)) = h.split_once(':') else {
            return Err(ParseError::Malformed);
        };
        headers.push(name.trim(), value.trim());
    }

    // Connection is a comma-separated option list and may be repeated; a
    // `close` anywhere wins over any `keep-alive` (once either side has
    // signalled close, the connection must not persist).
    let keep_alive = if headers.has_token("connection", "close") {
        false
    } else if headers.has_token("connection", "keep-alive") {
        true
    } else {
        http11 // 1.1 defaults to persistent
    };

    Ok(Request {
        method,
        path,
        keep_alive,
        headers,
    })
}

/// The response writer: explicit content type plus any extra headers
/// (`Content-Range`, `ETag`, `Accept-Ranges`, …). Framing is always
/// `Content-Length`; `head_only` omits the body but keeps its length, as
/// `HEAD` requires.
///
/// The head is formatted into a local buffer and leaves with the body in
/// one `write_vectored`, so a socket sees one `write(2)` per response
/// unless the send buffer fills, in which case the rest is resumed.
#[allow(clippy::too_many_arguments)]
pub fn write_response_with(
    w: &mut impl Write,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
    head_only: bool,
) -> io::Result<()> {
    let mut head = Vec::with_capacity(256);
    write!(
        head,
        "HTTP/1.1 {status} {reason}\r\nContent-Length: {}\r\nContent-Type: {content_type}\r\nConnection: {}\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    for (name, value) in extra_headers {
        write!(head, "{name}: {value}\r\n")?;
    }
    head.extend_from_slice(b"\r\n");
    let mut bufs = [IoSlice::new(&head), IoSlice::new(body)];
    let sent = if head_only { 1 } else { 2 };
    write_all_vectored(w, &mut bufs[..sent])?;
    w.flush()
}

/// `write_all` over several buffers: one `write_vectored` per attempt,
/// resumed where a short write stopped, retried on `Interrupted`.
fn write_all_vectored(w: &mut impl Write, mut bufs: &mut [IoSlice<'_>]) -> io::Result<()> {
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Resolve `/file/<id>` to a file id.
pub fn route_file(path: &str) -> Option<u32> {
    path.strip_prefix("/file/")?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(s: &str) -> Result<Request, ParseError> {
        read_request(&mut BufReader::new(s.as_bytes()))
    }

    #[test]
    fn parses_get_10() {
        let r = parse("GET /file/7 HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/file/7");
        assert!(!r.keep_alive, "1.0 defaults to close");
        assert!(r.headers.is_empty());
    }

    #[test]
    fn parses_get_11_keepalive_default() {
        let r = parse("GET / HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert!(r.keep_alive, "1.1 defaults to keep-alive");
        assert_eq!(r.headers.get("host"), Some("x"));
    }

    #[test]
    fn connection_header_overrides() {
        let r = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!r.keep_alive);
        let r = parse("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").unwrap();
        assert!(r.keep_alive);
    }

    #[test]
    fn connection_close_wins_in_token_lists_and_repeats() {
        // Option list: close anywhere forces close, whatever else rides
        // along.
        let r = parse("GET / HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n").unwrap();
        assert!(!r.keep_alive, "close in a token list must win");
        // Repeated field: RFC 9110 treats it as one joined list.
        let r =
            parse("GET / HTTP/1.1\r\nConnection: keep-alive\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!r.keep_alive, "close in a repeated field must win");
        // Unrelated tokens don't disturb the version default.
        let r = parse("GET / HTTP/1.1\r\nConnection: TE\r\n\r\n").unwrap();
        assert!(r.keep_alive);
        let r = parse("GET / HTTP/1.0\r\nConnection: TE, keep-alive\r\n\r\n").unwrap();
        assert!(r.keep_alive, "keep-alive token inside a list must count");
    }

    #[test]
    fn header_lookup_is_case_insensitive() {
        let r = parse("GET / HTTP/1.1\r\nRaNgE: bytes=0-4\r\nHost: h\r\n\r\n").unwrap();
        assert_eq!(r.headers.get("range"), Some("bytes=0-4"));
        assert_eq!(r.headers.get("RANGE"), Some("bytes=0-4"));
        assert_eq!(r.headers.get("Range"), Some("bytes=0-4"));
        assert_eq!(r.headers.get("ranges"), None);
    }

    #[test]
    fn repeated_headers_are_all_kept_in_order() {
        let r = parse("GET / HTTP/1.1\r\nX-Tag: a\r\nOther: o\r\nx-tag: b\r\n\r\n").unwrap();
        let all: Vec<&str> = r.headers.all("X-Tag").collect();
        assert_eq!(all, ["a", "b"], "both occurrences, arrival order");
        assert_eq!(r.headers.get("x-TAG"), Some("a"), "get returns the first");
        let tokens: Vec<&str> = r.headers.tokens("x-tag").collect();
        assert_eq!(tokens, ["a", "b"]);
    }

    #[test]
    fn tokens_split_and_trim_comma_lists() {
        let r = parse("GET / HTTP/1.1\r\nAccept-Encoding: gzip , br,, deflate\r\n\r\n").unwrap();
        let tokens: Vec<&str> = r.headers.tokens("accept-encoding").collect();
        assert_eq!(
            tokens,
            ["gzip", "br", "deflate"],
            "trimmed, empties dropped"
        );
        assert!(r.headers.has_token("accept-encoding", "BR"));
        assert!(!r.headers.has_token("accept-encoding", "zstd"));
    }

    #[test]
    fn malformed_inputs_are_rejected_not_panics() {
        assert_eq!(parse("").unwrap_err(), ParseError::ConnectionClosed);
        assert_eq!(parse("GARBAGE\r\n\r\n").unwrap_err(), ParseError::Malformed);
        assert_eq!(parse("GET\r\n\r\n").unwrap_err(), ParseError::Malformed);
        assert_eq!(
            parse("GET /x SPDY/3\r\n\r\n").unwrap_err(),
            ParseError::Malformed
        );
        assert_eq!(
            parse("GET nopath HTTP/1.1\r\n\r\n").unwrap_err(),
            ParseError::Malformed
        );
        assert_eq!(
            parse("GET / HTTP/1.1\r\nbadheader\r\n\r\n").unwrap_err(),
            ParseError::Malformed
        );
    }

    #[test]
    fn oversized_head_is_rejected() {
        let mut s = String::from("GET / HTTP/1.1\r\n");
        for i in 0..1000 {
            s.push_str(&format!("X-Pad-{i}: {}\r\n", "y".repeat(64)));
        }
        s.push_str("\r\n");
        assert_eq!(parse(&s).unwrap_err(), ParseError::TooLarge);
    }

    /// A `200 text/plain` written into memory.
    fn written(body: &[u8], keep_alive: bool, head_only: bool) -> String {
        let mut out = Vec::new();
        write_response_with(
            &mut out,
            200,
            "OK",
            "text/plain",
            &[],
            body,
            keep_alive,
            head_only,
        )
        .unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn response_has_content_length_framing() {
        let text = written(b"hello", true, false);
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 5\r\n"));
        assert!(text.contains("Content-Type: text/plain\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\nhello"));
    }

    #[test]
    fn head_omits_body_but_keeps_length() {
        let text = written(b"hello", false, true);
        assert!(text.contains("Content-Length: 5\r\n"));
        assert!(text.ends_with("\r\n\r\n"), "no body bytes");
    }

    #[test]
    fn extra_headers_ride_the_head() {
        let mut out = Vec::new();
        write_response_with(
            &mut out,
            206,
            "Partial Content",
            "application/octet-stream",
            &[("Content-Range", "bytes 2-4/10"), ("ETag", "\"f0-10\"")],
            b"abc",
            true,
            false,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 206 Partial Content\r\n"));
        assert!(text.contains("Content-Range: bytes 2-4/10\r\n"));
        assert!(text.contains("ETag: \"f0-10\"\r\n"));
        assert!(text.ends_with("\r\n\r\nabc"));
    }

    /// Records every `write`/`write_vectored` call and the bytes it took:
    /// on a socket with `TCP_NODELAY`, each call is one `write(2)`.
    #[derive(Default)]
    struct Counting {
        calls: usize,
        bytes: Vec<u8>,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            for buf in bufs {
                self.bytes.extend_from_slice(buf);
            }
            Ok(bufs.iter().map(|b| b.len()).sum())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Takes at most 7 bytes a call and fails every third call with
    /// `Interrupted`: a socket whose send buffer is nearly full.
    #[derive(Default)]
    struct Trickle {
        calls: usize,
        bytes: Vec<u8>,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(3) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let mut room = 7;
            for buf in bufs {
                let n = buf.len().min(room);
                self.bytes.extend_from_slice(&buf[..n]);
                room -= n;
            }
            Ok(7 - room)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// One response shape the front tier sends, with the exact head the
    /// writer produced for it when each header was its own write.
    struct Golden {
        name: &'static str,
        status: u16,
        reason: &'static str,
        extra: &'static [(&'static str, &'static str)],
        body: Vec<u8>,
        keep_alive: bool,
        head_only: bool,
        head: &'static str,
    }

    impl Golden {
        fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
            write_response_with(
                w,
                self.status,
                self.reason,
                "application/octet-stream",
                self.extra,
                &self.body,
                self.keep_alive,
                self.head_only,
            )
        }

        /// Every byte that must reach the wire.
        fn wire(&self) -> Vec<u8> {
            let mut wire = self.head.as_bytes().to_vec();
            if !self.head_only {
                wire.extend_from_slice(&self.body);
            }
            wire
        }
    }

    fn body(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    fn goldens() -> Vec<Golden> {
        vec![
            Golden {
                name: "200 with an 8 KiB body",
                status: 200,
                reason: "OK",
                extra: &[("ETag", "\"f7-8192\""), ("Accept-Ranges", "bytes")],
                body: body(8192),
                keep_alive: true,
                head_only: false,
                head: "HTTP/1.1 200 OK\r\nContent-Length: 8192\r\n\
                       Content-Type: application/octet-stream\r\nConnection: keep-alive\r\n\
                       ETag: \"f7-8192\"\r\nAccept-Ranges: bytes\r\n\r\n",
            },
            Golden {
                name: "HEAD",
                status: 200,
                reason: "OK",
                extra: &[("ETag", "\"f7-8192\""), ("Accept-Ranges", "bytes")],
                body: body(8192),
                keep_alive: false,
                head_only: true,
                head: "HTTP/1.1 200 OK\r\nContent-Length: 8192\r\n\
                       Content-Type: application/octet-stream\r\nConnection: close\r\n\
                       ETag: \"f7-8192\"\r\nAccept-Ranges: bytes\r\n\r\n",
            },
            Golden {
                name: "206",
                status: 206,
                reason: "Partial Content",
                extra: &[
                    ("Content-Range", "bytes 100-8291/20000"),
                    ("ETag", "\"f7-20000\""),
                    ("Accept-Ranges", "bytes"),
                ],
                body: body(8192),
                keep_alive: true,
                head_only: false,
                head: "HTTP/1.1 206 Partial Content\r\nContent-Length: 8192\r\n\
                       Content-Type: application/octet-stream\r\nConnection: keep-alive\r\n\
                       Content-Range: bytes 100-8291/20000\r\nETag: \"f7-20000\"\r\n\
                       Accept-Ranges: bytes\r\n\r\n",
            },
            Golden {
                name: "empty-body 400",
                status: 400,
                reason: "Bad Request",
                extra: &[],
                body: Vec::new(),
                keep_alive: false,
                head_only: false,
                head: "HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\
                       Content-Type: application/octet-stream\r\nConnection: close\r\n\r\n",
            },
            Golden {
                name: "200 with a 64 KiB body",
                status: 200,
                reason: "OK",
                extra: &[],
                body: body(64 * 1024),
                keep_alive: true,
                head_only: false,
                head: "HTTP/1.1 200 OK\r\nContent-Length: 65536\r\n\
                       Content-Type: application/octet-stream\r\nConnection: keep-alive\r\n\r\n",
            },
        ]
    }

    #[test]
    fn each_response_is_one_write_of_the_golden_bytes() {
        for g in goldens() {
            let mut w = Counting::default();
            g.write_to(&mut w).unwrap();
            assert!(w.bytes == g.wire(), "{}: bytes on the wire changed", g.name);
            assert_eq!(w.calls, 1, "{}: one write per response", g.name);
        }
    }

    #[test]
    fn short_and_interrupted_writes_resume_to_the_golden_bytes() {
        for g in goldens() {
            let mut w = Trickle::default();
            g.write_to(&mut w).unwrap();
            assert!(w.bytes == g.wire(), "{}: resumed bytes differ", g.name);
        }
    }

    #[test]
    fn a_writer_that_takes_nothing_is_write_zero() {
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = goldens()[0].write_to(&mut Full).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    /// Parse from a bare slice, returning how many bytes the parser took.
    fn parse_counting(input: &[u8]) -> (Result<Request, ParseError>, usize) {
        let mut rest = input;
        let parsed = read_request(&mut rest);
        (parsed, input.len() - rest.len())
    }

    #[test]
    fn an_endless_line_is_too_large_within_the_head_budget() {
        // ASCII, and two-byte characters at both parities, so the byte
        // cap lands mid-character in one of them.
        let endless = [
            "a".repeat(1 << 20),
            "é".repeat(1 << 19),
            format!("a{}", "é".repeat(1 << 19)),
        ];
        for line in &endless {
            for input in [
                format!("GET /{line}"),
                format!("GET / HTTP/1.1\r\nX-Endless: {line}"),
            ] {
                let (parsed, consumed) = parse_counting(input.as_bytes());
                assert_eq!(parsed.unwrap_err(), ParseError::TooLarge);
                assert!(
                    consumed <= MAX_HEAD_BYTES + 1,
                    "consumed {consumed} bytes of a {}-byte line",
                    input.len()
                );
            }
        }
    }

    #[test]
    fn routing() {
        assert_eq!(route_file("/file/0"), Some(0));
        assert_eq!(route_file("/file/123"), Some(123));
        assert_eq!(route_file("/file/abc"), None);
        assert_eq!(route_file("/files/1"), None);
        assert_eq!(route_file("/"), None);
    }
}
