//! Property tests for the HTTP request parser: it faces untrusted bytes and
//! must never panic, never over-read, and must round-trip everything the
//! server itself emits.

use ccm_httpd::http::{read_request, write_response_with, ParseError, MAX_HEAD_BYTES};
use proptest::prelude::*;
use std::io::BufReader;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes never panic the parser.
    #[test]
    fn arbitrary_bytes_never_panic(data in prop::collection::vec(any::<u8>(), 0..4096)) {
        let mut reader = BufReader::new(&data[..]);
        let _ = read_request(&mut reader);
    }

    /// Arbitrary *lines* (the adversary speaks line-oriented gibberish)
    /// never panic and never yield a request with an empty method or a
    /// non-absolute path.
    #[test]
    fn line_gibberish_is_rejected_or_sane(
        lines in prop::collection::vec("[ -~]{0,80}", 0..12),
    ) {
        let text = lines.join("\r\n") + "\r\n\r\n";
        let mut reader = BufReader::new(text.as_bytes());
        if let Ok(req) = read_request(&mut reader) {
            prop_assert!(!req.method.is_empty());
            prop_assert!(req.path.starts_with('/'));
        }
    }

    /// Well-formed requests always parse, with the fields we sent.
    #[test]
    fn well_formed_requests_round_trip(
        path in "/[a-zA-Z0-9/_.-]{0,40}",
        http11 in any::<bool>(),
        keep in prop::option::of(any::<bool>()),
        extra_headers in prop::collection::vec(("[A-Za-z-]{1,16}", "[ -~&&[^:]]{0,30}"), 0..5),
    ) {
        let version = if http11 { "HTTP/1.1" } else { "HTTP/1.0" };
        let mut text = format!("GET {path} {version}\r\n");
        for (name, value) in &extra_headers {
            // Avoid colliding with the Connection header under test.
            if !name.eq_ignore_ascii_case("connection") {
                text.push_str(&format!("{name}: {value}\r\n"));
            }
        }
        if let Some(k) = keep {
            text.push_str(if k {
                "Connection: keep-alive\r\n"
            } else {
                "Connection: close\r\n"
            });
        }
        text.push_str("\r\n");
        let mut reader = BufReader::new(text.as_bytes());
        let req = read_request(&mut reader).expect("well-formed request");
        prop_assert_eq!(req.method.as_str(), "GET");
        prop_assert_eq!(req.path.as_str(), path.as_str());
        let expected_keep = keep.unwrap_or(http11);
        prop_assert_eq!(req.keep_alive, expected_keep);
    }

    /// The head-size bound is enforced for any oversized input.
    #[test]
    fn oversized_heads_are_bounded(pad in MAX_HEAD_BYTES..MAX_HEAD_BYTES * 2) {
        let mut text = String::from("GET / HTTP/1.1\r\n");
        while text.len() < pad {
            text.push_str("X-Filler: yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy\r\n");
        }
        text.push_str("\r\n");
        let mut reader = BufReader::new(text.as_bytes());
        prop_assert_eq!(read_request(&mut reader).unwrap_err(), ParseError::TooLarge);
    }

    /// Every response the server writes is parseable by the client
    /// machinery and frames the body exactly.
    #[test]
    fn responses_frame_bodies_exactly(
        status in 100u16..600,
        body in prop::collection::vec(any::<u8>(), 0..2048),
        keep in any::<bool>(),
    ) {
        let mut wire = Vec::new();
        write_response_with(&mut wire, status, "X", "x/y", &[], &body, keep, false).unwrap();
        // Reparse: headers end at the first CRLFCRLF; Content-Length matches.
        let head_end = wire.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        let head = String::from_utf8_lossy(&wire[..head_end]);
        let expected_start = format!("HTTP/1.1 {status} ");
        prop_assert!(head.starts_with(&expected_start));
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        prop_assert_eq!(len, body.len());
        prop_assert_eq!(&wire[head_end..], &body[..]);
    }
}
