//! Fuzzing the frame parsers: whatever bytes arrive on the socket —
//! random garbage, mutated valid frames, truncated prefixes — the parser
//! must return `Ok`/`Err`, never panic, never allocate unboundedly, and
//! must still parse a clean frame that follows a cleanly-rejected one's
//! connection teardown.
//!
//! Every property runs the exact parsers the two server transports feed:
//! the threaded server's [`read_client_frame_into`] over a blocking
//! reader, and the epoll reactor's [`parse_frame_header`] +
//! [`parse_client_frame`] over complete buffered frames. Both frame
//! versions (`OIS\x01` JSON control requests and `OIS\x02` binary Adds)
//! go through them, and the two must agree on every input.

use oisum_service::proto::{
    add_binary_bytes, frame_bytes, le_bytes, parse_client_frame, parse_frame_header,
    read_client_frame_into, ClientFrameView, Request,
};
use proptest::prelude::*;

/// Drains frames from `bytes` through the threaded server's reader until
/// EOF or the first error. Returns the frames parsed and whether the
/// input ended cleanly at a frame boundary.
fn drain_threaded(bytes: &[u8]) -> (usize, bool) {
    let mut r = bytes;
    let mut buf = Vec::new();
    let mut parsed = 0usize;
    loop {
        match read_client_frame_into(&mut r, &mut buf) {
            Ok(Some(_)) => parsed += 1,
            Ok(None) => return (parsed, true),
            Err(_) => return (parsed, false),
        }
        // A frame is at least 8 bytes (magic + length), so this bounds
        // the loop even if the parser were to stop consuming input.
        assert!(parsed <= bytes.len() / 8 + 1, "parser yielded frames without consuming bytes");
    }
}

/// The same drain as the reactor parses: a complete 8-byte header, then
/// a complete payload, then the in-place parse. A header or payload cut
/// short by the end of input is the reactor's torn EOF.
fn drain_reactor(bytes: &[u8]) -> (usize, bool) {
    let mut rest = bytes;
    let mut parsed = 0usize;
    while !rest.is_empty() {
        let Some((header, body)) = rest.split_first_chunk::<8>() else {
            return (parsed, false);
        };
        let Ok((magic, len)) = parse_frame_header(header) else {
            return (parsed, false);
        };
        let Some((payload, next)) = body.split_at_checked(len as usize) else {
            return (parsed, false);
        };
        if parse_client_frame(magic, payload).is_err() {
            return (parsed, false);
        }
        parsed += 1;
        rest = next;
    }
    (parsed, true)
}

/// Both transports' parsers over `bytes`; they must agree exactly. The
/// only failure mode this harness cannot tolerate besides disagreement
/// is a panic (or an infinite loop, bounded in `drain_threaded`).
fn drain(bytes: &[u8]) -> (usize, bool) {
    let threaded = drain_threaded(bytes);
    assert_eq!(threaded, drain_reactor(bytes), "the two server parsers disagree");
    threaded
}

/// A valid JSON frame for control op `op` (taken modulo the six).
fn json_control_frame(op: usize, stream: &str) -> Vec<u8> {
    let stream = stream.to_owned();
    let req = match op % 6 {
        0 => Request::Sum { stream },
        1 => Request::ClusterSum { stream },
        2 => Request::Snapshot,
        3 => Request::Reset,
        4 => Request::Stats,
        _ => Request::Shutdown,
    };
    frame_bytes(&req).unwrap()
}

proptest! {
    /// Pure noise never panics the parser.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..=96)) {
        drain(&bytes);
    }

    /// Noise that starts with a valid magic (the adversarial prefix) still
    /// never panics, whatever the length field and payload claim.
    #[test]
    fn magic_prefixed_noise_never_panics(
        v2 in any::<bool>(),
        len in any::<u32>(),
        body in proptest::collection::vec(any::<u8>(), 0..=64),
    ) {
        let mut bytes: Vec<u8> = if v2 { b"OIS\x02".to_vec() } else { b"OIS\x01".to_vec() };
        bytes.extend_from_slice(&len.to_be_bytes());
        bytes.extend_from_slice(&body);
        drain(&bytes);
    }

    /// A single mutated byte in a valid binary Add frame never panics:
    /// the mutation either survives as a (different) well-formed frame or
    /// is rejected with an error.
    #[test]
    fn mutated_binary_frame_never_panics(
        client_id in any::<u64>(),
        seq in any::<u64>(),
        values in proptest::collection::vec(any::<f64>(), 0..=8),
        pos in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let mut frame = add_binary_bytes("fuzz", client_id, seq, &values).unwrap();
        let at = pos % frame.len();
        frame[at] ^= flip;
        drain(&frame);
    }

    /// Same for the JSON frame version, over every control op.
    #[test]
    fn mutated_json_frame_never_panics(
        op in any::<usize>(),
        pos in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let mut frame = json_control_frame(op, "fuzz");
        let at = pos % frame.len();
        frame[at] ^= flip;
        drain(&frame);
    }

    /// Every truncation of a valid frame is rejected cleanly (no panic,
    /// no phantom frame) — this is exactly what a mid-frame disconnect
    /// leaves in the receive buffer.
    #[test]
    fn truncated_frames_never_panic_or_phantom_parse(
        binary in any::<bool>(),
        cut in any::<usize>(),
    ) {
        let frame = if binary {
            add_binary_bytes("s", 7, 3, &[1.0, 2.0, 3.0]).unwrap()
        } else {
            json_control_frame(0, "s")
        };
        let keep = cut % frame.len(); // strictly shorter than the frame
        let (parsed, clean_eof) = drain(&frame[..keep]);
        prop_assert_eq!(parsed, 0, "a truncated frame must not parse");
        // An empty prefix is clean EOF; anything else is an error.
        prop_assert_eq!(clean_eof, keep == 0);
    }

    /// A clean frame parses back exactly through both parsers — identity
    /// fields and every value bit — and a mutated frame ahead of it on
    /// the same stream cannot corrupt it into parsing differently: the
    /// server tears the connection down at the first error, so the
    /// parser never resynchronizes into misparsed identity fields.
    #[test]
    fn identity_fields_roundtrip_exactly(
        client_id in any::<u64>(),
        seq in any::<u64>(),
        values in proptest::collection::vec(any::<f64>(), 0..=6),
    ) {
        let frame = add_binary_bytes("ident", client_id, seq, &values).unwrap();
        let mut buf = Vec::new();
        let threaded = read_client_frame_into(&mut frame.as_slice(), &mut buf);
        let header: &[u8; 8] = frame[..8].try_into().unwrap();
        let (magic, _) = parse_frame_header(header).unwrap();
        let reactor = parse_client_frame(magic, &frame[8..]);
        for parsed in [threaded.map(Option::unwrap), reactor] {
            match parsed {
                Ok(ClientFrameView::BinaryAdd(view)) => {
                    prop_assert_eq!(view.stream, "ident");
                    prop_assert_eq!(view.client_id, client_id);
                    prop_assert_eq!(view.seq, seq);
                    prop_assert_eq!(
                        view.value_bytes(),
                        &le_bytes(&values)[..],
                        "f64 bit pattern mangled in transit"
                    );
                }
                other => prop_assert!(false, "valid frame failed to parse: {:?}", other),
            }
        }
    }
}
