//! Fuzzing the frame parsers: whatever bytes arrive on a socket —
//! random garbage, mutated valid frames, truncated prefixes — a parser
//! must return `Ok`/`Err`, never panic, never allocate unboundedly, and
//! never yield a frame from a truncated one.
//!
//! Every frame is `OIS\x04`, a length and an op byte, so the properties
//! run over a frame of every op — client requests, peer requests and
//! replies, `SnapshotData` included — and feed each one to all three
//! readers: the client port's, the peer port's and the one reply
//! decoder. Each reader runs twice, as a blocking reader over the byte
//! stream (the threaded server, the peer listener, the client) and as
//! [`parse_frame_header`] plus the in-place parse over complete
//! buffered frames (the epoll reactor's split); the two must agree on
//! every input. A valid frame parses on its own side alone: each port
//! refuses the other's ops, and the reply decoder every request.

use oisum_service::proto::{
    add_binary_bytes, le_bytes, parse_client_frame, parse_frame_header, parse_peer_request,
    parse_reply, peer_hello_into, peer_mirror_add_into, peer_snapshot_data_into,
    peer_snapshot_pull_into, peer_tree_sum_into, read_client_frame_into, read_peer_request_into,
    read_reply_into, read_response, reply_into, request_into, ClientFrameView, ErrorCode, Request,
    Response, SnapshotScope, StreamStatsRepr,
};
use proptest::prelude::*;
use std::io;

/// Which reader a stream of bytes meets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Client,
    Peer,
    Reply,
}

const SIDES: [Side; 3] = [Side::Client, Side::Peer, Side::Reply];

/// One blocking read of the next frame on `side`.
fn read_one(side: Side, r: &mut &[u8], buf: &mut Vec<u8>) -> io::Result<Option<()>> {
    match side {
        Side::Client => read_client_frame_into(r, buf).map(|f| f.map(drop)),
        Side::Peer => read_peer_request_into(r, buf).map(|f| f.map(drop)),
        Side::Reply => read_reply_into(r, buf).map(|f| f.map(drop)),
    }
}

/// One in-place parse of a complete payload on `side`.
fn parses(side: Side, magic: [u8; 4], payload: &[u8]) -> bool {
    match side {
        Side::Client => parse_client_frame(magic, payload).is_ok(),
        Side::Peer => parse_peer_request(magic, payload).is_ok(),
        Side::Reply => parse_reply(magic, payload).is_ok(),
    }
}

/// Drains frames from `bytes` through the blocking reader until EOF or
/// the first error. Returns the frames parsed and whether the input
/// ended cleanly at a frame boundary.
fn drain_blocking(side: Side, bytes: &[u8]) -> (usize, bool) {
    let mut r = bytes;
    let mut buf = Vec::new();
    let mut parsed = 0usize;
    loop {
        match read_one(side, &mut r, &mut buf) {
            Ok(Some(())) => parsed += 1,
            Ok(None) => return (parsed, true),
            Err(_) => return (parsed, false),
        }
        // A frame is at least 9 bytes (header and op), so this bounds
        // the loop even if the reader were to stop consuming input.
        assert!(parsed <= bytes.len() / 8 + 1, "reader yielded frames without consuming bytes");
    }
}

/// The same drain as the reactor parses: a complete 8-byte header, then
/// a complete payload, then the in-place parse. A header or payload cut
/// short by the end of input is a torn EOF.
fn drain_buffered(side: Side, bytes: &[u8]) -> (usize, bool) {
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
        if !parses(side, magic, payload) {
            return (parsed, false);
        }
        parsed += 1;
        rest = next;
    }
    (parsed, true)
}

/// Both drains of `bytes` on `side`; they must agree exactly. The only
/// failure this harness cannot tolerate besides disagreement is a panic
/// (or an infinite loop, bounded in `drain_blocking`).
fn drain(side: Side, bytes: &[u8]) -> (usize, bool) {
    let blocking = drain_blocking(side, bytes);
    assert_eq!(blocking, drain_buffered(side, bytes), "the {side:?} readers disagree");
    blocking
}

/// The number of distinct frames [`frame_of`] makes: one per op.
const OPS: usize = 21;

/// A valid frame of op `op` (taken modulo [`OPS`]) and the side that
/// takes it: the Add, the six control requests, the four peer requests,
/// the nine [`Response`] kinds and the `SnapshotData` transfer.
fn frame_of(op: usize, stream: &str, n: u64, values: &[f64]) -> (Vec<u8>, Side) {
    let mut f = Vec::new();
    let limbs = vec![n, !n, 0, u64::MAX, n.rotate_left(7), 1];
    let side = match op % OPS {
        0 => {
            f = add_binary_bytes(stream, n, n ^ 1, values).unwrap();
            Side::Client
        }
        k @ 1..=6 => {
            let stream = stream.to_owned();
            let req = match k {
                1 => Request::Sum { stream },
                2 => Request::ClusterSum { stream },
                3 => Request::Snapshot,
                4 => Request::Reset,
                5 => Request::Stats,
                _ => Request::Shutdown,
            };
            request_into(&mut f, &req).unwrap();
            Side::Client
        }
        7 => {
            peer_hello_into(&mut f, n as u32, n).unwrap();
            Side::Peer
        }
        8 => {
            peer_mirror_add_into(&mut f, 1, stream, n, 2, &le_bytes(values)).unwrap();
            Side::Peer
        }
        9 => {
            peer_tree_sum_into(&mut f, 0, n as u32, stream).unwrap();
            Side::Peer
        }
        10 => {
            peer_snapshot_pull_into(&mut f, n as u32, SnapshotScope::PrimaryOfPeer).unwrap();
            Side::Peer
        }
        k @ 11..=19 => {
            let r = match k {
                11 => Response::Added { count: n, deduped: n % 2 == 1 },
                12 => Response::Sum { limbs, poisoned: n.is_multiple_of(2) },
                13 => Response::ClusterSum { limbs, poisoned: true, values: n, holders: 3 },
                14 => Response::PeerHello { node_id: n },
                15 => Response::Snapshot { streams: n },
                16 => Response::ResetDone,
                17 => Response::Stats {
                    streams: vec![StreamStatsRepr {
                        name: stream.to_owned(),
                        batches: n,
                        values: n / 2,
                        overflows: 0,
                    }],
                },
                18 => Response::ShuttingDown,
                _ => Response::Error { code: ErrorCode::UnknownStream, message: stream.to_owned() },
            };
            reply_into(&mut f, &r);
            Side::Reply
        }
        _ => {
            peer_snapshot_data_into(&mut f, &le_bytes(values)).unwrap();
            Side::Reply
        }
    };
    (f, side)
}

/// A reply frame of kind `kind` (one of the ten reply ops).
fn reply_of(kind: usize, stream: &str, n: u64, values: &[f64]) -> Vec<u8> {
    frame_of(11 + kind % 10, stream, n, values).0
}

proptest! {
    /// Pure noise never panics a reader, and the two readers of each
    /// side agree on it.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..=96)) {
        for side in SIDES {
            drain(side, &bytes);
        }
    }

    /// Noise behind a current or retired magic (the adversarial prefix)
    /// never panics, whatever the length field, op and body claim; under
    /// a retired magic nothing parses.
    #[test]
    fn magic_prefixed_noise_never_panics(
        version in 1u8..=4,
        len in any::<u32>(),
        body in proptest::collection::vec(any::<u8>(), 0..=64),
    ) {
        let mut bytes = vec![b'O', b'I', b'S', version];
        bytes.extend_from_slice(&len.to_be_bytes());
        bytes.extend_from_slice(&body);
        for side in SIDES {
            let (parsed, _) = drain(side, &bytes);
            if version < 4 {
                prop_assert_eq!(parsed, 0, "a retired magic parsed on {:?}", side);
            }
        }
    }

    /// Any op byte in front of any body, under a length that frames it
    /// exactly: no panic, and the readers of each side agree.
    #[test]
    fn every_op_byte_is_parsed_or_refused(
        op in any::<u8>(),
        body in proptest::collection::vec(any::<u8>(), 0..=80),
    ) {
        let mut bytes = b"OIS\x04".to_vec();
        bytes.extend_from_slice(&(body.len() as u32 + 1).to_be_bytes());
        bytes.push(op);
        bytes.extend_from_slice(&body);
        for side in SIDES {
            drain(side, &bytes);
        }
    }

    /// A valid frame of every op parses whole on its own side and is
    /// refused on the other two.
    #[test]
    fn every_op_parses_on_its_own_side_alone(
        op in 0..OPS,
        n in any::<u64>(),
        values in proptest::collection::vec(any::<f64>(), 0..=4),
    ) {
        let (frame, home) = frame_of(op, "fuzz/α", n, &values);
        for side in SIDES {
            let want = if side == home { (1, true) } else { (0, false) };
            prop_assert_eq!(drain(side, &frame), want, "op {} on {:?}", op, side);
        }
    }

    /// A single mutated byte in a valid frame of any op never panics a
    /// reader: the mutation either survives as a (different) well-formed
    /// frame or is refused, and the readers of each side agree.
    #[test]
    fn mutated_frames_never_panic(
        op in 0..OPS,
        n in any::<u64>(),
        values in proptest::collection::vec(any::<f64>(), 0..=8),
        pos in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let (mut frame, _) = frame_of(op, "fuzz", n, &values);
        let at = pos % frame.len();
        frame[at] ^= flip;
        for side in SIDES {
            drain(side, &frame);
        }
    }

    /// Every truncation of a valid frame of any op is refused cleanly on
    /// every side (no panic, no phantom frame) — exactly what a
    /// mid-frame disconnect leaves in a receive buffer.
    #[test]
    fn truncated_frames_never_panic_or_phantom_parse(
        op in 0..OPS,
        n in any::<u64>(),
        cut in any::<usize>(),
    ) {
        let (frame, _) = frame_of(op, "s", n, &[1.0, 2.0, 3.0]);
        let keep = cut % frame.len(); // strictly shorter than the frame
        for side in SIDES {
            let (parsed, clean_eof) = drain(side, &frame[..keep]);
            prop_assert_eq!(parsed, 0, "a truncated frame parsed on {:?}", side);
            // An empty prefix is clean EOF; anything else is an error.
            prop_assert_eq!(clean_eof, keep == 0);
        }
    }

    /// The reply decoder over mutated replies of every kind,
    /// `SnapshotData` included: no panic, and what survives a mutation
    /// decodes the same through the blocking reader and the in-place
    /// parse.
    #[test]
    fn mutated_replies_decode_or_are_refused(
        kind in 0..10usize,
        n in any::<u64>(),
        values in proptest::collection::vec(any::<f64>(), 0..=6),
        pos in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let mut frame = reply_of(kind, "reply", n, &values);
        let at = pos % frame.len();
        frame[at] ^= flip;
        let mut buf = Vec::new();
        let blocking = read_reply_into(&mut frame.as_slice(), &mut buf).map(|r| format!("{r:?}"));
        let in_place = parse_frame_header(frame[..8].try_into().unwrap()).and_then(|(magic, len)| {
            match frame[8..].get(..len as usize) {
                Some(payload) => parse_reply(magic, payload).map(|r| format!("{:?}", Some(r))),
                None => Err(io::Error::from(io::ErrorKind::UnexpectedEof)),
            }
        });
        match (blocking, in_place) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "the reply readers disagree: {:?} vs {:?}", a, b),
        }
    }

    /// Every truncation of a reply of every kind is refused: a cut reply
    /// never decodes as a shorter one.
    #[test]
    fn truncated_replies_never_decode(
        kind in 0..10usize,
        n in any::<u64>(),
        cut in any::<usize>(),
    ) {
        let frame = reply_of(kind, "reply", n, &[0.5, -0.0]);
        let keep = cut % frame.len();
        let mut buf = Vec::new();
        let got = read_reply_into(&mut &frame[..keep], &mut buf);
        if keep == 0 {
            prop_assert!(matches!(got, Ok(None)), "an empty prefix is a clean EOF");
        } else {
            prop_assert!(got.is_err(), "a reply cut at {} bytes decoded", keep);
        }
    }

    /// Replies round-trip exactly, every field and every limb bit.
    #[test]
    fn replies_roundtrip_exactly(
        limbs in proptest::collection::vec(any::<u64>(), 6),
        flag in any::<bool>(),
        a in any::<u64>(),
        b in any::<u64>(),
        name in proptest::collection::vec(any::<u8>(), 0..=12),
    ) {
        let name = String::from_utf8_lossy(&name).into_owned();
        for reply in [
            Response::Added { count: a, deduped: flag },
            Response::Sum { limbs: limbs.clone(), poisoned: flag },
            Response::ClusterSum { limbs: limbs.clone(), poisoned: flag, values: a, holders: b },
            Response::Stats {
                streams: vec![StreamStatsRepr { name: name.clone(), batches: a, values: b, overflows: a ^ b }],
            },
            Response::Error { code: ErrorCode::Internal, message: name.clone() },
        ] {
            let mut wire = Vec::new();
            reply_into(&mut wire, &reply);
            prop_assert_eq!(read_response(&mut wire.as_slice()).unwrap(), Some(reply));
        }
    }

    /// A clean Add parses back exactly through both client readers —
    /// identity fields and every value bit.
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
