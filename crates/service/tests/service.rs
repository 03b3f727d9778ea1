//! End-to-end service tests over real TCP connections.

use oisum_service::proto::{read_response, ErrorCode, Response, MAGIC};
use oisum_service::{
    serve, serve_with_core, Client, ClientConfig, ClientError, ClusterOps, ClusterSumOut,
    RequestCore, ServerConfig, ServiceHp, ShardedLedger, Transport, Wal, WalConfig,
};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("oisum-service-test-{}-{name}.snap", std::process::id()));
    p
}

fn dataset(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let m = rng.random_range(-1.0f64..1.0);
            let e = rng.random_range(-12i32..=12);
            m * 10f64.powi(e)
        })
        .collect()
}

/// Runs one full server lifecycle: `clients` threads deposit shuffled
/// batch hands of `data` into stream `s`, then the sum limbs are read and
/// the server is shut down.
fn run_service(data: &[f64], clients: usize, batch: usize, seed: u64) -> Vec<u64> {
    let server = serve(ServerConfig::default()).unwrap();
    let addr = server.addr();

    let batches: Vec<&[f64]> = data.chunks(batch).collect();
    let mut hands: Vec<Vec<usize>> = vec![Vec::new(); clients];
    for i in 0..batches.len() {
        hands[i % clients].push(i);
    }
    for (t, hand) in hands.iter_mut().enumerate() {
        hand.shuffle(&mut StdRng::seed_from_u64(seed ^ (0xC0FFEE + t as u64)));
    }

    std::thread::scope(|s| {
        for hand in &hands {
            let batches = &batches;
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for &i in hand {
                    let n = client.add_binary("s", batches[i]).unwrap();
                    assert_eq!(n as usize, batches[i].len());
                }
            });
        }
    });

    let mut client = Client::connect(addr).unwrap();
    let reply = client.sum("s").unwrap();
    assert!(!reply.poisoned);
    client.shutdown().unwrap();
    server.join().unwrap();
    reply.limbs
}

/// The acceptance criterion for the whole subsystem: two runs that agree
/// on nothing but the multiset of summands — different client counts,
/// different batch sizes and orders — must return bitwise-identical
/// serialized sums, equal to the sequential HP sum, including for bit
/// patterns (denormals, -0.0) a lossy encoding would mangle.
#[test]
fn bitwise_identical_across_configurations() {
    let mut data = dataset(20_000, 42);
    data.extend_from_slice(&[
        -0.0,
        f64::MIN_POSITIVE,
        5e-324,
        -5e-324,
        1.0e15,
        -(1.0 + f64::EPSILON),
    ]);
    let expected = ServiceHp::sum_f64_slice(&data).as_limbs().to_vec();

    let run_a = run_service(&data, 2, 700, 1);
    let run_b = run_service(&data, 5, 123, 2);
    assert_eq!(run_a, expected);
    assert_eq!(run_b, expected);
    assert_eq!(run_a, run_b);
}

/// Binary Adds and control requests interleave freely on a single
/// connection.
#[test]
fn mixed_protocols_on_one_connection() {
    let data = dataset(4_000, 5);
    let server = serve(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut values = 0;
    for (i, chunk) in data.chunks(137).enumerate() {
        values += client.add_binary("mixed", chunk).unwrap();
        let (_, streams) = client.stats().unwrap();
        assert_eq!(
            (streams[0].batches, streams[0].values),
            (i as u64 + 1, values),
            "stats after Add {i}"
        );
    }
    assert_eq!(
        client.sum("mixed").unwrap().limbs,
        ServiceHp::sum_f64_slice(&data).as_limbs().to_vec()
    );
    client.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn graceful_shutdown_loses_no_acked_batches() {
    let path = temp_path("shutdown");
    std::fs::remove_file(&path).ok();
    let data = dataset(5_000, 7);

    let server = serve(ServerConfig {
        snapshot_path: Some(path.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    // Three clients deposit everything; every batch is ACKed before its
    // client moves on, so by the time the threads join, all deposits are
    // in the ledger.
    std::thread::scope(|s| {
        for t in 0..3 {
            let data = &data;
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for (i, chunk) in data.chunks(91).enumerate() {
                    if i % 3 == t {
                        client.add_binary("s", chunk).unwrap();
                    }
                }
            });
        }
    });

    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    server.join().unwrap();

    // The post-shutdown snapshot must contain every ACKed batch: restore
    // it into a fresh server and compare limbs bitwise.
    let expected = ServiceHp::sum_f64_slice(&data).as_limbs().to_vec();
    let restored = serve(ServerConfig {
        snapshot_path: Some(path.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(restored.addr()).unwrap();
    let reply = client.sum("s").unwrap();
    assert_eq!(reply.limbs, expected, "snapshot lost ACKed batches");
    client.shutdown().unwrap();
    restored.join().unwrap();
    std::fs::remove_file(&path).ok();
}

#[test]
fn snapshot_request_persists_on_demand() {
    let path = temp_path("on-demand");
    std::fs::remove_file(&path).ok();
    let server = serve(ServerConfig {
        snapshot_path: Some(path.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.add_binary("x", &[1.5, -0.25]).unwrap();
    client.add_binary("y", &[2.0]).unwrap();
    assert_eq!(client.snapshot().unwrap(), 2);
    assert!(path.exists());
    client.shutdown().unwrap();
    server.join().unwrap();
    std::fs::remove_file(&path).ok();
}

#[test]
fn unknown_stream_yields_typed_error() {
    let server = serve(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    match client.sum("never-written") {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, oisum_service::proto::ErrorCode::UnknownStream);
        }
        other => panic!("expected typed server error, got {other:?}"),
    }
    client.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn stats_reflect_traffic_and_reset_clears() {
    let server = serve(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.add_binary("a", &[1.0, 2.0, 3.0]).unwrap();
    client.add_binary("a", &[4.0]).unwrap();
    client.add_binary("b", &[5.0]).unwrap();

    let (shard_count, streams) = client.stats().unwrap();
    assert_eq!(shard_count, 1);
    assert_eq!(streams.len(), 2);
    let a = streams.iter().find(|s| s.name == "a").unwrap();
    assert_eq!((a.batches, a.values, a.overflows), (2, 4, 0));

    client.reset().unwrap();
    let (_, streams) = client.stats().unwrap();
    assert!(streams.is_empty());
    client.shutdown().unwrap();
    server.join().unwrap();
}

/// A `Reset` on a server with a write-ahead log is refused with a typed
/// `bad_request` and leaves the ledger as it was: the log holds no reset
/// record, so a restart would replay every batch a reset cleared. Add
/// 1.5, `Reset`, add 2.0: the live sum and the sum after a restart are
/// both 3.5.
#[test]
fn reset_with_a_wal_is_refused_and_a_restart_keeps_the_sum() {
    let dir = std::env::temp_dir()
        .join(format!("oisum-service-test-{}-reset-wal", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig { wal: Some(WalConfig::new(&dir)), ..ServerConfig::default() };
    let server = serve(config.clone()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.add_binary("s", &[1.5]).unwrap();
    let held = client.sum("s").unwrap().limbs;
    match client.reset() {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::BadRequest, "{message}");
            assert!(message.contains("write-ahead log"), "{message}");
        }
        other => panic!("a reset on a WAL-backed server got {other:?}"),
    }
    assert_eq!(client.sum("s").unwrap().limbs, held, "the refused reset touched the ledger");
    client.add_binary("s", &[2.0]).unwrap();
    let live = client.sum("s").unwrap().limbs;
    assert_eq!(live, ServiceHp::sum_f64_slice(&[1.5, 2.0]).as_limbs().to_vec());
    client.shutdown().unwrap();
    server.join().unwrap();

    let server = serve(config).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(client.sum("s").unwrap().limbs, live, "the restart changed the sum");
    client.shutdown().unwrap();
    server.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The exactly-once guarantee, proven at the wire level: the *same*
/// binary Add frame delivered three times — twice on one connection,
/// once from a fresh connection standing in for a reconnecting client —
/// deposits exactly once. The replays are ACKed (`deduped: true`), the
/// sum's limbs equal a single application, and the stream's `values`
/// statistic counts the batch once.
#[test]
fn replayed_binary_frame_applies_exactly_once() {
    use oisum_service::proto::add_binary_bytes;

    let server = serve(ServerConfig::default()).unwrap();
    let values = [1.5, -0.25, 5e-324];
    let frame = add_binary_bytes("r", 0x00C1_1E17, 1, &values).unwrap();

    let deliver = |sock: &mut std::net::TcpStream| -> (u64, bool) {
        sock.write_all(&frame).unwrap();
        sock.flush().unwrap();
        match read_response(sock).unwrap().expect("reply") {
            Response::Added { count, deduped } => (count, deduped),
            other => panic!("expected Added, got {other:?}"),
        }
    };

    let mut sock = std::net::TcpStream::connect(server.addr()).unwrap();
    assert_eq!(deliver(&mut sock), (3, false), "original must apply");
    assert_eq!(deliver(&mut sock), (3, true), "same-connection replay must dedup");
    drop(sock);

    // A retry after reconnect is the realistic failure mode: identity
    // lives in the frame, not the connection, so it still dedups.
    let mut sock = std::net::TcpStream::connect(server.addr()).unwrap();
    assert_eq!(deliver(&mut sock), (3, true), "cross-connection replay must dedup");
    drop(sock);

    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(
        client.sum("r").unwrap().limbs,
        ServiceHp::sum_f64_slice(&values).as_limbs().to_vec(),
        "sum must reflect exactly one application"
    );
    let (_, streams) = client.stats().unwrap();
    let r = streams.iter().find(|s| s.name == "r").unwrap();
    assert_eq!(r.values, 3, "values statistic must count the batch once");
    client.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn garbage_bytes_do_not_wedge_the_server() {
    use std::io::Write;
    let server = serve(ServerConfig::default()).unwrap();
    // A peer speaking the wrong protocol gets dropped...
    let mut bogus = std::net::TcpStream::connect(server.addr()).unwrap();
    bogus.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    drop(bogus);
    // ...while real clients keep working.
    let mut client = Client::connect(server.addr()).unwrap();
    client.add_binary("s", &[1.0]).unwrap();
    assert_eq!(
        client.sum("s").unwrap().limbs,
        ServiceHp::sum_f64_slice(&[1.0]).as_limbs().to_vec()
    );
    client.shutdown().unwrap();
    server.join().unwrap();
}

/// A well-framed request under an op the protocol does not know gets a
/// typed `bad_request` naming the op, then a close.
#[test]
fn malformed_request_gets_typed_bad_request_reply() {
    let server = serve(ServerConfig::default()).unwrap();
    let mut sock = std::net::TcpStream::connect(server.addr()).unwrap();
    sock.write_all(&MAGIC).unwrap();
    sock.write_all(&1u32.to_be_bytes()).unwrap();
    sock.write_all(&[0x7E]).unwrap();
    sock.flush().unwrap();
    match read_response(&mut sock).unwrap().expect("typed reply before close") {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("unknown op 0x7e"), "{message}");
        }
        other => panic!("expected a bad_request error reply, got {other:?}"),
    }
    // After the reply the server closes: framing can no longer be trusted.
    assert!(read_response(&mut sock).unwrap().is_none());
    drop(sock);
    let mut client = Client::connect(server.addr()).unwrap();
    client.shutdown().unwrap();
    server.join().unwrap();
}

/// Every accepted connection is served at once, however many others
/// stay open. Four clients hold their connections; a fifth, which
/// neither waits past 2 s nor retries, must still get its reply. (A
/// fixed pool of four workers, each owning a connection until EOF, left
/// the fifth unanswered until one of the four hung up.)
#[test]
fn fifth_open_client_is_served() {
    let server = serve(ServerConfig::default()).unwrap();
    let mut open: Vec<Client> = (0..4).map(|_| Client::connect(server.addr()).unwrap()).collect();
    for client in &mut open {
        client.stats().unwrap();
    }
    let mut fifth = Client::connect_with(
        server.addr(),
        ClientConfig { read_timeout: Some(Duration::from_secs(2)), retries: 0, ..ClientConfig::default() },
    )
    .unwrap();
    let reply = fifth.stats();
    assert!(reply.is_ok(), "the fifth open client got no reply: {reply:?}");
    drop(open);
    fifth.shutdown().unwrap();
    server.join().unwrap();
}

/// Records every replicate call.
#[derive(Default)]
struct RecordingCluster {
    calls: Mutex<Vec<(String, u64, u64, usize)>>,
}

impl ClusterOps for RecordingCluster {
    fn replicate(&self, stream: &str, client_id: u64, seq: u64, value_bytes: &[u8]) -> Result<(), String> {
        self.calls.lock().unwrap().push((stream.to_owned(), client_id, seq, value_bytes.len()));
        Ok(())
    }

    fn cluster_sum(&self, _stream: &str) -> Result<ClusterSumOut, String> {
        Err("not under test".into())
    }
}

/// The transports to run a wire test on; the epoll reactor runs on
/// linux/x86_64 only.
fn transports() -> &'static [Transport] {
    if cfg!(all(target_os = "linux", target_arch = "x86_64")) {
        &[Transport::Threads, Transport::Epoll]
    } else {
        &[Transport::Threads]
    }
}

/// Sends `wire` on a fresh connection and expects a typed `bad_request`
/// whose message contains `names`, then a close.
fn expect_refusal(addr: std::net::SocketAddr, wire: &[u8], names: &str, what: &str) {
    let mut sock = std::net::TcpStream::connect(addr).unwrap();
    sock.write_all(wire).unwrap();
    match read_response(&mut sock).unwrap().expect("typed reply before close") {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::BadRequest, "{what}: {message}");
            assert!(message.contains(names), "{what}: {message}");
        }
        other => panic!("{what}: got {other:?}"),
    }
    assert!(read_response(&mut sock).unwrap().is_none(), "{what}: the connection stayed open");
}

/// `magic`, a u32 BE length and `payload`: a frame of any version.
fn framed(magic: &[u8; 4], payload: &[u8]) -> Vec<u8> {
    let mut wire = magic.to_vec();
    wire.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    wire.extend_from_slice(payload);
    wire
}

/// One frame under each retired version: an `OIS\x01` JSON `sum`, an
/// `OIS\x02` Add (that version's body: name, identity, values, no op
/// byte) into a new stream, and an `OIS\x03` peer `Hello`. Then a peer
/// `Hello` and `MirrorAdd` under the current header, which the client
/// port refuses by op. On both transports, each is refused as a
/// `bad_request` naming the version or the op and its connection
/// closed, before replication, deposit or WAL append: limbs, stats, the
/// WAL's group counters and the cluster's replicate calls stay as they
/// were.
#[test]
fn retired_versions_and_peer_ops_are_refused_before_apply() {
    use oisum_service::proto::{le_bytes, peer_hello_into, peer_mirror_add_into};
    let mut v2_add = vec![0, 5];
    v2_add.extend_from_slice(b"fresh");
    v2_add.extend_from_slice(&7u64.to_be_bytes());
    v2_add.extend_from_slice(&2u64.to_be_bytes());
    v2_add.extend_from_slice(&le_bytes(&[3.0]));
    let mut v3_hello = vec![0x01];
    v3_hello.extend_from_slice(&1u32.to_be_bytes());
    v3_hello.extend_from_slice(&0xFEEDu64.to_be_bytes());
    let mut hello = Vec::new();
    peer_hello_into(&mut hello, 1, 0xFEED).unwrap();
    let mut mirror = Vec::new();
    peer_mirror_add_into(&mut mirror, 1, "fresh", 7, 3, &le_bytes(&[4.0])).unwrap();
    let refusals = [
        (framed(b"OIS\x01", br#"{"op":"sum","stream":"held"}"#), "retired protocol version 1"),
        (framed(b"OIS\x02", &v2_add), "retired protocol version 2"),
        (framed(b"OIS\x03", &v3_hello), "retired protocol version 3"),
        (hello, "peer op 0x11 refused on the client port"),
        (mirror, "peer op 0x12 refused on the client port"),
    ];
    for &transport in transports() {
        let dir = std::env::temp_dir()
            .join(format!("oisum-service-test-{}-retired-{transport}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = Arc::new(Wal::open(WalConfig::new(&dir)).unwrap());
        let cluster = Arc::new(RecordingCluster::default());
        let core = RequestCore::new(Arc::new(ShardedLedger::new(4)))
            .with_wal(Arc::clone(&wal))
            .with_cluster(Arc::clone(&cluster) as Arc<dyn ClusterOps>);
        let server =
            serve_with_core(&ServerConfig { transport, ..ServerConfig::default() }, Arc::new(core))
                .unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        client.add_binary("held", &[1.5, -0.25]).unwrap();
        let limbs = client.sum("held").unwrap().limbs;
        let stats = client.stats().unwrap();
        let logged = wal.group_stats();
        let replicated = cluster.calls.lock().unwrap().clone();
        assert_eq!(replicated.len(), 1, "{transport}: the binary Add was not replicated");

        for (wire, names) in &refusals {
            expect_refusal(server.addr(), wire, names, &format!("{transport}: {names}"));
        }

        assert_eq!(client.sum("held").unwrap().limbs, limbs, "{transport}");
        assert_eq!(client.stats().unwrap(), stats, "{transport}");
        assert!(
            matches!(client.sum("fresh"), Err(ClientError::Server { code: ErrorCode::UnknownStream, .. })),
            "{transport}: a refused Add created its stream"
        );
        assert_eq!(wal.group_stats(), logged, "{transport}: a refused frame was logged");
        assert_eq!(*cluster.calls.lock().unwrap(), replicated, "{transport}: a refused Add was replicated");
        client.shutdown().unwrap();
        server.join().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A `Stats` reply too large for one frame — 260 streams with
/// 65,000-byte names, about 16.9 MB against the 16 MiB cap — is answered
/// with a typed `internal` error naming the reply's size and the cap,
/// and the connection keeps serving: a `Sum` follows on it, on both
/// transports.
#[test]
fn an_oversized_stats_reply_is_refused_and_the_connection_serves_on() {
    use oisum_service::proto::MAX_FRAME;
    const STREAMS: usize = 260;
    const NAME: usize = 65_000;
    for &transport in transports() {
        let server = serve(ServerConfig { transport, ..ServerConfig::default() }).unwrap();
        // No retries: every reply below arrives on the one connection.
        let mut client = Client::connect_with(
            server.addr(),
            ClientConfig { retries: 0, ..ClientConfig::default() },
        )
        .unwrap();
        for k in 0..STREAMS {
            let name = format!("{k:03}{}", "n".repeat(NAME - 3));
            client.add_binary(&name, &[k as f64]).unwrap();
        }
        // The op byte, the stream count, then per stream the name and
        // its three counters.
        let size = 5 + STREAMS * (2 + NAME + 24);
        match client.stats() {
            Err(ClientError::Server { code: ErrorCode::Internal, message }) => {
                assert!(message.contains(&format!("{size}-byte")), "{transport}: {message}");
                assert!(message.contains(&format!("{MAX_FRAME}-byte")), "{transport}: {message}");
            }
            other => panic!("{transport}: an oversized Stats reply got {other:?}"),
        }
        let first = format!("000{}", "n".repeat(NAME - 3));
        assert_eq!(
            client.sum(&first).unwrap().limbs,
            ServiceHp::sum_f64_slice(&[0.0]).as_limbs().to_vec(),
            "{transport}"
        );
        client.shutdown().unwrap();
        server.join().unwrap();
    }
}
