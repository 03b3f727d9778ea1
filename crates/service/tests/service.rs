//! End-to-end service tests over real TCP connections.

use oisum_service::proto::{read_frame, ErrorCode, Response, MAGIC};
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

/// Both frame versions interleave freely on a single connection: binary
/// Adds with JSON control requests between them.
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
    use oisum_service::proto::{add_binary_bytes, read_frame, Response};
    use std::io::Write;

    let server = serve(ServerConfig::default()).unwrap();
    let values = [1.5, -0.25, 5e-324];
    let frame = add_binary_bytes("r", 0x00C1_1E17, 1, &values).unwrap();

    let deliver = |sock: &mut std::net::TcpStream| -> (u64, bool) {
        sock.write_all(&frame).unwrap();
        sock.flush().unwrap();
        match read_frame::<_, Response>(sock).unwrap().expect("reply") {
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

#[test]
fn malformed_request_gets_typed_bad_request_reply() {
    use oisum_service::proto::{read_frame, ErrorCode, Response, MAGIC};
    use std::io::Write;
    let server = serve(ServerConfig::default()).unwrap();
    // Well-framed, but an op the protocol does not know.
    let mut sock = std::net::TcpStream::connect(server.addr()).unwrap();
    let payload = br#"{"op":"frobnicate"}"#;
    sock.write_all(&MAGIC).unwrap();
    sock.write_all(&(payload.len() as u32).to_be_bytes()).unwrap();
    sock.write_all(payload).unwrap();
    sock.flush().unwrap();
    match read_frame::<_, Response>(&mut sock).unwrap().expect("typed reply before close") {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("frobnicate"), "{message}");
        }
        other => panic!("expected a bad_request error reply, got {other:?}"),
    }
    // After the reply the server closes: framing can no longer be trusted.
    assert!(read_frame::<_, Response>(&mut sock).unwrap().is_none());
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

/// A batch travels only as a binary Add. A JSON `add` frame, tracked or
/// not, into a held or a new stream, is refused as `bad_request` naming
/// the op and its connection closed, on both transports — before
/// replication, deposit or WAL append: limbs, stats, the WAL's group
/// counters and the cluster's replicate calls stay as they were.
#[test]
fn json_add_is_refused_before_apply() {
    // The epoll reactor runs on linux/x86_64 only.
    let transports: &[Transport] = if cfg!(all(target_os = "linux", target_arch = "x86_64")) {
        &[Transport::Threads, Transport::Epoll]
    } else {
        &[Transport::Threads]
    };
    for &transport in transports {
        let dir = std::env::temp_dir()
            .join(format!("oisum-service-test-{}-json-add-{transport}", std::process::id()));
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

        for payload in [
            r#"{"op":"add","stream":"held","values":[1.0,2.0],"client_id":7,"seq":1}"#,
            r#"{"op":"add","stream":"held","values":[1.0,2.0]}"#,
            r#"{"op":"add","stream":"fresh","values":[3.0],"client_id":7,"seq":2}"#,
        ] {
            let mut sock = std::net::TcpStream::connect(server.addr()).unwrap();
            sock.write_all(&MAGIC).unwrap();
            sock.write_all(&(payload.len() as u32).to_be_bytes()).unwrap();
            sock.write_all(payload.as_bytes()).unwrap();
            match read_frame::<_, Response>(&mut sock).unwrap().expect("typed reply before close") {
                Response::Error { code, message } => {
                    assert_eq!(code, ErrorCode::BadRequest, "{transport}: {message}");
                    assert!(message.contains("unknown op `add`"), "{transport}: {message}");
                }
                other => panic!("{transport}: a JSON add got {other:?}"),
            }
            assert!(
                read_frame::<_, Response>(&mut sock).unwrap().is_none(),
                "{transport}: the connection stayed open after the refusal"
            );
        }

        assert_eq!(client.sum("held").unwrap().limbs, limbs, "{transport}");
        assert_eq!(client.stats().unwrap(), stats, "{transport}");
        assert!(
            matches!(client.sum("fresh"), Err(ClientError::Server { code: ErrorCode::UnknownStream, .. })),
            "{transport}: a refused Add created its stream"
        );
        assert_eq!(wal.group_stats(), logged, "{transport}: a refused Add was logged");
        assert_eq!(*cluster.calls.lock().unwrap(), replicated, "{transport}: a refused Add was replicated");
        client.shutdown().unwrap();
        server.join().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
