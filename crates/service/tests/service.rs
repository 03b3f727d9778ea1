//! End-to-end service tests over real TCP connections.

use oisum_service::{serve, Client, ClientError, ServerConfig, ServiceHp};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::path::PathBuf;

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
/// batch hands of `data` into stream `s` over the JSON protocol, then
/// the sum limbs are read and the server is shut down.
fn run_service(data: &[f64], clients: usize, batch: usize, shards: usize, seed: u64) -> Vec<u64> {
    run_service_proto(data, clients, batch, shards, seed, false)
}

/// As [`run_service`], but with a protocol selector: `binary` makes
/// every client deposit over the `OIS\x02` raw-f64 Add frame instead of
/// JSON.
fn run_service_proto(
    data: &[f64],
    clients: usize,
    batch: usize,
    shards: usize,
    seed: u64,
    binary: bool,
) -> Vec<u64> {
    let server = serve(ServerConfig {
        shards,
        workers: clients.max(1),
        ..ServerConfig::default()
    })
    .unwrap();
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
                    let n = if binary {
                        client.add_binary("s", batches[i]).unwrap()
                    } else {
                        client.add("s", batches[i]).unwrap()
                    };
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
/// different batch sizes and orders, different shard counts — must
/// return bitwise-identical serialized sums, equal to the sequential HP
/// sum.
#[test]
fn bitwise_identical_across_configurations() {
    let data = dataset(20_000, 42);
    let expected = ServiceHp::sum_f64_slice(&data).as_limbs().to_vec();

    let run_a = run_service(&data, 2, 700, 16, 1);
    let run_b = run_service(&data, 5, 123, 3, 2);
    assert_eq!(run_a, expected);
    assert_eq!(run_b, expected);
    assert_eq!(run_a, run_b);
}

/// The binary `OIS\x02` Add path must be a pure transport optimization:
/// the same shuffled partitions of one dataset deposited as raw
/// little-endian `f64`s and as JSON text must land bitwise-identical
/// `Sum` limbs, equal to the sequential HP sum — including for values
/// (denormals, -0.0, huge magnitudes) where a decimal round-trip is the
/// classic way to lose bits.
#[test]
fn binary_and_json_adds_are_bitwise_identical() {
    let mut data = dataset(20_000, 99);
    // Bit-pattern hazards a lossy text round-trip would mangle.
    data.extend_from_slice(&[
        -0.0,
        f64::MIN_POSITIVE,
        5e-324,
        -5e-324,
        1.0e15,
        -(1.0 + f64::EPSILON),
    ]);
    let expected = ServiceHp::sum_f64_slice(&data).as_limbs().to_vec();

    let json_run = run_service_proto(&data, 3, 250, 8, 11, false);
    let binary_run = run_service_proto(&data, 3, 250, 8, 11, true);
    assert_eq!(json_run, expected);
    assert_eq!(binary_run, expected, "binary Add path diverged from the HP sum");
    assert_eq!(json_run, binary_run);
}

/// Both frame versions interleave freely on a single connection.
#[test]
fn mixed_protocols_on_one_connection() {
    let data = dataset(4_000, 5);
    let server = serve(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for (i, chunk) in data.chunks(137).enumerate() {
        let n = if i % 2 == 0 {
            client.add_binary("mixed", chunk).unwrap()
        } else {
            client.add("mixed", chunk).unwrap()
        };
        assert_eq!(n as usize, chunk.len());
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
        shards: 4,
        workers: 3,
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
                        client.add("s", chunk).unwrap();
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
        shards: 9, // different shard count: must not matter
        workers: 1,
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
    client.add("x", &[1.5, -0.25]).unwrap();
    client.add("y", &[2.0]).unwrap();
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
    let server = serve(ServerConfig { shards: 5, ..ServerConfig::default() }).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.add("a", &[1.0, 2.0, 3.0]).unwrap();
    client.add("a", &[4.0]).unwrap();
    client.add("b", &[5.0]).unwrap();

    let (shard_count, streams) = client.stats().unwrap();
    assert_eq!(shard_count, 5);
    assert_eq!(streams.len(), 2);
    let a = streams.iter().find(|s| s.name == "a").unwrap();
    assert_eq!((a.batches, a.values, a.overflows), (2, 4, 0));

    client.reset().unwrap();
    let (_, streams) = client.stats().unwrap();
    assert!(streams.is_empty());
    client.shutdown().unwrap();
    server.join().unwrap();
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

    let server = serve(ServerConfig { shards: 4, ..ServerConfig::default() }).unwrap();
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
    client.add("s", &[1.0]).unwrap();
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
