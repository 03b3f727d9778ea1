//! End-to-end tests for the epoll reactor transport.
//!
//! The contract under test: `--transport epoll` is a pure transport
//! swap. Same protocol, same [`RequestCore`] dispatch, same exactly-once
//! dedup, same "ACKed ⇒ durable" WAL guarantee — and therefore sums
//! that are bitwise identical to the threaded transport no matter how
//! frames are split, interleaved, pipelined, or retried across a crash.
//!
//! Compiled only on linux/x86_64 (the epoll shim's target); the
//! fault-seam storms additionally need `--features failpoints`.

#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

use oisum_service::proto::{
    add_binary_bytes, read_response, request_into, Request, Response, StreamStatsRepr,
};
use oisum_service::wal::{FsyncPolicy, WalConfig};
use oisum_service::{
    recovery, serve, Client, ServerConfig, ServiceHp, ShardedLedger, Transport,
};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

fn temp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("oisum-reactor-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
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

fn request_bytes(req: &Request) -> Vec<u8> {
    let mut frame = Vec::new();
    request_into(&mut frame, req).unwrap();
    frame
}

fn epoll_server(config: ServerConfig) -> (oisum_service::ServerHandle, SocketAddr) {
    let server = serve(ServerConfig { transport: Transport::Epoll, ..config }).unwrap();
    let addr = server.addr();
    (server, addr)
}

/// Deposits shuffled batch hands of `data` from `clients` concurrent
/// connections over the given transport and returns the sum limbs.
fn run_transport(data: &[f64], clients: usize, batch: usize, transport: Transport) -> Vec<u64> {
    let server = serve(ServerConfig { transport, ..ServerConfig::default() }).unwrap();
    let addr = server.addr();

    let batches: Vec<&[f64]> = data.chunks(batch).collect();
    let mut hands: Vec<Vec<usize>> = vec![Vec::new(); clients];
    for i in 0..batches.len() {
        hands[i % clients].push(i);
    }
    for (t, hand) in hands.iter_mut().enumerate() {
        hand.shuffle(&mut StdRng::seed_from_u64(0xFEED ^ t as u64));
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

/// The headline property: swapping the transport changes no bit of any
/// sum. Both transports must equal the sequential HP reference.
#[test]
fn epoll_and_threads_sums_are_bitwise_identical() {
    let data = dataset(20_000, 7);
    let expected = ServiceHp::sum_f64_slice(&data).as_limbs().to_vec();
    let threads = run_transport(&data, 4, 333, Transport::Threads);
    let epoll = run_transport(&data, 4, 507, Transport::Epoll);
    assert_eq!(threads, expected);
    assert_eq!(epoll, expected);
}

/// Frames trickled one byte at a time — every header and body read
/// split at every possible boundary — must decode exactly like a single
/// write. This drives the reactor's `ReadHeader`/`ReadBody` coroutine
/// through its maximal fragmentation without any failpoint.
#[test]
fn one_byte_trickled_frames_decode_exactly() {
    let (server, addr) = epoll_server(ServerConfig::default());
    let values = [1.5, -2.25, 3.0e-7];
    let frame = add_binary_bytes("trickle", 0, 0, &values).unwrap();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    for &b in &frame {
        stream.write_all(&[b]).unwrap();
        stream.flush().unwrap();
    }
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let reply = read_response(&mut reader).unwrap().unwrap();
    match reply {
        Response::Added { count, .. } => assert_eq!(count, values.len() as u64),
        other => panic!("unexpected reply: {other:?}"),
    }
    drop(reader);
    drop(stream);

    let mut client = Client::connect(addr).unwrap();
    let expected = ServiceHp::sum_f64_slice(&values).as_limbs().to_vec();
    assert_eq!(client.sum("trickle").unwrap().limbs, expected);
    client.shutdown().unwrap();
    server.join().unwrap();
}

/// Many frames — binary Adds with control requests between them —
/// sent as one contiguous write must produce one reply per frame, in
/// order, each control reply seeing exactly the Adds ahead of it.
/// Pipelining is the reactor's bread and butter: a single readable edge
/// carries them all.
#[test]
fn pipelined_mixed_frames_on_one_connection() {
    let (server, addr) = epoll_server(ServerConfig::default());
    let data = dataset(600, 21);

    let mut wire = Vec::new();
    let mut replies = Vec::new();
    for (i, chunk) in data.chunks(60).enumerate() {
        wire.extend_from_slice(&add_binary_bytes("p", 0, 0, chunk).unwrap());
        replies.push(Response::Added { count: chunk.len() as u64, deduped: false });
        if i % 2 == 1 {
            wire.extend_from_slice(&request_bytes(&Request::Sum { stream: "p".to_owned() }));
            let prefix = ServiceHp::sum_f64_slice(&data[..60 * (i + 1)]);
            replies.push(Response::Sum { limbs: prefix.as_limbs().to_vec(), poisoned: false });
        }
    }
    wire.extend_from_slice(&request_bytes(&Request::Stats));
    replies.push(Response::Stats {
        streams: vec![StreamStatsRepr { name: "p".to_owned(), batches: 10, values: 600, overflows: 0 }],
    });

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&wire).unwrap();
    let mut reader = BufReader::new(stream);
    for (i, expected) in replies.iter().enumerate() {
        let reply = read_response(&mut reader).unwrap().unwrap();
        assert_eq!(&reply, expected, "reply {i}");
    }

    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    server.join().unwrap();
}

/// A malformed frame gets the typed `BadRequest` error and a close —
/// same contract as the threaded server — without disturbing other
/// connections on the same reactor.
#[test]
fn malformed_frame_is_refused_without_collateral() {
    let (server, addr) = epoll_server(ServerConfig::default());

    let mut healthy = Client::connect(addr).unwrap();
    healthy.add_binary("h", &[1.0, 2.0]).unwrap();

    let mut bad = TcpStream::connect(addr).unwrap();
    bad.write_all(b"BOGUS!!!").unwrap();
    let mut reader = BufReader::new(bad.try_clone().unwrap());
    match read_response(&mut reader).unwrap().unwrap() {
        Response::Error { .. } => {}
        other => panic!("expected a typed error, got {other:?}"),
    }
    // The server closes after the error reply.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());

    // The healthy connection is unaffected.
    let expected = ServiceHp::sum_f64_slice(&[1.0, 2.0]).as_limbs().to_vec();
    assert_eq!(healthy.sum("h").unwrap().limbs, expected);
    healthy.shutdown().unwrap();
    server.join().unwrap();
}

/// WAL-backed reactor: ACKed tracked batches park on group-commit
/// tickets instead of blocking a thread, and every ACK still implies
/// durability — recovery from the segments alone re-covers every ACKed
/// `(client_id, seq)`.
#[test]
fn wal_parking_acks_are_durable() {
    let dir = temp_dir("parking");
    let wal = WalConfig {
        fsync: FsyncPolicy::Group,
        ..WalConfig::new(&dir)
    };
    let (server, addr) =
        epoll_server(ServerConfig { wal: Some(wal), ..ServerConfig::default() });

    let data = dataset(4_000, 90);
    let batches: Vec<&[f64]> = data.chunks(100).collect();
    std::thread::scope(|s| {
        for t in 0..4usize {
            let batches = &batches;
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for (i, b) in batches.iter().enumerate() {
                    if i % 4 == t {
                        client.add_binary("w", b).unwrap();
                    }
                }
            });
        }
    });

    let mut client = Client::connect(addr).unwrap();
    let expected = ServiceHp::sum_f64_slice(&data).as_limbs().to_vec();
    assert_eq!(client.sum("w").unwrap().limbs, expected);
    client.shutdown().unwrap();
    server.join().unwrap();

    // Replay the log into a fresh ledger: the full dataset must come
    // back bitwise — every ACK was covered by a committed record.
    let ledger = ShardedLedger::new(4);
    recovery::recover(&dir, &ledger).unwrap();
    assert_eq!(ledger.sum("w").unwrap().as_limbs().to_vec(), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replayed tracked frames on the reactor deposit nothing: the dedup
/// window is transport-agnostic, so resending an ACKed batch (same
/// `(client_id, seq)`) over a new connection is ACKed without changing
/// the sum.
#[test]
fn duplicate_frames_are_acked_but_not_double_counted() {
    let (server, addr) = epoll_server(ServerConfig::default());
    let values = dataset(500, 5);
    let frame = add_binary_bytes("d", 77, 1, &values).unwrap();

    for _ in 0..3 {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&frame).unwrap();
        let mut reader = BufReader::new(stream);
        match read_response(&mut reader).unwrap().unwrap() {
            Response::Added { count, .. } => assert_eq!(count, values.len() as u64),
            other => panic!("unexpected reply: {other:?}"),
        }
    }

    let mut client = Client::connect(addr).unwrap();
    let expected = ServiceHp::sum_f64_slice(&values).as_limbs().to_vec();
    assert_eq!(client.sum("d").unwrap().limbs, expected);
    client.shutdown().unwrap();
    server.join().unwrap();
}

/// `ServerHandle::shutdown` (the poke path, no Shutdown frame) drains
/// and joins cleanly with idle connections still open.
#[test]
fn external_shutdown_with_idle_connections() {
    let (server, addr) = epoll_server(ServerConfig::default());
    let idle: Vec<TcpStream> =
        (0..32).map(|_| TcpStream::connect(addr).unwrap()).collect();
    let mut client = Client::connect(addr).unwrap();
    client.add_binary("x", &[1.0]).unwrap();
    server.shutdown();
    server.join().unwrap();
    drop(idle);
    drop(client);
}

#[cfg(feature = "failpoints")]
mod storms {
    //! Fault-seam storms over the reactor's nonblocking I/O wrappers
    //! and a crash-and-replay drill at connection scale. Serialized on
    //! one lock because the failpoint registry is process-global.

    use super::*;
    use oisum_faults::{registry, FaultAction, FireRule};
    use oisum_service::raise_nofile_limit;
    use std::sync::Mutex;

    static STORM_LOCK: Mutex<()> = Mutex::new(());

    struct Guard {
        _lock: std::sync::MutexGuard<'static, ()>,
    }

    fn guard() -> Guard {
        let lock = STORM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        registry().reset(0);
        Guard { _lock: lock }
    }

    impl Drop for Guard {
        fn drop(&mut self) {
            registry().reset(0);
        }
    }

    /// Every server-side read clamped to one byte: maximal kernel-side
    /// fragmentation. The sums must not move a bit.
    #[test]
    fn partial_read_storm_preserves_sums() {
        let _g = guard();
        registry().arm("reactor.read.partial", FireRule::Always, FaultAction::Delay { ms: 0 });
        let (server, addr) = epoll_server(ServerConfig::default());
        let data = dataset(800, 13);
        let mut client = Client::connect(addr).unwrap();
        for chunk in data.chunks(80) {
            client.add_binary("frag", chunk).unwrap();
        }
        let expected = ServiceHp::sum_f64_slice(&data).as_limbs().to_vec();
        assert_eq!(client.sum("frag").unwrap().limbs, expected);
        client.shutdown().unwrap();
        server.join().unwrap();
    }

    /// Replies squeezed through 3-byte writes with spurious would-block
    /// returns in between: the flush path crosses many writability
    /// edges per reply and must never tear or reorder one.
    #[test]
    fn short_write_storm_preserves_replies() {
        let _g = guard();
        registry().arm(
            "reactor.write.eagain",
            FireRule::Always,
            FaultAction::PartialWrite { keep: 3 },
        );
        let (server, addr) = epoll_server(ServerConfig::default());
        let data = dataset(400, 17);
        let mut client = Client::connect(addr).unwrap();
        for chunk in data.chunks(50) {
            client.add_binary("sw", chunk).unwrap();
        }
        let expected = ServiceHp::sum_f64_slice(&data).as_limbs().to_vec();
        assert_eq!(client.sum("sw").unwrap().limbs, expected);
        client.shutdown().unwrap();
        server.join().unwrap();
    }

    /// The crash drill at connection scale: a WAL-backed reactor holding
    /// ~1k open connections is killed mid-load (crash seam after the
    /// group commit), then a fresh server recovers from the segments and
    /// every client replays its full batch sequence. Exactly-once dedup
    /// must absorb the overlap: the final sum equals the reference over
    /// each batch exactly once.
    #[test]
    fn crash_under_1k_connections_replays_exactly_once() {
        let _g = guard();
        // ~1k idle sockets + writers on both ends; make sure this
        // process can hold them (skip only if the shim can't raise).
        if raise_nofile_limit(4096).map(|(soft, _)| soft < 3000).unwrap_or(true) {
            eprintln!("skipping: cannot raise RLIMIT_NOFILE high enough");
            return;
        }
        let dir = temp_dir("crash-1k");
        let wal = WalConfig {
            fsync: FsyncPolicy::Group,
            ..WalConfig::new(&dir)
        };
        let (server, addr) =
            epoll_server(ServerConfig { wal: Some(wal.clone()), ..ServerConfig::default() });

        // 1000 open connections the reactor must hold while the writers
        // below push it into the crash.
        let idle: Vec<TcpStream> =
            (0..1000).map(|_| TcpStream::connect(addr).unwrap()).collect();

        const WRITERS: u64 = 3;
        const BATCHES: usize = 30;
        const BATCH: usize = 40;
        let chunks: Vec<Vec<f64>> =
            (0..WRITERS).map(|c| dataset(BATCHES * BATCH, 0xA5 ^ (c + 1) << 8)).collect();

        // Kill the server partway through the load: the seam fires after
        // a group commit, so the crashed batch is durable but its ACK
        // (and everything after) is lost.
        registry().arm("server.crash.after_commit", FireRule::Nth(40), FaultAction::Disconnect);

        let push = |addr: SocketAddr, chunks: &[Vec<f64>]| {
            std::thread::scope(|s| {
                for c in 0..WRITERS {
                    let data = &chunks[c as usize];
                    s.spawn(move || {
                        let mut client = super::storm_client(addr, c + 1);
                        for b in data.chunks(BATCH) {
                            if client.add_binary("k", b).is_err() {
                                return; // server crashed; replay later
                            }
                        }
                    });
                }
            });
        };
        push(addr, &chunks);
        assert!(
            registry().fired("server.crash.after_commit") > 0,
            "the crash seam never fired"
        );
        drop(idle);
        server.shutdown();
        // The poisoned WAL surfaces as a join error; the segments on
        // disk are the source of truth.
        let _ = server.join();

        // Restart on the same log; every writer replays its *entire*
        // sequence with the same retry identities.
        registry().reset(0);
        let ledger = std::sync::Arc::new(ShardedLedger::new(8));
        recovery::recover(&dir, &ledger).unwrap();
        let core = oisum_service::RequestCore::new(std::sync::Arc::clone(&ledger))
            .with_wal(std::sync::Arc::new(oisum_service::Wal::open(wal).unwrap()));
        let server2 = oisum_service::serve_with_core(
            &ServerConfig { transport: Transport::Epoll, ..ServerConfig::default() },
            std::sync::Arc::new(core),
        )
        .unwrap();
        let addr2 = server2.addr();
        push(addr2, &chunks);

        let mut client = Client::connect(addr2).unwrap();
        let reply = client.sum("k").unwrap();
        let all: Vec<f64> = chunks.concat();
        let expected = ServiceHp::sum_f64_slice(&all).as_limbs().to_vec();
        assert_eq!(
            reply.limbs, expected,
            "replay after crash double-counted or dropped a batch"
        );
        client.shutdown().unwrap();
        server2.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(feature = "failpoints")]
fn storm_client(addr: SocketAddr, id: u64) -> Client {
    use oisum_service::ClientConfig;
    use std::time::Duration;
    Client::connect_with(
        addr,
        ClientConfig {
            read_timeout: Some(Duration::from_millis(500)),
            write_timeout: Some(Duration::from_millis(500)),
            retries: 4,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(8),
            client_id: Some(id),
            jitter_seed: id,
        },
    )
    .unwrap()
}
