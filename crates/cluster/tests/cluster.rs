//! Clean-path cluster integration tests: bitwise identity across node
//! counts and coordinators, replication, restart/rejoin, and the
//! fingerprint gate. The chaos suite (fault injection) lives in
//! `cluster_chaos.rs`.

use std::sync::Arc;

use oisum_cluster::{
    mirror_stream_name, start_local_cluster, ClusterNode, ClusterNodeConfig, Membership, NodeSpec,
    Ring,
};
use oisum_service::{Client, ServiceHp};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Summands spanning ~30 orders of magnitude with mixed signs.
fn dataset(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mantissa = rng.random_range(-1.0f64..1.0);
            let exponent = rng.random_range(-12i32..=12);
            mantissa * 10f64.powi(exponent)
        })
        .collect()
}

/// Sprays `data` across the cluster in `batch`-sized tracked binary
/// adds, client `t` of `clients` feeding node `t % nodes`.
fn spray(addrs: &[std::net::SocketAddr], data: &[f64], batch: usize, clients: usize) {
    let batches: Vec<&[f64]> = data.chunks(batch).collect();
    std::thread::scope(|s| {
        for t in 0..clients {
            let addr = addrs[t % addrs.len()];
            let batches = &batches;
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for (i, chunk) in batches.iter().enumerate() {
                    if i % clients == t {
                        let n = client.add_binary("s", chunk).expect("add_binary");
                        assert_eq!(n as usize, chunk.len());
                    }
                }
            });
        }
    });
}

fn shutdown_all(nodes: Vec<ClusterNode>) {
    for node in &nodes {
        node.shutdown();
    }
    for node in nodes {
        node.join().expect("clean shutdown");
    }
}

#[test]
fn cluster_sum_is_bitwise_identical_across_node_counts_and_coordinators() {
    let data = dataset(9_000, 0xC1);
    let expected = ServiceHp::sum_f64_slice(&data);

    let mut seen = Vec::new();
    for n in [1usize, 2, 3] {
        let (_m, nodes) = start_local_cluster(n, 2, |_| {}).expect("start cluster");
        let addrs: Vec<_> = nodes.iter().map(|nd| nd.client_addr()).collect();
        spray(&addrs, &data, 250, 4);

        // Every node is an equally good coordinator: same limbs, same
        // cluster-wide counters, bitwise.
        for &addr in &addrs {
            let mut client = Client::connect(addr).expect("connect");
            let reply = client.cluster_sum("s").expect("cluster_sum");
            assert_eq!(
                reply.limbs,
                expected.as_limbs().to_vec(),
                "cluster of {n}: diverged from the sequential HP sum"
            );
            assert_eq!(reply.values as usize, data.len());
            assert_eq!(reply.holders as usize, n.min(4));
            assert!(!reply.poisoned);
        }
        seen.push(nodes.len());
        shutdown_all(nodes);
    }
    assert_eq!(seen, [1, 2, 3]);
}

#[test]
fn replicas_hold_bitwise_identical_mirror_copies() {
    let data = dataset(4_000, 0xC2);
    let (_m, nodes) = start_local_cluster(3, 2, |_| {}).expect("start cluster");
    let addrs: Vec<_> = nodes.iter().map(|nd| nd.client_addr()).collect();

    // Everything ingests at node 0, so node 0's primary holds the whole
    // stream and exactly one peer mirrors it.
    let mut client = Client::connect(addrs[0]).expect("connect");
    for chunk in data.chunks(200) {
        client.add_binary("s", chunk).expect("add_binary");
    }
    // Graceful shutdown waits for live client connections to drain, so
    // every test closes its clients before `shutdown_all`.
    drop(client);

    let expected = ServiceHp::sum_f64_slice(&data);
    let primary = nodes[0].primary().sum("s").expect("primary holds the stream");
    assert_eq!(primary.as_limbs(), expected.as_limbs());

    let mirror_name = mirror_stream_name(0, "s");
    let ring = Ring::new(3);
    let targets = ring.mirror_targets("s", 0, 2);
    assert_eq!(targets.len(), 1);
    let mirror = nodes[targets[0] as usize]
        .mirrors()
        .sum(&mirror_name)
        .expect("placed peer holds the mirror copy");
    assert_eq!(
        mirror.as_limbs(),
        expected.as_limbs(),
        "mirror copy must be bitwise the primary partial"
    );
    // The other peer holds nothing for this stream.
    let other = (1..3u32).find(|p| !targets.contains(p)).unwrap();
    assert!(nodes[other as usize].mirrors().sum(&mirror_name).is_none());

    shutdown_all(nodes);
}

#[test]
fn restarted_node_rejoins_from_its_replica() {
    let data = dataset(5_000, 0xC3);
    let expected = ServiceHp::sum_f64_slice(&data);
    let (membership, mut nodes) = start_local_cluster(3, 2, |_| {}).expect("start cluster");
    let addrs: Vec<_> = nodes.iter().map(|nd| nd.client_addr()).collect();

    // Ingest everything at node 0 (tracked, so it is mirrored once).
    let mut client = Client::connect(addrs[0]).expect("connect");
    for chunk in data.chunks(250) {
        client.add_binary("s", chunk).expect("add_binary");
    }
    drop(client);

    // Kill node 0 *without* asking the others to forget it, then bring
    // it back empty (no snapshot — its disk is "lost"). Rejoin must
    // recover the primary partial from the mirror copy, bitwise.
    let node0 = nodes.remove(0);
    node0.shutdown();
    node0.join().expect("node 0 stops cleanly");

    // Fresh ports for the comeback: the old ones may sit in TIME_WAIT,
    // and peers re-resolve addresses at dial time anyway.
    membership.set_client_addr(0, "127.0.0.1:0".into());
    membership.set_peer_addr(0, "127.0.0.1:0".into());
    let reborn = ClusterNode::start(Arc::clone(&membership), ClusterNodeConfig::new(0))
        .expect("node 0 restarts");
    let recovered = reborn.primary().sum("s").expect("rejoin recovered the stream");
    assert_eq!(
        recovered.as_limbs(),
        expected.as_limbs(),
        "rejoined primary must be bitwise the pre-crash partial"
    );

    // And the cluster as a whole is whole again, from any coordinator.
    for addr in [reborn.client_addr(), addrs[1], addrs[2]] {
        let mut client = Client::connect(addr).expect("connect");
        let reply = client.cluster_sum("s").expect("cluster_sum");
        assert_eq!(reply.limbs, expected.as_limbs().to_vec());
        assert_eq!(reply.values as usize, data.len());
    }

    nodes.push(reborn);
    shutdown_all(nodes);
}

#[test]
fn rejoining_node_rebuilds_the_mirror_copies_it_owes_peers() {
    let data = dataset(3_000, 0xC4);
    let expected = ServiceHp::sum_f64_slice(&data);
    let (membership, mut nodes) = start_local_cluster(3, 2, |_| {}).expect("start cluster");

    // Ingest at node 1; its mirror lands on some peer `target`.
    let mut client = Client::connect(nodes[1].client_addr()).expect("connect");
    for chunk in data.chunks(150) {
        client.add_binary("s", chunk).expect("add_binary");
    }
    drop(client);
    let target = Ring::new(3).mirror_targets("s", 1, 2)[0];

    // Restart the mirror holder with lost state; it must pull node 1's
    // primary back into its mirror ledger.
    let victim_idx = nodes.iter().position(|n| n.node_id() == target).unwrap();
    let victim = nodes.remove(victim_idx);
    victim.shutdown();
    victim.join().expect("mirror holder stops cleanly");
    membership.set_client_addr(target, "127.0.0.1:0".into());
    membership.set_peer_addr(target, "127.0.0.1:0".into());
    let reborn = ClusterNode::start(Arc::clone(&membership), ClusterNodeConfig::new(target))
        .expect("mirror holder restarts");
    let copy = reborn
        .mirrors()
        .sum(&mirror_stream_name(1, "s"))
        .expect("rejoin rebuilt the mirror copy");
    assert_eq!(copy.as_limbs(), expected.as_limbs());

    nodes.push(reborn);
    shutdown_all(nodes);
}

#[test]
fn peers_from_a_differently_shaped_cluster_are_refused() {
    let (_m, nodes) = start_local_cluster(2, 2, |_| {}).expect("start cluster");

    // A "node" configured for a 3-node cluster dials node 0's peer port:
    // the fingerprint differs, so every call is refused.
    let imposter_membership = Arc::new(
        Membership::new(
            vec![
                NodeSpec {
                    id: 0,
                    client_addr: "127.0.0.1:0".into(),
                    peer_addr: nodes[0].peer_addr().to_string(),
                },
                NodeSpec { id: 1, client_addr: "127.0.0.1:0".into(), peer_addr: "127.0.0.1:0".into() },
                NodeSpec { id: 2, client_addr: "127.0.0.1:0".into(), peer_addr: "127.0.0.1:0".into() },
            ],
            2,
        )
        .unwrap(),
    );
    let pool = oisum_cluster::PeerPool::new(
        1,
        imposter_membership,
        oisum_cluster::PeerCallConfig::default(),
    );
    let err = pool
        .mirror_add(0, 1, "s", 7, 1, &1.0f64.to_bits().to_le_bytes())
        .expect_err("mismatched fingerprint must be refused");
    assert!(err.contains("fingerprint"), "unexpected refusal: {err}");

    shutdown_all(nodes);
}

#[test]
fn untracked_adds_stay_node_local_but_still_reduce() {
    let (_m, nodes) = start_local_cluster(2, 2, |_| {}).expect("start cluster");
    let data = dataset(1_000, 0xC5);
    let expected = ServiceHp::sum_f64_slice(&data);

    // An explicitly untracked client: no identity, no replication.
    let config = oisum_service::ClientConfig {
        client_id: Some(oisum_service::proto::UNTRACKED_CLIENT),
        ..Default::default()
    };
    let mut client =
        Client::connect_with(nodes[0].client_addr(), config).expect("connect untracked");
    for chunk in data.chunks(100) {
        client.add_binary("s", chunk).expect("add_binary");
    }

    // No mirror copy anywhere...
    assert!(nodes[1].mirrors().sum(&mirror_stream_name(0, "s")).is_none());
    // ...but the cluster sum still sees the node-local values exactly.
    let reply = client.cluster_sum("s").expect("cluster_sum");
    assert_eq!(reply.limbs, expected.as_limbs().to_vec());
    assert_eq!(reply.holders, 1);
    drop(client);

    shutdown_all(nodes);
}

/// `join` must not initiate the stop itself: a standalone node (the
/// `oisum-cluster-node` launcher is exactly `start` + `join`) serves
/// until a client `Shutdown` frame arrives, and that one frame tears
/// down both the client server and the peer acceptor.
#[test]
fn a_client_shutdown_frame_stops_a_joined_node() {
    let (_m, mut nodes) = start_local_cluster(1, 1, |_| {}).expect("start cluster");
    let node = nodes.remove(0);
    let addr = node.client_addr();

    let joiner = std::thread::spawn(move || node.join());
    // The node is still serving while joined: a request round-trips.
    let mut client = Client::connect(addr).expect("connect");
    client.add_binary("s", &[1.0, 2.0]).expect("add_binary");
    assert!(!joiner.is_finished());

    client.shutdown().expect("shutdown frame");
    drop(client);
    joiner
        .join()
        .expect("joiner thread")
        .expect("clean shutdown via client frame");
}

/// A WAL-backed node with no replication and no snapshot: after a
/// graceful stop, the local log is the *only* copy of the stream, and
/// the restarted node must rebuild it bitwise before serving — there is
/// no peer to pull from.
#[test]
fn wal_backed_node_recovers_without_any_peer_copy() {
    let data = dataset(3_000, 0xC7);
    let expected = ServiceHp::sum_f64_slice(&data);
    let mut wal_dir = std::env::temp_dir();
    wal_dir.push(format!("oisum-cluster-wal-solo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);

    let (membership, nodes) = {
        let wal_dir = wal_dir.clone();
        start_local_cluster(1, 1, move |c| {
            c.wal = Some(oisum_service::WalConfig::new(&wal_dir));
        })
        .expect("start cluster")
    };
    let mut client = Client::connect(nodes[0].client_addr()).expect("connect");
    for chunk in data.chunks(200) {
        client.add_binary("s", chunk).expect("add_binary");
    }
    drop(client);
    shutdown_all(nodes);

    membership.set_client_addr(0, "127.0.0.1:0".into());
    membership.set_peer_addr(0, "127.0.0.1:0".into());
    let mut config = ClusterNodeConfig::new(0);
    config.wal = Some(oisum_service::WalConfig::new(&wal_dir));
    let reborn = ClusterNode::start(Arc::clone(&membership), config).expect("node restarts");
    let recovered = reborn.primary().sum("s").expect("log replay rebuilt the stream");
    assert_eq!(
        recovered.as_limbs(),
        expected.as_limbs(),
        "solo rejoin must be bitwise the pre-stop partial, from the log alone"
    );
    let mut client = Client::connect(reborn.client_addr()).expect("connect");
    let reply = client.cluster_sum("s").expect("cluster_sum");
    assert_eq!(reply.limbs, expected.as_limbs().to_vec());
    assert_eq!(reply.values as usize, data.len());
    drop(client);
    shutdown_all(vec![reborn]);
    std::fs::remove_dir_all(&wal_dir).ok();
}

/// The rejoin ordering the WAL knob promises: the local log replays
/// *before* the node talks to peers, so its dedup watermarks are
/// already advanced when it comes back — a client retrying its
/// pre-crash batches (same id, same seqs) deposits nothing twice even
/// though the node was down in between.
#[test]
fn wal_replay_restores_watermarks_before_rejoin() {
    let data = dataset(3_000, 0xC8);
    let expected = ServiceHp::sum_f64_slice(&data);
    let mut wal_dir = std::env::temp_dir();
    wal_dir.push(format!("oisum-cluster-wal-rejoin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);

    let (membership, mut nodes) = {
        let wal_dir = wal_dir.clone();
        start_local_cluster(3, 2, move |c| {
            if c.node_id == 0 {
                c.wal = Some(oisum_service::WalConfig::new(&wal_dir));
            }
        })
        .expect("start cluster")
    };
    let chunks: Vec<&[f64]> = data.chunks(150).collect();
    let mut client = Client::connect_with(
        nodes[0].client_addr(),
        oisum_service::ClientConfig { client_id: Some(77), ..Default::default() },
    )
    .expect("connect");
    for chunk in &chunks {
        client.add_binary("s", chunk).expect("add_binary");
    }
    drop(client);

    let node0 = nodes.remove(0);
    node0.shutdown();
    node0.join().expect("node 0 stops cleanly");

    membership.set_client_addr(0, "127.0.0.1:0".into());
    membership.set_peer_addr(0, "127.0.0.1:0".into());
    let mut config = ClusterNodeConfig::new(0);
    config.wal = Some(oisum_service::WalConfig::new(&wal_dir));
    let reborn = ClusterNode::start(Arc::clone(&membership), config).expect("node 0 restarts");

    // Replay the whole pre-crash history with the same identity: every
    // batch must dedup against the log-restored watermark.
    let mut retry = Client::connect_with(
        reborn.client_addr(),
        oisum_service::ClientConfig { client_id: Some(77), ..Default::default() },
    )
    .expect("connect");
    for chunk in &chunks {
        let n = retry.add_binary("s", chunk).expect("add_binary");
        assert_eq!(n as usize, chunk.len(), "a deduped replay still ACKs the batch size");
    }
    let reply = retry.cluster_sum("s").expect("cluster_sum");
    assert_eq!(
        reply.limbs,
        expected.as_limbs().to_vec(),
        "retried history must deposit nothing twice after a WAL rejoin"
    );
    assert_eq!(reply.values as usize, data.len(), "value count proves zero double-applies");
    drop(retry);

    nodes.push(reborn);
    shutdown_all(nodes);
    std::fs::remove_dir_all(&wal_dir).ok();
}

/// A snapshot pull whose sealed states outgrow one peer frame gets a
/// typed refusal naming the sealed size and the frame cap. The puller
/// takes a typed refusal as final — one attempt, no transport retries —
/// and the peer keeps serving: on the same connection, and to the next
/// caller.
#[test]
fn oversized_snapshot_pull_is_refused_and_the_peer_keeps_serving() {
    use oisum_service::ledger::StreamState;
    use oisum_service::proto::{
        peer_hello_into, peer_snapshot_pull_into, peer_tree_sum_into, read_peer_reply_into,
        ErrorCode, PeerReplyView, Response, SnapshotScope, MAX_FRAME,
    };
    use std::io::Write;

    let (membership, nodes) = start_local_cluster(2, 2, |_| {}).expect("start cluster");
    // A dedup window of 1,100,000 clients in node 1's mirror of node 0:
    // 16 bytes a pair seal to more than one 16 MiB peer frame.
    let state = StreamState {
        name: mirror_stream_name(0, "wide"),
        sum: ServiceHp::ZERO,
        overflows: 0,
        dedup: (1..=1_100_000u64).map(|id| (id, 1)).collect(),
        batches: 1_100_000,
        values: 1_100_000,
    };
    nodes[1].mirrors().install(&state);
    let shipped = StreamState { name: "wide".to_owned(), ..state };
    let sealed = oisum_service::snapshot::states_to_sealed(&[shipped]).unwrap().len();
    assert!(sealed > MAX_FRAME as usize, "the window must outgrow a frame ({sealed} bytes)");

    // Sealing 17 MB takes a debug build on a busy host longer than the
    // default 2-s read timeout, which would turn the refusal into a
    // transport retry.
    let pool = oisum_cluster::PeerPool::new(
        0,
        Arc::clone(&membership),
        oisum_cluster::PeerCallConfig {
            read_timeout: std::time::Duration::from_secs(60),
            ..Default::default()
        },
    );
    let err = pool
        .snapshot_pull(1, 0, SnapshotScope::MirrorOfOrigin)
        .expect_err("an unshippable snapshot must be refused");
    assert!(err.starts_with("peer refused (Internal)"), "not a typed refusal: {err}");
    assert!(err.contains(&format!("{sealed} bytes")), "{err}");
    assert!(err.contains(&format!("{MAX_FRAME}-byte")), "{err}");
    let out = pool.tree_sum(1, 1, 1, "s").expect("node 1 still answers peers");
    assert_eq!(out.holders, 0);

    // One connection: hello, the oversized pull, then a tree sum.
    let mut conn = std::net::TcpStream::connect(nodes[1].peer_addr()).expect("dial node 1");
    let mut frames = Vec::new();
    let mut frame = Vec::new();
    peer_hello_into(&mut frame, 0, membership.fingerprint()).unwrap();
    frames.extend_from_slice(&frame);
    peer_snapshot_pull_into(&mut frame, 0, SnapshotScope::MirrorOfOrigin).unwrap();
    frames.extend_from_slice(&frame);
    peer_tree_sum_into(&mut frame, 1, 1, "s").unwrap();
    frames.extend_from_slice(&frame);
    conn.write_all(&frames).unwrap();
    let mut buf = Vec::new();
    let mut reply = || match read_peer_reply_into(&mut &conn, &mut buf).unwrap() {
        Some(PeerReplyView::Json(reply)) => reply,
        other => panic!("expected a JSON reply, got {other:?}"),
    };
    assert!(matches!(reply(), Response::PeerHello { node_id: 1 }));
    assert!(matches!(reply(), Response::Error { code: ErrorCode::Internal, .. }));
    assert!(matches!(reply(), Response::ClusterSum { holders: 0, .. }));
    drop(conn);

    shutdown_all(nodes);
}
