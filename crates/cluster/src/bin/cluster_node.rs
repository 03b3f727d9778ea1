//! `oisum-cluster-node` — run one node of an exact summation cluster.
//!
//! The full static membership is passed on the command line (every node
//! gets the same `--node` list, in id order) and `--id` picks which slot
//! this process is:
//!
//! ```text
//! oisum-cluster-node --id 0 --replication 2 \
//!     --node 127.0.0.1:7401,127.0.0.1:7501 \
//!     --node 127.0.0.1:7402,127.0.0.1:7502 \
//!     --node 127.0.0.1:7403,127.0.0.1:7503
//! ```
//!
//! Each `--node` is `client_addr,peer_addr`. The process serves clients
//! until it receives a `shutdown` request, persisting to
//! `--snapshot PATH` (if given) on the way down and rejoining from
//! replicas on the way up.

use std::process::ExitCode;
use std::sync::Arc;

use oisum_cluster::{ClusterNode, ClusterNodeConfig, Membership, NodeSpec};

fn usage() -> ! {
    eprintln!(
        "usage: oisum-cluster-node --id N --node CLIENT,PEER [--node CLIENT,PEER ...]\n\
         \x20      [--replication R] [--shards S] [--snapshot PATH]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut id: Option<u32> = None;
    let mut specs: Vec<NodeSpec> = Vec::new();
    let mut replication = 1usize;
    let mut shards = 8usize;
    let mut snapshot = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().unwrap_or_else(|| {
            eprintln!("{arg} needs a {what}");
            usage()
        });
        match arg.as_str() {
            "--id" => id = value("node id").parse().ok(),
            "--node" => {
                let spec = value("client,peer address pair");
                let Some((client, peer)) = spec.split_once(',') else {
                    eprintln!("--node wants CLIENT_ADDR,PEER_ADDR, got `{spec}`");
                    usage()
                };
                specs.push(NodeSpec {
                    id: specs.len() as u32,
                    client_addr: client.to_owned(),
                    peer_addr: peer.to_owned(),
                });
            }
            "--replication" => replication = value("count").parse().unwrap_or_else(|_| usage()),
            "--shards" => shards = value("count").parse().unwrap_or_else(|_| usage()),
            "--snapshot" => snapshot = Some(value("path").into()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage()
            }
        }
    }

    let Some(id) = id else { usage() };
    if specs.is_empty() {
        usage()
    }

    let membership = match Membership::new(specs, replication) {
        Ok(m) => Arc::new(m),
        Err(e) => {
            eprintln!("bad membership: {e}");
            return ExitCode::from(2);
        }
    };

    let mut config = ClusterNodeConfig::new(id);
    config.shards = shards;
    config.snapshot_path = snapshot;

    let node = match ClusterNode::start(Arc::clone(&membership), config) {
        Ok(node) => node,
        Err(e) => {
            eprintln!("node {id} failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "node {id} up: clients {} peers {} (cluster of {}, replication {})",
        node.client_addr(),
        node.peer_addr(),
        membership.len(),
        membership.replication()
    );

    match node.join() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("node {id} exited with error: {e}");
            ExitCode::FAILURE
        }
    }
}
