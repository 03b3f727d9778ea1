//! `oisum-cluster`: N summation-service nodes acting as one exact
//! ledger.
//!
//! The paper's central claim — a reduction whose bit pattern is
//! independent of operand order — is what makes a *distributed* version
//! of the service honest: because merging two high-precision partials is
//! per-limb integer addition, a cluster-wide sum computed by any node,
//! over any node count, through any reduction tree, is bitwise identical
//! to the single-node sum of the same batches. This crate supplies the
//! machinery around that invariant:
//!
//! * [`membership`] — static node set, replication factor, mutable
//!   address book, config fingerprint enforced at peer handshake.
//! * [`placement`] — consistent-hash ring deciding which peers mirror
//!   each tracked stream.
//! * [`peer`] — the peer RPC layer: pooled connections for mirror
//!   adds, fresh connections for tree sums and snapshot pulls (the
//!   split is a deadlock-avoidance argument, see the module docs).
//! * [`node`] — the node itself: primary + mirror ledgers, the
//!   binomial-tree reduce ported from the mpi-sim collectives, restart
//!   rejoin via checksummed snapshot transfer, and every inter-node
//!   byte behind `oisum-faults` seams.
//!
//! The load generator (`loadgen`) lives here too, so it can drive both
//! a plain server and an N-node cluster from one binary.

pub mod membership;
pub mod node;
pub mod peer;
pub mod placement;

pub use membership::{loopback, Membership, NodeSpec};
pub use node::{mirror_stream_name, ClusterNode, ClusterNodeConfig};
pub use peer::{PeerCallConfig, PeerPool};
pub use placement::Ring;

use std::io;
use std::sync::Arc;

/// Boots an `n`-node loopback cluster with the given replication factor
/// — the shape tests and the load generator's `--cluster` mode use.
/// Nodes are started in id order; node 0 comes up with no peers to pull
/// from, which on a cold boot is correct (there is nothing to recover).
pub fn start_local_cluster(
    n: usize,
    replication: usize,
    configure: impl Fn(&mut ClusterNodeConfig),
) -> io::Result<(Arc<Membership>, Vec<ClusterNode>)> {
    let membership = Arc::new(membership::loopback(n, replication)?);
    let mut nodes = Vec::with_capacity(n);
    for id in 0..n as u32 {
        let mut config = ClusterNodeConfig::new(id);
        configure(&mut config);
        nodes.push(ClusterNode::start(Arc::clone(&membership), config)?);
    }
    Ok((membership, nodes))
}
