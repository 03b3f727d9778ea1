//! Static cluster membership: who the nodes are, where they listen, and
//! how many copies of each tracked batch the cluster keeps.
//!
//! Membership is fixed at startup (no gossip, no elections — the paper's
//! exactness argument needs a known reducer set, not an evolving one).
//! What *is* mutable are the listen addresses: nodes bind with port 0 in
//! tests and publish the kernel-assigned port back here, and a restarted
//! node comes back on a fresh port (std's `TcpListener` cannot set
//! `SO_REUSEADDR`, so rebinding the old port would race `TIME_WAIT`).
//! Peers therefore resolve addresses at dial time, never cache them.
//!
//! Every node derives a [`fingerprint`](Membership::fingerprint) from the
//! immutable part of the config (node count, replication factor). Peer
//! connections open with a `Hello` carrying the fingerprint and are
//! refused on mismatch, so a node from a differently-shaped cluster can
//! never contribute limbs to a reduction.

use std::io;
use std::sync::RwLock;

use oisum_faults::fnv1a64;

/// One node's slot in the cluster config: a dense id (`0..n`) plus the
/// two listen addresses (the client port and the peer port).
#[derive(Debug, Clone)]
pub struct NodeSpec {
    pub id: u32,
    pub client_addr: String,
    pub peer_addr: String,
}

/// The shared, mostly-immutable view of the cluster. Cheap to clone an
/// `Arc` of; the address book is behind per-node `RwLock`s.
pub struct Membership {
    /// Indexed by node id; ids are validated dense `0..n`.
    addrs: Vec<RwLock<(String, String)>>,
    replication: usize,
    fingerprint: u64,
}

impl Membership {
    /// Validates the spec list (dense ids starting at 0, in order) and
    /// clamps `replication` into `1..=n`.
    pub fn new(specs: Vec<NodeSpec>, replication: usize) -> io::Result<Self> {
        if specs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cluster needs at least one node",
            ));
        }
        for (i, spec) in specs.iter().enumerate() {
            if spec.id as usize != i {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("node ids must be dense 0..n: slot {i} has id {}", spec.id),
                ));
            }
        }
        let replication = replication.clamp(1, specs.len());
        let fingerprint = config_fingerprint(specs.len(), replication);
        let addrs = specs
            .into_iter()
            .map(|s| RwLock::new((s.client_addr, s.peer_addr)))
            .collect();
        Ok(Membership { addrs, replication, fingerprint })
    }

    /// Number of nodes in the cluster.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Copies of each tracked batch the cluster keeps (1 = no mirrors).
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Hash of the immutable config shape (node count + replication).
    /// Addresses are deliberately excluded: they change across restarts.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    pub fn client_addr(&self, id: u32) -> String {
        self.addrs[id as usize].read().unwrap().0.clone()
    }

    pub fn peer_addr(&self, id: u32) -> String {
        self.addrs[id as usize].read().unwrap().1.clone()
    }

    /// Publishes the address a node actually bound (port 0 → real port).
    pub fn set_client_addr(&self, id: u32, addr: String) {
        self.addrs[id as usize].write().unwrap().0 = addr;
    }

    pub fn set_peer_addr(&self, id: u32, addr: String) {
        self.addrs[id as usize].write().unwrap().1 = addr;
    }
}

/// FNV-1a over the config shape. Two clusters agree iff they have the
/// same node count and replication factor; a node carrying a different
/// shape would place streams on different mirror sets and must be
/// refused at `Hello` time.
fn config_fingerprint(nodes: usize, replication: usize) -> u64 {
    let mut bytes = Vec::with_capacity(32);
    bytes.extend_from_slice(b"oisum-cluster-v1");
    bytes.extend_from_slice(&(nodes as u64).to_be_bytes());
    bytes.extend_from_slice(&(replication as u64).to_be_bytes());
    fnv1a64(&bytes)
}

/// Builds a loopback membership of `n` nodes with port-0 addresses, for
/// tests and the load generator's self-hosted cluster mode.
pub fn loopback(n: usize, replication: usize) -> io::Result<Membership> {
    let specs = (0..n as u32)
        .map(|id| NodeSpec {
            id,
            client_addr: "127.0.0.1:0".to_string(),
            peer_addr: "127.0.0.1:0".to_string(),
        })
        .collect();
    Membership::new(specs, replication)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_ids_are_enforced_and_replication_is_clamped() {
        let bad = Membership::new(
            vec![NodeSpec { id: 1, client_addr: String::new(), peer_addr: String::new() }],
            1,
        );
        assert!(bad.is_err());

        let m = loopback(3, 9).unwrap();
        assert_eq!(m.len(), 3);
        assert_eq!(m.replication(), 3);
        let m1 = loopback(3, 0).unwrap();
        assert_eq!(m1.replication(), 1);
    }

    #[test]
    fn fingerprint_tracks_shape_not_addresses() {
        let a = loopback(3, 2).unwrap();
        let b = loopback(3, 2).unwrap();
        b.set_peer_addr(1, "127.0.0.1:9999".to_string());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), loopback(4, 2).unwrap().fingerprint());
        assert_ne!(a.fingerprint(), loopback(3, 3).unwrap().fingerprint());
    }
}
