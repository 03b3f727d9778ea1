//! Order-invariant summation as a network service.
//!
//! This crate wraps the HP method's headline property — sums that are
//! *bitwise identical* regardless of operand order, partitioning, or
//! thread interleaving — in a small TCP service, so independent
//! producers can stream summands at a shared accumulator and every
//! reader sees the same exact answer:
//!
//! * [`ledger`] — [`ShardedLedger`]: named streams, each one plain HP
//!   sum, its counters and its dedup window under one `Mutex` (an
//!   `RwLock` guards only the directory). Every batch — client Add,
//!   peer mirror, WAL replay — lands through one locked add,
//!   `ShardedLedger::add_total_dedup`, as its exact total: the dedup
//!   check, one 6-limb add and the window update. The total is one
//!   [`BatchAcc`](oisum_core::BatchAcc) fold of the batch's raw
//!   little-endian `f64` bytes outside the lock, made once per client
//!   Add (dispatch logs the same total in the batch's WAL record) and
//!   per peer mirror (`ShardedLedger::add_batch_le_bytes_dedup`); a WAL
//!   replay adds the totals the log holds. Every read takes the same
//!   lock, so every reply and every checkpoint is a consistent cut of
//!   its stream.
//! * [`proto`] — the wire protocol: every request and reply, client or
//!   peer, is one binary frame under one header (`b"OIS\x04"`, a
//!   length, an op byte from one op table); a batch travels only as a
//!   **binary Add** (length-prefixed stream name, retry identity, raw
//!   little-endian `f64`s), and sums travel as six raw limbs, never
//!   `f64`.
//! * [`dispatch`] — the transport-agnostic request core
//!   ([`RequestCore`]): frame in → ledger op →
//!   reply out, shared by the client-facing server and the cluster's
//!   peer protocol, with a [`ClusterOps`] hook
//!   through which `oisum-cluster` attaches replication and the
//!   tree-reduced `ClusterSum`.
//! * [`server`] — acceptor + one thread per live connection, graceful
//!   shutdown, snapshot on exit.
//! * [`snapshot`] — atomic persistence of exact per-stream state in the
//!   WAL's record/seal framing under its own magic, so truncated,
//!   bit-flipped or foreign files are refused with a typed
//!   [`snapshot::SnapshotError`] instead of reviving a wrong ledger.
//! * [`client`] — a blocking client with typed calls, configurable
//!   socket timeouts, and reconnect-and-retry with exponential backoff.
//!
//! # Exactly-once deposits
//!
//! Retrying a deposit whose ACK was lost is only safe if replays cannot
//! double-count. Every tracked `Add` carries a `(client_id, seq)` retry
//! identity; each stream keeps a per-client window of the highest
//! applied `seq` (persisted across snapshots), so a replayed frame is
//! acknowledged without depositing. The sum's limbs are bitwise
//! identical no matter how many times any frame is retried.
//! `client_id` [`proto::UNTRACKED_CLIENT`] (0) opts out.
//!
//! # Fault injection
//!
//! With the `failpoints` feature, the server's I/O seams and the
//! snapshot writer consult named failpoints on the global
//! `oisum_faults` registry (`server.add.drop_before_apply`,
//! `server.add.drop_after_apply`, `server.reply.delay`,
//! `server.reply.partial`, `snapshot.save.corrupt`), letting the chaos
//! suite inject disconnects, stalls, mid-frame cuts, and snapshot
//! corruption deterministically. Without the feature every seam
//! compiles to nothing.
//!
//! The `loadgen` binary hammers a server from many threads with
//! shuffled partitions of one dataset and asserts the ledger total is
//! bitwise the sequential HP sum; see `examples/roundtrip.rs` for the
//! minimal end-to-end loop.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod dispatch;
pub mod ledger;
pub mod proto;
pub mod reactor;
pub mod recovery;
// A carve-out from `deny(unsafe_code)`: the raw mmap/munmap/fallocate/
// madvise syscalls backing mapped WAL segments, each with a SAFETY
// argument at the call site, and `segmap::syscall6`, the tree's one
// raw-syscall wrapper. (The other carve-out is `reactor::sys`, the epoll
// shim, declared inside `reactor`, which calls that same wrapper.)
#[allow(unsafe_code)]
pub(crate) mod segmap;
pub mod server;
pub mod snapshot;
pub mod wal;

/// The accumulator format used by the service: 6 limbs (384 bits), 3 of
/// them integer — the paper's "small" configuration, covering the full
/// `f64` exponent range seen in practice with ~64 bits of carry margin.
pub type ServiceHp = oisum_core::Hp6x3;

pub use client::{Client, ClientConfig, ClientError, ClusterSumReply, SumReply};
pub use dispatch::{ClusterOps, ClusterSumOut, FrameOutcome, RequestCore, WalMode};
pub use ledger::{LedgerStats, ShardedLedger, StreamStats};
pub use reactor::raise_nofile_limit;
pub use recovery::{recover, RecoveryReport, TornTail};
pub use server::{serve, serve_with_core, ServerConfig, ServerHandle, Transport};
pub use wal::{FsyncPolicy, Wal, WalConfig, WalError};
