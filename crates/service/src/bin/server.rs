//! Standalone summation server.
//!
//! ```text
//! oisum-server [--addr HOST:PORT] [--shards N] [--snapshot PATH]
//!              [--wal DIR] [--fsync group|never]
//!              [--transport threads|epoll] [--max-conns N]
//! ```
//!
//! Runs until a client sends a `Shutdown` frame; if `--snapshot` is
//! given, restores from it at startup (when present) and persists a
//! final snapshot on graceful shutdown. With `--wal`, every tracked
//! batch is logged to DIR and made durable (per `--fsync`, default
//! `group`) before its ACK, and existing segments are replayed at
//! startup — ACKed batches then survive a non-graceful death. The
//! replay's outcome is printed as one line before the listening
//! address: `recovery segments=… records=… applied=… deduped=…
//! values=… torn=…`, `torn` counting the torn tails it truncated.
//!
//! `--transport epoll` serves connections from a single edge-triggered
//! reactor instead of a thread per connection — same protocol, same
//! bitwise sums, tens of thousands of concurrent connections.
//! `--max-conns` raises `RLIMIT_NOFILE` toward N+64 before binding (best
//! effort, clamped to the hard cap).

use oisum_service::{raise_nofile_limit, serve, FsyncPolicy, ServerConfig, WalConfig};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: oisum-server [--addr HOST:PORT] [--shards N] [--snapshot PATH] \
         [--wal DIR] [--fsync group|never] \
         [--transport threads|epoll] [--max-conns N]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut config = ServerConfig::default();
    let mut fsync: Option<FsyncPolicy> = None;
    let mut max_conns: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => config.addr = value(),
            "--shards" => config.shards = value().parse().unwrap_or_else(|_| usage()),
            "--snapshot" => config.snapshot_path = Some(value().into()),
            "--wal" => config.wal = Some(WalConfig::new(value())),
            "--fsync" => {
                fsync = Some(value().parse().unwrap_or_else(|e: String| {
                    eprintln!("oisum-server: {e}");
                    usage()
                }));
            }
            "--transport" => {
                config.transport = value().parse().unwrap_or_else(|e: String| {
                    eprintln!("oisum-server: {e}");
                    usage()
                });
            }
            "--max-conns" => max_conns = Some(value().parse().unwrap_or_else(|_| usage())),
            _ => usage(),
        }
    }
    if let Some(n) = max_conns {
        match raise_nofile_limit(n + 64) {
            Ok((soft, hard)) => {
                if soft < n + 64 {
                    eprintln!("oisum-server: RLIMIT_NOFILE clamped to {soft} (hard cap {hard})");
                }
            }
            Err(e) => eprintln!("oisum-server: could not raise RLIMIT_NOFILE: {e}"),
        }
    }
    match (&mut config.wal, fsync) {
        (Some(wal), Some(policy)) => wal.fsync = policy,
        (None, Some(_)) => {
            eprintln!("oisum-server: --fsync requires --wal");
            usage()
        }
        _ => {}
    }
    let handle = match serve(config) {
        Ok(h) => h,
        Err(e) => {
            // Bind, snapshot restore or WAL replay; `e` says which.
            eprintln!("oisum-server: startup failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(report) = handle.recovery() {
        println!("recovery {report}");
    }
    println!("oisum-server listening on {}", handle.addr());
    match handle.join() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("oisum-server: {e}");
            ExitCode::FAILURE
        }
    }
}
