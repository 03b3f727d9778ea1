//! ingest-durable: one tracked client in a closed loop sends 256-value
//! binary Adds over 64 Zipf(1)-popular streams, with one `Sum` of a
//! random written stream per 16 Adds, to a default server whose WAL lives
//! in the run's work directory under the default group-commit policy.
//!
//! A run is a fixed number of epochs. Each epoch boots a fresh server on
//! an empty log, runs a fixed traffic script, checks every sum bitwise,
//! stops, restarts from the log and checks again. The log, memory and
//! restart work are therefore identical on both sides of a comparison.
//!
//! The untraced path calls only `serve`, `ServerConfig`, `WalConfig` and
//! `Client`.

use crate::calib::{Calib, Kind, Series, Timeline};
use crate::oracle::{self, Limbs};
use crate::report::{Metric, Report};
use crate::rng::{Rng, Zipf};
use crate::stats::median;
use crate::trace::Tracer;
use oisum_service::{serve, Client, ClientConfig, ServerConfig, ServerHandle, WalConfig};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub const STREAMS: usize = 64;
pub const BATCH: usize = 256;
/// Each Add logs a record of about 2.08 KB, so an epoch writes about
/// 12.8 MB: every epoch's log crosses one boundary of the default 8 MiB
/// segments. The Add that crosses it pays the seal and the next segment's
/// allocation, and every restart replays two segments.
pub const ADDS_PER_EPOCH: usize = 6144;
const READ_EVERY: usize = 16;
/// Operations between calibration bursts.
const WINDOW_OPS: usize = 64;
/// Nominal Adds per second on the reference host, epochs included: with
/// `--seconds` it fixes the epoch count, so every run of a given length
/// does the same work.
const ADDS_PER_S: f64 = 12000.0;

pub fn epochs(seconds: u64) -> usize {
    ((seconds as f64 * ADDS_PER_S / ADDS_PER_EPOCH as f64).round() as usize).max(2)
}

#[derive(Clone, Copy)]
pub enum Op {
    Add { stream: usize, batch: usize },
    Read { stream: usize },
}

/// One epoch's traffic script and its reference sums.
pub struct Traffic {
    pub names: Vec<String>,
    pub values: Vec<f64>,
    pub ops: Vec<Op>,
    /// Listing-1 fold of each Add's batch.
    pub folds: Vec<Limbs>,
}

impl Traffic {
    pub fn generate(rng: &mut Rng, zipf: &Zipf) -> Traffic {
        let names = (0..STREAMS).map(|k| format!("s{k:02}")).collect();
        let mut values = Vec::with_capacity(ADDS_PER_EPOCH * BATCH);
        let mut ops = Vec::new();
        let mut folds = Vec::with_capacity(ADDS_PER_EPOCH);
        let mut written = Vec::new();
        for batch in 0..ADDS_PER_EPOCH {
            let stream = zipf.draw(rng);
            if !written.contains(&stream) {
                written.push(stream);
            }
            let start = values.len();
            values.extend((0..BATCH).map(|_| rng.summand()));
            folds.push(oracle::listing1_sum(&values[start..]));
            ops.push(Op::Add { stream, batch });
            if batch % READ_EVERY == READ_EVERY - 1 {
                ops.push(Op::Read {
                    stream: written[rng.below(written.len())],
                });
            }
        }
        Traffic {
            names,
            values,
            ops,
            folds,
        }
    }

    pub fn batch(&self, i: usize) -> &[f64] {
        &self.values[i * BATCH..(i + 1) * BATCH]
    }
}

fn server_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        wal: Some(WalConfig::new(dir)),
        ..Default::default()
    }
}

fn connect(addr: std::net::SocketAddr) -> io::Result<Client> {
    Client::connect_with(
        addr,
        ClientConfig {
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            ..Default::default()
        },
    )
}

fn stop(server: ServerHandle) -> io::Result<()> {
    server.shutdown();
    server.join()
}

/// Bytes of every file under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Log segment files (`wal-*.log`) in `dir`.
fn segment_files(dir: &Path) -> io::Result<usize> {
    let mut n = 0;
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        n += usize::from(name.starts_with("wal-") && name.ends_with(".log"));
    }
    Ok(n)
}

/// What a run's epochs measured, with the calibration timelines their
/// samples are normalized by.
pub struct Measured {
    pub add: Series,
    pub read: Series,
    pub tput: Series,
    pub tl: Timeline,
    setup: Series,
    tl_setup: Timeline,
    restart: Series,
    tl_restart: Timeline,
}

impl Measured {
    fn new() -> Measured {
        Measured {
            add: Series::new(Kind::Time),
            read: Series::new(Kind::Time),
            tput: Series::new(Kind::Rate),
            tl: Timeline::default(),
            setup: Series::new(Kind::Time),
            tl_setup: Timeline::default(),
            restart: Series::new(Kind::Time),
            tl_restart: Timeline::default(),
        }
    }
}

/// The per-stream truth an epoch accumulates from its ACKs.
struct Truth {
    sums: Vec<Limbs>,
    values: Vec<u64>,
}

impl Truth {
    /// Reads every written stream and checks it bitwise, then checks
    /// that the server's value count per stream equals what was sent.
    fn check_all(&self, names: &[String], client: &mut Client, rep: &mut Report, when: &str) {
        for (k, name) in names.iter().enumerate() {
            if self.values[k] == 0 {
                continue;
            }
            let got = client.sum(name).map(|r| r.limbs);
            rep.check(matches!(&got, Ok(l) if l[..] == self.sums[k][..]), || {
                format!("{when}: stream {name}: {got:?}")
            });
        }
        // Exactly-once: however the transport retried, each stream holds
        // exactly the values sent.
        let stats = client.stats().map_err(|e| e.to_string());
        let ok = match &stats {
            Ok((_, streams)) => names.iter().enumerate().all(|(k, name)| {
                let n = streams
                    .iter()
                    .find(|s| &s.name == name)
                    .map_or(0, |s| s.values);
                n == self.values[k]
            }),
            Err(_) => false,
        };
        rep.check(ok, || format!("{when}: per-stream value counts: {stats:?}"));
    }
}

/// A traced epoch's tracer and the first of the operation ids its
/// traffic ops take, in script order.
type Traced<'a> = Option<(&'a mut Tracer, u64)>;

/// One calibration burst on both CPUs, shared with the tracer.
fn burst(calib: &mut Calib, tr: &mut Traced) -> f64 {
    let rate = calib.burst_both();
    if let Some((t, _)) = tr {
        t.calibrated(rate);
    }
    rate
}

/// What one epoch leaves for the run's totals.
struct EpochEnd {
    /// WAL bytes on disk per ACKed value, after the final stop.
    bytes_per_value: f64,
    segments: usize,
}

/// Runs one epoch: boot, traffic, checks, stop, restart, checks, stop.
fn epoch(
    dir: &Path,
    traffic: &Traffic,
    calib: &mut Calib,
    m: &mut Measured,
    rep: &mut Report,
    mut tr: Traced,
) -> io::Result<EpochEnd> {
    m.tl_setup.push(burst(calib, &mut tr));
    let t0 = Instant::now();
    let server = match &mut tr {
        Some((t, _)) => t.time("e2e.serve", || serve(server_config(dir)))?,
        None => serve(server_config(dir))?,
    };
    m.setup.push(t0.elapsed().as_secs_f64(), &m.tl_setup);
    let rate = burst(calib, &mut tr);
    m.tl_setup.push(rate);
    m.tl.push(rate);

    let mut client = connect(server.addr())?;
    m.add.start_group();
    m.read.start_group();
    let mut truth = Truth {
        sums: vec![[0; 6]; STREAMS],
        values: vec![0; STREAMS],
    };
    let mut window_t0 = Instant::now();
    let mut window_values = 0u64;
    for (i, op) in traffic.ops.iter().enumerate() {
        match *op {
            Op::Add { stream, batch } => {
                let name = &traffic.names[stream];
                let values = traffic.batch(batch);
                let t0 = Instant::now();
                let r = match &mut tr {
                    Some((t, base)) => {
                        t.time_op(*base + i as u64, "e2e.Client::add_binary", || {
                            client.add_binary(name, values)
                        })
                    }
                    None => client.add_binary(name, values),
                };
                let dt = t0.elapsed().as_secs_f64();
                rep.check(matches!(r, Ok(n) if n == BATCH as u64), || {
                    format!("add to {name}: {r:?}")
                });
                if r.is_ok() {
                    m.add.push(dt, &m.tl);
                    oracle::wrapping_add(&mut truth.sums[stream], &traffic.folds[batch]);
                    truth.values[stream] += BATCH as u64;
                    window_values += BATCH as u64;
                }
            }
            Op::Read { stream } => {
                let name = &traffic.names[stream];
                let t0 = Instant::now();
                let r = match &mut tr {
                    Some((t, base)) => {
                        t.time_op(*base + i as u64, "e2e.Client::sum", || client.sum(name))
                    }
                    None => client.sum(name),
                };
                let dt = t0.elapsed().as_secs_f64();
                let r = r.map(|r| r.limbs);
                rep.check(
                    matches!(&r, Ok(l) if l[..] == truth.sums[stream][..]),
                    || format!("read of {name}: {r:?}"),
                );
                m.read.push(dt, &m.tl);
            }
        }
        if i % WINDOW_OPS == WINDOW_OPS - 1 {
            m.tput.push(
                window_values as f64 / window_t0.elapsed().as_secs_f64(),
                &m.tl,
            );
            m.tl.push(burst(calib, &mut tr));
            window_values = 0;
            window_t0 = Instant::now();
        }
    }
    truth.check_all(&traffic.names, &mut client, rep, "end of traffic");

    // Restart: stop, serve on the same log, and read until the hottest
    // stream returns its pre-stop limbs.
    drop(client);
    stop(server)?;
    m.tl_restart.push(burst(calib, &mut tr));
    let t0 = Instant::now();
    let server = serve(server_config(dir))?;
    let mut client = connect(server.addr())?;
    let matched = wait_for(&mut client, &traffic.names[0], &truth.sums[0]);
    m.restart.push(t0.elapsed().as_secs_f64(), &m.tl_restart);
    rep.check(matched, || {
        "restarted server never returned the pre-stop sum".to_owned()
    });
    truth.check_all(&traffic.names, &mut client, rep, "after restart");
    drop(client);
    m.tl_restart.push(burst(calib, &mut tr));
    stop(server)?;
    let acked: u64 = truth.values.iter().sum();
    Ok(EpochEnd {
        bytes_per_value: dir_bytes(dir)? as f64 / acked as f64,
        segments: segment_files(dir)?,
    })
}

/// Reads `stream` until it returns `want`, for at most a few seconds.
fn wait_for(client: &mut Client, stream: &str, want: &Limbs) -> bool {
    for _ in 0..1000 {
        if matches!(client.sum(stream), Ok(r) if r.limbs[..] == want[..]) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    false
}

/// A traced epoch's log and traffic, kept for the layer passes, which
/// replay op `i` of the script under operation id `op_base + i`.
pub struct Kept {
    pub dir: PathBuf,
    pub traffic: Traffic,
    pub op_base: u64,
}

pub struct ServiceRun {
    pub report: Report,
    pub tl: Timeline,
    /// Normalized add p50, untraced and traced, in seconds, in trace mode.
    pub traced_add_p50: Option<(f64, f64)>,
    pub kept: Option<Kept>,
}

/// Runs ingest-durable under `work`. With a tracer, alternate epochs
/// run inside spans; the last traced epoch's log and traffic are kept for
/// the layer passes.
pub fn run(
    seed: u64,
    seconds: u64,
    work: &Path,
    mut tracer: Option<&mut Tracer>,
) -> io::Result<ServiceRun> {
    let mut rep = Report::default();
    let mut calib = Calib::new();
    let zipf = Zipf::new(STREAMS);
    let mut rng = Rng::new(seed);
    let n_epochs = epochs(seconds);

    let mut plain = Measured::new();
    let mut traced = Measured::new();
    let mut stored = Vec::new();
    let mut segments = Vec::new();
    let mut kept: Option<Kept> = None;
    // Epoch 0 is an untimed warm-up; its checks still count.
    for e in 0..=n_epochs {
        let traffic = Traffic::generate(&mut rng, &zipf);
        let dir = work.join(format!("epoch-{e}"));
        let trace_this = e % 2 == 1 && tracer.is_some();
        let mut warm = Measured::new();
        let m = match (e, trace_this) {
            (0, _) => &mut warm,
            (_, true) => &mut traced,
            (_, false) => &mut plain,
        };
        let tr = match tracer.as_deref_mut() {
            Some(t) if trace_this => {
                let base = t.ops(traffic.ops.len());
                Some((t, base))
            }
            _ => None,
        };
        let op_base = tr.as_ref().map(|(_, base)| *base);
        let end = epoch(&dir, &traffic, &mut calib, m, &mut rep, tr)?;
        if e > 0 {
            stored.push(end.bytes_per_value);
            segments.push(end.segments);
        }
        match op_base {
            Some(op_base) => {
                if let Some(old) = kept.replace(Kept {
                    dir,
                    traffic,
                    op_base,
                }) {
                    std::fs::remove_dir_all(old.dir)?;
                }
            }
            None => std::fs::remove_dir_all(&dir)?,
        }
    }

    let m = &plain;
    let (raw, norm) = (median(&m.tput.raw()), median(&m.tput.normalized(&m.tl)));
    for (name, note) in [
        (
            "values_per_s",
            format!(
                "median of {} windows of {WINDOW_OPS} operations",
                m.tput.len()
            ),
        ),
        (
            "par_values_per_s",
            "repeats values_per_s: the single closed loop already spans both CPUs".to_owned(),
        ),
    ] {
        rep.metrics.push(Metric {
            name,
            unit: "values/s",
            raw,
            norm: Some(norm),
            note,
        });
    }
    rep.percentile("add_p50_us", "us", 1e6, &m.add, &m.tl, 50.0);
    rep.percentile("add_p90_us", "us", 1e6, &m.add, &m.tl, 90.0);
    rep.percentile("add_p99_us", "us", 1e6, &m.add, &m.tl, 99.0);
    rep.percentile("read_p50_us", "us", 1e6, &m.read, &m.tl, 50.0);
    rep.percentile("setup_s", "s", 1.0, &m.setup, &m.tl_setup, 50.0);
    rep.percentile("restart_s", "s", 1.0, &m.restart, &m.tl_restart, 50.0);
    rep.count(
        "peak_rss_mib",
        "MiB",
        crate::sys::peak_rss_mib(),
        "getrusage high-water mark",
    );
    rep.count(
        "stored_bytes_per_value",
        "B/value",
        median(&stored),
        format!(
            "WAL bytes on disk after each epoch's final stop, median of {} epochs",
            stored.len()
        ),
    );
    rep.note(format!(
        "WAL: {} on {}, fsync policy {}; each epoch's log held {}-{} segments",
        work.display(),
        crate::sys::fs_type(work),
        oisum_service::FsyncPolicy::default(),
        segments.iter().min().expect("at least one epoch"),
        segments.iter().max().expect("at least one epoch"),
    ));
    rep.note(format!(
        "{n_epochs} epochs of {ADDS_PER_EPOCH} Adds x {BATCH} values over {STREAMS} Zipf(1) streams, \
         one Sum per {READ_EVERY} Adds; closed loop, one client thread"
    ));
    let traced_add_p50 = tracer.is_some().then(|| {
        let p50 = |m: &Measured| median(&m.add.normalized(&m.tl));
        (p50(&plain), p50(&traced))
    });
    Ok(ServiceRun {
        report: rep,
        tl: plain.tl,
        traced_add_p50,
        kept,
    })
}
