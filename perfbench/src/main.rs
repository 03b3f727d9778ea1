//! The repository benchmark. One workload, one seed, one process:
//!
//! ```text
//! oisum-perfbench --workload bulk-sum|ingest-durable
//!                 --seed N --seconds S --trace 0|1 [--work-dir DIR] [--wal-dir DIR]
//! ```
//!
//! Prints every metric in raw and normalized form with the calibration
//! rate, then one JSON result object as the last line. Exits non-zero
//! on any bitwise or exactly-once failure. See DESIGN.md.

mod bulk;
mod calib;
mod layers;
mod oracle;
mod report;
mod rng;
mod service;
mod stats;
mod sys;
mod trace;

use report::{Metric, Report};
use std::path::{Path, PathBuf};

/// The end-to-end metrics, as BENCHMARK.json lists them.
pub const E2E: &[&str] = &[
    "values_per_s",
    "par_values_per_s",
    "add_p50_us",
    "add_p90_us",
    "read_p50_us",
    "setup_s",
    "restart_s",
    "peak_rss_mib",
    "stored_bytes_per_value",
];

/// The per-layer metrics of the traced run, with units. A layer the
/// workload never calls reports 0.
pub const LAYER: &[(&str, &str)] = &[
    ("kernel.ns_per_value", "ns"),
    ("batch.finish_ns", "ns"),
    ("batch.merge_ns", "ns"),
    ("atomic.rmws_per_batch", "count"),
    ("atomic.ns_per_batch", "ns"),
    ("proto.encode_ns_per_frame", "ns"),
    ("proto.parse_ns_per_frame", "ns"),
    ("proto.wire_bytes_per_value", "B/value"),
    ("ledger.add_ns_per_batch", "ns"),
    ("ledger.read_ns", "ns"),
    ("ledger.dedup_replays", "count"),
    ("dispatch.self_ns_per_frame", "ns"),
    ("wal.open_ns", "ns"),
    ("wal.submit_ns", "ns"),
    ("wal.commit_wait_ns", "ns"),
    ("wal.records_per_group", "ratio"),
    ("wal.bytes_per_value", "B/value"),
    ("recovery.ns_per_value", "ns"),
    ("recovery.records", "count"),
    ("server.self_ns_per_add", "ns"),
    ("server.self_ns_per_read", "ns"),
    ("peer.mirror_add_ns", "ns"),
    ("peer.tree_sum_ns", "ns"),
    ("peer.snapshot_pull_ns", "ns"),
    ("node.start_s", "s"),
    ("placement.replicas_ns", "ns"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    work_dir: PathBuf,
    /// Where write-ahead logs go; the work directory unless given.
    wal_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30,
        trace: false,
        work_dir: PathBuf::from(".bench_work"),
        wal_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            "--work-dir" => a.work_dir = PathBuf::from(value()?),
            "--wal-dir" => a.wal_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--child") {
        std::process::exit(bulk::child_main());
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run_dir = args
        .wal_dir
        .as_ref()
        .unwrap_or(&args.work_dir)
        .join(format!("{}-{}", args.workload, std::process::id()));
    let result = std::fs::create_dir_all(&run_dir).and_then(|()| run(&args, &run_dir));
    let _ = std::fs::remove_dir_all(&run_dir);
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args, run_dir: &Path) -> std::io::Result<bool> {
    let bulk = match args.workload.as_str() {
        "bulk-sum" => true,
        "ingest-durable" => false,
        other => {
            return Err(std::io::Error::other(format!(
                "unknown workload {other} (bulk-sum | ingest-durable)"
            )))
        }
    };
    println!(
        "perfbench {} seed {} seconds {} trace {} cpus {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    if !args.trace {
        return Ok(if bulk {
            let r = bulk::run(args.seed, args.seconds, None)?;
            r.report.print(
                &args.workload,
                &[("serial", &r.tl_ser), ("both CPUs", &r.tl_par)],
                E2E,
            )
        } else {
            let r = service::run(args.seed, args.seconds, run_dir, None)?;
            r.report.print(&args.workload, &[("both CPUs", &r.tl)], E2E)
        });
    }

    let mut tr = trace::Tracer::new();
    let mut layers = layers::Layers::default();
    let mut rep = Report::default();
    let calibration = if bulk {
        let r = bulk::run(args.seed, args.seconds, Some(&mut tr))?;
        rep.attempted += r.report.attempted;
        rep.failed += r.report.failed;
        rep.notes.extend(r.report.notes);
        let (plain, traced) = r.traced_values_per_s.expect("traced run");
        rep.note(format!(
            "values_per_s untraced {plain} traced {traced} (normalized)"
        ));
        layers
            .counts
            .insert("trace.overhead_pct", (plain - traced) / plain * 100.0);
        layers::bulk(&r.input, &mut tr, &mut rep, &mut layers);
        vec![("serial", r.tl_ser), ("both CPUs", r.tl_par)]
    } else {
        let r = service::run(args.seed, args.seconds, run_dir, Some(&mut tr))?;
        rep.attempted += r.report.attempted;
        rep.failed += r.report.failed;
        rep.notes.extend(r.report.notes);
        let (plain, traced) = r.traced_add_p50.expect("traced run");
        rep.note(format!(
            "add_p50 untraced {:.2} us traced {:.2} us (normalized)",
            plain * 1e6,
            traced * 1e6
        ));
        layers
            .counts
            .insert("trace.overhead_pct", (traced - plain) / plain * 100.0);
        let kept = r.kept.expect("a traced epoch kept its log");
        layers::service(&kept, run_dir, &mut tr, &mut rep, &mut layers)?;
        vec![("both CPUs", r.tl)]
    };
    for &(name, unit) in LAYER {
        let (raw, norm) = match (layers.counts.get(name), layers.timings.get(name)) {
            (Some(&v), _) => (v, None),
            (None, Some(&(raw, norm))) => (raw, Some(norm)),
            (None, None) => (0.0, None),
        };
        rep.metrics.push(Metric {
            name,
            unit,
            raw,
            norm,
            note: String::new(),
        });
    }
    let trace_path = args
        .work_dir
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    tr.write(&trace_path)?;
    rep.note(format!(
        "{} spans written to {}",
        tr.spans.len(),
        trace_path.display()
    ));
    let names: Vec<&str> = LAYER.iter().map(|(n, _)| *n).collect();
    let mut calibration: Vec<_> = calibration.iter().map(|(label, tl)| (*label, tl)).collect();
    calibration.push(("layer passes", &tr.tl));
    Ok(rep.print(&args.workload, &calibration, &names))
}
