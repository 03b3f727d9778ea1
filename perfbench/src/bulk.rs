//! bulk-sum: exact sums of a 2^24-value in-memory array, serial and on
//! both CPUs. All of its time is in the encode kernel and the batch
//! accumulator; no service, log or cluster code runs.
//!
//! The untraced path calls only `Hp6x3::{sum,par_sum}_f64_slice`.

use crate::calib::{Calib, Kind, Series, Timeline};
use crate::oracle::{self, Limbs};
use crate::report::{Metric, Report};
use crate::rng::{zero_sum_array, Rng};
use crate::stats::median;
use crate::trace::Tracer;
use oisum_core::Hp6x3;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Command, Stdio};
use std::time::Instant;

pub const N: usize = 1 << 24;
/// Timed slice: about 6 ms serial, short next to the host's contention
/// phases, so the bursts on either side see the same phase.
pub const SLICE: usize = 1 << 20;
/// Values per "add": the service workloads' batch size.
pub const BATCH: usize = 256;
const ADDS_PER_PASS: usize = 512;
/// A fixed prefix whose sum is not zero, checked against Listing 1.
const PREFIX: usize = 1 << 16;
/// Fresh processes timed for `setup_s` and `restart_s`.
const CHILDREN: usize = 31;
/// Nominal passes per second on the reference host. The pass count is
/// fixed from `--seconds` and this rate, so both sides of a comparison
/// do the same work.
const PASSES_PER_S: f64 = 2.5;

pub fn passes(seconds: u64) -> usize {
    ((seconds as f64 * PASSES_PER_S).round() as usize).max(2)
}

fn limbs(h: &Hp6x3) -> Limbs {
    *h.as_limbs()
}

fn is_zero(l: &Limbs) -> bool {
    l.iter().all(|&w| w == 0)
}

/// What one run of the pass loop measured.
pub struct Measured {
    pub serial: Series,
    pub par: Series,
    pub add: Series,
    pub read: Series,
    pub tl_ser: Timeline,
    pub tl_par: Timeline,
}

impl Measured {
    fn new() -> Measured {
        Measured {
            serial: Series::new(Kind::Rate),
            par: Series::new(Kind::Rate),
            add: Series::new(Kind::Time),
            read: Series::new(Kind::Time),
            tl_ser: Timeline::default(),
            tl_par: Timeline::default(),
        }
    }
}

/// Passes a calibration burst on to the tracer, if any, so it need not
/// take its own between the pass's spans.
fn shared(tr: &mut Option<&mut Tracer>, rate: f64) -> f64 {
    if let Some(t) = tr {
        t.calibrated(rate);
    }
    rate
}

/// Times `f`, inside a span named `name` when a tracer is given.
fn timed<R>(tr: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = match tr {
        Some(t) => t.time(name, f),
        None => f(),
    };
    (r, t0.elapsed().as_secs_f64())
}

/// One pass: every slice serially, every slice in parallel, the whole
/// array both ways, the prefix both ways, and `ADDS_PER_PASS` batches.
#[allow(clippy::too_many_arguments)]
fn pass(
    xs: &[f64],
    prefix_sum: &Limbs,
    rng: &mut Rng,
    calib: &mut Calib,
    m: &mut Measured,
    rep: &mut Report,
    mut tr: Option<&mut Tracer>,
) {
    let mut acc = [0u64; 6];
    m.tl_ser.push(shared(&mut tr, calib.burst()));
    for slice in xs.chunks(SLICE) {
        let (h, dt) = timed(&mut tr, "e2e.sum_f64_slice", || {
            Hp6x3::sum_f64_slice(black_box(slice))
        });
        m.serial.push(slice.len() as f64 / dt, &m.tl_ser);
        oracle::wrapping_add(&mut acc, &limbs(&h));
        m.tl_ser.push(shared(&mut tr, calib.burst()));
    }
    rep.check(is_zero(&acc), || {
        "serial slice sums do not cancel".to_owned()
    });

    let mut acc = [0u64; 6];
    m.tl_par.push(shared(&mut tr, calib.burst_both()));
    for slice in xs.chunks(SLICE) {
        let (h, dt) = timed(&mut tr, "e2e.par_sum_f64_slice", || {
            Hp6x3::par_sum_f64_slice(black_box(slice))
        });
        m.par.push(slice.len() as f64 / dt, &m.tl_par);
        oracle::wrapping_add(&mut acc, &limbs(&h));
        m.tl_par.push(shared(&mut tr, calib.burst_both()));
    }
    rep.check(is_zero(&acc), || {
        "parallel slice sums do not cancel".to_owned()
    });

    let (h, dt) = timed(&mut tr, "e2e.sum_f64_slice", || {
        Hp6x3::sum_f64_slice(black_box(xs))
    });
    m.read.push(dt, &m.tl_ser);
    rep.check(h.is_zero(), || {
        "serial sum of the array is not zero".to_owned()
    });
    m.tl_ser.push(shared(&mut tr, calib.burst()));
    let h = Hp6x3::par_sum_f64_slice(black_box(xs));
    rep.check(h.is_zero(), || {
        "parallel sum of the array is not zero".to_owned()
    });
    let p = &xs[..PREFIX];
    rep.check(limbs(&Hp6x3::sum_f64_slice(p)) == *prefix_sum, || {
        "serial prefix sum".to_owned()
    });
    rep.check(limbs(&Hp6x3::par_sum_f64_slice(p)) == *prefix_sum, || {
        "parallel prefix sum".to_owned()
    });

    let mut acc = [0u64; 6];
    let mut expect = [0u64; 6];
    let mut offsets = Vec::with_capacity(ADDS_PER_PASS);
    m.add.start_group();
    m.tl_ser.push(shared(&mut tr, calib.burst()));
    for k in 0..ADDS_PER_PASS {
        let off = rng.below(xs.len() / BATCH) * BATCH;
        let batch = &xs[off..off + BATCH];
        let (h, dt) = timed(&mut tr, "e2e.sum_f64_slice", || {
            Hp6x3::sum_f64_slice(black_box(batch))
        });
        m.add.push(dt, &m.tl_ser);
        oracle::wrapping_add(&mut acc, &limbs(&h));
        offsets.push(off);
        if k % 64 == 63 {
            m.tl_ser.push(shared(&mut tr, calib.burst()));
        }
    }
    for off in offsets {
        oracle::fold(&mut expect, &xs[off..off + BATCH]);
    }
    rep.check(acc == expect, || {
        "batch sums differ from Listing 1".to_owned()
    });
}

/// Streams the input to a fresh copy of this program, which times its
/// first serial and first parallel sum; returns their durations and the
/// calibration rate around each.
fn child_setup(xs: &[f64]) -> std::io::Result<[f64; 4]> {
    let mut child = Command::new(std::env::current_exe()?)
        .args(["--child", "bulk-setup"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()?;
    let mut stdin = child.stdin.take().expect("piped stdin");
    let mut buf = Vec::with_capacity(1 << 16);
    let mut write_result = Ok(());
    for chunk in xs.chunks(1 << 13) {
        buf.clear();
        for x in chunk {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        write_result = stdin.write_all(&buf);
        if write_result.is_err() {
            break;
        }
    }
    drop(stdin);
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line)?;
    let status = child.wait()?;
    write_result?;
    let fields: Vec<f64> = line
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    match (status.success(), fields.as_slice()) {
        (true, &[a, b, c, d]) => Ok([a, b, c, d]),
        _ => Err(std::io::Error::other(format!(
            "setup child failed: {status}, said {line:?}"
        ))),
    }
}

/// The child side of [`child_setup`]: read the array from stdin, then
/// time the process's first serial sum and first parallel sum. Prints
/// `serial_s cal_serial par_s cal_both`, or exits non-zero if either
/// sum is not exactly zero.
pub fn child_main() -> i32 {
    let mut xs = Vec::with_capacity(N);
    let mut stdin = std::io::stdin().lock();
    let mut buf = vec![0u8; 1 << 16];
    loop {
        let n = match stdin.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return 2,
        };
        // Reads land on 8-byte boundaries only by luck; keep the tail.
        let whole = n - n % 8;
        for le in buf[..whole].chunks_exact(8) {
            xs.push(f64::from_le_bytes(le.try_into().expect("8-byte chunk")));
        }
        if whole != n {
            let mut rest = [0u8; 8];
            rest[..n - whole].copy_from_slice(&buf[whole..n]);
            if stdin.read_exact(&mut rest[n - whole..]).is_err() {
                return 2;
            }
            xs.push(f64::from_le_bytes(rest));
        }
    }
    let mut calib = Calib::new();
    let before = calib.burst();
    let t0 = Instant::now();
    let s = Hp6x3::sum_f64_slice(black_box(&xs));
    let serial_s = t0.elapsed().as_secs_f64();
    let after = calib.burst();
    let both_before = calib.burst_both();
    let t0 = Instant::now();
    let p = Hp6x3::par_sum_f64_slice(black_box(&xs));
    let par_s = t0.elapsed().as_secs_f64();
    let both_after = calib.burst_both();
    if xs.len() != N || !s.is_zero() || !p.is_zero() {
        return 1;
    }
    println!(
        "{serial_s} {} {par_s} {}",
        (before + after) / 2.0,
        (both_before + both_after) / 2.0
    );
    0
}

pub struct BulkRun {
    pub report: Report,
    pub tl_ser: Timeline,
    pub tl_par: Timeline,
    pub traced_values_per_s: Option<(f64, f64)>,
    pub input: Vec<f64>,
}

/// Runs bulk-sum. With a tracer, alternate passes run inside spans and
/// the spread between the two halves is the tracing overhead.
pub fn run(seed: u64, seconds: u64, mut tracer: Option<&mut Tracer>) -> std::io::Result<BulkRun> {
    let xs = zero_sum_array(seed, N);
    let prefix_sum = oracle::listing1_sum(&xs[..PREFIX]);
    let mut rep = Report::default();
    rep.check(!is_zero(&prefix_sum), || {
        "prefix sums to zero; pick another seed".to_owned()
    });
    let mut calib = Calib::new();

    // setup_s / restart_s: the first serial and first parallel sum in a
    // fresh process; the input crosses a pipe, untimed. The processes are
    // spread over the whole run, between passes, so their median spans the
    // host's contention phases instead of one stretch of them.
    let mut setup = Series::new(Kind::Time);
    let mut restart = Series::new(Kind::Time);
    let mut tl_setup = Timeline::default();
    let mut tl_restart = Timeline::default();
    let mut fresh_process = |rep: &mut Report| -> std::io::Result<()> {
        // Each child calibrates around its own sums; a window opened and
        // closed by that rate normalizes by it alone.
        let [serial_s, cal, par_s, both] = child_setup(&xs)?;
        tl_setup.push(cal);
        setup.push(serial_s, &tl_setup);
        tl_setup.push(cal);
        tl_restart.push(both);
        restart.push(par_s, &tl_restart);
        tl_restart.push(both);
        rep.attempted += 2;
        Ok(())
    };

    let mut rng = Rng::new(seed ^ 0xADD);
    // Untimed warm-up: one pass, discarded.
    pass(
        &xs,
        &prefix_sum,
        &mut rng,
        &mut calib,
        &mut Measured::new(),
        &mut rep,
        None,
    );
    let mut plain = Measured::new();
    let mut traced = Measured::new();
    let n_passes = passes(seconds);
    let mut children = 0;
    for i in 0..n_passes {
        while children < (i + 1) * CHILDREN / n_passes {
            fresh_process(&mut rep)?;
            children += 1;
        }
        match tracer.as_deref_mut() {
            Some(t) if i % 2 == 1 => pass(
                &xs,
                &prefix_sum,
                &mut rng,
                &mut calib,
                &mut traced,
                &mut rep,
                Some(t),
            ),
            _ => pass(
                &xs,
                &prefix_sum,
                &mut rng,
                &mut calib,
                &mut plain,
                &mut rep,
                None,
            ),
        }
    }

    let m = &plain;
    let norm_median = |s: &Series, tl: &Timeline| median(&s.normalized(tl));
    let push_rate = |rep: &mut Report, name, s: &Series, tl: &Timeline, note: &str| {
        rep.metrics.push(Metric {
            name,
            unit: "values/s",
            raw: median(&s.raw()),
            norm: Some(norm_median(s, tl)),
            note: format!("median of {} {note} slices of {SLICE} values", s.len()),
        });
    };
    push_rate(&mut rep, "values_per_s", &m.serial, &m.tl_ser, "serial");
    push_rate(&mut rep, "par_values_per_s", &m.par, &m.tl_par, "parallel");
    rep.percentile("add_p50_us", "us", 1e6, &m.add, &m.tl_ser, 50.0);
    rep.percentile("add_p90_us", "us", 1e6, &m.add, &m.tl_ser, 90.0);
    rep.percentile("add_p99_us", "us", 1e6, &m.add, &m.tl_ser, 99.0);
    rep.percentile("read_p50_us", "us", 1e6, &m.read, &m.tl_ser, 50.0);
    rep.percentile("setup_s", "s", 1.0, &setup, &tl_setup, 50.0);
    rep.percentile("restart_s", "s", 1.0, &restart, &tl_restart, 50.0);
    rep.count(
        "peak_rss_mib",
        "MiB",
        crate::sys::peak_rss_mib(),
        "getrusage high-water mark",
    );
    rep.count(
        "stored_bytes_per_value",
        "B/value",
        8.0,
        "the in-memory array is the only copy",
    );
    rep.note(format!(
        "in-process: add = one {BATCH}-value sum_f64_slice, read = one {N}-value sum_f64_slice, \
         setup/restart = first serial/parallel sum in a fresh process ({CHILDREN} processes)"
    ));
    let traced_values_per_s = tracer.map(|_| {
        (
            norm_median(&plain.serial, &plain.tl_ser),
            norm_median(&traced.serial, &traced.tl_ser),
        )
    });
    let mut tl_ser = plain.tl_ser;
    tl_ser.rates.extend(traced.tl_ser.rates);
    Ok(BulkRun {
        report: rep,
        tl_ser,
        tl_par: plain.tl_par,
        traced_values_per_s,
        input: xs,
    })
}
