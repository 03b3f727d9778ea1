//! The traced run's layer passes: the run's own inputs replayed
//! in-process through each layer's entry point, one span per call.
//! This is the only file that calls into internal layer functions; the
//! end-to-end paths in `bulk.rs` and `service.rs` use the stable
//! surface alone.
//!
//! Every span about one Add or read of the traffic script carries that
//! operation's id, in every pass. A layer whose callee is itself another
//! layer inside the program (dispatch calls parse, ledger and WAL; the
//! server wraps encode, dispatch and the commit wait) gets its self time
//! per operation: its span minus the same operation's callee spans, since
//! the program has no spans of its own yet.

use crate::bulk::SLICE;
use crate::oracle::{self, Limbs};
use crate::report::{Form, Report};
use crate::service::{dir_bytes, Kept, Op, Traffic, BATCH, STREAMS};
use crate::trace::Tracer;
use oisum_analysis::opcount::atomic_rmws_batched;
use oisum_cluster::{ClusterNode, ClusterNodeConfig, PeerCallConfig, PeerPool, Ring};
use oisum_core::{encode_f64_batch, encode_f64_le_batch, AtomicHp, BatchAcc, Hp6x3};
use oisum_service::proto::{
    add_binary_into, parse_client_frame, ClientFrameView, Response, SnapshotScope,
};
use oisum_service::wal::{
    list_segments, RECORD_FIXED, RECORD_OVERHEAD, SEAL_LEN, SEGMENT_HEADER_LEN,
};
use oisum_service::{recover, FrameOutcome, RequestCore, ShardedLedger, Wal, WalConfig, WalMode};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Per-layer results by metric name.
#[derive(Default)]
pub struct Layers {
    /// Exact counts and ratios, which no clock touches.
    pub counts: BTreeMap<&'static str, f64>,
    /// Timings as (raw, normalized), in the metric's unit.
    pub timings: BTreeMap<&'static str, (f64, f64)>,
}

impl Layers {
    /// Derives timing metrics from the tracer's spans, once per form.
    fn derive(&mut self, metrics: impl Fn(Form) -> Vec<(&'static str, f64)>) {
        for ((name, raw), (_, norm)) in metrics(Form::Raw).into_iter().zip(metrics(Form::Norm)) {
            self.timings.insert(name, (raw, norm));
        }
    }
}

/// A retry identity no end-to-end client uses.
const CLIENT: u64 = 0xBE4C_0000_0000_0001;

/// A dispatch span holds the parse, the deposit and the submit.
const DISPATCH_SELF: [(f64, &str); 4] = [
    (1.0, "dispatch.handle_frame"),
    (-1.0, "proto.parse_client_frame"),
    (-1.0, "ledger.add_batch_le_bytes_dedup"),
    (-1.0, "wal.submit"),
];

/// An Add's round trip holds the client's encode, the submit-mode
/// dispatch and the commit wait (`Wal::append` minus `Wal::submit`); the
/// rest is the server's and the transport's own.
const SERVER_ADD_SELF: [(f64, &str); 5] = [
    (1.0, "e2e.Client::add_binary"),
    (-1.0, "proto.add_binary_into"),
    (-1.0, "dispatch.handle_frame"),
    (-1.0, "wal.append"),
    (1.0, "wal.submit"),
];

/// kernel and batch over the bulk-sum array: encode each slice, finish
/// it, and merge two per-thread partials as `par_sum_f64_slice` does.
/// A slice is one operation.
pub fn bulk(xs: &[f64], tr: &mut Tracer, rep: &mut Report, out: &mut Layers) {
    let mut acc: Limbs = [0; 6];
    let mut merged: Limbs = [0; 6];
    for slice in xs.chunks(SLICE) {
        let op = tr.ops(1);
        let mut b = BatchAcc::<6, 3>::new();
        tr.time_op(op, "kernel.encode_f64_batch", || {
            encode_f64_batch(&mut b, black_box(slice))
        });
        let h: Hp6x3 = tr.time_op(op, "batch.finish", || b.finish());
        oracle::wrapping_add(&mut acc, h.as_limbs());

        let (lo, hi) = slice.split_at(slice.len() / 2);
        let partial = |half: &[f64]| {
            let mut p = BatchAcc::<6, 3>::new();
            encode_f64_batch(&mut p, half);
            p
        };
        let (mut a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| partial(lo));
            let b = s.spawn(|| partial(hi));
            (
                a.join().expect("partial thread"),
                b.join().expect("partial thread"),
            )
        });
        tr.time_op(op, "batch.merge", || a.merge(black_box(&b)));
        oracle::wrapping_add(&mut merged, a.finish().as_limbs());
    }
    rep.check(acc == [0; 6], || {
        "traced kernel pass does not cancel".to_owned()
    });
    rep.check(merged == [0; 6], || {
        "traced merge pass does not cancel".to_owned()
    });
    out.derive(|f| {
        vec![
            (
                "kernel.ns_per_value",
                tr.median_ns("kernel.encode_f64_batch", f) / SLICE as f64,
            ),
            ("batch.finish_ns", tr.median_ns("batch.finish", f)),
            ("batch.merge_ns", tr.median_ns("batch.merge", f)),
        ]
    });
}

/// One Add of the traffic script with its frame encoded.
struct Frame {
    op: u64,
    stream: usize,
    seq: u64,
    batch: usize,
    bytes: Vec<u8>,
}

fn frames(kept: &Kept, tr: &mut Tracer, rep: &mut Report, out: &mut Layers) -> Vec<Frame> {
    let traffic = &kept.traffic;
    let mut frames = Vec::new();
    for (i, op) in traffic.ops.iter().enumerate() {
        let Op::Add { stream, batch } = *op else {
            continue;
        };
        let op = kept.op_base + i as u64;
        let seq = batch as u64 + 1;
        let mut bytes = Vec::new();
        let r = tr.time_op(op, "proto.add_binary_into", || {
            add_binary_into(
                &mut bytes,
                &traffic.names[stream],
                CLIENT,
                seq,
                traffic.batch(batch),
            )
        });
        rep.check(r.is_ok(), || format!("encode frame: {r:?}"));
        frames.push(Frame {
            op,
            stream,
            seq,
            batch,
            bytes,
        });
    }
    out.counts.insert(
        "proto.wire_bytes_per_value",
        frames[0].bytes.len() as f64 / BATCH as f64,
    );
    frames
}

fn parse(f: &Frame) -> ClientFrameView<'_> {
    let magic = f.bytes[..4].try_into().expect("4-byte magic");
    parse_client_frame(magic, &f.bytes[8..]).expect("a frame this pass encoded parses")
}

fn value_bytes<'a>(view: &ClientFrameView<'a>) -> &'a [u8] {
    match view {
        ClientFrameView::BinaryAdd(v) => v.value_bytes(),
        ClientFrameView::Json(_) => panic!("encoded a binary Add, parsed JSON"),
    }
}

/// What each stream should sum to after every Add of the script.
fn truth(traffic: &Traffic) -> Vec<Limbs> {
    let mut sums = vec![[0; 6]; STREAMS];
    for op in &traffic.ops {
        if let Op::Add { stream, batch } = *op {
            oracle::wrapping_add(&mut sums[stream], &traffic.folds[batch]);
        }
    }
    sums
}

/// The reads of the script: operation id and stream.
fn reads(kept: &Kept) -> impl Iterator<Item = (u64, usize)> + '_ {
    kept.traffic
        .ops
        .iter()
        .enumerate()
        .filter_map(|(i, op)| match *op {
            Op::Read { stream } => Some((kept.op_base + i as u64, stream)),
            Op::Add { .. } => None,
        })
}

/// The service layers over the kept epoch's traffic and its log.
pub fn service(
    kept: &Kept,
    work: &Path,
    tr: &mut Tracer,
    rep: &mut Report,
    out: &mut Layers,
) -> io::Result<()> {
    let traffic = &kept.traffic;
    let sums = truth(traffic);
    let frames = frames(kept, tr, rep, out);

    // proto parse, kernel, batch finish, atomic deposit.
    let atomic = AtomicHp::<6, 3>::default();
    for f in &frames {
        let view = tr.time_op(f.op, "proto.parse_client_frame", || parse(black_box(f)));
        let bytes = value_bytes(&view);
        let mut acc = BatchAcc::<6, 3>::new();
        tr.time_op(f.op, "kernel.encode_f64_le_batch", || {
            encode_f64_le_batch(&mut acc, bytes)
        });
        let h: Hp6x3 = tr.time_op(f.op, "batch.finish", || acc.finish());
        rep.check(*h.as_limbs() == traffic.folds[f.batch], || {
            format!("kernel sum of batch {}", f.batch)
        });
        let rmws = tr.time_op(f.op, "atomic.add_batch_le_bytes", || {
            atomic.add_batch_le_bytes(bytes)
        });
        rep.check(rmws == atomic_rmws_batched(6), || {
            format!("{rmws} RMWs for one batch, model says 6")
        });
        out.counts.insert("atomic.rmws_per_batch", rmws as f64);
    }

    // ledger: deposits, then the script's reads.
    let ledger = ShardedLedger::new(8);
    for f in &frames {
        let name = &traffic.names[f.stream];
        let bytes = value_bytes(&parse(f));
        let (n, applied) = tr.time_op(f.op, "ledger.add_batch_le_bytes_dedup", || {
            ledger.add_batch_le_bytes_dedup(name, f.batch, CLIENT, f.seq, bytes)
        });
        rep.check(n == BATCH as u64 && applied, || {
            format!("ledger deposit {}", f.seq)
        });
    }
    for (op, stream) in reads(kept) {
        let s = tr.time_op(op, "ledger.sum", || ledger.sum(&traffic.names[stream]));
        rep.check(s.is_some_and(|s| *s.as_limbs() == sums[stream]), || {
            "ledger read".to_owned()
        });
    }

    // wal: open on an empty directory, append, submit.
    let wal_dir = |tag: &str| work.join(format!("layer-{tag}"));
    for k in 0..8 {
        let dir = wal_dir(&format!("open-{k}"));
        let wal = tr
            .time("wal.open", || Wal::open(WalConfig::new(&dir)))
            .map_err(io::Error::from)?;
        wal.close().map_err(io::Error::from)?;
        std::fs::remove_dir_all(&dir)?;
    }
    let dir = wal_dir("append");
    let wal = Wal::open(WalConfig::new(&dir)).map_err(io::Error::from)?;
    for f in &frames {
        let bytes = value_bytes(&parse(f));
        let r = tr.time_op(f.op, "wal.append", || {
            wal.append(&traffic.names[f.stream], CLIENT, f.seq, bytes)
        });
        rep.check(r.is_ok(), || format!("wal append: {r:?}"));
    }
    let (records, groups) = wal.group_stats();
    wal.close().map_err(io::Error::from)?;
    let stored = dir_bytes(&dir)?;
    let segments = list_segments(&dir)?.len();
    let record_bytes: usize = frames
        .iter()
        .map(|f| RECORD_OVERHEAD + RECORD_FIXED + traffic.names[f.stream].len() + 8 * BATCH)
        .sum();
    let expect = record_bytes + segments * (SEGMENT_HEADER_LEN + SEAL_LEN);
    rep.check(stored == expect as u64, || {
        format!("WAL holds {stored} bytes, record format says {expect}")
    });
    rep.note(format!(
        "wal append pass: {} records in {segments} segments, {stored} bytes",
        frames.len()
    ));
    out.counts.insert(
        "wal.records_per_group",
        records as f64 / groups.max(1) as f64,
    );
    out.counts.insert(
        "wal.bytes_per_value",
        stored as f64 / (frames.len() * BATCH) as f64,
    );
    std::fs::remove_dir_all(&dir)?;

    let dir = wal_dir("submit");
    let wal = Wal::open(WalConfig::new(&dir)).map_err(io::Error::from)?;
    for f in &frames {
        let bytes = value_bytes(&parse(f));
        let r = tr.time_op(f.op, "wal.submit", || {
            wal.submit(&traffic.names[f.stream], CLIENT, f.seq, bytes)
        });
        rep.check(r.is_ok(), || format!("wal submit: {r:?}"));
        // Wait for the commit outside the span, so each submit meets
        // an idle committer as a closed-loop client's would.
        wal.flush().map_err(io::Error::from)?;
    }
    wal.close().map_err(io::Error::from)?;
    std::fs::remove_dir_all(&dir)?;

    // dispatch: whole frames through a WAL-backed request core in the
    // mode that returns once the record is submitted, so the span holds
    // parse, deposit, submit and dispatch's own work but not the commit
    // wait (measured above); then replays of already-ACKed frames, which
    // must deposit nothing.
    let dir = wal_dir("dispatch");
    let core = RequestCore::new(Arc::new(ShardedLedger::new(8))).with_wal(Arc::new(
        Wal::open(WalConfig::new(&dir)).map_err(io::Error::from)?,
    ));
    let mut cursor = 0;
    for f in &frames {
        let view = parse(f);
        let outcome = tr.time_op(f.op, "dispatch.handle_frame", || {
            core.handle_frame_with(view, &mut cursor, WalMode::Submit)
        });
        rep.check(
            matches!(outcome, FrameOutcome::WalPending { response: Response::Added { count, deduped: false }, .. }
                if count == BATCH as u64),
            || format!("dispatch of {}: {outcome:?}", f.seq),
        );
        if let Some(wal) = core.wal() {
            wal.flush().map_err(io::Error::from)?;
        }
    }
    let mut replays = 0u64;
    for f in frames.iter().take(64) {
        let (reply, _) = core.handle_frame(parse(f), &mut cursor);
        rep.check(
            matches!(reply, Response::Added { deduped: true, .. }),
            || format!("replay: {reply:?}"),
        );
        replays += u64::from(matches!(reply, Response::Added { deduped: true, .. }));
    }
    for (k, name) in traffic.names.iter().enumerate() {
        let s = core.ledger().sum(name).map_or([0; 6], |h| *h.as_limbs());
        rep.check(s == sums[k], || {
            format!("dispatch ledger {name} after replays")
        });
    }
    if let Some(wal) = core.wal() {
        wal.close().map_err(io::Error::from)?;
    }
    drop(core);
    std::fs::remove_dir_all(&dir)?;
    out.counts.insert("ledger.dedup_replays", replays as f64);

    // recovery: replay the end-to-end epoch's own log.
    let mut values = 0;
    for _ in 0..5 {
        let ledger = ShardedLedger::new(8);
        let report = tr
            .time("recovery.recover", || recover(&kept.dir, &ledger))
            .map_err(io::Error::from)?;
        rep.check(report.applied == frames.len() as u64, || {
            format!(
                "replayed {} records, the epoch issued {} Adds",
                report.applied,
                frames.len()
            )
        });
        for (k, name) in traffic.names.iter().enumerate() {
            let s = ledger.sum(name).map_or([0; 6], |h| *h.as_limbs());
            rep.check(s == sums[k], || format!("replayed {name}"));
        }
        out.counts.insert("recovery.records", report.applied as f64);
        values = report.values.max(1);
    }

    peers(kept, &frames, work, tr, rep)?;

    out.derive(|f| {
        let m = |name| tr.median_ns(name, f);
        vec![
            ("proto.encode_ns_per_frame", m("proto.add_binary_into")),
            ("proto.parse_ns_per_frame", m("proto.parse_client_frame")),
            (
                "kernel.ns_per_value",
                m("kernel.encode_f64_le_batch") / BATCH as f64,
            ),
            ("batch.finish_ns", m("batch.finish")),
            ("atomic.ns_per_batch", m("atomic.add_batch_le_bytes")),
            (
                "ledger.add_ns_per_batch",
                m("ledger.add_batch_le_bytes_dedup"),
            ),
            ("ledger.read_ns", m("ledger.sum")),
            ("wal.open_ns", m("wal.open")),
            ("wal.submit_ns", m("wal.submit")),
            (
                "wal.commit_wait_ns",
                tr.per_op_ns(&[(1.0, "wal.append"), (-1.0, "wal.submit")], f),
            ),
            (
                "dispatch.self_ns_per_frame",
                tr.per_op_ns(&DISPATCH_SELF, f),
            ),
            (
                "recovery.ns_per_value",
                m("recovery.recover") / values as f64,
            ),
            ("server.self_ns_per_add", tr.per_op_ns(&SERVER_ADD_SELF, f)),
            (
                "server.self_ns_per_read",
                tr.per_op_ns(&[(1.0, "e2e.Client::sum"), (-1.0, "ledger.sum")], f),
            ),
            ("peer.mirror_add_ns", m("peer.mirror_add")),
            ("peer.tree_sum_ns", m("peer.tree_sum")),
            ("peer.snapshot_pull_ns", m("peer.snapshot_pull")),
            ("node.start_s", m("node.ClusterNode::start") / 1e9),
            ("placement.replicas_ns", m("placement.replicas")),
        ]
    });
    add_path(out, tr, rep);
    Ok(())
}

/// peer, node and placement: a fresh 3-node R=2 cluster (one span per
/// node start), then the script's mirror copies, tree reduces and
/// snapshot pulls issued from a pool speaking for node 0.
fn peers(
    kept: &Kept,
    frames: &[Frame],
    work: &Path,
    tr: &mut Tracer,
    rep: &mut Report,
) -> io::Result<()> {
    const NODES: usize = 3;
    const REPLICATION: usize = 2;
    let traffic = &kept.traffic;
    let dir = work.join("layer-peers");
    let membership = Arc::new(oisum_cluster::loopback(NODES, REPLICATION)?);
    let mut nodes = Vec::new();
    for id in 0..NODES as u32 {
        let mut c = ClusterNodeConfig::new(id);
        c.wal = Some(WalConfig::new(dir.join(format!("node{id}"))));
        let m = Arc::clone(&membership);
        nodes.push(tr.time("node.ClusterNode::start", || ClusterNode::start(m, c))?);
    }
    let ring = Ring::new(NODES as u32);
    let pool = PeerPool::new(0, Arc::clone(&membership), PeerCallConfig::default());
    let mut holders = Vec::new();
    for f in frames {
        let name = &traffic.names[f.stream];
        let order = tr.time_op(f.op, "placement.replicas", || {
            ring.replicas(black_box(name), NODES)
        });
        let peer = *order
            .iter()
            .find(|&&n| n != 0)
            .expect("a 3-node ring has another node");
        holders.push(peer);
        let bytes = value_bytes(&parse(f));
        let r = tr.time_op(f.op, "peer.mirror_add", || {
            pool.mirror_add(peer, 0, name, CLIENT, f.seq, bytes)
        });
        rep.check(r == Ok(false), || format!("mirror add: {r:?}"));
    }
    for (op, stream) in reads(kept) {
        for (child, limit) in [(1, 1), (2, 2)] {
            let r = tr.time_op(op, "peer.tree_sum", || {
                pool.tree_sum(child, 0, limit, &traffic.names[stream])
            });
            rep.check(r.is_ok(), || format!("tree sum: {r:?}"));
        }
    }
    let holder = holders[0];
    for _ in 0..16 {
        let r = tr.time("peer.snapshot_pull", || {
            pool.snapshot_pull(holder, 0, SnapshotScope::MirrorOfOrigin)
        });
        rep.check(matches!(&r, Ok(s) if !s.is_empty()), || {
            "snapshot pull returned nothing".to_owned()
        });
    }
    drop(pool);
    for n in &nodes {
        n.shutdown();
    }
    for n in nodes {
        n.join()?;
    }
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}

/// Notes how the add path's layer self times add up to the traced add
/// round trip, in both forms. The transport's share (socket writes and
/// reads, wake-ups, the worker handoff) has no in-process pass of its
/// own: it is the per-operation residual, `server.self_ns_per_add`.
fn add_path(out: &Layers, tr: &Tracer, rep: &mut Report) {
    const PARTS: [(&str, &str); 7] = [
        ("proto encode (client)", "proto.encode_ns_per_frame"),
        ("proto parse", "proto.parse_ns_per_frame"),
        (
            "ledger deposit (kernel+batch+atomic inside)",
            "ledger.add_ns_per_batch",
        ),
        ("wal submit", "wal.submit_ns"),
        ("wal commit wait", "wal.commit_wait_ns"),
        ("dispatch self", "dispatch.self_ns_per_frame"),
        ("server/transport self", "server.self_ns_per_add"),
    ];
    for (form, label) in [(Form::Raw, "raw"), (Form::Norm, "normalized")] {
        // The round trips of the replayed Adds only (the zero-weight term
        // keeps the operations the layer passes saw), so that the parts
        // and the whole come from the same operations.
        let rtt = tr.per_op_ns(
            &[
                (1.0, "e2e.Client::add_binary"),
                (0.0, "dispatch.handle_frame"),
            ],
            form,
        );
        let mut sum = 0.0;
        for (part, name) in PARTS {
            let (raw, norm) = out.timings[name];
            let ns = if form == Form::Raw { raw } else { norm };
            // lint:allow(float-accum) -- benchmark statistics, not summation data
            sum += ns;
            rep.note(format!(
                "add path ({label}): {part}: {ns:.0} ns ({:.1}%)",
                ns / rtt * 100.0
            ));
        }
        rep.note(format!(
            "add path ({label}): the parts sum to {sum:.0} ns of a {rtt:.0} ns median round trip of the \
             same Adds (unexplained: {:.0} ns, since medians of per-operation parts need not add up)",
            rtt - sum
        ));
    }
}
