//! The event-driven transport: one thread, one `epoll`, every
//! connection a readiness-driven state machine.
//!
//! The threaded server burns a thread per live connection;
//! this reactor holds tens of thousands on a single thread. Frames are
//! decoded incrementally by `conn::Conn`'s exact-read coroutine,
//! parsed with the same zero-copy views as the blocking path, and
//! executed through the identical transport-agnostic [`RequestCore`] —
//! so sums are bitwise identical across transports *by construction*:
//! there is no second protocol or apply path to diverge.
//!
//! ## WAL parking
//!
//! A tracked `Add` under the reactor uses
//! [`WalMode::Submit`](crate::dispatch::WalMode): the record is queued
//! on the WAL and the connection *parks* holding its already-formatted
//! reply — no thread waits for it. One pump thread commits the queue
//! on behalf of every parked connection, looping on
//! [`Wal::commit_next`](crate::wal::Wal::commit_next), and signals an
//! eventfd after each group; the reactor then releases, in ticket
//! order, every reply the WAL's commit mark licenses. The fsync
//! amortizes over everything a readiness burst submitted — which is
//! exactly the group-commit design point the thread-per-connection
//! transport cannot reach (its groups are capped by thread count).
//!
//! ## Shutdown
//!
//! A `Shutdown` frame (or
//! [`ServerHandle::shutdown`](crate::server::ServerHandle::shutdown))
//! flips the shared stopping flag; the reactor stops accepting and
//! reading, drains pending replies and parked tickets (bounded by
//! `DRAIN_DEADLINE`), closes every connection, and runs the same exit
//! tail as the threaded acceptor, `RequestCore::close`: WAL close
//! (commit + seal), final snapshot, and GC of the segments a verified
//! snapshot covers. Closing the WAL is also what ends the pump, so the
//! reactor closes it before joining the pump on every exit, errors
//! included.

// The second carve-out from `deny(unsafe_code)` (after `segmap`): the
// raw epoll/eventfd/prlimit syscalls, each with a SAFETY argument at
// the call site, issued through `segmap::syscall6`, the wrapper that
// lives in the first.
#[allow(unsafe_code)]
pub(crate) mod sys;

mod conn;

use crate::dispatch::{FrameOutcome, RequestCore, WalMode};
use crate::proto::{frame_into, parse_client_frame, ErrorCode, Response};
use conn::{BufPool, Conn, Fill, HIGH_WATER, LOW_WATER};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Raises the process soft `RLIMIT_NOFILE` toward `min(target, hard
/// cap)`, returning the resulting `(soft, hard)` pair. The loadgen's
/// connection-scaling mode and deployments that hold >1024 sockets
/// call this at startup; on targets without the syscall shim it fails
/// with `Unsupported` and the caller degrades (or skips its gate).
pub fn raise_nofile_limit(target: u64) -> io::Result<(u64, u64)> {
    sys::raise_nofile_limit(target)
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_BASE: u64 = 2;

/// Events decoded per `epoll_wait` round.
const EVENTS_PER_WAIT: usize = 1024;

/// How long shutdown waits for pending replies and parked WAL tickets
/// to drain before force-closing the remaining connections.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// Parked replies one connection may hold before the reactor stops
/// reading its frames. A window (rather than one) keeps a pipelining
/// client's submits flowing into the WAL while earlier tickets await
/// their group's fsync — the pump sees a continuous stream and commits
/// whatever queued during the last fsync as one group instead of
/// draining one wave per commit. Small, because each parked reply
/// pins a pooled buffer and an unACKed client request.
pub(crate) const PARKED_LIMIT: usize = 8;

/// Runs the reactor on the calling thread until shutdown. This is the
/// epoll counterpart of the threaded acceptor closure in
/// `serve_with_core`, exit tail included.
pub(crate) fn run(
    listener: TcpListener,
    core: Arc<RequestCore>,
    stopping: Arc<AtomicBool>,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut reactor = Reactor {
        epoll: sys::Epoll::new(EVENTS_PER_WAIT)?,
        waker: Arc::new(sys::EventFd::new()?),
        listener,
        core,
        stopping,
        conns: Vec::new(),
        free: Vec::new(),
        pool: BufPool::new(),
        parked: BinaryHeap::new(),
        scratch_json: String::new(),
        scratch_frame: Vec::with_capacity(256),
        events: Vec::with_capacity(EVENTS_PER_WAIT),
        draining: None,
    };
    reactor.epoll.add(&reactor.listener, TOKEN_LISTENER)?;
    reactor.waker.register(&reactor.epoll, TOKEN_WAKER)?;

    // The WAL pump: one thread commits every submitted group and relays
    // each one, and the close or crash that ends it, through the waker.
    // It owns the only blocking wait on this transport.
    let pump = reactor
        .core
        .wal()
        .map(|wal| {
            let wal = Arc::clone(wal);
            let waker = Arc::clone(&reactor.waker);
            std::thread::Builder::new().name("oisum-reactor-wal-pump".to_owned()).spawn(
                move || {
                    while wal.commit_next().is_some() {
                        let _ = waker.signal();
                    }
                    let _ = waker.signal();
                },
            )
        })
        .transpose()?;

    let result = reactor.event_loop();

    // The same exit tail as the threaded acceptor; on an error exit the
    // WAL is still closed, because the pump only returns once it is.
    let closed = match result {
        Ok(()) => reactor.core.close(),
        Err(e) => {
            if let Some(wal) = reactor.core.wal() {
                let _ = wal.close();
            }
            Err(e)
        }
    };
    if let Some(handle) = pump {
        let _ = handle.join();
    }
    closed
}

struct Reactor {
    epoll: sys::Epoll,
    waker: Arc<sys::EventFd>,
    listener: TcpListener,
    core: Arc<RequestCore>,
    stopping: Arc<AtomicBool>,
    /// The connection slab; token = index + [`TOKEN_BASE`].
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    pool: BufPool,
    /// Min-heap of `(ticket, slab index)`, one entry per parked reply;
    /// released in ticket order as the mark advances. A slot's entries
    /// mirror the front-to-back order of its connection's parked queue,
    /// so a popped ticket that doesn't match the queue front is stale
    /// (the slot was recycled — tickets are never reused).
    parked: BinaryHeap<(Reverse<u64>, usize)>,
    /// Reply formatting scratch, shared across every connection — the
    /// reactor is single-threaded, so one pair serves 10k sockets.
    scratch_json: String,
    scratch_frame: Vec<u8>,
    /// Copied readiness events (decouples the epoll borrow from the
    /// slab borrow while dispatching).
    events: Vec<sys::Event>,
    /// `Some(drain start)` once shutdown has been observed.
    draining: Option<Instant>,
}

impl Reactor {
    fn event_loop(&mut self) -> io::Result<()> {
        loop {
            // ORDERING: SeqCst — pairs with signal_shutdown's store (the
            // poke connection doubles as the wakeup).
            if self.draining.is_none() && self.stopping.load(Ordering::SeqCst) {
                self.begin_drain();
            }
            if let Some(started) = self.draining {
                if self.drained() || started.elapsed() > DRAIN_DEADLINE {
                    self.close_all();
                    return Ok(());
                }
            }
            let timeout_ms = if self.draining.is_some() { 50 } else { -1 };
            self.events.clear();
            let events = self.epoll.wait(timeout_ms)?;
            self.events.extend_from_slice(events);
            for i in 0..self.events.len() {
                let ev = self.events[i];
                match ev.token {
                    TOKEN_LISTENER => self.accept_burst()?,
                    TOKEN_WAKER => {
                        let _ = self.waker.drain();
                        self.release_parked();
                    }
                    token => {
                        let idx = (token - TOKEN_BASE) as usize;
                        if self.conns.get(idx).is_none_or(Option::is_none) {
                            continue; // closed earlier this round
                        }
                        if ev.closed {
                            self.close_conn(idx);
                            continue;
                        }
                        if ev.writable {
                            self.flush_conn(idx);
                        }
                        if ev.readable {
                            self.pump_conn(idx);
                        }
                    }
                }
                // ORDERING: SeqCst — the shutdown flag is set by other
                // threads right before a waker signal; seeing it one
                // wake late only delays the drain, never loses it.
                if self.draining.is_none() && self.stopping.load(Ordering::SeqCst) {
                    self.begin_drain();
                }
            }
        }
    }

    /// Accepts until the listener runs dry (edge-triggered: every
    /// readable edge must be drained completely).
    fn accept_burst(&mut self) -> io::Result<()> {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.draining.is_some() {
                        continue; // shutdown pokes and late clients
                    }
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err()
                    {
                        continue;
                    }
                    let idx = match self.free.pop() {
                        Some(idx) => idx,
                        None => {
                            self.conns.push(None);
                            self.conns.len() - 1
                        }
                    };
                    if self.epoll.add(&stream, idx as u64 + TOKEN_BASE).is_err() {
                        self.free.push(idx);
                        continue;
                    }
                    self.conns[idx] = Some(Conn::new(stream));
                    // The add-time readiness edge covers bytes that
                    // raced the registration; nothing more to do here.
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionAborted | io::ErrorKind::Interrupted
                    ) =>
                {
                    continue
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Reads and executes frames until the socket runs dry or the
    /// connection pauses (parked-reply window full, output
    /// backpressure, pending close, or drain).
    fn pump_conn(&mut self, idx: usize) {
        loop {
            let Some(conn) = self.conns[idx].as_mut() else { return };
            if conn.parked.len() >= PARKED_LIMIT
                || conn.close_after_flush
                || conn.stop_after_flush
                || self.draining.is_some()
            {
                return;
            }
            if conn.backlog() > HIGH_WATER {
                conn.paused = true;
                return;
            }
            conn.paused = false;
            match conn.fill_frame(&mut self.pool) {
                Ok(Fill::WouldBlock) => {
                    self.flush_conn(idx);
                    return;
                }
                Ok(Fill::Eof) | Ok(Fill::TornEof) => {
                    self.close_conn(idx);
                    return;
                }
                Ok(Fill::Frame { magic, len }) => {
                    self.dispatch_frame(idx, magic, len);
                    // Opportunistic flush after every frame: replies
                    // depart as immediate segments (Nagle is off) and
                    // backpressure accounting stays honest.
                    self.flush_conn(idx);
                }
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    // Malformed frame: send the typed error best-effort,
                    // then close — once framing is suspect the stream
                    // cannot be resynced (mirrors the threaded server).
                    let reply =
                        Response::Error { code: ErrorCode::BadRequest, message: e.to_string() };
                    self.queue_reply(idx, &reply);
                    if let Some(conn) = self.conns[idx].as_mut() {
                        conn.close_after_flush = true;
                    }
                    self.flush_conn(idx);
                    return;
                }
                Err(_) => {
                    self.close_conn(idx);
                    return;
                }
            }
        }
    }

    /// Parses and executes one complete frame sitting in the
    /// connection's read buffer.
    fn dispatch_frame(&mut self, idx: usize, magic: [u8; 4], len: usize) {
        let Some(conn) = self.conns[idx].as_mut() else { return };
        let outcome = match parse_client_frame(magic, &conn.read_buf[..len]) {
            Ok(view) => self.core.handle_frame_with(view, &mut 0, WalMode::Submit),
            Err(e) => {
                conn.recycle_read_buf(&mut self.pool);
                let reply = Response::Error { code: ErrorCode::BadRequest, message: e.to_string() };
                self.queue_reply(idx, &reply);
                if let Some(conn) = self.conns[idx].as_mut() {
                    conn.close_after_flush = true;
                }
                return;
            }
        };
        conn.recycle_read_buf(&mut self.pool);
        match outcome {
            FrameOutcome::Done(reply, stop) => {
                if frame_into(&reply, &mut self.scratch_json, &mut self.scratch_frame).is_err() {
                    self.close_conn(idx);
                    return;
                }
                let Some(conn) = self.conns[idx].as_mut() else { return };
                // Replies leave in request order: a frame answered
                // immediately while earlier tickets are still parked
                // rides behind the youngest parked reply instead of
                // jumping the queue onto the wire.
                if let Some((_, back)) = conn.parked.back_mut() {
                    back.extend_from_slice(&self.scratch_frame);
                } else {
                    if conn.out.capacity() == 0 {
                        conn.out = self.pool.take(self.scratch_frame.len().max(256));
                    }
                    conn.out.extend_from_slice(&self.scratch_frame);
                }
                if stop {
                    conn.stop_after_flush = true;
                }
            }
            FrameOutcome::WalPending { ticket, response } => {
                // Format now, release later: the reply bytes wait in the
                // connection (not on the wire) until the commit mark
                // covers the ticket — ACKed therefore still implies
                // durable, with zero threads parked.
                if frame_into(&response, &mut self.scratch_json, &mut self.scratch_frame).is_ok()
                {
                    let Some(conn) = self.conns[idx].as_mut() else { return };
                    let mut parked = self.pool.take(self.scratch_frame.len());
                    parked.extend_from_slice(&self.scratch_frame);
                    conn.parked.push_back((ticket, parked));
                    self.parked.push((Reverse(ticket), idx));
                } else {
                    self.close_conn(idx);
                }
            }
        }
    }

    /// Formats `reply` and appends it to the connection's output queue.
    fn queue_reply(&mut self, idx: usize, reply: &Response) {
        if frame_into(reply, &mut self.scratch_json, &mut self.scratch_frame).is_err() {
            self.close_conn(idx);
            return;
        }
        let Some(conn) = self.conns[idx].as_mut() else { return };
        if conn.out.capacity() == 0 {
            conn.out = self.pool.take(self.scratch_frame.len().max(256));
        }
        conn.out.extend_from_slice(&self.scratch_frame);
    }

    /// Releases every parked reply whose ticket the WAL's commit mark
    /// covers; on a WAL crash, fails the uncommitted ones with a typed
    /// error instead (the log will never advance again).
    /// The heap pops tickets in ascending order and each connection's
    /// queue is ascending, so replies rejoin `out` in request order —
    /// error replies included.
    fn release_parked(&mut self) {
        let Some(wal) = self.core.wal() else { return };
        let (mark, crashed) = (wal.commit_mark(), wal.is_crashed());
        while let Some(&(Reverse(ticket), idx)) = self.parked.peek() {
            if ticket > mark && !crashed {
                break;
            }
            self.parked.pop();
            let Some(conn) = self.conns[idx].as_mut() else { continue };
            if conn.parked.front().map(|&(t, _)| t) != Some(ticket) {
                continue; // stale heap entry for a recycled slot
            }
            // lint:allow(service-unwrap) -- infallible: the front's presence and ticket were checked two lines up
            let (_, buf) = conn.parked.pop_front().expect("front checked above");
            if crashed && ticket > mark {
                // The record never became durable: refuse instead of
                // ACKing, exactly like a blocking append error.
                self.pool.put(buf);
                let detail = self
                    .core
                    .wal()
                    .and_then(|w| w.crash_detail())
                    .unwrap_or_else(|| "wal crashed".to_owned());
                let reply = Response::Error {
                    code: ErrorCode::Internal,
                    message: format!("wal append failed: {detail}"),
                };
                self.queue_reply(idx, &reply);
            } else if conn.out.capacity() == 0 {
                conn.out = buf;
            } else {
                conn.out.extend_from_slice(&buf);
                self.pool.put(buf);
            }
            self.flush_conn(idx);
            // ET discipline: pump only when this release reopened a
            // full parked window. A connection below the limit was read
            // to EAGAIN by its last readiness pump (pump_conn exits
            // either drained or gated), so no bytes can be waiting on
            // it — re-pumping would cost one EAGAIN read per released
            // reply.
            if self.conns[idx].as_ref().is_some_and(|c| c.parked.len() + 1 == PARKED_LIMIT) {
                self.pump_conn(idx);
            }
        }
    }

    /// Flushes queued output; handles drain-completion transitions
    /// (close-after-flush, shutdown-after-flush, backpressure resume).
    fn flush_conn(&mut self, idx: usize) {
        let flushed = {
            let Some(conn) = self.conns[idx].as_mut() else { return };
            conn.flush_out(&mut self.pool)
        };
        let drained = match flushed {
            Err(_) => {
                self.close_conn(idx);
                return;
            }
            Ok(drained) => drained,
        };
        if !drained {
            return;
        }
        let (stop_after, close_after, resume) = {
            let Some(conn) = self.conns[idx].as_mut() else { return };
            let resume = conn.paused && conn.backlog() < LOW_WATER;
            if resume {
                conn.paused = false;
            }
            // Close/stop only once parked replies have also left: they
            // ride behind the drained `out`, so acting now would drop
            // ACKs for records that did (or will) commit. release_parked
            // re-runs this flush when the last ticket clears.
            let settled = conn.parked.is_empty();
            (conn.stop_after_flush && settled, conn.close_after_flush && settled, resume)
        };
        if stop_after {
            // A Shutdown frame was ACKed here: flip the shared flag
            // (ServerHandle::shutdown sets the same one) and begin the
            // drain.
            // ORDERING: SeqCst — mirrors signal_shutdown.
            self.stopping.store(true, Ordering::SeqCst);
            self.close_conn(idx);
            self.begin_drain();
            return;
        }
        if close_after {
            self.close_conn(idx);
            return;
        }
        if resume {
            self.pump_conn(idx);
        }
    }

    fn begin_drain(&mut self) {
        if self.draining.is_none() {
            self.draining = Some(Instant::now());
        }
    }

    /// True once no connection holds unsent output or a parked reply.
    fn drained(&self) -> bool {
        self.conns.iter().flatten().all(|c| c.backlog() == 0 && c.parked.is_empty())
    }

    fn close_all(&mut self) {
        for idx in 0..self.conns.len() {
            if self.conns[idx].is_some() {
                self.close_conn(idx);
            }
        }
    }

    fn close_conn(&mut self, idx: usize) {
        if let Some(mut conn) = self.conns[idx].take() {
            let _ = self.epoll.delete(&conn.stream);
            self.pool.put(std::mem::take(&mut conn.read_buf));
            self.pool.put(std::mem::take(&mut conn.out));
            while let Some((_, buf)) = conn.parked.pop_front() {
                self.pool.put(buf);
            }
            self.free.push(idx);
        }
    }
}
