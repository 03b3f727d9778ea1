//! Per-connection readiness-driven state machine.
//!
//! A connection is a tiny explicit coroutine: `ReadHeader` fills an
//! inline 8-byte buffer, `ReadBody` fills the pooled payload buffer to
//! the header's exact length, and a completed frame is parsed in place
//! (the same zero-copy [`parse_client_frame`](crate::proto::parse_client_frame)
//! views the blocking server uses) and dispatched through the shared
//! [`RequestCore`](crate::dispatch::RequestCore). Replies accumulate in
//! a pooled output buffer that drains opportunistically and on
//! writability edges; a connection whose reply sits behind a WAL
//! group-commit ticket parks — holding the formatted bytes, costing no
//! thread — until the reactor's commit pump releases it.
//!
//! Reads and writes go through [`read_nb`]/[`write_nb`], the two
//! EAGAIN-aware wrappers: `Ok(None)` is "would block, wait for the next
//! edge", `Ok(Some(0))` from a read is EOF. The
//! `reactor.read.partial` / `reactor.write.eagain` failpoints live
//! inside the wrappers, so the torture tests can trickle reads one byte
//! at a time and storm writes with spurious EAGAINs without touching
//! the state machine itself.

use crate::proto::INITIAL_FRAME_CAPACITY;
use oisum_faults::FaultAction;
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Pause frame processing once this many unsent reply bytes queue on
/// one connection (resumes below [`LOW_WATER`]). A peer that stops
/// reading cannot balloon the reactor's memory: its replies stall, so
/// its requests stall.
pub(crate) const HIGH_WATER: usize = 256 << 10;

/// Resume threshold for a connection paused at [`HIGH_WATER`].
pub(crate) const LOW_WATER: usize = 32 << 10;

/// Where a connection is in its frame-decode coroutine.
#[derive(Debug)]
pub(crate) enum ReadState {
    /// Accumulating the 8-byte frame header (magic + payload length)
    /// into an inline buffer — an idle connection needs no heap.
    Header { buf: [u8; 8], filled: usize },
    /// Accumulating `len` payload bytes into the pooled `read_buf`.
    Body { magic: [u8; 4], len: usize, filled: usize },
}

/// What one pump step produced.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Fill {
    /// A complete frame: `read_buf[..len]` holds the payload for
    /// `magic`; the state has been reset for the next header.
    Frame { magic: [u8; 4], len: usize },
    /// The socket has no more bytes right now; wait for the next edge.
    WouldBlock,
    /// Clean EOF at a frame boundary.
    Eof,
    /// EOF mid-frame — the peer vanished; treated as a protocol error.
    TornEof,
}

/// One client connection owned by the reactor.
pub(crate) struct Conn {
    pub stream: TcpStream,
    pub read: ReadState,
    /// Pooled payload buffer; empty (and returnable) between frames.
    pub read_buf: Vec<u8>,
    /// Pooled reply bytes not yet on the wire (`out_pos` already sent).
    pub out: Vec<u8>,
    pub out_pos: usize,
    /// Replies formatted but *not yet licensed*, FIFO by ticket: each
    /// joins `out` only when the WAL commit mark covers its ticket.
    /// Bounded by [`PARKED_LIMIT`](super::PARKED_LIMIT) — a small
    /// window, so the reactor keeps reading a pipelining client's next
    /// frames (and the WAL pump keeps receiving submits) while earlier
    /// tickets await their group's fsync, instead of idling the whole
    /// pipeline one reply per connection per commit wave.
    pub parked: std::collections::VecDeque<(u64, Vec<u8>)>,
    /// Frame processing paused by output backpressure.
    pub paused: bool,
    /// Close once `out` fully drains (protocol error or post-ACK).
    pub close_after_flush: bool,
    /// Initiate server shutdown once `out` fully drains (a `Shutdown`
    /// frame was ACKed on this connection).
    pub stop_after_flush: bool,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            read: ReadState::Header { buf: [0; 8], filled: 0 },
            read_buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            parked: std::collections::VecDeque::new(),
            paused: false,
            close_after_flush: false,
            stop_after_flush: false,
        }
    }

    /// Unsent reply bytes queued on this connection.
    pub(crate) fn backlog(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Advances the decode coroutine until a frame completes or the
    /// socket runs dry. Exact-sized reads by construction: the header
    /// read never asks for more than the header, the body read never
    /// asks past the frame, so no byte of a following pipelined frame
    /// is ever buffered here — `read_buf` is exactly one payload.
    pub(crate) fn fill_frame(&mut self, pool: &mut BufPool) -> io::Result<Fill> {
        loop {
            match &mut self.read {
                ReadState::Header { buf, filled } => {
                    while *filled < 8 {
                        let (dst, at) = (&mut buf[*filled..8], *filled);
                        match read_nb(&mut self.stream, dst)? {
                            None => return Ok(Fill::WouldBlock),
                            Some(0) => {
                                return Ok(if at == 0 { Fill::Eof } else { Fill::TornEof });
                            }
                            Some(n) => *filled += n,
                        }
                    }
                    let (magic, len) = crate::proto::parse_frame_header(buf)?;
                    let len = len as usize;
                    self.read_buf = pool.take(len.min(INITIAL_FRAME_CAPACITY));
                    self.read_buf.resize(len, 0);
                    self.read = ReadState::Body { magic, len, filled: 0 };
                }
                ReadState::Body { magic, len, filled } => {
                    while *filled < *len {
                        match read_nb(&mut self.stream, &mut self.read_buf[*filled..])? {
                            None => return Ok(Fill::WouldBlock),
                            Some(0) => return Ok(Fill::TornEof),
                            Some(n) => *filled += n,
                        }
                    }
                    let (magic, len) = (*magic, *len);
                    self.read = ReadState::Header { buf: [0; 8], filled: 0 };
                    return Ok(Fill::Frame { magic, len });
                }
            }
        }
    }

    /// Returns the drained payload buffer to the pool (call after the
    /// frame in `read_buf` has been parsed and dispatched).
    pub(crate) fn recycle_read_buf(&mut self, pool: &mut BufPool) {
        pool.put(std::mem::take(&mut self.read_buf));
    }

    /// Writes as much queued output as the socket accepts. Returns
    /// `true` when the buffer fully drained (and was returned to the
    /// pool). Compacts lazily: consumed bytes are only memmoved out
    /// when the buffer drains or grows past the high-water mark.
    pub(crate) fn flush_out(&mut self, pool: &mut BufPool) -> io::Result<bool> {
        while self.out_pos < self.out.len() {
            match write_nb(&mut self.stream, &self.out[self.out_pos..])? {
                None => {
                    if self.out_pos > HIGH_WATER {
                        self.out.drain(..self.out_pos);
                        self.out_pos = 0;
                    }
                    return Ok(false);
                }
                Some(n) => self.out_pos += n,
            }
        }
        self.out.clear();
        self.out_pos = 0;
        if self.out.capacity() > 0 {
            pool.put(std::mem::take(&mut self.out));
        }
        Ok(true)
    }
}

/// Nonblocking read: `Ok(None)` would block, `Ok(Some(0))` EOF,
/// `Ok(Some(n))` bytes read. Retries `EINTR` internally. The
/// `reactor.read.partial` failpoint clamps every read to one byte,
/// modelling a peer (or kernel) that trickles frames across many
/// readiness cycles.
pub(crate) fn read_nb(stream: &mut TcpStream, buf: &mut [u8]) -> io::Result<Option<usize>> {
    let cap = if oisum_faults::check("reactor.read.partial").is_some() {
        buf.len().min(1)
    } else {
        buf.len()
    };
    loop {
        match stream.read(&mut buf[..cap]) {
            Ok(n) => return Ok(Some(n)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Nonblocking write: `Ok(None)` would block, `Ok(Some(n))` bytes
/// accepted. Retries `EINTR` internally. The `reactor.write.eagain`
/// failpoint injects spurious `EAGAIN`s (`Disconnect`/`Delay` actions)
/// or clamps the write length (`PartialWrite { keep }`), modelling a
/// stalled peer whose replies dribble out across writability edges.
pub(crate) fn write_nb(stream: &mut TcpStream, buf: &[u8]) -> io::Result<Option<usize>> {
    let cap = match oisum_faults::check("reactor.write.eagain") {
        Some(FaultAction::PartialWrite { keep }) => buf.len().min(keep.max(1)),
        Some(_) => return Ok(None),
        None => buf.len(),
    };
    loop {
        match stream.write(&buf[..cap]) {
            Ok(n) => return Ok(Some(n)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// A tiny free list of byte buffers shared by every connection on one
/// reactor, so 10k mostly idle connections hold no heap: a buffer is
/// taken when a frame starts (or a reply is formatted) and returned the
/// moment it drains. Bounded — beyond `MAX_POOLED` buffers, or above
/// `MAX_POOLED_CAPACITY` bytes each, excess allocations are simply
/// dropped rather than hoarded.
pub(crate) struct BufPool {
    free: Vec<Vec<u8>>,
}

const MAX_POOLED: usize = 64;
const MAX_POOLED_CAPACITY: usize = 4 << 20;

impl BufPool {
    pub(crate) fn new() -> BufPool {
        BufPool { free: Vec::new() }
    }

    /// A cleared buffer with at least `capacity_hint` capacity (best
    /// effort — a smaller pooled buffer still grows on use).
    pub(crate) fn take(&mut self, capacity_hint: usize) -> Vec<u8> {
        match self.free.pop() {
            Some(mut buf) => {
                buf.clear();
                buf.reserve(capacity_hint.saturating_sub(buf.capacity()));
                buf
            }
            None => Vec::with_capacity(capacity_hint),
        }
    }

    /// Returns a buffer to the pool (or drops it when full/oversized).
    pub(crate) fn put(&mut self, buf: Vec<u8>) {
        if buf.capacity() > 0
            && buf.capacity() <= MAX_POOLED_CAPACITY
            && self.free.len() < MAX_POOLED
        {
            let mut buf = buf;
            buf.clear();
            self.free.push(buf);
        }
    }
}
