//! Raw `epoll`/`eventfd`/`prlimit64` syscall shim for the event-driven
//! transport.
//!
//! The tree deliberately has no C-binding dependency, so the five
//! syscalls the reactor needs — `epoll_create1`, `epoll_ctl`,
//! `epoll_wait`, `eventfd2`, `prlimit64` — are issued directly, plus
//! `read`/`write`/`close` on the eventfd itself, through the one
//! raw-syscall wrapper the WAL's mappings use, `segmap::syscall6`. The module is compiled
//! only for `linux`/`x86_64`; every other target gets a stub whose
//! constructors fail with `Unsupported`, which the server surfaces as a
//! clean "transport unavailable" error at startup (the threaded
//! transport remains available everywhere).
//!
//! Everything readiness-related is wrapped here behind safe types:
//! [`Epoll`] owns the interest list and the event buffer, [`EventFd`]
//! is the reactor's condvar-free waker (a thread that learns of a WAL
//! commit writes one counter increment; the parked reactor's
//! `epoll_wait` returns), and [`raise_nofile_limit`] lifts
//! `RLIMIT_NOFILE` toward its hard cap so one process can actually hold
//! the tens of thousands of sockets the reactor exists for.

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod imp {
    use crate::segmap::syscall6;
    use std::io;
    use std::os::unix::io::AsRawFd;

    const SYS_READ: isize = 0;
    const SYS_WRITE: isize = 1;
    const SYS_CLOSE: isize = 3;
    const SYS_EPOLL_WAIT: isize = 232;
    const SYS_EPOLL_CTL: isize = 233;
    const SYS_EVENTFD2: isize = 290;
    const SYS_EPOLL_CREATE1: isize = 291;
    const SYS_PRLIMIT64: isize = 302;

    const EPOLL_CLOEXEC: usize = 0x80000;
    const EPOLL_CTL_ADD: usize = 1;
    const EPOLL_CTL_DEL: usize = 2;

    const EFD_NONBLOCK: usize = 0x800;
    const EFD_CLOEXEC: usize = 0x80000;

    const RLIMIT_NOFILE: usize = 7;

    /// `epoll_event.events` bit: the fd is readable.
    pub const EPOLLIN: u32 = 0x1;
    /// `epoll_event.events` bit: the fd is writable.
    pub const EPOLLOUT: u32 = 0x4;
    /// `epoll_event.events` bit: error condition (always reported).
    pub const EPOLLERR: u32 = 0x8;
    /// `epoll_event.events` bit: hangup (always reported).
    pub const EPOLLHUP: u32 = 0x10;
    /// `epoll_event.events` bit: peer closed its write half.
    pub const EPOLLRDHUP: u32 = 0x2000;
    /// `epoll_event.events` bit: edge-triggered delivery.
    pub const EPOLLET: u32 = 1 << 31;

    /// The kernel's `epoll_event` for x86-64 — packed, by ABI decree
    /// (the one architecture where the struct is not naturally aligned).
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    struct RawEvent {
        events: u32,
        data: u64,
    }

    /// One decoded readiness event: the registration token plus the
    /// condition bits the reactor dispatches on.
    #[derive(Debug, Clone, Copy)]
    pub struct Event {
        /// The `token` passed to [`Epoll::add`].
        pub token: u64,
        /// Readable (or: accept will not block, eventfd was signaled).
        pub readable: bool,
        /// Writable edge after a prior `EAGAIN`.
        pub writable: bool,
        /// Error or hangup: the connection is over; reap it.
        pub closed: bool,
    }

    /// An owned epoll instance plus its event buffer.
    pub struct Epoll {
        fd: i32,
        raw: Vec<RawEvent>,
        out: Vec<Event>,
    }

    impl Epoll {
        /// A fresh epoll instance with room for `capacity` events per
        /// [`wait`](Epoll::wait).
        pub fn new(capacity: usize) -> io::Result<Epoll> {
            // SAFETY: epoll_create1(CLOEXEC) takes no pointers; the
            // kernel validates the flag.
            let fd = unsafe { syscall6(SYS_EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0)? } as i32;
            Ok(Epoll {
                fd,
                raw: vec![RawEvent { events: 0, data: 0 }; capacity.max(1)],
                out: Vec::with_capacity(capacity.max(1)),
            })
        }

        /// Registers `fd` for edge-triggered readiness with `token` as
        /// its identity in delivered events. Every registration asks for
        /// read + write + peer-hangup: with edge triggering the kernel
        /// only reports *transitions*, so the wide interest set costs
        /// nothing while the socket idles — which is the whole point of
        /// holding tens of thousands of them.
        pub fn add(&self, fd: &impl AsRawFd, token: u64) -> io::Result<()> {
            self.add_with(fd.as_raw_fd(), token, EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET)
        }

        /// Registers `fd` for read-side edges only — the eventfd waker's
        /// mode (an eventfd below its saturation point is *always*
        /// writable, so subscribing to `EPOLLOUT` there would deliver a
        /// useless writable edge at registration).
        pub fn add_readable(&self, fd: i32, token: u64) -> io::Result<()> {
            self.add_with(fd, token, EPOLLIN | EPOLLET)
        }

        fn add_with(&self, fd: i32, token: u64, events: u32) -> io::Result<()> {
            let ev = RawEvent { events, data: token };
            // SAFETY: EPOLL_CTL_ADD with a pointer to a live, properly
            // laid out (repr(C, packed)) epoll_event on our stack; the
            // kernel copies it before returning.
            unsafe {
                syscall6(
                    SYS_EPOLL_CTL,
                    self.fd as usize,
                    EPOLL_CTL_ADD,
                    fd as usize,
                    core::ptr::addr_of!(ev) as usize,
                    0,
                    0,
                )?;
            }
            Ok(())
        }

        /// Removes `fd` from the interest list. Dropping the last
        /// duplicate of an fd removes it implicitly; this exists for
        /// deterministic cleanup before close.
        pub fn delete(&self, fd: &impl AsRawFd) -> io::Result<()> {
            // SAFETY: EPOLL_CTL_DEL ignores the event pointer on every
            // kernel this targets (>= 2.6.9); null is the documented
            // value to pass.
            unsafe {
                syscall6(
                    SYS_EPOLL_CTL,
                    self.fd as usize,
                    EPOLL_CTL_DEL,
                    fd.as_raw_fd() as usize,
                    0,
                    0,
                    0,
                )?;
            }
            Ok(())
        }

        /// Blocks until at least one registered fd has a readiness
        /// transition (or `timeout_ms` elapses; `-1` waits forever) and
        /// returns the decoded events. `EINTR` retries internally.
        pub fn wait(&mut self, timeout_ms: i32) -> io::Result<&[Event]> {
            let n = loop {
                // SAFETY: a pointer to `self.raw`'s live allocation and
                // its exact capacity; the kernel writes at most that
                // many epoll_events and never retains the pointer.
                let r = unsafe {
                    syscall6(
                        SYS_EPOLL_WAIT,
                        self.fd as usize,
                        self.raw.as_mut_ptr() as usize,
                        self.raw.len(),
                        timeout_ms as usize,
                        0,
                        0,
                    )
                };
                match r {
                    Ok(n) => break n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            self.out.clear();
            for ev in &self.raw[..n] {
                let bits = ev.events;
                self.out.push(Event {
                    token: ev.data,
                    readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    closed: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(&self.out)
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: closing the fd this struct exclusively owns.
            let _ = unsafe { syscall6(SYS_CLOSE, self.fd as usize, 0, 0, 0, 0, 0) };
        }
    }

    /// A nonblocking eventfd: the reactor's waker. `signal` from any
    /// thread makes the reactor's `epoll_wait` return; `drain` resets
    /// the counter. Both are single syscalls on an 8-byte counter — no
    /// mutex, no condvar, and signaling an already-signaled waker is a
    /// cheap no-op (the counter just increments).
    pub struct EventFd {
        fd: i32,
    }

    // SAFETY: the wrapped value is an fd number; read/write on an
    // eventfd are atomic counter ops the kernel serializes, so sharing
    // across threads (pump signals, reactor drains) is sound.
    unsafe impl Send for EventFd {}
    // SAFETY: as above — `&EventFd` only exposes those atomic fd ops.
    unsafe impl Sync for EventFd {}

    impl EventFd {
        /// A fresh nonblocking, close-on-exec eventfd with counter 0.
        pub fn new() -> io::Result<EventFd> {
            // SAFETY: eventfd2(initval = 0, flags) takes no pointers.
            let fd =
                unsafe { syscall6(SYS_EVENTFD2, 0, EFD_NONBLOCK | EFD_CLOEXEC, 0, 0, 0, 0)? }
                    as i32;
            Ok(EventFd { fd })
        }

        /// Registers this waker on `epoll` under `token` (read edges
        /// only — see [`Epoll::add_readable`]).
        pub fn register(&self, epoll: &Epoll, token: u64) -> io::Result<()> {
            epoll.add_readable(self.fd, token)
        }

        /// Increments the counter, waking a parked `epoll_wait`. An
        /// `EAGAIN` (counter saturated at `u64::MAX - 1`) still leaves
        /// the fd readable, so the wake is never lost; any other error
        /// is surfaced.
        pub fn signal(&self) -> io::Result<()> {
            let one: u64 = 1;
            // SAFETY: write(fd, &one, 8) from a live stack buffer of
            // exactly 8 bytes, the eventfd transfer size.
            match unsafe {
                syscall6(
                    SYS_WRITE,
                    self.fd as usize,
                    core::ptr::addr_of!(one) as usize,
                    8,
                    0,
                    0,
                    0,
                )
            } {
                Ok(_) => Ok(()),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
                Err(e) => Err(e),
            }
        }

        /// Resets the counter (called by the reactor after waking).
        /// `EAGAIN` — someone drained it first — is fine.
        pub fn drain(&self) -> io::Result<()> {
            let mut count: u64 = 0;
            // SAFETY: read(fd, &mut count, 8) into a live stack buffer
            // of exactly 8 bytes, the eventfd transfer size.
            match unsafe {
                syscall6(
                    SYS_READ,
                    self.fd as usize,
                    core::ptr::addr_of_mut!(count) as usize,
                    8,
                    0,
                    0,
                    0,
                )
            } {
                Ok(_) => Ok(()),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
                Err(e) => Err(e),
            }
        }
    }

    impl Drop for EventFd {
        fn drop(&mut self) {
            // SAFETY: closing the fd this struct exclusively owns.
            let _ = unsafe { syscall6(SYS_CLOSE, self.fd as usize, 0, 0, 0, 0, 0) };
        }
    }

    /// Raises the soft `RLIMIT_NOFILE` toward `min(target, hard cap)`
    /// and returns the resulting `(soft, hard)` pair. Never lowers the
    /// soft limit. Callers that need N descriptors check the returned
    /// soft value and degrade (or skip their gate) when the container's
    /// hard cap is below what they asked for.
    pub fn raise_nofile_limit(target: u64) -> io::Result<(u64, u64)> {
        #[repr(C)]
        #[derive(Clone, Copy)]
        struct RLimit64 {
            cur: u64,
            max: u64,
        }
        let mut old = RLimit64 { cur: 0, max: 0 };
        // SAFETY: prlimit64(pid = 0 (self), RLIMIT_NOFILE, new = null,
        // old = &mut old) — a pure read of our own limit into a live
        // stack struct with the kernel's exact layout.
        unsafe {
            syscall6(
                SYS_PRLIMIT64,
                0,
                RLIMIT_NOFILE,
                0,
                core::ptr::addr_of_mut!(old) as usize,
                0,
                0,
            )?;
        }
        let want = target.clamp(old.cur, old.max);
        if want > old.cur {
            let new = RLimit64 { cur: want, max: old.max };
            // SAFETY: prlimit64(self, RLIMIT_NOFILE, &new, null) with a
            // live, correctly laid out struct; raising only the soft
            // limit toward the hard cap needs no privilege.
            unsafe {
                syscall6(
                    SYS_PRLIMIT64,
                    0,
                    RLIMIT_NOFILE,
                    core::ptr::addr_of!(new) as usize,
                    0,
                    0,
                    0,
                )?;
            }
            return Ok((want, old.max));
        }
        Ok((old.cur, old.max))
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod imp {
    use std::io;

    fn unsupported() -> io::Error {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "the epoll transport is only implemented for linux/x86_64; use --transport threads",
        )
    }

    /// Stub event for targets without epoll; never constructed.
    #[derive(Debug, Clone, Copy)]
    pub struct Event {
        /// See the linux implementation.
        pub token: u64,
        /// See the linux implementation.
        pub readable: bool,
        /// See the linux implementation.
        pub writable: bool,
        /// See the linux implementation.
        pub closed: bool,
    }

    /// Stub: `new` always fails, routing callers to the threaded
    /// transport.
    pub struct Epoll {
        never: core::convert::Infallible,
    }

    impl Epoll {
        pub fn new(_capacity: usize) -> io::Result<Epoll> {
            Err(unsupported())
        }

        pub fn add<T>(&self, _fd: &T, _token: u64) -> io::Result<()> {
            match self.never {}
        }

        pub fn delete<T>(&self, _fd: &T) -> io::Result<()> {
            match self.never {}
        }

        pub fn wait(&mut self, _timeout_ms: i32) -> io::Result<&[Event]> {
            match self.never {}
        }
    }

    /// Stub: `new` always fails, like [`Epoll::new`].
    pub struct EventFd {
        never: core::convert::Infallible,
    }

    impl EventFd {
        pub fn new() -> io::Result<EventFd> {
            Err(unsupported())
        }

        pub fn register(&self, _epoll: &Epoll, _token: u64) -> io::Result<()> {
            match self.never {}
        }

        pub fn signal(&self) -> io::Result<()> {
            match self.never {}
        }

        pub fn drain(&self) -> io::Result<()> {
            match self.never {}
        }
    }

    /// Stub: reports failure so callers skip their fd-hungry gates.
    pub fn raise_nofile_limit(_target: u64) -> io::Result<(u64, u64)> {
        Err(unsupported())
    }
}

pub use imp::{raise_nofile_limit, Epoll, Event, EventFd};

#[cfg(test)]
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod tests {
    use super::{Epoll, EventFd};
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn eventfd_wakes_epoll_and_drains() {
        let mut ep = Epoll::new(8).unwrap();
        let efd = EventFd::new().unwrap();
        efd.register(&ep, 42).unwrap();
        // Nothing signaled: a zero-timeout wait returns empty.
        assert!(ep.wait(0).unwrap().is_empty());
        efd.signal().unwrap();
        efd.signal().unwrap(); // coalesces into the same readable edge
        let events = ep.wait(1000).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 42);
        assert!(events[0].readable);
        efd.drain().unwrap();
        assert!(ep.wait(0).unwrap().is_empty());
        // Drained: the next signal produces a fresh edge.
        efd.signal().unwrap();
        assert_eq!(ep.wait(1000).unwrap().len(), 1);
    }

    #[test]
    fn socket_readiness_is_edge_triggered_with_tokens() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let mut ep = Epoll::new(8).unwrap();
        ep.add(&server, 7).unwrap();
        // Registration reports the initial writable edge.
        let first = ep.wait(1000).unwrap();
        assert!(first.iter().any(|e| e.token == 7 && e.writable));
        client.write_all(b"ping").unwrap();
        let events = ep.wait(1000).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        // Edge-triggered: the data is still unread but no new event
        // arrives without a new transition.
        assert!(ep.wait(0).unwrap().is_empty());
        let mut server = server;
        let mut buf = [0u8; 16];
        let n = server.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");
        // Peer close surfaces as a readable (RDHUP) transition.
        drop(client);
        let events = ep.wait(1000).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        ep.delete(&server).unwrap();
    }

    #[test]
    fn nofile_limit_raise_reports_a_consistent_pair() {
        let (soft, hard) = super::raise_nofile_limit(0).unwrap();
        assert!(soft <= hard);
        // Asking again for what we already have is a no-op.
        let (soft2, hard2) = super::raise_nofile_limit(soft).unwrap();
        assert_eq!((soft, hard), (soft2, hard2));
        // Asking for more than the hard cap clamps to it.
        let (soft3, hard3) = super::raise_nofile_limit(u64::MAX).unwrap();
        assert_eq!(soft3, hard3);
        assert_eq!(hard3, hard);
    }
}
