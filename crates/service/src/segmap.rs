//! File-backed shared memory mapping for WAL segments.
//!
//! The WAL's crash-durability contract for an un-fsynced record is
//! "survives a process kill": the bytes must be in the kernel's page
//! cache — not merely in user memory — before the ACK goes out. A
//! `write(2)` per group gets them there, but costs ~2 µs per 4 KB on
//! the append hot path, almost all of it page-cache bookkeeping the
//! kernel repeats for every call. A `MAP_SHARED` mapping moves that
//! bookkeeping off the append: a segment is mapped at its full length
//! once, and its file is reserved and pre-faulted one [`STEP`] (2 MiB)
//! at a time as it fills — `fallocate` the step's blocks, then
//! `madvise(MADV_POPULATE_WRITE)` its pages — so each append is a plain
//! `memcpy` into memory the kernel already owns. The store is in the
//! page cache the instant it retires, with no syscall on the path.
//! `fsync(2)` on the file descriptor still flushes pages dirtied
//! through the mapping, so the `group` policy keeps its power-loss
//! guarantee unchanged.
//!
//! The writer never looks back, so when a step is prepared every step
//! wholly below the one holding the append offset is released with
//! `madvise(MADV_DONTNEED)`. On a shared file mapping that drops only
//! this process's page-table entries: the pages stay in the page cache
//! with their dirty state, the file keeps every byte, and `fsync` still
//! flushes them. A segment of any length therefore keeps at most two
//! steps resident, and the `munmap` at seal time zaps at most two
//! steps' pages.
//!
//! Only the prepared prefix is ever handed out
//! ([`SegmentMap::bytes_mut`]), so safe code cannot touch a page past
//! the reserved end of the file, which the kernel would answer with
//! SIGBUS. Each step's `fallocate` runs before any of its pages is
//! touched, so a full disk (ENOSPC, EDQUOT) is an `Err` from
//! [`SegmentMap::create`] or [`SegmentMap::reserve`], at creation or at
//! any later step, never a signal; the WAL poisons the log on it.
//! Kernels before 5.14 refuse the populate advice (EINVAL), and there a
//! step is pre-faulted by zero-filling its new bytes instead.
//!
//! The tree deliberately has no C-binding dependency, so the four
//! syscalls this needs (`mmap`, `munmap`, `fallocate`, `madvise`) are
//! issued directly; the module is therefore compiled only for
//! `linux`/`x86_64`. Where the mapping cannot be had — every other
//! target, a refused `mmap` (an odd filesystem, an enormous requested
//! length), a filesystem without `fallocate` (EOPNOTSUPP) — the WAL
//! falls back to its buffered `write(2)` path, which is slower but
//! semantically identical. The `wal-durability` lint pins the only
//! advice (`MADV_POPULATE_WRITE`, `MADV_DONTNEED`) and `fallocate` mode
//! (0) these calls may pass: `MADV_REMOVE` or a punching mode would
//! free a shared file's pages, ACKed records included.
//!
//! Recovery reads segments through the same syscalls: [`SegmentFile`]
//! maps a whole segment read-only and private (`mmap` + `munmap`), so
//! the walk reads records out of the page cache with no copy into the
//! heap. As the walk's cursor passes each window, it releases the pages
//! behind it ([`Framed::release`]); a private mapping that is never
//! written holds only the file's page-cache pages, so a later touch
//! reads the same bytes back. The walk keeps an owned summary of each
//! record, and the segment is dropped as soon as it has verified, so no
//! segment outlives its own walk. A segment a crash left unsealed ends
//! in the zero tail of its last prepared step, less than one step of it;
//! [`Framed::zero_from`] checks that tail with `pread` into a small
//! buffer rather than through the mapping, so its pages are never
//! faulted into this process. No segment keeps a file descriptor once
//! it is mapped or read (a mapping holds its own reference to the
//! file), so a log may have more segments than the process may keep
//! files open. A mapping holds no lock on the file: if another process
//! truncated a segment while recovery had it mapped, touching the lost
//! pages would raise SIGBUS. Nothing in this tree writes a segment
//! before recovery ends, so that takes an outside hand. A segment under
//! 64 KiB, and any segment where the mapping cannot be had (other
//! targets, a failed `mmap`), is read into memory whole instead, with
//! the same bytes and verdicts.

/// How much of a mapped segment's file is reserved and pre-faulted at
/// a time. A start or a rotation prepares one step, not the whole
/// segment, and the append that first crosses a step's end prepares the
/// next before it writes.
pub(crate) const STEP: usize = 2 << 20;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod imp {
    use super::STEP;
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    const SYS_MMAP: isize = 9;
    const SYS_MUNMAP: isize = 11;
    const SYS_MADVISE: isize = 28;
    const SYS_FALLOCATE: isize = 285;
    const PROT_READ: usize = 0x1;
    const PROT_WRITE: usize = 0x2;
    const MAP_SHARED: usize = 0x1;
    const MAP_PRIVATE: usize = 0x2;
    /// Write-fault every page of a range now (Linux 5.14 and later).
    const MADV_POPULATE_WRITE: usize = 23;
    /// Drop this process's pages of a range. A file mapping's pages stay
    /// in the page cache, so nothing the file holds is lost.
    const MADV_DONTNEED: usize = 4;
    const EINVAL: i32 = 22;
    const EOPNOTSUPP: i32 = 95;

    /// Issues a raw 6-argument syscall and folds the kernel's negative
    /// errno convention into `io::Error`. The tree's one raw-syscall
    /// wrapper: the epoll shim (`reactor::sys`) issues its syscalls
    /// through it too.
    ///
    /// # Safety
    ///
    /// The caller must pass arguments valid for `nr` per the Linux
    /// x86-64 syscall ABI; the kernel interprets them without any
    /// further checking on our side.
    // SAFETY: declared unsafe — soundness is the caller's `# Safety`
    // obligation above.
    pub(crate) unsafe fn syscall6(
        nr: isize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> io::Result<usize> {
        let ret: isize;
        // SAFETY: the x86-64 Linux syscall ABI — args in rdi/rsi/rdx/
        // r10/r8/r9, number and result in rax, rcx/r11 clobbered;
        // `nostack` holds (the instruction touches no user stack).
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") nr => ret,
                in("rdi") a1,
                in("rsi") a2,
                in("rdx") a3,
                in("r10") a4,
                in("r8") a5,
                in("r9") a6,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        if (-4095..0).contains(&ret) {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret as usize)
        }
    }

    /// An exclusive, file-backed writable mapping of one WAL segment,
    /// mapped at its full length once and made usable one [`STEP`] at a
    /// time.
    pub struct SegmentMap {
        ptr: *mut u8,
        len: usize,
        /// The prefix whose blocks are reserved in the file and whose
        /// pages were faulted in: a multiple of [`STEP`], or `len`. Only
        /// this prefix is ever handed out.
        ready: usize,
        /// The prefix whose pages were released from this process: a
        /// multiple of [`STEP`], at most `ready`.
        released: usize,
    }

    // The WAL keeps the owning `ActiveSegment` behind a `Mutex`, so no
    // two threads ever touch the pages concurrently.
    // SAFETY: the mapping is exclusively owned (`bytes_mut` requires
    // `&mut self`) and refers to process-global mapped memory, which
    // is valid from any thread.
    unsafe impl Send for SegmentMap {}

    impl SegmentMap {
        /// Maps `len` bytes of `file` shared, then reserves and
        /// pre-faults the first step. The bytes `file` already holds (a
        /// segment's header) are kept. `Ok(None)` means the mapping
        /// cannot be had here — `mmap` refused it, or the filesystem has
        /// no `fallocate` — and the caller writes through the file
        /// instead; any other failure to reserve the step is an `Err`.
        pub fn create(file: &File, len: usize) -> io::Result<Option<SegmentMap>> {
            if len == 0 || len > isize::MAX as usize {
                return Ok(None);
            }
            let held = usize::try_from(file.metadata()?.len()).unwrap_or(usize::MAX);
            let fd = file.as_raw_fd() as usize;
            let prot = PROT_READ | PROT_WRITE;
            // SAFETY: a fresh shared mapping of `len` bytes of a file we hold
            // open, placed by the kernel; no page past the file's end is
            // touched before a step reserves it.
            let Ok(ptr) = (unsafe { syscall6(SYS_MMAP, 0, len, prot, MAP_SHARED, fd, 0) }) else {
                return Ok(None);
            };
            let mut map = SegmentMap { ptr: ptr as *mut u8, len, ready: 0, released: 0 };
            match map.step(file, held, 0) {
                Ok(()) => Ok(Some(map)),
                Err(e) if e.raw_os_error() == Some(EOPNOTSUPP) => Ok(None),
                Err(e) => Err(e),
            }
        }

        /// Reserves and pre-faults whole steps until the prepared prefix
        /// holds `end` bytes, or the whole mapping if that is shorter. A
        /// no-op when it already does. `at` is the append offset: each
        /// step prepared here first releases every step wholly below the
        /// one holding it.
        pub fn reserve(&mut self, file: &File, at: usize, end: usize) -> io::Result<()> {
            while self.ready < end.min(self.len) {
                self.step(file, 0, at)?;
            }
            Ok(())
        }

        /// Releases every step wholly below the one holding `at`, then
        /// reserves the next step's blocks, which extends `file` to the
        /// step's end, and write-faults the step's pages. The zero-fill
        /// fallback keeps the first `held` bytes of the file.
        fn step(&mut self, file: &File, held: usize, at: usize) -> io::Result<()> {
            if oisum_faults::check("wal.segment.reserve").is_some() {
                return Err(io::Error::other("injected segment step reservation failure"));
            }
            let below = (at - at % STEP).min(self.ready);
            if below > self.released {
                let start = self.ptr as usize + self.released;
                // On a shared file mapping MADV_DONTNEED only drops this
                // process's page-table entries: each page, dirty state
                // included, stays in the page cache, so the file keeps every
                // byte written here and fsync still flushes them, and a later
                // touch faults the same page back. A failed release only
                // leaves the pages resident.
                // SAFETY: advice over [released, below) of our live mapping,
                // page-aligned (both are multiples of STEP), which by the
                // above frees no byte of the file.
                let _ = unsafe {
                    syscall6(SYS_MADVISE, start, below - self.released, MADV_DONTNEED, 0, 0, 0)
                };
                self.released = below;
            }
            let (from, to) = (self.ready, (self.ready + STEP).min(self.len));
            let fd = file.as_raw_fd() as usize;
            // SAFETY: fallocate(fd, mode = 0, offset, len) on a file
            // descriptor we hold; mode 0 allocates blocks and extends
            // the file size, and the kernel validates the rest.
            unsafe { syscall6(SYS_FALLOCATE, fd, 0, from, to - from, 0, 0)? };
            let (start, len) = (self.ptr as usize + from, to - from);
            // SAFETY: advice over [from, to) of our live mapping, page-aligned
            // (`from` is a multiple of STEP); the range now lies inside the
            // file, so faulting it in cannot raise SIGBUS.
            let populated = unsafe { syscall6(SYS_MADVISE, start, len, MADV_POPULATE_WRITE, 0, 0, 0) };
            match populated {
                Ok(_) => self.ready = to,
                // A kernel before 5.14 does not know the advice: dirty the
                // new pages by hand. They read as zero (just reserved), so
                // only the fault is new.
                Err(e) if e.raw_os_error() == Some(EINVAL) => {
                    self.ready = to;
                    self.bytes_mut()[from.max(held.min(to))..].fill(0);
                }
                Err(e) => return Err(e),
            }
            Ok(())
        }

        /// The prepared prefix of the mapping: every byte of it is
        /// reserved in the file. A released step's pages fault back in
        /// from the page cache if touched.
        pub fn bytes_mut(&mut self) -> &mut [u8] {
            // SAFETY: `ptr` maps `len >= ready` bytes until `Drop`, the first
            // `ready` backed by the file; `&mut self` guarantees exclusivity
            // for the returned lifetime.
            unsafe { core::slice::from_raw_parts_mut(self.ptr, self.ready) }
        }

        /// Mapping length in bytes: how long the segment may grow.
        pub fn len(&self) -> usize {
            self.len
        }
    }

    impl Drop for SegmentMap {
        fn drop(&mut self) {
            // SAFETY: unmapping the exact region this struct mapped and
            // uniquely owns; dirty pages stay in the page cache after
            // munmap, so no durability is lost here.
            let _ = unsafe { syscall6(SYS_MUNMAP, self.ptr as usize, self.len, 0, 0, 0, 0) };
        }
    }

    /// A read-only, private mapping of a whole file, for recovery.
    pub struct ReadMap {
        ptr: *const u8,
        len: usize,
    }

    // SAFETY: the mapping is never written through (PROT_READ) and is
    // process-global memory, so the owner may move to another thread.
    unsafe impl Send for ReadMap {}
    // SAFETY: as for `Send`: only `&[u8]` views are ever handed out, and
    // nothing writes the pages, so threads may share them.
    unsafe impl Sync for ReadMap {}

    impl ReadMap {
        /// Maps the first `len` bytes of `file` (its whole length)
        /// read-only. No page is touched here: each faults in when the
        /// walk first reads it.
        pub fn open(file: &File, len: usize) -> io::Result<ReadMap> {
            if len == 0 || len > isize::MAX as usize {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "bad mapping length",
                ));
            }
            let fd = file.as_raw_fd() as usize;
            // SAFETY: a fresh private read-only mapping of a `len`-byte
            // file; addr = 0 lets the kernel choose placement, and the
            // mapping keeps its own reference to the file.
            let ptr = unsafe { syscall6(SYS_MMAP, 0, len, PROT_READ, MAP_PRIVATE, fd, 0)? };
            Ok(ReadMap {
                ptr: ptr as *const u8,
                len,
            })
        }

        /// The whole mapping as bytes.
        pub fn bytes(&self) -> &[u8] {
            // SAFETY: `ptr` is a live mapping of exactly `len` readable
            // bytes, held until `Drop`, and nothing writes through it.
            unsafe { core::slice::from_raw_parts(self.ptr, self.len) }
        }

        /// Drops this process's pages of `[from, to)`, offsets into the
        /// mapping with `from` a multiple of the page size and `to` at
        /// most its length. The bytes stay readable: the next read of a
        /// released page faults it back in from the page cache.
        pub fn release(&self, from: usize, to: usize) {
            // The mapping is private and read-only (PROT_READ) and nothing
            // writes through it, so no page of it was ever copied on write:
            // every resident page is the file's own page-cache page, and
            // MADV_DONTNEED only drops this process's reference to it. The
            // mapping stays valid, and a later read faults in the same page
            // from the page cache. A failed release only leaves the pages
            // resident.
            // SAFETY: advice over [from, to) of our live mapping (`to <= len`),
            // from a page boundary; by the above, `bytes()` keeps returning
            // the file's bytes after it.
            let _ = unsafe {
                syscall6(SYS_MADVISE, self.ptr as usize + from, to - from, MADV_DONTNEED, 0, 0, 0)
            };
        }

        /// Whether every byte of `file` (the mapped one) from `offset`
        /// to the mapping's end is zero, read with `pread` into a
        /// buffer of at most 64 KiB so the pages are never faulted into
        /// the mapping.
        pub fn zero_from(&self, file: &File, offset: usize) -> io::Result<bool> {
            use std::os::unix::fs::FileExt;
            let mut chunk = vec![0u8; (64 << 10).min(self.len - offset)];
            let mut at = offset;
            while at < self.len {
                let want = chunk.len().min(self.len - at);
                match file.read_at(&mut chunk[..want], at as u64) {
                    Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                    Ok(n) if chunk[..n].iter().any(|&b| b != 0) => return Ok(false),
                    Ok(n) => at += n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            Ok(true)
        }
    }

    impl Drop for ReadMap {
        fn drop(&mut self) {
            // SAFETY: unmapping the exact region this struct mapped and
            // uniquely owns; every `bytes()` borrow has ended.
            let _ = unsafe { syscall6(SYS_MUNMAP, self.ptr as usize, self.len, 0, 0, 0, 0) };
        }
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod imp {
    use std::fs::File;
    use std::io;

    /// Stub for targets without the raw-syscall mapping: `create`
    /// always returns `None`, which routes the WAL onto its buffered
    /// `write(2)` path — same bytes, same guarantees, more syscalls.
    pub struct SegmentMap {
        never: core::convert::Infallible,
    }

    impl SegmentMap {
        pub fn create(_file: &File, _len: usize) -> io::Result<Option<SegmentMap>> {
            Ok(None)
        }

        pub fn reserve(&mut self, _file: &File, _at: usize, _end: usize) -> io::Result<()> {
            match self.never {}
        }

        pub fn bytes_mut(&mut self) -> &mut [u8] {
            match self.never {}
        }

        pub fn len(&self) -> usize {
            match self.never {}
        }
    }

    /// Stub: `open` always fails, which routes recovery onto buffered
    /// reads.
    pub struct ReadMap {
        never: core::convert::Infallible,
    }

    impl ReadMap {
        pub fn open(_file: &File, _len: usize) -> io::Result<ReadMap> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "segment mapping is only implemented for linux/x86_64",
            ))
        }

        pub fn bytes(&self) -> &[u8] {
            match self.never {}
        }

        pub fn zero_from(&self, _file: &File, _offset: usize) -> io::Result<bool> {
            match self.never {}
        }

        pub fn release(&self, _from: usize, _to: usize) {
            match self.never {}
        }
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub(crate) use imp::syscall6;
pub(crate) use imp::SegmentMap;

use crate::recovery::Framed;
use imp::ReadMap;
use std::fs::File;
use std::io::{self, Read};
use std::path::{Path, PathBuf};

/// Segments shorter than this are read, not mapped, which spares the
/// corruption suites' thousands of tiny logs a mapping each. Reading is
/// faster up to about 1 MiB (a mapped 32-512 KiB segment recovered
/// 3-15% slower on 2 vCPUs). The floor was set low when every segment
/// was held until the apply ended, so heap copies grew with the log;
/// that no longer holds, since each segment's bytes are dropped once it
/// has verified. The floor is kept, not re-measured: a read segment is
/// resident whole while it is walked, and a mapped one only a window at
/// a time, so the floor also caps what a read segment holds.
const MAP_MIN_LEN: usize = 64 << 10;

/// One segment's bytes for recovery: mapped read-only where that works,
/// read into memory otherwise. It holds no file descriptor: a log may
/// have more segments than the process may keep open, and a mapping
/// keeps its own reference to the file. Recovery drops it as soon as
/// the segment has verified.
pub(crate) struct SegmentFile {
    path: PathBuf,
    bytes: Bytes,
}

enum Bytes {
    Mapped(ReadMap),
    Read(Vec<u8>),
}

impl SegmentFile {
    /// Opens and maps (or reads) the segment at `path`.
    pub(crate) fn open(path: &Path) -> io::Result<SegmentFile> {
        let mut file = File::open(path)?;
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "segment too large to map"))?;
        let map = if len >= MAP_MIN_LEN {
            ReadMap::open(&file, len).ok()
        } else {
            None
        };
        let bytes = match map {
            Some(map) => Bytes::Mapped(map),
            None => {
                let mut buf = Vec::with_capacity(len);
                file.read_to_end(&mut buf)?;
                Bytes::Read(buf)
            }
        };
        Ok(SegmentFile {
            path: path.to_owned(),
            bytes,
        })
    }

}

impl Framed for SegmentFile {
    fn bytes(&self) -> &[u8] {
        match &self.bytes {
            Bytes::Mapped(map) => map.bytes(),
            Bytes::Read(buf) => buf,
        }
    }

    /// A mapped segment reopens its file and answers through `pread`, so
    /// the zero tail never becomes resident in this process.
    fn zero_from(&self, offset: usize) -> io::Result<bool> {
        match &self.bytes {
            Bytes::Mapped(map) => map.zero_from(&File::open(&self.path)?, offset),
            Bytes::Read(buf) => buf.zero_from(offset),
        }
    }

    /// A mapped segment drops the range's pages; a read one keeps its
    /// buffer until it is dropped.
    fn release(&self, from: usize, to: usize) {
        if let Bytes::Mapped(map) = &self.bytes {
            map.release(from, to);
        }
    }
}

#[cfg(test)]
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod tests {
    use super::{Bytes, Framed, ReadMap, SegmentFile, SegmentMap, STEP};

    #[test]
    fn segment_files_map_read_only_and_find_their_zero_tail() {
        let mut path = std::env::temp_dir();
        path.push(format!("oisum-segfile-unit-{}", std::process::id()));
        // Data, a zero tail over several 64 KiB pread chunks, and one
        // stray byte near the end.
        let mut bytes = vec![0u8; 300_000];
        bytes[..5].copy_from_slice(b"head!");
        std::fs::write(&path, &bytes).unwrap();
        let file = SegmentFile::open(&path).unwrap();
        assert!(matches!(file.bytes, Bytes::Mapped(_)));
        assert_eq!(file.bytes(), &bytes[..]);
        assert!(!file.zero_from(4).unwrap());
        assert!(file.zero_from(5).unwrap());
        assert!(file.zero_from(bytes.len() - 1).unwrap());
        drop(file);
        bytes[299_000] = 1;
        std::fs::write(&path, &bytes).unwrap();
        let file = SegmentFile::open(&path).unwrap();
        assert!(!file.zero_from(5).unwrap());
        assert!(file.zero_from(299_001).unwrap());
        // A small file is read, and so is an empty one.
        std::fs::write(&path, &bytes[..4096]).unwrap();
        let file = SegmentFile::open(&path).unwrap();
        assert!(matches!(file.bytes, Bytes::Read(_)));
        assert_eq!(file.bytes(), &bytes[..4096]);
        assert!(file.zero_from(5).unwrap());
        std::fs::write(&path, b"").unwrap();
        let file = SegmentFile::open(&path).unwrap();
        assert!(matches!(file.bytes, Bytes::Read(_)));
        assert!(file.bytes().is_empty());
        let _ = std::fs::remove_file(&path);
    }

    fn scratch_file(name: &str) -> (std::path::PathBuf, std::fs::File) {
        let mut path = std::env::temp_dir();
        path.push(format!("oisum-segmap-unit-{}-{name}", std::process::id()));
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .unwrap();
        (path, file)
    }

    #[test]
    fn mapped_writes_are_visible_through_the_file() {
        use std::io::Write;
        let (path, mut file) = scratch_file("visible");
        // A prefix written through the file survives the mapping.
        file.write_all(b"head").unwrap();
        let mut map = SegmentMap::create(&file, 3 * 4096 + 17).unwrap().unwrap();
        assert_eq!(map.len(), 3 * 4096 + 17);
        assert_eq!(map.bytes_mut().len(), 3 * 4096 + 17, "one step covers a short mapping");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 3 * 4096 + 17);
        assert_eq!(&map.bytes_mut()[..4], b"head");
        let tail = map.len() - 4;
        map.bytes_mut()[tail..].copy_from_slice(b"tail");
        drop(map);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[..4], b"head");
        assert_eq!(&bytes[bytes.len() - 4..], b"tail");
        assert!(bytes[4..bytes.len() - 4].iter().all(|&b| b == 0));
        // Truncation after unmap trims the tail cleanly.
        file.set_len(4).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"head");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn the_file_and_the_usable_prefix_grow_one_step_at_a_time() {
        let (path, file) = scratch_file("steps");
        let len = 2 * STEP + 100;
        let file_len = || std::fs::metadata(&path).unwrap().len() as usize;
        let mut map = SegmentMap::create(&file, len).unwrap().unwrap();
        assert_eq!((map.bytes_mut().len(), file_len()), (STEP, STEP));
        // Already prepared: nothing moves.
        map.reserve(&file, 0, STEP).unwrap();
        assert_eq!((map.bytes_mut().len(), file_len()), (STEP, STEP));
        map.reserve(&file, 0, STEP + 1).unwrap();
        assert_eq!((map.bytes_mut().len(), file_len()), (2 * STEP, 2 * STEP));
        // The last step is the mapping's remainder, and a reservation
        // past the mapping stops at its end.
        map.reserve(&file, STEP, usize::MAX).unwrap();
        assert_eq!((map.bytes_mut().len(), file_len()), (len, len));
        map.bytes_mut()[len - 1] = 7;
        map.bytes_mut()[STEP] = 9;
        drop(map);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!((bytes[STEP], bytes[len - 1]), (9, 7));
        let _ = std::fs::remove_file(&path);
    }

    /// This process's resident bytes of the mapping holding `addr`,
    /// from `/proc/self/smaps`.
    fn mapping_rss(addr: *const u8) -> usize {
        let smaps = std::fs::read_to_string("/proc/self/smaps").unwrap();
        let addr = addr as usize;
        let mut lines = smaps.lines().skip_while(|line| {
            let range = line.split(' ').next().unwrap_or("");
            let mut ends = range.split('-').map(|x| usize::from_str_radix(x, 16).ok());
            !matches!((ends.next(), ends.next()), (Some(Some(lo)), Some(Some(hi))) if lo <= addr && addr < hi)
        });
        let rss = lines.find_map(|line| line.strip_prefix("Rss:")).unwrap();
        rss.trim().trim_end_matches("kB").trim().parse::<usize>().unwrap() << 10
    }

    #[test]
    fn released_pages_read_back_the_files_bytes() {
        let (path, file) = scratch_file("release");
        let bytes: Vec<u8> = (0..3 * STEP + 1000).map(|i| (i * 7 + i / 4096) as u8).collect();
        std::fs::write(&path, &bytes).unwrap();
        // Read through a mapping, release part of it, read again.
        let map = ReadMap::open(&file, bytes.len()).unwrap();
        assert_eq!(map.bytes(), &bytes[..]);
        let touched = mapping_rss(map.bytes().as_ptr());
        map.release(STEP, 2 * STEP);
        map.release(0, 4096);
        map.release(3 * STEP, bytes.len());
        // At least the whole step went; a large folio may take more of
        // its neighbours with a partial release.
        assert!(mapping_rss(map.bytes().as_ptr()) <= touched - STEP);
        assert_eq!(map.bytes(), &bytes[..]);
        drop(map);
        // The same through a segment file, released whole.
        let segment = SegmentFile::open(&path).unwrap();
        assert!(matches!(segment.bytes, Bytes::Mapped(_)));
        assert_eq!(segment.bytes(), &bytes[..]);
        segment.release(0, bytes.len());
        assert_eq!(segment.bytes(), &bytes[..]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn preparing_a_step_releases_the_steps_below_the_append_offset() {
        let (path, file) = scratch_file("writer-release");
        let len = 4 * STEP;
        let mut map = SegmentMap::create(&file, len).unwrap().unwrap();
        let base = map.bytes_mut().as_ptr();
        let mut written = vec![0u8; len];
        // Appends of three quarters of a step each, as the WAL makes them:
        // room first, from the append offset, then the bytes.
        let chunk = 3 * STEP / 4;
        for (n, at) in (0..len).step_by(chunk).enumerate() {
            let end = (at + chunk).min(len);
            map.reserve(&file, at, end).unwrap();
            let mine: Vec<u8> = (at..end).map(|i| (i * 13 + n) as u8).collect();
            map.bytes_mut()[at..end].copy_from_slice(&mine);
            written[at..end].copy_from_slice(&mine);
            // The step holding the append offset and the one after it at
            // most; every step wholly below the former is gone.
            let held = mapping_rss(base);
            assert!(held <= 2 * STEP, "append {n} at {at}: {held} bytes resident");
        }
        // Released steps fault back in with their bytes, and the file
        // holds every byte written through the mapping.
        assert_eq!(&map.bytes_mut()[..], &written[..]);
        drop(map);
        assert_eq!(std::fs::read(&path).unwrap(), written);
        let _ = std::fs::remove_file(&path);
    }
}
