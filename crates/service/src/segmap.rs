//! File-backed shared memory mapping for WAL segments.
//!
//! The WAL's crash-durability contract for an un-fsynced record is
//! "survives a process kill": the bytes must be in the kernel's page
//! cache — not merely in user memory — before the ACK goes out. A
//! `write(2)` per group gets them there, but costs ~2 µs per 4 KB on
//! the append hot path, almost all of it page-cache bookkeeping the
//! kernel repeats for every call. A `MAP_SHARED` mapping moves that
//! bookkeeping to segment *creation*: the segment file is sized and
//! every page is faulted in (dirtied) up front, and each append is then
//! a plain `memcpy` into memory the kernel already owns — the store is
//! in the page cache the instant it retires, with no syscall on the
//! path. `fsync(2)` on the file descriptor still flushes pages dirtied
//! through the mapping, so the `group` policy keeps its power-loss
//! guarantee unchanged.
//!
//! The tree deliberately has no C-binding dependency, so the three
//! syscalls this needs (`mmap`, `munmap`, `fallocate`) are issued
//! directly; the module is therefore compiled only for
//! `linux`/`x86_64`, and every other target (or any syscall failure —
//! an odd filesystem, an enormous requested length) falls back to the
//! WAL's buffered `write(2)` path, which is slower but semantically
//! identical. `fallocate` runs before the mapping is touched so that
//! "disk full" surfaces as a clean `Err` at segment creation; without
//! the reservation, the kernel would deliver ENOSPC to a later page
//! fault as SIGBUS, which no ledger process should die of.
//!
//! Recovery reads segments through the same syscalls: [`SegmentFile`]
//! maps a whole segment read-only and private (`mmap` + `munmap`), so
//! the walk and the apply read records out of the page cache with no
//! copy into the heap. A pre-sized segment a crash left unsealed ends
//! in its zero tail, up to 8 MiB of it; [`SegmentFile::zero_from`]
//! checks that tail with `pread` into a small buffer rather than
//! through the mapping, so its pages are never faulted into this
//! process. No segment keeps a file descriptor once it is mapped or
//! read (a mapping holds its own reference to the file), so a log may
//! have more segments than the process may keep files open. A mapping
//! holds no lock on the file: if another process truncated a segment
//! while recovery had it mapped, touching the lost pages would raise
//! SIGBUS. Nothing in this tree writes a segment before recovery ends,
//! so that takes an outside hand. A segment under 64 KiB, and any
//! segment where the mapping cannot be had (other targets, a failed
//! `mmap`), is read into memory whole instead, with the same bytes and
//! verdicts.

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod imp {
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    const SYS_MMAP: isize = 9;
    const SYS_MUNMAP: isize = 11;
    const SYS_FALLOCATE: isize = 285;
    const PROT_READ: usize = 0x1;
    const PROT_WRITE: usize = 0x2;
    const MAP_SHARED: usize = 0x1;
    const MAP_PRIVATE: usize = 0x2;

    /// Issues a raw 6-argument syscall and folds the kernel's negative
    /// errno convention into `io::Error`.
    ///
    /// # Safety
    ///
    /// The caller must pass arguments valid for `nr` per the Linux
    /// x86-64 syscall ABI; the kernel interprets them without any
    /// further checking on our side.
    // SAFETY: declared unsafe — soundness is the caller's `# Safety`
    // obligation above.
    unsafe fn syscall6(
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

    /// An exclusive, fixed-length, file-backed writable mapping of one
    /// WAL segment.
    pub struct SegmentMap {
        ptr: *mut u8,
        len: usize,
    }

    // The WAL keeps the owning `ActiveSegment` behind a `Mutex`, so no
    // two threads ever touch the pages concurrently.
    // SAFETY: the mapping is exclusively owned (`bytes_mut` requires
    // `&mut self`) and refers to process-global mapped memory, which
    // is valid from any thread.
    unsafe impl Send for SegmentMap {}

    impl SegmentMap {
        /// Grows `file` to exactly `len` bytes with real block
        /// reservation, maps it shared, and faults every page in (one
        /// streaming zero-fill) so later appends never page-fault.
        pub fn create(file: &File, len: usize) -> io::Result<SegmentMap> {
            if len == 0 || len > isize::MAX as usize {
                return Err(io::Error::new(io::ErrorKind::InvalidInput, "bad mapping length"));
            }
            let fd = file.as_raw_fd() as usize;
            // SAFETY: fallocate(fd, mode = 0, offset = 0, len) on a file
            // descriptor we own; mode 0 allocates blocks and extends the
            // file size, and the kernel validates the rest.
            unsafe { syscall6(SYS_FALLOCATE, fd, 0, 0, len, 0, 0)? };
            // SAFETY: a fresh shared read+write mapping of `len` bytes
            // of a file we just sized to `len`; addr = 0 lets the
            // kernel choose placement, and the fd outlives the call.
            let ptr = unsafe {
                syscall6(SYS_MMAP, 0, len, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0)?
            } as *mut u8;
            let mut map = SegmentMap { ptr, len };
            // Pre-fault: dirty every page now, off the append path. The
            // blocks are already reserved, so this cannot SIGBUS.
            map.bytes_mut().fill(0);
            Ok(map)
        }

        /// The whole mapping as bytes.
        pub fn bytes_mut(&mut self) -> &mut [u8] {
            // SAFETY: `ptr` is a live mapping of exactly `len` bytes
            // (held until `Drop`), and `&mut self` guarantees
            // exclusivity for the returned lifetime.
            unsafe { core::slice::from_raw_parts_mut(self.ptr, self.len) }
        }

        /// Mapping length in bytes.
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
    /// always fails, which routes the WAL onto its buffered `write(2)`
    /// path — same bytes, same guarantees, more syscalls.
    pub struct SegmentMap {
        never: core::convert::Infallible,
    }

    impl SegmentMap {
        pub fn create(_file: &File, _len: usize) -> io::Result<SegmentMap> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "segment mapping is only implemented for linux/x86_64",
            ))
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
    }
}

pub(crate) use imp::SegmentMap;

use imp::ReadMap;
use std::fs::File;
use std::io::{self, Read};
use std::path::{Path, PathBuf};

/// Segments shorter than this are read, not mapped, which spares the
/// corruption suites' thousands of tiny logs a mapping each. Reading is
/// faster up to about 1 MiB (a mapped 32-512 KiB segment recovered
/// 3-15% slower on 2 vCPUs), but every segment is held until the apply
/// ends, and heap copies grow with the log where a mapping shares the
/// page cache's pages.
const MAP_MIN_LEN: usize = 64 << 10;

/// One segment's bytes for recovery: mapped read-only where that works,
/// read into memory otherwise. It holds no file descriptor: a log may
/// have more segments than the process may keep open, and a mapping
/// keeps its own reference to the file.
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

    /// The segment's bytes.
    pub(crate) fn bytes(&self) -> &[u8] {
        match &self.bytes {
            Bytes::Mapped(map) => map.bytes(),
            Bytes::Read(buf) => buf,
        }
    }

    /// Whether every byte from `offset` to the end is zero: the walk's
    /// test for the zero tail of a pre-sized segment. A mapped segment
    /// reopens its file and answers through `pread`, so the tail never
    /// becomes resident in this process.
    pub(crate) fn zero_from(&self, offset: usize) -> io::Result<bool> {
        match &self.bytes {
            Bytes::Mapped(map) => map.zero_from(&File::open(&self.path)?, offset),
            Bytes::Read(buf) => Ok(buf[offset..].iter().all(|&b| b == 0)),
        }
    }
}

#[cfg(test)]
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod tests {
    use super::{Bytes, SegmentFile, SegmentMap};

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

    #[test]
    fn mapped_writes_are_visible_through_the_file() {
        let mut path = std::env::temp_dir();
        path.push(format!("oisum-segmap-unit-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .unwrap();
        let mut map = SegmentMap::create(&file, 3 * 4096 + 17).unwrap();
        assert_eq!(map.len(), 3 * 4096 + 17);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 3 * 4096 + 17);
        map.bytes_mut()[0..4].copy_from_slice(b"head");
        let tail = map.len() - 4;
        map.bytes_mut()[tail..].copy_from_slice(b"tail");
        drop(map);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[..4], b"head");
        assert_eq!(&bytes[bytes.len() - 4..], b"tail");
        // The pre-fault zero-fill means everything else reads as zero.
        assert!(bytes[4..bytes.len() - 4].iter().all(|&b| b == 0));
        // Truncation after unmap trims the tail cleanly.
        file.set_len(4).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"head");
        let _ = std::fs::remove_file(&path);
    }
}
