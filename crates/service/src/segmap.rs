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
}

pub(crate) use imp::SegmentMap;

#[cfg(test)]
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod tests {
    use super::SegmentMap;

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
