//! The two process facts std does not expose: peak RSS and the type of
//! the filesystem the write-ahead log lives on.

use std::ffi::CString;
use std::os::raw::{c_char, c_int, c_long};
use std::path::Path;

#[repr(C)]
struct Rusage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn statfs(path: *const c_char, buf: *mut [u64; 32]) -> c_int;
}

/// The process's high-water resident set, in MiB.
pub fn peak_rss_mib() -> f64 {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a writable, properly aligned `struct rusage`
    // (two timevals then fourteen longs on 64-bit Linux), and
    // RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage.maxrss as f64 / 1024.0
}

/// The filesystem type of `path`: "tmpfs", "ext" or the magic in hex.
pub fn fs_type(path: &Path) -> String {
    let Ok(cpath) = CString::new(path.as_os_str().as_encoded_bytes()) else {
        return "unknown".to_owned();
    };
    let mut buf = [0u64; 32];
    // SAFETY: `cpath` is NUL-terminated and `buf` (256 bytes) is larger
    // than the 120-byte `struct statfs` the call writes; `f_type` is its
    // first field.
    let rc = unsafe { statfs(cpath.as_ptr(), &mut buf) };
    match (rc, buf[0]) {
        (0, 0x0102_1994) => "tmpfs".to_owned(),
        (0, 0xEF53) => "ext".to_owned(),
        (0, magic) => format!("0x{magic:x}"),
        _ => "unknown".to_owned(),
    }
}
