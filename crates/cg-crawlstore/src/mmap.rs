//! A minimal safe wrapper over `mmap(2)`/`munmap(2)` for read-only
//! chunk windows — the zero-copy segment read path.
//!
//! The chunked readers in [`chunk`](crate::chunk) decode frames
//! straight out of the OS page cache: one `mmap` per chunk, a borrowed
//! `&[u8]` window over exactly the requested byte range, and a
//! `munmap` on drop. No crate dependency is taken — the three syscalls
//! are declared directly — and every failure path degrades to the
//! `pread` backend, so mmap is an optimization, never a requirement.
//!
//! Mapping granularity is the *chunk*, not the segment: a streaming
//! fold over a store larger than RAM keeps at most one chunk window
//! mapped per worker, so resident set stays bounded by
//! `workers × chunk size` exactly like the `pread` backend's owned
//! buffers (mapped file pages count toward RSS once touched;
//! whole-segment maps would not stay flat).
//!
//! **Layer:** persistence — below [`chunk`](crate::chunk), which picks
//! between this and `pread`. **Invariants:** the returned window
//! covers exactly `[offset, offset + len)` of the file — page-alignment
//! slack is trimmed off, so bytes past a chunk's end (including bytes
//! past the durability watermark) are never part of the decode window;
//! mappings are read-only (`PROT_READ`) and private. **Entry points:**
//! [`Mmap::map_range`], [`Mmap::bytes`].

use std::fs::File;
use std::io;

#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_long, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;
    pub const MADV_SEQUENTIAL: c_int = 2;

    /// `sysconf(_SC_PAGESIZE)` selector (30 on Linux, 29 on macOS).
    #[cfg(target_os = "linux")]
    pub const SC_PAGESIZE: c_int = 30;
    #[cfg(target_os = "macos")]
    pub const SC_PAGESIZE: c_int = 29;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        #[cfg(any(target_os = "linux", target_os = "macos"))]
        pub fn sysconf(name: c_int) -> c_long;
    }

    /// The VM page size, for aligning map offsets. On platforms where
    /// the `_SC_PAGESIZE` selector value is not pinned above, fall back
    /// to 4096 — a wrong guess surfaces as an `EINVAL` from `mmap`,
    /// which the callers downgrade to the pread path.
    pub fn page_size() -> usize {
        #[cfg(any(target_os = "linux", target_os = "macos"))]
        {
            let n = unsafe { sysconf(SC_PAGESIZE) };
            if n > 0 {
                return n as usize;
            }
        }
        4096
    }
}

/// A read-only private mapping of one byte range of a file.
///
/// [`Mmap::bytes`] is the requested window exactly — the page-aligned
/// prefix the kernel requires is mapped but never exposed.
pub struct Mmap {
    #[cfg(unix)]
    base: *mut std::os::raw::c_void,
    /// Total mapped length (window plus alignment prefix).
    map_len: usize,
    /// Bytes of alignment slack before the window.
    prefix: usize,
    /// Requested window length.
    len: usize,
}

// SAFETY: the mapping is read-only (`PROT_READ`) and private; no
// interior mutation is possible through it, so sharing the window
// across fold workers is sound.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Maps `[offset, offset + len)` of `file` read-only, hinting
    /// sequential access. Any syscall failure is returned as the plain
    /// `io::Error` so callers can fall back to positioned reads.
    #[cfg(unix)]
    pub fn map_range(file: &File, offset: u64, len: usize) -> io::Result<Mmap> {
        use std::os::unix::io::AsRawFd;
        if len == 0 {
            return Ok(Mmap {
                base: std::ptr::null_mut(),
                map_len: 0,
                prefix: 0,
                len: 0,
            });
        }
        let page = sys::page_size() as u64;
        let aligned = (offset / page) * page;
        let prefix = (offset - aligned) as usize;
        let map_len = prefix + len;
        // SAFETY: a fresh private read-only mapping of a plain file; no
        // existing memory is touched and the result is checked below.
        let base = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                map_len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                aligned as i64,
            )
        };
        if base as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        // Purely advisory; chunk decodes walk the window front to back.
        // SAFETY: `base..base+map_len` is the mapping created above.
        unsafe {
            let _ = sys::madvise(base, map_len, sys::MADV_SEQUENTIAL);
        }
        Ok(Mmap {
            base,
            map_len,
            prefix,
            len,
        })
    }

    /// Non-Unix stub: always refuses, so every consumer takes its
    /// documented fallback to the positioned-read backend.
    #[cfg(not(unix))]
    pub fn map_range(_file: &File, _offset: u64, _len: usize) -> io::Result<Mmap> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "mmap is only available on Unix",
        ))
    }

    /// The mapped window — exactly the bytes requested from
    /// [`Mmap::map_range`].
    pub fn bytes(&self) -> &[u8] {
        #[cfg(unix)]
        {
            if self.len == 0 {
                return &[];
            }
            // SAFETY: `prefix + len <= map_len` by construction and the
            // mapping lives until `self` drops; the pages are readable.
            unsafe {
                std::slice::from_raw_parts((self.base as *const u8).add(self.prefix), self.len)
            }
        }
        #[cfg(not(unix))]
        {
            let _ = (self.map_len, self.prefix, self.len);
            &[]
        }
    }

    /// Window length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(unix)]
        if !self.base.is_null() {
            // SAFETY: `base` is the live mapping from `map_range`;
            // after this the window slice can no longer be produced
            // (drop takes `self` by exclusive borrow).
            unsafe {
                let _ = sys::munmap(self.base, self.map_len);
            }
        }
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp_file(tag: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("cg-mmap-{tag}-{}", std::process::id()));
        let mut f = File::create(&path).unwrap();
        f.write_all(bytes).unwrap();
        path
    }

    #[test]
    fn window_is_exactly_the_requested_range() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let path = tmp_file("window", &data);
        let file = File::open(&path).unwrap();
        // Unaligned offset: the page-alignment prefix must be trimmed.
        let map = Mmap::map_range(&file, 4097, 513).unwrap();
        assert_eq!(map.bytes(), &data[4097..4097 + 513]);
        assert_eq!(map.len(), 513);
        drop(map);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn zero_length_window_is_empty() {
        let path = tmp_file("empty", b"abc");
        let file = File::open(&path).unwrap();
        let map = Mmap::map_range(&file, 1, 0).unwrap();
        assert!(map.is_empty());
        assert_eq!(map.bytes(), b"");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn many_maps_unmap_cleanly() {
        let data = vec![7u8; 1 << 16];
        let path = tmp_file("cycle", &data);
        let file = File::open(&path).unwrap();
        for i in 0..200 {
            let off = (i * 321) % 1000;
            let map = Mmap::map_range(&file, off as u64, 4096).unwrap();
            assert_eq!(map.bytes()[0], 7);
        }
        std::fs::remove_file(&path).unwrap();
    }
}
