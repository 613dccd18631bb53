//! Positioned reads: the `pread` backend's byte source and the mmap
//! backend's fallback.
//!
//! The store reads segments through one path — chunks planned from the
//! frame index and decoded by [`decode_frame`](crate::chunk::decode_frame)
//! — and two backends feed it bytes: an `mmap(2)` window
//! ([`mmap`](crate::mmap), the default) or one positioned read of the
//! whole chunk into an owned buffer (this module). Positioned reads
//! touch no shared file cursor, so one open handle per segment serves
//! every fold worker at once. The index probes and header scans that
//! plan the chunks read through here too.

use crate::StoreError;
use std::fs::File;

/// Reads exactly `buf.len()` bytes at `offset` without touching any
/// shared file cursor. `Ok(false)` is a clean or torn EOF (the bytes
/// are not there in full), distinct from real I/O failure.
pub(crate) fn pread_exact(file: &File, buf: &mut [u8], offset: u64) -> Result<bool, StoreError> {
    Ok(pread_upto(file, buf, offset)? == buf.len())
}

/// Reads up to `buf.len()` bytes at `offset`, stopping early only at
/// EOF; returns the bytes read.
#[cfg(unix)]
pub(crate) fn pread_upto(file: &File, buf: &mut [u8], offset: u64) -> Result<usize, StoreError> {
    use std::os::unix::fs::FileExt;
    let mut done = 0usize;
    while done < buf.len() {
        match file.read_at(&mut buf[done..], offset + done as u64) {
            Ok(0) => break,
            Ok(n) => done += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(StoreError::Io(e)),
        }
    }
    Ok(done)
}

/// Portable fallback: positioned read via `seek + read` (the file's
/// cursor is private to this handle, so semantics match `pread`).
#[cfg(not(unix))]
pub(crate) fn pread_upto(file: &File, buf: &mut [u8], offset: u64) -> Result<usize, StoreError> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = file;
    f.seek(SeekFrom::Start(offset)).map_err(StoreError::Io)?;
    let mut done = 0usize;
    while done < buf.len() {
        match f.read(&mut buf[done..]) {
            Ok(0) => break,
            Ok(n) => done += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(StoreError::Io(e)),
        }
    }
    Ok(done)
}
