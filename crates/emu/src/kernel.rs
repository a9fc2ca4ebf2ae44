//! The simulated Linux kernel: file descriptors, an in-memory
//! filesystem, sockets, and the native heap arena.
//!
//! The paper's Table VII hooks "selected system calls (e.g., file
//! read/write, network, etc.)"; starred entries (`fwrite*`, `write*`,
//! `fputc*`, `fputs*`, `send*`, `sendto*`) are treated as possible
//! information leaks. Here the kernel records every such call once, as a
//! [`LeakEvent`] (native context) that owns the outgoing bytes and the
//! taint the libc hook engine computed for them, in the caller's
//! [`Recorder`].

use crate::error::EmuError;
use crate::layout;
use ndroid_arm::IntMap;
use ndroid_dvm::{LeakEvent, Recorder, Taint};
use ndroid_provenance::{Name, SinkCtx};
use std::collections::HashMap;
use std::sync::Arc;

/// A kernel object behind a file descriptor.
#[derive(Debug, Clone)]
enum FdObject {
    File {
        path: Arc<str>,
        pos: usize,
        writable: bool,
    },
    Socket {
        dest: Option<Arc<str>>,
    },
}

/// A simple first-fit free-list allocator over the guest native-heap
/// region (backs `malloc`/`free`/`realloc`).
#[derive(Debug, Clone)]
pub struct NativeHeap {
    cursor: u32,
    end: u32,
    free: Vec<(u32, u32)>, // (addr, size)
    sizes: IntMap<u32, u32>,
}

impl Default for NativeHeap {
    fn default() -> NativeHeap {
        NativeHeap::new()
    }
}

impl NativeHeap {
    /// A heap spanning the [`layout::NATIVE_HEAP_BASE`] region.
    pub fn new() -> NativeHeap {
        NativeHeap {
            // Offset so allocations land at addresses like the paper's
            // 0x2a141b90.
            cursor: layout::NATIVE_HEAP_BASE + 0x0010_0000,
            end: layout::NATIVE_HEAP_BASE + layout::NATIVE_HEAP_SIZE,
            free: Vec::new(),
            sizes: IntMap::default(),
        }
    }

    /// Allocates `size` bytes (8-byte aligned); returns 0 on exhaustion,
    /// or for a size the region cannot hold, like a failing `malloc`.
    pub fn malloc(&mut self, size: u32) -> u32 {
        let size = size.max(1).saturating_add(7) & !7;
        if let Some(i) = self.free.iter().position(|(_, s)| *s >= size) {
            let (addr, s) = self.free.swap_remove(i);
            if s > size {
                self.free.push((addr + size, s - size));
            }
            self.sizes.insert(addr, size);
            return addr;
        }
        if self.cursor.checked_add(size).is_none_or(|end| end > self.end) {
            return 0;
        }
        let addr = self.cursor;
        self.cursor += size;
        self.sizes.insert(addr, size);
        addr
    }

    /// Frees a previous allocation (unknown pointers are ignored, as
    /// glibc would corrupt instead — we are kinder).
    pub fn free(&mut self, addr: u32) {
        if let Some(size) = self.sizes.remove(&addr) {
            self.free.push((addr, size));
        }
    }

    /// The usable size of an allocation.
    pub fn size_of(&self, addr: u32) -> Option<u32> {
        self.sizes.get(&addr).copied()
    }

    /// Number of live allocations.
    pub fn live(&self) -> usize {
        self.sizes.len()
    }
}

/// The open object behind `fd` in the descriptor table `fds` (a free
/// function, so a caller can hold it while it uses the filesystem).
fn fd_in(fds: &mut [Option<FdObject>], fd: i32) -> Result<&mut FdObject, EmuError> {
    fds.get_mut(fd as usize)
        .and_then(|o| o.as_mut())
        .ok_or_else(|| EmuError::Kernel(format!("bad fd {fd}")))
}

/// The simulated kernel state.
#[derive(Debug, Default, Clone)]
pub struct Kernel {
    /// In-memory filesystem: path → contents.
    pub fs: HashMap<String, Vec<u8>>,
    fds: Vec<Option<FdObject>>,
    /// The native `malloc` arena.
    pub heap: NativeHeap,
    /// Count of kernel calls serviced (for overhead accounting).
    pub syscalls: u64,
}

impl Kernel {
    /// A fresh kernel with an empty filesystem.
    pub fn new() -> Kernel {
        Kernel {
            fds: vec![None, None, None], // 0/1/2 reserved
            ..Kernel::default()
        }
    }

    fn alloc_fd(&mut self, obj: FdObject) -> i32 {
        for (i, slot) in self.fds.iter_mut().enumerate().skip(3) {
            if slot.is_none() {
                *slot = Some(obj);
                return i as i32;
            }
        }
        self.fds.push(Some(obj));
        (self.fds.len() - 1) as i32
    }

    /// `open(2)` — `create` truncates/creates; otherwise the file must
    /// exist.
    ///
    /// # Errors
    ///
    /// [`EmuError::Kernel`] when opening a missing file without `create`.
    pub fn open(&mut self, path: &str, create: bool) -> Result<i32, EmuError> {
        self.syscalls += 1;
        if create {
            self.fs.insert(path.to_string(), Vec::new());
        } else if !self.fs.contains_key(path) {
            return Err(EmuError::Kernel(format!("no such file: {path}")));
        }
        Ok(self.alloc_fd(FdObject::File {
            path: path.into(),
            pos: 0,
            writable: true,
        }))
    }

    /// `close(2)`.
    ///
    /// # Errors
    ///
    /// [`EmuError::Kernel`] on a bad descriptor.
    pub fn close(&mut self, fd: i32) -> Result<(), EmuError> {
        self.syscalls += 1;
        let slot = self
            .fds
            .get_mut(fd as usize)
            .ok_or_else(|| EmuError::Kernel(format!("bad fd {fd}")))?;
        if slot.take().is_none() {
            return Err(EmuError::Kernel(format!("double close of fd {fd}")));
        }
        Ok(())
    }

    /// `read(2)` — returns the bytes read: at most `len` from the file
    /// position on, which advances past them. Only that window is
    /// copied out of the file.
    ///
    /// # Errors
    ///
    /// [`EmuError::Kernel`] on a bad descriptor.
    pub fn read(&mut self, fd: i32, len: usize) -> Result<Vec<u8>, EmuError> {
        self.syscalls += 1;
        match fd_in(&mut self.fds, fd)? {
            FdObject::File { path, pos, .. } => {
                let data = self.fs.get(&**path).map_or(&[][..], Vec::as_slice);
                let start = (*pos).min(data.len());
                let end = start + len.min(data.len() - start);
                *pos = end;
                Ok(data[start..end].to_vec())
            }
            FdObject::Socket { .. } => Ok(Vec::new()),
        }
    }

    /// `write(2)` — a **sink** when the descriptor is a file or socket
    /// (Table VII's `write*`; on a socket it records as `send`). `taint`
    /// is the union over the written bytes, computed by the caller from
    /// the taint map; the bytes move into the sink's [`LeakEvent`] in
    /// `rec`.
    ///
    /// # Errors
    ///
    /// [`EmuError::Kernel`] on a bad descriptor.
    pub fn write(
        &mut self,
        rec: &mut Recorder,
        fd: i32,
        data: Arc<[u8]>,
        taint: Taint,
    ) -> Result<usize, EmuError> {
        self.syscalls += 1;
        match fd_in(&mut self.fds, fd)? {
            FdObject::File { path, writable, .. } => {
                if !*writable {
                    return Err(EmuError::Kernel(format!("fd {fd} not writable")));
                }
                match self.fs.get_mut(&**path) {
                    Some(file) => file.extend_from_slice(&data),
                    None => {
                        self.fs.insert(path.to_string(), data.to_vec());
                    }
                }
                Ok(sink(rec, "write", Arc::clone(path).into(), data, taint))
            }
            FdObject::Socket { dest } => {
                let dest = dest.clone().map_or("<unconnected>".into(), Name::Shared);
                Ok(sink(rec, "send", dest, data, taint))
            }
        }
    }

    /// `socket(2)`.
    pub fn socket(&mut self) -> i32 {
        self.syscalls += 1;
        self.alloc_fd(FdObject::Socket { dest: None })
    }

    /// `connect(2)`.
    ///
    /// # Errors
    ///
    /// [`EmuError::Kernel`] if `fd` is not a socket.
    pub fn connect(&mut self, fd: i32, dest: impl Into<Arc<str>>) -> Result<(), EmuError> {
        self.syscalls += 1;
        match fd_in(&mut self.fds, fd)? {
            FdObject::Socket { dest: d } => {
                *d = Some(dest.into());
                Ok(())
            }
            FdObject::File { .. } => Err(EmuError::Kernel(format!("fd {fd} is not a socket"))),
        }
    }

    /// `send(2)` — a **sink** (Table VII's `send*`).
    ///
    /// # Errors
    ///
    /// [`EmuError::Kernel`] if `fd` is not a connected socket.
    pub fn send(
        &mut self,
        rec: &mut Recorder,
        fd: i32,
        data: Arc<[u8]>,
        taint: Taint,
    ) -> Result<usize, EmuError> {
        self.syscalls += 1;
        match fd_in(&mut self.fds, fd)? {
            FdObject::Socket { dest: Some(d) } => {
                Ok(sink(rec, "send", Arc::clone(d).into(), data, taint))
            }
            FdObject::Socket { dest: None } => {
                Err(EmuError::Kernel(format!("fd {fd} not connected")))
            }
            FdObject::File { .. } => Err(EmuError::Kernel(format!("fd {fd} is not a socket"))),
        }
    }

    /// `sendto(2)` — a **sink**; the destination rides in the call
    /// (the ePhone log of Fig. 7 shows `sendto(36, REGISTER sip:…)`).
    ///
    /// # Errors
    ///
    /// [`EmuError::Kernel`] if `fd` is not a socket.
    pub fn sendto(
        &mut self,
        rec: &mut Recorder,
        fd: i32,
        data: Arc<[u8]>,
        dest: Arc<str>,
        taint: Taint,
    ) -> Result<usize, EmuError> {
        self.syscalls += 1;
        match fd_in(&mut self.fds, fd)? {
            FdObject::Socket { .. } => Ok(sink(rec, "sendto", dest.into(), data, taint)),
            FdObject::File { .. } => Err(EmuError::Kernel(format!("fd {fd} is not a socket"))),
        }
    }
}

/// Records in `rec` a native sink call that sent `data` to `dest`, and
/// returns the byte count it sent.
fn sink(
    rec: &mut Recorder,
    sink: &'static str,
    dest: Name,
    data: Arc<[u8]>,
    taint: Taint,
) -> usize {
    let n = data.len();
    rec.sink(LeakEvent { sink, dest, data, taint, context: SinkCtx::Native });
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_write_read_roundtrip() {
        let mut k = Kernel::new();
        let mut rec = Recorder::default();
        let fd = k.open("/sdcard/CONTACTS", true).unwrap();
        k.write(&mut rec, fd, b"1 Vincent cx@gg.com".as_slice().into(), Taint::CONTACTS).unwrap();
        k.close(fd).unwrap();
        let fd = k.open("/sdcard/CONTACTS", false).unwrap();
        let data = k.read(fd, 100).unwrap();
        assert_eq!(data, b"1 Vincent cx@gg.com");
        k.close(fd).unwrap();
    }

    #[test]
    fn file_write_is_a_sink() {
        let mut k = Kernel::new();
        let mut rec = Recorder::default();
        let fd = k.open("/sdcard/x", true).unwrap();
        k.write(&mut rec, fd, b"secret".as_slice().into(), Taint::CONTACTS).unwrap();
        let leaks: Vec<_> = rec.leaks().collect();
        assert_eq!(leaks.len(), 1);
        assert_eq!(leaks[0].sink, "write");
        assert_eq!(leaks[0].dest, "/sdcard/x");
        assert_eq!(leaks[0].context, SinkCtx::Native);
    }

    #[test]
    fn untainted_write_is_recorded_but_not_a_leak() {
        let mut k = Kernel::new();
        let mut rec = Recorder::default();
        let fd = k.open("/tmp/log", true).unwrap();
        k.write(&mut rec, fd, b"boring".as_slice().into(), Taint::CLEAR).unwrap();
        assert_eq!(rec.sinks().len(), 1);
        assert_eq!(rec.leaks().count(), 0);
    }

    #[test]
    fn sockets_connect_send() {
        let mut k = Kernel::new();
        let mut rec = Recorder::default();
        let s = k.socket();
        assert!(k.send(&mut rec, s, b"x".as_slice().into(), Taint::CLEAR).is_err(), "unconnected");
        k.connect(s, "info.3g.qq.com").unwrap();
        k.send(&mut rec, s, b"payload".as_slice().into(), Taint::SMS | Taint::CONTACTS).unwrap();
        assert_eq!(rec.sinks().len(), 1);
        assert_eq!(rec.sinks()[0].dest, "info.3g.qq.com");
        assert_eq!(*rec.sinks()[0].data, *b"payload");
        assert_eq!(rec.leaks().count(), 1);
    }

    #[test]
    fn sendto_carries_destination() {
        let mut k = Kernel::new();
        let mut rec = Recorder::default();
        let s = k.socket();
        let dest = "softphone.comwave.net".into();
        k.sendto(&mut rec, s, b"REGISTER sip:...".as_slice().into(), dest, Taint::CONTACTS).unwrap();
        let leaks: Vec<_> = rec.leaks().collect();
        assert_eq!(leaks[0].sink, "sendto");
        assert_eq!(leaks[0].dest, "softphone.comwave.net");
    }

    #[test]
    fn fd_errors() {
        let mut k = Kernel::new();
        let mut rec = Recorder::default();
        assert!(k.open("/missing", false).is_err());
        assert!(k.close(99).is_err());
        assert!(k.read(99, 1).is_err());
        let fd = k.open("/a", true).unwrap();
        let s = k.socket();
        k.close(fd).unwrap();
        assert!(k.close(fd).is_err(), "double close");
        assert!(k.connect(fd, "x").is_err(), "closed fd");
        let f2 = k.open("/b", true).unwrap();
        assert!(k.connect(f2, "x").is_err(), "file is not a socket");
        assert!(k.sendto(&mut rec, f2, Arc::default(), "d".into(), Taint::CLEAR).is_err());
        let _ = s;
    }

    #[test]
    fn malloc_free_reuse() {
        let mut h = NativeHeap::new();
        let a = h.malloc(100);
        let b = h.malloc(100);
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
        assert!(crate::layout::in_native_heap(a));
        assert_eq!(h.size_of(a), Some(104)); // aligned up
        assert_eq!(h.live(), 2);
        h.free(a);
        assert_eq!(h.live(), 1);
        let c = h.malloc(50);
        assert_eq!(c, a, "free block reused first-fit");
    }

    #[test]
    fn malloc_zero_and_exhaustion() {
        let mut h = NativeHeap::new();
        let a = h.malloc(0);
        assert_ne!(a, 0, "malloc(0) still returns a unique block");
        let big = h.malloc(layout::NATIVE_HEAP_SIZE);
        assert_eq!(big, 0, "exhaustion returns NULL");
        assert_eq!(h.malloc(u32::MAX), 0, "a size the rounding would overflow is NULL");
        assert_eq!(h.malloc(0xE000_0000), 0, "so is one the cursor would overflow");
        let p = h.malloc(16);
        assert!(layout::in_native_heap(p), "the cursor stayed in the heap: {p:#x}");
    }

    #[test]
    fn read_advances_position() {
        let mut k = Kernel::new();
        k.fs.insert("/data".into(), b"abcdefg".to_vec());
        let fd = k.open("/data", false).unwrap();
        assert_eq!(k.read(fd, 3).unwrap(), b"abc");
        assert_eq!(k.read(fd, 3).unwrap(), b"def");
        assert_eq!(k.read(fd, 3).unwrap(), b"g", "a read straddling EOF returns the tail");
        assert_eq!(k.read(fd, 3).unwrap(), b"", "a read at EOF returns nothing");
        assert_eq!(k.read(fd, 0).unwrap(), b"");
        let fd = k.open("/data", false).unwrap();
        assert_eq!(k.read(fd, 2).unwrap(), b"ab", "each descriptor has its own position");
        assert_eq!(k.read(fd, usize::MAX).unwrap(), b"cdefg", "an unbounded read stops at EOF");
    }
}
