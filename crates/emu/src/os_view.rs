//! The OS-level view reconstructor.
//!
//! "Motivated by Droidscope, NDroid employs virtual machine
//! introspection to collect the information of processes and memory
//! maps in Android's Linux kernel by only analyzing ARM/Thumb
//! instructions" (§V-F) — i.e. it reads raw guest memory, without any
//! cooperative interface. Here the kernel writes `task_struct`-like
//! records into guest memory at [`crate::layout::KERNEL_TASKS_BASE`],
//! and the reconstructor parses them back *from the raw bytes alone*.
//!
//! Record layout (little-endian words):
//!
//! ```text
//! +0   pid
//! +4   comm (16 bytes, NUL padded)
//! +20  vma_count
//! +24  vma[0].start  +28 vma[0].end  +32 vma[0].name_ptr
//! …    (12 bytes per VMA)
//! next task record follows immediately
//! ```
//!
//! A `pid` of 0 terminates the list. The records fill the first
//! [`TABLE_SIZE`] bytes; VMA name strings live wherever `name_ptr`
//! points (the writer places them after the table).

use crate::layout::KERNEL_TASKS_BASE;
use ndroid_arm::Memory;
use std::rc::Rc;

/// Bytes of kernel memory, from [`KERNEL_TASKS_BASE`], that hold the
/// task records; the VMA name strings follow.
pub const TABLE_SIZE: u32 = 0x8000;

/// The most VMAs the reconstructor reads from one record.
const MAX_VMAS: u32 = 1024;

/// Bytes of a task record before its VMAs.
const HEADER: u32 = 24;

/// Bytes of one VMA entry.
const VMA: u32 = 12;

/// A virtual memory area of a guest process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vma {
    /// Inclusive start address.
    pub start: u32,
    /// Exclusive end address.
    pub end: u32,
    /// Backing object name (e.g. `libqqphone.so`).
    pub name: String,
}

/// A guest process as seen by the reconstructor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessView {
    /// Process id.
    pub pid: u32,
    /// Command name.
    pub comm: String,
    /// Memory map.
    pub vmas: Vec<Vma>,
}

impl ProcessView {
    /// Finds the module containing `addr`, if any.
    pub fn module_at(&self, addr: u32) -> Option<&Vma> {
        self.vmas.iter().find(|v| (v.start..v.end).contains(&addr))
    }

    /// The base address of the named module.
    pub fn module_base(&self, name: &str) -> Option<u32> {
        self.vmas.iter().find(|v| v.name == name).map(|v| v.start)
    }
}

/// Writes task records into guest kernel memory (what the simulated
/// kernel does as processes map libraries). The table is written at
/// boot and app load and only read after, so forks share it by
/// refcount; a later write copies it once.
#[derive(Debug, Default, Clone)]
pub struct TaskWriter {
    processes: Rc<Vec<ProcessView>>,
}

impl TaskWriter {
    /// An empty task table.
    pub fn new() -> TaskWriter {
        TaskWriter::default()
    }

    /// Registers a process (replacing any previous entry with the same
    /// pid).
    pub fn upsert(&mut self, process: ProcessView) {
        let processes = Rc::make_mut(&mut self.processes);
        if let Some(p) = processes.iter_mut().find(|p| p.pid == process.pid) {
            *p = process;
        } else {
            processes.push(process);
        }
    }

    /// Adds a VMA to an existing process.
    pub fn add_vma(&mut self, pid: u32, vma: Vma) {
        let processes = Rc::make_mut(&mut self.processes);
        if let Some(p) = processes.iter_mut().find(|p| p.pid == pid) {
            p.vmas.push(vma);
        }
    }

    /// Serializes the task table into guest memory.
    pub fn flush(&self, mem: &mut Memory) {
        let mut addr = KERNEL_TASKS_BASE;
        let mut name_addr = KERNEL_TASKS_BASE + TABLE_SIZE;
        for p in self.processes.iter() {
            mem.write_u32(addr, p.pid);
            let mut comm = [0u8; 16];
            let bytes = p.comm.as_bytes();
            let n = bytes.len().min(15);
            comm[..n].copy_from_slice(&bytes[..n]);
            mem.write_bytes(addr + 4, &comm);
            mem.write_u32(addr + 20, p.vmas.len() as u32);
            let mut v = addr + 24;
            for vma in &p.vmas {
                mem.write_u32(v, vma.start);
                mem.write_u32(v + 4, vma.end);
                mem.write_u32(v + 8, name_addr);
                mem.write_cstr(name_addr, vma.name.as_bytes());
                name_addr += vma.name.len() as u32 + 1;
                v += 12;
            }
            addr = v;
        }
        mem.write_u32(addr, 0); // terminator
    }
}

/// Reconstructs the process list by walking raw guest memory — the
/// VMI operation NDroid performs. Guest memory is untrusted: the walk
/// stays inside the [`TABLE_SIZE`] bytes of task records, a record
/// that does not fit there ends it, and at most 1024 VMAs of a record
/// are read (and reserved for), whatever count it claims.
pub fn reconstruct(mem: &Memory) -> Vec<ProcessView> {
    const END: u32 = KERNEL_TASKS_BASE + TABLE_SIZE;
    let mut out = Vec::new();
    let mut addr = KERNEL_TASKS_BASE;
    while let Some(vmas_at) = addr.checked_add(HEADER).filter(|&a| a <= END) {
        let pid = mem.read_u32(addr);
        if pid == 0 {
            break;
        }
        let comm_bytes = mem.read_bytes(addr + 4, 16);
        let comm_len = comm_bytes.iter().position(|b| *b == 0).unwrap_or(16);
        let comm = String::from_utf8_lossy(&comm_bytes[..comm_len]).into_owned();
        let vma_count = mem
            .read_u32(addr + 20)
            .min(MAX_VMAS)
            .min((END - vmas_at) / VMA);
        let mut vmas = Vec::with_capacity(vma_count as usize);
        let mut v = vmas_at;
        for _ in 0..vma_count {
            let start = mem.read_u32(v);
            let end = mem.read_u32(v + 4);
            let name_ptr = mem.read_u32(v + 8);
            let name = String::from_utf8_lossy(&mem.read_cstr(name_ptr)).into_owned();
            vmas.push(Vma { start, end, name });
            v += VMA;
        }
        out.push(ProcessView { pid, comm, vmas });
        addr = v;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TaskWriter {
        let mut w = TaskWriter::new();
        w.upsert(ProcessView {
            pid: 1347,
            comm: "com.tencent.qq".into(),
            vmas: vec![
                Vma {
                    start: 0x1000_0000,
                    end: 0x1002_0000,
                    name: "libtccsync.so".into(),
                },
                Vma {
                    start: 0x6000_0000,
                    end: 0x6010_0000,
                    name: "libdvm.so".into(),
                },
            ],
        });
        w.upsert(ProcessView {
            pid: 2,
            comm: "zygote".into(),
            vmas: vec![],
        });
        w
    }

    #[test]
    fn write_then_reconstruct_roundtrip() {
        let mut mem = Memory::new();
        sample().flush(&mut mem);
        let procs = reconstruct(&mem);
        assert_eq!(procs.len(), 2);
        assert_eq!(procs[0].pid, 1347);
        assert_eq!(procs[0].comm, "com.tencent.qq");
        assert_eq!(procs[0].vmas.len(), 2);
        assert_eq!(procs[0].vmas[0].name, "libtccsync.so");
        assert_eq!(procs[1].comm, "zygote");
    }

    #[test]
    fn module_lookup() {
        let mut mem = Memory::new();
        sample().flush(&mut mem);
        let procs = reconstruct(&mem);
        let p = &procs[0];
        assert_eq!(p.module_at(0x1000_1234).unwrap().name, "libtccsync.so");
        assert_eq!(p.module_at(0x6000_0010).unwrap().name, "libdvm.so");
        assert!(p.module_at(0x9000_0000).is_none());
        assert_eq!(p.module_base("libdvm.so"), Some(0x6000_0000));
        assert_eq!(p.module_base("missing.so"), None);
    }

    #[test]
    fn upsert_replaces() {
        let mut w = sample();
        w.upsert(ProcessView {
            pid: 1347,
            comm: "renamed".into(),
            vmas: vec![],
        });
        let mut mem = Memory::new();
        w.flush(&mut mem);
        let procs = reconstruct(&mem);
        assert_eq!(procs.len(), 2);
        assert_eq!(procs[0].comm, "renamed");
        assert!(procs[0].vmas.is_empty());
    }

    #[test]
    fn add_vma_grows_map() {
        let mut w = sample();
        w.add_vma(
            2,
            Vma {
                start: 0x7000_0000,
                end: 0x7000_1000,
                name: "libc.so".into(),
            },
        );
        let mut mem = Memory::new();
        w.flush(&mut mem);
        let procs = reconstruct(&mem);
        assert_eq!(procs[1].vmas.len(), 1);
        assert_eq!(procs[1].vmas[0].name, "libc.so");
    }

    #[test]
    fn empty_table() {
        let mem = Memory::new();
        assert!(reconstruct(&mem).is_empty());
    }

    /// A guest that claims `u32::MAX` VMAs gets at most [`MAX_VMAS`]
    /// read, with no host allocation sized by its claim.
    #[test]
    fn hostile_vma_count_is_capped() {
        let mut mem = Memory::new();
        sample().flush(&mut mem);
        mem.write_u32(KERNEL_TASKS_BASE + 20, u32::MAX);
        let procs = reconstruct(&mem);
        assert_eq!(procs[0].pid, 1347);
        assert_eq!(procs[0].vmas.len(), MAX_VMAS as usize);
    }

    /// Records that never end (no zero pid) and a count that runs past
    /// the table stop the walk at the table's end: every address read
    /// lies in the region `flush` writes, and nothing wraps.
    #[test]
    fn walk_stays_in_the_task_table() {
        let mut mem = Memory::new();
        for a in (KERNEL_TASKS_BASE..KERNEL_TASKS_BASE + TABLE_SIZE).step_by(4) {
            mem.write_u32(a, 7);
        }
        let procs = reconstruct(&mem);
        // Each record claims 7 VMAs: 24 + 7 * 12 = 108 bytes.
        let whole = (TABLE_SIZE / 108) as usize;
        assert!(
            (whole..=whole + 1).contains(&procs.len()),
            "{} records",
            procs.len()
        );
        assert!(procs.iter().all(|p| p.pid == 7 && p.vmas.len() <= 7));

        // All ones: every record claims `u32::MAX` VMAs, and the last
        // one is cut at the table's end rather than read past it.
        let mut mem = Memory::new();
        for a in (KERNEL_TASKS_BASE..KERNEL_TASKS_BASE + TABLE_SIZE).step_by(4) {
            mem.write_u32(a, u32::MAX);
        }
        let counts: Vec<usize> = reconstruct(&mem).iter().map(|p| p.vmas.len()).collect();
        let last = (TABLE_SIZE - 3 * HEADER - 2 * MAX_VMAS * VMA) / VMA;
        assert_eq!(counts, [MAX_VMAS, MAX_VMAS, last].map(|n| n as usize));
    }

    #[test]
    fn long_comm_truncated() {
        let mut w = TaskWriter::new();
        w.upsert(ProcessView {
            pid: 9,
            comm: "a-very-long-process-name-exceeding".into(),
            vmas: vec![],
        });
        let mut mem = Memory::new();
        w.flush(&mut mem);
        let procs = reconstruct(&mem);
        assert_eq!(procs[0].comm.len(), 15);
    }
}
