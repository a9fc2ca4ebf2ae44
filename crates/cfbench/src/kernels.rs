//! The CF-Bench-analog kernels.

use ndroid_arm::reg::RegList;
use ndroid_arm::{Assembler, Cond, Reg};
use ndroid_core::{Mode, NDroidSystem, SystemConfig};
use ndroid_dvm::bytecode::{BinOp, CmpOp, DexInsn};
use ndroid_dvm::framework::install_framework;
use ndroid_dvm::{ArrayKind, ClassDef, MethodDef, MethodKind, Program};
use ndroid_emu::layout::NATIVE_CODE_BASE;
use ndroid_libc::libc_addr;

/// Which world a kernel exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Third-party native (ARM) code — instruction-traced by NDroid.
    Native,
    /// Dalvik bytecode — tracked by the modified DVM only.
    Java,
}

/// One benchmark kernel.
pub struct Kernel {
    /// CF-Bench row name, e.g. `"Native MIPS"`.
    pub name: &'static str,
    /// Native or Java.
    pub kind: KernelKind,
    runner: fn(&mut NDroidSystem, u32) -> u64,
    setup: fn(&mut NDroidSystem),
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel").field("name", &self.name).finish()
    }
}

impl Kernel {
    /// Boots a fresh system for this kernel under `mode`.
    pub fn boot(&self, mode: Mode) -> NDroidSystem {
        self.boot_with(SystemConfig::new(mode).quiet(true))
    }

    /// Boots a fresh system for this kernel under an explicit
    /// configuration (A/B runs flip knobs like `blocks` or `engine`).
    pub fn boot_with(&self, config: SystemConfig) -> NDroidSystem {
        let mut program = Program::new();
        install_framework(&mut program);
        install_java_kernels(&mut program);
        let mut sys = NDroidSystem::from_config(program, config);
        let code = native_kernel_code();
        sys.load_native(&code, "libcfbench.so");
        sys.mem.write_cstr(PATH_STR, b"/data/bench.bin");
        sys.mem.write_cstr(MODE_W, b"w");
        sys.mem.write_cstr(MODE_R, b"r");
        (self.setup)(&mut sys);
        sys
    }

    /// Runs `iterations` of the kernel, returning abstract work units
    /// completed (for sanity checks).
    pub fn run(&self, sys: &mut NDroidSystem, iterations: u32) -> u64 {
        (self.runner)(sys, iterations)
    }
}

fn no_setup(_: &mut NDroidSystem) {}

fn setup_disk(sys: &mut NDroidSystem) {
    sys.kernel.fs.insert("/data/bench.bin".into(), vec![0xA5; 1 << 16]);
}

/// Entry offsets of the native kernels within the assembled library.
mod entry {
    pub const MIPS: usize = 0;
    pub const MSFLOPS: usize = 1;
    pub const MDFLOPS: usize = 2;
    pub const MALLOCS: usize = 3;
    pub const MEM_READ: usize = 4;
    pub const MEM_WRITE: usize = 5;
    pub const DISK_READ: usize = 6;
    pub const DISK_WRITE: usize = 7;
}

/// Addresses of the eight native kernels (computed once; the code block
/// layout is deterministic).
fn native_entries() -> [u32; 8] {
    let code = native_kernel_code();
    let mut out = [0u32; 8];
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = code.addr_of(kernel_labels(&code)[i]);
    }
    out
}

// Labels can't be extracted from a CodeBlock generically, so the
// assembler records them in a fixed order; rebuild and expose.
use std::sync::OnceLock;
use ndroid_arm::asm::{CodeBlock, Label};

fn kernel_labels(_code: &CodeBlock) -> &'static [Label; 8] {
    // The labels are created in a fixed order by `build_native_kernels`;
    // they are stored alongside the cached code block.
    &CACHE.get().expect("built").1
}

static CACHE: OnceLock<(CodeBlock, [Label; 8])> = OnceLock::new();

/// The assembled native kernel library (cached; identical every build).
pub fn native_kernel_code() -> CodeBlock {
    CACHE.get_or_init(build_native_kernels).0.clone()
}

const SCRATCH: u32 = NATIVE_CODE_BASE + 0x000A_0000;
const PATH_STR: u32 = NATIVE_CODE_BASE + 0x000B_0000;
const MODE_W: u32 = NATIVE_CODE_BASE + 0x000B_0020;
const MODE_R: u32 = NATIVE_CODE_BASE + 0x000B_0040;

fn build_native_kernels() -> (CodeBlock, [Label; 8]) {
    let mut asm = Assembler::new(NATIVE_CODE_BASE);

    // --- MIPS: xorshift integer loop; r0 = iterations -----------------
    let mips = asm.label();
    asm.bind(mips).unwrap();
    asm.ldr_const(Reg::R1, 0x1234_5678);
    let top = asm.here_label();
    asm.lsl_imm(Reg::R2, Reg::R1, 13);
    asm.eor(Reg::R1, Reg::R1, Reg::R2);
    asm.lsr_imm(Reg::R2, Reg::R1, 17);
    asm.eor(Reg::R1, Reg::R1, Reg::R2);
    asm.lsl_imm(Reg::R2, Reg::R1, 5);
    asm.eor(Reg::R1, Reg::R1, Reg::R2);
    asm.subs_imm(Reg::R0, Reg::R0, 1).unwrap();
    asm.b_cond(Cond::Ne, top);
    asm.mov(Reg::R0, Reg::R1);
    asm.bx(Reg::LR);

    // --- MSFLOPS: f32 multiply-add loop -------------------------------
    let msflops = asm.label();
    asm.bind(msflops).unwrap();
    asm.ldr_const(Reg::R1, SCRATCH);
    asm.ldr_const(Reg::R2, 1.0001f32.to_bits());
    asm.str(Reg::R2, Reg::R1, 0);
    asm.vldr_s(0, Reg::R1, 0); // s0 = 1.0001
    asm.vldr_s(1, Reg::R1, 0); // s1 accumulates
    let ftop = asm.here_label();
    asm.vmul_s(1, 1, 0);
    asm.vadd_s(2, 1, 0);
    asm.vsub_s(1, 2, 0);
    asm.subs_imm(Reg::R0, Reg::R0, 1).unwrap();
    asm.b_cond(Cond::Ne, ftop);
    asm.vstr_s(1, Reg::R1, 4);
    asm.bx(Reg::LR);

    // --- MDFLOPS: f64 multiply-add loop -------------------------------
    let mdflops = asm.label();
    asm.bind(mdflops).unwrap();
    asm.ldr_const(Reg::R1, SCRATCH + 64);
    let bits = 1.000001f64.to_bits();
    asm.ldr_const(Reg::R2, bits as u32);
    asm.str(Reg::R2, Reg::R1, 0);
    asm.ldr_const(Reg::R2, (bits >> 32) as u32);
    asm.str(Reg::R2, Reg::R1, 4);
    asm.vldr_d(0, Reg::R1, 0);
    asm.vldr_d(1, Reg::R1, 0);
    let dtop = asm.here_label();
    asm.vmul_d(1, 1, 0);
    asm.vadd_d(2, 1, 0);
    asm.vsub_d(1, 2, 0);
    asm.subs_imm(Reg::R0, Reg::R0, 1).unwrap();
    asm.b_cond(Cond::Ne, dtop);
    asm.vstr_d(1, Reg::R1, 8);
    asm.bx(Reg::LR);

    // --- MALLOCS: malloc/free churn -----------------------------------
    let mallocs = asm.label();
    asm.bind(mallocs).unwrap();
    asm.push(RegList::of(&[Reg::R4, Reg::LR]));
    asm.mov(Reg::R4, Reg::R0);
    let mtop = asm.here_label();
    asm.mov_imm(Reg::R0, 64).unwrap();
    asm.call_abs(libc_addr("malloc"));
    asm.call_abs(libc_addr("free")); // r0 = block from malloc
    asm.subs_imm(Reg::R4, Reg::R4, 1).unwrap();
    asm.b_cond(Cond::Ne, mtop);
    asm.pop(RegList::of(&[Reg::R4, Reg::PC]));

    // --- Memory read: LDR over a 4 KiB window --------------------------
    let mem_read = asm.label();
    asm.bind(mem_read).unwrap();
    asm.ldr_const(Reg::R1, SCRATCH + 0x1000);
    asm.mov_imm(Reg::R2, 0).unwrap(); // offset
    let rtop = asm.here_label();
    asm.ldr_reg(Reg::R3, Reg::R1, Reg::R2);
    asm.add_imm(Reg::R2, Reg::R2, 4).unwrap();
    asm.and_imm(Reg::R2, Reg::R2, 0x3FC).unwrap();
    asm.subs_imm(Reg::R0, Reg::R0, 1).unwrap();
    asm.b_cond(Cond::Ne, rtop);
    asm.bx(Reg::LR);

    // --- Memory write: STR over a 4 KiB window -------------------------
    let mem_write = asm.label();
    asm.bind(mem_write).unwrap();
    asm.ldr_const(Reg::R1, SCRATCH + 0x3000);
    asm.mov_imm(Reg::R2, 0).unwrap();
    asm.mov_imm(Reg::R3, 0xA5).unwrap();
    let wtop = asm.here_label();
    asm.strb_reg(Reg::R3, Reg::R1, Reg::R2);
    asm.add_imm(Reg::R2, Reg::R2, 1).unwrap();
    asm.and_imm(Reg::R2, Reg::R2, 0xFF).unwrap();
    asm.subs_imm(Reg::R0, Reg::R0, 1).unwrap();
    asm.b_cond(Cond::Ne, wtop);
    asm.bx(Reg::LR);

    // --- Disk read: fread chunks from a seeded file ---------------------
    let disk_read = asm.label();
    asm.bind(disk_read).unwrap();
    asm.push(RegList::of(&[Reg::R4, Reg::R5, Reg::LR]));
    asm.mov(Reg::R4, Reg::R0); // iterations
    asm.ldr_const(Reg::R0, PATH_STR);
    asm.ldr_const(Reg::R1, MODE_R);
    asm.call_abs(libc_addr("fopen"));
    asm.mov(Reg::R5, Reg::R0); // FILE*
    let drtop = asm.here_label();
    asm.ldr_const(Reg::R0, SCRATCH + 0x5000); // buf
    asm.mov_imm(Reg::R1, 1).unwrap();
    asm.mov_imm(Reg::R2, 64).unwrap();
    asm.mov(Reg::R3, Reg::R5);
    asm.call_abs(libc_addr("fread"));
    asm.subs_imm(Reg::R4, Reg::R4, 1).unwrap();
    asm.b_cond(Cond::Ne, drtop);
    asm.mov(Reg::R0, Reg::R5);
    asm.call_abs(libc_addr("fclose"));
    asm.pop(RegList::of(&[Reg::R4, Reg::R5, Reg::PC]));

    // --- Disk write: fwrite chunks --------------------------------------
    let disk_write = asm.label();
    asm.bind(disk_write).unwrap();
    asm.push(RegList::of(&[Reg::R4, Reg::R5, Reg::LR]));
    asm.mov(Reg::R4, Reg::R0);
    asm.ldr_const(Reg::R0, PATH_STR);
    asm.ldr_const(Reg::R1, MODE_W);
    asm.call_abs(libc_addr("fopen"));
    asm.mov(Reg::R5, Reg::R0);
    let dwtop = asm.here_label();
    asm.ldr_const(Reg::R0, SCRATCH + 0x6000);
    asm.mov_imm(Reg::R1, 1).unwrap();
    asm.mov_imm(Reg::R2, 64).unwrap();
    asm.mov(Reg::R3, Reg::R5);
    asm.call_abs(libc_addr("fwrite"));
    asm.subs_imm(Reg::R4, Reg::R4, 1).unwrap();
    asm.b_cond(Cond::Ne, dwtop);
    asm.mov(Reg::R0, Reg::R5);
    asm.call_abs(libc_addr("fclose"));
    asm.pop(RegList::of(&[Reg::R4, Reg::R5, Reg::PC]));

    let code = asm.assemble().expect("kernel assembly");
    (
        code,
        [
            mips, msflops, mdflops, mallocs, mem_read, mem_write, disk_read, disk_write,
        ],
    )
}

/// Installs the Java kernels into `program` under `Lbench/Java;`.
fn install_java_kernels(program: &mut Program) {
    let c = program.add_class(ClassDef {
        name: "Lbench/Java;".into(),
        ..ClassDef::default()
    });
    // int mips(int iters): integer xorshift-flavored loop.
    program.add_method(
        c,
        MethodDef::new(
            "mips",
            "II",
            MethodKind::Bytecode(vec![
                // v1 = state; v2 = in-arg iters (reg 2 of 3)
                DexInsn::Const { dst: 0, value: 0x1234_5678 },
                // 1: loop
                DexInsn::BinOpLit { op: BinOp::Shl, dst: 1, a: 0, lit: 13 },
                DexInsn::BinOp { op: BinOp::Xor, dst: 0, a: 0, b: 1 },
                DexInsn::BinOpLit { op: BinOp::Shr, dst: 1, a: 0, lit: 17 },
                DexInsn::BinOp { op: BinOp::Xor, dst: 0, a: 0, b: 1 },
                DexInsn::BinOpLit { op: BinOp::Sub, dst: 2, a: 2, lit: 1 },
                DexInsn::IfTestZ { op: CmpOp::Ne, a: 2, target: 1 },
                DexInsn::Return { src: 0 },
            ]),
        )
        .with_registers(3),
    );
    // int flops(int iters): multiply-add loop (models the FP kernels;
    // the mini-DVM treats all 32-bit primitives uniformly).
    program.add_method(
        c,
        MethodDef::new(
            "flops",
            "II",
            MethodKind::Bytecode(vec![
                DexInsn::Const { dst: 0, value: 10001 },
                DexInsn::BinOpLit { op: BinOp::Mul, dst: 1, a: 0, lit: 3 },
                DexInsn::BinOp { op: BinOp::Add, dst: 0, a: 0, b: 1 },
                DexInsn::BinOpLit { op: BinOp::Sub, dst: 0, a: 0, lit: 7 },
                DexInsn::BinOpLit { op: BinOp::Sub, dst: 2, a: 2, lit: 1 },
                DexInsn::IfTestZ { op: CmpOp::Ne, a: 2, target: 1 },
                DexInsn::Return { src: 0 },
            ]),
        )
        .with_registers(3),
    );
    // int memRead(int iters): aget loop over a 256-element array.
    program.add_method(
        c,
        MethodDef::new(
            "memRead",
            "II",
            MethodKind::Bytecode(vec![
                DexInsn::Const { dst: 0, value: 256 },
                DexInsn::NewArray { dst: 1, size: 0, kind: ArrayKind::Primitive },
                DexInsn::Const { dst: 2, value: 0 }, // idx
                DexInsn::Const { dst: 3, value: 0 }, // acc
                // 4: loop
                DexInsn::ArrayGet { dst: 0, arr: 1, idx: 2 },
                DexInsn::BinOp { op: BinOp::Add, dst: 3, a: 3, b: 0 },
                DexInsn::BinOpLit { op: BinOp::Add, dst: 2, a: 2, lit: 1 },
                DexInsn::BinOpLit { op: BinOp::And, dst: 2, a: 2, lit: 255 },
                DexInsn::BinOpLit { op: BinOp::Sub, dst: 4, a: 4, lit: 1 },
                DexInsn::IfTestZ { op: CmpOp::Ne, a: 4, target: 4 },
                DexInsn::Return { src: 3 },
            ]),
        )
        .with_registers(5),
    );
    // int memWrite(int iters): aput loop.
    program.add_method(
        c,
        MethodDef::new(
            "memWrite",
            "II",
            MethodKind::Bytecode(vec![
                DexInsn::Const { dst: 0, value: 256 },
                DexInsn::NewArray { dst: 1, size: 0, kind: ArrayKind::Primitive },
                DexInsn::Const { dst: 2, value: 0 },
                DexInsn::Const { dst: 3, value: 0xA5 },
                // 4: loop
                DexInsn::ArrayPut { src: 3, arr: 1, idx: 2 },
                DexInsn::BinOpLit { op: BinOp::Add, dst: 2, a: 2, lit: 1 },
                DexInsn::BinOpLit { op: BinOp::And, dst: 2, a: 2, lit: 255 },
                DexInsn::BinOpLit { op: BinOp::Sub, dst: 4, a: 4, lit: 1 },
                DexInsn::IfTestZ { op: CmpOp::Ne, a: 4, target: 4 },
                DexInsn::Return { src: 3 },
            ]),
        )
        .with_registers(5),
    );
}

fn run_native_kernel(sys: &mut NDroidSystem, which: usize, iters: u32) -> u64 {
    let entries = native_entries();
    // Benchmarks re-run a kernel thousands of times on one system;
    // replenish the safety budgets so they never distort timing.
    sys.budget = u64::MAX / 2;
    sys.run_native(entries[which], &[iters])
        .expect("kernel runs");
    iters as u64
}

fn run_java_kernel(sys: &mut NDroidSystem, name: &str, iters: u32) -> u64 {
    sys.budget = u64::MAX / 2;
    sys.dvm.fuel = u64::MAX / 2;
    sys.run_java("Lbench/Java;", name, &[(iters, ndroid_dvm::Taint::CLEAR)])
        .expect("kernel runs");
    iters as u64
}

/// The full CF-Bench-analog kernel list, in Fig. 10 row order.
pub fn all_kernels() -> Vec<Kernel> {
    vec![
        Kernel {
            name: "Native MIPS",
            kind: KernelKind::Native,
            runner: |s, n| run_native_kernel(s, entry::MIPS, n),
            setup: no_setup,
        },
        Kernel {
            name: "Java MIPS",
            kind: KernelKind::Java,
            runner: |s, n| run_java_kernel(s, "mips", n),
            setup: no_setup,
        },
        Kernel {
            name: "Native MSFLOPS",
            kind: KernelKind::Native,
            runner: |s, n| run_native_kernel(s, entry::MSFLOPS, n),
            setup: no_setup,
        },
        Kernel {
            name: "Java MSFLOPS",
            kind: KernelKind::Java,
            runner: |s, n| run_java_kernel(s, "flops", n),
            setup: no_setup,
        },
        Kernel {
            name: "Native MDFLOPS",
            kind: KernelKind::Native,
            runner: |s, n| run_native_kernel(s, entry::MDFLOPS, n),
            setup: no_setup,
        },
        Kernel {
            name: "Java MDFLOPS",
            kind: KernelKind::Java,
            runner: |s, n| run_java_kernel(s, "flops", n),
            setup: no_setup,
        },
        Kernel {
            name: "Native MALLOCS",
            kind: KernelKind::Native,
            runner: |s, n| run_native_kernel(s, entry::MALLOCS, n),
            setup: no_setup,
        },
        Kernel {
            name: "Native Memory Read",
            kind: KernelKind::Native,
            runner: |s, n| run_native_kernel(s, entry::MEM_READ, n),
            setup: no_setup,
        },
        Kernel {
            name: "Java Memory Read",
            kind: KernelKind::Java,
            runner: |s, n| run_java_kernel(s, "memRead", n),
            setup: no_setup,
        },
        Kernel {
            name: "Native Memory Write",
            kind: KernelKind::Native,
            runner: |s, n| run_native_kernel(s, entry::MEM_WRITE, n),
            setup: no_setup,
        },
        Kernel {
            name: "Java Memory Write",
            kind: KernelKind::Java,
            runner: |s, n| run_java_kernel(s, "memWrite", n),
            setup: no_setup,
        },
        Kernel {
            name: "Native Disk Read",
            kind: KernelKind::Native,
            runner: |s, n| run_native_kernel(s, entry::DISK_READ, n),
            setup: setup_disk,
        },
        Kernel {
            name: "Native Disk Write",
            kind: KernelKind::Native,
            runner: |s, n| run_native_kernel(s, entry::DISK_WRITE, n),
            setup: setup_disk,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kernels_run_in_every_mode() {
        for kernel in all_kernels() {
            for mode in [Mode::Vanilla, Mode::TaintDroid, Mode::NDroid] {
                let mut sys = kernel.boot(mode);
                let work = kernel.run(&mut sys, 50);
                assert_eq!(work, 50, "{} under {mode}", kernel.name);
            }
        }
    }

    #[test]
    fn native_kernels_execute_real_instructions() {
        let kernel = &all_kernels()[0]; // Native MIPS
        let mut sys = kernel.boot(Mode::Vanilla);
        let before = sys.native_insns();
        kernel.run(&mut sys, 1000);
        let delta = sys.native_insns() - before;
        assert!(delta > 7000, "8 instructions per iteration: {delta}");
    }

    #[test]
    fn java_kernels_execute_bytecode() {
        let kernel = all_kernels().into_iter().find(|k| k.name == "Java MIPS").unwrap();
        let mut sys = kernel.boot(Mode::Vanilla);
        kernel.run(&mut sys, 1000);
        assert!(sys.bytecodes() > 6000);
    }

    #[test]
    fn disk_kernels_touch_the_fs() {
        let kernels = all_kernels();
        let dw = kernels.iter().find(|k| k.name == "Native Disk Write").unwrap();
        let mut sys = dw.boot(Mode::Vanilla);
        dw.run(&mut sys, 10);
        assert_eq!(
            sys.kernel.fs.get("/data/bench.bin").map(Vec::len),
            Some(640),
            "10 x 64-byte fwrites"
        );
    }

    #[test]
    fn ndroid_taints_nothing_in_clean_kernels() {
        let kernel = &all_kernels()[0];
        let mut sys = kernel.boot(Mode::NDroid);
        kernel.run(&mut sys, 200);
        assert_eq!(sys.shadow.mem.tainted_bytes(), 0, "benchmarks stay clean");
        assert!(sys.leaks().is_empty());
    }
}
