//! Ablation bench for design decision D2 of DESIGN.md §5, timed by the
//! hermetic `ndroid_testkit::bench` suite (writes
//! `BENCH_ablations.json`; `TESTKIT_BENCH_SMOKE=1` for a CI smoke
//! pass): a modeled `memcpy` host call vs. an instruction-traced ARM
//! `memcpy` loop. D1 (multilevel hooking) is a deterministic count,
//! not a timing: `exp multilevel` prints how many instrumentations the
//! gating avoided, pinned by its golden.

use ndroid_arm::reg::RegList;
use ndroid_arm::{Assembler, Cond, Reg};
use ndroid_dvm::framework::install_framework;
use ndroid_dvm::{Program, Taint};
use ndroid_emu::layout::NATIVE_CODE_BASE;
use ndroid_libc::libc_addr;
use ndroid_testkit::bench::Suite;

const SRC: u32 = 0x2000_0000;
const DST: u32 = 0x2000_4000;
const LEN: u32 = 4096;

/// D2 baseline: `memcpy` as a single modeled host call.
fn modeled_memcpy_app() -> ndroid_core::NDroidSystem {
    let mut asm = Assembler::new(NATIVE_CODE_BASE);
    asm.push(RegList::of(&[Reg::LR]));
    asm.ldr_const(Reg::R0, DST);
    asm.ldr_const(Reg::R1, SRC);
    asm.ldr_const(Reg::R2, LEN);
    asm.call_abs(libc_addr("memcpy"));
    asm.pop(RegList::of(&[Reg::PC]));
    build_sys(asm)
}

/// D2 ablation: a real ARM byte-copy loop traced instruction by
/// instruction (what NDroid would pay without the Table VI models).
fn traced_memcpy_app() -> ndroid_core::NDroidSystem {
    let mut asm = Assembler::new(NATIVE_CODE_BASE);
    asm.ldr_const(Reg::R0, DST);
    asm.ldr_const(Reg::R1, SRC);
    asm.ldr_const(Reg::R2, LEN);
    let top = asm.here_label();
    asm.ldrb(Reg::R3, Reg::R1, 0);
    asm.strb(Reg::R3, Reg::R0, 0);
    asm.add_imm(Reg::R0, Reg::R0, 1).unwrap();
    asm.add_imm(Reg::R1, Reg::R1, 1).unwrap();
    asm.subs_imm(Reg::R2, Reg::R2, 1).unwrap();
    asm.b_cond(Cond::Ne, top);
    asm.bx(Reg::LR);
    build_sys(asm)
}

fn build_sys(asm: Assembler) -> ndroid_core::NDroidSystem {
    let mut program = Program::new();
    install_framework(&mut program);
    let mut sys = ndroid_core::NDroidSystem::from_config(
        program,
        ndroid_core::SystemConfig::ndroid().quiet(true),
    );
    let code = asm.assemble().unwrap();
    sys.load_native(&code, "libablate.so");
    sys.shadow.mem.set_range(SRC, LEN, Taint::SMS);
    sys
}

fn ablate_libc_model(suite: &mut Suite) {
    let mut sys = modeled_memcpy_app();
    suite.bench("ablate_libc_model/modeled_memcpy_hostcall", || {
        sys.run_native(NATIVE_CODE_BASE, &[]).unwrap();
    });
    let mut sys = traced_memcpy_app();
    suite.bench("ablate_libc_model/traced_memcpy_arm_loop", || {
        sys.run_native(NATIVE_CODE_BASE, &[]).unwrap();
    });
}

fn main() {
    let mut suite = Suite::new("ablations");
    ablate_libc_model(&mut suite);
    suite.finish();
}
