//! End-to-end decode-cache behavior through the emulator run loop:
//! `call_guest` fetches through the session's [`DecodeCache`], hot
//! loops are served from it, and host-side writes to a code page make
//! the next run re-decode the new bytes.

use ndroid_arm::{Assembler, Cond, Reg};
use ndroid_dvm::Program;
use ndroid_emu::layout;
use ndroid_emu::runtime::{HostTable, VanillaAnalysis};
use ndroid_emu::testutil::World;

/// A vanilla world with superblock dispatch off: this suite pins the
/// *stepper* path's decode-cache behavior (the block path has its own
/// suite in block_runtime.rs).
fn world() -> World<VanillaAnalysis> {
    let mut w = World::new(Program::new(), HostTable::new(), VanillaAnalysis);
    w.blocks.enabled = false;
    w
}

/// Calls the guest at `entry` with no arguments: R0.
fn call(w: &mut World<VanillaAnalysis>, entry: u32) -> u32 {
    w.call(entry, &[]).expect("guest run").0
}

#[test]
fn run_loop_reuses_the_session_cache_across_calls() {
    let mut asm = Assembler::new(layout::NATIVE_CODE_BASE);
    asm.mov_imm(Reg::R4, 25).unwrap();
    asm.mov_imm(Reg::R0, 0).unwrap();
    let top = asm.here_label();
    asm.add_imm(Reg::R0, Reg::R0, 2).unwrap();
    asm.subs_imm(Reg::R4, Reg::R4, 1).unwrap();
    asm.b_cond(Cond::Ne, top);
    asm.bx(Reg::LR);
    let code = asm.assemble().unwrap();

    let mut w = world();
    w.mem.write_bytes(code.base, &code.bytes);
    assert_eq!(call(&mut w, code.base), 50);
    let hits_first = w.icache.hits;
    assert!(hits_first > 0, "hot loop served from the cache");
    assert_eq!(call(&mut w, code.base), 50);
    assert!(
        w.icache.hits > hits_first,
        "second call reuses decodes from the first (shared session cache)"
    );
}

#[test]
fn host_write_to_code_page_forces_redecode() {
    let base = layout::NATIVE_CODE_BASE;
    let mut asm = Assembler::new(base);
    asm.mov_imm(Reg::R0, 1).unwrap();
    asm.bx(Reg::LR);
    let code = asm.assemble().unwrap();

    let mut w = world();
    w.mem.write_bytes(base, &code.bytes);
    assert_eq!(call(&mut w, base), 1);

    // Patch the first instruction to `mov r0, #3` from the host side.
    let mut asm2 = Assembler::new(base);
    asm2.mov_imm(Reg::R0, 3).unwrap();
    let word = u32::from_le_bytes(asm2.assemble().unwrap().bytes[..4].try_into().unwrap());
    w.mem.write_u32(base, word);

    assert_eq!(call(&mut w, base), 3, "run loop decodes the patched bytes");
    assert!(w.icache.invalidations > 0);
}
