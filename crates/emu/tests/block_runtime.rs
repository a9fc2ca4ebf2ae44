//! End-to-end superblock behavior through the emulator run loop:
//! cached blocks serve hot loops as single dispatches, self-patching
//! code rebuilds blocks from fresh bytes, and — the pinned budget
//! contract — `EmuError::Timeout` fires at the *identical* retired
//! instruction count with blocks on and off, including when the budget
//! runs dry mid-block.

use ndroid_arm::{Assembler, Cond, Reg};
use ndroid_dvm::Program;
use ndroid_emu::layout;
use ndroid_emu::runtime::{HostTable, VanillaAnalysis};
use ndroid_emu::testutil::World;
use ndroid_emu::EmuError;

/// A vanilla world with superblock dispatch on or off.
fn world(blocks_on: bool) -> World<VanillaAnalysis> {
    let mut w = World::new(Program::new(), HostTable::new(), VanillaAnalysis);
    w.blocks.enabled = blocks_on;
    w
}

/// Calls the guest at `entry` with no arguments: R0.
fn call(w: &mut World<VanillaAnalysis>, entry: u32) -> Result<u32, EmuError> {
    w.call(entry, &[]).map(|(r0, _)| r0)
}

/// A 25-iteration counted loop: 2 setup instructions, then 3 per
/// iteration (add / subs / bne), then `bx lr` — 78 instructions total.
fn loop_code(w: &mut World<VanillaAnalysis>) -> u32 {
    let mut asm = Assembler::new(layout::NATIVE_CODE_BASE);
    asm.mov_imm(Reg::R4, 25).unwrap();
    asm.mov_imm(Reg::R0, 0).unwrap();
    let top = asm.here_label();
    asm.add_imm(Reg::R0, Reg::R0, 2).unwrap();
    asm.subs_imm(Reg::R4, Reg::R4, 1).unwrap();
    asm.b_cond(Cond::Ne, top);
    asm.bx(Reg::LR);
    let code = asm.assemble().unwrap();
    w.mem.write_bytes(code.base, &code.bytes);
    code.base
}

#[test]
fn hot_loop_served_from_the_block_cache() {
    let mut w = world(true);
    let entry = loop_code(&mut w);
    assert_eq!(call(&mut w, entry).unwrap(), 50);
    assert!(w.blocks.built > 0, "the loop body was compiled");
    assert!(w.blocks.hits > 0, "and re-dispatched from the cache");
    let hits_first = w.blocks.hits;
    assert_eq!(call(&mut w, entry).unwrap(), 50);
    assert!(
        w.blocks.hits > hits_first,
        "second call reuses blocks from the first (shared session cache)"
    );
}

#[test]
fn host_write_to_code_page_rebuilds_blocks() {
    let base = layout::NATIVE_CODE_BASE;
    let mut asm = Assembler::new(base);
    asm.mov_imm(Reg::R0, 1).unwrap();
    asm.bx(Reg::LR);
    let code = asm.assemble().unwrap();

    let mut w = world(true);
    w.mem.write_bytes(base, &code.bytes);
    assert_eq!(call(&mut w, base).unwrap(), 1);

    // Patch the first instruction to `mov r0, #3` from the host side.
    let mut asm2 = Assembler::new(base);
    asm2.mov_imm(Reg::R0, 3).unwrap();
    let word = u32::from_le_bytes(asm2.assemble().unwrap().bytes[..4].try_into().unwrap());
    w.mem.write_u32(base, word);

    assert_eq!(
        call(&mut w, base).unwrap(),
        3,
        "block rebuilt from patched bytes"
    );
    assert!(w.blocks.invalidations > 0);
}

/// The per-instruction budget contract, pinned: for every budget value
/// from 0 through "enough to finish", blocks-on and blocks-off agree
/// exactly on whether the run times out and on how many instructions
/// retired (`cpu.insn_count`). Budgets that land mid-block (the loop
/// body is a 3-instruction block entered dozens of times) are the
/// interesting cases — a block-granular budget would overshoot there.
#[test]
fn timeout_fires_at_identical_retired_count_with_blocks_on_and_off() {
    // 78 instructions end the program; probe every budget through 80.
    for budget in 0u64..=80 {
        let mut outcomes = Vec::new();
        for blocks_on in [true, false] {
            let mut w = world(blocks_on);
            let entry = loop_code(&mut w);
            w.budget = budget;
            let result = call(&mut w, entry);
            let timed_out = match result {
                Ok(r0) => {
                    assert_eq!(r0, 50);
                    false
                }
                Err(EmuError::Timeout) => true,
                Err(other) => panic!("unexpected error at budget {budget}: {other}"),
            };
            outcomes.push((timed_out, w.cpu.insn_count, w.budget));
        }
        assert_eq!(
            outcomes[0], outcomes[1],
            "blocks on/off diverge at budget {budget}: (timed_out, retired, budget_left)"
        );
        // The budget is charged per retired instruction, never per block.
        assert_eq!(
            outcomes[0].1,
            budget.min(78),
            "retired count equals the budget until the program completes"
        );
    }
}

/// Self-modifying code where the *same block* stores into its own code
/// page: execution must abandon the block's stale tail and honor the
/// patched bytes, identically with blocks on and off.
#[test]
fn mid_block_self_patch_is_honored() {
    let base = layout::NATIVE_CODE_BASE;
    let mut results = Vec::new();
    for blocks_on in [true, false] {
        // One straight-line block that patches its own tail:
        //   mov r0, #1
        //   ldr r2, =base+16         (the address of the mov below)
        //   ldr r1, =0xE3A00009      (encoding of `mov r0, #9`)
        //   str r1, [r2]             (overwrite the next instruction)
        //   mov r0, #5               (pre-patch bytes; must NOT run)
        //   bx lr
        let mut asm = Assembler::new(base);
        asm.mov_imm(Reg::R0, 1).unwrap();
        asm.ldr_const(Reg::R2, base + 16);
        asm.ldr_const(Reg::R1, 0xE3A0_0009);
        asm.str(Reg::R1, Reg::R2, 0);
        assert_eq!(asm.here(), base + 16, "patch target is the next word");
        asm.mov_imm(Reg::R0, 5).unwrap();
        asm.bx(Reg::LR);
        let code = asm.assemble().unwrap();

        let mut w = world(blocks_on);
        w.mem.write_bytes(code.base, &code.bytes);
        let r0 = call(&mut w, code.base).unwrap();
        assert_eq!(
            r0, 9,
            "blocks_on={blocks_on}: the store's patched bytes must execute"
        );
        results.push((r0, w.cpu.insn_count));
    }
    assert_eq!(results[0], results[1], "identical retired counts");
}
