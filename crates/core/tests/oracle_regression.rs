//! Oracle-equality regression tests pinning the soundness bugs the
//! differential oracle exposed:
//!
//! 1. **Writeback taint gap** — `propagate()` ignored base-register
//!    writeback, so `LDR Rd, [Rn], Rm` (and `[Rn, Rm]!`) dropped the
//!    offset register's taint from the base even though the executor
//!    left `Rn = Rn ± Rm` (pointer rule violation, under-taint).
//! 2. **Stale handler classification** — a per-pc classification cache
//!    with no invalidation, so self-modifying code that patched a
//!    cached-irrelevant instruction (a branch) into a store kept being
//!    skipped, losing the store's taint update.
//! 3. **Post-execution re-identification** — the tracer classified an
//!    instruction by re-decoding guest memory *after* it ran, so a
//!    store that overwrote its own word with a branch was classified as
//!    that branch and skipped, dropping the stored taint.
//!
//! Each test asserts the concrete taint fact the buggy pipeline got
//! wrong (failing before the fix) *and* full oracle equality. The last
//! pin guards the superblock executor's own-code-page exit, which the
//! generated programs never exercise.

use ndroid_arm::cond::Cond;
use ndroid_arm::encode::encode;
use ndroid_arm::insn::{DpOp, Instr, MemOffset, MemSize, Op2};
use ndroid_arm::reg::Reg;
use ndroid_core::oracle::{check_oracle, run_optimized, OracleProgram, StopReason};
use ndroid_core::NDroidAnalysis;
use ndroid_dvm::Taint;
use ndroid_emu::layout::{NATIVE_CODE_BASE, NATIVE_HEAP_BASE};
use ndroid_emu::shadow::ShadowState;

const CODE: u32 = NATIVE_CODE_BASE;
const DATA: u32 = NATIVE_HEAP_BASE + 0x0001_0000;
const BX_LR: u32 = 0xE12F_FF1E;

fn program(words: Vec<u32>) -> OracleProgram {
    let mut bytes = Vec::with_capacity(words.len() * 4);
    for w in &words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    OracleProgram {
        sections: vec![(CODE, bytes)],
        entry: CODE,
        regs: [0; 16],
        reg_taints: [Taint::CLEAR; 16],
        mem_taints: Vec::new(),
        max_steps: 256,
    }
}

fn mem(load: bool, rd: Reg, rn: Reg, offset: MemOffset, pre: bool, writeback: bool) -> u32 {
    encode(&Instr::Mem {
        cond: Cond::Al,
        load,
        size: MemSize::Word,
        rd,
        rn,
        offset,
        pre,
        up: true,
        writeback,
    })
    .unwrap()
}

fn reg_off(rm: Reg) -> MemOffset {
    MemOffset::Reg {
        rm,
        kind: ndroid_arm::insn::ShiftKind::Lsl,
        amount: 0,
    }
}

/// Bug 1, post-indexed load: `ldr r0, [r1], r2` with tainted `r2`
/// must leave `t(r1)` carrying the offset taint (the executor leaves
/// `r1 = r1 + r2`). Before the fix, `t(r1)` stayed clear.
#[test]
fn post_indexed_load_writeback_taints_base() {
    let mut p = program(vec![mem(true, Reg::R0, Reg::R1, reg_off(Reg::R2), false, false), BX_LR]);
    p.regs[1] = DATA;
    p.regs[2] = 8;
    p.reg_taints[2] = Taint::CONTACTS;

    let mut analysis = NDroidAnalysis::new();
    let mut shadow = ShadowState::new();
    let run = run_optimized(&p, false, &mut analysis, &mut shadow);
    assert_eq!(run.stop, StopReason::Returned);
    assert!(
        shadow.regs[1].contains(Taint::CONTACTS),
        "writeback must fold the offset register's taint into the base: t(r1) = {:?}",
        shadow.regs[1]
    );
    // And the destination keeps the pointer-rule union.
    assert!(shadow.regs[0].contains(Taint::CONTACTS));

    check_oracle(&p).expect("oracle equality");
}

/// Bug 1, pre-indexed writeback store: `str r0, [r1, r2]!` updates
/// `r1`, so `t(r1) |= t(r2)`; the stored word's taint is `t(r0)`
/// alone.
#[test]
fn pre_indexed_store_writeback_taints_base() {
    let mut p = program(vec![mem(false, Reg::R0, Reg::R1, reg_off(Reg::R2), true, true), BX_LR]);
    p.regs[1] = DATA;
    p.regs[2] = 4;
    p.reg_taints[0] = Taint::SMS;
    p.reg_taints[2] = Taint::LOCATION;

    let mut analysis = NDroidAnalysis::new();
    let mut shadow = ShadowState::new();
    let run = run_optimized(&p, false, &mut analysis, &mut shadow);
    assert_eq!(run.stop, StopReason::Returned);
    assert!(
        shadow.regs[1].contains(Taint::LOCATION),
        "pre-indexed writeback must taint the base: t(r1) = {:?}",
        shadow.regs[1]
    );
    assert_eq!(shadow.mem.range_taint(DATA + 4, 4), Taint::SMS);

    check_oracle(&p).expect("oracle equality");
}

/// Bug 1 control case: an immediate-offset writeback cannot change
/// `t(Rn)` — guards against over-tainting in the fix.
#[test]
fn immediate_writeback_leaves_base_clear() {
    let mut p = program(vec![mem(true, Reg::R0, Reg::R1, MemOffset::Imm(8), false, false), BX_LR]);
    p.regs[1] = DATA;
    p.reg_taints[0] = Taint::SMS; // clobbered by the load

    let mut analysis = NDroidAnalysis::new();
    let mut shadow = ShadowState::new();
    run_optimized(&p, false, &mut analysis, &mut shadow);
    assert_eq!(shadow.regs[1], Taint::CLEAR);
    assert_eq!(shadow.regs[0], Taint::CLEAR);

    check_oracle(&p).expect("oracle equality");
}

/// Bug 2: a two-iteration loop whose body patches its own first
/// instruction. Iteration 1 executes a fall-through branch at
/// `CODE+0` (classified irrelevant, cached) and then overwrites that
/// word with `str r5, [r9]`. Iteration 2 executes the store — the
/// executor's icache re-decodes it correctly, but before the fix the
/// handler cache still said "irrelevant" and the tracer skipped it,
/// silently dropping `t(r5)`'s arrival in memory.
#[test]
fn smc_patched_store_is_reclassified_and_traced() {
    let replacement = mem(false, Reg::R5, Reg::R9, MemOffset::Imm(0), true, false);
    let words = vec![
        // top: victim — b .+4 (falls through)
        encode(&Instr::Branch {
            cond: Cond::Al,
            link: false,
            offset: -4,
        })
        .unwrap(),
        // str r7, [r8] — patches the victim word
        mem(false, Reg::R7, Reg::R8, MemOffset::Imm(0), true, false),
        // subs r10, r10, #1
        encode(&Instr::Dp {
            cond: Cond::Al,
            op: DpOp::Sub,
            s: true,
            rd: Reg::R10,
            rn: Reg::R10,
            op2: Op2::Imm { imm8: 1, rot4: 0 },
        })
        .unwrap(),
        // bne top
        encode(&Instr::Branch {
            cond: Cond::Ne,
            link: false,
            offset: -20,
        })
        .unwrap(),
        BX_LR,
    ];
    let mut p = program(words);
    p.regs[5] = 0xDEAD_BEEF;
    p.regs[7] = replacement;
    p.regs[8] = CODE; // victim address
    p.regs[9] = DATA + 0x100;
    p.regs[10] = 2; // loop counter
    p.reg_taints[5] = Taint::SMS;

    let mut analysis = NDroidAnalysis::new();
    let mut shadow = ShadowState::new();
    let run = run_optimized(&p, false, &mut analysis, &mut shadow);
    assert_eq!(run.stop, StopReason::Returned);
    assert_eq!(
        shadow.mem.range_taint(DATA + 0x100, 4),
        Taint::SMS,
        "the patched-in store must be re-classified and traced"
    );

    check_oracle(&p).expect("oracle equality");
}

/// Same SMC shape in the other direction: a cached-*relevant* mov is
/// patched into a branch; stale classification here would over-trace
/// (harmless for taint but wrong classification counts). Equality
/// must still hold.
#[test]
fn smc_patched_branch_still_agrees() {
    let replacement = encode(&Instr::Branch {
        cond: Cond::Al,
        link: false,
        offset: -4,
    })
    .unwrap();
    let words = vec![
        // top: victim — mov r0, r2 (relevant)
        encode(&Instr::Dp {
            cond: Cond::Al,
            op: DpOp::Mov,
            s: false,
            rd: Reg::R0,
            rn: Reg::R0,
            op2: Op2::RegShiftImm {
                rm: Reg::R2,
                kind: ndroid_arm::insn::ShiftKind::Lsl,
                amount: 0,
            },
        })
        .unwrap(),
        mem(false, Reg::R7, Reg::R8, MemOffset::Imm(0), true, false),
        encode(&Instr::Dp {
            cond: Cond::Al,
            op: DpOp::Sub,
            s: true,
            rd: Reg::R10,
            rn: Reg::R10,
            op2: Op2::Imm { imm8: 1, rot4: 0 },
        })
        .unwrap(),
        encode(&Instr::Branch {
            cond: Cond::Ne,
            link: false,
            offset: -20,
        })
        .unwrap(),
        BX_LR,
    ];
    let mut p = program(words);
    p.regs[7] = replacement;
    p.regs[8] = CODE;
    p.regs[10] = 2;
    p.reg_taints[2] = Taint::CONTACTS;

    check_oracle(&p).expect("oracle equality");
}

/// Bug 3: `str r7, [r8]` with `r8` = the store's own address and `r7`
/// a tainted `b .+4` word. After it runs, guest memory holds a branch
/// where the store was; the stored word must still carry `t(r7)`.
#[test]
fn self_overwriting_store_keeps_its_taint() {
    let branch = encode(&Instr::Branch {
        cond: Cond::Al,
        link: false,
        offset: -4,
    })
    .unwrap();
    let mut p = program(vec![
        mem(false, Reg::R7, Reg::R8, MemOffset::Imm(0), true, false),
        BX_LR,
    ]);
    p.regs[7] = branch;
    p.regs[8] = CODE;
    p.reg_taints[7] = Taint::SMS;

    let mut analysis = NDroidAnalysis::new();
    let mut shadow = ShadowState::new();
    let run = run_optimized(&p, false, &mut analysis, &mut shadow);
    assert_eq!(run.stop, StopReason::Returned);
    assert_eq!(
        shadow.mem.range_taint(CODE, 4),
        Taint::SMS,
        "the store is traced as the store it was, not the branch it wrote"
    );

    check_oracle(&p).expect("oracle equality");
}

/// A store that patches the *next* word of its own superblock:
/// `str r7, [r8]` turns the following `mov r0, #5` into `mov r0, r2`.
/// The block executor must abandon the block after the store, so the
/// patched instruction runs from the fresh bytes and `r0` ends with
/// `r2`'s value and taint rather than the stale pre-decoded `#5`.
#[test]
fn mid_block_patch_of_the_next_word_agrees() {
    let mov = |op2| {
        encode(&Instr::Dp {
            cond: Cond::Al,
            op: DpOp::Mov,
            s: false,
            rd: Reg::R0,
            rn: Reg::R0,
            op2,
        })
        .unwrap()
    };
    let mut p = program(vec![
        mem(false, Reg::R7, Reg::R8, MemOffset::Imm(0), true, false),
        mov(Op2::Imm { imm8: 5, rot4: 0 }),
        BX_LR,
    ]);
    p.regs[2] = 0x1234;
    p.regs[7] = mov(Op2::RegShiftImm {
        rm: Reg::R2,
        kind: ndroid_arm::insn::ShiftKind::Lsl,
        amount: 0,
    });
    p.regs[8] = CODE + 4;
    p.reg_taints[2] = Taint::CONTACTS;

    let v = check_oracle(&p).expect("oracle equality");
    assert_eq!(v.run.stop, StopReason::Returned);
    assert_eq!(v.run.regs[0], 0x1234, "the patched-in mov must run");
}
