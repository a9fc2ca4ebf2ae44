//! Differential-oracle property suite: random ARM/Thumb programs run
//! under both the optimized `NDroidAnalysis` pipeline (decode cache,
//! superblocks and Table V lowered to block steps, paged taint map)
//! and the reference engine (`ref_propagate` + sparse map, no caches),
//! then the final register/VFP/memory taint state is diffed
//! byte-for-byte.
//!
//! Generated programs cover writeback addressing (pre/post, immediate
//! and register offsets), all four LDM/STM modes, conditional
//! execution, VFP, and self-modifying code that patches the loop body
//! mid-run — including a store that overwrites its own word. Failures
//! replay with `TESTKIT_SEED`.
//!
//! Register discipline keeps programs terminating and keeps ordinary
//! data accesses away from the code page (the self-modifying property
//! plants its one code-page store deliberately):
//!
//! - destinations come from a value pool (`r0 r1 r5 r6 r7 r8 r12`),
//! - memory bases are `r9`/`r11`, mutated only by bounded writeback,
//! - register offsets are `r2 r3 r4`, initialized small, never written,
//! - `r10` is the loop counter; nothing else may touch it.

use ndroid_arm::cond::Cond;
use ndroid_arm::encode::encode;
use ndroid_arm::insn::{AddrMode4, DpOp, Instr, MemOffset, MemSize, Op2, ShiftKind, VfpOp, VfpPrec};
use ndroid_arm::reg::{Reg, RegList};
use ndroid_arm::thumb::enc;
use ndroid_core::oracle::{check_oracle, OracleProgram, StopReason};
use ndroid_dvm::Taint;
use ndroid_emu::layout::{NATIVE_CODE_BASE, NATIVE_HEAP_BASE};
use ndroid_testkit::prelude::*;

/// One randomized instruction descriptor: a selector plus raw operand
/// entropy, mapped deterministically to an encodable [`Instr`].
type Desc = (u8, u8, u8, u8, u32);

const CODE: u32 = NATIVE_CODE_BASE;
const DATA: u32 = NATIVE_HEAP_BASE + 0x0001_0000;

const OPOOL: [Reg; 3] = [Reg::R2, Reg::R3, Reg::R4];
const BPOOL: [Reg; 2] = [Reg::R9, Reg::R11];
const CONDS: [Cond; 10] = [
    Cond::Al,
    Cond::Al,
    Cond::Al,
    Cond::Al,
    Cond::Eq,
    Cond::Ne,
    Cond::Cs,
    Cond::Cc,
    Cond::Mi,
    Cond::Pl,
];
const TAINTS: [Taint; 4] = [Taint::CLEAR, Taint::CONTACTS, Taint::SMS, Taint::LOCATION];

fn dp_op2(pool: &[Reg], w: u32) -> Op2 {
    let pick = |n: u32| pool[(n as usize) % pool.len()];
    match w & 3 {
        0 => Op2::Imm {
            imm8: (w >> 8) as u8,
            rot4: ((w >> 16) & 15) as u8,
        },
        1 => Op2::RegShiftReg {
            rm: pick(w >> 4),
            kind: ShiftKind::from_bits(w >> 6),
            rs: pick(w >> 10),
        },
        _ => Op2::RegShiftImm {
            rm: pick(w >> 4),
            kind: ShiftKind::from_bits(w >> 6),
            amount: ((w >> 8) & 31) as u8,
        },
    }
}

/// Single load/store with every addressing mode the tracer must
/// handle: pre/post, immediate/register offset, writeback, all sizes.
fn mem_instr(pool: &[Reg], cond: Cond, a: u8, b: u8, c: u8, w: u32) -> Instr {
    let load = a & 1 != 0;
    let size = if load {
        [
            MemSize::Word,
            MemSize::Byte,
            MemSize::Half,
            MemSize::SignedByte,
            MemSize::SignedHalf,
        ][(a >> 1) as usize % 5]
    } else {
        [MemSize::Word, MemSize::Byte, MemSize::Half][(a >> 1) as usize % 3]
    };
    let half_form = matches!(
        size,
        MemSize::Half | MemSize::SignedByte | MemSize::SignedHalf
    );
    let (pre, writeback) = match c % 3 {
        0 => (true, false),
        1 => (true, true),
        _ => (false, false), // post-indexed: writeback implied
    };
    let offset = if w & 4 != 0 {
        MemOffset::Imm((w >> 4) as u16 & 0xFF)
    } else {
        MemOffset::Reg {
            rm: OPOOL[(w >> 4) as usize % 3],
            kind: ShiftKind::Lsl,
            // Keep address drift bounded; halfword forms cannot shift.
            amount: if half_form { 0 } else { ((w >> 8) & 3) as u8 },
        }
    };
    Instr::Mem {
        cond,
        load,
        size,
        rd: pool[b as usize % pool.len()],
        rn: BPOOL[(w >> 16) as usize % 2],
        offset,
        pre,
        up: w & 8 != 0,
        writeback,
    }
}

/// Maps one descriptor to an instruction, with destinations drawn
/// from `pool`.
fn build_instr(pool: &[Reg], d: Desc) -> Instr {
    let (sel, a, b, c, w) = d;
    let pick = |n: u8| pool[n as usize % pool.len()];
    let cond = CONDS[(w >> 28) as usize % CONDS.len()];
    match sel % 8 {
        0 => {
            let op = [
                DpOp::Add,
                DpOp::Sub,
                DpOp::Rsb,
                DpOp::And,
                DpOp::Orr,
                DpOp::Eor,
                DpOp::Bic,
                DpOp::Adc,
            ][a as usize % 8];
            Instr::Dp {
                cond,
                op,
                s: w & 4 != 0,
                rd: pick(b),
                rn: pick(c),
                op2: dp_op2(pool, w),
            }
        }
        1 => Instr::Dp {
            cond,
            op: if a & 1 == 0 { DpOp::Mov } else { DpOp::Mvn },
            s: false,
            rd: pick(b),
            rn: Reg::R0,
            op2: dp_op2(pool, w),
        },
        2 => Instr::Dp {
            // Flag source for the conditional instructions around it.
            cond: Cond::Al,
            op: [DpOp::Cmp, DpOp::Cmn, DpOp::Tst, DpOp::Teq][a as usize % 4],
            s: true,
            rd: Reg::R0,
            rn: pick(b),
            op2: dp_op2(pool, w),
        },
        3 => Instr::Mul {
            cond,
            s: false,
            rd: pick(a),
            rm: pick(b),
            rs: pick(c),
            acc: if w & 1 != 0 {
                Some(pick((w >> 1) as u8))
            } else {
                None
            },
        },
        4 | 5 => mem_instr(pool, cond, a, b, c, w),
        6 => {
            let mode = [AddrMode4::Ia, AddrMode4::Ib, AddrMode4::Da, AddrMode4::Db]
                [c as usize % 4];
            let mut bits = 0u16;
            for (i, r) in pool.iter().enumerate() {
                if (w >> (8 + i)) & 1 != 0 {
                    bits |= 1 << r.index();
                }
            }
            if bits == 0 {
                bits = 1 << pool[0].index();
            }
            Instr::MemMulti {
                cond,
                load: a & 1 != 0,
                rn: BPOOL[b as usize % 2],
                mode,
                writeback: w & 1 != 0,
                regs: RegList(bits),
            }
        }
        _ => {
            let prec = if w & 1 != 0 { VfpPrec::F64 } else { VfpPrec::F32 };
            if a & 1 != 0 {
                Instr::VfpMem {
                    cond,
                    load: a & 2 != 0,
                    prec,
                    fd: b % 8,
                    rn: BPOOL[c as usize % 2],
                    offset: (w >> 4) as u16 & 0x3C,
                    up: w & 2 != 0,
                }
            } else {
                Instr::Vfp {
                    cond,
                    op: [
                        VfpOp::Add,
                        VfpOp::Sub,
                        VfpOp::Mul,
                        VfpOp::Div,
                        VfpOp::Mov,
                        VfpOp::Cmp,
                    ][b as usize % 6],
                    prec,
                    fd: (a >> 1) & 7,
                    fn_: c & 7,
                    fm: (w >> 4) as u8 & 7,
                }
            }
        }
    }
}

/// Initial registers/taints derived from the seed words.
fn seed_env(p: &mut OracleProgram, values: u32, tmask: u32, mem_seed: u32) {
    for (i, r) in [0usize, 1, 5, 6, 7, 8, 12].into_iter().enumerate() {
        p.regs[r] = values.rotate_left(5 * i as u32) ^ (r as u32).wrapping_mul(0x9E37_79B9);
    }
    for (i, r) in [2usize, 3, 4].into_iter().enumerate() {
        p.regs[r] = (values >> (10 * i)) & 0x3FF; // small: bounded drift
    }
    p.regs[9] = DATA + ((values >> 3) & 0xFFC);
    p.regs[11] = DATA + 0x8000 + ((values >> 13) & 0xFFC);
    p.regs[10] = 2; // loop counter
    p.regs[13] = DATA + 0xF000;
    for i in 0..16 {
        p.reg_taints[i] = TAINTS[((tmask >> (2 * i)) & 3) as usize];
    }
    for k in 0..3u32 {
        let off = (mem_seed >> (10 * k)) & 0x3FF;
        let t = TAINTS[1 + ((mem_seed >> (30 - k)) % 3) as usize];
        p.mem_taints.push((DATA + 0x4000 + off, 8, t));
    }
}

fn words_to_bytes(words: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(words.len() * 4);
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

const BX_LR: u32 = 0xE12F_FF1E;

/// Wraps `body` in a two-iteration counted loop (`r10`):
/// `top: body…; subs r10,r10,#1; bne top; bx lr`.
fn arm_loop_program(body: &[Instr], seeds: (u32, u32, u32)) -> OracleProgram {
    let mut words: Vec<u32> = body
        .iter()
        .map(|i| encode(i).expect("generated instruction must encode"))
        .collect();
    words.push(
        encode(&Instr::Dp {
            cond: Cond::Al,
            op: DpOp::Sub,
            s: true,
            rd: Reg::R10,
            rn: Reg::R10,
            op2: Op2::Imm { imm8: 1, rot4: 0 },
        })
        .unwrap(),
    );
    let bne_index = words.len() as i32;
    words.push(
        encode(&Instr::Branch {
            cond: Cond::Ne,
            link: false,
            offset: -(bne_index * 4 + 8),
        })
        .unwrap(),
    );
    words.push(BX_LR);
    let mut p = OracleProgram {
        sections: vec![(CODE, words_to_bytes(&words))],
        entry: CODE,
        regs: [0; 16],
        reg_taints: [Taint::CLEAR; 16],
        mem_taints: Vec::new(),
        max_steps: 4096,
    };
    seed_env(&mut p, seeds.0, seeds.1, seeds.2);
    p
}

fn assert_agrees(p: &OracleProgram) {
    match check_oracle(p) {
        Ok(v) => {
            prop_assert_eq!(v.run.stop, StopReason::Returned, "program did not return");
        }
        Err(diff) => panic!("oracle divergence:\n{diff}"),
    }
}

const VPOOL: [Reg; 7] = [
    Reg::R0,
    Reg::R1,
    Reg::R5,
    Reg::R6,
    Reg::R7,
    Reg::R8,
    Reg::R12,
];

proptest! {
    /// Mixed ARM programs: data-processing (all shifter forms),
    /// multiply, every load/store addressing mode, LDM/STM in all
    /// four modes, VFP, conditional execution — run twice through a
    /// counted loop so flags differ between iterations.
    #[test]
    fn random_arm_programs_agree(
        descs in collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u32>()),
            0..20,
        ),
        seeds in (any::<u32>(), any::<u32>(), any::<u32>()),
    ) {
        let body: Vec<Instr> = descs.iter().map(|d| build_instr(&VPOOL, *d)).collect();
        assert_agrees(&arm_loop_program(&body, seeds));
    }

    /// Writeback-dense programs: every descriptor becomes a single
    /// load/store, so pre/post-indexed register-offset writeback (the
    /// satellite-1 taint gap) is hit constantly.
    #[test]
    fn writeback_dense_programs_agree(
        descs in collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u32>()),
            1..16,
        ),
        seeds in (any::<u32>(), any::<u32>(), any::<u32>()),
    ) {
        let body: Vec<Instr> = descs
            .iter()
            .map(|&(a, b, c, w)| {
                let cond = CONDS[(w >> 28) as usize % CONDS.len()];
                mem_instr(&VPOOL, cond, a, b, c, w)
            })
            .collect();
        assert_agrees(&arm_loop_program(&body, seeds));
    }

    /// Self-modifying code: a store later in the loop body (`str r7,
    /// [r8]`) patches a word of the body into a random store, so the
    /// second iteration runs code the first iteration's decode and
    /// superblock caches never saw. `r7` holds the replacement word,
    /// `r8` the target address; the body pool excludes both. The
    /// target is either a harmless fall-through branch planted in the
    /// body (an irrelevant instruction turning relevant) or the patch
    /// store itself (a store overwriting its own word in the same
    /// step).
    #[test]
    fn smc_reclassification_agrees(
        descs in collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u32>()),
            0..8,
        ),
        vix in any::<u8>(),
        repl in (any::<u8>(), any::<u8>(), any::<u32>()),
        seeds in (any::<u32>(), any::<u32>(), any::<u32>()),
    ) {
        let pool = [Reg::R0, Reg::R1, Reg::R5, Reg::R6, Reg::R12];
        let mut body: Vec<Instr> = descs.iter().map(|d| build_instr(&pool, *d)).collect();
        // One slot per place the planted branch can go, plus one for
        // the patch store itself.
        let pick = vix as usize % (body.len() + 2);
        let victim_index = pick.min(body.len());
        body.insert(victim_index, Instr::Branch { cond: Cond::Al, link: false, offset: -4 });
        // Patch instruction, after the branch: str r7, [r8].
        body.push(Instr::Mem {
            cond: Cond::Al,
            load: false,
            size: MemSize::Word,
            rd: Reg::R7,
            rn: Reg::R8,
            offset: MemOffset::Imm(0),
            pre: true,
            up: true,
            writeback: false,
        });
        let target = if pick > victim_index { body.len() - 1 } else { victim_index };
        // Replacement: a store of a pool register to a data base —
        // relevant to the tracer, unlike the branch it replaces.
        let replacement = Instr::Mem {
            cond: Cond::Al,
            load: false,
            size: MemSize::Word,
            rd: pool[repl.0 as usize % pool.len()],
            rn: BPOOL[repl.1 as usize % 2],
            offset: MemOffset::Imm(repl.2 as u16 & 0xFC),
            pre: true,
            up: true,
            writeback: false,
        };
        let mut p = arm_loop_program(&body, seeds);
        p.regs[7] = encode(&replacement).unwrap();
        p.regs[8] = CODE + 4 * target as u32;
        assert_agrees(&p);
    }

    /// Thumb programs: straight-line 16-bit code (moves, ALU, loads/
    /// stores with immediate and register offsets, push/pop,
    /// conditional forward skips), ending in `bx lr`.
    #[test]
    fn random_thumb_programs_agree(
        descs in collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u32>()),
            0..24,
        ),
        seeds in (any::<u32>(), any::<u32>(), any::<u32>()),
    ) {
        let tv = |n: u8| [Reg::R0, Reg::R1][n as usize % 2];
        let ts = |n: u8| [Reg::R0, Reg::R1, Reg::R2, Reg::R3][n as usize % 4];
        let skip_conds = [Cond::Eq, Cond::Ne, Cond::Cs, Cond::Cc, Cond::Mi, Cond::Pl];
        let mut halves: Vec<u16> = Vec::new();
        for &(sel, a, b, w) in &descs {
            match sel % 10 {
                0 => halves.push(enc::mov_imm(tv(a), w as u8)),
                1 => halves.push(if w & 1 != 0 {
                    enc::add_imm8(tv(a), w as u8)
                } else {
                    enc::sub_imm8(tv(a), w as u8)
                }),
                2 => halves.push(if w & 1 != 0 {
                    enc::add_reg(tv(a), ts(b), ts((w >> 8) as u8))
                } else {
                    enc::sub_reg(tv(a), ts(b), ts((w >> 8) as u8))
                }),
                3 => halves.push(enc::lsl_imm(tv(a), ts(b), (w & 7) as u8)),
                4 => halves.push(enc::alu((w >> 4) as u16 & 15, tv(a), ts(b))),
                5 => halves.push(if w & 1 != 0 {
                    enc::ldr_imm(tv(a), Reg::R4, (w >> 1) as u8 & 31)
                } else {
                    enc::ldrb_imm(tv(a), Reg::R4, (w >> 1) as u8 & 31)
                }),
                6 => halves.push(if w & 1 != 0 {
                    enc::str_imm(ts(b), Reg::R4, (w >> 1) as u8 & 31)
                } else {
                    enc::strb_imm(ts(b), Reg::R4, (w >> 1) as u8 & 31)
                }),
                7 => halves.push(if w & 1 != 0 {
                    enc::ldr_reg(tv(a), Reg::R4, [Reg::R2, Reg::R3][b as usize % 2])
                } else {
                    enc::str_reg(ts(b), Reg::R4, [Reg::R2, Reg::R3][b as usize % 2])
                }),
                8 => {
                    // Conditional forward skip over the next instruction.
                    halves.push(enc::cmp_imm(tv(a), w as u8));
                    halves.push(enc::b_cond(skip_conds[b as usize % 6], 0));
                }
                _ => {
                    let push_bits = (w as u8 & 0xF) | 1;
                    let pop_bits = ((w >> 4) as u8 & 3) | 1; // only r0/r1 back
                    halves.push(enc::push(push_bits, false));
                    halves.push(enc::pop(pop_bits, false));
                }
            }
        }
        // Tail: a nop buffer (so a trailing skip cannot jump past the
        // return) and bx lr.
        halves.push(enc::mov_hi(Reg::R8, Reg::R8));
        halves.push(enc::bx(Reg::LR));
        let mut bytes = Vec::with_capacity(halves.len() * 2);
        for h in &halves {
            bytes.extend_from_slice(&h.to_le_bytes());
        }
        let mut p = OracleProgram {
            sections: vec![(CODE, bytes)],
            entry: CODE | 1,
            regs: [0; 16],
            reg_taints: [Taint::CLEAR; 16],
            mem_taints: Vec::new(),
            max_steps: 4096,
        };
        seed_env(&mut p, seeds.0, seeds.1, seeds.2);
        p.regs[4] = DATA + ((seeds.0 >> 7) & 0xFFC); // thumb base register
        p.regs[2] &= 0x7C; // thumb reg offsets: word-ish, small
        p.regs[3] &= 0x7C;
        assert_agrees(&p);
    }
}
