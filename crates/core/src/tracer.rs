//! The instruction tracer: Table V's taint-propagation logic for
//! ARM/Thumb instructions.
//!
//! "By instrumenting third-party native libraries, the instruction
//! tracer monitors each ARM/Thumb instruction to determine how the
//! taint propagates. … Currently, NDROID only supports arithmetic and
//! copy operations" (§V-C). The rules are exactly the rows of Table V,
//! compiled per instruction into a [`TaintOp`] by
//! [`ndroid_arm::block::lower_taint`] and applied by [`apply_taint_op`]:
//!
//! | Format                      | Propagation                            |
//! |-----------------------------|----------------------------------------|
//! | `binary-op Rd, Rn, Rm`      | `t(Rd) = t(Rn) OR t(Rm)`               |
//! | `binary-op Rd, Rm, #imm`    | `t(Rd) = t(Rm)`                        |
//! | `unary Rd, Rm`              | `t(Rd) = t(Rm)`                        |
//! | `mov Rd, #imm`              | `t(Rd) = TAINT_CLEAR`                  |
//! | `mov Rd, Rm`                | `t(Rd) = t(Rm)`                        |
//! | `LDR* Rd, Rn, #imm`         | `t(Rd) = t(M[addr]) OR t(Rn)`          |
//! | `LDM/POP`                   | per-register `t(Ri) = t(M[..]) OR t(Rn)` |
//! | `STR* Rd, Rn, #imm`         | `t(M[addr]) = t(Rd)`                   |
//! | `STM/PUSH`                  | per-register `t(M[..]) = t(Ri)`        |
//!
//! Note the pointer rule: "if the tainted input is the address of an
//! untainted value, the taint will be propagated to it" — loads union
//! the base register's taint into the result.

use ndroid_arm::block::{TaintOp, NO_REG};
use ndroid_arm::insn::VfpPrec;
use ndroid_arm::reg::Reg;
use ndroid_dvm::Taint;
use ndroid_emu::shadow::ShadowState;

/// Applies one instruction's pre-compiled [`TaintOp`] (from a block's
/// effect program, or lowered on the spot by
/// [`lower_taint`](ndroid_arm::block::lower_taint)); `addr` is the
/// executed instruction's effective address (`Effect::addr`). Taking
/// the address alone, not the whole `Effect`, keeps the block executor
/// from spilling each step's `Effect` to memory for the call.
///
/// The caller guarantees the instruction's condition passed
/// (`Effect::executed`); a skipped instruction must simply not be
/// applied. Returns the union of the taints the instruction actually
/// *wrote* (to registers, VFP registers, or shadow memory) — the
/// provenance layer aggregates these over a basic-block run. The
/// reference engine's `ref_propagate` computes the same value
/// independently; the `lowered_ops_match_ref_propagate` differential
/// test below pins the two together shape by shape.
pub fn apply_taint_op(shadow: &mut ShadowState, op: &TaintOp, addr: Option<u32>) -> Taint {
    shadow.ops += 1;
    let mut written = Taint::CLEAR;
    match *op {
        TaintOp::Nop => {}
        TaintOp::SetReg { rd, srcs } => {
            let mut t = Taint::CLEAR;
            let mut m = srcs;
            while m != 0 {
                t |= shadow.regs[m.trailing_zeros() as usize];
                m &= m - 1;
            }
            shadow.regs[rd as usize] = t;
            written |= t;
        }
        TaintOp::Load {
            rd,
            rn,
            rm,
            width,
            wb,
        } => {
            let Some(addr) = addr else {
                return Taint::CLEAR;
            };
            // Writeback first, the destination last — the executor's own
            // write order — so a load with rd == rn keeps the loaded
            // value's taint.
            if wb {
                shadow.regs[rn as usize] |= shadow.regs[rm as usize];
                written |= shadow.regs[rn as usize];
            }
            // t(Rd) = t(M[addr]) OR t(Rn) — the address-taint rule.
            let mut t = shadow.mem.range_taint(addr, width as u32) | shadow.regs[rn as usize];
            if rm != NO_REG {
                t |= shadow.regs[rm as usize];
            }
            if rd != 15 {
                shadow.regs[rd as usize] = t;
                written |= t;
            }
        }
        TaintOp::Store {
            rd,
            rn,
            rm,
            width,
            wb,
        } => {
            let Some(addr) = addr else {
                return Taint::CLEAR;
            };
            if wb {
                shadow.regs[rn as usize] |= shadow.regs[rm as usize];
                written |= shadow.regs[rn as usize];
            }
            // t(M[addr]) = t(Rd) — a SET, not a union.
            shadow
                .mem
                .set_range(addr, width as u32, shadow.regs[rd as usize]);
            written |= shadow.regs[rd as usize];
        }
        TaintOp::LoadMulti { rn, regs } => {
            let Some(start) = addr else {
                return Taint::CLEAR;
            };
            let base_taint = shadow.regs[rn as usize];
            for (i, r) in regs.iter().enumerate() {
                let slot = start.wrapping_add(4 * i as u32);
                let t = shadow.mem.range_taint(slot, 4) | base_taint;
                if r != Reg::PC {
                    shadow.regs[r.index()] = t;
                    written |= t;
                }
            }
        }
        TaintOp::StoreMulti { regs } => {
            let Some(start) = addr else {
                return Taint::CLEAR;
            };
            for (i, r) in regs.iter().enumerate() {
                let slot = start.wrapping_add(4 * i as u32);
                shadow.mem.set_range(slot, 4, shadow.regs[r.index()]);
                written |= shadow.regs[r.index()];
            }
        }
        TaintOp::VfpAlu {
            prec,
            fd,
            fn_,
            fm,
            mov,
        } => {
            let t = match prec {
                VfpPrec::F32 => {
                    let mut t = shadow.vfp[(fm & 31) as usize];
                    if !mov {
                        t |= shadow.vfp[(fn_ & 31) as usize];
                    }
                    t
                }
                VfpPrec::F64 => {
                    let mut t = shadow.vfp[((fm & 15) * 2) as usize]
                        | shadow.vfp[((fm & 15) * 2 + 1) as usize];
                    if !mov {
                        t |= shadow.vfp[((fn_ & 15) * 2) as usize]
                            | shadow.vfp[((fn_ & 15) * 2 + 1) as usize];
                    }
                    t
                }
            };
            match prec {
                VfpPrec::F32 => shadow.vfp[(fd & 31) as usize] = t,
                VfpPrec::F64 => {
                    shadow.vfp[((fd & 15) * 2) as usize] = t;
                    shadow.vfp[((fd & 15) * 2 + 1) as usize] = t;
                }
            }
            written |= t;
        }
        TaintOp::VfpLoad { prec, fd, rn } => {
            let Some(addr) = addr else {
                return Taint::CLEAR;
            };
            let width = if prec == VfpPrec::F64 { 8 } else { 4 };
            let t = shadow.mem.range_taint(addr, width) | shadow.regs[rn as usize];
            match prec {
                VfpPrec::F32 => shadow.vfp[(fd & 31) as usize] = t,
                VfpPrec::F64 => {
                    shadow.vfp[((fd & 15) * 2) as usize] = t;
                    shadow.vfp[((fd & 15) * 2 + 1) as usize] = t;
                }
            }
            written |= t;
        }
        TaintOp::VfpStore { prec, fd } => {
            let Some(addr) = addr else {
                return Taint::CLEAR;
            };
            let width = if prec == VfpPrec::F64 { 8 } else { 4 };
            let t = match prec {
                VfpPrec::F32 => shadow.vfp[(fd & 31) as usize],
                VfpPrec::F64 => {
                    shadow.vfp[((fd & 15) * 2) as usize] | shadow.vfp[((fd & 15) * 2 + 1) as usize]
                }
            };
            shadow.mem.set_range(addr, width, t);
            written |= t;
        }
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndroid_arm::block::lower_taint;
    use ndroid_arm::cond::Cond;
    use ndroid_arm::exec::Effect;
    use ndroid_arm::insn::{AddrMode4, DpOp, Instr, MemOffset, MemSize, Op2, ShiftKind, VfpOp};
    use ndroid_arm::reg::RegList;

    fn eff(instr: Instr, addr: Option<u32>) -> Effect {
        Effect {
            instr,
            pc: 0x1000_0000,
            size: 4,
            executed: true,
            branch: None,
            addr,
            svc: None,
        }
    }

    /// Lowers `e`'s instruction and applies it, as the stepper's
    /// one-step block does for an executed instruction.
    fn apply(sh: &mut ShadowState, e: &Effect) -> Taint {
        apply_taint_op(sh, &lower_taint(&e.instr), e.addr)
    }

    fn dp(op: DpOp, rd: Reg, rn: Reg, op2: Op2) -> Instr {
        Instr::Dp {
            cond: Cond::Al,
            op,
            s: false,
            rd,
            rn,
            op2,
        }
    }

    #[test]
    fn binary_op_unions_taints() {
        let mut sh = ShadowState::new();
        sh.regs[1] = Taint::IMEI;
        sh.regs[2] = Taint::SMS;
        apply(
            &mut sh,
            &eff(dp(DpOp::Add, Reg::R0, Reg::R1, Op2::reg(Reg::R2)), None),
        );
        assert_eq!(sh.regs[0], Taint::IMEI | Taint::SMS);
    }

    #[test]
    fn binary_op_imm_copies_rn_taint() {
        let mut sh = ShadowState::new();
        sh.regs[1] = Taint::CONTACTS;
        apply(
            &mut sh,
            &eff(
                dp(DpOp::Add, Reg::R0, Reg::R1, Op2::encode_imm(4).unwrap()),
                None,
            ),
        );
        assert_eq!(sh.regs[0], Taint::CONTACTS);
    }

    #[test]
    fn mov_imm_clears() {
        let mut sh = ShadowState::new();
        sh.regs[0] = Taint::IMEI;
        apply(
            &mut sh,
            &eff(
                dp(DpOp::Mov, Reg::R0, Reg::R0, Op2::encode_imm(7).unwrap()),
                None,
            ),
        );
        assert_eq!(sh.regs[0], Taint::CLEAR, "mov Rd, #imm clears Rd taint");
    }

    #[test]
    fn mov_reg_copies() {
        let mut sh = ShadowState::new();
        sh.regs[3] = Taint::SMS;
        apply(
            &mut sh,
            &eff(dp(DpOp::Mov, Reg::R0, Reg::R0, Op2::reg(Reg::R3)), None),
        );
        assert_eq!(sh.regs[0], Taint::SMS);
    }

    #[test]
    fn compare_leaves_taint_alone() {
        let mut sh = ShadowState::new();
        sh.regs[0] = Taint::IMEI;
        sh.regs[1] = Taint::SMS;
        apply(
            &mut sh,
            &eff(dp(DpOp::Cmp, Reg::R0, Reg::R0, Op2::reg(Reg::R1)), None),
        );
        assert_eq!(sh.regs[0], Taint::IMEI, "no control-flow taint");
    }

    #[test]
    fn load_unions_memory_and_base_taint() {
        let mut sh = ShadowState::new();
        sh.mem.set_range(0x5000, 4, Taint::SMS);
        sh.regs[1] = Taint::IMEI; // tainted pointer
        let instr = Instr::Mem {
            cond: Cond::Al,
            load: true,
            size: MemSize::Word,
            rd: Reg::R0,
            rn: Reg::R1,
            offset: MemOffset::Imm(0),
            pre: true,
            up: true,
            writeback: false,
        };
        apply(&mut sh, &eff(instr, Some(0x5000)));
        assert_eq!(
            sh.regs[0],
            Taint::SMS | Taint::IMEI,
            "t(Rd) = t(M[addr]) OR t(Rn)"
        );
    }

    #[test]
    fn store_sets_memory_taint() {
        let mut sh = ShadowState::new();
        sh.regs[0] = Taint::CONTACTS;
        sh.mem.set_range(0x6000, 4, Taint::IMEI); // will be overwritten
        let instr = Instr::Mem {
            cond: Cond::Al,
            load: false,
            size: MemSize::Word,
            rd: Reg::R0,
            rn: Reg::R1,
            offset: MemOffset::Imm(0),
            pre: true,
            up: true,
            writeback: false,
        };
        apply(&mut sh, &eff(instr, Some(0x6000)));
        assert_eq!(
            sh.mem.range_taint(0x6000, 4),
            Taint::CONTACTS,
            "t(M[addr]) = t(Rd) is a SET"
        );
    }

    #[test]
    fn byte_store_taints_one_byte() {
        let mut sh = ShadowState::new();
        sh.regs[0] = Taint::SMS;
        let instr = Instr::Mem {
            cond: Cond::Al,
            load: false,
            size: MemSize::Byte,
            rd: Reg::R0,
            rn: Reg::R1,
            offset: MemOffset::Imm(0),
            pre: true,
            up: true,
            writeback: false,
        };
        apply(&mut sh, &eff(instr, Some(0x7000)));
        assert_eq!(sh.mem.get(0x7000), Taint::SMS);
        assert_eq!(sh.mem.get(0x7001), Taint::CLEAR, "byte granularity");
    }

    #[test]
    fn ldm_stm_per_register() {
        let mut sh = ShadowState::new();
        sh.regs[4] = Taint::IMEI;
        sh.regs[5] = Taint::SMS;
        let push = Instr::MemMulti {
            cond: Cond::Al,
            load: false,
            rn: Reg::SP,
            mode: AddrMode4::Db,
            writeback: true,
            regs: RegList::of(&[Reg::R4, Reg::R5]),
        };
        apply(&mut sh, &eff(push, Some(0x8000)));
        assert_eq!(sh.mem.range_taint(0x8000, 4), Taint::IMEI);
        assert_eq!(sh.mem.range_taint(0x8004, 4), Taint::SMS);

        // Pop into different registers.
        sh.regs[4] = Taint::CLEAR;
        sh.regs[5] = Taint::CLEAR;
        let pop = Instr::MemMulti {
            cond: Cond::Al,
            load: true,
            rn: Reg::SP,
            mode: AddrMode4::Ia,
            writeback: true,
            regs: RegList::of(&[Reg::R6, Reg::R7]),
        };
        apply(&mut sh, &eff(pop, Some(0x8000)));
        assert_eq!(sh.regs[6], Taint::IMEI);
        assert_eq!(sh.regs[7], Taint::SMS);
    }

    /// The caller applies only executed instructions: both stepping
    /// analyses leave a condition-failed instruction's taint alone.
    #[test]
    fn skipped_instruction_does_nothing() {
        use crate::analysis::NDroidAnalysis;
        use crate::baseline::DroidScopeLikeAnalysis;
        use ndroid_arm::{Cpu, Memory};
        use ndroid_emu::runtime::Analysis;

        let mut e = eff(dp(DpOp::Mov, Reg::R0, Reg::R0, Op2::reg(Reg::R1)), None);
        e.executed = false;
        let analyses: [&mut dyn Analysis; 2] = [
            &mut NDroidAnalysis::new(),
            &mut DroidScopeLikeAnalysis::default(),
        ];
        for a in analyses {
            let mut sh = ShadowState::new();
            sh.regs[1] = Taint::IMEI;
            a.on_insn(&mut sh, &Cpu::new(), &Memory::new(), &e);
            assert_eq!(sh.regs[0], Taint::CLEAR);
        }
    }

    #[test]
    fn shift_by_register_includes_amount_taint() {
        let mut sh = ShadowState::new();
        sh.regs[2] = Taint::CLEAR; // value
        sh.regs[3] = Taint::SMS; // shift amount is tainted
        apply(
            &mut sh,
            &eff(
                dp(
                    DpOp::Mov,
                    Reg::R0,
                    Reg::R0,
                    Op2::RegShiftReg {
                        rm: Reg::R2,
                        kind: ShiftKind::Lsl,
                        rs: Reg::R3,
                    },
                ),
                None,
            ),
        );
        assert_eq!(sh.regs[0], Taint::SMS);
    }

    #[test]
    fn vfp_propagation() {
        let mut sh = ShadowState::new();
        sh.vfp[2] = Taint::LOCATION_GPS; // d1 low half
        let vadd = Instr::Vfp {
            cond: Cond::Al,
            op: VfpOp::Add,
            prec: VfpPrec::F64,
            fd: 0,
            fn_: 1,
            fm: 2,
        };
        apply(&mut sh, &eff(vadd, None));
        assert_eq!(sh.vfp[0], Taint::LOCATION_GPS);
        assert_eq!(sh.vfp[1], Taint::LOCATION_GPS);
    }

    #[test]
    fn vfp_store_and_load_memory() {
        let mut sh = ShadowState::new();
        sh.vfp[0] = Taint::MIC;
        sh.vfp[1] = Taint::MIC;
        let vstr = Instr::VfpMem {
            cond: Cond::Al,
            load: false,
            prec: VfpPrec::F64,
            fd: 0,
            rn: Reg::R1,
            offset: 0,
            up: true,
        };
        apply(&mut sh, &eff(vstr, Some(0x9000)));
        assert_eq!(sh.mem.range_taint(0x9000, 8), Taint::MIC);
        let vldr = Instr::VfpMem {
            cond: Cond::Al,
            load: true,
            prec: VfpPrec::F32,
            fd: 5,
            rn: Reg::R1,
            offset: 0,
            up: true,
        };
        apply(&mut sh, &eff(vldr, Some(0x9000)));
        assert_eq!(sh.vfp[5], Taint::MIC);
    }

    fn mem_instr(load: bool, pre: bool, writeback: bool, offset: MemOffset) -> Instr {
        Instr::Mem {
            cond: Cond::Al,
            load,
            size: MemSize::Word,
            rd: Reg::R0,
            rn: Reg::R1,
            offset,
            pre,
            up: true,
            writeback,
        }
    }

    #[test]
    fn writeback_register_offset_taints_base() {
        // ldr r0, [r1, r2]!  with tainted r2: the written-back base
        // r1 = r1 + r2 must carry t(r2).
        let mut sh = ShadowState::new();
        sh.regs[2] = Taint::IMEI;
        let instr = mem_instr(
            true,
            true,
            true,
            MemOffset::Reg {
                rm: Reg::R2,
                kind: ShiftKind::Lsl,
                amount: 0,
            },
        );
        apply(&mut sh, &eff(instr, Some(0x5000)));
        assert_eq!(sh.regs[1], Taint::IMEI, "t(Rn) |= t(Rm) on writeback");
        assert_eq!(sh.regs[0], Taint::IMEI, "load result carries address taint");
    }

    #[test]
    fn post_indexed_store_taints_base() {
        // str r0, [r1], r2  with tainted r2: post-indexed forms always
        // write back, so t(r1) gains t(r2); memory taint is t(r0).
        let mut sh = ShadowState::new();
        sh.regs[0] = Taint::SMS;
        sh.regs[2] = Taint::CONTACTS;
        let instr = mem_instr(
            false,
            false,
            false,
            MemOffset::Reg {
                rm: Reg::R2,
                kind: ShiftKind::Lsl,
                amount: 0,
            },
        );
        apply(&mut sh, &eff(instr, Some(0x6000)));
        assert_eq!(sh.regs[1], Taint::CONTACTS, "post-indexed base gains offset taint");
        assert_eq!(sh.mem.range_taint(0x6000, 4), Taint::SMS);
    }

    #[test]
    fn writeback_imm_offset_leaves_base_alone() {
        // ldr r0, [r1], #4 — constant offset, t(Rn) unchanged.
        let mut sh = ShadowState::new();
        sh.regs[1] = Taint::MIC;
        let instr = mem_instr(true, false, false, MemOffset::Imm(4));
        apply(&mut sh, &eff(instr, Some(0x7000)));
        assert_eq!(sh.regs[1], Taint::MIC, "immediate writeback adds nothing");
        assert_eq!(sh.regs[0], Taint::MIC, "pointer rule still applies");
    }

    #[test]
    fn writeback_load_into_base_keeps_loaded_taint() {
        // ldr r1, [r1], r2: the executor writes Rn then Rd, so Rd wins
        // — the final t(r1) is the loaded value's taint union the
        // address taints, not just t(r2).
        let mut sh = ShadowState::new();
        sh.regs[2] = Taint::CONTACTS;
        sh.mem.set_range(0x5000, 4, Taint::SMS);
        let instr = Instr::Mem {
            cond: Cond::Al,
            load: true,
            size: MemSize::Word,
            rd: Reg::R1,
            rn: Reg::R1,
            offset: MemOffset::Reg {
                rm: Reg::R2,
                kind: ShiftKind::Lsl,
                amount: 0,
            },
            pre: false,
            up: true,
            writeback: false,
        };
        apply(&mut sh, &eff(instr, Some(0x5000)));
        assert_eq!(sh.regs[1], Taint::SMS | Taint::CONTACTS);
    }

    /// Differential pin: for every instruction shape the tracer
    /// understands, `lower_taint` + `apply_taint_op` must leave the
    /// shadow state (registers, VFP, memory) and the written-taint
    /// return bit-identical to the reference engine's independent
    /// `ref_propagate`.
    #[test]
    fn lowered_ops_match_ref_propagate() {
        use crate::oracle::ref_propagate;
        use ndroid_emu::shadow::RefShadowState;

        let reg_off = |rm| MemOffset::Reg {
            rm,
            kind: ShiftKind::Lsl,
            amount: 0,
        };
        let cases: Vec<(Instr, Option<u32>)> = vec![
            (dp(DpOp::Add, Reg::R0, Reg::R1, Op2::reg(Reg::R2)), None),
            (
                dp(DpOp::Add, Reg::R0, Reg::R1, Op2::encode_imm(4).unwrap()),
                None,
            ),
            (
                dp(DpOp::Mov, Reg::R0, Reg::R0, Op2::encode_imm(7).unwrap()),
                None,
            ),
            (dp(DpOp::Mov, Reg::R0, Reg::R0, Op2::reg(Reg::R3)), None),
            (dp(DpOp::Cmp, Reg::R0, Reg::R0, Op2::reg(Reg::R1)), None),
            (dp(DpOp::Add, Reg::PC, Reg::R1, Op2::reg(Reg::R2)), None),
            (
                dp(
                    DpOp::Mov,
                    Reg::R0,
                    Reg::R0,
                    Op2::RegShiftReg {
                        rm: Reg::R2,
                        kind: ShiftKind::Lsl,
                        rs: Reg::R3,
                    },
                ),
                None,
            ),
            (
                Instr::Mul {
                    cond: Cond::Al,
                    s: false,
                    rd: Reg::R0,
                    rm: Reg::R1,
                    rs: Reg::R2,
                    acc: Some(Reg::R3),
                },
                None,
            ),
            (mem_instr(true, true, false, MemOffset::Imm(0)), Some(0x5000)),
            (mem_instr(true, true, true, reg_off(Reg::R2)), Some(0x5000)),
            (mem_instr(true, false, false, reg_off(Reg::R2)), Some(0x5000)),
            (mem_instr(false, true, false, MemOffset::Imm(0)), Some(0x6000)),
            (mem_instr(false, false, false, reg_off(Reg::R2)), Some(0x6000)),
            (
                Instr::Mem {
                    cond: Cond::Al,
                    load: true,
                    size: MemSize::Byte,
                    rd: Reg::PC,
                    rn: Reg::R1,
                    offset: reg_off(Reg::R2),
                    pre: false,
                    up: true,
                    writeback: false,
                },
                Some(0x5000),
            ),
            (
                Instr::MemMulti {
                    cond: Cond::Al,
                    load: true,
                    rn: Reg::R1,
                    mode: AddrMode4::Ia,
                    writeback: true,
                    regs: RegList::of(&[Reg::R4, Reg::R5, Reg::PC]),
                },
                Some(0x8000),
            ),
            (
                Instr::MemMulti {
                    cond: Cond::Al,
                    load: false,
                    rn: Reg::SP,
                    mode: AddrMode4::Db,
                    writeback: true,
                    regs: RegList::of(&[Reg::R4, Reg::R5]),
                },
                Some(0x8000),
            ),
            (
                Instr::Vfp {
                    cond: Cond::Al,
                    op: VfpOp::Add,
                    prec: VfpPrec::F64,
                    fd: 0,
                    fn_: 1,
                    fm: 2,
                },
                None,
            ),
            (
                Instr::Vfp {
                    cond: Cond::Al,
                    op: VfpOp::Mov,
                    prec: VfpPrec::F32,
                    fd: 7,
                    fn_: 0,
                    fm: 2,
                },
                None,
            ),
            (
                Instr::Vfp {
                    cond: Cond::Al,
                    op: VfpOp::Cmp,
                    prec: VfpPrec::F32,
                    fd: 0,
                    fn_: 1,
                    fm: 2,
                },
                None,
            ),
            (
                Instr::VfpMem {
                    cond: Cond::Al,
                    load: true,
                    prec: VfpPrec::F64,
                    fd: 1,
                    rn: Reg::R1,
                    offset: 0,
                    up: true,
                },
                Some(0x9000),
            ),
            (
                Instr::VfpMem {
                    cond: Cond::Al,
                    load: false,
                    prec: VfpPrec::F32,
                    fd: 2,
                    rn: Reg::R1,
                    offset: 0,
                    up: true,
                },
                Some(0x9000),
            ),
            (Instr::VfpMrs { cond: Cond::Al }, None),
        ];

        let setup = |regs: &mut [Taint; 16], vfp: &mut [Taint; 32]| {
            regs[1] = Taint::IMEI;
            regs[2] = Taint::SMS;
            regs[3] = Taint::CONTACTS;
            regs[4] = Taint::MIC;
            regs[5] = Taint::LOCATION_GPS;
            vfp[2] = Taint::LOCATION_GPS;
            vfp[4] = Taint::MIC;
            vfp[5] = Taint::SMS;
        };
        let mem_taints = [
            (0x5000, 4, Taint::SMS),
            (0x8000, 8, Taint::CONTACTS),
            (0x9000, 8, Taint::MIC),
        ];

        for (instr, addr) in cases {
            let e = eff(instr, addr);
            let mut a = ShadowState::new();
            let mut b = RefShadowState::new();
            setup(&mut a.regs, &mut a.vfp);
            setup(&mut b.regs, &mut b.vfp);
            for (at, len, t) in mem_taints {
                a.mem.set_range(at, len, t);
                b.mem.set_range(at, len, t);
            }
            let w_lowered = apply_taint_op(&mut a, &lower_taint(&instr), e.addr);
            let w_ref = ref_propagate(&mut b.regs, &mut b.vfp, &mut b.mem, &e);
            assert_eq!(w_lowered, w_ref, "written-taint parity for {instr:?}");
            assert_eq!(a.regs, b.regs, "register parity for {instr:?}");
            assert_eq!(a.vfp, b.vfp, "vfp parity for {instr:?}");
            for p in 0x4FF0u32..0x9040 {
                assert_eq!(
                    a.mem.range_taint(p, 1),
                    b.mem.range_taint(p, 1),
                    "memory parity at {p:#x} for {instr:?}"
                );
            }
        }
    }

    #[test]
    fn ldm_writeback_constant_offset_keeps_base_taint() {
        // ldmia r1!, {r4, r5}: writeback is Rn + 8 — constant — so
        // t(Rn) must be exactly what it was before.
        let mut sh = ShadowState::new();
        sh.regs[1] = Taint::IMEI;
        sh.mem.set_range(0x8000, 8, Taint::SMS);
        let ldm = Instr::MemMulti {
            cond: Cond::Al,
            load: true,
            rn: Reg::R1,
            mode: AddrMode4::Ia,
            writeback: true,
            regs: RegList::of(&[Reg::R4, Reg::R5]),
        };
        apply(&mut sh, &eff(ldm, Some(0x8000)));
        assert_eq!(sh.regs[1], Taint::IMEI, "constant writeback: t(Rn) unchanged");
        assert_eq!(sh.regs[4], Taint::SMS | Taint::IMEI);
    }
}
