//! Table V: the taint-propagation logic for ARM/Thumb instructions,
//! checked row by row with real encoded instructions executed on the
//! emulator and propagated by the NDroid tracer's taint ops.

use ndroid_arm::block::lower_taint;
use ndroid_arm::cond::Cond;
use ndroid_arm::exec::step;
use ndroid_arm::insn::{AddrMode4, DpOp, Instr, MemOffset, MemSize, Op2};
use ndroid_arm::reg::{Reg, RegList};
use ndroid_arm::{encode::encode, Cpu, Memory};
use ndroid_core::tracer::apply_taint_op;
use ndroid_dvm::Taint;
use ndroid_emu::shadow::ShadowState;

use crate::Opts;

struct Row {
    format: &'static str,
    rule: &'static str,
    check: fn() -> bool,
}

/// Executes `instr` once after `setup`, propagating its taint; returns
/// the shadow state.
fn run_one(
    instr: Instr,
    setup: impl FnOnce(&mut Cpu, &mut Memory, &mut ShadowState),
) -> ShadowState {
    let mut cpu = Cpu::new();
    let mut mem = Memory::new();
    let mut shadow = ShadowState::new();
    cpu.set_pc(0x1000_0000);
    cpu.regs[13] = 0x4080_0000;
    setup(&mut cpu, &mut mem, &mut shadow);
    mem.write_u32(0x1000_0000, encode(&instr).expect("encodable"));
    let effect = step(&mut cpu, &mut mem).expect("executes");
    if effect.executed {
        apply_taint_op(&mut shadow, &lower_taint(&effect.instr), effect.addr);
    }
    shadow
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

fn rows() -> Vec<Row> {
    vec![
        Row {
            format: "binary-op Rd, Rn, Rm",
            rule: "t(Rd) = t(Rn) OR t(Rm)",
            check: || {
                let sh = run_one(dp(DpOp::Add, Reg::R0, Reg::R1, Op2::reg(Reg::R2)), |cpu, _, sh| {
                    cpu.regs[1] = 1;
                    cpu.regs[2] = 2;
                    sh.regs[1] = Taint::IMEI;
                    sh.regs[2] = Taint::SMS;
                });
                sh.regs[0] == Taint::IMEI | Taint::SMS
            },
        },
        Row {
            format: "binary-op Rd, Rm (Rd = Rd op Rm)",
            rule: "t(Rd) = t(Rd) OR t(Rm)",
            check: || {
                let sh = run_one(dp(DpOp::Add, Reg::R0, Reg::R0, Op2::reg(Reg::R2)), |cpu, _, sh| {
                    cpu.regs[0] = 1;
                    cpu.regs[2] = 2;
                    sh.regs[0] = Taint::IMEI;
                    sh.regs[2] = Taint::SMS;
                });
                sh.regs[0] == Taint::IMEI | Taint::SMS
            },
        },
        Row {
            format: "binary-op Rd, Rm, #imm",
            rule: "t(Rd) = t(Rm)",
            check: || {
                let sh = run_one(
                    dp(DpOp::Add, Reg::R0, Reg::R1, Op2::encode_imm(4).unwrap()),
                    |cpu, _, sh| {
                        cpu.regs[1] = 10;
                        sh.regs[1] = Taint::CONTACTS;
                    },
                );
                sh.regs[0] == Taint::CONTACTS
            },
        },
        Row {
            format: "unary Rd, Rm",
            rule: "t(Rd) = t(Rm)",
            check: || {
                let sh = run_one(dp(DpOp::Mvn, Reg::R0, Reg::R0, Op2::reg(Reg::R1)), |cpu, _, sh| {
                    cpu.regs[1] = 5;
                    sh.regs[1] = Taint::SMS;
                });
                sh.regs[0] == Taint::SMS
            },
        },
        Row {
            format: "mov Rd, #imm",
            rule: "t(Rd) = TAINT_CLEAR",
            check: || {
                let sh = run_one(
                    dp(DpOp::Mov, Reg::R0, Reg::R0, Op2::encode_imm(7).unwrap()),
                    |_, _, sh| {
                        sh.regs[0] = Taint::IMEI;
                    },
                );
                sh.regs[0].is_clear()
            },
        },
        Row {
            format: "mov Rd, Rm",
            rule: "t(Rd) = t(Rm)",
            check: || {
                let sh = run_one(dp(DpOp::Mov, Reg::R0, Reg::R0, Op2::reg(Reg::R3)), |cpu, _, sh| {
                    cpu.regs[3] = 9;
                    sh.regs[3] = Taint::PHONE_NUMBER;
                });
                sh.regs[0] == Taint::PHONE_NUMBER
            },
        },
        Row {
            format: "LDR* Rd, Rn, #imm",
            rule: "t(Rd) = t(M[addr]) OR t(Rn)",
            check: || {
                let sh = run_one(
                    Instr::Mem {
                        cond: Cond::Al,
                        load: true,
                        size: MemSize::Word,
                        rd: Reg::R0,
                        rn: Reg::R1,
                        offset: MemOffset::Imm(0),
                        pre: true,
                        up: true,
                        writeback: false,
                    },
                    |cpu, mem, sh| {
                        cpu.regs[1] = 0x2A00_0000;
                        mem.write_u32(0x2A00_0000, 0x1234);
                        sh.mem.set_range(0x2A00_0000, 4, Taint::SMS);
                        sh.regs[1] = Taint::IMEI; // tainted pointer
                    },
                );
                sh.regs[0] == Taint::SMS | Taint::IMEI
            },
        },
        Row {
            format: "LDM(POP) regList, Rn",
            rule: "t(Ri) = t(Rn) OR t(M[..])",
            check: || {
                let sh = run_one(
                    Instr::MemMulti {
                        cond: Cond::Al,
                        load: true,
                        rn: Reg::SP,
                        mode: AddrMode4::Ia,
                        writeback: true,
                        regs: RegList::of(&[Reg::R4, Reg::R5]),
                    },
                    |cpu, mem, sh| {
                        cpu.regs[13] = 0x4070_0000;
                        mem.write_u32(0x4070_0000, 11);
                        mem.write_u32(0x4070_0004, 22);
                        sh.mem.set_range(0x4070_0000, 4, Taint::CONTACTS);
                        sh.mem.set_range(0x4070_0004, 4, Taint::SMS);
                    },
                );
                sh.regs[4] == Taint::CONTACTS && sh.regs[5] == Taint::SMS
            },
        },
        Row {
            format: "STR* Rd, Rn, #imm",
            rule: "t(M[addr]) = t(Rd)",
            check: || {
                let sh = run_one(
                    Instr::Mem {
                        cond: Cond::Al,
                        load: false,
                        size: MemSize::Word,
                        rd: Reg::R0,
                        rn: Reg::R1,
                        offset: MemOffset::Imm(0),
                        pre: true,
                        up: true,
                        writeback: false,
                    },
                    |cpu, _, sh| {
                        cpu.regs[0] = 0xBEEF;
                        cpu.regs[1] = 0x2A00_1000;
                        sh.regs[0] = Taint::ICCID;
                    },
                );
                sh.mem.range_taint(0x2A00_1000, 4) == Taint::ICCID
            },
        },
        Row {
            format: "STM(PUSH) regList, Rn",
            rule: "t(M[..]) = t(Ri)",
            check: || {
                let sh = run_one(
                    Instr::MemMulti {
                        cond: Cond::Al,
                        load: false,
                        rn: Reg::SP,
                        mode: AddrMode4::Db,
                        writeback: true,
                        regs: RegList::of(&[Reg::R4, Reg::R5]),
                    },
                    |cpu, _, sh| {
                        cpu.regs[4] = 1;
                        cpu.regs[5] = 2;
                        cpu.regs[13] = 0x4070_0100;
                        sh.regs[4] = Taint::IMEI;
                        sh.regs[5] = Taint::SMS;
                    },
                );
                sh.mem.range_taint(0x4070_00F8, 4) == Taint::IMEI
                    && sh.mem.range_taint(0x4070_00FC, 4) == Taint::SMS
            },
        },
    ]
}

/// Every Table V row must hold; a failed row fails the gate.
pub fn table5(_: &Opts) -> Result<String, String> {
    let mut out = String::new();
    outln!(out, "== Table V — ARM/Thumb taint propagation logic ==\n");
    outln!(out, "{:<36} {:<32} result", "insn format", "propagation rule");
    outln!(out, "{}", "-".repeat(80));
    let all = rows();
    let total = all.len();
    let mut failed = Vec::new();
    for row in all {
        let ok = (row.check)();
        if !ok {
            failed.push(row.format);
        }
        outln!(out, "{:<36} {:<32} {}", row.format, row.rule, if ok { "PASS" } else { "FAIL" });
    }
    outln!(out, "{}", "-".repeat(80));
    outln!(out, "{}/{total} rows verified against real encoded instructions", total - failed.len());
    if !failed.is_empty() {
        return Err(format!("Table V rows FAILED: {failed:?}"));
    }
    outln!(
        out,
        "\ncoverage note: the paper handles 101 ARM + 55 Thumb instructions;\n\
         this reproduction's decoder covers the data-processing, multiply,\n\
         load/store (incl. multiple), branch, SVC and VFP subsets that those\n\
         counts comprise — every decoded instruction flows through the same\n\
         Table V rules checked above."
    );
    Ok(out)
}
