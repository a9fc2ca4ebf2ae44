//! Differential-oracle cost benchmarks: what does soundness checking
//! cost? Measures (a) raw per-effect propagation — the optimized
//! `lower_taint` + `apply_taint_op` into the paged map vs the
//! reference `ref_propagate`
//! into the sparse map — on a recorded effect stream, (b) a full
//! dual-run `check_oracle` on a representative generated program, and
//! (c) a gallery app end-to-end under the optimized engine vs the
//! reference engine (`SystemConfig::reference()`). Writes
//! `BENCH_oracle.json`; `TESTKIT_BENCH_SMOKE=1` runs a minimal pass
//! for CI.

use ndroid_arm::block::lower_taint;
use ndroid_arm::cond::Cond;
use ndroid_arm::encode::encode;
use ndroid_arm::exec::{step, Effect};
use ndroid_arm::insn::{DpOp, Instr, MemOffset, MemSize, Op2, ShiftKind};
use ndroid_arm::reg::Reg;
use ndroid_arm::{Cpu, Memory};
use ndroid_apps::{qq_phonebook, App};
use ndroid_core::oracle::{check_oracle, ref_propagate, OracleProgram};
use ndroid_core::tracer::apply_taint_op;
use ndroid_core::{EngineKind, SystemConfig};
use ndroid_dvm::Taint;
use ndroid_emu::layout::{NATIVE_CODE_BASE, NATIVE_HEAP_BASE, RETURN_SENTINEL};
use ndroid_emu::shadow::{RefShadowState, ShadowState};
use ndroid_testkit::bench::{black_box, Suite};

const DATA: u32 = NATIVE_HEAP_BASE + 0x0001_0000;
const BX_LR: u32 = 0xE12F_FF1E;

/// A mixed straight-line workload: data-processing, loads and stores
/// with immediate and register-writeback addressing — the shapes the
/// tracer's hot path sees.
fn workload() -> Vec<Instr> {
    let mut body = Vec::new();
    for i in 0..8u8 {
        body.push(Instr::Dp {
            cond: Cond::Al,
            op: [DpOp::Add, DpOp::Eor, DpOp::Orr, DpOp::Sub][i as usize % 4],
            s: false,
            rd: [Reg::R0, Reg::R1, Reg::R5, Reg::R6][i as usize % 4],
            rn: Reg::R0,
            op2: Op2::RegShiftImm {
                rm: Reg::R1,
                kind: ShiftKind::Lsl,
                amount: i % 4,
            },
        });
        body.push(Instr::Mem {
            cond: Cond::Al,
            load: i % 2 == 0,
            size: MemSize::Word,
            rd: Reg::R5,
            rn: Reg::R9,
            offset: if i % 3 == 0 {
                MemOffset::Reg {
                    rm: Reg::R2,
                    kind: ShiftKind::Lsl,
                    amount: 0,
                }
            } else {
                MemOffset::Imm(4 * i as u16)
            },
            pre: i % 3 != 2,
            up: true,
            writeback: i % 3 == 0,
        });
    }
    body
}

fn workload_program() -> OracleProgram {
    let mut words: Vec<u32> = workload()
        .iter()
        .map(|i| encode(i).expect("encodable"))
        .collect();
    words.push(BX_LR);
    let mut bytes = Vec::with_capacity(words.len() * 4);
    for w in &words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    let mut p = OracleProgram {
        sections: vec![(NATIVE_CODE_BASE, bytes)],
        entry: NATIVE_CODE_BASE,
        regs: [0; 16],
        reg_taints: [Taint::CLEAR; 16],
        mem_taints: vec![(DATA, 64, Taint::SMS)],
        max_steps: 4096,
    };
    p.regs[2] = 8;
    p.regs[9] = DATA;
    p.reg_taints[1] = Taint::CONTACTS;
    p.reg_taints[2] = Taint::LOCATION;
    p
}

/// Records the effect stream of one run of the workload program.
fn record_effects() -> Vec<Effect> {
    let p = workload_program();
    let mut cpu = Cpu::new();
    let mut mem = Memory::new();
    for (addr, bytes) in &p.sections {
        mem.write_bytes(*addr, bytes);
    }
    cpu.regs = p.regs;
    cpu.regs[14] = RETURN_SENTINEL;
    cpu.set_pc(p.entry);
    let mut effects = Vec::new();
    while cpu.pc() != RETURN_SENTINEL {
        effects.push(step(&mut cpu, &mut mem).expect("workload steps"));
    }
    effects
}

/// Raw propagation cost per engine on an identical effect stream.
fn propagate_benches(suite: &mut Suite) {
    let effects = record_effects();

    let mut shadow = ShadowState::new();
    shadow.regs[1] = Taint::CONTACTS;
    suite.bench("propagate/optimized_paged", || {
        for e in effects.iter().filter(|e| e.executed) {
            apply_taint_op(&mut shadow, &lower_taint(&e.instr), e.addr);
        }
        black_box(shadow.regs[5]);
    });

    let mut reference = RefShadowState::new();
    reference.regs[1] = Taint::CONTACTS;
    suite.bench("propagate/reference_sparse", || {
        for e in &effects {
            ref_propagate(
                &mut reference.regs,
                &mut reference.vfp,
                &mut reference.mem,
                e,
            );
        }
        black_box(reference.regs[5]);
    });
}

/// Full dual-run cross-validation cost for one generated program.
fn dual_run_bench(suite: &mut Suite) {
    let p = workload_program();
    suite.bench("check_oracle/workload_program", || {
        black_box(check_oracle(&p).expect("oracle equality"));
    });
}

/// End-to-end gallery app: optimized engine vs reference engine.
fn gallery_ab_benches(suite: &mut Suite) {
    for engine in [EngineKind::Optimized, EngineKind::Reference] {
        suite.bench(&format!("gallery/qq_phonebook/{engine}"), || {
            let app: App = qq_phonebook::qq_phonebook();
            let sys = app
                .run_with(SystemConfig::ndroid().engine(engine))
                .expect("app run");
            black_box(sys.report().leaks().len());
        });
    }
}

fn main() {
    let mut suite = Suite::new("oracle");
    propagate_benches(&mut suite);
    dual_run_bench(&mut suite);
    gallery_ab_benches(&mut suite);
    suite.finish();
}
