//! Shadow-taint-memory and decode-cache benchmarks. Each range op is
//! measured on both the paged [`TaintMap`] and the pre-paging sparse
//! [`HashTaintMap`] reference so the speedup is a recorded artifact;
//! the decode cache is A/B'd both as a raw `step` vs `step_cached`
//! microbench and end-to-end on cfbench kernels via the
//! `NDroidSystem::icache.enabled` knob. Writes `BENCH_taint.json`;
//! `TESTKIT_BENCH_SMOKE=1` runs a minimal pass for CI.

use ndroid_arm::exec::{step, step_cached};
use ndroid_arm::icache::DecodeCache;
use ndroid_arm::{Assembler, Cond, Cpu, Memory, Reg};
use ndroid_cfbench::all_kernels;
use ndroid_core::Mode;
use ndroid_dvm::Taint;
use ndroid_emu::shadow::{HashTaintMap, TaintMap};
use ndroid_testkit::bench::{black_box, Suite};

/// Base guest address for the taint-map workloads (page-misaligned on
/// purpose so every range op exercises the chunking paths).
const BASE: u32 = 0x4000_0029;
/// Working-set size for the range workloads.
const RANGE: u32 = 64 * 1024;
/// Kernel iterations for the end-to-end cfbench A/B.
const KERNEL_ITERS: u32 = 500;

/// Benchmarks one taint-map implementation. A macro rather than a
/// trait: `HashTaintMap` exists as the reference engine's memory, not
/// as an interchangeable backend, so the shared surface stays informal.
macro_rules! range_benches {
    ($suite:expr, $variant:literal, $map:ty) => {{
        let suite: &mut Suite = $suite;

        let mut m = <$map>::new();
        suite.bench(concat!("set_clear_range/64KiB/", $variant), || {
            m.set_range(BASE, RANGE, Taint::IMEI);
            m.clear_range(BASE, RANGE);
        });

        let mut m = <$map>::new();
        m.set_range(BASE, RANGE, Taint::SMS);
        suite.bench(concat!("add_range/64KiB/", $variant), || {
            m.add_range(BASE, RANGE, Taint::IMEI);
        });

        // One tainted byte per page: the common "mostly clean" shape.
        let mut m = <$map>::new();
        let mut off = 0u32;
        while off < RANGE {
            m.set(BASE + off, Taint::MIC);
            off += 4096;
        }
        suite.bench(concat!("range_taint/64KiB/sparse/", $variant), || {
            black_box(m.range_taint(BASE, RANGE));
        });
        suite.bench(concat!("range_taint/64KiB/clean/", $variant), || {
            black_box(m.range_taint(BASE + 0x0100_0000, RANGE));
        });

        let mut m = <$map>::new();
        m.set_range(BASE, RANGE, Taint::CONTACTS);
        suite.bench(concat!("copy_range/64KiB/", $variant), || {
            m.copy_range(BASE + 0x0020_0000, BASE, RANGE);
        });

        suite.bench(concat!("get/4096_probes/", $variant), || {
            let mut acc = Taint::CLEAR;
            for off in (0..RANGE).step_by(16) {
                acc |= m.get(BASE + off);
            }
            black_box(acc);
        });
    }};
}

fn taint_map_benches(suite: &mut Suite) {
    range_benches!(suite, "paged", TaintMap);
    range_benches!(suite, "hashmap", HashTaintMap);
}

/// Raw fetch/decode/execute loop: `step` re-decodes every instruction,
/// `step_cached` replays decodes from the [`DecodeCache`].
fn decode_cache_benches(suite: &mut Suite) {
    const SENTINEL: u32 = 0xFFFF_FF00;
    let base = 0x0001_0000;
    let mut asm = Assembler::new(base);
    asm.mov_imm(Reg::R4, 64).unwrap();
    asm.mov_imm(Reg::R0, 0).unwrap();
    let top = asm.here_label();
    asm.add_imm(Reg::R0, Reg::R0, 1).unwrap();
    asm.add_imm(Reg::R1, Reg::R1, 2).unwrap();
    asm.add_imm(Reg::R2, Reg::R2, 3).unwrap();
    asm.subs_imm(Reg::R4, Reg::R4, 1).unwrap();
    asm.b_cond(Cond::Ne, top);
    asm.bx(Reg::LR);
    let code = asm.assemble().unwrap();
    let mut mem = Memory::new();
    mem.write_bytes(base, &code.bytes);

    let mut cpu = Cpu::new();
    suite.bench("exec/hot_loop/step", || {
        cpu.regs[14] = SENTINEL;
        cpu.set_pc(base);
        while cpu.pc() != SENTINEL {
            step(&mut cpu, &mut mem).expect("step");
        }
        black_box(cpu.regs[0]);
    });

    let mut cpu = Cpu::new();
    let mut cache = DecodeCache::new();
    suite.bench("exec/hot_loop/step_cached", || {
        cpu.regs[14] = SENTINEL;
        cpu.set_pc(base);
        while cpu.pc() != SENTINEL {
            step_cached(&mut cpu, &mut mem, &mut cache).expect("step");
        }
        black_box(cpu.regs[0]);
    });
}

/// End-to-end steps/sec on cfbench kernels with the session decode
/// cache toggled off/on.
fn cfbench_ab_benches(suite: &mut Suite) {
    let kernels = all_kernels();
    for name in ["Native MIPS", "Native Memory Read"] {
        let kernel = kernels
            .iter()
            .find(|k| k.name == name)
            .expect("known kernel");
        for (variant, enabled) in [("icache_off", false), ("icache_on", true)] {
            let mut sys = kernel.boot(Mode::NDroid);
            sys.icache.enabled = enabled;
            // Superblock dispatch would bypass the decode cache
            // entirely; keep it off so this A/B measures the stepper's
            // cache (the block-path A/B lives in BENCH_blocks.json).
            sys.blocks.enabled = false;
            suite.bench(&format!("cfbench/{name}/{variant}"), || {
                black_box(kernel.run(&mut sys, KERNEL_ITERS));
            });
        }
    }
}

fn main() {
    let mut suite = Suite::new("taint");
    taint_map_benches(&mut suite);
    decode_cache_benches(&mut suite);
    cfbench_ab_benches(&mut suite);
    suite.finish();
}
