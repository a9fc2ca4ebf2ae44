//! Error-path coverage of the emulator runtime: host-function
//! failures, undefined instructions, and budget exhaustion in nested
//! contexts.

use ndroid_arm::reg::RegList;
use ndroid_arm::Reg;
use ndroid_dvm::{DvmError, Program};
use ndroid_emu::layout;
use ndroid_emu::runtime::{HostTable, VanillaAnalysis};
use ndroid_emu::testutil::World;
use ndroid_emu::EmuError;

/// A vanilla world with the host functions `table` and 100 000
/// instructions of budget.
fn world(table: HostTable) -> World<VanillaAnalysis> {
    let mut w = World::new(Program::new(), table, VanillaAnalysis);
    w.budget = 100_000;
    w
}

#[test]
fn host_error_carries_function_name() {
    const FAILER: u32 = layout::LIBC_BASE + 0x7000;
    let mut table = HostTable::new();
    table.register(FAILER, "exploder", |_, _| {
        Err(EmuError::Kernel("boom".into()))
    });
    let mut w = world(table);
    let entry = w.load(|asm| {
        asm.push(RegList::of(&[Reg::LR]));
        asm.call_abs(FAILER);
        asm.pop(RegList::of(&[Reg::PC]));
    });
    let err = w.call(entry, &[]).unwrap_err();
    assert_eq!(
        err,
        EmuError::Host {
            name: "exploder".into(),
            source: Box::new(EmuError::Kernel("boom".into())),
        }
    );
}

#[test]
fn branch_into_nothing_burns_budget_not_the_host() {
    // Zero-filled memory decodes as `ANDEQ r0, r0, r0` — architecturally
    // valid no-ops — so a wild branch spins until the budget trips
    // (exactly how a real emulator would march through zeroed pages).
    let mut w = world(HostTable::new());
    w.budget = 500;
    let entry = w.load(|asm| {
        asm.ldr_const(Reg::R12, 0x0BAD_0000); // unmapped, not a host fn
        asm.bx(Reg::R12);
    });
    let err = w.call(entry, &[]).unwrap_err();
    assert_eq!(err, EmuError::Timeout);
}

#[test]
fn truly_undefined_word_is_rejected() {
    let mut w = world(HostTable::new());
    let entry = w.load(|asm| {
        asm.word(0xF000_0000); // cond=1111 space: undefined in our subset
    });
    let err = w.call(entry, &[]).unwrap_err();
    assert!(
        matches!(
            err,
            EmuError::Arm(ndroid_arm::ArmError::UndefinedInstruction { .. })
        ),
        "{err}"
    );
}

#[test]
fn budget_exhaustion_reports_timeout() {
    let mut w = world(HostTable::new());
    w.budget = 50;
    let entry = w.load(|asm| {
        let top = asm.here_label();
        asm.b(top);
    });
    let err = w.call(entry, &[]).unwrap_err();
    assert_eq!(err, EmuError::Timeout);
}

#[test]
fn registers_restored_even_after_error() {
    let mut w = world(HostTable::new());
    w.cpu.regs[4] = 0x1234_5678;
    let sp = w.cpu.regs[13];
    w.budget = 50;
    let entry = w.load(|asm| {
        asm.mov_imm(Reg::R4, 0).unwrap();
        let top = asm.here_label();
        asm.b(top);
    });
    let _ = w.call(entry, &[]).unwrap_err();
    assert_eq!(w.cpu.regs[4], 0x1234_5678, "caller state restored on error");
    assert_eq!(w.cpu.regs[13], sp);
}

#[test]
fn duplicate_host_registration_panics() {
    let result = std::panic::catch_unwind(|| {
        let mut table = HostTable::new();
        table.register(0x6800_0000, "a", |_, _| Ok(0));
        table.register(0x6800_0000, "b", |_, _| Ok(0));
    });
    assert!(result.is_err());
}

#[test]
fn host_fn_can_set_secondary_return_register() {
    const WIDE: u32 = layout::LIBC_BASE + 0x7100;
    let mut table = HostTable::new();
    table.register(WIDE, "wide_ret", |ctx, _| {
        ctx.cpu.regs[1] = 0xDEAD_0000;
        Ok(0x0000_BEEF)
    });
    let mut w = world(table);
    let entry = w.load(|asm| {
        asm.push(RegList::of(&[Reg::LR]));
        asm.call_abs(WIDE);
        // Store r0:r1 so the test can see both halves.
        asm.ldr_const(Reg::R2, 0x2000_0000);
        asm.str(Reg::R0, Reg::R2, 0);
        asm.str(Reg::R1, Reg::R2, 4);
        asm.pop(RegList::of(&[Reg::PC]));
    });
    w.call(entry, &[]).unwrap();
    assert_eq!(w.mem.read_u32(0x2000_0000), 0x0000_BEEF);
    assert_eq!(w.mem.read_u32(0x2000_0004), 0xDEAD_0000);
}

/// `is_budget_exhausted` reads the root cause through `Host` and `Dvm`
/// wrappers and the native→DVM flag, never the message text.
#[test]
fn budget_exhaustion_is_read_through_the_wrappers() {
    let host = |e| EmuError::Host { name: "CallVoidMethodA".into(), source: Box::new(e) };
    let native = |budget_exhausted| DvmError::NativeFailure {
        message: EmuError::Timeout.to_string(),
        budget_exhausted,
    };
    for e in [
        EmuError::Timeout,
        EmuError::Dvm(DvmError::OutOfFuel),
        host(EmuError::Dvm(native(true))),
        host(host(EmuError::Timeout)),
    ] {
        assert!(e.is_budget_exhausted(), "{e:?}");
    }
    // The text does not decide: this one reads like a timeout.
    for e in [host(EmuError::Dvm(native(false))), host(EmuError::Kernel("x".into()))] {
        assert!(!e.is_budget_exhausted(), "{e:?}");
    }
}
