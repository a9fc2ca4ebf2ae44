//! The hook engines: the Tables II–IV JNI inventory, Fig. 5 multilevel
//! hooking, and the §VII taint-protection extension.

use ndroid_apps::AppBuilder;
use ndroid_arm::reg::RegList;
use ndroid_arm::Reg;
use ndroid_core::{Mode, NDroidAnalysis};
use ndroid_dvm::bytecode::DexInsn;
use ndroid_dvm::{InvokeKind, MethodDef, MethodKind};
use ndroid_emu::runtime::Analysis;
use ndroid_emu::shadow::ShadowState;
use ndroid_jni::calls::call_family_names;
use ndroid_jni::{dvm_addr, jni_names, DVM_INTERNAL_NAMES};
use ndroid_libc::registry::SINK_NAMES;
use ndroid_libc::{LIBC_MODELED, LIBC_NAMES, LIBM_NAMES};

use crate::Opts;

/// Tables II, III and IV: the JNI function inventory the DVM hook
/// engine instruments, checked against what this reproduction
/// registers; plus the Tables VI/VII libc and libm counts.
pub fn tables234(_: &Opts) -> Result<String, String> {
    let mut out = String::new();
    outln!(out, "== Table II — JNI methods for invoking Java methods ==");
    let family = call_family_names();
    outln!(
        out,
        "  Call<Type>Method{{,V,A}} x {{virtual, nonvirtual, static}}: {} functions",
        family.len()
    );
    for kind in ["Call", "CallNonvirtual", "CallStatic"] {
        let n = family
            .iter()
            .filter(|f| {
                f.starts_with(kind)
                    && (kind != "Call"
                        || !(f.starts_with("CallNonvirtual") || f.starts_with("CallStatic")))
            })
            .count();
        outln!(out, "    {kind:<16} {n} functions (10 types x 3 forms)");
    }
    outln!(
        out,
        "  bridge targets: dvmCallMethod @ {:#x}, dvmCallMethodV @ {:#x}, dvmCallMethodA @ {:#x}, dvmInterpret @ {:#x}",
        dvm_addr("dvmCallMethod"),
        dvm_addr("dvmCallMethodV"),
        dvm_addr("dvmCallMethodA"),
        dvm_addr("dvmInterpret"),
    );

    outln!(out, "\n== Table III — object creation: NOF -> MAF pairs ==");
    for (nof, maf) in [
        ("NewObject{,V,A}", "dvmAllocObject"),
        ("NewString", "dvmCreateStringFromUnicode"),
        ("NewStringUTF", "dvmCreateStringFromCstr"),
        ("NewObjectArray", "dvmAllocArrayByClass"),
        ("New<Prim>Array (8 widths)", "dvmAllocPrimitiveArray"),
    ] {
        outln!(out, "  {nof:<28} -> {maf}");
    }

    outln!(out, "\n== Table IV — field access functions ==");
    let fields: Vec<&str> = jni_names()
        .iter()
        .copied()
        .filter(|n| (n.starts_with("Get") || n.starts_with("Set")) && n.ends_with("Field"))
        .collect();
    outln!(out, "  {} get/set field functions:", fields.len());
    for chunk in fields.chunks(6) {
        outln!(out, "    {}", chunk.join(", "));
    }

    outln!(out, "\n== Tables VI/VII — modeled standard methods and hooks ==");
    outln!(
        out,
        "  libc modeled (Table VI): {LIBC_MODELED} functions; libm: {}",
        LIBM_NAMES.len()
    );
    outln!(
        out,
        "  hooked standard library calls (Table VII): {}",
        LIBC_NAMES.len() - LIBC_MODELED
    );
    outln!(out, "  leak sinks (starred): {SINK_NAMES:?}");

    outln!(out, "\n== totals ==");
    outln!(
        out,
        "  libdvm region: {} functions ({} internal hook targets + {} guest-callable)",
        jni_names().len(),
        DVM_INTERNAL_NAMES.len(),
        jni_names().len() - DVM_INTERNAL_NAMES.len()
    );
    outln!(out, "  libc/libm region: {} functions", LIBC_NAMES.len() + LIBM_NAMES.len());
    Ok(out)
}

/// Fig. 5: replays PoC case 3, whose native code drives the
/// `CallVoidMethodA → dvmCallMethodA → dvmInterpret` chain, and prints
/// the chains activated from third-party code, the deep hooks that
/// fired, and the instrumentations unconditional hooking would have
/// paid; then hammers the same internals from the framework itself to
/// show the gating win.
pub fn multilevel(opts: &Opts) -> Result<String, String> {
    let mut out = String::new();
    outln!(out, "== Fig. 5 — multilevel hooking ==\n");
    let sys = ndroid_apps::poc_case3::poc_case3()
        .run_with(opts.config(Mode::NDroid))
        .map_err(|e| e.to_string())?;
    let stats = sys.ndroid_stats().ok_or("no NDroid statistics")?;
    outln!(out, "PoC case 3 under NDroid:");
    outln!(out, "  branch events processed:      {}", stats.branch_events);
    outln!(out, "  chains activated (T1):        {}", stats.chains_activated);
    outln!(out, "  deep hooks fired (T2+):       {}", stats.deep_hooks);
    outln!(out, "  unconditional counterfactual: {}", stats.unconditional_hooks);

    // Framework churn: the VM itself enters dvmInterpret 100,000 times
    // from libdvm, outside the third-party library. Multilevel gating
    // must instrument none of them.
    let mut analysis = NDroidAnalysis::new();
    let mut shadow = ShadowState::new();
    let interp = dvm_addr("dvmInterpret");
    let bridge = dvm_addr("dvmCallMethodA");
    for i in 0..100_000u32 {
        analysis.on_branch(&mut shadow, 0x6100_0000 + (i % 64) * 4, bridge);
        analysis.on_branch(&mut shadow, bridge + 0x10, interp);
    }
    let stats = &analysis.stats;
    outln!(out, "\nframework-only churn (200,000 branch events):");
    outln!(
        out,
        "  chains activated:             {} (gated: none from framework)",
        stats.chains_activated
    );
    outln!(out, "  deep hooks fired:             {}", stats.deep_hooks);
    outln!(
        out,
        "  unconditional counterfactual: {} (what naive hooking pays)",
        stats.unconditional_hooks
    );
    let saved = stats.unconditional_hooks - stats.deep_hooks;
    outln!(
        out,
        "\nmultilevel hooking avoided {saved} of {} instrumentations ({:.1}%)",
        stats.unconditional_hooks,
        100.0 * saved as f64 / stats.unconditional_hooks.max(1) as f64
    );
    Ok(out)
}

/// §VII: "NDroid can be easily extended to protect taints and prevent
/// evasions through stack manipulation or trusted function
/// modification". Hostile native libraries store into the DVM stack,
/// the DVM heap and libdvm text; the protector must record each, and a
/// legitimate JNI-heavy app (PoC case 2) must record none.
pub fn protection(opts: &Opts) -> Result<String, String> {
    let mut out = String::new();
    outln!(out, "== §VII extension — taint protection ==\n");
    let attacks = [
        (
            ndroid_dvm::stack::STACK_BASE + 0x24,
            "overwrite a taint tag in the interpreted stack (taint scrubbing)",
        ),
        (ndroid_dvm::heap::HEAP_BASE + 0x100, "corrupt a DVM heap object (field-taint scrubbing)"),
        (
            ndroid_emu::layout::LIBDVM_BASE + 0x40,
            "patch libdvm text (trusted-function modification)",
        ),
    ];
    for (target, what) in attacks {
        let mut sys = attacker(target)
            .run_with(opts.config(Mode::NDroid))
            .map_err(|e| format!("{what}: {e}"))?;
        let violations = &sys.ndroid_analysis_mut().ok_or("no NDroid analysis")?.violations;
        outln!(out, "attack: {what}");
        for v in violations.iter() {
            outln!(out, "  VIOLATION: store @ pc {:#x} into {:#x} [{}]", v.pc, v.addr, v.region);
        }
        if violations.is_empty() {
            outln!(out, "  (none recorded)");
        }
        outln!(out);
    }

    let mut sys = ndroid_apps::poc_case2::poc_case2()
        .run_with(opts.config(Mode::NDroid))
        .map_err(|e| e.to_string())?;
    let violations = &sys.ndroid_analysis_mut().ok_or("no NDroid analysis")?.violations;
    outln!(
        out,
        "control (PoC case 2, legitimate JNI): {} violations (expected 0)",
        violations.len()
    );
    Ok(out)
}

/// An app whose one native method stores zero at `target`.
fn attacker(target: u32) -> ndroid_apps::App {
    let mut b = AppBuilder::new("attacker", "hostile VM-region store");
    let c = b.class("Lapp/A;");
    let entry = b.asm.label();
    b.asm.bind(entry).expect("fresh label");
    b.asm.push(RegList::of(&[Reg::LR]));
    b.asm.ldr_const(Reg::R0, target);
    b.asm.mov_imm(Reg::R1, 0).expect("encodable immediate");
    b.asm.str(Reg::R1, Reg::R0, 0);
    b.asm.pop(RegList::of(&[Reg::PC]));
    let native = b.native_method(c, "smash", "V", true, entry);
    b.method(
        c,
        MethodDef::new(
            "main",
            "V",
            MethodKind::Bytecode(vec![
                DexInsn::Invoke { kind: InvokeKind::Static, method: native, args: vec![] },
                DexInsn::ReturnVoid,
            ]),
        )
        .with_registers(1),
    );
    b.finish("Lapp/A;", "main").expect("entry class and method exist")
}
