//! Edge-case tests of the bytecode interpreter: error paths, the less
//! common instructions, and the framework intrinsics.

use ndroid_dvm::bytecode::{BinOp, CmpOp, DexInsn};
use ndroid_dvm::framework::install_framework;
use ndroid_dvm::interp::NoNatives;
use ndroid_dvm::{
    ArrayKind, ClassDef, ClassId, Dvm, DvmError, InvokeKind, MethodDef, MethodId, MethodKind,
    Program, Taint,
};

fn vm(build: impl FnOnce(&mut Program) -> MethodId) -> (Dvm, MethodId) {
    let mut p = Program::new();
    install_framework(&mut p);
    let m = build(&mut p);
    (Dvm::new(p), m)
}

fn main_method(p: &mut Program, code: Vec<DexInsn>, regs: u16) -> MethodId {
    let c = p.add_class(ClassDef {
        name: "Lt/Main;".into(),
        ..ClassDef::default()
    });
    p.add_method(
        c,
        MethodDef::new("main", "I", MethodKind::Bytecode(code)).with_registers(regs),
    )
}

#[test]
fn neg_preserves_taint() {
    let (mut dvm, m) = vm(|p| {
        let c = p.add_class(ClassDef {
            name: "Lt/N;".into(),
            ..ClassDef::default()
        });
        p.add_method(
            c,
            MethodDef::new(
                "f",
                "II",
                MethodKind::Bytecode(vec![
                    DexInsn::Neg { dst: 0, src: 0 },
                    DexInsn::Return { src: 0 },
                ]),
            ),
        )
    });
    let (v, t) = dvm
        .invoke_with(m, &[(5, Taint::SMS)], &mut NoNatives)
        .unwrap();
    assert_eq!(v as i32, -5);
    assert_eq!(t, Taint::SMS);
}

#[test]
fn array_length_on_string_and_array() {
    let (mut dvm, m) = vm(|p| {
        main_method(
            p,
            vec![
                DexInsn::Const { dst: 0, value: 4 },
                DexInsn::NewArray {
                    dst: 1,
                    size: 0,
                    kind: ArrayKind::Primitive,
                },
                DexInsn::ArrayLength { dst: 0, arr: 1 },
                DexInsn::Return { src: 0 },
            ],
            2,
        )
    });
    let (v, _) = dvm.invoke_with(m, &[], &mut NoNatives).unwrap();
    assert_eq!(v, 4);

    // Strings have a length too.
    let s = dvm.new_string("hello", Taint::CLEAR);
    let (mut dvm2, m2) = vm(|p| {
        main_method(
            p,
            vec![
                DexInsn::ArrayLength { dst: 0, arr: 1 },
                DexInsn::Return { src: 0 },
            ],
            2,
        )
    });
    let s2 = dvm2.new_string("hello", Taint::CLEAR);
    let (v, _) = dvm2
        .invoke_with(m2, &[(s2, Taint::CLEAR)], &mut NoNatives)
        .unwrap();
    assert_eq!(v, 5);
    let _ = s;
}

#[test]
fn if_test_two_registers() {
    let (mut dvm, m) = vm(|p| {
        main_method(
            p,
            vec![
                DexInsn::IfTest {
                    op: CmpOp::Lt,
                    a: 0,
                    b: 1,
                    target: 3,
                },
                DexInsn::Const { dst: 2, value: 0 },
                DexInsn::Return { src: 2 },
                DexInsn::Const { dst: 2, value: 1 },
                DexInsn::Return { src: 2 },
            ],
            3,
        )
    });
    // main has 3 regs, 0 ins — set args via a wrapper? Registers default
    // to 0: 0 < 0 is false → returns 0.
    let (v, _) = dvm.invoke_with(m, &[], &mut NoNatives).unwrap();
    assert_eq!(v, 0);
}

#[test]
fn bad_register_is_an_error() {
    let (mut dvm, m) = vm(|p| {
        main_method(
            p,
            vec![DexInsn::Const { dst: 9, value: 1 }, DexInsn::ReturnVoid],
            2,
        )
    });
    assert_eq!(
        dvm.invoke_with(m, &[], &mut NoNatives).unwrap_err(),
        DvmError::BadRegister(9)
    );
    assert_eq!(dvm.stack.depth(), 0, "frame still unwound");
}

#[test]
fn bad_branch_target_is_an_error() {
    let (mut dvm, m) = vm(|p| {
        main_method(p, vec![DexInsn::Goto { target: 99 }], 1)
    });
    assert!(matches!(
        dvm.invoke_with(m, &[], &mut NoNatives).unwrap_err(),
        DvmError::BadBranchTarget(_)
    ));
}

#[test]
fn aget_on_non_array_is_an_error() {
    let (mut dvm, m) = vm(|p| {
        main_method(
            p,
            vec![
                DexInsn::Const { dst: 1, value: 0 },
                DexInsn::ArrayGet {
                    dst: 0,
                    arr: 2,
                    idx: 1,
                },
                DexInsn::Return { src: 0 },
            ],
            3,
        )
    });
    // Register 2 holds 0 (null).
    assert!(matches!(
        dvm.invoke_with(m, &[], &mut NoNatives).unwrap_err(),
        DvmError::NotAReference { .. }
    ));
}

#[test]
fn index_out_of_bounds() {
    let (mut dvm, m) = vm(|p| {
        main_method(
            p,
            vec![
                DexInsn::Const { dst: 0, value: 2 },
                DexInsn::NewArray {
                    dst: 1,
                    size: 0,
                    kind: ArrayKind::Primitive,
                },
                DexInsn::Const { dst: 2, value: 5 },
                DexInsn::ArrayGet {
                    dst: 0,
                    arr: 1,
                    idx: 2,
                },
                DexInsn::Return { src: 0 },
            ],
            3,
        )
    });
    assert!(matches!(
        dvm.invoke_with(m, &[], &mut NoNatives).unwrap_err(),
        DvmError::IndexOutOfBounds { index: 5, len: 2 }
    ));
}

/// An id no class or method has: past the framework and the one app
/// class, inside the 16 bits a `jclass` handle carries.
const FORGED: u32 = 0x7777;

/// Runs `code` as a method of a one-class app and returns its error:
/// a forged id must come back as `Err`, not unwind the host.
fn forged_run(code: Vec<DexInsn>) -> DvmError {
    let (mut dvm, m) = vm(|p| main_method(p, code, 2));
    let err = dvm.invoke_with(m, &[], &mut NoNatives).unwrap_err();
    assert_eq!(dvm.stack.depth(), 0, "frame still unwound");
    err
}

#[test]
fn sget_with_forged_class_is_an_error() {
    let err = forged_run(vec![
        DexInsn::SGet {
            dst: 0,
            class: ClassId(FORGED),
            field: 0,
        },
        DexInsn::Return { src: 0 },
    ]);
    assert_eq!(err, DvmError::BadClassId(FORGED));
}

#[test]
fn sput_with_forged_class_is_an_error() {
    let err = forged_run(vec![
        DexInsn::Const { dst: 0, value: 1 },
        DexInsn::SPut {
            src: 0,
            class: ClassId(FORGED),
            field: 0,
        },
        DexInsn::ReturnVoid,
    ]);
    assert_eq!(err, DvmError::BadClassId(FORGED));
}

#[test]
fn new_instance_with_forged_class_is_an_error() {
    let err = forged_run(vec![
        DexInsn::NewInstance {
            dst: 0,
            class: ClassId(FORGED),
        },
        DexInsn::Return { src: 0 },
    ]);
    assert_eq!(err, DvmError::BadClassId(FORGED));
}

#[test]
fn invoke_with_forged_method_is_an_error() {
    let err = forged_run(vec![
        DexInsn::Invoke {
            kind: InvokeKind::Static,
            method: MethodId(FORGED),
            args: vec![],
        },
        DexInsn::ReturnVoid,
    ]);
    assert_eq!(err, DvmError::BadMethodId(FORGED));
    let (mut dvm, _) = vm(|p| main_method(p, vec![DexInsn::ReturnVoid], 1));
    let top_level = dvm.invoke_with(MethodId(FORGED), &[], &mut NoNatives);
    assert_eq!(top_level, Err(DvmError::BadMethodId(FORGED)));
}

#[test]
fn move_exception_without_pending_errors() {
    let (mut dvm, m) = vm(|p| {
        main_method(p, vec![DexInsn::MoveException { dst: 0 }, DexInsn::ReturnVoid], 1)
    });
    assert!(dvm.invoke_with(m, &[], &mut NoNatives).is_err());
}

#[test]
fn string_intrinsics_via_invoke() {
    let (mut dvm, m) = vm(|p| {
        let length = p
            .find_method_by_name("Ljava/lang/String;", "length")
            .unwrap();
        let value_of = p
            .find_method_by_name("Ljava/lang/String;", "valueOf")
            .unwrap();
        main_method(
            p,
            vec![
                DexInsn::Const { dst: 0, value: 1234 },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: value_of,
                    args: vec![0],
                },
                DexInsn::MoveResult { dst: 1 },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: length,
                    args: vec![1],
                },
                DexInsn::MoveResult { dst: 0 },
                DexInsn::Return { src: 0 },
            ],
            2,
        )
    });
    let (v, _) = dvm.invoke_with(m, &[], &mut NoNatives).unwrap();
    assert_eq!(v, 4, "valueOf(1234).length() == 4");
}

#[test]
fn sms_send_sink_records_number_and_text() {
    let (mut dvm, m) = vm(|p| {
        let sms = p
            .find_method_by_name("Landroid/provider/SmsProvider;", "queryLastMessage")
            .unwrap();
        let send = p
            .find_method_by_name("Landroid/telephony/SmsManager;", "sendTextMessage")
            .unwrap();
        let number = p.intern("+15550001111");
        main_method(
            p,
            vec![
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: sms,
                    args: vec![],
                },
                DexInsn::MoveResult { dst: 0 },
                DexInsn::ConstString { dst: 1, index: number },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: send,
                    args: vec![1, 0],
                },
                DexInsn::Const { dst: 0, value: 0 },
                DexInsn::Return { src: 0 },
            ],
            2,
        )
    });
    dvm.invoke_with(m, &[], &mut NoNatives).unwrap();
    let leaks: Vec<_> = dvm.leaks().collect();
    assert_eq!(leaks.len(), 1);
    assert_eq!(leaks[0].sink, "SmsManager.sendTextMessage");
    assert_eq!(leaks[0].dest, "+15550001111");
    assert!(leaks[0].taint.contains(Taint::SMS));
}

#[test]
fn const_string_interning_distinct_objects() {
    let (mut dvm, m) = vm(|p| {
        let idx = p.intern("same");
        main_method(
            p,
            vec![
                DexInsn::ConstString { dst: 0, index: idx },
                DexInsn::ConstString { dst: 1, index: idx },
                // Compare references: they are distinct heap objects
                // (the mini-DVM does not pool runtime strings).
                DexInsn::BinOp {
                    op: BinOp::Sub,
                    dst: 2,
                    a: 0,
                    b: 1,
                },
                DexInsn::Return { src: 2 },
            ],
            3,
        )
    });
    let (v, _) = dvm.invoke_with(m, &[], &mut NoNatives).unwrap();
    assert_ne!(v, 0, "distinct allocations");
}

#[test]
fn fuel_is_shared_across_nested_invokes() {
    let (mut dvm, m) = vm(|p| {
        let c = p.add_class(ClassDef {
            name: "Lt/R;".into(),
            ..ClassDef::default()
        });
        // Infinite mutual recursion through one self-call.
        let f = p.add_method(
            c,
            MethodDef::new("f", "I", MethodKind::Bytecode(vec![])).with_registers(1),
        );
        // Patch the body after knowing the id (self-reference).
        let body = vec![
            DexInsn::Invoke {
                kind: InvokeKind::Static,
                method: f,
                args: vec![],
            },
            DexInsn::Const { dst: 0, value: 0 },
            DexInsn::Return { src: 0 },
        ];
        // Re-add with a real body (new method id used as entry).
        p.add_method(
            c,
            MethodDef::new("g", "I", MethodKind::Bytecode(body)).with_registers(1),
        )
    });
    dvm.fuel = 10_000;
    let err = dvm.invoke_with(m, &[], &mut NoNatives).unwrap_err();
    // Either fuel runs out in the callee chain or (here) `f` has an
    // empty body — which is a bad branch target.
    assert!(matches!(
        err,
        DvmError::OutOfFuel | DvmError::BadBranchTarget(_)
    ));
}
