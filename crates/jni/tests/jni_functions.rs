//! Guest-driven tests of the JNI environment: real ARM code `BLX`ing
//! into the trap addresses, exercising arrays, fields, objects,
//! references and exceptions with taint tracking active.

use ndroid_arm::reg::RegList;
use ndroid_arm::{Cpu, Memory, Reg};
use ndroid_dvm::framework::install_framework;
use ndroid_dvm::{
    ArrayKind, ClassDef, ClassId, Dvm, DvmError, FieldDef, FieldId, HeapObject, IndirectRef,
    IndirectRefKind, ObjectId, Program, Taint,
};
use ndroid_emu::runtime::{Analysis, HostTable};
use ndroid_emu::testutil::World;
use ndroid_emu::{EmuError, ShadowState};
use ndroid_jni::helpers::{jclass, jfield};
use ndroid_jni::{dvm_addr, install_jni};
use ndroid_provenance::{Direction, Handle, Level, ProvEvent};

struct TrackOnly;
impl Analysis for TrackOnly {
    fn tracks_native(&self) -> bool {
        true
    }

    // Minimal store-only propagation (Table V's STR rule) so tests can
    // observe shadow register taints through guest stores without
    // pulling in the full core tracer (which would be a dependency
    // cycle from this crate).
    fn on_insn(
        &mut self,
        shadow: &mut ShadowState,
        _cpu: &Cpu,
        _mem: &Memory,
        effect: &ndroid_arm::exec::Effect,
    ) {
        if let ndroid_arm::insn::Instr::Mem {
            load: false,
            rd,
            size,
            ..
        } = effect.instr
        {
            if let Some(addr) = effect.addr {
                shadow
                    .mem
                    .set_range(addr, size.bytes(), shadow.regs[rd.index()]);
            }
        }
    }
}

/// A world with the JNI environment and libc installed, a program
/// holding the framework and `Lapp/Holder;`, and [`TrackOnly`].
fn world() -> World<TrackOnly> {
    let mut program = Program::new();
    install_framework(&mut program);
    program.add_class(ClassDef {
        name: "Lapp/Holder;".into(),
        instance_fields: vec![
            FieldDef {
                name: "count".into(),
                is_reference: false,
            },
            FieldDef {
                name: "label".into(),
                is_reference: true,
            },
        ],
        static_fields: vec![FieldDef {
            name: "shared".into(),
            is_reference: false,
        }],
        ..ClassDef::default()
    });
    let mut table = HostTable::new();
    install_jni(&mut table);
    ndroid_libc::install_all(&mut table);
    World::new(program, table, TrackOnly)
}

const OUT: u32 = 0x2000_0000;

#[test]
fn byte_array_roundtrip_with_taint() {
    let mut w = world();
    // Make a tainted byte array on the DVM heap.
    let arr = w.dvm.heap.alloc(HeapObject::Array {
        kind: ArrayKind::Byte,
        data: b"secret".iter().map(|b| *b as u32).collect(),
        taint: Taint::SMS,
    });
    let jarr = w.dvm.refs.add(IndirectRefKind::Local, arr).0;

    let r = w.run(&[jarr], |asm| {
        asm.mov(Reg::R4, Reg::R0);
        // len = GetArrayLength(arr)
        asm.call_abs(dvm_addr("GetArrayLength"));
        asm.mov(Reg::R5, Reg::R0);
        // buf = GetByteArrayElements(arr, NULL)
        asm.mov(Reg::R0, Reg::R4);
        asm.mov_imm(Reg::R1, 0).unwrap();
        asm.call_abs(dvm_addr("GetByteArrayElements"));
        // copy to OUT so the test can see the buffer address's content
        asm.mov(Reg::R1, Reg::R0);
        asm.ldr_const(Reg::R0, OUT);
        asm.mov(Reg::R2, Reg::R5);
        asm.call_abs(ndroid_libc::libc_addr("memcpy"));
        asm.mov(Reg::R0, Reg::R5); // return len
    });
    assert_eq!(r, 6);
    assert_eq!(w.mem.read_bytes(OUT, 6), b"secret");
    assert_eq!(
        w.shadow.mem.range_taint(OUT, 6),
        Taint::SMS,
        "array label spread over elements, preserved by memcpy"
    );
}

#[test]
fn set_byte_array_region_taints_array_object() {
    let mut w = world();
    let arr = w.dvm.heap.alloc(HeapObject::Array {
        kind: ArrayKind::Byte,
        data: vec![0; 8],
        taint: Taint::CLEAR,
    });
    let jarr = w.dvm.refs.add(IndirectRefKind::Local, arr).0;
    // A tainted native buffer.
    w.mem.write_bytes(OUT, b"located!");
    w.shadow.mem.set_range(OUT, 8, Taint::LOCATION_GPS);

    w.run(&[jarr], |asm| {
        // SetByteArrayRegion(arr, 0, 8, OUT)
        asm.mov_imm(Reg::R1, 0).unwrap();
        asm.mov_imm(Reg::R2, 8).unwrap();
        asm.ldr_const(Reg::R3, OUT);
        asm.call_abs(dvm_addr("SetByteArrayRegion"));
    });
    match w.dvm.heap.get(arr).unwrap() {
        HeapObject::Array { data, taint, .. } => {
            assert_eq!(data[0], b'l' as u32);
            assert_eq!(*taint, Taint::LOCATION_GPS, "native taint reached the object");
        }
        _ => panic!("not an array"),
    }
}

#[test]
fn object_fields_via_guest_code() {
    let cls_name = 0x2000_0100;
    let field_name = 0x2000_0140;
    let mut w = world();
    let class = w.dvm.program.find_class("Lapp/Holder;").unwrap();
    let obj = w.dvm.heap.alloc(HeapObject::Instance {
        class,
        fields: vec![0, 0],
        taints: vec![Taint::CLEAR; 2],
    });
    let jobj = w.dvm.refs.add(IndirectRefKind::Local, obj).0;
    w.mem.write_cstr(cls_name, b"Lapp/Holder;");
    w.mem.write_cstr(field_name, b"count");
    w.mem.write_u32(0x2000_0200, 77);
    w.shadow.mem.set_range(0x2000_0200, 4, Taint::IMSI);
    let r = w.run(&[jobj], |asm| {
        asm.mov(Reg::R4, Reg::R0);
        asm.ldr_const(Reg::R0, cls_name);
        asm.call_abs(dvm_addr("FindClass"));
        asm.ldr_const(Reg::R1, field_name);
        asm.call_abs(dvm_addr("GetFieldID"));
        asm.mov(Reg::R5, Reg::R0);
        asm.ldr_const(Reg::R2, 0x2000_0200);
        asm.ldr(Reg::R2, Reg::R2, 0);
        asm.mov(Reg::R0, Reg::R4);
        asm.mov(Reg::R1, Reg::R5);
        asm.call_abs(dvm_addr("SetIntField"));
        asm.mov(Reg::R0, Reg::R4);
        asm.mov(Reg::R1, Reg::R5);
        asm.call_abs(dvm_addr("GetIntField"));
    });
    assert_eq!(r, 77, "field value roundtrips");
    match w.dvm.heap.get(obj).unwrap() {
        HeapObject::Instance { fields, .. } => assert_eq!(fields[0], 77),
        _ => panic!(),
    }
}

#[test]
fn new_object_and_object_field() {
    let mut w = world();
    let cls_name = 0x2000_0100;
    let field_name = 0x2000_0140;
    w.mem.write_cstr(cls_name, b"Lapp/Holder;");
    w.mem.write_cstr(field_name, b"label");
    // Pre-make a tainted string to store into the object field.
    let s = w.dvm.heap.alloc_string("top-secret", Taint::CONTACTS);
    let jstr = w.dvm.refs.add(IndirectRefKind::Local, s).0;
    w.shadow.taint_object(IndirectRef(jstr), Taint::CONTACTS);

    let jobj = w.run(&[jstr], |asm| {
        asm.mov(Reg::R4, Reg::R0); // jstr
        asm.ldr_const(Reg::R0, cls_name);
        asm.call_abs(dvm_addr("FindClass"));
        asm.mov(Reg::R5, Reg::R0);
        // obj = NewObject(cls, 0)
        asm.mov_imm(Reg::R1, 1).unwrap(); // any non-null jmethodID
        asm.call_abs(dvm_addr("NewObject"));
        // SetObjectField(obj, fid(label), jstr)
        asm.push(RegList::of(&[Reg::R0, Reg::LR]));
        asm.mov(Reg::R0, Reg::R5);
        asm.ldr_const(Reg::R1, field_name);
        asm.call_abs(dvm_addr("GetFieldID"));
        asm.mov(Reg::R1, Reg::R0); // fid
        asm.pop(RegList::of(&[Reg::R0, Reg::LR]));
        asm.push(RegList::of(&[Reg::R0, Reg::LR]));
        asm.mov(Reg::R2, Reg::R4);
        asm.call_abs(dvm_addr("SetObjectField"));
        asm.pop(RegList::of(&[Reg::R0, Reg::LR]));
    });
    // Decode the returned object; its "label" field must hold the
    // string, with the field taint carrying CONTACTS.
    let obj = w.dvm.refs.decode(IndirectRef(jobj)).unwrap();
    match w.dvm.heap.get(obj).unwrap() {
        HeapObject::Instance { fields, taints, .. } => {
            let label_ref = fields[1];
            assert_ne!(label_ref, 0);
            let (text, _) = w.dvm.string_at(label_ref).unwrap();
            assert_eq!(text, "top-secret");
            assert_eq!(taints[1], Taint::CONTACTS);
        }
        other => panic!("wrong object {other:?}"),
    }
}

#[test]
fn global_refs_survive_local_cleanup() {
    let mut w = world();
    let s = w.dvm.heap.alloc_string("kept", Taint::IMEI);
    let local = w.dvm.refs.add(IndirectRefKind::Local, s).0;
    w.shadow.taint_object(IndirectRef(local), Taint::IMEI);

    let global = w.run(&[local], |asm| {
        asm.mov(Reg::R4, Reg::R0);
        asm.call_abs(dvm_addr("NewGlobalRef"));
        asm.mov(Reg::R5, Reg::R0);
        // DeleteLocalRef(local)
        asm.mov(Reg::R0, Reg::R4);
        asm.call_abs(dvm_addr("DeleteLocalRef"));
        asm.mov(Reg::R0, Reg::R5);
    });
    assert!(w.dvm.refs.decode(IndirectRef(local)).is_err(), "local gone");
    let obj = w.dvm.refs.decode(IndirectRef(global)).unwrap();
    assert_eq!(w.dvm.heap.string(obj).unwrap().0, "kept");
    assert_eq!(
        w.shadow.object_taint(IndirectRef(global)),
        Taint::IMEI,
        "taint followed the global ref"
    );
}

#[test]
fn exception_occurred_and_clear() {
    let mut w = world();
    let cls_name = 0x2000_0100;
    let msg = 0x2000_0180;
    w.mem.write_cstr(cls_name, b"Ljava/lang/RuntimeException;");
    w.mem.write_cstr(msg, b"boom");

    let had_exception = w.run(&[], |asm| {
        asm.ldr_const(Reg::R0, cls_name);
        asm.call_abs(dvm_addr("FindClass"));
        asm.ldr_const(Reg::R1, msg);
        asm.call_abs(dvm_addr("ThrowNew"));
        asm.call_abs(dvm_addr("ExceptionOccurred"));
        asm.mov(Reg::R4, Reg::R0);
        asm.call_abs(dvm_addr("ExceptionClear"));
        asm.mov(Reg::R0, Reg::R4);
    });
    assert_ne!(had_exception, 0, "ExceptionOccurred returned the throwable");
    assert!(w.dvm.pending_exception.is_none(), "cleared");
}

#[test]
fn string_length_functions() {
    let mut w = world();
    let s = w.dvm.heap.alloc_string("héllo", Taint::SMS);
    let jstr = w.dvm.refs.add(IndirectRefKind::Local, s).0;
    let utf_len = w.run(&[jstr], |asm| {
        asm.call_abs(dvm_addr("GetStringUTFLength"));
    });
    assert_eq!(utf_len, 6, "UTF-8 bytes");
    let s2 = w.dvm.heap.alloc_string("héllo", Taint::SMS);
    let jstr2 = w.dvm.refs.add(IndirectRefKind::Local, s2).0;
    let chars = w.run(&[jstr2], |asm| {
        asm.call_abs(dvm_addr("GetStringLength"));
    });
    assert_eq!(chars, 5, "character count");
}

#[test]
fn int_array_elements_roundtrip() {
    let mut w = world();
    let arr = w.dvm.heap.alloc(HeapObject::Array {
        kind: ArrayKind::Primitive,
        data: vec![10, 20, 30],
        taint: Taint::LOCATION_GPS,
    });
    let jarr = w.dvm.refs.add(IndirectRefKind::Local, arr).0;
    w.run(&[jarr], |asm| {
        asm.mov(Reg::R4, Reg::R0);
        asm.mov_imm(Reg::R1, 0).unwrap();
        asm.call_abs(dvm_addr("GetIntArrayElements"));
        asm.mov(Reg::R5, Reg::R0);
        // Modify element 1 in the native copy, then commit back.
        asm.mov_imm(Reg::R1, 99).unwrap();
        asm.str(Reg::R1, Reg::R5, 4);
        asm.mov(Reg::R0, Reg::R4);
        asm.mov(Reg::R1, Reg::R5);
        asm.mov_imm(Reg::R2, 0).unwrap(); // COMMIT
        asm.call_abs(dvm_addr("ReleaseIntArrayElements"));
    });
    match w.dvm.heap.get(arr).unwrap() {
        HeapObject::Array { data, taint, .. } => {
            assert_eq!(data, &vec![10, 99, 30]);
            assert!(taint.contains(Taint::LOCATION_GPS));
        }
        _ => panic!(),
    }
}

#[test]
fn int_array_regions() {
    let mut w = world();
    let arr = w.dvm.heap.alloc(HeapObject::Array {
        kind: ArrayKind::Primitive,
        data: vec![1, 2, 3, 4],
        taint: Taint::SMS,
    });
    let jarr = w.dvm.refs.add(IndirectRefKind::Local, arr).0;
    w.mem.write_u32(OUT + 0x80, 77);
    w.mem.write_u32(OUT + 0x84, 88);
    w.run(&[jarr], |asm| {
        asm.mov(Reg::R4, Reg::R0);
        // GetIntArrayRegion(arr, 1, 2, OUT)
        asm.mov_imm(Reg::R1, 1).unwrap();
        asm.mov_imm(Reg::R2, 2).unwrap();
        asm.ldr_const(Reg::R3, OUT);
        asm.call_abs(dvm_addr("GetIntArrayRegion"));
        // SetIntArrayRegion(arr, 2, 2, OUT+0x80)
        asm.mov(Reg::R0, Reg::R4);
        asm.mov_imm(Reg::R1, 2).unwrap();
        asm.mov_imm(Reg::R2, 2).unwrap();
        asm.ldr_const(Reg::R3, OUT + 0x80);
        asm.call_abs(dvm_addr("SetIntArrayRegion"));
    });
    assert_eq!(w.mem.read_u32(OUT), 2);
    assert_eq!(w.mem.read_u32(OUT + 4), 3);
    assert_eq!(w.shadow.mem.range_taint(OUT, 8), Taint::SMS);
    match w.dvm.heap.get(arr).unwrap() {
        HeapObject::Array { data, .. } => assert_eq!(data, &vec![1, 2, 77, 88]),
        _ => panic!(),
    }
}

#[test]
fn utf16_string_chars() {
    let mut w = world();
    let s = w.dvm.heap.alloc_string("héllo", Taint::IMEI);
    let jstr = w.dvm.refs.add(IndirectRefKind::Local, s).0;
    w.run(&[jstr], |asm| {
        asm.mov(Reg::R4, Reg::R0);
        asm.mov_imm(Reg::R1, 0).unwrap();
        asm.call_abs(dvm_addr("GetStringChars"));
        asm.mov(Reg::R5, Reg::R0);
        asm.ldr_const(Reg::R1, OUT + 0x100);
        asm.str(Reg::R0, Reg::R1, 0);
        // Release it again.
        asm.mov(Reg::R0, Reg::R4);
        asm.mov(Reg::R1, Reg::R5);
        asm.call_abs(dvm_addr("ReleaseStringChars"));
    });
    let buf = w.mem.read_u32(OUT + 0x100);
    assert_eq!(w.mem.read_u16(buf), 'h' as u16);
    assert_eq!(w.mem.read_u16(buf + 2), 'é' as u16);
    assert_eq!(w.kernel.heap.live(), 0, "released");
}

/// Defines `Lapp/V;` with the virtual int method `name` (`shorty`, all
/// int parameters), whose body returns its first parameter plus its
/// last, and calls it from guest code as
/// `CallNonvirtualIntMethodV(obj, mid, va_list)`, storing the result at
/// `OUT + 0x200` with a guest STR.
fn call_nonvirtual_int_v(w: &mut World<TrackOnly>, name: &str, shorty: &str, va_list: u32) {
    use ndroid_dvm::bytecode::{BinOp, DexInsn};
    use ndroid_dvm::{MethodDef, MethodKind};
    let c = w.dvm.program.add_class(ClassDef {
        name: "Lapp/V;".into(),
        ..ClassDef::default()
    });
    // v0 is scratch; the ins are the last registers: this = v1, then
    // the parameters from v2 on.
    let registers = 1 + shorty.len() as u16;
    let add = DexInsn::BinOp {
        op: BinOp::Add,
        dst: 0,
        a: 2,
        b: registers - 1,
    };
    w.dvm.program.add_method(
        c,
        MethodDef::new(name, shorty, MethodKind::Bytecode(vec![add, DexInsn::Return { src: 0 }]))
            .virtual_method()
            .with_registers(registers),
    );
    let obj = w.dvm.heap.alloc(HeapObject::Instance {
        class: c,
        fields: vec![],
        taints: vec![],
    });
    let jobj = w.dvm.refs.add(IndirectRefKind::Local, obj).0;
    let cls_name = 0x2000_0300;
    let m_name = 0x2000_0340;
    w.mem.write_cstr(cls_name, b"Lapp/V;");
    w.mem.write_cstr(m_name, name.as_bytes());
    w.run(&[jobj], |asm| {
        asm.mov(Reg::R4, Reg::R0); // receiver
        asm.ldr_const(Reg::R0, cls_name);
        asm.call_abs(dvm_addr("FindClass"));
        asm.ldr_const(Reg::R1, m_name);
        asm.call_abs(dvm_addr("GetMethodID"));
        asm.mov(Reg::R1, Reg::R0);
        asm.mov(Reg::R0, Reg::R4);
        asm.ldr_const(Reg::R2, va_list);
        asm.call_abs(dvm_addr("CallNonvirtualIntMethodV"));
        asm.ldr_const(Reg::R1, OUT + 0x200);
        asm.str(Reg::R0, Reg::R1, 0);
    });
}

#[test]
fn call_nonvirtual_and_va_list_forms() {
    // Java: int twice(int x) { return x + x; }
    let mut w = world();
    // va_list block holding the int argument, with taint.
    w.mem.write_u32(0x2000_0400, 21);
    w.shadow.mem.set_range(0x2000_0400, 4, Taint::IMSI);
    call_nonvirtual_int_v(&mut w, "twice", "II", 0x2000_0400);
    assert_eq!(w.mem.read_u32(OUT + 0x200), 42);
    // The argument's taint crossed into the DVM frame (va_list slot →
    // interpreter binop union → return taint → shadow R0), observed
    // here through the guest's own STR of the result.
    assert_eq!(w.shadow.mem.range_taint(OUT + 0x200, 4), Taint::IMSI);
}

#[test]
fn call_nonvirtual_va_list_wraps_at_the_top_of_memory() {
    // Java: int add(int a, int b) { return a + b; }, with its va_list at
    // 0xFFFFFFFC: the second slot wraps like `Memory` to address 0,
    // value and taint alike.
    let mut w = world();
    w.mem.write_u32(0xFFFF_FFFC, 40);
    w.mem.write_u32(0, 2);
    w.shadow.mem.set_range(0, 4, Taint::IMSI);
    call_nonvirtual_int_v(&mut w, "add", "III", 0xFFFF_FFFC);
    assert_eq!(w.mem.read_u32(OUT + 0x200), 42);
    assert_eq!(w.shadow.mem.range_taint(OUT + 0x200, 4), Taint::IMSI);
}

/// A class and a method id that do not exist, in handles of the right
/// shape: a `jclass` (`0xC1A5` tag, 16-bit id) and a `jmethodID` (id + 1).
const FORGED_ID: u32 = 0x7777;
const FORGED_JCLASS: u32 = 0xC1A5_0000 | FORGED_ID;
const FORGED_JMETHOD: u32 = FORGED_ID + 1;
/// Where the member name `"count"` sits for `GetMethodID`/`GetFieldID`.
const MEMBER_NAME: u32 = 0x2000_0100;

/// Calls the JNI function `name` as `name(FORGED_JCLASS, r1, 0)` from
/// guest code and checks that it fails with `expected` (the host
/// function's error) instead of unwinding the host.
fn assert_forged_call_fails(name: &str, r1: u32, expected: DvmError) {
    let mut w = world();
    w.mem.write_cstr(MEMBER_NAME, b"count");
    let err = w
        .try_run(&[FORGED_JCLASS, r1, 0], |asm| asm.call_abs(dvm_addr(name)))
        .expect_err("a forged id must fail the call");
    assert_eq!(
        err,
        EmuError::Host {
            name: name.into(),
            source: Box::new(EmuError::Dvm(expected)),
        }
    );
}

const NO_CLASS: DvmError = DvmError::BadClassId(FORGED_ID);

#[test]
fn get_method_id_with_forged_jclass_is_an_error() {
    assert_forged_call_fails("GetMethodID", MEMBER_NAME, NO_CLASS);
}

#[test]
fn get_field_id_with_forged_jclass_is_an_error() {
    assert_forged_call_fails("GetFieldID", MEMBER_NAME, NO_CLASS);
}

#[test]
fn new_object_with_forged_jclass_is_an_error() {
    assert_forged_call_fails("NewObject", 1, NO_CLASS);
}

#[test]
fn call_method_with_forged_jmethod_is_an_error() {
    let no_method = DvmError::BadMethodId(FORGED_ID);
    assert_forged_call_fails("CallStaticIntMethodV", FORGED_JMETHOD, no_method);
}

/// Calls the region function `name(arr, start, len, OUT)` on a fresh
/// `n`-element array with guest-chosen `start` and `len`, for each of
/// a start past the end and a `len` that wraps `start + len`; each must
/// fail with `IndexOutOfBounds` (JNI's `ArrayIndexOutOfBoundsException`)
/// before touching the array or the guest buffer, not panic the host.
fn assert_out_of_range_region_fails(name: &str, kind: ArrayKind, n: u32) {
    for (start, len, index) in [(100, 0, 100), (2, 0xFFFF_FFFF, n)] {
        let mut w = world();
        let data: Vec<u32> = (1..=n).collect();
        let arr = w.dvm.heap.alloc(HeapObject::Array {
            kind,
            data: data.clone(),
            taint: Taint::CLEAR,
        });
        let jarr = w.dvm.refs.add(IndirectRefKind::Local, arr).0;
        w.mem.write_u32(OUT, 0xAAAA_AAAA);
        let err = w
            .try_run(&[jarr, start, len, OUT], |asm| asm.call_abs(dvm_addr(name)))
            .expect_err("an out-of-range region must fail the call");
        let expected = EmuError::Dvm(DvmError::IndexOutOfBounds { index, len: n });
        assert_eq!(
            err,
            EmuError::Host { name: name.into(), source: Box::new(expected) },
            "{name}(start {start}, len {len:#x})"
        );
        assert_eq!(w.mem.read_u32(OUT), 0xAAAA_AAAA, "{name} wrote the buffer");
        match w.dvm.heap.get(arr).unwrap() {
            HeapObject::Array { data: now, .. } => assert_eq!(now, &data, "{name} wrote the array"),
            _ => panic!("not an array"),
        }
    }
}

#[test]
fn get_byte_array_region_out_of_range_is_an_error() {
    assert_out_of_range_region_fails("GetByteArrayRegion", ArrayKind::Byte, 6);
}

#[test]
fn set_byte_array_region_out_of_range_is_an_error() {
    assert_out_of_range_region_fails("SetByteArrayRegion", ArrayKind::Byte, 6);
}

#[test]
fn get_int_array_region_out_of_range_is_an_error() {
    assert_out_of_range_region_fails("GetIntArrayRegion", ArrayKind::Primitive, 4);
}

#[test]
fn set_int_array_region_out_of_range_is_an_error() {
    assert_out_of_range_region_fails("SetIntArrayRegion", ArrayKind::Primitive, 4);
}

/// `NewString` and the `New<Type>Array` functions with a hostile `jsize`:
/// a negative length, or one above `MAX_TRANSFER`, fails the call with
/// `BadLength` before anything is allocated — on the host, the DVM heap or
/// the reference table — instead of aborting the host on the allocation.
#[test]
fn new_string_and_arrays_reject_hostile_lengths() {
    use ndroid_jni::arrays::{new_byte_array, new_object_array, new_primitive_array};
    use ndroid_emu::runtime::MAX_TRANSFER;
    use ndroid_jni::strings::new_string;
    for len in [0xFFFF_FFFF, 0x8000_0000, MAX_TRANSFER + 1] {
        let expected = Err(EmuError::Dvm(DvmError::BadLength {
            len: len as i32,
            max: MAX_TRANSFER,
        }));
        let mut w = world();
        let objects = w.dvm.heap.len();
        assert_eq!(w.call_host(new_string, &[OUT, len]), expected, "NewString({len:#x})");
        assert_eq!(w.call_host(new_byte_array, &[len]), expected, "NewByteArray({len:#x})");
        let new_int_array = w.call_host(|ctx| new_primitive_array(ctx, "NewIntArray"), &[len]);
        assert_eq!(new_int_array, expected, "NewIntArray({len:#x})");
        assert_eq!(w.call_host(new_object_array, &[len, 0, 0]), expected, "NewObjectArray({len:#x})");
        assert_eq!(w.dvm.heap.len(), objects, "nothing allocated for {len:#x}");
    }
    let mut w = world();
    let r = w.call_host(new_byte_array, &[MAX_TRANSFER]).expect("the bound itself is accepted");
    let id = w.dvm.refs.decode(IndirectRef(r)).unwrap();
    match w.dvm.heap.get(id).unwrap() {
        HeapObject::Array { data, .. } => assert_eq!(data.len(), MAX_TRANSFER as usize),
        _ => panic!("not an array"),
    }
}

/// `NewString` reads `chars` as a guest address: at the top of memory it
/// wraps to address 0 like `Memory`, it does not overflow the host.
#[test]
fn new_string_chars_wrap_at_the_top_of_memory() {
    let mut w = world();
    w.mem.write_u16(0xFFFF_FFFE, 'h' as u16);
    w.mem.write_u16(0, 'i' as u16);
    let r = w
        .call_host(ndroid_jni::strings::new_string, &[0xFFFF_FFFE, 2])
        .unwrap();
    let id = w.dvm.refs.decode(IndirectRef(r)).unwrap();
    assert_eq!(w.dvm.heap.string(id).unwrap().0, "hi");
}

// --- The slot accessors: every array and field function, row by row ---

/// The state every slot-accessor row starts from. Each object is
/// tainted, and each is held through a local reference whose shadow
/// object-map entry carries a label of its own, so a row shows which
/// labels an accessor unions and where it puts them:
///
/// - `bytes`: `byte[] {0x11, 0x22, 0x33}`, label `SMS`; entry `IMEI`;
/// - `ints`: `int[] {10, 20, 30}`, label `LOCATION_GPS`; entry `CONTACTS`;
/// - `objs`: `Object[] {string, null}`, label `ACCOUNT`; entry `LOCATION_NET`;
/// - `holder`: `Lapp/Slots;` with `count = 7` (`IMEI`) and
///   `label = string` (`SMS`); entry `ACCELEROMETER`;
/// - the statics of `Lapp/Slots;`: `shared = 5` (`ICCID`) and
///   `owner = string` (`HISTORY`);
/// - `string`: `"s"`, label `IMSI`, held by no reference;
/// - `value`: `"v"`, label `CAMERA`; entry `MIC` — what the setters store;
/// - `buf`: a 12-byte native block holding `A1..=AC`, tainted `DEVICE_SN`;
/// - R2, the value a setter stores, is tainted `PHONE_NUMBER`.
///
/// Provenance records at `Summary`.
struct Slots {
    w: World<TrackOnly>,
    bytes: ObjectId,
    ints: ObjectId,
    objs: ObjectId,
    holder: ObjectId,
    string: ObjectId,
    value: ObjectId,
    class: ClassId,
    jbytes: u32,
    jints: u32,
    jobjs: u32,
    jholder: u32,
    jvalue: u32,
    buf: u32,
}

fn slots() -> Slots {
    let mut w = world();
    let field = |name: &str, is_reference| FieldDef { name: name.into(), is_reference };
    let class = w.dvm.program.add_class(ClassDef {
        name: "Lapp/Slots;".into(),
        instance_fields: vec![field("count", false), field("label", true)],
        static_fields: vec![field("shared", false), field("owner", true)],
        ..ClassDef::default()
    });
    let string = w.dvm.heap.alloc_string("s", Taint::IMSI);
    let value = w.dvm.heap.alloc_string("v", Taint::CAMERA);
    let array = |kind, data: Vec<u32>, taint| HeapObject::Array { kind, data, taint };
    let bytes = w.dvm.heap.alloc(array(ArrayKind::Byte, vec![0x11, 0x22, 0x33], Taint::SMS));
    let ints = w.dvm.heap.alloc(array(ArrayKind::Primitive, vec![10, 20, 30], Taint::LOCATION_GPS));
    let objs = vec![Dvm::ref_value(string), 0];
    let objs = w.dvm.heap.alloc(array(ArrayKind::Object, objs, Taint::ACCOUNT));
    let holder = w.dvm.heap.alloc(HeapObject::Instance {
        class,
        fields: vec![7, Dvm::ref_value(string)],
        taints: vec![Taint::IMEI, Taint::SMS],
    });
    w.dvm.program.statics[class.0 as usize] =
        vec![(5, Taint::ICCID), (Dvm::ref_value(string), Taint::HISTORY)];
    let mut local = |id, entry| {
        let r = w.dvm.refs.add(IndirectRefKind::Local, id);
        w.shadow.taint_object(r, entry);
        r.0
    };
    let jbytes = local(bytes, Taint::IMEI);
    let jints = local(ints, Taint::CONTACTS);
    let jobjs = local(objs, Taint::LOCATION_NET);
    let jholder = local(holder, Taint::ACCELEROMETER);
    let jvalue = local(value, Taint::MIC);
    let buf = w.kernel.heap.malloc(12);
    w.mem.write_bytes(buf, &(0xA1..=0xAC).collect::<Vec<u8>>());
    w.shadow.mem.set_range(buf, 12, Taint::DEVICE_SN);
    w.shadow.regs[2] = Taint::PHONE_NUMBER;
    w.shadow.prov = Handle::new(Level::Summary);
    Slots {
        w,
        bytes,
        ints,
        objs,
        holder,
        string,
        value,
        class,
        jbytes,
        jints,
        jobjs,
        jholder,
        jvalue,
        buf,
    }
}

impl Slots {
    /// The `jfieldID` of instance (`is_static` false) or static field
    /// `index` of `Lapp/Slots;`.
    fn fid(&self, index: u16, is_static: bool) -> u32 {
        jfield(FieldId { class: self.class, index, is_static })
    }

    fn slot(&self, slot: Slot) -> (u32, Taint) {
        match slot {
            Slot::Static(i) => self.w.dvm.program.statics[self.class.0 as usize][i],
            Slot::Element(id, i) => match self.w.dvm.heap.get(id).unwrap() {
                HeapObject::Array { data, taint, .. } => (data[i], *taint),
                other => panic!("not an array: {other:?}"),
            },
            Slot::Field(id, i) => match self.w.dvm.heap.get(id).unwrap() {
                HeapObject::Instance { fields, taints, .. } => (fields[i], taints[i]),
                other => panic!("not an instance: {other:?}"),
            },
        }
    }

    /// The `Transfer` events recorded so far: API, label, direction.
    fn transfers(&self) -> Vec<(String, Taint, Direction)> {
        (self.w.shadow.prov.snapshot().into_iter())
            .filter_map(|ev| match ev {
                ProvEvent::Transfer { api, label, direction } => {
                    Some((api, Taint(label), direction))
                }
                _ => None,
            })
            .collect()
    }
}

/// A slot: element `i` of an array, field `i` of an instance, or static
/// field `i` of `Lapp/Slots;`.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Element(ObjectId, usize),
    Field(ObjectId, usize),
    Static(usize),
}

/// Stands for "the buffer or reference the call returned" in a row's
/// guest window or object-map reference.
const RET: u32 = 0;

/// One accessor call on a fresh [`slots`] state.
struct Row {
    name: String,
    /// R0–R3.
    args: [u32; 4],
    /// The guest window the row reads: address (or [`RET`]) and length.
    guest: (u32, u32),
    /// The slot the call reads or writes.
    slot: Slot,
    /// The reference whose shadow entry the row reads (or [`RET`]).
    map: u32,
    want: Observed,
}

/// What one call leaves behind.
#[derive(Debug, PartialEq)]
struct Observed {
    /// R0 and its taint. A returned local reference shows as the Dalvik
    /// reference it decodes to, a returned native buffer as its size.
    ret: (u32, Taint),
    /// The bytes in the row's guest window and their taint.
    guest: (Vec<u8>, Taint),
    /// The slot's value and taint.
    slot: (u32, Taint),
    /// The shadow object-map entry of the row's reference.
    map: Taint,
    /// The `Transfer` events the call recorded; `None` in a row's
    /// `want` leaves them unchecked.
    transfers: Option<Vec<(String, Taint, Direction)>>,
}

/// Calls `row.name` at its trap address with `row.args` on a fresh
/// [`slots`] state and observes what the row names.
fn observe(row: &Row) -> Observed {
    let mut s = slots();
    let (r0, ret_taint) = s.w.call(dvm_addr(&row.name), &row.args).expect(&row.name);
    let returned_ref = s.w.dvm.refs.decode(IndirectRef(r0)).ok().filter(|_| row.map == RET);
    let ret = match (returned_ref, row.guest.0) {
        (Some(id), _) => Dvm::ref_value(id),
        (None, RET) => s.w.kernel.heap.size_of(r0).expect("a returned buffer"),
        (None, _) => r0,
    };
    let at = if row.guest.0 == RET { r0 } else { row.guest.0 };
    let len = row.guest.1;
    let guest_taint = if len == 0 { Taint::CLEAR } else { s.w.shadow.mem.range_taint(at, len) };
    let map = if row.map == RET { r0 } else { row.map };
    Observed {
        ret: (ret, ret_taint),
        guest: (s.w.mem.read_bytes(at, len as usize), guest_taint),
        slot: s.slot(row.slot),
        map: s.w.shadow.object_taint(IndirectRef(map)),
        transfers: Some(s.transfers()),
    }
}

fn moved(api: &str, taint: Taint, direction: Direction) -> Option<Vec<(String, Taint, Direction)>> {
    Some(vec![(api.to_string(), taint, direction)])
}

/// Every array and field accessor on the [`slots`] state. Rows whose
/// `transfers` are `None` are the ones whose events
/// `slot_accessors_record_their_own_transfer` pins.
fn accessor_rows() -> Vec<Row> {
    use Direction::{JavaToNative as J2N, NativeToJava as N2J};
    use Slot::{Element, Field, Static};
    use Taint as T;
    let s = slots();
    let (b, i, o, h) = (s.bytes, s.ints, s.objs, s.holder);
    let (jb, ji, jo, jh, jv, buf) = (s.jbytes, s.jints, s.jobjs, s.jholder, s.jvalue, s.buf);
    let (string, value) = (Dvm::ref_value(s.string), Dvm::ref_value(s.value));
    let (count, label) = (s.fid(0, false), s.fid(1, false));
    let (shared, owner, jcls) = (s.fid(0, true), s.fid(1, true), jclass(s.class));
    // Each array's label with its reference's entry, what `value`
    // carries into a slot (its taint, its entry's and R2's), and the
    // native buffer's taint.
    let (b_out, i_out) = (T::SMS | T::IMEI, T::LOCATION_GPS | T::CONTACTS);
    let o_out = T::LOCATION_NET | T::ACCOUNT;
    let stored = T::MIC | T::CAMERA | T::PHONE_NUMBER;
    let sn = T::DEVICE_SN;
    let none = (OUT, 0);
    let nothing = || (vec![], T::CLEAR);
    let from_buf = |n: u8| (0xA1..0xA1 + n).collect::<Vec<u8>>();
    let words = |ws: &[u32]| ws.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>();
    let row = |name: &str, args, guest, slot, map, want| {
        Row { name: name.to_string(), args, guest, slot, map, want }
    };
    let obs = |ret, guest, slot, map, transfers| Observed { ret, guest, slot, map, transfers };
    let mut rows = vec![
        row("GetArrayLength", [jb, 0, 0, 0], none, Element(b, 0), jb,
            obs((3, b_out), nothing(), (0x11, T::SMS), T::IMEI, Some(vec![]))),
        row("GetByteArrayElements", [jb, 0, 0, 0], (RET, 3), Element(b, 0), jb,
            obs((8, b_out), (vec![0x11, 0x22, 0x33], b_out), (0x11, T::SMS), T::IMEI,
                moved("GetByteArrayElements", b_out, J2N))),
        row("ReleaseByteArrayElements", [jb, buf, 0, 0], (buf, 3), Element(b, 0), jb,
            obs((0, T::CLEAR), (from_buf(3), T::CLEAR), (0xA1, T::SMS | sn), T::IMEI | sn,
                moved("ReleaseByteArrayElements", sn, N2J))),
        row("GetIntArrayElements", [ji, 0, 0, 0], (RET, 12), Element(i, 0), ji,
            obs((16, i_out), (words(&[10, 20, 30]), i_out), (10, T::LOCATION_GPS), T::CONTACTS,
                moved("GetIntArrayElements", i_out, J2N))),
        row("ReleaseIntArrayElements", [ji, buf, 0, 0], (buf, 12), Element(i, 0), ji,
            obs((0, T::CLEAR), (from_buf(12), T::CLEAR), (0xA4A3_A2A1, T::LOCATION_GPS | sn),
                T::CONTACTS | sn, None)),
        row("GetByteArrayRegion", [jb, 1, 2, OUT], (OUT, 2), Element(b, 1), jb,
            obs((0, T::CLEAR), (vec![0x22, 0x33], b_out), (0x22, T::SMS), T::IMEI,
                moved("GetByteArrayRegion", b_out, J2N))),
        row("SetByteArrayRegion", [jb, 1, 2, buf], (buf, 2), Element(b, 1), jb,
            obs((0, T::CLEAR), (from_buf(2), sn), (0xA1, T::SMS | sn), T::IMEI | sn,
                moved("SetByteArrayRegion", sn, N2J))),
        row("GetIntArrayRegion", [ji, 1, 2, OUT], (OUT, 8), Element(i, 1), ji,
            obs((0, T::CLEAR), (words(&[20, 30]), i_out), (20, T::LOCATION_GPS), T::CONTACTS,
                moved("GetIntArrayRegion", i_out, J2N))),
        row("SetIntArrayRegion", [ji, 1, 2, buf], (buf, 8), Element(i, 1), ji,
            obs((0, T::CLEAR), (from_buf(8), sn), (0xA4A3_A2A1, T::LOCATION_GPS | sn),
                T::CONTACTS | sn, moved("SetIntArrayRegion", sn, N2J))),
        row("GetObjectArrayElement", [jo, 0, 0, 0], none, Element(o, 0), RET,
            obs((string, o_out | T::IMSI), nothing(), (string, T::ACCOUNT), o_out | T::IMSI, None)),
        row("SetObjectArrayElement", [jo, 1, jv, 0], none, Element(o, 1), jo,
            obs((0, T::CLEAR), nothing(), (value, T::ACCOUNT | stored), T::LOCATION_NET, None)),
        row("GetObjectField", [jh, label, 0, 0], none, Field(h, 1), RET,
            obs((string, T::SMS | T::IMSI), nothing(), (string, T::SMS), T::SMS | T::IMSI,
                moved("GetObjectField", T::SMS | T::IMSI, J2N))),
        row("SetObjectField", [jh, label, jv, 0], none, Field(h, 1), jh,
            obs((0, T::CLEAR), nothing(), (value, stored), T::ACCELEROMETER,
                moved("SetObjectField", stored, N2J))),
        row("GetStaticIntField", [jcls, shared, 0, 0], none, Static(0), jv,
            obs((5, T::ICCID), nothing(), (5, T::ICCID), T::MIC, None)),
        row("GetStaticObjectField", [jcls, owner, 0, 0], none, Static(1), RET,
            obs((string, T::HISTORY | T::IMSI), nothing(), (string, T::HISTORY),
                T::HISTORY | T::IMSI, None)),
        row("SetStaticIntField", [jcls, shared, 42, 0], none, Static(0), jv,
            obs((0, T::CLEAR), nothing(), (42, T::PHONE_NUMBER), T::MIC, None)),
        row("SetStaticObjectField", [jcls, owner, jv, 0], none, Static(1), jv,
            obs((0, T::CLEAR), nothing(), (value, stored), T::MIC, None)),
    ];
    for ty in ["Boolean", "Byte", "Char", "Short", "Int", "Long", "Float", "Double"] {
        rows.push(row(&format!("Get{ty}Field"), [jh, count, 0, 0], none, Field(h, 0), jh,
            obs((7, T::IMEI), nothing(), (7, T::IMEI), T::ACCELEROMETER,
                moved("GetField", T::IMEI, J2N))));
        rows.push(row(&format!("Set{ty}Field"), [jh, count, 99, 0], none, Field(h, 0), jh,
            obs((0, T::CLEAR), nothing(), (99, T::PHONE_NUMBER), T::ACCELEROMETER,
                moved("SetField", T::PHONE_NUMBER, N2J))));
    }
    rows
}

/// Characterisation of every array and field accessor with tainted
/// inputs: the return value and R0 taint, the guest bytes and their
/// shadow taint, the heap or static slot and its taint, the shadow
/// object-map entry and the `Transfer` events.
#[test]
fn slot_accessors_move_values_and_taints() {
    for row in accessor_rows() {
        let mut seen = observe(&row);
        if row.want.transfers.is_none() {
            seen.transfers = None;
        }
        assert_eq!(seen, row.want, "{}", row.name);
    }
}

/// Each array and field accessor that moves a tainted value records a
/// `Transfer` under its own name: `ReleaseIntArrayElements` used to
/// record `ReleaseByteArrayElements`, and the static-field and
/// object-array-element accessors recorded nothing.
#[test]
fn slot_accessors_record_their_own_transfer() {
    use Direction::{JavaToNative as J2N, NativeToJava as N2J};
    use Taint as T;
    let named = [
        ("ReleaseIntArrayElements", T::DEVICE_SN, N2J),
        ("GetObjectArrayElement", T::LOCATION_NET | T::ACCOUNT | T::IMSI, J2N),
        ("SetObjectArrayElement", T::MIC | T::CAMERA | T::PHONE_NUMBER, N2J),
        ("GetStaticIntField", T::ICCID, J2N),
        ("GetStaticObjectField", T::HISTORY | T::IMSI, J2N),
        ("SetStaticIntField", T::PHONE_NUMBER, N2J),
        ("SetStaticObjectField", T::MIC | T::CAMERA | T::PHONE_NUMBER, N2J),
    ];
    let rows = accessor_rows();
    for (name, taint, direction) in named {
        let row = rows.iter().find(|r| r.name == name).expect(name);
        assert_eq!(observe(row).transfers, moved(name, taint, direction), "{name}");
    }
}

/// An accessor given a slot the interpreter would reject fails with the
/// interpreter's typed error and changes nothing: no slot or slot
/// taint, no shadow object-map entry, no `Transfer`. Each row used to
/// pass: `Release*ArrayElements` on an instance tainted its reference
/// and recorded a `Transfer`, `GetObjectArrayElement` returned null, an
/// out-of-range `SetObjectArrayElement` still tainted the array, a
/// `jfieldID` past the fields read `(0, CLEAR)` and wrote nothing, and
/// `Set*Field` on an array was a no-op.
#[test]
fn slot_accessors_reject_what_the_interpreter_rejects() {
    let s = slots();
    let (jb, jo, jh, jv, buf) = (s.jbytes, s.jobjs, s.jholder, s.jvalue, s.buf);
    let (count, label, past) = (s.fid(0, false), s.fid(1, false), s.fid(2, false));
    let (static_past, jcls) = (s.fid(2, true), jclass(s.class));
    let forged_static = jfield(FieldId { class: ClassId(FORGED_ID), index: 0, is_static: true });
    let array = DvmError::WrongObjectKind { expected: "Array" };
    let instance = DvmError::WrongObjectKind { expected: "Object" };
    let past_objs = DvmError::IndexOutOfBounds { index: 2, len: 2 };
    let rows = [
        ("ReleaseByteArrayElements", [jh, buf, 0, 0], array.clone()),
        ("ReleaseIntArrayElements", [jh, buf, 0, 0], array.clone()),
        ("GetObjectArrayElement", [jo, 2, 0, 0], past_objs.clone()),
        ("GetObjectArrayElement", [jh, 0, 0, 0], array),
        ("SetObjectArrayElement", [jo, 2, jv, 0], past_objs),
        ("GetIntField", [jh, past, 0, 0], DvmError::BadFieldIndex(2)),
        ("GetObjectField", [jh, past, 0, 0], DvmError::BadFieldIndex(2)),
        ("SetIntField", [jh, past, 99, 0], DvmError::BadFieldIndex(2)),
        ("SetObjectField", [jh, past, jv, 0], DvmError::BadFieldIndex(2)),
        ("SetIntField", [jb, count, 99, 0], instance.clone()),
        ("SetObjectField", [jb, label, jv, 0], instance),
        ("GetStaticIntField", [jcls, static_past, 0, 0], DvmError::BadFieldIndex(2)),
        ("SetStaticIntField", [jcls, static_past, 42, 0], DvmError::BadFieldIndex(2)),
        ("GetStaticObjectField", [FORGED_JCLASS, forged_static, 0, 0], NO_CLASS),
        ("SetStaticObjectField", [FORGED_JCLASS, forged_static, jv, 0], NO_CLASS),
    ];
    for (name, args, error) in rows {
        let mut s = slots();
        let before = format!("{:?}", (slot_state(&s), &s.w.shadow.objects));
        let got = s.w.call(dvm_addr(name), &args);
        let want = EmuError::Host { name: name.into(), source: Box::new(EmuError::Dvm(error)) };
        assert_eq!(got, Err(want), "{name}{args:x?}");
        let after = format!("{:?}", (slot_state(&s), &s.w.shadow.objects));
        assert_eq!(after, before, "{name}{args:x?} changed a slot or an object-map entry");
        assert_eq!(s.transfers(), vec![], "{name}{args:x?} recorded a transfer");
    }
}

/// Every heap object of a [`slots`] state and the statics of
/// `Lapp/Slots;`, for before/after comparison.
fn slot_state(s: &Slots) -> String {
    let objects = [s.bytes, s.ints, s.objs, s.holder, s.string, s.value];
    let heap: Vec<_> = objects.iter().map(|&id| s.w.dvm.heap.get(id).unwrap()).collect();
    format!("{heap:?} {:?}", s.w.dvm.program.statics[s.class.0 as usize])
}

/// A `jfieldID` whose kind or class does not match its accessor is
/// rejected and changes no slot: an instance accessor given a static id
/// or another class's id, a static accessor given an instance id or a
/// `jclass` that is not the id's class. `GetFieldID` finds only
/// instance fields and `GetStaticFieldID` only static ones. Dalvik's
/// bytecode cannot mix these up; the JNI bridge used to read 41, 41, 7
/// and 7 for the first four rows.
#[test]
fn field_ids_must_match_their_accessor() {
    let mut w = world();
    let field = |name: &str| FieldDef { name: name.into(), is_reference: false };
    let mut class = |name: &str, instance: &str, stat: &str| {
        w.dvm.program.add_class(ClassDef {
            name: name.into(),
            instance_fields: vec![field(instance)],
            static_fields: vec![field(stat)],
            ..ClassDef::default()
        })
    };
    let (a, b) = (class("La;", "x", "s"), class("Lb;", "y", "t"));
    let obj = w.dvm.heap.alloc(HeapObject::Instance {
        class: a,
        fields: vec![41],
        taints: vec![Taint::IMEI],
    });
    w.dvm.program.statics[a.0 as usize] = vec![(7, Taint::ICCID)];
    w.dvm.program.statics[b.0 as usize] = vec![(9, Taint::SMS)];
    let jobj = w.dvm.refs.add(IndirectRefKind::Local, obj).0;
    let fid = |class, is_static| jfield(FieldId { class, index: 0, is_static });
    let (x, s, y) = (fid(a, false), fid(a, true), fid(b, false));
    let (ja, jb) = (jclass(a), jclass(b));
    let instance_id = DvmError::WrongObjectKind { expected: "instance field ID" };
    let static_id = DvmError::WrongObjectKind { expected: "static field ID" };
    let other_class = DvmError::WrongObjectKind { expected: "field ID of this class" };
    let rows = [
        ("GetIntField", [jobj, s, 0], instance_id.clone()),
        ("GetIntField", [jobj, y, 0], other_class.clone()),
        ("GetStaticIntField", [ja, x, 0], static_id.clone()),
        ("GetStaticIntField", [jb, s, 0], other_class.clone()),
        ("SetIntField", [jobj, s, 99], instance_id),
        ("SetIntField", [jobj, y, 99], other_class.clone()),
        ("SetStaticIntField", [ja, x, 99], static_id),
        ("SetStaticIntField", [jb, s, 99], other_class),
    ];
    let state = |w: &World<TrackOnly>| format!("{:?} {:?}", w.dvm.heap.get(obj), w.dvm.program.statics);
    for (name, args, error) in rows {
        let before = state(&w);
        let want = EmuError::Host { name: name.into(), source: Box::new(EmuError::Dvm(error)) };
        assert_eq!(w.call(dvm_addr(name), &args), Err(want), "{name}{args:x?}");
        assert_eq!(state(&w), before, "{name}{args:x?} changed a slot");
    }
    // The matching ids still read and write.
    assert_eq!(w.call(dvm_addr("GetIntField"), &[jobj, x]).map(|r| r.0), Ok(41));
    assert_eq!(w.call(dvm_addr("GetStaticIntField"), &[ja, s]).map(|r| r.0), Ok(7));

    let lookups = [
        ("GetFieldID", "x", Ok(x)),
        ("GetStaticFieldID", "s", Ok(s)),
        ("GetFieldID", "s", Err("s")),
        ("GetStaticFieldID", "x", Err("x")),
    ];
    for (name, field, want) in lookups {
        w.mem.write_cstr(MEMBER_NAME, field.as_bytes());
        let got = w.call(dvm_addr(name), &[ja, MEMBER_NAME, 0]).map(|r| r.0);
        let want = want.map_err(|field| EmuError::Host {
            name: name.into(),
            source: Box::new(EmuError::Dvm(DvmError::NoSuchField {
                class: "La;".into(),
                field: field.into(),
            })),
        });
        assert_eq!(got, want, "{name}({field})");
    }
}
