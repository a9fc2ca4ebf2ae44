//! Guest-driven tests of the JNI environment: real ARM code `BLX`ing
//! into the trap addresses, exercising arrays, fields, objects,
//! references and exceptions with taint tracking active.

use ndroid_arm::block::BlockCache;
use ndroid_arm::icache::DecodeCache;
use ndroid_arm::reg::RegList;
use ndroid_arm::{Assembler, Cpu, Memory, Reg};
use ndroid_dvm::framework::install_framework;
use ndroid_dvm::{
    ArrayKind, ClassDef, Dvm, DvmError, FieldDef, HeapObject, IndirectRef, IndirectRefKind,
    Program, Taint,
};
use ndroid_emu::layout;
use ndroid_emu::runtime::{call_guest, Analysis, HostTable, NativeCtx};
use ndroid_emu::{EmuError, Kernel, ShadowState, TraceLog};
use ndroid_jni::{dvm_addr, install_jni};

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

struct World {
    cpu: Cpu,
    mem: Memory,
    dvm: Dvm,
    shadow: ShadowState,
    kernel: Kernel,
    trace: TraceLog,
    budget: u64,
    icache: DecodeCache,
    blocks: BlockCache,
    table: HostTable,
}

impl World {
    fn new() -> World {
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
        let mut cpu = Cpu::new();
        cpu.regs[13] = layout::NATIVE_STACK_TOP;
        let mut table = HostTable::new();
        install_jni(&mut table);
        ndroid_libc::install_all(&mut table);
        World {
            cpu,
            mem: Memory::new(),
            dvm: Dvm::new(program),
            shadow: ShadowState::new(),
            kernel: Kernel::new(),
            trace: TraceLog::new(),
            budget: 1_000_000,
            icache: DecodeCache::new(),
            blocks: BlockCache::new(),
            table,
        }
    }

    fn run(&mut self, args: &[u32], build: impl FnOnce(&mut Assembler)) -> u32 {
        self.try_run(args, build).expect("guest run")
    }

    fn try_run(
        &mut self,
        args: &[u32],
        build: impl FnOnce(&mut Assembler),
    ) -> Result<u32, EmuError> {
        let mut asm = Assembler::new(layout::NATIVE_CODE_BASE);
        asm.push(RegList::of(&[Reg::R4, Reg::R5, Reg::LR]));
        build(&mut asm);
        asm.pop(RegList::of(&[Reg::R4, Reg::R5, Reg::PC]));
        let code = asm.assemble().expect("assemble");
        self.mem.write_bytes(code.base, &code.bytes);
        let mut analysis = TrackOnly;
        let mut ctx = NativeCtx {
            cpu: &mut self.cpu,
            mem: &mut self.mem,
            dvm: &mut self.dvm,
            shadow: &mut self.shadow,
            kernel: &mut self.kernel,
            trace: &mut self.trace,
            analysis: &mut analysis,
            budget: &mut self.budget,
            icache: &mut self.icache,
            blocks: &mut self.blocks,
        };
        call_guest(&mut ctx, &self.table, code.base, args, |_, _| {}).map(|(r0, _)| r0)
    }
}

const OUT: u32 = 0x2000_0000;

#[test]
fn byte_array_roundtrip_with_taint() {
    let mut w = World::new();
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
    let mut w = World::new();
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
    let mut w = World::new();
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
    let mut w = World::new();
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
    let mut w = World::new();
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
    let mut w = World::new();
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
    let mut w = World::new();
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
    let mut w = World::new();
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
    let mut w = World::new();
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
    let mut w = World::new();
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

#[test]
fn call_nonvirtual_and_va_list_forms() {
    // Java: int twice(int x) { return x + x; }  (virtual: this + x)
    use ndroid_dvm::bytecode::{BinOp, DexInsn};
    use ndroid_dvm::{ClassDef as CD, MethodDef, MethodKind};
    let mut w = World::new();
    let c = w.dvm.program.add_class(CD {
        name: "Lapp/V;".into(),
        ..CD::default()
    });
    w.dvm.program.add_method(
        c,
        MethodDef::new(
            "twice",
            "II",
            MethodKind::Bytecode(vec![
                // virtual, regs 3, ins 2: this=v1, x=v2
                DexInsn::BinOp {
                    op: BinOp::Add,
                    dst: 0,
                    a: 2,
                    b: 2,
                },
                DexInsn::Return { src: 0 },
            ]),
        )
        .virtual_method()
        .with_registers(3),
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
    w.mem.write_cstr(m_name, b"twice");
    // va_list block holding the int argument, with taint.
    w.mem.write_u32(0x2000_0400, 21);
    w.shadow.mem.set_range(0x2000_0400, 4, Taint::IMSI);

    let r = w.run(&[jobj], |asm| {
        asm.mov(Reg::R4, Reg::R0); // receiver
        asm.ldr_const(Reg::R0, cls_name);
        asm.call_abs(dvm_addr("FindClass"));
        asm.ldr_const(Reg::R1, m_name);
        asm.call_abs(dvm_addr("GetMethodID"));
        asm.mov(Reg::R1, Reg::R0);
        asm.mov(Reg::R0, Reg::R4);
        asm.ldr_const(Reg::R2, 0x2000_0400); // va_list
        asm.call_abs(dvm_addr("CallNonvirtualIntMethodV"));
        asm.ldr_const(Reg::R1, OUT + 0x200);
        asm.str(Reg::R0, Reg::R1, 0);
    });
    let _ = r;
    assert_eq!(w.mem.read_u32(OUT + 0x200), 42);
    // The argument's taint crossed into the DVM frame (va_list slot →
    // interpreter binop union → return taint → shadow R0), observed
    // here through the guest's own STR of the result.
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
    let mut w = World::new();
    w.mem.write_cstr(MEMBER_NAME, b"count");
    let err = w
        .try_run(&[FORGED_JCLASS, r1, 0], |asm| asm.call_abs(dvm_addr(name)))
        .expect_err("a forged id must fail the call");
    assert_eq!(
        err,
        EmuError::Host {
            name: name.into(),
            message: EmuError::Dvm(expected).to_string(),
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
