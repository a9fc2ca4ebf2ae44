//! Hostile arguments for every JNI array and field accessor: null,
//! stale, wrong-kind and global references, out-of-range and wrapping
//! indices and lengths, and `jfieldID`s past a class's fields, naming
//! no class, of the other kind (static for instance) or of another
//! class than the object or `jclass`. The host never panics; each call returns a value or fails
//! with a typed DVM error, and a call that fails changes no heap slot,
//! static slot or slot taint. Failures replay with `TESTKIT_SEED`.

use ndroid_dvm::{
    ArrayKind, ClassDef, ClassId, Dvm, FieldDef, FieldId, HeapObject, IndirectRef, IndirectRefKind,
    ObjectId, Program, Taint,
};
use ndroid_emu::runtime::HostTable;
use ndroid_emu::testutil::{TrackOnly, World};
use ndroid_emu::EmuError;
use ndroid_jni::helpers::{jclass, jfield};
use ndroid_jni::{dvm_addr, install_jni};
use ndroid_testkit::prelude::*;

/// What an accessor argument is, and so the pool it is drawn from.
#[derive(Debug, Clone, Copy)]
enum Role {
    /// A `jobject`: live local and global references to each kind of
    /// object, null, and a stale local.
    Ref,
    /// A `jclass`, real or naming no class, or any `Ref`.
    Class,
    /// A `jfieldID`: each field, the first index past the fields, the
    /// last index, a class that does not exist, and each field of
    /// another class; instance and static ids alike.
    Fid,
    /// An index, length, mode or primitive value, in range or not.
    Int,
    /// A native buffer: a live block, free memory, null, or the top of
    /// memory.
    Buf,
}

use Role::{Buf, Class, Fid, Int, Ref};
const ELEMENTS: [Role; 4] = [Ref, Buf, Int, Buf];
const REGION: [Role; 4] = [Ref, Int, Int, Buf];
const ELEMENT: [Role; 4] = [Ref, Int, Ref, Buf];
const FIELD: [Role; 4] = [Ref, Fid, Int, Buf];
const OBJECT_FIELD: [Role; 4] = [Ref, Fid, Ref, Buf];
const STATIC: [Role; 4] = [Class, Fid, Int, Buf];
const STATIC_OBJECT: [Role; 4] = [Class, Fid, Ref, Buf];

/// Every array and field accessor of the JNI environment, with the
/// roles of its arguments.
const ACCESSORS: &[(&str, [Role; 4])] = &[
    ("GetArrayLength", ELEMENTS),
    ("GetByteArrayElements", ELEMENTS),
    ("ReleaseByteArrayElements", ELEMENTS),
    ("GetIntArrayElements", ELEMENTS),
    ("ReleaseIntArrayElements", ELEMENTS),
    ("GetIntArrayRegion", REGION),
    ("SetIntArrayRegion", REGION),
    ("GetByteArrayRegion", REGION),
    ("SetByteArrayRegion", REGION),
    ("GetObjectArrayElement", ELEMENT),
    ("SetObjectArrayElement", ELEMENT),
    ("GetObjectField", OBJECT_FIELD),
    ("GetBooleanField", FIELD),
    ("GetByteField", FIELD),
    ("GetCharField", FIELD),
    ("GetShortField", FIELD),
    ("GetIntField", FIELD),
    ("GetLongField", FIELD),
    ("GetFloatField", FIELD),
    ("GetDoubleField", FIELD),
    ("SetObjectField", OBJECT_FIELD),
    ("SetBooleanField", FIELD),
    ("SetByteField", FIELD),
    ("SetCharField", FIELD),
    ("SetShortField", FIELD),
    ("SetIntField", FIELD),
    ("SetLongField", FIELD),
    ("SetFloatField", FIELD),
    ("SetDoubleField", FIELD),
    ("GetStaticObjectField", STATIC_OBJECT),
    ("GetStaticIntField", STATIC),
    ("SetStaticObjectField", STATIC_OBJECT),
    ("SetStaticIntField", STATIC),
];

/// A system holding one tainted object of each kind, reachable through
/// live local references and a global one, a deleted (stale) local, and
/// a live native buffer, and the value pool of each [`Role`].
struct Target {
    w: World<TrackOnly>,
    objects: Vec<ObjectId>,
    class_ids: [ClassId; 2],
    refs: Vec<u32>,
    classes: Vec<u32>,
    fids: Vec<u32>,
    ints: Vec<u32>,
    bufs: Vec<u32>,
}

fn target() -> Target {
    let mut program = Program::new();
    let field = |name: &str, is_reference| FieldDef { name: name.into(), is_reference };
    let class = program.add_class(ClassDef {
        name: "Lapp/Slots;".into(),
        instance_fields: vec![field("count", false), field("label", true)],
        static_fields: vec![field("shared", false), field("owner", true)],
        ..ClassDef::default()
    });
    let other = program.add_class(ClassDef {
        name: "Lapp/Other;".into(),
        instance_fields: vec![field("count", false)],
        static_fields: vec![field("shared", false)],
        ..ClassDef::default()
    });
    let mut table = HostTable::new();
    install_jni(&mut table);
    let mut w = World::new(program, table, TrackOnly);
    let heap = &mut w.dvm.heap;
    let string = heap.alloc_string("s", Taint::IMSI);
    let array = |kind, data: Vec<u32>, taint| HeapObject::Array { kind, data, taint };
    let objects = vec![
        string,
        heap.alloc(array(ArrayKind::Byte, vec![1, 2, 3], Taint::SMS)),
        heap.alloc(array(ArrayKind::Primitive, vec![10, 20, 30], Taint::LOCATION)),
        heap.alloc(array(ArrayKind::Object, vec![Dvm::ref_value(string), 0], Taint::CONTACTS)),
        heap.alloc(array(ArrayKind::Byte, vec![], Taint::CLEAR)),
        heap.alloc(HeapObject::Instance {
            class,
            fields: vec![7, Dvm::ref_value(string)],
            taints: vec![Taint::IMEI, Taint::SMS],
        }),
    ];
    w.dvm.program.statics[class.0 as usize] =
        vec![(5, Taint::ICCID), (Dvm::ref_value(string), Taint::HISTORY)];
    w.dvm.program.statics[other.0 as usize] = vec![(6, Taint::SMS)];
    let mut refs: Vec<u32> =
        objects.iter().map(|&id| w.dvm.refs.add(IndirectRefKind::Local, id).0).collect();
    let stale = w.dvm.refs.add(IndirectRefKind::Local, objects[1]);
    w.dvm.refs.delete(stale).unwrap();
    refs.extend([0, stale.0, w.dvm.refs.add(IndirectRefKind::Global, objects[2]).0]);
    for &r in &refs {
        w.shadow.taint_object(IndirectRef(r), Taint::MIC);
    }
    let fid = |class, index, is_static| jfield(FieldId { class, index, is_static });
    let forged = ClassId(0x7777);
    let fids = vec![
        fid(class, 0, false),
        fid(class, 1, false),
        fid(class, 2, false),
        fid(class, 0xFFFF, false),
        fid(class, 0, true),
        fid(class, 1, true),
        fid(class, 2, true),
        fid(forged, 0, true),
        fid(forged, 0, false),
        fid(other, 0, false),
        fid(other, 0, true),
    ];
    let ints = vec![0, 1, 2, 3, 4, 0x7FFF_FFFF, 0x8000_0000, u32::MAX];
    let buf = w.kernel.heap.malloc(16);
    w.shadow.mem.set_range(buf, 16, Taint::DEVICE_SN);
    let bufs = vec![buf, 0x2000_0000, 0, 0xFFFF_FFFC];
    let classes = [&[jclass(class), jclass(other), jclass(forged)][..], &refs].concat();
    Target { w, objects, class_ids: [class, other], refs, classes, fids, ints, bufs }
}

impl Target {
    /// An argument in `role`: a value of its pool, or the raw draw
    /// (one pick in `pool.len() + 1`).
    fn arg(&self, role: Role, (pick, raw): (u8, u32)) -> u32 {
        let pool = match role {
            Ref => &self.refs,
            Class => &self.classes,
            Fid => &self.fids,
            Int => &self.ints,
            Buf => &self.bufs,
        };
        pool.get(pick as usize % (pool.len() + 1)).copied().unwrap_or(raw)
    }

    /// Every heap object and static slot with its taint, for
    /// before/after comparison.
    fn slots(&self) -> String {
        let heap: Vec<_> =
            self.objects.iter().map(|&id| self.w.dvm.heap.get(id).unwrap()).collect();
        let statics: Vec<_> =
            self.class_ids.iter().map(|c| &self.w.dvm.program.statics[c.0 as usize]).collect();
        format!("{heap:?} {statics:?}")
    }
}

/// One argument draw: an index into the argument's pool (past its end
/// for a raw value) and the raw value.
fn draw() -> impl Strategy<Value = (u8, u32)> {
    (any::<u8>(), any::<u32>())
}

proptest! {
    #[test]
    fn hostile_accessor_arguments_fail_typed_and_change_nothing(
        calls in collection::vec((0..ACCESSORS.len(), (draw(), draw(), draw(), draw())), 1..8)
    ) {
        let mut t = target();
        for (which, (a0, a1, a2, a3)) in calls {
            let (name, [r0, r1, r2, r3]) = ACCESSORS[which];
            let args = [t.arg(r0, a0), t.arg(r1, a1), t.arg(r2, a2), t.arg(r3, a3)];
            let before = t.slots();
            match t.w.call(dvm_addr(name), &args) {
                Ok(_) => {}
                Err(EmuError::Host { source, .. }) if matches!(*source, EmuError::Dvm(_)) => {
                    let after = t.slots();
                    prop_assert_eq!(after, before, "{}{:x?} failed and changed a slot", name, args);
                }
                Err(other) => {
                    prop_assert!(false, "{}{:x?} failed untyped: {:?}", name, args, other)
                }
            }
        }
    }
}
