//! The managed heap, with a **moving** (compacting) collector.
//!
//! Since Android 4.0 "the garbage collector moves an object \[and\]
//! updates the indirect reference table with the object's new location.
//! Consequently, native codes will hold valid object pointers every
//! time GC moves objects around" (§II-A). To reproduce the hazard that
//! forces NDroid to key native-side shadow memory by *indirect
//! reference* rather than direct pointer, every object here has a
//! guest-visible **direct address** that [`Heap::compact`] reassigns.

use crate::error::DvmError;
use crate::object::HeapObject;
use crate::taint::Taint;
use std::ops::Range;
use std::rc::Rc;

/// Stable identity of a heap object (survives GC moves).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u32);

/// Base of the guest-visible address range the DVM heap occupies
/// (matches the `0x41xxxxxx` object addresses in the paper's logs).
pub const HEAP_BASE: u32 = 0x4100_0000;

/// The managed object heap.
///
/// One slot per object id holds the object's direct address and the
/// object. A string is immutable and its text is already a shared
/// `Rc<str>`, so it lives in its slot with no box of its own. Arrays,
/// instances and exceptions are `Rc`-shared **copy-on-write**: cloning
/// the heap (for a snapshot fork) copies each slot and bumps one
/// refcount per object, and a mutable borrow privatizes just the
/// touched object via `Rc::make_mut` — so thousands of forked
/// scenarios share one warmed-up heap image.
#[derive(Debug, Default, Clone)]
pub struct Heap {
    slots: Vec<Slot>,
    next_addr: u32,
    /// Number of compactions performed (each one moves every object).
    pub gc_cycles: u32,
    /// Total bytes conceptually allocated.
    pub bytes_allocated: usize,
}

/// One object id's slot: the object's current direct address and the
/// object.
#[derive(Debug, Clone)]
struct Slot {
    addr: u32,
    obj: Body,
}

/// Where a slot keeps its object.
#[derive(Debug, Clone)]
enum Body {
    /// Freed by [`Heap::collect`].
    Free,
    /// A string, held in the slot.
    Inline(HeapObject),
    /// Any other object, shared with forks until written.
    Shared(Rc<HeapObject>),
}

impl Body {
    fn get(&self) -> Option<&HeapObject> {
        match self {
            Body::Free => None,
            Body::Inline(obj) => Some(obj),
            Body::Shared(obj) => Some(obj),
        }
    }

    fn get_mut(&mut self) -> Option<&mut HeapObject> {
        match self {
            Body::Free => None,
            Body::Inline(obj) => Some(obj),
            Body::Shared(obj) => Some(Rc::make_mut(obj)),
        }
    }
}

impl Heap {
    /// An empty heap.
    pub fn new() -> Heap {
        Heap {
            slots: Vec::new(),
            next_addr: HEAP_BASE,
            gc_cycles: 0,
            bytes_allocated: 0,
        }
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.obj.get().is_some()).count()
    }

    /// Whether the heap holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocates `obj`, returning its stable id.
    pub fn alloc(&mut self, obj: HeapObject) -> ObjectId {
        let size = obj.size_bytes();
        self.bytes_allocated += size;
        let id = ObjectId(self.slots.len() as u32);
        let addr = self.next_addr;
        self.next_addr += ((size as u32) + 7) & !7;
        let obj = match obj {
            HeapObject::String { .. } => Body::Inline(obj),
            _ => Body::Shared(Rc::new(obj)),
        };
        self.slots.push(Slot { addr, obj });
        id
    }

    /// Convenience: allocates a string object.
    pub fn alloc_string(&mut self, value: impl Into<Rc<str>>, taint: Taint) -> ObjectId {
        self.alloc(HeapObject::String {
            value: value.into(),
            taint,
        })
    }

    /// The live slot of `id`.
    fn slot(&self, id: ObjectId) -> Result<(&Slot, &HeapObject), DvmError> {
        self.slots
            .get(id.0 as usize)
            .and_then(|s| Some((s, s.obj.get()?)))
            .ok_or(DvmError::DanglingObject(id.0))
    }

    /// Borrows the object with `id`.
    ///
    /// # Errors
    ///
    /// [`DvmError::DanglingObject`] if the id was freed or never existed.
    pub fn get(&self, id: ObjectId) -> Result<&HeapObject, DvmError> {
        self.slot(id).map(|(_, obj)| obj)
    }

    /// Mutably borrows the object with `id`.
    ///
    /// # Errors
    ///
    /// [`DvmError::DanglingObject`] if the id was freed or never existed.
    pub fn get_mut(&mut self, id: ObjectId) -> Result<&mut HeapObject, DvmError> {
        self.slots
            .get_mut(id.0 as usize)
            .and_then(|s| s.obj.get_mut())
            .ok_or(DvmError::DanglingObject(id.0))
    }

    /// The object's current guest-visible direct address. **Unstable**:
    /// invalidated by [`compact`](Heap::compact).
    ///
    /// # Errors
    ///
    /// [`DvmError::DanglingObject`] if the id does not resolve.
    pub fn direct_addr(&self, id: ObjectId) -> Result<u32, DvmError> {
        self.slot(id).map(|(slot, _)| slot.addr)
    }

    /// The string contents and taint of a string object.
    ///
    /// # Errors
    ///
    /// [`DvmError::WrongObjectKind`] if `id` is not a string.
    pub fn string(&self, id: ObjectId) -> Result<(&Rc<str>, Taint), DvmError> {
        match self.get(id)? {
            HeapObject::String { value, taint } => Ok((value, *taint)),
            _ => Err(DvmError::WrongObjectKind { expected: "String" }),
        }
    }

    /// The elements and label of array `id`.
    ///
    /// # Errors
    ///
    /// [`DvmError::WrongObjectKind`] if `id` is not an array.
    #[inline]
    pub fn array(&self, id: ObjectId) -> Result<(&[u32], Taint), DvmError> {
        match self.get(id)? {
            HeapObject::Array { data, taint, .. } => Ok((data, *taint)),
            _ => Err(DvmError::WrongObjectKind { expected: "Array" }),
        }
    }

    /// Elements `[start, start + len)` of array `id` and the array's
    /// label: the one checked element access of the interpreter's
    /// `aget` and of the JNI array functions.
    ///
    /// # Errors
    ///
    /// [`DvmError::WrongObjectKind`] if `id` is not an array;
    /// [`DvmError::IndexOutOfBounds`] if the span leaves it.
    #[inline]
    pub fn elements(
        &self,
        id: ObjectId,
        start: u32,
        len: u32,
    ) -> Result<(&[u32], Taint), DvmError> {
        let (data, taint) = self.array(id)?;
        Ok((&data[span(data.len(), start, len)?], taint))
    }

    /// [`elements`](Heap::elements) for writing: the span and the
    /// array's label, to store into and union into (`aput`, the JNI
    /// copy-in functions).
    ///
    /// # Errors
    ///
    /// As [`elements`](Heap::elements); nothing is changed on error.
    #[inline]
    pub fn elements_mut(
        &mut self,
        id: ObjectId,
        start: u32,
        len: u32,
    ) -> Result<(&mut [u32], &mut Taint), DvmError> {
        match self.get_mut(id)? {
            HeapObject::Array { data, taint, .. } => {
                let range = span(data.len(), start, len)?;
                Ok((&mut data[range], taint))
            }
            _ => Err(DvmError::WrongObjectKind { expected: "Array" }),
        }
    }

    /// Instance field `index` of `id` and its label: the one checked
    /// field read of `iget` and the JNI `Get<Type>Field` functions.
    ///
    /// # Errors
    ///
    /// [`DvmError::WrongObjectKind`] if `id` is not a class instance;
    /// [`DvmError::BadFieldIndex`] past its fields.
    #[inline]
    pub fn field(&self, id: ObjectId, index: u16) -> Result<(u32, Taint), DvmError> {
        match self.get(id)? {
            HeapObject::Instance { fields, taints, .. } => {
                match (fields.get(index as usize), taints.get(index as usize)) {
                    (Some(&value), Some(&taint)) => Ok((value, taint)),
                    _ => Err(DvmError::BadFieldIndex(index.into())),
                }
            }
            _ => Err(DvmError::WrongObjectKind { expected: "Object" }),
        }
    }

    /// Stores `value` labelled `taint` in instance field `index` of
    /// `id`: the one checked field write of `iput` and the JNI
    /// `Set<Type>Field` functions.
    ///
    /// # Errors
    ///
    /// As [`field`](Heap::field); nothing is changed on error.
    #[inline]
    pub fn set_field(
        &mut self,
        id: ObjectId,
        index: u16,
        value: u32,
        taint: Taint,
    ) -> Result<(), DvmError> {
        match self.get_mut(id)? {
            HeapObject::Instance { fields, taints, .. } => {
                match (fields.get_mut(index as usize), taints.get_mut(index as usize)) {
                    (Some(v), Some(t)) => {
                        (*v, *t) = (value, taint);
                        Ok(())
                    }
                    _ => Err(DvmError::BadFieldIndex(index.into())),
                }
            }
            _ => Err(DvmError::WrongObjectKind { expected: "Object" }),
        }
    }

    /// **Moving GC**: slides every live object to a fresh address range,
    /// invalidating all previously handed-out direct addresses. Stable
    /// [`ObjectId`]s (and therefore indirect references) survive.
    pub fn compact(&mut self) {
        self.gc_cycles += 1;
        // Start a new address epoch so every address changes.
        let mut addr = HEAP_BASE + 0x0010_0000 * (self.gc_cycles % 0x100);
        for slot in &mut self.slots {
            if let Some(obj) = slot.obj.get() {
                slot.addr = addr;
                addr += ((obj.size_bytes() as u32) + 7) & !7;
            }
        }
        self.next_addr = addr;
    }

    /// Mark-and-sweep collection from explicit roots; unreachable
    /// objects are freed. Reachability follows reference-array elements,
    /// instance reference fields are opaque u32s, so callers pass every
    /// register/reference root explicitly (conservative roots).
    pub fn collect(&mut self, roots: &[ObjectId]) -> usize {
        let mut marked = vec![false; self.slots.len()];
        let mut work: Vec<ObjectId> = roots.to_vec();
        while let Some(id) = work.pop() {
            let idx = id.0 as usize;
            let Some(obj) = self.slots.get(idx).and_then(|s| s.obj.get()) else {
                continue;
            };
            if marked[idx] {
                continue;
            }
            marked[idx] = true;
            match obj {
                HeapObject::Array {
                    kind: crate::object::ArrayKind::Object,
                    data,
                    ..
                } => work.extend(data.iter().filter(|&&r| r != 0).map(|r| ObjectId(r - 1))),
                HeapObject::Exception { message, .. } if *message != 0 => {
                    work.push(ObjectId(message - 1));
                }
                _ => {}
            }
        }
        let mut freed = 0;
        for (slot, live) in self.slots.iter_mut().zip(marked) {
            if !live && slot.obj.get().is_some() {
                slot.obj = Body::Free;
                freed += 1;
            }
        }
        freed
    }
}

/// The index range `[start, start + len)` of an `n`-element array,
/// computed without wrapping. A span that leaves the array is
/// `IndexOutOfBounds` naming the first index past the array that the
/// span names (Java's `ArrayIndexOutOfBoundsException`).
#[inline]
fn span(n: usize, start: u32, len: u32) -> Result<Range<usize>, DvmError> {
    match start.checked_add(len) {
        Some(end) if end as usize <= n => Ok(start as usize..end as usize),
        _ => Err(DvmError::IndexOutOfBounds {
            index: if start as usize > n { start } else { n as u32 },
            len: n as u32,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ArrayKind;

    #[test]
    fn alloc_and_access() {
        let mut h = Heap::new();
        let id = h.alloc_string("hello", Taint::SMS);
        let (s, t) = h.string(id).unwrap();
        assert_eq!(&**s, "hello");
        assert_eq!(t, Taint::SMS);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn direct_addresses_are_unique() {
        let mut h = Heap::new();
        let a = h.alloc_string("a", Taint::CLEAR);
        let b = h.alloc_string("b", Taint::CLEAR);
        let addr_a = h.direct_addr(a).unwrap();
        let addr_b = h.direct_addr(b).unwrap();
        assert_ne!(addr_a, addr_b);
        assert!(addr_a >= HEAP_BASE);
    }

    #[test]
    fn compact_moves_every_object_but_ids_survive() {
        let mut h = Heap::new();
        let id = h.alloc_string("payload", Taint::IMEI);
        let before = h.direct_addr(id).unwrap();
        h.compact();
        let after = h.direct_addr(id).unwrap();
        assert_ne!(before, after, "moving GC must move the object");
        // Content and taint ride along.
        let (s, t) = h.string(id).unwrap();
        assert_eq!(&**s, "payload");
        assert_eq!(t, Taint::IMEI);
        assert_eq!(h.gc_cycles, 1);
    }

    #[test]
    fn repeated_compaction_keeps_addresses_fresh() {
        let mut h = Heap::new();
        let id = h.alloc_string("x", Taint::CLEAR);
        let mut seen = std::collections::HashSet::new();
        seen.insert(h.direct_addr(id).unwrap());
        for _ in 0..5 {
            h.compact();
            assert!(
                seen.insert(h.direct_addr(id).unwrap()),
                "each compaction must pick a new address"
            );
        }
    }

    #[test]
    fn collect_frees_unreachable() {
        let mut h = Heap::new();
        let live = h.alloc_string("live", Taint::CLEAR);
        let dead = h.alloc_string("dead", Taint::CLEAR);
        let freed = h.collect(&[live]);
        assert_eq!(freed, 1);
        assert!(h.get(live).is_ok());
        assert!(h.get(dead).is_err());
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn collect_traces_object_arrays() {
        let mut h = Heap::new();
        let inner = h.alloc_string("inner", Taint::CLEAR);
        let arr = h.alloc(HeapObject::Array {
            kind: ArrayKind::Object,
            data: vec![inner.0 + 1],
            taint: Taint::CLEAR,
        });
        let freed = h.collect(&[arr]);
        assert_eq!(freed, 0);
        assert!(h.get(inner).is_ok());
    }

    #[test]
    fn dangling_access_errors() {
        let mut h = Heap::new();
        let id = h.alloc_string("x", Taint::CLEAR);
        h.collect(&[]);
        assert_eq!(h.get(id).unwrap_err(), DvmError::DanglingObject(id.0));
        assert!(h.direct_addr(id).is_err());
    }

    #[test]
    fn non_string_rejected_by_string_accessor() {
        let mut h = Heap::new();
        let arr = h.alloc(HeapObject::Array {
            kind: ArrayKind::Primitive,
            data: vec![],
            taint: Taint::CLEAR,
        });
        assert!(matches!(
            h.string(arr),
            Err(DvmError::WrongObjectKind { .. })
        ));
    }

    #[test]
    fn a_slot_holds_a_string_and_its_address_in_64_bytes() {
        assert!(std::mem::size_of::<Slot>() <= 64);
    }

    #[test]
    fn a_fork_shares_objects_until_one_side_writes() {
        let mut h = Heap::new();
        let s = h.alloc_string("s", Taint::CLEAR);
        let arr = h.alloc(HeapObject::Array {
            kind: ArrayKind::Primitive,
            data: vec![1, 2],
            taint: Taint::CLEAR,
        });
        let mut fork = h.clone();
        fork.elements_mut(arr, 0, 1).unwrap().0[0] = 9;
        fork.get_mut(s).unwrap().add_taint(Taint::SMS);
        assert_eq!(h.elements(arr, 0, 2).unwrap().0, &[1, 2]);
        assert_eq!(fork.elements(arr, 0, 2).unwrap().0, &[9, 2]);
        assert_eq!(h.string(s).unwrap().1, Taint::CLEAR);
        assert_eq!(fork.string(s).unwrap().1, Taint::SMS);
    }
}
