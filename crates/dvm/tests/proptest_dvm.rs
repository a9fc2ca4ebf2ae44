//! Property-based tests of the DVM substrates: the TaintDroid stack,
//! the moving heap, and the indirect-reference table.

use ndroid_dvm::stack::DvmStack;
use ndroid_dvm::{
    ArrayKind, ClassId, Heap, HeapObject, IndirectRefKind, IndirectRefTable, MethodId, ObjectId,
    Taint,
};
use ndroid_testkit::prelude::*;

/// One heap operation, `(kind, a, b)`: allocate a string (0), an object
/// array (1) or an instance (2); `aput` (3); set a field (4);
/// `compact` (5); `collect` (6). `a` and `b` pick the target, index,
/// value and roots, so every operation is valid to attempt on any heap;
/// one that names a dead object or the wrong kind fails and changes
/// nothing.
type HeapOp = (u8, u32, u32);

fn heap_op() -> impl Strategy<Value = HeapOp> {
    (0u8..7, any::<u32>(), any::<u32>())
}

/// Applies `op` to `h`, which has allocated `ids` objects so far.
fn apply(h: &mut Heap, ids: &mut u32, (kind, a, b): HeapOp) {
    let pick = |n: u32| ObjectId(if *ids == 0 { 0 } else { n % *ids });
    match kind {
        0 => {
            h.alloc_string(format!("s{a}"), Taint(b));
        }
        1 => {
            // Elements are references (id + 1) into the heap so far, or null.
            let data = (0..a % 4).map(|i| (b >> (8 * i)) % (*ids + 1)).collect();
            h.alloc(HeapObject::Array { kind: ArrayKind::Object, data, taint: Taint(b) });
        }
        2 => {
            let n = (a % 3 + 1) as usize;
            h.alloc(HeapObject::Instance {
                class: ClassId(a % 5),
                fields: vec![b; n],
                taints: vec![Taint(a); n],
            });
        }
        3 => {
            let id = pick(a);
            if let Ok((elems, taint)) = h.elements_mut(id, b % 4, 1) {
                elems[0] = b % (*ids + 1);
                *taint |= Taint(a);
            }
        }
        4 => {
            let _ = h.set_field(pick(a), (b % 3) as u16, b, Taint(a));
        }
        5 => h.compact(),
        _ => {
            let roots: Vec<ObjectId> =
                (0..*ids).filter(|i| (a >> (i % 32)) & 1 == 1).map(ObjectId).collect();
            h.collect(&roots);
        }
    }
    if kind <= 2 {
        *ids += 1;
    }
}

/// Everything a heap shows through its API about the `ids` objects it
/// allocated: each id's direct address and content (or that it was
/// freed), and the counters.
fn observe(h: &Heap, ids: u32) -> Vec<String> {
    let mut seen: Vec<String> = (0..ids)
        .map(ObjectId)
        .map(|id| match (h.direct_addr(id), h.get(id)) {
            (Ok(addr), Ok(obj)) => format!("{addr:#x} {obj:?}"),
            _ => "freed".into(),
        })
        .collect();
    seen.push(format!("live {} bytes {} gc {}", h.len(), h.bytes_allocated, h.gc_cycles));
    seen
}

/// A heap built by replaying `ops` on an empty one, and its id count.
fn replay(ops: &[HeapOp]) -> (Heap, u32) {
    let (mut h, mut ids) = (Heap::new(), 0);
    ops.iter().for_each(|&op| apply(&mut h, &mut ids, op));
    (h, ids)
}

proptest! {
    /// Interleaved value/taint slots never interfere: for any set of
    /// writes, each register reads back exactly what was written.
    #[test]
    fn stack_slots_are_independent(
        regs in 1u16..32,
        writes in collection::vec((0u16..32, any::<u32>(), any::<u32>()), 0..64)
    ) {
        let mut s = DvmStack::new();
        s.push_frame(MethodId(0), regs, &[]).unwrap();
        let mut model = vec![(0u32, Taint::CLEAR); regs as usize];
        for (reg, value, taint_bits) in writes {
            let reg = reg % regs;
            let t = Taint(taint_bits);
            s.set(reg, value, t).unwrap();
            model[reg as usize] = (value, t);
        }
        for (i, (value, taint)) in model.iter().enumerate() {
            prop_assert_eq!(s.reg(i as u16).unwrap(), *value);
            prop_assert_eq!(s.taint(i as u16).unwrap(), *taint);
        }
    }

    /// Pushing and popping arbitrary frame stacks always restores the
    /// caller's registers bit-for-bit.
    #[test]
    fn frames_nest_arbitrarily(sizes in collection::vec(1u16..16, 1..12)) {
        let mut s = DvmStack::new();
        let mut saved: Vec<(u16, u32)> = Vec::new();
        for (i, regs) in sizes.iter().enumerate() {
            s.push_frame(MethodId(i as u32), *regs, &[]).unwrap();
            let marker = 0xA000_0000 | i as u32;
            s.set(0, marker, Taint(i as u32)).unwrap();
            saved.push((*regs, marker));
        }
        for (i, (_regs, marker)) in saved.iter().enumerate().rev() {
            prop_assert_eq!(s.current_method(), MethodId(i as u32));
            prop_assert_eq!(s.reg(0).unwrap(), *marker);
            prop_assert_eq!(s.taint(0).unwrap(), Taint(i as u32));
            s.pop_frame();
        }
        prop_assert_eq!(s.depth(), 0);
    }

    /// Heap compaction preserves every object's contents and taint, and
    /// always assigns fresh, unique addresses.
    #[test]
    fn compaction_preserves_objects(
        strings in collection::vec((any::<String>(), any::<u32>()), 1..24),
        cycles in 1u32..5
    ) {
        let mut h = Heap::new();
        let ids: Vec<ObjectId> = strings
            .iter()
            .map(|(s, t)| h.alloc_string(s.clone(), Taint(*t)))
            .collect();
        for _ in 0..cycles {
            h.compact();
        }
        let mut seen = std::collections::HashSet::new();
        for (id, (s, t)) in ids.iter().zip(strings.iter()) {
            let (text, taint) = h.string(*id).unwrap();
            prop_assert_eq!(&**text, s.as_str());
            prop_assert_eq!(taint, Taint(*t));
            let addr = h.direct_addr(*id).unwrap();
            prop_assert!(seen.insert(addr), "addresses stay unique");
        }
    }

    /// A cloned heap (a snapshot fork) and the heap it came from each
    /// equal a heap that replays their own operations from empty —
    /// every id, direct address, content and counter — after every step
    /// of either side, so neither ever sees the other's writes.
    #[test]
    fn heap_fork_equals_a_fresh_replay(
        prefix in collection::vec(heap_op(), 0..24),
        parent_ops in collection::vec(heap_op(), 0..16),
        fork_ops in collection::vec(heap_op(), 0..16),
    ) {
        let (mut parent, mut parent_ids) = replay(&prefix);
        let (mut fork, mut fork_ids) = (parent.clone(), parent_ids);
        let (mut parent_log, mut fork_log) = (prefix.clone(), prefix);
        for step in 0..parent_ops.len().max(fork_ops.len()) {
            if let Some(&op) = parent_ops.get(step) {
                apply(&mut parent, &mut parent_ids, op);
                parent_log.push(op);
            }
            if let Some(&op) = fork_ops.get(step) {
                apply(&mut fork, &mut fork_ids, op);
                fork_log.push(op);
            }
            let (fresh, ids) = replay(&parent_log);
            prop_assert_eq!(observe(&parent, parent_ids), observe(&fresh, ids));
            let (fresh, ids) = replay(&fork_log);
            prop_assert_eq!(observe(&fork, fork_ids), observe(&fresh, ids));
        }
    }

    /// Indirect references: decode returns exactly the registered
    /// object until deleted, and never resolves after deletion even if
    /// the slot is reused.
    #[test]
    fn indirect_refs_are_stable_and_safe(ops in collection::vec(any::<bool>(), 1..64)) {
        let mut t = IndirectRefTable::new();
        let mut live: Vec<(ndroid_dvm::IndirectRef, ObjectId)> = Vec::new();
        let mut dead: Vec<ndroid_dvm::IndirectRef> = Vec::new();
        let mut next_obj = 0u32;
        for add in ops {
            if add || live.is_empty() {
                let obj = ObjectId(next_obj);
                next_obj += 1;
                let kind = if next_obj.is_multiple_of(2) {
                    IndirectRefKind::Local
                } else {
                    IndirectRefKind::Global
                };
                live.push((t.add(kind, obj), obj));
            } else {
                let (r, _) = live.swap_remove(0);
                t.delete(r).unwrap();
                dead.push(r);
            }
            for (r, obj) in &live {
                prop_assert_eq!(t.decode(*r).unwrap(), *obj);
            }
            for r in &dead {
                prop_assert!(t.decode(*r).is_err(), "stale ref must not resolve");
            }
        }
        prop_assert_eq!(t.len(), live.len());
    }

    /// Taint union is commutative, associative and idempotent over
    /// arbitrary labels (the lattice the whole system relies on).
    #[test]
    fn taint_union_is_a_semilattice(a in any::<u32>(), b in any::<u32>(), c in any::<u32>()) {
        let (a, b, c) = (Taint(a), Taint(b), Taint(c));
        prop_assert_eq!(a | b, b | a);
        prop_assert_eq!((a | b) | c, a | (b | c));
        prop_assert_eq!(a | a, a);
        prop_assert!((a | b).contains(a));
        prop_assert!((a | b).contains(b));
    }
}
