//! Property-based tests of the DVM substrates: the TaintDroid stack,
//! the moving heap, and the indirect-reference table.

use ndroid_dvm::stack::DvmStack;
use ndroid_dvm::{Heap, IndirectRefKind, IndirectRefTable, MethodId, ObjectId, Taint};
use ndroid_testkit::prelude::*;

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
