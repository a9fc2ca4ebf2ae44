//! Collection strategies — `collection::vec`, mirroring
//! `proptest::collection::vec`.

use crate::rng::Pcg32;
use crate::strategy::{Strategy, ValueTree};
use std::fmt::Debug;
use std::ops::{Bound, RangeBounds};

/// Length bounds for a generated vector (built from any usize range).
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    /// Minimum length (inclusive).
    pub min: usize,
    /// Maximum length (inclusive).
    pub max: usize,
}

impl<R: RangeBounds<usize>> From<R> for SizeRange {
    fn from(r: R) -> SizeRange {
        let min = match r.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let max = match r.end_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n.saturating_sub(1),
            Bound::Unbounded => 64,
        };
        assert!(min <= max, "empty vec size range");
        SizeRange { min, max }
    }
}

/// `vec(element_strategy, 0..64)` — a vector whose length is drawn
/// from the size range and whose elements come from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// Strategy returned by [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn new_tree(&self, rng: &mut Pcg32) -> Box<dyn ValueTree<Value = Vec<S::Value>>> {
        let len = rng.gen_range(self.size.min..=self.size.max);
        let elems = (0..len).map(|_| self.element.new_tree(rng)).collect();
        Box::new(VecTree {
            elems,
            min_len: self.size.min,
            phase: Phase::Remove,
            elem_pos: 0,
            last: LastOp::None,
            backup: None,
        })
    }
}

enum Phase {
    /// Dropping elements from the end (greedy length reduction).
    Remove,
    /// Shrinking surviving elements left-to-right.
    Elements,
}

enum LastOp {
    None,
    Removed,
    Elem(usize),
}

struct VecTree<V> {
    elems: Vec<Box<dyn ValueTree<Value = V>>>,
    min_len: usize,
    phase: Phase,
    elem_pos: usize,
    last: LastOp,
    backup: Option<Box<dyn ValueTree<Value = V>>>,
}

impl<V: Clone> ValueTree for VecTree<V> {
    type Value = Vec<V>;

    fn current(&self) -> Vec<V> {
        self.elems.iter().map(|t| t.current()).collect()
    }

    fn simplify(&mut self) -> bool {
        if let Phase::Remove = self.phase {
            if self.elems.len() > self.min_len {
                self.backup = self.elems.pop();
                self.last = LastOp::Removed;
                return true;
            }
            self.phase = Phase::Elements;
        }
        while self.elem_pos < self.elems.len() {
            if self.elems[self.elem_pos].simplify() {
                self.last = LastOp::Elem(self.elem_pos);
                return true;
            }
            self.elem_pos += 1;
        }
        false
    }

    fn complicate(&mut self) -> bool {
        match self.last {
            LastOp::None => false,
            LastOp::Removed => {
                // The shorter vector passed — that element mattered.
                // Restore it and move on to element-wise shrinking.
                if let Some(t) = self.backup.take() {
                    self.elems.push(t);
                }
                self.phase = Phase::Elements;
                self.last = LastOp::None;
                true
            }
            LastOp::Elem(i) => self.elems[i].complicate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::any;

    #[test]
    fn length_respects_bounds() {
        let mut rng = Pcg32::seed_from_u64(3);
        let s = vec(any::<u8>(), 2..7);
        for _ in 0..200 {
            let v = s.new_tree(&mut rng).current();
            assert!((2..7).contains(&v.len()), "{}", v.len());
        }
    }

    #[test]
    fn shrinks_to_min_len_and_simple_elements() {
        let mut rng = Pcg32::seed_from_u64(5);
        let s = vec(0u32..100, 1..8);
        let mut t = s.new_tree(&mut rng);
        while t.simplify() {}
        let v = t.current();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0], 0);
    }

    #[test]
    fn complicate_restores_removed_element() {
        let mut rng = Pcg32::seed_from_u64(8);
        let s = vec(0u32..10, 3..6);
        let mut t = s.new_tree(&mut rng);
        let before = t.current();
        if t.simplify() {
            assert_eq!(t.current().len(), before.len() - 1);
            assert!(t.complicate());
            assert_eq!(t.current().len(), before.len());
        }
    }

    #[test]
    fn nested_vecs_work() {
        let mut rng = Pcg32::seed_from_u64(9);
        let s = vec(vec(any::<u8>(), 0..4), 1..5);
        let v = s.new_tree(&mut rng).current();
        assert!(!v.is_empty());
        for inner in v {
            assert!(inner.len() < 4);
        }
    }

    #[test]
    fn tuple_elements_in_vec() {
        let mut rng = Pcg32::seed_from_u64(10);
        let s = vec((0u16..32, any::<u32>()), 0..16);
        let v = s.new_tree(&mut rng).current();
        for (a, _) in v {
            assert!(a < 32);
        }
    }
}
