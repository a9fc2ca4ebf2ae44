//! A minimal property-testing strategy layer, API-compatible with the
//! subset of `proptest` this workspace uses: range and `any::<T>()`
//! strategies, `Just`, tuples, `prop_map` / `prop_flat_map`,
//! `prop_oneof!` unions, and `collection::vec`.
//!
//! Generation follows proptest's value-tree design: a [`Strategy`]
//! produces a [`ValueTree`] from an RNG; the tree yields the current
//! value and supports greedy shrinking via `simplify` (make the value
//! simpler) and `complicate` (step back after over-shrinking).

use crate::rng::Pcg32;
use std::fmt::Debug;
use std::rc::Rc;

/// A generated value plus its shrink state.
pub trait ValueTree {
    /// The value type produced.
    type Value;

    /// The current value (owned; trees clone internally).
    fn current(&self) -> Self::Value;

    /// Attempts to make the current value simpler. Returns `false`
    /// when no simpler candidate exists.
    fn simplify(&mut self) -> bool;

    /// Undoes the most recent `simplify` after the simpler value
    /// passed the property (i.e. shrank too far). Returns `false` when
    /// there is nothing to restore.
    fn complicate(&mut self) -> bool;
}

impl<V> ValueTree for Box<dyn ValueTree<Value = V>> {
    type Value = V;
    fn current(&self) -> V {
        (**self).current()
    }
    fn simplify(&mut self) -> bool {
        (**self).simplify()
    }
    fn complicate(&mut self) -> bool {
        (**self).complicate()
    }
}

/// A recipe for generating values of one shape.
pub trait Strategy {
    /// The value type produced.
    type Value: Clone + Debug + 'static;

    /// Draws a fresh value tree from the RNG.
    fn new_tree(&self, rng: &mut Pcg32) -> Box<dyn ValueTree<Value = Self::Value>>;

    /// Maps generated values through `f` (shrinking still happens on
    /// the pre-map value).
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        O: Clone + Debug + 'static,
        F: Fn(Self::Value) -> O + 'static,
    {
        Map {
            source: self,
            f: Rc::new(f),
        }
    }

    /// Generates a value, then generates from the strategy `f` builds
    /// out of it (dependent generation). Shrinking is confined to the
    /// second stage.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2 + 'static,
    {
        FlatMap {
            source: self,
            f: Rc::new(f),
        }
    }

    /// Type-erases the strategy (needed by `prop_oneof!`, whose arms
    /// have distinct concrete types).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }
}

/// A type-erased, cheaply clonable strategy.
pub struct BoxedStrategy<V>(Rc<dyn Strategy<Value = V>>);

impl<V> Clone for BoxedStrategy<V> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<V: Clone + Debug + 'static> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn new_tree(&self, rng: &mut Pcg32) -> Box<dyn ValueTree<Value = V>> {
        self.0.new_tree(rng)
    }
}

// --- Just ------------------------------------------------------------

/// Always produces a clone of the wrapped value; never shrinks.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

struct JustTree<T>(T);

impl<T: Clone> ValueTree for JustTree<T> {
    type Value = T;
    fn current(&self) -> T {
        self.0.clone()
    }
    fn simplify(&mut self) -> bool {
        false
    }
    fn complicate(&mut self) -> bool {
        false
    }
}

impl<T: Clone + Debug + 'static> Strategy for Just<T> {
    type Value = T;
    fn new_tree(&self, _rng: &mut Pcg32) -> Box<dyn ValueTree<Value = T>> {
        Box::new(JustTree(self.0.clone()))
    }
}

// --- integers --------------------------------------------------------

/// Integer types usable as range strategies.
pub trait IntValue: Copy + Clone + Debug + PartialOrd + 'static {
    /// Lossless widening for shrink arithmetic.
    fn to_i128(self) -> i128;
    /// Narrowing back (values stay in the original range).
    fn from_i128(v: i128) -> Self;
}

macro_rules! int_value {
    ($($t:ty),*) => {$(
        impl IntValue for $t {
            fn to_i128(self) -> i128 { self as i128 }
            fn from_i128(v: i128) -> $t { v as $t }
        }
    )*};
}
int_value!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Tree for an integer constrained to `[lo, hi]`: a binary search
/// toward the simplest in-range value (0 when the range contains it,
/// else the bound nearest zero).
struct RangeTree<T: IntValue> {
    curr: i128,
    /// Last value known to fail (shrinking retreats here).
    hi: i128,
    /// Simplest candidate still worth trying.
    target: i128,
    _marker: std::marker::PhantomData<T>,
}

impl<T: IntValue> ValueTree for RangeTree<T> {
    type Value = T;

    fn current(&self) -> T {
        T::from_i128(self.curr)
    }

    fn simplify(&mut self) -> bool {
        if self.curr == self.target {
            return false;
        }
        self.hi = self.curr;
        self.curr = self.target + (self.curr - self.target) / 2;
        true
    }

    fn complicate(&mut self) -> bool {
        if self.curr == self.hi {
            return false;
        }
        // The value at `curr` passed; anything at least one step back
        // toward the last failure may still fail.
        self.target = if self.curr < self.hi {
            self.curr + 1
        } else {
            self.curr - 1
        };
        self.curr = self.hi;
        true
    }
}

fn tree_with_value<T: IntValue>(lo: i128, hi: i128, curr: i128) -> Box<dyn ValueTree<Value = T>> {
    let target = if lo <= 0 && 0 <= hi {
        0
    } else if lo > 0 {
        lo
    } else {
        hi
    };
    Box::new(RangeTree::<T> {
        curr,
        hi: curr,
        target,
        _marker: std::marker::PhantomData,
    })
}

fn range_tree<T: IntValue>(rng: &mut Pcg32, lo: i128, hi: i128) -> Box<dyn ValueTree<Value = T>> {
    assert!(lo <= hi, "empty strategy range");
    let span = (hi - lo + 1) as u128;
    let curr = lo + (rng.next_u64() as u128 % span) as i128;
    tree_with_value(lo, hi, curr)
}

impl<T: IntValue> Strategy for std::ops::Range<T> {
    type Value = T;
    fn new_tree(&self, rng: &mut Pcg32) -> Box<dyn ValueTree<Value = T>> {
        range_tree(rng, self.start.to_i128(), self.end.to_i128() - 1)
    }
}

impl<T: IntValue> Strategy for std::ops::RangeInclusive<T> {
    type Value = T;
    fn new_tree(&self, rng: &mut Pcg32) -> Box<dyn ValueTree<Value = T>> {
        range_tree(rng, self.start().to_i128(), self.end().to_i128())
    }
}

// --- any::<T>() ------------------------------------------------------

/// Types with a canonical whole-domain strategy (`any::<T>()`).
pub trait Arbitrary: Clone + Debug + 'static {
    /// The strategy `any::<Self>()` returns.
    type Strategy: Strategy<Value = Self>;
    /// Builds the whole-domain strategy.
    fn arbitrary() -> Self::Strategy;
}

/// The whole-domain strategy for `T` (proptest's `any`).
pub fn any<A: Arbitrary>() -> A::Strategy {
    A::arbitrary()
}

/// Whole-domain integer strategy with edge-case bias: a slice of draws
/// lands on 0 / ±1 / MIN / MAX, the rest are uniform.
#[derive(Debug, Clone)]
pub struct IntAny<T> {
    _marker: std::marker::PhantomData<T>,
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Strategy for IntAny<$t> {
            type Value = $t;
            fn new_tree(&self, rng: &mut Pcg32) -> Box<dyn ValueTree<Value = $t>> {
                let specials: [$t; 4] = [0 as $t, 1 as $t, <$t>::MIN, <$t>::MAX];
                let v: $t = if rng.gen_bool(0.10) {
                    *rng.choose(&specials).unwrap()
                } else {
                    rng.next_u64() as $t
                };
                tree_with_value(<$t>::MIN.to_i128(), <$t>::MAX.to_i128(), v.to_i128())
            }
        }
        impl Arbitrary for $t {
            type Strategy = IntAny<$t>;
            fn arbitrary() -> IntAny<$t> {
                IntAny { _marker: std::marker::PhantomData }
            }
        }
    )*};
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// `any::<bool>()`: uniform, shrinks `true → false`.
#[derive(Debug, Clone)]
pub struct BoolAny;

struct BoolTree {
    curr: bool,
    orig: bool,
}

impl ValueTree for BoolTree {
    type Value = bool;
    fn current(&self) -> bool {
        self.curr
    }
    fn simplify(&mut self) -> bool {
        if self.curr {
            self.curr = false;
            true
        } else {
            false
        }
    }
    fn complicate(&mut self) -> bool {
        if self.curr != self.orig {
            self.curr = self.orig;
            true
        } else {
            false
        }
    }
}

impl Strategy for BoolAny {
    type Value = bool;
    fn new_tree(&self, rng: &mut Pcg32) -> Box<dyn ValueTree<Value = bool>> {
        let v = rng.gen_bool(0.5);
        Box::new(BoolTree { curr: v, orig: v })
    }
}

impl Arbitrary for bool {
    type Strategy = BoolAny;
    fn arbitrary() -> BoolAny {
        BoolAny
    }
}

/// `any::<String>()`: 0–32 chars mixing ASCII with a few multi-byte
/// code points; shrinks by dropping characters from the end.
#[derive(Debug, Clone)]
pub struct StringAny;

struct StringTree {
    chars: Vec<char>,
    removed: Vec<char>,
}

impl ValueTree for StringTree {
    type Value = String;
    fn current(&self) -> String {
        self.chars.iter().collect()
    }
    fn simplify(&mut self) -> bool {
        match self.chars.pop() {
            Some(c) => {
                self.removed.push(c);
                true
            }
            None => false,
        }
    }
    fn complicate(&mut self) -> bool {
        match self.removed.pop() {
            Some(c) => {
                self.chars.push(c);
                true
            }
            None => false,
        }
    }
}

impl Strategy for StringAny {
    type Value = String;
    fn new_tree(&self, rng: &mut Pcg32) -> Box<dyn ValueTree<Value = String>> {
        let len = rng.gen_range(0usize..32);
        let chars = (0..len)
            .map(|_| match rng.gen_range(0u32..10) {
                0 => char::from_u32(rng.gen_range(0x80u32..0x2000)).unwrap_or('¤'),
                1 => '\u{1F980}', // astral-plane crab, 4 UTF-8 bytes
                _ => rng.gen_range(0x20u8..0x7F) as char,
            })
            .collect();
        Box::new(StringTree {
            chars,
            removed: Vec::new(),
        })
    }
}

impl Arbitrary for String {
    type Strategy = StringAny;
    fn arbitrary() -> StringAny {
        StringAny
    }
}

// --- map / flat_map --------------------------------------------------

/// Strategy produced by [`Strategy::prop_map`].
pub struct Map<S, F: ?Sized> {
    source: S,
    f: Rc<F>,
}

struct MapTree<V, O> {
    inner: Box<dyn ValueTree<Value = V>>,
    f: Rc<dyn Fn(V) -> O>,
}

impl<V, O> ValueTree for MapTree<V, O> {
    type Value = O;
    fn current(&self) -> O {
        (self.f)(self.inner.current())
    }
    fn simplify(&mut self) -> bool {
        self.inner.simplify()
    }
    fn complicate(&mut self) -> bool {
        self.inner.complicate()
    }
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    O: Clone + Debug + 'static,
    F: Fn(S::Value) -> O + 'static,
{
    type Value = O;
    fn new_tree(&self, rng: &mut Pcg32) -> Box<dyn ValueTree<Value = O>> {
        Box::new(MapTree {
            inner: self.source.new_tree(rng),
            f: self.f.clone() as Rc<dyn Fn(S::Value) -> O>,
        })
    }
}

/// Strategy produced by [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F: ?Sized> {
    source: S,
    f: Rc<F>,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2 + 'static,
{
    type Value = S2::Value;
    fn new_tree(&self, rng: &mut Pcg32) -> Box<dyn ValueTree<Value = S2::Value>> {
        let source_value = self.source.new_tree(rng).current();
        let second = (self.f)(source_value);
        second.new_tree(rng)
    }
}

// --- unions (prop_oneof!) --------------------------------------------

/// Uniform choice between same-valued strategies; shrinking stays
/// within the chosen arm (and retries earlier arms once exhausted).
pub struct Union<V> {
    arms: Vec<BoxedStrategy<V>>,
}

impl<V: Clone + Debug + 'static> Union<V> {
    /// Builds a union; panics if `arms` is empty.
    pub fn new(arms: Vec<BoxedStrategy<V>>) -> Union<V> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<V: Clone + Debug + 'static> Strategy for Union<V> {
    type Value = V;
    fn new_tree(&self, rng: &mut Pcg32) -> Box<dyn ValueTree<Value = V>> {
        let idx = rng.gen_range(0..self.arms.len());
        self.arms[idx].new_tree(rng)
    }
}

// --- tuples ----------------------------------------------------------

macro_rules! tuple_strategy {
    ($name:ident : $(($S:ident, $idx:tt)),+) => {
        /// Shrink state for one tuple arity: components simplify
        /// left-to-right, greedily.
        pub struct $name<$($S: ValueTree),+> {
            trees: ($($S,)+),
            pos: usize,
            last: usize,
        }

        impl<$($S: ValueTree),+> ValueTree for $name<$($S),+> {
            type Value = ($($S::Value,)+);

            fn current(&self) -> Self::Value {
                ($(self.trees.$idx.current(),)+)
            }

            fn simplify(&mut self) -> bool {
                let n = [$($idx,)+].len();
                while self.pos < n {
                    let stepped = match self.pos {
                        $($idx => self.trees.$idx.simplify(),)+
                        _ => false,
                    };
                    if stepped {
                        self.last = self.pos;
                        return true;
                    }
                    self.pos += 1;
                }
                false
            }

            fn complicate(&mut self) -> bool {
                match self.last {
                    $($idx => self.trees.$idx.complicate(),)+
                    _ => false,
                }
            }
        }

        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);
            fn new_tree(&self, rng: &mut Pcg32) -> Box<dyn ValueTree<Value = Self::Value>> {
                Box::new($name {
                    trees: ($(self.$idx.new_tree(rng),)+),
                    pos: 0,
                    last: 0,
                })
            }
        }
    };
}

tuple_strategy!(TupleTree1: (A, 0));
tuple_strategy!(TupleTree2: (A, 0), (B, 1));
tuple_strategy!(TupleTree3: (A, 0), (B, 1), (C, 2));
tuple_strategy!(TupleTree4: (A, 0), (B, 1), (C, 2), (D, 3));
tuple_strategy!(TupleTree5: (A, 0), (B, 1), (C, 2), (D, 3), (E, 4));
tuple_strategy!(TupleTree6: (A, 0), (B, 1), (C, 2), (D, 3), (E, 4), (F, 5));
tuple_strategy!(TupleTree7: (A, 0), (B, 1), (C, 2), (D, 3), (E, 4), (F, 5), (G, 6));
tuple_strategy!(TupleTree8: (A, 0), (B, 1), (C, 2), (D, 3), (E, 4), (F, 5), (G, 6), (H, 7));
tuple_strategy!(TupleTree9: (A, 0), (B, 1), (C, 2), (D, 3), (E, 4), (F, 5), (G, 6), (H, 7), (I, 8));
tuple_strategy!(TupleTree10: (A, 0), (B, 1), (C, 2), (D, 3), (E, 4), (F, 5), (G, 6), (H, 7), (I, 8), (J, 9));

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Pcg32 {
        Pcg32::seed_from_u64(0xDEAD_BEEF)
    }

    #[test]
    fn range_strategy_in_bounds() {
        let mut r = rng();
        for _ in 0..500 {
            let t = (5u32..10).new_tree(&mut r);
            assert!((5..10).contains(&t.current()));
            let t = (-8i32..=8).new_tree(&mut r);
            assert!((-8..=8).contains(&t.current()));
        }
    }

    #[test]
    fn integer_shrinks_toward_zero_in_range() {
        let mut r = rng();
        let mut t = (0u32..1000).new_tree(&mut r);
        // Simplify all the way: must terminate at the target.
        while t.simplify() {}
        assert_eq!(t.current(), 0);
        let mut t = (10u32..1000).new_tree(&mut r);
        while t.simplify() {}
        assert_eq!(t.current(), 10, "target is the low bound when 0 excluded");
        let mut t = (-100i32..=-50).new_tree(&mut r);
        while t.simplify() {}
        assert_eq!(t.current(), -50, "negative range shrinks toward 0 side");
    }

    #[test]
    fn shrink_complicate_binary_search_converges() {
        // Property: value >= 573 fails. The shrinker should find a
        // small counterexample at or near 573.
        let mut r = rng();
        let failing = |v: u32| v >= 573;
        let mut t = loop {
            let t = (0u32..10_000).new_tree(&mut r);
            if failing(t.current()) {
                break t;
            }
        };
        let mut steps = 0;
        loop {
            steps += 1;
            assert!(steps < 200, "shrink loop must converge");
            if !t.simplify() {
                break;
            }
            if !failing(t.current()) && !t.complicate() {
                break;
            }
        }
        assert_eq!(t.current(), 573, "binary search finds the boundary");
    }

    #[test]
    fn map_shrinks_source() {
        let mut r = rng();
        let s = (0u32..100).prop_map(|v| v * 2);
        let mut t = s.new_tree(&mut r);
        assert_eq!(t.current() % 2, 0);
        while t.simplify() {}
        assert_eq!(t.current(), 0);
    }

    #[test]
    fn flat_map_dependent_generation() {
        let mut r = rng();
        let s = (1u32..10).prop_flat_map(|n| (Just(n), 0u32..n));
        for _ in 0..200 {
            let (n, v) = s.new_tree(&mut r).current();
            assert!(v < n, "{v} < {n}");
        }
    }

    #[test]
    fn union_picks_all_arms() {
        let mut r = rng();
        let u = Union::new(vec![Just(1u32).boxed(), Just(2u32).boxed(), Just(3u32).boxed()]);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(u.new_tree(&mut r).current());
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn tuple_components_shrink_independently() {
        let mut r = rng();
        let mut t = ((0u32..50), (0u32..50)).new_tree(&mut r);
        while t.simplify() {}
        assert_eq!(t.current(), (0, 0));
    }

    #[test]
    fn bool_and_string_arbitrary() {
        let mut r = rng();
        let trues = (0..200)
            .filter(|_| any::<bool>().new_tree(&mut r).current())
            .count();
        assert!((60..=140).contains(&trues), "{trues} of 200 true");
        let mut t = any::<bool>().new_tree(&mut r);
        while t.simplify() {}
        assert!(!t.current());
        let mut t = any::<String>().new_tree(&mut r);
        let orig_len = t.current().chars().count();
        while t.simplify() {}
        assert!(t.current().is_empty());
        // complicate restores one char at a time
        if orig_len > 0 {
            assert!(t.complicate());
            assert_eq!(t.current().chars().count(), 1);
        }
    }

    #[test]
    fn any_int_hits_edges_sometimes() {
        let mut r = rng();
        let mut zero_or_max = 0;
        for _ in 0..2_000 {
            let v = any::<u32>().new_tree(&mut r).current();
            if v == 0 || v == u32::MAX || v == 1 {
                zero_or_max += 1;
            }
        }
        assert!(zero_or_max > 20, "edge bias present ({zero_or_max})");
    }
}
