//! The multilevel hooking technique (Fig. 5 of the paper).
//!
//! "Since the methods `dvmCallMethod*` and `dvmInterpret` may also be
//! invoked by other codes rather than the native codes under
//! investigation, the overhead will be high if we hook these two
//! functions whenever they are called. … Its basic idea is to define
//! and check a sequence of preconditions before hooking certain
//! methods." (§V-B)
//!
//! A [`MultilevelHook`] starts when the code under analysis enters the
//! outermost function of a chain (T1; the caller checks where the
//! branch came from), then watches the branch-event stream
//! `(I_from, I_to)` and maintains which condition in the chain
//! T1 → T2 → … is currently satisfied. Instrumentation of the function
//! at `chain[k]` fires only when T(k+1) holds — i.e. only when the call
//! chain started from the third-party native code.

/// The most levels a chain may have: Table III's deepest chain,
/// `Call*Method → dvmCallMethod* → dvmInterpret`, has three.
const MAX_LEVELS: usize = 3;

/// A chain of call-entry conditions, e.g.
/// `[CallVoidMethodA, dvmCallMethodA, dvmInterpret]`, borrowed from a
/// process-wide table.
#[derive(Debug, Clone)]
pub struct MultilevelHook {
    chain: &'static [u32],
    /// Number of chain levels currently satisfied (1 = T1 holds; …;
    /// chain.len() = deepest condition holds; 0 = the chain is done).
    depth: usize,
    /// The return address of each satisfied level's call, used to
    /// recognize the unwind conditions (T4…T6).
    call_sites: [u32; MAX_LEVELS],
}

impl MultilevelHook {
    /// Starts `chain` at T1: the code under analysis branched from
    /// `from` to `chain[0]`.
    ///
    /// # Panics
    ///
    /// Panics on an empty chain or one of more than three levels.
    pub fn enter(chain: &'static [u32], from: u32) -> MultilevelHook {
        assert!(
            (1..=MAX_LEVELS).contains(&chain.len()),
            "multilevel chain must have 1 to {MAX_LEVELS} levels"
        );
        let mut call_sites = [0; MAX_LEVELS];
        call_sites[0] = from.wrapping_add(4);
        MultilevelHook { chain, depth: 1, call_sites }
    }

    /// Current satisfied depth (0 = the chain has unwound).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Feeds one branch event. Returns the chain level *entered* by
    /// this event, if any.
    pub fn on_branch(&mut self, from: u32, to: u32) -> Option<usize> {
        let depth = self.depth;
        if depth == 0 {
            return None;
        }
        // Deeper condition: the next chain element is entered from
        // wherever the previous level's function is executing (T(k)
        // for k ≥ 2 only requires T(k-1) active).
        if depth < self.chain.len() && to == self.chain[depth] {
            self.call_sites[depth] = from.wrapping_add(4);
            self.depth += 1;
            return Some(depth);
        }
        // Unwind: a return to the instruction after the call site that
        // entered the current level (T4/T5/T6: "I_to equals C+4, the
        // address next to the instruction that calls …").
        if to == self.call_sites[depth - 1] {
            self.depth -= 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CALL_VOID: u32 = 0x6000_0100; // "CallVoidMethodA"
    const DVM_CALL: u32 = 0x6000_0200; // "dvmCallMethodA"
    const DVM_INTERP: u32 = 0x6000_0300; // "dvmInterpret"
    const CHAIN: &[u32] = &[CALL_VOID, DVM_CALL, DVM_INTERP];

    #[test]
    fn full_chain_from_native_fig5() {
        // Step 1: native code calls CallVoidMethodA (T1).
        let mut h = MultilevelHook::enter(CHAIN, 0x1000_0040);
        assert_eq!(h.depth(), 1);
        // Step 2: CallVoidMethodA calls dvmCallMethodA (T2).
        assert_eq!(h.on_branch(CALL_VOID + 0x10, DVM_CALL), Some(1));
        // Step 3: dvmCallMethodA calls dvmInterpret (T3).
        assert_eq!(h.on_branch(DVM_CALL + 0x10, DVM_INTERP), Some(2));
        assert_eq!(h.depth(), 3);
        // Step 4: dvmInterpret returns to dvmCallMethodA (T4).
        assert_eq!(h.on_branch(DVM_INTERP + 0x50, DVM_CALL + 0x14), None);
        assert_eq!(h.depth(), 2);
        // Step 5: return to CallVoidMethodA (T5).
        h.on_branch(DVM_CALL + 0x40, CALL_VOID + 0x14);
        assert_eq!(h.depth(), 1);
        // Step 6: return to the native code (T6).
        h.on_branch(CALL_VOID + 0x30, 0x1000_0044);
        assert_eq!(h.depth(), 0);
        // An unwound chain enters nothing, not even its own levels.
        assert_eq!(h.on_branch(0x1000_0040, CALL_VOID), None);
        assert_eq!(h.on_branch(CALL_VOID + 0x10, DVM_CALL), None);
        assert_eq!(h.depth(), 0);
    }

    #[test]
    fn returns_unwind_only_to_their_own_call_site() {
        let mut h = MultilevelHook::enter(CHAIN, 0x1000_0040);
        h.on_branch(CALL_VOID + 0x10, DVM_CALL);
        // A branch that comes *from* the call site, or returns to the
        // outer level's call site, unwinds nothing.
        h.on_branch(CALL_VOID + 0x14, 0x1000_0100);
        h.on_branch(DVM_CALL + 4, 0x1000_0044);
        assert_eq!(h.depth(), 2);
        // Levels are entered in order: dvmInterpret again from inside
        // it, or the bridge again, enters nothing new.
        h.on_branch(DVM_CALL + 0x10, DVM_INTERP);
        assert_eq!(h.on_branch(DVM_INTERP + 8, DVM_INTERP), None);
        assert_eq!(h.on_branch(DVM_INTERP + 8, DVM_CALL), None);
        assert_eq!(h.depth(), 3);
        h.on_branch(DVM_INTERP + 4, DVM_CALL + 0x14);
        assert_eq!(h.depth(), 2);
    }

    #[test]
    #[should_panic(expected = "chain must have 1 to 3 levels")]
    fn empty_chain_rejected() {
        MultilevelHook::enter(&[], 0x1000_0040);
    }
}
