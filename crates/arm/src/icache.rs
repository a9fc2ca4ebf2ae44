//! The decoded-instruction cache.
//!
//! "It takes time to decide each instruction because there are 148 ARM
//! instructions and 73 Thumb instructions and each instruction does not
//! have fixed bits to denote the opcode. To speed up the identification
//! of the instruction type and the search of the handler, NDroid caches
//! hot instructions and the corresponding handlers" (§V-C). This module
//! is that cache at the fetch/decode layer: a two-level, page-organized
//! store of already-decoded [`Instr`]s keyed by `(pc, thumb-bit)`,
//! consulted by [`crate::exec::step_cached`].
//!
//! Coherency is the shared [`PageVersioned`] protocol: each cache page
//! is validated against the [`Memory::page_version`] write generation
//! and slot lineage it was filled under, so self-modifying code is
//! re-decoded on its next fetch. Instructions that straddle a page
//! boundary (a 32-bit Thumb pair at offset `0xFFE`) are never cached: a
//! write to the *second* page could not be detected by the first page's
//! generation.

use crate::insn::Instr;
use crate::mem::{Memory, PAGE_MASK, PAGE_SIZE};
use crate::versioned::{PageEntries, PageVersioned};

/// One decode slot per possible instruction start (2-byte granularity:
/// Thumb instructions are half-word aligned, ARM slots use every other
/// entry).
const SLOTS: usize = PAGE_SIZE / 2;

#[derive(Debug, Clone, Copy)]
struct CachedInsn {
    instr: Instr,
    size: u8,
    thumb: bool,
}

/// The decodes cached for one guest page, one slot per half-word.
#[derive(Clone)]
pub struct DecodeSlots(Box<[Option<CachedInsn>; SLOTS]>);

impl Default for DecodeSlots {
    fn default() -> DecodeSlots {
        DecodeSlots(
            vec![None; SLOTS]
                .into_boxed_slice()
                .try_into()
                .unwrap_or_else(|_| unreachable!("length is SLOTS by construction")),
        )
    }
}

impl PageEntries for DecodeSlots {
    fn clear(&mut self) {
        self.0.fill(None);
    }
}

/// Page-organized cache of decoded instructions keyed by `(pc, thumb)`,
/// with [`PageVersioned`] self-modifying-code and lineage invalidation.
pub type DecodeCache = PageVersioned<DecodeSlots>;

impl PageVersioned<DecodeSlots> {
    /// The cached decode of the instruction at `pc` in the given
    /// execution state, if still valid against `mem`'s current write
    /// generation.
    #[inline]
    pub fn lookup(&mut self, mem: &Memory, pc: u32, thumb: bool) -> Option<(Instr, u8)> {
        self.probe(mem, pc, |slots| {
            match slots.0[((pc & PAGE_MASK) >> 1) as usize] {
                Some(e) if e.thumb == thumb => Some((e.instr, e.size)),
                _ => None,
            }
        })
    }

    /// Records a fresh decode of `(pc, thumb)` under `mem`'s current
    /// write generation. Page-straddling instructions are skipped (see
    /// the module docs).
    #[inline]
    pub fn insert(&mut self, mem: &Memory, pc: u32, thumb: bool, instr: Instr, size: u8) {
        let off = (pc & PAGE_MASK) as usize;
        if off + size as usize > PAGE_SIZE {
            return;
        }
        self.record(mem, pc).0[off >> 1] = Some(CachedInsn { instr, size, thumb });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cond::Cond;
    use crate::insn::Instr;

    fn bx_lr() -> Instr {
        Instr::BranchExchange {
            cond: Cond::Al,
            link: false,
            rm: crate::reg::Reg::LR,
        }
    }

    #[test]
    fn hit_after_insert() {
        let mut mem = Memory::new();
        mem.write_u32(0x8000, 0xE12F_FF1E);
        let mut c = DecodeCache::new();
        assert!(c.lookup(&mem, 0x8000, false).is_none());
        c.insert(&mem, 0x8000, false, bx_lr(), 4);
        let (i, sz) = c.lookup(&mem, 0x8000, false).expect("hit");
        assert_eq!((i, sz), (bx_lr(), 4));
        assert_eq!((c.hits, c.misses), (1, 1));
    }

    #[test]
    fn write_to_page_invalidates_lookup() {
        let mut mem = Memory::new();
        mem.write_u32(0x8000, 0xE12F_FF1E);
        let mut c = DecodeCache::new();
        c.insert(&mem, 0x8000, false, bx_lr(), 4);
        mem.write_u8(0x8FFF, 0x42); // anywhere on the page
        assert!(c.lookup(&mem, 0x8000, false).is_none(), "stale entry dropped");
        assert_eq!(c.invalidations, 1);
    }

    #[test]
    fn thumb_and_arm_do_not_alias() {
        let mut mem = Memory::new();
        mem.write_u32(0x8000, 0xE12F_FF1E);
        let mut c = DecodeCache::new();
        c.insert(&mem, 0x8000, false, bx_lr(), 4);
        assert!(c.lookup(&mem, 0x8000, true).is_none(), "mode is part of the key");
    }

    #[test]
    fn different_lineage_memory_never_served_stale_decodes() {
        // The cross-lineage aliasing bug the epoch guard fixes: two
        // unrelated memories can map the same guest page into the same
        // pages[] slot with the same write generation, so the pinned
        // slot+version compare alone would validate a decode of the
        // OTHER memory's bytes.
        let mut mem1 = Memory::new();
        mem1.write_u32(0x8000, 0xE12F_FF1E); // bx lr
        let mut c = DecodeCache::new();
        c.insert(&mem1, 0x8000, false, bx_lr(), 4);
        assert!(c.lookup(&mem1, 0x8000, false).is_some());

        let mut mem2 = Memory::new();
        mem2.write_u32(0x8000, 0xE080_0001); // different bytes, same slot+version shape
        assert!(
            c.lookup(&mem2, 0x8000, false).is_none(),
            "decode of mem1's bytes must not validate against mem2"
        );
        assert_eq!(c.page_count(), 0, "lineage switch drops everything");
    }

    #[test]
    fn fork_without_rebind_drops_cache() {
        let mut mem = Memory::new();
        mem.write_u32(0x8000, 0xE12F_FF1E);
        let mut c = DecodeCache::new();
        c.insert(&mem, 0x8000, false, bx_lr(), 4);
        assert!(c.lookup(&mem, 0x8000, false).is_some());
        let child = mem.fork();
        assert!(c.lookup(&child, 0x8000, false).is_none(), "fork is a new lineage");
    }

    #[test]
    fn fork_with_rebind_keeps_entries_warm_and_smc_aware() {
        let mut mem = Memory::new();
        mem.write_u32(0x8000, 0xE12F_FF1E);
        let mut c = DecodeCache::new();
        c.insert(&mem, 0x8000, false, bx_lr(), 4);
        let mut child = mem.fork();
        let mut forked = c.clone();
        forked.rebind_epoch(child.epoch());
        assert!(
            forked.lookup(&child, 0x8000, false).is_some(),
            "snapshot fork carries the warm decode"
        );
        // Self-modifying code in the child still invalidates the
        // carried page (generations were carried verbatim and the
        // child's write bumps its own copy).
        child.write_u8(0x8001, 0x42);
        assert!(forked.lookup(&child, 0x8000, false).is_none());
        assert_eq!(forked.invalidations, 1);
        // The parent-side cache still validates against the parent.
        assert!(c.lookup(&mem, 0x8000, false).is_some());
    }

    #[test]
    fn page_straddling_instruction_is_not_cached() {
        let mut mem = Memory::new();
        mem.write_u32(0x8FFC, 0);
        let mut c = DecodeCache::new();
        c.insert(&mem, 0x8FFE, true, bx_lr(), 4); // 32-bit Thumb at page edge
        assert!(c.lookup(&mem, 0x8FFE, true).is_none());
    }
}
