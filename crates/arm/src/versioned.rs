//! [`PageVersioned`]: the one coherency protocol behind every cache of
//! state derived from guest code bytes.
//!
//! The decoded-instruction cache ([`crate::icache::DecodeCache`]) and
//! the superblock cache ([`crate::block::BlockCache`]) are both
//! instances of this type; they differ only in what a page holds and
//! how an entry is keyed inside the page.
//!
//! **Invalidation is page-wise and lazy.** Each cache page records the
//! [`Memory::page_version`] write generation its entries were derived
//! under; a lookup whose generation no longer matches drops every entry
//! on the page before answering (and counts an invalidation). Guest
//! writes therefore never have to notify a cache — self-modifying code
//! is re-derived on its next fetch, which is QEMU's translation-block
//! invalidation protocol collapsed onto an interpreter. Callers must
//! never record an entry derived from bytes on two pages: a write to
//! the second page would be invisible to the first page's generation.
//!
//! **Slots are pinned.** The hit path runs once per guest instruction
//! (decode cache) or block dispatch (block cache), so the store mirrors
//! [`Memory`]'s own layout — a `Vec` of pages, an integer-keyed index
//! consulted only on a miss of a one-entry TLB — and each page pins the
//! `Memory` slot backing its guest page (slots are append-only, hence
//! stable), turning the per-hit generation check into one indexed load.
//!
//! **Slots only mean something within one lineage.** A pinned slot
//! number is valid against the [`Memory::epoch`] the cache was warmed
//! under. Handed a `Memory` from any other lineage, the cache drops
//! everything: after a fork diverges, the same slot can back a
//! *different* guest page with the same generation, which the per-page
//! compare alone would validate. A snapshot fork that clones memory and
//! cache as one unit calls [`PageVersioned::rebind_epoch`] instead and
//! keeps the carried entries warm.

use crate::mem::{Memory, PAGE_SHIFT};
use std::collections::HashMap;

/// What one cache page holds: entries derived from one guest page's
/// bytes.
pub trait PageEntries: Default {
    /// Forgets every entry (the page's bytes changed).
    fn clear(&mut self);
}

impl<K, V, S: std::hash::BuildHasher + Default> PageEntries for HashMap<K, V, S> {
    fn clear(&mut self) {
        HashMap::clear(self);
    }
}

/// Multiplicative hasher for small-integer keys (guest page numbers,
/// in-page entry keys). The default SipHash shows up per block dispatch
/// on hot loops; a Fibonacci multiply spreads sequential keys across
/// the table's control bits at the cost of one `mul`.
#[derive(Default)]
pub struct IntHasher(u64);

impl std::hash::Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.0 = (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.0 = (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A `HashMap` over small-integer keys using [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<IntHasher>>;

#[derive(Clone)]
struct Page<T> {
    /// The write generation the entries were derived under.
    version: u64,
    /// The `Memory` slot backing the guest page, pinned on first
    /// resolution (`None` while the guest page is still unmapped).
    mem_slot: Option<u32>,
    entries: T,
}

impl<T: PageEntries> Page<T> {
    /// The current write generation of the guest page, pinning the
    /// backing `Memory` slot on first success.
    #[inline]
    fn live_version(&mut self, mem: &Memory, pageno: u32) -> u64 {
        match self.mem_slot {
            Some(slot) => mem.version_by_slot(slot),
            None => {
                self.mem_slot = mem.slot_of_page(pageno);
                self.mem_slot.map_or(0, |slot| mem.version_by_slot(slot))
            }
        }
    }

    /// Brings the page up to the live generation, dropping its entries
    /// when they were derived from older bytes. Returns whether it did.
    #[inline]
    fn refresh(&mut self, mem: &Memory, pageno: u32) -> bool {
        let live = self.live_version(mem, pageno);
        if live == self.version {
            return false;
        }
        self.version = live;
        self.entries.clear();
        true
    }
}

/// A page-organized cache of entries derived from guest code bytes,
/// validated against [`Memory`] write generations and slot lineage. See
/// the module docs for the protocol.
#[derive(Clone)]
pub struct PageVersioned<T> {
    pages: Vec<Page<T>>,
    index: IntMap<u32, u32>,
    tlb: Option<(u32, u32)>, // (guest page number, pages[] slot)
    /// The [`Memory::epoch`] the pinned slots and generations are valid
    /// against (0 = not yet bound).
    epoch: u64,
    /// When `false` the owner bypasses the cache entirely (the A/B knob
    /// the benches and `SystemConfig` flip).
    pub enabled: bool,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing valid (cold entry or stale page).
    pub misses: u64,
    /// Page-wise invalidations triggered by a stale write generation.
    pub invalidations: u64,
    /// Entries recorded over the cache's lifetime.
    pub built: u64,
}

impl<T> std::fmt::Debug for PageVersioned<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageVersioned")
            .field("pages", &self.pages.len())
            .field("epoch", &self.epoch)
            .field("enabled", &self.enabled)
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .field("invalidations", &self.invalidations)
            .field("built", &self.built)
            .finish()
    }
}

impl<T: PageEntries> Default for PageVersioned<T> {
    fn default() -> PageVersioned<T> {
        PageVersioned::new()
    }
}

impl<T: PageEntries> PageVersioned<T> {
    /// An empty, enabled cache.
    pub fn new() -> PageVersioned<T> {
        PageVersioned {
            pages: Vec::new(),
            index: IntMap::default(),
            tlb: None,
            epoch: 0,
            enabled: true,
            hits: 0,
            misses: 0,
            invalidations: 0,
            built: 0,
        }
    }

    /// Number of cache pages currently held (live or stale).
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Drops every cached entry (counters are kept).
    pub fn clear(&mut self) {
        self.pages.clear();
        self.index.clear();
        self.tlb = None;
    }

    /// Declares the cache's contents valid against the slot lineage
    /// `epoch` **without** dropping them. Only a snapshot fork may call
    /// this: it clones memory and cache as one unit, so the fork's slot
    /// numbering is identical to what the entries were pinned under and
    /// the carried entries stay warm (and the counters replay exactly
    /// as a fresh run would produce them).
    pub fn rebind_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Lineage guard: a `Memory` from another slot lineage than the one
    /// the cache was warmed under invalidates everything.
    #[inline]
    fn check_epoch(&mut self, mem: &Memory) {
        if self.epoch != mem.epoch() {
            self.clear();
            self.epoch = mem.epoch();
        }
    }

    /// The cache-page slot covering `pageno`, via TLB then index.
    #[inline]
    fn slot_of(&mut self, pageno: u32) -> Option<u32> {
        if let Some((p, slot)) = self.tlb {
            if p == pageno {
                return Some(slot);
            }
        }
        let slot = *self.index.get(&pageno)?;
        self.tlb = Some((pageno, slot));
        Some(slot)
    }

    /// Looks an entry up on the page holding `pc`: `get` picks it out
    /// of the page's entries when the page is live against `mem`. A
    /// stale page is dropped (and counted) here; the outcome is counted
    /// as a hit or a miss.
    #[inline]
    pub fn probe<'a, R>(
        &'a mut self,
        mem: &Memory,
        pc: u32,
        get: impl FnOnce(&'a T) -> Option<R>,
    ) -> Option<R> {
        self.check_epoch(mem);
        let pageno = pc >> PAGE_SHIFT;
        let Some(slot) = self.slot_of(pageno) else {
            self.misses += 1;
            return None;
        };
        if self.pages[slot as usize].refresh(mem, pageno) {
            self.invalidations += 1;
            self.misses += 1;
            return None;
        }
        let found = get(&self.pages[slot as usize].entries);
        if found.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        found
    }

    /// The entries of the page holding `pc`, live against `mem` (created
    /// on first use, silently emptied when stale), for the caller to
    /// record one freshly derived entry in. Counted as one entry built.
    pub fn record(&mut self, mem: &Memory, pc: u32) -> &mut T {
        self.check_epoch(mem);
        let pageno = pc >> PAGE_SHIFT;
        let slot = match self.slot_of(pageno) {
            Some(slot) => slot,
            None => {
                let slot = self.pages.len() as u32;
                let mem_slot = mem.slot_of_page(pageno);
                self.pages.push(Page {
                    version: mem_slot.map_or(0, |s| mem.version_by_slot(s)),
                    mem_slot,
                    entries: T::default(),
                });
                self.index.insert(pageno, slot);
                self.tlb = Some((pageno, slot));
                slot
            }
        };
        let page = &mut self.pages[slot as usize];
        page.refresh(mem, pageno);
        self.built += 1;
        &mut page.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Cache = PageVersioned<IntMap<u32, u32>>;

    fn get(c: &mut Cache, mem: &Memory, pc: u32) -> Option<u32> {
        c.probe(mem, pc, |e| e.get(&pc).copied())
    }

    #[test]
    fn counts_hits_misses_and_records() {
        let mut mem = Memory::new();
        mem.write_u32(0x8000, 1);
        let mut c = Cache::new();
        assert_eq!(get(&mut c, &mem, 0x8000), None, "unknown page");
        c.record(&mem, 0x8000).insert(0x8000, 7);
        assert_eq!(get(&mut c, &mem, 0x8000), Some(7));
        assert_eq!(get(&mut c, &mem, 0x8004), None, "live page, no entry");
        assert_eq!((c.hits, c.misses, c.built, c.invalidations), (1, 2, 1, 0));
    }

    #[test]
    fn page_write_drops_the_page_once() {
        let mut mem = Memory::new();
        mem.write_u32(0x8000, 1);
        let mut c = Cache::new();
        c.record(&mem, 0x8000).insert(0x8000, 7);
        c.record(&mem, 0x9000).insert(0x9000, 9);
        mem.write_u8(0x8FFF, 0x42);
        assert_eq!(get(&mut c, &mem, 0x8000), None, "stale page dropped");
        assert_eq!(get(&mut c, &mem, 0x9000), Some(9), "other pages untouched");
        assert_eq!(c.invalidations, 1);
        // Re-recorded under the new generation, it sticks again.
        c.record(&mem, 0x8000).insert(0x8000, 8);
        assert_eq!(get(&mut c, &mem, 0x8000), Some(8));
        assert_eq!(c.invalidations, 1);
    }

    #[test]
    fn unmapped_page_pins_its_slot_once_mapped() {
        let mut mem = Memory::new();
        let mut c = Cache::new();
        c.record(&mem, 0x8000).insert(0x8000, 7);
        assert_eq!(
            get(&mut c, &mem, 0x8000),
            Some(7),
            "generation 0 while unmapped"
        );
        mem.write_u8(0x8000, 1);
        assert_eq!(
            get(&mut c, &mem, 0x8000),
            None,
            "mapping the page is a write"
        );
        assert_eq!(c.invalidations, 1);
    }

    #[test]
    fn foreign_lineage_drops_everything_and_rebind_keeps_it() {
        let mut mem = Memory::new();
        mem.write_u32(0x8000, 1);
        let mut c = Cache::new();
        c.record(&mem, 0x8000).insert(0x8000, 7);

        let child = mem.fork();
        let mut carried = c.clone();
        carried.rebind_epoch(child.epoch());
        assert_eq!(
            get(&mut carried, &child, 0x8000),
            Some(7),
            "fork carried warm"
        );

        assert_eq!(get(&mut c, &child, 0x8000), None, "fork is a new lineage");
        assert_eq!(c.page_count(), 0, "lineage switch drops everything");
        assert_eq!(
            c.invalidations, 0,
            "a lineage switch is not a page invalidation"
        );
    }
}
