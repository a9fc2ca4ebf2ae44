//! [`PageIndex`], the page-number → slot index behind guest
//! [`Memory`](crate::Memory), the shadow taint map and every
//! [`PageVersioned`](crate::PageVersioned) cache, and [`IntMap`], the
//! map of every integer-keyed table on a guest path.

use std::cell::Cell;
use std::collections::HashMap;

/// Multiplicative hasher for integer keys (page numbers, trap
/// addresses, indirect references): one `mul` where SipHash showed up
/// per guest access. The product's high half is folded into the low
/// bits the table picks buckets by, which in a bare product depend only
/// on the key's low bits: keys at a power-of-two stride, which a guest
/// chooses freely, would share a few buckets.
#[derive(Default)]
pub struct IntHasher(u64);

impl std::hash::Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
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

/// A `HashMap` over integer keys using [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<IntHasher>>;

/// Guest page number → slot in the owner's page vector, with a
/// one-entry TLB caching the last page resolved (guest accesses are
/// strongly local, so this removes most hash lookups from the fast
/// paths, like QEMU's softmmu TLB). A clone keeps the entries and
/// starts with an empty TLB.
#[derive(Debug, Default)]
pub struct PageIndex {
    map: IntMap<u32, u32>,
    tlb: Cell<Option<(u32, u32)>>, // (page number, slot)
}

impl Clone for PageIndex {
    fn clone(&self) -> PageIndex {
        PageIndex {
            map: self.map.clone(),
            tlb: Cell::new(None),
        }
    }
}

impl PageIndex {
    /// The slot of `pageno`, via the TLB, then the map.
    #[inline]
    pub fn get(&self, pageno: u32) -> Option<u32> {
        if let Some((p, slot)) = self.tlb.get() {
            if p == pageno {
                return Some(slot);
            }
        }
        let slot = *self.map.get(&pageno)?;
        self.tlb.set(Some((pageno, slot)));
        Some(slot)
    }

    /// Records `pageno` at `slot` (and caches it in the TLB).
    pub fn insert(&mut self, pageno: u32, slot: u32) {
        self.map.insert(pageno, slot);
        self.tlb.set(Some((pageno, slot)));
    }

    /// Forgets every page.
    pub fn clear(&mut self) {
        self.map.clear();
        self.tlb.set(None);
    }

    /// Every `(page number, slot)` pair, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.map.iter().map(|(&p, &s)| (p, s))
    }
}
