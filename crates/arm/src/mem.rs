//! Sparse paged guest memory.

use crate::page_index::PageIndex;
use std::borrow::Cow;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// log2 of the guest page size. Shared by the decoded-instruction
/// cache and the emulator's shadow taint memory so all three layers
/// slice the address space identically.
pub const PAGE_SHIFT: u32 = 12;
/// Guest page size in bytes (4 KiB).
pub const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
/// Mask selecting the offset-within-page bits of an address.
pub const PAGE_MASK: u32 = (PAGE_SIZE as u32) - 1;

/// The longest C string [`Memory::read_cstr`] scans (64 KiB).
const CSTR_MAX: usize = 65536;

/// Process-global epoch counter: every distinct slot lineage (a fresh
/// `Memory` or a [`Memory::fork`]) draws a unique, nonzero epoch.
static EPOCH_COUNTER: AtomicU64 = AtomicU64::new(0);

fn next_epoch() -> u64 {
    EPOCH_COUNTER.fetch_add(1, Ordering::Relaxed) + 1
}

/// A sparse 32-bit guest address space backed by 4 KiB pages, found
/// through a [`PageIndex`] (a one-entry TLB in front of an integer map).
///
/// Reads of unmapped memory return zero (pages are allocated lazily on
/// write), mirroring a zero-filled anonymous mapping. Little-endian, like
/// the Android/ARM targets NDroid analyzed.
///
/// Pages are `Rc`-shared **copy-on-write**: cloning (or
/// [`fork`](Memory::fork)ing) a `Memory` copies only the page table,
/// and a shared page is duplicated lazily by the first write on either
/// side. A fork is therefore O(mapped pages), not O(address space).
#[derive(Debug, Clone)]
pub struct Memory {
    pages: Vec<Rc<[u8; PAGE_SIZE]>>,
    index: PageIndex,
    /// Per-page write generation, parallel to `pages`. Bumped on every
    /// write that touches the page; consumers holding derived state
    /// (the decoded-instruction cache) compare against it to detect
    /// self-modifying code. An unmapped page reports generation 0 and
    /// a freshly materialized page starts at 1, so any transition is
    /// observable.
    versions: Vec<u64>,
    /// Slot-lineage epoch. Two `Memory` values agree on what a `pages[]`
    /// slot number means only if they carry the same epoch: `clone`
    /// preserves it (a clone is a faithful copy of the same lineage,
    /// slot-for-slot), while [`fork`](Memory::fork) draws a fresh one so
    /// derived caches pinned to the parent can never be replayed against
    /// a diverged child by mistake (see [`Memory::epoch`]).
    epoch: u64,
}

impl Default for Memory {
    fn default() -> Memory {
        Memory::new()
    }
}

impl Memory {
    /// Creates an empty address space.
    pub fn new() -> Memory {
        Memory {
            pages: Vec::new(),
            index: PageIndex::default(),
            versions: Vec::new(),
            epoch: next_epoch(),
        }
    }

    /// Copy-on-write fork: shares every mapped page with `self` (an
    /// `Rc` bump per page) and draws a **fresh epoch**, marking the
    /// copy as a new slot lineage. Writes on either side duplicate
    /// only the touched page. Slot numbers and write generations are
    /// carried over verbatim, so caches warmed against the parent can
    /// be explicitly re-bound to the fork's epoch and stay warm.
    pub fn fork(&self) -> Memory {
        let mut m = self.clone();
        m.epoch = next_epoch();
        m
    }

    /// The slot-lineage epoch (nonzero, process-unique). Derived caches
    /// that pin `pages[]` slots (every
    /// [`PageVersioned`](crate::versioned::PageVersioned) cache: the
    /// decode cache and the block cache) record the epoch of the
    /// `Memory` they were warmed against and must discard everything
    /// when handed a `Memory` with a different epoch: after a fork
    /// diverges, the same slot number can back a *different guest page*
    /// in each lineage, so a slot-pinned version compare alone would
    /// silently validate stale entries.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of pages currently materialized.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Number of materialized pages exclusively owned by this `Memory`
    /// (copy-on-write has privatized them). Immediately after a
    /// [`fork`](Memory::fork) this is 0; it grows by one per distinct
    /// page written since. The complement of shared pages — the
    /// fan-out benches report it as "resident pages per fork".
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| Rc::strong_count(p) == 1).count()
    }

    /// Whether the page containing `addr` has been materialized.
    pub fn is_mapped(&self, addr: u32) -> bool {
        self.index.get(addr >> PAGE_SHIFT).is_some()
    }

    /// Slot lookup for a *write*: materializes the page if needed and
    /// bumps its write generation (every caller is about to mutate it).
    #[inline]
    fn slot_or_alloc(&mut self, pageno: u32) -> u32 {
        if let Some(slot) = self.index.get(pageno) {
            self.versions[slot as usize] += 1;
            return slot;
        }
        let slot = self.pages.len() as u32;
        self.pages.push(Rc::new([0u8; PAGE_SIZE]));
        self.versions.push(1);
        self.index.insert(pageno, slot);
        slot
    }

    /// The writable backing array for `pageno`, materializing and
    /// generation-bumping it, and privatizing it first if it is still
    /// CoW-shared with a fork (`Rc::make_mut` — a no-op two-refcount
    /// check when already exclusive).
    #[inline]
    fn page_for_write(&mut self, pageno: u32) -> &mut [u8; PAGE_SIZE] {
        let slot = self.slot_or_alloc(pageno);
        Rc::make_mut(&mut self.pages[slot as usize])
    }

    /// The write generation of the page containing `addr`: 0 for an
    /// unmapped page, otherwise a counter that changes on every write
    /// to the page. Derived caches (decoded instructions) validate
    /// against this instead of hooking the write path.
    #[inline]
    pub fn page_version(&self, addr: u32) -> u64 {
        match self.index.get(addr >> PAGE_SHIFT) {
            Some(slot) => self.versions[slot as usize],
            None => 0,
        }
    }

    /// The `pages[]` slot backing `pageno`, if materialized. Slots are
    /// stable for the lifetime of the `Memory` (pages are only ever
    /// appended), so derived caches — the decoded-instruction cache and
    /// the superblock cache — may pin a slot once and then poll
    /// [`Memory::version_by_slot`] without touching the TLB or the page
    /// index again. A pinned slot is only
    /// meaningful within one slot lineage — see [`Memory::epoch`].
    #[inline]
    pub fn slot_of_page(&self, pageno: u32) -> Option<u32> {
        self.index.get(pageno)
    }

    /// The write generation of the page in `slot` (see
    /// [`Memory::slot_of_page`]).
    #[inline]
    pub fn version_by_slot(&self, slot: u32) -> u64 {
        self.versions[slot as usize]
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: u32) -> u8 {
        match self.index.get(addr >> PAGE_SHIFT) {
            Some(slot) => self.pages[slot as usize][(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte, materializing the page if needed.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        self.page_for_write(addr >> PAGE_SHIFT)[(addr & PAGE_MASK) as usize] = value;
    }

    /// Reads a little-endian 16-bit halfword (no alignment requirement).
    #[inline]
    pub fn read_u16(&self, addr: u32) -> u16 {
        u16::from_le_bytes([self.read_u8(addr), self.read_u8(addr.wrapping_add(1))])
    }

    /// Writes a little-endian 16-bit halfword. A halfword straddling a
    /// page boundary bumps the write generation of *both* pages (each
    /// byte goes through the per-page write path).
    #[inline]
    pub fn write_u16(&mut self, addr: u32, value: u16) {
        let b = value.to_le_bytes();
        self.write_u8(addr, b[0]);
        self.write_u8(addr.wrapping_add(1), b[1]);
    }

    /// Reads a little-endian 32-bit word (no alignment requirement).
    #[inline]
    pub fn read_u32(&self, addr: u32) -> u32 {
        // Fast path: whole word within one page.
        let off = (addr & PAGE_MASK) as usize;
        if off + 4 <= PAGE_SIZE {
            if let Some(slot) = self.index.get(addr >> PAGE_SHIFT) {
                let page = &self.pages[slot as usize];
                return u32::from_le_bytes([page[off], page[off + 1], page[off + 2], page[off + 3]]);
            }
            return 0;
        }
        u32::from_le_bytes([
            self.read_u8(addr),
            self.read_u8(addr.wrapping_add(1)),
            self.read_u8(addr.wrapping_add(2)),
            self.read_u8(addr.wrapping_add(3)),
        ])
    }

    /// Writes a little-endian 32-bit word. A word straddling a page
    /// boundary decays to per-byte writes, so the write generation of
    /// *both* touched pages is bumped — derived caches on either side
    /// of the boundary must observe the patch.
    #[inline]
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        let off = (addr & PAGE_MASK) as usize;
        let b = value.to_le_bytes();
        if off + 4 <= PAGE_SIZE {
            self.page_for_write(addr >> PAGE_SHIFT)[off..off + 4].copy_from_slice(&b);
            return;
        }
        for (i, byte) in b.into_iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), byte);
        }
    }

    /// Reads a little-endian 64-bit doubleword.
    pub fn read_u64(&self, addr: u32) -> u64 {
        (self.read_u32(addr) as u64) | ((self.read_u32(addr.wrapping_add(4)) as u64) << 32)
    }

    /// Writes a little-endian 64-bit doubleword.
    pub fn write_u64(&mut self, addr: u32, value: u64) {
        self.write_u32(addr, value as u32);
        self.write_u32(addr.wrapping_add(4), (value >> 32) as u32);
    }

    /// Copies `bytes` into guest memory starting at `addr`,
    /// page-sliced (one slot lookup per page, not per byte); every
    /// page the span touches gets its write generation bumped.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) {
        let mut i = 0usize;
        while i < bytes.len() {
            let a = addr.wrapping_add(i as u32);
            let off = (a & PAGE_MASK) as usize;
            let n = (PAGE_SIZE - off).min(bytes.len() - i);
            let page = self.page_for_write(a >> PAGE_SHIFT);
            page[off..off + n].copy_from_slice(&bytes[i..i + n]);
            i += n;
        }
    }

    /// The `len` bytes starting at `addr`, in place, one page slice at
    /// a time; unmapped pages read as zeroes. Nothing is copied, so a
    /// caller scanning a guest-sized span pays only for the pages it
    /// visits before it stops.
    pub fn chunks(&self, addr: u32, len: usize) -> impl Iterator<Item = &[u8]> + '_ {
        static ZERO: [u8; PAGE_SIZE] = [0; PAGE_SIZE];
        let mut i = 0usize;
        std::iter::from_fn(move || {
            if i >= len {
                return None;
            }
            let a = addr.wrapping_add(i as u32);
            let off = (a & PAGE_MASK) as usize;
            let n = (PAGE_SIZE - off).min(len - i);
            i += n;
            let page = match self.index.get(a >> PAGE_SHIFT) {
                Some(slot) => &self.pages[slot as usize],
                None => &ZERO,
            };
            Some(&page[off..off + n])
        })
    }

    /// Reads `len` bytes starting at `addr` (see [`Memory::chunks`]).
    pub fn read_bytes(&self, addr: u32, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        for chunk in self.chunks(addr, len) {
            out.extend_from_slice(chunk);
        }
        out
    }

    /// Reads a NUL-terminated C string starting at `addr` (scanning at
    /// most 64 KiB to bound runaway reads of corrupt guests).
    pub fn read_cstr(&self, addr: u32) -> Vec<u8> {
        self.read_cstr_bounded(addr, CSTR_MAX)
    }

    /// Reads a NUL-terminated C string of at most `max_len` bytes: the
    /// [`cstr_len_bounded`](Memory::cstr_len_bounded) bytes at `addr`.
    pub fn read_cstr_bounded(&self, addr: u32, max_len: usize) -> Vec<u8> {
        self.read_bytes(addr, self.cstr_len_bounded(addr, max_len))
    }

    /// The C string at `addr`, as [`read_cstr`](Memory::read_cstr)
    /// reads it, lent in place when it ends on the page it starts on
    /// and copied only when it crosses a page.
    pub fn cstr_bytes(&self, addr: u32) -> Cow<'_, [u8]> {
        let first = self.chunks(addr, CSTR_MAX).next().unwrap_or_default();
        match first.iter().position(|&b| b == 0) {
            Some(n) => Cow::Borrowed(&first[..n]),
            None => Cow::Owned(self.read_cstr(addr)),
        }
    }

    /// The length of the C string at `addr`, counted in place:
    /// `read_cstr(addr).len()` without the copy.
    pub fn cstr_len(&self, addr: u32) -> usize {
        self.cstr_len_bounded(addr, CSTR_MAX)
    }

    /// The length of the NUL-terminated C string at `addr`, at most
    /// `max_len`, counted page-sliced in place. An unmapped byte reads
    /// as zero, which is a terminator, so a string running into
    /// unmapped memory ends at the last mapped byte (bounded stop —
    /// never a panic, never garbage bytes).
    pub fn cstr_len_bounded(&self, addr: u32, max_len: usize) -> usize {
        let mut i = 0usize;
        for chunk in self.chunks(addr, max_len) {
            if let Some(p) = chunk.iter().position(|&b| b == 0) {
                return i + p;
            }
            i += chunk.len();
        }
        i
    }

    /// Writes a NUL-terminated C string.
    pub fn write_cstr(&mut self, addr: u32, s: &[u8]) {
        self.write_bytes(addr, s);
        self.write_u8(addr.wrapping_add(s.len() as u32), 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cstr_bytes_lends_a_string_within_its_page() {
        let mut m = Memory::new();
        let near_end = 0x2000_0000 + PAGE_SIZE as u32 - 3;
        m.write_cstr(0x2000_0010, b"in page");
        m.write_cstr(near_end, b"crossing");
        assert!(matches!(m.cstr_bytes(0x2000_0010), Cow::Borrowed(b"in page")));
        assert!(matches!(m.cstr_bytes(near_end), Cow::Owned(_)));
        assert_eq!(*m.cstr_bytes(near_end), *m.read_cstr(near_end));
        assert_eq!(*m.cstr_bytes(near_end), *b"crossing");
        assert!(m.cstr_bytes(0x5000_0000).is_empty(), "unmapped reads as an empty string");
    }

    #[test]
    fn unmapped_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.read_u8(0xdead_beef), 0);
        assert_eq!(m.read_u32(0xdead_beef), 0);
        assert_eq!(m.page_count(), 0);
        assert!(!m.is_mapped(0xdead_beef));
    }

    #[test]
    fn rw_roundtrip_all_widths() {
        let mut m = Memory::new();
        m.write_u8(0x100, 0xAB);
        assert_eq!(m.read_u8(0x100), 0xAB);
        m.write_u16(0x200, 0xBEEF);
        assert_eq!(m.read_u16(0x200), 0xBEEF);
        m.write_u32(0x300, 0xDEAD_BEEF);
        assert_eq!(m.read_u32(0x300), 0xDEAD_BEEF);
        m.write_u64(0x400, 0x0123_4567_89AB_CDEF);
        assert_eq!(m.read_u64(0x400), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new();
        m.write_u32(0, 0x0403_0201);
        assert_eq!(m.read_u8(0), 1);
        assert_eq!(m.read_u8(1), 2);
        assert_eq!(m.read_u8(2), 3);
        assert_eq!(m.read_u8(3), 4);
    }

    #[test]
    fn cross_page_word_access() {
        let mut m = Memory::new();
        let addr = 0x1000 - 2; // straddles a page boundary
        m.write_u32(addr, 0x1122_3344);
        assert_eq!(m.read_u32(addr), 0x1122_3344);
        assert_eq!(m.page_count(), 2);
    }

    #[test]
    fn straddling_writes_bump_both_page_generations() {
        // Regression for the cross-page invalidation contract: a write
        // that straddles a 4 KiB boundary must bump the generation of
        // BOTH touched pages, or a derived cache holding decodes of the
        // second page would survive the patch.
        let mut m = Memory::new();
        m.write_u8(0x0FFF, 0); // materialize page 0
        m.write_u8(0x1000, 0); // materialize page 1
        let (a0, a1) = (m.page_version(0x0FFF), m.page_version(0x1000));
        m.write_u32(0x0FFE, 0xDDCC_BBAA);
        assert!(m.page_version(0x0FFF) > a0, "u32 straddle bumps first page");
        assert!(m.page_version(0x1000) > a1, "u32 straddle bumps second page");

        let (b0, b1) = (m.page_version(0x1FFF), m.page_version(0x2000));
        m.write_u16(0x1FFF, 0xBEEF);
        assert!(m.page_version(0x1FFF) > b0, "u16 straddle bumps first page");
        assert!(m.page_version(0x2000) > b1, "u16 straddle bumps second page");

        let (c0, c1) = (m.page_version(0x2FFF), m.page_version(0x3000));
        m.write_bytes(0x2FF0, &[7u8; 64]);
        assert!(m.page_version(0x2FFF) > c0, "byte span bumps first page");
        assert!(m.page_version(0x3000) > c1, "byte span bumps second page");
    }

    #[test]
    fn cstr_roundtrip() {
        let mut m = Memory::new();
        m.write_cstr(0x500, b"hello jni");
        assert_eq!(m.read_cstr(0x500), b"hello jni");
        assert_eq!(m.read_u8(0x500 + 9), 0);
    }

    #[test]
    fn cstr_bounded_stops() {
        let mut m = Memory::new();
        m.write_bytes(0x600, &[0x41; 100]);
        assert_eq!(m.read_cstr_bounded(0x600, 10).len(), 10);
    }

    #[test]
    fn cstr_stops_at_unmapped_page_boundary() {
        // An unterminated string running to the very last mapped byte:
        // the scan must stop at the unmapped-page boundary (bounded
        // stop), exactly as if a NUL sat in the zero fill beyond it.
        let mut m = Memory::new();
        let base = 0x7000 - 16; // last 16 bytes of an otherwise empty page
        m.write_bytes(base, &[0x42; 16]); // page 0x7000.. stays unmapped
        assert!(!m.is_mapped(0x7000));
        assert_eq!(m.read_cstr(base), vec![0x42; 16]);
        assert_eq!(m.read_cstr_bounded(base, 1024), vec![0x42; 16]);
        // Starting read in unmapped memory yields an empty string.
        assert_eq!(m.read_cstr(0x7000), b"");
        // Once the next page is mapped with more non-NUL bytes, the
        // same scan continues across the boundary.
        m.write_bytes(0x7000, &[0x43; 8]);
        let mut want = vec![0x42; 16];
        want.extend_from_slice(&[0x43; 8]);
        assert_eq!(m.read_cstr(base), want);
    }

    #[test]
    fn cstr_honors_max_len_across_pages() {
        let mut m = Memory::new();
        m.write_bytes(0x8000 - 8, &[0x41; 64]);
        assert_eq!(m.read_cstr_bounded(0x8000 - 8, 12).len(), 12);
    }

    #[test]
    fn page_versions_track_writes() {
        let mut m = Memory::new();
        assert_eq!(m.page_version(0x5000), 0, "unmapped page is generation 0");
        m.write_u8(0x5000, 1);
        let v1 = m.page_version(0x5000);
        assert!(v1 >= 1, "materialized page has nonzero generation");
        m.write_u32(0x5100, 0xAABBCCDD);
        assert!(m.page_version(0x5000) > v1, "same-page write bumps");
        let other = m.page_version(0x6000);
        m.write_u8(0x5001, 2);
        assert_eq!(m.page_version(0x6000), other, "other pages unaffected");
        // Reads never bump.
        let v = m.page_version(0x5000);
        let _ = m.read_u32(0x5000);
        let _ = m.read_bytes(0x5000, 64);
        assert_eq!(m.page_version(0x5000), v);
    }

    #[test]
    fn bulk_bytes_cross_many_pages() {
        let mut m = Memory::new();
        let data: Vec<u8> = (0..3 * PAGE_SIZE + 17).map(|i| (i % 251) as u8).collect();
        m.write_bytes(0x1000 - 7, &data);
        assert_eq!(m.read_bytes(0x1000 - 7, data.len()), data);
        assert_eq!(m.page_count(), 5, "7 bytes + 3 full pages + 10-byte tail");
    }

    #[test]
    fn bytes_roundtrip() {
        let mut m = Memory::new();
        let data: Vec<u8> = (0..=255).collect();
        m.write_bytes(0x2000 - 100, &data);
        assert_eq!(m.read_bytes(0x2000 - 100, 256), data);
    }

    #[test]
    fn fork_shares_pages_until_written() {
        let mut m = Memory::new();
        m.write_bytes(0x1000, &[0xAA; 3 * PAGE_SIZE]);
        assert_eq!(m.resident_pages(), 3, "unforked memory owns its pages");
        let mut child = m.fork();
        assert_ne!(child.epoch(), m.epoch(), "fork draws a fresh epoch");
        assert_eq!(child.page_count(), 3);
        assert_eq!(child.resident_pages(), 0, "all pages CoW-shared at fork");
        assert_eq!(m.resident_pages(), 0);

        // First write privatizes exactly the touched page, on the
        // writing side only; the other side still sees the old bytes.
        child.write_u8(0x1004, 0xBB);
        assert_eq!(child.resident_pages(), 1);
        assert_eq!(m.resident_pages(), 1, "parent's copy of that page is now exclusive too");
        assert_eq!(child.read_u8(0x1004), 0xBB);
        assert_eq!(m.read_u8(0x1004), 0xAA, "parent unaffected by child write");

        // And symmetrically: parent writes don't reach the child.
        m.write_u8(0x2008, 0xCC);
        assert_eq!(child.read_u8(0x2008), 0xAA);
    }

    #[test]
    fn fork_carries_versions_and_diverges_independently() {
        let mut m = Memory::new();
        m.write_u8(0x3000, 1);
        m.write_u8(0x3001, 2);
        let v = m.page_version(0x3000);
        let child = m.fork();
        assert_eq!(child.page_version(0x3000), v, "generations carried verbatim");

        let mut a = m.fork();
        let mut b = m.fork();
        a.write_u8(0x3002, 3);
        b.write_u8(0x3002, 4);
        assert!(a.page_version(0x3000) > v);
        assert!(b.page_version(0x3000) > v);
        assert_eq!(a.read_u8(0x3002), 3);
        assert_eq!(b.read_u8(0x3002), 4);
        assert_eq!(m.read_u8(0x3002), 0, "siblings never alias");
    }

    #[test]
    fn clone_preserves_epoch_fork_does_not() {
        let m = Memory::new();
        assert_ne!(m.epoch(), 0, "epochs are nonzero");
        let c = m.clone();
        assert_eq!(c.epoch(), m.epoch(), "a clone stays in the lineage");
        let f = m.fork();
        assert_ne!(f.epoch(), m.epoch());
        assert_ne!(Memory::new().epoch(), m.epoch(), "fresh memories get fresh epochs");
    }

    #[test]
    fn new_page_after_fork_is_private() {
        let mut m = Memory::new();
        m.write_u8(0x1000, 1);
        let mut child = m.fork();
        child.write_u8(0x9000, 9); // page the parent never mapped
        assert_eq!(child.page_count(), 2);
        assert_eq!(m.page_count(), 1);
        assert_eq!(m.read_u8(0x9000), 0);
        assert_eq!(child.resident_pages(), 1);
    }
}
