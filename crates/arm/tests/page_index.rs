//! The page index behind guest memory, the shadow taint map and the
//! code caches, and the hasher behind every integer-keyed map.

use ndroid_arm::page_index::IntHasher;
use ndroid_arm::PageIndex;
use std::collections::HashSet;
use std::hash::{BuildHasher, BuildHasherDefault};

#[test]
fn tlb_hits_and_map_hits_agree() {
    let mut idx = PageIndex::default();
    idx.insert(0x8, 0);
    idx.insert(0x9, 1);
    assert_eq!(idx.get(0x9), Some(1), "TLB hit on the page just inserted");
    assert_eq!(idx.get(0x8), Some(0), "map hit, now cached");
    assert_eq!(idx.get(0x8), Some(0), "TLB hit");
    assert_eq!(idx.get(0x9), Some(1), "map hit");
    assert_eq!(idx.get(0xA), None);
    assert_eq!(idx.get(0x9), Some(1));
}

#[test]
fn clone_keeps_the_entries_and_drops_the_tlb() {
    let mut idx = PageIndex::default();
    idx.insert(0x8, 0);
    idx.insert(0x9, 1);
    assert!(format!("{idx:?}").contains("Some((9, 1))"), "{idx:?}");
    let copy = idx.clone();
    assert!(format!("{copy:?}").contains("tlb: Cell { value: None }"), "{copy:?}");
    assert_eq!((copy.get(0x8), copy.get(0x9)), (Some(0), Some(1)));
    let mut pairs: Vec<(u32, u32)> = copy.iter().collect();
    pairs.sort_unstable();
    assert_eq!(pairs, [(0x8, 0), (0x9, 1)]);
}

#[test]
fn clear_empties_the_map_and_the_tlb() {
    let mut idx = PageIndex::default();
    idx.insert(0x8, 0);
    idx.clear();
    assert_eq!(idx.get(0x8), None, "neither the TLB nor the map answers");
    assert_eq!(idx.iter().count(), 0);
    idx.insert(0x8, 3);
    assert_eq!(idx.get(0x8), Some(3));
}

/// The table picks buckets from the hash's low bits, and a guest picks
/// its addresses freely: 4096 page numbers 1 MiB apart must not share a
/// few buckets. (Without the fold of the product's high half they land
/// in 16 of the 4096.)
#[test]
fn power_of_two_strides_spread_over_the_low_bits() {
    let hasher = BuildHasherDefault::<IntHasher>::default();
    let buckets: HashSet<u64> = (0..4096u32).map(|i| hasher.hash_one(i * 256) & 0xFFF).collect();
    assert!(buckets.len() >= 2048, "{} of 4096 buckets", buckets.len());
}
