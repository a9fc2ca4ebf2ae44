//! Differential property suite for copy-on-write forking: under
//! random interleavings of guest-memory writes, shadow taint
//! operations and fork points,
//!
//! 1. a fork taken mid-sequence is observationally identical to a
//!    fresh pair replaying the same op prefix (fork == fresh), and
//! 2. mutating either side after the fork never changes what the
//!    other side observes (bidirectional isolation).
//!
//! Failures replay with `TESTKIT_SEED`.

use ndroid_arm::Memory;
use ndroid_dvm::Taint;
use ndroid_emu::shadow::TaintMap;
use ndroid_testkit::prelude::*;

/// One randomized mutation over the (memory, taint-shadow) pair.
type Op = (u8, u32, u32, u32);

fn apply(mem: &mut Memory, taint: &mut TaintMap, op: &Op) {
    let (sel, addr, len, bits) = *op;
    let t = Taint(bits & 0x00FF_FFFF);
    match sel % 8 {
        0 => mem.write_u8(addr, bits as u8),
        // Unaligned u16/u32 stores routinely straddle page seams.
        1 => mem.write_u16(addr, bits as u16),
        2 => mem.write_u32(addr, bits),
        3 => {
            let chunk = vec![(bits >> 8) as u8; (len % 97 + 1) as usize];
            mem.write_bytes(addr, &chunk);
        }
        4 => taint.set(addr, t),
        5 => taint.set_range(addr, len % 0x1100, t),
        6 => taint.add_range(addr, len % 0x1100, t),
        _ => taint.clear_range(addr, len % 0x1100),
    }
}

/// Everything we treat as observable about a pair: bytes and taint
/// unions probed around every address the op sequence can touch, plus
/// the exact tainted-entry list.
fn observe(mem: &Memory, taint: &TaintMap, ops: &[Op]) -> (Vec<u32>, Vec<(u32, Taint)>) {
    let mut probes = Vec::new();
    for &(_, addr, len, _) in ops {
        for delta in [0, 4, len % 0x1100, (len % 0x1100).wrapping_add(4)] {
            let p = addr.wrapping_add(delta);
            probes.push(mem.read_u32(p));
            probes.push(taint.range_taint(p, 8).0);
        }
    }
    (probes, taint.tainted_entries())
}

/// An op address: four in six near zero, where ops overlap across the
/// fork point as densely as with no stride arms, and one in six each at
/// a 1 MiB or 128 MiB stride, so the page index and its one-entry TLB
/// see many sparse pages whose page numbers share their low bits.
fn addr() -> impl Strategy<Value = u32> {
    (0u32..6, 0u32..0x4000, 0u32..32, 0u32..0x2000).prop_map(|(arm, near, k, lo)| match arm {
        0 => (k << 20) | lo,
        1 => (k << 27) | lo,
        _ => near,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fork_equals_fresh_replay_and_isolates_both_sides(
        ops in collection::vec(
            (any::<u8>(), addr(), 0u32..0x1200, any::<u32>()),
            1..40,
        ),
        fork_frac in 0u8..=100,
        tail_skew in 1u32..0x2000,
    ) {
        let fork_at = ops.len() * fork_frac as usize / 100;

        // Drive the original pair, forking mid-sequence.
        let mut mem = Memory::new();
        let mut taint = TaintMap::new();
        for op in &ops[..fork_at] {
            apply(&mut mem, &mut taint, op);
        }
        let mut fmem = mem.fork();
        let mut ftaint = taint.clone();
        for op in &ops[fork_at..] {
            apply(&mut mem, &mut taint, op);
        }

        // (1) Fork == fresh: a brand-new pair replaying the prefix is
        // observationally identical to the fork, even though the
        // original has since diverged through the shared pages.
        let mut rmem = Memory::new();
        let mut rtaint = TaintMap::new();
        for op in &ops[..fork_at] {
            apply(&mut rmem, &mut rtaint, op);
        }
        prop_assert_eq!(
            observe(&fmem, &ftaint, &ops),
            observe(&rmem, &rtaint, &ops),
            "fork diverged from a fresh replay of its prefix"
        );

        // (2) Isolation: run a *skewed* tail on the fork; the
        // original's observations must not move at all.
        let before = observe(&mem, &taint, &ops);
        for &(sel, addr, len, bits) in &ops[fork_at..] {
            apply(&mut fmem, &mut ftaint, &(sel, addr.wrapping_add(tail_skew), len, !bits));
        }
        prop_assert_eq!(
            observe(&mem, &taint, &ops),
            before,
            "fork-side writes bled into the original"
        );

        // And the fork still matches a fresh replay of prefix+skewed
        // tail (isolation holds in the other direction too).
        for &(sel, addr, len, bits) in &ops[fork_at..] {
            apply(&mut rmem, &mut rtaint, &(sel, addr.wrapping_add(tail_skew), len, !bits));
        }
        prop_assert_eq!(
            observe(&fmem, &ftaint, &ops),
            observe(&rmem, &rtaint, &ops),
            "original-side writes bled into the fork"
        );
    }
}
