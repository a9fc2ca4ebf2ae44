//! Allocation budgets of the paths NDroid runs on every event: a warm
//! bytecode invoke, a warm Java→native→Java crossing, a small `fread`
//! from a large file, a sink call past the transfer cap, a `connect`, a
//! `memcmp` or `memchr` of the guest's largest size, one Fig. 5 hook
//! chain, and one whole forked `monkey_fanout` session.
//!
//! A counting global allocator tallies heap allocations (and
//! reallocations) and the bytes they request, per thread, so tests
//! running in parallel in this binary do not see each other's. Each
//! budget is taken on a warm system: the first call fills the caches,
//! grows the stacks and the reference tables, and the second one is
//! counted.

use ndroid_apps::driver::{drive, gated_leak_app, GATED_ENTRIES};
use ndroid_core::{NDroidAnalysis, NDroidSystem, ProvenanceLevel, Snapshot, SystemConfig};
use ndroid_emu::runtime::{Analysis, HostTable, NativeCtx, MAX_TRANSFER};
use ndroid_emu::testutil::{TrackOnly, World};
use ndroid_emu::ShadowState;
use ndroid_jni::{dvm_addr, hook_table, Hook};
use ndroid_libc::registry::Body;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations and requested bytes on this thread.
    static ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn bump(bytes: usize) {
    // `try_with`: an allocation during thread teardown is not counted.
    let _ = ALLOCS.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Heap allocations `f` makes on this thread, and the bytes they ask
/// for.
fn allocations<R>(f: impl FnOnce() -> R) -> ((u64, u64), R) {
    let (n0, b0) = ALLOCS.with(Cell::get);
    let r = f();
    let (n1, b1) = ALLOCS.with(Cell::get);
    ((n1 - n0, b1 - b0), r)
}

/// The warm gated-leak image, configured as the `monkey_fanout`
/// sessions are: NDroid, quiet, full provenance.
fn warm_image() -> Snapshot {
    let config = SystemConfig::ndroid()
        .quiet(true)
        .provenance(ProvenanceLevel::Full);
    gated_leak_app().launch_with(config).snapshot()
}

/// A fork of the warm image.
fn forked_session() -> NDroidSystem {
    warm_image().fork()
}

/// Allocations of the second `entry` call on `sys`.
fn warm_call(sys: &mut NDroidSystem, entry: &str) -> u64 {
    sys.run_java("Lapp/Sync;", entry, &[]).expect("first call");
    let ((n, _), r) = allocations(|| sys.run_java("Lapp/Sync;", entry, &[]));
    r.expect("second call");
    n
}

#[test]
fn warm_bytecode_invoke_allocates_nothing() {
    let mut sys = forked_session();
    assert_eq!(warm_call(&mut sys, "enableSync"), 0);
}

/// A `doSync` after `enableSync` crosses Java → native (`upload`) →
/// libdvm and libc models, and leaks once. What it still allocates is
/// the work it records: the source policy, the destination (read from
/// guest memory in place) and the sent bytes, each one copy shared by
/// the socket, the sink log and the sink's provenance event. The
/// contacts string fills a heap slot with no box, and the events'
/// names are shared, not built.
const DO_SYNC_BUDGET: u64 = 5;

#[test]
fn warm_jni_crossing_stays_within_budget() {
    let mut sys = forked_session();
    sys.run_java("Lapp/Sync;", "enableSync", &[]).unwrap();
    let n = warm_call(&mut sys, "doSync");
    assert!(n <= DO_SYNC_BUDGET, "doSync made {n} allocations, budget {DO_SYNC_BUDGET}");
    assert_eq!(sys.leaks().len(), 2, "both doSync calls leaked");
}

/// Allocations, and bytes allocated, of a warm 64-byte `fread` from a
/// file of `size` bytes.
fn fread_allocations(size: usize) -> (u64, u64) {
    use ndroid_libc::stdio::{fopen, fread};
    let mut w = World::new(ndroid_dvm::Program::new(), HostTable::new(), TrackOnly);
    let (path, mode, buf) = (0x2000_0000, 0x2000_0100, 0x2000_1000);
    w.kernel.fs.insert("/data/big".into(), vec![b'x'; size]);
    w.mem.write_cstr(path, b"/data/big");
    w.mem.write_cstr(mode, b"r");
    let file = w.call_host(|c| fopen(c, "fopen"), &[path, mode]).unwrap();
    assert_ne!(file, 0, "fopen");
    let fread = |c: &mut NativeCtx<'_>| fread(c, "fread");
    assert_eq!(w.call_host(fread, &[buf, 1, 64, file]), Ok(64));
    let (n, r) = allocations(|| w.call_host(fread, &[buf, 1, 64, file]));
    assert_eq!(r, Ok(64));
    n
}

#[test]
fn small_fread_cost_does_not_grow_with_the_file() {
    let (big, small) = (fread_allocations(64 * 1024), fread_allocations(4 * 1024));
    assert_eq!(big, small, "(allocations, bytes) from a 64 KiB and a 4 KiB file");
    assert!(big.1 < 4 * 1024, "a 64-byte read allocated {} bytes", big.1);
}

/// A tainted `write`, `send` and `sendto` of one byte more than
/// [`MAX_TRANSFER`] each send [`MAX_TRANSFER`] bytes (C's short write),
/// are each recorded as a leak, and allocate one capped payload: no
/// host buffer of the guest's size. The trace log is off, as in a
/// quiet run; an enabled one keeps its own copy of each trace line.
#[test]
fn sink_calls_past_the_cap_send_the_cap_and_leak() {
    use ndroid_libc::syscalls::{connect, send, sendto, socket, write};
    let mut w = World::new(ndroid_dvm::Program::new(), HostTable::new(), TrackOnly);
    w.trace = ndroid_emu::trace::TraceLog::disabled();
    let (dest, buf) = (0x2000_0000, 0x2000_1000);
    w.mem.write_cstr(dest, b"evil.example.com");
    w.shadow.mem.set_range(buf, 4, ndroid_dvm::Taint::IMEI);
    let fd = w.call_host(|c| socket(c, "socket"), &[]).unwrap();
    assert_eq!(w.call_host(|c| connect(c, "connect"), &[fd, dest]), Ok(0));
    let write = write as Body;
    for (name, sink) in [("write", write), ("send", send), ("sendto", sendto)] {
        let args = [fd, buf, MAX_TRANSFER + 1, 0];
        let ((_, bytes), r) = allocations(|| w.call_host(|c| sink(c, name), &args));
        assert_eq!(r, Ok(MAX_TRANSFER), "{name} sends the cap");
        let cap = u64::from(MAX_TRANSFER);
        assert!((cap..cap + 4 * 1024).contains(&bytes), "{name} allocated {bytes} bytes");
        let event = w.shadow.prov.sinks().last().unwrap();
        assert!(event.is_leak(), "{name} is recorded as a leak");
        assert_eq!(event.data.len(), MAX_TRANSFER as usize);
    }
    assert_eq!(w.shadow.prov.sinks().len(), 3, "one record per sink call");
}

/// Allocations, and bytes allocated, of a quiet, warm 4 KiB `send` of
/// `byte`s on a connected socket.
fn send_allocations(byte: u8) -> (u64, u64) {
    use ndroid_libc::syscalls::{connect, send, socket};
    let mut w = World::new(ndroid_dvm::Program::new(), HostTable::new(), TrackOnly);
    w.trace = ndroid_emu::trace::TraceLog::disabled();
    let (dest, buf) = (0x2000_0000, 0x2000_1000);
    w.mem.write_cstr(dest, b"evil.example.com");
    w.mem.write_bytes(buf, &[byte; 4096]);
    let fd = w.call_host(|c| socket(c, "socket"), &[]).unwrap();
    assert_eq!(w.call_host(|c| connect(c, "connect"), &[fd, dest]), Ok(0));
    let send = |c: &mut NativeCtx<'_>| send(c, "send");
    assert_eq!(w.call_host(send, &[fd, buf, 4096, 0]), Ok(4096));
    let (n, r) = allocations(|| w.call_host(send, &[fd, buf, 4096, 0]));
    assert_eq!(r, Ok(4096));
    n
}

/// A quiet sink call renders no trace line, so its payload's bytes do
/// not change what it allocates: a `send` of non-UTF-8 bytes makes the
/// same allocations as one of ASCII (the lossy rendering used to run
/// before the log checked that it was off, validating every payload
/// and copying a non-UTF-8 one into a `String` that was thrown away).
#[test]
fn quiet_send_cost_does_not_depend_on_the_payload() {
    assert_eq!(send_allocations(0xFF), send_allocations(b'a'), "(allocations, bytes)");
}

/// Allocations of a quiet, warm `connect` of a socket to `host`.
fn connect_allocations(host: &[u8]) -> u64 {
    use ndroid_libc::syscalls::{connect, socket};
    let mut w = World::new(ndroid_dvm::Program::new(), HostTable::new(), TrackOnly);
    w.trace = ndroid_emu::trace::TraceLog::disabled();
    let dest = 0x2000_0000;
    w.mem.write_cstr(dest, host);
    let connect = |c: &mut NativeCtx<'_>| connect(c, "connect");
    for _ in 0..2 {
        let fd = w.call_host(|c| socket(c, "socket"), &[]).unwrap();
        assert_eq!(w.call_host(connect, &[fd, dest]), Ok(0));
    }
    let fd = w.call_host(|c| socket(c, "socket"), &[]).unwrap();
    let (n, r) = allocations(|| w.call_host(connect, &[fd, dest]));
    assert_eq!(r, Ok(0));
    n.0
}

/// A warm `connect`, counted by this file's allocator when it read its
/// destination into a buffer of its own and then copied it.
const CONNECT_BEFORE: u64 = 2;

/// A warm `connect` reads its destination from guest memory in place
/// and copies it once, into the text the socket shares with the sink
/// log.
#[test]
fn connect_copies_its_destination_once() {
    assert_eq!(connect_allocations(b"sync.evil.com"), CONNECT_BEFORE - 1);
}

/// `memcmp` and `memchr` with the guest's largest `n` and the answer in
/// the first page compare and search guest memory in place and stop
/// there: each returns what a comparison of the whole spans would, and
/// no host buffer is sized by `n`.
#[test]
fn memcmp_and_memchr_of_any_size_stop_at_the_answer_in_place() {
    use ndroid_libc::string_fns::{memchr, memcmp};
    let mut w = World::new(ndroid_dvm::Program::new(), HostTable::new(), TrackOnly);
    let (a, b, n) = (0x2000_0000, 0x3000_0010, 0xFFFF_FFFF);
    w.mem.write_bytes(a, b"abcdef");
    w.mem.write_bytes(b, b"abcxef");
    let memcmp = memcmp as Body;
    for (name, f, args, want) in [
        ("memcmp(a, b)", memcmp, [a, b, n], u32::MAX),
        ("memcmp(b, a)", memcmp, [b, a, n], 1),
        ("memchr(a, 'd')", memchr, [a, u32::from(b'd'), n], a + 3),
    ] {
        let ((_, bytes), r) = allocations(|| w.call_host(|c| f(c, name), &args));
        assert_eq!(r, Ok(want), "{name}");
        assert!(bytes <= 4 * 1024, "{name} allocated {bytes} bytes");
    }
}

/// Allocations of one whole `monkey_fanout` session, phase by phase:
/// the fork of the warm image, [`drive`] over the 25 entry points it
/// picks for seed 0xD514 (with its `report()`), and the leak-path
/// count.
fn session_allocations() -> [u64; 3] {
    let image = warm_image();
    // Warm the process-wide tables a first session would fill.
    drop(image.fork());
    let ((fork, _), mut sys) = allocations(|| image.fork());
    let ((run, _), d) = allocations(|| drive(&mut sys, "Lapp/Sync;", &GATED_ENTRIES, 25, 0xD514));
    let ((paths, _), n) = allocations(|| sys.flow_graph().total_leak_paths());
    assert_eq!(d.errors, 0, "{:?}", d.first_error);
    assert!(d.report.leaked() && n > 0, "seed 0xD514 reaches the leak");
    [fork, run, paths]
}

/// One whole forked session through [`drive`], counted by this file's
/// allocator before string objects lived in their heap slots, the
/// driver stopped logging the entry points it chose and the flow graph
/// built its edge index on demand: fork 7, run 94, report 3, leak paths
/// 5, and the driver's 26.
const SESSION_BEFORE: u64 = 135;

/// A forked session pays for what it records, not for copies or
/// indexes nobody reads: the boot data, the names its events carry and
/// the sink log's payloads are shared, `report()` reads counters, a
/// `const-string` fills a heap slot with no box, and the leak-path
/// count reads the events. What remains is the slot vector's growth,
/// the objects the entry points write and the work each leak records.
#[test]
fn forked_session_allocates_at_most_half_of_before() {
    let phases = session_allocations();
    let total: u64 = phases.iter().sum();
    assert!(
        total <= SESSION_BEFORE / 2,
        "session made {total} allocations (fork, drive, leak paths: {phases:?}), \
         budget {}",
        SESSION_BEFORE / 2
    );
}

/// Counting a session's leak paths reads the events: the flow graph's
/// edge index is built only for a query that walks it.
#[test]
fn leak_path_count_allocates_nothing() {
    let [.., paths] = session_allocations();
    assert_eq!(paths, 0);
}

/// A warm `showHome`: two `const-string`s, each filling a heap slot
/// with the pool's shared text, and a clean `Log.d`.
#[test]
fn warm_const_strings_and_log_allocate_nothing() {
    let mut sys = forked_session();
    assert_eq!(warm_call(&mut sys, "showHome"), 0);
}

/// A fork copies only what a session may write: the page table and
/// index of guest memory, the kernel's descriptor table, the analysis
/// state and the static fields. The device profile, the task table,
/// the string pool and the class tables are shared.
const FORK_BUDGET: u64 = 7;

#[test]
fn fork_shares_what_boot_froze() {
    let [fork, ..] = session_allocations();
    assert!(
        fork <= FORK_BUDGET,
        "fork made {fork} allocations, budget {FORK_BUDGET}"
    );
}

/// Drives the Fig. 5 chain of `CallVoidMethodA` through `analysis`, as
/// native code at `site` calling it does: T1 through T3 and back.
fn drive_chain(analysis: &mut NDroidAnalysis, shadow: &mut ShadowState) {
    let Hook::Starts(chain) = hook_table().at(dvm_addr("CallVoidMethodA")) else {
        panic!("CallVoidMethodA starts a chain")
    };
    let site = 0x1000_0040;
    analysis.on_branch(shadow, site, chain[0]);
    for level in chain.windows(2) {
        analysis.on_branch(shadow, level[0] + 0x10, level[1]);
    }
    for level in chain.windows(2).rev() {
        analysis.on_branch(shadow, level[1] + 4, level[0] + 0x14);
    }
    analysis.on_branch(shadow, chain[0] + 4, site + 4);
}

/// A warm chain activation borrows its chain from the process-wide
/// address table and keeps its call sites inline: it allocates
/// nothing (each one used to clone the chain and allocate two counter
/// vectors).
#[test]
fn warm_multilevel_chain_allocates_nothing() {
    let mut analysis = NDroidAnalysis::new();
    let mut shadow = ShadowState::new();
    drive_chain(&mut analysis, &mut shadow);
    let ((n, _), ()) = allocations(|| drive_chain(&mut analysis, &mut shadow));
    assert_eq!((analysis.stats.chains_activated, analysis.stats.deep_hooks), (2, 4));
    assert_eq!(n, 0, "a warm chain made {n} allocations");
}
