//! Additional coverage of the modeled libc functions: padding,
//! truncation, endptr semantics, allocator growth, and the va_list
//! printf variants — all via genuine guest code.

use ndroid_arm::Reg;
use ndroid_dvm::{Program, Taint};
use ndroid_emu::layout;
use ndroid_emu::runtime::{HostTable, MAX_TRANSFER};
use ndroid_emu::testutil::{TrackOnly, World};
use ndroid_libc::{install_all, libc_addr, libm_addr, stdio, string_fns};

/// A native-tracking world with every libc/libm model installed.
fn world() -> World<TrackOnly> {
    let mut table = HostTable::new();
    install_all(&mut table);
    World::new(Program::new(), table, TrackOnly)
}

const A: u32 = 0x2000_0000;
const B: u32 = 0x2000_1000;
const C: u32 = 0x2000_2000;

#[test]
fn strncpy_pads_with_nul_and_clears_taint() {
    let mut w = world();
    w.mem.write_cstr(A, b"hi");
    w.shadow.mem.set_range(A, 2, Taint::IMEI);
    w.shadow.mem.set_range(B, 8, Taint::SMS); // stale taint to be cleared
    w.run(&[], |asm| {
        asm.ldr_const(Reg::R0, B);
        asm.ldr_const(Reg::R1, A);
        asm.mov_imm(Reg::R2, 8).unwrap();
        asm.call_abs(libc_addr("strncpy"));
    });
    assert_eq!(w.mem.read_bytes(B, 8), b"hi\0\0\0\0\0\0");
    assert_eq!(w.shadow.mem.range_taint(B, 2), Taint::IMEI);
    assert_eq!(w.shadow.mem.range_taint(B + 2, 6), Taint::CLEAR, "padding clean");
}

#[test]
fn strtoul_sets_endptr_and_carries_taint() {
    let mut w = world();
    w.mem.write_cstr(A, b"  1234xyz");
    w.shadow.mem.set_range(A, 9, Taint::PHONE_NUMBER);
    let v = w.run(&[], |asm| {
        asm.ldr_const(Reg::R0, A);
        asm.ldr_const(Reg::R1, B); // endptr out
        asm.mov_imm(Reg::R2, 10).unwrap();
        asm.call_abs(libc_addr("strtoul"));
        asm.ldr_const(Reg::R1, C);
        asm.str(Reg::R0, Reg::R1, 0);
    });
    let _ = v;
    assert_eq!(w.mem.read_u32(C), 1234);
    assert_eq!(w.mem.read_u32(B), A + 6, "endptr past the digits");
}

/// Runs `strtoul(text, &endp, base)` on `A`, with `endp` at `B`:
/// the returned value and `endp`'s offset from `A`.
fn strtoul_at(text: &[u8], base: u32) -> (u32, u32) {
    let mut w = world();
    w.mem.write_cstr(A, text);
    w.run(&[], |asm| {
        asm.ldr_const(Reg::R0, A);
        asm.ldr_const(Reg::R1, B);
        asm.mov_imm(Reg::R2, base).unwrap();
        asm.call_abs(libc_addr("strtoul"));
        asm.ldr_const(Reg::R1, C);
        asm.str(Reg::R0, Reg::R1, 0);
    });
    (w.mem.read_u32(C), w.mem.read_u32(B) - A)
}

#[test]
fn strtoul_rejects_bad_bases_without_panicking() {
    for base in [1, 37, u32::MAX] {
        assert_eq!(strtoul_at(b"123", base), (0, 0), "base {base:#x}");
    }
}

#[test]
fn strtoul_follows_c_base_prefixes() {
    assert_eq!(strtoul_at(b"0x1f", 0), (31, 4));
    assert_eq!(strtoul_at(b"0x1f", 16), (31, 4));
    assert_eq!(strtoul_at(b"017", 0), (15, 3));
    assert_eq!(strtoul_at(b"  -1", 10), (u32::MAX, 4));
    assert_eq!(strtoul_at(b"99999999999", 10), (u32::MAX, 11), "saturates");
    assert_eq!(strtoul_at(b"  xyz", 10), (0, 0), "no digits: endp is s");
    assert_eq!(strtoul_at(b"0xg", 0), (0, 1), "a bare 0x is the digit 0");
}

#[test]
fn strtoul_endptr_takes_the_string_pointers_taint() {
    // No tracer runs the guest code here, so R0's shadow keeps the
    // label set below: the pointer `s` itself is tainted.
    for s_taint in [Taint::IMEI, Taint::CLEAR] {
        let mut w = world();
        w.mem.write_cstr(A, b"42");
        w.shadow.regs[0] = s_taint;
        w.shadow.mem.set_range(B, 4, Taint::SMS); // stale taint in the endp slot
        w.run(&[], |asm| {
            asm.ldr_const(Reg::R0, A);
            asm.ldr_const(Reg::R1, B);
            asm.mov_imm(Reg::R2, 10).unwrap();
            asm.call_abs(libc_addr("strtoul"));
        });
        assert_eq!(w.mem.read_u32(B), A + 2);
        assert_eq!(w.shadow.mem.range_taint(B, 4), s_taint, "stale SMS overwritten");
    }
}

/// `strtod` follows `strtoul`'s rule: `*endp` takes the taint of the `s`
/// pointer argument, overwriting a stale label.
#[test]
fn strtod_endptr_takes_the_string_pointers_taint() {
    for s_taint in [Taint::IMEI, Taint::CLEAR] {
        let mut w = world();
        w.mem.write_cstr(A, b" 2.5x");
        w.shadow.regs[0] = s_taint;
        w.shadow.mem.set_range(B, 4, Taint::SMS); // stale taint in the endp slot
        w.call(libm_addr("strtod"), &[A, B]).unwrap();
        assert_eq!(w.mem.read_u32(B), A + 4, "endptr past the digits");
        assert_eq!(w.shadow.mem.range_taint(B, 4), s_taint, "stale SMS overwritten");
    }
}

/// Runs `strtod(text, &endp)` on `A`, with `endp` at `B`: the
/// returned double and `endp`'s offset from `A`.
fn strtod_at(text: &[u8]) -> (f64, u32) {
    let mut w = world();
    w.mem.write_cstr(A, text);
    let lo = w.call_host(|c| ndroid_libc::math::strtod(c, "strtod"), &[A, B]).unwrap();
    let v = f64::from_bits(u64::from(lo) | (u64::from(w.cpu.regs[1]) << 32));
    (v, w.mem.read_u32(B) - A)
}

/// `strtod` converts C's longest valid prefix and leaves `*endp` just
/// past it, counted in guest bytes, or at the string itself when
/// nothing converts.
#[test]
fn strtod_stops_after_the_longest_valid_prefix() {
    for (text, value, end) in [
        (&b"2.5-x"[..], 2.5, 3),
        (b"1e5", 1e5, 3),
        (b"1e", 1.0, 1),
        (b"1e+x", 1.0, 1),
        (b"-1.5E-2z", -0.015, 7),
        (b" \t+.5", 0.5, 5),
        (b"7.", 7.0, 2),
        (b"  -x", 0.0, 0),
        (b".", 0.0, 0),
        (b"", 0.0, 0),
        (b"INF", f64::INFINITY, 3),
        (b"-Infinity!", f64::NEG_INFINITY, 9),
        (b"infinit", f64::INFINITY, 3),
        (b"\xFF7", 0.0, 0),
        (b"\xC2\xA01", 0.0, 0), // a UTF-8 no-break space is not C white space
        (b" 1.5\xFF", 1.5, 4),
    ] {
        assert_eq!(strtod_at(text), (value, end), "{}", text.escape_ascii());
    }
    let (nan, end) = strtod_at(b" nAn1");
    assert!(nan.is_nan());
    assert_eq!(end, 4);
}

#[test]
fn realloc_grows_and_preserves_taint() {
    let mut w = world();
    let p = w.run(&[], |asm| {
        asm.mov_imm(Reg::R0, 8).unwrap();
        asm.call_abs(libc_addr("malloc"));
        asm.ldr_const(Reg::R1, C);
        asm.str(Reg::R0, Reg::R1, 0);
    });
    let _ = p;
    let p = w.mem.read_u32(C);
    w.mem.write_bytes(p, b"secret!!");
    w.shadow.mem.set_range(p, 8, Taint::CONTACTS);
    w.run(&[], |asm| {
        asm.ldr_const(Reg::R1, C);
        asm.ldr(Reg::R0, Reg::R1, 0);
        asm.mov_imm(Reg::R1, 64).unwrap();
        asm.call_abs(libc_addr("realloc"));
        asm.ldr_const(Reg::R1, C);
        asm.str(Reg::R0, Reg::R1, 4);
    });
    let np = w.mem.read_u32(C + 4);
    assert_ne!(np, 0);
    assert_eq!(w.mem.read_bytes(np, 8), b"secret!!");
    assert_eq!(w.shadow.mem.range_taint(np, 8), Taint::CONTACTS);
    assert_eq!(
        w.shadow.mem.range_taint(p, 8),
        Taint::CLEAR,
        "old block's taint cleared on free"
    );
}

#[test]
fn snprintf_truncates_to_size() {
    let mut w = world();
    w.mem.write_cstr(A, b"value=%d end");
    let n = w.run(&[], |asm| {
        asm.ldr_const(Reg::R0, B);
        asm.mov_imm(Reg::R1, 8).unwrap(); // size incl. NUL
        asm.ldr_const(Reg::R2, A);
        asm.ldr_const(Reg::R3, 1234);
        asm.call_abs(libc_addr("snprintf"));
    });
    let _ = n;
    assert_eq!(w.mem.read_cstr(B), b"value=1", "truncated to 7 chars + NUL");
}

#[test]
fn sprintf_at_the_top_of_memory_wraps_to_zero() {
    // Guest addresses wrap like `Memory` does: the one data byte lands
    // at 0xFFFFFFFF and the NUL, with its clear taint, at 0x0.
    let mut w = world();
    w.mem.write_cstr(A, b"a");
    w.mem.write_u8(0, 0x55);
    w.shadow.mem.set(0, Taint::SMS);
    let n = w.run(&[], |asm| {
        asm.ldr_const(Reg::R0, u32::MAX); // dst
        asm.ldr_const(Reg::R1, A); // fmt
        asm.call_abs(libc_addr("sprintf"));
    });
    assert_eq!(n, 1);
    assert_eq!(w.mem.read_u8(u32::MAX), b'a');
    assert_eq!(w.mem.read_u8(0), 0);
    assert_eq!(w.shadow.mem.get(0), Taint::CLEAR);
}

#[test]
fn sprintf_stack_arguments_wrap_at_the_top_of_memory() {
    // With SP = 0xFFFFFFFC the 5th argument sits at 0xFFFFFFFC and the
    // 6th, wrapped like `Memory`, at 0; both the value and its taint are
    // read from there.
    let mut w = world();
    w.mem.write_cstr(A, b"%d%d%d%d");
    w.mem.write_u32(0xFFFF_FFFC, 3);
    w.mem.write_u32(0, 4);
    w.shadow.mem.set_range(0, 4, Taint::SMS);
    let n = w.run(&[], |asm| {
        asm.mov(Reg::R4, Reg::SP);
        asm.ldr_const(Reg::SP, 0xFFFF_FFFC);
        asm.ldr_const(Reg::R0, B); // dst
        asm.ldr_const(Reg::R1, A); // fmt
        asm.mov_imm(Reg::R2, 1).unwrap();
        asm.mov_imm(Reg::R3, 2).unwrap();
        asm.call_abs(libc_addr("sprintf"));
        asm.mov(Reg::SP, Reg::R4);
    });
    assert_eq!(n, 4);
    assert_eq!(w.mem.read_cstr(B), b"1234");
    assert_eq!(w.shadow.mem.range_taint(B, 3), Taint::CLEAR);
    assert_eq!(w.shadow.mem.get(B + 3), Taint::SMS, "the wrapped 6th argument");
}

#[test]
fn vsprintf_va_list_wraps_at_the_top_of_memory() {
    let mut w = world();
    w.mem.write_cstr(A, b"%d-%d");
    w.mem.write_u32(0xFFFF_FFFC, 7);
    w.mem.write_u32(0, 8);
    w.shadow.mem.set_range(0, 4, Taint::SMS);
    w.run(&[], |asm| {
        asm.ldr_const(Reg::R0, B); // dst
        asm.ldr_const(Reg::R1, A); // fmt
        asm.ldr_const(Reg::R2, 0xFFFF_FFFC); // va_list
        asm.call_abs(libc_addr("vsprintf"));
    });
    assert_eq!(w.mem.read_cstr(B), b"7-8");
    assert_eq!(w.shadow.mem.range_taint(B, 2), Taint::CLEAR);
    assert_eq!(w.shadow.mem.get(B + 2), Taint::SMS, "the wrapped 2nd slot");
}

#[test]
fn vsprintf_reads_va_list_from_memory() {
    let mut w = world();
    w.mem.write_cstr(A, b"%s-%d");
    w.mem.write_cstr(C, b"id");
    // va_list block: [ptr to "id", 77]
    w.mem.write_u32(B, C);
    w.mem.write_u32(B + 4, 77);
    w.shadow.mem.set_range(C, 2, Taint::ACCOUNT);
    w.run(&[], |asm| {
        asm.ldr_const(Reg::R0, B + 0x100); // dst
        asm.ldr_const(Reg::R1, A); // fmt
        asm.ldr_const(Reg::R2, B); // va_list
        asm.call_abs(libc_addr("vsprintf"));
    });
    assert_eq!(w.mem.read_cstr(B + 0x100), b"id-77");
    assert_eq!(
        w.shadow.mem.range_taint(B + 0x100, 2),
        Taint::ACCOUNT,
        "%s bytes tainted"
    );
}

#[test]
fn strdup_allocates_and_copies_taint() {
    let mut w = world();
    w.mem.write_cstr(A, b"dup-me");
    w.shadow.mem.set_range(A, 6, Taint::IMSI);
    w.run(&[], |asm| {
        asm.ldr_const(Reg::R0, A);
        asm.call_abs(libc_addr("strdup"));
        asm.ldr_const(Reg::R1, C);
        asm.str(Reg::R0, Reg::R1, 0);
    });
    let p = w.mem.read_u32(C);
    assert!(layout::in_native_heap(p));
    assert_eq!(w.mem.read_cstr(p), b"dup-me");
    assert_eq!(w.shadow.mem.range_taint(p, 6), Taint::IMSI);
}

#[test]
fn atoi_handles_sign_and_garbage() {
    let mut w = world();
    w.mem.write_cstr(A, b"  -42abc");
    let v = w.run(&[], |asm| {
        asm.ldr_const(Reg::R0, A);
        asm.call_abs(libc_addr("atoi"));
        asm.ldr_const(Reg::R1, C);
        asm.str(Reg::R0, Reg::R1, 0);
    });
    let _ = v;
    assert_eq!(w.mem.read_u32(C) as i32, -42);
}

#[test]
fn strcasecmp_ignores_case() {
    let mut w = world();
    w.mem.write_cstr(A, b"HeLLo");
    w.mem.write_cstr(B, b"hello");
    w.run(&[], |asm| {
        asm.ldr_const(Reg::R0, A);
        asm.ldr_const(Reg::R1, B);
        asm.call_abs(libc_addr("strcasecmp"));
        asm.ldr_const(Reg::R1, C);
        asm.str(Reg::R0, Reg::R1, 0);
    });
    assert_eq!(w.mem.read_u32(C), 0);
}

#[test]
fn fgets_reads_line_by_line() {
    let mut w = world();
    w.kernel
        .fs
        .insert("/data/lines".into(), b"one\ntwo\n".to_vec());
    w.mem.write_cstr(A, b"/data/lines");
    w.mem.write_cstr(A + 0x40, b"r");
    w.run(&[], |asm| {
        asm.ldr_const(Reg::R0, A);
        asm.ldr_const(Reg::R1, A + 0x40);
        asm.call_abs(libc_addr("fopen"));
        asm.mov(Reg::R4, Reg::R0);
        asm.ldr_const(Reg::R0, B);
        asm.mov_imm(Reg::R1, 64).unwrap();
        asm.mov(Reg::R2, Reg::R4);
        asm.call_abs(libc_addr("fgets"));
        asm.mov(Reg::R0, Reg::R4);
        asm.call_abs(libc_addr("fclose"));
    });
    assert_eq!(w.mem.read_cstr(B), b"one\n");
}

#[test]
fn memset_taints_with_value_register() {
    let mut w = world();
    w.shadow.regs[1] = Taint::CLEAR;
    w.run(&[], |asm| {
        asm.ldr_const(Reg::R0, B);
        asm.mov_imm(Reg::R1, 0x5A).unwrap();
        asm.mov_imm(Reg::R2, 16).unwrap();
        asm.call_abs(libc_addr("memset"));
    });
    assert_eq!(w.mem.read_bytes(B, 4), [0x5A; 4]);
    assert_eq!(w.shadow.mem.range_taint(B, 16), Taint::CLEAR);
}

#[test]
fn memcmp_equal_and_different() {
    let mut w = world();
    w.mem.write_bytes(A, b"abcd");
    w.mem.write_bytes(B, b"abcd");
    w.run(&[], |asm| {
        asm.ldr_const(Reg::R0, A);
        asm.ldr_const(Reg::R1, B);
        asm.mov_imm(Reg::R2, 4).unwrap();
        asm.call_abs(libc_addr("memcmp"));
        asm.ldr_const(Reg::R1, C);
        asm.str(Reg::R0, Reg::R1, 0);
    });
    assert_eq!(w.mem.read_u32(C), 0);
}

/// `memcmp` and `memchr` scan in place page by page, so spans that
/// start at different offsets into their pages cross the seams at
/// different points; every answer equals the one over host copies of
/// the spans, and the result taint is still the union of both ranges.
#[test]
fn memcmp_and_memchr_agree_with_host_copies_across_page_seams() {
    let mut w = world();
    let text: Vec<u8> = (0..0x1800u32).map(|i| (i / 32) as u8).collect();
    let (a, b) = (A + 0xFF0, C + 0xFF9);
    w.mem.write_bytes(a, &text);
    w.mem.write_bytes(b, &text);
    w.mem.write_u8(b + 0x1400, 0);
    w.shadow.mem.set(b + 0x17FF, Taint::IMEI);
    for n in [0, 1, 0x10, 0x13FF, 0x1400, 0x1401, 0x1800] {
        let (x, y) = (w.mem.read_bytes(a, n), w.mem.read_bytes(b, n));
        let want = match x.cmp(&y) {
            std::cmp::Ordering::Less => u32::MAX,
            std::cmp::Ordering::Equal => 0,
            std::cmp::Ordering::Greater => 1,
        };
        assert_eq!(
            w.call_host(|c| string_fns::memcmp(c, "memcmp"), &[a, b, n as u32]),
            Ok(want),
            "memcmp n={n:#x}"
        );
        let taint = if n == 0x1800 {
            Taint::IMEI
        } else {
            Taint::CLEAR
        };
        assert_eq!(w.shadow.regs[0], taint, "memcmp n={n:#x} taint");
        for c in [0u8, 100, 191, 200] {
            let want = y.iter().position(|&v| v == c).map_or(0, |i| b + i as u32);
            let got = w.call_host(|c| string_fns::memchr(c, "memchr"), &[b, c as u32, n as u32]);
            assert_eq!(got, Ok(want), "memchr({c}, n={n:#x})");
        }
    }
}

/// `fwrite` and `fread` with a hostile `size * n`: a product that
/// overflows `u32` (`0x10000 * 0x10000`), or one far above
/// `MAX_TRANSFER` (`0xFFFF * 0xFFFF` bytes is about 4 GiB of guest
/// memory), moves only the whole items that fit in `MAX_TRANSFER` bytes
/// and returns their count, C's short count. The write is still a
/// recorded, tainted sink call.
#[test]
fn fread_and_fwrite_refuse_hostile_sizes() {
    let mut w = world();
    w.mem.write_cstr(A, b"/data/out");
    w.mem.write_cstr(A + 0x40, b"w");
    let out = w.call_host(|c| stdio::fopen(c, "fopen"), &[A, A + 0x40]).unwrap();
    w.shadow.mem.set_range(B, 4, Taint::IMEI);
    let hostile = [(0x1_0000, 0x1_0000), (0xFFFF, 0xFFFF)];
    for (size, n) in hostile {
        let written = w.call_host(|c| stdio::fwrite(c, "fwrite"), &[B, size, n, out]);
        assert_eq!(written, Ok(MAX_TRANSFER / size), "fwrite(buf, {size:#x}, {n:#x}, f)");
    }
    let lens: Vec<usize> = w.shadow.prov.sinks().iter().map(|e| e.data.len()).collect();
    assert_eq!(lens, hostile.map(|(size, _)| (MAX_TRANSFER / size * size) as usize));
    assert!(w.shadow.prov.sinks().iter().all(|e| e.sink == "write" && e.taint == Taint::IMEI));
    assert_eq!(w.kernel.fs["/data/out"].len(), lens.iter().sum::<usize>());

    let mut contents = vec![0; MAX_TRANSFER as usize];
    contents.extend_from_slice(b"contents");
    w.kernel.fs.insert("/data/f".into(), contents);
    w.mem.write_cstr(A, b"/data/f");
    w.mem.write_cstr(A + 0x40, b"r");
    let file = w.call_host(|c| stdio::fopen(c, "fopen"), &[A, A + 0x40]).unwrap();
    let read = w.call_host(|c| stdio::fread(c, "fread"), &[B, 0x1_0000, 0x1_0000, file]);
    assert_eq!(read, Ok(MAX_TRANSFER / 0x1_0000), "fread(buf, 0x10000, 0x10000, f)");
    assert_eq!(w.call_host(|c| stdio::fread(c, "fread"), &[B, 1, 8, file]), Ok(8), "the rest is unread");
    assert_eq!(w.mem.read_bytes(B, 8), b"contents");
}

/// `calloc(0x10000, 0x10000)`: the 4 GiB product saturates to a size no
/// heap holds, so the call is NULL and zeroes nothing.
#[test]
fn calloc_past_the_address_space_is_null() {
    let mut w = world();
    assert_eq!(w.call_host(|c| string_fns::calloc(c, "calloc"), &[0x1_0000, 0x1_0000]), Ok(0));
    assert_eq!(w.kernel.heap.live(), 0);
}
