//! Deterministic trap-address assignment and host-table registration
//! for the modeled functions.
//!
//! NDroid "manually disassemble\[s\] libdvm.so, libc.so, libm.so … and
//! determine\[s\] the offsets of these functions", then keeps "a list of
//! their addresses and the corresponding analysis functions" (§V-G).
//! Here the offsets are assigned by position in the name lists, so
//! assemblers and the host table agree by construction.

use crate::{math, stdio, string_fns, syscalls};
use ndroid_emu::layout::{LIBC_BASE, LIBM_BASE};
use ndroid_emu::runtime::{HostTable, NativeCtx};
use ndroid_emu::EmuError;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Spacing between function trap addresses.
const STRIDE: u32 = 0x20;

/// How many of [`LIBC_NAMES`] Table VI models; the rest are Table VII's
/// hooked standard library calls.
pub const LIBC_MODELED: usize = 32;

/// All libc-region functions (Table VI libc row + Table VII), in
/// address order.
pub const LIBC_NAMES: &[&str] = &[
    // Table VI — modeled standard methods (libc).
    "memcpy", "free", "malloc", "memset", "strlen", "strcmp", "realloc", "strcpy", "memcmp",
    "strncmp", "memmove", "sprintf", "strncpy", "fprintf", "strchr", "snprintf", "calloc",
    "strstr", "atoi", "strrchr", "memchr", "strcat", "sscanf", "vsnprintf", "strcasecmp",
    "strdup", "strncasecmp", "strtoul", "sysconf", "vsprintf", "vfprintf", "atol",
    // Table VII — hooked standard library calls.
    "fwrite", "fclose", "fopen", "fread", "close", "write", "fputc", "read", "fputs", "open",
    "fcntl", "fstat", "munmap", "mmap", "dlopen", "stat", "fgets", "socket", "connect", "send",
    "recv", "dlsym", "bind", "dlclose", "ioctl", "listen", "mkdir", "accept", "select", "getc",
    "rename", "sendto", "recvfrom", "fdopen", "mprotect", "remove", "kill", "fork", "execve",
    "chown", "ptrace", "openDexFile",
];

/// All libm-region functions (Table VI libm row), in address order.
pub const LIBM_NAMES: &[&str] = &[
    "sin", "pow", "cos", "sqrt", "floor", "log", "strtod", "strtol", "exp", "atan2", "sinf",
    "ceil", "cosf", "sqrtf", "tan", "acos", "log10", "atan", "asin", "ldexp", "sinh", "cosh",
    "fmod", "powf", "atan2f", "expf",
];

/// The starred sink functions of Table VII (plus `fprintf`, which the
/// Fig. 8 PoC treats as a sink).
pub const SINK_NAMES: &[&str] = &[
    "fwrite", "write", "fputc", "fputs", "send", "sendto", "fprintf",
];

/// A region's name → trap-address index, built once per process.
type Index = OnceLock<HashMap<&'static str, u32>>;

/// Looks `name` up in the `region`'s `index`, building it on first use
/// from `names` laid out `STRIDE` apart from `base`.
fn lookup(
    index: &'static Index,
    region: &str,
    names: &'static [&'static str],
    base: u32,
    name: &str,
) -> u32 {
    let index = index.get_or_init(|| {
        (names.iter().enumerate())
            .map(|(i, n)| (*n, base + STRIDE * i as u32))
            .collect()
    });
    *index
        .get(name)
        .unwrap_or_else(|| panic!("unknown {region} function {name}"))
}

/// The trap address of a libc-region function (an O(1) lookup).
///
/// # Panics
///
/// Panics on an unknown name (a workload-construction bug).
pub fn libc_addr(name: &str) -> u32 {
    static INDEX: Index = OnceLock::new();
    lookup(&INDEX, "libc", LIBC_NAMES, LIBC_BASE, name)
}

/// The trap address of a libm-region function (an O(1) lookup).
///
/// # Panics
///
/// Panics on an unknown name.
pub fn libm_addr(name: &str) -> u32 {
    static INDEX: Index = OnceLock::new();
    lookup(&INDEX, "libm", LIBM_NAMES, LIBM_BASE, name)
}

/// Whether `name` is a leak sink.
pub fn is_sink(name: &str) -> bool {
    SINK_NAMES.contains(&name)
}

type Impl = fn(&mut NativeCtx<'_>) -> Result<u32, EmuError>;

/// Models that record their own provenance event (the copy family,
/// whose moved taint never reaches the return register), plus the
/// sinks (which surface as `Sink` events at the kernel instead).
const SELF_RECORDING: &[&str] = &[
    "memcpy", "memmove", "memset", "strcpy", "strncpy", "strcat", "strdup", "sscanf", "sprintf",
    "snprintf", "vsprintf", "vsnprintf",
];

/// Central provenance hook for every registered model that does not
/// record its own (see [`SELF_RECORDING`]): when a call returns with a
/// tainted R0, the summary "`name` propagated label L" is recorded.
/// This catches the whole read family (`strlen`, `atoi`, `strtoul`,
/// `strcmp`, the libm parsers, ...) without touching each model body.
fn record_model_ret(ctx: &mut NativeCtx<'_>, name: &'static str) {
    let t = ctx.shadow.regs[0];
    if t.is_tainted() && ctx.shadow.prov.is_on() {
        ctx.shadow.prov.emit(ndroid_provenance::ProvEvent::Libc {
            func: name.into(),
            label: t.0,
        });
    }
}

fn libc_impl(name: &str) -> Option<Impl> {
    Some(match name {
        "memcpy" => string_fns::memcpy,
        "free" => string_fns::free,
        "malloc" => string_fns::malloc,
        "memset" => string_fns::memset,
        "strlen" => string_fns::strlen,
        "strcmp" => string_fns::strcmp,
        "realloc" => string_fns::realloc,
        "strcpy" => string_fns::strcpy,
        "memcmp" => string_fns::memcmp,
        "strncmp" => string_fns::strncmp,
        "memmove" => string_fns::memmove,
        "sprintf" => stdio::sprintf,
        "strncpy" => string_fns::strncpy,
        "fprintf" => stdio::fprintf,
        "strchr" => string_fns::strchr,
        "snprintf" => stdio::snprintf,
        "calloc" => string_fns::calloc,
        "strstr" => string_fns::strstr,
        "atoi" => string_fns::atoi,
        "strrchr" => string_fns::strrchr,
        "memchr" => string_fns::memchr,
        "strcat" => string_fns::strcat,
        "sscanf" => string_fns::sscanf,
        "vsnprintf" => stdio::vsnprintf,
        "strcasecmp" => string_fns::strcasecmp,
        "strdup" => string_fns::strdup,
        "strncasecmp" => string_fns::strncasecmp,
        "strtoul" => string_fns::strtoul,
        "sysconf" => string_fns::sysconf,
        "vsprintf" => stdio::vsprintf,
        "vfprintf" => stdio::vfprintf,
        "atol" => string_fns::atol,
        "fwrite" => stdio::fwrite,
        "fclose" => stdio::fclose,
        "fopen" => stdio::fopen,
        "fread" => stdio::fread,
        "close" => syscalls::close,
        "write" => syscalls::write,
        "fputc" => stdio::fputc,
        "read" => syscalls::read,
        "fputs" => stdio::fputs,
        "open" => syscalls::open,
        "munmap" => syscalls::munmap,
        "mmap" => syscalls::mmap,
        "dlopen" => syscalls::dlopen,
        "fgets" => stdio::fgets,
        "socket" => syscalls::socket,
        "connect" => syscalls::connect,
        "send" => syscalls::send,
        "recv" => syscalls::recv,
        "getc" => stdio::getc,
        "sendto" => syscalls::sendto,
        "recvfrom" => syscalls::recvfrom,
        "fdopen" => stdio::fdopen,
        _ => return None, // observed stubs
    })
}

fn libm_impl(name: &str) -> Option<Impl> {
    Some(match name {
        "sin" => math::sin,
        "pow" => math::pow,
        "cos" => math::cos,
        "sqrt" => math::sqrt,
        "floor" => math::floor,
        "log" => math::log,
        "strtod" => math::strtod,
        "strtol" => string_fns::strtol,
        "exp" => math::exp,
        "atan2" => math::atan2,
        "sinf" => math::sinf,
        "ceil" => math::ceil,
        "cosf" => math::cosf,
        "sqrtf" => math::sqrtf,
        "tan" => math::tan,
        "acos" => math::acos,
        "log10" => math::log10,
        "atan" => math::atan,
        "asin" => math::asin,
        "ldexp" => math::ldexp,
        "sinh" => math::sinh,
        "cosh" => math::cosh,
        "fmod" => math::fmod,
        "powf" => math::powf,
        "atan2f" => math::atan2f,
        "expf" => math::expf,
        _ => return None,
    })
}

/// Registers the functions of one region at `addr_of` each, with `model`
/// picking each one's implementation (an observed stub when it has
/// none).
fn install_region(
    table: &mut HostTable,
    names: &'static [&'static str],
    addr_of: fn(&str) -> u32,
    model: fn(&str) -> Option<Impl>,
) {
    for &name in names {
        let addr = addr_of(name);
        match model(name) {
            Some(f) if SELF_RECORDING.contains(&name) || is_sink(name) => {
                table.register(addr, name, move |ctx, _t| f(ctx));
            }
            Some(f) => table.register(addr, name, move |ctx, _t| {
                let r = f(ctx);
                if r.is_ok() {
                    record_model_ret(ctx, name);
                }
                r
            }),
            None => {
                let stub = syscalls::observed_stub(name);
                table.register(addr, name, move |ctx, _t| stub(ctx));
            }
        }
    }
}

/// Registers everything (libc + libm).
pub fn install_all(table: &mut HostTable) {
    install_region(table, LIBC_NAMES, libc_addr, libc_impl);
    install_region(table, LIBM_NAMES, libm_addr, libm_impl);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_are_deterministic_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for n in LIBC_NAMES {
            assert!(seen.insert(libc_addr(n)), "dup addr for {n}");
        }
        for n in LIBM_NAMES {
            assert!(seen.insert(libm_addr(n)), "dup addr for {n}");
        }
        assert_eq!(libc_addr("memcpy"), LIBC_BASE);
        assert_eq!(libm_addr("sin"), LIBM_BASE);
    }

    #[test]
    fn all_functions_register() {
        let mut table = HostTable::new();
        install_all(&mut table);
        assert_eq!(table.len(), LIBC_NAMES.len() + LIBM_NAMES.len());
        assert_eq!(table.name_at(libc_addr("memcpy")), Some("memcpy"));
        assert_eq!(table.name_at(libm_addr("powf")), Some("powf"));
    }

    #[test]
    fn table_counts_match_paper() {
        // Table VI models 32 libc + 26 libm functions.
        let table6_libc = &LIBC_NAMES[..LIBC_MODELED];
        assert_eq!(table6_libc.len(), 32);
        assert!(table6_libc.contains(&"memcpy"));
        assert!(table6_libc.contains(&"atol"));
        assert_eq!(LIBM_NAMES.len(), 26);
    }

    #[test]
    fn libc_modeled_ends_at_table_vi() {
        assert_eq!(LIBC_NAMES[LIBC_MODELED - 1], "atol");
        assert_eq!(LIBC_NAMES[LIBC_MODELED], "fwrite");
    }

    #[test]
    fn sink_classification() {
        for s in SINK_NAMES {
            assert!(is_sink(s));
        }
        assert!(!is_sink("memcpy"));
        assert!(!is_sink("read"));
        assert!(!is_sink("recv"));
    }

    #[test]
    #[should_panic(expected = "unknown libc function")]
    fn unknown_name_panics() {
        libc_addr("no_such_fn");
    }
}
