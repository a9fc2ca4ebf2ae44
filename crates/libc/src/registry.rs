//! Deterministic trap-address assignment and host-table registration
//! for the modeled functions.
//!
//! NDroid "manually disassemble\[s\] libdvm.so, libc.so, libm.so … and
//! determine\[s\] the offsets of these functions", then keeps "a list of
//! their addresses and the corresponding analysis functions" (§V-G).
//! Here that list is one row per function: each region is a table of
//! rows in trap-address order, and a row binds the function's name to
//! its body and its provenance rule. A function's address is its
//! position in its region's table, so assemblers, the host table and
//! the dispatcher agree by construction.

use crate::helpers::prov_libc;
use crate::{math, stdio, string_fns, syscalls};
use ndroid_emu::layout::{LIBC_BASE, LIBM_BASE};
use ndroid_emu::runtime::{HostTable, NativeCtx};
use ndroid_emu::EmuError;
use std::collections::HashMap;
use std::sync::OnceLock;
use Rule::{Own, Ret, Stub};

/// Spacing between function trap addresses.
const STRIDE: u32 = 0x20;

/// How many of [`LIBC_NAMES`] Table VI models; the rest are Table VII's
/// hooked standard library calls.
pub const LIBC_MODELED: usize = 32;

/// A model's body, given the context and the name its row binds (the
/// `func` of the provenance events it records).
pub type Body = fn(&mut NativeCtx<'_>, &'static str) -> Result<u32, EmuError>;

/// How a row's call is recorded in the run's provenance.
#[derive(Clone, Copy)]
enum Rule {
    /// The dispatcher records a tainted R0 as the row's `Libc` event:
    /// the read family (`strlen`, `atoi`, `strtoul`, `strcmp`, the libm
    /// rows, ...), whose result is all the taint they move.
    Ret(Body),
    /// The body records its own events: the copy family, whose moved
    /// taint never reaches R0, and the sinks, which surface as `Sink`
    /// events at the kernel instead.
    Own(Body),
    /// No body: an observed stub, logged and returning 0.
    Stub,
}

/// One hooked function: its name and how a call to it runs.
type Row = (&'static str, Rule);

/// The libc region, in trap-address order: Table VI's libc row (the
/// first [`LIBC_MODELED`]), then Table VII's hooked calls. A `static`,
/// so each name has the one address [`LIBC_NAMES`] and the host table
/// both borrow.
static LIBC: &[Row] = &[
    // Table VI — modeled standard methods (libc).
    ("memcpy", Own(string_fns::memcpy)),
    ("free", Ret(string_fns::free)),
    ("malloc", Ret(string_fns::malloc)),
    ("memset", Own(string_fns::memset)),
    ("strlen", Ret(string_fns::strlen)),
    ("strcmp", Ret(string_fns::strcmp)),
    ("realloc", Ret(string_fns::realloc)),
    ("strcpy", Own(string_fns::strcpy)),
    ("memcmp", Ret(string_fns::memcmp)),
    ("strncmp", Ret(string_fns::strncmp)),
    ("memmove", Own(string_fns::memcpy)),
    ("sprintf", Own(stdio::sprintf)),
    ("strncpy", Own(string_fns::strncpy)),
    ("fprintf", Own(stdio::fprintf)),
    ("strchr", Ret(string_fns::strchr)),
    ("snprintf", Own(stdio::snprintf)),
    ("calloc", Ret(string_fns::calloc)),
    ("strstr", Ret(string_fns::strstr)),
    ("atoi", Ret(string_fns::atoi)),
    ("strrchr", Ret(string_fns::strrchr)),
    ("memchr", Ret(string_fns::memchr)),
    ("strcat", Own(string_fns::strcat)),
    ("sscanf", Own(string_fns::sscanf)),
    ("vsnprintf", Own(stdio::vsnprintf)),
    ("strcasecmp", Ret(string_fns::strcasecmp)),
    ("strdup", Own(string_fns::strdup)),
    ("strncasecmp", Ret(string_fns::strncasecmp)),
    ("strtoul", Ret(string_fns::strtoul)),
    ("sysconf", Ret(string_fns::sysconf)),
    ("vsprintf", Own(stdio::vsprintf)),
    ("vfprintf", Own(stdio::vfprintf)),
    ("atol", Ret(string_fns::atoi)),
    // Table VII — hooked standard library calls.
    ("fwrite", Own(stdio::fwrite)),
    ("fclose", Ret(stdio::fclose)),
    ("fopen", Ret(stdio::fopen)),
    ("fread", Ret(stdio::fread)),
    ("close", Ret(syscalls::close)),
    ("write", Own(syscalls::write)),
    ("fputc", Own(stdio::fputc)),
    ("read", Ret(syscalls::read)),
    ("fputs", Own(stdio::fputs)),
    ("open", Ret(syscalls::open)),
    ("fcntl", Stub),
    ("fstat", Stub),
    ("munmap", Ret(syscalls::munmap)),
    ("mmap", Ret(syscalls::mmap)),
    ("dlopen", Ret(syscalls::dlopen)),
    ("stat", Stub),
    ("fgets", Ret(stdio::fgets)),
    ("socket", Ret(syscalls::socket)),
    ("connect", Ret(syscalls::connect)),
    ("send", Own(syscalls::send)),
    ("recv", Ret(syscalls::recv)),
    ("dlsym", Stub),
    ("bind", Stub),
    ("dlclose", Stub),
    ("ioctl", Stub),
    ("listen", Stub),
    ("mkdir", Stub),
    ("accept", Stub),
    ("select", Stub),
    ("getc", Ret(stdio::getc)),
    ("rename", Stub),
    ("sendto", Own(syscalls::sendto)),
    ("recvfrom", Ret(syscalls::recvfrom)),
    ("fdopen", Ret(stdio::fdopen)),
    ("mprotect", Stub),
    ("remove", Stub),
    ("kill", Stub),
    ("fork", Stub),
    ("execve", Stub),
    ("chown", Stub),
    ("ptrace", Stub),
    ("openDexFile", Stub),
];

/// The libm region (Table VI's libm row), in trap-address order.
static LIBM: &[Row] = &[
    ("sin", Ret(|c, _| math::unary_d(c, f64::sin))),
    ("pow", Ret(|c, _| math::binary_d(c, f64::powf))),
    ("cos", Ret(|c, _| math::unary_d(c, f64::cos))),
    ("sqrt", Ret(|c, _| math::unary_d(c, f64::sqrt))),
    ("floor", Ret(|c, _| math::unary_d(c, f64::floor))),
    ("log", Ret(|c, _| math::unary_d(c, f64::ln))),
    ("strtod", Ret(math::strtod)),
    ("strtol", Ret(string_fns::strtoul)),
    ("exp", Ret(|c, _| math::unary_d(c, f64::exp))),
    ("atan2", Ret(|c, _| math::binary_d(c, f64::atan2))),
    ("sinf", Ret(|c, _| math::unary_f(c, f32::sin))),
    ("ceil", Ret(|c, _| math::unary_d(c, f64::ceil))),
    ("cosf", Ret(|c, _| math::unary_f(c, f32::cos))),
    ("sqrtf", Ret(|c, _| math::unary_f(c, f32::sqrt))),
    ("tan", Ret(|c, _| math::unary_d(c, f64::tan))),
    ("acos", Ret(|c, _| math::unary_d(c, f64::acos))),
    ("log10", Ret(|c, _| math::unary_d(c, f64::log10))),
    ("atan", Ret(|c, _| math::unary_d(c, f64::atan))),
    ("asin", Ret(|c, _| math::unary_d(c, f64::asin))),
    ("ldexp", Ret(math::ldexp)),
    ("sinh", Ret(|c, _| math::unary_d(c, f64::sinh))),
    ("cosh", Ret(|c, _| math::unary_d(c, f64::cosh))),
    ("fmod", Ret(|c, _| math::binary_d(c, |a, b| a % b))),
    ("powf", Ret(|c, _| math::binary_f(c, f32::powf))),
    ("atan2f", Ret(|c, _| math::binary_f(c, f32::atan2))),
    ("expf", Ret(|c, _| math::unary_f(c, f32::exp))),
];

/// The names of the first `N` of `rows`, in order.
const fn names<const N: usize>(rows: &[Row]) -> [&'static str; N] {
    let mut out = [""; N];
    let mut i = 0;
    while i < N {
        out[i] = rows[i].0;
        i += 1;
    }
    out
}

/// All libc-region functions (Table VI libc row + Table VII), in
/// address order.
pub static LIBC_NAMES: &[&str] = &names::<{ LIBC.len() }>(LIBC);

/// All libm-region functions (Table VI libm row), in address order.
pub static LIBM_NAMES: &[&str] = &names::<{ LIBM.len() }>(LIBM);

/// The starred sink functions of Table VII (plus `fprintf`, which the
/// Fig. 8 PoC treats as a sink), in the order `exp tables234` prints
/// them. Each one's row records its own `Sink` event.
pub const SINK_NAMES: &[&str] = &[
    "fwrite", "write", "fputc", "fputs", "send", "sendto", "fprintf",
];

/// A region's name → trap-address index, built once per process.
pub type TrapIndex = OnceLock<HashMap<&'static str, u32>>;

/// The trap address of `name` in the `what` region, where the function
/// at position `i` of `names` traps at `base + stride * i`: an O(1)
/// lookup in `index`, built from `names` on first use. The libc, libm
/// and libdvm regions all look their addresses up here.
///
/// # Panics
///
/// Panics on an unknown name (a workload-construction bug).
pub fn trap_addr(
    index: &TrapIndex,
    what: &str,
    names: &[&'static str],
    base: u32,
    stride: u32,
    name: &str,
) -> u32 {
    let index = index.get_or_init(|| {
        (names.iter().enumerate())
            .map(|(i, &n)| (n, base + stride * i as u32))
            .collect()
    });
    *index
        .get(name)
        .unwrap_or_else(|| panic!("unknown {what} function {name}"))
}

/// The trap address of a libc-region function (an O(1) lookup).
///
/// # Panics
///
/// Panics on an unknown name (a workload-construction bug).
pub fn libc_addr(name: &str) -> u32 {
    static INDEX: TrapIndex = OnceLock::new();
    trap_addr(&INDEX, "libc", LIBC_NAMES, LIBC_BASE, STRIDE, name)
}

/// The trap address of a libm-region function (an O(1) lookup).
///
/// # Panics
///
/// Panics on an unknown name.
pub fn libm_addr(name: &str) -> u32 {
    static INDEX: TrapIndex = OnceLock::new();
    trap_addr(&INDEX, "libm", LIBM_NAMES, LIBM_BASE, STRIDE, name)
}

/// Registers each of `rows` at its address (`addr_of`): one boxed
/// closure per row, calling the row's body under its rule. A
/// [`Rule::Ret`] row records the summary "`name` propagated label L"
/// when it returns with a tainted R0.
fn install_region(table: &mut HostTable, rows: &'static [Row], addr_of: fn(&str) -> u32) {
    for &(name, rule) in rows {
        let addr = addr_of(name);
        match rule {
            Ret(f) => table.register(addr, name, move |ctx, _t| {
                let r = f(ctx, name);
                if r.is_ok() {
                    prov_libc(ctx, name, ctx.shadow.regs[0]);
                }
                r
            }),
            Own(f) => table.register(addr, name, move |ctx, _t| f(ctx, name)),
            Stub => table.register(addr, name, move |ctx, _t| syscalls::observed_stub(ctx, name)),
        }
    }
}

/// Registers everything (libc + libm).
pub fn install_all(table: &mut HostTable) {
    install_region(table, LIBC, libc_addr);
    install_region(table, LIBM, libm_addr);
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
    fn sinks_record_their_own_events() {
        for sink in SINK_NAMES {
            let row = LIBC.iter().find(|(name, _)| name == sink).expect("a libc row");
            assert!(matches!(row.1, Own(_)), "{sink}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown libc function")]
    fn unknown_name_panics() {
        libc_addr("no_such_fn");
    }
}
