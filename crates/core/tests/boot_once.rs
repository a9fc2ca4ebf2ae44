//! The per-process tables: every boot, fork and thread borrows one
//! host-function table, and the O(1) name → address indexes agree with
//! the positional layout they replace.

use ndroid_core::{Mode, NDroidSystem};
use ndroid_dvm::framework::install_framework;
use ndroid_dvm::Program;
use ndroid_emu::layout::{LIBC_BASE, LIBDVM_BASE, LIBM_BASE};
use ndroid_emu::runtime::HostTable;
use ndroid_jni::{dvm_addr, jni_names};
use ndroid_libc::{libc_addr, libm_addr, LIBC_NAMES, LIBM_NAMES};

/// One table is shared by every thread, so it must be `Send + Sync`.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<HostTable>();
};

fn boot() -> NDroidSystem {
    let mut p = Program::new();
    install_framework(&mut p);
    NDroidSystem::new(p, Mode::NDroid)
}

#[test]
fn boots_forks_and_threads_share_one_table() {
    let a = boot();
    let b = boot();
    let fork = a.snapshot().fork();
    let other_thread = std::thread::scope(|s| {
        s.spawn(|| boot().table as *const HostTable as usize)
            .join()
            .expect("boot on a second thread")
    });
    assert!(std::ptr::eq(a.table, b.table), "two fresh boots");
    assert!(std::ptr::eq(a.table, fork.table), "a fork");
    assert_eq!(
        a.table as *const HostTable as usize, other_thread,
        "a boot on another thread"
    );
}

/// The old definition — the first position in the name list times the
/// region's stride (0x40 for libdvm, 0x20 for libc and libm) — is the
/// oracle.
#[test]
fn indexes_match_the_positional_layout() {
    let names = jni_names();
    for name in names {
        let pos = names.iter().position(|n| n == name).expect("listed");
        assert_eq!(dvm_addr(name), LIBDVM_BASE + 0x40 * pos as u32, "{name}");
    }
    for (names, base, lookup) in [
        (LIBC_NAMES, LIBC_BASE, libc_addr as fn(&str) -> u32),
        (LIBM_NAMES, LIBM_BASE, libm_addr),
    ] {
        for name in names {
            let pos = names.iter().position(|n| n == name).expect("listed");
            assert_eq!(lookup(name), base + 0x20 * pos as u32, "{name}");
        }
    }
}
