//! The guest address-space layout used by the reproduction.
//!
//! Regions are chosen so addresses in logs resemble the paper's
//! (native buffers at `0x2a......`, DVM objects at `0x41......`,
//! interpreter frames at `0x44bf....`).

/// Base of third-party native library text (the code under analysis).
pub const NATIVE_CODE_BASE: u32 = 0x1000_0000;

/// Size reserved for third-party native code.
pub const NATIVE_CODE_SIZE: u32 = 0x0100_0000;

/// Base of the native heap (`malloc` arena) — paper logs show native
/// buffers like `0x2a141b90`.
pub const NATIVE_HEAP_BASE: u32 = 0x2A00_0000;

/// Size of the native heap.
pub const NATIVE_HEAP_SIZE: u32 = 0x0100_0000;

/// Base of the native stack region.
pub const NATIVE_STACK_BASE: u32 = 0x4000_0000;

/// Initial native stack pointer (stack grows down).
pub const NATIVE_STACK_TOP: u32 = 0x4080_0000;

/// Trap-address region for `libdvm.so` (JNI env functions and DVM
/// internals like `dvmCallJNIMethod`, `dvmInterpret`, …).
pub const LIBDVM_BASE: u32 = 0x6000_0000;

/// Size of the `libdvm.so` trap-address region.
pub const LIBDVM_SIZE: u32 = 0x0100_0000;

/// Trap-address region for `libc.so` modeled functions.
pub const LIBC_BASE: u32 = 0x6800_0000;

/// Trap-address region for `libm.so` modeled functions.
pub const LIBM_BASE: u32 = 0x6C00_0000;

/// Kernel memory where task structures live (walked by the OS-level
/// view reconstructor).
pub const KERNEL_TASKS_BASE: u32 = 0xC000_0000;

/// The run loop stops when the PC reaches this sentinel (pushed as the
/// initial LR of every guest call).
pub const RETURN_SENTINEL: u32 = 0xFFFF_FF00;

/// Whether `addr` lies in third-party native code (the paper's "native
/// code under investigation" — condition component of T1).
pub fn in_native_code(addr: u32) -> bool {
    (NATIVE_CODE_BASE..NATIVE_CODE_BASE + NATIVE_CODE_SIZE).contains(&addr)
}

/// Whether `addr` lies in `libdvm.so`'s trap region, where every JNI
/// function and every multilevel hook address lives.
#[inline]
pub fn in_libdvm(addr: u32) -> bool {
    (LIBDVM_BASE..LIBDVM_BASE + LIBDVM_SIZE).contains(&addr)
}

/// Whether `addr` lies in the native heap.
pub fn in_native_heap(addr: u32) -> bool {
    (NATIVE_HEAP_BASE..NATIVE_HEAP_BASE + NATIVE_HEAP_SIZE).contains(&addr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_do_not_overlap() {
        let regions = [
            (NATIVE_CODE_BASE, NATIVE_CODE_BASE + NATIVE_CODE_SIZE),
            (NATIVE_HEAP_BASE, NATIVE_HEAP_BASE + NATIVE_HEAP_SIZE),
            (NATIVE_STACK_BASE, NATIVE_STACK_TOP),
            (LIBDVM_BASE, LIBDVM_BASE + LIBDVM_SIZE),
            (LIBC_BASE, LIBC_BASE + 0x0100_0000),
            (LIBM_BASE, LIBM_BASE + 0x0100_0000),
        ];
        for (i, a) in regions.iter().enumerate() {
            for (j, b) in regions.iter().enumerate() {
                if i != j {
                    assert!(a.1 <= b.0 || b.1 <= a.0, "regions {i} and {j} overlap");
                }
            }
        }
    }

    #[test]
    fn classification() {
        assert!(in_native_code(NATIVE_CODE_BASE));
        assert!(in_native_code(NATIVE_CODE_BASE + 100));
        assert!(!in_native_code(LIBC_BASE));
        assert!(in_libdvm(LIBDVM_BASE));
        assert!(!in_libdvm(LIBDVM_BASE + LIBDVM_SIZE));
        assert!(!in_libdvm(LIBC_BASE));
        assert!(in_native_heap(0x2A14_1B90)); // the paper's buffer address
        assert!(!in_native_heap(NATIVE_CODE_BASE));
    }
}
