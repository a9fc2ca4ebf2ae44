//! Property-based tests of the emulator substrates: the kernel fd
//! lifecycle and the byte-granular taint map.

use ndroid_dvm::{Recorder, Taint};
use ndroid_emu::shadow::TaintMap;
use ndroid_emu::Kernel;
use ndroid_testkit::prelude::*;

proptest! {
    /// The kernel filesystem behaves like a map of byte vectors under
    /// arbitrary open/write/read/close sequences.
    #[test]
    fn kernel_file_model(chunks in collection::vec(collection::vec(any::<u8>(), 0..64), 1..10)) {
        let mut k = Kernel::new();
        let fd = k.open("/data/file", true).unwrap();
        let mut expected = Vec::new();
        for chunk in &chunks {
            k.write(&mut Recorder::default(), fd, chunk.as_slice().into(), Taint::CLEAR).unwrap();
            expected.extend_from_slice(chunk);
        }
        k.close(fd).unwrap();
        prop_assert_eq!(k.fs.get("/data/file").unwrap(), &expected);
        // Read it back in arbitrary-size gulps.
        let fd = k.open("/data/file", false).unwrap();
        let mut read_back = Vec::new();
        loop {
            let chunk = k.read(fd, 7).unwrap();
            if chunk.is_empty() {
                break;
            }
            read_back.extend_from_slice(&chunk);
        }
        prop_assert_eq!(read_back, expected);
    }

    /// The byte taint map equals a reference HashMap model under
    /// arbitrary set/add/clear/copy operations.
    #[test]
    fn taint_map_matches_model(ops in collection::vec((0u8..4, 0u32..128, 1u32..16, any::<u32>()), 0..64)) {
        use std::collections::HashMap;
        let mut real = TaintMap::new();
        let mut model: HashMap<u32, u32> = HashMap::new();
        for (op, addr, len, bits) in ops {
            match op {
                0 => {
                    real.set_range(addr, len, Taint(bits));
                    for i in 0..len {
                        if bits == 0 {
                            model.remove(&(addr + i));
                        } else {
                            model.insert(addr + i, bits);
                        }
                    }
                }
                1 => {
                    real.add_range(addr, len, Taint(bits));
                    if bits != 0 {
                        for i in 0..len {
                            *model.entry(addr + i).or_insert(0) |= bits;
                        }
                    }
                }
                2 => {
                    real.clear_range(addr, len);
                    for i in 0..len {
                        model.remove(&(addr + i));
                    }
                }
                _ => {
                    let dst = addr.wrapping_add(64);
                    real.copy_range(dst, addr, len);
                    let vals: Vec<Option<u32>> =
                        (0..len).map(|i| model.get(&(addr + i)).copied()).collect();
                    for (i, v) in vals.into_iter().enumerate() {
                        match v {
                            Some(bits) => {
                                model.insert(dst + i as u32, bits);
                            }
                            None => {
                                model.remove(&(dst + i as u32));
                            }
                        }
                    }
                }
            }
            for a in 0..200u32 {
                prop_assert_eq!(
                    real.get(a).0,
                    model.get(&a).copied().unwrap_or(0),
                    "byte {}", a
                );
            }
        }
    }

}
