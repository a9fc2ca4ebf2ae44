//! `calibrate`: the host-speed yardstick a `pipeline` run starts as a child
//! process (see `host.rs`).
//!
//! It answers each line on standard input — the CPU to run on, or empty —
//! with the nanoseconds of one calibration unit, until standard input
//! closes. A unit mixes the two kinds of work the workloads do:
//!
//! * allocation shaped like a boot — a map of boxed closures plus buffers
//!   of 16 B to 1 KiB — which slows in step with app boots and forks;
//! * interpreter-like dispatch over a 256 KiB table, which slows in step
//!   with the cfbench kernels.
//!
//! It is a binary of its own, linking none of the code under test, so its
//! machine code is the same at every commit: the same unit compiled into
//! builds of `pipeline` ran 24-29% apart on one CPU, code placement alone.

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::time::Instant;

/// Untimed units a new child runs first: a fresh process's first ten or
/// so units ran up to 1.7 times slower than its later ones.
const WARM_UNITS: usize = 20;

fn main() {
    serve(std::io::stdin().lock(), std::io::stdout().lock());
}

fn serve(requests: impl BufRead, mut answers: impl Write) {
    let mut seed = 0x9E37_79B9_7F4A_7C15;
    let mut table: Vec<u32> = (0..1u32 << 16).collect();
    for _ in 0..WARM_UNITS {
        unit(&mut table, &mut seed);
    }
    for request in requests.lines() {
        let Ok(request) = request else {
            return;
        };
        if let Ok(cpu) = request.trim().parse() {
            pin_to(cpu);
        }
        let ns = unit(&mut table, &mut seed);
        if writeln!(answers, "{ns}")
            .and_then(|()| answers.flush())
            .is_err()
        {
            return;
        }
    }
}

/// Restricts this thread to `cpu`; does nothing if the CPU is out of range
/// or not allowed.
#[cfg(target_os = "linux")]
fn pin_to(cpu: usize) {
    use std::ffi::c_int;
    extern "C" {
        fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
    }
    /// Words in the C library's `cpu_set_t` (1024 CPUs).
    const SET_WORDS: usize = 1024 / 64;
    if cpu >= SET_WORDS * 64 {
        return;
    }
    let mut set = [0u64; SET_WORDS];
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is an initialized buffer of exactly the `cpusetsize`
    // bytes passed, laid out as `cpu_set_t` (bit `cpu % 64` of word
    // `cpu / 64`), and is only read; pid 0 is the calling thread. A failure
    // leaves the affinity unchanged.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&set), set.as_ptr());
    }
}

/// Elsewhere the child stays where the scheduler puts it.
#[cfg(not(target_os = "linux"))]
fn pin_to(_cpu: usize) {}

/// One calibration unit: an untimed pass that warms the table (so what the
/// workload left in the CPU caches does not count), then two timed passes
/// of allocation and dispatch. Returns the timed nanoseconds.
fn unit(table: &mut [u32], seed: &mut u64) -> f64 {
    std::hint::black_box(allocation(seed));
    std::hint::black_box(dispatch(table, seed));
    let t0 = Instant::now();
    for _ in 0..2 {
        std::hint::black_box(allocation(seed));
        std::hint::black_box(dispatch(table, seed));
    }
    t0.elapsed().as_nanos() as f64
}

/// Builds a map of 400 boxed closures and 400 buffers of 16 B to 1 KiB,
/// probes the map, and drops everything.
fn allocation(seed: &mut u64) -> u64 {
    let mut map: HashMap<u32, Box<dyn Fn(u32) -> u32>> = HashMap::new();
    let mut bufs: Vec<Box<[u8]>> = Vec::new();
    for k in 0..400u32 {
        *seed = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let s = (*seed >> 33) as u32;
        map.insert(k.wrapping_mul(0x9E37) ^ s, Box::new(move |x| x ^ s));
        bufs.push(vec![s as u8; 16 + (s as usize & 1023)].into_boxed_slice());
    }
    let hits: u64 = (0..400u32)
        .filter_map(|k| map.get(&k.wrapping_mul(0x9E37)).map(|f| u64::from(f(k))))
        .sum();
    hits + bufs.iter().map(|b| u64::from(b[0])).sum::<u64>()
}

/// 12 000 steps of a match-dispatched update at pseudo-random slots of a
/// 64 Ki-entry table.
fn dispatch(table: &mut [u32], seed: &mut u64) -> u64 {
    let n = table.len();
    let mut acc = 0u64;
    for _ in 0..12_000 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        let i = (*seed as usize) % n;
        let v = table[i];
        let r = match v & 7 {
            0 => v.wrapping_add(3),
            1 => v ^ 0x5a5a,
            2 => v.rotate_left(5),
            3 => v.wrapping_mul(2_654_435_761),
            4 => v >> 1,
            5 => !v,
            6 => v.wrapping_sub(7),
            _ => v | 1,
        };
        table[(i + 1) % n] = r;
        acc = acc.wrapping_add(u64::from(r));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_each_request_with_a_time() {
        let mut answers = Vec::new();
        serve(&b"\n\n\n"[..], &mut answers);
        let times: Vec<f64> = String::from_utf8(answers)
            .unwrap()
            .lines()
            .map(|l| l.parse().unwrap())
            .collect();
        assert_eq!(times.len(), 3);
        assert!(times.iter().all(|&t| t > 0.0), "{times:?}");
    }
}
