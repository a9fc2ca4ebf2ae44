//! `cfbench`: the 13 Fig. 10 kernels (8 native, 5 Java), NDroid mode,
//! provenance off, on warm systems booted in set-up. Time goes to the
//! ARM blocks, the tracer, the shadow map and the Table VI models
//! (MALLOCS, disk); Java kernels exercise only the `dvm` interpreter.
//! There is no boot, JNI or provenance in the timed loop.
//!
//! One operation is a suite pass: every kernel once, at pinned iteration
//! counts that give each native kernel about the same time (no native
//! kernel above 30% of native time).

use std::time::{Duration, Instant};

use ndroid_cfbench::kernels::native_kernel_code;
use ndroid_cfbench::{all_kernels, Kernel, KernelKind};
use ndroid_core::{Mode, NDroidSystem, SystemConfig};
use ndroid_dvm::Taint;

use crate::common::{
    layer_table, paired, per_layer, timed_setups, trials, write_spans, Checks, Counters, Metric,
    Opts, Outcome, Series, Trial,
};
use crate::host::HostSpeed;
use crate::trace::{Layer, Tracer};

/// A kernel's pinned iteration count and the guest instructions and
/// bytecodes one call at that count retires.
#[derive(Debug, Clone, Copy)]
pub struct Pinned {
    /// CF-Bench row name.
    pub name: &'static str,
    /// Iterations per call.
    pub iters: u32,
    /// Guest instructions one call retires.
    pub insns: u64,
    /// Bytecodes one call interprets.
    pub bytecodes: u64,
    /// The Java method behind a Java kernel.
    pub method: &'static str,
}

/// Pinned counts, in Fig. 10 row order (`all_kernels`).
pub const PINNED: [Pinned; 13] = [
    Pinned {
        name: "Native MIPS",
        iters: 360,
        insns: 2883,
        bytecodes: 0,
        method: "",
    },
    Pinned {
        name: "Java MIPS",
        iters: 1000,
        insns: 0,
        bytecodes: 6002,
        method: "mips",
    },
    Pinned {
        name: "Native MSFLOPS",
        iters: 500,
        insns: 2507,
        bytecodes: 0,
        method: "",
    },
    Pinned {
        name: "Java MSFLOPS",
        iters: 2400,
        insns: 0,
        bytecodes: 12002,
        method: "flops",
    },
    Pinned {
        name: "Native MDFLOPS",
        iters: 470,
        insns: 2359,
        bytecodes: 0,
        method: "",
    },
    Pinned {
        name: "Java MDFLOPS",
        iters: 1600,
        insns: 0,
        bytecodes: 8002,
        method: "flops",
    },
    Pinned {
        name: "Native MALLOCS",
        iters: 260,
        insns: 1823,
        bytecodes: 0,
        method: "",
    },
    Pinned {
        name: "Native Memory Read",
        iters: 600,
        insns: 3003,
        bytecodes: 0,
        method: "",
    },
    Pinned {
        name: "Java Memory Read",
        iters: 2000,
        insns: 0,
        bytecodes: 12005,
        method: "memRead",
    },
    Pinned {
        name: "Native Memory Write",
        iters: 600,
        insns: 3004,
        bytecodes: 0,
        method: "",
    },
    Pinned {
        name: "Java Memory Write",
        iters: 2300,
        insns: 0,
        bytecodes: 11505,
        method: "memWrite",
    },
    Pinned {
        name: "Native Disk Read",
        iters: 40,
        insns: 331,
        bytecodes: 0,
        method: "",
    },
    Pinned {
        name: "Native Disk Write",
        iters: 100,
        insns: 811,
        bytecodes: 0,
        method: "",
    },
];

/// The kernels' configuration: NDroid, provenance off, quiet.
pub fn config() -> SystemConfig {
    SystemConfig::new(Mode::NDroid).quiet(true)
}

/// Set-up: every kernel's system booted and warmed by one call.
struct Suite {
    kernels: Vec<Kernel>,
    systems: Vec<NDroidSystem>,
}

fn boot(
    kernels: &[Kernel],
    config: &SystemConfig,
    mut tr: Option<&mut Tracer>,
) -> Vec<NDroidSystem> {
    kernels
        .iter()
        .map(|k| match tr.as_deref_mut() {
            Some(t) => t.rec.span(Layer::Boot, || k.boot_with(config.clone())),
            None => k.boot_with(config.clone()),
        })
        .collect()
}

fn setup(config: &SystemConfig) -> Suite {
    let kernels = all_kernels();
    let mut systems = boot(&kernels, config, None);
    for (k, (kernel, sys)) in kernels.iter().zip(systems.iter_mut()).enumerate() {
        kernel.run(sys, PINNED[k].iters);
    }
    Suite { kernels, systems }
}

/// Native kernel entry points: the lowest-addressed block each kernel
/// leaves in the block cache of a fresh system (every kernel's code is
/// contiguous and starts at its entry label). Java kernels get 0.
fn native_entries(kernels: &[Kernel], config: &SystemConfig) -> Vec<u32> {
    let code = native_kernel_code();
    kernels
        .iter()
        .map(|k| {
            if k.kind != KernelKind::Native {
                return 0;
            }
            let mut sys = k.boot_with(config.clone());
            k.run(&mut sys, 1);
            (code.base..code.end())
                .step_by(4)
                .find(|&a| sys.blocks.lookup(&sys.mem, a, false).is_some())
                .unwrap_or(0)
        })
        .collect()
}

/// One kernel call, untraced (`Kernel::run`) or through the tracer.
fn call(
    k: usize,
    kernel: &Kernel,
    sys: &mut NDroidSystem,
    entry: u32,
    tr: Option<&mut Tracer>,
) -> Result<(), String> {
    let pin = PINNED[k];
    match tr {
        None => {
            kernel.run(sys, pin.iters);
            Ok(())
        }
        Some(t) => {
            // The same budget refills `Kernel::run` makes.
            sys.budget = u64::MAX / 2;
            if kernel.kind == KernelKind::Native {
                t.run_native(sys, entry, &[pin.iters])
                    .map(drop)
                    .map_err(|e| e.to_string())
            } else {
                sys.dvm.fuel = u64::MAX / 2;
                t.run_java(
                    sys,
                    "Lbench/Java;",
                    pin.method,
                    &[(pin.iters, Taint::CLEAR)],
                )
                .map(drop)
                .map_err(|e| e.to_string())
            }
        }
    }
}

/// Checks one call's retired work against the pinned counts.
fn check_call(checks: &mut Checks, k: usize, work: Counters, result: Result<(), String>) {
    let pin = PINNED[k];
    checks.check(
        result.is_ok() && work.insns == pin.insns && work.bytecodes == pin.bytecodes,
        || {
            format!(
                "{}: retired {} insns / {} bytecodes, pinned {} / {} ({result:?})",
                pin.name, work.insns, work.bytecodes, pin.insns, pin.bytecodes
            )
        },
    );
}

/// Per-pass time split by kernel kind.
#[derive(Default)]
struct PassTime {
    native_s: f64,
    java_s: f64,
    native_insns: u64,
    bytecodes: u64,
}

/// One untimed-bookkeeping suite pass over `systems`; returns its time.
fn pass(
    suite_kernels: &[Kernel],
    systems: &mut [NDroidSystem],
    entries: &[u32],
    mut tr: Option<&mut Tracer>,
    checks: &mut Checks,
    split: &mut PassTime,
    counters: &mut Counters,
) -> f64 {
    let mut total = 0.0;
    for (k, (kernel, sys)) in suite_kernels.iter().zip(systems.iter_mut()).enumerate() {
        let before = Counters::of(sys);
        let t0 = Instant::now();
        let entry = entries.get(k).copied().unwrap_or(0);
        let result = call(k, kernel, sys, entry, tr.as_deref_mut());
        let dt = t0.elapsed().as_secs_f64();
        let work = Counters::of(sys).since(before);
        total += dt;
        if kernel.kind == KernelKind::Native {
            split.native_s += dt;
            split.native_insns += work.insns;
        } else {
            split.java_s += dt;
            split.bytecodes += work.bytecodes;
        }
        counters.add(work);
        check_call(checks, k, work, result);
    }
    total
}

fn check_names(checks: &mut Checks, kernels: &[Kernel]) {
    let names: Vec<&str> = kernels.iter().map(|k| k.name).collect();
    let pinned: Vec<&str> = PINNED.iter().map(|p| p.name).collect();
    checks.check(names == pinned, || {
        format!("kernel list {names:?} differs from the pinned {pinned:?}")
    });
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let config = config();
    let mut out = Outcome::default();
    let (mut suite, setup_s) = timed_setups(opts, || setup(&config));
    check_names(&mut out.checks, &suite.kernels);
    if opts.trace {
        trace(opts, &config, suite, &mut out);
        return out;
    }
    let mut cal = HostSpeed::new(opts);
    let mut series = Series::default();
    let (mut guest_mips, mut bytecode_mips) = (Vec::new(), Vec::new());
    let mut counters = Counters::default();
    trials(opts, |trial| {
        let mut t = Trial::default();
        let mut split = PassTime::default();
        let t_phase = Instant::now();
        while t.samples() < opts.min_samples() || t_phase.elapsed() < opts.slice() {
            cal.tick();
            let secs = pass(
                &suite.kernels,
                &mut suite.systems,
                &[],
                None,
                &mut out.checks,
                &mut split,
                &mut counters,
            );
            t.op(Duration::from_secs_f64(secs), cal.scale());
        }
        let host = cal.take_overall();
        if trial.is_some() {
            series.add(&t, host, opts.smoke);
            guest_mips.push(split.native_insns as f64 / (split.native_s * 1e6));
            bytecode_mips.push(split.bytecodes as f64 / (split.java_s * 1e6));
        }
    });
    for (kernel, sys) in suite.kernels.iter().zip(&suite.systems) {
        out.checks.check(sys.leaks().is_empty(), || {
            format!("{}: clean kernel leaked", kernel.name)
        });
    }
    out.metrics = series.end_to_end(&setup_s);
    out.detail = series.detail(("passes_per_s", "1/s"), "pass");
    out.detail.extend([
        Metric::trials("raw.guest_mips", "insn/us", &guest_mips),
        Metric::trials("raw.bytecode_mips", "bc/us", &bytecode_mips),
    ]);
    out
}

/// The trace run: a second set of systems booted under the trace, then
/// suite passes on both sets in pairs; at the end each kernel's traced
/// system must report exactly what its untraced twin does. Also times
/// the same passes on Vanilla systems for the Fig. 10 ratio.
fn trace(opts: &Opts, config: &SystemConfig, mut plain: Suite, out: &mut Outcome) {
    let entries = native_entries(&plain.kernels, config);
    let mut tracer = Tracer::new();
    let t0 = Instant::now();
    let mut traced = boot(&plain.kernels, config, Some(&mut tracer));
    let boot_traced = t0.elapsed().as_nanos() as u64;
    let mut vanilla = boot(&plain.kernels, &config.clone().mode(Mode::Vanilla), None);
    let mut counters = Counters::default();
    let (mut ndroid_s, mut vanilla_s) = (0.0, 0.0);
    let checks = &mut out.checks;
    let kernels = &plain.kernels;
    // Bring the traced set level with the warmed untraced one.
    let mut warm = PassTime::default();
    pass(
        kernels,
        &mut traced,
        &entries,
        None,
        checks,
        &mut warm,
        &mut Counters::default(),
    );
    pass(
        kernels,
        &mut vanilla,
        &entries,
        None,
        &mut Checks::default(),
        &mut warm,
        &mut Counters::default(),
    );
    let mut pass_out = paired(
        opts,
        &mut tracer,
        1,
        |_, tr| {
            let mut split = PassTime::default();
            let mut work = Counters::default();
            let mut local = Checks::default();
            let systems = if tr.is_some() {
                &mut traced
            } else {
                &mut plain.systems
            };
            let t = pass(
                kernels, systems, &entries, tr, &mut local, &mut split, &mut work,
            );
            (t, work, local)
        },
        |_, (u, _, u_checks), (_, work, t_checks)| {
            counters.add(work);
            checks.absorb(u_checks);
            checks.absorb(t_checks);
            // The Fig. 10 ratio, interleaved with the NDroid pass.
            let t0 = Instant::now();
            pass(
                kernels,
                &mut vanilla,
                &entries,
                None,
                &mut Checks::default(),
                &mut PassTime::default(),
                &mut Counters::default(),
            );
            vanilla_s += t0.elapsed().as_secs_f64();
            ndroid_s += u;
        },
    );
    for (k, kernel) in kernels.iter().enumerate() {
        let same = plain.systems[k].report() == traced[k].report();
        checks.check(same, || {
            format!("{}: traced report differs from untraced", kernel.name)
        });
    }
    pass_out.traced_ns += boot_traced;
    pass_out.counters = counters;
    out.metrics = per_layer(&tracer.rec, &pass_out);
    out.detail = vec![
        Metric::value("traced_ops", "count", pass_out.ops as f64),
        Metric::value("core.tracer_overhead_x", "x", ndroid_s / vanilla_s),
    ];
    println!("{}", layer_table(&tracer.rec, &pass_out));
    write_spans(opts, &tracer.rec);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_counts_hold_for_one_call_of_each_kernel() {
        let config = config();
        let kernels = all_kernels();
        let entries = native_entries(&kernels, &config);
        let mut checks = Checks::default();
        check_names(&mut checks, &kernels);
        for (k, kernel) in kernels.iter().enumerate() {
            for traced in [false, true] {
                let mut sys = kernel.boot_with(config.clone());
                let mut tracer = Tracer::new();
                let before = Counters::of(&sys);
                let result = call(
                    k,
                    kernel,
                    &mut sys,
                    entries[k],
                    traced.then_some(&mut tracer),
                );
                check_call(&mut checks, k, Counters::of(&sys).since(before), result);
            }
        }
        assert_eq!(checks.failed, 0, "{:?}", checks.notes);
        // Native entries are distinct and ascending; Java kernels have none.
        let native: Vec<u32> = entries.iter().copied().filter(|&e| e != 0).collect();
        assert_eq!(native.len(), 8);
        assert!(native.windows(2).all(|w| w[0] < w[1]), "{native:x?}");
    }
}
