//! Host speed, measured by a fixed calibration unit that a child process
//! runs between the workload's operations.
//!
//! On a shared host the same single-threaded loop runs up to 40% slower
//! for tens of seconds while neighbours are busy (cold-app throughput
//! swung between 4000 and 7900 apps/s within one minute), so raw timings
//! cannot gate a change. Every [`CAL_PERIOD`], outside timed regions, the
//! run asks the `calibrate` binary (`calibrate.rs`, built beside
//! `pipeline`) to time one unit and waits for the answer. Each operation's
//! time is multiplied by `(CAL_REF_NS / c)^ELASTICITY`, `c` being the
//! median of the last three units: a time at reference host speed. Raw
//! values are printed beside the scaled ones. Smoke runs start no child
//! and use a scale of 1.
//!
//! The yardstick stays independent of the code it judges. It runs in its
//! own process, so heap growth, fragmentation or a bigger cache in this
//! one cannot slow it; it links none of the code under test, so its
//! machine code does not move when that code changes; and it runs on the
//! CPU this thread runs on: the two vCPUs of a shared VM slow down
//! independently, and over 20 s a child left to the scheduler tracked the
//! workload's speed with a correlation of 0.13, against 0.996 on the same
//! CPU.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::common::Opts;
use crate::stats;

/// Calibration-unit time on a quiet 2-vCPU Xeon VM (the fastest 5% of
/// units over 30 s on either CPU); it only sets the scale, so that scaled
/// and raw times agree on a quiet host.
pub const CAL_REF_NS: f64 = 392_000.0;
/// How much more than the unit the workloads slow under contention: the
/// log-log slope of operation time against unit time was 1.16–1.19 on all
/// three workloads over 150 s of interleaved operations and units. With
/// 1.2 instead of 1, the largest run-to-run spread over 20 runs a workload
/// fell from 7.1% to 4.0%, and the largest shift between two sets of ten
/// from 5.2% to 1.8%.
const ELASTICITY: f64 = 1.2;
/// Wall time between calibration units.
const CAL_PERIOD: Duration = Duration::from_millis(15);
/// Calibration units the current scale is the median of.
const RECENT: usize = 3;

/// The calibration child and the pipes to it.
struct Calibrator {
    process: Child,
    ask: Option<ChildStdin>,
    answer: BufReader<ChildStdout>,
}

impl Calibrator {
    fn start() -> Calibrator {
        let exe = std::env::current_exe()
            .expect("path of the running benchmark")
            .with_file_name(format!("calibrate{}", std::env::consts::EXE_SUFFIX));
        let mut process = Command::new(&exe)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| {
                panic!(
                    "cannot start {}: {e}; build the package's binaries with run.sh",
                    exe.display()
                )
            });
        let ask = process.stdin.take();
        let answer = BufReader::new(process.stdout.take().expect("piped stdout"));
        Calibrator {
            process,
            ask,
            answer,
        }
    }

    /// Asks for one unit on this thread's CPU and returns its nanoseconds.
    fn unit_ns(&mut self) -> f64 {
        let ask = self.ask.as_mut().expect("open pipe");
        let cpu = current_cpu().map_or(String::new(), |c| c.to_string());
        ask.write_all(format!("{cpu}\n").as_bytes())
            .and_then(|()| ask.flush())
            .expect("ask the calibration child");
        let mut line = String::new();
        self.answer
            .read_line(&mut line)
            .expect("read the calibration child");
        line.trim()
            .parse()
            .unwrap_or_else(|_| panic!("calibration child answered {line:?} (exited?)"))
    }
}

impl Drop for Calibrator {
    /// Closing the request pipe ends the child; wait until it has.
    fn drop(&mut self) {
        drop(self.ask.take());
        let _ = self.process.wait();
    }
}

/// Calibration state and the samples taken so far.
pub struct HostSpeed {
    child: Option<Calibrator>,
    last: Instant,
    recent: Vec<f64>,
    all: Vec<f64>,
}

impl HostSpeed {
    /// A calibration with no samples yet; starts the child unless `opts`
    /// is a smoke run.
    pub fn new(opts: &Opts) -> HostSpeed {
        HostSpeed {
            child: (!opts.smoke).then(Calibrator::start),
            last: Instant::now(),
            recent: Vec::with_capacity(RECENT),
            all: Vec::new(),
        }
    }

    /// Times one calibration unit.
    pub fn sample(&mut self) {
        let ns = self.child.as_mut().map_or(CAL_REF_NS, Calibrator::unit_ns);
        if self.recent.len() == RECENT {
            self.recent.remove(0);
        }
        self.recent.push(ns);
        self.all.push(ns);
        self.last = Instant::now();
    }

    /// Times one unit if [`CAL_PERIOD`] has passed since the last one.
    /// Call between operations, outside any timed region.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= CAL_PERIOD {
            self.sample();
        }
    }

    /// The current scale (from the last few units): multiply times by it,
    /// divide rates by it.
    pub fn scale(&mut self) -> f64 {
        if self.recent.is_empty() {
            self.sample();
        }
        (CAL_REF_NS / stats::median(&self.recent)).powf(ELASTICITY)
    }

    /// The scale over every unit since the last call, for reporting how
    /// fast the host was.
    pub fn take_overall(&mut self) -> f64 {
        if self.all.is_empty() {
            self.sample();
        }
        let scale = (CAL_REF_NS / stats::median(&self.all)).powf(ELASTICITY);
        self.all.clear();
        scale
    }
}

/// The CPU the calling thread runs on.
#[cfg(target_os = "linux")]
fn current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> std::ffi::c_int;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only reports the
    // calling thread's CPU.
    let cpu = unsafe { sched_getcpu() };
    usize::try_from(cpu).ok()
}

/// Elsewhere the child stays where the scheduler puts it.
#[cfg(not(target_os = "linux"))]
fn current_cpu() -> Option<usize> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_smoke_run_has_unit_scale_and_no_child() {
        let opts = Opts {
            seed: 1,
            seconds: 1.0,
            trace: false,
            smoke: true,
            spans: None,
        };
        let mut h = HostSpeed::new(&opts);
        assert!(h.child.is_none());
        assert_eq!(h.scale(), 1.0);
        for _ in 0..5 {
            h.sample();
        }
        assert_eq!(h.recent.len(), RECENT);
        assert_eq!(h.all.len(), 6);
        assert_eq!(h.take_overall(), 1.0);
        assert!(h.all.is_empty());
    }
}
