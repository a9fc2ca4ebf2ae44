#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # ndroid-bench
//!
//! The experiment harness: one `exp` driver whose registry holds every
//! reproduced table and figure of the paper (see DESIGN.md §4's
//! experiment index), plus the benches.
//!
//! | Command               | Reproduces                                      |
//! |-----------------------|-------------------------------------------------|
//! | `exp corpus`          | §III stats + Fig. 2 category distribution       |
//! | `exp case_matrix`     | Table I / Fig. 3 detection matrix               |
//! | `exp case_flows`      | Fig. 3 (a–c) per-case flow logs                 |
//! | `exp tables234`       | Tables II–IV JNI inventory, Tables VI/VII counts |
//! | `exp table5`          | Table V per-instruction propagation check       |
//! | `exp multilevel`      | Fig. 5 multilevel hooking statistics            |
//! | `exp casestudies`     | Figs. 6–9 analysis logs                         |
//! | `exp survey`          | §VI manual survey (8 apps)                      |
//! | `exp monkey`          | §VI / §VII random vs. manual driving            |
//! | `exp protection`      | §VII taint-protection extension                 |
//! | `exp batch`, `exp snapshot` | farm determinism gates                    |
//! | `exp adversarial`     | adversarial corpus score matrix + leak paths    |
//! | `exp provenance`, `exp prov_query` | leak-path and fleet-query transcripts |
//! | `exp cfbench`         | Fig. 10 CF-Bench overheads (timing, no golden)  |
//!
//! `exp check` diffs every experiment but `cfbench` against its golden
//! in `goldens/<name>.txt`; `exp list` prints the registry.
//!
//! Benches (`cargo bench -p ndroid-bench`, each writing
//! `BENCH_<name>.json`): `ablations` (D2 of DESIGN.md: modeled vs.
//! traced `memcpy`), `taint`, `oracle`, `provenance`, `blocks` and
//! `snapshot`. The `pipeline` binary is the end-to-end benchmark
//! (see its README).
