#![warn(missing_docs)]

//! # ndroid-bench
//!
//! The experiment harness: one binary per table/figure of the paper
//! (see DESIGN.md's experiment index) plus Criterion benches.
//!
//! | Binary            | Reproduces                                   |
//! |-------------------|----------------------------------------------|
//! | `exp_corpus`      | §III stats + Fig. 2 category distribution     |
//! | `exp_case_matrix` | Table I / Fig. 3 detection matrix             |
//! | `exp_casestudies` | Figs. 6–9 analysis logs                       |
//! | `exp_survey`      | §VI manual survey (8 apps)                    |
//! | `exp_multilevel`  | Fig. 5 multilevel hooking statistics          |
//! | `exp_table5`      | Table V per-instruction propagation check     |
//! | `exp_cfbench`     | Fig. 10 CF-Bench overheads                    |
//!
//! Criterion benches: `cfbench` (per-kernel wall time under each mode)
//! and `ablations` (design-decision knobs D1/D2 of DESIGN.md).

/// Formats a percentage for the experiment tables.
pub fn pct(n: usize, total: usize) -> String {
    format!("{:.2}%", 100.0 * n as f64 / total.max(1) as f64)
}

#[cfg(test)]
mod tests {
    #[test]
    fn pct_formats() {
        assert_eq!(super::pct(1, 4), "25.00%");
        assert_eq!(super::pct(0, 0), "0.00%");
    }
}
