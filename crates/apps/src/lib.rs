#![warn(missing_docs)]

//! # ndroid-apps
//!
//! The application workloads of the NDroid evaluation (§IV and §VI):
//!
//! * [`cases`] — one app per information-flow scenario of Table I /
//!   Fig. 3 (cases 1, 1′, 2, 3, 4), each combining Dalvik bytecode with
//!   genuine assembled ARM native code.
//! * [`qq_phonebook`] — the QQPhoneBook 3.5 flow of Fig. 6 (Case 1′).
//! * [`ephone`] — the ePhone 3.3 flow of Fig. 7 (Case 2).
//! * [`poc_case2`] / [`poc_case3`] — the two proof-of-concept apps of
//!   Figs. 8 and 9.
//! * [`benign`] — apps that use JNI heavily but leak nothing (false
//!   positive checks).
//! * [`survey`] — the eight manually-driven apps of §VI (three deliver
//!   contacts/SMS to native code; one, ePhone, leaks).

pub mod adversarial;
pub mod benign;
pub mod builder;
pub mod cases;
pub mod crypto_hider;
pub mod driver;
pub mod farm;
pub mod dyndex;
pub mod ephone;
pub mod poc_case2;
pub mod poc_case3;
pub mod pure_native;
pub mod qq_phonebook;
pub mod survey;
pub mod synth;
pub mod testutil;
pub mod thumb_spy;

pub use builder::{App, AppBuilder, NamedApp};

/// Every leak-scenario app, with its case label and the taint its leak
/// should carry.
pub fn all_case_apps() -> Vec<(&'static str, App, ndroid_dvm::Taint)> {
    use ndroid_dvm::Taint;
    vec![
        ("case1", cases::case1(), Taint::IMEI),
        ("case1'", cases::case1_prime(), Taint::IMEI),
        ("case1'-cb", cases::case1_prime_callback(), Taint::IMEI),
        ("case2", cases::case2(), Taint::CONTACTS),
        ("case3", cases::case3(), Taint::IMEI),
        ("case4", cases::case4(), Taint::SMS),
    ]
}
