//! Gallery-level differential oracle: each gallery app runs twice —
//! once under the optimized NDroid engine (handler cache + decoded-
//! instruction cache) and once with the reference engine substituted
//! (`SystemConfig::reference()`: straight-line `ref_propagate`, no
//! caches) — and the externally observable [`RunReport`]s must match:
//! leak events (sink, destination, payload, taint label, context), the
//! kernel's network log, protection violations, and work counters.
//!
//! This closes the gap the pure-native property suite cannot cover:
//! JNI marshalling, source policies, host-modeled libc functions and
//! sinks all read the *shared* shadow state, so an optimized-tracer
//! bug anywhere on those paths shows up as a report diff here.

use ndroid_apps::testutil::assert_reports_match;
use ndroid_apps::{crypto_hider, qq_phonebook, thumb_spy};
use ndroid_dvm::Taint;

#[test]
fn qq_phonebook_reports_match_reference() {
    // And the pinned leak survives under the reference engine too.
    let report = assert_reports_match(qq_phonebook::qq_phonebook, "qq_phonebook");
    let leaks = report.leaks();
    assert_eq!(leaks.len(), 1);
    assert_eq!(leaks[0].sink, "HttpClient.post");
    assert_eq!(leaks[0].dest, "sync.3g.qq.com");
    assert_eq!(leaks[0].taint, Taint::CONTACTS | Taint::SMS);
}

#[test]
fn thumb_spy_reports_match_reference() {
    let report = assert_reports_match(thumb_spy::thumb_spy, "thumb_spy");
    let leaks = report.leaks();
    assert_eq!(leaks.len(), 1);
    assert_eq!(*leaks[0].data, *b"Vincent");
    assert_eq!(leaks[0].taint, Taint::CONTACTS);
}

#[test]
fn crypto_hider_reports_match_reference() {
    let report = assert_reports_match(crypto_hider::crypto_hider, "crypto_hider");
    let leaks = report.leaks();
    assert_eq!(leaks.len(), 1);
    assert_eq!(leaks[0].taint, Taint::CONTACTS);
}
