//! Structured analysis trace, reproducing the paper's log output
//! (Figs. 6–9 show excerpts of exactly this kind of log).

use std::fmt;

/// One analysis log event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event category, e.g. `"jni-entry"`, `"hook"`, `"taint"`, `"sink"`.
    pub kind: &'static str,
    /// Human-readable detail line.
    pub text: String,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind, self.text)
    }
}

/// The accumulated analysis trace.
#[derive(Debug, Default, Clone)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
    /// When false, `push` is a no-op (vanilla / benchmark runs).
    pub enabled: bool,
}

impl TraceLog {
    /// An enabled, empty log.
    pub fn new() -> TraceLog {
        TraceLog {
            events: Vec::new(),
            enabled: true,
        }
    }

    /// A disabled log (no recording overhead).
    pub fn disabled() -> TraceLog {
        TraceLog {
            events: Vec::new(),
            enabled: false,
        }
    }

    /// Appends an event (no-op when disabled). `text` is formatted
    /// only when the log records, so a quiet run pays for no trace
    /// formatting: pass `format_args!(..)`, a literal, or a reference.
    pub fn push(&mut self, kind: &'static str, text: impl fmt::Display) {
        if self.enabled {
            self.events.push(TraceEvent {
                kind,
                text: text.to_string(),
            });
        }
    }

    /// All recorded events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Whether any event's text contains `needle`.
    pub fn contains(&self, needle: &str) -> bool {
        self.events.iter().any(|e| e.text.contains(needle))
    }

    /// Renders the whole log, one event per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Bytes rendered as [`String::from_utf8_lossy`] renders them, but only
/// when formatted: pass `Lossy(&payload)` to [`TraceLog::push`] and a
/// disabled log neither validates the payload nor copies it.
#[derive(Debug, Clone, Copy)]
pub struct Lossy<'a>(pub &'a [u8]);

impl fmt::Display for Lossy<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for chunk in self.0.utf8_chunks() {
            f.write_str(chunk.valid())?;
            if !chunk.invalid().is_empty() {
                f.write_str("\u{FFFD}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossy_renders_as_from_utf8_lossy() {
        for bytes in [
            &b"plain"[..],
            b"",
            b"\xFF\x00\x80",
            b"a\xE2\x82b\xF0\x9F\x98\x80",
            "héllo".as_bytes(),
        ] {
            assert_eq!(Lossy(bytes).to_string(), String::from_utf8_lossy(bytes), "{bytes:x?}");
        }
    }

    #[test]
    fn push_and_filter() {
        let mut log = TraceLog::new();
        log.push("jni-entry", "makeLoginRequestPackageMd5");
        log.push("taint", "t(0x4127deb8) := 0x202");
        log.push("jni-entry", "getPostUrl");
        assert_eq!(log.len(), 3);
        assert!(log.contains("0x202"));
        assert!(!log.contains("absent"));
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = TraceLog::disabled();
        log.push("x", "y");
        assert!(log.is_empty());
    }

    #[test]
    fn disabled_log_never_formats() {
        struct Unformattable;
        impl fmt::Display for Unformattable {
            fn fmt(&self, _: &mut fmt::Formatter<'_>) -> fmt::Result {
                panic!("a disabled log formatted its text")
            }
        }
        let mut log = TraceLog::disabled();
        log.push("x", Unformattable);
        log.push("x", format_args!("{}", Unformattable));
        assert!(log.is_empty());
    }

    #[test]
    fn render_lines() {
        let mut log = TraceLog::new();
        log.push("hook", "NewStringUTF Begin");
        log.push("hook", "NewStringUTF End");
        let s = log.render();
        assert_eq!(s.lines().count(), 2);
        assert!(s.starts_with("[hook] NewStringUTF Begin"));
    }
}
