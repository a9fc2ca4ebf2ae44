#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # ndroid-corpus
//!
//! The large-scale app-market study of §III: classification of
//! 227,911 apps into the three JNI-usage types, the Type-I category
//! distribution (Fig. 2), and the native-library statistics.
//!
//! **Substitution note** (see DESIGN.md): the original corpus was
//! crawled from the Google Play market over Jun. 2012 – Jun. 2013 and
//! is proprietary. What *is* reproducible is the analysis pipeline —
//! so [`generator`] synthesizes a corpus of raw [`AppRecord`]s whose
//! marginals are calibrated to the paper's published aggregates, and
//! [`classifier`] re-derives every §III number from the raw records
//! exactly as the original tooling did from APKs.

pub mod classifier;
pub mod generator;
pub mod record;

pub use classifier::{classify, Section3Stats};
pub use generator::{generate, CorpusConfig};
pub use record::{AppRecord, Category, JniType};
