//! Error type for the mini-Dalvik VM.

use std::fmt;

/// Errors raised while loading or interpreting Dalvik programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DvmError {
    /// Class lookup failed.
    NoSuchClass(String),
    /// Method lookup failed.
    NoSuchMethod {
        /// Class searched.
        class: String,
        /// Method name requested.
        method: String,
    },
    /// No class has this id (a forged bytecode operand or `jclass`).
    BadClassId(u32),
    /// No method has this id (a forged bytecode operand or `jmethodID`).
    BadMethodId(u32),
    /// Field lookup failed.
    NoSuchField {
        /// Class searched.
        class: String,
        /// Field name requested.
        field: String,
    },
    /// A register value was used as an object reference but is not one.
    NotAReference {
        /// The raw register value.
        value: u32,
    },
    /// An object id did not resolve (freed or never allocated).
    DanglingObject(u32),
    /// An indirect reference did not resolve.
    BadIndirectRef(u32),
    /// The object at hand has the wrong kind for the operation.
    WrongObjectKind {
        /// What the operation needed.
        expected: &'static str,
    },
    /// Array index out of bounds.
    IndexOutOfBounds {
        /// Requested index.
        index: u32,
        /// Array length.
        len: u32,
    },
    /// Field index out of bounds for the instance.
    BadFieldIndex(u32),
    /// A bytecode branch target fell outside the method.
    BadBranchTarget(i32),
    /// Interpreter register index out of the frame's range.
    BadRegister(u16),
    /// Argument count does not match the method's `ins` size.
    ArityMismatch {
        /// Expected argument slots.
        expected: u16,
        /// Provided argument slots.
        got: u16,
    },
    /// Execution exceeded the configured fuel (instruction budget).
    OutOfFuel,
    /// Division by zero in bytecode.
    DivideByZero,
    /// A Java exception propagated out of the outermost frame.
    UncaughtException(String),
    /// The method invoked has no body of the expected kind.
    NotInterpretable(String),
    /// A failure surfaced from the native execution environment.
    NativeFailure(String),
}

impl fmt::Display for DvmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DvmError::NoSuchClass(name) => write!(f, "class not found: {name}"),
            DvmError::NoSuchMethod { class, method } => {
                write!(f, "method not found: {class}.{method}")
            }
            DvmError::BadClassId(id) => write!(f, "no class has id {id}"),
            DvmError::BadMethodId(id) => write!(f, "no method has id {id}"),
            DvmError::NoSuchField { class, field } => {
                write!(f, "field not found: {class}.{field}")
            }
            DvmError::NotAReference { value } => {
                write!(f, "value {value:#x} is not an object reference")
            }
            DvmError::DanglingObject(id) => write!(f, "dangling object id {id}"),
            DvmError::BadIndirectRef(r) => write!(f, "indirect reference {r:#x} does not resolve"),
            DvmError::WrongObjectKind { expected } => {
                write!(f, "object is not a {expected}")
            }
            DvmError::IndexOutOfBounds { index, len } => {
                write!(f, "array index {index} out of bounds (len {len})")
            }
            DvmError::BadFieldIndex(i) => write!(f, "field index {i} out of bounds"),
            DvmError::BadBranchTarget(t) => write!(f, "branch target {t} outside method"),
            DvmError::BadRegister(v) => write!(f, "register v{v} outside frame"),
            DvmError::ArityMismatch { expected, got } => {
                write!(f, "expected {expected} argument slots, got {got}")
            }
            DvmError::OutOfFuel => write!(f, "interpreter fuel exhausted"),
            DvmError::DivideByZero => write!(f, "division by zero"),
            DvmError::UncaughtException(msg) => write!(f, "uncaught exception: {msg}"),
            DvmError::NotInterpretable(what) => write!(f, "cannot interpret {what}"),
            DvmError::NativeFailure(msg) => write!(f, "native execution failed: {msg}"),
        }
    }
}

impl std::error::Error for DvmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_nonempty() {
        let samples: Vec<DvmError> = vec![
            DvmError::NoSuchClass("Lx;".into()),
            DvmError::NoSuchMethod {
                class: "Lx;".into(),
                method: "m".into(),
            },
            DvmError::BadClassId(70),
            DvmError::BadMethodId(70),
            DvmError::NotAReference { value: 7 },
            DvmError::DanglingObject(3),
            DvmError::BadIndirectRef(0xa890_0025),
            DvmError::IndexOutOfBounds { index: 5, len: 2 },
            DvmError::OutOfFuel,
            DvmError::DivideByZero,
        ];
        for e in samples {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<DvmError>();
    }
}
