//! Error type for the emulator runtime.

use ndroid_arm::ArmError;
use ndroid_dvm::DvmError;
use std::fmt;

/// Errors raised while running guest code under the emulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmuError {
    /// An ARM-level failure (decode, execute).
    Arm(ArmError),
    /// A DVM-level failure surfaced through a JNI boundary.
    Dvm(DvmError),
    /// The guest executed more instructions than the configured budget.
    Timeout,
    /// A host function failed.
    Host {
        /// The host function's registered name.
        name: String,
        /// Why it failed.
        source: Box<EmuError>,
    },
    /// Bad file descriptor or kernel-object misuse.
    Kernel(String),
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::Arm(e) => write!(f, "arm: {e}"),
            EmuError::Dvm(e) => write!(f, "dvm: {e}"),
            EmuError::Timeout => write!(f, "guest exceeded instruction budget"),
            EmuError::Host { name, source } => write!(f, "host fn {name}: {source}"),
            EmuError::Kernel(msg) => write!(f, "kernel: {msg}"),
        }
    }
}

impl std::error::Error for EmuError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EmuError::Arm(e) => Some(e),
            EmuError::Dvm(e) => Some(e),
            EmuError::Host { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl EmuError {
    /// Whether the root cause is an exhausted budget — the guest
    /// instruction budget ([`EmuError::Timeout`]) or the interpreter's
    /// fuel — seen through the host-function and DVM wrappers. The
    /// batch farm classifies such a job as a deadline.
    pub fn is_budget_exhausted(&self) -> bool {
        match self {
            EmuError::Timeout => true,
            EmuError::Dvm(e) => e.is_budget_exhausted(),
            EmuError::Host { source, .. } => source.is_budget_exhausted(),
            _ => false,
        }
    }
}

impl From<ArmError> for EmuError {
    fn from(e: ArmError) -> EmuError {
        EmuError::Arm(e)
    }
}

impl From<DvmError> for EmuError {
    fn from(e: DvmError) -> EmuError {
        EmuError::Dvm(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: EmuError = ArmError::Unmapped { addr: 4 }.into();
        assert!(e.to_string().contains("arm:"));
        let e: EmuError = DvmError::OutOfFuel.into();
        assert!(e.to_string().contains("dvm:"));
        assert!(!EmuError::Timeout.to_string().is_empty());
        use std::error::Error;
        assert!(EmuError::Arm(ArmError::Unmapped { addr: 4 }).source().is_some());
        assert!(EmuError::Kernel("x".into()).source().is_none());
    }
}
