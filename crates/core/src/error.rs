//! Typed errors for the fallible configuration surface.
//!
//! Historically every environment knob in this crate failed *loudly*: a
//! misspelt `PB_ALGORITHM` or `PB_SIMD` in a CI mode must abort the test
//! suite, not silently fall back to a default — so [`SpGemm::from_env`]
//! and [`simd::active`] panic on unrecognised names.  That contract is
//! right for batch tools and wrong for a resident service: a long-lived
//! `pb-spgemm-serve` process must *reject* a bad environment or request
//! and keep serving, not die.
//!
//! [`PbError`] is the typed error those callers need.  The panicking
//! entry points still exist (and still panic, with the same messages, by
//! unwrapping these errors), so batch behaviour is unchanged; services
//! and the CLI call the `try_*` variants and map the error to a response
//! or an exit code:
//!
//! * [`Algorithm::from_env`](crate::Algorithm::from_env) /
//!   [`SpGemm::try_from_env`](crate::SpGemm::try_from_env) — `PB_ALGORITHM`;
//! * [`simd::try_env_isa`](crate::simd::try_env_isa) — `PB_SIMD`;
//! * [`TiledConfig::from_env`](crate::tiled::TiledConfig::from_env) —
//!   `PB_OOC_BUDGET_MB`, the out-of-core tile-store byte budget;
//! * [`validate_env`] — all of the above in one call, for process startup.
//!
//! [`SpGemm::from_env`]: crate::SpGemm::from_env
//! [`simd::active`]: crate::simd::active

use std::fmt;

/// A typed configuration / environment error.
#[derive(Debug)]
pub enum PbError {
    /// An environment variable holds a value the parser rejects.
    InvalidEnv {
        /// The variable name (`PB_ALGORITHM`, `PB_SIMD`, …).
        var: &'static str,
        /// The offending value, verbatim.
        value: String,
        /// What the parser accepts, for the error message.
        expected: &'static str,
    },
    /// A configuration value (from a file, a flag, or a service request)
    /// is out of range or malformed.
    InvalidConfig(String),
    /// An underlying I/O failure (binding a listener, reading a file).
    Io(std::io::Error),
    /// A matrix could not be loaded, decoded or validated (wraps the
    /// sparse substrate's typed error — malformed Matrix Market text, a
    /// truncated binary file, a shape mismatch, …).
    Matrix(pb_sparse::SparseError),
}

impl fmt::Display for PbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Keep the historical panic wording ("unrecognised VAR=value")
            // so the loud batch-mode failures read exactly as before.
            PbError::InvalidEnv {
                var,
                value,
                expected,
            } => {
                write!(f, "unrecognised {var}={value} (expected {expected})")
            }
            PbError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            PbError::Io(e) => write!(f, "i/o error: {e}"),
            PbError::Matrix(e) => write!(f, "matrix error: {e}"),
        }
    }
}

impl std::error::Error for PbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PbError::Io(e) => Some(e),
            PbError::Matrix(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PbError {
    fn from(e: std::io::Error) -> Self {
        PbError::Io(e)
    }
}

impl From<pb_sparse::SparseError> for PbError {
    fn from(e: pb_sparse::SparseError) -> Self {
        PbError::Matrix(e)
    }
}

/// Validates every `PB_*` environment knob this crate reads, without
/// caching or acting on any of them: `PB_ALGORITHM`, `PB_SIMD` and
/// `PB_OOC_BUDGET_MB`.  Unset variables are fine; set-but-unparseable ones
/// return the first error.  A resident service calls this once at startup
/// so a broken environment is a clean refusal instead of a later panic.
pub fn validate_env() -> Result<(), PbError> {
    crate::engine::Algorithm::from_env()?;
    crate::simd::try_env_isa()?;
    crate::tiled::TiledConfig::from_env()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_the_historical_panic_wording() {
        let e = PbError::InvalidEnv {
            var: "PB_ALGORITHM",
            value: "quantum".into(),
            expected: "auto|pb|heap|…",
        };
        let msg = e.to_string();
        assert!(msg.contains("unrecognised PB_ALGORITHM=quantum"));
        assert!(msg.contains("expected"));
    }

    #[test]
    fn io_errors_wrap_with_a_source() {
        let e = PbError::from(std::io::Error::new(
            std::io::ErrorKind::AddrInUse,
            "port taken",
        ));
        assert!(e.to_string().contains("port taken"));
        assert!(std::error::Error::source(&e).is_some());
        let c = PbError::InvalidConfig("budget must be positive".into());
        assert!(c.to_string().contains("budget"));
        assert!(std::error::Error::source(&c).is_none());
    }
}
