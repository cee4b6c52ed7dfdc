//! Error type shared by every analysis in the crate.

use std::fmt;

/// Errors produced while building a [`crate::Netlist`] or running an
/// analysis on it.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A device was given a non-positive or non-finite component value.
    InvalidValue {
        /// Device name as given to the netlist builder.
        device: String,
        /// Human-readable description of the offending parameter.
        what: String,
    },
    /// The MNA matrix is singular on every rung of the rescue ladder
    /// (typically a loop of ideal voltage sources, which no gmin shunt
    /// regularizes).
    SingularMatrix {
        /// Row index at which elimination found no usable pivot.
        pivot_row: usize,
        /// Name of the unknown at that row (a node name or a branch
        /// current), when the failing netlist is available to resolve it.
        unknown: Option<String>,
    },
    /// The netlist was rejected by pre-flight static analysis (ERC)
    /// before any solve was attempted.
    PreflightRejected {
        /// Stable diagnostic code of the first error-severity finding
        /// (e.g. `ERC001`).
        code: String,
        /// Human-readable description carried over from the diagnostic.
        what: String,
    },
    /// The Newton iteration failed to converge even after gmin and source
    /// stepping.
    NoConvergence {
        /// Newton iterations the failed solve ran, over every stage
        /// and (under [`crate::newton::solve_with_retry`]) every attempt.
        iterations: usize,
        /// Residual infinity-norm at the point of giving up.
        residual: f64,
    },
    /// A transient analysis was asked for a non-positive time step or
    /// stop time.
    InvalidTimeAxis(String),
    /// An analysis was asked to sweep an empty set of points.
    EmptySweep,
    /// A block partition handed to the hierarchical Schur solver does
    /// not describe the netlist: wrong dimension, malformed block
    /// layout, or a device coupling two distinct blocks.
    InvalidPartition(String),
    /// A campaign worker panicked while evaluating this point; the
    /// panic was caught by the executor's per-point isolation and the
    /// point recorded as lost instead of aborting the campaign.
    Panicked {
        /// The panic message, when the payload was a string.
        what: String,
    },
}

impl Error {
    /// Whether a retry with escalated solver options
    /// ([`crate::newton::solve_with_retry`]) can plausibly rescue this
    /// failure.
    ///
    /// Convergence failures and singular matrices are retryable: both
    /// can be artifacts of the iteration (a bad starting point, a
    /// Jacobian momentarily singular along the Newton path) rather
    /// than of the circuit. Structural errors — invalid values, bad
    /// time axes, empty sweeps — are deterministic and retrying cannot
    /// change them.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            Error::NoConvergence { .. } | Error::SingularMatrix { .. }
        )
    }

    /// Whether a campaign executor should record this failure as a
    /// per-point casualty and keep going, rather than abort the whole
    /// campaign. Every retryable error qualifies, and so does a
    /// pre-flight ERC rejection: the netlist is broken at that one grid
    /// point (e.g. an injected disconnect), not the campaign itself.
    /// A caught worker panic is likewise a per-point casualty: the one
    /// grid point is lost, the campaign is not.
    pub fn is_recordable(&self) -> bool {
        self.is_retryable()
            || matches!(
                self,
                Error::PreflightRejected { .. } | Error::Panicked { .. }
            )
    }

    /// Whether this error records a caught worker panic — the
    /// `panicked` marker campaign failure records carry.
    pub fn is_panic(&self) -> bool {
        matches!(self, Error::Panicked { .. })
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidValue { device, what } => {
                write!(f, "invalid value for device `{device}`: {what}")
            }
            Error::SingularMatrix { pivot_row, unknown } => match unknown {
                Some(name) => write!(
                    f,
                    "singular MNA matrix (no pivot at row {pivot_row}); \
                     typically a loop of voltage sources, else a floating \
                     node; check {name}"
                ),
                None => write!(f, "singular MNA matrix (no pivot at row {pivot_row})"),
            },
            Error::PreflightRejected { code, what } => {
                write!(f, "rejected by pre-flight ERC ({code}): {what}")
            }
            Error::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "newton iteration did not converge after {iterations} iterations \
                 (residual {residual:.3e})"
            ),
            Error::InvalidTimeAxis(what) => write!(f, "invalid time axis: {what}"),
            Error::EmptySweep => write!(f, "sweep requires at least one point"),
            Error::InvalidPartition(what) => write!(f, "invalid block partition: {what}"),
            Error::Panicked { what } => write!(f, "worker panicked: {what}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = Error::InvalidValue {
            device: "R1".into(),
            what: "resistance must be finite and positive, got -1".into(),
        };
        let s = e.to_string();
        assert!(s.contains("R1"));
        assert!(s.starts_with(char::is_lowercase));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }

    #[test]
    fn retryable_classification() {
        assert!(Error::NoConvergence {
            iterations: 10,
            residual: 1.0
        }
        .is_retryable());
        assert!(Error::SingularMatrix {
            pivot_row: 3,
            unknown: None
        }
        .is_retryable());
        for fatal in [
            Error::InvalidValue {
                device: "R1".into(),
                what: "negative".into(),
            },
            Error::InvalidTimeAxis("dt".into()),
            Error::EmptySweep,
            Error::PreflightRejected {
                code: "ERC001".into(),
                what: "floating node".into(),
            },
        ] {
            assert!(!fatal.is_retryable(), "{fatal} must be fatal");
        }
    }

    #[test]
    fn recordable_includes_preflight_rejections() {
        let preflight = Error::PreflightRejected {
            code: "ERC001".into(),
            what: "floating node `x`".into(),
        };
        assert!(!preflight.is_retryable());
        assert!(preflight.is_recordable());
        assert!(Error::NoConvergence {
            iterations: 1,
            residual: 1.0
        }
        .is_recordable());
        assert!(!Error::EmptySweep.is_recordable());
    }

    #[test]
    fn panics_are_recordable_but_not_retryable() {
        let p = Error::Panicked {
            what: "index out of bounds".into(),
        };
        assert!(p.is_recordable() && !p.is_retryable() && p.is_panic());
        assert!(p.to_string().contains("worker panicked"));
    }

    #[test]
    fn singular_matrix_names_the_unknown() {
        let e = Error::SingularMatrix {
            pivot_row: 4,
            unknown: Some("node `vreg`".into()),
        };
        let s = e.to_string();
        assert!(s.contains("row 4"));
        assert!(s.contains("vreg"));
        assert!(s.contains("loop of voltage sources"));
        let bare = Error::SingularMatrix {
            pivot_row: 4,
            unknown: None,
        };
        assert!(!bare.to_string().contains("check"));
    }

    #[test]
    fn no_convergence_reports_numbers() {
        let e = Error::NoConvergence {
            iterations: 42,
            residual: 1.5e-3,
        };
        let s = e.to_string();
        assert!(s.contains("42"));
        assert!(s.contains("1.5"));
    }
}
