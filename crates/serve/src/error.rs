//! Error type for the serving layer.

use std::error::Error;
use std::fmt;

use vtx_container::ContainerError;
use vtx_core::CoreError;
use vtx_sched::SchedError;

/// Errors surfaced by the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// A fleet with no servers was supplied.
    EmptyFleet,
    /// A workload with no jobs was supplied.
    EmptyWorkload,
    /// Two servers in a fleet share a name.
    DuplicateServer {
        /// The repeated name.
        name: String,
    },
    /// A server's speed grade was zero, negative or non-finite.
    InvalidSpeed {
        /// The offending server.
        name: String,
        /// The offending speed.
        speed: f64,
    },
    /// A job references a video outside the vbench catalog.
    UnknownVideo {
        /// The name that failed to resolve.
        name: String,
    },
    /// A popularity model's Zipf skew was negative or non-finite, or its
    /// live fraction fell outside `[0, 1]`.
    InvalidPopularity {
        /// The Zipf skew exponent.
        zipf_s: f64,
        /// The live-class fraction.
        live_frac: f64,
    },
    /// An arrival-trace line failed to parse.
    Trace {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The dispatch solver rejected its input (a bug in fleet/queue sizing).
    Sched(SchedError),
    /// A real-executor transcode failed.
    Core(CoreError),
    /// Packaging a segment or manifest failed.
    Container(ContainerError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::EmptyFleet => write!(f, "fleet must contain at least one server"),
            ServeError::EmptyWorkload => write!(f, "workload must contain at least one job"),
            ServeError::DuplicateServer { name } => {
                write!(f, "fleet has two servers named '{name}'")
            }
            ServeError::InvalidSpeed { name, speed } => {
                write!(
                    f,
                    "server '{name}' has invalid speed {speed} (must be finite and > 0)"
                )
            }
            ServeError::UnknownVideo { name } => {
                write!(f, "video '{name}' is not in the vbench catalog")
            }
            ServeError::InvalidPopularity { zipf_s, live_frac } => {
                write!(
                    f,
                    "popularity needs a finite Zipf skew >= 0 and a live fraction in [0, 1], \
                     got skew {zipf_s} and live fraction {live_frac}"
                )
            }
            ServeError::Trace { line, message } => {
                write!(f, "arrival trace line {line}: {message}")
            }
            ServeError::Sched(e) => write!(f, "dispatch solver error: {e}"),
            ServeError::Core(e) => write!(f, "transcode error: {e}"),
            ServeError::Container(e) => write!(f, "packaging error: {e}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Sched(e) => Some(e),
            ServeError::Core(e) => Some(e),
            ServeError::Container(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SchedError> for ServeError {
    fn from(e: SchedError) -> Self {
        ServeError::Sched(e)
    }
}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Core(e)
    }
}

impl From<ContainerError> for ServeError {
    fn from(e: ContainerError) -> Self {
        ServeError::Container(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        assert!(ServeError::EmptyFleet.to_string().contains("fleet"));
        let e: ServeError = SchedError::NoTasks.into();
        assert!(e.source().is_some());
        let e = ServeError::Trace {
            line: 3,
            message: "bad preset".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }
}
