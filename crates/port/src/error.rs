//! Error type for the port model.

use std::error::Error;
use std::fmt;

use crate::layout::UopClass;

/// A malformed or unsolvable port-model problem.
#[derive(Debug, Clone, PartialEq)]
pub enum PortError {
    /// A uop class carries flow but no port in the layout accepts it.
    UnservedClass {
        /// The class with nowhere to issue.
        class: UopClass,
        /// Layout name for the error message.
        layout: String,
    },
    /// The dispatch width is zero (no uop can ever issue).
    ZeroWidth,
    /// A layout declares no ports at all.
    EmptyLayout,
}

impl fmt::Display for PortError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortError::UnservedClass { class, layout } => {
                write!(f, "layout '{layout}' has no port for uop class {class:?}")
            }
            PortError::ZeroWidth => write!(f, "dispatch width must be nonzero"),
            PortError::EmptyLayout => write!(f, "port layout must declare at least one port"),
        }
    }
}

impl Error for PortError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = PortError::UnservedClass {
            class: UopClass::Load,
            layout: "test".to_owned(),
        };
        assert!(e.to_string().contains("Load"));
        assert!(PortError::ZeroWidth.to_string().contains("nonzero"));
    }
}
