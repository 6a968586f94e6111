//! Error types for configuration and model-level invariant violations.

use std::error::Error;
use std::fmt;

/// Error raised while validating a buffer configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A parameter that must be strictly positive was zero.
    ZeroParameter(&'static str),
    /// The CFDS granularity `b` does not divide the RADS granularity `B`.
    GranularityNotDivisor {
        /// CFDS per-access granularity `b` (cells).
        b: usize,
        /// RADS granularity `B` (cells).
        big_b: usize,
    },
    /// The number of banks per group (`B/b`) does not divide the number of
    /// banks `M`.
    BanksNotDivisible {
        /// Total number of DRAM banks `M`.
        banks: usize,
        /// Banks required per group (`B/b`).
        banks_per_group: usize,
    },
    /// Lookahead shorter than the minimum required by the MMA for zero miss.
    LookaheadTooShort {
        /// Requested lookahead (slots).
        requested: usize,
        /// Minimum lookahead (slots).
        minimum: usize,
    },
    /// A size past the bound that keeps what a buffer allocates at
    /// construction sane ([`crate::MAX_LOOKAHEAD_SLOTS`],
    /// [`crate::MAX_PHYSICAL_QUEUES`], [`crate::MAX_BANKS`]).
    TooLarge {
        /// The size, as the configuration names it.
        parameter: &'static str,
        /// Its unit.
        unit: &'static str,
        /// The requested size; `None` when computing it overflows `usize`.
        requested: Option<usize>,
        /// The bound.
        maximum: usize,
    },
    /// Any other parameter inconsistency.
    Invalid(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroParameter(name) => {
                write!(f, "parameter `{name}` must be strictly positive")
            }
            ConfigError::GranularityNotDivisor { b, big_b } => write!(
                f,
                "CFDS granularity b={b} must evenly divide RADS granularity B={big_b}"
            ),
            ConfigError::BanksNotDivisible {
                banks,
                banks_per_group,
            } => write!(
                f,
                "number of banks M={banks} must be a multiple of banks per group B/b={banks_per_group}"
            ),
            ConfigError::LookaheadTooShort { requested, minimum } => write!(
                f,
                "lookahead of {requested} slots is below the zero-miss minimum of {minimum} slots"
            ),
            ConfigError::TooLarge {
                parameter,
                unit,
                requested,
                maximum,
            } => {
                match requested {
                    Some(n) => write!(f, "{parameter} of {n} {unit}")?,
                    None => write!(f, "{parameter} overflowing usize")?,
                }
                write!(
                    f,
                    " is above the maximum of {maximum} {unit} (a buffer allocates them up front)"
                )
            }
            ConfigError::Invalid(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl Error for ConfigError {}

/// Errors raised by model-level helpers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A queue index was out of the configured range.
    QueueOutOfRange {
        /// Offending index.
        index: u32,
        /// Number of configured queues.
        num_queues: usize,
    },
    /// Wrapped configuration error.
    Config(ConfigError),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::QueueOutOfRange { index, num_queues } => {
                write!(f, "queue index {index} out of range (Q = {num_queues})")
            }
            ModelError::Config(e) => write!(f, "{e}"),
        }
    }
}

impl Error for ModelError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ModelError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for ModelError {
    fn from(e: ConfigError) -> Self {
        ModelError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = ConfigError::GranularityNotDivisor { b: 3, big_b: 32 };
        assert!(e.to_string().contains("b=3"));
        assert!(e.to_string().contains("B=32"));

        let e = ConfigError::LookaheadTooShort {
            requested: 10,
            minimum: 100,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("100"));

        let e = ConfigError::ZeroParameter("num_queues");
        assert!(e.to_string().contains("num_queues"));

        let e = ConfigError::TooLarge {
            parameter: "lookahead",
            unit: "slots",
            requested: Some(1 << 31),
            maximum: 1 << 22,
        };
        assert_eq!(
            e.to_string(),
            "lookahead of 2147483648 slots is above the maximum of 4194304 slots (a buffer \
             allocates them up front)"
        );
        let e = ConfigError::TooLarge {
            parameter: "k·Q",
            unit: "physical queues",
            requested: None,
            maximum: 1 << 20,
        };
        assert_eq!(
            e.to_string(),
            "k·Q overflowing usize is above the maximum of 1048576 physical queues (a buffer \
             allocates them up front)"
        );
    }

    #[test]
    fn model_error_wraps_config_error() {
        let inner = ConfigError::Invalid("oops".into());
        let e: ModelError = inner.clone().into();
        assert_eq!(e, ModelError::Config(inner));
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("oops"));
    }

    #[test]
    fn queue_out_of_range_message() {
        let e = ModelError::QueueOutOfRange {
            index: 99,
            num_queues: 64,
        };
        assert!(e.to_string().contains("99"));
        assert!(e.to_string().contains("64"));
        assert!(std::error::Error::source(&e).is_none());
    }
}
