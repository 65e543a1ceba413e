//! DNS error types.

use core::fmt;

/// Errors from DNS name handling, message codecs and server logic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DnsError {
    /// A domain name violated length or syntax rules.
    BadName {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// Wire input ended prematurely.
    Truncated {
        /// What was being decoded.
        context: &'static str,
    },
    /// A compression pointer loop or out-of-range pointer.
    BadPointer,
    /// A field held an unrepresentable value.
    BadField {
        /// Which field.
        field: &'static str,
    },
    /// Message would exceed the 64 KiB UDP limit.
    Oversize {
        /// Attempted size.
        len: usize,
    },
}

impl fmt::Display for DnsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DnsError::BadName { reason } => write!(f, "bad name: {reason}"),
            DnsError::Truncated { context } => {
                write!(f, "truncated message while decoding {context}")
            }
            DnsError::BadPointer => write!(f, "bad or looping compression pointer"),
            DnsError::BadField { field } => write!(f, "invalid field: {field}"),
            DnsError::Oversize { len } => write!(f, "message too large: {len} bytes"),
        }
    }
}

impl std::error::Error for DnsError {}
