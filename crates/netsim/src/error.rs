//! Error types shared across the simulator.

use core::fmt;

/// Errors produced while encoding or decoding wire formats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input shorter than a required structure.
    Truncated {
        /// Bytes required.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// IP version field was not 4.
    BadVersion {
        /// Observed version nibble.
        version: u8,
    },
    /// IPv4 options are not supported by this simulator.
    UnsupportedOptions {
        /// Observed header length in bytes.
        ihl: usize,
    },
    /// A checksum did not verify.
    BadChecksum {
        /// Which layer failed ("ipv4", "udp", "icmp").
        layer: &'static str,
    },
    /// Declared length disagrees with the buffer.
    LengthMismatch {
        /// Length declared in the header.
        declared: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// A structure would exceed its maximum representable size.
    Oversize {
        /// Attempted size.
        len: usize,
    },
    /// Fragment offset outside the 13-bit field.
    BadFragmentOffset {
        /// Offset in 8-byte units.
        offset: u16,
    },
    /// A field held a value the decoder cannot represent.
    BadField {
        /// Field description.
        field: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, got } => {
                write!(f, "truncated input: needed {needed} bytes, got {got}")
            }
            WireError::BadVersion { version } => write!(f, "unsupported IP version {version}"),
            WireError::UnsupportedOptions { ihl } => {
                write!(f, "IPv4 options unsupported (ihl {ihl} bytes)")
            }
            WireError::BadChecksum { layer } => write!(f, "bad {layer} checksum"),
            WireError::LengthMismatch { declared, actual } => {
                write!(f, "length mismatch: declared {declared}, actual {actual}")
            }
            WireError::Oversize { len } => write!(f, "structure too large: {len} bytes"),
            WireError::BadFragmentOffset { offset } => {
                write!(f, "fragment offset {offset} exceeds 13 bits")
            }
            WireError::BadField { field } => write!(f, "invalid field: {field}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Errors produced by the fragmentation engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FragmentError {
    /// The requested MTU is below the IPv4 minimum of 68 bytes.
    MtuTooSmall {
        /// Requested MTU.
        mtu: u16,
    },
    /// The packet has the Don't-Fragment bit set but exceeds the MTU.
    DontFragment {
        /// Packet length that did not fit.
        len: usize,
        /// Path MTU it did not fit into.
        mtu: u16,
    },
    /// The packet is already a fragment and cannot be re-fragmented here.
    AlreadyFragmented,
}

impl fmt::Display for FragmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FragmentError::MtuTooSmall { mtu } => {
                write!(f, "mtu {mtu} below IPv4 minimum of 68")
            }
            FragmentError::DontFragment { len, mtu } => {
                write!(f, "DF set: packet of {len} bytes exceeds mtu {mtu}")
            }
            FragmentError::AlreadyFragmented => write!(f, "cannot re-fragment a fragment"),
        }
    }
}

impl std::error::Error for FragmentError {}

/// Errors raised by [`crate::sim::Simulator`] configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Two hosts were registered with the same address.
    DuplicateAddress {
        /// The conflicting address.
        addr: std::net::Ipv4Addr,
    },
    /// The event budget set via
    /// [`set_event_budget`](crate::sim::Simulator::set_event_budget) ran
    /// out with events still queued.
    EventBudgetExceeded {
        /// The configured budget.
        max_events: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::DuplicateAddress { addr } => write!(f, "duplicate host address {addr}"),
            SimError::EventBudgetExceeded { max_events } => {
                write!(f, "event budget of {max_events} exhausted with events still queued")
            }
        }
    }
}

impl std::error::Error for SimError {}
