//! Network packet substrate for passive NFS tracing.
//!
//! The FAST 2003 tracer attached a snooping host to a switch mirror port
//! and decoded raw Ethernet frames carrying NFS RPC traffic. This crate
//! provides everything between the wire and the RPC layer:
//!
//! - [`ethernet`]: Ethernet II frames, including 9000-byte jumbo frames as
//!   used on the CAMPUS gigabit network.
//! - [`ipv4`]: IPv4 headers with checksums.
//! - [`udp`] and [`tcp`]: transport headers (EECS used UDP, CAMPUS TCP).
//! - [`pcap`]: the classic libpcap capture-file format.
//! - [`reassembly`]: in-order TCP byte-stream reconstruction tolerant of
//!   out-of-order and duplicated segments.
//! - [`mirror`]: a model of the bandwidth-limited mirror port that dropped
//!   up to 10% of packets during CAMPUS load bursts (paper §4.1.4).
//!
//! # Examples
//!
//! ```
//! use nfstrace_net::packet::PacketBuilder;
//! use nfstrace_net::{ethernet::MacAddr, ipv4::Ipv4Addr4};
//!
//! let frame = PacketBuilder::udp(
//!     MacAddr::new([0, 1, 2, 3, 4, 5]),
//!     MacAddr::new([6, 7, 8, 9, 10, 11]),
//!     Ipv4Addr4::new(10, 0, 0, 1),
//!     Ipv4Addr4::new(10, 0, 0, 2),
//!     1023,
//!     2049,
//!     b"payload",
//! );
//! let decoded = nfstrace_net::packet::DecodedPacket::parse(&frame).unwrap();
//! assert_eq!(decoded.payload, b"payload");
//! ```

// The zero-copy capture path is only as good as the code around it:
// flag clones of values whose last use this was.
#![warn(clippy::redundant_clone)]

pub mod error;
pub mod ethernet;
pub mod ipv4;
pub mod mirror;
pub mod packet;
pub mod pcap;
pub mod reassembly;
pub mod tcp;
pub mod udp;

pub use error::{Error, Result};
