//! # peertrust-net
//!
//! The peer-to-peer message substrate PeerTrust negotiations run on — the
//! stand-in for the 2004 prototype's Java socket layer and the Edutella
//! P2P infrastructure (see DESIGN.md, "Substitutions").
//!
//! * [`message`] — the negotiation message vocabulary: queries, answers,
//!   credential pushes, failure notices;
//! * [`faults`] — deterministic fault injection: seeded per-link
//!   drop/delay/duplicate/reorder/corruption plans plus peer crash
//!   windows, applied as a wrapper lane over the simulated network;
//! * [`sim`] — a deterministic discrete-event network with configurable
//!   topology and latency, producing the message/byte/round metrics every
//!   experiment reports;
//! * [`topology`] — full-mesh, star (broker) and explicit-link topologies.

pub mod codec;
pub mod faults;
pub mod message;
pub mod routing;
pub mod sim;
pub mod topology;

pub use codec::{decode_frame, encode_frame, CodecError, DecodeError, MAX_FRAME};
pub use faults::{
    CrashWindow, FaultKind, FaultLane, FaultPlan, FaultStats, LinkFaults, MessageFate,
};
pub use message::{Message, MessageId, NegotiationId, Payload, QueryId, TraceContext};
pub use routing::{RoutedLookup, RoutingIndex, SuperPeerNetwork};
pub use sim::{LatencyModel, NetError, NetStats, SimNetwork, Tick, TraceEvent};
pub use topology::Topology;
