//! # peertrust-engine
//!
//! Inference engines for PeerTrust distributed logic programs — the Rust
//! replacement for the MINERVA Prolog meta-interpreters of the 2004
//! prototype (paper §6).
//!
//! * [`sld`] — backward-chaining SLD resolution with certified [`Proof`]
//!   trees, termination guards (depth bound, step budget, ancestor variant
//!   loop check), and a [`RemoteHook`] through which the negotiation layer
//!   routes delegated goals (`lit @ OtherPeer`) over the network.
//! * [`forward`] — bottom-up saturation implementing the local part of the
//!   paper's §3.2 forward-chaining fixpoint semantics; used by the eager
//!   negotiation strategy and for differential testing against SLD.
//! * [`builtins`] — the comparison predicates policies use
//!   (`Price < 2000`, `Requester = Self`).
//! * [`table`] — SLD answer tabling for the definite-Horn fragment,
//!   enabled via [`EngineConfig::tabling`]; memoizes answers (with their
//!   proofs) per goal variant so negotiations stop re-deriving the same
//!   subgoals.
//!
//! Clause selection has one path: the trail-based interpreter in [`sld`]
//! (first-argument indexed candidates from the KB, rename-apart, destructive
//! unification). Its differential oracle, a clone-per-branch reference
//! interpreter, lives with the tests (`tests/support/reference.rs`).

pub mod builtins;
pub mod explain;
pub mod forward;
pub mod sld;
pub mod table;

pub use builtins::{eval_builtin, eval_builtin_in, BuiltinOutcome, BuiltinOutcomeIn};
pub use explain::{explain, explain_with_rules, proof_summary};
pub use forward::{saturate, ForwardConfig, Saturation};
pub use sld::{
    canonical_answer_set, canonicalize, is_variant, EngineConfig, NoRemote, Proof, ProofStep,
    RemoteFallback, RemoteHook, SharedTable, Solution, Solver, Stats,
};
pub use table::{AnswerTable, Disposition, Probe, TableStats, TabledAnswer};
