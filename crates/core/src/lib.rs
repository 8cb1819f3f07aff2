//! # peertrust-core
//!
//! Core data model for **PeerTrust** distributed logic programs (DLPs), the
//! policy and trust-negotiation language of
//! *"PeerTrust: Automated Trust Negotiation for Peers on the Semantic Web"*
//! (Nejdl, Olmedilla, Winslett, 2004).
//!
//! A PeerTrust program is a set of definite Horn clauses extended with three
//! constructs (paper §3.1):
//!
//! * **Authority arguments** — `lit @ Authority` delegates evaluation of a
//!   literal to another peer. Authorities nest: `student(X) @ "UIUC" @ X`
//!   asks peer `X` to produce UIUC's statement about `X`'s student status.
//!   See [`literal::Literal::authority`].
//! * **Context guards** — `lit $ ctx` and `head <-_ctx body` attach *release
//!   policies*: the literal/rule may only be sent to a peer for which `ctx`
//!   is derivable, with the pseudo-variables `Requester` and `Self` bound at
//!   disclosure time. See [`context::Context`].
//! * **Signed rules** — `rule signedBy ["UIUC"]` marks a rule as carrying the
//!   issuer's digital signature, modelling credentials and delegations. The
//!   signature bytes themselves live in `peertrust-crypto`; here we track the
//!   issuer chain (see [`rule::Rule::signed_by`]).
//!
//! This crate provides terms, literals, contexts, rules, knowledge bases,
//! substitutions and unification. Inference lives in `peertrust-engine`,
//! parsing in `peertrust-parser`, and the negotiation runtime in
//! `peertrust-negotiation`.
//!
//! ## Example
//!
//! ```
//! use peertrust_core::prelude::*;
//!
//! // student("Alice") @ "UIUC"
//! let lit = Literal::new("student", vec![Term::str("Alice")])
//!     .at(Term::str("UIUC"));
//! assert_eq!(lit.to_string(), "student(\"Alice\") @ \"UIUC\"");
//! ```

pub mod bindings;
pub mod context;
pub mod hash;
pub mod kb;
pub mod literal;
pub mod rule;
pub mod serde_impl;
pub mod subst;
pub mod symbol;
pub mod term;
pub mod unify;

/// Convenient re-exports of the types used by nearly every client.
pub mod prelude {
    pub use crate::bindings::{
        unify_head_in, unify_in, unify_literals_in, unify_opts_in, Bindings, Checkpoint,
        ResolveCache, TrailStats,
    };
    pub use crate::context::Context;
    pub use crate::hash::{FxBuildHasher, FxHashMap, FxHashSet};
    pub use crate::kb::{KnowledgeBase, RuleOrigin};
    pub use crate::literal::Literal;
    pub use crate::rule::{Renaming, Rule, RuleId};
    pub use crate::subst::Subst;
    pub use crate::symbol::{PeerId, Sym};
    pub use crate::term::{IndexKey, Term, Var};
    pub use crate::unify::{unify, unify_literals, unify_opts, UnifyOptions};
}

pub use prelude::*;
