//! # peertrust-negotiation
//!
//! The PeerTrust automated trust negotiation runtime — the paper's §2/§4
//! machinery that lets strangers establish trust by iterative, bilateral
//! disclosure of credentials:
//!
//! * [`peer`] — a negotiation peer: knowledge base, crypto identity,
//!   effort policy, credential store (with the §3.2 issuer- and
//!   sender-extension axioms applied on mint/receive);
//! * [`session`] — the backward-chaining (parsimonious) driver and its one
//!   entry point, [`negotiate`]: delegated goals become network queries,
//!   release policies are enforced by a licensing scan whose context
//!   proofs run through the same distributed machinery, answers ship with
//!   their certified proofs, recipients verify third-party statements
//!   against signed material. [`NegotiateOptions`] attaches the optional
//!   answer cache, delivery supervision and telemetry;
//! * [`eager`] — the eager strategy: push every unlocked credential each
//!   round; complete (succeeds iff a safe disclosure sequence exists);
//! * [`strategy`] — dispatch over both strategies for the experiments;
//! * [`outcome`] — disclosure sequences `(C1, ..., Ck, R)` with evidence,
//!   and the [`verify_safe_sequence`] replay checker;
//! * [`unipro`] — UniPro policy protection: named policies guarded by
//!   policies, graduated disclosure;
//! * [`failure`] — §6's autonomy question answered counterfactually:
//!   critical refusals and rescue sets;
//! * [`gem`] — GEM-style distributed tabling: per-peer goal tables and
//!   cross-peer SCC state that turn delegation loops into iterated
//!   answer-propagation fixpoints instead of `CycleDetected` refusals;
//! * [`analysis`] — static policy lint: deadlock rings, unreleasable
//!   credentials, unsafe rules, unknown authorities/issuers;
//! * [`ticket`] — §3.1's nontransferable, expiring access tokens;
//! * [`audit`] — §3.1's audit trail, hash-chained and tamper-evident;
//! * [`threaded_host`] — the eager protocol over real threads and the
//!   crossbeam router, one peer per thread;
//! * [`scheduler`] — the multi-core batch driver: N independent
//!   negotiations over a worker pool with per-job peer-map snapshots, an
//!   optional shared answer cache and fault grid, and deterministic
//!   outcome ordering. Its job runner is the one [`serve`] runs too;
//! * [`serve`] — the open-loop serving engine: deterministic Poisson
//!   arrivals into a bounded admission queue over virtual servers, load
//!   shedding with typed `Overload` refusals, tick-exact latency
//!   accounting — bit-identical across runs and worker counts;
//! * [`resilience`] — delivery supervision over a faulty transport
//!   (`peertrust_net::faults`): per-message deadlines, bounded retries
//!   with deterministic exponential backoff, duplicate suppression, and
//!   crash-resume by pristine-restore + disclosure-log replay.

pub mod analysis;
pub mod answer_cache;
pub mod audit;
pub mod eager;
pub mod failure;
pub mod gem;
pub mod outcome;
pub mod peer;
pub mod resilience;
pub mod scheduler;
pub mod serve;
pub mod session;
pub mod strategy;
pub mod threaded_host;
pub mod ticket;
pub mod unipro;

pub use analysis::{analyze, lint_report, AnalysisReport, Finding};
pub use answer_cache::{CacheKey, CacheStats, RemoteAnswerCache, SharedRemoteAnswerCache};
pub use audit::{AuditLog, AuditRecord, ChainViolation};
pub use eager::{negotiate_eager, EagerConfig};
pub use failure::{analyze_failure, find_rescue_set, AnalyzedRefusal, FailureAnalysis};
pub use gem::{GemEdge, GemScc, GemState};
pub use outcome::{
    verify_safe_sequence, DisclosedItem, Disclosure, Evidence, NegotiationOutcome, Refusal,
    RefusalReason, SafetyViolation,
};
pub use peer::{issuer_extended, sender_extended, NegotiationPeer, PeerConfig, PeerError};
pub use resilience::{ResilienceConfig, ResilienceFailure, ResilienceReport, ResilienceStats};
pub use scheduler::{negotiate_batch, BatchConfig, BatchFaults, BatchJob, BatchReport, BatchStats};
pub use serve::{
    poisson_arrivals, serve_open_loop, ServeConfig, ServeDecision, ServeReport, ServeStats,
    TickQuantiles,
};
pub use session::{negotiate, NegotiateOptions, PeerMap, SessionConfig, MAX_HOP_DEPTH};
pub use strategy::Strategy;
pub use threaded_host::{
    negotiate_threaded, negotiate_threaded_with, ThreadedConfig, ThreadedFailure, ThreadedOutcome,
};
pub use ticket::{issue_ticket, redeem_ticket, Ticket, TicketError, TOKEN_PREDICATE};
pub use unipro::{
    disclosable_definition, request_policy, unlock_policy_chain, PolicyDisclosureOutcome,
};
