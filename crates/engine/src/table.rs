//! SLD answer tabling (memoization) for the definite-Horn fragment.
//!
//! Negotiations re-derive the same subgoals over and over: the §4.1/§4.2
//! scenarios evaluate identical `lit @ Authority` bodies on every
//! iteration, and licensing scans re-prove the same context goals per
//! candidate rule. For definite programs memoization is sound — a derived
//! answer stays derivable because knowledge bases only *grow* during a
//! negotiation — so the solver can keep an [`AnswerTable`]: answers keyed
//! by the *canonical form* (variant class) of the goal, each paired with
//! the proof that established it.
//!
//! The completion policy is deliberately simple (no full SLG/WAM
//! machinery):
//!
//! * a goal variant is evaluated **once**, by an isolated sub-derivation
//!   inside the same solver (sharing hook, step budget, and rename
//!   counter);
//! * while that evaluation is open the variant sits in an *in-progress*
//!   set; re-occurrences inside it fall back to plain SLD resolution, so
//!   cyclic programs terminate exactly as they do untabled (the ancestor
//!   variant check still prunes loops);
//! * an evaluation that was cut short — answer cap hit, step budget
//!   exhausted, depth cutoff observed — is recorded as [`Disposition::Incomplete`];
//!   incomplete variants are never reused and never re-evaluated as
//!   tables (each occurrence resolves inline), preserving the untabled
//!   semantics under resource bounds.
//!
//! Only authority-free goals are tabled. A goal with an authority chain
//! may route to another peer, and remote answers belong to the
//! negotiation layer's remote-answer cache
//! (`peertrust_negotiation::RemoteAnswerCache`) with its TTL and
//! invalidation story, not to this per-solver table. (Remote answers that
//! back a *local* rule application are still captured transparently in
//! the stored proof.)

use crate::sld::Proof;
use peertrust_core::Literal;
use std::collections::{HashMap, HashSet};

/// One memoized answer: the answer instance of the tabled goal plus the
/// proof tree that established it.
#[derive(Clone, Debug)]
pub struct TabledAnswer {
    pub answer: Literal,
    pub proof: Proof,
    /// Whether the answer or its proof mention any variable — computed
    /// once at completion time so the solver's per-reuse
    /// standardize-apart can skip the full tree walk for the (common)
    /// ground case: ground answers rename to themselves.
    needs_rename: bool,
}

impl TabledAnswer {
    /// Record an answer, precomputing whether reuse must rename it apart.
    pub fn new(answer: Literal, proof: Proof) -> TabledAnswer {
        let mut vars = Vec::new();
        answer.collect_vars(&mut vars);
        if vars.is_empty() {
            proof_has_vars(&proof, &mut vars);
        }
        TabledAnswer {
            answer,
            proof,
            needs_rename: !vars.is_empty(),
        }
    }

    /// Does reuse need to standardize this answer apart? `false` means
    /// the answer and proof are ground — clone (shallow) and go.
    pub fn needs_rename(&self) -> bool {
        self.needs_rename
    }
}

fn proof_has_vars(p: &Proof, vars: &mut Vec<peertrust_core::Var>) {
    p.goal.collect_vars(vars);
    if !vars.is_empty() {
        return;
    }
    for c in &p.children {
        proof_has_vars(c, vars);
        if !vars.is_empty() {
            return;
        }
    }
}

/// How a variant's evaluation ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Disposition {
    /// The sub-derivation ran to exhaustion: the answer list is the
    /// complete SLD answer set for the variant and may be reused.
    Complete,
    /// The sub-derivation was cut short by a resource bound; the variant
    /// is resolved inline on every occurrence.
    Incomplete,
}

struct Entry {
    disposition: Disposition,
    answers: Vec<TabledAnswer>,
}

/// Table usage counters (flushed into the telemetry registry by the
/// solver).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct TableStats {
    /// Goal occurrences answered from a completed table entry.
    pub hits: u64,
    /// Goal occurrences that triggered a fresh variant evaluation.
    pub misses: u64,
    /// Answers inserted into the table.
    pub inserts: u64,
    /// Variant evaluations recorded incomplete (resource bound hit).
    pub incomplete: u64,
    /// Occurrences that fell back to inline resolution because their
    /// variant was in progress (cycle) or incomplete.
    pub inline_fallbacks: u64,
}

/// The per-solver (optionally shared) answer table.
#[derive(Default)]
pub struct AnswerTable {
    entries: HashMap<Literal, Entry>,
    in_progress: HashSet<Literal>,
    stats: TableStats,
}

impl AnswerTable {
    pub fn new() -> AnswerTable {
        AnswerTable::default()
    }

    /// Number of variants with a recorded entry.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total answers stored across all complete entries.
    pub fn answer_count(&self) -> usize {
        self.entries.values().map(|e| e.answers.len()).sum()
    }

    pub fn stats(&self) -> TableStats {
        self.stats
    }

    /// Is this variant currently being evaluated (cycle guard)?
    pub fn in_progress(&self, canonical: &Literal) -> bool {
        self.in_progress.contains(canonical)
    }

    /// Mark a variant as under evaluation.
    pub fn begin(&mut self, canonical: Literal) {
        self.stats.misses += 1;
        self.in_progress.insert(canonical);
    }

    /// Record the outcome of a variant evaluation and release the
    /// in-progress mark.
    pub fn complete(
        &mut self,
        canonical: Literal,
        disposition: Disposition,
        answers: Vec<TabledAnswer>,
    ) {
        self.in_progress.remove(&canonical);
        if disposition == Disposition::Incomplete {
            self.stats.incomplete += 1;
        }
        self.stats.inserts += answers.len() as u64;
        self.entries.insert(
            canonical,
            Entry {
                disposition,
                answers,
            },
        );
    }

    /// The disposition recorded for a variant, if any.
    pub fn disposition(&self, canonical: &Literal) -> Option<Disposition> {
        self.entries.get(canonical).map(|e| e.disposition)
    }

    /// Completed answers for a variant; `None` unless the entry exists
    /// and is complete. Records a hit.
    pub fn lookup(&mut self, canonical: &Literal) -> Option<&[TabledAnswer]> {
        match self.entries.get(canonical) {
            Some(e) if e.disposition == Disposition::Complete => {
                self.stats.hits += 1;
                Some(&e.answers)
            }
            _ => None,
        }
    }

    /// Record one inline fallback (in-progress or incomplete variant).
    pub fn note_inline_fallback(&mut self) {
        self.stats.inline_fallbacks += 1;
    }

    /// Classify a variant: in progress (a cycle) or recorded incomplete
    /// resolves inline, a completed entry is reused, anything else is
    /// fresh. Counts the inline fallback or the hit on the matching
    /// branch.
    pub fn probe(&mut self, canonical: &Literal) -> Probe {
        if self.in_progress(canonical)
            || self.disposition(canonical) == Some(Disposition::Incomplete)
        {
            self.note_inline_fallback();
            return Probe::Inline;
        }
        match self.lookup(canonical) {
            Some(answers) => Probe::Reuse(answers.to_vec()),
            None => Probe::Fresh,
        }
    }

    /// Drop every entry (keeps the stats).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.in_progress.clear();
    }
}

/// What a table found for a goal variant (see [`AnswerTable::probe`]).
#[derive(Clone, Debug)]
pub enum Probe {
    /// A completed entry: resolve the goal against these answers.
    Reuse(Vec<TabledAnswer>),
    /// In progress (cycle) or recorded incomplete: resolve inline. The
    /// inline fallback has already been counted.
    Inline,
    /// Never evaluated: the caller should `begin`, derive, and `complete`.
    Fresh,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sld::ProofStep;
    use peertrust_core::Term;

    fn lit(name: &str, n: i64) -> Literal {
        Literal::new(name, vec![Term::int(n)])
    }

    fn ans(name: &str, n: i64) -> TabledAnswer {
        TabledAnswer::new(
            lit(name, n),
            Proof {
                goal: lit(name, n),
                step: ProofStep::Builtin,
                children: Vec::new(),
            },
        )
    }

    #[test]
    fn complete_entries_are_reusable() {
        let mut t = AnswerTable::new();
        let key = lit("p", 0);
        assert!(t.lookup(&key).is_none());
        t.begin(key.clone());
        assert!(t.in_progress(&key));
        t.complete(key.clone(), Disposition::Complete, vec![ans("p", 1)]);
        assert!(!t.in_progress(&key));
        assert_eq!(t.lookup(&key).unwrap().len(), 1);
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 1);
        assert_eq!(t.stats().inserts, 1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.answer_count(), 1);
    }

    #[test]
    fn incomplete_entries_never_reused() {
        let mut t = AnswerTable::new();
        let key = lit("q", 0);
        t.begin(key.clone());
        t.complete(key.clone(), Disposition::Incomplete, vec![ans("q", 1)]);
        assert!(t.lookup(&key).is_none());
        assert_eq!(t.disposition(&key), Some(Disposition::Incomplete));
        assert!(matches!(t.probe(&key), Probe::Inline));
        assert_eq!(t.stats().incomplete, 1);
        assert_eq!(t.stats().inline_fallbacks, 1);
    }

    #[test]
    fn clear_keeps_stats() {
        let mut t = AnswerTable::new();
        t.begin(lit("p", 0));
        t.complete(lit("p", 0), Disposition::Complete, vec![ans("p", 1)]);
        let _ = t.lookup(&lit("p", 0));
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.stats().hits, 1);
    }

    #[test]
    fn probe_is_fresh_then_inline_while_in_progress_then_reuse() {
        let mut t = AnswerTable::new();
        let key = lit("p", 0);
        assert!(matches!(t.probe(&key), Probe::Fresh));
        t.begin(key.clone());
        // While in progress a probe is an inline fallback (cycle guard).
        assert!(matches!(t.probe(&key), Probe::Inline));
        t.complete(key.clone(), Disposition::Complete, vec![ans("p", 1)]);
        match t.probe(&key) {
            Probe::Reuse(answers) => assert_eq!(answers.len(), 1),
            other => panic!("expected reuse, got {other:?}"),
        }
        let s = t.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.inserts, 1);
        assert_eq!(s.inline_fallbacks, 1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.answer_count(), 1);
    }
}
