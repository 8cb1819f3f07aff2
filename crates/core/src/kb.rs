//! Per-peer knowledge bases.
//!
//! Each peer stores its *local* rules (rules it defined, including its
//! policies) plus *cached foreign* rules — signed rules received from other
//! peers during earlier interactions (paper §3.1: "A peer may also have
//! copies of rules defined by other peers"). Rules are indexed by
//! predicate/arity for fast clause selection during resolution.
//!
//! # Copy-on-write layout
//!
//! A KB is split into an immutable **base segment** behind an `Arc` plus a
//! small mutable **overlay segment**. [`KnowledgeBase::freeze`] folds the
//! overlay into the base; after that, `clone` is an `Arc` bump plus a copy
//! of the (empty) overlay — O(1) instead of O(KB). This is what makes
//! per-job session startup in the batch scheduler and the open-loop
//! serving driver clone-free: thousands of concurrent sessions share one
//! frozen rule store and each grows only its own overlay (disclosures
//! received during that negotiation). The KB is append-only and overlay
//! clause ids are globally numbered, so candidate order and rule ids are
//! identical to the unsplit representation.

use crate::hash::{FxHashMap, FxHashSet};
use crate::literal::Literal;
use crate::rule::{Rule, RuleId};
use crate::symbol::{PeerId, Sym};
use crate::term::{IndexKey, Term, Var};
use std::fmt;
use std::sync::Arc;

/// Where a rule in a knowledge base came from.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RuleOrigin {
    /// Defined by the owning peer itself.
    Local,
    /// Received (already signature-verified) from another peer.
    Received(PeerId),
}

/// A rule together with its provenance.
#[derive(Clone, Debug)]
pub struct StoredRule {
    pub id: RuleId,
    pub rule: Arc<Rule>,
    pub origin: RuleOrigin,
    /// `rule.vars()`, computed once at insert (empty, and unallocated,
    /// for ground facts).
    vars: Box<[Var]>,
}

impl StoredRule {
    /// The rule's distinct variables in first-occurrence order — head,
    /// then contexts, then body: the order in which
    /// [`Rule::rename_apart_indexed`] numbers them, so a
    /// [`crate::rule::Renaming`] over this list gives the same versions
    /// without copying the rule.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }
}

/// One contiguous run of rules with its clause indexes. Clause ids stored
/// in the index buckets are *global* (offset by any preceding base
/// segment), so base and overlay buckets concatenate without fixups.
#[derive(Clone, Default, Debug)]
struct KbSegment {
    rules: Vec<StoredRule>,
    // Fx, not SipHash: the keys are interner ids and small integers of
    // rules this peer loaded or verified, probed once per goal selection.
    index: FxHashMap<(Sym, usize), Vec<usize>>,
    /// (functor, first-arg key) -> clause ids with that ground first arg.
    first_arg: FxHashMap<(Sym, usize, IndexKey), Vec<usize>>,
    /// functor -> clause ids whose first head arg is a variable (or arity 0).
    var_headed: FxHashMap<(Sym, usize), Vec<usize>>,
    /// Functors with at least one clause whose head carries an authority.
    authority_headed: FxHashSet<(Sym, usize)>,
    /// Distinct predicates *first defined in this segment*, kept sorted
    /// incrementally on insert so [`KnowledgeBase::predicates`] never
    /// re-collects and re-sorts the whole index (callers poll it per
    /// negotiation round).
    sorted_predicates: Vec<(Sym, usize)>,
}

/// One peer's rule store, indexed by head predicate/arity with
/// first-argument refinement (classic Prolog clause indexing): a goal
/// whose first argument is a ground constant only visits clauses whose
/// first head argument is that constant or a variable.
///
/// See the module docs for the base/overlay copy-on-write split.
#[derive(Clone, Default, Debug)]
pub struct KnowledgeBase {
    /// Immutable shared segment produced by [`KnowledgeBase::freeze`].
    base: Option<Arc<KbSegment>>,
    /// Rules appended since the last freeze (or since creation).
    overlay: KbSegment,
}

impl KnowledgeBase {
    pub fn new() -> KnowledgeBase {
        KnowledgeBase::default()
    }

    /// Rules in the frozen base segment (0 if never frozen).
    fn base_len(&self) -> usize {
        self.base.as_ref().map_or(0, |b| b.rules.len())
    }

    /// Number of stored rules.
    pub fn len(&self) -> usize {
        self.base_len() + self.overlay.rules.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of rules in the shared frozen base segment (0 when the KB
    /// has never been [frozen](KnowledgeBase::freeze)).
    pub fn frozen_len(&self) -> usize {
        self.base_len()
    }

    /// Do `self` and `other` share the same frozen base segment (one
    /// allocation, not two copies)? The serving driver uses this as a
    /// deterministic structural check that per-job clones were O(overlay).
    pub fn shares_base_with(&self, other: &KnowledgeBase) -> bool {
        match (&self.base, &other.base) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Fold the overlay into the frozen base. Afterwards the overlay is
    /// empty and `clone` shares the base by `Arc` — O(1) regardless of KB
    /// size. Rule ids, candidate order and iteration order are unchanged
    /// (tested). Idempotent; freezing an already-frozen KB with an empty
    /// overlay is a no-op.
    pub fn freeze(&mut self) {
        if self.overlay.rules.is_empty() && self.base.is_some() {
            return;
        }
        let overlay = std::mem::take(&mut self.overlay);
        let merged = match self.base.take() {
            None => overlay,
            Some(base) => {
                // Sole owner: reuse the allocation; otherwise copy once
                // (freeze-after-share is a cold path by construction).
                let mut m = Arc::try_unwrap(base).unwrap_or_else(|arc| (*arc).clone());
                m.rules.extend(overlay.rules);
                // Overlay buckets hold global ids greater than every base
                // id, so appending keeps each bucket ascending.
                for (k, v) in overlay.index {
                    m.index.entry(k).or_default().extend(v);
                }
                for (k, v) in overlay.first_arg {
                    m.first_arg.entry(k).or_default().extend(v);
                }
                for (k, v) in overlay.var_headed {
                    m.var_headed.entry(k).or_default().extend(v);
                }
                m.authority_headed.extend(overlay.authority_headed);
                if !overlay.sorted_predicates.is_empty() {
                    m.sorted_predicates =
                        merge_sorted_keys(&m.sorted_predicates, &overlay.sorted_predicates);
                }
                m
            }
        };
        self.base = Some(Arc::new(merged));
    }

    /// Add a locally defined rule. An `Arc<Rule>` is stored as is, so
    /// several KBs can index one rule without copying it.
    pub fn add_local(&mut self, rule: impl Into<Arc<Rule>>) -> RuleId {
        self.add(rule.into(), RuleOrigin::Local)
    }

    /// Add a rule received from `from` (signature verification is the
    /// caller's job — see `peertrust-crypto`).
    pub fn add_received(&mut self, rule: impl Into<Arc<Rule>>, from: PeerId) -> RuleId {
        self.add(rule.into(), RuleOrigin::Received(from))
    }

    fn add(&mut self, rule: Arc<Rule>, origin: RuleOrigin) -> RuleId {
        let idx = self.len(); // global clause id
        let id = RuleId(u32::try_from(idx).expect("kb overflow"));
        let key = rule.head.functor();
        match rule.head.args.first().and_then(Term::index_key) {
            Some(k) => self
                .overlay
                .first_arg
                .entry((key.0, key.1, k))
                .or_default()
                .push(idx),
            None => self.overlay.var_headed.entry(key).or_default().push(idx),
        }
        if !rule.head.authority.is_empty() {
            self.overlay.authority_headed.insert(key);
        }
        let vars = rule.vars().into_boxed_slice();
        self.overlay.rules.push(StoredRule {
            id,
            rule,
            origin,
            vars,
        });
        let known_in_base = self
            .base
            .as_ref()
            .is_some_and(|b| b.index.contains_key(&key));
        let bucket = self.overlay.index.entry(key).or_default();
        if bucket.is_empty() && !known_in_base {
            // New predicate: keep the cached enumeration list sorted with
            // one binary-search insert instead of a full sort per query.
            if let Err(pos) = self.overlay.sorted_predicates.binary_search(&key) {
                self.overlay.sorted_predicates.insert(pos, key);
            }
        }
        bucket.push(idx);
        id
    }

    /// The rule at global clause id `idx` (caller guarantees in range).
    fn stored(&self, idx: usize) -> &StoredRule {
        match &self.base {
            Some(b) if idx < b.rules.len() => &b.rules[idx],
            Some(b) => &self.overlay.rules[idx - b.rules.len()],
            None => &self.overlay.rules[idx],
        }
    }

    /// Does the KB already contain a syntactically identical rule? Used to
    /// deduplicate credentials pushed repeatedly during a negotiation.
    pub fn contains(&self, rule: &Rule) -> bool {
        self.find(rule).is_some()
    }

    /// The id of the first stored rule syntactically identical to `rule`.
    pub fn find(&self, rule: &Rule) -> Option<RuleId> {
        let (base, over) = self.index_buckets(&rule.head.functor());
        base.iter()
            .chain(over)
            .map(|&i| self.stored(i))
            .find(|sr| *sr.rule == *rule)
            .map(|sr| sr.id)
    }

    /// Add a received rule only if not already present; returns whether it
    /// was inserted.
    pub fn add_received_dedup(&mut self, rule: Rule, from: PeerId) -> bool {
        if self.contains(&rule) {
            false
        } else {
            self.add_received(rule, from);
            true
        }
    }

    /// Clause-id bucket for `key` in each segment, as a pair of ascending
    /// slices whose concatenation is ascending (base ids < overlay ids).
    fn index_buckets(&self, key: &(Sym, usize)) -> (&[usize], &[usize]) {
        let base = self
            .base
            .as_deref()
            .and_then(|b| b.index.get(key))
            .map_or(&[][..], Vec::as_slice);
        let over = self.overlay.index.get(key).map_or(&[][..], Vec::as_slice);
        (base, over)
    }

    /// All rules whose head could match `goal` (same predicate and arity).
    /// Authority chains are *not* filtered here; the engine unifies them.
    pub fn candidates(&self, goal: &Literal) -> impl Iterator<Item = &StoredRule> {
        let key = goal.functor();
        // First-argument refinement: a ground constant first argument
        // narrows the scan to exact-key clauses plus variable-headed ones,
        // merged back into clause (insertion) order so resolution order is
        // unchanged. Every bucket is a base slice chained with an overlay
        // slice (ids ascend across the seam); the merge only allocates
        // when *both* the exact and variable buckets are non-empty — every
        // other shape iterates the index slices in place. This sits on the
        // hottest engine path (one call per goal selection).
        let ids = match goal.args.first().and_then(Term::index_key) {
            Some(k) => {
                let fa_key = (key.0, key.1, k);
                let exact_base = self
                    .base
                    .as_deref()
                    .and_then(|b| b.first_arg.get(&fa_key))
                    .map_or(&[][..], Vec::as_slice);
                let exact_over = self
                    .overlay
                    .first_arg
                    .get(&fa_key)
                    .map_or(&[][..], Vec::as_slice);
                let vars_base = self
                    .base
                    .as_deref()
                    .and_then(|b| b.var_headed.get(&key))
                    .map_or(&[][..], Vec::as_slice);
                let vars_over = self
                    .overlay
                    .var_headed
                    .get(&key)
                    .map_or(&[][..], Vec::as_slice);
                let no_exact = exact_base.is_empty() && exact_over.is_empty();
                let no_vars = vars_base.is_empty() && vars_over.is_empty();
                match (no_exact, no_vars) {
                    (true, _) => CandidateIds::Chained(vars_base.iter().chain(vars_over)),
                    (false, true) => CandidateIds::Chained(exact_base.iter().chain(exact_over)),
                    (false, false) => CandidateIds::Owned(
                        merge_ordered((exact_base, exact_over), (vars_base, vars_over)).into_iter(),
                    ),
                }
            }
            None => {
                let (base, over) = self.index_buckets(&key);
                CandidateIds::Chained(base.iter().chain(over))
            }
        };
        ids.map(move |i| self.stored(i))
    }

    /// Does some clause for `functor` have a head with an authority chain?
    /// When not, no clause head unifies with any goal that carries one —
    /// the engine skips its §3.2 self-closure pass on that basis.
    pub fn has_authority_heads(&self, functor: (Sym, usize)) -> bool {
        self.overlay.authority_headed.contains(&functor)
            || self
                .base
                .as_deref()
                .is_some_and(|b| b.authority_headed.contains(&functor))
    }

    /// Iterate over every stored rule, in insertion (global id) order.
    pub fn iter(&self) -> impl Iterator<Item = &StoredRule> {
        self.base
            .as_deref()
            .map_or(&[][..], |b| b.rules.as_slice())
            .iter()
            .chain(self.overlay.rules.iter())
    }

    /// Fetch by id.
    pub fn get(&self, id: RuleId) -> Option<&StoredRule> {
        let idx = id.0 as usize;
        if idx < self.len() {
            Some(self.stored(idx))
        } else {
            None
        }
    }

    /// Iterate over the signed bodyless ground rules — the peer's
    /// credentials (candidates for disclosure during negotiation).
    pub fn credentials(&self) -> impl Iterator<Item = &StoredRule> {
        self.iter().filter(|r| r.rule.is_credential())
    }

    /// Iterate over locally defined rules only.
    pub fn local_rules(&self) -> impl Iterator<Item = &StoredRule> {
        self.iter().filter(|r| r.origin == RuleOrigin::Local)
    }

    /// Distinct predicates (with arity) defined in this KB, in sorted
    /// order. Served from per-segment lists maintained on insert (disjoint
    /// by construction), not recollected from the index per call.
    pub fn predicates(&self) -> Vec<(Sym, usize)> {
        match self.base.as_deref() {
            None => self.overlay.sorted_predicates.clone(),
            Some(b) if self.overlay.sorted_predicates.is_empty() => b.sorted_predicates.clone(),
            Some(b) => merge_sorted_keys(&b.sorted_predicates, &self.overlay.sorted_predicates),
        }
    }
}

/// Clause ids from borrowed index slices (base chained with overlay, no
/// allocation) or an owned merge of the exact and variable buckets.
enum CandidateIds<'a> {
    Chained(std::iter::Chain<std::slice::Iter<'a, usize>, std::slice::Iter<'a, usize>>),
    Owned(std::vec::IntoIter<usize>),
}

impl Iterator for CandidateIds<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            CandidateIds::Chained(it) => it.next().copied(),
            CandidateIds::Owned(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            CandidateIds::Chained(it) => it.size_hint(),
            CandidateIds::Owned(it) => it.size_hint(),
        }
    }
}

/// Merge the exact-key and variable-headed buckets — each a pair of
/// ascending slices whose concatenation is ascending — back into one
/// ascending (insertion-order) clause-id list.
fn merge_ordered(exact: (&[usize], &[usize]), vars: (&[usize], &[usize])) -> Vec<usize> {
    let mut merged =
        Vec::with_capacity(exact.0.len() + exact.1.len() + vars.0.len() + vars.1.len());
    let mut e = exact.0.iter().chain(exact.1).peekable();
    let mut v = vars.0.iter().chain(vars.1).peekable();
    loop {
        match (e.peek(), v.peek()) {
            (Some(&&a), Some(&&b)) => {
                if a < b {
                    merged.push(a);
                    e.next();
                } else {
                    merged.push(b);
                    v.next();
                }
            }
            (Some(&&a), None) => {
                merged.push(a);
                e.next();
            }
            (None, Some(&&b)) => {
                merged.push(b);
                v.next();
            }
            (None, None) => break,
        }
    }
    merged
}

/// Merge two sorted, disjoint predicate lists into one sorted list.
fn merge_sorted_keys(a: &[(Sym, usize)], b: &[(Sym, usize)]) -> Vec<(Sym, usize)> {
    let mut merged = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            merged.push(a[i]);
            i += 1;
        } else {
            merged.push(b[j]);
            j += 1;
        }
    }
    merged.extend_from_slice(&a[i..]);
    merged.extend_from_slice(&b[j..]);
    merged
}

impl fmt::Display for KnowledgeBase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in self.iter() {
            writeln!(f, "{}", r.rule)?;
        }
        Ok(())
    }
}

impl FromIterator<Rule> for KnowledgeBase {
    fn from_iter<T: IntoIterator<Item = Rule>>(iter: T) -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        for r in iter {
            kb.add_local(r);
        }
        kb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    fn fact(pred: &str, arg: &str) -> Rule {
        Rule::fact(Literal::new(pred, vec![Term::atom(arg)]))
    }

    #[test]
    fn add_and_lookup_by_functor() {
        let mut kb = KnowledgeBase::new();
        kb.add_local(fact("freeCourse", "cs101"));
        kb.add_local(fact("freeCourse", "cs102"));
        kb.add_local(fact("price", "cs411"));

        let goal = Literal::new("freeCourse", vec![Term::var("C")]);
        assert_eq!(kb.candidates(&goal).count(), 2);
        let goal2 = Literal::new("price", vec![Term::var("C")]);
        assert_eq!(kb.candidates(&goal2).count(), 1);
        let goal3 = Literal::new("missing", vec![Term::var("C")]);
        assert_eq!(kb.candidates(&goal3).count(), 0);
    }

    #[test]
    fn arity_distinguishes_candidates() {
        let mut kb = KnowledgeBase::new();
        kb.add_local(Rule::fact(Literal::new("p", vec![Term::int(1)])));
        kb.add_local(Rule::fact(Literal::new(
            "p",
            vec![Term::int(1), Term::int(2)],
        )));
        let unary = Literal::new("p", vec![Term::var("X")]);
        assert_eq!(kb.candidates(&unary).count(), 1);
    }

    #[test]
    fn provenance_tracked() {
        let mut kb = KnowledgeBase::new();
        kb.add_local(fact("a", "x"));
        kb.add_received(fact("b", "y"), PeerId::new("UIUC"));
        assert_eq!(kb.local_rules().count(), 1);
        assert_eq!(kb.len(), 2);
        let received = kb
            .iter()
            .find(|r| r.origin == RuleOrigin::Received(PeerId::new("UIUC")))
            .unwrap();
        assert_eq!(received.rule.head.pred.as_str(), "b");
    }

    #[test]
    fn dedup_insertion() {
        let mut kb = KnowledgeBase::new();
        let cred = Rule::fact(Literal::new("student", vec![Term::str("Alice")])).signed_by("UIUC");
        assert!(kb.add_received_dedup(cred.clone(), PeerId::new("Alice")));
        assert!(!kb.add_received_dedup(cred, PeerId::new("Alice")));
        assert_eq!(kb.len(), 1);
    }

    #[test]
    fn credentials_filters_signed_ground_facts() {
        let mut kb = KnowledgeBase::new();
        kb.add_local(fact("plain", "x")); // unsigned
        kb.add_local(
            Rule::fact(Literal::new("student", vec![Term::str("Alice")])).signed_by("UIUC"),
        );
        kb.add_local(
            Rule::horn(
                Literal::new("d", vec![Term::var("X")]),
                vec![Literal::new("e", vec![Term::var("X")])],
            )
            .signed_by("UIUC"),
        ); // signed but not a fact
        assert_eq!(kb.credentials().count(), 1);
    }

    #[test]
    fn get_by_id_roundtrips() {
        let mut kb = KnowledgeBase::new();
        let id = kb.add_local(fact("a", "x"));
        assert_eq!(kb.get(id).unwrap().rule.head.pred.as_str(), "a");
        assert!(kb.get(RuleId(99)).is_none());
    }

    #[test]
    fn from_iterator_builds_local_kb() {
        let kb: KnowledgeBase = vec![fact("a", "x"), fact("b", "y")].into_iter().collect();
        assert_eq!(kb.len(), 2);
        assert_eq!(kb.local_rules().count(), 2);
    }

    #[test]
    fn predicates_sorted_unique() {
        let mut kb = KnowledgeBase::new();
        kb.add_local(fact("b", "x"));
        kb.add_local(fact("a", "y"));
        kb.add_local(fact("a", "z"));
        let preds = kb.predicates();
        assert_eq!(preds.len(), 2);
    }

    #[test]
    fn predicate_enumeration_is_insertion_order_independent() {
        // The cached sorted list must enumerate identically no matter
        // what order predicates were first inserted in.
        let names = ["delta", "alpha", "echo", "bravo", "charlie"];
        let mut forward = KnowledgeBase::new();
        for n in names {
            forward.add_local(fact(n, "x"));
        }
        let mut backward = KnowledgeBase::new();
        for n in names.iter().rev() {
            backward.add_local(fact(n, "x"));
            backward.add_local(fact(n, "y")); // duplicates must not re-insert
        }
        assert_eq!(forward.predicates(), backward.predicates());
        let mut expected = forward.predicates();
        expected.sort();
        assert_eq!(forward.predicates(), expected, "list is sorted");
    }

    /// The stored rule sequence, in global id order.
    fn rules(kb: &KnowledgeBase) -> Vec<(RuleId, Rule)> {
        kb.iter().map(|sr| (sr.id, (*sr.rule).clone())).collect()
    }

    /// Build the same KB twice: once flat, once frozen at every step of
    /// `freeze_at`. Used to pin freeze() as observationally invisible.
    fn flat_and_frozen(names: &[&str], freeze_at: &[usize]) -> (KnowledgeBase, KnowledgeBase) {
        let mut flat = KnowledgeBase::new();
        let mut cow = KnowledgeBase::new();
        for (i, n) in names.iter().enumerate() {
            if freeze_at.contains(&i) {
                cow.freeze();
            }
            flat.add_local(fact(n, "x"));
            cow.add_local(fact(n, "x"));
        }
        (flat, cow)
    }

    #[test]
    fn freeze_is_observationally_invisible() {
        let names = ["p", "q", "p", "r", "q", "s"];
        let (flat, mut cow) = flat_and_frozen(&names, &[0, 2, 3, 5]);
        cow.freeze();
        cow.freeze(); // idempotent
        assert_eq!(cow.frozen_len(), names.len());
        assert_eq!(flat.len(), cow.len());
        assert_eq!(rules(&flat), rules(&cow));
        assert_eq!(flat.predicates(), cow.predicates());
        assert_eq!(flat.to_string(), cow.to_string());
        for n in ["p", "q", "r", "s", "missing"] {
            let goal = Literal::new(n, vec![Term::atom("x")]);
            let a: Vec<u32> = flat.candidates(&goal).map(|r| r.id.0).collect();
            let b: Vec<u32> = cow.candidates(&goal).map(|r| r.id.0).collect();
            assert_eq!(a, b, "candidates for {n}");
        }
        for i in 0..names.len() as u32 {
            assert_eq!(
                flat.get(RuleId(i)).unwrap().rule,
                cow.get(RuleId(i)).unwrap().rule
            );
        }
        assert!(cow.contains(&fact("r", "x")));
        assert!(!cow.contains(&fact("r", "y")));
    }

    #[test]
    fn appends_after_freeze_continue_the_rule_sequence() {
        let (mut flat, mut cow) = flat_and_frozen(&["p", "q"], &[]);
        cow.freeze();
        flat.add_local(fact("r", "x"));
        cow.add_local(fact("r", "x"));
        assert_eq!(rules(&flat), rules(&cow));
        // Dedup must see both segments.
        assert!(!cow.add_received_dedup(fact("p", "x"), PeerId::new("A")));
        assert!(cow.add_received_dedup(fact("z", "x"), PeerId::new("A")));
        assert_eq!(cow.find(&fact("p", "x")), Some(RuleId(0)));
        assert_eq!(cow.find(&fact("r", "x")), Some(RuleId(2)));
        assert_eq!(cow.find(&fact("z", "x")), Some(RuleId(3)));
        assert_eq!(cow.find(&fact("r", "y")), None);
        // A duplicate added without the check is never the one found.
        cow.add_local(fact("p", "x"));
        assert_eq!(cow.find(&fact("p", "x")), Some(RuleId(0)));
    }

    #[test]
    fn stored_rules_list_their_variables_in_renaming_order() {
        let mut kb = KnowledgeBase::new();
        let fact_id = kb.add_local(fact("a", "x"));
        let rule = Rule::horn(
            Literal::new("p", vec![Term::var("Y"), Term::var("X")]),
            vec![Literal::new("q", vec![Term::var("X"), Term::var("Z")])],
        );
        let rule_id = kb.add_local(rule.clone());
        assert!(kb.get(fact_id).unwrap().vars().is_empty());
        assert_eq!(kb.get(rule_id).unwrap().vars(), rule.vars().as_slice());
        let names: Vec<_> = rule.vars().iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, ["Y", "X", "Z"]);
    }

    #[test]
    fn authority_heads_are_tracked_per_functor_across_freeze() {
        let mut kb = KnowledgeBase::new();
        kb.add_local(fact("p", "x"));
        let chained =
            |pred: &str| Rule::fact(Literal::new(pred, vec![Term::var("X")]).at(Term::str("A")));
        kb.add_local(chained("q"));
        kb.freeze();
        kb.add_local(chained("r"));
        let functor = |pred: &str| (Sym::new(pred), 1);
        assert!(!kb.has_authority_heads(functor("p")));
        assert!(kb.has_authority_heads(functor("q")), "from the base");
        assert!(kb.has_authority_heads(functor("r")), "from the overlay");
        assert!(
            !kb.has_authority_heads((Sym::new("q"), 2)),
            "arity is part of the key"
        );
        kb.freeze();
        assert!(kb.has_authority_heads(functor("q")) && kb.has_authority_heads(functor("r")));
    }

    #[test]
    fn clones_of_frozen_kbs_share_the_base() {
        let mut kb = KnowledgeBase::new();
        for n in ["p", "q", "r"] {
            kb.add_local(fact(n, "x"));
        }
        let unshared = kb.clone();
        assert!(!unshared.shares_base_with(&kb), "no base before freeze");
        kb.freeze();
        let shared = kb.clone();
        assert!(shared.shares_base_with(&kb));
        // Appends to the clone's overlay do not disturb the original.
        let mut grown = kb.clone();
        grown.add_local(fact("s", "x"));
        assert_eq!(grown.len(), 4);
        assert_eq!(kb.len(), 3);
        assert!(grown.shares_base_with(&kb));
    }
}

#[cfg(test)]
mod first_arg_tests {
    use super::*;
    use crate::term::Term;

    #[test]
    fn ground_first_arg_narrows_candidates() {
        let mut kb = KnowledgeBase::new();
        for i in 0..100 {
            kb.add_local(Rule::fact(Literal::new(
                "fact",
                vec![Term::int(i), Term::int(i * 2)],
            )));
        }
        // A variable-headed rule matches any first argument.
        kb.add_local(Rule::horn(
            Literal::new("fact", vec![Term::var("X"), Term::var("Y")]),
            vec![Literal::new(
                "derived",
                vec![Term::var("X"), Term::var("Y")],
            )],
        ));

        let goal = Literal::new("fact", vec![Term::int(42), Term::var("Y")]);
        let hits: Vec<_> = kb.candidates(&goal).collect();
        assert_eq!(hits.len(), 2, "exact fact + variable-headed rule");

        let open_goal = Literal::new("fact", vec![Term::var("A"), Term::var("B")]);
        assert_eq!(kb.candidates(&open_goal).count(), 101);
    }

    #[test]
    fn candidate_order_matches_insertion_order() {
        let mut kb = KnowledgeBase::new();
        kb.add_local(Rule::fact(Literal::new("p", vec![Term::var("X")]))); // id 0
        kb.add_local(Rule::fact(Literal::new("p", vec![Term::atom("a")]))); // id 1
        kb.add_local(Rule::fact(Literal::new("p", vec![Term::var("Y")]))); // id 2
        kb.add_local(Rule::fact(Literal::new("p", vec![Term::atom("a")]))); // id 3
        let goal = Literal::new("p", vec![Term::atom("a")]);
        let ids: Vec<u32> = kb.candidates(&goal).map(|sr| sr.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3], "merged in clause order");
    }

    #[test]
    fn candidate_order_is_preserved_across_the_freeze_seam() {
        // Exact/variable clauses interleave across the base/overlay
        // boundary; the 4-way merge must still yield insertion order.
        let mut kb = KnowledgeBase::new();
        kb.add_local(Rule::fact(Literal::new("p", vec![Term::var("X")]))); // id 0
        kb.add_local(Rule::fact(Literal::new("p", vec![Term::atom("a")]))); // id 1
        kb.freeze();
        kb.add_local(Rule::fact(Literal::new("p", vec![Term::var("Y")]))); // id 2
        kb.add_local(Rule::fact(Literal::new("p", vec![Term::atom("a")]))); // id 3
        let goal = Literal::new("p", vec![Term::atom("a")]);
        let ids: Vec<u32> = kb.candidates(&goal).map(|sr| sr.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3], "merged across the seam");
        // One-sided shapes chain without allocating.
        let var_goal = Literal::new("p", vec![Term::var("Z")]);
        assert_eq!(kb.candidates(&var_goal).count(), 4);
    }

    #[test]
    fn different_constant_kinds_do_not_collide() {
        let mut kb = KnowledgeBase::new();
        kb.add_local(Rule::fact(Literal::new("p", vec![Term::atom("x")])));
        kb.add_local(Rule::fact(Literal::new("p", vec![Term::str("x")])));
        kb.add_local(Rule::fact(Literal::new("p", vec![Term::int(1)])));
        kb.add_local(Rule::fact(Literal::new(
            "p",
            vec![Term::compound("x", vec![Term::int(1)])],
        )));
        assert_eq!(
            kb.candidates(&Literal::new("p", vec![Term::atom("x")]))
                .count(),
            1
        );
        assert_eq!(
            kb.candidates(&Literal::new("p", vec![Term::str("x")]))
                .count(),
            1
        );
        assert_eq!(
            kb.candidates(&Literal::new("p", vec![Term::int(1)]))
                .count(),
            1
        );
        // Compound goals match by functor (over-approximation refined by
        // unification later).
        assert_eq!(
            kb.candidates(&Literal::new(
                "p",
                vec![Term::compound("x", vec![Term::int(2)])]
            ))
            .count(),
            1
        );
    }

    #[test]
    fn zero_arity_predicates_use_var_bucket() {
        let mut kb = KnowledgeBase::new();
        kb.add_local(Rule::fact(Literal::new("ready", vec![])));
        assert_eq!(kb.candidates(&Literal::new("ready", vec![])).count(), 1);
    }
}
