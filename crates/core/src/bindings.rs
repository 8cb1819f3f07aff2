//! Trail-based destructive binding store — the solver's hot-path
//! alternative to cloning a [`Subst`] at every choice point.
//!
//! ## Why a trail
//!
//! SLD resolution explores alternatives: try a clause, and on failure (or
//! after exhausting its answers) undo its bindings and try the next one.
//! The textbook-naive implementation clones the whole substitution per
//! branch, making backtracking O(|all bindings|). The WAM discipline
//! implemented here makes it O(|bindings made on the failed branch|):
//! bindings are written destructively into one shared store, every write
//! is recorded on an *undo trail*, and a choice point is just a
//! [`Checkpoint`] — the trail length at branch entry. [`Bindings::rollback`]
//! pops trail entries back to the mark, unbinding exactly the variables
//! the abandoned branch bound.
//!
//! ## Slots vs. named variables
//!
//! The store is split by a version watermark `base`, fixed at
//! construction:
//!
//! * versions `> base` are **slot variables** — allocated during this
//!   derivation by [`crate::rule::Rule::rename_apart_indexed`] from a
//!   monotone counter, so each version is globally unique and maps to a
//!   dense index `version - base - 1` into a `Vec<Option<Term>>`. Binding
//!   and lookup are an array index, no hashing.
//! * versions `<= base` are **named variables** — query variables,
//!   canonical table-key variables and anything else that predates the
//!   derivation. They live in an [`FxHashMap`], which is fine: there are
//!   a handful of them per query, versus thousands of slot variables.
//!
//! The triangular [`Subst`] remains the boundary type (proofs, answer
//! tables, negotiation messages); [`Bindings::project`] converts at solve
//! exit.

use crate::hash::FxHashMap;
use crate::literal::Literal;
use crate::rule::Renaming;
use crate::subst::Subst;
use crate::term::{map_terms_cow, Term, Var};
use crate::unify::UnifyOptions;
use std::borrow::Cow;
use std::fmt;

/// A mark into the undo trail; obtained from [`Bindings::checkpoint`]
/// and consumed by [`Bindings::rollback`]. Plain data: taking one is
/// O(1) and allocation-free.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Checkpoint(usize);

/// Memo for [`Bindings::apply_memo`]: variable → fully resolved form
/// (`None` = unbound / unchanged). Sound only while the underlying
/// store is frozen — build a fresh cache after any bind or rollback.
#[derive(Default)]
pub struct ResolveCache {
    map: FxHashMap<Var, Option<Term>>,
}

/// One undo record: which variable the next rollback must unbind.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TrailEntry {
    /// A slot variable, by dense index into `slots`.
    Slot(u32),
    /// A named (pre-derivation) variable.
    Named(Var),
}

/// Counters for the `engine.trail.*` telemetry metrics. Monotone over
/// the life of the store; [`Bindings::take_stats`] drains them.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct TrailStats {
    /// Slot-variable bindings written (dense-index path).
    pub slot_binds: u64,
    /// Named-variable bindings written (hash-map path).
    pub named_binds: u64,
    /// Rollbacks performed.
    pub rollbacks: u64,
    /// Trail entries undone across all rollbacks.
    pub undone: u64,
    /// High-water mark of the trail length.
    pub peak_trail: u64,
    /// High-water mark of the slot vector length.
    pub peak_slots: u64,
}

/// The trail-based binding store. See the module docs for the model.
#[derive(Clone, Debug, Default)]
pub struct Bindings {
    /// Version watermark: versions above this are dense slots.
    base: u32,
    /// Slot bindings; index = `version - base - 1`.
    slots: Vec<Option<Term>>,
    /// Bindings for pre-derivation (named) variables.
    named: FxHashMap<Var, Term>,
    /// Undo log, one entry per binding ever written and not yet undone.
    trail: Vec<TrailEntry>,
    stats: TrailStats,
}

impl Bindings {
    /// An empty store whose slot region starts above `base`. The caller
    /// (the solver) must pick `base` at least as large as every variable
    /// version that exists *before* the derivation starts — query
    /// variables, canonical table-key variables — and allocate all
    /// in-derivation versions above it from one monotone counter.
    pub fn new(base: u32) -> Bindings {
        Bindings {
            base,
            ..Bindings::default()
        }
    }

    /// The slot watermark this store was built with.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Number of live bindings (slots and named).
    pub fn len(&self) -> usize {
        self.trail.len()
    }

    pub fn is_empty(&self) -> bool {
        self.trail.is_empty()
    }

    /// Mark the current trail position. O(1).
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint(self.trail.len())
    }

    /// Undo every binding made since `cp`, restoring the store to its
    /// state at [`Bindings::checkpoint`] time. O(bindings undone).
    pub fn rollback(&mut self, cp: Checkpoint) {
        debug_assert!(cp.0 <= self.trail.len(), "rollback past the trail head");
        self.stats.rollbacks += 1;
        while self.trail.len() > cp.0 {
            match self.trail.pop().expect("trail underflow") {
                TrailEntry::Slot(i) => self.slots[i as usize] = None,
                TrailEntry::Named(v) => {
                    self.named.remove(&v);
                }
            }
            self.stats.undone += 1;
        }
    }

    /// Bind `v` to `t`, recording the write on the trail. Callers (the
    /// unifier) must ensure `v` is unbound; checked in debug builds.
    pub fn bind(&mut self, v: Var, t: Term) {
        if v.version > self.base {
            let idx = (v.version - self.base - 1) as usize;
            if idx >= self.slots.len() {
                self.slots.resize(idx + 1, None);
                self.stats.peak_slots = self.stats.peak_slots.max(self.slots.len() as u64);
            }
            debug_assert!(self.slots[idx].is_none(), "rebinding slot {v:?}");
            self.slots[idx] = Some(t);
            self.trail.push(TrailEntry::Slot(idx as u32));
            self.stats.slot_binds += 1;
        } else {
            let prev = self.named.insert(v, t);
            debug_assert!(prev.is_none(), "rebinding {v:?}");
            self.trail.push(TrailEntry::Named(v));
            self.stats.named_binds += 1;
        }
        self.stats.peak_trail = self.stats.peak_trail.max(self.trail.len() as u64);
    }

    /// Raw lookup without chain dereferencing.
    pub fn lookup(&self, v: &Var) -> Option<&Term> {
        if v.version > self.base {
            self.slots
                .get((v.version - self.base - 1) as usize)?
                .as_ref()
        } else {
            self.named.get(v)
        }
    }

    /// Dereference `t` one level at a time until it is either a
    /// non-variable term or an unbound variable; does not descend into
    /// compound terms. Same contract as [`Subst::walk`].
    pub fn walk<'a>(&'a self, mut t: &'a Term) -> &'a Term {
        while let Term::Var(v) = t {
            match self.lookup(v) {
                Some(next) => t = next,
                None => break,
            }
        }
        t
    }

    /// Fully resolve `t`, replacing every bound variable (recursively)
    /// by its binding. Unchanged subterms — all ground subterms in
    /// particular — are shared with the input (`Arc` bump), not rebuilt.
    pub fn apply(&self, t: &Term) -> Term {
        if self.trail.is_empty() {
            return t.clone();
        }
        self.resolve_opt(t).unwrap_or_else(|| t.clone())
    }

    /// Copy-on-write resolution: `None` means `t` is unchanged under the
    /// current bindings (keep the original, no allocation).
    fn resolve_opt(&self, t: &Term) -> Option<Term> {
        match t {
            Term::Atom(_) | Term::Str(_) | Term::Int(_) => None,
            Term::Var(_) => {
                let w = self.walk(t);
                if std::ptr::eq(w, t) {
                    return None; // unbound: walk returned the input itself
                }
                Some(self.resolve_opt(w).unwrap_or_else(|| w.clone()))
            }
            Term::Compound(f, args) => {
                map_terms_cow(args, |a| self.resolve_opt(a)).map(|v| Term::Compound(*f, v.into()))
            }
        }
    }

    /// Apply to every argument and authority of a literal, with the same
    /// sharing discipline as [`Bindings::apply`].
    pub fn apply_literal(&self, l: &Literal) -> Literal {
        self.apply_literal_cow(l).into_owned()
    }

    /// Copy-on-write [`Bindings::apply_literal`]: borrows `l` when none
    /// of its variables is bound, instead of copying it. The solver
    /// resolves every selected goal through this.
    pub fn apply_literal_cow<'l>(&self, l: &'l Literal) -> Cow<'l, Literal> {
        if self.trail.is_empty() {
            return Cow::Borrowed(l);
        }
        let args = map_terms_cow(&l.args, |t| self.resolve_opt(t));
        let authority = map_terms_cow(&l.authority, |t| self.resolve_opt(t));
        if args.is_none() && authority.is_none() {
            return Cow::Borrowed(l);
        }
        Cow::Owned(Literal {
            pred: l.pred,
            args: args.unwrap_or_else(|| l.args.clone()),
            authority: authority.unwrap_or_else(|| l.authority.clone()),
        })
    }

    /// [`Bindings::apply`] with a memo over a *frozen* store: every
    /// variable resolved while the cache is live — chain intermediates
    /// included — is resolved at most once. Deep binding chains (the
    /// transitive-closure pattern: `Z0 -> Z1 -> ... -> Zk -> value`)
    /// make the uncached resolver quadratic across a proof tree; the
    /// cache makes each chain link amortized O(1). The caller must not
    /// bind or roll back between uses of the same cache.
    pub fn apply_memo(&self, t: &Term, cache: &mut ResolveCache) -> Term {
        if self.trail.is_empty() {
            return t.clone();
        }
        self.resolve_memo_opt(t, cache).unwrap_or_else(|| t.clone())
    }

    /// Copy-on-write memoized resolution: `None` means unchanged under
    /// the current bindings. The cache stores the same `Option` per
    /// variable, so "unbound" is remembered as cheaply as a hit.
    fn resolve_memo_opt(&self, t: &Term, cache: &mut ResolveCache) -> Option<Term> {
        match t {
            Term::Atom(_) | Term::Str(_) | Term::Int(_) => None,
            Term::Var(v) => {
                if let Some(hit) = cache.map.get(v) {
                    return hit.clone();
                }
                let res = self.lookup(v).map(|next| {
                    // Clone breaks the borrow on `self` so the recursion
                    // can take `cache` mutably; bindings are Arc-backed,
                    // so this is a pointer bump for compounds.
                    let next = next.clone();
                    self.resolve_memo_opt(&next, cache).unwrap_or(next)
                });
                cache.map.insert(*v, res.clone());
                res
            }
            Term::Compound(f, args) => map_terms_cow(args, |a| self.resolve_memo_opt(a, cache))
                .map(|v| Term::Compound(*f, v.into())),
        }
    }

    /// [`Bindings::apply_literal`] through the memo cache.
    pub fn apply_literal_memo(&self, l: &Literal, cache: &mut ResolveCache) -> Literal {
        self.apply_literal_memo_opt(l, cache)
            .unwrap_or_else(|| l.clone())
    }

    /// Copy-on-write [`Bindings::apply_literal_memo`]: `None` means the
    /// literal is unchanged under the current bindings — the caller keeps
    /// (or shares) the original with no rebuild. This is what lets a
    /// proof tree whose goals are already fully resolved — every reused
    /// tabled answer — pass through solution capture allocation-free.
    pub fn apply_literal_memo_opt(&self, l: &Literal, cache: &mut ResolveCache) -> Option<Literal> {
        if self.trail.is_empty() || l.is_ground() {
            return None;
        }
        let args = map_terms_cow(&l.args, |t| self.resolve_memo_opt(t, cache));
        let authority = map_terms_cow(&l.authority, |t| self.resolve_memo_opt(t, cache));
        if args.is_none() && authority.is_none() {
            return None;
        }
        Some(Literal {
            pred: l.pred,
            args: args.unwrap_or_else(|| l.args.clone()),
            authority: authority.unwrap_or_else(|| l.authority.clone()),
        })
    }

    /// Project onto `vars` as a triangular [`Subst`] — the conversion
    /// back to the boundary type at solve exit. Fully resolves each
    /// variable, drops identity bindings.
    pub fn project(&self, vars: &[Var]) -> Subst {
        let mut out = Subst::new();
        for v in vars {
            let t = Term::Var(*v);
            let resolved = self.apply(&t);
            if resolved != t {
                out.bind(*v, resolved);
            }
        }
        out
    }

    /// Drain the telemetry counters accumulated since the last call.
    pub fn take_stats(&mut self) -> TrailStats {
        std::mem::take(&mut self.stats)
    }

    /// Read the telemetry counters without resetting them.
    pub fn stats(&self) -> TrailStats {
        self.stats
    }
}

/// Logical-state equality: same watermark, same live bindings, same
/// trail. Slot-vector capacity that rollback left behind (trailing
/// unbound slots) and telemetry counters are not part of the state.
impl PartialEq for Bindings {
    fn eq(&self, other: &Bindings) -> bool {
        let live = |s: &Bindings| {
            s.slots
                .iter()
                .rposition(Option::is_some)
                .map_or(0, |i| i + 1)
        };
        self.base == other.base
            && self.trail == other.trail
            && self.slots[..live(self)] == other.slots[..live(other)]
            && self.named == other.named
    }
}

impl Eq for Bindings {}

impl fmt::Display for Bindings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        let mut first = true;
        for (i, t) in self.slots.iter().enumerate() {
            if let Some(t) = t {
                if !first {
                    f.write_str(", ")?;
                }
                write!(f, "_s{} -> {t}", i as u64 + u64::from(self.base) + 1)?;
                first = false;
            }
        }
        let mut named: Vec<_> = self.named.iter().collect();
        named.sort_by_key(|(v, _)| **v);
        for (v, t) in named {
            if !first {
                f.write_str(", ")?;
            }
            write!(f, "{v} -> {t}")?;
            first = false;
        }
        f.write_str("}")
    }
}

/// Unify `a` and `b` destructively against `bs`, with the default
/// occurs-check. On failure the store is rolled back to its entry state
/// — unlike the [`Subst`] unifier, no partial bindings leak out, so
/// callers need neither clone nor checkpoint around a single call.
pub fn unify_in(a: &Term, b: &Term, bs: &mut Bindings) -> bool {
    unify_opts_in(a, b, bs, UnifyOptions::default())
}

/// [`unify_in`] with explicit options.
pub fn unify_opts_in(a: &Term, b: &Term, bs: &mut Bindings, opts: UnifyOptions) -> bool {
    let cp = bs.checkpoint();
    if unify_raw(a, b, bs, opts) {
        true
    } else {
        bs.rollback(cp);
        false
    }
}

/// Unify two literals destructively: predicates, arities, arguments and
/// authority chains must all match (authority chains positionally, equal
/// length). Rolls back to the entry state on failure.
pub fn unify_literals_in(a: &Literal, b: &Literal, bs: &mut Bindings) -> bool {
    if a.pred != b.pred || a.args.len() != b.args.len() || a.authority.len() != b.authority.len() {
        return false;
    }
    let opts = UnifyOptions::default();
    let cp = bs.checkpoint();
    let ok = a
        .args
        .iter()
        .zip(&b.args)
        .all(|(x, y)| unify_raw(x, y, bs, opts))
        && a.authority
            .iter()
            .zip(&b.authority)
            .all(|(x, y)| unify_raw(x, y, bs, opts));
    if !ok {
        bs.rollback(cp);
    }
    ok
}

/// [`unify_literals_in`] against a rule head standardized apart by
/// `ren`, without building the renamed head: each head variable is read
/// as its renamed version when unification reaches it, and a head
/// subterm is renamed only when a goal variable binds to it. The unify
/// steps, bindings, checkpoint and rollback are exactly those of
/// `unify_literals_in(&renamed.head, target, bs)`, where `renamed` is
/// [`crate::rule::Rule::rename_apart_indexed`] from the same counter, so
/// the store ends in the same state, trail included (proptested).
pub fn unify_head_in(
    head: &Literal,
    ren: Renaming<'_>,
    target: &Literal,
    bs: &mut Bindings,
) -> bool {
    if head.pred != target.pred
        || head.args.len() != target.args.len()
        || head.authority.len() != target.authority.len()
    {
        return false;
    }
    let opts = UnifyOptions::default();
    let cp = bs.checkpoint();
    let ok = head
        .args
        .iter()
        .zip(&target.args)
        .chain(head.authority.iter().zip(&target.authority))
        .all(|(h, t)| unify_renamed_raw(h, ren, t, bs, opts));
    if !ok {
        bs.rollback(cp);
    }
    ok
}

/// [`unify_raw`] with the left side renamed by `ren` as it is read.
fn unify_renamed_raw(
    h: &Term,
    ren: Renaming<'_>,
    b: &Term,
    bs: &mut Bindings,
    opts: UnifyOptions,
) -> bool {
    match h {
        Term::Var(v) => unify_raw(&Term::Var(ren.var(*v)), b, bs, opts),
        // A renamed compound is never a variable, so `unify_raw` would
        // either bind a goal variable to it or descend pairwise.
        Term::Compound(f, xs) => match bs.walk(b) {
            Term::Var(y) => {
                let y = *y;
                let t = ren.term(h);
                if opts.occurs_check && occurs_resolved_in(&y, &t, bs) {
                    return false;
                }
                bs.bind(y, t);
                true
            }
            Term::Compound(g, ys) => {
                if f != g || xs.len() != ys.len() {
                    return false;
                }
                let ys = ys.clone();
                xs.iter()
                    .zip(ys.iter())
                    .all(|(x, y)| unify_renamed_raw(x, ren, y, bs, opts))
            }
            _ => false,
        },
        // Constants read the same under any renaming.
        Term::Atom(_) | Term::Str(_) | Term::Int(_) => unify_raw(h, b, bs, opts),
    }
}

/// The destructive unification core; may leave partial bindings behind
/// on failure (the public wrappers roll back).
fn unify_raw(a: &Term, b: &Term, bs: &mut Bindings, opts: UnifyOptions) -> bool {
    match (bs.walk(a), bs.walk(b)) {
        (Term::Var(x), Term::Var(y)) if x == y => true,
        (Term::Var(x), t) | (t, Term::Var(x)) => {
            let x = *x;
            let t = t.clone();
            if opts.occurs_check && occurs_resolved_in(&x, &t, bs) {
                return false;
            }
            bs.bind(x, t);
            true
        }
        (Term::Atom(x), Term::Atom(y)) => x == y,
        (Term::Str(x), Term::Str(y)) => x == y,
        (Term::Int(x), Term::Int(y)) => x == y,
        (Term::Compound(f, xs), Term::Compound(g, ys)) => {
            if f != g || xs.len() != ys.len() {
                return false;
            }
            let (xs, ys) = (xs.clone(), ys.clone());
            xs.iter()
                .zip(ys.iter())
                .all(|(x, y)| unify_raw(x, y, bs, opts))
        }
        _ => false,
    }
}

/// Occurs check through the store: does `v` occur in `t` once all bound
/// variables in `t` are dereferenced?
fn occurs_resolved_in(v: &Var, t: &Term, bs: &Bindings) -> bool {
    match bs.walk(t) {
        Term::Var(w) => w == v,
        Term::Atom(_) | Term::Str(_) | Term::Int(_) => false,
        Term::Compound(_, args) => args.iter().any(|a| occurs_resolved_in(v, a, bs)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(name: &str) -> Term {
        Term::var(name)
    }

    fn slot(name: &str, version: u32) -> Var {
        Var::versioned(name, version)
    }

    #[test]
    fn slot_and_named_bindings_roundtrip() {
        let mut bs = Bindings::new(10);
        // Version 0: named path. Version 11: slot path.
        bs.bind(Var::new("Q"), Term::int(1));
        bs.bind(slot("X", 11), Term::int(2));
        assert_eq!(bs.lookup(&Var::new("Q")), Some(&Term::int(1)));
        assert_eq!(bs.lookup(&slot("X", 11)), Some(&Term::int(2)));
        assert_eq!(bs.len(), 2);
        let st = bs.stats();
        assert_eq!((st.slot_binds, st.named_binds), (1, 1));
    }

    #[test]
    fn rollback_restores_entry_state() {
        let mut bs = Bindings::new(0);
        bs.bind(slot("A", 1), Term::int(1));
        let before = bs.clone();
        let cp = bs.checkpoint();
        bs.bind(slot("B", 2), Term::int(2));
        bs.bind(Var::new("Q"), Term::atom("a"));
        assert_ne!(bs, before);
        bs.rollback(cp);
        assert_eq!(bs, before);
        assert_eq!(bs.lookup(&slot("B", 2)), None);
        assert_eq!(bs.lookup(&Var::new("Q")), None);
        assert_eq!(bs.lookup(&slot("A", 1)), Some(&Term::int(1)));
    }

    #[test]
    fn unify_failure_leaves_no_partial_bindings() {
        let mut bs = Bindings::new(0);
        // f(X, 1) vs f(2, 2): X binds to 2, then 1 vs 2 fails — the
        // X binding must be rolled back.
        let a = Term::compound("f", vec![v("X"), Term::int(1)]);
        let b = Term::compound("f", vec![Term::int(2), Term::int(2)]);
        assert!(!unify_in(&a, &b, &mut bs));
        assert!(bs.is_empty());
        assert_eq!(bs.lookup(&Var::new("X")), None);
    }

    #[test]
    fn unify_literals_in_rolls_back_authority_failures() {
        let mut bs = Bindings::new(0);
        let a = Literal::new("p", vec![v("X")]).at(Term::str("A"));
        let b = Literal::new("p", vec![Term::int(1)]).at(Term::str("B"));
        assert!(!unify_literals_in(&a, &b, &mut bs));
        assert!(bs.is_empty());
    }

    #[test]
    fn occurs_check_matches_subst_unifier() {
        let mut bs = Bindings::new(0);
        let t = Term::compound("f", vec![v("X")]);
        assert!(!unify_in(&v("X"), &t, &mut bs));
        assert!(bs.is_empty());
        assert!(unify_opts_in(
            &v("X"),
            &t,
            &mut bs,
            UnifyOptions {
                occurs_check: false
            }
        ));
    }

    #[test]
    fn apply_shares_unchanged_subterms() {
        let mut bs = Bindings::new(0);
        let ground = Term::compound("g", vec![Term::int(1), Term::int(2)]);
        let t = Term::compound("f", vec![v("X"), ground.clone()]);
        bs.bind(Var::new("X"), Term::int(9));
        let applied = bs.apply(&t);
        assert_eq!(
            applied,
            Term::compound("f", vec![Term::int(9), ground.clone()])
        );
        // The ground subterm is the same allocation, not a rebuild.
        match (&applied, &t) {
            (Term::Compound(_, xs), Term::Compound(_, ys)) => match (&xs[1], &ys[1]) {
                (Term::Compound(_, a), Term::Compound(_, b)) => {
                    assert!(std::sync::Arc::ptr_eq(a, b));
                }
                _ => panic!("expected compounds"),
            },
            _ => panic!("expected compounds"),
        }
    }

    #[test]
    fn project_resolves_chains_to_subst() {
        let mut bs = Bindings::new(0);
        assert!(unify_in(&v("X"), &v("Y"), &mut bs));
        assert!(unify_in(&v("Y"), &Term::int(7), &mut bs));
        let s = bs.project(&[Var::new("X"), Var::new("Z")]);
        assert_eq!(s.apply(&v("X")), Term::int(7));
        assert_eq!(s.lookup(&Var::new("Z")), None);
    }

    #[test]
    fn apply_literal_memo_opt_reports_unchanged() {
        let mut bs = Bindings::new(0);
        let lit = Literal::new("p", vec![v("G"), Term::int(1)]);
        let mut cache = ResolveCache::default();
        // No bindings at all: always unchanged.
        assert!(bs.apply_literal_memo_opt(&lit, &mut cache).is_none());
        bs.bind(Var::new("G"), Term::int(2));
        let resolved = bs.apply_literal_memo_opt(&lit, &mut cache);
        assert_eq!(
            resolved,
            Some(Literal::new("p", vec![Term::int(2), Term::int(1)]))
        );
        // Ground literal: unchanged even with a non-empty trail.
        let ground = Literal::new("p", vec![Term::int(3)]);
        assert!(bs.apply_literal_memo_opt(&ground, &mut cache).is_none());
    }

    #[test]
    fn display_lists_bindings() {
        let mut bs = Bindings::new(0);
        bs.bind(Var::new("Q"), Term::int(3));
        assert_eq!(bs.to_string(), "{Q -> 3}");
    }
}
