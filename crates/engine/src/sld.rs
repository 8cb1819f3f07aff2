//! SLD resolution over a peer's knowledge base, with proof construction
//! and a pluggable hook for remote (delegated) goals.
//!
//! This is the Rust equivalent of the paper's Prolog meta-interpreters
//! (§6): leftmost goal selection, clause order as stored in the KB, plus
//! three guards MINERVA lacked — a depth bound, a resolution-step budget,
//! and an ancestor *variant* loop check (a goal identical up to variable
//! renaming to an open ancestor goal is pruned).
//!
//! ## Authority handling (paper §3.1 / §3.2)
//!
//! For a selected goal `g` whose outermost authority (the last `@` in
//! program order) is:
//!
//! * **the local peer** — the authority is stripped and the inner literal
//!   proved locally (`lit @ Self ≡ lit`);
//! * **another peer `P`** — local clauses are tried first (cached signed
//!   rules let a peer "mimic the reasoning processes of other peers");
//!   if no local clause unifies and a [`RemoteHook`] is installed, the
//!   engine asks the hook to resolve `g` at `P`. The hook is how the
//!   negotiation layer turns goals into network queries;
//! * **a variable** — only local clauses are tried (the negotiation layer's
//!   authority database binds authorities *before* they are consulted,
//!   §4.2's `authority(purchaseApproved, Authority)` pattern).
//!
//! Every solution carries a [`Proof`] tree recording which rules, builtins
//! and remote answers established it — the paper's "distributed certified
//! proof" — from which the negotiation layer extracts the credentials to
//! disclose.

use crate::builtins::{eval_builtin_in, BuiltinOutcomeIn};
use crate::table::{AnswerTable, ConcurrentTable, Disposition, Probe, TableStats, TabledAnswer};
use peertrust_core::{
    unify_head_in, unify_literals_in, Bindings, FxHashMap, KnowledgeBase, Literal, PeerId,
    Renaming, ResolveCache, RuleId, Subst, Term, TrailStats, Var,
};
use peertrust_telemetry::{Field, Telemetry};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// A shareable answer table: pass the same handle to successive solvers
/// over the *same* knowledge base to keep memoized answers warm across
/// [`Solver::solve`] calls.
pub type SharedTable = Rc<RefCell<AnswerTable>>;

/// The solver's tabling backend: either the single-threaded
/// `Rc<RefCell<AnswerTable>>` (the default — zero synchronization) or an
/// `Arc<ConcurrentTable>` shared between solver threads evaluating the
/// same knowledge base.
///
/// Both variants expose the same probe/begin/complete protocol, so the
/// solver's tabling step is written once against this handle. The `Local`
/// arm compiles down to the exact `RefCell` borrow sequence the solver
/// used before the handle existed; no atomics or locks appear on the
/// single-threaded path.
#[derive(Clone)]
pub enum TableHandle {
    /// Single-threaded table (what `config.tabling` creates lazily).
    Local(SharedTable),
    /// Sharded, lock-per-shard table for multi-threaded batch workloads.
    Concurrent(Arc<ConcurrentTable>),
}

impl TableHandle {
    /// Classify a goal variant: reusable, inline-only, or fresh. Counts
    /// the hit / inline-fallback on the matching branch.
    fn probe(&self, key: &Literal) -> Probe {
        match self {
            TableHandle::Local(t) => {
                let mut t = t.borrow_mut();
                if t.in_progress(key) || t.disposition(key) == Some(Disposition::Incomplete) {
                    t.note_inline_fallback();
                    return Probe::Inline;
                }
                match t.lookup(key) {
                    Some(answers) => Probe::Reuse(answers.to_vec()),
                    None => Probe::Fresh,
                }
            }
            TableHandle::Concurrent(t) => t.probe(key),
        }
    }

    fn begin(&self, key: Literal) {
        match self {
            TableHandle::Local(t) => t.borrow_mut().begin(key),
            TableHandle::Concurrent(t) => t.begin(key),
        }
    }

    fn complete(&self, key: Literal, disposition: Disposition, answers: Vec<TabledAnswer>) {
        match self {
            TableHandle::Local(t) => t.borrow_mut().complete(key, disposition, answers),
            TableHandle::Concurrent(t) => t.complete(key, disposition, answers),
        }
    }

    fn note_inline_fallback(&self) {
        match self {
            TableHandle::Local(t) => t.borrow_mut().note_inline_fallback(),
            TableHandle::Concurrent(t) => t.note_inline_fallback(),
        }
    }

    /// Counter snapshot (shared across all holders of this handle).
    pub fn stats(&self) -> TableStats {
        match self {
            TableHandle::Local(t) => t.borrow().stats(),
            TableHandle::Concurrent(t) => t.stats(),
        }
    }

    /// Number of variants with a recorded entry.
    pub fn len(&self) -> usize {
        match self {
            TableHandle::Local(t) => t.borrow().len(),
            TableHandle::Concurrent(t) => t.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total answers stored across all entries.
    pub fn answer_count(&self) -> usize {
        match self {
            TableHandle::Local(t) => t.borrow().answer_count(),
            TableHandle::Concurrent(t) => t.answer_count(),
        }
    }
}

/// When to consult the remote hook for a goal routed to another peer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RemoteFallback {
    /// Never go remote: purely local evaluation.
    Never,
    /// Go remote only when no local clause unifies with the goal
    /// (default — avoids redundant network queries when a cached signed
    /// rule already covers the goal).
    OnlyIfNoLocalClause,
    /// Always also ask the remote peer (completeness experiments).
    Always,
}

/// Engine tuning and guard parameters.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Maximum proof depth (rule-application nesting).
    pub max_depth: usize,
    /// Stop after this many solutions.
    pub max_solutions: usize,
    /// Hard budget on resolution steps (guards cyclic policies, E11).
    pub max_steps: u64,
    /// Prune goals that are variants of an open ancestor goal.
    pub ancestor_loop_check: bool,
    /// Remote consultation policy.
    pub remote_fallback: RemoteFallback,
    /// Memoize answers to authority-free goals in an [`AnswerTable`]
    /// (see `crate::table` for the completion policy and soundness
    /// argument). Off by default: tabling trades memory for speed and is
    /// only sound across solve calls while the KB grows monotonically.
    pub tabling: bool,
    /// Cap on answers collected per tabled variant; a variant that hits
    /// the cap is recorded incomplete and resolved inline thereafter.
    pub table_max_answers: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_depth: 128,
            max_solutions: 64,
            max_steps: 1_000_000,
            ancestor_loop_check: true,
            remote_fallback: RemoteFallback::OnlyIfNoLocalClause,
            tabling: false,
            table_max_answers: 512,
        }
    }
}

/// Callback for goals delegated to other peers.
pub trait RemoteHook {
    /// Resolve `goal` (whose outermost authority is `peer`) remotely.
    ///
    /// The implementation sends `goal.strip_outer_authority()` to `peer`
    /// and returns the answer instances of that *inner* literal. An empty
    /// vector means the peer produced no answers (or refused).
    fn resolve_remote(&mut self, peer: PeerId, inner_goal: &Literal) -> Vec<Literal>;
}

/// A no-op hook: remote goals simply fail.
pub struct NoRemote;

impl RemoteHook for NoRemote {
    fn resolve_remote(&mut self, _peer: PeerId, _goal: &Literal) -> Vec<Literal> {
        Vec::new()
    }
}

/// How one proof node was established.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofStep {
    /// Application of a KB rule (children prove its body).
    Rule(RuleId),
    /// A builtin evaluation.
    Builtin,
    /// `lit @ Self` stripped to `lit` (single child proves the inner goal).
    SelfAuthority,
    /// Answered by a remote peer (leaf; the remote peer holds the sub-proof).
    Remote(PeerId),
    /// Negation as failure: the negated goal was exhaustively refuted
    /// against the local knowledge base (leaf).
    Negation,
}

/// A node in a certified proof tree.
///
/// Children are `Arc`-shared: a tabled answer's proof is reused at every
/// call site, and solution extraction resolves trees copy-on-write — so
/// an unchanged (already-ground) subtree is one pointer bump instead of a
/// deep rebuild. `Proof` itself stays a by-value type at the API
/// boundary ([`Solution::proofs`], [`TabledAnswer`]); only the interior
/// edges are shared.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Proof {
    /// The goal this node establishes, resolved under the final answer
    /// substitution.
    pub goal: Literal,
    pub step: ProofStep,
    pub children: Vec<Arc<Proof>>,
}

impl Proof {
    /// Every KB rule used anywhere in the proof.
    pub fn used_rules(&self) -> Vec<RuleId> {
        let mut out = Vec::new();
        self.walk(&mut |p| {
            if let ProofStep::Rule(id) = p.step {
                if !out.contains(&id) {
                    out.push(id);
                }
            }
        });
        out
    }

    /// Every remote answer `(peer, goal)` the proof depends on.
    pub fn remote_dependencies(&self) -> Vec<(PeerId, Literal)> {
        let mut out = Vec::new();
        self.walk(&mut |p| {
            if let ProofStep::Remote(peer) = p.step {
                out.push((peer, p.goal.clone()));
            }
        });
        out
    }

    /// Total node count.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(|c| c.size()).sum::<usize>()
    }

    /// Tree height: 1 for a leaf.
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(|c| c.depth()).max().unwrap_or(0)
    }

    fn walk(&self, f: &mut impl FnMut(&Proof)) {
        f(self);
        for c in &self.children {
            c.walk(f);
        }
    }

    /// Resolve every goal in the tree against `bs` through a shared
    /// memo: the tree for a depth-k answer revisits the same binding
    /// chains at every level, so uncached resolution is quadratic in k.
    fn resolve(&self, bs: &Bindings, cache: &mut ResolveCache) -> Proof {
        // Shallow clone when nothing resolves differently — ground
        // subtrees (the common case once answers are concrete) are
        // shared, not rebuilt.
        self.resolve_cow(bs, cache).unwrap_or_else(|| self.clone())
    }

    /// Copy-on-write resolution: `None` means every goal in the tree is
    /// already fully resolved under `bs`, so the caller can share `self`.
    fn resolve_cow(&self, bs: &Bindings, cache: &mut ResolveCache) -> Option<Proof> {
        let goal = bs.apply_literal_memo_opt(&self.goal, cache);
        let mut children: Option<Vec<Arc<Proof>>> = None;
        for (i, c) in self.children.iter().enumerate() {
            match c.resolve_cow(bs, cache) {
                Some(changed) => children
                    .get_or_insert_with(|| self.children[..i].to_vec())
                    .push(Arc::new(changed)),
                None => {
                    if let Some(v) = children.as_mut() {
                        v.push(Arc::clone(c));
                    }
                }
            }
        }
        if goal.is_none() && children.is_none() {
            return None;
        }
        Some(Proof {
            goal: goal.unwrap_or_else(|| self.goal.clone()),
            step: self.step.clone(),
            children: children.unwrap_or_else(|| self.children.clone()),
        })
    }
}

/// One answer to a query.
#[derive(Clone, Debug)]
pub struct Solution {
    /// Bindings projected onto the query's variables.
    pub subst: Subst,
    /// One proof tree per top-level goal.
    pub proofs: Vec<Proof>,
}

/// Evaluation statistics (inputs to experiments E8/E11).
#[derive(Clone, Copy, Default, Debug)]
pub struct Stats {
    /// Resolution steps (goal selections).
    pub steps: u64,
    /// Remote hook invocations.
    pub remote_calls: u64,
    /// Branches pruned by the depth bound.
    pub depth_cutoffs: u64,
    /// Branches pruned by the ancestor variant check.
    pub loop_prunes: u64,
    /// Candidate rules whose heads were tried against a goal.
    pub rule_tries: u64,
    /// Head/answer unification attempts.
    pub unify_attempts: u64,
    /// Builtin evaluations.
    pub builtin_evals: u64,
    /// Trail bindings written (slot + named), across all derivations.
    pub trail_binds: u64,
    /// Choice-point rollbacks performed.
    pub trail_rollbacks: u64,
    /// Trail entries undone by rollbacks (the work backtracking actually
    /// did — compare with what clone-per-branch would have copied).
    pub trail_undone: u64,
    /// High-water mark of the trail length.
    pub trail_peak: u64,
    /// High-water mark of the dense variable-slot vector.
    pub slot_peak: u64,
    /// Whether the step budget was exhausted (result may be incomplete).
    pub step_budget_exhausted: bool,
}

impl Stats {
    /// Fold one binding store's counters into the evaluation stats.
    fn absorb_trail(&mut self, t: TrailStats) {
        self.trail_binds += t.slot_binds + t.named_binds;
        self.trail_rollbacks += t.rollbacks;
        self.trail_undone += t.undone;
        self.trail_peak = self.trail_peak.max(t.peak_trail);
        self.slot_peak = self.slot_peak.max(t.peak_slots);
    }
}

/// The SLD solver. Borrow a KB, configure, and call [`Solver::solve`].
pub struct Solver<'a> {
    kb: &'a KnowledgeBase,
    self_id: PeerId,
    config: EngineConfig,
    hook: Option<&'a mut dyn RemoteHook>,
    rename_counter: u32,
    stats: Stats,
    telemetry: Telemetry,
    table: Option<TableHandle>,
}

/// Work items on the evaluation agenda.
enum GoalItem {
    /// Prove this literal at the given depth.
    Lit(Literal, usize),
    /// Marker: the previous `arity` proofs complete `goal` via `step`.
    Fold {
        goal: Literal,
        step: ProofStep,
        arity: usize,
    },
}

/// The evaluation agenda as a persistent cons list. Resolving a goal
/// against a clause pushes the clause body in front of the `Rc`-shared
/// continuation; the continuation itself — O(depth) items on recursive
/// programs — is never copied. (With a `Vec` agenda, every successful
/// head match cloned the whole remainder, which made deep chains
/// quadratic in allocations.)
type Agenda = Option<Rc<AgendaNode>>;

struct AgendaNode {
    item: GoalItem,
    next: Agenda,
}

fn cons(item: GoalItem, next: Agenda) -> Agenda {
    Some(Rc::new(AgendaNode { item, next }))
}

/// The open ancestors of the selected goal: the `Fold` node of every
/// alternative still being proven, shared with the agenda rather than
/// copied.
type Ancestors = Vec<Rc<AgendaNode>>;

impl AgendaNode {
    /// The goal of an ancestor entry.
    fn fold_goal(&self) -> &Literal {
        match &self.item {
            GoalItem::Fold { goal, .. } => goal,
            GoalItem::Lit(..) => unreachable!("ancestors are fold nodes"),
        }
    }
}

/// Distinct variables of `goals`, in first-occurrence order.
fn distinct_vars(goals: &[Literal]) -> Vec<Var> {
    let mut vars: Vec<Var> = Vec::new();
    for g in goals {
        for v in g.vars() {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
    }
    vars
}

enum Flow {
    Continue,
    Stop,
}

impl<'a> Solver<'a> {
    pub fn new(kb: &'a KnowledgeBase, self_id: PeerId) -> Solver<'a> {
        Solver {
            kb,
            self_id,
            config: EngineConfig::default(),
            hook: None,
            rename_counter: 0,
            stats: Stats::default(),
            telemetry: Telemetry::disabled(),
            table: None,
        }
    }

    pub fn with_config(mut self, config: EngineConfig) -> Solver<'a> {
        self.config = config;
        self
    }

    pub fn with_hook(mut self, hook: &'a mut dyn RemoteHook) -> Solver<'a> {
        self.hook = Some(hook);
        self
    }

    /// Attach a telemetry pipeline: each [`Solver::solve`] call becomes an
    /// `engine.solve` span, and the evaluation [`Stats`] are flushed into
    /// the metrics registry when it returns.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Solver<'a> {
        self.telemetry = telemetry;
        self
    }

    /// Attach a (possibly pre-warmed) answer table. Implies nothing about
    /// `config.tabling` — the flag still controls whether the table is
    /// consulted. Sharing a table between solvers is sound only while
    /// they evaluate the *same, monotonically growing* knowledge base for
    /// the same peer; call [`AnswerTable::clear`] on any non-monotone
    /// change (rule retraction or body edit).
    pub fn with_table(mut self, table: SharedTable) -> Solver<'a> {
        self.table = Some(TableHandle::Local(table));
        self
    }

    /// Attach a thread-safe answer table shared with other solvers (each
    /// on its own thread) over the *same* knowledge base. Same soundness
    /// discipline as [`Solver::with_table`]; see
    /// [`ConcurrentTable`] for the concurrency argument.
    pub fn with_concurrent_table(mut self, table: Arc<ConcurrentTable>) -> Solver<'a> {
        self.table = Some(TableHandle::Concurrent(table));
        self
    }

    pub fn stats(&self) -> Stats {
        self.stats
    }

    /// The single-threaded answer table, if tabling ever ran (or one was
    /// attached via [`Solver::with_table`]). `None` when a concurrent
    /// table is attached — use [`Solver::table_handle`] for either kind.
    pub fn table(&self) -> Option<SharedTable> {
        match &self.table {
            Some(TableHandle::Local(t)) => Some(t.clone()),
            _ => None,
        }
    }

    /// The tabling backend, whichever kind is attached.
    pub fn table_handle(&self) -> Option<TableHandle> {
        self.table.clone()
    }

    /// Snapshot of the answer-table counters (zeroes when tabling is off).
    pub fn table_stats(&self) -> TableStats {
        self.table.as_ref().map(|t| t.stats()).unwrap_or_default()
    }

    /// Prove the conjunction `goals`, returning up to
    /// `config.max_solutions` answers with proofs.
    pub fn solve(&mut self, goals: &[Literal]) -> Vec<Solution> {
        if self.config.tabling && self.table.is_none() {
            self.table = Some(TableHandle::Local(Rc::new(
                RefCell::new(AnswerTable::new()),
            )));
        }
        let query_vars = distinct_vars(goals);

        let table_before = self.table_stats();
        let (span, before) = if self.telemetry.enabled() {
            let goal_text = goals
                .iter()
                .map(|g| g.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            let span = self.telemetry.span_start(
                0,
                0,
                "engine.solve",
                vec![Field::str("goal", goal_text)],
            );
            (span, self.stats)
        } else {
            (peertrust_telemetry::SpanId::NONE, Stats::default())
        };

        let mut agenda: Agenda = None;
        for g in goals.iter().rev() {
            agenda = cons(GoalItem::Lit(g.clone(), 0), agenda);
        }
        let mut out = Vec::new();
        let mut anc: Ancestors = Vec::new();
        let mut acc: Vec<Proof> = Vec::new();
        // Slot watermark: every variable version that exists before the
        // derivation (query variables included) must sit at or below the
        // store's base, and every in-derivation rename above it.
        let query_max = query_vars.iter().map(|v| v.version).max().unwrap_or(0);
        self.rename_counter = self.rename_counter.max(query_max);
        let mut bs = Bindings::new(self.rename_counter);
        let _ = self.prove(&agenda, &mut bs, &mut anc, &mut acc, &mut out, &query_vars);
        self.stats.absorb_trail(bs.take_stats());

        if self.telemetry.enabled() {
            self.flush_stats_delta(&before, &out);
            self.flush_table_delta(&table_before);
            self.telemetry
                .span_end(0, span, 0, vec![Field::u64("solutions", out.len() as u64)]);
        }
        out
    }

    /// Flush answer-table counter deltas and size histograms.
    fn flush_table_delta(&self, before: &TableStats) {
        let Some(t) = self.table.as_ref() else {
            return;
        };
        let d = t.stats();
        self.telemetry
            .incr("engine.table.hits", d.hits - before.hits);
        self.telemetry
            .incr("engine.table.misses", d.misses - before.misses);
        self.telemetry
            .incr("engine.table.inserts", d.inserts - before.inserts);
        self.telemetry
            .incr("engine.table.incomplete", d.incomplete - before.incomplete);
        self.telemetry.incr(
            "engine.table.inline_fallbacks",
            d.inline_fallbacks - before.inline_fallbacks,
        );
        self.telemetry
            .observe("engine.table.variants", t.len() as u64);
        self.telemetry
            .observe("engine.table.answers", t.answer_count() as u64);
    }

    /// Flush the stats accumulated since `before` into the metrics
    /// registry, plus per-solve histograms over the solution set.
    fn flush_stats_delta(&self, before: &Stats, out: &[Solution]) {
        let d = &self.stats;
        self.telemetry.incr("engine.steps", d.steps - before.steps);
        self.telemetry
            .incr("engine.rule_tries", d.rule_tries - before.rule_tries);
        self.telemetry.incr(
            "engine.unify_attempts",
            d.unify_attempts - before.unify_attempts,
        );
        self.telemetry
            .incr("engine.builtins", d.builtin_evals - before.builtin_evals);
        self.telemetry
            .incr("engine.remote_hops", d.remote_calls - before.remote_calls);
        self.telemetry.incr(
            "engine.depth_cutoffs",
            d.depth_cutoffs - before.depth_cutoffs,
        );
        self.telemetry
            .incr("engine.loop_prunes", d.loop_prunes - before.loop_prunes);
        self.telemetry
            .incr("engine.trail.binds", d.trail_binds - before.trail_binds);
        self.telemetry.incr(
            "engine.trail.rollbacks",
            d.trail_rollbacks - before.trail_rollbacks,
        );
        self.telemetry
            .incr("engine.trail.undone", d.trail_undone - before.trail_undone);
        self.telemetry.observe("engine.trail.peak", d.trail_peak);
        self.telemetry
            .observe("engine.alloc.slot_peak", d.slot_peak);
        self.telemetry.observe("engine.solutions", out.len() as u64);
        let depth = out
            .iter()
            .flat_map(|sol| sol.proofs.iter().map(Proof::depth))
            .max()
            .unwrap_or(0);
        self.telemetry.observe("engine.proof_depth", depth as u64);
    }

    /// Is the conjunction provable at all?
    pub fn provable(&mut self, goals: &[Literal]) -> bool {
        let saved = self.config.max_solutions;
        self.config.max_solutions = 1;
        let r = !self.solve(goals).is_empty();
        self.config.max_solutions = saved;
        r
    }

    /// The resolution loop. Contract: `bs` is returned in exactly the
    /// state it was received in — every binding a branch writes is rolled
    /// back (O(bindings undone)) before the next branch or the return,
    /// which is what replaced the clone-per-choice-point `Subst`.
    fn prove(
        &mut self,
        agenda: &Agenda,
        bs: &mut Bindings,
        anc: &mut Ancestors,
        acc: &mut Vec<Proof>,
        out: &mut Vec<Solution>,
        query_vars: &[Var],
    ) -> Flow {
        if self.stats.step_budget_exhausted {
            return Flow::Stop;
        }
        let Some(node) = agenda else {
            // Whole conjunction proven.
            let mut cache = ResolveCache::default();
            out.push(Solution {
                subst: bs.project(query_vars),
                proofs: acc.iter().map(|p| p.resolve(bs, &mut cache)).collect(),
            });
            return if out.len() >= self.config.max_solutions {
                Flow::Stop
            } else {
                Flow::Continue
            };
        };
        let (item, rest) = (&node.item, &node.next);

        match item {
            GoalItem::Fold { goal, step, arity } => {
                // Assemble the proof node for `goal` from its children.
                let children = acc.drain(acc.len() - arity..).map(Arc::new).collect();
                acc.push(Proof {
                    goal: goal.clone(),
                    step: step.clone(),
                    children,
                });
                // The goal's descendant scope ends here.
                let popped = anc.pop();
                let flow = self.prove(rest, bs, anc, acc, out, query_vars);
                if let Some(g) = popped {
                    anc.push(g);
                }
                let node = acc.pop().expect("fold node present");
                // Unwind: children go back on the accumulator by value.
                // A child whose `Arc` was captured by a solution above
                // falls back to a shallow clone (its own children stay
                // shared) — the unique case moves with no copy at all.
                acc.extend(
                    node.children
                        .into_iter()
                        .map(|c| Arc::try_unwrap(c).unwrap_or_else(|a| (*a).clone())),
                );
                flow
            }
            GoalItem::Lit(goal, depth) => {
                self.stats.steps += 1;
                if self.stats.steps > self.config.max_steps {
                    self.stats.step_budget_exhausted = true;
                    return Flow::Stop;
                }
                let goal = bs.apply_literal_cow(goal);
                self.prove_goal(&goal, *depth, rest, bs, anc, acc, out, query_vars)
            }
        }
    }

    /// Handle one selected goal, already resolved under `bs` by
    /// `apply_literal_cow`.
    #[allow(clippy::too_many_arguments)]
    fn prove_goal(
        &mut self,
        goal: &Literal,
        depth: usize,
        rest: &Agenda,
        bs: &mut Bindings,
        anc: &mut Ancestors,
        acc: &mut Vec<Proof>,
        out: &mut Vec<Solution>,
        query_vars: &[Var],
    ) -> Flow {
        // Negation as failure (paper §3.1: "Definite Horn clauses
        // can be easily extended to include negation as failure").
        // `not(p(args...))` succeeds iff the *ground, local* goal
        // `p(args...)` is unprovable. Non-ground negations flounder
        // (fail); remote goals are never negated — NAF over another
        // peer's silence would conflate "no" with "won't say".
        if goal.is_negation() {
            // `goal` is fully resolved already (`apply_literal`
            // above), so no walk is needed here.
            let inner = match &goal.args[0] {
                Term::Compound(f, args) => Some(Literal::new(*f, args.to_vec())),
                Term::Atom(a) => Some(Literal::new(*a, vec![])),
                _ => None,
            };
            let Some(inner) = inner else {
                return Flow::Continue; // flounder: not bound to a goal
            };
            if !inner.is_ground() {
                return Flow::Continue; // flounder: non-ground negation
            }
            let refuted = {
                let mut sub = Solver::new(self.kb, self.self_id).with_config(EngineConfig {
                    max_solutions: 1,
                    remote_fallback: RemoteFallback::Never,
                    ..self.config
                });
                let proved = sub.provable(std::slice::from_ref(&inner));
                self.stats.steps += sub.stats.steps;
                self.stats.rule_tries += sub.stats.rule_tries;
                self.stats.unify_attempts += sub.stats.unify_attempts;
                self.stats.builtin_evals += sub.stats.builtin_evals;
                !proved
            };
            if !refuted {
                return Flow::Continue;
            }
            return self.alternative(
                goal,
                ProofStep::Negation,
                std::iter::empty(),
                depth,
                rest,
                bs,
                anc,
                acc,
                out,
                query_vars,
            );
        }

        // Builtins: evaluated destructively; the checkpoint undoes
        // whatever `=` bound once the continuation is explored.
        if goal.is_builtin() {
            self.stats.builtin_evals += 1;
            let cp = bs.checkpoint();
            return match eval_builtin_in(goal, bs) {
                BuiltinOutcomeIn::True => {
                    let flow = self.alternative(
                        goal,
                        ProofStep::Builtin,
                        std::iter::empty(),
                        depth,
                        rest,
                        bs,
                        anc,
                        acc,
                        out,
                        query_vars,
                    );
                    bs.rollback(cp);
                    flow
                }
                BuiltinOutcomeIn::False | BuiltinOutcomeIn::IllTyped(_) => Flow::Continue,
            };
        }

        if depth >= self.config.max_depth {
            self.stats.depth_cutoffs += 1;
            return Flow::Continue;
        }

        // Ancestor loop check: prune variants of open goals. This
        // runs *before* the table lookup so cyclic programs behave
        // identically with tabling on or off.
        if self.config.ancestor_loop_check {
            let mut vmap: Vec<(Var, Var)> = Vec::new();
            if anc
                .iter()
                .any(|a| variant_under(a.fold_goal(), goal, bs, &mut vmap))
            {
                self.stats.loop_prunes += 1;
                return Flow::Continue;
            }
        }

        // Tabling: only authority-free goals — goals with a chain
        // may route to another peer and belong to the negotiation
        // layer's remote-answer cache, not this per-solver table.
        if self.config.tabling && goal.authority.is_empty() && self.table.is_some() {
            if let Some(flow) = self.tabled(goal, rest, bs, anc, acc, out, query_vars) {
                return flow;
            }
            // `None`: variant in progress or incomplete — resolve
            // this occurrence inline below.
        }

        // Self-authority stripping: lit @ ... @ Self  ->  lit @ ...
        if goal.eval_peer() == Some(self.self_id) {
            let inner = goal.strip_outer_authority();
            return self.alternative(
                goal,
                ProofStep::SelfAuthority,
                std::iter::once(inner),
                depth,
                rest,
                bs,
                anc,
                acc,
                out,
                query_vars,
            );
        }

        // Local clauses, in clause (insertion) order.
        let mut any_local_clause = false;
        let mut drawn = 0;
        if let Flow::Stop = self.local_clauses(
            goal,
            goal,
            depth,
            rest,
            bs,
            anc,
            acc,
            out,
            query_vars,
            &mut any_local_clause,
            &mut drawn,
        ) {
            return Flow::Stop;
        }

        // §3.2 Self-closure: "For each Authority argument that has
        // not been specified explicitly ... we add '@ Self'". A
        // goal whose chain does not end at this peer can also be
        // established by clauses about the self-extended goal —
        // e.g. authority A0, asked the chainless `attr(X)`, answers
        // from its delegation rule with head `attr(X) @ "A0"`.
        if goal.eval_peer() != Some(self.self_id) {
            if self.kb.has_authority_heads(goal.functor()) {
                let extended = goal.clone().at(Term::peer(self.self_id));
                if let Flow::Stop = self.local_clauses(
                    goal,
                    &extended,
                    depth,
                    rest,
                    bs,
                    anc,
                    acc,
                    out,
                    query_vars,
                    &mut any_local_clause,
                    &mut drawn,
                ) {
                    return Flow::Stop;
                }
            } else {
                // The extended goal carries an authority and no clause
                // head for its functor does, so no head unifies: skip
                // the pass. Its candidates are the first pass's (the
                // index ignores authorities), so still draw the versions
                // their renames would have, keeping every later version
                // unchanged.
                self.rename_counter += drawn;
            }
        }

        // Remote resolution.
        let remote_peer = goal.eval_peer().filter(|p| *p != self.self_id);
        let go_remote = match self.config.remote_fallback {
            RemoteFallback::Never => false,
            RemoteFallback::OnlyIfNoLocalClause => !any_local_clause,
            RemoteFallback::Always => true,
        };
        if let (Some(peer), true, Some(_)) = (remote_peer, go_remote, self.hook.as_ref()) {
            let inner = goal.strip_outer_authority();
            self.stats.remote_calls += 1;
            let answers = self
                .hook
                .as_mut()
                .expect("hook present")
                .resolve_remote(peer, &inner);
            for answer in answers {
                self.stats.unify_attempts += 1;
                let cp = bs.checkpoint();
                if !unify_literals_in(&inner, &answer, bs) {
                    continue;
                }
                // The proof node records the *inner* goal — what the
                // remote peer actually answered — so the negotiation
                // layer can match it against disclosed answers.
                let flow = self.alternative(
                    &inner,
                    ProofStep::Remote(peer),
                    std::iter::empty(),
                    depth,
                    rest,
                    bs,
                    anc,
                    acc,
                    out,
                    query_vars,
                );
                bs.rollback(cp);
                if let Flow::Stop = flow {
                    return Flow::Stop;
                }
            }
        }

        Flow::Continue
    }

    /// Try every local clause whose head could match `target`, in clause
    /// order. `goal` is what proof nodes record (it differs from `target`
    /// on the §3.2 self-closure pass). Sets `*any` when at least one head
    /// unified, and adds to `*drawn` the variable versions the pass drew.
    ///
    /// Each candidate draws its rule's variable count from the rename
    /// counter whether or not its head matches, exactly as renaming every
    /// candidate would. Only a candidate that passes the structural
    /// pre-filter is unified, with its head read through the renaming
    /// instead of copied; only a matching candidate's body is renamed.
    #[allow(clippy::too_many_arguments)]
    fn local_clauses(
        &mut self,
        goal: &Literal,
        target: &Literal,
        depth: usize,
        rest: &Agenda,
        bs: &mut Bindings,
        anc: &mut Ancestors,
        acc: &mut Vec<Proof>,
        out: &mut Vec<Solution>,
        query_vars: &[Var],
        any: &mut bool,
        drawn: &mut u32,
    ) -> Flow {
        let kb = self.kb;
        for sr in kb.candidates(target) {
            let rule = &sr.rule;
            // Release-pattern self-rules (`p $ ctx <- p`) are
            // derivationally inert — they exist purely as disclosure
            // licenses (paper §3.1) and are applied by the negotiation
            // layer. Skipping them here also keeps them from masking
            // remote resolution.
            if rule.body.len() == 1 && rule.body[0] == rule.head {
                continue;
            }
            self.stats.rule_tries += 1;
            self.stats.unify_attempts += 1;
            let versions = u32::try_from(sr.vars().len()).expect("rule variable count fits u32");
            let ren = Renaming::new(sr.vars(), self.rename_counter);
            self.rename_counter += versions;
            *drawn += versions;
            if !rule.head.may_unify(target) {
                continue;
            }
            let cp = bs.checkpoint();
            if !unify_head_in(&rule.head, ren, target, bs) {
                continue;
            }
            *any = true;
            let flow = self.alternative(
                goal,
                ProofStep::Rule(sr.id),
                rule.body.iter().map(|b| ren.literal(b)),
                depth,
                rest,
                bs,
                anc,
                acc,
                out,
                query_vars,
            );
            bs.rollback(cp);
            if let Flow::Stop = flow {
                return Flow::Stop;
            }
        }
        Flow::Continue
    }

    /// Explore one alternative for `goal`: prove `body` (at `depth + 1`),
    /// fold the results into a proof node, then continue with `rest`.
    /// Body literals move into the agenda; the fold node doubles as the
    /// ancestor entry for `goal`.
    #[allow(clippy::too_many_arguments)]
    fn alternative(
        &mut self,
        goal: &Literal,
        step: ProofStep,
        body: impl DoubleEndedIterator<Item = Literal> + ExactSizeIterator,
        depth: usize,
        rest: &Agenda,
        bs: &mut Bindings,
        anc: &mut Ancestors,
        acc: &mut Vec<Proof>,
        out: &mut Vec<Solution>,
        query_vars: &[Var],
    ) -> Flow {
        let fold = Rc::new(AgendaNode {
            item: GoalItem::Fold {
                goal: goal.clone(),
                step,
                arity: body.len(),
            },
            next: rest.clone(),
        });
        let mut agenda = Some(Rc::clone(&fold));
        for b in body.rev() {
            agenda = cons(GoalItem::Lit(b, depth + 1), agenda);
        }
        anc.push(fold);
        let flow = self.prove(&agenda, bs, anc, acc, out, query_vars);
        anc.pop();
        flow
    }

    /// Answer `goal` from the table. Returns the flow to propagate, or
    /// `None` when the occurrence must be resolved inline (variant in
    /// progress — a cycle through the table — or recorded incomplete).
    #[allow(clippy::too_many_arguments)]
    fn tabled(
        &mut self,
        goal: &Literal,
        rest: &Agenda,
        bs: &mut Bindings,
        anc: &mut Ancestors,
        acc: &mut Vec<Proof>,
        out: &mut Vec<Solution>,
        query_vars: &[Var],
    ) -> Option<Flow> {
        let table = self.table.clone().expect("tabling requires a table");
        let key = canonical(goal);

        match table.probe(&key) {
            Probe::Inline => return None,
            Probe::Reuse(answers) => {
                return Some(self.reuse(goal, &answers, rest, bs, anc, acc, out, query_vars));
            }
            Probe::Fresh => {}
        }

        // Fresh variant: evaluate the canonical goal in an isolated
        // sub-derivation (same solver — shared hook, step budget and
        // rename counter; fresh agenda, ancestors and solution set).
        // Under a concurrent table another thread may be doing the same —
        // both evaluate the same KB, so both record the same entry.
        table.begin(key.clone());
        let sub_vars = key.vars();
        let cutoffs_before = self.stats.depth_cutoffs;
        let saved_max = self.config.max_solutions;
        self.config.max_solutions = self.config.table_max_answers;
        let agenda = cons(GoalItem::Lit(key.clone(), 0), None);
        let mut sub_out: Vec<Solution> = Vec::new();
        let mut sub_anc: Ancestors = Vec::new();
        let mut sub_acc: Vec<Proof> = Vec::new();
        // The canonical key's `_C` variables carry low versions (1..k);
        // keep them below the sub-store's slot watermark so they land in
        // the named map while every standardized-apart rule variable
        // takes the dense slot path.
        let key_max = sub_vars.iter().map(|v| v.version).max().unwrap_or(0);
        self.rename_counter = self.rename_counter.max(key_max);
        let mut sub_bs = Bindings::new(self.rename_counter);
        let _ = self.prove(
            &agenda,
            &mut sub_bs,
            &mut sub_anc,
            &mut sub_acc,
            &mut sub_out,
            &sub_vars,
        );
        self.stats.absorb_trail(sub_bs.take_stats());
        self.config.max_solutions = saved_max;

        let capped = sub_out.len() >= self.config.table_max_answers;
        let cut = self.stats.depth_cutoffs > cutoffs_before;
        let exhausted = self.stats.step_budget_exhausted;
        let mut answers: Vec<TabledAnswer> = Vec::new();
        for sol in &sub_out {
            let proof = sol.proofs.first().expect("one proof per goal").clone();
            if answers.iter().any(|a| a.answer == proof.goal) {
                continue;
            }
            answers.push(TabledAnswer::new(proof.goal.clone(), proof));
        }
        let disposition = if capped || cut || exhausted {
            Disposition::Incomplete
        } else {
            Disposition::Complete
        };
        table.complete(key, disposition, answers.clone());

        if exhausted {
            return Some(Flow::Stop);
        }
        if disposition == Disposition::Incomplete {
            // Resource-bounded result: never reuse, resolve inline so the
            // answers at this occurrence match the untabled evaluation.
            table.note_inline_fallback();
            return None;
        }
        Some(self.reuse(goal, &answers, rest, bs, anc, acc, out, query_vars))
    }

    /// Resolve `goal` against memoized answers: each stored answer (and
    /// its proof) is renamed apart, unified with the goal, and its proof
    /// node pushed in place of a derivation.
    #[allow(clippy::too_many_arguments)]
    fn reuse(
        &mut self,
        goal: &Literal,
        answers: &[TabledAnswer],
        rest: &Agenda,
        bs: &mut Bindings,
        anc: &mut Ancestors,
        acc: &mut Vec<Proof>,
        out: &mut Vec<Solution>,
        query_vars: &[Var],
    ) -> Flow {
        for ta in answers {
            let (ans, proof) = self.rename_answer_apart(ta);
            self.stats.unify_attempts += 1;
            let cp = bs.checkpoint();
            if !unify_literals_in(goal, &ans, bs) {
                continue;
            }
            acc.push(proof);
            let flow = self.prove(rest, bs, anc, acc, out, query_vars);
            acc.pop();
            bs.rollback(cp);
            if let Flow::Stop = flow {
                return Flow::Stop;
            }
        }
        Flow::Continue
    }

    /// Standardize a stored answer (and its proof tree) apart from every
    /// variable in play. Each distinct variable gets its own fresh version
    /// — a single shared version would merge distinct variables that
    /// happen to share a name.
    fn rename_answer_apart(&mut self, ta: &TabledAnswer) -> (Literal, Proof) {
        if !ta.needs_rename() {
            // Ground answer and proof (the flag was computed at
            // completion time): renaming is the identity, and the proof
            // clone is shallow — its children are shared `Arc`s.
            return (ta.answer.clone(), ta.proof.clone());
        }
        let mut vars: Vec<Var> = Vec::new();
        ta.answer.collect_vars(&mut vars);
        proof_vars(&ta.proof, &mut vars);
        if vars.is_empty() {
            return (ta.answer.clone(), ta.proof.clone());
        }
        let mut map: FxHashMap<Var, Term> = FxHashMap::default();
        for v in vars {
            if let std::collections::hash_map::Entry::Vacant(e) = map.entry(v) {
                self.rename_counter += 1;
                e.insert(Term::Var(Var::versioned(v.name, self.rename_counter)));
            }
        }
        let mut f = |v: Var| map.get(&v).cloned().unwrap_or(Term::Var(v));
        (
            ta.answer.map_vars(&mut f),
            map_proof_vars(&ta.proof, &mut f),
        )
    }
}

fn proof_vars(p: &Proof, out: &mut Vec<Var>) {
    p.goal.collect_vars(out);
    for c in &p.children {
        proof_vars(c, out);
    }
}

fn map_proof_vars(p: &Proof, f: &mut impl FnMut(Var) -> Term) -> Proof {
    Proof {
        goal: p.goal.map_vars(f),
        step: p.step.clone(),
        children: p
            .children
            .iter()
            .map(|c| Arc::new(map_proof_vars(c, f)))
            .collect(),
    }
}

/// Are two literals equal up to a consistent renaming of variables?
pub fn is_variant(a: &Literal, b: &Literal) -> bool {
    canonical(a) == canonical(b)
}

/// Allocation-free equivalent of `is_variant(&bs.apply_literal(anc), goal)`
/// for the ancestor loop check, the solver's most frequent inner loop
/// (every open ancestor is tested on every goal selection). Instead of
/// materializing the resolved ancestor and two canonical copies, this
/// walks `anc` through the binding store in lockstep with `goal` and
/// tracks the variable bijection in a caller-owned scratch buffer that
/// is reused across ancestors.
fn variant_under(anc: &Literal, goal: &Literal, bs: &Bindings, map: &mut Vec<(Var, Var)>) -> bool {
    map.clear();
    anc.pred == goal.pred
        && anc.args.len() == goal.args.len()
        && anc.authority.len() == goal.authority.len()
        && anc
            .args
            .iter()
            .zip(&goal.args)
            .chain(anc.authority.iter().zip(&goal.authority))
            .all(|(a, g)| variant_term_under(a, g, bs, map))
}

/// One aligned subterm pair of [`variant_under`]: resolve both sides one
/// level at a time via [`Bindings::walk`] and require either equal
/// constants, compatible compounds, or a consistent (bijective) pairing
/// of unbound variables.
fn variant_term_under(a: &Term, g: &Term, bs: &Bindings, map: &mut Vec<(Var, Var)>) -> bool {
    let a = bs.walk(a);
    let g = bs.walk(g);
    match (a, g) {
        (Term::Var(x), Term::Var(y)) => {
            let fwd = map.iter().find(|(p, _)| p == x).map(|(_, q)| q == y);
            let bwd = map.iter().find(|(_, q)| q == y).map(|(p, _)| p == x);
            match (fwd, bwd) {
                (None, None) => {
                    map.push((*x, *y));
                    true
                }
                (Some(f), Some(b)) => f && b,
                _ => false,
            }
        }
        (Term::Atom(x), Term::Atom(y)) => x == y,
        (Term::Str(x), Term::Str(y)) => x == y,
        (Term::Int(x), Term::Int(y)) => x == y,
        (Term::Compound(f, xs), Term::Compound(h, ys)) => {
            f == h
                && xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys.iter())
                    .all(|(x, y)| variant_term_under(x, y, bs, map))
        }
        _ => false,
    }
}

/// A canonical form: variables renamed in first-occurrence order. Two
/// literals are variants iff their canonical forms are equal — used by the
/// negotiation layer to key in-flight queries for cycle detection.
pub fn canonicalize(l: &Literal) -> Literal {
    canonical(l)
}

/// Normal form of an answer *set*: every literal canonicalized (variables
/// renamed in first-occurrence order), deduplicated, and sorted by display
/// form. Two answer sets are equal up to variable renaming iff their
/// normal forms are equal — this is the convergence test of the GEM
/// distributed-tabling layer (`peertrust_negotiation::gem`), where each
/// fixpoint round re-derives answers through the solver's standardize-apart
/// and would otherwise never compare equal across rounds.
pub fn canonical_answer_set(answers: &[Literal]) -> Vec<Literal> {
    let mut out: Vec<Literal> = Vec::with_capacity(answers.len());
    for a in answers {
        let c = canonical(a);
        if !out.contains(&c) {
            out.push(c);
        }
    }
    out.sort_by_key(|l| l.to_string());
    out
}

/// Rename variables to `_C0, _C1, ...` in first-occurrence order.
fn canonical(l: &Literal) -> Literal {
    let mut map: Vec<(Var, u32)> = Vec::new();
    l.map_vars(&mut |v| {
        let idx = match map.iter().find(|(w, _)| *w == v) {
            Some((_, i)) => *i,
            None => {
                let i = u32::try_from(map.len()).expect("too many vars");
                map.push((v, i));
                i
            }
        };
        Term::Var(Var::versioned("_C", idx + 1))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use peertrust_core::Term;
    use peertrust_parser::{parse_goals, parse_program};

    fn kb(src: &str) -> KnowledgeBase {
        parse_program(src).unwrap().into_iter().collect()
    }

    fn solve_all(kb_src: &str, query: &str) -> Vec<Solution> {
        let kb = kb(kb_src);
        let mut solver = Solver::new(&kb, PeerId::new("self"));
        solver.solve(&parse_goals(query).unwrap())
    }

    #[test]
    fn facts_answer_queries() {
        let sols = solve_all("freeCourse(cs101). freeCourse(cs102).", "freeCourse(C)");
        assert_eq!(sols.len(), 2);
        let answers: Vec<String> = sols
            .iter()
            .map(|s| s.subst.apply(&Term::var("C")).to_string())
            .collect();
        assert_eq!(answers, ["cs101", "cs102"]);
    }

    #[test]
    fn conjunction_with_builtin() {
        let sols = solve_all(
            "price(cs411, 1000). price(cs500, 3000).",
            "price(C, P), P < 2000",
        );
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].subst.apply(&Term::var("C")), Term::atom("cs411"));
    }

    #[test]
    fn rule_chaining() {
        let sols = solve_all(
            r#"
            eligible(X) <- preferred(X).
            preferred(X) <- student(X).
            student("Alice").
            "#,
            r#"eligible("Alice")"#,
        );
        assert_eq!(sols.len(), 1);
        // Proof: eligible <- preferred <- student (fact).
        let proof = &sols[0].proofs[0];
        assert_eq!(proof.goal.to_string(), "eligible(\"Alice\")");
        assert_eq!(proof.size(), 3);
        assert_eq!(proof.used_rules().len(), 3);
    }

    #[test]
    fn authority_chains_must_match() {
        let sols = solve_all(
            r#"student("Alice") @ "UIUC" signedBy ["UIUC"]."#,
            r#"student(X) @ "UIUC""#,
        );
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].subst.apply(&Term::var("X")), Term::str("Alice"));

        // A goal without the chain does not match the credential.
        let none = solve_all(
            r#"student("Alice") @ "UIUC" signedBy ["UIUC"]."#,
            "student(X)",
        );
        assert!(none.is_empty());
    }

    #[test]
    fn self_authority_is_stripped() {
        let kb = kb(r#"student("Alice") @ "UIUC" signedBy ["UIUC"]."#);
        let mut solver = Solver::new(&kb, PeerId::new("Alice"));
        // Goal as another peer would phrase it: ask Alice herself.
        let goals = parse_goals(r#"student(X) @ "UIUC" @ "Alice""#).unwrap();
        let sols = solver.solve(&goals);
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].proofs[0].step, ProofStep::SelfAuthority);
    }

    #[test]
    fn variables_in_answers_are_projected() {
        let sols = solve_all("p(X) <- q(X, Y). q(1, 2). q(3, 4).", "p(A)");
        assert_eq!(sols.len(), 2);
        // Only A appears in the projected answer.
        for sol in &sols {
            assert_eq!(sol.subst.len(), 1);
        }
    }

    #[test]
    fn repeated_query_variables_are_projected_once() {
        // `X` occurs twice, not adjacently: projecting it twice would
        // rebind it (a debug-build panic).
        let sols = solve_all("p(1, 2, 1).", "p(X, Y, X)");
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].subst.len(), 2);
        assert_eq!(sols[0].subst.apply(&Term::var("X")), Term::int(1));
        assert_eq!(sols[0].subst.apply(&Term::var("Y")), Term::int(2));
    }

    #[test]
    fn recursive_rules_terminate_via_loop_check() {
        // p <- p would loop forever without the ancestor check.
        let sols = solve_all("p <- p.", "p");
        assert!(sols.is_empty());
    }

    #[test]
    fn transitive_closure_works_despite_loop_check() {
        let sols = solve_all(
            r#"
            reach(X, Y) <- edge(X, Y).
            reach(X, Z) <- edge(X, Y), reach(Y, Z).
            edge(1, 2). edge(2, 3). edge(3, 4).
            "#,
            "reach(1, W)",
        );
        let answers: Vec<String> = sols
            .iter()
            .map(|s| s.subst.apply(&Term::var("W")).to_string())
            .collect();
        assert_eq!(answers, ["2", "3", "4"]);
    }

    #[test]
    fn cyclic_graph_terminates() {
        let sols = solve_all(
            r#"
            reach(X, Y) <- edge(X, Y).
            reach(X, Z) <- edge(X, Y), reach(Y, Z).
            edge(1, 2). edge(2, 1).
            "#,
            "reach(1, W)",
        );
        // Terminates; finds 2 and 1 (possibly with duplicates pruned by
        // variant check). At least one answer must be found.
        assert!(!sols.is_empty());
    }

    #[test]
    fn max_solutions_limits_output() {
        let kb = kb("n(1). n(2). n(3). n(4). n(5).");
        let mut solver = Solver::new(&kb, PeerId::new("self")).with_config(EngineConfig {
            max_solutions: 2,
            ..EngineConfig::default()
        });
        let sols = solver.solve(&parse_goals("n(X)").unwrap());
        assert_eq!(sols.len(), 2);
    }

    #[test]
    fn depth_bound_prunes() {
        let kb = kb("deep(X) <- deep(f(X)).");
        let mut solver = Solver::new(&kb, PeerId::new("self")).with_config(EngineConfig {
            max_depth: 10,
            ancestor_loop_check: false, // each call has a fresh term, no variant
            ..EngineConfig::default()
        });
        let sols = solver.solve(&parse_goals("deep(0)").unwrap());
        assert!(sols.is_empty());
        assert!(solver.stats().depth_cutoffs > 0);
    }

    #[test]
    fn step_budget_is_a_hard_stop() {
        // Breadth explosion: 9^3 = 729 combinations all failing the final
        // goal — the 500-step budget must cut the search off.
        let mut src = String::from("q <- n(X), n(Y), n(Z), never(X, Y, Z).\n");
        for i in 1..=9 {
            src.push_str(&format!("n({i}).\n"));
        }
        let kb = kb(&src);
        let mut solver = Solver::new(&kb, PeerId::new("self")).with_config(EngineConfig {
            max_steps: 500,
            ..EngineConfig::default()
        });
        let sols = solver.solve(&parse_goals("q").unwrap());
        assert!(sols.is_empty());
        assert!(solver.stats().step_budget_exhausted);
        assert!(solver.stats().steps <= 501);
    }

    #[test]
    fn remote_hook_resolves_delegated_goals() {
        struct FakeAlice;
        impl RemoteHook for FakeAlice {
            fn resolve_remote(&mut self, peer: PeerId, goal: &Literal) -> Vec<Literal> {
                assert_eq!(peer, PeerId::new("Alice"));
                assert_eq!(goal.to_string(), "student(\"Alice\") @ \"UIUC\"");
                vec![Literal::new("student", vec![Term::str("Alice")]).at(Term::str("UIUC"))]
            }
        }
        let kb = kb(r#"
            eligible(X) <- student(X) @ "UIUC" @ X.
            "#);
        let mut hook = FakeAlice;
        let mut solver = Solver::new(&kb, PeerId::new("E-Learn")).with_hook(&mut hook);
        let sols = solver.solve(&parse_goals(r#"eligible("Alice")"#).unwrap());
        assert_eq!(sols.len(), 1);
        assert_eq!(solver.stats().remote_calls, 1);
        let deps = sols[0].proofs[0].remote_dependencies();
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].0, PeerId::new("Alice"));
    }

    #[test]
    fn remote_skipped_when_local_clause_exists() {
        struct Panics;
        impl RemoteHook for Panics {
            fn resolve_remote(&mut self, _p: PeerId, _g: &Literal) -> Vec<Literal> {
                panic!("must not be called: a local cached rule covers the goal");
            }
        }
        // E-Learn cached ELENA's signed rule, so no query to ELENA needed.
        let kb = kb(r#"
            preferred(X) @ "ELENA" <- signedBy ["ELENA"] student(X) @ "UIUC".
            student("Alice") @ "UIUC" signedBy ["UIUC"].
            "#);
        let mut hook = Panics;
        let mut solver = Solver::new(&kb, PeerId::new("E-Learn")).with_hook(&mut hook);
        let sols = solver.solve(&parse_goals(r#"preferred("Alice") @ "ELENA""#).unwrap());
        assert_eq!(sols.len(), 1);
        assert_eq!(solver.stats().remote_calls, 0);
    }

    #[test]
    fn remote_always_policy_consults_hook_even_with_local_clause() {
        struct Counting(u64);
        impl RemoteHook for Counting {
            fn resolve_remote(&mut self, _p: PeerId, _g: &Literal) -> Vec<Literal> {
                self.0 += 1;
                Vec::new()
            }
        }
        let kb = kb(r#"member("IBM") @ "ELENA" signedBy ["ELENA"]."#);
        let mut hook = Counting(0);
        let mut solver = Solver::new(&kb, PeerId::new("E-Learn"))
            .with_config(EngineConfig {
                remote_fallback: RemoteFallback::Always,
                ..EngineConfig::default()
            })
            .with_hook(&mut hook);
        let sols = solver.solve(&parse_goals(r#"member("IBM") @ "ELENA""#).unwrap());
        assert_eq!(sols.len(), 1); // local cache answered
        assert_eq!(solver.stats().remote_calls, 1); // but remote was consulted too
    }

    #[test]
    fn unbound_authority_stays_local() {
        // purchaseApproved(...) @ Authority with Authority unbound: engine
        // must not call the hook (no peer to route to).
        struct Panics;
        impl RemoteHook for Panics {
            fn resolve_remote(&mut self, _p: PeerId, _g: &Literal) -> Vec<Literal> {
                panic!("no ground peer, hook must not fire");
            }
        }
        let kb = kb("q(X) <- p(1) @ X.");
        let mut hook = Panics;
        let mut solver = Solver::new(&kb, PeerId::new("self")).with_hook(&mut hook);
        let sols = solver.solve(&parse_goals("q(Y)").unwrap());
        assert!(sols.is_empty());
    }

    #[test]
    fn authority_bound_by_earlier_goal_routes_remotely() {
        // The §4.2 authority-database pattern.
        struct VisaHook;
        impl RemoteHook for VisaHook {
            fn resolve_remote(&mut self, peer: PeerId, goal: &Literal) -> Vec<Literal> {
                assert_eq!(peer, PeerId::new("VISA"));
                let mut ans = goal.clone();
                ans.args = vec![Term::str("IBM"), Term::int(1000)];
                vec![ans]
            }
        }
        let kb = kb(r#"
            authority(purchaseApproved, "VISA").
            ok(C, P) <- authority(purchaseApproved, A), purchaseApproved(C, P) @ A.
            "#);
        let mut hook = VisaHook;
        let mut solver = Solver::new(&kb, PeerId::new("E-Learn")).with_hook(&mut hook);
        let sols = solver.solve(&parse_goals(r#"ok("IBM", 1000)"#).unwrap());
        assert_eq!(sols.len(), 1);
    }

    #[test]
    fn proof_records_rule_ids() {
        let program = parse_program("a <- b. b.").unwrap();
        let kb: KnowledgeBase = program.into_iter().collect();
        let mut solver = Solver::new(&kb, PeerId::new("self"));
        let sols = solver.solve(&parse_goals("a").unwrap());
        let used = sols[0].proofs[0].used_rules();
        assert_eq!(used, vec![RuleId(0), RuleId(1)]);
    }

    #[test]
    fn variant_check_detects_renamings() {
        let a = Literal::new("p", vec![Term::var("X"), Term::var("Y"), Term::var("X")]);
        let b = Literal::new("p", vec![Term::var("A"), Term::var("B"), Term::var("A")]);
        let c = Literal::new("p", vec![Term::var("A"), Term::var("B"), Term::var("B")]);
        assert!(is_variant(&a, &b));
        assert!(!is_variant(&a, &c));
        let g = Literal::new("p", vec![Term::int(1), Term::var("Y"), Term::int(1)]);
        assert!(!is_variant(&a, &g));
    }

    /// The allocation-free ancestor check must agree with the reference
    /// formulation `is_variant(&bs.apply_literal(anc), goal)`, including
    /// when the ancestor's variables are bound through chains in the
    /// trail store.
    #[test]
    fn variant_under_matches_materialized_is_variant() {
        let mut bs = Bindings::new(0);
        // X -> Y -> f(Z), W unbound.
        bs.bind(Var::new("X"), Term::var("Y"));
        bs.bind(Var::new("Y"), Term::compound("f", vec![Term::var("Z")]));
        let goal = Literal::new(
            "p",
            vec![Term::compound("f", vec![Term::var("V")]), Term::var("U")],
        );
        let cases = [
            Literal::new("p", vec![Term::var("X"), Term::var("W")]),
            Literal::new("p", vec![Term::var("X"), Term::var("Z")]),
            Literal::new("p", vec![Term::var("X"), Term::var("X")]),
            Literal::new("p", vec![Term::var("W"), Term::var("W")]),
            Literal::new("q", vec![Term::var("X"), Term::var("W")]),
            Literal::new("p", vec![Term::int(3), Term::var("W")]),
            Literal::new("p", vec![Term::var("X")]),
        ];
        let mut map = Vec::new();
        for anc in &cases {
            assert_eq!(
                variant_under(anc, &goal, &bs, &mut map),
                is_variant(&bs.apply_literal(anc), &goal),
                "divergence on ancestor {anc}"
            );
        }
        // And the positive case really is positive.
        assert!(variant_under(&cases[0], &goal, &bs, &mut map));
    }

    #[test]
    fn zero_arity_goals() {
        let sols = solve_all("ready <- initialized. initialized.", "ready");
        assert_eq!(sols.len(), 1);
    }

    #[test]
    fn rule_with_head_context_still_derives_locally() {
        // Contexts guard disclosure, not local derivation.
        let sols = solve_all(
            r#"secret(X) $ Requester = "nobody" <- base(X). base(1)."#,
            "secret(X)",
        );
        assert_eq!(sols.len(), 1);
    }
}

#[cfg(test)]
mod tabling_tests {
    use super::*;
    use peertrust_core::Term;
    use peertrust_parser::{parse_goals, parse_program};

    fn kb(src: &str) -> KnowledgeBase {
        parse_program(src).unwrap().into_iter().collect()
    }

    fn tabled_config() -> EngineConfig {
        EngineConfig {
            tabling: true,
            ..EngineConfig::default()
        }
    }

    fn answers(sols: &[Solution], var: &str) -> Vec<String> {
        let mut a: Vec<String> = sols
            .iter()
            .map(|s| s.subst.apply(&Term::var(var)).to_string())
            .collect();
        a.sort();
        a
    }

    #[test]
    fn tabling_preserves_answers_and_proofs() {
        let src = r#"
            eligible(X) <- preferred(X).
            preferred(X) <- student(X).
            student("Alice"). student("Bob").
        "#;
        let kb = kb(src);
        let mut plain = Solver::new(&kb, PeerId::new("self"));
        let mut tabled = Solver::new(&kb, PeerId::new("self")).with_config(tabled_config());
        let goals = parse_goals("eligible(W)").unwrap();
        let a = plain.solve(&goals);
        let b = tabled.solve(&goals);
        assert_eq!(answers(&a, "W"), answers(&b, "W"));
        // Proof shape survives memoization (negotiation depends on it).
        assert_eq!(a[0].proofs[0].size(), b[0].proofs[0].size());
        assert_eq!(a[0].proofs[0].used_rules(), b[0].proofs[0].used_rules());
    }

    #[test]
    fn repeated_subgoals_hit_the_table() {
        // Both branches re-derive the same ground `base(1)` variant.
        let src = "top(X) <- left(X), right(X). left(X) <- base(X). right(X) <- base(X). base(1). base(2).";
        let kb = kb(src);
        let mut solver = Solver::new(&kb, PeerId::new("self")).with_config(tabled_config());
        let sols = solver.solve(&parse_goals("top(1)").unwrap());
        assert_eq!(sols.len(), 1);
        let ts = solver.table_stats();
        assert!(ts.hits >= 1, "expected table hits, got {ts:?}");
        assert!(ts.inserts >= 2);
    }

    #[test]
    fn warm_table_answers_without_rule_tries() {
        let kb = kb("p(X) <- q(X). q(1). q(2). q(3).");
        let table: SharedTable = Rc::new(RefCell::new(AnswerTable::new()));
        let goals = parse_goals("p(X)").unwrap();

        let mut cold = Solver::new(&kb, PeerId::new("self"))
            .with_config(tabled_config())
            .with_table(table.clone());
        let first = cold.solve(&goals);
        assert_eq!(first.len(), 3);
        let cold_steps = cold.stats().steps;

        let mut warm = Solver::new(&kb, PeerId::new("self"))
            .with_config(tabled_config())
            .with_table(table.clone());
        let second = warm.solve(&goals);
        assert_eq!(answers(&first, "X"), answers(&second, "X"));
        assert!(
            warm.stats().steps < cold_steps,
            "warm solve must do fewer resolution steps ({} vs {cold_steps})",
            warm.stats().steps
        );
        assert_eq!(warm.stats().rule_tries, 0);
        assert!(table.borrow().stats().hits >= 1);
    }

    #[test]
    fn cyclic_programs_terminate_with_tabling() {
        let src = r#"
            reach(X, Y) <- edge(X, Y).
            reach(X, Z) <- edge(X, Y), reach(Y, Z).
            edge(1, 2). edge(2, 1). edge(2, 3).
        "#;
        let kb = kb(src);
        let mut plain = Solver::new(&kb, PeerId::new("self"));
        let mut tabled = Solver::new(&kb, PeerId::new("self")).with_config(tabled_config());
        let goals = parse_goals("reach(1, W)").unwrap();
        let a = plain.solve(&goals);
        let b = tabled.solve(&goals);
        assert_eq!(answers(&a, "W"), answers(&b, "W"));
    }

    #[test]
    fn nonground_answers_rename_apart_on_reuse() {
        // `open(X)` has the non-ground answer open(_). Reusing it for
        // open(A) and open(B) must not alias A and B through the stored
        // answer's variable: the follow-up bindings A=1, B=2 only succeed
        // when each reuse got a fresh renaming.
        let kb = kb("open(X). pair(A, B) <- open(A), open(B), A = 1, B = 2.");
        let mut solver = Solver::new(&kb, PeerId::new("self")).with_config(tabled_config());
        let sols = solver.solve(&parse_goals("pair(A, B)").unwrap());
        assert_eq!(sols.len(), 1, "distinct instantiations must both succeed");
        assert!(solver.table_stats().hits >= 1);
    }

    #[test]
    fn repeated_variables_of_a_tabled_variant_are_projected_once() {
        // The body goal's variant key is `p(_C1, _C2, _C1)`; its
        // sub-derivation must project `_C1` once.
        let kb = kb("p(1, 2, 1). q(X, Y) <- p(X, Y, X).");
        let mut solver = Solver::new(&kb, PeerId::new("self")).with_config(tabled_config());
        let sols = solver.solve(&parse_goals("q(A, B)").unwrap());
        assert_eq!(answers(&sols, "A"), ["1"]);
        assert_eq!(answers(&sols, "B"), ["2"]);
        assert!(solver.table_stats().inserts >= 2);
    }

    #[test]
    fn authority_goals_are_not_tabled() {
        let kb = kb(r#"student("Alice") @ "UIUC" signedBy ["UIUC"]."#);
        let mut solver = Solver::new(&kb, PeerId::new("self")).with_config(tabled_config());
        let sols = solver.solve(&parse_goals(r#"student(X) @ "UIUC""#).unwrap());
        assert_eq!(sols.len(), 1);
        let ts = solver.table_stats();
        assert_eq!(
            ts.misses, 0,
            "authority-chained goals must bypass the table: {ts:?}"
        );
    }

    #[test]
    fn incomplete_variants_resolve_inline() {
        let kb = kb("n(1). n(2). n(3). n(4). n(5).");
        let mut solver = Solver::new(&kb, PeerId::new("self")).with_config(EngineConfig {
            tabling: true,
            table_max_answers: 2, // forces Incomplete on n(X)
            ..EngineConfig::default()
        });
        let sols = solver.solve(&parse_goals("n(X)").unwrap());
        // Inline fallback recovers the full answer set.
        assert_eq!(sols.len(), 5);
        let ts = solver.table_stats();
        assert_eq!(ts.incomplete, 1);
        assert!(ts.inline_fallbacks >= 1);
        // A second occurrence still resolves inline, never from the table.
        let sols2 = solver.solve(&parse_goals("n(Y)").unwrap());
        assert_eq!(sols2.len(), 5);
        assert_eq!(solver.table_stats().hits, 0);
    }
}

#[cfg(test)]
mod naf_tests {
    use super::*;
    use peertrust_core::Term;
    use peertrust_parser::{parse_goals, parse_program};

    fn solve_all(kb_src: &str, query: &str) -> Vec<Solution> {
        let kb: KnowledgeBase = parse_program(kb_src).unwrap().into_iter().collect();
        let mut solver = Solver::new(&kb, PeerId::new("self"));
        solver.solve(&parse_goals(query).unwrap())
    }

    #[test]
    fn naf_succeeds_on_absent_facts() {
        let sols = solve_all(
            "eligible(X) <- person(X), not(banned(X)). person(alice). person(bob). banned(bob).",
            "eligible(W)",
        );
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].subst.apply(&Term::var("W")), Term::atom("alice"));
        // The proof records the negation step.
        let has_negation = sols[0].proofs[0]
            .children
            .iter()
            .any(|c| c.step == ProofStep::Negation);
        assert!(has_negation);
    }

    #[test]
    fn naf_fails_on_derivable_goals() {
        // banned is derivable through a rule, not just a fact.
        let sols = solve_all(
            "ok <- not(banned(bob)). banned(X) <- flagged(X). flagged(bob).",
            "ok",
        );
        assert!(sols.is_empty());
    }

    #[test]
    fn nonground_negation_flounders() {
        let sols = solve_all("p <- not(q(X)). q(1).", "p");
        assert!(
            sols.is_empty(),
            "non-ground negation must flounder, not succeed"
        );
    }

    #[test]
    fn zero_arity_negated_goal() {
        let sols = solve_all("p <- not(closed). open_flag.", "p");
        assert_eq!(sols.len(), 1);
    }

    #[test]
    fn double_negation() {
        let sols = solve_all("p <- not(q). q <- not(r).", "p");
        // q succeeds (r unprovable), so not(q) fails, so p fails.
        assert!(sols.is_empty());
        let sols2 = solve_all("p <- not(q). q <- not(r). r.", "p");
        // r holds => q fails => not(q) holds => p holds.
        assert_eq!(sols2.len(), 1);
    }

    #[test]
    fn forward_chaining_skips_naf_rules() {
        let kb: KnowledgeBase = parse_program("p <- not(q). base(1).")
            .unwrap()
            .into_iter()
            .collect();
        let sat = crate::forward::saturate(
            &kb,
            PeerId::new("self"),
            crate::forward::ForwardConfig::default(),
        );
        // The NAF rule is skipped: p is not forward-derived even though
        // SLD proves it. Documented stratification limitation.
        assert!(!sat.contains(&Literal::new("p", vec![])));
    }
}
