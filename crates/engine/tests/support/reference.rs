//! Reference clone-per-branch SLD interpreter — test-only support.
//!
//! This preserves the solver's *pre-trail* evaluation strategy: at every
//! choice point the whole substitution is cloned, the branch extends its
//! private copy, and backtracking is "drop the copy". It is the
//! differential oracle for `prop_differential.rs`: the production
//! [`peertrust_engine::Solver`] backtracks by rolling a binding trail back
//! (O(bindings undone) instead of O(clone)), and both interpreters must
//! produce identical answer sets and proof shapes on random programs.
//!
//! It is built from the engine's public items only, so it cannot drift
//! into sharing the production solver's internals.
//!
//! Scope: the local fragment — KB clauses, builtins, negation as failure,
//! self-authority stripping and §3.2 self-closure, the depth bound and the
//! ancestor variant check. No tabling and no remote resolution (the
//! production solver's remote/tabling layers sit *above* unification and
//! are exercised by their own tests).

use peertrust_core::{unify_literals, KnowledgeBase, Literal, PeerId, Subst, Term, Var};
use peertrust_engine::{
    eval_builtin, is_variant, BuiltinOutcome, EngineConfig, Proof, ProofStep, Solution,
};
use std::sync::Arc;

/// Work items on the evaluation agenda (mirrors the production solver).
enum GoalItem {
    Lit(Literal, usize),
    Fold {
        goal: Literal,
        step: ProofStep,
        arity: usize,
    },
}

enum Flow {
    Continue,
    Stop,
}

/// The clone-per-branch interpreter. Same surface as [`peertrust_engine::Solver`]
/// restricted to the local fragment: borrow a KB, configure, `solve`.
pub struct RefSolver<'a> {
    kb: &'a KnowledgeBase,
    self_id: PeerId,
    config: EngineConfig,
    rename_counter: u32,
    steps: u64,
    step_budget_exhausted: bool,
}

impl<'a> RefSolver<'a> {
    pub fn new(kb: &'a KnowledgeBase, self_id: PeerId) -> RefSolver<'a> {
        RefSolver {
            kb,
            self_id,
            config: EngineConfig::default(),
            rename_counter: 0,
            steps: 0,
            step_budget_exhausted: false,
        }
    }

    pub fn with_config(mut self, config: EngineConfig) -> RefSolver<'a> {
        self.config = config;
        self
    }

    /// Prove the conjunction `goals`, returning up to
    /// `config.max_solutions` answers with proofs.
    pub fn solve(&mut self, goals: &[Literal]) -> Vec<Solution> {
        let mut query_vars: Vec<Var> = Vec::new();
        for v in goals.iter().flat_map(Literal::vars) {
            if !query_vars.contains(&v) {
                query_vars.push(v);
            }
        }
        let agenda: Vec<GoalItem> = goals.iter().map(|g| GoalItem::Lit(g.clone(), 0)).collect();
        let mut out = Vec::new();
        let mut anc: Vec<Literal> = Vec::new();
        let mut acc: Vec<Proof> = Vec::new();
        let _ = self.prove(
            &agenda,
            &Subst::new(),
            &mut anc,
            &mut acc,
            &mut out,
            &query_vars,
        );
        out
    }

    /// Is the conjunction provable at all?
    pub fn provable(&mut self, goals: &[Literal]) -> bool {
        let saved = self.config.max_solutions;
        self.config.max_solutions = 1;
        let r = !self.solve(goals).is_empty();
        self.config.max_solutions = saved;
        r
    }

    #[allow(clippy::too_many_arguments)]
    fn prove(
        &mut self,
        agenda: &[GoalItem],
        s: &Subst,
        anc: &mut Vec<Literal>,
        acc: &mut Vec<Proof>,
        out: &mut Vec<Solution>,
        query_vars: &[Var],
    ) -> Flow {
        if self.step_budget_exhausted {
            return Flow::Stop;
        }
        let Some((item, rest)) = agenda.split_first() else {
            let mut subst = Subst::new();
            for v in query_vars {
                let t = Term::Var(*v);
                let resolved = s.apply(&t);
                if resolved != t {
                    subst.bind(*v, resolved);
                }
            }
            out.push(Solution {
                subst,
                proofs: acc.iter().map(|p| resolve_proof(p, s)).collect(),
            });
            return if out.len() >= self.config.max_solutions {
                Flow::Stop
            } else {
                Flow::Continue
            };
        };

        match item {
            GoalItem::Fold { goal, step, arity } => {
                let children = acc
                    .split_off(acc.len() - arity)
                    .into_iter()
                    .map(Arc::new)
                    .collect();
                acc.push(Proof {
                    goal: goal.clone(),
                    step: step.clone(),
                    children,
                });
                let popped = anc.pop();
                let flow = self.prove(rest, s, anc, acc, out, query_vars);
                if let Some(g) = popped {
                    anc.push(g);
                }
                let node = acc.pop().expect("fold node present");
                acc.extend(
                    node.children
                        .into_iter()
                        .map(|c| Arc::try_unwrap(c).unwrap_or_else(|a| (*a).clone())),
                );
                flow
            }
            GoalItem::Lit(goal, depth) => {
                self.steps += 1;
                if self.steps > self.config.max_steps {
                    self.step_budget_exhausted = true;
                    return Flow::Stop;
                }
                let goal = s.apply_literal(goal);
                let depth = *depth;

                // Negation as failure, same floundering rules as the
                // production solver.
                if goal.pred.as_str() == "not" && goal.args.len() == 1 {
                    let inner = match &goal.args[0] {
                        Term::Compound(f, args) => Some(Literal::new(*f, args.to_vec())),
                        Term::Atom(a) => Some(Literal::new(*a, vec![])),
                        _ => None,
                    };
                    let Some(inner) = inner else {
                        return Flow::Continue;
                    };
                    if !inner.is_ground() {
                        return Flow::Continue;
                    }
                    let refuted = {
                        let mut sub =
                            RefSolver::new(self.kb, self.self_id).with_config(EngineConfig {
                                max_solutions: 1,
                                ..self.config
                            });
                        let proved = sub.provable(std::slice::from_ref(&inner));
                        self.steps += sub.steps;
                        !proved
                    };
                    if !refuted {
                        return Flow::Continue;
                    }
                    return self.alternative(
                        &goal,
                        ProofStep::Negation,
                        &[],
                        depth,
                        rest,
                        s,
                        anc,
                        acc,
                        out,
                        query_vars,
                    );
                }

                if goal.is_builtin() {
                    return match eval_builtin(&goal, s) {
                        BuiltinOutcome::True(s2) => self.alternative(
                            &goal,
                            ProofStep::Builtin,
                            &[],
                            depth,
                            rest,
                            &s2,
                            anc,
                            acc,
                            out,
                            query_vars,
                        ),
                        BuiltinOutcome::False | BuiltinOutcome::IllTyped(_) => Flow::Continue,
                    };
                }

                if depth >= self.config.max_depth {
                    return Flow::Continue;
                }

                if self.config.ancestor_loop_check
                    && anc.iter().any(|a| is_variant(&s.apply_literal(a), &goal))
                {
                    return Flow::Continue;
                }

                if goal.eval_peer() == Some(self.self_id) {
                    let inner = goal.strip_outer_authority();
                    return self.alternative(
                        &goal,
                        ProofStep::SelfAuthority,
                        std::slice::from_ref(&inner),
                        depth,
                        rest,
                        s,
                        anc,
                        acc,
                        out,
                        query_vars,
                    );
                }

                // Local clauses: rename apart, clone the substitution per
                // candidate, unify into the clone. This is the hot path the
                // trail store replaced.
                let candidates: Vec<_> = self
                    .kb
                    .candidates(&goal)
                    .map(|sr| (sr.id, sr.rule.clone()))
                    .collect();
                for (id, rule) in &candidates {
                    if rule.body.len() == 1 && rule.body[0] == rule.head {
                        continue;
                    }
                    let renamed = rule.rename_apart_indexed(&mut self.rename_counter);
                    let mut s2 = s.clone();
                    if !unify_literals(&renamed.head, &goal, &mut s2) {
                        continue;
                    }
                    if let Flow::Stop = self.alternative(
                        &goal,
                        ProofStep::Rule(*id),
                        &renamed.body,
                        depth,
                        rest,
                        &s2,
                        anc,
                        acc,
                        out,
                        query_vars,
                    ) {
                        return Flow::Stop;
                    }
                }

                // §3.2 self-closure over the self-extended goal.
                if goal.eval_peer() != Some(self.self_id) {
                    let extended = goal.clone().at(Term::peer(self.self_id));
                    for (id, rule) in &candidates {
                        if rule.body.len() == 1 && rule.body[0] == rule.head {
                            continue;
                        }
                        let renamed = rule.rename_apart_indexed(&mut self.rename_counter);
                        let mut s2 = s.clone();
                        if !unify_literals(&renamed.head, &extended, &mut s2) {
                            continue;
                        }
                        if let Flow::Stop = self.alternative(
                            &goal,
                            ProofStep::Rule(*id),
                            &renamed.body,
                            depth,
                            rest,
                            &s2,
                            anc,
                            acc,
                            out,
                            query_vars,
                        ) {
                            return Flow::Stop;
                        }
                    }
                }

                Flow::Continue
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn alternative(
        &mut self,
        goal: &Literal,
        step: ProofStep,
        body: &[Literal],
        depth: usize,
        rest: &[GoalItem],
        s: &Subst,
        anc: &mut Vec<Literal>,
        acc: &mut Vec<Proof>,
        out: &mut Vec<Solution>,
        query_vars: &[Var],
    ) -> Flow {
        let mut agenda: Vec<GoalItem> = Vec::with_capacity(body.len() + 1 + rest.len());
        for b in body {
            agenda.push(GoalItem::Lit(b.clone(), depth + 1));
        }
        agenda.push(GoalItem::Fold {
            goal: goal.clone(),
            step,
            arity: body.len(),
        });
        agenda.extend(rest.iter().map(|g| match g {
            GoalItem::Lit(l, d) => GoalItem::Lit(l.clone(), *d),
            GoalItem::Fold { goal, step, arity } => GoalItem::Fold {
                goal: goal.clone(),
                step: step.clone(),
                arity: *arity,
            },
        }));
        anc.push(goal.clone());
        let flow = self.prove(&agenda, s, anc, acc, out, query_vars);
        anc.pop();
        flow
    }
}

fn resolve_proof(p: &Proof, s: &Subst) -> Proof {
    Proof {
        goal: s.apply_literal(&p.goal),
        step: p.step.clone(),
        children: p
            .children
            .iter()
            .map(|c| Arc::new(resolve_proof(c, s)))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peertrust_parser::{parse_literal, parse_program};

    fn solve_all(src: &str, goal: &str) -> Vec<Solution> {
        let kb: KnowledgeBase = parse_program(src).unwrap().into_iter().collect();
        let g = parse_literal(goal).unwrap();
        RefSolver::new(&kb, PeerId::new("self")).solve(std::slice::from_ref(&g))
    }

    #[test]
    fn facts_and_rules() {
        let sols = solve_all("q(X) <- p(X). p(1). p(2).", "q(Y)");
        assert_eq!(sols.len(), 2);
        let ys: Vec<_> = sols
            .iter()
            .map(|s| s.subst.apply(&Term::var("Y")))
            .collect();
        assert_eq!(ys, vec![Term::int(1), Term::int(2)]);
    }

    #[test]
    fn cyclic_reachability_terminates() {
        let sols = solve_all(
            "reach(X, Y) <- edge(X, Y).
             reach(X, Z) <- edge(X, Y), reach(Y, Z).
             edge(1, 2). edge(2, 3). edge(3, 1).",
            "reach(1, W)",
        );
        assert_eq!(sols.len(), 3);
    }

    #[test]
    fn builtins_and_negation() {
        let sols = solve_all(
            "ok(X) <- p(X), X < 3, not(blocked(X)). p(1). p(2). p(5). blocked(2).",
            "ok(V)",
        );
        let vs: Vec<_> = sols
            .iter()
            .map(|s| s.subst.apply(&Term::var("V")))
            .collect();
        assert_eq!(vs, vec![Term::int(1)]);
    }

    #[test]
    fn agrees_with_production_solver_on_paper_example() {
        let src = r#"
            authorized(Requester, Resource) <- member(Requester), resource(Resource).
            member("Alice"). member("Bob").
            resource(cs101). resource(cs102).
        "#;
        let kb: KnowledgeBase = parse_program(src).unwrap().into_iter().collect();
        let g = parse_literal("authorized(P, R)").unwrap();
        let reference = RefSolver::new(&kb, PeerId::new("self")).solve(std::slice::from_ref(&g));
        let production =
            peertrust_engine::Solver::new(&kb, PeerId::new("self")).solve(std::slice::from_ref(&g));
        assert_eq!(reference.len(), production.len());
        for (a, b) in reference.iter().zip(&production) {
            assert_eq!(
                a.subst.apply(&Term::var("P")),
                b.subst.apply(&Term::var("P"))
            );
            assert_eq!(
                a.subst.apply(&Term::var("R")),
                b.subst.apply(&Term::var("R"))
            );
        }
    }
}
