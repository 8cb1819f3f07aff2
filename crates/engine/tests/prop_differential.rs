//! Differential property tests: the trail-based production solver and the
//! clone-per-branch reference interpreter (`support/reference.rs`) are
//! observationally identical on the local fragment — same answers, in the
//! same order, with the same proof trees — and the answer table's recorded
//! contents match what the reference interpreter derives.

#[path = "support/reference.rs"]
mod reference;

use peertrust_core::prelude::*;
use peertrust_engine::{canonicalize, AnswerTable, EngineConfig, Proof, Solution, Solver};
use proptest::prelude::*;
use reference::RefSolver;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// A random safe program over a small universe, mirroring the generator in
/// `prop_agreement.rs` but with an optional builtin guard in rule bodies so
/// the destructive builtin path is exercised too.
#[derive(Clone, Debug)]
struct Program {
    rules: Vec<Rule>,
}

fn arb_const() -> impl Strategy<Value = Term> {
    (0i64..4).prop_map(Term::int)
}

fn arb_program() -> impl Strategy<Value = Program> {
    let facts = prop::collection::vec(
        (0u32..3, arb_const(), arb_const())
            .prop_map(|(p, a, b)| Rule::fact(Literal::new(format!("e{p}").as_str(), vec![a, b]))),
        1..8,
    );
    let rules = prop::collection::vec(
        (
            0u32..2,
            0u32..3,
            0u32..3,
            any::<bool>(),
            any::<bool>(),
            prop::option::of(0i64..4),
        )
            .prop_map(|(hk, b1, b2, use_idb, chain, guard)| {
                let (x, y, z) = (Term::var("X"), Term::var("Y"), Term::var("Z"));
                let head = Literal::new(format!("p{hk}").as_str(), vec![x.clone(), y.clone()]);
                let first = Literal::new(
                    format!("e{b1}").as_str(),
                    vec![x.clone(), if chain { z.clone() } else { y.clone() }],
                );
                let second_name = if use_idb {
                    format!("p{}", b2 % 2)
                } else {
                    format!("e{b2}")
                };
                let second = Literal::new(
                    second_name.as_str(),
                    vec![if chain { z } else { x.clone() }, y],
                );
                let mut body = vec![first, second];
                if let Some(bound) = guard {
                    body.push(Literal::cmp("<=", x, Term::int(bound)));
                }
                Rule::horn(head, body)
            }),
        0..5,
    );
    (facts, rules).prop_map(|(f, r)| Program {
        rules: f.into_iter().chain(r).collect(),
    })
}

/// Random delegation programs: ground `d{p}(a,b) @ "auth{k}"` facts, an
/// optional open-authority rule `d{p}(X,Y) @ V <- base(X,Y)` whose head
/// authority is a variable, and `q` rules whose bodies delegate to a fixed
/// authority. Exercises authority-chain unification, open-authority heads
/// and the §3.2 self-closure pass, none of which `arb_program` generates.
fn arb_auth_program() -> impl Strategy<Value = Program> {
    let base = prop::collection::vec(
        (arb_const(), arb_const()).prop_map(|(a, b)| Rule::fact(Literal::new("base", vec![a, b]))),
        1..4,
    );
    let delegated = prop::collection::vec(
        (0u32..2, arb_const(), arb_const(), 0u32..2).prop_map(|(p, a, b, k)| {
            Rule::fact(
                Literal::new(format!("d{p}").as_str(), vec![a, b])
                    .at(Term::str(format!("auth{k}").as_str())),
            )
        }),
        1..6,
    );
    let open = prop::collection::vec(
        (0u32..2).prop_map(|p| {
            let (x, y) = (Term::var("X"), Term::var("Y"));
            Rule::horn(
                Literal::new(format!("d{p}").as_str(), vec![x.clone(), y.clone()])
                    .at(Term::var("V")),
                vec![Literal::new("base", vec![x, y])],
            )
        }),
        0..2,
    );
    let deleg_rules = prop::collection::vec(
        (0u32..2, 0u32..2).prop_map(|(p, k)| {
            let (x, y) = (Term::var("X"), Term::var("Y"));
            Rule::horn(
                Literal::new("q", vec![x.clone(), y.clone()]),
                vec![Literal::new(format!("d{p}").as_str(), vec![x, y])
                    .at(Term::str(format!("auth{k}").as_str()))],
            )
        }),
        0..3,
    );
    (base, delegated, open, deleg_rules).prop_map(|(b, d, o, r)| Program {
        rules: b.into_iter().chain(d).chain(o).chain(r).collect(),
    })
}

/// Programs whose answers keep fresh rule variables: clause heads carry
/// variables their bodies never bind (`r0(Z, 1) <- u.`, the fact
/// `w(Z).`), so each answer shows the raw version the rename counter gave
/// it, and a conjunctive goal reaches the same clauses again after
/// backtracking. Constants in the second head argument make the
/// pre-filter reject candidates whose variables still draw versions, and
/// an optional `@ "self"` head authority turns the §3.2 self-closure pass
/// on for its predicate. `r1` bodies call `r0`, `r0` bodies only facts,
/// so every derivation is finite.
fn arb_open_program() -> impl Strategy<Value = Program> {
    let arg = prop_oneof![
        Just(Term::var("Z")),
        Just(Term::var("Y")),
        (0i64..3).prop_map(Term::int),
        Just(Term::compound("f", vec![Term::var("Z")])),
    ];
    let clause = (0u32..2, arg.clone(), arg, 0u32..4, 0i64..3, any::<bool>()).prop_map(
        |(p, a, b, body, k, chained)| {
            let mut head = Literal::new(format!("r{p}").as_str(), vec![a, b]);
            if chained {
                head = head.at(Term::str("self"));
            }
            let y = Term::var("Y");
            let body = match (body, p) {
                (0, _) => vec![Literal::new("u", vec![])],
                (1, _) => vec![Literal::new("w", vec![y])],
                (2, 1) => vec![Literal::new("r0", vec![y, Term::int(k)])],
                (_, 1) => vec![Literal::new("r0", vec![Term::var("W"), y])],
                _ => vec![],
            };
            Rule::horn(head, body)
        },
    );
    prop::collection::vec(clause, 1..7).prop_map(|clauses| {
        let facts = [
            Rule::fact(Literal::new("u", vec![])),
            Rule::fact(Literal::new("w", vec![Term::int(1)])),
            Rule::fact(Literal::new("w", vec![Term::var("Z")])),
        ];
        Program {
            rules: facts.into_iter().chain(clauses).collect(),
        }
    })
}

fn config() -> EngineConfig {
    EngineConfig {
        max_solutions: 512,
        max_steps: 500_000,
        ..EngineConfig::default()
    }
}

/// Render one solution as (answer instance, proof sketch) with variables
/// canonicalized per literal — identical evaluations must render equal.
fn render(goal: &Literal, sol: &Solution) -> (String, Vec<String>) {
    fn sketch(p: &Proof, out: &mut Vec<String>) {
        out.push(format!("{:?} {}", p.step, canonicalize(&p.goal)));
        for c in &p.children {
            sketch(c, out);
        }
    }
    let mut proofs = Vec::new();
    for p in &sol.proofs {
        sketch(p, &mut proofs);
    }
    (
        canonicalize(&sol.subst.apply_literal(goal)).to_string(),
        proofs,
    )
}

/// Render solutions with variables exactly as the solver numbered them:
/// each goal's answer instance and each proof node's goal.
fn render_raw(goals: &[Literal], sol: &Solution) -> (Vec<String>, Vec<String>) {
    fn sketch(p: &Proof, out: &mut Vec<String>) {
        out.push(format!("{:?} {}", p.step, p.goal));
        for c in &p.children {
            sketch(c, out);
        }
    }
    let mut proofs = Vec::new();
    for p in &sol.proofs {
        sketch(p, &mut proofs);
    }
    let answers = goals
        .iter()
        .map(|g| sol.subst.apply_literal(g).to_string())
        .collect();
    (answers, proofs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Raw variable versions match the reference interpreter, which
    /// renames every candidate on both clause passes: a candidate the
    /// pre-filter rejects, and a self-closure pass the engine skips, must
    /// still draw the versions their renames would have.
    #[test]
    fn raw_variable_versions_match_reference(prog in arb_open_program()) {
        let kb: KnowledgeBase = prog.rules.iter().cloned().collect();
        let (a, b, c) = (Term::var("A"), Term::var("B"), Term::var("C"));
        let queries = [
            vec![Literal::new("r0", vec![a.clone(), b.clone()])],
            vec![Literal::new("r1", vec![a.clone(), b.clone()])],
            vec![
                Literal::new("r0", vec![a.clone(), Term::int(1)]),
                Literal::new("r1", vec![b.clone(), c.clone()]),
                Literal::new("r0", vec![c, a]),
            ],
        ];
        for goals in &queries {
            let mut production = Solver::new(&kb, PeerId::new("self")).with_config(config());
            let got = production.solve(goals);
            let mut reference = RefSolver::new(&kb, PeerId::new("self")).with_config(config());
            let want = reference.solve(goals);
            prop_assume!(!production.stats().step_budget_exhausted);

            let got_r: Vec<_> = got.iter().map(|s| render_raw(goals, s)).collect();
            let want_r: Vec<_> = want.iter().map(|s| render_raw(goals, s)).collect();
            prop_assert_eq!(
                &got_r, &want_r,
                "raw versions diverge on {:?}: trail {:?} vs reference {:?}",
                goals, got_r, want_r
            );
        }
    }

    /// The trail-based solver and the clone-per-branch reference produce
    /// the same solutions — same instances, same order, same proof trees.
    #[test]
    fn trail_solver_matches_reference_interpreter(prog in arb_program()) {
        let kb: KnowledgeBase = prog.rules.iter().cloned().collect();
        for pred in ["p0", "p1", "e0"] {
            let goal = Literal::new(pred, vec![Term::var("A"), Term::var("B")]);
            let mut production = Solver::new(&kb, PeerId::new("self")).with_config(config());
            let got = production.solve(std::slice::from_ref(&goal));
            let mut reference = RefSolver::new(&kb, PeerId::new("self")).with_config(config());
            let want = reference.solve(std::slice::from_ref(&goal));
            prop_assume!(!production.stats().step_budget_exhausted);

            let got_r: Vec<_> = got.iter().map(|s| render(&goal, s)).collect();
            let want_r: Vec<_> = want.iter().map(|s| render(&goal, s)).collect();
            prop_assert_eq!(
                &got_r, &want_r,
                "solvers diverge on {}: trail {:?} vs reference {:?}",
                pred, got_r, want_r
            );
        }
    }

    /// Authority-heavy delegation programs: both solvers agree on who can
    /// prove what — including goals answered by an open-authority rule and
    /// rules whose bodies delegate to an authority.
    #[test]
    fn trail_solver_matches_reference_on_authority_programs(prog in arb_auth_program()) {
        let kb: KnowledgeBase = prog.rules.iter().cloned().collect();
        for (pred, auth) in [("d0", Some("auth0")), ("d0", Some("auth1")), ("d1", Some("auth0")), ("q", None)] {
            let mut goal = Literal::new(pred, vec![Term::var("A"), Term::var("B")]);
            if let Some(a) = auth {
                goal = goal.at(Term::str(a));
            }
            let mut production = Solver::new(&kb, PeerId::new("self")).with_config(config());
            let got = production.solve(std::slice::from_ref(&goal));
            let mut reference = RefSolver::new(&kb, PeerId::new("self")).with_config(config());
            let want = reference.solve(std::slice::from_ref(&goal));
            prop_assume!(!production.stats().step_budget_exhausted);

            let got_r: Vec<_> = got.iter().map(|s| render(&goal, s)).collect();
            let want_r: Vec<_> = want.iter().map(|s| render(&goal, s)).collect();
            prop_assert_eq!(
                &got_r, &want_r,
                "solvers diverge on {}@{:?}: trail {:?} vs reference {:?}",
                pred, auth, got_r, want_r
            );
        }
    }

    /// With tabling on, every completed table entry holds exactly the
    /// instances the reference interpreter derives for that variant.
    #[test]
    fn table_contents_match_reference_answers(prog in arb_program()) {
        let kb: KnowledgeBase = prog.rules.iter().cloned().collect();
        let goal = Literal::new("p0", vec![Term::var("A"), Term::var("B")]);
        let table = Rc::new(RefCell::new(AnswerTable::new()));
        let mut production = Solver::new(&kb, PeerId::new("self"))
            .with_config(EngineConfig { tabling: true, ..config() })
            .with_table(table.clone());
        let _ = production.solve(std::slice::from_ref(&goal));
        prop_assume!(!production.stats().step_budget_exhausted);

        let key = canonicalize(&goal);
        let stored: Option<BTreeSet<String>> = table
            .borrow_mut()
            .lookup(&key)
            .map(|answers| answers.iter().map(|a| canonicalize(&a.answer).to_string()).collect());
        // Entry may be absent (inline fallback after an incomplete run).
        let Some(stored) = stored else { return Ok(()); };

        let mut reference = RefSolver::new(&kb, PeerId::new("self")).with_config(config());
        let derived: BTreeSet<String> = reference
            .solve(std::slice::from_ref(&goal))
            .iter()
            .map(|s| canonicalize(&s.subst.apply_literal(&goal)).to_string())
            .collect();
        prop_assert_eq!(
            &stored, &derived,
            "table entry for {} diverges from reference", key
        );
    }
}
