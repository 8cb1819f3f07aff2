//! Property tests for clause selection without copying: unifying a rule
//! head through a [`Renaming`] leaves the binding store exactly as
//! renaming the rule with [`Rule::rename_apart_indexed`] and unifying the
//! copy would, and the structural pre-filter [`Literal::may_unify`] never
//! rejects a pair that unifies.

use peertrust_core::prelude::*;
use proptest::prelude::*;

/// Store watermark: target variables at or below it are named, above it
/// (up to `FIRST_COUNTER`) they stand for variables renamed earlier in
/// the derivation, and the rule under test is renamed above the counter.
const BASE: u32 = 8;
const FIRST_COUNTER: u32 = 11;

/// Rule-side terms: source variables (version 0), constants, compounds.
fn arb_rule_term() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        (0u32..3).prop_map(|i| Term::var(["X", "Y", "Z"][i as usize])),
        (0u32..2).prop_map(|i| Term::atom(format!("a{i}").as_str())),
        (0i64..2).prop_map(Term::int),
    ];
    leaf.prop_recursive(2, 12, 2, |inner| {
        (0u32..2, prop::collection::vec(inner, 1..3))
            .prop_map(|(f, args)| Term::compound(format!("f{f}").as_str(), args))
    })
}

/// Goal-side terms: named variables, variables renamed earlier (slot
/// versions between the watermark and the counter), constants, compounds.
fn arb_goal_term() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        (0u32..2).prop_map(|i| Term::var(["G", "H"][i as usize])),
        (BASE + 1..=FIRST_COUNTER).prop_map(|ver| Term::Var(Var::versioned("S", ver))),
        (0u32..2).prop_map(|i| Term::atom(format!("a{i}").as_str())),
        (0i64..2).prop_map(Term::int),
    ];
    leaf.prop_recursive(2, 12, 2, |inner| {
        (0u32..2, prop::collection::vec(inner, 1..3))
            .prop_map(|(f, args)| Term::compound(format!("f{f}").as_str(), args))
    })
}

fn arb_authority(term: impl Strategy<Value = Term> + 'static) -> impl Strategy<Value = Vec<Term>> {
    prop::collection::vec(
        prop_oneof![
            term,
            (0u32..2).prop_map(|i| Term::str(format!("P{i}").as_str()))
        ],
        0..2,
    )
}

fn literal(pred: u32, args: Vec<Term>, authority: Vec<Term>) -> Literal {
    Literal {
        pred: Sym::new(if pred == 0 { "p" } else { "q" }),
        args,
        authority,
    }
}

/// A rule whose head, head context and body share variables, so the
/// renaming must number them in `Rule::vars` order across sections.
fn arb_rule() -> impl Strategy<Value = Rule> {
    let head = (
        0u32..2,
        prop::collection::vec(arb_rule_term(), 0..3),
        arb_authority(arb_rule_term()),
    )
        .prop_map(|(p, args, auth)| literal(p, args, auth));
    let body = prop::collection::vec(
        prop::collection::vec(prop_oneof![arb_rule_term(), Just(Term::var("W"))], 1..3)
            .prop_map(|args| Literal::new("b", args)),
        0..3,
    );
    (head, any::<bool>(), body).prop_map(|(head, ctx, body)| {
        let rule = Rule::horn(head, body);
        if ctx {
            rule.with_head_context(Context::goals(vec![Literal::new(
                "c",
                vec![Term::var("W"), Term::var("X")],
            )]))
        } else {
            rule
        }
    })
}

fn arb_target() -> impl Strategy<Value = Literal> {
    (
        0u32..2,
        prop::collection::vec(arb_goal_term(), 0..3),
        arb_authority(arb_goal_term()),
    )
        .prop_map(|(p, args, auth)| literal(p, args, auth))
}

/// A store with some goal variables already bound, as mid-derivation.
fn arb_store() -> impl Strategy<Value = Bindings> {
    prop::collection::vec((arb_goal_term(), arb_goal_term()), 0..3).prop_map(|pairs| {
        let mut bs = Bindings::new(BASE);
        for (a, b) in &pairs {
            let _ = unify_in(a, b, &mut bs);
        }
        bs
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Unifying the head through the renaming makes the same bindings,
    /// trail entries and rollbacks as unifying the renamed copy, and the
    /// renamed body literals equal the copy's.
    #[test]
    fn head_unify_matches_rename_then_unify(
        rule in arb_rule(),
        target in arb_target(),
        store in arb_store(),
        skip in 0u32..3,
    ) {
        let counter = FIRST_COUNTER + skip;
        let mut copied_counter = counter;
        let copy = rule.rename_apart_indexed(&mut copied_counter);
        let mut want = store.clone();
        let want_ok = unify_literals_in(&copy.head, &target, &mut want);

        let vars = rule.vars();
        prop_assert_eq!(copied_counter, counter + vars.len() as u32);
        let ren = Renaming::new(&vars, counter);
        let mut got = store;
        let got_ok = unify_head_in(&rule.head, ren, &target, &mut got);

        prop_assert_eq!(got_ok, want_ok, "{} against {}", rule.head, target);
        prop_assert_eq!(&got, &want, "stores diverge: {} against {}", rule.head, target);
        prop_assert_eq!(got.stats(), want.stats());
        for (b, copied) in rule.body.iter().zip(&copy.body) {
            prop_assert_eq!(&ren.literal(b), copied);
        }
    }

    /// The pre-filter only rejects pairs that do not unify.
    #[test]
    fn prefilter_never_rejects_a_unifiable_pair(
        rule in arb_rule(),
        target in arb_target(),
        store in arb_store(),
    ) {
        let mut counter = FIRST_COUNTER;
        let copy = rule.rename_apart_indexed(&mut counter);
        let mut bs = store;
        if unify_literals_in(&copy.head, &target, &mut bs) {
            prop_assert!(
                rule.head.may_unify(&target),
                "pre-filter rejected unifiable {} and {}", rule.head, target
            );
        }
    }
}
