//! Literals with authority chains.
//!
//! A PeerTrust literal is `p(t1, ..., tn) @ A1 @ A2 @ ... @ Ak` (paper
//! §3.1). The authority chain is evaluated *outermost first*: the literal
//! `student(X) @ "UIUC" @ X` means "ask peer `X` for the statement
//! `student(X) @ "UIUC"`", i.e. the last authority in program order is the
//! peer contacted first, and each step peels one authority off the end.
//!
//! We store the chain in *program order* (the order the `@`s appear), so
//! `authority.last()` is the peer to contact and `strip_outer_authority`
//! removes it.
//!
//! Builtin comparisons (`=`, `<`, `<=`, `>`, `>=`, `!=`) are represented as
//! ordinary binary literals with reserved predicate symbols; the engine
//! recognizes and evaluates them natively.

use crate::symbol::{PeerId, Sym};
use crate::term::{Term, Var};
use std::fmt;
use std::sync::OnceLock;

/// The reserved predicate names the engine evaluates as builtins.
pub const BUILTIN_PREDICATES: &[&str] = &["=", "!=", "<", "<=", ">", ">="];

/// The predicate symbols the engine tests every selected goal against,
/// interned once: comparing `Sym`s skips the interner's shard lock that
/// [`Sym::as_str`] takes.
struct Reserved {
    /// [`BUILTIN_PREDICATES`] followed by `true`.
    builtins: [Sym; 7],
    not: Sym,
}

fn reserved() -> &'static Reserved {
    static RESERVED: OnceLock<Reserved> = OnceLock::new();
    RESERVED.get_or_init(|| {
        let mut builtins = [Sym::new("true"); 7];
        for (sym, name) in builtins.iter_mut().zip(BUILTIN_PREDICATES) {
            *sym = Sym::new(name);
        }
        Reserved {
            builtins,
            not: Sym::new("not"),
        }
    })
}

/// A (positive) literal: predicate, arguments, and authority chain.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Literal {
    /// Predicate symbol, e.g. `student`.
    pub pred: Sym,
    /// Argument terms.
    pub args: Vec<Term>,
    /// Authority chain in program order; empty means "evaluated at `Self`".
    /// `student(X) @ "UIUC" @ X` has `authority = ["UIUC", X]` and the peer
    /// to contact is `X` (the last element).
    pub authority: Vec<Term>,
}

impl Literal {
    /// Build a literal with no authority chain.
    pub fn new(pred: impl Into<Sym>, args: Vec<Term>) -> Literal {
        Literal {
            pred: pred.into(),
            args,
            authority: Vec::new(),
        }
    }

    /// Append one authority to the chain (builder style). Successive calls
    /// mirror successive `@`s in the paper syntax:
    /// `Literal::new(...).at(uiuc).at(x)` is `lit @ uiuc @ x`.
    pub fn at(mut self, authority: Term) -> Literal {
        self.authority.push(authority);
        self
    }

    /// A builtin equality literal `a = b`.
    pub fn eq(a: Term, b: Term) -> Literal {
        Literal::new("=", vec![a, b])
    }

    /// A builtin comparison literal, e.g. `cmp("<", price, 2000)`.
    pub fn cmp(op: &str, a: Term, b: Term) -> Literal {
        debug_assert!(BUILTIN_PREDICATES.contains(&op), "unknown builtin {op}");
        Literal::new(op, vec![a, b])
    }

    /// The reserved `true` literal (used as the trivially satisfied context).
    pub fn truth() -> Literal {
        Literal::new("true", vec![])
    }

    /// Is this a builtin comparison the engine evaluates natively?
    pub fn is_builtin(&self) -> bool {
        reserved().builtins.contains(&self.pred)
    }

    /// Is this a negation-as-failure goal `not(g)`?
    pub fn is_negation(&self) -> bool {
        self.pred == reserved().not && self.args.len() == 1
    }

    /// Structural pre-filter for [`crate::bindings::unify_literals_in`]:
    /// `false` only when the two literals differ in predicate, arity or
    /// authority-chain length, or when at some aligned position neither
    /// holds a variable and the two disagree on a constant or functor.
    /// Never `false` for a pair that unifies.
    pub fn may_unify(&self, other: &Literal) -> bool {
        self.pred == other.pred
            && self.args.len() == other.args.len()
            && self.authority.len() == other.authority.len()
            && self
                .args
                .iter()
                .zip(&other.args)
                .chain(self.authority.iter().zip(&other.authority))
                .all(|(a, b)| a.may_unify(b))
    }

    /// Predicate/arity pair used for knowledge-base indexing.
    pub fn functor(&self) -> (Sym, usize) {
        (self.pred, self.args.len())
    }

    /// Is the literal fully ground (arguments and authorities)?
    pub fn is_ground(&self) -> bool {
        self.args.iter().all(Term::is_ground) && self.authority.iter().all(Term::is_ground)
    }

    /// The peer this literal should be evaluated at next: the *last*
    /// authority in program order (outermost evaluation first, paper §3.1),
    /// if it is a ground peer name.
    pub fn eval_peer(&self) -> Option<PeerId> {
        self.authority.last().and_then(Term::as_peer)
    }

    /// Remove the outermost authority (the one evaluated first), returning
    /// the literal the contacted peer is asked to establish.
    /// `student(X)@"UIUC"@X → student(X)@"UIUC"` (sent to peer `X`).
    pub fn strip_outer_authority(&self) -> Literal {
        let mut l = self.clone();
        l.authority.pop();
        l
    }

    /// Collect every variable in arguments and authority chain.
    pub fn collect_vars(&self, out: &mut Vec<Var>) {
        for t in &self.args {
            t.collect_vars(out);
        }
        for t in &self.authority {
            t.collect_vars(out);
        }
    }

    /// All distinct variables, in first-occurrence order.
    pub fn vars(&self) -> Vec<Var> {
        let mut all = Vec::new();
        self.collect_vars(&mut all);
        let mut seen = Vec::new();
        for v in all {
            if !seen.contains(&v) {
                seen.push(v);
            }
        }
        seen
    }

    /// Rewrite every variable with `f` (standardize-apart support).
    pub fn map_vars(&self, f: &mut impl FnMut(Var) -> Term) -> Literal {
        Literal {
            pred: self.pred,
            args: self.args.iter().map(|t| t.map_vars(f)).collect(),
            authority: self.authority.iter().map(|t| t.map_vars(f)).collect(),
        }
    }

    /// Total symbol count (size budget input).
    pub fn size(&self) -> usize {
        1 + self.args.iter().map(Term::size).sum::<usize>()
            + self.authority.iter().map(Term::size).sum::<usize>()
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Builtin comparisons print infix, like the paper's `Price < 2000`.
        if self.args.len() == 2 && BUILTIN_PREDICATES.contains(&self.pred.as_str()) {
            write!(f, "{} {} {}", self.args[0], self.pred, self.args[1])?;
        } else if self.args.is_empty() {
            write!(f, "{}", self.pred)?;
        } else {
            write!(f, "{}(", self.pred)?;
            for (i, a) in self.args.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{a}")?;
            }
            write!(f, ")")?;
        }
        for auth in &self.authority {
            write!(f, " @ {auth}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_plain_literal() {
        let l = Literal::new("student", vec![Term::str("Alice")]);
        assert_eq!(l.to_string(), "student(\"Alice\")");
    }

    #[test]
    fn display_with_authority_chain() {
        let l = Literal::new("student", vec![Term::var("X")])
            .at(Term::str("UIUC"))
            .at(Term::var("X"));
        assert_eq!(l.to_string(), "student(X) @ \"UIUC\" @ X");
    }

    #[test]
    fn display_builtin_infix() {
        let l = Literal::cmp("<", Term::var("Price"), Term::int(2000));
        assert_eq!(l.to_string(), "Price < 2000");
    }

    #[test]
    fn display_zero_arity() {
        let l = Literal::truth();
        assert_eq!(l.to_string(), "true");
    }

    #[test]
    fn eval_peer_is_last_authority() {
        let l = Literal::new("student", vec![Term::str("Alice")])
            .at(Term::str("UIUC"))
            .at(Term::str("Alice"));
        assert_eq!(l.eval_peer(), Some(PeerId::new("Alice")));
        let stripped = l.strip_outer_authority();
        assert_eq!(stripped.eval_peer(), Some(PeerId::new("UIUC")));
        assert_eq!(stripped.strip_outer_authority().eval_peer(), None);
    }

    #[test]
    fn eval_peer_none_when_variable() {
        let l = Literal::new("p", vec![]).at(Term::var("A"));
        assert_eq!(l.eval_peer(), None);
    }

    #[test]
    fn vars_dedup_in_order() {
        let l = Literal::new("p", vec![Term::var("X"), Term::var("Y")]).at(Term::var("X"));
        let names: Vec<_> = l.vars().iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, ["X", "Y"]);
    }

    #[test]
    fn groundness_includes_authority() {
        let l = Literal::new("p", vec![Term::int(1)]).at(Term::var("A"));
        assert!(!l.is_ground());
        let g = Literal::new("p", vec![Term::int(1)]).at(Term::str("A"));
        assert!(g.is_ground());
    }

    #[test]
    fn builtins_recognized() {
        assert!(Literal::eq(Term::int(1), Term::int(1)).is_builtin());
        assert!(Literal::cmp(">=", Term::int(2), Term::int(1)).is_builtin());
        assert!(Literal::truth().is_builtin());
        assert!(!Literal::new("student", vec![]).is_builtin());
    }

    #[test]
    fn negation_needs_one_argument() {
        let g = Term::compound("banned", vec![Term::atom("bob")]);
        assert!(Literal::new("not", vec![g.clone()]).is_negation());
        assert!(!Literal::new("not", vec![g.clone(), g]).is_negation());
        assert!(!Literal::new("nott", vec![Term::atom("a")]).is_negation());
    }

    #[test]
    fn may_unify_rejects_only_clashes() {
        let (x, y) = (Term::var("X"), Term::var("Y"));
        let p = |args: Vec<Term>| Literal::new("p", args);
        // Variables match anything; repeated ones are unification's job.
        assert!(p(vec![x.clone(), x.clone()]).may_unify(&p(vec![Term::int(1), Term::int(2)])));
        assert!(p(vec![Term::compound("f", vec![x.clone()])]).may_unify(&p(vec![y.clone()])));
        // Constant, functor, arity and chain-length clashes.
        assert!(!p(vec![x.clone(), Term::int(1)]).may_unify(&p(vec![y.clone(), Term::int(2)])));
        assert!(!p(vec![Term::atom("a")]).may_unify(&p(vec![Term::str("a")])));
        let f = |name: &str| Term::compound(name, vec![x.clone()]);
        assert!(!p(vec![f("f")]).may_unify(&p(vec![f("g")])));
        assert!(!p(vec![x.clone()]).may_unify(&p(vec![x.clone(), y.clone()])));
        assert!(!p(vec![x.clone()]).may_unify(&p(vec![y.clone()]).at(Term::str("A"))));
        assert!(!p(vec![x.clone()])
            .at(Term::str("A"))
            .may_unify(&p(vec![y]).at(Term::str("B"))));
    }

    #[test]
    fn functor_pairs_pred_and_arity() {
        let l = Literal::new("p", vec![Term::int(1), Term::int(2)]);
        assert_eq!(l.functor(), (Sym::new("p"), 2));
    }
}
