//! First-order terms.
//!
//! PeerTrust terms are standard logic-programming terms: variables, atoms
//! (lower-case identifiers such as `cs101`), quoted strings (peer and person
//! names such as `"UIUC"`), integers (prices), and compound terms
//! (a function symbol applied to argument terms).
//!
//! Variables carry a *version* used by standardize-apart renaming: version 0
//! is a source-program variable; the engine bumps versions when it copies a
//! rule into a derivation so that distinct rule instances never share
//! variables.

use crate::symbol::{well_known, PeerId, Sym};
use std::fmt;
use std::sync::Arc;

/// A logic variable: a display name plus a renaming version.
///
/// Two variables are the same iff both name and version match. Parsers
/// produce version 0; `Rule::rename_apart` produces fresh versions.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Var {
    pub name: Sym,
    pub version: u32,
}

impl Var {
    pub fn new(name: impl Into<Sym>) -> Var {
        Var {
            name: name.into(),
            version: 0,
        }
    }

    pub fn versioned(name: impl Into<Sym>, version: u32) -> Var {
        Var {
            name: name.into(),
            version,
        }
    }

    /// Is this the `Requester` pseudo-variable (any version)?
    pub fn is_requester(&self) -> bool {
        self.name == well_known::requester()
    }

    /// Is this the `Self` pseudo-variable (any version)?
    pub fn is_self(&self) -> bool {
        self.name == well_known::self_()
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.version == 0 {
            write!(f, "{}", self.name)
        } else {
            write!(f, "{}_{}", self.name, self.version)
        }
    }
}

/// The shape of a ground(-enough) term for first-argument clause
/// indexing: what a switch-on-constant dispatch can discriminate on
/// without unifying. Compound terms key on their functor only — argument
/// disagreement is left to unification (an over-approximation, never a
/// miss). Variables have no key.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IndexKey {
    Atom(Sym),
    Str(Sym),
    Int(i64),
    Functor(Sym),
}

/// A first-order term.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Term {
    /// A logic variable, e.g. `Course`, `X`.
    Var(Var),
    /// An unquoted constant, e.g. `cs101`, `purchaseApproved`.
    Atom(Sym),
    /// A quoted string constant, e.g. `"UIUC"`, `"Alice"`.
    Str(Sym),
    /// An integer constant, e.g. `2000`.
    Int(i64),
    /// A compound term `f(t1, ..., tn)` with n >= 1.
    ///
    /// The argument list is reference-counted (`Arc`, so terms stay
    /// `Send`): cloning a compound — which the solver does on every
    /// binding, answer and proof node — bumps a counter instead of
    /// deep-copying the subtree, and ground subterms are structurally
    /// shared between a rule and every instance derived from it.
    Compound(Sym, Arc<[Term]>),
}

impl Term {
    /// Convenience constructor for a variable term.
    pub fn var(name: impl Into<Sym>) -> Term {
        Term::Var(Var::new(name))
    }

    /// Convenience constructor for an atom term.
    pub fn atom(name: impl Into<Sym>) -> Term {
        Term::Atom(name.into())
    }

    /// Convenience constructor for a string term.
    pub fn str(s: impl Into<Sym>) -> Term {
        Term::Str(s.into())
    }

    /// Convenience constructor for an integer term.
    pub fn int(i: i64) -> Term {
        Term::Int(i)
    }

    /// Convenience constructor for a compound term.
    pub fn compound(functor: impl Into<Sym>, args: Vec<Term>) -> Term {
        Term::Compound(functor.into(), args.into())
    }

    /// A string term holding a peer's distinguished name.
    pub fn peer(p: PeerId) -> Term {
        Term::Str(p.0)
    }

    /// The `Requester` pseudo-variable.
    pub fn requester() -> Term {
        Term::Var(Var::new(well_known::requester()))
    }

    /// The `Self` pseudo-variable.
    pub fn self_() -> Term {
        Term::Var(Var::new(well_known::self_()))
    }

    /// Is this term free of variables?
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Var(_) => false,
            Term::Atom(_) | Term::Str(_) | Term::Int(_) => true,
            Term::Compound(_, args) => args.iter().all(Term::is_ground),
        }
    }

    /// If this term is a ground peer name (string or atom), its `PeerId`.
    pub fn as_peer(&self) -> Option<PeerId> {
        match self {
            Term::Str(s) | Term::Atom(s) => Some(PeerId(*s)),
            _ => None,
        }
    }

    /// Collect every variable occurring in the term into `out`
    /// (with duplicates; callers dedup if needed).
    pub fn collect_vars(&self, out: &mut Vec<Var>) {
        match self {
            Term::Var(v) => out.push(*v),
            Term::Atom(_) | Term::Str(_) | Term::Int(_) => {}
            Term::Compound(_, args) => {
                for a in args.iter() {
                    a.collect_vars(out);
                }
            }
        }
    }

    /// Does variable `v` occur anywhere in this term?
    pub fn occurs(&self, v: &Var) -> bool {
        match self {
            Term::Var(w) => w == v,
            Term::Atom(_) | Term::Str(_) | Term::Int(_) => false,
            Term::Compound(_, args) => args.iter().any(|a| a.occurs(v)),
        }
    }

    /// Number of symbols in the term (for depth/size budgets).
    pub fn size(&self) -> usize {
        match self {
            Term::Var(_) | Term::Atom(_) | Term::Str(_) | Term::Int(_) => 1,
            Term::Compound(_, args) => 1 + args.iter().map(Term::size).sum::<usize>(),
        }
    }

    /// The key this term files under in the KB's first-argument clause
    /// index, or `None` for a variable.
    pub fn index_key(&self) -> Option<IndexKey> {
        match self {
            Term::Atom(s) => Some(IndexKey::Atom(*s)),
            Term::Str(s) => Some(IndexKey::Str(*s)),
            Term::Int(i) => Some(IndexKey::Int(*i)),
            Term::Compound(f, _) => Some(IndexKey::Functor(*f)),
            Term::Var(_) => None,
        }
    }

    /// Rewrite every variable with `f`. Used for standardize-apart renaming.
    pub fn map_vars(&self, f: &mut impl FnMut(Var) -> Term) -> Term {
        match self {
            Term::Var(v) => f(*v),
            Term::Atom(_) | Term::Str(_) | Term::Int(_) => self.clone(),
            Term::Compound(functor, args) => {
                Term::Compound(*functor, args.iter().map(|a| a.map_vars(f)).collect())
            }
        }
    }

    /// Structural pre-filter for unification: `false` only when the two
    /// terms disagree on a constant or a functor at a position where
    /// neither side holds a variable — a clash no substitution can
    /// repair, whatever the variables are bound to. Variables match
    /// anything; repeated variables are left to unification.
    pub(crate) fn may_unify(&self, other: &Term) -> bool {
        match (self, other) {
            (Term::Var(_), _) | (_, Term::Var(_)) => true,
            (Term::Atom(a), Term::Atom(b)) | (Term::Str(a), Term::Str(b)) => a == b,
            (Term::Int(a), Term::Int(b)) => a == b,
            (Term::Compound(f, xs), Term::Compound(g, ys)) => {
                f == g
                    && xs.len() == ys.len()
                    && xs.iter().zip(ys.iter()).all(|(x, y)| x.may_unify(y))
            }
            _ => false,
        }
    }
}

/// Copy-on-write map over a term list: `None` when `f` changed no term
/// (the caller keeps the original list), otherwise the rebuilt list with
/// every unchanged term shared.
pub(crate) fn map_terms_cow(
    ts: &[Term],
    mut f: impl FnMut(&Term) -> Option<Term>,
) -> Option<Vec<Term>> {
    let mut rebuilt: Option<Vec<Term>> = None;
    for (i, t) in ts.iter().enumerate() {
        match f(t) {
            Some(changed) => rebuilt
                .get_or_insert_with(|| ts[..i].to_vec())
                .push(changed),
            None => {
                if let Some(v) = rebuilt.as_mut() {
                    v.push(t.clone());
                }
            }
        }
    }
    rebuilt
}

impl From<PeerId> for Term {
    fn from(p: PeerId) -> Term {
        Term::peer(p)
    }
}

impl From<i64> for Term {
    fn from(i: i64) -> Term {
        Term::Int(i)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Atom(s) => write!(f, "{s}"),
            Term::Str(s) => write!(f, "\"{s}\""),
            Term::Int(i) => write!(f, "{i}"),
            Term::Compound(functor, args) => {
                write!(f, "{functor}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_syntax() {
        assert_eq!(Term::var("Course").to_string(), "Course");
        assert_eq!(Term::atom("cs101").to_string(), "cs101");
        assert_eq!(Term::str("UIUC").to_string(), "\"UIUC\"");
        assert_eq!(Term::int(2000).to_string(), "2000");
        assert_eq!(
            Term::compound("pair", vec![Term::int(1), Term::var("X")]).to_string(),
            "pair(1, X)"
        );
    }

    #[test]
    fn renamed_variable_display() {
        let v = Var::versioned("X", 3);
        assert_eq!(v.to_string(), "X_3");
    }

    #[test]
    fn atom_and_string_are_distinct() {
        assert_ne!(Term::atom("cs101"), Term::str("cs101"));
    }

    #[test]
    fn groundness() {
        assert!(Term::atom("a").is_ground());
        assert!(Term::int(1).is_ground());
        assert!(!Term::var("X").is_ground());
        assert!(Term::compound("f", vec![Term::int(1)]).is_ground());
        assert!(!Term::compound("f", vec![Term::var("X")]).is_ground());
    }

    #[test]
    fn occurs_check_finds_nested_vars() {
        let x = Var::new("X");
        let t = Term::compound("f", vec![Term::compound("g", vec![Term::Var(x)])]);
        assert!(t.occurs(&x));
        assert!(!t.occurs(&Var::new("Y")));
    }

    #[test]
    fn collect_vars_reports_duplicates_in_order() {
        let t = Term::compound("f", vec![Term::var("X"), Term::var("Y"), Term::var("X")]);
        let mut vars = Vec::new();
        t.collect_vars(&mut vars);
        let names: Vec<_> = vars.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, ["X", "Y", "X"]);
    }

    #[test]
    fn size_counts_symbols() {
        assert_eq!(Term::int(7).size(), 1);
        let t = Term::compound(
            "f",
            vec![Term::int(1), Term::compound("g", vec![Term::var("X")])],
        );
        assert_eq!(t.size(), 4);
    }

    #[test]
    fn pseudo_variable_predicates() {
        assert!(Var::new("Requester").is_requester());
        assert!(Var::new("Self").is_self());
        assert!(!Var::new("X").is_requester());
        // Renamed pseudo-variables still count.
        assert!(Var::versioned("Requester", 5).is_requester());
    }

    #[test]
    fn map_vars_renames() {
        let t = Term::compound("f", vec![Term::var("X"), Term::atom("a")]);
        let renamed = t.map_vars(&mut |v| Term::Var(Var::versioned(v.name, v.version + 1)));
        assert_eq!(
            renamed,
            Term::compound(
                "f",
                vec![Term::Var(Var::versioned("X", 1)), Term::atom("a")]
            )
        );
    }

    #[test]
    fn as_peer_on_names() {
        assert_eq!(Term::str("UIUC").as_peer(), Some(PeerId::new("UIUC")));
        assert_eq!(Term::atom("uiuc").as_peer(), Some(PeerId::new("uiuc")));
        assert_eq!(Term::int(1).as_peer(), None);
        assert_eq!(Term::var("X").as_peer(), None);
    }
}
