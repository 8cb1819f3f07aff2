//! Release-policy contexts.
//!
//! A *context* (paper §3.1) guards the disclosure of a literal or rule:
//! `lit @ Authority $ ctx` may only be sent to a peer `P` if `ctx` is
//! derivable with the pseudo-variable `Requester` bound to `P` and `Self`
//! bound to the local peer. Rules carry contexts as `head <-_ctx body`.
//!
//! The default context, when none is written, is `Requester = Self`: the
//! item can never be sent to another peer. The context `true` makes an item
//! publicly releasable. General contexts are conjunctions of literals, which
//! may themselves carry authority chains — e.g. Alice's release policy for
//! her student credential:
//!
//! ```text
//! student(X) @ Y $ member(Requester) @ "BBB" @ Requester <-_true student(X) @ Y
//! ```
//!
//! requires the requester to prove BBB membership itself.

use crate::literal::Literal;
use crate::subst::Subst;
use crate::symbol::{well_known, PeerId, Sym};
use crate::term::{Term, Var};
use std::fmt;

/// A conjunction of context literals guarding disclosure.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Context {
    /// The conjunction; empty means `true` (publicly releasable).
    pub goals: Vec<Literal>,
}

impl Context {
    /// The trivially satisfied context `true`: releasable to anyone.
    pub fn public() -> Context {
        Context { goals: Vec::new() }
    }

    /// The default context `Requester = Self`: never released to another
    /// peer (paper §3.1 — "If no context is specified ... the default
    /// context 'Requester = Self' applies").
    pub fn default_private() -> Context {
        Context {
            goals: vec![Literal::eq(Term::requester(), Term::self_())],
        }
    }

    /// A context requiring `Requester` to equal the given peer — the form
    /// used by UIUC's delegation rule
    /// (`student(X) $ Requester = "UIUC Registrar" <- ...`).
    pub fn requester_is(peer: PeerId) -> Context {
        Context {
            goals: vec![Literal::eq(Term::requester(), Term::peer(peer))],
        }
    }

    /// A context that is the conjunction of the given literals.
    pub fn goals(goals: Vec<Literal>) -> Context {
        // Normalize: a sole `true` literal is the public context.
        let goals = goals
            .into_iter()
            .filter(|g| g.pred != well_known::true_())
            .collect();
        Context { goals }
    }

    /// Is this the public (`true`) context?
    pub fn is_public(&self) -> bool {
        self.goals.is_empty()
    }

    /// Syntactically, is this exactly the default `Requester = Self` guard
    /// (`== Context::default_private()`, variable versions included)?
    pub fn is_default_private(&self) -> bool {
        let [goal] = self.goals.as_slice() else {
            return false;
        };
        let unversioned = |t: &Term, name: Sym| *t == Term::Var(Var::new(name));
        goal.pred == well_known::eq()
            && goal.authority.is_empty()
            && matches!(goal.args.as_slice(), [r, s]
                if unversioned(r, well_known::requester()) && unversioned(s, well_known::self_()))
    }

    /// Instantiate the pseudo-variables: bind every `Requester` variable to
    /// `requester` and every `Self` variable to `self_peer`, returning the
    /// concrete goals a release-policy check must derive.
    pub fn instantiate(&self, requester: PeerId, self_peer: PeerId) -> Vec<Literal> {
        let mut bind = |v: Var| -> Term {
            if v.is_requester() {
                Term::peer(requester)
            } else if v.is_self() {
                Term::peer(self_peer)
            } else {
                Term::Var(v)
            }
        };
        self.goals.iter().map(|g| g.map_vars(&mut bind)).collect()
    }

    /// Apply a substitution to every goal (used when the guarded rule's
    /// variables were bound during matching).
    pub fn apply(&self, s: &Subst) -> Context {
        Context {
            goals: self.goals.iter().map(|g| s.apply_literal(g)).collect(),
        }
    }

    /// Rewrite every variable with `f` (standardize-apart support).
    pub fn map_vars(&self, f: &mut impl FnMut(Var) -> Term) -> Context {
        Context {
            goals: self.goals.iter().map(|g| g.map_vars(f)).collect(),
        }
    }

    /// Collect variables from all goals.
    pub fn collect_vars(&self, out: &mut Vec<Var>) {
        for g in &self.goals {
            g.collect_vars(out);
        }
    }
}

impl Default for Context {
    /// The *default* default is private, matching the paper's semantics.
    fn default() -> Context {
        Context::default_private()
    }
}

impl fmt::Display for Context {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.goals.is_empty() {
            return f.write_str("true");
        }
        for (i, g) in self.goals.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{g}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_context_displays_true() {
        assert_eq!(Context::public().to_string(), "true");
        assert!(Context::public().is_public());
    }

    #[test]
    fn default_private_is_requester_eq_self() {
        let c = Context::default_private();
        assert_eq!(c.to_string(), "Requester = Self");
        assert!(c.is_default_private());
        assert!(!c.is_public());
    }

    #[test]
    fn is_default_private_is_equality_with_the_default() {
        let versioned = |name: &str| Term::Var(Var::versioned(name, 3));
        let one = |goal: Literal| Context { goals: vec![goal] };
        let cases = [
            Context::default_private(),
            one(Literal::eq(Term::self_(), Term::requester())),
            one(Literal::eq(versioned("Requester"), Term::self_())),
            one(Literal::eq(Term::requester(), versioned("Self"))),
            one(Literal::eq(Term::requester(), Term::self_()).at(Term::str("CA"))),
            one(Literal::cmp("!=", Term::requester(), Term::self_())),
            Context {
                goals: vec![Literal::eq(Term::requester(), Term::self_()); 2],
            },
            Context::public(),
            Context::requester_is(PeerId::new("Alice")),
        ];
        for c in &cases {
            assert_eq!(
                c.is_default_private(),
                *c == Context::default_private(),
                "{c}"
            );
        }
        assert!(cases[0].is_default_private());
    }

    #[test]
    fn goals_normalizes_true_away() {
        let c = Context::goals(vec![Literal::truth()]);
        assert!(c.is_public());
        let c2 = Context::goals(vec![Literal::truth(), Literal::new("p", vec![])]);
        assert_eq!(c2.goals.len(), 1);
    }

    #[test]
    fn instantiate_binds_pseudo_variables() {
        let c = Context::default_private();
        let goals = c.instantiate(PeerId::new("eOrg"), PeerId::new("Alice"));
        assert_eq!(goals.len(), 1);
        assert_eq!(goals[0].to_string(), "\"eOrg\" = \"Alice\"");
    }

    #[test]
    fn instantiate_leaves_other_vars_free() {
        let c = Context::goals(vec![Literal::new(
            "member",
            vec![Term::requester(), Term::var("Org")],
        )]);
        let goals = c.instantiate(PeerId::new("eOrg"), PeerId::new("Alice"));
        assert_eq!(goals[0].to_string(), "member(\"eOrg\", Org)");
    }

    #[test]
    fn instantiate_reaches_authority_chain() {
        // member(Requester) @ "BBB" @ Requester — both occurrences bind.
        let c = Context::goals(vec![Literal::new("member", vec![Term::requester()])
            .at(Term::str("BBB"))
            .at(Term::requester())]);
        let goals = c.instantiate(PeerId::new("E-Learn"), PeerId::new("Alice"));
        assert_eq!(
            goals[0].to_string(),
            "member(\"E-Learn\") @ \"BBB\" @ \"E-Learn\""
        );
    }

    #[test]
    fn requester_is_builds_equality_guard() {
        let c = Context::requester_is(PeerId::new("UIUC Registrar"));
        assert_eq!(c.to_string(), "Requester = \"UIUC Registrar\"");
        let ok = c.instantiate(PeerId::new("UIUC Registrar"), PeerId::new("UIUC"));
        assert_eq!(ok[0].to_string(), "\"UIUC Registrar\" = \"UIUC Registrar\"");
    }

    #[test]
    fn display_conjunction() {
        let c = Context::goals(vec![
            Literal::new("p", vec![Term::requester()]),
            Literal::cmp("<", Term::var("X"), Term::int(5)),
        ]);
        assert_eq!(c.to_string(), "p(Requester), X < 5");
    }
}
