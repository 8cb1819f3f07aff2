//! Rules (definite Horn clauses with PeerTrust extensions).
//!
//! The general shape (paper §3.1) is:
//!
//! ```text
//! head [@ auth...] [$ head_ctx] <-[_rule_ctx] body1, ..., bodyn [signedBy [I1, ...]].
//! ```
//!
//! * `head_ctx` (written `$ ctx` after the head) is the release policy for
//!   the *derived literal*: who may the head be disclosed to.
//! * `rule_ctx` (the subscript on the arrow) is the release policy for the
//!   *rule itself*: who may see this rule's definition. UniPro policy
//!   protection is built from this.
//! * `signed_by` lists the issuers whose signatures the rule carries;
//!   a signed bodyless rule is a *credential* (e.g. Alice's student ID),
//!   a signed rule with a body is a *delegation* (e.g. UIUC delegating
//!   student certification to its registrar).
//!
//! Facts are rules with an empty body.

use crate::context::Context;
use crate::literal::Literal;
use crate::symbol::{PeerId, Sym};
use crate::term::{map_terms_cow, Term, Var};
use std::fmt;

/// Identifies a rule within one peer's knowledge base.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RuleId(pub u32);

/// A PeerTrust rule.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Rule {
    /// Head literal (may carry an authority chain, e.g. the delegation
    /// `student(X) @ "UIUC" <- signedBy ["UIUC"] student(X) @ "UIUC Registrar"`).
    pub head: Literal,
    /// Release policy for the derived head literal (`$ ctx`). `None` means
    /// the paper's default applies (private: `Requester = Self`).
    pub head_context: Option<Context>,
    /// Release policy for the rule itself (`<-_ctx`). `None` means default
    /// private.
    pub rule_context: Option<Context>,
    /// Body literals (empty for facts).
    pub body: Vec<Literal>,
    /// Issuers whose signatures this rule carries, e.g. `["UIUC"]`.
    /// Empty for ordinary local rules.
    pub signed_by: Vec<Sym>,
}

impl Rule {
    /// A fact (bodyless rule) with default contexts.
    pub fn fact(head: Literal) -> Rule {
        Rule {
            head,
            head_context: None,
            rule_context: None,
            body: Vec::new(),
            signed_by: Vec::new(),
        }
    }

    /// A rule `head <- body` with default contexts.
    pub fn horn(head: Literal, body: Vec<Literal>) -> Rule {
        Rule {
            head,
            head_context: None,
            rule_context: None,
            body,
            signed_by: Vec::new(),
        }
    }

    /// Set the head release policy (`$ ctx`), builder style.
    pub fn with_head_context(mut self, ctx: Context) -> Rule {
        self.head_context = Some(ctx);
        self
    }

    /// Set the rule release policy (`<-_ctx`), builder style.
    pub fn with_rule_context(mut self, ctx: Context) -> Rule {
        self.rule_context = Some(ctx);
        self
    }

    /// Mark the rule as signed by `issuer`, builder style.
    pub fn signed_by(mut self, issuer: impl Into<Sym>) -> Rule {
        self.signed_by.push(issuer.into());
        self
    }

    /// Is this a fact (empty body)?
    pub fn is_fact(&self) -> bool {
        self.body.is_empty()
    }

    /// Does the rule carry at least one signature (i.e. is it a credential
    /// or signed delegation)?
    pub fn is_signed(&self) -> bool {
        !self.signed_by.is_empty()
    }

    /// A signed bodyless rule whose head is ground is a *credential* in the
    /// paper's sense (e.g. `student("Alice") @ "UIUC" signedBy ["UIUC"]`).
    pub fn is_credential(&self) -> bool {
        self.is_signed() && self.is_fact() && self.head.is_ground()
    }

    /// The effective release policy for the head literal: the explicit
    /// `$` context or the paper's private default.
    pub fn effective_head_context(&self) -> Context {
        self.head_context.clone().unwrap_or_default()
    }

    /// The effective release policy for the rule itself.
    pub fn effective_rule_context(&self) -> Context {
        self.rule_context.clone().unwrap_or_default()
    }

    /// All distinct variables in the rule, first-occurrence order
    /// (head, then contexts, then body).
    pub fn vars(&self) -> Vec<Var> {
        let mut vars = Vec::new();
        self.head.collect_vars(&mut vars);
        if let Some(c) = &self.head_context {
            c.collect_vars(&mut vars);
        }
        if let Some(c) = &self.rule_context {
            c.collect_vars(&mut vars);
        }
        for b in &self.body {
            b.collect_vars(&mut vars);
        }
        // Keep first occurrences, in place.
        let mut kept = 0;
        for i in 0..vars.len() {
            let v = vars[i];
            if !vars[..kept].contains(&v) {
                vars[kept] = v;
                kept += 1;
            }
        }
        vars.truncate(kept);
        vars
    }

    /// Produce a copy with every variable renamed to the given fresh
    /// version — "standardize apart". The engine allocates `version` from a
    /// monotone counter so rule instances in one derivation never collide.
    pub fn rename_apart(&self, version: u32) -> Rule {
        let mut rename = |v: Var| Term::Var(Var::versioned(v.name, version));
        Rule {
            head: self.head.map_vars(&mut rename),
            head_context: self.head_context.as_ref().map(|c| c.map_vars(&mut rename)),
            rule_context: self.rule_context.as_ref().map(|c| c.map_vars(&mut rename)),
            body: self.body.iter().map(|b| b.map_vars(&mut rename)).collect(),
            signed_by: self.signed_by.clone(),
        }
    }

    /// Standardize apart with *per-variable* fresh versions: every
    /// distinct variable in the rule gets its own version drawn from
    /// `next_version` (pre-incremented, so the first variable receives
    /// `next_version + 1`).
    ///
    /// Unlike [`Rule::rename_apart`], which stamps one shared version on
    /// every variable, this gives each variable a globally unique `u32`
    /// — exactly what the trail-based binding store needs to address
    /// variables as dense slot indices (`version - base - 1`) instead of
    /// hashing them. Display names are preserved, so the
    /// `Requester`/`Self` pseudo-variable checks still work on renamed
    /// instances.
    pub fn rename_apart_indexed(&self, next_version: &mut u32) -> Rule {
        // Rules have a handful of variables; a linear assoc list beats a
        // hash map at this size and allocates once.
        let mut assigned: Vec<(Var, u32)> = Vec::new();
        let mut rename = |v: Var| {
            let version = match assigned.iter().find(|(w, _)| *w == v) {
                Some((_, ver)) => *ver,
                None => {
                    *next_version += 1;
                    assigned.push((v, *next_version));
                    *next_version
                }
            };
            Term::Var(Var::versioned(v.name, version))
        };
        Rule {
            head: self.head.map_vars(&mut rename),
            head_context: self.head_context.as_ref().map(|c| c.map_vars(&mut rename)),
            rule_context: self.rule_context.as_ref().map(|c| c.map_vars(&mut rename)),
            body: self.body.iter().map(|b| b.map_vars(&mut rename)).collect(),
            signed_by: self.signed_by.clone(),
        }
    }

    /// Does the rule carry a head or rule context — anything
    /// [`Rule::strip_contexts`] would remove?
    pub fn has_contexts(&self) -> bool {
        self.head_context.is_some() || self.rule_context.is_some()
    }

    /// Strip contexts, as done when a rule is sent to another peer
    /// (paper §3.1: "we will strip the contexts from literals and rules when
    /// they are sent to another peer").
    pub fn strip_contexts(&self) -> Rule {
        Rule {
            head: self.head.clone(),
            head_context: None,
            rule_context: None,
            body: self.body.clone(),
            signed_by: self.signed_by.clone(),
        }
    }

    /// The issuers as peer ids.
    pub fn issuers(&self) -> Vec<PeerId> {
        self.signed_by.iter().map(|s| PeerId(*s)).collect()
    }
}

/// A rule standardized apart without being copied: the lazy form of
/// [`Rule::rename_apart_indexed`]. `vars` are the rule's distinct
/// variables in [`Rule::vars`] order — the order `rename_apart_indexed`
/// meets them — and `vars[i]` reads as version `offset + 1 + i`, exactly
/// the version that method gives it when called with the counter at
/// `offset`. The caller advances its counter by `vars.len()`.
#[derive(Clone, Copy, Debug)]
pub struct Renaming<'a> {
    vars: &'a [Var],
    offset: u32,
}

impl<'a> Renaming<'a> {
    pub fn new(vars: &'a [Var], offset: u32) -> Renaming<'a> {
        Renaming { vars, offset }
    }

    /// The renamed form of rule variable `v`.
    pub fn var(&self, v: Var) -> Var {
        let i = self
            .vars
            .iter()
            .position(|w| *w == v)
            .expect("variable of the renamed rule");
        Var::versioned(v.name, self.offset + 1 + i as u32)
    }

    /// `t` renamed; ground subterms are shared, not rebuilt.
    pub fn term(&self, t: &Term) -> Term {
        self.term_cow(t).unwrap_or_else(|| t.clone())
    }

    fn term_cow(&self, t: &Term) -> Option<Term> {
        match t {
            Term::Var(v) => Some(Term::Var(self.var(*v))),
            Term::Atom(_) | Term::Str(_) | Term::Int(_) => None,
            Term::Compound(f, args) => {
                map_terms_cow(args, |a| self.term_cow(a)).map(|v| Term::Compound(*f, v.into()))
            }
        }
    }

    /// `l` renamed.
    pub fn literal(&self, l: &Literal) -> Literal {
        Literal {
            pred: l.pred,
            args: l.args.iter().map(|t| self.term(t)).collect(),
            authority: l.authority.iter().map(|t| self.term(t)).collect(),
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.head)?;
        if let Some(c) = &self.head_context {
            write!(f, " $ {c}")?;
        }
        if self.body.is_empty() && self.rule_context.is_none() && self.signed_by.is_empty() {
            return write!(f, ".");
        }
        if !self.body.is_empty() || self.rule_context.is_some() {
            write!(f, " <-")?;
            if let Some(c) = &self.rule_context {
                write!(f, "_({c})")?;
            }
            for (i, b) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, " {b}")?;
            }
        }
        if !self.signed_by.is_empty() {
            write!(f, " signedBy [")?;
            for (i, s) in self.signed_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "\"{s}\"")?;
            }
            write!(f, "]")?;
        }
        write!(f, ".")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn student_alice() -> Literal {
        Literal::new("student", vec![Term::str("Alice")]).at(Term::str("UIUC"))
    }

    #[test]
    fn fact_display() {
        let r = Rule::fact(student_alice());
        assert_eq!(r.to_string(), "student(\"Alice\") @ \"UIUC\".");
        assert!(r.is_fact());
        assert!(!r.is_signed());
    }

    #[test]
    fn credential_display_and_predicates() {
        let r = Rule::fact(student_alice()).signed_by("UIUC");
        assert_eq!(
            r.to_string(),
            "student(\"Alice\") @ \"UIUC\" signedBy [\"UIUC\"]."
        );
        assert!(r.is_credential());
        assert_eq!(r.issuers(), vec![PeerId::new("UIUC")]);
    }

    #[test]
    fn nonground_signed_fact_is_not_credential() {
        let r = Rule::fact(Literal::new("student", vec![Term::var("X")])).signed_by("UIUC");
        assert!(!r.is_credential());
    }

    #[test]
    fn horn_rule_display() {
        let r = Rule::horn(
            Literal::new("preferred", vec![Term::var("X")]),
            vec![Literal::new("student", vec![Term::var("X")]).at(Term::str("UIUC"))],
        );
        assert_eq!(r.to_string(), "preferred(X) <- student(X) @ \"UIUC\".");
    }

    #[test]
    fn full_rule_display_with_contexts_and_signature() {
        // E-Learn's free-enrollment policy from §3.1.
        let r = Rule::horn(
            Literal::new("freeEnroll", vec![Term::var("Course"), Term::requester()]),
            vec![
                Literal::new("policeOfficer", vec![Term::requester()])
                    .at(Term::str("CSP"))
                    .at(Term::requester()),
                Literal::new("spanishCourse", vec![Term::var("Course")]),
            ],
        )
        .with_head_context(Context::public());
        assert_eq!(
            r.to_string(),
            "freeEnroll(Course, Requester) $ true <- policeOfficer(Requester) @ \"CSP\" @ Requester, spanishCourse(Course)."
        );

        let d = Rule::horn(
            Literal::new("student", vec![Term::var("X")]).at(Term::str("UIUC")),
            vec![Literal::new("student", vec![Term::var("X")]).at(Term::str("UIUC Registrar"))],
        )
        .signed_by("UIUC");
        assert_eq!(
            d.to_string(),
            "student(X) @ \"UIUC\" <- student(X) @ \"UIUC Registrar\" signedBy [\"UIUC\"]."
        );
    }

    #[test]
    fn default_contexts_are_private() {
        let r = Rule::fact(student_alice());
        assert!(r.effective_head_context().is_default_private());
        assert!(r.effective_rule_context().is_default_private());
        let pub_r = r.with_head_context(Context::public());
        assert!(pub_r.effective_head_context().is_public());
    }

    #[test]
    fn rename_apart_keeps_rule_shape_and_changes_vars() {
        let r = Rule::horn(
            Literal::new("p", vec![Term::var("X")]),
            vec![Literal::new("q", vec![Term::var("X"), Term::var("Y")])],
        );
        let r2 = r.rename_apart(7);
        assert_eq!(r2.head.to_string(), "p(X_7)");
        assert_eq!(r2.body[0].to_string(), "q(X_7, Y_7)");
        // Original untouched.
        assert_eq!(r.head.to_string(), "p(X)");
    }

    #[test]
    fn rename_apart_covers_contexts() {
        let r = Rule::fact(Literal::new("p", vec![Term::var("X")])).with_head_context(
            Context::goals(vec![Literal::new("member", vec![Term::var("X")])]),
        );
        let r2 = r.rename_apart(3);
        assert_eq!(r2.head_context.unwrap().goals[0].to_string(), "member(X_3)");
    }

    #[test]
    fn vars_deduplicated_across_sections() {
        let r = Rule::horn(
            Literal::new("p", vec![Term::var("X")]),
            vec![Literal::new("q", vec![Term::var("X"), Term::var("Y")])],
        );
        let names: Vec<_> = r.vars().iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, ["X", "Y"]);
    }

    #[test]
    fn strip_contexts_removes_both() {
        let r = Rule::fact(student_alice())
            .with_head_context(Context::public())
            .with_rule_context(Context::public());
        let s = r.strip_contexts();
        assert!(s.head_context.is_none());
        assert!(s.rule_context.is_none());
        assert_eq!(s.head, r.head);
    }
}
