//! Scenario 1: Alice & E-Learn (paper §4.1).
//!
//! E-Learn Associates sells learning resources; clients get a discount if
//! they are preferred customers at the ELENA consortium. ELENA has given
//! E-Learn a signed rule deriving "preferred" status from UIUC studentship;
//! UIUC delegates student certification to its registrar; Alice holds her
//! registrar-issued student ID plus a copy of the delegation rule, and
//! releases student credentials only to Better Business Bureau members who
//! prove membership themselves; E-Learn holds a BBB membership credential.
//!
//! The policies below are the paper's, verbatim where runnable. Two
//! adaptations, both documented in DESIGN.md: (1) credentials are written
//! in the `lit @ issuer` normal form its §3.2 axioms make equivalent to
//! `lit signedBy [issuer]`; (2) release policies the paper says exist but
//! does not show (e.g. for E-Learn's BBB membership) are made explicit
//! with `$ true`.
//!
//! [`Scenario1::run`] negotiates Alice's access to the discounted
//! enrollment; [`Ablation1`] removes one ingredient at a time, and the
//! negotiation must then fail — the paper's claim is *iff*.

use peertrust_core::{Literal, PeerId, Term};
use peertrust_crypto::KeyRegistry;
use peertrust_negotiation::{NegotiationOutcome, NegotiationPeer, PeerMap, Strategy};
use peertrust_net::{NegotiationId, SimNetwork};

/// Which ingredient to remove (for the E1 ablation study).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Ablation1 {
    /// Everything in place: negotiation must succeed.
    None,
    /// Alice has no registrar-issued student ID.
    NoStudentId,
    /// Alice lacks the cached UIUC -> Registrar delegation rule.
    NoDelegationRule,
    /// Alice has no release policy for student credentials (default
    /// private applies).
    NoReleasePolicy,
    /// E-Learn cannot prove BBB membership.
    NoBbbCredential,
    /// E-Learn never cached ELENA's signed "preferred" rule.
    NoElenaRule,
}

impl Ablation1 {
    pub const ALL: [Ablation1; 6] = [
        Ablation1::None,
        Ablation1::NoStudentId,
        Ablation1::NoDelegationRule,
        Ablation1::NoReleasePolicy,
        Ablation1::NoBbbCredential,
        Ablation1::NoElenaRule,
    ];
}

/// The built scenario: peers, shared registry, and the standard goal.
pub struct Scenario1 {
    pub peers: PeerMap,
    pub registry: KeyRegistry,
}

pub const ALICE: &str = "Alice";
pub const ELEARN: &str = "E-Learn";
pub const COURSE: &str = "spanish101";

impl Scenario1 {
    /// Build the full scenario.
    pub fn build() -> Scenario1 {
        Scenario1::build_ablated(Ablation1::None)
    }

    /// Build with one ingredient removed.
    pub fn build_ablated(ablation: Ablation1) -> Scenario1 {
        let registry = KeyRegistry::new();
        for (i, issuer) in ["UIUC", "UIUC Registrar", "ELENA", "BBB"]
            .iter()
            .enumerate()
        {
            registry.register_derived(PeerId::new(issuer), 100 + i as u64);
        }
        let mut peers = PeerMap::new();

        // ---------------- E-Learn ----------------
        let mut elearn = NegotiationPeer::new(ELEARN, registry.clone());
        // Release pattern + derivation rules for the discount service
        // (§4.1, verbatim).
        elearn
            .load_program(
                r#"
                discountEnroll(Course, Party) $ Requester = Party <-
                    discountEnroll(Course, Party).
                discountEnroll(Course, Party) <-
                    eligibleForDiscount(Party, Course).
                eligibleForDiscount(X, Course) <-
                    preferred(X) @ "ELENA", offersCourse(Course).
                % Hint rule: ask students to prove their own status (§4.1).
                student(X) @ University <- student(X) @ University @ X.
                offersCourse(spanish101).
                offersCourse(french201).
                "#,
            )
            .expect("E-Learn program parses");
        if ablation != Ablation1::NoElenaRule {
            // ELENA's signed rule, cached by E-Learn (§4.1).
            elearn
                .load_program(
                    r#"preferred(X) @ "ELENA" <- signedBy ["ELENA"] student(X) @ "UIUC"."#,
                )
                .expect("ELENA rule parses");
        }
        if ablation != Ablation1::NoBbbCredential {
            // BBB membership, with the "appropriate release policy (not
            // shown)" made explicit as public.
            elearn
                .load_program(r#"member("E-Learn") @ "BBB" $ true signedBy ["BBB"]."#)
                .expect("BBB credential parses");
        }
        peers.insert(elearn);

        // ---------------- Alice ----------------
        let mut alice = NegotiationPeer::new(ALICE, registry.clone());
        if ablation != Ablation1::NoStudentId {
            alice
                .load_program(r#"student("Alice") @ "UIUC Registrar" signedBy ["UIUC Registrar"]."#)
                .expect("student ID parses");
        }
        if ablation != Ablation1::NoDelegationRule {
            // Copy of UIUC's delegation to the registrar (§3.1).
            alice
                .load_program(
                    r#"student(X) @ "UIUC" <- signedBy ["UIUC"] student(X) @ "UIUC Registrar"."#,
                )
                .expect("delegation rule parses");
        }
        if ablation != Ablation1::NoReleasePolicy {
            // Alice's publicly releasable release policy (§4.1, verbatim).
            alice
                .load_program(
                    r#"student(X) @ Y $ member(Requester) @ "BBB" @ Requester <-_true
                           student(X) @ Y."#,
                )
                .expect("release policy parses");
        }
        peers.insert(alice);

        // ---------------- UIUC & Registrar (present but, per §4.1, never
        // contacted at run time: "UIUC does not directly respond to queries
        // about student status"). ----------------
        let mut uiuc = NegotiationPeer::new("UIUC", registry.clone());
        uiuc.load_program(
            r#"student(X) $ Requester = "UIUC Registrar" <- student(X) @ "UIUC Registrar"."#,
        )
        .expect("UIUC program parses");
        uiuc.config.answerable = Some(std::collections::HashSet::new()); // answers nobody
        peers.insert(uiuc);
        peers.insert(NegotiationPeer::new("UIUC Registrar", registry.clone()));

        Scenario1 { peers, registry }
    }

    /// The standard resource request: Alice asks for discounted enrollment
    /// in the Spanish course.
    pub fn goal() -> Literal {
        Literal::new("discountEnroll", vec![Term::atom(COURSE), Term::str(ALICE)])
    }

    /// Run the negotiation under `strategy` with a fresh seeded network.
    pub fn run(&mut self, strategy: Strategy) -> NegotiationOutcome {
        self.run_traced(strategy, &peertrust_telemetry::Telemetry::disabled())
    }

    /// [`Scenario1::run`] with a telemetry pipeline attached to both the
    /// network and the negotiation driver.
    pub fn run_traced(
        &mut self,
        strategy: Strategy,
        telemetry: &peertrust_telemetry::Telemetry,
    ) -> NegotiationOutcome {
        let mut net = SimNetwork::new(0xE1).with_telemetry(telemetry.clone());
        strategy.run_traced(
            &mut self.peers,
            &mut net,
            NegotiationId(1),
            PeerId::new(ALICE),
            PeerId::new(ELEARN),
            Scenario1::goal(),
            telemetry,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peertrust_negotiation::verify_safe_sequence;

    #[test]
    fn full_scenario_succeeds_parsimonious() {
        let mut s = Scenario1::build();
        let out = s.run(Strategy::Parsimonious);
        assert!(out.success, "refusals: {:#?}", out.refusals);
        assert_eq!(
            out.granted[0].to_string(),
            r#"discountEnroll(spanish101, "Alice")"#
        );
        verify_safe_sequence(&out).unwrap();
        // Alice disclosed her chain (ID + delegation rule); E-Learn its BBB
        // membership.
        assert!(out.credential_count() >= 3, "{:#?}", out.disclosures);
    }

    #[test]
    fn full_scenario_succeeds_eager() {
        let mut s = Scenario1::build();
        let out = s.run(Strategy::Eager);
        assert!(out.success);
        verify_safe_sequence(&out).unwrap();
    }

    #[test]
    fn every_ablation_fails_under_both_strategies() {
        for ablation in Ablation1::ALL {
            if ablation == Ablation1::None {
                continue;
            }
            for strategy in Strategy::ALL {
                let mut s = Scenario1::build_ablated(ablation);
                let out = s.run(strategy);
                assert!(!out.success, "{ablation:?} under {strategy} should fail");
            }
        }
    }

    #[test]
    fn uiuc_is_never_contacted() {
        // §4.1: UIUC's release policies keep it out of the negotiation.
        let mut s = Scenario1::build();
        let out = s.run(Strategy::Parsimonious);
        assert!(out.success);
        assert!(out
            .disclosures
            .iter()
            .all(|d| d.from != PeerId::new("UIUC") && d.to != PeerId::new("UIUC")));
    }

    /// The eager outcome, serialized. Each peer pushes its disclosable
    /// credentials in rule-id order, so every process produces these
    /// bytes; in hash-map order they varied from one process to the next.
    const EAGER_OUTCOME: &str = r#"{"success":true,"requester":"Alice","responder":"E-Learn","goal":{"pred":"discountEnroll","args":[{"Atom":"spanish101"},{"Str":"Alice"}],"authority":[]},"granted":[{"pred":"discountEnroll","args":[{"Atom":"spanish101"},{"Str":"Alice"}],"authority":[]}],"disclosures":[{"seq":0,"from":"E-Learn","to":"Alice","item":{"SignedRule":{"rule":{"head":{"pred":"member","args":[{"Str":"E-Learn"}],"authority":[{"Str":"BBB"}]},"head_context":null,"rule_context":null,"body":[],"signed_by":["BBB"]},"signatures":[[88,43,148,197,192,171,115,79,197,136,213,182,211,125,136,25,221,76,240,255,17,55,124,13,89,72,78,170,84,50,122,29]]}},"context":[],"evidence":[]},{"seq":1,"from":"Alice","to":"E-Learn","item":{"SignedRule":{"rule":{"head":{"pred":"student","args":[{"Str":"Alice"}],"authority":[{"Str":"UIUC Registrar"}]},"head_context":null,"rule_context":null,"body":[],"signed_by":["UIUC Registrar"]},"signatures":[[163,70,30,227,116,221,56,163,5,224,254,39,50,229,255,173,29,173,29,64,211,118,198,224,104,125,89,168,253,236,199,48]]}},"context":[{"pred":"member","args":[{"Str":"E-Learn"}],"authority":[{"Str":"BBB"},{"Str":"E-Learn"}]}],"evidence":[{"ReceivedRule":{"from":"E-Learn","rule":{"head":{"pred":"member","args":[{"Str":"E-Learn"}],"authority":[{"Str":"BBB"},{"Str":"E-Learn"}]},"head_context":null,"rule_context":null,"body":[],"signed_by":[]}}}]},{"seq":2,"from":"Alice","to":"E-Learn","item":{"SignedRule":{"rule":{"head":{"pred":"student","args":[{"Var":{"name":"X","version":0}}],"authority":[{"Str":"UIUC"}]},"head_context":null,"rule_context":null,"body":[{"pred":"student","args":[{"Var":{"name":"X","version":0}}],"authority":[{"Str":"UIUC Registrar"}]}],"signed_by":["UIUC"]},"signatures":[[225,124,141,159,219,76,206,17,169,178,174,16,184,208,165,150,94,174,251,98,151,84,174,18,198,121,145,180,25,180,230,179]]}},"context":[{"pred":"member","args":[{"Str":"E-Learn"}],"authority":[{"Str":"BBB"},{"Str":"E-Learn"}]}],"evidence":[{"ReceivedRule":{"from":"E-Learn","rule":{"head":{"pred":"member","args":[{"Str":"E-Learn"}],"authority":[{"Str":"BBB"},{"Str":"E-Learn"}]},"head_context":null,"rule_context":null,"body":[],"signed_by":[]}}}]},{"seq":3,"from":"E-Learn","to":"Alice","item":{"Resource":{"pred":"discountEnroll","args":[{"Atom":"spanish101"},{"Str":"Alice"}],"authority":[]}},"context":[],"evidence":[]}],"refusals":[],"messages":2,"bytes":306,"queries":0,"rounds":2,"elapsed_ticks":2}"#;

    #[test]
    fn eager_outcome_bytes_are_pinned() {
        let out = Scenario1::build().run(Strategy::Eager);
        assert_eq!(serde_json::to_string(&out).unwrap(), EAGER_OUTCOME);
    }

    #[test]
    fn parsimonious_discloses_no_more_than_eager() {
        let mut p = Scenario1::build();
        let pars = p.run(Strategy::Parsimonious);
        let mut e = Scenario1::build();
        let eag = e.run(Strategy::Eager);
        assert!(pars.credential_count() <= eag.credential_count() + 1);
    }
}
