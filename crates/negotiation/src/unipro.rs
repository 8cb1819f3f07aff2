//! UniPro-style policy protection (paper §2, "Sensitive policies").
//!
//! "UniPro gives (opaque) names to policies and allows any named policy P1
//! to have its own policy P2, meaning that the contents of P1 can only be
//! disclosed to parties who have shown that they satisfy P2."
//!
//! In PeerTrust terms: a named policy is a predicate (e.g. `policy49`);
//! its defining rules are protected by their *rule contexts* (`<-_ctx`).
//! A peer may ask another for a policy's definition; the owner discloses
//! the defining rules — contexts stripped, as always on the wire — iff
//! each rule's context is derivable for the requester. Disclosed rules are
//! cached by the requester, which is how "ELENA member companies can
//! disseminate the definition of freebieEligible to their employees"
//! (§4.2) is realized at run time.
//!
//! Graduated disclosure arises naturally: `policy49`'s definition may be
//! guarded by `policy27(Requester)`, whose own definition is guarded by
//! something weaker, and so on — experiment E7 measures the cost of
//! unlocking such chains.

use crate::outcome::{DisclosedItem, Disclosure, Evidence};
use crate::peer::NegotiationPeer;
use crate::session::PeerMap;
use peertrust_core::{Context, Literal, PeerId, Rule, Subst, Sym};
use peertrust_engine::{RemoteFallback, Solver};
use peertrust_net::{NegotiationId, Payload, QueryId, SimNetwork};

/// The result of a policy disclosure request.
#[derive(Clone, Debug)]
pub struct PolicyDisclosureOutcome {
    /// The rules disclosed (contexts stripped). Empty = refused.
    pub rules: Vec<Rule>,
    /// Disclosure records (for sequence auditing).
    pub disclosures: Vec<Disclosure>,
    pub messages: u64,
}

/// `requester` asks `owner` for the definition of named policy `policy`.
///
/// The owner's per-rule check is purely local (like the eager strategy):
/// the rule context must be derivable from what the owner already knows
/// about the requester. Callers that need bilateral unlock first push the
/// relevant credentials (or run a negotiation) and then re-request.
pub fn request_policy(
    peers: &mut PeerMap,
    net: &mut SimNetwork,
    nid: NegotiationId,
    requester: PeerId,
    owner: PeerId,
    policy: Sym,
) -> PolicyDisclosureOutcome {
    let msgs0 = net.stats().messages_sent;
    let mut outcome = PolicyDisclosureOutcome {
        rules: Vec::new(),
        disclosures: Vec::new(),
        messages: 0,
    };
    if !peers.contains(owner) || !peers.contains(requester) {
        return outcome;
    }

    // Ship the request.
    let qid = QueryId(0);
    if net
        .send(
            nid,
            requester,
            owner,
            Payload::PolicyRequest { id: qid, policy },
            0,
        )
        .is_err()
    {
        return outcome;
    }
    net.step();
    let _ = net.poll(owner);

    // Owner-side check.
    let disclosed =
        disclosable_definition(peers.get(owner).expect("owner exists"), requester, policy);

    // Ship the disclosure (possibly empty = refusal).
    let _ = net.send(
        nid,
        owner,
        requester,
        Payload::PolicyDisclosure {
            id: qid,
            rules: disclosed.clone(),
        },
        0,
    );
    net.step();
    let _ = net.poll(requester);

    if !disclosed.is_empty() {
        // Requester caches the definition for later negotiations.
        let requester_peer = peers.get_mut(requester).expect("requester exists");
        for rule in &disclosed {
            requester_peer.kb.add_received_dedup(rule.clone(), owner);
        }
        outcome.disclosures.push(Disclosure {
            seq: 0,
            from: owner,
            to: requester,
            item: DisclosedItem::Policy(disclosed.clone()),
            context: Context::public(),
            evidence: disclosed
                .iter()
                .map(|r| Evidence::Initial(r.clone()))
                .collect(),
        });
    }
    outcome.rules = disclosed;
    outcome.messages = net.stats().messages_sent - msgs0;
    outcome
}

/// The subset of `policy`'s defining rules the owner may show `requester`,
/// contexts stripped. A rule qualifies iff its *rule context* (`<-_ctx`)
/// is non-default and locally derivable with `Requester` bound.
pub fn disclosable_definition(
    owner: &NegotiationPeer,
    requester: PeerId,
    policy: Sym,
) -> Vec<Rule> {
    let mut engine = owner.config.engine;
    engine.remote_fallback = RemoteFallback::Never;

    let mut out = Vec::new();
    for sr in owner.kb.iter() {
        if sr.rule.head.pred != policy {
            continue;
        }
        let ctx = sr.rule.effective_rule_context();
        if requester != owner.id {
            if ctx.is_default_private() {
                continue;
            }
            if !ctx.is_public() {
                let goals = ctx.instantiate(requester, owner.id);
                let mut solver = Solver::new(&owner.kb, owner.id).with_config(engine);
                if !solver.provable(&goals) {
                    continue;
                }
            }
        }
        out.push(sr.rule.strip_contexts());
    }
    out
}

/// Iteratively unlock a chain of protected policies: request `policy`; if
/// its definition mentions further named policies from `owner` (heads of
/// body literals with zero local definition at the requester), request
/// those too, up to `max_rounds`. Returns every definition obtained.
///
/// This is UniPro's graduated disclosure: each unlocked definition tells
/// the requester which guard protects the next layer.
pub fn unlock_policy_chain(
    peers: &mut PeerMap,
    net: &mut SimNetwork,
    nid: NegotiationId,
    requester: PeerId,
    owner: PeerId,
    policy: Sym,
    max_rounds: usize,
) -> Vec<(Sym, Vec<Rule>)> {
    let mut obtained: Vec<(Sym, Vec<Rule>)> = Vec::new();
    let mut frontier = vec![policy];
    for _ in 0..max_rounds {
        let Some(next) = frontier.pop() else { break };
        if obtained.iter().any(|(p, _)| *p == next) {
            continue;
        }
        let res = request_policy(peers, net, nid, requester, owner, next);
        if res.rules.is_empty() {
            continue;
        }
        // Scan disclosed bodies for further policy names to unlock.
        for rule in &res.rules {
            for body in &rule.body {
                if body.authority.is_empty()
                    && body.pred.as_str().starts_with("policy")
                    && !obtained.iter().any(|(p, _)| *p == body.pred)
                {
                    frontier.push(body.pred);
                }
            }
        }
        obtained.push((next, res.rules));
    }
    obtained
}

/// Convenience for tests and benches: does `rules` (a disclosed policy
/// definition) mention `pred` in any body?
pub fn definition_mentions(rules: &[Rule], pred: Sym) -> bool {
    rules.iter().any(|r| {
        r.body.iter().any(|b| {
            b.pred == pred
                || b.args.iter().any(|t| {
                    let mut s = Subst::new();
                    peertrust_core::unify(t, &peertrust_core::Term::atom(pred.as_str()), &mut s)
                })
        })
    })
}

/// The default opaque-name check: is `lit` a reference to a named policy?
pub fn is_policy_name(lit: &Literal) -> bool {
    lit.pred.as_str().starts_with("policy")
}

#[cfg(test)]
mod tests {
    use super::*;
    use peertrust_crypto::KeyRegistry;

    fn registry() -> KeyRegistry {
        let r = KeyRegistry::new();
        r.register_derived(PeerId::new("VISA"), 1);
        r.register_derived(PeerId::new("ELENA"), 2);
        r
    }

    fn elearn_with_policies(reg: &KeyRegistry) -> NegotiationPeer {
        let mut p = NegotiationPeer::new("E-Learn", reg.clone());
        p.load_program(
            r#"
            % policy49 is protected by policy27; policy27 is public.
            policy49(Course, Requester, Company, Price) <-_(policy27(Requester))
                price(Course, Price),
                authorized(Requester, Price) @ Company @ Requester,
                visaCard(Company) @ "VISA" @ Requester.
            policy27(Requester) <-_true
                authorizedMerchant(Requester) @ "VISA" @ Requester,
                member(Requester) @ "ELENA".
            % freebieEligible keeps the paper's default-private protection.
            freebieEligible(C, R, Co, E) <-
                email(R, E) @ R,
                employee(R) @ Co @ R,
                member(Co) @ "ELENA" @ R.
            "#,
        )
        .unwrap();
        p
    }

    #[test]
    fn public_guard_policy_is_disclosed() {
        let reg = registry();
        let mut peers = PeerMap::new();
        peers.insert(elearn_with_policies(&reg));
        peers.insert(NegotiationPeer::new("IBM", reg));

        let mut net = SimNetwork::new(1);
        let res = request_policy(
            &mut peers,
            &mut net,
            NegotiationId(1),
            PeerId::new("IBM"),
            PeerId::new("E-Learn"),
            Sym::new("policy27"),
        );
        assert_eq!(res.rules.len(), 1);
        // Contexts are stripped on the wire.
        assert!(res.rules[0].rule_context.is_none());
        assert_eq!(res.messages, 2);
        // The requester cached it.
        let ibm = peers.get(PeerId::new("IBM")).unwrap();
        assert!(!ibm.kb.is_empty());
    }

    #[test]
    fn default_private_policy_is_refused() {
        let reg = registry();
        let mut peers = PeerMap::new();
        peers.insert(elearn_with_policies(&reg));
        peers.insert(NegotiationPeer::new("IBM", reg));

        let mut net = SimNetwork::new(1);
        let res = request_policy(
            &mut peers,
            &mut net,
            NegotiationId(1),
            PeerId::new("IBM"),
            PeerId::new("E-Learn"),
            Sym::new("freebieEligible"),
        );
        assert!(res.rules.is_empty());
    }

    #[test]
    fn guarded_policy_unlocks_after_requirement_met() {
        // policy49 guarded by policy27(Requester): refused until E-Learn
        // can derive policy27("IBM") locally.
        let reg = registry();
        let mut peers = PeerMap::new();
        peers.insert(elearn_with_policies(&reg));
        let mut ibm = NegotiationPeer::new("IBM", reg.clone());
        ibm.load_program(
            r#"
            authorizedMerchant("IBM") @ "VISA" $ true signedBy ["VISA"].
            member("IBM") @ "ELENA" $ true signedBy ["ELENA"].
            "#,
        )
        .unwrap();
        peers.insert(ibm);

        let mut net = SimNetwork::new(1);
        let refused = request_policy(
            &mut peers,
            &mut net,
            NegotiationId(1),
            PeerId::new("IBM"),
            PeerId::new("E-Learn"),
            Sym::new("policy49"),
        );
        assert!(refused.rules.is_empty(), "guard not yet satisfied");

        // IBM pushes the credentials satisfying policy27's body.
        let creds: Vec<_> = {
            let ibm = peers.get(PeerId::new("IBM")).unwrap();
            ibm.disclosable_signed_rules()
                .map(|(_, sr)| sr.clone())
                .collect()
        };
        for sr in creds {
            peers
                .get_mut(PeerId::new("E-Learn"))
                .unwrap()
                .receive_signed(&sr, PeerId::new("IBM"))
                .unwrap();
        }

        let granted = request_policy(
            &mut peers,
            &mut net,
            NegotiationId(2),
            PeerId::new("IBM"),
            PeerId::new("E-Learn"),
            Sym::new("policy49"),
        );
        assert_eq!(granted.rules.len(), 1, "guard satisfied after pushes");
    }

    #[test]
    fn owner_sees_own_policies_unconditionally() {
        let reg = registry();
        let peer = elearn_with_policies(&reg);
        let own =
            disclosable_definition(&peer, PeerId::new("E-Learn"), Sym::new("freebieEligible"));
        assert_eq!(own.len(), 1);
    }

    #[test]
    fn policy_chain_unlocks_iteratively() {
        let reg = registry();
        let mut peers = PeerMap::new();
        peers.insert(elearn_with_policies(&reg));
        let mut ibm = NegotiationPeer::new("IBM", reg.clone());
        ibm.load_program(
            r#"
            authorizedMerchant("IBM") @ "VISA" $ true signedBy ["VISA"].
            member("IBM") @ "ELENA" $ true signedBy ["ELENA"].
            "#,
        )
        .unwrap();
        peers.insert(ibm);
        // Pre-push credentials so policy49's guard holds.
        let creds: Vec<_> = {
            let ibm = peers.get(PeerId::new("IBM")).unwrap();
            ibm.disclosable_signed_rules()
                .map(|(_, sr)| sr.clone())
                .collect()
        };
        for sr in creds {
            peers
                .get_mut(PeerId::new("E-Learn"))
                .unwrap()
                .receive_signed(&sr, PeerId::new("IBM"))
                .unwrap();
        }

        let mut net = SimNetwork::new(1);
        let chain = unlock_policy_chain(
            &mut peers,
            &mut net,
            NegotiationId(1),
            PeerId::new("IBM"),
            PeerId::new("E-Learn"),
            Sym::new("policy49"),
            8,
        );
        let names: Vec<&str> = chain.iter().map(|(p, _)| p.as_str()).collect();
        assert!(names.contains(&"policy49"));
    }

    #[test]
    fn is_policy_name_prefix_convention() {
        assert!(is_policy_name(&Literal::new("policy27", vec![])));
        assert!(!is_policy_name(&Literal::new("student", vec![])));
    }
}
