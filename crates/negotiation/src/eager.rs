//! The eager negotiation strategy.
//!
//! Yu, Winslett & Seamons' *eager* strategy (paper §5, \[21\]): in each round
//! a party discloses **every** credential whose release policy is already
//! satisfied by what it has received so far, without waiting to learn
//! whether the other side needs it. No policy content ever crosses the
//! wire — only credentials — which trades bandwidth for policy privacy.
//!
//! The negotiation succeeds as soon as the responder can derive the
//! requested resource and license its release to the requester from purely
//! local knowledge; it fails when a full round passes with no new
//! disclosure on either side (the monotone disclosure sets have reached
//! their fixpoint, so no later round could differ — this is the classic
//! eager-strategy completeness argument: if a safe disclosure sequence
//! exists, the round-by-round fixpoint finds one).
//!
//! Experiments E3/E4 compare this driver against the parsimonious
//! [`crate::session::negotiate`] on the same policy graphs: eager needs
//! fewer rounds but discloses more credentials and bytes.

use crate::outcome::{DisclosedItem, Disclosure, Evidence, NegotiationOutcome};
use crate::peer::NegotiationPeer;
use crate::session::{classify_evidence, PeerMap};
use peertrust_core::{Context, KnowledgeBase, Literal, PeerId, Rule, RuleId, Subst};
use peertrust_engine::{EngineConfig, Solver};
use peertrust_net::{NegotiationId, Payload, SimNetwork};

/// Eager driver configuration.
#[derive(Clone, Copy, Debug)]
pub struct EagerConfig {
    /// Hard round cap (a fixpoint is normally reached much earlier).
    pub max_rounds: u64,
}

impl Default for EagerConfig {
    fn default() -> Self {
        EagerConfig { max_rounds: 64 }
    }
}

/// Run one eager negotiation between `requester` and `responder`.
///
/// Only the two principals disclose (the strategy set of \[21\] is defined
/// for two-party negotiations); credentials issued by third parties are
/// fine — they were collected beforehand — but no third peer is contacted
/// at run time.
pub fn negotiate_eager(
    peers: &mut PeerMap,
    net: &mut SimNetwork,
    cfg: EagerConfig,
    nid: NegotiationId,
    requester: PeerId,
    responder: PeerId,
    goal: Literal,
) -> NegotiationOutcome {
    let msgs0 = net.stats().messages_sent;
    let bytes0 = net.stats().bytes_sent;
    let queries0 = net.stats().queries;
    let tick0 = net.now();

    let mut disclosures: Vec<Disclosure> = Vec::new();
    // (owner, rule) pairs already sent, to avoid re-disclosure.
    let mut sent: Vec<(PeerId, Rule)> = Vec::new();
    // What each principal received this negotiation: (rule, sender).
    let mut ledgers: std::collections::HashMap<PeerId, Vec<(Rule, PeerId)>> =
        std::collections::HashMap::new();
    let mut rename_seq: u32 = 0;

    let mut success_answers: Vec<Literal> = Vec::new();
    let mut rounds = 0u64;

    'rounds: for round in 1..=cfg.max_rounds {
        rounds = round;
        let mut any_disclosed = false;

        // Requester discloses first (it initiated), then the responder.
        for (discloser, recipient) in [(requester, responder), (responder, requester)] {
            let newly = releasable_credentials(
                peers,
                discloser,
                recipient,
                &sent,
                ledgers.get(&discloser).map(Vec::as_slice),
                &mut rename_seq,
            );
            if newly.is_empty() {
                continue;
            }
            // Contexts stripped on the wire (paper §3.1).
            let rules: Vec<_> = newly
                .iter()
                .map(|(sr, _, _)| peertrust_crypto::SignedRule {
                    rule: sr.rule.strip_contexts(),
                    signatures: sr.signatures.clone(),
                })
                .collect();
            // The transport is authoritative: if the push cannot be routed
            // (partition), nothing was disclosed this turn.
            if net
                .send(
                    nid,
                    discloser,
                    recipient,
                    Payload::CredentialPush { rules },
                    0,
                )
                .is_err()
            {
                continue;
            }
            any_disclosed = true;
            net.step();
            let _ = net.poll(recipient);

            for (sr, ctx, ev) in newly {
                sent.push((discloser, sr.rule.clone()));
                // The wire form is context-stripped (paper §3.1).
                let wire = peertrust_crypto::SignedRule {
                    rule: sr.rule.strip_contexts(),
                    signatures: sr.signatures.clone(),
                };
                let accepted = peers
                    .get_mut(recipient)
                    .expect("recipient exists")
                    .receive_signed(wire.clone(), discloser);
                if let Ok(true) = accepted {
                    ledgers
                        .entry(recipient)
                        .or_default()
                        .push((wire.rule.clone(), discloser));
                    if let Some(ext) = crate::peer::sender_extended(&wire.rule, discloser) {
                        ledgers.entry(recipient).or_default().push((ext, discloser));
                    }
                    let seq = disclosures.len();
                    disclosures.push(Disclosure {
                        seq,
                        from: discloser,
                        to: recipient,
                        item: DisclosedItem::SignedRule(wire),
                        context: ctx,
                        evidence: ev,
                    });
                }
            }
        }

        // Success check: can the responder derive *and license* the goal
        // from purely local knowledge now?
        if let Some((answers, _ctx, _ev)) = grantable_locally(
            peers,
            responder,
            requester,
            &goal,
            ledgers.get(&responder).map(Vec::as_slice),
            &mut rename_seq,
        ) {
            success_answers = answers;
            break 'rounds;
        }

        if !any_disclosed {
            break; // fixpoint without success: negotiation fails
        }
    }

    let success = !success_answers.is_empty();
    if success {
        let seq = disclosures.len();
        disclosures.push(Disclosure {
            seq,
            from: responder,
            to: requester,
            item: DisclosedItem::Resource(success_answers[0].clone()),
            context: Context::public(),
            evidence: Vec::new(),
        });
    }

    NegotiationOutcome {
        success,
        requester,
        responder,
        goal,
        granted: success_answers,
        disclosures,
        refusals: Vec::new(),
        messages: net.stats().messages_sent - msgs0,
        bytes: net.stats().bytes_sent - bytes0,
        queries: net.stats().queries - queries0,
        rounds,
        elapsed_ticks: net.now() - tick0,
    }
}

/// Every credential of `owner` whose release policy is *locally* satisfied
/// for `recipient` and which has not been sent yet.
fn releasable_credentials(
    peers: &PeerMap,
    owner: PeerId,
    recipient: PeerId,
    sent: &[(PeerId, Rule)],
    ledger: Option<&[(Rule, PeerId)]>,
    rename_seq: &mut u32,
) -> Vec<(peertrust_crypto::SignedRule, Context, Vec<Evidence>)> {
    let Some(peer) = peers.get(owner) else {
        return Vec::new();
    };
    let mut out: Vec<(peertrust_crypto::SignedRule, Context, Vec<Evidence>)> = Vec::new();
    for (_id, sr) in peer.disclosable_signed_rules() {
        if sent.iter().any(|(p, r)| *p == owner && *r == sr.rule) {
            continue;
        }
        // A credential registered under several rule ids (re-minted, or
        // received through different channels) must still cross the wire
        // once per round — the `sent` ledger only catches repeats across
        // rounds, so dedup within the batch as well.
        if out.iter().any(|(prev, _, _)| prev.rule == sr.rule) {
            continue;
        }
        if let Some((ctx, ev)) =
            license_locally(peer, recipient, &sr.rule.head, &peer.kb, ledger, rename_seq)
        {
            out.push((sr.clone(), ctx, ev));
        }
    }
    out
}

/// Can `responder` grant `goal` to `requester` using only local knowledge?
/// Returns the granted instances with licensing context and evidence.
#[allow(clippy::type_complexity)]
fn grantable_locally(
    peers: &PeerMap,
    responder: PeerId,
    requester: PeerId,
    goal: &Literal,
    ledger: Option<&[(Rule, PeerId)]>,
    rename_seq: &mut u32,
) -> Option<(Vec<Literal>, Context, Vec<Evidence>)> {
    let peer = peers.get(responder)?;
    let solutions = {
        let mut solver =
            Solver::new(&peer.kb, responder).with_config(local_config(peer.config.engine));
        solver.solve(std::slice::from_ref(goal))
    };
    let mut granted = Vec::new();
    let mut license: Option<(Context, Vec<Evidence>)> = None;
    for sol in solutions {
        let answer = sol.proofs[0].goal.clone();
        if granted.contains(&answer) {
            continue;
        }
        if let Some((ctx, ev)) =
            license_locally(peer, requester, &answer, &peer.kb, ledger, rename_seq)
        {
            granted.push(answer);
            if license.is_none() {
                license = Some((ctx, ev));
            }
        }
    }
    if granted.is_empty() {
        None
    } else {
        let (ctx, ev) = license.expect("license set with granted answers");
        Some((granted, ctx, ev))
    }
}

/// Purely local licensing scan: like `Session::license_scan` but context
/// and body goals are proven without any network interaction — the essence
/// of the eager strategy, which only ever *pushes*.
fn license_locally(
    peer: &NegotiationPeer,
    recipient: PeerId,
    answer: &Literal,
    kb: &KnowledgeBase,
    ledger: Option<&[(Rule, PeerId)]>,
    rename_seq: &mut u32,
) -> Option<(Context, Vec<Evidence>)> {
    if recipient == peer.id {
        return Some((Context::public(), Vec::new()));
    }
    let engine = local_config(peer.config.engine);
    let candidates: Vec<(RuleId, Rule)> = kb
        .candidates(answer)
        .map(|sr| (sr.id, sr.rule.as_ref().clone()))
        .collect();
    // §3.2 self-closure: a chainless answer also matches licensing rules
    // written with the owner's explicit authority.
    let extended = answer.clone().at(peertrust_core::Term::peer(peer.id));
    for (_id, rule) in candidates {
        *rename_seq += 1;
        let renamed = rule.rename_apart(*rename_seq);
        let mut s = Subst::new();
        if !peertrust_core::unify_literals(&renamed.head, answer, &mut s) {
            s = Subst::new();
            if answer.eval_peer() == Some(peer.id)
                || !peertrust_core::unify_literals(&renamed.head, &extended, &mut s)
            {
                continue;
            }
        }
        let ctx = renamed.effective_head_context().apply(&s);
        if ctx.is_default_private() {
            continue;
        }

        let mut evidence = Vec::new();
        let mut ctx_goals = Vec::new();
        if !ctx.is_public() {
            ctx_goals = ctx.instantiate(recipient, peer.id);
            let mut solver = Solver::new(kb, peer.id).with_config(engine);
            match solver.solve(&ctx_goals).into_iter().next() {
                Some(sol) => evidence = classify_evidence(peer, ledger, &sol.proofs),
                None => continue,
            }
        }

        let body: Vec<Literal> = renamed.body.iter().map(|b| s.apply_literal(b)).collect();
        let body_is_answer = body.len() == 1 && body[0] == *answer;
        if !renamed.body.is_empty() && !body_is_answer {
            let mut solver = Solver::new(kb, peer.id).with_config(engine);
            if !solver.provable(&body) {
                continue;
            }
        }
        return Some((Context::goals(ctx_goals), evidence));
    }
    None
}

/// Host-facing wrapper for the threaded runtime: purely local licensing
/// of one answer/credential for `recipient`, without session ledgers.
pub(crate) fn license_locally_for_host(
    peer: &NegotiationPeer,
    recipient: PeerId,
    answer: &Literal,
    rename_seq: &mut u32,
) -> Option<(Context, Vec<Evidence>)> {
    license_locally(peer, recipient, answer, &peer.kb, None, rename_seq)
}

/// Host-facing wrapper: can `peer` derive and license `goal` for
/// `requester` from purely local knowledge? Returns the granted instances.
pub(crate) fn grantable_locally_for_host(
    peer: &NegotiationPeer,
    requester: PeerId,
    goal: &Literal,
) -> Option<Vec<Literal>> {
    let mut rename_seq = 0u32;
    let solutions = {
        let mut solver =
            Solver::new(&peer.kb, peer.id).with_config(local_config(peer.config.engine));
        solver.solve(std::slice::from_ref(goal))
    };
    let mut granted = Vec::new();
    for sol in solutions {
        let answer = sol.subst.apply_literal(goal);
        if granted.contains(&answer) {
            continue;
        }
        if license_locally(peer, requester, &answer, &peer.kb, None, &mut rename_seq).is_some() {
            granted.push(answer);
        }
    }
    if granted.is_empty() {
        None
    } else {
        Some(granted)
    }
}

/// Engine settings for purely local evaluation (no remote fallback).
fn local_config(mut cfg: EngineConfig) -> EngineConfig {
    cfg.remote_fallback = peertrust_engine::RemoteFallback::Never;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::verify_safe_sequence;
    use crate::peer::NegotiationPeer;
    use peertrust_crypto::KeyRegistry;
    use peertrust_parser::parse_literal;

    fn registry() -> KeyRegistry {
        let r = KeyRegistry::new();
        for (i, name) in ["UIUC", "BBB", "CA"].iter().enumerate() {
            r.register_derived(PeerId::new(name), i as u64 + 1);
        }
        r
    }

    fn run_eager(
        peers: &mut PeerMap,
        requester: &str,
        responder: &str,
        goal: &str,
    ) -> NegotiationOutcome {
        let mut net = SimNetwork::new(3);
        negotiate_eager(
            peers,
            &mut net,
            EagerConfig::default(),
            NegotiationId(1),
            PeerId::new(requester),
            PeerId::new(responder),
            parse_literal(goal).unwrap(),
        )
    }

    /// Bilateral scenario identical to the session tests: works under the
    /// eager strategy without any query ever crossing the wire.
    #[test]
    fn eager_bilateral_succeeds() {
        let reg = registry();
        let mut peers = PeerMap::new();
        let mut elearn = NegotiationPeer::new("E-Learn", reg.clone());
        elearn
            .load_program(
                r#"
                resource(X) $ true <- student(X) @ "UIUC" @ X.
                member("E-Learn") @ "BBB" $ true signedBy ["BBB"].
                "#,
            )
            .unwrap();
        peers.insert(elearn);
        let mut alice = NegotiationPeer::new("Alice", reg);
        alice
            .load_program(
                r#"
                student("Alice") @ "UIUC" signedBy ["UIUC"].
                student(X) @ Y $ member(Requester) @ "BBB" @ Requester <-_true student(X) @ Y.
                "#,
            )
            .unwrap();
        peers.insert(alice);

        let out = run_eager(&mut peers, "Alice", "E-Learn", r#"resource("Alice")"#);
        assert!(out.success, "disclosures: {:#?}", out.disclosures);
        // Round 1: Alice can release nothing (no BBB proof yet); E-Learn
        // pushes its BBB membership. Round 2: Alice's policy is satisfied,
        // she pushes her student ID; E-Learn grants.
        assert_eq!(out.rounds, 2);
        assert_eq!(out.credential_count(), 2);
        verify_safe_sequence(&out).unwrap();
    }

    #[test]
    fn eager_fails_at_fixpoint_when_unsatisfiable() {
        // Mutually locked credentials: nobody can move first.
        let reg = registry();
        let mut peers = PeerMap::new();
        let mut a = NegotiationPeer::new("A", reg.clone());
        a.load_program(
            r#"
            resource(X) $ true <- credB(X) @ "CA".
            credA("A") @ "CA" signedBy ["CA"].
            credA(X) @ Y $ credB(Requester) @ "CA" <-_true credA(X) @ Y.
            "#,
        )
        .unwrap();
        peers.insert(a);
        let mut b = NegotiationPeer::new("B", reg);
        b.load_program(
            r#"
            credB("B") @ "CA" signedBy ["CA"].
            credB(X) @ Y $ credA(Requester) @ "CA" <-_true credB(X) @ Y.
            "#,
        )
        .unwrap();
        peers.insert(b);

        let out = run_eager(&mut peers, "B", "A", r#"resource("B")"#);
        assert!(!out.success);
        assert_eq!(out.credential_count(), 0);
        // Terminates after the first all-quiet round.
        assert!(out.rounds <= 2);
    }

    #[test]
    fn eager_unlocks_chains_across_rounds() {
        // B's cred2 unlocks once A's cred1 arrives; A's cred1 is public.
        // Chain: A pushes cred1 (round 1) -> B pushes cred2 (round 2) ->
        // resource unlocked.
        let reg = registry();
        let mut peers = PeerMap::new();
        let mut a = NegotiationPeer::new("A", reg.clone());
        a.load_program(
            r#"
            resource(X) $ true <- cred2(X) @ "CA".
            cred1("A") @ "CA" $ true signedBy ["CA"].
            "#,
        )
        .unwrap();
        peers.insert(a);
        let mut b = NegotiationPeer::new("B", reg);
        b.load_program(
            r#"
            cred2("B") @ "CA" signedBy ["CA"].
            cred2(X) @ Y $ cred1(Requester) @ "CA" <-_true cred2(X) @ Y.
            "#,
        )
        .unwrap();
        peers.insert(b);

        let out = run_eager(&mut peers, "B", "A", r#"resource("B")"#);
        assert!(out.success, "disclosures: {:#?}", out.disclosures);
        verify_safe_sequence(&out).unwrap();
        // Evidence on B's disclosure must cite A's cred1.
        let b_discl = out
            .disclosures
            .iter()
            .find(|d| d.from == PeerId::new("B"))
            .unwrap();
        assert!(b_discl.evidence.iter().any(
            |e| matches!(e, Evidence::ReceivedRule { from, .. } if *from == PeerId::new("A"))
        ));
    }

    #[test]
    fn eager_discloses_more_than_needed() {
        // A public irrelevant credential is pushed too — the price of
        // eagerness.
        let reg = registry();
        let mut peers = PeerMap::new();
        let mut server = NegotiationPeer::new("S", reg.clone());
        server
            .load_program(r#"open(X) $ true <- base(X). base(1)."#)
            .unwrap();
        peers.insert(server);
        let mut client = NegotiationPeer::new("C", reg);
        client
            .load_program(
                r#"
                irrelevant("C") @ "CA" $ true signedBy ["CA"].
                "#,
            )
            .unwrap();
        peers.insert(client);

        let out = run_eager(&mut peers, "C", "S", "open(X)");
        assert!(out.success);
        // The irrelevant credential crossed the wire anyway.
        assert_eq!(out.credential_count(), 1);
    }

    #[test]
    fn eager_respects_round_cap() {
        let reg = registry();
        let mut peers = PeerMap::new();
        let mut a = NegotiationPeer::new("A", reg.clone());
        a.load_program(r#"resource(X) $ true <- never(X)."#)
            .unwrap();
        peers.insert(a);
        peers.insert(NegotiationPeer::new("B", reg));

        let mut net = SimNetwork::new(3);
        let out = negotiate_eager(
            &mut peers,
            &mut net,
            EagerConfig { max_rounds: 3 },
            NegotiationId(1),
            PeerId::new("B"),
            PeerId::new("A"),
            parse_literal(r#"resource("B")"#).unwrap(),
        );
        assert!(!out.success);
        assert!(out.rounds <= 3);
    }
}
