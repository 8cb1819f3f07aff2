//! A negotiation peer: knowledge base + crypto identity + answering policy.
//!
//! A [`NegotiationPeer`] owns everything one party brings to a trust
//! negotiation (paper §2): its local rules and policies, cached signed
//! rules from other peers, the signatures backing its own credentials, and
//! the *effort policy* deciding which queries from which requesters it is
//! willing to answer at all (§3.2: "most peers will only be willing to
//! answer a few kinds of queries, and those only for a few kinds of
//! requesters").

use peertrust_core::{KnowledgeBase, Literal, PeerId, Rule, RuleId, Sym, Term};
use peertrust_crypto::{sign_rule, verify_signed_rule, KeyRegistry, SigError, SignedRule};
use peertrust_engine::EngineConfig;
use peertrust_parser::{parse_program, ParseError};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Per-peer configuration.
#[derive(Clone, Debug)]
pub struct PeerConfig {
    /// Local inference engine settings.
    pub engine: EngineConfig,
    /// Predicates this peer answers queries about; `None` = any.
    pub answerable: Option<HashSet<Sym>>,
    /// Requesters this peer refuses outright.
    pub deny_peers: HashSet<PeerId>,
    /// Hard cap on queries answered within one negotiation (effort limit).
    pub max_queries_per_negotiation: u64,
}

impl Default for PeerConfig {
    fn default() -> Self {
        PeerConfig {
            engine: EngineConfig::default(),
            answerable: None,
            deny_peers: HashSet::new(),
            max_queries_per_negotiation: 10_000,
        }
    }
}

/// Errors when loading rules or credentials into a peer.
#[derive(Debug)]
pub enum PeerError {
    Parse(ParseError),
    Sig(SigError),
}

impl std::fmt::Display for PeerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PeerError::Parse(e) => write!(f, "{e}"),
            PeerError::Sig(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PeerError {}

impl From<ParseError> for PeerError {
    fn from(e: ParseError) -> Self {
        PeerError::Parse(e)
    }
}

impl From<SigError> for PeerError {
    fn from(e: SigError) -> Self {
        PeerError::Sig(e)
    }
}

/// The issuer-extended form of a signed fact — the paper's §3.2 axiom
/// converting `lit signedBy [A]` into `lit @ A`. `None` when the head
/// already carries the issuer as its outermost authority, when the rule
/// has a body, or when there is more than one issuer.
pub fn issuer_extended(rule: &Rule) -> Option<Rule> {
    if !rule.is_fact() || rule.signed_by.len() != 1 || !rule.head.is_ground() {
        return None;
    }
    let issuer = PeerId(rule.signed_by[0]);
    if rule.head.eval_peer() == Some(issuer) {
        return None;
    }
    Some(fact_at(&rule.head, issuer))
}

/// The sender-extended fact recorded alongside a received credential:
/// `head @ sender`, the receiver's note that `sender` asserted the
/// credential's content by sending it. `None` for non-credentials.
pub fn sender_extended(rule: &Rule, from: PeerId) -> Option<Rule> {
    rule.is_credential().then(|| fact_at(&rule.head, from))
}

/// The fact `head @ peer`, its authority chain allocated once at its
/// final length.
fn fact_at(head: &Literal, peer: PeerId) -> Rule {
    let mut authority = Vec::with_capacity(head.authority.len() + 1);
    authority.extend_from_slice(&head.authority);
    authority.push(Term::peer(peer));
    Rule::fact(Literal {
        pred: head.pred,
        args: head.args.clone(),
        authority,
    })
}

/// What [`NegotiationPeer::receive_signed_mode`] did with a rule whose
/// signatures verified.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Receipt {
    /// The receiver's id for the rule: the one just stored, or that of
    /// the identical rule it already held.
    pub id: RuleId,
    /// The id of the sender-extended fact `head @ from`, if the receiver
    /// holds one.
    pub sender_extended: Option<RuleId>,
    /// Was the rule new to the receiver?
    pub fresh: bool,
}

/// One party in trust negotiations.
///
/// `Clone` snapshots the peer. After [`NegotiationPeer::freeze`] the
/// snapshot is copy-on-write: the KB's frozen base segment, the frozen
/// signed-rule map, the certified view's base and the registry are all
/// `Arc`-shared, so cloning costs O(overlay) — a handful of pointer bumps
/// for a peer that has not changed since the freeze. The batch scheduler
/// and the open-loop serving driver freeze the peer map once at setup and
/// then clone it per job/session; each negotiation mutates only its own
/// overlay (disclosed credentials, session state).
#[derive(Clone)]
pub struct NegotiationPeer {
    pub id: PeerId,
    pub kb: KnowledgeBase,
    pub config: PeerConfig,
    /// Trusted key registry (shared, simulated CA).
    pub registry: KeyRegistry,
    /// Signatures minted or received before the last [freeze], shared
    /// across clones. Keyed by rule id; only rules present in either
    /// signed map can be *pushed* to other peers.
    ///
    /// [freeze]: NegotiationPeer::freeze
    signed_base: Arc<HashMap<RuleId, SignedRule>>,
    /// Signatures added since the last freeze (disclosures received
    /// mid-session land here). Rule ids are fresh KB ids, so the two maps
    /// are disjoint by construction.
    signed_overlay: HashMap<RuleId, SignedRule>,
    /// The certified view: every KB rule that has an entry in either
    /// signed map, in KB order, as `Received(self)`. It indexes the same
    /// `Arc<Rule>`s as `kb`, grows at the point a rule id enters a signed
    /// map, and freezes with the KB, so verifying an answer never has to
    /// rebuild it.
    certified: KnowledgeBase,
}

impl NegotiationPeer {
    pub fn new(id: impl Into<PeerId>, registry: KeyRegistry) -> NegotiationPeer {
        NegotiationPeer {
            id: id.into(),
            kb: KnowledgeBase::new(),
            config: PeerConfig::default(),
            registry,
            signed_base: Arc::new(HashMap::new()),
            signed_overlay: HashMap::new(),
            certified: KnowledgeBase::new(),
        }
    }

    pub fn with_config(mut self, config: PeerConfig) -> NegotiationPeer {
        self.config = config;
        self
    }

    /// Freeze this peer's mutable state into `Arc`-shared form: the KB's
    /// and the certified view's overlays fold into their frozen bases
    /// ([`KnowledgeBase::freeze`]) and the signed-rule overlay folds into
    /// the shared signed map. After freezing, `clone` is O(1) and
    /// concurrent sessions share one copy of the rule store. Idempotent;
    /// call again after bulk setup growth.
    pub fn freeze(&mut self) {
        self.kb.freeze();
        self.certified.freeze();
        if !self.signed_overlay.is_empty() {
            let mut base = Arc::try_unwrap(std::mem::take(&mut self.signed_base))
                .unwrap_or_else(|arc| (*arc).clone());
            base.extend(self.signed_overlay.drain());
            self.signed_base = Arc::new(base);
        }
    }

    /// Is all of this peer's rule/signature state already in the shared
    /// frozen bases (every overlay empty)? Cloning a frozen peer is O(1),
    /// so batch drivers skip their setup copy when handed a pre-frozen
    /// map.
    pub fn is_frozen(&self) -> bool {
        self.kb.frozen_len() == self.kb.len()
            && self.certified.frozen_len() == self.certified.len()
            && self.signed_overlay.is_empty()
    }

    /// Do `self` and `other` share their frozen KB base and certified
    /// view base (one allocation each, not copies)?
    pub fn shares_frozen_bases_with(&self, other: &NegotiationPeer) -> bool {
        self.kb.shares_base_with(&other.kb) && self.certified.shares_base_with(&other.certified)
    }

    /// Add one local (unsigned) rule.
    pub fn add_rule(&mut self, rule: Rule) -> RuleId {
        debug_assert!(
            rule.signed_by.is_empty(),
            "use add_signed_rule/mint for signed rules"
        );
        self.kb.add_local(rule)
    }

    /// Parse and load a whole program of local rules. Rules carrying
    /// `signedBy` are minted (signed via the registry) so they can later be
    /// pushed; the issuers must be registered.
    pub fn load_program(&mut self, src: &str) -> Result<Vec<RuleId>, PeerError> {
        let rules = parse_program(src)?;
        let mut ids = Vec::new();
        for rule in rules {
            if rule.signed_by.is_empty() {
                ids.push(self.kb.add_local(rule));
            } else {
                ids.push(self.mint(rule)?);
            }
        }
        Ok(ids)
    }

    /// Sign `rule` with its declared issuers and store it with its
    /// signature. This is scenario setup's stand-in for "the issuer handed
    /// the holder this credential".
    pub fn mint(&mut self, rule: Rule) -> Result<RuleId, PeerError> {
        let signed = sign_rule(&self.registry, &rule)?;
        // §3.2 axiom: a signed fact also derives its `@ issuer` form. The
        // extension maps back to the same signature bundle, so pushing or
        // verifying either form ships the real credential.
        let ext = issuer_extended(&rule);
        let id = self.kb.add_local(rule);
        self.certify(id, signed.clone());
        if let Some(ext) = ext {
            if !self.kb.contains(&ext) {
                let eid = self.kb.add_local(ext);
                self.certify(eid, signed);
            }
        }
        Ok(id)
    }

    /// Record `signed` as the signature bundle backing KB rule `id` and
    /// append that rule to the certified view. Callers certify ids in the
    /// order they entered the KB, so the view keeps KB order.
    fn certify(&mut self, id: RuleId, signed: SignedRule) {
        let rule = Arc::clone(&self.kb.get(id).expect("rule just added").rule);
        self.certified.add_received(rule, self.id);
        self.signed_overlay.insert(id, signed);
    }

    /// Verify and accept a signed rule pushed by `from`. Duplicates are
    /// ignored. Returns `Ok(true)` if the rule was new.
    ///
    /// For credentials (ground signed facts) an additional *sender-extended*
    /// fact `head @ from` is recorded: by sending the credential, `from`
    /// itself asserted its content, which is exactly what authority chains
    /// ending in `@ Requester` (e.g. `member(Requester) @ "ELENA" @
    /// Requester`) ask for. The extended fact is unsigned and private; it
    /// only feeds local derivations.
    pub fn receive_signed(&mut self, signed: &SignedRule, from: PeerId) -> Result<bool, PeerError> {
        Ok(self.receive_signed_mode(signed, from, false)?.fresh)
    }

    /// [`NegotiationPeer::receive_signed`] with sticky-policy support:
    /// when `sticky` is set, a head context attached to the received rule
    /// is *retained* — the paper's §3.1 sticky-policy sketch ("leaving
    /// contexts attached to literals and rules in messages ... so that a
    /// peer can control further dissemination of its released information
    /// in a non-adversarial environment"). The retained context then
    /// gates this peer's re-disclosure of the rule.
    ///
    /// The rule is copied only when it is new to this peer.
    pub fn receive_signed_mode(
        &mut self,
        signed: &SignedRule,
        from: PeerId,
        sticky: bool,
    ) -> Result<Receipt, PeerError> {
        verify_signed_rule(&self.registry, signed)?;
        // Contexts are the *sender's* release policies; by default the
        // paper strips them on the wire (§3.1) and so do we — whatever
        // arrives is normalized to its context-free form, which then falls
        // under the receiving peer's own (default-private) policies. In
        // sticky mode the head context survives and travels with the rule.
        let rule = if sticky || !signed.rule.has_contexts() {
            Cow::Borrowed(&signed.rule)
        } else {
            Cow::Owned(signed.rule.strip_contexts())
        };
        let extended = sender_extended(&rule, from);
        if let Some(id) = self.kb.find(&rule) {
            return Ok(Receipt {
                id,
                sender_extended: extended.and_then(|ext| self.kb.find(&ext)),
                fresh: false,
            });
        }
        let bundle = SignedRule {
            rule: rule.into_owned(),
            signatures: signed.signatures.clone(),
        };
        let id = self.kb.add_received(bundle.rule.clone(), from);
        let sender_extended = extended.map(|ext| match self.kb.find(&ext) {
            Some(eid) => eid,
            None => self.kb.add_received(ext, from),
        });
        // Certify `id` before its extension so the view keeps KB order;
        // the bundle is cloned only when both need it.
        match issuer_extended(&bundle.rule).filter(|ext| !self.kb.contains(ext)) {
            Some(ext) => {
                self.certify(id, bundle.clone());
                let eid = self.kb.add_received(ext, from);
                self.certify(eid, bundle);
            }
            None => self.certify(id, bundle),
        }
        Ok(Receipt {
            id,
            sender_extended,
            fresh: true,
        })
    }

    /// The stored signature bundle for a rule, if it is a pushable signed
    /// rule.
    pub fn signed_rule(&self, id: RuleId) -> Option<&SignedRule> {
        self.signed_overlay
            .get(&id)
            .or_else(|| self.signed_base.get(&id))
    }

    /// All signed rules this peer could potentially disclose.
    pub fn disclosable_signed_rules(&self) -> impl Iterator<Item = (RuleId, &SignedRule)> {
        self.signed_base
            .iter()
            .chain(self.signed_overlay.iter())
            .map(|(id, s)| (*id, s))
    }

    /// Effort policy: will this peer even *consider* `goal` from
    /// `requester`? (Release policies are checked separately, per rule.)
    pub fn accepts_query(&self, requester: PeerId, goal: &Literal) -> bool {
        if self.config.deny_peers.contains(&requester) {
            return false;
        }
        match &self.config.answerable {
            None => true,
            Some(preds) => preds.contains(&goal.pred),
        }
    }

    /// The knowledge base of signature-backed rules only (local minted +
    /// received, including their issuer-extended `lit @ A` forms) — the
    /// material admissible in a *certified* proof. A standing view kept
    /// up to date on every mint and receipt, not rebuilt per call.
    pub fn signed_only_kb(&self) -> &KnowledgeBase {
        &self.certified
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peertrust_core::{RuleOrigin, Term};

    fn registry() -> KeyRegistry {
        let r = KeyRegistry::new();
        r.register_derived(PeerId::new("UIUC"), 1);
        r.register_derived(PeerId::new("BBB"), 2);
        r
    }

    #[test]
    fn load_program_mints_signed_rules() {
        let mut alice = NegotiationPeer::new("Alice", registry());
        let ids = alice
            .load_program(
                r#"
                student("Alice") @ "UIUC" signedBy ["UIUC"].
                email("Alice", "alice@uiuc.edu").
                "#,
            )
            .unwrap();
        assert_eq!(ids.len(), 2);
        assert!(alice.signed_rule(ids[0]).is_some());
        assert!(alice.signed_rule(ids[1]).is_none());
        assert_eq!(alice.disclosable_signed_rules().count(), 1);
    }

    #[test]
    fn minting_requires_registered_issuer() {
        let mut p = NegotiationPeer::new("P", registry());
        let err = p.load_program(r#"cred("x") signedBy ["Unknown CA"]."#);
        assert!(err.is_err());
    }

    #[test]
    fn receive_signed_verifies_and_dedups() {
        let reg = registry();
        let mut alice = NegotiationPeer::new("Alice", reg.clone());
        let id = alice
            .load_program(r#"student("Alice") @ "UIUC" signedBy ["UIUC"]."#)
            .unwrap()[0];
        let signed = alice.signed_rule(id).unwrap().clone();

        let mut elearn = NegotiationPeer::new("E-Learn", reg);
        assert!(elearn
            .receive_signed(&signed, PeerId::new("Alice"))
            .unwrap());
        assert!(!elearn
            .receive_signed(&signed, PeerId::new("Alice"))
            .unwrap());
        // Credential + its sender-extended fact.
        assert_eq!(elearn.kb.len(), 2);
        let extended =
            peertrust_parser::parse_literal(r#"student("Alice") @ "UIUC" @ "Alice""#).unwrap();
        assert!(elearn
            .kb
            .candidates(&extended)
            .any(|sr| sr.rule.head == extended));

        // Tampered rule is rejected.
        let mut bad = signed;
        bad.rule.head.args[0] = Term::str("Mallory");
        assert!(elearn.receive_signed(&bad, PeerId::new("Alice")).is_err());
    }

    #[test]
    fn effort_policy_filters_queries() {
        let mut cfg = PeerConfig {
            answerable: Some([Sym::new("student")].into_iter().collect()),
            ..Default::default()
        };
        cfg.deny_peers.insert(PeerId::new("Mallory"));
        let p = NegotiationPeer::new("UIUC", registry()).with_config(cfg);

        let student_goal = Literal::new("student", vec![Term::var("X")]);
        let salary_goal = Literal::new("salary", vec![Term::var("X")]);
        assert!(p.accepts_query(PeerId::new("E-Learn"), &student_goal));
        assert!(!p.accepts_query(PeerId::new("E-Learn"), &salary_goal));
        assert!(!p.accepts_query(PeerId::new("Mallory"), &student_goal));
    }

    #[test]
    fn freeze_shares_kb_and_signed_map_across_clones() {
        let reg = registry();
        let mut alice = NegotiationPeer::new("Alice", reg.clone());
        let id = alice
            .load_program(r#"student("Alice") @ "UIUC" signedBy ["UIUC"]."#)
            .unwrap()[0];
        let disclosable = alice.disclosable_signed_rules().count();
        alice.freeze();
        alice.freeze(); // idempotent
        let clone = alice.clone();
        assert!(clone.shares_frozen_bases_with(&alice));
        assert!(clone.signed_rule(id).is_some());
        assert_eq!(clone.disclosable_signed_rules().count(), disclosable);
        assert_eq!(clone.signed_only_kb().len(), alice.signed_only_kb().len());

        // Post-freeze receipts land in the clone's private overlay.
        let mut bob = NegotiationPeer::new("Bob", reg);
        let bid = bob
            .load_program(r#"member("Bob") @ "BBB" signedBy ["BBB"]."#)
            .unwrap()[0];
        let pushed = bob.signed_rule(bid).unwrap().clone();
        let mut grown = alice.clone();
        assert!(grown.receive_signed(&pushed, PeerId::new("Bob")).unwrap());
        assert!(grown.disclosable_signed_rules().count() > disclosable);
        assert_eq!(
            alice.disclosable_signed_rules().count(),
            disclosable,
            "original unchanged"
        );
        assert!(grown.kb.shares_base_with(&alice.kb), "base still shared");
    }

    #[test]
    fn signed_only_kb_excludes_unsigned() {
        let mut alice = NegotiationPeer::new("Alice", registry());
        alice
            .load_program(
                r#"
                student("Alice") @ "UIUC" signedBy ["UIUC"].
                plain(1).
                "#,
            )
            .unwrap();
        let signed_kb = alice.signed_only_kb();
        assert_eq!(signed_kb.len(), 1);
    }

    /// The certified view computed from scratch: a fresh KB holding every
    /// signature-backed rule of the peer's KB, in KB order, as
    /// `Received(self)`. The oracle the maintained view must match.
    fn rescanned_view(p: &NegotiationPeer) -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        for sr in p.kb.iter() {
            if p.signed_rule(sr.id).is_some() {
                kb.add_received(sr.rule.as_ref().clone(), p.id);
            }
        }
        kb
    }

    fn entries(kb: &KnowledgeBase) -> Vec<(RuleId, Rule, RuleOrigin)> {
        kb.iter()
            .map(|sr| (sr.id, (*sr.rule).clone(), sr.origin))
            .collect()
    }

    fn assert_view_matches_rescan(p: &NegotiationPeer, step: &str) {
        let (view, scan) = (p.signed_only_kb(), rescanned_view(p));
        assert_eq!(entries(view), entries(&scan), "after {step}");
        assert_eq!(view.predicates(), scan.predicates(), "after {step}");
        for sr in scan.iter() {
            let ids = |kb: &KnowledgeBase| kb.candidates(&sr.rule.head).map(|c| c.id).collect();
            let (got, want): (Vec<_>, Vec<_>) = (ids(view), ids(&scan));
            assert_eq!(got, want, "candidates for {} after {step}", sr.rule.head);
        }
        let signed = p.kb.iter().filter(|sr| p.signed_rule(sr.id).is_some());
        assert!(
            signed
                .zip(view.iter())
                .all(|(k, v)| Arc::ptr_eq(&k.rule, &v.rule)),
            "the view shares the KB's rules after {step}"
        );
    }

    /// One of the signed-rule shapes minting and receipt treat differently:
    /// a credential with and without an issuer extension, one with a
    /// release context (kept only by sticky receipt), and a delegation.
    fn signed_shape(shape: u32, k: u32, ca: &str) -> Rule {
        let src = match shape {
            0 => format!(r#"c{k}("V") signedBy ["{ca}"]."#),
            1 => format!(r#"c{k}("V") @ "{ca}" signedBy ["{ca}"]."#),
            2 => format!(r#"c{k}("V") $ true signedBy ["{ca}"]."#),
            _ => format!(r#"d{k}(X) @ "{ca}" <- signedBy ["{ca}"] c{k}(X) @ "{ca}"."#),
        };
        parse_program(&src).unwrap().remove(0)
    }

    #[test]
    fn certified_view_matches_a_rescan_under_seeded_interleavings() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let reg = KeyRegistry::new();
        let issuers = ["CA0", "CA1"];
        for (i, ca) in issuers.iter().enumerate() {
            reg.register_derived(PeerId::new(ca), i as u64 + 10);
        }
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut p = NegotiationPeer::new("V", reg.clone());
            let mut holder = NegotiationPeer::new("H", reg.clone());
            // Pushed bundles with the sticky flag of their first receipt.
            let mut pushed: Vec<(SignedRule, bool)> = Vec::new();
            // Clones taken along the way, with the view they must keep.
            let mut snapshots = Vec::new();
            // Has `p` been frozen, and not grown since?
            let mut frozen = false;
            for _ in 0..150 {
                // Few distinct contents, so mints and receipts collide.
                let k = rng.gen_range(0..4);
                let ca = issuers[rng.gen_range(0..issuers.len())];
                let shape = rng.gen_range(0..4);
                let pick = rng.gen_range(0..pushed.len().max(1));
                let step = match rng.gen_range(0..9) {
                    0 | 1 => {
                        p.mint(signed_shape(shape, k, ca)).unwrap();
                        frozen = false;
                        "mint"
                    }
                    2 => {
                        p.add_rule(Rule::fact(Literal::new("plain", vec![Term::int(k.into())])));
                        frozen = false;
                        "add_rule"
                    }
                    3 | 4 => {
                        let id = holder.mint(signed_shape(shape, k, ca)).unwrap();
                        let signed = holder.signed_rule(id).unwrap().clone();
                        // From the issuer itself, the sender extension equals
                        // the issuer extension.
                        let from = if rng.gen_bool(0.5) {
                            PeerId::new(ca)
                        } else {
                            holder.id
                        };
                        let sticky = rng.gen_bool(0.5);
                        frozen &= !p.receive_signed_mode(&signed, from, sticky).unwrap().fresh;
                        pushed.push((signed, sticky));
                        "receive"
                    }
                    5 if !pushed.is_empty() => {
                        let (signed, sticky) = pushed[pick].clone();
                        let receipt = p.receive_signed_mode(&signed, holder.id, sticky).unwrap();
                        assert!(!receipt.fresh, "a re-push is a duplicate");
                        "duplicate"
                    }
                    6 if !pushed.is_empty() => {
                        // A context stripped on first receipt is kept now, or
                        // the other way round: new only for `$ ctx` rules.
                        let (signed, sticky) = pushed[pick].clone();
                        frozen &= !p
                            .receive_signed_mode(&signed, holder.id, !sticky)
                            .unwrap()
                            .fresh;
                        "sticky flip"
                    }
                    7 if !pushed.is_empty() => {
                        let mut bad = pushed[pick].0.clone();
                        bad.rule.head.args[0] = Term::str("Mallory");
                        assert!(p.receive_signed_mode(&bad, holder.id, false).is_err());
                        "tampered"
                    }
                    8 => {
                        p.freeze();
                        assert!(p.is_frozen());
                        frozen = true;
                        "freeze"
                    }
                    _ => {
                        let clone = p.clone();
                        if frozen {
                            assert!(clone.shares_frozen_bases_with(&p));
                            assert!(clone.signed_only_kb().shares_base_with(p.signed_only_kb()));
                        }
                        snapshots.push((entries(p.signed_only_kb()), p));
                        p = clone;
                        "clone"
                    }
                };
                assert_view_matches_rescan(&p, step);
            }
            for (view, snapshot) in &snapshots {
                assert_eq!(
                    entries(snapshot.signed_only_kb()),
                    *view,
                    "clones stay isolated"
                );
                assert_view_matches_rescan(snapshot, "later steps on a clone");
            }
        }
    }

    #[test]
    fn is_frozen_checks_the_certified_view() {
        let mut alice = NegotiationPeer::new("Alice", registry());
        alice
            .load_program(r#"student("Alice") @ "UIUC" signedBy ["UIUC"]."#)
            .unwrap();
        // Fold everything except the view.
        alice.kb.freeze();
        let overlay: Vec<_> = alice.signed_overlay.drain().collect();
        Arc::make_mut(&mut alice.signed_base).extend(overlay);
        assert!(!alice.is_frozen(), "the view still has an overlay");
        alice.freeze();
        assert!(alice.is_frozen());
    }
}
