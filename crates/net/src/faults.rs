//! Deterministic fault injection for the transport lanes.
//!
//! The paper's negotiations assume peers and links that never fail; its §6
//! outlook asks for guarantees that negotiations "always terminate and
//! succeed when possible", which a real peer network can only honor if
//! message loss, delay, duplication, corruption, and peer crashes are
//! first-class. This module provides the *fault model*: a seeded,
//! splitmix64-driven [`FaultPlan`] describing per-link drop / duplicate /
//! delay / reorder / corruption probabilities plus scheduled peer crash
//! windows, and a [`FaultLane`] that applies the plan to messages as they
//! cross [`crate::sim::SimNetwork`].
//!
//! Determinism contract: every decision is a pure function of
//! `(plan, seed, decision index)` — the lane draws from its own
//! [`SplitMix64`] stream, never from the network's latency RNG, so
//! attaching a lane with [`FaultPlan::none`] leaves the wrapped transport
//! byte-identical to the unwrapped path (tested here and in
//! `tests/prop_faults.rs`). Probabilities are expressed in parts per
//! million (integers), so there is no float nondeterminism anywhere.
//!
//! Corruption encodes the message with the wire codec, flips one byte and
//! re-decodes the mutated frame. Frames carry no checksum, so the codec
//! does not catch every flip: most fail to decode with a typed
//! [`crate::codec::DecodeError`], but a flipped name of an optional field
//! whose value is `null` decodes back to an equal message (the decoder
//! ignores unknown fields and reads a missing optional field as `None`).
//! The lane drops a corrupted message either way and counts the flips the
//! codec missed in [`FaultStats::undetected_corruptions`]. Detecting
//! altered frames is left to a hostile-peer lane, which does not exist
//! yet.

use crate::codec::{decode_frame, encode_frame};
use crate::message::Message;
use crate::sim::Tick;
use bytes::BytesMut;
use peertrust_core::PeerId;

/// The splitmix64 generator (Steele et al.): a tiny, seedable,
/// full-period stream used for every fault decision. One `u64` per draw.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// True with probability `ppm / 1_000_000`.
    pub fn chance(&mut self, ppm: u32) -> bool {
        self.next_u64() % 1_000_000 < u64::from(ppm)
    }

    /// Uniform draw in `[lo, hi]` (inclusive).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Convert a probability in `[0, 1]` to parts per million.
pub fn ppm(rate: f64) -> u32 {
    (rate.clamp(0.0, 1.0) * 1_000_000.0).round() as u32
}

/// Per-link fault probabilities (parts per million) and magnitudes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinkFaults {
    /// Probability the message is silently lost.
    pub drop_ppm: u32,
    /// Probability an extra copy (same message id) is delivered later.
    pub dup_ppm: u32,
    /// Probability of an extra delivery delay.
    pub delay_ppm: u32,
    /// Maximum extra delay in ticks when a delay fires (at least 1).
    pub max_extra_delay: Tick,
    /// Probability of a small jitter that can invert delivery order
    /// relative to messages sent just after this one.
    pub reorder_ppm: u32,
    /// Probability the payload is corrupted in flight (codec round-trip
    /// with one byte flipped; the message is dropped).
    pub corrupt_ppm: u32,
}

impl LinkFaults {
    pub const NONE: LinkFaults = LinkFaults {
        drop_ppm: 0,
        dup_ppm: 0,
        delay_ppm: 0,
        max_extra_delay: 0,
        reorder_ppm: 0,
        corrupt_ppm: 0,
    };

    pub fn is_none(&self) -> bool {
        self.drop_ppm == 0
            && self.dup_ppm == 0
            && self.delay_ppm == 0
            && self.reorder_ppm == 0
            && self.corrupt_ppm == 0
    }

    /// A drop-only profile at the given rate.
    pub fn drops(rate: f64) -> LinkFaults {
        LinkFaults {
            drop_ppm: ppm(rate),
            ..LinkFaults::NONE
        }
    }

    /// A lossy-WAN-style profile: drops plus duplicates, delays and
    /// occasional corruption, all scaled from the drop rate.
    pub fn lossy(drop_rate: f64) -> LinkFaults {
        LinkFaults {
            drop_ppm: ppm(drop_rate),
            dup_ppm: ppm(drop_rate / 4.0),
            delay_ppm: ppm(drop_rate / 2.0),
            max_extra_delay: 8,
            reorder_ppm: ppm(drop_rate / 4.0),
            corrupt_ppm: ppm(drop_rate / 8.0),
        }
    }
}

/// A scheduled peer outage: the peer is down for ticks in
/// `[from, until)` — messages due for delivery to it in that window are
/// lost, and on restart it has lost all session state (the resilience
/// layer rebuilds it from the disclosure log; see
/// `peertrust-negotiation::resilience`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashWindow {
    pub peer: PeerId,
    pub from: Tick,
    pub until: Tick,
}

/// A complete, seeded fault schedule for one run.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed of the lane's splitmix64 decision stream.
    pub seed: u64,
    /// Faults applied to links without an explicit override.
    pub default_link: LinkFaults,
    /// Per-link overrides, first match wins (a `Vec`, not a map, so the
    /// plan itself is deterministic to iterate and cheap to clone).
    pub links: Vec<((PeerId, PeerId), LinkFaults)>,
    /// Scheduled peer outages.
    pub crashes: Vec<CrashWindow>,
}

impl FaultPlan {
    /// The identity plan: a lane driven by it is byte-identical to the
    /// unwrapped transport (no RNG draws, no counters, no telemetry).
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            default_link: LinkFaults::NONE,
            links: Vec::new(),
            crashes: Vec::new(),
        }
    }

    /// The same faults on every link.
    pub fn uniform(seed: u64, link: LinkFaults) -> FaultPlan {
        FaultPlan {
            seed,
            default_link: link,
            links: Vec::new(),
            crashes: Vec::new(),
        }
    }

    pub fn with_link(mut self, from: PeerId, to: PeerId, faults: LinkFaults) -> FaultPlan {
        self.links.push(((from, to), faults));
        self
    }

    pub fn with_crash(mut self, peer: PeerId, from: Tick, until: Tick) -> FaultPlan {
        assert!(from < until, "empty crash window");
        self.crashes.push(CrashWindow { peer, from, until });
        self
    }

    /// Does this plan inject nothing at all?
    pub fn is_none(&self) -> bool {
        self.default_link.is_none()
            && self.links.iter().all(|(_, f)| f.is_none())
            && self.crashes.is_empty()
    }

    /// Faults for the `from -> to` link.
    pub fn link(&self, from: PeerId, to: PeerId) -> &LinkFaults {
        self.links
            .iter()
            .find(|((f, t), _)| *f == from && *t == to)
            .map(|(_, l)| l)
            .unwrap_or(&self.default_link)
    }

    /// Is `peer` down at `tick`?
    pub fn crashed_at(&self, peer: PeerId, tick: Tick) -> bool {
        self.crashes
            .iter()
            .any(|w| w.peer == peer && w.from <= tick && tick < w.until)
    }

    /// The same schedule with a per-job decision stream, derived from
    /// `(self.seed, job_index)` with the same splitmix64-style mix the
    /// batch scheduler uses for network seeds — identical across runs and
    /// worker assignments.
    pub fn for_job(&self, job_index: usize) -> FaultPlan {
        let mut mix = SplitMix64::new(
            self.seed
                .wrapping_add((job_index as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9)),
        );
        FaultPlan {
            seed: mix.next_u64(),
            ..self.clone()
        }
    }
}

/// What the lane did to one message, by kind. All counters but
/// `undetected_corruptions` also surface as `net.fault.*` telemetry and in
/// `NetStats`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    pub injected_drops: u64,
    pub duplicates: u64,
    pub delays: u64,
    pub reorders: u64,
    pub corruptions: u64,
    /// Corruptions whose mutated frame still decoded to an equal message.
    /// A sub-count of `corruptions`, so [`FaultStats::total`] leaves it
    /// out.
    pub undetected_corruptions: u64,
    pub crash_drops: u64,
}

impl FaultStats {
    pub fn total(&self) -> u64 {
        self.injected_drops
            + self.duplicates
            + self.delays
            + self.reorders
            + self.corruptions
            + self.crash_drops
    }

    pub fn absorb(&mut self, other: &FaultStats) {
        self.injected_drops += other.injected_drops;
        self.duplicates += other.duplicates;
        self.delays += other.delays;
        self.reorders += other.reorders;
        self.corruptions += other.corruptions;
        self.undetected_corruptions += other.undetected_corruptions;
        self.crash_drops += other.crash_drops;
    }
}

/// Why a message was lost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Plain injected loss.
    Drop,
    /// Payload corrupted in flight (one byte of its frame flipped).
    Corrupt,
    /// Recipient was crashed at the delivery instant.
    Crash,
}

impl FaultKind {
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Crash => "crash",
        }
    }
}

/// Where a sent message ended up. Tracked by the simulated network when a
/// fault lane is attached (the resilience layer polls this to decide
/// whether to retry).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MessageFate {
    InFlight,
    Delivered,
    Dropped(FaultKind),
}

/// The lane's verdict for one message.
#[derive(Clone, Debug)]
pub struct LaneVerdict {
    /// Possibly shifted delivery tick (delay / reorder jitter applied).
    pub deliver_at: Tick,
    /// `Some` if the message must be discarded instead of enqueued.
    pub dropped: Option<FaultKind>,
    /// `Some(t)`: enqueue an extra copy (same id) for delivery at `t`.
    pub duplicate_at: Option<Tick>,
    pub delayed: bool,
    pub reordered: bool,
}

/// A seeded fault-decision engine: the wrapper lane both transports share.
#[derive(Clone, Debug)]
pub struct FaultLane {
    plan: FaultPlan,
    rng: SplitMix64,
    stats: FaultStats,
}

impl FaultLane {
    pub fn new(plan: FaultPlan) -> FaultLane {
        let rng = SplitMix64::new(plan.seed);
        FaultLane {
            plan,
            rng,
            stats: FaultStats::default(),
        }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Decide the fate of `msg`, scheduled for delivery at
    /// `base_deliver_at`. Decisions draw from the lane's own stream in a
    /// fixed order (corrupt, drop, delay, reorder, dup), so a plan and
    /// seed fully determine the whole run. With [`FaultPlan::none`] this
    /// is never called at all (the caller checks `plan.is_none()`), which
    /// is what makes the wrapped path byte-identical to the unwrapped one.
    pub fn apply(&mut self, msg: &Message, base_deliver_at: Tick) -> LaneVerdict {
        let link = self.plan.link(msg.from, msg.to).clone();
        let mut verdict = LaneVerdict {
            deliver_at: base_deliver_at,
            dropped: None,
            duplicate_at: None,
            delayed: false,
            reordered: false,
        };

        if link.corrupt_ppm > 0 && self.rng.chance(link.corrupt_ppm) {
            // Encode, flip one byte, try to decode. The message is lost
            // either way; a flip the unchecked frame did not reveal is
            // counted as undetected.
            if self.corrupt_roundtrip(msg) {
                self.stats.undetected_corruptions += 1;
            }
            self.stats.corruptions += 1;
            verdict.dropped = Some(FaultKind::Corrupt);
            return verdict;
        }
        if link.drop_ppm > 0 && self.rng.chance(link.drop_ppm) {
            self.stats.injected_drops += 1;
            verdict.dropped = Some(FaultKind::Drop);
            return verdict;
        }
        if link.delay_ppm > 0 && self.rng.chance(link.delay_ppm) {
            let extra = self.rng.range(1, link.max_extra_delay.max(1));
            verdict.deliver_at += extra;
            verdict.delayed = true;
            self.stats.delays += 1;
        }
        if link.reorder_ppm > 0 && self.rng.chance(link.reorder_ppm) {
            // A jitter of 1..=3 ticks is enough to land behind messages
            // sent after this one (the sim delivers strictly by tick).
            verdict.deliver_at += self.rng.range(1, 3);
            verdict.reordered = true;
            self.stats.reorders += 1;
        }
        if self.plan.crashed_at(msg.to, verdict.deliver_at) {
            self.stats.crash_drops += 1;
            verdict.dropped = Some(FaultKind::Crash);
            return verdict;
        }
        if link.dup_ppm > 0 && self.rng.chance(link.dup_ppm) {
            let at = verdict.deliver_at + self.rng.range(1, 3);
            // A copy due while the recipient is down is lost, not dup'd.
            if !self.plan.crashed_at(msg.to, at) {
                verdict.duplicate_at = Some(at);
                self.stats.duplicates += 1;
            }
        }
        verdict
    }

    /// Encode `msg`, flip one byte, and attempt to decode the mutated
    /// frame. Returns whether the mutated frame decoded back to a message
    /// equal to the original.
    fn corrupt_roundtrip(&mut self, msg: &Message) -> bool {
        let Ok(frame) = encode_frame(msg) else {
            return false;
        };
        let mut raw = frame.to_vec();
        let pos = (self.rng.next_u64() % raw.len() as u64) as usize;
        let flip = 1 + (self.rng.next_u64() % 255) as u8;
        raw[pos] ^= flip;
        let mut bytes = BytesMut::from(&raw[..]);
        match decode_frame(&mut bytes) {
            Ok(decoded) => decoded == *msg,
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{MessageId, NegotiationId, Payload, QueryId, TraceContext};
    use peertrust_core::{Literal, Rule, Term};
    use peertrust_crypto::SignedRule;

    fn p(n: &str) -> PeerId {
        PeerId::new(n)
    }

    fn msg(n: u64) -> Message {
        Message {
            id: MessageId(n),
            negotiation: NegotiationId(1),
            from: p("a"),
            to: p("b"),
            payload: Payload::Query {
                id: QueryId(n),
                goal: Literal::truth(),
            },
            hops: 0,
            trace: TraceContext::NONE,
        }
    }

    #[test]
    fn splitmix_is_deterministic_and_seed_sensitive() {
        let stream = |seed| {
            let mut r = SplitMix64::new(seed);
            (0..16).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(1);
        assert!((0..64).all(|_| !r.chance(0)));
        assert!((0..64).all(|_| r.chance(1_000_000)));
    }

    #[test]
    fn none_plan_is_none() {
        assert!(FaultPlan::none().is_none());
        assert!(!FaultPlan::uniform(1, LinkFaults::drops(0.1)).is_none());
        assert!(!FaultPlan::none().with_crash(p("a"), 0, 5).is_none());
    }

    #[test]
    fn lane_decisions_are_deterministic() {
        let run = |seed| {
            let mut lane = FaultLane::new(FaultPlan::uniform(seed, LinkFaults::lossy(0.3)));
            let verdicts: Vec<String> = (0..64)
                .map(|i| format!("{:?}", lane.apply(&msg(i), 5)))
                .collect();
            (verdicts, lane.stats().clone())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0);
    }

    #[test]
    fn drop_rate_is_roughly_honored() {
        let mut lane = FaultLane::new(FaultPlan::uniform(9, LinkFaults::drops(0.25)));
        let mut drops = 0;
        for i in 0..2000 {
            if lane.apply(&msg(i), 1).dropped.is_some() {
                drops += 1;
            }
        }
        assert_eq!(drops as u64, lane.stats().injected_drops);
        assert!((300..700).contains(&drops), "got {drops} drops at 25%");
    }

    #[test]
    fn crash_window_drops_deliveries_inside_it() {
        let plan = FaultPlan::none().with_crash(p("b"), 3, 7);
        assert!(plan.crashed_at(p("b"), 3));
        assert!(plan.crashed_at(p("b"), 6));
        assert!(!plan.crashed_at(p("b"), 7));
        assert!(!plan.crashed_at(p("a"), 5));
        let mut lane = FaultLane::new(plan);
        assert_eq!(lane.apply(&msg(1), 5).dropped, Some(FaultKind::Crash));
        assert_eq!(lane.apply(&msg(2), 9).dropped, None);
        assert_eq!(lane.stats().crash_drops, 1);
    }

    #[test]
    fn per_link_overrides_beat_default() {
        let plan = FaultPlan::uniform(1, LinkFaults::NONE).with_link(
            p("a"),
            p("b"),
            LinkFaults::drops(1.0),
        );
        let mut lane = FaultLane::new(plan);
        assert_eq!(lane.apply(&msg(1), 1).dropped, Some(FaultKind::Drop));
        let mut reverse = msg(2);
        reverse.from = p("b");
        reverse.to = p("a");
        assert_eq!(lane.apply(&reverse, 1).dropped, None);
    }

    #[test]
    fn corruption_that_decodes_to_an_equal_message_is_dropped_and_counted() {
        // The rule has no head context, so its frame carries
        // `"head_context":null`. Plan seed 5 (the first of 0..2000 that
        // does this) flips a byte of a `null` field's name; the decoder
        // ignores the unknown field and reads the missing one as `None`.
        let rule =
            Rule::fact(Literal::new("student", vec![Term::str("Alice")]).at(Term::str("UIUC")))
                .signed_by("UIUC");
        let push = Message {
            payload: Payload::CredentialPush {
                rules: vec![SignedRule {
                    rule,
                    signatures: vec![[42u8; 32]],
                }],
            },
            ..msg(1)
        };
        let mut lane = FaultLane::new(FaultPlan::uniform(
            5,
            LinkFaults {
                corrupt_ppm: 1_000_000,
                ..LinkFaults::NONE
            },
        ));
        assert_eq!(lane.apply(&push, 1).dropped, Some(FaultKind::Corrupt));
        let stats = lane.stats();
        assert_eq!(stats.corruptions, 1);
        assert_eq!(stats.undetected_corruptions, 1);
        assert_eq!(stats.total(), 1, "a sub-count, not a second fault");
        let mut sum = FaultStats::default();
        sum.absorb(stats);
        sum.absorb(stats);
        assert_eq!(sum.undetected_corruptions, 2);
    }

    #[test]
    fn every_corrupted_message_is_dropped_and_counted() {
        let mut lane = FaultLane::new(FaultPlan::uniform(
            5,
            LinkFaults {
                corrupt_ppm: 1_000_000,
                ..LinkFaults::NONE
            },
        ));
        for i in 0..200 {
            let v = lane.apply(&msg(i), 1);
            assert_eq!(v.dropped, Some(FaultKind::Corrupt));
        }
        assert_eq!(lane.stats().corruptions, 200);
    }

    #[test]
    fn duplicates_are_scheduled_after_the_original() {
        let mut lane = FaultLane::new(FaultPlan::uniform(
            3,
            LinkFaults {
                dup_ppm: 1_000_000,
                ..LinkFaults::NONE
            },
        ));
        let v = lane.apply(&msg(1), 10);
        let dup_at = v.duplicate_at.expect("dup fires at 100%");
        assert!(dup_at > v.deliver_at);
        assert_eq!(lane.stats().duplicates, 1);
    }

    #[test]
    fn for_job_reseeds_deterministically() {
        let plan = FaultPlan::uniform(11, LinkFaults::lossy(0.2));
        assert_eq!(plan.for_job(3).seed, plan.for_job(3).seed);
        assert_ne!(plan.for_job(0).seed, plan.for_job(1).seed);
        assert_eq!(plan.for_job(2).default_link, plan.default_link);
    }

    #[test]
    fn ppm_conversion() {
        assert_eq!(ppm(0.0), 0);
        assert_eq!(ppm(0.2), 200_000);
        assert_eq!(ppm(1.5), 1_000_000);
    }
}
