//! The per-node protocol state machine for one computation step.
//!
//! [`ProtocolNode`] is *sans-IO*: it consumes decoded [`Message`]s and
//! pacing ticks, and emits [`Outbound`] triples — destination, message,
//! and the [`TraceContext`] that causally links the send to whatever
//! triggered it — [`crate::runtime::pump`] wires it to a
//! [`crate::tcp::TcpTransport`], the sharded executor to its event queues,
//! and tests can drive it entirely in-process. The gossip arithmetic itself lives in
//! `cs_gossip` (`HePushSumNode::split_push`/`absorb` and the plaintext
//! twins), so the simulators and this runtime execute the *same* protocol
//! code; how a contribution becomes ciphertexts and an aggregate becomes
//! values is `chiaroscuro::rounds::StepCipher`'s business, for the same
//! reason.
//!
//! Phases of one step (paper steps 2a–2d; the node's contribution arrives
//! with its noise share already folded in, so there is no 2c to run):
//!
//! 1. **Gossip** — every pacing tick, split the local mass and push it to a
//!    uniformly-sampled live peer, until the push quota is exhausted (a
//!    real-crypto node at the step's denominator cap keeps its mass for
//!    that tick instead: `StepCipher::denominator_cap`);
//!    incoming pushes are absorbed in any phase (they keep mixing mass even
//!    after this node snapshots its own estimate — the ratio estimate is
//!    unaffected because value and weight travel together).
//! 2. **AwaitShares** (real crypto) — the decryption round (below).
//! 3. **Done** — keep serving committee duties (partial decryptions and
//!    releases for slower peers) until the host ends the step. Nothing is
//!    announced to peers: when the step is over is the host's to observe.
//!
//! ## The decryption round: the leader decrypts, everyone else adopts
//!
//! A partial decryption is the step's most expensive operation, so one
//! node decrypts: the **leader**, the lowest-id committee member alive in
//! a node's own view. Every node computes it from public inputs (the
//! committee) and its view, with no agreement round; a loss-free step
//! computes `C·t` partials (C ciphertexts, threshold t) and makes one
//! release, whatever the population.
//!
//! * **The leader** snapshots its gossip ciphertexts, folded to what the
//!   aggregate occupies (`StepCipher::fold`), asks exactly `threshold − 1`
//!   other live members for their partials, combines them with its own and
//!   keeps the estimate as the step's release: it answers every
//!   [`Message::ReleaseRequest`] with a [`Message::Release`], once the
//!   release is ready. **The leader asks before it decrypts**: its own
//!   partials are [`ProtocolNode::decrypt_own_share`], which the driver's
//!   share timer runs once the request is on its way.
//! * **The other members** serve the leader's `DecryptRequest` in any
//!   phase, take no snapshot and fold or combine nothing: each asks the
//!   leader for its release, adopts it, and from then on answers its own
//!   release requests with it.
//! * **Everyone else** asks one member for its release, taken from the
//!   live committee **rotated by its id** — no RNG draw (the peer-sampling
//!   stream, and every estimate bit, is untouched), so the replies spread
//!   over the committee — and adopts the first well-formed release from a
//!   member it asked. A member that is not the leader answers once it has
//!   adopted the leader's.
//!
//! Threshold combining is exact over any `t`-subset, so the leader's
//! estimate does not depend on who answers. The rest of the live committee
//! is the **hedge**; the leader and the non-members keep the whole rotated
//! list and widen in two cases:
//!
//! * the driver's retry timer ([`ProtocolNode::retry_decrypt`]) fires: the
//!   request goes to *every* live member that has not answered — the ones
//!   already asked (their request or reply may have been lost; they answer
//!   from their reply cache) and the ones not asked yet. A member that
//!   died silently, or a lost frame, therefore costs one retry interval —
//!   ≥ 150 ms of wall-clock on the TCP and `cs_node` substrates,
//!   virtual time on the sharded executor — not the decrypt deadline;
//! * a `Leave` for a member that was asked and has not answered arrives
//!   during the round: the next member in the rotation is asked at once.
//!
//! A member that waits on the leader fails over without a config switch:
//! a `Leave` for the leader makes it ask the next leader in its view — or
//! lead, if that is itself — and a retry timer that fires **twice** with no
//! release makes it lead itself. The first retry only re-asks the leader,
//! so one lost frame never starts a second decryption; a member that leads
//! after the leader went quiet asks the quiet leader last.
//!
//! Decrypt-class traffic above what the round completes on is therefore a
//! hedge or a failover that fired, never background noise. When no member
//! can release, no node could have assembled `threshold` shares either.

use crate::transport::NodeId;
use crate::wire::Message;
use chiaroscuro::cost::DecryptionOps;
use chiaroscuro::noise::SlotLayout;
use chiaroscuro::rounds::{assemble_aggregates, PerturbedAggregates, StepCipher};
use cs_bigint::BigUint;
use cs_crypto::threshold::{delta_for, CombinePlanCache};
use cs_crypto::{Ciphertext, KeyShare, PartialDecryption, ThresholdParams};
use cs_gossip::homomorphic_pushsum::{HePush, HePushSumNode, HomomorphicOpCounts};
use cs_gossip::pushsum::{PlainPush, PushSumNode};
use cs_obs::health::DecryptAudit;
use cs_obs::phase::{PhaseProfile, StepPhase};
use cs_obs::{CausalTracer, TraceContext};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Mixed into [`NodeParams::seed`] to seed a node's crypto stream.
const CRYPTO_STREAM: u64 = 0xC0DE_C0DE_5EED_0001;

/// One outbound message with the trace context that causally links it to
/// whatever triggered it ([`TraceContext::NONE`] on untraced nodes).
pub type Outbound = (NodeId, Message, TraceContext);

/// Crypto substrate of one node. The real pipeline's key material sits
/// behind a pointer, so a plaintext node's slot does not carry its size.
pub enum NodeCrypto {
    /// Real Damgård-Jurik pipeline.
    Real(Box<RealCrypto>),
    /// Plaintext pipeline (simulated-crypto mode): same dataflow, cleartext
    /// slots, no decryption round.
    Plain,
}

/// A real-crypto node's step layout and key material ([`NodeCrypto::real`]).
pub struct RealCrypto {
    /// The step's ciphertext layout, public key included — the same for
    /// the whole population.
    cipher: StepCipher,
    /// This node's key share, if it sits on the decryption committee.
    share: Option<KeyShare>,
    /// Threshold parameters of the committee.
    params: ThresholdParams,
    /// `Δ = parties!` for share combination.
    delta: BigUint,
    /// Cached per-committee-subset combine plans, shared across the
    /// population and across steps.
    plans: Arc<CombinePlanCache>,
}

impl NodeCrypto {
    /// One node's real-crypto substrate, assembled from its key material.
    /// Every substrate builds its nodes' crypto here — the in-process
    /// runtimes from the dealer's output, a `csnoded` process from what
    /// its `Bootstrap` shipped — so what a node computes with cannot
    /// depend on what runs it.
    pub fn real(
        cipher: &StepCipher,
        share: Option<KeyShare>,
        params: ThresholdParams,
        plans: &Arc<CombinePlanCache>,
    ) -> Self {
        NodeCrypto::Real(Box::new(RealCrypto {
            cipher: cipher.clone(),
            share,
            params,
            delta: delta_for(params.parties),
            plans: plans.clone(),
        }))
    }

    fn as_real(&self) -> Option<&RealCrypto> {
        match self {
            NodeCrypto::Real(real) => Some(real),
            NodeCrypto::Plain => None,
        }
    }
}

/// Static parameters of one node for one computation step.
pub struct NodeParams {
    /// This node's identifier.
    pub id: NodeId,
    /// Population size.
    pub population: usize,
    /// Protocol iteration this step belongs to.
    pub iteration: u64,
    /// Number of pushes this node initiates (the per-participant exchange
    /// budget — the message-passing analogue of `gossip_cycles`).
    pub pushes: usize,
    /// Nodes holding key shares, in share order (node `committee[j]` holds
    /// share `j`).
    pub committee: Vec<NodeId>,
    /// Per-node RNG seed: peer sampling, and — on a stream of its own,
    /// forked from it — the node's encryption and re-randomization draws.
    pub seed: u64,
    /// Fault injection (tests and chaos drills only): corrupt every
    /// partial decryption this node produces — both the shares it serves
    /// to requesters and the ones it contributes to its own combine. A
    /// corrupted share combines into decode garbage, which is exactly the
    /// silent-corruption scenario the mass-conservation auditor exists to
    /// catch. Honest runs never set this.
    pub corrupt_partials: bool,
}

impl NodeParams {
    /// Node `id`'s parameters for the step keyed by `step_seed`, the same
    /// on every substrate: the step seed tags every frame (it is unique
    /// per step) and, mixed with the id, seeds the node's RNG — so which
    /// substrate runs a step never changes whom a node samples.
    pub fn for_step(
        id: NodeId,
        population: usize,
        step_seed: u64,
        pushes: usize,
        committee: Vec<NodeId>,
        fault: Option<FaultSpec>,
    ) -> Self {
        NodeParams {
            id,
            population,
            iteration: step_seed,
            pushes,
            committee,
            seed: step_seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            corrupt_partials: fault.is_some_and(|f| f.corrupts_partials(id)),
        }
    }
}

/// A scripted fault a substrate injects into one node — the chaos half of
/// the inject-and-detect drills the invariant auditor is tested with.
/// Carried by [`crate::runtime::NetConfig::fault`] and
/// [`crate::executor::ShardedConfig::fault`]; `None` (the default) is an
/// honest run. Serializable so the `cs_node` control plane can ship it in
/// a `Bootstrap`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum FaultSpec {
    /// `node` flips the low bit of every partial decryption it produces
    /// (see [`NodeParams::corrupt_partials`]). The combine still succeeds
    /// but decodes to garbage — silent corruption, detectable only by the
    /// mass-conservation audit.
    CorruptPartials {
        /// The faulty node.
        node: NodeId,
    },
}

impl FaultSpec {
    /// Whether this fault makes node `id` corrupt its partial decryptions.
    pub fn corrupts_partials(&self, id: NodeId) -> bool {
        matches!(self, FaultSpec::CorruptPartials { node } if *node == id)
    }
}

enum Aggregator {
    Encrypted(Box<HePushSumNode>),
    Plain(PushSumNode),
}

/// An incoming push, whichever wire variant carried it.
enum Inbound {
    /// Ciphertexts, with the bucket count the push declares.
    Ciphertexts(u32, HePush),
    Cleartext(PlainPush),
}

enum Phase {
    Gossip,
    AwaitShares,
    Done,
}

/// The request a node in `AwaitShares` has in flight: partial decryptions
/// on the leader, a release everywhere else. Kept once the round is over,
/// so a late answer can still be told from an unsolicited one.
struct PendingRequest {
    /// Whom the request goes to, in the order they are asked: the leader
    /// alone on a member that follows it, else the committee members alive
    /// when the round started (this node excluded), rotated by its id.
    recipients: Vec<NodeId>,
    /// `recipients[..asked]` have been sent the request; the rest are the
    /// hedge.
    asked: usize,
    /// Answers the round completes on: `threshold` shares (this node's
    /// own included) on the leader, one release elsewhere.
    need: usize,
    request: Message,
    /// Retry timers fired on this request: a member that follows the
    /// leader leads itself on the second.
    retries: u32,
}

/// What a node hands back to the driver when the step completes.
///
/// Serializable: in the multi-process deployment (`cs_node`) the report is
/// what a `csnoded` daemon ships back to its coordinator over the control
/// channel.
#[derive(Clone, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct NodeReport {
    /// This node's identifier.
    pub id: NodeId,
    /// The decrypted perturbed aggregates, if the node obtained them.
    pub estimate: Option<PerturbedAggregates>,
    /// Decryption-round audit evidence for the invariant audit: share
    /// provenance and committee-cardinality discipline (see
    /// [`cs_obs::health::AlertKind::ShareCount`]).
    pub decrypt_audit: DecryptAudit,
    /// The lane plan's carry headroom in bits on a real-crypto node — the
    /// watermark [`cs_obs::health::AlertKind::LaneHeadroom`] audits.
    pub lane_headroom_bits: Option<u64>,
    /// Homomorphic work this node performed.
    pub ops: HomomorphicOpCounts,
    /// Decryption work this node performed: the leader's own partials and
    /// combine, the partials a member served; none off the committee.
    pub decrypt_ops: DecryptionOps,
    /// Pushes this node actually initiated.
    pub pushes_sent: usize,
    /// Pacing ticks of the push quota on which this node sat at the step's
    /// denominator cap and kept its mass instead of pushing
    /// (`gossip.pushes_capped`). `pushes_sent + pushes_capped` is the quota
    /// unless the gossip was cut short.
    pub pushes_capped: u64,
    /// `true` if the gossip phase ended early because no live peer was
    /// reachable (the push quota went unmet).
    pub gossip_cut_short: bool,
    /// Connection failures toward peers this node saw during the step — a
    /// connect or write that failed, or a peer's connection that closed:
    /// the transport's own evidence of a peer that died, since a SIGKILLed
    /// process says nothing. Filled by `csnoded` from its transport's
    /// counters; 0 on the in-process hosts, whose churn the host scripts
    /// and therefore knows.
    pub peer_failures: u64,
    /// Frames that failed to decode (corrupt or mis-versioned) or whose
    /// payload did not fit this node's slot layout, key width or committee
    /// (a reply under another member's share index). Decode failures are
    /// raised by the substrates that put bytes on a wire (TCP loopback,
    /// cluster); the sharded executor moves messages and has none.
    pub bad_frames: u64,
    /// Wall-clock this node spent in each step phase. The node times its
    /// crypto itself — encrypt, partial decryptions, fold, combine, decode —
    /// and never reads a clock per message: `Gossip`, the message work, is
    /// booked by the host. [`crate::runtime::pump`] books it here once per
    /// turn; the sharded executor books it per shard into the step's
    /// outcome, so on that substrate a node's `Gossip` is 0. A pure side
    /// channel — nothing protocol-visible reads it, so it exists on every
    /// substrate (including the deterministic sharded executor) without
    /// perturbing behavior.
    pub profile: PhaseProfile,
}

impl NodeReport {
    /// The report of a node that never ran (down before the step started,
    /// or its process died without reporting): no estimate, no work done.
    pub fn dead(id: NodeId) -> Self {
        NodeReport {
            id,
            decrypt_audit: DecryptAudit {
                node: id as u64,
                ..DecryptAudit::default()
            },
            ..NodeReport::default()
        }
    }
}

/// The sans-IO per-node state machine.
pub struct ProtocolNode {
    params: NodeParams,
    layout: SlotLayout,
    crypto: NodeCrypto,
    agg: Aggregator,
    /// The plaintext pipeline's one spare push buffer: the `Vec` the last
    /// absorbed push arrived in, which the next split fills instead of
    /// allocating. Never read by the protocol.
    spare: Option<Vec<f64>>,
    /// Peer sampling. Nothing else draws from it, so whom a node gossips
    /// with does not depend on how many ciphertexts its lane plan gives it.
    rng: StdRng,
    /// The node's crypto draws: contribution encryption and the
    /// randomizers of its forwards.
    crypto_rng: StdRng,
    /// Population view as its sparse complement: ids currently believed
    /// dead. The dense `Vec<bool>` this replaces cost O(population) *per
    /// node* — quadratic memory across a sharded run, and the dominant
    /// wall-clock term past ~8k virtual nodes — while churn only ever
    /// touches a handful of ids per step.
    dead_view: BTreeSet<NodeId>,
    phase: Phase,
    pushes_sent: usize,
    // Decryption state (real mode). Shares are keyed by sender id in an
    // ordered map: only committee members ever answer, so this stays
    // O(committee) instead of O(population) per node — the difference
    // between 4k and 16k+ virtual nodes fitting in memory — while keeping
    // the combine order (ascending sender id) identical to the old
    // population-indexed vector.
    /// Push-sum state `(denominator exponent, weight)` of the snapshot.
    snapshot: (u32, f64),
    shares_by_sender: BTreeMap<NodeId, Vec<PartialDecryption>>,
    pending_request: Option<PendingRequest>,
    /// The leader this member last asked for its release: its release is
    /// adopted even after this member has led itself.
    followed: Option<NodeId>,
    served_replies: HashMap<NodeId, Message>,
    /// Peers whose `ReleaseRequest` reached this member before its release
    /// was ready: answered the moment it is.
    release_waiters: Vec<NodeId>,
    gossip_cut_short: bool,
    estimate: Option<PerturbedAggregates>,
    ops: HomomorphicOpCounts,
    decrypt_ops: DecryptionOps,
    bad_frames: u64,
    /// Share-provenance evidence accumulated for the invariant audit.
    audit: DecryptAudit,
    profile: PhaseProfile,
    tracer: Option<CausalTracer>,
}

impl ProtocolNode {
    /// Creates the node for one computation step.
    ///
    /// `contribution` is this node's cleartext contribution vector (one
    /// block of [`SlotLayout::total`] values the step's cipher
    /// [admits](StepCipher::admits), noise shares folded in — every host
    /// checks that before it gets here), or `None` for a node that is down at step start —
    /// it holds zero weight and contributes nothing, but still occupies a
    /// slot so it can recover mid-step, exactly like the cycle simulator's
    /// crashed nodes.
    pub fn new(
        params: NodeParams,
        layout: SlotLayout,
        crypto: NodeCrypto,
        contribution: Option<&[f64]>,
    ) -> Self {
        assert!(params.population >= 2, "need at least two nodes");
        assert!(params.id < params.population, "id outside population");
        assert!(
            contribution.is_none_or(|v| v.len() == layout.total()),
            "contribution length"
        );
        let rng = StdRng::seed_from_u64(params.seed);
        let mut crypto_rng = StdRng::seed_from_u64(params.seed ^ CRYPTO_STREAM);
        let mut ops = HomomorphicOpCounts::default();
        let mut profile = PhaseProfile::default();
        let encrypt_started = Instant::now();
        let agg = match &crypto {
            NodeCrypto::Real(real) => {
                let (he, encryptions) = real
                    .cipher
                    .node(contribution, &mut crypto_rng)
                    .expect("the host checked that the cipher admits the contribution");
                ops.encryptions += encryptions;
                Aggregator::Encrypted(Box::new(he))
            }
            NodeCrypto::Plain => Aggregator::Plain(match contribution {
                Some(values) => PushSumNode::new(values.to_vec(), 1.0),
                None => PushSumNode::new(vec![0.0; layout.total()], 0.0),
            }),
        };
        profile.add(
            StepPhase::Encrypt,
            encrypt_started.elapsed().as_nanos() as u64,
        );
        let node_id = params.id as u64;
        ProtocolNode {
            params,
            layout,
            crypto,
            agg,
            spare: None,
            rng,
            crypto_rng,
            dead_view: BTreeSet::new(),
            phase: Phase::Gossip,
            pushes_sent: 0,
            snapshot: (0, 0.0),
            shares_by_sender: BTreeMap::new(),
            pending_request: None,
            followed: None,
            served_replies: HashMap::new(),
            release_waiters: Vec::new(),
            gossip_cut_short: false,
            estimate: None,
            audit: DecryptAudit {
                node: node_id,
                ..DecryptAudit::default()
            },
            ops,
            decrypt_ops: DecryptionOps::default(),
            bad_frames: 0,
            profile,
            tracer: None,
        }
    }

    /// Attaches a causal tracer: every send gets a fresh span (stamped
    /// into the wire frame by the driver), every receive re-parents
    /// subsequent activity onto the inbound span, and the phase
    /// transitions leave `gossip.end` / `step.done` markers. Tracing is a
    /// pure side channel — no protocol-visible state reads it.
    pub fn with_tracer(mut self, tracer: CausalTracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.params.id
    }

    /// `true` once this node's part of the step is over (estimate obtained
    /// or given up) — it may still serve committee duties.
    pub fn step_done(&self) -> bool {
        matches!(self.phase, Phase::Done)
    }

    /// Records a frame that failed to decode.
    pub fn note_bad_frame(&mut self) {
        self.bad_frames += 1;
    }

    /// The spare push buffer, for a host that runs many nodes to even the
    /// spares out between them: an absorb leaves one here, a split takes it.
    pub fn spare_buffer(&mut self) -> &mut Option<Vec<f64>> {
        &mut self.spare
    }

    /// The node's phase clocks. The node times its crypto itself; the
    /// message work — splits, absorbs, decoding — is the host's to time and
    /// book as [`StepPhase::Gossip`] (see [`NodeReport::profile`]).
    pub(crate) fn profile_mut(&mut self) -> &mut PhaseProfile {
        &mut self.profile
    }

    /// One pacing tick: push during the gossip phase, transition to
    /// decryption when the quota is exhausted.
    pub fn tick(&mut self, out: &mut Vec<Outbound>) {
        if !matches!(self.phase, Phase::Gossip) {
            return;
        }
        // A tick is timer-driven, not caused by any inbound message.
        if let Some(t) = &mut self.tracer {
            t.local_root();
        }
        if self.quota_used() < self.params.pushes {
            match self.sample_peer() {
                Some(peer) => {
                    let msg =
                        match &mut self.agg {
                            // At the denominator cap the node keeps its mass:
                            // the tick is spent, nothing is sent. The peer was
                            // sampled all the same, so the schedule of every
                            // later push is the one an uncapped node would run.
                            Aggregator::Encrypted(he) => he
                                .try_split_push(&mut self.crypto_rng)
                                .map(|push| Message::PackedPush {
                                    iteration: self.params.iteration,
                                    denom_exp: push.denom_exp,
                                    weight: push.weight,
                                    buckets: self.layout.total() as u32,
                                    slots: push.slots,
                                }),
                            Aggregator::Plain(ps) => {
                                let buf = self.spare.take().unwrap_or_default();
                                let PlainPush { values, weight } = ps.split_push_into(buf);
                                Some(Message::PlainPush {
                                    iteration: self.params.iteration,
                                    weight,
                                    slots: values,
                                })
                            }
                        };
                    if let Some(msg) = msg {
                        self.emit(peer, msg, out);
                        self.pushes_sent += 1;
                    }
                }
                None => {
                    // Nobody left to gossip with: the remaining quota is
                    // unmeetable, so the node's own mass *is* its estimate —
                    // finish the step instead of stalling to the deadline.
                    // (`pushes_sent` stays honest; the flag records why the
                    // quota went unmet.)
                    self.gossip_cut_short = true;
                }
            }
        }
        if self.quota_used() >= self.params.pushes || self.gossip_cut_short {
            self.start_decrypt(out);
        }
    }

    /// Ticks of the push quota spent: pushes sent plus pushes skipped at
    /// the denominator cap.
    fn quota_used(&self) -> usize {
        self.pushes_sent + self.pushes_capped() as usize
    }

    fn pushes_capped(&self) -> u64 {
        match &self.agg {
            Aggregator::Encrypted(he) => he.pushes_capped(),
            Aggregator::Plain(_) => 0,
        }
    }

    /// Gives up on the decryption round (the runtime's bounded-wait escape
    /// hatch for a committee that silently died): finishes with no estimate.
    pub fn abandon_decrypt(&mut self) {
        if matches!(self.phase, Phase::AwaitShares) {
            self.finish(None);
        }
    }

    /// Resilience nudge for the decryption round, and its hedge: sends the
    /// pending request — a `DecryptRequest` on the leader, a
    /// `ReleaseRequest` elsewhere — to every live committee member that has
    /// not answered: the ones already asked (their request or reply may
    /// have been lost) and the ones held back so far (an asked member may
    /// be dead without this node knowing). A member that follows the leader
    /// re-asks the leader on the first retry and leads itself on the
    /// second. Idempotent otherwise — members answer a repeated request
    /// from their reply cache or their release, and duplicate answers are
    /// ignored by [`Self::handle`]. The runtime calls this at a coarse
    /// interval while the node awaits shares.
    pub fn retry_decrypt(&mut self, out: &mut Vec<Outbound>) {
        if !matches!(self.phase, Phase::AwaitShares) {
            return;
        }
        // Retries are timer-driven, like ticks.
        if let Some(t) = &mut self.tracer {
            t.local_root();
        }
        let follows = self.following().is_some();
        let Some(mut pending) = self.pending_request.take() else {
            return;
        };
        pending.retries += 1;
        if follows && pending.retries >= 2 {
            return self.lead(out);
        }
        for &m in &pending.recipients {
            if !self.shares_by_sender.contains_key(&m) && self.peer_alive(m) {
                self.emit(m, pending.request.clone(), out);
            }
        }
        pending.asked = pending.recipients.len();
        self.pending_request = Some(pending);
    }

    /// `true` while the node is waiting for partial decryptions or a
    /// release.
    pub fn awaiting_shares(&self) -> bool {
        matches!(self.phase, Phase::AwaitShares)
    }

    /// `true` while this node leads a round without its own partials.
    pub(crate) fn owes_share(&self) -> bool {
        self.leads() && !self.shares_by_sender.contains_key(&self.params.id)
    }

    /// The leader's own partials of the request it sent, accepted like a
    /// member's reply. No-op unless it still owes them. Timer-driven, like
    /// a tick.
    pub fn decrypt_own_share(&mut self, out: &mut Vec<Outbound>) {
        if !self.owes_share() {
            return;
        }
        if let Some(t) = &mut self.tracer {
            t.local_root();
        }
        let pending = self.pending_request.take().expect("a leader asked");
        let Message::DecryptRequest { width, slots, .. } = &pending.request else {
            unreachable!("a leader asks for partials");
        };
        let (width, own) = (*width, self.partials_of(slots));
        self.pending_request = Some(pending);
        let (member, partials) = own.expect("a leader holds a share");
        self.accept_share(self.params.id, member, width, partials);
        self.answer_release_waiters(out);
    }

    /// Handles one decoded incoming message. `ctx` is the trace context
    /// carried by the frame ([`TraceContext::NONE`] when absent): until
    /// the next receive or tick, everything this node emits is causally
    /// parented on it.
    pub fn handle(
        &mut self,
        from: NodeId,
        msg: Message,
        ctx: TraceContext,
        out: &mut Vec<Outbound>,
    ) {
        if let Some(t) = &mut self.tracer {
            t.on_recv(from as u64, ctx, msg.wire_tag() as u64);
        }
        match msg {
            Message::PackedPush {
                iteration,
                denom_exp,
                weight,
                buckets,
                slots,
            } => {
                let push = HePush {
                    slots,
                    denom_exp,
                    weight,
                };
                self.absorb(iteration, Inbound::Ciphertexts(buckets, push));
            }
            Message::PlainPush {
                iteration,
                weight,
                slots,
            } => {
                let push = PlainPush {
                    values: slots,
                    weight,
                };
                self.absorb(iteration, Inbound::Cleartext(push));
            }
            Message::DecryptRequest {
                iteration,
                width,
                slots,
            } => {
                if iteration != self.params.iteration {
                    return;
                }
                if let Some(RealCrypto {
                    cipher,
                    share: Some(_),
                    ..
                }) = self.crypto.as_real()
                {
                    // A partial decryption is the step's most expensive
                    // operation, and an honest request asks for one per
                    // ciphertext of the step's layout, folded or not, at the
                    // key's width: anything else is refused before one is
                    // computed.
                    if !cipher.serves_width(slots.len()) || width != cipher.key_width() {
                        self.bad_frames += 1;
                        return;
                    }
                    // Each requester decrypts once per step, so a repeated
                    // request is a loss-recovery retry: re-send the cached
                    // reply instead of recomputing the (expensive) partials.
                    if let Some(reply) = self.served_replies.get(&from) {
                        let reply = reply.clone();
                        self.emit(from, reply, out);
                    } else if let Some((member, partials)) = self.partials_of(&slots) {
                        let reply = Message::DecryptShare {
                            iteration,
                            member,
                            width,
                            partials,
                        };
                        self.served_replies.insert(from, reply.clone());
                        self.emit(from, reply, out);
                    }
                }
            }
            Message::DecryptShare {
                iteration,
                member,
                width,
                partials,
            } => {
                if iteration != self.params.iteration {
                    return;
                }
                self.accept_share(from, member, width, partials);
                self.answer_release_waiters(out);
            }
            Message::ReleaseRequest { iteration } => {
                // Only a member releases; a request anywhere else is
                // ignored.
                if iteration != self.params.iteration || self.share_index().is_none() {
                    return;
                }
                if let Some(release) = self.release() {
                    self.emit(from, release, out);
                } else if !self.step_done() && !self.release_waiters.contains(&from) {
                    self.release_waiters.push(from);
                }
            }
            Message::Release {
                iteration,
                member,
                values,
            } => self.adopt_release(from, iteration, member, values, out),
            Message::Join { node, .. } => {
                if (node as usize) < self.params.population {
                    self.dead_view.remove(&(node as usize));
                }
            }
            Message::Leave { node } => {
                let node = node as usize;
                if node < self.params.population {
                    self.dead_view.insert(node);
                    if self.following() == Some(node) {
                        // The leader left: the next one in this member's
                        // view leads.
                        self.follow_or_lead(out);
                    } else {
                        // A departed member that was asked will never
                        // answer: widen to the next one now, not on the
                        // retry timer.
                        self.ask_committee(out);
                    }
                }
            }
        }
    }

    /// Re-entry after a crash: announce membership so peers resume sending.
    pub fn on_rejoin(&mut self, out: &mut Vec<Outbound>) {
        let msg = Message::Join {
            node: self.params.id as u64,
            iteration: self.params.iteration,
        };
        self.broadcast(msg, out);
    }

    /// Graceful departure: announce it so peers stop expecting this node.
    pub fn on_leave(&mut self, out: &mut Vec<Outbound>) {
        let msg = Message::Leave {
            node: self.params.id as u64,
        };
        self.broadcast(msg, out);
    }

    /// Consumes the node into its final report.
    pub fn into_report(self) -> NodeReport {
        let ops = match &self.agg {
            Aggregator::Encrypted(he) => {
                let mut o = self.ops;
                o.merge(&he.op_counts());
                o
            }
            Aggregator::Plain(_) => self.ops,
        };
        let pushes_capped = self.pushes_capped();
        let lane_headroom_bits = self.crypto.as_real().map(|r| r.cipher.lane_headroom_bits());
        NodeReport {
            id: self.params.id,
            estimate: self.estimate,
            decrypt_audit: self.audit,
            lane_headroom_bits,
            ops,
            decrypt_ops: self.decrypt_ops,
            pushes_sent: self.pushes_sent,
            pushes_capped,
            gossip_cut_short: self.gossip_cut_short,
            peer_failures: 0,
            bad_frames: self.bad_frames,
            profile: self.profile,
        }
    }

    // -- internals ----------------------------------------------------------

    /// This node's share index and its partial decryptions of `slots`,
    /// `None` off the committee: timed, counted, and — when the
    /// `corrupt_partials` fault is armed — each value's low bit flipped, so
    /// the combine proceeds and decodes to garbage instead of failing fast:
    /// the silent-corruption shape the auditor must catch.
    fn partials_of(&mut self, slots: &[Ciphertext]) -> Option<(u64, Vec<BigUint>)> {
        let Some(RealCrypto {
            share: Some(share), ..
        }) = self.crypto.as_real()
        else {
            return None;
        };
        let started = Instant::now();
        let partial = |c| share.partial_decrypt(c).value().clone();
        let partials: Vec<BigUint> = slots.iter().map(partial).collect();
        let elapsed = started.elapsed().as_nanos() as u64;
        self.profile.add(StepPhase::DecryptShare, elapsed);
        self.decrypt_ops.partial_decryptions += partials.len() as u64;
        if !self.params.corrupt_partials {
            return Some((share.index(), partials));
        }
        let one = BigUint::one();
        let corrupt = |v: BigUint| if v.is_odd() { v - &one } else { v + &one };
        Some((share.index(), partials.into_iter().map(corrupt).collect()))
    }

    /// This node's 1-based share index, `None` off the committee.
    fn share_index(&self) -> Option<u64> {
        let real = self.crypto.as_real()?;
        real.share.as_ref().map(KeyShare::index)
    }

    /// The release this member answers `ReleaseRequest`s with: its estimate,
    /// decrypted or adopted, slot by slot, under its own share index. `None`
    /// off the committee, or before (or without) an estimate.
    fn release(&self) -> Option<Message> {
        let member = self.share_index()?;
        let est = self.estimate.as_ref()?;
        let clusters = est.sums.iter().zip(&est.counts);
        let values = clusters.flat_map(|(sums, count)| sums.iter().chain([count]));
        Some(Message::Release {
            iteration: self.params.iteration,
            member,
            values: values.copied().collect(),
        })
    }

    /// Sends the release to every peer that asked for it before it was
    /// ready — once there is one.
    fn answer_release_waiters(&mut self, out: &mut Vec<Outbound>) {
        if self.release_waiters.is_empty() {
            return;
        }
        let Some(release) = self.release() else {
            return;
        };
        for peer in std::mem::take(&mut self.release_waiters) {
            self.emit(peer, release.clone(), out);
        }
    }

    /// Adopts a member's release as this node's estimate — the first
    /// well-formed one from a member this node asked, while it awaits one —
    /// and, on a member, answers the release requests waiting for it.
    /// A release from outside the committee (audit evidence, like a foreign
    /// share), from a member this node did not ask, for another iteration
    /// or of another length than the layout's is one counted bad frame.
    fn adopt_release(
        &mut self,
        from: NodeId,
        iteration: u64,
        member: u64,
        values: Vec<f64>,
        out: &mut Vec<Outbound>,
    ) {
        let index = self.params.committee.iter().position(|&c| c == from);
        if index.is_none() {
            self.audit.foreign_shares += 1;
        }
        let asked = self.followed == Some(from)
            || self.pending_request.as_ref().is_some_and(|p| {
                matches!(p.request, Message::ReleaseRequest { .. })
                    && p.recipients[..p.asked].contains(&from)
            });
        if !asked
            || iteration != self.params.iteration
            || values.len() != self.layout.total()
            || index.map(|j| j as u64 + 1) != Some(member)
        {
            self.bad_frames += 1;
            return;
        }
        if matches!(self.phase, Phase::AwaitShares) {
            let est = assemble_aggregates(&self.layout, |slot| values[slot]);
            self.finish(Some(est));
            self.answer_release_waiters(out);
        }
    }

    /// Whether this node currently believes `i` is alive.
    fn peer_alive(&self, i: NodeId) -> bool {
        !self.dead_view.contains(&i)
    }

    fn sample_peer(&mut self) -> Option<NodeId> {
        // Rejection sampling first — O(1) per push in the common case of a
        // mostly-live population — falling back to a scan when the view is
        // sparse (or empty).
        let n = self.params.population;
        for _ in 0..16 {
            let i = self.rng.gen_range(0..n);
            if i != self.params.id && self.peer_alive(i) {
                return Some(i);
            }
        }
        let candidates: Vec<NodeId> = (0..n)
            .filter(|&i| i != self.params.id && self.peer_alive(i))
            .collect();
        if candidates.is_empty() {
            return None;
        }
        Some(candidates[self.rng.gen_range(0..candidates.len())])
    }

    /// Queues one outbound message, allocating a send span when tracing.
    fn emit(&mut self, to: NodeId, msg: Message, out: &mut Vec<Outbound>) {
        let ctx = match &mut self.tracer {
            Some(t) => t.on_send(to as u64, msg.wire_tag() as u64),
            None => TraceContext::NONE,
        };
        out.push((to, msg, ctx));
    }

    fn broadcast(&mut self, msg: Message, out: &mut Vec<Outbound>) {
        for peer in 0..self.params.population {
            if peer != self.params.id && self.peer_alive(peer) {
                self.emit(peer, msg.clone(), out);
            }
        }
    }

    fn start_decrypt(&mut self, out: &mut Vec<Outbound>) {
        // The gossip phase is over whichever branch runs next — the marker
        // is what `cstrace` segments the gossip/decrypt split on.
        if let Some(t) = &mut self.tracer {
            t.mark("gossip.end", &[("pushes", self.pushes_sent as u64)]);
        }
        match &self.agg {
            Aggregator::Plain(ps) => {
                let est = ps
                    .estimate()
                    .map(|est| assemble_aggregates(&self.layout, |slot| est[slot]));
                return self.finish(est);
            }
            Aggregator::Encrypted(he) if he.weight() > f64::MIN_POSITIVE => {}
            Aggregator::Encrypted(_) => return self.finish(None),
        }
        self.phase = Phase::AwaitShares;
        if self.share_index().is_some() {
            self.follow_or_lead(out);
        } else {
            let recipients = self.rotated_committee(None);
            self.await_release(recipients, out);
        }
    }

    /// The step's leader in this node's view: the lowest-id committee member
    /// it believes alive, itself included.
    fn leader(&self) -> Option<NodeId> {
        let committee = self.params.committee.iter().copied();
        committee.filter(|&m| self.peer_alive(m)).min()
    }

    /// `true` while this node awaits partials for its own request.
    fn leads(&self) -> bool {
        matches!(self.phase, Phase::AwaitShares)
            && (self.pending_request.as_ref())
                .is_some_and(|p| matches!(p.request, Message::DecryptRequest { .. }))
    }

    /// The leader a member waits on for its release, while it does.
    fn following(&self) -> Option<NodeId> {
        self.share_index()?;
        let pending = self.pending_request.as_ref()?;
        let waits = matches!(self.phase, Phase::AwaitShares)
            && matches!(pending.request, Message::ReleaseRequest { .. });
        waits.then(|| pending.recipients[0])
    }

    /// A member's round: it leads if it is the leader in its own view, and
    /// otherwise asks the leader for its release.
    fn follow_or_lead(&mut self, out: &mut Vec<Outbound>) {
        match self.leader() {
            Some(leader) if leader != self.params.id => {
                self.followed = Some(leader);
                self.await_release(vec![leader], out);
            }
            _ => self.lead(out),
        }
    }

    /// The live committee members other than this node, rotated by its id
    /// — no RNG draw — so the population's requests spread evenly over the
    /// committee; `last`, a leader that went quiet, is asked last.
    fn rotated_committee(&self, last: Option<NodeId>) -> Vec<NodeId> {
        let mut recipients: Vec<NodeId> = self
            .params
            .committee
            .iter()
            .copied()
            .filter(|&m| m != self.params.id && self.peer_alive(m))
            .collect();
        if !recipients.is_empty() {
            let start = self.params.id % recipients.len();
            recipients.rotate_left(start);
        }
        recipients.sort_by_key(|&m| Some(m) == last);
        recipients
    }

    /// Asks `recipients[0]` for its release, the rest held back as the
    /// hedge; no estimate if nobody is left to ask.
    fn await_release(&mut self, recipients: Vec<NodeId>, out: &mut Vec<Outbound>) {
        if recipients.is_empty() {
            return self.finish(None);
        }
        self.pending_request = Some(PendingRequest {
            recipients,
            asked: 0,
            need: 1,
            request: Message::ReleaseRequest {
                iteration: self.params.iteration,
            },
            retries: 0,
        });
        self.ask_committee(out);
    }

    /// The leader's round: snapshot the gossip ciphertexts — later absorbs
    /// keep mixing the gossip state but no longer affect this estimate —
    /// folded to what they occupy, and ask `threshold − 1` other live
    /// members for their partials; its own come later, without a network
    /// hop ([`Self::decrypt_own_share`]).
    fn lead(&mut self, out: &mut Vec<Outbound>) {
        let recipients = self.rotated_committee(self.followed);
        let (Aggregator::Encrypted(he), Some(RealCrypto { cipher, params, .. })) =
            (&self.agg, self.crypto.as_real())
        else {
            unreachable!("only a real-crypto member leads");
        };
        if recipients.len() + 1 < params.threshold {
            // Not enough live committee members: no estimate.
            return self.finish(None);
        }
        let (denom, weight) = (he.denominator_exp(), he.weight());
        self.snapshot = (denom, weight);
        let fold_started = Instant::now();
        let slots = cipher.fold(he.ciphertexts(), denom, weight, &mut self.ops);
        self.profile
            .add(StepPhase::Unpack, fold_started.elapsed().as_nanos() as u64);
        let (width, need) = (cipher.key_width(), params.threshold);
        self.pending_request = Some(PendingRequest {
            recipients,
            asked: 0,
            need,
            request: Message::DecryptRequest {
                iteration: self.params.iteration,
                width,
                slots,
            },
            retries: 0,
        });
        self.ask_committee(out);
    }

    /// Sends the pending request to further committee members, in rotation
    /// order, until the answers already held or owed by this node plus the
    /// live members asked and still to answer reach what the round
    /// completes on — exactly that, no more. The rest of the committee
    /// stays the hedge [`Self::retry_decrypt`] falls back on. No-op outside
    /// the round.
    fn ask_committee(&mut self, out: &mut Vec<Outbound>) {
        if !matches!(self.phase, Phase::AwaitShares) {
            return;
        }
        let owed = usize::from(self.owes_share());
        let Some(mut pending) = self.pending_request.take() else {
            return;
        };
        let mut expected = self.shares_by_sender.len()
            + owed
            + pending.recipients[..pending.asked]
                .iter()
                .filter(|&&m| self.peer_alive(m) && !self.shares_by_sender.contains_key(&m))
                .count();
        while expected < pending.need && pending.asked < pending.recipients.len() {
            let m = pending.recipients[pending.asked];
            pending.asked += 1;
            if self.peer_alive(m) {
                self.emit(m, pending.request.clone(), out);
                expected += 1;
            }
        }
        self.pending_request = Some(pending);
    }

    /// Folds an incoming push into the local mass — in any phase: pushes
    /// keep mixing after this node snapshots its own estimate. The one
    /// check every push variant goes through: a push in another dialect
    /// than this node's (cleartext into ciphertexts or the reverse), of
    /// another width or bucket count (the lane bias accounting would not
    /// survive it), with a ciphertext wider than the key, or with a
    /// denominator past the step's cap (the lanes would not hold the
    /// aggregate) is a bad frame, counted once and dropped.
    fn absorb(&mut self, iteration: u64, inbound: Inbound) {
        if iteration != self.params.iteration {
            return;
        }
        let buckets_here = self.layout.total() as u32;
        match (&mut self.agg, self.crypto.as_real(), inbound) {
            (
                Aggregator::Encrypted(he),
                Some(RealCrypto { cipher, .. }),
                Inbound::Ciphertexts(buckets, push),
            ) if buckets == buckets_here
                && push.slots.len() == he.dim()
                && push
                    .slots
                    .iter()
                    .all(|c| c.byte_len() <= cipher.key_width() as usize)
                && push.denom_exp <= he.denominator_cap() =>
            {
                he.absorb(&push);
            }
            (Aggregator::Plain(ps), _, Inbound::Cleartext(push))
                if push.values.len() == ps.dim() =>
            {
                ps.absorb(&push);
                self.spare = Some(push.values);
            }
            _ => self.bad_frames += 1,
        }
    }

    fn accept_share(&mut self, from: NodeId, member: u64, width: u16, partials: Vec<BigUint>) {
        // Audit evidence first: a share from outside the committee is an
        // invariant violation whenever it arrives, even if the phase or
        // dedup checks would discard it below. Detection only — behavior
        // toward the sender is unchanged.
        if !self.params.committee.contains(&from) {
            self.audit.foreign_shares += 1;
        }
        if !matches!(self.phase, Phase::AwaitShares) {
            return;
        }
        // Only the leader combines: shares are no answer to a release
        // request.
        let leads = self.leads();
        let Some(RealCrypto {
            cipher,
            params,
            delta,
            plans,
            ..
        }) = self.crypto.as_real().filter(|_| leads)
        else {
            self.bad_frames += 1;
            return;
        };
        // One partial per ciphertext of the folded snapshot, at the key's
        // width, under the share index the committee gives the sender — or
        // the frame is not an answer to this node's request.
        let (denom, weight) = self.snapshot;
        let count = cipher.width(denom, weight);
        // Node `committee[j]` holds share `j + 1`.
        let index = self.params.committee.iter().position(|&c| c == from);
        if partials.len() != count
            || width != cipher.key_width()
            || index.map(|j| j as u64 + 1) != Some(member)
        {
            self.bad_frames += 1;
            return;
        }
        if self.shares_by_sender.contains_key(&from) {
            return;
        }
        let partials = partials.into_iter();
        let partials = partials.map(|v| PartialDecryption::from_parts(member, v));
        self.shares_by_sender.insert(from, partials.collect());
        if self.shares_by_sender.len() > self.params.committee.len() {
            self.audit.oversized_rounds += 1;
        }
        if self.shares_by_sender.len() < params.threshold {
            return;
        }
        // Combine the first `threshold` responders' partials (in ascending
        // sender-id order). All ciphertexts share the same committee subset,
        // so one cached `CombinePlan` serves the whole batch and the Lagrange
        // denominators are inverted together (Montgomery's trick).
        let contributors: Vec<&Vec<PartialDecryption>> = self
            .shares_by_sender
            .values()
            .take(params.threshold)
            .collect();
        self.audit.combines += 1;
        if contributors.len() < params.threshold {
            self.audit.undersized_combines += 1;
        }
        let combine_started = Instant::now();
        let groups: Vec<Vec<PartialDecryption>> = (0..count)
            .map(|j| contributors.iter().map(|c| c[j].clone()).collect())
            .collect();
        let raws = plans
            .combine_batch(cipher.public_key(), *params, delta, &groups)
            .ok();
        let combine_ns = combine_started.elapsed().as_nanos() as u64;
        let combinations = raws.as_ref().map_or(0, |r| r.len() as u64);
        let decode_started = Instant::now();
        // A headroom violation surfaces as a failed step, not
        // silently-wrapped values.
        let est = raws.and_then(|raws| cipher.decode(&raws, denom, weight).ok());
        self.profile.add(StepPhase::Combine, combine_ns);
        self.profile.add(
            StepPhase::Unpack,
            decode_started.elapsed().as_nanos() as u64,
        );
        self.decrypt_ops.combinations += combinations;
        self.finish(est);
    }

    fn finish(&mut self, estimate: Option<PerturbedAggregates>) {
        if let Some(t) = &mut self.tracer {
            t.mark("step.done", &[("completed", u64::from(estimate.is_some()))]);
        }
        self.estimate = estimate;
        self.phase = Phase::Done;
    }
}
