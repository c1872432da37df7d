//! Invariant auditing and health: structured alerts, the protocol's four
//! conservation checks behind one [`audit`] call, and the degraded/healthy
//! state served at `/health`.
//!
//! The protocol has hard invariants — push-sum conserves mass, transports
//! conserve frames, a threshold decryption uses exactly the committee's
//! shares, packed lanes keep carry headroom — yet a violation today
//! corrupts centroids *silently*. This module is the detection half of
//! catch-the-cheater (ROADMAP item 3): substrates distill the step's
//! evidence into a [`StepEvidence`], [`audit`] checks it against two
//! thresholds ([`MASS_ENVELOPE`], [`LANE_MIN_BITS`]), and every violation
//! mints a structured [`Alert`] three ways at once:
//!
//! 1. an `obs.alert.<kind>` counter in the [`Registry`] (scrapes, deltas,
//!    and `/metrics` all see it);
//! 2. an `alert.<kind>` event in the flight-recorder ring (crash dumps
//!    and `/trace` see it, with the measurement in milli-units);
//! 3. the shared [`HealthState`], which flips `/health` to degraded and
//!    keeps the recent-alert feed.
//!
//! The checks are pure: evidence in, alerts out, in deterministic order —
//! auditing a same-seed run never perturbs it, so the sharded executor's
//! byte-identity contract survives with the audit enabled.

use crate::metrics::Registry;
use crate::trace::Tracer;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// How many alerts a [`HealthState`] retains for the `/health` feed.
pub const RECENT_ALERTS: usize = 32;

/// The kinds of protocol invariant an auditor can see violated.
/// (Serialized by variant name; the snake_case form in metric and event
/// names comes from [`AlertKind::as_str`].)
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum AlertKind {
    /// Push-sum mass left the DP-noise envelope: a decoded estimate's
    /// normalized weight sum strayed from 1.
    MassConservation,
    /// Transport frame accounting broke: `delivered ≠ sent − dropped` for
    /// some traffic class.
    TrafficAccounting,
    /// A decryption round saw shares it should not have: a sender outside
    /// the committee, more distinct senders than the committee holds, or a
    /// combine below the threshold.
    ShareCount,
    /// A packed-lane plan's carry headroom fell under the watermark.
    LaneHeadroom,
}

impl AlertKind {
    /// Every kind, in the deterministic order [`audit`] checks them in.
    pub const ALL: [AlertKind; 4] = [
        AlertKind::MassConservation,
        AlertKind::TrafficAccounting,
        AlertKind::ShareCount,
        AlertKind::LaneHeadroom,
    ];

    /// The kind's snake_case name (the `<kind>` in metric/event names).
    pub fn as_str(&self) -> &'static str {
        match self {
            AlertKind::MassConservation => "mass_conservation",
            AlertKind::TrafficAccounting => "traffic_accounting",
            AlertKind::ShareCount => "share_count",
            AlertKind::LaneHeadroom => "lane_headroom",
        }
    }

    /// The registry counter a violation increments.
    pub fn counter_name(&self) -> String {
        format!("obs.alert.{}", self.as_str())
    }

    /// The flight-recorder event a violation emits.
    pub fn event_name(&self) -> String {
        format!("alert.{}", self.as_str())
    }
}

/// One detected invariant violation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Alert {
    /// Which invariant broke.
    pub kind: AlertKind,
    /// The node the evidence points at, when attributable.
    pub node: Option<u64>,
    /// The computation step the evidence belongs to.
    pub step: u64,
    /// The measured quantity (mass deviation, delivered-count mismatch,
    /// offending share count, headroom bits — kind-dependent).
    pub measured: f64,
    /// The bound it violated.
    pub limit: f64,
    /// Human-readable one-liner for feeds and logs.
    pub detail: String,
}

/// Overall verdict derived from the alert history.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum HealthStatus {
    /// No invariant violation observed this lifetime.
    #[default]
    Healthy,
    /// At least one invariant violation observed.
    Degraded,
}

/// Per-kind violation tally inside a [`HealthReport`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AlertCount {
    /// The invariant kind.
    pub kind: AlertKind,
    /// Violations of that kind so far.
    pub count: u64,
}

/// The serializable health verdict — the `/health` payload and the body
/// of the control plane's `HealthReport` message.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// The verdict.
    pub status: HealthStatus,
    /// Total violations this lifetime.
    pub alerts_total: u64,
    /// Per-kind tallies (only kinds with at least one violation).
    pub counts: Vec<AlertCount>,
    /// The most recent alerts, oldest first (at most [`RECENT_ALERTS`]).
    pub recent: Vec<Alert>,
}

impl HealthReport {
    /// The count for one kind, 0 if absent.
    pub fn count(&self, kind: AlertKind) -> u64 {
        self.counts
            .iter()
            .find(|c| c.kind == kind)
            .map_or(0, |c| c.count)
    }

    /// Merges two reports (cluster verdict from per-daemon reports): the
    /// worst status wins, tallies sum, recent feeds concatenate and keep
    /// the newest [`RECENT_ALERTS`].
    pub fn plus(&self, other: &HealthReport) -> HealthReport {
        let status =
            if self.status == HealthStatus::Degraded || other.status == HealthStatus::Degraded {
                HealthStatus::Degraded
            } else {
                HealthStatus::Healthy
            };
        let counts = AlertKind::ALL
            .iter()
            .filter_map(|&kind| {
                let count = self.count(kind) + other.count(kind);
                (count != 0).then_some(AlertCount { kind, count })
            })
            .collect();
        let mut recent: Vec<Alert> = self
            .recent
            .iter()
            .chain(other.recent.iter())
            .cloned()
            .collect();
        if recent.len() > RECENT_ALERTS {
            recent.drain(..recent.len() - RECENT_ALERTS);
        }
        HealthReport {
            status,
            alerts_total: self.alerts_total + other.alerts_total,
            counts,
            recent,
        }
    }
}

#[derive(Default)]
struct HealthInner {
    counts: [u64; AlertKind::ALL.len()],
    recent: VecDeque<Alert>,
}

/// The shared, thread-safe alert sink behind `/health`: raising any alert
/// flips it to degraded for the rest of the process lifetime.
#[derive(Default)]
pub struct HealthState {
    degraded: AtomicBool,
    inner: Mutex<HealthInner>,
}

impl HealthState {
    /// A healthy, empty state.
    pub fn new() -> HealthState {
        HealthState::default()
    }

    /// Records a violation.
    pub fn raise(&self, alert: Alert) {
        self.degraded.store(true, Ordering::Release);
        let mut inner = self.inner.lock().expect("health state poisoned");
        let idx = AlertKind::ALL
            .iter()
            .position(|k| *k == alert.kind)
            .expect("kind in ALL");
        inner.counts[idx] += 1;
        if inner.recent.len() == RECENT_ALERTS {
            inner.recent.pop_front();
        }
        inner.recent.push_back(alert);
    }

    /// `true` once any alert has been raised.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// The current verdict.
    pub fn status(&self) -> HealthStatus {
        if self.is_degraded() {
            HealthStatus::Degraded
        } else {
            HealthStatus::Healthy
        }
    }

    /// Snapshots the verdict, tallies, and recent feed.
    pub fn report(&self) -> HealthReport {
        let inner = self.inner.lock().expect("health state poisoned");
        let counts: Vec<AlertCount> = AlertKind::ALL
            .iter()
            .enumerate()
            .filter_map(|(i, &kind)| {
                (inner.counts[i] != 0).then_some(AlertCount {
                    kind,
                    count: inner.counts[i],
                })
            })
            .collect();
        HealthReport {
            status: self.status(),
            alerts_total: inner.counts.iter().sum(),
            counts,
            recent: inner.recent.iter().cloned().collect(),
        }
    }
}

impl std::fmt::Debug for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthState")
            .field("degraded", &self.is_degraded())
            .finish_non_exhaustive()
    }
}

/// The `/healthz` liveness payload: the process answering *is* the
/// liveness signal; the body carries identity and build facts, never a
/// verdict (that is `/health`).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Liveness {
    /// Node id of the answering daemon.
    pub node: u64,
    /// Seconds since the daemon started.
    pub uptime_seconds: u64,
    /// Control-plane protocol version the daemon speaks.
    pub proto_version: u32,
    /// Wire-codec version the daemon speaks.
    pub wire_version: u32,
    /// Build identity (crate version string).
    pub build: String,
}

/// Per-node push-sum mass evidence: the normalized weight sum of one
/// decoded estimate (should be ≈ 1).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct NodeMass {
    /// Reporting node.
    pub node: u64,
    /// Σₖ `counts[k]` of the node's decoded estimate.
    pub mass: f64,
}

/// Per-class transport accounting evidence.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficAudit {
    /// Traffic class name (`gossip`, `decrypt`, `control`).
    pub class: String,
    /// Send attempts (`net.<class>.sent.messages`).
    pub sent: u64,
    /// Frames lost (`net.<class>.dropped`).
    pub dropped: u64,
    /// Frames delivered (the transport snapshot's per-class count).
    pub delivered: u64,
}

/// Per-node decryption-round evidence.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecryptAudit {
    /// Reporting node.
    pub node: u64,
    /// Combines the node performed.
    pub combines: u64,
    /// Shares received from senders outside the committee.
    pub foreign_shares: u64,
    /// Combines performed with fewer than `threshold` distinct shares.
    pub undersized_combines: u64,
    /// Rounds where distinct share senders exceeded the committee size.
    pub oversized_rounds: u64,
}

/// Per-node packed-lane headroom evidence.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaneAudit {
    /// Reporting node.
    pub node: u64,
    /// The lane plan's carry headroom in bits (the watermark).
    pub headroom_bits: u64,
}

/// The push-sum mass envelope: every decoded estimate's weight sum must
/// stay within this of 1. It sits above what honest runs produce (churn
/// skews the sum by the dead fraction, ≈ 0.15 at n = 12; DP noise perturbs
/// it further) and far below what corruption produces (a wrong partial
/// decryption decodes to garbage orders of magnitude off).
pub const MASS_ENVELOPE: f64 = 0.5;

/// The packed-lane headroom watermark in bits. An honest run cannot trip
/// it: a lane plan reserves `bits(P+1)` bits plus a denominator cap of at
/// least `2·cycles + bits(P)`, and every node enforces that cap (it keeps
/// its mass rather than split past it), so no aggregate outruns its lanes.
/// An alert means a plan that did not come from the protocol's planner.
pub const LANE_MIN_BITS: u64 = 1;

/// One step's worth of audit evidence, distilled by a substrate from its
/// run artifacts. Vectors are ordered by node id so alert order — and
/// therefore trace byte-identity — is deterministic.
#[derive(Clone, Debug, Default)]
pub struct StepEvidence {
    /// The computation step (the step seed in the in-process substrates).
    pub step: u64,
    /// Push-sum mass per node with a decoded estimate.
    pub masses: Vec<NodeMass>,
    /// Per-class frame accounting (classes with send-attempt counters).
    pub traffic: Vec<TrafficAudit>,
    /// Decryption-round share discipline per node.
    pub decrypts: Vec<DecryptAudit>,
    /// Lane headroom per real-crypto node (empty on a plaintext step).
    pub lanes: Vec<LaneAudit>,
}

/// Push-sum mass conservation: mass in `1 ± MASS_ENVELOPE`, edges included
/// (NaN is outside). Compared against the edges themselves: `|mass − 1|`
/// rounds the largest mass below `1 − MASS_ENVELOPE` onto the edge.
fn mass_conservation(e: &StepEvidence) -> impl Iterator<Item = Alert> + '_ {
    e.masses
        .iter()
        .filter(|m| !(1.0 - MASS_ENVELOPE..=1.0 + MASS_ENVELOPE).contains(&m.mass))
        .map(|m| Alert {
            kind: AlertKind::MassConservation,
            node: Some(m.node),
            step: e.step,
            measured: m.mass,
            limit: MASS_ENVELOPE,
            detail: format!(
                "node {}: push-sum mass {:.4} strayed more than {} from 1",
                m.node, m.mass, MASS_ENVELOPE
            ),
        })
}

/// Transport frame conservation: `delivered == sent − dropped` per class.
fn traffic_accounting(e: &StepEvidence) -> impl Iterator<Item = Alert> + '_ {
    e.traffic
        .iter()
        .filter(|t| t.delivered != t.sent.saturating_sub(t.dropped))
        .map(|t| Alert {
            kind: AlertKind::TrafficAccounting,
            node: None,
            step: e.step,
            measured: t.delivered as f64,
            limit: t.sent.saturating_sub(t.dropped) as f64,
            detail: format!(
                "class {}: delivered {} ≠ sent {} − dropped {}",
                t.class, t.delivered, t.sent, t.dropped
            ),
        })
}

/// Share-count / committee-cardinality discipline per decryption round.
fn share_count(e: &StepEvidence) -> impl Iterator<Item = Alert> + '_ {
    e.decrypts.iter().filter_map(|d| {
        let bad: Vec<String> = [
            (d.foreign_shares, "shares from outside the committee"),
            (d.undersized_combines, "sub-threshold combines"),
            (
                d.oversized_rounds,
                "rounds with more senders than the committee",
            ),
        ]
        .iter()
        .filter(|(n, _)| *n > 0)
        .map(|(n, what)| format!("{n} {what}"))
        .collect();
        (!bad.is_empty()).then(|| Alert {
            kind: AlertKind::ShareCount,
            node: Some(d.node),
            step: e.step,
            measured: (d.foreign_shares + d.undersized_combines + d.oversized_rounds) as f64,
            limit: 0.0,
            detail: format!("node {}: {}", d.node, bad.join(", ")),
        })
    })
}

/// Packed-lane carry headroom: at least [`LANE_MIN_BITS`] per node.
fn lane_headroom(e: &StepEvidence) -> impl Iterator<Item = Alert> + '_ {
    e.lanes
        .iter()
        .filter(|l| l.headroom_bits < LANE_MIN_BITS)
        .map(|l| Alert {
            kind: AlertKind::LaneHeadroom,
            node: Some(l.node),
            step: e.step,
            measured: l.headroom_bits as f64,
            limit: LANE_MIN_BITS as f64,
            detail: format!(
                "node {}: packed-lane headroom {} bits under the {}-bit watermark",
                l.node, l.headroom_bits, LANE_MIN_BITS
            ),
        })
}

/// Scales a measurement into the flight recorder's u64 field domain
/// (milli-units, magnitude only, saturating; NaN records 0).
fn milli(v: f64) -> u64 {
    (v.abs() * 1000.0).min(u64::MAX as f64) as u64
}

/// Runs the four checks over the evidence in [`AlertKind::ALL`] order and
/// mints every violation everywhere at once: the `obs.alert.<kind>`
/// counter, the flight-recorder event (when a tracer is attached) and the
/// shared health state (when one exists). Returns the violations in that
/// deterministic order.
pub fn audit(
    evidence: &StepEvidence,
    registry: &Registry,
    tracer: Option<&Tracer>,
    state: Option<&HealthState>,
) -> Vec<Alert> {
    let alerts: Vec<Alert> = mass_conservation(evidence)
        .chain(traffic_accounting(evidence))
        .chain(share_count(evidence))
        .chain(lane_headroom(evidence))
        .collect();
    for alert in &alerts {
        registry.counter(&alert.kind.counter_name()).inc();
        if let Some(tracer) = tracer {
            tracer.event(
                &alert.kind.event_name(),
                &[
                    ("node", alert.node.unwrap_or(u64::MAX)),
                    ("step", alert.step),
                    ("measured_milli", milli(alert.measured)),
                    ("limit_milli", milli(alert.limit)),
                ],
            );
        }
        if let Some(state) = state {
            state.raise(alert.clone());
        }
    }
    alerts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Tracer, VirtualClock};
    use std::sync::Arc;

    #[test]
    fn clean_evidence_raises_nothing() {
        let evidence = StepEvidence {
            step: 3,
            masses: vec![
                NodeMass {
                    node: 0,
                    mass: 1.02,
                },
                NodeMass {
                    node: 1,
                    mass: 0.91,
                },
            ],
            traffic: vec![TrafficAudit {
                class: "gossip".into(),
                sent: 10,
                dropped: 3,
                delivered: 7,
            }],
            decrypts: vec![DecryptAudit {
                node: 0,
                combines: 2,
                ..DecryptAudit::default()
            }],
            lanes: vec![LaneAudit {
                node: 0,
                headroom_bits: 6,
            }],
        };
        let registry = Registry::new();
        let state = HealthState::new();
        let alerts = audit(&evidence, &registry, None, Some(&state));
        assert!(alerts.is_empty(), "{alerts:?}");
        assert_eq!(state.status(), HealthStatus::Healthy);
        assert_eq!(
            registry.snapshot().counter("obs.alert.mass_conservation"),
            0
        );
    }

    #[test]
    fn each_violation_mints_counter_event_and_degraded_state() {
        let evidence = StepEvidence {
            step: 7,
            masses: vec![NodeMass {
                node: 4,
                mass: 817.3, // decode garbage
            }],
            traffic: vec![TrafficAudit {
                class: "decrypt".into(),
                sent: 10,
                dropped: 0,
                delivered: 9,
            }],
            decrypts: vec![DecryptAudit {
                node: 2,
                combines: 1,
                foreign_shares: 3,
                ..DecryptAudit::default()
            }],
            lanes: vec![LaneAudit {
                node: 1,
                headroom_bits: 0,
            }],
        };
        let registry = Registry::new();
        let state = HealthState::new();
        let tracer = Tracer::ring(Arc::new(VirtualClock::new()), 64);
        let alerts = audit(&evidence, &registry, Some(&tracer), Some(&state));
        assert_eq!(alerts.len(), 4);
        let snap = registry.snapshot();
        for kind in AlertKind::ALL {
            assert_eq!(snap.counter(&kind.counter_name()), 1, "{kind:?}");
        }
        let events = tracer.snapshot_events();
        assert!(events.iter().any(|e| e.name == "alert.mass_conservation"));
        let report = state.report();
        assert_eq!(report.status, HealthStatus::Degraded);
        assert_eq!(report.alerts_total, 4);
        assert_eq!(report.count(AlertKind::ShareCount), 1);
        assert_eq!(report.recent.len(), 4);
    }

    #[test]
    fn non_finite_mass_is_a_violation() {
        let evidence = StepEvidence {
            masses: vec![NodeMass {
                node: 0,
                mass: f64::NAN,
            }],
            ..StepEvidence::default()
        };
        let alerts = audit(&evidence, &Registry::new(), None, None);
        assert_eq!(alerts.len(), 1);
    }

    /// Audits one node's mass alone and returns the alerts it raised.
    fn mass_alerts(mass: f64) -> Vec<Alert> {
        let evidence = StepEvidence {
            masses: vec![NodeMass { node: 0, mass }],
            ..StepEvidence::default()
        };
        audit(&evidence, &Registry::new(), None, None)
    }

    #[test]
    fn mass_on_the_envelope_passes_and_one_ulp_past_it_alerts() {
        let (low, high) = (1.0 - MASS_ENVELOPE, 1.0 + MASS_ENVELOPE);
        assert!(mass_alerts(low).is_empty(), "mass {low}");
        assert!(mass_alerts(high).is_empty(), "mass {high}");
        for past in [low.next_down(), high.next_up()] {
            let alerts = mass_alerts(past);
            assert_eq!(alerts.len(), 1, "mass {past}: {alerts:?}");
            assert_eq!(alerts[0].kind, AlertKind::MassConservation);
            assert_eq!(alerts[0].measured, past);
            assert_eq!(alerts[0].limit, MASS_ENVELOPE);
        }
    }

    #[test]
    fn headroom_at_the_watermark_passes_and_one_bit_under_alerts() {
        let lane_alerts = |headroom_bits| {
            let evidence = StepEvidence {
                lanes: vec![LaneAudit {
                    node: 5,
                    headroom_bits,
                }],
                ..StepEvidence::default()
            };
            audit(&evidence, &Registry::new(), None, None)
        };
        assert!(lane_alerts(LANE_MIN_BITS).is_empty());
        let alerts = lane_alerts(LANE_MIN_BITS - 1);
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].kind, AlertKind::LaneHeadroom);
        assert_eq!(alerts[0].node, Some(5));
        assert_eq!(alerts[0].limit, LANE_MIN_BITS as f64);
    }

    #[test]
    fn reports_merge_to_the_worst_status_with_summed_counts() {
        let healthy = HealthReport::default();
        let state = HealthState::new();
        state.raise(Alert {
            kind: AlertKind::LaneHeadroom,
            node: Some(9),
            step: 0,
            measured: 0.0,
            limit: 1.0,
            detail: "x".into(),
        });
        let degraded = state.report();
        let merged = healthy.plus(&degraded);
        assert_eq!(merged.status, HealthStatus::Degraded);
        assert_eq!(merged.alerts_total, 1);
        assert_eq!(merged.count(AlertKind::LaneHeadroom), 1);
        let doubled = merged.plus(&degraded);
        assert_eq!(doubled.alerts_total, 2);

        let json = serde_json::to_string(&doubled).unwrap();
        let back: HealthReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, doubled);
    }

    #[test]
    fn health_state_recent_feed_is_bounded() {
        let state = HealthState::new();
        for i in 0..(RECENT_ALERTS as u64 + 10) {
            state.raise(Alert {
                kind: AlertKind::TrafficAccounting,
                node: None,
                step: i,
                measured: 0.0,
                limit: 0.0,
                detail: String::new(),
            });
        }
        let report = state.report();
        assert_eq!(report.recent.len(), RECENT_ALERTS);
        assert_eq!(report.alerts_total, RECENT_ALERTS as u64 + 10);
        assert_eq!(report.recent[0].step, 10, "oldest were evicted");
    }
}
