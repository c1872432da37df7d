//! Distills one step's run artifacts into the invariant audit's evidence.
//!
//! Substrates produce three things the audit cares about: per-node
//! [`NodeReport`]s (decoded estimates → push-sum mass, decryption-round
//! share discipline, packed-lane headroom), the transport's
//! [`TrafficSnapshot`] (delivered frames per class), and the metrics
//! registry (send-attempt counters per class). [`distill`] folds them into
//! the plain-data [`StepEvidence`] that [`cs_obs::health::audit`] checks,
//! in node-id order, so the audit — and therefore every counter and alert
//! it mints — is deterministic for a deterministic substrate.
//!
//! The traffic check is only meaningful where the transport exports the
//! send-attempt counters (`net.<class>.sent.messages`): the TCP transport
//! does; the sharded executor's shard-local accounting has no independent
//! send path, so its classes are skipped rather than trivially compared
//! against themselves.

use crate::node::NodeReport;
use crate::transport::TrafficSnapshot;
use cs_obs::health::{LaneAudit, NodeMass, StepEvidence, TrafficAudit};
use cs_obs::MetricsSnapshot;

/// Folds reports, the transport snapshot, and a pre-audit metrics snapshot
/// into evidence. `reports` must be in node-id order (every substrate sorts
/// before assembling its [`crate::runtime::StepRun`]).
pub fn distill(
    step: u64,
    reports: &[NodeReport],
    snapshot: &TrafficSnapshot,
    metrics: &MetricsSnapshot,
) -> StepEvidence {
    let masses = reports
        .iter()
        .filter_map(|r| {
            r.estimate.as_ref().map(|est| NodeMass {
                node: r.id as u64,
                mass: est.counts.iter().sum(),
            })
        })
        .collect();
    let classes = [
        ("gossip", snapshot.gossip),
        ("decrypt", snapshot.decrypt),
        ("control", snapshot.control),
    ];
    let traffic = classes
        .iter()
        .filter_map(|(name, counts)| {
            let sent_name = format!("net.{name}.sent.messages");
            metrics
                .counters
                .iter()
                .any(|c| c.name == sent_name)
                .then(|| TrafficAudit {
                    class: (*name).to_string(),
                    sent: metrics.counter(&sent_name),
                    dropped: metrics.counter(&format!("net.{name}.dropped")),
                    delivered: counts.messages,
                })
        })
        .collect();
    let decrypts = reports.iter().map(|r| r.decrypt_audit).collect();
    let lanes = reports
        .iter()
        .filter_map(|r| {
            r.lane_headroom_bits.map(|bits| LaneAudit {
                node: r.id as u64,
                headroom_bits: bits,
            })
        })
        .collect();
    StepEvidence {
        step,
        masses,
        traffic,
        decrypts,
        lanes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeReport;
    use chiaroscuro::rounds::PerturbedAggregates;
    use cs_obs::health::{audit, AlertKind};
    use cs_obs::Registry;

    fn report(id: usize, counts: Vec<f64>) -> NodeReport {
        let mut r = NodeReport::dead(id);
        r.estimate = Some(PerturbedAggregates {
            sums: vec![vec![0.0; 3]; counts.len()],
            counts,
        });
        r
    }

    #[test]
    fn distilled_evidence_is_in_node_id_order_and_skips_dead_nodes() {
        let mut dead = NodeReport::dead(1);
        dead.estimate = None;
        let reports = [report(0, vec![0.5, 0.5]), dead, report(2, vec![0.4, 0.58])];
        let registry = Registry::new();
        registry.counter("net.gossip.sent.messages").add(10);
        registry.counter("net.gossip.dropped").add(3);
        let snapshot = TrafficSnapshot {
            gossip: crate::transport::ClassCounts {
                messages: 7,
                bytes: 700,
                dropped: 3,
            },
            ..TrafficSnapshot::default()
        };
        let evidence = distill(9, &reports, &snapshot, &registry.snapshot());
        assert_eq!(evidence.step, 9);
        assert_eq!(evidence.masses.len(), 2, "dead node contributes no mass");
        assert_eq!(evidence.masses[0].node, 0);
        assert_eq!(evidence.masses[1].node, 2);
        // Only gossip has send-attempt counters; the other classes are
        // skipped, not trivially compared against themselves.
        assert_eq!(evidence.traffic.len(), 1);
        assert_eq!(evidence.traffic[0].sent, 10);
        assert_eq!(evidence.traffic[0].delivered, 7);
        assert_eq!(evidence.decrypts.len(), 3);
        assert!(evidence.lanes.is_empty(), "no real crypto, no lanes");

        let alerts = audit(&evidence, &registry, None, None);
        assert!(alerts.is_empty(), "{alerts:?}");
    }

    #[test]
    fn garbage_mass_and_short_delivery_raise_alerts() {
        let reports = [report(0, vec![812.0, -4.0])];
        let registry = Registry::new();
        registry.counter("net.decrypt.sent.messages").add(10);
        let snapshot = TrafficSnapshot {
            decrypt: crate::transport::ClassCounts {
                messages: 8, // 2 frames vanished without a dropped count
                bytes: 800,
                dropped: 0,
            },
            ..TrafficSnapshot::default()
        };
        let evidence = distill(4, &reports, &snapshot, &registry.snapshot());
        let alerts = audit(&evidence, &registry, None, None);
        assert_eq!(alerts.len(), 2, "{alerts:?}");
        assert_eq!(alerts[0].kind, AlertKind::MassConservation);
        assert_eq!(alerts[1].kind, AlertKind::TrafficAccounting);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("obs.alert.mass_conservation"), 1);
        assert_eq!(snap.counter("obs.alert.traffic_accounting"), 1);
    }
}
