//! The execution log.
//!
//! The demo stores "the execution log … in a local MongoDB database and
//! displayed by the GUI through a web browser". Every series the GUI plots —
//! centroid evolution, noise impact, quality and cost measures per iteration
//! — derives from this log. We emit the same information as a serializable
//! structure with JSON and CSV renderers; the GUI is presentation only
//! (DESIGN.md §4).

use crate::cost::IterationCost;
use serde::{Deserialize, Serialize};

/// Everything recorded about one protocol iteration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IterationRecord {
    /// Iteration number (0-based).
    pub iteration: usize,
    /// ε slice spent on this iteration's disclosures.
    pub epsilon: f64,
    /// Laplace scale `b = Δ/ε_t` used for the noise shares.
    pub noise_scale: f64,
    /// Live participants at the start of the iteration.
    pub alive: usize,
    /// Canonical (population-averaged) centroid movement this iteration.
    pub movement: f64,
    /// Fraction of live participants whose convergence step fired.
    pub converged_fraction: f64,
    /// Canonical perturbed centroids after the iteration (`k × series_len`).
    pub centroids: Vec<Vec<f64>>,
    /// Omniscient-observer clean means (no noise, exact aggregation) for the
    /// same assignments — the demo's "impact of the noise" graphs compare
    /// these against `centroids`. Never disclosed to participants.
    pub observer_clean_centroids: Vec<Vec<f64>>,
    /// Mean absolute perturbation across centroid coordinates.
    pub noise_impact: f64,
    /// Cost counters for the iteration.
    pub cost: IterationCost,
}

/// Full log of one run.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecutionLog {
    /// Dataset label (e.g. `"cer-like"`).
    pub dataset: String,
    /// Population size.
    pub population: usize,
    /// Series length.
    pub series_len: usize,
    /// Per-iteration records, in order.
    pub records: Vec<IterationRecord>,
}

impl ExecutionLog {
    /// Creates an empty log.
    pub fn new(dataset: impl Into<String>, population: usize, series_len: usize) -> Self {
        ExecutionLog {
            dataset: dataset.into(),
            population,
            series_len,
            records: Vec::new(),
        }
    }

    /// Appends an iteration record.
    pub fn push(&mut self, record: IterationRecord) {
        self.records.push(record);
    }

    /// Number of recorded iterations.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` iff nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Pretty JSON export (the MongoDB-document analogue).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("log serializes")
    }

    /// Compact per-iteration CSV: one row per iteration with the scalar
    /// columns (centroid matrices are omitted — use JSON for those).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "iteration,epsilon,noise_scale,alive,movement,converged_fraction,noise_impact,\
             gossip_messages,gossip_bytes,bytes_per_participant\n",
        );
        for r in &self.records {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{}\n",
                r.iteration,
                r.epsilon,
                r.noise_scale,
                r.alive,
                r.movement,
                r.converged_fraction,
                r.noise_impact,
                r.cost.gossip_messages,
                r.cost.gossip_bytes,
                r.cost.bytes_per_participant(r.alive),
            ));
        }
        out
    }

    /// Total bytes per participant over the whole run.
    pub fn total_bytes_per_participant(&self) -> f64 {
        self.records
            .iter()
            .map(|r| r.cost.bytes_per_participant(r.alive))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::DecryptionOps;

    fn record(i: usize) -> IterationRecord {
        IterationRecord {
            iteration: i,
            epsilon: 0.1,
            noise_scale: 10.0,
            alive: 100,
            movement: 1.0 / (i + 1) as f64,
            converged_fraction: 0.0,
            centroids: vec![vec![1.0, 2.0]],
            observer_clean_centroids: vec![vec![1.1, 2.1]],
            noise_impact: 0.1,
            cost: IterationCost {
                gossip_bytes: 9_000,
                decrypt_ops: DecryptionOps {
                    bytes: 1_000,
                    ..Default::default()
                },
                ..Default::default()
            },
        }
    }

    #[test]
    fn json_roundtrip() {
        let mut log = ExecutionLog::new("test", 100, 2);
        log.push(record(0));
        log.push(record(1));
        let back: ExecutionLog = serde_json::from_str(&log.to_json()).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut log = ExecutionLog::new("test", 100, 2);
        log.push(record(0));
        let csv = log.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("iteration,epsilon"));
        assert!(lines[1].starts_with("0,0.1,10,100,"));
    }

    #[test]
    fn totals_accumulate() {
        let mut log = ExecutionLog::new("test", 100, 2);
        log.push(record(0));
        log.push(record(1));
        assert!((log.total_bytes_per_participant() - 200.0).abs() < 1e-12);
    }
}
