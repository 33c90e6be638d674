//! Output checks on every mission result, and the determinism digest over
//! its sim-clock outputs.

use crate::workload::{Driver, MissionSpec, Outcome};
use roborun_mission::MissionMetrics;

/// Checks one mission result before its numbers count. A mission that
/// stops early, fails or collides still passes: those are outcomes the
/// failure and collision rates count. Only an inconsistent or malformed
/// result is rejected, with the reason.
pub fn check(spec: &MissionSpec, outcome: &Outcome) -> Result<(), String> {
    let m = &outcome.result.metrics;
    if let Some(name) = non_finite_metric(m) {
        return Err(format!("metric {name} is not finite"));
    }
    if m.decisions < 1 {
        return Err("no decision was taken".to_string());
    }
    let bounds = spec.env.bounds();
    if let Some(p) = outcome
        .result
        .flown_path
        .iter()
        .find(|p| !bounds.contains(**p))
    {
        return Err(format!(
            "flown point ({:.2}, {:.2}, {:.2}) lies outside the environment bounds",
            p.x, p.y, p.z
        ));
    }
    let records = outcome.result.telemetry.len();
    if records != m.decisions && !aborted_final_decision(spec, outcome) {
        return Err(format!(
            "telemetry holds {records} records for {} decisions",
            m.decisions
        ));
    }
    Ok(())
}

/// The bus driver counts a decision before its runtime node produces a
/// policy; when the node produces none, the loop ends there and that
/// last decision leaves no telemetry record. Such a mission stopped
/// short (a mission failure, which `failure_rate` counts), and its
/// output is otherwise consistent, so it is not a malformed result.
pub fn aborted_final_decision(spec: &MissionSpec, outcome: &Outcome) -> bool {
    let m = &outcome.result.metrics;
    spec.driver == Driver::Bus
        && !m.reached_goal
        && !m.collided
        && outcome.result.telemetry.len() + 1 == m.decisions
}

fn non_finite_metric(m: &MissionMetrics) -> Option<&'static str> {
    [
        ("mission_time", m.mission_time),
        ("energy_kj", m.energy_kj),
        ("mean_velocity", m.mean_velocity),
        ("mean_cpu_utilization", m.mean_cpu_utilization),
        ("median_latency", m.median_latency),
        ("p95_latency", m.p95_latency),
        ("p99_latency", m.p99_latency),
        ("max_latency", m.max_latency),
        ("distance_travelled", m.distance_travelled),
        ("masked_planning_latency", m.masked_planning_latency),
    ]
    .into_iter()
    .find(|(_, value)| !value.is_finite())
    .map(|(name, _)| name)
}

/// FNV-1a over a byte stream: a stable, dependency-free digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one mission's sim-clock outputs in: every `MissionMetrics`
    /// field and every telemetry record, through their `Debug` forms
    /// (which print floats in shortest round-trip form, so equal digests
    /// mean bit-equal values).
    pub fn add_mission(&mut self, outcome: &Outcome) {
        let result = &outcome.result;
        self.write(format!("{:?}", result.metrics).as_bytes());
        for record in result.telemetry.records() {
            self.write(format!("{record:?}").as_bytes());
        }
        for latency in &outcome.comm_per_decision {
            self.write(&latency.to_bits().to_le_bytes());
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}
