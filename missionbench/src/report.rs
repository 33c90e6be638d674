//! Metric arithmetic and printing.

use crate::workload::{MissionSpec, Outcome};

/// One named metric value.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile of a non-empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The sim-clock end-to-end metrics of one pass. All are deterministic
/// for a fixed workload seed.
pub struct SimSummary {
    pub mission_time_s: f64,
    pub energy_kj: f64,
    pub cpu_util: f64,
    pub latency_p50_s: f64,
    pub latency_p99_s: f64,
    /// RoboRun decisions whose latency lies strictly beyond the p99.
    pub beyond_p99: usize,
    pub roborun_decisions: usize,
    pub deadline_miss_rate: f64,
    pub failure_rate: f64,
    pub collision_rate: f64,
    /// (mission time gain, energy gain, CPU reduction) when the pass ran
    /// the static baseline beside RoboRun.
    pub gains: Option<(f64, f64, f64)>,
}

/// Mission time, counting a mission stopped by the time cap at the cap.
fn capped_mission_time(spec: &MissionSpec, outcome: &Outcome) -> f64 {
    outcome
        .result
        .metrics
        .mission_time
        .min(spec.cfg.max_mission_time)
}

pub fn summarize(specs: &[MissionSpec], outcomes: &[Outcome]) -> SimSummary {
    let pairs = || specs.iter().zip(outcomes);
    let aware = || pairs().filter(|(s, _)| s.aware());
    let baseline = || pairs().filter(|(s, _)| !s.aware());
    let missions = aware().count().max(1) as f64;

    let latencies: Vec<f64> = aware()
        .flat_map(|(_, o)| o.result.telemetry.records().iter())
        .map(|r| r.critical_path_latency())
        .collect();
    let missed = aware()
        .flat_map(|(_, o)| o.result.telemetry.records().iter())
        .filter(|r| !r.met_deadline())
        .count();
    let p99 = percentile(&latencies, 0.99);

    let mission_time_s = mean(aware().map(|(s, o)| capped_mission_time(s, o)));
    let energy_kj = mean(aware().map(|(_, o)| o.result.metrics.energy_kj));
    let cpu_util = mean(aware().map(|(_, o)| o.result.metrics.mean_cpu_utilization));
    let gains = (baseline().count() > 0).then(|| {
        let base_time = mean(baseline().map(|(s, o)| capped_mission_time(s, o)));
        let base_energy = mean(baseline().map(|(_, o)| o.result.metrics.energy_kj));
        let base_cpu = mean(baseline().map(|(_, o)| o.result.metrics.mean_cpu_utilization));
        (
            base_time / mission_time_s,
            base_energy / energy_kj,
            1.0 - cpu_util / base_cpu,
        )
    });
    SimSummary {
        mission_time_s,
        energy_kj,
        cpu_util,
        latency_p50_s: median(&latencies),
        latency_p99_s: p99,
        beyond_p99: latencies.iter().filter(|&&l| l > p99).count(),
        roborun_decisions: latencies.len(),
        deadline_miss_rate: missed as f64 / latencies.len().max(1) as f64,
        failure_rate: aware()
            .filter(|(_, o)| !o.result.metrics.successful())
            .count() as f64
            / missions,
        collision_rate: aware().filter(|(_, o)| o.result.metrics.collided).count() as f64
            / missions,
        gains,
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Prints a metric table: name, value, unit and a note column.
pub fn print_table(title: &str, rows: &[(&Metric, &str)]) {
    println!("{title}");
    for (metric, note) in rows {
        println!(
            "  {:<34} {:>16.6} {:<6} {}",
            metric.name, metric.value, metric.unit, note
        );
    }
}

/// The result line: one JSON object, the last line of standard output.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Every digit of the value: Rust prints the shortest form that reads
/// back to the same bits.
fn json_number(value: f64) -> String {
    format!("{value:?}")
}
