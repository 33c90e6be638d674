//! Whole-mission benchmark.
//!
//! ```text
//! cargo run --release --manifest-path missionbench/Cargo.toml -- \
//!     --workload <static_paper|dynamic_replan|node_faults> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload's missions back to back with tracing off
//! and reports the end-to-end metrics on both clocks. `--trace 1` reruns
//! them with the program's tracer armed, replays every traced mission
//! through the public layer calls, and reports the per-layer metrics.
//! The last line of standard output is the JSON result. See README.md.

mod checks;
mod replay;
mod report;
mod workload;

use checks::Digest;
use replay::{Recorder, ReplayCounts, NON_PLANNING_LAYERS, PLANNING_LAYERS};
use report::{median, percentile, Metric};
use roborun_trace::{SpanKind, TraceEvent};
use std::process::ExitCode;
use std::time::Instant;
use workload::{MissionSpec, Outcome, Workload};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 51;

/// End-to-end metrics the JSON result carries: the ones that are never
/// zero and stay steady across workload seeds on every workload. The
/// others are printed in the table only (see README.md).
const GATED: [&str; 2] = ["setup_s", "sim_cpu_util"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = workload::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && f64::is_finite(seconds)) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One run of every mission of the workload.
struct Pass {
    /// Summed mission wall time (seconds); checks, digests and trace
    /// draining happen outside it.
    wall_s: f64,
    missions: usize,
    decisions: usize,
    digest: u64,
    /// Outcomes, kept only when asked for.
    outcomes: Vec<Outcome>,
    /// The program's trace events per mission (traced passes only).
    events: Vec<Vec<TraceEvent>>,
    dropped: u64,
    /// Missions that failed an output check, with the reason.
    failures: Vec<String>,
}

fn run_pass(specs: &[MissionSpec], keep: bool, traced: bool) -> Pass {
    let mut pass = Pass {
        wall_s: 0.0,
        missions: specs.len(),
        decisions: 0,
        digest: 0,
        outcomes: Vec::new(),
        events: Vec::new(),
        dropped: 0,
        failures: Vec::new(),
    };
    let mut digest = Digest::default();
    if traced {
        roborun_trace::drain();
        roborun_trace::arm();
    }
    for spec in specs {
        let outcome = workload::run(spec);
        if traced {
            pass.dropped += roborun_trace::dropped();
            let events = roborun_trace::drain();
            if keep {
                pass.events.push(events);
            }
        }
        pass.wall_s += outcome.wall_s;
        pass.decisions += outcome.result.metrics.decisions;
        if let Err(reason) = checks::check(spec, &outcome) {
            pass.failures.push(format!("{}: {reason}", spec.label));
        }
        digest.add_mission(&outcome);
        if keep {
            pass.outcomes.push(outcome);
        }
    }
    if traced {
        roborun_trace::disarm();
    }
    pass.digest = digest.value();
    pass
}

/// Generates the workload `SETUP_REPS` times; returns the specs and the
/// median set-up time.
fn setup(workload: Workload, seed: u64) -> (Vec<MissionSpec>, f64) {
    let mut times = Vec::new();
    let mut specs = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        specs = workload::build(workload, seed);
        times.push(start.elapsed().as_secs_f64());
    }
    (specs, median(&times))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("missionbench: {message}");
            return ExitCode::from(2);
        }
    };
    let (specs, setup_s) = setup(args.workload, args.seed);
    println!(
        "workload {} seed {} (default seed {}, held-out seed {}): {} missions, {} host cores",
        args.workload.name(),
        args.seed,
        workload::DEFAULT_SEED,
        workload::HELD_OUT_SEED,
        specs.len(),
        roborun_trace::host_cores()
    );
    // Untimed warm-up: the first mission of a process runs slowest.
    workload::run(&specs[0]);

    let (correct, attempted, failed, metrics) = if args.trace {
        traced_run(&args, &specs)
    } else {
        untraced_run(&args, &specs, setup_s)
    };
    let correct = correct && metrics.iter().all(|m| m.value.is_finite());
    println!(
        "{}",
        report::result_json(correct, attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}

/// Runs untraced passes while another one still fits in `seconds`;
/// always at least one.
fn measure(specs: &[MissionSpec], seconds: f64) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        let pass_start = Instant::now();
        passes.push(run_pass(specs, passes.is_empty(), false));
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + pass_start.elapsed().as_secs_f64() > seconds {
            return passes;
        }
    }
}

/// Prints every failed check of the passes by mission name; returns
/// (attempted, failed).
fn account(passes: &[&Pass]) -> (usize, usize) {
    let mut failed = 0;
    for pass in passes {
        for failure in &pass.failures {
            println!("CHECK FAILED {failure}");
        }
        failed += pass.failures.len();
    }
    (passes.iter().map(|p| p.missions).sum(), failed)
}

/// Prints the digests; `true` when they all agree.
fn digests_agree(labelled: &[(String, u64)]) -> bool {
    for (label, digest) in labelled {
        println!("sim digest, {label}: {digest:016x}");
    }
    let agree = labelled.windows(2).all(|w| w[0].1 == w[1].1);
    if !agree {
        println!("DETERMINISM FAILED: sim digests differ");
    }
    agree
}

fn untraced_run(
    args: &Args,
    specs: &[MissionSpec],
    setup_s: f64,
) -> (bool, usize, usize, Vec<Metric>) {
    let passes = measure(specs, args.seconds);
    let (attempted, failed) = account(&passes.iter().collect::<Vec<_>>());
    // Repeat passes must reproduce the sim outputs exactly. (The traced
    // run always runs its missions twice, untraced and traced.)
    let steady = digests_agree(
        &passes
            .iter()
            .enumerate()
            .map(|(i, p)| (format!("pass {}", i + 1), p.digest))
            .collect::<Vec<_>>(),
    );
    let first = &passes[0];
    for (spec, outcome) in specs.iter().zip(&first.outcomes) {
        let m = &outcome.result.metrics;
        println!(
            "  mission {:<52} decisions {:>4}  sim {:>8.2} s {:>8.2} kJ cpu {:.4}  wall {:>7.3} s  {}",
            spec.label,
            m.decisions,
            m.mission_time,
            m.energy_kj,
            m.mean_cpu_utilization,
            outcome.wall_s,
            if m.collided {
                "collided"
            } else if m.reached_goal {
                "reached goal"
            } else if checks::aborted_final_decision(spec, outcome) {
                "stopped short: bus driver got no policy"
            } else {
                "stopped short"
            }
        );
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let per_decision: Vec<f64> = passes
        .iter()
        .map(|p| p.wall_s * 1e3 / p.decisions as f64)
        .collect();
    let sim = report::summarize(specs, &first.outcomes);
    let host_note = format!("host, median of {} passes", passes.len());
    let gain = |f: fn((f64, f64, f64)) -> f64| sim.gains.map_or(f64::NAN, f);
    let rows = [
        (
            Metric::new("wall_s", median(&walls), "s"),
            host_note.clone(),
        ),
        (
            Metric::new("host_ms_per_decision", median(&per_decision), "ms"),
            format!("{host_note}, {} decisions per pass", first.decisions),
        ),
        (
            Metric::new("setup_s", setup_s, "s"),
            format!("host, median of {SETUP_REPS} set-ups"),
        ),
        (
            Metric::new("peak_rss_mb", report::peak_rss_mb(), "MB"),
            "host, VmHWM of this process".to_string(),
        ),
        (
            Metric::new("sim_mission_time_s", sim.mission_time_s, "s"),
            "sim, RoboRun mean (capped missions at their cap)".to_string(),
        ),
        (
            Metric::new("sim_energy_kj", sim.energy_kj, "kJ"),
            "sim, RoboRun mean".to_string(),
        ),
        (
            Metric::new("sim_cpu_util", sim.cpu_util, "ratio"),
            "sim, RoboRun mean of mission means".to_string(),
        ),
        (
            Metric::new("sim_latency_p50_s", sim.latency_p50_s, "s"),
            format!("sim, {} RoboRun decisions pooled", sim.roborun_decisions),
        ),
        (
            Metric::new("sim_latency_p99_s", sim.latency_p99_s, "s"),
            format!("sim, {} decisions beyond it", sim.beyond_p99),
        ),
        (
            Metric::new("deadline_miss_rate", sim.deadline_miss_rate, "ratio"),
            "sim".to_string(),
        ),
        (
            Metric::new("failure_rate", sim.failure_rate, "ratio"),
            "sim".to_string(),
        ),
        (
            Metric::new("collision_rate", sim.collision_rate, "ratio"),
            "sim".to_string(),
        ),
        (
            Metric::new("mission_time_gain_x", gain(|g| g.0), "x"),
            "sim, baseline / RoboRun (paper: 4.5)".to_string(),
        ),
        (
            Metric::new("energy_gain_x", gain(|g| g.1), "x"),
            "sim, baseline / RoboRun (paper: 4)".to_string(),
        ),
        (
            Metric::new("cpu_util_reduction", gain(|g| g.2), "ratio"),
            "sim, 1 - RoboRun / baseline (paper: 0.36)".to_string(),
        ),
    ];
    report::print_table(
        &format!("end-to-end metrics, {}", args.workload.name()),
        &rows
            .iter()
            .filter(|(m, _)| m.value.is_finite())
            .map(|(m, note)| (m, note.as_str()))
            .collect::<Vec<_>>(),
    );
    let gated = rows
        .into_iter()
        .map(|(m, _)| m)
        .filter(|m| GATED.contains(&m.name))
        .collect();
    (failed == 0 && steady, attempted, failed, gated)
}

/// What the program's own trace says about one pass.
#[derive(Default)]
struct InSitu {
    decision_walls_ms: Vec<f64>,
    plan_walls_ms: Vec<f64>,
    samples: f64,
    collision_queries: f64,
    tree_size: f64,
    events: u64,
}

fn arg(event: &TraceEvent, key: &str) -> f64 {
    event
        .args
        .iter()
        .find(|(k, _)| *k == key)
        .map_or(0.0, |(_, v)| *v)
}

fn traced_run(args: &Args, specs: &[MissionSpec]) -> (bool, usize, usize, Vec<Metric>) {
    // The traced run covers the first third of the missions (for
    // `static_paper`, exactly one quick sweep), run untraced and then
    // traced: the pair checks the determinism digest and measures the
    // tracing overhead, and the traced pass is replayed. Doing this for
    // every mission would take over two minutes on heavy seeds.
    let specs = &specs[..specs.len().div_ceil(3)];
    let untraced = run_pass(specs, false, false);
    let pass = run_pass(specs, true, true);
    let (attempted, failed) = account(&[&untraced, &pass]);
    let steady = digests_agree(&[
        ("untraced".to_string(), untraced.digest),
        ("traced".to_string(), pass.digest),
    ]);

    // In-situ numbers from the program's own spans and counters.
    let mut in_situ = InSitu::default();
    let mut recorder = Recorder::new();
    let mut counts = ReplayCounts::default();
    let mut next_id = 0u64;
    for ((spec, outcome), events) in specs.iter().zip(&pass.outcomes).zip(&pass.events) {
        in_situ.events += events.len() as u64;
        let mut plan_times = Vec::new();
        for event in events {
            let wall_ms = event.wall_dur_ns as f64 / 1e6;
            match event.kind {
                SpanKind::Decision => in_situ.decision_walls_ms.push(wall_ms),
                SpanKind::Plan => {
                    in_situ.plan_walls_ms.push(wall_ms);
                    in_situ.samples += arg(event, "samples_drawn");
                    in_situ.collision_queries += arg(event, "collision_queries");
                    in_situ.tree_size += arg(event, "tree_size");
                    plan_times.push(event.sim_time.to_bits());
                }
                _ => {}
            }
        }
        plan_times.sort_unstable();
        replay::replay_mission(
            &mut recorder,
            spec,
            outcome,
            &plan_times,
            next_id,
            &mut counts,
        );
        next_id += outcome.result.telemetry.len() as u64;
    }
    let totals = recorder.totals();
    let layer_ms = |name: &str| totals.get(name).copied().unwrap_or(0) as f64 / 1e6;

    let sum_metrics = |f: fn(&roborun_mission::MissionMetrics) -> usize| {
        pass.outcomes
            .iter()
            .map(|o| f(&o.result.metrics))
            .sum::<usize>() as f64
    };
    let decisions = pass.decisions as f64;
    let plans = in_situ.plan_walls_ms.len() as f64;
    // `Sum` of no floats is -0.0; start from +0.0 so empty totals print 0.
    let decision_wall_ms = in_situ.decision_walls_ms.iter().fold(0.0, |a, b| a + b);
    let plan_wall_ms = in_situ.plan_walls_ms.iter().fold(0.0, |a, b| a + b);
    let non_planning_ms: f64 = NON_PLANNING_LAYERS.iter().map(|n| layer_ms(n)).sum();
    let coverage = ratio(non_planning_ms, decision_wall_ms - plan_wall_ms);
    let pct = |values: &[f64], q: f64| {
        if values.is_empty() {
            0.0
        } else {
            percentile(values, q)
        }
    };

    // Middleware: per-topic traffic of the bus-driven missions, and a
    // replay of it on a benchmark-owned bus.
    let (mut messages, mut deliveries, mut drops, mut bytes) = (0u64, 0u64, 0u64, 0u64);
    let (mut publishes, mut publish_ns) = (0u64, 0u64);
    let mut comm = Vec::new();
    for outcome in &pass.outcomes {
        comm.extend_from_slice(&outcome.comm_per_decision);
        if let Some(graph) = &outcome.graph {
            for topic in &graph.topics {
                messages += topic.stats.messages_published;
                deliveries += topic.stats.deliveries;
                drops += topic.stats.drops;
                bytes += topic.stats.bytes_published;
            }
            let (n, ns) = replay::replay_bus(graph);
            publishes += n;
            publish_ns += ns;
        }
    }
    let comm_latency_ms = ratio(comm.iter().sum::<f64>(), comm.len() as f64) * 1e3;

    if args.workload.direct_driver() {
        print_attribution(
            args.workload,
            &layer_ms,
            decision_wall_ms,
            plan_wall_ms,
            coverage,
        );
    }
    let spans_path = format!(
        "{}/out/{}-seed{}.spans.json",
        env!("CARGO_MANIFEST_DIR"),
        args.workload.name(),
        args.seed
    );
    let written = std::fs::create_dir_all(format!("{}/out", env!("CARGO_MANIFEST_DIR")))
        .and_then(|()| std::fs::write(&spans_path, recorder.chrome_json()));
    match written {
        Ok(()) => println!(
            "{} replay spans written to {spans_path}",
            recorder.spans().len()
        ),
        Err(e) => println!("replay spans not written: {e}"),
    }

    let m = Metric::new;
    let metrics = vec![
        m("sim.capture_ms", layer_ms("sim.capture"), "ms"),
        m("sim.points", counts.points as f64, "count"),
        m("dynamics.snapshot_ms", layer_ms("dynamics.snapshot"), "ms"),
        m("dynamics.predict_ms", layer_ms("dynamics.predict"), "ms"),
        m(
            "dynamics.predicted_boxes",
            counts.predicted_boxes as f64,
            "count",
        ),
        m("core.profile_ms", layer_ms("core.profile"), "ms"),
        m("core.govern_ms", layer_ms("core.govern"), "ms"),
        m(
            "perception.downsample_ms",
            layer_ms("perception.downsample"),
            "ms",
        ),
        m(
            "perception.integrate_ms",
            layer_ms("perception.integrate"),
            "ms",
        ),
        m("perception.export_ms", layer_ms("perception.export"), "ms"),
        m("perception.map_voxels", counts.map_voxels as f64, "count"),
        m(
            "perception.export_boxes",
            counts.export_boxes as f64,
            "count",
        ),
        m("perception.delta_added", counts.delta_added as f64, "count"),
        m(
            "perception.delta_removed",
            counts.delta_removed as f64,
            "count",
        ),
        m("planning.checker_ms", layer_ms(PLANNING_LAYERS[0]), "ms"),
        m(
            "planning.replay_plan_ms",
            layer_ms(PLANNING_LAYERS[1]),
            "ms",
        ),
        m(
            "planning.replay_plan_ok_ratio",
            ratio(counts.plans_ok as f64, counts.plan_attempts as f64),
            "ratio",
        ),
        m("planning.plans", plans, "count"),
        m("planning.plan_wall_ms", plan_wall_ms, "ms"),
        m(
            "planning.plan_p50_ms",
            pct(&in_situ.plan_walls_ms, 0.5),
            "ms",
        ),
        m(
            "planning.plan_p99_ms",
            pct(&in_situ.plan_walls_ms, 0.99),
            "ms",
        ),
        m("planning.samples", in_situ.samples, "count"),
        m(
            "planning.collision_queries",
            in_situ.collision_queries,
            "count",
        ),
        m("planning.tree_size", in_situ.tree_size, "count"),
        m(
            "planning.warm_replans",
            sum_metrics(|x| x.warm_replans),
            "count",
        ),
        m(
            "planning.nodes_retained",
            sum_metrics(|x| x.planner_nodes_retained),
            "count",
        ),
        m(
            "planning.nodes_pruned",
            sum_metrics(|x| x.planner_nodes_pruned),
            "count",
        ),
        m(
            "mission.decision_wall_p50_ms",
            pct(&in_situ.decision_walls_ms, 0.5),
            "ms",
        ),
        m(
            "mission.decision_wall_p99_ms",
            pct(&in_situ.decision_walls_ms, 0.99),
            "ms",
        ),
        m("mission.decisions", decisions, "count"),
        m(
            "mission.dynamic_replans",
            sum_metrics(|x| x.dynamic_replans),
            "count",
        ),
        m("mission.replan_share", ratio(plans, decisions), "ratio"),
        m("mission.replay_coverage", coverage, "ratio"),
        m("middleware.messages", messages as f64, "count"),
        m("middleware.deliveries", deliveries as f64, "count"),
        m("middleware.drops", drops as f64, "count"),
        m("middleware.bytes", bytes as f64, "B"),
        m("middleware.comm_latency_ms", comm_latency_ms, "ms"),
        m(
            "middleware.publish_ns",
            ratio(publish_ns as f64, publishes as f64),
            "ns",
        ),
        m(
            "faults.injected",
            sum_metrics(|x| x.faults_injected),
            "count",
        ),
        m(
            "faults.watchdog_fires",
            sum_metrics(|x| x.watchdog_fires),
            "count",
        ),
        m("faults.retries", sum_metrics(|x| x.retries), "count"),
        m(
            "faults.degraded_decisions",
            sum_metrics(|x| x.degraded_decisions),
            "count",
        ),
        m("faults.safe_stops", sum_metrics(|x| x.safe_stops), "count"),
        m(
            "trace.overhead_pct",
            (pass.wall_s / untraced.wall_s - 1.0) * 100.0,
            "%",
        ),
        m("trace.events", in_situ.events as f64, "count"),
        m("trace.dropped", pass.dropped as f64, "count"),
    ];
    report::print_table(
        &format!(
            "per-layer metrics, {} (first {} missions, traced)",
            args.workload.name(),
            specs.len()
        ),
        &metrics.iter().map(|m| (m, "")).collect::<Vec<_>>(),
    );
    let complete = pass.dropped == 0;
    if !complete {
        println!("TRACE INCOMPLETE: the program's tracer dropped events");
    }
    (
        failed == 0 && steady && complete,
        attempted,
        failed,
        metrics,
    )
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Shares of in-situ decision wall time: each replayed layer, the
/// in-situ planner, and what neither accounts for.
fn print_attribution(
    workload: Workload,
    layer_ms: &dyn Fn(&str) -> f64,
    decision_wall_ms: f64,
    plan_wall_ms: f64,
    coverage: f64,
) {
    println!(
        "attribution, {} (share of {:.1} ms in-situ decision wall; replay coverage {:.3})",
        workload.name(),
        decision_wall_ms,
        coverage
    );
    let share = |ms: f64| ratio(ms, decision_wall_ms);
    let mut attributed = 0.0;
    for name in NON_PLANNING_LAYERS {
        let ms = layer_ms(name);
        attributed += ms;
        println!("  {name:<24} {ms:>12.2} ms  {:>7.3}  replayed", share(ms));
    }
    attributed += plan_wall_ms;
    println!(
        "  {:<24} {plan_wall_ms:>12.2} ms  {:>7.3}  in situ",
        "plan",
        share(plan_wall_ms)
    );
    println!(
        "  {:<24} {:>12.2} ms  {:>7.3}  control, epoch advance and the rest",
        "unattributed",
        decision_wall_ms - attributed,
        share(decision_wall_ms - attributed)
    );
}
