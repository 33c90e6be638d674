//! Outside-in per-layer replay.
//!
//! Each traced mission's telemetry (decision time, position, knobs) is
//! replayed through the public entry point of every layer on the decision
//! path, and each call is wrapped in a span recorded here, in the
//! benchmark's own memory: name, start, end, parent and the decision it
//! belongs to. Nothing inside the program is instrumented; the program's
//! own `decision` and `plan` spans are read from its trace separately.

use crate::workload::{MissionSpec, Outcome};
use roborun_core::Governor;
use roborun_faults::FaultPlan;
use roborun_geom::{Pose, Vec3};
use roborun_middleware::{GraphInfo, MessageBus, Node, QosProfile};
use roborun_mission::cycle;
use roborun_perception::{ExportConfig, OccupancyMap, PlannerMap, PointCloud};
use roborun_planning::CollisionChecker;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Layers replayed outside the planner, in decision order. Their summed
/// time over the in-situ non-planning decision time is the replay
/// coverage.
pub const NON_PLANNING_LAYERS: [&str; 8] = [
    "dynamics.snapshot",
    "sim.capture",
    "core.profile",
    "core.govern",
    "perception.downsample",
    "perception.integrate",
    "perception.export",
    "dynamics.predict",
];

/// Planning layers replayed on the decisions that planned in situ.
pub const PLANNING_LAYERS: [&str; 2] = ["planning.checker", "planning.replay_plan"];

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Decision the span belongs to (unique across the run).
    pub decision: u64,
}

/// In-memory span store, written out once when the benchmark ends.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, decision: u64) -> usize {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            decision,
        });
        self.open.push(index);
        index
    }

    fn end(&mut self, index: usize) {
        self.spans[index].end_ns = self.now_ns();
        self.open.pop();
    }

    /// Runs `f` inside a span named `name`.
    fn span<R>(&mut self, name: &'static str, decision: u64, f: impl FnOnce() -> R) -> R {
        let index = self.begin(name, decision);
        let out = f();
        self.end(index);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration per span name (nanoseconds).
    pub fn totals(&self) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        for span in &self.spans {
            *totals.entry(span.name).or_insert(0) += span.end_ns - span.start_ns;
        }
        totals
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = span.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"decision\":{}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.decision
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Work counts gathered while replaying.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayCounts {
    pub points: u64,
    pub predicted_boxes: u64,
    pub map_voxels: u64,
    pub export_boxes: u64,
    pub delta_added: u64,
    pub delta_removed: u64,
    pub plan_attempts: u64,
    pub plans_ok: u64,
}

/// Replays one mission's decisions through the layer calls. `plan_times`
/// holds the sim timestamps of the decisions that planned in situ (the
/// `plan` spans' start times, which equal their decision's telemetry
/// time); the checker is patched and the planner runs on those only.
pub fn replay_mission(
    recorder: &mut Recorder,
    spec: &MissionSpec,
    outcome: &Outcome,
    plan_times: &[u64],
    first_decision_id: u64,
    counts: &mut ReplayCounts,
) {
    let cfg = &spec.cfg;
    let env = &spec.env;
    let world = spec.world.as_ref().filter(|w| !w.is_static());
    let rig = if world.is_some() {
        cfg.dynamic_camera_rig()
    } else {
        cfg.camera_rig()
    };
    let governor = Governor::new(cfg.governor_config());
    let mut map = OccupancyMap::new(governor.config().ranges.precision_min);
    map.set_stale_decay(cfg.voxel_decay);
    let fault_plan = (!cfg.fault_plan.is_healthy()).then(|| FaultPlan::new(cfg.fault_plan.clone()));
    let margin = cfg.drone.body_radius * cfg.planning_margin_factor;
    let seed_base = cfg.seed.wrapping_mul(0x9E37_79B9).wrapping_add(env.seed());
    let mix = cycle::sampling_mix_for(cfg.hazard_biased_sampling);
    let mut checker: Option<CollisionChecker> = None;
    let mut previous_export: Option<PlannerMap> = None;
    let mut previous: Option<(f64, Vec3)> = None;

    for (i, record) in outcome.result.telemetry.records().iter().enumerate() {
        let decision = i + 1;
        let id = first_decision_id + i as u64;
        let position = record.position;
        let frame = fault_plan
            .as_ref()
            .map(|plan| plan.frame(decision as u64))
            .unwrap_or_default();
        // Heading and speed from the motion since the previous decision:
        // telemetry records position, not velocity.
        let (yaw, speed, heading) = match previous {
            Some((t, p)) if record.time > t => {
                let motion = position - p;
                let planar = Vec3::new(motion.x, motion.y, 0.0);
                (
                    planar.y.atan2(planar.x),
                    motion.norm() / (record.time - t),
                    motion,
                )
            }
            _ => (0.0, 0.0, env.goal() - position),
        };
        previous = Some((record.time, position));
        let pose = Pose::new(position, yaw);
        let decision_span = recorder.begin("decision", id);

        let points = if frame.sensor_blackout {
            Vec::new()
        } else {
            let snapshot = world
                .map(|w| recorder.span("dynamics.snapshot", id, || w.snapshot_field(record.time)));
            let field = snapshot.as_ref().unwrap_or_else(|| env.field());
            recorder
                .span("sim.capture", id, || rig.capture(field, &pose))
                .points
        };
        counts.points += points.len() as u64;
        let cloud = PointCloud::new(position, points);
        let profile = recorder.span("core.profile", id, || {
            cfg.profilers
                .profile(&cloud, &map, None, position, speed, heading)
        });
        recorder.span("core.govern", id, || black_box(governor.decide(&profile)));

        // The in-situ knobs, so the perception and planning calls do the
        // work the mission did.
        let knobs = record.knobs;
        if !(frame.sensor_blackout || frame.map_stale) {
            map.set_epoch(decision as u64);
            let limited = recorder.span("perception.downsample", id, || {
                cloud
                    .downsampled(knobs.point_cloud_precision)
                    .volume_limited(position, knobs.octomap_volume)
            });
            recorder.span("perception.integrate", id, || {
                map.integrate_cloud(&limited, knobs.point_cloud_precision.max(0.5));
                map.retain_within(position, cfg.map_retain_radius);
            });
        }
        let export = recorder.span("perception.export", id, || {
            PlannerMap::export(
                &map,
                &ExportConfig::new(
                    knobs.map_to_planner_precision,
                    knobs.map_to_planner_volume,
                    position,
                ),
            )
        });
        counts.map_voxels += map.len() as u64;
        counts.export_boxes += export.len() as u64;
        if let Some(delta) = previous_export.as_ref().and_then(|p| export.delta_from(p)) {
            counts.delta_added += delta.added().len() as u64;
            counts.delta_removed += delta.removed().len() as u64;
        }
        if let Some(w) = world {
            let boxes = recorder.span("dynamics.predict", id, || {
                w.predicted_boxes(record.time, cfg.dynamic_lookahead)
            });
            counts.predicted_boxes += boxes.len() as u64;
        }

        if plan_times.binary_search(&record.time.to_bits()).is_ok() {
            let step = cycle::planning_check_step(&knobs);
            recorder.span("planning.checker", id, || match checker.as_mut() {
                Some(c) => {
                    c.update_map(export.clone());
                    c.set_check_step(step);
                }
                None => checker = Some(CollisionChecker::new(export.clone(), margin, step)),
            });
            let checker = checker.as_mut().expect("checker set just above");
            let planned = recorder.span("planning.replay_plan", id, || {
                let goal = cycle::local_goal(
                    env,
                    &export,
                    position,
                    cfg.planning_horizon,
                    cfg.drone.body_radius * 1.5,
                );
                let bounds = cycle::planning_bounds(position, goal, env.bounds());
                let planner = cycle::planner_for(seed_base, decision, &knobs, margin, mix);
                planner.plan_with_checker(
                    checker,
                    position,
                    goal,
                    &bounds,
                    record.commanded_velocity.max(0.5),
                )
            });
            counts.plan_attempts += 1;
            counts.plans_ok += u64::from(planned.is_ok());
        }
        recorder.end(decision_span);
        previous_export = Some(export);
    }
}

/// Replays the mission's bus traffic on a benchmark-owned bus: every
/// topic the mission used, at its mean payload size, published and taken
/// as many times as the mission did. Returns (publishes, nanoseconds).
/// The payload is a `String`, whose size the bus reads in O(1) like the
/// mission's own message types (a `Vec` would be summed element-wise).
pub fn replay_bus(graph: &GraphInfo) -> (u64, u64) {
    let bus = MessageBus::default();
    let talker = Node::new(&bus, "bench_talker").expect("fresh bus accepts the node name");
    let listener = Node::new(&bus, "bench_listener").expect("fresh bus accepts the node name");
    let mut publishes = 0u64;
    let mut elapsed_ns = 0u64;
    for topic in &graph.topics {
        let stats = topic.stats;
        if stats.messages_published == 0 {
            continue;
        }
        let name = topic.name.as_str();
        let publisher = talker
            .publisher::<String>(name)
            .expect("topic names come from a live bus");
        let subscription = listener
            .subscribe::<String>(name, QosProfile::reliable(8))
            .expect("topic names come from a live bus");
        let payload = "x".repeat((stats.bytes_published / stats.messages_published) as usize);
        let start = Instant::now();
        for _ in 0..stats.messages_published {
            publisher
                .publish(payload.clone())
                .expect("an open bus accepts a publish");
            black_box(subscription.try_recv());
        }
        elapsed_ns += start.elapsed().as_nanos() as u64;
        publishes += stats.messages_published;
    }
    (publishes, elapsed_ns)
}
