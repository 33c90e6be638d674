//! The shared decision-cycle core and the plan-ahead (speculative
//! planning) machinery built on top of it.
//!
//! One navigation decision is the same sequence of stages regardless of
//! the transport that carries it: **sense → profile → govern → operate
//! (perception) → cost → plan → follow**, plus the local-goal and
//! emergency-stop policies around the planning stage. Before this module
//! existed that sequence lived twice — inline in
//! [`crate::MissionRunner::run`] and re-expressed as bus nodes in
//! [`crate::node_pipeline`] — and drifted subtly (two `local_goal`
//! variants, two `first_blockage_distance` copies, two epoch-advance
//! loops). Both drivers are now thin: the direct runner drives a
//! `DecisionCycle` (which owns the whole per-mission state), and the
//! node pipeline's nodes delegate every policy decision to the free
//! functions here, keeping only the topic plumbing to themselves.
//!
//! # Plan-ahead: the snapshot / validation contract
//!
//! With [`crate::MissionConfig::plan_ahead`] enabled, a planner worker
//! thread speculatively plans decision *k + 1* while control executes the
//! epoch of decision *k*, hiding the planning stage's latency behind the
//! execution window (the ROADMAP's "concurrent planner instances" item;
//! the same overlap discipline Π-RT applies to heterogeneous pipeline
//! stages). The contract has three parts:
//!
//! 1. **Snapshot.** A speculation is a *pure function* of its request:
//!    a cloned [`Planner`] whose RRT* seed is the one decision *k + 1*
//!    owns (`seed_base + (k + 1)`), a cloned [`CollisionChecker`] with
//!    its broad-phase already built (so the worker never rebuilds), the
//!    drone position at the end of epoch *k* (bit-exact: nothing moves
//!    the drone between the epoch end and the next planning stage), and
//!    the local goal computed from the *snapshot* export. Determinism of
//!    the whole mission therefore survives the extra thread: the main
//!    loop blocks on the worker's answer before using it.
//!
//! 2. **Validation.** At decision *k + 1* the fresh export may differ
//!    from the snapshot. The speculative trajectory is re-checked
//!    *incrementally*: only the voxel keys the
//!    [`PlannerMapDelta`](roborun_perception::PlannerMapDelta) **added**
//!    since the snapshot can invalidate it (removed keys only free
//!    space, and the plan is already collision-free against the
//!    snapshot), so [`CollisionChecker::path_clear_of_added`] walks the
//!    trajectory polyline against those keys alone — sampled every
//!    `check_step` metres like a synchronous edge check, at the same
//!    `margin * 0.6` clearance the blockage detector uses, so an adopted
//!    plan is never immediately re-flagged as blocked by the very delta
//!    it was validated against and no added voxel can slip between two
//!    trajectory samples. The verdict is
//!    [`SpeculationVerdict::Adopted`] (plan valid, goal unchanged),
//!    [`SpeculationVerdict::Patched`] (plan valid but the local goal
//!    drifted with the new export — the trajectory is still adopted and
//!    the regular replan cadence corrects the goal), or
//!    [`SpeculationVerdict::Discarded`] (planning failed, the export
//!    precision knob changed the voxel size, or the re-check found an
//!    added voxel on the trajectory) — which falls back to a synchronous
//!    replan, exactly as if plan-ahead were off.
//!
//! 3. **Accounting.** An adopted (or patched) speculation removes the
//!    planning stage from the decision's critical path, but only up to
//!    the *overlap window*: work can only hide behind the previous
//!    epoch's duration, so `masked = min(planning, previous_epoch)`
//!    ([`roborun_sim::LatencyBreakdown::critical_path`]). The governor's
//!    budget law and the epoch advance then see the critical-path
//!    latency, and [`roborun_core::DecisionRecord::masked_latency`]
//!    records what overlap bought each decision.
//!
//! With plan-ahead **off**, no worker exists, every masked term is zero
//! and the decision sequence is bit-identical to the pre-refactor
//! behaviour (locked by the `golden_sweep` fixture).
//!
//! # Dynamic worlds: the sense / validate / budget contract
//!
//! A mission may run against a [`DynamicWorld`] (moving-obstacle actors
//! composed with the static field — see `roborun-dynamics`). The cycle
//! touches the dynamic world in exactly four places, each of which
//! degenerates to the static behaviour (bit for bit) when the world has
//! no actors:
//!
//! * **Sense** from the *snapshot* field of the current instant: the
//!   cameras see actors at their true poses, so actor surfaces enter the
//!   occupancy map like any other obstacle (and, with
//!   [`crate::MissionConfig::voxel_decay`] enabled, leave it again once
//!   their stale trail is re-observed free).
//! * **Validate** the followed trajectory — and any plan-ahead
//!   speculation — against the *predicted* occupancy over
//!   [`crate::MissionConfig::dynamic_lookahead`] seconds: a predicted
//!   box crossing the remaining trajectory forces a replan
//!   (`dynamic_replans`), and an arrived speculation whose path crosses
//!   a predicted box is discarded (`predicted_invalidations`).
//!   Predictions are conservative over-approximations (see the
//!   `roborun-dynamics` crate docs), so they only ever *discard* plans.
//! * **Budget** reaction time with the governor's closing-speed term
//!   ([`roborun_core::Governor::safe_velocity_closing`]): an obstacle
//!   approaching at `v_c` eats `v_c · latency` of the visible margin
//!   before the next decision can react.
//! * **Collide** against actors' true poses at every physics substep of
//!   the epoch advance, so ground-truth safety is judged against where
//!   actors actually are, never against predictions.
//!
//! Every predicted-occupancy query above goes through one
//! [`PredictedHazards`] source (see the `roborun_planning::hazard`
//! module docs for the full contract): the cycle *composes* it with the
//! long-lived static checker once per decision and *retargets* it from
//! the fresh predicted boxes (an incremental patch mirroring the
//! checker's map-delta patch). Blockage detection, the fresh-plan veto
//! and the speculation gate are all walks of that one source, so the
//! planner-side and validation-side notions of "clear" cannot drift.
//! With [`crate::MissionConfig::predicted_costmap`] enabled, the
//! synchronous and speculative searches additionally plan *through* the
//! composed [`HazardContext`], routing around predicted lanes in one
//! shot; the posterior veto is retained as the safety net and as the
//! reference reject-loop path (bit-identical whenever the flag is off
//! or the predicted set is empty).
//!
//! # Faults and graceful degradation
//!
//! A mission may arm a deterministic
//! [`FaultPlan`]
//! ([`crate::MissionConfig::fault_plan`]) and the degradation runtime
//! ([`crate::MissionConfig::degradation`]). Every injected fault is a
//! pure function of `(plan seed, decision index)` — see the
//! `roborun-faults` crate docs for the determinism contract — and with
//! a healthy plan every hook below is compiled down to a no-op branch,
//! keeping healthy missions bit-identical to the pre-fault behaviour
//! (locked by all golden fixtures):
//!
//! * **Sensor blackout / bursts** hit the sensing stage: a blackout
//!   loses the whole sweep and withholds map integration; a burst
//!   corrupts the surviving depth returns through a per-decision
//!   deterministic corruptor.
//! * **Stale-map epochs** withhold integration only: the planner keeps
//!   exporting from the aging map.
//! * **Planner latency spikes** inflate the modelled planning latency.
//!   With degradation armed, a **watchdog** aborts any attempt that
//!   exceeds [`crate::DegradationConfig::watchdog_budget`] (charging the
//!   full budget for the aborted attempt) and retries with
//!   multiplicatively backed-off injected latency, up to
//!   [`crate::DegradationConfig::max_retries`] times; an unrecovered
//!   abort degenerates to a forced planner failure. The fault-oblivious
//!   baseline just eats the spike, which serialises straight into the
//!   decision epoch.
//! * **Forced planner failures** leave the decision with no planner
//!   output. The degradation **fallback ladder** then runs: *reuse* the
//!   last valid trajectory while it is clear → *hover* in place
//!   (no motion command; the follower keeps its progress) → a
//!   wedge-retreat **safe-stop** once hovering has not bought a plan for
//!   [`crate::DegradationConfig::hover_limit`] consecutive decisions.
//!   A safe-stop deliberately ends the mission (`safe_stops = 1`,
//!   neither `collided` nor `reached_goal`): provably parked, not
//!   crashed.
//! * **Stale-perception derating**: the governor's data-age law
//!   ([`roborun_core::Governor::safe_velocity_stale`]) shaves the
//!   visible margin by how long ago the map last integrated fresh
//!   sensing, the same structure as the closing-speed term; perception
//!   older than [`crate::DegradationConfig::stale_hover_age`] seconds
//!   forces a hover rather than flying through unsensed space. Stale
//!   hovers never escalate to the safe-stop — hovering is indefinitely
//!   safe in a static world, and fresh sensing re-arms the mission the
//!   moment it returns.
//!
//! Each decision records its [`roborun_core::Degradation`] state in the
//! telemetry, and the mission metrics aggregate the counters
//! (`faults_injected`, `watchdog_fires`, `retries`, `degraded_decisions`,
//! `safe_stops`). The fault sweep ([`crate::sweep::run_fault_sweep`]) turns
//! this into the headline experiment: under identical fault plans the
//! fault-oblivious baseline collides or deadlocks while the
//! degradation-aware runtime completes or provably safe-stops.
//!
//! # The planner scratch
//!
//! The direct driver threads one per-mission [`PlannerScratch`] through
//! every synchronous plan, the bus driver through its long-lived-checker
//! plans, and the speculation worker owns another, so the RRT* search
//! buffers reach a steady state instead of being reallocated per
//! decision. The reuse is allocation-only: every search cold-starts from
//! the decision's own seed, bit-identical to a plan on a fresh scratch.

use crate::metrics::MissionMetrics;
use crate::runner::{DegradationConfig, MissionConfig, MissionResult};
use roborun_control::TrajectoryFollower;
use roborun_core::{
    DecisionRecord, Degradation, Governor, KnobSettings, MissionTelemetry, Policy, RuntimeMode,
    SpatialProfile,
};
use roborun_dynamics::{DynamicWorld, PoseCache};
use roborun_env::{Environment, Zone};
use roborun_faults::{FaultFrame, FaultPlan, SensorBurst};
use roborun_geom::{Aabb, Vec3};
use roborun_perception::{ExportConfig, OccupancyMap, PlannerMap, PointCloud};
use roborun_planning::{
    first_polyline_conflict, polyline_clear_of_boxes, CollisionChecker, HazardContext,
    PeerTrajectoryHazard, PlanError, PlanStats, Planner, PlannerConfig, PlannerScratch,
    PredictedHazards, RrtConfig, SamplingMix, Trajectory, TrajectoryPoint,
};
use roborun_sim::{
    CameraRig, DroneConfig, DroneState, EnergyModel, FaultConfig, FaultInjector, LatencyBreakdown,
    SimClock,
};
use std::sync::mpsc::{Receiver, Sender};

// ---------------------------------------------------------------------------
// Shared per-decision policies (used by both drivers)
// ---------------------------------------------------------------------------

/// Builds the per-decision burst corruptor both drivers use for the
/// fault plan's depth-noise bursts: a one-shot [`FaultInjector`] seeded
/// from the burst parameters (pure in the burst, so the corruption is a
/// deterministic function of `(plan seed, decision index)`).
pub(crate) fn burst_injector(burst: SensorBurst) -> FaultInjector {
    FaultInjector::new(FaultConfig {
        sweep_dropout_probability: 0.0,
        point_dropout_probability: burst.dropout,
        range_noise_std: burst.noise_std,
        fog_visibility_cap: f64::INFINITY,
        seed: burst.seed,
    })
}

/// Direction of travel used for the unknown-space probe: the current
/// velocity when moving, otherwise straight at the goal.
pub fn direction_towards(position: Vec3, goal: Vec3, velocity: Vec3) -> Vec3 {
    if velocity.norm() > 0.3 {
        velocity
    } else {
        goal - position
    }
}

/// Distance (metres, straight-line from `position`) to the first point of
/// the remaining trajectory (past `progress_time`) that collides with the
/// freshly exported map, or `None` when the remaining trajectory is clear
/// (knowledge gained since the last plan has not invalidated it). The
/// probe clearance is `margin * 0.6`, matching the planner's inflated
/// export voxels without double-counting the full margin.
pub fn first_blockage_distance(
    trajectory: &Trajectory,
    progress_time: f64,
    export: &PlannerMap,
    margin: f64,
    position: Vec3,
) -> Option<f64> {
    trajectory
        .remaining_from(progress_time)
        .points()
        .iter()
        .find(|p| export.is_occupied(p.position, margin * 0.6))
        .map(|p| p.position.distance(position))
}

/// Distance (metres, straight-line from `position`) to the first point of
/// the remaining trajectory that comes within `clearance` of any
/// *predicted* moving-obstacle box, or `None` when the remaining
/// trajectory clears every box. The dynamic counterpart of
/// [`first_blockage_distance`]: the boxes come from
/// [`DynamicWorld::predicted_boxes`] over the configured lookahead, so a
/// hit means an actor *may* cross the corridor — conservative by
/// construction, and used only to discard plans, never to admit them.
/// A thin wrapper over the unified hazard walk
/// ([`first_polyline_conflict`]); the in-cycle path runs the same walk
/// through the decision's retargeted [`PredictedHazards`].
pub fn predicted_blockage_distance(
    trajectory: &Trajectory,
    progress_time: f64,
    predicted: &[Aabb],
    clearance: f64,
    position: Vec3,
    max_range: f64,
) -> Option<f64> {
    let remaining = trajectory.remaining_from(progress_time);
    first_polyline_conflict(
        remaining.points().iter().map(|p| p.position),
        predicted,
        clearance,
        position,
        max_range,
    )
    .map(|p| p.distance(position))
}

/// `true` when the polyline through `points` stays clear of every
/// predicted box by more than `clearance` within `max_range` of
/// `origin` — the dynamic-world check an arrived plan-ahead speculation
/// (or a fresh synchronous plan) must additionally pass before adoption.
/// The polyline is sampled densely (segments can span metres; a
/// crossing actor must not slip between two waypoints). Points farther
/// than `max_range` are ignored: the MAV cannot reach them within the
/// prediction horizon, and the boxes say nothing about the world beyond
/// it — rejecting on far conflicts would only starve the mission (the
/// next decision re-predicts with fresher poses). A thin wrapper over
/// the unified hazard walk ([`polyline_clear_of_boxes`]).
pub fn path_clear_of_predicted(
    points: impl IntoIterator<Item = Vec3>,
    predicted: &[Aabb],
    clearance: f64,
    origin: Vec3,
    max_range: f64,
) -> bool {
    polyline_clear_of_boxes(points, predicted, clearance, origin, max_range)
}

/// Folds the static-map blockage and the predicted moving-obstacle
/// conflict into the single blockage distance the replan/brake machinery
/// reasons about: the nearer of the two (either alone when only one
/// fired). Both drivers share this merge so their dynamic behaviour
/// cannot drift.
pub fn merge_blockages(static_blockage: Option<f64>, predicted: Option<f64>) -> Option<f64> {
    match (static_blockage, predicted) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, None) => a,
        (None, b) => b,
    }
}

/// How far ahead a predicted moving-obstacle conflict is actionable: the
/// distance the MAV can cover within the lookahead at its current speed
/// (with a 1 m/s floor so a hovering drone still sees adjacent
/// conflicts), plus a body-clearance allowance. Conflicts beyond this
/// range cannot materialise within the prediction horizon — both drivers
/// share this policy.
pub fn predicted_relevance_range(speed: f64, lookahead: f64, margin: f64) -> f64 {
    speed.max(1.0) * lookahead + 2.0 * margin
}

/// Plans one decision's trajectory through the composed hazard context
/// when `one_shot`, retrying through the bare static checker when the
/// composed search fails (no route threads both the map and the
/// predicted lanes, or an endpoint sits inside one) — the retained
/// reject-loop reference path, whose posterior veto then governs the
/// result. With `one_shot` false this is exactly the bare-checker plan.
/// Shared by both drivers so the fallback policy cannot drift.
#[allow(clippy::too_many_arguments)]
pub(crate) fn plan_through_hazards(
    planner: &Planner,
    checker: &mut CollisionChecker,
    hazards: &PredictedHazards,
    one_shot: bool,
    start: Vec3,
    goal: Vec3,
    bounds: &Aabb,
    cruise: f64,
    scratch: &mut PlannerScratch,
) -> Result<(Trajectory, PlanStats), PlanError> {
    if one_shot {
        let mut context = HazardContext::new(checker, hazards);
        let outcome = planner.plan_with_scratch(&mut context, start, goal, bounds, cruise, scratch);
        if outcome.is_ok() {
            return outcome;
        }
    }
    planner.plan_with_scratch(checker, start, goal, bounds, cruise, scratch)
}

/// The speculation request's hazard source: this decision's boxes
/// re-anchored at the post-epoch position the speculation starts from
/// (empty when the costmap is off, keeping the worker bit-identical to a
/// bare-checker plan). Shared by both drivers so the re-anchor policy
/// lives once.
pub(crate) fn speculation_hazards(
    hazards: &PredictedHazards,
    predicted_costmap: bool,
    start: Vec3,
    speed: f64,
    lookahead: f64,
    margin: f64,
) -> PredictedHazards {
    if predicted_costmap && !hazards.is_empty() {
        hazards.reanchored(start, predicted_relevance_range(speed, lookahead, margin))
    } else {
        PredictedHazards::empty()
    }
}

/// A short, slow straight-line manoeuvre directly away from the nearest
/// exported occupied box (straight up when the export is empty or the
/// position is swallowed by a box), clipped so it does not run into
/// other mapped occupancy. Used only to un-wedge a start-blocked drone
/// in a dynamic mission: static missions never park inside the margin
/// shell of mapped occupancy, but an escape manoeuvre or a passing actor
/// can leave a dynamic one there, where every plan is start-blocked
/// forever.
pub fn retreat_trajectory(export: &PlannerMap, pos: Vec3, margin: f64) -> Trajectory {
    let away = export
        .boxes()
        .iter()
        .min_by(|a, b| {
            a.distance_to_point(pos)
                .partial_cmp(&b.distance_to_point(pos))
                .expect("distances are never NaN")
        })
        .map(|b| pos - b.closest_point(pos))
        .and_then(|v| v.try_normalize())
        .unwrap_or(Vec3::Z);
    let mut length: f64 = 0.5;
    while length < 2.5 && !export.is_occupied(pos + away * (length + 0.5), margin * 0.3) {
        length += 0.5;
    }
    let speed = 0.4;
    Trajectory::new(vec![
        TrajectoryPoint {
            time: 0.0,
            position: pos,
            speed,
        },
        TrajectoryPoint {
            time: length / speed,
            position: pos + away * length,
            speed,
        },
    ])
}

/// Axis-aligned sampling bounds for the local planning problem.
pub fn planning_bounds(start: Vec3, goal: Vec3, world: Aabb) -> Aabb {
    let corridor = Aabb::new(start, goal).inflate(25.0);
    corridor.intersection(&world).unwrap_or(corridor)
}

/// Zone enum → the single-character label used in telemetry.
pub fn zone_label(zone: Zone) -> char {
    match zone {
        Zone::A => 'A',
        Zone::B => 'B',
        Zone::C => 'C',
    }
}

/// Receding-horizon local goal: a free point towards the mission goal, at
/// most `horizon` metres ahead, nudged laterally when the direct candidate
/// is blocked in the exported map at `probe_margin` clearance.
pub fn local_goal(
    env: &Environment,
    export: &PlannerMap,
    position: Vec3,
    horizon: f64,
    probe_margin: f64,
) -> Vec3 {
    let goal = env.goal();
    let to_goal = goal - position;
    let distance = to_goal.norm();
    if distance <= horizon {
        return goal;
    }
    let dir = to_goal / distance;
    let base = position + dir * horizon;
    if !export.is_occupied(base, probe_margin) {
        return base;
    }
    let lateral = Vec3::new(-dir.y, dir.x, 0.0);
    for offset in [4.0, -4.0, 8.0, -8.0, 14.0, -14.0, 20.0, -20.0] {
        let candidate = base + lateral * offset;
        if env.bounds().contains(candidate) && !export.is_occupied(candidate, probe_margin) {
            return candidate;
        }
    }
    base
}

/// The mission-level sampling mix for a config flag: the planner's
/// default weights, gated on
/// [`crate::MissionConfig::hazard_biased_sampling`]. Disabled it is the
/// planner default, so every existing plan stays bit-identical.
pub fn sampling_mix_for(enabled: bool) -> SamplingMix {
    SamplingMix {
        enabled,
        ..SamplingMix::default()
    }
}

/// The per-decision planner both drivers instantiate: decision-owned RRT*
/// seed, the governor's planner-volume knob, the planning-precision
/// knob as the collision sample spacing, and the mission's sampling mix
/// (advisory hazard bias, a no-op when disabled or hazard-free).
pub fn planner_for(
    seed_base: u64,
    decision: usize,
    knobs: &KnobSettings,
    margin: f64,
    mix: SamplingMix,
) -> Planner {
    Planner::new(PlannerConfig {
        rrt: RrtConfig {
            seed: seed_base.wrapping_add(decision as u64),
            max_explored_volume: knobs.planner_volume,
            max_samples: 900,
            sampling_mix: mix,
            ..RrtConfig::default()
        },
        margin,
        collision_check_step: planning_check_step(knobs),
        ..PlannerConfig::default()
    })
}

/// Collision-check sample spacing for a knob assignment (the planning
/// precision knob, floored at the substrate's 0.3 m).
pub fn planning_check_step(knobs: &KnobSettings) -> f64 {
    knobs.map_to_planner_precision.max(0.3)
}

/// The emergency-stop rule shared by both drivers: a blockage is imminent
/// when it sits inside the stopping distance plus the driver's reaction
/// window plus a body-clearance allowance — the reaction the
/// stopping-distance term of Eq. 1 budgets for. Blockages further out
/// leave time to keep flying while replanning (and coarse-voxel false
/// positives resolve as the MAV gets close and precision tightens).
pub fn blockage_is_imminent(
    blockage: f64,
    stopping_distance: f64,
    reaction: f64,
    body_clearance: f64,
) -> bool {
    blockage <= stopping_distance + reaction + body_clearance
}

/// Advances the physical world for one decision epoch in fixed 0.25 s
/// substeps, charging energy and detecting collisions. `command` yields
/// the active trajectory's steering target and speed for a substep (or
/// `None` to brake along the current motion direction and hover); the
/// speed is clamped to the commanded velocity. `dynamic_hit` is the
/// moving-obstacle collision test, called with the drone position and the
/// simulation time *after* each substep (so actors are judged at their
/// true pose of that instant) — pass `|_, _| false` in a static world.
/// Returns `true` when the drone collided during the epoch.
#[allow(clippy::too_many_arguments)]
pub fn advance_epoch(
    drone: &mut DroneState,
    clock: &mut SimClock,
    energy_joules: &mut f64,
    env: &Environment,
    drone_cfg: &DroneConfig,
    energy_model: &EnergyModel,
    epoch: f64,
    commanded_velocity: f64,
    mut command: impl FnMut(Vec3, f64) -> Option<(Vec3, f64)>,
    mut dynamic_hit: impl FnMut(Vec3, f64) -> bool,
) -> bool {
    let substep = 0.25f64;
    let mut remaining = epoch;
    while remaining > 1e-9 {
        let dt = substep.min(remaining);
        remaining -= dt;
        let (target, speed) = match command(drone.position, dt) {
            Some((target, speed)) => (target, speed.min(commanded_velocity)),
            // No active trajectory: brake along the current motion
            // direction (acceleration-limited), then hover.
            None => (drone.position + drone.velocity, 0.0),
        };
        drone.advance_towards(drone_cfg, target, speed, dt);
        *energy_joules += energy_model.energy_for(drone.speed(), dt);
        clock.advance(dt);
        if env
            .field()
            .is_occupied_with_margin(drone.position, drone_cfg.body_radius * 0.8)
        {
            return true;
        }
        if dynamic_hit(drone.position, clock.now()) {
            return true;
        }
    }
    false
}

/// Running totals of the dynamic-world machinery over one mission.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DynamicsStats {
    /// Decisions where a predicted moving-obstacle conflict forced a
    /// replan.
    pub dynamic_replans: usize,
    /// Arrived speculations discarded by the predicted-occupancy check.
    pub predicted_invalidations: usize,
}

/// Running totals of the fault-injection and graceful-degradation
/// machinery over one mission. All zero on healthy missions with
/// degradation disarmed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DegradationStats {
    /// Fault-channel activations injected by the armed fault plan.
    pub faults_injected: usize,
    /// Decisions on which the planning watchdog aborted an over-budget
    /// planning attempt.
    pub watchdog_fires: usize,
    /// Bounded planning retries attempted after watchdog aborts.
    pub retries: usize,
    /// Decisions recorded with a non-healthy degradation state.
    pub degraded_decisions: usize,
    /// 1 when the mission ended in a deliberate wedge-retreat safe-stop.
    pub safe_stops: usize,
}

/// Applies the frame's planner fault channels to the modelled latency
/// breakdown — shared by both drivers so the watchdog arithmetic cannot
/// drift between them. With degradation armed, the **watchdog** aborts
/// any planning attempt whose modelled latency would exceed the budget
/// (charging the full budget for the aborted attempt) and retries with
/// multiplicatively backed-off injected latency up to `max_retries`
/// times; an unrecovered abort degenerates to a forced planner failure.
/// The fault-oblivious baseline just eats the spike — it serialises
/// straight into the decision epoch. Returns the degradation state so
/// far and whether the decision's planner output is lost outright
/// (injected failure, or an unrecovered watchdog abort).
pub(crate) fn apply_planner_faults(
    breakdown: &mut LatencyBreakdown,
    frame: &FaultFrame,
    policy: &DegradationConfig,
    stats: &mut DegradationStats,
) -> (Degradation, bool) {
    let mut degradation = Degradation::Healthy;
    let mut forced_failure = frame.planner_failure;
    if frame.planner_spike > 0.0 {
        if policy.enabled {
            let nominal = breakdown.planning;
            let mut spike = frame.planner_spike;
            if nominal + spike > policy.watchdog_budget {
                stats.watchdog_fires += 1;
                // The aborted attempt still costs the full budget.
                let mut charged = policy.watchdog_budget;
                let mut recovered = false;
                for retry in 1..=policy.max_retries {
                    spike *= policy.retry_backoff;
                    let attempt = nominal + spike;
                    if attempt <= policy.watchdog_budget {
                        charged += attempt;
                        stats.retries += retry as usize;
                        recovered = true;
                        break;
                    }
                    charged += policy.watchdog_budget;
                    if retry == policy.max_retries {
                        stats.retries += retry as usize;
                    }
                }
                breakdown.planning = charged;
                if recovered {
                    degradation = Degradation::RetriedPlan;
                } else {
                    forced_failure = true;
                }
            } else {
                breakdown.planning = nominal + spike;
            }
        } else {
            breakdown.planning += frame.planner_spike;
        }
    }
    (degradation, forced_failure)
}

/// Emits one [`roborun_trace::SpanKind::Plan`] event carrying the
/// planner's per-invocation counters (zero-length on the sim clock — the
/// planning *stage* span already shows the modeled latency; this event
/// carries the search internals and the measured wall time). Shared by
/// the synchronous path and the plan-ahead worker; no-op when disarmed.
pub(crate) fn emit_plan_span(
    stats: &PlanStats,
    sim_time: f64,
    timer: &Option<roborun_trace::WallTimer>,
) {
    if !roborun_trace::armed() {
        return;
    }
    roborun_trace::collector::complete(
        roborun_trace::SpanKind::Plan,
        sim_time,
        0.0,
        roborun_trace::timer_ns(timer),
        &[
            ("samples_drawn", stats.samples_drawn as f64),
            ("tree_size", stats.tree_size as f64),
            ("rewires", stats.rewires as f64),
            ("batch_rounds", stats.batch_rounds as f64),
            ("collision_queries", stats.collision_queries as f64),
            ("explored_volume", stats.explored_volume),
            ("volume_capped", f64::from(u8::from(stats.volume_capped))),
        ],
    );
}

/// Stable trace label of a degradation-ladder rung.
pub(crate) fn degradation_label(degradation: Degradation) -> &'static str {
    match degradation {
        Degradation::Healthy => "healthy",
        Degradation::StalePerception => "stale_perception",
        Degradation::RetriedPlan => "retried_plan",
        Degradation::ReusedTrajectory => "reused_trajectory",
        Degradation::Hover => "hover",
        Degradation::SafeStop => "safe_stop",
    }
}

/// Assembles the mission-level metrics both drivers report.
#[allow(clippy::too_many_arguments)]
pub(crate) fn finalize_metrics(
    mode: RuntimeMode,
    mission_time: f64,
    energy_joules: f64,
    telemetry: &MissionTelemetry,
    drone: &DroneState,
    decisions: usize,
    reached_goal: bool,
    collided: bool,
    plan_ahead: &PlanAheadStats,
    dynamics: &DynamicsStats,
    degradation: &DegradationStats,
) -> MissionMetrics {
    MissionMetrics {
        mode,
        mission_time,
        energy_kj: energy_joules / 1000.0,
        mean_velocity: drone.distance_travelled / mission_time,
        mean_cpu_utilization: telemetry.mean_cpu_utilization(),
        median_latency: telemetry.median_latency().unwrap_or(0.0),
        p95_latency: telemetry.p95_latency().unwrap_or(0.0),
        p99_latency: telemetry.p99_latency().unwrap_or(0.0),
        max_latency: telemetry.max_latency().unwrap_or(0.0),
        decisions,
        distance_travelled: drone.distance_travelled,
        reached_goal,
        collided,
        masked_planning_latency: plan_ahead.masked_latency,
        plan_ahead_attempts: plan_ahead.attempts,
        plan_ahead_hits: plan_ahead.hits,
        dynamic_replans: dynamics.dynamic_replans,
        predicted_invalidations: dynamics.predicted_invalidations,
        faults_injected: degradation.faults_injected,
        watchdog_fires: degradation.watchdog_fires,
        retries: degradation.retries,
        degraded_decisions: degradation.degraded_decisions,
        safe_stops: degradation.safe_stops,
        warm_replans: 0,
        planner_nodes_retained: 0,
        planner_nodes_pruned: 0,
    }
}

// ---------------------------------------------------------------------------
// Plan-ahead machinery
// ---------------------------------------------------------------------------

/// Running totals of the plan-ahead machinery over one mission.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlanAheadStats {
    /// Speculations launched.
    pub attempts: usize,
    /// Speculations adopted (including goal-drift patches).
    pub hits: usize,
    /// Planning latency masked from the critical path (seconds).
    pub masked_latency: f64,
}

/// A speculation request: everything the worker needs to plan decision
/// *k + 1* as a pure function (see the module docs' snapshot contract).
/// With [`crate::MissionConfig::predicted_costmap`] on, the request also
/// carries the decision's predicted hazards, so the speculative search
/// itself routes around predicted lanes (an empty set keeps the worker
/// bit-identical to a bare-checker plan).
pub(crate) struct SpeculationRequest {
    pub(crate) planner: Planner,
    pub(crate) checker: CollisionChecker,
    pub(crate) hazards: PredictedHazards,
    pub(crate) start: Vec3,
    pub(crate) goal: Vec3,
    pub(crate) bounds: Aabb,
    pub(crate) cruise: f64,
    /// Sim time of the launching decision — the timestamp the worker's
    /// trace events carry (the worker owns no clock of its own).
    pub(crate) launched_at: f64,
}

/// The worker's answer to a [`SpeculationRequest`].
pub(crate) struct SpeculationOutcome {
    pub(crate) outcome: Result<(Trajectory, PlanStats), PlanError>,
}

/// Serves speculation requests until the requesting side hangs up. Runs on
/// the scoped worker thread [`crate::MissionRunner::run`] spawns when
/// plan-ahead is enabled.
pub(crate) fn speculation_worker(
    requests: Receiver<SpeculationRequest>,
    outcomes: Sender<SpeculationOutcome>,
) {
    roborun_trace::collector::set_track(roborun_trace::SPECULATION_TRACK);
    // Worker-owned scratch: the search buffers reach a steady state
    // across requests instead of reallocating per speculation.
    let mut scratch = PlannerScratch::new();
    while let Ok(mut request) = requests.recv() {
        let plan_timer = roborun_trace::timer();
        let mut context = HazardContext::new(&mut request.checker, &request.hazards);
        let outcome = request.planner.plan_with_scratch(
            &mut context,
            request.start,
            request.goal,
            &request.bounds,
            request.cruise,
            &mut scratch,
        );
        if let Ok((_, stats)) = &outcome {
            emit_plan_span(stats, request.launched_at, &plan_timer);
        }
        if outcomes.send(SpeculationOutcome { outcome }).is_err() {
            break;
        }
    }
    roborun_trace::collector::flush();
}

/// The mission loop's handle on the speculation worker.
pub(crate) struct PlanAheadWorker {
    pub(crate) requests: Sender<SpeculationRequest>,
    pub(crate) outcomes: Receiver<SpeculationOutcome>,
}

impl PlanAheadWorker {
    pub(crate) fn new(
        requests: Sender<SpeculationRequest>,
        outcomes: Receiver<SpeculationOutcome>,
    ) -> Self {
        PlanAheadWorker { requests, outcomes }
    }
}

/// The snapshot-side metadata of an in-flight speculation, kept by the
/// main loop while the worker plans.
struct PendingSpeculation {
    /// Export snapshot the speculation planned against.
    snapshot: PlannerMap,
    /// Start position handed to the worker (the drone position at the end
    /// of the previous epoch — must still hold bit-exactly on arrival).
    start: Vec3,
    /// Local goal computed from the snapshot export.
    goal: Vec3,
    /// Overlap window: the previous epoch's duration (seconds). Masked
    /// planning latency can never exceed it.
    window: f64,
}

/// Verdict of validating an arrived speculation against the fresh export.
#[derive(Debug, Clone, PartialEq)]
pub enum SpeculationVerdict {
    /// Plan valid under the incremental re-check and the local goal is
    /// unchanged: execute it.
    Adopted(Trajectory),
    /// Plan valid under the incremental re-check but the local goal
    /// drifted with the new export: execute it anyway; the replan cadence
    /// corrects the goal within `replan_every` decisions.
    Patched(Trajectory),
    /// Planning failed, the export voxel size changed, the start moved,
    /// or an added voxel blocks the trajectory: fall back to a
    /// synchronous replan.
    Discarded,
}

/// Validates a speculative plan against the export that actually arrived:
/// the incremental re-check of the module docs' validation contract.
/// `clearance` is the blockage-detector clearance (`margin * 0.6`);
/// `sample_step` is the planning-precision collision sample spacing the
/// synchronous path would use for this decision's knobs.
#[allow(clippy::too_many_arguments)]
pub fn validate_speculation(
    outcome: &Result<(Trajectory, PlanStats), PlanError>,
    snapshot: &PlannerMap,
    speculated_start: Vec3,
    speculated_goal: Vec3,
    fresh_export: &PlannerMap,
    fresh_goal: Vec3,
    position: Vec3,
    clearance: f64,
    sample_step: f64,
) -> SpeculationVerdict {
    let Ok((trajectory, _stats)) = outcome else {
        return SpeculationVerdict::Discarded;
    };
    if speculated_start != position {
        return SpeculationVerdict::Discarded;
    }
    let Some(delta) = fresh_export.delta_from(snapshot) else {
        // The export precision knob changed the voxel size: no key-level
        // delta exists, so the plan cannot be re-validated incrementally.
        return SpeculationVerdict::Discarded;
    };
    if !CollisionChecker::path_clear_of_added(
        &delta,
        trajectory.points().iter().map(|p| p.position),
        clearance,
        sample_step,
    ) {
        return SpeculationVerdict::Discarded;
    }
    if speculated_goal == fresh_goal {
        SpeculationVerdict::Adopted(trajectory.clone())
    } else {
        SpeculationVerdict::Patched(trajectory.clone())
    }
}

// ---------------------------------------------------------------------------
// The decision cycle (direct-driver core)
// ---------------------------------------------------------------------------

/// Output of the sensing stage.
pub(crate) struct Sensed {
    /// The (possibly fault-corrupted) point cloud of this decision.
    pub raw_cloud: PointCloud,
}

/// Output of the planning stage.
struct Planned {
    /// Straight-line distance to the first blockage on the remaining
    /// trajectory, if any.
    blockage: Option<f64>,
    /// Whether a replacement trajectory was installed this decision.
    replanned: bool,
    /// The drone's own position sits inside the predicted occupancy of a
    /// moving obstacle: escape beats braking.
    in_danger: bool,
    /// Whether this decision needed a plan at all (cadence, finished
    /// trajectory, blockage or danger) — the degradation ladder only
    /// engages when a needed plan failed.
    needed: bool,
}

/// The full per-mission state of the direct driver, advanced one decision
/// at a time by [`DecisionCycle::run_decision`]. [`crate::MissionRunner`]
/// owns nothing beyond its config; everything the loop touches lives here.
pub(crate) struct DecisionCycle<'m> {
    cfg: &'m MissionConfig,
    env: &'m Environment,
    /// Moving-obstacle world, or `None` for the classic static mission.
    /// A `Some` world with an empty actor set behaves bit-identically to
    /// `None` (every dynamic hook degenerates — see the module docs).
    dynamics: Option<&'m DynamicWorld>,
    governor: Governor,
    rig: CameraRig,
    planner_seed_base: u64,
    planning_margin: f64,
    baseline_velocity: f64,
    fault_injector: Option<FaultInjector>,
    drone: DroneState,
    clock: SimClock,
    map: OccupancyMap,
    telemetry: MissionTelemetry,
    flown_path: Vec<Vec3>,
    flown_times: Vec<f64>,
    follower: Option<TrajectoryFollower>,
    // One collision checker lives across the whole mission: each replan
    // patches its broad-phase from the export delta instead of rebuilding
    // it from scratch (the margin never changes mid-run).
    collision: Option<CollisionChecker>,
    // The predicted (soft) hazard source, retargeted every decision from
    // the dynamic world's predicted boxes — the other half of the
    // composed hazard context. Empty (and inert) in static worlds.
    hazards: PredictedHazards,
    // Committed trajectories of the *other* drones sharing this world
    // (fleet missions). Their swept boxes are merged into the predicted
    // vector above before every retarget, so blockage detection, the
    // composed planning context, the escape trigger and the speculation
    // gate all treat a peer's corridor exactly like predicted occupancy.
    // Empty (and inert, bit for bit) in single-drone missions.
    peers: PeerTrajectoryHazard,
    // Random-walk replay anchors: every cached world view is bit-identical
    // to the plain one, but walker poses cost O(1) per decision instead of
    // O(t / dwell).
    pose_cache: PoseCache,
    energy_joules: f64,
    collided: bool,
    reached_goal: bool,
    decisions: usize,
    decisions_since_plan: usize,
    pending: Option<PendingSpeculation>,
    stats: PlanAheadStats,
    // The RRT* search buffers, reused by every synchronous plan (see the
    // module docs).
    scratch: PlannerScratch,
    dynamics_stats: DynamicsStats,
    // Deterministic fault plan (None when the config is healthy — the
    // whole degradation machinery then stays off the hot path).
    fault_plan: Option<FaultPlan>,
    degradation_stats: DegradationStats,
    // Simulation time of the last decision that integrated fresh sensing
    // into the map; `now - last_integration_time` is the perception data
    // age the stale-derating law sees.
    last_integration_time: f64,
    // Consecutive planner-failure hovers (the degradation ladder
    // escalates to a safe-stop when this exceeds the configured limit).
    hover_streak: u32,
    // The ladder bottomed out: a wedge-retreat was flown and the mission
    // deliberately ended (provably safe-stopped, not crashed).
    safe_stopped: bool,
    // Previous decision's ladder rung, so the tracer can emit
    // degradation *transitions* instead of one instant per decision.
    last_degradation: Degradation,
}

impl<'m> DecisionCycle<'m> {
    pub(crate) fn new(
        cfg: &'m MissionConfig,
        env: &'m Environment,
        dynamics: Option<&'m DynamicWorld>,
    ) -> Self {
        let governor = Governor::new(cfg.governor_config());
        let rig = match dynamics {
            Some(world) if !world.is_static() => cfg.dynamic_camera_rig(),
            _ => cfg.camera_rig(),
        };
        let planner_seed_base = cfg.seed.wrapping_mul(0x9E37_79B9).wrapping_add(env.seed());
        let fault_injector = (!cfg.faults.is_healthy()).then(|| FaultInjector::new(cfg.faults));
        let fault_plan =
            (!cfg.fault_plan.is_healthy()).then(|| FaultPlan::new(cfg.fault_plan.clone()));
        let drone = DroneState::at(env.start());
        let mut map = OccupancyMap::new(governor.config().ranges.precision_min);
        map.set_stale_decay(cfg.voxel_decay);
        let baseline_velocity = governor.baseline_velocity();
        let planning_margin = cfg.drone.body_radius * cfg.planning_margin_factor;
        let hazards = PredictedHazards::new(Vec::new(), planning_margin * 0.6, drone.position, 0.0);
        // Peer corridors carry two stacked margins: the swept boxes are
        // inflated by a hard two-body allowance (either drone's centre may
        // sit a body radius inside its own corridor wall), and queries add
        // the same soft standoff the predicted source uses.
        let mut peers =
            PeerTrajectoryHazard::new(planning_margin * 0.6, cfg.drone.body_radius * 2.0);
        for (id, polyline) in cfg.peer_trajectories.iter().enumerate() {
            peers.set_peer(id as u64, polyline);
        }
        let pose_cache = dynamics.map(DynamicWorld::pose_cache).unwrap_or_default();
        DecisionCycle {
            cfg,
            env,
            dynamics,
            governor,
            rig,
            planner_seed_base,
            planning_margin,
            baseline_velocity,
            fault_injector,
            flown_path: vec![drone.position],
            flown_times: vec![0.0],
            drone,
            clock: SimClock::new(),
            map,
            telemetry: MissionTelemetry::new(cfg.mode),
            follower: None,
            collision: None,
            hazards,
            peers,
            pose_cache,
            energy_joules: 0.0,
            collided: false,
            reached_goal: false,
            decisions: 0,
            decisions_since_plan: usize::MAX / 2, // force an initial plan
            pending: None,
            stats: PlanAheadStats::default(),
            scratch: PlannerScratch::new(),
            dynamics_stats: DynamicsStats::default(),
            fault_plan,
            degradation_stats: DegradationStats::default(),
            last_integration_time: 0.0,
            hover_streak: 0,
            safe_stopped: false,
            last_degradation: Degradation::Healthy,
        }
    }

    /// `true` while the mission should take another decision.
    pub(crate) fn mission_open(&self) -> bool {
        !self.collided
            && !self.reached_goal
            && !self.safe_stopped
            && self.decisions < self.cfg.max_decisions
            && self.clock.now() < self.cfg.max_mission_time
    }

    // ------------------------------------------------- fleet interface

    /// Current simulation time — the fleet coordinator's lockstep
    /// scheduling key (the open cycle with the smallest clock decides
    /// next, so no drone's committed trajectory goes stale in peers).
    pub(crate) fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Current drone position.
    pub(crate) fn position(&self) -> Vec3 {
        self.drone.position
    }

    /// The polyline this drone is committed to fly from here: its
    /// current position followed by the remaining points of the active
    /// trajectory — or the position alone when no trajectory is active
    /// (parked, hovering before the first plan, or finished). A parked
    /// drone still occupies its hover point, so the single-point
    /// polyline keeps peers from planning through it.
    pub(crate) fn committed_polyline(&self) -> Vec<Vec3> {
        let mut points = vec![self.drone.position];
        if let Some(f) = self.follower.as_ref() {
            if !f.finished() {
                points.extend(
                    f.trajectory()
                        .remaining_from(f.progress_time())
                        .points()
                        .iter()
                        .map(|p| p.position),
                );
            }
        }
        points
    }

    /// Publishes (or refreshes) a peer's committed polyline into this
    /// drone's peer-hazard source. Re-publishing a bitwise-identical
    /// polyline is a no-op; an empty polyline removes the peer.
    pub(crate) fn set_peer_trajectory(&mut self, id: u64, polyline: &[Vec3]) {
        self.peers.set_peer(id, polyline);
    }

    // ------------------------------------------------------------ stages

    /// Sensing: capture the camera rig (from the dynamic snapshot field
    /// of the current instant when actors exist), apply sensor faults.
    /// A fault-plan blackout loses the whole sweep; a burst corrupts the
    /// surviving returns through a per-decision deterministic corruptor.
    fn sense(&mut self, frame: &FaultFrame) -> Sensed {
        let pose = self.drone.pose();
        if frame.sensor_blackout {
            return Sensed {
                raw_cloud: PointCloud::new(pose.position, Vec::new()),
            };
        }
        let snapshot;
        let field = match self.dynamics {
            Some(world) if !world.is_static() => {
                snapshot = world.snapshot_field_cached(self.clock.now(), &mut self.pose_cache);
                &snapshot
            }
            _ => self.env.field(),
        };
        let scan = self.rig.capture(field, &pose);
        let mut sensed_points = match self.fault_injector.as_mut() {
            Some(injector) => injector.corrupt_sweep(pose.position, &scan.points),
            None => scan.points.clone(),
        };
        if let Some(burst) = frame.sensor_burst {
            sensed_points = burst_injector(burst).corrupt_sweep(pose.position, &sensed_points);
        }
        Sensed {
            raw_cloud: PointCloud::new(pose.position, sensed_points),
        }
    }

    /// Profiling: the spatial profile the governor decides from.
    fn profile(&self, sensed: &Sensed) -> SpatialProfile {
        let heading = direction_towards(self.drone.position, self.env.goal(), self.drone.velocity);
        let trajectory_ref = self.follower.as_ref().map(|f| f.trajectory().clone());
        let mut profile = self.cfg.profilers.profile(
            &sensed.raw_cloud,
            &self.map,
            trajectory_ref.as_ref(),
            self.drone.position,
            self.drone.speed(),
            heading,
        );
        if let Some(injector) = self.fault_injector.as_ref() {
            // Fog also limits how far the MAV can trust its view, which
            // the deadline equation must see.
            profile.visibility = profile.visibility.min(injector.visibility_cap());
        }
        profile
    }

    /// Governing: profile → policy.
    fn govern(&self, profile: &SpatialProfile) -> Policy {
        self.governor.decide(profile)
    }

    /// Perception operators: downsample, volume-limit, integrate, retain,
    /// export under the policy's knobs. A blackout or stale-map fault
    /// withholds integration entirely — the planner keeps exporting from
    /// the aging map, and the data age feeds the stale-derating law.
    fn apply_operators(
        &mut self,
        sensed: &Sensed,
        knobs: &KnobSettings,
        stale: bool,
    ) -> PlannerMap {
        if !stale {
            // Stamp the decay epoch before integrating: with voxel decay
            // enabled, this decision's occupied observations are "fresh"
            // and older ones age against this counter (no-op when decay
            // is off).
            self.map.set_epoch(self.decisions as u64);
            let downsampled = sensed.raw_cloud.downsampled(knobs.point_cloud_precision);
            let limited = downsampled.volume_limited(self.drone.position, knobs.octomap_volume);
            // Substrate note: free-space carving uses a step no finer than
            // 0.5 m regardless of the knob — the latency charged for the
            // stage comes from the calibrated model, so the carve step only
            // affects map fidelity, not the reported cost.
            let carve_step = knobs.point_cloud_precision.max(0.5);
            self.map.integrate_cloud(&limited, carve_step);
            self.map
                .retain_within(self.drone.position, self.cfg.map_retain_radius);
            self.last_integration_time = self.clock.now();
        }
        PlannerMap::export(
            &self.map,
            &ExportConfig::new(
                knobs.map_to_planner_precision,
                knobs.map_to_planner_volume,
                self.drone.position,
            ),
        )
    }

    /// Decision cost: the calibrated model's latency breakdown for the
    /// knob assignment.
    fn decision_cost(&self, knobs: &KnobSettings) -> LatencyBreakdown {
        self.cfg.latency.decision_breakdown(
            knobs.point_cloud_precision,
            knobs.octomap_volume,
            knobs.map_to_planner_precision,
            knobs.map_to_planner_volume,
            knobs.map_to_planner_precision,
            knobs.planner_volume,
            self.cfg.mode.is_aware(),
        )
    }

    /// Planning: blockage detection, speculation validation (plan-ahead),
    /// synchronous replanning with the fine-export fallback. Returns the
    /// blockage distance and whether a plan was installed; the masked
    /// planning latency of an adopted speculation is returned separately
    /// by [`DecisionCycle::take_speculation`].
    fn plan(
        &mut self,
        export: &PlannerMap,
        knobs: &KnobSettings,
        commanded_velocity: f64,
        speculative: Option<SpeculationVerdict>,
        in_danger: bool,
        forced_failure: bool,
    ) -> Planned {
        let static_blockage = self.first_blockage(export);
        // A moving obstacle predicted to cross the remaining trajectory
        // is a blockage too: it forces the same replan/brake machinery,
        // at the same clearance, judged at the distance the conflict
        // sits from the drone. A predicted box over the drone's *own*
        // position (`in_danger`) additionally forces an escape replan —
        // hovering inside a crossing lane is the one thing the MAV must
        // never do.
        let predicted_conflict = self.predicted_blockage();
        if predicted_conflict.is_some() || in_danger {
            self.dynamics_stats.dynamic_replans += 1;
        }
        let blockage = merge_blockages(static_blockage, predicted_conflict);
        let need_plan = self.need_plan(blockage) || in_danger;
        let mut replanned = false;
        // A forced planner failure (fault plan, or an unrecovered
        // watchdog abort) means no planner output exists this decision:
        // the synchronous path is skipped outright and `take_speculation`
        // already discarded any arrived speculation before the overlap
        // accounting. The caller's degradation ladder (or, for the
        // fault-oblivious baseline, nothing at all) takes over.
        if need_plan && !forced_failure {
            match speculative {
                // `take_speculation` already discards (and accounts for)
                // arrived speculations on in-danger decisions, so an
                // adopted verdict here is always safe to install.
                Some(SpeculationVerdict::Adopted(trajectory))
                | Some(SpeculationVerdict::Patched(trajectory)) => {
                    self.install_trajectory(trajectory);
                    replanned = true;
                }
                Some(SpeculationVerdict::Discarded) | None => {
                    replanned =
                        self.plan_synchronously(export, knobs, commanded_velocity, in_danger);
                }
            }
        }
        Planned {
            blockage,
            replanned,
            in_danger,
            needed: need_plan,
        }
    }

    fn first_blockage(&self, export: &PlannerMap) -> Option<f64> {
        let f = self.follower.as_ref()?;
        first_blockage_distance(
            f.trajectory(),
            f.progress_time(),
            export,
            self.planning_margin,
            self.drone.position,
        )
    }

    /// The moving-obstacle boxes predicted over the configured lookahead
    /// from the current instant (empty without dynamics).
    fn predicted_boxes(&mut self) -> Vec<Aabb> {
        match self.dynamics {
            Some(world) if !world.is_static() => world.predicted_boxes_cached(
                self.clock.now(),
                self.cfg.dynamic_lookahead,
                &mut self.pose_cache,
            ),
            _ => Vec::new(),
        }
    }

    fn predicted_relevance_range(&self) -> f64 {
        predicted_relevance_range(
            self.drone.speed(),
            self.cfg.dynamic_lookahead,
            self.planning_margin,
        )
    }

    /// Distance to the first remaining-trajectory point inside the
    /// predicted moving-obstacle occupancy within the relevance range,
    /// or `None` when clear (or in a static world) — the same
    /// [`PredictedHazards`] walk the planner's composed context and the
    /// speculation gate use.
    fn predicted_blockage(&self) -> Option<f64> {
        let f = self.follower.as_ref()?;
        let remaining = f.trajectory().remaining_from(f.progress_time());
        self.hazards
            .first_conflict(remaining.points().iter().map(|p| p.position))
            .map(|p| p.distance(self.drone.position))
    }

    fn in_predicted_danger(&self) -> bool {
        self.hazards
            .any_within(self.drone.position, self.planning_margin)
    }

    fn need_plan(&self, blockage: Option<f64>) -> bool {
        self.follower.as_ref().map(|f| f.finished()).unwrap_or(true)
            || self.decisions_since_plan >= self.cfg.replan_every
            || blockage.is_some()
    }

    fn install_trajectory(&mut self, trajectory: Trajectory) {
        match self.follower.as_mut() {
            Some(f) => f.replace_trajectory(trajectory),
            None => self.follower = Some(TrajectoryFollower::new(trajectory, 0.5)),
        }
        self.decisions_since_plan = 0;
    }

    /// The synchronous planning path (identical to the pre-plan-ahead
    /// behaviour): refresh the long-lived checker from the export delta,
    /// plan, and on `StartBlocked` retry against a worst-case-precision
    /// export.
    ///
    /// With [`crate::MissionConfig::predicted_costmap`] on (and predicted
    /// boxes present), the search runs against the composed
    /// [`HazardContext`] so it routes around predicted lanes in one shot;
    /// a failed one-shot search falls back to the retained reject-loop
    /// reference path (static-only plan, posterior predicted veto below).
    /// Escape plans always use the bare checker: the drone is already
    /// inside a predicted box and any way out starts in conflict.
    fn plan_synchronously(
        &mut self,
        export: &PlannerMap,
        knobs: &KnobSettings,
        commanded_velocity: f64,
        escape: bool,
    ) -> bool {
        let plan_timer = roborun_trace::timer();
        let local_goal = self.local_goal(export);
        let bounds = self.sampling_bounds(self.drone.position, local_goal);
        let check_step = planning_check_step(knobs);
        let planner = planner_for(
            self.planner_seed_base,
            self.decisions,
            knobs,
            self.planning_margin,
            sampling_mix_for(self.cfg.hazard_biased_sampling),
        );
        match self.collision.as_mut() {
            Some(checker) => {
                checker.update_map(export.clone());
                checker.set_check_step(check_step);
            }
            None => {
                self.collision = Some(CollisionChecker::new(
                    export.clone(),
                    self.planning_margin,
                    check_step,
                ));
            }
        }
        let one_shot = self.cfg.predicted_costmap && !escape && !self.hazards.is_empty();
        let cruise = commanded_velocity.max(0.5);
        let mut outcome = plan_through_hazards(
            &planner,
            self.collision.as_mut().expect("checker just initialised"),
            &self.hazards,
            one_shot,
            self.drone.position,
            local_goal,
            &bounds,
            cruise,
            &mut self.scratch,
        );
        if matches!(outcome, Err(PlanError::StartBlocked)) {
            // A coarse export voxel can swallow the drone's own
            // (physically free) position. Fall back to the worst-case
            // export precision for this plan — the same recovery a
            // spatial-oblivious pipeline gets for free.
            let fine_export = PlannerMap::export(
                &self.map,
                &ExportConfig::new(
                    self.map.resolution(),
                    knobs.map_to_planner_volume,
                    self.drone.position,
                ),
            );
            outcome = planner.plan(
                &fine_export,
                self.drone.position,
                local_goal,
                &bounds,
                commanded_velocity.max(0.5),
            );
        }
        if matches!(outcome, Err(PlanError::StartBlocked))
            && self.dynamics.is_some_and(|world| !world.is_static())
        {
            // Wedged: the drone's own position sits inside the margin
            // shell of mapped occupancy even at the finest export. Static
            // missions cannot reach this state (planned paths keep the
            // margin), but a dynamic mission can — an escape manoeuvre or
            // a passing actor can leave the MAV parked against a surface,
            // where every plan is start-blocked forever. Back straight
            // out of the margin shell so the next decision can plan.
            let retreat = self.retreat_trajectory(export);
            self.install_trajectory(retreat);
            return true;
        }
        match outcome {
            Ok((trajectory, stats)) => {
                emit_plan_span(&stats, self.clock.now(), &plan_timer);
                // A fresh plan that crosses the predicted moving-obstacle
                // occupancy is rejected like a failed plan: the planner
                // only knows where actors *are* (their mapped voxels),
                // the prediction knows where they may be within the
                // lookahead. Rejection leaves the emergency-stop policy
                // in charge until the conflict clears. The one exception
                // is an *escape* plan: when the drone's own position is
                // already inside a predicted box, any plan necessarily
                // starts in conflict and moving out beats hovering in a
                // crossing lane.
                if !escape
                    && !self
                        .hazards
                        .path_clear(trajectory.points().iter().map(|p| p.position))
                {
                    return false;
                }
                self.install_trajectory(trajectory);
                true
            }
            Err(_) => false,
        }
    }

    fn retreat_trajectory(&self, export: &PlannerMap) -> Trajectory {
        retreat_trajectory(export, self.drone.position, self.planning_margin)
    }

    /// The RRT sampling bounds for this mission.
    fn sampling_bounds(&self, start: Vec3, goal: Vec3) -> Aabb {
        planning_bounds(start, goal, self.env.bounds())
    }

    fn local_goal(&self, export: &PlannerMap) -> Vec3 {
        local_goal(
            self.env,
            export,
            self.drone.position,
            self.cfg.planning_horizon,
            self.cfg.drone.body_radius * 1.5,
        )
    }

    /// Emergency stop: the remaining trajectory collides with the freshly
    /// observed map *within stopping range* and no replacement was found
    /// this decision — brake and hover until a valid plan exists. Never
    /// triggered while the drone sits inside predicted moving-obstacle
    /// occupancy: braking there parks the MAV in a crossing lane, and
    /// the escape plan (or the old trajectory) moving it *anywhere* is
    /// safer than holding station.
    fn emergency_stop(&mut self, planned: &Planned, latency: f64) {
        if planned.in_danger {
            return;
        }
        if let (Some(distance), false) = (planned.blockage, planned.replanned) {
            let stop_distance = self
                .governor
                .config()
                .budgeter
                .stopping
                .stopping_distance(self.drone.speed());
            // Reaction distance: the drone keeps moving for one decision
            // epoch before the next chance to brake.
            let reaction = self.drone.speed() * latency.max(self.cfg.min_epoch);
            if blockage_is_imminent(
                distance,
                stop_distance,
                reaction,
                2.0 * self.cfg.drone.body_radius,
            ) {
                self.follower = None;
            }
        }
    }

    // ----------------------------------------------------- plan-ahead

    /// Joins the in-flight speculation (if any) and validates it against
    /// the fresh export. Returns the verdict and, for an adopted or
    /// patched plan, the planning latency masked by the overlap window.
    fn take_speculation(
        &mut self,
        worker: Option<&mut PlanAheadWorker>,
        export: &PlannerMap,
        knobs: &KnobSettings,
        breakdown: &LatencyBreakdown,
        in_danger: bool,
        forced_failure: bool,
    ) -> (Option<SpeculationVerdict>, f64) {
        let (Some(worker), Some(pending)) = (worker, self.pending.take()) else {
            return (None, 0.0);
        };
        // A hung-up worker (its thread panicked) degrades to a discarded
        // speculation — the mission falls back to synchronous replanning
        // instead of tearing down mid-flight.
        let Ok(outcome) = worker.outcomes.recv() else {
            self.trace_speculation_end("worker_lost", 0.0);
            return (Some(SpeculationVerdict::Discarded), 0.0);
        };
        let fresh_goal = self.local_goal(export);
        let mut verdict = validate_speculation(
            &outcome.outcome,
            &pending.snapshot,
            pending.start,
            pending.goal,
            export,
            fresh_goal,
            self.drone.position,
            self.planning_margin * 0.6,
            planning_check_step(knobs),
        );
        // Dynamic worlds add one more gate: a speculative trajectory is
        // discarded when it crosses the *predicted* occupancy of a
        // moving obstacle even though the voxel delta cleared it — the
        // delta only knows where actors were, the prediction knows where
        // they may be within the lookahead — and unconditionally on an
        // in-danger decision (the drone needs an escape plan, not the
        // routine progress plan that was speculated). Discarding here,
        // before the hit/masked accounting below, keeps the overlap
        // metrics honest: a dropped speculation masks nothing.
        if let SpeculationVerdict::Adopted(t) | SpeculationVerdict::Patched(t) = &verdict {
            if forced_failure {
                // The fault plan failed this decision's planner outright;
                // the speculation is the same planner's output, so it is
                // lost with it (before the hit/masked accounting — a
                // dropped speculation masks nothing).
                verdict = SpeculationVerdict::Discarded;
            } else if in_danger
                || !self
                    .hazards
                    .path_clear(t.points().iter().map(|p| p.position))
            {
                self.dynamics_stats.predicted_invalidations += 1;
                verdict = SpeculationVerdict::Discarded;
            }
        }
        let masked = match verdict {
            SpeculationVerdict::Adopted(_) | SpeculationVerdict::Patched(_) => {
                self.stats.hits += 1;
                let masked = breakdown.planning.min(pending.window);
                self.stats.masked_latency += masked;
                masked
            }
            SpeculationVerdict::Discarded => 0.0,
        };
        if roborun_trace::armed() {
            let label = match &verdict {
                SpeculationVerdict::Adopted(_) => "adopted",
                SpeculationVerdict::Patched(_) => "patched",
                SpeculationVerdict::Discarded => "discarded",
            };
            self.trace_speculation_end(label, masked);
        }
        (Some(verdict), masked)
    }

    /// Deterministic async-span id of the most recently launched
    /// speculation: `(track << 32) | launch counter`. Valid between a
    /// launch and its join because at most one speculation is in flight.
    fn speculation_trace_id(&self) -> u64 {
        (u64::from(roborun_trace::collector::current_track()) << 32) | self.stats.attempts as u64
    }

    /// Closes the in-flight speculation's async span and records its
    /// outcome as an instant. No-op when disarmed.
    fn trace_speculation_end(&self, label: &str, masked: f64) {
        if !roborun_trace::armed() {
            return;
        }
        let now = self.clock.now();
        roborun_trace::collector::async_end(
            roborun_trace::SpanKind::Speculation,
            self.speculation_trace_id(),
            now,
            &[("masked", masked)],
        );
        roborun_trace::collector::instant_labeled(
            roborun_trace::SpanKind::SpeculationOutcome,
            label,
            now,
            &[("masked", masked)],
        );
    }

    /// Launches a speculation for the next decision when a replan is
    /// predictably due (`replan_every` cadence or a finished trajectory —
    /// blockages cannot be predicted) and the long-lived checker exists to
    /// snapshot. Runs at the end of a decision, after the epoch advance:
    /// the drone position is exactly what the next planning stage will
    /// see.
    fn speculate(
        &mut self,
        worker: Option<&mut PlanAheadWorker>,
        export: &PlannerMap,
        knobs: &KnobSettings,
        commanded_velocity: f64,
        window: f64,
    ) {
        let Some(worker) = worker else { return };
        if !self.mission_open() {
            return;
        }
        let predicted_need = self.follower.as_ref().map(|f| f.finished()).unwrap_or(true)
            || self.decisions_since_plan + 1 >= self.cfg.replan_every;
        if !predicted_need {
            return;
        }
        if self.collision.is_none() {
            return;
        }
        let goal = self.local_goal(export);
        let planner = planner_for(
            self.planner_seed_base,
            self.decisions + 1,
            knobs,
            self.planning_margin,
            sampling_mix_for(self.cfg.hazard_biased_sampling),
        );
        let bounds = self.sampling_bounds(self.drone.position, goal);
        // Refresh the snapshot checker to this decision's export (an exact
        // delta patch, same as the synchronous path would apply) and build
        // its broad-phase so the worker never pays for it.
        let checker = self.collision.as_mut().expect("checked above");
        checker.update_map(export.clone());
        checker.set_check_step(planning_check_step(knobs));
        checker.prebuild_broad_phase();
        // With the predicted costmap on, the speculative search plans
        // through the same composed context the synchronous path uses —
        // re-anchored at the post-epoch position the speculation starts
        // from (the shared policy in [`speculation_hazards`]).
        let hazards = speculation_hazards(
            &self.hazards,
            self.cfg.predicted_costmap,
            self.drone.position,
            self.drone.speed(),
            self.cfg.dynamic_lookahead,
            self.planning_margin,
        );
        let request = SpeculationRequest {
            planner,
            checker: checker.clone(),
            hazards,
            start: self.drone.position,
            goal,
            bounds,
            cruise: commanded_velocity.max(0.5),
            launched_at: self.clock.now(),
        };
        if worker.requests.send(request).is_ok() {
            self.stats.attempts += 1;
            if roborun_trace::armed() {
                roborun_trace::collector::async_begin(
                    roborun_trace::SpanKind::Speculation,
                    self.speculation_trace_id(),
                    self.clock.now(),
                    &[("decision", self.decisions as f64), ("window", window)],
                );
            }
            self.pending = Some(PendingSpeculation {
                snapshot: export.clone(),
                start: self.drone.position,
                goal,
                window,
            });
        }
    }

    // ------------------------------------------------------- the driver

    /// Runs one full decision: every stage in order, the plan-ahead
    /// join/validate and re-launch included. The caller loops while
    /// [`DecisionCycle::mission_open`].
    pub(crate) fn run_decision(&mut self, mut worker: Option<&mut PlanAheadWorker>) {
        self.decisions += 1;
        // Tracing: one relaxed load when disarmed; everything below is
        // behind this flag (or inside the collector's own gates).
        let trace_on = roborun_trace::armed();
        let decision_timer = roborun_trace::timer();
        let t0 = self.clock.now();
        let watchdog_before = self.degradation_stats.watchdog_fires;

        // The fault plan's verdict for this decision: a pure function of
        // (plan seed, decision index), identical across drivers and runs.
        let frame = self
            .fault_plan
            .as_ref()
            .map(|plan| plan.frame(self.decisions as u64))
            .unwrap_or_default();
        self.degradation_stats.faults_injected += frame.injected_count();
        if trace_on && frame.injected_count() > 0 {
            roborun_trace::collector::instant(
                roborun_trace::SpanKind::FaultInjected,
                t0,
                &[("channels", frame.injected_count() as f64)],
            );
        }

        // sense → profile → govern → operate → cost.
        let sensed = self.sense(&frame);
        let profile = self.profile(&sensed);
        let policy = self.govern(&profile);
        let knobs = policy.knobs;
        let stale_map = frame.sensor_blackout || frame.map_stale;
        let export = self.apply_operators(&sensed, &knobs, stale_map);
        let mut breakdown = self.decision_cost(&knobs);

        // Planner fault channels: the watchdog/retry policy (degradation
        // armed) or the baseline's serialised spike — the thesis of the
        // fault sweep in one branch.
        let (mut degradation, forced_failure) = apply_planner_faults(
            &mut breakdown,
            &frame,
            &self.cfg.degradation,
            &mut self.degradation_stats,
        );
        if trace_on && self.degradation_stats.watchdog_fires > watchdog_before {
            roborun_trace::collector::instant(roborun_trace::SpanKind::WatchdogFire, t0, &[]);
        }
        // Moving-obstacle prediction for this decision's instant (empty
        // in static worlds), folded into the shared hazard source every
        // consumer below — blockage detection, the planner's composed
        // context, the speculation gate — queries. The retarget is an
        // incremental patch: only boxes that moved touch the source.
        let mut predicted = self.predicted_boxes();
        if !self.peers.is_empty() {
            // Fleet missions: peer corridors ride the same soft-hazard
            // path as predicted occupancy, so every consumer below covers
            // them for free. The relevance range still gates far peers —
            // a corridor beyond reach this decision costs nothing.
            predicted.extend_from_slice(self.peers.boxes());
        }
        let range = self.predicted_relevance_range();
        self.hazards
            .retarget(&predicted, self.drone.position, range);
        let in_danger = self.in_predicted_danger();

        // Plan-ahead join: an adopted speculation masks the planning stage
        // up to the overlap window; everything downstream (safe velocity,
        // epoch, telemetry) sees the critical-path latency.
        self.decisions_since_plan += 1;
        let (speculative, masked) = self.take_speculation(
            worker.as_deref_mut(),
            &export,
            &knobs,
            &breakdown,
            in_danger,
            forced_failure,
        );
        let latency = breakdown.critical_path(masked);

        // Safe velocity under the budget law (Eq. 1), on the critical path:
        // masked planning work never delayed the MAV's reaction. In a
        // dynamic world the reaction budget additionally absorbs the worst
        // closing speed of any sensed actor (the oblivious baseline cannot:
        // its velocity is fixed at design time — the thesis again).
        // Actors that can reach the visible margin within the lookahead
        // eat into the reaction budget; anything farther is throttling
        // the mission for an obstacle that cannot touch it.
        let closing_speed = match self.dynamics {
            Some(world) if !world.is_static() => world.max_closing_speed_cached(
                self.clock.now(),
                self.drone.position,
                profile.visibility + world.max_actor_speed() * self.cfg.dynamic_lookahead,
                &mut self.pose_cache,
            ),
            _ => 0.0,
        };
        // Stale-perception derating: with degradation armed and the map
        // older than this decision (a blackout or stale epoch withheld
        // integration), the governor's data-age law shaves the visible
        // margin by how far the world may have drifted since the last
        // integration — the same structure as the closing-speed term.
        // `data_age` is exactly 0.0 on decisions that integrated, so the
        // healthy path never enters this arm.
        let data_age = self.clock.now() - self.last_integration_time;
        let derate = self.cfg.degradation.enabled && data_age > 0.0;
        let commanded_velocity = match self.cfg.mode {
            RuntimeMode::SpatialOblivious => self.baseline_velocity,
            RuntimeMode::SpatialAware if derate => self.governor.safe_velocity_stale(
                breakdown.critical_path(masked),
                profile.visibility,
                closing_speed,
                data_age,
            ),
            RuntimeMode::SpatialAware if closing_speed > 0.0 => {
                self.governor.safe_velocity_closing(
                    breakdown.critical_path(masked),
                    profile.visibility,
                    closing_speed,
                )
            }
            RuntimeMode::SpatialAware => {
                self.governor
                    .safe_velocity_overlapped(&breakdown, masked, profile.visibility)
            }
        };
        if derate && degradation == Degradation::Healthy {
            degradation = Degradation::StalePerception;
        }

        // Plan (or adopt), then the degradation ladder and the
        // emergency-stop policy.
        let planned = self.plan(
            &export,
            &knobs,
            commanded_velocity,
            speculative,
            in_danger,
            forced_failure,
        );
        let mut hover = false;
        if self.cfg.degradation.enabled {
            if forced_failure && planned.needed && !planned.replanned {
                // Fallback ladder: reuse the last valid trajectory while
                // it is clear, hover in place otherwise, and bottom out
                // in a wedge-retreat safe-stop once hovering has not
                // bought a plan for `hover_limit` consecutive decisions.
                let reusable = self.follower.as_ref().is_some_and(|f| !f.finished());
                if reusable && planned.blockage.is_none() && !planned.in_danger {
                    degradation = Degradation::ReusedTrajectory;
                    self.hover_streak = 0;
                } else if self.hover_streak >= self.cfg.degradation.hover_limit {
                    let retreat = self.retreat_trajectory(&export);
                    self.install_trajectory(retreat);
                    self.safe_stopped = true;
                    self.degradation_stats.safe_stops += 1;
                    degradation = Degradation::SafeStop;
                } else {
                    hover = true;
                    self.hover_streak += 1;
                    degradation = Degradation::Hover;
                }
            } else {
                self.hover_streak = 0;
                // Perception too old to trust: hold position until fresh
                // data arrives rather than flying through unsensed space.
                // Hovering is indefinitely safe, so stale hovers never
                // escalate towards the safe-stop.
                if data_age > self.cfg.degradation.stale_hover_age {
                    hover = true;
                    degradation = Degradation::Hover;
                }
            }
        }
        if !hover && degradation != Degradation::SafeStop {
            self.emergency_stop(&planned, latency);
        }
        if degradation.is_degraded() {
            self.degradation_stats.degraded_decisions += 1;
        }

        // Record.
        let cpu_sample = self
            .cfg
            .cpu
            .sample(breakdown.compute_total(), latency.max(self.cfg.min_epoch));
        if trace_on {
            if degradation != self.last_degradation {
                roborun_trace::collector::instant_labeled(
                    roborun_trace::SpanKind::DegradationTransition,
                    degradation_label(degradation),
                    t0,
                    &[],
                );
            }
            // The decision span covers the critical-path latency window;
            // the seven stage spans partition it exactly (the planning
            // stage is reduced by the masked plan-ahead share), so the
            // exporter's coverage check holds by construction.
            roborun_trace::collector::complete(
                roborun_trace::SpanKind::Decision,
                t0,
                latency,
                roborun_trace::timer_ns(&decision_timer),
                &[
                    ("decision", self.decisions as f64),
                    ("velocity", commanded_velocity),
                    ("visibility", profile.visibility),
                    ("masked", masked),
                    ("cpu", cpu_sample.utilization),
                ],
            );
            let masked_planning = masked.clamp(0.0, breakdown.planning);
            let stage_durations = [
                breakdown.point_cloud,
                breakdown.perception,
                breakdown.perception_to_planning,
                breakdown.planning - masked_planning,
                breakdown.control,
                breakdown.communication,
                breakdown.runtime_overhead,
            ];
            let mut cursor = t0;
            for (kind, duration) in roborun_trace::SpanKind::STAGES.iter().zip(stage_durations) {
                roborun_trace::collector::complete(*kind, cursor, duration, 0, &[]);
                cursor += duration;
            }
        }
        self.last_degradation = degradation;
        self.telemetry.push(DecisionRecord {
            time: self.clock.now(),
            position: self.drone.position,
            commanded_velocity,
            visibility: profile.visibility,
            deadline: policy.deadline,
            knobs,
            breakdown,
            cpu_utilization: cpu_sample.utilization,
            zone: Some(zone_label(self.env.zone_at(self.drone.position))),
            masked_latency: masked,
            degradation,
        });

        // Advance the world for the (critical-path) epoch. Moving actors
        // are collision-tested at their true pose of every substep.
        let epoch = latency.max(self.cfg.min_epoch);
        let follower = &mut self.follower;
        let dynamics = self.dynamics;
        let pose_cache = &mut self.pose_cache;
        let body_margin = self.cfg.drone.body_radius * 0.8;
        self.collided = advance_epoch(
            &mut self.drone,
            &mut self.clock,
            &mut self.energy_joules,
            self.env,
            &self.cfg.drone,
            &self.cfg.energy,
            epoch,
            commanded_velocity,
            |position, dt| {
                if hover {
                    // A hovering decision issues no motion command: the
                    // physics brake the MAV in place. The follower keeps
                    // its progress so a later decision can resume it.
                    return None;
                }
                match follower.as_mut() {
                    Some(f) if !f.finished() => {
                        let cmd = f.update(position, dt);
                        Some((cmd.target, cmd.speed))
                    }
                    _ => None,
                }
            },
            |position, time| {
                dynamics.is_some_and(|world| {
                    world.actor_hit_cached(position, time, body_margin, pose_cache)
                })
            },
        );
        self.flown_path.push(self.drone.position);
        self.flown_times.push(self.clock.now());
        if !self.collided
            && self.drone.position.distance(self.env.goal()) <= self.cfg.goal_tolerance
        {
            self.reached_goal = true;
        }

        // Plan-ahead launch: speculate the next decision's plan while the
        // epoch just charged "executes" (the worker overlaps with the next
        // decision's sensing/perception work on this thread).
        self.speculate(worker, &export, &knobs, commanded_velocity, epoch);
    }

    /// Final mission result.
    pub(crate) fn finish(self) -> MissionResult {
        if roborun_trace::armed() {
            // A speculation launched on the final decision never joins;
            // close its async span so exported traces stay balanced, and
            // spill this thread's buffered events at the mission boundary.
            if self.pending.is_some() {
                self.trace_speculation_end("unjoined", 0.0);
            }
            roborun_trace::collector::flush();
        }
        let mission_time = self.clock.now().max(1e-9);
        let metrics = finalize_metrics(
            self.cfg.mode,
            mission_time,
            self.energy_joules,
            &self.telemetry,
            &self.drone,
            self.decisions,
            self.reached_goal,
            self.collided,
            &self.stats,
            &self.dynamics_stats,
            &self.degradation_stats,
        );
        MissionResult {
            metrics,
            telemetry: self.telemetry,
            flown_path: self.flown_path,
            flown_times: self.flown_times,
        }
    }
}
