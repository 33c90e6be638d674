//! The three mission workloads: what runs, generated from the workload
//! seed, and how one mission is driven.

use roborun_core::RuntimeMode;
use roborun_dynamics::DynamicWorld;
use roborun_env::{DifficultyConfig, Environment, EnvironmentGenerator};
use roborun_middleware::GraphInfo;
use roborun_mission::{
    DynamicScenario, FaultScenario, MissionConfig, MissionResult, MissionRunner, NodePipeline,
    NodePipelineConfig, SweepConfig,
};
use std::time::Instant;

/// Seed used when a result is quoted without one.
pub const DEFAULT_SEED: u64 = 7;
/// Seed reserved for checking later claims; never used while tuning.
pub const HELD_OUT_SEED: u64 = 2027;

/// Quick sweeps per `static_paper` run (8 missions each).
pub const STATIC_SWEEPS: u64 = 3;
/// Seeds per family in a `dynamic_replan` run (3 missions each).
pub const DYNAMIC_SEEDS: u64 = 10;
/// Seeds per family in a `node_faults` run (3 missions each).
pub const FAULT_SEEDS: u64 = 24;

/// Distance between the derived seeds of one run, so that the inputs of
/// nearby workload seeds never overlap.
const SEED_STRIDE: u64 = 1_000_003;

/// The `n` derived seeds of a run: the workload seed itself first.
fn derived_seeds(seed: u64, n: u64) -> impl Iterator<Item = u64> {
    (0..n).map(move |k| seed.wrapping_add(k.wrapping_mul(SEED_STRIDE)))
}

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's static matrix at reduced length, RoboRun and baseline.
    StaticPaper,
    /// Moving-obstacle families, RoboRun only, direct driver.
    DynamicReplan,
    /// Fault families on the bus driver with degradation armed.
    NodeFaults,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::StaticPaper,
        Workload::DynamicReplan,
        Workload::NodeFaults,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StaticPaper => "static_paper",
            Workload::DynamicReplan => "dynamic_replan",
            Workload::NodeFaults => "node_faults",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `true` when missions run on the direct `MissionRunner`, whose
    /// decision cycle emits the in-situ `decision` and `plan` spans.
    pub fn direct_driver(self) -> bool {
        !matches!(self, Workload::NodeFaults)
    }
}

/// Which driver runs a mission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `MissionRunner` (the `cycle` decision loop).
    Direct,
    /// `NodePipeline` (the middleware node graph).
    Bus,
}

/// Everything one mission needs, generated before timing starts.
pub struct MissionSpec {
    /// Human-readable name used when a check fails.
    pub label: String,
    pub cfg: MissionConfig,
    pub env: Environment,
    pub world: Option<DynamicWorld>,
    pub driver: Driver,
}

impl MissionSpec {
    /// `true` for RoboRun (spatial-aware) missions; the static baseline
    /// feeds only the gain ratios and the host-clock metrics.
    pub fn aware(&self) -> bool {
        self.cfg.mode.is_aware()
    }
}

/// The result of driving one mission.
pub struct Outcome {
    pub result: MissionResult,
    /// Node-graph snapshot (bus driver only).
    pub graph: Option<GraphInfo>,
    /// Measured transport latency per decision (bus driver only).
    pub comm_per_decision: Vec<f64>,
    /// Host wall time of the mission (seconds).
    pub wall_s: f64,
}

/// Generates every mission of `workload` from `seed`: environments,
/// dynamic worlds, fault plans and configs.
pub fn build(workload: Workload, seed: u64) -> Vec<MissionSpec> {
    match workload {
        Workload::StaticPaper => static_paper(seed),
        Workload::DynamicReplan => dynamic_replan(seed),
        Workload::NodeFaults => node_faults(seed),
    }
}

/// `SweepConfig::quick` at each derived seed: each difficulty once with
/// RoboRun and once with the static baseline, seeded exactly like the
/// sweep's own rows.
fn static_paper(seed: u64) -> Vec<MissionSpec> {
    let mut specs = Vec::new();
    for sweep_seed in derived_seeds(seed, STATIC_SWEEPS) {
        let sweep = SweepConfig::quick(sweep_seed);
        for (i, difficulty) in sweep.difficulties.iter().enumerate() {
            let env_seed = sweep_seed.wrapping_add(i as u64);
            for template in [&sweep.aware, &sweep.oblivious] {
                let mut cfg = template.clone();
                cfg.seed = env_seed;
                specs.push(MissionSpec {
                    label: format!(
                        "{} density {} spread {} seed {env_seed}",
                        mode_name(cfg.mode),
                        difficulty.obstacle_density,
                        difficulty.obstacle_spread
                    ),
                    env: generate(*difficulty, env_seed),
                    world: None,
                    cfg,
                    driver: Driver::Direct,
                });
            }
        }
    }
    specs
}

fn generate(difficulty: DifficultyConfig, seed: u64) -> Environment {
    EnvironmentGenerator::new(difficulty).generate(seed)
}

/// Every moving-obstacle family at each derived seed, RoboRun with the
/// quick dynamic caps.
fn dynamic_replan(seed: u64) -> Vec<MissionSpec> {
    let mut specs = Vec::new();
    for mission_seed in derived_seeds(seed, DYNAMIC_SEEDS) {
        for (i, &scenario) in DynamicScenario::ALL.iter().enumerate() {
            let (env, world) = scenario.world(mission_seed);
            let mut cfg = MissionConfig::new(RuntimeMode::SpatialAware);
            cfg.max_decisions = 600;
            cfg.max_mission_time = 1_500.0;
            cfg.voxel_decay = Some(2);
            cfg.seed = mission_seed.wrapping_add(i as u64);
            specs.push(MissionSpec {
                label: format!("{} seed {mission_seed}", scenario.name()),
                cfg,
                env,
                world: Some(world),
                driver: Driver::Direct,
            });
        }
    }
    specs
}

/// Every fault family at each derived seed, on the bus driver, with
/// the degradation ladder armed and the family's fault plan.
fn node_faults(seed: u64) -> Vec<MissionSpec> {
    let mut specs = Vec::new();
    for mission_seed in derived_seeds(seed, FAULT_SEEDS) {
        for (i, &scenario) in FaultScenario::ALL.iter().enumerate() {
            let mut cfg = MissionConfig::new(RuntimeMode::SpatialAware);
            cfg.max_decisions = 600;
            cfg.max_mission_time = 1_500.0;
            cfg.voxel_decay = Some(2);
            cfg.degradation.enabled = true;
            cfg.fault_plan = scenario.fault_plan(mission_seed);
            cfg.seed = mission_seed.wrapping_add(i as u64);
            specs.push(MissionSpec {
                label: format!("{} seed {mission_seed}", scenario.name()),
                cfg,
                env: scenario.environment(mission_seed),
                world: None,
                driver: Driver::Bus,
            });
        }
    }
    specs
}

fn mode_name(mode: RuntimeMode) -> &'static str {
    if mode.is_aware() {
        "roborun"
    } else {
        "baseline"
    }
}

/// Drives one mission to completion and times it.
pub fn run(spec: &MissionSpec) -> Outcome {
    let start = Instant::now();
    let (result, graph, comm_per_decision) = match spec.driver {
        Driver::Direct => {
            let runner = MissionRunner::new(spec.cfg.clone());
            let result = match &spec.world {
                Some(world) => runner.run_dynamic(&spec.env, world),
                None => runner.run(&spec.env),
            };
            (result, None, Vec::new())
        }
        Driver::Bus => {
            let pipeline = NodePipeline::new(NodePipelineConfig {
                mission: spec.cfg.clone(),
                ..NodePipelineConfig::new(spec.cfg.mode)
            });
            let run = match &spec.world {
                Some(world) => pipeline.run_dynamic(&spec.env, world),
                None => pipeline.run(&spec.env),
            };
            (run.mission, Some(run.graph), run.comm_per_decision)
        }
    };
    Outcome {
        wall_s: start.elapsed().as_secs_f64(),
        result,
        graph,
        comm_per_decision,
    }
}
