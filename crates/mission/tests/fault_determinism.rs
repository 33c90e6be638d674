//! Fault-injection determinism: the whole point of a *deterministic*
//! fault layer is that a fault campaign is as reproducible as a healthy
//! mission. Two properties are pinned here:
//!
//! 1. **Same seed + same [`roborun_faults`] plan ⇒ bitwise-identical
//!    mission**, for both drivers (the direct [`MissionRunner`] and the
//!    middleware [`NodePipeline`]): full per-decision telemetry compares
//!    equal and every flown-path coordinate matches bit for bit.
//! 2. **Faults off ≡ no fault layer at all**: a config carrying an
//!    explicit [`FaultPlanConfig::healthy`] plan produces bitwise the
//!    same mission as the plain default config. The three pre-existing
//!    golden fixtures (see `tests/golden_sweep.rs`) are generated from
//!    default configs, so this equality extends their byte-identity pin
//!    to the faults-off code path.
//!
//! 3. **Both drivers inject sensing faults the same way**: a foggy plan
//!    caps every decision's profiled visibility and counts as injected
//!    on the node pipeline as well as on the direct runner.
//!
//! Missions here are deliberately short (60 m, capped decisions) so the
//! property runs stay fast; the fault sweep's golden fixture covers the
//! full-length campaigns.

use proptest::prelude::*;
use roborun_core::RuntimeMode;
use roborun_env::{DifficultyConfig, Environment, EnvironmentGenerator};
use roborun_faults::FaultPlanConfig;
use roborun_geom::Vec3;
use roborun_mission::{
    FaultScenario, MissionConfig, MissionResult, MissionRunner, NodePipeline, NodePipelineConfig,
};

/// A short environment so each property case stays cheap.
fn short_environment(seed: u64) -> Environment {
    EnvironmentGenerator::new(DifficultyConfig {
        obstacle_density: 0.4,
        obstacle_spread: 40.0,
        goal_distance: 60.0,
    })
    .generate(seed)
}

/// A short mission config carrying `plan`, degradation armed.
fn short_config(seed: u64, plan: FaultPlanConfig) -> MissionConfig {
    let mut cfg = MissionConfig::new(RuntimeMode::SpatialAware);
    cfg.seed = seed;
    cfg.max_decisions = 200;
    cfg.max_mission_time = 600.0;
    cfg.fault_plan = plan;
    cfg.degradation.enabled = true;
    cfg
}

fn run_direct(cfg: &MissionConfig, env: &Environment) -> MissionResult {
    MissionRunner::new(cfg.clone()).run(env)
}

fn run_pipeline(cfg: &MissionConfig, env: &Environment) -> MissionResult {
    NodePipeline::new(NodePipelineConfig {
        mission: cfg.clone(),
        ..NodePipelineConfig::new(cfg.mode)
    })
    .run(env)
    .mission
}

/// Renders every coordinate of the flown path (and its timestamps) via
/// the raw `f64` bit pattern, so even a 1-ulp divergence is caught.
fn path_bits(result: &MissionResult) -> Vec<[u64; 4]> {
    result
        .flown_path
        .iter()
        .zip(&result.flown_times)
        .map(|(p, t): (&Vec3, &f64)| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits(), t.to_bits()])
        .collect()
}

/// Asserts two runs of the same mission are bitwise identical.
fn assert_bit_identical(a: &MissionResult, b: &MissionResult, what: &str) {
    assert_eq!(
        path_bits(a),
        path_bits(b),
        "{what}: flown path diverged between identical runs"
    );
    assert_eq!(
        a.telemetry.records(),
        b.telemetry.records(),
        "{what}: telemetry diverged between identical runs"
    );
    assert_eq!(a.metrics, b.metrics, "{what}: metrics diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Same seed + same fault plan ⇒ bitwise-identical telemetry and
    /// flown path, on both drivers, for every fault scenario family.
    #[test]
    fn same_seed_same_plan_is_bit_identical(seed in 0u64..1_000) {
        for scenario in FaultScenario::ALL {
            let env = short_environment(seed);
            let cfg = short_config(seed, scenario.fault_plan(seed));
            let name = scenario.name();
            assert_bit_identical(
                &run_direct(&cfg, &env),
                &run_direct(&cfg, &env),
                &format!("{name} / MissionRunner"),
            );
            assert_bit_identical(
                &run_pipeline(&cfg, &env),
                &run_pipeline(&cfg, &env),
                &format!("{name} / NodePipeline"),
            );
        }
    }

    /// An explicitly healthy fault plan takes the exact pre-fault code
    /// path: bitwise equal to the plain default config, on both drivers.
    /// The golden fixtures run default configs, so their byte-identity
    /// pin covers the faults-off path through this equality.
    #[test]
    fn healthy_plan_is_bit_identical_to_default(seed in 0u64..1_000) {
        let env = short_environment(seed);
        let mut plain = MissionConfig::new(RuntimeMode::SpatialAware);
        plain.seed = seed;
        plain.max_decisions = 200;
        plain.max_mission_time = 600.0;
        let mut healthy = plain.clone();
        healthy.fault_plan = FaultPlanConfig::healthy();
        prop_assert!(healthy.fault_plan.is_healthy());
        assert_bit_identical(
            &run_direct(&plain, &env),
            &run_direct(&healthy, &env),
            "healthy-plan / MissionRunner",
        );
        assert_bit_identical(
            &run_pipeline(&plain, &env),
            &run_pipeline(&healthy, &env),
            "healthy-plan / NodePipeline",
        );
    }
}

/// Fog travels through the one fault plan to both drivers: every
/// decision's profiled visibility respects the cap, and the channel is
/// counted in `faults_injected`. A driver that skipped the plan's sensor
/// channels would fly foggy missions at clear-weather visibility. The
/// 1.5 m cap sits under the profilers' 2 m visibility floor, so only the
/// profiling stage's cap can hold it.
#[test]
fn fog_caps_visibility_on_both_drivers() {
    let env = short_environment(21);
    for cap in [12.0, 1.5] {
        let cfg = short_config(21, FaultPlanConfig::fog(cap));
        for (driver, result) in [
            ("MissionRunner", run_direct(&cfg, &env)),
            ("NodePipeline", run_pipeline(&cfg, &env)),
        ] {
            let records = result.telemetry.records();
            assert!(!records.is_empty(), "{driver}: no decisions");
            for r in records {
                assert!(
                    r.visibility <= cap,
                    "{driver}: visibility {} above the {cap} m fog cap",
                    r.visibility
                );
            }
            assert!(
                result.metrics.faults_injected > 0,
                "{driver}: fog was not counted as injected"
            );
        }
    }
}
