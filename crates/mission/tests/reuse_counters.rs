//! The retired tree-reuse counters.
//!
//! The planner carries no search tree from one decision to the next, so
//! the three `MissionMetrics` counters that used to report it
//! (`warm_replans`, `planner_nodes_retained`, `planner_nodes_pruned`)
//! must read zero on both drivers. They stay in `MissionMetrics` only
//! because the mission benchmark still reports them.

use roborun_core::RuntimeMode;
use roborun_mission::{
    DynamicScenario, MissionConfig, MissionMetrics, MissionRunner, NodePipeline, NodePipelineConfig,
};

fn assert_zeroed(m: &MissionMetrics) {
    assert!(m.reached_goal && !m.collided, "mission failed: {m:?}");
    assert_eq!(m.warm_replans, 0);
    assert_eq!(m.planner_nodes_retained, 0);
    assert_eq!(m.planner_nodes_pruned, 0);
}

#[test]
fn reuse_counters_stay_zero_on_both_drivers() {
    let env = DynamicScenario::CrossingCorridor.world(21).0;

    let mut cfg = MissionConfig::new(RuntimeMode::SpatialAware);
    cfg.max_decisions = 600;
    cfg.max_mission_time = 1_500.0;
    cfg.seed = 21;
    assert_zeroed(&MissionRunner::new(cfg).run(&env).metrics);

    let mut cfg = NodePipelineConfig::new(RuntimeMode::SpatialAware);
    cfg.mission.max_decisions = 800;
    cfg.mission.max_mission_time = 2_500.0;
    assert_zeroed(&NodePipeline::new(cfg).run(&env).mission.metrics);
}
