//! High-level planner: piece-wise planning + smoothing behind one call.

use crate::{
    smooth_path, CollisionChecker, HazardSource, PlannerScratch, RrtConfig, RrtStar,
    SmoothingConfig, Trajectory,
};
use roborun_geom::{Aabb, Vec3};
use roborun_perception::PlannerMap;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors returned by [`Planner::plan`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlanError {
    /// The start position is inside (or within margin of) an obstacle.
    StartBlocked,
    /// The goal position is inside (or within margin of) an obstacle.
    GoalBlocked,
    /// The sampling-based search exhausted its sample or volume budget
    /// without reaching the goal.
    NoPathFound {
        /// Number of samples drawn before giving up.
        samples_drawn: usize,
        /// Whether the planning-volume monitor terminated the search.
        volume_capped: bool,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::StartBlocked => write!(f, "start position is in collision"),
            PlanError::GoalBlocked => write!(f, "goal position is in collision"),
            PlanError::NoPathFound {
                samples_drawn,
                volume_capped,
            } => write!(
                f,
                "no collision-free path found after {samples_drawn} samples (volume capped: {volume_capped})"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// Combined configuration of the planning stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannerConfig {
    /// RRT* (piece-wise planning) configuration.
    pub rrt: RrtConfig,
    /// Smoothing configuration.
    pub smoothing: SmoothingConfig,
    /// Collision margin around obstacles (MAV body radius, metres).
    pub margin: f64,
    /// Collision-check sample spacing (metres) — the planning precision knob.
    pub collision_check_step: f64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            rrt: RrtConfig::default(),
            smoothing: SmoothingConfig::default(),
            margin: 0.45,
            collision_check_step: 0.3,
        }
    }
}

/// Statistics of one planning invocation.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PlanStats {
    /// Samples the piece-wise planner drew.
    pub samples_drawn: usize,
    /// Nodes in the final search tree.
    pub tree_size: usize,
    /// Explored volume (m³).
    pub explored_volume: f64,
    /// Collision-checker point queries performed.
    pub collision_queries: usize,
    /// Whether the planning-volume monitor terminated the search.
    pub volume_capped: bool,
    /// Tree edges re-parented through a cheaper node during the search.
    pub rewires: usize,
    /// Batched sampling rounds the search executed.
    pub batch_rounds: usize,
}

/// The full planning stage: RRT* followed by smoothing.
///
/// # Example
///
/// ```
/// use roborun_planning::{Planner, PlannerConfig};
/// use roborun_perception::PlannerMap;
/// use roborun_geom::{Aabb, Vec3};
///
/// let planner = Planner::new(PlannerConfig::default());
/// let bounds = Aabb::new(Vec3::new(-5.0, -20.0, 0.0), Vec3::new(60.0, 20.0, 10.0));
/// let (traj, _stats) = planner
///     .plan(&PlannerMap::empty(0.3), Vec3::new(0.0, 0.0, 5.0), Vec3::new(50.0, 0.0, 5.0), &bounds, 3.0)
///     .unwrap();
/// assert!(traj.duration() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Planner {
    config: PlannerConfig,
}

impl Planner {
    /// Creates a planner.
    ///
    /// # Panics
    ///
    /// Panics if the nested configurations are invalid.
    pub fn new(config: PlannerConfig) -> Self {
        config.rrt.validate().expect("invalid RRT* configuration");
        config
            .smoothing
            .validate()
            .expect("invalid smoothing configuration");
        assert!(config.margin >= 0.0, "margin must be non-negative");
        assert!(
            config.collision_check_step > 0.0,
            "collision check step must be positive"
        );
        Planner { config }
    }

    /// The planner configuration.
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// Plans a smoothed, time-parameterised trajectory from `start` to
    /// `goal` through the exported `map`, sampling inside `bounds` and
    /// cruising at `cruise_speed` where possible.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] when the endpoints are blocked or no path is
    /// found within the sample/volume budget.
    pub fn plan(
        &self,
        map: &PlannerMap,
        start: Vec3,
        goal: Vec3,
        bounds: &Aabb,
        cruise_speed: f64,
    ) -> Result<(Trajectory, PlanStats), PlanError> {
        let mut checker = CollisionChecker::new(
            map.clone(),
            self.config.margin,
            self.config.collision_check_step,
        );
        self.plan_with_checker(&mut checker, start, goal, bounds, cruise_speed)
    }

    /// [`Planner::plan`] against a caller-owned hazard source.
    ///
    /// Long-lived callers (the mission runner plans every few decisions
    /// against a lightly changed export) keep one [`CollisionChecker`]
    /// alive, refresh it with [`CollisionChecker::update_map`] — which
    /// patches the built broad-phase from the export delta instead of
    /// rebuilding it — and retune the sample spacing with
    /// [`CollisionChecker::set_check_step`]. The checker's own margin and
    /// step are used; the planner config's copies apply only to the
    /// one-shot [`Planner::plan`] path.
    ///
    /// Callers in a world with moving obstacles hand in the composed
    /// [`crate::HazardContext`] instead, so the search itself routes
    /// around predicted occupancy (see the [`crate::hazard`] module docs);
    /// with an empty predicted set the composed context is bit-identical
    /// to the bare checker.
    pub fn plan_with_checker<H: HazardSource>(
        &self,
        checker: &mut H,
        start: Vec3,
        goal: Vec3,
        bounds: &Aabb,
        cruise_speed: f64,
    ) -> Result<(Trajectory, PlanStats), PlanError> {
        let mut scratch = PlannerScratch::new();
        self.plan_with_scratch(checker, start, goal, bounds, cruise_speed, &mut scratch)
    }

    /// [`Planner::plan_with_checker`] against a caller-owned
    /// [`PlannerScratch`]: the search tree, spatial index, and every
    /// sampling buffer are reused across calls instead of reallocated.
    /// The result is bit-identical to [`Planner::plan_with_checker`].
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] when the endpoints are blocked or no path is
    /// found within the sample/volume budget.
    pub fn plan_with_scratch<H: HazardSource>(
        &self,
        checker: &mut H,
        start: Vec3,
        goal: Vec3,
        bounds: &Aabb,
        cruise_speed: f64,
        scratch: &mut PlannerScratch,
    ) -> Result<(Trajectory, PlanStats), PlanError> {
        let queries_before = checker.queries();
        if !checker.point_free(start) {
            return Err(PlanError::StartBlocked);
        }
        if !checker.point_free(goal) {
            return Err(PlanError::GoalBlocked);
        }
        let rrt = RrtStar::new(self.config.rrt);
        let result = rrt.plan_with_scratch(checker, start, goal, bounds, scratch);
        if !result.found() {
            return Err(PlanError::NoPathFound {
                samples_drawn: result.samples_drawn,
                volume_capped: result.volume_capped,
            });
        }
        let trajectory = smooth_path(&result.path, cruise_speed, &self.config.smoothing);
        let stats = PlanStats {
            samples_drawn: result.samples_drawn,
            tree_size: result.tree_size,
            explored_volume: result.explored_volume,
            collision_queries: checker.queries() - queries_before,
            volume_capped: result.volume_capped,
            rewires: result.rewires,
            batch_rounds: result.batch_rounds,
        };
        Ok((trajectory, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roborun_perception::{ExportConfig, OccupancyMap, PointCloud};

    fn bounds() -> Aabb {
        Aabb::new(Vec3::new(-5.0, -35.0, 1.0), Vec3::new(60.0, 35.0, 12.0))
    }

    fn map_with_gap() -> PlannerMap {
        let mut map = OccupancyMap::new(0.5);
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let mut points = Vec::new();
        for yi in -60..=60 {
            let y = yi as f64 * 0.5;
            if (4.0..=9.0).contains(&y) {
                continue;
            }
            for zi in 0..24 {
                points.push(Vec3::new(25.0, y, zi as f64 * 0.5));
            }
        }
        map.integrate_cloud(&PointCloud::new(origin, points), 1.0);
        PlannerMap::export(&map, &ExportConfig::new(0.5, 1e9, origin))
    }

    #[test]
    fn plans_through_open_space() {
        let planner = Planner::new(PlannerConfig::default());
        let (traj, stats) = planner
            .plan(
                &PlannerMap::empty(0.3),
                Vec3::new(0.0, 0.0, 5.0),
                Vec3::new(50.0, 0.0, 5.0),
                &bounds(),
                4.0,
            )
            .unwrap();
        assert!(traj.duration() > 0.0);
        assert!(traj.length() >= 49.0);
        assert_eq!(stats.samples_drawn, 0); // direct connection
        assert!((traj.end_position().unwrap() - Vec3::new(50.0, 0.0, 5.0)).norm() < 1e-6);
    }

    #[test]
    fn plans_around_wall_and_is_collision_free() {
        let map = map_with_gap();
        let planner = Planner::new(PlannerConfig {
            rrt: RrtConfig {
                seed: 13,
                ..RrtConfig::default()
            },
            ..PlannerConfig::default()
        });
        let start = Vec3::new(0.0, 0.0, 5.0);
        let goal = Vec3::new(50.0, 0.0, 5.0);
        let (traj, stats) = planner.plan(&map, start, goal, &bounds(), 3.0).unwrap();
        assert!(stats.samples_drawn > 0);
        assert!(stats.collision_queries > 0);
        // The followed trajectory must not pass through exported obstacles.
        let margin = planner.config().margin;
        for p in traj.points() {
            assert!(
                !map.is_occupied(p.position, margin * 0.5),
                "trajectory point {:?} collides",
                p.position
            );
        }
    }

    #[test]
    fn blocked_endpoints_are_reported() {
        let map = map_with_gap();
        let planner = Planner::new(PlannerConfig::default());
        let inside_wall = Vec3::new(25.0, -10.0, 5.0);
        let free = Vec3::new(0.0, 0.0, 5.0);
        assert_eq!(
            planner
                .plan(&map, inside_wall, free, &bounds(), 2.0)
                .unwrap_err(),
            PlanError::StartBlocked
        );
        assert_eq!(
            planner
                .plan(&map, free, inside_wall, &bounds(), 2.0)
                .unwrap_err(),
            PlanError::GoalBlocked
        );
    }

    #[test]
    fn impossible_plan_reports_no_path() {
        // Fully enclosing box around the start.
        let mut map = OccupancyMap::new(0.5);
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let mut points = Vec::new();
        for yi in -20..=20 {
            for zi in -20..=20 {
                for &x in &[-5.0, 5.0] {
                    points.push(Vec3::new(x, yi as f64 * 0.5, 5.0 + zi as f64 * 0.5));
                }
                for &y in &[-5.0, 5.0] {
                    points.push(Vec3::new(yi as f64 * 0.5, y, 5.0 + zi as f64 * 0.5));
                }
            }
        }
        map.integrate_cloud(&PointCloud::new(origin, points), 2.0);
        let pm = PlannerMap::export(&map, &ExportConfig::new(0.5, 1e9, origin));
        let planner = Planner::new(PlannerConfig {
            rrt: RrtConfig {
                max_samples: 300,
                seed: 2,
                ..RrtConfig::default()
            },
            ..PlannerConfig::default()
        });
        let err = planner
            .plan(
                &pm,
                origin,
                Vec3::new(50.0, 0.0, 5.0),
                &Aabb::new(Vec3::new(-4.0, -4.0, 1.0), Vec3::new(4.0, 4.0, 9.0)),
                2.0,
            )
            .unwrap_err();
        match err {
            PlanError::NoPathFound { samples_drawn, .. } => assert!(samples_drawn > 0),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = PlanError::NoPathFound {
            samples_drawn: 42,
            volume_capped: true,
        };
        let s = format!("{e}");
        assert!(s.contains("42"));
        assert!(format!("{}", PlanError::StartBlocked).contains("start"));
        assert!(format!("{}", PlanError::GoalBlocked).contains("goal"));
    }

    #[test]
    #[should_panic(expected = "collision check step")]
    fn invalid_config_panics() {
        let _ = Planner::new(PlannerConfig {
            collision_check_step: 0.0,
            ..PlannerConfig::default()
        });
    }
}
