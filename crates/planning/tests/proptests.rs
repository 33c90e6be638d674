//! Property-based tests for planning: collision checking, RRT* and
//! smoothing invariants.

use proptest::prelude::*;
use roborun_geom::{Aabb, Vec3};
use roborun_perception::{ExportConfig, OccupancyMap, PlannerMap, PointCloud};
use roborun_planning::{
    polyline_clear_of_boxes, smooth_path, CollisionChecker, HazardSource, PeerTrajectoryHazard,
    PredictedHazards, RrtConfig, RrtStar, SmoothingConfig, Trajectory, TrajectoryPoint,
};

fn arb_waypoints() -> impl Strategy<Value = Vec<Vec3>> {
    prop::collection::vec(
        ((-40.0f64..40.0), (-40.0f64..40.0), (2.0f64..10.0))
            .prop_map(|(x, y, z)| Vec3::new(x, y, z)),
        2..8,
    )
}

fn wall_map(gap_lo: f64, gap_hi: f64) -> PlannerMap {
    let origin = Vec3::new(0.0, 0.0, 5.0);
    let mut map = OccupancyMap::new(0.5);
    let mut points = Vec::new();
    for yi in -40..=40 {
        let y = yi as f64 * 0.5;
        if y >= gap_lo && y <= gap_hi {
            continue;
        }
        for zi in 0..20 {
            points.push(Vec3::new(20.0, y, zi as f64 * 0.5));
        }
    }
    map.integrate_cloud(&PointCloud::new(origin, points), 1.0);
    PlannerMap::export(&map, &ExportConfig::new(0.5, 1e9, origin))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The grid-indexed RRT* must be bit-identical to the retained linear
    /// reference on random worlds: same path, same costs, same sample and
    /// collision-query counts.
    #[test]
    fn indexed_rrtstar_matches_linear_reference(gap_center in -15.0f64..15.0,
                                                gap_width in 2.0f64..8.0,
                                                seed in 0u64..1000,
                                                samples in 100usize..500) {
        let map = wall_map(gap_center - gap_width * 0.5, gap_center + gap_width * 0.5);
        let planner = RrtStar::new(RrtConfig {
            seed,
            max_samples: samples,
            ..RrtConfig::default()
        });
        let start = Vec3::new(0.0, 0.0, 5.0);
        let goal = Vec3::new(40.0, 0.0, 5.0);
        let bounds = Aabb::new(Vec3::new(-5.0, -25.0, 1.0), Vec3::new(45.0, 25.0, 11.0));
        let mut c1 = CollisionChecker::new(map.clone(), 0.45, 0.5);
        let mut c2 = CollisionChecker::new(map, 0.45, 0.5);
        let indexed = planner.plan(&mut c1, start, goal, &bounds);
        let linear = planner.plan_linear_reference(&mut c2, start, goal, &bounds);
        prop_assert_eq!(indexed, linear);
        prop_assert_eq!(c1.queries(), c2.queries());
    }

    #[test]
    fn smoothing_respects_speed_cap(waypoints in arb_waypoints(),
                                    cruise in 0.2f64..12.0,
                                    cap in 0.5f64..6.0) {
        let cfg = SmoothingConfig { max_speed: cap, ..SmoothingConfig::default() };
        let traj = smooth_path(&waypoints, cruise, &cfg);
        prop_assert!(traj.max_speed() <= cap + 1e-9);
        // Endpoints preserved.
        prop_assert!((traj.start_position().unwrap() - waypoints[0]).norm() < 1e-6);
        prop_assert!((traj.end_position().unwrap() - *waypoints.last().unwrap()).norm() < 1e-6);
        // Time strictly non-decreasing and speeds non-negative.
        for w in traj.points().windows(2) {
            prop_assert!(w[1].time >= w[0].time);
        }
        for p in traj.points() {
            prop_assert!(p.speed >= 0.0);
        }
        // Path length at least the straight-line start→end distance.
        let direct = waypoints[0].distance(*waypoints.last().unwrap());
        prop_assert!(traj.length() + 1e-6 >= direct * 0.99);
    }

    #[test]
    fn trajectory_sampling_is_clamped_and_monotone(waypoints in arb_waypoints(), t in -5.0f64..200.0) {
        let traj = smooth_path(&waypoints, 3.0, &SmoothingConfig::default());
        let sample = traj.sample_at(t).unwrap();
        prop_assert!(sample.time >= 0.0 - 1e-9);
        prop_assert!(sample.time <= traj.duration() + 1e-9 || t <= 0.0);
        // remaining_from never yields a longer duration than the original.
        let rest = traj.remaining_from(t.max(0.0));
        prop_assert!(rest.duration() <= traj.duration() + 1e-9);
    }

    #[test]
    fn rrt_paths_are_collision_free_and_anchored(seed in 0u64..64, gap_center in -10.0f64..10.0) {
        let map = wall_map(gap_center - 2.0, gap_center + 2.0);
        let mut checker = CollisionChecker::new(map.clone(), 0.45, 0.5);
        let planner = RrtStar::new(RrtConfig { seed, ..RrtConfig::default() });
        let start = Vec3::new(0.0, 0.0, 5.0);
        let goal = Vec3::new(40.0, 0.0, 5.0);
        let bounds = Aabb::new(Vec3::new(-5.0, -30.0, 1.0), Vec3::new(45.0, 30.0, 11.0));
        let result = planner.plan(&mut checker, start, goal, &bounds);
        if result.found() {
            prop_assert!((result.path[0] - start).norm() < 1e-9);
            prop_assert!((result.path.last().unwrap().distance(goal)) < 1e-9);
            // Verified against a fresh checker with the same margin and the
            // same sampling step the planner used (a finer verification step
            // could legitimately find collisions the coarser planning step
            // cannot see — that accuracy/latency trade-off is exactly the
            // knob the paper's governor controls).
            let mut verify = CollisionChecker::new(map.clone(), 0.45, 0.5);
            prop_assert!(verify.path_free(&result.path), "planned path collides");
            // Cost equals the path length.
            let length: f64 = result.path.windows(2).map(|w| w[0].distance(w[1])).sum();
            prop_assert!((length - result.cost).abs() < 1e-6);
        }
    }

    #[test]
    fn rrt_volume_monitor_never_exceeded_by_much(seed in 0u64..32, budget in 100.0f64..50_000.0) {
        let map = wall_map(5.0, 8.0);
        let mut checker = CollisionChecker::new(map, 0.45, 0.5);
        let planner = RrtStar::new(RrtConfig {
            seed,
            max_explored_volume: budget,
            max_samples: 500,
            ..RrtConfig::default()
        });
        let bounds = Aabb::new(Vec3::new(-5.0, -30.0, 1.0), Vec3::new(45.0, 30.0, 11.0));
        let result = planner.plan(
            &mut checker,
            Vec3::new(0.0, 0.0, 5.0),
            Vec3::new(40.0, 0.0, 5.0),
            &bounds,
        );
        // The monitor stops growth one step after the budget is crossed, so
        // the final explored volume can only exceed it by a bounded margin
        // (the bounds' volume is the absolute cap).
        if result.volume_capped {
            prop_assert!(result.explored_volume <= bounds.volume() + 1e-6);
        }
    }

    #[test]
    fn trajectory_construction_rejects_time_regressions(times in prop::collection::vec(0.0f64..100.0, 2..10)) {
        let sorted = {
            let mut t = times.clone();
            t.sort_by(|a, b| a.partial_cmp(b).unwrap());
            t
        };
        let points: Vec<TrajectoryPoint> = sorted
            .iter()
            .map(|&t| TrajectoryPoint { time: t, position: Vec3::new(t, 0.0, 5.0), speed: 1.0 })
            .collect();
        // Sorted times always construct fine.
        let traj = Trajectory::new(points);
        prop_assert!(traj.duration() >= 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Satellite conformance for the incremental broad-phase: a random
    /// sequence of `PlannerMap` delta applications (growing scans plus a
    /// retain-radius contraction) must leave the patched candidate grid
    /// equal to a from-scratch rebuild after every step — cell for cell,
    /// and on every probe query.
    #[test]
    fn incremental_broad_phase_matches_rebuild_after_every_delta(
        scans in prop::collection::vec(
            prop::collection::vec(
                ((-20.0f64..20.0), (-20.0f64..20.0), (0.0f64..12.0))
                    .prop_map(|(x, y, z)| Vec3::new(x, y, z)),
                1..40,
            ),
            1..6,
        ),
        retain_radius in 8.0f64..30.0,
        margin in 0.1f64..1.2,
    ) {
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let mut map = OccupancyMap::new(0.5);
        let mut patched: Option<CollisionChecker> = None;
        let n_scans = scans.len();
        for (i, scan) in scans.into_iter().enumerate() {
            map.integrate_cloud(&PointCloud::new(origin, scan), 0.5);
            if i + 1 == n_scans {
                // The final step also removes keys, exercising the
                // removal side of the patch.
                map.retain_within(origin, retain_radius);
            }
            let export = PlannerMap::export(&map, &ExportConfig::new(0.5, 1e9, origin));
            match patched.as_mut() {
                Some(checker) => checker.update_map(export.clone()),
                None => {
                    let mut checker = CollisionChecker::new(export.clone(), margin, 0.5);
                    checker.prebuild_broad_phase();
                    patched = Some(checker);
                }
            }
            let patched = patched.as_mut().unwrap();
            let mut rebuilt = CollisionChecker::new(export.clone(), margin, 0.5);
            rebuilt.prebuild_broad_phase();
            prop_assert_eq!(
                patched.broad_phase_cells(),
                rebuilt.broad_phase_cells(),
                "candidate grids diverged after delta step {}",
                i
            );
            for q in roborun_conformance::boundary_probes(i as u64, 0.5) {
                prop_assert_eq!(
                    patched.point_free(q),
                    CollisionChecker::point_free_reference(&export, q, margin),
                    "patched query diverged at {} after step {}",
                    q,
                    i
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Satellite conformance for the hazard walkers: a polyline with
    /// repeated/coincident waypoints must answer the same boolean as the
    /// plain polyline on every walker — degenerate zero-length segments
    /// may never skip an endpoint check. Exercises the static checker
    /// (`path_free`), the incremental re-validation
    /// (`path_clear_of_added`), the predicted-hazard walk and the peer
    /// swept-trajectory walk on the same duplicated input.
    #[test]
    fn duplicate_point_polylines_keep_endpoint_coverage(
        waypoints in arb_waypoints(),
        dup_mask in prop::collection::vec(0usize..3, 2..8),
        gap_center in -10.0f64..10.0,
    ) {
        let map = wall_map(gap_center - 2.0, gap_center + 2.0);
        let mut dup = Vec::new();
        for (i, p) in waypoints.iter().enumerate() {
            let copies = 1 + dup_mask[i % dup_mask.len()];
            for _ in 0..copies {
                dup.push(*p);
            }
        }

        // Static checker: the duplicated polyline visits the same points.
        let mut plain = CollisionChecker::new(map.clone(), 0.45, 0.5);
        let mut dupped = CollisionChecker::new(map.clone(), 0.45, 0.5);
        prop_assert_eq!(plain.path_free(&waypoints), dupped.path_free(&dup));
        // A zero-length segment is exactly the endpoint's point query.
        for &p in &waypoints {
            let mut a = CollisionChecker::new(map.clone(), 0.45, 0.5);
            let mut b = CollisionChecker::new(map.clone(), 0.45, 0.5);
            prop_assert_eq!(a.segment_free(p, p), b.point_free(p));
        }

        // Incremental re-validation against added voxels: every box of
        // the map is "added" relative to an empty snapshot.
        let empty = roborun_perception::PlannerMap::empty(0.5);
        let delta = map.delta_from(&empty).unwrap();
        prop_assert_eq!(
            CollisionChecker::path_clear_of_added(&delta, waypoints.iter().copied(), 0.3, 0.5),
            CollisionChecker::path_clear_of_added(&delta, dup.iter().copied(), 0.3, 0.5)
        );

        // Predicted-hazard and posterior polyline walks.
        let boxes: Vec<Aabb> = map.boxes().to_vec();
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let hazards = PredictedHazards::new(boxes.clone(), 0.45, origin, 1e9);
        prop_assert_eq!(
            hazards.path_clear(waypoints.iter().copied()),
            hazards.path_clear(dup.iter().copied())
        );
        prop_assert_eq!(
            polyline_clear_of_boxes(waypoints.iter().copied(), &boxes, 0.45, origin, 1e9),
            polyline_clear_of_boxes(dup.iter().copied(), &boxes, 0.45, origin, 1e9)
        );

        // Peer swept-trajectory source: a degenerate segment query equals
        // the endpoint's point query, and a duplicated peer polyline
        // sweeps the same corridor as the plain one.
        let mut peers = PeerTrajectoryHazard::new(0.45, 0.3);
        peers.set_peer(0, &waypoints);
        let mut peers_dup = PeerTrajectoryHazard::new(0.45, 0.3);
        peers_dup.set_peer(0, &dup);
        for q in roborun_conformance::boundary_probes(7, 0.5) {
            prop_assert_eq!(peers.point_blocked(q), peers_dup.point_blocked(q));
        }
        let p = waypoints[0];
        let free_seg = HazardSource::segment_free(&mut peers, p, p);
        let free_pt = HazardSource::point_free(&mut peers, p);
        prop_assert_eq!(free_seg, free_pt);
    }
}
