//! Property-based tests for environment generation, visibility and gaps.

use proptest::prelude::*;
use roborun_env::{
    gaps::aabb_gap, DifficultyConfig, EnvironmentGenerator, GapAnalysis, Obstacle, ObstacleField,
    VisibilityModel, Zone,
};
use roborun_geom::{Aabb, Ray, Vec3};

fn arb_difficulty() -> impl Strategy<Value = DifficultyConfig> {
    (0.1f64..0.7, 30.0f64..130.0, 100.0f64..400.0).prop_map(|(d, s, g)| DifficultyConfig {
        obstacle_density: d,
        obstacle_spread: s,
        goal_distance: g,
    })
}

fn arb_obstacle(id: u32) -> impl Strategy<Value = Obstacle> {
    ((-50.0f64..50.0), (-50.0f64..50.0), (0.5f64..3.0)).prop_map(move |(x, y, half)| {
        Obstacle::new(
            id,
            Aabb::from_center_half_extents(Vec3::new(x, y, 5.0), Vec3::splat(half)),
        )
    })
}

fn arb_field() -> impl Strategy<Value = ObstacleField> {
    prop::collection::vec(0.0f64..1.0, 0..12).prop_flat_map(|seeds| {
        let strategies: Vec<_> = seeds
            .iter()
            .enumerate()
            .map(|(i, _)| arb_obstacle(i as u32))
            .collect();
        strategies.prop_map(ObstacleField::new)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn generated_environments_have_invariants(cfg in arb_difficulty(), seed in 0u64..500) {
        let env = EnvironmentGenerator::new(cfg).generate(seed);
        // Start and goal are clear of obstacles and inside the bounds.
        prop_assert!(!env.field().is_occupied_with_margin(env.start(), 0.5));
        prop_assert!(!env.field().is_occupied_with_margin(env.goal(), 0.5));
        prop_assert!(env.bounds().contains(env.start()));
        prop_assert!(env.bounds().contains(env.goal()));
        // Mission length matches the requested goal distance.
        prop_assert!((env.mission_length() - cfg.goal_distance).abs() < 1e-6);
        // Every obstacle is inside the world bounds and rises from the ground.
        for o in env.obstacles() {
            prop_assert!(env.bounds().contains_aabb(&o.bounds));
            prop_assert!(o.bounds.min.z.abs() < 1e-9);
        }
        // Zone lookup is total and consistent with the layout ranges.
        for o in env.obstacles() {
            let zone = env.zone_at(o.center());
            let (lo, hi) = env.layout().zone_range(zone);
            prop_assert!(o.center().x >= lo - 1e-6 && o.center().x <= hi + 1e-6);
        }
    }

    #[test]
    fn same_seed_same_environment(cfg in arb_difficulty(), seed in 0u64..100) {
        let gen = EnvironmentGenerator::new(cfg);
        let a = gen.generate(seed);
        let b = gen.generate(seed);
        prop_assert_eq!(a.obstacles().len(), b.obstacles().len());
        for (oa, ob) in a.obstacles().iter().zip(b.obstacles()) {
            prop_assert_eq!(oa.bounds, ob.bounds);
        }
    }

    #[test]
    fn raycast_distance_never_exceeds_range(field in arb_field(),
                                            ox in -60.0f64..60.0, oy in -60.0f64..60.0,
                                            dx in -1.0f64..1.0, dy in -1.0f64..1.0,
                                            range in 1.0f64..80.0) {
        prop_assume!(dx.abs() + dy.abs() > 1e-3);
        let ray = Ray::new(Vec3::new(ox, oy, 5.0), Vec3::new(dx, dy, 0.0));
        let free = field.free_distance(&ray, range);
        prop_assert!(free >= 0.0 && free <= range + 1e-9);
        if let Some(hit) = field.raycast(&ray, range) {
            prop_assert!(hit.distance <= range + 1e-9);
            // The reported hit point is on the ray at the reported distance.
            prop_assert!((ray.at(hit.distance) - hit.point).norm() < 1e-9);
        }
    }

    #[test]
    fn visibility_bounded_and_monotone_in_ceiling(field in arb_field(),
                                                  px in -60.0f64..60.0, py in -60.0f64..60.0,
                                                  yaw in 0.0f64..std::f64::consts::TAU) {
        let clear = VisibilityModel::with_ceiling(40.0);
        let foggy = VisibilityModel::with_ceiling(10.0);
        let p = Vec3::new(px, py, 5.0);
        let dir = Vec3::new(yaw.cos(), yaw.sin(), 0.0);
        let v_clear = clear.visibility(&field, p, dir);
        let v_foggy = foggy.visibility(&field, p, dir);
        prop_assert!(v_clear >= clear.min_visibility && v_clear <= clear.max_visibility);
        prop_assert!(v_foggy >= foggy.min_visibility && v_foggy <= foggy.max_visibility);
        prop_assert!(v_foggy <= v_clear + 1e-9);
    }

    #[test]
    fn gap_analysis_invariants(field in arb_field(), px in -60.0f64..60.0, py in -60.0f64..60.0) {
        let g = GapAnalysis::analyze(&field, Vec3::new(px, py, 5.0), 40.0);
        prop_assert!(g.min_gap <= g.avg_gap + 1e-9);
        prop_assert!(g.min_gap >= 0.0);
        prop_assert!(g.nearest_obstacle >= 0.0);
        prop_assert!(g.min_gap <= GapAnalysis::OPEN_SPACE_GAP);
        prop_assert!(g.obstacle_count <= field.len());
    }

    #[test]
    fn aabb_gap_is_symmetric_and_zero_on_overlap(ax in -20.0f64..20.0, ay in -20.0f64..20.0,
                                                 bx in -20.0f64..20.0, by in -20.0f64..20.0,
                                                 ha in 0.5f64..4.0, hb in 0.5f64..4.0) {
        let a = Aabb::from_center_half_extents(Vec3::new(ax, ay, 5.0), Vec3::splat(ha));
        let b = Aabb::from_center_half_extents(Vec3::new(bx, by, 5.0), Vec3::splat(hb));
        let ab = aabb_gap(&a, &b);
        let ba = aabb_gap(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-9);
        if a.intersects(&b) {
            prop_assert!(ab < 1e-9);
        } else {
            prop_assert!(ab > 0.0);
        }
    }

    #[test]
    fn grid_point_queries_match_linear_scans(field in arb_field(),
                                             px in -60.0f64..60.0, py in -60.0f64..60.0,
                                             pz in 0.0f64..12.0,
                                             margin in 0.0f64..8.0,
                                             radius in 0.0f64..100.0) {
        let p = Vec3::new(px, py, pz);
        prop_assert_eq!(field.is_occupied(p), field.is_occupied_linear(p));
        prop_assert_eq!(
            field.is_occupied_with_margin(p, margin),
            field.is_occupied_with_margin_linear(p, margin)
        );
        prop_assert_eq!(field.distance_to_nearest(p), field.distance_to_nearest_linear(p));
        prop_assert_eq!(
            field.nearest_obstacle(p).map(|o| o.id),
            field.nearest_obstacle_linear(p).map(|o| o.id)
        );
        let indexed: Vec<u32> = field.obstacles_within(p, radius).iter().map(|o| o.id).collect();
        let linear: Vec<u32> = field.obstacles_within_linear(p, radius).iter().map(|o| o.id).collect();
        prop_assert_eq!(indexed, linear);
    }

    #[test]
    fn grid_raycast_matches_linear_scan(field in arb_field(),
                                        ox in -60.0f64..60.0, oy in -60.0f64..60.0,
                                        oz in 0.0f64..12.0,
                                        dx in -1.0f64..1.0, dy in -1.0f64..1.0,
                                        dz in -1.0f64..1.0,
                                        range in 1.0f64..120.0) {
        prop_assume!(dx.abs() + dy.abs() + dz.abs() > 1e-3);
        let ray = Ray::new(Vec3::new(ox, oy, oz), Vec3::new(dx, dy, dz));
        let indexed = field.raycast(&ray, range);
        let linear = field.raycast_linear(&ray, range);
        prop_assert_eq!(indexed, linear);
        prop_assert_eq!(
            field.free_distance(&ray, range),
            linear.map(|h| h.distance).unwrap_or(range)
        );
    }

    #[test]
    fn congested_zones_outweigh_open_zone(seed in 0u64..40) {
        let env = EnvironmentGenerator::new(DifficultyConfig::mid()).generate(seed);
        let mut counts = [0usize; 3];
        for o in env.obstacles() {
            match env.zone_at(o.center()) {
                Zone::A => counts[0] += 1,
                Zone::B => counts[1] += 1,
                Zone::C => counts[2] += 1,
            }
        }
        prop_assert!(counts[0] + counts[2] > counts[1]);
    }
}

/// The 4-wide and 8-wide broad-phase dispatch widths must answer every
/// query identically — width changes throughput, never results. Swept
/// over the shared adversarial box scenarios at both forced widths.
#[test]
fn simd_widths_agree_on_adversarial_box_scenarios() {
    use roborun_geom::SimdWidth;
    for (name, boxes) in roborun_conformance::adversarial_box_sets(23, 8.0) {
        let obstacles: Vec<Obstacle> = boxes
            .iter()
            .enumerate()
            .map(|(i, b)| Obstacle::new(i as u32, *b))
            .collect();
        let w4 = ObstacleField::with_simd_width(obstacles.clone(), SimdWidth::W4);
        let w8 = ObstacleField::with_simd_width(obstacles, SimdWidth::W8);
        for q in roborun_conformance::boundary_probes(23, w4.broad_phase_cell()) {
            assert_eq!(
                w4.distance_to_nearest(q),
                w8.distance_to_nearest(q),
                "distance diverged on {name} at {q}"
            );
            for margin in [0.0, 0.45, 2.0] {
                assert_eq!(
                    w4.is_occupied_with_margin(q, margin),
                    w8.is_occupied_with_margin(q, margin),
                    "margin occupancy diverged on {name} at {q} m={margin}"
                );
            }
            for dir in [
                Vec3::new(1.0, 0.0, 0.0),
                Vec3::new(-0.6, 0.8, 0.0),
                Vec3::new(0.3, -0.5, 0.4),
            ] {
                let ray = Ray::new(q, dir);
                assert_eq!(
                    w4.raycast(&ray, 120.0),
                    w8.raycast(&ray, 120.0),
                    "raycast diverged on {name} at {q} dir {dir}"
                );
            }
        }
    }
}

/// The obstacle-field queries swept over the shared adversarial box
/// scenarios (empty world, one box, dense lattice, clusters, boxes whose
/// faces land exactly on broad-phase cell planes).
#[test]
fn adversarial_box_scenarios_match_linear_references() {
    for (name, boxes) in roborun_conformance::adversarial_box_sets(17, 8.0) {
        let field: ObstacleField = boxes
            .iter()
            .enumerate()
            .map(|(i, b)| Obstacle::new(i as u32, *b))
            .collect();
        for q in roborun_conformance::boundary_probes(17, field.broad_phase_cell()) {
            assert_eq!(
                field.distance_to_nearest(q),
                field.distance_to_nearest_linear(q),
                "distance diverged on {name} at {q}"
            );
            assert_eq!(
                field.nearest_obstacle(q).map(|o| o.id),
                field.nearest_obstacle_linear(q).map(|o| o.id),
                "nearest diverged on {name} at {q}"
            );
            for margin in [0.0, 0.45, 2.0] {
                assert_eq!(
                    field.is_occupied_with_margin(q, margin),
                    field.is_occupied_with_margin_linear(q, margin),
                    "margin occupancy diverged on {name} at {q} m={margin}"
                );
            }
        }
    }
}

fn arb_obstacles() -> impl Strategy<Value = Vec<Obstacle>> {
    prop::collection::vec(
        (
            (-40.0f64..40.0, -40.0f64..40.0, 0.0f64..12.0),
            (0.2f64..6.0, 0.2f64..6.0, 0.2f64..6.0),
        ),
        0..40,
    )
    .prop_map(|boxes| {
        boxes
            .into_iter()
            .enumerate()
            .map(|(i, ((x, y, z), (hx, hy, hz)))| {
                Obstacle::new(
                    i as u32,
                    Aabb::from_center_half_extents(Vec3::new(x, y, z), Vec3::new(hx, hy, hz)),
                )
            })
            .collect()
    })
}

/// Every query family of `field` at `p`, in one comparable value.
type Answers = (
    bool,
    bool,
    Option<f64>,
    Option<u32>,
    Vec<u32>,
    Option<roborun_env::obstacle::ObstacleHit>,
    f64,
    bool,
    Vec<u32>,
);

fn answers(field: &ObstacleField, p: Vec3, margin: f64, radius: f64, dir: Vec3) -> Answers {
    let ray = Ray::new(p, dir);
    (
        field.is_occupied(p),
        field.is_occupied_with_margin(p, margin),
        field.distance_to_nearest(p),
        field.nearest_obstacle(p).map(|o| o.id),
        field
            .obstacles_within(p, radius)
            .iter()
            .map(|o| o.id)
            .collect(),
        field.raycast(&ray, 90.0),
        field.free_distance(&ray, 90.0),
        field.segment_blocked(p, p + dir * 30.0, margin),
        field
            .subfield_within(p, radius)
            .obstacles()
            .iter()
            .map(|o| o.id)
            .collect(),
    )
}

fn linear_answers(field: &ObstacleField, p: Vec3, margin: f64, radius: f64, dir: Vec3) -> Answers {
    let ray = Ray::new(p, dir);
    let hit = field.raycast_linear(&ray, 90.0);
    let within: Vec<u32> = field
        .obstacles_within_linear(p, radius)
        .iter()
        .map(|o| o.id)
        .collect();
    // `segment_blocked` has no linear twin: sample it the same way
    // through the linear margin test.
    let (a, b) = (p, p + dir * 30.0);
    let length = a.distance(b);
    let step = (margin * 0.5).max(0.05).min(length);
    let mut blocked = false;
    let mut t = 0.0;
    while t <= length {
        blocked |= field.is_occupied_with_margin_linear(Ray::new(a, b - a).at(t), margin);
        t += step;
    }
    blocked |= field.is_occupied_with_margin_linear(b, margin);
    (
        field.is_occupied_linear(p),
        field.is_occupied_with_margin_linear(p, margin),
        field.distance_to_nearest_linear(p),
        field.nearest_obstacle_linear(p).map(|o| o.id),
        within.clone(),
        hit,
        hit.map(|h| h.distance).unwrap_or(90.0),
        blocked,
        within,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The flat broad phase reached three ways — one build over every
    /// obstacle, a build over a prefix extended by the rest (in place
    /// and through `extended`), and one `push` at a time from empty —
    /// answers every query family identically to the others and to the
    /// linear references, at both pack widths.
    #[test]
    fn build_order_does_not_change_answers(
        obstacles in arb_obstacles(),
        split in 0.0f64..1.0,
        probes in prop::collection::vec(
            (
                (-50.0f64..50.0, -50.0f64..50.0, -2.0f64..14.0),
                (-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0),
                (0.0f64..4.0, 0.0f64..30.0),
            ),
            8..9,
        ),
    ) {
        use roborun_geom::SimdWidth;
        let k = (split * obstacles.len() as f64) as usize;
        for width in [SimdWidth::W4, SimdWidth::W8] {
            let whole = ObstacleField::with_simd_width(obstacles.clone(), width);
            let mut extended = ObstacleField::with_simd_width(obstacles[..k].to_vec(), width);
            let copied = extended.extended(obstacles[k..].iter().copied());
            extended.extend(obstacles[k..].iter().copied());
            let mut pushed = ObstacleField::with_simd_width(Vec::new(), width);
            for &o in &obstacles {
                pushed.push(o);
            }
            for field in [&whole, &extended, &copied, &pushed] {
                prop_assert_eq!(field.obstacles(), obstacles.as_slice());
                prop_assert_eq!(field.simd_width(), width);
            }
            prop_assert_eq!(copied.broad_phase_cell(), extended.broad_phase_cell());
            for &((px, py, pz), (dx, dy, dz), (margin, radius)) in &probes {
                let p = Vec3::new(px, py, pz);
                let dir = if dx.abs() + dy.abs() + dz.abs() > 1e-3 {
                    Vec3::new(dx, dy, dz)
                } else {
                    Vec3::X
                };
                let want = linear_answers(&whole, p, margin, radius, dir);
                prop_assert_eq!(answers(&whole, p, margin, radius, dir), want.clone());
                prop_assert_eq!(answers(&extended, p, margin, radius, dir), want.clone());
                prop_assert_eq!(answers(&copied, p, margin, radius, dir), want.clone());
                prop_assert_eq!(answers(&pushed, p, margin, radius, dir), want);
            }
        }
    }
}
