//! Property-based tests for the geometry primitives.

use proptest::prelude::*;
use roborun_geom::{
    percentile, precision_lattice, snap_to_lattice, Aabb, Aabb4, Aabb8, Polynomial, Pose, Ray,
    RunningStats, SplitMix64, Vec3, VoxelKey,
};

fn finite_coord() -> impl Strategy<Value = f64> {
    -1.0e3..1.0e3
}

fn arb_vec3() -> impl Strategy<Value = Vec3> {
    (finite_coord(), finite_coord(), finite_coord()).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn arb_aabb() -> impl Strategy<Value = Aabb> {
    (arb_vec3(), arb_vec3()).prop_map(|(a, b)| Aabb::new(a, b))
}

proptest! {
    #[test]
    fn vec3_add_commutes(a in arb_vec3(), b in arb_vec3()) {
        let lhs = a + b;
        let rhs = b + a;
        prop_assert!((lhs - rhs).norm() < 1e-9);
    }

    #[test]
    fn vec3_norm_triangle_inequality(a in arb_vec3(), b in arb_vec3()) {
        prop_assert!((a + b).norm() <= a.norm() + b.norm() + 1e-9);
    }

    #[test]
    fn vec3_lerp_stays_on_segment(a in arb_vec3(), b in arb_vec3(), t in 0.0f64..1.0) {
        let p = a.lerp(b, t);
        let seg = a.distance(b);
        prop_assert!(a.distance(p) <= seg + 1e-6);
        prop_assert!(b.distance(p) <= seg + 1e-6);
    }

    #[test]
    fn aabb_contains_its_center_and_corners(aabb in arb_aabb()) {
        prop_assert!(aabb.contains(aabb.center()));
        for c in aabb.corners() {
            prop_assert!(aabb.contains(c));
        }
    }

    #[test]
    fn aabb_union_contains_both(a in arb_aabb(), b in arb_aabb()) {
        let u = Aabb::union(&a, &b);
        prop_assert!(u.contains_aabb(&a));
        prop_assert!(u.contains_aabb(&b));
    }

    #[test]
    fn aabb_intersection_within_both(a in arb_aabb(), b in arb_aabb()) {
        if let Some(i) = a.intersection(&b) {
            prop_assert!(a.contains_aabb(&i));
            prop_assert!(b.contains_aabb(&i));
            prop_assert!(i.volume() <= a.volume() + 1e-9);
            prop_assert!(i.volume() <= b.volume() + 1e-9);
        }
    }

    #[test]
    fn ray_hit_points_lie_in_box(origin in arb_vec3(), dir in arb_vec3(), aabb in arb_aabb()) {
        prop_assume!(dir.norm() > 1e-6);
        let ray = Ray::new(origin, dir);
        if let Some(hit) = ray.intersect_aabb(&aabb) {
            prop_assert!(hit.t_min <= hit.t_max + 1e-9);
            // Entry and exit points are on/in the box (allow small tolerance).
            let grown = aabb.inflate(1e-6);
            prop_assert!(grown.contains(ray.at(hit.t_min)));
            prop_assert!(grown.contains(ray.at(hit.t_max)));
        }
    }

    #[test]
    fn batched_aabb4_slab_test_is_bit_identical_to_scalar(
        origin in arb_vec3(),
        dir in arb_vec3(),
        boxes in prop::collection::vec(arb_aabb(), 0..5),
    ) {
        prop_assume!(dir.norm() > 1e-6);
        // Axis-aligned (slab-parallel) directions are exercised too: zero
        // out components sometimes by snapping tiny ones.
        let ray = Ray::new(origin, dir);
        let pack = Aabb4::pack(&boxes);
        let batched = ray.intersect_aabb4(&pack);
        for (lane, b) in boxes.iter().enumerate() {
            let scalar = ray.intersect_aabb(b);
            prop_assert_eq!(
                batched[lane].map(|h| (h.t_min.to_bits(), h.t_max.to_bits())),
                scalar.map(|h| (h.t_min.to_bits(), h.t_max.to_bits())),
                "lane {} of {:?}", lane, b
            );
        }
        for (lane, result) in batched.iter().enumerate().skip(boxes.len()) {
            prop_assert!(result.is_none(), "padding lane {} hit", lane);
        }
    }

    #[test]
    fn batched_aabb4_axis_parallel_rays_match_scalar(
        origin in arb_vec3(),
        axis in 0usize..3,
        sign in any::<bool>(),
        boxes in prop::collection::vec(arb_aabb(), 1..5),
    ) {
        // Exactly axis-parallel rays drive the `d.abs() < 1e-12` slab
        // branch in every lane.
        let mut c = [0.0f64; 3];
        c[axis] = if sign { 1.0 } else { -1.0 };
        let ray = Ray::new(origin, Vec3::new(c[0], c[1], c[2]));
        let pack = Aabb4::pack(&boxes);
        let batched = ray.intersect_aabb4(&pack);
        for (lane, b) in boxes.iter().enumerate() {
            let scalar = ray.intersect_aabb(b);
            prop_assert_eq!(
                batched[lane].map(|h| (h.t_min.to_bits(), h.t_max.to_bits())),
                scalar.map(|h| (h.t_min.to_bits(), h.t_max.to_bits())),
                "lane {} of {:?}", lane, b
            );
        }
    }

    #[test]
    fn batched_aabb8_slab_test_is_bit_identical_to_scalar(
        origin in arb_vec3(),
        dir in arb_vec3(),
        boxes in prop::collection::vec(arb_aabb(), 0..9),
    ) {
        prop_assume!(dir.norm() > 1e-6);
        let ray = Ray::new(origin, dir);
        let pack = Aabb8::pack(&boxes);
        let batched = ray.intersect_aabb8(&pack);
        for (lane, b) in boxes.iter().enumerate() {
            let scalar = ray.intersect_aabb(b);
            prop_assert_eq!(
                batched[lane].map(|h| (h.t_min.to_bits(), h.t_max.to_bits())),
                scalar.map(|h| (h.t_min.to_bits(), h.t_max.to_bits())),
                "lane {} of {:?}", lane, b
            );
        }
        for (lane, result) in batched.iter().enumerate().skip(boxes.len()) {
            prop_assert!(result.is_none(), "padding lane {} hit", lane);
        }
    }

    #[test]
    fn batched_aabb8_axis_parallel_rays_match_scalar(
        origin in arb_vec3(),
        axis in 0usize..3,
        sign in any::<bool>(),
        boxes in prop::collection::vec(arb_aabb(), 1..9),
    ) {
        // Exactly axis-parallel rays drive the `d.abs() < 1e-12` slab
        // branch in every lane of the 8-wide kernel.
        let mut c = [0.0f64; 3];
        c[axis] = if sign { 1.0 } else { -1.0 };
        let ray = Ray::new(origin, Vec3::new(c[0], c[1], c[2]));
        let pack = Aabb8::pack(&boxes);
        let batched = ray.intersect_aabb8(&pack);
        for (lane, b) in boxes.iter().enumerate() {
            let scalar = ray.intersect_aabb(b);
            prop_assert_eq!(
                batched[lane].map(|h| (h.t_min.to_bits(), h.t_max.to_bits())),
                scalar.map(|h| (h.t_min.to_bits(), h.t_max.to_bits())),
                "lane {} of {:?}", lane, b
            );
        }
    }

    #[test]
    fn batched_aabb8_distance_is_bit_identical_to_scalar(
        p in arb_vec3(),
        boxes in prop::collection::vec(arb_aabb(), 0..9),
    ) {
        let pack = Aabb8::pack(&boxes);
        let d8 = pack.distance_to_point8(p);
        for (lane, b) in boxes.iter().enumerate() {
            prop_assert_eq!(
                d8[lane].to_bits(),
                b.distance_to_point(p).to_bits(),
                "lane {} of {:?}", lane, b
            );
        }
        for (lane, &d) in d8.iter().enumerate().skip(boxes.len()) {
            prop_assert_eq!(d, f64::INFINITY, "padding lane {} finite", lane);
        }
    }

    #[test]
    fn ray_march_points_are_ordered(origin in arb_vec3(), dir in arb_vec3(),
                                    step in 0.05f64..2.0, range in 0.0f64..50.0) {
        prop_assume!(dir.norm() > 1e-6);
        let ray = Ray::new(origin, dir);
        let pts: Vec<Vec3> = ray.march(step, range).collect();
        prop_assert!(!pts.is_empty());
        for w in pts.windows(2) {
            let d = w[0].distance(w[1]);
            prop_assert!((d - step).abs() < 1e-6);
        }
    }

    #[test]
    fn voxel_key_stable_within_voxel(p in arb_vec3(), size in 0.05f64..4.0) {
        let key = VoxelKey::from_point(p, size);
        let center = key.center(size);
        prop_assert_eq!(VoxelKey::from_point(center, size), key);
    }

    #[test]
    fn snap_is_idempotent_and_bounded(desired in 0.01f64..50.0) {
        let snapped = snap_to_lattice(desired, 0.3, 6);
        let again = snap_to_lattice(snapped, 0.3, 6);
        prop_assert!((snapped - again).abs() < 1e-12);
        let lattice = precision_lattice(0.3, 6);
        prop_assert!(snapped >= lattice[0] - 1e-12);
        prop_assert!(snapped <= *lattice.last().unwrap() + 1e-12);
    }

    #[test]
    fn running_stats_mean_between_min_max(xs in prop::collection::vec(-1e3f64..1e3, 1..200)) {
        let stats: RunningStats = xs.iter().copied().collect();
        prop_assert!(stats.mean() >= stats.min() - 1e-9);
        prop_assert!(stats.mean() <= stats.max() + 1e-9);
        prop_assert!(stats.variance() >= 0.0);
    }

    #[test]
    fn percentile_monotone_in_q(xs in prop::collection::vec(-1e3f64..1e3, 1..100),
                                q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let p_lo = percentile(&xs, lo).unwrap();
        let p_hi = percentile(&xs, hi).unwrap();
        prop_assert!(p_lo <= p_hi + 1e-9);
    }

    #[test]
    fn pose_roundtrip(p in arb_vec3(), yaw in -10.0f64..10.0, body in arb_vec3()) {
        let pose = Pose::new(p, yaw);
        let back = pose.world_to_body(pose.body_to_world(body));
        prop_assert!((back - body).norm() < 1e-6);
    }

    #[test]
    fn polynomial_derivative_linearity(c in prop::collection::vec(-10.0f64..10.0, 1..6), x in -3.0f64..3.0) {
        let p = Polynomial::new(c.clone());
        let q = Polynomial::new(c.iter().map(|v| v * 2.0).collect());
        // d/dx (2p) == 2 d/dx p
        let lhs = q.derivative().eval(x);
        let rhs = 2.0 * p.derivative().eval(x);
        prop_assert!((lhs - rhs).abs() < 1e-6);
    }

    #[test]
    fn splitmix_uniform_bounds(seed in any::<u64>(), lo in -100.0f64..0.0, span in 0.001f64..100.0) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..32 {
            let x = rng.uniform(lo, lo + span);
            prop_assert!(x >= lo && x < lo + span);
        }
    }
}

/// The point-grid nearest/radius queries swept over the shared adversarial
/// scenario family (exact voxel-face points, dense lattices, clusters) at
/// several cell sizes — shapes uniform random sampling rarely produces.
#[test]
fn adversarial_point_scenarios_match_linear_references() {
    use roborun_geom::index::{nearest_linear, within_radius_linear, PointGridIndex};
    for cell in [0.5, 1.0, 4.0] {
        for scenario in roborun_conformance::adversarial_point_sets(5, cell) {
            let mut index = PointGridIndex::new(cell);
            for &p in &scenario.points {
                index.insert(p);
            }
            for q in roborun_conformance::boundary_probes(5, cell) {
                assert_eq!(
                    index.nearest(q),
                    nearest_linear(&scenario.points, q),
                    "nearest diverged on {} cell={cell} q={q}",
                    scenario.name
                );
                for radius in [0.0, cell * 0.5, cell, 13.7] {
                    assert_eq!(
                        index.within_radius(q, radius),
                        within_radius_linear(&scenario.points, q, radius),
                        "within_radius diverged on {} cell={cell} q={q} r={radius}",
                        scenario.name
                    );
                }
            }
        }
    }
}

/// The reference semantics of `VoxelKey::from_point` on one axis.
fn key_reference(v: f64, size: f64) -> i64 {
    (v / size).floor() as i64
}

fn assert_key_matches_reference(p: Vec3, size: f64) {
    let key = VoxelKey::from_point(p, size);
    let want = (
        key_reference(p.x, size),
        key_reference(p.y, size),
        key_reference(p.z, size),
    );
    assert_eq!(
        (key.x, key.y, key.z),
        want,
        "p = ({:e}, {:e}, {:e}) [{:016x} {:016x} {:016x}], size = {size:e}",
        p.x,
        p.y,
        p.z,
        p.x.to_bits(),
        p.y.to_bits(),
        p.z.to_bits(),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Arbitrary bit patterns: NaNs, infinities, subnormals and values
    /// far beyond the `i64` range all come up. At size 1 the quotient is
    /// the coordinate itself, so every pattern reaches the floor as is.
    #[test]
    fn voxel_key_floor_matches_reference_on_any_bits(
        bits in (any::<u64>(), any::<u64>(), any::<u64>()),
        size_bits in any::<u64>(),
    ) {
        let p = Vec3::new(f64::from_bits(bits.0), f64::from_bits(bits.1), f64::from_bits(bits.2));
        assert_key_matches_reference(p, 1.0);
        let size = f64::from_bits(size_bits >> 1);
        if size > 0.0 {
            assert_key_matches_reference(p, size);
        }
    }

    /// Values one ulp either side of an integer quotient, where a floor
    /// built from truncation is most likely to be off by one.
    #[test]
    fn voxel_key_floor_matches_reference_next_to_integers(
        k in -1_000_000i64..1_000_000,
        shift in 0u32..60,
        size in voxel_sizes(),
    ) {
        let whole = (k as f64) * (1u64 << shift) as f64;
        for q in [whole.next_down(), whole, whole.next_up()] {
            assert_key_matches_reference(Vec3::new(q, -q, q * size), 1.0);
            assert_key_matches_reference(Vec3::splat(q * size), size);
        }
    }
}

fn voxel_sizes() -> impl Strategy<Value = f64> {
    (0usize..6).prop_map(|i| [0.1, 0.3, 0.5, 1.0, 8.0, 64.0][i])
}

/// The special values the bit-pattern property may or may not draw.
#[test]
fn voxel_key_floor_matches_reference_on_special_values() {
    let two63 = 9_223_372_036_854_775_808.0_f64;
    let mut values = vec![
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff0_0000_0000_0001),
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::MIN_POSITIVE.next_down(),
        -f64::MIN_POSITIVE.next_down(),
        f64::MAX,
        f64::MIN,
        two63,
        -two63,
        two63.next_down(),
        -two63.next_down(),
        two63.next_up(),
        -two63.next_up(),
        2.0 * two63,
        -2.0 * two63,
        i64::MAX as f64,
        i64::MIN as f64,
        4_503_599_627_370_496.0, // 2^52: the last binade with fractions
        9_007_199_254_740_992.0, // 2^53
        0.5,
        -0.5,
        0.999_999_999_999_999_9,
        1e300,
        -1e300,
    ];
    for whole in [
        -3.0,
        -2.0,
        -1.0,
        1.0,
        2.0,
        3.0,
        1e6,
        -1e6,
        4_503_599_627_370_496.0,
    ] {
        values.push(f64::next_down(whole));
        values.push(f64::next_up(whole));
    }
    for &v in &values {
        for size in [
            1.0,
            0.3,
            8.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::MAX,
            f64::INFINITY,
        ] {
            assert_key_matches_reference(Vec3::new(v, -v, v), size);
        }
    }
}
