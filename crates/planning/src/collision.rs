//! Collision checking against the exported planner map.
//!
//! The paper's planning precision operator modifies the planner's raytracer
//! "similar to OctoMap": the distance between successive collision samples
//! along a candidate edge. Coarse steps are cheaper but can thread through
//! thin obstacles; the exported map's voxel inflation compensates, which is
//! why the governor is allowed to relax this knob in open space.
//!
//! Because the checker's clearance margin is fixed at construction, it
//! builds a margin-aware broad-phase: for every voxel cell, the exported
//! boxes whose margin-inflated bounds overlap it, mirrored by a dense
//! one-bit-per-cell occupancy mask. A point query is then a bounds test
//! plus (usually) one bit test in free space, or one hash probe plus exact
//! distance tests near obstacles — the same boolean as
//! [`PlannerMap::is_occupied`], at a fraction of the probes (the RRT*
//! search issues millions of these per plan). The broad-phase is built
//! lazily once enough queries have arrived to amortise its O(boxes) cost,
//! so trivial plans (direct connections in open space) never pay for it.
//!
//! Once built, the broad-phase survives map refreshes: every exported box
//! is exactly one voxel, so the candidate lists are addressed by the box's
//! voxel key and [`CollisionChecker::update_map`] patches them from the
//! [`PlannerMapDelta`] between successive exports (a few keys per
//! decision) instead of rebuilding from scratch.

use roborun_geom::{Aabb, FxHashMap, Vec3, VoxelKey};
use roborun_perception::{PlannerMap, PlannerMapDelta};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Maximum cell count for the dense occupancy bitset (8 MiB of bits).
const MAX_BITSET_CELLS: i64 = 1 << 26;

/// Point queries answered by the map directly before the broad-phase is
/// built; past this count the build cost is amortised.
const LAZY_BUILD_QUERIES: usize = 128;

/// The margin-aware broad-phase acceleration structure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct BroadPhase {
    /// Exported voxel size the structure was built for (metres).
    voxel: f64,
    /// Source box keys per voxel cell (cells overlapping a margin-inflated
    /// box). Boxes are identified by their voxel key, so delta patches can
    /// add and remove individual boxes without renumbering.
    candidates: FxHashMap<VoxelKey, Vec<VoxelKey>>,
    /// Key bounds of `candidates`; queries outside are free with no probe.
    /// Pure-removal patches leave them conservatively large (harmless:
    /// emptied cells answer free through the bitset/hash); any patch that
    /// rebuilds the bitset re-tightens them to the exact candidate cover
    /// first.
    key_min: VoxelKey,
    key_max: VoxelKey,
    /// Dense one-bit-per-cell mirror of `candidates` over the key bounds
    /// (absent when the region is too large): most free-space queries
    /// resolve with one bit test instead of a hash probe.
    bitset: Option<Vec<u64>>,
}

impl BroadPhase {
    /// Key range covered by the margin-inflated box of `source`.
    ///
    /// Any point within `margin` of the box lies inside its inflated
    /// bounds, so registering the box over this range makes the candidate
    /// list complete for the exact distance test in [`BroadPhase::occupied`].
    fn inflated_range(source: VoxelKey, voxel: f64, margin: f64) -> (VoxelKey, VoxelKey) {
        let b = Aabb::from_center_half_extents(source.center(voxel), Vec3::splat(voxel * 0.5))
            .inflate(margin);
        (
            VoxelKey::from_point(b.min, voxel),
            VoxelKey::from_point(b.max, voxel),
        )
    }

    fn build(map: &PlannerMap, margin: f64) -> Self {
        let voxel = map.voxel_size();
        let mut grid = BroadPhase {
            voxel,
            candidates: FxHashMap::default(),
            key_min: VoxelKey { x: 0, y: 0, z: 0 },
            key_max: VoxelKey {
                x: -1,
                y: -1,
                z: -1,
            },
            bitset: None,
        };
        for source in map.occupied_keys() {
            grid.insert_box(source, margin);
        }
        grid.rebuild_bitset();
        grid
    }

    /// Registers one box over its inflated key range, growing the bounds.
    /// Does not touch the bitset — callers patch or rebuild it.
    fn insert_box(&mut self, source: VoxelKey, margin: f64) {
        let (lo, hi) = BroadPhase::inflated_range(source, self.voxel, margin);
        if self.candidates.is_empty() {
            self.key_min = lo;
            self.key_max = hi;
        } else {
            self.key_min = self.key_min.componentwise_min(lo);
            self.key_max = self.key_max.componentwise_max(hi);
        }
        for x in lo.x..=hi.x {
            for y in lo.y..=hi.y {
                for z in lo.z..=hi.z {
                    self.candidates
                        .entry(VoxelKey { x, y, z })
                        .or_default()
                        .push(source);
                }
            }
        }
    }

    /// Bit index of `key` inside the bounds, or `None` when outside.
    fn bit_index(&self, key: VoxelKey) -> Option<i64> {
        if key.x < self.key_min.x
            || key.x > self.key_max.x
            || key.y < self.key_min.y
            || key.y > self.key_max.y
            || key.z < self.key_min.z
            || key.z > self.key_max.z
        {
            return None;
        }
        let ny = self.key_max.y - self.key_min.y + 1;
        let nz = self.key_max.z - self.key_min.z + 1;
        Some(
            ((key.x - self.key_min.x) * ny + (key.y - self.key_min.y)) * nz
                + (key.z - self.key_min.z),
        )
    }

    /// Recomputes the dense bitset from the candidate cells (or drops it
    /// when the covered region exceeds [`MAX_BITSET_CELLS`]).
    fn rebuild_bitset(&mut self) {
        self.bitset = None;
        if self.candidates.is_empty() {
            return;
        }
        let nx = self.key_max.x - self.key_min.x + 1;
        let ny = self.key_max.y - self.key_min.y + 1;
        let nz = self.key_max.z - self.key_min.z + 1;
        let cells = nx.checked_mul(ny).and_then(|v| v.checked_mul(nz));
        if let Some(cells) = cells {
            if cells <= MAX_BITSET_CELLS {
                let mut bits = vec![0u64; (cells as usize).div_ceil(64)];
                for key in self.candidates.keys() {
                    let idx = self.bit_index(*key).expect("candidate cell inside bounds");
                    bits[(idx / 64) as usize] |= 1u64 << (idx % 64);
                }
                self.bitset = Some(bits);
            }
        }
    }

    /// Patches the structure for a map refresh: removed boxes leave their
    /// candidate cells, added boxes are registered, and the bitset follows
    /// (rebuilt — over re-tightened bounds — only when an addition grows
    /// the covered region). The result answers [`BroadPhase::occupied`]
    /// exactly like a from-scratch build for the new map — after a
    /// pure-removal patch the bounds may stay conservatively larger, which
    /// only means a cleared cell costs one bit test instead of none.
    fn apply_delta(&mut self, delta: &PlannerMapDelta, margin: f64) {
        for &source in delta.removed() {
            let (lo, hi) = BroadPhase::inflated_range(source, self.voxel, margin);
            for x in lo.x..=hi.x {
                for y in lo.y..=hi.y {
                    for z in lo.z..=hi.z {
                        let cell = VoxelKey { x, y, z };
                        if let Some(ids) = self.candidates.get_mut(&cell) {
                            ids.retain(|&k| k != source);
                            if ids.is_empty() {
                                self.candidates.remove(&cell);
                                let idx = self.bit_index(cell);
                                if let (Some(bits), Some(idx)) = (self.bitset.as_mut(), idx) {
                                    bits[(idx / 64) as usize] &= !(1u64 << (idx % 64));
                                }
                            }
                        }
                    }
                }
            }
        }
        let (old_min, old_max) = (self.key_min, self.key_max);
        let was_empty = self.candidates.is_empty();
        for &source in delta.added() {
            self.insert_box(source, margin);
        }
        let grew = was_empty || self.key_min != old_min || self.key_max != old_max;
        if grew {
            // The rebuild iterates every candidate cell anyway, so first
            // re-tighten the bounds to the exact candidate cover — a
            // transient far-away voxel from an earlier export can then
            // never permanently inflate the region (which could push it
            // past MAX_BITSET_CELLS and lose the bitset for good).
            self.retighten_bounds();
            self.rebuild_bitset();
        } else if let Some(mut bits) = self.bitset.take() {
            for &source in delta.added() {
                let (lo, hi) = BroadPhase::inflated_range(source, self.voxel, margin);
                for x in lo.x..=hi.x {
                    for y in lo.y..=hi.y {
                        for z in lo.z..=hi.z {
                            let idx = self
                                .bit_index(VoxelKey { x, y, z })
                                .expect("added cell inside unchanged bounds");
                            bits[(idx / 64) as usize] |= 1u64 << (idx % 64);
                        }
                    }
                }
            }
            self.bitset = Some(bits);
        }
        // Degraded-state recovery: if the bitset was lost (a transient
        // far-away box once pushed the region past MAX_BITSET_CELLS) and
        // this delta removed boxes, the tight cover may fit again — a
        // from-scratch build on the same map would have a bitset, so try
        // to win it back. Only the already-degraded state pays for this.
        if self.bitset.is_none() && !grew && !delta.removed().is_empty() {
            self.retighten_bounds();
            self.rebuild_bitset();
        }
    }

    /// Shrinks the key bounds to exactly cover the candidate cells — the
    /// same bounds a from-scratch build computes (every cell of every
    /// registered inflated range is a candidate key, so the cell cover and
    /// the range cover coincide).
    fn retighten_bounds(&mut self) {
        let mut iter = self.candidates.keys();
        let Some(first) = iter.next() else {
            self.key_min = VoxelKey { x: 0, y: 0, z: 0 };
            self.key_max = VoxelKey {
                x: -1,
                y: -1,
                z: -1,
            };
            return;
        };
        let (mut lo, mut hi) = (*first, *first);
        for k in iter {
            lo = lo.componentwise_min(*k);
            hi = hi.componentwise_max(*k);
        }
        self.key_min = lo;
        self.key_max = hi;
    }

    /// `true` when `p` lies within `margin` of any box — exactly
    /// `map.is_occupied(p, margin)`, accelerated.
    fn occupied(&self, p: Vec3, margin: f64) -> bool {
        let key = VoxelKey::from_point(p, self.voxel);
        let Some(idx) = self.bit_index(key) else {
            return false;
        };
        if let Some(bits) = &self.bitset {
            if bits[(idx / 64) as usize] & (1u64 << (idx % 64)) == 0 {
                return false;
            }
        }
        let Some(ids) = self.candidates.get(&key) else {
            return false;
        };
        let voxel = self.voxel;
        ids.iter().any(|&source| {
            Aabb::from_center_half_extents(source.center(voxel), Vec3::splat(voxel * 0.5))
                .distance_to_point(p)
                <= margin
        })
    }
}

/// Collision checker over a [`PlannerMap`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollisionChecker {
    map: PlannerMap,
    /// Clearance margin added around obstacles (the MAV body radius).
    margin: f64,
    /// Sample spacing along checked segments (metres) — the planning
    /// precision knob.
    check_step: f64,
    /// Number of point queries performed since construction (work metric).
    queries: usize,
    /// Broad-phase, built lazily after [`LAZY_BUILD_QUERIES`] queries.
    ///
    /// Held behind an [`Arc`] so that cloning a checker whose broad-phase
    /// is already built shares the structure in O(1) instead of deep-
    /// copying the candidate map: N missions planned against the same
    /// environment prebuild once and clone per mission (the fleet /
    /// mission-service pattern). The share is copy-on-write —
    /// [`CollisionChecker::update_map`] patches through
    /// [`Arc::make_mut`], so the first per-mission delta detaches a
    /// private copy and siblings are never affected.
    broad_phase: Option<Arc<BroadPhase>>,
}

impl CollisionChecker {
    /// Creates a checker.
    ///
    /// # Panics
    ///
    /// Panics if `margin < 0` or `check_step <= 0`.
    pub fn new(map: PlannerMap, margin: f64, check_step: f64) -> Self {
        assert!(margin >= 0.0, "margin must be non-negative, got {margin}");
        assert!(
            check_step > 0.0,
            "check step must be positive, got {check_step}"
        );
        CollisionChecker {
            map,
            margin,
            check_step,
            queries: 0,
            broad_phase: None,
        }
    }

    /// The planner map being checked against.
    pub fn map(&self) -> &PlannerMap {
        &self.map
    }

    /// Clearance margin (metres).
    pub fn margin(&self) -> f64 {
        self.margin
    }

    /// Sample spacing (metres).
    pub fn check_step(&self) -> f64 {
        self.check_step
    }

    /// Number of point queries performed so far.
    pub fn queries(&self) -> usize {
        self.queries
    }

    /// `true` when the point is free of obstacles (with margin).
    ///
    /// Early queries delegate to the map's voxel-neighbourhood lookup; once
    /// enough queries have arrived to amortise it, a broad-phase is built
    /// and a query becomes a bounds test (and usually one bit test) in free
    /// space, or one hash probe plus exact distance tests near obstacles.
    /// Always returns the same boolean as
    /// `!self.map().is_occupied(p, self.margin())`.
    pub fn point_free(&mut self, p: Vec3) -> bool {
        self.queries += 1;
        if self.broad_phase.is_none() {
            if self.queries < LAZY_BUILD_QUERIES {
                return !self.map.is_occupied(p, self.margin);
            }
            self.broad_phase = Some(Arc::new(BroadPhase::build(&self.map, self.margin)));
        }
        let broad_phase = self.broad_phase.as_ref().expect("broad phase just built");
        !broad_phase.occupied(p, self.margin)
    }

    /// Builds the broad-phase immediately instead of waiting for the lazy
    /// query threshold — callers that keep the checker across many plans
    /// (the mission runner) pay the build once and patch it afterwards.
    ///
    /// Because the built structure sits behind an [`Arc`], cloning the
    /// checker afterwards shares it in O(1): a fleet or mission service
    /// prebuilds one static checker per environment and hands each
    /// mission a clone, paying one build for N missions. Per-clone
    /// [`CollisionChecker::update_map`] patches detach privately
    /// (copy-on-write), so sharing never changes any answer.
    pub fn prebuild_broad_phase(&mut self) {
        if self.broad_phase.is_none() {
            self.broad_phase = Some(Arc::new(BroadPhase::build(&self.map, self.margin)));
        }
    }

    /// `true` when `self` and `other` still share one broad-phase
    /// allocation (neither has detached with a copy-on-write patch).
    /// Exposed for the cross-mission-caching tests and benches.
    #[doc(hidden)]
    pub fn shares_broad_phase_with(&self, other: &CollisionChecker) -> bool {
        match (&self.broad_phase, &other.broad_phase) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Replaces the checked map with a fresh export, patching the built
    /// broad-phase from the key delta between the two exports instead of
    /// rebuilding it (~10 ms on a 7k-box map). When the exports are
    /// incompatible (different voxel size — a precision-knob change), the
    /// broad-phase is dropped and rebuilt lazily.
    pub fn update_map(&mut self, new_map: PlannerMap) {
        if let Some(grid) = self.broad_phase.as_mut() {
            match new_map.delta_from(&self.map) {
                // `make_mut` detaches a private copy when the structure
                // is shared with sibling missions (copy-on-write) and
                // patches in place when uniquely owned.
                Some(delta) => Arc::make_mut(grid).apply_delta(&delta, self.margin),
                None => self.broad_phase = None,
            }
        }
        self.map = new_map;
    }

    /// Changes the segment sample spacing (the planning precision knob) —
    /// the governor retunes it every decision while the margin, and with it
    /// the broad-phase, stays fixed.
    ///
    /// # Panics
    ///
    /// Panics if `check_step <= 0`.
    pub fn set_check_step(&mut self, check_step: f64) {
        assert!(
            check_step > 0.0,
            "check step must be positive, got {check_step}"
        );
        self.check_step = check_step;
    }

    /// Canonical view of the broad-phase candidate cells (each cell's
    /// source keys sorted), or `None` while unbuilt. Exposed for the
    /// incremental-update conformance tests, which assert a patched grid
    /// matches a from-scratch rebuild cell for cell.
    #[doc(hidden)]
    pub fn broad_phase_cells(&self) -> Option<Vec<(VoxelKey, Vec<VoxelKey>)>> {
        self.broad_phase.as_ref().map(|grid| {
            let mut cells: Vec<(VoxelKey, Vec<VoxelKey>)> = grid
                .candidates
                .iter()
                .map(|(cell, ids)| {
                    let mut ids = ids.clone();
                    ids.sort_unstable();
                    (*cell, ids)
                })
                .collect();
            cells.sort_unstable_by_key(|(cell, _)| *cell);
            cells
        })
    }

    /// Linear reference for [`CollisionChecker::point_free`], delegating to
    /// the map's voxel-neighbourhood query — retained for equivalence tests.
    pub fn point_free_reference(map: &PlannerMap, p: Vec3, margin: f64) -> bool {
        !map.is_occupied(p, margin)
    }

    /// Incremental re-validation of a path planned against an older
    /// export: `true` when the polyline through `points` stays strictly
    /// more than `clearance` away from every voxel the `delta` **added**,
    /// sampled every `sample_step` metres along each consecutive pair
    /// (the same sampling discipline as [`CollisionChecker::segment_free`],
    /// so a voxel that would fail a synchronous re-plan's edge check
    /// cannot slip between two waypoints here).
    ///
    /// A plan that was collision-free against the snapshot export can only
    /// be invalidated by voxels the delta added — removed voxels free
    /// space — so re-checking the touched keys alone is exact for the
    /// patched map. This is the validation half of the plan-ahead
    /// contract (see `roborun-mission`'s `cycle` module): a speculative
    /// trajectory is adopted only when this check passes against the
    /// delta accumulated since its snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `sample_step <= 0`.
    pub fn path_clear_of_added(
        delta: &PlannerMapDelta,
        points: impl IntoIterator<Item = Vec3>,
        clearance: f64,
        sample_step: f64,
    ) -> bool {
        assert!(
            sample_step > 0.0,
            "sample step must be positive, got {sample_step}"
        );
        let added = delta.added();
        if added.is_empty() {
            return true;
        }
        let voxel = delta.voxel_size();
        let half = Vec3::splat(voxel * 0.5);
        let boxes: Vec<Aabb> = added
            .iter()
            .map(|key| Aabb::from_center_half_extents(key.center(voxel), half))
            .collect();
        let clear = |p: Vec3| boxes.iter().all(|b| b.distance_to_point(p) > clearance);
        let mut prev: Option<Vec3> = None;
        for p in points {
            match prev {
                None => {
                    if !clear(p) {
                        return false;
                    }
                }
                Some(a) => {
                    let length = a.distance(p);
                    if length < 1e-9 {
                        if !clear(p) {
                            return false;
                        }
                    } else {
                        // `.max(1.0)` guards the degenerate-step edge
                        // cases (a non-finite ratio truncating to zero)
                        // so the far endpoint is always sampled — the
                        // same guarded form as every other hazard walker.
                        let steps = (length / sample_step).ceil().max(1.0) as usize;
                        // `a` was cleared as the previous endpoint.
                        for i in 1..=steps {
                            let t = i as f64 / steps as f64;
                            if !clear(a.lerp(p, t)) {
                                return false;
                            }
                        }
                    }
                }
            }
            prev = Some(p);
        }
        true
    }

    /// `true` when the straight segment from `a` to `b` stays free of
    /// obstacles, sampled every `check_step` metres.
    pub fn segment_free(&mut self, a: Vec3, b: Vec3) -> bool {
        let length = a.distance(b);
        if length < 1e-9 {
            return self.point_free(a);
        }
        // Guarded like every other hazard walker: at least one step, so
        // both endpoints are sampled even when the ratio degenerates.
        let steps = (length / self.check_step).ceil().max(1.0) as usize;
        for i in 0..=steps {
            let t = i as f64 / steps as f64;
            if !self.point_free(a.lerp(b, t)) {
                return false;
            }
        }
        true
    }

    /// `true` when every consecutive pair of waypoints is connected by a
    /// free segment.
    pub fn path_free(&mut self, waypoints: &[Vec3]) -> bool {
        if waypoints.is_empty() {
            return true;
        }
        if waypoints.len() == 1 {
            return self.point_free(waypoints[0]);
        }
        waypoints.windows(2).all(|w| self.segment_free(w[0], w[1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roborun_perception::{ExportConfig, OccupancyMap, PointCloud};

    fn map_with_wall() -> PlannerMap {
        let mut map = OccupancyMap::new(0.3);
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let points: Vec<Vec3> = (-20..=20)
            .flat_map(|y| (0..20).map(move |z| Vec3::new(10.0, y as f64 * 0.3, z as f64 * 0.3)))
            .collect();
        map.integrate_cloud(&PointCloud::new(origin, points), 0.3);
        PlannerMap::export(&map, &ExportConfig::new(0.3, 1e9, origin))
    }

    #[test]
    fn free_and_occupied_points() {
        let mut checker = CollisionChecker::new(map_with_wall(), 0.45, 0.3);
        assert!(checker.point_free(Vec3::new(0.0, 0.0, 5.0)));
        assert!(!checker.point_free(Vec3::new(10.0, 0.0, 5.0)));
        // Margin inflates obstacles.
        assert!(!checker.point_free(Vec3::new(9.5, 0.0, 5.0)));
        assert!(checker.queries() >= 3);
    }

    #[test]
    fn segment_through_wall_is_blocked() {
        let mut checker = CollisionChecker::new(map_with_wall(), 0.45, 0.3);
        assert!(!checker.segment_free(Vec3::new(0.0, 0.0, 5.0), Vec3::new(20.0, 0.0, 5.0)));
        // A segment parallel to the wall on the near side is free.
        assert!(checker.segment_free(Vec3::new(0.0, -5.0, 5.0), Vec3::new(0.0, 5.0, 5.0)));
        // Degenerate segment behaves like a point query.
        assert!(checker.segment_free(Vec3::new(1.0, 0.0, 5.0), Vec3::new(1.0, 0.0, 5.0)));
    }

    #[test]
    fn path_check_covers_all_segments() {
        let mut checker = CollisionChecker::new(map_with_wall(), 0.45, 0.3);
        let around = vec![
            Vec3::new(0.0, 0.0, 5.0),
            Vec3::new(5.0, -10.0, 5.0),
            Vec3::new(15.0, -10.0, 5.0),
            Vec3::new(20.0, 0.0, 5.0),
        ];
        assert!(checker.path_free(&around));
        let through = vec![Vec3::new(0.0, 0.0, 5.0), Vec3::new(20.0, 0.0, 5.0)];
        assert!(!checker.path_free(&through));
        assert!(checker.path_free(&[]));
        assert!(checker.path_free(&[Vec3::new(0.0, 0.0, 5.0)]));
    }

    #[test]
    fn coarser_step_does_fewer_queries() {
        let mut fine = CollisionChecker::new(map_with_wall(), 0.45, 0.1);
        let mut coarse = CollisionChecker::new(map_with_wall(), 0.45, 2.0);
        let a = Vec3::new(0.0, -5.0, 5.0);
        let b = Vec3::new(0.0, 5.0, 5.0);
        assert!(fine.segment_free(a, b));
        assert!(coarse.segment_free(a, b));
        assert!(fine.queries() > coarse.queries());
    }

    #[test]
    fn broad_phase_matches_map_query() {
        let map = map_with_wall();
        let mut checker = CollisionChecker::new(map.clone(), 0.45, 0.3);
        // Dense probe lattice across the wall region, including points far
        // from any box.
        for xi in 0..40 {
            for yi in -12..=12 {
                for zi in 0..14 {
                    let p = Vec3::new(xi as f64 * 0.5, yi as f64 * 0.5, zi as f64 * 0.5);
                    assert_eq!(
                        checker.point_free(p),
                        CollisionChecker::point_free_reference(&map, p, 0.45),
                        "mismatch at {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_update_matches_fresh_rebuild() {
        let mut base = OccupancyMap::new(0.3);
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let points: Vec<Vec3> = (-20..=20)
            .flat_map(|y| (0..20).map(move |z| Vec3::new(10.0, y as f64 * 0.3, z as f64 * 0.3)))
            .collect();
        base.integrate_cloud(&PointCloud::new(origin, points), 0.3);
        let map1 = PlannerMap::export(&base, &ExportConfig::new(0.3, 1e9, origin));
        // A second scan adds a nearer blob and the retain radius could have
        // dropped voxels — exercise both sides of the delta.
        base.integrate_cloud(
            &PointCloud::new(
                origin,
                vec![Vec3::new(4.0, 1.0, 5.0), Vec3::new(4.3, 1.0, 5.0)],
            ),
            0.3,
        );
        let map2 = PlannerMap::export(&base, &ExportConfig::new(0.3, 1e9, origin));
        assert!(!map2.delta_from(&map1).unwrap().is_empty());

        let mut patched = CollisionChecker::new(map1, 0.45, 0.3);
        patched.prebuild_broad_phase();
        patched.update_map(map2.clone());
        let mut rebuilt = CollisionChecker::new(map2.clone(), 0.45, 0.3);
        rebuilt.prebuild_broad_phase();
        assert_eq!(patched.broad_phase_cells(), rebuilt.broad_phase_cells());
        for xi in 0..40 {
            for yi in -12..=12 {
                let p = Vec3::new(xi as f64 * 0.5, yi as f64 * 0.5, 5.0);
                assert_eq!(
                    patched.point_free(p),
                    CollisionChecker::point_free_reference(&map2, p, 0.45),
                    "patched checker mismatch at {p}"
                );
            }
        }
    }

    #[test]
    fn update_map_with_different_voxel_size_rebuilds() {
        let map_fine = map_with_wall();
        let mut base = OccupancyMap::new(0.3);
        let origin = Vec3::new(0.0, 0.0, 5.0);
        base.integrate_cloud(
            &PointCloud::new(origin, vec![Vec3::new(10.0, 0.0, 5.0)]),
            0.3,
        );
        let map_coarse = PlannerMap::export(&base, &ExportConfig::new(0.6, 1e9, origin));
        let mut checker = CollisionChecker::new(map_fine, 0.45, 0.3);
        checker.prebuild_broad_phase();
        checker.update_map(map_coarse.clone());
        // The broad-phase was dropped (incompatible voxel size) and answers
        // still match the reference once rebuilt.
        for xi in 0..30 {
            let p = Vec3::new(xi as f64 * 0.7, 0.3, 5.0);
            assert_eq!(
                checker.point_free(p),
                CollisionChecker::point_free_reference(&map_coarse, p, 0.45)
            );
        }
    }

    #[test]
    fn path_clear_of_added_matches_the_patched_map() {
        // Snapshot: a wall at x = 10. Fresh: the wall plus a new blob near
        // the origin. A straight path towards the blob must fail the
        // incremental re-check exactly when the fresh map blocks it.
        let snapshot = map_with_wall();
        let mut evolved = OccupancyMap::new(0.3);
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let points: Vec<Vec3> = (-20..=20)
            .flat_map(|y| (0..20).map(move |z| Vec3::new(10.0, y as f64 * 0.3, z as f64 * 0.3)))
            .collect();
        evolved.integrate_cloud(&PointCloud::new(origin, points), 0.3);
        evolved.integrate_cloud(
            &PointCloud::new(origin, vec![Vec3::new(4.0, 0.0, 5.0)]),
            0.3,
        );
        let fresh = PlannerMap::export(&evolved, &ExportConfig::new(0.3, 1e9, origin));
        let delta = fresh.delta_from(&snapshot).unwrap();
        assert!(!delta.added().is_empty());

        // A path through the new blob is caught by the added keys alone.
        let through_blob = [Vec3::new(0.0, 0.0, 5.0), Vec3::new(4.0, 0.05, 5.0)];
        assert!(!CollisionChecker::path_clear_of_added(
            &delta,
            through_blob,
            0.27,
            0.3
        ));
        // The segment between two widely spaced waypoints is sampled: a
        // blob that both endpoints clear by metres still invalidates the
        // path that crosses it.
        let spanning = [Vec3::new(0.0, 0.0, 5.0), Vec3::new(8.0, 0.0, 5.0)];
        assert!(!CollisionChecker::path_clear_of_added(
            &delta, spanning, 0.27, 0.3
        ));
        // A path clear of the blob passes even though it grazes the old
        // wall's neighbourhood — pre-existing voxels are the snapshot's
        // responsibility, not the delta's.
        let clear = [Vec3::new(0.0, -5.0, 5.0), Vec3::new(2.0, -5.0, 5.0)];
        assert!(CollisionChecker::path_clear_of_added(
            &delta, clear, 0.27, 0.3
        ));
        // An empty delta accepts everything.
        let empty = fresh.delta_from(&fresh).unwrap();
        assert!(CollisionChecker::path_clear_of_added(
            &empty,
            through_blob,
            0.27,
            0.3
        ));
    }

    #[test]
    fn empty_map_is_all_free() {
        let mut checker = CollisionChecker::new(PlannerMap::empty(0.3), 0.45, 0.5);
        assert!(checker.segment_free(Vec3::ZERO, Vec3::new(100.0, 0.0, 0.0)));
    }

    #[test]
    #[should_panic(expected = "check step")]
    fn zero_step_panics() {
        let _ = CollisionChecker::new(PlannerMap::empty(0.3), 0.45, 0.0);
    }
}
