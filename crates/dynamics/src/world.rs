//! The dynamic world: static field + actors, with snapshot and
//! prediction views.

use crate::{Actor, WalkAnchor};
use roborun_env::{Obstacle, ObstacleField};
use roborun_geom::{Aabb, Vec3};
use serde::{Deserialize, Serialize};

/// Per-mission replay anchors, one [`WalkAnchor`] per actor (in actor
/// order), for the `*_cached` world views. Every cached view is
/// **bit-identical** to its plain counterpart — the anchor only resumes
/// the random walkers' deterministic fold (see [`Actor::pose_at_cached`])
/// — so a driver threading one cache through a mission changes nothing
/// observable while cutting the walkers' pose cost from O(t / dwell) to
/// O(1) per (forward-in-time) query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PoseCache {
    anchors: Vec<WalkAnchor>,
}

impl PoseCache {
    /// A cache with `actors` cold anchors.
    pub fn for_actors(actors: usize) -> Self {
        PoseCache {
            anchors: vec![WalkAnchor::new(); actors],
        }
    }

    fn anchor(&mut self, i: usize) -> &mut WalkAnchor {
        // A cache built for a different world (or `Default`) grows to fit:
        // cold anchors behave exactly like the plain replay.
        if self.anchors.len() <= i {
            self.anchors.resize(i + 1, WalkAnchor::new());
        }
        &mut self.anchors[i]
    }
}

/// Actor obstacle ids start here so they never collide with static
/// obstacle ids inside a snapshot field.
const ACTOR_ID_BASE: u32 = 1 << 24;

/// A static obstacle field composed with moving actors.
///
/// See the crate docs for the snapshot / prediction / decay contract.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DynamicWorld {
    static_field: ObstacleField,
    actors: Vec<Actor>,
}

impl DynamicWorld {
    /// Creates a world from a static field and a set of actors.
    pub fn new(static_field: ObstacleField, actors: Vec<Actor>) -> Self {
        DynamicWorld {
            static_field,
            actors,
        }
    }

    /// A world with no actors: every view degenerates to the static
    /// field.
    pub fn static_only(static_field: ObstacleField) -> Self {
        DynamicWorld::new(static_field, Vec::new())
    }

    /// The static obstacles.
    pub fn static_field(&self) -> &ObstacleField {
        &self.static_field
    }

    /// The actors.
    pub fn actors(&self) -> &[Actor] {
        &self.actors
    }

    /// `true` when the world has no moving actors.
    pub fn is_static(&self) -> bool {
        self.actors.is_empty()
    }

    /// Actor centre positions at time `t`, in actor order.
    pub fn poses_at(&self, t: f64) -> Vec<Vec3> {
        self.actors.iter().map(|a| a.pose_at(t)).collect()
    }

    /// The exact ground-truth obstacle field of instant `t`: the static
    /// obstacles plus one box per actor at its true pose. With no actors
    /// the result holds exactly the static obstacles (and, the broad
    /// phase being a deterministic function of the obstacle list, answers
    /// every query bit-identically to the static field).
    pub fn snapshot_field(&self, t: f64) -> ObstacleField {
        self.static_field.extended(
            self.actors
                .iter()
                .enumerate()
                .map(|(i, actor)| Obstacle::new(ACTOR_ID_BASE + i as u32, actor.bounds_at(t))),
        )
    }

    /// `true` when a sphere of radius `margin` at `p` intersects any
    /// actor's true box at time `t` (the simulator's moving-obstacle
    /// collision test; the static field keeps its own check).
    pub fn actor_hit(&self, p: Vec3, t: f64, margin: f64) -> bool {
        self.actors
            .iter()
            .any(|a| a.bounds_at(t).distance_to_point(p) <= margin)
    }

    /// Conservative per-actor occupancy over `[t, t + horizon]` (see
    /// [`Actor::predicted_bounds`]): any point farther than the margin
    /// from every returned box cannot be touched by an actor within the
    /// horizon. Empty when the world is static.
    pub fn predicted_boxes(&self, t: f64, horizon: f64) -> Vec<Aabb> {
        self.actors
            .iter()
            .map(|a| a.predicted_bounds(t, horizon))
            .collect()
    }

    /// The largest closing speed (m/s) of any actor whose *box surface*
    /// lies within `range` of `towards` at time `t`: the component of
    /// the actor's velocity along the direction from the actor to
    /// `towards`, floored at zero. Receding or out-of-range actors
    /// contribute nothing. This is the governor's closing-speed term —
    /// reaction budgets must account for obstacle velocity, not just
    /// distance — and the range gate uses the surface because that is
    /// what the MAV can hit (a wide pillar's face can be metres closer
    /// than its centre).
    pub fn max_closing_speed(&self, t: f64, towards: Vec3, range: f64) -> f64 {
        let mut worst = 0.0f64;
        for actor in &self.actors {
            let bounds = actor.bounds_at(t);
            if bounds.distance_to_point(towards) > range {
                continue;
            }
            let offset = towards - bounds.center();
            let distance = offset.norm();
            let closing = if distance < 1e-9 {
                // Co-located: every motion is "closing" at full speed.
                actor.max_speed()
            } else {
                actor.velocity_at(t).dot(offset / distance)
            };
            worst = worst.max(closing);
        }
        worst
    }

    /// Upper bound on any actor's speed (zero for a static world).
    pub fn max_actor_speed(&self) -> f64 {
        self.actors.iter().map(Actor::max_speed).fold(0.0, f64::max)
    }

    /// A cold [`PoseCache`] sized for this world's actors.
    pub fn pose_cache(&self) -> PoseCache {
        PoseCache::for_actors(self.actors.len())
    }

    /// [`DynamicWorld::snapshot_field`] through a [`PoseCache`]
    /// (bit-identical; see [`PoseCache`]).
    pub fn snapshot_field_cached(&self, t: f64, cache: &mut PoseCache) -> ObstacleField {
        self.static_field
            .extended(self.actors.iter().enumerate().map(|(i, actor)| {
                Obstacle::new(
                    ACTOR_ID_BASE + i as u32,
                    actor.bounds_at_cached(t, cache.anchor(i)),
                )
            }))
    }

    /// [`DynamicWorld::actor_hit`] through a [`PoseCache`]
    /// (bit-identical; see [`PoseCache`]).
    pub fn actor_hit_cached(&self, p: Vec3, t: f64, margin: f64, cache: &mut PoseCache) -> bool {
        self.actors
            .iter()
            .enumerate()
            .any(|(i, a)| a.bounds_at_cached(t, cache.anchor(i)).distance_to_point(p) <= margin)
    }

    /// [`DynamicWorld::predicted_boxes`] through a [`PoseCache`]
    /// (bit-identical; see [`PoseCache`]).
    pub fn predicted_boxes_cached(&self, t: f64, horizon: f64, cache: &mut PoseCache) -> Vec<Aabb> {
        self.actors
            .iter()
            .enumerate()
            .map(|(i, a)| a.predicted_bounds_cached(t, horizon, cache.anchor(i)))
            .collect()
    }

    /// [`DynamicWorld::max_closing_speed`] through a [`PoseCache`]
    /// (bit-identical; see [`PoseCache`]).
    pub fn max_closing_speed_cached(
        &self,
        t: f64,
        towards: Vec3,
        range: f64,
        cache: &mut PoseCache,
    ) -> f64 {
        let mut worst = 0.0f64;
        for (i, actor) in self.actors.iter().enumerate() {
            let bounds = actor.bounds_at_cached(t, cache.anchor(i));
            if bounds.distance_to_point(towards) > range {
                continue;
            }
            let offset = towards - bounds.center();
            let distance = offset.norm();
            let closing = if distance < 1e-9 {
                // Co-located: every motion is "closing" at full speed.
                actor.max_speed()
            } else {
                actor.velocity_at(t).dot(offset / distance)
            };
            worst = worst.max(closing);
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MotionModel;
    use roborun_geom::Ray;

    fn static_field() -> ObstacleField {
        ObstacleField::new(vec![Obstacle::new(
            0,
            Aabb::from_center_half_extents(Vec3::new(30.0, 0.0, 5.0), Vec3::splat(1.0)),
        )])
    }

    fn crossing_actor() -> Actor {
        Actor::new(
            0,
            Vec3::new(10.0, -8.0, 5.0),
            Vec3::new(1.0, 1.0, 5.0),
            MotionModel::Crosser {
                velocity: Vec3::new(0.0, 2.0, 0.0),
                bounds: Aabb::new(Vec3::new(10.0, -8.0, 5.0), Vec3::new(10.0, 8.0, 5.0)),
            },
        )
    }

    #[test]
    fn empty_world_views_degenerate_to_static() {
        let world = DynamicWorld::static_only(static_field());
        assert!(world.is_static());
        assert!(world.poses_at(3.0).is_empty());
        assert!(world.predicted_boxes(3.0, 5.0).is_empty());
        assert!(!world.actor_hit(Vec3::new(30.0, 0.0, 5.0), 3.0, 1.0));
        assert_eq!(world.max_closing_speed(3.0, Vec3::ZERO, 100.0), 0.0);
        assert_eq!(world.max_actor_speed(), 0.0);

        // The snapshot answers queries bit-identically to the static field.
        let snap = world.snapshot_field(12.5);
        assert_eq!(snap.len(), world.static_field().len());
        let ray = Ray::new(Vec3::new(0.0, 0.0, 5.0), Vec3::X);
        let a = world.static_field().raycast(&ray, 100.0).unwrap();
        let b = snap.raycast(&ray, 100.0).unwrap();
        assert_eq!(a.distance.to_bits(), b.distance.to_bits());
        for p in [Vec3::new(30.0, 0.0, 5.0), Vec3::new(1.0, 2.0, 5.0)] {
            assert_eq!(snap.is_occupied(p), world.static_field().is_occupied(p));
            assert_eq!(
                snap.distance_to_nearest(p).map(f64::to_bits),
                world
                    .static_field()
                    .distance_to_nearest(p)
                    .map(f64::to_bits)
            );
        }
    }

    #[test]
    fn snapshot_contains_actor_at_its_true_pose() {
        let world = DynamicWorld::new(static_field(), vec![crossing_actor()]);
        // At t = 4 the crosser sits at y = 0.
        let snap = world.snapshot_field(4.0);
        assert_eq!(snap.len(), 2);
        assert!(snap.is_occupied(Vec3::new(10.0, 0.0, 5.0)));
        assert!(!snap.is_occupied(Vec3::new(10.0, -6.0, 5.0)));
        // At t = 0 it sits at y = -8 instead.
        let snap0 = world.snapshot_field(0.0);
        assert!(snap0.is_occupied(Vec3::new(10.0, -8.0, 5.0)));
        assert!(!snap0.is_occupied(Vec3::new(10.0, 0.0, 5.0)));
        // Actor ids never collide with static ids.
        assert!(snap.obstacles().iter().any(|o| o.id >= ACTOR_ID_BASE));
    }

    #[test]
    fn actor_hit_tracks_true_pose() {
        let world = DynamicWorld::new(ObstacleField::empty(), vec![crossing_actor()]);
        assert!(world.actor_hit(Vec3::new(10.0, -8.0, 5.0), 0.0, 0.1));
        assert!(!world.actor_hit(Vec3::new(10.0, -8.0, 5.0), 4.0, 0.1));
        assert!(world.actor_hit(Vec3::new(10.0, 0.0, 5.0), 4.0, 0.1));
    }

    #[test]
    fn closing_speed_sees_approaching_actors_only() {
        let world = DynamicWorld::new(ObstacleField::empty(), vec![crossing_actor()]);
        // Drone ahead of the crosser along +y: the crosser approaches at
        // its full 2 m/s while moving up...
        let drone = Vec3::new(10.0, 6.0, 5.0);
        let closing = world.max_closing_speed(1.0, drone, 50.0);
        assert!((closing - 2.0).abs() < 1e-9, "closing {closing}");
        // ...contributes nothing while receding (after the bounce at
        // t = 8 it moves down; by t = 10 it is below the drone, moving
        // away)...
        let receding = world.max_closing_speed(10.0, drone, 50.0);
        assert_eq!(receding, 0.0);
        // ...and nothing when out of range.
        assert_eq!(world.max_closing_speed(1.0, drone, 1.0), 0.0);
        assert!((world.max_actor_speed() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn predicted_boxes_cover_each_actor() {
        let world = DynamicWorld::new(
            static_field(),
            vec![
                crossing_actor(),
                Actor::new(
                    1,
                    Vec3::new(20.0, 0.0, 5.0),
                    Vec3::splat(0.8),
                    MotionModel::RandomWalk {
                        seed: 4,
                        speed: 1.0,
                        dwell: 2.0,
                        bounds: Aabb::new(Vec3::new(15.0, -5.0, 5.0), Vec3::new(25.0, 5.0, 5.0)),
                    },
                ),
            ],
        );
        let boxes = world.predicted_boxes(2.0, 4.0);
        assert_eq!(boxes.len(), 2);
        for (actor, hull) in world.actors().iter().zip(&boxes) {
            for i in 0..=40 {
                let t = 2.0 + 4.0 * i as f64 / 40.0;
                assert!(hull.contains_aabb(&actor.bounds_at(t)));
            }
        }
    }
}
