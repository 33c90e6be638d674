//! Deterministic fault plans for the mission stack.
//!
//! RoboRun's runtime only ever sees a *healthy* robot unless something
//! injects failure — and ad-hoc failure injection destroys the workspace's
//! bit-reproducibility contract. This crate makes failure a first-class,
//! deterministic input instead: a [`FaultPlan`] is a **pure function of the
//! decision index** (plus a fixed seed), exactly like the `dynamics` crate
//! is a pure function of time, so the same seed and plan replay the same
//! faults bit-for-bit on every run and on both mission drivers.
//!
//! # The determinism contract
//!
//! - [`FaultPlan::frame`] derives everything from `(seed, decision)`:
//!   window membership uses `(decision + phase) % period < len` with a
//!   seed-derived per-channel phase, and any per-decision randomness
//!   (burst corruption, link dice) comes from a fresh
//!   [`SplitMix64`] keyed by seed, a per-channel
//!   salt and the decision index. No shared mutable RNG stream exists, so
//!   evaluation order cannot perturb outcomes.
//! - Bus faults are a pure function of `(topic, sequence)`: the
//!   [`DeterministicLinkFaults`] model re-seeds per sample, so the same
//!   publish sequence yields the same losses, duplicates and delays
//!   regardless of node scheduling.
//! - A healthy plan ([`FaultPlanConfig::is_healthy`]) must never be armed:
//!   callers gate on it (`(!cfg.is_healthy()).then(...)`) so that
//!   faults-off runs execute the exact pre-fault code path and stay
//!   byte-identical to the golden fixtures.
//!
//! # Injection points
//!
//! Each channel names the single place in the stack where it applies:
//!
//! | channel | injection point |
//! |---------|-----------------|
//! | sensor blackout / burst | [`FaultFrame::sense_sweep`], between the camera rig and cloud integration |
//! | fog | [`FaultFrame::sense_sweep`] drops returns beyond the cap; the profiling stage caps the profiled visibility |
//! | bus loss / duplication / delay | [`MessageBus::publish`](roborun_middleware::MessageBus::publish), through the [`DeterministicLinkFaults`] model installed with [`MessageBus::install_link_faults`](roborun_middleware::MessageBus::install_link_faults) |
//! | planner spike / forced failure | around the planner call, charged to the planning latency |
//! | stale map | the map-integration step of the perception operators |
//!
//! # The degradation ladder
//!
//! The mission runtime (in `roborun-mission`) pairs this crate with a
//! graceful-degradation ladder. When a planner fault or stale perception is
//! detected the runtime walks, in order: **retry** the plan under a
//! watchdog budget with decaying backoff → **reuse** the last valid
//! trajectory while it stays clear → **hover** in place → **wedge-retreat
//! safe-stop**, recording the step taken in every decision's telemetry.
//! This crate only *produces* faults; the ladder lives with the drivers so
//! both `MissionRunner` and the node pipeline share it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use roborun_geom::{SplitMix64, Vec3};
use roborun_middleware::{LinkDisposition, LinkFaultModel, TopicName};
use serde::{Deserialize, Serialize};

/// Per-channel salts folded into the plan seed so channels draw from
/// unrelated streams even when their windows coincide.
const BLACKOUT_SALT: u64 = 0x424C_4143_4B4F_5554; // "BLACKOUT"
const BURST_SALT: u64 = 0x4255_5253_544E_4F49;
const SPIKE_SALT: u64 = 0x5350_494B_455F_5031;
const FAILURE_SALT: u64 = 0x4641_494C_5552_4553;
const STALE_SALT: u64 = 0x5354_414C_454D_4150; // "STALEMAP"
const LINK_SALT: u64 = 0x4C49_4E4B_4641_554C;

/// A periodic activation window over the decision index.
///
/// The window is active when `(decision + phase) % period < len`, where
/// `phase` is derived from the plan seed so different seeds shift where in
/// the mission the faults land without changing their duty cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultWindows {
    /// Window period in decisions (must be positive).
    pub period: u64,
    /// Active decisions per period (`0 < len <= period`).
    pub len: u64,
}

impl FaultWindows {
    /// A window active for `len` out of every `period` decisions.
    pub fn every(period: u64, len: u64) -> Self {
        FaultWindows { period, len }
    }

    /// `true` when `decision` (shifted by `phase`) falls inside the window.
    pub fn active(&self, decision: u64, phase: u64) -> bool {
        self.period > 0 && (decision.wrapping_add(phase)) % self.period < self.len
    }

    fn validate(&self, name: &str) -> Result<(), String> {
        if self.period == 0 {
            return Err(format!("{name}: period must be positive"));
        }
        if self.len == 0 || self.len > self.period {
            return Err(format!(
                "{name}: len must be in 1..=period, got {} of {}",
                self.len, self.period
            ));
        }
        Ok(())
    }
}

/// Perception-side faults: full sensor blackouts, depth-noise bursts and
/// fog.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SensorFaultChannel {
    /// Decisions on which the whole sweep is lost (no depth returns at
    /// all, and the map is not updated).
    pub blackout: Option<FaultWindows>,
    /// Decisions on which surviving returns are corrupted per
    /// [`SensorFaultChannel::burst_dropout`] / `burst_noise_std`.
    pub burst: Option<FaultWindows>,
    /// Per-point dropout probability during a burst, in `[0, 1]`.
    pub burst_dropout: f64,
    /// Radial noise standard deviation during a burst (metres).
    pub burst_noise_std: f64,
    /// Fog, on every decision: depth returns beyond this range (metres)
    /// are lost, and the profiled visibility is capped at it.
    pub fog_visibility_cap: Option<f64>,
}

/// Planning-side faults: latency spikes and forced plan failures.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PlannerFaultChannel {
    /// Decisions on which the planner takes `spike_latency` extra seconds.
    pub spike: Option<FaultWindows>,
    /// Extra planning latency during a spike (seconds, non-negative).
    pub spike_latency: f64,
    /// Decisions on which the planner call fails outright.
    pub failure: Option<FaultWindows>,
}

/// Environment-model faults: epochs during which the map goes stale
/// (sensing continues but integration is withheld).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MapFaultChannel {
    /// Decisions on which map integration is skipped.
    pub stale: Option<FaultWindows>,
}

/// Link faults applied to one named topic.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LinkFaultConfig {
    /// Probability a published sample is lost on the wire, in `[0, 1]`.
    pub loss_probability: f64,
    /// Probability a sample is delivered twice, in `[0, 1]`.
    pub duplicate_probability: f64,
    /// Probability a sample is delayed by `extra_delay`, in `[0, 1]`.
    pub delay_probability: f64,
    /// Extra transport latency for delayed samples (seconds).
    pub extra_delay: f64,
}

impl LinkFaultConfig {
    /// `true` when the link never misbehaves.
    pub fn is_healthy(&self) -> bool {
        self.loss_probability <= 0.0
            && self.duplicate_probability <= 0.0
            && (self.delay_probability <= 0.0 || self.extra_delay <= 0.0)
    }

    fn validate(&self, topic: &str) -> Result<(), String> {
        for (name, p) in [
            ("loss_probability", self.loss_probability),
            ("duplicate_probability", self.duplicate_probability),
            ("delay_probability", self.delay_probability),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{topic}: {name} must be in [0, 1], got {p}"));
            }
        }
        if self.extra_delay < 0.0 || !self.extra_delay.is_finite() {
            return Err(format!(
                "{topic}: extra_delay must be finite and non-negative, got {}",
                self.extra_delay
            ));
        }
        Ok(())
    }
}

/// Middleware faults: per-topic loss/duplication/delay dice.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct BusFaultChannel {
    /// `(topic name, faults)` pairs; topics not listed are healthy.
    pub links: Vec<(String, LinkFaultConfig)>,
}

impl BusFaultChannel {
    /// `true` when no listed link misbehaves.
    pub fn is_healthy(&self) -> bool {
        self.links.iter().all(|(_, link)| link.is_healthy())
    }
}

/// The full, serialisable description of a fault campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlanConfig {
    /// Seed of the plan's derived random streams.
    pub seed: u64,
    /// Perception faults.
    pub sensor: SensorFaultChannel,
    /// Planning faults.
    pub planner: PlannerFaultChannel,
    /// Map-staleness faults.
    pub map: MapFaultChannel,
    /// Middleware link faults (only meaningful on the node pipeline).
    pub bus: BusFaultChannel,
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        FaultPlanConfig {
            seed: 0x0BAD_5EED,
            sensor: SensorFaultChannel::default(),
            planner: PlannerFaultChannel::default(),
            map: MapFaultChannel::default(),
            bus: BusFaultChannel::default(),
        }
    }
}

impl FaultPlanConfig {
    /// No faults at all (the default).
    pub fn healthy() -> Self {
        FaultPlanConfig::default()
    }

    /// A foggy mission: visibility capped at `cap` metres (at least 1 m)
    /// and mild range noise on every decision.
    pub fn fog(cap: f64) -> Self {
        FaultPlanConfig {
            sensor: SensorFaultChannel {
                burst: Some(FaultWindows::every(1, 1)),
                burst_noise_std: 0.05,
                fog_visibility_cap: Some(cap.max(1.0)),
                ..SensorFaultChannel::default()
            },
            ..FaultPlanConfig::default()
        }
    }

    /// A flaky sensing stack: a `sweep_dropout` share of decisions lose
    /// the whole sweep (a blackout window with that duty cycle, to the
    /// nearest percent: 0.1 is one decision in every 10), and on the
    /// others each return is lost with probability `point_dropout` and
    /// the survivors carry range noise. Both shares are clamped to
    /// `[0, 1]`.
    pub fn flaky_sensors(sweep_dropout: f64, point_dropout: f64) -> Self {
        let lost_percent = (sweep_dropout.clamp(0.0, 1.0) * 100.0).round() as u64;
        let blackout = (lost_percent > 0).then(|| {
            let g = gcd(lost_percent, 100);
            FaultWindows::every(100 / g, lost_percent / g)
        });
        FaultPlanConfig {
            sensor: SensorFaultChannel {
                blackout,
                burst: Some(FaultWindows::every(1, 1)),
                burst_dropout: point_dropout.clamp(0.0, 1.0),
                burst_noise_std: 0.08,
                fog_visibility_cap: None,
            },
            ..FaultPlanConfig::default()
        }
    }

    /// `true` when every channel is disabled; healthy plans must not be
    /// armed so that faults-off runs stay byte-identical.
    pub fn is_healthy(&self) -> bool {
        self.sensor.blackout.is_none()
            && self.sensor.fog_visibility_cap.is_none()
            && (self.sensor.burst.is_none()
                || (self.sensor.burst_dropout <= 0.0 && self.sensor.burst_noise_std <= 0.0))
            && (self.planner.spike.is_none() || self.planner.spike_latency <= 0.0)
            && self.planner.failure.is_none()
            && self.map.stale.is_none()
            && self.bus.is_healthy()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field: degenerate
    /// windows, probabilities outside `[0, 1]`, negative or non-finite
    /// latencies, a fog cap that is not finite and positive, or invalid
    /// topic names on the bus channel.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(w) = &self.sensor.blackout {
            w.validate("sensor.blackout")?;
        }
        if let Some(w) = &self.sensor.burst {
            w.validate("sensor.burst")?;
            if !(0.0..=1.0).contains(&self.sensor.burst_dropout) {
                return Err(format!(
                    "sensor.burst_dropout must be in [0, 1], got {}",
                    self.sensor.burst_dropout
                ));
            }
            if self.sensor.burst_noise_std < 0.0 {
                return Err(format!(
                    "sensor.burst_noise_std must be non-negative, got {}",
                    self.sensor.burst_noise_std
                ));
            }
        }
        if let Some(cap) = self.sensor.fog_visibility_cap {
            if !(cap.is_finite() && cap > 0.0) {
                return Err(format!(
                    "sensor.fog_visibility_cap must be finite and positive, got {cap}"
                ));
            }
        }
        if let Some(w) = &self.planner.spike {
            w.validate("planner.spike")?;
            if self.planner.spike_latency < 0.0 || !self.planner.spike_latency.is_finite() {
                return Err(format!(
                    "planner.spike_latency must be finite and non-negative, got {}",
                    self.planner.spike_latency
                ));
            }
        }
        if let Some(w) = &self.planner.failure {
            w.validate("planner.failure")?;
        }
        if let Some(w) = &self.map.stale {
            w.validate("map.stale")?;
        }
        for (topic, link) in &self.bus.links {
            TopicName::new(topic).map_err(|e| format!("bus link topic: {e}"))?;
            link.validate(topic)?;
        }
        Ok(())
    }
}

/// Burst-corruption parameters for one decision (applied by
/// [`FaultFrame::sense_sweep`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensorBurst {
    /// Per-point dropout probability, in `[0, 1]`.
    pub dropout: f64,
    /// Radial noise standard deviation (metres).
    pub noise_std: f64,
    /// Seed for this decision's corruption stream (derived from the plan
    /// seed and the decision index).
    pub seed: u64,
}

/// What the plan injects on one decision — a pure function of
/// `(plan seed, decision index)`.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultFrame {
    /// The whole sensor sweep is lost and the map is not updated.
    pub sensor_blackout: bool,
    /// Surviving depth returns are corrupted with these parameters.
    pub sensor_burst: Option<SensorBurst>,
    /// Fog: returns beyond this range are lost and the profiled
    /// visibility is capped at it (metres).
    pub fog_visibility_cap: Option<f64>,
    /// Extra planning latency charged this decision (seconds).
    pub planner_spike: f64,
    /// The planner call fails outright this decision.
    pub planner_failure: bool,
    /// Map integration is withheld this decision.
    pub map_stale: bool,
}

impl FaultFrame {
    /// `true` when nothing is injected this decision.
    pub fn is_healthy(&self) -> bool {
        !self.sensor_blackout
            && self.sensor_burst.is_none()
            && self.fog_visibility_cap.is_none()
            && self.planner_spike <= 0.0
            && !self.planner_failure
            && !self.map_stale
    }

    /// Number of fault channels active this decision (for the
    /// `faults_injected` mission counter).
    pub fn injected_count(&self) -> usize {
        usize::from(self.sensor_blackout)
            + usize::from(self.sensor_burst.is_some())
            + usize::from(self.fog_visibility_cap.is_some())
            + usize::from(self.planner_spike > 0.0)
            + usize::from(self.planner_failure)
            + usize::from(self.map_stale)
    }

    /// The one sensor-fault injection point of both mission drivers: the
    /// depth returns this decision's sensing yields from `origin`.
    ///
    /// A blackout loses the whole sweep (`capture` is not even called).
    /// Otherwise each captured point goes, in order, through the burst's
    /// dropout draw, the fog cut and the burst's radial-noise draw, all
    /// drawn from one [`SplitMix64`] seeded by the burst — so the result
    /// is a pure function of `(plan seed, decision, captured points)`. A
    /// frame with no sensor channel active returns the capture untouched.
    pub fn sense_sweep(&self, origin: Vec3, capture: impl FnOnce() -> Vec<Vec3>) -> Vec<Vec3> {
        if self.sensor_blackout {
            return Vec::new();
        }
        let mut points = capture();
        if self.sensor_burst.is_none() && self.fog_visibility_cap.is_none() {
            return points;
        }
        let (dropout, noise_std, seed) = self
            .sensor_burst
            .map_or((0.0, 0.0, 0), |b| (b.dropout, b.noise_std, b.seed));
        let cap = self.fog_visibility_cap.unwrap_or(f64::INFINITY);
        let mut rng = SplitMix64::new(seed);
        points.retain_mut(|p| {
            if dropout > 0.0 && rng.chance(dropout) {
                return false;
            }
            let offset = *p - origin;
            let range = offset.norm();
            if range > cap {
                return false;
            }
            if noise_std > 0.0 && range > 1e-9 {
                let noisy_range = (range + rng.gaussian_with(0.0, noise_std)).max(0.05);
                *p = origin + offset * (noisy_range / range);
            }
            true
        });
        points
    }
}

/// A compiled fault plan: per-channel phases are derived from the seed once
/// so that [`FaultPlan::frame`] is a cheap pure function.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    config: FaultPlanConfig,
    blackout_phase: u64,
    burst_phase: u64,
    spike_phase: u64,
    failure_phase: u64,
    stale_phase: u64,
}

fn phase_for(seed: u64, salt: u64, windows: Option<FaultWindows>) -> u64 {
    match windows {
        Some(w) if w.period > 0 => SplitMix64::new(seed ^ salt).next_u64() % w.period,
        _ => 0,
    }
}

impl FaultPlan {
    /// Compiles a plan.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`FaultPlanConfig::validate`]).
    pub fn new(config: FaultPlanConfig) -> Self {
        config.validate().expect("invalid fault plan");
        let seed = config.seed;
        FaultPlan {
            blackout_phase: phase_for(seed, BLACKOUT_SALT, config.sensor.blackout),
            burst_phase: phase_for(seed, BURST_SALT, config.sensor.burst),
            spike_phase: phase_for(seed, SPIKE_SALT, config.planner.spike),
            failure_phase: phase_for(seed, FAILURE_SALT, config.planner.failure),
            stale_phase: phase_for(seed, STALE_SALT, config.map.stale),
            config,
        }
    }

    /// The plan's configuration.
    pub fn config(&self) -> &FaultPlanConfig {
        &self.config
    }

    /// The faults injected on decision `decision` (0-based). Pure: the same
    /// `(config, decision)` always yields the same frame.
    pub fn frame(&self, decision: u64) -> FaultFrame {
        let sensor = &self.config.sensor;
        let planner = &self.config.planner;
        let sensor_blackout = sensor
            .blackout
            .is_some_and(|w| w.active(decision, self.blackout_phase));
        let burst_active = sensor
            .burst
            .is_some_and(|w| w.active(decision, self.burst_phase))
            && (sensor.burst_dropout > 0.0 || sensor.burst_noise_std > 0.0);
        let sensor_burst = (burst_active && !sensor_blackout).then(|| SensorBurst {
            dropout: sensor.burst_dropout,
            noise_std: sensor.burst_noise_std,
            seed: SplitMix64::new(
                self.config.seed ^ BURST_SALT ^ decision.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            )
            .next_u64(),
        });
        let planner_spike = if planner
            .spike
            .is_some_and(|w| w.active(decision, self.spike_phase))
        {
            planner.spike_latency
        } else {
            0.0
        };
        let planner_failure = planner
            .failure
            .is_some_and(|w| w.active(decision, self.failure_phase));
        let map_stale = self
            .config
            .map
            .stale
            .is_some_and(|w| w.active(decision, self.stale_phase));
        FaultFrame {
            sensor_blackout,
            sensor_burst,
            fog_visibility_cap: sensor.fog_visibility_cap,
            planner_spike,
            planner_failure,
            map_stale,
        }
    }

    /// A bus fault model for this plan, or `None` when the bus channel is
    /// healthy. Install it with
    /// [`MessageBus::install_link_faults`](roborun_middleware::MessageBus::install_link_faults).
    pub fn link_faults(&self) -> Option<DeterministicLinkFaults> {
        (!self.config.bus.is_healthy()).then(|| DeterministicLinkFaults {
            seed: self.config.seed,
            links: self.config.bus.links.clone(),
        })
    }
}

/// Greatest common divisor (for reducing a duty cycle to its window).
fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// FNV-1a over the topic name: a stable, dependency-free hash so link dice
/// do not depend on the standard library's hasher internals.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A [`LinkFaultModel`] that is a pure function of `(topic, sequence)`:
/// each sample re-seeds its own [`SplitMix64`], so delivery faults are
/// reproducible regardless of publish interleaving across topics.
#[derive(Debug, Clone)]
pub struct DeterministicLinkFaults {
    seed: u64,
    links: Vec<(String, LinkFaultConfig)>,
}

impl LinkFaultModel for DeterministicLinkFaults {
    fn disposition(&mut self, topic: &TopicName, sequence: u64) -> LinkDisposition {
        let Some((_, link)) = self.links.iter().find(|(name, _)| name == topic.as_str()) else {
            return LinkDisposition::healthy();
        };
        let mut rng = SplitMix64::new(
            self.seed
                ^ LINK_SALT
                ^ fnv1a(topic.as_str())
                ^ sequence.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let drop = link.loss_probability > 0.0 && rng.chance(link.loss_probability);
        let duplicates = if !drop
            && link.duplicate_probability > 0.0
            && rng.chance(link.duplicate_probability)
        {
            1
        } else {
            0
        };
        let extra_delay = if !drop
            && link.delay_probability > 0.0
            && link.extra_delay > 0.0
            && rng.chance(link.delay_probability)
        {
            link.extra_delay
        } else {
            0.0
        };
        LinkDisposition {
            drop,
            duplicates,
            extra_delay,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn armed_plan() -> FaultPlanConfig {
        FaultPlanConfig {
            sensor: SensorFaultChannel {
                blackout: Some(FaultWindows::every(30, 8)),
                burst: Some(FaultWindows::every(17, 5)),
                burst_dropout: 0.4,
                burst_noise_std: 0.1,
                fog_visibility_cap: None,
            },
            planner: PlannerFaultChannel {
                spike: Some(FaultWindows::every(23, 4)),
                spike_latency: 6.0,
                failure: Some(FaultWindows::every(29, 3)),
            },
            map: MapFaultChannel {
                stale: Some(FaultWindows::every(13, 2)),
            },
            bus: BusFaultChannel {
                links: vec![(
                    "/sensors/points".to_string(),
                    LinkFaultConfig {
                        loss_probability: 0.3,
                        duplicate_probability: 0.1,
                        delay_probability: 0.2,
                        extra_delay: 0.05,
                    },
                )],
            },
            ..FaultPlanConfig::default()
        }
    }

    #[test]
    fn healthy_plan_injects_nothing() {
        let plan = FaultPlan::new(FaultPlanConfig::healthy());
        assert!(FaultPlanConfig::healthy().is_healthy());
        for d in 0..500 {
            assert!(plan.frame(d).is_healthy());
            assert_eq!(plan.frame(d).injected_count(), 0);
        }
        assert!(plan.link_faults().is_none());
    }

    #[test]
    fn frames_are_a_pure_function_of_the_decision() {
        let plan_a = FaultPlan::new(armed_plan());
        let plan_b = FaultPlan::new(armed_plan());
        for d in 0..1_000 {
            assert_eq!(plan_a.frame(d), plan_b.frame(d));
        }
        // Evaluation order does not matter.
        for d in (0..1_000).rev() {
            assert_eq!(plan_a.frame(d), plan_b.frame(d));
        }
    }

    #[test]
    fn windows_respect_their_duty_cycle() {
        let plan = FaultPlan::new(FaultPlanConfig {
            sensor: SensorFaultChannel {
                blackout: Some(FaultWindows::every(20, 5)),
                ..SensorFaultChannel::default()
            },
            ..FaultPlanConfig::default()
        });
        let active = (0..2_000)
            .filter(|&d| plan.frame(d).sensor_blackout)
            .count();
        assert_eq!(active, 2_000 / 20 * 5);
        assert!(!plan.config().is_healthy());
    }

    #[test]
    fn different_seeds_shift_the_phase_but_not_the_duty_cycle() {
        let windows = FaultWindows::every(40, 10);
        let mk = |seed| {
            FaultPlan::new(FaultPlanConfig {
                seed,
                sensor: SensorFaultChannel {
                    blackout: Some(windows),
                    ..SensorFaultChannel::default()
                },
                ..FaultPlanConfig::default()
            })
        };
        let counts: Vec<usize> = (1..=4u64)
            .map(|s| {
                (0..4_000)
                    .filter(|&d| mk(s).frame(d).sensor_blackout)
                    .count()
            })
            .collect();
        assert!(counts.iter().all(|&c| c == 1_000), "{counts:?}");
        // At least one pair of seeds disagrees on some decision.
        let a = mk(1);
        let b = mk(2);
        assert!((0..200).any(|d| a.frame(d).sensor_blackout != b.frame(d).sensor_blackout));
    }

    #[test]
    fn blackout_supersedes_burst_and_burst_carries_a_per_decision_seed() {
        let plan = FaultPlan::new(FaultPlanConfig {
            sensor: SensorFaultChannel {
                blackout: Some(FaultWindows::every(2, 1)),
                burst: Some(FaultWindows::every(1, 1)),
                burst_dropout: 0.5,
                burst_noise_std: 0.0,
                fog_visibility_cap: None,
            },
            ..FaultPlanConfig::default()
        });
        let mut burst_seeds = Vec::new();
        for d in 0..50 {
            let frame = plan.frame(d);
            if frame.sensor_blackout {
                assert!(frame.sensor_burst.is_none());
            } else {
                let burst = frame
                    .sensor_burst
                    .expect("burst window covers every decision");
                burst_seeds.push(burst.seed);
            }
        }
        burst_seeds.dedup();
        assert!(
            burst_seeds.len() > 20,
            "burst seeds should vary per decision"
        );
    }

    #[test]
    fn link_faults_are_pure_in_topic_and_sequence() {
        let plan = FaultPlan::new(armed_plan());
        let mut model_a = plan.link_faults().expect("bus channel armed");
        let mut model_b = plan.link_faults().unwrap();
        let points = TopicName::new("/sensors/points").unwrap();
        let other = TopicName::new("/planning/trajectory").unwrap();
        // Interleave differently; dispositions must still agree.
        let mut a = Vec::new();
        for seq in 0..400u64 {
            a.push(model_a.disposition(&points, seq));
            assert!(model_a.disposition(&other, seq).is_healthy());
        }
        let mut b = Vec::new();
        for seq in (0..400u64).rev() {
            b.push(model_b.disposition(&points, seq));
        }
        b.reverse();
        assert_eq!(a, b);
        let dropped = a.iter().filter(|d| d.drop).count();
        assert!((60..180).contains(&dropped), "dropped {dropped} of 400");
    }

    fn ring_of_points(origin: Vec3, count: usize, range: f64) -> Vec<Vec3> {
        (0..count)
            .map(|i| {
                let angle = i as f64 / count as f64 * std::f64::consts::TAU;
                origin + Vec3::new(angle.cos() * range, angle.sin() * range, 0.0)
            })
            .collect()
    }

    fn burst_frame(dropout: f64, noise_std: f64, seed: u64) -> FaultFrame {
        FaultFrame {
            sensor_burst: Some(SensorBurst {
                dropout,
                noise_std,
                seed,
            }),
            ..FaultFrame::default()
        }
    }

    /// FNV-1a over the point count and every coordinate's bit pattern.
    fn points_hash(points: &[Vec3]) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |bits: u64| {
            for b in bits.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        eat(points.len() as u64);
        for p in points {
            eat(p.x.to_bits());
            eat(p.y.to_bits());
            eat(p.z.to_bits());
        }
        h
    }

    #[test]
    fn burst_corruption_is_pinned() {
        // Recorded from the burst corruptor the mission drivers used
        // before it moved here (a one-shot stateful injector seeded by
        // the burst): the draw order and values must not change, or
        // every bursty mission (the blackout-corridor fault family
        // among them) drifts.
        let origin = Vec3::new(1.5, -2.0, 5.0);
        let mut rng = SplitMix64::new(42);
        let mut points: Vec<Vec3> = (0..400)
            .map(|_| {
                origin
                    + Vec3::new(
                        rng.uniform(-20.0, 20.0),
                        rng.uniform(-20.0, 20.0),
                        rng.uniform(-4.0, 4.0),
                    )
            })
            .collect();
        // A return at the origin has no ray to perturb along.
        points.push(origin);
        let pins: [(f64, f64, u64, usize, u64); 9] = [
            (0.0, 0.3, 0x1, 401, 0x2fad_9b97_55d4_772c),
            (0.0, 0.3, 0x5eed_fa17, 401, 0x3f7c_afaf_32af_14fe),
            (0.0, 0.3, 0xdead_beef, 401, 0x2124_0b93_7f1d_964f),
            (0.5, 0.0, 0x1, 185, 0x22bb_90ca_06f9_3d0c),
            (0.5, 0.0, 0x5eed_fa17, 213, 0xcdd8_d83c_436e_8785),
            (0.5, 0.0, 0xdead_beef, 207, 0x519b_0e1e_41c6_3ec5),
            (0.5, 0.3, 0x1, 182, 0x8a9d_bd8d_60b9_a9c2),
            (0.5, 0.3, 0x5eed_fa17, 200, 0x737e_3d2d_68ba_6940),
            (0.5, 0.3, 0xdead_beef, 213, 0xffb7_eeff_0e64_a063),
        ];
        for (dropout, noise_std, seed, len, hash) in pins {
            let out = burst_frame(dropout, noise_std, seed).sense_sweep(origin, || points.clone());
            assert_eq!(
                (out.len(), points_hash(&out)),
                (len, hash),
                "dropout {dropout}, noise {noise_std}, seed {seed:#x}"
            );
        }
    }

    #[test]
    fn healthy_frame_passes_the_capture_through() {
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let points = ring_of_points(origin, 40, 12.0);
        let out = FaultFrame::default().sense_sweep(origin, || points.clone());
        assert_eq!(out, points);
    }

    #[test]
    fn blackout_loses_the_sweep_without_capturing() {
        let frame = FaultFrame {
            sensor_blackout: true,
            ..burst_frame(0.5, 0.1, 3)
        };
        let out = frame.sense_sweep(Vec3::ZERO, || unreachable!("blacked-out sweep captured"));
        assert!(out.is_empty());
    }

    #[test]
    fn fog_removes_far_points_and_keeps_near_ones() {
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let near = ring_of_points(origin, 20, 6.0);
        let mut all = near.clone();
        all.extend(ring_of_points(origin, 20, 25.0));
        let fog = FaultFrame {
            fog_visibility_cap: Some(10.0),
            ..FaultFrame::default()
        };
        let out = fog.sense_sweep(origin, || all);
        // No burst: the near returns survive bit for bit.
        assert_eq!(out, near);
    }

    #[test]
    fn fog_cuts_after_the_dropout_draw_and_before_the_noise_draw() {
        let origin = Vec3::ZERO;
        let fogged = |frame: FaultFrame| FaultFrame {
            fog_visibility_cap: Some(10.0),
            ..frame
        };
        // Returns alternate inside (8 m) and beyond (15 m) the cap. Every
        // return takes its dropout draw, so fog removes exactly the far
        // survivors of the same draws.
        let points: Vec<Vec3> = ring_of_points(origin, 400, 8.0)
            .into_iter()
            .zip(ring_of_points(origin, 400, 15.0))
            .flat_map(|(near, far)| [near, far])
            .collect();
        let clear = burst_frame(0.3, 0.0, 9).sense_sweep(origin, || points.clone());
        let foggy = fogged(burst_frame(0.3, 0.0, 9)).sense_sweep(origin, || points.clone());
        let near: Vec<Vec3> = clear
            .into_iter()
            .filter(|p| p.distance(origin) <= 10.0)
            .collect();
        assert_eq!(foggy, near);
        // Noise is drawn after the cut: returns just inside the cap
        // survive even when the noise pushes them past it.
        let edge = ring_of_points(origin, 400, 9.95);
        let out = fogged(burst_frame(0.0, 0.1, 9)).sense_sweep(origin, || edge.clone());
        assert_eq!(out.len(), edge.len());
        assert!(out.iter().any(|p| p.distance(origin) > 10.0));
    }

    #[test]
    fn point_dropout_removes_roughly_the_requested_fraction() {
        let origin = Vec3::ZERO;
        let points = ring_of_points(origin, 2_000, 8.0);
        let out = burst_frame(0.5, 0.0, 0x5EED).sense_sweep(origin, || points.clone());
        let kept = out.len() as f64 / points.len() as f64;
        assert!((0.4..0.6).contains(&kept), "kept fraction {kept}");
    }

    #[test]
    fn range_noise_perturbs_along_the_ray() {
        let origin = Vec3::new(1.0, 2.0, 5.0);
        let points = ring_of_points(origin, 200, 10.0);
        let out = burst_frame(0.0, 0.2, 0x5EED).sense_sweep(origin, || points.clone());
        assert_eq!(out.len(), points.len());
        let mean_range: f64 =
            out.iter().map(|p| p.distance(origin)).sum::<f64>() / out.len() as f64;
        assert!((mean_range - 10.0).abs() < 0.2, "mean range {mean_range}");
        // Direction is preserved: each noisy point stays on its original ray.
        for (noisy, original) in out.iter().zip(points.iter()) {
            let a = (*noisy - origin).normalize();
            let b = (*original - origin).normalize();
            assert!(a.dot(b) > 0.999);
        }
    }

    #[test]
    fn sensing_is_a_pure_function_of_the_plan_and_decision() {
        let plan = FaultPlan::new(FaultPlanConfig::flaky_sensors(0.1, 0.3));
        let origin = Vec3::ZERO;
        let points = ring_of_points(origin, 500, 15.0);
        let sweeps = |order: &mut dyn Iterator<Item = u64>| {
            let mut out: Vec<(u64, Vec<Vec3>)> = order
                .map(|d| (d, plan.frame(d).sense_sweep(origin, || points.clone())))
                .collect();
            out.sort_by_key(|(d, _)| *d);
            out
        };
        let forward = sweeps(&mut (0..40));
        assert_eq!(forward, sweeps(&mut (0..40).rev()));
        // One decision in ten loses the sweep; the rest lose some points.
        let lost = forward.iter().filter(|(_, s)| s.is_empty()).count();
        assert_eq!(lost, 4);
        assert!(forward
            .iter()
            .all(|(_, s)| s.is_empty() || (s.len() > 250 && s.len() < 500)));
    }

    #[test]
    fn sensing_presets_map_onto_plan_channels() {
        let fog = FaultPlanConfig::fog(12.0);
        assert!(!fog.is_healthy());
        assert!(fog.validate().is_ok());
        let frame = FaultPlan::new(fog).frame(17);
        assert_eq!(frame.fog_visibility_cap, Some(12.0));
        assert_eq!(frame.sensor_burst.map(|b| b.noise_std), Some(0.05));
        assert_eq!(frame.injected_count(), 2);
        // The fog floor: a cap under 1 m is raised to 1 m.
        assert_eq!(
            FaultPlanConfig::fog(0.2).sensor.fog_visibility_cap,
            Some(1.0)
        );

        let blackout = |p: f64| FaultPlanConfig::flaky_sensors(p, 0.3).sensor.blackout;
        assert_eq!(blackout(0.1), Some(FaultWindows::every(10, 1)));
        assert_eq!(blackout(0.05), Some(FaultWindows::every(20, 1)));
        assert_eq!(blackout(0.3), Some(FaultWindows::every(10, 3)));
        assert_eq!(blackout(1.5), Some(FaultWindows::every(1, 1)));
        assert_eq!(blackout(0.0), None);
        let flaky = FaultPlanConfig::flaky_sensors(0.0, 0.2);
        assert_eq!(flaky.sensor.burst_dropout, 0.2);
        assert_eq!(flaky.sensor.burst_noise_std, 0.08);
        assert!(!flaky.is_healthy());
        assert!(flaky.validate().is_ok());
    }

    #[test]
    fn invalid_plans_are_rejected() {
        let mut bad = armed_plan();
        bad.sensor.blackout = Some(FaultWindows::every(10, 11));
        assert!(bad.validate().is_err());
        let mut bad = armed_plan();
        bad.planner.spike_latency = -1.0;
        assert!(bad.validate().is_err());
        let mut bad = armed_plan();
        bad.bus.links[0].1.loss_probability = 1.5;
        assert!(bad.validate().is_err());
        let mut bad = armed_plan();
        bad.bus.links[0].0 = "not a topic".to_string();
        assert!(bad.validate().is_err());
        let mut bad = armed_plan();
        bad.sensor.burst_dropout = 1.5;
        assert!(bad.validate().is_err());
        let mut bad = armed_plan();
        bad.sensor.burst_noise_std = -0.1;
        assert!(bad.validate().is_err());
        for cap in [0.0, -3.0, f64::NAN, f64::INFINITY] {
            let mut bad = armed_plan();
            bad.sensor.fog_visibility_cap = Some(cap);
            let err = bad.validate().unwrap_err();
            assert!(err.contains("fog_visibility_cap"), "{err}");
        }
        assert!(armed_plan().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn plan_panics_on_invalid_config() {
        let mut bad = armed_plan();
        bad.map.stale = Some(FaultWindows::every(0, 0));
        let _ = FaultPlan::new(bad);
    }
}
