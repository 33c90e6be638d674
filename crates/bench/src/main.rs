//! `experiments` — regenerates every table and figure of the RoboRun paper.
//!
//! ```bash
//! # everything, scaled-down (finishes in a few minutes):
//! cargo run --release -p roborun-bench --bin experiments -- all
//!
//! # a single figure:
//! cargo run --release -p roborun-bench --bin experiments -- fig7
//!
//! # the full paper-scale sweep (27 environments, 600–1200 m missions):
//! cargo run --release -p roborun-bench --bin experiments -- fig7 --full
//! ```
//!
//! Each experiment prints either an aligned table (for bar-chart figures
//! like Fig. 7) or a CSV series (for curve figures like Fig. 2/5/10/11)
//! that can be plotted with any external tool. EXPERIMENTS.md records the
//! mapping to the paper's figures and the measured outcomes.

use roborun_core::latency_model::LatencySample;
use roborun_core::{
    KnobRanges, KnobSettings, PipelineLatencyModel, RuntimeMode, SpatialProfile, TimeBudgeter,
};
use roborun_env::{CongestionMap, DifficultyConfig, Environment, EnvironmentGenerator};
use roborun_mission::breakdown::ZoneBreakdown;
use roborun_mission::report;
use roborun_mission::sweep::{run_sweep, SweepConfig};
use roborun_mission::{MissionConfig, MissionResult, MissionRunner, Scenario};
use roborun_sim::{ComputeLatencyModel, PipelineStage, StoppingModel};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let selected: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .collect();
    let run_all = selected.is_empty() || selected.iter().any(|a| a == "all");
    let want = |name: &str| run_all || selected.iter().any(|a| a == name);

    println!(
        "RoboRun reproduction — experiment harness (mode: {})\n",
        if full { "full paper scale" } else { "quick" }
    );

    if want("table2") {
        table2();
    }
    if want("table1") {
        table1();
    }
    if want("fit") {
        fit();
    }
    if want("fig2a") {
        fig2a();
    }
    if want("fig2b") {
        fig2b();
    }
    if want("fig3") {
        fig3(full);
    }
    if want("fig4") {
        fig4(full);
    }
    // Figures 5, 9, 10 and 11 all analyse the representative mission.
    if want("fig5") || want("fig9") || want("fig10") || want("fig11") {
        let (env, oblivious, aware) = representative_mission(full);
        if want("fig9") {
            fig9(&env, &oblivious, &aware);
        }
        if want("fig5") {
            fig5(&oblivious, &aware);
        }
        if want("fig10") {
            fig10(&oblivious, &aware);
        }
        if want("fig11") {
            fig11(&oblivious, &aware);
        }
    }
    if want("fig7") || want("fig8") {
        let results = sweep(full);
        if want("fig7") {
            println!(
                "## Figure 7 — mission-level metrics (averaged over {} environments)\n",
                results.rows().len()
            );
            println!("{}", report::fig7_table(&results));
        }
        if want("fig8") {
            fig8(&results);
        }
    }
    if want("ablation") {
        ablation(full);
    }
    if want("ablation_knobs") {
        ablation_knobs(full);
    }
    if want("cotask") {
        cotask(full);
    }
    if want("node_graph") {
        node_graph(full);
    }
    if want("faults") {
        faults(full);
    }
    if want("fault_sweep") {
        fault_sweep();
    }
    if want("bench7") {
        bench7();
    }
    if want("bench8") {
        bench8();
    }
    if want("trace") {
        trace_export(full);
    }
    if want("bench9") {
        bench9();
    }
    if want("bench10") {
        bench10();
    }
    if want("trajectory") {
        trajectory();
    }
}

/// Raw-speed kernel campaign: hazard-biased RRT* sampling vs uniform on
/// the lane-heavy one-shot fixture, batched arena expansion at 4k/16k
/// samples, 4-wide vs 8-wide AABB broad-phase dispatch, the gridded
/// peer-query rerun, and a multicore mode (`ROBORUN_BENCH_THREADS`) for
/// the sweep / plan-ahead / mission-service rows. Emits `BENCH_8.json`.
fn bench8() {
    use roborun_env::{Obstacle, ObstacleField};
    use roborun_geom::{Aabb, Ray, SimdWidth, SplitMix64, Vec3};
    use roborun_mission::{MissionService, ServiceConfig};
    use roborun_perception::{ExportConfig, OccupancyMap, PlannerMap, PointCloud};
    use roborun_planning::{
        CollisionChecker, HazardContext, PredictedHazards, RrtConfig, RrtStar, SamplingMix,
    };
    use std::time::Instant;

    println!("## Bench 8 — raw-speed kernels: biased sampling, batch expansion, 8-wide AABB\n");

    let cores = roborun_trace::host_cores();
    // The multicore bench mode: ROBORUN_BENCH_THREADS pins the worker
    // count of every threaded row below; unset picks the machine width.
    let bench_threads: Option<usize> = std::env::var("ROBORUN_BENCH_THREADS")
        .ok()
        .and_then(|s| s.parse().ok());
    let threads = bench_threads.unwrap_or(cores);
    println!(
        "(host has {cores} core(s); thread mode: {})\n",
        bench_threads.map_or("auto".to_string(), |t| format!("pinned to {t}"))
    );

    // --- Hazard-biased sampling on the lane-heavy one-shot fixture ----
    // The predicted_costmap fixture: a wall at x = 20 with one gap at
    // y in [4, 9], and a predicted lane past it blocking the straight
    // exit. Gap regions derived from the lane guide proposals into the
    // southern dip the detour needs.
    let map = {
        let mut map = OccupancyMap::new(0.5);
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let mut points = Vec::new();
        for yi in -60..=60 {
            let y = yi as f64 * 0.5;
            if (4.0..=9.0).contains(&y) {
                continue;
            }
            for zi in 0..24 {
                points.push(Vec3::new(20.0, y, zi as f64 * 0.5));
            }
        }
        map.integrate_cloud(&PointCloud::new(origin, points), 1.0);
        PlannerMap::export(&map, &ExportConfig::new(0.5, 1e9, origin))
    };
    let lanes = vec![Aabb::new(
        Vec3::new(26.0, 2.0, 0.0),
        Vec3::new(29.0, 25.0, 12.0),
    )];
    let start = Vec3::new(0.0, 0.0, 5.0);
    let goal = Vec3::new(40.0, 0.0, 5.0);
    let bounds = Aabb::new(Vec3::new(-5.0, -25.0, 1.0), Vec3::new(45.0, 25.0, 12.0));
    let clearance = 0.45 * 0.6;
    let mixes = [
        ("uniform", SamplingMix::default()),
        (
            "biased",
            SamplingMix {
                enabled: true,
                ..SamplingMix::default()
            },
        ),
    ];
    let run_plan = |seed: u64, mix: SamplingMix, max_samples: usize| {
        let planner = RrtStar::new(RrtConfig {
            seed,
            max_samples,
            sampling_mix: mix,
            ..RrtConfig::default()
        });
        let hazards = PredictedHazards::new(lanes.clone(), clearance, start, 1e9);
        let mut checker = CollisionChecker::new(map.clone(), 0.45, 0.3);
        let mut ctx = HazardContext::new(&mut checker, &hazards);
        planner.plan(&mut ctx, start, goal, &bounds)
    };
    // Samples to first solution: the search never stops early, so the
    // metric is the smallest max_samples rung that yields a path.
    let ladder = [25usize, 50, 100, 200, 400, 800, 1600, 3200, 6400];
    let seeds = 8u64;
    let mut sampling_rows = Vec::new();
    for (label, mix) in mixes {
        let mut to_solution = 0usize;
        for seed in 0..seeds {
            to_solution += ladder
                .iter()
                .copied()
                .find(|&n| run_plan(seed, mix, n).found())
                .unwrap_or(*ladder.last().unwrap());
        }
        let wall = Instant::now();
        let mut cost = 0.0;
        for seed in 0..seeds {
            cost += run_plan(seed, mix, 2_000).cost;
        }
        let ms = wall.elapsed().as_secs_f64() * 1e3 / seeds as f64;
        let mean_to_solution = to_solution as f64 / seeds as f64;
        let mean_cost = cost / seeds as f64;
        println!(
            "sampling  {label:<8} {mean_to_solution:>6.0} samples to solution  \
             {ms:>7.2} ms/plan @2000  mean cost {mean_cost:.2} m"
        );
        sampling_rows.push((label, mean_to_solution, ms, mean_cost));
    }
    let sample_reduction = sampling_rows[0].1 / sampling_rows[1].1;
    let cost_ratio = sampling_rows[1].3 / sampling_rows[0].3;
    println!(
        "sampling  biased draws {sample_reduction:.1}x fewer samples to solution \
         (cost ratio {cost_ratio:.3})\n"
    );

    // --- Batched arena expansion at 4k / 16k samples ------------------
    // The long-corridor gap-wall search of the kernel-scaling benches;
    // batch K pre-draws K targets per spatial-index flush. Results are
    // exact-identical at every K (asserted here, proven in the planning
    // tests); the win is locality and flush amortization.
    let long_map = {
        let mut map = OccupancyMap::new(0.5);
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let mut points = Vec::new();
        for yi in -120..=120 {
            let y = yi as f64 * 0.5;
            if (6.0..=10.0).contains(&y) {
                continue;
            }
            for zi in 0..30 {
                points.push(Vec3::new(20.0, y, zi as f64 * 0.5));
            }
        }
        map.integrate_cloud(&PointCloud::new(origin, points), 1.0);
        PlannerMap::export(&map, &ExportConfig::new(0.5, 1e9, origin))
    };
    let long_goal = Vec3::new(140.0, 0.0, 5.0);
    let long_bounds = Aabb::new(Vec3::new(-5.0, -75.0, 1.0), Vec3::new(155.0, 75.0, 28.0));
    let mut checker = CollisionChecker::new(long_map, 0.45, 0.5);
    let mut batch_rows = Vec::new();
    for &samples in &[4_000usize, 16_000] {
        let mut row = Vec::new();
        let mut reference = None;
        for &batch in &[1usize, 64] {
            let planner = RrtStar::new(RrtConfig {
                seed: 3,
                max_samples: samples,
                batch_size: batch,
                ..RrtConfig::default()
            });
            let wall = Instant::now();
            let result = planner.plan(&mut checker, start, long_goal, &long_bounds);
            let ms = wall.elapsed().as_secs_f64() * 1e3;
            match &reference {
                None => reference = Some(result),
                Some(r) => assert_eq!(r, &result, "batch {batch} diverged at {samples} samples"),
            }
            println!("batch     {samples:>6} samples  K={batch:<3} {ms:>8.1} ms");
            row.push((batch, ms));
        }
        batch_rows.push((samples, row));
    }
    println!();

    // --- 4-wide vs 8-wide AABB broad-phase dispatch -------------------
    // Same world, same rays, both forced widths: identical hits (width
    // changes throughput, never results), throughput recorded per ray.
    let obstacles: Vec<Obstacle> = {
        let mut rng = SplitMix64::new(10_000);
        (0..10_000u32)
            .map(|id| {
                let center = Vec3::new(
                    rng.uniform(5.0, 185.0),
                    rng.uniform(-90.0, 90.0),
                    rng.uniform(0.0, 12.0),
                );
                let half = Vec3::new(
                    rng.uniform(0.4, 2.0),
                    rng.uniform(0.4, 2.0),
                    rng.uniform(0.4, 3.0),
                );
                Obstacle::new(id, Aabb::from_center_half_extents(center, half))
            })
            .collect()
    };
    let rays: Vec<Ray> = {
        let mut rng = SplitMix64::new(99);
        (0..512)
            .map(|_| {
                let origin = Vec3::new(0.0, rng.uniform(-10.0, 10.0), rng.uniform(2.0, 8.0));
                let yaw = rng.uniform(-0.9, 0.9);
                let pitch = rng.uniform(-0.3, 0.3);
                Ray::new(origin, Vec3::new(yaw.cos(), yaw.sin(), pitch.sin()))
            })
            .collect()
    };
    let mut width_rows = Vec::new();
    let mut checksums = Vec::new();
    for width in [SimdWidth::W4, SimdWidth::W8] {
        let field = ObstacleField::with_simd_width(obstacles.clone(), width);
        let rounds = 40usize;
        let wall = Instant::now();
        let mut checksum = 0.0f64;
        for _ in 0..rounds {
            for ray in &rays {
                if let Some(hit) = field.raycast(ray, 120.0) {
                    checksum += hit.distance;
                }
            }
        }
        let ns_per_ray = wall.elapsed().as_secs_f64() * 1e9 / (rounds * rays.len()) as f64;
        println!(
            "raycast   {} lanes  {ns_per_ray:>7.0} ns/ray over {} obstacles",
            width.lanes(),
            obstacles.len()
        );
        width_rows.push((width.lanes(), ns_per_ray));
        checksums.push(checksum.to_bits());
    }
    assert_eq!(checksums[0], checksums[1], "W4 and W8 raycasts diverged");
    println!();

    // --- Peer-hazard query scaling rerun (now grid-backed) ------------
    // The BENCH_7 scaling row that motivated the candidate grid: point
    // queries against K committed peer corridors. With >= 16 flat boxes
    // the grid makes the probe a hash lookup plus a few exact tests.
    let peer_rows = peer_hazard_query_rows();
    for (peers, boxes, ns_per_query, blocked) in &peer_rows {
        println!(
            "peer grid K={peers}  {boxes} boxes  {ns_per_query:.0} ns/query  ({blocked} blocked)"
        );
    }
    println!();

    // --- Multicore mode: sweep, plan-ahead, mission service -----------
    // All three threaded rows honour the pinned width. The plan-ahead
    // row keeps the modeled masked-latency accounting: wall-clock
    // parallelism changes throughput, never the simulated clock.
    let mut sweep_request = SweepConfig::quick(41);
    sweep_request.threads = Some(threads);
    sweep_request.difficulties.truncate(4);
    let wall = Instant::now();
    let sweep_rows = run_sweep(&sweep_request).rows().len();
    let sweep_seconds = wall.elapsed().as_secs_f64();
    println!("multicore sweep    threads={threads}  {sweep_rows} rows in {sweep_seconds:.2} s");

    let plan_ahead_cfg = MissionConfig {
        max_decisions: 600,
        max_mission_time: 1_500.0,
        plan_ahead: true,
        ..MissionConfig::new(RuntimeMode::SpatialAware)
    };
    let env = EnvironmentGenerator::new(DifficultyConfig {
        obstacle_density: 0.35,
        obstacle_spread: 40.0,
        goal_distance: 120.0,
    })
    .generate(21);
    let wall = Instant::now();
    let result = MissionRunner::new(plan_ahead_cfg).run(&env);
    let plan_ahead_seconds = wall.elapsed().as_secs_f64();
    let masked = result.metrics.masked_planning_latency;
    println!(
        "multicore plan-ahead  {plan_ahead_seconds:.2} s wall, masked {masked:.3} s modeled \
         over {} decisions",
        result.metrics.decisions
    );

    let mut service_request = SweepConfig::quick(41);
    service_request.difficulties.truncate(4);
    let service_missions = 2 * service_request.difficulties.len();
    let shards = threads.max(1);
    let service = MissionService::start(ServiceConfig { shards });
    let wall = Instant::now();
    let id = service.submit(service_request).expect("valid request");
    let rows = service.collect(id);
    let service_seconds = wall.elapsed().as_secs_f64();
    service.shutdown();
    assert_eq!(rows.rows().len(), 4);
    println!(
        "multicore service  shards={shards}  {service_missions} missions in {service_seconds:.2} s\n"
    );

    // Machine-readable trajectory for CI and the roadmap.
    let mut w = roborun_trace::JsonWriter::new();
    w.begin_object();
    w.key("bench");
    w.string("raw_speed_kernels");
    w.key("host_cores");
    w.uint(cores as u64);
    w.key("bench_threads");
    match bench_threads {
        Some(t) => w.uint(t as u64),
        None => w.null(),
    }
    w.key("biased_sampling");
    w.begin_object();
    for (label, to_solution, ms, cost) in &sampling_rows {
        w.key(label);
        w.begin_inline_object();
        w.key("samples_to_solution");
        w.float(*to_solution, 1);
        w.key("ms_per_plan_2000");
        w.float(*ms, 3);
        w.key("mean_cost_m");
        w.float(*cost, 3);
        w.end();
    }
    w.key("sample_reduction");
    w.float(sample_reduction, 2);
    w.key("cost_ratio");
    w.float(cost_ratio, 4);
    w.end();
    w.key("batch_expansion");
    w.begin_array();
    for (samples, row) in &batch_rows {
        w.begin_inline_object();
        w.key("samples");
        w.uint(*samples as u64);
        for (batch, ms) in row {
            w.key(&format!("k{batch}_ms"));
            w.float(*ms, 2);
        }
        w.end();
    }
    w.end();
    w.key("aabb_raycast");
    w.begin_array();
    for (lanes, ns) in &width_rows {
        w.begin_inline_object();
        w.key("lanes");
        w.uint(*lanes as u64);
        w.key("ns_per_ray");
        w.float(*ns, 1);
        w.end();
    }
    w.end();
    write_peer_hazard_rows(&mut w, &peer_rows);
    w.key("multicore");
    w.begin_inline_object();
    w.key("threads");
    w.uint(threads as u64);
    w.key("sweep_seconds");
    w.float(sweep_seconds, 3);
    w.key("plan_ahead_wall_seconds");
    w.float(plan_ahead_seconds, 3);
    w.key("plan_ahead_masked_modeled_s");
    w.float(masked, 3);
    w.key("service_shards");
    w.uint(shards as u64);
    w.key("service_seconds");
    w.float(service_seconds, 3);
    w.end();
    w.end();

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_8.json");
    std::fs::write(path, w.finish()).expect("write BENCH_8.json");
    println!("wrote {path}\n");
}

/// Fleet-mission performance trajectory: mission-service throughput
/// versus shard count, shared-broad-phase amortization, and peer-hazard
/// query overhead. Emits machine-readable `BENCH_7.json` at the repo
/// root alongside the human-readable table.
fn bench7() {
    use roborun_mission::{MissionService, ServiceConfig, SharedStaticWorld};
    use std::time::Instant;

    println!("## Bench 7 — fleet missions, mission service, shared worlds\n");

    // Shard scaling is bounded by the physical core count; record it so
    // a flat curve on a small box reads as what it is.
    let cores = roborun_trace::host_cores();
    println!("(host has {cores} core(s) available)\n");

    // Mission-service throughput: the same 8-row request (2 missions per
    // row) collected through 1, 2 and 4 shards. Rows are kept comparable
    // in cost (moderate densities, short goals) so the shard scaling is
    // visible instead of being hidden behind one dominant row.
    let mut request = SweepConfig::quick(41);
    request.difficulties.clear();
    for &density in &[0.25, 0.35] {
        for &spread in &[40.0, 60.0] {
            for &goal in &[80.0, 110.0] {
                request.difficulties.push(DifficultyConfig {
                    obstacle_density: density,
                    obstacle_spread: spread,
                    goal_distance: goal,
                });
            }
        }
    }
    let missions = 2 * request.difficulties.len();
    let mut service_rows = Vec::new();
    for shards in [1usize, 2, 4] {
        let service = MissionService::start(ServiceConfig { shards });
        let start = Instant::now();
        let id = service.submit(request.clone()).expect("valid request");
        let results = service.collect(id);
        let seconds = start.elapsed().as_secs_f64();
        service.shutdown();
        assert_eq!(results.rows().len(), request.difficulties.len());
        let throughput = missions as f64 / seconds;
        println!("service  shards={shards}  {missions} missions in {seconds:.2} s  ({throughput:.2} missions/s)");
        service_rows.push((shards, seconds, throughput));
    }

    // Shared-broad-phase amortization: survey a world once and clone the
    // checker per mission, versus rebuilding the survey every time.
    let env = EnvironmentGenerator::new(DifficultyConfig {
        obstacle_density: 0.3,
        obstacle_spread: 40.0,
        goal_distance: 100.0,
    })
    .generate(41);
    let clones = 16usize;
    let start = Instant::now();
    let world = SharedStaticWorld::survey(&env, 1.0, 0.6);
    let build_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let mut shared = Vec::with_capacity(clones);
    for _ in 0..clones {
        shared.push(world.checker());
    }
    let clone_ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(shared.iter().all(|c| world.shares_broad_phase_with(c)));
    let start = Instant::now();
    for _ in 0..clones {
        let _ = SharedStaticWorld::survey(&env, 1.0, 0.6);
    }
    let rebuild_ms = start.elapsed().as_secs_f64() * 1e3;
    let amortized_speedup = rebuild_ms / (build_ms + clone_ms);
    println!(
        "\nbroad phase  build {build_ms:.1} ms + {clones} clones {clone_ms:.3} ms  \
         vs {clones} rebuilds {rebuild_ms:.1} ms  (speedup {amortized_speedup:.1}x)"
    );

    // Peer-hazard query overhead: point queries against K committed peer
    // corridors (64-waypoint trajectories, swept and inflated).
    let peer_rows = peer_hazard_query_rows();
    for (peers, boxes, ns_per_query, blocked) in &peer_rows {
        println!(
            "peer hazard  K={peers}  {boxes} boxes  {ns_per_query:.0} ns/query  ({blocked} blocked)"
        );
    }

    // Machine-readable trajectory for CI and the roadmap.
    let mut w = roborun_trace::JsonWriter::new();
    w.begin_object();
    w.key("bench");
    w.string("fleet_missions");
    w.key("host_cores");
    w.uint(cores as u64);
    w.key("service_throughput");
    w.begin_array();
    for (shards, seconds, throughput) in &service_rows {
        w.begin_inline_object();
        w.key("shards");
        w.uint(*shards as u64);
        w.key("missions");
        w.uint(missions as u64);
        w.key("seconds");
        w.float(*seconds, 3);
        w.key("missions_per_sec");
        w.float(*throughput, 3);
        w.end();
    }
    w.end();
    w.key("shared_broad_phase");
    w.begin_inline_object();
    w.key("clones");
    w.uint(clones as u64);
    w.key("survey_build_ms");
    w.float(build_ms, 3);
    w.key("clone_total_ms");
    w.float(clone_ms, 4);
    w.key("rebuild_total_ms");
    w.float(rebuild_ms, 3);
    w.key("amortized_speedup");
    w.float(amortized_speedup, 2);
    w.end();
    write_peer_hazard_rows(&mut w, &peer_rows);
    w.end();

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_7.json");
    std::fs::write(path, w.finish()).expect("write BENCH_7.json");
    println!("\nwrote {path}\n");
}

/// The peer-hazard scaling row shared by the BENCH_7/8/9 trajectories:
/// point queries against K committed peer corridors (64-waypoint
/// trajectories, swept and inflated). Returns
/// `(peers, boxes, ns_per_query, blocked)` rows.
fn peer_hazard_query_rows() -> Vec<(usize, usize, f64, usize)> {
    use roborun_geom::Vec3;
    use roborun_planning::PeerTrajectoryHazard;
    use std::time::Instant;
    let queries = 100_000usize;
    let mut rows = Vec::new();
    for peers in [1usize, 2, 4, 8] {
        let mut hazard = PeerTrajectoryHazard::new(0.46, 0.9);
        for id in 0..peers {
            let polyline: Vec<Vec3> = (0..64)
                .map(|i| {
                    let t = i as f64 * 2.0;
                    Vec3::new(
                        t,
                        (id as f64) * 12.0 + (t * 0.1).sin() * 4.0,
                        5.0 + t * 0.05,
                    )
                })
                .collect();
            hazard.set_peer(id as u64, &polyline);
        }
        let boxes = hazard.boxes().len();
        let start = Instant::now();
        let mut blocked = 0usize;
        for q in 0..queries {
            let t = (q % 997) as f64 * 0.13;
            let p = Vec3::new(t, (t * 0.37).sin() * 20.0, 5.0 + (t * 0.11).cos() * 3.0);
            if hazard.point_blocked(p) {
                blocked += 1;
            }
        }
        let ns_per_query = start.elapsed().as_secs_f64() * 1e9 / queries as f64;
        rows.push((peers, boxes, ns_per_query, blocked));
    }
    rows
}

/// Writes the shared `peer_hazard_query` BENCH section (the trajectory
/// diff keys the three files on it).
fn write_peer_hazard_rows(w: &mut roborun_trace::JsonWriter, rows: &[(usize, usize, f64, usize)]) {
    w.key("peer_hazard_query");
    w.begin_array();
    for (peers, boxes, ns, _) in rows {
        w.begin_inline_object();
        w.key("peers");
        w.uint(*peers as u64);
        w.key("boxes");
        w.uint(*boxes as u64);
        w.key("ns_per_query");
        w.float(*ns, 1);
        w.end();
    }
    w.end();
}

/// Chrome-trace export: arms the tracer, runs one representative static,
/// dynamic and fault mission, self-checks the export against the trace
/// schema and the >= 95% decision-stage-coverage contract, and writes
/// `out/trace_<scenario>.json` (loadable in Perfetto or
/// `chrome://tracing`). Wall-clock fields are left out of the artifact
/// so reruns of the same mission produce byte-identical files.
fn trace_export(full: bool) {
    use roborun_mission::{DynamicScenario, FaultScenario};
    use roborun_trace::{validate_chrome_trace, Trace};

    println!("## Trace — Chrome-trace export of representative missions\n");
    let out_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../out");
    std::fs::create_dir_all(out_dir).expect("create out/");

    fn run_traced(out_dir: &str, name: &str, run: impl FnOnce() -> MissionResult) {
        // Leftover events from earlier subcommands of the same process
        // would pollute the artifact; start from an empty sink.
        let _ = roborun_trace::drain();
        roborun_trace::arm();
        let result = run();
        roborun_trace::disarm();
        let trace = Trace::collect();
        let json = trace.to_chrome_json(name, false);
        let (events, async_pairs) =
            validate_chrome_trace(&json).unwrap_or_else(|e| panic!("{name} trace schema: {e}"));
        let coverage = trace.decision_stage_coverage();
        let min_coverage = coverage.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            !coverage.is_empty() && min_coverage >= 0.95,
            "{name}: stage spans cover {min_coverage:.3} of a decision (need >= 0.95)"
        );
        let path = format!("{out_dir}/trace_{name}.json");
        std::fs::write(&path, &json).expect("write trace json");
        println!(
            "### {name}: {} decisions, {events} events ({async_pairs} async pair(s)), \
             min stage coverage {min_coverage:.3}\n",
            result.metrics.decisions
        );
        println!("{}", trace.summary_table());
        println!("wrote {path}\n");
    }

    let max_decisions = if full { 4_000 } else { 1_500 };
    run_traced(out_dir, "static", || {
        let env = EnvironmentGenerator::new(DifficultyConfig {
            goal_distance: 200.0,
            ..DifficultyConfig::mid()
        })
        .generate(23);
        MissionRunner::new(MissionConfig {
            max_decisions,
            max_mission_time: 5_000.0,
            plan_ahead: true,
            ..MissionConfig::new(RuntimeMode::SpatialAware)
        })
        .run(&env)
    });
    run_traced(out_dir, "dynamic", || {
        let (env, world) = DynamicScenario::CrossingCorridor.world(41);
        let mut config = MissionConfig::new(RuntimeMode::SpatialAware);
        config.max_decisions = max_decisions.min(600);
        config.max_mission_time = 1_500.0;
        config.voxel_decay = Some(2);
        MissionRunner::new(config).run_dynamic(&env, &world)
    });
    run_traced(out_dir, "fault", || {
        let scenario = FaultScenario::PlannerBrownout;
        let env = scenario.environment(41);
        let mut config = MissionConfig::new(RuntimeMode::SpatialAware);
        config.max_decisions = max_decisions.min(600);
        config.max_mission_time = 1_500.0;
        config.voxel_decay = Some(2);
        config.degradation.enabled = true;
        config.fault_plan = scenario.fault_plan(41);
        MissionRunner::new(config).run(&env)
    });
}

/// Trace-layer cost trajectory: the disarmed gate and armed emission in
/// nanoseconds per call, whole-mission overhead armed versus disarmed
/// (with a metrics-equality check that tracing perturbed nothing), the
/// shared log-histogram's quantile accuracy against exact percentiles,
/// and the peer-hazard scaling row shared with BENCH_7/8. Emits
/// `BENCH_9.json`.
fn bench9() {
    use roborun_geom::{percentile, LogHistogram, SplitMix64};
    use roborun_trace::SpanKind;
    use std::hint::black_box;
    use std::time::Instant;

    println!("## Bench 9 — trace overhead and histogram accuracy\n");
    let cores = roborun_trace::host_cores();
    println!("(host has {cores} core(s) available)\n");

    // --- The disarmed gate: the entire cost tracing adds to a normal
    // (untraced) run is one relaxed load and branch per call site.
    let _ = roborun_trace::drain();
    roborun_trace::disarm();
    let rounds = 20_000_000u64;
    let wall = Instant::now();
    for i in 0..rounds {
        roborun_trace::collector::complete(
            black_box(SpanKind::Decision),
            black_box(i as f64),
            0.001,
            0,
            &[],
        );
    }
    let disarmed_ns = wall.elapsed().as_secs_f64() * 1e9 / rounds as f64;

    // --- Armed emission: thread-local ring push + amortised spill.
    roborun_trace::arm();
    let armed_rounds = 400_000u64;
    let wall = Instant::now();
    for i in 0..armed_rounds {
        roborun_trace::collector::complete(
            black_box(SpanKind::Decision),
            black_box(i as f64),
            0.001,
            0,
            &[("decision", i as f64)],
        );
    }
    let armed_ns = wall.elapsed().as_secs_f64() * 1e9 / armed_rounds as f64;
    roborun_trace::disarm();
    let dropped = roborun_trace::dropped();
    let retained = roborun_trace::drain().len();
    println!(
        "gate      disarmed {disarmed_ns:.2} ns/call   armed {armed_ns:.0} ns/event  \
         ({retained} retained, {dropped} dropped)"
    );

    // --- Whole-mission overhead: the same mission disarmed then armed.
    // Metrics equality doubles as the "enabled tracing perturbs nothing"
    // check at bench time.
    let env = EnvironmentGenerator::new(DifficultyConfig {
        goal_distance: 120.0,
        ..DifficultyConfig::mid()
    })
    .generate(23);
    let mission = || {
        MissionRunner::new(MissionConfig {
            max_decisions: 600,
            max_mission_time: 1_500.0,
            ..MissionConfig::new(RuntimeMode::SpatialAware)
        })
        .run(&env)
    };
    let _ = mission(); // warm caches before timing either mode
    let wall = Instant::now();
    let disarmed_result = mission();
    let disarmed_s = wall.elapsed().as_secs_f64();
    roborun_trace::arm();
    let wall = Instant::now();
    let armed_result = mission();
    let armed_s = wall.elapsed().as_secs_f64();
    roborun_trace::disarm();
    let mission_events = roborun_trace::drain().len();
    assert_eq!(
        disarmed_result.metrics, armed_result.metrics,
        "tracing perturbed the mission"
    );
    let overhead_pct = (armed_s / disarmed_s.max(1e-12) - 1.0) * 100.0;
    println!(
        "mission   disarmed {disarmed_s:.3} s   armed {armed_s:.3} s  \
         ({overhead_pct:+.1}%, {mission_events} events, identical metrics)"
    );

    // --- Histogram accuracy: a log-uniform latency-like sample spanning
    // four decades, histogram quantiles against exact percentiles.
    let mut rng = SplitMix64::new(7);
    let samples: Vec<f64> = (0..100_000)
        .map(|_| rng.uniform((1e-3f64).ln(), 10f64.ln()).exp())
        .collect();
    let hist: LogHistogram = samples.iter().copied().collect();
    let mut accuracy = Vec::new();
    for q in [0.5, 0.95, 0.99] {
        let exact = percentile(&samples, q).expect("non-empty sample");
        let approx = hist.quantile(q).expect("non-empty histogram");
        let rel_err = (approx - exact).abs() / exact;
        println!(
            "histogram p{:<4} exact {exact:.5} s   histogram {approx:.5} s   rel err {rel_err:.4}",
            q * 100.0
        );
        accuracy.push((q, exact, approx, rel_err));
    }
    println!();

    // --- The shared scaling row for the BENCH trajectory diff.
    let peer_rows = peer_hazard_query_rows();
    for (peers, boxes, ns_per_query, blocked) in &peer_rows {
        println!(
            "peer hazard  K={peers}  {boxes} boxes  {ns_per_query:.0} ns/query  ({blocked} blocked)"
        );
    }

    // Machine-readable trajectory for CI and the roadmap.
    let mut w = roborun_trace::JsonWriter::new();
    w.begin_object();
    w.key("bench");
    w.string("trace_observability");
    w.key("host_cores");
    w.uint(cores as u64);
    w.key("trace_gate");
    w.begin_inline_object();
    w.key("disarmed_ns_per_call");
    w.float(disarmed_ns, 3);
    w.key("armed_ns_per_event");
    w.float(armed_ns, 1);
    w.key("events_retained");
    w.uint(retained as u64);
    w.key("events_dropped");
    w.uint(dropped);
    w.end();
    w.key("mission_overhead");
    w.begin_inline_object();
    w.key("disarmed_seconds");
    w.float(disarmed_s, 3);
    w.key("armed_seconds");
    w.float(armed_s, 3);
    w.key("overhead_pct");
    w.float(overhead_pct, 2);
    w.key("events");
    w.uint(mission_events as u64);
    w.end();
    w.key("histogram_accuracy");
    w.begin_array();
    for (q, exact, approx, rel_err) in &accuracy {
        w.begin_inline_object();
        w.key("q");
        w.float(*q, 2);
        w.key("exact_s");
        w.float(*exact, 5);
        w.key("histogram_s");
        w.float(*approx, 5);
        w.key("rel_err");
        w.float(*rel_err, 4);
        w.end();
    }
    w.end();
    write_peer_hazard_rows(&mut w, &peer_rows);
    w.end();

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_9.json");
    std::fs::write(path, w.finish()).expect("write BENCH_9.json");
    println!("\nwrote {path}\n");
}

/// Planner scratch campaign: steady-state allocation of one reused
/// [`roborun_planning::PlannerScratch`] over repeated plans on the
/// gap-wall fixture, plus the peer-hazard scaling row shared with
/// BENCH_7/8/9. Emits `BENCH_10.json` under the same JSON paths as the
/// committed record; `experiments trajectory` gates the shared
/// `peer_hazard_query` rows.
fn bench10() {
    use roborun_geom::{Aabb, Vec3};
    use roborun_perception::{ExportConfig, OccupancyMap, PlannerMap, PointCloud};
    use roborun_planning::{CollisionChecker, PlannerScratch, RrtConfig, RrtStar};

    println!("## Bench 10 — planner scratch reuse\n");
    let cores = roborun_trace::host_cores();
    println!("(host has {cores} core(s) available)\n");

    // The long-corridor gap-wall fixture shared with BENCH_8's batch
    // rows: a wall at x = 20 with one gap at y in [6, 10], goal 140 m
    // out, voxel 0.5.
    let origin = Vec3::new(0.0, 0.0, 5.0);
    let voxel = 0.5;
    let mut points = Vec::new();
    for yi in -120..=120 {
        let y = yi as f64 * voxel;
        if (6.0..=10.0).contains(&y) {
            continue;
        }
        for zi in 0..30 {
            points.push(Vec3::new(20.0, y, zi as f64 * voxel));
        }
    }
    let mut map = OccupancyMap::new(voxel);
    map.integrate_cloud(&PointCloud::new(origin, points), 1.0);
    let base = PlannerMap::export(&map, &ExportConfig::new(voxel, 1e9, origin));
    let start = Vec3::new(0.0, 0.0, 5.0);
    let goal = Vec3::new(140.0, 0.0, 5.0);
    let bounds = Aabb::new(Vec3::new(-5.0, -75.0, 1.0), Vec3::new(155.0, 75.0, 28.0));

    // --- Scratch reuse: steady-state allocation -----------------------
    // Repeated plans against one scratch: every buffer reaches capacity
    // during warm-up, after which grow_events stays flat (the zero-
    // steady-state-allocation contract the planner tests lock).
    let mut scratch = PlannerScratch::new();
    let mut checker = CollisionChecker::new(base, 0.45, 0.5);
    let reps = 12u64;
    let mut warmup_grow = 0u64;
    for seed in 0..reps {
        let planner = RrtStar::new(RrtConfig {
            seed,
            max_samples: 6_000,
            ..RrtConfig::default()
        });
        let _ = planner.plan_with_scratch(&mut checker, start, goal, &bounds, &mut scratch);
        if seed == 0 {
            warmup_grow = scratch.grow_events();
        }
    }
    let steady_grow = scratch.grow_events() - warmup_grow;
    let footprint = scratch.footprint();
    println!(
        "scratch   {reps} plans: {warmup_grow} grow event(s) on the first, \
         {steady_grow} over the remaining {}  (footprint {footprint} elems)\n",
        reps - 1
    );

    // --- The shared scaling row for the BENCH trajectory diff ---------
    let peer_rows = peer_hazard_query_rows();
    for (peers, boxes, ns_per_query, blocked) in &peer_rows {
        println!(
            "peer hazard  K={peers}  {boxes} boxes  {ns_per_query:.0} ns/query  ({blocked} blocked)"
        );
    }

    // Machine-readable trajectory for CI and the roadmap.
    let mut w = roborun_trace::JsonWriter::new();
    w.begin_object();
    w.key("bench");
    w.string("planner_scratch");
    w.key("host_cores");
    w.uint(cores as u64);
    w.key("scratch_reuse");
    w.begin_inline_object();
    w.key("plans");
    w.uint(reps);
    w.key("warmup_grow_events");
    w.uint(warmup_grow);
    w.key("steady_grow_events");
    w.uint(steady_grow);
    w.key("footprint_elems");
    w.uint(footprint as u64);
    w.end();
    write_peer_hazard_rows(&mut w, &peer_rows);
    w.end();

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_10.json");
    std::fs::write(path, w.finish()).expect("write BENCH_10.json");
    println!("\nwrote {path}\n");
}

/// BENCH-trajectory diff: discovers every committed `BENCH_<n>.json`
/// baseline at the repo root, treats the highest generation as current,
/// and compares every shared cost key (leaves whose name carries a
/// `ns`/`ms`/`s`/`seconds` unit segment, matched by JSON path) against
/// each earlier baseline, failing the run on a more-than-2x regression.
/// Throughputs and identities (`missions_per_sec`, `peers`, `host_cores`)
/// anchor the paths but are not compared. New bench generations join the
/// diff automatically — no per-generation edits here.
fn trajectory() {
    use roborun_trace::JsonValue;
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut generations: Vec<u64> = std::fs::read_dir(root)
        .expect("repo root readable")
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            let n = name.strip_prefix("BENCH_")?.strip_suffix(".json")?;
            n.parse().ok()
        })
        .collect();
    generations.sort_unstable();
    let Some(&newest) = generations.last() else {
        println!("no BENCH_<n>.json baseline at the repo root — run the newest bench first\n");
        std::process::exit(1);
    };
    println!("## BENCH trajectory — shared cost keys, BENCH_{newest} vs every earlier baseline\n");
    let load = |n: u64| -> JsonValue {
        let text = std::fs::read_to_string(format!("{root}/BENCH_{n}.json"))
            .expect("baseline listed by read_dir");
        JsonValue::parse(&text).unwrap_or_else(|e| panic!("BENCH_{n}.json: {e}"))
    };
    let current_costs = cost_leaves(&load(newest));
    let mut regressions = Vec::new();
    for &n in generations.iter().rev().skip(1) {
        let name = format!("BENCH_{n}.json");
        let previous_costs = cost_leaves(&load(n));
        let mut compared = 0usize;
        for (path, new_value) in &current_costs {
            let Some((_, old_value)) = previous_costs.iter().find(|(p, _)| p == path) else {
                continue;
            };
            compared += 1;
            let ratio = new_value / old_value.max(1e-12);
            let verdict = if ratio > 2.0 { "REGRESSION" } else { "ok" };
            println!("{name}  {path}  {old_value:.1} -> {new_value:.1}  ({ratio:.2}x)  {verdict}");
            if ratio > 2.0 {
                regressions.push(format!("{name} {path} {ratio:.2}x"));
            }
        }
        println!("({compared} shared cost key(s) against {name})\n");
    }
    if !regressions.is_empty() {
        println!("trajectory regressions (> 2x): {}", regressions.join(", "));
        std::process::exit(1);
    }
    println!("no shared cost key regressed by more than 2x\n");
}

/// Flattens a parsed BENCH file into `(path, value)` cost leaves: number
/// leaves whose key name carries a time unit as an underscore-separated
/// segment (`ns_per_query`, `k64_ms`, `sweep_seconds`, `exact_s`), so
/// counts like `missions` or rates like `missions_per_sec` stay out.
fn cost_leaves(value: &roborun_trace::JsonValue) -> Vec<(String, f64)> {
    use roborun_trace::JsonValue;
    fn is_cost_key(key: &str) -> bool {
        key.split('_')
            .any(|seg| matches!(seg, "ns" | "ms" | "s" | "seconds"))
    }
    fn walk(value: &JsonValue, path: &str, out: &mut Vec<(String, f64)>) {
        match value {
            JsonValue::Object(members) => {
                for (key, child) in members {
                    walk(child, &format!("{path}/{key}"), out);
                }
            }
            JsonValue::Array(items) => {
                for (i, child) in items.iter().enumerate() {
                    walk(child, &format!("{path}/{i}"), out);
                }
            }
            JsonValue::Number(n) => {
                let key = path.rsplit('/').next().unwrap_or(path);
                if is_cost_key(key) {
                    out.push((path.to_string(), *n));
                }
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(value, "", &mut out);
    out
}

/// The robustness evaluation: every deterministic fault scenario family,
/// fault-oblivious versus degradation-aware, as a CSV series.
fn fault_sweep() {
    use roborun_mission::sweep::run_fault_sweep;
    use roborun_mission::FaultSweepConfig;
    println!("## Fault sweep — fault-oblivious vs degradation-aware\n");
    let rows = run_fault_sweep(&FaultSweepConfig::quick(41));
    println!("{}", report::fault_csv(&rows));
    println!(
        "(the fault-oblivious baseline deadlocks or collides in every family;\n\
         the degradation-aware runtime completes or safe-stops, never colliding)\n"
    );
}

/// Ablation (not a paper figure): freeze each knob family at its static
/// Table II value while the rest keep adapting, and measure what each
/// family contributes to the mission-level gains.
fn ablation_knobs(full: bool) {
    use roborun_core::KnobAblation;
    println!("## Ablation — per-knob contribution (frozen knobs keep their Table II values)\n");
    let difficulty = if full {
        DifficultyConfig::mid()
    } else {
        DifficultyConfig {
            goal_distance: 200.0,
            ..DifficultyConfig::mid()
        }
    };
    let env = EnvironmentGenerator::new(difficulty).generate(29);
    let variants: Vec<(String, KnobAblation)> = if full {
        KnobAblation::catalog()
    } else {
        KnobAblation::catalog().into_iter().take(4).collect()
    };
    let mut rows = Vec::new();
    for (name, ablation) in variants {
        let config = MissionConfig {
            ablation,
            max_decisions: if full { 6_000 } else { 2_500 },
            max_mission_time: if full { 8_000.0 } else { 4_000.0 },
            ..MissionConfig::new(RuntimeMode::SpatialAware)
        };
        let result = MissionRunner::new(config).run(&env);
        rows.push(vec![
            name,
            format!("{}", ablation.frozen_count()),
            format!("{:.1}", result.metrics.mission_time),
            format!("{:.2}", result.metrics.mean_velocity),
            format!("{:.0}%", result.metrics.mean_cpu_utilization * 100.0),
            format!("{:.2}", result.metrics.median_latency),
            format!(
                "{}",
                result.metrics.reached_goal && !result.metrics.collided
            ),
        ]);
    }
    println!(
        "{}",
        report::format_table(
            &[
                "frozen knobs",
                "count",
                "mission time (s)",
                "velocity (m/s)",
                "CPU",
                "median latency (s)",
                "success"
            ],
            &rows
        )
    );
    println!(
        "(freezing precision costs the most because precision drives the voxel count\n\
         cubically; freezing everything reproduces the static knob assignment while\n\
         keeping the dynamic deadline)\n"
    );
}

/// Extra experiment: what the freed-up CPU buys. Replays each design's CPU
/// profile through the cognitive co-task scheduler (semantic labeling,
/// gesture detection, object tracking).
fn cotask(full: bool) {
    use roborun_cognitive::{
        intervals_from_telemetry, CoTaskComparison, CognitiveTask, HeadroomScheduler,
        SchedulerConfig,
    };
    println!("## Co-task throughput — what the 36% CPU reduction buys\n");
    let difficulty = if full {
        DifficultyConfig::mid()
    } else {
        DifficultyConfig {
            goal_distance: 200.0,
            ..DifficultyConfig::mid()
        }
    };
    let env = EnvironmentGenerator::new(difficulty).generate(17);
    let scheduler =
        HeadroomScheduler::new(SchedulerConfig::default(), CognitiveTask::standard_mix());
    let mut reports = Vec::new();
    for (label, mode) in [
        ("spatial-aware", RuntimeMode::SpatialAware),
        ("spatial-oblivious", RuntimeMode::SpatialOblivious),
    ] {
        let config = MissionConfig {
            max_decisions: if full { 8_000 } else { 4_000 },
            max_mission_time: if full { 10_000.0 } else { 5_000.0 },
            ..MissionConfig::new(mode)
        };
        let min_epoch = config.min_epoch;
        let result = MissionRunner::new(config).run(&env);
        let report = scheduler.run(&intervals_from_telemetry(&result.telemetry, min_epoch));
        println!(
            "### {label} (nav CPU {:.0}%, mission {:.0} s)\n{}",
            result.metrics.mean_cpu_utilization * 100.0,
            result.metrics.mission_time,
            report.to_table()
        );
        reports.push(report);
    }
    let comparison = CoTaskComparison::between(
        "spatial-aware",
        &reports[0],
        "spatial-oblivious",
        &reports[1],
    );
    println!(
        "attainment ratio (aware/oblivious): {:.2}x   throughput ratio: {:.2}x\n",
        comparison.attainment_ratio, comparison.throughput_ratio
    );
}

/// Extra experiment: the mission run as a middleware node graph, with the
/// communication term measured from real per-topic traffic.
fn node_graph(full: bool) {
    use roborun_mission::{NodePipeline, NodePipelineConfig};
    println!("## Node-graph pipeline — measured communication and topology\n");
    let difficulty = if full {
        DifficultyConfig::mid()
    } else {
        DifficultyConfig {
            goal_distance: 200.0,
            ..DifficultyConfig::mid()
        }
    };
    let env = EnvironmentGenerator::new(difficulty).generate(11);
    for (label, mode) in [
        ("spatial-aware", RuntimeMode::SpatialAware),
        ("spatial-oblivious", RuntimeMode::SpatialOblivious),
    ] {
        let mut config = NodePipelineConfig::new(mode);
        config.mission.max_decisions = if full { 8_000 } else { 4_000 };
        config.mission.max_mission_time = if full { 10_000.0 } else { 5_000.0 };
        let result = NodePipeline::new(config).run(&env);
        let comm_mean: f64 = result.comm_per_decision.iter().sum::<f64>()
            / result.comm_per_decision.len().max(1) as f64;
        println!(
            "### {label}: mission {:.0} s, velocity {:.2} m/s, mean comm/decision {:.1} ms",
            result.mission.metrics.mission_time,
            result.mission.metrics.mean_velocity,
            comm_mean * 1e3
        );
        println!("{}", result.graph.to_table());
    }
}

/// Extra experiment: robustness under degraded sensing (fog, dropouts),
/// audited by the safety monitor.
fn faults(full: bool) {
    use roborun_core::SafetyReport;
    use roborun_sim::FaultConfig;
    println!("## Fault injection — degraded sensing, same governor\n");
    let difficulty = if full {
        DifficultyConfig::mid()
    } else {
        DifficultyConfig {
            goal_distance: 200.0,
            ..DifficultyConfig::mid()
        }
    };
    let env = EnvironmentGenerator::new(difficulty).generate(21);
    let mut rows = Vec::new();
    for (label, faults) in [
        ("healthy", FaultConfig::healthy()),
        ("fog 12 m", FaultConfig::fog(12.0)),
        ("fog 6 m", FaultConfig::fog(6.0)),
        ("flaky sensors", FaultConfig::flaky_sensors(0.1, 0.3)),
    ] {
        let config = MissionConfig {
            faults,
            max_decisions: if full { 8_000 } else { 4_000 },
            max_mission_time: if full { 10_000.0 } else { 5_000.0 },
            ..MissionConfig::new(RuntimeMode::SpatialAware)
        };
        let result = MissionRunner::new(config).run(&env);
        let safety = SafetyReport::from_telemetry(&result.telemetry);
        rows.push(vec![
            label.to_string(),
            format!("{:.1}", result.metrics.mission_time),
            format!("{:.2}", result.metrics.mean_velocity),
            format!("{:.1}%", safety.velocity_violation_rate() * 100.0),
            format!("{}", result.metrics.reached_goal),
            format!("{}", result.metrics.collided),
        ]);
    }
    println!(
        "{}",
        report::format_table(
            &[
                "sensing",
                "mission time (s)",
                "velocity (m/s)",
                "budget violations",
                "reached goal",
                "collided"
            ],
            &rows
        )
    );
    println!(
        "(fog caps the profiled visibility, so the deadline equation shortens the budget\n\
         and the governor trades velocity for safety rather than colliding)\n"
    );
}

/// Ablation (not a paper figure): how much the waypoint-aware Algorithm 1
/// budget matters compared to using only the instantaneous Eq. 1 budget.
fn ablation(full: bool) {
    println!("## Ablation — Algorithm 1 (waypoint-aware budget) vs plain Eq. 1\n");
    let difficulty = if full {
        DifficultyConfig::mid()
    } else {
        DifficultyConfig {
            goal_distance: 240.0,
            ..DifficultyConfig::mid()
        }
    };
    let env = EnvironmentGenerator::new(difficulty).generate(29);
    let mut rows = Vec::new();
    for (name, waypoint_budgeting) in [
        ("Algorithm 1 (paper)", true),
        ("Eq. 1 only (ablated)", false),
    ] {
        let config = MissionConfig {
            waypoint_budgeting,
            max_decisions: if full { 6_000 } else { 2_500 },
            ..MissionConfig::new(RuntimeMode::SpatialAware)
        };
        let result = MissionRunner::new(config).run(&env);
        rows.push(vec![
            name.to_string(),
            format!("{:.1}", result.metrics.mission_time),
            format!("{:.2}", result.metrics.mean_velocity),
            format!("{:.1}%", result.telemetry.deadline_hit_rate() * 100.0),
            format!(
                "{}",
                result.metrics.reached_goal && !result.metrics.collided
            ),
        ]);
    }
    println!(
        "{}",
        report::format_table(
            &[
                "budgeting",
                "mission time (s)",
                "velocity (m/s)",
                "deadline hit rate",
                "success"
            ],
            &rows
        )
    );
    println!(
        "(the ablated governor trusts the instantaneous visibility even when the planned\n\
         trajectory dives into congestion, so it tends to miss more deadlines)\n"
    );
}

// --------------------------------------------------------------------- tables

fn table2() {
    println!("## Table II — knob values (static baseline vs dynamic ranges)\n");
    let ranges = KnobRanges::table_ii();
    let s = KnobSettings::static_baseline();
    let rows = vec![
        vec![
            "point cloud precision (m)".to_string(),
            format!("{}", s.point_cloud_precision),
            format!("[{} .. {}]", ranges.precision_min, ranges.precision_max),
        ],
        vec![
            "octomap to planner precision (m)".to_string(),
            format!("{}", s.map_to_planner_precision),
            format!("[{} .. {}]", ranges.precision_min, ranges.precision_max),
        ],
        vec![
            "octomap volume (m^3)".to_string(),
            format!("{}", s.octomap_volume),
            format!("[0 .. {}]", ranges.octomap_volume_max),
        ],
        vec![
            "octomap to planner volume (m^3)".to_string(),
            format!("{}", s.map_to_planner_volume),
            format!("[0 .. {}]", ranges.map_to_planner_volume_max),
        ],
        vec![
            "planner volume (m^3)".to_string(),
            format!("{}", s.planner_volume),
            format!("[0 .. {}]", ranges.planner_volume_max),
        ],
    ];
    println!(
        "{}",
        report::format_table(&["knob", "static", "dynamic"], &rows)
    );
    println!(
        "precision lattice searched by the solver: {:?}\n",
        ranges.precision_lattice()
    );
}

fn table1() {
    println!("## Table I — variables collected by the profilers\n");
    let rows = vec![
        vec![
            "gap between obstacles".into(),
            "point cloud".into(),
            "precision".into(),
        ],
        vec![
            "closest obstacle, closest unknown".into(),
            "point cloud, octomap, smoother".into(),
            "precision, volume, deadline".into(),
        ],
        vec![
            "sensor, map volume".into(),
            "point cloud, octomap".into(),
            "volume".into(),
        ],
        vec![
            "velocity, position".into(),
            "sensors".into(),
            "deadline".into(),
        ],
        vec!["trajectory".into(), "smoother".into(), "deadline".into()],
    ];
    println!(
        "{}",
        report::format_table(&["variable profiled", "pipeline stage", "used for"], &rows)
    );
    // Show one concrete profile so the mapping to code is visible.
    let open = SpatialProfile::open_space(2.5, 40.0);
    let tight = SpatialProfile::congested(0.6, 0.8, 2.0);
    println!(
        "example profile (open sky):     gap_min {:.1} m, closest obstacle {:.1} m, visibility {:.1} m",
        open.gap_min, open.closest_obstacle, open.visibility
    );
    println!(
        "example profile (tight aisle):  gap_min {:.1} m, closest obstacle {:.1} m, visibility {:.1} m\n",
        tight.gap_min, tight.closest_obstacle, tight.visibility
    );
}

fn fit() {
    println!("## Eq. 2 and Eq. 4 model fits\n");
    // Eq. 2: fit the stopping model from synthetic calibration flights.
    let truth = StoppingModel::paper_default();
    let samples: Vec<(f64, f64)> = (1..=24)
        .map(|i| {
            let v = i as f64 * 0.33;
            (v, truth.stopping_distance(v))
        })
        .collect();
    let fitted = StoppingModel::fit(&samples).expect("stopping fit");
    println!(
        "stopping model d_stop(v) = {:.3} v^2 + {:.3} v + {:.3}   (MSE {:.2e}, paper reports 2% MSE)",
        fitted.a,
        fitted.b,
        fitted.c,
        fitted.mse(&samples)
    );

    // Eq. 4: fit each governed stage from a profiled precision/volume grid.
    let sim = ComputeLatencyModel::calibrated();
    for (name, coeffs) in [
        ("perception (octomap)", sim.perception),
        ("perception-to-planning", sim.perception_to_planning),
        ("planning", sim.planning),
    ] {
        let mut samples = Vec::new();
        for &p in &KnobRanges::table_ii().precision_lattice() {
            for v in [5_000.0, 20_000.0, 46_000.0, 80_000.0, 150_000.0, 400_000.0] {
                samples.push(LatencySample {
                    precision: p,
                    volume: v,
                    latency: coeffs.latency(p, v),
                });
            }
        }
        let (fitted, rel_rmse) = PipelineLatencyModel::fit_stage(&samples).expect("stage fit");
        println!(
            "{name:<24} q = [{:.3e}, {:.3e}, {:.3e}, 1.0]   relative RMSE {:.2}% (paper: <8% MSE)",
            fitted.q0,
            fitted.q1,
            fitted.q2,
            rel_rmse * 100.0
        );
    }
    println!();
}

// --------------------------------------------------------------------- fig 2

fn fig2a() {
    println!("## Figure 2a — processing latency vs volume for several precisions (CSV)\n");
    let sim = ComputeLatencyModel::calibrated();
    let precisions = [0.3, 0.6, 1.2, 2.4];
    let mut rows = Vec::new();
    for i in 0..=10 {
        let volume = i as f64 * 6_000.0;
        let mut row = vec![volume];
        for &p in &precisions {
            row.push(sim.stage_latency(PipelineStage::Perception, p, volume));
        }
        rows.push(row);
    }
    println!(
        "{}",
        report::format_csv(
            &[
                "volume_m3",
                "lat_p0.3_s",
                "lat_p0.6_s",
                "lat_p1.2_s",
                "lat_p2.4_s"
            ],
            &rows
        )
    );
    println!("(latency doubles with volume and grows ~8x when the voxel size halves)\n");
}

fn fig2b() {
    println!("## Figure 2b — decision deadline vs speed for several visibilities (CSV)\n");
    let budgeter = TimeBudgeter::default();
    let visibilities = [5.0, 10.0, 20.0, 40.0];
    let mut rows = Vec::new();
    for i in 1..=20 {
        let v = i as f64 * 0.5;
        let mut row = vec![v];
        for &d in &visibilities {
            row.push(budgeter.local_budget(v, d));
        }
        rows.push(row);
    }
    println!(
        "{}",
        report::format_csv(
            &[
                "velocity_mps",
                "ddl_vis5_s",
                "ddl_vis10_s",
                "ddl_vis20_s",
                "ddl_vis40_s"
            ],
            &rows
        )
    );
    println!("(the deadline shrinks with speed and grows with visibility)\n");
}

// ----------------------------------------------------- fig 3 / fig 4 missions

fn mission_pair(env: &Environment, max_decisions: usize) -> (MissionResult, MissionResult) {
    let oblivious = MissionRunner::new(MissionConfig {
        max_decisions,
        max_mission_time: 8_000.0,
        ..MissionConfig::new(RuntimeMode::SpatialOblivious)
    })
    .run(env);
    let aware = MissionRunner::new(MissionConfig {
        max_decisions,
        max_mission_time: 8_000.0,
        ..MissionConfig::new(RuntimeMode::SpatialAware)
    })
    .run(env);
    (oblivious, aware)
}

fn fig3(full: bool) {
    println!("## Figure 3 — high-precision mission (package delivery through dense clusters)\n");
    let env = if full {
        Scenario::PackageDelivery.environment(11)
    } else {
        Scenario::PackageDelivery.short_environment(11)
    };
    let (oblivious, aware) = mission_pair(&env, if full { 4_000 } else { 2_000 });
    for (name, result) in [("spatial-oblivious", &oblivious), ("spatial-aware", &aware)] {
        let records = result.telemetry.records();
        let mean = |f: &dyn Fn(&roborun_core::DecisionRecord) -> f64| {
            records.iter().map(f).sum::<f64>() / records.len().max(1) as f64
        };
        let distinct_precisions: std::collections::BTreeSet<u64> = records
            .iter()
            .map(|r| (r.knobs.point_cloud_precision * 100.0) as u64)
            .collect();
        println!(
            "{name:<20} mean precision {:.2} m | mean octomap volume {:>8.0} m^3 | mean latency {:>5.2} s | distinct precision levels used: {}",
            mean(&|r| r.knobs.point_cloud_precision),
            mean(&|r| r.knobs.octomap_volume),
            mean(&|r| r.latency()),
            distinct_precisions.len(),
        );
    }
    println!("\nper-decision series (spatial-aware) — precision/volume/latency (Fig. 3d/e/f):");
    print_series_sample(
        &aware,
        &["time_s", "precision_m", "octomap_volume_m3", "latency_s"],
        |r| {
            vec![
                r.time,
                r.knobs.point_cloud_precision,
                r.knobs.octomap_volume,
                r.latency(),
            ]
        },
    );
    println!("per-decision series (spatial-oblivious) — constant worst case (Fig. 3a/b/c):");
    print_series_sample(
        &oblivious,
        &["time_s", "precision_m", "octomap_volume_m3", "latency_s"],
        |r| {
            vec![
                r.time,
                r.knobs.point_cloud_precision,
                r.knobs.octomap_volume,
                r.latency(),
            ]
        },
    );
}

fn fig4(full: bool) {
    println!("## Figure 4 — high-velocity mission (search and rescue over open terrain)\n");
    let env = if full {
        Scenario::SearchAndRescue.environment(13)
    } else {
        Scenario::SearchAndRescue.short_environment(13)
    };
    let (oblivious, aware) = mission_pair(&env, if full { 5_000 } else { 2_500 });
    for (name, result) in [("spatial-oblivious", &oblivious), ("spatial-aware", &aware)] {
        let records = result.telemetry.records();
        let mean = |f: &dyn Fn(&roborun_core::DecisionRecord) -> f64| {
            records.iter().map(f).sum::<f64>() / records.len().max(1) as f64
        };
        println!(
            "{name:<20} mean velocity {:.2} m/s | mean visibility {:>5.1} m | mean deadline {:>5.2} s | mission time {:>7.1} s",
            mean(&|r| r.commanded_velocity),
            mean(&|r| r.visibility),
            mean(&|r| r.deadline),
            result.metrics.mission_time,
        );
    }
    println!("\nper-decision series (spatial-aware) — velocity/visibility/deadline (Fig. 4d/e/f):");
    print_series_sample(
        &aware,
        &["time_s", "velocity_mps", "visibility_m", "deadline_s"],
        |r| vec![r.time, r.commanded_velocity, r.visibility, r.deadline],
    );
    println!("per-decision series (spatial-oblivious) — constant worst case (Fig. 4a/b/c):");
    print_series_sample(
        &oblivious,
        &["time_s", "velocity_mps", "visibility_m", "deadline_s"],
        |r| vec![r.time, r.commanded_velocity, r.visibility, r.deadline],
    );
}

fn print_series_sample(
    result: &MissionResult,
    header: &[&str],
    row: impl Fn(&roborun_core::DecisionRecord) -> Vec<f64>,
) {
    let records = result.telemetry.records();
    let step = (records.len() / 12).max(1);
    let rows: Vec<Vec<f64>> = records.iter().step_by(step).map(row).collect();
    println!("{}", report::format_csv(header, &rows));
}

// -------------------------------------------- representative mission (V-C)

fn representative_mission(full: bool) -> (Environment, MissionResult, MissionResult) {
    let difficulty = if full {
        DifficultyConfig::mid()
    } else {
        DifficultyConfig {
            goal_distance: 240.0,
            ..DifficultyConfig::mid()
        }
    };
    let env = EnvironmentGenerator::new(difficulty).generate(23);
    let (oblivious, aware) = mission_pair(&env, if full { 6_000 } else { 2_500 });
    (env, oblivious, aware)
}

fn fig9(env: &Environment, oblivious: &MissionResult, aware: &MissionResult) {
    println!("## Figure 9 — representative mission map (congestion heat map + trajectories)\n");
    let map = CongestionMap::build(
        env,
        if env.mission_length() > 500.0 {
            60.0
        } else {
            30.0
        },
    );
    println!("congestion heat map ('#' dense, '+' moderate, '.' sparse):");
    for row in map.to_rows() {
        let line: String = row
            .iter()
            .map(|&v| {
                if v > 0.2 {
                    '#'
                } else if v > 0.05 {
                    '+'
                } else if v > 0.0 {
                    '.'
                } else {
                    ' '
                }
            })
            .collect();
        println!("  |{line}|");
    }
    println!(
        "\ntrajectories: baseline visited {} decision points, RoboRun {} (start {} -> goal {})",
        oblivious.flown_path.len(),
        aware.flown_path.len(),
        env.start(),
        env.goal()
    );
    println!(
        "both reached goal: baseline {}, RoboRun {}\n",
        oblivious.metrics.reached_goal, aware.metrics.reached_goal
    );
}

fn fig5(oblivious: &MissionResult, aware: &MissionResult) {
    println!("## Figure 5 — latency and deadline: static worst case vs dynamic (CSV)\n");
    println!("spatial-aware (latency varies with space, deadline extends when visibility allows):");
    print_series_sample(aware, &["time_s", "latency_s", "deadline_s"], |r| {
        vec![r.time, r.latency(), r.deadline]
    });
    println!("spatial-oblivious (constant latency, constant worst-case deadline):");
    print_series_sample(oblivious, &["time_s", "latency_s", "deadline_s"], |r| {
        vec![r.time, r.latency(), r.deadline]
    });
    let aware_median = aware.telemetry.median_latency().unwrap_or(0.0);
    let oblivious_median = oblivious.telemetry.median_latency().unwrap_or(0.0);
    println!(
        "median latency: baseline {:.2} s vs RoboRun {:.2} s -> {:.1}x reduction (paper reports 11x)\n",
        oblivious_median,
        aware_median,
        oblivious_median / aware_median.max(1e-9)
    );
    println!("latency tail, baseline:");
    println!("{}", report::latency_tail_table(&oblivious.telemetry));
    println!("latency tail, RoboRun (critical path excludes plan-ahead masked time):");
    println!("{}", report::latency_tail_table(&aware.telemetry));
}

fn fig10(oblivious: &MissionResult, aware: &MissionResult) {
    println!("## Figure 10 — representative mission: time, velocity and precision over time\n");
    let rows = vec![
        vec![
            "mission time (s)".to_string(),
            format!("{:.1}", oblivious.metrics.mission_time),
            format!("{:.1}", aware.metrics.mission_time),
            format!(
                "{:.2}x",
                oblivious.metrics.mission_time / aware.metrics.mission_time.max(1e-9)
            ),
        ],
        vec![
            "mission energy (kJ)".to_string(),
            format!("{:.1}", oblivious.metrics.energy_kj),
            format!("{:.1}", aware.metrics.energy_kj),
            format!(
                "{:.2}x",
                oblivious.metrics.energy_kj / aware.metrics.energy_kj.max(1e-9)
            ),
        ],
        vec![
            "mean velocity (m/s)".to_string(),
            format!("{:.2}", oblivious.metrics.mean_velocity),
            format!("{:.2}", aware.metrics.mean_velocity),
            format!(
                "{:.2}x",
                aware.metrics.mean_velocity / oblivious.metrics.mean_velocity.max(1e-9)
            ),
        ],
    ];
    println!(
        "{}",
        report::format_table(&["metric", "baseline", "RoboRun", "ratio"], &rows)
    );
    println!("precision over time, spatial-aware (Fig. 10c) — varies in zones A/C, flat in B:");
    print_series_sample(aware, &["time_s", "precision_m", "zone"], |r| {
        vec![
            r.time,
            r.knobs.point_cloud_precision,
            match r.zone {
                Some('A') => 1.0,
                Some('B') => 2.0,
                Some('C') => 3.0,
                _ => 0.0,
            },
        ]
    });
    for (name, result) in [("baseline", oblivious), ("RoboRun", aware)] {
        let zones = ZoneBreakdown::from_telemetry(&result.telemetry);
        let summary: Vec<String> = zones
            .zones
            .iter()
            .map(|z| {
                format!(
                    "zone {}: {:.2} m/s, precision {:.1} m",
                    z.zone, z.mean_velocity, z.mean_precision
                )
            })
            .collect();
        println!("{name:<10} {}", summary.join(" | "));
    }
    println!();
}

fn fig11(oblivious: &MissionResult, aware: &MissionResult) {
    println!("## Figure 11 — end-to-end latency breakdown\n");
    for (name, result) in [
        ("spatial-aware (RoboRun)", aware),
        ("spatial-oblivious (baseline)", oblivious),
    ] {
        println!("{name} — per-decision breakdown CSV (Fig. 11a):");
        let records = result.telemetry.records();
        let step = (records.len() / 10).max(1);
        let rows: Vec<Vec<f64>> = records
            .iter()
            .step_by(step)
            .map(|r| {
                let b = &r.breakdown;
                vec![
                    r.time,
                    b.point_cloud,
                    b.perception,
                    b.perception_to_planning,
                    b.planning,
                    b.communication,
                    b.runtime_overhead,
                ]
            })
            .collect();
        println!(
            "{}",
            report::format_csv(
                &[
                    "time_s",
                    "point_cloud_s",
                    "octomap_s",
                    "oct_to_plan_s",
                    "planning_s",
                    "comm_s",
                    "runtime_s"
                ],
                &rows
            )
        );
        let zones = ZoneBreakdown::from_telemetry(&result.telemetry);
        println!("normalised stage shares (Fig. 11b):");
        for (stage, share) in &zones.stage_shares {
            if *share > 0.002 {
                println!("  {stage:<20} {:>5.1}%", share * 100.0);
            }
        }
        for z in &zones.zones {
            println!(
                "  zone {} latency spread {:.2} s (mean {:.2} s over {} decisions)",
                z.zone, z.latency_spread, z.mean_latency, z.decisions
            );
        }
        println!();
    }
}

// ----------------------------------------------------------- fig 7 / fig 8

fn sweep(full: bool) -> roborun_mission::SweepResults {
    if full {
        println!("running the full 27-environment sweep (this takes a while)...\n");
        run_sweep(&SweepConfig {
            seed: 7,
            aware: MissionConfig {
                max_decisions: 6_000,
                max_mission_time: 10_000.0,
                ..MissionConfig::new(RuntimeMode::SpatialAware)
            },
            oblivious: MissionConfig {
                max_decisions: 8_000,
                max_mission_time: 10_000.0,
                ..MissionConfig::new(RuntimeMode::SpatialOblivious)
            },
            ..SweepConfig::default()
        })
    } else {
        // Quick mode: the full 3x3 density/spread matrix at a reduced goal
        // distance (plus the three goal distances at mid density/spread so
        // the Fig. 8d sensitivity still has three levels).
        let mut difficulties = Vec::new();
        for &density in &[0.3, 0.45, 0.6] {
            for &spread in &[40.0, 80.0, 120.0] {
                difficulties.push(DifficultyConfig {
                    obstacle_density: density,
                    obstacle_spread: spread,
                    goal_distance: 200.0,
                });
            }
        }
        for &goal in &[150.0, 225.0, 300.0] {
            difficulties.push(DifficultyConfig {
                obstacle_density: 0.45,
                obstacle_spread: 80.0,
                goal_distance: goal,
            });
        }
        println!(
            "running the quick sweep ({} scaled environments)...\n",
            difficulties.len()
        );
        run_sweep(&SweepConfig {
            difficulties,
            seed: 7,
            aware: MissionConfig {
                max_decisions: 2_500,
                ..MissionConfig::new(RuntimeMode::SpatialAware)
            },
            oblivious: MissionConfig {
                max_decisions: 4_000,
                ..MissionConfig::new(RuntimeMode::SpatialOblivious)
            },
            ..SweepConfig::default()
        })
    }
}

fn fig8(results: &roborun_mission::SweepResults) {
    println!("## Figure 8 — sensitivity to environment difficulty\n");
    println!(
        "Fig. 8a evaluation knob values: density {:?}, spread {:?} m, goal distance {:?} m\n",
        [0.3, 0.45, 0.6],
        [40.0, 80.0, 120.0],
        [600.0, 900.0, 1200.0]
    );
    println!("Fig. 8b — obstacle density:");
    println!(
        "{}",
        report::fig8_table("density", &results.sensitivity(|d| d.obstacle_density))
    );
    println!("Fig. 8c — obstacle spread:");
    println!(
        "{}",
        report::fig8_table("spread (m)", &results.sensitivity(|d| d.obstacle_spread))
    );
    println!("Fig. 8d — goal distance:");
    println!(
        "{}",
        report::fig8_table(
            "goal distance (m)",
            &results.sensitivity(|d| d.goal_distance)
        )
    );
    let (a_density, o_density) = results.sensitivity_ratio(|d| d.obstacle_density);
    let (a_spread, o_spread) = results.sensitivity_ratio(|d| d.obstacle_spread);
    let (a_goal, o_goal) = results.sensitivity_ratio(|d| d.goal_distance);
    println!("flight-time ratios (highest / lowest knob value):");
    println!("  density:       RoboRun {a_density:.2}x vs baseline {o_density:.2}x   (paper: 1.5x vs 1.1x)");
    println!("  spread:        RoboRun {a_spread:.2}x vs baseline {o_spread:.2}x   (paper: 1.4x vs 1.1x)");
    println!(
        "  goal distance: RoboRun {a_goal:.2}x vs baseline {o_goal:.2}x   (paper: 1.3x vs 2.0x)"
    );
    println!();
}
