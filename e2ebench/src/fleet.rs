//! The serving workloads: fleet shapes, their offered loads and the
//! closed monitoring loop that drives them.
//!
//! One tick is one monitoring second: [`EventSim::step`] (the simulator
//! with its per-node agents inside), [`Orchestrator::step_report`], the
//! loop's per-app verdicts and scaler samples, then per-app
//! [`ScalingBackend::desired`] and the `EventSim::schedule_*` calls
//! that apply it. The next tick starts only after the previous one has
//! been applied. Every call goes through the crates' public API.

use std::collections::{HashMap, HashSet};

use monitorless::autoscale::backend::{BackendSample, MonitorlessScaler, ScalingBackend};
use monitorless::orchestrator::{Aggregation, InstancePrediction, Orchestrator};
use monitorless_metrics::{InstanceId, NodeId};
use monitorless_obs as obs;
use monitorless_sim::{
    AppId, AppKpi, Cluster, ContainerLimits, EventSim, NodeSpec, ServiceProfile, ServiceRole,
};
use monitorless_std::rng::{Rng, StdRng};
use monitorless_workload::scenario::Scenario;
use monitorless_workload::{LoadProfile, SteppedProfile, TraceProfile};

/// The response-time SLO, milliseconds (paper, Section 4.2.2).
pub const SLO_MS: f64 = 750.0;

/// Span names the benchmark wraps around each layer call of a tick.
pub const TICK: &str = "e2e.tick";
pub const SIM_STEP: &str = "e2e.sim_step";
pub const ORCH_STEP: &str = "e2e.orchestrator_step";
pub const BOOKKEEPING: &str = "e2e.bookkeeping";
pub const PLAN: &str = "e2e.autoscale_plan";
pub const APPLY: &str = "e2e.autoscale_apply";

/// Steady fleet: 100 nodes in placement groups of 10, each group
/// hosting 10 apps of 5 services × 2 replicas — 10 containers per node,
/// 1,000 instances.
const STEADY_NODES: usize = 100;
const STEADY_GROUP: usize = 10;
const STEADY_CONTAINERS_PER_NODE: usize = 10;
const STEADY_REPLICAS: usize = 2;
/// CPU ms per request of the five services of a steady app; the last
/// one is the bottleneck that sets the app's capacity.
const STEADY_SERVICE_CPU_MS: [f64; 5] = [0.25, 0.25, 0.5, 0.5, 2.0];
/// Steady warm-up: enough ticks to fill every rolling window.
const STEADY_WARMUP: usize = 30;
/// Timed ticks of one steady episode.
const STEADY_TICKS: usize = 120;

/// Bake-off service: 20 ms per request at a 2-core limit is ~100 req/s
/// per instance, the rate unit of the hostile scenarios.
const SCALED_CPU_MS: f64 = 20.0;
const SCALED_LIMIT_CORES: f64 = 2.0;

/// Container CPU limit of every steady service, cores.
const STEADY_LIMIT_CORES: f64 = 2.0;

/// Which fleet a serving episode runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// 1,000 fixed instances, no autoscaler, warm windows.
    Steady,
    /// 40 single-service apps on 20 nodes, one `MonitorlessScaler`
    /// each, one hostile scenario each, 900 ticks from cold.
    Burst,
    /// The bake-off cell: one app per hostile scenario on 2 nodes —
    /// the small serving check that follows training.
    Cell,
}

impl Shape {
    fn scaled_size(self) -> (usize, usize) {
        match self {
            Shape::Burst => (40, 20),
            _ => (4, 2),
        }
    }

    /// Ticks run before timing starts.
    pub fn warmup_ticks(self) -> usize {
        match self {
            Shape::Steady => STEADY_WARMUP,
            _ => 0,
        }
    }

    /// Timed ticks of one episode.
    pub fn timed_ticks(self) -> usize {
        match self {
            Shape::Steady => STEADY_TICKS,
            // The quick hostile scenarios all run 900 s.
            _ => Scenario::pack(0, true)[0].duration as usize,
        }
    }
}

/// One service's capacity, for over-provisioning accounting.
#[derive(Debug, Clone)]
struct ServiceCap {
    /// Requests/second one instance sustains at its CPU limit.
    capacity_rps: f64,
    /// Fixed replica count (steady apps; scaled apps count live ones).
    replicas: u64,
}

/// Per-app autoscaling state, as `run_cell` keeps it.
#[derive(Debug)]
struct Scaled {
    backend: MonitorlessScaler,
    min: u32,
    max: u32,
    cold_start: u64,
    /// Round-robin placement cursor.
    next_node: usize,
}

#[derive(Debug)]
struct App {
    id: AppId,
    services: Vec<ServiceCap>,
    scaler: Option<Scaled>,
}

/// Quality and autoscaling outcome of the timed ticks of an episode —
/// a pure function of the model and the input seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Quality {
    /// App-seconds the verdict called saturated that violated the SLO.
    pub tp: u64,
    /// App-seconds called saturated that met the SLO.
    pub fp: u64,
    /// App-seconds that violated the SLO but were called healthy.
    pub fn_: u64,
    /// App-seconds that met the SLO and were called healthy.
    pub tn: u64,
    /// App-seconds violating the SLO, or offered load with no ready
    /// instance (the `run_cell` accounting), summed over apps.
    pub slo_violation_s: u64,
    /// Ready instance-seconds above `ceil(offered / capacity)` per
    /// service, summed over services and apps.
    pub overprovision_inst_s: f64,
    /// Instances scheduled to start.
    pub scale_outs: u64,
    /// Instances scheduled to stop.
    pub scale_ins: u64,
    /// Scale-outs that paid a cold start.
    pub cold_starts: u64,
}

impl Quality {
    /// F1 of the app-level verdict against the SLO (0 without any
    /// positive call or violation).
    pub fn app_f1(&self) -> f64 {
        f1(self.tp, self.fp, self.fn_)
    }
}

/// F1 score from confusion counts.
pub fn f1(tp: u64, fp: u64, fn_: u64) -> f64 {
    let denom = 2 * tp + fp + fn_;
    if denom == 0 {
        0.0
    } else {
        2.0 * tp as f64 / denom as f64
    }
}

/// Correctness violations found while running; any one fails the run.
#[derive(Debug, Default)]
pub struct Checks {
    /// First violations, in the order found.
    pub messages: Vec<String>,
    /// Total violations.
    pub count: u64,
}

impl Checks {
    /// Records one violation.
    pub fn fail(&mut self, msg: String) {
        self.count += 1;
        if self.messages.len() < 20 {
            self.messages.push(msg);
        }
    }
}

/// What one timed tick measured.
#[derive(Debug, Clone, Copy)]
pub struct TickTime {
    /// Wall seconds of the closed-loop tick (infinite when it failed).
    pub wall_s: f64,
    /// Live instances the tick served.
    pub live: usize,
    /// Instances the orchestrator saw for the first time.
    pub new_windows: u64,
}

/// A running fleet plus the loop's per-tick scratch, reused across
/// ticks so the loop's own bookkeeping stays linear in the live
/// instances.
#[derive(Debug)]
pub struct Fleet {
    sim: EventSim,
    apps: Vec<App>,
    nodes: usize,
    threshold: f64,
    /// Prediction index of each live instance, rebuilt once per tick.
    index: HashMap<InstanceId, usize>,
    /// Instances the orchestrator has already opened a window for.
    seen: HashSet<InstanceId>,
    app_preds: Vec<InstancePrediction>,
    /// This tick's KPI per app (registration order).
    kpis: Vec<AppKpi>,
    /// This tick's `(instance, cpu %, mem %)`, sorted by instance.
    utils: Vec<(InstanceId, f64, f64)>,
    verdicts: Vec<u8>,
    samples: Vec<BackendSample>,
    desired: Vec<u32>,
    victims: Vec<InstanceId>,
}

/// Builds the fleet of `shape` with inputs derived from `seed`.
pub fn build(shape: Shape, seed: u64, threshold: f64) -> Fleet {
    let (sim, apps, nodes) = match shape {
        Shape::Steady => build_steady(seed),
        Shape::Burst | Shape::Cell => build_scaled(shape, seed, threshold),
    };
    let n_apps = apps.len();
    Fleet {
        sim,
        apps,
        nodes,
        threshold,
        index: HashMap::new(),
        seen: HashSet::new(),
        app_preds: Vec::new(),
        kpis: vec![AppKpi::default(); n_apps],
        utils: Vec::new(),
        verdicts: vec![0; n_apps],
        samples: Vec::with_capacity(n_apps),
        desired: Vec::with_capacity(n_apps),
        victims: Vec::new(),
    }
}

fn build_steady(seed: u64) -> (EventSim, Vec<App>, usize) {
    let specs: Vec<NodeSpec> = (0..STEADY_NODES)
        .map(|i| match i % 3 {
            0 => NodeSpec::m2(),
            1 => NodeSpec::m3(),
            _ => NodeSpec::training_server(),
        })
        .collect();
    let mut cluster = Cluster::new(specs, seed);
    let limits = ContainerLimits::cpu(STEADY_LIMIT_CORES);
    let apps_per_group =
        STEADY_GROUP * STEADY_CONTAINERS_PER_NODE / (STEADY_SERVICE_CPU_MS.len() * STEADY_REPLICAS);
    let mut apps = Vec::new();
    for g in 0..STEADY_NODES / STEADY_GROUP {
        let base = g * STEADY_GROUP;
        for a in 0..apps_per_group {
            let id = cluster.add_app(&format!("g{g}a{a}"));
            // Offset placement per app, so every node of the group
            // hosts one container of every app.
            let mut rr = a;
            let mut services = Vec::new();
            for (s, &cpu_ms) in STEADY_SERVICE_CPU_MS.iter().enumerate() {
                let name = format!("svc{s}");
                let profile = ServiceProfile::test_cpu_bound(&name, cpu_ms);
                services.push(ServiceCap {
                    capacity_rps: profile.cpu_capacity_rps(STEADY_LIMIT_CORES),
                    replicas: STEADY_REPLICAS as u64,
                });
                let node = |rr: usize| NodeId((base + rr % STEADY_GROUP) as u32);
                cluster.add_service(
                    id,
                    ServiceRole {
                        name: name.clone(),
                        profile,
                        fanout: 1.0,
                        limits,
                    },
                    node(rr),
                );
                rr += 1;
                for _ in 1..STEADY_REPLICAS {
                    cluster
                        .scale_out(id, &name, node(rr))
                        .expect("service was just added");
                    rr += 1;
                }
            }
            apps.push(App {
                id,
                services,
                scaler: None,
            });
        }
    }
    let mut sim = EventSim::new(cluster);
    sim.set_n_jobs(1);
    for (i, app) in apps.iter().enumerate() {
        let capacity = app
            .services
            .iter()
            .map(|s| s.capacity_rps * s.replicas as f64)
            .fold(f64::INFINITY, f64::min);
        sim.add_workload(app.id, steady_load(seed, i, capacity));
    }
    (sim, apps, STEADY_NODES)
}

/// The loads `table_sim` uses — synthesized cluster traces on even
/// apps, stepped profiles on odd ones — sized against the app's
/// bottleneck capacity so that a minority of app-seconds saturate:
/// traces idle near half capacity with seeded bursts above it, and one
/// stepped level in three overloads.
fn steady_load(seed: u64, app: usize, capacity: f64) -> Box<dyn LoadProfile> {
    let salt = seed ^ (app as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut rng = StdRng::seed_from_u64(salt);
    if app.is_multiple_of(2) {
        Box::new(TraceProfile::synthesize(salt, 600, 15, 0.55 * capacity, 1.6 * capacity))
    } else {
        const LEVELS: [f64; 9] = [0.35, 0.7, 1.25, 0.55, 0.9, 1.15, 0.45, 0.8, 1.3];
        let shift = rng.gen_range(0..LEVELS.len());
        let scale = rng.gen_range(0.9..1.1);
        let levels = (0..LEVELS.len())
            .map(|k| LEVELS[(k + shift) % LEVELS.len()] * scale * capacity)
            .collect();
        Box::new(SteppedProfile::new(levels, rng.gen_range(20u64..45)))
    }
}

fn build_scaled(shape: Shape, seed: u64, threshold: f64) -> (EventSim, Vec<App>, usize) {
    let (n_apps, nodes) = shape.scaled_size();
    let specs = (0..nodes).map(|_| NodeSpec::training_server()).collect();
    let mut cluster = Cluster::new(specs, seed);
    let profile = ServiceProfile::test_cpu_bound("web", SCALED_CPU_MS);
    let capacity_rps = profile.cpu_capacity_rps(SCALED_LIMIT_CORES);
    let mut apps = Vec::new();
    let mut scenarios = Vec::new();
    for i in 0..n_apps {
        let id = cluster.add_app(&format!("app{i}"));
        cluster.add_service(
            id,
            ServiceRole {
                name: "web".into(),
                profile: profile.clone(),
                fanout: 1.0,
                limits: ContainerLimits::cpu(SCALED_LIMIT_CORES),
            },
            NodeId((i % nodes) as u32),
        );
        let pack = Scenario::pack(seed ^ i as u64, true);
        let scenario = pack[i % pack.len()].clone();
        apps.push(App {
            id,
            services: vec![ServiceCap {
                capacity_rps,
                replicas: 0,
            }],
            scaler: Some(Scaled {
                backend: MonitorlessScaler::with_threshold(threshold),
                min: scenario.min_instances,
                max: scenario.max_instances,
                cold_start: scenario.cold_start_s,
                next_node: i + 1,
            }),
        });
        scenarios.push(scenario);
    }
    let mut sim = EventSim::new(cluster);
    sim.set_n_jobs(1);
    for (app, scenario) in apps.iter().zip(&scenarios) {
        sim.add_workload(app.id, scenario.profile_box());
    }
    (sim, apps, nodes)
}

impl Fleet {
    /// Nodes in the fleet.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Applications in the fleet.
    pub fn apps(&self) -> usize {
        self.apps.len()
    }

    /// Applications driven by an autoscaler.
    pub fn scaled_apps(&self) -> usize {
        self.apps.iter().filter(|a| a.scaler.is_some()).count()
    }

    /// Containers currently running.
    pub fn containers(&self) -> usize {
        self.sim.cluster().container_count()
    }

    /// `(cached container-seconds, evaluated container-seconds)` so far.
    pub fn cache_counts(&self) -> (u64, u64) {
        let s = self.sim.cluster_stats();
        (s.cached_ticks, s.container_evals)
    }

    /// Scale-outs that paid a cold start so far.
    pub fn cold_starts(&self) -> u64 {
        self.sim.stats().cold_starts
    }

    /// Runs one closed-loop tick. `quality`, when given, accumulates
    /// the tick's outcome; `twin`, when given, is fed the same
    /// observations through `step_legacy` and must agree bit for bit.
    /// Checks and accounting run after the tick's clock has stopped.
    pub fn tick(
        &mut self,
        orch: &mut Orchestrator,
        twin: Option<&mut Orchestrator>,
        quality: Option<&mut Quality>,
        checks: &mut Checks,
    ) -> TickTime {
        let start = std::time::Instant::now();
        let tick_span = obs::Span::enter(TICK);
        let sim_span = obs::Span::enter(SIM_STEP);
        let report = self.sim.step();
        drop(sim_span);
        let orch_span = obs::Span::enter(ORCH_STEP);
        let stepped = orch.step_report(report);
        drop(orch_span);
        let time = report.time;
        let predictions = match stepped {
            Ok(p) => p,
            Err(e) => {
                checks.fail(format!("t={time}: orchestrator step failed: {e}"));
                return TickTime {
                    wall_s: f64::INFINITY,
                    live: report.containers.len(),
                    new_windows: 0,
                };
            }
        };

        let bookkeeping_span = obs::Span::enter(BOOKKEEPING);
        self.index.clear();
        for (k, p) in predictions.iter().enumerate() {
            self.index.insert(p.instance, k);
        }
        for (slot, (_, kpi)) in self.kpis.iter_mut().zip(&report.kpis) {
            *slot = *kpi;
        }
        let scaled = self.apps.iter().any(|a| a.scaler.is_some());
        if scaled {
            self.utils.clear();
            self.utils
                .extend(report.containers.iter().map(|(id, tick)| {
                    (*id, tick.signals.cpu_util * 100.0, tick.signals.mem_util * 100.0)
                }));
        }
        // Checks that need the report are linear and cheap; kept here
        // so the report's borrow of the simulator can end.
        let live = report.containers.len();
        let covered = predictions.len() == live
            && self.index.len() == live
            && report
                .containers
                .iter()
                .all(|(id, _)| self.index.contains_key(id));
        let kpis_aligned = report.kpis.len() == self.apps.len()
            && report
                .kpis
                .iter()
                .zip(&self.apps)
                .all(|((id, _), app)| *id == app.id);
        let twin_result =
            twin.map(|twin| twin.step_legacy(&report.observations).map(<[_]>::to_vec));
        self.samples.clear();
        for (i, app) in self.apps.iter().enumerate() {
            let instances = self.sim.cluster().app(app.id).instances();
            self.app_preds.clear();
            let mut saturation = 0.0f64;
            for inst in instances {
                if let Some(&k) = self.index.get(inst) {
                    let p = predictions[k];
                    saturation = saturation.max(p.probability);
                    self.app_preds.push(p);
                }
            }
            self.verdicts[i] =
                Orchestrator::application_prediction(&self.app_preds, instances, Aggregation::Or);
            if app.scaler.is_some() {
                let (mut cpu, mut mem) = (0.0, 0.0);
                let mut seen = 0u32;
                for inst in instances {
                    if let Ok(k) = self.utils.binary_search_by_key(inst, |u| u.0) {
                        cpu += self.utils[k].1;
                        mem += self.utils[k].2;
                        seen += 1;
                    }
                }
                if seen > 0 {
                    cpu /= f64::from(seen);
                    mem /= f64::from(seen);
                }
                self.samples.push(BackendSample {
                    t: time,
                    ready: instances.len() as u32,
                    pending: self.sim.pending_count(app.id) as u32,
                    cpu_util_pct: cpu,
                    mem_util_pct: mem,
                    offered_rps: self.kpis[i].offered_rps,
                    saturation,
                });
            }
        }
        drop(bookkeeping_span);

        let (mut outs, mut ins) = (0u64, 0u64);
        if scaled {
            let plan_span = obs::Span::enter(PLAN);
            self.desired.clear();
            let scalers = self.apps.iter_mut().filter_map(|a| a.scaler.as_mut());
            for (scaler, sample) in scalers.zip(&self.samples) {
                let mut want = scaler.backend.desired(sample).clamp(scaler.min, scaler.max);
                // The activator rule of `run_cell`: offered load at zero
                // requested capacity always starts one instance.
                if sample.total() == 0 && sample.offered_rps > 0.0 {
                    want = want.max(1);
                }
                self.desired.push(want);
            }
            drop(plan_span);

            let apply_span = obs::Span::enter(APPLY);
            let now = self.sim.time();
            let scalers = self.apps.iter_mut().filter_map(|a| {
                let id = a.id;
                a.scaler.as_mut().map(|s| (id, s))
            });
            for (((id, scaler), sample), &want) in scalers.zip(&self.samples).zip(&self.desired) {
                let total = sample.total();
                if want > total {
                    for _ in 0..want - total {
                        let node = NodeId((scaler.next_node % self.nodes) as u32);
                        scaler.next_node += 1;
                        self.sim
                            .schedule_scale_out_cold(now, scaler.cold_start, id, "web", node);
                    }
                    outs += u64::from(want - total);
                } else if want < sample.ready && sample.pending == 0 {
                    let n = (sample.ready - want) as usize;
                    self.victims.clear();
                    // Newest instances first (creation order).
                    let instances = self.sim.cluster().app(id).instances();
                    self.victims.extend(instances.iter().rev().take(n));
                    for &inst in &self.victims {
                        if scaler.min == 0 {
                            self.sim.schedule_scale_in_to_zero(now, inst);
                        } else {
                            self.sim.schedule_scale_in(now, inst);
                        }
                    }
                    ins += n as u64;
                }
            }
            drop(apply_span);
        }
        drop(tick_span);
        let wall_s = start.elapsed().as_secs_f64();

        // --- checks and accounting, off the clock ---
        if !covered {
            checks.fail(format!(
                "t={time}: {} predictions for {live} live instances",
                predictions.len()
            ));
        }
        if !kpis_aligned {
            checks.fail(format!("t={time}: KPIs not in app registration order"));
        }
        for p in predictions {
            if !(p.probability.is_finite() && (0.0..=1.0).contains(&p.probability)) {
                checks.fail(format!(
                    "t={time}: instance {} probability {}",
                    p.instance.0, p.probability
                ));
            }
            if p.saturated != u8::from(p.probability >= self.threshold) {
                checks.fail(format!(
                    "t={time}: instance {} decision {} disagrees with p={}",
                    p.instance.0, p.saturated, p.probability
                ));
            }
        }
        match twin_result {
            Some(Ok(legacy)) => {
                let same = legacy.len() == predictions.len()
                    && legacy.iter().zip(predictions).all(|(a, b)| {
                        a.instance == b.instance
                            && a.probability.to_bits() == b.probability.to_bits()
                            && a.saturated == b.saturated
                    });
                if !same {
                    checks.fail(format!("t={time}: step_legacy disagrees with step"));
                }
            }
            Some(Err(e)) => checks.fail(format!("t={time}: step_legacy failed: {e}")),
            None => {}
        }
        let new_windows = predictions
            .iter()
            .filter(|p| self.seen.insert(p.instance))
            .count() as u64;
        if let Some(q) = quality {
            q.scale_outs += outs;
            q.scale_ins += ins;
            self.account(q);
        }
        TickTime {
            wall_s,
            live,
            new_windows,
        }
    }

    /// Adds this tick's app-seconds to `q`: the verdict against the
    /// SLO, and the SLO-violation and over-provisioning accounting of
    /// `run_cell`, per app and per service.
    fn account(&self, q: &mut Quality) {
        for (i, app) in self.apps.iter().enumerate() {
            let kpi = &self.kpis[i];
            let violates = kpi.violates_slo(SLO_MS);
            match (self.verdicts[i] == 1, violates) {
                (true, true) => q.tp += 1,
                (true, false) => q.fp += 1,
                (false, true) => q.fn_ += 1,
                (false, false) => q.tn += 1,
            }
            let live = self.sim.cluster().app(app.id).instances().len() as u64;
            let zero_capacity = kpi.offered_rps > 0.0 && live == 0;
            if violates || zero_capacity {
                q.slo_violation_s += 1;
            }
            for service in &app.services {
                let ready = if app.scaler.is_some() {
                    live
                } else {
                    service.replicas
                };
                let needed = (kpi.offered_rps / service.capacity_rps).ceil() as u64;
                q.overprovision_inst_s += ready.saturating_sub(needed) as f64;
            }
        }
    }
}
