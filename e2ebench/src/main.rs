//! Closed-loop end-to-end benchmark of the monitorless system.
//!
//! ```sh
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload fleet_steady --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Every run trains the paper model on Table 1 quick data (timed:
//! `train_s`), scores it on a holdout generated from the run's seed,
//! then serves it through the workload's closed monitoring loop:
//! one episode on inputs from the run's seed and one on inputs from a
//! check seed, repeated until `--seconds` of measured time have passed.
//! End-to-end metrics come from this untraced run. `--trace 1` runs the
//! same job untraced, then again with span telemetry on, and reports the
//! per-layer time ledger instead. See `e2ebench/README.md`.

mod fleet;
mod ledger;
mod training;

use std::sync::Arc;
use std::time::Instant;

use monitorless::model::MonitorlessModel;
use monitorless::orchestrator::Orchestrator;
use monitorless_obs as obs;
use monitorless_std::json::Json;

use fleet::{Checks, Fleet, Quality, Shape, TickTime};
use ledger::{median, self_time, tail_percentile, Ledger, Totals};

/// Seed of the Table 1 training data: every run fits the same model, so
/// `train_s` times the same work whatever `--seed` is. (Left to the
/// run's seed, the expanded feature matrix — and with it fit time and
/// memory — changes width from seed to seed.) The run's seed drives
/// the holdout data and every serving input.
const TRAINING_SEED: u64 = 7;
/// Check inputs are derived from the run's seed with this salt.
const CHECK_SALT: u64 = 0x5EED_C4EC_0000_0001;
/// Holdout datasets are generated under the input seed with this salt.
const HOLDOUT_SALT: u64 = 0x401D_0000_0000_0002;
/// Ticks of the prefix replayed through `step_legacy` before timing.
const REPLAY_TICKS: usize = 10;
/// Worker threads of every layer (simulator, orchestrator, training,
/// forest).
const WORKERS: usize = 1;

/// The in-program spans the serving ledger reads.
const AGENT_COLLECT: &str = "agent.collect";
const GATHER: &str = "orchestrator.gather";
const PREDICT: &str = "orchestrator.predict";
const TICK_SPANS: [&str; 9] = [
    fleet::TICK,
    fleet::SIM_STEP,
    fleet::ORCH_STEP,
    fleet::BOOKKEEPING,
    fleet::PLAN,
    fleet::APPLY,
    AGENT_COLLECT,
    GATHER,
    PREDICT,
];

/// A named metric: `(name, value, unit)`.
type Metric = (&'static str, f64, &'static str);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    FleetSteady,
    FleetBurst,
    Train,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "fleet_steady" => Some(Workload::FleetSteady),
            "fleet_burst" => Some(Workload::FleetBurst),
            "train" => Some(Workload::Train),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::FleetSteady => "fleet_steady",
            Workload::FleetBurst => "fleet_burst",
            Workload::Train => "train",
        }
    }

    /// The fleet served after training: the train workload serves its
    /// model only on the small bake-off cell, so fitting dominates.
    fn shape(self) -> Shape {
        match self {
            Workload::FleetSteady => Shape::Steady,
            Workload::FleetBurst => Shape::Burst,
            Workload::Train => Shape::Cell,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload = Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!("--seconds must be a non-negative number, got {seconds}"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Turns span telemetry on (histograms only; the causal journal stays
/// off) or off.
fn set_telemetry(on: bool) {
    let config = if on {
        obs::TelemetryConfig::with_format(obs::ExportFormat::Prom)
    } else {
        obs::TelemetryConfig::off()
    };
    obs::init(&config);
}

/// One serving episode: set-up, then the timed closed-loop ticks.
#[derive(Debug)]
struct Episode {
    setup_s: f64,
    ticks: Vec<TickTime>,
    quality: Quality,
    /// `(cached, evaluated)` container-seconds during the timed ticks.
    cache: (u64, u64),
    nodes: usize,
    apps: usize,
    scaled_apps: usize,
    start_instances: usize,
}

/// Loads the model, builds the fleet and warms its windows: the set-up
/// `setup_s` times.
fn setup(
    shape: Shape,
    seed: u64,
    model_json: &str,
    checks: &mut Checks,
) -> Result<(Fleet, Orchestrator, f64), String> {
    let start = Instant::now();
    let model: MonitorlessModel =
        monitorless_std::json::from_str(model_json).map_err(|e| format!("model load: {e}"))?;
    let threshold = model.threshold();
    let mut fleet = fleet::build(shape, seed, threshold);
    let mut orch = Orchestrator::new(Arc::new(model));
    orch.set_n_jobs(WORKERS);
    for _ in 0..shape.warmup_ticks() {
        fleet.tick(&mut orch, None, None, checks);
    }
    Ok((fleet, orch, start.elapsed().as_secs_f64()))
}

/// Runs one episode; with `traced`, telemetry is on for the timed
/// ticks only.
fn run_episode(
    shape: Shape,
    seed: u64,
    model_json: &str,
    traced: bool,
    checks: &mut Checks,
) -> Result<Episode, String> {
    let (mut fleet, mut orch, setup_s) = setup(shape, seed, model_json, checks)?;
    let start_instances = fleet.containers();
    let cache0 = fleet.cache_counts();
    let cold0 = fleet.cold_starts();
    let mut quality = Quality::default();
    set_telemetry(traced);
    let ticks: Vec<TickTime> = (0..shape.timed_ticks())
        .map(|_| fleet.tick(&mut orch, None, Some(&mut quality), checks))
        .collect();
    set_telemetry(false);
    quality.cold_starts = fleet.cold_starts() - cold0;
    let cache1 = fleet.cache_counts();
    Ok(Episode {
        setup_s,
        ticks,
        quality,
        cache: (cache1.0 - cache0.0, cache1.1 - cache0.1),
        nodes: fleet.nodes(),
        apps: fleet.apps(),
        scaled_apps: fleet.scaled_apps(),
        start_instances,
    })
}

/// Replays a prefix of the workload on twin orchestrators, the batched
/// `step` driving the loop and `step_legacy` fed the same observations;
/// any difference in instance order, probability bits or decision is a
/// correctness failure.
fn replay_legacy(
    shape: Shape,
    seed: u64,
    model_json: &str,
    checks: &mut Checks,
) -> Result<(), String> {
    let model: MonitorlessModel =
        monitorless_std::json::from_str(model_json).map_err(|e| format!("model load: {e}"))?;
    let mut fleet = fleet::build(shape, seed, model.threshold());
    let model = Arc::new(model);
    let mut orch = Orchestrator::new(Arc::clone(&model));
    let mut twin = Orchestrator::new(model);
    for _ in 0..REPLAY_TICKS {
        fleet.tick(&mut orch, Some(&mut twin), None, checks);
    }
    Ok(())
}

/// Everything one pass of a workload measured.
#[derive(Debug)]
struct Pass {
    /// Wall seconds of each training run (all of the same seed).
    trainings: Vec<f64>,
    rows: usize,
    holdout_f1: f64,
    check_holdout_f1: f64,
    /// Training spans over every training run (zero when untraced).
    train_spans: Totals,
    /// Summed `(count, µs)` of the filter-forest fits (traced only).
    filter_forests: Option<(u64, f64)>,
    /// Set-up times of every episode (plus the extra set-up).
    setups: Vec<f64>,
    /// Episodes alternate the run's seed and the check seed.
    episodes: Vec<Episode>,
    /// Tick spans over the timed ticks of every episode.
    tick_spans: Totals,
}

impl Pass {
    fn ticks(&self) -> impl Iterator<Item = &TickTime> {
        self.episodes.iter().flat_map(|e| &e.ticks)
    }

    /// Measured seconds: every training run plus every timed tick.
    fn measured_s(&self) -> f64 {
        self.trainings.iter().sum::<f64>() + self.ticks().map(|t| t.wall_s).sum::<f64>()
    }

    fn inst_ticks(&self) -> u64 {
        self.ticks().map(|t| t.live as u64).sum()
    }

    /// How much work the pass did, so a traced pass can repeat it.
    fn plan(&self) -> Plan {
        Plan {
            trainings: self.trainings.len(),
            pairs: self.episodes.len() / 2,
        }
    }
}

/// Training runs and episode pairs of a pass.
#[derive(Debug, Clone, Copy)]
struct Plan {
    trainings: usize,
    pairs: usize,
}

/// Trains, scores and serves. The train workload repeats training
/// until `seconds` of it are measured, then serves one episode pair on
/// the bake-off cell; the serving workloads train once, then repeat
/// episode pairs until the measured time reaches `seconds`. A traced
/// pass repeats the `plan` of the untraced one. Untraced passes also
/// replay the legacy prefix and time one extra set-up.
fn run_pass(
    args: &Args,
    traced: bool,
    plan: Option<Plan>,
    checks: &mut Checks,
) -> Result<Pass, String> {
    let shape = args.workload.shape();
    let check_seed = args.seed ^ CHECK_SALT;
    set_telemetry(traced);
    let before = Totals::capture(&training::SPANS);
    let mut trainings = Vec::new();
    let mut filter_forests: Option<(u64, f64)> = None;
    let mut first: Option<(MonitorlessModel, String, usize)> = None;
    loop {
        let trained = training::train(TRAINING_SEED)?;
        trainings.push(trained.train_s);
        if let Some((count, us)) = trained.filter_forests {
            let sum = filter_forests.unwrap_or((0, 0.0));
            filter_forests = Some((sum.0 + count, sum.1 + us));
        }
        let json = monitorless_std::json::to_string(&trained.model);
        match &first {
            Some((_, first_json, _)) if *first_json != json => {
                checks.fail("a repeated training run produced a different model".into());
            }
            Some(_) => {}
            None => first = Some((trained.model, json, trained.rows)),
        }
        let done = match plan {
            Some(p) => trainings.len() >= p.trainings,
            None => shape != Shape::Cell || trainings.iter().sum::<f64>() >= args.seconds,
        };
        if done {
            break;
        }
    }
    let train_spans = Totals::capture(&training::SPANS).since(&before);
    set_telemetry(false);
    let (model, model_json, rows) = first.expect("at least one training run");
    let holdout_f1 = training::holdout_f1(&model, args.seed ^ HOLDOUT_SALT)?;
    let check_holdout_f1 = training::holdout_f1(&model, check_seed ^ HOLDOUT_SALT)?;
    drop(model);

    let mut setups = Vec::new();
    if !traced {
        replay_legacy(shape, args.seed, &model_json, checks)?;
        setups.push(setup(shape, args.seed, &model_json, checks)?.2);
    }
    let mut pass = Pass {
        trainings,
        rows,
        holdout_f1,
        check_holdout_f1,
        train_spans,
        filter_forests,
        setups,
        episodes: Vec::new(),
        tick_spans: Totals::default(),
    };
    let spans_before = Totals::capture(&TICK_SPANS);
    loop {
        for seed in [args.seed, check_seed] {
            let episode = run_episode(shape, seed, &model_json, traced, checks)?;
            pass.setups.push(episode.setup_s);
            pass.episodes.push(episode);
        }
        let done = match plan {
            Some(p) => pass.episodes.len() >= 2 * p.pairs,
            None => shape == Shape::Cell || pass.measured_s() >= args.seconds,
        };
        if done {
            break;
        }
    }
    pass.tick_spans = Totals::capture(&TICK_SPANS).since(&spans_before);
    Ok(pass)
}

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The named end-to-end metrics of an untraced pass.
fn end_to_end(pass: &Pass) -> Result<Vec<Metric>, String> {
    let mut ms: Vec<f64> = pass.ticks().map(|t| t.wall_s * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    let n = ms.len();
    let p50 = tail_percentile(&ms, 0.50).ok_or(format!("{n} ticks are too few for a p50"))?;
    let p95 = tail_percentile(&ms, 0.95).ok_or(format!("{n} ticks are too few for a p95"))?;
    let wall: f64 = pass.ticks().map(|t| t.wall_s).sum();
    let dev = &pass.episodes[0].quality;
    Ok(vec![
        ("setup_s", median(&pass.setups), "s"),
        ("tick_ms_p50", p50, "ms"),
        ("tick_ms_p95", p95, "ms"),
        ("instance_s_per_s", pass.inst_ticks() as f64 / wall, "inst-s/s"),
        ("app_f1", dev.app_f1(), "ratio"),
        ("slo_violation_s", dev.slo_violation_s as f64, "s"),
        ("overprovision_inst_s", dev.overprovision_inst_s, "inst-s"),
        ("train_s", median(&pass.trainings), "s"),
        ("holdout_f1", pass.holdout_f1, "ratio"),
        ("peak_rss_mb", peak_rss_mb()?, "MB"),
    ])
}

/// The per-layer metrics of a traced pass, with the serving and
/// training ledgers they come from.
fn per_layer(traced: &Pass, plain: &Pass) -> Result<(Vec<Metric>, Ledger, Ledger), String> {
    let t = &traced.tick_spans;
    let orch_parts = [t.us(GATHER), t.us(PREDICT)];
    let tick = Ledger {
        wall_us: t.us(fleet::TICK),
        layers: vec![
            ("sim.step", self_time(t.us(fleet::SIM_STEP), &[t.us(AGENT_COLLECT)])),
            ("agent.collect", t.us(AGENT_COLLECT)),
            ("featurize", t.us(GATHER)),
            ("predict", t.us(PREDICT)),
            ("orchestrator.fanout", self_time(t.us(fleet::ORCH_STEP), &orch_parts)),
            ("bookkeeping", t.us(fleet::BOOKKEEPING)),
            ("autoscale.plan", t.us(fleet::PLAN)),
            ("autoscale.apply", t.us(fleet::APPLY)),
        ],
    };
    tick.check().map_err(|e| format!("serving ledger: {e}"))?;

    let s = &traced.train_spans;
    let runs = traced.trainings.len() as u64;
    let (filter_count, filter_us) = traced
        .filter_forests
        .ok_or("the forest.fit split was not captured")?;
    if s.count(training::FOREST_FIT) != filter_count + runs {
        return Err(format!(
            "forest.fit split read at the wrong moment: {filter_count} filter fits of {} in \
             {runs} training runs",
            s.count(training::FOREST_FIT)
        ));
    }
    let train = Ledger {
        wall_us: s.us(training::TRAIN),
        layers: vec![
            ("train.generate", s.us(training::GENERATE)),
            ("pipeline.fit_self", self_time(s.us(training::PIPELINE_FIT), &[filter_us])),
            ("forest.fit", s.us(training::FOREST_FIT)),
        ],
    };
    train.check().map_err(|e| format!("training ledger: {e}"))?;

    let per_run = |us: f64| us * 1e-6 / runs as f64;
    let inst = traced.inst_ticks() as f64;
    let per_inst = |us: f64| us / inst;
    let app_ticks: f64 = traced
        .episodes
        .iter()
        .map(|e| (e.scaled_apps * e.ticks.len()) as f64)
        .sum();
    let per_app = |us: f64| if app_ticks > 0.0 { us / app_ticks } else { 0.0 };
    let (cached, evals) = traced
        .episodes
        .iter()
        .fold((0u64, 0u64), |acc, e| (acc.0 + e.cache.0, acc.1 + e.cache.1));
    let quality =
        |f: fn(&Quality) -> u64| traced.episodes.iter().map(|e| f(&e.quality)).sum::<u64>() as f64;
    let collects = t.count(AGENT_COLLECT).max(1) as f64;
    let overhead = 100.0 * (traced.measured_s() / plain.measured_s() - 1.0);
    Ok((
        vec![
            ("sim.step_us_per_inst", per_inst(tick.layer_us("sim.step")), "us"),
            ("agent.collect_us_per_node", t.us(AGENT_COLLECT) / collects, "us"),
            ("sim.cache_hit_frac", cached as f64 / (cached + evals).max(1) as f64, "ratio"),
            ("sim.cold_starts", quality(|q| q.cold_starts), "count"),
            ("orchestrator.step_us_per_inst", per_inst(t.us(fleet::ORCH_STEP)), "us"),
            (
                "orchestrator.fanout_us_per_inst",
                per_inst(tick.layer_us("orchestrator.fanout")),
                "us",
            ),
            (
                "orchestrator.new_windows",
                traced.ticks().map(|t| t.new_windows).sum::<u64>() as f64,
                "count",
            ),
            ("featurize.us_per_inst", per_inst(t.us(GATHER)), "us"),
            ("predict.us_per_row", per_inst(t.us(PREDICT)), "us"),
            ("bookkeeping.us_per_inst", per_inst(t.us(fleet::BOOKKEEPING)), "us"),
            ("autoscale.plan_us_per_app", per_app(t.us(fleet::PLAN)), "us"),
            ("autoscale.apply_us_per_app", per_app(t.us(fleet::APPLY)), "us"),
            ("autoscale.scale_outs", quality(|q| q.scale_outs), "count"),
            ("autoscale.scale_ins", quality(|q| q.scale_ins), "count"),
            ("tick_us_per_inst", per_inst(tick.wall_us), "us"),
            ("unattributed_us_per_inst", per_inst(tick.unattributed_us()), "us"),
            ("unattributed_pct", 100.0 * tick.unattributed_us() / tick.wall_us, "%"),
            ("train.generate_s", per_run(s.us(training::GENERATE)), "s"),
            ("train.fit_s", per_run(s.us(training::FIT)), "s"),
            ("pipeline.fit_self_s", per_run(train.layer_us("pipeline.fit_self")), "s"),
            ("forest.fit_s", per_run(s.us(training::FOREST_FIT)), "s"),
            ("train.unattributed_s", per_run(train.unattributed_us()), "s"),
            ("trace_overhead_pct", overhead, "%"),
        ],
        tick,
        train,
    ))
}

/// Output of a command, trimmed, or `"unavailable"`.
fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unavailable".into(), |s| s.trim().to_string())
}

/// The checked-out commit, when the working directory is the root of a
/// git checkout (a parent directory's repository would name the wrong
/// code).
fn commit() -> String {
    if std::path::Path::new(".git").exists() {
        command_output("git", &["rev-parse", "HEAD"])
    } else {
        "unavailable".into()
    }
}

/// FNV-1a over the paths and contents of the program's sources
/// (`crates/`, the workspace manifest and lock file), so a result can
/// be tied to the code it measured where no git metadata exists.
fn source_fingerprint() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    files.push("Cargo.toml".into());
    files.push("Cargo.lock".into());
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut seen = 0;
    for path in &files {
        let Ok(bytes) = std::fs::read(path) else {
            continue;
        };
        seen += 1;
        for b in path.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    if seen == 0 {
        "unavailable".into()
    } else {
        format!("{hash:016x}")
    }
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn int(v: u64) -> Json {
    i64::try_from(v).map_or_else(|_| Json::Str(v.to_string()), Json::Int)
}

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn quality_json(q: &Quality, holdout_f1: f64) -> Json {
    obj(vec![
        ("app_f1", num(q.app_f1())),
        ("slo_violation_s", int(q.slo_violation_s)),
        ("overprovision_inst_s", num(q.overprovision_inst_s)),
        ("holdout_f1", num(holdout_f1)),
        ("app_seconds_violating", int(q.tp + q.fn_)),
        ("app_seconds_called_saturated", int(q.tp + q.fp)),
        ("scale_outs", int(q.scale_outs)),
        ("cold_starts", int(q.cold_starts)),
    ])
}

fn provenance(args: &Args, pass: &Pass) -> Json {
    let first = &pass.episodes[0];
    obj(vec![
        ("workload", Json::Str(args.workload.name().into())),
        ("seed", int(args.seed)),
        ("check_seed", int(args.seed ^ CHECK_SALT)),
        ("commit", Json::Str(commit())),
        ("source_fingerprint", Json::Str(source_fingerprint())),
        ("rustc", Json::Str(command_output("rustc", &["--version"]))),
        ("nproc", int(std::thread::available_parallelism().map_or(0, |n| n.get() as u64))),
        ("workers", int(WORKERS as u64)),
        ("trace", Json::Bool(args.trace)),
        ("timed_ticks", int(pass.ticks().count() as u64)),
        ("episodes", int(pass.episodes.len() as u64)),
        ("nodes", int(first.nodes as u64)),
        ("apps", int(first.apps as u64)),
        ("instances_at_start", int(first.start_instances as u64)),
        ("training_seed", int(TRAINING_SEED)),
        ("training_runs", int(pass.trainings.len() as u64)),
        ("training_rows", int(pass.rows as u64)),
        ("setups", int(pass.setups.len() as u64)),
    ])
}

fn print_ledger(title: &str, ledger: &Ledger, unit_scale: f64, unit: &str) {
    println!("{title} (self time, {unit}):");
    for &(name, us) in &ledger.layers {
        println!("  {name:<22} {:>12.3}  {:>5.1}%", us * unit_scale, 100.0 * us / ledger.wall_us);
    }
    let rest = ledger.unattributed_us();
    println!(
        "  {:<22} {:>12.3}  {:>5.1}%",
        "unattributed",
        rest * unit_scale,
        100.0 * rest / ledger.wall_us
    );
    println!("  {:<22} {:>12.3}", "wall", ledger.wall_us * unit_scale);
}

fn run(args: &Args) -> Result<(Json, bool), String> {
    let mut checks = Checks::default();
    let plain = run_pass(args, false, None, &mut checks)?;
    for (k, e) in plain.episodes.iter().enumerate() {
        let q = &e.quality;
        // Repeated episodes of one seed must reproduce the first exactly.
        if k >= 2 && *q != plain.episodes[k % 2].quality {
            checks.fail(format!("episode {k} quality differs from episode {}", k % 2));
        }
        // A workload whose apps never violate the SLO, or whose scalers
        // never act, no longer measures what it was chosen for.
        if q.tp + q.fn_ == 0 {
            checks.fail(format!("episode {k}: no app-second violated the SLO"));
        }
        if e.scaled_apps > 0 && (q.scale_outs == 0 || q.cold_starts == 0) {
            checks.fail(format!("episode {k}: no scale-out with a cold start"));
        }
    }
    let (pass, metrics) = if args.trace {
        let traced = run_pass(args, true, Some(plain.plan()), &mut checks)?;
        let (metrics, tick, train) = per_layer(&traced, &plain)?;
        let ticks = traced.ticks().count() as f64;
        print_ledger("serving ledger per tick", &tick, 1e-3 / ticks, "ms");
        let runs = traced.trainings.len() as f64;
        print_ledger("training ledger per run", &train, 1e-6 / runs, "s");
        (traced, metrics)
    } else {
        let metrics = end_to_end(&plain)?;
        (plain, metrics)
    };
    println!("{}", obj(vec![("provenance", provenance(args, &pass))]));
    println!(
        "{}",
        obj(vec![
            ("quality_seed", quality_json(&pass.episodes[0].quality, pass.holdout_f1)),
            ("quality_check_seed", quality_json(&pass.episodes[1].quality, pass.check_holdout_f1)),
        ])
    );
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    for msg in &checks.messages {
        eprintln!("correctness: {msg}");
    }
    let failed = pass.ticks().filter(|t| !t.wall_s.is_finite()).count() as u64;
    let attempted = (pass.ticks().count() + pass.trainings.len()) as u64;
    let correct = checks.count == 0;
    let result = obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", int(attempted)),
        ("failed", int(failed)),
        (
            "metrics",
            obj(metrics
                .iter()
                .map(|&(name, value, unit)| {
                    (name, obj(vec![("value", num(value)), ("unit", Json::Str(unit.into()))]))
                })
                .collect()),
        ),
    ]);
    Ok((result, correct))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <fleet_steady|fleet_burst|train> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    set_telemetry(false);
    match run(&args) {
        Ok((result, correct)) => {
            println!("{result}");
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monitorless::model::ModelOptions;
    use monitorless::training::{generate_training_data, TrainingOptions};

    /// A small model: short Table 1 runs and the quick pipeline, so the
    /// test exercises the real serving path in seconds.
    fn small_model_json(seed: u64) -> String {
        let data = generate_training_data(&TrainingOptions {
            run_seconds: 30,
            ramp_seconds: 100,
            seed,
            n_jobs: 1,
        })
        .expect("training data");
        let mut opts = ModelOptions::quick();
        opts.forest.n_jobs = 1;
        opts.pipeline.n_jobs = 1;
        let model = MonitorlessModel::train(&data, &opts).expect("model");
        monitorless_std::json::to_string(&model)
    }

    /// Runs `ticks` accounted ticks of `shape` from a fresh fleet.
    fn shortened(shape: Shape, seed: u64, model_json: &str, ticks: usize) -> (Quality, u64) {
        let mut checks = Checks::default();
        let model: MonitorlessModel = monitorless_std::json::from_str(model_json).unwrap();
        let mut fleet = fleet::build(shape, seed, model.threshold());
        let mut orch = Orchestrator::new(Arc::new(model));
        let mut quality = Quality::default();
        for _ in 0..ticks {
            fleet.tick(&mut orch, None, Some(&mut quality), &mut checks);
        }
        quality.cold_starts = fleet.cold_starts();
        assert!(checks.messages.is_empty(), "{:?}", checks.messages);
        (quality, checks.count)
    }

    #[test]
    fn same_seed_double_run_has_identical_quality() {
        let json = small_model_json(3);
        for (shape, ticks) in [(Shape::Burst, 120), (Shape::Cell, 300), (Shape::Steady, 4)] {
            let a = shortened(shape, 11, &json, ticks);
            let b = shortened(shape, 11, &json, ticks);
            assert_eq!(a, b, "{shape:?}");
            let app_seconds = a.0.tp + a.0.fp + a.0.fn_ + a.0.tn;
            assert!(app_seconds > 0, "{shape:?} accounted no app-seconds");
        }
        let model: MonitorlessModel = monitorless_std::json::from_str(&json).unwrap();
        assert_eq!(
            training::holdout_f1(&model, 5).unwrap().to_bits(),
            training::holdout_f1(&model, 5).unwrap().to_bits()
        );
    }

    #[test]
    fn legacy_replay_agrees_on_a_scaled_fleet() {
        let json = small_model_json(4);
        let mut checks = Checks::default();
        replay_legacy(Shape::Cell, 2, &json, &mut checks).unwrap();
        assert_eq!(checks.count, 0, "{:?}", checks.messages);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args("--workload train --seed 4 --seconds 10 --trace 1")).unwrap();
        assert_eq!(ok.workload, Workload::Train);
        assert_eq!(ok.seed, 4);
        assert!(ok.trace);
        for bad in [
            "--workload nope --seed 4 --seconds 10 --trace 0",
            "--workload train --seed x --seconds 10 --trace 0",
            "--workload train --seed 4 --seconds -1 --trace 0",
            "--workload train --seed 4 --seconds 10 --trace 2",
            "--workload train --seed 4 --seconds 10",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
