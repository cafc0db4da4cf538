//! Shared helpers for the experiment-regeneration binaries.
//!
//! Every `tableN_*` / `figN_*` binary accepts:
//!
//! * `--full` — run at paper scale (long runs, full grids, 250-tree
//!   forests) instead of the laptop-scale defaults;
//! * `--seed <n>` — override the base seed (default 7);
//! * `--telemetry <off|jsonl|prom>` — enable self-telemetry (also via
//!   the `MONITORLESS_OBS` env var; the flag wins). `jsonl` streams
//!   span/progress events to stderr as the run proceeds; both formats
//!   end with a counter/histogram snapshot on stderr and a copy under
//!   `target/telemetry-<binary>.txt`.
//!
//! A malformed or missing flag value exits with status 2 and a one-line
//! usage error rather than falling back to a default.
//!
//! Binaries that need a trained model reuse a cached one from
//! `target/monitorless-model-<scale>-<seed>.json` when present, so the
//! full table series can be regenerated without retraining each time.
//!
//! The perf-gate binaries also share [`SnapshotGate`] (`--check` /
//! `--out` against a committed `results/BENCH_*.json`) and
//! [`CountingAlloc`], which each of them installs as its own
//! `#[global_allocator]` to prove its zero-allocation contracts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use monitorless::experiments::scenario::EvalOptions;
use monitorless::model::{ModelOptions, MonitorlessModel};
use monitorless::training::{generate_training_data, TrainingData, TrainingOptions};
use monitorless_obs as obs;
use monitorless_std::json::{FromJson, ToJson};

const USAGE: &str = "usage: [--full] [--seed <n>] [--telemetry off|jsonl|prom] \
                     [--trace off|ring|jsonl] [--check <snapshot>] [--out <report>]";

/// Prints `msg` with the usage line on one line of stderr and exits
/// with status 2.
fn usage_exit(msg: &str) -> ! {
    eprintln!("error: {msg} ({USAGE})");
    std::process::exit(2)
}

/// The value following `flag` in `args`: `Ok(None)` when the flag is
/// absent, an error when it is the last argument or followed by another
/// flag.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Ok(Some(v)),
        _ => Err(format!("{flag} expects a value")),
    }
}

/// Parses the value of `flag`, naming the flag and the bad value on
/// failure.
fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String>
where
    T::Err: std::fmt::Display,
{
    flag_value(args, flag)?
        .map(|v| {
            v.parse()
                .map_err(|e| format!("bad {flag} value {v:?}: {e}"))
        })
        .transpose()
}

/// Parsed command-line scale options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Paper scale (`--full`) vs laptop scale.
    pub full: bool,
    /// Base seed.
    pub seed: u64,
}

impl Scale {
    /// Parses `--full` and `--seed <n>` from `std::env::args`, and
    /// installs the process-wide telemetry configuration from the
    /// `MONITORLESS_OBS` env var and/or the `--telemetry <fmt>` and
    /// `--trace <mode>` flags. Exits with status 2 on a malformed value.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let (scale, telemetry) = Self::parse(&args).unwrap_or_else(|e| usage_exit(&e));
        obs::init(&telemetry);
        scale
    }

    /// Parses the scale and telemetry configuration from `args` (without
    /// the program name). `--seed` must be an unsigned integer and
    /// `--telemetry` / `--trace` known modes; a flag given without a
    /// value is an error too.
    ///
    /// # Errors
    ///
    /// A one-line description of the first malformed flag.
    pub fn parse(args: &[String]) -> Result<(Self, obs::TelemetryConfig), String> {
        let seed = parse_flag(args, "--seed")?.unwrap_or(7);
        parse_flag::<obs::ExportFormat>(args, "--telemetry")?;
        parse_flag::<obs::TraceMode>(args, "--trace")?;
        let telemetry = obs::TelemetryConfig::from_env_and_args(args.iter().map(String::as_str));
        let full = args.iter().any(|a| a == "--full");
        Ok((Scale { full, seed }, telemetry))
    }

    /// Training options for this scale.
    pub fn training_options(&self) -> TrainingOptions {
        if self.full {
            TrainingOptions::paper(self.seed)
        } else {
            TrainingOptions::quick(self.seed)
        }
    }

    /// Model options for this scale.
    pub fn model_options(&self) -> ModelOptions {
        if self.full {
            ModelOptions::paper()
        } else {
            ModelOptions::quick()
        }
    }

    /// Evaluation-scenario options for this scale.
    pub fn eval_options(&self, seed_offset: u64) -> EvalOptions {
        EvalOptions {
            duration: if self.full { 7000 } else { 500 },
            ramp_seconds: if self.full { 800 } else { 250 },
            seed: self.seed ^ seed_offset,
            record_raw: false,
        }
    }

    fn cache_path(&self) -> std::path::PathBuf {
        let scale = if self.full { "full" } else { "quick" };
        std::path::PathBuf::from(format!("target/monitorless-model-{scale}-{}.json", self.seed))
    }
}

/// Generates training data at the selected scale, with progress output.
pub fn training_data(scale: &Scale) -> TrainingData {
    obs::progress(&format!(
        "generating training data ({} s per configuration)...",
        scale.training_options().run_seconds
    ));
    generate_training_data(&scale.training_options()).expect("training-data generation")
}

/// Trains (or loads a cached) monitorless model at the selected scale.
pub fn trained_model(scale: &Scale) -> Arc<MonitorlessModel> {
    let path = scale.cache_path();
    if let Ok(model) = MonitorlessModel::load(&path) {
        obs::progress(&format!("loaded cached model from {}", path.display()));
        return Arc::new(model);
    }
    let data = training_data(scale);
    obs::progress(&format!("training monitorless model on {} samples...", data.dataset.len()));
    let model = MonitorlessModel::train(&data, &scale.model_options()).expect("model training");
    if model.save(&path).is_ok() {
        obs::progress(&format!("cached model at {}", path.display()));
    }
    Arc::new(model)
}

/// Writes the experiment's telemetry summary: the final counter/histogram
/// snapshot goes to stderr and to `target/telemetry-<name>.txt` next to
/// the cached models. No-op when telemetry is disabled.
pub fn telemetry_report(name: &str) {
    if !obs::enabled() {
        return;
    }
    obs::report_to_stderr();
    let path = std::path::PathBuf::from(format!("target/telemetry-{name}.txt"));
    match obs::write_report(&path) {
        Ok(()) => obs::progress(&format!("telemetry snapshot written to {}", path.display())),
        Err(e) => obs::progress(&format!("telemetry snapshot not written: {e}")),
    }
}

/// System allocator wrapper counting allocation events, so a bench can
/// prove a hot path never touches the heap. A binary opts in with its
/// own two-line `#[global_allocator] static GLOBAL: CountingAlloc =
/// CountingAlloc;`; binaries that do not stay on the plain allocator.
pub struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to `System` unchanged; the counter is
// a relaxed atomic side effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocation events (alloc, alloc_zeroed, realloc) counted so far by
/// [`CountingAlloc`]; always 0 in a binary that does not install it.
pub fn alloc_events() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}

/// The `--check <snapshot>` / `--out <report>` contract shared by the
/// perf-gate binaries.
///
/// Without `--check`, the fresh report is written to `--out` (or the
/// binary's default `results/BENCH_<name>.json`) and echoed to stdout.
/// With `--check`, the committed snapshot is read and parsed, the
/// binary's own `check(fresh, committed)` decides pass or fail, and the
/// fresh report is written only when `--out` is given explicitly, so a
/// check run never clobbers the committed baseline.
#[derive(Debug)]
pub struct SnapshotGate {
    check: Option<String>,
    out: Option<String>,
    default_out: String,
}

impl SnapshotGate {
    /// Parses `--check` / `--out` from `std::env::args`, exiting with
    /// status 2 when either is given without a value.
    pub fn from_args(default_out: &str) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args, default_out).unwrap_or_else(|e| usage_exit(&e))
    }

    /// Parses `--check` / `--out` from `args`.
    ///
    /// # Errors
    ///
    /// When either flag is given without a value.
    pub fn parse(args: &[String], default_out: &str) -> Result<Self, String> {
        Ok(SnapshotGate {
            check: flag_value(args, "--check")?.map(str::to_owned),
            out: flag_value(args, "--out")?.map(str::to_owned),
            default_out: default_out.to_owned(),
        })
    }

    /// Writes and/or checks `report` and returns the process exit code:
    /// 0 on a plain run or a passing check, 1 when the committed
    /// snapshot cannot be read or parsed or `check` rejects the run.
    /// `label` names the gate in the pass/FAIL line.
    ///
    /// # Panics
    ///
    /// When the report cannot be written.
    pub fn finish<R: ToJson + FromJson>(
        &self,
        label: &str,
        report: &R,
        check: impl FnOnce(&R, R) -> Result<(), String>,
    ) -> i32 {
        let json = monitorless_std::json::to_string(report);
        let Some(path) = &self.check else {
            let out = self.out.as_deref().unwrap_or(&self.default_out);
            std::fs::write(out, json.clone() + "\n").expect("write report");
            println!("{json}");
            println!("report written to {out}");
            return 0;
        };
        if let Some(out) = &self.out {
            std::fs::write(out, json + "\n").expect("write report");
        }
        match load_snapshot(path).and_then(|committed| check(report, committed)) {
            Ok(()) => {
                println!("{label} passed against {path}");
                0
            }
            Err(msg) => {
                eprintln!("{label} FAILED: {msg}");
                1
            }
        }
    }
}

/// Reads and parses a committed snapshot.
///
/// # Errors
///
/// When the file cannot be read or does not parse as `R`.
fn load_snapshot<R: FromJson>(path: &str) -> Result<R, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    monitorless_std::json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    #[test]
    fn counting_alloc_counts_heap_allocations() {
        let before = alloc_events();
        let v: Vec<u64> = Vec::with_capacity(64);
        std::hint::black_box(&v);
        assert!(alloc_events() > before);
    }

    #[test]
    fn default_scale_is_quick() {
        let s = Scale {
            full: false,
            seed: 7,
        };
        assert_eq!(s.training_options().run_seconds, 150);
        assert_eq!(s.eval_options(0).duration, 500);
    }

    #[test]
    fn full_scale_is_paper_sized() {
        let s = Scale {
            full: true,
            seed: 7,
        };
        assert!(s.training_options().run_seconds >= 2000);
        assert_eq!(s.model_options().forest.n_estimators, 250);
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn scale_parses_good_values() {
        let (scale, telemetry) = Scale::parse(&args(&[
            "--full",
            "--seed",
            "42",
            "--telemetry",
            "prom",
            "--trace",
            "ring",
        ]))
        .unwrap();
        assert_eq!(
            scale,
            Scale {
                full: true,
                seed: 42
            }
        );
        assert_eq!(telemetry.format, obs::ExportFormat::Prom);
        assert_eq!(telemetry.trace, obs::TraceMode::Ring);
        let (scale, _) = Scale::parse(&[]).unwrap();
        assert_eq!(
            scale,
            Scale {
                full: false,
                seed: 7
            }
        );
    }

    #[test]
    fn scale_rejects_missing_values() {
        for flag in ["--seed", "--telemetry", "--trace"] {
            let err = Scale::parse(&args(&[flag])).unwrap_err();
            assert!(err.contains(flag), "{err}");
            assert!(Scale::parse(&args(&[flag, "--full"])).is_err());
        }
    }

    #[test]
    fn scale_rejects_bad_values() {
        for bad in [
            &["--seed", "seven"][..],
            &["--seed", "-1"],
            &["--telemetry", "prometheus-ish"],
            &["--trace", "rign"],
        ] {
            let err = Scale::parse(&args(bad)).unwrap_err();
            assert!(err.contains(bad[0]) && err.contains(bad[1]), "{err}");
        }
    }

    /// A fresh scratch directory under the system temp dir.
    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("monitorless-gate-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A gate checking against `committed`, writing to `out` only when
    /// given, with `default.json` in `dir` as the default output.
    fn gate(dir: &std::path::Path, committed: &std::path::Path, out: Option<&str>) -> SnapshotGate {
        let mut list = vec!["--check".to_string(), committed.display().to_string()];
        if let Some(out) = out {
            list.extend(["--out".to_string(), dir.join(out).display().to_string()]);
        }
        SnapshotGate::parse(&list, &dir.join("default.json").display().to_string()).unwrap()
    }

    fn report() -> monitorless_std::Json {
        monitorless_std::json::from_str(r#"{"ms": 10.0}"#).unwrap()
    }

    fn within_2x(
        fresh: &monitorless_std::Json,
        committed: monitorless_std::Json,
    ) -> Result<(), String> {
        let (f, c) = (
            fresh.get("ms").and_then(|v| v.as_f64()),
            committed.get("ms").and_then(|v| v.as_f64()),
        );
        match (f, c) {
            (Some(f), Some(c)) if f <= 2.0 * c => Ok(()),
            _ => Err(format!("{f:?} ms is more than 2x the committed {c:?} ms")),
        }
    }

    #[test]
    fn gate_flags_need_values() {
        assert!(SnapshotGate::parse(&args(&["--check"]), "d.json").is_err());
        assert!(SnapshotGate::parse(&args(&["--out", "--check", "x.json"]), "d.json").is_err());
        let gate = SnapshotGate::parse(&args(&["--seed", "3"]), "d.json").unwrap();
        assert_eq!((gate.check, gate.out), (None, None));
    }

    #[test]
    fn gate_missing_committed_file_is_an_error() {
        let dir = scratch_dir("missing");
        let missing = dir.join("BENCH_missing.json");
        let err =
            load_snapshot::<monitorless_std::Json>(&missing.display().to_string()).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
        assert_eq!(gate(&dir, &missing, None).finish("perf check", &report(), |_, _| Ok(())), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gate_unparseable_committed_file_is_an_error() {
        let dir = scratch_dir("truncated");
        let truncated = dir.join("BENCH_truncated.json");
        std::fs::write(&truncated, r#"{"ms": 10.0, "si"#).unwrap();
        let err =
            load_snapshot::<monitorless_std::Json>(&truncated.display().to_string()).unwrap_err();
        assert!(err.contains("cannot parse"), "{err}");
        assert_eq!(gate(&dir, &truncated, None).finish("perf check", &report(), |_, _| Ok(())), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gate_failing_check_is_nonzero_and_writes_only_with_out() {
        let dir = scratch_dir("failing");
        let committed = dir.join("BENCH_fast.json");
        std::fs::write(&committed, r#"{"ms": 1.0}"#).unwrap();
        assert_eq!(gate(&dir, &committed, None).finish("perf check", &report(), within_2x), 1);
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            1,
            "a check run without --out wrote a report"
        );
        assert_eq!(
            gate(&dir, &committed, Some("fresh.json")).finish("perf check", &report(), within_2x),
            1
        );
        let written = std::fs::read_to_string(dir.join("fresh.json")).unwrap();
        assert_eq!(
            monitorless_std::json::from_str::<monitorless_std::Json>(&written).unwrap(),
            report()
        );
        assert!(!dir.join("default.json").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gate_passing_check_is_zero() {
        let dir = scratch_dir("passing");
        let committed = dir.join("BENCH_slow.json");
        std::fs::write(&committed, r#"{"ms": 8.0}"#).unwrap();
        assert_eq!(gate(&dir, &committed, None).finish("perf check", &report(), within_2x), 0);
        assert!(!dir.join("default.json").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gate_without_check_writes_the_default_report() {
        let dir = scratch_dir("plain");
        let default = dir.join("default.json").display().to_string();
        let gate = SnapshotGate::parse(&[], &default).unwrap();
        assert_eq!(gate.finish("perf check", &report(), |_, _| unreachable!()), 0);
        assert!(std::fs::read_to_string(&default).unwrap().ends_with("}\n"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn telemetry_report_is_noop_when_disabled() {
        // Must not create files or panic with telemetry off (default).
        if !obs::enabled() {
            telemetry_report("bench-test-noop");
            assert!(!std::path::Path::new("target/telemetry-bench-test-noop.txt").exists());
        }
    }
}
