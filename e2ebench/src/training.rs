//! The training path: Table 1 quick data, then the paper model fit, then
//! the holdout score — every step with one worker.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use monitorless::model::{ModelOptions, MonitorlessModel};
use monitorless::training::{generate_training_data, TrainingData, TrainingOptions};
use monitorless_obs as obs;

use crate::fleet::f1;
use crate::ledger::Totals;

/// Span names the benchmark wraps around the training calls, and the
/// in-program spans the training ledger reads.
pub const TRAIN: &str = "e2e.train";
pub const GENERATE: &str = "e2e.train_generate";
pub const FIT: &str = "e2e.train_fit";
pub const PIPELINE_FIT: &str = "pipeline.fit";
pub const FOREST_FIT: &str = "forest.fit";
pub const SPANS: [&str; 5] = [TRAIN, GENERATE, FIT, PIPELINE_FIT, FOREST_FIT];

/// Table 1 quick options (25 runs × 150 s = 3,750 rows), one worker.
pub fn training_options(seed: u64) -> TrainingOptions {
    TrainingOptions {
        n_jobs: 1,
        ..TrainingOptions::quick(seed)
    }
}

/// The paper configuration (full pipeline, 250 trees), one worker.
pub fn model_options() -> ModelOptions {
    let mut opts = ModelOptions::paper();
    opts.pipeline.n_jobs = 1;
    opts.forest.n_jobs = 1;
    opts
}

/// One timed training run.
#[derive(Debug)]
pub struct Trained {
    /// The fitted model.
    pub model: MonitorlessModel,
    /// Training rows.
    pub rows: usize,
    /// Wall seconds of data generation plus fit.
    pub train_s: f64,
    /// With tracing on: `(count, µs)` of the `forest.fit` spans that ran
    /// inside `pipeline.fit` (the random-forest filters), read the
    /// moment the pipeline fit ended.
    pub filter_forests: Option<(u64, f64)>,
}

/// Generates Table 1 quick data for `seed` and fits the paper model.
///
/// # Errors
///
/// Returns the library's error text.
pub fn train(seed: u64) -> Result<Trained, String> {
    let start = Instant::now();
    let span = obs::Span::enter(TRAIN);
    let data = {
        let _s = obs::Span::enter(GENERATE);
        generate_training_data(&training_options(seed)).map_err(|e| e.to_string())?
    };
    let (model, filter_forests) = {
        let _s = obs::Span::enter(FIT);
        fit(&data)?
    };
    drop(span);
    Ok(Trained {
        model,
        rows: data.dataset.len(),
        train_s: start.elapsed().as_secs_f64(),
        filter_forests,
    })
}

/// `MonitorlessModel::train`, plus — with tracing on — the split of the
/// `forest.fit` time between the pipeline's filter forests and the
/// final forest. Both record under one span name, so a watcher reads
/// the `forest.fit` total at the moment `pipeline.fit` records: every
/// filter forest has ended by then, and the final forest (seconds long)
/// cannot have. The caller checks the split by the span counts.
fn fit(data: &TrainingData) -> Result<(MonitorlessModel, Option<(u64, f64)>), String> {
    let opts = model_options();
    if !obs::enabled() {
        let model = MonitorlessModel::train(data, &opts).map_err(|e| e.to_string())?;
        return Ok((model, None));
    }
    let before = Totals::capture(&SPANS);
    let done = AtomicBool::new(false);
    let (model, at_pipeline_end) = std::thread::scope(|s| {
        let watcher = s.spawn(|| loop {
            let now = Totals::capture(&SPANS);
            if now.count(PIPELINE_FIT) > before.count(PIPELINE_FIT) {
                return Some(now.since(&before));
            }
            if done.load(Ordering::SeqCst) {
                return None;
            }
            std::thread::sleep(Duration::from_micros(200));
        });
        let model = MonitorlessModel::train(data, &opts);
        done.store(true, Ordering::SeqCst);
        (model, watcher.join().expect("span watcher panicked"))
    });
    let model = model.map_err(|e| e.to_string())?;
    let split = at_pipeline_end.map(|t| (t.count(FOREST_FIT), t.us(FOREST_FIT)));
    Ok((model, split))
}

/// F1 of `model` on a Table 1 quick dataset generated under `seed`.
///
/// # Errors
///
/// Returns the library's error text.
pub fn holdout_f1(model: &MonitorlessModel, seed: u64) -> Result<f64, String> {
    let data = generate_training_data(&training_options(seed)).map_err(|e| e.to_string())?;
    let predicted = model
        .predict_batch(data.dataset.x(), data.dataset.groups())
        .map_err(|e| e.to_string())?;
    let (mut tp, mut fp, mut fn_) = (0, 0, 0);
    for (&p, &y) in predicted.iter().zip(data.dataset.y()) {
        match (p == 1, y == 1) {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, true) => fn_ += 1,
            (false, false) => {}
        }
    }
    Ok(f1(tp, fp, fn_))
}
