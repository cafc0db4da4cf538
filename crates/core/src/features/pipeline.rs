//! Stage orchestration: the six-step feature pipeline (Section 3.3.7)
//! and its online per-instance form.
//!
//! The batch and online transform paths run on streaming, column-major
//! kernels that write straight into preallocated buffers; the original
//! row-cloning implementations are retained as `*_legacy` reference
//! paths and the streaming paths are proven bit-identical to them
//! (`tests/featurize_equivalence.rs`, `table1_featurize`).

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use monitorless_learn::{Matrix, StandardScaler, Transformer};
use monitorless_obs as obs;

use super::base::{BaseExpander, RawLayout};
use super::combine::{apply_products, product_names, product_pairs};
use super::plan::ServingPlan;
use super::reduce::{FittedReduction, Reduction};
use super::timefeat::TimeExpander;
use crate::Error;

/// Configuration of the feature pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Step 2: standardize features.
    pub normalize: bool,
    /// Step 3: first reduction.
    pub reduce1: Reduction,
    /// Step 4a: add `X-AVG`/`X-LAG` features.
    pub time_features: bool,
    /// Step 4b: add multiplicative cross-domain products.
    pub products: bool,
    /// Step 5: second reduction.
    pub reduce2: Reduction,
    /// Seed for the filtering forests.
    pub seed: u64,
    /// Worker threads for sharding independent group blocks in stage D
    /// (1 = serial; the output is identical for any value).
    pub n_jobs: usize,
}

impl PipelineConfig {
    /// The configuration the paper's grid search settled on: normalize,
    /// forest-filter to the top-30 union, add time and product features,
    /// then filter again.
    pub fn paper_default() -> Self {
        PipelineConfig {
            normalize: true,
            reduce1: Reduction::paper_filter(),
            time_features: true,
            products: true,
            reduce2: Reduction::ForestFilter {
                top_k: 30,
                n_estimators: 50,
            },
            seed: 0,
            n_jobs: 4,
        }
    }

    /// A scaled-down configuration for tests and quick runs.
    pub fn quick() -> Self {
        PipelineConfig {
            normalize: true,
            reduce1: Reduction::ForestFilter {
                top_k: 8,
                n_estimators: 12,
            },
            time_features: true,
            products: true,
            reduce2: Reduction::ForestFilter {
                top_k: 16,
                n_estimators: 12,
            },
            seed: 0,
            n_jobs: 2,
        }
    }
}

/// An unfitted feature pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeaturePipeline {
    config: PipelineConfig,
}

impl FeaturePipeline {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: PipelineConfig) -> Self {
        FeaturePipeline { config }
    }

    /// Fits the pipeline on raw metric vectors and returns the fitted
    /// pipeline together with the transformed training matrix.
    ///
    /// Rows must be ordered chronologically *within* each group (a group
    /// is one Table 1 training run / one instance's time series).
    ///
    /// # Errors
    ///
    /// Propagates learner errors; returns [`Error::Invalid`] for empty
    /// input or mismatched lengths.
    pub fn fit_transform(
        &self,
        x_raw: &Matrix,
        y: &[u8],
        groups: &[u32],
        layout: RawLayout,
    ) -> Result<(FittedPipeline, Matrix), Error> {
        if x_raw.rows() == 0 {
            return Err(Error::Invalid("empty training matrix".into()));
        }
        if y.len() != x_raw.rows() || groups.len() != x_raw.rows() {
            return Err(Error::Invalid("labels/groups do not match rows".into()));
        }
        let cfg = self.config;
        let _fit_span = obs::Span::enter("pipeline.fit");
        let expander = BaseExpander::new(layout);

        // Step 1: base expansion.
        let stage = obs::Span::enter("pipeline.fit.base_expand");
        let mut base_rows: Vec<f64> = Vec::with_capacity(x_raw.rows() * expander.len());
        for row in x_raw.iter_rows() {
            base_rows.extend(expander.expand(row));
        }
        let mut b = Matrix::from_vec(x_raw.rows(), expander.len(), base_rows);
        let names_b = expander.names();
        drop(stage);
        obs::gauge_set("pipeline.features.base", names_b.len() as f64);

        // Step 2: normalization.
        let stage = obs::Span::enter("pipeline.fit.normalize");
        let scaler = if cfg.normalize {
            let mut s = StandardScaler::new();
            b = s.fit_transform(&b)?;
            Some(s)
        } else {
            None
        };
        drop(stage);

        // Step 3: first reduction. The binary level features and the
        // relative utilization metrics are always kept: they are the
        // scale-free features that make the model portable across
        // hardware and load magnitudes (Sections 3.3.1-3.3.3) — absolute
        // metrics alone would overfit each training configuration's
        // traffic level.
        let stage = obs::Span::enter("pipeline.fit.reduce1");
        let mut reduce1 = FittedReduction::fit(cfg.reduce1, &b, y, groups, cfg.seed)?;
        if let FittedReduction::Select(idx) = &mut reduce1 {
            idx.extend(forced_base_indices(&names_b));
            idx.sort_unstable();
            idx.dedup();
        }
        let c = reduce1.apply(&b)?;
        let names_c = reduce1.names(&names_b);
        drop(stage);
        obs::gauge_set("pipeline.features.reduced", names_c.len() as f64);

        // Step 4: time features + products (per group, chronological).
        let stage = obs::Span::enter("pipeline.fit.time_products");
        let time = cfg.time_features.then(|| TimeExpander::new(c.cols()));
        let pairs = if cfg.products {
            product_pairs(&names_c)
        } else {
            Vec::new()
        };
        let (d, names_d) = expand_stage_d(&c, groups, time.as_ref(), &pairs, &names_c, cfg.n_jobs);
        drop(stage);
        obs::gauge_set("pipeline.features.expanded", names_d.len() as f64);

        // Step 5: second reduction, again keeping the scale-free
        // originals and their pairwise products. Forced names go into a
        // set once instead of rescanning the name list per candidate.
        let stage = obs::Span::enter("pipeline.fit.reduce2");
        let mut reduce2 = FittedReduction::fit(cfg.reduce2, &d, y, groups, cfg.seed ^ 0x5a5a)?;
        if let FittedReduction::Select(idx) = &mut reduce2 {
            let forced: HashSet<&str> = forced_base_indices(&names_b)
                .into_iter()
                .map(|i| names_b[i].as_str())
                .collect();
            for (j, name) in names_d.iter().enumerate() {
                let is_forced_original = forced.contains(name.as_str());
                let is_level_product =
                    name.contains(" × ") && name.split(" × ").all(|part| forced.contains(part));
                if is_forced_original || is_level_product {
                    idx.push(j);
                }
            }
            idx.sort_unstable();
            idx.dedup();
        }
        let e = reduce2.apply(&d)?;
        let names_e = reduce2.names(&names_d);
        drop(stage);

        // Step 6: zero-variance removal.
        let stage = obs::Span::enter("pipeline.fit.zero_variance");
        let stds = e.column_stds();
        let keep: Vec<usize> = (0..e.cols()).filter(|&i| stds[i] > 0.0).collect();
        let final_x = e.select_columns(&keep);
        let names: Vec<String> = keep.iter().map(|&i| names_e[i].clone()).collect();
        drop(stage);
        obs::gauge_set("pipeline.features.final", names.len() as f64);

        let fitted = FittedPipeline {
            config: cfg,
            expander,
            scaler,
            reduce1,
            time,
            pairs,
            names_c,
            reduce2,
            keep,
            names,
            serving: Arc::default(),
        }
        .compiled()?;
        Ok((fitted, final_x))
    }
}

/// Indices of base features that are never filtered out: the 16 binary
/// level features plus the four relative utilization metrics (and the
/// cgroup throttle counter, which is relative to the period rate).
fn forced_base_indices(names_b: &[String]) -> Vec<usize> {
    names_b
        .iter()
        .enumerate()
        .filter(|(_, n)| {
            n.contains("-LOW")
                || n.contains("-MEDIUM")
                || n.contains("-HIGH")
                || n.contains("-VERYHIGH")
                || n.contains("-EXTREME")
                || n.as_str() == "ctr.containers.cpu.util"
                || n.as_str() == "ctr.containers.mem.util"
                || n.as_str() == "mem.util.used"
                || n.as_str() == "kernel.all.cpu.idle"
                || n.as_str() == "ctr.cgroup.cpusched.throttled"
        })
        .map(|(i, _)| i)
        .collect()
}

/// Contiguous `[start, end)` row ranges of equal group id, in input
/// order (rows of one group must be adjacent and chronological).
fn group_blocks(groups: &[u32]) -> Vec<(usize, usize)> {
    let mut blocks = Vec::new();
    let mut i = 0;
    while i < groups.len() {
        let g = groups[i];
        let mut j = i;
        while j < groups.len() && groups[j] == g {
            j += 1;
        }
        blocks.push((i, j));
        i = j;
    }
    blocks
}

/// Carves one contiguous output slice per group block out of `data`
/// (row-major, `width` columns) and runs `work(start, end, out)` for
/// each block over `n_jobs` pool workers, recording per-block busy time
/// behind the `pipeline.worker_utilization` gauge.
fn shard_blocks<F>(
    data: &mut [f64],
    width: usize,
    blocks: &[(usize, usize)],
    n_jobs: usize,
    work: F,
) where
    F: Fn(usize, usize, &mut [f64]) + Sync,
{
    let span = obs::Span::enter("pipeline.stage_d");
    let mut tasks: Vec<(usize, usize, &mut [f64])> = Vec::with_capacity(blocks.len());
    let mut rest = data;
    for &(start, end) in blocks {
        let (head, tail) = rest.split_at_mut((end - start) * width);
        tasks.push((start, end, head));
        rest = tail;
    }
    let busy_us = AtomicU64::new(0);
    let busy = &busy_us;
    let work = &work;
    monitorless_std::pool::for_each_item_mut(&mut tasks, n_jobs, |_, (start, end, out)| {
        let started = obs::enabled().then(std::time::Instant::now);
        work(*start, *end, out);
        if let Some(started) = started {
            let us = started.elapsed().as_micros() as u64;
            obs::observe("pipeline.block_busy_us", us as f64);
            busy.fetch_add(us, Ordering::Relaxed);
        }
    });
    if let Some(wall_us) = span.elapsed_us() {
        if wall_us > 0.0 {
            let total_busy = busy_us.load(Ordering::Relaxed) as f64;
            obs::gauge_set(
                "pipeline.worker_utilization",
                total_busy / (n_jobs.max(1) as f64 * wall_us),
            );
        }
    }
}

/// Stage D (time features + products) on the streaming kernels: every
/// group block is expanded straight into its slice of the output matrix
/// buffer — no row clones, no per-row vectors — and independent blocks
/// are sharded over `n_jobs` pool workers (the output is identical for
/// any worker count). Bit-identical to [`expand_stage_d_legacy`].
pub fn expand_stage_d(
    c: &Matrix,
    groups: &[u32],
    time: Option<&TimeExpander>,
    pairs: &[(usize, usize)],
    names_c: &[String],
    n_jobs: usize,
) -> (Matrix, Vec<String>) {
    let w = c.cols();
    let time_width = time.map_or(w, |t| t.output_width());
    let width = time_width + pairs.len();
    let blocks = group_blocks(groups);
    obs::counter_add("pipeline.rows", c.rows() as u64);
    obs::counter_add("pipeline.groups", blocks.len() as u64);
    let mut data = vec![0.0; c.rows() * width];
    let c_data = c.as_slice();
    shard_blocks(&mut data, width, &blocks, n_jobs, |start, end, out| {
        let block = &c_data[start * w..end * w];
        expand_block_full(block, w, time, pairs, time_width, width, out);
    });

    let mut names = match time {
        Some(t) => t.names(names_c),
        None => names_c.to_vec(),
    };
    names.extend(product_names(names_c, pairs));
    (Matrix::from_vec(c.rows(), width, data), names)
}

/// Expands one contiguous group block (`block`, row-major with `w`
/// columns) into `out` (row-major with `width` columns): time features
/// first, then products of the original (stage-C) values.
fn expand_block_full(
    block: &[f64],
    w: usize,
    time: Option<&TimeExpander>,
    pairs: &[(usize, usize)],
    time_width: usize,
    width: usize,
    out: &mut [f64],
) {
    let n_rows = block.len().checked_div(w).unwrap_or(0);
    match time {
        Some(t) => {
            let mut acc = vec![0.0; w];
            t.expand_block_into(block, out, width, &mut acc);
        }
        None => {
            for i in 0..n_rows {
                out[i * width..i * width + w].copy_from_slice(&block[i * w..(i + 1) * w]);
            }
        }
    }
    for i in 0..n_rows {
        let orig = &block[i * w..(i + 1) * w];
        let prod = &mut out[i * width + time_width..(i + 1) * width];
        for (dst, &(a, b)) in prod.iter_mut().zip(pairs) {
            *dst = orig[a] * orig[b];
        }
    }
}

/// The original row-cloning stage-D implementation, retained as the
/// reference the streaming path is proven bit-identical against.
pub fn expand_stage_d_legacy(
    c: &Matrix,
    groups: &[u32],
    time: Option<&TimeExpander>,
    pairs: &[(usize, usize)],
    names_c: &[String],
) -> (Matrix, Vec<String>) {
    let time_width = time.map_or(c.cols(), |t| t.output_width());
    let width = time_width + pairs.len();
    let mut data = Vec::with_capacity(c.rows() * width);

    // Partition rows by group, preserving order.
    let mut i = 0;
    while i < c.rows() {
        let g = groups[i];
        let mut j = i;
        while j < c.rows() && groups[j] == g {
            j += 1;
        }
        let block: Vec<Vec<f64>> = (i..j).map(|r| c.row(r).to_vec()).collect();
        for (local, row) in block.iter().enumerate() {
            let mut out = match time {
                Some(t) => t.expand_at(&block, local),
                None => row.clone(),
            };
            apply_products(&mut out, row, pairs);
            data.extend(out);
        }
        i = j;
    }

    let mut names = match time {
        Some(t) => t.names(names_c),
        None => names_c.to_vec(),
    };
    names.extend(product_names(names_c, pairs));
    (Matrix::from_vec(c.rows(), width, data), names)
}

/// A fitted feature pipeline: transforms raw metric windows into model
/// inputs, both in batch (training) and online (per instance) form.
///
/// Fitting and loading compile it into a [`ServingPlan`], shared by
/// every transformer of the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct FittedPipeline {
    config: PipelineConfig,
    pub(super) expander: BaseExpander,
    pub(super) scaler: Option<StandardScaler>,
    pub(super) reduce1: FittedReduction,
    pub(super) time: Option<TimeExpander>,
    pub(super) pairs: Vec<(usize, usize)>,
    pub(super) names_c: Vec<String>,
    pub(super) reduce2: FittedReduction,
    pub(super) keep: Vec<usize>,
    pub(super) names: Vec<String>,
    /// Derived from the fields above; compiled on fit and load, never
    /// serialized.
    serving: Arc<ServingPlan>,
}

impl FittedPipeline {
    /// The configuration used to fit.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Final feature names (model-input space).
    pub fn feature_names(&self) -> &[String] {
        &self.names
    }

    /// Number of model-input features.
    pub fn output_width(&self) -> usize {
        self.names.len()
    }

    /// Width of the intermediate (post-reduction-1) space.
    pub fn reduced_width(&self) -> usize {
        self.names_c.len()
    }

    /// The compiled serving plan.
    pub fn serving_plan(&self) -> &ServingPlan {
        &self.serving
    }

    /// Compiles and attaches the serving plan.
    fn compiled(mut self) -> Result<Self, Error> {
        self.serving = Arc::new(ServingPlan::compile(&self)?);
        Ok(self)
    }

    /// Width of the time-feature span of a stage-D row.
    pub(super) fn time_width(&self) -> usize {
        let rw = self.names_c.len();
        match &self.time {
            Some(t) => t.output_width(),
            None => rw,
        }
    }

    /// Batch transform mirroring the fit-time flow on the serving plan:
    /// stages 1–3 are fused row by row into the reduced matrix (no
    /// intermediate base/scaled matrices) and, unless the first
    /// reduction is PCA, compute only the stage-C columns the outputs
    /// read; stage D/E evaluates only the kept output cells when the
    /// second reduction is a column selection. Rows must be ordered
    /// chronologically within each group. Bit-identical to
    /// [`FittedPipeline::transform_batch_legacy`].
    ///
    /// # Errors
    ///
    /// Propagates scaler/PCA errors.
    pub fn transform_batch(&self, x_raw: &Matrix, groups: &[u32]) -> Result<Matrix, Error> {
        let span = obs::Span::enter("pipeline.transform_batch");
        let rows = x_raw.rows();
        let rw = self.names_c.len();

        let plan = &*self.serving;
        let c = Matrix::from_vec(rows, rw, plan.reduce_batch(self, x_raw)?);

        let out = if plan.is_selective() {
            let ow = self.output_width();
            let blocks = group_blocks(groups);
            obs::counter_add("pipeline.rows", rows as u64);
            obs::counter_add("pipeline.groups", blocks.len() as u64);
            let mut data = vec![0.0; rows * ow];
            let c_slice = c.as_slice();
            shard_blocks(&mut data, ow, &blocks, self.config.n_jobs, |start, end, out| {
                let block = &c_slice[start * rw..end * rw];
                for i in 0..end - start {
                    plan.eval_block_row(block, i, &mut out[i * ow..(i + 1) * ow]);
                }
            });
            Matrix::from_vec(rows, ow, data)
        } else {
            // PCA second stage: the projection needs every stage-D
            // column, so run the full streaming expansion.
            let (d, _) = expand_stage_d(
                &c,
                groups,
                self.time.as_ref(),
                &self.pairs,
                &self.names_c,
                self.config.n_jobs,
            );
            let e = self.reduce2.apply(&d)?;
            e.select_columns(&self.keep)
        };
        if let Some(us) = span.elapsed_us() {
            if us > 0.0 {
                obs::gauge_set("pipeline.transform_batch.rows_per_sec", rows as f64 / us * 1e6);
            }
        }
        Ok(out)
    }

    /// The original batch transform (intermediate matrices at every
    /// stage, row-cloning stage D), retained as the reference path the
    /// streaming [`FittedPipeline::transform_batch`] is proven
    /// bit-identical against.
    ///
    /// # Errors
    ///
    /// Propagates scaler/PCA errors.
    pub fn transform_batch_legacy(&self, x_raw: &Matrix, groups: &[u32]) -> Result<Matrix, Error> {
        let _span = obs::Span::enter("pipeline.transform_batch");
        let mut base_rows: Vec<f64> = Vec::with_capacity(x_raw.rows() * self.expander.len());
        for row in x_raw.iter_rows() {
            base_rows.extend(self.expander.expand(row));
        }
        let mut b = Matrix::from_vec(x_raw.rows(), self.expander.len(), base_rows);
        if let Some(s) = &self.scaler {
            b = s.transform(&b)?;
        }
        let c = self.reduce1.apply(&b)?;
        let (d, _) =
            expand_stage_d_legacy(&c, groups, self.time.as_ref(), &self.pairs, &self.names_c);
        let e = self.reduce2.apply(&d)?;
        Ok(e.select_columns(&self.keep))
    }

    fn transform_window(&self, window: &[Vec<f64>]) -> Result<Vec<f64>, Error> {
        let current = window.last().ok_or(Error::NotFitted)?;
        let mut out = match &self.time {
            Some(t) => t.expand_at(window, window.len() - 1),
            None => current.clone(),
        };
        apply_products(&mut out, current, &self.pairs);
        let reduced = self.reduce2.apply_row(&out)?;
        Ok(self.keep.iter().map(|&i| reduced[i]).collect())
    }

    /// Stages 1–3 for one raw sample — expand, scale, reduce — written
    /// into reusable scratch buffers: no 1-row matrix through the
    /// scaler, no fresh vectors, allocation-free once the buffers have
    /// capacity. Computes every stage-C column; the serving plan uses
    /// it when the first reduction is PCA.
    pub(super) fn reduce_raw_into(
        &self,
        raw: &[f64],
        base: &mut Vec<f64>,
        scaled: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) -> Result<(), Error> {
        self.expander.expand_into(raw, base);
        let srow: &[f64] = match &self.scaler {
            Some(s) => {
                s.transform_row_into(base, scaled)?;
                scaled
            }
            None => base,
        };
        self.reduce1.apply_row_into(srow, out)
    }
}

/// Caller-owned working space for [`InstanceTransformer::push_into`],
/// shared across a whole fleet of transformers.
///
/// Stages 1–3 need up to `2 × expanded_width + reduced_width` f64s of
/// transient space per push (~18 KB at paper scale when the first
/// reduction is PCA). One instance owning that is fine; 100 k instances
/// each owning a copy is ~1.8 GB of scratch that is only ever live for
/// one instance at a time. The fleet tick therefore owns a single
/// `TransformScratch` and lends it to each transformer in turn, leaving
/// per-instance state at just the history ring.
///
/// Buffers grow to their high-water mark on first use and are reused
/// thereafter; a warmed scratch makes `push_into` allocation-free.
#[derive(Debug, Default, Clone)]
pub struct TransformScratch {
    pub(super) base: Vec<f64>,
    pub(super) scaled: Vec<f64>,
    pub(super) reduced: Vec<f64>,
    pub(super) d: Vec<f64>,
    pub(super) e: Vec<f64>,
}

impl TransformScratch {
    /// An empty scratch; buffers grow on first push.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch pre-sized for `pipeline`, so even the first push
    /// through it allocates nothing.
    pub fn for_pipeline(pipeline: &FittedPipeline) -> Self {
        let d_width = pipeline.time_width() + pipeline.pairs.len();
        let (d_cap, e_cap) = if pipeline.serving.is_selective() {
            (0, 0)
        } else {
            (d_width, pipeline.reduce2.output_width(d_width))
        };
        let base_cap = if matches!(pipeline.reduce1, FittedReduction::Pca(_)) {
            pipeline.expander.len()
        } else {
            0
        };
        TransformScratch {
            base: Vec::with_capacity(base_cap),
            scaled: Vec::with_capacity(base_cap),
            reduced: Vec::with_capacity(pipeline.reduced_width()),
            d: Vec::with_capacity(d_cap),
            e: Vec::with_capacity(e_cap),
        }
    }
}

/// Online per-instance transformer: feeds one raw metric vector per
/// second and yields the model-input vector using a rolling window for
/// the time-dependent features — the orchestrator keeps one of these per
/// running container.
///
/// It runs on its pipeline's shared [`ServingPlan`] and owns only a
/// fixed ring of the last [`WINDOW_LEN`] values of the plan's history
/// columns (32 columns, 4 KB, for the paper model). Every intermediate
/// lives in scratch, so steady-state [`InstanceTransformer::push`]
/// performs no heap allocation (asserted by `table1_featurize`'s
/// counting allocator). Fleets that serve many instances should prefer
/// [`InstanceTransformer::push_into`] with one shared
/// [`TransformScratch`]: the internal scratch buffers start empty and
/// only grow if [`InstanceTransformer::push`] itself is called.
#[derive(Debug, Clone)]
pub struct InstanceTransformer {
    pipeline: Arc<FittedPipeline>,
    /// History columns, column-major: [`WINDOW_LEN`] slots per column.
    ring: Vec<f64>,
    /// Ring slot the next sample is written to.
    head: usize,
    filled: usize,
    /// Private working space for [`InstanceTransformer::push`]; stays
    /// empty (zero heap) on instances served via `push_into`.
    scratch: TransformScratch,
    out: Vec<f64>,
    /// Full stage-C rows, oldest first, kept by
    /// [`InstanceTransformer::push_legacy`] only.
    legacy_window: VecDeque<Vec<f64>>,
}

/// Window length required by the 15-second lags (current + 15 history).
pub const WINDOW_LEN: usize = 16;

impl InstanceTransformer {
    /// Creates a transformer bound to a fitted pipeline.
    ///
    /// Only the history ring is preallocated; the private stage-1–3
    /// scratch grows lazily on the first [`InstanceTransformer::push`]
    /// and never materialises on instances served through
    /// [`InstanceTransformer::push_into`].
    pub fn new(pipeline: Arc<FittedPipeline>) -> Self {
        InstanceTransformer {
            ring: vec![0.0; WINDOW_LEN * pipeline.serving.history_width()],
            head: 0,
            filled: 0,
            scratch: TransformScratch::new(),
            out: Vec::new(),
            legacy_window: VecDeque::new(),
            pipeline,
        }
    }

    /// Number of samples seen so far (capped at the window length).
    pub fn warmup(&self) -> usize {
        self.filled
    }

    /// Pushes one raw metric vector and returns the model-input vector,
    /// borrowed from an internal buffer (valid until the next push).
    ///
    /// Early samples use a truncated history, exactly like a training
    /// block's first seconds. Steady state performs no heap allocation.
    ///
    /// # Errors
    ///
    /// Propagates pipeline errors.
    pub fn push(&mut self, raw: &[f64]) -> Result<&[f64], Error> {
        // Lend the private scratch and output buffer to `push_into`;
        // `mem::take` moves the heap pointers without touching the
        // allocator, so this wrapper adds no per-push cost.
        let width = self.pipeline.output_width();
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut out = std::mem::take(&mut self.out);
        out.resize(width, 0.0);
        let result = self.push_into(raw, &mut scratch, &mut out);
        self.scratch = scratch;
        self.out = out;
        result?;
        Ok(&self.out)
    }

    /// [`InstanceTransformer::push`] writing the model-input vector
    /// directly into a caller-provided slice — the fleet serving entry
    /// point: the orchestrator hands each instance its row of the
    /// shared feature matrix plus one fleet-wide [`TransformScratch`],
    /// so a tick over N instances performs zero heap allocation and
    /// carries no per-instance scratch (bit-identical to `push`, which
    /// delegates here, and to [`InstanceTransformer::push_legacy`]).
    ///
    /// The serving plan computes stages 1–3 only for the stage-C
    /// columns the outputs read, stores its history columns in the
    /// ring, and evaluates only the kept output cells.
    ///
    /// # Errors
    ///
    /// Propagates pipeline errors.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the pipeline output width.
    pub fn push_into(
        &mut self,
        raw: &[f64],
        scratch: &mut TransformScratch,
        out: &mut [f64],
    ) -> Result<(), Error> {
        let _span = obs::Span::enter("pipeline.transform_online");
        obs::counter_add("pipeline.online.pushes", 1);
        let p = &*self.pipeline;
        assert_eq!(out.len(), p.output_width(), "output slice must match pipeline width");
        let plan = &*p.serving;
        plan.reduce_raw_into(p, raw, scratch)?;
        let head = self.head;
        self.head = (head + 1) % WINDOW_LEN;
        self.filled = (self.filled + 1).min(WINDOW_LEN);
        plan.eval_ring(p, &mut self.ring, head, self.filled, scratch, out)
    }

    /// The original per-tick path (1-row matrix through the scaler, the
    /// window rows cloned into fresh vectors, full stage-D row),
    /// retained as the reference [`InstanceTransformer::push`] is
    /// proven bit-identical against. It keeps its own window of full
    /// stage-C rows, so the two paths cannot be interleaved on one
    /// instance — feed separate instances the same samples to compare.
    ///
    /// # Errors
    ///
    /// Propagates pipeline errors.
    pub fn push_legacy(&mut self, raw: &[f64]) -> Result<Vec<f64>, Error> {
        let _span = obs::Span::enter("pipeline.transform_online");
        obs::counter_add("pipeline.online.pushes", 1);
        let p = Arc::clone(&self.pipeline);
        let base = p.expander.expand(raw);
        let scaled = match &p.scaler {
            Some(s) => {
                let m = Matrix::from_rows(&[base.as_slice()]);
                s.transform(&m)?.row(0).to_vec()
            }
            None => base,
        };
        let reduced = p.reduce1.apply_row(&scaled)?;
        if self.legacy_window.len() == WINDOW_LEN {
            self.legacy_window.pop_front();
        }
        self.legacy_window.push_back(reduced);
        self.filled = self.legacy_window.len();
        let rows: Vec<Vec<f64>> = self.legacy_window.iter().cloned().collect();
        p.transform_window(&rows)
    }
}

monitorless_std::json_struct!(PipelineConfig {
    normalize,
    reduce1,
    time_features,
    products,
    reduce2,
    seed,
    n_jobs,
});

// Hand-written (rather than `json_struct!`) because the serving plan is
// derived state: it stays off the wire and is recompiled on load, which
// also rejects a corrupt pipeline before it can serve.
impl monitorless_std::json::ToJson for FittedPipeline {
    fn to_json(&self) -> monitorless_std::json::Json {
        use monitorless_std::json::Json;
        let member = |name: &str, value: Json| (name.to_string(), value);
        Json::Obj(vec![
            member("config", self.config.to_json()),
            member("expander", self.expander.to_json()),
            member("scaler", self.scaler.to_json()),
            member("reduce1", self.reduce1.to_json()),
            member("time", self.time.to_json()),
            member("pairs", self.pairs.to_json()),
            member("names_c", self.names_c.to_json()),
            member("reduce2", self.reduce2.to_json()),
            member("keep", self.keep.to_json()),
            member("names", self.names.to_json()),
        ])
    }
}

impl monitorless_std::json::FromJson for FittedPipeline {
    fn from_json(
        json: &monitorless_std::json::Json,
    ) -> Result<Self, monitorless_std::json::JsonError> {
        use monitorless_std::json::{field, JsonError};
        FittedPipeline {
            config: field(json, "config")?,
            expander: field(json, "expander")?,
            scaler: field(json, "scaler")?,
            reduce1: field(json, "reduce1")?,
            time: field(json, "time")?,
            pairs: field(json, "pairs")?,
            names_c: field(json, "names_c")?,
            reduce2: field(json, "reduce2")?,
            keep: field(json, "keep")?,
            names: field(json, "names")?,
            serving: Arc::default(),
        }
        .compiled()
        .map_err(|e| JsonError(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monitorless_metrics::catalog::Catalog;
    use monitorless_metrics::signals::{ContainerSignals, HostSignals};

    /// Builds a toy labeled run: container CPU utilization ramps up and
    /// the label is "cpu util > 0.85".
    fn toy_raw(n: usize, seed: u64) -> (Matrix, Vec<u8>, Vec<u32>) {
        let catalog = Catalog::standard();
        let mut rows = Vec::new();
        let mut y = Vec::new();
        let mut groups = Vec::new();
        for g in 0..2u32 {
            for t in 0..n {
                let util = (t as f64 / n as f64).min(1.0);
                let host = HostSignals {
                    cpu_util: util * 0.9,
                    tcp_estab: 50.0 + 100.0 * util,
                    net_in_bytes: 1e6 * util,
                    ..HostSignals::default()
                };
                let ctr = ContainerSignals {
                    cpu_util: util,
                    mem_util: 0.4,
                    tcp_conns: 20.0 * util,
                    ..ContainerSignals::default()
                };
                let mut v = catalog.expand_host(&host, t as u64, seed ^ u64::from(g));
                v.extend(catalog.expand_container(&ctr, t as u64, seed ^ u64::from(g) ^ 1));
                rows.push(v);
                y.push(u8::from(util > 0.85));
                groups.push(g);
            }
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        (Matrix::from_rows(&refs), y, groups)
    }

    fn layout() -> RawLayout {
        RawLayout::from_catalog(&Catalog::standard()).unwrap()
    }

    #[test]
    fn fit_transform_produces_informative_features() {
        let (x, y, groups) = toy_raw(60, 3);
        let pipeline = FeaturePipeline::new(PipelineConfig::quick());
        let (fitted, xt) = pipeline.fit_transform(&x, &y, &groups, layout()).unwrap();
        assert_eq!(xt.rows(), x.rows());
        assert!(xt.cols() > 0);
        assert_eq!(xt.cols(), fitted.output_width());
        // No zero-variance columns survive.
        assert!(xt.column_stds().iter().all(|&s| s > 0.0));
    }

    #[test]
    fn transform_batch_matches_fit_transform() {
        let (x, y, groups) = toy_raw(40, 5);
        let pipeline = FeaturePipeline::new(PipelineConfig::quick());
        let (fitted, xt) = pipeline.fit_transform(&x, &y, &groups, layout()).unwrap();
        let again = fitted.transform_batch(&x, &groups).unwrap();
        assert_eq!(xt.rows(), again.rows());
        for r in 0..xt.rows() {
            for (a, b) in xt.row(r).iter().zip(again.row(r)) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn streaming_batch_is_bit_identical_to_legacy() {
        let (x, y, groups) = toy_raw(40, 13);
        let pipeline = FeaturePipeline::new(PipelineConfig::quick());
        let (fitted, _) = pipeline.fit_transform(&x, &y, &groups, layout()).unwrap();
        let fast = fitted.transform_batch(&x, &groups).unwrap();
        let legacy = fitted.transform_batch_legacy(&x, &groups).unwrap();
        assert_eq!(fast.rows(), legacy.rows());
        assert_eq!(fast.cols(), legacy.cols());
        for r in 0..fast.rows() {
            for (a, b) in fast.row(r).iter().zip(legacy.row(r)) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {r}");
            }
        }
    }

    #[test]
    fn online_transformer_matches_batch_after_warmup() {
        let (x, y, groups) = toy_raw(40, 7);
        let pipeline = FeaturePipeline::new(PipelineConfig::quick());
        let (fitted, xt) = pipeline.fit_transform(&x, &y, &groups, layout()).unwrap();
        let fitted = Arc::new(fitted);
        let mut online = InstanceTransformer::new(Arc::clone(&fitted));
        let mut online_legacy = InstanceTransformer::new(Arc::clone(&fitted));
        // Feed group 0's rows (first 40 rows).
        for t in 0..40 {
            let legacy = online_legacy.push_legacy(x.row(t)).unwrap();
            let out = online.push(x.row(t)).unwrap();
            // Streaming and legacy online paths are bit-identical at
            // every tick, warmup included.
            for (a, b) in out.iter().zip(&legacy) {
                assert_eq!(a.to_bits(), b.to_bits(), "t={t}");
            }
            if t >= WINDOW_LEN {
                // After warmup the window holds only the last 16 samples;
                // batch lag-15 looks back at most 15 → identical.
                for (a, b) in out.iter().zip(xt.row(t)) {
                    assert!((a - b).abs() < 1e-9, "t={t}");
                }
            }
        }
        assert_eq!(online.warmup(), WINDOW_LEN);
    }

    #[test]
    fn product_features_appear_in_names() {
        let (x, y, groups) = toy_raw(40, 9);
        let pipeline = FeaturePipeline::new(PipelineConfig::quick());
        let (fitted, _) = pipeline.fit_transform(&x, &y, &groups, layout()).unwrap();
        let names = fitted.feature_names();
        assert!(
            names.iter().any(|n| n.contains(" × ")),
            "expected product features among {names:?}"
        );
    }

    #[test]
    fn pca_pipeline_also_works() {
        let (x, y, groups) = toy_raw(30, 11);
        let config = PipelineConfig {
            normalize: true,
            reduce1: Reduction::Pca {
                variance: 0.999,
                max_components: 10,
            },
            time_features: true,
            products: true,
            reduce2: Reduction::Pca {
                variance: 0.999,
                max_components: 8,
            },
            seed: 0,
            n_jobs: 2,
        };
        let (fitted, xt) = FeaturePipeline::new(config)
            .fit_transform(&x, &y, &groups, layout())
            .unwrap();
        assert!(xt.cols() <= 8);
        assert!(fitted.feature_names().iter().all(|n| n.starts_with("PC")));
    }

    #[test]
    fn mismatched_inputs_rejected() {
        let (x, y, _) = toy_raw(10, 1);
        let pipeline = FeaturePipeline::new(PipelineConfig::quick());
        let err = pipeline.fit_transform(&x, &y, &[0, 1], layout());
        assert!(matches!(err, Err(Error::Invalid(_))));
    }
}
