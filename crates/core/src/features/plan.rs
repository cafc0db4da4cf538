//! The serving plan: a fitted pipeline compiled once into the work one
//! transformed row actually needs.
//!
//! A fitted pipeline is wide in the middle and narrow at the ends. At
//! paper scale, stage 1 makes 1,056 base features, the first reduction
//! keeps a few hundred stage-C columns, and stage D expands those into
//! thousands of time and product features. Yet the second reduction and
//! the zero-variance filter keep only ~700 outputs, and every output is
//! one current value, one window mean, one lag or one product. So only
//! the stage-C columns those outputs name need stages 1–3, and only the
//! columns a mean or lag names need history.
//!
//! Compiling a [`ServingPlan`] resolves every kept output column through
//! the `keep` list, the second reduction's selection and the stage-D
//! layout down to stage-C columns, and every stage-C column through the
//! first reduction's selection to one base feature with its scaler
//! moments. Every index is range-checked while compiling, so a corrupt
//! model file fails to load instead of panicking mid-tick.
//!
//! Each evaluation performs the same f64 operations in the same order
//! as the full pipeline, so the results are bit-identical to it
//! (`tests/featurize_equivalence.rs`). The plan is derived state: it is
//! compiled when a pipeline is fitted or loaded, never serialized, and
//! shared behind an `Arc` by every transformer of that pipeline.

use super::base::BaseColumn;
use super::pipeline::{FittedPipeline, TransformScratch, WINDOW_LEN};
use super::reduce::FittedReduction;
use super::timefeat::TIME_LAGS;
use crate::Error;

/// Stages 1–3 for one stage-C column: one base feature, then the
/// scaler's shift and scale for that feature.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ColumnOp {
    /// Stage-C column written.
    c: usize,
    /// Base feature it selects.
    base: BaseColumn,
    /// Scaler `(mean, std)` of that base feature; `None` when the
    /// pipeline does not normalize.
    scale: Option<(f64, f64)>,
}

/// One kept output column, resolved to stage-C values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cell {
    /// Stage-C column `f` of the current row.
    Orig(usize),
    /// Mean of history column `h` over the clamped trailing window of
    /// `lag + 1` samples.
    Avg {
        /// Index into [`ServingPlan::history`].
        h: usize,
        /// Lag distance.
        lag: usize,
    },
    /// History column `h`, `lag` samples ago (clamped at the oldest).
    Lag {
        /// Index into [`ServingPlan::history`].
        h: usize,
        /// Lag distance.
        lag: usize,
    },
    /// Product of stage-C columns `a` and `b` of the current row.
    Product(usize, usize),
}

/// A fitted pipeline compiled for serving (see the module docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServingPlan {
    /// Stage-C width.
    rw: usize,
    /// Stages 1–3 for every stage-C column the outputs read, ascending;
    /// `None` when the first reduction is PCA, whose every component
    /// mixes every base feature.
    columns: Option<Vec<ColumnOp>>,
    /// Stage-C columns read from earlier samples, ascending. Every
    /// column when the second reduction is PCA over time features.
    history: Vec<usize>,
    /// One cell per output column; `None` when the second reduction is
    /// PCA and the full stage-D row is needed.
    cells: Option<Vec<Cell>>,
}

/// Read access to earlier stage-C values: `get(h, r)` is history
/// column `h` at chronological row `r` (0 = oldest held).
trait History {
    fn get(&self, h: usize, r: usize) -> f64;
}

/// A contiguous row-major block of full stage-C rows (batch path).
struct Block<'a> {
    block: &'a [f64],
    rw: usize,
    history: &'a [usize],
}

impl History for Block<'_> {
    #[inline]
    fn get(&self, h: usize, r: usize) -> f64 {
        self.block[r * self.rw + self.history[h]]
    }
}

/// A per-instance ring of history columns: column-major, [`WINDOW_LEN`]
/// slots per column, chronological row 0 at slot `oldest`.
struct Ring<'a> {
    ring: &'a [f64],
    oldest: usize,
}

impl History for Ring<'_> {
    #[inline]
    fn get(&self, h: usize, r: usize) -> f64 {
        self.ring[h * WINDOW_LEN + (self.oldest + r) % WINDOW_LEN]
    }
}

impl ServingPlan {
    /// Compiles `p`, checking every index the plan resolves.
    ///
    /// # Errors
    ///
    /// [`Error::Invalid`] when a selection, the `keep` list, a product
    /// pair, the scaler or the raw layout is inconsistent with the
    /// widths around it.
    pub(super) fn compile(p: &FittedPipeline) -> Result<Self, Error> {
        p.expander.layout().validate()?;
        let base_len = p.expander.len();
        let rw = p.names_c.len();
        let invalid = |what: String| Err(Error::Invalid(format!("fitted pipeline: {what}")));

        let scale = match &p.scaler {
            None => None,
            Some(s) => match (s.means(), s.stds()) {
                (Some(m), Some(d)) if m.len() == base_len && d.len() == base_len => Some((m, d)),
                _ => return invalid(format!("scaler does not cover {base_len} base features")),
            },
        };
        match &p.reduce1 {
            FittedReduction::Select(idx) => {
                if let Some(&j) = idx.iter().find(|&&j| j >= base_len) {
                    return invalid(format!("reduce1 selects {j} of {base_len} base features"));
                }
            }
            FittedReduction::None | FittedReduction::Pca(_) => {}
        }
        let c_width = p.reduce1.output_width(base_len);
        if c_width != rw {
            return invalid(format!("reduce1 yields {c_width} columns, names_c has {rw}"));
        }
        if let Some(t) = &p.time {
            if t.input_width() != rw {
                return invalid(format!("time features expect {} columns", t.input_width()));
            }
        }
        if let Some(&(a, b)) = p.pairs.iter().find(|&&(a, b)| a >= rw || b >= rw) {
            return invalid(format!("product pair ({a}, {b}) out of {rw} columns"));
        }
        let time_width = p.time_width();
        let d_width = time_width + p.pairs.len();
        if let FittedReduction::Select(idx) = &p.reduce2 {
            if let Some(&j) = idx.iter().find(|&&j| j >= d_width) {
                return invalid(format!("reduce2 selects {j} of {d_width} stage-D columns"));
            }
        }
        let e_width = p.reduce2.output_width(d_width);
        if let Some(&k) = p.keep.iter().find(|&&k| k >= e_width) {
            return invalid(format!("keep names column {k} of {e_width}"));
        }
        if p.keep.len() != p.names.len() {
            return invalid(format!("{} kept columns but {} names", p.keep.len(), p.names.len()));
        }

        // Resolve each kept output to a stage-D index, then to a cell
        // over stage-C column `f` (history cells hold `f` until the
        // history set is known).
        let d_index = |k: usize| match &p.reduce2 {
            FittedReduction::Select(idx) => Some(idx[p.keep[k]]),
            FittedReduction::None => Some(p.keep[k]),
            FittedReduction::Pca(_) => None,
        };
        let cells: Option<Vec<Cell>> = (0..p.keep.len())
            .map(|k| {
                let j = d_index(k)?;
                Some(if j >= time_width {
                    let (a, b) = p.pairs[j - time_width];
                    Cell::Product(a, b)
                } else if p.time.is_none() {
                    Cell::Orig(j)
                } else {
                    let (band, f) = (j / rw, j % rw);
                    let n = TIME_LAGS.len();
                    match band {
                        0 => Cell::Orig(f),
                        b if b <= n => Cell::Avg {
                            h: f,
                            lag: TIME_LAGS[b - 1],
                        },
                        b => Cell::Lag {
                            h: f,
                            lag: TIME_LAGS[b - 1 - n],
                        },
                    }
                })
            })
            .collect();

        let (needed, history, cells) = match cells {
            None => {
                let history = if p.time.is_some() {
                    (0..rw).collect()
                } else {
                    Vec::new()
                };
                ((0..rw).collect::<Vec<_>>(), history, None)
            }
            Some(mut cells) => {
                let mut history: Vec<usize> = cells
                    .iter()
                    .filter_map(|c| match *c {
                        Cell::Avg { h, .. } | Cell::Lag { h, .. } => Some(h),
                        Cell::Orig(_) | Cell::Product(..) => None,
                    })
                    .collect();
                history.sort_unstable();
                history.dedup();
                let mut needed = history.clone();
                for cell in &mut cells {
                    match cell {
                        Cell::Orig(f) => needed.push(*f),
                        Cell::Product(a, b) => needed.extend([*a, *b]),
                        Cell::Avg { h, .. } | Cell::Lag { h, .. } => {
                            *h = history.binary_search(h).expect("collected above");
                        }
                    }
                }
                needed.sort_unstable();
                needed.dedup();
                (needed, history, Some(cells))
            }
        };

        let columns = match &p.reduce1 {
            FittedReduction::Pca(_) => None,
            reduce1 => Some(
                needed
                    .iter()
                    .map(|&c| {
                        let j = match reduce1 {
                            FittedReduction::Select(idx) => idx[c],
                            _ => c,
                        };
                        ColumnOp {
                            c,
                            base: p.expander.column(j).expect("checked against base_len"),
                            scale: scale.map(|(m, d)| (m[j], d[j])),
                        }
                    })
                    .collect(),
            ),
        };
        Ok(ServingPlan {
            rw,
            columns,
            history,
            cells,
        })
    }

    /// Number of history columns each instance keeps.
    pub fn history_width(&self) -> usize {
        self.history.len()
    }

    /// Whether the outputs are evaluated cell by cell (the second
    /// reduction is a selection) rather than through a full stage-D
    /// row.
    pub(super) fn is_selective(&self) -> bool {
        self.cells.is_some()
    }

    /// Stages 1–3 for one raw sample into `scratch.reduced` (`rw` long).
    /// Only the columns the plan reads are written; the rest keep
    /// whatever they held and are never read.
    pub(super) fn reduce_raw_into(
        &self,
        p: &FittedPipeline,
        raw: &[f64],
        scratch: &mut TransformScratch,
    ) -> Result<(), Error> {
        match &self.columns {
            Some(ops) => {
                assert_eq!(raw.len(), p.expander.layout().raw_len(), "raw vector length");
                scratch.reduced.resize(self.rw, 0.0);
                write_columns(ops, p, raw, &mut scratch.reduced);
                Ok(())
            }
            None => {
                p.reduce_raw_into(raw, &mut scratch.base, &mut scratch.scaled, &mut scratch.reduced)
            }
        }
    }

    /// Stages 1–3 for a whole batch of raw rows into a row-major
    /// `rows × rw` stage-C buffer, computing only the columns the plan
    /// reads (the rest stay 0.0 and are never read).
    pub(super) fn reduce_batch(
        &self,
        p: &FittedPipeline,
        x_raw: &monitorless_learn::Matrix,
    ) -> Result<Vec<f64>, Error> {
        let rw = self.rw;
        let mut c_data = Vec::with_capacity(x_raw.rows() * rw);
        match &self.columns {
            Some(ops) => {
                assert_eq!(x_raw.cols(), p.expander.layout().raw_len(), "raw vector length");
                c_data.resize(x_raw.rows() * rw, 0.0);
                for (raw, row) in x_raw.iter_rows().zip(c_data.chunks_exact_mut(rw.max(1))) {
                    write_columns(ops, p, raw, row);
                }
            }
            None => {
                let mut scratch = TransformScratch::new();
                for raw in x_raw.iter_rows() {
                    p.reduce_raw_into(
                        raw,
                        &mut scratch.base,
                        &mut scratch.scaled,
                        &mut scratch.reduced,
                    )?;
                    c_data.extend_from_slice(&scratch.reduced);
                }
            }
        }
        Ok(c_data)
    }

    /// Evaluates chronological row `i` of a contiguous block of full
    /// stage-C rows into `out`, one value per output cell.
    ///
    /// # Panics
    ///
    /// Panics if the plan is not selective.
    pub(super) fn eval_block_row(&self, block: &[f64], i: usize, out: &mut [f64]) {
        let cells = self.cells.as_deref().expect("selective plan");
        let rw = self.rw;
        let hist = Block {
            block,
            rw,
            history: &self.history,
        };
        eval_cells(cells, &block[i * rw..(i + 1) * rw], &hist, i, out);
    }

    /// The online step after stages 1–3: stores the history columns of
    /// `scratch.reduced` in `ring` at slot `head`, then evaluates the
    /// newest of `filled` samples (the new one included) into `out`.
    pub(super) fn eval_ring(
        &self,
        p: &FittedPipeline,
        ring: &mut [f64],
        head: usize,
        filled: usize,
        scratch: &mut TransformScratch,
        out: &mut [f64],
    ) -> Result<(), Error> {
        let cur = &scratch.reduced;
        for (h, &f) in self.history.iter().enumerate() {
            ring[h * WINDOW_LEN + head] = cur[f];
        }
        let hist = Ring {
            ring,
            oldest: (head + 1 + WINDOW_LEN - filled) % WINDOW_LEN,
        };
        let i = filled - 1;
        match &self.cells {
            Some(cells) => eval_cells(cells, cur, &hist, i, out),
            None => {
                expand_full(p, cur, &hist, i, &mut scratch.d);
                p.reduce2.apply_row_into(&scratch.d, &mut scratch.e)?;
                for (dst, &k) in out.iter_mut().zip(&p.keep) {
                    *dst = scratch.e[k];
                }
            }
        }
        Ok(())
    }
}

/// Writes each op's stage-C column of `raw` into `row`: the base
/// feature, minus the scaler mean, divided by the scaler std when it is
/// positive — the scaler's own per-cell order.
#[inline]
fn write_columns(ops: &[ColumnOp], p: &FittedPipeline, raw: &[f64], row: &mut [f64]) {
    for op in ops {
        let mut v = p.expander.value(op.base, raw);
        if let Some((mean, std)) = op.scale {
            v -= mean;
            if std > 0.0 {
                v /= std;
            }
        }
        row[op.c] = v;
    }
}

/// Evaluates the cells for chronological row `i`, whose stage-C values
/// are `cur`. Each window mean re-adds its samples oldest first — the
/// same left-to-right f64 adds as the full stage-D expansion.
#[inline]
fn eval_cells<H: History>(cells: &[Cell], cur: &[f64], hist: &H, i: usize, out: &mut [f64]) {
    for (dst, cell) in out.iter_mut().zip(cells) {
        *dst = match *cell {
            Cell::Orig(f) => cur[f],
            Cell::Avg { h, lag } => {
                let start = i.saturating_sub(lag);
                let n = (i - start + 1) as f64;
                let mut acc = 0.0;
                for r in start..=i {
                    acc += hist.get(h, r);
                }
                acc / n
            }
            Cell::Lag { h, lag } => hist.get(h, i.saturating_sub(lag)),
            Cell::Product(a, b) => cur[a] * cur[b],
        };
    }
}

/// The full stage-D row for chronological row `i` (time features, then
/// products), for a PCA second reduction. History holds every stage-C
/// column here, so history column `h` is stage-C column `h`.
/// Bit-identical to `TimeExpander::expand_at` + `apply_products`.
fn expand_full<H: History>(p: &FittedPipeline, cur: &[f64], hist: &H, i: usize, d: &mut Vec<f64>) {
    d.clear();
    d.extend_from_slice(cur);
    if p.time.is_some() {
        let rw = cur.len();
        for &x in &TIME_LAGS {
            let start = i.saturating_sub(x);
            let n = (i - start + 1) as f64;
            for f in 0..rw {
                let mut acc = 0.0;
                for r in start..=i {
                    acc += hist.get(f, r);
                }
                d.push(acc / n);
            }
        }
        for &x in &TIME_LAGS {
            let j = i.saturating_sub(x);
            d.extend((0..rw).map(|f| hist.get(f, j)));
        }
    }
    for &(a, b) in &p.pairs {
        d.push(cur[a] * cur[b]);
    }
}
