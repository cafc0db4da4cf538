//! Observability-overhead snapshot: what drift tracing, prediction
//! attribution and the causal journal cost on the serving path.
//!
//! ```sh
//! cargo run -p monitorless-bench --bin table_obs --release [-- --full]
//! ```
//!
//! Writes a machine-readable report to `results/BENCH_obs.json`
//! (override with `--out <path>`). The forest under test is the same
//! paper-shaped ensemble as `table7_predict` (250 trees, entropy,
//! `min_samples_leaf 20`) trained on a 20k-row metric-shaped dataset,
//! and each size (1k and 100k rows; `--full` adds 1M) scores the same
//! matrix through three serving configurations:
//!
//! * **plain** — `predict_row` with tracing off. A counting global
//!   allocator asserts this loop performs **zero** heap allocations:
//!   carrying the attribution table (`node_value`) must not reintroduce
//!   allocation into the autoscaler hot path.
//! * **traced** — the same walk plus one ring-journal record per row
//!   (trace mint + `obs::record`), the way the orchestrator journals a
//!   tick under `--trace ring`.
//! * **attributed** — `predict_row_attributed` filling a reused
//!   per-feature contribution buffer. Its probability is asserted
//!   bit-identical to the plain walk on every row, so the overhead
//!   number always describes the same predictions.
//!
//! A separate micro-section times raw `obs::record` appends to size the
//! journal itself, and reports how many records survived in the ring
//! versus were overwritten (the ring keeps the newest
//! `JOURNAL_CAPACITY`).
//!
//! `--check <path>` re-measures at the current scale and exits non-zero
//! if observability got expensive: plain or attributed wall time more
//! than 2x the committed snapshot for the same matrix size (coarse — it
//! must survive CI machine variance), or a same-run attribution-off
//! journal overhead above 10% of the bare predict walk at every
//! measured size (a real record-path regression is size-independent;
//! single-size excursions are CI noise).

use std::time::Instant;

use monitorless_bench::{alloc_events, telemetry_report, CountingAlloc, SnapshotGate};
use monitorless_learn::{Classifier, FlatEnsemble, Matrix, RandomForest, RandomForestParams};
use monitorless_obs as obs;
use monitorless_std::rng::{Rng, StdRng};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One matrix size's serving-path measurement.
#[derive(Debug, Clone, PartialEq)]
struct SizeResult {
    rows: usize,
    cols: usize,
    n_trees: usize,
    n_nodes: usize,
    /// `predict_row` loop, tracing off (ms for the whole matrix).
    plain_ms: f64,
    /// `predict_row` plus one ring-journal record per row (ms).
    traced_ms: f64,
    /// `predict_row_attributed` loop, reused contribution buffer (ms).
    attributed_ms: f64,
    /// Same-run `(traced - plain) / plain`, in percent: the cost of the
    /// audit trail with attribution off.
    journal_overhead_pct: f64,
    /// Same-run `attributed / plain` ratio.
    attribution_ratio: f64,
    /// Allocation events per row in the plain loop (must be 0).
    plain_allocs_per_row: f64,
}

monitorless_std::json_struct!(SizeResult {
    rows,
    cols,
    n_trees,
    n_nodes,
    plain_ms,
    traced_ms,
    attributed_ms,
    journal_overhead_pct,
    attribution_ratio,
    plain_allocs_per_row,
});

/// Raw journal append throughput.
#[derive(Debug, Clone, PartialEq)]
struct JournalResult {
    /// Microseconds per `obs::record` append in ring mode.
    record_us: f64,
    /// Microseconds per `obs::record` call with tracing off (the no-op
    /// guard everyone pays in production defaults).
    record_off_us: f64,
    /// Records appended in the micro-section.
    appended: f64,
    /// Records still in the ring afterwards (capacity bound).
    queued: f64,
    /// Records evicted by overwrite (appended beyond capacity).
    overwritten: f64,
}

monitorless_std::json_struct!(JournalResult {
    record_us,
    record_off_us,
    appended,
    queued,
    overwritten,
});

/// The whole snapshot, as committed to `results/BENCH_obs.json`.
#[derive(Debug, Clone, PartialEq)]
struct BenchReport {
    scale: String,
    seed: u64,
    sizes: Vec<SizeResult>,
    journal: JournalResult,
}

monitorless_std::json_struct!(BenchReport {
    scale,
    seed,
    sizes,
    journal,
});

/// Synthetic matrix shaped like the paper's feature tables — the same
/// five-column mix as `table7_predict`, so the plain-path numbers are
/// directly comparable with that bench's tick section.
fn dataset(n: usize, d: usize, seed: u64) -> (Matrix, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(n * d);
    let mut y = Vec::with_capacity(n);
    let mut row = vec![0.0; d];
    for _ in 0..n {
        for (c, v) in row.iter_mut().enumerate() {
            *v = match c % 5 {
                0 => rng.gen::<f64>(),
                1 => (rng.gen::<f64>() * 1000.0).floor() / 10.0,
                2 => (rng.gen::<f64>() * 256.0).floor(),
                3 => (rng.gen::<f64>() * 8.0).floor(),
                _ => rng.gen::<f64>(),
            };
        }
        let score = row[0]
            + 0.7 * row[d.min(6) - 1]
            + 0.5 * row[5 % d]
            + 0.8 * row[0] * row[5 % d]
            + (rng.gen::<f64>() - 0.5) * 0.9;
        y.push(u8::from(score > 1.3));
        data.extend_from_slice(&row);
    }
    (Matrix::from_vec(n, d, data), y)
}

/// Milliseconds of the fastest of `reps` runs of `f`.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let out = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1000.0);
        drop(out);
    }
    best
}

/// Switches the journal trace mode while keeping the export format.
fn set_trace(mode: obs::TraceMode) {
    obs::init(&obs::TelemetryConfig::with_format(obs::format()).with_trace(mode));
}

fn measure_size(flat: &FlatEnsemble, n_trees: usize, rows: usize, seed: u64) -> SizeResult {
    let cols = 30;
    let (x, _) = dataset(rows, cols, seed.wrapping_add(rows as u64));
    // Best-of-N everywhere the wall time allows; the 1M-row size (tens
    // of seconds per walk) runs once.
    let reps = match rows {
        r if r >= 1_000_000 => 1,
        r if r >= 100_000 => 3,
        _ => 5,
    };

    obs::progress(&format!("serving path, {rows} x {cols}, {n_trees} trees..."));

    set_trace(obs::TraceMode::Off);
    let mut plain = vec![0.0; rows];
    let mut attributed = vec![0.0; rows];
    let mut contrib = vec![0.0; flat.n_features()];
    // Warm up once so the timed loops start from steady state.
    for (r, p) in plain.iter_mut().enumerate() {
        *p = flat.predict_row(x.row(r));
    }

    // Interleave the three serving configurations rep by rep: on a
    // shared core a noise burst then hits all three samples alike and
    // mostly cancels out of the overhead ratios, where back-to-back rep
    // groups would let one configuration absorb the whole burst.
    let mut plain_ms = f64::INFINITY;
    let mut traced_ms = f64::INFINITY;
    let mut attributed_ms = f64::INFINITY;
    let mut plain_allocs = 0u64;
    for _ in 0..reps {
        // --- plain: tracing off, must be allocation-free ---
        let alloc0 = alloc_events();
        plain_ms = plain_ms.min(time_ms(1, || {
            for (r, p) in plain.iter_mut().enumerate() {
                *p = flat.predict_row(x.row(r));
            }
        }));
        plain_allocs += alloc_events() - alloc0;

        // --- traced: one ring-journal record per row ---
        set_trace(obs::TraceMode::Ring);
        traced_ms = traced_ms.min(time_ms(1, || {
            let mut sink = 0.0;
            for r in 0..rows {
                let p = flat.predict_row(x.row(r));
                obs::record("bench.predict", obs::next_trace(), &[("proba", p)], &[]);
                sink += p;
            }
            assert!(sink.is_finite());
        }));
        set_trace(obs::TraceMode::Off);
        let _ = obs::drain();

        // --- attributed: per-feature contributions, reused buffer ---
        attributed_ms = attributed_ms.min(time_ms(1, || {
            for (r, p) in attributed.iter_mut().enumerate() {
                *p = flat.predict_row_attributed(x.row(r), &mut contrib);
            }
        }));
    }
    assert!(
        plain_allocs == 0,
        "attribution-off predict loop allocated ({plain_allocs} events over {reps} reps); the \
         serving hot path must stay allocation-free"
    );

    // The overhead claim only holds if both walks scored identically.
    for (r, (p, a)) in plain.iter().zip(&attributed).enumerate() {
        assert_eq!(
            p.to_bits(),
            a.to_bits(),
            "attributed and plain predictions diverged on row {r} at {rows} rows ({a} vs {p})",
        );
    }

    let r = SizeResult {
        rows,
        cols,
        n_trees,
        n_nodes: flat.n_nodes(),
        plain_ms,
        traced_ms,
        attributed_ms,
        journal_overhead_pct: 100.0 * (traced_ms - plain_ms) / plain_ms,
        attribution_ratio: attributed_ms / plain_ms,
        plain_allocs_per_row: plain_allocs as f64 / rows as f64,
    };
    obs::progress(&format!(
        "  plain {:.1} ms, traced {:.1} ms ({:+.1}%), attributed {:.1} ms ({:.2}x)",
        r.plain_ms, r.traced_ms, r.journal_overhead_pct, r.attributed_ms, r.attribution_ratio
    ));
    r
}

fn measure_journal() -> JournalResult {
    const APPENDS: usize = 100_000;
    obs::progress("journal append micro-section...");

    set_trace(obs::TraceMode::Off);
    let t0 = Instant::now();
    for i in 0..APPENDS {
        obs::record("bench.journal", i as u64 + 1, &[("i", i as f64)], &[]);
    }
    let record_off_us = t0.elapsed().as_secs_f64() * 1e6 / APPENDS as f64;

    set_trace(obs::TraceMode::Ring);
    let _ = obs::drain();
    let before = obs::journal_stats();
    let t0 = Instant::now();
    for i in 0..APPENDS {
        obs::record("bench.journal", i as u64 + 1, &[("i", i as f64)], &[("path", "bench")]);
    }
    let record_us = t0.elapsed().as_secs_f64() * 1e6 / APPENDS as f64;
    let after = obs::journal_stats();
    set_trace(obs::TraceMode::Off);
    let _ = obs::drain();

    let r = JournalResult {
        record_us,
        record_off_us,
        appended: (after.records - before.records) as f64,
        queued: after.queued as f64,
        overwritten: (after.overwritten - before.overwritten) as f64,
    };
    obs::progress(&format!(
        "  append {:.3} us (off {:.4} us); {} appended, {} queued, {} overwritten",
        r.record_us, r.record_off_us, r.appended, r.queued, r.overwritten
    ));
    // The ring keeps the newest records and evicts the rest.
    assert_eq!(r.appended as usize, APPENDS);
    assert_eq!(r.queued + r.overwritten, r.appended);
    r
}

fn check(report: &BenchReport, committed: BenchReport) -> Result<(), String> {
    // The journal gate fires only when every size exceeds the limit: a
    // real regression in the record path is size-independent, while a
    // noise burst on a shared CI core hits one measurement at a time.
    let min_overhead = report
        .sizes
        .iter()
        .map(|s| s.journal_overhead_pct)
        .fold(f64::INFINITY, f64::min);
    if min_overhead > 10.0 {
        return Err(format!(
            "ring-journal overhead on the attribution-off path is above 10% at every size \
             (best {min_overhead:.1}%)"
        ));
    }
    for current in &report.sizes {
        let Some(baseline) = committed.sizes.iter().find(|s| s.rows == current.rows) else {
            continue;
        };
        if current.plain_ms > 2.0 * baseline.plain_ms {
            return Err(format!(
                "plain predict at {} rows took {:.1} ms, more than 2x the committed {:.1} ms",
                current.rows, current.plain_ms, baseline.plain_ms
            ));
        }
        if current.attributed_ms > 2.0 * baseline.attributed_ms {
            return Err(format!(
                "attributed predict at {} rows took {:.1} ms, more than 2x the committed \
                 {:.1} ms",
                current.rows, current.attributed_ms, baseline.attributed_ms
            ));
        }
    }
    Ok(())
}

fn main() {
    let scale = monitorless_bench::Scale::from_args();
    // The attribution counters only record with telemetry on; default to
    // a quiet snapshot-only format so the report always carries them.
    if !obs::enabled() {
        obs::init(&obs::TelemetryConfig::with_format(obs::ExportFormat::Prom));
    }
    let gate = SnapshotGate::from_args("results/BENCH_obs.json");

    obs::progress("training paper-shaped forest (250 trees, 20k rows)...");
    let (xt, yt) = dataset(20_000, 30, scale.seed);
    let mut forest = RandomForest::new(RandomForestParams {
        n_jobs: 1,
        seed: scale.seed,
        ..RandomForestParams::paper_selected()
    });
    forest
        .fit(&xt, &yt, None)
        .expect("paper-shaped forest trains on the synthetic dataset");
    let flat = forest.to_flat();
    let n_trees = forest.trees().len();

    let sizes: &[usize] = if scale.full {
        &[1_000, 100_000, 1_000_000]
    } else {
        &[1_000, 100_000]
    };
    let report = BenchReport {
        scale: if scale.full {
            "full".into()
        } else {
            "quick".into()
        },
        seed: scale.seed,
        sizes: sizes
            .iter()
            .map(|&n| measure_size(&flat, n_trees, n, scale.seed))
            .collect(),
        journal: measure_journal(),
    };

    let code = gate.finish("obs overhead check", &report, check);
    telemetry_report("table_obs");
    std::process::exit(code);
}
