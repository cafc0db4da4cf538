//! Autoscaler bake-off: every scaling backend × every hostile
//! scenario, head to head on the event-driven simulator.
//!
//! ```sh
//! cargo run -p monitorless-bench --bin table_bakeoff --release [-- --full]
//! ```
//!
//! Rows are backend × scenario cells from
//! `monitorless::autoscale::bakeoff::run_cell`: SLO-violation seconds,
//! over-provisioned instance-seconds, scaling lag (p50/p99 of
//! request-to-capacity episodes), cold-start count and oscillation
//! flips. The default quick scale runs the short scenario pack;
//! `--full` runs the hour-long variants with the paper-scale model.
//!
//! Unlike the timing benches this matrix is *behavioral*: a cell is a
//! pure function of `(seed, scale)`, so the committed
//! `results/BENCH_bakeoff.json` (quick scale — exactly what CI
//! replays) is reproducible, not a measurement with noise.
//!
//! `--check <path>` re-runs the matrix at the current scale and fails
//! when (a) the Monitorless backend no longer beats the reactive
//! threshold on at least two scenarios — fewer SLO-violation seconds
//! at equal-or-lower over-provisioned instance-seconds — in either the
//! fresh run or the committed snapshot, or (b) same-scale cells
//! drifted grossly from the committed baseline (beyond small
//! cross-platform float slack).

use std::sync::Arc;

use monitorless::autoscale::backend::{
    MonitorlessScaler, PredictiveTrend, ReactiveThreshold, ScalingBackend,
};
use monitorless::autoscale::bakeoff::{run_cell, BakeoffOptions, CellOutcome};
use monitorless::model::MonitorlessModel;
use monitorless_bench::{telemetry_report, trained_model, Scale, SnapshotGate};
use monitorless_obs as obs;
use monitorless_workload::scenario::Scenario;

/// The whole snapshot, as committed to `results/BENCH_bakeoff.json`.
#[derive(Debug, Clone, PartialEq)]
struct BenchReport {
    scale: String,
    seed: u64,
    slo_ms: f64,
    capacity_rps: f64,
    cells: Vec<CellOutcome>,
}

monitorless_std::json_struct!(BenchReport {
    scale,
    seed,
    slo_ms,
    capacity_rps,
    cells,
});

/// Fresh backend instances, in report order.
fn backends(model: &Arc<MonitorlessModel>) -> Vec<Box<dyn ScalingBackend>> {
    vec![
        Box::new(ReactiveThreshold::hpa_cpu()),
        Box::new(PredictiveTrend::with_horizon(30)),
        Box::new(MonitorlessScaler::with_threshold(model.threshold())),
    ]
}

fn run_matrix(scale: &Scale, model: &Arc<MonitorlessModel>) -> BenchReport {
    let opts = BakeoffOptions::standard(scale.seed);
    let scenarios = Scenario::pack(scale.seed, !scale.full);
    let mut cells = Vec::new();
    for scenario in &scenarios {
        for mut backend in backends(model) {
            let cell =
                run_cell(backend.as_mut(), scenario, model, &opts).expect("bake-off cell runs");
            obs::progress(&format!(
                "{:<20} {:<18} slo {:>5} s  over {:>8.0} inst-s  lag p99 {:>4.0} s  \
                 flips {:>3}  cold {:>3}",
                cell.scenario,
                cell.backend,
                cell.slo_violation_s,
                cell.overprovision_inst_s,
                cell.lag_p99_s,
                cell.flips,
                cell.cold_starts,
            ));
            cells.push(cell);
        }
    }
    BenchReport {
        scale: if scale.full { "full" } else { "quick" }.to_string(),
        seed: scale.seed,
        slo_ms: opts.slo_ms,
        capacity_rps: opts.capacity_rps(),
        cells,
    }
}

fn cell<'r>(report: &'r BenchReport, backend: &str, scenario: &str) -> Option<&'r CellOutcome> {
    report
        .cells
        .iter()
        .find(|c| c.backend == backend && c.scenario == scenario)
}

/// Scenarios where `monitorless` strictly beats `reactive_threshold`
/// on SLO-violation seconds at equal-or-lower over-provisioning.
fn monitorless_wins(report: &BenchReport) -> Vec<String> {
    let mut wins = Vec::new();
    let mut scenarios: Vec<&str> = report.cells.iter().map(|c| c.scenario.as_str()).collect();
    scenarios.dedup();
    for scenario in scenarios {
        let (Some(mono), Some(reactive)) =
            (cell(report, "monitorless", scenario), cell(report, "reactive_threshold", scenario))
        else {
            continue;
        };
        if mono.slo_violation_s < reactive.slo_violation_s
            && mono.overprovision_inst_s <= reactive.overprovision_inst_s
        {
            wins.push(scenario.to_string());
        }
    }
    wins
}

fn check(report: &BenchReport, committed: BenchReport) -> Result<(), String> {
    // The headline claim must hold in the committed snapshot AND keep
    // reproducing in the fresh run.
    for (who, rep) in [("committed snapshot", &committed), ("fresh run", report)] {
        let wins = monitorless_wins(rep);
        if wins.len() < 2 {
            return Err(format!(
                "{who}: monitorless beats reactive_threshold (fewer SLO-violation seconds at \
                 equal-or-lower over-provisioning) on only {} scenario(s) {:?}; need >= 2",
                wins.len(),
                wins
            ));
        }
    }

    // Same-scale cells are pure functions of the seed: allow only
    // small cross-platform float slack, fail on gross drift.
    if committed.scale == report.scale && committed.seed == report.seed {
        for fresh in &report.cells {
            let Some(base) = cell(&committed, &fresh.backend, &fresh.scenario) else {
                return Err(format!(
                    "committed snapshot is missing cell {} x {}",
                    fresh.backend, fresh.scenario
                ));
            };
            let slo_slack = (0.25 * base.slo_violation_s as f64).max(15.0);
            if (fresh.slo_violation_s as f64 - base.slo_violation_s as f64).abs() > slo_slack {
                return Err(format!(
                    "{} x {}: SLO-violation seconds drifted {} -> {} (allowed +-{:.0})",
                    fresh.backend,
                    fresh.scenario,
                    base.slo_violation_s,
                    fresh.slo_violation_s,
                    slo_slack
                ));
            }
            let over_slack = (0.25 * base.overprovision_inst_s).max(30.0);
            if (fresh.overprovision_inst_s - base.overprovision_inst_s).abs() > over_slack {
                return Err(format!(
                    "{} x {}: over-provisioning drifted {:.0} -> {:.0} (allowed +-{:.0})",
                    fresh.backend,
                    fresh.scenario,
                    base.overprovision_inst_s,
                    fresh.overprovision_inst_s,
                    over_slack
                ));
            }
        }
    }
    Ok(())
}

fn main() {
    let scale = Scale::from_args();
    let gate = SnapshotGate::from_args("results/BENCH_bakeoff.json");

    let model = trained_model(&scale);
    let report = run_matrix(&scale, &model);
    let wins = monitorless_wins(&report);
    obs::progress(&format!("monitorless wins on {} scenario(s): {:?}", wins.len(), wins));

    let code = gate.finish("bake-off check", &report, check);
    telemetry_report("table_bakeoff");
    std::process::exit(code);
}
