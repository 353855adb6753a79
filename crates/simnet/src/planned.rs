//! Plan-and-repair execution: run a schedule that was planned for a
//! *predicted* request sequence against the sequence that actually
//! arrives.
//!
//! The paper's off-line algorithm assumes the trajectory is known; in
//! deployment it is predicted, and mispredictions must be absorbed at run
//! time. The repair semantics here are the minimal ones a real service
//! would use:
//!
//! * the planned schedule is executed as committed (its full cost is
//!   paid, including caching that turns out useless);
//! * an actual request already covered by a live planned (or repaired)
//!   copy on its server is free;
//! * otherwise it is served by an emergency transfer (`λ`) from a copy
//!   live at that instant, and the delivered copy is dropped immediately
//!   (conservative: repairs never speculate);
//! * if the plan has run out entirely (no copy live at the request time —
//!   e.g. the actual sequence outlives the predicted horizon), the copy
//!   with the latest planned end is held over, paying `μ` per unit time of
//!   extension.
//!
//! The outcome decomposes into planned cost + repair transfers + holdover
//! caching, so experiments can attribute exactly what misprediction
//! costs.

use mcc_core::offline::optimal_schedule;
use mcc_model::{Instance, Scalar, Schedule, ServerId};

/// Cost decomposition of a plan-and-repair execution.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct PlannedOutcome {
    /// Cost of the committed plan (as scheduled).
    pub planned_cost: f64,
    /// Number of emergency transfers.
    pub repair_transfers: usize,
    /// Cost of emergency transfers (`λ · repairs`).
    pub repair_transfer_cost: f64,
    /// Holdover caching paid past the plan's coverage.
    pub holdover_cost: f64,
    /// Requests served for free by planned coverage.
    pub covered: usize,
}

impl PlannedOutcome {
    /// Total realized cost.
    pub fn total(&self) -> f64 {
        self.planned_cost + self.repair_transfer_cost + self.holdover_cost
    }
}

/// Executes `plan` (built for some predicted sequence) against the
/// `actual` instance.
///
/// Any schedule is accepted: one with no cache intervals at all anchors
/// its holdover chain on the origin at `t = 0`.
pub fn execute_plan<S: Scalar>(plan: &Schedule<S>, actual: &Instance<S>) -> PlannedOutcome {
    let cost = actual.cost();
    let planned_cost = plan.cost(cost).to_f64();
    let lambda = cost.lambda.to_f64();
    let mu = cost.mu.to_f64();

    // The latest-ending planned interval seeds the holdover chain.
    let (holdover_server, mut coverage_end) = plan
        .caches
        .iter()
        .map(|h| (h.server, h.to.to_f64()))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or((ServerId::ORIGIN, 0.0));
    let mut holdover_cost = 0.0;

    let mut repair_transfers = 0usize;
    let mut covered = 0usize;

    for i in 1..=actual.n() {
        let t = actual.t(i).to_f64();
        let s = actual.server(i);

        // Covered if a planned copy lives on s at t, or a planned delivery
        // (transfer) arrives exactly then — a correctly predicted request
        // served by a serve-and-drop transfer leaves no interval behind.
        let live_on_s = plan
            .caches
            .iter()
            .any(|h| h.server == s && h.from.to_f64() <= t && t <= h.to.to_f64())
            || plan
                .transfers
                .iter()
                .any(|tr| tr.dst == s && (tr.at.to_f64() - t).abs() <= 1e-9)
            || (s == holdover_server && t <= coverage_end);
        if live_on_s {
            covered += 1;
            continue;
        }
        // Emergency transfer: does any copy live at t?
        let any_live = plan
            .caches
            .iter()
            .any(|h| h.from.to_f64() <= t && t <= h.to.to_f64())
            || t <= coverage_end;
        if !any_live {
            // Plan exhausted: hold the last copy over until now.
            debug_assert!(t > coverage_end);
            holdover_cost += mu * (t - coverage_end);
            coverage_end = t;
        }
        // The delivered repair copy is dropped immediately; the holdover
        // chain stays on the latest-ending planned copy.
        repair_transfers += 1;
    }

    PlannedOutcome {
        planned_cost,
        repair_transfers,
        repair_transfer_cost: lambda * repair_transfers as f64,
        holdover_cost,
        covered,
    }
}

/// Convenience for experiments: plan optimally for `predicted`, execute
/// against `actual`.
pub fn plan_and_execute<S: Scalar>(
    predicted: &Instance<S>,
    actual: &Instance<S>,
) -> PlannedOutcome {
    let (plan, _) = optimal_schedule(predicted);
    execute_plan(&plan, actual)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_model::Instance;

    fn inst(text: &str) -> Instance<f64> {
        Instance::from_compact(text).unwrap()
    }

    #[test]
    fn perfect_prediction_costs_exactly_opt() {
        let actual = inst("m=3 mu=1 lambda=1 | s2@0.5 s3@0.8 s2@1.1 s1@2.0");
        let out = plan_and_execute(&actual, &actual);
        let opt = mcc_core::offline::optimal_cost(&actual);
        assert_eq!(out.repair_transfers, 0);
        assert_eq!(out.holdover_cost, 0.0);
        assert_eq!(out.covered, 4);
        assert!((out.total() - opt).abs() < 1e-9);
    }

    #[test]
    fn wrong_location_triggers_one_repair() {
        // Plan expects s^2 at 0.5; reality asks s^3.
        let predicted = inst("m=3 mu=1 lambda=1 | s2@0.5");
        let actual = inst("m=3 mu=1 lambda=1 | s3@0.5");
        let out = plan_and_execute(&predicted, &actual);
        assert_eq!(out.repair_transfers, 1);
        assert_eq!(out.covered, 0);
        // Planned: hold origin [0, .5] + transfer = 1.5; repair λ = 1.
        assert!((out.total() - 2.5).abs() < 1e-9, "{out:?}");
    }

    #[test]
    fn outliving_the_plan_pays_holdover() {
        let predicted = inst("m=2 mu=1 lambda=1 | s1@1.0");
        // Reality keeps requesting long after the predicted horizon.
        let actual = inst("m=2 mu=1 lambda=1 | s1@1.0 s2@4.0");
        let out = plan_and_execute(&predicted, &actual);
        // Plan: origin [0, 1] (cost 1). r_2 at t=4 on s^2: plan exhausted →
        // hold origin 1→4 (3) + repair transfer (1).
        assert_eq!(out.repair_transfers, 1);
        assert!((out.holdover_cost - 3.0).abs() < 1e-9);
        assert!((out.total() - 5.0).abs() < 1e-9, "{out:?}");
        assert_eq!(out.covered, 1);
    }

    #[test]
    fn realized_cost_is_bounded_below_by_opt() {
        let predicted = inst("m=3 mu=1 lambda=1 | s2@0.5 s2@1.0 s3@1.5");
        let actual = inst("m=3 mu=1 lambda=1 | s3@0.5 s2@1.0 s2@1.5");
        let out = plan_and_execute(&predicted, &actual);
        let opt = mcc_core::offline::optimal_cost(&actual);
        assert!(out.total() >= opt - 1e-9, "{} < {}", out.total(), opt);
        assert!(out.repair_transfers >= 1);
    }
}
