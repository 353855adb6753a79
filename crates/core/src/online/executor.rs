//! Drives an online policy over a request sequence and assembles the
//! outcome.
//!
//! Both runners are thin drivers over the incremental
//! [`OnlineDecider`] API: each materialized request is fed through
//! [`OnlineDecider::observe`], exactly the call a live `mcc-serve`
//! daemon makes per arriving request — batch replay and real-time
//! serving share one decision core.

use mcc_model::{CostModel, Instance, Request, Scalar, Schedule};

use super::decider::OnlineDecider;
use super::fault::{brownout_surcharge, FaultPlan, FaultStats};
use super::policy::{OnlinePolicy, ServeAction};
use super::tracker::{RunRecord, Runtime};

/// The full outcome of one online run.
#[derive(Clone, Debug)]
pub struct OnlineRun<S> {
    /// Policy name.
    pub policy: String,
    /// Raw copy/transfer records (tails preserved).
    pub record: RunRecord<S>,
    /// Per-request serve actions, index `k` for request `r_{k+1}`.
    pub actions: Vec<ServeAction>,
    /// The schedule (normalized) the run materialized.
    pub schedule: Schedule<S>,
    /// Total cost under the instance's cost model.
    pub total_cost: S,
    /// Caching component.
    pub caching_cost: S,
    /// Transfer component.
    pub transfer_cost: S,
}

impl<S: Scalar> OnlineRun<S> {
    /// Number of transfers performed.
    pub fn transfers(&self) -> usize {
        self.record.transfers.len()
    }

    /// Number of requests served from a local live copy.
    pub fn cache_hits(&self) -> usize {
        self.actions
            .iter()
            .filter(|a| matches!(a, ServeAction::Cache))
            .count()
    }
}

/// Scalar summary of one online run, measured straight off the copy and
/// transfer records without materializing a [`Schedule`].
///
/// The cost components are per-record sums (`Σ μ·(to − from)` and `λ` per
/// transfer); they agree with the normalized-schedule costs of
/// [`run_policy`] up to floating-point summation order (≪ any audit
/// tolerance), because normalization only merges abutting intervals and
/// merging preserves total length.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RunStats<S> {
    /// Total cost (`caching_cost + transfer_cost`).
    pub total_cost: S,
    /// Caching component.
    pub caching_cost: S,
    /// Transfer component.
    pub transfer_cost: S,
    /// Number of transfers performed.
    pub transfers: usize,
    /// Requests served from a local live copy.
    pub cache_hits: usize,
    /// Requests deferred into a degraded-mode queue ([`ServeAction::Deferred`])
    /// instead of being served in-schedule. Zero for fault-free policies.
    pub deferred: usize,
}

/// Runs `policy` over `inst`'s request sequence on a caller-provided
/// [`Runtime`] — the zero-allocation twin of [`run_policy`].
///
/// Nothing is materialized: no schedule, no action log, no policy-name
/// string. The runtime is reset, driven, and finalized in place; with a
/// warm runtime the whole run touches no allocator. Feasibility checking
/// is the caller's job (the sweep pipeline audits every run with the
/// streaming auditor; `run_policy` keeps the debug-build referee).
pub fn run_policy_record<'rt, S: Scalar, P: OnlineDecider<S> + ?Sized>(
    policy: &mut P,
    inst: &Instance<S>,
    rt: &'rt mut Runtime<S>,
) -> (RunStats<S>, &'rt RunRecord<S>) {
    policy.reset(inst.servers(), inst.cost());
    rt.reset(inst.servers());
    let mut cache_hits = 0usize;
    let mut deferred = 0usize;
    for i in 1..=inst.n() {
        let req = Request::new(inst.server(i), inst.t(i));
        match policy.observe(req, rt).action {
            ServeAction::Cache => cache_hits += 1,
            ServeAction::Deferred => deferred += 1,
            ServeAction::Transfer { .. } => {}
        }
    }
    policy.on_finish();
    let record = finalize_record(policy, rt, inst.n(), inst.horizon());
    let stats = stats_from_record(record, inst.cost(), cache_hits, deferred);
    (stats, record)
}

/// Finalizes `rt` exactly the way batch replay does: every copy still
/// live closes at the policy's [`OnlinePolicy::close_time`], except that
/// an empty sequence never speculates. Every driver finalizes through it
/// (both executors, `mcc-simnet`'s engine and the `mcc-serve` engine), so
/// a served item and a replayed one finalize bit-identically.
pub fn finalize_record<'rt, S: Scalar, P: OnlinePolicy<S> + ?Sized>(
    policy: &P,
    rt: &'rt mut Runtime<S>,
    requests: usize,
    horizon: S,
) -> &'rt RunRecord<S> {
    if requests == 0 {
        // No service period at all: the initial copy never speculates.
        rt.finalize(|_, last_touch| last_touch)
    } else {
        rt.finalize(|server, last_touch| policy.close_time(server, last_touch, horizon))
    }
}

/// Sums a finished record into [`RunStats`] — one shared summation (same
/// op order, same rounding) for batch replay and the serve engine, so
/// their totals agree to the bit.
pub fn stats_from_record<S: Scalar>(
    record: &RunRecord<S>,
    cost: &mcc_model::CostModel<S>,
    cache_hits: usize,
    deferred: usize,
) -> RunStats<S> {
    let mut caching_cost = S::ZERO;
    for r in &record.records {
        caching_cost = caching_cost + cost.caching(r.to - r.from);
    }
    let mut transfer_cost = S::ZERO;
    for _ in &record.transfers {
        transfer_cost = transfer_cost + cost.lambda;
    }
    RunStats {
        total_cost: caching_cost + transfer_cost,
        caching_cost,
        transfer_cost,
        transfers: record.transfers.len(),
        cache_hits,
        deferred,
    }
}

/// The reported cost of one finished run. See [`settle`].
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Settlement {
    /// The brownout surcharge of the record's geometry under the plan
    /// (`0` without a plan).
    pub brownout_cost: f64,
    /// Schedule cost plus the brownout surcharge: the cost the auditors
    /// check the record against.
    pub audited_cost: f64,
    /// The audited cost plus the fault-tolerant wrapper's retry, replay
    /// and reseed surcharges: the run's reported online cost.
    pub online_cost: f64,
}

/// Settles a finished run: the one cost fold every driver applies, so a
/// replayed seed, a served item and an audited record agree to the bit.
///
/// The fold, in this exact operation order:
/// 1. `stats.total_cost + brownout` is the audited cost, where the
///    brownout surcharge is [`brownout_surcharge`] of `rec` under `plan`;
/// 2. `audited + retry + replay + reseed` is the online cost, the three
///    surcharges read from the wrapper's counters. A run without a
///    wrapper (`surcharges` is `None`) reports its audited cost.
///
/// `plan` is the fault plan the run was degraded by, whether or not the
/// policy knew about it; `None` for a healthy run.
#[inline]
pub fn settle(
    rec: &RunRecord<f64>,
    stats: &RunStats<f64>,
    cost: &CostModel<f64>,
    plan: Option<&FaultPlan>,
    surcharges: Option<&FaultStats>,
) -> Settlement {
    let brownout_cost = plan.map_or(0.0, |plan| brownout_surcharge(plan, rec, cost));
    let audited_cost = stats.total_cost + brownout_cost;
    let online_cost = match surcharges {
        Some(f) => audited_cost + f.retry_cost + f.replay_cost + f.reseed_cost,
        None => audited_cost,
    };
    Settlement {
        brownout_cost,
        audited_cost,
        online_cost,
    }
}

/// Runs `policy` over `inst`'s request sequence (strictly online: one
/// request at a time, in time order).
///
/// The produced schedule is checked against the `mcc-model` referee in
/// debug builds; a policy that fails to serve a request or breaks copy
/// provenance panics immediately rather than producing a bogus cost.
pub fn run_policy<S: Scalar, P: OnlineDecider<S> + ?Sized>(
    policy: &mut P,
    inst: &Instance<S>,
) -> OnlineRun<S> {
    policy.reset(inst.servers(), inst.cost());
    let mut rt = Runtime::new(inst.servers());
    let mut actions = Vec::with_capacity(inst.n());
    for i in 1..=inst.n() {
        let req = Request::new(inst.server(i), inst.t(i));
        actions.push(policy.observe(req, &mut rt).action);
    }
    policy.on_finish();
    finalize_record(policy, &mut rt, inst.n(), inst.horizon());
    let record = rt.into_record();
    let schedule = record.to_schedule();

    #[cfg(debug_assertions)]
    {
        if let Err(errs) =
            mcc_model::validate_with(inst, &schedule, mcc_model::ValidateOptions { tol: 1e-9 })
        {
            panic!(
                "policy `{}` produced an infeasible schedule: {errs:?}",
                policy.name()
            );
        }
    }

    let caching_cost = schedule.caching_cost(inst.cost());
    let transfer_cost = schedule.transfer_cost(inst.cost());
    OnlineRun {
        policy: policy.name(),
        record,
        actions,
        schedule,
        total_cost: caching_cost + transfer_cost,
        caching_cost,
        transfer_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_model::{CostModel, ServerId};

    /// Keep a single copy that follows the requests (inline baseline used
    /// to test the executor; the real one lives in `baselines`).
    struct Follow {
        holder: ServerId,
    }
    impl OnlinePolicy<f64> for Follow {
        fn name(&self) -> String {
            "follow-inline".into()
        }
        fn reset(&mut self, _servers: usize, _cost: &CostModel<f64>) {
            self.holder = ServerId::ORIGIN;
        }
        fn on_request(
            &mut self,
            t: f64,
            server: ServerId,
            rt: &mut dyn super::super::tracker::CopyOps<f64>,
        ) -> ServeAction {
            if server == self.holder {
                rt.touch(server, t);
                ServeAction::Cache
            } else {
                let from = self.holder;
                rt.transfer(from, server, t);
                rt.close(from, t);
                self.holder = server;
                ServeAction::Transfer { from }
            }
        }
    }
    impl OnlineDecider<f64> for Follow {}

    #[test]
    fn executor_runs_and_costs_a_simple_policy() {
        let inst =
            mcc_model::Instance::<f64>::from_compact("m=2 mu=1 lambda=1 | s2@1.0 s1@3.0 s1@4.0")
                .unwrap();
        let run = run_policy(
            &mut Follow {
                holder: ServerId::ORIGIN,
            },
            &inst,
        );
        // Hold origin [0,1], transfer, hold s^2 [1,3], transfer, hold s^1
        // [3,4]: caching 4.0, transfers 2.0.
        assert_eq!(run.total_cost, 6.0);
        assert_eq!(run.transfers(), 2);
        assert_eq!(run.cache_hits(), 1);
        assert_eq!(run.actions[0], ServeAction::Transfer { from: ServerId(0) });
    }

    #[test]
    fn record_runner_matches_the_materializing_one() {
        let inst =
            mcc_model::Instance::<f64>::from_compact("m=2 mu=1 lambda=1 | s2@1.0 s1@3.0 s1@4.0")
                .unwrap();
        let mut policy = Follow {
            holder: ServerId::ORIGIN,
        };
        let full = run_policy(&mut policy, &inst);
        let mut rt = Runtime::new(1);
        let (stats, rec) = run_policy_record(&mut policy, &inst, &mut rt);
        assert!((stats.total_cost - full.total_cost).abs() < 1e-12);
        assert!((stats.caching_cost - full.caching_cost).abs() < 1e-12);
        assert!((stats.transfer_cost - full.transfer_cost).abs() < 1e-12);
        assert_eq!(stats.transfers, full.transfers());
        assert_eq!(stats.cache_hits, full.cache_hits());
        assert_eq!(rec.records, full.record.records);
        assert_eq!(rec.transfers, full.record.transfers);
        // Re-running on the same warm runtime gives the same answer.
        let (again, _) = run_policy_record(&mut policy, &inst, &mut rt);
        assert_eq!(again, stats);
    }

    #[test]
    fn settle_folds_surcharges_in_order() {
        use super::super::fault::BrownoutWindow;
        use super::super::tracker::{CopyRecord, TransferRecord};

        // One copy on s^2 over [1, 5] and one transfer into s^2 at t = 1,
        // under μ = 2, λ = 3: schedule cost 2·4 + 3 = 11.
        let cost = CostModel::new(2.0, 3.0).unwrap();
        let s2 = ServerId::from_index(1);
        let rec = RunRecord {
            records: vec![CopyRecord {
                server: s2,
                from: 1.0,
                last_touch: 5.0,
                to: 5.0,
            }],
            transfers: vec![TransferRecord {
                src: ServerId::ORIGIN,
                dst: s2,
                at: 1.0,
                epoch: 0,
            }],
            epoch_boundaries: Vec::new(),
        };
        let stats = stats_from_record(&rec, &cost, 0, 0);
        assert_eq!(stats.total_cost, 11.0);

        // Healthy run: nothing to add.
        let healthy = settle(&rec, &stats, &cost, None, None);
        assert_eq!(healthy.brownout_cost, 0.0);
        assert_eq!(healthy.audited_cost, 11.0);
        assert_eq!(healthy.online_cost, 11.0);

        // s^2 browned out at factor 3 over [0, 2]: the copy overlaps one
        // unit (μ·(3 − 1)·1 = 4) and the transfer lands inside the window
        // (λ·(3 − 1) = 6), so the surcharge is 10.
        let plan = FaultPlan::none().with_brownouts(vec![BrownoutWindow {
            server: s2,
            from: 0.0,
            to: 2.0,
            factor: 3.0,
        }]);
        let oblivious = settle(&rec, &stats, &cost, Some(&plan), None);
        assert_eq!(oblivious.brownout_cost, 10.0);
        assert_eq!(oblivious.audited_cost, 21.0);
        assert_eq!(oblivious.online_cost, 21.0);

        // Wrapped: retry 1.5, replay 0.25, reseed 4 ride on top of the
        // audited cost; the latency fields and the counters add nothing.
        let f = FaultStats {
            retry_cost: 1.5,
            replay_cost: 0.25,
            reseed_cost: 4.0,
            backoff_wait: 100.0,
            total_delay: 100.0,
            retries: 7,
            ..FaultStats::default()
        };
        let wrapped = settle(&rec, &stats, &cost, Some(&plan), Some(&f));
        assert_eq!(wrapped.audited_cost, 21.0);
        assert_eq!(wrapped.online_cost, 26.75);
        assert_eq!(wrapped.brownout_cost, 10.0);
    }

    #[test]
    fn empty_sequence_is_free() {
        let inst = mcc_model::Instance::<f64>::from_compact("m=2 mu=1 lambda=1 |").unwrap();
        let run = run_policy(
            &mut Follow {
                holder: ServerId::ORIGIN,
            },
            &inst,
        );
        assert_eq!(run.total_cost, 0.0);
        assert!(run.schedule.caches.is_empty());
    }
}
