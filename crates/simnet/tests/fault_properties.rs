//! Property tests for the fault-injection layer.
//!
//! For random request sequences and random fault regimes:
//! * the fault-tolerant wrapper keeps Speculative Caching auditor-clean
//!   under *any* seed-derived fault plan (the survival guarantee), with
//!   correlated bursts, partitions, brownouts and total outages included;
//! * degraded mode loses nothing silently: every request is served or
//!   explicitly deferred, and every deferral is replayed or accounted as
//!   a drop at the queue bound;
//! * a trivial fault plan is a strict no-op — the wrapped run is
//!   bit-identical to the bare policy's, schedule and cost alike, and the
//!   faulty cell runner collapses to the fault-free one;
//! * plan expansion into a dirty scratch buffer is bit-identical to a
//!   fresh expansion.

use mcc_core::online::{
    run_policy, run_policy_record, settle, FaultPlan, FaultTolerant, Runtime, SpeculativeCaching,
};
use mcc_model::{CostModel, Instance, Request, ServerId};
use mcc_obs::Registry;
use mcc_simnet::{factory, FaultSpec, PlanScratch, RunMode, RunRequest, ScheduleAuditor};
use mcc_workloads::{CommonParams, PoissonWorkload};
use proptest::prelude::*;

fn random_instance() -> impl Strategy<Value = Instance<f64>> {
    (2usize..=6, 1usize..=50).prop_flat_map(|(m, n)| {
        let servers = proptest::collection::vec(0..m, n);
        let gaps = proptest::collection::vec(0.01f64..4.0, n);
        let mu = 0.2f64..3.0;
        let lambda = 0.2f64..3.0;
        (Just(m), servers, gaps, mu, lambda).prop_map(|(m, servers, gaps, mu, lambda)| {
            let mut t = 0.0;
            let requests: Vec<Request<f64>> = servers
                .into_iter()
                .zip(gaps)
                .map(|(s, gap)| {
                    t += gap;
                    Request::new(ServerId::from_index(s), t)
                })
                .collect();
            Instance::new(m, CostModel::new(mu, lambda).unwrap(), requests).unwrap()
        })
    })
}

/// A spec exercising every fault class: independent crashes, correlated
/// bursts (coverage up to the whole cluster, so total outages happen),
/// partitions, brownouts, transfer failures with a bounded retry budget
/// and backoff, delays, and a small degraded-mode queue (so drops happen).
fn random_spec() -> impl Strategy<Value = FaultSpec> {
    (
        (0u64..u64::MAX, 0.0f64..1.0, 0.05f64..3.0),
        (0.0f64..0.3, 0.0f64..1.0),
        (0.0f64..0.3, 0.05f64..2.0),
        (0.0f64..0.3, 0.05f64..2.0, 1.01f64..4.0),
        (0.0f64..0.3, 0u32..8, 0.0f64..0.2),
        (0u32..8, 0.0f64..0.5),
    )
        .prop_map(
            |(
                (seed, crash_rate, mean_downtime),
                (burst_rate, burst_coverage),
                (partition_rate, partition_mean),
                (brownout_rate, brownout_mean, brownout_factor),
                (fail_prob, retry_budget, backoff_base),
                (queue_cap, mean_delay),
            )| FaultSpec {
                seed,
                crash_rate,
                mean_downtime,
                burst_rate,
                burst_coverage,
                partition_rate,
                partition_mean,
                brownout_rate,
                brownout_mean,
                brownout_factor,
                fail_prob,
                retry_budget,
                backoff_base,
                queue_cap,
                mean_delay,
                tolerant: true,
            },
        )
}

/// Runs wrapped SC under `plan` and audits the outcome with the replay
/// auditor, the reported cost carrying the brownout surcharge exactly as
/// the run pipeline reports it.
fn run_wrapped_and_audit(
    inst: &Instance<f64>,
    plan: &FaultPlan,
) -> (
    mcc_core::online::FaultStats,
    mcc_core::online::RunStats<f64>,
    mcc_simnet::AuditReport,
) {
    let mut wrapped = FaultTolerant::new(SpeculativeCaching::paper(), plan.clone());
    let mut rt = Runtime::new(inst.servers());
    let (stats, rec) = run_policy_record(&mut wrapped, inst, &mut rt);
    let audited = settle(rec, &stats, inst.cost(), Some(plan), Some(wrapped.stats())).audited_cost;
    let report = ScheduleAuditor::default().audit(
        inst,
        &rec.to_schedule(),
        Some(audited),
        Some(stats.transfers),
        Some(plan),
    );
    (wrapped.stats().clone(), stats, report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The survival guarantee: wrapped SC audits clean against every plan
    /// the generator can produce — crashes, correlated bursts, partitions,
    /// brownouts, transfer failures and total outages included.
    #[test]
    fn wrapped_sc_audits_clean_under_any_fault_plan(
        inst in random_instance(),
        spec in random_spec(),
        run_seed in 0u64..64,
    ) {
        let plan = spec.plan_for(run_seed, inst.servers(), inst.horizon());
        let (_, stats, report) = run_wrapped_and_audit(&inst, &plan);
        prop_assert!(
            report.is_clean(),
            "wrapped SC tripped the auditor ({} findings) on {} under plan with {} crashes, \
             {} partitions, {} brownouts: {:?}",
            report.len(),
            inst.to_compact(),
            plan.crashes().len(),
            plan.partitions().len(),
            plan.brownouts().len(),
            format!("{:?} spec: {spec:?}", report.findings.first())
        );
        prop_assert!(stats.total_cost.is_finite());
    }

    /// Degraded-mode conservation: no request is silently lost. Every
    /// request is either served in-schedule or deferred; every deferral is
    /// replayed or accounted as a drop at the queue bound; the peak queue
    /// depth respects the bound.
    #[test]
    fn degraded_mode_conserves_every_request(
        inst in random_instance(),
        spec in random_spec(),
        run_seed in 0u64..64,
    ) {
        let plan = spec.plan_for(run_seed, inst.servers(), inst.horizon());
        let (fstats, stats, report) = run_wrapped_and_audit(&inst, &plan);
        prop_assert_eq!(
            fstats.deferred, stats.deferred,
            "wrapper and executor disagree on the deferral count"
        );
        prop_assert_eq!(
            fstats.deferred,
            fstats.replayed + fstats.dropped,
            "a deferral must end as a replay or an accounted drop"
        );
        prop_assert!(
            fstats.queue_peak <= plan.queue_cap() as usize,
            "queue peak {} exceeded the bound {}",
            fstats.queue_peak,
            plan.queue_cap()
        );
        prop_assert!(report.is_clean(), "conserving run must audit clean");
        // Every dropped or replayed request still has its cost accounted:
        // replays pay λ each (the replay transfer), never NaN/∞.
        prop_assert!(fstats.replay_cost.is_finite());
        prop_assert!(fstats.replay_cost >= 0.0);
    }

    /// Expanding a plan into a scratch buffer dirtied by a *different*
    /// spec is bit-identical to a fresh expansion — for every fault class.
    #[test]
    fn plan_for_into_with_dirty_scratch_matches_fresh(
        dirty_spec in random_spec(),
        spec in random_spec(),
        servers in 1usize..=6,
        run_seed in 0u64..64,
        horizon in 1.0f64..200.0,
    ) {
        let mut plan = FaultPlan::none();
        let mut scratch = PlanScratch::default();
        // Dirty both the plan buffer and the scratch with another regime.
        dirty_spec.plan_for_into(
            run_seed.wrapping_add(17),
            servers,
            horizon * 0.7,
            &mut plan,
            &mut scratch,
        );
        spec.plan_for_into(run_seed, servers, horizon, &mut plan, &mut scratch);
        let fresh = spec.plan_for(run_seed, servers, horizon);
        prop_assert_eq!(&plan, &fresh);
    }

    /// A trivial plan is invisible: same schedule, bit-identical cost, and
    /// zero fault-handling activity.
    #[test]
    fn trivial_plan_is_bit_identical_to_bare_sc(inst in random_instance()) {
        let bare = run_policy(&mut SpeculativeCaching::paper(), &inst);
        let mut wrapped = FaultTolerant::new(SpeculativeCaching::paper(), FaultPlan::none());
        let run = run_policy(&mut wrapped, &inst);
        prop_assert_eq!(run.total_cost.to_bits(), bare.total_cost.to_bits());
        prop_assert_eq!(&run.schedule, &bare.schedule);
        let stats = wrapped.stats();
        prop_assert_eq!(stats.copies_lost, 0);
        prop_assert_eq!(stats.retries, 0);
        prop_assert_eq!(stats.deferred, 0);
        prop_assert_eq!(stats.retry_cost.to_bits(), 0.0f64.to_bits());
    }

    /// The faulty cell runner under `FaultSpec::none()` collapses to the
    /// fault-free runner, bit for bit.
    #[test]
    fn faultless_cells_match_fault_free_cells(
        servers in 2usize..=6,
        requests in 1usize..=40,
        seed in 0u64..512,
    ) {
        let workload = PoissonWorkload::uniform(
            CommonParams { servers, requests, mu: 1.0, lambda: 1.0 },
            1.0,
        );
        let sc = factory(SpeculativeCaching::<f64>::paper());
        let plain = RunRequest::new(RunMode::Plain).run_cell(&sc, &workload, seed..seed + 1);
        let faultless = RunRequest::new(RunMode::from_faults(Some(FaultSpec::none())))
            .run_cell(&sc, &workload, seed..seed + 1);
        prop_assert_eq!(plain.len(), 1);
        prop_assert_eq!(faultless.len(), 1);
        let (p, f) = (&plain[0], &faultless[0]);
        prop_assert_eq!(p.online_cost.to_bits(), f.online_cost.to_bits());
        prop_assert_eq!(p.opt_cost.to_bits(), f.opt_cost.to_bits());
        prop_assert_eq!(p.transfers, f.transfers);
        prop_assert_eq!(p.audit_findings, 0);
        prop_assert_eq!(f.audit_findings, 0);
    }

    /// Observability never feeds back: attaching a live [`Registry`] to
    /// the run pipeline leaves every [`SeedResult`] bit-identical to the
    /// metrics-off run — plain, faulty and oblivious modes alike.
    ///
    /// [`SeedResult`]: mcc_simnet::SeedResult
    #[test]
    fn live_metrics_never_perturb_results(
        servers in 2usize..=6,
        requests in 1usize..=40,
        seed in 0u64..256,
        spec in random_spec(),
        tolerant_bit in 0u8..2,
    ) {
        let tolerant = tolerant_bit == 1;
        let workload = PoissonWorkload::uniform(
            CommonParams { servers, requests, mu: 1.0, lambda: 1.0 },
            1.0,
        );
        let sc = factory(SpeculativeCaching::<f64>::paper());
        let spec = FaultSpec { tolerant, ..spec };
        for mode in [RunMode::Plain, RunMode::from_faults(Some(spec))] {
            let quiet = RunRequest::new(mode).run_cell(&sc, &workload, seed..seed + 2);
            let reg = Registry::new();
            let observed = RunRequest::new(mode)
                .with_sink(&reg)
                .run_cell(&sc, &workload, seed..seed + 2);
            prop_assert_eq!(quiet.len(), observed.len());
            for (q, o) in quiet.iter().zip(&observed) {
                prop_assert_eq!(q.seed, o.seed);
                prop_assert_eq!(q.online_cost.to_bits(), o.online_cost.to_bits());
                prop_assert_eq!(q.opt_cost.to_bits(), o.opt_cost.to_bits());
                prop_assert_eq!(q.ratio.to_bits(), o.ratio.to_bits());
                prop_assert_eq!(q.transfers, o.transfers);
                prop_assert_eq!(q.audit_findings, o.audit_findings);
                match (&q.fault, &o.fault) {
                    (None, None) => {}
                    (Some(qf), Some(of)) => {
                        prop_assert_eq!(qf.stats.retries, of.stats.retries);
                        prop_assert_eq!(qf.stats.copies_lost, of.stats.copies_lost);
                        prop_assert_eq!(qf.stats.deferred, of.stats.deferred);
                        prop_assert_eq!(
                            qf.stats.retry_cost.to_bits(),
                            of.stats.retry_cost.to_bits()
                        );
                    }
                    _ => prop_assert!(false, "fault outcome presence diverged"),
                }
            }
        }
    }
}

/// Satellite regression: a single-server cluster used to be un-runnable
/// under faults (the old `m − 1` availability cap clamped every crash
/// away). Now a crash on the only server is a total outage — requests
/// inside it defer into the offline queue and replay at recovery, the
/// run survives, and the audit comes back clean.
#[test]
fn single_server_cluster_survives_crashes_via_offline_queue() {
    let inst = Instance::new(
        1,
        CostModel::new(1.0, 1.0).unwrap(),
        (1..=8)
            .map(|k| Request::new(ServerId(0), k as f64))
            .collect(),
    )
    .unwrap();
    let spec = FaultSpec {
        seed: 11,
        crash_rate: 0.5,
        mean_downtime: 2.0,
        fail_prob: 0.0,
        mean_delay: 0.0,
        ..FaultSpec::default()
    };
    // Find a run seed whose plan actually crashes the lone server over a
    // request, so degraded mode is exercised (deterministic: the scan
    // order is fixed).
    let (plan, _) = (0u64..256)
        .map(|s| spec.plan_for(s, inst.servers(), inst.horizon()))
        .filter(|p| !p.crashes().is_empty())
        .map(|p| {
            let deferrals = inst
                .requests()
                .iter()
                .filter(|r| p.is_down(ServerId(0), r.time))
                .count();
            (p, deferrals)
        })
        .max_by_key(|&(_, d)| d)
        .expect("some seed in 0..256 must produce a crash window");
    let (fstats, stats, report) = run_wrapped_and_audit(&inst, &plan);
    assert!(
        fstats.deferred > 0,
        "the chosen plan must push requests through the offline queue"
    );
    assert_eq!(fstats.deferred, fstats.replayed + fstats.dropped);
    assert_eq!(fstats.deferred, stats.deferred);
    assert!(report.is_clean(), "m = 1 run must audit clean: {report:?}");
}
