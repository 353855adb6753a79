//! Streaming-vs-replay auditor equivalence.
//!
//! The streaming auditor ([`mcc_simnet::StreamingAuditor`]) must emit the
//! same *multiset* of findings as the replay auditor
//! ([`mcc_simnet::ScheduleAuditor`]) applied to the normalized schedule of
//! the same run — for random instances, random fault plans, and the
//! policies the sweep actually runs (Speculative Caching bare, wrapped and
//! fault-oblivious, plus Follow). Finding order may differ (replay groups
//! by check, streaming emits by time), so the comparison sorts.

use mcc_core::online::{
    run_policy, run_policy_record, settle, FaultPlan, FaultTolerant, Follow, RunRecord, Runtime,
    SpeculativeCaching,
};
use mcc_model::{CostModel, Instance, Request, ServerId};
use mcc_simnet::fault::FaultSpec;
use mcc_simnet::{AuditFinding, ScheduleAuditor, StreamingAuditor};
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

/// Crash-heavy spec space: high rates and long outages maximize the
/// number of findings the oblivious runs produce, which is where the two
/// auditors have the most opportunity to disagree. Bursts, partitions and
/// brownouts ride along so every finding class (partition-severed
/// transfers, deferral waivers, surcharge drift) is exercised in both.
fn random_spec() -> impl Strategy<Value = FaultSpec> {
    (
        (0u64..u64::MAX, 0.0f64..2.0, 0.05f64..5.0),
        (0.0f64..0.3, 0.0f64..1.0),
        (0.0f64..0.4, 0.05f64..2.0),
        (0.0f64..0.3, 0.05f64..2.0, 1.01f64..4.0),
    )
        .prop_map(
            |(
                (seed, crash_rate, mean_downtime),
                (burst_rate, burst_coverage),
                (partition_rate, partition_mean),
                (brownout_rate, brownout_mean, brownout_factor),
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
                ..FaultSpec::default()
            },
        )
}

fn multiset(findings: &[AuditFinding]) -> Vec<String> {
    let mut v: Vec<String> = findings.iter().map(|f| format!("{f:?}")).collect();
    v.sort();
    v
}

/// Asserts the two auditors agree on `rec`, both with and without the
/// accounting inputs.
fn assert_equivalent(
    inst: &Instance<f64>,
    rec: &RunRecord<f64>,
    reported_cost: f64,
    plan: Option<&FaultPlan>,
) -> Result<(), TestCaseError> {
    let replay = ScheduleAuditor::default();
    let streaming = StreamingAuditor::default();
    let sched = rec.to_schedule();
    for (reported, recorded) in [
        (None, None),
        (Some(reported_cost), Some(rec.transfers.len())),
        // Deliberately wrong accounting inputs must drift identically.
        (Some(reported_cost + 0.75), Some(rec.transfers.len() + 1)),
    ] {
        let a = replay.audit(inst, &sched, reported, recorded, plan);
        let b = streaming.audit_record(inst, rec, reported, recorded, plan);
        prop_assert_eq!(
            multiset(&a.findings),
            multiset(&b.findings),
            "auditors disagree on {} (reported={:?})",
            inst.to_compact(),
            reported
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Fault-oblivious Speculative Caching under a random crash plan: the
    /// richest source of findings (unserved requests, lost copies, dead
    /// transfer sources, coverage gaps).
    #[test]
    fn oblivious_sc_streams_the_replay_findings(
        inst in random_instance(),
        spec in random_spec(),
        run_seed in 0u64..64,
    ) {
        let plan = spec.plan_for(run_seed, inst.servers(), inst.horizon());
        let run = run_policy(&mut SpeculativeCaching::paper(), &inst);
        assert_equivalent(&inst, &run.record, run.total_cost, Some(&plan))?;
    }

    /// Wrapped (fault-tolerant) Speculative Caching: both auditors must
    /// agree the repaired run is clean — and agree finding-for-finding if
    /// it ever is not.
    #[test]
    fn wrapped_sc_streams_the_replay_findings(
        inst in random_instance(),
        spec in random_spec(),
        run_seed in 0u64..64,
    ) {
        let plan = spec.plan_for(run_seed, inst.servers(), inst.horizon());
        let mut wrapped = FaultTolerant::new(SpeculativeCaching::paper(), plan.clone());
        let mut rt = Runtime::new(inst.servers());
        let (stats, rec) = run_policy_record(&mut wrapped, &inst, &mut rt);
        let settled = settle(rec, &stats, inst.cost(), Some(&plan), Some(wrapped.stats()));
        assert_equivalent(&inst, rec, settled.audited_cost, Some(&plan))?;
    }

    /// Follow produces a different record shape (single roaming copy,
    /// no speculative tails); healthy and crashed clusters both.
    #[test]
    fn follow_streams_the_replay_findings(
        inst in random_instance(),
        spec in random_spec(),
    ) {
        let run = run_policy(&mut Follow::new(), &inst);
        assert_equivalent(&inst, &run.record, run.total_cost, None)?;
        let plan = spec.plan_for(3, inst.servers(), inst.horizon());
        assert_equivalent(&inst, &run.record, run.total_cost, Some(&plan))?;
    }
}
