//! Theorem-shaped property tests for the online side.
//!
//! For random request sequences:
//! * Speculative Caching produces referee-feasible schedules;
//! * `Π(DT) = Π(SC)` (Definition 10 is cost-preserving);
//! * every inequality in the Theorem 3 chain holds in its corrected form
//!   (`Π(SC) ≤ 3·Π(OPT) + λ`; see `mcc_core::online::reduction` docs);
//! * Lemma 5 (single spanning cache across expensive gaps) and Lemma 6
//!   (`H(s_i, t_{p(i)}, t_i)` present for cheap server intervals) hold
//!   structurally for the reconstructed optimal schedule;
//! * the baselines are feasible and never beat the off-line optimum.

use mcc_core::offline::{optimal_schedule, reconstruct, solve_fast_in, SolverWorkspace};
use mcc_core::online::{
    analyze, double_transfer, run_policy, Follow, KeepEverywhere, OnlineDecider,
    SpeculativeCaching, StayAtOrigin,
};
use mcc_model::{validate_with, Instance, Request, Scalar, ValidateOptions};
use proptest::prelude::*;

fn random_instance() -> impl Strategy<Value = Instance<f64>> {
    (1usize..=6, 0usize..=60).prop_flat_map(|(m, n)| {
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
                    Request::new(mcc_model::ServerId::from_index(s), t)
                })
                .collect();
            Instance::new(m, mcc_model::CostModel::new(mu, lambda).unwrap(), requests).unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// SC is feasible and DT preserves its cost — for the single-epoch
    /// algorithm *and* all epoch variants. The Theorem 3 chain is checked
    /// for the single-epoch run only: epoch resets void the guarantee
    /// against the global optimum (the constructive counterexample lives
    /// in `mcc_core::online::reduction::tests`).
    #[test]
    fn sc_chain_holds(inst in random_instance(), epoch in prop_oneof![
        Just(None), Just(Some(1usize)), Just(Some(3usize)), Just(Some(10usize))
    ]) {
        let mut sc = match epoch {
            None => SpeculativeCaching::paper(),
            Some(n) => SpeculativeCaching::with_epochs(n),
        };
        let run = run_policy(&mut sc, &inst);
        validate_with(&inst, &run.schedule, ValidateOptions { tol: 1e-9 })
            .map_err(|e| TestCaseError::fail(format!("SC infeasible: {e:?} on {}", inst.to_compact())))?;

        let dt = double_transfer(&run.record, inst.cost());
        prop_assert!(
            dt.cost(inst.cost()).approx_eq(run.total_cost, 1e-9),
            "Π(DT) = {} != Π(SC) = {} on {}", dt.cost(inst.cost()), run.total_cost, inst.to_compact()
        );
        // Every DT edge weight ≤ 2λ (α = 1).
        prop_assert!(dt.max_transfer_weight(inst.cost()) <= 2.0 * inst.cost().lambda + 1e-9);

        if epoch.is_none() {
            let report = analyze(&inst, &run);
            report.check_chain(1e-7)
                .map_err(|e| TestCaseError::fail(format!("{e} on {}", inst.to_compact())))?;
        }
    }

    /// Lemma 6: for every request with μσ_i < λ, the reconstructed optimal
    /// schedule contains the cache H(s_i, t_{p(i)}, t_i).
    #[test]
    fn lemma6_short_intervals_are_cached_in_opt(inst in random_instance()) {
        let mut ws = SolverWorkspace::new();
        solve_fast_in(&inst, &mut ws, mcc_obs::noop());
        let sched = reconstruct(&inst, &ws);
        let scan = ws.prescan();
        for i in 1..=inst.n() {
            if let (Some(p_i), Some(sigma)) = (scan.p[i], scan.sigma[i]) {
                if inst.cost().caching(sigma) < inst.cost().lambda {
                    let (from, to) = (inst.t(p_i), inst.t(i));
                    let covered = sched.caches.iter().any(|h| {
                        h.server == inst.server(i)
                            && h.from <= from + 1e-12
                            && h.to + 1e-12 >= to
                    });
                    prop_assert!(
                        covered,
                        "Lemma 6 fails at r_{i} on {}", inst.to_compact()
                    );
                }
            }
        }
    }

    /// Lemma 5: across every gap with μδt > λ, the reconstructed optimal
    /// schedule keeps exactly one live copy.
    #[test]
    fn lemma5_single_copy_across_expensive_gaps(inst in random_instance()) {
        let (sched, _) = optimal_schedule(&inst);
        for i in 1..=inst.n() {
            let gap = inst.delta_t(i - 1, i);
            if inst.cost().caching(gap) > inst.cost().lambda {
                let mid = inst.t(i - 1) + gap / 2.0;
                prop_assert_eq!(
                    sched.copies_at(mid),
                    1,
                    "Lemma 5 fails in gap before r_{} on {}", i, inst.to_compact()
                );
            }
        }
    }

    /// Baselines are feasible and OPT really is a lower bound for all
    /// online policies (including SC).
    #[test]
    fn no_online_policy_beats_opt(inst in random_instance()) {
        let opt = mcc_core::offline::optimal_cost(&inst);
        let policies: Vec<Box<dyn OnlineDecider<f64>>> = vec![
            Box::new(SpeculativeCaching::paper()),
            Box::new(SpeculativeCaching::with_options(0.5, None)),
            Box::new(SpeculativeCaching::with_options(2.0, Some(4))),
            Box::new(Follow::new()),
            Box::new(StayAtOrigin::new()),
            Box::new(KeepEverywhere::new()),
        ];
        for mut p in policies {
            let run = run_policy(p.as_mut(), &inst);
            validate_with(&inst, &run.schedule, ValidateOptions { tol: 1e-9 })
                .map_err(|e| TestCaseError::fail(format!(
                    "{} infeasible: {e:?} on {}", run.policy, inst.to_compact()
                )))?;
            prop_assert!(
                run.total_cost >= opt - 1e-7,
                "{} undercuts OPT ({} < {}) on {}", run.policy, run.total_cost, opt, inst.to_compact()
            );
        }
    }
}
