//! Reconstruction of an optimal schedule `Ψ*(n)` from the DP tables.
//!
//! The paper sketches this as "recursively backtracking the vectors of C
//! and D up to the initial configuration at t = 0" (Fig. 6). Concretely:
//!
//! * `C(i)` chose **Transfer** → the sub-schedule for `r_{i−1}` is optimal
//!   (Lemma 1); emit `H(s_{i−1}, t_{i−1}, t_i)` plus `Tr(s_{i−1}, s_i, t_i)`.
//! * `C(i)` chose **Cache** → materialize the conditional schedule behind
//!   `D(i)`: the final cache `H(s_i, t_{p(i)}, t_i)`, then
//!   * **Direct** (Lemma 3): recurse into the optimal schedule up to
//!     `r_{p(i)}` and serve every intermediate `r_j`, `p(i) < j < i`, at its
//!     marginal bound `b_j` — by its own short cache when `μσ_j < λ`
//!     (extending the copy parked by `r_{p(j)}`), otherwise by a transfer
//!     out of the spanning final cache;
//!   * **Pivot κ** (Lemma 4): recurse into the conditional schedule behind
//!     `D(κ)` and serve the intermediates `κ < j < i` the same way.
//!
//! The result is re-validated (feasibility + exact cost = `C(n)`) by the
//! `mcc-model` referee in this module's tests and in the cross-crate
//! property suite; reconstruction is where a wrong recurrence would
//! surface, because an unachievable cost cannot be materialized.

use mcc_model::{Instance, Prescan, Scalar, Schedule};

use super::fast::SolverWorkspace;
use super::tables::{CStep, DStep, DpSolution};

/// Rebuilds an optimal schedule from a solved workspace: its pre-scan and
/// DP tables.
///
/// `ws` must hold the most recent [`super::solve_fast_in`] or
/// [`super::solve_naive_in`] solve of this same `inst`. The returned
/// schedule is normalized (sorted, merged intervals).
pub fn reconstruct<S: Scalar>(inst: &Instance<S>, ws: &SolverWorkspace<S>) -> Schedule<S> {
    let (scan, sol) = (ws.prescan(), ws.solution());
    let mut sched = Schedule::new();
    let n = inst.n();
    if n > 0 {
        rebuild_c(inst, scan, sol, n, &mut sched);
    }
    sched.normalize();
    sched
}

fn rebuild_c<S: Scalar>(
    inst: &Instance<S>,
    scan: &Prescan<S>,
    sol: &DpSolution<S>,
    i: usize,
    out: &mut Schedule<S>,
) {
    match sol.c_from[i] {
        CStep::Boundary => {}
        CStep::Transfer => {
            let src = inst.server(i - 1);
            let dst = inst.server(i);
            debug_assert_ne!(
                src, dst,
                "self-transfer would mean the cache branch was not preferred on a tie"
            );
            out.cache(src, inst.t(i - 1), inst.t(i));
            out.transfer(src, dst, inst.t(i));
            rebuild_c(inst, scan, sol, i - 1, out);
        }
        CStep::Cache => rebuild_d(inst, scan, sol, i, out),
    }
}

fn rebuild_d<S: Scalar>(
    inst: &Instance<S>,
    scan: &Prescan<S>,
    sol: &DpSolution<S>,
    i: usize,
    out: &mut Schedule<S>,
) {
    let p_i = scan.p[i].expect("D(i) finite requires a real p(i)");
    // The conditional final cache H(s_i, t_{p(i)}, t_i).
    out.cache(inst.server(i), inst.t(p_i), inst.t(i));
    let anchor = match sol.d_from[i] {
        DStep::Infeasible => unreachable!("Cache branch chosen with infeasible D"),
        DStep::Direct => {
            rebuild_c(inst, scan, sol, p_i, out);
            p_i
        }
        DStep::Pivot(kappa) => {
            rebuild_d(inst, scan, sol, kappa, out);
            kappa
        }
    };
    // Serve the intermediates r_j, anchor < j < i, at their marginal bounds.
    for j in anchor + 1..i {
        serve_at_bound(inst, scan, i, j, out);
    }
}

/// Serves intermediate request `r_j` at cost `b_j = min(λ, μσ_j)`: by its
/// own short cache extension when that is cheaper, else by a transfer out
/// of the spanning final cache of request `i` (live throughout
/// `[t_{p(i)}, t_i] ⊃ {t_j}`).
fn serve_at_bound<S: Scalar>(
    inst: &Instance<S>,
    scan: &Prescan<S>,
    i: usize,
    j: usize,
    out: &mut Schedule<S>,
) {
    let cost = inst.cost();
    let cache_cost = scan.sigma[j].map(|s| cost.caching(s));
    match (scan.p[j], cache_cost) {
        (Some(p_j), Some(hold)) if hold < cost.lambda => {
            // Extend the copy parked at s_j by r_{p(j)}.
            out.cache(inst.server(j), inst.t(p_j), inst.t(j));
        }
        _ => {
            debug_assert_ne!(
                inst.server(i),
                inst.server(j),
                "no request shares s_i strictly between p(i) and i"
            );
            out.transfer(inst.server(i), inst.server(j), inst.t(j));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::{solve_fast_in, solve_naive_in};
    use mcc_model::validate;
    use mcc_obs::noop;

    fn check_roundtrip(compact: &str) -> (f64, Schedule<f64>) {
        let inst = Instance::<f64>::from_compact(compact).unwrap();
        let mut ws = SolverWorkspace::new();
        let opt = solve_fast_in(&inst, &mut ws, noop()).optimal_cost();
        let sched = reconstruct(&inst, &ws);
        let validated = validate(&inst, &sched)
            .unwrap_or_else(|errs| panic!("infeasible reconstruction for `{compact}`: {errs:?}"));
        assert!(
            (validated.total - opt).abs() < 1e-9,
            "reconstructed cost {} != C(n) {opt} for `{compact}`",
            validated.total,
        );
        // The naive solver must reconstruct to the same cost too.
        solve_naive_in(&inst, &mut ws, noop());
        let sched2 = reconstruct(&inst, &ws);
        let v2 = validate(&inst, &sched2).expect("naive reconstruction feasible");
        assert!((v2.total - validated.total).abs() < 1e-9);
        (validated.total, sched)
    }

    #[test]
    fn fig6_reconstructs_to_its_optimum() {
        let (cost, sched) =
            check_roundtrip("m=4 mu=1 lambda=1 | s2@0.5 s3@0.8 s4@1.1 s1@1.4 s2@2.6 s2@3.2 s3@4.0");
        assert!((cost - 8.9).abs() < 1e-9);
        // The optimum ends with a transfer into r_7 (C path), so s^3's last
        // touch is the transfer instant t = 4.0.
        assert!(sched.transfers.iter().any(|t| t.at == 4.0));
    }

    #[test]
    fn empty_instance_reconstructs_empty() {
        let inst = Instance::<f64>::from_compact("m=3 mu=1 lambda=1 |").unwrap();
        let mut ws = SolverWorkspace::new();
        solve_fast_in(&inst, &mut ws, noop());
        let sched = reconstruct(&inst, &ws);
        assert!(sched.caches.is_empty() && sched.transfers.is_empty());
    }

    #[test]
    fn pure_caching_chain() {
        let (cost, sched) = check_roundtrip("m=1 mu=1 lambda=1 | s1@1.0 s1@2.5 s1@4.0");
        assert_eq!(cost, 4.0);
        assert!(sched.transfers.is_empty());
        assert_eq!(sched.caches.len(), 1, "chain merges into one interval");
    }

    #[test]
    fn transfer_chain() {
        // Far-apart alternating requests with cheap transfers. Naively one
        // would ping-pong a single copy (3 transfers, cost 33); the DP does
        // better: serve r_1 out of the origin's spanning cache and let s^2
        // cache across r_2 (2 transfers, cost 32).
        let (cost, sched) = check_roundtrip("m=2 mu=10 lambda=1 | s2@1.0 s1@2.0 s2@3.0");
        assert!((cost - 32.0).abs() < 1e-9);
        assert_eq!(sched.transfers.len(), 2);
    }

    #[test]
    fn replication_case() {
        let (cost, sched) = check_roundtrip("m=2 mu=1 lambda=10 | s1@1 s2@2 s1@3 s2@4 s1@5 s2@6");
        assert!((cost - 19.0).abs() < 1e-9);
        assert_eq!(
            sched.transfers.len(),
            1,
            "one replication, then both sides cache"
        );
    }

    #[test]
    fn dense_multi_server_mix() {
        check_roundtrip(
            "m=3 mu=1 lambda=0.7 | s2@0.2 s3@0.3 s2@0.5 s1@0.9 s3@1.0 s3@1.8 s1@2.0 s2@2.1",
        );
    }
}
