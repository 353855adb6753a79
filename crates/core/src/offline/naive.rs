//! Reference sweeps: identical recurrences, simpler pivot enumeration.
//!
//! Two variants, with an observation the reproduction surfaced:
//!
//! * [`solve_quadratic`] is the "straightforward implementation" the paper
//!   describes before Theorem 2 ("should run in O(n²) time, … dominated by
//!   the need to check at most O(n) previous values in the computation of
//!   D(i)"): for each request it tests *every* earlier request for
//!   membership in `π(i)`. Θ(n²) always — the asymptotic strawman for the
//!   E1 scaling experiment.
//!
//! * [`solve_naive`] scans only the window `(p(i), i)` — every member of
//!   `π(i)` satisfies `p(i) ≤ κ < i`, so nothing outside the window can
//!   qualify. This looks quadratic but is not: window lengths telescope
//!   per server (`Σ_i (i − p(i)) = Σ_servers Σ consecutive-index gaps
//!   ≤ n·m`), so the windowed sweep is **O(nm) worst case** with better
//!   constants than the pointer-matrix algorithm and O(n + m) memory. In
//!   our measurements it outperforms the paper's Theorem 2 structure at
//!   every practical size (see EXPERIMENTS.md E1) — the O(mn) bound of the
//!   paper is right, but the matrix is not needed to achieve it.
//!
//! Both are differential-testing partners of the fast solver: same
//! numbers, very different code paths.

use mcc_model::{Instance, Prescan, Scalar};
use mcc_obs::{Counter, Hist, Sink, Span};

use super::fast::SolverWorkspace;
use super::tables::{run_dp, run_dp_into, DpSolution, PivotSource};

/// Pivot enumeration scanning the window `(p(i), i)`; total work
/// telescopes to O(nm) (see module docs).
struct WindowPivots<'a> {
    p: &'a [Option<usize>],
}

impl PivotSource for WindowPivots<'_> {
    fn for_each_pivot<F: FnMut(usize)>(&mut self, i: usize, p_i: usize, mut f: F) {
        // π(i) = {k : p(k) < p(i) ≤ k < i}; the −∞ dummy compares below
        // every real index.
        for k in p_i.max(1)..i {
            let spans = match self.p[k] {
                None => true,
                Some(pk) => pk < p_i,
            };
            if spans {
                f(k);
            }
        }
    }
}

/// The paper's "straightforward implementation": test every earlier
/// request (Θ(n) per request, Θ(n²) total).
struct FullScanPivots<'a> {
    p: &'a [Option<usize>],
}

impl PivotSource for FullScanPivots<'_> {
    fn for_each_pivot<F: FnMut(usize)>(&mut self, i: usize, p_i: usize, mut f: F) {
        for k in 1..i {
            let in_pi = k >= p_i
                && match self.p[k] {
                    None => true,
                    Some(pk) => pk < p_i,
                };
            if in_pi {
                f(k);
            }
        }
    }
}

/// Solves by the windowed sweep (O(nm) amortized, O(n + m) space).
pub fn solve_naive<S: Scalar>(inst: &Instance<S>) -> DpSolution<S> {
    let mut ws = SolverWorkspace::new();
    solve_naive_in(inst, &mut ws, mcc_obs::noop());
    ws.take_solution()
}

/// [`solve_naive`] into a reusable [`SolverWorkspace`]: the windowed
/// sweep driven off the workspace's pre-scan and DP tables (the pointer
/// matrix stays untouched). Zero heap allocations once warm.
///
/// The run pipeline's solver: it wins on every measured shape (see
/// EXPERIMENTS.md E1). Counts one [`Counter::SweepSolves`] and
/// reports the prescan and DP spans to `sink`; the sweep builds no
/// matrix. The sink never changes what is computed.
pub fn solve_naive_in<'w, S: Scalar>(
    inst: &Instance<S>,
    ws: &'w mut SolverWorkspace<S>,
    sink: &dyn Sink,
) -> &'w DpSolution<S> {
    sink.add(Counter::SweepSolves, 1);
    let _solve = Span::with_hist(sink, Counter::SolveNanos, Hist::SolveNanos);
    {
        let _p = Span::start(sink, Counter::SolvePrescanNanos);
        ws.scan.recompute(inst);
    }
    let _d = Span::start(sink, Counter::SolveDpNanos);
    let mut pivots = WindowPivots { p: &ws.scan.p };
    run_dp_into(inst, &ws.scan, &mut pivots, &mut ws.solution);
    &ws.solution
}

/// Solves by the paper's Θ(n²) straightforward implementation.
pub fn solve_quadratic<S: Scalar>(inst: &Instance<S>) -> DpSolution<S> {
    let scan = Prescan::compute(inst);
    let mut pivots = FullScanPivots { p: &scan.p };
    run_dp(inst, &scan, &mut pivots)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_golden_vectors() {
        // The reconstructed Fig. 6 running example (m = 4, μ = λ = 1). The
        // paper's table pins C = [0, 1.5, 2.8, 4.1, 4.4, ?, ?, 8.9] with
        // C(5) = 6.5, C(6) = 7.1 and D(4..7) = [4.4, 6.5, 7.1, 9.2].
        let inst = Instance::<f64>::from_compact(
            "m=4 mu=1 lambda=1 | s2@0.5 s3@0.8 s4@1.1 s1@1.4 s2@2.6 s2@3.2 s3@4.0",
        )
        .unwrap();
        let sol = solve_naive(&inst);
        let quad = solve_quadratic(&inst);
        let expect_c = [0.0, 1.5, 2.8, 4.1, 4.4, 6.5, 7.1, 8.9];
        for (i, e) in expect_c.iter().enumerate() {
            assert!(
                (sol.c[i] - e).abs() < 1e-9,
                "C({i}) = {} expected {e}",
                sol.c[i]
            );
            assert_eq!(sol.c[i], quad.c[i], "windowed vs full-scan C({i})");
            assert!(sol.d[i] == quad.d[i] || (!sol.d[i].is_finite() && !quad.d[i].is_finite()));
        }
        for i in 1..=3 {
            assert!(!sol.d[i].is_finite(), "D({i}) must be infeasible");
        }
        let expect_d = [4.4, 6.5, 7.1, 9.2];
        for (k, e) in expect_d.iter().enumerate() {
            let i = k + 4;
            assert!(
                (sol.d[i] - e).abs() < 1e-9,
                "D({i}) = {} expected {e}",
                sol.d[i]
            );
        }
        assert!((sol.optimal_cost() - 8.9).abs() < 1e-9);
    }

    #[test]
    fn fig6_branch_provenance() {
        let inst = Instance::<f64>::from_compact(
            "m=4 mu=1 lambda=1 | s2@0.5 s3@0.8 s4@1.1 s1@1.4 s2@2.6 s2@3.2 s3@4.0",
        )
        .unwrap();
        let sol = solve_naive(&inst);
        use super::super::tables::{CStep, DStep};
        // r_1..r_3 are first-on-server: transfers.
        assert_eq!(sol.c_from[1], CStep::Transfer);
        assert_eq!(sol.c_from[2], CStep::Transfer);
        assert_eq!(sol.c_from[3], CStep::Transfer);
        // r_4 on s^1 caches from the boundary (direct anchor).
        assert_eq!(sol.c_from[4], CStep::Cache);
        assert_eq!(sol.d_from[4], DStep::Direct);
        // D(5) chains onto the κ = 4 spanning cache (paper's 6.5 = 4.4 + 2.1).
        assert_eq!(sol.d_from[5], DStep::Pivot(4));
        // Final request arrives by transfer (8.9 = C(6) + 0.8 + 1).
        assert_eq!(sol.c_from[7], CStep::Transfer);
        // ... even though its cache branch D(7) = 9.2 chains on κ = 4.
        assert_eq!(sol.d_from[7], DStep::Pivot(4));
    }
}
