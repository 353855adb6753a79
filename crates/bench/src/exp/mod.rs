//! Experiment implementations (see DESIGN.md §4 for the index).
//!
//! Each experiment is a function from a [`Scale`] to a report
//! [`mcc_analysis::Section`]; binaries print the section and
//! `reproduce_all` collects them into `target/report/`.

pub mod adversary;
pub mod alpha;
pub mod baseline;
pub mod bench_fleet;
pub mod bench_serve;
pub mod bench_solver;
pub mod bench_sweep;
pub mod breakdown;
pub mod classic;
pub mod epoch;
pub mod fault_adversary;
pub mod faults;
pub mod figs_offline;
pub mod figs_online;
pub mod hetero;
pub mod policies;
pub mod predictability;
pub mod prediction;
pub mod ratio_sweep;
pub mod scaling;
pub mod tables;

/// The benches' timing loop: runs `pass` once to warm up (faults in
/// pages, grows every workspace buffer), then repeats it until
/// `target_secs` of wall time accumulate and at least `min_reps` reps
/// ran, and returns `work` units over the *fastest* rep, per second. The
/// fastest rep, not the mean: interference (scheduler preemption,
/// frequency drift, co-tenants) can only slow a rep down, never speed it
/// up, so the minimum time is the stable estimator of the code's own
/// cost on shared hardware.
pub fn best_rate(work: usize, min_reps: u32, target_secs: f64, mut pass: impl FnMut()) -> f64 {
    pass();
    let mut best = f64::INFINITY;
    let mut reps = 0u32;
    let t0 = std::time::Instant::now();
    loop {
        let rep = std::time::Instant::now();
        pass();
        best = best.min(rep.elapsed().as_secs_f64());
        reps += 1;
        if reps >= min_reps && t0.elapsed().as_secs_f64() >= target_secs {
            break;
        }
    }
    work as f64 / best.max(1e-9)
}

/// Experiment sizing.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Seeds per cell.
    pub seeds: u64,
    /// Requests per generated instance.
    pub requests: usize,
    /// Servers per generated instance.
    pub servers: usize,
}

impl Scale {
    /// Test-sized: completes in well under a second per experiment.
    pub fn quick() -> Self {
        Scale {
            seeds: 4,
            requests: 60,
            servers: 4,
        }
    }

    /// Gate-sized: big enough that per-unit work dominates thread spawn
    /// overhead (the quick grid's 12 tiny units would be
    /// scheduling-bound on a multicore runner), small enough for a CI
    /// re-measure. Used by `bench_sweep --check`'s parallel-efficiency
    /// gate.
    pub fn gate() -> Self {
        Scale {
            seeds: 8,
            requests: 400,
            servers: 8,
        }
    }

    /// Report-sized: what the binaries run by default.
    pub fn full() -> Self {
        Scale {
            seeds: 100,
            requests: 2_000,
            servers: 16,
        }
    }

    /// Picks the scale from process arguments (`--quick` anywhere selects
    /// the test size).
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--quick") {
            Scale::quick()
        } else {
            Scale::full()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_differ() {
        assert!(Scale::quick().seeds < Scale::full().seeds);
        assert!(Scale::quick().requests < Scale::full().requests);
        assert!(Scale::quick().requests < Scale::gate().requests);
        assert!(Scale::gate().requests < Scale::full().requests);
    }
}
