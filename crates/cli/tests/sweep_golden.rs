//! Golden output of chaos `mcc sweep` runs.
//!
//! The files under `tests/data/` hold the exact stdout of two fault-layer
//! sweeps: one with crashes only, and one mixing partitions, brownouts,
//! correlated bursts and transfer failures. Every cost, ratio and fault
//! counter in them goes through the plan's crash lookups and the
//! auditors' fault geometry, so a change to either that moves any result
//! — by one retry or one bit of a mean — fails here. The output must not
//! depend on the worker count either.

const CRASH_ONLY: &str = "sweep poisson --servers 16 --requests 400 --seeds 2 --crash-rate 0.1";
const MIXED: &str = "sweep poisson --servers 8 --requests 300 --seeds 2 --crash-rate 0.2 \
     --partition-rate 0.3 --partition-mean 0.8 --brownout-rate 0.2 --brownout-factor 2.5 \
     --burst-rate 0.1 --burst-coverage 0.6 --fail-prob 0.1";

fn run_line(line: &str) -> String {
    let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
    mcc_cli::run(&argv).unwrap_or_else(|e| panic!("`mcc {line}` failed: {e}"))
}

fn assert_golden(line: &str, golden: &str) {
    for threads in [1, 2] {
        let out = run_line(&format!("{line} --threads {threads}"));
        assert_eq!(
            out, golden,
            "`mcc {line} --threads {threads}` drifted from its golden output"
        );
    }
}

#[test]
fn crash_only_sweep_matches_golden() {
    assert_golden(CRASH_ONLY, include_str!("data/sweep_crash.txt"));
}

#[test]
fn mixed_fault_sweep_matches_golden() {
    assert_golden(MIXED, include_str!("data/sweep_mixed.txt"));
}
