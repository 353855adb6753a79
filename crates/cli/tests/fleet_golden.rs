//! Golden output of `mcc fleet` runs, audited and unaudited.
//!
//! The files under `tests/data/` hold the exact stdout of one small
//! LRU-capacitated fleet run with the per-item audit on and with
//! `--no-audit`. Every cost, ratio, percentile and eviction count in
//! them goes through the batched run pipeline and the capacity sweep, so
//! a change that moves any result fails here. The audit is pure
//! observation: the two files differ only in how the findings line
//! reports it. The header line names the worker count, so it is checked
//! per thread count; everything below it must not depend on the count.

const FLEET: &str = "fleet --items 2000 --servers 8 --requests 8 --capacity 64 --eviction lru";

fn run_line(line: &str) -> String {
    let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
    mcc_cli::run(&argv).unwrap_or_else(|e| panic!("`mcc {line}` failed: {e}"))
}

fn assert_golden(line: &str, golden: &str) {
    let (_, golden_body) = golden
        .split_once('\n')
        .expect("golden output has a header line");
    for (threads, noun) in [(1, "thread"), (2, "threads")] {
        let out = run_line(&format!("{line} --threads {threads}"));
        let (header, body) = out.split_once('\n').unwrap_or((&out, ""));
        assert_eq!(
            header,
            format!("fleet: 2000 items × 8 requests on 8 servers ({threads} {noun})"),
            "`mcc {line} --threads {threads}` header drifted"
        );
        assert_eq!(
            body, golden_body,
            "`mcc {line} --threads {threads}` drifted from its golden output"
        );
    }
}

#[test]
fn audited_fleet_matches_golden() {
    assert_golden(FLEET, include_str!("data/fleet_audit.txt"));
}

#[test]
fn unaudited_fleet_matches_golden() {
    assert_golden(
        &format!("{FLEET} --no-audit"),
        include_str!("data/fleet_no_audit.txt"),
    );
}
