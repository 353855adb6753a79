//! Guards the no-panic contract on user-input-reachable paths: non-test
//! code in `mcc-simnet`, `mcc-cli`, `mcc-fleet` and `mcc-serve`, the
//! chaos layer in `mcc-core` and the adversarial fault-schedule search
//! that drives it must not call `.unwrap()` or `.expect(` — errors there
//! surface as typed `ModelError` values, CLI exit codes, or `serve/1`
//! error lines, never as panics (a daemon parsing untrusted JSONL lines
//! must not be killable by one bad client). (The same rule is enforced
//! at lint level by `clippy::unwrap_used` in the simnet, cli and serve
//! crates and `-D warnings` in CI; this test is the one scan CI runs
//! for the whole list.)

use std::path::Path;

/// Strips the trailing `#[cfg(test)]` module (unit tests may unwrap).
fn non_test_code(src: &str) -> &str {
    match src.find("#[cfg(test)]") {
        Some(pos) => &src[..pos],
        None => src,
    }
}

/// Scans `path` — one `.rs` file, or every `.rs` file under a
/// directory — and records each panic site.
fn scan(path: &Path, offenders: &mut Vec<String>) {
    if path.is_dir() {
        let entries = std::fs::read_dir(path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        for entry in entries {
            scan(&entry.expect("readable dir entry").path(), offenders);
        }
        return;
    }
    if path.extension().and_then(|e| e.to_str()) != Some("rs") {
        return;
    }
    let src = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    for (lineno, line) in non_test_code(&src).lines().enumerate() {
        let code = line.split("//").next().unwrap_or("");
        if code.contains(".unwrap()") || code.contains(".expect(") {
            offenders.push(format!(
                "{}:{}: {}",
                path.display(),
                lineno + 1,
                line.trim()
            ));
        }
    }
}

/// Every user-input-reachable source tree or file the contract covers.
const SCANNED: [&str; 7] = [
    "crates/simnet/src",
    "crates/cli/src",
    "crates/fleet/src",
    "crates/serve/src",
    "crates/core/src/online/fault.rs",
    "crates/bench/src/exp/fault_adversary.rs",
    "crates/bench/src/bin/exp_fault_adversary.rs",
];

#[test]
fn simnet_and_cli_non_test_code_never_unwraps() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut offenders = Vec::new();
    for path in SCANNED {
        let path = root.join(path);
        assert!(path.exists(), "scanned path {} is gone", path.display());
        scan(&path, &mut offenders);
    }
    assert!(
        offenders.is_empty(),
        "panic sites on user-input-reachable paths:\n{}",
        offenders.join("\n")
    );
}
