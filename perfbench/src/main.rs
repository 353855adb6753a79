//! End-to-end benchmark of the `mcc` binary, split by layer.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-paced --seed 1 --seconds 35 --trace 0
//! ```
//!
//! Run from the repository root. The benchmark builds the release `mcc`
//! binary, drives one workload through it for about `--seconds`
//! seconds, checks every output against an untimed in-process run of
//! the same library calls, and prints one JSON object as its last line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! traced in-process run with `--trace 1`. README.md lists the
//! workloads, the metrics and which layer should move which metric.

mod batch;
mod mcc;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;

/// One reported figure.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run measured and whether its outputs were right.
pub struct Outcome {
    /// Every output check passed and no op failed.
    pub correct: bool,
    /// Ops attempted (requests, items or units).
    pub attempted: u64,
    /// Ops failed: sheds, error lines, missing or invalid responses,
    /// mismatching totals, audit findings, a non-zero exit.
    pub failed: u64,
    /// The figures, in the order they are printed.
    pub metrics: Vec<Metric>,
}

/// Benchmark arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring budget, seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
}

/// Every end-to-end metric, as `BENCHMARK.json` lists them.
const END_TO_END: [&str; 4] = ["throughput_per_s", "latency_us", "peak_rss_mb", "setup_s"];

/// Every per-layer metric, as `BENCHMARK.json` lists them: a traced run
/// prints all of them, 0 for a layer its workload does not reach.
const PER_LAYER: [(&str, &str); 38] = [
    ("serve.read_ns", "ns"),
    ("serve.parse_ns", "ns"),
    ("serve.sweep_ns", "ns"),
    ("serve.observe_ns", "ns"),
    ("serve.finish_ns", "ns"),
    ("serve.render_ns", "ns"),
    ("serve.write_ns", "ns"),
    ("serve.flushes", "count"),
    ("serve.bytes_out", "bytes"),
    ("serve.hit_ratio", "ratio"),
    ("serve.expirations", "count"),
    ("serve.items_peak", "count"),
    ("serve.copies_peak", "count"),
    ("serve.gen_late_p50_us", "us"),
    ("serve.gen_late_p99_us", "us"),
    ("serve.outstanding_first_q", "count"),
    ("serve.outstanding_last_q", "count"),
    ("fleet.run_ns", "ns"),
    ("fleet.sim_ns", "ns"),
    ("fleet.capacity_ns", "ns"),
    ("fleet.capacity_events", "count"),
    ("fleet.evictions", "count"),
    ("offline.stage_ns", "ns"),
    ("offline.dp_ns", "ns"),
    ("simnet.unit_ns", "ns"),
    ("simnet.audit_findings", "count"),
    ("sweep.run_ns", "ns"),
    ("sweep.faultfree_run_ns", "ns"),
    ("workloads.generate_ns", "ns"),
    ("fault.crash_windows", "count"),
    ("fault.failovers", "count"),
    ("fault.retries", "count"),
    ("fault.budget_exhausted", "count"),
    ("trace.layer_share", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.wall_ns", "ns"),
    ("trace.spans", "count"),
    ("trace.passes", "count"),
];

/// The per-layer metrics of a traced run: every [`PER_LAYER`] entry,
/// taking its value from `values` (0 where the workload has none).
pub fn per_layer(values: &[(&'static str, f64)]) -> Vec<Metric> {
    for (name, _) in values {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| n == name), "unlisted {name}");
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = values.iter().find(|(n, _)| *n == name).map_or(0.0, |v| v.1);
            metric(name, value, unit)
        })
        .collect()
}

const WORKLOADS: [&str; 4] = ["serve-wide", "serve-paced", "fleet-lru", "sweep-chaos"];

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 35.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "bad --seconds".to_string())?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Formats a value with all its digits (shortest round-trip form).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn render(o: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct, o.attempted, o.failed
    );
    for (i, m) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

fn run(args: &Args) -> Result<Outcome, String> {
    mcc::start_mask();
    let mcc = mcc::build()?;
    let outcome = match (args.workload.as_str(), args.trace) {
        ("serve-wide", false) => serve::end_to_end(&mcc, &serve::WIDE, args),
        ("serve-paced", false) => serve::end_to_end(&mcc, &serve::PACED, args),
        ("serve-wide", true) => serve::traced(&serve::WIDE, args),
        ("serve-paced", true) => serve::traced(&serve::PACED, args),
        ("fleet-lru", false) => batch::fleet_end_to_end(&mcc, args),
        ("fleet-lru", true) => batch::fleet_traced(args),
        ("sweep-chaos", false) => batch::sweep_end_to_end(&mcc, args),
        ("sweep-chaos", true) => batch::sweep_traced(args),
        _ => Err(format!("unknown workload {}", args.workload)),
    }?;
    let mut want: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.to_vec()
    };
    let mut got: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
    want.sort_unstable();
    got.sort_unstable();
    if got != want {
        return Err(format!("metrics {got:?} differ from the declared {want:?}"));
    }
    Ok(outcome)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            println!("{}", render(&outcome));
            std::process::exit(if outcome.correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobile_cloud_cache::model::Json;

    fn declared(key: &str) -> Vec<(String, String)> {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let per_layer: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), per_layer);
        let e2e: Vec<String> = declared("end_to_end").into_iter().map(|(n, _)| n).collect();
        assert_eq!(e2e, END_TO_END);
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![metric("setup_s", 0.1 + 0.2, "s")],
        };
        assert_eq!(
            render(&o),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}}}"
        );
    }
}
