//! The `fleet-lru` and `sweep-chaos` workloads: one `mcc fleet` or
//! `mcc sweep` command per pass, checked against an untimed in-process
//! `run_fleet` / `sweep_with` on the same seed, and their traced
//! in-process split by layer.

use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use mobile_cloud_cache::analysis::{fnum, Summary};
use mobile_cloud_cache::obs::{noop, Counter, Hist};
use mobile_cloud_cache::prelude::{
    factory, run_fleet, sweep_with, CellResult, CommonParams, EvictionPolicy, FaultSpec, FleetSpec,
    FleetSummary, FleetWorkspace, Follow, GridCell, KeepEverywhere, PoissonWorkload, PolicyFactory,
    Registry, Sink, SpeculativeCaching, StayAtOrigin, Workload,
};
use mobile_cloud_cache::workloads::distributions::ParamDist;
use mobile_cloud_cache::workloads::InstanceBuf;

use crate::mcc::Proc;
use crate::stats::{median, quantile};
use crate::trace::Trace;
use crate::{metric, Args, Outcome};

/// Items per `fleet-lru` pass: 250,000 rather than a million, so
/// that a run holds about thirty passes.
const FLEET_ITEMS: usize = 250_000;
/// Seeds per `sweep-chaos` pass (four policy cells each): short passes,
/// so that a run holds many of them.
const SWEEP_SEEDS: u64 = 4;
/// Set-up commands timed per run, spread over the run, after
/// [`WARM_UPS`] untimed ones that bring the binary into the page cache.
const SETUP_RUNS: usize = 15;
/// Untimed set-up commands per run.
const WARM_UPS: usize = 2;

/// One finished `mcc` command.
struct CmdRun {
    wall_s: f64,
    rss_mb: f64,
    stdout: String,
    code: Option<i32>,
}

fn run_cmd(mcc: &Path, args: &[String]) -> Result<CmdRun, String> {
    let start = Instant::now();
    let mut proc = Proc::spawn(
        Command::new(mcc)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit()),
    )?;
    let mut stdout = String::new();
    if let Some(mut out) = proc.child.stdout.take() {
        out.read_to_string(&mut stdout)
            .map_err(|e| format!("read mcc output: {e}"))?;
    }
    let exit = proc.reap()?;
    Ok(CmdRun {
        wall_s: start.elapsed().as_secs_f64(),
        rss_mb: exit.peak_rss_mb,
        stdout,
        code: exit.code,
    })
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

/// Runs `setup_cmd` once; a non-zero exit counts one failed op.
fn setup_once(mcc: &Path, setup_cmd: &[String], failed: &mut u64) -> Result<f64, String> {
    let r = run_cmd(mcc, setup_cmd)?;
    if r.code != Some(0) {
        *failed += 1;
    }
    Ok(r.wall_s)
}

/// Runs `cmd` in passes for about `seconds` (at least one), with
/// [`SETUP_RUNS`] runs of `setup_cmd` spread between them; `check`
/// returns the ops a pass failed. Reports the end-to-end metrics with
/// `ops` ops per pass.
///
/// Times are those of the fastest pass and the fastest set-up. On a
/// shared host the same pass can take 1.6 times as long, CPU time
/// included, for tens of seconds at a time; a median over one run then
/// reports which phase the run fell in, while the fastest pass of a run
/// repeats across runs.
fn passes(
    mcc: &Path,
    cmd: &[String],
    setup_cmd: &[String],
    ops: u64,
    seconds: f64,
    check: &dyn Fn(&CmdRun) -> u64,
) -> Result<Outcome, String> {
    let mut failed = 0u64;
    for _ in 0..WARM_UPS {
        setup_once(mcc, setup_cmd, &mut failed)?;
    }
    let mut setups = Vec::new();
    let mut runs = Vec::new();
    let start = Instant::now();
    loop {
        let due = (SETUP_RUNS as f64 * start.elapsed().as_secs_f64() / seconds).ceil() as usize;
        while setups.len() < due.clamp(1, SETUP_RUNS) {
            setups.push(setup_once(mcc, setup_cmd, &mut failed)?);
        }
        let r = run_cmd(mcc, cmd)?;
        let bad = if r.code == Some(0) { check(&r) } else { ops };
        failed += bad.min(ops);
        let wall = r.wall_s;
        runs.push(r);
        if start.elapsed().as_secs_f64() + wall > seconds {
            break;
        }
    }
    while setups.len() < SETUP_RUNS {
        setups.push(setup_once(mcc, setup_cmd, &mut failed)?);
    }
    let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    let rss: Vec<f64> = runs.iter().map(|r| r.rss_mb).collect();
    let fastest = quantile(&walls, 0.0);
    eprintln!(
        "perfbench: {} passes, wall {walls:?} s; set-up {setups:?} s",
        runs.len()
    );
    Ok(Outcome {
        correct: failed == 0,
        attempted: ops * runs.len() as u64 + (WARM_UPS + SETUP_RUNS) as u64,
        failed,
        metrics: vec![
            metric("setup_s", quantile(&setups, 0.0), "s"),
            metric("peak_rss_mb", median(&rss), "MB"),
            metric("throughput_per_s", ops as f64 / fastest, "1/s"),
            metric("latency_us", fastest * 1e6, "us"),
        ],
    })
}

/// Counts the `expected` lines missing from a command's output.
fn missing_lines(stdout: &str, expected: &[String]) -> u64 {
    let mut missing = 0;
    for want in expected {
        if !stdout.contains(want.as_str()) {
            eprintln!("perfbench: mcc output lacks {want:?}");
            missing += 1;
        }
    }
    missing
}

fn fleet_args(items: usize, seed: u64) -> Vec<String> {
    let mut a = strings(&[
        "fleet",
        "--servers",
        "8",
        "--requests",
        "4",
        "--threads",
        "1",
        "--mu-dist",
        "uniform:0.5,2.0",
        "--lambda-dist",
        "exp:1.0",
        "--capacity",
        "4096",
        "--eviction",
        "lru",
        "--eviction-price",
        "0.25",
    ]);
    a.extend(["--items".into(), items.to_string()]);
    a.extend(["--seed".into(), seed.to_string()]);
    a
}

/// The in-process twin of [`fleet_args`].
fn fleet_spec(items: usize, seed: u64) -> Result<FleetSpec, String> {
    Ok(FleetSpec {
        items,
        servers: 8,
        requests_per_item: 4,
        rate: 1.0,
        mu: ParamDist::parse("uniform:0.5,2.0")?,
        lambda: ParamDist::parse("exp:1.0")?,
        seed,
        capacity: Some(4096),
        eviction: EvictionPolicy::Lru { price: 0.25 },
        threads: 1,
        audit: true,
    })
}

/// The totals `mcc fleet` must print for `sum`.
fn fleet_lines(sum: &FleetSummary) -> Vec<String> {
    vec![
        format!(
            "online cost Σ: {}  (OPT Σ: {})",
            fnum(sum.online_cost),
            fnum(sum.opt_cost)
        ),
        format!(
            "ratio: mean {}  worst {}",
            fnum(sum.mean_ratio),
            fnum(sum.max_ratio)
        ),
        format!("transfers: {}  audit findings: 0", sum.transfers),
        format!(
            "occupancy peak {}, {} events",
            sum.occupancy_peak, sum.capacity_events
        ),
        format!(
            "evictions: {} charged {} (price 0.25 each) → total cost {}",
            sum.evictions,
            fnum(sum.eviction_cost),
            fnum(sum.total_cost())
        ),
    ]
}

fn sc() -> PolicyFactory {
    factory(SpeculativeCaching::<f64>::paper())
}

fn in_process_fleet(spec: &FleetSpec, sink: &dyn Sink) -> Result<(FleetSummary, f64), String> {
    let mut ws = FleetWorkspace::new();
    let start = Instant::now();
    let sum = run_fleet(spec, &sc(), &mut ws, sink)?;
    Ok((sum, start.elapsed().as_secs_f64()))
}

/// `fleet-lru`, `--trace 0`.
pub fn fleet_end_to_end(mcc: &Path, args: &Args) -> Result<Outcome, String> {
    let (want, _) = in_process_fleet(&fleet_spec(FLEET_ITEMS, args.seed)?, noop())?;
    let expected = fleet_lines(&want);
    passes(
        mcc,
        &fleet_args(FLEET_ITEMS, args.seed),
        &fleet_args(1, args.seed),
        FLEET_ITEMS as u64,
        args.seconds,
        &|r| {
            if missing_lines(&r.stdout, &expected) == 0 {
                0
            } else {
                FLEET_ITEMS as u64
            }
        },
    )
}

/// Writes the trace and reports where it went.
fn save(trace: &Trace, args: &Args) {
    let path =
        Path::new("perfbench/out").join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    if let Err(e) = trace.write_jsonl(&path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

/// `fleet-lru`, `--trace 1`: `run_fleet` timed from outside, split by
/// the counters it exports to `metrics/1`.
pub fn fleet_traced(args: &Args) -> Result<Outcome, String> {
    let spec = fleet_spec(FLEET_ITEMS, args.seed)?;
    let mut trace = Trace::new();
    let mut rows: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut failed = 0u64;
    let start = Instant::now();
    loop {
        // An untraced run (no-op sink) alternates with each traced one.
        let (want, plain_s) = in_process_fleet(&spec, noop())?;
        let reg = Registry::new();
        let mut ws = FleetWorkspace::new();
        let t0 = trace.now();
        let sum = run_fleet(&spec, &sc(), &mut ws, &reg)?;
        let t1 = trace.now();
        trace.push("fleet.run", t0, t1, None, rows.len() as u64);
        if sum != want || sum.audit_findings > 0 {
            failed += FLEET_ITEMS as u64;
        }
        let snap = reg.snapshot();
        let run_ns = (t1 - t0) as f64;
        let sim = snap.counter(Counter::FleetSimNanos) as f64;
        let cap = snap.counter(Counter::FleetCapacityNanos) as f64;
        rows.push(vec![
            ("fleet.run_ns", run_ns),
            ("fleet.sim_ns", sim),
            ("fleet.capacity_ns", cap),
            ("fleet.capacity_events", sum.capacity_events as f64),
            ("fleet.evictions", sum.evictions as f64),
            (
                "offline.stage_ns",
                snap.counter(Counter::SolveBatchStageNanos) as f64,
            ),
            (
                "offline.dp_ns",
                snap.counter(Counter::SolveBatchDpNanos) as f64,
            ),
            ("simnet.unit_ns", snap.hist(Hist::UnitNanos).sum as f64),
            ("simnet.audit_findings", sum.audit_findings as f64),
            ("trace.layer_share", (sim + cap) / run_ns),
            ("trace.overhead", run_ns / 1e9 / plain_s),
            ("trace.wall_ns", run_ns),
        ]);
        if start.elapsed().as_secs_f64() + run_ns / 1e9 + plain_s > args.seconds {
            break;
        }
    }
    save(&trace, args);
    let mut values = medians(&rows);
    values.push(("trace.spans", trace.len() as f64));
    values.push(("trace.passes", rows.len() as f64));
    Ok(Outcome {
        correct: failed == 0,
        attempted: 2 * FLEET_ITEMS as u64 * rows.len() as u64,
        failed,
        metrics: crate::per_layer(&values),
    })
}

/// Column-wise medians of rows that share their names.
fn medians(rows: &[Vec<(&'static str, f64)>]) -> Vec<(&'static str, f64)> {
    rows[0]
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            (
                *name,
                median(&rows.iter().map(|r| r[i].1).collect::<Vec<_>>()),
            )
        })
        .collect()
}

const POLICIES: [&str; 4] = ["sc", "follow", "stay-at-origin", "keep-everywhere"];

/// Requests per `sweep-chaos` unit.
const SWEEP_REQUESTS: usize = 2000;

fn sweep_args(seeds: u64, requests: usize, seed: u64) -> Vec<String> {
    let mut a = strings(&[
        "sweep",
        "poisson",
        "--servers",
        "16",
        "--threads",
        "1",
        "--crash-rate",
        "0.1",
    ]);
    a.extend(["--requests".into(), requests.to_string()]);
    a.extend(["--seeds".into(), seeds.to_string()]);
    a.extend(["--seed".into(), seed.to_string()]);
    a
}

/// The in-process twin of [`sweep_args`]: the same workload, policies
/// and fault regime, through `sweep_with`.
struct SweepGrid {
    workload: PoissonWorkload,
    factories: Vec<PolicyFactory>,
    faults: FaultSpec,
}

impl SweepGrid {
    fn new(seed: u64) -> Self {
        SweepGrid {
            workload: PoissonWorkload::uniform(
                CommonParams {
                    servers: 16,
                    requests: SWEEP_REQUESTS,
                    mu: 1.0,
                    lambda: 1.0,
                },
                1.0,
            ),
            factories: vec![
                factory(SpeculativeCaching::<f64>::paper()),
                factory(Follow::new()),
                factory(StayAtOrigin::new()),
                factory(KeepEverywhere::new()),
            ],
            faults: FaultSpec {
                seed,
                crash_rate: 0.1,
                ..FaultSpec::default()
            },
        }
    }

    fn cells(&self, faulty: bool) -> Vec<GridCell<'_>> {
        POLICIES
            .iter()
            .zip(&self.factories)
            .map(|(name, f)| {
                let cell = GridCell::new(*name, f, &self.workload);
                if faulty {
                    cell.with_faults(self.faults)
                } else {
                    cell
                }
            })
            .collect()
    }

    fn run(&self, faulty: bool, sink: &dyn Sink) -> Vec<CellResult> {
        sweep_with(self.cells(faulty), 0..SWEEP_SEEDS, 1, sink)
    }
}

/// The table rows and fault lines `mcc sweep` must print for `cells`.
fn sweep_lines(cells: &[CellResult]) -> (Vec<[String; 4]>, Vec<String>) {
    let mut rows = Vec::new();
    let mut lines = Vec::new();
    for cr in cells {
        let mut ratios = Summary::new();
        let mut costs = Summary::new();
        for r in &cr.results {
            if r.opt_cost > 0.0 {
                ratios.push(r.online_cost / r.opt_cost);
            }
            costs.push(r.online_cost);
        }
        rows.push([
            cr.policy_name.clone(),
            fnum(ratios.mean()),
            fnum(ratios.max()),
            fnum(costs.mean()),
        ]);
        let fs = cr.fault_stats();
        lines.push(format!(
            "{}: {} retries, {} failovers, {} copies lost, {} audit findings",
            cr.policy_name,
            fs.retries,
            fs.failovers,
            fs.copies_lost,
            cr.total_audit_findings()
        ));
        lines.push(format!(
            "{} reseeds, {} budget exhaustions",
            fs.reseeds, fs.budget_exhausted
        ));
    }
    (rows, lines)
}

/// Ops failed by one `mcc sweep` output against the in-process cells.
fn check_sweep(stdout: &str, want: &[CellResult]) -> u64 {
    let (rows, lines) = sweep_lines(want);
    let table: Vec<Vec<&str>> = stdout
        .lines()
        .filter(|l| l.starts_with('|'))
        .map(|l| {
            l.split('|')
                .map(str::trim)
                .filter(|c| !c.is_empty())
                .collect()
        })
        .collect();
    let per_cell = SWEEP_SEEDS;
    let mut failed = 0;
    for row in &rows {
        if !table.iter().any(|t| t.as_slice() == row.as_slice()) {
            eprintln!("perfbench: mcc sweep table lacks row {row:?}");
            failed += per_cell;
        }
    }
    if missing_lines(stdout, &lines) > 0 {
        failed += per_cell;
    }
    failed
        + want
            .iter()
            .map(|c| c.total_audit_findings() as u64)
            .sum::<u64>()
}

/// `sweep-chaos`, `--trace 0`.
pub fn sweep_end_to_end(mcc: &Path, args: &Args) -> Result<Outcome, String> {
    let want = SweepGrid::new(args.seed).run(true, noop());
    let units = POLICIES.len() as u64 * SWEEP_SEEDS;
    passes(
        mcc,
        &sweep_args(SWEEP_SEEDS, SWEEP_REQUESTS, args.seed),
        // One seed of one request: start-up and grid set-up without
        // the units' work, as `--items 1` is for `fleet-lru`.
        &sweep_args(1, 1, args.seed),
        units,
        args.seconds,
        &|r| check_sweep(&r.stdout, &want),
    )
}

/// Whether two sweeps agree on every unit, costs to the bit.
fn same_results(a: &[CellResult], b: &[CellResult]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.results.len() == y.results.len()
                && x.results.iter().zip(&y.results).all(|(p, q)| {
                    p.seed == q.seed
                        && p.online_cost.to_bits() == q.online_cost.to_bits()
                        && p.opt_cost.to_bits() == q.opt_cost.to_bits()
                        && p.transfers == q.transfers
                        && p.audit_findings == q.audit_findings
                })
        })
}

/// `sweep-chaos`, `--trace 1`: `sweep_with` timed from outside on the
/// chaos grid and on the same grid without faults, plus
/// `Workload::generate_into` for every unit.
pub fn sweep_traced(args: &Args) -> Result<Outcome, String> {
    let grid = SweepGrid::new(args.seed);
    let units = POLICIES.len() as u64 * SWEEP_SEEDS;
    let mut trace = Trace::new();
    let mut rows: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut failed = 0u64;
    let mut buf = InstanceBuf::new();
    let start = Instant::now();
    loop {
        // An untraced run (no-op sink) alternates with each traced one.
        let t = Instant::now();
        let want = grid.run(true, noop());
        let plain_s = t.elapsed().as_secs_f64();
        let pass = rows.len() as u64;
        let reg = Registry::new();
        let t0 = trace.now();
        let got = grid.run(true, &reg);
        let t1 = trace.now();
        trace.push("sweep.run", t0, t1, None, pass);
        let free = Registry::new();
        grid.run(false, &free);
        let t2 = trace.now();
        trace.push("sweep.faultfree_run", t1, t2, None, pass);
        let gen_root = trace.push("workloads.generate", t2, t2, None, pass);
        let mut gen_ns = 0u64;
        for unit in 0..units {
            let a = trace.now();
            std::hint::black_box(grid.workload.generate_into(unit % SWEEP_SEEDS, &mut buf));
            let b = trace.now();
            gen_ns += b - a;
            trace.push("workloads.generate_into", a, b, Some(gen_root), unit);
        }
        let t3 = trace.now();
        trace.set_end(gen_root, t3);

        if !same_results(&got, &want) {
            failed += units;
        }
        let findings: u64 = got.iter().map(|c| c.total_audit_findings() as u64).sum();
        failed += findings;
        let snap = reg.snapshot();
        let run_ns = (t1 - t0) as f64;
        let stage = snap.counter(Counter::SolveBatchStageNanos) as f64;
        let dp = snap.counter(Counter::SolveBatchDpNanos) as f64;
        let unit_ns = snap.hist(Hist::UnitNanos).sum as f64;
        rows.push(vec![
            ("sweep.run_ns", run_ns),
            ("sweep.faultfree_run_ns", (t2 - t1) as f64),
            ("workloads.generate_ns", gen_ns as f64),
            ("offline.stage_ns", stage),
            ("offline.dp_ns", dp),
            ("simnet.unit_ns", unit_ns),
            ("simnet.audit_findings", findings as f64),
            (
                "fault.crash_windows",
                snap.counter(Counter::FaultCrashWindows) as f64,
            ),
            (
                "fault.failovers",
                snap.counter(Counter::FaultFailovers) as f64,
            ),
            ("fault.retries", snap.counter(Counter::FaultRetries) as f64),
            (
                "fault.budget_exhausted",
                snap.counter(Counter::FaultBudgetExhausted) as f64,
            ),
            ("trace.layer_share", (stage + dp + unit_ns) / run_ns),
            ("trace.overhead", run_ns / 1e9 / plain_s),
            ("trace.wall_ns", run_ns),
        ]);
        if start.elapsed().as_secs_f64() + (t3 - t0) as f64 / 1e9 + plain_s > args.seconds {
            break;
        }
    }
    save(&trace, args);
    let mut values = medians(&rows);
    values.push(("trace.spans", trace.len() as f64));
    values.push(("trace.passes", rows.len() as f64));
    Ok(Outcome {
        correct: failed == 0,
        attempted: 2 * units * rows.len() as u64,
        failed,
        metrics: crate::per_layer(&values),
    })
}
