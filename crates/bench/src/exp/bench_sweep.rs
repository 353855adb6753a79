//! The machine-readable sweep-pipeline perf trajectory: `BENCH_sweep.json`.
//!
//! Measures the end-to-end sweep hot path — generate instance, run the
//! policy, expand the fault plan, audit, solve the off-line optimum —
//! against the **pinned pre-streaming pipeline** (frozen in the private
//! `pre_pr` module below): per-run `Runtime` + schedule materialization,
//! the replaying [`mcc_simnet::ScheduleAuditor`], per-seed `FaultPlan`
//! clones and a per-seed `FaultTolerant` wrapper construction. Three modes per seed
//! (healthy, fault-tolerant, fault-oblivious) mirror the grids the
//! experiments actually sweep. Reported as seed-units/sec single-threaded
//! (the acceptance headline: pure pipeline effect, thread-count
//! independent) and across thread counts (E16 in EXPERIMENTS.md).
//!
//! The document carries a `quick` section measured at test scale on the
//! same machine: CI re-measures it and fails when the live pipeline's
//! speedup over the pinned baseline regresses by more than 10% relative
//! to the committed value (see the `bench_sweep` binary's `--check`).
//!
//! Since `bench-sweep/2` the document also carries a `scaling` section
//! (E17 in EXPERIMENTS.md): live-sweep units/sec at 1/2/4/8 threads,
//! with each row's **parallel efficiency** — speedup over the 1-thread
//! rate normalized by `min(threads, hw_threads)`, the best speedup the
//! machine could possibly deliver at that thread count. Normalizing by
//! hardware keeps the number honest everywhere: on a 1-core container
//! parity with 1 thread *is* perfect scaling (efficiency 1.0), while on
//! an 8-core runner the same 1.0 requires a real 8× speedup. CI gates on
//! the 8-thread efficiency staying ≥ [`EFFICIENCY_TARGET`].
//! Schema (`bench-sweep/2`) documented in EXPERIMENTS.md.

use mcc_core::offline::SolverWorkspace;
use mcc_model::Json;
use mcc_obs::Registry;
use mcc_simnet::{factory, sweep, FaultSpec, GridCell, PolicyFactory, RunMode, RunRequest};
use mcc_workloads::{CommonParams, PoissonWorkload, Workload};

use super::bench_solver::peak_rss_kb;
use super::Scale;

/// Minimum measured wall time per variant; reps repeat until reached.
const TARGET_SECS: f64 = 0.3;
/// The acceptance threshold: live-pipeline speedup over the pinned
/// pre-streaming pipeline, single-threaded, at the reference grid.
const SPEEDUP_TARGET: f64 = 2.0;
/// Thread counts for the E16 scaling rows.
const THREADS: [usize; 4] = [1, 2, 4, 8];
/// The CI scaling gate: 8-thread parallel efficiency (speedup over one
/// thread, normalized by `min(8, hw_threads)`) must stay at or above
/// this. 0.35 tolerates memory-bandwidth ceilings and SMT-sharing on
/// small runners while still catching a sweep that serializes (a shared
/// lock or allocator contention pins efficiency near `1/threads` ≈
/// 0.125).
pub const EFFICIENCY_TARGET: f64 = 0.35;
/// Thread count the efficiency gate measures at.
pub const GATE_THREADS: usize = 8;

/// The fault regime both pipelines sweep (one tolerant cell, one
/// oblivious cell — the oblivious audit is the finding-heavy one).
fn fault_spec(tolerant: bool) -> FaultSpec {
    FaultSpec {
        seed: 7,
        crash_rate: 0.4,
        mean_downtime: 2.0,
        tolerant,
        ..FaultSpec::default()
    }
}

fn workload(scale: Scale) -> PoissonWorkload {
    PoissonWorkload::uniform(
        CommonParams {
            servers: scale.servers,
            requests: scale.requests,
            mu: 1.0,
            lambda: 1.0,
        },
        1.0,
    )
}

/// The pre-PR sweep unit, pinned as a perf baseline.
///
/// Frozen verbatim from the pre-streaming `runner.rs` (modulo module
/// paths): `run_policy` materializes actions, schedule and a fresh
/// `Runtime` per run; the audit replays the normalized schedule through
/// [`ScheduleAuditor`]; fault cells clone the expanded plan into a fresh
/// `FaultTolerant` wrapper every seed. Must **not** be updated alongside
/// the live pipeline — it is the fixed reference point of the
/// trajectory. Correctness is cross-checked against the live pipeline in
/// the tests below.
mod pre_pr {
    use mcc_core::offline::{solve_fast_in, SolverWorkspace};
    use mcc_core::online::{run_policy, run_policy_record, FaultStats, FaultTolerant, Runtime};
    use mcc_simnet::metrics::Breakdown;
    use mcc_simnet::{FaultOutcome, FaultSpec, PolicyFactory, ScheduleAuditor, SeedResult};
    use mcc_workloads::Workload;

    pub fn run_cell_in(
        policy_factory: &PolicyFactory,
        workload: &dyn Workload,
        seeds: std::ops::Range<u64>,
        ws: &mut SolverWorkspace<f64>,
    ) -> Vec<SeedResult> {
        let auditor = ScheduleAuditor::default();
        let mut policy = policy_factory();
        seeds
            .map(|seed| {
                let inst = workload.generate(seed);
                let run = run_policy(policy.as_mut(), &inst);
                let opt = solve_fast_in(&inst, ws, mcc_obs::noop()).optimal_cost();
                let audit = auditor.audit_run(&inst, &run, None);
                SeedResult {
                    seed,
                    online_cost: run.total_cost,
                    opt_cost: opt,
                    ratio: if opt > 0.0 { run.total_cost / opt } else { 1.0 },
                    breakdown: Breakdown::from_record(&run.record, inst.cost()),
                    transfers: run.transfers(),
                    audit_findings: audit.len(),
                    fault: None,
                }
            })
            .collect()
    }

    pub fn run_cell_faulty_in(
        policy_factory: &PolicyFactory,
        workload: &dyn Workload,
        seeds: std::ops::Range<u64>,
        spec: &FaultSpec,
        ws: &mut SolverWorkspace<f64>,
    ) -> Vec<SeedResult> {
        let auditor = ScheduleAuditor::default();
        seeds
            .map(|seed| {
                let inst = workload.generate(seed);
                let plan = spec.plan_for(seed, inst.servers(), inst.horizon());
                let crashes = plan.crashes().len();
                let opt = solve_fast_in(&inst, ws, mcc_obs::noop()).optimal_cost();
                if spec.tolerant {
                    // The chaos-layer wrapper defers requests under total
                    // outages, which the pre-PR `run_policy` debug referee
                    // cannot represent — the one forced deviation from the
                    // frozen text: this arm drives the same plumbing (plan
                    // cloned into a fresh wrapper, fresh runtime per seed)
                    // through `run_policy_record`. Accounting stays the
                    // pre-PR formula: schedule cost plus retry surcharge.
                    let mut wrapped = FaultTolerant::new(policy_factory(), plan.clone());
                    let mut rt = Runtime::new(inst.servers());
                    let (run, rec) = run_policy_record(&mut wrapped, &inst, &mut rt);
                    let stats = wrapped.stats().clone();
                    let audit = auditor.audit(&inst, &rec.to_schedule(), None, None, Some(&plan));
                    let online_cost = run.total_cost + stats.retry_cost;
                    SeedResult {
                        seed,
                        online_cost,
                        opt_cost: opt,
                        ratio: if opt > 0.0 { online_cost / opt } else { 1.0 },
                        breakdown: Breakdown::from_record(rec, inst.cost()),
                        transfers: run.transfers,
                        audit_findings: audit.len(),
                        fault: Some(FaultOutcome {
                            stats,
                            crashes,
                            bursts: 0,
                            partitions: 0,
                            brownouts: 0,
                            tolerant: true,
                        }),
                    }
                } else {
                    let mut policy = policy_factory();
                    let run = run_policy(policy.as_mut(), &inst);
                    let audit = auditor.audit_run(&inst, &run, Some(&plan));
                    let online_cost = run.total_cost;
                    SeedResult {
                        seed,
                        online_cost,
                        opt_cost: opt,
                        ratio: if opt > 0.0 { online_cost / opt } else { 1.0 },
                        breakdown: Breakdown::from_record(&run.record, inst.cost()),
                        transfers: run.transfers(),
                        audit_findings: audit.len(),
                        fault: Some(FaultOutcome {
                            stats: FaultStats::default(),
                            crashes,
                            bursts: 0,
                            partitions: 0,
                            brownouts: 0,
                            tolerant: false,
                        }),
                    }
                }
            })
            .collect()
    }
}

/// Total seed-units in one pass: three modes per seed.
fn units(scale: Scale) -> usize {
    3 * scale.seeds as usize
}

/// Best-rep units/sec of `pass` (at least 2 reps, [`TARGET_SECS`]).
fn best_rate(units: usize, pass: impl FnMut()) -> f64 {
    super::best_rate(units, 2, TARGET_SECS, pass)
}

/// One full single-threaded pass of the pinned pipeline.
fn baseline_pass(sc: &PolicyFactory, w: &dyn Workload, seeds: u64, ws: &mut SolverWorkspace<f64>) {
    let healthy = pre_pr::run_cell_in(sc, w, 0..seeds, ws);
    let tolerant = pre_pr::run_cell_faulty_in(sc, w, 0..seeds, &fault_spec(true), ws);
    let oblivious = pre_pr::run_cell_faulty_in(sc, w, 0..seeds, &fault_spec(false), ws);
    std::hint::black_box((healthy, tolerant, oblivious));
}

/// One full single-threaded pass of the live pipeline: the same three
/// cells, driven through one [`RunRequest`] (mode switched per cell, the
/// workspace and sink wiring carried across all of them).
fn live_pass(sc: &PolicyFactory, w: &dyn Workload, seeds: u64, req: &mut RunRequest<'_>) {
    req.set_mode(RunMode::Plain);
    let healthy = req.run_cell(sc, w, 0..seeds);
    req.set_mode(RunMode::from_faults(Some(fault_spec(true))));
    let tolerant = req.run_cell(sc, w, 0..seeds);
    req.set_mode(RunMode::from_faults(Some(fault_spec(false))));
    let oblivious = req.run_cell(sc, w, 0..seeds);
    std::hint::black_box((healthy, tolerant, oblivious));
}

/// Single-threaded units/sec for both pipelines: `(baseline, live)`.
pub fn single_thread_rates(scale: Scale) -> (f64, f64) {
    let sc = factory(mcc_core::online::SpeculativeCaching::<f64>::paper());
    let w = workload(scale);
    let mut solver_ws = SolverWorkspace::new();
    let baseline = best_rate(units(scale), || {
        baseline_pass(&sc, &w, scale.seeds, &mut solver_ws)
    });
    let mut req = RunRequest::new(RunMode::Plain);
    let live = best_rate(units(scale), || live_pass(&sc, &w, scale.seeds, &mut req));
    (baseline, live)
}

/// Single-threaded live units/sec with metrics off vs. on:
/// `(off, on)`. Both sides run the identical three-cell pass through one
/// warm [`RunRequest`]; the only difference is the sink — [`mcc_obs::noop`]
/// against a live [`Registry`]. The gap is the whole price of
/// observability on the hot path.
pub fn metrics_rates(scale: Scale) -> (f64, f64) {
    let sc = factory(mcc_core::online::SpeculativeCaching::<f64>::paper());
    let w = workload(scale);
    let mut req_off = RunRequest::new(RunMode::Plain);
    let off = best_rate(units(scale), || {
        live_pass(&sc, &w, scale.seeds, &mut req_off)
    });
    let reg = Registry::new();
    let mut req_on = RunRequest::new(RunMode::Plain).with_sink(&reg);
    let on = best_rate(units(scale), || {
        live_pass(&sc, &w, scale.seeds, &mut req_on)
    });
    std::hint::black_box(reg.snapshot());
    (off, on)
}

/// Relative slowdown of metrics-on over metrics-off
/// (`1 - on/off`; negative when metrics-on measured faster). Best
/// (lowest) of `attempts`: interference inflates an individual overhead
/// reading far more often than it deflates one, so the minimum is the
/// noise-robust estimate — a real regression drags every attempt up.
pub fn measured_metrics_overhead(scale: Scale, attempts: usize) -> f64 {
    (0..attempts.max(1))
        .map(|_| {
            let (off, on) = metrics_rates(scale);
            1.0 - on / off.max(1e-9)
        })
        .fold(f64::INFINITY, f64::min)
}

/// The observability budget: a live sink may cost at most this fraction
/// of metrics-off throughput on the single-threaded hot path
/// (`bench_sweep --check` gates on it).
pub const METRICS_OVERHEAD_BUDGET: f64 = 0.03;

/// The three reference cells as the live parallel sweep runs them.
fn live_cells<'a>(sc: &'a PolicyFactory, w: &'a dyn Workload) -> Vec<GridCell<'a>> {
    vec![
        GridCell::new("sc", sc, w),
        GridCell::new("sc+ft", sc, w).with_faults(fault_spec(true)),
        GridCell::new("sc-oblivious", sc, w).with_faults(fault_spec(false)),
    ]
}

/// Units/sec at `threads` for both pipelines: `(baseline, live)`.
///
/// The live side runs the real [`sweep`] (work-stealing, slot mutexes and
/// all); the baseline side reproduces the pre-PR sweep's structure — the
/// same work-stealing loop with one `SolverWorkspace` per worker, seed
/// units dispatched through the pinned cells.
pub fn parallel_rates(scale: Scale, threads: usize) -> (f64, f64) {
    let sc = factory(mcc_core::online::SpeculativeCaching::<f64>::paper());
    let w = workload(scale);
    let n_units = units(scale);

    let baseline = best_rate(n_units, || {
        let next = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut ws = SolverWorkspace::new();
                    loop {
                        let unit = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if unit >= n_units {
                            break;
                        }
                        let seed = (unit / 3) as u64;
                        let out = match unit % 3 {
                            0 => pre_pr::run_cell_in(&sc, &w, seed..seed + 1, &mut ws),
                            1 => pre_pr::run_cell_faulty_in(
                                &sc,
                                &w,
                                seed..seed + 1,
                                &fault_spec(true),
                                &mut ws,
                            ),
                            _ => pre_pr::run_cell_faulty_in(
                                &sc,
                                &w,
                                seed..seed + 1,
                                &fault_spec(false),
                                &mut ws,
                            ),
                        };
                        std::hint::black_box(out);
                    }
                });
            }
        });
    });

    let live = best_rate(n_units, || {
        let out = sweep(live_cells(&sc, &w), 0..scale.seeds, threads);
        std::hint::black_box(out);
    });

    (baseline, live)
}

/// Live-sweep units/sec at `threads` (no baseline measurement).
pub fn live_rate(scale: Scale, threads: usize) -> f64 {
    let sc = factory(mcc_core::online::SpeculativeCaching::<f64>::paper());
    let w = workload(scale);
    best_rate(units(scale), || {
        let out = sweep(live_cells(&sc, &w), 0..scale.seeds, threads);
        std::hint::black_box(out);
    })
}

/// Hardware threads visible to this process (1 when undetectable).
pub fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Parallel efficiency of `rate` at `threads` relative to the 1-thread
/// `rate_1t`: speedup normalized by the best speedup the hardware could
/// deliver (`min(threads, hw_threads)`). 1.0 = the sweep is exactly as
/// fast as the machine allows; a shared lock or allocator contention
/// drives it toward `1/threads`.
pub fn efficiency(rate_1t: f64, rate: f64, threads: usize) -> f64 {
    let ideal = threads.min(hw_threads()).max(1) as f64;
    (rate / rate_1t.max(1e-9)) / ideal
}

/// Measures the live sweep across [`THREADS`] and assembles the
/// `scaling` section of the document. Returns the section and the
/// 8-thread efficiency (the gated number).
fn scaling_section(scale: Scale) -> (Json, f64) {
    let hw = hw_threads();
    let rates: Vec<(usize, f64)> = THREADS.iter().map(|&t| (t, live_rate(scale, t))).collect();
    let rate_1t = rates[0].1;
    let mut gate_eff = f64::NAN;
    let rows = Json::Arr(
        rates
            .iter()
            .map(|&(t, rate)| {
                let eff = efficiency(rate_1t, rate, t);
                if t == GATE_THREADS {
                    gate_eff = eff;
                }
                Json::Obj(vec![
                    ("threads".into(), Json::Int(t as i64)),
                    ("live_units_per_sec".into(), Json::Float(rate)),
                    (
                        "speedup_vs_1t".into(),
                        Json::Float(rate / rate_1t.max(1e-9)),
                    ),
                    ("efficiency".into(), Json::Float(eff)),
                ])
            })
            .collect(),
    );
    let section = Json::Obj(vec![
        ("hw_threads".into(), Json::Int(hw as i64)),
        ("rows".into(), rows),
        (
            "gate".into(),
            Json::Obj(vec![
                ("threads".into(), Json::Int(GATE_THREADS as i64)),
                ("efficiency".into(), Json::Float(gate_eff)),
                ("threshold".into(), Json::Float(EFFICIENCY_TARGET)),
                ("met".into(), Json::Bool(gate_eff >= EFFICIENCY_TARGET)),
            ]),
        ),
    ]);
    (section, gate_eff)
}

/// Re-measures the 8-thread efficiency for the CI gate (at
/// [`Scale::gate`], per-unit work dominating spawn overhead): best of
/// `attempts` — interference deflates efficiency, never inflates it.
pub fn measured_gate_efficiency(scale: Scale, attempts: usize) -> f64 {
    (0..attempts.max(1))
        .map(|_| {
            let r1 = live_rate(scale, 1);
            let r8 = live_rate(scale, GATE_THREADS);
            efficiency(r1, r8, GATE_THREADS)
        })
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Runs the full measurement and assembles the JSON document. The
/// `quick` section is always measured at [`Scale::quick`], whatever the
/// main grid — it is the hardware-relative number CI re-measures.
pub fn report(scale: Scale) -> Json {
    let (base_1t, live_1t) = single_thread_rates(scale);
    let speedup = live_1t / base_1t;
    let (scaling, _) = scaling_section(scale);
    let (metrics_off, metrics_on) = metrics_rates(scale);

    let by_threads = Json::Arr(
        THREADS
            .iter()
            .map(|&t| {
                let (base, live) = parallel_rates(scale, t);
                Json::Obj(vec![
                    ("threads".into(), Json::Int(t as i64)),
                    ("baseline_units_per_sec".into(), Json::Float(base)),
                    ("live_units_per_sec".into(), Json::Float(live)),
                    ("speedup".into(), Json::Float(live / base)),
                ])
            })
            .collect(),
    );

    let quick_speedup = if scale == Scale::quick() {
        speedup
    } else {
        let (qb, ql) = single_thread_rates(Scale::quick());
        ql / qb
    };

    Json::Obj(vec![
        ("schema".into(), Json::Str("bench-sweep/2".into())),
        (
            "grid".into(),
            Json::Obj(vec![
                ("n".into(), Json::Int(scale.requests as i64)),
                ("m".into(), Json::Int(scale.servers as i64)),
                ("seeds".into(), Json::Int(scale.seeds as i64)),
                ("modes".into(), Json::Int(3)),
            ]),
        ),
        (
            "pipeline".into(),
            Json::Obj(vec![
                ("baseline_units_per_sec".into(), Json::Float(base_1t)),
                ("live_units_per_sec".into(), Json::Float(live_1t)),
                ("speedup".into(), Json::Float(speedup)),
            ]),
        ),
        ("by_threads".into(), by_threads),
        ("scaling".into(), scaling),
        (
            // Optional since the mcc-obs layer landed (E18): documents
            // committed before it lack the section and stay valid.
            "metrics_overhead".into(),
            Json::Obj(vec![
                ("off_units_per_sec".into(), Json::Float(metrics_off)),
                ("on_units_per_sec".into(), Json::Float(metrics_on)),
                (
                    "overhead".into(),
                    Json::Float(1.0 - metrics_on / metrics_off.max(1e-9)),
                ),
                ("budget".into(), Json::Float(METRICS_OVERHEAD_BUDGET)),
            ]),
        ),
        (
            "quick".into(),
            Json::Obj(vec![("speedup".into(), Json::Float(quick_speedup))]),
        ),
        (
            "acceptance".into(),
            Json::Obj(vec![
                ("speedup".into(), Json::Float(speedup)),
                ("target".into(), Json::Float(SPEEDUP_TARGET)),
                ("met".into(), Json::Bool(speedup >= SPEEDUP_TARGET)),
            ]),
        ),
        (
            "peak_rss_kb".into(),
            peak_rss_kb().map_or(Json::Null, Json::Int),
        ),
    ])
}

/// Validates the documented shape of a `bench-sweep/2` document;
/// returns the error description on mismatch.
pub fn validate(doc: &Json) -> Result<(), String> {
    if doc.get("schema").and_then(Json::as_str) != Some("bench-sweep/2") {
        return Err("schema must be \"bench-sweep/2\"".into());
    }
    for key in ["n", "m", "seeds", "modes"] {
        let v = doc
            .get("grid")
            .and_then(|g| g.get(key))
            .and_then(Json::as_i64)
            .ok_or_else(|| format!("grid.{key} must be an integer"))?;
        if v <= 0 {
            return Err(format!("grid.{key} must be positive"));
        }
    }
    for key in ["baseline_units_per_sec", "live_units_per_sec", "speedup"] {
        let v = doc
            .get("pipeline")
            .and_then(|p| p.get(key))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("pipeline.{key} must be a number"))?;
        if v.is_nan() || v <= 0.0 {
            return Err(format!("pipeline.{key} must be positive"));
        }
    }
    let rows = doc
        .get("by_threads")
        .and_then(Json::as_arr)
        .ok_or("by_threads must be an array")?;
    if rows.is_empty() {
        return Err("by_threads must not be empty".into());
    }
    for row in rows {
        if row.get("threads").and_then(Json::as_i64).unwrap_or(0) <= 0 {
            return Err("by_threads[].threads must be positive".into());
        }
        let s = row.get("speedup").and_then(Json::as_f64).unwrap_or(-1.0);
        if s.is_nan() || s <= 0.0 {
            return Err("by_threads[].speedup must be positive".into());
        }
    }
    let scaling = doc.get("scaling").ok_or("scaling section missing")?;
    let hw = scaling
        .get("hw_threads")
        .and_then(Json::as_i64)
        .unwrap_or(0);
    if hw <= 0 {
        return Err("scaling.hw_threads must be positive".into());
    }
    let srows = scaling
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("scaling.rows must be an array")?;
    if srows.is_empty() {
        return Err("scaling.rows must not be empty".into());
    }
    for row in srows {
        if row.get("threads").and_then(Json::as_i64).unwrap_or(0) <= 0 {
            return Err("scaling.rows[].threads must be positive".into());
        }
        for key in ["live_units_per_sec", "speedup_vs_1t", "efficiency"] {
            let v = row.get(key).and_then(Json::as_f64).unwrap_or(-1.0);
            if v.is_nan() || v <= 0.0 {
                return Err(format!("scaling.rows[].{key} must be positive"));
            }
        }
    }
    let gate_eff = scaling
        .get("gate")
        .and_then(|g| g.get("efficiency"))
        .and_then(Json::as_f64)
        .unwrap_or(-1.0);
    if gate_eff.is_nan() || gate_eff <= 0.0 {
        return Err("scaling.gate.efficiency must be positive".into());
    }
    match scaling.get("gate").and_then(|g| g.get("met")) {
        Some(Json::Bool(_)) => {}
        _ => return Err("scaling.gate.met must be a bool".into()),
    }
    // `metrics_overhead` is optional (documents predate the mcc-obs
    // layer) but must be well-formed when present; the overhead itself
    // may be slightly negative (metrics-on measured faster, pure noise).
    if let Some(mo) = doc.get("metrics_overhead") {
        for key in ["off_units_per_sec", "on_units_per_sec"] {
            let v = mo.get(key).and_then(Json::as_f64).unwrap_or(-1.0);
            if v.is_nan() || v <= 0.0 {
                return Err(format!("metrics_overhead.{key} must be positive"));
            }
        }
        let ov = mo
            .get("overhead")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        if ov.is_nan() || ov >= 1.0 {
            return Err("metrics_overhead.overhead must be a fraction below 1".into());
        }
    }
    let q = doc
        .get("quick")
        .and_then(|q| q.get("speedup"))
        .and_then(Json::as_f64)
        .unwrap_or(-1.0);
    if q.is_nan() || q <= 0.0 {
        return Err("quick.speedup must be positive".into());
    }
    match doc.get("acceptance").and_then(|a| a.get("met")) {
        Some(Json::Bool(_)) => Ok(()),
        _ => Err("acceptance.met must be a bool".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pinned pipeline and the live pipeline must measure the same
    /// thing: identical per-seed results on every mode.
    #[test]
    fn pinned_baseline_matches_live_pipeline_results() {
        let scale = Scale::quick();
        let sc = factory(mcc_core::online::SpeculativeCaching::<f64>::paper());
        let w = workload(scale);
        let mut solver_ws = SolverWorkspace::new();
        let mut req = RunRequest::new(RunMode::Plain);
        let live_cell = |req: &mut RunRequest<'_>, faults: Option<FaultSpec>| {
            req.set_mode(RunMode::from_faults(faults));
            req.run_cell(&sc, &w, 0..scale.seeds)
        };
        for (old, new) in [
            (
                pre_pr::run_cell_in(&sc, &w, 0..scale.seeds, &mut solver_ws),
                live_cell(&mut req, None),
            ),
            (
                pre_pr::run_cell_faulty_in(
                    &sc,
                    &w,
                    0..scale.seeds,
                    &fault_spec(true),
                    &mut solver_ws,
                ),
                live_cell(&mut req, Some(fault_spec(true))),
            ),
            (
                pre_pr::run_cell_faulty_in(
                    &sc,
                    &w,
                    0..scale.seeds,
                    &fault_spec(false),
                    &mut solver_ws,
                ),
                live_cell(&mut req, Some(fault_spec(false))),
            ),
        ] {
            assert_eq!(old.len(), new.len());
            for (x, y) in old.iter().zip(&new) {
                // Online costs agree up to floating-point summation order
                // (the pinned pipeline sums the normalized schedule, the
                // live one sums raw records — see `RunStats`) and up to
                // the chaos-layer surcharges the live pipeline accounts
                // on top of the frozen formula: degraded-mode replays,
                // durable-storage reseeds and brownout excess.
                let extra = y.fault.as_ref().map_or(0.0, |f| {
                    f.stats.replay_cost + f.stats.reseed_cost + f.stats.brownout_cost
                });
                let tol = 1e-12 * x.online_cost.abs().max(1.0);
                assert!(
                    (x.online_cost + extra - y.online_cost).abs() <= tol,
                    "seed {}: {} + {} vs {}",
                    x.seed,
                    x.online_cost,
                    extra,
                    y.online_cost
                );
                assert_eq!(x.opt_cost.to_bits(), y.opt_cost.to_bits());
                assert_eq!(x.transfers, y.transfers);
                assert_eq!(x.audit_findings, y.audit_findings);
            }
        }
    }

    #[test]
    fn report_has_the_documented_shape() {
        let doc = report(Scale::quick());
        validate(&doc).unwrap();
        // Round-trips through the parser (the file is meant to be diffed
        // and re-read by tooling).
        let reparsed = Json::parse(&doc.to_string_pretty()).unwrap();
        assert_eq!(reparsed.to_string_compact(), doc.to_string_compact());
    }

    #[test]
    fn validate_rejects_wrong_schema() {
        let doc = Json::Obj(vec![("schema".into(), Json::Str("bench-sweep/0".into()))]);
        assert!(validate(&doc).is_err());
        // v1 documents (no scaling section) are rejected too — the gate
        // must not silently pass on a stale baseline.
        let v1 = Json::Obj(vec![("schema".into(), Json::Str("bench-sweep/1".into()))]);
        assert!(validate(&v1).is_err());
    }

    /// Mutates one spot of a valid document and expects rejection.
    fn rejects_mutation(mutate: impl FnOnce(&mut Json), why: &str) {
        let mut doc = report(Scale::quick());
        mutate(&mut doc);
        assert!(validate(&doc).is_err(), "must reject: {why}");
    }

    fn set(doc: &mut Json, path: &[&str], value: Json) {
        fn obj_mut<'a>(j: &'a mut Json, key: &str) -> &'a mut Json {
            match j {
                Json::Obj(fields) => fields
                    .iter_mut()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v)
                    .expect("key present"),
                _ => panic!("not an object"),
            }
        }
        let mut cur = doc;
        for key in &path[..path.len() - 1] {
            cur = obj_mut(cur, key);
        }
        *obj_mut(cur, path[path.len() - 1]) = value;
    }

    #[test]
    fn validate_rejects_broken_scaling_sections() {
        rejects_mutation(
            |doc| set(doc, &["scaling", "rows"], Json::Arr(Vec::new())),
            "empty scaling rows",
        );
        rejects_mutation(
            |doc| set(doc, &["scaling", "hw_threads"], Json::Int(0)),
            "non-positive hw_threads",
        );
        rejects_mutation(
            |doc| set(doc, &["scaling", "gate", "efficiency"], Json::Float(-0.5)),
            "non-positive gate efficiency",
        );
        rejects_mutation(
            |doc| {
                if let Json::Obj(fields) = doc {
                    fields.retain(|(k, _)| k != "scaling");
                }
            },
            "missing scaling section",
        );
        // And a broken row inside an otherwise-valid list.
        rejects_mutation(
            |doc| {
                let mut bad = doc
                    .get("scaling")
                    .and_then(|s| s.get("rows"))
                    .and_then(Json::as_arr)
                    .expect("rows")
                    .to_vec();
                bad[0] = Json::Obj(vec![
                    ("threads".into(), Json::Int(1)),
                    ("live_units_per_sec".into(), Json::Float(10.0)),
                    ("speedup_vs_1t".into(), Json::Float(1.0)),
                    ("efficiency".into(), Json::Float(0.0)),
                ]);
                set(doc, &["scaling", "rows"], Json::Arr(bad));
            },
            "zero efficiency in a row",
        );
    }

    #[test]
    fn validate_checks_metrics_overhead_when_present() {
        // Absent section: still valid (pre-obs documents).
        let mut doc = report(Scale::quick());
        if let Json::Obj(fields) = &mut doc {
            fields.retain(|(k, _)| k != "metrics_overhead");
        }
        validate(&doc).unwrap();
        // Present but malformed: rejected.
        rejects_mutation(
            |doc| {
                set(
                    doc,
                    &["metrics_overhead", "on_units_per_sec"],
                    Json::Float(0.0),
                )
            },
            "non-positive metrics-on rate",
        );
        rejects_mutation(
            |doc| set(doc, &["metrics_overhead", "overhead"], Json::Float(1.5)),
            "overhead at or above 1",
        );
    }

    #[test]
    fn efficiency_normalizes_by_hardware() {
        // 1 thread is always efficiency 1 against itself.
        assert!((efficiency(100.0, 100.0, 1) - 1.0).abs() < 1e-12);
        // More threads than hardware: parity with 1 thread is perfect on
        // a 1-core box; on an 8-core box the same parity is 1/8.
        let hw = hw_threads();
        let e = efficiency(100.0, 100.0, 8);
        let ideal = 8usize.min(hw) as f64;
        assert!((e - 1.0 / ideal).abs() < 1e-12);
    }
}
