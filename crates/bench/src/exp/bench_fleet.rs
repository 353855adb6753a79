//! The machine-readable fleet-throughput trajectory: `BENCH_fleet.json`.
//!
//! Measures [`mcc_fleet::run_fleet`] — per-item parameter draws, batched
//! staging through one warm [`mcc_simnet::RunRequest`] per shard, SoA
//! result scatter — in items/sec at fleet sizes up to millions of items
//! per box, against the **naive per-item baseline**
//! ([`mcc_fleet::naive_item_loop`]): a fresh `RunRequest`, workspace and
//! policy per item, exactly what a caller would write without the fleet
//! layer. Both sides produce bit-identical summaries (asserted in the
//! fleet crate's tests and re-checked below), so the speedup is pure
//! staging/reuse effect.
//!
//! Every comparison is like-for-like: both sides run with the per-item
//! streaming audit on (`audited`) **and** with it off (`sim-only`, via
//! [`FleetSpec::audit`] = false / `RunRequest::with_audit(false)`), and the
//! document carries both pairs. The headline `speedup` is the sim-only
//! pair — the throughput regime the fleet layer targets.
//!
//! **On the ≥5× target:** the target presumes a naive baseline dominated
//! by per-item setup. On this codebase the baseline inherits every
//! earlier optimization round (zero-allocation warm paths, the streaming
//! auditor, the in-place generators), so a *fresh-everything* per-item
//! run costs only ~1–2 µs — the measured staging/reuse win is ~2.5–3.5×
//! depending on shape and regime, and `acceptance.met` reports the truth
//! of `speedup ≥ target` rather than restating the aspiration. The CI
//! gate (`bench_fleet --check`) anchors on the *committed* speedup with
//! a 10% regression budget, so a real staging regression still fails CI.
//!
//! The document (schema `bench-fleet/1`, documented in EXPERIMENTS.md §E21)
//! carries:
//! * `rows` — single-threaded fleet items/sec at each headline size
//!   (1e5 / 1e6 / 4e6 at full scale), audited and sim-only;
//! * `acceptance` — the headline: fleet vs naive items/sec at the
//!   reference size, target ≥ [`SPEEDUP_TARGET`]×, with the audited pair
//!   alongside;
//! * `scaling` — items/sec at 1/2/4/8 threads with hardware-normalized
//!   parallel efficiency (same convention as `BENCH_sweep.json`: speedup
//!   over 1 thread divided by `min(threads, hw_threads)`, so a 1-core
//!   container scores 1.0 at parity and an 8-core runner needs a real
//!   8×); CI gates the 8-thread row at [`EFFICIENCY_TARGET`];
//! * `capacity` — throughput with the per-server slot sweep and LRU
//!   eviction enabled, plus what the sweep did (not gated: it documents
//!   the price of capacity enforcement);
//! * `quick` — the fleet-vs-naive speedup at test scale, re-measured by
//!   `bench_fleet --check` on every CI run with a 10% regression budget.

use mcc_fleet::{naive_item_loop, run_fleet, EvictionPolicy, FleetSpec, FleetWorkspace};
use mcc_model::Json;
use mcc_obs::{noop, Hist, Registry};
use mcc_simnet::{factory, PolicyFactory};
use mcc_workloads::distributions::ParamDist;

use super::bench_solver::peak_rss_kb;
use super::bench_sweep::{efficiency, hw_threads};

/// Minimum measured wall time per variant; reps repeat until reached.
/// Fleet passes at the full sizes take far longer than this on their own
/// — the loop then settles at the 2-rep minimum, keeping the artifact
/// run bounded.
const TARGET_SECS: f64 = 0.3;
/// The acceptance threshold: fleet items/sec over the naive per-item
/// loop at the reference fleet size, single-threaded.
pub const SPEEDUP_TARGET: f64 = 5.0;
/// Thread counts for the scaling rows.
const THREADS: [usize; 4] = [1, 2, 4, 8];
/// The CI scaling gate: 8-thread hardware-normalized efficiency floor
/// (same bar as the sweep's — shards are disjoint and lock-free, so
/// anything below this means the staging serialized).
pub const EFFICIENCY_TARGET: f64 = 0.35;
/// Thread count the efficiency gate measures at.
pub const GATE_THREADS: usize = 8;
/// Fleet size `bench_fleet --check` re-measures the efficiency gate at:
/// big enough that per-shard work dominates thread-spawn overhead on a
/// multicore runner, small enough for a CI re-measure.
pub const GATE_ITEMS: usize = 16_384;

/// Fleet-benchmark sizing.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FleetScale {
    /// Item counts for the headline single-threaded throughput rows.
    pub rows: [usize; 3],
    /// Item count the naive-vs-fleet acceptance speedup is measured at.
    pub accept_items: usize,
    /// Item count for the thread-scaling rows and the capacity section.
    pub scale_items: usize,
}

impl FleetScale {
    /// Test-sized: completes in seconds, used by tests and the CI
    /// `--check` re-measure.
    pub fn quick() -> Self {
        FleetScale {
            rows: [256, 1_024, 4_096],
            accept_items: 2_048,
            scale_items: 2_048,
        }
    }

    /// Report-sized: what the binary runs by default — the "millions of
    /// independent items per box" claim, measured.
    pub fn full() -> Self {
        FleetScale {
            rows: [100_000, 1_000_000, 4_000_000],
            accept_items: 1_000_000,
            scale_items: 1_000_000,
        }
    }

    /// Picks the scale from process arguments (`--quick` anywhere
    /// selects the test size).
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--quick") {
            FleetScale::quick()
        } else {
            FleetScale::full()
        }
    }
}

/// The reference fleet shape every measurement uses (only `items`,
/// `threads` and the capacity fields vary): heterogeneous per-item
/// parameters — the distributions are the point of the fleet layer — on
/// short traces, so millions of items stay a minutes-scale artifact run.
fn spec(items: usize, threads: usize) -> FleetSpec {
    FleetSpec {
        items,
        servers: 8,
        requests_per_item: 2,
        rate: 1.0,
        mu: ParamDist::Uniform { lo: 0.5, hi: 2.0 },
        lambda: ParamDist::Exp { mean: 1.0 },
        seed: 2017,
        threads,
        ..FleetSpec::default()
    }
}

/// The sim-only variant of [`spec`]: the audit disabled on both sides of
/// a comparison (the fleet honors [`FleetSpec::audit`] and
/// [`naive_item_loop`] honors the same flag, so the pair stays
/// like-for-like and bit-identical).
fn sim_spec(items: usize, threads: usize) -> FleetSpec {
    FleetSpec {
        audit: false,
        ..spec(items, threads)
    }
}

/// The capacity-section variant: slots cover 1/64th of the fleet on each
/// server, LRU eviction priced as its own cost class.
fn capped_spec(items: usize) -> FleetSpec {
    FleetSpec {
        capacity: Some((items / 64).max(1)),
        eviction: EvictionPolicy::Lru { price: 0.25 },
        ..spec(items, 1)
    }
}

fn sc() -> PolicyFactory {
    factory(mcc_core::online::SpeculativeCaching::<f64>::paper())
}

/// Best-rep items/sec of `pass` (at least 2 reps, [`TARGET_SECS`]).
fn best_rate(items: usize, pass: impl FnMut()) -> f64 {
    super::best_rate(items, 2, TARGET_SECS, pass)
}

/// Fleet items/sec for `spec`, run through one warm workspace.
fn fleet_rate_for(spec: &FleetSpec) -> f64 {
    let f = sc();
    let mut ws = FleetWorkspace::new();
    best_rate(spec.items, || {
        let s = run_fleet(spec, &f, &mut ws, noop()).expect("bench spec is valid");
        std::hint::black_box(s);
    })
}

/// Fleet items/sec at `items` on the default (audited) pipeline.
pub fn fleet_rate(items: usize, threads: usize) -> f64 {
    fleet_rate_for(&spec(items, threads))
}

/// Naive per-item items/sec for `spec`: fresh `RunRequest`, workspace
/// and policy per item — the honest no-fleet baseline.
fn naive_rate_for(s: &FleetSpec) -> f64 {
    let f = sc();
    best_rate(s.items, || {
        let out = naive_item_loop(s, &f, noop()).expect("bench spec is valid");
        std::hint::black_box(out);
    })
}

/// `(naive, fleet)` single-threaded items/sec at `items` on the default
/// (audited) pipeline.
pub fn rates(items: usize) -> (f64, f64) {
    (naive_rate_for(&spec(items, 1)), fleet_rate(items, 1))
}

/// `(naive, fleet)` single-threaded items/sec at `items` in the sim-only
/// regime (audit off on both sides) — the pair the headline acceptance
/// speedup and the CI `quick` anchor are computed from.
pub fn sim_rates(items: usize) -> (f64, f64) {
    let s = sim_spec(items, 1);
    (naive_rate_for(&s), fleet_rate_for(&s))
}

/// Re-measures the quick-scale sim-only fleet-vs-naive speedup for the
/// CI gate.
pub fn quick_speedup() -> f64 {
    let (naive, fleet) = sim_rates(FleetScale::quick().accept_items);
    fleet / naive.max(1e-9)
}

/// Re-measures the 8-thread efficiency for the CI gate: best of
/// `attempts` — interference deflates efficiency, never inflates it.
pub fn measured_gate_efficiency(items: usize, attempts: usize) -> f64 {
    (0..attempts.max(1))
        .map(|_| {
            let r1 = fleet_rate(items, 1);
            let r8 = fleet_rate(items, GATE_THREADS);
            efficiency(r1, r8, GATE_THREADS)
        })
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Measures the fleet across [`THREADS`] and assembles the `scaling`
/// section. Returns the section and the 8-thread efficiency.
fn scaling_section(items: usize) -> (Json, f64) {
    let rates: Vec<(usize, f64)> = THREADS.iter().map(|&t| (t, fleet_rate(items, t))).collect();
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
                    ("items_per_sec".into(), Json::Float(rate)),
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
        ("hw_threads".into(), Json::Int(hw_threads() as i64)),
        ("items".into(), Json::Int(items as i64)),
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

/// Measures the capacity-enforced fleet and reports throughput plus what
/// the sweep did (evictions, surcharge, peak). Informational, not gated.
fn capacity_section(items: usize) -> Json {
    let s = capped_spec(items);
    let f = sc();
    let mut ws = FleetWorkspace::new();
    let mut last = None;
    let rate = best_rate(items, || {
        last = Some(run_fleet(&s, &f, &mut ws, noop()).expect("bench spec is valid"));
    });
    let sum = last.unwrap_or_default();
    let price = match s.eviction {
        EvictionPolicy::Lru { price } => price,
        EvictionPolicy::None => 0.0,
    };
    Json::Obj(vec![
        ("items".into(), Json::Int(items as i64)),
        ("capacity".into(), Json::Int(s.capacity.unwrap_or(0) as i64)),
        ("policy".into(), Json::Str("lru".into())),
        ("price".into(), Json::Float(price)),
        ("items_per_sec".into(), Json::Float(rate)),
        ("evictions".into(), Json::Int(sum.evictions as i64)),
        ("eviction_cost".into(), Json::Float(sum.eviction_cost)),
        (
            "occupancy_peak".into(),
            Json::Int(sum.occupancy_peak as i64),
        ),
        (
            "capacity_events".into(),
            Json::Int(sum.capacity_events as i64),
        ),
    ])
}

/// One audited fleet pass with a real registry, reduced to the per-item
/// cost tail: p50/p99/p999 of the `fleet_item_cost_centi` histogram,
/// reported back in cost units. This is the ROADMAP follow-up — the
/// histogram existed since the fleet PR, the tail numbers now ship in
/// the document (and in the `mcc fleet` summary).
fn item_cost_section(items: usize) -> Json {
    let s = spec(items, 1);
    let f = sc();
    let mut ws = FleetWorkspace::new();
    let reg = Registry::new();
    let sum = run_fleet(&s, &f, &mut ws, &reg).expect("bench spec is valid");
    let snap = reg.snapshot();
    let h = snap.hist(Hist::FleetItemCostCenti);
    Json::Obj(vec![
        ("items".into(), Json::Int(items as i64)),
        ("samples".into(), Json::Int(h.count as i64)),
        (
            "mean".into(),
            Json::Float(sum.online_cost / (items.max(1) as f64)),
        ),
        ("p50".into(), Json::Float(h.quantile(0.50) / 100.0)),
        ("p99".into(), Json::Float(h.quantile(0.99) / 100.0)),
        ("p999".into(), Json::Float(h.quantile(0.999) / 100.0)),
    ])
}

/// Runs the full measurement and assembles the JSON document. The
/// `quick` section is always measured at [`FleetScale::quick`], whatever
/// the main grid — it is the hardware-relative anchor CI re-measures.
pub fn report(scale: FleetScale) -> Json {
    let reference = spec(0, 1);
    let row_rates: Vec<(usize, f64, f64)> = scale
        .rows
        .iter()
        .map(|&items| {
            (
                items,
                fleet_rate(items, 1),
                fleet_rate_for(&sim_spec(items, 1)),
            )
        })
        .collect();
    let (naive_accept, fleet_accept) = sim_rates(scale.accept_items);
    let speedup = fleet_accept / naive_accept.max(1e-9);
    let (naive_audited, fleet_audited) = rates(scale.accept_items);
    let audited_speedup = fleet_audited / naive_audited.max(1e-9);
    let (scaling, _) = scaling_section(scale.scale_items);
    let capacity = capacity_section(scale.scale_items);
    let quick = if scale == FleetScale::quick() {
        speedup
    } else {
        quick_speedup()
    };

    let rows = Json::Arr(
        row_rates
            .iter()
            .map(|&(items, rate, sim)| {
                Json::Obj(vec![
                    ("items".into(), Json::Int(items as i64)),
                    ("items_per_sec".into(), Json::Float(rate)),
                    ("sim_items_per_sec".into(), Json::Float(sim)),
                    (
                        "secs_per_pass".into(),
                        Json::Float(items as f64 / rate.max(1e-9)),
                    ),
                ])
            })
            .collect(),
    );

    Json::Obj(vec![
        ("schema".into(), Json::Str("bench-fleet/1".into())),
        (
            "fleet".into(),
            Json::Obj(vec![
                ("servers".into(), Json::Int(reference.servers as i64)),
                (
                    "requests_per_item".into(),
                    Json::Int(reference.requests_per_item as i64),
                ),
                ("rate".into(), Json::Float(reference.rate)),
                ("mu".into(), Json::Str("uniform:0.5,2.0".into())),
                ("lambda".into(), Json::Str("exp:1.0".into())),
                ("seed".into(), Json::Int(reference.seed as i64)),
            ]),
        ),
        ("rows".into(), rows),
        (
            "acceptance".into(),
            Json::Obj(vec![
                ("items".into(), Json::Int(scale.accept_items as i64)),
                (
                    "regime".into(),
                    Json::Str("sim-only (streaming audit off on both sides)".into()),
                ),
                ("fleet_items_per_sec".into(), Json::Float(fleet_accept)),
                ("naive_items_per_sec".into(), Json::Float(naive_accept)),
                ("speedup".into(), Json::Float(speedup)),
                ("target".into(), Json::Float(SPEEDUP_TARGET)),
                ("met".into(), Json::Bool(speedup >= SPEEDUP_TARGET)),
                (
                    "audited".into(),
                    Json::Obj(vec![
                        ("fleet_items_per_sec".into(), Json::Float(fleet_audited)),
                        ("naive_items_per_sec".into(), Json::Float(naive_audited)),
                        ("speedup".into(), Json::Float(audited_speedup)),
                    ]),
                ),
                (
                    "baseline_note".into(),
                    Json::Str(
                        "the naive per-item loop inherits the pipeline's earlier optimization \
                         rounds (zero-alloc warm paths, in-place generators), so a fresh-\
                         everything item costs ~1-2us and the measured staging/reuse win \
                         lands below the aspirational 5x target; `met` reports the \
                         measurement, and CI regression-gates the committed value instead"
                            .into(),
                    ),
                ),
            ]),
        ),
        ("scaling".into(), scaling),
        ("capacity".into(), capacity),
        ("item_cost".into(), item_cost_section(scale.scale_items)),
        (
            "quick".into(),
            Json::Obj(vec![("speedup".into(), Json::Float(quick))]),
        ),
        (
            "peak_rss_kb".into(),
            peak_rss_kb().map_or(Json::Null, Json::Int),
        ),
    ])
}

/// Validates the documented shape of a `bench-fleet/1` document;
/// returns the error description on mismatch.
pub fn validate(doc: &Json) -> Result<(), String> {
    if doc.get("schema").and_then(Json::as_str) != Some("bench-fleet/1") {
        return Err("schema must be \"bench-fleet/1\"".into());
    }
    for key in ["servers", "requests_per_item"] {
        let v = doc
            .get("fleet")
            .and_then(|f| f.get(key))
            .and_then(Json::as_i64)
            .ok_or_else(|| format!("fleet.{key} must be an integer"))?;
        if v <= 0 {
            return Err(format!("fleet.{key} must be positive"));
        }
    }
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("rows must be an array")?;
    if rows.is_empty() {
        return Err("rows must not be empty".into());
    }
    for row in rows {
        if row.get("items").and_then(Json::as_i64).unwrap_or(0) <= 0 {
            return Err("rows[].items must be positive".into());
        }
        for key in ["items_per_sec", "sim_items_per_sec"] {
            let r = row.get(key).and_then(Json::as_f64).unwrap_or(-1.0);
            if r.is_nan() || r <= 0.0 {
                return Err(format!("rows[].{key} must be positive"));
            }
        }
    }
    for key in ["fleet_items_per_sec", "naive_items_per_sec", "speedup"] {
        let v = doc
            .get("acceptance")
            .and_then(|a| a.get(key))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("acceptance.{key} must be a number"))?;
        if v.is_nan() || v <= 0.0 {
            return Err(format!("acceptance.{key} must be positive"));
        }
        let a = doc
            .get("acceptance")
            .and_then(|a| a.get("audited"))
            .and_then(|s| s.get(key))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("acceptance.audited.{key} must be a number"))?;
        if a.is_nan() || a <= 0.0 {
            return Err(format!("acceptance.audited.{key} must be positive"));
        }
    }
    if doc
        .get("acceptance")
        .and_then(|a| a.get("regime"))
        .and_then(Json::as_str)
        .is_none_or(str::is_empty)
    {
        return Err("acceptance.regime must be a non-empty string".into());
    }
    match doc.get("acceptance").and_then(|a| a.get("met")) {
        Some(Json::Bool(_)) => {}
        _ => return Err("acceptance.met must be a bool".into()),
    }
    let scaling = doc.get("scaling").ok_or("scaling section missing")?;
    if scaling
        .get("hw_threads")
        .and_then(Json::as_i64)
        .unwrap_or(0)
        <= 0
    {
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
        for key in ["items_per_sec", "speedup_vs_1t", "efficiency"] {
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
    let cap = doc.get("capacity").ok_or("capacity section missing")?;
    if cap.get("capacity").and_then(Json::as_i64).unwrap_or(0) <= 0 {
        return Err("capacity.capacity must be positive".into());
    }
    let cr = cap
        .get("items_per_sec")
        .and_then(Json::as_f64)
        .unwrap_or(-1.0);
    if cr.is_nan() || cr <= 0.0 {
        return Err("capacity.items_per_sec must be positive".into());
    }
    if cap.get("evictions").and_then(Json::as_i64).unwrap_or(-1) < 0 {
        return Err("capacity.evictions must be a non-negative integer".into());
    }
    let ic = doc.get("item_cost").ok_or("item_cost section missing")?;
    if ic.get("samples").and_then(Json::as_i64).unwrap_or(0) <= 0 {
        return Err("item_cost.samples must be positive".into());
    }
    for key in ["mean", "p50", "p99", "p999"] {
        let v = ic.get(key).and_then(Json::as_f64).unwrap_or(-1.0);
        if v.is_nan() || v < 0.0 {
            return Err(format!("item_cost.{key} must be non-negative"));
        }
    }
    let (p50, p99, p999) = (
        ic.get("p50").and_then(Json::as_f64).unwrap_or(-1.0),
        ic.get("p99").and_then(Json::as_f64).unwrap_or(-1.0),
        ic.get("p999").and_then(Json::as_f64).unwrap_or(-1.0),
    );
    if !(p50 <= p99 && p99 <= p999) {
        return Err("item_cost percentiles must be non-decreasing".into());
    }
    let q = doc
        .get("quick")
        .and_then(|q| q.get("speedup"))
        .and_then(Json::as_f64)
        .unwrap_or(-1.0);
    if q.is_nan() || q <= 0.0 {
        return Err("quick.speedup must be positive".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two sides of the acceptance speedup must measure the same
    /// computation: bit-identical summaries and per-item columns.
    #[test]
    fn naive_baseline_matches_the_fleet_bitwise() {
        let s = spec(97, 1);
        let f = sc();
        let mut ws = FleetWorkspace::new();
        let fleet = run_fleet(&s, &f, &mut ws, noop()).unwrap();
        let naive = naive_item_loop(&s, &f, noop()).unwrap();
        assert_eq!(fleet, naive);
    }

    #[test]
    fn report_has_the_documented_shape() {
        let doc = report(FleetScale::quick());
        validate(&doc).unwrap();
        // Round-trips through the parser (the file is meant to be diffed
        // and re-read by tooling).
        let reparsed = Json::parse(&doc.to_string_pretty()).unwrap();
        assert_eq!(reparsed.to_string_compact(), doc.to_string_compact());
    }

    #[test]
    fn validate_rejects_wrong_schema() {
        let doc = Json::Obj(vec![("schema".into(), Json::Str("bench-fleet/0".into()))]);
        assert!(validate(&doc).is_err());
        let sweep = Json::Obj(vec![("schema".into(), Json::Str("bench-sweep/2".into()))]);
        assert!(validate(&sweep).is_err());
    }

    /// Mutates one spot of a valid document and expects rejection.
    fn rejects_mutation(mutate: impl FnOnce(&mut Json), why: &str) {
        let mut doc = report(FleetScale::quick());
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
    fn validate_rejects_broken_documents() {
        rejects_mutation(
            |doc| set(doc, &["rows"], Json::Arr(Vec::new())),
            "empty headline rows",
        );
        rejects_mutation(
            |doc| set(doc, &["acceptance", "speedup"], Json::Float(f64::NAN)),
            "NaN acceptance speedup",
        );
        rejects_mutation(
            |doc| set(doc, &["acceptance", "met"], Json::Int(1)),
            "non-bool acceptance.met",
        );
        rejects_mutation(
            |doc| set(doc, &["acceptance", "audited", "speedup"], Json::Float(0.0)),
            "non-positive audited speedup",
        );
        rejects_mutation(
            |doc| set(doc, &["acceptance", "regime"], Json::Str(String::new())),
            "empty acceptance regime",
        );
        rejects_mutation(
            |doc| set(doc, &["scaling", "rows"], Json::Arr(Vec::new())),
            "empty scaling rows",
        );
        rejects_mutation(
            |doc| set(doc, &["scaling", "gate", "efficiency"], Json::Float(-0.5)),
            "non-positive gate efficiency",
        );
        rejects_mutation(
            |doc| set(doc, &["capacity", "items_per_sec"], Json::Float(0.0)),
            "non-positive capacity throughput",
        );
        rejects_mutation(
            |doc| set(doc, &["quick", "speedup"], Json::Float(0.0)),
            "non-positive quick anchor",
        );
        rejects_mutation(
            |doc| {
                if let Json::Obj(fields) = doc {
                    fields.retain(|(k, _)| k != "capacity");
                }
            },
            "missing capacity section",
        );
        rejects_mutation(
            |doc| set(doc, &["item_cost", "p99"], Json::Float(f64::NAN)),
            "NaN item-cost percentile",
        );
        rejects_mutation(
            |doc| {
                set(doc, &["item_cost", "p50"], Json::Float(9.0));
                set(doc, &["item_cost", "p99"], Json::Float(1.0));
            },
            "shuffled item-cost percentiles",
        );
        rejects_mutation(
            |doc| set(doc, &["item_cost", "samples"], Json::Int(0)),
            "empty item-cost histogram",
        );
    }

    /// The item-cost tail really measures the audited fleet: samples
    /// equal the item count and the percentiles order correctly.
    #[test]
    fn item_cost_section_reports_the_tail() {
        let sec = item_cost_section(512);
        assert_eq!(sec.get("samples").and_then(Json::as_i64), Some(512));
        let p50 = sec.get("p50").and_then(Json::as_f64).unwrap();
        let p99 = sec.get("p99").and_then(Json::as_f64).unwrap();
        let p999 = sec.get("p999").and_then(Json::as_f64).unwrap();
        assert!(0.0 < p50 && p50 <= p99 && p99 <= p999, "{p50} {p99} {p999}");
    }

    /// The capacity section really exercises the sweep: the 1/64 slot
    /// budget must force evictions at quick scale.
    #[test]
    fn capacity_section_reports_real_evictions() {
        let sec = capacity_section(FleetScale::quick().scale_items);
        let ev = sec.get("evictions").and_then(Json::as_i64).unwrap();
        assert!(ev > 0, "the capped bench spec must evict, got {ev}");
        let peak = sec.get("occupancy_peak").and_then(Json::as_i64).unwrap();
        let cap = sec.get("capacity").and_then(Json::as_i64).unwrap();
        assert!(peak <= cap, "LRU keeps occupancy within the budget");
    }
}
