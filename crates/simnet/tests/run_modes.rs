//! Pins the three run modes — and the mode-mismatch arms — to the bit.
//!
//! One small Poisson cell under a fault plan with crashes, correlated
//! bursts (total outages, so deferrals replay and copies reseed),
//! partitions, brownouts and `fail_prob > 0`, so every surcharge the
//! settlement folds is non-zero in the wrapped mode; `λ = 0.7` keeps the
//! λ-priced surcharges off the integers, where any summation order would
//! round the same. The expected values are `f64::to_bits` of the reported
//! costs, recorded from the pipeline that had one seed body per mode, so
//! a change to the settlement's operation order, the audit input or the
//! plan wiring shows up as a changed bit pattern.

use mcc_core::online::SpeculativeCaching;
use mcc_simnet::{factory, FaultSpec, RunMode, RunRequest, SeedResult};
use mcc_workloads::{CommonParams, PoissonWorkload};

fn spec() -> FaultSpec {
    FaultSpec {
        seed: 11,
        crash_rate: 0.3,
        mean_downtime: 2.0,
        burst_rate: 0.2,
        burst_coverage: 1.0,
        partition_rate: 0.3,
        partition_mean: 1.0,
        brownout_rate: 0.5,
        fail_prob: 0.2,
        backoff_base: 0.25,
        ..FaultSpec::default()
    }
}

/// `(case, seed, online_cost, opt_cost, audit_findings, fault costs)`,
/// the fault costs being `[retry, replay, reseed, brownout, backoff_wait]`.
type Pin = (&'static str, u64, u64, u64, usize, Option<[u64; 5]>);

#[rustfmt::skip]
const PINS: [Pin; 13] = [
    ("plain", 0, 0x4054a9a1928808e2, 0x40502d209627e8aa, 0, None),
    ("plain", 1, 0x40574d153e6fe102, 0x405218fd404812a3, 0, None),
    ("plain", 2, 0x40571759c059b263, 0x405127db5ad42951, 0, None),
    ("faulty", 0, 0x406266bcb2f27292, 0x40502d209627e8aa, 0, Some([0x4016666666666666, 0x4024ffffffffffff, 0x4010cccccccccccd, 0x404a7ac67f7f9c34, 0x4001fe53c114d686])),
    ("faulty", 1, 0x4065d471869fec25, 0x405218fd404812a3, 0, Some([0x4016666666666667, 0x4019333333333333, 0x4019333333333334, 0x404a1da4f074725f, 0x3ff984e4d260686c])),
    ("faulty", 2, 0x406078ed9d05dd66, 0x405127db5ad42951, 0, Some([0x400c000000000000, 0x401ecccccccccccc, 0x401c000000000001, 0x40324d8c06b11eb8, 0x3ff022f7f81af121])),
    ("oblivious", 0, 0x406037dea6f17293, 0x40502d209627e8aa, 60, Some([0, 0, 0, 0x40478c3776b5b887, 0])),
    ("oblivious", 1, 0x406132ffb92f2c53, 0x405218fd404812a3, 54, Some([0, 0, 0, 0x404631d467dcef49, 0])),
    ("oblivious", 2, 0x405e107fac61f205, 0x405127db5ad42951, 71, Some([0, 0, 0, 0x403be497b020fe89, 0])),
    ("faulty", 1, 0x4065d471869fec25, 0x405218fd404812a3, 0, Some([0x4016666666666667, 0x4019333333333333, 0x4019333333333334, 0x404a1da4f074725f, 0x3ff984e4d260686c])),
    ("faulty+plain", 1, 0x406132ffb92f2c53, 0x405218fd404812a3, 54, Some([0, 0, 0, 0x404631d467dcef49, 0])),
    ("oblivious+tolerant", 1, 0x406132ffb92f2c53, 0x405218fd404812a3, 54, Some([0, 0, 0, 0x404631d467dcef49, 0])),
    ("plain+tolerant", 1, 0x40574d153e6fe102, 0x405218fd404812a3, 0, None),
];

fn observed(case: &'static str, r: &SeedResult) -> Pin {
    let fault = r.fault.as_ref().map(|fo| {
        let s = &fo.stats;
        [
            s.retry_cost.to_bits(),
            s.replay_cost.to_bits(),
            s.reseed_cost.to_bits(),
            s.brownout_cost.to_bits(),
            s.backoff_wait.to_bits(),
        ]
    });
    (
        case,
        r.seed,
        r.online_cost.to_bits(),
        r.opt_cost.to_bits(),
        r.audit_findings,
        fault,
    )
}

#[test]
fn run_modes_are_pinned_to_the_bit() {
    let w = PoissonWorkload::uniform(
        CommonParams::small().with_size(4, 40).with_costs(1.3, 0.7),
        1.0,
    );
    let f = factory(SpeculativeCaching::paper());
    let s = spec();
    let mut got = Vec::new();
    for (case, mode) in [
        ("plain", RunMode::Plain),
        ("faulty", RunMode::Faulty(s)),
        ("oblivious", RunMode::Oblivious(s)),
    ] {
        for r in RunRequest::new(mode).run_cell(&f, &w, 0..3) {
            got.push(observed(case, &r));
        }
    }
    // Policies reused across a mode switch without rebuilding: a plain
    // policy under faults runs oblivious, and a tolerant one that last ran
    // under faults has its stale plan cleared under an oblivious or plain
    // mode.
    let mut req = RunRequest::new(RunMode::Faulty(s));
    let mut plain = RunRequest::new(RunMode::Plain).policy(&f);
    let mut tolerant = req.policy(&f);
    got.push(observed("faulty", &req.run_unit(&mut tolerant, &w, 1)));
    got.push(observed("faulty+plain", &req.run_unit(&mut plain, &w, 1)));
    req.set_mode(RunMode::Oblivious(s));
    got.push(observed(
        "oblivious+tolerant",
        &req.run_unit(&mut tolerant, &w, 1),
    ));
    req.set_mode(RunMode::Plain);
    got.push(observed(
        "plain+tolerant",
        &req.run_unit(&mut tolerant, &w, 1),
    ));

    assert_eq!(got.len(), PINS.len());
    for (g, want) in got.iter().zip(&PINS) {
        assert_eq!(g, want, "case {} seed {}", want.0, want.1);
    }
    // The wrapped mode really exercises every surcharge.
    for pin in PINS.iter().filter(|p| p.0 == "faulty") {
        let costs = pin.5.expect("wrapped runs report fault stats");
        assert!(costs[..4].iter().all(|&c| c != 0), "seed {}", pin.1);
    }
}
