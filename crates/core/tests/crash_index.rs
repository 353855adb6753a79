//! Differential tests for `FaultPlan`'s per-server crash index.
//!
//! `is_down` and `next_crash_after` answer through binary searches over a
//! per-server index of the coalesced crash windows. These properties pin
//! them to linear scans kept here as the reference — over the plan's own
//! (coalesced, crash-instant-sorted) window list, and over the raw
//! windows the plan was built from — for plans built by `new`, refilled
//! by `assign`, and copied by `copy_from` into larger, dirty plans.

use mcc_core::online::{CrashWindow, FaultPlan};
use mcc_model::ServerId;
use proptest::prelude::*;

/// Linear `is_down` over a crash-instant-sorted window list.
fn ref_is_down(crashes: &[CrashWindow], server: ServerId, t: f64) -> bool {
    crashes
        .iter()
        .take_while(|w| w.from <= t)
        .any(|w| w.server == server && t < w.to)
}

/// Linear `next_crash_after` over a crash-instant-sorted window list.
fn ref_next_crash_after(crashes: &[CrashWindow], server: ServerId, t: f64) -> Option<f64> {
    crashes
        .iter()
        .find(|w| w.server == server && w.from > t)
        .map(|w| w.from)
}

/// Whether any raw (uncoalesced, well-formed) window covers `t`.
fn raw_is_down(raw: &[CrashWindow], server: ServerId, t: f64) -> bool {
    raw.iter().any(|w| {
        w.from.is_finite()
            && w.to.is_finite()
            && w.from >= 0.0
            && w.to > w.from
            && w.server == server
            && w.from <= t
            && t < w.to
    })
}

fn plan(windows: Vec<CrashWindow>) -> FaultPlan {
    FaultPlan::new(windows, 0, 0.0, 0, 0.0)
}

fn assign_crashes(target: &mut FaultPlan, windows: &[CrashWindow]) {
    target.assign(windows, &[], &[], 0, 0.0, 0, 0.0, 0.0, 64, 0);
}

/// Windows on a half-unit grid over a few servers, so overlapping and
/// touching windows (which the plan coalesces) are common; every tenth
/// window sits on a far server index.
fn windows(max: usize) -> impl Strategy<Value = Vec<CrashWindow>> {
    (0usize..=max).prop_flat_map(|n| {
        let servers = proptest::collection::vec(0u32..60, n);
        let starts = proptest::collection::vec(0u32..40, n);
        let lens = proptest::collection::vec(0u32..8, n);
        (servers, starts, lens).prop_map(|(servers, starts, lens)| {
            servers
                .into_iter()
                .zip(starts)
                .zip(lens)
                .map(|((s, a), l)| CrashWindow {
                    // 0..=5 mostly; 50..59 → a server far above the rest.
                    server: ServerId(if s >= 50 { 1_000 + s } else { s % 6 }),
                    from: a as f64 * 0.5,
                    // A zero length is malformed and must be dropped.
                    to: (a + l) as f64 * 0.5,
                })
                .collect()
        })
    })
}

/// Every instant worth probing: each window's edges, a hair either side
/// of them, half-grid points, and the non-finite and negative corners.
fn probe_times(raw: &[CrashWindow]) -> Vec<f64> {
    let mut ts = vec![
        -1.0,
        -0.0,
        0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e9,
    ];
    for w in raw {
        for e in [w.from, w.to] {
            ts.extend([e, e - 1e-9, e + 1e-9, e + 0.25]);
        }
    }
    ts.extend((0..50).map(|k| k as f64 * 0.5));
    ts
}

/// Servers with windows, servers without, and indices above every
/// crashed server (including the largest id).
fn probe_servers() -> Vec<ServerId> {
    let mut ss: Vec<ServerId> = (0..8).map(ServerId).collect();
    ss.extend([1_049, 1_050, 1_060, 5_000, u32::MAX].map(ServerId));
    ss
}

fn check_queries(p: &FaultPlan, raw: &[CrashWindow]) -> Result<(), TestCaseError> {
    let crashes = p.crashes();
    for s in probe_servers() {
        for t in probe_times(raw) {
            prop_assert_eq!(
                p.is_down(s, t),
                ref_is_down(crashes, s, t),
                "is_down({:?}, {}) on {:?}",
                s,
                t,
                crashes
            );
            prop_assert_eq!(
                p.is_down(s, t),
                raw_is_down(raw, s, t),
                "is_down({:?}, {}) vs raw windows {:?}",
                s,
                t,
                raw
            );
            let got = p.next_crash_after(s, t);
            let want = ref_next_crash_after(crashes, s, t);
            prop_assert_eq!(
                got.map(f64::to_bits),
                want.map(f64::to_bits),
                "next_crash_after({:?}, {}) on {:?}",
                s,
                t,
                crashes
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Plans built by `new` answer exactly as the linear scans.
    #[test]
    fn indexed_lookups_match_linear_scans(raw in windows(24)) {
        let p = plan(raw.clone());
        check_queries(&p, &raw)?;
    }

    /// A larger, dirty plan refilled through `assign` — or overwritten
    /// by `copy_from` — carries no stale index entries: it equals a fresh
    /// plan and answers exactly as the linear scans.
    #[test]
    fn refilled_plans_keep_an_exact_index(big in windows(60), raw in windows(12)) {
        let fresh = plan(raw.clone());
        let dirty = plan(big);

        let mut assigned = dirty.clone();
        assign_crashes(&mut assigned, &raw);
        prop_assert_eq!(&assigned, &fresh);
        check_queries(&assigned, &raw)?;

        let mut copied = dirty.clone();
        copied.copy_from(&fresh);
        prop_assert_eq!(&copied, &fresh);
        check_queries(&copied, &raw)?;

        // And back up again: a small plan grown by `assign`.
        let mut grown = fresh.clone();
        assign_crashes(&mut grown, &raw);
        check_queries(&grown, &raw)?;
    }
}

#[test]
fn overlapping_and_touching_windows_coalesce() {
    let w = |s: u32, from: f64, to: f64| CrashWindow {
        server: ServerId(s),
        from,
        to,
    };
    // Server 1: [1, 2) touches [2, 3), overlaps [2.5, 4): one window
    // [1, 4). Server 3: two disjoint windows. Server 2: none.
    let raw = vec![
        w(1, 2.0, 3.0),
        w(3, 5.0, 6.0),
        w(1, 1.0, 2.0),
        w(1, 2.5, 4.0),
        w(3, 0.5, 1.0),
    ];
    let p = plan(raw.clone());
    assert_eq!(p.crashes().len(), 3);
    check_queries(&p, &raw).unwrap();
    assert!(p.is_down(ServerId(1), 1.0));
    assert!(p.is_down(ServerId(1), 2.0));
    assert!(p.is_down(ServerId(1), 3.999));
    assert!(!p.is_down(ServerId(1), 4.0));
    assert_eq!(p.next_crash_after(ServerId(1), 0.0), Some(1.0));
    assert_eq!(p.next_crash_after(ServerId(1), 1.0), None);
    assert_eq!(p.next_crash_after(ServerId(3), 0.5), Some(5.0));
    assert_eq!(p.next_crash_after(ServerId(3), 4.0), Some(5.0));
    assert_eq!(p.next_crash_after(ServerId(3), 5.0), None);
    assert!(!p.is_down(ServerId(2), 2.0));
    assert_eq!(p.next_crash_after(ServerId(2), 0.0), None);
    assert_eq!(p.next_crash_after(ServerId(9), 0.0), None);
    assert!(!p.is_down(ServerId(1), f64::NAN));
    assert_eq!(p.next_crash_after(ServerId(1), f64::NAN), None);
}
