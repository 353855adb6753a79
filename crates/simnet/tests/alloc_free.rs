//! Asserts the run pipeline's zero-allocation guarantee: once a
//! [`RunRequest`]'s workspace is warm, a full unit — **instance
//! generation** (via `Workload::generate_into`), policy run, streaming
//! audit, cost breakdown, off-line optimum, and (for fault modes) plan
//! expansion — performs **zero** heap allocations. The guarantee holds
//! with a **live metrics sink** attached: every request here records
//! into a shared [`mcc_obs::Registry`], whose record path is flat atomic
//! arrays, so observability costs counters and clock reads but never an
//! allocation.
//!
//! This file must remain the SOLE test in its integration-test binary:
//! the counting `#[global_allocator]` is process-global state, and only
//! one test at a time may own the armed window on its thread —
//! a sibling test armed concurrently would race the shared counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use mcc_model::Instance;
use mcc_obs::{Counter, Registry};
use mcc_simnet::{factory, FaultSpec, RunMode, RunRequest};
use mcc_workloads::{CommonParams, PoissonWorkload, Workload};

/// Counts allocation *events* (alloc/realloc/alloc_zeroed) while armed.
struct CountingAlloc;

thread_local! {
    // Arming is thread-local (const-initialized, droppable-free TLS, so
    // neither reading nor first access allocates): only the test
    // thread's allocations count. Every pipeline exercised here is
    // single-threaded on this thread, and harness threads (libtest's
    // monitor, parallel workers under load) cannot race the counter.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}
static EVENTS: AtomicUsize = AtomicUsize::new(0);

/// Whether the *current thread* is armed; `false` during TLS teardown.
fn armed() -> bool {
    ARMED.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            EVENTS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            EVENTS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if armed() {
            EVENTS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warm_request_units_allocate_nothing_even_with_a_live_sink() {
    let workload = PoissonWorkload::uniform(CommonParams::small().with_size(6, 120), 1.0);
    let instances: Vec<Instance<f64>> = (0..4u64).map(|s| workload.generate(s)).collect();
    // Every chaos-layer class on: correlated bursts, partitions,
    // brownouts, transfer failures with backoff, delays, and a finite
    // degraded-mode queue — the warm unit must absorb them all without
    // touching the heap.
    let spec = FaultSpec {
        seed: 7,
        crash_rate: 0.4,
        mean_downtime: 2.0,
        burst_rate: 0.1,
        burst_coverage: 0.5,
        partition_rate: 0.1,
        partition_mean: 0.6,
        brownout_rate: 0.1,
        brownout_mean: 0.8,
        brownout_factor: 2.5,
        fail_prob: 0.1,
        retry_budget: 8,
        backoff_base: 0.05,
        queue_cap: 4,
        mean_delay: 0.1,
        ..FaultSpec::default()
    };
    let f = factory(mcc_core::online::SpeculativeCaching::<f64>::paper());

    // One live registry shared by all three requests: the record path is
    // preallocated atomics, so metrics must not break the guarantee.
    let reg = Registry::new();
    let mut req_plain = RunRequest::new(RunMode::Plain).with_sink(&reg);
    let mut req_faulty = RunRequest::new(RunMode::Faulty(spec)).with_sink(&reg);
    let mut req_obl = RunRequest::new(RunMode::Oblivious(spec)).with_sink(&reg);
    let mut p_plain = req_plain.policy(&f);
    let mut p_tol = req_faulty.policy(&f);
    let mut p_obl = req_obl.policy(&f);
    let mut runs: u64 = 0;

    // Pre-generated-instance path first: the generation buffers are
    // bypassed entirely; only the run scratch is exercised.
    //
    // Warm-up: one pass over every (seed, mode) grows all buffers to the
    // high-water mark that exact pass will need again (runs are
    // seed-deterministic).
    let mut expect = Vec::new();
    for (i, inst) in instances.iter().enumerate() {
        let seed = i as u64;
        let a = req_plain.run_seed(&mut p_plain, seed, inst);
        let b = req_faulty.run_seed(&mut p_tol, seed, inst);
        let c = req_obl.run_seed(&mut p_obl, seed, inst);
        runs += 3;
        expect.push((
            a.online_cost,
            b.online_cost,
            c.online_cost,
            c.audit_findings,
        ));
    }

    ARMED.with(|a| a.set(true));
    for _ in 0..3 {
        for (i, inst) in instances.iter().enumerate() {
            let seed = i as u64;
            let a = req_plain.run_seed(&mut p_plain, seed, inst);
            let b = req_faulty.run_seed(&mut p_tol, seed, inst);
            let c = req_obl.run_seed(&mut p_obl, seed, inst);
            runs += 3;
            // Results must also be bit-identical to the cold pass.
            assert_eq!(a.online_cost, expect[i].0);
            assert_eq!(b.online_cost, expect[i].1);
            assert_eq!(c.online_cost, expect[i].2);
            assert_eq!(c.audit_findings, expect[i].3);
        }
    }
    ARMED.with(|a| a.set(false));

    let events = EVENTS.load(Ordering::SeqCst);
    assert_eq!(
        events, 0,
        "steady-state seed units must not touch the heap ({events} allocation events)"
    );

    // Full-unit path: generation included. `run_unit` regenerates each
    // seed's instance into the request's `InstanceBuf` before running it
    // — once that buffer is warm, the whole unit (generate + run + audit
    // + optimum + metrics) must stay off the heap too. Uniform Poisson
    // fills its trace without any per-call tables, so a warm buffer is
    // genuinely allocation-free.
    EVENTS.store(0, Ordering::SeqCst);
    let mut unit_expect = Vec::new();
    for seed in 0..4u64 {
        let a = req_plain.run_unit(&mut p_plain, &workload, seed);
        let b = req_faulty.run_unit(&mut p_tol, &workload, seed);
        let c = req_obl.run_unit(&mut p_obl, &workload, seed);
        runs += 3;
        unit_expect.push((a.online_cost, b.online_cost, c.online_cost));
        // The unit pipeline must agree with the pre-generated-instance
        // pipeline seed for seed.
        assert_eq!(a.online_cost, expect[seed as usize].0);
        assert_eq!(b.online_cost, expect[seed as usize].1);
        assert_eq!(c.online_cost, expect[seed as usize].2);
    }

    ARMED.with(|a| a.set(true));
    for _ in 0..3 {
        for seed in 0..4u64 {
            let a = req_plain.run_unit(&mut p_plain, &workload, seed);
            let b = req_faulty.run_unit(&mut p_tol, &workload, seed);
            let c = req_obl.run_unit(&mut p_obl, &workload, seed);
            runs += 3;
            assert_eq!(a.online_cost, unit_expect[seed as usize].0);
            assert_eq!(b.online_cost, unit_expect[seed as usize].1);
            assert_eq!(c.online_cost, unit_expect[seed as usize].2);
        }
    }
    ARMED.with(|a| a.set(false));

    let events = EVENTS.load(Ordering::SeqCst);
    assert_eq!(
        events, 0,
        "steady-state full units (generation included, live sink attached) \
         must not touch the heap ({events} allocation events)"
    );

    // Batched path: `run_units` hands the whole seed chunk to the batched
    // solver — generation staged into per-slot buffers, one SoA solve,
    // precomputed optima threaded to the measurement body. Warm, a full batched
    // sweep chunk must stay off the heap too, and agree with the scalar
    // unit pipeline seed for seed.
    EVENTS.store(0, Ordering::SeqCst);
    let seeds: Vec<u64> = (0..4u64).collect();
    let mut out = Vec::new();
    req_plain.run_units(&mut p_plain, &workload, &seeds, &mut out);
    req_faulty.run_units(&mut p_tol, &workload, &seeds, &mut out);
    runs += 8;
    for (i, r) in out.iter().take(4).enumerate() {
        assert_eq!(r.online_cost, unit_expect[i].0, "batched vs unit, plain");
    }
    for (i, r) in out.iter().skip(4).enumerate() {
        assert_eq!(r.online_cost, unit_expect[i].1, "batched vs unit, faulty");
    }

    ARMED.with(|a| a.set(true));
    for _ in 0..3 {
        out.clear();
        req_plain.run_units(&mut p_plain, &workload, &seeds, &mut out);
        req_faulty.run_units(&mut p_tol, &workload, &seeds, &mut out);
        runs += 8;
        for (i, r) in out.iter().take(4).enumerate() {
            assert_eq!(r.online_cost, unit_expect[i].0);
        }
        for (i, r) in out.iter().skip(4).enumerate() {
            assert_eq!(r.online_cost, unit_expect[i].1);
        }
    }
    ARMED.with(|a| a.set(false));

    let events = EVENTS.load(Ordering::SeqCst);
    assert_eq!(
        events, 0,
        "steady-state batched units (staging + SoA solve + run, live sink \
         attached) must not touch the heap ({events} allocation events)"
    );

    // The sink really was live the whole time: every run above landed in
    // the registry (snapshotting is allowed to allocate — we are disarmed).
    let snap = reg.snapshot();
    assert_eq!(snap.counter(Counter::Runs), runs);
    assert!(snap.counter(Counter::SolveNanos) > 0, "spans recorded");
    assert!(
        snap.counter(Counter::SolveBatchDispatches) > 0,
        "the batched path really ran"
    );
}
