//! The simulation engine: drives an online policy from an arrival process
//! through the event queue, sampling live-copy counts as it goes.
//!
//! The engine materializes the requests it generated into an [`Instance`]
//! so the outcome can be compared against the off-line optimum afterwards
//! — the "replay the trace through the DP" step every online experiment
//! performs.

use mcc_core::online::tracker::{RunRecord, Runtime};
use mcc_core::online::{finalize_record, OnlinePolicy, ServeAction};
use mcc_model::{CostModel, Instance, Request, Scalar};

use crate::error::SimError;
use crate::event::EventQueue;

/// A source of requests revealed one at a time.
pub trait ArrivalProcess {
    /// The next request strictly after `now`, or `None` when the stream
    /// ends.
    fn next_after(&mut self, now: f64) -> Option<Request<f64>>;
}

/// Replays a pre-generated instance.
pub struct Replay<'a> {
    requests: &'a [Request<f64>],
    cursor: usize,
}

impl<'a> Replay<'a> {
    /// Wraps an instance's request slice.
    pub fn new(inst: &'a Instance<f64>) -> Self {
        Replay {
            requests: inst.requests(),
            cursor: 0,
        }
    }
}

impl ArrivalProcess for Replay<'_> {
    fn next_after(&mut self, now: f64) -> Option<Request<f64>> {
        let r = *self.requests.get(self.cursor)?;
        self.cursor += 1;
        debug_assert!(r.time > now, "replayed requests must advance time");
        Some(r)
    }
}

/// Engine configuration.
#[derive(Copy, Clone, Debug)]
pub struct SimConfig {
    /// Number of servers.
    pub servers: usize,
    /// Cost model.
    pub cost: CostModel<f64>,
    /// Stop after this many requests even if the source continues.
    pub max_requests: usize,
}

/// Everything a simulation run produces.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// The materialized request trace (feed it to the off-line DP).
    pub instance: Instance<f64>,
    /// Copy/transfer records with speculative tails.
    pub record: RunRecord<f64>,
    /// Per-request serve actions.
    pub actions: Vec<ServeAction>,
    /// `(time, live copies)` sampled at every request event.
    pub live_copy_samples: Vec<(f64, usize)>,
    /// Total online cost.
    pub total_cost: f64,
}

impl SimOutcome {
    /// Peak number of simultaneously live copies observed.
    pub fn peak_copies(&self) -> usize {
        self.live_copy_samples
            .iter()
            .map(|&(_, c)| c)
            .max()
            .unwrap_or(1)
    }
}

/// Internal event alphabet (the queue is exercised even though requests
/// are the only externally visible events; sampling rides on the queue so
/// extensions like link delays slot in naturally).
enum Event {
    Arrival(Request<f64>),
}

/// Runs `policy` against `source` under `config`.
///
/// # Errors
///
/// [`SimError::BadEventTime`] / [`SimError::EventInPast`] when the arrival
/// process emits non-finite, negative or time-reversed request times, and
/// [`SimError::InvalidTrace`] when the accepted trace fails model
/// validation (duplicate times, out-of-range servers).
pub fn simulate<P: OnlinePolicy<f64> + ?Sized>(
    policy: &mut P,
    source: &mut dyn ArrivalProcess,
    config: SimConfig,
) -> Result<SimOutcome, SimError> {
    policy.reset(config.servers, &config.cost);
    let mut rt = Runtime::new(config.servers);
    let mut queue: EventQueue<Event> = EventQueue::new();
    let mut accepted: Vec<Request<f64>> = Vec::new();
    let mut actions = Vec::new();
    let mut samples = Vec::new();

    if let Some(first) = source.next_after(0.0) {
        queue.schedule(first.time.to_f64(), Event::Arrival(first))?;
    }
    while let Some((now, ev)) = queue.pop() {
        match ev {
            Event::Arrival(req) => {
                if accepted.len() >= config.max_requests {
                    break;
                }
                let action = policy.on_request(req.time, req.server, &mut rt);
                actions.push(action);
                accepted.push(req);
                samples.push((now, rt.live_copies()));
                if accepted.len() < config.max_requests {
                    if let Some(next) = source.next_after(now) {
                        queue.schedule(next.time.to_f64(), Event::Arrival(next))?;
                    }
                }
            }
        }
    }

    let instance = Instance::new(config.servers, config.cost, accepted)?;
    policy.on_finish();
    finalize_record(policy, &mut rt, instance.n(), instance.horizon());
    let record = rt.into_record();
    let total_cost = record.to_schedule().cost(&config.cost);
    Ok(SimOutcome {
        instance,
        record,
        actions,
        live_copy_samples: samples,
        total_cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_core::online::SpeculativeCaching;
    use mcc_core::online::{run_policy, run_policy_record, CrashWindow, FaultPlan, FaultTolerant};
    use mcc_model::ServerId;

    fn demo_instance() -> Instance<f64> {
        Instance::from_compact("m=3 mu=1 lambda=1 | s2@0.4 s2@0.7 s3@1.0 s1@2.5 s3@2.8").unwrap()
    }

    #[test]
    fn replay_matches_direct_execution() {
        let inst = demo_instance();
        let config = SimConfig {
            servers: inst.servers(),
            cost: *inst.cost(),
            max_requests: usize::MAX,
        };
        let sim = simulate(
            &mut SpeculativeCaching::paper(),
            &mut Replay::new(&inst),
            config,
        )
        .unwrap();
        let direct = run_policy(&mut SpeculativeCaching::paper(), &inst);
        assert_eq!(sim.instance, inst);
        assert!((sim.total_cost - direct.total_cost).abs() < 1e-12);
        assert_eq!(sim.actions, direct.actions);
    }

    #[test]
    fn max_requests_truncates() {
        let inst = demo_instance();
        let config = SimConfig {
            servers: 3,
            cost: *inst.cost(),
            max_requests: 2,
        };
        let sim = simulate(
            &mut SpeculativeCaching::paper(),
            &mut Replay::new(&inst),
            config,
        )
        .unwrap();
        assert_eq!(sim.instance.n(), 2);
        assert_eq!(sim.actions.len(), 2);
    }

    #[test]
    fn live_copies_are_sampled() {
        let inst = demo_instance();
        let config = SimConfig {
            servers: 3,
            cost: *inst.cost(),
            max_requests: usize::MAX,
        };
        let sim = simulate(
            &mut SpeculativeCaching::paper(),
            &mut Replay::new(&inst),
            config,
        )
        .unwrap();
        assert_eq!(sim.live_copy_samples.len(), 5);
        assert!(sim.peak_copies() >= 2);
        // Samples are time-ordered.
        for w in sim.live_copy_samples.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn empty_source_is_fine() {
        struct Empty;
        impl ArrivalProcess for Empty {
            fn next_after(&mut self, _now: f64) -> Option<Request<f64>> {
                None
            }
        }
        let config = SimConfig {
            servers: 2,
            cost: CostModel::unit(),
            max_requests: 10,
        };
        let sim = simulate(&mut SpeculativeCaching::paper(), &mut Empty, config).unwrap();
        assert_eq!(sim.instance.n(), 0);
        assert_eq!(sim.total_cost, 0.0);
    }

    #[test]
    fn wrapped_policy_drains_its_queue_when_an_outage_covers_the_trace_end() {
        // Every server is down from t = 2 past the end of the trace, so
        // the last two requests are deferred with no recovery to replay
        // them: only the end-of-run drain in `on_finish` can.
        let inst = demo_instance();
        let crashes = (0..3)
            .map(|s| CrashWindow {
                server: ServerId::from_index(s),
                from: 2.0,
                to: 10.0,
            })
            .collect();
        let plan = FaultPlan::new(crashes, 0, 0.0, 0, 0.0);
        let config = SimConfig {
            servers: 3,
            cost: *inst.cost(),
            max_requests: usize::MAX,
        };
        let mut wrapped = FaultTolerant::new(SpeculativeCaching::paper(), plan.clone());
        let sim = simulate(&mut wrapped, &mut Replay::new(&inst), config).unwrap();
        let stats = wrapped.stats();
        assert_eq!(stats.deferred, 2);
        assert_eq!(stats.deferred, stats.replayed + stats.dropped);
        // The engine finishes exactly like batch replay.
        let mut replayed = FaultTolerant::new(SpeculativeCaching::paper(), plan);
        let mut rt = Runtime::new(3);
        let (_, rec) = run_policy_record(&mut replayed, &inst, &mut rt);
        assert_eq!(replayed.stats(), wrapped.stats());
        assert_eq!(sim.record.records, rec.records);
        assert_eq!(sim.record.transfers, rec.transfers);
    }
}
