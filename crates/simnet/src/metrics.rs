//! Post-hoc instrumentation derived from run records.

use mcc_core::online::tracker::RunRecord;
use mcc_core::online::FaultStats;
use mcc_model::{CostModel, Scalar};

/// Step function of simultaneously live copies over time.
#[derive(Clone, Debug, Default)]
pub struct CopyTimeline {
    /// `(time, live count)` breakpoints, time-ascending; the count holds
    /// until the next breakpoint.
    pub steps: Vec<(f64, usize)>,
}

impl CopyTimeline {
    /// Builds the timeline from copy records.
    pub fn from_record<S: Scalar>(record: &RunRecord<S>) -> Self {
        let mut deltas: Vec<(f64, i64)> = Vec::with_capacity(record.records.len() * 2);
        for c in &record.records {
            if !(c.to > c.from) {
                continue; // zero-length copies never count
            }
            deltas.push((c.from.to_f64(), 1));
            deltas.push((c.to.to_f64(), -1));
        }
        deltas.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut steps = Vec::new();
        let mut live: i64 = 0;
        for (t, d) in deltas {
            live += d;
            match steps.last_mut() {
                Some((lt, lc)) if *lt == t => *lc = live as usize,
                _ => steps.push((t, live as usize)),
            }
        }
        CopyTimeline { steps }
    }

    /// Maximum simultaneously live copies.
    pub fn peak(&self) -> usize {
        self.steps.iter().map(|&(_, c)| c).max().unwrap_or(0)
    }

    /// Time-weighted average copy count over `[0, horizon]`.
    pub fn average(&self, horizon: f64) -> f64 {
        if horizon <= 0.0 || self.steps.is_empty() {
            return 0.0;
        }
        let mut area = 0.0;
        for (k, &(t, c)) in self.steps.iter().enumerate() {
            let end = self
                .steps
                .get(k + 1)
                .map(|&(t2, _)| t2)
                .unwrap_or(horizon)
                .min(horizon);
            if end > t {
                area += (end - t) * c as f64;
            }
        }
        area / horizon
    }
}

/// Cost attribution of one run.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct Breakdown {
    /// Caching cost spent on intervals up to each copy's last touch.
    pub useful_caching: f64,
    /// Caching cost spent on speculative tails (`Σ μ·ω`).
    pub speculative_tails: f64,
    /// Transfer cost (`λ·|T|`).
    pub transfers: f64,
}

impl Breakdown {
    /// Computes the attribution from a run record.
    pub fn from_record<S: Scalar>(record: &RunRecord<S>, cost: &CostModel<S>) -> Self {
        let mut useful = 0.0;
        let mut tails = 0.0;
        for c in &record.records {
            useful += cost.caching(c.last_touch - c.from).to_f64();
            tails += cost.caching(c.tail()).to_f64();
        }
        Breakdown {
            useful_caching: useful,
            speculative_tails: tails,
            transfers: cost.lambda.to_f64() * record.transfers.len() as f64,
        }
    }

    /// Total cost.
    pub fn total(&self) -> f64 {
        self.useful_caching + self.speculative_tails + self.transfers
    }
}

/// Report-ready view of one run's fault counters.
///
/// Flattens [`FaultStats`] and attributes the corrective work in the same
/// spirit as [`Breakdown`]: how many copies the faults destroyed, how much
/// corrective action the wrapper took, and what the failed transfer
/// attempts cost on top of the schedule (`λ` per failed attempt).
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct FaultBreakdown {
    /// Live copies destroyed by crashes.
    pub copies_lost: usize,
    /// Failed transfer attempts before each success.
    pub retries: usize,
    /// Requests redirected to a surviving replica.
    pub failovers: usize,
    /// Emergency re-replications (including crash-time evacuations).
    pub emergency_replications: usize,
    /// Transfers absorbed by an already-live destination copy.
    pub adopted_replicas: usize,
    /// Serve-and-drop deliveries to servers that were down.
    pub down_serves: usize,
    /// Windows during which the cluster was down to its last copy.
    pub copy_loss_windows: usize,
    /// Requests deferred into the degraded-mode queue.
    pub deferred: usize,
    /// Deferred requests replayed at recovery (or run end).
    pub replayed: usize,
    /// Deferred requests dropped at the queue bound.
    pub dropped: usize,
    /// Peak degraded-mode queue depth.
    pub queue_peak: usize,
    /// Deferrals caused by an active partition rather than an outage.
    pub partition_deferrals: usize,
    /// Copies re-materialized from durable storage after total outages.
    pub reseeds: usize,
    /// Transfers forced through after the retry budget ran dry.
    pub budget_exhausted: usize,
    /// `λ` surcharge paid for the failed attempts.
    pub retry_cost: f64,
    /// `λ` surcharge paid replaying deferred requests.
    pub replay_cost: f64,
    /// `λ` surcharge paid re-seeding after total outages.
    pub reseed_cost: f64,
    /// Brownout `μ/λ` surcharge of the run.
    pub brownout_cost: f64,
    /// Backoff wait accrued (latency metric, not `λ/μ` cost).
    pub backoff_wait: f64,
    /// Total transfer latency injected by the fault plan.
    pub total_delay: f64,
}

impl FaultBreakdown {
    /// Flattens wrapper counters into the report view.
    pub fn from_stats(stats: &FaultStats) -> Self {
        FaultBreakdown {
            copies_lost: stats.copies_lost,
            retries: stats.retries,
            failovers: stats.failovers,
            emergency_replications: stats.emergency_replications,
            adopted_replicas: stats.adopted_replicas,
            down_serves: stats.down_serves,
            copy_loss_windows: stats.copy_loss_windows,
            deferred: stats.deferred,
            replayed: stats.replayed,
            dropped: stats.dropped,
            queue_peak: stats.queue_peak,
            partition_deferrals: stats.partition_deferrals,
            reseeds: stats.reseeds,
            budget_exhausted: stats.budget_exhausted,
            retry_cost: stats.retry_cost,
            replay_cost: stats.replay_cost,
            reseed_cost: stats.reseed_cost,
            brownout_cost: stats.brownout_cost,
            backoff_wait: stats.backoff_wait,
            total_delay: stats.total_delay,
        }
    }

    /// Total corrective actions the wrapper took (failovers, emergency
    /// re-replications and adopted transfers).
    pub fn corrective_actions(&self) -> usize {
        self.failovers + self.emergency_replications + self.adopted_replicas
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_core::online::tracker::Runtime;
    use mcc_model::ServerId;

    fn demo_record() -> RunRecord<f64> {
        let mut rt = Runtime::<f64>::new(3);
        rt.transfer(ServerId(0), ServerId(1), 1.0); // both live from 1.0
        rt.touch(ServerId(1), 2.0);
        rt.close(ServerId(0), 1.5); // origin [0, 1.5], touch 1.0
        rt.transfer(ServerId(1), ServerId(2), 3.0);
        rt.finalize(|_, last| last + 0.5);
        rt.into_record()
    }

    #[test]
    fn timeline_counts_live_copies() {
        let tl = CopyTimeline::from_record(&demo_record());
        assert_eq!(tl.peak(), 2);
        // At t = 0 one copy (origin); from 1.0 two; from 1.5 one; from 3.0
        // two (s^2 + s^3) until the +0.5 tails close.
        assert_eq!(tl.steps.first().map(|&(t, c)| (t, c)), Some((0.0, 1)));
        let at = |t: f64| {
            tl.steps
                .iter()
                .rev()
                .find(|&&(bt, _)| bt <= t)
                .map(|&(_, c)| c)
                .unwrap_or(0)
        };
        assert_eq!(at(0.5), 1);
        assert_eq!(at(1.2), 2);
        assert_eq!(at(2.0), 1);
        assert_eq!(at(3.2), 2);
        assert_eq!(at(4.0), 0);
    }

    #[test]
    fn timeline_average_is_time_weighted() {
        let tl = CopyTimeline::from_record(&demo_record());
        // Over [0, 3]: 1 copy on [0,1], 2 on [1,1.5], 1 on [1.5,3] →
        // area 1 + 1 + 1.5 = 3.5.
        let avg = tl.average(3.0);
        assert!((avg - 3.5 / 3.0).abs() < 1e-9, "{avg}");
    }

    #[test]
    fn breakdown_attributes_tails() {
        let rec = demo_record();
        let b = Breakdown::from_record(&rec, &CostModel::unit());
        // Tails: origin 0.5, s^1 0.5, s^2 0.5 → 1.5.
        assert!((b.speculative_tails - 1.5).abs() < 1e-9);
        assert_eq!(b.transfers, 2.0);
        let sched_cost = rec.to_schedule().cost(&CostModel::unit());
        assert!((b.total() - sched_cost).abs() < 1e-9);
    }

    #[test]
    fn fault_breakdown_flattens_stats() {
        let stats = FaultStats {
            copies_lost: 3,
            retries: 5,
            failovers: 2,
            emergency_replications: 1,
            adopted_replicas: 4,
            down_serves: 1,
            copy_loss_windows: 2,
            deferred: 7,
            replayed: 5,
            dropped: 2,
            queue_peak: 4,
            reseeds: 1,
            retry_cost: 5.0,
            replay_cost: 2.5,
            total_delay: 0.25,
            ..FaultStats::default()
        };
        let fb = FaultBreakdown::from_stats(&stats);
        assert_eq!(fb.copies_lost, 3);
        assert_eq!(fb.corrective_actions(), 2 + 1 + 4);
        assert_eq!(fb.retry_cost, 5.0);
        assert_eq!(fb.deferred, fb.replayed + fb.dropped);
        assert_eq!(fb.queue_peak, 4);
        assert_eq!(fb.reseeds, 1);
        assert_eq!(fb.replay_cost, 2.5);
        assert_eq!(FaultBreakdown::default().corrective_actions(), 0);
    }

    #[test]
    fn empty_record_is_zero() {
        let rec = RunRecord::<f64>::default();
        assert_eq!(CopyTimeline::from_record(&rec).peak(), 0);
        assert_eq!(
            Breakdown::from_record(&rec, &CostModel::unit()).total(),
            0.0
        );
    }
}
