//! Post-hoc instrumentation derived from run records.

use mcc_core::online::tracker::RunRecord;
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
    fn empty_record_is_zero() {
        let rec = RunRecord::<f64>::default();
        assert_eq!(CopyTimeline::from_record(&rec).peak(), 0);
        assert_eq!(
            Breakdown::from_record(&rec, &CostModel::unit()).total(),
            0.0
        );
    }
}
