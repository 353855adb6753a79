//! The online runtime: copy lifecycle tracking shared by every online
//! policy.
//!
//! Policies (Speculative Caching and the baselines) decide *when* copies
//! are created, touched and dropped; the [`Runtime`] owns the bookkeeping:
//! it records every copy's open time, last *useful* touch and close time,
//! and every transfer. The distinction between `last_touch` and `to`
//! matters: a speculatively kept copy dies `Δt` after its last touch, and
//! that tail `ω = μ·(to − last_touch)` is exactly the quantity the paper's
//! Double-Transfer transformation reassigns onto transfer edges.

use mcc_model::{CacheInterval, Scalar, Schedule, ServerId, Transfer};

/// A completed copy lifetime on one server.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct CopyRecord<S> {
    /// Hosting server.
    pub server: ServerId,
    /// Creation time (transfer arrival, or 0 for the origin's initial copy).
    pub from: S,
    /// Last time the copy served a request or sourced a transfer.
    pub last_touch: S,
    /// Deletion time (`≥ last_touch`; the gap is the speculative tail).
    pub to: S,
}

impl<S: Scalar> CopyRecord<S> {
    /// The speculative tail `to − last_touch` (the `ω` of Definition 10).
    #[inline]
    pub fn tail(&self) -> S {
        self.to - self.last_touch
    }
}

/// A recorded transfer, tagged with the epoch it happened in.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct TransferRecord<S> {
    /// Sending server.
    pub src: ServerId,
    /// Receiving server.
    pub dst: ServerId,
    /// Transfer instant.
    pub at: S,
    /// Zero-based epoch index (only Speculative Caching advances it).
    pub epoch: u32,
}

/// Live-copy state while a policy is running.
#[derive(Copy, Clone, Debug)]
struct OpenCopy<S> {
    from: S,
    last_touch: S,
}

/// The copy-manipulation surface an online policy programs against.
///
/// [`Runtime`] implements it directly (the fault-free world, where every
/// operation takes effect exactly as issued). The fault-injection layer
/// interposes a mediating implementation that applies crash and
/// transfer-failure semantics per operation, so policies written against
/// `&mut dyn CopyOps<S>` run unchanged on a degraded cluster.
pub trait CopyOps<S: Scalar> {
    /// Number of servers.
    fn servers(&self) -> usize;
    /// Whether `server` currently holds a live copy.
    fn is_open(&self, server: ServerId) -> bool;
    /// Number of live copies.
    fn live_copies(&self) -> usize;
    /// Last useful touch of the live copy on `server`, if any.
    fn last_touch(&self, server: ServerId) -> Option<S>;
    /// Marks the live copy on `server` as used at time `t`.
    fn touch(&mut self, server: ServerId, t: S);
    /// Records a transfer `src → dst` at `t`.
    fn transfer(&mut self, src: ServerId, dst: ServerId, t: S);
    /// Opens a copy on `server` at `t` with no transfer edge: a
    /// re-materialization from durable storage after a total outage left
    /// the cluster with zero live copies. The fault layer accounts its
    /// cost separately (λ per reseed in [`FaultStats`]); fault-free
    /// policies never need it.
    ///
    /// [`FaultStats`]: crate::online::FaultStats
    fn reseed(&mut self, server: ServerId, t: S);
    /// Closes the copy on `server` at time `t`.
    fn close(&mut self, server: ServerId, t: S);
    /// Starts a new epoch at time `t`.
    fn begin_epoch(&mut self, t: S);
    /// Current epoch index.
    fn epoch(&self) -> u32;
}

impl<S: Scalar> CopyOps<S> for Runtime<S> {
    fn servers(&self) -> usize {
        Runtime::servers(self)
    }
    fn is_open(&self, server: ServerId) -> bool {
        Runtime::is_open(self, server)
    }
    fn live_copies(&self) -> usize {
        Runtime::live_copies(self)
    }
    fn last_touch(&self, server: ServerId) -> Option<S> {
        Runtime::last_touch(self, server)
    }
    fn touch(&mut self, server: ServerId, t: S) {
        Runtime::touch(self, server, t)
    }
    fn transfer(&mut self, src: ServerId, dst: ServerId, t: S) {
        Runtime::transfer(self, src, dst, t)
    }
    fn reseed(&mut self, server: ServerId, t: S) {
        Runtime::reseed(self, server, t)
    }
    fn close(&mut self, server: ServerId, t: S) {
        Runtime::close(self, server, t)
    }
    fn begin_epoch(&mut self, t: S) {
        Runtime::begin_epoch(self, t)
    }
    fn epoch(&self) -> u32 {
        Runtime::epoch(self)
    }
}

/// Copy-lifecycle bookkeeping for one online run.
///
/// A `Runtime` is reusable: [`Runtime::reset`] rewinds it to the initial
/// state (origin copy open at time 0) while keeping every internal buffer's
/// capacity, so the steady state of a sweep performs no heap allocation
/// per run.
#[derive(Clone, Debug)]
pub struct Runtime<S> {
    open: Vec<Option<OpenCopy<S>>>,
    rec: RunRecord<S>,
    epoch: u32,
    now: S,
}

impl<S: Scalar> Runtime<S> {
    /// Creates a runtime for `servers` servers with the initial copy opened
    /// on the origin at time 0.
    pub fn new(servers: usize) -> Self {
        let mut open = vec![None; servers];
        open[ServerId::ORIGIN.index()] = Some(OpenCopy {
            from: S::ZERO,
            last_touch: S::ZERO,
        });
        Runtime {
            open,
            rec: RunRecord::default(),
            epoch: 0,
            now: S::ZERO,
        }
    }

    /// Rewinds to the initial state for `servers` servers (origin copy open
    /// at 0, no records). Buffer capacities survive, so resetting a warm
    /// runtime allocates only if `servers` grew past the previous cluster
    /// size.
    pub fn reset(&mut self, servers: usize) {
        self.open.clear();
        self.open.resize(servers, None);
        self.open[ServerId::ORIGIN.index()] = Some(OpenCopy {
            from: S::ZERO,
            last_touch: S::ZERO,
        });
        self.rec.records.clear();
        self.rec.transfers.clear();
        self.rec.epoch_boundaries.clear();
        self.epoch = 0;
        self.now = S::ZERO;
    }

    /// Number of servers.
    pub fn servers(&self) -> usize {
        self.open.len()
    }

    /// Whether `server` currently holds a live copy.
    #[inline]
    pub fn is_open(&self, server: ServerId) -> bool {
        self.open[server.index()].is_some()
    }

    /// Number of live copies.
    pub fn live_copies(&self) -> usize {
        self.open.iter().filter(|c| c.is_some()).count()
    }

    /// Last useful touch of the live copy on `server`.
    pub fn last_touch(&self, server: ServerId) -> Option<S> {
        self.open[server.index()].map(|c| c.last_touch)
    }

    /// Marks the live copy on `server` as used at time `t` (serving a local
    /// request, or sourcing a transfer).
    ///
    /// # Panics
    ///
    /// Panics if the server holds no live copy or time runs backwards.
    pub fn touch(&mut self, server: ServerId, t: S) {
        assert!(t >= self.now, "touch at t={t} before now={}", self.now);
        self.now = t;
        let copy = self.open[server.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("touch on {server} with no live copy"));
        debug_assert!(copy.last_touch <= t);
        copy.last_touch = t;
    }

    /// Records a transfer `src → dst` at `t`: touches the source and opens
    /// a copy on `dst` (which must not already hold one).
    pub fn transfer(&mut self, src: ServerId, dst: ServerId, t: S) {
        assert_ne!(src, dst, "self-transfer");
        assert!(self.is_open(src), "transfer from {src} with no live copy");
        assert!(
            !self.is_open(dst),
            "transfer to {dst} which already holds a copy"
        );
        self.touch(src, t);
        self.open[dst.index()] = Some(OpenCopy {
            from: t,
            last_touch: t,
        });
        self.rec.transfers.push(TransferRecord {
            src,
            dst,
            at: t,
            epoch: self.epoch,
        });
    }

    /// Opens a copy on `server` at `t` with no transfer record — the
    /// degraded-mode re-materialization of [`CopyOps::reseed`].
    pub fn reseed(&mut self, server: ServerId, t: S) {
        assert!(
            !self.is_open(server),
            "reseed on {server} which already holds a copy"
        );
        assert!(t >= self.now, "reseed at t={t} before now={}", self.now);
        self.now = t;
        self.open[server.index()] = Some(OpenCopy {
            from: t,
            last_touch: t,
        });
    }

    /// Closes the copy on `server` at time `t ≥ last_touch` (the gap is the
    /// speculative tail).
    pub fn close(&mut self, server: ServerId, t: S) {
        let copy = self.open[server.index()]
            .take()
            .unwrap_or_else(|| panic!("close on {server} with no live copy"));
        assert!(
            t >= copy.last_touch,
            "close at t={t} before last touch {} on {server}",
            copy.last_touch
        );
        self.rec.records.push(CopyRecord {
            server,
            from: copy.from,
            last_touch: copy.last_touch,
            to: t,
        });
    }

    /// Starts a new epoch at time `t` (Speculative Caching resets after a
    /// fixed number of transfers).
    pub fn begin_epoch(&mut self, t: S) {
        self.epoch += 1;
        self.rec.epoch_boundaries.push(t);
    }

    /// Current epoch index.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Finalizes the run in place: every still-open copy is closed at
    /// `close_at(server)` and the records are brought into their canonical
    /// `(from, server)` order. Borrows the run record out of the runtime —
    /// call [`Runtime::reset`] before driving the next run.
    ///
    /// Sorting is unstable on the full record key, so it is deterministic
    /// (ties can only be bitwise-identical records) and allocation-free —
    /// unlike a stable sort, which buys its stability with a merge buffer.
    pub fn finalize(&mut self, mut close_at: impl FnMut(ServerId, S) -> S) -> &RunRecord<S> {
        for idx in 0..self.open.len() {
            if let Some(copy) = self.open[idx] {
                let server = ServerId::from_index(idx);
                let t = close_at(server, copy.last_touch);
                self.close(server, t.max2(copy.last_touch));
            }
        }
        self.rec.records.sort_unstable_by(|a, b| {
            a.from
                .partial_cmp(&b.from)
                .expect("no NaN times")
                .then(a.server.cmp(&b.server))
                .then(a.to.partial_cmp(&b.to).expect("no NaN times"))
                .then(
                    a.last_touch
                        .partial_cmp(&b.last_touch)
                        .expect("no NaN times"),
                )
        });
        &self.rec
    }

    /// Consumes the runtime, returning the record as it stands (complete
    /// after [`Runtime::finalize`]).
    pub fn into_record(self) -> RunRecord<S> {
        self.rec
    }

    /// The record as it stands: complete between [`Runtime::finalize`] and
    /// the next [`Runtime::reset`], which is when the fleet layer harvests
    /// the finished run's residency intervals without copying them.
    pub fn record(&self) -> &RunRecord<S> {
        &self.rec
    }
}

/// The immutable outcome of an online run (before schedule conversion).
#[derive(Clone, Debug)]
pub struct RunRecord<S> {
    /// All copy lifetimes.
    pub records: Vec<CopyRecord<S>>,
    /// All transfers, epoch-tagged.
    pub transfers: Vec<TransferRecord<S>>,
    /// Times at which Speculative Caching reset its epoch.
    pub epoch_boundaries: Vec<S>,
}

// Manual impl: the derive would demand `S: Default`, which `Scalar` does
// not guarantee, and empty vectors need no default scalar anyway.
impl<S> Default for RunRecord<S> {
    fn default() -> Self {
        RunRecord {
            records: Vec::new(),
            transfers: Vec::new(),
            epoch_boundaries: Vec::new(),
        }
    }
}

impl<S: Scalar> RunRecord<S> {
    /// Converts into a plain [`Schedule`] for validation and costing.
    pub fn to_schedule(&self) -> Schedule<S> {
        let mut sched = Schedule {
            caches: self
                .records
                .iter()
                .map(|r| CacheInterval::new(r.server, r.from, r.to))
                .collect(),
            transfers: self
                .transfers
                .iter()
                .map(|t| Transfer::new(t.src, t.dst, t.at))
                .collect(),
        };
        sched.normalize();
        sched
    }

    /// Sum of all speculative tails `Σω`.
    pub fn total_tail(&self) -> S {
        let mut total = S::ZERO;
        for r in &self.records {
            total = total + r.tail();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_copy_is_seeded() {
        let rt = Runtime::<f64>::new(3);
        assert!(rt.is_open(ServerId::ORIGIN));
        assert!(!rt.is_open(ServerId(1)));
        assert_eq!(rt.live_copies(), 1);
    }

    #[test]
    fn transfer_opens_destination_and_touches_source() {
        let mut rt = Runtime::<f64>::new(2);
        rt.transfer(ServerId(0), ServerId(1), 1.0);
        assert!(rt.is_open(ServerId(1)));
        assert_eq!(rt.last_touch(ServerId(0)), Some(1.0));
        assert_eq!(rt.live_copies(), 2);
    }

    #[test]
    fn close_records_tail() {
        let mut rt = Runtime::<f64>::new(2);
        rt.touch(ServerId(0), 2.0);
        rt.close(ServerId(0), 3.0);
        rt.finalize(|_, last| last);
        let rec = rt.into_record();
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.records[0].tail(), 1.0);
        assert_eq!(rec.total_tail(), 1.0);
    }

    #[test]
    fn finish_closes_remaining_copies() {
        let mut rt = Runtime::<f64>::new(3);
        rt.transfer(ServerId(0), ServerId(2), 1.0);
        rt.finalize(|_, last| last + 0.5);
        let rec = rt.into_record();
        assert_eq!(rec.records.len(), 2);
        assert!(rec.records.iter().all(|r| (r.tail() - 0.5).abs() < 1e-12));
    }

    #[test]
    fn schedule_conversion_costs_correctly() {
        let mut rt = Runtime::<f64>::new(2);
        rt.transfer(ServerId(0), ServerId(1), 1.0);
        rt.touch(ServerId(1), 2.0);
        rt.close(ServerId(0), 1.5);
        rt.finalize(|_, last| last);
        let rec = rt.into_record();
        let sched = rec.to_schedule();
        let cost = sched.cost(&mcc_model::CostModel::unit());
        // Origin [0, 1.5] + s^2 [1, 2] + one transfer = 1.5 + 1 + 1.
        assert!((cost - 3.5).abs() < 1e-12);
    }

    #[test]
    fn epochs_tag_transfers() {
        let mut rt = Runtime::<f64>::new(3);
        rt.transfer(ServerId(0), ServerId(1), 1.0);
        rt.begin_epoch(1.0);
        rt.close(ServerId(0), 1.0);
        rt.transfer(ServerId(1), ServerId(2), 2.0);
        rt.finalize(|_, last| last);
        let rec = rt.into_record();
        assert_eq!(rec.transfers[0].epoch, 0);
        assert_eq!(rec.transfers[1].epoch, 1);
        assert_eq!(rec.epoch_boundaries, vec![1.0]);
    }

    #[test]
    fn reset_rewinds_to_the_initial_state() {
        let mut rt = Runtime::<f64>::new(2);
        rt.transfer(ServerId(0), ServerId(1), 1.0);
        let a = rt.finalize(|_, last| last).clone();
        rt.reset(3);
        assert_eq!(rt.servers(), 3);
        assert_eq!(rt.live_copies(), 1);
        assert_eq!(rt.epoch(), 0);
        rt.transfer(ServerId(0), ServerId(1), 1.0);
        let b = rt.finalize(|_, last| last);
        assert_eq!(a.records, b.records);
        assert_eq!(a.transfers, b.transfers);
    }

    #[test]
    #[should_panic(expected = "no live copy")]
    fn touch_requires_live_copy() {
        let mut rt = Runtime::<f64>::new(2);
        rt.touch(ServerId(1), 1.0);
    }

    #[test]
    #[should_panic(expected = "already holds")]
    fn transfer_to_live_holder_is_rejected() {
        let mut rt = Runtime::<f64>::new(2);
        rt.transfer(ServerId(0), ServerId(1), 1.0);
        rt.transfer(ServerId(0), ServerId(1), 2.0);
    }
}
