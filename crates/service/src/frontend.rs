//! The concurrent front-end: admission control plus an epoch-coalescing
//! auto-batcher over [`Service`].
//!
//! A [`Frontend`] sits between connection handlers ([`crate::server`]) and
//! the typed [`api`](crate::api) layer and adds the two things a
//! multi-client server needs that a single request stream does not:
//!
//! - **Admission control** — at most [`FrontendOptions::max_inflight`]
//!   solves run at once, at most [`FrontendOptions::queue_depth`] requests
//!   wait behind them, and anything beyond that is *rejected immediately*
//!   with a structured `"busy"` response instead of queueing unboundedly.
//!   Updates and `stats` bypass admission entirely: the write path is
//!   never blocked behind reads (the store's build/publish split already
//!   makes it cheap), and observability must work precisely when the
//!   server is saturated.
//! - **Coalescing** — concurrent single-query `jra` requests that were
//!   admitted at the same epoch are collected into one [`JraBatch`]
//!   execution (`Service::exec_jra`) and the answers fanned back to
//!   their connections. The batch contract (batched answers are
//!   bit-identical to one-at-a-time solves, proptested in
//!   [`crate::batch`]) makes this a *pure* performance transform: response
//!   bytes do not depend on how requests happened to be grouped. The
//!   linger window is measured in queued-request **count**
//!   ([`FrontendOptions::linger`]), never wall-clock time, so behaviour
//!   stays deterministic.
//!
//! # Threading model
//!
//! There is no dedicated batcher thread. A submitting connection thread
//! queues its planned query and then either (a) finds its answer already
//! filled in, (b) becomes a drainer itself when a solve slot is free, or
//! (c) parks on a condvar until a drainer fills its slot. A drainer takes
//! the longest same-epoch prefix of the queue (up to `linger` entries),
//! solves it as one batch, writes each answer into its submitter's slot,
//! and wakes everyone. Because every queued entry has a live submitter in
//! the wait loop, and every wait-loop iteration re-checks "slot free +
//! work pending", no entry can be orphaned: work conservation holds
//! without any background thread.
//!
//! [`JraBatch`]: crate::batch::JraBatch

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use crate::api::{JraAnswer, JraSpec, PlannedQuery, Service};
use crate::store::Snapshot;
use crate::telemetry::trace::{FinishedTrace, Trace};
use crate::telemetry::{Counter, Gauge, Histogram};

/// Tuning knobs for a [`Frontend`] (the CLI's `--max-inflight`,
/// `--queue-depth`, `--linger`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontendOptions {
    /// Concurrent solves allowed (coalesced batches and direct ops each
    /// hold one slot while solving). Clamped to at least 1.
    pub max_inflight: usize,
    /// Requests allowed to wait for a slot beyond the in-flight bound;
    /// `0` means "reject the moment every slot is taken".
    pub queue_depth: usize,
    /// Coalescing bound: a drainer batches at most this many same-epoch
    /// queued requests into one [`JraBatch`](crate::batch::JraBatch) run.
    /// Measured in requests, never wall-clock time (determinism). Clamped
    /// to at least 1.
    pub linger: usize,
}

impl Default for FrontendOptions {
    fn default() -> Self {
        Self { max_inflight: 4, queue_depth: 64, linger: 32 }
    }
}

/// A queued single-`jra` request: its pinned snapshot, canonical query,
/// the slot its answer is fanned back through, and its live span recorder
/// (the drainer records queue-wait/solve/coalesce stages into it).
struct Entry {
    snapshot: Arc<Snapshot>,
    planned: PlannedQuery,
    slot: Slot,
    trace: Trace,
    enqueued: Instant,
}

/// Where a drainer deposits one entry's answer (and its sealed trace).
/// Filled exactly once. Locked only *after* (or without) the front-end
/// state lock — never the other way around — so the two locks cannot
/// deadlock.
type Slot = Arc<Mutex<Option<(std::result::Result<JraAnswer, String>, Arc<FinishedTrace>)>>>;

/// Everything guarded by the one front-end mutex. The lifetime counters
/// that used to live here are registry series now ([`FrontMetrics`]).
#[derive(Default)]
struct FrontState {
    pending: VecDeque<Entry>,
    /// Solve slots in use (drainers + direct-op permits).
    inflight: usize,
    /// Direct ops parked waiting for a permit (bounded by `queue_depth`).
    waiting: usize,
}

/// Registry handles for the front-end's series — the single source of
/// truth for its counters. [`Frontend::counters`] (the v2 `stats`
/// `"frontend"` object) reads these, and the same series surface through
/// the `metrics` op and the Prometheus endpoint.
struct FrontMetrics {
    connections: Arc<Counter>,
    rejected: Arc<Counter>,
    batches: Arc<Counter>,
    batched_requests: Arc<Counter>,
    /// High-water mark of a single coalesced batch (a gauge so `set_max`
    /// applies; it never decreases).
    max_batch: Arc<Gauge>,
    inflight: Arc<Gauge>,
    queued: Arc<Gauge>,
    op_jra: Arc<Histogram>,
    /// Per-op `requests_total` counters, pre-resolved so the protocol
    /// dispatch never takes the registry lock per request.
    requests: [(&'static str, Arc<Counter>); 6],
}

impl FrontMetrics {
    fn new(service: &Service) -> Self {
        let t = service.telemetry();
        let req = |op: &str| t.counter(&format!("requests_total{{op=\"{op}\"}}"));
        FrontMetrics {
            connections: t.counter("frontend_connections_total"),
            rejected: t.counter("frontend_rejected_total"),
            batches: t.counter("frontend_batches_total"),
            batched_requests: t.counter("frontend_batched_requests_total"),
            max_batch: t.gauge("frontend_max_batch"),
            inflight: t.gauge("frontend_inflight"),
            queued: t.gauge("frontend_queued"),
            op_jra: t.histogram("op_latency_seconds{op=\"jra\"}"),
            requests: [
                ("jra", req("jra")),
                ("batch", req("batch")),
                ("update", req("update")),
                ("assign", req("assign")),
                ("stats", req("stats")),
                ("metrics", req("metrics")),
            ],
        }
    }
}

/// Front-end counters ([`Frontend::counters`], v2 `stats`'s `"frontend"`
/// object). All values are deterministic for a sequential session; under
/// real concurrency `batches`/`max_batch` depend on arrival interleaving
/// (golden multi-client sessions therefore read v1 `stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendCounters {
    /// Sessions served (stdio, TCP connections and `--multi` clients).
    pub connections: u64,
    /// Requests currently queued for a solve slot (a gauge, not a total).
    pub queued: usize,
    /// Lifetime admissions rejected with `"busy"`.
    pub rejected: u64,
    /// Coalesced batch executions.
    pub batches: u64,
    /// Requests served through those batches (`batched_requests /
    /// batches` = mean occupancy).
    pub batched_requests: u64,
    /// Largest single coalesced batch.
    pub max_batch: u64,
}

/// The outcome of submitting one `jra` through the front-end.
pub enum JraOutcome {
    /// Planned (and, unless planning failed, solved — possibly coalesced
    /// with neighbours). Everything the wire layer renders: the admitted
    /// snapshot, the per-query answer or plan error, and the planned
    /// `TopK` stage-loss bound.
    Done {
        /// The snapshot the request was admitted at.
        snapshot: Arc<Snapshot>,
        /// The answer, or the plan/solve error for this one query.
        answer: std::result::Result<JraAnswer, String>,
        /// The `TopK` stage-loss bound pinned at plan time.
        loss_bound: Option<f64>,
        /// The request's span tree. Structure (names, order, counts) is
        /// deterministic; durations stay behind the timings opt-in.
        trace: Arc<FinishedTrace>,
    },
    /// Rejected by admission control: every solve slot busy and the
    /// pending queue full. The request was never queued or solved.
    Busy,
}

/// A held solve slot for a direct (non-coalesced) op; released on drop.
pub struct Permit<'a>(&'a Frontend);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// The admission-controlled, coalescing front-end. See the
/// [module docs](self) for the threading model. Internally synchronized:
/// every method takes `&self`.
pub struct Frontend {
    service: Arc<Service>,
    max_inflight: usize,
    queue_depth: usize,
    linger: usize,
    state: Mutex<FrontState>,
    cv: Condvar,
    met: FrontMetrics,
}

impl Frontend {
    /// Wrap a service with the given admission/coalescing bounds.
    pub fn new(service: Arc<Service>, options: FrontendOptions) -> Self {
        let met = FrontMetrics::new(&service);
        Self {
            service,
            max_inflight: options.max_inflight.max(1),
            queue_depth: options.queue_depth,
            linger: options.linger.max(1),
            state: Mutex::new(FrontState::default()),
            cv: Condvar::new(),
            met,
        }
    }

    /// Wrap a service with [default](FrontendOptions::default) bounds.
    pub fn with_defaults(service: Arc<Service>) -> Self {
        Self::new(service, FrontendOptions::default())
    }

    /// The wrapped service (updates and `stats` route straight through —
    /// admission never blocks the write path).
    pub fn service(&self) -> &Service {
        &self.service
    }

    /// Count one served session (see [`FrontendCounters::connections`]).
    pub fn note_connection(&self) {
        self.met.connections.inc();
    }

    /// Count one dispatched protocol request in `requests_total{op=…}`.
    /// Only known ops count — series names are a fixed whitelist, so
    /// attacker-controlled op strings can never mint registry entries.
    pub(crate) fn count_request(&self, op: &str) {
        if let Some((_, c)) = self.met.requests.iter().find(|(name, _)| *name == op) {
            c.inc();
        }
    }

    /// Snapshot the front-end counters (reads the registry series; the
    /// instantaneous `queued` comes from the state under its lock).
    pub fn counters(&self) -> FrontendCounters {
        let queued = {
            let state = self.state.lock().expect("frontend lock");
            state.pending.len() + state.waiting
        };
        FrontendCounters {
            connections: self.met.connections.get(),
            queued,
            rejected: self.met.rejected.get(),
            batches: self.met.batches.get(),
            batched_requests: self.met.batched_requests.get(),
            max_batch: self.met.max_batch.get() as u64,
        }
    }

    /// Submit one `jra` through the coalescer. Plans immediately (a
    /// malformed request fails fast without occupying a queue slot), then
    /// queues, and either drains a batch itself or parks until a
    /// neighbouring drainer fans the answer back.
    pub fn jra(&self, spec: &JraSpec) -> JraOutcome {
        let start = Instant::now();
        let trace = self.service.telemetry().new_trace();
        let (snapshot, planned) = self.service.plan_jra_one(spec);
        // Adjacent stages share one clock read: each boundary timestamp
        // ends one span and starts the next.
        let planned_at = Instant::now();
        trace.record("plan", 0, 1, planned_at.saturating_duration_since(start));
        let planned = match planned {
            Ok(p) => p,
            Err(e) => {
                // Plan failures still finish (and publish) their trace —
                // structure [plan] only, so goldens stay deterministic.
                let finished = trace.finish("jra", None);
                if self.service.telemetry().is_enabled() {
                    self.service.telemetry().traces().push(finished.clone());
                }
                self.met.op_jra.observe_duration(start.elapsed());
                return JraOutcome::Done {
                    snapshot,
                    answer: Err(e),
                    loss_bound: None,
                    trace: finished,
                };
            }
        };
        let loss_bound = planned.loss_bound;
        let slot: Slot = Arc::new(Mutex::new(None));
        let mut state = self.state.lock().expect("frontend lock");
        if state.pending.len() >= self.queue_depth && state.inflight >= self.max_inflight {
            self.met.rejected.inc();
            // Rejected requests never queue or solve; their trace is
            // dropped (the rejection itself is counted).
            return JraOutcome::Busy;
        }
        let admitted_at = Instant::now();
        trace.record("admit", 0, 1, admitted_at.saturating_duration_since(planned_at));
        state.pending.push_back(Entry {
            snapshot: Arc::clone(&snapshot),
            planned,
            slot: Arc::clone(&slot),
            trace,
            enqueued: admitted_at,
        });
        self.met.queued.set((state.pending.len() + state.waiting) as i64);
        loop {
            // (a) A drainer (possibly ourselves, one iteration ago)
            // already fanned our answer back. The drainer sealed the
            // trace before filling the slot, so it is always complete.
            if let Some((answer, trace)) = slot.lock().expect("slot lock").take() {
                self.met.op_jra.observe_duration(start.elapsed());
                return JraOutcome::Done { snapshot, answer, loss_bound, trace };
            }
            // (b) A solve slot is free and work is pending: become the
            // drainer. One coalesced group per iteration, then re-check
            // our own slot — keeps latency fair under sustained load.
            if state.inflight < self.max_inflight && !state.pending.is_empty() {
                state.inflight += 1;
                self.met.inflight.set(state.inflight as i64);
                drop(state);
                self.drain_one();
                state = self.state.lock().expect("frontend lock");
                continue;
            }
            // (c) Park until a drainer or a released permit wakes us.
            state = self.cv.wait(state).expect("frontend lock");
        }
    }

    /// Drain one coalesced batch: the longest same-epoch prefix of the
    /// queue, at most `linger` entries. Caller must have incremented
    /// `inflight`; this decrements it and wakes all waiters.
    fn drain_one(&self) {
        let group = {
            let mut state = self.state.lock().expect("frontend lock");
            let mut group: Vec<Entry> = Vec::new();
            if let Some(front) = state.pending.front() {
                // Coalescing never mixes epochs: a batch admits at one
                // snapshot, and answers must reflect the epoch each
                // request was admitted at.
                let epoch = front.snapshot.epoch();
                while group.len() < self.linger {
                    match state.pending.front() {
                        Some(e) if e.snapshot.epoch() == epoch => {
                            group.push(state.pending.pop_front().expect("front exists"));
                        }
                        _ => break,
                    }
                }
            }
            if group.is_empty() {
                // Another drainer got here first; retire the slot.
                state.inflight -= 1;
                self.met.inflight.set(state.inflight as i64);
                drop(state);
                self.cv.notify_all();
                return;
            }
            self.met.batches.inc();
            self.met.batched_requests.add(group.len() as u64);
            self.met.max_batch.set_max(group.len() as i64);
            self.met.queued.set((state.pending.len() + state.waiting) as i64);
            group
        };
        // The queue wait ends at dequeue: record it before the solve so
        // every trace reads plan, admit, queue_wait, then the solve's
        // nested stages. One clock read covers the whole group.
        let dequeued_at = Instant::now();
        for e in &group {
            e.trace.record("queue_wait", 0, 1, dequeued_at.saturating_duration_since(e.enqueued));
        }
        let snapshot = Arc::clone(&group[0].snapshot);
        let batch_size = group.len() as u64;
        let (entries, queries): (Vec<(Slot, Trace)>, Vec<_>) =
            group.into_iter().map(|e| ((e.slot, e.trace), Ok(e.planned))).unzip();
        let traces: Vec<Trace> = entries.iter().map(|(_, t)| t.clone()).collect();
        // The coalesced solve: probes the result cache per query, solves
        // the misses as one positional JraBatch, bit-identical to solving
        // each alone. It records cache_probe/solve/fanout (depth 1) into
        // every entry's trace.
        let solve_start = Instant::now();
        let answers = self.service.exec_jra(&snapshot, &queries, &traces);
        let solve_time = solve_start.elapsed();
        {
            let mut state = self.state.lock().expect("frontend lock");
            state.inflight -= 1;
            self.met.inflight.set(state.inflight as i64);
        }
        // Seal every trace *before* filling its slot: a woken submitter
        // must never observe a trace still being written.
        for ((slot, trace), answer) in entries.iter().zip(answers) {
            trace.record("coalesce", 0, batch_size, solve_time);
            let finished = trace.finish("jra", None);
            if self.service.telemetry().is_enabled() {
                self.service.telemetry().traces().push(finished.clone());
            }
            *slot.lock().expect("slot lock") = Some((answer, finished));
        }
        self.cv.notify_all();
    }

    /// Take a solve slot for a direct (non-coalesced) op — an explicit
    /// `batch` or a CRA `assign`. Waits if all slots are busy but the
    /// waiting room has space; returns `None` ("busy") otherwise. The
    /// slot is released when the [`Permit`] drops.
    pub fn permit(&self) -> Option<Permit<'_>> {
        let mut state = self.state.lock().expect("frontend lock");
        if state.inflight < self.max_inflight {
            state.inflight += 1;
            self.met.inflight.set(state.inflight as i64);
            return Some(Permit(self));
        }
        if state.waiting >= self.queue_depth {
            self.met.rejected.inc();
            return None;
        }
        state.waiting += 1;
        self.met.queued.set((state.pending.len() + state.waiting) as i64);
        loop {
            state = self.cv.wait(state).expect("frontend lock");
            if state.inflight < self.max_inflight {
                state.waiting -= 1;
                state.inflight += 1;
                self.met.inflight.set(state.inflight as i64);
                self.met.queued.set((state.pending.len() + state.waiting) as i64);
                return Some(Permit(self));
            }
        }
    }

    fn release(&self) {
        let mut state = self.state.lock().expect("frontend lock");
        state.inflight -= 1;
        self.met.inflight.set(state.inflight as i64);
        drop(state);
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{PaperRef, ServeOptions, SolveRequest};
    use crate::Answer;
    use std::time::{Duration, Instant};
    use wgrap_core::prelude::Scoring;

    fn test_service() -> Arc<Service> {
        let text = "\
topics 3
delta_p 2
delta_r 3
reviewer alice 0.7 0.2 0.1
reviewer bob   0.1 0.8 0.1
reviewer carol 0.2 0.2 0.6
paper p-17 0.5 0.4 0.1
paper p-23 0.0 0.3 0.7
coi alice p-17
";
        let inst = wgrap_core::io::parse_instance(text).unwrap();
        Arc::new(Service::new(inst, Scoring::WeightedCoverage, 42))
    }

    fn spec(paper: usize) -> JraSpec {
        JraSpec {
            paper: PaperRef::Id(paper),
            delta_p: None,
            top_k: 1,
            exclude: vec![],
            pruning: None,
        }
    }

    fn wait_until(frontend: &Frontend, cond: impl Fn(FrontendCounters) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond(frontend.counters()) {
            assert!(Instant::now() < deadline, "condition not reached in time");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn answer_of(outcome: JraOutcome) -> JraAnswer {
        match outcome {
            JraOutcome::Done { answer, .. } => answer.unwrap(),
            JraOutcome::Busy => panic!("unexpected busy"),
        }
    }

    #[test]
    fn frontend_jra_matches_service_bitwise() {
        let service = test_service();
        let frontend = Frontend::with_defaults(Arc::clone(&service));
        let via_front = answer_of(frontend.jra(&spec(1)));
        // A second, independent service answers cold for comparison.
        let reference = test_service();
        let outcome = reference.execute(&SolveRequest::Jra(spec(1))).unwrap();
        let Answer::Jra(answers) = outcome.answer else { panic!() };
        let reference = answers.into_iter().next().unwrap().unwrap();
        assert_eq!(via_front.results.len(), reference.results.len());
        for (a, b) in via_front.results.iter().zip(&reference.results) {
            assert_eq!(a.group, b.group);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn plan_errors_fail_fast_without_queueing() {
        let frontend = Frontend::with_defaults(test_service());
        let bad = JraSpec {
            paper: PaperRef::Name("p-99".into()),
            delta_p: None,
            top_k: 1,
            exclude: vec![],
            pruning: None,
        };
        match frontend.jra(&bad) {
            JraOutcome::Done { answer, .. } => {
                assert_eq!(answer.unwrap_err(), "unknown paper 'p-99'")
            }
            JraOutcome::Busy => panic!("plan errors must not hit admission"),
        }
        let c = frontend.counters();
        assert_eq!((c.queued, c.batches), (0, 0));
    }

    #[test]
    fn concurrent_submissions_coalesce_into_one_batch() {
        // Deterministic occupancy: hold the only solve slot, queue K
        // distinct requests behind it, release — the first woken
        // submitter must drain all K as one batch.
        let service = test_service();
        let frontend = Arc::new(Frontend::new(
            Arc::clone(&service),
            FrontendOptions { max_inflight: 1, queue_depth: 16, linger: 32 },
        ));
        let permit = frontend.permit().expect("slot free");
        const K: usize = 4;
        let handles: Vec<_> = (0..K)
            .map(|i| {
                let frontend = Arc::clone(&frontend);
                // Distinct delta_p per submitter keeps the request keys
                // distinct, so every entry solves (no cache collapse).
                std::thread::spawn(move || {
                    answer_of(frontend.jra(&JraSpec { delta_p: Some(i % 2 + 1), ..spec(i % 2) }))
                })
            })
            .collect();
        wait_until(&frontend, |c| c.queued == K);
        drop(permit);
        for h in handles {
            let answer = h.join().unwrap();
            assert!(!answer.results.is_empty());
        }
        let c = frontend.counters();
        assert_eq!(c.batches, 1, "all {K} must coalesce into one batch");
        assert_eq!(c.batched_requests, K as u64);
        assert_eq!(c.max_batch, K as u64);
        assert_eq!(c.queued, 0);
    }

    #[test]
    fn coalescing_never_mixes_epochs() {
        let service = test_service();
        let frontend = Arc::new(Frontend::new(
            Arc::clone(&service),
            FrontendOptions { max_inflight: 1, queue_depth: 16, linger: 32 },
        ));
        let permit = frontend.permit().expect("slot free");
        let t1 = {
            let frontend = Arc::clone(&frontend);
            std::thread::spawn(move || answer_of(frontend.jra(&spec(0))))
        };
        wait_until(&frontend, |c| c.queued == 1);
        // Publish a new epoch while the first request is queued — the
        // write path bypasses admission, so this cannot deadlock on the
        // held permit.
        service
            .execute(&SolveRequest::Update(vec![crate::store::Update::RetireReviewer {
                reviewer: 2,
            }]))
            .unwrap();
        let t2 = {
            let frontend = Arc::clone(&frontend);
            std::thread::spawn(move || answer_of(frontend.jra(&spec(0))))
        };
        wait_until(&frontend, |c| c.queued == 2);
        drop(permit);
        t1.join().unwrap();
        t2.join().unwrap();
        let c = frontend.counters();
        assert_eq!(c.batches, 2, "epoch-0 and epoch-1 entries must not share a batch");
        assert_eq!(c.max_batch, 1);
    }

    #[test]
    fn admission_rejects_when_saturated() {
        let frontend = Frontend::new(
            test_service(),
            FrontendOptions { max_inflight: 1, queue_depth: 0, linger: 32 },
        );
        let permit = frontend.permit().expect("first permit");
        // Queue depth 0: with the only slot held, both paths reject.
        assert!(matches!(frontend.jra(&spec(0)), JraOutcome::Busy));
        assert!(frontend.permit().is_none());
        assert_eq!(frontend.counters().rejected, 2);
        drop(permit);
        // Capacity back: both paths admit again.
        assert!(matches!(frontend.jra(&spec(0)), JraOutcome::Done { .. }));
        assert!(frontend.permit().is_some());
        assert_eq!(frontend.counters().rejected, 2);
    }

    #[test]
    fn linger_caps_batch_size() {
        let service = test_service();
        let frontend = Arc::new(Frontend::new(
            Arc::clone(&service),
            FrontendOptions { max_inflight: 1, queue_depth: 16, linger: 2 },
        ));
        let permit = frontend.permit().expect("slot free");
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let frontend = Arc::clone(&frontend);
                std::thread::spawn(move || {
                    answer_of(frontend.jra(&JraSpec { delta_p: Some(i % 2 + 1), ..spec(i % 2) }))
                })
            })
            .collect();
        wait_until(&frontend, |c| c.queued == 4);
        drop(permit);
        for h in handles {
            h.join().unwrap();
        }
        let c = frontend.counters();
        assert_eq!(c.batched_requests, 4);
        assert!(c.max_batch <= 2, "linger=2 must cap every batch, got {}", c.max_batch);
        assert!(c.batches >= 2);
    }

    #[test]
    fn cache_capacity_zero_still_answers_through_frontend() {
        let text = "\
topics 2
delta_p 1
delta_r 2
reviewer a 1.0 0.0
reviewer b 0.0 1.0
paper p 0.5 0.5
";
        let inst = wgrap_core::io::parse_instance(text).unwrap();
        let service = Arc::new(Service::from_store(
            crate::store::VersionedStore::new(inst, Scoring::PaperCoverage, 7),
            ServeOptions { cache_cap: 0, ..ServeOptions::default() },
        ));
        let frontend = Frontend::with_defaults(Arc::clone(&service));
        let first = answer_of(frontend.jra(&spec(0)));
        let second = answer_of(frontend.jra(&spec(0)));
        assert_eq!(first.results[0].score.to_bits(), second.results[0].score.to_bits());
        let c = service.cache_counters();
        assert_eq!((c.size, c.hits, c.capacity), (0, 0, 0), "cap 0 never stores");
        assert_eq!(c.misses, 2);
    }
}
