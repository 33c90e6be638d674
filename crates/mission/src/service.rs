//! The async mission service: a long-running front end that turns the
//! batch sweep machinery into a request/stream server.
//!
//! # Request / shard / stream contract
//!
//! * **Request.** [`MissionService::submit`] takes a [`SweepConfig`],
//!   validates it up front with [`SweepConfig::validate`] (a NaN knob is
//!   rejected at the door with a typed [`SweepError`], never deep inside
//!   a worker thread) and returns a monotonically increasing
//!   [`RequestId`]. One request expands into one work item per
//!   difficulty row.
//! * **Shards.** Work items are assigned to the `shards` worker threads
//!   round-robin in submission order. Each worker computes complete
//!   sweep rows (the exact [`crate::sweep::run_sweep`] row function —
//!   one oblivious and one aware mission in the row's environment), so a
//!   row's *value* never depends on which shard ran it or when.
//! * **Stream.** Every finished row is published on the middleware bus
//!   topic [`ROW_TOPIC`] as a [`RowMessage`]. The collector re-orders
//!   completions so the stream is emitted in **(request order, row
//!   order)** regardless of shard scheduling. [`MissionService::collect`]
//!   blocks until a request's rows are all done and returns them as
//!   [`SweepResults`], again in row order.
//!
//! # Determinism guarantee
//!
//! Row values are pure functions of `(config, row index)` — every
//! mission inside a row owns its seed — and both the bus stream and
//! `collect` present rows in (request order, row order). The service's
//! observable output is therefore bit-identical for a given (seed,
//! request order), whatever the shard count, thread scheduling or
//! submission timing. A one-shard service and a serial batch
//! [`crate::sweep::run_sweep`] call (`threads: Some(1)`) produce the same
//! rows bit for bit.
//!
//! A panic inside a row is captured on the shard, recorded against its
//! request with the failing row index, and resumed on the caller's
//! thread by [`MissionService::collect`] — the same first-failure
//! contract as the pooled batch sweep.

use crate::sweep::{run_sweep_row, SweepConfig, SweepError, SweepResults, SweepRow};
use roborun_middleware::{MessageBus, Node, Publisher, QosProfile, Subscription};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// The bus topic finished rows stream on.
pub const ROW_TOPIC: &str = "/mission_service/rows";

/// Identifier of a submitted request, monotonically increasing in
/// submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

/// One finished sweep row as streamed over [`ROW_TOPIC`].
#[derive(Debug, Clone, PartialEq)]
pub struct RowMessage {
    /// The request this row belongs to.
    pub request: RequestId,
    /// The row's index inside its request (difficulty order).
    pub row: usize,
    /// The computed row.
    pub value: SweepRow,
}

impl roborun_middleware::Message for RowMessage {
    fn approx_size_bytes(&self) -> usize {
        std::mem::size_of::<RowMessage>()
    }

    fn type_name() -> &'static str {
        "mission/RowMessage"
    }
}

/// Configuration of the mission service.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker (shard) count. Clamped to at least 1.
    pub shards: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: roborun_trace::host_cores(),
        }
    }
}

/// A row's computation outcome on a shard: the value, or the captured
/// panic message of the first failing row.
enum RowOutcome {
    Done(Box<SweepRow>),
    Panicked(String),
}

/// Per-request state shared between the submitter, the shards, the
/// collector and `collect`.
struct RequestState {
    id: RequestId,
    config: SweepConfig,
    rows: Mutex<RequestRows>,
    done: Condvar,
}

struct RequestRows {
    values: Vec<Option<SweepRow>>,
    completed: usize,
    /// First captured row panic, as `(row index, message)`.
    failure: Option<(usize, String)>,
}

impl RequestState {
    fn total(&self) -> usize {
        self.config.difficulties.len()
    }
}

/// One unit of shard work: a row of a submitted request.
struct WorkItem {
    request: Arc<RequestState>,
    row: usize,
}

/// What the shards report to the collector, in completion order.
struct Completion {
    request: RequestId,
    row: usize,
    outcome: RowOutcome,
}

struct ServiceShared {
    /// Round-robin shard inboxes; `None` is the shutdown sentinel.
    queues: Vec<Mutex<VecDeque<Option<WorkItem>>>>,
    /// One condvar per shard inbox.
    available: Vec<Condvar>,
    /// Completions from the shards to the collector; `None` = shutdown.
    completions: Mutex<VecDeque<Option<Completion>>>,
    completions_ready: Condvar,
    /// Requests in submission order the collector still has to stream.
    pending_stream: Mutex<VecDeque<Arc<RequestState>>>,
}

/// The long-running mission service (see the module docs for the
/// request/shard/stream contract and the determinism guarantee).
pub struct MissionService {
    shared: Arc<ServiceShared>,
    bus: MessageBus,
    workers: Vec<JoinHandle<()>>,
    collector: Option<JoinHandle<()>>,
    requests: Mutex<HashMap<RequestId, Arc<RequestState>>>,
    next_request: Mutex<u64>,
    next_shard: Mutex<usize>,
}

impl std::fmt::Debug for MissionService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MissionService")
            .field("shards", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl MissionService {
    /// Starts the service: spawns the shard workers and the stream
    /// collector. The service owns a free-transport [`MessageBus`];
    /// subscribe to [`ROW_TOPIC`] (e.g. via
    /// [`MissionService::subscribe_rows`]) before submitting to observe
    /// the stream.
    pub fn start(config: ServiceConfig) -> Self {
        let shards = config.shards.max(1);
        let shared = Arc::new(ServiceShared {
            queues: (0..shards).map(|_| Mutex::new(VecDeque::new())).collect(),
            available: (0..shards).map(|_| Condvar::new()).collect(),
            completions: Mutex::new(VecDeque::new()),
            completions_ready: Condvar::new(),
            pending_stream: Mutex::new(VecDeque::new()),
        });
        let bus = MessageBus::with_free_transport();
        let workers = (0..shards)
            .map(|shard| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || shard_loop(&shared, shard))
            })
            .collect();
        let collector = {
            let shared = Arc::clone(&shared);
            let node = Node::new(&bus, "mission_service").expect("service node");
            let publisher = node.publisher::<RowMessage>(ROW_TOPIC).expect("row topic");
            Some(std::thread::spawn(move || {
                collector_loop(&shared, &publisher)
            }))
        };
        MissionService {
            shared,
            bus,
            workers,
            collector,
            requests: Mutex::new(HashMap::new()),
            next_request: Mutex::new(0),
            next_shard: Mutex::new(0),
        }
    }

    /// The service's bus (for graph introspection or extra topics).
    pub fn bus(&self) -> &MessageBus {
        &self.bus
    }

    /// A subscription to the finished-row stream. Subscribe before
    /// submitting — the reliable queue holds up to `depth` rows.
    pub fn subscribe_rows(&self, depth: usize) -> Subscription<RowMessage> {
        let node = Node::new(&self.bus, "row_listener").expect("listener node");
        node.subscribe::<RowMessage>(ROW_TOPIC, QosProfile::reliable(depth))
            .expect("row subscription")
    }

    /// Submits a sweep request. The configuration is validated up front:
    /// a non-finite knob or an empty difficulty list is rejected here,
    /// before any worker sees it.
    pub fn submit(&self, config: SweepConfig) -> Result<RequestId, SweepError> {
        config.validate()?;
        let id = {
            let mut next = self.next_request.lock().expect("request counter poisoned");
            let id = RequestId(*next);
            *next += 1;
            id
        };
        let state = Arc::new(RequestState {
            id,
            rows: Mutex::new(RequestRows {
                values: vec![None; config.difficulties.len()],
                completed: 0,
                failure: None,
            }),
            done: Condvar::new(),
            config,
        });
        self.requests
            .lock()
            .expect("request map poisoned")
            .insert(id, Arc::clone(&state));
        self.shared
            .pending_stream
            .lock()
            .expect("stream queue poisoned")
            .push_back(Arc::clone(&state));
        // Round-robin the rows across the shard inboxes in row order —
        // assignment is deterministic, though row values never depend on
        // it.
        let mut shard = self.next_shard.lock().expect("shard cursor poisoned");
        for row in 0..state.total() {
            let target = *shard % self.shared.queues.len();
            *shard = (*shard + 1) % self.shared.queues.len();
            self.shared.queues[target]
                .lock()
                .expect("shard queue poisoned")
                .push_back(Some(WorkItem {
                    request: Arc::clone(&state),
                    row,
                }));
            self.shared.available[target].notify_one();
        }
        Ok(id)
    }

    /// Blocks until every row of `request` is finished and returns them
    /// in row order. Submitting and collecting interleave freely; each
    /// request can be collected once.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown (or already collected), or — resuming
    /// the shard's captured failure — if a row of this request panicked,
    /// with the failing row index attached.
    pub fn collect(&self, request: RequestId) -> SweepResults {
        let state = self
            .requests
            .lock()
            .expect("request map poisoned")
            .remove(&request)
            .unwrap_or_else(|| panic!("unknown or already collected request {request:?}"));
        let mut rows = state.rows.lock().expect("request rows poisoned");
        while rows.completed < state.total() && rows.failure.is_none() {
            rows = state.done.wait(rows).expect("request rows poisoned");
        }
        if let Some((index, message)) = rows.failure.take() {
            panic!("sweep row {index} panicked: {message}");
        }
        let values = std::mem::take(&mut rows.values);
        SweepResults::from_rows(
            values
                .into_iter()
                .map(|row| row.expect("every row was completed"))
                .collect(),
        )
    }

    /// Stops the shards and the collector and waits for them. Queued
    /// work that has not started is dropped; call
    /// [`MissionService::collect`] for every submitted request *before*
    /// shutting down.
    pub fn shutdown(mut self) {
        for (queue, available) in self.shared.queues.iter().zip(&self.shared.available) {
            queue.lock().expect("shard queue poisoned").push_back(None);
            available.notify_one();
        }
        for worker in self.workers.drain(..) {
            worker.join().expect("shard worker panicked");
        }
        self.shared
            .completions
            .lock()
            .expect("completion queue poisoned")
            .push_back(None);
        self.shared.completions_ready.notify_one();
        if let Some(collector) = self.collector.take() {
            collector.join().expect("collector panicked");
        }
        self.bus.shutdown();
    }
}

/// One shard: pop a work item, compute its row (capturing panics), post
/// the completion, repeat until the shutdown sentinel.
fn shard_loop(shared: &ServiceShared, shard: usize) {
    // Every event this shard emits (row spans and the mission spans the
    // rows produce) lands on its own deterministic track.
    roborun_trace::collector::set_track(
        roborun_trace::SHARD_TRACK_BASE + u32::try_from(shard).unwrap_or(u32::MAX - 1),
    );
    loop {
        let item = {
            let mut queue = shared.queues[shard].lock().expect("shard queue poisoned");
            loop {
                match queue.pop_front() {
                    Some(item) => break item,
                    None => {
                        queue = shared.available[shard]
                            .wait(queue)
                            .expect("shard queue poisoned");
                    }
                }
            }
        };
        let Some(WorkItem { request, row }) = item else {
            return;
        };
        let row_timer = roborun_trace::timer();
        let outcome = match catch_unwind(AssertUnwindSafe(|| run_sweep_row(&request.config, row))) {
            Ok(value) => {
                if roborun_trace::armed() {
                    // The row span covers the two missions' combined sim
                    // time; the wall duration is the shard's real cost.
                    roborun_trace::collector::complete(
                        roborun_trace::SpanKind::ShardRow,
                        0.0,
                        value.oblivious.mission_time + value.aware.mission_time,
                        roborun_trace::timer_ns(&row_timer),
                        &[("shard", shard as f64), ("row", row as f64)],
                    );
                    roborun_trace::collector::flush();
                }
                RowOutcome::Done(Box::new(value))
            }
            Err(payload) => {
                let message = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                RowOutcome::Panicked(message)
            }
        };
        // Record against the request first (collect() may be waiting),
        // then hand the completion to the collector for streaming.
        {
            let mut rows = request.rows.lock().expect("request rows poisoned");
            match &outcome {
                RowOutcome::Done(value) => {
                    rows.values[row] = Some(**value);
                    rows.completed += 1;
                }
                RowOutcome::Panicked(message) => {
                    if rows.failure.is_none() {
                        rows.failure = Some((row, message.clone()));
                    }
                }
            }
            request.done.notify_all();
        }
        shared
            .completions
            .lock()
            .expect("completion queue poisoned")
            .push_back(Some(Completion {
                request: request.id,
                row,
                outcome,
            }));
        shared.completions_ready.notify_one();
    }
}

/// The collector: receive completions in whatever order the shards
/// finish, publish them on the bus strictly in (request order, row
/// order) through a reorder buffer.
fn collector_loop(shared: &ServiceShared, publisher: &Publisher<RowMessage>) {
    let mut buffer: HashMap<(RequestId, usize), SweepRow> = HashMap::new();
    // Cursor into the front pending request's rows.
    let mut front: Option<(Arc<RequestState>, usize)> = None;
    loop {
        let completion = {
            let mut queue = shared
                .completions
                .lock()
                .expect("completion queue poisoned");
            loop {
                match queue.pop_front() {
                    Some(completion) => break completion,
                    None => {
                        queue = shared
                            .completions_ready
                            .wait(queue)
                            .expect("completion queue poisoned");
                    }
                }
            }
        };
        let Some(completion) = completion else {
            return;
        };
        match completion.outcome {
            RowOutcome::Done(value) => {
                buffer.insert((completion.request, completion.row), *value);
            }
            // A panicked row never streams; its request's remaining rows
            // may still arrive and stream up to the gap.
            RowOutcome::Panicked(_) => continue,
        }
        // Drain everything now in order.
        loop {
            if front.is_none() {
                front = shared
                    .pending_stream
                    .lock()
                    .expect("stream queue poisoned")
                    .pop_front()
                    .map(|state| (state, 0));
            }
            let Some((state, next_row)) = front.as_mut() else {
                break;
            };
            if *next_row >= state.total() {
                front = None;
                continue;
            }
            let Some(value) = buffer.remove(&(state.id, *next_row)) else {
                break;
            };
            publisher
                .publish(RowMessage {
                    request: state.id,
                    row: *next_row,
                    value,
                })
                .expect("row stream publish");
            *next_row += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::run_sweep;
    use roborun_faults::{FaultPlanConfig, FaultWindows};

    fn tiny_request(seed: u64) -> SweepConfig {
        let mut config = SweepConfig::quick(seed);
        config.difficulties.truncate(2);
        config.aware.max_decisions = 400;
        config.oblivious.max_decisions = 1_000;
        config
    }

    #[test]
    fn service_rows_match_the_batch_sweep_and_stream_in_order() {
        let service = MissionService::start(ServiceConfig { shards: 3 });
        let stream = service.subscribe_rows(64);
        let config = tiny_request(31);
        let id = service.submit(config.clone()).expect("valid request");
        let results = service.collect(id);
        let reference = run_sweep(&SweepConfig {
            threads: Some(1),
            ..config.clone()
        });
        assert_eq!(results.rows(), reference.rows());
        service.shutdown();
        let streamed: Vec<RowMessage> =
            stream.drain().into_iter().map(|s| s.into_inner()).collect();
        assert_eq!(streamed.len(), reference.rows().len());
        for (i, message) in streamed.iter().enumerate() {
            assert_eq!(message.request, id);
            assert_eq!(message.row, i);
            assert_eq!(message.value, reference.rows()[i]);
        }
    }

    #[test]
    fn invalid_requests_are_rejected_at_submission() {
        let service = MissionService::start(ServiceConfig { shards: 1 });
        let mut config = tiny_request(1);
        config.difficulties[0].obstacle_density = f64::NAN;
        let err = service
            .submit(config)
            .expect_err("NaN knob must be rejected");
        assert!(matches!(err, SweepError::NonFiniteKnob { index: 0, .. }));
        service.shutdown();
    }

    #[test]
    fn invalid_fault_plans_are_rejected_at_submission() {
        let service = MissionService::start(ServiceConfig { shards: 1 });
        let mut config = tiny_request(1);
        config.oblivious.fault_plan = FaultPlanConfig::fog(12.0);
        config.oblivious.fault_plan.sensor.blackout = Some(FaultWindows::every(10, 11));
        let err = service
            .submit(config.clone())
            .expect_err("a malformed fault plan must be rejected");
        match &err {
            SweepError::InvalidFaultPlan { template, message } => {
                assert_eq!(*template, "oblivious");
                assert!(message.contains("sensor.blackout"), "{message}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(err.to_string().contains("oblivious"));
        config.oblivious.fault_plan = FaultPlanConfig::healthy();
        config.aware.fault_plan.sensor.fog_visibility_cap = Some(f64::NAN);
        assert!(matches!(
            service.submit(config),
            Err(SweepError::InvalidFaultPlan {
                template: "aware",
                ..
            })
        ));
        service.shutdown();
    }
}
