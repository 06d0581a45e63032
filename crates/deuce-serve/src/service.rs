//! Service internals: builder, handle, and the shard workers that own
//! their tenants.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use deuce_schemes::AnyScheme;
use deuce_sim::{SessionStep, SimConfig, Simulator, StepSession};
use deuce_telemetry::{FlightEvent, FlightRecorder, Histogram, Recorder};

use crate::report::{build_recorder, ServeReport, ServeStats, ShardReport, TenantReport};
use crate::request::{request_event, Request};

/// Most requests a worker pops at once; its `applied` count advances
/// once per batch.
const MAX_BATCH: usize = 32;

/// Opaque handle naming one registered tenant.
///
/// Obtained from [`ServeHandle::tenant`]; passing it to
/// [`ServeHandle::submit`] routes the batch into that tenant's key
/// domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId(pub(crate) usize);

impl TenantId {
    /// The tenant's registration index (order of
    /// [`ServiceBuilder::tenant`] calls).
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Why a batch was rejected at submission.
///
/// Rejection is all-or-nothing: a rejected batch was not enqueued and
/// will never be applied — resubmitting the identical batch later is
/// safe and equivalent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The tenant's shard has no room for the batch.
    QueueFull {
        /// The shard that was full (the tenant's index modulo the
        /// shard count).
        shard: usize,
        /// That shard's queue length at rejection.
        queued: usize,
        /// The per-shard queue capacity.
        capacity: usize,
        /// Suggested wait before retrying: how long the shard, at the
        /// rate it applies requests while busy, needs to drain its
        /// queue (wall clock; never feeds simulated results).
        retry_after: Duration,
    },
    /// [`ServeHandle::shutdown`] has begun; no new work is accepted.
    ShuttingDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::QueueFull { shard, queued, capacity, retry_after } => write!(
                f,
                "shard {shard} queue full ({queued}/{capacity}); retry after {retry_after:?}"
            ),
            Self::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why the service failed to start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// No tenants were registered.
    NoTenants,
    /// Two tenants share a name.
    DuplicateTenant(String),
    /// A tenant's session could not be opened: its configuration was
    /// rejected, or its store backend failed (paged backends create
    /// their page file at start).
    Session {
        /// The tenant whose session failed to open.
        tenant: String,
        /// The underlying error.
        error: String,
    },
    /// A shard worker thread could not be spawned.
    Spawn(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoTenants => write!(f, "no tenants registered"),
            Self::DuplicateTenant(name) => write!(f, "duplicate tenant {name:?}"),
            Self::Session { tenant, error } => write!(f, "tenant {tenant:?}: {error}"),
            Self::Spawn(error) => write!(f, "spawn shard worker: {error}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A tenant's stepping state, owned by its shard.
struct TenantCore {
    session: StepSession<AnyScheme>,
    /// Requests stepped to completion.
    applied: u64,
    /// Ring of recent applied requests, when flight recording is on.
    flight: Option<FlightRing>,
    /// Flight ring snapshotted at the first uncorrectable write.
    ue_snapshot: Option<FlightRecorder>,
}

impl TenantCore {
    /// Steps the tenant's next request. The tenant's requests reach its
    /// shard through one FIFO, so the number applied before this one is
    /// its submission index — the sequence number `request_event` needs.
    fn apply(&mut self, request: &Request) {
        let event = request_event(self.applied, request);
        let step = match self.flight.as_mut() {
            Some(ring) => self.session.step_recorded(&event, ring),
            None => self.session.step(&event),
        };
        self.applied += 1;
        if let SessionStep::Write { uncorrectable: true, .. } = step {
            if self.ue_snapshot.is_none() {
                self.ue_snapshot = self.flight.as_ref().map(|ring| ring.0.clone());
            }
        }
    }
}

/// Minimal [`Recorder`] feeding only the flight ring. Recording never
/// changes simulated results (pinned by the simulator's parity tests),
/// so stepping with this is bit-identical to stepping bare.
struct FlightRing(FlightRecorder);

impl Recorder for FlightRing {
    fn wants_flight(&self) -> bool {
        true
    }

    fn flight_observed(&mut self, event: FlightEvent) {
        self.0.record(event);
    }
}

#[derive(Default)]
struct Queue {
    items: VecDeque<Item>,
    /// Set by shutdown: submits fail, and the worker exits once the
    /// queue is empty.
    closed: bool,
}

struct Item {
    /// The tenant's position among its shard's tenants.
    slot: usize,
    request: Request,
}

/// What a shard's worker mutates while applying. The worker locks it
/// once per popped batch; shutdown takes it back after the join,
/// poisoned or not.
#[derive(Default)]
struct ShardCore {
    /// Tenants `i` with `i % shards == shard`, in registration order.
    tenants: Vec<TenantCore>,
    batch_sizes: Histogram,
}

/// One worker shard: its queue, the tenants it owns, and its counters,
/// which [`ServeHandle::stats`] reads without locking. The counters are
/// statistics that publish no other data, so they use `Relaxed`;
/// shutdown reads them after joining the worker.
#[derive(Default)]
struct Shard {
    queue: Mutex<Queue>,
    available: Condvar,
    core: Mutex<ShardCore>,
    /// The queue's length, stored under the queue lock.
    depth: AtomicUsize,
    max_depth: AtomicUsize,
    submitted: AtomicU64,
    rejected: AtomicU64,
    applied: AtomicU64,
    batches: AtomicU64,
    drain_wall_ns: AtomicU64,
    apply_wall_ns: AtomicU64,
}

impl Shard {
    fn lock_queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Estimated time to drain `queued` requests at the rate this shard
    /// applies requests while busy; 10ms before it has applied any.
    fn retry_after(&self, queued: usize) -> Duration {
        let applied = self.applied.load(Ordering::Relaxed);
        if applied == 0 {
            return Duration::from_millis(10);
        }
        let ns_per_request = self.apply_wall_ns.load(Ordering::Relaxed) / applied;
        Duration::from_nanos(ns_per_request * queued as u64)
            .clamp(Duration::from_micros(100), Duration::from_millis(250))
    }
}

struct ServiceState {
    /// Tenant names, in registration order.
    names: Vec<String>,
    shards: Vec<Shard>,
    queue_depth: usize,
    paused: Mutex<bool>,
    unpaused: Condvar,
    started: Instant,
}

impl ServiceState {
    fn wait_unpaused(&self) {
        let mut paused = self.paused.lock().unwrap_or_else(PoisonError::into_inner);
        while *paused {
            paused = self
                .unpaused
                .wait(paused)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Configures and launches a service; see the crate docs for the
/// guarantees the running service provides.
///
/// # Examples
///
/// ```
/// use deuce_serve::ServiceBuilder;
/// use deuce_sim::{SchemeKind, SimConfig};
///
/// let handle = ServiceBuilder::new()
///     .shards(4)
///     .queue_depth(256)
///     .tenant("solo", SimConfig::new(SchemeKind::Deuce))
///     .start()
///     .expect("one tenant, four shards");
/// let report = handle.shutdown();
/// assert_eq!(report.shards.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ServiceBuilder {
    shards: usize,
    queue_depth: usize,
    paused: bool,
    flight_capacity: Option<usize>,
    tenants: Vec<(String, SimConfig)>,
}

impl Default for ServiceBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceBuilder {
    /// A builder with one shard, a queue depth of 1024, no flight
    /// recording, and no tenants.
    #[must_use]
    pub fn new() -> Self {
        Self {
            shards: 1,
            queue_depth: 1024,
            paused: false,
            flight_capacity: None,
            tenants: Vec::new(),
        }
    }

    /// Sets the worker shard count (clamped to at least 1). Tenant `i`
    /// (its registration index) is owned by shard `i % shards`, so more
    /// shards than tenants leaves the extra shards idle.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the per-shard queue capacity (clamped to at least 1).
    /// Submissions that would overflow the tenant's shard are rejected
    /// whole with [`SubmitError::QueueFull`].
    #[must_use]
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Starts the service with shard workers parked: submissions queue
    /// (and exercise backpressure deterministically) but nothing is
    /// applied until [`ServeHandle::resume`]. Made for tests.
    #[must_use]
    pub fn start_paused(mut self) -> Self {
        self.paused = true;
        self
    }

    /// Keeps a per-tenant ring of the last `capacity` applied write
    /// events, snapshotted at the first uncorrectable write and
    /// surfaced in [`TenantReport::flight`] for post-mortems.
    #[must_use]
    pub fn with_flight_recorder(mut self, capacity: usize) -> Self {
        self.flight_capacity = Some(capacity);
        self
    }

    /// Registers a tenant: an isolated key domain simulated under
    /// `config`. Names must be unique.
    #[must_use]
    pub fn tenant(mut self, name: impl Into<String>, config: SimConfig) -> Self {
        self.tenants.push((name.into(), config));
        self
    }

    /// Builds every tenant's session, spawns the shard workers, and
    /// returns the running service's handle.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoTenants`] with an empty tenant list,
    /// [`ServeError::DuplicateTenant`] on a name collision,
    /// [`ServeError::Session`] if a tenant's session cannot be opened,
    /// and [`ServeError::Spawn`] if a worker thread fails to start.
    pub fn start(self) -> Result<ServeHandle, ServeError> {
        if self.tenants.is_empty() {
            return Err(ServeError::NoTenants);
        }
        let mut names: Vec<String> = Vec::with_capacity(self.tenants.len());
        let mut owned: Vec<ShardCore> = (0..self.shards).map(|_| ShardCore::default()).collect();
        for (index, (name, config)) in self.tenants.into_iter().enumerate() {
            if names.contains(&name) {
                return Err(ServeError::DuplicateTenant(name));
            }
            let session = Simulator::new(config).session(1).map_err(|e| {
                ServeError::Session { tenant: name.clone(), error: e.to_string() }
            })?;
            owned[index % self.shards].tenants.push(TenantCore {
                session,
                applied: 0,
                flight: self
                    .flight_capacity
                    .map(|cap| FlightRing(FlightRecorder::new(cap))),
                ue_snapshot: None,
            });
            names.push(name);
        }

        let state = Arc::new(ServiceState {
            names,
            shards: owned
                .into_iter()
                .map(|core| Shard { core: Mutex::new(core), ..Shard::default() })
                .collect(),
            queue_depth: self.queue_depth,
            paused: Mutex::new(self.paused),
            unpaused: Condvar::new(),
            started: Instant::now(),
        });

        let mut workers = Vec::with_capacity(self.shards);
        for shard in 0..self.shards {
            let state = Arc::clone(&state);
            let handle = std::thread::Builder::new()
                .name(format!("deuce-serve-{shard}"))
                .spawn(move || worker(&state, &state.shards[shard]))
                .map_err(|e| ServeError::Spawn(e.to_string()))?;
            workers.push(handle);
        }
        Ok(ServeHandle { state, workers })
    }
}

/// The shard worker loop: pop a batch from this shard's queue, then
/// apply it to the shard's own tenants under one lock.
fn worker(state: &ServiceState, shard: &Shard) {
    let mut batch: Vec<Item> = Vec::with_capacity(MAX_BATCH);
    loop {
        state.wait_unpaused();
        let mut queue = shard.lock_queue();
        while queue.items.is_empty() {
            if queue.closed {
                return;
            }
            queue = shard
                .available
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let popped = Instant::now();
        let depth = queue.items.len();
        let n = depth.min(MAX_BATCH);
        batch.extend(queue.items.drain(..n));
        shard.depth.store(depth - n, Ordering::Relaxed);
        drop(queue);
        shard
            .drain_wall_ns
            .fetch_add(popped.elapsed().as_nanos() as u64, Ordering::Relaxed);
        shard.max_depth.fetch_max(depth, Ordering::Relaxed);
        shard.batches.fetch_add(1, Ordering::Relaxed);

        let applying = Instant::now();
        let mut core = shard.core.lock().unwrap_or_else(PoisonError::into_inner);
        core.batch_sizes.record(n as u64);
        for item in batch.drain(..) {
            core.tenants[item.slot].apply(&item.request);
        }
        drop(core);
        shard
            .apply_wall_ns
            .fetch_add(applying.elapsed().as_nanos() as u64, Ordering::Relaxed);
        shard.applied.fetch_add(n as u64, Ordering::Relaxed);
    }
}

/// Handle to a running service: submit work, watch progress, shut down.
///
/// Dropping the handle without calling [`shutdown`](Self::shutdown)
/// leaks the worker threads for the remainder of the process; always
/// shut down to collect results.
pub struct ServeHandle {
    state: Arc<ServiceState>,
    workers: Vec<JoinHandle<()>>,
}

impl ServeHandle {
    /// Looks up a tenant by registration name.
    ///
    /// # Examples
    ///
    /// ```
    /// use deuce_serve::ServiceBuilder;
    /// use deuce_sim::{SchemeKind, SimConfig};
    ///
    /// let handle = ServiceBuilder::new()
    ///     .tenant("a", SimConfig::new(SchemeKind::Deuce))
    ///     .start()
    ///     .unwrap();
    /// assert!(handle.tenant("a").is_some());
    /// assert!(handle.tenant("nope").is_none());
    /// handle.shutdown();
    /// ```
    #[must_use]
    pub fn tenant(&self, name: &str) -> Option<TenantId> {
        self.state.names.iter().position(|n| n == name).map(TenantId)
    }

    /// Registered tenant names, in registration order.
    #[must_use]
    pub fn tenant_names(&self) -> Vec<String> {
        self.state.names.clone()
    }

    /// The worker shard count.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.state.shards.len()
    }

    /// The per-shard queue capacity.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.state.queue_depth
    }

    /// Submits a batch of requests for `tenant`, atomically.
    ///
    /// The whole batch goes to the tenant's shard (its index modulo the
    /// shard count). Under that shard's queue lock, the batch is either
    /// enqueued whole or — if the queue lacks room for all of it —
    /// rejected whole with [`SubmitError::QueueFull`]; no request from
    /// a rejected batch is ever applied. An accepted batch follows the
    /// tenant's earlier batches through the same FIFO, so it is applied
    /// exactly once, in submission order. A full shard rejects only the
    /// tenants it owns.
    ///
    /// Order across *separate* `submit` calls for the same tenant is
    /// the order they take the queue lock, so drive each tenant from
    /// one thread when replay-comparable streams matter.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] under backpressure (resubmit after
    /// `retry_after`), [`SubmitError::ShuttingDown`] once shutdown has
    /// begun. An empty batch always succeeds. A batch longer than
    /// [`queue_depth`](Self::queue_depth) can *never* be accepted —
    /// retrying it loops forever; keep batches no larger than the queue
    /// depth.
    ///
    /// # Panics
    ///
    /// If `tenant` came from a different service with more tenants.
    ///
    /// # Examples
    ///
    /// ```
    /// use deuce_serve::{Request, ServiceBuilder};
    /// use deuce_sim::{SchemeKind, SimConfig};
    /// use deuce_trace::LineAddr;
    ///
    /// let handle = ServiceBuilder::new()
    ///     .tenant("a", SimConfig::new(SchemeKind::Deuce))
    ///     .start()
    ///     .unwrap();
    /// let a = handle.tenant("a").unwrap();
    /// handle
    ///     .submit(a, &[Request::write(LineAddr::new(1), [1; 64])])
    ///     .unwrap();
    /// assert_eq!(handle.shutdown().applied, 1);
    /// ```
    pub fn submit(&self, tenant: TenantId, batch: &[Request]) -> Result<(), SubmitError> {
        // Checked here so a foreign id fails the caller, not a shard.
        assert!(tenant.0 < self.state.names.len(), "unknown tenant {tenant:?}");
        if batch.is_empty() {
            return Ok(());
        }
        let shards = self.state.shards.len();
        let index = tenant.0 % shards;
        let shard = &self.state.shards[index];
        let mut queue = shard.lock_queue();
        if queue.closed {
            return Err(SubmitError::ShuttingDown);
        }
        let queued = queue.items.len();
        let capacity = self.state.queue_depth;
        if queued + batch.len() > capacity {
            drop(queue);
            shard
                .rejected
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
            return Err(SubmitError::QueueFull {
                shard: index,
                queued,
                capacity,
                retry_after: shard.retry_after(queued),
            });
        }
        let slot = tenant.0 / shards;
        queue
            .items
            .extend(batch.iter().map(|&request| Item { slot, request }));
        shard.depth.store(queue.items.len(), Ordering::Relaxed);
        shard
            .submitted
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        drop(queue);
        shard.available.notify_one();
        Ok(())
    }

    /// Releases workers parked by [`ServiceBuilder::start_paused`].
    /// Idempotent; a no-op on a never-paused service.
    ///
    /// # Examples
    ///
    /// ```
    /// use deuce_serve::{Request, ServiceBuilder};
    /// use deuce_sim::{SchemeKind, SimConfig};
    /// use deuce_trace::LineAddr;
    ///
    /// let handle = ServiceBuilder::new()
    ///     .start_paused()
    ///     .tenant("a", SimConfig::new(SchemeKind::Deuce))
    ///     .start()
    ///     .unwrap();
    /// let a = handle.tenant("a").unwrap();
    /// handle.submit(a, &[Request::read(LineAddr::new(0))]).unwrap();
    /// handle.resume();
    /// assert_eq!(handle.shutdown().applied, 1);
    /// ```
    pub fn resume(&self) {
        let mut paused = self
            .state
            .paused
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *paused = false;
        drop(paused);
        self.state.unpaused.notify_all();
    }

    /// A point-in-time progress snapshot (lock-free; safe to poll from
    /// a monitoring loop while submitters run). The totals are sums of
    /// per-shard counters.
    ///
    /// # Examples
    ///
    /// ```
    /// use deuce_serve::ServiceBuilder;
    /// use deuce_sim::{SchemeKind, SimConfig};
    ///
    /// let handle = ServiceBuilder::new()
    ///     .tenant("a", SimConfig::new(SchemeKind::Deuce))
    ///     .start()
    ///     .unwrap();
    /// let stats = handle.stats();
    /// assert_eq!(stats.submitted, 0);
    /// assert_eq!(stats.shard_depths, vec![0]);
    /// handle.shutdown();
    /// ```
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        let shards = &self.state.shards;
        let sum = |counter: fn(&Shard) -> &AtomicU64| -> u64 {
            shards
                .iter()
                .map(|s| counter(s).load(Ordering::Relaxed))
                .sum()
        };
        ServeStats {
            submitted: sum(|s| &s.submitted),
            rejected: sum(|s| &s.rejected),
            applied: sum(|s| &s.applied),
            elapsed: self.state.started.elapsed(),
            shard_depths: shards
                .iter()
                .map(|s| s.depth.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Stops admission, drains every queue, joins the workers, and
    /// finalises every tenant — returning the full [`ServeReport`].
    ///
    /// All requests accepted before the call are applied before their
    /// tenant is finalised; submissions racing with shutdown fail with
    /// [`SubmitError::ShuttingDown`]. A panicked shard is recorded in
    /// [`ServeReport::panicked_shards`] rather than propagated; its
    /// tenants are still listed, with an `Err` result, and every other
    /// tenant's results are collected as usual.
    ///
    /// # Examples
    ///
    /// ```
    /// use deuce_serve::{Request, ServiceBuilder};
    /// use deuce_sim::{SchemeKind, SimConfig};
    /// use deuce_trace::LineAddr;
    ///
    /// let handle = ServiceBuilder::new()
    ///     .shards(2)
    ///     .tenant("a", SimConfig::new(SchemeKind::Deuce))
    ///     .start()
    ///     .unwrap();
    /// let a = handle.tenant("a").unwrap();
    /// for i in 0..10 {
    ///     handle
    ///         .submit(a, &[Request::write(LineAddr::new(i % 4), [i as u8; 64])])
    ///         .unwrap();
    /// }
    /// let report = handle.shutdown();
    /// assert_eq!(report.tenants[0].requests_applied, 10);
    /// let result = report.tenants[0].result.as_ref().unwrap();
    /// assert_eq!(result.writes + result.reads + 4, 10); // 4 first touches
    /// ```
    #[must_use = "the report carries every tenant's results"]
    pub fn shutdown(self) -> ServeReport {
        for shard in &self.state.shards {
            shard.lock_queue().closed = true;
            shard.available.notify_one();
        }
        self.resume();
        let mut panicked_shards = Vec::new();
        for (idx, worker) in self.workers.into_iter().enumerate() {
            if worker.join().is_err() {
                panicked_shards.push(idx);
            }
        }
        let state = match Arc::try_unwrap(self.state) {
            Ok(state) => state,
            Err(_) => unreachable!("all workers joined; the handle holds the last Arc"),
        };
        let elapsed = state.started.elapsed();

        let (mut submitted, mut rejected) = (0, 0);
        let mut shards = Vec::with_capacity(state.shards.len());
        let mut batch_sizes = Histogram::new();
        let mut owned = Vec::with_capacity(state.shards.len());
        for shard in state.shards {
            submitted += shard.submitted.into_inner();
            rejected += shard.rejected.into_inner();
            let core = shard.core.into_inner().unwrap_or_else(PoisonError::into_inner);
            shards.push(ShardReport {
                // Summed from the tenants' own counts, so shard, service
                // and tenant totals agree even when a panic cut the last
                // batch short.
                drained: core.tenants.iter().map(|t| t.applied).sum(),
                batches: shard.batches.into_inner(),
                max_depth: shard.max_depth.into_inner(),
                drain_wall_ns: shard.drain_wall_ns.into_inner(),
                apply_wall_ns: shard.apply_wall_ns.into_inner(),
            });
            batch_sizes.merge(&core.batch_sizes);
            owned.push(core.tenants.into_iter());
        }

        // Tenant `i` is the next unclaimed tenant of shard `i % shards`.
        let mut tenants = Vec::with_capacity(state.names.len());
        for (index, name) in state.names.into_iter().enumerate() {
            let shard = index % owned.len();
            let core = owned[shard].next().expect("every tenant is owned by its shard");
            let requests_applied = core.applied;
            let fingerprint = core.session.content_fingerprint();
            let degraded = core.session.uncorrectable();
            // A panic may have left the session mid-step: report it, do
            // not finish it.
            let result = if panicked_shards.contains(&shard) {
                Err(format!("shard {shard} panicked"))
            } else {
                core.session.finish().map_err(|e| e.to_string())
            };
            tenants.push(TenantReport {
                name,
                requests_applied,
                fingerprint,
                degraded,
                result,
                flight: core.ue_snapshot.or(core.flight.map(|ring| ring.0)),
            });
        }

        let applied = shards.iter().map(|s| s.drained).sum();
        let recorder = build_recorder(&tenants, &shards);
        ServeReport {
            tenants,
            shards,
            submitted,
            rejected,
            applied,
            elapsed,
            batch_sizes,
            panicked_shards,
            recorder,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deuce_sim::SchemeKind;
    use deuce_trace::LineAddr;

    fn config() -> SimConfig {
        SimConfig::new(SchemeKind::Deuce)
    }

    #[test]
    fn start_rejects_empty_and_duplicate_tenants() {
        assert_eq!(
            ServiceBuilder::new().start().err(),
            Some(ServeError::NoTenants)
        );
        let err = ServiceBuilder::new()
            .tenant("a", config())
            .tenant("a", config())
            .start()
            .err();
        assert_eq!(err, Some(ServeError::DuplicateTenant("a".into())));
    }

    #[test]
    fn start_names_the_tenant_whose_config_is_rejected() {
        use deuce_sim::{CounterCacheConfig, FaultConfig};

        let bad_configs = [
            config().with_faults(FaultConfig::accelerated(1e-6)),
            config().with_counter_cache(CounterCacheConfig { entries: 0, counters_per_line: 16 }),
            config().with_counter_cache(CounterCacheConfig { entries: 4, counters_per_line: 0 }),
        ];
        for bad in bad_configs {
            let err = ServiceBuilder::new()
                .tenant("good", config())
                .tenant("bad", bad)
                .start()
                .err();
            match err {
                Some(ServeError::Session { tenant, error }) => {
                    assert_eq!(tenant, "bad");
                    assert!(error.starts_with("invalid simulator configuration: "), "{error}");
                }
                other => panic!("expected a session error for tenant \"bad\", got {other:?}"),
            }
        }
    }

    #[test]
    fn tenants_route_by_registration_index() {
        let handle = ServiceBuilder::new()
            .start_paused()
            .shards(3)
            .tenant("t0", config())
            .tenant("t1", config())
            .tenant("t2", config())
            .tenant("t3", config())
            .start()
            .unwrap();
        for name in ["t0", "t1", "t2", "t3"] {
            let id = handle.tenant(name).unwrap();
            handle.submit(id, &[Request::read(LineAddr::new(0))]).unwrap();
        }
        assert_eq!(handle.stats().shard_depths, vec![2, 1, 1]);
        handle.resume();
        let report = handle.shutdown();
        let drained: Vec<u64> = report.shards.iter().map(|s| s.drained).collect();
        assert_eq!(drained, vec![2, 1, 1]);
        assert!(report.tenants.iter().all(|t| t.requests_applied == 1));
    }

    #[test]
    fn paused_service_reports_depth_then_drains_on_resume() {
        let handle = ServiceBuilder::new()
            .start_paused()
            .queue_depth(8)
            .tenant("a", config())
            .start()
            .unwrap();
        let a = handle.tenant("a").unwrap();
        let reqs: Vec<Request> = (0..6)
            .map(|i| Request::write(LineAddr::new(i), [i as u8; 64]))
            .collect();
        handle.submit(a, &reqs).unwrap();
        let stats = handle.stats();
        assert_eq!(stats.submitted, 6);
        assert_eq!(stats.applied, 0);
        assert_eq!(stats.shard_depths.iter().sum::<usize>(), 6);
        handle.resume();
        let report = handle.shutdown();
        assert_eq!(report.applied, 6);
        assert_eq!(report.tenants[0].requests_applied, 6);
        assert!(report.panicked_shards.is_empty());
    }

    #[test]
    fn queue_full_rejects_whole_batch() {
        let handle = ServiceBuilder::new()
            .start_paused()
            .queue_depth(4)
            .tenant("a", config())
            .start()
            .unwrap();
        let a = handle.tenant("a").unwrap();
        let make = |lo: u64, n: u64| -> Vec<Request> {
            (lo..lo + n)
                .map(|i| Request::write(LineAddr::new(i), [1; 64]))
                .collect()
        };
        handle.submit(a, &make(0, 3)).unwrap();
        let err = handle.submit(a, &make(3, 3)).unwrap_err();
        assert!(matches!(
            err,
            SubmitError::QueueFull { shard: 0, queued: 3, capacity: 4, .. }
        ));
        // The rejected batch took no slots: one more still fits.
        handle.submit(a, &make(100, 1)).unwrap();
        handle.resume();
        let report = handle.shutdown();
        assert_eq!(report.applied, 4, "only accepted requests applied");
        assert_eq!(report.rejected, 3);
    }

    #[test]
    fn submit_after_shutdown_begins_is_rejected() {
        let handle = ServiceBuilder::new().tenant("a", config()).start().unwrap();
        let a = handle.tenant("a").unwrap();
        handle.state.shards[0].lock_queue().closed = true;
        assert_eq!(
            handle.submit(a, &[Request::read(LineAddr::new(0))]),
            Err(SubmitError::ShuttingDown)
        );
        let report = handle.shutdown();
        assert_eq!(report.applied, 0);
    }
}
