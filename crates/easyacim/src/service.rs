//! The multi-tenant exploration front-end.
//!
//! [`ExplorationService`] is the long-lived front door of the flow: it
//! accepts many concurrent [`ExplorationRequest`]s (full macro flows or
//! chip-composition runs) through a **bounded, deadline-aware admission
//! scheduler** — a fixed worker set, one per core by default, drains a
//! priority-ordered queue, so a burst of requests queues instead of
//! spawning a thread herd, and a full queue rejects new
//! work with backpressure ([`SubmitError::QueueFull`]) instead of
//! accepting unbounded load.  The service owns one shared, concurrent
//! evaluation cache **per design space** — so the second request over a
//! space starts where the first left off instead of re-paying every
//! objective evaluation.  Each finished request returns a
//! [`SessionArchive`] of its Pareto frontier, which can warm-start the
//! next request over the same space (seeding the initial NSGA-II
//! population *and* the archive, so a warm run is provably no worse than
//! the session it started from).
//!
//! Requests are built with the [`ExplorationRequest::macro_space`] /
//! [`ExplorationRequest::chip_space`] builders, which attach scheduling
//! class ([`Priority`]), an optional completion [`Deadline`], a
//! warm-start session and a diagnostic label.  An admitted job is
//! observed and controlled through its [`JobHandle`]: cooperative
//! [`JobHandle::cancel`] (and deadline expiry) stops the job at its next
//! generation / design boundary with a typed
//! [`FlowError::Cancelled`] / [`FlowError::DeadlineExceeded`] carrying
//! its partial progress.
//!
//! Sharing is safe because the caches are semantically lossless: entries
//! are keyed by decode buckets, so a hit returns exactly the evaluation a
//! cold run would recompute.  Concurrent requests therefore produce
//! bit-identical frontiers to the same requests run serially — only the
//! wall-clock and the hit/miss attribution change.  Cancellation keeps
//! that guarantee: an interrupted run's cache writes are a clean prefix
//! of the uninterrupted run's, so surviving jobs still see exactly the
//! entries a cold run would compute.
//!
//! # Example
//!
//! ```
//! use easyacim::service::{ExplorationRequest, ExplorationService, Priority};
//! use easyacim::ChipFlowConfig;
//! use acim_chip::Network;
//!
//! # fn main() -> Result<(), easyacim::ServiceError> {
//! let mut config = ChipFlowConfig::for_mix(Network::edge_cnn(1));
//! config.dse.population_size = 16;
//! config.dse.generations = 4;
//! config.validate_best = false;
//!
//! let service = ExplorationService::new();
//! let first = service
//!     .run(ExplorationRequest::chip_space(config.clone()).label("cold"))?
//!     .into_chip()
//!     .expect("chip request yields a chip response");
//!
//! // Second request over the same space: answered from the shared cache,
//! // warm-started from the first session's frontier, and admitted ahead
//! // of any queued backlog.
//! let request = ExplorationRequest::chip_space(config)
//!     .warm_start(first.session.clone())
//!     .priority(Priority::High);
//! let second = service.run(request)?.into_chip().unwrap();
//! assert!(second.result.engine.cache.hits > 0);
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use acim_chip::{MacroMetricsCache, WorkloadMix};
use acim_dse::{
    CacheStore, ChipDseConfig, ChipExplorer, DesignSpaceExplorer, DseConfig, ExploreOptions,
};
use acim_model::ModelParams;
use acim_moga::{CancelToken, EvalStats};
use acim_persist::{PersistError, Snapshot};
use acim_telemetry::{
    Counter, Gauge, Histogram, Registry, SpanId, SpanText, Telemetry, TelemetrySnapshot,
};

use crate::chip::{ChipFlowConfig, ChipFlowResult};
use crate::config::FlowConfig;
use crate::error::FlowError;
use crate::flow::{FlowOptions, FlowResult, TopFlowController};
use crate::persistence::{self, RestoreReport, SnapshotReport};
use crate::sched::{AdmitError, JobSlot, Scheduler, Ticket};
use crate::stage::{
    cancel_error, traced, ChipStage, ProgressObserver, Stage, StageProgress, TraceContext,
    TracedStage,
};

pub use crate::sched::{Deadline, Priority};

/// A finished session's Pareto archive, re-encoded as genomes over its
/// design space.  Feed it back into the next request over the **same**
/// space via [`ExplorationRequest::warm_start`] to seed the initial
/// population.
#[derive(Debug, Clone)]
pub struct SessionArchive {
    space: String,
    genomes: Vec<Vec<f64>>,
}

impl SessionArchive {
    pub(crate) fn new(space: String, genomes: Vec<Vec<f64>>) -> Self {
        Self { space, genomes }
    }

    /// Signature of the design space the archive was recorded over.
    pub fn space(&self) -> &str {
        &self.space
    }

    /// The archived frontier genomes.
    pub fn genomes(&self) -> &[Vec<f64>] {
        &self.genomes
    }

    /// Number of archived genomes.
    pub fn len(&self) -> usize {
        self.genomes.len()
    }

    /// Returns `true` when the archive holds no genomes.
    pub fn is_empty(&self) -> bool {
        self.genomes.is_empty()
    }
}

/// The scheduling attributes of one request: priority class, optional
/// completion deadline, diagnostic label.  Attached through the
/// [`ExplorationRequest`] builder methods.
#[derive(Debug, Clone, Default)]
struct Admission {
    priority: Priority,
    deadline: Option<Deadline>,
    label: Option<String>,
}

/// The configuration of the one design space a request explores.
#[derive(Debug, Clone)]
enum SpaceConfig {
    /// A full macro flow: exploration → distillation → netlist → layout.
    Macro(FlowConfig),
    /// A chip-composition run: multi-macro co-exploration (and optional
    /// behavioural validation) without the macro netlist/layout stages.
    Chip(ChipFlowConfig),
}

/// One unit of work submitted to the service: the configuration of the
/// design space it explores, an optional warm-start session over that
/// space and its scheduling attributes.  Built with
/// [`ExplorationRequest::macro_space`] or
/// [`ExplorationRequest::chip_space`] and refined with the chainable
/// builder methods:
///
/// ```
/// use easyacim::service::{Deadline, ExplorationRequest, Priority};
/// use easyacim::FlowConfig;
/// use std::time::Duration;
///
/// let request = ExplorationRequest::macro_space(FlowConfig::new(4 * 1024))
///     .priority(Priority::High)
///     .deadline(Deadline::within(Duration::from_secs(60)))
///     .label("macro-4k-interactive");
/// ```
#[derive(Debug, Clone)]
pub struct ExplorationRequest {
    config: SpaceConfig,
    warm_start: Option<SessionArchive>,
    admission: Admission,
}

impl ExplorationRequest {
    fn new(config: SpaceConfig) -> Self {
        Self {
            config,
            warm_start: None,
            admission: Admission::default(),
        }
    }

    /// A cold request over a macro design space: the full flow of
    /// `config` (exploration → distillation → netlist → layout).  Every
    /// request explores one design space, so a macro plus a chip
    /// exploration is two requests; run side by side, they share one
    /// macro-metric cache.
    pub fn macro_space(config: FlowConfig) -> Self {
        Self::new(SpaceConfig::Macro(config))
    }

    /// A cold request over a chip design space: multi-macro
    /// co-exploration of the config's workload mix (see
    /// [`ChipFlowConfig::for_mix`]) without the macro netlist/layout
    /// stages.
    pub fn chip_space(config: ChipFlowConfig) -> Self {
        Self::new(SpaceConfig::Chip(config))
    }

    /// Sets the scheduling class (default [`Priority::Normal`]): the
    /// admission queue always dequeues higher priorities first.
    #[must_use]
    pub fn priority(mut self, priority: Priority) -> Self {
        self.admission.priority = priority;
        self
    }

    /// Sets a completion deadline.  A job whose deadline passes stops
    /// cooperatively at its next generation / design boundary and fails
    /// with [`FlowError::DeadlineExceeded`]; queue wait counts against
    /// the deadline.
    #[must_use]
    pub fn deadline(mut self, deadline: Deadline) -> Self {
        self.admission.deadline = Some(deadline);
        self
    }

    /// Warm-starts the request from a previous session's archive over the
    /// **same** design space.
    #[must_use]
    pub fn warm_start(mut self, session: SessionArchive) -> Self {
        self.warm_start = Some(session);
        self
    }

    /// Attaches a diagnostic label, carried on the [`JobHandle`] and the
    /// request's root telemetry span.
    #[must_use]
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.admission.label = Some(label.into());
        self
    }
}

/// Response to a macro-space request.
#[derive(Debug, Clone)]
pub struct MacroResponse {
    /// The full flow result.
    pub result: FlowResult,
    /// The macro frontier, re-encoded for warm-starting a follow-up
    /// request over the same macro space.
    pub session: SessionArchive,
}

/// Response to a chip-space request.
#[derive(Debug, Clone)]
pub struct ChipResponse {
    /// The chip-stage result.
    pub result: ChipFlowResult,
    /// The chip frontier, re-encoded for warm-starting a follow-up
    /// request over the same chip space.
    pub session: SessionArchive,
}

/// The result of one finished request.
// See `ExplorationRequest`: one value per finished job, moved not stored.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum ExplorationResponse {
    /// Response to a macro-flow request.
    Macro(MacroResponse),
    /// Response to a chip-composition request.
    Chip(ChipResponse),
}

impl ExplorationResponse {
    /// Evaluation-engine statistics of the request's exploration,
    /// including per-request cache hit/miss attribution.
    pub fn engine(&self) -> &EvalStats {
        match self {
            ExplorationResponse::Macro(response) => &response.result.engine,
            ExplorationResponse::Chip(response) => &response.result.engine,
        }
    }

    /// The session archive warm-starting a follow-up request.
    pub fn session(&self) -> &SessionArchive {
        match self {
            ExplorationResponse::Macro(response) => &response.session,
            ExplorationResponse::Chip(response) => &response.session,
        }
    }

    /// The macro response, if this was a macro request.
    pub fn into_macro(self) -> Option<MacroResponse> {
        match self {
            ExplorationResponse::Macro(response) => Some(response),
            ExplorationResponse::Chip(_) => None,
        }
    }

    /// The chip response, if this was a chip request.
    pub fn into_chip(self) -> Option<ChipResponse> {
        match self {
            ExplorationResponse::Chip(response) => Some(response),
            ExplorationResponse::Macro(_) => None,
        }
    }
}

/// Progress snapshot of a running job, counted in **exploration
/// generations** — the dominant cost of a request.  `completed == total`
/// means the exploration finished; the short netlist/layout tail of a
/// macro flow may still be running, so use [`JobHandle::is_finished`] to
/// detect actual completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobProgress {
    /// Exploration generations finished.
    pub completed: usize,
    /// Total exploration generations the job will run.
    pub total: usize,
}

impl JobProgress {
    /// Completed fraction in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            (self.completed as f64 / self.total as f64).min(1.0)
        }
    }
}

impl std::fmt::Display for JobProgress {
    /// Renders `completed/total generations (NN%)` — e.g.
    /// `12/40 generations (30%)`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} generations ({:.0}%)",
            self.completed,
            self.total,
            self.fraction() * 100.0
        )
    }
}

/// A job's progress counters, plus the clock its `generation` spans are
/// timed on.
struct ProgressState {
    completed: AtomicUsize,
    total: usize,
    admitted: Instant,
    /// The previous generation tick, or the job's start, in nanoseconds
    /// since admission.  A plain atomic — a mutexed instant here would be
    /// measurable against a warm-cache generation's microsecond-scale
    /// wall clock.
    last_tick_ns: AtomicU64,
}

impl ProgressState {
    /// Moves the generation clock to `now` and returns its previous
    /// reading: when the generation ending at `now` began.
    fn stamp(&self, now: Instant) -> Instant {
        let now_ns = now.saturating_duration_since(self.admitted).as_nanos() as u64;
        let previous = self.last_tick_ns.swap(now_ns, Ordering::Relaxed);
        self.admitted + Duration::from_nanos(previous)
    }
}

/// Per-request instrumentation, registered at submission and moved into
/// the worker thread: the root `request` span, the per-kind latency
/// histogram and the service-wide queue/active gauges.
struct RequestInstruments {
    root: acim_telemetry::Span,
    latency: Histogram,
    queue: Gauge,
    active: Gauge,
}

impl RequestInstruments {
    /// Runs `work` bracketed by the queue → active gauge hand-off, then
    /// records latency and outcome on the way out.  Consumes the
    /// instruments so the root span drops (and records) exactly here.
    fn observe<T, E>(mut self, work: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
        self.queue.dec();
        self.active.inc();
        let started = Instant::now();
        let result = work();
        self.latency.observe_duration(started.elapsed());
        self.root
            .attr("ok", if result.is_ok() { "true" } else { "false" });
        self.active.dec();
        result
    }
}

/// What the service keeps per design space: the shared evaluation cache,
/// the latest session archive and the pre-resolved instruments.
struct Space {
    store: CacheStore,
    /// The most recent frontier a request over the space finished with,
    /// or the one a restore merged in.
    archive: Option<SessionArchive>,
    /// Resolved on the space's first request; `None` before it, and
    /// always when telemetry is disabled.
    instruments: Option<SpaceInstruments>,
}

/// The instruments of one design space, resolved on its first request so
/// that recording a finished request touches only pre-resolved atomic
/// handles: cache counters, plus a chip space's tenant series.
struct SpaceInstruments {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    hit_rate: Gauge,
    /// One latency histogram per tenant of a chip space's workload mix;
    /// empty for a macro space.
    tenant_latency: Vec<(String, Histogram)>,
}

impl SpaceInstruments {
    fn new(registry: &Registry, space: &str, mix: Option<&WorkloadMix>) -> Self {
        let labels = [("space", space)];
        let mut tenant_latency = Vec::new();
        if let Some(mix) = mix {
            // The tenant count is a static property of the space.  The
            // registry keeps the series alive; no handle is retained.
            registry
                .gauge(
                    "chip_tenants",
                    "Tenant count of the workload mix a chip space co-schedules.",
                    &labels,
                )
                .set(mix.len() as f64);
            tenant_latency = mix
                .tenants()
                .iter()
                .map(|tenant| {
                    (
                        tenant.name().to_string(),
                        registry.histogram(
                            "chip_tenant_latency_seconds",
                            "Per-tenant inference latency of the best-throughput \
                             frontier chip, observed once per finished request.",
                            &[("space", space), ("tenant", tenant.name())],
                        ),
                    )
                })
                .collect();
        }
        Self {
            hits: registry.counter(
                "service_cache_hits_total",
                "Evaluations answered from a shared per-space cache.",
                &labels,
            ),
            misses: registry.counter(
                "service_cache_misses_total",
                "Evaluations computed because the shared per-space cache missed.",
                &labels,
            ),
            evictions: registry.counter(
                "service_cache_evictions_total",
                "Entries requests over this space evicted from bounded caches.",
                &labels,
            ),
            hit_rate: registry.gauge(
                "service_cache_hit_rate",
                "Lifetime hit rate of the shared per-space evaluation cache.",
                &labels,
            ),
            tenant_latency,
        }
    }

    /// Folds one finished request into the space's telemetry: cumulative
    /// hit/miss/eviction counters and the lifetime hit-rate gauge, plus,
    /// for a chip request, every tenant's latency on the best-throughput
    /// frontier point — the chip a deployment of this space would
    /// actually tape out.  An empty chip frontier records no latency.
    fn record(&self, response: &ExplorationResponse) {
        let stats = response.engine();
        self.hits.add(stats.cache.hits as u64);
        self.misses.add(stats.cache.misses as u64);
        self.evictions.add(stats.cache.evictions as u64);
        let total = self.hits.get() + self.misses.get();
        let rate = if total == 0 {
            0.0
        } else {
            self.hits.get() as f64 / total as f64
        };
        self.hit_rate.set(rate);
        let ExplorationResponse::Chip(chip) = response else {
            return;
        };
        let Some(best) = chip.result.best_throughput() else {
            return;
        };
        for (name, histogram) in &self.tenant_latency {
            if let Some(tenant) = best.tenants.iter().find(|t| &t.name == name) {
                histogram.observe(tenant.metrics.latency_ns * 1e-9);
            }
        }
    }
}

/// The per-kind request instruments, plus the kind's exploration stage:
/// every job explores one design space, so a job of this kind ticks only
/// `stage`'s generations into `generation_seconds{stage}`.
struct KindInstruments {
    kind: &'static str,
    stage: &'static str,
    requests: Counter,
    latency: Histogram,
    generation_seconds: Histogram,
}

impl KindInstruments {
    fn new(registry: &Registry, kind: &'static str, stage: &'static str) -> Self {
        Self {
            kind,
            stage,
            requests: registry.counter(
                "service_requests_total",
                "Requests accepted, per request kind.",
                &[("kind", kind)],
            ),
            latency: registry.histogram(
                "service_request_seconds",
                "End-to-end request latency, per request kind.",
                &[("kind", kind)],
            ),
            generation_seconds: registry.histogram(
                "generation_seconds",
                "Wall-clock seconds per exploration generation, per stage.",
                &[("stage", stage)],
            ),
        }
    }
}

/// Every instrument handle the service registers eagerly at
/// construction.  Per-request `find_or_insert` registry walks (label
/// formatting and name matching under the registry lock) would otherwise
/// be telemetry's dominant cost on warm-cache requests; resolving the
/// handles once keeps the hot path down to atomic loads and stores.
struct ServiceInstruments {
    macro_requests: KindInstruments,
    chip_requests: KindInstruments,
    queue: Gauge,
    active: Gauge,
    workers: Gauge,
    rejected_full: Counter,
    rejected_shutdown: Counter,
    deadline_misses: Counter,
    cached_evaluations: Gauge,
    cached_macro_metrics: Gauge,
    cache_evictions: Gauge,
    snapshot_seconds: Histogram,
    restore_seconds: Histogram,
    restored_archives: Counter,
    restored_evaluations: Counter,
    restored_macro_metrics: Counter,
    trace: TraceContext,
}

impl ServiceInstruments {
    fn new(telemetry: &Telemetry) -> Self {
        let registry = telemetry.registry();
        Self {
            macro_requests: KindInstruments::new(registry, "macro", "explore"),
            chip_requests: KindInstruments::new(registry, "chip", "chip"),
            queue: registry.gauge(
                "service_queue_jobs",
                "Jobs accepted whose worker thread has not started yet.",
                &[],
            ),
            active: registry.gauge(
                "service_active_jobs",
                "Jobs currently executing on a worker thread.",
                &[],
            ),
            workers: registry.gauge(
                "service_worker_threads",
                "Fixed worker-thread count of the admission scheduler \
                 (the hard bound on service_active_jobs).",
                &[],
            ),
            rejected_full: registry.counter(
                "service_rejected_total",
                "Submissions the admission scheduler rejected, per reason.",
                &[("reason", "queue_full")],
            ),
            rejected_shutdown: registry.counter(
                "service_rejected_total",
                "Submissions the admission scheduler rejected, per reason.",
                &[("reason", "shutting_down")],
            ),
            deadline_misses: registry.counter(
                "service_deadline_misses_total",
                "Jobs that failed with DeadlineExceeded (before or during \
                 execution).",
                &[],
            ),
            cached_evaluations: registry.gauge(
                "service_cached_evaluations",
                "Distinct designs cached across every design space.",
                &[],
            ),
            cached_macro_metrics: registry.gauge(
                "service_cached_macro_metrics",
                "Distinct macro shapes cached across every parameter set.",
                &[],
            ),
            cache_evictions: registry.gauge(
                "service_cache_evictions",
                "Entries evicted across every cache the service owns \
                 (equals ExplorationService::total_evictions).",
                &[],
            ),
            snapshot_seconds: registry.histogram(
                "service_snapshot_seconds",
                "Wall-clock seconds per snapshot export + atomic write.",
                &[],
            ),
            restore_seconds: registry.histogram(
                "service_restore_seconds",
                "Wall-clock seconds per successful snapshot restore \
                 (read + verify + merge).",
                &[],
            ),
            restored_archives: registry.counter(
                "service_restored_archives",
                "Session archives merged into the registry by snapshot \
                 restores.",
                &[],
            ),
            restored_evaluations: registry.counter(
                "service_restored_evaluations",
                "Evaluation-cache entries merged by snapshot restores.",
                &[],
            ),
            restored_macro_metrics: registry.counter(
                "service_restored_macro_metrics",
                "Macro-metric entries merged by snapshot restores.",
                &[],
            ),
            trace: TraceContext::under(telemetry.clone(), None),
        }
    }
}

/// A handle to one admitted request: observe its progress, cancel it
/// cooperatively, then [`JobHandle::join`] it for the response.
pub struct JobHandle {
    id: u64,
    space: String,
    label: Option<String>,
    priority: Priority,
    cancel: CancelToken,
    progress: Arc<ProgressState>,
    slot: Arc<JobSlot<Result<ExplorationResponse, FlowError>>>,
}

impl JobHandle {
    /// Service-unique id of the job.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Signature of the design space the job explores — the key of the
    /// shared cache it reads and writes.
    pub fn space(&self) -> &str {
        &self.space
    }

    /// The diagnostic label attached at submission, if any.
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    /// The scheduling class the job was admitted with.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// Requests cooperative cancellation: the job stops at its next
    /// generation / design boundary (within one generation of the
    /// underlying explorations) and fails with [`FlowError::Cancelled`]
    /// carrying its partial progress.  A job still queued fails the same
    /// way without running; a job that already finished is unaffected.
    /// Idempotent.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Snapshot of the job's progress (built on the per-generation
    /// observer of the underlying `run_with_observer` loop).
    ///
    /// Consistency guarantee: `total` is fixed at admission, and
    /// `completed` is read with an `Acquire` load (the observer publishes
    /// it with `Release`) and clamped to `total`, so a snapshot never
    /// reports more work done than the job has (even mid-tick).  Progress
    /// is monotone across snapshots, and a snapshot taken after
    /// [`JobHandle::is_finished`] returns `true` (or after
    /// [`JobHandle::join`]) reflects every generation the job ran.
    pub fn progress(&self) -> JobProgress {
        let total = self.progress.total;
        let completed = self.progress.completed.load(Ordering::Acquire).min(total);
        JobProgress { completed, total }
    }

    /// Returns `true` once the job has finished (successfully, with an
    /// error, or by panicking); [`JobHandle::join`] will not block after
    /// this.
    pub fn is_finished(&self) -> bool {
        self.slot.is_finished()
    }

    /// Waits for the job and returns its response.
    ///
    /// # Errors
    ///
    /// Returns the [`FlowError`] the job failed with —
    /// [`FlowError::Cancelled`] / [`FlowError::DeadlineExceeded`] when it
    /// was stopped cooperatively.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from the job.
    pub fn join(self) -> Result<ExplorationResponse, FlowError> {
        self.slot.take_blocking()
    }
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id)
            .field("space", &self.space)
            .field("label", &self.label)
            .field("priority", &self.priority)
            .field("cancelled", &self.cancel.is_triggered())
            .field("progress", &self.progress())
            .field("finished", &self.is_finished())
            .finish()
    }
}

/// Why [`ExplorationService::submit`] refused a request.  Admission
/// failures are deliberately **not** [`FlowError`]s: a rejected request
/// never entered the system, so callers can retry/back off on
/// [`SubmitError::QueueFull`] without conflating it with a job that ran
/// and failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// The bounded admission queue is at capacity; retry after backing
    /// off (or raise [`ServiceConfig::queue_capacity`]).
    QueueFull {
        /// Queue depth at rejection time (== the configured capacity).
        depth: usize,
    },
    /// [`ExplorationService::shutdown`] has started; the service accepts
    /// no new work.
    ShuttingDown,
    /// The request itself is unrunnable (inconsistent configuration,
    /// warm-start session from a different space) — rejected eagerly,
    /// before touching the queue.
    Invalid(FlowError),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { depth } => {
                write!(f, "admission queue full ({depth} jobs queued)")
            }
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
            SubmitError::Invalid(err) => write!(f, "invalid request: {err}"),
        }
    }
}

impl std::error::Error for SubmitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SubmitError::Invalid(err) => Some(err),
            _ => None,
        }
    }
}

impl From<FlowError> for SubmitError {
    fn from(err: FlowError) -> Self {
        SubmitError::Invalid(err)
    }
}

/// Error of the blocking [`ExplorationService::run`] path, which spans
/// both phases of a request: admission ([`SubmitError`]) and execution
/// ([`FlowError`]).  An eagerly-rejected invalid request surfaces as
/// [`ServiceError::Flow`] (the underlying [`FlowError`]), so matching on
/// configuration errors works the same whether they were caught before
/// or during the run.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The request was refused at admission (queue full / shutting down).
    Submit(SubmitError),
    /// The job ran (or was validated) and failed.
    Flow(FlowError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Submit(err) => write!(f, "submission rejected: {err}"),
            ServiceError::Flow(err) => err.fmt(f),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Submit(err) => Some(err),
            ServiceError::Flow(err) => Some(err),
        }
    }
}

impl From<SubmitError> for ServiceError {
    fn from(err: SubmitError) -> Self {
        match err {
            SubmitError::Invalid(flow) => ServiceError::Flow(flow),
            other => ServiceError::Submit(other),
        }
    }
}

impl From<FlowError> for ServiceError {
    fn from(err: FlowError) -> Self {
        ServiceError::Flow(err)
    }
}

/// FNV-1a over a string: folds the verbose `Debug` dump of the
/// space-defining parameters into a compact, deterministic digest so the
/// signature stays a short map key / log line instead of a multi-kilobyte
/// parameter dump.
fn fnv1a(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Signature of a macro design space: a human-readable prefix plus a
/// digest of every field that changes what an evaluation means, the
/// model parameters entering as their `Debug` text `params`.  Budget
/// fields (population, generations, seed) are deliberately excluded —
/// runs with different budgets over one space share one cache.
fn macro_space_signature(config: &DseConfig, params: &str) -> String {
    format!(
        "macro/{}x[{}..{}]/#{:016x}",
        config.array_size,
        config.min_height,
        config.max_height,
        fnv1a(params)
    )
}

/// Signature of one model-parameter set, from its `Debug` text — the key
/// of the **macro-metric** cache registry.  Macro metrics are pure
/// functions of `(spec, params)`, so every design space sharing one
/// `ModelParams` (macro spaces of any height range, chip spaces of any
/// grid catalogue) shares one macro-metric cache under this signature.
fn params_signature(params: &str) -> String {
    format!("params/#{:016x}", fnv1a(params))
}

/// Signature of a chip design space (see [`macro_space_signature`]).
/// The workload mix (tenant networks, weights, quantisation), the
/// objective aggregation mode and the robustness sweep all define the
/// space: two requests differing in any of them must not share genome
/// caches or warm starts.
fn chip_space_signature(config: &ChipDseConfig, params: &str) -> String {
    let defining = format!(
        "{:?}/{:?}/{:?}/{params}/{:?}/{:?}/{:?}",
        config.grid_rows,
        config.grid_cols,
        config.buffer_kib,
        config.cost,
        config.objective,
        config.robustness,
    );
    format!(
        "chip/{}/{}x[{}..{}]/het={}/#{:016x}",
        config.mix.name,
        config.array_size,
        config.min_height,
        config.max_height,
        config.heterogeneous,
        fnv1a(&format!("{:?}/{defining}", config.mix))
    )
}

/// Checks a warm-start session against the space a request explores and
/// hands over its genomes.
fn check_session(
    session: Option<SessionArchive>,
    requested: &str,
) -> Result<Vec<Vec<f64>>, FlowError> {
    match session {
        None => Ok(Vec::new()),
        Some(session) if session.space == requested => Ok(session.genomes),
        Some(session) => Err(FlowError::WarmStartMismatch {
            requested: requested.to_string(),
            session: session.space,
        }),
    }
}

/// Capacity policy of an [`ExplorationService`]'s shared caches.
///
/// The default is unbounded — the right call for short-lived processes
/// and benchmarks.  Long-lived services should bound both registries:
/// the bounds cap **memory, not correctness** (evicted entries are
/// recomputed on demand; results stay bit-identical), and eviction
/// activity is visible per request via the `evictions` counters in
/// [`EvalStats`] and per store via [`CacheStore::evictions`] /
/// [`MacroMetricsCache::evictions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Capacity bound of each per-design-space evaluation cache
    /// (genome-level entries, clamped to at least 1).  `None` = unbounded.
    pub cache_capacity: Option<usize>,
    /// Capacity bound of each per-parameter-set macro-metric cache
    /// (distinct macro shapes, clamped to at least 1).  `None` =
    /// unbounded.
    pub macro_metric_capacity: Option<usize>,
    /// Worker threads of the admission scheduler (the hard bound on
    /// concurrently executing jobs).  `None` = the machine's available
    /// parallelism (`std::thread::available_parallelism()`, 1 when it
    /// cannot be read): each request runs on its worker thread alone, so
    /// one request per core keeps every core busy without
    /// oversubscribing them.
    pub workers: Option<usize>,
    /// Capacity of the bounded admission queue; submissions beyond it are
    /// rejected with [`SubmitError::QueueFull`].  `None` =
    /// `max(16, 4 × workers)`.
    pub queue_capacity: Option<usize>,
    /// Record telemetry (request spans, latency histograms, queue/cache
    /// gauges — see [`ExplorationService::telemetry`]).  On by default;
    /// when off the service carries a disabled [`Telemetry`] handle,
    /// stages run uninstrumented, and the snapshot is empty.  Telemetry
    /// is observably passive either way: frontiers are bit-identical
    /// with it on or off.
    pub telemetry: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            cache_capacity: None,
            macro_metric_capacity: None,
            workers: None,
            queue_capacity: None,
            telemetry: true,
        }
    }
}

impl ServiceConfig {
    /// A configuration bounding every evaluation cache at
    /// `cache_capacity` entries and every macro-metric cache at
    /// `macro_metric_capacity` distinct macros.
    pub fn bounded(cache_capacity: usize, macro_metric_capacity: usize) -> Self {
        Self {
            cache_capacity: Some(cache_capacity),
            macro_metric_capacity: Some(macro_metric_capacity),
            ..Self::default()
        }
    }

    /// Disables telemetry recording.
    #[must_use]
    pub fn without_telemetry(mut self) -> Self {
        self.telemetry = false;
        self
    }

    /// Sets the scheduler's worker-thread count (clamped to at least 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Sets the admission-queue capacity (clamped to at least 1).
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = Some(capacity);
        self
    }
}

/// The multi-tenant exploration front-end: one registry entry per design
/// space (its shared evaluation cache, latest session archive and
/// telemetry), a shared per-parameter-set **macro-metric** cache
/// underneath them, a bounded deadline-aware admission scheduler with a
/// fixed worker set.
///
/// The service is cheap to construct; share one instance per process (or
/// per tenant class) to maximise cache reuse.  Both registries recover
/// poisoned locks (see [`CacheStore`]), and the scheduler's
/// workers latch job panics into the joining [`JobHandle`]: a panicking
/// request never takes the service — or any other tenant — down with it.
///
/// Dropping the service shuts it down (see
/// [`ExplorationService::shutdown`]): already-admitted jobs run to
/// completion, then the workers are joined.
pub struct ExplorationService {
    config: ServiceConfig,
    /// Every design space a request or a restore has touched, by
    /// signature.  Shared with the workers, which record each finished
    /// request into its space's entry.
    spaces: Arc<Mutex<HashMap<String, Space>>>,
    macro_caches: Mutex<HashMap<String, MacroMetricsCache>>,
    telemetry: Telemetry,
    instruments: ServiceInstruments,
    next_job: AtomicU64,
    scheduler: Scheduler<Result<ExplorationResponse, FlowError>>,
}

impl Default for ExplorationService {
    fn default() -> Self {
        Self::with_config(ServiceConfig::default())
    }
}

impl ExplorationService {
    /// Creates a service with empty, unbounded caches and default
    /// scheduler sizing (see [`ServiceConfig`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a service honouring the capacity bounds and scheduler
    /// sizing of `config`.
    pub fn with_config(config: ServiceConfig) -> Self {
        let telemetry = if config.telemetry {
            Telemetry::new()
        } else {
            Telemetry::disabled()
        };
        let instruments = ServiceInstruments::new(&telemetry);
        let workers = config
            .workers
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from))
            .max(1);
        let queue_capacity = config.queue_capacity.unwrap_or(16.max(4 * workers));
        let scheduler = Scheduler::new(workers, queue_capacity, "easyacim");
        instruments.workers.set(scheduler.worker_count() as f64);
        Self {
            config,
            spaces: Arc::default(),
            macro_caches: Mutex::default(),
            telemetry,
            instruments,
            next_job: AtomicU64::new(0),
            scheduler,
        }
    }

    /// The capacity policy in use.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The scheduler's fixed worker-thread count — the hard bound on
    /// concurrently executing jobs.
    pub fn worker_count(&self) -> usize {
        self.scheduler.worker_count()
    }

    /// The admission-queue capacity.
    pub fn queue_capacity(&self) -> usize {
        self.scheduler.capacity()
    }

    /// Jobs admitted but not yet claimed by a worker.
    pub fn queue_depth(&self) -> usize {
        self.scheduler.queue_depth()
    }

    /// Shuts the service down deterministically: stops admission
    /// (subsequent [`ExplorationService::submit`] calls return
    /// [`SubmitError::ShuttingDown`]), drains the queue — every
    /// already-admitted job runs to completion, in priority order — and
    /// joins the worker threads.  Idempotent; also invoked by `Drop`.
    /// Outstanding [`JobHandle`]s stay valid and joinable afterwards.
    pub fn shutdown(&self) {
        self.scheduler.shutdown();
    }

    fn lock_spaces(&self) -> MutexGuard<'_, HashMap<String, Space>> {
        // Poison-tolerant (like the stores themselves): the registry is a
        // map of handles, always consistent between operations.
        self.spaces.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_macro_caches(&self) -> MutexGuard<'_, HashMap<String, MacroMetricsCache>> {
        self.macro_caches
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The entry of `space` in the locked registry, creating it (its
    /// cache with the configured bound) when the space is new.
    fn space_entry<'a>(
        &self,
        spaces: &'a mut HashMap<String, Space>,
        space: &str,
    ) -> &'a mut Space {
        spaces.entry(space.to_string()).or_insert_with(|| Space {
            store: match self.config.cache_capacity {
                Some(capacity) => CacheStore::bounded(capacity),
                None => CacheStore::new(),
            },
            archive: None,
            instruments: None,
        })
    }

    /// The shared store of the space a request explores.  The space's
    /// first request also resolves its instruments, including a chip
    /// space's tenant series from its workload `mix`.
    fn request_store(&self, space: &str, mix: Option<&WorkloadMix>) -> CacheStore {
        let mut spaces = self.lock_spaces();
        let entry = self.space_entry(&mut spaces, space);
        if entry.instruments.is_none() && self.telemetry.is_enabled() {
            entry.instruments = Some(SpaceInstruments::new(self.telemetry.registry(), space, mix));
        }
        entry.store.clone()
    }

    /// The shared macro-metric cache of one parameter-set signature,
    /// creating it (with the configured bound) on first use.
    fn macro_store_for(&self, signature: &str) -> MacroMetricsCache {
        self.lock_macro_caches()
            .entry(signature.to_string())
            .or_insert_with(|| match self.config.macro_metric_capacity {
                Some(capacity) => MacroMetricsCache::bounded(capacity),
                None => MacroMetricsCache::new(),
            })
            .clone()
    }

    /// Signatures of every design space the service holds a cache for.
    pub fn spaces(&self) -> Vec<String> {
        let mut spaces: Vec<String> = self.lock_spaces().keys().cloned().collect();
        spaces.sort();
        spaces
    }

    /// The shared cache store of a design space, when one exists (use a
    /// [`JobHandle::space`] or a [`SessionArchive::space`] as the key).
    pub fn cache_store(&self, space: &str) -> Option<CacheStore> {
        self.lock_spaces()
            .get(space)
            .map(|entry| entry.store.clone())
    }

    /// The shared macro-metric cache of a parameter set, when one exists.
    pub fn macro_metric_cache(&self, params: &ModelParams) -> Option<MacroMetricsCache> {
        self.lock_macro_caches()
            .get(&params_signature(&format!("{params:?}")))
            .cloned()
    }

    /// The most recent [`SessionArchive`] of every design space the
    /// service has finished a job over, sorted by space signature.
    ///
    /// The registry keeps exactly one archive per space —
    /// last-writer-wins, so a space explored five times is represented by
    /// its freshest frontier.  This is what
    /// [`ExplorationService::snapshot`] persists; it is also the handle
    /// for warm-starting a request without holding onto the original
    /// response.
    pub fn archives(&self) -> Vec<SessionArchive> {
        let spaces = self.lock_spaces();
        let mut archives: Vec<SessionArchive> = spaces
            .values()
            .filter_map(|entry| entry.archive.clone())
            .collect();
        drop(spaces);
        archives.sort_by(|a, b| a.space().cmp(b.space()));
        archives
    }

    /// The most recent [`SessionArchive`] recorded over one design space
    /// (use a [`JobHandle::space`] or a snapshot report as the key).
    pub fn archive(&self, space: &str) -> Option<SessionArchive> {
        self.lock_spaces()
            .get(space)
            .and_then(|entry| entry.archive.clone())
    }

    /// Total distinct designs cached across every design space.
    pub fn cached_evaluations(&self) -> usize {
        self.lock_spaces()
            .values()
            .map(|entry| entry.store.len())
            .sum()
    }

    /// Total distinct macro shapes cached across every parameter set.
    pub fn cached_macro_metrics(&self) -> usize {
        self.lock_macro_caches()
            .values()
            .map(MacroMetricsCache::len)
            .sum()
    }

    /// Total entries evicted across every cache the service owns — the
    /// number a long-lived deployment graphs to size its bounds.
    pub fn total_evictions(&self) -> u64 {
        let stores: u64 = self
            .lock_spaces()
            .values()
            .map(|entry| entry.store.evictions())
            .sum();
        let macros: u64 = self
            .lock_macro_caches()
            .values()
            .map(MacroMetricsCache::evictions)
            .sum();
        stores + macros
    }

    /// Persists everything warm about this service — every session
    /// archive, every evaluation cache, every macro-metric cache — to one
    /// checksummed `acim-persist` container at `path`.
    ///
    /// The write is atomic (temp file + rename): a crash mid-snapshot
    /// leaves either the previous file or no file, never a torn one.
    /// Sections are sorted (spaces, then entries within each space), so
    /// two services holding the same entries snapshot to byte-identical
    /// files.  Each cache is exported under its own lock; concurrent jobs
    /// may add entries between exports, which is harmless — every cached
    /// value is a pure function of its key, so a snapshot is always a
    /// consistent "at least these entries existed" set.
    ///
    /// Records `service_snapshot_seconds` and returns a
    /// [`SnapshotReport`] of what was written.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the file cannot be written, or
    /// [`PersistError::InvalidRecord`] if an archive holds ragged genomes
    /// (impossible for archives this service recorded).  The target path
    /// is untouched on error.
    pub fn snapshot(&self, path: impl AsRef<Path>) -> Result<SnapshotReport, PersistError> {
        let started = Instant::now();
        let mut snapshot = Snapshot::new();
        for archive in self.archives() {
            snapshot
                .archives
                .push(persistence::archive_record(&archive));
        }
        for space in self.spaces() {
            if let Some(store) = self.cache_store(&space) {
                snapshot
                    .eval_caches
                    .push(persistence::eval_cache_record(&space, &store));
            }
        }
        let mut signatures: Vec<String> = self.lock_macro_caches().keys().cloned().collect();
        signatures.sort();
        for signature in signatures {
            let cache = self.lock_macro_caches().get(&signature).cloned();
            if let Some(cache) = cache {
                snapshot
                    .macro_caches
                    .push(persistence::macro_cache_record(&signature, &cache));
            }
        }
        let bytes = snapshot.write(path)?;
        let elapsed = started.elapsed();
        self.instruments
            .snapshot_seconds
            .observe(elapsed.as_secs_f64());
        Ok(SnapshotReport {
            archives: snapshot.archives.len(),
            genomes: snapshot.genome_count(),
            eval_caches: snapshot.eval_caches.len(),
            evaluations: snapshot.evaluation_count(),
            macro_caches: snapshot.macro_caches.len(),
            macro_metrics: snapshot.macro_metric_count(),
            bytes,
            elapsed,
        })
    }

    /// Merges a [`ExplorationService::snapshot`] file back into this
    /// service's registries, first-wins: entries the live service already
    /// knows are kept (they are at least as fresh), everything else is
    /// imported.  Bounded caches absorb imports CLOCK-style, evicting
    /// beyond capacity exactly like any other insert.
    ///
    /// Restore is **all-or-nothing before the merge**: the file is fully
    /// read, decoded, checksum-verified, and signature-validated first,
    /// and any failure — truncation, flipped bytes, wrong magic, a future
    /// format version, foreign signatures — returns the typed
    /// [`PersistError`], bumps
    /// `service_restore_rejected_total{reason=…}`, and leaves every
    /// registry untouched: the service continues exactly as if starting
    /// cold.  A snapshot recorded over *different-but-well-formed* spaces
    /// restores fine; its entries are simply never looked up.
    ///
    /// On success records `service_restore_seconds` and the
    /// `service_restored_{archives,evaluations,macro_metrics}` counters,
    /// and returns a [`RestoreReport`].
    pub fn restore(&self, path: impl AsRef<Path>) -> Result<RestoreReport, PersistError> {
        let path = path.as_ref();
        let started = Instant::now();
        let outcome = (|| {
            let raw = std::fs::read(path).map_err(|err| PersistError::io("read", path, &err))?;
            let snapshot = Snapshot::from_bytes(&raw)?;
            persistence::validate_signatures(&snapshot)?;
            Ok((snapshot, raw.len() as u64))
        })();
        let (snapshot, bytes) = match outcome {
            Ok(decoded) => decoded,
            Err(err) => {
                self.count_restore_rejection(&err);
                return Err(err);
            }
        };

        let mut report = RestoreReport {
            bytes,
            ..RestoreReport::default()
        };
        {
            let mut spaces = self.lock_spaces();
            for record in &snapshot.archives {
                let entry = self.space_entry(&mut spaces, &record.space);
                if entry.archive.is_some() {
                    report.skipped_archives += 1;
                } else {
                    entry.archive = Some(persistence::archive_from_record(record));
                    report.archives += 1;
                }
            }
        }
        for record in snapshot.eval_caches {
            let store = self
                .space_entry(&mut self.lock_spaces(), &record.space)
                .store
                .clone();
            let (inserted, skipped) =
                store.import_entries(record.entries.into_iter().map(persistence::eval_entry));
            report.evaluations += inserted;
            report.skipped_evaluations += skipped;
        }
        for record in snapshot.macro_caches {
            let cache = self.macro_store_for(&record.params);
            let (inserted, skipped) =
                cache.import_entries(record.entries.into_iter().map(persistence::macro_entry));
            report.macro_metrics += inserted;
            report.skipped_macro_metrics += skipped;
        }
        report.elapsed = started.elapsed();
        self.instruments
            .restore_seconds
            .observe(report.elapsed.as_secs_f64());
        self.instruments
            .restored_archives
            .add(report.archives as u64);
        self.instruments
            .restored_evaluations
            .add(report.evaluations as u64);
        self.instruments
            .restored_macro_metrics
            .add(report.macro_metrics as u64);
        Ok(report)
    }

    /// Counts one rejected restore under its typed reason.  Registered
    /// lazily — the label set is data-dependent, and a healthy deployment
    /// never mints any of these series.
    fn count_restore_rejection(&self, err: &PersistError) {
        self.telemetry
            .registry()
            .counter(
                "service_restore_rejected_total",
                "Snapshot restores rejected before any merge, per reason.",
                &[("reason", err.reason())],
            )
            .inc();
    }

    /// The service's telemetry handle — registry plus span recorder.
    /// Disabled (inert spans, empty snapshots) when the service was built
    /// with [`ServiceConfig::telemetry`] off.
    pub fn telemetry_handle(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Snapshot of everything the service observes: request counters and
    /// latency histograms per kind, queue/active job gauges, per-space
    /// cache counters and hit rates, per-generation spans and
    /// `generation_seconds`/`stage_seconds` histograms.
    ///
    /// Collector-style gauges are refreshed on the way out, so
    /// `service_cache_evictions` always equals
    /// [`ExplorationService::total_evictions`] at snapshot time.  Encode
    /// the result with [`acim_telemetry::prometheus_text`] or
    /// [`acim_telemetry::json_text`].  Empty when telemetry is disabled.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        if !self.telemetry.is_enabled() {
            return self.telemetry.snapshot();
        }
        self.instruments
            .cached_evaluations
            .set(self.cached_evaluations() as f64);
        self.instruments
            .cached_macro_metrics
            .set(self.cached_macro_metrics() as f64);
        self.instruments
            .cache_evictions
            .set(self.total_evictions() as f64);
        self.telemetry.snapshot()
    }

    /// Clones the pre-registered per-kind request instruments and opens
    /// the root `request` span; counts the admission.  Called only after
    /// the scheduler reserved a queue slot, so rejected submissions never
    /// record a span or perturb the queue gauge.
    fn request_instruments(
        &self,
        kind: &KindInstruments,
        id: u64,
        space: &str,
        admission: &Admission,
    ) -> RequestInstruments {
        kind.requests.inc();
        let mut root = self.telemetry.span("request");
        root.attr("kind", kind.kind);
        root.attr("job", id.to_string());
        root.attr("space", space.to_string());
        root.attr("priority", admission.priority.to_string());
        if let Some(label) = &admission.label {
            root.attr("label", label.clone());
        }
        RequestInstruments {
            root,
            latency: kind.latency.clone(),
            queue: self.instruments.queue.clone(),
            active: self.instruments.active.clone(),
        }
    }

    /// The trace context instrumenting one request's stages, `None` when
    /// telemetry is disabled (stages then run as pure pass-throughs).
    fn trace_context(&self, parent: Option<SpanId>) -> Option<TraceContext> {
        self.telemetry.is_enabled().then(|| {
            let mut trace = self.instruments.trace.clone();
            trace.parent = parent;
            trace
        })
    }

    /// Submits a request to the admission scheduler and returns a handle
    /// to the admitted job.
    ///
    /// Request problems (invalid config, warm-start session from a
    /// different space) are reported eagerly as
    /// [`SubmitError::Invalid`] before touching the queue; a full queue
    /// or a shutting-down service rejects with backpressure; runtime
    /// failures surface from [`JobHandle::join`].
    ///
    /// # Errors
    ///
    /// [`SubmitError::Invalid`] for an unrunnable request,
    /// [`SubmitError::QueueFull`] when the bounded queue is at capacity,
    /// [`SubmitError::ShuttingDown`] after
    /// [`ExplorationService::shutdown`] started.
    pub fn submit(&self, request: ExplorationRequest) -> Result<JobHandle, SubmitError> {
        let id = self.next_job.fetch_add(1, Ordering::Relaxed);
        let ExplorationRequest {
            config,
            warm_start,
            admission,
        } = request;
        // Each arm validates its config, signs its space and checks the
        // warm start before `admit`, so a bad request never touches the
        // queue.  Building the session explorer validates the exploration
        // config too, and the worker reuses it to re-encode the session.
        match config {
            SpaceConfig::Macro(config) => {
                let controller = TopFlowController::new(config)?;
                let dse = &controller.config().dse;
                let params = format!("{:?}", dse.params);
                let space = macro_space_signature(dse, &params);
                let warm_start = check_session(warm_start, &space)?;
                let session_explorer =
                    DesignSpaceExplorer::new(dse.clone()).map_err(FlowError::from)?;
                let total = dse.generations;
                let kind = &self.instruments.macro_requests;
                self.admit(kind, id, admission, space.clone(), total, |job| {
                    let options = FlowOptions {
                        exploration: ExploreOptions {
                            cache: Some(self.request_store(&space, None)),
                            macro_cache: Some(self.macro_store_for(&params_signature(&params))),
                            warm_start,
                            cancel: Some(job.cancel),
                        },
                        observer: Some(job.observer),
                        trace: job.trace,
                    };
                    move || {
                        let result = controller.run_with(&options)?;
                        let genomes = session_explorer.session_genomes(&result.frontier);
                        let session = SessionArchive::new(space, genomes);
                        Ok(ExplorationResponse::Macro(MacroResponse {
                            result,
                            session,
                        }))
                    }
                })
            }
            SpaceConfig::Chip(config) => {
                let session_explorer =
                    ChipExplorer::new(config.dse.clone()).map_err(FlowError::from)?;
                let params = format!("{:?}", config.dse.params);
                let space = chip_space_signature(&config.dse, &params);
                let warm_start = check_session(warm_start, &space)?;
                let total = config.dse.generations;
                let kind = &self.instruments.chip_requests;
                self.admit(kind, id, admission, space.clone(), total, |job| {
                    let options = ExploreOptions {
                        cache: Some(self.request_store(&space, Some(&config.dse.mix))),
                        macro_cache: Some(self.macro_store_for(&params_signature(&params))),
                        warm_start,
                        cancel: Some(job.cancel),
                    };
                    move || {
                        let stage = ChipStage::new(config)
                            .with_options(options)
                            .with_observer(job.observer);
                        let result =
                            traced(job.trace.as_ref(), TracedStage::Chip, || stage.run(()))?;
                        let genomes = session_explorer.session_genomes(&result.front);
                        let session = SessionArchive::new(space, genomes);
                        Ok(ExplorationResponse::Chip(ChipResponse { result, session }))
                    }
                })
            }
        }
    }

    /// Submits a request and blocks until it finishes — the synchronous
    /// convenience wrapper around [`ExplorationService::submit`] +
    /// [`JobHandle::join`].
    ///
    /// # Errors
    ///
    /// Returns the [`ServiceError`] of either phase; an eagerly-rejected
    /// invalid request surfaces as [`ServiceError::Flow`].
    pub fn run(&self, request: ExplorationRequest) -> Result<ExplorationResponse, ServiceError> {
        let handle = self.submit(request).map_err(ServiceError::from)?;
        handle.join().map_err(ServiceError::Flow)
    }

    /// Reserves one admission-queue slot, mapping a refusal to
    /// [`SubmitError`] and counting it in `service_rejected_total`.
    fn reserve_admission(
        &self,
    ) -> Result<Ticket<'_, Result<ExplorationResponse, FlowError>>, SubmitError> {
        self.scheduler.reserve().map_err(|err| match err {
            AdmitError::QueueFull { depth } => {
                self.instruments.rejected_full.inc();
                SubmitError::QueueFull { depth }
            }
            AdmitError::ShuttingDown => {
                self.instruments.rejected_shutdown.inc();
                SubmitError::ShuttingDown
            }
        })
    }

    /// Builds the progress state of a job totalling `generations`
    /// exploration generations, plus an observer that ticks it only on
    /// events of the job kind's exploration stage (`explore` for macro
    /// flows, `chip` for chip runs): a macro flow's netlist/layout events
    /// are a short tail the total deliberately excludes — see
    /// [`JobProgress`].
    ///
    /// When the service's telemetry is enabled the observer additionally
    /// records one `generation` span per exploration generation (parented
    /// under the request's root span) and observes its duration in the
    /// kind's `generation_seconds{stage}` histogram — the per-generation
    /// wall-clock breakdown the end-to-end `service_request_seconds`
    /// cannot give.  A generation covers the time since the previous
    /// tick, or since a worker started the job for the first one.
    fn generation_progress(
        &self,
        kind: &KindInstruments,
        generations: usize,
        parent: Option<SpanId>,
    ) -> (Arc<ProgressState>, ProgressObserver) {
        let progress = Arc::new(ProgressState {
            completed: AtomicUsize::new(0),
            total: generations,
            admitted: Instant::now(),
            last_tick_ns: AtomicU64::new(0),
        });
        let ticker = progress.clone();
        let telemetry = self.telemetry.clone();
        let stage = kind.stage;
        let histogram = kind.generation_seconds.clone();
        let observer: ProgressObserver = Arc::new(move |event: StageProgress| {
            if event.stage != stage {
                return;
            }
            // `Release` pairs with the `Acquire` pair in
            // `JobHandle::progress`.
            ticker.completed.fetch_add(1, Ordering::Release);
            if !telemetry.is_enabled() {
                return;
            }
            let now = Instant::now();
            let started = ticker.stamp(now);
            let duration = now.saturating_duration_since(started);
            telemetry.spans().record_complete(
                "generation",
                parent,
                started,
                duration,
                vec![(SpanText::Borrowed("stage"), SpanText::Borrowed(stage))],
            );
            histogram.observe(duration.as_secs_f64());
        });
        (progress, observer)
    }

    /// Admits one job of `kind` over `space`: reserves a queue slot (or
    /// rejects with backpressure), builds the cancel token, the request
    /// instruments, the progress of `total` exploration generations and
    /// the trace context, hands them to `build` for the job body, and
    /// enqueues that body behind the pre-run cancellation check and the
    /// deadline-miss counter.  `build` resolves the space's store through
    /// [`ExplorationService::request_store`], so the space's entry exists
    /// when the job finishes: its response is recorded into the entry's
    /// instruments, and its session becomes the entry's archive.
    ///
    /// Callers finish everything fallible first, so a rejected request
    /// records no span, perturbs no gauge and creates no space entry.
    fn admit<Body>(
        &self,
        kind: &KindInstruments,
        id: u64,
        admission: Admission,
        space: String,
        total: usize,
        build: impl FnOnce(JobContext) -> Body,
    ) -> Result<JobHandle, SubmitError>
    where
        Body: FnOnce() -> Result<ExplorationResponse, FlowError> + Send + 'static,
    {
        let ticket = self.reserve_admission()?;
        // Deadline expiry and an explicit `JobHandle::cancel` trip the
        // same token.
        let cancel = match admission.deadline {
            Some(deadline) => CancelToken::with_deadline(deadline.instant()),
            None => CancelToken::new(),
        };
        let instruments = self.request_instruments(kind, id, &space, &admission);
        let parent = instruments.root.as_parent();
        let (progress, observer) = self.generation_progress(kind, total, parent);
        let body = build(JobContext {
            cancel: cancel.clone(),
            observer,
            trace: self.trace_context(parent),
        });
        let spaces = Arc::clone(&self.spaces);
        let job_cancel = cancel.clone();
        let clock = progress.clone();
        let deadline_misses = self.instruments.deadline_misses.clone();
        let work = Box::new(move || {
            let result = instruments.observe(move || {
                // Generations are timed from here, so the first one does
                // not absorb the queue wait.
                clock.stamp(Instant::now());
                // Cancelled or deadline-expired while queued.
                if let Some(reason) = job_cancel.status() {
                    return Err(cancel_error(reason, 0, total));
                }
                let response = body()?;
                let session = response.session();
                let mut spaces = spaces.lock().unwrap_or_else(PoisonError::into_inner);
                // Entries are never removed, so the one `build` created is
                // still there.
                if let Some(entry) = spaces.get_mut(session.space()) {
                    if let Some(instruments) = &entry.instruments {
                        instruments.record(&response);
                    }
                    // Last writer wins per space: the entry holds the
                    // space's most recent frontier, which a snapshot
                    // captures.
                    entry.archive = Some(session.clone());
                }
                drop(spaces);
                Ok(response)
            });
            if matches!(result, Err(FlowError::DeadlineExceeded { .. })) {
                deadline_misses.inc();
            }
            result
        });
        let slot = JobSlot::new();
        // Counted only once the job is built: a job that fails to build
        // never reaches a worker to take it off the gauge.
        self.instruments.queue.inc();
        self.scheduler
            .enqueue(ticket, admission.priority, slot.clone(), work);
        Ok(JobHandle {
            id,
            space,
            label: admission.label,
            priority: admission.priority,
            cancel,
            progress,
            slot,
        })
    }
}

/// What [`ExplorationService::admit`] hands a job-body builder.
struct JobContext {
    /// The job's cancellation token (it carries the deadline).
    cancel: CancelToken,
    /// Ticks the job's progress and records its generation telemetry.
    observer: ProgressObserver,
    /// Instruments the job's stages; `None` when telemetry is disabled.
    trace: Option<TraceContext>,
}

impl std::fmt::Debug for ExplorationService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExplorationService")
            .field("config", &self.config)
            .field("workers", &self.worker_count())
            .field("queue_capacity", &self.queue_capacity())
            .field("queue_depth", &self.queue_depth())
            .field("spaces", &self.spaces())
            .field("cached_evaluations", &self.cached_evaluations())
            .field("cached_macro_metrics", &self.cached_macro_metrics())
            .field("total_evictions", &self.total_evictions())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acim_chip::Network;

    fn quick_chip_config() -> ChipFlowConfig {
        let mut config = ChipFlowConfig::for_mix(Network::edge_cnn(1));
        config.dse.population_size = 16;
        config.dse.generations = 5;
        config.dse.grid_rows = vec![1, 2];
        config.dse.grid_cols = vec![1, 2];
        config.dse.buffer_kib = vec![8, 32];
        config.validate_best = false;
        config
    }

    /// A two-tenant mix request (CNN + SNN), trimmed to the quick
    /// exploration settings of [`quick_chip_config`] but keeping the
    /// builder's behavioural validation on.
    fn quick_mix_request() -> ExplorationRequest {
        let mix = WorkloadMix::new("duo")
            .with_tenant(Network::edge_cnn(1), 1.0)
            .with_tenant(Network::snn_pipeline(), 2.0);
        let mut config = ChipFlowConfig::for_mix(mix);
        config.dse.population_size = 16;
        config.dse.generations = 5;
        config.dse.grid_rows = vec![1, 2];
        config.dse.grid_cols = vec![1, 2];
        config.dse.buffer_kib = vec![8, 32];
        ExplorationRequest::chip_space(config)
    }

    #[test]
    fn mix_requests_flow_end_to_end_with_tenant_telemetry() {
        let service = ExplorationService::new();
        let response = service
            .run(quick_mix_request())
            .unwrap()
            .into_chip()
            .unwrap();
        assert!(!response.result.front.is_empty());
        // Every frontier point carries the per-tenant breakdown.
        for point in &response.result.front {
            assert_eq!(point.tenants.len(), 2);
        }
        // A real mix reports the per-tenant stream validation, not a lone
        // tenant's.
        let validation = response
            .result
            .mix_validation
            .as_ref()
            .expect("mix validation requested");
        assert_eq!(validation.tenants.len(), 2);
        assert!(validation.total_cycles > 0);
        assert!(response.result.validation.is_none());
        // Telemetry: the space's tenant-count gauge and one latency
        // histogram per tenant, observed from the best-throughput point.
        let space = response.session.space().to_string();
        let snapshot = service.telemetry();
        assert_eq!(
            snapshot.gauge("chip_tenants", &[("space", space.as_str())]),
            Some(2.0)
        );
        for tenant in ["edge_cnn_d1", "snn_pipeline"] {
            let histogram = snapshot
                .histogram(
                    "chip_tenant_latency_seconds",
                    &[("space", space.as_str()), ("tenant", tenant)],
                )
                .unwrap_or_else(|| panic!("latency series for {tenant}"));
            assert_eq!(histogram.count, 1);
            assert!(histogram.sum > 0.0);
        }

        // A second identical mix request reuses the space's shared cache
        // and folds into the same tenant series.
        let second = service
            .run(quick_mix_request())
            .unwrap()
            .into_chip()
            .unwrap();
        assert_eq!(second.result.engine.cache.misses, 0);
        let snapshot = service.telemetry();
        let histogram = snapshot
            .histogram(
                "chip_tenant_latency_seconds",
                &[("space", space.as_str()), ("tenant", "snn_pipeline")],
            )
            .unwrap();
        assert_eq!(histogram.count, 2);
    }

    /// A chip config whose exploration runs long enough to observe,
    /// cancel, or pin a worker with — always cancel jobs built from this.
    fn long_chip_config() -> ChipFlowConfig {
        let mut config = quick_chip_config();
        config.dse.generations = 50_000;
        config
    }

    /// Submits `request` and spins until its exploration has visibly
    /// started (at least one generation completed).
    fn submit_running(service: &ExplorationService, request: ExplorationRequest) -> JobHandle {
        let handle = service.submit(request).unwrap();
        while handle.progress().completed == 0 {
            std::thread::yield_now();
        }
        handle
    }

    #[test]
    fn chip_request_round_trips_and_reuses_the_cache() {
        let service = ExplorationService::new();
        let first = service
            .run(ExplorationRequest::chip_space(quick_chip_config()))
            .unwrap()
            .into_chip()
            .unwrap();
        assert!(!first.result.front.is_empty());
        assert!(first.result.engine.cache.misses > 0);
        assert_eq!(first.session.len(), first.result.front.len());
        assert!(first.session.space().starts_with("chip/"));
        assert_eq!(service.spaces().len(), 1);
        let cached = service.cached_evaluations();
        assert_eq!(cached, first.result.engine.cache.misses);

        // Identical second request: every evaluation is a cross-request
        // cache hit and no new entries appear.
        let second = service
            .run(ExplorationRequest::chip_space(quick_chip_config()))
            .unwrap()
            .into_chip()
            .unwrap();
        assert_eq!(second.result.engine.cache.misses, 0);
        assert!(second.result.engine.cache.hits > 0);
        assert_eq!(service.cached_evaluations(), cached);
        assert_eq!(first.result.front.len(), second.result.front.len());
    }

    #[test]
    fn warm_start_sessions_are_space_checked() {
        let service = ExplorationService::new();
        let response = service
            .run(ExplorationRequest::chip_space(quick_chip_config()))
            .unwrap();
        let session = response.session().clone();

        // Same space: accepted.
        let ok = ExplorationRequest::chip_space(quick_chip_config()).warm_start(session.clone());
        assert!(service.submit(ok).is_ok());

        // Different space (other buffer catalogue): rejected eagerly.
        let mut other = quick_chip_config();
        other.dse.buffer_kib = vec![16, 64];
        let bad = ExplorationRequest::chip_space(other).warm_start(session);
        match service.submit(bad) {
            Err(SubmitError::Invalid(FlowError::WarmStartMismatch { requested, session })) => {
                assert_ne!(requested, session);
            }
            other => panic!("expected WarmStartMismatch, got {other:?}"),
        }
    }

    #[test]
    fn job_handles_report_progress_space_and_admission() {
        let service = ExplorationService::new();
        let handle = service
            .submit(
                ExplorationRequest::chip_space(quick_chip_config())
                    .priority(Priority::High)
                    .label("smoke"),
            )
            .unwrap();
        assert!(handle.space().starts_with("chip/"));
        assert_eq!(handle.label(), Some("smoke"));
        assert_eq!(handle.priority(), Priority::High);
        let total = handle.progress().total;
        assert_eq!(total, 5);
        let response = handle.join().unwrap();
        assert!(matches!(response, ExplorationResponse::Chip(_)));
    }

    #[test]
    fn invalid_requests_fail_eagerly() {
        let service = ExplorationService::new();
        let mut config = quick_chip_config();
        config.dse.population_size = 7;
        assert!(matches!(
            service.submit(ExplorationRequest::chip_space(config)),
            Err(SubmitError::Invalid(_))
        ));
        let mut flow = FlowConfig::new(4 * 1024);
        flow.dse.population_size = 2;
        assert!(matches!(
            service.submit(ExplorationRequest::macro_space(flow)),
            Err(SubmitError::Invalid(_))
        ));
    }

    #[test]
    fn finished_jobs_report_complete_progress() {
        let service = ExplorationService::new();
        let handle = service
            .submit(ExplorationRequest::chip_space(quick_chip_config()))
            .unwrap();
        while !handle.is_finished() {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        // The documented guarantee: after `is_finished`, the snapshot
        // reflects every generation, and completed never exceeds total.
        let progress = handle.progress();
        assert_eq!(progress.completed, progress.total);
        assert_eq!(progress.fraction(), 1.0);
        handle.join().unwrap();
    }

    #[test]
    fn queue_full_rejections_are_deterministic_at_capacity() {
        let service = ExplorationService::with_config(
            ServiceConfig::default()
                .with_workers(1)
                .with_queue_capacity(2),
        );
        assert_eq!(service.worker_count(), 1);
        assert_eq!(service.queue_capacity(), 2);
        // Pin the single worker, then fill the queue to capacity.
        let pinned = submit_running(&service, ExplorationRequest::chip_space(long_chip_config()));
        let queued_a = service
            .submit(ExplorationRequest::chip_space(quick_chip_config()))
            .unwrap();
        let queued_b = service
            .submit(ExplorationRequest::chip_space(quick_chip_config()))
            .unwrap();
        assert_eq!(service.queue_depth(), 2);
        // Deterministic backpressure: the next submission must be
        // rejected with the queue depth, regardless of priority.
        match service
            .submit(ExplorationRequest::chip_space(quick_chip_config()).priority(Priority::High))
        {
            Err(SubmitError::QueueFull { depth }) => assert_eq!(depth, 2),
            other => panic!("expected QueueFull, got {other:?}"),
        }
        let snapshot = service.telemetry();
        assert_eq!(
            snapshot.counter("service_rejected_total", &[("reason", "queue_full")]),
            Some(1)
        );
        pinned.cancel();
        assert!(matches!(pinned.join(), Err(FlowError::Cancelled { .. })));
        queued_a.join().unwrap();
        queued_b.join().unwrap();
    }

    #[test]
    fn high_priority_jobs_bypass_the_queued_backlog() {
        let service = ExplorationService::with_config(
            ServiceConfig::default()
                .with_workers(1)
                .with_queue_capacity(16),
        );
        // Pin the single worker so the backlog's dequeue order is decided
        // by the priority heap, not by arrival timing.
        let pinned = submit_running(&service, ExplorationRequest::chip_space(long_chip_config()));
        let low_a = service
            .submit(
                ExplorationRequest::chip_space(quick_chip_config())
                    .priority(Priority::Low)
                    .label("low-a"),
            )
            .unwrap();
        let low_b = service
            .submit(
                ExplorationRequest::chip_space(quick_chip_config())
                    .priority(Priority::Low)
                    .label("low-b"),
            )
            .unwrap();
        let high = service
            .submit(
                ExplorationRequest::chip_space(quick_chip_config())
                    .priority(Priority::High)
                    .label("high"),
            )
            .unwrap();
        pinned.cancel();
        assert!(pinned.join().is_err());
        low_a.join().unwrap();
        low_b.join().unwrap();
        high.join().unwrap();
        // Execution order from the span record: with one worker, jobs
        // complete in the order they were dequeued, so the root span of
        // the high-priority job must close before either low-priority
        // job's (which keep FIFO order between themselves).  The roots'
        // *start* times carry no order — they open at submission.
        let snapshot = service.telemetry();
        let request_end = |label: &str| -> u64 {
            let root = snapshot
                .spans
                .iter()
                .find(|s| {
                    s.name == "request"
                        && s.attributes
                            .iter()
                            .any(|(k, v)| k.as_ref() == "label" && v.as_ref() == label)
                })
                .unwrap_or_else(|| panic!("root span of {label}"));
            root.start_us + root.duration_us
        };
        let high_end = request_end("high");
        let low_a_end = request_end("low-a");
        let low_b_end = request_end("low-b");
        assert!(
            high_end < low_a_end && high_end < low_b_end,
            "high ({high_end}) must finish before low-a ({low_a_end}) and low-b ({low_b_end})"
        );
        assert!(low_a_end < low_b_end, "equal-priority jobs keep FIFO order");
    }

    #[test]
    fn cancellation_stops_a_running_job_within_a_generation() {
        let service = ExplorationService::new();
        let handle = submit_running(&service, ExplorationRequest::chip_space(long_chip_config()));
        handle.cancel();
        // Idempotent.
        handle.cancel();
        match handle.join() {
            Err(FlowError::Cancelled { completed, total }) => {
                assert!(completed >= 1, "ran at least one generation");
                assert!(completed < total, "stopped before the full budget");
                assert_eq!(total, 50_000);
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_fails_a_queued_job_without_running_it() {
        let service = ExplorationService::new();
        let handle = service
            .submit(
                ExplorationRequest::chip_space(long_chip_config())
                    .deadline(Deadline::at(Instant::now() - Duration::from_millis(1))),
            )
            .unwrap();
        match handle.join() {
            Err(FlowError::DeadlineExceeded { completed, total }) => {
                assert_eq!(completed, 0, "never started");
                assert_eq!(total, 50_000);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let snapshot = service.telemetry();
        assert_eq!(
            snapshot.counter("service_deadline_misses_total", &[]),
            Some(1)
        );
    }

    #[test]
    fn mid_run_deadline_stops_the_job_and_counts_the_miss() {
        let service = ExplorationService::new();
        let handle = service
            .submit(
                ExplorationRequest::chip_space(long_chip_config())
                    .deadline(Deadline::within(Duration::from_millis(80))),
            )
            .unwrap();
        match handle.join() {
            Err(FlowError::DeadlineExceeded { completed, total }) => {
                assert!(completed <= total);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let snapshot = service.telemetry();
        assert_eq!(
            snapshot.counter("service_deadline_misses_total", &[]),
            Some(1)
        );
    }

    #[test]
    fn shutdown_drains_the_queue_and_rejects_new_work() {
        let service = ExplorationService::with_config(
            ServiceConfig::default()
                .with_workers(1)
                .with_queue_capacity(16),
        );
        let handles: Vec<_> = (0..3)
            .map(|_| {
                service
                    .submit(ExplorationRequest::chip_space(quick_chip_config()))
                    .unwrap()
            })
            .collect();
        service.shutdown();
        // Every admitted job ran to completion before shutdown returned…
        for handle in handles {
            assert!(handle.is_finished());
            handle.join().unwrap();
        }
        assert_eq!(service.queue_depth(), 0);
        // …and new work is rejected from then on.  Idempotent.
        assert!(matches!(
            service.submit(ExplorationRequest::chip_space(quick_chip_config())),
            Err(SubmitError::ShuttingDown)
        ));
        service.shutdown();
        let snapshot = service.telemetry();
        assert_eq!(
            snapshot.counter("service_rejected_total", &[("reason", "shutting_down")]),
            Some(1)
        );
    }

    #[test]
    fn submit_errors_display_and_convert() {
        let full = SubmitError::QueueFull { depth: 7 };
        assert!(full.to_string().contains("7"));
        assert!(SubmitError::ShuttingDown.to_string().contains("shutting"));
        let invalid: SubmitError = FlowError::EmptyDistilledSet.into();
        assert!(invalid.to_string().contains("invalid request"));
        // run()'s error flattening: Invalid surfaces as Flow, admission
        // failures as Submit.
        assert_eq!(
            ServiceError::from(invalid),
            ServiceError::Flow(FlowError::EmptyDistilledSet)
        );
        assert_eq!(
            ServiceError::from(SubmitError::ShuttingDown),
            ServiceError::Submit(SubmitError::ShuttingDown)
        );
        assert!(ServiceError::from(SubmitError::QueueFull { depth: 3 })
            .to_string()
            .contains("submission rejected"));
    }

    #[test]
    fn telemetry_snapshot_exposes_request_and_cache_series() {
        let service = ExplorationService::new();
        let response = service
            .run(ExplorationRequest::chip_space(quick_chip_config()))
            .unwrap()
            .into_chip()
            .unwrap();
        let space = response.session.space().to_string();
        let snapshot = service.telemetry();

        assert_eq!(
            snapshot.counter("service_requests_total", &[("kind", "chip")]),
            Some(1)
        );
        let latency = snapshot
            .histogram("service_request_seconds", &[("kind", "chip")])
            .expect("request latency histogram");
        assert_eq!(latency.count, 1);
        assert!(latency.quantile(0.99).is_finite());
        assert_eq!(snapshot.gauge("service_queue_jobs", &[]), Some(0.0));
        assert_eq!(snapshot.gauge("service_active_jobs", &[]), Some(0.0));

        let labels = [("space", space.as_str())];
        assert_eq!(
            snapshot.counter("service_cache_misses_total", &labels),
            Some(response.result.engine.cache.misses as u64)
        );
        let rate = snapshot
            .gauge("service_cache_hit_rate", &labels)
            .expect("hit-rate gauge");
        assert!((0.0..=1.0).contains(&rate));

        let generations = snapshot
            .histogram("generation_seconds", &[("stage", "chip")])
            .expect("per-generation histogram");
        assert_eq!(
            generations.count as usize,
            quick_chip_config().dse.generations
        );
        assert!(snapshot
            .histogram("stage_seconds", &[("stage", "chip")])
            .is_some());

        // Span tree: request → chip stage → generations.
        let spans = &snapshot.spans;
        let root = spans
            .iter()
            .find(|s| s.name == "request")
            .expect("root request span");
        assert!(spans
            .iter()
            .any(|s| s.name == "chip" && s.parent == Some(root.id)));
        let gen_count = spans
            .iter()
            .filter(|s| s.name == "generation" && s.parent == Some(root.id))
            .count();
        assert_eq!(gen_count, quick_chip_config().dse.generations);

        // Both encoders render the snapshot.
        let text = acim_telemetry::prometheus_text(&snapshot);
        assert!(text.contains("service_requests_total{kind=\"chip\"} 1"));
        assert!(text.contains("service_request_seconds_bucket"));
        let json = acim_telemetry::json_text(&snapshot);
        assert!(json.contains("\"service_request_seconds\""));
    }

    /// Pins the whole telemetry surface of one macro request and one
    /// two-tenant chip request on a fresh service: every series as
    /// `name type labels`, with each `space` value cut to its `macro/` or
    /// `chip/` prefix so no parameter digest is pinned, and the span tree
    /// as a multiset of (span, parent span) names.
    #[test]
    fn telemetry_surface_of_a_macro_and_a_mix_request_is_pinned() {
        let mut flow = FlowConfig::new(4 * 1024);
        flow.dse.population_size = 24;
        flow.dse.generations = 6;
        flow.max_layouts = 1;
        let service = ExplorationService::new();
        service.run(ExplorationRequest::macro_space(flow)).unwrap();
        service.run(quick_mix_request()).unwrap();
        let snapshot = service.telemetry();

        let mut series: Vec<String> = snapshot
            .samples
            .iter()
            .map(|sample| {
                let kind = match sample.value {
                    acim_telemetry::MetricValue::Counter(_) => "counter",
                    acim_telemetry::MetricValue::Gauge(_) => "gauge",
                    acim_telemetry::MetricValue::Histogram(_) => "histogram",
                };
                let labels: Vec<String> = sample
                    .labels
                    .iter()
                    .map(|(key, value)| match value.split_once('/') {
                        Some((prefix, _)) if key == "space" => format!("{key}={prefix}/"),
                        _ => format!("{key}={value}"),
                    })
                    .collect();
                format!("{} {kind} {}", sample.name, labels.join(","))
            })
            .collect();
        series.sort();
        let expected = [
            "chip_tenant_latency_seconds histogram space=chip/,tenant=edge_cnn_d1",
            "chip_tenant_latency_seconds histogram space=chip/,tenant=snn_pipeline",
            "chip_tenants gauge space=chip/",
            "generation_seconds histogram stage=chip",
            "generation_seconds histogram stage=explore",
            "service_active_jobs gauge ",
            "service_cache_evictions gauge ",
            "service_cache_evictions_total counter space=chip/",
            "service_cache_evictions_total counter space=macro/",
            "service_cache_hit_rate gauge space=chip/",
            "service_cache_hit_rate gauge space=macro/",
            "service_cache_hits_total counter space=chip/",
            "service_cache_hits_total counter space=macro/",
            "service_cache_misses_total counter space=chip/",
            "service_cache_misses_total counter space=macro/",
            "service_cached_evaluations gauge ",
            "service_cached_macro_metrics gauge ",
            "service_deadline_misses_total counter ",
            "service_queue_jobs gauge ",
            "service_rejected_total counter reason=queue_full",
            "service_rejected_total counter reason=shutting_down",
            "service_request_seconds histogram kind=chip",
            "service_request_seconds histogram kind=macro",
            "service_requests_total counter kind=chip",
            "service_requests_total counter kind=macro",
            "service_restore_seconds histogram ",
            "service_restored_archives counter ",
            "service_restored_evaluations counter ",
            "service_restored_macro_metrics counter ",
            "service_snapshot_seconds histogram ",
            "service_worker_threads gauge ",
            "stage_seconds histogram stage=chip",
            "stage_seconds histogram stage=distill",
            "stage_seconds histogram stage=explore",
            "stage_seconds histogram stage=layout",
            "stage_seconds histogram stage=netlist",
        ];
        assert_eq!(series, expected);

        let name_of = |id: SpanId| {
            snapshot
                .spans
                .iter()
                .find(|span| span.id == id)
                .map(|span| span.name.as_ref())
        };
        let mut tree: Vec<(&str, Option<&str>)> = snapshot
            .spans
            .iter()
            .map(|span| (span.name.as_ref(), span.parent.and_then(name_of)))
            .collect();
        tree.sort_unstable();
        let mut expected = vec![("generation", Some("request")); 6 + 5];
        expected.extend([
            ("chip", Some("request")),
            ("distill", Some("request")),
            ("explore", Some("request")),
            ("layout", Some("request")),
            ("netlist", Some("request")),
            ("request", None),
            ("request", None),
        ]);
        expected.sort_unstable();
        assert_eq!(tree, expected);
    }

    #[test]
    fn macro_request_telemetry_counts_only_exploration_generations() {
        let mut config = FlowConfig::new(4 * 1024);
        config.dse.population_size = 24;
        config.dse.generations = 6;
        config.max_layouts = 2;
        let generations = config.dse.generations;
        let service = ExplorationService::new();
        let handle = service
            .submit(ExplorationRequest::macro_space(config))
            .unwrap();
        assert_eq!(handle.progress().total, generations);
        while !handle.is_finished() {
            std::thread::sleep(Duration::from_millis(2));
        }
        // The netlist and layout stages ticked the observer once per
        // design, yet progress counts exploration generations only.
        assert_eq!(
            handle.progress(),
            JobProgress {
                completed: generations,
                total: generations,
            }
        );
        let response = handle.join().unwrap().into_macro().unwrap();
        assert_eq!(response.result.designs.len(), 2);

        let snapshot = service.telemetry();
        let explore = snapshot
            .histogram("generation_seconds", &[("stage", "explore")])
            .expect("explore generation histogram");
        assert_eq!(explore.count as usize, generations);
        let chip_samples = snapshot
            .histogram("generation_seconds", &[("stage", "chip")])
            .map_or(0, |histogram| histogram.count);
        assert_eq!(chip_samples, 0);

        let root = snapshot
            .spans
            .iter()
            .find(|s| s.name == "request")
            .expect("root request span");
        let ticks: Vec<_> = snapshot
            .spans
            .iter()
            .filter(|s| s.name == "generation" && s.parent == Some(root.id))
            .collect();
        assert_eq!(ticks.len(), generations);
        for tick in ticks {
            assert!(tick
                .attributes
                .iter()
                .any(|(k, v)| k.as_ref() == "stage" && v.as_ref() == "explore"));
        }
    }

    #[test]
    fn macro_requests_record_netlist_and_layout_spans_per_design() {
        let mut config = FlowConfig::new(4 * 1024);
        config.dse.population_size = 24;
        config.dse.generations = 6;
        config.max_layouts = 2;
        let generations = config.dse.generations;
        let service = ExplorationService::new();
        let response = service
            .run(ExplorationRequest::macro_space(config))
            .unwrap()
            .into_macro()
            .unwrap();
        assert_eq!(response.result.designs.len(), 2);

        // The request's children are exactly the stage spans a traced
        // benchmark maps to layers, plus the generation ticks.
        let snapshot = service.telemetry();
        let root = snapshot
            .spans
            .iter()
            .find(|s| s.name == "request")
            .expect("root request span");
        let mut children: Vec<&str> = snapshot
            .spans
            .iter()
            .filter(|s| s.parent == Some(root.id))
            .map(|s| s.name.as_ref())
            .collect();
        children.sort_unstable();
        let mut expected = vec!["generation"; generations];
        expected.extend([
            "distill", "explore", "layout", "layout", "netlist", "netlist",
        ]);
        expected.sort_unstable();
        assert_eq!(children, expected);
        for (stage, runs) in [
            ("explore", 1),
            ("distill", 1),
            ("netlist", 2),
            ("layout", 2),
        ] {
            let histogram = snapshot
                .histogram("stage_seconds", &[("stage", stage)])
                .expect("stage histogram");
            assert_eq!(histogram.count, runs, "stage_seconds{{stage={stage}}}");
        }
    }

    #[test]
    fn queued_job_generations_start_when_a_worker_starts_it() {
        let service = ExplorationService::with_config(ServiceConfig::default().with_workers(1));
        let slow = submit_running(
            &service,
            ExplorationRequest::chip_space(long_chip_config()).label("slow"),
        );
        let quick = service
            .submit(ExplorationRequest::chip_space(quick_chip_config()).label("quick"))
            .unwrap();
        // Let the quick request wait in the queue behind the slow one.
        std::thread::sleep(Duration::from_millis(10));
        slow.cancel();
        assert!(matches!(slow.join(), Err(FlowError::Cancelled { .. })));
        quick.join().unwrap();

        let snapshot = service.telemetry();
        let root = |label: &str| {
            snapshot
                .spans
                .iter()
                .find(|s| {
                    s.name == "request"
                        && s.attributes
                            .iter()
                            .any(|(k, v)| k.as_ref() == "label" && v.as_ref() == label)
                })
                .unwrap_or_else(|| panic!("root span of {label}"))
        };
        let slow_root = root("slow");
        let slow_end = slow_root.start_us + slow_root.duration_us;
        let quick_id = root("quick").id;
        let first_generation = snapshot
            .spans
            .iter()
            .filter(|s| s.name == "generation" && s.parent == Some(quick_id))
            .map(|s| s.start_us)
            .min()
            .expect("the quick request ran generations");
        // The single worker started the quick job only after the slow
        // one ended, so none of its generations may cover the queue wait.
        assert!(
            first_generation >= slow_end,
            "first generation starts at {first_generation} us, before the worker \
             freed up at {slow_end} us"
        );
    }

    #[test]
    fn eviction_gauge_agrees_with_total_evictions() {
        // Tight bounds force evictions in both cache layers; the
        // collector-style gauge must agree with the method at snapshot
        // time.
        let service = ExplorationService::with_config(ServiceConfig::bounded(16, 4));
        service
            .run(ExplorationRequest::chip_space(quick_chip_config()))
            .unwrap();
        let snapshot = service.telemetry();
        let evictions = service.total_evictions();
        assert!(evictions > 0, "bounded caches should have evicted");
        assert_eq!(
            snapshot.gauge("service_cache_evictions", &[]),
            Some(evictions as f64)
        );
    }

    #[test]
    fn zero_cache_capacities_clamp_to_one() {
        // A zero bound used to panic while the job was being built, after
        // admission had reserved its queue slot: the slot leaked and the
        // service's drop waited for it forever.
        let service = ExplorationService::with_config(ServiceConfig::bounded(0, 0));
        let mut config = FlowConfig::new(4 * 1024);
        config.dse.population_size = 8;
        config.dse.generations = 2;
        config.max_layouts = 1;
        service
            .run(ExplorationRequest::macro_space(config))
            .unwrap();
        assert_eq!(service.cached_evaluations(), 1);
        assert_eq!(service.cached_macro_metrics(), 1);
        assert_eq!(service.queue_depth(), 0);
        assert_eq!(
            service.telemetry().gauge("service_queue_jobs", &[]),
            Some(0.0)
        );
        drop(service);
    }

    #[test]
    fn disabled_telemetry_yields_empty_snapshots() {
        let service = ExplorationService::with_config(ServiceConfig::default().without_telemetry());
        assert!(!service.telemetry_handle().is_enabled());
        service
            .run(ExplorationRequest::chip_space(quick_chip_config()))
            .unwrap();
        let snapshot = service.telemetry();
        assert!(snapshot.is_empty());
        assert!(acim_telemetry::prometheus_text(&snapshot).is_empty());
    }

    #[test]
    fn job_progress_fraction_saturates() {
        let progress = JobProgress {
            completed: 3,
            total: 4,
        };
        assert!((progress.fraction() - 0.75).abs() < 1e-12);
        let done = JobProgress {
            completed: 9,
            total: 4,
        };
        assert_eq!(done.fraction(), 1.0);
        let empty = JobProgress {
            completed: 0,
            total: 0,
        };
        assert_eq!(empty.fraction(), 0.0);
    }

    #[test]
    fn job_progress_displays_human_readably() {
        let progress = JobProgress {
            completed: 12,
            total: 40,
        };
        assert_eq!(progress.to_string(), "12/40 generations (30%)");
        let empty = JobProgress {
            completed: 0,
            total: 0,
        };
        assert_eq!(empty.to_string(), "0/0 generations (0%)");
    }
}
