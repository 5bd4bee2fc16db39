//! Bounded, deadline-aware admission scheduling.
//!
//! [`Scheduler`] replaces the service's original thread-per-request model:
//! instead of spawning one unbounded OS thread per submission, requests
//! enter a **bounded admission queue** and a **fixed-size worker set**
//! (by default one worker per core, see `ServiceConfig::workers`) drains
//! it in priority order.  A burst of requests therefore queues instead of
//! spawning a thread herd — the number of concurrently executing jobs can
//! never exceed the worker count, and a full queue rejects new work with
//! backpressure ([`AdmitError::QueueFull`]) rather than accepting
//! unbounded load.
//!
//! The module is deliberately generic over the job result type `T`: the
//! scheduler moves `FnOnce() -> T` closures to workers and hands results
//! back through [`JobSlot`]s, so its queueing, priority, shutdown, and
//! panic-latching behaviour is unit-tested here without dragging in the
//! whole exploration stack.  `crate::service` instantiates it with
//! `T = Result<ExplorationResponse, FlowError>`.
//!
//! Ordering guarantees:
//!
//! * Higher [`Priority`] always dequeues first.
//! * Within one priority class, jobs dequeue in admission (FIFO) order.
//!
//! Workers latch panics: a panicking job parks its payload in its
//! [`JobSlot`] (re-raised by the joining caller) and the worker thread
//! survives to serve the next job — one panicking tenant cannot shrink
//! the worker set for everyone else.

use std::any::Any;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Scheduling class of a submitted request: higher priorities dequeue
/// first; requests of equal priority dequeue in admission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Background work: bulk sweeps, speculative warm-ups.
    Low,
    /// The default class for interactive requests.
    #[default]
    Normal,
    /// Latency-sensitive work, admitted ahead of any queued backlog.
    High,
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Priority::Low => write!(f, "low"),
            Priority::Normal => write!(f, "normal"),
            Priority::High => write!(f, "high"),
        }
    }
}

/// A completion deadline for one request.
///
/// The deadline is an absolute instant: [`Deadline::within`] fixes it
/// relative to the moment the request is *built* (not admitted), so time
/// spent waiting in the admission queue counts against the budget — which
/// is what a caller with an end-to-end latency target wants.  A job whose
/// deadline passes stops cooperatively at its next generation / design
/// boundary and fails with `FlowError::DeadlineExceeded`; a job still
/// queued when its deadline passes fails the same way without running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline(Instant);

impl Deadline {
    /// A deadline at an absolute instant.
    pub fn at(instant: Instant) -> Self {
        Self(instant)
    }

    /// A deadline `budget` from now.
    pub fn within(budget: Duration) -> Self {
        Self(Instant::now() + budget)
    }

    /// The absolute instant of the deadline.
    pub fn instant(self) -> Instant {
        self.0
    }

    /// Returns `true` once the deadline has passed.
    pub fn has_passed(self) -> bool {
        Instant::now() >= self.0
    }
}

/// Why the scheduler refused to admit a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AdmitError {
    /// The bounded admission queue is at capacity.
    QueueFull {
        /// Queue depth at rejection time (== the configured capacity).
        depth: usize,
    },
    /// The scheduler is shutting down and no longer admits work.
    ShuttingDown,
}

/// The result slot of one job: filled exactly once by a worker, consumed
/// exactly once by the joining caller.
pub(crate) struct JobSlot<T> {
    state: Mutex<SlotState<T>>,
    done: Condvar,
}

enum SlotState<T> {
    Pending,
    Done(T),
    Panicked(Box<dyn Any + Send>),
    Taken,
}

impl<T> JobSlot<T> {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(SlotState::Pending),
            done: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, SlotState<T>> {
        // Poison-tolerant: the slot state is a single enum, consistent
        // between operations, and workers catch job panics anyway.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn fill(&self, state: SlotState<T>) {
        *self.lock() = state;
        self.done.notify_all();
    }

    /// Returns `true` once the job has finished (successfully or by
    /// panicking); the take methods will not block after this.
    pub(crate) fn is_finished(&self) -> bool {
        !matches!(*self.lock(), SlotState::Pending)
    }

    fn take_filled(state: &mut SlotState<T>) -> Option<T> {
        if matches!(state, SlotState::Pending) {
            return None;
        }
        match std::mem::replace(state, SlotState::Taken) {
            SlotState::Done(value) => Some(value),
            SlotState::Panicked(payload) => std::panic::resume_unwind(payload),
            SlotState::Taken => panic!("job result taken twice"),
            SlotState::Pending => unreachable!("pending handled above"),
        }
    }

    /// Blocks until the job finishes and takes its result, re-raising a
    /// panic from the job.
    pub(crate) fn take_blocking(&self) -> T {
        let mut state = self.lock();
        loop {
            if let Some(value) = Self::take_filled(&mut state) {
                return value;
            }
            state = self
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Takes the result if the job already finished (`None` while it is
    /// still pending or queued), re-raising a panic from the job.
    pub(crate) fn try_take(&self) -> Option<T> {
        Self::take_filled(&mut self.lock())
    }

    /// Blocks up to `timeout` for the result, re-raising a panic from the
    /// job.
    pub(crate) fn take_timeout(&self, timeout: Duration) -> Option<T> {
        let give_up = Instant::now() + timeout;
        let mut state = self.lock();
        loop {
            if let Some(value) = Self::take_filled(&mut state) {
                return Some(value);
            }
            let remaining = give_up.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return None;
            }
            state = self
                .done
                .wait_timeout(state, remaining)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

/// An admitted-but-not-yet-enqueued slot: [`Scheduler::reserve`] claims
/// queue capacity and the admission sequence number atomically, the
/// caller builds the job, then [`Scheduler::enqueue`] (infallible) lands
/// it.  The split keeps expensive job construction (telemetry spans,
/// explorer clones) out of the rejection path: a rejected request builds
/// nothing.
///
/// A ticket dropped without being enqueued (its job failed to build, say
/// by panicking) returns its slot, so the queue depth falls back and a
/// shutdown waiting for outstanding reservations still finishes.
pub(crate) struct Ticket<'s, T> {
    seq: u64,
    shared: &'s Shared<T>,
}

impl<T> Drop for Ticket<'_, T> {
    fn drop(&mut self) {
        {
            let mut state = self.shared.lock_state();
            state.queued -= 1;
            state.reservations -= 1;
        }
        // A shutting-down worker may be waiting for this reservation.
        self.shared.work_ready.notify_all();
    }
}

struct QueuedJob<T> {
    priority: Priority,
    seq: u64,
    work: Box<dyn FnOnce() -> T + Send>,
    slot: Arc<JobSlot<T>>,
}

impl<T> QueuedJob<T> {
    /// Max-heap key: higher priority first, then earlier admission.
    fn key(&self) -> (Priority, std::cmp::Reverse<u64>) {
        (self.priority, std::cmp::Reverse(self.seq))
    }
}

impl<T> PartialEq for QueuedJob<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for QueuedJob<T> {}
impl<T> PartialOrd for QueuedJob<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for QueuedJob<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

struct QueueState<T> {
    heap: BinaryHeap<QueuedJob<T>>,
    /// Admitted jobs not yet claimed by a worker: heap entries plus
    /// outstanding reservations.  This — not `heap.len()` — is what the
    /// capacity bound applies to, so a reserved-but-still-building job
    /// counts against the queue like an enqueued one.
    queued: usize,
    /// Tickets handed out whose job has not been enqueued yet.
    reservations: usize,
    shutting_down: bool,
    next_seq: u64,
}

struct Shared<T> {
    state: Mutex<QueueState<T>>,
    /// Workers wait here for jobs (or the shutdown signal).
    work_ready: Condvar,
}

impl<T> Shared<T> {
    fn lock_state(&self) -> MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The bounded, priority-ordered admission scheduler (see the module
/// docs).  Dropping it shuts down: remaining queued jobs run to
/// completion, then the workers exit and are joined.
pub(crate) struct Scheduler<T> {
    shared: Arc<Shared<T>>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
    worker_count: usize,
    capacity: usize,
}

impl<T: Send + 'static> Scheduler<T> {
    /// Creates a scheduler with `workers` worker threads (clamped to at
    /// least 1) and an admission queue bounded at `capacity` jobs
    /// (clamped to at least 1).  Worker threads are named
    /// `{name}-worker-{i}` and spawned eagerly.
    pub(crate) fn new(workers: usize, capacity: usize, name: &str) -> Self {
        let worker_count = workers.max(1);
        let capacity = capacity.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                heap: BinaryHeap::new(),
                queued: 0,
                reservations: 0,
                shutting_down: false,
                next_seq: 0,
            }),
            work_ready: Condvar::new(),
        });
        let handles = (0..worker_count)
            .map(|i| {
                let shared = shared.clone();
                thread::Builder::new()
                    .name(format!("{name}-worker-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn scheduler worker thread")
            })
            .collect();
        Self {
            shared,
            workers: Mutex::new(handles),
            worker_count,
            capacity,
        }
    }
}

// Everything but worker spawning is bound-free: the queue operations and
// shutdown only move already-`Send` jobs around, and `Drop` must compile
// without the `Send` bound.
impl<T> Scheduler<T> {
    /// The fixed worker-set size.
    pub(crate) fn worker_count(&self) -> usize {
        self.worker_count
    }

    /// The admission-queue capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs admitted but not yet claimed by a worker.
    pub(crate) fn queue_depth(&self) -> usize {
        self.shared.lock_state().queued
    }

    /// Atomically claims one unit of queue capacity and the next
    /// admission sequence number.
    ///
    /// # Errors
    ///
    /// [`AdmitError::QueueFull`] at capacity, [`AdmitError::ShuttingDown`]
    /// after [`Scheduler::shutdown`] started.
    pub(crate) fn reserve(&self) -> Result<Ticket<'_, T>, AdmitError> {
        let mut state = self.shared.lock_state();
        if state.shutting_down {
            return Err(AdmitError::ShuttingDown);
        }
        if state.queued >= self.capacity {
            return Err(AdmitError::QueueFull {
                depth: state.queued,
            });
        }
        state.queued += 1;
        state.reservations += 1;
        let seq = state.next_seq;
        state.next_seq += 1;
        Ok(Ticket {
            seq,
            shared: &self.shared,
        })
    }

    /// Lands a reserved job in the queue.  Infallible by design: the
    /// capacity check already happened in [`Scheduler::reserve`], and a
    /// shutdown that races in between waits for outstanding reservations,
    /// so the job still runs.
    pub(crate) fn enqueue(
        &self,
        ticket: Ticket<'_, T>,
        priority: Priority,
        slot: Arc<JobSlot<T>>,
        work: Box<dyn FnOnce() -> T + Send>,
    ) {
        // The queued job takes over the ticket's slot, so the ticket must
        // not return it on drop.
        let ticket = std::mem::ManuallyDrop::new(ticket);
        let mut state = self.shared.lock_state();
        state.reservations -= 1;
        state.heap.push(QueuedJob {
            priority,
            seq: ticket.seq,
            work,
            slot,
        });
        drop(state);
        // Wake one worker for the job; during shutdown wake everyone so
        // idle workers re-check the exit condition too.
        self.shared.work_ready.notify_all();
    }

    /// Stops admission and drains the queue deterministically: every
    /// already-admitted job runs to completion, then the workers exit and
    /// are joined.  Idempotent; concurrent callers all block until the
    /// drain finishes.
    pub(crate) fn shutdown(&self) {
        {
            let mut state = self.shared.lock_state();
            state.shutting_down = true;
        }
        self.shared.work_ready.notify_all();
        let handles: Vec<_> = self
            .workers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for handle in handles {
            // Workers never panic (job panics are latched into the slot).
            let _ = handle.join();
        }
    }
}

impl<T> Drop for Scheduler<T> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop<T: Send + 'static>(shared: Arc<Shared<T>>) {
    loop {
        let job = {
            let mut state = shared.lock_state();
            loop {
                if let Some(job) = state.heap.pop() {
                    state.queued -= 1;
                    break job;
                }
                // Exit only when no job can ever arrive again: shutdown
                // signalled, heap empty, and no reservation still being
                // built (its enqueue would notify us).
                if state.shutting_down && state.reservations == 0 {
                    return;
                }
                state = shared
                    .work_ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // Latch panics into the slot: the joining caller re-raises them,
        // and this worker survives to serve the next tenant.
        match catch_unwind(AssertUnwindSafe(job.work)) {
            Ok(value) => job.slot.fill(SlotState::Done(value)),
            Err(payload) => job.slot.fill(SlotState::Panicked(payload)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    fn submit<T: Send + 'static>(
        scheduler: &Scheduler<T>,
        priority: Priority,
        work: impl FnOnce() -> T + Send + 'static,
    ) -> Result<Arc<JobSlot<T>>, AdmitError> {
        let ticket = scheduler.reserve()?;
        let slot = JobSlot::new();
        scheduler.enqueue(ticket, priority, slot.clone(), Box::new(work));
        Ok(slot)
    }

    /// A job that blocks until released, used to pin workers down so
    /// queue contents are deterministic.
    fn gate() -> (mpsc::Sender<()>, impl FnOnce() -> usize + Send) {
        let (tx, rx) = mpsc::channel();
        (tx, move || {
            rx.recv().ok();
            0
        })
    }

    #[test]
    fn jobs_run_and_results_come_back() {
        let scheduler: Scheduler<usize> = Scheduler::new(2, 8, "test");
        assert_eq!(scheduler.worker_count(), 2);
        assert_eq!(scheduler.capacity(), 8);
        let slots: Vec<_> = (0..6)
            .map(|i| submit(&scheduler, Priority::Normal, move || i * i).unwrap())
            .collect();
        for (i, slot) in slots.iter().enumerate() {
            assert_eq!(slot.take_blocking(), i * i);
        }
        assert_eq!(scheduler.queue_depth(), 0);
    }

    #[test]
    fn dropped_ticket_returns_its_slot() {
        // A job that fails to build drops its ticket unused: the slot
        // comes back, and shutdown does not wait for it forever.
        let scheduler: Scheduler<usize> = Scheduler::new(1, 1, "test");
        let ticket = scheduler.reserve().unwrap();
        assert_eq!(scheduler.queue_depth(), 1);
        drop(ticket);
        assert_eq!(scheduler.queue_depth(), 0);
        let slot = submit(&scheduler, Priority::Normal, || 7).unwrap();
        assert_eq!(slot.take_blocking(), 7);
        scheduler.shutdown();
    }

    #[test]
    fn queue_full_rejects_with_depth_and_shutdown_rejects_afterwards() {
        let scheduler: Scheduler<usize> = Scheduler::new(1, 2, "test");
        // Pin the single worker so the queue fills deterministically.
        let (release, blocker) = gate();
        let pinned = submit(&scheduler, Priority::Normal, blocker).unwrap();
        while scheduler.queue_depth() > 0 {
            thread::yield_now();
        }
        let queued_a = submit(&scheduler, Priority::Normal, || 1).unwrap();
        let queued_b = submit(&scheduler, Priority::Normal, || 2).unwrap();
        assert_eq!(scheduler.queue_depth(), 2);
        match submit(&scheduler, Priority::High, || 3) {
            Err(AdmitError::QueueFull { depth }) => assert_eq!(depth, 2),
            Err(other) => panic!("expected QueueFull, got {other:?}"),
            Ok(_) => panic!("expected QueueFull, got an admitted job"),
        }
        release.send(()).unwrap();
        assert_eq!(pinned.take_blocking(), 0);
        assert_eq!(queued_a.take_blocking(), 1);
        assert_eq!(queued_b.take_blocking(), 2);
        scheduler.shutdown();
        assert!(matches!(
            submit(&scheduler, Priority::Normal, || 4),
            Err(AdmitError::ShuttingDown)
        ));
    }

    #[test]
    fn higher_priority_dequeues_first_fifo_within_class() {
        let scheduler: Scheduler<usize> = Scheduler::new(1, 16, "test");
        let (release, blocker) = gate();
        let pinned = submit(&scheduler, Priority::Normal, blocker).unwrap();
        while scheduler.queue_depth() > 0 {
            thread::yield_now();
        }
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut slots = Vec::new();
        let classes = [
            (Priority::Low, "low-0"),
            (Priority::Normal, "normal-0"),
            (Priority::High, "high-0"),
            (Priority::Normal, "normal-1"),
            (Priority::High, "high-1"),
        ];
        for (priority, tag) in classes {
            let order = order.clone();
            slots.push(
                submit(&scheduler, priority, move || {
                    order.lock().unwrap().push(tag);
                    0
                })
                .unwrap(),
            );
        }
        release.send(()).unwrap();
        pinned.take_blocking();
        for slot in slots {
            slot.take_blocking();
        }
        assert_eq!(
            *order.lock().unwrap(),
            vec!["high-0", "high-1", "normal-0", "normal-1", "low-0"]
        );
    }

    #[test]
    fn shutdown_drains_queued_jobs_before_returning() {
        let scheduler: Scheduler<usize> = Scheduler::new(1, 16, "test");
        let ran = Arc::new(AtomicUsize::new(0));
        let slots: Vec<_> = (0..5)
            .map(|_| {
                let ran = ran.clone();
                submit(&scheduler, Priority::Normal, move || {
                    ran.fetch_add(1, Ordering::SeqCst)
                })
                .unwrap()
            })
            .collect();
        scheduler.shutdown();
        assert_eq!(ran.load(Ordering::SeqCst), 5);
        for slot in slots {
            assert!(slot.is_finished());
            slot.take_blocking();
        }
    }

    #[test]
    fn panicking_job_is_latched_and_the_worker_survives() {
        let scheduler: Scheduler<usize> = Scheduler::new(1, 8, "test");
        let bad = submit(&scheduler, Priority::Normal, || panic!("tenant bug")).unwrap();
        let good = submit(&scheduler, Priority::Normal, || 7).unwrap();
        // The worker survives the panic and serves the next job…
        assert_eq!(good.take_blocking(), 7);
        // …and the panic re-raises at join time.
        let caught = catch_unwind(AssertUnwindSafe(|| bad.take_blocking()));
        let payload = caught.unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"tenant bug"));
    }

    #[test]
    fn try_take_and_take_timeout() {
        let scheduler: Scheduler<usize> = Scheduler::new(1, 8, "test");
        let (release, blocker) = gate();
        let pinned = submit(&scheduler, Priority::Normal, blocker).unwrap();
        assert!(!pinned.is_finished());
        assert_eq!(pinned.try_take(), None);
        assert_eq!(pinned.take_timeout(Duration::from_millis(5)), None);
        release.send(()).unwrap();
        assert_eq!(pinned.take_blocking(), 0);

        let done = submit(&scheduler, Priority::Normal, || 3).unwrap();
        while !done.is_finished() {
            thread::yield_now();
        }
        assert_eq!(done.try_take(), Some(3));
        let timed = submit(&scheduler, Priority::Normal, || 4).unwrap();
        assert_eq!(timed.take_timeout(Duration::from_secs(5)), Some(4));
    }

    #[test]
    fn deadline_and_priority_values_behave() {
        assert!(Priority::Low < Priority::Normal);
        assert!(Priority::Normal < Priority::High);
        assert_eq!(Priority::default(), Priority::Normal);
        assert_eq!(Priority::High.to_string(), "high");
        let passed = Deadline::at(Instant::now() - Duration::from_millis(1));
        assert!(passed.has_passed());
        let future = Deadline::within(Duration::from_secs(3600));
        assert!(!future.has_passed());
        assert!(future.instant() > Instant::now());
    }

    #[test]
    fn workers_and_capacity_are_clamped() {
        let scheduler: Scheduler<usize> = Scheduler::new(0, 0, "test");
        assert_eq!(scheduler.worker_count(), 1);
        assert_eq!(scheduler.capacity(), 1);
        let slot = submit(&scheduler, Priority::Normal, || 9).unwrap();
        assert_eq!(slot.take_blocking(), 9);
    }
}
