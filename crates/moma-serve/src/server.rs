//! The server: bounded submission queue, coalescing dispatcher, supervised
//! worker pool.
//!
//! Life of a request: a [`Client`] validates it cheaply, stamps it with a
//! sequence number and an optional deadline, and **try-sends** it down one
//! bounded `mpsc` channel — a full queue fails fast with
//! [`ServeError::Overloaded`] instead of queueing unboundedly (admission
//! control). The dispatcher thread collects in-flight requests — up to
//! [`ServeConfig::max_batch`], waiting at most [`ServeConfig::batch_window`]
//! once it holds fewer than [`ServeConfig::min_batch`] — drops any whose
//! deadline already passed (resolving them with
//! [`ServeError::DeadlineExceeded`]), then groups the rest by compatible work
//! (same `(q, n)` NTT direction, same tenant chain) and hands each group to
//! the worker pool over a second bounded channel, so backpressure from busy
//! workers propagates to admission. A worker re-checks every deadline once
//! more before executing — a slow batch never wastes launches on requests
//! nobody is waiting for — then flattens the group into one batch, executes it
//! through the shared session's stage-batched launchers, splits the result,
//! and resolves every [`Ticket`] with its slice plus the group's batch
//! statistics.
//!
//! Failure containment is layered: a panicking batch (say, a modulus the NTT
//! planner rejects) fails only its own group — the worker catches the unwind
//! and resolves those tickets with [`ServeError::Internal`], preserving the
//! batch kind and size. A worker thread that *dies* (its panic escaping the
//! per-batch guard) is respawned by the supervisor thread, which counts a
//! `restart` in [`ServerStats`]; the pool never silently shrinks.
//! [`Server::drain`] gives graceful shutdown: new submissions are rejected
//! while in-flight work completes. Every one of these paths is reproducible
//! via the seeded fault plan in [`ServeConfig::fault_plan`].

use crate::fault::{Fault, FaultPlan};
use moma::bignum::BigUint;
use moma::gpu::pool::PoolStats;
use moma::Session;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, TryRecvError, TrySendError};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Handle to a registered RNS basis pair (see [`Server::register_tenant`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId(usize);

/// Handle to a registered negacyclic ring ladder (see
/// [`Server::register_ring_tenant`]). Distinct from [`TenantId`] so a ladder
/// request can never name an RNS basis pair, or vice versa.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RingTenantId(usize);

/// Server sizing, batching, robustness, and fault-injection knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing batches (≥ 1).
    pub workers: usize,
    /// Hard cap on requests coalesced into one collection round (≥ 1). `1`
    /// disables coalescing entirely — the one-request-at-a-time baseline.
    pub max_batch: usize,
    /// Once this many requests are in hand, stop waiting for more (≥ 1). The
    /// dispatcher only waits out the batching window while it holds fewer.
    pub min_batch: usize,
    /// How long the dispatcher is willing to hold the first request of a round
    /// while waiting for companions.
    pub batch_window: Duration,
    /// Bound on the submission queue (≥ 1). When the queue is full,
    /// [`Client::submit`] fails fast with [`ServeError::Overloaded`] instead
    /// of queueing — the load-shedding knob that keeps accepted-request
    /// latency flat under overload.
    pub queue_depth: usize,
    /// Deterministic fault injection, keyed by request sequence number. Empty
    /// (the default) injects nothing; see [`FaultPlan`].
    pub fault_plan: FaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            max_batch: 64,
            min_batch: 1,
            batch_window: Duration::from_millis(1),
            queue_depth: 1024,
            fault_plan: FaultPlan::new(),
        }
    }
}

/// One unit of client work.
#[derive(Debug, Clone)]
pub enum WorkItem {
    /// Forward NTT of one `n`-point transform over the prime `q`.
    NttForward {
        /// NTT-friendly prime modulus.
        q: u64,
        /// Transform size (power of two).
        n: usize,
        /// Exactly `n` coefficients, each below `q`.
        data: Vec<u64>,
    },
    /// Inverse NTT (with `1/n` scaling) of one `n`-point transform over `q`.
    NttInverse {
        /// NTT-friendly prime modulus.
        q: u64,
        /// Transform size (power of two).
        n: usize,
        /// Exactly `n` coefficients, each below `q`.
        data: Vec<u64>,
    },
    /// The fused RNS chain `(a · b) → rescale → extend` over a tenant's basis
    /// pair: element-wise multiply in the source basis, rescale, and extend
    /// into the destination basis, in one launch of the generated chain kernel
    /// ([`moma::RnsVec::mul_rescale_then_extend`]).
    RnsMulRescaleExtend {
        /// The basis pair, from [`Server::register_tenant`].
        tenant: TenantId,
        /// Left operand, every value below the tenant's source-basis product.
        a: Vec<BigUint>,
        /// Right operand, same length as `a`.
        b: Vec<BigUint>,
    },
    /// One FHE-style ladder level over a ring tenant's negacyclic ring:
    /// raise both operands, pointwise multiply, lower, and rescale onto the
    /// next level's basis. Traffic for the same `(tenant, level)` coalesces
    /// into one batch, sharing every plan lookup and pool round-trip.
    LadderStep {
        /// The ring ladder, from [`Server::register_ring_tenant`].
        tenant: RingTenantId,
        /// The ladder level both operands live at (`< steps`).
        level: usize,
        /// Left operand: exactly `n` coefficients, each below the level's
        /// basis product.
        a: Vec<BigUint>,
        /// Right operand, same shape as `a`.
        b: Vec<BigUint>,
    },
}

impl WorkItem {
    /// A stable, human-readable name for the kind of batch this item rides in
    /// — the context [`ServeError::Internal`] preserves when a batch fails.
    fn kind_name(&self) -> &'static str {
        match self {
            WorkItem::NttForward { .. } => "ntt_forward",
            WorkItem::NttInverse { .. } => "ntt_inverse",
            WorkItem::RnsMulRescaleExtend { .. } => "rns_mul_rescale_extend",
            WorkItem::LadderStep { .. } => "ladder_step",
        }
    }
}

/// A finished request's payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Transformed coefficients (NTT work).
    Ntt(Vec<u64>),
    /// Chain results in positional form (RNS work).
    Rns(Vec<BigUint>),
    /// The rescaled polynomial's `n` coefficients at the next ladder level
    /// (ladder work).
    Ladder(Vec<BigUint>),
}

/// A finished request: the payload plus the batch it was executed in.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The result payload.
    pub response: Response,
    /// How many requests shared this request's executed batch (≥ 1).
    pub batch_size: usize,
    /// Simulated kernel launches the whole batch cost; a request's fair share
    /// is `batch_launches / batch_size`.
    pub batch_launches: u64,
}

/// Why a request failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The tenant id was never registered on this server.
    UnknownTenant(usize),
    /// The request failed submit-time validation.
    BadRequest(String),
    /// The server shut down (or is draining, or the reply path was lost to a
    /// dying worker) before the request resolved.
    Shutdown,
    /// The submission queue was full: the request was shed at admission
    /// without queueing. Retryable — see
    /// [`Client::call_with_retry`](crate::Client::call_with_retry).
    Overloaded,
    /// The request's deadline passed before its batch executed; it was
    /// dropped without wasting launches on it.
    DeadlineExceeded,
    /// The batch execution failed (a panic, or an injected spurious failure),
    /// with the batch context preserved.
    Internal {
        /// Which kind of batch failed: `ntt_forward`, `ntt_inverse`,
        /// `rns_mul_rescale_extend` or `ladder_step`.
        kind: &'static str,
        /// How many requests the failed batch carried.
        batch_size: usize,
        /// The panic payload or failure description.
        message: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownTenant(id) => write!(f, "unknown tenant id {id}"),
            ServeError::BadRequest(why) => write!(f, "bad request: {why}"),
            ServeError::Shutdown => write!(f, "server shut down before the request resolved"),
            ServeError::Overloaded => {
                write!(f, "server overloaded: submission queue full, request shed")
            }
            ServeError::DeadlineExceeded => {
                write!(f, "deadline exceeded before the request's batch executed")
            }
            ServeError::Internal {
                kind,
                batch_size,
                message,
            } => write!(
                f,
                "batch execution failed ({kind} batch of {batch_size}): {message}"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

/// Monotonic service counters (a snapshot; see [`Server::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Requests accepted by [`Client::submit`].
    pub submitted: u64,
    /// Requests resolved successfully.
    pub completed: u64,
    /// Requests resolved with [`ServeError::Internal`].
    pub failed: u64,
    /// Requests shed at admission with [`ServeError::Overloaded`] (never
    /// queued; not counted in `submitted`).
    pub shed: u64,
    /// Accepted requests dropped with [`ServeError::DeadlineExceeded`] by the
    /// dispatcher or a worker's pre-execution re-check.
    pub expired: u64,
    /// Worker threads the supervisor respawned after a death.
    pub restarts: u64,
    /// Batches executed.
    pub batches: u64,
    /// Requests that shared their batch with at least one other request.
    pub coalesced_requests: u64,
    /// Total simulated kernel launches across all batches.
    pub launches: u64,
    /// Size of the largest batch executed so far.
    pub largest_batch: u64,
    /// Plane-sized heap buffers allocated while executing batches. On a warm
    /// server every plane comes from the session's buffer pool and this stays
    /// flat — steady state is allocation-free.
    pub plane_allocs: u64,
    /// Snapshot of the session's buffer-pool counters (see
    /// [`moma::gpu::pool::BufferPool`]).
    pub pool: PoolStats,
    /// Accepted requests not yet resolved (a gauge, not a counter).
    pub outstanding: u64,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
    expired: AtomicU64,
    restarts: AtomicU64,
    batches: AtomicU64,
    coalesced_requests: AtomicU64,
    launches: AtomicU64,
    largest_batch: AtomicU64,
    plane_allocs: AtomicU64,
    outstanding: AtomicU64,
}

/// One registered basis pair: owned session handles, reused by every chain
/// request the tenant ever submits.
struct Tenant {
    src: moma::RnsSpace,
    dst: moma::RnsSpace,
}

struct Shared {
    session: Session,
    config: ServeConfig,
    shutdown: AtomicBool,
    draining: AtomicBool,
    seq: AtomicU64,
    tenants: RwLock<Vec<Tenant>>,
    ring_tenants: RwLock<Vec<moma::RingSpace>>,
    counters: Counters,
}

type Reply = mpsc::SyncSender<Result<Completion, ServeError>>;

/// Releases one `outstanding` slot when dropped — however the envelope dies:
/// resolved with a reply, shed before entering the queue, dropped with a
/// disconnecting channel at shutdown, or unwound with a dying worker's stack.
struct OutstandingGuard {
    shared: Arc<Shared>,
}

impl OutstandingGuard {
    fn new(shared: Arc<Shared>) -> Self {
        shared.counters.outstanding.fetch_add(1, Ordering::SeqCst);
        OutstandingGuard { shared }
    }
}

impl Drop for OutstandingGuard {
    fn drop(&mut self) {
        self.shared
            .counters
            .outstanding
            .fetch_sub(1, Ordering::SeqCst);
    }
}

struct Envelope {
    /// Admission-order sequence number (the fault plan's key).
    seq: u64,
    item: WorkItem,
    deadline: Option<Instant>,
    reply: Reply,
    guard: OutstandingGuard,
}

impl Envelope {
    fn expired_at(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|deadline| deadline <= now)
    }

    /// Releases the outstanding slot, then sends the final result — in that
    /// order, so "the ticket resolved" implies "no longer outstanding" (the
    /// invariant [`Server::drain`] polls and tests assert after waiting).
    fn resolve(self, result: Result<Completion, ServeError>) {
        let Envelope { reply, guard, .. } = self;
        drop(guard);
        let _ = reply.send(result);
    }
}

/// What the dispatcher coalesces on: requests with equal keys flatten into one
/// executed batch.
#[derive(PartialEq, Eq, Hash)]
enum BatchKey {
    NttForward { q: u64, n: usize },
    NttInverse { q: u64, n: usize },
    Rns { tenant: usize },
    Ladder { tenant: usize, level: usize },
}

impl BatchKey {
    fn of(item: &WorkItem) -> Self {
        match item {
            WorkItem::NttForward { q, n, .. } => BatchKey::NttForward { q: *q, n: *n },
            WorkItem::NttInverse { q, n, .. } => BatchKey::NttInverse { q: *q, n: *n },
            WorkItem::RnsMulRescaleExtend { tenant, .. } => BatchKey::Rns { tenant: tenant.0 },
            WorkItem::LadderStep { tenant, level, .. } => BatchKey::Ladder {
                tenant: tenant.0,
                level: *level,
            },
        }
    }
}

type WorkQueue = Arc<Mutex<mpsc::Receiver<Vec<Envelope>>>>;

/// A batching server over one shared session (see the [crate docs](crate)).
///
/// Dropping the server shuts it down: the dispatcher, supervisor, and workers
/// are joined, in-flight batches finish, and any request still unresolved —
/// queued, or submitted through a still-alive [`Client`] — resolves to
/// [`ServeError::Shutdown`]. For a shutdown that *waits* for in-flight work
/// first, call [`Server::drain`] before dropping.
pub struct Server {
    shared: Arc<Shared>,
    submit_tx: Option<mpsc::SyncSender<Envelope>>,
    dispatcher: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts a server over `session` (sharing its caches with every other
    /// clone of that session) with the given sizing.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers`, `config.max_batch`, `config.min_batch`, or
    /// `config.queue_depth` is zero.
    pub fn new(session: Session, config: ServeConfig) -> Self {
        assert!(config.workers >= 1, "at least one worker");
        assert!(config.max_batch >= 1, "max_batch must be at least 1");
        assert!(config.min_batch >= 1, "min_batch must be at least 1");
        assert!(config.queue_depth >= 1, "queue_depth must be at least 1");
        let shared = Arc::new(Shared {
            session,
            config,
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            tenants: RwLock::new(Vec::new()),
            ring_tenants: RwLock::new(Vec::new()),
            counters: Counters::default(),
        });
        // Both channels are bounded: a full submission queue sheds at
        // admission, and the narrow work channel makes busy workers push back
        // on the dispatcher instead of letting batches pile up invisibly.
        let (submit_tx, submit_rx) = mpsc::sync_channel::<Envelope>(shared.config.queue_depth);
        let (work_tx, work_rx) = mpsc::sync_channel::<Vec<Envelope>>(shared.config.workers);
        let work_rx: WorkQueue = Arc::new(Mutex::new(work_rx));
        let workers: Vec<JoinHandle<()>> = (0..shared.config.workers)
            .map(|_| spawn_worker(&shared, &work_rx))
            .collect();
        let dispatcher = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || dispatch_loop(&shared, &submit_rx, &work_tx))
        };
        let supervisor = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || supervisor_loop(&shared, &work_rx, workers))
        };
        Server {
            shared,
            submit_tx: Some(submit_tx),
            dispatcher: Some(dispatcher),
            supervisor: Some(supervisor),
        }
    }

    /// The shared session behind this server (same caches as every clone).
    pub fn session(&self) -> &Session {
        &self.shared.session
    }

    /// Registers an RNS basis pair and returns its id. The source and
    /// destination spaces — and every plan and kernel their chain needs — are
    /// session-cached handles, built at most once and reused by every
    /// [`WorkItem::RnsMulRescaleExtend`] for this tenant.
    ///
    /// # Panics
    ///
    /// Panics under the [`Session::rns`] conditions (composite, duplicate, or
    /// oversized moduli), or if `src_moduli` has fewer than two moduli (the
    /// chain rescales, which drops one).
    pub fn register_tenant(&self, src_moduli: &[u64], dst_moduli: &[u64]) -> TenantId {
        assert!(
            src_moduli.len() >= 2,
            "the chain rescales: the source basis needs at least two moduli"
        );
        let tenant = Tenant {
            src: self.shared.session.rns(src_moduli),
            dst: self.shared.session.rns(dst_moduli),
        };
        let mut tenants = self
            .shared
            .tenants
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        tenants.push(tenant);
        TenantId(tenants.len() - 1)
    }

    /// Registers a negacyclic ring ladder — `R_q = Z_q[X]/(X^n + 1)` over the
    /// RNS ladder `moduli` — and returns its id. The ring context and every
    /// plan a [`WorkItem::LadderStep`] needs (negacyclic NTT plans per
    /// modulus, level bases, rescale steps) are session-cached, built
    /// at most once, and shared by every request for this tenant.
    ///
    /// # Panics
    ///
    /// Panics under the [`Session::ring`] conditions (`n` not a power of two,
    /// a modulus not an NTT-friendly prime for `2n`, …), or if `moduli` has
    /// fewer than two entries (a ladder with no step to serve).
    pub fn register_ring_tenant(&self, n: usize, moduli: &[u64]) -> RingTenantId {
        assert!(
            moduli.len() >= 2,
            "a ladder needs at least two moduli (one rescale step)"
        );
        let space = self.shared.session.ring(n, moduli);
        let mut tenants = self
            .shared
            .ring_tenants
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        tenants.push(space);
        RingTenantId(tenants.len() - 1)
    }

    /// A new submission handle. Clients are cheap to clone, `Send`, and may
    /// outlive the server (submissions after shutdown resolve to
    /// [`ServeError::Shutdown`]).
    pub fn client(&self) -> Client {
        Client {
            shared: Arc::clone(&self.shared),
            tx: self
                .submit_tx
                .clone()
                .expect("submit channel lives as long as the server"),
        }
    }

    /// Graceful shutdown, phase one: stop admitting new requests (submissions
    /// now fail with [`ServeError::Shutdown`]) and wait up to `timeout` for
    /// every accepted request to resolve. Returns `true` once nothing is
    /// outstanding, `false` if the timeout expired first (check
    /// [`ServerStats::outstanding`] for what is left). Either way the worker
    /// pool keeps running until the server is dropped.
    pub fn drain(&self, timeout: Duration) -> bool {
        self.shared.draining.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + timeout;
        loop {
            if self.shared.counters.outstanding.load(Ordering::SeqCst) == 0 {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// Snapshot of the service counters.
    pub fn stats(&self) -> ServerStats {
        let c = &self.shared.counters;
        ServerStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            expired: c.expired.load(Ordering::Relaxed),
            restarts: c.restarts.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            coalesced_requests: c.coalesced_requests.load(Ordering::Relaxed),
            launches: c.launches.load(Ordering::Relaxed),
            largest_batch: c.largest_batch.load(Ordering::Relaxed),
            plane_allocs: c.plane_allocs.load(Ordering::Relaxed),
            pool: self.shared.session.pool().stats(),
            outstanding: c.outstanding.load(Ordering::SeqCst),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        drop(self.submit_tx.take());
        if let Some(dispatcher) = self.dispatcher.take() {
            let _ = dispatcher.join();
        }
        // The supervisor joins the workers: once the dispatcher is gone its
        // work sender is dropped, so workers drain the remaining batches and
        // exit on the disconnect.
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
    }
}

/// A cloneable submission handle to a [`Server`].
#[derive(Clone)]
pub struct Client {
    shared: Arc<Shared>,
    tx: mpsc::SyncSender<Envelope>,
}

impl Client {
    /// Validates `item` and enqueues it without a deadline, returning a
    /// [`Ticket`] that resolves when a worker has executed the request's
    /// batch.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] / [`ServeError::UnknownTenant`] on
    /// validation failure, [`ServeError::Overloaded`] if the bounded
    /// submission queue is full (the request is shed, never queued),
    /// [`ServeError::Shutdown`] if the server is gone or draining.
    pub fn submit(&self, item: WorkItem) -> Result<Ticket, ServeError> {
        self.submit_inner(item, None)
    }

    /// Like [`Client::submit`], but the request carries a deadline `budget`
    /// from now: if its batch has not started executing when the budget is
    /// spent, the dispatcher or worker drops it with
    /// [`ServeError::DeadlineExceeded`] instead of wasting launches on it.
    ///
    /// # Errors
    ///
    /// The [`Client::submit`] errors.
    pub fn submit_with_deadline(
        &self,
        item: WorkItem,
        budget: Duration,
    ) -> Result<Ticket, ServeError> {
        self.submit_inner(item, Some(Instant::now() + budget))
    }

    /// Submits `item` and blocks until it resolves.
    ///
    /// # Errors
    ///
    /// The [`Client::submit`] errors, plus [`ServeError::Internal`] if the
    /// batch execution failed.
    pub fn call(&self, item: WorkItem) -> Result<Completion, ServeError> {
        self.submit(item)?.wait()
    }

    /// Submits `item` with a deadline `budget` and blocks until it resolves.
    ///
    /// # Errors
    ///
    /// The [`Client::call`] errors, plus [`ServeError::DeadlineExceeded`] if
    /// the budget ran out before the batch executed.
    pub fn call_with_deadline(
        &self,
        item: WorkItem,
        budget: Duration,
    ) -> Result<Completion, ServeError> {
        self.submit_with_deadline(item, budget)?.wait()
    }

    fn submit_inner(
        &self,
        item: WorkItem,
        deadline: Option<Instant>,
    ) -> Result<Ticket, ServeError> {
        self.validate(&item)?;
        if self.shared.shutdown.load(Ordering::SeqCst)
            || self.shared.draining.load(Ordering::SeqCst)
        {
            return Err(ServeError::Shutdown);
        }
        let (reply, rx) = mpsc::sync_channel(1);
        let envelope = Envelope {
            seq: self.shared.seq.fetch_add(1, Ordering::Relaxed),
            item,
            deadline,
            reply,
            guard: OutstandingGuard::new(Arc::clone(&self.shared)),
        };
        match self.tx.try_send(envelope) {
            Ok(()) => {
                self.shared
                    .counters
                    .submitted
                    .fetch_add(1, Ordering::Relaxed);
                Ok(Ticket { rx })
            }
            // Admission control: a full queue fails fast. The unsent envelope
            // drops here, releasing its outstanding slot.
            Err(TrySendError::Full(_)) => {
                self.shared.counters.shed.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Overloaded)
            }
            Err(TrySendError::Disconnected(_)) => Err(ServeError::Shutdown),
        }
    }

    fn validate(&self, item: &WorkItem) -> Result<(), ServeError> {
        match item {
            WorkItem::NttForward { q, n, data } | WorkItem::NttInverse { q, n, data } => {
                if *n < 2 || !n.is_power_of_two() {
                    return Err(ServeError::BadRequest(format!(
                        "transform size {n} is not a power of two ≥ 2"
                    )));
                }
                // The planner asserts these; a request must not reach the
                // worker to find out. (Primality costs too much to test here.)
                let in_range = *n <= 1 << 32 && (3..1 << 60).contains(q);
                if !in_range || q % 2 == 0 || (q - 1) % *n as u64 != 0 {
                    return Err(ServeError::BadRequest(format!(
                        "q = {q} is not an odd modulus in [3, 2^60) with {n} dividing q - 1"
                    )));
                }
                if data.len() != *n {
                    return Err(ServeError::BadRequest(format!(
                        "{} coefficients for an {n}-point transform",
                        data.len()
                    )));
                }
                if data.iter().any(|&x| x >= *q) {
                    return Err(ServeError::BadRequest(format!(
                        "coefficient not reduced below q = {q}"
                    )));
                }
                Ok(())
            }
            WorkItem::RnsMulRescaleExtend { tenant, a, b } => {
                let tenants = self
                    .shared
                    .tenants
                    .read()
                    .unwrap_or_else(PoisonError::into_inner);
                let t = tenants
                    .get(tenant.0)
                    .ok_or(ServeError::UnknownTenant(tenant.0))?;
                if a.is_empty() || a.len() != b.len() {
                    return Err(ServeError::BadRequest(format!(
                        "operand lengths {} and {} (need equal, non-empty)",
                        a.len(),
                        b.len()
                    )));
                }
                let product = t.src.product();
                if a.iter().chain(b.iter()).any(|v| v >= product) {
                    return Err(ServeError::BadRequest(
                        "operand not below the source-basis product".to_string(),
                    ));
                }
                Ok(())
            }
            WorkItem::LadderStep {
                tenant,
                level,
                a,
                b,
            } => {
                let tenants = self
                    .shared
                    .ring_tenants
                    .read()
                    .unwrap_or_else(PoisonError::into_inner);
                let space = tenants
                    .get(tenant.0)
                    .ok_or(ServeError::UnknownTenant(tenant.0))?;
                if *level >= space.steps() {
                    return Err(ServeError::BadRequest(format!(
                        "level {level} has no next level on a {}-step ladder",
                        space.steps()
                    )));
                }
                let n = space.n();
                if a.len() != n || b.len() != n {
                    return Err(ServeError::BadRequest(format!(
                        "operand lengths {} and {} for a degree-{n} ring",
                        a.len(),
                        b.len()
                    )));
                }
                let product = space.product(*level);
                if a.iter().chain(b.iter()).any(|v| v >= product) {
                    return Err(ServeError::BadRequest(
                        "coefficient not below the level's basis product".to_string(),
                    ));
                }
                Ok(())
            }
        }
    }
}

/// The pending side of one submitted request.
pub struct Ticket {
    rx: mpsc::Receiver<Result<Completion, ServeError>>,
}

impl Ticket {
    /// Blocks until the request resolves.
    ///
    /// # Errors
    ///
    /// Whatever the batch resolved this request to; [`ServeError::Shutdown`]
    /// if the server went away — or the reply path was lost to a dying worker
    /// — first.
    pub fn wait(self) -> Result<Completion, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Shutdown))
    }

    /// Waits at most `timeout` for the request to resolve. `None` means the
    /// request is still pending (the ticket stays usable); `Some` carries the
    /// resolution, with a lost reply path mapped to [`ServeError::Shutdown`]
    /// exactly like [`Ticket::wait`].
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Completion, ServeError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => Some(Err(ServeError::Shutdown)),
        }
    }
}

/// How long the dispatcher sleeps per idle poll while watching for shutdown.
const IDLE_POLL: Duration = Duration::from_millis(10);

/// How often the supervisor scans the pool for dead workers.
const SUPERVISOR_POLL: Duration = Duration::from_millis(2);

fn dispatch_loop(
    shared: &Shared,
    submit_rx: &mpsc::Receiver<Envelope>,
    work_tx: &mpsc::SyncSender<Vec<Envelope>>,
) {
    let config = &shared.config;
    loop {
        // Block (in shutdown-aware slices) for the round's first request.
        let first = loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            match submit_rx.recv_timeout(IDLE_POLL) {
                Ok(envelope) => break envelope,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return,
            }
        };
        // Coalesce: drain what is already queued; while below min_batch, wait
        // out the batching window for companions.
        let mut pending = vec![first];
        let deadline = Instant::now() + config.batch_window;
        while pending.len() < config.max_batch {
            match submit_rx.try_recv() {
                Ok(envelope) => pending.push(envelope),
                Err(TryRecvError::Disconnected) => break,
                Err(TryRecvError::Empty) => {
                    if pending.len() >= config.min_batch {
                        break;
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    match submit_rx.recv_timeout(deadline - now) {
                        Ok(envelope) => pending.push(envelope),
                        Err(_) => break,
                    }
                }
            }
        }
        // Drop requests that are already dead: batching them would spend
        // worker time on answers nobody is waiting for.
        let now = Instant::now();
        let mut live = Vec::with_capacity(pending.len());
        for envelope in pending {
            if envelope.expired_at(now) {
                shared.counters.expired.fetch_add(1, Ordering::Relaxed);
                envelope.resolve(Err(ServeError::DeadlineExceeded));
            } else {
                live.push(envelope);
            }
        }
        // Group by compatible work; each group is one executed batch. The
        // bounded work channel blocks when every worker is busy — that
        // backpressure is what lets the submission queue fill and shed.
        let mut groups: HashMap<BatchKey, Vec<Envelope>> = HashMap::new();
        for envelope in live {
            groups
                .entry(BatchKey::of(&envelope.item))
                .or_default()
                .push(envelope);
        }
        for (_, group) in groups {
            if work_tx.send(group).is_err() {
                return;
            }
        }
    }
}

fn spawn_worker(shared: &Arc<Shared>, work_rx: &WorkQueue) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    let work_rx = Arc::clone(work_rx);
    thread::spawn(move || worker_loop(&shared, &work_rx))
}

/// Watches the worker pool and respawns any thread that died (a panic that
/// escaped the per-batch guard — injected via [`Fault::Die`], or a real bug).
/// Without this, a dead worker silently shrinks the pool forever. On shutdown
/// it joins every worker and exits.
fn supervisor_loop(shared: &Arc<Shared>, work_rx: &WorkQueue, mut workers: Vec<JoinHandle<()>>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            for worker in workers {
                let _ = worker.join();
            }
            return;
        }
        for slot in workers.iter_mut() {
            if slot.is_finished() && !shared.shutdown.load(Ordering::SeqCst) {
                let dead = std::mem::replace(slot, spawn_worker(shared, work_rx));
                let _ = dead.join();
                shared.counters.restarts.fetch_add(1, Ordering::Relaxed);
            }
        }
        thread::sleep(SUPERVISOR_POLL);
    }
}

fn worker_loop(shared: &Shared, work_rx: &WorkQueue) {
    loop {
        // Hold the receiver lock only to take the next batch.
        let batch = {
            let rx = work_rx.lock().unwrap_or_else(PoisonError::into_inner);
            rx.recv()
        };
        let Ok(batch) = batch else { return };
        execute_batch(shared, batch);
    }
}

fn execute_batch(shared: &Shared, batch: Vec<Envelope>) {
    let counters = &shared.counters;
    let plan = &shared.config.fault_plan;

    // Injected worker death: the panic deliberately escapes the per-batch
    // unwind guard below, so it is the supervisor — not `catch_unwind` — that
    // keeps the pool at strength. The batch's envelopes drop with the stack:
    // replies are lost (tickets resolve to `Shutdown`) and the outstanding
    // guards release on unwind.
    if batch
        .iter()
        .any(|e| plan.fault_for(e.seq) == Some(Fault::Die))
    {
        panic!("injected fault: worker death");
    }

    // Injected slowness, applied *before* the deadline re-check: a delayed
    // batch must shed its expired members, not execute them.
    if let Some(delay) = batch
        .iter()
        .filter_map(|e| match plan.fault_for(e.seq) {
            Some(Fault::Delay(d)) => Some(d),
            _ => None,
        })
        .max()
    {
        thread::sleep(delay);
    }

    // Deadline re-check: the dispatcher screened at batching time, but the
    // batch may have waited behind slower work since. Never spend launches on
    // requests nobody is waiting for.
    let now = Instant::now();
    let (live, dead): (Vec<Envelope>, Vec<Envelope>) =
        batch.into_iter().partition(|e| !e.expired_at(now));
    if !dead.is_empty() {
        counters
            .expired
            .fetch_add(dead.len() as u64, Ordering::Relaxed);
        for envelope in dead {
            envelope.resolve(Err(ServeError::DeadlineExceeded));
        }
    }
    if live.is_empty() {
        return;
    }

    let batch_size = live.len();
    let kind = live[0].item.kind_name();
    counters.batches.fetch_add(1, Ordering::Relaxed);
    counters
        .largest_batch
        .fetch_max(batch_size as u64, Ordering::Relaxed);
    if batch_size > 1 {
        counters
            .coalesced_requests
            .fetch_add(batch_size as u64, Ordering::Relaxed);
    }

    // Injected spurious failure: the whole batch fails without executing —
    // the no-panic flavor of a broken batch.
    if live
        .iter()
        .any(|e| plan.fault_for(e.seq) == Some(Fault::Fail))
    {
        counters
            .failed
            .fetch_add(batch_size as u64, Ordering::Relaxed);
        for envelope in live {
            envelope.resolve(Err(ServeError::Internal {
                kind,
                batch_size,
                message: "injected fault: spurious batch failure".to_string(),
            }));
        }
        return;
    }

    let mut seqs = Vec::with_capacity(batch_size);
    let mut items = Vec::with_capacity(batch_size);
    let mut replies = Vec::with_capacity(batch_size);
    let mut guards = Vec::with_capacity(batch_size);
    for envelope in live {
        seqs.push(envelope.seq);
        items.push(envelope.item);
        replies.push(envelope.reply);
        guards.push(envelope.guard);
    }
    // A panicking batch fails only its own group; the shared state the closure
    // touches is the session's caches, which stay valid across an unwind
    // (stampede slots unclaim themselves, locks recover from poisoning).
    let executed = catch_unwind(AssertUnwindSafe(|| run_batch(shared, &seqs, &items)));
    // Per request: release the outstanding slot, *then* send the reply, so a
    // caller that saw its ticket resolve never observes the request as still
    // outstanding.
    match executed {
        Ok((responses, launches, allocs)) => {
            counters.launches.fetch_add(launches, Ordering::Relaxed);
            counters.plane_allocs.fetch_add(allocs, Ordering::Relaxed);
            counters
                .completed
                .fetch_add(batch_size as u64, Ordering::Relaxed);
            for ((reply, guard), response) in replies.into_iter().zip(guards).zip(responses) {
                drop(guard);
                let _ = reply.send(Ok(Completion {
                    response,
                    batch_size,
                    batch_launches: launches,
                }));
            }
        }
        Err(panic) => {
            counters
                .failed
                .fetch_add(batch_size as u64, Ordering::Relaxed);
            let why = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "batch panicked".to_string());
            for (reply, guard) in replies.into_iter().zip(guards) {
                drop(guard);
                let _ = reply.send(Err(ServeError::Internal {
                    kind,
                    batch_size,
                    message: why.clone(),
                }));
            }
        }
    }
}

/// Executes one homogeneous batch, returning per-request responses, the
/// batch's total launch count, and how many plane-sized heap buffers it had
/// to allocate (zero on a warm pool).
fn run_batch(shared: &Shared, seqs: &[u64], items: &[WorkItem]) -> (Vec<Response>, u64, u64) {
    // Every plane the batch touches — the flat NTT buffer, encoded RNS
    // operands, op outputs — comes from the session pool, so the pool-miss
    // delta across the batch *is* its heap plane-allocation count.
    let misses_before = shared.session.pool().misses();
    // Injected panic: thrown here, inside the per-batch unwind guard, so it
    // exercises the same containment path as a real planner/kernel panic.
    if let Some(seq) = seqs
        .iter()
        .find(|&&s| shared.config.fault_plan.fault_for(s) == Some(Fault::Panic))
    {
        panic!("injected fault: panic while executing request #{seq}");
    }
    match &items[0] {
        WorkItem::NttForward { q, n, .. } | WorkItem::NttInverse { q, n, .. } => {
            let forward = matches!(items[0], WorkItem::NttForward { .. });
            // One flat buffer — pooled, so a warm server never heap-allocates
            // it — and one stage-batched transform for the whole group:
            // log2(n) + 1 launches however many requests ride along.
            let pool = shared.session.pool();
            let mut flat = pool.acquire(items.len() * n);
            for (slot, item) in flat.chunks_exact_mut(*n).zip(items) {
                let (WorkItem::NttForward { data, .. } | WorkItem::NttInverse { data, .. }) = item
                else {
                    unreachable!("dispatcher groups by batch key");
                };
                slot.copy_from_slice(data);
            }
            let space = shared.session.ntt(*q, *n);
            let stats = if forward {
                space.forward_batch(&mut flat)
            } else {
                space.inverse_batch(&mut flat)
            };
            let responses = flat
                .chunks_exact(*n)
                .map(|chunk| Response::Ntt(chunk.to_vec()))
                .collect();
            pool.recycle(flat);
            let allocs = pool.misses() - misses_before;
            (responses, stats.launches as u64, allocs)
        }
        WorkItem::RnsMulRescaleExtend { tenant, .. } => {
            let (src, dst) = {
                let tenants = shared
                    .tenants
                    .read()
                    .unwrap_or_else(PoisonError::into_inner);
                let t = &tenants[tenant.0];
                (t.src.clone(), t.dst.clone())
            };
            // Concatenate every request's operands into one vector pair: the
            // whole group then costs one launch of the fused chain kernel.
            let mut lengths = Vec::with_capacity(items.len());
            let mut flat_a = Vec::new();
            let mut flat_b = Vec::new();
            for item in items {
                let WorkItem::RnsMulRescaleExtend { a, b, .. } = item else {
                    unreachable!("dispatcher groups by batch key");
                };
                lengths.push(a.len());
                flat_a.extend_from_slice(a);
                flat_b.extend_from_slice(b);
            }
            let va = src.encode(&flat_a);
            let vb = src.encode(&flat_b);
            let (out, stats) = va.mul_rescale_then_extend_with_stats(&vb, &dst);
            let mut values = out.to_biguints().into_iter();
            let responses = lengths
                .iter()
                .map(|&len| Response::Rns(values.by_ref().take(len).collect()))
                .collect();
            (
                responses,
                stats.launches as u64,
                shared.session.pool().misses() - misses_before,
            )
        }
        WorkItem::LadderStep { tenant, level, .. } => {
            let space = {
                let tenants = shared
                    .ring_tenants
                    .read()
                    .unwrap_or_else(PoisonError::into_inner);
                tenants[tenant.0].clone()
            };
            // Every request in the group shares the tenant's ring context, so
            // the whole batch pays the plan lookups once and cycles the same
            // pooled planes. Each reply is decoded, so a step is raise →
            // multiply → lower → coefficient rescale on the operands the
            // request already owns: `ladder_step`'s evaluation-domain rescale
            // would add a lowering of the result (4k − 1 row transforms
            // against 3k) and clone both operands to raise them.
            let mut launches = 0u64;
            let responses = items
                .iter()
                .map(|item| {
                    let WorkItem::LadderStep { a, b, .. } = item else {
                        unreachable!("dispatcher groups by batch key");
                    };
                    let mut va = space.encode(*level, a);
                    let mut vb = space.encode(*level, b);
                    let mut stats = space.forward_ntt(&mut va);
                    stats.accumulate(space.forward_ntt(&mut vb));
                    let (mut product, s) = space.mul(&va, &vb);
                    stats.accumulate(s);
                    drop((va, vb));
                    stats.accumulate(space.inverse_ntt(&mut product));
                    let (out, s) = space.rescale_to_next_level(&product);
                    stats.accumulate(s);
                    drop(product);
                    launches += stats.launches as u64;
                    Response::Ladder(space.decode(&out))
                })
                .collect();
            (
                responses,
                launches,
                shared.session.pool().misses() - misses_before,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moma::bignum::random::random_below;
    use moma::rns::RnsContext;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ntt_item(space: &moma::NttSpace, seed: u64) -> (WorkItem, Vec<u64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = BigUint::from(space.modulus());
        let data: Vec<u64> = (0..space.n())
            .map(|_| random_below(&mut rng, &q).to_u64().unwrap())
            .collect();
        (
            WorkItem::NttForward {
                q: space.modulus(),
                n: space.n(),
                data: data.clone(),
            },
            data,
        )
    }

    #[test]
    fn ntt_round_trip_matches_the_inline_path() {
        let server = Server::new(Session::default(), ServeConfig::default());
        let client = server.client();
        let space = server.session().ntt_default(64);
        let (item, data) = ntt_item(&space, 1);
        let done = client.call(item).unwrap();
        let Response::Ntt(transformed) = done.response else {
            panic!("NTT work yields NTT responses")
        };
        let mut expected = data.clone();
        space.forward(&mut expected);
        assert_eq!(transformed, expected);
        let back = client
            .call(WorkItem::NttInverse {
                q: space.modulus(),
                n: space.n(),
                data: transformed,
            })
            .unwrap();
        assert_eq!(back.response, Response::Ntt(data));
    }

    #[test]
    fn coalesced_batch_costs_one_stage_sweep() {
        // min_batch = 4 with a generous window: the dispatcher provably holds
        // the first request until all four are in hand, so the batch size and
        // launch count are deterministic.
        let server = Server::new(
            Session::default(),
            ServeConfig {
                workers: 1,
                max_batch: 8,
                min_batch: 4,
                batch_window: Duration::from_secs(5),
                ..ServeConfig::default()
            },
        );
        let client = server.client();
        let space = server.session().ntt_default(64);
        let tickets: Vec<Ticket> = (0..4)
            .map(|seed| client.submit(ntt_item(&space, seed).0).unwrap())
            .collect();
        for ticket in tickets {
            let done = ticket.wait().unwrap();
            assert_eq!(done.batch_size, 4);
            // log2(64) stages + the lazy-reduction normalize pass, shared by
            // the whole batch.
            assert_eq!(done.batch_launches, 7);
        }
        let stats = server.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.coalesced_requests, 4);
        assert_eq!(stats.largest_batch, 4);
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.outstanding, 0);
    }

    #[test]
    fn warm_server_serves_without_plane_allocations() {
        let session = Session::default();
        let server = Server::new(session.clone(), ServeConfig::default());
        let client = server.client();
        let space = session.ntt_default(64);
        let src_moduli = session.rns_with_capacity(128).moduli();
        let tenant = server.register_tenant(&src_moduli, &src_moduli[..4]);
        let mut rng = StdRng::seed_from_u64(42);
        let product = session.rns(&src_moduli).product().clone();
        let rns_item = |rng: &mut StdRng| WorkItem::RnsMulRescaleExtend {
            tenant,
            a: (0..3).map(|_| random_below(rng, &product)).collect(),
            b: (0..3).map(|_| random_below(rng, &product)).collect(),
        };

        // Warm-up: one request of each shape builds the plans and stocks the
        // pool with every plane size the steady state needs.
        client.call(ntt_item(&space, 0).0).unwrap();
        client.call(rns_item(&mut rng)).unwrap();
        let warm = server.stats();

        for seed in 1..=40u64 {
            if seed % 2 == 0 {
                client.call(ntt_item(&space, seed).0).unwrap();
            } else {
                client.call(rns_item(&mut rng)).unwrap();
            }
        }
        let after = server.stats();
        assert_eq!(after.completed, warm.completed + 40);
        assert_eq!(
            after.plane_allocs, warm.plane_allocs,
            "a warm server must serve out of the pool, not the heap"
        );
        assert_eq!(after.pool.misses, warm.pool.misses);
        assert!(after.pool.hits > warm.pool.hits, "the pool was exercised");
    }

    #[test]
    fn rns_chain_matches_the_oracle_through_the_server() {
        let session = Session::default();
        let server = Server::new(session.clone(), ServeConfig::default());
        let client = server.client();
        let src_space = session.rns_with_capacity(128);
        let src_moduli = src_space.moduli();
        let dst_moduli = &src_moduli[..4];
        let tenant = server.register_tenant(&src_moduli, dst_moduli);

        let mut rng = StdRng::seed_from_u64(7);
        let a: Vec<BigUint> = (0..5)
            .map(|_| random_below(&mut rng, src_space.product()))
            .collect();
        let b: Vec<BigUint> = (0..5)
            .map(|_| random_below(&mut rng, src_space.product()))
            .collect();
        let done = client
            .call(WorkItem::RnsMulRescaleExtend {
                tenant,
                a: a.clone(),
                b: b.clone(),
            })
            .unwrap();
        assert_eq!(done.batch_launches, 1, "the whole chain is one launch");
        let Response::Rns(values) = done.response else {
            panic!("RNS work yields RNS responses")
        };
        let ctx = RnsContext::with_moduli(&src_moduli);
        let dst_ctx = RnsContext::with_moduli(dst_moduli);
        let out_ctx = ctx.without_last();
        for (c, (x, y)) in a.iter().zip(&b).enumerate() {
            let prod = (x * y) % src_space.product();
            let oracle = dst_ctx.from_residues(
                &out_ctx.base_convert(&dst_ctx, &ctx.scale_and_round(&ctx.to_residues(&prod))),
            );
            assert_eq!(values[c], oracle, "element {c}");
        }
    }

    #[test]
    fn ladder_step_matches_the_inline_ring_path_and_coalesces_per_tenant() {
        let session = Session::default();
        let server = Server::new(
            session.clone(),
            ServeConfig {
                workers: 1,
                max_batch: 8,
                min_batch: 3,
                batch_window: Duration::from_secs(5),
                ..ServeConfig::default()
            },
        );
        let client = server.client();
        let ladder = moma::ring::default_ladder(16, 3);
        let tenant = server.register_ring_tenant(16, &ladder);
        let space = session.ring(16, &ladder);

        let mut rng = StdRng::seed_from_u64(0x1adde2);
        let operands: Vec<(Vec<BigUint>, Vec<BigUint>)> = (0..3)
            .map(|_| {
                let coeffs = |rng: &mut StdRng| {
                    (0..16)
                        .map(|_| random_below(rng, space.product(0)))
                        .collect::<Vec<BigUint>>()
                };
                (coeffs(&mut rng), coeffs(&mut rng))
            })
            .collect();
        let tickets: Vec<Ticket> = operands
            .iter()
            .map(|(a, b)| {
                client
                    .submit(WorkItem::LadderStep {
                        tenant,
                        level: 0,
                        a: a.clone(),
                        b: b.clone(),
                    })
                    .unwrap()
            })
            .collect();
        for (ticket, (a, b)) in tickets.into_iter().zip(&operands) {
            let done = ticket.wait().unwrap();
            // All three same-(tenant, level) requests rode one batch.
            assert_eq!(done.batch_size, 3);
            let Response::Ladder(coeffs) = done.response else {
                panic!("ladder work yields ladder responses")
            };
            let va = space.encode(0, a);
            let vb = space.encode(0, b);
            let (expected, _) = space.ladder_step(&va, &vb);
            assert_eq!(coeffs, space.decode(&expected), "inline crosscheck");
        }
        let stats = server.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.coalesced_requests, 3);
    }

    #[test]
    fn ladder_validation_fails_closed() {
        let server = Server::new(Session::default(), ServeConfig::default());
        let client = server.client();
        let ladder = moma::ring::default_ladder(8, 2);
        let tenant = server.register_ring_tenant(8, &ladder);
        let product = server.session().ring(8, &ladder).product(0).clone();
        let good = vec![BigUint::from(1u64); 8];

        // Unknown tenant.
        assert!(matches!(
            client.submit(WorkItem::LadderStep {
                tenant: RingTenantId(5),
                level: 0,
                a: good.clone(),
                b: good.clone(),
            }),
            Err(ServeError::UnknownTenant(5))
        ));
        // Level past the ladder floor.
        assert!(matches!(
            client.submit(WorkItem::LadderStep {
                tenant,
                level: 2,
                a: good.clone(),
                b: good.clone(),
            }),
            Err(ServeError::BadRequest(_))
        ));
        // Wrong operand length.
        assert!(matches!(
            client.submit(WorkItem::LadderStep {
                tenant,
                level: 0,
                a: vec![BigUint::from(1u64); 4],
                b: good.clone(),
            }),
            Err(ServeError::BadRequest(_))
        ));
        // Coefficient not reduced below the level product.
        assert!(matches!(
            client.submit(WorkItem::LadderStep {
                tenant,
                level: 0,
                a: vec![product; 8],
                b: good,
            }),
            Err(ServeError::BadRequest(_))
        ));
        assert_eq!(server.stats().submitted, 0);
    }

    #[test]
    fn validation_rejects_malformed_requests() {
        let server = Server::new(Session::default(), ServeConfig::default());
        let client = server.client();
        let q = server.session().ntt_default(8).modulus();
        let bad = [
            WorkItem::NttForward {
                q,
                n: 6,
                data: vec![0; 6],
            },
            WorkItem::NttForward {
                q,
                n: 8,
                data: vec![0; 4],
            },
            WorkItem::NttForward {
                q,
                n: 8,
                data: vec![q; 8],
            },
            // A request names its own modulus: q = 1 (all-zero data is
            // "reduced"), an even q, q ≥ 2^60, and n ∤ q − 1 would each
            // panic in the planner on the worker.
            WorkItem::NttForward {
                q: 1,
                n: 8,
                data: vec![0; 8],
            },
            WorkItem::NttInverse {
                q: 6,
                n: 8,
                data: vec![1; 8],
            },
            WorkItem::NttForward {
                q: (1 << 60) + 1,
                n: 8,
                data: vec![1; 8],
            },
            WorkItem::NttForward {
                q: 7,
                n: 8,
                data: vec![1; 8],
            },
        ];
        for item in bad {
            assert!(matches!(
                client.submit(item),
                Err(ServeError::BadRequest(_))
            ));
        }
        assert!(matches!(
            client.submit(WorkItem::RnsMulRescaleExtend {
                tenant: TenantId(3),
                a: vec![BigUint::from(1u64)],
                b: vec![BigUint::from(1u64)],
            }),
            Err(ServeError::UnknownTenant(3))
        ));
        let stats = server.stats();
        assert_eq!(
            (stats.submitted, stats.batches, stats.restarts),
            (0, 0, 0),
            "nothing was queued, run, or crashed"
        );
    }

    #[test]
    fn a_panicking_batch_fails_alone_and_the_server_keeps_serving() {
        let server = Server::new(Session::default(), ServeConfig::default());
        let client = server.client();
        // q = 9 passes the cheap submit-time checks (odd, 8 | q − 1) but is
        // composite, so the NTT planner panics.
        let poisoned = client.call(WorkItem::NttForward {
            q: 9,
            n: 8,
            data: vec![1; 8],
        });
        let Err(ServeError::Internal {
            kind, batch_size, ..
        }) = poisoned
        else {
            panic!("expected an internal error, got {poisoned:?}")
        };
        assert_eq!(kind, "ntt_forward");
        assert_eq!(batch_size, 1);
        // The very same session still serves valid work.
        let space = server.session().ntt_default(8);
        let (item, _) = ntt_item(&space, 9);
        assert!(client.call(item).is_ok());
        let stats = server.stats();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn clients_outliving_the_server_get_shutdown_errors() {
        let server = Server::new(Session::default(), ServeConfig::default());
        let client = server.client();
        let space = server.session().ntt_default(8);
        let (item, _) = ntt_item(&space, 11);
        drop(server);
        assert!(matches!(client.call(item), Err(ServeError::Shutdown)));
    }

    #[test]
    fn drain_rejects_new_work_and_reports_idle() {
        let server = Server::new(Session::default(), ServeConfig::default());
        let client = server.client();
        let space = server.session().ntt_default(8);
        let (item, _) = ntt_item(&space, 13);
        client.call(item.clone()).unwrap();
        assert!(server.drain(Duration::from_secs(5)));
        assert!(matches!(client.submit(item), Err(ServeError::Shutdown)));
        assert_eq!(server.stats().outstanding, 0);
    }
}
