//! # perm-serve — the concurrent serving subsystem
//!
//! Everything below the facade is deliberately single-threaded: an
//! [`perm::Executor`] is `!Sync` (counters and the interpreter's memo in
//! `Cell`/`RefCell`), and a [`Session`] wraps exactly one of them. This
//! crate is where concurrency lives, built from three pieces that the lower
//! layers expose for exactly this purpose:
//!
//! * **Shared, immutable data.** The storage layer is `Send + Sync` plain
//!   data; the catalog holds its relations behind `Arc`, so any number of
//!   worker threads read one [`Database`] (or cheap snapshots of it)
//!   without copying a tuple.
//! * **A cross-session plan cache.** The [`Engine`] caches prepared
//!   statements by SQL text + configuration fingerprint; whichever worker
//!   session prepares a statement first, every other worker's `prepare` is
//!   a shared-`Arc` hit with zero parse/bind/rewrite/compile work
//!   ([`perm::PlanCacheStats`]).
//! * **Statements that carry their sublink memo.** A [`Prepared`]
//!   statement owns a mutex-guarded memo of its correlated-sublink
//!   summaries, keyed by sublink id, database version and the typed
//!   parameter and binding values. Workers that share a statement — through
//!   the plan cache or a [`Request::prepared`] handle — share its entries,
//!   so a binding *any* worker has evaluated is a hit for *every* worker.
//!
//! [`ConcurrentEngine`] assembles them behind one entry point:
//! [`ConcurrentEngine::serve`] (and its policy-taking form,
//! [`ConcurrentEngine::serve_with_options`]) drains a queue of requests
//! with a fixed pool of `std::thread::scope` workers,
//! **session-per-worker** — each worker owns its `!Sync` session/executor
//! core; only the engine, the plan cache and the statements cross threads.
//! A statement runs the same way on the pool as on a plain [`Session`]:
//! the optimizer has already turned the correlated sublinks it can into
//! hash joins, and what it leaves to the memo is evaluated once per
//! distinct binding by whichever worker meets it first.
//!
//! ```
//! use perm::{Database, Engine, Relation, Schema, Value};
//! use perm_serve::{ConcurrentEngine, Request};
//!
//! let mut db = Database::new();
//! db.create_table("t", Relation::from_rows(
//!     Schema::from_names(&["x"]).with_qualifier("t"),
//!     (0..8).map(|i| vec![Value::Int(i)]).collect(),
//! )).unwrap();
//!
//! let engine = ConcurrentEngine::new(Engine::new(db)).with_workers(2);
//! let requests: Vec<Request> = (0..4)
//!     .map(|i| Request::sql("SELECT x FROM t WHERE x < $1", vec![Value::Int(i)]))
//!     .collect();
//! let results = engine.serve(&requests);
//! assert_eq!(results.len(), 4);
//! assert_eq!(results[3].as_ref().unwrap().len(), 3);
//! // One compilation served all four requests across both workers.
//! assert_eq!(engine.engine().plan_cache_stats().entries, 1);
//! ```

#![forbid(unsafe_code)]

use perm::{
    Database, Engine, ExecError, PermError, Prepared, Relation, Session, SessionConfig, Value,
};
use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

// The thread-safety contract this subsystem rests on, checked at compile
// time: everything that crosses a worker boundary is `Send + Sync`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
    assert_send_sync::<Relation>();
    assert_send_sync::<Engine>();
    assert_send_sync::<Prepared>();
    assert_send_sync::<ConcurrentEngine>();
    assert_send_sync::<Request>();
    assert_send_sync::<ServeOptions>();
};

/// Resilience policy for one [`ConcurrentEngine::serve_with_options`] batch.
/// The default is the historical behaviour: no deadline, no retries, admit
/// everything.
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Per-request deadline. Each execution attempt gets the full budget
    /// (a fresh [`perm::CancelToken`] is minted per attempt); an attempt
    /// that overruns is cancelled cooperatively at its next batch boundary
    /// and surfaces as [`ExecError::Cancelled`]. Overrides any
    /// [`SessionConfig::deadline`] on the engine's default configuration.
    pub deadline: Option<Duration>,
    /// How many times a failed request is re-executed before its error is
    /// reported. Only *transient* failures are retried — a worker panic
    /// ([`PermError::Internal`]) or a cooperative cancellation
    /// ([`ExecError::Cancelled`], e.g. a deadline overrun that a warmer
    /// memo may beat next time). Deterministic errors (type errors,
    /// division by zero, budget exhaustion, SQL errors) fail immediately:
    /// re-running them would burn pool time to reproduce the same failure.
    pub retries: u32,
    /// Admission limit: at most this many requests of the batch are
    /// admitted (in request order); the rest are refused with
    /// [`PermError::Rejected`] without executing anything — explicit load
    /// shedding instead of unbounded queueing. `None` admits all.
    pub admission_limit: Option<usize>,
}

/// Number of log2 latency buckets: bucket `i` counts observations of
/// `[2^(i-1), 2^i)` microseconds (bucket 0 counts zero-µs observations), so
/// the top finite boundary is `2^24 - 1` µs ≈ 16.8 s and the last bucket is
/// the `+Inf` overflow. Fixed boundaries — no configuration, no allocation,
/// one relaxed increment per observation.
const LATENCY_BUCKETS: usize = 26;

/// A fixed-bucket log2 latency histogram over microseconds. `Sync` by
/// construction (relaxed atomics): every pool worker records into the same
/// instance. Snapshots are monotone but not atomic across fields — a reader
/// racing a writer may see a sum without its count, which is the usual (and
/// here acceptable) scrape-time skew.
#[derive(Debug, Default)]
struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    sum_micros: AtomicU64,
    count: AtomicU64,
}

impl LatencyHistogram {
    fn record(&self, elapsed: Duration) {
        let micros = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        let index = ((64 - micros.leading_zeros()) as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[index].fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum_micros: self.sum_micros.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one of the registry's latency histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts; bucket `i` holds observations of
    /// `[2^(i-1), 2^i)` µs, the last bucket everything beyond the finite
    /// boundaries.
    pub buckets: [u64; LATENCY_BUCKETS],
    /// Sum of all observed latencies in microseconds.
    pub sum_micros: u64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Appends this histogram in Prometheus text format (cumulative `le`
    /// buckets, `_sum`, `_count`) under `name`.
    fn prometheus_into(&self, name: &str, help: &str, out: &mut String) {
        use std::fmt::Write;
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (i, count) in self.buckets.iter().enumerate() {
            cumulative += count;
            if i + 1 == LATENCY_BUCKETS {
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
            } else {
                // Bucket i holds observations ≤ 2^i - 1 µs, so that is its
                // exact cumulative upper bound.
                let le = (1u64 << i) - 1;
                let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
            }
        }
        let _ = writeln!(out, "{name}_sum {}", self.sum_micros);
        let _ = writeln!(out, "{name}_count {}", self.count);
    }
}

/// The pool-wide counters [`ConcurrentEngine::serve_with_options`] maintains:
/// request outcomes, retry/panic/restart counts, the statement-memo traffic
/// of every attempt, and the two latency histograms. All relaxed atomics —
/// serving never blocks on metrics.
#[derive(Debug, Default)]
struct MetricsRegistry {
    requests_served: AtomicU64,
    requests_failed: AtomicU64,
    requests_rejected: AtomicU64,
    requests_retried: AtomicU64,
    worker_panics: AtomicU64,
    worker_restarts: AtomicU64,
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
    queue_wait: LatencyHistogram,
    execution: LatencyHistogram,
}

/// A point-in-time view of the serving metrics
/// ([`ConcurrentEngine::metrics`]): request outcomes, latency histograms,
/// and the hit/miss traffic of the plan cache and the statement memos the
/// workers share. Exportable as
/// Prometheus text via [`MetricsSnapshot::prometheus_text`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Requests that completed with a result.
    pub requests_served: u64,
    /// Requests that completed with an error (after any retries).
    pub requests_failed: u64,
    /// Requests refused at admission ([`ServeOptions::admission_limit`]).
    pub requests_rejected: u64,
    /// Transient-failure re-executions performed ([`ServeOptions::retries`]).
    pub requests_retried: u64,
    /// Worker panics isolated at the request boundary.
    pub worker_panics: u64,
    /// Worker sessions replaced after a panic.
    pub worker_restarts: u64,
    /// Time from batch submission to a worker claiming the request.
    pub queue_wait: HistogramSnapshot,
    /// Wall time of each execution attempt.
    pub execution: HistogramSnapshot,
    /// Engine-wide plan-cache hits ([`perm::PlanCacheStats`]).
    pub plan_cache_hits: u64,
    /// Engine-wide plan-cache misses.
    pub plan_cache_misses: u64,
    /// Sublink lookups the pool's requests served from their statement's
    /// memo (the sum of every request attempt's
    /// [`perm::SessionStats::memo_hits`]).
    pub shared_memo_hits: u64,
    /// Sublink lookups that executed the sublink
    /// ([`perm::SessionStats::memo_misses`], summed the same way).
    pub shared_memo_misses: u64,
}

impl MetricsSnapshot {
    /// Plan-cache hit rate in `[0, 1]`; zero before any traffic.
    pub fn plan_cache_hit_rate(&self) -> f64 {
        hit_rate(self.plan_cache_hits, self.plan_cache_misses)
    }

    /// Statement-memo hit rate in `[0, 1]`; zero before any traffic.
    pub fn shared_memo_hit_rate(&self) -> f64 {
        hit_rate(self.shared_memo_hits, self.shared_memo_misses)
    }

    /// Renders the snapshot in the Prometheus text exposition format:
    /// `# HELP`/`# TYPE` headers, plain counters, two histograms with
    /// cumulative `le` buckets, and the two hit rates as gauges. Hand
    /// rolled — the format is lines of `name{labels} value`, no external
    /// crate needed.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        let counters: [(&str, &str, u64); 10] = [
            (
                "perm_requests_served_total",
                "Requests completed with a result.",
                self.requests_served,
            ),
            (
                "perm_requests_failed_total",
                "Requests completed with an error after any retries.",
                self.requests_failed,
            ),
            (
                "perm_requests_rejected_total",
                "Requests refused at admission (load shedding).",
                self.requests_rejected,
            ),
            (
                "perm_requests_retried_total",
                "Transient-failure re-executions performed.",
                self.requests_retried,
            ),
            (
                "perm_worker_panics_total",
                "Worker panics isolated at the request boundary.",
                self.worker_panics,
            ),
            (
                "perm_worker_restarts_total",
                "Worker sessions replaced after a panic.",
                self.worker_restarts,
            ),
            (
                "perm_plan_cache_hits_total",
                "Engine-wide plan cache hits.",
                self.plan_cache_hits,
            ),
            (
                "perm_plan_cache_misses_total",
                "Engine-wide plan cache misses.",
                self.plan_cache_misses,
            ),
            (
                "perm_shared_memo_hits_total",
                "Sublink lookups served by a statement memo.",
                self.shared_memo_hits,
            ),
            (
                "perm_shared_memo_misses_total",
                "Sublink lookups that executed the sublink.",
                self.shared_memo_misses,
            ),
        ];
        use std::fmt::Write;
        for (name, help, value) in counters {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        self.queue_wait.prometheus_into(
            "perm_queue_wait_micros",
            "Time from batch submission to a worker claiming the request.",
            &mut out,
        );
        self.execution.prometheus_into(
            "perm_execution_micros",
            "Wall time of each execution attempt.",
            &mut out,
        );
        let gauges: [(&str, &str, f64); 2] = [
            (
                "perm_plan_cache_hit_rate",
                "Plan-cache hit rate in [0, 1].",
                self.plan_cache_hit_rate(),
            ),
            (
                "perm_shared_memo_hit_rate",
                "Statement-memo hit rate in [0, 1].",
                self.shared_memo_hit_rate(),
            ),
        ];
        for (name, help, value) in gauges {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        out
    }
}

fn hit_rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        return 0.0;
    }
    hits as f64 / total as f64
}

/// A session's statement-memo hits and misses so far.
fn memo_traffic(session: &Session<'_>) -> (u64, u64) {
    let executor = session.executor();
    (executor.memo_hits(), executor.memo_misses())
}

/// `true` for failures worth re-executing: a panic the pool isolated or a
/// cooperative cancellation. Everything else is deterministic.
fn is_transient(result: &Result<Relation, PermError>) -> bool {
    matches!(
        result,
        Err(PermError::Internal(_)) | Err(PermError::Exec(ExecError::Cancelled { .. }))
    )
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_owned()
    }
}

/// One unit of serving work: a statement plus its parameter binding.
#[derive(Debug, Clone)]
pub struct Request {
    kind: RequestKind,
    params: Vec<Value>,
}

#[derive(Debug, Clone)]
enum RequestKind {
    /// SQL text, prepared (or plan-cache-fetched) by the worker that claims
    /// the request.
    Sql(String),
    /// An already-prepared statement, shared by reference.
    Prepared(Arc<Prepared>),
}

impl Request {
    /// A request carrying SQL text. Repeated texts cost one compilation
    /// across the whole pool — workers meet in the engine's plan cache.
    pub fn sql(sql: impl Into<String>, params: Vec<Value>) -> Request {
        Request {
            kind: RequestKind::Sql(sql.into()),
            params,
        }
    }

    /// A request executing a statement prepared up front (e.g. via
    /// [`ConcurrentEngine::prepare`]).
    pub fn prepared(statement: Arc<Prepared>, params: Vec<Value>) -> Request {
        Request {
            kind: RequestKind::Prepared(statement),
            params,
        }
    }

    /// The parameter binding of this request.
    pub fn params(&self) -> &[Value] {
        &self.params
    }
}

/// A shared-engine worker pool: the concurrency layer over an [`Engine`].
///
/// Owns the engine and a fixed worker count. See the crate docs for the
/// architecture.
#[derive(Debug)]
pub struct ConcurrentEngine {
    engine: Engine,
    workers: usize,
    metrics: MetricsRegistry,
}

impl ConcurrentEngine {
    /// Wraps an engine with as many workers as the machine offers
    /// ([`std::thread::available_parallelism`]).
    ///
    /// The plan cache and each statement's memo default to **unbounded** —
    /// right for parameterized statement traffic (a fixed set of texts, `$n`
    /// bindings), where every entry keeps earning its keep. A workload of
    /// ad-hoc texts with inlined literals makes every request a new
    /// plan-cache key, and with it a new statement and memo; bound the
    /// cache with `Engine::with_plan_cache_capacity` for such traffic (an
    /// evicted statement takes its memo with it). A statement whose
    /// correlations have many distinct bindings is bounded by
    /// [`SessionConfig::memo_capacity`] in the engine's configuration.
    pub fn new(engine: Engine) -> ConcurrentEngine {
        let workers = thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        ConcurrentEngine {
            engine,
            workers,
            metrics: MetricsRegistry::default(),
        }
    }

    /// Sets the worker count (minimum 1).
    pub fn with_workers(mut self, workers: usize) -> ConcurrentEngine {
        self.workers = workers.max(1);
        self
    }

    /// A point-in-time snapshot of the pool's serving metrics: request
    /// outcomes, queue-wait and execution-latency histograms, and the hit
    /// traffic of the plan cache and the statement memos. Cheap (a few
    /// relaxed loads); export with [`MetricsSnapshot::prometheus_text`].
    pub fn metrics(&self) -> MetricsSnapshot {
        let plan_cache = self.engine.plan_cache_stats();
        MetricsSnapshot {
            requests_served: self.metrics.requests_served.load(Ordering::Relaxed),
            requests_failed: self.metrics.requests_failed.load(Ordering::Relaxed),
            requests_rejected: self.metrics.requests_rejected.load(Ordering::Relaxed),
            requests_retried: self.metrics.requests_retried.load(Ordering::Relaxed),
            worker_panics: self.metrics.worker_panics.load(Ordering::Relaxed),
            worker_restarts: self.metrics.worker_restarts.load(Ordering::Relaxed),
            queue_wait: self.metrics.queue_wait.snapshot(),
            execution: self.metrics.execution.snapshot(),
            plan_cache_hits: plan_cache.hits,
            plan_cache_misses: plan_cache.misses,
            shared_memo_hits: self.metrics.memo_hits.load(Ordering::Relaxed),
            shared_memo_misses: self.metrics.memo_misses.load(Ordering::Relaxed),
        }
    }

    /// The wrapped engine (plan-cache stats live here).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The database served.
    pub fn database(&self) -> &Database {
        self.engine.database()
    }

    /// Mutable access to the database, through [`Engine::database_mut`]:
    /// the plan cache is emptied, and a statement held elsewhere misses its
    /// memo over the changed data. Exclusive access is enforced by the
    /// borrow checker — no worker can be serving while the data changes.
    pub fn database_mut(&mut self) -> &mut Database {
        self.engine.database_mut()
    }

    /// The number of pool workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The configuration worker sessions run under: the engine's default
    /// configuration with memo retention on (warm entries are the point of
    /// a serving pool).
    fn worker_config(&self) -> SessionConfig {
        let mut config = self.engine.config().clone();
        config.retain_memo = true;
        config
    }

    /// Opens a worker-flavoured session: plan-cache-attached (it comes from
    /// the engine), with memo retention on. The session is `!Sync` — it
    /// belongs to the calling thread.
    pub fn session(&self) -> Session<'_> {
        self.engine.session_with(self.worker_config())
    }

    /// Prepares a statement through the engine's plan cache, for
    /// [`Request::prepared`] traffic.
    pub fn prepare(&self, sql: &str) -> Result<Arc<Prepared>, PermError> {
        self.session().prepare(sql)
    }

    /// Serves a batch of requests on the worker pool and returns the
    /// results **in request order**, with the default (no-op) resilience
    /// policy — see [`ConcurrentEngine::serve_with_options`].
    pub fn serve(&self, requests: &[Request]) -> Vec<Result<Relation, PermError>> {
        self.serve_with_options(requests, &ServeOptions::default())
    }

    /// Serves a batch of requests on the worker pool under a resilience
    /// policy and returns the results **in request order**.
    ///
    /// The batch is a single-producer queue: each worker claims the next
    /// unclaimed index (one atomic increment), runs it on its own session —
    /// prepare (plan-cache hit after the first encounter of a text), bind,
    /// execute — and writes the result slot. Errors are per-request values,
    /// not pool failures: one bad statement leaves the other results intact.
    ///
    /// Resilience, per [`ServeOptions`]:
    ///
    /// * every request attempt runs under `catch_unwind`, so a **panic**
    ///   anywhere in the pipeline is confined to its request — reported in
    ///   place as [`PermError::Internal`] — and the worker keeps draining
    ///   the queue on a *fresh* session (a panic may have interrupted a
    ///   memo mid-update; replacing the `!Sync` core is cheap and removes
    ///   the doubt);
    /// * a per-request **deadline** cancels overrunning attempts
    ///   cooperatively;
    /// * transient failures are **retried** up to `options.retries` times;
    /// * requests beyond the **admission limit** are refused with
    ///   [`PermError::Rejected`] without executing.
    pub fn serve_with_options(
        &self,
        requests: &[Request],
        options: &ServeOptions,
    ) -> Vec<Result<Relation, PermError>> {
        let limit = options.admission_limit.unwrap_or(requests.len());
        let admitted = limit.min(requests.len());
        self.metrics
            .requests_rejected
            .fetch_add((requests.len() - admitted) as u64, Ordering::Relaxed);
        let batch_start = Instant::now();
        let next = AtomicUsize::new(0);
        let results: Vec<Mutex<Option<Result<Relation, PermError>>>> = requests[..admitted]
            .iter()
            .map(|_| Mutex::new(None))
            .collect();
        let mut config = self.worker_config();
        if options.deadline.is_some() {
            config.deadline = options.deadline;
        }
        thread::scope(|scope| {
            // An empty batch, or one that admits nothing, spawns no worker.
            for _ in 0..self.workers.min(admitted) {
                scope.spawn(|| {
                    let mut session = self.engine.session_with(config.clone());
                    // Worker-local statement reuse: a text this worker has
                    // already prepared is served without touching the
                    // engine-wide plan-cache mutex again — the global cache
                    // deduplicates *across* workers, this map keeps the hot
                    // loop off that lock entirely. (Prepared statements are
                    // immutable, so the map survives session replacement.)
                    let mut local: HashMap<&str, Arc<Prepared>> = HashMap::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= admitted {
                            break;
                        }
                        self.metrics.queue_wait.record(batch_start.elapsed());
                        let request = &requests[i];
                        let mut attempts = 0;
                        let result = loop {
                            let attempt_start = Instant::now();
                            let memo_before = memo_traffic(&session);
                            let attempt = panic::catch_unwind(AssertUnwindSafe(|| {
                                Self::run_request(&session, &mut local, request)
                            }))
                            .unwrap_or_else(|payload| {
                                Err(PermError::Internal(panic_message(payload)))
                            });
                            self.metrics.execution.record(attempt_start.elapsed());
                            let memo_after = memo_traffic(&session);
                            self.metrics
                                .memo_hits
                                .fetch_add(memo_after.0 - memo_before.0, Ordering::Relaxed);
                            self.metrics
                                .memo_misses
                                .fetch_add(memo_after.1 - memo_before.1, Ordering::Relaxed);
                            if matches!(attempt, Err(PermError::Internal(_))) {
                                self.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
                                session = self.engine.session_with(config.clone());
                                self.metrics.worker_restarts.fetch_add(1, Ordering::Relaxed);
                            }
                            if is_transient(&attempt) && attempts < options.retries {
                                attempts += 1;
                                self.metrics
                                    .requests_retried
                                    .fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                            break attempt;
                        };
                        let outcome = match &result {
                            Ok(_) => &self.metrics.requests_served,
                            Err(_) => &self.metrics.requests_failed,
                        };
                        outcome.fetch_add(1, Ordering::Relaxed);
                        *results[i].lock().expect("result slot poisoned") = Some(result);
                    }
                });
            }
        });
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every claimed slot is written before its worker exits")
            })
            .chain((admitted..requests.len()).map(|_| Err(PermError::Rejected { limit })))
            .collect()
    }

    /// One execution attempt of one request on a worker session.
    fn run_request<'r>(
        session: &Session<'_>,
        local: &mut HashMap<&'r str, Arc<Prepared>>,
        request: &'r Request,
    ) -> Result<Relation, PermError> {
        match &request.kind {
            RequestKind::Sql(sql) => match local.get(sql.as_str()) {
                Some(prepared) => session.execute(prepared, &request.params),
                None => session.prepare(sql).and_then(|prepared| {
                    local.insert(sql, Arc::clone(&prepared));
                    session.execute(&prepared, &request.params)
                }),
            },
            RequestKind::Prepared(p) => session.execute(p, &request.params),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm::{Schema, SessionStats};

    fn serving_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "r",
            Relation::from_rows(
                Schema::from_names(&["a", "g"]).with_qualifier("r"),
                (0..30)
                    .map(|i| vec![Value::Int(i), Value::Int(i % 5)])
                    .collect(),
            ),
        )
        .unwrap();
        db.create_table(
            "s",
            Relation::from_rows(
                Schema::from_names(&["c", "g"]).with_qualifier("s"),
                (0..20)
                    .map(|i| vec![Value::Int(100 + i), Value::Int(i % 5)])
                    .collect(),
            ),
        )
        .unwrap();
        db
    }

    /// A correlated scalar comparison: the one sublink shape the optimizer
    /// leaves to the binding memo (a correlated `EXISTS` / `IN`, `$1` or
    /// not, becomes a hash join and owns no memo site). `a < avg(c)` holds
    /// for every group with a `c` left, so it selects what the `EXISTS`
    /// over the same body would.
    const CORRELATED_SQL: &str =
        "SELECT a FROM r WHERE a < (SELECT avg(c) FROM s WHERE s.g = r.g AND s.c > $1)";

    #[test]
    fn serve_preserves_request_order_and_per_request_errors() {
        let engine = ConcurrentEngine::new(Engine::new(serving_db())).with_workers(3);
        let mut requests = Vec::new();
        for i in 0..12 {
            requests.push(Request::sql(CORRELATED_SQL, vec![Value::Int(100 + i)]));
        }
        // A failing statement in the middle must fail alone.
        requests.insert(5, Request::sql("SELECT nope FROM r", vec![]));
        let results = engine.serve(&requests);
        assert_eq!(results.len(), 13);
        assert!(results[5].is_err(), "bad statement fails in place");

        // Every good result matches a single-threaded reference session.
        let reference = Session::new(engine.database());
        for (i, result) in results.iter().enumerate() {
            if i == 5 {
                continue;
            }
            let request = &requests[i];
            let prepared = reference.prepare(CORRELATED_SQL).unwrap();
            let expected = reference.execute(&prepared, request.params()).unwrap();
            assert!(
                result.as_ref().unwrap().bag_eq(&expected),
                "request {i} diverged from the single-threaded reference"
            );
        }
    }

    #[test]
    fn plan_cache_amortizes_preparation_across_the_pool() {
        let engine = ConcurrentEngine::new(Engine::new(serving_db())).with_workers(4);
        let requests: Vec<Request> = (0..40)
            .map(|i| Request::sql(CORRELATED_SQL, vec![Value::Int(100 + (i % 4))]))
            .collect();
        let results = engine.serve(&requests);
        assert!(results.iter().all(Result::is_ok));
        let stats = engine.engine().plan_cache_stats();
        assert_eq!(stats.entries, 1, "one text, one cached statement");
        // Each worker consults the engine-wide cache at most once per text
        // (its batch-local map serves the rest), so 40 requests cost at
        // most 4 cache lookups — and however the first-preparation race
        // falls, exactly one compilation is retained.
        assert!(
            stats.hits + stats.misses <= 4,
            "global cache must be touched once per worker per text, got {stats:?}"
        );
        assert!(stats.hits + stats.misses >= 1, "got {stats:?}");
    }

    #[test]
    fn prepared_requests_share_one_statement() {
        let engine = ConcurrentEngine::new(Engine::new(serving_db())).with_workers(2);
        let statement = engine.prepare(CORRELATED_SQL).unwrap();
        let requests: Vec<Request> = (0..10)
            .map(|i| Request::prepared(Arc::clone(&statement), vec![Value::Int(100 + i)]))
            .collect();
        let results = engine.serve(&requests);
        let reference = Session::new(engine.database());
        let reference_stmt = reference.prepare(CORRELATED_SQL).unwrap();
        for (i, result) in results.iter().enumerate() {
            let expected = reference
                .execute(&reference_stmt, requests[i].params())
                .unwrap();
            assert!(result.as_ref().unwrap().bag_eq(&expected));
        }
    }

    #[test]
    fn the_shared_memo_carries_bindings_across_serve_calls_and_workers() {
        // serve_mix's scalar-`avg` statement: the one sublink shape the
        // optimizer leaves to the memo, so the one reason the pool's
        // sessions share a statement's memo at all.
        const SQL: &str = "SELECT PROVENANCE a, b FROM r1 WHERE b < \
             (SELECT avg(b) FROM r2 WHERE r2.g = r1.g AND r2.b > $1)";
        // Eight `$1` values across r2.b's spread (σ = 5 000 around 0), each
        // requested twice per batch so both workers meet every one of them.
        let requests: Vec<Request> = (0..16)
            .map(|i| Request::sql(SQL, vec![Value::Int(1_500 * (i % 8 - 4))]))
            .collect();
        let db = perm_synthetic::build_database(100, 50, 42);
        let mut engine = ConcurrentEngine::new(Engine::new(db)).with_workers(2);

        let cold = engine.serve(&requests);
        let after_cold = engine.metrics();
        assert!(after_cold.shared_memo_misses > 0, "the first call computes");

        // Every (binding, `$1`) pair is in the statement's memo now,
        // whichever worker computed it: the second call evaluates no
        // sublink.
        let warm = engine.serve(&requests);
        let after_warm = engine.metrics();
        assert_eq!(after_warm.shared_memo_misses, after_cold.shared_memo_misses);
        assert!(after_warm.shared_memo_hits > after_cold.shared_memo_hits);

        let reference = Session::new(engine.database());
        let statement = reference.prepare(SQL).unwrap();
        for (request, (cold, warm)) in requests.iter().zip(cold.iter().zip(&warm)) {
            let expected = reference.execute(&statement, request.params()).unwrap();
            assert!(cold.as_ref().unwrap().bag_eq(&expected));
            assert!(warm.as_ref().unwrap().bag_eq(&expected));
        }

        // A data change retires the cached statement, and its memo with it:
        // the next call misses again.
        engine.database_mut();
        assert_eq!(engine.engine().plan_cache_stats().entries, 0);
        engine.serve(&requests);
        assert!(engine.metrics().shared_memo_misses > after_warm.shared_memo_misses);
    }

    #[test]
    fn a_batch_that_admits_nothing_answers_without_a_worker() {
        let engine = ConcurrentEngine::new(Engine::new(serving_db())).with_workers(2);
        assert!(engine.serve(&[]).is_empty());

        let requests = vec![Request::sql(CORRELATED_SQL, vec![Value::Int(100)]); 3];
        let options = ServeOptions {
            admission_limit: Some(0),
            ..ServeOptions::default()
        };
        let results = engine.serve_with_options(&requests, &options);
        assert_eq!(results.len(), 3, "rejected requests still get a slot");
        for rejected in &results {
            assert!(matches!(rejected, Err(PermError::Rejected { limit: 0 })));
        }
        let metrics = engine.metrics();
        assert_eq!(metrics.requests_rejected, 3);
        assert_eq!(metrics.queue_wait.count, 0, "nothing was claimed");
        assert_eq!(metrics.execution.count, 0, "nothing was executed");
    }

    #[test]
    fn worker_panic_is_isolated_and_every_slot_is_filled_in_request_order() {
        // One injected panic somewhere in the pool: it must be confined to
        // the request that hit it (PermError::Internal in that slot), and
        // every other slot must hold the same result as a single-threaded
        // reference — order preserved, no hung or missing slots even
        // though a worker's session died mid-batch.
        use perm::{FaultKind, FaultPlan, FaultSite};
        let fault = FaultPlan::new(FaultKind::Panic, FaultSite::Operator, 8);
        let config = SessionConfig {
            fault_plan: Some(fault.clone()),
            ..SessionConfig::default()
        };
        let engine =
            ConcurrentEngine::new(Engine::new(serving_db()).with_config(config)).with_workers(2);
        let requests: Vec<Request> = (0..10)
            .map(|i| Request::sql(CORRELATED_SQL, vec![Value::Int(100 + i)]))
            .collect();
        let results = engine.serve(&requests);
        assert_eq!(results.len(), 10, "every slot filled");
        assert!(fault.fired(), "the injected panic fired");
        let internal: Vec<usize> = results
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r, Err(PermError::Internal(_))))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(internal.len(), 1, "exactly one request absorbed the panic");

        let reference = Session::new(engine.database());
        let statement = reference.prepare(CORRELATED_SQL).unwrap();
        for (i, result) in results.iter().enumerate() {
            if i == internal[0] {
                continue;
            }
            let expected = reference.execute(&statement, requests[i].params()).unwrap();
            assert!(
                result.as_ref().unwrap().bag_eq(&expected),
                "slot {i} diverged after a sibling request panicked"
            );
        }
    }

    #[test]
    fn bounded_retry_recovers_a_transient_panic() {
        // The same injected panic, but with one retry allowed: the fault
        // fires exactly once (its trigger is one-shot), the retry runs on a
        // fresh session, and the whole batch comes back clean.
        use perm::{FaultKind, FaultPlan, FaultSite};
        let fault = FaultPlan::new(FaultKind::Panic, FaultSite::Operator, 5);
        let config = SessionConfig {
            fault_plan: Some(fault.clone()),
            ..SessionConfig::default()
        };
        let engine =
            ConcurrentEngine::new(Engine::new(serving_db()).with_config(config)).with_workers(2);
        let requests: Vec<Request> = (0..8)
            .map(|i| Request::sql(CORRELATED_SQL, vec![Value::Int(100 + i)]))
            .collect();
        let options = ServeOptions {
            retries: 1,
            ..ServeOptions::default()
        };
        let results = engine.serve_with_options(&requests, &options);
        assert!(fault.fired());
        assert!(
            results.iter().all(Result::is_ok),
            "one retry must absorb the one-shot panic"
        );
    }

    #[test]
    fn deterministic_errors_are_never_retried() {
        // A statement that fails deterministically (unknown column) must
        // fail once per request, not burn `retries` extra executions: the
        // session-level parse counter counts pipeline runs.
        let engine = ConcurrentEngine::new(Engine::new(serving_db())).with_workers(1);
        let requests = vec![Request::sql("SELECT nope FROM r", vec![])];
        let options = ServeOptions {
            retries: 3,
            ..ServeOptions::default()
        };
        let before = engine.engine().plan_cache_stats().misses;
        let results = engine.serve_with_options(&requests, &options);
        assert!(results[0].is_err());
        assert!(
            !is_transient(&results[0]),
            "a binding failure must classify as deterministic: {:?}",
            results[0]
        );
        // One preparation attempt, not 1 + retries: binding failures miss
        // the cache exactly once per pipeline run.
        assert_eq!(engine.engine().plan_cache_stats().misses - before, 1);
    }

    #[test]
    fn admission_limit_sheds_excess_requests_with_a_typed_error() {
        let engine = ConcurrentEngine::new(Engine::new(serving_db())).with_workers(2);
        let requests: Vec<Request> = (0..6)
            .map(|i| Request::sql(CORRELATED_SQL, vec![Value::Int(100 + i)]))
            .collect();
        let options = ServeOptions {
            admission_limit: Some(2),
            ..ServeOptions::default()
        };
        let results = engine.serve_with_options(&requests, &options);
        assert_eq!(results.len(), 6, "rejected requests still get a slot");
        assert!(results[..2].iter().all(Result::is_ok), "admitted in order");
        for rejected in &results[2..] {
            assert!(
                matches!(rejected, Err(PermError::Rejected { limit: 2 })),
                "excess requests are shed, not queued: {rejected:?}"
            );
        }
    }

    #[test]
    fn expired_deadline_cancels_requests_cleanly() {
        let engine = ConcurrentEngine::new(Engine::new(serving_db())).with_workers(2);
        let requests: Vec<Request> = (0..4)
            .map(|i| Request::sql(CORRELATED_SQL, vec![Value::Int(100 + i)]))
            .collect();
        let options = ServeOptions {
            deadline: Some(Duration::ZERO),
            ..ServeOptions::default()
        };
        let results = engine.serve_with_options(&requests, &options);
        assert_eq!(results.len(), 4);
        for result in &results {
            assert!(
                matches!(result, Err(PermError::Exec(ExecError::Cancelled { .. }))),
                "an already-expired deadline must cancel at the first \
                 checkpoint: {result:?}"
            );
        }
    }

    /// Minimal Prometheus text-format line check: every non-comment,
    /// non-empty line is `name[{labels}] value` with a parseable numeric
    /// value.
    fn assert_prometheus_parses(text: &str) {
        assert!(!text.is_empty());
        for line in text.lines() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (name, value) = line
                .rsplit_once(' ')
                .unwrap_or_else(|| panic!("metric line without value: {line:?}"));
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable value in line: {line:?}"
            );
            let bare = name.split('{').next().unwrap();
            assert!(
                !bare.is_empty()
                    && bare
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "invalid metric name in line: {line:?}"
            );
            if let Some(rest) = name.split_once('{').map(|(_, r)| r) {
                assert!(rest.ends_with('}'), "unterminated labels: {line:?}");
            }
        }
    }

    #[test]
    fn metrics_count_request_outcomes_latencies_and_cache_traffic() {
        let engine = ConcurrentEngine::new(Engine::new(serving_db())).with_workers(2);
        let mut requests: Vec<Request> = (0..6)
            .map(|i| Request::sql(CORRELATED_SQL, vec![Value::Int(100 + i)]))
            .collect();
        requests.push(Request::sql("SELECT nope FROM r", vec![]));
        let results = engine.serve(&requests);
        assert_eq!(results.iter().filter(|r| r.is_ok()).count(), 6);

        // One extra batch under an admission limit: one more served, two
        // shed.
        let options = ServeOptions {
            admission_limit: Some(1),
            ..ServeOptions::default()
        };
        engine.serve_with_options(
            &[
                Request::sql(CORRELATED_SQL, vec![Value::Int(100)]),
                Request::sql(CORRELATED_SQL, vec![Value::Int(101)]),
                Request::sql(CORRELATED_SQL, vec![Value::Int(102)]),
            ],
            &options,
        );

        let metrics = engine.metrics();
        assert_eq!(metrics.requests_served, 7);
        assert_eq!(metrics.requests_failed, 1);
        assert_eq!(metrics.requests_rejected, 2);
        assert_eq!(metrics.requests_retried, 0);
        assert_eq!(metrics.worker_panics, 0);
        // One queue-wait and one execution observation per admitted request.
        assert_eq!(metrics.queue_wait.count, 8);
        assert_eq!(metrics.execution.count, 8);
        assert_eq!(metrics.queue_wait.buckets.iter().sum::<u64>(), 8);
        // The correlated statement drove statement-memo traffic.
        assert!(metrics.shared_memo_hits + metrics.shared_memo_misses > 0);
        assert!(metrics.plan_cache_hits + metrics.plan_cache_misses > 0);
        assert!(metrics.plan_cache_hit_rate() <= 1.0);
    }

    #[test]
    fn metrics_record_panics_restarts_and_retries() {
        use perm::{FaultKind, FaultPlan, FaultSite};
        let fault = FaultPlan::new(FaultKind::Panic, FaultSite::Operator, 5);
        let config = SessionConfig {
            fault_plan: Some(fault.clone()),
            ..SessionConfig::default()
        };
        let engine =
            ConcurrentEngine::new(Engine::new(serving_db()).with_config(config)).with_workers(2);
        let requests: Vec<Request> = (0..8)
            .map(|i| Request::sql(CORRELATED_SQL, vec![Value::Int(100 + i)]))
            .collect();
        let options = ServeOptions {
            retries: 1,
            ..ServeOptions::default()
        };
        let results = engine.serve_with_options(&requests, &options);
        assert!(fault.fired());
        assert!(results.iter().all(Result::is_ok));
        let metrics = engine.metrics();
        assert_eq!(metrics.worker_panics, 1);
        assert_eq!(metrics.worker_restarts, 1);
        assert_eq!(metrics.requests_retried, 1);
        assert_eq!(metrics.requests_served, 8);
        // The panicked attempt still cost an execution observation.
        assert_eq!(metrics.execution.count, 9);
    }

    #[test]
    fn prometheus_export_is_line_format_clean_and_covers_the_families() {
        let engine = ConcurrentEngine::new(Engine::new(serving_db())).with_workers(2);
        let requests: Vec<Request> = (0..4)
            .map(|i| Request::sql(CORRELATED_SQL, vec![Value::Int(100 + i)]))
            .collect();
        engine.serve(&requests);
        let text = engine.metrics().prometheus_text();
        assert_prometheus_parses(&text);
        for family in [
            "perm_requests_served_total",
            "perm_requests_rejected_total",
            "perm_queue_wait_micros_bucket",
            "perm_execution_micros_sum",
            "perm_execution_micros_count",
            "perm_plan_cache_hit_rate",
            "perm_shared_memo_hit_rate",
        ] {
            assert!(text.contains(family), "missing metric family {family}");
        }
        // Cumulative buckets end at +Inf with the total count.
        assert!(text.contains("perm_execution_micros_bucket{le=\"+Inf\"} 4"));
    }

    #[test]
    fn worker_sessions_surface_plan_cache_traffic_in_session_stats() {
        let engine = ConcurrentEngine::new(Engine::new(serving_db())).with_workers(1);
        let session = engine.session();
        let first = session.prepare(CORRELATED_SQL).unwrap();
        let second = session.prepare(CORRELATED_SQL).unwrap();
        assert!(
            Arc::ptr_eq(&first, &second),
            "hit returns the shared statement"
        );
        let stats: SessionStats = session.stats();
        assert_eq!(stats.plan_cache_misses, 1);
        assert_eq!(stats.plan_cache_hits, 1);
        assert_eq!(stats.compiles, 1, "the hit did not recompile");
    }
}
