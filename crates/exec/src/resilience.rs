//! Serving-grade resilience: cooperative cancellation, deadlines, memory
//! budgets, and deterministic fault injection.
//!
//! A production engine must be able to *stop* a query: a runaway correlated
//! sublink (the exact workload the provenance rewrites amplify — Figure 7 of
//! the paper scales operator counts superlinearly) would otherwise run to
//! completion or exhaust memory. This module supplies the substrate that the
//! executor threads through every physical-operator loop:
//!
//! * [`CancelToken`] — a cheaply clonable, thread-safe handle combining an
//!   explicit cancel flag with an optional deadline. The executor polls it
//!   at **batch boundaries** (every [`crate::BATCH_ROWS`] rows of operator
//!   work), at streaming-cursor refills, and on entry to a memoized sublink
//!   execution, so a cancelled query returns within one batch worth of work
//!   as `ExecError::Cancelled` rather than running to completion.
//! * A memory **budget** (installed via `Executor::with_memory_budget`):
//!   a per-executor byte accountant charged by the operator state that can
//!   actually grow without bound — hash-join build tables and candidate
//!   buffers, aggregation group state, sort buffers — and by every sublink
//!   memo insertion (the memo of every statement the executor runs has
//!   byte-aware accounting, not just entry counts). The reference
//!   interpreter's per-execution memo is outside all of this: neither
//!   budgeted, nor traced, nor a fault site — the reference path is not a
//!   serving path. On pressure the executor walks a **degradation
//!   ladder**, each rung it pays for recorded on [`Degradation`] so the
//!   session can surface how far it had to go:
//!
//!   1. *Drop memos*: every statement memo is cleared — losing only
//!      speed, never correctness, since a memo miss simply re-executes the
//!      sublink. An entry whose insert the budget refuses is not kept
//!      either: the next lookup rebuilds it. Nothing is persisted: a
//!      compiled-path entry is a small summary of the sublink's result,
//!      not the result.
//!   2. *Spill to disk* (when enabled via `Executor::with_spill`): when
//!      dropping the memos did not free enough, the growing operators move
//!      their state out of core (grace hash join, external merge sort,
//!      partitioned aggregation in `crate::physical`). Costs only I/O,
//!      never recomputation.
//!   3. *Fail*: only when neither frees enough does the query fail with
//!      `ExecError::ResourceExhausted`, naming the operator.
//! * [`FaultPlan`] — a deterministic fault injector for crash-consistency
//!   testing: it fires a cancellation, a budget exhaustion, or an injected
//!   panic at the *N*-th checkpoint / memo-insert / operator event.
//!   Triggers are count-based — no wall clock, no randomness — so a fault
//!   sweep over the differential corpus is exactly reproducible.
//!
//! All polling is **cooperative**: nothing is interrupted mid-batch, so an
//! aborted query never leaves a statement's memo or a worker in a partial
//! state — the fault-injection sweep in `tests/differential.rs` pins this
//! down by demanding either the exact reference bag or a single clean typed
//! error.

use crate::memo::StatementMemo;
use crate::spill::SpillManager;
use crate::trace::{TraceEvent, TraceKind, TraceSink};
use crate::{ExecError, Result, SessionStats};
use perm_storage::{Relation, Tuple, Value};
use std::cell::{Cell, RefCell, RefMut};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// CancelToken
// ---------------------------------------------------------------------------

/// How many checkpoints pass between deadline clock probes. Explicit
/// cancellation (the atomic flag) is honoured at every checkpoint; only the
/// `Instant::now()` comparison is strided, because on checkpoint-dense plans
/// (a correlated sublink per outer row) the clock read alone would dominate
/// the checkpoint's cost. A deadline therefore trips at most 63 checkpoints
/// late — microseconds of extra work, far below batch granularity.
const DEADLINE_STRIDE: u64 = 64;

#[derive(Debug)]
struct TokenInner {
    flag: AtomicBool,
    deadline: Option<Instant>,
    reason: OnceLock<String>,
}

/// A cooperative cancellation handle: a shared flag plus an optional
/// deadline.
///
/// Cloning is cheap (an `Arc` bump) and the token is `Send + Sync`, so the
/// handle returned by `Rows::cancel_handle` or minted for a
/// `SessionConfig` deadline can be cancelled from another thread while the
/// executor polls it between batches. Once cancelled (explicitly or by the
/// deadline passing) a token stays cancelled; sessions mint a fresh token
/// per execution so a stale cancel never leaks into the next query.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl CancelToken {
    /// A token with no deadline; cancels only via [`CancelToken::cancel`].
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Arc::new(TokenInner {
                flag: AtomicBool::new(false),
                deadline: None,
                reason: OnceLock::new(),
            }),
        }
    }

    /// A token that additionally cancels itself once `deadline` has passed
    /// (checked at every executor checkpoint).
    pub fn with_deadline(deadline: Duration) -> CancelToken {
        CancelToken {
            inner: Arc::new(TokenInner {
                flag: AtomicBool::new(false),
                deadline: Some(Instant::now() + deadline),
                reason: OnceLock::new(),
            }),
        }
    }

    /// Requests cancellation with a human-readable reason. The first reason
    /// wins; later calls only re-assert the flag.
    pub fn cancel(&self, reason: &str) {
        let _ = self.inner.reason.set(reason.to_string());
        self.inner.flag.store(true, Ordering::Release);
    }

    /// `true` once the token is cancelled or its deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.flag.load(Ordering::Acquire) {
            return true;
        }
        match self.inner.deadline {
            Some(d) => Instant::now() >= d,
            None => false,
        }
    }

    /// Returns `Err(ExecError::Cancelled)` once cancelled, `Ok(())` before.
    pub fn check(&self) -> Result<()> {
        self.check_inner(true)
    }

    /// The flag-only variant the executor uses between clock strides:
    /// reading the clock costs more than the entire rest of a checkpoint,
    /// so the deadline is probed only every [`DEADLINE_STRIDE`]-th
    /// checkpoint while explicit [`CancelToken::cancel`] calls (an atomic
    /// flag) are still honoured at every single one.
    pub(crate) fn check_flag(&self) -> Result<()> {
        self.check_inner(false)
    }

    fn check_inner(&self, probe_clock: bool) -> Result<()> {
        if self.inner.flag.load(Ordering::Acquire) {
            return Err(ExecError::Cancelled {
                reason: self
                    .inner
                    .reason
                    .get()
                    .cloned()
                    .unwrap_or_else(|| "cancelled".to_string()),
            });
        }
        if probe_clock {
            if let Some(d) = self.inner.deadline {
                if Instant::now() >= d {
                    return Err(ExecError::Cancelled {
                        reason: "deadline exceeded".to_string(),
                    });
                }
            }
        }
        Ok(())
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

// ---------------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------------

/// What an injected fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The event returns `ExecError::Cancelled`, as if a token fired.
    Cancel,
    /// The event returns `ExecError::ResourceExhausted`, as if the budget
    /// ran dry at that point.
    Exhaust,
    /// The event panics — the poisoned-query case `catch_unwind` isolation
    /// and lock-poison recovery are tested against.
    Panic,
}

/// Which executor event stream the fault counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Batch-boundary cancellation checkpoints (including cursor refills).
    Checkpoint,
    /// Sublink-memo insertions into a compiled statement's memo (the
    /// reference interpreter's memo is not a fault site).
    MemoInsert,
    /// Physical-operator invocations (one event per logical operator).
    Operator,
}

#[derive(Debug)]
struct FaultInner {
    kind: FaultKind,
    site: FaultSite,
    /// The 1-based event ordinal the fault fires at.
    at: u64,
    /// Events observed at the fault's site so far.
    seen: AtomicU64,
    fired: AtomicBool,
}

/// A deterministic, count-based fault injector.
///
/// `FaultPlan::new(kind, site, n)` fires `kind` at the `n`-th event of
/// `site` (1-based). Triggers are pure event counts — no wall clock, no
/// randomness — so an injected fault lands at exactly the same point on
/// every run of the same plan. The handle is cheaply clonable and
/// thread-safe; after a run, [`FaultPlan::fired`] and
/// [`FaultPlan::events_seen`] let a test assert not only *that* the fault
/// fired but that the executor stopped doing work immediately afterwards
/// (no further events at the site).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    inner: Arc<FaultInner>,
}

impl FaultPlan {
    /// A fault of `kind` firing at the `n`-th event of `site` (1-based;
    /// `n = 0` never fires).
    pub fn new(kind: FaultKind, site: FaultSite, n: u64) -> FaultPlan {
        FaultPlan {
            inner: Arc::new(FaultInner {
                kind,
                site,
                at: n,
                seen: AtomicU64::new(0),
                fired: AtomicBool::new(false),
            }),
        }
    }

    /// `true` once the fault has fired.
    pub fn fired(&self) -> bool {
        self.inner.fired.load(Ordering::Acquire)
    }

    /// Number of events observed at the fault's site so far.
    pub fn events_seen(&self) -> u64 {
        self.inner.seen.load(Ordering::Acquire)
    }

    /// Records one event at `site`; fires if this is the `n`-th.
    fn observe(&self, site: FaultSite, operator: &str) -> Result<()> {
        if site != self.inner.site || self.inner.at == 0 {
            return Ok(());
        }
        let seen = self.inner.seen.fetch_add(1, Ordering::AcqRel) + 1;
        if seen != self.inner.at {
            return Ok(());
        }
        self.inner.fired.store(true, Ordering::Release);
        match self.inner.kind {
            FaultKind::Cancel => Err(ExecError::Cancelled {
                reason: format!("injected cancellation at {site:?} #{seen}"),
            }),
            FaultKind::Exhaust => Err(ExecError::ResourceExhausted {
                operator: operator.to_string(),
            }),
            FaultKind::Panic => panic!("injected panic at {site:?} #{seen} ({operator})"),
        }
    }
}

// ---------------------------------------------------------------------------
// Byte estimators
// ---------------------------------------------------------------------------

/// Approximate heap footprint of one value, in bytes.
pub(crate) fn value_bytes(v: &Value) -> u64 {
    let base = std::mem::size_of::<Value>() as u64;
    match v {
        Value::Str(s) => base + s.capacity() as u64,
        _ => base,
    }
}

/// Approximate heap footprint of one tuple. Counts the value vector's
/// *capacity*, not just its length — rows assembled by repeated pushes keep
/// spare slots allocated, exactly like `Value::Str` keeps spare string
/// capacity in [`value_bytes`].
pub(crate) fn tuple_bytes(t: &Tuple) -> u64 {
    let spare = (t.capacity() - t.arity()) * std::mem::size_of::<Value>();
    std::mem::size_of::<Tuple>() as u64
        + spare as u64
        + t.values().iter().map(value_bytes).sum::<u64>()
}

/// Approximate heap footprint of a materialised relation.
pub(crate) fn relation_bytes(r: &Relation) -> u64 {
    std::mem::size_of::<Relation>() as u64
        + r.tuples().iter().map(tuple_bytes).sum::<u64>()
        + r.schema().arity() as u64 * 16
}

/// Per-entry byte cost of a memoized value — implemented by the value types
/// the sublink memos store, so `MemoMap` / `StatementMemo` can account
/// bytes rather than just entries.
pub(crate) trait MemoCost {
    /// Approximate heap footprint of this memoized value.
    fn cost_bytes(&self) -> u64;
}

// ---------------------------------------------------------------------------
// Governor
// ---------------------------------------------------------------------------

/// How far the executor has degraded under memory pressure, ordered from
/// best to worst. The governor records the worst rung reached, and the
/// session surfaces it (`SessionStats::degradation`) so callers can tell a
/// query that merely ran slower from one that shed cached work or died.
///
/// The ordering encodes what each rung costs, not the order the governor
/// tries them in: spilling operator state preserves every computed result
/// (pure I/O cost), dropping the statements' memos forfeits cached sublink
/// summaries (recomputation cost), and exhaustion fails the query. On
/// pressure the governor drops the memos first and spills only if that did
/// not free enough, so a query that did both reports `ReclaimedMemos`. The
/// reference interpreter's memo is never accounted, so it moves no rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Degradation {
    /// The budget (if any) was never exceeded.
    #[default]
    None,
    /// Operator state moved to spill files; every result stayed available,
    /// only I/O was paid.
    SpilledToDisk,
    /// Accounted statement memos were cleared under pressure — later
    /// sublink misses re-execute.
    ReclaimedMemos,
    /// Spilling and reclaiming did not free enough; a query failed with
    /// `ExecError::ResourceExhausted`.
    Exhausted,
}

/// The executor's resilience state: the installed cancel token, fault plan,
/// memory budget and trace sink, plus the executor's counter registry.
///
/// The governor is owned by the executor and polled from the shared
/// physical-operator layer; it is deliberately `!Sync` (like the executor)
/// — what crosses threads are the [`CancelToken`] / [`FaultPlan`] handles
/// and the trace sink, not the governor itself.
pub(crate) struct Governor {
    cancel: RefCell<Option<CancelToken>>,
    fault: RefCell<Option<FaultPlan>>,
    budget: Cell<Option<u64>>,
    /// Transient operator bytes currently charged (join/aggregate/sort
    /// state); memo bytes are queried from the accounted memos instead of
    /// charged, so memo-internal eviction is always reflected exactly.
    transient: Cell<u64>,
    /// The counter registry: one cell per [`SessionStats`] field, bumped
    /// through [`Governor::count`] where the work happens — here
    /// (`cancel_checks`, `peak_bytes`, `degradation`), in the physical
    /// operators, the evaluators and the session above. The four
    /// buffer-pool fields stay zero: the pool keeps those, and
    /// [`Governor::stats`] reads them from it.
    counters: RefCell<SessionStats>,
    /// Checkpoints until the next deadline clock probe; reset whenever a
    /// token is installed, so every execution probes at its first
    /// checkpoint (an already-expired deadline cancels before any work).
    until_probe: Cell<u64>,
    /// The memo of every statement this executor has run, held weakly (a
    /// dropped statement frees its memo) and once each.
    statement_memos: RefCell<Vec<Weak<StatementMemo>>>,
    /// Whether spill-to-disk degradation is enabled (`Executor::with_spill`).
    spill_enabled: Cell<bool>,
    /// Base directory for spill files (`None` = system temp dir).
    spill_dir: RefCell<Option<PathBuf>>,
    /// The live spill manager, created lazily at the first pressure point
    /// that needs it — an executor that never hits its budget never touches
    /// the filesystem.
    spill: RefCell<Option<Rc<SpillManager>>>,
    /// Set when creating the spill directory failed once; the governor then
    /// degrades as if spilling were disabled instead of retrying every
    /// charge.
    spill_failed: Cell<bool>,
    /// The trace sink the governor and the memo seams write
    /// [`TraceEvent`]s into, if one is installed.
    trace: RefCell<Option<Arc<dyn TraceSink>>>,
}

impl Governor {
    pub(crate) fn new() -> Governor {
        Governor {
            cancel: RefCell::new(None),
            fault: RefCell::new(None),
            budget: Cell::new(None),
            transient: Cell::new(0),
            counters: RefCell::new(SessionStats::default()),
            until_probe: Cell::new(0),
            statement_memos: RefCell::new(Vec::new()),
            spill_enabled: Cell::new(false),
            spill_dir: RefCell::new(None),
            spill: RefCell::new(None),
            spill_failed: Cell::new(false),
            trace: RefCell::new(None),
        }
    }

    /// The counter registry, borrowed for one increment:
    /// `gov.count().memo_hits += 1`.
    pub(crate) fn count(&self) -> RefMut<'_, SessionStats> {
        self.counters.borrow_mut()
    }

    /// A snapshot of the registry, with the buffer-pool fields read from
    /// the spill manager's pool (zero before the first spill creates it).
    pub(crate) fn stats(&self) -> SessionStats {
        let mut stats = *self.counters.borrow();
        if let Some(spill) = self.spill.borrow().as_ref() {
            let pool = spill.pool();
            stats.buffer_pool_hits = pool.hits();
            stats.buffer_pool_misses = pool.misses();
            stats.buffer_pool_evictions = pool.evictions();
            stats.buffer_pool_capacity = pool.capacity() as u64;
        }
        stats
    }

    /// Installs (or clears) the trace sink.
    pub(crate) fn set_trace_sink(&self, sink: Option<Arc<dyn TraceSink>>) {
        *self.trace.borrow_mut() = sink;
    }

    /// Records a trace event when (and only when) a sink is installed — the
    /// closure defers any allocation the event needs to the sink-present
    /// branch, so untraced executions pay one `Option` check.
    pub(crate) fn emit(&self, event: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.trace.borrow().as_ref() {
            sink.record(event());
        }
    }

    pub(crate) fn set_cancel_token(&self, token: Option<CancelToken>) {
        self.until_probe.set(0);
        *self.cancel.borrow_mut() = token;
    }

    /// Returns the installed token, installing a fresh one if none is set —
    /// the lazy path behind `Rows::cancel_handle`.
    pub(crate) fn ensure_cancel_token(&self) -> CancelToken {
        let mut slot = self.cancel.borrow_mut();
        slot.get_or_insert_with(CancelToken::new).clone()
    }

    pub(crate) fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        *self.fault.borrow_mut() = plan;
    }

    pub(crate) fn set_budget(&self, bytes: Option<u64>) {
        self.budget.set(bytes);
    }

    pub(crate) fn budget(&self) -> Option<u64> {
        self.budget.get()
    }

    pub(crate) fn set_spill_enabled(&self, enabled: bool) {
        self.spill_enabled.set(enabled);
    }

    pub(crate) fn set_spill_dir(&self, dir: Option<PathBuf>) {
        *self.spill_dir.borrow_mut() = dir;
    }

    /// The live spill manager, creating it on first use. `None` when
    /// spilling is disabled or the spill directory could not be created
    /// (the latter is remembered, so a broken directory degrades to the
    /// no-spill ladder instead of retrying on every charge).
    pub(crate) fn spill(&self) -> Option<Rc<SpillManager>> {
        if !self.spill_enabled.get() || self.spill_failed.get() {
            return None;
        }
        if let Some(mgr) = self.spill.borrow().as_ref() {
            return Some(Rc::clone(mgr));
        }
        match SpillManager::create(self.spill_dir.borrow().as_deref()) {
            Ok(mgr) => {
                let mgr = Rc::new(mgr);
                *self.spill.borrow_mut() = Some(Rc::clone(&mgr));
                Some(mgr)
            }
            Err(_) => {
                self.spill_failed.set(true);
                None
            }
        }
    }

    /// Records a degradation rung, keeping the worst one seen; a transition
    /// to a worse rung is traced.
    pub(crate) fn note_rung(&self, rung: Degradation) {
        if rung > self.counters.borrow().degradation {
            self.count().degradation = rung;
            self.emit(|| TraceEvent::new(TraceKind::Rung, format!("{rung:?}"), 0));
        }
    }

    /// Accounts a statement's memo from its first execution on: held
    /// weakly, once, and forgotten after the statement is dropped. (A
    /// `Weak` keeps its allocation, so a live memo never reuses the address
    /// of a dropped one.)
    pub(crate) fn track_statement_memo(&self, memo: &Arc<StatementMemo>) {
        let mut memos = self.statement_memos.borrow_mut();
        if memos.iter().any(|m| m.as_ptr() == Arc::as_ptr(memo)) {
            return;
        }
        memos.retain(|m| m.strong_count() > 0);
        memos.push(Arc::downgrade(memo));
    }

    fn memo_bytes(&self) -> u64 {
        self.statement_memos
            .borrow()
            .iter()
            .filter_map(Weak::upgrade)
            .map(|m| m.bytes())
            .sum()
    }

    fn note_peak(&self) -> u64 {
        let used = self.transient.get() + self.memo_bytes();
        let mut counters = self.count();
        counters.peak_bytes = counters.peak_bytes.max(used);
        used
    }

    /// A batch-boundary cancellation checkpoint: counts the check, gives an
    /// injected fault its chance to fire, then polls the token/deadline.
    /// A checkpoint that *fires* (returns `Err`) is traced — the trace
    /// records where a cancellation actually landed, not every poll.
    pub(crate) fn checkpoint(&self, operator: &str) -> Result<()> {
        let result = self.checkpoint_inner(operator);
        if result.is_err() {
            self.emit(|| TraceEvent::new(TraceKind::CancelFired, operator, 0));
        }
        result
    }

    fn checkpoint_inner(&self, operator: &str) -> Result<()> {
        self.count().cancel_checks += 1;
        if let Some(fault) = self.fault.borrow().as_ref() {
            fault.observe(FaultSite::Checkpoint, operator)?;
        }
        if let Some(token) = self.cancel.borrow().as_ref() {
            // The first checkpoint after a token is installed probes the
            // clock (so an already-expired deadline cancels before any
            // work), then only every stride-th one does; the cancel flag
            // is read every time.
            match self.until_probe.get() {
                0 => {
                    self.until_probe.set(DEADLINE_STRIDE - 1);
                    token.check()?;
                }
                left => {
                    self.until_probe.set(left - 1);
                    token.check_flag()?;
                }
            }
        }
        Ok(())
    }

    /// A physical-operator invocation event (fault injection only — the
    /// `operators_evaluated` diagnostic counter is untouched).
    pub(crate) fn operator_event(&self, operator: &str) -> Result<()> {
        if let Some(fault) = self.fault.borrow().as_ref() {
            fault.observe(FaultSite::Operator, operator)?;
        }
        Ok(())
    }

    /// Drops the entries of every accounted memo and records the matching
    /// degradation rung.
    fn reclaim_memos(&self) {
        let freed: u64 = self
            .statement_memos
            .borrow()
            .iter()
            .filter_map(Weak::upgrade)
            .map(|m| m.reclaim())
            .sum();
        if freed > 0 {
            self.note_rung(Degradation::ReclaimedMemos);
        }
    }

    /// Charges `bytes` of transient operator state against the budget.
    /// On pressure, reclaims the accounted memos first (losing speed, not
    /// correctness) and fails with `ExecError::ResourceExhausted` only if
    /// that does not free enough.
    pub(crate) fn charge(&self, operator: &str, bytes: u64) -> Result<()> {
        self.charge_inner(operator, bytes, false).map(|_| ())
    }

    /// Spill-aware charge: like [`Governor::charge`], but when the charge
    /// cannot fit even after memo reclaim *and* spilling is available, the
    /// bytes are backed out and `Ok(false)` tells the operator to move its
    /// state to disk instead of failing. `Ok(false)` guarantees
    /// [`Governor::spill`] returns a live manager.
    pub(crate) fn try_charge(&self, operator: &str, bytes: u64) -> Result<bool> {
        self.charge_inner(operator, bytes, true)
    }

    fn charge_inner(&self, operator: &str, bytes: u64, spillable: bool) -> Result<bool> {
        self.transient.set(self.transient.get() + bytes);
        let used = self.note_peak();
        if let Some(budget) = self.budget.get() {
            if used > budget {
                self.reclaim_memos();
                if self.transient.get() + self.memo_bytes() > budget {
                    // Back the charge out either way: on `Ok(false)` the
                    // caller's state moves to disk instead of growing, and
                    // on error it never grew — leaking the bytes here would
                    // poison every later charge of the session.
                    self.credit(bytes);
                    if spillable && self.spill().is_some() {
                        self.note_rung(Degradation::SpilledToDisk);
                        return Ok(false);
                    }
                    self.note_rung(Degradation::Exhausted);
                    return Err(ExecError::ResourceExhausted {
                        operator: operator.to_string(),
                    });
                }
            }
        }
        Ok(true)
    }

    /// Returns transient bytes previously charged (operator state that was
    /// dropped or handed off as the operator's output).
    pub(crate) fn credit(&self, bytes: u64) {
        self.transient
            .set(self.transient.get().saturating_sub(bytes));
    }

    /// Returns a transient-state charge for `operator` when a budget is
    /// installed, `None` otherwise — so operators skip byte estimation
    /// entirely when nobody is accounting.
    pub(crate) fn transient(&self, operator: &'static str) -> Option<TransientCharge<'_>> {
        self.budget
            .get()
            .map(|_| TransientCharge::new(self, operator))
    }

    /// A memo-insertion event: gives an injected fault its chance to fire,
    /// then checks the budget for `cost` incoming bytes — reclaiming memos
    /// on pressure before giving up. Returns `Ok(true)` when the insert may
    /// proceed, `Ok(false)` when the entry alone cannot fit (the caller
    /// skips memoization — a pure speed loss).
    pub(crate) fn memo_insert_event(&self, operator: &str, cost: u64) -> Result<bool> {
        if let Some(fault) = self.fault.borrow().as_ref() {
            fault.observe(FaultSite::MemoInsert, operator)?;
        }
        self.emit(|| TraceEvent::new(TraceKind::MemoInsert, operator, cost));
        let budget = match self.budget.get() {
            Some(b) => b,
            None => {
                self.note_peak();
                return Ok(true);
            }
        };
        if self.note_peak() + cost > budget {
            self.reclaim_memos();
            if self.transient.get() + self.memo_bytes() + cost > budget {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// RAII charge for one operator's transient state: grows against the budget
/// during execution and credits everything back when the operator returns
/// (its buffers having been dropped or moved into the output relation).
pub(crate) struct TransientCharge<'g> {
    gov: &'g Governor,
    operator: &'static str,
    charged: u64,
}

impl<'g> TransientCharge<'g> {
    pub(crate) fn new(gov: &'g Governor, operator: &'static str) -> TransientCharge<'g> {
        TransientCharge {
            gov,
            operator,
            charged: 0,
        }
    }

    /// Charges `bytes` more of state growth.
    pub(crate) fn grow(&mut self, bytes: u64) -> Result<()> {
        self.gov.charge(self.operator, bytes)?;
        self.charged += bytes;
        Ok(())
    }

    /// Spill-aware growth: `Ok(true)` records the bytes like
    /// [`TransientCharge::grow`]; `Ok(false)` means the state cannot stay
    /// in memory and the operator should spill it (a live spill manager is
    /// guaranteed); the error is the no-spill exhaustion.
    pub(crate) fn try_grow(&mut self, bytes: u64) -> Result<bool> {
        if self.gov.try_charge(self.operator, bytes)? {
            self.charged += bytes;
            return Ok(true);
        }
        Ok(false)
    }

    /// Credits everything recorded so far — called when the operator's
    /// in-memory state has just moved to disk (or been flushed to its
    /// output), so the budget reflects the now-empty buffers immediately
    /// instead of at operator exit.
    pub(crate) fn release(&mut self) {
        self.gov.credit(self.charged);
        self.charged = 0;
    }
}

impl Drop for TransientCharge<'_> {
    fn drop(&mut self) {
        self.gov.credit(self.charged);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_trips_once_and_keeps_its_reason() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        assert!(token.check().is_ok());
        token.cancel("operator asked");
        assert!(token.is_cancelled());
        match token.check() {
            Err(ExecError::Cancelled { reason }) => assert_eq!(reason, "operator asked"),
            other => panic!("expected Cancelled, got {other:?}"),
        }
        // A second cancel does not overwrite the first reason.
        token.cancel("later");
        match token.check() {
            Err(ExecError::Cancelled { reason }) => assert_eq!(reason, "operator asked"),
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_cancels_without_an_explicit_cancel() {
        let token = CancelToken::with_deadline(Duration::from_secs(0));
        assert!(token.is_cancelled());
        assert!(matches!(token.check(), Err(ExecError::Cancelled { .. })));
    }

    #[test]
    fn fault_plan_fires_exactly_at_the_nth_event_of_its_site() {
        let plan = FaultPlan::new(FaultKind::Cancel, FaultSite::Checkpoint, 3);
        // Events at other sites never count.
        assert!(plan.observe(FaultSite::Operator, "join").is_ok());
        assert!(plan.observe(FaultSite::Checkpoint, "scan").is_ok());
        assert!(plan.observe(FaultSite::Checkpoint, "scan").is_ok());
        assert!(!plan.fired());
        assert!(matches!(
            plan.observe(FaultSite::Checkpoint, "scan"),
            Err(ExecError::Cancelled { .. })
        ));
        assert!(plan.fired());
        assert_eq!(plan.events_seen(), 3);
    }

    #[test]
    fn governor_reclaims_memos_before_failing_a_charge() {
        use crate::quant::SublinkSummary;
        let gov = Governor::new();
        gov.set_budget(Some(1000));
        // One statement memo holding ~900 bytes: a long key (the encoded
        // bindings) over an `EXISTS` flag.
        let memo = StatementMemo::new(None);
        memo.insert(vec![0; 800], Arc::new(SublinkSummary::Exists(true)));
        let held = memo.bytes();
        assert!(held > 800 && held + 200 > 1000, "{held} bytes");
        gov.track_statement_memo(&memo);
        // 200 transient + the memo > 1000 → the memo is evicted, after
        // which 200 fits comfortably.
        assert!(gov.charge("join", 200).is_ok());
        assert_eq!(memo.bytes(), 0, "memo reclaimed under pressure");
        assert_eq!(gov.stats().degradation, Degradation::ReclaimedMemos);
        assert!(
            gov.stats().peak_bytes >= 200 + held,
            "peak saw the pressure point"
        );
        // A charge that cannot fit even after reclaim names the operator.
        match gov.charge("join", 2000) {
            Err(ExecError::ResourceExhausted { operator }) => assert_eq!(operator, "join"),
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
    }

    #[test]
    fn transient_charge_credits_back_on_drop() {
        let gov = Governor::new();
        {
            let mut charge = TransientCharge::new(&gov, "sort");
            charge.grow(512).unwrap();
            assert_eq!(gov.transient.get(), 512);
        }
        assert_eq!(gov.transient.get(), 0);
        assert_eq!(gov.stats().peak_bytes, 512);
    }

    #[test]
    fn failed_charge_backs_its_bytes_out() {
        let gov = Governor::new();
        gov.set_budget(Some(1000));
        assert!(gov.charge("join", 400).is_ok());
        assert!(matches!(
            gov.charge("join", 5000),
            Err(ExecError::ResourceExhausted { .. })
        ));
        // The rejected charge must not stay accounted: a 500-byte charge
        // still fits under the 1000-byte budget.
        assert_eq!(gov.transient.get(), 400);
        assert!(gov.charge("join", 500).is_ok());
        assert_eq!(gov.stats().degradation, Degradation::Exhausted);
    }

    #[test]
    fn try_grow_reports_spill_and_release_credits_immediately() {
        let gov = Governor::new();
        gov.set_budget(Some(1000));
        let dir = std::env::temp_dir();
        gov.set_spill_enabled(true);
        gov.set_spill_dir(Some(dir));
        let mut charge = TransientCharge::new(&gov, "sort");
        assert!(charge.try_grow(600).unwrap(), "fits under the budget");
        // Over budget with spilling on: the growth is refused (not an
        // error), the refused bytes are backed out, and a manager is live.
        assert!(!charge.try_grow(600).unwrap());
        assert_eq!(gov.transient.get(), 600);
        assert!(gov.spill().is_some());
        assert_eq!(gov.stats().degradation, Degradation::SpilledToDisk);
        // The operator moved its state to disk: release frees the budget
        // now, and the charge's drop has nothing left to credit.
        charge.release();
        assert_eq!(gov.transient.get(), 0);
        assert!(charge.try_grow(600).unwrap());
        drop(charge);
        assert_eq!(gov.transient.get(), 0);
    }

    #[test]
    fn try_grow_without_spill_matches_plain_charge() {
        let gov = Governor::new();
        gov.set_budget(Some(100));
        let mut charge = TransientCharge::new(&gov, "aggregate");
        match charge.try_grow(500) {
            Err(ExecError::ResourceExhausted { operator }) => assert_eq!(operator, "aggregate"),
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
        assert_eq!(gov.stats().degradation, Degradation::Exhausted);
    }

    #[test]
    fn tuple_bytes_counts_spare_vector_and_string_capacity() {
        let value_size = std::mem::size_of::<Value>() as u64;
        // Spare Vec capacity is charged like live slots.
        let mut values = Vec::with_capacity(10);
        values.push(Value::Int(1));
        values.push(Value::Int(2));
        let roomy = Tuple::new(values);
        let tight = Tuple::new(vec![Value::Int(1), Value::Int(2)]);
        assert!(roomy.capacity() >= 10);
        assert_eq!(
            tuple_bytes(&roomy) - tuple_bytes(&tight),
            (roomy.capacity() - tight.capacity()) as u64 * value_size
        );
        // Spare String capacity is charged, not just the live length.
        let mut s = String::with_capacity(100);
        s.push_str("ab");
        assert_eq!(value_bytes(&Value::Str(s)), value_size + 100);
    }
}
