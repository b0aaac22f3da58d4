//! The one stats surface: [`SessionStats`], the snapshot of the counter
//! registry an [`Executor`] owns.
//!
//! Every counter has exactly one storage cell — a field of the registry,
//! bumped at the site that does the work — except the four buffer-pool
//! figures, which the spill store's `perm_storage::BufferPool` keeps and
//! [`Executor::stats`] reads from it directly. The executor bumps its own
//! counters (operators, batches, memo lookups, checkpoints, spill bytes);
//! the session facade above it bumps the pipeline counters (parses, binds,
//! rewrites, optimizer rules, executions, plan-cache traffic, and the wall
//! time of each pipeline phase) through [`Executor::record`]. Adding a
//! counter is one field here and one increment at its site.

use crate::{Degradation, Executor};

/// The counters of one executor — and so of the session that owns it: the
/// pipeline work a session did, what execution cost, and how far memory
/// pressure pushed it. Snapshotted by [`Executor::stats`] (and the facade's
/// `Session::stats`, which returns the same value).
///
/// # Counter semantics
///
/// Every counter **accumulates monotonically over the executor's
/// lifetime**. Nothing resets between executions — not between two
/// executions of one prepared statement, not across statements.
/// Differencing two snapshots therefore attributes work to exactly the
/// executions in between, which is how the prepared-statement contract is
/// asserted: after a prepare, re-executing must advance `executions` (and
/// execution-side counters like `vectorized_batches` and `cancel_checks`)
/// while `parses`, `binds`, `rewrites` and `compiles` stay put.
///
/// Three fields are not event counters but still move monotonically:
/// [`SessionStats::peak_bytes`] and [`SessionStats::degradation`] are
/// high-water marks (the worst value ever observed, under byte and rung
/// ordering respectively), and [`SessionStats::buffer_pool_capacity`] is a
/// configuration gauge — 0 until the first spill creates the buffer pool,
/// then the pool's fixed frame count.
///
/// # Phase wall time
///
/// The six `*_ns` fields are not event counters either: each is the sum of
/// the wall time, in nanoseconds, of every *completed* run of one pipeline
/// phase — [`SessionStats::parse_ns`], [`SessionStats::bind_ns`],
/// [`SessionStats::rewrite_ns`], [`SessionStats::optimize_ns`],
/// [`SessionStats::compile_ns`] and [`SessionStats::execute_ns`]. The
/// session facade adds them; an executor used directly adds none. A phase
/// that fails adds nothing, a plan-cache hit runs none of the five
/// preparation phases, and a streaming cursor's pulls are not timed. The
/// difference of two snapshots is where the time in between went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// SQL texts parsed.
    pub parses: u64,
    /// Parsed queries bound against the catalog.
    pub binds: u64,
    /// Provenance rewrites performed.
    pub rewrites: u64,
    /// Optimizer rule applications across this session's fresh
    /// preparations (decorrelations + constant folds + predicate pushes +
    /// projection prunes). Like `compiles`, a plan-cache hit advances
    /// nothing — the cached statement was optimized by the session that
    /// prepared it.
    pub optimizer_rules_fired: u64,
    /// Sublinks this session's fresh preparations decorrelated into
    /// semi/anti joins (a subset of `optimizer_rules_fired`).
    pub sublinks_decorrelated: u64,
    /// Plans compiled to slot-resolved form by [`Executor::prepare`].
    pub compiles: u64,
    /// Statement executions (materialised or streaming).
    pub executions: u64,
    /// Preparations served from the engine's cross-session plan cache (each
    /// such prepare did zero parse/bind/rewrite/compile work anywhere — the
    /// statement was compiled by an earlier session).
    pub plan_cache_hits: u64,
    /// Preparations that ran the full pipeline and were published to the
    /// engine's plan cache (or ran privately, for sessions opened without
    /// an engine).
    pub plan_cache_misses: u64,
    /// Wall time spent parsing SQL, summed in nanoseconds.
    pub parse_ns: u64,
    /// Wall time spent binding parsed queries, summed in nanoseconds.
    pub bind_ns: u64,
    /// Wall time spent in provenance rewrites, summed in nanoseconds.
    pub rewrite_ns: u64,
    /// Wall time spent optimizing, summed in nanoseconds.
    pub optimize_ns: u64,
    /// Wall time spent compiling, summed in nanoseconds.
    pub compile_ns: u64,
    /// Wall time of the materialising executions (`Session::execute`,
    /// `Session::execute_profiled` and what calls them), summed in
    /// nanoseconds.
    pub execute_ns: u64,
    /// Operator invocations. Both the compiled and the interpreted path
    /// count one evaluation per operator node per invocation; a memo hit
    /// counts nothing, which is what makes the memoization win measurable.
    pub operators_evaluated: u64,
    /// Expression-over-batch evaluations performed by the vectorized
    /// compiled evaluator (one per expression per batch of up to
    /// [`crate::BATCH_ROWS`] rows; zero with [`Executor::with_batching`]
    /// off, where every row is evaluated as a batch of one).
    pub vectorized_batches: u64,
    /// Rows a correlated sublink was looked up for one at a time, each under
    /// its own bindings in the statement's memo (an uncorrelated sublink is
    /// looked up once per batch and counts nothing here). Counted alike
    /// whether batching is on or off.
    pub sublink_fallback_rows: u64,
    /// Column blocks whose typed lanes were actually materialised by the
    /// columnar evaluator (a block is counted on first lane access, not
    /// per batch; zero with [`Executor::with_columnar`] off).
    pub columnar_blocks: u64,
    /// Rows the columnar evaluator handed back to the row-major `Value`
    /// path — mixed-type or otherwise untyped lanes, lane pairings without
    /// a typed kernel, integer-overflow retries, and rows a correlated
    /// sublink was looked up for (which also count into
    /// [`SessionStats::sublink_fallback_rows`]). With typed lanes off every
    /// operator row over a slot counts here.
    pub columnar_fallback_rows: u64,
    /// Cancellation checkpoints polled by the executor (batch boundaries,
    /// cursor refills, sublink entries). The gap between two snapshots
    /// bounds how often a cancel or deadline could have been observed in
    /// between.
    pub cancel_checks: u64,
    /// Sublink lookups the memo of the executed statement served (no
    /// operator ran).
    pub memo_hits: u64,
    /// Sublink lookups that executed the sublink: memo misses, plus every
    /// evaluation of a sublink that has no key (memo off and correlated, or
    /// an unresolved correlation signature).
    pub memo_misses: u64,
    /// `ANY`/`ALL` result rows compared: on the interpreter, the rows each
    /// fold visits; on the compiled path, the rows each probe is built
    /// from — a memo hit counts nothing.
    pub quantifier_comparisons: u64,
    /// High-water mark of accounted bytes (operator state + memo entries)
    /// seen by the executor's budget accountant. Tracked whether or not a
    /// memory budget is set whenever memo entries exist; transient operator
    /// state is only accounted under a budget.
    pub peak_bytes: u64,
    /// Total payload bytes written to spill files (grace-join partitions,
    /// sort runs, aggregate partitions). Zero unless spilling is on
    /// ([`Executor::with_spill`]) and pressure occurred.
    pub spilled_bytes: u64,
    /// Spill partition files and sort runs created.
    pub spill_partitions: u64,
    /// Buffer-pool hits while reading spill files back.
    pub buffer_pool_hits: u64,
    /// Buffer-pool misses (page loads from disk) while reading spill files.
    pub buffer_pool_misses: u64,
    /// Pages evicted from the spill-file buffer pool to admit new ones —
    /// the churn signal that, next to the hit/miss split, tells an
    /// undersized pool from a cold one.
    pub buffer_pool_evictions: u64,
    /// Frame capacity of the spill-file buffer pool (a gauge, not a
    /// counter; zero until the first spill creates the pool).
    pub buffer_pool_capacity: u64,
    /// Worst [`Degradation`] rung the executor reached under memory
    /// pressure: `None` (never over budget), `SpilledToDisk` (state moved
    /// to disk, no work lost), `ReclaimedMemos` (cached sublink summaries
    /// dropped) or `Exhausted` (a query failed).
    pub degradation: Degradation,
}

impl Executor<'_> {
    /// A snapshot of this executor's counters — the one reader of the
    /// registry (see [`SessionStats`] for what each field counts).
    pub fn stats(&self) -> SessionStats {
        self.governor.stats()
    }

    /// Adds work the layer above did on this executor's behalf to its
    /// counters: `f` bumps fields of the registry [`Executor::stats`]
    /// snapshots. This is how a session counts its parses, binds,
    /// rewrites, optimizer rules, executions and plan-cache traffic.
    pub fn record(&self, f: impl FnOnce(&mut SessionStats)) {
        f(&mut self.governor.count());
    }

    // The getters below read one field of `stats()` each. The benchmark
    // calls them; they stay until its per-layer metrics read `stats()`
    // (ROADMAP item 1e).

    /// [`SessionStats::operators_evaluated`].
    pub fn operators_evaluated(&self) -> u64 {
        self.stats().operators_evaluated
    }

    /// [`SessionStats::vectorized_batches`].
    pub fn batches_vectorized(&self) -> u64 {
        self.stats().vectorized_batches
    }

    /// [`SessionStats::sublink_fallback_rows`].
    pub fn batch_fallback_rows(&self) -> u64 {
        self.stats().sublink_fallback_rows
    }

    /// [`SessionStats::columnar_fallback_rows`].
    pub fn columnar_fallback_rows(&self) -> u64 {
        self.stats().columnar_fallback_rows
    }

    /// [`SessionStats::spilled_bytes`].
    pub fn spilled_bytes(&self) -> u64 {
        self.stats().spilled_bytes
    }

    /// [`SessionStats::spill_partitions`].
    pub fn spill_partitions(&self) -> u64 {
        self.stats().spill_partitions
    }

    /// [`SessionStats::buffer_pool_hits`].
    pub fn buffer_pool_hits(&self) -> u64 {
        self.stats().buffer_pool_hits
    }

    /// [`SessionStats::buffer_pool_misses`].
    pub fn buffer_pool_misses(&self) -> u64 {
        self.stats().buffer_pool_misses
    }

    /// [`SessionStats::buffer_pool_evictions`].
    pub fn buffer_pool_evictions(&self) -> u64 {
        self.stats().buffer_pool_evictions
    }
}
