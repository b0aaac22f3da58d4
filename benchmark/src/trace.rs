//! The traced run: staged rounds with a span around every call into a
//! layer, and the per-layer metrics they add up to.
//!
//! A per-layer value is the median over the traced rounds of that round's
//! sum over all kinds (`*_ms`: span self time; counts: as counted by the
//! layer). Rates and ratios are taken per round from those sums.

use crate::json::Json;
use crate::ops::{self, Staged, OP_CLASSES, PHASES};
use crate::runner::{Op, Ready};
use crate::span::Recorder;
use crate::stats;
use crate::workloads::{plain_query, Inputs, QueryInputs, ServeInputs, SERVE_BATCH};
use perm::Engine;
use perm_serve::{ConcurrentEngine, MetricsSnapshot};
use perm_storage::{StorageManager, DEFAULT_POOL_PAGES};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Counts that must repeat exactly for the same seed. Memo hits and misses
/// are exact single-threaded too but depend on nothing the others do not.
const EXACT: [&str; 18] = [
    "sql.bound_plan_nodes",
    "core.rewritten_plan_nodes",
    "core.witness_cols",
    "optimize.rules_fired",
    "optimize.sublinks_decorrelated",
    "optimize.sublinks_remaining",
    "optimize.plan_nodes_out",
    "execute.operators_evaluated",
    "execute.sublink_invocations",
    "execute.vectorized_batches",
    "execute.sublink_fallback_rows",
    "execute.columnar_fallback_rows",
    "execute.witness_rows",
    "storage.spilled_bytes",
    "storage.spill_partitions",
    "storage.pool_hits",
    "storage.pool_misses",
    "storage.pool_evictions",
];

type Sums = BTreeMap<&'static str, f64>;

fn add(sums: &mut Sums, name: &'static str, value: f64) {
    *sums.entry(name).or_insert(0.0) += value;
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

pub struct Traced {
    pub recorder: Recorder,
    /// Staged ops that erred or answered differently from `Session`.
    pub failures: Vec<String>,
    /// Per traced round: the sums and ratios of that round.
    rounds: Vec<Sums>,
    /// Per traced round: wall time of its ops (their root spans).
    round_s: Vec<f64>,
    /// Per kind: plain-query seconds, one sample per traced round.
    plain_s: Vec<Vec<f64>>,
    /// Per kind: staged-op seconds, one sample per traced round.
    staged_s: Vec<Vec<f64>>,
    /// The kind of every op, by `op_id`.
    op_kinds: Vec<usize>,
}

impl Traced {
    pub fn new(ready: &Ready) -> Traced {
        Traced {
            recorder: Recorder::new(),
            failures: Vec::new(),
            rounds: Vec::new(),
            round_s: Vec::new(),
            plain_s: vec![Vec::new(); ready.kinds()],
            staged_s: vec![Vec::new(); ready.kinds()],
            op_kinds: Vec::new(),
        }
    }

    fn next_op(&mut self, kind: usize) -> u64 {
        self.op_kinds.push(kind);
        self.op_kinds.len() as u64 - 1
    }

    /// The trace file: the kinds, the kind of each op, and the spans.
    pub fn to_json(&self, ready: &Ready) -> Json {
        let kinds = (0..ready.kinds()).map(|k| Json::str(ready.kind_name(k)));
        Json::obj([
            ("kinds", Json::Arr(kinds.collect())),
            (
                "op_kind",
                Json::Arr(self.op_kinds.iter().map(|k| Json::Num(*k as f64)).collect()),
            ),
            ("spans", self.recorder.to_json()),
        ])
    }

    /// One traced round, in the kind order of untraced round `round`.
    pub fn round(&mut self, ready: &Ready, round: usize) {
        let kinds = ready.kinds();
        let order: Vec<usize> = (0..kinds).map(|j| (round + j) % kinds).collect();
        let (sums, wall) = match &ready.generated.inputs {
            Inputs::Query(q) => self.query_round(ready, q, &order),
            Inputs::Serve(s) => self.serve_round(ready, s, &order),
        };
        self.rounds.push(sums);
        self.round_s.push(wall);
    }

    fn query_round(&mut self, ready: &Ready, q: &QueryInputs, order: &[usize]) -> (Sums, f64) {
        let mut sums = Sums::new();
        let mut wall = 0.0;
        let mut plain_rows = 0.0;
        let mut witness_bytes = 0.0;
        let spills = q.kinds.iter().any(|k| k.budgeted);
        for &k in order {
            let kind = &q.kinds[k];
            let db = &q.dbs[kind.db];
            let op_id = self.next_op(k);
            let staged = match ops::staged_op(db, kind, &ready.spill_dir, &mut self.recorder, op_id)
            {
                Ok(staged) => staged,
                Err(e) => {
                    self.failures.push(format!("{}: {e}", kind.name));
                    continue;
                }
            };
            if let Ok(first) = &ready.first[k] {
                if (staged.rows, staged.digest) != (first.rows, first.digest) {
                    self.failures.push(format!(
                        "{}: the staged result differs from the Session result",
                        kind.name
                    ));
                }
                if staged.fingerprint != first.fingerprint {
                    self.failures.push(format!(
                        "{}: the staged plan differs from the plan Session compiled",
                        kind.name
                    ));
                }
            }
            wall += staged.op_s;
            self.staged_s[k].push(staged.op_s);
            add_staged(&mut sums, &staged);
            if let Ok((seconds, rows)) = plain_query(db, &kind.query) {
                self.plain_s[k].push(seconds);
                plain_rows += rows as f64;
            }
            if spills {
                witness_bytes += ops::encoded_bytes(&staged.result) as f64;
                self.storage_round_trip(ready, &staged.result, op_id, &mut sums);
            }
        }
        let get = |sums: &Sums, name: &str| sums.get(name).copied().unwrap_or(0.0);
        let witness = get(&sums, "execute.witness_rows");
        let (hits, misses) = (
            get(&sums, "execute.memo_hits"),
            get(&sums, "execute.memo_misses"),
        );
        let derived = [
            (
                "execute.rows_examined_per_witness",
                ratio(get(&sums, "rows_examined"), witness),
            ),
            ("execute.memo_hit_rate", ratio(hits, hits + misses)),
            ("execute.witness_blowup", ratio(witness, plain_rows)),
            (
                "storage.pool_hit_rate",
                ratio(
                    get(&sums, "storage.pool_hits"),
                    get(&sums, "storage.pool_hits") + get(&sums, "storage.pool_misses"),
                ),
            ),
            (
                "storage.spilled_bytes_per_witness_byte",
                ratio(get(&sums, "storage.spilled_bytes"), witness_bytes),
            ),
        ];
        sums.extend(derived);
        (sums, wall)
    }

    /// Stores an op's result through the storage layer's own public entry
    /// and scans it back: `spill_budget` is the only workload whose pages
    /// and pool a change to `perm-storage` would move.
    fn storage_round_trip(
        &mut self,
        ready: &Ready,
        result: &perm::Relation,
        op_id: u64,
        sums: &mut Sums,
    ) {
        let rec = &mut self.recorder;
        let root = rec.begin("storage.roundtrip", None, op_id);
        let outcome = (|| -> Result<(), String> {
            let manager = StorageManager::create(ready.spill_dir.as_deref(), DEFAULT_POOL_PAGES)
                .map_err(|e| e.to_string())?;
            let store = rec.begin("storage.store", Some(root), op_id);
            let paged = manager.store_relation("bench", result);
            rec.end(store);
            let paged = paged.map_err(|e| e.to_string())?;
            let scan = rec.begin("storage.scan", Some(root), op_id);
            let mut rows = 0usize;
            let scanned = paged.for_each(manager.pool(), |t| {
                std::hint::black_box(t);
                rows += 1;
                Ok(())
            });
            rec.end(scan);
            scanned.map_err(|e| e.to_string())?;
            if rows != result.len() {
                return Err(format!("scanned {rows} of {} stored rows", result.len()));
            }
            let ms = |i: usize| (rec.spans[i].end_ns - rec.spans[i].start_ns) as f64 / 1e6;
            add(sums, "storage.store_ms", ms(store));
            add(sums, "storage.scan_ms", ms(scan));
            Ok(())
        })();
        rec.end(root);
        if let Err(e) = outcome {
            self.failures.push(format!("storage round trip: {e}"));
        }
    }

    fn serve_round(&mut self, ready: &Ready, s: &ServeInputs, order: &[usize]) -> (Sums, f64) {
        let mut sums = Sums::new();
        let mut wall = 0.0;
        let mut batch_ms = Vec::new();
        let mut delta = MetricsDelta::default();
        for &k in order {
            let op_id = self.next_op(k);
            let before = s.engine.metrics();
            let span = self.recorder.begin("serve.batch", None, op_id);
            let outcome = ops::serve_op(s, k);
            self.recorder.end(span);
            delta.add(&before, &s.engine.metrics());
            match (outcome, &ready.first[k]) {
                (Ok(sample), Ok(first)) => {
                    if sample.digest != first.digest {
                        self.failures
                            .push(format!("batch{k}: answer changed between rounds"));
                    }
                    wall += sample.total_s;
                    batch_ms.push(sample.total_s * 1e3);
                    self.staged_s[k].push(sample.total_s);
                }
                (Ok(_), Err(_)) => {}
                (Err(e), _) => self.failures.push(format!("batch{k}: {e}")),
            }
        }
        if !batch_ms.is_empty() {
            sums.insert("serve.batch_ms_p50", stats::median(&batch_ms));
        }
        sums.insert(
            "serve.exec_mean_ms",
            ratio(delta.exec_micros, delta.exec_count) / 1e3,
        );
        sums.insert(
            "serve.queue_wait_mean_ms",
            ratio(delta.wait_micros, delta.wait_count) / 1e3,
        );
        sums.insert(
            "serve.plan_cache_hit_rate",
            ratio(delta.plan_hits, delta.plan_hits + delta.plan_misses),
        );
        sums.insert(
            "serve.shared_memo_hit_rate",
            ratio(delta.memo_hits, delta.memo_hits + delta.memo_misses),
        );
        sums.insert("serve.requests_failed", delta.failed);
        sums.insert("serve.requests_retried", delta.retried);
        sums.insert("serve.worker_panics", delta.panics);
        (sums, wall)
    }

    /// The exact counts of the first traced round, one line each.
    pub fn exact_counts(&self, ready: &Ready) -> Vec<String> {
        let Some(first) = self.rounds.first() else {
            return Vec::new();
        };
        let mut lines: Vec<String> = EXACT
            .iter()
            .map(|name| format!("{name}={}", first.get(name).copied().unwrap_or(0.0)))
            .collect();
        lines.push(format!("kinds={}", ready.kinds()));
        lines.extend(self.failures.iter().map(|f| format!("failure: {f}")));
        lines
    }

    /// The per-layer metrics. `rounds` (seconds as measured — traced rounds
    /// carry no speed factor, so neither side of a difference does) and
    /// `ops` are the untraced rounds that alternated with the traced ones.
    pub fn finish(
        &mut self,
        ready: &Ready,
        rounds: &[f64],
        ops: &[Op],
        cpu_ms_per_query: f64,
    ) -> BTreeMap<&'static str, f64> {
        // Median over the traced rounds of every per-round value.
        let names: BTreeSet<&'static str> =
            self.rounds.iter().flat_map(|r| r.keys().copied()).collect();
        let mut out: BTreeMap<&'static str, f64> = names
            .into_iter()
            .map(|name| {
                let values: Vec<f64> = self
                    .rounds
                    .iter()
                    .map(|r| r.get(name).copied().unwrap_or(0.0))
                    .collect();
                (name, stats::median(&values))
            })
            .collect();
        out.remove("rows_examined");

        let untraced_round_s = stats::median(rounds);
        let traced_round_s = if self.round_s.is_empty() {
            0.0
        } else {
            stats::median(&self.round_s)
        };
        // Seconds per round, as the same unit of work: slower traced rounds
        // mean fewer queries per second.
        out.insert(
            "proc.trace_overhead_pct",
            (1.0 - ratio(untraced_round_s, traced_round_s)) * 100.0,
        );
        out.insert("proc.cpu_ms_per_query", cpu_ms_per_query);

        // The session layer is what the untraced op adds around the stages.
        let per_round = ready.kinds();
        let prepare_ms: Vec<f64> = ops
            .chunks(per_round)
            .map(|round| round.iter().map(|op| op.prepare_s).sum::<f64>() * 1e3)
            .collect();
        out.insert("session.prepare_ms", stats::median(&prepare_ms));

        match &ready.generated.inputs {
            Inputs::Query(q) => {
                let staged_ms: f64 = PHASE_METRICS
                    .iter()
                    .map(|name| out.get(name).copied().unwrap_or(0.0))
                    .sum();
                out.insert("session.overhead_ms", untraced_round_s * 1e3 - staged_ms);
                out.insert("session.plan_cache_hit_rate", 0.0);
                let slowdowns: Vec<f64> = (0..ready.kinds())
                    .filter(|k| !self.plain_s[*k].is_empty() && !self.staged_s[*k].is_empty())
                    .map(|k| {
                        ratio(
                            stats::median(&self.staged_s[k]),
                            stats::median(&self.plain_s[k]),
                        )
                    })
                    .collect();
                out.insert("execute.prov_over_plain", stats::geomean(&slowdowns));
                let twins: Vec<f64> = q
                    .kinds
                    .iter()
                    .enumerate()
                    .filter_map(|(k, kind)| Some((k, kind.twin?)))
                    .filter(|(k, twin)| {
                        !self.staged_s[*k].is_empty() && !self.staged_s[*twin].is_empty()
                    })
                    .map(|(k, twin)| {
                        ratio(
                            stats::median(&self.staged_s[k]),
                            stats::median(&self.staged_s[twin]),
                        )
                    })
                    .collect();
                out.insert("storage.spill_slowdown", stats::geomean(&twins));
                // The slowest kind once more, under a 50 ms deadline.
                let slowest = (0..ready.kinds())
                    .filter(|k| !self.staged_s[*k].is_empty())
                    .max_by(|a, b| {
                        stats::median(&self.staged_s[*a])
                            .partial_cmp(&stats::median(&self.staged_s[*b]))
                            .expect("timings are never NaN")
                    });
                if let Some(k) = slowest {
                    let kind = &q.kinds[k];
                    out.insert(
                        "execute.cancel_overshoot_ms",
                        ops::cancel_overshoot_ms(&q.dbs[kind.db], kind, &ready.spill_dir),
                    );
                }
            }
            Inputs::Serve(s) => {
                out.insert("session.overhead_ms", 0.0);
                let cache = s.engine.engine().plan_cache_stats();
                out.insert(
                    "session.plan_cache_hit_rate",
                    ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
                );
                let pooled = ratio(ready.queries_per_round() as f64, untraced_round_s);
                match single_worker_rate(s, rounds.len().clamp(3, 8)) {
                    Ok(single) => {
                        out.insert(
                            "serve.parallel_efficiency",
                            ratio(pooled, s.engine.workers() as f64 * single),
                        );
                    }
                    Err(e) => self.failures.push(format!("single-worker side run: {e}")),
                }
            }
        }
        out
    }
}

/// The per-layer metrics that are span times of [`PHASES`], in that order.
const PHASE_METRICS: [&str; 6] = [
    "sql.parse_ms",
    "sql.bind_ms",
    "core.rewrite_ms",
    "optimize.ms",
    "compile.ms",
    "execute.ms",
];
const _: () = assert!(PHASE_METRICS.len() == PHASES.len());

const OP_METRICS: [&str; 9] = [
    "execute.op_ms.scan",
    "execute.op_ms.select",
    "execute.op_ms.project",
    "execute.op_ms.join",
    "execute.op_ms.cross",
    "execute.op_ms.aggregate",
    "execute.op_ms.sort",
    "execute.op_ms.setop",
    "execute.op_ms.sublink",
];
const _: () = assert!(OP_METRICS.len() == OP_CLASSES.len());

fn add_staged(sums: &mut Sums, staged: &Staged) {
    for (name, seconds) in PHASE_METRICS.iter().zip(staged.phase_s) {
        add(sums, name, seconds * 1e3);
    }
    for (name, ns) in OP_METRICS.iter().zip(staged.profile.op_ns) {
        add(sums, name, ns as f64 / 1e6);
    }
    let counts = [
        ("sql.bound_plan_nodes", staged.bound_plan_nodes),
        ("core.rewritten_plan_nodes", staged.rewritten_plan_nodes),
        ("core.witness_cols", staged.witness_cols),
        ("optimize.rules_fired", staged.rules_fired),
        (
            "optimize.sublinks_decorrelated",
            staged.sublinks_decorrelated,
        ),
        ("optimize.sublinks_remaining", staged.sublinks_remaining),
        ("optimize.plan_nodes_out", staged.plan_nodes_out),
        ("execute.operators_evaluated", staged.operators_evaluated),
        (
            "execute.sublink_invocations",
            staged.profile.sublink_invocations,
        ),
        ("execute.memo_hits", staged.profile.memo_hits),
        ("execute.memo_misses", staged.profile.memo_misses),
        ("execute.vectorized_batches", staged.vectorized_batches),
        (
            "execute.sublink_fallback_rows",
            staged.sublink_fallback_rows,
        ),
        (
            "execute.columnar_fallback_rows",
            staged.columnar_fallback_rows,
        ),
        ("execute.witness_rows", staged.rows as u64),
        ("rows_examined", staged.profile.rows_examined),
        ("storage.spilled_bytes", staged.spilled_bytes),
        ("storage.spill_partitions", staged.spill_partitions),
        ("storage.pool_hits", staged.pool_hits),
        ("storage.pool_misses", staged.pool_misses),
        ("storage.pool_evictions", staged.pool_evictions),
    ];
    for (name, count) in counts {
        add(sums, name, count as f64);
    }
}

/// What `ConcurrentEngine::metrics()` advanced by, summed over batches.
#[derive(Default)]
struct MetricsDelta {
    exec_micros: f64,
    exec_count: f64,
    wait_micros: f64,
    wait_count: f64,
    plan_hits: f64,
    plan_misses: f64,
    memo_hits: f64,
    memo_misses: f64,
    failed: f64,
    retried: f64,
    panics: f64,
}

impl MetricsDelta {
    fn add(&mut self, before: &MetricsSnapshot, after: &MetricsSnapshot) {
        let d = |a: u64, b: u64| (a - b) as f64;
        self.exec_micros += d(after.execution.sum_micros, before.execution.sum_micros);
        self.exec_count += d(after.execution.count, before.execution.count);
        self.wait_micros += d(after.queue_wait.sum_micros, before.queue_wait.sum_micros);
        self.wait_count += d(after.queue_wait.count, before.queue_wait.count);
        self.plan_hits += d(after.plan_cache_hits, before.plan_cache_hits);
        self.plan_misses += d(after.plan_cache_misses, before.plan_cache_misses);
        self.memo_hits += d(after.shared_memo_hits, before.shared_memo_hits);
        self.memo_misses += d(after.shared_memo_misses, before.shared_memo_misses);
        self.failed += d(after.requests_failed, before.requests_failed);
        self.retried += d(after.requests_retried, before.requests_retried);
        self.panics += d(after.worker_panics, before.worker_panics);
    }
}

/// Requests per second of the same batches on a one-worker pool over a
/// copy of the database, warmed the same way: the base of
/// `serve.parallel_efficiency`.
fn single_worker_rate(s: &ServeInputs, rounds: usize) -> Result<f64, String> {
    let single = ConcurrentEngine::new(Engine::new(s.engine.database().clone())).with_workers(1);
    s.warm(&single)?;
    let mut round_s = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let started = Instant::now();
        for j in 0..s.requests.len() {
            let batch = &s.requests[(round + j) % s.requests.len()];
            for response in single.serve(batch) {
                response.map_err(|e| e.to_string())?;
            }
        }
        round_s.push(started.elapsed().as_secs_f64());
    }
    Ok((s.requests.len() * SERVE_BATCH) as f64 / stats::median(&round_s))
}
