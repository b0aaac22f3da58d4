//! The metric names, units, directions and bounds — the same table
//! `BENCHMARK.json` carries (a test keeps the two in step). Names are
//! final: later issues refer to them.

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// `failed_share` is not in this table: it is 0 at baseline, and a metric
/// here may never be 0. A run reports it as `failed` ÷ `attempted`, and any
/// increase is a regression.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "queries_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_ms_geomean",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_ms_p90",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// `*_ms` are milliseconds per round (median over the traced rounds, span
/// self time); counts are per round.
pub const PER_LAYER: [PerLayer; 59] = [
    layer("sql.parse_ms", "ms", Lower),
    layer("sql.bind_ms", "ms", Lower),
    layer("sql.bound_plan_nodes", "count", Lower),
    layer("core.rewrite_ms", "ms", Lower),
    layer("core.rewritten_plan_nodes", "count", Lower),
    layer("core.witness_cols", "count", Lower),
    layer("optimize.ms", "ms", Lower),
    layer("optimize.rules_fired", "count", Higher),
    layer("optimize.sublinks_decorrelated", "count", Higher),
    layer("optimize.sublinks_remaining", "count", Lower),
    layer("optimize.plan_nodes_out", "count", Lower),
    layer("compile.ms", "ms", Lower),
    layer("execute.ms", "ms", Lower),
    layer("execute.operators_evaluated", "count", Lower),
    layer("execute.rows_examined_per_witness", "ratio", Lower),
    layer("execute.sublink_invocations", "count", Lower),
    layer("execute.memo_hits", "count", Higher),
    layer("execute.memo_misses", "count", Lower),
    layer("execute.memo_hit_rate", "ratio", Higher),
    layer("execute.vectorized_batches", "count", Lower),
    layer("execute.sublink_fallback_rows", "count", Lower),
    layer("execute.columnar_fallback_rows", "count", Lower),
    layer("execute.witness_rows", "count", Lower),
    layer("execute.witness_blowup", "ratio", Lower),
    layer("execute.prov_over_plain", "ratio", Lower),
    layer("execute.cancel_overshoot_ms", "ms", Lower),
    layer("execute.op_ms.scan", "ms", Lower),
    layer("execute.op_ms.select", "ms", Lower),
    layer("execute.op_ms.project", "ms", Lower),
    layer("execute.op_ms.join", "ms", Lower),
    layer("execute.op_ms.cross", "ms", Lower),
    layer("execute.op_ms.aggregate", "ms", Lower),
    layer("execute.op_ms.sort", "ms", Lower),
    layer("execute.op_ms.setop", "ms", Lower),
    layer("execute.op_ms.sublink", "ms", Lower),
    layer("storage.spilled_bytes", "bytes", Lower),
    layer("storage.spill_partitions", "count", Lower),
    layer("storage.pool_hits", "count", Higher),
    layer("storage.pool_misses", "count", Lower),
    layer("storage.pool_evictions", "count", Lower),
    layer("storage.pool_hit_rate", "ratio", Higher),
    layer("storage.spilled_bytes_per_witness_byte", "ratio", Lower),
    layer("storage.store_ms", "ms", Lower),
    layer("storage.scan_ms", "ms", Lower),
    layer("storage.spill_slowdown", "ratio", Lower),
    layer("serve.batch_ms_p50", "ms", Lower),
    layer("serve.exec_mean_ms", "ms", Lower),
    layer("serve.queue_wait_mean_ms", "ms", Lower),
    layer("serve.plan_cache_hit_rate", "ratio", Higher),
    layer("serve.shared_memo_hit_rate", "ratio", Higher),
    layer("serve.requests_failed", "count", Lower),
    layer("serve.requests_retried", "count", Lower),
    layer("serve.worker_panics", "count", Lower),
    layer("serve.parallel_efficiency", "ratio", Higher),
    layer("session.prepare_ms", "ms", Lower),
    layer("session.overhead_ms", "ms", Lower),
    layer("session.plan_cache_hit_rate", "ratio", Higher),
    layer("proc.cpu_ms_per_query", "ms", Lower),
    layer("proc.trace_overhead_pct", "%", Lower),
];

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Lower => "lower",
            Higher => "higher",
        }
    }
}

/// Name, unit and direction of every metric of both tables.
fn all() -> impl Iterator<Item = (&'static str, &'static str, Better)> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
}

pub fn unit_of(name: &str) -> &'static str {
    all()
        .find(|(n, _, _)| *n == name)
        .map(|(_, unit, _)| unit)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the tables"))
}

pub fn direction_of(name: &str) -> &'static str {
    all()
        .find(|(n, _, _)| *n == name)
        .map(|(_, _, better)| better.name())
        .unwrap_or_else(|| panic!("metric `{name}` is not in the tables"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use crate::workloads::WORKLOADS;

    /// `BENCHMARK.json` at the root of the repository names exactly these
    /// workloads and metrics, with these units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(m.better.name())
            );
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(m.better.name())
            );
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
