//! The five workloads: which database each one builds from the seed, which
//! query kinds it runs, and why. Everything here is *input generation*; the
//! measured program receives only the databases, texts and plans built here.
//!
//! Sizes were calibrated on the reference container (release build, 2
//! cores) so that one round takes 0.1–1.1 s: a run measures for fifteen
//! seconds after three set-ups, and must complete five rounds at least.

use crate::digest::bag_digest;
use perm::{
    Database, Engine, FaultKind, FaultPlan, FaultSite, Relation, Session, SessionConfig, Strategy,
    Tuple, Value,
};
use perm_algebra::Plan;
use perm_serve::{ConcurrentEngine, Request};
use perm_synthetic::{build_database, query_q1, query_q2, RangeParams};
use perm_tpch::{sublink_queries, TpchScale};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Workload names, in reporting order. Final: later issues refer to them.
pub const WORKLOADS: [&str; 5] = [
    "tpch_fig6",
    "synth_uncorr",
    "synth_corr",
    "serve_mix",
    "spill_budget",
];

/// Deadline of every measured execution. An overrun counts as a failure.
pub const OP_DEADLINE: Duration = Duration::from_secs(20);

/// Memory budget of the budgeted `spill_budget` kinds.
pub const SPILL_BUDGET_BYTES: u64 = 256 * 1024;

/// How many candidate instantiations are tried per kind before an empty
/// result is accepted (and later counted as a failure).
const MAX_TRIES: u64 = 64;

/// The query of one kind: SQL text through the front end, or an algebra
/// plan straight into the rewriter.
pub enum QueryText {
    Sql(String),
    Plan(Plan),
}

/// One query kind: a query, a strategy and a table size.
pub struct Kind {
    pub name: String,
    /// Index into [`QueryInputs::dbs`].
    pub db: usize,
    pub query: QueryText,
    pub strategy: Strategy,
    /// Runs under [`SPILL_BUDGET_BYTES`] with spilling on.
    pub budgeted: bool,
    /// For a budgeted kind: the index of its unbudgeted twin.
    pub twin: Option<usize>,
    /// Kinds sharing a group must produce the same witness bag (the four
    /// strategies on `q1`).
    pub same_bag_as: Option<usize>,
}

/// Inputs of a query workload.
pub struct QueryInputs {
    pub dbs: Vec<Database>,
    pub kinds: Vec<Kind>,
}

/// Inputs of the serving workload.
pub struct ServeInputs {
    pub engine: ConcurrentEngine,
    pub statements: Vec<String>,
    /// One kind per batch; `(statement, value)` per request.
    pub batches: Vec<Vec<(usize, i64)>>,
    pub requests: Vec<Vec<Request>>,
    /// The 64 `$1` values requests draw from.
    pub values: Vec<i64>,
}

impl ServeInputs {
    /// Serves every (statement, value) once on `engine`: afterwards its plan
    /// cache and shared memo hold everything a measured batch can ask for.
    pub fn warm(&self, engine: &ConcurrentEngine) -> Result<(), String> {
        for sql in &self.statements {
            let requests: Vec<Request> = self
                .values
                .iter()
                .map(|v| Request::sql(sql.clone(), vec![Value::Int(*v)]))
                .collect();
            for response in engine.serve(&requests) {
                response.map_err(|e| format!("warm-up request failed: {e}"))?;
            }
        }
        Ok(())
    }
}

pub enum Inputs {
    Query(QueryInputs),
    Serve(Box<ServeInputs>),
}

/// Generated inputs plus the choices made while generating them (recorded
/// in `results.json` so a run can be reproduced and audited).
pub struct Generated {
    pub inputs: Inputs,
    pub choices: Vec<(String, String)>,
}

/// Requests per `serve_mix` batch and batches per round.
pub const SERVE_BATCH: usize = 16;
pub const SERVE_BATCHES: usize = 6;
const SERVE_VALUES: usize = 64;
/// `(|r1|, |r2|)` of the served database.
const SERVE_ROWS: (usize, usize) = (100, 50);

/// Pool workers of `serve_mix`: the reference container has two cores.
pub fn serve_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// The session configuration an op of `kind` runs under.
pub fn session_config(kind: &Kind, spill_dir: &Option<PathBuf>) -> SessionConfig {
    SessionConfig {
        strategy: kind.strategy,
        memory_budget: kind.budgeted.then_some(SPILL_BUDGET_BYTES),
        spill: kind.budgeted,
        spill_dir: spill_dir.clone(),
        ..SessionConfig::default()
    }
}

/// Builds the inputs of `workload` from `seed`.
pub fn generate(workload: &str, seed: u64) -> Result<Generated, String> {
    match workload {
        "tpch_fig6" => tpch_fig6(seed),
        "synth_uncorr" => synth_uncorr(seed),
        "synth_corr" => synth_corr(seed),
        "serve_mix" => serve_mix(seed),
        "spill_budget" => spill_budget(seed),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// `build_database` with the degenerate join column repaired: the Gaussian
/// `a` has a standard deviation of 100 × the table size, so `r1.a = r2.a`
/// practically never holds and `q1` returns nothing. `a ← a mod (4·|R2|)`
/// on both tables gives every `r1` row a real chance of a partner.
fn synthetic_db(r1_rows: usize, r2_rows: usize, seed: u64) -> Database {
    let mut db = build_database(r1_rows, r2_rows, seed);
    let modulus = 4 * r2_rows as i64;
    for table in ["r1", "r2"] {
        let rel = db.table(table).expect("build_database creates r1 and r2");
        let tuples = rel
            .tuples()
            .iter()
            .map(|t| {
                let mut values = t.values().to_vec();
                let a = values[0].as_i64().expect("a is an integer column");
                values[0] = Value::Int(a.rem_euclid(modulus));
                Tuple::new(values)
            })
            .collect();
        let remapped = Relation::new(rel.schema().clone(), tuples).expect("same arity");
        db.create_or_replace_table(table, remapped);
    }
    db
}

/// Share of `r1` rows whose `a` occurs in `r2.a` (recorded with the inputs).
fn match_share(db: &Database) -> f64 {
    let column = |t: &str| -> Vec<i64> {
        let rel = db.table(t).expect("synthetic table");
        rel.tuples()
            .iter()
            .filter_map(|t| t.get(0).as_i64())
            .collect()
    };
    let r2: std::collections::HashSet<i64> = column("r2").into_iter().collect();
    let r1 = column("r1");
    r1.iter().filter(|a| r2.contains(a)).count() as f64 / r1.len().max(1) as f64
}

/// The value at quantile `q` (0..1) of integer column `col` of `table`.
fn quantile(db: &Database, table: &str, col: usize, q: f64) -> i64 {
    let rel = db.table(table).expect("synthetic table");
    let mut values: Vec<i64> = rel
        .tuples()
        .iter()
        .filter_map(|t| t.get(col).as_i64())
        .collect();
    values.sort_unstable();
    let idx = ((values.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    values[idx]
}

/// A window over column `b` selecting `share` of the table, placed by the
/// RNG. `random_range` places a fixed-*width* window on a Gaussian, so the
/// number of selected rows — and with it the cost of the query — swings
/// with the seed; a fixed-*share* window keeps the work per seed alike.
fn share_window(db: &Database, table: &str, share: f64, rng: &mut StdRng) -> (i64, i64) {
    let start = rng.gen_range(0.05..(0.95 - share));
    (
        quantile(db, table, 1, start),
        quantile(db, table, 1, start + share),
    )
}

/// The plain (non-provenance) query of a kind through `Session`: seconds
/// and rows. A row of nothing but NULLs does not count — it is what an
/// aggregate without `GROUP BY` returns over no rows (Q17's `sum(…) / 7.0`),
/// and its provenance is as empty as that of no row at all.
pub fn plain_query(db: &Database, query: &QueryText) -> Result<(f64, usize), String> {
    let start = Instant::now();
    let session = Session::new(db);
    let prepared = match query {
        QueryText::Sql(sql) => session.prepare(sql),
        QueryText::Plan(plan) => session.prepare_plan(plan),
    }
    .map_err(|e| e.to_string())?;
    let result = session
        .execute_with_deadline(&prepared, &[], OP_DEADLINE)
        .map_err(|e| e.to_string())?;
    let seconds = start.elapsed().as_secs_f64();
    let rows = result
        .tuples()
        .iter()
        .filter(|t| t.values().iter().any(|v| !v.is_null()))
        .count();
    Ok((seconds, rows))
}

fn has_rows(db: &Database, query: &QueryText) -> bool {
    matches!(plain_query(db, query), Ok((_, rows)) if rows > 0)
}

/// Tries `make(s)` for `s = seed, seed+1, …` (at most `tries`) and returns
/// the chosen candidate with its `s`. `distance` says how far a candidate's
/// cost is from what the kind wants, or `None` when its plain query returns
/// nothing: the first candidate at distance 0 is chosen, else the nearest
/// (the lowest `s` among equals). When every candidate is empty the first
/// one is returned, and the run counts its kind as failed.
fn choose<T>(
    seed: u64,
    tries: u64,
    mut make: impl FnMut(u64) -> T,
    distance: impl Fn(&T) -> Option<u64>,
) -> (T, u64) {
    let mut best: Option<(T, u64, u64)> = None;
    for s in seed..seed + tries {
        let candidate = make(s);
        match distance(&candidate) {
            Some(0) => return (candidate, s),
            Some(d) if best.as_ref().is_none_or(|(_, _, b)| d < *b) => {
                best = Some((candidate, s, d));
            }
            _ => {}
        }
    }
    match best {
        Some((candidate, s, _)) => (candidate, s),
        None => (make(seed), seed),
    }
}

fn sql_kind(name: impl Into<String>, db: usize, sql: String, strategy: Strategy) -> Kind {
    Kind {
        name: name.into(),
        db,
        query: QueryText::Sql(sql),
        strategy,
        budgeted: false,
        twin: None,
        same_bag_as: None,
    }
}

/// The Fig. 6 templates the workload runs, each with the number of
/// `lineitem` rows its database keeps (`None`: all 600-odd of SF 0.0001).
///
/// Q4 and Q22 stay correlated after optimization, so `Strategy::Auto` runs
/// them under Gen, which crosses the outer rows with the sublink's tables:
/// they get a reduced copy. Q22 moreover needs a customer *without* orders,
/// and with 150 orders for 15 customers there is none; with the five or so
/// orders of 20 line items, 20 to 60 of 64 instantiations have one (300
/// database seeds tried).
///
/// Q2, Q20 and Q21 are left out: no database makes them both non-empty and
/// affordable for every seed (measured on database seeds 1–24, release
/// build). Q2 needs `(p_size, metal, region)` to hit one of the parts: 2 of
/// 64 instantiations do at 10 parts, and one outer row then costs 11–17 s
/// under Gen (1.6 M cancellation checkpoints; the sublink crosses four
/// tables); at 4 parts it still costs 2.4–3.3 s and 5 of 8 databases have no
/// non-empty instantiation. Q20 is empty for all 64 instantiations on 2 of 8
/// full databases (it needs a supplier in one of eight nations, a part of
/// one of eight colours and a line item of that pair in the year), costs
/// 2.2–4.9 s where it is not, and on a 40-order copy 0.2–1.0 s with half
/// the databases empty. Q21 needs one of the five suppliers in one of eight
/// nations — 15 % of all databases have none — and one outer row costs
/// 5–20 s at 151 line items, 0.1–0.3 s at 40, where 7 of 10 databases are
/// empty. The correlated `EXISTS`, `NOT EXISTS` and scalar-aggregate
/// patterns they share with Q4, Q17 and Q22 stay covered, and `synth_corr`
/// is the workload that measures Gen.
const TPCH_KINDS: [(u32, Option<usize>); 7] = [
    (4, Some(150)),
    (11, None),
    (15, None),
    (16, None),
    (17, Some(150)),
    (18, None),
    (22, Some(20)),
];

/// Databases tried per template: `generate(SF, seed)`, `generate(SF,
/// seed+1)`, … Q11 is empty whatever its nation on the 15 % of databases
/// whose five suppliers all live elsewhere.
const TPCH_DB_TRIES: u64 = 16;

/// Non-empty instantiations whose cost is compared, and the cost — in cancellation checkpoints, a count the executor makes, so
/// the choice repeats exactly — above which one is not affordable.
const TPCH_CANDIDATES: usize = 8;
const TPCH_COST_CAP: u64 = 20_000;

/// A copy of `db` with only the first `lineitems` rows of `lineitem` and the
/// orders they belong to.
fn reduced_tpch(db: &Database, lineitems: usize) -> Database {
    let lineitem = db.table("lineitem").expect("TPC-H table");
    let kept: Vec<Tuple> = lineitem.tuples().iter().take(lineitems).cloned().collect();
    let last_order = kept.last().and_then(|t| t.get(0).as_i64()).unwrap_or(0);
    let orders = db.table("orders").expect("TPC-H table");
    let kept_orders = orders
        .tuples()
        .iter()
        .filter(|t| t.get(0).as_i64().is_some_and(|k| k <= last_order))
        .cloned()
        .collect();
    let mut out = db.clone();
    out.create_or_replace_table(
        "lineitem",
        Relation::new(lineitem.schema().clone(), kept).expect("same arity"),
    );
    out.create_or_replace_table(
        "orders",
        Relation::new(orders.schema().clone(), kept_orders).expect("same arity"),
    );
    out
}

/// Cancellation checkpoints the provenance query `sql` polls under
/// `Strategy::Auto`, or `None` when it needs `cap` or more.
fn checkpoints(db: &Database, sql: &str, cap: u64) -> Option<u64> {
    let session = Session::with_config(
        db,
        SessionConfig {
            fault_plan: Some(FaultPlan::new(
                FaultKind::Cancel,
                FaultSite::Checkpoint,
                cap,
            )),
            ..SessionConfig::default()
        },
    );
    let prepared = session.prepare_provenance(sql).ok()?;
    session.execute(&prepared, &[]).ok()?;
    Some(session.stats().cancel_checks)
}

/// The database and the instantiation of one template: on the first
/// database `d ≥ seed` that has any, the cheapest of the first
/// [`TPCH_CANDIDATES`] distinct `instantiate(s)`, `d ≤ s < d + 64`, with a
/// non-empty plain result. (The first one would do for being non-empty, but
/// Gen's cost follows the outer rows — Q4 with five orders in its quarter
/// costs five times Q4 with one — and Q18's the orders above its threshold;
/// the cheapest of eight is nearly the same work for every seed.)
fn tpch_instance(
    template: &perm_tpch::QueryTemplate,
    lineitems: Option<usize>,
    seed: u64,
) -> Option<(Database, String, String)> {
    for d in seed..seed + TPCH_DB_TRIES {
        let full = perm_tpch::generate(TpchScale::new(0.0001), d);
        let db = lineitems.map_or_else(|| full.clone(), |n| reduced_tpch(&full, n));
        let mut seen: Vec<String> = Vec::new();
        let mut best: Option<(String, u64, u64)> = None;
        for s in d..d + MAX_TRIES {
            let sql = template.instantiate(s);
            if seen.len() == TPCH_CANDIDATES {
                break;
            }
            if seen.contains(&sql) || !has_rows(&db, &QueryText::Sql(sql.clone())) {
                continue;
            }
            seen.push(sql.clone());
            // A trial run is cut off where it stops being the cheapest.
            let cap = best.as_ref().map_or(TPCH_COST_CAP, |(_, _, cost)| *cost);
            if let Some(cost) = checkpoints(&db, &sql, cap) {
                best = Some((sql, s, cost));
            }
        }
        if let Some((sql, s, cost)) = best {
            let choice = format!("database {d}, template {s}, {cost} checkpoints");
            return Some((db, sql, choice));
        }
    }
    None
}

/// **tpch_fig6** — the paper's Fig. 6: TPC-H sublink templates as SQL under
/// `Strategy::Auto`, each on the smallest database the generator makes or,
/// for the templates Gen has to run, on a reduced copy of it.
fn tpch_fig6(seed: u64) -> Result<Generated, String> {
    let mut dbs = Vec::new();
    let mut kinds = Vec::new();
    let mut choices = Vec::new();
    for (id, lineitems) in TPCH_KINDS {
        let template = sublink_queries()
            .into_iter()
            .find(|t| t.id == id)
            .expect("a TPC-H sublink template");
        // No database had a non-empty instantiation: the kind runs empty on
        // the first one and is counted as failed.
        let (db, sql, choice) = tpch_instance(&template, lineitems, seed).unwrap_or_else(|| {
            let full = perm_tpch::generate(TpchScale::new(0.0001), seed);
            (full, template.instantiate(seed), "none (empty)".to_string())
        });
        let rows = |t: &str| db.table(t).map_or(0, |r| r.len());
        choices.push((
            format!("q{id}"),
            format!(
                "{choice}; orders={} lineitem={} part={} customer={}",
                rows("orders"),
                rows("lineitem"),
                rows("part"),
                rows("customer")
            ),
        ));
        let size = if lineitems.is_some() {
            "reduced"
        } else {
            "full"
        };
        kinds.push(sql_kind(
            format!("q{id}_{size}"),
            dbs.len(),
            sql,
            Strategy::Auto,
        ));
        dbs.push(db);
    }
    Ok(Generated {
        inputs: Inputs::Query(QueryInputs { dbs, kinds }),
        choices,
    })
}

/// **synth_uncorr** — Fig. 7–9 `q1` (`= ANY`) and `q2` (`< ALL`) as plans:
/// the paper's four-strategy comparison on uncorrelated sublinks.
fn synth_uncorr(seed: u64) -> Result<Generated, String> {
    // (r1 rows, r2 rows, share of each table its window selects). Gen
    // evaluates a sublink per pair of selected rows, so it only runs on the
    // small database; the join-shaped strategies get the large ones.
    const SIZES: [(usize, usize, f64); 3] =
        [(1000, 250, 0.10), (4000, 1000, 0.25), (20000, 2000, 0.15)];
    // Under Gen the work follows the rows the plain query returns, and on
    // the small database those are a handful: 1 to 5 by chance. Its windows
    // are drawn until q1 returns 2 rows and q2 returns 3 (or as near as 16
    // draws get), which keeps the two Gen kinds alike from seed to seed.
    const SMALL_DB_ROWS: (usize, usize) = (2, 3);
    const SMALL_DB_TRIES: u64 = 16;
    let dbs: Vec<Database> = SIZES
        .iter()
        .enumerate()
        .map(|(i, (r1, r2, _))| synthetic_db(*r1, *r2, seed.wrapping_add(100 * i as u64)))
        .collect();
    let mut choices: Vec<(String, String)> = dbs
        .iter()
        .zip(SIZES)
        .map(|(db, (r1, r2, _))| {
            (
                format!("match_share.{r1}x{r2}"),
                format!("{:.4}", match_share(db)),
            )
        })
        .collect();
    // q1/q2 plans per database, windows re-drawn until neither is empty.
    let mut plans = Vec::new();
    for (i, db) in dbs.iter().enumerate() {
        let share = SIZES[i].2;
        let rows =
            |q: &Plan| plain_query(db, &QueryText::Plan(q.clone())).map_or(0, |(_, rows)| rows);
        let ((q1, q2), chosen) = choose(
            seed,
            if i == 0 { SMALL_DB_TRIES } else { MAX_TRIES },
            |s| {
                let mut rng = StdRng::seed_from_u64(s ^ ((i as u64) << 40));
                let (r1_low, r1_high) = share_window(db, "r1", share, &mut rng);
                let (r2_low, r2_high) = share_window(db, "r2", share, &mut rng);
                let params = RangeParams {
                    r1_low,
                    r1_high,
                    r2_low,
                    r2_high,
                };
                (query_q1(db, params), query_q2(db, params))
            },
            |(q1, q2)| {
                let (rows1, rows2) = (rows(q1), rows(q2));
                if rows1 == 0 || rows2 == 0 {
                    return None;
                }
                Some(if i == 0 {
                    (rows1.abs_diff(SMALL_DB_ROWS.0) + rows2.abs_diff(SMALL_DB_ROWS.1)) as u64
                } else {
                    0
                })
            },
        );
        choices.push((
            format!("window_seed.{}x{}", SIZES[i].0, SIZES[i].1),
            chosen.to_string(),
        ));
        plans.push((q1, q2));
    }
    let plan_kind = |name: &str, db: usize, plan: &Plan, strategy: Strategy| Kind {
        name: name.to_string(),
        db,
        query: QueryText::Plan(plan.clone()),
        strategy,
        budgeted: false,
        twin: None,
        same_bag_as: None,
    };
    let mut kinds = vec![
        plan_kind("q1_gen_1000x250", 0, &plans[0].0, Strategy::Gen),
        plan_kind("q1_left_1000x250", 0, &plans[0].0, Strategy::Left),
        plan_kind("q1_move_1000x250", 0, &plans[0].0, Strategy::Move),
        plan_kind("q1_unn_1000x250", 0, &plans[0].0, Strategy::Unn),
        plan_kind("q2_gen_1000x250", 0, &plans[0].1, Strategy::Gen),
        plan_kind("q1_left_4000x1000", 1, &plans[1].0, Strategy::Left),
        plan_kind("q1_move_4000x1000", 1, &plans[1].0, Strategy::Move),
        plan_kind("q1_unn_4000x1000", 1, &plans[1].0, Strategy::Unn),
        plan_kind("q2_left_4000x1000", 1, &plans[1].1, Strategy::Left),
        plan_kind("q2_move_4000x1000", 1, &plans[1].1, Strategy::Move),
        plan_kind("q1_auto_20000x2000", 2, &plans[2].0, Strategy::Auto),
        plan_kind("q2_auto_20000x2000", 2, &plans[2].1, Strategy::Auto),
    ];
    for kind in &mut kinds[1..4] {
        kind.same_bag_as = Some(0);
    }
    Ok(Generated {
        inputs: Inputs::Query(QueryInputs { dbs, kinds }),
        choices,
    })
}

/// **synth_corr** — the `q3` family as SQL under `Strategy::Gen`:
/// correlated sublinks the optimizer cannot turn into joins today.
fn synth_corr(seed: u64) -> Result<Generated, String> {
    const SIZES: [(usize, usize); 2] = [(80, 160), (110, 220)];
    let dbs: Vec<Database> = SIZES
        .iter()
        .enumerate()
        .map(|(i, (r1, r2))| synthetic_db(*r1, *r2, seed.wrapping_add(100 * i as u64)))
        .collect();
    let make = |s: u64| -> Vec<Kind> {
        let mut rng = StdRng::seed_from_u64(s);
        // With 60 % of r2 in the window nearly every one of the 32 groups
        // has a partner, with 2 % nearly none: the share of r1 rows a
        // sublink holds for — and with it the work — barely moves with the
        // seed. (A quarter of r2 leaves it to chance: 50–80 %.)
        let (lo0, hi0) = share_window(&dbs[0], "r2", 0.60, &mut rng);
        let (lo1, hi1) = share_window(&dbs[1], "r2", 0.60, &mut rng);
        let (nlo, nhi) = share_window(&dbs[0], "r2", 0.02, &mut rng);
        let exists = |lo: i64, hi: i64, not: &str| {
            format!(
                "SELECT a, b, g FROM r1 WHERE {not}EXISTS \
                 (SELECT * FROM r2 WHERE r2.b BETWEEN {lo} AND {hi} AND r2.g = r1.g)"
            )
        };
        vec![
            sql_kind("exists_80x160", 0, exists(lo0, hi0, ""), Strategy::Gen),
            sql_kind("exists_110x220", 1, exists(lo1, hi1, ""), Strategy::Gen),
            sql_kind(
                "not_exists_80x160",
                0,
                exists(nlo, nhi, "NOT "),
                Strategy::Gen,
            ),
            sql_kind(
                "scalar_avg_80x160",
                0,
                "SELECT a, b, g FROM r1 WHERE b < (SELECT avg(b) FROM r2 WHERE r2.g = r1.g)"
                    .to_string(),
                Strategy::Gen,
            ),
            sql_kind(
                "in_corr_80x160",
                0,
                format!(
                    "SELECT a, b, g FROM r1 WHERE g IN \
                     (SELECT g FROM r2 WHERE r2.g = r1.g AND r2.b BETWEEN {lo0} AND {hi0})"
                ),
                Strategy::Gen,
            ),
        ]
    };
    let (kinds, chosen) = choose(seed, MAX_TRIES, make, |kinds| {
        kinds
            .iter()
            .all(|k| has_rows(&dbs[k.db], &k.query))
            .then_some(0)
    });
    let choices = vec![("window_seed".to_string(), chosen.to_string())];
    Ok(Generated {
        inputs: Inputs::Query(QueryInputs { dbs, kinds }),
        choices,
    })
}

/// **spill_budget** — four provenance kinds under a 256 KiB budget with
/// spilling on, each with an unbudgeted twin in the same round.
fn spill_budget(seed: u64) -> Result<Generated, String> {
    let db = synthetic_db(8000, 2000, seed);
    // A quarter of r2 qualifies: ~15 witnesses per r1 row.
    let k = quantile(&db, "r2", 1, 0.75);
    let texts: [(&str, String); 4] = [
        (
            "selfjoin_sort",
            "SELECT x.a AS xa, x.b AS xb, y.b AS yb FROM r1 x, r1 y WHERE x.a = y.a ORDER BY xb"
                .to_string(),
        ),
        (
            "in_sort",
            format!("SELECT a, b FROM r1 WHERE g IN (SELECT g FROM r2 WHERE b > {k}) ORDER BY b"),
        ),
        ("sort", "SELECT a, b, g FROM r1 ORDER BY b, a".to_string()),
        (
            "group_by",
            "SELECT g, count(*) AS n, sum(b) AS s FROM r1 GROUP BY g".to_string(),
        ),
    ];
    let mut kinds = Vec::new();
    for (name, sql) in &texts {
        let twin = kinds.len() + 1;
        let mut budgeted = sql_kind(*name, 0, sql.clone(), Strategy::Auto);
        budgeted.budgeted = true;
        budgeted.twin = Some(twin);
        kinds.push(budgeted);
        kinds.push(sql_kind(
            format!("{name}_resident"),
            0,
            sql.clone(),
            Strategy::Auto,
        ));
    }
    let choices = vec![
        ("in_sort.k".to_string(), k.to_string()),
        (
            "match_share".to_string(),
            format!("{:.4}", match_share(&db)),
        ),
    ];
    Ok(Generated {
        inputs: Inputs::Query(QueryInputs {
            dbs: vec![db],
            kinds,
        }),
        choices,
    })
}

/// **serve_mix** — four `$1` statements served warm by a two-worker pool.
fn serve_mix(seed: u64) -> Result<Generated, String> {
    let db = synthetic_db(SERVE_ROWS.0, SERVE_ROWS.1, seed);
    let values: Vec<i64> = (0..SERVE_VALUES)
        .map(|i| quantile(&db, "r2", 1, 0.05 + 0.85 * i as f64 / SERVE_VALUES as f64))
        .collect();
    let statements: Vec<String> = [
        "SELECT PROVENANCE a, b FROM r1 WHERE EXISTS \
         (SELECT * FROM r2 WHERE r2.g = r1.g AND r2.b > $1)",
        "SELECT PROVENANCE a, b FROM r1 WHERE g IN (SELECT g FROM r2 WHERE b > $1)",
        "SELECT PROVENANCE a, b FROM r1 WHERE b < \
         (SELECT avg(b) FROM r2 WHERE r2.g = r1.g AND r2.b > $1)",
        "SELECT g, count(*) AS n FROM r1 WHERE b > $1 GROUP BY g",
    ]
    .map(String::from)
    .to_vec();
    // A request's cost grows with the share of r2 its `$1` lets through
    // (5 % to 90 %), so the values are drawn stratified: the requests of one
    // statement in one round step through the 64 values evenly, from a
    // random offset. Every round then carries the same mix of cheap and
    // dear requests whatever the seed.
    let mut rng = StdRng::seed_from_u64(seed);
    let per_statement = SERVE_BATCHES * SERVE_BATCH / statements.len();
    let offsets: Vec<f64> = statements.iter().map(|_| rng.gen_range(0.0..1.0)).collect();
    let batches: Vec<Vec<(usize, i64)>> = (0..SERVE_BATCHES)
        .map(|b| {
            (0..SERVE_BATCH)
                .map(|i| {
                    let statement = i % statements.len();
                    // Each batch spans the whole range of values.
                    let stratum = (i / statements.len()) * SERVE_BATCHES + b;
                    let position = (stratum as f64 + offsets[statement]) / per_statement as f64;
                    let value = (position * values.len() as f64) as usize;
                    (statement, values[value.min(values.len() - 1)])
                })
                .collect()
        })
        .collect();
    let request = |(s, v): &(usize, i64)| -> Request {
        Request::sql(statements[*s].clone(), vec![Value::Int(*v)])
    };
    let requests = batches
        .iter()
        .map(|batch| batch.iter().map(request).collect())
        .collect();
    let engine = ConcurrentEngine::new(Engine::new(db)).with_workers(serve_workers());
    let choices = vec![("workers".to_string(), serve_workers().to_string())];
    Ok(Generated {
        inputs: Inputs::Serve(Box::new(ServeInputs {
            engine,
            statements,
            batches,
            requests,
            values,
        })),
        choices,
    })
}

/// A digest of the generated inputs themselves: two seeds must differ here.
pub fn inputs_digest(inputs: &Inputs) -> u64 {
    let dbs: Vec<&Database> = match inputs {
        Inputs::Query(q) => q.dbs.iter().collect(),
        Inputs::Serve(s) => vec![s.engine.database()],
    };
    let mut acc = 0u64;
    for db in dbs {
        for table in db.table_names() {
            let rel = db.table(&table).expect("listed table exists");
            acc = acc.rotate_left(7) ^ bag_digest(rel);
        }
    }
    acc
}
