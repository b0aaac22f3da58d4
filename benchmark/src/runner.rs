//! One workload, start to finish: set-up, the measured rounds, the checks,
//! the report. This is what a child process of `run` — and the driver's
//! `--workload W --seed N --seconds S --trace T` — executes.

use crate::calibrate;
use crate::digest::digest_of_sequence;
use crate::json::{self, Json};
use crate::metrics::{direction_of, unit_of, END_TO_END, PER_LAYER};
use crate::ops::{self, Sample};
use crate::stats::{self, Summary};
use crate::trace;
use crate::workloads::{self, Generated, Inputs, SERVE_BATCH};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// How often a run sets up before it measures — `setup_s` is the median,
/// the rounds use the last — and the fewest rounds it measures whatever
/// `--seconds` says.
const SETUP_REPEATS: usize = 3;
const MIN_ROUNDS: usize = 5;

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One set-up, one round, no timing claims; digests still checked.
    pub quick: bool,
    /// Write `expected/<workload>.json` from the reference path.
    pub bless: bool,
    /// Repeat round 0 and compare every exact count; try a second seed.
    pub check_determinism: bool,
    /// Where `result-<workload>.json` and `trace-<workload>.json` go.
    pub out: Option<PathBuf>,
}

/// What the reference path says about one kind.
#[derive(Debug, Clone, PartialEq)]
pub struct KindFacts {
    pub name: String,
    pub result_rows: usize,
    pub witness_rows: usize,
    pub digest: u64,
}

/// Inputs that have been generated and run once.
pub struct Ready {
    pub generated: Generated,
    /// The warm-up round's answer per kind; ops are compared against it,
    /// and it is compared against the reference.
    pub first: Vec<Result<Sample, String>>,
    /// `expected/<workload>.json`, when it was blessed for this seed.
    pub expected: Option<Vec<KindFacts>>,
    pub spill_dir: Option<PathBuf>,
}

impl Ready {
    pub fn kinds(&self) -> usize {
        match &self.generated.inputs {
            Inputs::Query(q) => q.kinds.len(),
            Inputs::Serve(s) => s.requests.len(),
        }
    }

    pub fn kind_name(&self, k: usize) -> String {
        match &self.generated.inputs {
            Inputs::Query(q) => q.kinds[k].name.clone(),
            Inputs::Serve(_) => format!("batch{k}"),
        }
    }

    /// Queries (requests) one round executes.
    pub fn queries_per_round(&self) -> usize {
        match &self.generated.inputs {
            Inputs::Query(q) => q.kinds.len(),
            Inputs::Serve(s) => s.requests.len() * SERVE_BATCH,
        }
    }

    pub fn run_kind(&self, k: usize) -> Result<Sample, String> {
        match &self.generated.inputs {
            Inputs::Query(q) => {
                let kind = &q.kinds[k];
                ops::session_op(&q.dbs[kind.db], kind, &self.spill_dir)
            }
            Inputs::Serve(s) => ops::serve_op(s, k),
        }
    }
}

/// Spill files go below the directory of the executable — inside the
/// build directory, never the system temp dir. No fsync is issued.
fn spill_dir() -> Option<PathBuf> {
    let dir = std::env::current_exe().ok()?.parent()?.join("bench-spill");
    std::fs::create_dir_all(&dir).ok()?;
    Some(dir)
}

fn expected_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{workload}.json"))
}

/// The committed facts of `workload`, when they were blessed for `seed`.
/// A file that cannot be read as what `--bless` writes is an error whatever
/// the seed, and so is a missing file, or one blessed for another seed, when
/// `seed` is the one the repository commits digests for: the gate must not
/// switch itself off.
fn load_expected(workload: &str, seed: u64) -> Result<Option<Vec<KindFacts>>, String> {
    let path = expected_path(workload);
    let blessed = seed == crate::DEFAULT_SEED;
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if blessed => return Err(format!("cannot read {}: {e}", path.display())),
        Err(_) => return Ok(None),
    };
    let malformed = || format!("{} is not what `run --bless` writes", path.display());
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let file_seed = doc
        .get("seed")
        .and_then(Json::as_f64)
        .ok_or_else(malformed)? as u64;
    if file_seed != seed {
        return if blessed {
            Err(format!(
                "{} was blessed for seed {file_seed}, not {seed}",
                path.display()
            ))
        } else {
            Ok(None)
        };
    }
    doc.get("kinds")
        .and_then(Json::as_arr)
        .ok_or_else(malformed)?
        .iter()
        .map(|k| {
            Some(KindFacts {
                name: k.get("name")?.as_str()?.to_string(),
                result_rows: k.get("result_rows")?.as_f64()? as usize,
                witness_rows: k.get("witness_rows")?.as_f64()? as usize,
                digest: u64::from_str_radix(k.get("digest")?.as_str()?, 16).ok()?,
            })
        })
        .collect::<Option<Vec<KindFacts>>>()
        .map(Some)
        .ok_or_else(malformed)
}

fn facts_json(seed: u64, facts: &[KindFacts]) -> Json {
    Json::obj([
        ("seed", Json::Num(seed as f64)),
        (
            "kinds",
            Json::Arr(
                facts
                    .iter()
                    .map(|f| {
                        Json::obj([
                            ("name", Json::str(&f.name)),
                            ("result_rows", Json::Num(f.result_rows as f64)),
                            ("witness_rows", Json::Num(f.witness_rows as f64)),
                            ("digest", Json::hex(f.digest)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Set-up: input generation, engine and session-config construction, the
/// digest load and one untimed warm-up round. For `serve_mix` the warm-up
/// also serves every `(statement, $1)` once, so the measured rounds meet a
/// filled plan cache and shared memo.
pub fn setup(workload: &str, seed: u64, bless: bool) -> Result<Ready, String> {
    let generated = workloads::generate(workload, seed)?;
    // Under `--bless` the committed file is about to be replaced, not obeyed.
    let expected = if bless {
        None
    } else {
        load_expected(workload, seed)?
    };
    if let Inputs::Serve(s) = &generated.inputs {
        s.warm(&s.engine)?;
    }
    let mut ready = Ready {
        generated,
        first: Vec::new(),
        expected,
        spill_dir: spill_dir(),
    };
    ready.first = (0..ready.kinds()).map(|k| ready.run_kind(k)).collect();
    Ok(ready)
}

/// One measured op.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: usize,
    /// Wall time, seconds; the measured rounds divide it by their speed
    /// factor (see `calibrate`).
    pub total_s: f64,
    /// The part spent in `Session::prepare*`, as measured.
    pub prepare_s: f64,
    /// It erred, overran the deadline, or answered differently from the
    /// warm-up round.
    pub failed: Option<String>,
}

/// One round: every kind once, starting at kind `round mod K`. Returns the
/// wall time of the round's ops, seconds.
pub fn run_round(ready: &Ready, round: usize, ops: &mut Vec<Op>) -> f64 {
    let kinds = ready.kinds();
    let first_op = ops.len();
    for j in 0..kinds {
        let kind = (round + j) % kinds;
        let started = Instant::now();
        let outcome = ready.run_kind(kind);
        let elapsed = started.elapsed().as_secs_f64();
        let (total_s, prepare_s, failed) = match (outcome, &ready.first[kind]) {
            (Ok(sample), Ok(first)) => (
                sample.total_s,
                sample.prepare_s,
                (sample.digest != first.digest || sample.rows != first.rows).then(|| {
                    format!(
                        "answer changed between rounds: {} rows / {:016x}, first {} rows / {:016x}",
                        sample.rows, sample.digest, first.rows, first.digest
                    )
                }),
            ),
            // The kind itself is reported as bad.
            (Ok(sample), Err(_)) => (sample.total_s, sample.prepare_s, None),
            (Err(e), _) => (elapsed, 0.0, Some(e)),
        };
        ops.push(Op {
            kind,
            total_s,
            prepare_s,
            failed,
        });
    }
    ops[first_op..].iter().map(|op| op.total_s).sum()
}

/// The end-to-end timing metrics of a set of rounds.
pub struct Timing {
    pub queries_per_s: f64,
    pub round_s: Summary,
    pub latency_ms_geomean: f64,
    pub latency_ms_p90: f64,
    /// The percentile `latency_ms_p90` could actually be taken at.
    pub percentile_used: f64,
    pub kind_ms: Vec<Summary>,
}

pub fn timing(kinds: usize, queries_per_round: usize, round_s: &[f64], ops: &[Op]) -> Timing {
    let round_s = stats::summary(round_s);
    let kind_ms: Vec<Summary> = (0..kinds)
        .map(|k| {
            let ms: Vec<f64> = ops
                .iter()
                .filter(|op| op.kind == k)
                .map(|op| op.total_s * 1e3)
                .collect();
            stats::summary(&ms)
        })
        .collect();
    let medians: Vec<f64> = kind_ms.iter().map(|s| s.median).collect();
    let geomean = stats::geomean(&medians);
    // Each op relative to the median of its kind: the tail of a fast kind
    // counts as much as the tail of a slow one.
    let relative: Vec<f64> = ops
        .iter()
        .map(|op| op.total_s * 1e3 / medians[op.kind])
        .collect();
    let percentile_used = stats::supported_percentile(relative.len(), 0.9);
    Timing {
        queries_per_s: queries_per_round as f64 / round_s.median,
        round_s,
        latency_ms_geomean: geomean,
        latency_ms_p90: geomean * stats::percentile(&relative, percentile_used),
        percentile_used,
        kind_ms,
    }
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system) this process has used, from
/// `/proc/self/stat`; the kernel counts in ticks of 1/100 s.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // The command name may hold spaces; fields restart after `)`.
            let rest = stat.rsplit_once(')')?.1.to_string();
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = fields.get(11)?.parse().ok()?;
            let stime: f64 = fields.get(12)?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

/// The checks that need the reference path. Returns the reference facts
/// and, per kind, why it is bad (if it is).
fn verify(ready: &Ready) -> (Vec<KindFacts>, Vec<Option<String>>) {
    let kinds = ready.kinds();
    let mut bad: Vec<Option<String>> = ready
        .first
        .iter()
        .map(|f| f.as_ref().err().map(|e| format!("warm-up op failed: {e}")))
        .collect();
    let mut facts = Vec::with_capacity(kinds);
    match &ready.generated.inputs {
        Inputs::Query(q) => {
            for (k, kind) in q.kinds.iter().enumerate() {
                let db = &q.dbs[kind.db];
                let result_rows =
                    workloads::plain_query(db, &kind.query).map_or(0, |(_, rows)| rows);
                let (witness_rows, digest) = match ops::reference(db, kind) {
                    Ok(r) => r,
                    Err(e) => {
                        bad[k].get_or_insert(format!("reference path failed: {e}"));
                        (0, 0)
                    }
                };
                if let Ok(first) = &ready.first[k] {
                    if (first.rows, first.digest) != (witness_rows, digest) {
                        bad[k].get_or_insert(format!(
                            "differs from the reference path: {} rows / {:016x}, reference {} rows / {:016x}",
                            first.rows, first.digest, witness_rows, digest
                        ));
                    }
                    if result_rows == 0 || first.rows == 0 {
                        bad[k].get_or_insert("unexpectedly empty".to_string());
                    }
                    if let Some(other) = kind.same_bag_as {
                        let same = ready.first[other]
                            .as_ref()
                            .is_ok_and(|o| o.digest == first.digest);
                        if !same {
                            bad[k].get_or_insert(format!(
                                "witness bag differs from kind `{}`",
                                q.kinds[other].name
                            ));
                        }
                    }
                }
                facts.push(KindFacts {
                    name: kind.name.clone(),
                    result_rows,
                    witness_rows,
                    digest,
                });
            }
        }
        Inputs::Serve(s) => {
            // Every response against the single-threaded `Session` answer
            // for the same (statement, $1).
            let db = s.engine.database();
            let mut answers: BTreeMap<(usize, i64), Result<u64, String>> = BTreeMap::new();
            for (k, batch) in s.batches.iter().enumerate() {
                let digests: Result<Vec<u64>, String> = batch
                    .iter()
                    .map(|(stmt, value)| {
                        answers
                            .entry((*stmt, *value))
                            .or_insert_with(|| {
                                ops::serve_reference(db, &s.statements[*stmt], *value)
                            })
                            .clone()
                    })
                    .collect();
                let digest = match digests {
                    Ok(d) => digest_of_sequence(d.into_iter()),
                    Err(e) => {
                        bad[k].get_or_insert(format!("reference path failed: {e}"));
                        0
                    }
                };
                let rows = ready.first[k].as_ref().map_or(0, |f| f.rows);
                if ready.first[k].as_ref().is_ok_and(|f| f.digest != digest) {
                    bad[k].get_or_insert(
                        "a response differs from the single-threaded Session answer".to_string(),
                    );
                }
                facts.push(KindFacts {
                    name: format!("batch{k}"),
                    result_rows: rows,
                    witness_rows: rows,
                    digest,
                });
            }
        }
    }
    if let Some(expected) = &ready.expected {
        if expected.len() != facts.len() {
            for b in &mut bad {
                b.get_or_insert(format!(
                    "expected/ commits {} kinds, the run has {}",
                    expected.len(),
                    facts.len()
                ));
            }
        }
        for (k, fact) in facts.iter().enumerate() {
            if expected.get(k) != Some(fact) {
                bad[k].get_or_insert(format!(
                    "differs from the committed digest in expected/: {:?}, committed {:?}",
                    fact,
                    expected.get(k)
                ));
            }
        }
    }
    (facts, bad)
}

/// The outcome of a run, as its last line reports it.
pub struct Report {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Report {
    pub fn last_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", json::metrics_object(&self.metrics)),
        ])
        .render()
    }
}

fn summary_json(s: &Summary) -> Json {
    Json::obj([
        ("median", Json::Num(s.median)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        ("n", Json::Num(s.n as f64)),
    ])
}

/// The part of the report that is about kinds and failures, for people.
#[allow(clippy::too_many_arguments)]
fn print_kinds(
    options: &Options,
    ready: &Ready,
    timing: &Timing,
    facts: &[KindFacts],
    bad: &[Option<String>],
    rounds: &[f64],
    ops: &[Op],
    staged_failures: &[String],
) {
    let kinds = ready.kinds();
    println!(
        "workload {}  seed {}  {} kinds  {} rounds  {} ops",
        options.workload,
        options.seed,
        kinds,
        rounds.len(),
        ops.len()
    );
    for (key, value) in &ready.generated.choices {
        println!("  input {key} = {value}");
    }
    println!(
        "  {:<26} {:>10} {:>10} {:>10} {:>5} {:>9} {:>9}  fingerprint",
        "kind", "median ms", "q1", "q3", "n", "rows", "witness"
    );
    for (k, s) in timing.kind_ms.iter().enumerate() {
        let fingerprint = ready.first[k].as_ref().map_or(0, |f| f.fingerprint);
        println!(
            "  {:<26} {:>10.3} {:>10.3} {:>10.3} {:>5} {:>9} {:>9}  {:016x}",
            ready.kind_name(k),
            s.median,
            s.q1,
            s.q3,
            s.n,
            facts[k].result_rows,
            facts[k].witness_rows,
            fingerprint
        );
    }
    for (k, why) in bad.iter().enumerate() {
        if let Some(why) = why {
            println!("  BAD {}: {why}", ready.kind_name(k));
        }
    }
    for op in ops.iter().filter(|op| op.failed.is_some()).take(10) {
        println!(
            "  FAILED op of {}: {}",
            ready.kind_name(op.kind),
            op.failed.as_deref().unwrap_or("")
        );
    }
    for failure in staged_failures.iter().take(10) {
        println!("  FAILED staged op: {failure}");
    }
}

/// Everything `results.json` keeps about one run of one workload.
#[allow(clippy::too_many_arguments)]
fn detail_json(
    options: &Options,
    ready: &Ready,
    report: &Report,
    timing: &Timing,
    setup_s: &[f64],
    raw_rounds: &[f64],
    facts: &[KindFacts],
    bad: &[Option<String>],
) -> Json {
    let kind = |k: usize| {
        let strategy = match &ready.generated.inputs {
            Inputs::Query(q) => q.kinds[k].strategy.name(),
            Inputs::Serve(_) => "Auto",
        };
        Json::obj([
            ("name", Json::str(ready.kind_name(k))),
            ("strategy", Json::str(strategy)),
            ("latency_ms", summary_json(&timing.kind_ms[k])),
            ("result_rows", Json::Num(facts[k].result_rows as f64)),
            ("witness_rows", Json::Num(facts[k].witness_rows as f64)),
            ("digest", Json::hex(facts[k].digest)),
            (
                "plan_fingerprint",
                Json::hex(ready.first[k].as_ref().map_or(0, |f| f.fingerprint)),
            ),
            ("bad", bad[k].as_ref().map_or(Json::Null, Json::str)),
        ])
    };
    let choices = ready.generated.choices.iter();
    Json::obj([
        ("workload", Json::str(&options.workload)),
        ("seed", Json::Num(options.seed as f64)),
        ("trace", Json::Bool(options.trace)),
        ("correct", Json::Bool(report.correct)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", json::metrics_object(&report.metrics)),
        ("setup_s", summary_json(&stats::summary(setup_s))),
        ("round_s", summary_json(&timing.round_s)),
        (
            "round_s_as_measured",
            summary_json(&stats::summary(raw_rounds)),
        ),
        (
            "inputs",
            Json::obj(choices.map(|(k, v)| (k.clone(), Json::str(v)))),
        ),
        ("kinds", Json::Arr((0..ready.kinds()).map(kind).collect())),
    ])
}

/// Runs one workload and prints its report; the last line of standard
/// output is the JSON object the driver reads.
pub fn run(options: &Options) -> Result<Report, String> {
    if options.check_determinism {
        check_determinism(options)?;
    }
    // Set up several times, so that `setup_s` is a median; every set-up
    // builds the inputs afresh, and the rounds are measured on the last.
    let setups = if options.quick || options.trace {
        1
    } else {
        SETUP_REPEATS
    };
    let mut setup_s = Vec::with_capacity(setups);
    let mut state: Option<Ready> = None;
    for _ in 0..setups {
        drop(state.take());
        let kernel_before = calibrate::sample();
        let started = Instant::now();
        state = Some(setup(&options.workload, options.seed, options.bless)?);
        let raw_s = started.elapsed().as_secs_f64();
        setup_s.push(raw_s / calibrate::factor(kernel_before, calibrate::sample()));
    }
    let ready = state.expect("at least one set-up");

    // Whole rounds until the time is up, the calibration kernel between
    // them. A traced run follows every untraced round with a staged one, so
    // both see the same machine state.
    let min_rounds = if options.quick { 1 } else { MIN_ROUNDS };
    let mut traced = trace::Traced::new(&ready);
    let mut ops = Vec::new();
    let mut rounds: Vec<f64> = Vec::new();
    let mut raw_rounds: Vec<f64> = Vec::new();
    let mut cpu_s = 0.0;
    let started = Instant::now();
    let mut kernel_before = calibrate::sample();
    loop {
        let first_op = ops.len();
        let cpu_before = cpu_seconds();
        let raw_s = run_round(&ready, rounds.len(), &mut ops);
        cpu_s += cpu_seconds() - cpu_before;
        let kernel_after = calibrate::sample();
        let factor = calibrate::factor(kernel_before, kernel_after);
        for op in &mut ops[first_op..] {
            op.total_s /= factor;
        }
        rounds.push(raw_s / factor);
        raw_rounds.push(raw_s);
        kernel_before = kernel_after;
        if options.trace {
            traced.round(&ready, rounds.len() - 1);
            kernel_before = calibrate::sample();
        }
        let timed_out = options.quick || started.elapsed().as_secs_f64() >= options.seconds;
        if rounds.len() >= min_rounds && timed_out {
            break;
        }
    }
    let kinds = ready.kinds();
    let per_round = ready.queries_per_round();
    let timing = timing(kinds, per_round, &rounds, &ops);
    // Before the reference path runs: its memory is not the workload's.
    let peak_rss_mb = peak_rss_mb();

    let (facts, bad) = verify(&ready);
    if options.bless {
        let path = expected_path(&options.workload);
        std::fs::create_dir_all(path.parent().expect("expected/ has a parent"))
            .and_then(|_| std::fs::write(&path, facts_json(options.seed, &facts).render() + "\n"))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("blessed {}", path.display());
    }
    let failed = ops
        .iter()
        .filter(|op| op.failed.is_some() || bad[op.kind].is_some())
        .count()
        + traced.failures.len();
    let correct = failed == 0 && bad.iter().all(Option::is_none);

    print_kinds(
        options,
        &ready,
        &timing,
        &facts,
        &bad,
        &rounds,
        &ops,
        &traced.failures,
    );

    let mut metrics: BTreeMap<String, (f64, &'static str)> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        metrics.insert(name.to_string(), (value, unit_of(name)));
    };
    if options.trace {
        let queries = (rounds.len() * per_round) as f64;
        let layers = traced.finish(&ready, &raw_rounds, &ops, cpu_s * 1e3 / queries);
        for m in &PER_LAYER {
            put(m.name, layers.get(m.name).copied().unwrap_or(0.0));
        }
    } else {
        put("setup_s", stats::median(&setup_s));
        put("queries_per_s", timing.queries_per_s);
        put("latency_ms_geomean", timing.latency_ms_geomean);
        put("latency_ms_p90", timing.latency_ms_p90);
        put("peak_rss_mb", peak_rss_mb);
        debug_assert_eq!(metrics.len(), END_TO_END.len());
    }
    println!(
        "  round wall time: median {:.4} s  q1 {:.4}  q3 {:.4}  n {}",
        timing.round_s.median, timing.round_s.q1, timing.round_s.q3, timing.round_s.n
    );
    let (scaled, raw) = (stats::median(&rounds), stats::median(&raw_rounds));
    println!(
        "  speed factor (kernel time / {:.1} ms) {:.4}: round median as measured {:.4} s",
        calibrate::REFERENCE_S * 1e3,
        raw / scaled,
        raw
    );
    println!(
        "  latency_ms_p90 taken at p{:.1} of {} ops",
        timing.percentile_used * 100.0,
        ops.len()
    );
    println!(
        "  failed_share = {} / {} = {:.6}",
        failed,
        ops.len(),
        failed as f64 / ops.len().max(1) as f64
    );
    for (name, (value, unit)) in &metrics {
        println!(
            "  {name} = {value:.6} {unit}  ({} is better)",
            direction_of(name)
        );
    }

    let report = Report {
        correct,
        attempted: ops.len(),
        failed,
        metrics,
    };
    if let Some(out) = &options.out {
        std::fs::create_dir_all(out)
            .map_err(|e| format!("cannot create {}: {e}", out.display()))?;
        let detail = detail_json(
            options,
            &ready,
            &report,
            &timing,
            &setup_s,
            &raw_rounds,
            &facts,
            &bad,
        );
        let suffix = if options.trace { "-traced" } else { "" };
        let path = out.join(format!("result-{}{suffix}.json", options.workload));
        std::fs::write(&path, detail.render() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        if options.trace {
            let path = out.join(format!("trace-{}.json", options.workload));
            std::fs::write(&path, traced.to_json(&ready).render() + "\n")
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
    }
    Ok(report)
}

/// Round 0 twice from the same seed: every exact count, every plan
/// fingerprint and every digest must repeat. A second seed must change the
/// inputs and still leave no kind empty.
fn check_determinism(options: &Options) -> Result<(), String> {
    let snapshot = |seed: u64| -> Result<(u64, Vec<String>, bool), String> {
        let ready = setup(&options.workload, seed, true)?;
        let mut traced = trace::Traced::new(&ready);
        traced.round(&ready, 0);
        let mut lines: Vec<String> = ready
            .first
            .iter()
            .enumerate()
            .map(|(k, f)| match f {
                Ok(s) => format!(
                    "{} rows={} digest={:016x} fingerprint={:016x}",
                    ready.kind_name(k),
                    s.rows,
                    s.digest,
                    s.fingerprint
                ),
                Err(e) => format!("{} error={e}", ready.kind_name(k)),
            })
            .collect();
        lines.extend(traced.exact_counts(&ready));
        let (_, bad) = verify(&ready);
        let good = bad.iter().all(Option::is_none);
        Ok((
            workloads::inputs_digest(&ready.generated.inputs),
            lines,
            good,
        ))
    };
    let (digest_a, lines_a, _) = snapshot(options.seed)?;
    let (digest_b, lines_b, _) = snapshot(options.seed)?;
    if digest_a != digest_b {
        return Err("determinism: the same seed generated different inputs".into());
    }
    for (a, b) in lines_a.iter().zip(&lines_b) {
        if a != b {
            return Err(format!("determinism: `{a}` became `{b}` on repetition"));
        }
    }
    let other = options.seed.wrapping_add(1);
    let (digest_c, _, good) = snapshot(other)?;
    if digest_c == digest_a {
        return Err(format!(
            "determinism: seed {other} generated the same inputs"
        ));
    }
    if !good {
        return Err(format!(
            "determinism: seed {other} leaves a kind empty or wrong"
        ));
    }
    println!(
        "determinism: {} exact values repeat for seed {}; seed {other} changes the inputs and keeps every kind good",
        lines_a.len(),
        options.seed
    );
    Ok(())
}
