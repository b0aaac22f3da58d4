//! `compare`: do two sets of runs agree (`--self`), or did a change move a
//! metric (`<dirA> <dirB>`)?
//!
//! The rule for a gain is choosing-metrics §8: at least ten pairs, run
//! alternately; the change wins at least nine tenths of them, ties counting
//! for neither side; and the medians differ by more than the spread between
//! the parent's own runs, taken as the distance between their quartiles.

use crate::json::{self, Json};
use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::{self, Summary};
use crate::workloads::WORKLOADS;
use crate::{child_args, run_child};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// `values[workload][metric]`, one value per run. Beside the end-to-end
/// metrics every run leaves [`ATTEMPTED`], [`FAILED`] and [`INCORRECT`].
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

const ATTEMPTED: &str = "attempted";
const FAILED: &str = "failed";
/// 1 for a run whose outputs were wrong, else 0.
const INCORRECT: &str = "incorrect";

fn record(runs: &mut Runs, workload: &str, name: &str, value: f64) {
    runs.entry(workload.to_string())
        .or_default()
        .entry(name.to_string())
        .or_default()
        .push(value);
}

/// Failed ops ÷ ops attempted over all runs of `workload`, and how many of
/// those runs were incorrect.
fn failures(runs: &Runs, workload: &str) -> (f64, f64) {
    let total = |name: &str| -> f64 {
        runs.get(workload)
            .and_then(|w| w.get(name))
            .map_or(0.0, |v| v.iter().sum())
    };
    (total(FAILED) / total(ATTEMPTED).max(1.0), total(INCORRECT))
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Unresolved,
    Regressed,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// How much better `b` is than `a`, in the metric's own unit (negative:
/// worse).
fn gain(metric: &EndToEnd, a: f64, b: f64) -> f64 {
    match metric.better {
        Better::Lower => a - b,
        Better::Higher => b - a,
    }
}

/// The verdict on one metric of one workload from paired runs of the
/// parent (`a`) and the change (`b`).
pub fn verdict(metric: &EndToEnd, a: &[f64], b: &[f64]) -> (Verdict, Summary, Summary, usize) {
    let pairs = a.len().min(b.len());
    let (sa, sb) = (stats::summary(&a[..pairs]), stats::summary(&b[..pairs]));
    let wins = a
        .iter()
        .zip(b)
        .filter(|(a, b)| gain(metric, **a, **b) > 0.0)
        .count();
    let median_gain = gain(metric, sa.median, sb.median);
    let spread = sa.q3 - sa.q1;
    let verdict = if pairs >= 10 && wins * 10 >= pairs * 9 && median_gain > spread {
        Verdict::Improved
    } else if spread > metric.bound * sa.median.abs() {
        // The parent's own runs differ by more than the bound: a change
        // within the bound cannot be told from no change.
        Verdict::Unresolved
    } else if -median_gain > metric.bound * sa.median.abs() {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    };
    (verdict, sa, sb, wins)
}

fn print_header() {
    println!(
        "{:<14} {:<20} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A iqr", "B median", "B wins", "pairs"
    );
}

/// One row per workload × metric; `true` when nothing regressed. Any
/// increase of `failed_share`, or an incorrect run the parent did not have,
/// is a regression, and no timing of that workload counts as improved: a
/// change that answers fewer queries has not made them faster.
fn report(a: &Runs, b: &Runs) -> bool {
    print_header();
    let mut ok = true;
    for workload in WORKLOADS {
        if !a.contains_key(workload) || !b.contains_key(workload) {
            continue;
        }
        let ((share_a, wrong_a), (share_b, wrong_b)) =
            (failures(a, workload), failures(b, workload));
        let fails_more = share_b > share_a || wrong_b > wrong_a;
        ok &= !fails_more;
        println!(
            "{:<14} {:<20} {:>12.6} {:>12} {:>12.6} {:>8} {:>6}  {}",
            workload,
            "failed_share",
            share_a,
            "",
            share_b,
            "",
            "",
            if fails_more {
                Verdict::Regressed.name()
            } else {
                Verdict::Unchanged.name()
            }
        );
        for metric in &END_TO_END {
            let values = |runs: &Runs| -> Vec<f64> {
                runs.get(workload)
                    .and_then(|w| w.get(metric.name))
                    .cloned()
                    .unwrap_or_default()
            };
            let (va, vb) = (values(a), values(b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (mut verdict, sa, sb, wins) = verdict(metric, &va, &vb);
            if fails_more && verdict == Verdict::Improved {
                verdict = Verdict::Unresolved;
            }
            ok &= verdict != Verdict::Regressed;
            println!(
                "{:<14} {:<20} {:>12.4} {:>12.4} {:>12.4} {:>8} {:>6}  {}",
                workload,
                metric.name,
                sa.median,
                sa.q3 - sa.q1,
                sb.median,
                wins,
                sa.n,
                verdict.name()
            );
        }
    }
    ok
}

/// Every `results.json` below `dir` (the directory itself, or one level
/// down), in path order.
fn result_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    let direct = dir.join("results.json");
    if direct.is_file() {
        files.push(direct);
    }
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let nested = entry.path().join("results.json");
        if nested.is_file() {
            files.push(nested);
        }
    }
    files.sort();
    if files.is_empty() {
        return Err(format!("no results.json in or below {}", dir.display()));
    }
    Ok(files)
}

fn load(dir: &Path) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for file in result_files(dir)? {
        let text = std::fs::read_to_string(&file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or(format!("{}: no `workloads`", file.display()))?;
        for (workload, result) in workloads {
            let field = |key: &str| {
                result
                    .get(key)
                    .ok_or(format!("{}: {workload} lacks `{key}`", file.display()))
            };
            for (name, m) in field("metrics")?.as_obj().unwrap_or(&[]) {
                if let Some(value) = m.get("value").and_then(Json::as_f64) {
                    record(&mut runs, workload, name, value);
                }
            }
            for name in [ATTEMPTED, FAILED] {
                record(
                    &mut runs,
                    workload,
                    name,
                    field(name)?.as_f64().unwrap_or(0.0),
                );
            }
            let correct = field("correct")?.as_bool().unwrap_or(false);
            record(&mut runs, workload, INCORRECT, f64::from(!correct));
        }
    }
    Ok(runs)
}

/// `--self`: the suite twice from the same executable, the two sets taking
/// turns to go first. Passes when every end-to-end metric of every workload
/// agrees within its bound and no op failed.
fn compare_self(runs: usize, seed: u64, seconds: f64) -> Result<bool, String> {
    let (mut a, mut b) = (Runs::new(), Runs::new());
    let mut failures = 0.0;
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for run in 0..runs {
            let a_first = (w + run) % 2 == 0;
            for first in [true, false] {
                let set = if first == a_first { &mut a } else { &mut b };
                let child = run_child(
                    &child_args(workload, seed + run as u64, seconds, false),
                    false,
                )?;
                failures += child.failed + if child.correct { 0.0 } else { 1.0 };
                for (name, value, _) in child.metrics {
                    record(set, workload, &name, value);
                }
            }
            println!("{workload}: pair {} of {runs} done", run + 1);
        }
    }
    print_header();
    let mut ok = failures == 0.0;
    for workload in WORKLOADS {
        for metric in &END_TO_END {
            let (va, vb) = (&a[workload][metric.name], &b[workload][metric.name]);
            let (ma, mb) = (stats::median(va), stats::median(vb));
            let agrees = (ma - mb).abs() <= metric.bound * ma.abs();
            ok &= agrees;
            println!(
                "{:<14} {:<20} {:>12.4} {:>12} {:>12.4} {:>8} {:>6}  {}",
                workload,
                metric.name,
                ma,
                "",
                mb,
                "",
                va.len(),
                if agrees { "agrees" } else { "DISAGREES" }
            );
        }
    }
    if failures > 0.0 {
        println!("{failures} failed ops or incorrect runs");
    }
    Ok(ok)
}

pub fn main(args: &[String]) -> Result<bool, String> {
    match args {
        [flag, rest @ ..] if flag == "--self" => {
            let mut runs = 1;
            let mut seed = crate::DEFAULT_SEED;
            let mut seconds = crate::DEFAULT_SECONDS;
            let mut rest = rest.iter();
            while let Some(flag) = rest.next() {
                let value = rest.next().ok_or(format!("{flag} needs a value"))?;
                let bad = || format!("{flag} needs a positive number");
                match flag.as_str() {
                    "--runs" => runs = value.parse().ok().filter(|n| *n > 0).ok_or_else(bad)?,
                    "--seed" => seed = value.parse().map_err(|_| bad())?,
                    "--seconds" => {
                        seconds = value.parse().ok().filter(|s| *s > 0.0).ok_or_else(bad)?
                    }
                    other => return Err(format!("unknown argument `{other}`")),
                }
            }
            compare_self(runs, seed, seconds)
        }
        [a, b] => Ok(report(&load(Path::new(a))?, &load(Path::new(b))?)),
        _ => Err(
            "usage: benchmark compare --self [--runs N] [--seed N] [--seconds S] \
                  | compare <dirA> <dirB>"
                .to_string(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower() -> &'static EndToEnd {
        END_TO_END
            .iter()
            .find(|m| m.name == "latency_ms_geomean")
            .unwrap()
    }

    #[test]
    fn a_gain_needs_ten_pairs_nine_wins_and_a_gap_beyond_the_spread() {
        let a: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.1).collect();
        let b: Vec<f64> = a.iter().map(|v| v * 0.8).collect();
        assert_eq!(verdict(lower(), &a, &b).0, Verdict::Improved);
        // Nine pairs are not enough, however clear the gap.
        assert_eq!(verdict(lower(), &a[..9], &b[..9]).0, Verdict::Unchanged);
        // Two losses in ten are too many.
        let mut mixed = b.clone();
        mixed[0] = 200.0;
        mixed[1] = 200.0;
        assert_ne!(verdict(lower(), &a, &mixed).0, Verdict::Improved);
    }

    #[test]
    fn worse_beyond_the_bound_is_a_regression_unless_the_parent_is_noisy() {
        let a: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.1).collect();
        let worse: Vec<f64> = a.iter().map(|v| v * (1.0 + lower().bound + 0.05)).collect();
        assert_eq!(verdict(lower(), &a, &worse).0, Verdict::Regressed);
        let within: Vec<f64> = a.iter().map(|v| v * (1.0 + lower().bound / 2.0)).collect();
        assert_eq!(verdict(lower(), &a, &within).0, Verdict::Unchanged);
        let noisy: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 10.0).collect();
        assert_eq!(verdict(lower(), &noisy, &worse).0, Verdict::Unresolved);
    }

    #[test]
    fn more_failures_are_a_regression_and_never_an_improvement() {
        let side = |latency: f64, failed: f64| -> Runs {
            let mut runs = Runs::new();
            for workload in WORKLOADS {
                for i in 0..10 {
                    for m in &END_TO_END {
                        record(&mut runs, workload, m.name, latency + i as f64 * 0.01);
                    }
                    record(&mut runs, workload, ATTEMPTED, 100.0);
                    record(&mut runs, workload, FAILED, failed);
                    record(&mut runs, workload, INCORRECT, f64::from(failed > 0.0));
                }
            }
            runs
        };
        assert!(report(&side(100.0, 0.0), &side(100.0, 0.0)));
        // Twice as fast on every lower-is-better metric, but one op in a
        // hundred now fails.
        assert!(!report(&side(100.0, 0.0), &side(50.0, 1.0)));
        assert_eq!(failures(&side(50.0, 1.0), WORKLOADS[0]), (0.01, 10.0));
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let qps = END_TO_END
            .iter()
            .find(|m| m.name == "queries_per_s")
            .unwrap();
        let a = vec![10.0; 10];
        let b = vec![20.0; 10];
        assert_eq!(verdict(qps, &a, &b).0, Verdict::Improved);
        assert_eq!(verdict(qps, &b, &a).0, Verdict::Regressed);
    }
}
