//! The provenance benchmark. See `README.md` beside this package.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--out DIR]   one workload, in this process
//! benchmark run [--seed N] [--workload W] [--trace] [--out DIR] [--quick] [--bless] [--check-determinism]
//! benchmark compare --self [--runs N] | compare <dirA> <dirB>
//! ```

mod calibrate;
mod compare;
mod digest;
mod json;
mod metrics;
mod ops;
mod runner;
mod span;
mod stats;
mod trace;
mod workloads;

use json::Json;
use runner::Options;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::WORKLOADS;

/// Seconds each workload measures unless `--seconds` says otherwise; the
/// same number `BENCHMARK.json` gives the driver as `run_seconds`.
const DEFAULT_SECONDS: f64 = 15.0;
/// The seed `expected/*.json` is blessed for.
pub const DEFAULT_SEED: u64 = 42;

/// The flags shared by the single-workload form and `run`.
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    bless: bool,
    check_determinism: bool,
    out: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        bless: false,
        check_determinism: false,
        out: None,
    };
    let mut args = args.iter().peekable();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| -> Result<&String, String> {
            args.next().ok_or(format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => flags.workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                flags.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?
            }
            "--seconds" => {
                flags.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            "--out" => flags.out = Some(PathBuf::from(value("a directory")?)),
            // The driver writes `--trace 0|1`; by hand `--trace` is enough.
            "--trace" => {
                flags.trace = match args.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => flags.quick = true,
            "--bless" => flags.bless = true,
            "--check-determinism" => flags.check_determinism = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &flags.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload `{w}` (expected one of {})",
                WORKLOADS.join(", ")
            ));
        }
    }
    Ok(flags)
}

/// One workload in this process: what the driver calls, and what `run`
/// starts a child for.
fn single(flags: Flags) -> Result<bool, String> {
    let options = Options {
        workload: flags.workload.ok_or("--workload is required")?,
        seed: flags.seed,
        seconds: flags.seconds,
        trace: flags.trace,
        quick: flags.quick,
        bless: flags.bless,
        check_determinism: flags.check_determinism,
        out: flags.out,
    };
    let report = runner::run(&options)?;
    // The exit code says whether a result was printed; whether the result
    // is correct is in the result.
    println!("{}", report.last_line());
    Ok(true)
}

/// What a child's last line said.
pub struct ChildResult {
    pub correct: bool,
    pub failed: f64,
    pub metrics: Vec<(String, f64, String)>,
}

/// Runs one workload in a child process — so that `peak_rss_mb` and the
/// allocator's state belong to that workload alone — and reads its last
/// line. The child's report is passed through when `echo` is set.
pub fn run_child(args: &[String], echo: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child process: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    let last = stdout.lines().last().unwrap_or("");
    let doc = json::parse(last)
        .map_err(|e| format!("child `{}` printed no result ({e})", args.join(" ")))?;
    let field = |key: &str| doc.get(key).ok_or(format!("child result lacks `{key}`"));
    let metrics = field("metrics")?
        .as_obj()
        .ok_or("`metrics` is not an object")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            (name.clone(), value, unit.to_string())
        })
        .collect();
    Ok(ChildResult {
        correct: field("correct")?.as_bool().unwrap_or(false) && output.status.success(),
        failed: field("failed")?.as_f64().unwrap_or(0.0),
        metrics,
    })
}

/// The arguments of the child that runs `workload`.
pub fn child_args(workload: &str, seed: u64, seconds: f64, trace: bool) -> Vec<String> {
    vec![
        "--workload".into(),
        workload.into(),
        "--seed".into(),
        seed.to_string(),
        "--seconds".into(),
        seconds.to_string(),
        "--trace".into(),
        if trace { "1" } else { "0" }.into(),
    ]
}

/// `run`: every workload (or one), each in its own child process; with
/// `--trace` a second, traced child per workload. Writes `results.json`.
fn run_all(flags: Flags) -> Result<bool, String> {
    let out = flags.out.clone().unwrap_or_else(|| PathBuf::from("out"));
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let workloads: Vec<&str> = match &flags.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut all_correct = true;
    let mut entries = Vec::new();
    for workload in workloads {
        let mut passes = vec![false];
        if flags.trace {
            passes.push(true);
        }
        for trace in passes {
            let mut args = child_args(workload, flags.seed, flags.seconds, trace);
            args.extend(["--out".to_string(), out.display().to_string()]);
            // Blessing and the determinism check are done once, untraced.
            let once = [
                ("--quick", flags.quick),
                ("--bless", flags.bless && !trace),
                ("--check-determinism", flags.check_determinism && !trace),
            ];
            args.extend(
                once.iter()
                    .filter(|(_, on)| *on)
                    .map(|(f, _)| f.to_string()),
            );
            let child = run_child(&args, true)?;
            all_correct &= child.correct && child.failed == 0.0;
            let suffix = if trace { "-traced" } else { "" };
            let detail = out.join(format!("result-{workload}{suffix}.json"));
            let text = std::fs::read_to_string(&detail)
                .map_err(|e| format!("cannot read {}: {e}", detail.display()))?;
            entries.push((format!("{workload}{suffix}"), json::parse(&text)?));
        }
    }
    let results = Json::obj([
        ("seed", Json::Num(flags.seed as f64)),
        ("seconds", Json::Num(flags.seconds)),
        ("claim", Json::Null),
        ("workloads", Json::Obj(entries)),
    ]);
    let path = out.join("results.json");
    std::fs::write(&path, results.render() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_flags(&args[1..]).and_then(run_all),
        Some("compare") => compare::main(&args[1..]),
        Some(flag) if flag.starts_with("--") => parse_flags(&args).and_then(single),
        _ => Err(
            "usage: benchmark run [--seed N] [--workload W] [--trace] [--out DIR] \
                  [--quick] [--bless] [--check-determinism]\n       \
                  benchmark compare --self [--runs N] | compare <dirA> <dirB>\n       \
                  benchmark --workload W --seed N --seconds S --trace 0|1 [--out DIR]"
                .to_string(),
        ),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
