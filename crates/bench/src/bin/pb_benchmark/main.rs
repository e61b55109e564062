//! `pb_benchmark` — the end-to-end and per-layer benchmark of the suite.
//!
//! ```text
//! cargo run --release --offline \
//!     --manifest-path crates/bench/src/bin/pb_benchmark/Cargo.toml -- --seed 1
//! ```
//!
//! Five workloads (see `README.md` beside this file) exercise the PB
//! pipeline, the masked and tiled paths and the `pb-serve` service.  Every
//! product is checked against an independent kernel; a mismatch, an error
//! response or a missing answer counts as a failed operation and makes the
//! run exit non-zero.
//!
//! * `--workload NAME` runs one workload in this process; without it every
//!   workload runs in a child process of its own.
//! * `--trace 1` runs the traced variant instead: short runs with the
//!   program tracer on, a Chrome trace per workload in `--out`, the layer
//!   ledger and the per-layer metrics.  End-to-end metrics come only from
//!   the untraced run (`--trace 0`, the default).
//! * `--repeat K` runs the suite K times on seeds `seed..seed+K` and prints
//!   each metric's median, quartile spread and max/min.
//! * `--smoke` uses tiny inputs and runs (the unit tests use it).
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod batch;
mod host;
mod ledger;
mod metrics;
mod serve_load;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use metrics::{per_layer_catalogue, result_json, Outcome, END_TO_END};
use serde_json::Value;
use workloads::{Ctx, Workload};

#[derive(Debug, Clone)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    repeat: usize,
    smoke: bool,
}

const USAGE: &str = "usage: pb_benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--out DIR] [--repeat K] [--smoke]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        out: PathBuf::from("pb_benchmark_out"),
        repeat: 1,
        smoke: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--out" => a.out = PathBuf::from(value()?),
            "--repeat" => {
                a.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if a.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    // Internal modes: measurements that must run in a fresh process.
    match argv.peek().map(String::as_str) {
        Some("--stream-child") => {
            return match argv.nth(1).and_then(|v| v.parse().ok()) {
                Some(elements) => {
                    host::stream_child(elements);
                    ExitCode::SUCCESS
                }
                None => ExitCode::from(2),
            };
        }
        Some("--setup-child") => {
            let rest: Vec<String> = argv.skip(1).collect();
            let parsed = match rest.as_slice() {
                [w, seed, dir] => Workload::parse(w)
                    .zip(seed.parse().ok())
                    .map(|(w, s)| (w, s, dir)),
                _ => None,
            };
            let secs = parsed
                .ok_or_else(|| format!("bad --setup-child arguments {rest:?}"))
                .and_then(|(w, seed, dir)| workloads::setup_once(w, seed, false, dir.as_ref()));
            return match secs {
                Ok(secs) => {
                    println!("{secs}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(2)
                }
            };
        }
        _ => {}
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs what the arguments ask for; `Ok(false)` when an operation failed.
fn dispatch(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let host = host::host();
    println!("{}", host.line(args.seed));
    let selected: Vec<Workload> = match args.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    if args.smoke || (args.workload.is_some() && args.repeat == 1) {
        let outcomes = selected
            .into_iter()
            .map(|w| run_here(args, w, args.seed, args.trace))
            .collect::<Result<Vec<_>, _>>()?;
        let all_ok = outcomes.iter().all(Outcome::correct);
        // One workload prints its own metric names; several prefix them.
        let several = outcomes.len() > 1;
        println!(
            "{}",
            result_json(
                all_ok,
                outcomes.iter().map(|o| o.attempted).sum(),
                outcomes.iter().map(|o| o.failed).sum(),
                outcomes.iter().flat_map(|o| {
                    o.metrics.iter().map(move |m| {
                        let name = if several {
                            format!("{}/{}", o.workload, m.name)
                        } else {
                            m.name.clone()
                        };
                        (name, m.value, m.unit.to_string())
                    })
                })
            )
        );
        return Ok(all_ok);
    }
    suite(args, &selected)
}

/// Runs one workload in this process inside a private scratch directory
/// and reports it.
fn run_here(args: &Args, w: Workload, seed: u64, trace: bool) -> Result<Outcome, String> {
    println!("workload {}: {}", w.name(), w.why());
    let outcome = in_scratch(args, w, seed, trace, |ctx| workloads::run(w, ctx))?;
    let catalogue = if trace {
        per_layer_catalogue()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    outcome.assert_complete(&catalogue);
    for line in outcome.lines() {
        println!("{line}");
    }
    for why in &outcome.failures {
        eprintln!("{} failed: {why}", w.name());
    }
    let mode = if trace { "layers" } else { "e2e" };
    let path = args.out.join(format!("{}.{mode}.json", w.name()));
    let doc = outcome.document(&host::host().line(seed), mode);
    let text = serde_json::to_string_pretty(&doc).expect("serialising a Value cannot fail");
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(outcome)
}

/// Removes the scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn in_scratch<R>(
    args: &Args,
    w: Workload,
    seed: u64,
    trace: bool,
    f: impl FnOnce(&Ctx) -> Result<R, String>,
) -> Result<R, String> {
    let scratch = ScratchDir(
        args.out
            .join(format!("scratch-{}-{}", w.name(), std::process::id())),
    );
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("{}: {e}", scratch.0.display()))?;
    let ctx = Ctx {
        seed,
        seconds: if args.smoke { 0.3 } else { args.seconds },
        trace,
        smoke: args.smoke,
        scratch: scratch.0.clone(),
        out: args.out.clone(),
        host: host::host(),
        spans: ledger::BenchSpans::default(),
    };
    f(&ctx)
}

/// One child run of the suite: workload, seed, and `(metric, value, unit)`.
type SuiteRun = (Workload, u64, Vec<(String, f64, String)>);

/// Every selected workload in a child process of its own (so each has its
/// own peak memory), `--repeat` times.
fn suite(args: &Args, selected: &[Workload]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut runs: Vec<SuiteRun> = Vec::new();
    let (mut attempted, mut failed, mut all_ok) = (0u64, 0u64, true);
    for k in 0..args.repeat as u64 {
        for &w in selected {
            let seed = args.seed + k;
            let out = Command::new(&exe)
                .args(["--workload", w.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&args.out)
                .output()
                .map_err(|e| format!("starting {}: {e}", w.name()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let last = lines.pop().unwrap_or_default();
            for l in lines.iter().filter(|l| !l.starts_with("host ")) {
                println!("{l}");
            }
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            let v = serde_json::from_str(last).map_err(|_| {
                format!(
                    "{} (seed {seed}) printed no result ({})",
                    w.name(),
                    out.status
                )
            })?;
            let u = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
            attempted += u("attempted");
            failed += u("failed");
            all_ok &=
                v.get("correct").and_then(Value::as_bool) == Some(true) && out.status.success();
            let metrics = v
                .get("metrics")
                .and_then(Value::as_object)
                .ok_or(format!("{}: result has no metrics", w.name()))?
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                    let unit = m.get("unit").and_then(Value::as_str).unwrap_or_default();
                    (name.clone(), value, unit.to_string())
                })
                .collect();
            runs.push((w, seed, metrics));
        }
    }
    if args.repeat > 1 {
        print!("{}", spread_table(&runs));
    }
    println!(
        "{}",
        result_json(
            all_ok,
            attempted,
            failed,
            runs.iter().flat_map(|(w, seed, ms)| {
                ms.iter()
                    .map(move |(n, v, u)| (format!("{}/{seed}/{n}", w.name()), *v, u.clone()))
            })
        )
    );
    Ok(all_ok)
}

/// Per workload and metric across the repeats: median, quartile spread as
/// a share of the median (how the bounds in `BENCHMARK.json` were set), and
/// max/min.
fn spread_table(runs: &[SuiteRun]) -> String {
    let mut s = format!(
        "{:<12} {:<26} {:>14} {:>9} {:>8} {:>4}\n",
        "workload", "metric", "median", "iqr/med", "max/min", "n"
    );
    for w in Workload::ALL {
        let mine: Vec<_> = runs.iter().filter(|(rw, _, _)| *rw == w).collect();
        let Some((_, _, first)) = mine.first() else {
            continue;
        };
        for (name, _, unit) in first {
            let vals: Vec<f64> = mine
                .iter()
                .filter_map(|(_, _, ms)| ms.iter().find(|(n, _, _)| n == name).map(|m| m.1))
                .collect();
            let med = stats::median(&vals);
            let (q1, q3) = stats::quartiles(&vals);
            let max = vals.iter().copied().fold(f64::MIN, f64::max);
            let min = vals.iter().copied().fold(f64::MAX, f64::min);
            s.push_str(&format!(
                "{:<12} {:<26} {:>14.6} {:>8.2}% {:>8.3} {:>4}  {unit}\n",
                w.name(),
                name,
                med,
                (q3 - q1) / med.abs().max(f64::MIN_POSITIVE) * 100.0,
                if min > 0.0 { max / min } else { f64::NAN },
                vals.len()
            ));
        }
    }
    s
}

/// Runs every workload at smoke size, untraced and traced, in this process.
#[cfg(test)]
fn smoke(out: &std::path::Path) -> Result<Vec<Outcome>, String> {
    let args = Args {
        workload: None,
        seed: 7,
        seconds: 0.3,
        trace: false,
        out: out.to_path_buf(),
        repeat: 1,
        smoke: true,
    };
    let mut outcomes = Vec::new();
    for w in Workload::ALL {
        for trace in [false, true] {
            outcomes.push(run_here(&args, w, args.seed, trace)?);
        }
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_every_workload_correctly() {
        let out = std::env::temp_dir().join(format!("pb_benchmark_smoke_{}", std::process::id()));
        let result = smoke(&out);
        let traces: Vec<_> = Workload::ALL
            .iter()
            .map(|w| std::fs::read_to_string(out.join(format!("{}.trace.json", w.name()))))
            .collect();
        let leftovers: Vec<_> = std::fs::read_dir(&out)
            .map(|d| {
                d.filter_map(|e| e.ok())
                    .map(|e| e.file_name().to_string_lossy().into_owned())
                    .filter(|n| n.starts_with("scratch-"))
                    .collect()
            })
            .unwrap_or_default();
        let _ = std::fs::remove_dir_all(&out);
        let outcomes = result.expect("smoke run");
        assert_eq!(outcomes.len(), 2 * Workload::ALL.len());
        for o in &outcomes {
            assert!(o.correct(), "{}: {:?}", o.workload, o.failures);
        }
        for t in traces {
            let text = t.expect("each workload writes a trace");
            pb_spgemm::trace::validate_chrome_trace(&text).expect("trace validates");
        }
        assert!(
            leftovers.is_empty(),
            "scratch directories left behind: {leftovers:?}"
        );
    }

    #[test]
    fn benchmark_json_matches_the_code() {
        let doc = serde_json::from_str(include_str!("../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                    (
                        s("name"),
                        if key == "workloads" {
                            s("why")
                        } else {
                            s("unit")
                        },
                    )
                })
                .collect()
        };
        let want_e2e: Vec<_> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(list("end_to_end"), want_e2e);
        let want_layers: Vec<_> = per_layer_catalogue()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(list("per_layer"), want_layers);
        let want_workloads: Vec<_> = Workload::ALL
            .iter()
            .map(|w| (w.name().to_string(), w.why().to_string()))
            .collect();
        assert_eq!(list("workloads"), want_workloads);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload serve-hot --seed 9 --seconds 2.5 --trace 1").expect("valid");
        assert_eq!(a.workload, Some(Workload::ServeHot));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 2.5, true));
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--repeat 0",
            "--seed",
            "--bogus",
        ] {
            assert!(parse(bad).is_err(), "{bad} should be rejected");
        }
    }
}
