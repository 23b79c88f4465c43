//! The repository's benchmark: absolute numbers, attributed to layers.
//!
//! `run.sh --workload W --seed N --seconds S --trace 0|1` runs one workload
//! in this process and prints its metrics, the last line being the JSON
//! object the driver reads. Without `--workload` every workload runs in a
//! child process of its own, one after another. See `README.md`.

mod des;
mod placement;
mod reference;
mod report;
mod stats;
mod svc;
mod trace;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use serde::Value;

use report::{Host, MetricDef, RunResult, END_TO_END};
use workloads::{Kind, Workload, WORKLOADS};

const USAGE: &str = "\
usage: run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--aa] [--bless] [--list]
  --workload W   run one workload in this process (default: all, one child process each)
  --seed N       permutes key/cell order and tenant assignment (default 1)
  --seconds S    timed seconds per run (default: run_seconds of BENCHMARK.json)
  --trace [0|1]  1 (or bare): the traced run, per-layer metrics; 0: end-to-end metrics
  --quick        about one second per workload
  --aa           run the whole set twice on this build and compare within the bounds
  --bless        regenerate benchmark/reference/
  --list         print the workloads and why each exists";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    aa: bool,
    bless: bool,
    list: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        aa: false,
        bless: false,
        list: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => a.seconds = Some(1.0),
            "--aa" => a.aa = true,
            "--bless" => a.bless = true,
            "--list" => a.list = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &a.workload {
        if workloads::by_name(w).is_none() {
            return Err(format!("unknown workload {w:?}; --list names them"));
        }
    }
    Ok(a)
}

/// The parts of `BENCHMARK.json` the binary itself needs: the default run
/// length and each end-to-end metric's regression bound.
struct Contract {
    run_seconds: f64,
    bounds: Vec<(String, f64)>,
}

fn load_contract() -> Result<Contract, String> {
    let path = reference::bench_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = serde_json::parse_value(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let top = v.as_object().ok_or("BENCHMARK.json: not an object")?;
    let run_seconds = serde::get_field(top, "run_seconds")
        .and_then(Value::as_f64)
        .ok_or("BENCHMARK.json: no run_seconds")?;
    let bounds = serde::get_field(top, "end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json: no end_to_end")?
        .iter()
        .filter_map(|m| {
            let m = m.as_object()?;
            let name = serde::get_field(m, "name")?.as_str()?.to_string();
            Some((name, serde::get_field(m, "bound")?.as_f64()?))
        })
        .collect();
    Ok(Contract {
        run_seconds,
        bounds,
    })
}

fn run_one(
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<RunResult, String> {
    match (w.kind, trace) {
        (Kind::Service(s), false) => svc::run(w, s, seed, seconds),
        (Kind::Service(s), true) => svc::run_traced(w, s, seed, seconds),
        (Kind::Des(d), false) => des::run(w, d, seed, seconds),
        (Kind::Des(d), true) => des::run_traced(w, d, seed, seconds),
    }
}

fn bless(only: Option<&str>) -> Result<(), String> {
    for w in WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|n| n == w.name))
    {
        let r = match w.kind {
            Kind::Service(s) => svc::bless(w, s)?,
            Kind::Des(d) => des::bless(w, d)?,
        };
        let path = reference::save(&r)?;
        println!(
            "blessed {} ({} entries)",
            path.display(),
            r.keys.len() + r.cells.len()
        );
    }
    Ok(())
}

/// One child run's parsed contract line.
struct ChildResult {
    correct: bool,
    metrics: Vec<(String, f64)>,
}

impl ChildResult {
    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// Run one workload in a child process of this executable, passing its
/// output through, and parse the last line.
fn run_child(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", w.name, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or(format!("{}: no output", w.name))?;
    for l in &lines {
        println!("{l}");
    }
    let v = serde_json::parse_value(last).map_err(|e| format!("{}: last line: {e}", w.name))?;
    let parsed = (|| {
        let top = v.as_object()?;
        let metrics = serde::get_field(top, "metrics")?
            .as_object()?
            .iter()
            .filter_map(|(k, m)| {
                Some((
                    k.clone(),
                    serde::get_field(m.as_object()?, "value")?.as_f64()?,
                ))
            })
            .collect();
        Some(ChildResult {
            correct: serde::get_field(top, "correct")?.as_bool()? && out.status.success(),
            metrics,
        })
    })();
    parsed.ok_or(format!("{}: malformed result line", w.name))
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    if def.higher {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// The whole set, each workload in its own process. With `trace` a traced
/// run follows each untraced one and the difference of their throughputs is
/// printed as the tracing overhead. Returns the untraced results.
fn run_set(
    seed: u64,
    seconds: f64,
    trace: bool,
    ok: &mut bool,
) -> Result<Vec<ChildResult>, String> {
    let mut results = Vec::new();
    for w in &WORKLOADS {
        let r = run_child(w, seed, seconds, false)?;
        *ok &= r.correct;
        if trace {
            let t = run_child(w, seed, seconds, true)?;
            *ok &= t.correct;
            if let (Some(plain), Some(traced)) = (r.get("ops_per_s"), t.get("trace.ops_per_s")) {
                println!(
                    "{} trace_overhead_share {} ratio",
                    w.name,
                    1.0 - traced / plain
                );
            }
        }
        results.push(r);
    }
    Ok(results)
}

/// A/A: the same build measured twice must agree within the bounds the
/// benchmark itself declares, in both directions.
fn compare_sets(a: &[ChildResult], b: &[ChildResult], contract: &Contract) -> bool {
    let mut agree = true;
    println!("# A/A: relative difference of the second set against the first, beside the bound");
    for (w, (ra, rb)) in WORKLOADS.iter().zip(a.iter().zip(b)) {
        for def in &END_TO_END {
            let (Some(va), Some(vb)) = (ra.get(def.name), rb.get(def.name)) else {
                continue;
            };
            let bound = contract
                .bounds
                .iter()
                .find(|(n, _)| n == def.name)
                .map_or(0.0, |&(_, b)| b);
            let diff = worse_by(def, va, vb);
            let within = diff.abs() <= bound;
            agree &= within;
            println!(
                "{} {} {:+.4} bound {} {}",
                w.name,
                def.name,
                diff,
                bound,
                if within { "ok" } else { "DISAGREES" }
            );
        }
    }
    agree
}

fn real_main() -> Result<bool, String> {
    report::nproc(); // latch the CPU count before any thread is pinned
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) if e.is_empty() => {
            println!("{USAGE}");
            return Ok(true);
        }
        Err(e) => return Err(format!("{e}\n{USAGE}")),
    };
    if args.list {
        for w in &WORKLOADS {
            println!("{:<20} {}", w.name, w.why);
        }
        return Ok(true);
    }
    if args.bless {
        bless(args.workload.as_deref())?;
        return Ok(true);
    }
    let contract = load_contract()?;
    let seconds = args.seconds.unwrap_or(contract.run_seconds);
    if let Some(name) = &args.workload {
        let w = workloads::by_name(name).expect("checked by parse_args");
        let result = run_one(w, args.seed, seconds, args.trace)?;
        result.emit(&Host::detect());
        return Ok(result.correct());
    }
    println!("{}", Host::detect().line());
    let mut ok = true;
    let first = run_set(args.seed, seconds, args.trace, &mut ok)?;
    if args.aa {
        let second = run_set(args.seed, seconds, false, &mut ok)?;
        ok &= compare_sets(&first, &second, &contract);
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn driver_and_human_forms_of_trace_both_parse() {
        let a = args("--workload svc_hot_8r --seed 7 --seconds 10 --trace 0").unwrap();
        assert!(!a.trace && a.seed == 7 && a.seconds == Some(10.0));
        assert!(args("--trace 1 --seed 2").unwrap().trace);
        assert!(args("--seed 2 --trace").unwrap().trace);
        assert!(args("--trace --quick").unwrap().trace);
        assert_eq!(args("--quick").unwrap().seconds, Some(1.0));
        assert!(args("--workload nope").is_err());
        assert!(args("--seconds 0").is_err());
    }

    #[test]
    fn worse_by_follows_the_metric_direction() {
        let tput = END_TO_END.iter().find(|d| d.name == "ops_per_s").unwrap();
        let lat = END_TO_END
            .iter()
            .find(|d| d.name == "latency_typical_us")
            .unwrap();
        assert!((worse_by(tput, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(lat, 100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(lat, 100.0, 90.0) < 0.0);
    }
}
