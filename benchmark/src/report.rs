//! Metric names, the host descriptor, and what a run prints.
//!
//! A run prints `# ...` comment lines, then one `<workload> <metric>
//! <value> <unit>` line per metric, then - as the last line of standard
//! output - one JSON object `{correct, attempted, failed, metrics}`. The
//! same content plus details goes to `benchmark/out/`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::OnceLock;

use serde::Value;

use crate::reference::bench_dir;

/// The vendored `serde` has no `Serialize` for its own `Value` tree; this
/// hands one to `serde_json` as it is.
struct Tree(Value);

impl serde::Serialize for Tree {
    fn serialize(&self) -> Value {
        self.0.clone()
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true`: higher is better.
    pub higher: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher: true,
    }
}

/// What a user of the system sees; every untraced run reports all of them.
/// An *operation* is one service job (submit -> verified bytes) or one DES
/// cell (`simulate` call -> checked report).
pub const END_TO_END: [MetricDef; 5] = [
    lower("setup_s", "s"),
    higher("ops_per_s", "1/s"),
    lower("latency_typical_us", "us"),
    lower("latency_tail_us", "us"),
    lower("peak_rss_mb", "MiB"),
];

/// Single-layer numbers; every traced run reports all of them, 0 for a
/// layer the workload does not enter. Times are host time per operation
/// unless the name says otherwise.
pub const PER_LAYER: [MetricDef; 40] = [
    lower("core.build_ms", "ms"),
    lower("core.ops_built", "count"),
    lower("sched.validate_ms", "ms"),
    lower("lint.safety_ms", "ms"),
    lower("lint.prove_ms", "ms"),
    lower("lint.findings", "count"),
    lower("service.compile_cold_ms", "ms"),
    lower("sched.scratch_build_ms", "ms"),
    lower("sched.exec_ms", "ms"),
    higher("sched.exec_msgs_per_s", "1/s"),
    higher("sched.exec_mb_per_s", "MB/s"),
    lower("sched.messages", "count"),
    lower("sched.message_bytes", "count"),
    lower("sched.fill_ms", "ms"),
    lower("sched.check_ms", "ms"),
    lower("service.submit_call_us", "us"),
    lower("service.cache_hit_us", "us"),
    lower("runtime.pool_dispatch_us", "us"),
    lower("service.job_latency_w1_us", "us"),
    lower("service.residual_us", "us"),
    lower("service.residual_share", "ratio"),
    higher("service.cache_hit_ratio", "ratio"),
    lower("service.cache_evictions", "count"),
    lower("service.compiled", "count"),
    higher("service.batch_fill", "ratio"),
    lower("service.scratch_builds", "count"),
    lower("service.prove_ms_total", "ms"),
    lower("service.retries", "count"),
    lower("service.shed", "count"),
    lower("netsim.events", "count"),
    lower("netsim.sim_ms", "ms"),
    lower("netsim.ns_per_event", "ns"),
    lower("netsim.sim_total_us", "us"),
    lower("netsim.build_share", "ratio"),
    higher("netsim.sharded_w2_speedup", "ratio"),
    lower("netsim.cross_events", "count"),
    lower("netsim.causality_violations", "count"),
    higher("trace.ops_per_s", "1/s"),
    lower("trace.spans", "count"),
    lower("trace.span_cost_ns", "ns"),
];

/// Where and how the numbers were taken; stamped on every run.
pub struct Host {
    pub nproc: usize,
    pub workers: usize,
    pub rustc: String,
    pub revision: String,
}

impl Host {
    /// `rustc -V` and the git revision come from `run.sh` through the
    /// environment: the binary itself starts no process and needs no git.
    pub fn detect() -> Self {
        let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
        Host {
            nproc: nproc(),
            workers: service_workers(),
            rustc: env("A2A_BENCH_RUSTC"),
            revision: env("A2A_BENCH_REV"),
        }
    }

    pub fn line(&self) -> String {
        format!(
            "# host nproc={} service_workers={} rustc={:?} revision={}",
            self.nproc, self.workers, self.rustc, self.revision
        )
    }

    fn value(&self) -> Value {
        Value::Object(vec![
            ("nproc".into(), Value::U64(self.nproc as u64)),
            ("service_workers".into(), Value::U64(self.workers as u64)),
            ("rustc".into(), Value::Str(self.rustc.clone())),
            ("revision".into(), Value::Str(self.revision.clone())),
        ])
    }
}

/// CPUs available to the process. Latched on first use - `main` asks before
/// anything else - because `available_parallelism` follows the calling
/// thread's affinity, which `placement` narrows later.
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// One generator thread plus this many pool workers keeps the host's cores
/// busy without oversubscribing them.
pub fn service_workers() -> usize {
    nproc().saturating_sub(1).max(1)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything one run of one workload produced.
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Output or invariant violations, one line each; empty = correct.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// `# ...` lines: sample counts, exact counters, warnings.
    pub notes: Vec<String>,
    /// Per-key / per-cell tables for the out file.
    pub details: Vec<(String, Value)>,
}

impl RunResult {
    pub fn new(workload: &'static str, seed: u64, seconds: f64, traced: bool) -> Self {
        RunResult {
            workload,
            seed,
            seconds,
            traced,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: BTreeMap::new(),
            notes: Vec::new(),
            details: Vec::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn defs(&self) -> &'static [MetricDef] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// The contract object: exactly `correct`, `attempted`, `failed`,
    /// `metrics`, the latter holding every metric of the run's kind.
    fn contract(&self) -> Value {
        let metrics = self
            .defs()
            .iter()
            .map(|d| {
                let v = self.metrics.get(d.name).copied().unwrap_or(0.0);
                let entry = Value::Object(vec![
                    ("value".into(), Value::F64(v)),
                    ("unit".into(), Value::Str(d.unit.into())),
                ]);
                (d.name.to_string(), entry)
            })
            .collect();
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::U64(self.attempted.max(1))),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ])
    }

    fn out_path(&self) -> PathBuf {
        let kind = if self.traced { "layers" } else { "run" };
        bench_dir()
            .join("out")
            .join(format!("{}.{kind}.json", self.workload))
    }

    /// Print the run and write its out file.
    pub fn emit(&self, host: &Host) {
        println!("{}", host.line());
        println!(
            "# {} seed={} seconds={} trace={}",
            self.workload, self.seed, self.seconds, self.traced as u8
        );
        for n in &self.notes {
            println!("# {n}");
        }
        for p in &self.problems {
            println!("# INCORRECT: {p}");
        }
        for d in self.defs() {
            let v = self.metrics.get(d.name).copied().unwrap_or(0.0);
            println!("{} {} {} {}", self.workload, d.name, v, d.unit);
        }
        let contract = self.contract();
        let mut full = vec![
            ("workload".to_string(), Value::Str(self.workload.into())),
            ("seed".to_string(), Value::U64(self.seed)),
            ("seconds".to_string(), Value::F64(self.seconds)),
            ("host".to_string(), host.value()),
            ("result".to_string(), contract.clone()),
            (
                "notes".to_string(),
                Value::Array(self.notes.iter().cloned().map(Value::Str).collect()),
            ),
        ];
        full.extend(self.details.iter().cloned());
        let path = self.out_path();
        let written = std::fs::create_dir_all(path.parent().expect("out file has a parent"))
            .and_then(|()| {
                let text = serde_json::to_string_pretty(&Tree(Value::Object(full)))
                    .map_err(std::io::Error::other)?;
                std::fs::write(&path, text + "\n")
            });
        if let Err(e) = written {
            eprintln!("warning: {}: {e}", path.display());
        }
        println!(
            "{}",
            serde_json::to_string(&Tree(contract)).expect("a Value tree serializes")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// binary prints. They must name the same metrics.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = bench_dir().join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        let v = serde_json::parse_value(&text).unwrap();
        let top = v.as_object().unwrap();
        let names = |key: &str| -> Vec<(String, String, String)> {
            serde::get_field(top, key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let m = m.as_object().unwrap();
                    let s = |k: &str| {
                        serde::get_field(m, k)
                            .and_then(Value::as_str)
                            .unwrap()
                            .to_string()
                    };
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let table = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| {
                    let better = if d.higher { "higher" } else { "lower" };
                    (d.name.to_string(), d.unit.to_string(), better.to_string())
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), table(&END_TO_END));
        assert_eq!(names("per_layer"), table(&PER_LAYER));
        let workloads: Vec<(String, String)> = serde::get_field(top, "workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                let w = w.as_object().unwrap();
                let s = |k: &str| {
                    serde::get_field(w, k)
                        .and_then(Value::as_str)
                        .unwrap()
                        .to_string()
                };
                (s("name"), s("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);
        assert!(ours
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
    }

    #[test]
    fn contract_object_has_exactly_the_four_keys_and_every_metric() {
        let mut r = RunResult::new("svc_hot_8r", 1, 1.0, false);
        r.attempted = 10;
        r.set("ops_per_s", 123.456);
        let c = r.contract();
        let keys: Vec<&str> = c
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = serde::get_field(c.as_object().unwrap(), "metrics").unwrap();
        assert_eq!(metrics.as_object().unwrap().len(), END_TO_END.len());
        r.traced = true;
        let c = r.contract();
        let metrics = serde::get_field(c.as_object().unwrap(), "metrics").unwrap();
        assert_eq!(metrics.as_object().unwrap().len(), PER_LAYER.len());
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mb() > 0.0);
    }
}
