//! Regenerate the paper's tables and figures on the simulated machines.
//!
//! ```text
//! repro all                     # every figure at the default scale
//! repro fig10 fig11             # specific figures
//! repro table1                  # system architecture table
//! repro fig12 --scale full      # paper-scale nodes (112 ppn -> 3584 ranks)
//!
//! repro lint --all              # static analysis over the whole roster
//! repro lint --all --deny warnings   # CI gate: any finding fails
//! repro verify --all --deny warnings # lint + semantics prover + static
//!                                    # LogGP bound vs DES cross-check
//!
//! repro serve --jobs 2000       # long-running collective service demo
//! repro storm --seed 42         # seeded fault storm against the service
//!
//! options:
//!   --nodes N      largest node count (default 32; `lint` defaults to 2,
//!                  `serve` to 4)
//!   --machine M    dane | amber | tuolumne (default dane; figs 17/18 override)
//!   --runs R       jittered runs per point, minimum reported (default 3)
//!   --seed S       base seed (default 1)
//!   --scale full|small
//!   --workers N    (storm/serve only) service worker threads (storm
//!                  default and minimum 2, serve default 1)
//!   --out DIR      output directory (default results)
//!   --deny warnings    (lint only) exit nonzero on warnings, not just errors
//!   --window N     (lint only) A2A005 per-destination send window (default 32)
//!   --jobs N       (serve only) jobs to push through the service (default 2000)
//!   --tenants N    (serve only) tenants to round-robin jobs across (default 4)
//! ```
//!
//! Performance is not measured here: `bash benchmark/run.sh` is the
//! repository's one benchmark.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use a2a_bench::{figure_by_name, known_figures, machine_for, RunConfig};
use a2a_netsim::models;

fn table1(cfg: &RunConfig) -> String {
    let mut out = String::new();
    out.push_str("# Table 1: system architectures (simulated)\n");
    out.push_str(
        "name      | ppn | sockets | numa/socket | cores/numa | net GB/s | net alpha us | nic msg us\n",
    );
    for name in ["dane", "amber", "tuolumne"] {
        let m = machine_for(name, cfg.nodes, cfg.full_scale);
        let c = models::for_machine(name);
        let net = c.levels[3];
        out.push_str(&format!(
            "{:9} | {:3} | {:7} | {:11} | {:10} | {:8.1} | {:12.2} | {:10.2}\n",
            name,
            m.ppn(),
            m.sockets_per_node,
            m.numa_per_socket,
            m.cores_per_numa,
            1.0 / (net.beta * 1000.0),
            net.alpha,
            c.nic_per_msg,
        ));
    }
    out
}

/// A bad command line: one line on stderr, exit status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The argument after option `name`.
fn value(name: &str, args: &mut std::slice::Iter<String>) -> String {
    args.next()
        .unwrap_or_else(|| usage_error(&format!("missing value for {name}")))
        .clone()
}

/// The argument after the numeric option `name`, parsed.
fn number<T: std::str::FromStr>(name: &str, args: &mut std::slice::Iter<String>) -> T {
    let text = value(name, args);
    text.parse().unwrap_or_else(|_| {
        usage_error(&format!(
            "{name}: expected a non-negative integer, got {text:?}"
        ))
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut figures: Vec<String> = Vec::new();
    let mut cfg = RunConfig::default();
    let mut out_dir = PathBuf::from("results");
    let mut want_table1 = false;
    let mut nodes_set = false;
    let mut deny_warnings = false;
    let mut lint_window: usize = 32;
    let mut serve_jobs: u64 = 2000;
    let mut tenants: u32 = 4;
    let mut service_workers: usize = 1;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--nodes" => {
                cfg.nodes = number("--nodes", &mut it);
                if cfg.nodes == 0 {
                    usage_error("--nodes must be at least 1");
                }
                nodes_set = true;
            }
            "--machine" => cfg.machine = value("--machine", &mut it),
            "--runs" => {
                cfg.runs = number("--runs", &mut it);
                if cfg.runs == 0 {
                    usage_error("--runs must be at least 1");
                }
            }
            "--seed" => cfg.seed = number("--seed", &mut it),
            "--scale" => {
                cfg.full_scale = match value("--scale", &mut it).as_str() {
                    "full" => true,
                    "small" => false,
                    other => {
                        usage_error(&format!("--scale: expected full or small, got {other:?}"))
                    }
                }
            }
            "--workers" => service_workers = number("--workers", &mut it),
            "--out" => out_dir = PathBuf::from(value("--out", &mut it)),
            "--deny" => {
                let what = value("--deny", &mut it);
                if what != "warnings" {
                    usage_error(&format!(
                        "--deny: only `warnings` is understood, got {what:?}"
                    ));
                }
                deny_warnings = true;
            }
            "--window" => lint_window = number("--window", &mut it),
            "--jobs" => serve_jobs = number("--jobs", &mut it),
            "--tenants" => tenants = number("--tenants", &mut it),
            // `lint`/`verify` sweep every preset already; `--all` is
            // accepted for symmetry with `repro all` and in CI invocations.
            "--all" => {}
            "lint" => figures.push("lint".into()),
            "verify" => figures.push("verify".into()),
            "all" => figures.extend(known_figures().iter().map(|s| s.to_string())),
            "table1" => want_table1 = true,
            "tune" => figures.push("tune".into()),
            "chaos" => figures.push("chaos".into()),
            "storm" => figures.push("storm".into()),
            "serve" => figures.push("serve".into()),
            "--help" | "-h" => {
                println!(
                    "usage: repro [all|table1|tune|chaos|storm|serve|lint|verify|fig7..fig18|headline|ablation-*]... [options]"
                );
                println!("figures: {:?}", known_figures());
                println!(
                    "options: --nodes N --machine M --runs R --seed S --scale full|small --workers N --out DIR --deny warnings --window N --jobs N --tenants N"
                );
                return ExitCode::SUCCESS;
            }
            f if known_figures().contains(&f) => figures.push(f.to_string()),
            other => usage_error(&format!("unknown argument {other:?}; try --help")),
        }
    }
    if figures.is_empty() && !want_table1 {
        figures.extend(known_figures().iter().map(|s| s.to_string()));
        want_table1 = true;
    }
    // Run each named figure once, in the order first named.
    let mut seen = std::collections::HashSet::new();
    figures.retain(|f| seen.insert(f.clone()));

    println!("{}", cfg.run_header());

    if want_table1 {
        let t = table1(&cfg);
        println!("\n{t}");
        std::fs::create_dir_all(&out_dir).expect("create output dir");
        std::fs::write(out_dir.join("table1.txt"), &t).expect("write table1");
    }

    for name in &figures {
        let start = Instant::now();
        if name == "lint" {
            // The sweep builds every rank program of every cell, so it
            // defaults to a small grid; `--nodes` scales it up explicitly.
            let nodes = if nodes_set { cfg.nodes } else { 2 };
            let lcfg = a2a_lint::LintConfig {
                send_window: lint_window,
                ..Default::default()
            };
            let sweep = a2a_bench::lint_roster(nodes, &lcfg);
            println!("\n{}", sweep.table());
            for finding in &sweep.findings {
                eprint!("{finding}");
            }
            std::fs::create_dir_all(&out_dir).expect("create output dir");
            std::fs::write(
                out_dir.join("lint.json"),
                serde_json::to_string_pretty(&sweep).expect("serialize"),
            )
            .expect("write lint.json");
            println!("  [lint done in {:.1?}]", start.elapsed());
            if sweep.errors() > 0 || (deny_warnings && sweep.warnings() > 0) {
                return ExitCode::FAILURE;
            }
            continue;
        }
        if name == "verify" {
            // Like `lint`, the sweep builds (and here also simulates)
            // every cell, so it defaults to a small grid.
            let nodes = if nodes_set { cfg.nodes } else { 2 };
            let lcfg = a2a_lint::LintConfig {
                send_window: lint_window,
                ..Default::default()
            };
            let report = a2a_bench::verify_roster(nodes, cfg.seed, &lcfg);
            println!("\n{}", report.table());
            for finding in &report.findings {
                eprint!("{finding}");
            }
            for c in report.bound_violations() {
                eprintln!(
                    "BOUND VIOLATION: {} {} block={}: static {:.3} us > DES {:.3} us",
                    c.machine, c.algo, c.bytes, c.static_us, c.des_us
                );
            }
            for c in report.loose_cells() {
                eprintln!(
                    "LOOSE BOUND: {} {} block={}: DES/static {:.2}x exceeds factor {}",
                    c.machine, c.algo, c.bytes, c.ratio, report.bound_factor
                );
            }
            for m in report.mutation_failures() {
                eprintln!(
                    "MUTATION MISS: {} on {} (seed {}): expected {}, safety_clean={}, got {:?}",
                    m.mutation, m.base, m.seed, m.expected, m.safety_clean, m.codes
                );
            }
            std::fs::create_dir_all(&out_dir).expect("create output dir");
            std::fs::write(
                out_dir.join("verify.json"),
                serde_json::to_string_pretty(&report).expect("serialize"),
            )
            .expect("write verify.json");
            println!("  [verify done in {:.1?}]", start.elapsed());
            if report.errors() > 0
                || (deny_warnings && report.warnings() > 0)
                || !report.bound_violations().is_empty()
                || !report.loose_cells().is_empty()
                || !report.mutation_failures().is_empty()
            {
                return ExitCode::FAILURE;
            }
            continue;
        }
        if name == "tune" {
            let res = a2a_bench::tune(&cfg);
            println!(
                "\n# selector tuning ({} nodes of {})",
                res.nodes, res.machine
            );
            for p in &res.points {
                println!(
                    "  {:>6} B -> {:<26} {:>10.1} us",
                    p.bytes, p.winner, p.winner_us
                );
            }
            println!(
                "  table: mlna(ppl={}) <= {} B < node-aware < {} B <= locality-aware(ppg={})",
                res.table.ppl, res.table.small_threshold, res.table.large_threshold, res.table.ppg
            );
            std::fs::create_dir_all(&out_dir).expect("create output dir");
            std::fs::write(
                out_dir.join("selector_table.json"),
                serde_json::to_string_pretty(&res).expect("serialize"),
            )
            .expect("write selector table");
            println!("  [tune done in {:.1?}]", start.elapsed());
            continue;
        }
        if name == "storm" {
            let workers = service_workers.max(2);
            let (summary, report) = a2a_bench::storm(cfg.seed, workers);
            println!("\n{summary}");
            std::fs::create_dir_all(&out_dir).expect("create output dir");
            std::fs::write(
                out_dir.join("storm.json"),
                serde_json::to_string_pretty(&report).expect("serialize"),
            )
            .expect("write storm.json");
            println!("  [storm done in {:.1?}]", start.elapsed());
            if !report.check().is_empty() {
                return ExitCode::FAILURE;
            }
            continue;
        }
        if name == "serve" {
            let nodes = if nodes_set { cfg.nodes } else { 4 };
            let workers = service_workers.max(1);
            let (summary, stats) = a2a_bench::serve_demo(nodes, workers, tenants, serve_jobs);
            println!("\n{summary}");
            println!("  [serve done in {:.1?}]", start.elapsed());
            if stats.jobs_failed > 0 {
                return ExitCode::FAILURE;
            }
            continue;
        }
        if name == "chaos" {
            let res = a2a_bench::chaos(&cfg);
            println!("\n{}", res.table());
            std::fs::create_dir_all(&out_dir).expect("create output dir");
            std::fs::write(out_dir.join("chaos.csv"), res.csv()).expect("write chaos csv");
            std::fs::write(
                out_dir.join("chaos.json"),
                serde_json::to_string_pretty(&res).expect("serialize"),
            )
            .expect("write chaos json");
            println!("  [chaos done in {:.1?}]", start.elapsed());
            continue;
        }
        let fig = figure_by_name(name, &cfg);
        fig.save(&out_dir).expect("save figure");
        println!("\n{}", fig.table());
        if let Some((winner, us)) =
            fig.winner_at(fig.series[0].points.last().map(|p| p.0).unwrap_or_default())
        {
            println!("  -> winner at largest x: {winner} ({us:.1} us)");
        }
        println!("  [{name} done in {:.1?}]", start.elapsed());
    }
    ExitCode::SUCCESS
}
