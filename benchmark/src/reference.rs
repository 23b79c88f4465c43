//! Checked-in reference outputs (`benchmark/reference/<workload>.json`).
//!
//! A job or DES cell whose output differs from its reference entry is a
//! failed operation. `--bless` regenerates the files; a bless that changes
//! them is a behaviour change and belongs in its own review.

use std::path::PathBuf;

use serde::{Deserialize, Serialize};

/// Expected output of one service cache key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KeyRef {
    pub topology: String,
    pub algo: String,
    pub bytes: u64,
    /// `JobOutput::digest`, hex. All eight algorithms must agree on it for
    /// one topology x size: they compute the same transpose.
    pub digest: String,
    pub messages: u64,
    pub message_bytes: u64,
}

/// Expected output of one DES cell. Simulated time is *simulated*: it is
/// unvalidated against hardware and serves only as a correctness check.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellRef {
    pub algo: String,
    pub bytes: u64,
    /// `SimReport::total_us.to_bits()`, hex: compared bit for bit.
    pub total_us_bits: String,
    /// The same value in decimal, for readers; not compared.
    pub total_us: f64,
    pub msgs_per_level: [u64; 4],
    pub bytes_per_level: [u64; 4],
    pub events: u64,
}

#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Reference {
    pub workload: String,
    /// Service workloads: one entry per key, in `SvcSpec::keys` order.
    #[serde(default)]
    pub keys: Vec<KeyRef>,
    /// DES workloads: one entry per cell, in `DesSpec::cells` order.
    #[serde(default)]
    pub cells: Vec<CellRef>,
}

pub fn hex(v: u64) -> String {
    format!("{v:#018x}")
}

/// The benchmark package's own directory: where `run.sh` says it is, or -
/// for `cargo test` and a binary started by hand - where it was built.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("A2A_BENCH_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn path(workload: &str) -> PathBuf {
    bench_dir()
        .join("reference")
        .join(format!("{workload}.json"))
}

pub fn load(workload: &str) -> Result<Reference, String> {
    let p = path(workload);
    let text = std::fs::read_to_string(&p)
        .map_err(|e| format!("{}: {e} (regenerate with run.sh --bless)", p.display()))?;
    let r: Reference = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", p.display()))?;
    if r.workload != workload {
        return Err(format!("{}: is for workload {:?}", p.display(), r.workload));
    }
    Ok(r)
}

pub fn save(r: &Reference) -> Result<PathBuf, String> {
    let p = path(&r.workload);
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(p.parent().expect("reference file has a parent"))?;
        let text = serde_json::to_string_pretty(r).map_err(std::io::Error::other)?;
        std::fs::write(&p, text + "\n")
    };
    write().map_err(|e| format!("{}: {e}", p.display()))?;
    Ok(p)
}
