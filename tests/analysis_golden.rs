//! Golden values for the static analyses.
//!
//! CI compares a `verify.json` only with its own replay, and the analyzer
//! tests assert properties (clean, bounded, caught), so a change that
//! shifts every bound or every count consistently passes all of them. This
//! file pins the *values*: every row below was recorded from the
//! validator, wait-for graph, prover and critical-path analyzer as they
//! stood before they were rebuilt over one matched-schedule table, and the
//! rebuilt analyses must reproduce each of them — every bit of every
//! bound, every count, and the rendered report of every mutant.
//!
//! On mismatch the failure prints the rows the analyses produced in the
//! tables' own syntax, so an intended model change is re-recorded by
//! pasting — and an unintended one is visible as a diff.

use std::sync::Arc;

use a2a_testutil::{FixedSchedule, Mutation, Rng};
use alltoall_suite::algos::alltoallv::{
    AlltoallvAlgorithm, CountsFn, NodeAwareAlltoallv, NonblockingAlltoallv, PairwiseAlltoallv,
    VContext, VSchedule,
};
use alltoall_suite::algos::*;
use alltoall_suite::lint::{analyze_schedule, LintConfig};
use alltoall_suite::netsim::{crit_params, models};
use alltoall_suite::sched::analysis::{
    build_wait_graph, critical_path, prove_schedule, SemanticsSpec, SendMode,
};
use alltoall_suite::sched::{validate, Matched, ScheduleSource};
use alltoall_suite::topo::{Machine, ProcGrid};

/// Everything the analyses say about one schedule.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// Index into [`names`]: the eight-algorithm roster, then the three
    /// v-algorithms.
    algo: usize,
    /// Block bytes; 0 for a v-algorithm (lumpy counts).
    bytes: u64,
    // `ScheduleStats`
    msgs: [usize; 4],
    level_bytes: [u64; 4],
    copy_bytes: u64,
    max_sends: usize,
    max_inter_sends: usize,
    tmp_bytes: u64,
    // `CritReport`
    bound_bits: u64,
    /// software, intra, inter.
    attribution_bits: [u64; 3],
    /// Order-sensitive fold over `rank_finish` bits.
    finish_fold: u64,
    chain_hops: usize,
    // `WaitForGraph`: nodes, edges under rendezvous, edges under eager.
    wait_nodes: usize,
    wait_edges: [usize; 2],
    // `ProveReport`
    findings: usize,
    bytes_checked: u64,
    messages: usize,
}

fn fold(bits: impl Iterator<Item = u64>) -> u64 {
    bits.fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h.rotate_left(7) ^ b).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn grid() -> ProcGrid {
    ProcGrid::new(Machine::custom("golden", 4, 2, 2, 2))
}

/// The paper's eight-algorithm roster, group sizes dividing 8 ppn.
fn roster() -> Vec<Box<dyn AlltoallAlgorithm>> {
    vec![
        Box::new(PairwiseAlltoall),
        Box::new(NonblockingAlltoall),
        Box::new(BruckAlltoall),
        Box::new(HierarchicalAlltoall::new(8, ExchangeKind::Nonblocking)),
        Box::new(NodeAwareAlltoall::node_aware(ExchangeKind::Pairwise)),
        Box::new(NodeAwareAlltoall::locality_aware(4, ExchangeKind::Pairwise)),
        Box::new(MultileaderNodeAwareAlltoall::new(4, ExchangeKind::Pairwise)),
        Box::new(MpichShmAlltoall::default()),
    ]
}

fn v_roster() -> Vec<Box<dyn AlltoallvAlgorithm>> {
    vec![
        Box::new(PairwiseAlltoallv),
        Box::new(NonblockingAlltoallv),
        Box::new(NodeAwareAlltoallv),
    ]
}

/// The `repro verify` lumpy profile: asymmetric, with zero pairs.
fn lumpy() -> CountsFn {
    Arc::new(|s: u32, d: u32| {
        let x = (s as u64 * 31 + d as u64 * 17) % 13;
        if x < 4 {
            0
        } else {
            x * (1 + (s as u64 + d as u64) % 5)
        }
    })
}

fn names() -> Vec<String> {
    roster()
        .iter()
        .map(|a| a.name())
        .chain(v_roster().iter().map(|a| a.name()))
        .collect()
}

/// Run the validator and the three analyses over `source`.
fn observe(algo: usize, bytes: u64, source: &dyn ScheduleSource, spec: &SemanticsSpec) -> Golden {
    let grid = grid();
    let what = format!("{}/{bytes}", names()[algo]);
    let stats = validate(source, &grid).unwrap_or_else(|e| panic!("{what}: {e}"));
    let matched = Matched::build(source).unwrap_or_else(|e| panic!("{what}: {e}"));
    let crit = critical_path(&matched, &grid, &crit_params(&models::dane()), 1);
    let edges = |mode| {
        let g = build_wait_graph(&matched, mode);
        (g.nodes.len(), g.edges.iter().map(Vec::len).sum::<usize>())
    };
    let (wait_nodes, rendezvous_edges) = edges(SendMode::Rendezvous);
    let (eager_nodes, eager_edges) = edges(SendMode::Eager);
    assert_eq!(wait_nodes, eager_nodes, "{what}: nodes depend on the mode");
    let proof = prove_schedule(&matched, spec);
    assert!(!proof.stuck, "{what}: prover stuck");
    Golden {
        algo,
        bytes,
        msgs: stats.msgs,
        level_bytes: stats.bytes,
        copy_bytes: stats.copy_bytes,
        max_sends: stats.max_sends_per_rank,
        max_inter_sends: stats.max_internode_sends_per_rank,
        tmp_bytes: stats.tmp_bytes,
        bound_bits: crit.bound_us.to_bits(),
        attribution_bits: [
            crit.attribution.software_us.to_bits(),
            crit.attribution.intra_us.to_bits(),
            crit.attribution.inter_us.to_bits(),
        ],
        finish_fold: fold(crit.rank_finish.iter().map(|t| t.to_bits())),
        chain_hops: crit.chains[0].total_hops,
        wait_nodes,
        wait_edges: [rendezvous_edges, eager_edges],
        findings: proof.findings.len(),
        bytes_checked: proof.bytes_checked,
        messages: proof.messages,
    }
}

/// `g` in the syntax of [`GOLDEN`].
fn row(g: &Golden) -> String {
    format!(
        "    Golden {{ algo: {}, bytes: {}, msgs: {:?}, level_bytes: {:?}, copy_bytes: {}, max_sends: {}, max_inter_sends: {}, tmp_bytes: {}, bound_bits: {:#018x}, attribution_bits: [{:#018x}, {:#018x}, {:#018x}], finish_fold: {:#018x}, chain_hops: {}, wait_nodes: {}, wait_edges: {:?}, findings: {}, bytes_checked: {}, messages: {} }},",
        g.algo, g.bytes, g.msgs, g.level_bytes, g.copy_bytes, g.max_sends, g.max_inter_sends, g.tmp_bytes,
        g.bound_bits, g.attribution_bits[0], g.attribution_bits[1], g.attribution_bits[2],
        g.finish_fold, g.chain_hops, g.wait_nodes, g.wait_edges, g.findings, g.bytes_checked, g.messages
    )
}

/// Fail listing every row of `seen` that differs from `want`, rendered by
/// `row` in the table's own syntax.
fn compare<T: PartialEq>(what: &str, seen: &[T], want: &[T], row: impl Fn(&T) -> String) {
    let bad: Vec<String> = seen
        .iter()
        .zip(want.iter().map(Some).chain(std::iter::repeat(None)))
        .filter(|(got, want)| Some(*got) != *want)
        .map(|(got, _)| row(got))
        .collect();
    assert!(
        bad.is_empty() && seen.len() == want.len(),
        "{} of {} {what} differ from the {} recorded rows; the analyses produced:\n{}",
        bad.len(),
        seen.len(),
        want.len(),
        bad.join("\n")
    );
}

#[test]
fn analysis_values_match_the_recorded_rows() {
    let grid = grid();
    let n = grid.world_size();
    let mut seen = Vec::new();
    for (i, algo) in roster().iter().enumerate() {
        for bytes in [64u64, 4096] {
            let sched = AlgoSchedule::new(algo.as_ref(), A2AContext::new(grid.clone(), bytes));
            let spec = SemanticsSpec::alltoall(n, bytes);
            seen.push(observe(i, bytes, &sched, &spec));
        }
    }
    let counts = lumpy();
    let spec = SemanticsSpec::alltoallv(n, &|s, d| counts(s, d));
    for (i, algo) in v_roster().iter().enumerate() {
        let sched = VSchedule::new(algo.as_ref(), VContext::new(grid.clone(), counts.clone()));
        seen.push(observe(roster().len() + i, 0, &sched, &spec));
    }
    compare("cells", &seen, GOLDEN, row);
}

/// The mutation bases of `tests/static_analysis.rs`: pairwise, nonblocking
/// and Bruck on a two-node 4-rank grid with 8-byte blocks.
fn mutation_bases() -> (ProcGrid, Vec<(String, FixedSchedule)>) {
    let grid = ProcGrid::new(Machine::custom("mut", 2, 1, 1, 2));
    let algos: Vec<Box<dyn AlltoallAlgorithm>> = vec![
        Box::new(PairwiseAlltoall),
        Box::new(NonblockingAlltoall),
        Box::new(BruckAlltoall),
    ];
    let bases = algos
        .into_iter()
        .map(|a| {
            let sched = AlgoSchedule::new(a.as_ref(), A2AContext::new(grid.clone(), 8));
            (a.name(), FixedSchedule::capture(&sched))
        })
        .collect();
    (grid, bases)
}

/// FNV-1a over the bytes of `s`.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Seed every mutant below was drawn with.
const MUTANT_SEED: u64 = 0xA2A0;

/// One mutant's merged report: `(mutation, base, FNV digest of the
/// rendered JSON)`, digest 0 where the mutation finds no site on the base.
type Mutant = (String, String, u64);

#[test]
fn mutant_reports_match_the_recorded_digests() {
    let (grid, bases) = mutation_bases();
    let spec = SemanticsSpec::alltoall(grid.world_size(), 8);
    let cfg = LintConfig::default();
    let mut seen: Vec<Mutant> = Vec::new();
    for m in Mutation::ALL {
        for (name, base) in &bases {
            let mut rng = Rng::new(MUTANT_SEED);
            let digest = m.apply(base, &mut rng).map_or(0, |mutant| {
                let label = format!("{m} on {name}");
                fnv(&analyze_schedule(label, &mutant, &grid, &cfg, Some(&spec)).render_json())
            });
            seen.push((m.to_string(), name.clone(), digest));
        }
    }
    let want: Vec<Mutant> = MUTANTS
        .iter()
        .map(|&(m, base, digest)| (m.to_string(), base.to_string(), digest))
        .collect();
    compare("mutants", &seen, &want, |(m, base, digest)| {
        format!("    ({m:?}, {base:?}, {digest:#018x}),")
    });
}

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    Golden { algo: 0, bytes: 64, msgs: [32, 64, 128, 768], level_bytes: [2048, 4096, 8192, 49152], copy_bytes: 2048, max_sends: 31, max_inter_sends: 24, tmp_bytes: 0, bound_bits: 0x404a5c52aa2b9107, attribution_bits: [0x4012a5e353f7cebd, 0x4007733f1d9a5840, 0x404690624dd2f1ab], finish_fold: 0x655ba10fb4e03716, chain_hops: 63, wait_nodes: 992, wait_edges: [2880, 1920], findings: 0, bytes_checked: 65536, messages: 992 },
    Golden { algo: 0, bytes: 4096, msgs: [32, 64, 128, 768], level_bytes: [131072, 262144, 524288, 3145728], copy_bytes: 131072, max_sends: 31, max_inter_sends: 24, tmp_bytes: 0, bound_bits: 0x404fa135ce79c348, attribution_bits: [0x4014a9fbe76c8b24, 0x40139b16e67e3b35, 0x404a989374bc6a7e], finish_fold: 0x9ef8b3bb32c7d2bd, chain_hops: 63, wait_nodes: 992, wait_edges: [2880, 1920], findings: 0, bytes_checked: 4194304, messages: 992 },
    Golden { algo: 1, bytes: 64, msgs: [32, 64, 128, 768], level_bytes: [2048, 4096, 8192, 49152], copy_bytes: 2048, max_sends: 31, max_inter_sends: 24, tmp_bytes: 0, bound_bits: 0x4025ef2a5a469d79, attribution_bits: [0x402252f1a9fbe778, 0x0000000000000000, 0x3ffce1c58255b036], finish_fold: 0x443d501c808e8d5b, chain_hops: 63, wait_nodes: 32, wait_edges: [0, 0], findings: 0, bytes_checked: 65536, messages: 992 },
    Golden { algo: 1, bytes: 4096, msgs: [32, 64, 128, 768], level_bytes: [131072, 262144, 524288, 3145728], copy_bytes: 131072, max_sends: 31, max_inter_sends: 24, tmp_bytes: 0, bound_bits: 0x4027965d3996fa89, attribution_bits: [0x402354fdf3b645ad, 0x0000000000000000, 0x4001057d1782d385], finish_fold: 0x972930abadd098f1, chain_hops: 63, wait_nodes: 32, wait_edges: [0, 0], findings: 0, bytes_checked: 4194304, messages: 992 },
    Golden { algo: 2, bytes: 64, msgs: [16, 24, 28, 92], level_bytes: [16384, 24576, 28672, 94208], copy_bytes: 458752, max_sends: 5, max_inter_sends: 5, tmp_bytes: 131072, bound_bits: 0x402341f8bf1135f4, attribution_bits: [0x40076872b020c4b6, 0x3ff0e9d828371c1d, 0x401695421c044285], finish_fold: 0x2e95d22a5d29a166, chain_hops: 106, wait_nodes: 160, wait_edges: [384, 256], findings: 0, bytes_checked: 65536, messages: 160 },
    Golden { algo: 2, bytes: 4096, msgs: [16, 24, 28, 92], level_bytes: [1048576, 1572864, 1835008, 6029312], copy_bytes: 29360128, max_sends: 5, max_inter_sends: 5, tmp_bytes: 8388608, bound_bits: 0x40627cf15248f03c, attribution_bits: [0x405cf49ba5e353cc, 0x4025e85adb527a82, 0x403520ee8d10f51b], finish_fold: 0x6a14d32700ece734, chain_hops: 106, wait_nodes: 160, wait_edges: [384, 256], findings: 0, bytes_checked: 4194304, messages: 160 },
    Golden { algo: 3, bytes: 64, msgs: [8, 16, 32, 12], level_bytes: [16384, 32768, 65536, 49152], copy_bytes: 163840, max_sends: 10, max_inter_sends: 3, tmp_bytes: 262144, bound_bits: 0x4027fee7be86094e, attribution_bits: [0x4022449ba5e35407, 0x3fe78ecd2c2005f6, 0x4001057d1782d385], finish_fold: 0x0edc3fd7e427151f, chain_hops: 312, wait_nodes: 68, wait_edges: [116, 76], findings: 0, bytes_checked: 65536, messages: 68 },
    Golden { algo: 3, bytes: 4096, msgs: [8, 16, 32, 12], level_bytes: [1048576, 2097152, 4194304, 3145728], copy_bytes: 10485760, max_sends: 10, max_inter_sends: 3, tmp_bytes: 16777216, bound_bits: 0x4076eee60437149f, attribution_bits: [0x4074bb1a9fbe76ed, 0x4028ee67e3b34b08, 0x4036c58255b035be], finish_fold: 0xed225fc89bbd23ca, chain_hops: 312, wait_nodes: 68, wait_edges: [116, 76], findings: 0, bytes_checked: 4194304, messages: 68 },
    Golden { algo: 4, bytes: 64, msgs: [32, 64, 128, 96], level_bytes: [8192, 16384, 32768, 49152], copy_bytes: 155648, max_sends: 10, max_inter_sends: 3, tmp_bytes: 196608, bound_bits: 0x4026fc8a6e0e48ac, attribution_bits: [0x4002f9db22d0e567, 0x400cc972dfca612f, 0x4016176ddaceee10], finish_fold: 0xeb24cd0132042ff2, chain_hops: 86, wait_nodes: 320, wait_edges: [864, 576], findings: 0, bytes_checked: 65536, messages: 320 },
    Golden { algo: 4, bytes: 4096, msgs: [32, 64, 128, 96], level_bytes: [524288, 1048576, 2097152, 3145728], copy_bytes: 9961472, max_sends: 10, max_inter_sends: 3, tmp_bytes: 12582912, bound_bits: 0x4050b8ad8d1e4d89, attribution_bits: [0x404456872b020c3d, 0x4029e3fac972dfcc, 0x402a8754f3775b82], finish_fold: 0x95a704423199b2ea, chain_hops: 86, wait_nodes: 320, wait_edges: [864, 576], findings: 0, bytes_checked: 4194304, messages: 320 },
    Golden { algo: 5, bytes: 64, msgs: [32, 64, 32, 192], level_bytes: [16384, 32768, 8192, 49152], copy_bytes: 155648, max_sends: 10, max_inter_sends: 6, tmp_bytes: 196608, bound_bits: 0x403042e87d2c7b91, attribution_bits: [0x4002f9db22d0e5a3, 0x3ff25604189374bc, 0x40297c99ae924f23], finish_fold: 0x4cb7804ad77a7266, chain_hops: 86, wait_nodes: 320, wait_edges: [864, 576], findings: 0, bytes_checked: 65536, messages: 320 },
    Golden { algo: 5, bytes: 4096, msgs: [32, 64, 32, 192], level_bytes: [1048576, 2097152, 524288, 3145728], copy_bytes: 9961472, max_sends: 10, max_inter_sends: 6, tmp_bytes: 12582912, bound_bits: 0x4051694855da2726, attribution_bits: [0x404456872b020c42, 0x401cc6a7ef9db22e, 0x4035c669057d1783], finish_fold: 0x7d7dc890511c2906, chain_hops: 86, wait_nodes: 320, wait_edges: [864, 576], findings: 0, bytes_checked: 4194304, messages: 320 },
    Golden { algo: 6, bytes: 64, msgs: [16, 32, 8, 24], level_bytes: [32768, 65536, 32768, 49152], copy_bytes: 278528, max_sends: 7, max_inter_sends: 3, tmp_bytes: 393216, bound_bits: 0x402bba4ef4bb7691, attribution_bits: [0x401a49ba5e353fac, 0x3ff667e3b34b0802, 0x401790ea9e6eeb70], finish_fold: 0x53da92be6e73fe7d, chain_hops: 195, wait_nodes: 96, wait_edges: [176, 120], findings: 0, bytes_checked: 65536, messages: 80 },
    Golden { algo: 6, bytes: 4096, msgs: [16, 32, 8, 24], level_bytes: [2097152, 4194304, 2097152, 3145728], copy_bytes: 17825792, max_sends: 7, max_inter_sends: 3, tmp_bytes: 25165824, bound_bits: 0x4075e874f3b45db7, attribution_bits: [0x40718bf7ced916ab, 0x4040762dccfc7669, 0x40426dbb59ddc1e8], finish_fold: 0xe63956bc06e7c1d9, chain_hops: 195, wait_nodes: 96, wait_edges: [176, 120], findings: 0, bytes_checked: 4194304, messages: 80 },
    Golden { algo: 7, bytes: 64, msgs: [32, 64, 128, 96], level_bytes: [8192, 16384, 32768, 49152], copy_bytes: 155648, max_sends: 10, max_inter_sends: 3, tmp_bytes: 196608, bound_bits: 0x4026fc8a6e0e48a5, attribution_bits: [0x4002f9db22d0e543, 0x400cc972dfca612f, 0x4016176ddaceee10], finish_fold: 0x4bb3ca5f14a05834, chain_hops: 86, wait_nodes: 320, wait_edges: [864, 576], findings: 0, bytes_checked: 65536, messages: 320 },
    Golden { algo: 7, bytes: 4096, msgs: [32, 64, 128, 96], level_bytes: [524288, 1048576, 2097152, 3145728], copy_bytes: 9961472, max_sends: 10, max_inter_sends: 3, tmp_bytes: 12582912, bound_bits: 0x4050b8ad8d1e4d89, attribution_bits: [0x404456872b020c38, 0x4029e3fac972dfcc, 0x402a8754f3775b82], finish_fold: 0xa4b9dad8f24854f9, chain_hops: 86, wait_nodes: 320, wait_edges: [864, 576], findings: 0, bytes_checked: 4194304, messages: 320 },
    Golden { algo: 8, bytes: 0, msgs: [22, 45, 89, 531], level_bytes: [458, 1123, 2157, 12794], copy_bytes: 501, max_sends: 23, max_inter_sends: 18, tmp_bytes: 0, bound_bits: 0x4047ae50462edf84, attribution_bits: [0x401337ef9db22cf3, 0x400749cf3869c054, 0x4043d2b55ef1fde0], finish_fold: 0x23025c36c3dd1cb3, chain_hops: 61, wait_nodes: 908, wait_edges: [2206, 1541], findings: 0, bytes_checked: 17033, messages: 687 },
    Golden { algo: 9, bytes: 0, msgs: [22, 45, 89, 531], level_bytes: [458, 1123, 2157, 12794], copy_bytes: 501, max_sends: 23, max_inter_sends: 18, tmp_bytes: 0, bound_bits: 0x4020cd9e83e425b2, attribution_bits: [0x401a666666666674, 0x0000000000000000, 0x3ffcd35a858793de], finish_fold: 0xd3e18b070867ac98, chain_hops: 45, wait_nodes: 32, wait_edges: [0, 0], findings: 0, bytes_checked: 17033, messages: 687 },
    Golden { algo: 10, bytes: 0, msgs: [30, 59, 117, 96], level_bytes: [2133, 4180, 8558, 12794], copy_bytes: 40467, max_sends: 10, max_inter_sends: 3, tmp_bytes: 51099, bound_bits: 0x40258fe05d2e2696, attribution_bits: [0x3ffdb4395810624a, 0x400bed8b733f1d9b, 0x4015bbecaab8a5cf], finish_fold: 0x79e76b2b5743ee7c, chain_hops: 67, wait_nodes: 318, wait_edges: [826, 556], findings: 0, bytes_checked: 17033, messages: 302 },
];

#[rustfmt::skip]
const MUTANTS: &[(&str, &str, u64)] = &[
    ("drop-recv", "pairwise", 0xf78fb35b1f2d4689),
    ("drop-recv", "nonblocking", 0x1d20a42b4b9b2363),
    ("drop-recv", "bruck", 0xa60bb2f389e1f9fa),
    ("retag-send", "pairwise", 0xfe65b2ffd4c4fea4),
    ("retag-send", "nonblocking", 0x7be908f4617d9816),
    ("retag-send", "bruck", 0x6d8c370876e51bf7),
    ("shrink-waitall", "pairwise", 0x9ea7326ad025e6d8),
    ("shrink-waitall", "nonblocking", 0xdffd756fc30709ca),
    ("shrink-waitall", "bruck", 0x5b92d1e566b1ba35),
    ("oversize-block", "pairwise", 0x3b32a31697190327),
    ("oversize-block", "nonblocking", 0xdd6333b896a48a6f),
    ("oversize-block", "bruck", 0xb1619132f0a194f1),
    ("overlap-copy", "pairwise", 0x47e559a6fe297393),
    ("overlap-copy", "nonblocking", 0x20b5a1e6cbbfed1b),
    ("overlap-copy", "bruck", 0xf515cef62901513a),
    ("sequentialize-sendrecv", "pairwise", 0x3c55eb837f9a4844),
    ("sequentialize-sendrecv", "nonblocking", 0x0000000000000000),
    ("sequentialize-sendrecv", "bruck", 0x5565d5d80ade8c98),
    ("alias-copy-into-pending-send", "pairwise", 0x27826ad605dbf81c),
    ("alias-copy-into-pending-send", "nonblocking", 0x93ce3ec3adf77328),
    ("alias-copy-into-pending-send", "bruck", 0xab2d8e32879920f7),
    ("overlap-pending-recvs", "pairwise", 0x0000000000000000),
    ("overlap-pending-recvs", "nonblocking", 0x6465e6d65c21ffc3),
    ("overlap-pending-recvs", "bruck", 0x0000000000000000),
    ("split-message-same-tag", "pairwise", 0x29faf661ed6db5bb),
    ("split-message-same-tag", "nonblocking", 0x8d357f1e7e5a7529),
    ("split-message-same-tag", "bruck", 0x24beee02d9bcc687),
    ("read-pending-recv", "pairwise", 0xe25d5420c3c4f992),
    ("read-pending-recv", "nonblocking", 0xefd4ba64f23df467),
    ("read-pending-recv", "bruck", 0x7dc6205981c144b5),
    ("swap-send-source", "pairwise", 0x83d5793bbac56b33),
    ("swap-send-source", "nonblocking", 0x3a1a86bfb477e733),
    ("swap-send-source", "bruck", 0x0000000000000000),
    ("drop-block", "pairwise", 0xa1f49d31b95a1b0b),
    ("drop-block", "nonblocking", 0x73ad91df7476318f),
    ("drop-block", "bruck", 0x3356c2cb3057388b),
    ("double-delivery-clobber", "pairwise", 0x4bb4ea04c3a7e7d1),
    ("double-delivery-clobber", "nonblocking", 0xe342d54cefc691d8),
    ("double-delivery-clobber", "bruck", 0x0000000000000000),
    ("dead-code-transfer", "pairwise", 0xc7e63419ce6bb475),
    ("dead-code-transfer", "nonblocking", 0xd930ebf2a186684a),
    ("dead-code-transfer", "bruck", 0xbd3b61168db604d9),
];
