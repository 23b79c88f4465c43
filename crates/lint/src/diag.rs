//! Diagnostics: stable lint codes, severities, and report rendering.
//!
//! Every lint has a stable `A2A###` code so CI gates, suppression lists,
//! and the mutation harness can reference findings without string-matching
//! messages. Codes are append-only: a retired lint keeps its number.

use std::fmt::Write as _;

/// Stable lint codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// Schedule fails structural validation (`a2a_sched::validate`).
    Malformed,
    /// Cross-rank wait-for graph has a cycle: the schedule can deadlock.
    Deadlock,
    /// A write lands in the source region of a posted-but-unwaited send,
    /// breaking the stable-send invariant the zero-copy executor relies on.
    UnstableSend,
    /// A write lands in the destination region of a pending receive (or two
    /// pending receives overlap): received bytes can be clobbered.
    RecvRace,
    /// Two messages are concurrently in flight on one `(from, to, tag)`
    /// channel: correctness rests on FIFO transport ordering.
    ChannelOrder,
    /// More sends simultaneously pending to one destination than the
    /// configured window: head-of-line blocking / retransmit pressure.
    SendWindow,
    /// A send or copy reads from the destination region of a pending
    /// receive: the bytes read depend on message arrival timing.
    UnstableRead,
    /// A destination interval is written, but with bytes from the wrong
    /// source rank or offset: the schedule computes the wrong collective.
    WrongSource,
    /// A destination interval the collective's semantics require is never
    /// written (or holds symbolically undefined bytes at the end).
    MissingByte,
    /// Correct destination bytes are overwritten with different provenance
    /// before the schedule ends.
    ClobberedByte,
    /// A message or copy moves bytes that no declared output transitively
    /// depends on: wasted bandwidth.
    RedundantTransfer,
}

impl Code {
    pub const ALL: [Code; 11] = [
        Code::Malformed,
        Code::Deadlock,
        Code::UnstableSend,
        Code::RecvRace,
        Code::ChannelOrder,
        Code::SendWindow,
        Code::UnstableRead,
        Code::WrongSource,
        Code::MissingByte,
        Code::ClobberedByte,
        Code::RedundantTransfer,
    ];

    /// The stable code string, e.g. `"A2A001"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::Malformed => "A2A000",
            Code::Deadlock => "A2A001",
            Code::UnstableSend => "A2A002",
            Code::RecvRace => "A2A003",
            Code::ChannelOrder => "A2A004",
            Code::SendWindow => "A2A005",
            Code::UnstableRead => "A2A006",
            Code::WrongSource => "A2A007",
            Code::MissingByte => "A2A008",
            Code::ClobberedByte => "A2A009",
            Code::RedundantTransfer => "A2A010",
        }
    }

    /// One-line lint title (what the code checks, not a specific finding).
    pub fn title(self) -> &'static str {
        match self {
            Code::Malformed => "schedule fails structural validation",
            Code::Deadlock => "cross-rank wait cycle (possible deadlock)",
            Code::UnstableSend => "write overlaps a pending send source",
            Code::RecvRace => "write overlaps a pending receive destination",
            Code::ChannelOrder => "concurrent messages on one channel (FIFO-order dependent)",
            Code::SendWindow => "pending sends to one destination exceed the window",
            Code::UnstableRead => "read overlaps a pending receive destination",
            Code::WrongSource => "destination bytes come from the wrong source",
            Code::MissingByte => "required destination bytes are never written",
            Code::ClobberedByte => "correct destination bytes are overwritten",
            Code::RedundantTransfer => "transfer moves bytes no output depends on",
        }
    }

    pub fn default_severity(self) -> Severity {
        match self {
            Code::Malformed
            | Code::Deadlock
            | Code::UnstableSend
            | Code::RecvRace
            | Code::UnstableRead
            | Code::WrongSource
            | Code::MissingByte
            | Code::ClobberedByte => Severity::Error,
            Code::ChannelOrder | Code::SendWindow | Code::RedundantTransfer => Severity::Warning,
        }
    }
}

impl std::fmt::Display for Code {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub code: Code,
    pub severity: Severity,
    /// Rank the finding is anchored on, if rank-local.
    pub rank: Option<u32>,
    /// Op index within that rank's program, if op-local.
    pub op: Option<usize>,
    /// The specific finding, e.g. which blocks overlap.
    pub message: String,
    /// Extra context lines (a deadlock's full wait chain, the conflicting
    /// posting site, ...).
    pub notes: Vec<String>,
}

impl Diagnostic {
    pub fn new(code: Code, message: String) -> Self {
        Diagnostic {
            code,
            severity: code.default_severity(),
            rank: None,
            op: None,
            message,
            notes: Vec::new(),
        }
    }

    pub fn at(mut self, rank: u32, op: usize) -> Self {
        self.rank = Some(rank);
        self.op = Some(op);
        self
    }

    pub fn note(mut self, note: String) -> Self {
        self.notes.push(note);
        self
    }
}

/// The per-code finding cap of every analysis entry point
/// ([`LintReport::cap_per_code`]).
pub(crate) const MAX_DIAGS_PER_CODE: usize = 16;

/// All findings for one linted schedule.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// What was linted, e.g. `"bruck n=64 block=1024"`.
    pub label: String,
    pub diags: Vec<Diagnostic>,
    /// Findings dropped by [`LintReport::cap_per_code`], per code, in
    /// [`Code::ALL`] order.
    pub suppressed: Vec<(Code, usize)>,
}

impl LintReport {
    pub fn new(label: impl Into<String>) -> Self {
        LintReport {
            label: label.into(),
            ..Default::default()
        }
    }

    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    pub fn errors(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    pub fn warnings(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    pub fn is_clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// Whether any finding carries `code`.
    pub fn has(&self, code: Code) -> bool {
        self.diags.iter().any(|d| d.code == code)
    }

    /// Canonicalize the finding stream: sort by `(code, rank, op, message)`
    /// — rank/op-less findings first within a code — and drop exact
    /// duplicates. Passes that overlap (e.g. the safety lints and the
    /// semantics prover both flagging one op) then produce one byte-stable
    /// stream regardless of the order they ran in, so `--deny warnings`
    /// verdicts and JSON output are deterministic.
    pub fn sort_dedup(&mut self) {
        self.diags.sort_by(|a, b| {
            a.code
                .cmp(&b.code)
                .then(a.rank.cmp(&b.rank))
                .then(a.op.cmp(&b.op))
                .then(a.message.cmp(&b.message))
                .then(a.notes.cmp(&b.notes))
        });
        self.diags.dedup();
    }

    /// Keep at most `max` findings per code (a repetitive pattern fires the
    /// same lint at every op); the drop count is recorded in `suppressed`.
    pub fn cap_per_code(&mut self, max: usize) {
        for code in Code::ALL {
            let total = self.diags.iter().filter(|d| d.code == code).count();
            if total > max {
                let mut seen = 0;
                self.diags.retain(|d| {
                    if d.code != code {
                        return true;
                    }
                    seen += 1;
                    seen <= max
                });
                self.suppressed.push((code, total - max));
            }
        }
    }

    /// Human-readable rendering, one block per finding.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if self.diags.is_empty() {
            let _ = writeln!(out, "{}: clean", self.label);
            return out;
        }
        for d in &self.diags {
            let loc = match (d.rank, d.op) {
                (Some(r), Some(o)) => format!(" [rank {r} op {o}]"),
                (Some(r), None) => format!(" [rank {r}]"),
                _ => String::new(),
            };
            let _ = writeln!(
                out,
                "{}: {} ({}): {}{loc}",
                d.severity,
                d.code,
                d.code.title(),
                d.message
            );
            for n in &d.notes {
                let _ = writeln!(out, "    note: {n}");
            }
        }
        for (code, n) in &self.suppressed {
            let _ = writeln!(out, "note: {n} further {code} finding(s) suppressed");
        }
        let _ = writeln!(
            out,
            "{}: {} error(s), {} warning(s)",
            self.label,
            self.errors(),
            self.warnings()
        );
        out
    }

    /// Machine-readable rendering (hand-rolled JSON: the lint crate stays
    /// dependency-light so anything that builds schedules can use it).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"label\":{},\"errors\":{},\"warnings\":{},\"diagnostics\":[",
            json_str(&self.label),
            self.errors(),
            self.warnings()
        );
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"code\":\"{}\",\"severity\":\"{}\",",
                d.code, d.severity
            );
            match d.rank {
                Some(r) => {
                    let _ = write!(out, "\"rank\":{r},");
                }
                None => out.push_str("\"rank\":null,"),
            }
            match d.op {
                Some(o) => {
                    let _ = write!(out, "\"op\":{o},");
                }
                None => out.push_str("\"op\":null,"),
            }
            let _ = write!(out, "\"message\":{},\"notes\":[", json_str(&d.message));
            for (j, n) in d.notes.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&json_str(n));
            }
            out.push_str("]}");
        }
        out.push_str("],\"suppressed\":[");
        for (i, (code, n)) in self.suppressed.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"code\":\"{code}\",\"count\":{n}}}");
        }
        out.push_str("]}");
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let strs: Vec<&str> = Code::ALL.iter().map(|c| c.as_str()).collect();
        assert_eq!(
            strs,
            [
                "A2A000", "A2A001", "A2A002", "A2A003", "A2A004", "A2A005", "A2A006", "A2A007",
                "A2A008", "A2A009", "A2A010"
            ]
        );
    }

    #[test]
    fn sort_dedup_is_canonical_and_order_independent() {
        let mk = |order: &[usize]| {
            let mut r = LintReport::new("t");
            let all = [
                Diagnostic::new(Code::WrongSource, "b".into()).at(1, 3),
                Diagnostic::new(Code::WrongSource, "a".into()).at(1, 3),
                Diagnostic::new(Code::Deadlock, "cycle".into()),
                Diagnostic::new(Code::WrongSource, "b".into()).at(1, 3), // dup
                Diagnostic::new(Code::RedundantTransfer, "w".into()).at(0, 1),
            ];
            for &i in order {
                r.push(all[i].clone());
            }
            r.sort_dedup();
            r
        };
        let a = mk(&[0, 1, 2, 3, 4]);
        let b = mk(&[4, 3, 2, 1, 0]);
        assert_eq!(a.diags, b.diags);
        assert_eq!(a.diags.len(), 4); // dup dropped
        assert_eq!(a.render_json(), b.render_json());
        // Sorted by code first, then location, then message.
        assert_eq!(a.diags[0].code, Code::Deadlock);
        assert_eq!(a.diags[1].message, "a");
        assert_eq!(a.diags[2].message, "b");
        assert_eq!(a.diags[3].code, Code::RedundantTransfer);
    }

    #[test]
    fn report_counts_and_caps() {
        let mut r = LintReport::new("t");
        for i in 0..5 {
            r.push(Diagnostic::new(Code::ChannelOrder, format!("finding {i}")).at(0, i));
        }
        r.push(Diagnostic::new(Code::Deadlock, "cycle".into()));
        assert_eq!(r.errors(), 1);
        assert_eq!(r.warnings(), 5);
        r.cap_per_code(2);
        assert_eq!(r.warnings(), 2);
        assert_eq!(r.suppressed, vec![(Code::ChannelOrder, 3)]);
        assert!(r.has(Code::Deadlock));
        assert!(!r.has(Code::UnstableSend));
    }

    #[test]
    fn text_rendering_mentions_code_and_location() {
        let mut r = LintReport::new("bruck n=8");
        r.push(
            Diagnostic::new(Code::UnstableSend, "copy into [0..8)".into())
                .at(3, 7)
                .note("send posted at op 2".into()),
        );
        let text = r.render_text();
        assert!(text.contains("error: A2A002"));
        assert!(text.contains("[rank 3 op 7]"));
        assert!(text.contains("note: send posted at op 2"));
        assert!(text.contains("1 error(s), 0 warning(s)"));
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let mut r = LintReport::new("x \"quoted\"");
        r.push(Diagnostic::new(Code::RecvRace, "a\nb".into()).at(1, 2));
        let json = r.render_json();
        assert!(json.contains("\"label\":\"x \\\"quoted\\\"\""));
        assert!(json.contains("\"code\":\"A2A003\""));
        assert!(json.contains("\"message\":\"a\\nb\""));
        assert!(json.contains("\"rank\":1,\"op\":2"));
    }

    #[test]
    fn clean_report_renders_clean() {
        let r = LintReport::new("ok");
        assert!(r.is_clean());
        assert_eq!(r.render_text(), "ok: clean\n");
    }
}
