//! Spans recorded by the benchmark's own code around its calls into each
//! layer's public functions. Kept in memory, written out at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One span. `parent == 0` marks a root; ids start at 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    /// The op this span belongs to (spans of one op share it; 0 = none).
    pub op: u32,
    /// Index of the op's kind in the recorder's kind table.
    pub kind: u16,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span log with a stack of open spans.
#[derive(Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl SpanLog {
    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u32, kind: u16, now_ns: u64) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(0),
            name,
            op,
            kind,
            start_ns: now_ns,
            end_ns: now_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: u32, now_ns: u64) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize - 1].end_ns = now_ns;
    }

    /// One JSON object per line: name, start, end, parent, op id, workload.
    pub fn to_jsonl(&self, workload: &str, kinds: &[String]) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"workload\":\"{}\",\"op\":{},\
                 \"kind\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                s.name,
                workload,
                s.op,
                kinds[s.kind as usize],
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

/// A span's self time: its duration minus the part of its interval that its
/// child spans cover. Returned in span order.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans.iter().filter(|s| s.parent != 0) {
        let p = &spans[s.parent as usize - 1];
        let overlap = s
            .end_ns
            .min(p.end_ns)
            .saturating_sub(s.start_ns.max(p.start_ns));
        covered[s.parent as usize - 1] += overlap;
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Per span name: (count, total ns, self ns).
pub fn self_time_table(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut table = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        let row = table.entry(s.name).or_insert((0, 0, 0));
        row.0 += 1;
        row.1 += s.dur_ns();
        row.2 += own;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let mut log = SpanLog::default();
        let op = log.begin("op", 1, 0, 0);
        let submit = log.begin("core.submit", 1, 0, 10);
        log.end(submit, 60);
        let parse = log.begin("sql.parse", 1, 0, 60);
        log.end(parse, 70);
        let exec = log.begin("exec.execute", 1, 0, 70);
        let inner = log.begin("exec.inner", 1, 0, 75);
        log.end(inner, 95);
        log.end(exec, 100);
        log.end(op, 110);
        let own = self_times_ns(&log.spans);
        // op: 110 - (50 + 10 + 30); submit and parse are leaves; execute: 30 - 20.
        assert_eq!(own, vec![20, 50, 10, 10, 20]);
        let table = self_time_table(&log.spans);
        assert_eq!(table["op"], (1, 110, 20));
        assert_eq!(table["exec.execute"], (1, 30, 10));
        assert_eq!(log.spans[4].parent, exec);
        assert_eq!(log.spans[1].parent, op);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let spans = vec![
            Span {
                id: 1,
                parent: 0,
                name: "p",
                op: 0,
                kind: 0,
                start_ns: 10,
                end_ns: 20,
            },
            Span {
                id: 2,
                parent: 1,
                name: "c",
                op: 0,
                kind: 0,
                start_ns: 15,
                end_ns: 40,
            },
        ];
        assert_eq!(self_times_ns(&spans), vec![5, 25]);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut log = SpanLog::default();
        let a = log.begin("op", 7, 0, 1);
        log.end(a, 5);
        let text = log.to_jsonl("cab_sim", &["q01".to_owned()]);
        assert_eq!(
            text,
            "{\"id\":1,\"parent\":0,\"name\":\"op\",\"workload\":\"cab_sim\",\"op\":7,\
             \"kind\":\"q01\",\"start_ns\":1,\"end_ns\":5}\n"
        );
    }
}
