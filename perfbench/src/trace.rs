//! In-memory spans recorded around calls into each layer's public API, and
//! the self-time arithmetic the traced run reports from them.
//!
//! A span has a name, a trace id (the slide or query number it belongs to),
//! a start, an end and an optional parent.  Spans stay in memory and are
//! written out once, when the benchmark ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub trace: u64,
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer's origin.
    pub start: u64,
    pub end: u64,
}

/// A span recorder.  When disabled every call is a no-op, so the untraced
/// run pays nothing but a branch.
#[derive(Debug, Clone)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index (for use as a parent).
    pub fn record(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            trace,
            parent,
            start: self.nanos(start),
            end: self.nanos(end),
        });
        Some(self.spans.len() - 1)
    }

    /// Moves another tracer's spans (e.g. a second thread's) into this one,
    /// re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines: `{"name":…,"trace":…,"parent":…,"start_ns":…,"end_ns":…}`.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"trace\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.trace, s.start, s.end
            );
        }
        out
    }
}

/// Self time of each span: its duration minus the part of its interval that
/// its children cover (overlapping children are counted once, and a child
/// reaching outside its parent only counts inside it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let duration = s.end.saturating_sub(s.start);
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            duration - covered
        })
        .collect()
}

/// The blocking path of the traces rooted at spans with each of `roots`'
/// names: one log line per root name with the mean self time per trace of
/// each direct child and of the root itself (the residual no child covers),
/// and the residual's share of all root time.
pub fn blocking_paths(spans: &[Span], roots: &[&str]) -> (Vec<String>, f64) {
    let own = self_times(spans);
    let (mut all_total, mut all_residual) = (0u64, 0u64);
    let mut lines = Vec::new();
    for &root in roots {
        let (mut count, mut total, mut residual) = (0u64, 0u64, 0u64);
        let mut children: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (s, &self_ns) in spans.iter().zip(&own) {
            if s.name == root {
                count += 1;
                total += s.end.saturating_sub(s.start);
                residual += self_ns;
            } else if s.parent.is_some_and(|p| spans[p].name == root) {
                *children.entry(s.name).or_default() += self_ns;
            }
        }
        let per = |ns: u64| ns as f64 / 1e6 / count.max(1) as f64;
        let parts: Vec<String> = children
            .iter()
            .map(|(name, &ns)| format!("{name} {:.4}", per(ns)))
            .collect();
        lines.push(format!(
            "per {root} ({count}): {} + residual {:.4} = {:.4} ms",
            parts.join(" + "),
            per(residual),
            per(total)
        ));
        all_total += total;
        all_residual += residual;
    }
    let share = if all_total == 0 {
        0.0
    } else {
        all_residual as f64 / all_total as f64
    };
    (lines, share)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            trace: 1,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 50, 90),
            span("leaf", Some(2), 60, 70),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once_and_only_inside() {
        let spans = [
            span("root", None, 100, 200),
            span("a", Some(0), 90, 130),
            span("b", Some(0), 120, 150),
            span("c", Some(0), 190, 260),
        ];
        // Covered: [100,150) and [190,200) = 60 of 100.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let later = origin + std::time::Duration::from_nanos(50);
        let mut a = Tracer::new(true, origin);
        a.record("root", 7, None, origin, later);
        let mut b = Tracer::new(true, origin);
        let broot = b.record("root", 8, None, origin, later);
        b.record("kid", 8, broot, origin, later);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.to_json_lines().lines().count(), 3);
    }

    #[test]
    fn the_blocking_path_splits_roots_into_their_children() {
        let spans = [
            span("slide", None, 0, 1_000_000),
            span("wait", Some(0), 0, 200_000),
            span("work", Some(0), 200_000, 900_000),
            span("inner", Some(2), 300_000, 400_000),
            span("slide", None, 2_000_000, 3_000_000),
            span("work", Some(4), 2_000_000, 3_000_000),
        ];
        let (lines, residual) = blocking_paths(&spans, &["slide"]);
        assert_eq!(
            lines,
            ["per slide (2): wait 0.1000 + work 0.8000 + residual 0.0500 = 1.0000 ms"]
        );
        assert_eq!(residual, 0.05);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let origin = Instant::now();
        let mut t = Tracer::new(false, origin);
        assert_eq!(t.record("x", 1, None, origin, origin), None);
        assert!(t.spans().is_empty());
    }
}
