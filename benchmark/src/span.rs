//! In-memory spans recorded by the harness around its calls into the
//! product crates. Nothing is written until the run ends; an untraced
//! run carries a disabled recorder whose calls do nothing, so the
//! end-to-end numbers never pay for tracing.

use serde::Value;
use std::time::Instant;

/// Handle of an open or closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of this span (spans of one run share the recorder).
    pub id: u32,
    /// The span that caused this one; `None` for the run span.
    pub parent: Option<u32>,
    /// What ran.
    pub name: String,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Work done inside the span (operations, events, samples).
    pub count: u64,
}

/// The span recorder of one run.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder; a disabled one ignores every call.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether calls record anything.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off; spans already recorded stay.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent`.
    pub fn open(&mut self, parent: Option<SpanId>, name: impl Into<String>) -> SpanId {
        if !self.enabled {
            return SpanId(0);
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: parent.map(|p| p.0),
            name: name.into(),
            start_ns: now,
            end_ns: now,
            count: 0,
        });
        SpanId(id)
    }

    /// Close `id`, attaching the amount of work it covered.
    pub fn close(&mut self, id: SpanId, count: u64) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let span = &mut self.spans[id.0 as usize];
        span.end_ns = now;
        span.count = count;
    }

    /// Run `f` inside a span; `f` returns its result and the work count.
    pub fn within<T>(
        &mut self,
        parent: Option<SpanId>,
        name: impl Into<String>,
        f: impl FnOnce(&mut Spans, SpanId) -> (T, u64),
    ) -> T {
        let id = self.open(parent, name);
        let (out, count) = f(self, id);
        self.close(id, count);
        out
    }

    /// Add a span whose edges were observed elsewhere (the load
    /// generator notes its phase edges while it runs).
    pub fn record(
        &mut self,
        parent: Option<SpanId>,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        count: u64,
    ) {
        if !self.enabled {
            return;
        }
        let id = self.open(parent, name);
        let span = &mut self.spans[id.0 as usize];
        span.start_ns = start.duration_since(self.origin).as_nanos() as u64;
        span.end_ns = end.duration_since(self.origin).as_nanos() as u64;
        span.count = count;
    }

    /// Everything recorded so far.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array, each with its self time.
    pub fn to_json(&self) -> Value {
        let self_ns = self_times_ns(&self.spans);
        Value::Arr(
            self.spans
                .iter()
                .zip(self_ns)
                .map(|(s, self_ns)| {
                    Value::Obj(vec![
                        ("id".into(), Value::U64(u64::from(s.id))),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::U64(u64::from(p))),
                        ),
                        ("name".into(), Value::Str(s.name.clone())),
                        ("start_ns".into(), Value::U64(s.start_ns)),
                        ("end_ns".into(), Value::U64(s.end_ns)),
                        ("self_ns".into(), Value::U64(self_ns)),
                        ("count".into(), Value::U64(s.count)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its direct children cover. The harness is single-threaded
/// where it records, so siblings never overlap and the cover is the sum
/// of the children, each clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            covered[p as usize] += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            count: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span(0, None, 0, 1_000),      // run
            span(1, Some(0), 100, 600),   // rep
            span(2, Some(1), 100, 150),   // construct
            span(3, Some(1), 150, 580),   // execute
            span(4, Some(0), 700, 1_000), // layer measurement
        ];
        assert_eq!(self_times_ns(&spans), vec![200, 20, 50, 430, 300]);
    }

    #[test]
    fn self_times_sum_to_the_root_span() {
        let spans = [
            span(0, None, 0, 5_000),
            span(1, Some(0), 10, 2_000),
            span(2, Some(1), 20, 1_000),
            span(3, Some(2), 30, 900),
            span(4, Some(0), 2_500, 4_999),
        ];
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, 5_000);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let spans = [span(0, None, 100, 200), span(1, Some(0), 150, 260)];
        assert_eq!(self_times_ns(&spans), vec![50, 110]);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut spans = Spans::new(false);
        let run = spans.open(None, "run");
        let got = spans.within(Some(run), "rep", |_, _| (7, 1));
        spans.close(run, 1);
        assert_eq!(got, 7);
        assert!(spans.spans().is_empty());
    }

    #[test]
    fn an_enabled_recorder_nests_and_counts() {
        let mut spans = Spans::new(true);
        let run = spans.open(None, "run");
        spans.within(Some(run), "rep", |s, rep| {
            s.within(Some(rep), "execute", |_, _| ((), 42));
            ((), 1)
        });
        spans.close(run, 1);
        let names: Vec<_> = spans.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["run", "rep", "execute"]);
        assert_eq!(spans.spans()[2].parent, Some(1));
        assert_eq!(spans.spans()[2].count, 42);
        assert!(spans.spans()[0].end_ns >= spans.spans()[1].end_ns);
    }
}
