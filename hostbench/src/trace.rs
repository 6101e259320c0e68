//! In-memory spans recorded around the benchmark's calls into each
//! layer. Spans are kept until the run ends and then written out; a
//! disabled tracer records nothing and costs one branch per span.

use lattice_serve::json::Value;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: `start`/`end` are seconds since the tracer's epoch,
/// `parent` indexes the enclosing span, and spans serving one request
/// share `req`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `codec.encode`.
    pub name: &'static str,
    /// Start, seconds since the epoch.
    pub start: f64,
    /// End, seconds since the epoch (`NaN` while open).
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request identifier shared by a request's spans.
    pub req: u64,
}

impl Span {
    /// Wall time in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Handle to an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

/// The span recorder, shared by the client threads of a run.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that keeps spans only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Opens a span under `parent`.
    pub fn begin(&self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let start = self.epoch.elapsed().as_secs_f64();
        let mut spans = self.spans.lock().expect("tracer lock poisoned by a panicking client");
        spans.push(Span { name, start, end: f64::NAN, parent, req });
        Some(spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&self, id: SpanId) {
        if let Some(i) = id {
            let end = self.epoch.elapsed().as_secs_f64();
            self.spans.lock().expect("tracer lock poisoned by a panicking client")[i].end = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = self.begin(name, parent, req);
        let out = f(id);
        self.end(id);
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock poisoned by a panicking client").clone()
    }
}

/// Durations in milliseconds of every closed span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && s.end.is_finite())
        .map(|s| s.duration() * 1e3)
        .collect()
}

/// Self time of every span, in seconds: its duration minus the part of
/// its interval that its children cover. Children on other threads may
/// overlap each other; their union is what is subtracted.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (a, b) in kids {
                let from = a.max(reach);
                if b > from {
                    covered += b - from;
                }
                reach = reach.max(b);
            }
            s.duration() - covered
        })
        .collect()
}

/// The spans as JSON: one object per span plus a per-name summary of
/// count, total and self time.
pub fn to_json(spans: &[Span]) -> Value {
    let selfs = self_times(spans);
    let mut names: Vec<&'static str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let summary = names
        .iter()
        .map(|&name| {
            let (mut count, mut total, mut own) = (0u64, 0.0, 0.0);
            for (s, self_s) in spans.iter().zip(&selfs) {
                if s.name == name {
                    count += 1;
                    total += s.duration();
                    own += self_s;
                }
            }
            Value::Obj(vec![
                ("name".into(), Value::Str(name.into())),
                ("count".into(), Value::num_u64(count)),
                ("total_ms".into(), Value::Num(total * 1e3)),
                ("self_ms".into(), Value::Num(own * 1e3)),
            ])
        })
        .collect();
    let rows = spans
        .iter()
        .zip(&selfs)
        .map(|(s, self_s)| {
            Value::Obj(vec![
                ("name".into(), Value::Str(s.name.into())),
                ("start_s".into(), Value::Num(s.start)),
                ("end_s".into(), Value::Num(s.end)),
                ("parent".into(), s.parent.map_or(Value::Null, Value::num_usize)),
                ("req".into(), Value::num_u64(s.req)),
                ("self_ms".into(), Value::Num(self_s * 1e3)),
            ])
        })
        .collect();
    Value::Obj(vec![("summary".into(), Value::Arr(summary)), ("spans".into(), Value::Arr(rows))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, req: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("step", 0.0, 10.0, None),
            span("encode", 1.0, 2.0, Some(0)),
            // Two overlapping children (other threads): union is 3..7.
            span("call", 3.0, 6.0, Some(0)),
            span("call", 4.0, 7.0, Some(0)),
            // A grandchild counts against its parent only.
            span("decode", 5.0, 5.5, Some(2)),
            // A child that outlives its parent is clipped.
            span("late", 9.0, 12.0, Some(0)),
        ];
        let own = self_times(&spans);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(own[0], 10.0 - 1.0 - 4.0 - 1.0), "{}", own[0]);
        assert!(close(own[1], 1.0));
        assert!(close(own[2], 3.0 - 0.5));
        assert!(close(own[3], 3.0));
        assert!(close(own[4], 0.5));
        assert!(close(own[5], 3.0));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let off = Tracer::new(false);
        assert_eq!(off.span("x", None, 1, |id| id), None);
        assert!(off.spans().is_empty());
        let on = Tracer::new(true);
        on.span("outer", None, 7, |p| on.span("inner", p, 7, |_| ()));
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert_eq!(durations_ms(&spans, "inner").len(), 1);
    }
}
