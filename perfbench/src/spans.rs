//! The benchmark's own span recorder.
//!
//! Spans are opened around calls into the repository's public functions
//! and kept in memory: name, start, end, parent span and job id. A
//! disabled recorder (the untraced end-to-end runs) records nothing. The
//! records are written out as JSON when the run ends.
//!
//! Spans are opened and closed on the main thread only; work the program
//! runs on its own threads (the serving pipeline's workers) is covered by
//! the span around the call that started it.

use std::time::Instant;

use unizk_testkit::Json;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Span name, `<layer>.<call>`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The job the span belongs to, if any.
    pub job: Option<u64>,
}

impl SpanRecord {
    /// Wall time covered by the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span store with a stack of open spans.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    records: Vec<SpanRecord>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder; a disabled one ignores every call.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            records: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the recorder's epoch at `t`.
    fn at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, job: Option<u64>) {
        if !self.enabled {
            return;
        }
        let now = self.at(Instant::now());
        self.records.push(SpanRecord {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(self.records.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("exit without a matching enter");
        self.records[idx].end_ns = self.at(Instant::now());
    }

    /// Runs `f` inside a span and returns its result with its host time
    /// in nanoseconds (timed whether or not spans are recorded).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        job: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        self.enter(name, job);
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as f64;
        self.exit();
        (out, ns)
    }

    /// Every recorded span.
    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }

    /// Self time of span `idx`: its duration minus its children's.
    /// Spans nest on one thread, so children never overlap.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let children: u64 = self
            .records
            .iter()
            .filter(|r| r.parent == Some(idx))
            .map(SpanRecord::duration_ns)
            .sum();
        self.records[idx].duration_ns().saturating_sub(children)
    }

    /// The records as a JSON array, each with its self time.
    pub fn to_json(&self) -> Json {
        Json::arr(self.records.iter().enumerate().map(|(i, r)| {
            Json::obj([
                ("name", Json::str(r.name)),
                ("start_ns", Json::from(r.start_ns)),
                ("end_ns", Json::from(r.end_ns)),
                ("self_ns", Json::from(self.self_ns(i))),
                ("parent", r.parent.map_or(Json::Null, Json::from)),
                ("job", r.job.map_or(Json::Null, Json::from)),
            ])
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        assert!(rec.time("a", None, || ()).1 >= 0.0);
        assert!(rec.records().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let span = |name, start_ns, end_ns, parent| SpanRecord {
            name,
            start_ns,
            end_ns,
            parent,
            job: None,
        };
        let mut rec = Recorder::new(true);
        // Children [10, 40) and [50, 60) cover 40 ns of the root's 100.
        rec.records = vec![
            span("root", 0, 100, None),
            span("child", 10, 40, Some(0)),
            span("child", 50, 60, Some(0)),
        ];
        assert_eq!(rec.self_ns(0), 60);
        assert_eq!(rec.self_ns(1), 30);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let mut rec = Recorder::new(true);
        rec.enter("outer", Some(7));
        rec.time("inner", Some(7), || std::hint::black_box(3));
        rec.exit();
        let r = rec.records();
        assert_eq!(r[1].parent, Some(0));
        assert!(r[0].start_ns <= r[1].start_ns && r[1].end_ns <= r[0].end_ns);
        assert!(rec.self_ns(0) <= r[0].duration_ns());
    }
}
