//! Spans recorded from the benchmark's own code around each layer call.
//!
//! A [`Tracer`] hands out [`Span`] guards; each guard measures its own
//! wall time whether or not recording is on, so the same code path yields
//! the end-to-end timings (recording off) and the per-layer breakdown
//! (recording on). Spans live in memory and are written out once, when the
//! run ends.

use reorderlab_trace::Json;
use std::cell::RefCell;
use std::time::Instant;

/// One recorded span: a named interval and the span that caused it.
#[derive(Debug, Clone)]
pub struct Record {
    /// Dotted layer name, e.g. `reorder.road.rcm`.
    pub name: String,
    /// Seconds since the tracer was created.
    pub start: f64,
    /// Seconds since the tracer was created.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Record {
    /// The span's duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

#[derive(Debug, Default)]
struct State {
    records: Vec<Record>,
    open: Vec<usize>,
}

/// Records spans on the calling thread while `on`.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    state: RefCell<State>,
}

/// An open span; closing (or dropping) it ends the interval.
pub struct Span<'a> {
    tracer: &'a Tracer,
    slot: Option<usize>,
    start: Instant,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer { on, origin: Instant::now(), state: RefCell::new(State::default()) }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span named by `name`; the name is only built when recording.
    pub fn enter(&self, name: impl FnOnce() -> String) -> Span<'_> {
        let start = Instant::now();
        let slot = self.on.then(|| {
            let mut st = self.state.borrow_mut();
            let parent = st.open.last().copied();
            let at = start.duration_since(self.origin).as_secs_f64();
            st.records.push(Record { name: name(), start: at, end: at, parent });
            let idx = st.records.len() - 1;
            st.open.push(idx);
            idx
        });
        Span { tracer: self, slot, start }
    }

    /// Runs `f` inside a span and returns its result with the elapsed
    /// seconds.
    pub fn time<T>(&self, name: impl FnOnce() -> String, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.enter(name);
        let out = f();
        (out, span.close())
    }

    /// Every span recorded so far, in opening order.
    pub fn records(&self) -> Vec<Record> {
        self.state.borrow().records.clone()
    }

    /// Seconds spent in `index` minus the part its child spans cover.
    pub fn self_secs(records: &[Record], index: usize) -> f64 {
        let children: f64 =
            records.iter().filter(|r| r.parent == Some(index)).map(Record::secs).sum();
        records[index].secs() - children
    }

    /// The spans as a JSON document: name, start, end, parent, self time.
    pub fn to_json(records: &[Record]) -> Json {
        let rows = records
            .iter()
            .enumerate()
            .map(|(i, r)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(r.name.clone())),
                    ("start_s".into(), Json::Num(r.start)),
                    ("end_s".into(), Json::Num(r.end)),
                    ("parent".into(), r.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("self_s".into(), Json::Num(Tracer::self_secs(records, i))),
                ])
            })
            .collect();
        Json::Arr(rows)
    }
}

impl Span<'_> {
    /// Ends the span and returns its duration in seconds.
    pub fn close(mut self) -> f64 {
        self.finish()
    }

    fn finish(&mut self) -> f64 {
        let end = Instant::now();
        if let Some(idx) = self.slot.take() {
            let mut st = self.tracer.state.borrow_mut();
            st.records[idx].end = end.duration_since(self.tracer.origin).as_secs_f64();
            if let Some(pos) = st.open.iter().rposition(|&o| o == idx) {
                st.open.truncate(pos);
            }
        }
        end.duration_since(self.start).as_secs_f64()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let t = Tracer::new(true);
        let outer = t.enter(|| "outer".into());
        let ((), _) =
            t.time(|| "inner".into(), || std::thread::sleep(std::time::Duration::from_millis(5)));
        let total = outer.close();
        let recs = t.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].parent, Some(0));
        assert!(total >= recs[1].secs());
        let own = Tracer::self_secs(&recs, 0);
        assert!(own >= 0.0 && own < total);
    }

    #[test]
    fn an_off_tracer_still_times_but_records_nothing() {
        let t = Tracer::new(false);
        let ((), secs) = t.time(|| unreachable!("names are not built when off"), || ());
        assert!(secs >= 0.0);
        assert!(t.records().is_empty());
    }
}
