//! Spans recorded around the harness's calls into each layer.
//!
//! A span is `{id, parent, request, name, start_ns, end_ns}` plus the
//! deltas of the system's own counters read at the same two instants.
//! Spans stay in memory and are written out once when the run ends; a
//! layer's self time is its span minus the part its children cover.
//! A disabled tracer records nothing and reads no counter, which makes
//! the same driving code the untraced baseline of `trace.overhead_ratio`.

use std::time::Instant;

use crate::json::Json;

/// What a span counts. The first [`Counter::READ`] are the system's own
/// monotonic counters, read at both span boundaries by `sut::counters`
/// and recorded as deltas; the rest are known only once a planning call,
/// an execution or a whole request returns, and [`Tracer::add`] puts them
/// on the open span directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    PoolHits,
    PoolMisses,
    PoolEvictions,
    PagesRead,
    PagesWritten,
    DirtyWritebacks,
    IndexBuilds,
    IndexHits,
    WalBytes,
    Pulls,
    MetadataAccesses,
    /// Result items and serialized bytes a request served.
    Items,
    Bytes,
}

impl Counter {
    const NAMES: [&'static str; 13] = [
        "pool_hits",
        "pool_misses",
        "pool_evictions",
        "pages_read",
        "pages_written",
        "dirty_writebacks",
        "index_builds",
        "index_hits",
        "wal_bytes",
        "pulls",
        "metadata_accesses",
        "items",
        "bytes",
    ];
    /// How many counters, from the front, are read at span boundaries.
    const READ: usize = 9;
}

/// One value per [`Counter`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters([u64; Counter::NAMES.len()]);

impl std::ops::Index<Counter> for Counters {
    type Output = u64;
    fn index(&self, c: Counter) -> &u64 {
        &self.0[c as usize]
    }
}

impl std::ops::IndexMut<Counter> for Counters {
    fn index_mut(&mut self, c: Counter) -> &mut u64 {
        &mut self.0[c as usize]
    }
}

impl std::ops::AddAssign<&Counters> for Counters {
    fn add_assign(&mut self, other: &Counters) {
        for (mine, theirs) in self.0.iter_mut().zip(other.0) {
            *mine += theirs;
        }
    }
}

impl Counters {
    /// What a span that opened at `before` and closes at `self` counted,
    /// keeping what was `added` to it meanwhile. Saturating: a snapshot
    /// swap can hand a request a store whose counters restart (a fresh
    /// index manager per epoch).
    fn closing(&self, before: &Counters, added: &Counters) -> Counters {
        let mut out = *added;
        for i in 0..Counter::READ {
            out.0[i] = self.0[i].saturating_sub(before.0[i]);
        }
        out
    }

    /// `(name, value)` of the non-zero counters.
    fn non_zero(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Counter::NAMES
            .into_iter()
            .zip(self.0)
            .filter(|&(_, value)| value != 0)
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<u32>,
    /// Shared by every span of one request or commit (0 = set-up).
    pub request: u32,
    pub name: String,
    /// Which part of the run recorded it: `setup`, `workload`, or one of
    /// the layer sweep's `sweep.*` parts.
    pub scope: String,
    /// Free-form qualifier: the query number or backend letter.
    pub tag: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counter deltas between the span's two boundaries.
    pub counts: Counters,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; `None` inside when disabled.
#[must_use]
pub struct Open(Option<(usize, Counters)>);

/// Records spans in memory.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Indices (into `spans`) of the currently open spans, outermost first.
    stack: Vec<usize>,
    request: u32,
    scope: String,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
            scope: String::new(),
        }
    }

    /// Switch recording on or off between requests.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggle tracing between spans only");
        self.enabled = on;
    }

    /// Name the part of the run the following spans belong to.
    pub fn set_scope(&mut self, scope: &str) {
        self.scope = scope.to_string();
    }

    /// Start a new request: spans entered from now on share its id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    /// Open a span named `name` under the innermost open span. `read`
    /// samples the system's counters and runs only when tracing is on.
    pub fn enter(&mut self, name: &str, tag: &str, read: impl FnOnce() -> Counters) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let before = read();
        let index = self.spans.len();
        let parent = self.stack.last().map(|&i| self.spans[i].id);
        self.spans.push(Span {
            id: index as u32 + 1,
            parent,
            request: self.request,
            name: name.to_string(),
            scope: self.scope.clone(),
            tag: tag.to_string(),
            start_ns: 0,
            end_ns: 0,
            counts: Counters::default(),
        });
        self.stack.push(index);
        // Stamp last, so the span does not cover its own bookkeeping.
        self.spans[index].start_ns = self.origin.elapsed().as_nanos() as u64;
        Open(Some((index, before)))
    }

    /// Close `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open, read: impl FnOnce() -> Counters) {
        let Some((index, before)) = open.0 else {
            return;
        };
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        assert_eq!(self.stack.pop(), Some(index), "spans must nest");
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.counts = read().closing(&before, &span.counts);
    }

    /// Put a count that no boundary read can see on the innermost open
    /// span.
    pub fn add(&mut self, set: impl FnOnce(&mut Counters)) {
        if let Some(&i) = self.stack.last() {
            set(&mut self.spans[i].counts);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    let mut pairs = vec![
                        ("id".to_string(), Json::Num(f64::from(s.id))),
                        (
                            "parent".to_string(),
                            s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                        ),
                        ("request".to_string(), Json::Num(f64::from(s.request))),
                        ("name".to_string(), Json::str(&s.name)),
                        ("scope".to_string(), Json::str(&s.scope)),
                        ("tag".to_string(), Json::str(&s.tag)),
                        ("start_ns".to_string(), Json::Num(s.start_ns as f64)),
                        ("end_ns".to_string(), Json::Num(s.end_ns as f64)),
                    ];
                    for (key, value) in s.counts.non_zero() {
                        pairs.push((key.to_string(), Json::Num(value as f64)));
                    }
                    Json::Obj(pairs)
                })
                .collect(),
        )
    }
}

/// Self time of every span, indexed like `spans`: its duration minus the
/// part of that interval its direct children cover (children may touch
/// or overlap; the covered part is the union, clipped to the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize - 1].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: format!("s{id}"),
            scope: String::new(),
            tag: String::new(),
            start_ns,
            end_ns,
            counts: Counters::default(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span(1, None, 0, 100),     // root
            span(2, Some(1), 10, 40),  // child
            span(3, Some(2), 15, 25),  // grandchild: counts against 2 only
            span(4, Some(1), 40, 70),  // adjacent to 2
            span(5, Some(1), 60, 90),  // overlaps 4 by 10
            span(6, Some(1), 95, 120), // runs past the parent: clipped
        ];
        let own = self_times_ns(&spans);
        // Root: 100 − (30 + 30 + 20 + 5) = 15.
        assert_eq!(own, vec![15, 20, 10, 30, 30, 25]);
    }

    #[test]
    fn tracer_nests_spans_and_records_counter_deltas() {
        let mut t = Tracer::new(true);
        t.next_request();
        let at = |hits| {
            let mut c = Counters::default();
            c[Counter::IndexHits] = hits;
            c
        };
        let outer = t.enter("request", "Q1", || at(5));
        let inner = t.enter("query.exec", "Q1", || at(6));
        t.add(|c| c[Counter::Pulls] += 42);
        t.exit(inner, || at(9));
        t.exit(outer, || at(10));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[1].request, 1);
        assert_eq!(spans[1].counts[Counter::IndexHits], 3);
        assert_eq!(spans[1].counts[Counter::Pulls], 42);
        assert_eq!(spans[0].counts[Counter::IndexHits], 5);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = t.to_json().render();
        assert!(json.contains("\"name\": \"query.exec\"") && json.contains("\"pulls\": 42"));
    }

    #[test]
    fn disabled_tracer_records_nothing_and_reads_no_counter() {
        let mut t = Tracer::new(false);
        let open = t.enter("request", "", || panic!("counter read while disabled"));
        t.exit(open, || panic!("counter read while disabled"));
        assert!(t.spans().is_empty());
    }
}
