//! Spans recorded from the benchmark's own files, around calls into the
//! product's public functions. Nothing here touches product code: spans
//! *inside* the product are ROADMAP item 1.
//!
//! Spans stay in memory while the run is measured and are written out as
//! JSONL when it ends. A span has a name, start, end, the span that caused
//! it (`parent`) and the id of the operation it belongs to (`qid`).

use hire_serve::{Answer, Predictor, RatingQuery, ServeError};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Spans of one operation share its id.
    pub qid: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span sink with a fixed capacity: a traced round of a
/// 300 k q/s workload would otherwise hold tens of millions of spans. Spans
/// past the capacity are counted, not stored.
pub struct Tracer {
    epoch: Instant,
    capacity: usize,
    spans: Vec<Span>,
    pub dropped: u64,
}

impl Tracer {
    pub fn new(capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            capacity,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span and returns its id, or `None` once the sink is full.
    pub fn record(
        &mut self,
        qid: u64,
        name: &'static str,
        parent: Option<u32>,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<u32> {
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return None;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            qid,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        Some(id)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, indexed like `spans`: its duration minus the
/// part of its interval that its child spans cover (children are clipped to
/// the parent and overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: HashMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per span name: how many spans, their summed duration and summed self
/// time, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    out
}

pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"qid\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.qid, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// What the `Traced` wrapper saw of one predictor call.
#[derive(Debug, Clone)]
pub struct BatchRecord {
    pub entry_ns: u64,
    pub exit_ns: u64,
    /// Ids of the batch's queries, in batch order.
    pub qids: Vec<u64>,
}

/// Shared between the load generator and the `Traced` wrapper so a batch
/// can be tied back to the generator's query ids: `Server` hands the
/// predictor bare `(user, item)` pairs, so the generator announces
/// `(pair → qid)` before it submits and the wrapper pops them in arrival
/// order (the server queue is FIFO and this benchmark runs one worker).
pub struct QueryClock {
    epoch: Instant,
    pending: Mutex<HashMap<(usize, usize), VecDeque<u64>>>,
    batches: Mutex<Vec<BatchRecord>>,
}

impl QueryClock {
    pub fn new(epoch: Instant) -> Self {
        QueryClock {
            epoch,
            pending: Mutex::new(HashMap::new()),
            batches: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Must be called before the query is submitted.
    pub fn announce(&self, qid: u64, query: RatingQuery) {
        self.pending
            .lock()
            .expect("no holder of the pending map panics")
            .entry((query.user, query.item))
            .or_default()
            .push_back(qid);
    }

    pub fn take_batches(&self) -> Vec<BatchRecord> {
        std::mem::take(
            &mut *self
                .batches
                .lock()
                .expect("no holder of the batch log panics"),
        )
    }
}

/// Benchmark-owned wrapper that timestamps every batch the server hands to
/// the predictor.
pub struct Traced<P> {
    inner: Arc<P>,
    clock: Arc<QueryClock>,
}

impl<P: Predictor> Traced<P> {
    pub fn new(inner: Arc<P>, clock: Arc<QueryClock>) -> Self {
        Traced { inner, clock }
    }
}

impl<P: Predictor> Predictor for Traced<P> {
    fn predict_batch(&self, queries: &[RatingQuery]) -> Result<Vec<f32>, ServeError> {
        self.inner.predict_batch(queries)
    }

    fn predict_batch_tagged(
        &self,
        queries: &[RatingQuery],
        deadline: Option<Instant>,
    ) -> Result<Vec<Answer>, ServeError> {
        let entry_ns = self.clock.now_ns();
        let qids: Vec<u64> = {
            let mut pending = self
                .clock
                .pending
                .lock()
                .expect("no holder of the pending map panics");
            queries
                .iter()
                .map(|q| {
                    pending
                        .get_mut(&(q.user, q.item))
                        .and_then(VecDeque::pop_front)
                        .unwrap_or(u64::MAX)
                })
                .collect()
        };
        let out = self.inner.predict_batch_tagged(queries, deadline);
        let exit_ns = self.clock.now_ns();
        self.clock
            .batches
            .lock()
            .expect("no holder of the batch log panics")
            .push(BatchRecord {
                entry_ns,
                exit_ns,
                qids,
            });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            qid: 0,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 50, 70),
            span(3, Some(1), 12, 20),
        ];
        assert_eq!(self_times(&spans), vec![60, 12, 20, 8]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once_and_are_clipped() {
        let spans = vec![
            span(0, None, 100, 200),
            span(1, Some(0), 110, 150),
            span(2, Some(0), 140, 160), // overlaps span 1 by 10
            span(3, Some(0), 190, 250), // hangs 50 past the parent
            span(4, Some(0), 0, 50),    // entirely outside: covers nothing
        ];
        // Covered: [110,160) = 50 and [190,200) = 10.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn totals_group_by_name() {
        let mut tracer = Tracer::new(8);
        let root = tracer.record(1, "op", None, 0, 10);
        tracer.record(1, "layer", root, 2, 5);
        let root = tracer.record(2, "op", None, 20, 40);
        tracer.record(2, "layer", root, 21, 31);
        let totals = layer_totals(tracer.spans());
        assert_eq!(
            totals["op"],
            LayerTotal {
                count: 2,
                total_ns: 30,
                self_ns: 17
            }
        );
        assert_eq!(totals["layer"].self_ns, 13);
    }

    #[test]
    fn a_full_sink_counts_what_it_drops() {
        let mut tracer = Tracer::new(1);
        assert!(tracer.record(0, "a", None, 0, 1).is_some());
        assert!(tracer.record(0, "b", None, 1, 2).is_none());
        assert_eq!((tracer.spans().len(), tracer.dropped), (1, 1));
    }
}
