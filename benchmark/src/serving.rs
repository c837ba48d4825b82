//! Load generation against `hire_serve::Server`, from one generator thread:
//! a closed-loop latency phase (one outstanding query), a closed-loop
//! throughput phase (a fixed window of outstanding queries, cut into
//! equal-op segments) and an open-loop phase (Poisson arrivals, latency
//! from the intended send time).

use crate::common::Checker;
use crate::host::{Calibrator, Span2, Stopwatch};
use crate::report::Metrics;
use crate::stats::quantile;
use crate::trace::{BatchRecord, QueryClock, Tracer};
use hire_serve::{PredictionHandle, RatingQuery, ServeError, Server};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Queries of a traced round that get their five spans.
const QUERIES_WITH_SPANS: u64 = 6000;

/// What the generator saw of one traced query, on the `QueryClock`.
#[derive(Debug, Clone, Copy)]
pub struct GenRecord {
    pub qid: u64,
    pub submit_start_ns: u64,
    pub submit_end_ns: u64,
    pub done_ns: u64,
}

/// Drives one `Server`. With a clock attached (traced rounds) every query
/// is announced to the `Traced` wrapper and timestamped.
pub struct Driver<'a> {
    pub server: &'a Server,
    pub clock: Option<&'a QueryClock>,
    pub next_qid: u64,
    pub log: Vec<GenRecord>,
}

struct InFlight {
    query: RatingQuery,
    handle: PredictionHandle,
    log_index: usize,
}

impl<'a> Driver<'a> {
    pub fn new(server: &'a Server, clock: Option<&'a QueryClock>) -> Self {
        Driver {
            server,
            clock,
            next_qid: 0,
            log: Vec::new(),
        }
    }

    fn submit(&mut self, query: RatingQuery) -> Result<InFlight, ServeError> {
        let mut log_index = usize::MAX;
        let mut start_ns = 0;
        if let Some(clock) = self.clock {
            clock.announce(self.next_qid, query);
            start_ns = clock.now_ns();
        }
        let handle = self.server.submit(query)?;
        if let Some(clock) = self.clock {
            log_index = self.log.len();
            self.log.push(GenRecord {
                qid: self.next_qid,
                submit_start_ns: start_ns,
                submit_end_ns: clock.now_ns(),
                done_ns: 0,
            });
        }
        self.next_qid += 1;
        Ok(InFlight {
            query,
            handle,
            log_index,
        })
    }

    /// Waits for one query; `true` if it was answered correctly.
    fn complete(
        &mut self,
        flight: InFlight,
        checker: &mut Checker,
        on_answer: &mut dyn FnMut(RatingQuery, f32),
    ) -> bool {
        let reply = flight.handle.wait();
        if let (Some(clock), Some(rec)) = (self.clock, self.log.get_mut(flight.log_index)) {
            rec.done_ns = clock.now_ns();
        }
        let rating = reply.map(|p| p.rating);
        if let Ok(v) = rating {
            on_answer(flight.query, v);
        }
        checker.answer(rating)
    }

    /// Closed loop, one outstanding query: the uncontended response time.
    /// One entry per correctly answered query.
    pub fn latency_phase(
        &mut self,
        queries: &[RatingQuery],
        checker: &mut Checker,
        on_answer: &mut dyn FnMut(RatingQuery, f32),
    ) -> Vec<Span2> {
        let mut lat = Vec::with_capacity(queries.len());
        for &q in queries {
            let sw = Stopwatch::start();
            match self.submit(q) {
                Ok(flight) => {
                    if self.complete(flight, checker, on_answer) {
                        lat.push(sw.elapsed());
                    }
                }
                Err(e) => {
                    checker.answer::<ServeError>(Err(e));
                }
            }
        }
        lat
    }

    /// Closed loop with at most `window` outstanding queries: the generator
    /// submits a burst of `window`, collects its replies, and goes again
    /// (a pipelining client). Returns one entry per `seg_ops` queries,
    /// consecutive and in order; every segment starts and ends with nothing
    /// in flight, and `between_segments` runs outside all of them.
    pub fn throughput_phase(
        &mut self,
        queries: &[RatingQuery],
        window: usize,
        seg_ops: usize,
        checker: &mut Checker,
        on_answer: &mut dyn FnMut(RatingQuery, f32),
        between_segments: &mut dyn FnMut(usize),
    ) -> Vec<Span2> {
        let mut segs = Vec::with_capacity(queries.len() / seg_ops.max(1));
        let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(window);
        for (index, segment) in queries.chunks(seg_ops.max(1)).enumerate() {
            let sw = Stopwatch::start();
            for burst in segment.chunks(window.max(1)) {
                for &q in burst {
                    match self.submit(q) {
                        Ok(flight) => inflight.push_back(flight),
                        Err(e) => {
                            checker.answer::<ServeError>(Err(e));
                        }
                    }
                }
                while let Some(flight) = inflight.pop_front() {
                    self.complete(flight, checker, on_answer);
                }
            }
            segs.push(sw.elapsed());
            between_segments(index);
        }
        segs
    }
}

/// The queries of a serving round's measured phases and how the throughput
/// phase sends them.
pub struct Load<'q> {
    pub lat_queries: &'q [RatingQuery],
    pub thru_queries: &'q [RatingQuery],
    /// Outstanding submissions of the closed-loop throughput phase.
    pub window: usize,
    /// Queries per equal-op segment.
    pub seg_ops: usize,
}

/// What the two measured phases of a serving round produced.
pub struct Phases {
    pub lat: Vec<Span2>,
    pub segs: Vec<Span2>,
    /// Query ids of the latency phase (the throughput phase's follow).
    pub latency_qids: std::ops::Range<u64>,
}

impl Driver<'_> {
    /// The measured phases of a serving round: latency, then throughput,
    /// with the CPU's speed sampled before, between and after them and
    /// after every fourth segment — never inside a timed interval.
    pub fn measured_phases(
        &mut self,
        cal: &Calibrator,
        load: &Load,
        checker: &mut Checker,
        on_answer: &mut dyn FnMut(RatingQuery, f32),
    ) -> Phases {
        cal.mark();
        let first = self.next_qid;
        let lat = self.latency_phase(load.lat_queries, checker, on_answer);
        let latency_qids = first..self.next_qid;
        cal.mark();
        let segs = self.throughput_phase(
            load.thru_queries,
            load.window,
            load.seg_ops,
            checker,
            on_answer,
            &mut |segment| {
                if segment % 4 == 3 {
                    cal.mark();
                }
            },
        );
        cal.mark();
        Phases {
            lat,
            segs,
            latency_qids,
        }
    }
}

/// Result of the open-loop phase.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Latency from the *intended* send time, ms (answered queries only).
    pub lat_ms: Vec<f64>,
    /// How late the generator sent each query, ms.
    pub late_ms: Vec<f64>,
    pub refused: u64,
}

/// Open loop: query `i` is due `arrivals[i]` seconds after the phase
/// starts and is sent then whether or not earlier ones were answered. A
/// stall therefore delays the queries behind it, and because latency runs
/// from the intended send time that delay is counted (no coordinated
/// omission). The reply time is the server's own submit-to-completion
/// `Prediction::latency`, so the generator needs no collector thread.
pub fn open_loop(
    server: &Server,
    queries: &[RatingQuery],
    arrivals: &[f64],
    checker: &mut Checker,
) -> OpenLoop {
    let mut out = OpenLoop::default();
    let mut pending: Vec<(f64, PredictionHandle)> = Vec::with_capacity(queries.len());
    let t0 = Instant::now();
    for (&q, &at) in queries.iter().zip(arrivals) {
        let due = t0 + Duration::from_secs_f64(at);
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            let gap = due - now;
            if gap > Duration::from_micros(300) {
                std::thread::sleep(gap - Duration::from_micros(200));
            } else {
                std::hint::spin_loop();
            }
        }
        let late_ms = due.elapsed().as_secs_f64() * 1e3;
        out.late_ms.push(late_ms);
        match server.submit(q) {
            Ok(handle) => pending.push((late_ms, handle)),
            Err(e) => {
                out.refused += 1;
                checker.answer::<ServeError>(Err(e));
            }
        }
    }
    for (late_ms, handle) in pending {
        match handle.wait() {
            Ok(p) => {
                if checker.answer::<ServeError>(Ok(p.rating)) {
                    out.lat_ms.push(late_ms + p.latency.as_secs_f64() * 1e3);
                }
            }
            Err(e) => {
                checker.answer::<ServeError>(Err(e));
            }
        }
    }
    out
}

/// Turns the generator's and the wrapper's records of a traced round into
/// spans (`query` root with `gen.submit`, `server.queue`, `predictor.batch`
/// and `server.reply` children) and the `server.*` metrics.
///
/// `latency_qids` is the qid range of the latency phase: queue wait and
/// reply time are taken there (one outstanding query, so they are the
/// server's own delays, not the generator's pick-up order); batch size is
/// taken over the rest (the throughput phase).
pub fn fold_server_trace(
    log: &[GenRecord],
    batches: &[BatchRecord],
    latency_qids: std::ops::Range<u64>,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) {
    // Only the latency phase and the queries that get spans are looked up
    // one by one; a `hot_zipf` round has millions of others.
    let needed = latency_qids.end.max(QUERIES_WITH_SPANS);
    let mut by_qid: HashMap<u64, (u64, u64)> = HashMap::new();
    let mut thru_batch_sizes = Vec::new();
    for b in batches {
        for &qid in b.qids.iter().filter(|&&qid| qid < needed) {
            by_qid.insert(qid, (b.entry_ns, b.exit_ns));
        }
        if b.qids.iter().any(|q| !latency_qids.contains(q)) {
            thru_batch_sizes.push(b.qids.len() as f64);
        }
    }
    let mut queue_ms = Vec::new();
    let mut reply_us = Vec::new();
    for rec in log.iter().filter(|rec| rec.qid < needed) {
        let Some(&(entry, exit)) = by_qid.get(&rec.qid) else {
            continue;
        };
        let queued_from = rec.submit_end_ns.min(entry);
        if latency_qids.contains(&rec.qid) {
            queue_ms.push((entry - queued_from) as f64 / 1e6);
            reply_us.push(rec.done_ns.saturating_sub(exit) as f64 / 1e3);
        }
        // Spans for the first queries only (all of the latency phase and the
        // head of the throughput phase): the sink is finite and the layer
        // replay that follows needs room in it too.
        if rec.qid >= QUERIES_WITH_SPANS {
            continue;
        }
        let root = tracer.record(rec.qid, "query", None, rec.submit_start_ns, rec.done_ns);
        if root.is_none() {
            continue;
        }
        tracer.record(
            rec.qid,
            "gen.submit",
            root,
            rec.submit_start_ns,
            queued_from,
        );
        tracer.record(rec.qid, "server.queue", root, queued_from, entry);
        tracer.record(rec.qid, "predictor.batch", root, entry, exit);
        tracer.record(rec.qid, "server.reply", root, exit, rec.done_ns);
    }
    if !queue_ms.is_empty() {
        metrics.set("server.queue_wait_ms", quantile(&queue_ms, 0.1));
        metrics.set("server.reply_us", quantile(&reply_us, 0.1));
    }
    if !thru_batch_sizes.is_empty() {
        metrics.set("server.batch_size", crate::stats::mean(&thru_batch_sizes));
    }
}
