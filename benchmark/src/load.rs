//! Load generators over real `genie_client::Client` connections, and
//! the per-request records every timing metric is computed from.
//!
//! Generators know nothing about warm-up, segments or tracing: they
//! send from `start` until `end` and log one record per request with
//! its times on the run's clock. Phases are cut from the log afterwards
//! ([`Segments`]).

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use genie_client::{Client, Pending, Reply};
use genie_core::model::Query;
use genie_core::topk::TopHit;
use genie_net::frame::{Request, Response};
use rand::rngs::StdRng;
use rand::Rng;

use crate::gen;
use crate::json::Json;
use crate::stats;
use crate::trace::ClientSpan;

/// The run's clock: microseconds since `origin`.
#[derive(Clone, Copy)]
pub struct Clock {
    pub origin: Instant,
}

impl Clock {
    pub fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    pub fn now_us(&self) -> f64 {
        self.us(Instant::now())
    }
}

/// A fixed-rate open-loop schedule: request `i` is due somewhere inside
/// slot `i` of the grid, at an offset drawn from the seed and `i` alone.
/// So exactly `rate` requests are due every second, a late send never
/// shifts later ones, and arrivals do not beat against the server's
/// 2 ms admission deadline the way a metronome would (on a bare grid a
/// request's wait takes two or three discrete values and the median
/// jumps between them from run to run).
#[derive(Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub period: Duration,
    pub jitter_seed: u64,
}

impl Schedule {
    pub fn per_second(start: Instant, rate: f64, jitter_seed: u64) -> Self {
        Self {
            start,
            period: Duration::from_secs_f64(1.0 / rate),
            jitter_seed,
        }
    }

    pub fn due(&self, i: u64) -> Instant {
        // SplitMix64 of (seed, i): a pure function, not a stream
        let mut z = (self.jitter_seed ^ i).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let offset = (z ^ (z >> 31)) >> 11; // 53 bits
        let period_ns = self.period.as_nanos() as u64;
        let within = ((period_ns as u128 * offset as u128) >> 53) as u64;
        // multiply in nanoseconds: Duration * u32 would cap the index
        self.start + Duration::from_nanos(period_ns * i + within)
    }
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// One search as the load generator saw it.
#[derive(Debug, Clone, Copy)]
pub struct SearchSample {
    /// When the request was due (open loop) or sent (closed loop).
    pub due_us: f64,
    pub sent_us: f64,
    /// The client's own split, from its send stamp: first response byte,
    /// and fully decoded.
    pub server_us: f64,
    pub full_us: f64,
    /// A `Search` reply arrived (not an error frame, not a dead socket).
    pub ok: bool,
    /// Answered with a typed error frame.
    pub remote_error: bool,
}

impl SearchSample {
    /// Latency as a user sees it: from the due time to the decoded
    /// reply, so a generator or server stall is charged to the requests
    /// that waited behind it.
    pub fn latency_us(&self) -> f64 {
        (self.sent_us - self.due_us) + self.full_us
    }

    pub fn late_us(&self) -> f64 {
        self.sent_us - self.due_us
    }

    pub fn client_span(&self) -> ClientSpan {
        ClientSpan {
            op: "search",
            due_us: self.due_us,
            sent_us: self.sent_us,
            first_byte_us: self.sent_us + self.server_us,
            decoded_us: self.sent_us + self.full_us,
        }
    }
}

/// A reply kept for the audit, with the interval it was in flight.
pub struct Kept {
    pub query: Query,
    pub hits: Vec<TopHit>,
    pub audit_threshold: u32,
    pub sent_us: f64,
    pub done_us: f64,
}

#[derive(Default)]
pub struct SearchLog {
    pub samples: Vec<SearchSample>,
    pub kept: Vec<Kept>,
}

impl SearchLog {
    pub fn merge(mut self, other: SearchLog) -> SearchLog {
        self.samples.extend(other.samples);
        self.kept.extend(other.kept);
        self
    }
}

struct InFlight {
    pending: Option<Pending>,
    due: Instant,
    sent: Instant,
    /// The query, when this reply will be kept for the audit.
    keep: Option<Query>,
}

/// What the searchers aim at, and how their log is kept.
#[derive(Clone, Copy)]
pub struct Target {
    pub collection: u64,
    pub k: u32,
    /// Every `keep_every`th reply is kept for the audit.
    pub keep_every: u64,
    pub clock: Clock,
}

struct SearchSender<'a> {
    target: Target,
    sent: u64,
    log: SearchLog,
    queries: &'a mut dyn Iterator<Item = Query>,
}

impl SearchSender<'_> {
    fn send(&mut self, client: &Client, due: Instant) -> InFlight {
        let query = self.queries.next().expect("query streams are endless");
        let keep = self
            .sent
            .is_multiple_of(self.target.keep_every)
            .then(|| query.clone());
        self.sent += 1;
        let request = Request::Search {
            collection: self.target.collection,
            k: self.target.k,
            query,
        };
        let sent = Instant::now();
        InFlight {
            pending: client.send(&request).ok(),
            due,
            sent,
            keep,
        }
    }

    /// Wait for one request and log it. `stamp_done` is false when the
    /// reply has been sitting in its channel (open loop resolves after
    /// the schedule ends): the client's own stamp then dates it.
    fn resolve(&mut self, flight: InFlight, stamp_done: bool) {
        let reply = flight.pending.and_then(|p| p.wait().ok());
        let clock = self.target.clock;
        let (due_us, sent_us) = (clock.us(flight.due), clock.us(flight.sent));
        let mut sample = SearchSample {
            due_us,
            sent_us,
            server_us: 0.0,
            full_us: 0.0,
            ok: false,
            remote_error: false,
        };
        if let Some(Reply {
            response,
            server_latency_us,
            full_latency_us,
        }) = reply
        {
            sample.server_us = server_latency_us;
            sample.full_us = full_latency_us;
            let done_us = if stamp_done {
                clock.now_us()
            } else {
                sent_us + full_latency_us
            };
            match response {
                Response::Search {
                    audit_threshold,
                    hits,
                    ..
                } => {
                    sample.ok = true;
                    if let Some(query) = flight.keep {
                        self.log.kept.push(Kept {
                            query,
                            hits,
                            audit_threshold,
                            sent_us,
                            done_us,
                        });
                    }
                }
                _ => sample.remote_error = true,
            }
        }
        self.log.samples.push(sample);
    }
}

/// Open loop: one sender follows `schedule` until `end`, round-robin
/// over `clients`, never waiting for a reply before the next send.
/// Replies are resolved after the last send; their times are the
/// client's own stamps, so resolving late costs nothing.
pub fn open_loop_search(
    clients: &[Client],
    target: Target,
    queries: &mut dyn Iterator<Item = Query>,
    schedule: Schedule,
    end: Instant,
) -> SearchLog {
    let mut sender = SearchSender {
        target,
        sent: 0,
        log: SearchLog::default(),
        queries,
    };
    let mut flights = Vec::new();
    for i in 0.. {
        let due = schedule.due(i);
        if due >= end {
            break;
        }
        sleep_until(due);
        let client = &clients[i as usize % clients.len()];
        flights.push(sender.send(client, due));
    }
    for flight in flights {
        sender.resolve(flight, false);
    }
    sender.log
}

/// Closed loop: keep `depth` requests in flight on one connection until
/// `end`; a new request goes out only when the oldest one is answered.
pub fn closed_loop_search(
    client: &Client,
    target: Target,
    queries: &mut dyn Iterator<Item = Query>,
    depth: usize,
    end: Instant,
) -> SearchLog {
    let mut sender = SearchSender {
        target,
        sent: 0,
        log: SearchLog::default(),
        queries,
    };
    let mut window: VecDeque<InFlight> = VecDeque::with_capacity(depth);
    loop {
        while window.len() < depth && Instant::now() < end {
            let flight = sender.send(client, Instant::now());
            window.push_back(flight);
        }
        match window.pop_front() {
            Some(flight) => sender.resolve(flight, true),
            None => break,
        }
    }
    sender.log
}

/// One mutation batch as the writer saw it.
pub struct MutateRecord {
    pub due_us: f64,
    pub sent_us: f64,
    pub acked_us: f64,
    pub server_us: f64,
    pub full_us: f64,
    pub deletes: Vec<u32>,
    pub inserts: Vec<Vec<u32>>,
    /// Ids the server assigned; `None` when the batch was not
    /// acknowledged.
    pub assigned: Option<Vec<u32>>,
}

impl MutateRecord {
    pub fn latency_us(&self) -> f64 {
        (self.sent_us - self.due_us) + self.full_us
    }

    pub fn client_span(&self) -> ClientSpan {
        ClientSpan {
            op: "mutate",
            due_us: self.due_us,
            sent_us: self.sent_us,
            first_byte_us: self.sent_us + self.server_us,
            decoded_us: self.sent_us + self.full_us,
        }
    }
}

/// The shape of the writer's batches.
#[derive(Clone, Copy)]
pub struct BatchShape {
    pub inserts: usize,
    pub deletes: usize,
    pub keywords: usize,
    pub universe: u32,
}

/// Picks the rows of each batch: deletes are random ids the server has
/// acknowledged as live, inserts are fresh objects, so the live size
/// stays constant.
pub struct BatchPicker {
    rng: StdRng,
    live: Vec<u32>,
    shape: BatchShape,
}

impl BatchPicker {
    pub fn new(rng: StdRng, base_len: usize, shape: BatchShape) -> Self {
        Self {
            rng,
            live: (0..base_len as u32).collect(),
            shape,
        }
    }

    pub fn pick(&mut self) -> (Vec<u32>, Vec<Vec<u32>>) {
        let deletes = (0..self.shape.deletes.min(self.live.len()))
            .map(|_| {
                let at = self.rng.random_range(0..self.live.len());
                self.live.swap_remove(at)
            })
            .collect();
        let inserts = (0..self.shape.inserts)
            .map(|_| {
                gen::uniform_object(&mut self.rng, self.shape.keywords, self.shape.universe)
                    .keywords
            })
            .collect();
        (deletes, inserts)
    }

    /// The batch was acknowledged with these ids.
    pub fn acked(&mut self, assigned: &[u32]) {
        self.live.extend_from_slice(assigned);
    }

    /// The batch was refused or lost; batches are atomic, so its
    /// deletes are still live.
    pub fn not_applied(&mut self, deletes: &[u32]) {
        self.live.extend_from_slice(deletes);
    }
}

/// The writer: one connection, one batch in flight, batches due on a
/// fixed schedule (a batch that overruns its period delays the next
/// send, and that wait is charged to the next batch's latency).
/// `after_ack` runs after every acknowledged batch.
pub fn scheduled_mutations(
    client: &Client,
    collection: u64,
    picker: &mut BatchPicker,
    schedule: Schedule,
    end: Instant,
    clock: Clock,
    after_ack: &mut dyn FnMut(),
) -> Vec<MutateRecord> {
    let mut records = Vec::new();
    for i in 0.. {
        let due = schedule.due(i);
        if due >= end || Instant::now() >= end {
            break;
        }
        sleep_until(due);
        let (deletes, inserts) = picker.pick();
        let request = Request::Mutate {
            collection,
            deletes,
            inserts,
        };
        let sent = Instant::now();
        let reply = client.call(&request).ok();
        let acked_us = clock.now_us();
        let Request::Mutate {
            deletes, inserts, ..
        } = request
        else {
            unreachable!("built as Mutate above")
        };
        let (server_us, full_us) = reply
            .as_ref()
            .map_or((0.0, 0.0), |r| (r.server_latency_us, r.full_latency_us));
        let assigned = match reply.map(|r| r.response) {
            Some(Response::Ids { ids }) => Some(ids),
            Some(Response::Ack) => Some(Vec::new()),
            _ => None,
        };
        match &assigned {
            Some(ids) => {
                picker.acked(ids);
                after_ack();
            }
            None => picker.not_applied(&deletes),
        }
        records.push(MutateRecord {
            due_us: clock.us(due),
            sent_us: clock.us(sent),
            acked_us,
            server_us,
            full_us,
            deletes,
            inserts,
            assigned,
        });
    }
    records
}

/// The timed phase, cut into equal segments on the run's clock.
#[derive(Clone, Copy)]
pub struct Segments {
    pub start_us: f64,
    pub segment_us: f64,
    pub count: usize,
}

impl Segments {
    pub fn new(start_us: f64, total_us: f64, count: usize) -> Self {
        Self {
            start_us,
            segment_us: total_us / count as f64,
            count,
        }
    }

    /// The segment a request due at `t_us` belongs to; `None` for
    /// warm-up and for anything after the timed phase.
    pub fn of(&self, t_us: f64) -> Option<usize> {
        if t_us < self.start_us {
            return None;
        }
        let i = ((t_us - self.start_us) / self.segment_us) as usize;
        (i < self.count).then_some(i)
    }

    pub fn segment_s(&self) -> f64 {
        self.segment_us / 1e6
    }

    /// Sort `values` of the items that fall in each segment.
    pub fn split<T>(
        &self,
        items: &[T],
        at_us: impl Fn(&T) -> f64,
        value: impl Fn(&T) -> Option<f64>,
    ) -> Vec<Vec<f64>> {
        let mut out = vec![Vec::new(); self.count];
        for item in items {
            if let (Some(seg), Some(v)) = (self.of(at_us(item)), value(item)) {
                out[seg].push(v);
            }
        }
        out.into_iter().map(stats::sort).collect()
    }
}

/// Latency summary of one operation type over the timed segments:
/// every figure is the median of the per-segment figures.
pub struct LatencySummary {
    pub p50_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
    /// Operations answered correctly within the latency limit, per
    /// second.
    pub good_per_s: f64,
    /// Samples in the smallest segment (states how far out a
    /// percentile is supported).
    pub min_segment_samples: usize,
    /// The per-segment values the medians above were taken over.
    pub per_segment: Json,
}

/// `latencies` are grouped by the segment a request was due in;
/// `good` holds, per segment, the operations that *completed* in it
/// correctly and within the latency limit (so goodput is what came out
/// of the system during the segment, not what was scheduled into it).
pub fn summarize(segments: &Segments, latencies: &[Vec<f64>], good: &[f64]) -> LatencySummary {
    let pct = |p: f64| stats::median_of_segments(latencies, |s| stats::percentile(s, p));
    let per_s: Vec<f64> = good.iter().map(|g| g / segments.segment_s()).collect();
    let each = |p: f64| {
        Json::Arr(
            latencies
                .iter()
                .map(|s| Json::Num(stats::percentile(s, p)))
                .collect(),
        )
    };
    LatencySummary {
        per_segment: Json::obj(vec![
            ("p50_us", each(0.5)),
            ("p99_us", each(0.99)),
            (
                "good_per_s",
                Json::Arr(per_s.iter().map(|v| Json::Num(*v)).collect()),
            ),
        ]),
        p50_us: pct(0.5),
        p99_us: pct(0.99),
        p999_us: pct(0.999),
        good_per_s: stats::median(&per_s),
        min_segment_samples: latencies.iter().map(Vec::len).min().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn due_times_do_not_drift_when_a_send_is_late() {
        let start = Instant::now();
        let schedule = Schedule::per_second(start, 1000.0, 42);
        // the due time of request i depends on i alone: however late
        // request 3 went out, request 4 is still due inside slot 4
        let slot = |i: u64| {
            let due = schedule.due(i);
            assert_eq!(due, schedule.due(i), "a pure function of i");
            assert!(
                due >= start + Duration::from_millis(i),
                "request {i} is early"
            );
            assert!(
                due < start + Duration::from_millis(i + 1),
                "request {i} drifted"
            );
            due - (start + Duration::from_millis(i))
        };
        let offsets: Vec<Duration> = (0..1000).map(slot).collect();
        slot(3_600_000); // an hour in, still on the grid
                         // offsets spread over the slot instead of beating with a fixed phase
        let early = offsets
            .iter()
            .filter(|o| **o < Duration::from_micros(500))
            .count();
        assert!(
            (400..600).contains(&early),
            "{early} of 1000 in the first half"
        );
        assert_ne!(
            Schedule::per_second(start, 1000.0, 43).due(7),
            schedule.due(7),
            "the seed moves the offsets"
        );
        // a late send is charged to the request: latency runs from due
        let late = SearchSample {
            due_us: 4000.0,
            sent_us: 4900.0,
            server_us: 1000.0,
            full_us: 1100.0,
            ok: true,
            remote_error: false,
        };
        assert_eq!(late.late_us(), 900.0);
        assert_eq!(late.latency_us(), 2000.0);
    }

    #[test]
    fn an_open_loop_sender_catches_up_instead_of_shifting_the_grid() {
        // walk the sender's loop with a stall injected at request 2:
        // requests 3 and 4 are already overdue and go out at once
        let start = Instant::now();
        let schedule = Schedule::per_second(start, 200.0, 1);
        let mut lateness = Vec::new();
        for i in 0..6 {
            sleep_until(schedule.due(i));
            if i == 2 {
                std::thread::sleep(Duration::from_millis(12));
            }
            lateness.push(Instant::now().duration_since(schedule.due(i)));
        }
        assert!(lateness[2] >= Duration::from_millis(12));
        assert!(lateness[3] >= Duration::from_millis(2), "still behind");
        assert!(
            lateness[5] < Duration::from_millis(4),
            "back on the grid: {:?}",
            lateness[5]
        );
    }

    #[test]
    fn segments_cut_the_timed_phase_and_drop_warm_up() {
        let segments = Segments::new(2_000_000.0, 20_000_000.0, 4);
        assert_eq!(segments.of(1_999_999.0), None, "warm-up");
        assert_eq!(segments.of(2_000_000.0), Some(0));
        assert_eq!(segments.of(6_999_999.0), Some(0));
        assert_eq!(segments.of(7_000_000.0), Some(1));
        assert_eq!(segments.of(21_999_999.0), Some(3));
        assert_eq!(segments.of(22_000_000.0), None, "after the timed phase");
        let items = [(2_500_000.0, 9.0), (2_600_000.0, 3.0), (8_000_000.0, 5.0)];
        let split = segments.split(&items, |i| i.0, |i| Some(i.1));
        assert_eq!(split, vec![vec![3.0, 9.0], vec![5.0], vec![], vec![]]);
    }

    #[test]
    fn summary_takes_the_median_over_segments() {
        let segments = Segments::new(0.0, 2_000_000.0, 2);
        let latencies = vec![vec![100.0, 200.0, 900.0], vec![100.0, 150.0, 250.0]];
        let s = summarize(&segments, &latencies, &[2.0, 3.0]);
        assert_eq!(s.good_per_s, 2.5, "median of 2/s and 3/s");
        assert_eq!(s.p50_us, 175.0);
        assert_eq!(s.min_segment_samples, 3);
    }

    #[test]
    fn picker_deletes_only_acknowledged_live_ids() {
        let shape = BatchShape {
            inserts: 4,
            deletes: 4,
            keywords: 8,
            universe: 100,
        };
        let mut picker = BatchPicker::new(StdRng::seed_from_u64(1), 10, shape);
        let mut live: std::collections::HashSet<u32> = (0..10).collect();
        let mut next_id = 10;
        for round in 0..50 {
            let (deletes, inserts) = picker.pick();
            assert_eq!((deletes.len(), inserts.len()), (4, 4));
            for id in &deletes {
                assert!(live.remove(id), "round {round}: {id} was not live");
            }
            if round % 7 == 3 {
                picker.not_applied(&deletes);
                live.extend(deletes);
            } else {
                let assigned: Vec<u32> = (next_id..next_id + 4).collect();
                next_id += 4;
                picker.acked(&assigned);
                live.extend(assigned);
            }
            assert_eq!(live.len(), 10);
        }
    }
}
