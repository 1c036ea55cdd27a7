//! Spans recorded from outside the program, through its two public
//! injection points: a [`SearchBackend`] wrapper and a [`Vfs`] wrapper.
//!
//! Spans stay in memory until the run ends. The wrappers carry no
//! request id (the traits they implement have none), so a backend or
//! store span's parent is found by time containment in a request's
//! server interval; `trace-<workload>.json` says so.

use std::any::Any;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use genie_core::backend::{BackendCaps, BackendIndex, SearchBackend};
use genie_core::exec::SearchOutput;
use genie_core::index::InvertedIndex;
use genie_core::model::Query;
use genie_store::Vfs;

use crate::json::Json;
use crate::stats::{self, Interval};
use crate::workloads::RunOpts;

/// One call into a layer. `a` and `b` are the call's two numbers:
/// queries and `k` for `search_batch`, bytes and 0 for store calls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub layer: &'static str,
    pub op: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub a: u64,
    pub b: u64,
}

impl Span {
    pub fn interval(&self) -> Interval {
        (self.start_us, self.end_us)
    }

    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// The span sink the wrappers share. Recording can be switched off so
/// one process can time the same load with and without tracing.
pub struct Recorder {
    origin: Instant,
    enabled: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.enabled.load(Ordering::Relaxed))
            .finish()
    }
}

impl Recorder {
    pub fn new(origin: Instant) -> Arc<Self> {
        Arc::new(Self {
            origin,
            enabled: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Microseconds since the recorder's origin.
    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    fn record(&self, layer: &'static str, op: &'static str, start_us: f64, a: u64, b: u64) {
        let end_us = self.now_us();
        self.spans.lock().expect("span lock").push(Span {
            layer,
            op,
            start_us,
            end_us,
            a,
            b,
        });
    }

    /// Time `call` as one span when recording is on.
    fn span<T>(
        &self,
        layer: &'static str,
        op: &'static str,
        a: u64,
        b: u64,
        call: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled.load(Ordering::Relaxed) {
            return call();
        }
        let start_us = self.now_us();
        let out = call();
        self.record(layer, op, start_us, a, b);
        out
    }

    /// Take every span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span lock"))
    }
}

/// A [`SearchBackend`] that forwards every call to `inner` and records
/// a span per `upload` and `search_batch`.
pub struct TracingBackend {
    inner: Arc<dyn SearchBackend>,
    rec: Arc<Recorder>,
}

impl TracingBackend {
    pub fn new(inner: Arc<dyn SearchBackend>, rec: Arc<Recorder>) -> Self {
        Self { inner, rec }
    }
}

impl SearchBackend for TracingBackend {
    fn capabilities(&self) -> BackendCaps {
        self.inner.capabilities()
    }

    fn upload(&self, index: Arc<InvertedIndex>) -> Result<BackendIndex, String> {
        let objects = u64::from(index.num_objects());
        self.rec.span("core.kernel", "upload", objects, 0, || {
            self.inner.upload(index)
        })
    }

    fn search_batch(&self, index: &BackendIndex, queries: &[Query], k: usize) -> SearchOutput {
        self.rec.span(
            "core.kernel",
            "search_batch",
            queries.len() as u64,
            k as u64,
            || self.inner.search_batch(index, queries, k),
        )
    }

    fn batch_memory_budget(&self, index: &BackendIndex) -> Option<u64> {
        self.inner.batch_memory_budget(index)
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
}

/// A [`Vfs`] that forwards every call to `inner` and records a span
/// per `append_sync`, `write_atomic` and `read`, with the bytes moved.
#[derive(Debug)]
pub struct TracingVfs {
    inner: Arc<dyn Vfs>,
    rec: Arc<Recorder>,
}

impl TracingVfs {
    pub fn new(inner: Arc<dyn Vfs>, rec: Arc<Recorder>) -> Self {
        Self { inner, rec }
    }
}

impl Vfs for TracingVfs {
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        if !self.rec.enabled.load(Ordering::Relaxed) {
            return self.inner.read(path);
        }
        // the byte count is only known afterwards
        let start_us = self.rec.now_us();
        let out = self.inner.read(path);
        let bytes = out.as_ref().map_or(0, |b| b.len() as u64);
        self.rec.record("store", "read", start_us, bytes, 0);
        out
    }

    fn append_sync(&self, path: &Path, data: &[u8]) -> std::io::Result<()> {
        self.rec
            .span("store", "append_sync", data.len() as u64, 0, || {
                self.inner.append_sync(path, data)
            })
    }

    fn write_atomic(&self, path: &Path, data: &[u8]) -> std::io::Result<()> {
        self.rec
            .span("store", "write_atomic", data.len() as u64, 0, || {
                self.inner.write_atomic(path, data)
            })
    }

    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn list(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        self.inner.list(dir)
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        self.inner.remove_file(path)
    }

    fn remove_dir_all(&self, path: &Path) -> std::io::Result<()> {
        self.inner.remove_dir_all(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

/// One request as its client saw it, all times in microseconds since
/// the recorder's origin: due -> sent -> first response byte -> decoded.
#[derive(Debug, Clone, Copy)]
pub struct ClientSpan {
    pub op: &'static str,
    pub due_us: f64,
    pub sent_us: f64,
    pub first_byte_us: f64,
    pub decoded_us: f64,
}

impl ClientSpan {
    /// The interval the server (queue, wave, writer) had the request.
    pub fn server_interval(&self) -> Interval {
        (self.sent_us, self.first_byte_us)
    }
}

/// Per request, the share of its server interval no layer span covers
/// (queueing, hand-offs, wire) and the share the backend covers, by
/// time containment. `spans` must be sorted by start time.
pub fn request_breakdown(requests: &[ClientSpan], backend_spans: &[Span]) -> Json {
    let mut self_us = Vec::with_capacity(requests.len());
    let mut backend_us = Vec::with_capacity(requests.len());
    for r in requests {
        let (start, end) = r.server_interval();
        // spans are short next to the run: the ones that can overlap
        // sit just before the first span starting after the request
        let upto = backend_spans.partition_point(|s| s.start_us < end);
        let children: Vec<Interval> = backend_spans[..upto]
            .iter()
            .rev()
            .take(64)
            .filter(|s| s.end_us > start)
            .map(Span::interval)
            .collect();
        let own = stats::self_time_us((start, end), &children);
        self_us.push(own);
        backend_us.push((end - start) - own);
    }
    let p50 = |v: Vec<f64>| stats::percentile(&stats::sort(v), 0.5);
    Json::obj(vec![
        ("requests", Json::count(requests.len() as u64)),
        ("self_time_p50_us", Json::num(p50(self_us))),
        ("backend_time_p50_us", Json::num(p50(backend_us))),
    ])
}

/// Write `trace-<workload>.json` into the run's output directory.
pub fn write_trace(
    opts: &RunOpts,
    workload: &str,
    requests: &[ClientSpan],
    spans: &[Span],
    ladder: Json,
) -> Result<(), String> {
    let trace = trace_json(workload, opts.seed, requests, spans, ladder);
    let path = opts.out_dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, trace.render()).map_err(|e| format!("cannot write {path:?}: {e}"))
}

/// The `trace-<workload>.json` document.
fn trace_json(
    workload: &str,
    seed: u64,
    requests: &[ClientSpan],
    spans: &[Span],
    ladder: Json,
) -> Json {
    let mut backend: Vec<Span> = spans
        .iter()
        .filter(|s| s.op == "search_batch")
        .copied()
        .collect();
    backend.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
    Json::obj(vec![
        ("workload", Json::str(workload)),
        ("seed", Json::count(seed)),
        ("time_unit", Json::str("us since the traced run's origin")),
        (
            "parenting",
            Json::str(
                "Layer spans are recorded from outside the program and carry no request id. \
                 A layer span's parent is every request whose [sent_us, first_byte_us) interval \
                 contains it; one search_batch span serves a whole wave, so it has many parents. \
                 A request's self time is its server interval minus the layer spans inside it.",
            ),
        ),
        ("request_breakdown", request_breakdown(requests, &backend)),
        (
            "requests",
            Json::Arr(
                requests
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("op", Json::str(r.op)),
                            ("due_us", Json::num(r.due_us)),
                            ("sent_us", Json::num(r.sent_us)),
                            ("first_byte_us", Json::num(r.first_byte_us)),
                            ("decoded_us", Json::num(r.decoded_us)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "layer_spans",
            Json::Arr(
                spans
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("layer", Json::str(s.layer)),
                            ("op", Json::str(s.op)),
                            ("start_us", Json::num(s.start_us)),
                            ("end_us", Json::num(s.end_us)),
                            ("a", Json::count(s.a)),
                            ("b", Json::count(s.b)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("ladder", ladder),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use genie_core::backend::{BackendKind, CpuBackend};
    use genie_core::exec::StageProfile;
    use genie_core::index::IndexBuilder;
    use genie_core::model::Object;
    use genie_store::MemVfs;
    use std::sync::atomic::AtomicUsize;

    /// Counts calls and returns recognisable values, so the test can
    /// tell a forwarded call from an answer the wrapper made up.
    #[derive(Default)]
    struct CountingBackend {
        caps: AtomicUsize,
        uploads: AtomicUsize,
        searches: AtomicUsize,
        budgets: AtomicUsize,
        anys: AtomicUsize,
    }

    impl SearchBackend for CountingBackend {
        fn capabilities(&self) -> BackendCaps {
            self.caps.fetch_add(1, Ordering::Relaxed);
            BackendCaps {
                name: "counting",
                kind: BackendKind::Host,
                devices: 3,
                memory_bytes: Some(77),
                reports_sim_time: false,
            }
        }

        fn upload(&self, index: Arc<InvertedIndex>) -> Result<BackendIndex, String> {
            self.uploads.fetch_add(1, Ordering::Relaxed);
            Ok(BackendIndex::new(index, 1.5, ()))
        }

        fn search_batch(&self, _: &BackendIndex, queries: &[Query], k: usize) -> SearchOutput {
            self.searches.fetch_add(1, Ordering::Relaxed);
            SearchOutput {
                results: vec![Vec::new(); queries.len()],
                profile: StageProfile::default(),
                cpq_bytes_per_query: k as u64,
                audit_thresholds: vec![9; queries.len()],
            }
        }

        fn batch_memory_budget(&self, _: &BackendIndex) -> Option<u64> {
            self.budgets.fetch_add(1, Ordering::Relaxed);
            Some(123)
        }

        fn as_any(&self) -> &dyn Any {
            self.anys.fetch_add(1, Ordering::Relaxed);
            self
        }
    }

    fn tiny_index() -> Arc<InvertedIndex> {
        let mut b = IndexBuilder::new();
        b.add_object(&Object::new(vec![1, 2]));
        Arc::new(b.build(None))
    }

    #[test]
    fn backend_wrapper_forwards_every_call_and_records_spans_only_when_on() {
        let inner = Arc::new(CountingBackend::default());
        let rec = Recorder::new(Instant::now());
        let traced = TracingBackend::new(inner.clone(), rec.clone());

        assert_eq!(traced.capabilities().name, "counting");
        assert_eq!(traced.capabilities().memory_bytes, Some(77));
        let bindex = traced.upload(tiny_index()).unwrap();
        assert_eq!(bindex.upload_sim_us, 1.5);
        let queries = vec![Query::from_keywords(&[1]); 4];
        let out = traced.search_batch(&bindex, &queries, 6);
        assert_eq!(out.audit_thresholds, vec![9; 4]);
        assert_eq!(out.cpq_bytes_per_query, 6);
        assert_eq!(traced.batch_memory_budget(&bindex), Some(123));
        assert!(traced.as_any().downcast_ref::<CountingBackend>().is_some());
        assert_eq!(inner.caps.load(Ordering::Relaxed), 2);
        assert_eq!(inner.uploads.load(Ordering::Relaxed), 1);
        assert_eq!(inner.searches.load(Ordering::Relaxed), 1);
        assert_eq!(inner.budgets.load(Ordering::Relaxed), 1);
        assert_eq!(inner.anys.load(Ordering::Relaxed), 1);
        assert!(rec.drain().is_empty(), "recording starts switched off");

        rec.set_enabled(true);
        traced.upload(tiny_index()).unwrap();
        traced.search_batch(&bindex, &queries, 6);
        let spans = rec.drain();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].op, spans[0].a), ("upload", 1));
        assert_eq!(
            (spans[1].op, spans[1].a, spans[1].b),
            ("search_batch", 4, 6)
        );
        assert!(spans[1].end_us >= spans[1].start_us);
        assert!(spans[1].start_us >= spans[0].end_us);
    }

    #[test]
    fn backend_wrapper_answers_like_the_cpu_backend_it_wraps() {
        let rec = Recorder::new(Instant::now());
        let cpu = Arc::new(CpuBackend::new());
        let traced = TracingBackend::new(cpu.clone(), rec);
        let bindex = traced.upload(tiny_index()).unwrap();
        let out = traced.search_batch(&bindex, &[Query::from_keywords(&[2])], 1);
        assert_eq!((out.results[0][0].id, out.results[0][0].count), (0, 1));
        assert_eq!(cpu.kernel_stats().queries, 1, "the inner kernel ran");
    }

    #[test]
    fn request_breakdown_finds_backend_spans_by_time_containment() {
        let span = |start_us, end_us| Span {
            layer: "core.kernel",
            op: "search_batch",
            start_us,
            end_us,
            a: 1,
            b: 10,
        };
        let request = |sent_us, first_byte_us| ClientSpan {
            op: "search",
            due_us: sent_us,
            sent_us,
            first_byte_us,
            decoded_us: first_byte_us + 1.0,
        };
        // a request of 100 us holding a 30 us span, one of 50 us with
        // none, and one whose span sticks out of its interval by half
        let spans = [span(120.0, 150.0), span(480.0, 520.0)];
        let requests = [
            request(100.0, 200.0),
            request(300.0, 350.0),
            request(400.0, 500.0),
        ];
        let Json::Obj(fields) = request_breakdown(&requests, &spans) else {
            panic!("an object")
        };
        // self times 70, 50, 80 -> p50 70; backend times 30, 0, 20 -> 20
        assert_eq!(fields[1], ("self_time_p50_us".to_owned(), Json::num(70.0)));
        assert_eq!(
            fields[2],
            ("backend_time_p50_us".to_owned(), Json::num(20.0))
        );
    }

    #[test]
    fn vfs_wrapper_forwards_every_call_and_records_bytes() {
        let mem: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let rec = Recorder::new(Instant::now());
        rec.set_enabled(true);
        let vfs = TracingVfs::new(mem.clone(), rec.clone());
        let dir = Path::new("/d");
        let file = dir.join("journal");
        let other = dir.join("manifest");

        vfs.create_dir_all(dir).unwrap();
        vfs.append_sync(&file, b"abc").unwrap();
        vfs.append_sync(&file, b"de").unwrap();
        vfs.write_atomic(&other, b"xyz!").unwrap();
        assert_eq!(vfs.read(&file).unwrap(), b"abcde");
        assert_eq!(
            mem.read(&other).unwrap(),
            b"xyz!",
            "writes reached the inner vfs"
        );
        assert!(vfs.exists(&file) && mem.exists(&file));
        assert_eq!(vfs.list(dir).unwrap(), mem.list(dir).unwrap());
        assert_eq!(vfs.list(dir).unwrap().len(), 2);
        vfs.remove_file(&other).unwrap();
        assert!(!mem.exists(&other));
        vfs.remove_dir_all(dir).unwrap();
        assert!(!mem.exists(&file));
        assert!(vfs.read(&file).is_err(), "errors are forwarded too");

        let spans = rec.drain();
        let ops: Vec<(&str, u64)> = spans.iter().map(|s| (s.op, s.a)).collect();
        assert_eq!(
            ops,
            vec![
                ("append_sync", 3),
                ("append_sync", 2),
                ("write_atomic", 4),
                ("read", 5),
                ("read", 0),
            ]
        );
        assert!(spans.iter().all(|s| s.layer == "store"));
    }
}
