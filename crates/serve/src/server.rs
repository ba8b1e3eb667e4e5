//! The overload-safe request engine.
//!
//! A fixed worker pool drains one shared admission queue; every request
//! passes four guards before its answer leaves the building:
//!
//! 1. **Admission** — a hard queue-depth cap plus an estimated-wait check
//!    against the latency budget. Both reject with an explicit `429 shed`
//!    body rather than letting the queue grow without bound.
//! 2. **Deadline** — a [`Watchdog`] arms a [`CancellationToken`] the
//!    prediction walk observes between op steps; deadline hits are typed
//!    `504 deadline` answers, whether they fire in the queue or mid-walk.
//! 3. **Circuit breaker** — repeated full-fidelity failures trip the
//!    server onto a degraded roofline twin (an empty [`ModelRegistry`],
//!    same overhead database), which keeps answering — marked
//!    `"degraded"` — until a half-open probe succeeds.
//! 4. **Panic isolation** — the whole route runs under `catch_unwind`;
//!    a panicking request becomes a `500 internal` answer, never a dead
//!    worker pool. An injected worker *kill* takes its thread down for
//!    real, and the thread's last act is to respawn a replacement, so the
//!    pool heals the way a supervised run does.
//!
//! Caches are bounded by construction: each device's [`MemoCache`] and
//! each model's [`PreparedStore`] carry capacity caps, so a hostile or
//! merely diverse request stream evicts, never grows. Every endpoint that
//! prices — `Predict`, `Recommend`, and `Optimize` — goes through the same
//! per-device caches; an `Optimize` search's own prepared graphs and
//! baselines live only as long as its request.
//!
//! Determinism contract: an admitted, non-degraded answer is bitwise
//! identical to [`Pipeline::predict_memoized_scratch`] run offline on the
//! same prepared graph — admission, deadlines, eviction, and fault injection
//! change *whether and when* a request is answered, never *what value* an
//! answered request carries.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use dlperf_core::pipeline::Pipeline;
use dlperf_core::predictor::{PredictError, WalkScratch};
use dlperf_core::{GraphMutation, PreparedStore};
use dlperf_faults::{site_key, FaultInjector, FaultPlan, WorkerFault};
use dlperf_gpusim::DeviceSpec;
use dlperf_graph::Graph;
use dlperf_kernels::{MemoCache, ModelRegistry};
use dlperf_models::zoo;
use dlperf_obs::{CounterGroup, CounterHandle};
use dlperf_runtime::{CancellationToken, Watchdog};

use crate::api::{
    Body, ErrorCode, Op, PredictQuery, PredictionBody, Request, Response, StatsBody,
    MAX_DEADLINE_MS,
};

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads draining the admission queue.
    pub workers: usize,
    /// Hard cap on queued-but-unserved requests; beyond it, shed.
    pub queue_capacity: usize,
    /// Deadline applied when a request carries none.
    pub default_deadline: Duration,
    /// Admission bound on estimated wait (queue depth × observed service
    /// time); beyond it, shed even with queue room.
    pub latency_budget_ms: f64,
    /// Consecutive full-fidelity failures that trip the breaker.
    pub breaker_threshold: u32,
    /// Degraded answers served per trip before a half-open probe.
    pub breaker_cooldown: u32,
    /// Per-device kernel-memo capacity (entries).
    pub memo_capacity: usize,
    /// Per-model prepared-graph capacity (entries).
    pub prepared_capacity: usize,
    /// Batch size the catalog models are built at; requests resize from
    /// here.
    pub base_batch: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 256,
            default_deadline: Duration::from_secs(2),
            latency_budget_ms: 10_000.0,
            breaker_threshold: 5,
            breaker_cooldown: 32,
            memo_capacity: 1 << 18,
            prepared_capacity: 256,
            base_batch: 2048,
        }
    }
}

/// Consecutive-failure circuit breaker with a degraded-answer cooldown.
struct Breaker {
    threshold: u32,
    cooldown_len: u32,
    consecutive: AtomicU32,
    cooldown: AtomicU32,
    trips: CounterHandle,
}

impl Breaker {
    /// While open, claims one degraded-answer slot per call.
    fn should_degrade(&self) -> bool {
        self.cooldown
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |c| c.checked_sub(1))
            .is_ok()
    }

    fn record_success(&self) {
        self.consecutive.store(0, Ordering::SeqCst);
    }

    fn record_failure(&self) {
        let failures = self.consecutive.fetch_add(1, Ordering::SeqCst) + 1;
        if failures >= self.threshold {
            self.cooldown.store(self.cooldown_len, Ordering::SeqCst);
            self.trips.incr();
        }
    }

    fn state(&self) -> &'static str {
        if self.cooldown.load(Ordering::SeqCst) > 0 {
            "open"
        } else if self.consecutive.load(Ordering::SeqCst) >= self.threshold {
            "half-open"
        } else {
            "closed"
        }
    }
}

/// One served device: the calibrated pipeline, its roofline twin, and
/// their (separately) bounded memo caches. The full-fidelity cache is an
/// `Arc` so `Optimize` searches can price through it too.
pub(crate) struct Engine {
    pub(crate) pipeline: Pipeline,
    degraded: Pipeline,
    pub(crate) cache: Arc<MemoCache>,
    degraded_cache: MemoCache,
}

/// One served model: the base graph and its bounded prepared-graph store.
pub(crate) struct ModelEntry {
    base: Graph,
    prepared: Arc<PreparedStore>,
}

impl ModelEntry {
    /// The model's graph resized to `batch`, from the bounded store —
    /// a pure function of `(base, batch)`, so cache hits, misses, and
    /// evictions cannot change the value.
    pub(crate) fn graph(&self, batch: u64) -> Arc<Result<Graph, dlperf_core::MutationError>> {
        self.prepared.get_or_prepare(&self.base, &[GraphMutation::ResizeBatch(batch)])
    }
}

/// State shared by every worker and every transport thread.
pub(crate) struct Shared {
    pub(crate) cfg: ServerConfig,
    pub(crate) engines: HashMap<String, Engine>,
    pub(crate) models: HashMap<String, ModelEntry>,
    injector: Option<FaultInjector>,
    fault_seq: AtomicU64,
    depth: AtomicUsize,
    /// EWMA of observed service time, stored as `f64::to_bits`.
    ewma_us: AtomicU64,
    breaker: Breaker,
    #[allow(dead_code)]
    obs: Arc<CounterGroup>,
    admitted: CounterHandle,
    completed: CounterHandle,
    shed_queue: CounterHandle,
    shed_latency: CounterHandle,
    deadline_expired: CounterHandle,
    panics: CounterHandle,
    degraded_answers: CounterHandle,
    rejected: CounterHandle,
}

/// A queued unit of work.
struct Job {
    req: Request,
    reply: Sender<Response>,
    enqueued: Instant,
}

/// The serving engine. Construct with [`Server::start`]; submit with
/// [`Server::submit`] (typed) or [`Server::submit_json`] (wire form).
/// Dropping the server closes the queue and the workers drain out.
pub struct Server {
    shared: Arc<Shared>,
    tx: Option<Sender<Job>>,
}

impl Server {
    /// Boots a server over calibrated `pipelines` (one per device) and
    /// the named catalog `models`, optionally under a [`FaultPlan`]
    /// whose worker faults are injected into full-fidelity predictions.
    ///
    /// # Errors
    /// When no pipeline/model is given, a model name is unknown, or a
    /// device is duplicated.
    pub fn start(
        pipelines: Vec<Pipeline>,
        models: &[&str],
        cfg: ServerConfig,
        fault_plan: Option<FaultPlan>,
    ) -> Result<Server, String> {
        if pipelines.is_empty() {
            return Err("at least one calibrated pipeline is required".into());
        }
        if models.is_empty() {
            return Err("at least one model name is required".into());
        }
        let mut engines = HashMap::new();
        for pipeline in pipelines {
            let device = pipeline.device().clone();
            let degraded = Pipeline::from_assets(
                device.clone(),
                ModelRegistry::empty(device.clone()),
                pipeline.predictor().overheads().clone(),
            );
            let engine = Engine {
                pipeline,
                degraded,
                cache: Arc::new(MemoCache::with_capacity(cfg.memo_capacity)),
                degraded_cache: MemoCache::with_capacity(cfg.memo_capacity),
            };
            if engines.insert(device.name.clone(), engine).is_some() {
                return Err(format!("duplicate pipeline for device `{}`", device.name));
            }
        }
        let mut model_map = HashMap::new();
        for &name in models {
            let base = zoo::build(name, cfg.base_batch)?;
            let prepared = Arc::new(PreparedStore::with_capacity(cfg.prepared_capacity));
            prepared.rebase(&base.index());
            model_map.insert(name.to_string(), ModelEntry { base, prepared });
        }

        let obs = CounterGroup::register(
            "serve",
            &[
                "admitted",
                "completed",
                "shed_queue",
                "shed_latency",
                "deadline_expired",
                "panics",
                "degraded_answers",
                "breaker_trips",
                "rejected",
            ],
        );
        let shared = Arc::new(Shared {
            engines,
            models: model_map,
            injector: fault_plan.map(FaultInjector::new),
            fault_seq: AtomicU64::new(0),
            depth: AtomicUsize::new(0),
            ewma_us: AtomicU64::new(0f64.to_bits()),
            breaker: Breaker {
                threshold: cfg.breaker_threshold.max(1),
                cooldown_len: cfg.breaker_cooldown.max(1),
                consecutive: AtomicU32::new(0),
                cooldown: AtomicU32::new(0),
                trips: obs.handle("breaker_trips"),
            },
            admitted: obs.handle("admitted"),
            completed: obs.handle("completed"),
            shed_queue: obs.handle("shed_queue"),
            shed_latency: obs.handle("shed_latency"),
            deadline_expired: obs.handle("deadline_expired"),
            panics: obs.handle("panics"),
            degraded_answers: obs.handle("degraded_answers"),
            rejected: obs.handle("rejected"),
            obs,
            cfg,
        });
        install_quiet_hook();
        let (tx, rx) = unbounded::<Job>();
        for _ in 0..shared.cfg.workers.max(1) {
            spawn_worker(shared.clone(), rx.clone());
        }
        Ok(Server { shared, tx: Some(tx) })
    }

    /// Submits one typed request and blocks for its response. Admission
    /// control runs on the calling thread, so a shed request never
    /// touches the queue.
    pub fn submit(&self, req: Request) -> Response {
        let id = req.id;
        let shared = &self.shared;
        let depth = shared.depth.fetch_add(1, Ordering::SeqCst);
        if depth >= shared.cfg.queue_capacity {
            shared.depth.fetch_sub(1, Ordering::SeqCst);
            shared.shed_queue.incr();
            return Response {
                id,
                body: Body::error(
                    ErrorCode::Shed,
                    format!(
                        "queue full ({depth} waiting >= capacity {}); retry later",
                        shared.cfg.queue_capacity
                    ),
                ),
            };
        }
        let ewma_us = f64::from_bits(shared.ewma_us.load(Ordering::Relaxed));
        let estimated_wait_ms = (depth as f64 + 1.0) * ewma_us / 1000.0;
        if estimated_wait_ms > shared.cfg.latency_budget_ms {
            shared.depth.fetch_sub(1, Ordering::SeqCst);
            shared.shed_latency.incr();
            return Response {
                id,
                body: Body::error(
                    ErrorCode::Shed,
                    format!(
                        "estimated wait {estimated_wait_ms:.1} ms exceeds budget {:.1} ms; retry later",
                        shared.cfg.latency_budget_ms
                    ),
                ),
            };
        }
        shared.admitted.incr();
        let (reply_tx, reply_rx) = unbounded();
        let job = Job { req, reply: reply_tx, enqueued: Instant::now() };
        let sent = self.tx.as_ref().is_some_and(|tx| tx.send(job).is_ok());
        if sent {
            match reply_rx.recv() {
                Ok(resp) => resp,
                Err(_) => Response {
                    id,
                    body: Body::error(ErrorCode::Internal, "server shut down mid-request"),
                },
            }
        } else {
            shared.depth.fetch_sub(1, Ordering::SeqCst);
            Response { id, body: Body::error(ErrorCode::Internal, "server is shut down") }
        }
    }

    /// Submits one wire-form request line and returns the response line.
    /// Never panics and always returns valid JSON, whatever the input —
    /// hostile lines are screened before the parser runs.
    pub fn submit_json(&self, line: &str) -> String {
        let resp = match crate::api::prescreen(line) {
            Err(reason) => {
                self.shared.rejected.incr();
                self.shared.completed.incr();
                Response { id: 0, body: Body::error(ErrorCode::BadRequest, reason) }
            }
            Ok(()) => match serde_json::from_str::<Request>(line) {
                Err(e) => {
                    self.shared.rejected.incr();
                    self.shared.completed.incr();
                    Response {
                        id: 0,
                        body: Body::error(ErrorCode::BadRequest, format!("unparseable request: {e}")),
                    }
                }
                Ok(req) => self.submit(req),
            },
        };
        encode_response(&resp)
    }

    /// The wire response for a line rejected by the transport before it
    /// was ever fully read (e.g. longer than [`crate::api::MAX_LINE_BYTES`],
    /// so buffering it for [`Server::submit_json`] would itself be the
    /// attack). Counted like any other prescreen rejection.
    pub fn reject_line(&self, reason: &str) -> String {
        self.shared.rejected.incr();
        self.shared.completed.incr();
        encode_response(&Response { id: 0, body: Body::error(ErrorCode::BadRequest, reason) })
    }

    /// A point-in-time counter snapshot (also served as `Op::Stats`).
    pub fn stats(&self) -> StatsBody {
        self.shared.stats()
    }

    /// The names of the devices this server prices.
    pub fn devices(&self) -> Vec<String> {
        let mut names: Vec<String> = self.shared.engines.keys().cloned().collect();
        names.sort();
        names
    }

    /// Closes the admission queue; workers drain and exit.
    pub fn shutdown(&mut self) {
        self.tx = None;
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Shared {
    fn stats(&self) -> StatsBody {
        let mut memo = dlperf_kernels::MemoCacheStats::default();
        for e in self.engines.values() {
            let s = e.cache.stats();
            let d = e.degraded_cache.stats();
            memo.hits += s.hits + d.hits;
            memo.misses += s.misses + d.misses;
            memo.entries += s.entries + d.entries;
            memo.evictions += s.evictions + d.evictions;
        }
        let mut prepared_entries = 0u64;
        let mut prepared_evictions = 0u64;
        for m in self.models.values() {
            let s = m.prepared.stats();
            prepared_entries += s.graphs as u64;
            prepared_evictions += s.evictions;
        }
        StatsBody {
            admitted: self.admitted.get(),
            completed: self.completed.get(),
            shed_queue: self.shed_queue.get(),
            shed_latency: self.shed_latency.get(),
            deadline_expired: self.deadline_expired.get(),
            panics: self.panics.get(),
            degraded_answers: self.degraded_answers.get(),
            breaker_trips: self.breaker.trips.get(),
            rejected: self.rejected.get(),
            queue_depth: self.depth.load(Ordering::SeqCst) as u64,
            memo_hits: memo.hits,
            memo_misses: memo.misses,
            memo_entries: memo.entries as u64,
            memo_evictions: memo.evictions,
            prepared_entries,
            prepared_evictions,
            breaker: self.breaker.state().to_string(),
        }
    }

    /// The engine for a device name, canonicalizing through
    /// [`DeviceSpec::by_name`] aliases.
    pub(crate) fn engine(&self, device: &str) -> Option<&Engine> {
        self.engines.get(device).or_else(|| {
            let canonical = DeviceSpec::by_name(device)?;
            self.engines.get(&canonical.name)
        })
    }
}

/// How a routed request left the worker.
enum Routed {
    Body(Body),
    /// Respond with the body, then let the worker thread die (and
    /// respawn a replacement): the injected-kill path.
    Kill(Body),
}

/// Respawns a replacement worker whenever its thread dies for any reason
/// other than a clean queue drain — the cooperative injected-kill return,
/// but also any panic that unwinds past [`serve_one`]'s `catch_unwind`
/// boundary. Tying the pool's self-healing to thread death (not to one
/// return value) means no single request, however hostile, can retire a
/// worker permanently.
struct RespawnGuard {
    shared: Arc<Shared>,
    rx: Receiver<Job>,
    armed: bool,
}

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        if self.armed {
            spawn_worker(self.shared.clone(), self.rx.clone());
        }
    }
}

fn spawn_worker(shared: Arc<Shared>, rx: Receiver<Job>) {
    std::thread::Builder::new()
        .name("dlperf-serve-worker".into())
        .spawn(move || {
            let mut guard = RespawnGuard { shared: shared.clone(), rx: rx.clone(), armed: true };
            // One walk scratch per worker, reused by every request it
            // serves; each walk resets what it touches, so a request that
            // panicked or was cancelled mid-walk leaves nothing behind.
            let mut scratch = WalkScratch::new();
            loop {
                let job = match rx.recv() {
                    Ok(job) => job,
                    Err(_) => {
                        // Queue closed: the one exit that must NOT heal.
                        guard.armed = false;
                        return;
                    }
                };
                shared.depth.fetch_sub(1, Ordering::SeqCst);
                if !serve_one(&shared, job, &mut scratch) {
                    // Injected kill: die for real; the guard respawns.
                    return;
                }
            }
        })
        .expect("serve worker thread spawns");
}

/// The effective deadline for a request: the client's millisecond value
/// clamped to `[0, MAX_DEADLINE_MS]`, the server default when absent or
/// non-finite. Never panics — a hostile `deadline_ms` (`1e300`, `NaN`,
/// negative) must degrade to a boring deadline, not unwind a worker.
fn request_deadline(ms: Option<f64>, default: Duration) -> Duration {
    let Some(ms) = ms else { return default };
    if !ms.is_finite() {
        return default;
    }
    Duration::try_from_secs_f64(ms.clamp(0.0, MAX_DEADLINE_MS) / 1000.0).unwrap_or(default)
}

/// Serves one job; returns whether this worker should keep running.
fn serve_one(shared: &Arc<Shared>, job: Job, scratch: &mut WalkScratch) -> bool {
    let deadline = request_deadline(job.req.op.deadline_ms(), shared.cfg.default_deadline);
    let waited = job.enqueued.elapsed();
    let mut keep_running = true;
    let body = if waited >= deadline {
        shared.deadline_expired.incr();
        Body::error(
            ErrorCode::DeadlineExceeded,
            format!("deadline ({deadline:?}) expired after {waited:?} in queue"),
        )
    } else {
        let token = CancellationToken::new();
        let _watchdog = Watchdog::arm(token.clone(), deadline - waited);
        let started = Instant::now();
        let routed = {
            let _quiet = QuietGuard::engage();
            catch_unwind(AssertUnwindSafe(|| route(shared, &job.req.op, &token, scratch)))
        };
        observe_service_time(shared, started.elapsed());
        match routed {
            Ok(Routed::Body(body)) => body,
            Ok(Routed::Kill(body)) => {
                keep_running = false;
                body
            }
            Err(panic) => {
                shared.panics.incr();
                shared.breaker.record_failure();
                Body::error(
                    ErrorCode::Internal,
                    format!("worker panicked: {}", panic_message(panic.as_ref())),
                )
            }
        }
    };
    shared.completed.incr();
    let _ = job.reply.send(Response { id: job.req.id, body });
    keep_running
}

impl Op {
    fn deadline_ms(&self) -> Option<f64> {
        match self {
            Op::Predict(q) => q.deadline_ms,
            Op::Recommend(q) => q.deadline_ms,
            Op::Optimize(q) => q.deadline_ms,
            Op::Stats | Op::Ping => None,
        }
    }
}

fn observe_service_time(shared: &Shared, elapsed: Duration) {
    let sample_us = elapsed.as_secs_f64() * 1e6;
    // Benign race: concurrent updates may drop a sample; the EWMA is an
    // admission heuristic, not an accounting value.
    let old = f64::from_bits(shared.ewma_us.load(Ordering::Relaxed));
    let new = if old == 0.0 { sample_us } else { 0.9 * old + 0.1 * sample_us };
    shared.ewma_us.store(new.to_bits(), Ordering::Relaxed);
}

fn route(
    shared: &Arc<Shared>,
    op: &Op,
    token: &CancellationToken,
    scratch: &mut WalkScratch,
) -> Routed {
    match op {
        Op::Ping => Routed::Body(Body::Pong),
        Op::Stats => Routed::Body(Body::Stats(shared.stats())),
        Op::Predict(q) => route_predict(shared, q, token, scratch),
        Op::Recommend(q) => Routed::Body(crate::recommend::run(shared, q, token, scratch)),
        Op::Optimize(q) => Routed::Body(crate::optimize::run(shared, q, token)),
    }
}

fn route_predict(
    shared: &Arc<Shared>,
    q: &PredictQuery,
    token: &CancellationToken,
    scratch: &mut WalkScratch,
) -> Routed {
    let Some(engine) = shared.engine(&q.device) else {
        shared.rejected.incr();
        return Routed::Body(Body::error(
            ErrorCode::NotFound,
            format!("unknown device `{}`", q.device),
        ));
    };
    let Some(entry) = shared.models.get(&q.model) else {
        shared.rejected.incr();
        return Routed::Body(Body::error(
            ErrorCode::NotFound,
            format!("unknown model `{}` (serving: {})", q.model, {
                let mut names: Vec<&str> = shared.models.keys().map(String::as_str).collect();
                names.sort_unstable();
                names.join(", ")
            }),
        ));
    };
    if q.batch == 0 || q.batch > (1 << 24) {
        shared.rejected.incr();
        return Routed::Body(Body::error(
            ErrorCode::BadRequest,
            format!("batch {} out of range [1, 2^24]", q.batch),
        ));
    }

    // Breaker open: answer from the roofline twin. No fault injection
    // here — degraded answers are the fallback path, not the flaky one.
    if shared.breaker.should_degrade() {
        let graph = entry.graph(q.batch);
        return Routed::Body(match graph.as_ref() {
            Err(e) => {
                shared.rejected.incr();
                Body::error(ErrorCode::BadRequest, format!("graph preparation failed: {e}"))
            }
            Ok(g) => match engine.degraded.predictor().walk(
                g,
                Some(&engine.degraded_cache),
                Some(token),
                scratch,
            ) {
                Ok(p) => {
                    shared.degraded_answers.incr();
                    Body::Prediction(prediction_body(&p, "degraded"))
                }
                Err(PredictError::Cancelled) => {
                    shared.deadline_expired.incr();
                    Body::error(ErrorCode::DeadlineExceeded, "deadline expired mid-walk (degraded)")
                }
                Err(PredictError::Lower(e)) => {
                    Body::error(ErrorCode::Internal, format!("degraded lowering failed: {e}"))
                }
            },
        });
    }

    // Injected chaos, full-fidelity path only.
    if let Some(injector) = &shared.injector {
        let seq = shared.fault_seq.fetch_add(1, Ordering::SeqCst);
        match injector.worker_fault(site_key("serve.request"), seq, 0) {
            Some(WorkerFault::Panic) => panic!("injected worker panic (request seq {seq})"),
            Some(WorkerFault::Kill) => {
                shared.breaker.record_failure();
                return Routed::Kill(Body::error(
                    ErrorCode::Internal,
                    "worker killed (injected); pool respawning",
                ));
            }
            Some(WorkerFault::Hang) => {
                // A wedged dependency: burn wall-clock until the watchdog
                // fires, observing the token the way a real stall would.
                while !token.is_cancelled() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                shared.deadline_expired.incr();
                return Routed::Body(Body::error(
                    ErrorCode::DeadlineExceeded,
                    "deadline expired during injected hang",
                ));
            }
            None => {}
        }
    }

    let graph = entry.graph(q.batch);
    Routed::Body(match graph.as_ref() {
        Err(e) => {
            shared.rejected.incr();
            Body::error(ErrorCode::BadRequest, format!("graph preparation failed: {e}"))
        }
        Ok(g) => match engine.pipeline.predictor().walk(
            g,
            Some(&engine.cache),
            Some(token),
            scratch,
        ) {
            Ok(p) => {
                shared.breaker.record_success();
                let confidence = if p.is_fully_calibrated() { "calibrated" } else { "degraded" };
                Body::Prediction(prediction_body(&p, confidence))
            }
            Err(PredictError::Cancelled) => {
                shared.deadline_expired.incr();
                Body::error(ErrorCode::DeadlineExceeded, "deadline expired mid-walk")
            }
            Err(PredictError::Lower(e)) => {
                shared.breaker.record_failure();
                Body::error(ErrorCode::Internal, format!("lowering failed: {e}"))
            }
        },
    })
}

pub(crate) fn prediction_body(
    p: &dlperf_core::Prediction,
    confidence: &str,
) -> PredictionBody {
    PredictionBody {
        e2e_us: p.e2e_us,
        active_us: p.active_us,
        cpu_us: p.cpu_us,
        gpu_us: p.gpu_us,
        utilization: p.utilization(),
        degraded_kernels: p.degraded_kernels,
        confidence: confidence.to_string(),
    }
}

/// Serializes a response line, with a hand-written fallback so even a
/// serializer failure yields valid JSON on the wire.
fn encode_response(resp: &Response) -> String {
    serde_json::to_string(resp).unwrap_or_else(|_| {
        r#"{"id": 0, "body": {"Error": {"code": 500, "kind": "internal", "message": "response serialization failed"}}}"#.to_string()
    })
}

/// Extracts the panic payload's message, like the supervisor does.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

thread_local! {
    static IN_REQUEST: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

static QUIET_HOOK: OnceLock<()> = OnceLock::new();

/// Installs (once per process) a panic hook that stays silent for panics
/// contained by the per-request `catch_unwind` boundary and defers to the
/// previous hook for everything else.
fn install_quiet_hook() {
    QUIET_HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_REQUEST.with(std::cell::Cell::get) {
                prev(info);
            }
        }));
    });
}

/// Marks the current thread as inside a request for the quiet hook.
struct QuietGuard;

impl QuietGuard {
    fn engage() -> QuietGuard {
        IN_REQUEST.with(|c| c.set(true));
        QuietGuard
    }
}

impl Drop for QuietGuard {
    fn drop(&mut self) {
        IN_REQUEST.with(|c| c.set(false));
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use dlperf_graph::{OpKind, TensorMeta};
    use dlperf_kernels::CalibrationEffort;

    use super::*;

    #[test]
    fn unlowerable_graph_answers_with_the_inner_lowering_error() {
        let workloads = vec![zoo::build("dlrm-default", 512).unwrap()];
        let pipeline =
            Pipeline::analyze(&DeviceSpec::v100(), &workloads, CalibrationEffort::Quick, 5, 11);
        // A graph whose only op cannot lower (AddMm with one input),
        // planted where the model's batch-768 resize would be prepared.
        let mut broken = Graph::new("broken");
        let x = broken.add_tensor(TensorMeta::activation(&[8, 8]));
        let y = broken.add_tensor(TensorMeta::activation(&[8, 8]));
        broken.add_op(OpKind::AddMm, vec![x], vec![y]);
        let lower_err = pipeline.predict(&broken).unwrap_err();
        let cfg = ServerConfig {
            workers: 1,
            base_batch: 512,
            breaker_threshold: 1,
            breaker_cooldown: 1,
            ..ServerConfig::default()
        };
        let server = Server::start(vec![pipeline], &["dlrm-default"], cfg, None).unwrap();
        server.shared.models["dlrm-default"]
            .prepared
            .insert(vec![GraphMutation::ResizeBatch(768)], Arc::new(Ok(broken)));
        let predict = |id| {
            let q = PredictQuery {
                model: "dlrm-default".into(),
                batch: 768,
                device: "v100".into(),
                deadline_ms: None,
            };
            match server.submit(Request { id, op: Op::Predict(q) }).body {
                Body::Error(e) => (e.code, e.message),
                other => panic!("expected an error body, got {other:?}"),
            }
        };
        // The full-fidelity walk fails (tripping the one-failure breaker),
        // then the degraded twin answers the next request; each message
        // names the inner lowering error exactly once.
        assert_eq!(predict(1), (500, format!("lowering failed: {lower_err}")));
        assert_eq!(predict(2), (500, format!("degraded lowering failed: {lower_err}")));
    }
}
