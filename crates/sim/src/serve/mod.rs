//! `bvf-serve`: the campaign-as-a-service frontend.
//!
//! A [`Server`] owns a `TcpListener` accept loop, a pool of simulation
//! workers draining a bounded priority queue, and a live [`MetricsSink`].
//! One connection-handler thread per connection parses a JSON campaign
//! request (`POST /run`), registers each application's work with the
//! scheduler, and streams results back as chunked JSONL the moment each
//! application completes — in request order, so the body is a
//! deterministic function of the request.
//!
//! **Single-flight.** Each application's work is keyed by its
//! [`ResultStore`] content address — [`ResultStore::key`] over the
//! resolved config, ISA generation, derived ISA mask, and app code, i.e.
//! exactly the identity the disk cache uses. If a request names work whose
//! key is already in flight, the handler *attaches* to the existing
//! flight instead of enqueuing a duplicate job: N concurrent identical
//! requests cost one simulation, and all N response bodies are
//! byte-identical. Fault-drill jobs (`inject_panic`) bypass both the
//! single-flight map and the store, so a drill can never poison a clean
//! request's flight or leave a poisoned cache entry.
//!
//! **Backpressure.** The queue is bounded ([`ServeOptions::queue_capacity`]).
//! Admission is per request and atomic: either every job the request needs
//! fits, or nothing is enqueued and the client gets `429 Too Many
//! Requests` with a `Retry-After` hint. Attaching to an existing flight
//! consumes no queue slot.
//!
//! **Priorities.** Jobs carry the request's `priority` (higher first);
//! ties break FIFO by submission sequence, so equal-priority work is
//! served in arrival order and nothing starves behind later peers.
//!
//! **Admission and shutdown.** The accept loop blocks in `accept`, so a
//! connection is handed to its handler the moment it arrives; nothing
//! polls. [`Server::shutdown`] sets the stop flag and then wakes the
//! blocked `accept` with one loopback connection to the server's own port
//! (an unspecified bind address maps to the loopback address of its
//! family). The loop re-checks the flag after every `accept` and drops
//! whatever it accepted once the flag is set. The drain that follows
//! waits on a condvar that every finished connection notifies, for at
//! most 30 s. `serve.admit_ns` records, per `POST /run`, the time from
//! `accept` returning to the flushed `accepted` line.

pub mod client;
pub mod http;
pub mod protocol;

use std::collections::{BinaryHeap, HashMap};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bvf_gpu::{GpuConfig, TraceSummary};
use bvf_isa::Architecture;
use bvf_obs::{CounterId, HistogramId, MetricsSink, TimerId, TraceSink};
use bvf_workloads::Application;

use crate::campaign::{run_unit, Unit, UnitEnv};
use crate::store::{ResultStore, UnitPiece};

use self::http::{ChunkedWriter, Request, RequestError};
use self::protocol::SimRequest;

/// How long a connection handler waits for one application's flight
/// before reporting a timeout failure. Generous: a full-size app on a
/// loaded box is minutes, and a lost worker should fail the request
/// rather than hang the client forever.
const FLIGHT_TIMEOUT: Duration = Duration::from_secs(600);

/// How long shutdown waits for open connections to finish before it
/// stops the workers anyway, so a wedged client cannot hold it hostage.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// Pause after a failed `accept` (EMFILE, ECONNABORTED, ...), so a
/// persistent error cannot spin the accept thread.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// Configuration for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address; port 0 picks a free port (see [`Server::addr`]).
    pub addr: String,
    /// Simulation worker threads draining the queue.
    pub workers: usize,
    /// Maximum queued (not yet running) jobs across all requests.
    pub queue_capacity: usize,
    /// Shared persistent result store consulted before simulating and
    /// written back after a miss. `None` simulates everything.
    pub store: Option<Arc<ResultStore>>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 64,
            store: None,
        }
    }
}

/// Metric handles registered once at startup, so `/metrics` lists every
/// series from the first scrape.
#[derive(Clone, Copy)]
struct Ids {
    /// Accepted `/run` requests (a 200 stream was started).
    requests: CounterId,
    /// Requests rejected with 429 (queue full).
    rejected: CounterId,
    /// Malformed or oversized requests answered 4xx.
    bad_requests: CounterId,
    /// App jobs that attached to an in-flight identical job.
    attached: CounterId,
    /// Fresh simulations executed by workers.
    simulations: CounterId,
    /// Jobs that ended in a (caught) panic.
    failures: CounterId,
    /// Store consultations that returned a usable entry.
    store_hits: CounterId,
    /// Store consultations that missed.
    store_misses: CounterId,
    /// `/metrics` scrapes served.
    scrapes: CounterId,
    /// Wall time of fresh simulations (store hits excluded).
    simulate: TimerId,
    /// Nanoseconds a job sat queued before a worker picked it up.
    queue_wait: HistogramId,
    /// Nanoseconds from `accept` returning to the flushed `accepted`
    /// line of a `/run` request.
    admit: HistogramId,
}

impl Ids {
    fn register(sink: &MetricsSink) -> Self {
        Self {
            requests: sink.counter("serve.requests"),
            rejected: sink.counter("serve.rejected"),
            bad_requests: sink.counter("serve.bad_requests"),
            attached: sink.counter("serve.attached"),
            simulations: sink.counter("serve.simulations"),
            failures: sink.counter("serve.job_failures"),
            store_hits: sink.counter("serve.store_hits"),
            store_misses: sink.counter("serve.store_misses"),
            scrapes: sink.counter("serve.scrapes"),
            simulate: sink.timer("serve.simulate"),
            queue_wait: sink.histogram("serve.queue_wait_ns"),
            admit: sink.histogram("serve.admit_ns"),
        }
    }
}

/// The outcome one flight publishes to every handler waiting on it.
type Outcome = Result<Arc<TraceSummary>, String>;

/// One in-flight unit of work: the rendezvous between the worker that
/// runs it and every connection handler waiting for it.
struct FlightSlot {
    outcome: Mutex<Option<Outcome>>,
    ready: Condvar,
}

impl FlightSlot {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            outcome: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn publish(&self, outcome: Outcome) {
        let mut slot = self.outcome.lock().expect("flight lock");
        *slot = Some(outcome);
        self.ready.notify_all();
    }

    /// Wait until the outcome is published, or `timeout` elapses.
    fn wait(&self, timeout: Duration) -> Option<Outcome> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.outcome.lock().expect("flight lock");
        loop {
            if let Some(outcome) = slot.as_ref() {
                return Some(outcome.clone());
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            let (guard, _) = self.ready.wait_timeout(slot, left).expect("flight lock");
            slot = guard;
        }
    }
}

/// One queued unit of work. Ordering: higher `priority` first, then FIFO
/// by submission sequence.
struct Job {
    priority: u32,
    seq: u64,
    app: Application,
    key: u64,
    isa_mask: u64,
    config: Arc<GpuConfig>,
    arch: Architecture,
    /// A fault drill: never registered in the single-flight map (it must
    /// not be attachable), and it panics instead of simulating.
    fault: bool,
    hold: Duration,
    slot: Arc<FlightSlot>,
    enqueued: Instant,
}

impl PartialEq for Job {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for Job {}
impl PartialOrd for Job {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Job {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.priority, std::cmp::Reverse(self.seq))
            .cmp(&(other.priority, std::cmp::Reverse(other.seq)))
    }
}

/// Scheduler state behind one mutex: the priority queue and the
/// single-flight map change together (admission registers flights and
/// enqueues jobs atomically), so one lock keeps them consistent.
struct SchedState {
    queue: BinaryHeap<Job>,
    inflight: HashMap<u64, Arc<FlightSlot>>,
    shutdown: bool,
}

/// Everything the accept loop, handlers, and workers share.
struct Shared {
    state: Mutex<SchedState>,
    work_ready: Condvar,
    capacity: usize,
    seq: AtomicU64,
    sink: MetricsSink,
    ids: Ids,
    store: Option<Arc<ResultStore>>,
    /// Open connections; `drained` is notified when the count reaches 0.
    connections: Mutex<usize>,
    drained: Condvar,
}

/// Why a request could not be admitted.
enum SubmitError {
    /// The queue cannot hold the request's jobs → 429.
    Full,
    /// The server is draining → 503.
    ShuttingDown,
}

impl Shared {
    /// Atomically admit one request: attach each app to an identical
    /// in-flight job where one exists, enqueue the rest — all or nothing
    /// against the queue capacity. Returns the flight each application
    /// waits on, in request order.
    fn submit(&self, req: &SimRequest) -> Result<Vec<(Application, Arc<FlightSlot>)>, SubmitError> {
        let isa_mask = req.isa_mask();
        let config = Arc::new(req.config.clone());
        let mut state = self.state.lock().expect("scheduler lock");
        if state.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        // Plan first, commit after the capacity check: `staged_map` lets a
        // request that names the same app twice attach to its own first
        // instance, without touching the shared map until admission.
        let mut staged: Vec<Job> = Vec::new();
        let mut staged_map: HashMap<u64, Arc<FlightSlot>> = HashMap::new();
        let mut waiters = Vec::with_capacity(req.apps.len());
        let mut attached = 0u64;
        for app in &req.apps {
            let key = ResultStore::key(&config, req.arch, isa_mask, app.code);
            let fault = req.fault.as_deref() == Some(app.code);
            if !fault {
                if let Some(slot) = state.inflight.get(&key).or_else(|| staged_map.get(&key)) {
                    attached += 1;
                    waiters.push((app.clone(), slot.clone()));
                    continue;
                }
            }
            let slot = FlightSlot::new();
            if !fault {
                staged_map.insert(key, slot.clone());
            }
            staged.push(Job {
                priority: req.priority,
                seq: self.seq.fetch_add(1, Ordering::Relaxed),
                app: app.clone(),
                key,
                isa_mask,
                config: config.clone(),
                arch: req.arch,
                fault,
                hold: Duration::from_millis(req.hold_ms),
                slot: slot.clone(),
                enqueued: Instant::now(),
            });
            waiters.push((app.clone(), slot));
        }
        if state.queue.len() + staged.len() > self.capacity {
            return Err(SubmitError::Full);
        }
        state.inflight.extend(staged_map);
        for job in staged {
            state.queue.push(job);
        }
        drop(state);
        self.work_ready.notify_all();
        self.sink.add(self.ids.attached, attached);
        Ok(waiters)
    }

    /// Worker body: drain the queue (highest priority first) until
    /// shutdown, publishing each job's outcome to its flight.
    fn worker_loop(self: &Arc<Self>) {
        let mut rec = self.sink.recorder();
        loop {
            let job = {
                let mut state = self.state.lock().expect("scheduler lock");
                loop {
                    if let Some(job) = state.queue.pop() {
                        break job;
                    }
                    if state.shutdown {
                        return;
                    }
                    state = self.work_ready.wait(state).expect("scheduler lock");
                }
            };
            rec.observe(
                self.ids.queue_wait,
                job.enqueued.elapsed().as_nanos() as u64,
            );
            self.run_job(&mut rec, job);
        }
    }

    /// Run one job as the executor's 1-shard unit (no verification, no
    /// tracing) and publish its outcome. Fault drills never reach the
    /// store: the drill fires before the consult. The job's counters are
    /// flushed *before* publishing, so a client that has read its result
    /// always finds them in `/metrics`.
    fn run_job(&self, rec: &mut bvf_obs::Recorder, job: Job) {
        if !job.hold.is_zero() {
            std::thread::sleep(job.hold);
        }
        let env = UnitEnv {
            config: &job.config,
            arch: job.arch,
            isa_mask: job.isa_mask,
            sink: &self.sink,
            store: self.store.as_deref(),
            fault: job.fault.then_some(job.app.code),
            tracer: &TraceSink::disabled(),
            trace_root: "",
        };
        let unit = Unit {
            app: &job.app,
            index: 0,
            count: 1,
            lane: 0,
            verify: false,
        };
        let out = run_unit(&env, &unit);
        let (hit, ok) = (out.store_hit, out.piece.is_ok());
        rec.add(self.ids.store_hits, u64::from(hit == Some(true)));
        rec.add(self.ids.store_misses, u64::from(hit == Some(false)));
        if hit != Some(true) {
            rec.record(self.ids.simulate, out.wall.as_nanos() as u64);
            rec.add(self.ids.simulations, u64::from(ok));
            rec.add(self.ids.failures, u64::from(!ok));
        }
        rec.flush();
        let outcome = out
            .piece
            .map(|piece| Arc::new(UnitPiece::assemble(&job.config, [piece])));
        self.finish_job(&job, outcome);
    }

    /// Retire the flight, then publish the outcome. Retiring first means a
    /// client that has read its result and repeats the request never
    /// attaches to the finished flight: it starts a fresh one, which the
    /// store (already written by `run_unit`) answers. Handlers that
    /// attached earlier hold the slot and get the outcome on publish.
    fn finish_job(&self, job: &Job, outcome: Outcome) {
        if !job.fault {
            let mut state = self.state.lock().expect("scheduler lock");
            state.inflight.remove(&job.key);
        }
        job.slot.publish(outcome);
    }
}

/// Counts one open connection from creation until drop, so a panicking
/// handler (or a handler thread that never spawned) cannot wedge graceful
/// shutdown.
struct ConnGuard(Arc<Shared>);

impl ConnGuard {
    fn enter(shared: &Arc<Shared>) -> Self {
        *shared.connections.lock().expect("connection count") += 1;
        Self(shared.clone())
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        // Must not panic: a count stays valid whoever poisoned the lock.
        let mut open = self
            .0
            .connections
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *open -= 1;
        if *open == 0 {
            self.0.drained.notify_all();
        }
    }
}

/// A running `bvf-serve` instance: accept loop, worker pool, metrics.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    stop_accept: Arc<AtomicBool>,
    accept_thread: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the worker pool and accept loop, and return. The server
    /// runs until [`Server::shutdown`].
    pub fn start(opts: ServeOptions) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&opts.addr)?;
        let addr = listener.local_addr()?;
        let sink = MetricsSink::enabled();
        let ids = Ids::register(&sink);
        let shared = Arc::new(Shared {
            state: Mutex::new(SchedState {
                queue: BinaryHeap::new(),
                inflight: HashMap::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            capacity: opts.queue_capacity.max(1),
            seq: AtomicU64::new(0),
            sink,
            ids,
            store: opts.store,
            connections: Mutex::new(0),
            drained: Condvar::new(),
        });
        let workers = (0..opts.workers.max(1))
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("bvf-serve-worker-{i}"))
                    .spawn(move || shared.worker_loop())
                    .expect("spawn worker")
            })
            .collect();
        let stop_accept = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let shared = shared.clone();
            let stop = stop_accept.clone();
            std::thread::Builder::new()
                .name("bvf-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared, &stop))
                .expect("spawn accept loop")
        };
        Ok(Self {
            addr,
            shared,
            stop_accept,
            accept_thread,
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live metrics sink `/metrics` exposes.
    pub fn sink(&self) -> &MetricsSink {
        &self.shared.sink
    }

    /// Graceful shutdown: stop accepting, let in-flight connections and
    /// queued jobs drain, then join the workers. Returns when everything
    /// has stopped (drain waits are bounded, not infinite).
    pub fn shutdown(self) {
        self.stop_accept.store(true, Ordering::SeqCst);
        // Wake the blocked `accept`; the loop sees the flag and returns.
        // The listener's backlog takes the connection even while the loop
        // is busy, so the timeout only guards a host that drops loopback
        // SYNs.
        let _ = TcpStream::connect_timeout(&wake_addr(self.addr), Duration::from_secs(1));
        let _ = self.accept_thread.join();
        // Existing connections keep being served: their jobs are already
        // queued (or running), and workers drain the queue below before
        // exiting.
        let open = self.shared.connections.lock().expect("connection count");
        let _ = self
            .shared
            .drained
            .wait_timeout_while(open, DRAIN_TIMEOUT, |open| *open > 0);
        {
            let mut state = self.shared.state.lock().expect("scheduler lock");
            state.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

/// Where [`Server::shutdown`] connects to wake the accept loop: the bound
/// address, with an unspecified IP replaced by the loopback address of
/// the same family.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// Block in `accept` and hand each connection to its own handler thread
/// until `stop` is set. Whatever `accept` returns after that (the
/// shutdown wake, or a late client) is dropped unserved.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, stop: &AtomicBool) {
    loop {
        let accepted = listener.accept();
        let admitted = Instant::now();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                // A failed spawn drops the closure, and with it the guard.
                let guard = ConnGuard::enter(shared);
                let _ = std::thread::Builder::new()
                    .name("bvf-serve-conn".to_string())
                    .spawn(move || {
                        handle_connection(&guard.0, stream, admitted);
                        drop(guard);
                    });
            }
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream, admitted: Instant) {
    // A peer that stalls mid-request (or stops reading its response) gets
    // disconnected instead of pinning this thread.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let request = match http::read_request(&mut stream) {
        Ok(r) => r,
        Err(RequestError::TooLarge) => {
            shared.sink.add(shared.ids.bad_requests, 1);
            respond_error(
                &mut stream,
                413,
                "Payload Too Large",
                &[],
                "request exceeds the size limit",
            );
            drain_unread(&mut stream);
            return;
        }
        Err(RequestError::Malformed(why)) => {
            shared.sink.add(shared.ids.bad_requests, 1);
            respond_error(&mut stream, 400, "Bad Request", &[], why);
            drain_unread(&mut stream);
            return;
        }
        Err(RequestError::Io(_)) => return,
    };
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let _ = http::respond(&mut stream, 200, "OK", &[], "text/plain", "ok\n");
        }
        ("GET", "/metrics") => {
            shared.sink.add(shared.ids.scrapes, 1);
            let body = shared.sink.expose_text();
            let _ = http::respond(
                &mut stream,
                200,
                "OK",
                &[],
                "text/plain; version=0.0.4",
                &body,
            );
        }
        ("POST", "/run") => handle_run(shared, &mut stream, &request, admitted),
        _ => {
            shared.sink.add(shared.ids.bad_requests, 1);
            respond_error(
                &mut stream,
                404,
                "Not Found",
                &[],
                "no such endpoint (try POST /run or GET /metrics)",
            );
        }
    }
}

/// Best-effort JSON error response (the peer may already be gone).
fn respond_error(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    headers: &[(&str, &str)],
    message: &str,
) {
    let body = protocol::error_body(message);
    let _ = http::respond(stream, status, reason, headers, "application/json", &body);
}

/// After rejecting a request whose body was never read, consume what the
/// peer already sent before closing. Closing with unread bytes queued
/// makes the kernel send RST, which can destroy the rejection response in
/// the peer's receive buffer before it reads it. Bounded in bytes and
/// time: this is courtesy, not an obligation to a hostile peer.
fn drain_unread(stream: &mut TcpStream) {
    use std::io::Read;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut buf = [0u8; 8192];
    let mut total = 0usize;
    while let Ok(n) = stream.read(&mut buf) {
        if n == 0 {
            break;
        }
        total += n;
        if total > 8 * 1024 * 1024 {
            break;
        }
    }
}

fn handle_run(shared: &Arc<Shared>, stream: &mut TcpStream, request: &Request, admitted: Instant) {
    let req = match protocol::parse_request(&request.body) {
        Ok(r) => r,
        Err(message) => {
            shared.sink.add(shared.ids.bad_requests, 1);
            respond_error(stream, 400, "Bad Request", &[], &message);
            return;
        }
    };
    let waiters = match shared.submit(&req) {
        Ok(w) => w,
        Err(SubmitError::Full) => {
            shared.sink.add(shared.ids.rejected, 1);
            respond_error(
                stream,
                429,
                "Too Many Requests",
                &[("Retry-After", "1")],
                "queue full, retry shortly",
            );
            return;
        }
        Err(SubmitError::ShuttingDown) => {
            respond_error(
                stream,
                503,
                "Service Unavailable",
                &[],
                "server is shutting down",
            );
            return;
        }
    };
    shared.sink.add(shared.ids.requests, 1);
    let isa_mask = req.isa_mask();
    let Ok(mut out) = ChunkedWriter::begin(stream, 200, "OK", "application/x-ndjson") else {
        return;
    };
    if out
        .line(&protocol::accepted_line(req.apps.len(), isa_mask))
        .is_err()
    {
        return;
    }
    shared
        .sink
        .observe(shared.ids.admit, admitted.elapsed().as_nanos() as u64);
    let mut failed = 0usize;
    for (app, slot) in waiters {
        let line = match slot.wait(FLIGHT_TIMEOUT) {
            Some(Ok(summary)) => protocol::app_line(&app, &summary),
            Some(Err(error)) => {
                failed += 1;
                protocol::failure_line(app.code, &error)
            }
            None => {
                failed += 1;
                protocol::failure_line(app.code, "timed out waiting for the result")
            }
        };
        if out.line(&line).is_err() {
            // The client is gone; its jobs complete (and retire their
            // flights) regardless.
            return;
        }
    }
    let _ = out.line(&protocol::done_line(req.apps.len(), failed));
    let _ = out.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_addr_maps_unspecified_to_loopback_of_the_same_family() {
        let wake = |a: &str| wake_addr(a.parse().expect("address")).to_string();
        assert_eq!(wake("0.0.0.0:8479"), "127.0.0.1:8479");
        assert_eq!(wake("[::]:8479"), "[::1]:8479");
        assert_eq!(wake("10.1.2.3:80"), "10.1.2.3:80");
        assert_eq!(wake("[fe80::1]:80"), "[fe80::1]:80");
    }
}
