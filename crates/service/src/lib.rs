//! # service — sweeps over HTTP (`sweepd`)
//!
//! A dependency-free HTTP/1.1 front end over [`driver::JobCore`], built
//! on `std::net` and `driver::json`. Start it with
//! `cargo run --release -p overlap-service --bin sweepd`, then:
//!
//! | endpoint                        | meaning                                   |
//! |---------------------------------|-------------------------------------------|
//! | `POST /jobs`                    | submit a sweep (202, or 503 + Retry-After)|
//! | `GET /jobs/:id`                 | job state + live progress counters        |
//! | `DELETE /jobs/:id`              | cancel a queued job (200; else 409)       |
//! | `GET /jobs/:id/events`          | chunked stream of progress events         |
//! | `GET /jobs/:id/artifact`        | the canonical `BENCH` JSON (when done)    |
//! | `GET /jobs/:id/diff?baseline=N` | virtual-time diff of two done jobs        |
//!
//! The request body of `POST /jobs` is a JSON object with exactly one
//! grid source — `"grid_file"` (a `scenarios/*.toml` path, resolved
//! server-side), `"grid_toml"` (inline scenario-file text), or
//! `"scenario"` (one explicit scenario object) — plus optional
//! `"threads"` and `"baseline_job"` (a completed job id whose rows an
//! incremental run may reuse).
//!
//! **The invariant this crate must never break:** serving sweeps can
//! change *wall-clock* numbers, never a *simulated* byte. The artifact
//! answered by `/jobs/:id/artifact` is the very string the job core
//! computed from the normalized result — the same bytes `harness quick`
//! writes to `BENCH_sweep.json` (enforced with `cmp` in
//! `scripts/verify.sh` and byte-equality in `tests/sweep_service.rs`).
//!
//! **Connections.** The listener blocks in `accept` and hands each
//! connection to a worker thread: an idle one if there is one, a new one
//! while fewer than 64 are alive, and past that the accept thread itself
//! answers `503` + `Retry-After: 1`. A worker that is handed nothing for
//! a second exits, so an idle server keeps no connection thread. One
//! request per connection; a request has 10 s in all to arrive (408),
//! and a write that makes no progress for 5 s drops the peer, so a peer
//! that stops cooperating cannot keep one of the 64 slots. Admission
//! keeps a timetable of one connection every 0.5 ms (2 000 a second,
//! turns unused in the last 0.1 s still good): a request that comes
//! alone is served at once, clients that re-ask without pause are held
//! to the timetable — they are never refused — and the job worker keeps
//! its share of the machine.
//!
//! Shutdown ([`ServerHandle::shutdown`], or SIGTERM/SIGINT in `sweepd`)
//! drains: queued jobs are cancelled, the running job finishes, new
//! submissions get 503, event streams run to their terminal event, and
//! only then does [`Server::run`] return. Nothing polls for it:
//! `shutdown` wakes the blocked `accept` with a throw-away connection,
//! and a short-lived thread that waits for the job core wakes it once
//! more when the drain is complete.

pub mod http;

use driver::job::{GridSource, JobCore, JobId, JobSpec, JobState, JobStatus, SubmitError};
use driver::json::{self, Json};
use driver::spec::{ModelSpec, ScenarioSpec, SizeClass, Variant};
use http::{HttpError, Request};
use std::collections::VecDeque;
use std::io::{BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long a connection may take to deliver its whole request.
const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// How long one write may wait on a peer that is not reading.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);
/// Most connections served at once; the next one is answered 503.
const MAX_CONNECTIONS: usize = 64;
/// How long a connection worker waits for its next connection before
/// it exits.
const IDLE_LINGER: Duration = Duration::from_secs(1);
/// Pause after a failed `accept` (EMFILE, ECONNABORTED).
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);
/// Spacing of admitted connections under sustained load: 2 000 a second.
const ADMIT_INTERVAL: Duration = Duration::from_micros(500);
/// How far back unused turns stay good: what a stalled stretch may make up
/// afterwards, and what an idle server admits back to back (200 turns).
const ADMIT_BANK: Duration = Duration::from_millis(100);

#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Max *queued* jobs before `POST /jobs` answers 503.
    pub queue_capacity: usize,
    /// Default worker threads per job (0 = one per core).
    pub default_threads: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            queue_capacity: 8,
            default_threads: 0,
        }
    }
}

/// A handle for asking a running [`Server`] to drain and stop, safe to
/// move into a signal-watcher thread.
#[derive(Clone)]
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
    wake_addr: SocketAddr,
}

impl ServerHandle {
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        wake(self.wake_addr);
    }
}

/// Make the listener's blocked `accept` return: one connection that is
/// closed at once, which the server reads as [`HttpError::Closed`].
/// Failing is harmless — the listener is gone or has a backlog to wake it.
fn wake(addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

/// The bound-but-not-yet-serving server. [`Server::run`] consumes it
/// and blocks until a shutdown request has fully drained.
pub struct Server {
    listener: TcpListener,
    service: Arc<Service>,
    handle: ServerHandle,
}

struct Service {
    core: JobCore,
    default_threads: usize,
    pool: Mutex<Pool>,
    /// Signalled on a hand-off, on `closed`, and when a worker exits.
    pool_changed: Condvar,
}

/// The connection workers: threads spawned on demand up to
/// [`MAX_CONNECTIONS`], each serving one connection after the other
/// until none is handed to it for [`IDLE_LINGER`]. `idle` counts waiting
/// workers that no stream in `handoff` is meant for.
#[derive(Default)]
struct Pool {
    live: usize,
    idle: usize,
    handoff: VecDeque<TcpStream>,
    closed: bool,
}

impl Service {
    fn pool(&self) -> MutexGuard<'_, Pool> {
        // Every update is a counter step or a queue push/pop, so the
        // pool is valid whatever a panicking holder was doing.
        self.pool.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Give the connection to an idle worker, or to a new one below the
    /// cap; at the cap the calling (accept) thread refuses it.
    fn dispatch(self: &Arc<Self>, mut stream: TcpStream) {
        let mut pool = self.pool();
        if pool.idle > 0 {
            pool.idle -= 1;
            pool.handoff.push_back(stream);
            self.pool_changed.notify_one();
        } else if pool.live < MAX_CONNECTIONS {
            pool.live += 1;
            drop(pool);
            let service = Arc::clone(self);
            let spawned = std::thread::Builder::new()
                .name("sweepd-conn".into())
                .spawn(move || service.worker(stream));
            if spawned.is_err() {
                // Out of threads: the connection went down with the
                // closure; give the slot back.
                self.pool().live -= 1;
            }
        } else {
            drop(pool);
            // A few hundred bytes into an empty send buffer: this
            // cannot block the accept thread.
            send(
                &mut stream,
                503,
                "Service Unavailable",
                &[("Retry-After".to_string(), "1".to_string())],
                &error_body(&format!("all {MAX_CONNECTIONS} connection slots are busy")),
            );
        }
    }

    fn worker(&self, first: TcpStream) {
        // Gives the slot back on every way out, a panicking handler
        // included, so `run` cannot wait for a worker that is gone.
        struct Slot<'a>(&'a Service);
        impl Drop for Slot<'_> {
            fn drop(&mut self) {
                self.0.pool().live -= 1;
                self.0.pool_changed.notify_all();
            }
        }
        let _slot = Slot(self);
        let mut stream = first;
        loop {
            handle_connection(stream, self);
            let mut pool = self.pool();
            pool.idle += 1;
            let give_up = Instant::now() + IDLE_LINGER;
            stream = loop {
                if let Some(next) = pool.handoff.pop_front() {
                    break next;
                }
                let left = give_up.saturating_duration_since(Instant::now());
                if pool.closed || left.is_zero() {
                    pool.idle -= 1;
                    return;
                }
                pool = self
                    .pool_changed
                    .wait_timeout(pool, left)
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            };
        }
    }
}

/// Wait for `turn` on the admission timetable and answer the turn after
/// it. A connection ahead of its turn waits here, in the accept thread
/// (later ones in the listen backlog); one behind it goes straight
/// through, and turns unused for [`ADMIT_BANK`] lapse. The timetable is
/// absolute, so a late wake-up is made up on the next turn: clients that
/// ask as fast as they are answered get its rate whatever the host is
/// doing, and leave the job worker the rest of the machine.
fn wait_turn(turn: Instant) -> Instant {
    let now = Instant::now();
    let turn = turn.max(now.checked_sub(ADMIT_BANK).unwrap_or(now));
    if turn > now {
        std::thread::sleep(turn - now);
    }
    turn + ADMIT_INTERVAL
}

impl Server {
    pub fn bind(config: &ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        // Where `shutdown` reaches the listener: its own address, with
        // "any interface" narrowed to loopback.
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Ok(Server {
            listener,
            service: Arc::new(Service {
                core: JobCore::new(config.queue_capacity),
                default_threads: config.default_threads,
                pool: Mutex::default(),
                pool_changed: Condvar::new(),
            }),
            handle: ServerHandle {
                shutdown: Arc::new(AtomicBool::new(false)),
                wake_addr,
            },
        })
    }

    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// Accept loop. Blocks in `accept`; [`ServerHandle::shutdown`] wakes
    /// it with a connection. Runs until the job core has drained and
    /// every connection is answered, and keeps accepting *during* the
    /// drain so late submitters get an orderly 503 instead of a refused
    /// socket.
    pub fn run(self) -> std::io::Result<()> {
        let mut drain_watcher = None;
        let mut turn = Instant::now();
        // The core is finished only once a shutdown has drained it.
        while !self.service.core.is_finished() {
            let accepted = self.listener.accept();
            if drain_watcher.is_none() && self.handle.shutdown.load(Ordering::SeqCst) {
                self.service.core.shutdown();
                // Waits for the running job off this thread, then wakes
                // the listener a second time to end the loop.
                let service = Arc::clone(&self.service);
                let wake_addr = self.handle.wake_addr;
                drain_watcher = Some(std::thread::spawn(move || {
                    service.core.join();
                    wake(wake_addr);
                }));
            }
            match accepted {
                Ok((stream, _peer)) => {
                    turn = wait_turn(turn);
                    self.service.dispatch(stream);
                }
                Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
            }
        }
        let mut pool = self.service.pool();
        pool.closed = true;
        self.service.pool_changed.notify_all();
        while pool.live > 0 {
            pool = self
                .service
                .pool_changed
                .wait(pool)
                .unwrap_or_else(|e| e.into_inner());
        }
        drop(pool);
        if let Some(watcher) = drain_watcher {
            watcher.join().expect("the drain watcher does not panic");
        }
        Ok(())
    }
}

fn error_body(message: &str) -> Vec<u8> {
    json::write_json(&Json::Obj(vec![(
        "error".into(),
        Json::Str(message.into()),
    )]))
    .into_bytes()
}

/// Write one complete JSON response; a peer that has gone away is not
/// an error anyone can be told about.
fn send(
    stream: &mut TcpStream,
    status: u16,
    reason: &'static str,
    extra_headers: &[(String, String)],
    body: &[u8],
) {
    let _ = stream.write_all(&http::response(
        status,
        reason,
        "application/json",
        extra_headers,
        body,
    ));
}

fn respond(stream: &mut TcpStream, status: u16, reason: &'static str, body: &Json) {
    send(stream, status, reason, &[], json::write_json(body).as_bytes());
}

fn respond_error(stream: &mut TcpStream, status: u16, reason: &'static str, message: &str) {
    send(stream, status, reason, &[], &error_body(message));
}

fn no_such_job(stream: &mut TcpStream, id: JobId) {
    respond_error(stream, 404, "Not Found", &format!("no such job {id}"));
}

/// Reads the socket under one deadline for the whole request: before
/// each read the socket's timeout shrinks to what is left, so a peer
/// cannot stretch its time by sending a byte now and then.
struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

fn handle_connection(mut stream: TcpStream, service: &Service) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let request = http::parse_request(&mut BufReader::new(DeadlineReader {
        stream: &stream,
        deadline: Instant::now() + READ_TIMEOUT,
    }));
    match request {
        Ok(req) => route(service, &req, &mut stream),
        Err(HttpError::Closed) => {}
        Err(e) => {
            let (status, reason) = e.status();
            respond_error(&mut stream, status, reason, &e.message());
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// `/jobs/:id[/verb]` → `(id, verb)`.
fn job_route(path: &str) -> Option<(JobId, Option<&str>)> {
    let rest = path.strip_prefix("/jobs/")?;
    let (id_str, verb) = match rest.split_once('/') {
        Some((id, verb)) => (id, Some(verb)),
        None => (rest, None),
    };
    let id: JobId = id_str.parse().ok()?;
    Some((id, verb))
}

fn route(service: &Service, req: &Request, stream: &mut TcpStream) {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/jobs") => post_job(service, req, stream),
        (_, "/jobs") => respond_error(
            stream,
            405,
            "Method Not Allowed",
            "use POST /jobs or GET /jobs/:id",
        ),
        (method, path) => match (method, job_route(path)) {
            ("GET", Some((id, None))) => get_job(service, id, stream),
            ("GET", Some((id, Some("events")))) => get_events(service, id, stream),
            ("GET", Some((id, Some("artifact")))) => get_artifact(service, id, stream),
            ("GET", Some((id, Some("diff")))) => get_diff(service, id, req, stream),
            ("DELETE", Some((id, None))) => delete_job(service, id, stream),
            _ => respond_error(
                stream,
                404,
                "Not Found",
                &format!("no route for {method} {path}"),
            ),
        },
    }
}

/// Parse the `"scenario"` object of a submission.
fn scenario_from_json(v: &Json) -> Result<ScenarioSpec, String> {
    if !matches!(v, Json::Obj(_)) {
        return Err("`scenario` must be an object".into());
    }
    let workload = v
        .get("workload")
        .and_then(Json::as_str)
        .ok_or("`scenario.workload` must be a string")?
        .to_string();
    let np = v
        .get("np")
        .and_then(Json::as_u64)
        .ok_or("`scenario.np` must be a non-negative integer")? as usize;
    if np < 2 {
        return Err("`scenario.np` must be at least 2".into());
    }
    let size = match v.get("size") {
        None => SizeClass::Small,
        Some(j) => {
            let s = j.as_str().ok_or("`scenario.size` must be a string")?;
            SizeClass::parse(s)
                .ok_or_else(|| format!("bad `scenario.size` `{s}` (small, medium, standard)"))?
        }
    };
    let model_str = v
        .get("model")
        .and_then(Json::as_str)
        .ok_or("`scenario.model` must be a string")?;
    let model = ModelSpec::parse(model_str).map_err(|e| format!("`scenario.model`: {e}"))?;
    let tile_size = match v.get("tile_size") {
        None | Some(Json::Null) => None,
        Some(j) => Some(
            j.as_u64()
                .ok_or("`scenario.tile_size` must be a positive integer or null")?
                as i64,
        ),
    };
    let variant = match v.get("variant") {
        None => Variant::Compare,
        Some(j) => {
            let s = j.as_str().ok_or("`scenario.variant` must be a string")?;
            Variant::parse(s)
                .ok_or_else(|| format!("bad `scenario.variant` `{s}` (compare, original, prepush)"))?
        }
    };
    Ok(ScenarioSpec {
        workload,
        size,
        np,
        model,
        tile_size,
        variant,
    })
}

fn post_job(service: &Service, req: &Request, stream: &mut TcpStream) {
    let bad = |stream: &mut TcpStream, msg: &str| respond_error(stream, 400, "Bad Request", msg);
    let doc = match json::parse_json_bytes(&req.body) {
        Ok(doc) => doc,
        Err(e) => return bad(stream, &format!("request body is not valid JSON: {e}")),
    };
    let mut sources: Vec<GridSource> = Vec::new();
    if let Some(p) = doc.get("grid_file").and_then(Json::as_str) {
        sources.push(GridSource::GridFile(p.to_string()));
    }
    if let Some(t) = doc.get("grid_toml").and_then(Json::as_str) {
        sources.push(GridSource::GridToml(t.to_string()));
    }
    if let Some(s) = doc.get("scenario") {
        match scenario_from_json(s) {
            Ok(spec) => sources.push(GridSource::Scenario(Box::new(spec))),
            Err(e) => return bad(stream, &e),
        }
    }
    if sources.len() != 1 {
        return bad(stream, "give exactly one of `grid_file`, `grid_toml`, or `scenario`");
    }
    let threads = match doc.get("threads") {
        None => service.default_threads,
        Some(j) => match j.as_u64() {
            Some(t) => t as usize,
            None => return bad(stream, "`threads` must be a non-negative integer"),
        },
    };
    let mut spec = JobSpec::new(sources.into_iter().next().expect("checked len")).threads(threads);
    if let Some(j) = doc.get("baseline_job") {
        let Some(bid) = j.as_u64() else {
            return bad(stream, "`baseline_job` must be a job id");
        };
        match service.core.result(bid) {
            Some(result) => spec = spec.baseline(result),
            None => {
                let msg = format!("`baseline_job` {bid} has no completed result");
                return respond_error(stream, 409, "Conflict", &msg);
            }
        }
    }
    match service.core.submit(spec) {
        Ok(id) => {
            let body = Json::Obj(vec![
                ("id".into(), Json::Int(id as i64)),
                ("state".into(), Json::Str("queued".into())),
            ]);
            respond(stream, 202, "Accepted", &body);
        }
        Err(SubmitError::QueueFull {
            capacity,
            retry_after_s,
        }) => {
            let body = Json::Obj(vec![
                (
                    "error".into(),
                    Json::Str(format!("job queue full ({capacity} queued)")),
                ),
                ("retry_after_s".into(), Json::Int(retry_after_s as i64)),
            ]);
            send(
                stream,
                503,
                "Service Unavailable",
                &[("Retry-After".to_string(), retry_after_s.to_string())],
                json::write_json(&body).as_bytes(),
            );
        }
        Err(SubmitError::ShuttingDown) => respond_error(
            stream,
            503,
            "Service Unavailable",
            "shutting down; not accepting jobs",
        ),
        Err(SubmitError::Invalid(msg)) => bad(stream, &msg),
    }
}

fn status_json(s: &JobStatus) -> Json {
    let mut fields = vec![
        ("id".into(), Json::Int(s.id as i64)),
        ("state".into(), Json::Str(s.state.id().into())),
    ];
    if let JobState::Failed(msg) = &s.state {
        fields.push(("error".into(), Json::Str(msg.clone())));
    }
    fields.extend([
        ("scenarios".into(), Json::Int(s.scenarios as i64)),
        ("finished".into(), Json::Int(s.finished as i64)),
        ("ok".into(), Json::Int(s.ok as i64)),
        ("errors".into(), Json::Int(s.errors as i64)),
        ("reused".into(), Json::Int(s.reused as i64)),
        ("events".into(), Json::Int(s.events as i64)),
        ("wall_ms".into(), Json::Float(s.wall_ms)),
        ("cache_hits".into(), Json::Int(s.cache_hits as i64)),
        ("cache_misses".into(), Json::Int(s.cache_misses as i64)),
    ]);
    Json::Obj(fields)
}

/// The 409 of a job that is in the wrong state for what was asked.
fn wrong_state(stream: &mut TcpStream, status: &JobStatus, message: String) {
    let body = Json::Obj(vec![
        ("error".into(), Json::Str(message)),
        ("state".into(), Json::Str(status.state.id().into())),
    ]);
    respond(stream, 409, "Conflict", &body);
}

fn get_job(service: &Service, id: JobId, stream: &mut TcpStream) {
    match service.core.status(id) {
        Some(status) => respond(stream, 200, "OK", &status_json(&status)),
        None => no_such_job(stream, id),
    }
}

/// Cancel a job that is still queued; a running or finished one stays
/// as it is and says so.
fn delete_job(service: &Service, id: JobId, stream: &mut TcpStream) {
    let cancelled = service.core.cancel(id);
    match service.core.status(id) {
        None => no_such_job(stream, id),
        Some(status) if cancelled => respond(stream, 200, "OK", &status_json(&status)),
        Some(status) => {
            let message = format!(
                "job {id} is {}; only a queued job can be cancelled",
                status.state.id()
            );
            wrong_state(stream, &status, message);
        }
    }
}

/// Stream the job's event log as newline-delimited compact JSON in a
/// chunked response, following the live log until the job is terminal.
fn get_events(service: &Service, id: JobId, stream: &mut TcpStream) {
    if service.core.status(id).is_none() {
        return no_such_job(stream, id);
    }
    if stream.write_all(&http::chunked_head(200, "OK", "application/x-ndjson")).is_err() {
        return;
    }
    let mut from = 0usize;
    while let Some((events, terminal)) =
        service.core.events_since(id, from, Duration::from_millis(250))
    {
        if terminal && events.is_empty() {
            let state = service
                .core
                .status(id)
                .map(|s| s.state.id().to_string())
                .unwrap_or_else(|| "unknown".into());
            let end = json::write_json_compact(&Json::Obj(vec![
                ("event".into(), Json::Str("end".into())),
                ("state".into(), Json::Str(state)),
            ])) + "\n";
            let _ = http::finish_chunked(stream, end.as_bytes());
            return;
        }
        let mut payload = String::new();
        for ev in &events {
            payload.push_str(&json::write_json_compact(&ev.to_json()));
            payload.push('\n');
        }
        from += events.len();
        if http::write_chunk(stream, payload.as_bytes()).is_err() {
            return; // client went away; nothing to clean up
        }
    }
}

fn get_artifact(service: &Service, id: JobId, stream: &mut TcpStream) {
    let Some(status) = service.core.status(id) else {
        return no_such_job(stream, id);
    };
    match service.core.artifact(id) {
        // The exact bytes the job core computed — byte-identical to the
        // file `harness` would have written for the same grid.
        Some(artifact) => send(stream, 200, "OK", &[], artifact.as_bytes()),
        None => {
            let message = format!("job {id} has no artifact (state: {})", status.state.id());
            wrong_state(stream, &status, message);
        }
    }
}

fn get_diff(service: &Service, id: JobId, req: &Request, stream: &mut TcpStream) {
    let Some(baseline_id) = req.query_param("baseline").and_then(|v| v.parse::<JobId>().ok())
    else {
        return respond_error(stream, 400, "Bad Request", "diff needs `?baseline=<job id>`");
    };
    let tolerance = match req.query_param("tol") {
        None => 0.0,
        Some(v) => match v.parse::<f64>() {
            Ok(t) if t.is_finite() && t >= 0.0 => t,
            _ => return respond_error(stream, 400, "Bad Request", &format!("bad `tol` `{v}`")),
        },
    };
    let fetch = |jid: JobId| -> Result<Arc<driver::SweepResult>, (u16, &'static str, String)> {
        match service.core.status(jid) {
            None => Err((404, "Not Found", format!("no such job {jid}"))),
            Some(s) => service.core.result(jid).ok_or((
                409,
                "Conflict",
                format!("job {jid} is not done (state: {})", s.state.id()),
            )),
        }
    };
    let (baseline, candidate) = match (fetch(baseline_id), fetch(id)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err((status, reason, msg)), _) | (_, Err((status, reason, msg))) => {
            return respond_error(stream, status, reason, &msg);
        }
    };
    let report = driver::diff(&baseline, &candidate, tolerance);
    let body = Json::Obj(vec![
        ("baseline".into(), Json::Int(baseline_id as i64)),
        ("candidate".into(), Json::Int(id as i64)),
        ("tolerance".into(), Json::Float(tolerance)),
        ("has_regressions".into(), Json::Bool(report.has_regressions())),
        ("report".into(), Json::Str(report.render())),
    ]);
    respond(stream, 200, "OK", &body);
}

/// SIGTERM/SIGINT latching for `sweepd`, with no libc crate: `std`
/// already links the platform libc, so declaring `signal(2)` is enough.
/// The handler only stores an `AtomicBool` (async-signal-safe); a
/// watcher thread turns the latch into a graceful [`ServerHandle`]
/// shutdown.
#[cfg(unix)]
pub mod signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SIGNALED: AtomicBool = AtomicBool::new(false);

    extern "C" fn latch(_signum: i32) {
        SIGNALED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Install the latch for SIGINT (2) and SIGTERM (15).
    pub fn install() {
        let handler = latch as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(2, handler);
            signal(15, handler);
        }
    }

    /// Has a latched signal arrived?
    pub fn signaled() -> bool {
        SIGNALED.load(Ordering::SeqCst)
    }
}
