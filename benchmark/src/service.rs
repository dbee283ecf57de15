//! `service_quick`: closed-loop clients against an in-process
//! `service::Server`, one connection per request; the status-request and
//! event-stream phases behind `status_rps` and `first_event_s`; and the
//! probes the traced run makes (the same job through `driver::JobCore`
//! without HTTP, the request parser alone).

use crate::passes::Measured;
use crate::stats::Rng;
use crate::trace::Tracer;
use driver::job::{GridSource, JobCore, JobSpec, JobState};
use driver::json::{self, Json};
use service::{Server, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use workloads::fnv1a;

const IO_TIMEOUT: Duration = Duration::from_secs(60);

struct Reply {
    status: u16,
    body: Vec<u8>,
}

/// One request on its own connection. The `service.connect` span runs from
/// before `connect` to the first response byte.
fn http(addr: SocketAddr, request: &str, tr: &Tracer) -> std::io::Result<Reply> {
    let connect = tr.span("service.connect");
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    stream.write_all(request.as_bytes())?;
    let mut raw = vec![0u8; 1];
    stream.read_exact(&mut raw)?;
    drop(connect);
    stream.read_to_end(&mut raw)?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("response has no head"))?;
    let status = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|head| head.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| std::io::Error::other("response has no status code"))?;
    Ok(Reply {
        status,
        body: raw[split + 4..].to_vec(),
    })
}

fn get(addr: SocketAddr, path: &str, tr: &Tracer) -> std::io::Result<Reply> {
    http(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n"),
        tr,
    )
}

/// Follow `/jobs/:id/events` to its end. `on_first_event` runs when the
/// first byte of the first event is in: the byte after the response head and
/// the first chunk-size line.
fn read_events(
    addr: SocketAddr,
    id: u64,
    on_first_event: impl FnOnce(),
) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream
        .write_all(format!("GET /jobs/{id}/events HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())?;
    let mut reader = BufReader::new(stream);
    let mut text = String::new();
    while !text.ends_with("\r\n\r\n") {
        if reader.read_line(&mut text)? == 0 {
            return Err(std::io::Error::other("event stream closed inside its head"));
        }
    }
    reader.read_line(&mut text)?;
    reader.fill_buf()?;
    on_first_event();
    reader.read_to_string(&mut text)?;
    Ok(text)
}

/// The running server plus what its clients need.
pub struct ServiceBench {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: Option<std::thread::JoinHandle<()>>,
    submit_request: String,
    grid_file: String,
    expected: Vec<u8>,
    clients: usize,
    seed: u64,
    /// Highest job id known to be done, for the status-request phase.
    done_jobs: AtomicU64,
}

impl ServiceBench {
    /// Bind, serve, and push one warm-up job through. `root` is the
    /// checkout: the job names `scenarios/quick.toml` by absolute path, as
    /// `grid_file` resolves on the server's side, and its artifact must
    /// equal the committed `BENCH_sweep.json`.
    pub fn setup(root: &Path, seed: u64) -> Result<ServiceBench, String> {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let clients = nproc.min(2);
        let expected = std::fs::read(root.join("BENCH_sweep.json"))
            .map_err(|e| format!("cannot read the committed BENCH_sweep.json: {e}"))?;
        let grid_file = root.join("scenarios/quick.toml").display().to_string();
        let body = json::write_json_compact(&Json::Obj(vec![
            ("grid_file".into(), Json::Str(grid_file.clone())),
            ("threads".into(), Json::Int(1)),
        ]));
        let submit_request = format!(
            "POST /jobs HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let server = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            queue_capacity: 8,
            default_threads: 1,
        })
        .map_err(|e| format!("cannot bind the server: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run().expect("the server loop runs"));
        let bench = ServiceBench {
            addr,
            handle,
            thread: Some(thread),
            submit_request,
            grid_file,
            expected,
            clients,
            seed,
            done_jobs: AtomicU64::new(0),
        };
        if !bench.job(&Tracer::new(false)) {
            return Err("the warm-up job failed".into());
        }
        Ok(bench)
    }

    pub fn clients(&self) -> usize {
        self.clients
    }

    /// The reply if it came and carries the wanted status; anything else
    /// is a failed request and is counted as one.
    fn ok(&self, reply: std::io::Result<Reply>, want: u16, tr: &Tracer) -> Option<Reply> {
        match reply {
            Ok(r) if r.status == want => return Some(r),
            Ok(r) => {
                eprintln!(
                    "HTTP {} where {want} was expected: {}",
                    r.status,
                    String::from_utf8_lossy(&r.body)
                );
            }
            Err(e) => eprintln!("request failed: {e}"),
        }
        tr.count("service.non_2xx", 1);
        None
    }

    fn submit(&self, tr: &Tracer) -> Option<u64> {
        let _s = tr.span("service.submit");
        let reply = self.ok(http(self.addr, &self.submit_request, tr), 202, tr)?;
        json::parse_json_bytes(&reply.body)
            .ok()
            .and_then(|doc| doc.get("id")?.as_u64())
    }

    /// `GET /jobs/:id`, answering the job's state.
    fn status(&self, id: u64, tr: &Tracer) -> Option<String> {
        let _s = tr.span("service.status");
        let reply = self.ok(get(self.addr, &format!("/jobs/{id}"), tr), 200, tr)?;
        let doc = json::parse_json_bytes(&reply.body).ok()?;
        Some(doc.get("state")?.as_str()?.to_string())
    }

    /// One job: submit, poll its status until it is terminal, fetch the
    /// artifact and compare it with the committed bytes. False on any
    /// refused or failed request, failed job or differing byte.
    fn job(&self, tr: &Tracer) -> bool {
        tr.begin_request();
        let _s = tr.span("service.job");
        let Some(id) = self.submit(tr) else {
            return false;
        };
        loop {
            tr.count("service.polls", 1);
            match self.status(id, tr).as_deref() {
                Some("done") => break,
                Some("queued" | "running") => {}
                other => {
                    eprintln!("job {id} ended as {other:?}");
                    return false;
                }
            }
        }
        let artifact = {
            let _s = tr.span("service.artifact");
            self.ok(get(self.addr, &format!("/jobs/{id}/artifact"), tr), 200, tr)
        };
        self.done_jobs.fetch_max(id, Ordering::Relaxed);
        artifact.is_some_and(|a| a.body == self.expected)
    }

    /// Closed loop: each client sends `jobs_per_client` jobs, the next one
    /// when the last is done.
    pub fn measure(&self, tr: &Tracer, jobs_per_client: usize) -> Measured {
        let per_client: Vec<Vec<(f64, bool)>> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..self.clients)
                .map(|_| {
                    scope.spawn(move || {
                        (0..jobs_per_client)
                            .map(|_| {
                                let t = Instant::now();
                                let ok = self.job(tr);
                                (t.elapsed().as_secs_f64(), ok)
                            })
                            .collect()
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread"))
                .collect()
        });
        let mut m = Measured::default();
        for (secs, ok) in per_client.into_iter().flatten() {
            m.secs.push(secs);
            m.attempted += 1;
            m.failed += u64::from(!ok);
        }
        // Every accepted artifact equalled the committed bytes, so their
        // digest is the digest of those bytes.
        m.digests.push(fnv1a(&self.expected));
        m
    }

    /// One round of the status phase: `per_client` status requests from each
    /// client on finished jobs picked by the seed. Answers requests per
    /// second over the round and how many failed.
    fn status_round(&self, round: usize, per_client: usize) -> (f64, u64) {
        let tr = &Tracer::new(false);
        let done = self.done_jobs.load(Ordering::Relaxed).max(1);
        let begun = Instant::now();
        let failed: u64 = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..self.clients)
                .map(|c| {
                    scope.spawn(move || {
                        let stream = (round * self.clients + c) as u64 + 1;
                        let mut rng = Rng::new(self.seed ^ stream);
                        (0..per_client)
                            .filter(|_| {
                                let id = 1 + rng.below(done as usize) as u64;
                                self.status(id, tr).is_none()
                            })
                            .count() as u64
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread"))
                .sum()
        });
        let total = (per_client * self.clients) as f64;
        (total / begun.elapsed().as_secs_f64(), failed)
    }

    /// `rounds` status rounds one after the other: the requests per second of
    /// each, and the failed requests of all. The metric is the median round,
    /// which one stall of the host does not move.
    pub fn status_phase(&self, rounds: usize, per_client: usize) -> (Vec<f64>, u64) {
        let rounds = (0..rounds).map(|r| self.status_round(r, per_client));
        let (rps, failed): (Vec<f64>, Vec<u64>) = rounds.unzip();
        (rps, failed.iter().sum())
    }

    /// `jobs` jobs followed through `/jobs/:id/events`, one after the other:
    /// the seconds from before each submit to the first byte of the first
    /// event, and how many jobs failed.
    pub fn events_phase(&self, jobs: usize) -> (Vec<f64>, u64) {
        let first_event_s: Vec<f64> = (0..jobs).filter_map(|_| self.event_job()).collect();
        let failed = (jobs - first_event_s.len()) as u64;
        (first_event_s, failed)
    }

    fn event_job(&self) -> Option<f64> {
        let begun = Instant::now();
        let id = self.submit(&Tracer::new(false))?;
        let mut first_event_s = None;
        let result = read_events(self.addr, id, || {
            first_event_s = Some(begun.elapsed().as_secs_f64())
        });
        self.done_jobs.fetch_max(id, Ordering::Relaxed);
        // The stream's last record must be the `end` event of a done job.
        let ok = match result {
            Ok(text) => text
                .lines()
                .rfind(|l| l.starts_with('{'))
                .and_then(|l| json::parse_json(l).ok())
                .is_some_and(|last| {
                    let field = |k| last.get(k).and_then(Json::as_str);
                    text.starts_with("HTTP/1.1 200")
                        && field("event") == Some("end")
                        && field("state") == Some("done")
                }),
            Err(e) => {
                eprintln!("event stream of job {id} failed: {e}");
                false
            }
        };
        if !ok {
            eprintln!("event stream of job {id} did not end in a done job");
        }
        first_event_s.filter(|_| ok)
    }

    /// The same job through `driver::JobCore` with no HTTP in the way, so
    /// that a job's time minus this is the HTTP layer. Answers failures.
    pub fn jobcore_direct(&self, tr: &Tracer, jobs: usize) -> u64 {
        let core = JobCore::new(8);
        let mut failed = 0;
        for _ in 0..jobs {
            tr.begin_request();
            let _s = tr.span("service.jobcore_direct");
            let spec = JobSpec::new(GridSource::GridFile(self.grid_file.clone())).threads(1);
            let done = core.submit(spec).ok().and_then(|id| {
                (core.wait_terminal(id, IO_TIMEOUT) == Some(JobState::Done))
                    .then(|| core.artifact(id))?
            });
            failed += u64::from(done.is_none_or(|a| a.as_bytes() != self.expected));
        }
        core.shutdown();
        core.join();
        failed
    }

    /// `service::http::parse_request` alone, on the submit request's bytes.
    pub fn parse_probe(&self, tr: &Tracer, calls: usize) {
        let _s = tr.span("service.http_parse");
        for _ in 0..calls {
            let mut cursor = std::io::Cursor::new(self.submit_request.as_bytes());
            std::hint::black_box(
                service::http::parse_request(&mut cursor).expect("the canned request parses"),
            );
        }
        tr.count("service.http_parse_calls", calls as u64);
    }
}

impl Drop for ServiceBench {
    /// Drain and stop the server; every connection thread is joined by
    /// `Server::run` before the server thread ends.
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}
