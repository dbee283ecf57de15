//! The job core: sweeps as queued, observable jobs.
//!
//! [`JobCore`] owns a bounded FIFO queue of [`JobSpec`]s and a single
//! worker thread that drains it. Every front end — the one-shot CLI
//! (`driver::client`), the HTTP sweep service (`crates/service`), tests
//! — is a *client* of this type: submit, then poll [`JobCore::status`],
//! block on [`JobCore::wait_terminal`], or stream
//! [`JobCore::events_since`]. The worker runs each job through the same
//! [`crate::run_sweep_with`] / [`crate::run_sweep_incremental_with`]
//! entry points the CLI always used, with a sink that appends
//! [`ProgressEvent`]s to the job's log, so a job's artifact bytes are
//! identical to what a direct in-process sweep produces.
//!
//! Admission control is deliberately blunt: at most `capacity` jobs may
//! be *queued* (a running job doesn't count, nor does the one an idle
//! worker is about to claim). A submit beyond that is
//! rejected with [`SubmitError::QueueFull`] carrying a retry hint —
//! callers get backpressure instead of unbounded memory growth.
//!
//! Shutdown drains, never aborts: [`JobCore::shutdown`] cancels every
//! still-queued job, refuses new submissions, and lets the worker finish
//! the job it is running before exiting. Simulated time is untouched —
//! a drained job's artifact is byte-identical to an undisturbed one.

use crate::event::{EventSink, ProgressEvent};
use crate::exec::{run_sweep_incremental_with, run_sweep_with, SweepResult};
use crate::grid::SweepGrid;
use crate::json;
use crate::spec::ScenarioSpec;
use crate::toml::grid_from_toml;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Job identifiers are dense and start at 1 (the first submitted job is
/// job 1), so URLs and logs stay human-readable.
pub type JobId = u64;

/// Where a job's grid comes from. Everything resolves to a [`SweepGrid`]
/// at submission time, so a rejected grid never occupies a queue slot.
#[derive(Debug, Clone, PartialEq)]
pub enum GridSource {
    /// An already-built grid (in-process clients, presets).
    Grid(SweepGrid),
    /// Inline `overlap-grid/v1` TOML text (the HTTP `grid_toml` field).
    GridToml(String),
    /// A `scenarios/*.toml` path, read at submission time.
    GridFile(String),
    /// A single scenario, run as a one-point grid.
    Scenario(Box<ScenarioSpec>),
}

impl GridSource {
    /// Resolve to a grid. Error strings for file sources match the CLI's
    /// historical diagnostics byte-for-byte, so moving `harness` onto the
    /// job core changed no output.
    pub fn resolve(&self) -> Result<SweepGrid, String> {
        match self {
            GridSource::Grid(g) => Ok(g.clone()),
            GridSource::GridToml(text) => grid_from_toml(text),
            GridSource::GridFile(path) => {
                let bytes = std::fs::read(path)
                    .map_err(|e| format!("cannot read grid file {path}: {e}"))?;
                let text = String::from_utf8(bytes)
                    .map_err(|e| format!("{path}: grid file is not valid UTF-8: {e}"))?;
                grid_from_toml(&text).map_err(|e| format!("{path}: {e}"))
            }
            GridSource::Scenario(spec) => Ok(SweepGrid::new()
                .workloads([spec.workload.clone()])
                .size(spec.size)
                .nps([spec.np])
                .models([spec.model.clone()])
                .tile_sizes([spec.tile_size])
                .variants([spec.variant])),
        }
    }
}

/// Everything a job needs to run.
#[derive(Debug, Clone)]
pub struct JobSpec {
    pub source: GridSource,
    /// Worker threads for the sweep (0 = one per core), as in
    /// [`crate::run_sweep`].
    pub threads: usize,
    /// Incremental baseline: rows whose input hash matches are reused
    /// instead of re-simulated, exactly `harness sweep --incremental`.
    pub baseline: Option<Arc<SweepResult>>,
}

impl JobSpec {
    pub fn new(source: GridSource) -> JobSpec {
        JobSpec {
            source,
            threads: 0,
            baseline: None,
        }
    }

    pub fn grid(grid: SweepGrid) -> JobSpec {
        JobSpec::new(GridSource::Grid(grid))
    }

    pub fn threads(mut self, threads: usize) -> JobSpec {
        self.threads = threads;
        self
    }

    pub fn baseline(mut self, baseline: Arc<SweepResult>) -> JobSpec {
        self.baseline = Some(baseline);
        self
    }
}

/// Per-job lifecycle. `Queued → Running → Done | Failed`; a queued job
/// may instead go to `Cancelled` (explicitly, or by shutdown). Running
/// jobs are never aborted.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    Queued,
    Running,
    Done,
    Failed(String),
    Cancelled,
}

impl JobState {
    /// Stable lowercase tag (what the HTTP API reports).
    pub fn id(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed(_) => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Terminal states emit no further events.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed(_) | JobState::Cancelled
        )
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// The queue is at capacity; try again after the hinted delay.
    QueueFull { capacity: usize, retry_after_s: u64 },
    /// The core is draining; no new work is admitted.
    ShuttingDown,
    /// The grid source did not resolve (unreadable file, bad TOML, …).
    Invalid(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull {
                capacity,
                retry_after_s,
            } => write!(
                f,
                "job queue full ({capacity} queued); retry after {retry_after_s}s"
            ),
            SubmitError::ShuttingDown => write!(f, "shutting down; not accepting jobs"),
            SubmitError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

/// A point-in-time snapshot of one job, safe to serialize while the
/// worker keeps running. Progress counters come from the event stream;
/// wall/cache figures appear once the job is `Done`.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    pub id: JobId,
    pub state: JobState,
    /// Scenarios the grid expands to.
    pub scenarios: usize,
    /// Scenarios finished so far (simulated or reused).
    pub finished: usize,
    pub ok: usize,
    pub errors: usize,
    /// Rows reused from the incremental baseline.
    pub reused: usize,
    /// Events logged so far (the high-water mark for
    /// [`JobCore::events_since`]).
    pub events: usize,
    /// Total sweep wall-clock in ms (0 until `Done`).
    pub wall_ms: f64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

struct Job {
    grid: SweepGrid,
    threads: usize,
    baseline: Option<Arc<SweepResult>>,
    scenarios: usize,
    state: JobState,
    events: Vec<ProgressEvent>,
    finished: usize,
    ok: usize,
    errors: usize,
    reused: usize,
    result: Option<Arc<SweepResult>>,
    /// Canonical normalized artifact bytes (`BENCH` JSON), computed once
    /// at completion.
    artifact: Option<Arc<String>>,
}

struct State {
    jobs: Vec<Job>,
    /// Indices into `jobs`, FIFO.
    queue: VecDeque<usize>,
    /// The worker has claimed a job and not finished it yet.
    busy: bool,
    shutting_down: bool,
    worker_done: bool,
}

struct Inner {
    state: Mutex<State>,
    /// Signalled on any job change (clients wait here).
    clients: Condvar,
    /// Signalled when work arrives or shutdown starts (worker waits here).
    work: Condvar,
    capacity: usize,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The sink the worker hands to the sweep: append to the job's event
/// log, fold scenario completions into the progress counters, wake
/// waiting clients.
struct JobSink {
    inner: Arc<Inner>,
    idx: usize,
}

impl EventSink for JobSink {
    fn emit(&self, event: ProgressEvent) {
        let mut st = self.inner.lock();
        if let ProgressEvent::ScenarioFinished { ok, reused, .. } = &event {
            let job = &mut st.jobs[self.idx];
            job.finished += 1;
            if *ok {
                job.ok += 1;
            } else {
                job.errors += 1;
            }
            if *reused {
                job.reused += 1;
            }
        }
        st.jobs[self.idx].events.push(event);
        self.inner.clients.notify_all();
    }
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "sweep panicked".to_string()
    }
}

/// The sweep-service core. See the module docs for the model.
pub struct JobCore {
    inner: Arc<Inner>,
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl JobCore {
    /// A core with a live worker thread and room for `capacity` queued
    /// jobs (minimum 1).
    pub fn new(capacity: usize) -> JobCore {
        let core = JobCore::new_inert(capacity);
        let inner = Arc::clone(&core.inner);
        {
            let mut st = inner.lock();
            st.worker_done = false;
        }
        let handle = std::thread::Builder::new()
            .name("sweep-job-worker".into())
            .spawn(move || worker_loop(&inner))
            .expect("spawn job worker");
        *core.worker.lock().unwrap_or_else(|e| e.into_inner()) = Some(handle);
        core
    }

    /// A core with *no* worker: jobs queue but never run. Tests use this
    /// to exercise admission control and cancellation deterministically.
    pub fn new_inert(capacity: usize) -> JobCore {
        JobCore {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    jobs: Vec::new(),
                    queue: VecDeque::new(),
                    busy: false,
                    shutting_down: false,
                    worker_done: true,
                }),
                clients: Condvar::new(),
                work: Condvar::new(),
                capacity: capacity.max(1),
            }),
            worker: Mutex::new(None),
        }
    }

    /// Admit a job, or say why not. The grid resolves here — a bad grid
    /// never occupies a slot — and the job's first event
    /// ([`ProgressEvent::JobAccepted`]) is logged before this returns.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        let grid = spec.source.resolve().map_err(SubmitError::Invalid)?;
        let scenarios = grid.expand().len();
        let mut st = self.inner.lock();
        if st.shutting_down {
            return Err(SubmitError::ShuttingDown);
        }
        // The queue's head is as good as running when a live worker is
        // free to claim it: whether that worker has woken up yet must
        // not decide what a submitter is told.
        let claimable = !st.busy && !st.worker_done && !st.queue.is_empty();
        if st.queue.len() - usize::from(claimable) >= self.inner.capacity {
            return Err(SubmitError::QueueFull {
                capacity: self.inner.capacity,
                retry_after_s: 1,
            });
        }
        let idx = st.jobs.len();
        let id = (idx + 1) as JobId;
        let queued_ahead = st.queue.len();
        st.jobs.push(Job {
            grid,
            threads: spec.threads,
            baseline: spec.baseline,
            scenarios,
            state: JobState::Queued,
            events: vec![ProgressEvent::JobAccepted {
                job: id,
                scenarios,
                queued_ahead,
            }],
            finished: 0,
            ok: 0,
            errors: 0,
            reused: 0,
            result: None,
            artifact: None,
        });
        st.queue.push_back(idx);
        self.inner.work.notify_one();
        self.inner.clients.notify_all();
        Ok(id)
    }

    fn idx(st: &State, id: JobId) -> Option<usize> {
        let idx = id.checked_sub(1)? as usize;
        (idx < st.jobs.len()).then_some(idx)
    }

    /// Snapshot one job (`None` for an unknown id).
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let st = self.inner.lock();
        let idx = Self::idx(&st, id)?;
        let job = &st.jobs[idx];
        let timing = job.result.as_ref().and_then(|r| r.timing.as_ref());
        Some(JobStatus {
            id,
            state: job.state.clone(),
            scenarios: job.scenarios,
            finished: job.finished,
            ok: job.ok,
            errors: job.errors,
            reused: job.reused,
            events: job.events.len(),
            wall_ms: job.result.as_ref().map_or(0.0, |r| r.summary.wall_ms),
            cache_hits: timing.map_or(0, |t| t.cache_hits),
            cache_misses: timing.map_or(0, |t| t.cache_misses),
        })
    }

    /// Jobs currently waiting (not counting a running one).
    pub fn queue_len(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// Block until the job reaches a terminal state or `timeout`
    /// elapses; returns the state either way (`None` for unknown ids).
    pub fn wait_terminal(&self, id: JobId, timeout: Duration) -> Option<JobState> {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.lock();
        let idx = Self::idx(&st, id)?;
        loop {
            if st.jobs[idx].state.is_terminal() {
                return Some(st.jobs[idx].state.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return Some(st.jobs[idx].state.clone());
            }
            st = self
                .inner
                .clients
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    /// Events logged at index `from` onward. Blocks until at least one
    /// new event exists, the job is terminal, or `timeout` elapses;
    /// returns the (possibly empty) tail and whether the job is
    /// terminal. `None` for unknown ids.
    pub fn events_since(
        &self,
        id: JobId,
        from: usize,
        timeout: Duration,
    ) -> Option<(Vec<ProgressEvent>, bool)> {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.lock();
        let idx = Self::idx(&st, id)?;
        loop {
            let job = &st.jobs[idx];
            let terminal = job.state.is_terminal();
            if job.events.len() > from || terminal {
                let tail = job.events[from.min(job.events.len())..].to_vec();
                return Some((tail, terminal));
            }
            let now = Instant::now();
            if now >= deadline {
                return Some((Vec::new(), false));
            }
            st = self
                .inner
                .clients
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    /// The job's completed sweep (`None` unless `Done`).
    pub fn result(&self, id: JobId) -> Option<Arc<SweepResult>> {
        let st = self.inner.lock();
        let idx = Self::idx(&st, id)?;
        st.jobs[idx].result.clone()
    }

    /// The job's canonical normalized artifact bytes (`None` unless
    /// `Done`). Byte-identical to `harness` writing the same grid.
    pub fn artifact(&self, id: JobId) -> Option<Arc<String>> {
        let st = self.inner.lock();
        let idx = Self::idx(&st, id)?;
        st.jobs[idx].artifact.clone()
    }

    /// Cancel a *queued* job. Running and terminal jobs are untouched
    /// (returns false).
    pub fn cancel(&self, id: JobId) -> bool {
        let mut st = self.inner.lock();
        let Some(idx) = Self::idx(&st, id) else {
            return false;
        };
        if st.jobs[idx].state != JobState::Queued {
            return false;
        }
        st.queue.retain(|&i| i != idx);
        st.jobs[idx].state = JobState::Cancelled;
        self.inner.clients.notify_all();
        true
    }

    /// Begin draining: refuse new submissions, cancel everything still
    /// queued, and let the worker finish its current job. Non-blocking;
    /// poll [`JobCore::is_finished`] or call [`JobCore::join`].
    pub fn shutdown(&self) {
        let mut st = self.inner.lock();
        st.shutting_down = true;
        while let Some(idx) = st.queue.pop_front() {
            st.jobs[idx].state = JobState::Cancelled;
        }
        if self
            .worker
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_none()
        {
            st.worker_done = true;
        }
        self.inner.work.notify_all();
        self.inner.clients.notify_all();
    }

    /// True once the worker has exited (only after [`JobCore::shutdown`];
    /// inert cores are trivially finished).
    pub fn is_finished(&self) -> bool {
        self.inner.lock().worker_done
    }

    /// Block until the worker exits (call [`JobCore::shutdown`] first,
    /// or this waits forever).
    pub fn join(&self) {
        let handle = self.worker.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        // Claim the next job, or exit once draining and drained.
        let (idx, grid, threads, baseline) = {
            let mut st = inner.lock();
            loop {
                if let Some(idx) = st.queue.pop_front() {
                    st.busy = true;
                    st.jobs[idx].state = JobState::Running;
                    inner.clients.notify_all();
                    let job = &st.jobs[idx];
                    break (idx, job.grid.clone(), job.threads, job.baseline.clone());
                }
                if st.shutting_down {
                    st.worker_done = true;
                    inner.clients.notify_all();
                    return;
                }
                st = inner
                    .work
                    .wait(st)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        let sink = JobSink {
            inner: Arc::clone(inner),
            idx,
        };
        // Scenario panics already become error rows inside the sweep;
        // this guard only catches a whole-sweep failure, which becomes
        // JobState::Failed instead of killing the worker.
        let outcome = catch_unwind(AssertUnwindSafe(|| match &baseline {
            Some(b) => run_sweep_incremental_with(&grid, threads, b, &sink).result,
            None => run_sweep_with(&grid, threads, &sink),
        }));
        let mut st = inner.lock();
        st.busy = false;
        match outcome {
            Ok(result) => {
                let artifact = Arc::new(json::to_json_string(&result.normalized()));
                let job = &mut st.jobs[idx];
                job.result = Some(Arc::new(result));
                job.artifact = Some(artifact);
                job.state = JobState::Done;
            }
            Err(p) => {
                st.jobs[idx].state = JobState::Failed(panic_message(p));
            }
        }
        inner.clients.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_sweep;
    use crate::spec::{ModelSpec, SizeClass};

    fn tiny_grid() -> SweepGrid {
        SweepGrid::new()
            .workloads(["direct2d"])
            .size(SizeClass::Small)
            .nps([2])
            .models([ModelSpec::MpichGm])
    }

    const WAIT: Duration = Duration::from_secs(120);

    #[test]
    fn job_runs_to_done_with_byte_identical_artifact() {
        let core = JobCore::new(4);
        let id = core.submit(JobSpec::grid(tiny_grid()).threads(1)).unwrap();
        assert_eq!(core.wait_terminal(id, WAIT), Some(JobState::Done));
        let status = core.status(id).unwrap();
        assert_eq!(status.scenarios, 1);
        assert_eq!((status.finished, status.ok, status.errors), (1, 1, 0));
        let artifact = core.artifact(id).unwrap();
        let direct = json::to_json_string(&run_sweep(&tiny_grid(), 1).normalized());
        assert_eq!(*artifact, direct, "job artifact differs from direct sweep");
        // The event log terminates: job-accepted first, sweep-finished last.
        let (events, terminal) = core.events_since(id, 0, WAIT).unwrap();
        assert!(terminal);
        assert_eq!(events.first().unwrap().kind(), "job-accepted");
        assert_eq!(events.last().unwrap().kind(), "sweep-finished");
        core.shutdown();
        core.join();
        assert!(core.is_finished());
    }

    #[test]
    fn incremental_baseline_reuses_rows() {
        let core = JobCore::new(4);
        let baseline = Arc::new(run_sweep(&tiny_grid(), 1));
        let id = core
            .submit(JobSpec::grid(tiny_grid()).threads(1).baseline(Arc::clone(&baseline)))
            .unwrap();
        assert_eq!(core.wait_terminal(id, WAIT), Some(JobState::Done));
        let status = core.status(id).unwrap();
        assert_eq!(status.reused, 1, "unchanged row should be reused");
        assert_eq!(
            core.result(id).unwrap().normalized(),
            baseline.normalized()
        );
        core.shutdown();
        core.join();
    }

    #[test]
    fn admission_control_is_fifo_and_bounded() {
        let core = JobCore::new_inert(2);
        let a = core.submit(JobSpec::grid(tiny_grid())).unwrap();
        let b = core.submit(JobSpec::grid(tiny_grid())).unwrap();
        assert_eq!((a, b), (1, 2));
        match core.submit(JobSpec::grid(tiny_grid())) {
            Err(SubmitError::QueueFull {
                capacity,
                retry_after_s,
            }) => {
                assert_eq!(capacity, 2);
                assert!(retry_after_s >= 1);
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        // queued_ahead in the acceptance event reflects FIFO position.
        let (events_b, _) = core.events_since(b, 0, Duration::ZERO).unwrap();
        assert_eq!(
            events_b[0],
            ProgressEvent::JobAccepted {
                job: 2,
                scenarios: 1,
                queued_ahead: 1
            }
        );
        // Cancelling a queued job frees its slot.
        assert!(core.cancel(a));
        assert_eq!(core.status(a).unwrap().state, JobState::Cancelled);
        assert!(!core.cancel(a), "cancel is not idempotent-true");
        assert!(core.submit(JobSpec::grid(tiny_grid())).is_ok());
    }

    #[test]
    fn a_job_the_idle_worker_has_yet_to_claim_holds_no_slot() {
        // One may wait while one runs, whether or not the worker has
        // woken up to claim the first by the time the second arrives.
        for _ in 0..20 {
            let core = JobCore::new(1);
            let a = core.submit(JobSpec::grid(tiny_grid()).threads(1));
            let b = core.submit(JobSpec::grid(tiny_grid()).threads(1));
            assert_eq!((a, b), (Ok(1), Ok(2)));
            core.shutdown();
            core.join();
        }
    }

    #[test]
    fn invalid_sources_never_occupy_a_slot() {
        let core = JobCore::new_inert(1);
        let err = core
            .submit(JobSpec::new(GridSource::GridFile(
                "no/such/grid.toml".into(),
            )))
            .unwrap_err();
        match err {
            SubmitError::Invalid(msg) => {
                assert!(
                    msg.starts_with("cannot read grid file no/such/grid.toml:"),
                    "{msg}"
                );
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
        assert_eq!(core.queue_len(), 0);
        assert!(core.submit(JobSpec::grid(tiny_grid())).is_ok());
    }

    #[test]
    fn shutdown_cancels_queued_and_refuses_new() {
        let core = JobCore::new_inert(4);
        let a = core.submit(JobSpec::grid(tiny_grid())).unwrap();
        let b = core.submit(JobSpec::grid(tiny_grid())).unwrap();
        core.shutdown();
        assert_eq!(core.status(a).unwrap().state, JobState::Cancelled);
        assert_eq!(core.status(b).unwrap().state, JobState::Cancelled);
        assert_eq!(
            core.submit(JobSpec::grid(tiny_grid())),
            Err(SubmitError::ShuttingDown)
        );
        assert!(core.is_finished());
        // Terminal jobs report terminal through the event API immediately.
        let (_, terminal) = core.events_since(a, 0, Duration::ZERO).unwrap();
        assert!(terminal);
    }

    #[test]
    fn shutdown_drains_the_running_job() {
        let core = JobCore::new(4);
        let id = core.submit(JobSpec::grid(tiny_grid()).threads(1)).unwrap();
        core.shutdown();
        core.join();
        // The running (or about-to-run) job completed; it was not aborted.
        let state = core.status(id).unwrap().state;
        assert!(
            state == JobState::Done || state == JobState::Cancelled,
            "drained job ended {state:?}"
        );
        if state == JobState::Done {
            let direct = json::to_json_string(&run_sweep(&tiny_grid(), 1).normalized());
            assert_eq!(*core.artifact(id).unwrap(), direct);
        }
        assert!(core.is_finished());
    }

    #[test]
    fn unknown_ids_are_none_everywhere() {
        let core = JobCore::new_inert(1);
        assert!(core.status(0).is_none());
        assert!(core.status(7).is_none());
        assert!(core.wait_terminal(7, Duration::ZERO).is_none());
        assert!(core.events_since(7, 0, Duration::ZERO).is_none());
        assert!(core.artifact(7).is_none());
        assert!(core.result(7).is_none());
        assert!(!core.cancel(7));
    }

    #[test]
    fn scenario_source_runs_a_one_point_grid() {
        let spec = ScenarioSpec {
            workload: "direct2d".into(),
            size: SizeClass::Small,
            np: 2,
            model: ModelSpec::MpichGm,
            tile_size: None,
            variant: crate::spec::Variant::Compare,
        };
        let grid = GridSource::Scenario(Box::new(spec.clone())).resolve().unwrap();
        assert_eq!(grid.expand(), vec![spec]);
    }
}
