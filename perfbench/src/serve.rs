//! `serve_mixed`: the shot-service daemon (`qpdo_serve::daemon::serve`)
//! in a child process on a real TCP listener with an on-disk journal,
//! one worker, driven by this process with two threads over one
//! pipelined connection.
//!
//! Phase 1 is an open loop at a fixed offered rate: small `bell` jobs,
//! bound by admission and the journal's group commit, interleaved with
//! `ler_surface` compute jobs, bound by execution. Every request is
//! timed from its *scheduled* send time, and the generator's own lag is
//! reported. Phase 2 is a closed loop that keeps `CLOSED_INFLIGHT`
//! (three) larger compute jobs unfinished so the worker never idles,
//! giving the saturated rate of served shots and jobs.
//! Every `done` record is then compared with the in-process result of
//! `qpdo_serve::job::execute` for the same kind, backend and job seed.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use qpdo_bench::framing::write_record;
use qpdo_bench::supervisor::CancelToken;
use qpdo_serve::job::{execute, job_seed, Backend, JobKind, JobSpec};
use qpdo_serve::protocol::{recv_line, send_line, HealthSnapshot, JobState, Request, Response};
use qpdo_serve::wal::{JobOutcome, WalRecord, WriteAheadLog};

use crate::report::{median, mix, ms, p50_p99, peak_rss_mb, setup_s, Report};
use crate::timing::ChunkRates;

/// Offered rate of the open loop, jobs per second. On the two-vCPU Xeon
/// VM the benchmark was written on, a `COMPUTE` job held the worker
/// 7.9–9.2 ms (8.6 ms typical) when served back to back with
/// `PROGRESS_BATCHES` (6.0–6.4 ms of it in-process `execute`; the rest
/// is the dispatch and terminal records the worker waits to see
/// committed) and a bell job 0.9 ms in-process, so 43 pairs per second
/// keep the one worker busy 43 × (8.6 ms + 0.9 ms) = 41% of the time.
/// At 105 jobs/s, half busy, two of about thirty runs there failed the
/// generator-lag check while other tenants loaded the host.
pub const OFFERED_RATE: f64 = 86.0;
/// One compute job in every block of this many; the rest are bell jobs.
/// With two, half the arrivals are bound by admission and group commit
/// and half by execution.
const BLOCK: usize = 2;
const BELL: JobKind = JobKind::Bell { shots: 4 };
/// 2048 shots are 32 batches: long against an ack (about 1 ms) yet
/// short enough for hundreds of completions in a run.
const COMPUTE: JobKind = JobKind::LerSurface {
    d: 5,
    per: 0.08,
    shots: 2048,
};
/// The closed loop's job: the open loop's compute job with 32 times the
/// shots, so that execution, which repeats from run to run, outweighs
/// the records the worker waits to see committed. Their cost swings
/// with the host's disk and scheduler: on the VM the benchmark was
/// written on, a 100-byte fsync took 0.09 ms in a calm hour and 0.4–0.6
/// ms in median, up to 51 ms, in busy ones.
const CLOSED_COMPUTE: JobKind = JobKind::LerSurface {
    d: 5,
    per: 0.08,
    shots: 65_536,
};
/// The daemon journals a progress checkpoint every this many batches:
/// twice in each closed-loop job (1024 batches), never in an open-loop
/// one (32). At the daemon's default of 8, on the same VM, served
/// 16384-shot jobs (about 55 ms of execution) took 93 and 148 ms in two
/// runs, against 62 and 68 ms with a checkpoint every 64 batches in the
/// runs between them.
const PROGRESS_BATCHES: u64 = 512;
/// Share of the run spent in the open loop; the closed loop gets the rest.
const OPEN_SHARE: f64 = 0.4;
/// Median latencies are taken per window of the open loop and the
/// median over windows is reported: a burst of host preemption or disk
/// contention then moves one window, not the run.
const WINDOWS: usize = 4;
/// Compute jobs the closed loop keeps unfinished: enough that the worker
/// always has the next one queued while a finished one is being noticed.
const CLOSED_INFLIGHT: usize = 3;
/// Daemon start-ups per run for `setup_s` besides the measured daemon's
/// own; the median is reported.
const SETUP_REPS: usize = 40;
/// Least time between two progress polls of one job: polling more
/// often takes enough CPU from the one worker on a two-vCPU host to
/// slow the jobs it times.
const POLL_PAUSE: Duration = Duration::from_millis(5);
/// A job not terminal this long after acceptance counts as timed out.
const JOB_TIMEOUT: Duration = Duration::from_secs(20);
/// I/O deadline on every client connection.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Entry point of the daemon child process.
pub fn daemon_main(wal_dir: &Path, seed: u64) -> io::Result<()> {
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0))?;
    println!("listening on {}", listener.local_addr()?);
    let config = qpdo_serve::daemon::DaemonConfig {
        jobs: 1,
        base_seed: seed,
        progress_batches: PROGRESS_BATCHES,
        ..Default::default()
    };
    qpdo_serve::daemon::serve(listener, wal_dir, config).map(|_| ())
}

/// A connection speaking the daemon's wire protocol. Unlike
/// `qpdo_serve::protocol::Client`, it hands frames to the socket through
/// a buffer, one write per flush: the length, CRC and payload written
/// separately on a Nagle socket stall every request on the peer's
/// delayed ACK (about 40 ms), which would hide the daemon's own latency.
struct Client {
    reader: TcpStream,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Client {
            reader: stream.try_clone()?,
            writer: BufWriter::new(stream),
        })
    }

    fn call(&mut self, request: &Request) -> io::Result<Response> {
        send_line(&mut self.writer, &request.encode())?;
        let line = recv_line(&mut self.reader)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "daemon hung up"))?;
        Response::parse(&line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// A running daemon child; dropping it kills and reaps the process.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    /// Starts a daemon on a fresh journal in `dir` and waits until it
    /// answers `health` as accepting. Returns it with the spawn→ready time.
    fn start(dir: &Path, seed: u64) -> io::Result<(Daemon, Duration)> {
        std::fs::create_dir_all(dir)?;
        let t0 = Instant::now();
        let mut child = Command::new(std::env::current_exe()?)
            .arg("daemon")
            .arg("--wal-dir")
            .arg(dir)
            .arg("--seed")
            .arg(seed.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        // Owned before the address is known, so an early return reaps it.
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        daemon.addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| io::Error::other(format!("daemon did not start: {line:?}")))?;
        loop {
            if let Ok(Response::Health(h)) = daemon.client()?.call(&Request::Health) {
                if h.accepting {
                    return Ok((daemon, t0.elapsed()));
                }
            }
            if t0.elapsed() > IO_TIMEOUT {
                return Err(io::Error::other("daemon never became ready"));
            }
            std::thread::sleep(Duration::from_millis(1));
            if let Some(status) = daemon.child.try_wait()? {
                return Err(io::Error::other(format!("daemon exited: {status}")));
            }
        }
    }

    fn client(&self) -> io::Result<Client> {
        Client::connect(self.addr)
    }

    fn health(&self) -> io::Result<HealthSnapshot> {
        match self.client()?.call(&Request::Health)? {
            Response::Health(h) => Ok(*h),
            other => Err(io::Error::other(format!(
                "unexpected health reply {other:?}"
            ))),
        }
    }

    /// Drains the daemon and waits for it to exit.
    fn drain(mut self) -> io::Result<()> {
        let reply = self.client()?.call(&Request::Drain)?;
        if reply != Response::Drained {
            return Err(io::Error::other(format!(
                "unexpected drain reply {reply:?}"
            )));
        }
        let t0 = Instant::now();
        while self.child.try_wait()?.is_none() {
            if t0.elapsed() > IO_TIMEOUT {
                return Err(io::Error::other("daemon did not exit after drain"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One submitted job and what was observed of it.
struct Job {
    spec: JobSpec,
    due: Instant,
    accepted: Option<Instant>,
    first_batch: Option<Instant>,
    terminal: Option<Instant>,
    /// The `done` record, or why the job failed.
    result: Result<String, String>,
    poll_inflight: bool,
    last_poll: Option<Instant>,
    /// Shots the daemon reported done, with when the report arrived.
    shots_seen: Vec<(Instant, u64)>,
}

impl Job {
    fn new(spec: JobSpec, due: Instant) -> Self {
        Job {
            spec,
            due,
            accepted: None,
            first_batch: None,
            terminal: None,
            result: Err("never terminal".to_owned()),
            poll_inflight: false,
            last_poll: None,
            shots_seen: Vec::new(),
        }
    }

    fn fail(&mut self, why: String, now: Instant) {
        self.result = Err(why);
        self.terminal = Some(now);
    }
}

fn is_compute(job: &Job) -> bool {
    job.spec.kind == COMPUTE
}

/// What a request in flight on the connection was, in send order: the
/// daemon answers a connection's requests in the order they arrived.
enum Sent {
    Submit(usize),
    Poll(usize),
}

/// The state the sending and the receiving thread of a phase share.
struct Phase {
    jobs: Vec<Job>,
    /// Requests in flight, with their send instants.
    sent: VecDeque<(Sent, Instant)>,
    sending_done: bool,
    /// With tracing on, each request's send→reply span.
    spans: Option<Vec<Duration>>,
}

/// What one phase observed.
struct PhaseResult {
    jobs: Vec<Job>,
    /// Per submission, how late it was sent after its due time (ms).
    lags: Vec<f64>,
    /// Per request, its send→reply span (traced phases only).
    spans: Vec<Duration>,
}

/// What the sender does next, decided from the phase's jobs.
enum Admit {
    /// Submit this job, due at this instant, now.
    Now(JobSpec, Instant),
    /// Nothing to submit before this instant.
    Later(Instant),
    /// Nothing more to submit.
    Done,
}

/// Applies one reply to the job it answers.
fn apply(job: &mut Job, sent: &Sent, reply: Response, now: Instant) {
    match (sent, reply) {
        (Sent::Submit(_), Response::Accepted(_)) => job.accepted = Some(now),
        (Sent::Submit(_), other) => job.fail(format!("submit answered {}", other.encode()), now),
        (Sent::Poll(_), reply) => {
            job.poll_inflight = false;
            match reply {
                Response::Progress { batches, shots, .. } => {
                    if batches > 0 {
                        job.first_batch.get_or_insert(now);
                    }
                    job.shots_seen.push((now, shots));
                }
                Response::State(_, JobState::Queued | JobState::Running) => {}
                Response::State(_, JobState::Done(record)) => {
                    job.first_batch.get_or_insert(now);
                    job.shots_seen.push((now, job.spec.kind.shot_target()));
                    job.result = Ok(record);
                    job.terminal = Some(now);
                }
                Response::State(_, JobState::Failed(e)) => job.fail(format!("failed: {e}"), now),
                Response::State(_, JobState::Partial(d)) => job.fail(format!("partial: {d}"), now),
                other => job.fail(format!("progress answered {}", other.encode()), now),
            }
        }
    }
}

/// Which accepted, unfinished jobs a phase polls for progress.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Poll {
    /// Every one, to time each job's queue wait.
    Every,
    /// Only the oldest: the one worker runs jobs in arrival order, so no
    /// other can finish first, and the fewer polls take less CPU from it.
    Oldest,
}

/// Runs one phase on a fresh connection. The calling thread submits
/// whatever `admit` releases, on time, and polls every accepted job's
/// progress at most once per `POLL_PAUSE`, without ever waiting for a
/// reply; a second thread reads the replies. The phase ends when
/// `admit` is done and every job is terminal.
fn run_phase(
    daemon: &Daemon,
    trace: bool,
    poll: Poll,
    mut admit: impl FnMut(&[Job], Instant) -> Admit,
) -> io::Result<PhaseResult> {
    let Client {
        mut reader,
        mut writer,
    } = daemon.client()?;
    let shared = Mutex::new(Phase {
        jobs: Vec::new(),
        sent: VecDeque::new(),
        sending_done: false,
        spans: trace.then(Vec::new),
    });
    let wake = Condvar::new();
    let lock = || shared.lock().expect("phase state is never poisoned");
    let mut lags = Vec::new();
    std::thread::scope(|scope| {
        scope.spawn(|| loop {
            {
                let mut st = lock();
                while st.sent.is_empty() && !st.sending_done {
                    st = wake.wait(st).expect("phase state is never poisoned");
                }
                if st.sent.is_empty() {
                    return;
                }
            }
            let reply = recv_line(&mut reader).and_then(|line| {
                let line = line.ok_or_else(|| io::Error::other("daemon hung up"))?;
                Response::parse(&line).map_err(io::Error::other)
            });
            let now = Instant::now();
            let mut st = lock();
            let (sent, at) = st
                .sent
                .pop_front()
                .expect("a reply answers a request in flight");
            if let Some(spans) = st.spans.as_mut() {
                spans.push(now - at);
            }
            match reply {
                Ok(reply) => {
                    let (Sent::Submit(i) | Sent::Poll(i)) = sent;
                    apply(&mut st.jobs[i], &sent, reply, now);
                }
                Err(e) => {
                    // The connection is gone: nothing in flight resolves.
                    for job in st.jobs.iter_mut().filter(|j| j.terminal.is_none()) {
                        job.fail(format!("connection error: {e}"), now);
                    }
                    st.sent.clear();
                    return;
                }
            }
        });
        let result = (|| -> io::Result<()> {
            loop {
                let now = Instant::now();
                let mut st = lock();
                let next = admit(&st.jobs, now);
                let mut requests = Vec::new();
                let mut pause_until = now + POLL_PAUSE;
                match next {
                    Admit::Now(spec, due) => {
                        lags.push(ms(now.saturating_duration_since(due)));
                        let i = st.jobs.len();
                        requests.push(Request::Submit(spec.clone()));
                        st.jobs.push(Job::new(spec, due));
                        st.sent.push_back((Sent::Submit(i), now));
                        pause_until = now;
                    }
                    Admit::Later(at) => pause_until = pause_until.min(at),
                    Admit::Done => {
                        if st.jobs.iter().all(|j| j.terminal.is_some()) {
                            return Ok(());
                        }
                    }
                }
                let mut polling = true;
                for i in 0..st.jobs.len() {
                    let job = &mut st.jobs[i];
                    let Some(accepted) = job.accepted else {
                        continue;
                    };
                    if job.terminal.is_some() {
                        continue;
                    }
                    if now - accepted > JOB_TIMEOUT {
                        job.fail("timed out".to_owned(), now);
                        continue;
                    }
                    if !polling {
                        continue;
                    }
                    polling = poll == Poll::Every;
                    if !job.poll_inflight && job.last_poll.is_none_or(|t| now - t >= POLL_PAUSE) {
                        job.poll_inflight = true;
                        job.last_poll = Some(now);
                        requests.push(Request::Progress(job.spec.id.clone()));
                        st.sent.push_back((Sent::Poll(i), now));
                    }
                }
                drop(st);
                if !requests.is_empty() {
                    wake.notify_all();
                    for request in &requests {
                        write_frame(&mut writer, request)?;
                    }
                    writer.flush()?;
                }
                let now = Instant::now();
                if pause_until > now {
                    std::thread::sleep(pause_until - now);
                }
            }
        })();
        lock().sending_done = true;
        wake.notify_all();
        if let Err(e) = result {
            // A connection error fails every unfinished job; shutting the
            // socket down unblocks the reader, whose read then fails too.
            let _ = writer.get_ref().shutdown(std::net::Shutdown::Both);
            let now = Instant::now();
            for job in lock().jobs.iter_mut().filter(|j| j.terminal.is_none()) {
                job.fail(format!("connection error: {e}"), now);
            }
        }
    });
    let phase = shared.into_inner().expect("phase state is never poisoned");
    Ok(PhaseResult {
        jobs: phase.jobs,
        lags,
        spans: phase.spans.unwrap_or_default(),
    })
}

/// Appends one request frame to the write buffer (flushed by the caller).
fn write_frame(writer: &mut BufWriter<TcpStream>, request: &Request) -> io::Result<()> {
    write_record(writer, request.encode().as_bytes())
}

/// Phase 1: the open loop. `n` jobs at the offered rate, one compute
/// job at a seeded position in every block.
fn open_loop(daemon: &Daemon, seed: u64, seconds: f64) -> io::Result<PhaseResult> {
    let n = ((seconds * OFFERED_RATE) as usize).max(BLOCK);
    let gap = Duration::from_secs_f64(1.0 / OFFERED_RATE);
    let start = Instant::now() + Duration::from_millis(5);
    run_phase(daemon, false, Poll::Every, |jobs, now| {
        let i = jobs.len();
        if i == n {
            return Admit::Done;
        }
        let due = start + gap * i as u32;
        if due > now {
            return Admit::Later(due);
        }
        let block = i / BLOCK;
        let compute = i % BLOCK == (mix(seed, block as u64) % BLOCK as u64) as usize;
        let spec = JobSpec {
            id: format!("open-{i}"),
            deadline_ms: None,
            kind: if compute { COMPUTE } else { BELL },
        };
        Admit::Now(spec, due)
    })
}

/// What the closed loop measured.
struct Closed {
    phase: PhaseResult,
    /// Chunk rates of the shots the daemon reported done.
    shots: ChunkRates,
    /// Jobs completed over the wall time from the first completion to
    /// the last.
    whole_jobs_per_s: f64,
}

impl Closed {
    /// The sustained served job rate: the sustained shot rate over the
    /// shots of one job.
    fn jobs_per_s(&self) -> f64 {
        self.shots.rate() / CLOSED_COMPUTE.shot_target() as f64
    }
}

/// Phase 2: the closed loop. Keeps `CLOSED_INFLIGHT` compute jobs
/// unfinished for `seconds`, polling the running one. The served shots
/// over time, finished jobs' shots plus the running job's progress,
/// give chunk rates as for the sweeps: a chunk is 100 ms of the
/// worker's life, so every cost on its path — execution, the dispatch,
/// progress and terminal records it waits to see committed — is in
/// the chunks it lands in.
fn closed_loop(daemon: &Daemon, prefix: &str, seconds: f64, trace: bool) -> io::Result<Closed> {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let phase = run_phase(daemon, trace, Poll::Oldest, |jobs, now| {
        let unfinished = jobs.iter().filter(|j| j.terminal.is_none()).count();
        if now >= end {
            Admit::Done
        } else if unfinished < CLOSED_INFLIGHT {
            let spec = JobSpec {
                id: format!("{prefix}-{}", jobs.len()),
                deadline_ms: None,
                kind: CLOSED_COMPUTE,
            };
            Admit::Now(spec, now)
        } else {
            Admit::Later(now + POLL_PAUSE)
        }
    })?;
    let mut completions: Vec<Instant> = phase
        .jobs
        .iter()
        .filter(|j| j.result.is_ok())
        .filter_map(|j| j.terminal)
        .filter(|t| *t <= end)
        .collect();
    completions.sort();
    let whole_jobs_per_s = match (completions.first(), completions.last()) {
        (Some(first), Some(last)) if last > first => {
            (completions.len() - 1) as f64 / (*last - *first).as_secs_f64()
        }
        _ => 0.0,
    };
    // Jobs run one at a time in submission order, so the running total
    // only grows.
    let mut served = Vec::new();
    let mut before = 0;
    for job in &phase.jobs {
        served.extend(job.shots_seen.iter().map(|&(t, n)| (t, before + n)));
        before += job.spec.kind.shot_target();
    }
    let mut shots = ChunkRates::new();
    let mut counted = 0;
    for (t, total) in served.into_iter().filter(|(t, _)| *t <= end) {
        shots.items(total.saturating_sub(counted), t);
        counted = counted.max(total);
    }
    Ok(Closed {
        phase,
        shots,
        whole_jobs_per_s,
    })
}

/// The in-process golden record of a job and the time it took.
fn golden(base_seed: u64, spec: &JobSpec) -> (Result<String, String>, Duration) {
    let t0 = Instant::now();
    let result = execute(
        &spec.kind,
        Backend::Packed,
        job_seed(base_seed, &spec.id),
        &CancelToken::new(),
    )
    .map_err(|e| e.to_string());
    (result, t0.elapsed())
}

/// Median µs of one fsync'd `WriteAheadLog::append`, over accept and
/// terminal records of the workload's own sizes.
fn wal_append_us(dir: &Path) -> io::Result<f64> {
    std::fs::create_dir_all(dir)?;
    let (mut wal, _) = WriteAheadLog::open(dir, WriteAheadLog::DEFAULT_MAX_SEGMENT_BYTES)?;
    let mut times = Vec::new();
    for i in 0..100 {
        for (k, (kind, record)) in [(BELL, "1 1 1 1"), (COMPUTE, "2048 180 15000")]
            .into_iter()
            .enumerate()
        {
            let id = format!("wal-{i}-{k}");
            let records = [
                WalRecord::Accept(JobSpec {
                    id: id.clone(),
                    deadline_ms: None,
                    kind,
                }),
                WalRecord::Complete {
                    id,
                    outcome: JobOutcome::Done(record.to_owned()),
                },
            ];
            for r in &records {
                let t0 = Instant::now();
                wal.append(r)?;
                times.push(t0.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    Ok(median(&times))
}

/// The median over windows of each window's median latency, stating
/// the per-window sample counts under `label`.
fn windowed_median(label: &str, windows: &[Vec<f64>]) -> f64 {
    let counts: Vec<usize> = windows.iter().map(Vec::len).collect();
    println!("{label}: {counts:?} samples in {} windows", windows.len());
    let medians: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| median(w))
        .collect();
    median(&medians)
}

pub fn run(seed: u64, seconds: f64, trace: bool, scratch: &Path) -> io::Result<Report> {
    let mut report = Report::new();
    let base_seed = mix(seed, 0x5E_4E);
    let run_dir = RunDir(scratch.join(format!("serve-{}", std::process::id())));
    let dir = |name: &str| -> PathBuf { run_dir.0.join(name) };

    // Set-up repetitions: a daemon started on a fresh journal and
    // drained. They run between the golden checks below, spread over
    // that phase, so the median samples the host over seconds instead
    // of one burst.
    let setup_rep = |rep: usize| -> io::Result<f64> {
        let (daemon, ready) = Daemon::start(&dir(&format!("setup{rep}")), base_seed)?;
        daemon.drain()?;
        Ok(ready.as_secs_f64())
    };
    let (daemon, ready) = Daemon::start(&dir("wal"), base_seed)?;
    let mut setups = vec![ready.as_secs_f64()];

    let PhaseResult {
        jobs: open, lags, ..
    } = open_loop(&daemon, seed, seconds * OPEN_SHARE)?;
    // The daemon keeps every job it has seen, so its memory grows with
    // the jobs served. The open loop's job count is fixed; the closed
    // loop's follows the host's speed, so the peak is read here.
    let rss = peak_rss_mb(&daemon.child.id().to_string());
    let closed_s = seconds * (1.0 - OPEN_SHARE);
    // In a traced run the closed loop runs twice, untraced then traced:
    // the traced half records a span per request.
    let closed = closed_loop(&daemon, "closed", closed_s, false)?;
    let traced_half = if trace {
        Some(closed_loop(&daemon, "traced", closed_s, true)?)
    } else {
        None
    };
    let health = daemon.health()?;
    daemon.drain()?;

    // Correctness: every served record against its in-process golden.
    let mut all: Vec<&Job> = open.iter().chain(&closed.phase.jobs).collect();
    if let Some(traced) = &traced_half {
        all.extend(&traced.phase.jobs);
    }
    let mut failed = 0u64;
    let mut mismatched = 0u64;
    // In-process execution times of the open loop's compute and bell
    // jobs and of the closed loop's jobs.
    let (mut open_exec_ms, mut bell_exec_ms, mut closed_exec_ms) =
        (Vec::new(), Vec::new(), Vec::new());
    let setup_every = (all.len() / SETUP_REPS).max(1);
    for (i, job) in all.iter().enumerate() {
        if i % setup_every == 0 && setups.len() <= SETUP_REPS {
            setups.push(setup_rep(setups.len())?);
        }
        match &job.result {
            Ok(record) => {
                let (golden, took) = golden(base_seed, &job.spec);
                let kind = &job.spec.kind;
                if *kind == COMPUTE {
                    open_exec_ms.push(ms(took));
                } else if *kind == BELL {
                    bell_exec_ms.push(ms(took));
                } else {
                    closed_exec_ms.push(ms(took));
                }
                if golden.as_ref() != Ok(record) {
                    mismatched += 1;
                    failed += 1;
                    eprintln!("{}: served {record:?}, in-process {golden:?}", job.spec.id);
                }
            }
            Err(e) => {
                failed += 1;
                eprintln!("{}: {e}", job.spec.id);
            }
        }
    }
    while setups.len() <= SETUP_REPS {
        setups.push(setup_rep(setups.len())?);
    }
    report.attempted = all.len() as u64;
    report.failed = failed;
    report.check(
        mismatched == 0,
        &format!(
            "{} served records equal their in-process goldens",
            all.len()
        ),
    );

    let gap_ms = 1e3 / OFFERED_RATE;
    let (lag_p50, lag_tail) = p50_p99("loadgen lag", &lags);
    report.check(
        lag_p50 < 1.0 && lag_tail < gap_ms,
        &format!("generator kept the schedule: lag p50 {lag_p50:.3} ms < 1 ms, tail {lag_tail:.3} ms < {gap_ms:.1} ms"),
    );

    let rate = closed.jobs_per_s();
    let shots = &closed.shots;
    println!(
        "closed loop: {} jobs of {} shots completed in {closed_s:.3} s \
         ({:.3} jobs/s from the first completion to the last); {} chunks",
        closed
            .phase
            .jobs
            .iter()
            .filter(|j| j.result.is_ok())
            .count(),
        CLOSED_COMPUTE.shot_target(),
        closed.whole_jobs_per_s,
        shots.chunks()
    );
    println!(
        "served shot chunk rates: p25 {:.0} (reported), p50 {:.0}, p75 {:.0} shots/s",
        shots.quantile(0.25),
        shots.quantile(0.5),
        shots.quantile(0.75)
    );
    let open_exec = median(&open_exec_ms);
    let closed_exec = median(&closed_exec_ms);
    let open_start = open.first().map_or_else(Instant::now, |j| j.due);
    let window = Duration::from_secs_f64(seconds * OPEN_SHARE / WINDOWS as f64);
    let by_window = |latency: &dyn Fn(&Job) -> Option<Duration>| {
        let mut windows = vec![Vec::new(); WINDOWS];
        for job in &open {
            if let Some(l) = latency(job) {
                let w = ((job.due - open_start).as_secs_f64() / window.as_secs_f64()) as usize;
                windows[w.min(WINDOWS - 1)].push(ms(l));
            }
        }
        windows
    };
    let acks: Vec<Vec<f64>> = by_window(&|j| Some(j.accepted? - j.due));
    let terminals: Vec<Vec<f64>> = by_window(&|j| {
        j.result.as_ref().ok()?;
        if is_compute(j) {
            Some(j.terminal? - j.due)
        } else {
            None
        }
    });
    let ack_p50 = windowed_median("ack (submit to accepted, all open-loop jobs)", &acks);
    let term_p50 = windowed_median("terminal (submit to done, compute jobs)", &terminals);
    // Open-loop latencies are per-layer metrics (host preemption and disk
    // bursts move them too much from run to run for a bound); every run
    // prints them here.
    let (_, ack_tail) = p50_p99("ack over the whole open loop", &acks.concat());
    let (_, term_tail) = p50_p99("terminal over the whole open loop", &terminals.concat());
    let computes: Vec<&Job> = open
        .iter()
        .filter(|j| is_compute(j) && j.result.is_ok())
        .collect();
    let queue_wait: Vec<f64> = computes
        .iter()
        .filter_map(|j| Some(ms(j.first_batch? - j.accepted?)))
        .collect();
    let queue_p50 = median(&queue_wait);
    // Worker utilization of the open loop from in-process execution
    // alone; serving adds the records the worker waits to see committed
    // (see `OFFERED_RATE`).
    let bell_exec = median(&bell_exec_ms);
    let served_ms = 1e3 / rate;
    let served_ratio = served_ms / closed_exec;
    let compute_per_ms = OFFERED_RATE / BLOCK as f64 * 1e-3;
    let bell_per_ms = OFFERED_RATE * 1e-3 - compute_per_ms;
    println!(
        "in-process execute: open-loop compute {open_exec:.3} ms, bell {bell_exec:.4} ms, \
         closed-loop compute {closed_exec:.3} ms; served closed-loop job {served_ms:.3} ms \
         ({served_ratio:.3}x); open-loop worker utilization by in-process execution {:.3}",
        compute_per_ms * open_exec + bell_per_ms * bell_exec
    );

    if trace {
        let traced = traced_half
            .as_ref()
            .expect("traced runs have a traced half");
        let traced_rate = traced.jobs_per_s();
        let span_ms: Vec<f64> = traced.phase.spans.iter().map(|d| ms(*d)).collect();
        println!(
            "traced closed loop: {} request spans, median {:.3} ms",
            span_ms.len(),
            median(&span_ms)
        );
        report.metric("serve.wal.append_sync_us", wal_append_us(&dir("walprobe"))?);
        report.metric("serve.ack_p50_ms", ack_p50);
        report.metric("serve.ack_p99_ms", ack_tail);
        report.metric("serve.terminal_p50_ms", term_p50);
        report.metric("serve.terminal_p99_ms", term_tail);
        report.metric("serve.queue_wait_ms", queue_p50);
        report.metric("serve.exec_overhead_ratio", served_ratio);
        report.metric("serve.health.shed", health.shed as f64);
        report.metric("serve.health.batches", health.batches as f64);
        report.metric("serve.health.reroutes", health.reroutes as f64);
        report.metric("loadgen.lag_ms", lag_tail);
        // Share of a compute job's accepted→terminal time explained by
        // its queue wait and its in-process execution cost.
        report.metric(
            "trace.coverage",
            (queue_p50 + open_exec) / (term_p50 - ack_p50).max(1e-9),
        );
        report.metric("trace.overhead_frac", rate / traced_rate - 1.0);
        report.metric("trace.twin_match", f64::from(u8::from(mismatched == 0)));
    } else {
        // Every workload prints every end-to-end metric of BENCHMARK.json:
        // the closed loop's shots, one code-capacity window per shot.
        report.metric("shots_per_s", shots.rate());
        report.metric("windows_per_s", shots.rate());
        report.metric("setup_s", setup_s(&setups));
        report.metric("peak_rss_mb", rss);
        report.metric("serve_jobs_per_s", rate);
    }
    Ok(report)
}

/// This run's journal directories; removed when the run ends, however
/// it ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
