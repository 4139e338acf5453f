//! The live run: a real in-process TCP cluster driven through one
//! pipelined [`Session`] by one closed-loop generator thread.
//!
//! Windows are isolated by snapshot diffs of the process-global metrics
//! registry and of `/proc` taken at their edges, so every registry figure
//! is a whole-cluster total for the window.

use std::collections::VecDeque;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use hts_metrics::HistogramSnapshot;
use hts_net::{Cluster, Session};
use hts_types::{ObjectId, RequestId, ServerId};

use crate::trace::{SpanId, Tracer};
use crate::verify::{ReadTicket, Verifier};
use crate::workload::{stamped_value, Op, OpStream, Workload, SERVERS};
use crate::{procfs, METRICS};

/// Traffic before measuring starts (connections settle, the cores'
/// objects and buffers exist).
pub const WARMUP: Duration = Duration::from_millis(500);
const MAIN_CLIENT: u32 = 1;
const PROBE_CLIENT: u32 = 2;
/// The server `write_durable` crashes and restarts. Not the session's
/// preferred server, so the measured traffic never routes around it.
pub const VICTIM: ServerId = ServerId(1);
/// How long the restarted server gets to answer its first read.
pub const RESTART_DEADLINE: Duration = Duration::from_secs(5);
/// Per-attempt reply timeout of the post-restart sessions.
const PROBE_TIMEOUT: Duration = Duration::from_millis(200);
const SPLICE_DEADLINE: Duration = Duration::from_secs(10);
const SPLICE_ALLOWANCE: Duration = Duration::from_millis(200);

/// Registry histograms sampled at window edges.
#[derive(Debug, Clone, Copy)]
pub enum H {
    RingFrames,
    RingBytes,
    RingWrite,
    EventsPerWake,
    WriteTotal,
    WritePrewrite,
    WriteCommit,
    ReadBlock,
    WalAppend,
    WalFsync,
    WalGroup,
}

impl H {
    const ALL: [H; 11] = [
        H::RingFrames,
        H::RingBytes,
        H::RingWrite,
        H::EventsPerWake,
        H::WriteTotal,
        H::WritePrewrite,
        H::WriteCommit,
        H::ReadBlock,
        H::WalAppend,
        H::WalFsync,
        H::WalGroup,
    ];

    /// The registry name the program records this histogram under.
    fn registry_name(self) -> &'static str {
        match self {
            H::RingFrames => "hts_net_ring_batch_frames",
            H::RingBytes => "hts_net_ring_batch_bytes",
            H::RingWrite => "hts_net_ring_write_nanos",
            H::EventsPerWake => "hts_net_reactor_events_per_wake",
            H::WriteTotal => "hts_core_write_total_nanos",
            H::WritePrewrite => "hts_core_write_prewrite_nanos",
            H::WriteCommit => "hts_core_write_commit_nanos",
            H::ReadBlock => "hts_core_read_block_nanos",
            H::WalAppend => "hts_wal_append_nanos",
            H::WalFsync => "hts_wal_fsync_nanos",
            H::WalGroup => "hts_wal_group_commit_records",
        }
    }
}

/// Everything sampled at one window edge.
struct Probe {
    at: Instant,
    cpu_ns: Option<u64>,
    ctx: Option<u64>,
    io_write: Option<u64>,
    wakeups: u64,
    retries: u64,
    hists: Vec<HistogramSnapshot>,
}

impl Probe {
    fn take() -> Probe {
        Probe {
            at: Instant::now(),
            cpu_ns: hts_metrics::process_cpu_nanos(),
            ctx: procfs::task_ctx_switches(),
            io_write: procfs::write_bytes(),
            wakeups: hts_metrics::counter("hts_net_reactor_wakeups_total").get(),
            retries: hts_metrics::counter("hts_session_retries_total").get(),
            hists: H::ALL
                .iter()
                .map(|h| hts_metrics::histogram(h.registry_name()).snapshot())
                .collect(),
        }
    }
}

/// What changed over one window, process-wide.
#[derive(Debug, Clone)]
pub struct Deltas {
    /// Window length.
    pub secs: f64,
    /// Process CPU (user + system).
    pub cpu_ns: Option<u64>,
    /// Context switches over every thread.
    pub ctx: Option<u64>,
    /// Bytes sent to the storage device.
    pub io_write: Option<u64>,
    /// Reactor `epoll_wait` returns.
    pub wakeups: u64,
    /// Session request re-sends.
    pub retries: u64,
    /// Threads alive at the window's end.
    pub threads: Option<usize>,
    hists: Vec<HistogramSnapshot>,
}

impl Deltas {
    fn between(a: &Probe, b: &Probe) -> Deltas {
        let sub = |x: Option<u64>, y: Option<u64>| Some(y?.saturating_sub(x?));
        Deltas {
            secs: b.at.duration_since(a.at).as_secs_f64(),
            cpu_ns: sub(a.cpu_ns, b.cpu_ns),
            ctx: sub(a.ctx, b.ctx),
            io_write: sub(a.io_write, b.io_write),
            wakeups: b.wakeups.saturating_sub(a.wakeups),
            retries: b.retries.saturating_sub(a.retries),
            threads: procfs::thread_count(),
            hists: b
                .hists
                .iter()
                .zip(&a.hists)
                .map(|(b, a)| b.since(a))
                .collect(),
        }
    }

    /// The window's observations of one registry histogram.
    pub fn hist(&self, h: H) -> &HistogramSnapshot {
        &self.hists[h as usize]
    }
}

/// What one window measured.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Registry and `/proc` changes (absent for the unmeasured drain).
    pub deltas: Option<Deltas>,
    /// Writes acknowledged.
    pub writes: u64,
    /// Reads that returned a correct value.
    pub reads: u64,
    /// Ops that errored or got a reply of the wrong kind.
    pub failed: u64,
    /// Reads that failed verification.
    pub violations: u64,
    /// Begin-to-wait-return time of every write, in ns.
    pub write_lat_ns: Vec<u64>,
    /// Begin-to-wait-return time of every read, in ns.
    pub read_lat_ns: Vec<u64>,
    /// Summed time inside `Session::begin_*_from`.
    pub begin_ns: u64,
    /// Summed time inside `Session::wait`.
    pub wait_ns: u64,
}

impl Window {
    /// Ops completed correctly.
    pub fn ops(&self) -> u64 {
        self.writes + self.reads
    }

    /// Ops whose outcome this window saw.
    pub fn attempted(&self) -> u64 {
        self.ops() + self.failed + self.violations
    }

    /// Completed ops per second of window.
    pub fn ops_per_s(&self) -> f64 {
        self.deltas
            .as_ref()
            .map_or(0.0, |d| self.ops() as f64 / d.secs)
    }
}

enum Kind {
    Write(u64),
    Read(ReadTicket),
}

struct Pending {
    request: RequestId,
    op: u64,
    key: u32,
    kind: Kind,
    begun: Instant,
}

/// The closed-loop generator: keeps `window` ops in flight on one
/// session, completes them oldest first, and verifies every reply.
pub struct Driver {
    session: Session,
    workload: Workload,
    stream: OpStream,
    next: Option<Op>,
    /// Whether each key has a write in flight. A write to a busy key waits
    /// for the earlier one, so per-key writes are ordered in real time
    /// (which is what lets [`Verifier`] judge reads by sequence number).
    writing: Vec<bool>,
    in_flight: VecDeque<Pending>,
    next_op: u64,
    /// The run's read/write bookkeeping.
    pub verifier: Verifier,
    /// The first failure or violation seen, for the report.
    pub first_problem: Option<String>,
}

impl Driver {
    fn new(session: Session, workload: Workload, seed: u64) -> Driver {
        Driver {
            session,
            stream: OpStream::new(&workload, seed),
            next: None,
            writing: vec![false; workload.keys as usize],
            in_flight: VecDeque::with_capacity(workload.window),
            next_op: 1,
            verifier: Verifier::new(workload.keys, workload.value_size, 1),
            first_problem: None,
            workload,
        }
    }

    fn note(&mut self, problem: String) {
        self.first_problem.get_or_insert(problem);
    }

    /// Runs the loop for `length`, measuring the window.
    pub fn run_window(
        &mut self,
        length: Duration,
        name: &'static str,
        tracer: &mut Tracer,
    ) -> Window {
        let span = tracer.open(name, 0, 0);
        let mut win = Window::default();
        let start = Probe::take();
        let end = start.at + length;
        loop {
            self.fill(span, tracer, &mut win);
            self.complete_oldest(span, tracer, &mut win);
            if Instant::now() >= end {
                break;
            }
        }
        let stop = Probe::take();
        win.deltas = Some(Deltas::between(&start, &stop));
        tracer.close(span);
        win
    }

    /// Completes every op still in flight.
    pub fn drain(&mut self, tracer: &mut Tracer) -> Window {
        let span = tracer.open("live.drain", 0, 0);
        let mut win = Window::default();
        while !self.in_flight.is_empty() {
            self.complete_oldest(span, tracer, &mut win);
        }
        tracer.close(span);
        win
    }

    fn fill(&mut self, parent: SpanId, tracer: &mut Tracer, win: &mut Window) {
        while self.in_flight.len() < self.workload.window {
            let op = match self.next.take() {
                Some(op) => op,
                None => self.stream.next().expect("op streams are endless"),
            };
            if !op.read && self.writing[op.key as usize] {
                self.next = Some(op);
                self.complete_oldest(parent, tracer, win);
                continue;
            }
            self.issue(op, parent, tracer, win);
        }
    }

    fn issue(&mut self, op: Op, parent: SpanId, tracer: &mut Tracer, win: &mut Window) {
        let id = self.next_op;
        self.next_op += 1;
        let object = ObjectId(op.key);
        let (kind, value) = if op.read {
            (Kind::Read(self.verifier.begin_read(op.key)), None)
        } else {
            let seq = self.verifier.begin_write(op.key);
            let value = stamped_value(op.key, seq, self.workload.value_size);
            (Kind::Write(seq), Some(value))
        };
        let begun = Instant::now();
        let result = match value {
            None => self.session.begin_read_from(object),
            Some(value) => self.session.begin_write_to(object, value),
        };
        let issued = Instant::now();
        tracer.record("session.begin", parent, id, begun, issued);
        win.begin_ns += issued.duration_since(begun).as_nanos() as u64;
        match result {
            Ok(request) => {
                if !op.read {
                    self.writing[op.key as usize] = true;
                }
                self.in_flight.push_back(Pending {
                    request,
                    op: id,
                    key: op.key,
                    kind,
                    begun,
                });
            }
            Err(e) => {
                win.failed += 1;
                self.note(format!("op {id}: begin failed: {e}"));
            }
        }
    }

    fn complete_oldest(&mut self, parent: SpanId, tracer: &mut Tracer, win: &mut Window) {
        let Some(p) = self.in_flight.pop_front() else {
            return;
        };
        let waited = Instant::now();
        let result = self.session.wait(p.request);
        let done = Instant::now();
        tracer.record("session.wait", parent, p.op, waited, done);
        win.wait_ns += done.duration_since(waited).as_nanos() as u64;
        let latency = done.duration_since(p.begun).as_nanos() as u64;
        match p.kind {
            Kind::Write(seq) => {
                self.writing[p.key as usize] = false;
                win.write_lat_ns.push(latency);
                match result {
                    Ok(None) => {
                        self.verifier.ack_write(p.key, seq);
                        win.writes += 1;
                    }
                    Ok(Some(_)) => {
                        win.failed += 1;
                        self.note(format!("op {}: a write was answered with a value", p.op));
                    }
                    Err(e) => {
                        win.failed += 1;
                        self.note(format!("op {}: write failed: {e}", p.op));
                    }
                }
            }
            Kind::Read(ticket) => {
                win.read_lat_ns.push(latency);
                match result {
                    Ok(Some(value)) => {
                        match self.verifier.complete_read(ticket, value.as_bytes()) {
                            Ok(_) => win.reads += 1,
                            Err(v) => {
                                win.violations += 1;
                                self.note(format!("op {}: {v}", p.op));
                            }
                        }
                    }
                    Ok(None) => {
                        win.failed += 1;
                        self.note(format!("op {}: a read was answered without a value", p.op));
                    }
                    Err(e) => {
                        win.failed += 1;
                        self.note(format!("op {}: read failed: {e}", p.op));
                    }
                }
            }
        }
    }
}

/// A primed cluster and the generator bound to it.
pub struct Live {
    /// The cluster under test.
    pub cluster: Cluster,
    /// The generator, its session connected and every key written once.
    pub driver: Driver,
    /// Every set-up's time (launch plus priming), in seconds.
    pub setup_s: Vec<f64>,
    wal_base: PathBuf,
}

fn launch(workload: &Workload, wal_base: &Path) -> io::Result<Cluster> {
    if workload.durable {
        Cluster::launch_durable(SERVERS, workload.effective_config(), wal_base)
    } else {
        Cluster::launch(SERVERS)
    }
}

/// Writes sequence number 1 to every key and waits for all of them.
fn prime(session: &mut Session, workload: &Workload) -> io::Result<()> {
    let mut requests = Vec::with_capacity(workload.keys as usize);
    for key in 0..workload.keys {
        let value = stamped_value(key, 1, workload.value_size);
        requests.push(session.begin_write_to(ObjectId(key), value)?);
    }
    for request in requests {
        session.wait(request)?;
    }
    Ok(())
}

/// Set-ups per trial (launch plus priming, timed); the trial keeps the
/// last cluster.
pub const SETUP_REPS: usize = 3;

/// Launches a cluster logging (if durable) under `run_dir`, primes every
/// key, and returns the generator ready to run. Does so [`SETUP_REPS`]
/// times, shutting the earlier clusters down, to time set-up repeatedly.
pub fn set_up(
    workload: Workload,
    seed: u64,
    run_dir: &Path,
    tracer: &mut Tracer,
) -> io::Result<Live> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let wal_base = run_dir.join(format!("wal-{rep}"));
        let span = tracer.open("setup", 0, 0);
        let t0 = Instant::now();
        let launch_span = tracer.open("cluster.launch", span, 0);
        let cluster = launch(&workload, &wal_base)?;
        tracer.close(launch_span);
        let prime_span = tracer.open("session.prime", span, 0);
        let mut session = Session::connect_preferring(
            MAIN_CLIENT,
            cluster.addrs(),
            ServerId(0),
            workload.window,
        )?;
        prime(&mut session, &workload)?;
        tracer.close(prime_span);
        setup_s.push(t0.elapsed().as_secs_f64());
        tracer.close(span);
        if rep + 1 == SETUP_REPS {
            return Ok(Live {
                cluster,
                driver: Driver::new(session, workload, seed),
                setup_s,
                wal_base,
            });
        }
        drop(session);
        cluster.shutdown();
        let _ = fs::remove_dir_all(&wal_base);
    }
    unreachable!("SETUP_REPS is positive")
}

/// The restart phase of a durable run.
#[derive(Debug, Clone, Default)]
pub struct Restart {
    /// From `Cluster::crash` until a survivor declared the crash.
    pub splice_s: Option<f64>,
    /// From `Cluster::restart` until the restarted server answered a
    /// read; `None` if it did not within [`RESTART_DEADLINE`].
    pub restart_s: Option<f64>,
    /// Keys read back after the restart.
    pub checked: u64,
    /// Keys whose value was not their last acknowledged write (or newer
    /// in-doubt write), or whose read failed.
    pub failed: u64,
}

impl Live {
    /// Crashes [`VICTIM`], restarts it from its log, times its first
    /// answered read, then reads every key (preferring the restarted
    /// server) and requires each key's last acknowledged write.
    pub fn crash_restart_check(&mut self, tracer: &mut Tracer) -> io::Result<Restart> {
        let workload = self.driver.workload;
        let span = tracer.open("cluster.crash", 0, 0);
        let verdicts = hts_metrics::counter("hts_net_crash_verdicts_total");
        let before = verdicts.get();
        let crashed = Instant::now();
        self.cluster.crash(VICTIM)?;
        // Restart only once a survivor has declared the crash (the ring
        // spliced the victim out), as the repository's restart tests do.
        // Without the registry there is no verdict to watch: wait a
        // fixed splice allowance instead.
        let mut out = Restart::default();
        if METRICS {
            while verdicts.get() == before && crashed.elapsed() < SPLICE_DEADLINE {
                std::thread::sleep(Duration::from_millis(1));
            }
            if verdicts.get() != before {
                out.splice_s = Some(crashed.elapsed().as_secs_f64());
            }
        } else {
            std::thread::sleep(SPLICE_ALLOWANCE);
        }
        tracer.close(span);
        let t0 = Instant::now();
        let span = tracer.open("cluster.restart", 0, 0);
        self.cluster.restart(VICTIM)?;
        tracer.close(span);
        // A session that knows only the restarted server: whatever it
        // answers comes from the restarted server itself.
        let addrs = self.cluster.addrs();
        let mut only_victim = Session::connect(PROBE_CLIENT, vec![addrs[VICTIM.index()]], 1)?;
        only_victim.set_timeout(PROBE_TIMEOUT);
        let span = tracer.open("restart.first_read", 0, 0);
        while t0.elapsed() < RESTART_DEADLINE {
            let answered = only_victim
                .begin_read_from(ObjectId(0))
                .and_then(|r| only_victim.wait(r));
            if let Ok(Some(_)) = answered {
                out.restart_s = Some(t0.elapsed().as_secs_f64());
                break;
            }
        }
        tracer.close(span);
        drop(only_victim);

        // Every key's last acknowledged write must survive. Read through
        // a session that prefers the restarted server; should it not
        // serve (yet), each read times out there and moves on to a
        // survivor, so the check still covers the cluster's state.
        let span = tracer.open("verify.durability", 0, 0);
        let keys = workload.keys as usize;
        let mut check = Session::connect_preferring(PROBE_CLIENT + 1, addrs, VICTIM, keys)?;
        check.set_timeout(PROBE_TIMEOUT);
        let mut reads = Vec::with_capacity(keys);
        for key in 0..workload.keys {
            let ticket = self.driver.verifier.begin_read(key);
            reads.push((key, ticket, check.begin_read_from(ObjectId(key))));
        }
        for (key, ticket, begun) in reads {
            out.checked += 1;
            let problem = match begun.and_then(|r| check.wait(r)) {
                Ok(Some(value)) => {
                    match self.driver.verifier.complete_read(ticket, value.as_bytes()) {
                        Ok(_) => None,
                        Err(v) => Some(format!("after restart: {v}")),
                    }
                }
                Ok(None) => Some(format!("after restart: key {key} read without a value")),
                Err(e) => Some(format!("after restart: key {key} read failed: {e}")),
            };
            if let Some(problem) = problem {
                out.failed += 1;
                self.driver.note(problem);
            }
        }
        tracer.close(span);
        Ok(out)
    }

    /// Stops the cluster and removes its logs.
    pub fn shut_down(self, tracer: &mut Tracer) {
        let span = tracer.open("cluster.shutdown", 0, 0);
        drop(self.driver);
        self.cluster.shutdown();
        let _ = fs::remove_dir_all(&self.wal_base);
        tracer.close(span);
    }
}
