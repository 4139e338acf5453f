//! A pipelined TCP client session: many operations in flight on one
//! socket.
//!
//! [`Session`] is the transport for [`SessionCore`]: a **window** of
//! concurrent operations multiplexed over one connection per server.
//! Replies from every connection pump into one event channel, so
//! completions are matched asynchronously and out of order. A **single
//! poller thread** owns every connection's read half (epoll readiness
//! via `hts-poll` — one thread per session, however many servers it
//! talks to). The writer half runs on the caller thread and
//! **coalesces** back-to-back requests into one buffered write + one
//! flush per burst (a pipeline fill of 64 small requests costs one
//! syscall, not 64). Every request keeps its own deadline and retry
//! budget: a bounded `connect_timeout`, per-attempt deadlines that stale
//! traffic cannot extend, and rotation to the next server believed
//! alive. The sequential [`Client`](crate::Client) is a window-1
//! session.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use hts_core::SessionCore;
use hts_poll::{Events, Interest, Poller, Token, Waker};
use hts_types::{codec::Hello, ClientId, Message, ObjectId, RequestId, ServerId, Value};

use crate::framing::{frame_into, MessagePoll, NbMessageReader};

/// An operation is abandoned after this many full cycles of attempts
/// around the ring (`addrs.len() * RETRY_CYCLES` sends in total).
const RETRY_CYCLES: usize = 8;

/// Coalesced requests flush once this many buffered bytes accumulate
/// (bounds the scratch buffers under a pipeline of large writes).
const SEND_FLUSH_BYTES: usize = 256 * 1024;

enum SessionEvent {
    /// A reply arrived on some connection.
    Reply(Message),
    /// The reader for `server` (connection generation `gen`) died: the
    /// connection is gone. Stale generations are ignored — the session
    /// may long since have reconnected.
    Disconnected(ServerId, u64),
}

/// The session's poller thread: one epoll instance owns every
/// connection's read half.
struct ReaderHub {
    ctl: Sender<HubCtl>,
    waker: Arc<Waker>,
    handle: Option<JoinHandle<()>>,
}

enum HubCtl {
    /// Adopt the read half of a fresh connection to `server` at
    /// connection generation `gen`.
    Add(ServerId, u64, TcpStream),
    Exit,
}

impl ReaderHub {
    /// Spawns the poller thread eagerly — it is the session's only
    /// helper thread and parks in `epoll_wait` until woken.
    ///
    /// # Errors
    ///
    /// Poller or eventfd creation failures; [`io::ErrorKind::Unsupported`]
    /// off Linux.
    fn spawn(events: Sender<SessionEvent>) -> io::Result<ReaderHub> {
        let poller = Poller::new()?;
        let waker = Arc::new(Waker::new(&poller, Token(0))?);
        let (ctl_tx, ctl_rx) = unbounded();
        let hub_waker = Arc::clone(&waker);
        let handle = std::thread::spawn(move || hub_loop(poller, hub_waker, ctl_rx, events));
        Ok(ReaderHub {
            ctl: ctl_tx,
            waker,
            handle: Some(handle),
        })
    }
}

/// The session's shared reader: one epoll loop pumping every
/// connection's replies into the event channel. Token 0 is the waker
/// (control-channel doorbell); each adopted connection gets the next
/// monotone token. A connection that reads EOF or an error is dropped
/// with a [`SessionEvent::Disconnected`] carrying its generation, so
/// the session can tell a live connection's death from a stale one's.
fn hub_loop(
    poller: Poller,
    waker: Arc<Waker>,
    ctl: Receiver<HubCtl>,
    events: Sender<SessionEvent>,
) {
    struct HubConn {
        stream: TcpStream,
        server: ServerId,
        gen: u64,
        reader: NbMessageReader,
    }
    let mut conns: HashMap<u64, HubConn> = HashMap::new();
    let mut next_token: u64 = 1;
    let mut ready = Events::with_capacity(16);
    loop {
        if poller.wait(&mut ready, None).is_err() {
            return;
        }
        for ev in ready.iter() {
            let token = ev.token().0;
            if token == 0 {
                waker.drain();
                continue;
            }
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            let dead = loop {
                match conn.reader.poll(&mut conn.stream) {
                    Ok(MessagePoll::Msg(msg)) => {
                        if events.send(SessionEvent::Reply(msg)).is_err() {
                            return; // session gone
                        }
                    }
                    Ok(MessagePoll::Pending) => break false,
                    Ok(MessagePoll::Closed) | Err(_) => break true,
                }
            };
            if dead {
                if let Some(conn) = conns.remove(&token) {
                    poller.deregister(conn.stream.as_raw_fd());
                    let _ = events.send(SessionEvent::Disconnected(conn.server, conn.gen));
                }
            }
        }
        loop {
            match ctl.try_recv() {
                Ok(HubCtl::Add(server, gen, stream)) => {
                    let token = next_token;
                    next_token += 1;
                    if poller
                        .register(stream.as_raw_fd(), Token(token), Interest::READABLE)
                        .is_err()
                    {
                        let _ = events.send(SessionEvent::Disconnected(server, gen));
                        continue;
                    }
                    conns.insert(
                        token,
                        HubConn {
                            stream,
                            server,
                            gen,
                            reader: NbMessageReader::new(),
                        },
                    );
                }
                Ok(HubCtl::Exit) | Err(TryRecvError::Disconnected) => return,
                Err(TryRecvError::Empty) => break,
            }
        }
    }
}

struct Conn {
    stream: TcpStream,
    /// Encoded-but-unflushed requests (the coalescing writer's buffer).
    outbuf: BytesMut,
    /// Requests encoded in `outbuf`: their retry deadlines arm when the
    /// buffer actually hits the wire, not when they were encoded — a
    /// caller that sits between `begin_*` and `wait` must not make its
    /// own requests look timed out.
    buffered: Vec<RequestId>,
    /// Connection generation, to ignore stale disconnect events.
    gen: u64,
}

/// A pipelined client of a TCP `hts` cluster: up to `window` operations
/// in flight concurrently over one session.
///
/// Operations start with [`begin_write`](Session::begin_write) /
/// [`begin_read`](Session::begin_read) (non-blocking while the window
/// has room, otherwise driving the pipeline until a slot frees) and
/// finish with [`wait`](Session::wait), in any order. Replies complete
/// whichever request they name — the server is free to answer
/// interleaved outstanding requests in any order.
///
/// # Examples
///
/// ```no_run
/// use hts_net::Session;
/// use hts_types::Value;
///
/// # fn main() -> std::io::Result<()> {
/// # let addrs = vec!["127.0.0.1:4000".parse().unwrap()];
/// let mut session = Session::connect(7, addrs, 8)?;
/// let puts: Vec<_> = (0..8)
///     .map(|i| session.begin_write(Value::from_u64(i)))
///     .collect::<Result<_, _>>()?;
/// for put in puts {
///     session.wait(put)?; // completions may arrive out of order
/// }
/// # Ok(())
/// # }
/// ```
pub struct Session {
    core: SessionCore,
    addrs: Vec<SocketAddr>,
    conns: Vec<Option<Conn>>,
    /// Monotone connection-generation counter per server.
    gens: Vec<u64>,
    id: ClientId,
    timeout: Duration,
    events_rx: Receiver<SessionEvent>,
    /// Per-request retry deadline (armed when the request is flushed).
    deadlines: HashMap<RequestId, Instant>,
    /// Finished operations awaiting their `wait` call.
    completed: HashMap<RequestId, io::Result<Option<Value>>>,
    /// Pumps replies off the sockets.
    reader: ReaderHub,
    /// Stats requests issued so far; their ids count *down* from
    /// `u64::MAX` so they never collide with the core's op request ids
    /// (which count up from 1).
    stats_seq: u64,
    /// The stats exchange in progress: its request id, and the reply
    /// text once it lands.
    stats: Option<(RequestId, Option<String>)>,
}

impl Session {
    /// Connects lazily to a cluster at `addrs` (indexed by [`ServerId`]),
    /// admitting up to `window` concurrent operations.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidInput`] if `addrs` is empty or
    /// `window` is zero, and [`io::ErrorKind::Unsupported`] off Linux.
    /// Connections themselves are opened on first use.
    pub fn connect(id: u32, addrs: Vec<SocketAddr>, window: usize) -> io::Result<Session> {
        Session::connect_preferring(id, addrs, ServerId(0), window)
    }

    /// Connects lazily, preferring `preferred` as the first server to
    /// contact (pins load, and lets tests observe one specific server).
    ///
    /// # Errors
    ///
    /// As [`Session::connect`], plus [`io::ErrorKind::InvalidInput`] if
    /// `preferred` is outside the address map.
    pub fn connect_preferring(
        id: u32,
        addrs: Vec<SocketAddr>,
        preferred: ServerId,
        window: usize,
    ) -> io::Result<Session> {
        validate_addrs(&addrs, preferred)?;
        if window == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a session window must admit at least one operation",
            ));
        }
        let n = addrs.len() as u16;
        let id = ClientId(id);
        let (events_tx, events_rx) = unbounded();
        let reader = ReaderHub::spawn(events_tx)?;
        Ok(Session {
            core: SessionCore::new(id, ObjectId::SINGLE, n, preferred, window),
            conns: (0..n).map(|_| None).collect(),
            gens: vec![0; usize::from(n)],
            addrs,
            id,
            timeout: Duration::from_millis(500),
            events_rx,
            deadlines: HashMap::new(),
            completed: HashMap::new(),
            reader,
            stats_seq: 0,
            stats: None,
        })
    }

    /// Sets the per-attempt reply timeout (default 500 ms).
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    /// The session's pipeline window.
    pub fn window(&self) -> usize {
        self.core.window()
    }

    /// Operations currently in flight (begun, not yet completed).
    pub fn in_flight(&self) -> usize {
        self.core.in_flight()
    }

    /// The alive-map the session routes by (test/diagnostic hook): entry
    /// `s` is `false` while server `s` is suspected crashed. Suspicions
    /// recover on successful reconnects and periodic re-probes.
    pub fn believed_alive(&self) -> &[bool] {
        self.core.believed_alive()
    }

    /// Starts a write of the register; returns a handle for
    /// [`wait`](Session::wait). Blocks only while the window is full.
    ///
    /// # Errors
    ///
    /// Fails when every server is unreachable for a full retry cycle
    /// while the session drains a slot.
    pub fn begin_write(&mut self, value: Value) -> io::Result<RequestId> {
        self.begin_write_to(ObjectId::SINGLE, value)
    }

    /// Starts a write of register `object` (multi-register stores).
    ///
    /// # Errors
    ///
    /// As [`Session::begin_write`].
    pub fn begin_write_to(&mut self, object: ObjectId, value: Value) -> io::Result<RequestId> {
        self.admit()?;
        let (request, server, msg) = self.core.begin_write_to(object, value);
        self.dispatch(request, server, &msg)?;
        Ok(request)
    }

    /// Starts a read of the register; returns a handle for
    /// [`wait`](Session::wait).
    ///
    /// # Errors
    ///
    /// As [`Session::begin_write`].
    pub fn begin_read(&mut self) -> io::Result<RequestId> {
        self.begin_read_from(ObjectId::SINGLE)
    }

    /// Starts a read of register `object`.
    ///
    /// # Errors
    ///
    /// As [`Session::begin_write`].
    pub fn begin_read_from(&mut self, object: ObjectId) -> io::Result<RequestId> {
        self.admit()?;
        let (request, server, msg) = self.core.begin_read_from(object);
        self.dispatch(request, server, &msg)?;
        Ok(request)
    }

    /// Blocks until `request` completes; returns `None` for writes and
    /// the value for reads. Handles may be waited in any order —
    /// completions are matched by request id, not arrival order.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::TimedOut`] if the request exhausted its retry
    /// cycle; [`io::ErrorKind::NotFound`] for a handle this session never
    /// issued (or already waited).
    pub fn wait(&mut self, request: RequestId) -> io::Result<Option<Value>> {
        while !self.completed.contains_key(&request) {
            if !self.core.is_inflight(request) {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("{request} is not an outstanding operation of this session"),
                ));
            }
            self.pump(None)?;
        }
        match self.completed.remove(&request) {
            Some(result) => result,
            None => Err(io::Error::other("completion vanished before wait")),
        }
    }

    /// Convenience: writes `value`, blocking until acknowledged (a
    /// one-op pipeline; the sequential [`Client`](crate::Client) API).
    ///
    /// # Errors
    ///
    /// As [`Session::wait`].
    pub fn write(&mut self, value: Value) -> io::Result<()> {
        let request = self.begin_write(value)?;
        self.wait(request).map(|_| ())
    }

    /// Convenience: reads the register, blocking until a server answers.
    ///
    /// # Errors
    ///
    /// As [`Session::wait`].
    pub fn read(&mut self) -> io::Result<Value> {
        let request = self.begin_read()?;
        self.wait(request).and_then(require_read_value)
    }

    /// Waits for every outstanding operation, returning the first error
    /// (after draining the rest).
    ///
    /// # Errors
    ///
    /// As [`Session::wait`].
    pub fn drain(&mut self) -> io::Result<()> {
        // Both the still-in-flight requests and the ones that already
        // finished (or exhausted their retries) without being waited —
        // their results/errors must not be silently dropped or leak.
        let outstanding: Vec<RequestId> = self
            .core
            .inflight_requests()
            .chain(self.completed.keys().copied())
            .collect();
        let mut first_err = None;
        for request in outstanding {
            if let Err(e) = self.wait(request) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Fetches `server`'s live metrics registry as Prometheus-style text
    /// exposition (the server-side [`hts_metrics::render`]; empty when
    /// the server was built with the `metrics` feature off).
    ///
    /// Stats deliberately bypass the retry rotation: the caller asks ONE
    /// server for ITS process-wide registry — a different server
    /// answering would silently report the wrong process. The exchange
    /// runs outside the window, under the ordinary per-attempt timeout,
    /// and keeps driving any operations in flight while it waits.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] for a server outside the address
    /// map; otherwise connect, send and timeout errors against that
    /// specific server.
    pub fn stats(&mut self, server: ServerId) -> io::Result<String> {
        if server.index() >= self.addrs.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "{server} outside the {}-server address map",
                    self.addrs.len()
                ),
            ));
        }
        self.ensure_connection(server)?;
        self.stats_seq += 1;
        let request = RequestId(u64::MAX - self.stats_seq);
        let Some(conn) = self.conns[server.index()].as_mut() else {
            return Err(io::Error::other("connection lost between ensure and send"));
        };
        let gen = conn.gen;
        frame_into(&mut conn.outbuf, &Message::StatsRequest { request });
        self.stats = Some((request, None));
        let deadline = Instant::now() + self.timeout;
        let result = loop {
            if let Some((_, Some(text))) = self.stats.as_mut() {
                break Ok(std::mem::take(text));
            }
            if self.conns[server.index()].as_ref().map(|c| c.gen) != Some(gen) {
                break Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    format!("connection to {server} lost awaiting its stats"),
                ));
            }
            if Instant::now() >= deadline {
                break Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "no stats reply within the timeout",
                ));
            }
            if let Err(e) = self.pump(Some(deadline)) {
                break Err(e);
            }
        };
        self.stats = None;
        result
    }

    /// Makes room for one more operation, driving the pipeline while the
    /// window is full.
    fn admit(&mut self) -> io::Result<()> {
        while !self.core.has_capacity() {
            self.pump(None)?;
        }
        Ok(())
    }

    /// Routes `msg` for `request` towards `server`: ensures a connection
    /// (reporting a successful reconnect as `server` being up) and
    /// encodes into its coalescing buffer. On connection failure the
    /// request — and everything else stranded on that server — is
    /// rerouted immediately.
    fn dispatch(&mut self, request: RequestId, server: ServerId, msg: &Message) -> io::Result<()> {
        // A conservative deadline in case the flush is deferred past the
        // next pump; flushing re-arms it at actual wire time.
        self.deadlines
            .insert(request, Instant::now() + self.timeout);
        match self.ensure_connection(server) {
            Ok(()) => {
                let Some(conn) = self.conns[server.index()].as_mut() else {
                    return self.fail_server(server);
                };
                frame_into(&mut conn.outbuf, msg);
                conn.buffered.push(request);
                if conn.outbuf.len() >= SEND_FLUSH_BYTES {
                    self.flush_server(server)?;
                }
                Ok(())
            }
            Err(_) => self.fail_server(server),
        }
    }

    /// Writes out the coalescing buffer of `server` in one syscall, and
    /// arms the flushed requests' retry deadlines from this instant (the
    /// moment they are actually on the wire).
    fn flush_server(&mut self, server: ServerId) -> io::Result<()> {
        let timeout = self.timeout;
        let Some(conn) = self.conns[server.index()].as_mut() else {
            return Ok(());
        };
        if conn.outbuf.is_empty() {
            return Ok(());
        }
        let (result, flushed) = {
            let Conn {
                stream,
                outbuf,
                buffered,
                ..
            } = conn;
            let result = write_all_waiting(stream, outbuf, timeout);
            outbuf.clear();
            (result, std::mem::take(buffered))
        };
        match result {
            Ok(()) => {
                let deadline = Instant::now() + self.timeout;
                for request in flushed {
                    // Still on this server and unanswered? A completed
                    // request has no deadline to arm; a rerouted one is
                    // owned by its new server's flush.
                    if self.core.server_of(request) == Some(server) {
                        self.deadlines.insert(request, deadline);
                    }
                }
                Ok(())
            }
            // The stranded requests reroute through the failure path.
            Err(_) => self.fail_server(server),
        }
    }

    /// Flushes every dirty connection.
    fn flush_all(&mut self) -> io::Result<()> {
        for i in 0..self.conns.len() {
            self.flush_server(ServerId(i as u16))?;
        }
        Ok(())
    }

    /// One pipeline turn: flush buffered requests, then block for the
    /// next event (reply or disconnect), the earliest retry deadline or
    /// `until`, whichever comes first.
    fn pump(&mut self, until: Option<Instant>) -> io::Result<()> {
        self.flush_all()?;
        let now = Instant::now();
        let next_deadline = self.deadlines.values().copied().chain(until).min();
        let budget = match next_deadline {
            Some(at) => at.saturating_duration_since(now),
            // Nothing in flight: nothing can wake us — the callers
            // (admit/wait) re-check their predicates before pumping.
            None => return Ok(()),
        };
        match self.events_rx.recv_timeout(budget) {
            Ok(event) => self.absorb(event)?,
            Err(RecvTimeoutError::Timeout) => {}
            // Only the poller thread sends; it exits early only when
            // epoll itself fails. Report it rather than panic the caller
            // thread.
            Err(RecvTimeoutError::Disconnected) => {
                return Err(io::Error::other("session poller thread exited"))
            }
        }
        // Drain whatever else already arrived — a burst of replies is
        // absorbed in one turn.
        while let Ok(event) = self.events_rx.try_recv() {
            self.absorb(event)?;
        }
        self.fire_expired()?;
        self.flush_all()
    }

    fn absorb(&mut self, event: SessionEvent) -> io::Result<()> {
        match event {
            SessionEvent::Reply(Message::StatsReply { request, text }) => {
                // Stale stats replies (an earlier call timed out) fall
                // through unmatched.
                if let Some((pending, slot)) = self.stats.as_mut() {
                    if *pending == request {
                        *slot = Some(String::from_utf8_lossy(text.as_bytes()).into_owned());
                    }
                }
                Ok(())
            }
            SessionEvent::Reply(msg) => {
                if let Some(done) = self.core.on_reply(&msg) {
                    self.deadlines.remove(&done.request);
                    self.completed.insert(done.request, Ok(done.value));
                }
                Ok(())
            }
            SessionEvent::Disconnected(server, gen) => {
                if self.gens[server.index()] == gen {
                    self.fail_server(server)?;
                }
                Ok(())
            }
        }
    }

    /// Re-issues every request whose deadline passed, each to its next
    /// server (independently — one slow request never stalls the rest of
    /// the window).
    fn fire_expired(&mut self) -> io::Result<()> {
        let now = Instant::now();
        let expired: Vec<RequestId> = self
            .deadlines
            .iter()
            .filter(|(_, at)| **at <= now)
            .map(|(r, _)| *r)
            .collect();
        for request in expired {
            // Only THIS request rotates: the connection stays up — other
            // requests' replies are still in flight on it, and a late
            // reply to the rotated request remains a valid completion
            // (same request id; the paper's retry rule). A genuinely
            // dead connection is the poller's disconnect event, which
            // reroutes everything at once.
            match self.core.on_timeout(request) {
                Some((server, msg)) => self.retry(request, server, &msg)?,
                None => {
                    self.deadlines.remove(&request);
                }
            }
        }
        Ok(())
    }

    /// The connection to `server` failed: tear it down, mark the server
    /// suspect, and re-dispatch every request stranded on it.
    fn fail_server(&mut self, server: ServerId) -> io::Result<()> {
        self.teardown(server);
        for (request, next, msg) in self.core.on_server_down(server) {
            // A nested failure while re-dispatching an earlier entry of
            // this very loop may already have rerouted (or aborted) this
            // request; re-sending the stale snapshot would target a
            // server known dead and pay a blocking connect for it.
            if self.core.server_of(request) != Some(next) {
                continue;
            }
            self.retry(request, next, &msg)?;
        }
        Ok(())
    }

    /// One rerouted attempt of `request`, under the retry budget of
    /// [`RETRY_CYCLES`] full cycles around the ring (counted by the core
    /// — see [`SessionCore::attempts_of`]). Over budget, the operation
    /// is abandoned and its `wait` reports `TimedOut`.
    fn retry(&mut self, request: RequestId, server: ServerId, msg: &Message) -> io::Result<()> {
        // `attempts` counts re-sends, so this bounds total sends at
        // `addrs.len() * RETRY_CYCLES`.
        let attempts = self.core.attempts_of(request).unwrap_or(0);
        if (attempts as usize) >= self.addrs.len() * RETRY_CYCLES {
            self.core.abort(request);
            self.deadlines.remove(&request);
            self.completed.insert(
                request,
                Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "no server answered after a full retry cycle",
                )),
            );
            return Ok(());
        }
        self.dispatch(request, server, msg)
    }

    /// Closes the connection to `server` (both halves; the poller reads
    /// EOF and reports a stale generation).
    fn teardown(&mut self, server: ServerId) {
        if let Some(conn) = self.conns[server.index()].take() {
            let _ = conn.stream.shutdown(Shutdown::Both);
            self.gens[server.index()] = conn.gen + 1;
        }
    }

    /// (Re)opens the connection to `server`, bounded by the per-attempt
    /// timeout (a SYN-blackholed server costs one attempt, not the OS
    /// connect timeout), and hands the read half to the poller thread.
    /// Success clears any suspicion against `server` — this is how a
    /// restarted server re-earns its place in the routing map.
    fn ensure_connection(&mut self, server: ServerId) -> io::Result<()> {
        if self.conns[server.index()].is_some() {
            return Ok(());
        }
        let stream = TcpStream::connect_timeout(&self.addrs[server.index()], self.timeout)?;
        stream.set_nodelay(true).ok();
        let mut writer = stream.try_clone()?;
        writer.write_all(&Hello::Client(self.id).encode())?;
        let gen = self.gens[server.index()];
        let reader = stream.try_clone()?;
        // O_NONBLOCK lives on the shared file description, so this also
        // makes the writer clone nonblocking — `flush_server` waits out
        // WouldBlock explicitly.
        reader.set_nonblocking(true)?;
        if self
            .reader
            .ctl
            .send(HubCtl::Add(server, gen, reader))
            .is_err()
        {
            return Err(io::Error::other("session poller thread gone"));
        }
        self.reader.waker.wake();
        self.conns[server.index()] = Some(Conn {
            stream: writer,
            outbuf: BytesMut::new(),
            buffered: Vec::new(),
            gen,
        });
        self.core.on_server_up(server);
        Ok(())
    }
}

/// `write_all` over a nonblocking socket: parks in
/// [`hts_poll::wait_fd`] on `WouldBlock` instead of spinning, bounded by
/// `timeout` per stall.
fn write_all_waiting(stream: &mut TcpStream, mut buf: &[u8], timeout: Duration) -> io::Result<()> {
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if !hts_poll::wait_fd(stream.as_raw_fd(), Interest::WRITABLE, Some(timeout))? {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "session send stalled past the reply timeout",
                    ));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

impl Drop for Session {
    fn drop(&mut self) {
        // Close every connection (the poller drops each as it reads
        // EOF), then retire the poller thread itself, deterministically:
        // when drop returns, the session holds no threads and no sockets.
        for i in 0..self.conns.len() {
            self.teardown(ServerId(i as u16));
        }
        let _ = self.reader.ctl.send(HubCtl::Exit);
        self.reader.waker.wake();
        if let Some(handle) = self.reader.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Validates a cluster address map: non-empty, small enough to index by
/// [`ServerId`], and containing `preferred` — so a bad deployment
/// description surfaces as a real connect error instead of a panic deep
/// in a worker thread.
fn validate_addrs(addrs: &[SocketAddr], preferred: ServerId) -> io::Result<()> {
    if addrs.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "need at least one server address",
        ));
    }
    if addrs.len() > usize::from(u16::MAX) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{} servers exceed the u16 ServerId space", addrs.len()),
        ));
    }
    if preferred.index() >= addrs.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{preferred} outside the {}-server address map", addrs.len()),
        ));
    }
    Ok(())
}

/// Unwraps the value of a completed read: the core attaches one to every
/// read completion, so its absence is a protocol bug — reported to the
/// caller, not panicked on the client thread.
pub(crate) fn require_read_value(value: Option<Value>) -> io::Result<Value> {
    value.ok_or_else(|| io::Error::other("read completed without a value"))
}
