//! The server runtime: one epoll reactor thread per ring lane owns
//! every socket.
//!
//! Each lane is a single readiness-driven loop: client requests,
//! inbound ring frames, outbound write readiness and connect
//! completions all arrive as readiness reports on one `epoll` instance
//! (`hts-poll`). A node therefore runs on exactly `lanes + 1` threads
//! (the `+ 1` is the shared acceptor) regardless of how many clients or
//! peers connect.
//!
//! The ring link coalesces frames into `RingBatch` messages, paces the
//! core by pipeline credit (returned when a
//! staged batch fully drains into the socket), and turns a failed link
//! into a crash verdict only after one retry over a fresh connection.
//!
//! Thread roles:
//!
//! * **acceptor** — owns the listener plus every connection still mid
//!   handshake; a completed hello hands the socket to its lane (ring
//!   streams to the lane the handshake names, clients to their home
//!   lane, `ClientId % lanes`) over an inject channel + eventfd wake.
//! * **lane** — owns its protocol core, WAL, fast-path cells and every
//!   socket routed to it. Cross-lane client traffic travels as
//!   [`Inject`] messages between lanes (requests to the object's lane,
//!   replies back to the socket's home lane).
//!
//! Shutdown is deterministic: `ReactorHandle::stop` flips the shared
//! flag, wakes every thread, and joins them; each lane deregisters and
//! closes every fd it owns before exiting, and the acceptor drops the
//! listener, so the listen port is immediately rebindable.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use crossbeam::channel::{unbounded, Receiver, Sender};
use hts_core::{Action, BatchConfig, LaneMap, MultiObjectServer, ReadCellRegistry};
use hts_poll::{
    connect_nonblocking, read_nb, Event, Events, Interest, Poller, ReadStatus, Token, Waker,
    WriteBuf,
};
use hts_types::codec::Hello;
use hts_types::{ClientId, Message, RingFrame, ServerId, Value};
use hts_wal::{Recovery, Wal};

use crate::framing::{encode_ring_frames, frame_into, MessagePoll, NbMessageReader};
use crate::server::{
    action_into_message, build_core, drain_batch, note_crash_verdict, persist_commits,
    recover_lanes, LaneConfig, ServerConfig, ThreadTally,
};

/// Token 0 is every poller's eventfd waker.
const WAKER_TOKEN: u64 = 0;
/// The acceptor's listener registers under token 1.
const LISTENER_TOKEN: u64 = 1;
/// How long a nonblocking connect may stay in progress before the
/// attempt counts as failed.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
/// Pause between successor connect attempts.
const CONNECT_BACKOFF: Duration = Duration::from_millis(50);
/// Connect attempts for a normal successor link.
const CONNECT_ATTEMPTS: u32 = 40;
/// Connect attempts for the one-fresh-connection retry after a write
/// failure.
const RETRY_ATTEMPTS: u32 = 3;

/// Handle to a running reactor: the shared shutdown flag plus one waker
/// and join handle per thread (lanes, then the acceptor).
pub(crate) struct ReactorHandle {
    shutdown: Arc<AtomicBool>,
    wakers: Vec<Arc<Waker>>,
    handles: Vec<JoinHandle<()>>,
}

impl ReactorHandle {
    /// Signals every thread and waits them out. Safe to call more than
    /// once: joined handles drain on the first call.
    pub(crate) fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for waker in &self.wakers {
            waker.wake();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Spawns the reactor for `config`: binds the listen address, recovers
/// every lane's WAL, and starts `lanes` poller threads plus the
/// acceptor; returns the handle and the bound address. All pollers,
/// wakers and channels are created before any thread spawns, so setup
/// errors abort cleanly — off Linux the first poller already fails
/// with `Unsupported`, before any log is touched.
pub(crate) fn spawn(config: ServerConfig) -> io::Result<(ReactorHandle, SocketAddr)> {
    let lanes = usize::from(config.config.lanes.max(1));
    let shutdown = Arc::new(AtomicBool::new(false));
    let cells: Vec<Arc<ReadCellRegistry>> = (0..lanes)
        .map(|_| Arc::new(ReadCellRegistry::new()))
        .collect();

    let mut plumbing = Vec::with_capacity(lanes);
    for _ in 0..lanes {
        let poller = Poller::new()?;
        let waker = Arc::new(Waker::new(&poller, Token(WAKER_TOKEN))?);
        let (tx, rx) = unbounded::<Inject>();
        plumbing.push((poller, waker, tx, rx));
    }
    let peers: Vec<(Sender<Inject>, Arc<Waker>)> = plumbing
        .iter()
        .map(|(_, waker, tx, _)| (tx.clone(), Arc::clone(waker)))
        .collect();
    let acc_poller = Poller::new()?;
    let acc_waker = Arc::new(Waker::new(&acc_poller, Token(WAKER_TOKEN))?);
    let wal_states = recover_lanes(&config)?;
    let listen = config.addrs[config.id.index()];
    let listener = TcpListener::bind(listen)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    acc_poller.register(
        listener.as_raw_fd(),
        Token(LISTENER_TOKEN),
        Interest::READABLE,
    )?;

    let mut wakers: Vec<Arc<Waker>> = plumbing
        .iter()
        .map(|(_, waker, _, _)| Arc::clone(waker))
        .collect();
    wakers.push(Arc::clone(&acc_waker));

    let mut handles = Vec::with_capacity(lanes + 1);
    for (lane, ((poller, waker, _tx, injects), wal_state)) in
        plumbing.into_iter().zip(wal_states).enumerate()
    {
        let lc = LaneConfig {
            lane: lane as u16,
            id: config.id,
            addrs: config.addrs.clone(),
            config: config.config.clone(),
        };
        let state = Lane::new(
            lc,
            LanePlumbing {
                poller,
                waker,
                injects,
                peers: peers.clone(),
                cells: cells.clone(),
                shutdown: Arc::clone(&shutdown),
            },
            wal_state,
        );
        handles.push(thread::spawn(move || state.run()));
    }
    {
        let acceptor = Acceptor {
            listener,
            poller: acc_poller,
            waker: acc_waker,
            peers,
            shutdown: Arc::clone(&shutdown),
            pending: HashMap::new(),
            next_token: LISTENER_TOKEN + 1,
        };
        handles.push(thread::spawn(move || acceptor.run()));
    }

    Ok((
        ReactorHandle {
            shutdown,
            wakers,
            handles,
        },
        addr,
    ))
}

/// Work handed to a lane thread by the acceptor or a sibling lane.
enum Inject {
    /// A handshaken inbound ring stream from server `s`.
    NewRing(ServerId, TcpStream),
    /// A handshaken client connection this lane will own.
    NewClient(ClientId, TcpStream),
    /// A client connected somewhere: its socket lives on `home` lane
    /// (sent to every *other* lane before the home lane learns of the
    /// socket, so reply routes always exist before requests route).
    ClientUp(ClientId, u16),
    /// A client's connection died; drop its reply route.
    ClientDown(ClientId),
    /// A request from client `c` for one of this lane's objects,
    /// forwarded by the lane that owns the socket.
    FromClient(ClientId, Message),
    /// A reply for client `c`, routed back to the lane owning its
    /// socket.
    Reply(ClientId, Message),
}

/// What kind of connection a poller token identifies.
enum SlotKind {
    Client,
    RingIn,
    RingOut(ServerId),
}

/// Where a client's replies go: a socket on this lane, or a sibling
/// lane that owns the socket.
enum ClientRoute {
    Local(u64),
    Remote(u16),
}

struct ClientConn {
    token: u64,
    stream: TcpStream,
    id: ClientId,
    reader: NbMessageReader,
    out: WriteBuf,
    /// Whether the registration currently includes write interest.
    writing: bool,
}

struct RingInConn {
    stream: TcpStream,
    from: ServerId,
    reader: NbMessageReader,
}

/// Outbound successor link lifecycle. `Waiting` holds no fd (between
/// connect attempts); `Connecting` is a nonblocking connect in flight.
enum OutState {
    Waiting {
        retry_at: Instant,
    },
    Connecting {
        stream: TcpStream,
        deadline: Instant,
    },
    Ready(TcpStream),
}

/// One outbound ring connection. At most one encoded batch is staged
/// in `out` at a time: `unacked` holds its frames until the buffer
/// fully drains (the TxDone-equivalent moment — pipeline credit and
/// strike clearing happen there), `pending` holds frames the pump has
/// claimed from the core but not yet staged.
struct OutConn {
    token: u64,
    peer: ServerId,
    state: OutState,
    pending: VecDeque<RingFrame>,
    unacked: Vec<RingFrame>,
    out: WriteBuf,
    attempts_left: u32,
    /// Whether the registration currently includes write interest.
    writing: bool,
    /// When the currently staged batch was encoded (`now_nanos`; 0 =
    /// none staged). Feeds `hts_net_ring_write_nanos`: the wall time a
    /// batch takes to fully drain into the socket.
    staged_at: u64,
}

/// Which timer on an [`OutConn`] came due.
enum Due {
    Retry,
    ConnectTimeout,
}

/// Everything a lane shares with the rest of the reactor.
struct LanePlumbing {
    poller: Poller,
    waker: Arc<Waker>,
    injects: Receiver<Inject>,
    peers: Vec<(Sender<Inject>, Arc<Waker>)>,
    cells: Vec<Arc<ReadCellRegistry>>,
    shutdown: Arc<AtomicBool>,
}

struct Lane {
    lc: LaneConfig,
    batching: BatchConfig,
    pipeline_cap: usize,
    core: MultiObjectServer,
    wal: Option<Wal>,
    poller: Poller,
    waker: Arc<Waker>,
    injects: Receiver<Inject>,
    peers: Vec<(Sender<Inject>, Arc<Waker>)>,
    map: LaneMap,
    cells: Vec<Arc<ReadCellRegistry>>,
    shutdown: Arc<AtomicBool>,
    next_token: u64,
    slots: HashMap<u64, SlotKind>,
    client_conns: HashMap<u64, ClientConn>,
    clients: HashMap<ClientId, ClientRoute>,
    ring_ins: HashMap<u64, RingInConn>,
    ring_outs: HashMap<ServerId, OutConn>,
    /// The current successor's peer id (its link may be mid-connect).
    active_out: Option<ServerId>,
    /// Frames claimed from the core and not yet fully written (active
    /// link only) — the pipeline pacing counter.
    in_channel: u32,
    /// Peers on their one-fresh-connection second chance.
    retried: HashSet<ServerId>,
    scratch: BytesMut,
    actions: Vec<Action>,
    dirty: Vec<u64>,
}

impl Lane {
    fn new(lc: LaneConfig, plumbing: LanePlumbing, wal_state: Option<(Wal, Recovery)>) -> Lane {
        let n = lc.addrs.len() as u16;
        let lanes = lc.config.lanes.max(1);
        let batching = lc.config.batching.normalized();
        // Frames the lane may hand its staged/pending buffers ahead of
        // drain acknowledgement: one batch on the wire, one queued
        // behind it.
        let pipeline_cap = batching.max_frames.max(1) * 2;
        let cell = Arc::clone(&plumbing.cells[usize::from(lc.lane)]);
        let (core, wal) = build_core(lc.id, n, lc.config.clone(), wal_state, cell);
        Lane {
            lc,
            batching,
            pipeline_cap,
            core,
            wal,
            poller: plumbing.poller,
            waker: plumbing.waker,
            injects: plumbing.injects,
            peers: plumbing.peers,
            map: LaneMap::new(lanes),
            cells: plumbing.cells,
            shutdown: plumbing.shutdown,
            next_token: WAKER_TOKEN + 1,
            slots: HashMap::new(),
            client_conns: HashMap::new(),
            clients: HashMap::new(),
            ring_ins: HashMap::new(),
            ring_outs: HashMap::new(),
            active_out: None,
            in_channel: 0,
            retried: HashSet::new(),
            scratch: BytesMut::new(),
            actions: Vec::new(),
            dirty: Vec::new(),
        }
    }

    fn run(mut self) {
        let _tally = ThreadTally::new();
        let mut events = Events::with_capacity(256);
        // Prime the ring before the first inbound event: a freshly
        // booted server eagerly connects to its successor, and a
        // *restarted* one must push its rejoin announcement without
        // waiting to be spoken to.
        self.pump();
        self.flush_dirty();
        loop {
            let timeout = self.next_timeout();
            if self.poll_ready(&mut events, timeout).is_err() {
                break;
            }
            for ev in events.iter() {
                self.dispatch_event(ev);
            }
            self.drain_injects();
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            self.handle_timers();
            // Group-commit BEFORE replies flush: a client never sees
            // an ack whose write is not on stable storage.
            if !persist_commits(&mut self.core, &mut self.wal, self.lc.id, self.lc.lane) {
                break;
            }
            self.flush_actions();
            self.pump();
            self.flush_dirty();
        }
        self.teardown();
    }

    /// One epoll wait plus its bookkeeping. Hot: alloc-free.
    fn poll_ready(&mut self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        let n = self.poller.wait(events, timeout)?;
        hts_metrics::counter!("hts_net_reactor_wakeups_total").inc();
        hts_metrics::histogram!("hts_net_reactor_events_per_wake").record(n as u64);
        Ok(n)
    }

    /// Routes one readiness report to its connection's handler. Hot:
    /// the dispatch shell itself is alloc-free.
    fn dispatch_event(&mut self, ev: Event) {
        let token = ev.token().0;
        if token == WAKER_TOKEN {
            self.waker.drain();
            return;
        }
        match self.slots.get(&token) {
            Some(SlotKind::Client) => self.on_client_event(token),
            Some(SlotKind::RingIn) => self.on_ring_in_event(token),
            Some(&SlotKind::RingOut(peer)) => self.on_out_event(peer, ev),
            None => {}
        }
    }

    fn teardown(&mut self) {
        // Frames still staged or pending for a successor ship now. Best
        // effort — whatever the socket takes without blocking.
        for (_, mut conn) in std::mem::take(&mut self.ring_outs) {
            let _ = self.resume_write(&mut conn);
            self.drop_out_sockets(&conn);
        }
        for (_, conn) in self.client_conns.drain() {
            self.poller.deregister(conn.stream.as_raw_fd());
        }
        for (_, conn) in self.ring_ins.drain() {
            self.poller.deregister(conn.stream.as_raw_fd());
        }
        self.slots.clear();
    }

    // ---- client connections ------------------------------------------

    fn on_client_event(&mut self, token: u64) {
        let Some(mut conn) = self.client_conns.remove(&token) else {
            return;
        };
        loop {
            match conn.reader.poll(&mut conn.stream) {
                Ok(MessagePoll::Msg(msg)) => self.on_client_msg(&mut conn, msg),
                Ok(MessagePoll::Pending) => break,
                Ok(MessagePoll::Closed) | Err(_) => {
                    self.client_down(token, conn);
                    return;
                }
            }
        }
        // Coalesce the burst's inline replies (fast reads, stats) into
        // one flush; a writable-only event resumes a partial write the
        // same way.
        if self.flush_client(&mut conn).is_err() {
            self.client_down(token, conn);
            return;
        }
        self.client_conns.insert(token, conn);
    }

    fn on_client_msg(&mut self, conn: &mut ClientConn, msg: Message) {
        let c = conn.id;
        match msg {
            // The lock-free read fast path: answer from the object's
            // published snapshot cell without touching the protocol
            // core (the cell is blocked exactly when the core would
            // make the read wait).
            Message::ReadReq { object, request } if self.lc.config.read_fast_path => {
                let lane = usize::from(self.map.lane_of(object));
                if let Some((_, value)) = self.cells[lane].try_read(object) {
                    hts_metrics::counter!("hts_net_read_fastpath_hits_total").inc();
                    self.queue_reply(
                        conn,
                        &Message::ReadAck {
                            object,
                            request,
                            value,
                        },
                    );
                } else {
                    hts_metrics::counter!("hts_net_read_fastpath_fallbacks_total").inc();
                    self.route_request(c, Message::ReadReq { object, request });
                }
            }
            // Answered from the process-wide registry without touching
            // the protocol core: stats are observational and never
            // consume an op slot.
            Message::StatsRequest { request } => {
                let reply = Message::StatsReply {
                    request,
                    text: Value::from(hts_metrics::render().into_bytes()),
                };
                self.queue_reply(conn, &reply);
            }
            Message::WriteReq { .. } | Message::ReadReq { .. } => self.route_request(c, msg),
            // Clients never send replies or ring traffic; drop them by
            // name so a new wire variant forces a decision here.
            Message::WriteAck { .. }
            | Message::ReadAck { .. }
            | Message::StatsReply { .. }
            | Message::Ring(_)
            | Message::RingBatch(_) => {}
        }
    }

    /// Hands a request to its object's lane: this lane's core, or a
    /// sibling via inject.
    fn route_request(&mut self, c: ClientId, msg: Message) {
        let lane = usize::from(self.map.lane_of(msg.object()));
        if lane == usize::from(self.lc.lane) {
            self.on_routed_request(c, msg);
        } else {
            self.send_inject(lane, Inject::FromClient(c, msg));
        }
    }

    fn on_routed_request(&mut self, c: ClientId, msg: Message) {
        let acts = match msg {
            Message::WriteReq {
                object,
                request,
                value,
            } => self.core.on_client_write(object, c, request, value),
            Message::ReadReq { object, request } => self.core.on_client_read(object, c, request),
            // Only requests route here (`on_client_msg` filtered the
            // rest); drop the others by name so a new wire variant
            // forces a decision.
            Message::WriteAck { .. }
            | Message::ReadAck { .. }
            | Message::StatsRequest { .. }
            | Message::StatsReply { .. }
            | Message::Ring(_)
            | Message::RingBatch(_) => return,
        };
        self.actions.extend(acts);
    }

    fn queue_reply(&mut self, conn: &mut ClientConn, msg: &Message) {
        self.scratch.clear();
        frame_into(&mut self.scratch, msg);
        conn.out.push(&self.scratch);
    }

    /// Flushes a client's pending replies and keeps its write interest
    /// in sync (armed only while bytes wait on the socket).
    fn flush_client(&mut self, conn: &mut ClientConn) -> io::Result<()> {
        let drained = conn.out.is_empty() || conn.out.flush(&mut conn.stream)?;
        if !drained && !conn.writing {
            conn.writing = true;
            self.poller
                .reregister(conn.stream.as_raw_fd(), Token(conn.token), Interest::BOTH)
                .ok();
        } else if drained && conn.writing {
            conn.writing = false;
            self.poller
                .reregister(
                    conn.stream.as_raw_fd(),
                    Token(conn.token),
                    Interest::READABLE,
                )
                .ok();
        }
        Ok(())
    }

    fn client_down(&mut self, token: u64, conn: ClientConn) {
        self.poller.deregister(conn.stream.as_raw_fd());
        self.slots.remove(&token);
        if matches!(self.clients.get(&conn.id), Some(ClientRoute::Local(t)) if *t == token) {
            self.clients.remove(&conn.id);
        }
        for lane in 0..self.peers.len() {
            if lane != usize::from(self.lc.lane) {
                self.send_inject(lane, Inject::ClientDown(conn.id));
            }
        }
    }

    // ---- inbound ring connections ------------------------------------

    fn on_ring_in_event(&mut self, token: u64) {
        let Some(mut conn) = self.ring_ins.remove(&token) else {
            return;
        };
        loop {
            match conn.reader.poll(&mut conn.stream) {
                Ok(MessagePoll::Msg(Message::Ring(frame))) => {
                    let acts = self.core.on_frame(frame);
                    self.actions.extend(acts);
                }
                Ok(MessagePoll::Msg(Message::RingBatch(frames))) => {
                    for frame in frames {
                        let acts = self.core.on_frame(frame);
                        self.actions.extend(acts);
                    }
                }
                // Requests, replies and stats never arrive on a ring
                // stream; drop them by name so a new wire variant
                // forces a decision here.
                Ok(MessagePoll::Msg(
                    Message::WriteReq { .. }
                    | Message::ReadReq { .. }
                    | Message::WriteAck { .. }
                    | Message::ReadAck { .. }
                    | Message::StatsRequest { .. }
                    | Message::StatsReply { .. },
                )) => {}
                Ok(MessagePoll::Pending) => break,
                Ok(MessagePoll::Closed) | Err(_) => {
                    self.ring_in_down(token, conn);
                    return;
                }
            }
        }
        self.ring_ins.insert(token, conn);
    }

    fn ring_in_down(&mut self, token: u64, conn: RingInConn) {
        self.poller.deregister(conn.stream.as_raw_fd());
        self.slots.remove(&token);
        let s = conn.from;
        drop(conn);
        // Any connection to the crashed server died with it; a parked
        // entry must not be reused after a rejoin. `active_out` and the
        // pipeline counter are left to `ensure_ring_out`, which resets
        // them once the core's successor moves past `s`.
        if let Some(out) = self.ring_outs.remove(&s) {
            self.drop_out_sockets(&out);
        }
        self.retried.remove(&s);
        note_crash_verdict(self.lc.id, self.lc.lane, s);
        let acts = self.core.on_server_crashed(s);
        self.actions.extend(acts);
    }

    // ---- outbound ring connections -----------------------------------

    fn on_out_event(&mut self, peer: ServerId, ev: Event) {
        let Some(mut conn) = self.ring_outs.remove(&peer) else {
            return;
        };
        if self.drive_out(&mut conn, ev) {
            self.update_out_interest(&mut conn);
            self.ring_outs.insert(peer, conn);
        } else {
            self.fail_out(conn);
        }
    }

    /// Advances one outbound link on a readiness report. Returns
    /// `false` when the link failed (caller runs the strike logic).
    fn drive_out(&mut self, conn: &mut OutConn, ev: Event) -> bool {
        let connect_result = match &mut conn.state {
            // No fd in this state; a stale event for a closed fd.
            OutState::Waiting { .. } => return true,
            OutState::Connecting { stream, .. } => {
                if ev.is_error() {
                    Some(false)
                } else if ev.writable() {
                    // Writable resolves the attempt; SO_ERROR says how.
                    Some(matches!(stream.take_error(), Ok(None)))
                } else {
                    None
                }
            }
            OutState::Ready(_) => None,
        };
        match connect_result {
            Some(true) => self.finish_connect(conn),
            Some(false) => return self.connect_failed(conn),
            None => {}
        }
        if !matches!(conn.state, OutState::Ready(_)) {
            return true;
        }
        // The successor never sends data back on this link: anything
        // readable is EOF or an error — eager failure detection, ahead
        // of the next write.
        if ev.readable() && !self.drain_out_readable(conn) {
            return false;
        }
        if ev.writable() && self.resume_write(conn).is_err() {
            return false;
        }
        true
    }

    /// Resumes the staged batch after write readiness, crediting the
    /// pipeline and clearing the retry strike each time the buffer
    /// fully drains (the TxDone-equivalent moment), then stages the
    /// next batch while the socket keeps accepting. Hot: alloc-free —
    /// staging happens in [`Lane::encode_next`].
    fn resume_write(&mut self, conn: &mut OutConn) -> io::Result<()> {
        loop {
            if conn.out.is_empty() && !self.encode_next(conn) {
                return Ok(());
            }
            let drained = match &mut conn.state {
                OutState::Ready(stream) => conn.out.flush(stream)?,
                _ => return Ok(()),
            };
            if !drained {
                return Ok(());
            }
            if conn.staged_at != 0 {
                hts_metrics::histogram!("hts_net_ring_write_nanos")
                    .record(hts_metrics::now_nanos().saturating_sub(conn.staged_at));
                conn.staged_at = 0;
            }
            self.retried.remove(&conn.peer);
            if self.active_out == Some(conn.peer) {
                self.in_channel = self.in_channel.saturating_sub(conn.unacked.len() as u32);
            }
            conn.unacked.clear();
        }
    }

    /// Stages the next coalesced batch into `conn.out` (one encoded
    /// batch at a time, hello bytes may precede the first). Returns
    /// `false` when nothing was staged.
    fn encode_next(&mut self, conn: &mut OutConn) -> bool {
        if !matches!(conn.state, OutState::Ready(_))
            || !conn.unacked.is_empty()
            || conn.pending.is_empty()
        {
            return false;
        }
        let mut bytes = 0usize;
        drain_batch(
            &mut conn.pending,
            self.batching.max_frames.max(1),
            self.batching.max_bytes,
            &mut bytes,
            &mut conn.unacked,
        );
        hts_metrics::histogram!("hts_net_ring_batch_frames").record(conn.unacked.len() as u64);
        hts_metrics::histogram!("hts_net_ring_batch_bytes").record(bytes as u64);
        encode_ring_frames(&conn.unacked, &mut self.scratch);
        conn.out.push(&self.scratch);
        conn.staged_at = hts_metrics::now_nanos();
        !conn.unacked.is_empty()
    }

    fn drain_out_readable(&mut self, conn: &mut OutConn) -> bool {
        let OutState::Ready(stream) = &mut conn.state else {
            return true;
        };
        let mut sink = [0u8; 512];
        loop {
            match read_nb(stream, &mut sink) {
                Ok(ReadStatus::Data(_)) => {}
                Ok(ReadStatus::WouldBlock) => return true,
                Ok(ReadStatus::Eof) | Err(_) => return false,
            }
        }
    }

    /// Begins (or retries) a nonblocking connect to `conn.peer`.
    /// Returns `false` only once every attempt is spent.
    fn start_connect(&mut self, conn: &mut OutConn) -> bool {
        if conn.attempts_left == 0 {
            return false;
        }
        conn.attempts_left -= 1;
        match connect_nonblocking(self.lc.addrs[conn.peer.index()]) {
            Ok((stream, done)) => {
                stream.set_nodelay(true).ok();
                if self
                    .poller
                    .register(stream.as_raw_fd(), Token(conn.token), Interest::BOTH)
                    .is_err()
                {
                    return self.connect_failed(conn);
                }
                self.slots.insert(conn.token, SlotKind::RingOut(conn.peer));
                if done {
                    // Connected synchronously (the localhost common
                    // case): stage the hello; the level-triggered
                    // EPOLLOUT flushes it on the next wait.
                    conn.state = OutState::Ready(stream);
                    self.push_hello(conn);
                } else {
                    conn.state = OutState::Connecting {
                        stream,
                        deadline: Instant::now() + CONNECT_TIMEOUT,
                    };
                }
                conn.writing = true;
                true
            }
            Err(_) => self.connect_failed(conn),
        }
    }

    /// One connect attempt failed: close its socket (if any) and — with
    /// attempts remaining — back off to `Waiting`. Returns `false` once
    /// attempts are exhausted.
    fn connect_failed(&mut self, conn: &mut OutConn) -> bool {
        if let OutState::Connecting { stream, .. } | OutState::Ready(stream) = &conn.state {
            self.poller.deregister(stream.as_raw_fd());
            self.slots.remove(&conn.token);
        }
        conn.writing = false;
        if conn.attempts_left == 0 {
            conn.state = OutState::Waiting {
                retry_at: Instant::now(),
            };
            return false;
        }
        conn.state = OutState::Waiting {
            retry_at: Instant::now() + CONNECT_BACKOFF,
        };
        true
    }

    /// A nonblocking connect completed: become `Ready` and stage the
    /// lane-tagged handshake. The first full drain of the buffer then
    /// clears any retry strike — the zero-frame-TxDone equivalent: the
    /// link is proven healthy by connect + handshake alone.
    fn finish_connect(&mut self, conn: &mut OutConn) {
        let placeholder = OutState::Waiting {
            retry_at: Instant::now(),
        };
        let OutState::Connecting { stream, .. } = std::mem::replace(&mut conn.state, placeholder)
        else {
            return;
        };
        conn.state = OutState::Ready(stream);
        self.push_hello(conn);
    }

    fn push_hello(&mut self, conn: &mut OutConn) {
        // Lane 0 keeps the legacy handshake (a single-lane cluster
        // speaks the pre-lane wire protocol bit for bit).
        let hello = if self.lc.lane == 0 {
            Hello::Server(self.lc.id)
        } else {
            Hello::ServerLane(self.lc.id, self.lc.lane)
        };
        conn.out.push(&hello.encode());
    }

    /// Keeps write interest armed only while the link has (or is about
    /// to learn whether it has) bytes to move.
    fn update_out_interest(&mut self, conn: &mut OutConn) {
        let (fd, want_write) = match &conn.state {
            OutState::Waiting { .. } => return,
            OutState::Connecting { stream, .. } => (stream.as_raw_fd(), true),
            OutState::Ready(stream) => (stream.as_raw_fd(), !conn.out.is_empty()),
        };
        if want_write != conn.writing {
            let interest = if want_write {
                Interest::BOTH
            } else {
                Interest::READABLE
            };
            self.poller.reregister(fd, Token(conn.token), interest).ok();
            conn.writing = want_write;
        }
    }

    fn new_out_conn(&mut self, peer: ServerId, attempts: u32) -> OutConn {
        let token = self.next_token;
        self.next_token += 1;
        OutConn {
            token,
            peer,
            state: OutState::Waiting {
                retry_at: Instant::now(),
            },
            pending: VecDeque::new(),
            unacked: Vec::new(),
            out: WriteBuf::new(),
            attempts_left: attempts,
            writing: false,
            staged_at: 0,
        }
    }

    /// The strike logic: a first failure retries every lost frame over
    /// one fresh connection (a parked link may just predate the peer's
    /// restart); a second failure on that fresh connection is a crash
    /// verdict (the lost frames are covered by the
    /// splice-retransmission in `on_server_crashed`).
    fn fail_out(&mut self, mut conn: OutConn) {
        loop {
            self.drop_out_sockets(&conn);
            conn.state = OutState::Waiting {
                retry_at: Instant::now(),
            };
            let peer = conn.peer;
            let mut lost: VecDeque<RingFrame> = std::mem::take(&mut conn.unacked).into();
            lost.append(&mut conn.pending);
            if self.active_out == Some(peer) {
                self.in_channel = 0;
            }
            if self.retried.insert(peer) {
                let mut fresh = self.new_out_conn(peer, RETRY_ATTEMPTS);
                fresh.pending = lost;
                if self.active_out == Some(peer) {
                    self.in_channel = fresh.pending.len() as u32;
                }
                if self.start_connect(&mut fresh) {
                    self.update_out_interest(&mut fresh);
                    self.ring_outs.insert(peer, fresh);
                    return;
                }
                conn = fresh;
                continue;
            }
            self.retried.remove(&peer);
            note_crash_verdict(self.lc.id, self.lc.lane, peer);
            let acts = self.core.on_server_crashed(peer);
            self.actions.extend(acts);
            return;
        }
    }

    fn drop_out_sockets(&mut self, conn: &OutConn) {
        self.slots.remove(&conn.token);
        match &conn.state {
            OutState::Connecting { stream, .. } | OutState::Ready(stream) => {
                self.poller.deregister(stream.as_raw_fd());
            }
            OutState::Waiting { .. } => {}
        }
    }

    /// Keeps the outbound link tracking the core's successor: parked
    /// links are reactivated with their leftover frames counted against
    /// the pipeline, new successors get a fresh connection.
    fn ensure_ring_out(&mut self) {
        let successor = self.core.successor();
        if self.active_out == successor {
            return;
        }
        self.active_out = None;
        self.in_channel = 0;
        let Some(next) = successor else { return };
        if let Some(conn) = self.ring_outs.get(&next) {
            // Reactivating a parked link: frames from its previous
            // activation may still be queued; count them or the
            // pipeline pacing would over-fill.
            self.in_channel = (conn.pending.len() + conn.unacked.len()) as u32;
        } else {
            let mut conn = self.new_out_conn(next, CONNECT_ATTEMPTS);
            if self.start_connect(&mut conn) {
                self.ring_outs.insert(next, conn);
            } else {
                self.active_out = Some(next);
                self.fail_out(conn);
                return;
            }
        }
        self.active_out = Some(next);
    }

    /// Drains the core's batch scheduler into the active link and kicks
    /// a flush.
    fn pump(&mut self) {
        self.ensure_ring_out();
        let Some(active) = self.active_out else {
            return;
        };
        let Some(mut conn) = self.ring_outs.remove(&active) else {
            return;
        };
        loop {
            while (self.in_channel as usize) < self.pipeline_cap {
                let room = self.pipeline_cap - self.in_channel as usize;
                let frames = self
                    .core
                    .drain_frames(room.min(self.batching.max_frames), self.batching.max_bytes);
                if frames.is_empty() {
                    break;
                }
                self.in_channel += frames.len() as u32;
                conn.pending.extend(frames);
            }
            let capped = self.in_channel as usize >= self.pipeline_cap;
            if self.resume_write(&mut conn).is_err() {
                self.fail_out(conn);
                return;
            }
            // The drain stopped at the cap, so the core may hold more,
            // and the flush just returned credit without waiting for
            // the socket: no fd event will come to pump again. Loop, or
            // a recovery stream longer than the pipeline stalls on an
            // idle ring.
            if !capped || self.in_channel as usize >= self.pipeline_cap {
                break;
            }
        }
        self.update_out_interest(&mut conn);
        self.ring_outs.insert(active, conn);
    }

    // ---- timers ------------------------------------------------------

    fn next_timeout(&self) -> Option<Duration> {
        let mut next: Option<Instant> = None;
        for conn in self.ring_outs.values() {
            let deadline = match &conn.state {
                OutState::Waiting { retry_at } => Some(*retry_at),
                OutState::Connecting { deadline, .. } => Some(*deadline),
                OutState::Ready(_) => None,
            };
            if let Some(deadline) = deadline {
                next = Some(next.map_or(deadline, |cur: Instant| cur.min(deadline)));
            }
        }
        next.map(|deadline| deadline.saturating_duration_since(Instant::now()))
    }

    fn handle_timers(&mut self) {
        if self.ring_outs.is_empty() {
            return;
        }
        let now = Instant::now();
        let mut due: Vec<(ServerId, Due)> = Vec::new();
        for (peer, conn) in &self.ring_outs {
            let fire = match &conn.state {
                OutState::Waiting { retry_at } if *retry_at <= now => Some(Due::Retry),
                OutState::Connecting { deadline, .. } if *deadline <= now => {
                    Some(Due::ConnectTimeout)
                }
                _ => None,
            };
            if let Some(kind) = fire {
                due.push((*peer, kind));
            }
        }
        for (peer, kind) in due {
            let Some(mut conn) = self.ring_outs.remove(&peer) else {
                continue;
            };
            let healthy = match kind {
                Due::Retry => self.start_connect(&mut conn),
                Due::ConnectTimeout => self.connect_failed(&mut conn),
            };
            if healthy {
                self.update_out_interest(&mut conn);
                self.ring_outs.insert(peer, conn);
            } else {
                self.fail_out(conn);
            }
        }
    }

    // ---- injects -----------------------------------------------------

    fn drain_injects(&mut self) {
        while let Ok(inj) = self.injects.try_recv() {
            match inj {
                Inject::NewRing(s, stream) => self.add_ring_in(s, stream),
                Inject::NewClient(c, stream) => self.add_client(c, stream),
                Inject::ClientUp(c, home) => {
                    self.clients.insert(c, ClientRoute::Remote(home));
                }
                Inject::ClientDown(c) => {
                    if matches!(self.clients.get(&c), Some(ClientRoute::Remote(_))) {
                        self.clients.remove(&c);
                    }
                }
                Inject::FromClient(c, msg) => self.on_routed_request(c, msg),
                Inject::Reply(c, msg) => self.deliver_reply(c, msg),
            }
        }
    }

    fn add_client(&mut self, c: ClientId, stream: TcpStream) {
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poller
            .register(stream.as_raw_fd(), Token(token), Interest::READABLE)
            .is_err()
        {
            return;
        }
        self.slots.insert(token, SlotKind::Client);
        self.clients.insert(c, ClientRoute::Local(token));
        self.client_conns.insert(
            token,
            ClientConn {
                token,
                stream,
                id: c,
                reader: NbMessageReader::new(),
                out: WriteBuf::new(),
                writing: false,
            },
        );
        // Level-triggered: any requests already buffered in the socket
        // surface on the next wait.
    }

    fn add_ring_in(&mut self, s: ServerId, stream: TcpStream) {
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poller
            .register(stream.as_raw_fd(), Token(token), Interest::READABLE)
            .is_err()
        {
            return;
        }
        self.slots.insert(token, SlotKind::RingIn);
        self.ring_ins.insert(
            token,
            RingInConn {
                stream,
                from: s,
                reader: NbMessageReader::new(),
            },
        );
    }

    fn deliver_reply(&mut self, c: ClientId, msg: Message) {
        match self.clients.get(&c) {
            Some(&ClientRoute::Local(token)) => {
                let Some(conn) = self.client_conns.get_mut(&token) else {
                    return;
                };
                self.scratch.clear();
                frame_into(&mut self.scratch, &msg);
                conn.out.push(&self.scratch);
                self.dirty.push(token);
            }
            Some(&ClientRoute::Remote(home)) => {
                self.send_inject(usize::from(home), Inject::Reply(c, msg));
            }
            None => {}
        }
    }

    fn flush_actions(&mut self) {
        if self.actions.is_empty() {
            return;
        }
        let actions = std::mem::take(&mut self.actions);
        for action in actions {
            let (client, msg) = action_into_message(action);
            self.deliver_reply(client, msg);
        }
    }

    fn flush_dirty(&mut self) {
        while let Some(token) = self.dirty.pop() {
            let Some(mut conn) = self.client_conns.remove(&token) else {
                continue;
            };
            if self.flush_client(&mut conn).is_err() {
                self.client_down(token, conn);
                continue;
            }
            self.client_conns.insert(token, conn);
        }
    }

    fn send_inject(&self, lane: usize, inj: Inject) {
        let (tx, waker) = &self.peers[lane];
        if tx.send(inj).is_ok() {
            waker.wake();
        }
    }
}

// ---- acceptor --------------------------------------------------------

/// A freshly accepted connection still reading its hello bytes.
struct PendingConn {
    stream: TcpStream,
    buf: [u8; 5],
    filled: usize,
}

/// The shared acceptor: accepts, reads each connection's handshake
/// incrementally (never blocking on a slow or half-open peer), and
/// hands the socket to its lane.
struct Acceptor {
    listener: TcpListener,
    poller: Poller,
    waker: Arc<Waker>,
    peers: Vec<(Sender<Inject>, Arc<Waker>)>,
    shutdown: Arc<AtomicBool>,
    pending: HashMap<u64, PendingConn>,
    next_token: u64,
}

impl Acceptor {
    fn run(mut self) {
        let _tally = ThreadTally::new();
        let mut events = Events::with_capacity(64);
        loop {
            if self.poller.wait(&mut events, None).is_err() {
                return;
            }
            for ev in events.iter() {
                match ev.token().0 {
                    WAKER_TOKEN => self.waker.drain(),
                    LISTENER_TOKEN => {
                        if !self.accept_burst() {
                            return;
                        }
                    }
                    token => self.drive_hello(token),
                }
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
        }
    }

    fn accept_burst(&mut self) -> bool {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), Token(token), Interest::READABLE)
                        .is_err()
                    {
                        continue;
                    }
                    self.pending.insert(
                        token,
                        PendingConn {
                            stream,
                            buf: [0; 5],
                            filled: 0,
                        },
                    );
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                    ) =>
                {
                    return true;
                }
                Err(_) => return false,
            }
        }
    }

    /// Advances one pending handshake: hello bytes accumulate across
    /// any number of partial reads (first the role byte, then the 3- or
    /// 5-byte form it implies).
    fn drive_hello(&mut self, token: u64) {
        let Some(mut conn) = self.pending.remove(&token) else {
            return;
        };
        loop {
            let need = if conn.filled == 0 {
                1
            } else {
                match conn.buf[0] {
                    0x01 => 3,
                    0x02 | 0x03 => 5,
                    _ => {
                        // Unknown role: drop the connection.
                        self.poller.deregister(conn.stream.as_raw_fd());
                        return;
                    }
                }
            };
            if conn.filled >= need {
                self.poller.deregister(conn.stream.as_raw_fd());
                if let Ok(hello) = Hello::decode(&conn.buf[..need]) {
                    self.route(hello, conn.stream);
                }
                return;
            }
            match read_nb(&mut conn.stream, &mut conn.buf[conn.filled..need]) {
                Ok(ReadStatus::Data(n)) => conn.filled += n,
                Ok(ReadStatus::WouldBlock) => {
                    self.pending.insert(token, conn);
                    return;
                }
                Ok(ReadStatus::Eof) | Err(_) => {
                    self.poller.deregister(conn.stream.as_raw_fd());
                    return;
                }
            }
        }
    }

    fn route(&mut self, hello: Hello, stream: TcpStream) {
        match hello {
            // Legacy server handshake = lane 0.
            Hello::Server(s) => self.send(0, Inject::NewRing(s, stream)),
            Hello::ServerLane(s, lane) => {
                if usize::from(lane) < self.peers.len() {
                    self.send(usize::from(lane), Inject::NewRing(s, stream));
                }
            }
            Hello::Client(c) => {
                let home = c.0 as usize % self.peers.len();
                // Reply routes first, socket last: every sibling lane
                // knows where client `c` lives before the home lane can
                // read (and forward) a single request, so a forwarded
                // request's reply always finds its way back.
                for lane in 0..self.peers.len() {
                    if lane != home {
                        self.send(lane, Inject::ClientUp(c, home as u16));
                    }
                }
                self.send(home, Inject::NewClient(c, stream));
            }
        }
    }

    fn send(&self, lane: usize, inj: Inject) {
        let (tx, waker) = &self.peers[lane];
        if tx.send(inj).is_ok() {
            waker.wake();
        }
    }
}
