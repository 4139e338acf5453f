//! The server state machine of the high-throughput atomic storage
//! algorithm.
//!
//! This is a **sans-io** translation of the paper's server pseudo-code
//! (§3): events come in through the `on_*` methods, client-visible effects
//! come out as [`Action`]s, and ring transmissions are *pulled* by the
//! transport through [`ServerCore::next_frame`] whenever the ring NIC can
//! send — which is where the fairness rule runs. The same core drives the
//! packet-level simulator, the round-model simulator and the real TCP
//! runtime.
//!
//! The protocol in one paragraph: a write is assigned a [`Tag`] greater
//! than everything its coordinator has seen and circulates the ring twice —
//! once as a value-carrying *pre-write* announcing it, once as a (tag-only)
//! *write* notice committing it. Every server caches pre-written values in
//! its [`PendingSet`]; a read is served locally and immediately unless the
//! server knows of a pending pre-write, in which case it waits until a
//! write notice at or above that tag arrives (this is what prevents the
//! read-inversion anomaly). Failure handling splices the ring, retransmits
//! in-flight state, and *adopts* writes orphaned by their coordinator's
//! crash.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use hts_types::{
    ClientId, ObjectId, PreWrite, RequestId, RingFrame, ServerId, Tag, Value, WriteNotice,
};

use crate::{Config, ForwardScheduler, PendingSet, ReadCell, RingView, Selection};

/// A client-visible effect produced by the server core; the transport
/// layer turns these into reply messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Acknowledge a completed write (paper line 50).
    WriteAck {
        /// The register object written.
        object: ObjectId,
        /// The client to reply to.
        client: ClientId,
        /// Its request id.
        request: RequestId,
    },
    /// Answer a read (paper lines 78 and 82).
    ReadReply {
        /// The register object read.
        object: ObjectId,
        /// The client to reply to.
        client: ClientId,
        /// Its request id.
        request: RequestId,
        /// The value read.
        value: Value,
        /// The tag of that value (white-box witness for the
        /// linearizability checker; not sent to clients).
        tag: Tag,
    },
}

/// Cumulative protocol counters (inspected by benchmarks and tests).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Writes this server initiated (its clients' writes + adoptions).
    pub writes_initiated: u64,
    /// Pre-writes forwarded for other origins.
    pub prewrites_forwarded: u64,
    /// Write notices forwarded or emitted.
    pub notices_sent: u64,
    /// Reads answered immediately.
    pub reads_immediate: u64,
    /// Reads that had to wait for a pending write.
    pub reads_blocked: u64,
    /// Duplicate or already-committed ring messages dropped.
    pub duplicates_dropped: u64,
    /// Ring splices performed (successor crashes survived).
    pub recoveries: u64,
    /// Orphaned writes adopted from crashed origins.
    pub adoptions: u64,
    /// Rejoins served as the restarted server's new predecessor (each
    /// re-sends the stored value and pending set, like a splice).
    pub rejoins_served: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    PreWrite,
    Write,
}

#[derive(Debug, Clone)]
struct Outstanding {
    client: Option<(ClientId, RequestId)>,
    phase: Phase,
    /// [`hts_metrics::now_nanos`] when the pre-write was framed (0 with
    /// metrics off — the phase histograms then record nothing).
    begun_at: u64,
    /// When the own pre-write returned and the write phase started; 0
    /// while still in [`Phase::PreWrite`].
    prewrite_done_at: u64,
}

#[derive(Debug, Clone)]
struct WaitingRead {
    client: ClientId,
    request: RequestId,
    /// The read unblocks on the first write notice with tag >= target
    /// (paper line 81).
    target: Tag,
    /// [`hts_metrics::now_nanos`] when the read blocked.
    begun_at: u64,
}

/// The per-object server state machine. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct ServerCore {
    object: ObjectId,
    config: Config,
    ring: RingView,
    stored_tag: Tag,
    stored_value: Value,
    pending: PendingSet,
    sched: ForwardScheduler,
    write_queue: VecDeque<(Option<(ClientId, RequestId)>, Value)>,
    notice_queue: VecDeque<WriteNotice>,
    outstanding: BTreeMap<Tag, Outstanding>,
    /// Orphaned writes this server completes as surrogate origin.
    adopted: BTreeMap<Tag, Value>,
    waiting_reads: Vec<WaitingRead>,
    /// Highest pre-write timestamp seen per origin (duplicate suppression).
    prewrite_seen: HashMap<ServerId, u64>,
    /// Highest write timestamp seen per origin.
    write_seen: HashMap<ServerId, u64>,
    /// Restart resync: while set, reads queue (the restored state may be
    /// behind writes committed during the downtime) and no local writes
    /// are initiated (their tags could be assigned "into the past").
    /// Cleared when the rejoin announcement completes its circulation —
    /// FIFO links guarantee the predecessor's recovery stream arrived
    /// before it — or when this server becomes the lone survivor.
    syncing: bool,
    /// Reads received while syncing, answered at sync completion.
    sync_reads: Vec<(ClientId, RequestId)>,
    /// Commits applied since the last [`drain_commits`](Self::drain_commits)
    /// (populated only under a persistent [`Durability`](crate::Durability)).
    commit_log: Vec<(Tag, Value)>,
    /// The published snapshot cell behind the net layer's lock-free read
    /// fast path (attached by the runtime; `None` in simulators).
    cell: Option<Arc<ReadCell>>,
    /// What the cell currently says — `(stored_tag, blocked)` — so
    /// republishing is a no-op when nothing observable changed.
    published: Option<(Tag, bool)>,
    stats: ServerStats,
}

impl ServerCore {
    /// Creates the state machine of server `me` in a ring of `n`, serving
    /// register `object`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is outside `0..n` (see [`RingView::new`]).
    pub fn new(me: ServerId, n: u16, object: ObjectId, config: Config) -> Self {
        ServerCore {
            object,
            ring: RingView::new(me, n),
            sched: ForwardScheduler::default(),
            config,
            stored_tag: Tag::ZERO,
            stored_value: Value::bottom(),
            pending: PendingSet::new(),
            write_queue: VecDeque::new(),
            notice_queue: VecDeque::new(),
            outstanding: BTreeMap::new(),
            adopted: BTreeMap::new(),
            waiting_reads: Vec::new(),
            prewrite_seen: HashMap::new(),
            write_seen: HashMap::new(),
            syncing: false,
            sync_reads: Vec::new(),
            commit_log: Vec::new(),
            cell: None,
            published: None,
            stats: ServerStats::default(),
        }
    }

    /// This server's id.
    pub fn me(&self) -> ServerId {
        self.ring.me()
    }

    /// The register object this core serves.
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// The currently stored `(tag, value)` pair.
    pub fn stored(&self) -> (Tag, &Value) {
        (self.stored_tag, &self.stored_value)
    }

    /// The ring membership view.
    pub fn ring(&self) -> &RingView {
        &self.ring
    }

    /// The current ring successor (where [`next_frame`](Self::next_frame)
    /// output goes), or `None` when this server is the only survivor.
    pub fn successor(&self) -> Option<ServerId> {
        self.ring.successor()
    }

    /// The pending (pre-written, uncommitted) set.
    pub fn pending(&self) -> &PendingSet {
        &self.pending
    }

    /// Protocol counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Number of reads currently blocked on a pending write.
    pub fn waiting_reads(&self) -> usize {
        self.waiting_reads.len()
    }

    /// Whether anything waits for a ring transmission slot.
    pub fn has_ring_work(&self) -> bool {
        !self.write_queue.is_empty() || self.sched.has_queued() || !self.notice_queue.is_empty()
    }

    /// Whether this core is resyncing after a restart (reads queued,
    /// local writes withheld).
    pub fn is_syncing(&self) -> bool {
        self.syncing
    }

    /// Attaches the published snapshot cell consulted by the transport's
    /// lock-free read fast path; the cell immediately reflects the
    /// core's current state. This core's event loop is the cell's single
    /// writer — do not attach one cell to two cores, and do not clone an
    /// attached core.
    pub fn attach_read_cell(&mut self, cell: Arc<ReadCell>) {
        self.cell = Some(cell);
        self.published = None;
        self.republish();
    }

    /// Re-publishes `(stored_tag, stored_value)` and the read-blocked
    /// bit into the attached cell whenever either changed. The blocked
    /// predicate mirrors [`on_client_read`](Self::on_client_read)'s
    /// immediate-read test (minus the lone-survivor shortcut — the cell
    /// is conservative there, which only costs a fallback hop).
    fn republish(&mut self) {
        let Some(cell) = &self.cell else { return };
        let blocked = self.syncing
            || match self.pending.max_tag() {
                None => false,
                Some(max) => !(self.config.read_fast_path && self.stored_tag >= max),
            };
        if self.published == Some((self.stored_tag, blocked)) {
            return;
        }
        match self.published {
            // Same snapshot, different gate: skip the slot (and the
            // reader drain) — only the flag word moves.
            Some((tag, _)) if tag == self.stored_tag => cell.set_blocked(blocked),
            _ => cell.publish(self.stored_tag, &self.stored_value, blocked),
        }
        self.published = Some((self.stored_tag, blocked));
    }

    /// Enters resync mode after a restart-from-log (no-op when this
    /// server is the only one alive — there is nobody to sync from).
    pub fn begin_sync(&mut self) {
        if self.ring.alive_count() > 1 {
            self.syncing = true;
        }
        self.republish();
    }

    /// Leaves resync mode and answers the reads queued during it
    /// (re-routed through the normal read path, so they still block on
    /// any pending pre-write learned during the sync).
    pub fn finish_sync(&mut self) -> Vec<Action> {
        self.syncing = false;
        let queued = std::mem::take(&mut self.sync_reads);
        let mut actions = Vec::new();
        for (client, request) in queued {
            actions.extend(self.on_client_read(client, request));
        }
        self.republish();
        actions
    }

    /// Restores the stored register from a recovery log (boot-time only:
    /// never emits ring traffic, never logs the restore as a commit).
    /// Duplicate-suppression watermarks advance so stale ring traffic at
    /// or below the restored tag is dropped.
    pub fn restore(&mut self, tag: Tag, value: Value) {
        if tag > self.stored_tag {
            self.stored_tag = tag;
            self.stored_value = value;
        }
        self.note_prewrite_seen(tag);
        self.note_write_seen(tag);
        self.republish();
    }

    /// Takes the commits applied since the last drain (empty unless
    /// [`Config::durability`] is persistent). The runtime appends these
    /// to its log **before** flushing client acks, so `SyncAlways`
    /// really means ack-after-fsync.
    ///
    /// [`Config::durability`]: crate::Config
    pub fn drain_commits(&mut self) -> Vec<(Tag, Value)> {
        std::mem::take(&mut self.commit_log)
    }

    /// Whether recovery retransmissions (value-carrying notices or
    /// recovery pre-writes) still wait in the outbound queues. A rejoin
    /// announcement must not leave before them: its arrival at the
    /// rejoiner certifies, via FIFO links, that the recovery stream
    /// arrived first.
    pub fn has_recovery_backlog(&self) -> bool {
        self.notice_queue.iter().any(|n| n.value.is_some()) || self.sched.has_recovery_queued()
    }

    /// The failure detector (or a rejoin announcement) reports that `s`
    /// restarted and is back in the ring. If `s` is now this server's
    /// successor, this server is the one the rejoiner syncs from: it
    /// re-sends its stored value and every pending pre-write, exactly
    /// like the splice path — everything committed anywhere is either
    /// ≤ our stored tag or still in our pending set, so the FIFO stream
    /// to the rejoiner covers all of it.
    pub fn on_server_rejoined(&mut self, s: ServerId) {
        if s == self.me() {
            return;
        }
        self.ring.mark_rejoined(s);
        if self.ring.successor() == Some(s) {
            self.stats.rejoins_served += 1;
            if self.stored_tag != Tag::ZERO {
                self.notice_queue.push_front(WriteNotice {
                    tag: self.stored_tag,
                    value: Some(self.stored_value.clone()),
                });
            }
            let resend: Vec<PreWrite> = self
                .pending
                .iter()
                .map(|(tag, value)| PreWrite {
                    tag,
                    value: value.clone(),
                    recovery: true,
                })
                .collect();
            self.sched.enqueue_front(resend);
        }
    }

    /// A client asked to write `value` (paper lines 18–20).
    pub fn on_client_write(
        &mut self,
        client: ClientId,
        request: RequestId,
        value: Value,
    ) -> Vec<Action> {
        let actions = self.handle_client_write(client, request, value);
        self.republish();
        actions
    }

    fn handle_client_write(
        &mut self,
        client: ClientId,
        request: RequestId,
        value: Value,
    ) -> Vec<Action> {
        if self.ring.alive_count() == 1 && !self.syncing {
            // Degenerate ring: the full circulation is a no-op. (A lone
            // survivor that is still mid-resync must NOT take this
            // shortcut: its restored tag watermark may be behind tags
            // already committed cluster-wide, and a tag minted from it
            // would order this write into the observed past.)
            let tag = self.next_tag();
            self.apply(tag, value);
            self.stats.writes_initiated += 1;
            return vec![Action::WriteAck {
                object: self.object,
                client,
                request,
            }];
        }
        self.write_queue.push_back((Some((client, request)), value));
        hts_metrics::histogram!("hts_core_write_queue_depth").record(self.write_queue.len() as u64);
        Vec::new()
    }

    /// A client asked to read (paper lines 76–84).
    pub fn on_client_read(&mut self, client: ClientId, request: RequestId) -> Vec<Action> {
        if self.syncing {
            // Restart resync: the restored state may miss writes
            // committed during the downtime; serving now could travel
            // back in time. Queue until the rejoin round trip completes
            // — even as a lone survivor (the missing writes live in the
            // crashed peers' logs; see `on_server_crashed`).
            self.stats.reads_blocked += 1;
            self.sync_reads.push((client, request));
            return Vec::new();
        }
        // A read blocks only on a pending write it must wait out; with
        // none pending (or the fast path satisfied, or no peers left to
        // wait for) it is served immediately.
        let target = self.pending.max_tag().filter(|&max| {
            !(self.config.read_fast_path && self.stored_tag >= max) && self.ring.alive_count() > 1
        });
        let Some(target) = target else {
            self.stats.reads_immediate += 1;
            return vec![Action::ReadReply {
                object: self.object,
                client,
                request,
                value: self.stored_value.clone(),
                tag: self.stored_tag,
            }];
        };
        self.stats.reads_blocked += 1;
        self.waiting_reads.push(WaitingRead {
            client,
            request,
            target,
            begun_at: hts_metrics::now_nanos(),
        });
        Vec::new()
    }

    /// A ring frame arrived from the predecessor.
    ///
    /// # Panics
    ///
    /// Panics if the frame belongs to a different object (routing bug).
    pub fn on_frame(&mut self, frame: RingFrame) -> Vec<Action> {
        assert_eq!(frame.object, self.object, "frame routed to wrong object");
        let mut actions = Vec::new();
        // Commit before announce: a piggybacked frame carries an older
        // write notice next to a newer pre-write.
        if let Some(notice) = frame.write {
            self.process_write_notice(notice, &mut actions);
        }
        if let Some(pw) = frame.pre_write {
            self.process_pre_write(pw, &mut actions);
        }
        self.republish();
        actions
    }

    /// The perfect failure detector reported the crash of `s`.
    pub fn on_server_crashed(&mut self, s: ServerId) -> Vec<Action> {
        let actions = self.handle_server_crashed(s);
        self.republish();
        actions
    }

    fn handle_server_crashed(&mut self, s: ServerId) -> Vec<Action> {
        if s == self.me() || !self.ring.is_alive(s) {
            return Vec::new(); // stale or self-report
        }
        let was_successor = self.ring.successor() == Some(s);
        self.ring.mark_crashed(s);
        let mut actions = Vec::new();

        if self.ring.alive_count() == 1 {
            if self.syncing {
                // A lone survivor that is itself mid-resync must NOT
                // serve: its restored log may miss writes acknowledged
                // while it was down, and those writes still exist in the
                // crashed peers' logs. Linearizability over availability:
                // reads and writes stay queued until a peer rejoins and
                // the resync completes (see the Multi-level rejoin
                // handling), rather than time-traveling clients.
                return actions;
            }
            self.complete_everything_alone(&mut actions);
            return actions;
        }

        if was_successor {
            self.stats.recoveries += 1;
            // Everything forwarded to the dead successor may be lost
            // (paper lines 85–92): re-send the current value and every
            // pending pre-write to the new successor. Recovery pre-writes
            // bypass duplicate suppression so they can complete a full
            // turn even through servers that saw them already.
            if self.stored_tag != Tag::ZERO {
                self.notice_queue.push_front(WriteNotice {
                    tag: self.stored_tag,
                    value: Some(self.stored_value.clone()),
                });
            }
            let resend: Vec<PreWrite> = self
                .pending
                .iter()
                .map(|(tag, value)| PreWrite {
                    tag,
                    value: value.clone(),
                    recovery: true,
                })
                .collect();
            self.sched.enqueue_front(resend);
        }

        if self.ring.is_adopter_of(s) {
            // Writes initiated by the dead server that never committed
            // would block readers forever; as its first alive successor we
            // complete them under their original tags. Exactly one server
            // (the dead origin's first alive successor) adopts, so each
            // orphan is re-circulated once and commits under the tag
            // readers already block on.
            let orphans = self.pending.with_origin(s);
            let mut resend = Vec::new();
            for (tag, value) in orphans {
                self.adopted.insert(tag, value.clone());
                self.stats.adoptions += 1;
                if !was_successor {
                    resend.push(PreWrite {
                        tag,
                        value,
                        recovery: true,
                    });
                }
                // (if `was_successor`, the blanket re-send above already
                // queued a recovery copy.)
            }
            self.sched.enqueue_front(resend);
            // Pre-writes from the dead origin still waiting in our forward
            // queues were seen by no one downstream; adopt them and let
            // their (first) forwarding double as the adoption circulation.
            let queued = self.sched.drain_origin(s);
            if !queued.is_empty() {
                for pw in &queued {
                    self.adopted.insert(pw.tag, pw.value.clone());
                    self.stats.adoptions += 1;
                }
                self.sched.enqueue_front(queued);
            }
        }
        actions
    }

    /// Pulls the next ring frame for the current successor, running the
    /// fairness rule. Returns `None` when nothing needs the slot (or this
    /// server is alone).
    pub fn next_frame(&mut self) -> Option<RingFrame> {
        let frame = self.pull_frame();
        self.republish();
        frame
    }

    fn pull_frame(&mut self) -> Option<RingFrame> {
        self.ring.successor()?;
        loop {
            // While resyncing, hold local initiations: a tag minted from
            // restored (possibly stale) state could order a new write
            // before already-completed ones.
            let want_local = !self.syncing && !self.write_queue.is_empty();
            let me = self.me();
            let mut frame = RingFrame {
                object: self.object,
                pre_write: None,
                write: None,
                rejoin: None,
            };
            match self.sched.select(me, want_local) {
                Some(Selection::InitiateLocal) => {
                    // Offered only when a write is queued (`want_local`);
                    // if that ever drifts, skip the slot instead of
                    // panicking the server.
                    let (client, value) = self.write_queue.pop_front()?;
                    let tag = self.next_tag();
                    self.pending.insert(tag, value.clone());
                    hts_metrics::flight::record(
                        hts_metrics::flight::KIND_OP_BEGIN,
                        client.map_or(0, |(_, r)| r.0),
                        tag.ts,
                        u64::from(tag.origin.0),
                    );
                    self.outstanding.insert(
                        tag,
                        Outstanding {
                            client,
                            phase: Phase::PreWrite,
                            begun_at: hts_metrics::now_nanos(),
                            prewrite_done_at: 0,
                        },
                    );
                    self.note_prewrite_seen(tag);
                    self.sched.record_initiation(me);
                    self.stats.writes_initiated += 1;
                    frame.pre_write = Some(PreWrite {
                        tag,
                        value,
                        recovery: false,
                    });
                }
                Some(Selection::Forward(pw)) => {
                    // Late guard: the tag may have committed while queued.
                    if pw.tag <= self.stored_tag || self.write_seen_ts(pw.tag.origin) >= pw.tag.ts {
                        self.stats.duplicates_dropped += 1;
                        continue;
                    }
                    // Paper line 71: the tag becomes pending at forward
                    // time (with its value cached for the tag-only commit).
                    self.pending.insert(pw.tag, pw.value.clone());
                    self.stats.prewrites_forwarded += 1;
                    frame.pre_write = Some(pw);
                }
                None => {}
            }
            // Piggyback at most one write notice (§4.2 "(2)").
            if let Some(notice) = self.notice_queue.pop_front() {
                self.stats.notices_sent += 1;
                frame.write = Some(notice);
            }
            if frame.is_empty() {
                return None;
            }
            return Some(frame);
        }
    }

    /// Pulls up to `max_frames` frames for the current successor — the
    /// batch scheduler behind [`next_frame`](Self::next_frame). Draining
    /// also stops once the batch's encoded frame bodies reach `max_bytes`
    /// (a soft cap: the frame that crosses the budget is still included,
    /// so a jumbo value can never wedge the ring and the first frame
    /// always goes out). The frames come out in exactly the order
    /// repeated `next_frame` calls would produce them, so coalescing
    /// them into one wire message preserves per-link FIFO.
    pub fn drain_frames(&mut self, max_frames: usize, max_bytes: usize) -> Vec<RingFrame> {
        drain_frames_with(|| self.next_frame(), max_frames, max_bytes)
    }

    fn next_tag(&self) -> Tag {
        let highest = self
            .pending
            .max_tag()
            .map_or(self.stored_tag.ts, |t| t.ts.max(self.stored_tag.ts));
        Tag::new(highest + 1, self.me())
    }

    fn apply(&mut self, tag: Tag, value: Value) {
        if tag > self.stored_tag {
            if self.config.durability.is_persistent() {
                self.commit_log.push((tag, value.clone()));
            }
            self.stored_tag = tag;
            self.stored_value = value;
        }
    }

    fn prewrite_seen_ts(&self, origin: ServerId) -> u64 {
        self.prewrite_seen.get(&origin).copied().unwrap_or(0)
    }

    fn write_seen_ts(&self, origin: ServerId) -> u64 {
        self.write_seen.get(&origin).copied().unwrap_or(0)
    }

    fn note_prewrite_seen(&mut self, tag: Tag) {
        let e = self.prewrite_seen.entry(tag.origin).or_insert(0);
        *e = (*e).max(tag.ts);
    }

    fn note_write_seen(&mut self, tag: Tag) {
        let e = self.write_seen.entry(tag.origin).or_insert(0);
        *e = (*e).max(tag.ts);
    }

    fn process_pre_write(&mut self, pw: PreWrite, actions: &mut Vec<Action>) {
        let tag = pw.tag;

        // Already committed (here or anywhere upstream): never re-pend.
        if tag <= self.stored_tag || self.write_seen_ts(tag.origin) >= tag.ts {
            self.stats.duplicates_dropped += 1;
            return;
        }

        // Surrogate return: an adopted orphan completed its ring turn.
        if self.adopted.remove(&tag).is_some() {
            self.apply(tag, pw.value.clone());
            self.pending.remove(tag);
            self.note_write_seen(tag);
            self.notice_queue.push_back(WriteNotice {
                tag,
                value: Some(pw.value),
            });
            self.check_waiting_reads(tag, actions);
            return;
        }

        if tag.origin == self.me() {
            // Own pre-write returned: every server saw it; start the write
            // phase (paper lines 32–38). "Every server" has one exception:
            // a rejoiner whose recovery copy of this pre-write still waits
            // in our forward queues — then the commit notice must carry
            // the value or it can overtake the copy (see
            // `process_write_notice`).
            match self.outstanding.get_mut(&tag) {
                Some(out) if out.phase == Phase::PreWrite => {
                    out.phase = Phase::Write;
                    out.prewrite_done_at = hts_metrics::now_nanos();
                    hts_metrics::histogram!("hts_core_write_prewrite_nanos")
                        .record(out.prewrite_done_at.saturating_sub(out.begun_at));
                    hts_metrics::flight::record(
                        hts_metrics::flight::KIND_OP_PHASE,
                        out.client.map_or(0, |(_, r)| r.0),
                        tag.ts,
                        u64::from(tag.origin.0),
                    );
                    self.apply(tag, pw.value.clone());
                    self.pending.remove(tag);
                    let value = self.sched.has_recovery_for(tag).then_some(pw.value);
                    self.notice_queue.push_back(WriteNotice { tag, value });
                }
                Some(_) => self.stats.duplicates_dropped += 1,
                None => {
                    // Our own pre-write, but no outstanding entry: it was
                    // issued by a previous incarnation of this server
                    // (crash-restart lost the bookkeeping, and the restart
                    // outran failure detection so nobody adopted it).
                    // It has completed a full circulation — every alive
                    // server holds it pending — so commit it; dropping it
                    // would leave the tag pending ring-wide, blocking
                    // readers until some newer write subsumes it. There is
                    // no client to ack (it died with the old incarnation
                    // and has long since retried elsewhere).
                    self.apply(tag, pw.value.clone());
                    self.pending.remove(tag);
                    self.notice_queue.push_back(WriteNotice {
                        tag,
                        value: Some(pw.value),
                    });
                    self.check_waiting_reads(tag, actions);
                }
            }
            return;
        }

        // Foreign pre-write: suppress duplicates unless it is a recovery
        // re-circulation, which must pass through servers that saw it to
        // reach whoever consumes it — the alive origin, or the adopter of
        // a dead one.
        if !pw.recovery && self.prewrite_seen_ts(tag.origin) >= tag.ts {
            self.stats.duplicates_dropped += 1;
            return;
        }
        self.note_prewrite_seen(tag);

        // If the origin is already known to be dead and we are its
        // designated adopter, claim the orphan now; its forwarding below
        // doubles as the adoption circulation.
        if self.ring.is_adopter_of(tag.origin) {
            self.adopted.insert(tag, pw.value.clone());
            self.stats.adoptions += 1;
        }

        self.sched.enqueue(pw);
    }

    fn process_write_notice(&mut self, notice: WriteNotice, actions: &mut Vec<Action>) {
        let tag = notice.tag;
        let mine = tag.origin == self.me();

        if !mine && self.write_seen_ts(tag.origin) >= tag.ts {
            self.stats.duplicates_dropped += 1;
            return;
        }

        // Resolve the committed value: carried explicitly, from the
        // pending cache filled by the matching pre-write, or from a
        // pre-write still waiting in the forward queues (possible after
        // a splice-and-rejoin, when the commit's recovery circulation
        // bypassed this server; the stale queue entry is dropped later
        // by `next_frame`'s late guard).
        let resolved = notice
            .value
            .clone()
            .or_else(|| self.pending.get(tag).cloned())
            .or_else(|| self.sched.queued_value(tag).cloned());
        match &resolved {
            Some(v) => self.apply(tag, v.clone()),
            None => {
                // Only already-applied tags may lack a cached value —
                // or, at a resyncing rejoiner, commits whose pre-write
                // only its previous incarnation saw (see below).
                debug_assert!(
                    tag <= self.stored_tag || self.syncing,
                    "tag-only write {tag} without a cached pre-write at {me} \
                     (stored {stored}, syncing {syncing}, pending {pending:?}, \
                     write_seen {seen:?})",
                    me = self.me(),
                    stored = self.stored_tag,
                    syncing = self.syncing,
                    pending = self.pending.iter().map(|(t, _)| t).collect::<Vec<_>>(),
                    seen = self.write_seen,
                );
            }
        }
        // A commit this server could not apply must not count as seen.
        // A restart can outrun failure detection: the predecessor never
        // splices the old incarnation out and forwards the new one the
        // commits of pre-writes only the old one saw. The value then
        // arrives in the predecessor's recovery copy of the same commit
        // (same tag, value attached), which the watermark would
        // otherwise drop as a duplicate — leaving the rejoiner serving
        // the older value it restored.
        if tag <= self.stored_tag {
            self.note_write_seen(tag);
        }

        // Subsumption: once `tag` commits, no read can return a lower
        // pre-write any more (its value is ordered before `tag`'s), so no
        // read needs to wait for it.
        self.pending.remove_le(tag);
        self.adopted.retain(|t, _| *t > tag);

        // Acknowledge own writes at or below the committed tag — the exact
        // own-write return (paper line 49) and any of ours it subsumes.
        let first_kept = if tag.origin.0 < u16::MAX {
            Tag::new(tag.ts, ServerId(tag.origin.0 + 1))
        } else {
            Tag::new(tag.ts.saturating_add(1), ServerId(0))
        };
        let still_out = self.outstanding.split_off(&first_kept);
        let acked = std::mem::replace(&mut self.outstanding, still_out);
        for (t, out) in acked {
            debug_assert!(t <= tag);
            let done = hts_metrics::now_nanos();
            if out.prewrite_done_at != 0 {
                hts_metrics::histogram!("hts_core_write_commit_nanos")
                    .record(done.saturating_sub(out.prewrite_done_at));
            }
            hts_metrics::histogram!("hts_core_write_total_nanos")
                .record(done.saturating_sub(out.begun_at));
            hts_metrics::flight::record(
                hts_metrics::flight::KIND_OP_COMPLETE,
                out.client.map_or(0, |(_, r)| r.0),
                t.ts,
                u64::from(t.origin.0),
            );
            if let Some((client, request)) = out.client {
                actions.push(Action::WriteAck {
                    object: self.object,
                    client,
                    request,
                });
            }
        }

        self.check_waiting_reads(tag, actions);

        if !mine {
            // Forward the commit around the ring (tag-only in steady
            // state; keep the explicit value in recovery frames). One
            // extra case must carry the value: while a recovery copy of
            // this tag still waits in our forward queues, the successor
            // is a resyncing rejoiner that has never seen the pre-write —
            // fairness across origins can let this notice overtake the
            // copy, and a tag-only notice would then commit a value the
            // rejoiner cannot resolve.
            let value = if self.sched.has_recovery_for(tag) {
                resolved
            } else {
                notice.value
            };
            self.notice_queue.push_back(WriteNotice { tag, value });
        }
    }

    /// Unblocks reads whose target the committed `tag` satisfies (paper
    /// line 81). Replies carry the *stored* value, not the value of the
    /// unblocking write message as the pseudo-code's line 82 literally
    /// says: writes can overtake each other on the ring, so a notice for
    /// a lower tag may arrive after a higher tag was stored here, and
    /// replying with the message value would then return an older value
    /// than a read that already completed (a read inversion).
    fn check_waiting_reads(&mut self, tag: Tag, actions: &mut Vec<Action>) {
        if self.waiting_reads.is_empty() {
            return;
        }
        let (reply_value, reply_tag) = (self.stored_value.clone(), self.stored_tag);
        let mut still_waiting = Vec::with_capacity(self.waiting_reads.len());
        let object = self.object;
        for wr in self.waiting_reads.drain(..) {
            if wr.target <= tag {
                hts_metrics::histogram!("hts_core_read_block_nanos")
                    .record(hts_metrics::now_nanos().saturating_sub(wr.begun_at));
                actions.push(Action::ReadReply {
                    object,
                    client: wr.client,
                    request: wr.request,
                    value: reply_value.clone(),
                    tag: reply_tag,
                });
            } else {
                still_waiting.push(wr);
            }
        }
        self.waiting_reads = still_waiting;
    }

    /// Last survivor: every circulation is a no-op, so finish all
    /// in-flight work locally.
    fn complete_everything_alone(&mut self, actions: &mut Vec<Action>) {
        // Commit every pending pre-write under its original tag (nothing
        // newer can be overwritten, and readers blocked on them unblock).
        let committed = self.pending.remove_le(Tag {
            ts: u64::MAX,
            origin: ServerId(u16::MAX),
        });
        for (tag, value) in committed {
            self.apply(tag, value);
            self.note_write_seen(tag);
        }
        // Same for pre-writes still waiting in the forward queues and for
        // adopted orphans.
        for origin in self.ring_origins() {
            for pw in self.sched.drain_origin(origin) {
                self.apply(pw.tag, pw.value);
                self.note_write_seen(pw.tag);
            }
        }
        for (tag, value) in std::mem::take(&mut self.adopted) {
            self.apply(tag, value);
            self.note_write_seen(tag);
        }
        // Local writes apply directly now.
        let queued: Vec<_> = self.write_queue.drain(..).collect();
        for (client, value) in queued {
            let tag = self.next_tag();
            self.apply(tag, value);
            self.stats.writes_initiated += 1;
            if let Some((client, request)) = client {
                actions.push(Action::WriteAck {
                    object: self.object,
                    client,
                    request,
                });
            }
        }
        // Outstanding two-phase writes are complete by fiat.
        for (_, out) in std::mem::take(&mut self.outstanding) {
            if let Some((client, request)) = out.client {
                actions.push(Action::WriteAck {
                    object: self.object,
                    client,
                    request,
                });
            }
        }
        self.notice_queue.clear();
        // A lone survivor has nobody to resync from: whatever it has is
        // the authoritative state now.
        self.syncing = false;
        // All blocked reads can be answered from the store.
        let waiting = std::mem::take(&mut self.waiting_reads);
        for wr in waiting {
            actions.push(Action::ReadReply {
                object: self.object,
                client: wr.client,
                request: wr.request,
                value: self.stored_value.clone(),
                tag: self.stored_tag,
            });
        }
        let sync_reads = std::mem::take(&mut self.sync_reads);
        for (client, request) in sync_reads {
            actions.push(Action::ReadReply {
                object: self.object,
                client,
                request,
                value: self.stored_value.clone(),
                tag: self.stored_tag,
            });
        }
    }

    fn ring_origins(&self) -> Vec<ServerId> {
        (0..self.ring.n()).map(ServerId).collect()
    }
}

/// The one frame/byte-capped drain loop behind both
/// [`ServerCore::drain_frames`] and
/// [`MultiObjectServer::drain_frames`](crate::MultiObjectServer::drain_frames):
/// pull frames until `max_frames` (clamped to ≥ 1) or the `max_bytes`
/// soft cap. The first frame is admitted unconditionally — even a zero
/// byte budget must not wedge the ring — and the frame that crosses the
/// budget still ships.
pub(crate) fn drain_frames_with(
    mut pull: impl FnMut() -> Option<RingFrame>,
    max_frames: usize,
    max_bytes: usize,
) -> Vec<RingFrame> {
    let mut frames = Vec::new();
    let mut bytes = 0usize;
    while frames.len() < max_frames.max(1) && (frames.is_empty() || bytes < max_bytes) {
        let Some(frame) = pull() else { break };
        bytes += hts_types::codec::frame_wire_size(&frame);
        frames.push(frame);
    }
    frames
}
