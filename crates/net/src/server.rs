//! The TCP server: [`Server`], its deployment description, and the
//! per-lane plumbing the reactor ([`crate::reactor`]) builds on — WAL
//! recovery, core construction, ring batch draining and group commit.
//!
//! A server hosts [`Config::lanes`](hts_core::Config) **parallel ring
//! lanes**: objects are partitioned across lanes by the shared
//! [`LaneMap`](hts_core::LaneMap) placement, and each lane runs on its
//! own epoll thread with its own successor connection (tagged by a
//! lane-aware handshake), its own inbound ring stream and — with
//! persistent durability — its own WAL directory. One node therefore
//! scales across cores instead of funneling every object through a
//! single event loop; `lanes = 1` (the default) is the original
//! single-ring runtime, byte for byte.

use std::collections::VecDeque;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use hts_core::{Action, Config, Durability, MultiObjectServer, ReadCellRegistry};
use hts_types::{codec, ClientId, Message, RingFrame, ServerId};
use hts_wal::{recover, FsyncPolicy, Recovery, Wal, WalOptions, WalRecord};

use crate::reactor::ReactorHandle;

/// Static deployment description handed to every [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// This server's id.
    pub id: ServerId,
    /// Listen addresses of **all** servers, indexed by [`ServerId`].
    pub addrs: Vec<SocketAddr>,
    /// Protocol options. `config.lanes` ring lanes are spawned; every
    /// server of a cluster must agree on the lane count.
    pub config: Config,
    /// Write-ahead-log directory. With a persistent
    /// [`Config::durability`](hts_core::Config), committed writes are
    /// logged here before client acks go out, and a server whose
    /// directory already holds a log boots in **restart** mode: it
    /// restores its registers from snapshot + log tail, announces its
    /// rejoin around the ring, resyncs from its new predecessor and only
    /// then serves — converting the paper's crash-stop model into
    /// crash-recovery. A multi-lane server logs each lane into its own
    /// `lane-<k>` subdirectory (recovered independently on restart); a
    /// single-lane server uses the directory as-is, matching the
    /// pre-lane layout.
    pub wal_dir: Option<PathBuf>,
}

/// A running storage server.
///
/// See the [crate docs](crate) for the runtime's shape; create whole local
/// clusters with [`Cluster`](crate::Cluster).
pub struct Server {
    reactor: ReactorHandle,
    addr: SocketAddr,
}

/// The WAL directory of one lane: the base directory itself for a
/// single-lane server (the pre-lane layout), `base/lane-<k>` otherwise.
pub(crate) fn lane_wal_dir(base: &Path, lane: u16, lanes: u16) -> PathBuf {
    if lanes <= 1 {
        base.to_path_buf()
    } else {
        base.join(format!("lane-{lane}"))
    }
}

/// Recovers (or creates) every lane's WAL ahead of serving: `None`
/// entries mean that lane keeps no log (volatile durability or no
/// `wal_dir`).
pub(crate) fn recover_lanes(config: &ServerConfig) -> io::Result<Vec<Option<(Wal, Recovery)>>> {
    let lanes = config.config.lanes.max(1);
    let fsync = wal_fsync_policy(config.config.durability);
    let mut wal_states = Vec::with_capacity(usize::from(lanes));
    for lane in 0..lanes {
        let state = match (&config.wal_dir, fsync) {
            (Some(dir), Some(fsync)) => {
                let dir = lane_wal_dir(dir, lane, lanes);
                let recovery = recover(&dir)?;
                let wal = Wal::open(
                    &dir,
                    WalOptions {
                        fsync,
                        ..WalOptions::default()
                    },
                )?;
                Some((wal, recovery))
            }
            _ => None,
        };
        wal_states.push(state);
    }
    Ok(wal_states)
}

/// Builds one lane's protocol core from its recovered WAL state:
/// restores the registers the log proves committed, flags a restart
/// rejoin when the directory already held a log, and attaches the
/// lane's fast-path cells only **after** the rejoin gate is armed (the
/// attach republishes every core with its resync bit already set, so a
/// restarted server's restored state is never readable early).
pub(crate) fn build_core(
    id: ServerId,
    n: u16,
    config: Config,
    wal_state: Option<(Wal, Recovery)>,
    cells: Arc<ReadCellRegistry>,
) -> (MultiObjectServer, Option<Wal>) {
    let mut core = MultiObjectServer::new(id, n, config);
    let mut wal = None;
    if let Some((w, recovery)) = wal_state {
        let restarting = recovery.had_log;
        core.restore_state(
            recovery
                .state
                .into_iter()
                .map(|(object, (tag, value))| (object, tag, value)),
        );
        if restarting {
            core.begin_rejoin();
        }
        wal = Some(w);
    }
    core.attach_read_cells(cells);
    (core, wal)
}

/// The client-visible reply for one committed protocol action.
pub(crate) fn action_into_message(action: Action) -> (ClientId, Message) {
    match action {
        Action::WriteAck {
            object,
            client,
            request,
        } => (client, Message::WriteAck { object, request }),
        Action::ReadReply {
            object,
            client,
            request,
            value,
            ..
        } => (
            client,
            Message::ReadAck {
                object,
                request,
                value,
            },
        ),
    }
}

/// RAII increment of the `hts_net_threads` gauge: every server-side
/// thread (each lane's reactor and the acceptor) holds one for its
/// lifetime, so the gauge reads the live server thread count at any
/// instant — `lanes + 1` per node, whatever the connection count.
pub(crate) struct ThreadTally;

impl ThreadTally {
    pub(crate) fn new() -> ThreadTally {
        hts_metrics::gauge!("hts_net_threads").add(1);
        ThreadTally
    }
}

impl Drop for ThreadTally {
    fn drop(&mut self) {
        hts_metrics::gauge!("hts_net_threads").sub(1);
    }
}

impl Server {
    /// Binds `config.addrs[config.id]` and spawns the server: one epoll
    /// reactor thread per ring lane plus a shared acceptor. With a WAL
    /// directory and persistent durability, first recovers each lane's
    /// existing log — a non-empty directory makes this a **restart**:
    /// every lane rejoins its ring and resyncs before serving.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the listen address is unavailable, the
    /// I/O error if log recovery / creation fails, and
    /// [`io::ErrorKind::Unsupported`] off Linux (the runtime is built on
    /// epoll).
    pub fn spawn(config: ServerConfig) -> io::Result<Server> {
        let (reactor, addr) = crate::reactor::spawn(config)?;
        Ok(Server { reactor, addr })
    }

    /// The bound listen address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server (crashing it, from the cluster's point of view):
    /// every lane closes and deregisters its sockets and its thread is
    /// joined, so the listen port is immediately rebindable. Dropping
    /// the server does the same.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Joined even in drop: each lane wakes through its eventfd and
        // closes every socket on the way out, which makes
        // drop-then-rebind deterministic.
        self.reactor.stop();
    }
}

/// Extends `batch` from the queue, tracking the running encoded size in
/// `bytes` (the soft `max_bytes` budget is per **batch**). The soft
/// cap admits the frame that crosses it; the hard cap is the receiver's
/// [`MAX_FRAME_BYTES`](crate::framing::MAX_FRAME_BYTES) —
/// individually-shippable frames must never coalesce into a wire
/// message the other end will reject as oversized. The first frame is
/// admitted unconditionally: even a zero byte budget must not wedge the
/// link (and a single frame beyond the hard cap is unshippable batched
/// or not).
pub(crate) fn drain_batch(
    q: &mut VecDeque<RingFrame>,
    max_frames: usize,
    max_bytes: usize,
    bytes: &mut usize,
    batch: &mut Vec<RingFrame>,
) {
    // Headroom for the batch discriminant + count and the length prefix.
    const HARD_CAP: usize = crate::framing::MAX_FRAME_BYTES - 16;
    while batch.len() < max_frames.max(1) && (batch.is_empty() || *bytes < max_bytes) {
        let Some(frame) = q.front() else { break };
        let frame_bytes = codec::frame_wire_size(frame);
        if !batch.is_empty() && *bytes + frame_bytes > HARD_CAP {
            break;
        }
        let Some(frame) = q.pop_front() else { break };
        *bytes += frame_bytes;
        batch.push(frame);
    }
}

/// Records a crash verdict against `peer` (counter + flight event), and
/// — when `HTS_FLIGHT_DUMP` is set in the environment — dumps the flight
/// recorder to stderr so the events leading up to the verdict survive
/// for post-mortem. Env-gated because verdicts are *routine* in the
/// kill/restart tests; an unconditional dump would bury their output.
pub(crate) fn note_crash_verdict(me: ServerId, lane: u16, peer: ServerId) {
    hts_metrics::counter!("hts_net_crash_verdicts_total").inc();
    hts_metrics::flight::record(
        hts_metrics::flight::KIND_CRASH_VERDICT,
        u64::from(peer.0),
        u64::from(me.0),
        u64::from(lane),
    );
    if std::env::var_os("HTS_FLIGHT_DUMP").is_some() {
        hts_metrics::flight::dump_to_stderr("crash verdict");
    }
}

/// How a [`Durability`] setting maps onto the WAL's fsync policy
/// (`None` = no log at all).
pub(crate) fn wal_fsync_policy(durability: Durability) -> Option<FsyncPolicy> {
    match durability {
        Durability::Volatile => None,
        Durability::Buffered => Some(FsyncPolicy::OsDefault),
        Durability::SyncEveryN(n) => Some(FsyncPolicy::EveryN(n)),
        Durability::SyncAlways => Some(FsyncPolicy::Always),
    }
}

/// Appends the core's freshly committed writes to the log as ONE
/// group-committed batch: a single fsync covers every commit drained by
/// this loop iteration. Runs BEFORE actions flush, so under `SyncAlways`
/// a client never sees an ack whose write is not on stable storage.
/// Returns `false` on an unrecoverable log failure (the server then
/// stops = crash-stop).
pub(crate) fn persist_commits(
    core: &mut MultiObjectServer,
    wal: &mut Option<Wal>,
    id: ServerId,
    lane: u16,
) -> bool {
    let Some(wal) = wal.as_mut() else {
        // Persistent durability without a wal_dir: nothing to log, but
        // the core still accumulates commits — drain them or they pile
        // up forever.
        core.drain_commits();
        return true;
    };
    let records: Vec<WalRecord> = core
        .drain_commits()
        .into_iter()
        .map(|(object, tag, value)| WalRecord { object, tag, value })
        .collect();
    if let Err(e) = wal.append_batch(&records) {
        eprintln!(
            "hts-net server {id} lane {lane}: wal append failed ({e}); stopping to avoid \
             acknowledging non-durable writes"
        );
        return false;
    }
    if wal.wants_compaction() {
        let state: Vec<WalRecord> = core
            .export_state()
            .into_iter()
            .map(|(object, tag, value)| WalRecord { object, tag, value })
            .collect();
        if let Err(e) = wal.compact(&state) {
            // Non-fatal: the uncompacted log remains recoverable.
            eprintln!("hts-net server {id} lane {lane}: wal compaction failed ({e})");
        }
    }
    true
}

/// Everything one lane's reactor needs to know about its place in the
/// deployment.
pub(crate) struct LaneConfig {
    pub(crate) lane: u16,
    pub(crate) id: ServerId,
    pub(crate) addrs: Vec<SocketAddr>,
    pub(crate) config: Config,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_wal_dirs_nest_only_when_laned() {
        let base = Path::new("/tmp/wal");
        assert_eq!(lane_wal_dir(base, 0, 1), PathBuf::from("/tmp/wal"));
        assert_eq!(lane_wal_dir(base, 0, 4), PathBuf::from("/tmp/wal/lane-0"));
        assert_eq!(lane_wal_dir(base, 3, 4), PathBuf::from("/tmp/wal/lane-3"));
    }
}
