//! The synchronous sharded store facade and its pipelined handles.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use hts_core::{BatchConfig, Config, Durability, SessionCore, SimServer};
use hts_sim::packet::{Ctx, NetworkConfig, PacketSim, Process, TimerId};
use hts_sim::{DiskConfig, Nanos};
use hts_types::{ClientId, Message, NodeId, ObjectId, RequestId, ServerId, Value};

use crate::KeyMapper;

/// Cumulative facade counters.
#[derive(Debug, Clone, Default)]
pub struct StoreStats {
    /// Completed puts (incl. deletes).
    pub puts: u64,
    /// Completed gets.
    pub gets: u64,
    /// Request retries (timeouts / server crashes survived).
    pub retries: u64,
}

/// A started-but-not-awaited operation of a [`ShardedStore`] — the
/// concurrent-handle API: [`begin_put`](ShardedStore::begin_put) /
/// [`begin_get`](ShardedStore::begin_get) return one, and
/// [`wait`](ShardedStore::wait) redeems it, in any order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpHandle(u64);

#[derive(Debug)]
enum PendingOp {
    Put(ObjectId, Value),
    Get(ObjectId),
}

#[derive(Default)]
struct CourierState {
    /// Operations admitted by the facade, waiting for window room.
    outbox: VecDeque<(u64, PendingOp)>,
    /// Finished operations by facade op number.
    results: HashMap<u64, Option<Value>>,
    retries: u64,
}

/// The in-sim client that executes the facade's operations through a
/// [`SessionCore`] pipeline: up to `window` concurrently, each with its
/// own retry timer, completions keyed back to facade handles.
struct Courier {
    core: SessionCore,
    state: Rc<RefCell<CourierState>>,
    client_net: hts_sim::NetworkId,
    timeout: Nanos,
    /// request → (facade op number, armed retry timer).
    pending: HashMap<RequestId, (u64, TimerId)>,
}

impl Courier {
    /// Dispatches queued operations while the window has room.
    fn issue(&mut self, ctx: &mut Ctx<'_, Message>) {
        loop {
            if !self.core.has_capacity() {
                return;
            }
            let next = self.state.borrow_mut().outbox.pop_front();
            let Some((op, pending_op)) = next else { return };
            let (request, server, message) = match pending_op {
                PendingOp::Put(object, value) => self.core.begin_write_to(object, value),
                PendingOp::Get(object) => self.core.begin_read_from(object),
            };
            ctx.send(self.client_net, NodeId::Server(server), message);
            self.pending
                .insert(request, (op, ctx.set_timer(self.timeout)));
        }
    }
}

impl Process<Message> for Courier {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Message>, _from: NodeId, msg: Message) {
        if let Some(done) = self.core.on_reply(&msg) {
            let (op, timer) = self.pending.remove(&done.request).expect("tracked op");
            ctx.cancel_timer(timer);
            self.state.borrow_mut().results.insert(op, done.value);
            // A completion freed a window slot: keep the pipeline full.
            self.issue(ctx);
        }
    }

    fn on_poke(&mut self, ctx: &mut Ctx<'_, Message>) {
        self.issue(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Message>, timer: TimerId) {
        let Some(request) = self
            .pending
            .iter()
            .find(|(_, (_, armed))| *armed == timer)
            .map(|(r, _)| *r)
        else {
            return; // stale timer
        };
        if let Some((server, message)) = self.core.on_timeout(request) {
            self.state.borrow_mut().retries += 1;
            ctx.send(self.client_net, NodeId::Server(server), message);
            let entry = self.pending.get_mut(&request).expect("found above");
            entry.1 = ctx.set_timer(self.timeout);
        }
    }

    fn on_crashed(&mut self, ctx: &mut Ctx<'_, Message>, node: NodeId) {
        if let Some(s) = node.as_server() {
            // Every in-flight request stranded on the crashed server
            // re-sends immediately, each under a fresh timer.
            for (request, server, message) in self.core.on_server_down(s) {
                self.state.borrow_mut().retries += 1;
                ctx.send(self.client_net, NodeId::Server(server), message);
                if let Some(entry) = self.pending.get_mut(&request) {
                    ctx.cancel_timer(entry.1);
                    entry.1 = ctx.set_timer(self.timeout);
                }
            }
        }
    }
}

/// Builder for [`ShardedStore`].
#[derive(Debug, Clone)]
pub struct ShardedStoreBuilder {
    servers: u16,
    shards: u32,
    seed: u64,
    config: Config,
    disk: Option<DiskConfig>,
    pipeline: usize,
}

impl ShardedStoreBuilder {
    /// Ring size (default 3).
    pub fn servers(mut self, n: u16) -> Self {
        self.servers = n;
        self
    }

    /// Hash buckets for key placement (default `u32::MAX`; two keys in one
    /// bucket evict each other, so keep this large unless testing).
    pub fn shards(mut self, shards: u32) -> Self {
        self.shards = shards;
        self
    }

    /// Determinism seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Protocol configuration (default [`Config::paper`]).
    pub fn config(mut self, config: Config) -> Self {
        self.config = config;
        self
    }

    /// Persists committed writes on every server (modeled disk), turning
    /// crashed servers restartable via
    /// [`ShardedStore::restart_server`]. The disk charges append/fsync
    /// time per the given [`Durability`] policy.
    pub fn durability(mut self, durability: Durability, disk: DiskConfig) -> Self {
        self.config.durability = durability;
        self.disk = Some(disk);
        self
    }

    /// Ring frame batching for the store's servers (see
    /// [`BatchConfig`]): how aggressively protocol frames coalesce into
    /// one wire message per link transmission, and — with a persistent
    /// [`Durability`] — how many commits one modeled fsync covers
    /// (group commit). `BatchConfig::unbatched()` reproduces the
    /// frame-at-a-time runtime for A/B comparisons.
    pub fn batching(mut self, batching: BatchConfig) -> Self {
        self.config.batching = batching;
        self
    }

    /// Parallel ring lanes (default 1): the store's register objects are
    /// partitioned across `lanes` independent ring instances
    /// ([`hts_core::LaneMap`] placement over the objects `KeyMapper`
    /// produces), each with its own modeled ring NIC and — with
    /// [`durability`](Self::durability) — its own modeled log device.
    /// Keys stay wherever they hash; a key's object lives on exactly one
    /// lane, so per-key linearizability is untouched while the node's
    /// ring capacity scales with the lane count.
    pub fn lanes(mut self, lanes: u16) -> Self {
        self.config.lanes = lanes.max(1);
        self
    }

    /// Pipeline window of the store's session (default 1): how many
    /// operations [`begin_put`](ShardedStore::begin_put) /
    /// [`begin_get`](ShardedStore::begin_get) may keep in flight
    /// concurrently before [`wait`](ShardedStore::wait) must drain one.
    /// The synchronous `put`/`get` calls are unaffected (each is a
    /// begin + wait); a window of 1 serializes even the handle API.
    pub fn pipeline(mut self, window: usize) -> Self {
        self.pipeline = window.max(1);
        self
    }

    /// Boots the simulated cluster and returns the store.
    pub fn build(&self) -> ShardedStore {
        let mut sim = PacketSim::new(self.seed);
        let lanes = self.config.lanes.max(1);
        let ring_nets: Vec<_> = (0..lanes)
            .map(|_| sim.add_network(NetworkConfig::fast_ethernet()))
            .collect();
        let client_net = sim.add_network(NetworkConfig::fast_ethernet());
        for i in 0..self.servers {
            let id = NodeId::Server(ServerId(i));
            let mut server = SimServer::with_ring_lanes(
                ServerId(i),
                self.servers,
                self.config.clone(),
                ring_nets.clone(),
                client_net,
            );
            if let Some(disk) = self.disk {
                server = server.with_disk(disk);
            }
            sim.add_node(id, Box::new(server));
            for ring_net in &ring_nets {
                sim.attach(id, *ring_net);
            }
            sim.attach(id, client_net);
        }
        let state = Rc::new(RefCell::new(CourierState::default()));
        let courier_id = NodeId::Client(ClientId(0));
        let courier = Courier {
            core: SessionCore::new(
                ClientId(0),
                ObjectId::SINGLE,
                self.servers,
                ServerId(0),
                self.pipeline.max(1),
            ),
            state: Rc::clone(&state),
            client_net,
            timeout: Nanos::from_millis(50),
            pending: HashMap::new(),
        };
        sim.add_node(courier_id, Box::new(courier));
        sim.attach(courier_id, client_net);
        ShardedStore {
            sim,
            mapper: KeyMapper::new(self.shards),
            state,
            courier: courier_id,
            stats: StoreStats::default(),
            next_op: 0,
            open: HashMap::new(),
        }
    }
}

/// What a [`wait`](ShardedStore::wait) must do with a finished
/// operation's raw register value.
enum OpKind {
    Mutation,
    Get { key: Vec<u8> },
}

/// A linearizable-per-key KV store over a simulated `hts` ring.
///
/// Each key lives in its own register object (chosen by hashing); the
/// stored register value embeds the key, so a hash collision behaves like
/// an eviction rather than a wrong-value read.
///
/// Two call styles:
///
/// * **Synchronous** — [`put`](Self::put) / [`get`](Self::get) /
///   [`delete`](Self::delete) step the deterministic simulator until the
///   ring answers (one operation at a time).
/// * **Pipelined** — [`begin_put`](Self::begin_put) /
///   [`begin_get`](Self::begin_get) / [`begin_delete`](Self::begin_delete)
///   start up to [`pipeline`](ShardedStoreBuilder::pipeline) concurrent
///   operations and return [`OpHandle`]s; [`wait`](Self::wait) redeems
///   them **in any order** (completions are keyed by handle, not arrival).
///
/// See the [crate docs](crate) for an example.
pub struct ShardedStore {
    sim: PacketSim<Message>,
    mapper: KeyMapper,
    state: Rc<RefCell<CourierState>>,
    courier: NodeId,
    stats: StoreStats,
    next_op: u64,
    /// Handles begun and not yet waited.
    open: HashMap<u64, OpKind>,
}

impl ShardedStore {
    /// Starts building a store.
    pub fn builder() -> ShardedStoreBuilder {
        ShardedStoreBuilder {
            servers: 3,
            shards: u32::MAX,
            seed: 0,
            config: Config::default(),
            disk: None,
            pipeline: 1,
        }
    }

    /// Stores `value` under `key`.
    pub fn put(&mut self, key: &[u8], value: Vec<u8>) {
        let handle = self.begin_put(key, value);
        self.wait(handle);
    }

    /// Removes `key` (a tombstone write).
    pub fn delete(&mut self, key: &[u8]) {
        let handle = self.begin_delete(key);
        self.wait(handle);
    }

    /// Fetches `key`, or `None` if absent (never written, deleted, or
    /// evicted by a colliding key).
    pub fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        let handle = self.begin_get(key);
        self.wait(handle)
    }

    /// Starts storing `value` under `key` without waiting; redeem the
    /// handle with [`wait`](Self::wait). Up to the configured
    /// [`pipeline`](ShardedStoreBuilder::pipeline) window of operations
    /// proceed concurrently through the ring.
    pub fn begin_put(&mut self, key: &[u8], value: Vec<u8>) -> OpHandle {
        let object = self.mapper.object_for(key);
        let encoded = encode_entry(key, Some(&value));
        self.stats.puts += 1;
        self.begin(PendingOp::Put(object, encoded), OpKind::Mutation)
    }

    /// Starts removing `key` (a tombstone write) without waiting.
    pub fn begin_delete(&mut self, key: &[u8]) -> OpHandle {
        let object = self.mapper.object_for(key);
        let encoded = encode_entry(key, None);
        self.stats.puts += 1;
        self.begin(PendingOp::Put(object, encoded), OpKind::Mutation)
    }

    /// Starts fetching `key` without waiting; [`wait`](Self::wait)
    /// returns the value (or `None` if absent at read time).
    pub fn begin_get(&mut self, key: &[u8]) -> OpHandle {
        let object = self.mapper.object_for(key);
        self.stats.gets += 1;
        self.begin(PendingOp::Get(object), OpKind::Get { key: key.to_vec() })
    }

    /// Blocks until `handle` completes. Returns the fetched value for
    /// gets, `None` for puts and deletes. Handles complete out of order:
    /// waiting a younger handle first is fine.
    ///
    /// # Panics
    ///
    /// Panics on a handle this store never issued or already waited.
    pub fn wait(&mut self, handle: OpHandle) -> Option<Vec<u8>> {
        let kind = self
            .open
            .remove(&handle.0)
            .expect("unknown or already-waited OpHandle");
        self.sim.poke(self.courier);
        let raw = loop {
            let done = self.state.borrow_mut().results.remove(&handle.0);
            if let Some(result) = done {
                break result;
            }
            assert!(self.sim.step(), "cluster quiesced without a reply");
        };
        match kind {
            OpKind::Mutation => None,
            OpKind::Get { key } => decode_entry(raw?.as_bytes(), &key),
        }
    }

    /// Waits for every outstanding handle, discarding get results (use
    /// [`wait`](Self::wait) per handle when the values matter).
    pub fn drain(&mut self) {
        let mut open: Vec<u64> = self.open.keys().copied().collect();
        // Issue order (ids are monotone): HashMap iteration order must
        // not leak into the deterministic simulation's timeline.
        open.sort_unstable();
        for raw in open {
            self.wait(OpHandle(raw));
        }
    }

    fn begin(&mut self, op: PendingOp, kind: OpKind) -> OpHandle {
        self.next_op += 1;
        let handle = OpHandle(self.next_op);
        self.open.insert(handle.0, kind);
        self.state.borrow_mut().outbox.push_back((handle.0, op));
        // Schedule the courier to dispatch (up to its window): begun
        // operations travel the ring concurrently once the sim steps —
        // virtual time only advances under `wait`, so pipelining shows
        // up as overlapped operations there.
        self.sim.poke(self.courier);
        handle
    }

    /// Crashes server `s` under the store (operations keep working while
    /// any server survives).
    pub fn crash_server(&mut self, s: ServerId) {
        self.sim.crash_at(NodeId::Server(s), self.sim.now());
    }

    /// Restarts a crashed server. With
    /// [`durability`](ShardedStoreBuilder::durability) configured it
    /// replays its modeled log; either way it rejoins the ring and
    /// resyncs from its predecessor before serving.
    pub fn restart_server(&mut self, s: ServerId) {
        self.sim.restart_at(NodeId::Server(s), self.sim.now());
        // Let the replay + rejoin circulation settle before the next op.
        self.sim.run_until(self.sim.now() + Nanos::from_millis(50));
    }

    /// Facade counters (retries reveal survived crashes).
    pub fn stats(&self) -> StoreStats {
        let mut stats = self.stats.clone();
        stats.retries = self.state.borrow().retries;
        stats
    }

    /// Virtual time consumed so far.
    pub fn elapsed(&self) -> Nanos {
        self.sim.now()
    }
}

fn encode_entry(key: &[u8], value: Option<&[u8]>) -> Value {
    let mut bytes = Vec::with_capacity(2 + key.len() + 1 + value.map_or(0, <[u8]>::len));
    let key_len = u16::try_from(key.len()).expect("key longer than 64 KiB");
    bytes.extend_from_slice(&key_len.to_be_bytes());
    bytes.extend_from_slice(key);
    match value {
        Some(v) => {
            bytes.push(1);
            bytes.extend_from_slice(v);
        }
        None => bytes.push(0),
    }
    Value::from(bytes)
}

fn decode_entry(raw: &[u8], want_key: &[u8]) -> Option<Vec<u8>> {
    if raw.is_empty() {
        return None; // ⊥: never written
    }
    let key_len = usize::from(u16::from_be_bytes([raw[0], raw[1]]));
    let key = &raw[2..2 + key_len];
    if key != want_key {
        return None; // collision eviction
    }
    let present = raw[2 + key_len];
    (present == 1).then(|| raw[2 + key_len + 1..].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete_roundtrip() {
        let mut store = ShardedStore::builder().seed(3).build();
        assert_eq!(store.get(b"k"), None);
        store.put(b"k", b"v1".to_vec());
        assert_eq!(store.get(b"k"), Some(b"v1".to_vec()));
        store.put(b"k", b"v2".to_vec());
        assert_eq!(store.get(b"k"), Some(b"v2".to_vec()));
        store.delete(b"k");
        assert_eq!(store.get(b"k"), None);
        let stats = store.stats();
        assert_eq!(stats.puts, 3);
    }

    #[test]
    fn many_keys_are_independent() {
        let mut store = ShardedStore::builder().servers(4).seed(5).build();
        for i in 0..40u32 {
            store.put(format!("key-{i}").as_bytes(), i.to_be_bytes().to_vec());
        }
        for i in 0..40u32 {
            assert_eq!(
                store.get(format!("key-{i}").as_bytes()),
                Some(i.to_be_bytes().to_vec()),
                "key-{i}"
            );
        }
    }

    #[test]
    fn empty_values_are_distinguishable_from_absence() {
        let mut store = ShardedStore::builder().seed(7).build();
        store.put(b"empty", Vec::new());
        assert_eq!(store.get(b"empty"), Some(Vec::new()));
        store.delete(b"empty");
        assert_eq!(store.get(b"empty"), None);
    }

    #[test]
    fn survives_server_crashes() {
        let mut store = ShardedStore::builder().servers(3).seed(9).build();
        store.put(b"durable", b"before".to_vec());
        store.crash_server(ServerId(0));
        assert_eq!(store.get(b"durable"), Some(b"before".to_vec()));
        store.put(b"durable", b"after".to_vec());
        store.crash_server(ServerId(1));
        assert_eq!(store.get(b"durable"), Some(b"after".to_vec()));
        assert!(store.stats().puts >= 2);
    }

    #[test]
    fn crash_restart_preserves_data_on_the_restarted_server() {
        let mut store = ShardedStore::builder()
            .servers(3)
            .seed(13)
            .durability(Durability::SyncAlways, DiskConfig::nvme_ssd())
            .build();
        for i in 0..8u32 {
            store.put(format!("key-{i}").as_bytes(), i.to_be_bytes().to_vec());
        }
        // Bounce s0: it replays its modeled log and rejoins.
        store.crash_server(ServerId(0));
        store.put(b"during-downtime", b"fresh".to_vec());
        store.restart_server(ServerId(0));
        assert_eq!(store.get(b"key-3"), Some(3u32.to_be_bytes().to_vec()));
        // Kill the other two: only the restarted server remains. Every
        // key — including the one written while it was down — must
        // survive, proving log replay *and* ring resync both worked.
        store.crash_server(ServerId(1));
        store.crash_server(ServerId(2));
        for i in 0..8u32 {
            assert_eq!(
                store.get(format!("key-{i}").as_bytes()),
                Some(i.to_be_bytes().to_vec()),
                "key-{i} after every other server died"
            );
        }
        assert_eq!(store.get(b"during-downtime"), Some(b"fresh".to_vec()));
    }

    #[test]
    fn restart_without_durability_resyncs_from_the_ring() {
        // Volatile servers restart empty but still recover state from
        // their predecessor's recovery stream.
        let mut store = ShardedStore::builder().servers(3).seed(17).build();
        store.put(b"k", b"v".to_vec());
        store.crash_server(ServerId(1));
        store.restart_server(ServerId(1));
        store.crash_server(ServerId(0));
        store.crash_server(ServerId(2));
        assert_eq!(store.get(b"k"), Some(b"v".to_vec()));
    }

    #[test]
    fn batching_knob_is_a_pure_performance_setting() {
        // Same operations, batched vs unbatched (and with group-committed
        // durability): identical results, only the virtual clock differs.
        let run = |batching: BatchConfig| {
            let mut store = ShardedStore::builder()
                .servers(3)
                .seed(21)
                .durability(Durability::SyncAlways, DiskConfig::nvme_ssd())
                .batching(batching)
                .build();
            for i in 0..16u32 {
                store.put(format!("key-{i}").as_bytes(), i.to_be_bytes().to_vec());
            }
            store.crash_server(ServerId(1));
            store.restart_server(ServerId(1));
            let values: Vec<Option<Vec<u8>>> = (0..16u32)
                .map(|i| store.get(format!("key-{i}").as_bytes()))
                .collect();
            values
        };
        let batched = run(BatchConfig::default());
        let unbatched = run(BatchConfig::unbatched());
        assert_eq!(batched, unbatched);
        for (i, v) in batched.iter().enumerate() {
            assert_eq!(v.as_deref(), Some(&(i as u32).to_be_bytes()[..]), "key-{i}");
        }
    }

    #[test]
    fn laned_store_roundtrips_across_lanes() {
        // Keys hash across objects, objects partition across 4 lanes:
        // every key must still read back its own value.
        let mut store = ShardedStore::builder().servers(3).seed(23).lanes(4).build();
        for i in 0..48u32 {
            store.put(format!("key-{i}").as_bytes(), i.to_be_bytes().to_vec());
        }
        for i in 0..48u32 {
            assert_eq!(
                store.get(format!("key-{i}").as_bytes()),
                Some(i.to_be_bytes().to_vec()),
                "key-{i}"
            );
        }
    }

    #[test]
    fn laned_store_survives_crash_restart_with_per_lane_logs() {
        // Each lane persists to its own modeled log; a restarted server
        // must replay every lane and resync every lane's ring before the
        // cluster shrinks to it alone.
        let mut store = ShardedStore::builder()
            .servers(3)
            .seed(29)
            .lanes(2)
            .durability(Durability::SyncAlways, DiskConfig::nvme_ssd())
            .build();
        for i in 0..12u32 {
            store.put(format!("key-{i}").as_bytes(), i.to_be_bytes().to_vec());
        }
        store.crash_server(ServerId(0));
        store.put(b"during-downtime", b"fresh".to_vec());
        store.restart_server(ServerId(0));
        store.crash_server(ServerId(1));
        store.crash_server(ServerId(2));
        for i in 0..12u32 {
            assert_eq!(
                store.get(format!("key-{i}").as_bytes()),
                Some(i.to_be_bytes().to_vec()),
                "key-{i} after every other server died"
            );
        }
        assert_eq!(store.get(b"during-downtime"), Some(b"fresh".to_vec()));
    }

    #[test]
    fn lane_knob_is_a_pure_performance_setting() {
        // The lane count changes scheduling and capacity, never results:
        // the same operation sequence answers identically at 1 and 4
        // lanes (the lanes=1 runtime being today's single-ring path).
        let run = |lanes: u16| {
            let mut store = ShardedStore::builder()
                .servers(3)
                .seed(31)
                .lanes(lanes)
                .build();
            for i in 0..24u32 {
                store.put(format!("key-{i}").as_bytes(), i.to_be_bytes().to_vec());
            }
            store.crash_server(ServerId(1));
            (0..24u32)
                .map(|i| store.get(format!("key-{i}").as_bytes()))
                .collect::<Vec<_>>()
        };
        let single = run(1);
        let laned = run(4);
        assert_eq!(single, laned);
        for (i, v) in single.iter().enumerate() {
            assert_eq!(v.as_deref(), Some(&(i as u32).to_be_bytes()[..]), "key-{i}");
        }
    }

    #[test]
    fn pipelined_handles_complete_out_of_order() {
        let mut store = ShardedStore::builder().seed(37).pipeline(8).build();
        let puts: Vec<OpHandle> = (0..8u32)
            .map(|i| store.begin_put(format!("key-{i}").as_bytes(), i.to_be_bytes().to_vec()))
            .collect();
        // Redeem in reverse: completions are keyed by handle.
        for h in puts.into_iter().rev() {
            assert_eq!(store.wait(h), None);
        }
        let gets: Vec<(u32, OpHandle)> = (0..8u32)
            .map(|i| (i, store.begin_get(format!("key-{i}").as_bytes())))
            .collect();
        for (i, h) in gets.into_iter().rev() {
            assert_eq!(store.wait(h), Some(i.to_be_bytes().to_vec()), "key-{i}");
        }
        let stats = store.stats();
        assert_eq!((stats.puts, stats.gets), (8, 8));
    }

    #[test]
    fn pipelined_and_sequential_answers_agree() {
        // The pipeline window is a pure concurrency knob: per-key results
        // match the sequential store's (distinct keys — same-key ops in
        // one batch are concurrent by design and may order either way).
        let run = |window: usize| {
            let mut store = ShardedStore::builder().seed(41).pipeline(window).build();
            let handles: Vec<OpHandle> = (0..16u32)
                .map(|i| store.begin_put(format!("key-{i}").as_bytes(), vec![i as u8; 9]))
                .collect();
            for h in handles {
                store.wait(h);
            }
            let gets: Vec<OpHandle> = (0..16u32)
                .map(|i| store.begin_get(format!("key-{i}").as_bytes()))
                .collect();
            gets.into_iter().map(|h| store.wait(h)).collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn pipelined_store_survives_crash_mid_window() {
        let mut store = ShardedStore::builder()
            .servers(3)
            .seed(43)
            .pipeline(8)
            .durability(Durability::SyncAlways, DiskConfig::nvme_ssd())
            .build();
        let first: Vec<OpHandle> = (0..8u32)
            .map(|i| store.begin_put(format!("key-{i}").as_bytes(), i.to_be_bytes().to_vec()))
            .collect();
        // Crash the courier's preferred server with the window full: the
        // stranded requests all reroute and complete.
        store.crash_server(ServerId(0));
        for h in first {
            assert_eq!(store.wait(h), None);
        }
        store.restart_server(ServerId(0));
        for i in 0..8u32 {
            assert_eq!(
                store.get(format!("key-{i}").as_bytes()),
                Some(i.to_be_bytes().to_vec()),
                "key-{i} after crash mid-window"
            );
        }
        assert!(store.stats().retries > 0, "the crash forced re-sends");
    }

    #[test]
    #[should_panic(expected = "unknown or already-waited OpHandle")]
    fn double_wait_panics() {
        let mut store = ShardedStore::builder().seed(47).pipeline(2).build();
        let h = store.begin_put(b"k", b"v".to_vec());
        store.wait(h);
        store.wait(h);
    }

    #[test]
    fn drain_settles_every_outstanding_handle() {
        let mut store = ShardedStore::builder().seed(53).pipeline(4).build();
        for i in 0..10u32 {
            store.begin_put(format!("key-{i}").as_bytes(), vec![1, 2, 3]);
        }
        store.drain();
        assert_eq!(store.get(b"key-9"), Some(vec![1, 2, 3]));
    }

    #[test]
    fn colliding_bucket_evicts_previous_key() {
        // Force collisions with a single bucket.
        let mut store = ShardedStore::builder().shards(1).seed(11).build();
        store.put(b"a", b"1".to_vec());
        store.put(b"b", b"2".to_vec());
        assert_eq!(store.get(b"b"), Some(b"2".to_vec()));
        assert_eq!(store.get(b"a"), None, "evicted by the colliding key");
    }
}
