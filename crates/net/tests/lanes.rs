//! End-to-end TCP tests of the parallel ring lanes: objects partitioned
//! across independent per-lane rings (each with its own connections and
//! WAL) must be invisible to clients — per-object histories stay
//! linearizable through kill/restart even with aggressive batching, a
//! single-lane cluster behaves exactly like the pre-lane runtime, and
//! each lane replays its own log on restart.

use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hts_core::{BatchConfig, Config, LaneMap};
use hts_lincheck::{check_conditions, History};
use hts_net::{Client, Cluster};
use hts_types::{ClientId, ObjectId, ServerId, Value};

fn tmp_base(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hts-net-lanes-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn nanos_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Aggressive batching on top of multiple lanes: the coalescing writer
/// paths all run under load, per lane.
fn laned_config(lanes: u16) -> Config {
    Config {
        lanes,
        batching: BatchConfig {
            max_frames: 64,
            max_bytes: 1024 * 1024,
        },
        ..Config::default()
    }
}

#[test]
fn objects_roundtrip_across_lanes() {
    // One client connection reaches every lane: requests demux by
    // object, replies from all lanes coalesce back over the same socket.
    let cluster = Cluster::launch_with(3, laned_config(4)).expect("launch laned cluster");
    let mut client = Client::connect(1, cluster.addrs()).expect("client");
    client.set_timeout(Duration::from_millis(500));
    for i in 0..16u32 {
        client
            .write_to(ObjectId(i), Value::from_u64(u64::from(i) + 100))
            .expect("write");
    }
    for i in 0..16u32 {
        assert_eq!(
            client.read_from(ObjectId(i)).expect("read"),
            Value::from_u64(u64::from(i) + 100),
            "object {i}"
        );
    }
    cluster.shutdown();
}

#[test]
fn cross_lane_fast_path_reads_return_the_last_write() {
    // With the read fast path on, a read for an object on another lane
    // hops to that lane's core like any other request. Clients homed on
    // both lanes (`ClientId % lanes`) write objects on both lanes, then
    // read each one back through the writing server and another server:
    // every read must return the value last written.
    let config = Config {
        read_fast_path: true,
        ..laned_config(2)
    };
    let cluster = Cluster::launch_with(3, config).expect("launch laned cluster");
    let map = &LaneMap::new(2);
    let mut workers = Vec::new();
    for t in 0..2u32 {
        let addrs = cluster.addrs();
        // Two client-private objects per lane.
        let objects: Vec<ObjectId> = (0..2u16)
            .flat_map(|lane| {
                (100 * (t + 1)..)
                    .map(ObjectId)
                    .filter(move |&o| map.lane_of(o) == lane)
                    .take(2)
            })
            .collect();
        workers.push(std::thread::spawn(move || {
            let mut writer =
                Client::connect_preferring(10 + t, addrs.clone(), ServerId(0)).expect("writer");
            let mut reader =
                Client::connect_preferring(21 + t, addrs, ServerId(1 + t as u16)).expect("reader");
            writer.set_timeout(Duration::from_millis(500));
            reader.set_timeout(Duration::from_millis(500));
            for round in 0..10u64 {
                for (k, &object) in objects.iter().enumerate() {
                    let value = Value::from_u64(u64::from(t) * 1_000 + round * 10 + k as u64);
                    writer.write_to(object, value.clone()).expect("write");
                    assert_eq!(
                        writer.read_from(object).expect("read via writer"),
                        value,
                        "{object:?} read through the writing server"
                    );
                    assert_eq!(
                        reader.read_from(object).expect("read via reader"),
                        value,
                        "{object:?} read through another server"
                    );
                }
            }
        }));
    }
    for worker in workers {
        worker.join().expect("worker");
    }
    cluster.shutdown();
}

#[test]
fn multi_lane_lincheck_under_kill_restart() {
    // Four workers, each on its own object (objects spread across both
    // lanes by the shared placement), aggressive batching, and a server
    // bounced mid-run: every per-object history must stay atomic —
    // each lane recovers through its own rejoin/resync protocol.
    let base = tmp_base("lincheck");
    let mut cluster =
        Cluster::launch_durable(3, laned_config(2), &base).expect("launch laned cluster");
    let addrs = cluster.addrs();
    let epoch = Instant::now();
    let histories: Vec<Arc<Mutex<History>>> = (0..4)
        .map(|_| Arc::new(Mutex::new(History::new())))
        .collect();

    let map = LaneMap::new(2);
    let mut lanes_hit = [false; 2];
    let mut workers = Vec::new();
    for t in 0..4u32 {
        let addrs = addrs.clone();
        let history = Arc::clone(&histories[t as usize]);
        let object = ObjectId(t);
        lanes_hit[usize::from(map.lane_of(object))] = true;
        workers.push(std::thread::spawn(move || {
            let preferred = ServerId(t as u16 % 3);
            let mut client = Client::connect_preferring(40 + t, addrs, preferred).expect("client");
            client.set_timeout(Duration::from_millis(300));
            let id = ClientId(40 + t);
            for i in 0..15u64 {
                if i % 3 == 2 {
                    let op = history.lock().unwrap().invoke_read(id, nanos_since(epoch));
                    let got = client.read_from(object).expect("read");
                    history
                        .lock()
                        .unwrap()
                        .complete_read(op, got, nanos_since(epoch));
                } else {
                    let value = Value::from_u64(u64::from(t) * 1_000 + i + 1);
                    let op =
                        history
                            .lock()
                            .unwrap()
                            .invoke_write(id, value.clone(), nanos_since(epoch));
                    client.write_to(object, value).expect("write");
                    history
                        .lock()
                        .unwrap()
                        .complete_write(op, nanos_since(epoch));
                }
            }
        }));
    }
    assert!(
        lanes_hit.iter().all(|h| *h),
        "test objects must exercise both lanes: {lanes_hit:?}"
    );

    // Bounce s1 while both lanes are under fire: each lane's recovery
    // stream and rejoin announcement travel its own batched link.
    std::thread::sleep(Duration::from_millis(40));
    cluster.crash(ServerId(1)).expect("crash");
    std::thread::sleep(Duration::from_millis(150));
    cluster.restart(ServerId(1)).expect("restart");

    for worker in workers {
        worker.join().expect("worker");
    }
    assert_eq!(cluster.alive(), 3);

    for (t, history) in histories.iter().enumerate() {
        let history = history.lock().unwrap();
        let violations = check_conditions(&history);
        assert!(
            violations.is_empty(),
            "object {t}: atomicity violations under lanes + kill/restart: {violations:?}\n{history}"
        );
    }

    cluster.shutdown();
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn single_lane_cluster_matches_the_laned_runtime() {
    // lanes = 1 must behave exactly like the pre-lane runtime (same
    // answers, same WAL layout: no lane subdirectories); more lanes are
    // a pure performance setting (same answers, per-lane directories).
    let run = |lanes: u16, tag: &str| -> (Vec<Value>, PathBuf) {
        let base = tmp_base(tag);
        let cluster = Cluster::launch_durable(3, laned_config(lanes), &base).expect("launch");
        let mut client = Client::connect(1, cluster.addrs()).expect("client");
        client.set_timeout(Duration::from_millis(300));
        let mut reads = Vec::new();
        for i in 1..=10u64 {
            let object = ObjectId((i % 4) as u32);
            client.write_to(object, Value::from_u64(i)).expect("write");
            reads.push(client.read_from(object).expect("read"));
        }
        cluster.shutdown();
        (reads, base)
    };
    let (single, single_base) = run(1, "equiv-single");
    let (laned, laned_base) = run(4, "equiv-laned");
    assert_eq!(single, laned);
    assert_eq!(single.last(), Some(&Value::from_u64(10)));

    // WAL layout: lanes = 1 logs straight into the server directory
    // (today's layout, no lane-* nesting); lanes = 4 logs per lane.
    let single_s0 = single_base.join("server-0");
    assert!(
        !single_s0.join("lane-0").exists(),
        "single-lane server must not nest lane directories"
    );
    assert!(
        fs::read_dir(&single_s0)
            .map(|mut d| d.next().is_some())
            .unwrap_or(false),
        "single-lane server logs into its base directory"
    );
    let laned_s0 = laned_base.join("server-0");
    for lane in 0..4 {
        assert!(
            laned_s0.join(format!("lane-{lane}")).is_dir(),
            "lane {lane} WAL directory missing"
        );
    }
    let _ = fs::remove_dir_all(&single_base);
    let _ = fs::remove_dir_all(&laned_base);
}

#[test]
fn restarted_laned_server_resyncs_every_lane() {
    // A write committed while the server was down lands in SOME lane;
    // after restart, reads pinned to the restarted server must see it —
    // and pre-crash writes on the other lane too — proving both lanes
    // replayed their own WAL and resynced their own ring.
    let map = LaneMap::new(2);
    let (a, b) = (map.token_object(0), map.token_object(1));
    let base = tmp_base("resync");
    let mut cluster = Cluster::launch_durable(3, laned_config(2), &base).expect("launch");
    let addrs = cluster.addrs();
    let mut writer = Client::connect(1, addrs.clone()).expect("writer");
    writer.set_timeout(Duration::from_millis(300));
    for i in 1..=4u64 {
        writer
            .write_to(a, Value::from_u64(i))
            .expect("lane-0 write");
        writer
            .write_to(b, Value::from_u64(10 + i))
            .expect("lane-1 write");
    }

    cluster.crash(ServerId(2)).expect("crash");
    std::thread::sleep(Duration::from_millis(150));
    // Committed while s2 is down: neither of its lane logs has these.
    writer
        .write_to(a, Value::from_u64(99))
        .expect("downtime write");
    writer
        .write_to(b, Value::from_u64(199))
        .expect("downtime write");

    cluster.restart(ServerId(2)).expect("restart");
    std::thread::sleep(Duration::from_millis(400));

    let mut reader = Client::connect_preferring(50, addrs, ServerId(2)).expect("reader at s2");
    reader.set_timeout(Duration::from_millis(500));
    assert_eq!(
        reader
            .read_from(a)
            .expect("lane-0 read via restarted server"),
        Value::from_u64(99),
        "restarted server served stale lane-0 data"
    );
    assert_eq!(
        reader
            .read_from(b)
            .expect("lane-1 read via restarted server"),
        Value::from_u64(199),
        "restarted server served stale lane-1 data"
    );

    cluster.shutdown();
    let _ = fs::remove_dir_all(&base);
}
