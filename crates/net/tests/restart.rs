//! Crash-**recovery** over real TCP: kill a server, restart it from its
//! WAL directory, watch it rejoin the ring and serve again — with the
//! full client history checked for atomicity.

use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hts_core::Config;
use hts_lincheck::{check_conditions, check_exhaustive_bounded, History, Outcome};
use hts_net::{Client, Cluster, Session};
use hts_types::{ClientId, ObjectId, ServerId, Value};

fn tmp_base(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hts-net-restart-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Wall-clock nanos since `epoch` (history timestamps).
fn nanos_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

#[test]
fn kill_restart_rejoin_serves_pre_and_post_crash_data() {
    let base = tmp_base("rejoin");
    let mut cluster = Cluster::launch_durable(3, Config::default(), &base).expect("launch");
    let addrs = cluster.addrs();
    let epoch = Instant::now();
    let mut history = History::new();

    let mut writer = Client::connect(1, addrs.clone()).expect("writer");
    writer.set_timeout(Duration::from_millis(300));
    for i in 1..=5u64 {
        let value = Value::from_u64(i);
        let op = history.invoke_write(ClientId(1), value.clone(), nanos_since(epoch));
        writer.write(value).expect("pre-crash write");
        history.complete_write(op, nanos_since(epoch));
    }

    // Kill s1 and let the ring splice it out.
    cluster.crash(ServerId(1)).expect("crash");
    std::thread::sleep(Duration::from_millis(200));

    // This write commits while s1 is down — its log cannot contain it.
    let missed = Value::from_u64(6);
    let op = history.invoke_write(ClientId(1), missed.clone(), nanos_since(epoch));
    writer.write(missed).expect("write during downtime");
    history.complete_write(op, nanos_since(epoch));

    // Restart s1 from its WAL; give it time to replay, announce and resync.
    cluster.restart(ServerId(1)).expect("restart");
    std::thread::sleep(Duration::from_millis(500));
    assert_eq!(cluster.alive(), 3);

    // Read *through the restarted server*: it must serve the write it
    // missed (learned from its predecessor's recovery stream), not its
    // stale log state. The client knows only s1, so it cannot quietly
    // rotate to a survivor.
    let mut reader = Client::connect(100, vec![addrs[1]]).expect("reader at s1");
    reader.set_timeout(Duration::from_millis(500));
    let op = history.invoke_read(ClientId(100), nanos_since(epoch));
    let got = reader.read().expect("read through restarted server");
    history.complete_read(op, got.clone(), nanos_since(epoch));
    assert_eq!(
        got,
        Value::from_u64(6),
        "restarted server served stale data"
    );

    // The rejoined server also coordinates fresh writes.
    let mut rejoined_writer = Client::connect(101, vec![addrs[1]]).expect("writer at s1");
    rejoined_writer.set_timeout(Duration::from_millis(500));
    let v7 = Value::from_u64(7);
    let op = history.invoke_write(ClientId(101), v7.clone(), nanos_since(epoch));
    rejoined_writer
        .write(v7)
        .expect("write through restarted server");
    history.complete_write(op, nanos_since(epoch));

    // Kill everyone else: the restarted server alone must still hold the
    // full state (durability + resync, end to end).
    cluster.crash(ServerId(0)).expect("crash");
    cluster.crash(ServerId(2)).expect("crash");
    std::thread::sleep(Duration::from_millis(200));
    let op = history.invoke_read(ClientId(100), nanos_since(epoch));
    let got = reader.read().expect("read from lone restarted survivor");
    history.complete_read(op, got.clone(), nanos_since(epoch));
    assert_eq!(got, Value::from_u64(7));

    let violations = check_conditions(&history);
    assert!(
        violations.is_empty(),
        "atomicity violations: {violations:?}\n{history}"
    );
    assert!(
        matches!(
            check_exhaustive_bounded(&history, 5_000_000),
            Outcome::Linearizable | Outcome::Unknown
        ),
        "exhaustive checker rejected the history\n{history}"
    );

    cluster.shutdown();
    let _ = fs::remove_dir_all(&base);
}

/// Blocks until a survivor has declared a crash since the counter read
/// `before` (metrics off: a fixed splice allowance instead).
fn await_crash_verdict(before: u64) {
    if !cfg!(feature = "metrics") {
        std::thread::sleep(Duration::from_millis(300));
        return;
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while hts_metrics::counter("hts_net_crash_verdicts_total").get() == before {
        assert!(Instant::now() < deadline, "no crash verdict within 5 s");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// After a restart, the predecessor's recovery stream to the restarted
/// server covers every object it holds: far more frames than the ring
/// pipeline admits at once (two batches). Regression test for a stall:
/// once a flush returned the pipeline credit synchronously, nothing
/// pumped the lane again, so on an otherwise idle ring the rest of the
/// stream — and the rejoin announcement queued behind it — never left,
/// and the restarted server kept queueing reads in resync forever.
#[test]
fn restarted_server_answers_after_a_recovery_stream_longer_than_the_pipeline() {
    let base = tmp_base("long-resync");
    let mut cluster = Cluster::launch_durable(3, Config::default(), &base).expect("launch");
    let addrs = cluster.addrs();
    let value = Value::filled(7, 64);
    let mut writer = Session::connect(1, addrs.clone(), 32).expect("writer");
    writer.set_timeout(Duration::from_millis(500));
    for object in 0..1024u32 {
        writer
            .begin_write_to(ObjectId(object), value.clone())
            .expect("begin write");
    }
    writer.drain().expect("every write acknowledged");
    drop(writer);

    let before = hts_metrics::counter("hts_net_crash_verdicts_total").get();
    cluster.crash(ServerId(1)).expect("crash");
    await_crash_verdict(before);
    let restarted = Instant::now();
    cluster.restart(ServerId(1)).expect("restart");

    // A session that knows only s1: whatever answers is the restarted
    // server itself.
    let mut probe = Session::connect(2, vec![addrs[1]], 1).expect("probe");
    probe.set_timeout(Duration::from_millis(200));
    let mut answered = None;
    while answered.is_none() && restarted.elapsed() < Duration::from_secs(2) {
        if let Ok(Some(got)) = probe
            .begin_read_from(ObjectId(0))
            .and_then(|r| probe.wait(r))
        {
            answered = Some(got);
        }
    }
    let elapsed = restarted.elapsed();
    assert_eq!(
        answered,
        Some(value),
        "restarted s1 answered no read within 2 s"
    );
    assert!(
        elapsed < Duration::from_secs(2),
        "restarted s1 took {elapsed:?} to answer a read"
    );

    cluster.shutdown();
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn concurrent_load_through_kill_restart_stays_atomic() {
    let base = tmp_base("load");
    let mut cluster = Cluster::launch_durable(3, Config::default(), &base).expect("launch");
    let addrs = cluster.addrs();
    let epoch = Instant::now();
    let history = Arc::new(Mutex::new(History::new()));

    let mut workers = Vec::new();
    for t in 0..3u32 {
        let addrs = addrs.clone();
        let history = Arc::clone(&history);
        workers.push(std::thread::spawn(move || {
            let preferred = ServerId(t as u16 % 3);
            let mut client = Client::connect_preferring(10 + t, addrs, preferred).expect("client");
            client.set_timeout(Duration::from_millis(300));
            for i in 0..12u64 {
                let id = ClientId(10 + t);
                if i % 3 == 2 {
                    let op = {
                        let mut h = history.lock().unwrap();
                        h.invoke_read(id, nanos_since(epoch))
                    };
                    let got = client.read().expect("read");
                    let mut h = history.lock().unwrap();
                    h.complete_read(op, got, nanos_since(epoch));
                } else {
                    // Unique values let the condition checker map reads
                    // to writes.
                    let value = Value::from_u64(u64::from(t) * 1_000 + i + 1);
                    let op = {
                        let mut h = history.lock().unwrap();
                        h.invoke_write(id, value.clone(), nanos_since(epoch))
                    };
                    client.write(value).expect("write");
                    let mut h = history.lock().unwrap();
                    h.complete_write(op, nanos_since(epoch));
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        }));
    }

    // Bounce s2 while the workers hammer the ring.
    std::thread::sleep(Duration::from_millis(60));
    cluster.crash(ServerId(2)).expect("crash");
    std::thread::sleep(Duration::from_millis(150));
    cluster.restart(ServerId(2)).expect("restart");

    for worker in workers {
        worker.join().expect("worker");
    }
    assert_eq!(cluster.alive(), 3);

    let history = history.lock().unwrap();
    let violations = check_conditions(&history);
    assert!(
        violations.is_empty(),
        "atomicity violations across kill+restart: {violations:?}\n{history}"
    );

    cluster.shutdown();
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn cold_restart_of_the_whole_cluster_recovers_all_data() {
    let base = tmp_base("cold");
    {
        let cluster = Cluster::launch_durable(2, Config::default(), &base).expect("launch");
        let mut client = Client::connect(1, cluster.addrs()).expect("client");
        client.set_timeout(Duration::from_millis(300));
        client.write(Value::from_u64(99)).expect("write");
        cluster.shutdown(); // whole-cluster power-off
    }
    // A brand-new cluster over the same WAL base: every server boots in
    // restart mode, they resync against each other and serve the data.
    let cluster = Cluster::launch_durable(2, Config::default(), &base).expect("relaunch");
    let mut client = Client::connect(2, cluster.addrs()).expect("client");
    client.set_timeout(Duration::from_millis(500));
    assert_eq!(client.read().expect("read"), Value::from_u64(99));
    cluster.shutdown();
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn volatile_cluster_rejects_restart() {
    let mut cluster = Cluster::launch(2).expect("launch");
    cluster.crash(ServerId(0)).expect("crash");
    let err = cluster
        .restart(ServerId(0))
        .expect_err("restart without durability must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    // Crashing twice (or out of range) reports the mistake too.
    assert_eq!(
        cluster.crash(ServerId(0)).expect_err("double crash").kind(),
        std::io::ErrorKind::NotFound
    );
    assert!(cluster.crash(ServerId(9)).is_err());
    cluster.shutdown();
}

#[test]
fn stale_parked_connection_is_retried_not_declared_a_crash() {
    // n=4 ring 0→1→2→3. When s1 bounces, s0 parks its connection to s2.
    // s2 then bounces too — s0 is non-adjacent and never observes it, so
    // the parked entry silently goes stale. When s1 later dies for good
    // and s0 re-splices to s2, the first write rides the dead socket:
    // the lane must retry over a fresh connection instead of
    // declaring the live, rejoined s2 crashed (which would wedge the
    // ring and serve stale reads forever).
    let base = tmp_base("stale-park");
    let mut cluster = Cluster::launch_durable(4, Config::default(), &base).expect("launch");
    let addrs = cluster.addrs();
    let mut client = Client::connect(1, addrs.clone()).expect("client");
    client.set_timeout(Duration::from_millis(300));
    client.write(Value::from_u64(1)).expect("write v1");

    // s1 bounces: s0 parks its (live) connection to s2.
    cluster.crash(ServerId(1)).expect("crash");
    std::thread::sleep(Duration::from_millis(200));
    client
        .write(Value::from_u64(2))
        .expect("write during s1 downtime");
    cluster.restart(ServerId(1)).expect("restart s1");
    std::thread::sleep(Duration::from_millis(400));

    // s2 bounces: s0's parked connection to it is now a corpse.
    cluster.crash(ServerId(2)).expect("crash");
    std::thread::sleep(Duration::from_millis(200));
    cluster.restart(ServerId(2)).expect("restart s2");
    std::thread::sleep(Duration::from_millis(400));

    // s1 dies for good: s0's successor becomes s2 and the stale parked
    // connection gets activated.
    cluster.crash(ServerId(1)).expect("crash");
    std::thread::sleep(Duration::from_millis(300));

    client
        .write(Value::from_u64(3))
        .expect("write across the resplice");
    // The rejoined s2 must still be in the ring and serve the latest
    // value — if s0 had falsely declared it crashed, this read (pinned
    // to s2) would return stale data or time out.
    let mut reader = Client::connect_preferring(50, addrs, ServerId(2)).expect("reader");
    reader.set_timeout(Duration::from_millis(500));
    assert_eq!(reader.read().expect("read via s2"), Value::from_u64(3));
    assert_eq!(cluster.alive(), 3);

    cluster.shutdown();
    let _ = fs::remove_dir_all(&base);
}
