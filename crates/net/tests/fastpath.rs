//! End-to-end tests of the read fast path (`Config::read_fast_path`, the
//! core's A2 rule) over real TCP: reads answered at once by the core are
//! counted as hits — plus a lincheck run with the fast path enabled
//! across a kill + restart.

use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hts_core::Config;
use hts_lincheck::{check_conditions, History};
use hts_net::{Client, Cluster};
use hts_types::{ClientId, ObjectId, ServerId, Value};

fn tmp_base(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hts-net-fastpath-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn nanos_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// With the ring idle, the core answers every read at once — the hit
/// counter must move, and the values must be the last write.
#[cfg(feature = "metrics")]
#[test]
fn idle_ring_reads_hit_the_fast_path() {
    let cluster = Cluster::launch_with(
        3,
        Config {
            read_fast_path: true,
            ..Config::default()
        },
    )
    .expect("launch");
    let mut client = Client::connect(1, cluster.addrs()).expect("client");

    client.write(Value::from_u64(41)).expect("warm-up write");
    client.write(Value::from_u64(42)).expect("write");

    let hits_before = hts_metrics::counter("hts_core_read_fastpath_hits_total").get();
    for _ in 0..16 {
        assert_eq!(client.read().expect("read"), Value::from_u64(42));
    }
    let hits_after = hts_metrics::counter("hts_core_read_fastpath_hits_total").get();
    assert!(
        hits_after >= hits_before + 16,
        "expected >= 16 fast-path hits, counter moved {hits_before} -> {hits_after}"
    );

    // An object nobody wrote reads bottom through the same path.
    assert_eq!(
        client.read_from(ObjectId(9)).expect("read fresh object"),
        Value::bottom()
    );
    cluster.shutdown();
}

/// Concurrent writers and readers with the fast path on, a server
/// bounced mid-run, and the full history checked for atomicity: the A2
/// rule must never serve a value a read could not linearize on.
#[test]
fn fast_path_stays_atomic_through_kill_restart() {
    let base = tmp_base("lincheck");
    let config = Config {
        read_fast_path: true,
        ..Config::default()
    };
    let mut cluster = Cluster::launch_durable(3, config, &base).expect("launch");
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
                if i % 2 == 1 {
                    // Read-heavy mix: half the ops are reads.
                    let op = {
                        let mut h = history.lock().unwrap();
                        h.invoke_read(id, nanos_since(epoch))
                    };
                    let got = client.read().expect("read");
                    let mut h = history.lock().unwrap();
                    h.complete_read(op, got, nanos_since(epoch));
                } else {
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

    // Bounce s2 while the workers hammer the ring: its restored state
    // must stay unreadable (the core holds reads) until resync ends.
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
        "fast-path atomicity violations across kill+restart: {violations:?}\n{history}"
    );

    cluster.shutdown();
    let _ = fs::remove_dir_all(&base);
}
