//! End-to-end tests of the TCP runtime on localhost.

use std::time::Duration;

use hts_net::{Client, Cluster};
use hts_types::{ObjectId, ServerId, Value};

#[test]
fn write_then_read_through_different_servers() {
    let cluster = Cluster::launch(3).expect("launch");
    let addrs = cluster.addrs();

    let mut writer = Client::connect(1, addrs.clone()).expect("writer");
    writer.write(Value::from_u64(7)).expect("write");

    // Read through each server: all must return the committed value.
    for (i, _) in addrs.iter().enumerate() {
        let mut reader =
            Client::connect_preferring(100 + i as u32, addrs.clone(), ServerId(i as u16))
                .expect("reader");
        let got = reader.read().expect("read");
        assert_eq!(got, Value::from_u64(7), "reader {i}");
    }
    cluster.shutdown();
}

#[test]
fn multiple_objects_are_independent() {
    let cluster = Cluster::launch(2).expect("launch");
    let mut client = Client::connect(1, cluster.addrs()).expect("client");
    client
        .write_to(ObjectId(1), Value::from_u64(11))
        .expect("write obj1");
    client
        .write_to(ObjectId(2), Value::from_u64(22))
        .expect("write obj2");
    assert_eq!(
        client.read_from(ObjectId(1)).expect("read obj1"),
        Value::from_u64(11)
    );
    assert_eq!(
        client.read_from(ObjectId(2)).expect("read obj2"),
        Value::from_u64(22)
    );
    assert_eq!(
        client.read_from(ObjectId(9)).expect("read obj9"),
        Value::bottom()
    );
    cluster.shutdown();
}

#[test]
fn sequential_writes_converge() {
    let cluster = Cluster::launch(3).expect("launch");
    let mut client = Client::connect(1, cluster.addrs()).expect("client");
    for i in 1..=20u64 {
        client.write(Value::from_u64(i)).expect("write");
    }
    assert_eq!(client.read().expect("read"), Value::from_u64(20));
    cluster.shutdown();
}

#[test]
fn survives_server_crash_with_client_retry() {
    let mut cluster = Cluster::launch(3).expect("launch");
    let mut client = Client::connect(1, cluster.addrs()).expect("client");
    client.set_timeout(Duration::from_millis(300));
    client.write(Value::from_u64(1)).expect("write before");

    // Kill the server the client prefers (s0): retries must carry on.
    cluster.crash(ServerId(0)).expect("crash");
    std::thread::sleep(Duration::from_millis(100)); // let the ring splice

    client.write(Value::from_u64(2)).expect("write after crash");
    assert_eq!(client.read().expect("read"), Value::from_u64(2));
    assert_eq!(cluster.alive(), 2);
    cluster.shutdown();
}

#[test]
fn single_server_cluster_works() {
    let cluster = Cluster::launch(1).expect("launch");
    let mut client = Client::connect(1, cluster.addrs()).expect("client");
    client.write(Value::from_u64(5)).expect("write");
    assert_eq!(client.read().expect("read"), Value::from_u64(5));
    cluster.shutdown();
}

#[test]
fn concurrent_clients_from_threads() {
    let cluster = Cluster::launch(3).expect("launch");
    let addrs = cluster.addrs();
    let mut handles = Vec::new();
    for t in 0..4u32 {
        let addrs = addrs.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(10 + t, addrs).expect("client");
            for i in 0..10u64 {
                client
                    .write(Value::from_u64(u64::from(t) * 1000 + i))
                    .expect("write");
                let _ = client.read().expect("read");
            }
        }));
    }
    for h in handles {
        h.join().expect("thread");
    }
    cluster.shutdown();
}
