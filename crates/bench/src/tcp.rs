//! Real-socket load harness: drives a live [`Cluster`] (the `hts-net`
//! TCP runtime — actual threads, actual sockets, actual codec work) with
//! closed-loop blocking clients, so the zero-copy decode path and the
//! read fast path are exercised for real. The packet-model
//! harness in [`harness`](crate::harness) never touches the wire codec;
//! this one is nothing but the wire.
//!
//! Windowing mirrors the simulated harness: a warm-up phase (connections
//! settle, caches fill), then a timed measurement window during which
//! each worker records completed operations and their wall-clock
//! latencies, then shutdown. Server-side observables (fast-path hit
//! counters, process CPU) are isolated per run by snapshot diffs of the
//! process-global metrics registry taken at the window edges.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hts_core::Config;
use hts_net::{Client, Cluster, Session};
use hts_types::{ObjectId, ServerId, Value};

/// Parameters of one TCP-runtime run.
pub struct TcpParams {
    /// Servers in the ring.
    pub n: u16,
    /// Closed-loop writer clients (spread round-robin across servers).
    pub writers: u32,
    /// Closed-loop reader clients (spread round-robin across servers).
    pub readers: u32,
    /// Payload bytes per write.
    pub value_size: usize,
    /// Settling time before the measurement window.
    pub warmup: Duration,
    /// The measurement window.
    pub measure: Duration,
    /// Protocol configuration under test.
    pub config: Config,
    /// Operations each worker keeps in flight. `1` is the sequential
    /// [`Client`]; anything wider drives a pipelined [`Session`] (one
    /// socket per server, `window` concurrent ops), which is how a
    /// high-connection-count workload is expressed: many workers, each a
    /// session.
    pub window: usize,
    /// One register per worker instead of a shared one, so multi-lane
    /// servers spread the load across their ring lanes.
    pub distinct_objects: bool,
}

impl Default for TcpParams {
    fn default() -> TcpParams {
        TcpParams {
            n: 3,
            writers: 0,
            readers: 0,
            value_size: 64,
            warmup: Duration::from_millis(100),
            measure: Duration::from_millis(250),
            config: Config::default(),
            window: 1,
            distinct_objects: false,
        }
    }
}

/// What one TCP run measured.
pub struct TcpMeasurement {
    /// Writes completed inside the measurement window.
    pub writes: u64,
    /// Reads completed inside the measurement window.
    pub reads: u64,
    /// Client write payload throughput (Mbit/s) over the window.
    pub write_mbps: f64,
    /// Client read payload throughput (Mbit/s) over the window.
    pub read_mbps: f64,
    /// Per-write wall-clock latencies (nanoseconds), window only.
    pub write_lat_nanos: Vec<u64>,
    /// Per-read wall-clock latencies (nanoseconds), window only.
    pub read_lat_nanos: Vec<u64>,
    /// Reads the core answered at once under `read_fast_path` (window
    /// delta of `hts_core_read_fastpath_hits_total`; 0 with metrics off).
    pub fastpath_hits: u64,
    /// Reads the core held under `read_fast_path` (window delta of
    /// `hts_core_read_fastpath_fallbacks_total`).
    pub fastpath_fallbacks: u64,
    /// Whole-process CPU microseconds per completed operation over the
    /// window (`NaN` where unsupported).
    pub cpu_us_per_op: f64,
}

const WARMUP: u8 = 0;
const MEASURE: u8 = 1;
const DONE: u8 = 2;

/// Runs one closed-loop load against a freshly launched TCP cluster.
///
/// # Panics
///
/// Panics on launch/connect/op failures — a bench run with a dead
/// cluster has no meaningful numbers to report.
pub fn run_tcp(params: &TcpParams) -> TcpMeasurement {
    let cluster = Cluster::launch_with(params.n, params.config.clone()).expect("launch cluster");
    let addrs = cluster.addrs();
    let phase = Arc::new(AtomicU8::new(WARMUP));
    let object = ObjectId(1);

    let spawn_worker = |id: u32, is_writer: bool| {
        let addrs = addrs.clone();
        let phase = Arc::clone(&phase);
        let value_size = params.value_size;
        let n = params.n;
        let window = params.window.max(1);
        let object = if params.distinct_objects {
            ObjectId(id)
        } else {
            object
        };
        std::thread::spawn(move || {
            let preferred = ServerId((id % u32::from(n)) as u16);
            let value = Value::filled(0x42, value_size);
            let mut ops = 0u64;
            let mut lats = Vec::new();
            if window == 1 {
                let mut client = Client::connect_preferring(id, addrs, preferred).expect("connect");
                client.set_timeout(Duration::from_secs(2));
                loop {
                    match phase.load(Ordering::Relaxed) {
                        DONE => return (ops, lats),
                        current => {
                            let t0 = Instant::now();
                            if is_writer {
                                client.write_to(object, value.clone()).expect("write");
                            } else {
                                client.read_from(object).expect("read");
                            }
                            if current == MEASURE {
                                ops += 1;
                                lats.push(t0.elapsed().as_nanos() as u64);
                            }
                        }
                    }
                }
            }
            // Pipelined worker: one session, `window` ops in flight
            // (fill the window, then complete-oldest/issue-one).
            let mut session =
                Session::connect_preferring(id, addrs, preferred, window).expect("connect");
            session.set_timeout(Duration::from_secs(2));
            let mut in_flight: VecDeque<(hts_types::RequestId, Instant)> =
                VecDeque::with_capacity(window);
            loop {
                let current = phase.load(Ordering::Relaxed);
                if current == DONE {
                    for (request, _) in in_flight.drain(..) {
                        let _ = session.wait(request);
                    }
                    return (ops, lats);
                }
                while in_flight.len() < window {
                    let request = if is_writer {
                        session
                            .begin_write_to(object, value.clone())
                            .expect("begin_write")
                    } else {
                        session.begin_read_from(object).expect("begin_read")
                    };
                    in_flight.push_back((request, Instant::now()));
                }
                let (request, t0) = in_flight.pop_front().expect("window is full");
                session.wait(request).expect("wait");
                if current == MEASURE {
                    ops += 1;
                    lats.push(t0.elapsed().as_nanos() as u64);
                }
            }
        })
    };

    let writers: Vec<_> = (0..params.writers)
        .map(|w| spawn_worker(w + 1, true))
        .collect();
    let readers: Vec<_> = (0..params.readers)
        .map(|r| spawn_worker(1_000 + r, false))
        .collect();

    std::thread::sleep(params.warmup);
    let hits0 = hts_metrics::counter("hts_core_read_fastpath_hits_total").get();
    let falls0 = hts_metrics::counter("hts_core_read_fastpath_fallbacks_total").get();
    let cpu0 = hts_metrics::process_cpu_nanos();
    phase.store(MEASURE, Ordering::SeqCst);
    std::thread::sleep(params.measure);
    phase.store(DONE, Ordering::SeqCst);
    let hits = hts_metrics::counter("hts_core_read_fastpath_hits_total").get() - hits0;
    let falls = hts_metrics::counter("hts_core_read_fastpath_fallbacks_total").get() - falls0;
    let cpu1 = hts_metrics::process_cpu_nanos();

    let mut writes = 0u64;
    let mut reads = 0u64;
    let mut write_lat_nanos = Vec::new();
    let mut read_lat_nanos = Vec::new();
    for worker in writers {
        let (ops, lats) = worker.join().expect("writer thread");
        writes += ops;
        write_lat_nanos.extend(lats);
    }
    for worker in readers {
        let (ops, lats) = worker.join().expect("reader thread");
        reads += ops;
        read_lat_nanos.extend(lats);
    }
    cluster.shutdown();

    let secs = params.measure.as_secs_f64();
    let mbps = |ops: u64| ops as f64 * params.value_size as f64 * 8.0 / secs / 1e6;
    let total_ops = writes + reads;
    let cpu_us_per_op = match (cpu0, cpu1) {
        (Some(before), Some(after)) if total_ops > 0 => {
            after.saturating_sub(before) as f64 / total_ops as f64 / 1e3
        }
        _ => f64::NAN,
    };
    TcpMeasurement {
        writes,
        reads,
        write_mbps: mbps(writes),
        read_mbps: mbps(reads),
        write_lat_nanos,
        read_lat_nanos,
        fastpath_hits: hits,
        fastpath_fallbacks: falls,
        cpu_us_per_op,
    }
}
