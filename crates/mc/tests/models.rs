//! Models of the **real** hts primitives, running on the shims via the
//! `model-check` feature of `hts-metrics` (see the
//! `mc-models.toml` manifest at the workspace root — the L7 lint checks
//! every protocol-crate atomic lives in a module modeled here or is
//! explicitly exempted).
//!
//! What exhaustive exploration proves, per model:
//!
//! * [`FlightRing`] — concurrent `record`s never lose an event within
//!   capacity, and a concurrent `snapshot` never observes a torn slot
//!   (every event's payload passes the consistency checks).
//! * [`Histogram`] / [`Counter`] — concurrent recording loses nothing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use hts_mc::{check, explore, spawn, Mode, Options};
use hts_metrics::flight::{FlightRing, KIND_OP_BEGIN};
use hts_metrics::{Counter, Histogram};

// ---------------------------------------------------------------------
// FlightRing: the per-op recorder from crates/metrics/flight.rs.
// ---------------------------------------------------------------------

/// Events record `a == b` so any torn slot that slipped past the seq +
/// checksum validation is detectable in the payload itself.
fn assert_coherent<const N: usize>(ring: &FlightRing<N>) -> usize {
    let events = ring.snapshot();
    for e in &events {
        assert_eq!(e.a, e.b, "torn flight slot escaped validation: {e:?}");
        assert_eq!(e.kind, KIND_OP_BEGIN, "kind byte corrupted");
    }
    events.len()
}

#[test]
fn flight_ring_two_writers_exhaustive() {
    // Two concurrent writers into a 2-slot ring: both events must be
    // readable after the dust settles, with intact payloads.
    let report = check(Mode::Exhaustive, Options::named("flight-2w"), || {
        let ring: Arc<FlightRing<2>> = Arc::new(FlightRing::new());
        let hs: Vec<_> = (1..=2u64)
            .map(|i| {
                let ring = Arc::clone(&ring);
                spawn(move || ring.record(KIND_OP_BEGIN, i, i, 0))
            })
            .collect();
        for h in hs {
            h.join();
        }
        assert_eq!(assert_coherent(&*ring), 2, "an event was lost");
    });
    assert!(report.schedules > 1, "explored: {report:?}");
}

#[test]
fn flight_ring_wrap_vs_snapshot_random() {
    // A writer lapping the 2-slot ring while the main thread snapshots:
    // the snapshot may skip in-progress slots but must never return a
    // torn event. Exercises the wraparound checksum path.
    check(
        Mode::Random {
            seed: 0xF1_16_47,
            iters: 300,
        },
        Options::named("flight-wrap"),
        || {
            let ring: Arc<FlightRing<2>> = Arc::new(FlightRing::new());
            let r2 = Arc::clone(&ring);
            let writer = spawn(move || {
                for i in 1..=3u64 {
                    r2.record(KIND_OP_BEGIN, i, i, 0);
                }
            });
            assert_coherent(&*ring); // concurrent with the writer
            writer.join();
            let n = assert_coherent(&*ring);
            assert!(n >= 1, "quiescent 2-slot ring readable after 3 records");
        },
    );
}

/// Satellite wiring: a failing model dumps its flight ring's per-op
/// event trace alongside the seed, via `Options::failure_hook`. The ring
/// outlives the executions (diagnostics, not model state), so this runs
/// under `Mode::Random` — replay determinism is the seed's job, the dump
/// is the post-mortem's.
#[test]
fn failing_model_dumps_flight_ring() {
    let ring: Arc<FlightRing<8>> = Arc::new(FlightRing::new());
    let dumped = Arc::new(AtomicBool::new(false));
    let hook_ring = Arc::clone(&ring);
    let hook_dumped = Arc::clone(&dumped);
    let opts = Options {
        failure_hook: Some(Arc::new(move |failure| {
            hook_ring.dump_to_stderr(&format!("model '{}' failed", failure.model));
            hook_dumped.store(true, Ordering::SeqCst);
        })),
        ..Options::named("flight-dump-on-failure")
    };
    let model_ring = Arc::clone(&ring);
    let failure = explore(
        Mode::Random {
            seed: 0xDEAD_10AD,
            iters: 200,
        },
        opts,
        move || {
            // The op-begin event precedes the bug, so the post-mortem
            // dump always shows what led up to the failure.
            model_ring.record(KIND_OP_BEGIN, 7, 7, 0);
            let flag = Arc::new(hts_mc::shim::McAtomicU64::new(0));
            let f2 = Arc::clone(&flag);
            let t = spawn(move || {
                f2.store(1, Ordering::SeqCst);
            });
            // BUG under some schedules: asserts the store already landed.
            assert_eq!(flag.load(Ordering::SeqCst), 1, "raced ahead of the store");
            t.join();
        },
    )
    .expect_err("the racy assert must fail under some schedule");
    assert!(failure.seed.is_some(), "random failure reports its seed");
    assert!(dumped.load(Ordering::SeqCst), "failure hook did not run");
    assert!(
        !ring.snapshot().is_empty(),
        "the dumped ring held the recorded events"
    );
}

// ---------------------------------------------------------------------
// Histogram / Counter: crates/metrics/hist.rs and lib.rs.
// ---------------------------------------------------------------------

#[test]
fn counter_concurrent_incs_exhaustive() {
    check(Mode::Exhaustive, Options::named("counter-incs"), || {
        let c = Arc::new(Counter::new());
        let hs: Vec<_> = (0..2)
            .map(|_| {
                let c = Arc::clone(&c);
                spawn(move || c.add(3))
            })
            .collect();
        for h in hs {
            h.join();
        }
        assert_eq!(c.get(), 6, "an add was lost");
    });
}

#[test]
fn histogram_record_snapshot_merge_random() {
    // Two recorders + a concurrent snapshot: recording loses nothing,
    // and merging per-thread-window snapshots equals the total.
    check(
        Mode::Random {
            seed: 0x4157_061A,
            iters: 100,
        },
        Options {
            // A snapshot loads all 256 buckets: deeper schedules than
            // the other models.
            max_steps: 50_000,
            ..Options::named("hist-record")
        },
        || {
            let h = Arc::new(Histogram::new());
            let hs: Vec<_> = [3u64, 300]
                .iter()
                .map(|&v| {
                    let h = Arc::clone(&h);
                    spawn(move || h.record(v))
                })
                .collect();
            let mid = h.snapshot(); // concurrent with the recorders
            assert!(mid.count() <= 2, "phantom recordings");
            for t in hs {
                t.join();
            }
            let done = h.snapshot();
            assert_eq!(done.count(), 2, "a recording was lost");
            assert_eq!(done.sum(), 303);
            // The window since `mid` plus `mid` merges back to the total.
            let mut merged = done.since(&mid);
            merged.merge(&mid);
            assert_eq!(merged.count(), done.count(), "since/merge disagree");
        },
    );
}
