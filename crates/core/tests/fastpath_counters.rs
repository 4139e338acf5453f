//! The core's read fast-path counters: with `Config::read_fast_path`
//! on, every client read counts exactly once — as a hit when answered at
//! once, as a fallback when held (behind a pending pre-write or a
//! restart resync) — and with it off neither counter moves. Its own test
//! binary, so no parallel test shares the process-global counters.
#![cfg(feature = "metrics")]

use hts_core::{Config, ServerCore};
use hts_types::{ClientId, ObjectId, PreWrite, RequestId, RingFrame, ServerId, Tag, Value};

fn counts() -> (u64, u64) {
    (
        hts_metrics::counter("hts_core_read_fastpath_hits_total").get(),
        hts_metrics::counter("hts_core_read_fastpath_fallbacks_total").get(),
    )
}

/// Reads at s0 of a 2-server ring: one with nothing pending, one behind
/// a pre-write from s1, one during a resync (re-served at sync end).
fn exercise(config: Config) -> (u64, u64) {
    let (hits0, falls0) = counts();
    let mut core = ServerCore::new(ServerId(0), 2, ObjectId::SINGLE, config);
    assert_eq!(core.on_client_read(ClientId(1), RequestId(1)).len(), 1);

    let _ = core.on_frame(RingFrame {
        object: ObjectId::SINGLE,
        pre_write: Some(PreWrite {
            tag: Tag::new(1, ServerId(1)),
            value: Value::from_u64(7),
            recovery: false,
        }),
        write: None,
        rejoin: None,
    });
    // Forwarding the pre-write is what pends it.
    assert!(core.next_frame().is_some());
    assert!(core.on_client_read(ClientId(1), RequestId(2)).is_empty());

    core.begin_sync();
    assert!(core.on_client_read(ClientId(1), RequestId(3)).is_empty());
    // Still behind the pending pre-write after the resync: held again,
    // but not counted a second time.
    assert!(core.finish_sync().is_empty());

    let (hits1, falls1) = counts();
    (hits1 - hits0, falls1 - falls0)
}

#[test]
fn every_read_counts_once_and_only_with_the_fast_path_on() {
    let on = Config {
        read_fast_path: true,
        ..Config::default()
    };
    assert_eq!(
        exercise(on),
        (1, 2),
        "(hits, fallbacks) with the fast path on"
    );
    assert_eq!(
        exercise(Config::default()),
        (0, 0),
        "(hits, fallbacks) with the fast path off"
    );
}
