//! Pins the zero-copy path's allocation profile with a counting global
//! allocator:
//!
//! * [`codec::decode_shared`] performs **zero** heap allocations — every
//!   decoded `Value` is a refcounted view of the input buffer;
//! * a steady-state [`NbMessageReader`] loop over value-free messages
//!   costs at most one small allocation per message (the shared
//!   buffer's refcount block, reclaimed again by the recycler) — never
//!   anything proportional to message size.
//!
//! Everything runs in one `#[test]` so no parallel test thread pollutes
//! the counts (this file is its own test binary, so the allocator hook
//! is scoped to exactly these assertions).

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Cursor;
use std::sync::atomic::{AtomicU64, Ordering};

use hts_net::{MessagePoll, NbMessageReader};
use hts_types::{codec, Message, ObjectId, RequestId, Value};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System`; the counter is the only
// addition and touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

/// `count` copies of `msg`, each length-prefixed as on the wire.
fn framed(msg: &Message, count: usize) -> Vec<u8> {
    let body = codec::encode(msg);
    let mut buf = Vec::new();
    for _ in 0..count {
        buf.extend_from_slice(&(body.len() as u32).to_be_bytes());
        buf.extend_from_slice(&body);
    }
    buf
}

/// The next message of `cursor`, which must hold a whole one.
fn read_one(reader: &mut NbMessageReader, cursor: &mut Cursor<Vec<u8>>) -> Message {
    match reader.poll(cursor).expect("read") {
        MessagePoll::Msg(msg) => msg,
        other => panic!("expected a message, got {other:?}"),
    }
}

fn write_req(len: usize) -> Message {
    Message::WriteReq {
        object: ObjectId(1),
        request: RequestId(2),
        value: Value::filled(9, len),
    }
}

#[test]
fn steady_state_allocation_profile() {
    // --- decode_shared: zero allocations, even for a 64 KiB value. ---
    let msg = write_req(64 * 1024);
    let encoded = codec::encode(&msg);
    let (allocs, decoded) = allocs_during(|| codec::decode_shared(&encoded).expect("decode"));
    assert_eq!(decoded, msg);
    assert_eq!(
        allocs, 0,
        "decode_shared must not allocate: values are views of the input"
    );
    // The copying decode pays for the same message.
    let (copying_allocs, _) = allocs_during(|| codec::decode(&encoded).expect("decode"));
    assert!(
        copying_allocs >= 1,
        "expected the copying decode to allocate, counted {copying_allocs}"
    );
    drop(decoded);

    // --- NbMessageReader: ≤ 1 small allocation per value-free message. ---
    let ack = Message::WriteAck {
        object: ObjectId(1),
        request: RequestId(2),
    };
    let mut cursor = Cursor::new(framed(&ack, 64));
    let mut reader = NbMessageReader::new();
    for _ in 0..8 {
        assert_eq!(read_one(&mut reader, &mut cursor), ack);
    }
    let (allocs, ()) = allocs_during(|| {
        for _ in 0..56 {
            assert_eq!(read_one(&mut reader, &mut cursor), ack);
        }
    });
    assert!(
        allocs <= 56,
        "steady-state value-free reads must cost at most one allocation \
         per message (the refcount block); counted {allocs} over 56 reads"
    );
}
