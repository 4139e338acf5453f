//! Layer replays: the workload's own op stream pushed through one layer
//! at a time, with no sockets and no other layer running.
//!
//! * core: `n` [`MultiObjectServer`]s in memory; each server's drained
//!   ring frames feed its successor's `on_frame`. Its counts repeat
//!   exactly for a seed.
//! * codec: the client requests, replies and ring batches of the same
//!   stream through `encode_into` / `decode_shared`.
//! * wal: `append_batch` and `compact` on a fresh log in the run's
//!   directory, with the workload's record size and live state.

use std::fs;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;

use bytes::{Bytes, BytesMut};
use hts_core::{Action, MultiObjectServer};
use hts_types::codec::{decode_shared, encode_into, frame_wire_size, wire_size};
use hts_types::{ClientId, Message, ObjectId, RequestId, RingFrame, ServerId, Tag, Value};
use hts_wal::{FsyncPolicy, Wal, WalOptions, WalRecord};

use crate::stats::{median, ratio};
use crate::trace::Tracer;
use crate::workload::{stamped_value, Op, OpStream, Workload, SERVERS};

/// Ops of the stream the core replay pushes through the ring.
const CORE_OPS: usize = 4096;
/// Timed core replays; the step cost is their median.
const CORE_REPS: usize = 3;
/// Bytes of messages the codec replay keeps in memory per kind.
const CODEC_BYTES: usize = 32 << 20;
/// Timed passes over each codec message set; costs are their median.
const CODEC_ROUNDS: usize = 5;
/// Group commits the WAL replay times.
const WAL_BATCHES: usize = 200;
/// Compactions the WAL replay times.
const COMPACT_REPS: usize = 3;

/// What the in-memory ring replay counted and timed.
#[derive(Debug, Clone)]
pub struct CoreReplay {
    /// Client ops replayed.
    pub ops: u64,
    /// Writes among them.
    pub writes: u64,
    /// Core entry calls (`on_client_*`, `on_frame`).
    pub steps: u64,
    /// Ring frames drained.
    pub frames: u64,
    /// Median time per step, in ns.
    pub step_ns: f64,
    /// Every ring frame of the last replay, in drain order.
    pub frame_log: Vec<RingFrame>,
}

impl CoreReplay {
    /// Ring frames per write.
    pub fn frames_per_write(&self) -> f64 {
        ratio(self.frames as f64, self.writes as f64)
    }

    /// Core steps per client op.
    pub fn steps_per_op(&self) -> f64 {
        ratio(self.steps as f64, self.ops as f64)
    }
}

/// `n` in-memory servers wired into a ring.
struct Ring {
    servers: Vec<MultiObjectServer>,
    max_frames: usize,
    max_bytes: usize,
    durable: bool,
    steps: u64,
    frames: u64,
    completions: u64,
    frame_log: Option<Vec<RingFrame>>,
}

impl Ring {
    fn new(workload: &Workload) -> Ring {
        let config = workload.effective_config();
        Ring {
            servers: (0..SERVERS)
                .map(|i| MultiObjectServer::new(ServerId(i), SERVERS, config.clone()))
                .collect(),
            max_frames: config.batching.max_frames,
            max_bytes: config.batching.max_bytes,
            durable: workload.durable,
            steps: 0,
            frames: 0,
            completions: 0,
            frame_log: None,
        }
    }

    fn absorb(&mut self, actions: Vec<Action>) {
        self.steps += 1;
        self.completions += actions.len() as u64;
    }

    /// One client op at server 0, where the live session sends them too.
    fn client(&mut self, request: u64, op: Op, value: Option<Value>) {
        let object = ObjectId(op.key);
        let (client, request) = (ClientId(1), RequestId(request));
        let actions = match value {
            None => self.servers[0].on_client_read(object, client, request),
            Some(value) => self.servers[0].on_client_write(object, client, request, value),
        };
        self.absorb(actions);
    }

    /// One transmission slot per server: drains a batch and delivers it
    /// to the successor. Returns whether any frame moved.
    fn pump(&mut self) -> bool {
        let mut moved = false;
        for i in 0..self.servers.len() {
            let batch = self.servers[i].drain_frames(self.max_frames, self.max_bytes);
            if self.durable {
                // The runtime logs these; the replay only keeps them from piling up.
                self.servers[i].drain_commits();
            }
            if batch.is_empty() {
                continue;
            }
            moved = true;
            self.frames += batch.len() as u64;
            let next = self.servers[i]
                .successor()
                .expect("a ring with no crashes has a successor")
                .index();
            for frame in batch {
                if let Some(log) = self.frame_log.as_mut() {
                    log.push(frame.clone());
                }
                let actions = self.servers[next].on_frame(frame);
                self.absorb(actions);
            }
        }
        moved
    }

    /// Pumps until at most `limit` client ops are outstanding.
    fn settle(&mut self, issued: u64, limit: u64) {
        while issued - self.completions > limit {
            assert!(
                self.pump(),
                "the in-memory ring stalled with ops outstanding"
            );
        }
    }
}

/// Replays the first [`CORE_OPS`] ops of the stream (after priming every
/// key) through an in-memory ring, keeping `window` ops outstanding.
pub fn core_replay(workload: &Workload, seed: u64, tracer: &mut Tracer) -> CoreReplay {
    let span = tracer.open("core.replay", 0, 0);
    let mut seqs = vec![1u64; workload.keys as usize];
    let ops: Vec<(Op, Option<Value>)> = OpStream::new(workload, seed)
        .take(CORE_OPS)
        .map(|op| {
            let value = (!op.read).then(|| {
                seqs[op.key as usize] += 1;
                stamped_value(op.key, seqs[op.key as usize], workload.value_size)
            });
            (op, value)
        })
        .collect();
    let window = workload.window as u64;
    let mut step_ns = Vec::with_capacity(CORE_REPS);
    let mut last = None;
    for rep in 0..CORE_REPS {
        let mut ring = Ring::new(workload);
        for key in 0..workload.keys {
            let value = stamped_value(key, 1, workload.value_size);
            ring.client(u64::from(key), Op { key, read: false }, Some(value));
            ring.settle(u64::from(key) + 1, window - 1);
        }
        ring.settle(u64::from(workload.keys), 0);
        let primed = (ring.steps, ring.frames, ring.completions);
        ring.steps = 0;
        ring.frames = 0;
        ring.completions = 0;
        if rep + 1 == CORE_REPS {
            ring.frame_log = Some(Vec::new());
        }
        let timed = tracer.open("core.steps", span, 0);
        let t0 = Instant::now();
        let mut issued = 0;
        for (i, (op, value)) in ops.iter().enumerate() {
            ring.settle(issued, window - 1);
            ring.client(primed.2 + i as u64, *op, value.clone());
            issued += 1;
        }
        ring.settle(issued, 0);
        let elapsed = t0.elapsed();
        tracer.close(timed);
        step_ns.push(elapsed.as_nanos() as f64 / ring.steps as f64);
        last = Some(ring);
    }
    tracer.close(span);
    let ring = last.expect("CORE_REPS is positive");
    CoreReplay {
        ops: ops.len() as u64,
        writes: ops.iter().filter(|(op, _)| !op.read).count() as u64,
        steps: ring.steps,
        frames: ring.frames,
        step_ns: median(&mut step_ns).unwrap_or(0.0),
        frame_log: ring.frame_log.unwrap_or_default(),
    }
}

/// Codec cost per message, in ns.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodecCost {
    /// `encode_into` per message.
    pub encode_ns: f64,
    /// `decode_shared` per message.
    pub decode_ns: f64,
}

/// What the codec replay measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodecReplay {
    /// The client requests (`WriteReq` / `ReadReq`) of the stream.
    pub client_req: CodecCost,
    /// Their replies (`WriteAck` / `ReadAck`).
    pub reply: CodecCost,
    /// `RingBatch` messages of the replayed ring frames.
    pub ring_batch: CodecCost,
    /// Encoded bytes per client op: request, reply and its share of every
    /// ring batch on every hop.
    pub wire_bytes_per_op: f64,
}

fn time_codec(messages: &[Message], span_name: &'static str, tracer: &mut Tracer) -> CodecCost {
    if messages.is_empty() {
        return CodecCost::default();
    }
    let span = tracer.open(span_name, 0, 0);
    let encoded: Vec<Bytes> = messages
        .iter()
        .map(|m| {
            let mut buf = BytesMut::with_capacity(wire_size(m));
            encode_into(m, &mut buf);
            buf.freeze()
        })
        .collect();
    let mut buf = BytesMut::with_capacity(encoded.iter().map(|b| b.len()).max().unwrap_or(0));
    let n = messages.len() as f64;
    let mut enc = Vec::with_capacity(CODEC_ROUNDS);
    let mut dec = Vec::with_capacity(CODEC_ROUNDS);
    for _ in 0..CODEC_ROUNDS {
        let t0 = Instant::now();
        for m in messages {
            buf.clear();
            encode_into(black_box(m), &mut buf);
            black_box(&buf);
        }
        enc.push(t0.elapsed().as_nanos() as f64 / n);
        let t0 = Instant::now();
        for bytes in &encoded {
            black_box(decode_shared(black_box(bytes)).expect("replayed messages decode"));
        }
        dec.push(t0.elapsed().as_nanos() as f64 / n);
    }
    tracer.close(span);
    CodecCost {
        encode_ns: median(&mut enc).unwrap_or(0.0),
        decode_ns: median(&mut dec).unwrap_or(0.0),
    }
}

/// Takes messages from the front until [`CODEC_BYTES`] of them are held.
fn capped(messages: Vec<Message>) -> Vec<Message> {
    let mut bytes = 0;
    messages
        .into_iter()
        .take_while(|m| {
            bytes += wire_size(m);
            bytes <= CODEC_BYTES
        })
        .collect()
}

/// Replays the stream's client messages and the core replay's ring
/// frames, batched `frames_per_batch` (the live run's mean) at a time.
pub fn codec_replay(
    workload: &Workload,
    seed: u64,
    core: &CoreReplay,
    frames_per_batch: f64,
    tracer: &mut Tracer,
) -> CodecReplay {
    let mut seqs = vec![1u64; workload.keys as usize];
    let mut current: Vec<Value> = (0..workload.keys)
        .map(|key| stamped_value(key, 1, workload.value_size))
        .collect();
    let mut requests = Vec::with_capacity(CORE_OPS);
    let mut replies = Vec::with_capacity(CORE_OPS);
    for (i, op) in OpStream::new(workload, seed).take(CORE_OPS).enumerate() {
        let (object, request) = (ObjectId(op.key), RequestId(i as u64));
        let k = op.key as usize;
        if op.read {
            requests.push(Message::ReadReq { object, request });
            replies.push(Message::ReadAck {
                object,
                request,
                value: current[k].clone(),
            });
        } else {
            seqs[k] += 1;
            current[k] = stamped_value(op.key, seqs[k], workload.value_size);
            requests.push(Message::WriteReq {
                object,
                request,
                value: current[k].clone(),
            });
            replies.push(Message::WriteAck { object, request });
        }
    }
    let batch_frames = (frames_per_batch.round() as usize).max(1);
    let batches: Vec<Message> = core
        .frame_log
        .chunks(batch_frames)
        .map(|c| Message::RingBatch(c.to_vec()))
        .collect();
    let client_bytes: usize = requests.iter().chain(&replies).map(wire_size).sum();
    let ring_bytes: usize = core.frame_log.iter().map(frame_wire_size).sum::<usize>()
        + batches.len() * wire_size(&Message::RingBatch(Vec::new()));
    let wire_bytes_per_op =
        client_bytes as f64 / requests.len() as f64 + ring_bytes as f64 / core.ops as f64;
    CodecReplay {
        client_req: time_codec(&capped(requests), "codec.client_req", tracer),
        reply: time_codec(&capped(replies), "codec.reply", tracer),
        ring_batch: time_codec(&capped(batches), "codec.ring_batch", tracer),
        wire_bytes_per_op,
    }
}

/// What the WAL replay measured.
#[derive(Debug, Clone, Copy)]
pub struct WalReplay {
    /// Records per timed group commit.
    pub group: usize,
    /// Median `append_batch` (write plus fsync) time, in µs.
    pub append_batch_us: f64,
    /// Median `compact` time over the workload's live state, in ms.
    pub compact_ms: f64,
}

/// Times group commits of `records_per_group` (the live mean) records and
/// compactions of one record per key, on a fresh log in `dir`.
pub fn wal_replay(
    workload: &Workload,
    seed: u64,
    dir: &Path,
    records_per_group: f64,
    tracer: &mut Tracer,
) -> io::Result<WalReplay> {
    let _ = fs::remove_dir_all(dir);
    let options = WalOptions {
        fsync: FsyncPolicy::Always,
        ..WalOptions::default()
    };
    let mut wal = Wal::open(dir, options)?;
    let group = (records_per_group.round() as usize).max(1);
    let mut stream = OpStream::new(workload, seed);
    let mut ts = 0u64;
    let mut record = |key: u32, seq: u64| {
        ts += 1;
        WalRecord {
            object: ObjectId(key),
            tag: Tag::new(ts, ServerId(0)),
            value: stamped_value(key, seq, workload.value_size),
        }
    };
    let span = tracer.open("wal.replay", 0, 0);
    let mut append_us = Vec::with_capacity(WAL_BATCHES);
    for i in 0..WAL_BATCHES {
        let records: Vec<WalRecord> = (0..group)
            .map(|j| {
                let op = stream.next().expect("op streams are endless");
                record(op.key, (i * group + j) as u64 + 2)
            })
            .collect();
        let s = tracer.open("wal.append_batch", span, 0);
        let t0 = Instant::now();
        wal.append_batch(&records)?;
        append_us.push(t0.elapsed().as_secs_f64() * 1e6);
        tracer.close(s);
    }
    let state: Vec<WalRecord> = (0..workload.keys).map(|key| record(key, 1)).collect();
    let mut compact_ms = Vec::with_capacity(COMPACT_REPS);
    for _ in 0..COMPACT_REPS {
        let s = tracer.open("wal.compact", span, 0);
        let t0 = Instant::now();
        wal.compact(&state)?;
        compact_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        tracer.close(s);
    }
    tracer.close(span);
    drop(wal);
    fs::remove_dir_all(dir)?;
    Ok(WalReplay {
        group,
        append_batch_us: median(&mut append_us).unwrap_or(0.0),
        compact_ms: median(&mut compact_ms).unwrap_or(0.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_replay_counts_repeat_exactly() {
        let w = Workload::by_name("read_mostly_large").expect("known workload");
        let mut off = Tracer::new(false);
        let a = core_replay(&w, 5, &mut off);
        let b = core_replay(&w, 5, &mut off);
        assert_eq!(
            (a.ops, a.writes, a.steps, a.frames),
            (b.ops, b.writes, b.steps, b.frames)
        );
        assert!(a.writes > 0 && a.frames > 0);
        // Every write crosses every hop at least once.
        assert!(a.frames_per_write() >= f64::from(SERVERS));
        assert_eq!(a.frame_log.len() as u64, a.frames);
    }
}
