//! The benchmark's workloads, their seeded op streams and the stamped
//! values that let every read be checked.

use hts_core::{Config, Durability};
use hts_types::Value;

/// Servers in every benchmarked ring.
pub const SERVERS: u16 = 3;

/// One named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// The name given on the command line.
    pub name: &'static str,
    /// Distinct keys (one register object each); every key is written
    /// once during set-up.
    pub keys: u32,
    /// Bytes per written value.
    pub value_size: usize,
    /// Share of reads in the op stream, in percent.
    pub read_percent: u64,
    /// Operations the session keeps in flight.
    pub window: usize,
    /// Launch the cluster with a write-ahead log (`SyncAlways`), and crash
    /// and restart one server after the measured window.
    pub durable: bool,
}

/// Every workload. Each stresses a different layer:
/// * `write_small`: per-message costs (ring hops and batching, core steps,
///   reactor wakeups, session bookkeeping); values are tiny, no WAL;
/// * `read_mostly_large`: value bytes (socket copies, decode, the local
///   read path), with writes on the same keys so reads block behind
///   in-flight writes;
/// * `write_durable`: the WAL (group commit, fsync, compaction of 4 MiB
///   of live state per server) and restart recovery.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "write_small",
        keys: 1024,
        value_size: 64,
        read_percent: 0,
        window: 32,
        durable: false,
    },
    Workload {
        name: "read_mostly_large",
        keys: 256,
        value_size: 64 * 1024,
        read_percent: 90,
        window: 8,
        durable: false,
    },
    Workload {
        name: "write_durable",
        keys: 1024,
        value_size: 4 * 1024,
        read_percent: 0,
        window: 32,
        durable: true,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The protocol configuration the servers run with: the paper default,
    /// plus the durability `Cluster::launch_durable` switches on.
    pub fn effective_config(&self) -> Config {
        let mut config = Config::default();
        if self.durable {
            config.durability = Durability::SyncAlways;
        }
        config
    }
}

/// SplitMix64: a tiny deterministic generator, so one printed seed
/// replays a whole op stream.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One client operation of a workload's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// The key (register object) it addresses.
    pub key: u32,
    /// A read, else a write.
    pub read: bool,
}

/// The endless, seed-determined op stream of a workload: keys uniform
/// over the key space, reads with the workload's probability.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: SplitMix64,
    keys: u32,
    read_percent: u64,
}

impl OpStream {
    /// The stream of `workload` under `seed`.
    pub fn new(workload: &Workload, seed: u64) -> OpStream {
        OpStream {
            rng: SplitMix64::new(seed),
            keys: workload.keys,
            read_percent: workload.read_percent,
        }
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let key = (self.rng.next_u64() % u64::from(self.keys)) as u32;
        let read = self.rng.next_u64() % 100 < self.read_percent;
        Some(Op { key, read })
    }
}

/// Bytes at the front of every value: the key (u32 LE), then the write's
/// per-key sequence number (u64 LE).
pub const STAMP_BYTES: usize = 12;

/// The value write number `seq` of `key` stores: the stamp, then a fill
/// byte derived from both, to `size` bytes.
pub fn stamped_value(key: u32, seq: u64, size: usize) -> Value {
    assert!(size >= STAMP_BYTES, "values must hold the stamp");
    let mut bytes = vec![fill_byte(key, seq); size];
    bytes[..4].copy_from_slice(&key.to_le_bytes());
    bytes[4..STAMP_BYTES].copy_from_slice(&seq.to_le_bytes());
    Value::from(bytes)
}

fn fill_byte(key: u32, seq: u64) -> u8 {
    (u64::from(key).wrapping_mul(131).wrapping_add(seq) % 251) as u8
}

/// What is wrong with a value that does not parse as a stamped value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Malformed {
    /// Not the workload's value size.
    Length { expected: usize, got: usize },
    /// The stamp names another key.
    Key { expected: u32, got: u32 },
    /// The last byte does not match the stamp (torn or foreign value).
    Fill,
}

/// Parses a value read from `key`: checks its length, its key and its
/// last fill byte, and returns the write's sequence number.
pub fn read_stamp(key: u32, bytes: &[u8], size: usize) -> Result<u64, Malformed> {
    if bytes.len() != size || size < STAMP_BYTES {
        return Err(Malformed::Length {
            expected: size,
            got: bytes.len(),
        });
    }
    let mut k = [0u8; 4];
    k.copy_from_slice(&bytes[..4]);
    let got = u32::from_le_bytes(k);
    if got != key {
        return Err(Malformed::Key { expected: key, got });
    }
    let mut s = [0u8; 8];
    s.copy_from_slice(&bytes[4..STAMP_BYTES]);
    let seq = u64::from_le_bytes(s);
    if size > STAMP_BYTES && bytes[size - 1] != fill_byte(key, seq) {
        return Err(Malformed::Fill);
    }
    Ok(seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_op_stream() {
        for w in WORKLOADS {
            let a: Vec<Op> = OpStream::new(&w, 42).take(1000).collect();
            let b: Vec<Op> = OpStream::new(&w, 42).take(1000).collect();
            assert_eq!(a, b);
            let c: Vec<Op> = OpStream::new(&w, 43).take(1000).collect();
            assert_ne!(a, c, "another seed must give another stream");
        }
    }

    #[test]
    fn op_stream_matches_the_workload_mix() {
        let w = Workload::by_name("read_mostly_large").expect("known workload");
        let ops: Vec<Op> = OpStream::new(&w, 7).take(20_000).collect();
        let reads = ops.iter().filter(|o| o.read).count();
        assert!((17_000..19_000).contains(&reads), "{reads} reads of 20000");
        assert!(ops.iter().all(|o| o.key < w.keys));
        let writes_only = Workload::by_name("write_small").expect("known workload");
        assert!(OpStream::new(&writes_only, 7).take(1000).all(|o| !o.read));
    }

    #[test]
    fn stamps_round_trip_and_reject_damage() {
        for size in [STAMP_BYTES, 64, 4096] {
            let v = stamped_value(9, 77, size);
            assert_eq!(read_stamp(9, v.as_bytes(), size), Ok(77));
            assert_eq!(
                read_stamp(8, v.as_bytes(), size),
                Err(Malformed::Key {
                    expected: 8,
                    got: 9
                })
            );
            assert!(matches!(
                read_stamp(9, &v.as_bytes()[..size - 1], size),
                Err(Malformed::Length { .. })
            ));
        }
        let mut torn = stamped_value(9, 77, 64).as_bytes().to_vec();
        torn[63] ^= 0xff;
        assert_eq!(read_stamp(9, &torn, 64), Err(Malformed::Fill));
    }

    #[test]
    fn workloads_are_named_uniquely() {
        for w in WORKLOADS {
            assert_eq!(Workload::by_name(w.name), Some(w));
        }
        assert_eq!(Workload::by_name("nope"), None);
    }
}
