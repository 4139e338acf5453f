//! Checks every read of a run against the writes around it.
//!
//! The generator never has two writes to one key in flight at once, so
//! the writes of a key are totally ordered in real time and their
//! sequence numbers are that order. A read is then correct when it
//! returns its key's value, at full length, with a sequence number
//! * no older than the newest write acknowledged before the read was
//!   issued (else the read is **stale**),
//! * no older than what any read that completed before it was issued
//!   returned (else it is a **read inversion**),
//! * no newer than the newest write issued before it completed (else it
//!   returned a value nobody wrote yet).
//!
//! "Acknowledged" and "completed" are when the generator saw the reply,
//! which is no earlier than when it arrived, so the bounds only ever err
//! towards accepting.

use std::fmt;

use crate::workload::{read_stamp, Malformed};

#[derive(Debug, Clone, Copy, Default)]
struct KeyState {
    /// Newest write issued.
    issued: u64,
    /// Newest write acknowledged.
    acked: u64,
    /// Newest value any completed read returned.
    read: u64,
}

/// What a read must return, fixed when it is issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadTicket {
    key: u32,
    acked_floor: u64,
    read_floor: u64,
}

/// A read that broke the rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The value is not a well-formed value of this key.
    Malformed { key: u32, why: Malformed },
    /// Older than a write acknowledged before the read was issued.
    Stale { key: u32, acked: u64, got: u64 },
    /// Older than what an earlier, non-overlapping read returned.
    Inversion { key: u32, earlier: u64, got: u64 },
    /// Newer than any write issued before the read completed.
    Future { key: u32, issued: u64, got: u64 },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Malformed { key, why } => write!(f, "key {key}: malformed value ({why:?})"),
            Violation::Stale { key, acked, got } => write!(
                f,
                "key {key}: stale read of seq {got}, seq {acked} was acknowledged before it"
            ),
            Violation::Inversion { key, earlier, got } => write!(
                f,
                "key {key}: read inversion, seq {got} after an earlier read returned {earlier}"
            ),
            Violation::Future { key, issued, got } => write!(
                f,
                "key {key}: read of seq {got}, but only {issued} writes were issued"
            ),
        }
    }
}

/// Per-key write and read bookkeeping of one run.
#[derive(Debug, Clone)]
pub struct Verifier {
    keys: Vec<KeyState>,
    value_size: usize,
}

impl Verifier {
    /// A verifier over `keys` keys whose first `primed` writes are already
    /// acknowledged.
    pub fn new(keys: u32, value_size: usize, primed: u64) -> Verifier {
        let state = KeyState {
            issued: primed,
            acked: primed,
            read: 0,
        };
        Verifier {
            keys: vec![state; keys as usize],
            value_size,
        }
    }

    /// Registers a new write of `key`; returns its sequence number.
    pub fn begin_write(&mut self, key: u32) -> u64 {
        let k = &mut self.keys[key as usize];
        k.issued += 1;
        k.issued
    }

    /// Write `seq` of `key` was acknowledged.
    pub fn ack_write(&mut self, key: u32, seq: u64) {
        let k = &mut self.keys[key as usize];
        k.acked = k.acked.max(seq);
    }

    /// Registers a read of `key` being issued now.
    pub fn begin_read(&self, key: u32) -> ReadTicket {
        let k = &self.keys[key as usize];
        ReadTicket {
            key,
            acked_floor: k.acked,
            read_floor: k.read,
        }
    }

    /// Checks the value a read returned, now that it completed.
    pub fn complete_read(&mut self, ticket: ReadTicket, value: &[u8]) -> Result<u64, Violation> {
        let key = ticket.key;
        let got = read_stamp(key, value, self.value_size)
            .map_err(|why| Violation::Malformed { key, why })?;
        let k = &mut self.keys[key as usize];
        if got > k.issued {
            return Err(Violation::Future {
                key,
                issued: k.issued,
                got,
            });
        }
        k.read = k.read.max(got);
        if got < ticket.acked_floor {
            return Err(Violation::Stale {
                key,
                acked: ticket.acked_floor,
                got,
            });
        }
        if got < ticket.read_floor {
            return Err(Violation::Inversion {
                key,
                earlier: ticket.read_floor,
                got,
            });
        }
        Ok(got)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::stamped_value;

    const SIZE: usize = 64;

    fn value(key: u32, seq: u64) -> Vec<u8> {
        stamped_value(key, seq, SIZE).as_bytes().to_vec()
    }

    #[test]
    fn reads_of_current_or_overlapping_writes_pass() {
        let mut v = Verifier::new(4, SIZE, 1);
        let r = v.begin_read(2);
        assert_eq!(v.complete_read(r, &value(2, 1)), Ok(1));
        // A read overlapping write 2 may return either side of it.
        let seq = v.begin_write(2);
        let before = v.begin_read(2);
        let after = v.begin_read(2);
        assert_eq!(v.complete_read(before, &value(2, 1)), Ok(1));
        assert_eq!(v.complete_read(after, &value(2, 2)), Ok(2));
        v.ack_write(2, seq);
        let r = v.begin_read(2);
        assert_eq!(v.complete_read(r, &value(2, 2)), Ok(2));
    }

    #[test]
    fn planted_stale_read_is_caught() {
        let mut v = Verifier::new(4, SIZE, 1);
        let seq = v.begin_write(0);
        v.ack_write(0, seq);
        let r = v.begin_read(0);
        assert_eq!(
            v.complete_read(r, &value(0, 1)),
            Err(Violation::Stale {
                key: 0,
                acked: 2,
                got: 1
            })
        );
    }

    #[test]
    fn planted_read_inversion_is_caught() {
        let mut v = Verifier::new(4, SIZE, 1);
        let _in_flight = v.begin_write(3);
        // The first read sees the in-flight write; a later read that
        // starts after it finished must not go back to the old value.
        let first = v.begin_read(3);
        assert_eq!(v.complete_read(first, &value(3, 2)), Ok(2));
        let second = v.begin_read(3);
        assert_eq!(
            v.complete_read(second, &value(3, 1)),
            Err(Violation::Inversion {
                key: 3,
                earlier: 2,
                got: 1
            })
        );
    }

    #[test]
    fn overlapping_reads_may_disagree() {
        let mut v = Verifier::new(4, SIZE, 1);
        let _in_flight = v.begin_write(1);
        let a = v.begin_read(1);
        let b = v.begin_read(1);
        assert_eq!(v.complete_read(a, &value(1, 2)), Ok(2));
        // `b` was issued before `a` completed: no inversion.
        assert_eq!(v.complete_read(b, &value(1, 1)), Ok(1));
    }

    #[test]
    fn values_from_the_future_or_malformed_are_caught() {
        let mut v = Verifier::new(4, SIZE, 1);
        let r = v.begin_read(1);
        assert!(matches!(
            v.complete_read(r, &value(1, 5)),
            Err(Violation::Future { got: 5, .. })
        ));
        let r = v.begin_read(1);
        assert!(matches!(
            v.complete_read(r, &value(2, 1)),
            Err(Violation::Malformed { key: 1, .. })
        ));
        let r = v.begin_read(1);
        assert!(matches!(
            v.complete_read(r, &value(1, 1)[..SIZE / 2]),
            Err(Violation::Malformed { key: 1, .. })
        ));
    }
}
