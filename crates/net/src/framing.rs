//! Length-prefixed message framing over TCP.
//!
//! Every wire message is a `u32` big-endian length followed by the codec
//! bytes. The encoders append into caller-owned buffers, so the hot
//! paths (ring batches, client replies, session requests) never allocate
//! a fresh buffer per message, and a whole ring batch becomes **one**
//! wire message. [`NbMessageReader`] is the one inbound decoder.

use std::io::{self, Read};

use bytes::BytesMut;
use hts_poll::{read_nb, ReadStatus};
use hts_types::{codec, Message, RingFrame};

/// Upper bound on a frame body (64 MiB): guards against corrupt length
/// prefixes allocating unbounded memory.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Appends one length-prefixed message to `buf` without touching the
/// socket (compose several, then flush once).
pub fn frame_into(buf: &mut BytesMut, msg: &Message) {
    let size = codec::wire_size(msg);
    buf.reserve(4 + size);
    buf.extend_from_slice(&(size as u32).to_be_bytes());
    codec::encode_into(msg, buf);
}

/// Clears `scratch` and fills it with the complete wire bytes (length
/// prefix included) of a coalesced batch of ring frames: a lone frame
/// travels as [`Message::Ring`], several as [`Message::RingBatch`]
/// (frames keep their order — the batch is the FIFO link's contents).
/// The reactor stages the result into a connection's write buffer and
/// lets epoll writability drive the actual sends. An empty batch
/// encodes to nothing.
pub(crate) fn encode_ring_frames(frames: &[RingFrame], scratch: &mut BytesMut) {
    scratch.clear();
    if frames.is_empty() {
        return;
    }
    let body = if frames.len() == 1 {
        1 + codec::frame_wire_size(&frames[0])
    } else {
        3 + frames.iter().map(codec::frame_wire_size).sum::<usize>()
    };
    scratch.reserve(4 + body);
    scratch.extend_from_slice(&(body as u32).to_be_bytes());
    if frames.len() == 1 {
        codec::encode_ring_into(&frames[0], scratch);
    } else {
        codec::encode_ring_batch_into(frames, scratch);
    }
}

/// Result of one [`NbMessageReader::poll`].
#[derive(Debug)]
pub enum MessagePoll {
    /// A complete decoded message.
    Msg(Message),
    /// Mid-frame or nothing buffered; wait for readability.
    Pending,
    /// Clean EOF on a frame boundary.
    Closed,
}

/// The inbound decoder: assembles each length-prefixed message across
/// any number of partial reads into a single [`Bytes`](bytes::Bytes)
/// allocation and decodes it with [`codec::decode_shared`], so every
/// contained [`Value`] is a refcounted **view** of the receive buffer —
/// no per-value copy between the socket and the store. Call [`poll`] in
/// a loop on each readability report until it returns `Pending`.
///
/// The reader keeps its buffer when a decoded message carries no value
/// views (acks, read requests, tag-only ring notices — the majority of
/// wire traffic): the refcount drops back to one and the allocation is
/// reclaimed for the next frame. Value-bearing messages keep their
/// buffer alive for exactly as long as the values do.
///
/// [`poll`]: NbMessageReader::poll
/// [`Value`]: hts_types::Value
#[derive(Default)]
pub struct NbMessageReader {
    header: [u8; 4],
    filled: usize,
    body: BytesMut,
    in_body: bool,
}

impl NbMessageReader {
    /// An empty reader (no buffer until the first frame needs one).
    pub fn new() -> NbMessageReader {
        NbMessageReader::default()
    }

    /// Pulls bytes until a message completes, the socket would block,
    /// or it cleanly closes. Each `Msg` may be followed by more — drain
    /// the readiness burst by looping until `Pending`.
    ///
    /// # Errors
    ///
    /// `InvalidData` on oversized or undecodable frames,
    /// `UnexpectedEof` on a mid-frame close, otherwise the socket
    /// error (`Interrupted` is retried internally).
    pub fn poll<R: Read>(&mut self, reader: &mut R) -> io::Result<MessagePoll> {
        loop {
            if !self.in_body {
                let n = match read_nb(reader, &mut self.header[self.filled..])? {
                    ReadStatus::Data(n) => n,
                    ReadStatus::WouldBlock => return Ok(MessagePoll::Pending),
                    ReadStatus::Eof => {
                        if self.filled == 0 {
                            return Ok(MessagePoll::Closed);
                        }
                        return Err(io::ErrorKind::UnexpectedEof.into());
                    }
                };
                self.filled += n;
                if self.filled < 4 {
                    continue;
                }
                let len = u32::from_be_bytes(self.header) as usize;
                if len > MAX_FRAME_BYTES {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
                    ));
                }
                self.body.clear();
                self.body.resize(len, 0);
                self.filled = 0;
                self.in_body = true;
                continue;
            }
            if self.filled < self.body.len() {
                let n = match read_nb(reader, &mut self.body[self.filled..])? {
                    ReadStatus::Data(n) => n,
                    ReadStatus::WouldBlock => return Ok(MessagePoll::Pending),
                    ReadStatus::Eof => return Err(io::ErrorKind::UnexpectedEof.into()),
                };
                self.filled += n;
                if self.filled < self.body.len() {
                    continue;
                }
            }
            self.in_body = false;
            self.filled = 0;
            let bytes = std::mem::take(&mut self.body).freeze();
            let msg = codec::decode_shared(&bytes)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e));
            // Value-free message (or failed decode): reclaim the
            // allocation for the next frame.
            if let Ok(reclaimed) = bytes.try_into_mut() {
                self.body = reclaimed;
            }
            return Ok(MessagePoll::Msg(msg?));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hts_types::{ObjectId, RequestId, ServerId, Tag, Value};

    fn framed(msgs: &[Message]) -> Vec<u8> {
        let mut buf = BytesMut::new();
        for msg in msgs {
            frame_into(&mut buf, msg);
        }
        buf.to_vec()
    }

    /// Decodes the next message of `cursor`, which must hold a whole one.
    fn read_one(reader: &mut NbMessageReader, cursor: &mut &[u8]) -> io::Result<Message> {
        match reader.poll(cursor)? {
            MessagePoll::Msg(msg) => Ok(msg),
            other => Err(io::Error::other(format!("no message: {other:?}"))),
        }
    }

    #[test]
    fn roundtrip_over_a_buffer() {
        let msg = Message::WriteReq {
            object: ObjectId(1),
            request: RequestId(2),
            value: Value::filled(7, 10_000),
        };
        let buf = framed(std::slice::from_ref(&msg));
        let mut cursor = &buf[..];
        let mut reader = NbMessageReader::new();
        assert_eq!(read_one(&mut reader, &mut cursor).unwrap(), msg);
        assert!(matches!(reader.poll(&mut cursor), Ok(MessagePoll::Closed)));
    }

    #[test]
    fn scratch_writer_matches_allocating_writer() {
        let msg = Message::ReadReq {
            object: ObjectId(4),
            request: RequestId(9),
        };
        let fresh = framed(std::slice::from_ref(&msg));
        // A reused scratch, cleared between messages as the reactor's
        // reply path does, must frame byte-identically.
        let mut scratch = BytesMut::new();
        for _ in 0..2 {
            scratch.clear();
            frame_into(&mut scratch, &msg);
            assert_eq!(&scratch[..], &fresh[..]);
        }
    }

    #[test]
    fn ring_batch_framing_roundtrips_both_arities() {
        let tag = Tag::new(3, ServerId(1));
        let mut scratch = BytesMut::new();
        let mut reader = NbMessageReader::new();

        // One frame: travels as a plain Ring message.
        let single = [RingFrame::write(ObjectId(1), tag)];
        encode_ring_frames(&single, &mut scratch);
        let mut cursor = &scratch[..];
        assert_eq!(
            read_one(&mut reader, &mut cursor).unwrap(),
            Message::Ring(single[0].clone())
        );

        // Several frames: one RingBatch wire message, order preserved.
        let many = vec![
            RingFrame::pre_write(ObjectId(1), tag, Value::filled(1, 100)),
            RingFrame::write(ObjectId(2), tag),
            RingFrame::write(ObjectId(3), tag),
        ];
        encode_ring_frames(&many, &mut scratch);
        let mut cursor = &scratch[..];
        assert_eq!(
            read_one(&mut reader, &mut cursor).unwrap(),
            Message::RingBatch(many)
        );

        // Empty batch: nothing on the wire.
        encode_ring_frames(&[], &mut scratch);
        assert!(scratch.is_empty());
    }

    #[test]
    fn reader_hands_out_views_and_recycles_value_free_buffers() {
        let with_value = Message::WriteReq {
            object: ObjectId(1),
            request: RequestId(2),
            value: Value::filled(9, 4096),
        };
        let value_free = Message::WriteAck {
            object: ObjectId(1),
            request: RequestId(2),
        };
        let buf = framed(&[with_value, value_free.clone(), value_free.clone()]);

        let mut reader = NbMessageReader::new();
        let mut cursor = &buf[..];
        let decoded = read_one(&mut reader, &mut cursor).unwrap();
        match &decoded {
            Message::WriteReq { value, .. } => assert_eq!(value.len(), 4096),
            other => panic!("wrong message: {other}"),
        }
        // The value pinned its buffer: the reader had to give it up.
        assert_eq!(reader.body.len(), 0);

        assert_eq!(read_one(&mut reader, &mut cursor).unwrap(), value_free);
        // A value-free message returns its buffer to the reader...
        let recycled = reader.body.as_ptr();
        assert!(reader.body.capacity() > 0);
        assert_eq!(read_one(&mut reader, &mut cursor).unwrap(), value_free);
        // ...and the next read reuses that same allocation.
        assert_eq!(reader.body.as_ptr(), recycled);
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        buf.extend_from_slice(&[0; 16]);
        let mut cursor = &buf[..];
        let err = NbMessageReader::new().poll(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncation_reports_eof() {
        let msg = Message::ReadReq {
            object: ObjectId(0),
            request: RequestId(1),
        };
        let mut buf = framed(&[msg]);
        buf.truncate(buf.len() - 1);
        let mut cursor = &buf[..];
        let err = NbMessageReader::new().poll(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }
}
