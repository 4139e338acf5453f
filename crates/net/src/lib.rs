//! Real TCP runtime for the `hts` atomic storage.
//!
//! The same sans-io cores (`hts-core`) that drive the simulator run here
//! over real sockets, on one machine or a LAN. Each server runs one
//! epoll reactor thread per ring lane that owns every connection of
//! that lane, so a node runs on `lanes + 1` threads regardless of
//! connection count. The runtime is Linux-only: off Linux,
//! [`Server::spawn`] and [`Session::connect`] return
//! [`io::ErrorKind::Unsupported`](std::io::ErrorKind::Unsupported).
//!
//! * each server listens on one address; clients and the ring predecessor
//!   connect to it (a 3-byte [`Hello`](hts_types::codec::Hello) handshake
//!   declares who is calling);
//! * each server keeps one long-lived TCP connection **per ring lane**
//!   to its ring successor (`Config::lanes`, default 1 — exactly the
//!   single connection §2 prescribes); a broken connection **is** the
//!   perfect failure detector — the predecessor splices the lane's ring
//!   and retransmits, the successor-side adopter completes orphaned
//!   writes;
//! * ring frames are pulled from the core one at a time as the previous
//!   frame drains into the socket, which is where the fairness rule runs
//!   (the kernel's send buffer plays the role of the NIC TX queue);
//! * with `lanes = R > 1`, objects partition across `R` independent ring
//!   instances (`hts_core::LaneMap` placement), each lane owning its own
//!   reactor thread, successor link, inbound stream and WAL directory —
//!   one node then scales across cores instead of serializing every
//!   object through one event loop;
//! * clients talk through a pipelined [`Session`] (a window of many
//!   concurrent operations multiplexed over one socket per server,
//!   replies matched out of order by one poller thread, requests
//!   coalesced into one flush per burst); the sequential [`Client`] (one
//!   operation in flight, the paper's §3 client) is a window-1 session.
//!
//! The repo benchmark (`perf/`) and fig1's TCP rows (`hts-bench`)
//! measure this runtime over loopback; the paper-figure experiments
//! whose bandwidth must be controlled run on the simulator. See
//! `examples/quickstart.rs` and the crash-recovery integration tests
//! for the protocol end-to-end.
//!
//! # Examples
//!
//! ```
//! use hts_net::{Client, Cluster};
//! use hts_types::Value;
//!
//! let cluster = Cluster::launch(3)?;
//! let mut client = Client::connect(1, cluster.addrs())?;
//! client.write(Value::from_u64(42))?;
//! assert_eq!(client.read()?, Value::from_u64(42));
//! cluster.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod cluster;
mod framing;
mod reactor;
mod server;
mod session;

pub use client::Client;
pub use cluster::Cluster;
pub use framing::{MessagePoll, NbMessageReader, MAX_FRAME_BYTES};
pub use server::{Server, ServerConfig};
pub use session::Session;
