//! A blocking TCP client.

use std::io;
use std::net::SocketAddr;
use std::time::Duration;

use hts_types::{ObjectId, ServerId, Value};

use crate::session::{require_read_value, Session};

/// A synchronous client of a TCP `hts` cluster.
///
/// A window-1 [`Session`]: one operation in flight, a reply timeout, and
/// retry against the next server when the contacted one is silent or its
/// connection breaks — the paper's client behaviour (§3).
///
/// See the [crate docs](crate) for an example.
pub struct Client {
    session: Session,
}

impl Client {
    /// Connects lazily to a cluster at `addrs` (indexed by [`ServerId`]).
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidInput`] for an empty or oversized
    /// address map, and [`io::ErrorKind::Unsupported`] off Linux.
    /// Connections themselves are opened on first use, so unreachable
    /// servers surface from the operations, not from here.
    pub fn connect(id: u32, addrs: Vec<SocketAddr>) -> io::Result<Client> {
        Client::connect_preferring(id, addrs, ServerId(0))
    }

    /// Connects lazily, preferring `preferred` as the first server to
    /// contact (useful for pinning load, and for tests that must observe
    /// one specific server — e.g. a freshly restarted one).
    ///
    /// # Errors
    ///
    /// As [`Client::connect`], plus [`io::ErrorKind::InvalidInput`] when
    /// `preferred` is outside the address map.
    pub fn connect_preferring(
        id: u32,
        addrs: Vec<SocketAddr>,
        preferred: ServerId,
    ) -> io::Result<Client> {
        Ok(Client {
            session: Session::connect_preferring(id, addrs, preferred, 1)?,
        })
    }

    /// Sets the per-attempt reply timeout (default 500 ms).
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.session.set_timeout(timeout);
    }

    /// The alive-map the client routes by (test/diagnostic hook): entry
    /// `s` is `false` while server `s` is suspected crashed. Suspicions
    /// recover on successful reconnects and periodic re-probes.
    pub fn believed_alive(&self) -> &[bool] {
        self.session.believed_alive()
    }

    /// Writes `value` to the register, blocking until acknowledged.
    ///
    /// # Errors
    ///
    /// Fails only when every server is unreachable for a full retry cycle.
    pub fn write(&mut self, value: Value) -> io::Result<()> {
        self.write_to(ObjectId::SINGLE, value)
    }

    /// Writes `value` into register `object` (multi-register stores).
    ///
    /// # Errors
    ///
    /// As [`Client::write`].
    pub fn write_to(&mut self, object: ObjectId, value: Value) -> io::Result<()> {
        let request = self.session.begin_write_to(object, value)?;
        self.session.wait(request).map(|_| ())
    }

    /// Reads the register, blocking until a server answers.
    ///
    /// # Errors
    ///
    /// As [`Client::write`].
    pub fn read(&mut self) -> io::Result<Value> {
        self.read_from(ObjectId::SINGLE)
    }

    /// Reads register `object`.
    ///
    /// # Errors
    ///
    /// As [`Client::write`].
    pub fn read_from(&mut self, object: ObjectId) -> io::Result<Value> {
        let request = self.session.begin_read_from(object)?;
        self.session.wait(request).and_then(require_read_value)
    }

    /// Fetches `server`'s live metrics registry; see [`Session::stats`].
    ///
    /// # Errors
    ///
    /// As [`Session::stats`].
    pub fn stats(&mut self, server: ServerId) -> io::Result<String> {
        self.session.stats(server)
    }
}
