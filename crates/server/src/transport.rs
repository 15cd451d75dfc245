//! Transport abstraction: `abcdd` listens on Unix-domain sockets and TCP
//! simultaneously, speaking the same framed protocol over both.
//!
//! A [`ListenAddr`] is parsed from `--listen uds:PATH` / `--listen
//! tcp:HOST:PORT` (a bare path means UDS, for compatibility with
//! `--socket`). Every listener feeds the same run queue, so a TCP client
//! and a UDS client hit the same cache and the same queue; the only
//! transport-visible differences are connection setup cost and
//! `TCP_NODELAY`, which is always set — the protocol is strictly
//! request/reply and Nagle would serialize pipelined batch replies.
//!
//! [`Conn`] erases the stream type behind one enum (no trait objects: the
//! supervisor clones connections into rescue slots, and `try_clone` is not
//! object-safe). [`Endpoint`] is the client-side counterpart.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// One address the server binds: `uds:PATH` or `tcp:HOST:PORT`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ListenAddr {
    /// A Unix-domain socket path (created on bind, removed on drop).
    Uds(PathBuf),
    /// A TCP bind address, e.g. `127.0.0.1:7433` or `127.0.0.1:0`.
    Tcp(String),
}

impl ListenAddr {
    /// Parses `uds:PATH`, `tcp:ADDR`, or a bare path (UDS).
    pub fn parse(spec: &str) -> Result<ListenAddr, String> {
        if let Some(path) = spec.strip_prefix("uds:") {
            if path.is_empty() {
                return Err("empty uds path".to_string());
            }
            Ok(ListenAddr::Uds(PathBuf::from(path)))
        } else if let Some(addr) = spec.strip_prefix("tcp:") {
            if addr.is_empty() {
                return Err("empty tcp address".to_string());
            }
            Ok(ListenAddr::Tcp(addr.to_string()))
        } else if spec.is_empty() {
            Err("empty listen spec".to_string())
        } else {
            Ok(ListenAddr::Uds(PathBuf::from(spec)))
        }
    }

    /// Human-readable form, also reparsable by [`ListenAddr::parse`].
    pub fn describe(&self) -> String {
        match self {
            ListenAddr::Uds(p) => format!("uds:{}", p.display()),
            ListenAddr::Tcp(a) => format!("tcp:{a}"),
        }
    }
}

/// One accepted (or dialed) connection, UDS or TCP.
#[derive(Debug)]
pub enum Conn {
    /// A Unix-domain stream.
    Uds(UnixStream),
    /// A TCP stream (`TCP_NODELAY` already set).
    Tcp(TcpStream),
}

impl Conn {
    /// Clones the underlying handle (both halves share the socket).
    pub fn try_clone(&self) -> std::io::Result<Conn> {
        Ok(match self {
            Conn::Uds(s) => Conn::Uds(s.try_clone()?),
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
        })
    }

    /// Shuts the connection down (both directions).
    pub fn shutdown(&self, how: Shutdown) -> std::io::Result<()> {
        match self {
            Conn::Uds(s) => s.shutdown(how),
            Conn::Tcp(s) => s.shutdown(how),
        }
    }

    /// Bounds blocking reads.
    pub fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Uds(s) => s.set_read_timeout(t),
            Conn::Tcp(s) => s.set_read_timeout(t),
        }
    }

    /// Bounds blocking writes.
    pub fn set_write_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Uds(s) => s.set_write_timeout(t),
            Conn::Tcp(s) => s.set_write_timeout(t),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Uds(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Uds(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Uds(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

/// One bound listener. TCP remembers the *resolved* local address, so a
/// `tcp:127.0.0.1:0` bind can report its ephemeral port.
#[derive(Debug)]
pub enum Listener {
    /// A bound Unix-domain socket.
    Uds(UnixListener, PathBuf),
    /// A bound TCP socket and its resolved local address.
    Tcp(TcpListener, SocketAddr),
}

impl Listener {
    /// Binds `addr`. A stale UDS socket file from a crashed daemon is
    /// removed, but only after a probe connect proves no live server owns
    /// it — we never steal a running server's socket.
    pub fn bind(addr: &ListenAddr) -> std::io::Result<Listener> {
        match addr {
            ListenAddr::Uds(path) => {
                if path.exists() {
                    if UnixStream::connect(path).is_ok() {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::AddrInUse,
                            format!("{} already has a live server", path.display()),
                        ));
                    }
                    std::fs::remove_file(path)?;
                }
                Ok(Listener::Uds(UnixListener::bind(path)?, path.clone()))
            }
            ListenAddr::Tcp(spec) => {
                let listener = TcpListener::bind(spec.as_str())?;
                let local = listener.local_addr()?;
                Ok(Listener::Tcp(listener, local))
            }
        }
    }

    /// Blocks for the next connection. TCP connections get `TCP_NODELAY`.
    pub fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Uds(l, _) => l.accept().map(|(s, _)| Conn::Uds(s)),
            Listener::Tcp(l, _) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true);
                Conn::Tcp(s)
            }),
        }
    }

    /// The address this listener actually bound (TCP ports resolved).
    pub fn resolved(&self) -> ListenAddr {
        match self {
            Listener::Uds(_, path) => ListenAddr::Uds(path.clone()),
            Listener::Tcp(_, local) => ListenAddr::Tcp(local.to_string()),
        }
    }
}

/// A client-side address: where to dial a running `abcdd`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket path.
    Uds(PathBuf),
    /// A TCP address, e.g. `127.0.0.1:7433`.
    Tcp(String),
}

impl Endpoint {
    /// Parses `uds:PATH`, `tcp:ADDR`, or a bare path (UDS).
    pub fn parse(spec: &str) -> Result<Endpoint, String> {
        Ok(match ListenAddr::parse(spec)? {
            ListenAddr::Uds(p) => Endpoint::Uds(p),
            ListenAddr::Tcp(a) => Endpoint::Tcp(a),
        })
    }

    /// A UDS endpoint for `path`.
    pub fn uds(path: impl AsRef<Path>) -> Endpoint {
        Endpoint::Uds(path.as_ref().to_path_buf())
    }

    /// Dials the endpoint.
    pub fn connect(&self) -> std::io::Result<Conn> {
        match self {
            Endpoint::Uds(path) => UnixStream::connect(path).map(Conn::Uds),
            Endpoint::Tcp(addr) => TcpStream::connect(addr.as_str()).map(|s| {
                let _ = s.set_nodelay(true);
                Conn::Tcp(s)
            }),
        }
    }

    /// Human-readable form.
    pub fn describe(&self) -> String {
        match self {
            Endpoint::Uds(p) => format!("uds:{}", p.display()),
            Endpoint::Tcp(a) => format!("tcp:{a}"),
        }
    }
}

/// Wakes a blocking `accept` by dialing the listener and hanging up —
/// how shutdown unblocks every acceptor thread.
pub(crate) fn wake(addr: &ListenAddr) {
    let _ = match addr {
        ListenAddr::Uds(path) => UnixStream::connect(path).map(Conn::Uds),
        ListenAddr::Tcp(a) => TcpStream::connect(a.as_str()).map(Conn::Tcp),
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listen_specs_parse_and_describe() {
        assert_eq!(
            ListenAddr::parse("uds:/tmp/x.sock").unwrap(),
            ListenAddr::Uds(PathBuf::from("/tmp/x.sock"))
        );
        assert_eq!(
            ListenAddr::parse("tcp:127.0.0.1:0").unwrap(),
            ListenAddr::Tcp("127.0.0.1:0".to_string())
        );
        assert_eq!(
            ListenAddr::parse("/tmp/bare.sock").unwrap(),
            ListenAddr::Uds(PathBuf::from("/tmp/bare.sock")),
            "bare paths stay UDS for --socket compatibility"
        );
        assert!(ListenAddr::parse("uds:").is_err());
        assert!(ListenAddr::parse("tcp:").is_err());
        assert!(ListenAddr::parse("").is_err());
        let spec = ListenAddr::parse("tcp:localhost:9").unwrap();
        assert_eq!(ListenAddr::parse(&spec.describe()).unwrap(), spec);
    }

    #[test]
    fn tcp_listener_resolves_ephemeral_ports() {
        let listener = Listener::bind(&ListenAddr::Tcp("127.0.0.1:0".to_string())).unwrap();
        match listener.resolved() {
            ListenAddr::Tcp(addr) => {
                assert!(!addr.ends_with(":0"), "{addr} should carry the real port");
                let conn = Endpoint::Tcp(addr).connect();
                assert!(conn.is_ok(), "resolved address must be dialable");
            }
            other => panic!("{other:?}"),
        }
    }
}
