//! Transport abstraction: one address/listener/stream type over both Unix
//! domain sockets and TCP loopback, `std` only.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// A transport address: `uds:/path/to.sock` or `tcp:host:port`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Addr {
    /// A Unix domain socket path.
    Uds(PathBuf),
    /// A TCP host:port.
    Tcp(String),
}

impl Addr {
    /// Parse the CLI form: `uds:<path>` or `tcp:<host>:<port>`.
    pub fn parse(s: &str) -> Result<Addr, String> {
        if let Some(path) = s.strip_prefix("uds:") {
            if path.is_empty() {
                return Err("empty uds path".into());
            }
            Ok(Addr::Uds(PathBuf::from(path)))
        } else if let Some(hp) = s.strip_prefix("tcp:") {
            if !hp.contains(':') {
                return Err(format!("tcp address {hp:?} needs host:port"));
            }
            Ok(Addr::Tcp(hp.to_string()))
        } else {
            Err(format!("address {s:?} must start with uds: or tcp:"))
        }
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Addr::Uds(p) => write!(f, "uds:{}", p.display()),
            Addr::Tcp(hp) => write!(f, "tcp:{hp}"),
        }
    }
}

/// A bound listener on either transport.
pub enum Listener {
    /// Unix domain socket listener.
    Uds(UnixListener),
    /// TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Bind `addr`. A stale UDS path from a previous (crashed) process is
    /// removed first — the daemon owns its socket path.
    pub fn bind(addr: &Addr) -> io::Result<Listener> {
        match addr {
            Addr::Uds(path) => {
                let _ = std::fs::remove_file(path);
                Ok(Listener::Uds(UnixListener::bind(path)?))
            }
            Addr::Tcp(hp) => Ok(Listener::Tcp(TcpListener::bind(hp.as_str())?)),
        }
    }

    /// Accept one connection.
    pub fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Uds(l) => {
                let (s, _) = l.accept()?;
                Ok(Conn::Uds(s))
            }
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(Conn::Tcp(s))
            }
        }
    }
}

/// A connected stream on either transport.
pub enum Conn {
    /// Unix domain socket stream.
    Uds(UnixStream),
    /// TCP stream.
    Tcp(TcpStream),
}

impl Conn {
    /// Connect to `addr`, giving up on each TCP address it resolves to after
    /// `timeout`, so a dialer with several peers is never held by one
    /// black-holed address (a UDS connect is local and returns at once).
    pub fn connect(addr: &Addr, timeout: Duration) -> io::Result<Conn> {
        let hp = match addr {
            Addr::Uds(path) => return Ok(Conn::Uds(UnixStream::connect(path)?)),
            Addr::Tcp(hp) => hp,
        };
        let mut last = io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{hp:?} resolves to no address"),
        );
        for sa in hp.to_socket_addrs()? {
            match TcpStream::connect_timeout(&sa, timeout) {
                Ok(s) => {
                    s.set_nodelay(true)?;
                    return Ok(Conn::Tcp(s));
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Switch non-blocking mode: a read or write that would wait returns
    /// `WouldBlock` instead.
    pub fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        match self {
            Conn::Uds(s) => s.set_nonblocking(on),
            Conn::Tcp(s) => s.set_nonblocking(on),
        }
    }

    /// Bound the blocking time of reads (None = block forever).
    pub fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Uds(s) => s.set_read_timeout(d),
            Conn::Tcp(s) => s.set_read_timeout(d),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Uds(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Uds(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Uds(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_parse_and_display() {
        assert_eq!(
            Addr::parse("uds:/tmp/x.sock").unwrap(),
            Addr::Uds(PathBuf::from("/tmp/x.sock"))
        );
        assert_eq!(
            Addr::parse("tcp:127.0.0.1:9000").unwrap(),
            Addr::Tcp("127.0.0.1:9000".into())
        );
        assert!(Addr::parse("udp:1.2.3.4:5").is_err());
        assert!(Addr::parse("uds:").is_err());
        assert!(Addr::parse("tcp:9000").is_err());
        assert_eq!(Addr::parse("uds:/a").unwrap().to_string(), "uds:/a");
    }
}
