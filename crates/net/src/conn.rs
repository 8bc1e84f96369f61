//! A non-blocking, line-framed connection: a `TcpStream` plus one
//! [`Ring`] per direction and newline framing with a hard line-length
//! cap.
//!
//! The cap closes the memory-DoS hole the old blocking daemon had: a
//! client streaming bytes with no `\n` used to grow the request buffer
//! without bound. Here the partial line is bounded — once it exceeds
//! the cap, [`LineConn::read_lines`] reports [`LineError::TooLong`]
//! and the server answers with an error and closes.

use crate::ring::Ring;
use std::io::{self, Write};
use std::net::TcpStream;

/// How many bytes one `read_lines` call is willing to pull off the
/// socket per ring-fill step. Complete lines are extracted between
/// steps, so pipelined traffic is processed incrementally instead of
/// ballooning the read ring.
const READ_QUANTUM: usize = 64 * 1024;

/// Why reading lines off a connection stopped.
#[derive(Debug)]
pub enum LineError {
    /// A single request line exceeded the configured cap; the caller
    /// should answer with an error and close the connection.
    TooLong {
        /// The configured maximum line length in bytes.
        limit: usize,
    },
    /// The socket failed.
    Io(io::Error),
}

impl From<io::Error> for LineError {
    fn from(e: io::Error) -> LineError {
        LineError::Io(e)
    }
}

impl std::fmt::Display for LineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LineError::TooLong { limit } => {
                write!(f, "request line exceeds {limit} bytes")
            }
            LineError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

/// A non-blocking connection with buffered, line-framed I/O.
pub struct LineConn {
    stream: TcpStream,
    read: Ring,
    write: Ring,
    max_line: usize,
    eof: bool,
}

impl LineConn {
    /// Wraps `stream`, switching it to non-blocking mode and turning
    /// Nagle's algorithm off: every queued response is one complete
    /// line, and holding the second of a pipelined burst until the peer's
    /// delayed ACK of the first stalls the connection ~40 ms. `max_line`
    /// bounds a single request line (exclusive of the newline).
    ///
    /// # Errors
    ///
    /// Propagates `set_nonblocking` / `set_nodelay` failure.
    pub fn new(stream: TcpStream, max_line: usize) -> io::Result<LineConn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(LineConn {
            stream,
            read: Ring::new(),
            write: Ring::new(),
            max_line,
            eof: false,
        })
    }

    /// The underlying socket, for poller registration.
    #[must_use]
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// True once the peer has half-closed and all buffered lines have
    /// been surfaced.
    #[must_use]
    pub fn saw_eof(&self) -> bool {
        self.eof
    }

    /// Drains the socket, appending every complete line (without its
    /// `\n`) to `out`. Returns `true` when the peer has closed its
    /// writing side (EOF). Call on every readable event.
    ///
    /// # Errors
    ///
    /// [`LineError::TooLong`] when a partial line outgrows the cap;
    /// [`LineError::Io`] on socket failure. Either way the connection
    /// is unusable for further reads.
    pub fn read_lines(&mut self, out: &mut Vec<Vec<u8>>) -> Result<bool, LineError> {
        loop {
            while let Some(line) = self.read.take_until(b'\n') {
                out.push(line);
            }
            // Whatever remains is a partial line; enforce the cap on
            // it (the `>` leaves room for exactly max_line bytes plus
            // the yet-to-arrive newline).
            if self.read.len() > self.max_line {
                return Err(LineError::TooLong {
                    limit: self.max_line,
                });
            }
            if self.eof {
                return Ok(true);
            }
            let limit = self.read.len() + READ_QUANTUM;
            satmapit_faults::check("net.read")?;
            let (n, eof) = self.read.fill_from(&mut self.stream, limit)?;
            if eof {
                self.eof = true;
            }
            if n == 0 && !eof {
                return Ok(false);
            }
        }
    }

    /// Queues response bytes for delivery; call [`LineConn::flush`]
    /// (and subscribe to writability while `wants_write`) afterwards.
    pub fn queue(&mut self, bytes: &[u8]) {
        self.write.push_slice(bytes);
    }

    /// Number of queued-but-unsent response bytes.
    #[must_use]
    pub fn pending_out(&self) -> usize {
        self.write.len()
    }

    /// True while queued response bytes remain unsent — the caller
    /// should keep EPOLLOUT interest registered.
    #[must_use]
    pub fn wants_write(&self) -> bool {
        !self.write.is_empty()
    }

    /// Pushes queued bytes to the socket until it would block or the
    /// queue empties.
    ///
    /// # Errors
    ///
    /// Propagates socket write failure (e.g. peer reset).
    pub fn flush(&mut self) -> io::Result<()> {
        satmapit_faults::check("net.write")?;
        self.write.drain_to(&mut self.stream)?;
        if self.write.is_empty() {
            self.stream.flush()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    fn read_all_lines(conn: &mut LineConn) -> (Vec<Vec<u8>>, bool) {
        let mut lines = Vec::new();
        let mut eof = false;
        // Poll-free test loop: retry until the bytes arrive.
        for _ in 0..500 {
            eof = conn.read_lines(&mut lines).unwrap();
            if !lines.is_empty() || eof {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        (lines, eof)
    }

    #[test]
    fn new_connections_disable_nagle() {
        let (_client, server) = pair();
        assert!(!server.nodelay().unwrap(), "sockets start with Nagle on");
        let conn = LineConn::new(server, 1024).unwrap();
        assert!(conn.stream().nodelay().unwrap());
    }

    #[test]
    fn frames_pipelined_lines_and_eof() {
        let (mut client, server) = pair();
        let mut conn = LineConn::new(server, 1024).unwrap();
        client.write_all(b"one\ntwo\nthree\n").unwrap();
        let (lines, _) = read_all_lines(&mut conn);
        assert_eq!(
            lines,
            vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]
        );
        drop(client);
        let mut more = Vec::new();
        let mut eof = false;
        for _ in 0..500 {
            eof = conn.read_lines(&mut more).unwrap();
            if eof {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert!(eof);
        assert!(more.is_empty());
    }

    #[test]
    fn a_newline_free_firehose_trips_the_cap() {
        let (mut client, server) = pair();
        let mut conn = LineConn::new(server, 4096).unwrap();
        let blob = vec![b'x'; 64 * 1024];
        let writer = std::thread::spawn(move || {
            // Ignore errors: the server may close while we stream.
            for _ in 0..8 {
                if client.write_all(&blob).is_err() {
                    break;
                }
            }
        });
        let mut lines = Vec::new();
        let mut tripped = false;
        for _ in 0..500 {
            match conn.read_lines(&mut lines) {
                Err(LineError::TooLong { limit }) => {
                    assert_eq!(limit, 4096);
                    tripped = true;
                    break;
                }
                Ok(true) => break,
                Ok(false) => std::thread::sleep(std::time::Duration::from_millis(2)),
                Err(LineError::Io(e)) => panic!("unexpected io error: {e}"),
            }
        }
        assert!(tripped, "oversized line did not trip the cap");
        assert!(lines.is_empty());
        drop(conn);
        writer.join().unwrap();
    }

    #[test]
    fn queued_bytes_flush_to_the_peer() {
        let (client, server) = pair();
        let mut conn = LineConn::new(server, 1024).unwrap();
        conn.queue(b"{\"ok\":true}\n");
        assert!(conn.wants_write());
        while conn.wants_write() {
            conn.flush().unwrap();
        }
        let mut reader = std::io::BufReader::new(client);
        let mut line = String::new();
        std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
        assert_eq!(line, "{\"ok\":true}\n");
    }

    #[test]
    fn a_line_exactly_at_the_cap_is_accepted() {
        let (mut client, server) = pair();
        let mut conn = LineConn::new(server, 8).unwrap();
        client.write_all(b"12345678\n").unwrap();
        let (lines, _) = read_all_lines(&mut conn);
        assert_eq!(lines, vec![b"12345678".to_vec()]);
    }
}
