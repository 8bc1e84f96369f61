//! A minimal blocking client for the daemon's line protocol, used by
//! `satmapit submit` and the loopback tests.

use crate::json::{self, Json};
use crate::wire::MapRequest;
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A client-side failure: transport or protocol.
#[derive(Debug)]
pub enum ClientError {
    /// The TCP connection failed.
    Io(io::Error),
    /// The server's reply was not a parseable response line.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl ClientError {
    /// True when the failure was a socket timeout (connect, read or
    /// write deadline from [`Client::connect_timeout`] expiring), so
    /// callers can report the budget instead of a raw OS error.
    #[must_use]
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            ClientError::Io(e) if matches!(
                e.kind(),
                io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
            )
        )
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// One connection to a mapping daemon. Requests are answered in order on
/// a connection, so a `Client` is a simple synchronous round-trip box;
/// open several for concurrency.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:7421`).
    ///
    /// # Errors
    ///
    /// Standard connection failures.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        // One request is one small line: never hold it back for Nagle.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// [`Client::connect`] with a budget applied to the connect itself
    /// and, as read/write timeouts, to every later round-trip. A stalled
    /// or unreachable daemon then fails with a timeout error instead of
    /// hanging the caller forever.
    ///
    /// # Errors
    ///
    /// Standard connection failures, an unresolvable address, or the
    /// connect not completing within `timeout`.
    pub fn connect_timeout(addr: &str, timeout: Duration) -> Result<Client, ClientError> {
        let resolved = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ClientError::Protocol(format!("address `{addr}` did not resolve")))?;
        let stream = TcpStream::connect_timeout(&resolved, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request document and reads one response document.
    ///
    /// # Errors
    ///
    /// Transport failures, or a reply that is not one line of JSON.
    pub fn roundtrip(&mut self, request: &Json) -> Result<Json, ClientError> {
        let mut line = request.to_string();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply)?;
        if n == 0 {
            // EOF mid-roundtrip is a transport failure, not a protocol
            // one: the daemon (or the network) dropped the connection,
            // which an idempotent caller may retry on a fresh socket.
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        json::parse(reply.trim()).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// Submits a mapping job and returns the raw response.
    ///
    /// # Errors
    ///
    /// See [`Client::roundtrip`].
    pub fn map(&mut self, request: &MapRequest) -> Result<Json, ClientError> {
        self.roundtrip(&request.to_json())
    }

    /// Fetches the daemon's statistics document.
    ///
    /// # Errors
    ///
    /// See [`Client::roundtrip`].
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.roundtrip(&Json::obj(vec![("op", Json::Str("stats".into()))]))
    }

    /// Probes daemon health.
    ///
    /// # Errors
    ///
    /// See [`Client::roundtrip`].
    pub fn health(&mut self) -> Result<Json, ClientError> {
        self.roundtrip(&Json::obj(vec![("op", Json::Str("health".into()))]))
    }

    /// Drains the daemon's flight recorder (see the `trace` op): the
    /// response reports the collected event count and, when the daemon
    /// has a trace directory, the Chrome trace file it wrote.
    ///
    /// # Errors
    ///
    /// See [`Client::roundtrip`].
    pub fn trace(&mut self) -> Result<Json, ClientError> {
        self.roundtrip(&Json::obj(vec![("op", Json::Str("trace".into()))]))
    }

    /// Asks the daemon to drain, compact its caches and exit.
    ///
    /// # Errors
    ///
    /// See [`Client::roundtrip`].
    pub fn shutdown(&mut self) -> Result<Json, ClientError> {
        self.roundtrip(&Json::obj(vec![("op", Json::Str("shutdown".into()))]))
    }

    /// Wraps the connection parameters in a [`RetryClient`] that
    /// reconnects and retries *idempotent* requests (map, stats, health)
    /// with jittered exponential backoff. `attempts` counts total tries;
    /// `1` behaves exactly like a plain client.
    #[must_use]
    pub fn with_retry(addr: &str, policy: RetryPolicy) -> RetryClient {
        RetryClient {
            addr: addr.to_string(),
            policy,
            conn: None,
            rng: 0,
        }
    }
}

/// How [`RetryClient`] paces its attempts.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total tries per request, including the first. `1` = no retry.
    pub attempts: u32,
    /// Backoff before the first retry; doubles each further retry.
    pub backoff: Duration,
    /// Ceiling the doubling saturates at.
    pub max_backoff: Duration,
    /// Per-socket connect/read/write deadline (see
    /// [`Client::connect_timeout`]). `None` connects without deadlines.
    pub socket_timeout: Option<Duration>,
    /// Seeds the jitter stream, so a given policy retries on a
    /// reproducible schedule. Two clients with different seeds desync,
    /// which is the point of jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 3,
            backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            socket_timeout: None,
            seed: 0x5a71_ca11,
        }
    }
}

/// A [`Client`] wrapper that re-establishes the connection and replays
/// the request after transport failures.
///
/// Only *idempotent* operations are exposed: `map` (solves are
/// deterministic and cached, so a replayed submit returns the same
/// answer), `stats` and `health` (pure reads). `shutdown` and `trace`
/// are deliberately absent — replaying a shutdown races the daemon's
/// exit, and `trace` drains a buffer, so a retry after a half-delivered
/// reply loses events.
///
/// Protocol errors (a parseable-but-hostile reply) are **not** retried:
/// the bytes arrived fine, so a second attempt would get the same
/// answer.
pub struct RetryClient {
    addr: String,
    policy: RetryPolicy,
    conn: Option<Client>,
    rng: u64,
}

impl RetryClient {
    /// Submits a mapping job, retrying per the policy.
    ///
    /// # Errors
    ///
    /// The last attempt's error once the budget is exhausted.
    pub fn map(&mut self, request: &MapRequest) -> Result<Json, ClientError> {
        self.retrying(&request.to_json())
    }

    /// Fetches the statistics document, retrying per the policy.
    ///
    /// # Errors
    ///
    /// The last attempt's error once the budget is exhausted.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.retrying(&Json::obj(vec![("op", Json::Str("stats".into()))]))
    }

    /// Probes daemon health, retrying per the policy.
    ///
    /// # Errors
    ///
    /// The last attempt's error once the budget is exhausted.
    pub fn health(&mut self) -> Result<Json, ClientError> {
        self.retrying(&Json::obj(vec![("op", Json::Str("health".into()))]))
    }

    fn connect(&self) -> Result<Client, ClientError> {
        match self.policy.socket_timeout {
            Some(t) => Client::connect_timeout(&self.addr, t),
            None => Client::connect(&self.addr),
        }
    }

    fn retrying(&mut self, request: &Json) -> Result<Json, ClientError> {
        let attempts = self.policy.attempts.max(1);
        let mut backoff = self.policy.backoff;
        for attempt in 1..=attempts {
            let outcome = match self.conn.take() {
                Some(mut conn) => {
                    let r = conn.roundtrip(request);
                    if r.is_ok() {
                        self.conn = Some(conn);
                    }
                    r
                }
                None => self.connect().and_then(|mut conn| {
                    let r = conn.roundtrip(request);
                    if r.is_ok() {
                        self.conn = Some(conn);
                    }
                    r
                }),
            };
            match outcome {
                Ok(reply) => return Ok(reply),
                Err(e @ ClientError::Protocol(_)) => return Err(e),
                Err(e) => {
                    if attempt == attempts {
                        return Err(e);
                    }
                    std::thread::sleep(self.jittered(backoff));
                    backoff = (backoff * 2).min(self.policy.max_backoff);
                }
            }
        }
        unreachable!("the final attempt either returned or erred")
    }

    /// A deterministic draw in `[d/2, d]`: full-jitter halves the
    /// thundering herd without ever collapsing the delay to zero.
    fn jittered(&mut self, d: Duration) -> Duration {
        // xorshift64* seeded from the policy; good enough to desync
        // clients, and deterministic so tests can pin the schedule.
        if self.rng == 0 {
            self.rng = self.policy.seed | 1;
        }
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        let half = d / 2;
        let span = d.saturating_sub(half).as_nanos() as u64;
        if span == 0 {
            return d;
        }
        half + Duration::from_nanos(x % (span + 1))
    }
}
