//! A small blocking client for the campaign server, used by
//! `repro submit` and the integration tests.

use std::collections::HashMap;
use std::fmt;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::Duration;

use grit_sim::RunSpec;
use grit_trace::Json;

use crate::wire::{CellResult, Request, Response};

/// Default socket read timeout: long enough for a deep queue of slow
/// cells ahead of ours, short enough that a wedged server is an error,
/// not a hang.
pub const DEFAULT_CLIENT_READ_TIMEOUT_MS: u64 = 120_000;

/// Default socket write timeout.
pub const DEFAULT_CLIENT_WRITE_TIMEOUT_MS: u64 = 10_000;

/// Why a client call failed. Timeouts are distinguished so retry loops
/// can treat a silent server differently from a refused connection or a
/// protocol violation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ClientError {
    /// A socket read or write exceeded its timeout: the server is
    /// reachable but silent (wedged, overloaded, or partitioned).
    Timeout(String),
    /// Any other socket failure (refused, reset, broken pipe, ...).
    Io(String),
    /// The peer answered with something that is not `grit-serve/v1`.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Timeout(m) => write!(f, "timeout: {m}"),
            ClientError::Io(m) => write!(f, "io: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    fn io(context: &str, e: &std::io::Error) -> ClientError {
        if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
            ClientError::Timeout(format!("{context}: {e}"))
        } else {
            ClientError::Io(format!("{context}: {e}"))
        }
    }
}

/// Everything a campaign streamed back, collected by
/// [`ServeClient::finish`].
#[derive(Clone, PartialEq, Debug, Default)]
#[non_exhaustive]
pub struct CampaignOutcome {
    /// `result` lines in arrival order — which the server guarantees is
    /// this client's submission order — each holding the events of the
    /// `trace` lines that carried its id.
    pub results: Vec<CellResult>,
    /// Protocol-level `error` lines (not per-cell failures, which land
    /// in [`CampaignOutcome::results`] with a non-`ok` status).
    pub errors: Vec<String>,
    /// `(id, retry_after_ms)` pairs from `busy` lines: submissions the
    /// server's admission control rejected. These ids have no result
    /// and should be resubmitted after backing off.
    pub busy: Vec<(u64, u64)>,
    /// The `done` tally sent by the server, when the connection closed
    /// cleanly.
    pub done_results: Option<u64>,
}

/// A blocking connection to a campaign server.
pub struct ServeClient {
    write: TcpStream,
    read: BufReader<TcpStream>,
}

impl ServeClient {
    /// Connects with the default socket timeouts, sets `TCP_NODELAY`,
    /// and consumes the server's `hello` line.
    ///
    /// # Errors
    ///
    /// Connection failures and protocol violations.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<ServeClient, ClientError> {
        let write = TcpStream::connect(addr).map_err(|e| ClientError::io("connect", &e))?;
        let _ = write.set_nodelay(true);
        let read_timeout = Duration::from_millis(DEFAULT_CLIENT_READ_TIMEOUT_MS);
        let _ = write.set_read_timeout(Some(read_timeout));
        let _ =
            write.set_write_timeout(Some(Duration::from_millis(DEFAULT_CLIENT_WRITE_TIMEOUT_MS)));
        let read_half = write.try_clone().map_err(|e| ClientError::io("clone", &e))?;
        let mut read = BufReader::new(read_half);
        let mut line = String::new();
        read.read_line(&mut line).map_err(|e| ClientError::io("hello", &e))?;
        let hello = Json::parse(&line)
            .map_err(|e| ClientError::Protocol(format!("hello: bad JSON {e:?}")))
            .and_then(|v| Response::from_json(&v).map_err(ClientError::Protocol))?;
        let Response::Hello { .. } = hello else {
            return Err(ClientError::Protocol(format!(
                "expected hello, got {hello:?}"
            )));
        };
        Ok(ServeClient { write, read })
    }

    fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        let line = format!("{}\n", req.to_json());
        self.write.write_all(line.as_bytes()).map_err(|e| ClientError::io("send", &e))
    }

    /// Submits one cell under a client-chosen id.
    ///
    /// # Errors
    ///
    /// Socket write failures.
    pub fn submit(&mut self, id: u64, spec: &RunSpec) -> Result<(), ClientError> {
        self.send(&Request::Submit {
            id,
            spec: spec.clone(),
        })
    }

    /// Round-trips a ping. Any buffered `accepted`/`progress` lines
    /// ahead of the pong are skipped.
    ///
    /// # Errors
    ///
    /// Socket failures or an unexpected end of stream.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.send(&Request::Ping)?;
        loop {
            match self.next_response()? {
                Some(Response::Pong) => return Ok(()),
                Some(_) => continue,
                None => return Err(ClientError::Protocol("server closed before pong".into())),
            }
        }
    }

    /// Asks the server to exit once all outstanding work (from every
    /// client) is answered.
    ///
    /// # Errors
    ///
    /// Socket write failures.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.send(&Request::Shutdown)
    }

    /// Reads one response line, or `None` at end of stream.
    ///
    /// # Errors
    ///
    /// Socket read failures (including [`ClientError::Timeout`] when
    /// the server goes silent past the read timeout) or unparseable
    /// lines.
    pub fn next_response(&mut self) -> Result<Option<Response>, ClientError> {
        let mut line = String::new();
        let n = self.read.read_line(&mut line).map_err(|e| ClientError::io("recv", &e))?;
        if n == 0 {
            return Ok(None);
        }
        if line.trim().is_empty() {
            return self.next_response();
        }
        Json::parse(&line)
            .map_err(|e| ClientError::Protocol(format!("recv: bad JSON {e:?}")))
            .and_then(|v| Response::from_json(&v).map_err(ClientError::Protocol))
            .map(Some)
    }

    /// Half-closes the write side (telling the server no more requests
    /// are coming) and drains the stream until `done`/EOF. Each `trace`
    /// line's event lands on the result with the same id.
    ///
    /// # Errors
    ///
    /// Socket failures while draining.
    pub fn finish(mut self) -> Result<CampaignOutcome, ClientError> {
        let _ = self.write.shutdown(Shutdown::Write);
        let mut outcome = CampaignOutcome::default();
        let mut traces: HashMap<u64, Vec<Json>> = HashMap::new();
        while let Some(resp) = self.next_response()? {
            match resp {
                Response::Result(mut r) => {
                    r.trace = traces.remove(&r.id).unwrap_or_default();
                    outcome.results.push(r);
                }
                Response::Trace { id, event } => traces.entry(id).or_default().push(event),
                Response::Busy { id, retry_after_ms } => {
                    outcome.busy.push((id, retry_after_ms));
                }
                Response::Error { id, message } => outcome.errors.push(match id {
                    Some(id) => format!("cell {id}: {message}"),
                    None => message,
                }),
                Response::Done { results } => {
                    outcome.done_results = Some(results);
                    break;
                }
                Response::Hello { .. }
                | Response::Accepted { .. }
                | Response::Progress { .. }
                | Response::Pong => {}
            }
        }
        Ok(outcome)
    }
}
