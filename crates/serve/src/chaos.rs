//! A deterministic fault-injecting TCP proxy for chaos-testing the
//! campaign service.
//!
//! [`ChaosProxy`] listens on an ephemeral localhost port and forwards
//! each accepted connection to a target server, applying one
//! [`ChaosFault`] from a fixed per-connection schedule. Faults are
//! keyed on exact byte/line counts — never timers or randomness — so a
//! chaos scenario replays identically on every run and at any worker
//! count: the same bytes always flow before the same fault fires.
//!
//! This is the service-layer twin of the hardware fault schedule in
//! `grit_sim::inject`: the simulated machine and the machinery serving it
//! are both exercised under deterministic, reproducible failure.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// One connection's scripted misbehaviour. Request faults act on the
/// client→server byte stream, response faults on server→client; the
/// untouched direction keeps forwarding transparently.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
#[non_exhaustive]
pub enum ChaosFault {
    /// Forward everything faithfully.
    #[default]
    Transparent,
    /// Abruptly sever the connection (both directions, no FIN
    /// courtesy) once `n` request bytes have been forwarded — a crash
    /// or network partition mid-campaign.
    CloseAfterRequestBytes(usize),
    /// Forward exactly `n` request bytes — ending mid-line when `n`
    /// says so — then half-close the server-bound direction, so the
    /// server reads a truncated final line followed by EOF. Responses
    /// keep flowing: the client still sees the server's reaction.
    TruncateRequestAfterBytes(usize),
    /// Forward `after_bytes` response bytes, then stall the
    /// server→client direction for `millis` before resuming — a
    /// reader that stops draining for a while.
    StallResponsesAfterBytes {
        /// Response bytes forwarded before the stall.
        after_bytes: usize,
        /// Stall length in milliseconds.
        millis: u64,
    },
    /// Deliver every complete response line twice. Exercises client
    /// idempotence: duplicated `result` lines must not corrupt a
    /// campaign.
    DuplicateResponseLines,
}

/// A fault-injecting localhost TCP proxy. The `i`-th accepted
/// connection gets the `i`-th fault of the schedule; connections past
/// the end are forwarded transparently.
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Starts the proxy in front of `target` with a per-connection
    /// fault schedule.
    ///
    /// # Errors
    ///
    /// Propagates listener-setup failures.
    pub fn start(target: SocketAddr, schedule: Vec<ChaosFault>) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let plan = Arc::new(Mutex::new(schedule.into_iter()));
        let accept_thread = thread::spawn(move || {
            for conn in listener.incoming() {
                if stop_flag.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(client) = conn else { continue };
                let fault = plan.lock().unwrap().next().unwrap_or_default();
                let Ok(server) = TcpStream::connect(target) else {
                    // Target gone (e.g. between kill and restart in a
                    // chaos scenario): drop the client, which sees a
                    // reset/EOF and retries.
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                };
                spawn_pumps(client, server, fault);
            }
        });
        Ok(ChaosProxy {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The proxy's listening address — point clients here.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop so it observes the flag. Pump threads
        // are detached; they exit when their sockets close.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Wires up the two forwarding threads for one proxied connection.
fn spawn_pumps(client: TcpStream, server: TcpStream, fault: ChaosFault) {
    let (Ok(client2), Ok(server2)) = (client.try_clone(), server.try_clone()) else {
        return;
    };
    let up_fault = fault.clone();
    // client → server
    thread::spawn(move || pump_requests(client, server, &up_fault));
    // server → client
    thread::spawn(move || pump_responses(server2, client2, &fault));
}

/// Forwards `limit` bytes from `from` into `to`, honoring partial
/// chunks exactly at the boundary. Returns `false` on EOF/error before
/// the limit.
fn copy_exact(from: &mut TcpStream, to: &mut TcpStream, limit: usize) -> bool {
    let mut remaining = limit;
    let mut chunk = [0u8; 4096];
    while remaining > 0 {
        let want = remaining.min(chunk.len());
        match from.read(&mut chunk[..want]) {
            Ok(0) => return false,
            Ok(n) => {
                if to.write_all(&chunk[..n]).is_err() {
                    return false;
                }
                remaining -= n;
            }
            Err(_) => return false,
        }
    }
    true
}

/// Forwards until EOF/error with no byte limit.
fn copy_all(from: &mut TcpStream, to: &mut TcpStream) {
    let mut chunk = [0u8; 4096];
    loop {
        match from.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if to.write_all(&chunk[..n]).is_err() {
                    break;
                }
            }
        }
    }
    let _ = to.shutdown(Shutdown::Write);
}

fn pump_requests(mut client: TcpStream, mut server: TcpStream, fault: &ChaosFault) {
    match fault {
        ChaosFault::CloseAfterRequestBytes(n) => {
            let _ = copy_exact(&mut client, &mut server, *n);
            // Abrupt: both sockets, both directions — the response pump
            // dies with its socket.
            let _ = server.shutdown(Shutdown::Both);
            let _ = client.shutdown(Shutdown::Both);
        }
        ChaosFault::TruncateRequestAfterBytes(n) => {
            let _ = copy_exact(&mut client, &mut server, *n);
            // Half-close only: the server sees a torn final line + EOF,
            // and its answers still reach the client.
            let _ = server.shutdown(Shutdown::Write);
        }
        _ => copy_all(&mut client, &mut server),
    }
}

fn pump_responses(mut server: TcpStream, mut client: TcpStream, fault: &ChaosFault) {
    match fault {
        ChaosFault::StallResponsesAfterBytes {
            after_bytes,
            millis,
        } => {
            if copy_exact(&mut server, &mut client, *after_bytes) {
                thread::sleep(Duration::from_millis(*millis));
                copy_all(&mut server, &mut client);
            } else {
                let _ = client.shutdown(Shutdown::Write);
            }
        }
        ChaosFault::DuplicateResponseLines => {
            // Line-buffered forwarding: each complete line is written
            // twice. A final partial line (no newline before EOF) is
            // forwarded once, verbatim.
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            loop {
                match server.read(&mut chunk) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        buf.extend_from_slice(&chunk[..n]);
                        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                            let line: Vec<u8> = buf.drain(..=pos).collect();
                            if client.write_all(&line).is_err() || client.write_all(&line).is_err()
                            {
                                return;
                            }
                        }
                    }
                }
            }
            let _ = client.write_all(&buf);
            let _ = client.shutdown(Shutdown::Write);
        }
        _ => copy_all(&mut server, &mut client),
    }
}
