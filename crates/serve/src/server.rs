//! The campaign server: accept loop, shared worker pool, and the
//! per-connection ordered sink.
//!
//! Each connection gets a reader thread that parses request lines and a
//! sink that buffers response lines per submission. Cells from *all*
//! connections funnel into one process-wide queue drained by `jobs`
//! worker threads, so every client shares the same warm process (and,
//! through the runner, the same workload cache and result store).
//! Workers finish cells in arbitrary order; the sink releases each
//! cell's `[trace..., result]` group only when every earlier submission
//! of the *same connection* has been released, so a client always reads
//! its results in declaration order, at any `jobs`.
//!
//! Survivability invariants (chaos-tested in `tests/serve_chaos.rs`):
//!
//! * **Admission control.** The global queue is bounded
//!   ([`ServeOptions::max_queued`]); an over-budget `submit` is answered
//!   with a typed `busy` response carrying `retry_after_ms` instead of
//!   growing the queue, and is not counted toward the connection's
//!   results — the client backs off and resubmits.
//! * **Bounded sinks.** A connection that stops reading cannot pin
//!   memory: its ordered buffer is capped
//!   ([`ServeOptions::max_sink_bytes`]) and socket writes carry a
//!   timeout ([`ServeOptions::write_timeout_ms`]). Breaching either
//!   marks the sink dead and discards its buffered lines.
//! * **Cancellation.** When a connection drops with a read *error* (as
//!   opposed to a graceful half-close), its still-queued cells are
//!   purged and its dead sink makes workers skip any stragglers;
//!   cells already in flight finish and populate the shared store, so
//!   the work is never wasted twice.
//! * **Drain-then-exit.** A [`ShutdownHandle`] (wired to SIGINT/SIGTERM
//!   by `repro serve`) stops the accept loop and makes reader loops
//!   treat their connection as half-closed: every already-submitted
//!   cell is answered and acknowledged with `done` before the server
//!   returns.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use grit_sim::RunSpec;
use grit_trace::Json;

use crate::wire::{CellResult, Request, Response};

/// Backoff hint carried by `busy` responses.
pub const RETRY_AFTER_MS: u64 = 2_000;

/// Default cap on one connection's buffered (not yet written) response
/// bytes.
pub const DEFAULT_MAX_SINK_BYTES: usize = 8 * 1024 * 1024;

/// Default socket write timeout; a client that reads nothing for this
/// long while the server has output for it is treated as dead.
pub const DEFAULT_WRITE_TIMEOUT_MS: u64 = 10_000;

/// Reader-loop poll interval: how often a blocked reader re-checks the
/// drain flag.
const READ_POLL_MS: u64 = 500;

/// A cell that did not complete.
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub struct SpecFailure {
    /// Machine-readable status (`"invalid-spec"`, `"panicked"`,
    /// `"timed-out"`, ...).
    pub status: String,
    /// Human-readable detail.
    pub message: String,
}

impl SpecFailure {
    /// Builds a failure with the given status and message.
    pub fn new(status: impl Into<String>, message: impl Into<String>) -> Self {
        SpecFailure {
            status: status.into(),
            message: message.into(),
        }
    }
}

impl From<SpecFailure> for CellResult {
    /// The result row of a failed cell: its status and message, every
    /// counter zero.
    fn from(fail: SpecFailure) -> Self {
        CellResult {
            status: fail.status,
            error: Some(fail.message),
            ..CellResult::default()
        }
    }
}

/// Executes one [`RunSpec`] and returns its finished [`CellResult`],
/// trace events included; the server sets its `id`, and the status
/// `"ok"` of an `Ok`. The callback is invoked concurrently from the
/// worker pool, so it must be thread-safe; the `grit` crate's batch
/// engine (which already serializes store access internally) is the
/// intended implementation.
pub type SpecRunner = Arc<dyn Fn(&RunSpec) -> Result<CellResult, SpecFailure> + Send + Sync>;

/// Server configuration. Construct with [`ServeOptions::new`] and the
/// builder methods; the struct is non-exhaustive so new knobs can be
/// added without breaking callers.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct ServeOptions {
    /// TCP port to bind on 127.0.0.1; `0` picks an ephemeral port.
    pub port: u16,
    /// When set, the bound address is written here (for scripts that
    /// started the server with port 0).
    pub port_file: Option<PathBuf>,
    /// Worker threads; `0` resolves to available parallelism.
    pub jobs: usize,
    /// Admission-control bound on the global cell queue; `0` means
    /// unbounded. Submissions over the bound are answered `busy`.
    pub max_queued: usize,
    /// Cap on one connection's buffered response bytes; `0` means
    /// unbounded. A sink over the cap is dead (slow-client disconnect).
    pub max_sink_bytes: usize,
    /// Socket write timeout in milliseconds; `0` disables it.
    pub write_timeout_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            port: 0,
            port_file: None,
            jobs: 0,
            max_queued: 0,
            max_sink_bytes: DEFAULT_MAX_SINK_BYTES,
            write_timeout_ms: DEFAULT_WRITE_TIMEOUT_MS,
        }
    }
}

impl ServeOptions {
    /// Default options: ephemeral port, auto worker count, unbounded
    /// queue, default sink bound and write timeout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the TCP port (`0` = ephemeral).
    pub fn port(mut self, port: u16) -> Self {
        self.port = port;
        self
    }

    /// Writes the bound address to `path` once listening.
    pub fn port_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.port_file = Some(path.into());
        self
    }

    /// Sets the worker-thread count (`0` = auto).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Bounds the global cell queue (`0` = unbounded).
    pub fn max_queued(mut self, max_queued: usize) -> Self {
        self.max_queued = max_queued;
        self
    }

    /// Bounds one connection's buffered response bytes (`0` =
    /// unbounded).
    pub fn max_sink_bytes(mut self, max_sink_bytes: usize) -> Self {
        self.max_sink_bytes = max_sink_bytes;
        self
    }

    /// Sets the socket write timeout in milliseconds (`0` = none).
    pub fn write_timeout_ms(mut self, ms: u64) -> Self {
        self.write_timeout_ms = ms;
        self
    }
}

/// What a finished server did, for logs and reports.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
#[non_exhaustive]
pub struct ServeSummary {
    /// Result lines sent across all connections.
    pub cells: u64,
    /// How many of those were store hits.
    pub store_hits: u64,
    /// How many ended in a non-`ok` status.
    pub errors: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Cells dropped unrun because their connection died first.
    pub cancelled: u64,
    /// Submissions rejected with `busy` by admission control.
    pub rejected: u64,
}

/// One queued cell: where it came from and where its lines go.
struct Job {
    seq: u64,
    id: u64,
    spec: RunSpec,
    sink: Arc<OrderedSink>,
}

/// Per-connection ordered delivery: buffers each submission's response
/// lines under its sequence number and flushes groups strictly in
/// sequence order. `Progress` lines bypass the buffer (they are
/// documented as out-of-band). One mutex guards both the buffer and the
/// socket: a group only counts as flushed once its bytes hit the
/// stream, so `done` can never overtake the final result.
///
/// A sink dies when a write fails or times out, or when its buffered
/// bytes exceed `max_bytes`; a dead sink drops its buffer and swallows
/// all further lines, so one stalled client costs a bounded amount of
/// memory and at most one write-timeout per worker.
struct OrderedSink {
    state: Mutex<SinkState>,
    cv: Condvar,
    max_bytes: usize,
}

struct SinkState {
    stream: TcpStream,
    next_flush: u64,
    pending: HashMap<u64, Vec<String>>,
    pending_bytes: usize,
    flushed: u64,
    dead: bool,
}

impl SinkState {
    fn write(&mut self, line: &str) {
        if self.dead {
            return;
        }
        if self.stream.write_all(line.as_bytes()).is_err() {
            self.die();
        }
    }

    fn die(&mut self) {
        self.dead = true;
        self.pending.clear();
        self.pending_bytes = 0;
    }
}

impl OrderedSink {
    fn new(stream: TcpStream, max_bytes: usize) -> Self {
        OrderedSink {
            state: Mutex::new(SinkState {
                stream,
                next_flush: 0,
                pending: HashMap::new(),
                pending_bytes: 0,
                flushed: 0,
                dead: false,
            }),
            cv: Condvar::new(),
            max_bytes,
        }
    }

    fn is_dead(&self) -> bool {
        self.state.lock().unwrap().dead
    }

    /// Marks the sink dead and releases anyone waiting on it.
    fn kill(&self) {
        self.state.lock().unwrap().die();
        self.cv.notify_all();
    }

    /// Sends one line immediately, outside the ordering buffer.
    fn send_direct(&self, resp: Response) {
        let line = format!("{}\n", resp.into_json());
        let mut st = self.state.lock().unwrap();
        st.write(&line);
        let died = st.dead;
        drop(st);
        if died {
            self.cv.notify_all();
        }
    }

    /// Queues a finished submission's lines and flushes every group
    /// that is now next in sequence.
    fn complete(&self, seq: u64, lines: Vec<String>) {
        let mut st = self.state.lock().unwrap();
        if st.dead {
            drop(st);
            self.cv.notify_all();
            return;
        }
        st.pending_bytes += lines.iter().map(String::len).sum::<usize>();
        st.pending.insert(seq, lines);
        if self.max_bytes != 0 && st.pending_bytes > self.max_bytes {
            // The client is not reading fast enough for the results it
            // ordered; cut it loose rather than buffer without bound.
            st.die();
            drop(st);
            self.cv.notify_all();
            return;
        }
        loop {
            let next = st.next_flush;
            let Some(group) = st.pending.remove(&next) else {
                break;
            };
            st.pending_bytes -= group.iter().map(String::len).sum::<usize>();
            for line in &group {
                st.write(line);
            }
            st.next_flush += 1;
            st.flushed += 1;
        }
        let _ = st.stream.flush();
        drop(st);
        self.cv.notify_all();
    }

    /// Blocks until `count` submission groups have been flushed (or the
    /// connection died).
    fn wait_flushed(&self, count: u64) {
        let mut st = self.state.lock().unwrap();
        while st.flushed < count && !st.dead {
            st = self.cv.wait(st).unwrap();
        }
    }
}

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    work_cv: Condvar,
    shutdown: AtomicBool,
    runner: SpecRunner,
    max_queued: usize,
    /// Live connection handlers; workers only exit once this is zero
    /// (a live handler may still enqueue work after the drain flag is
    /// set, between parsing a line and submitting it).
    active: AtomicU64,
    cells: AtomicU64,
    store_hits: AtomicU64,
    errors: AtomicU64,
    cancelled: AtomicU64,
    rejected: AtomicU64,
}

impl Shared {
    /// Admits the job if the queue has room, acknowledging it with
    /// `accepted` *while holding the queue lock* — so no worker can
    /// flush the job's result line ahead of its acknowledgement.
    /// Returns `false` (and sends nothing) when admission control says
    /// `busy`.
    fn try_submit(&self, job: Job) -> bool {
        let mut q = self.queue.lock().unwrap();
        if self.max_queued != 0 && q.len() >= self.max_queued {
            return false;
        }
        job.sink.send_direct(Response::Accepted { id: job.id });
        q.push_back(job);
        drop(q);
        self.work_cv.notify_one();
        true
    }

    /// Pops the oldest job, or `None` once shutdown is flagged, every
    /// connection handler has exited, and the queue has drained — the
    /// point after which no new job can appear.
    fn pop(&self) -> Option<Job> {
        let mut q = self.queue.lock().unwrap();
        loop {
            if let Some(job) = q.pop_front() {
                return Some(job);
            }
            if self.shutdown.load(Ordering::SeqCst) && self.active.load(Ordering::SeqCst) == 0 {
                return None;
            }
            q = self.work_cv.wait(q).unwrap();
        }
    }

    /// Removes every still-queued job belonging to `sink` (a dropped
    /// connection); in-flight jobs are unaffected and finish into the
    /// shared store.
    fn purge_sink(&self, sink: &Arc<OrderedSink>) {
        let mut q = self.queue.lock().unwrap();
        let before = q.len();
        q.retain(|job| !Arc::ptr_eq(&job.sink, sink));
        let removed = (before - q.len()) as u64;
        drop(q);
        self.cancelled.fetch_add(removed, Ordering::SeqCst);
    }
}

/// Asks a running [`Server`] to drain and exit: stop accepting, treat
/// every open connection as half-closed (already-submitted cells are
/// still answered), and return once the queue is empty. Cloneable and
/// signal-safe to *store*; the actual [`ShutdownHandle::shutdown`] call
/// locks and allocates, so call it from a normal thread (e.g. a signal
/// poller), not a signal handler.
#[derive(Clone)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Triggers the drain. Idempotent.
    pub fn shutdown(&self) {
        trigger_shutdown(&self.shared, self.addr);
    }
}

fn trigger_shutdown(shared: &Shared, addr: SocketAddr) {
    shared.shutdown.store(true, Ordering::SeqCst);
    shared.work_cv.notify_all();
    // The accept loop is blocked in `incoming()`; a throwaway
    // connection unblocks it so it can observe the flag. (Reader loops
    // poll the flag on their read timeout.)
    let _ = TcpStream::connect(addr);
}

/// A listening campaign server. Obtain one with [`Server::start`], then
/// either [`Server::run`] on the current thread or keep the handle and
/// poke [`Server::local_addr`] into clients first.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    jobs: usize,
    addr: SocketAddr,
    write_timeout_ms: u64,
    max_sink_bytes: usize,
}

impl Server {
    /// Binds `127.0.0.1:port` and spins up the shared state (workers
    /// start inside [`Server::run`]). Writes the port file when asked.
    ///
    /// # Errors
    ///
    /// Propagates the bind / port-file I/O error as a string.
    pub fn start(opts: &ServeOptions, runner: SpecRunner) -> Result<Server, String> {
        let listener = TcpListener::bind(("127.0.0.1", opts.port))
            .map_err(|e| format!("bind 127.0.0.1:{}: {e}", opts.port))?;
        let addr = listener.local_addr().map_err(|e| format!("local_addr: {e}"))?;
        if let Some(path) = &opts.port_file {
            std::fs::write(path, format!("{addr}\n"))
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        let jobs = if opts.jobs == 0 {
            thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            opts.jobs
        };
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                queue: Mutex::new(VecDeque::new()),
                work_cv: Condvar::new(),
                shutdown: AtomicBool::new(false),
                runner,
                max_queued: opts.max_queued,
                active: AtomicU64::new(0),
                cells: AtomicU64::new(0),
                store_hits: AtomicU64::new(0),
                errors: AtomicU64::new(0),
                cancelled: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
            }),
            jobs,
            addr,
            write_timeout_ms: opts.write_timeout_ms,
            max_sink_bytes: opts.max_sink_bytes,
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that can ask this server to drain and exit from another
    /// thread (`repro serve` wires it to SIGINT/SIGTERM).
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
            addr: self.addr,
        }
    }

    /// Serves until a client sends `shutdown` (or a [`ShutdownHandle`]
    /// fires); returns the tally of work done. Connection handler
    /// threads and workers are joined before returning, so every
    /// accepted submission has been answered.
    pub fn run(self) -> ServeSummary {
        let workers: Vec<_> = (0..self.jobs)
            .map(|_| {
                let shared = Arc::clone(&self.shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();

        let mut handlers = Vec::new();
        let mut connections = 0u64;
        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            connections += 1;
            self.shared.active.fetch_add(1, Ordering::SeqCst);
            let shared = Arc::clone(&self.shared);
            let addr = self.addr;
            let write_timeout_ms = self.write_timeout_ms;
            let max_sink_bytes = self.max_sink_bytes;
            handlers.push(thread::spawn(move || {
                handle_connection(stream, &shared, addr, write_timeout_ms, max_sink_bytes);
                shared.active.fetch_sub(1, Ordering::SeqCst);
                // The last handler out lets the workers observe
                // (shutdown && active == 0 && queue empty) and exit.
                shared.work_cv.notify_all();
            }));
        }
        for h in handlers {
            let _ = h.join();
        }
        // Handlers only enqueue while alive, so the queue is final now;
        // wake the workers to drain and exit.
        self.shared.work_cv.notify_all();
        for w in workers {
            let _ = w.join();
        }
        ServeSummary {
            cells: self.shared.cells.load(Ordering::SeqCst),
            store_hits: self.shared.store_hits.load(Ordering::SeqCst),
            errors: self.shared.errors.load(Ordering::SeqCst),
            connections,
            cancelled: self.shared.cancelled.load(Ordering::SeqCst),
            rejected: self.shared.rejected.load(Ordering::SeqCst),
        }
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.pop() {
        if job.sink.is_dead() {
            // The connection died after this cell was queued but before
            // a worker reached it; nobody will read the result, so skip
            // the run entirely.
            shared.cancelled.fetch_add(1, Ordering::SeqCst);
            continue;
        }
        job.sink.send_direct(Response::Progress {
            id: job.id,
            state: "running".into(),
        });
        let mut result = (shared.runner)(&job.spec)
            .map(|ok| CellResult {
                status: "ok".into(),
                ..ok
            })
            .unwrap_or_else(|fail| {
                shared.errors.fetch_add(1, Ordering::SeqCst);
                CellResult::from(fail)
            });
        if result.store_hit {
            shared.store_hits.fetch_add(1, Ordering::SeqCst);
        }
        result.id = job.id;
        let mut lines: Vec<String> = std::mem::take(&mut result.trace)
            .into_iter()
            .map(|event| format!("{}\n", Response::Trace { id: job.id, event }.into_json()))
            .collect();
        shared.cells.fetch_add(1, Ordering::SeqCst);
        lines.push(format!("{}\n", Response::Result(result).into_json()));
        job.sink.complete(job.seq, lines);
    }
}

/// How one connection's reader loop ended.
enum ReadEnd {
    /// Clean half-close (or drain): honor everything submitted.
    Eof,
    /// Read error: the client is gone; cancel its queued work.
    Aborted,
}

/// Reads request lines until EOF, error, or server drain. A read
/// timeout on the socket turns the blocking read into a poll so the
/// drain flag is observed within [`READ_POLL_MS`]; partial lines
/// accumulate across `WouldBlock` returns and are never dropped.
fn read_requests(
    stream: TcpStream,
    shared: &Arc<Shared>,
    sink: &Arc<OrderedSink>,
    submitted: &mut u64,
) -> ReadEnd {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(READ_POLL_MS)));
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => {
                // EOF. A non-empty buffer is a final line without a
                // trailing newline; chaos truncation lands here, and the
                // half-parsed text must still get its error response.
                if !buf.is_empty() {
                    handle_line(&buf, shared, sink, submitted);
                }
                return ReadEnd::Eof;
            }
            Ok(_) if buf.last() == Some(&b'\n') => {
                handle_line(&buf, shared, sink, submitted);
                buf.clear();
            }
            Ok(_) => {
                // read_until only returns without a delimiter at EOF;
                // treat like Ok(0) with a pending line.
                handle_line(&buf, shared, sink, submitted);
                return ReadEnd::Eof;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    // Drain: pretend the client half-closed now.
                    return ReadEnd::Eof;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return ReadEnd::Aborted,
        }
    }
}

fn handle_line(raw: &[u8], shared: &Arc<Shared>, sink: &Arc<OrderedSink>, submitted: &mut u64) {
    let line = String::from_utf8_lossy(raw);
    let line = line.trim();
    if line.is_empty() {
        return;
    }
    let req = Json::parse(line)
        .map_err(|e| format!("bad JSON: {e:?}"))
        .and_then(|v| Request::from_json(&v));
    match req {
        Ok(Request::Submit { id, spec }) => {
            let admitted = shared.try_submit(Job {
                seq: *submitted,
                id,
                spec,
                sink: Arc::clone(sink),
            });
            if admitted {
                *submitted += 1;
            } else {
                shared.rejected.fetch_add(1, Ordering::SeqCst);
                sink.send_direct(Response::Busy {
                    id,
                    retry_after_ms: RETRY_AFTER_MS,
                });
            }
        }
        Ok(Request::Ping) => sink.send_direct(Response::Pong),
        Ok(Request::Shutdown) => {
            // Honored after this connection's work is flushed; flag it
            // via the shared state so the accept loop stops taking new
            // connections right away.
            shared.shutdown.store(true, Ordering::SeqCst);
        }
        Err(message) => sink.send_direct(Response::Error { id: None, message }),
    }
}

fn handle_connection(
    stream: TcpStream,
    shared: &Arc<Shared>,
    addr: SocketAddr,
    write_timeout_ms: u64,
    max_sink_bytes: usize,
) {
    // NODELAY: responses are single small lines and latency-sensitive;
    // the write timeout is the slow-client guillotine.
    let _ = stream.set_nodelay(true);
    if write_timeout_ms != 0 {
        let _ = stream.set_write_timeout(Some(Duration::from_millis(write_timeout_ms)));
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let sink = Arc::new(OrderedSink::new(write_half, max_sink_bytes));
    sink.send_direct(Response::Hello {
        version: env!("CARGO_PKG_VERSION").into(),
    });

    let mut submitted = 0u64;
    let want_shutdown_before = shared.shutdown.load(Ordering::SeqCst);
    let end = read_requests(stream, shared, &sink, &mut submitted);

    match end {
        ReadEnd::Eof => {
            // The client half-closed (or the server is draining);
            // everything it submitted is in flight. Wait for the sink
            // to flush all of it, then close the conversation.
            sink.wait_flushed(submitted);
            sink.send_direct(Response::Done { results: submitted });
        }
        ReadEnd::Aborted => {
            // The client is gone; answer lines would hit a broken pipe.
            // Kill the sink first so workers skip the stragglers, then
            // purge what never started.
            sink.kill();
            shared.purge_sink(&sink);
        }
    }
    let _ = sink.state.lock().unwrap().stream.shutdown(Shutdown::Both);

    // A `shutdown` request observed on this connection (the flag
    // flipped while we were reading) also needs the accept loop poked.
    if !want_shutdown_before && shared.shutdown.load(Ordering::SeqCst) {
        trigger_shutdown(shared, addr);
    }
}
