//! Event-driven connection core: one epoll reactor thread multiplexing
//! every socket, answering a cache hit where it is parsed and handing the
//! rest to the serve layer's one worker pool.
//!
//! Connections are driven by *readiness*, not by threads: a single
//! reactor thread parks in `epoll_wait`, and every connection is a
//! small state machine (`Reading → Dispatching → Writing → KeepAlive`)
//! advanced only when its socket is actually ready. The ceiling is the
//! process fd budget — tens of thousands of mostly idle keep-alive
//! connections cost a few hundred bytes each, not a stack.
//!
//! Layout:
//!
//! * [`sys`] — raw `epoll_create1`/`epoll_ctl`/`epoll_wait` FFI. The
//!   repo is std-only, so the syscalls are declared directly against
//!   the C ABI rather than through the `libc` crate.
//! * [`TimerWheel`] — a hashed wheel holding every connection deadline
//!   (idle reap, cumulative slow-loris read deadline). Entries are
//!   lazy: firing re-checks the connection's real state and re-arms,
//!   so renewing activity never has to hunt down stale entries.
//! * Dispatch — each parse-complete request is routed once, on the
//!   reactor thread ([`crate::router::route`]): the route table, and for
//!   an op the cache probe ([`covidkg_serve::Server::probe`]). What that
//!   answers (a hit, a route-level 400/404/405, the listing) is written
//!   to the socket at once. The rest (a miss, carrying its op and cache
//!   key; `/stats` and `/metrics`; a routed read) becomes one job on the
//!   serve layer's bounded queue ([`covidkg_serve::Server::submit`]); the
//!   worker that dequeues it finishes it
//!   ([`crate::router::Deferred::finish`]) and posts the response to the
//!   [`Mailbox`] with one byte on the wake pipe. The reactor never runs
//!   an engine or takes the system lock, so one slow search cannot stall
//!   accept, timers, hits or other connections' I/O. A job the queue
//!   rejects (full, or shut down) is answered at once with the 503 that
//!   rejection renders to; a hit never meets the queue. A panic while
//!   routing costs its peer one 500, as a panic on a worker does.
//!
//! Ordering guarantee: responses leave a connection in request order.
//! One request per connection is in flight at a time; further pipelined
//! requests (hits included, and pre-serialized error responses, which
//! must not jump the queue) wait in a per-connection FIFO.

use crate::http::{Body, Parser, Request, Response};
use crate::metrics::WireMetrics;
use crate::router::{error_response, route, serve_error_response, Deferred, Routed};
use crate::server::Shared;
use covidkg_serve::ServeError;
use std::collections::VecDeque;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Raw epoll FFI: the only platform-specific surface in the repo.
/// Declared directly (no `libc` crate) — the workspace is std-only.
mod sys {
    use std::io;
    use std::os::fd::RawFd;

    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLOUT: u32 = 0x4;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;
    pub const EPOLLRDHUP: u32 = 0x2000;

    /// Kernel `struct epoll_event`. Packed on x86-64 (the kernel ABI
    /// packs it there so 32- and 64-bit layouts match); natural
    /// alignment elsewhere.
    #[derive(Clone, Copy)]
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// Owned epoll instance; closed on drop.
    pub struct Epoll {
        fd: i32,
    }

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            // SAFETY: `epoll_create1` takes a flags word by value and
            // touches no caller memory; a negative return is handled below.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll { fd })
        }

        fn ctl(&self, op: i32, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
            let mut ev = EpollEvent { events, data };
            let ptr = if op == EPOLL_CTL_DEL { std::ptr::null_mut() } else { &mut ev };
            // SAFETY: `self.fd` is a live epoll fd owned by `self`. `ptr` is
            // null only for `EPOLL_CTL_DEL`, which ignores the event;
            // otherwise it points at `ev`, laid out as the kernel's
            // `epoll_event` and live on this frame while the kernel copies
            // it in.
            if unsafe { epoll_ctl(self.fd, op, fd, ptr) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn add(&self, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, events, data)
        }

        pub fn modify(&self, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, events, data)
        }

        pub fn del(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Wait for readiness; `Ok(0)` on timeout or signal interrupt.
        pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
            // SAFETY: `self.fd` is a live epoll fd owned by `self`, and the
            // kernel writes at most `maxevents` = `events.len()` entries
            // through the pointer, all inside the exclusively borrowed
            // slice; callers pass buffers far below `i32::MAX` entries.
            let n = unsafe {
                epoll_wait(self.fd, events.as_mut_ptr(), events.len() as i32, timeout_ms)
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(err);
            }
            Ok(n as usize)
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: `self.fd` was opened by `Epoll::new`, is owned by
            // `self` alone and is closed exactly once, here.
            unsafe { close(self.fd) };
        }
    }
}

/// Timer-wheel granularity — also the `epoll_wait` timeout, so every
/// deadline is noticed within one tick even on a silent wire.
const WHEEL_TICK: Duration = Duration::from_millis(10);
/// Wheel circumference: `WHEEL_SLOTS * WHEEL_TICK` (2.56 s) per
/// revolution; farther deadlines simply re-insert when their slot
/// fires early (lazy hashed wheel).
const WHEEL_SLOTS: usize = 256;
/// Readiness events drained per `epoll_wait` call.
const MAX_EVENTS: usize = 256;
/// Parsed-but-undispatched requests a connection may queue before the
/// reactor stops reading from it (pipelining backpressure).
const PIPELINE_MAX: usize = 32;
/// `epoll_wait` user-data tag for the listening socket.
const LISTENER_DATA: u64 = u64::MAX;
/// `epoll_wait` user-data tag for the wake pipe (completions/shutdown).
const WAKE_DATA: u64 = u64::MAX - 1;

/// A deadline owned by connection `token`. `generation` fences entries
/// from earlier tenants of a reused slot.
struct TimerEntry {
    token: usize,
    generation: u64,
    deadline: Instant,
    /// Armed by a stalled write (see `Conn::write_timer`).
    write: bool,
}

/// Hashed timer wheel. `schedule` is O(1); each tick visits one slot.
/// Entries are *hints*: on fire the reactor re-derives the connection's
/// true next deadline from its state, so stale entries (activity
/// renewed, request completed) are harmless.
struct TimerWheel {
    slots: Vec<Vec<TimerEntry>>,
    cursor: usize,
    last_advance: Instant,
}

impl TimerWheel {
    fn new(now: Instant) -> TimerWheel {
        TimerWheel {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            cursor: 0,
            last_advance: now,
        }
    }

    fn schedule(&mut self, now: Instant, entry: TimerEntry) {
        let ahead = entry.deadline.saturating_duration_since(now);
        // Past deadlines land in the next slot (min 1 tick ahead):
        // firing re-evaluates state, so "a bit late" is safe, "never"
        // is not. Beyond one revolution, cap — the early fire re-arms.
        let ticks = ((ahead.as_millis() / WHEEL_TICK.as_millis()) as usize + 1)
            .clamp(1, WHEEL_SLOTS - 1);
        let slot = (self.cursor + ticks) % WHEEL_SLOTS;
        self.slots[slot].push(entry);
    }

    /// Advance the cursor up to `now`, appending entries whose deadline
    /// has passed to `due` and re-inserting early (wrapped) ones.
    fn advance(&mut self, now: Instant, due: &mut Vec<TimerEntry>) {
        while now.saturating_duration_since(self.last_advance) >= WHEEL_TICK {
            self.last_advance += WHEEL_TICK;
            self.cursor = (self.cursor + 1) % WHEEL_SLOTS;
            let slot = std::mem::take(&mut self.slots[self.cursor]);
            for entry in slot {
                if entry.deadline <= now {
                    due.push(entry);
                } else {
                    self.schedule(now, entry);
                }
            }
        }
    }
}

/// A unit of ordered output for one connection.
enum Work {
    /// A parsed request awaiting its turn to be routed.
    Request(Request),
    /// A pre-serialized terminal response (parse error, 408) that must
    /// keep FIFO order behind any requests dispatched before it.
    Immediate { bytes: Vec<u8>, status: u16 },
}

/// A response coming back from a serve worker: the rendered head, and
/// the body still shared with the serve cache.
struct Completion {
    token: usize,
    generation: u64,
    head: Vec<u8>,
    body: Body,
    status: u16,
    close: bool,
}

/// Where serve workers leave completions for the reactor, and the pipe
/// that wakes it to collect them.
struct Mailbox {
    done: Mutex<Vec<Completion>>,
    wake: UnixStream,
}

impl Mailbox {
    fn post(&self, completion: Completion) {
        self.done
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(completion);
        self.wake();
    }

    /// One byte on the wake pipe pulls the reactor out of epoll_wait.
    /// WouldBlock means the pipe is already full of wakeups — the
    /// reactor is guaranteed to drain completions on that pending
    /// wakeup, so dropping this byte is safe.
    fn wake(&self) {
        let _ = (&self.wake).write(&[1]);
    }

    fn take(&self, into: &mut Vec<Completion>) {
        into.append(&mut self.done.lock().unwrap_or_else(|e| e.into_inner()));
    }
}

/// The job a request [`route`] could not answer becomes on the serve
/// queue: finish it on the worker that dequeues it (or render the
/// rejection it was handed) and post the response.
fn job(
    shared: Arc<Shared>,
    mailbox: Arc<Mailbox>,
    token: usize,
    generation: u64,
    request: Request,
    deferred: Deferred,
    close: bool,
) -> impl FnOnce(Result<(), ServeError>) + Send + 'static {
    move |admitted| {
        let resp = match admitted {
            // A panicking handler must cost the peer one 500, not the
            // pool a worker.
            Ok(()) => catch_unwind(AssertUnwindSafe(|| {
                deferred.finish(
                    &shared.serve,
                    || shared.wire.snapshot(),
                    shared.repl.as_ref(),
                    &request,
                )
            }))
            .unwrap_or_else(|_| handler_panicked()),
            Err(e) => serve_error_response(e),
        };
        mailbox.post(Completion {
            token,
            generation,
            head: resp.head(close),
            body: resp.body,
            status: resp.status,
            close,
        });
    }
}

fn handler_panicked() -> Response {
    error_response(500, "request handler panicked")
}

/// Per-connection state machine. The phase is implicit in the fields:
/// Reading (parser mid-request), Dispatching (`in_flight`), Writing
/// (`write_buf` non-empty), KeepAlive (all quiet).
struct Conn {
    stream: TcpStream,
    generation: u64,
    parser: Parser,
    /// Parsed requests (and terminal error responses) not yet
    /// dispatched, in arrival order.
    pending: VecDeque<Work>,
    /// One request is on the serve queue or at a worker; its completion
    /// gates `pending`, hits behind it included.
    in_flight: bool,
    write_buf: Vec<u8>,
    write_pos: usize,
    close_after_flush: bool,
    /// Parser poisoned (or 408 sent): stop reading, flush, close.
    poisoned: bool,
    peer_closed: bool,
    /// Interest mask currently registered with epoll.
    interest: u32,
    /// Last byte received or written — the idle-reap clock.
    last_activity: Instant,
    /// First byte of the in-flight *partial* request. The cumulative
    /// read deadline runs from here and is never reset by trickling
    /// arrivals (slow-loris protection, PR 7 semantics).
    request_start: Option<Instant>,
    /// Reads suspended for pipeline backpressure (`pending` full). The
    /// stall is the server's doing, so the cumulative read deadline is
    /// held while this is set and re-pinned when reads resume — a
    /// well-behaved pipelining client must not collect a 408 for our
    /// backlog.
    read_paused: bool,
    /// Last write progress while `write_buf` is non-empty (`None` when
    /// flushed). A peer that accepts no response bytes for
    /// `write_timeout` is cut off — the reactor's analog of a
    /// blocking socket's write deadline.
    write_start: Option<Instant>,
    /// A wheel entry armed while `write_start` was set is outstanding.
    /// Its deadline is no later than `write_start + write_timeout`
    /// however far progress has moved `write_start` since, and when it
    /// fires on a still-stalled connection it re-arms itself — so a
    /// stalled write is always covered by exactly one entry, whatever
    /// the standing idle/read entries are scheduled for.
    write_timer: bool,
    /// Outstanding wheel entries pointing at this connection.
    timers: u32,
}

impl Conn {
    /// Send one response in FIFO order: with nothing buffered ahead of
    /// it, head and body are offered to the socket as they are, in one
    /// vectored write; only what the socket did not take is copied, to
    /// wait in `write_buf` — so the body is released here either way.
    fn send(&mut self, head: &[u8], body: &Body, status: u16, close: bool, now: Instant, wire: &WireMetrics) {
        let [first, second, third] = body.slices();
        let parts = [head, first, second, third];
        let mut taken = 0;
        // Counted before the peer can read the reply.
        wire.responded(status);
        if self.write_buf.is_empty() {
            let slices = parts.map(IoSlice::new);
            loop {
                match self.stream.write_vectored(&slices) {
                    Ok(n) => {
                        taken = n;
                        wire.wrote(n as u64);
                        self.last_activity = now;
                        break;
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    // WouldBlock or a dead peer: `flush` meets it again.
                    Err(_) => break,
                }
            }
        }
        for part in parts {
            let skip = taken.min(part.len());
            self.write_buf.extend_from_slice(&part[skip..]);
            taken -= skip;
        }
        if close {
            // `Connection: close` (or drain): anything pipelined behind
            // this response is dropped.
            self.close_after_flush = true;
            self.pending.clear();
        }
    }

    fn next_deadline(
        &self,
        read_timeout: Duration,
        write_timeout: Duration,
        idle_timeout: Duration,
    ) -> Instant {
        let mut deadline = match self.request_start {
            Some(start) => start + read_timeout,
            None => self.last_activity + idle_timeout,
        };
        if let Some(write_start) = self.write_start {
            deadline = deadline.min(write_start + write_timeout);
        }
        deadline
    }
}

/// Handle held by [`crate::server::HttpServer`]: wake pipe + thread.
pub(crate) struct ReactorHandle {
    mailbox: Arc<Mailbox>,
    thread: Option<JoinHandle<()>>,
}

impl ReactorHandle {
    /// Wake the reactor (it re-checks `shutting_down`) and join it.
    /// The caller sets the flag first.
    pub(crate) fn shutdown(&mut self) {
        self.mailbox.wake();
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

/// Spawn the reactor thread over an already-bound listener.
pub(crate) fn spawn(listener: TcpListener, shared: Arc<Shared>) -> std::io::Result<ReactorHandle> {
    listener.set_nonblocking(true)?;
    let (wake_tx, wake_rx) = UnixStream::pair()?;
    wake_tx.set_nonblocking(true)?;
    wake_rx.set_nonblocking(true)?;
    let epoll = sys::Epoll::new()?;
    epoll.add(listener.as_raw_fd(), sys::EPOLLIN, LISTENER_DATA)?;
    epoll.add(wake_rx.as_raw_fd(), sys::EPOLLIN, WAKE_DATA)?;
    let mailbox = Arc::new(Mailbox {
        done: Mutex::new(Vec::new()),
        wake: wake_tx,
    });
    let now = Instant::now();
    let reactor = Reactor {
        epoll,
        listener: Some(listener),
        wake_rx,
        shared,
        conns: Vec::new(),
        free: Vec::new(),
        live: 0,
        next_generation: 0,
        wheel: TimerWheel::new(now),
        mailbox: Arc::clone(&mailbox),
        draining: false,
    };
    let thread = std::thread::Builder::new()
        .name("covidkg-net-reactor".into())
        .spawn(move || reactor.run())?;
    Ok(ReactorHandle {
        mailbox,
        thread: Some(thread),
    })
}

struct Reactor {
    epoll: sys::Epoll,
    /// Dropped (fd closed, accept queue refused) when drain begins.
    listener: Option<TcpListener>,
    wake_rx: UnixStream,
    shared: Arc<Shared>,
    /// Slab: connection token = slot index; `None` slots are free.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    live: usize,
    next_generation: u64,
    wheel: TimerWheel,
    mailbox: Arc<Mailbox>,
    draining: bool,
}

impl Reactor {
    fn run(mut self) {
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        let mut scratch = vec![0u8; 64 * 1024];
        let mut completions: Vec<Completion> = Vec::new();
        let mut due: Vec<TimerEntry> = Vec::new();
        // Err from wait means the epoll fd is gone; nothing left to
        // supervise.
        while let Ok(n) = self.epoll.wait(&mut events, WHEEL_TICK.as_millis() as i32) {
            self.shared.wire.epoll_wakeup(n);
            let now = Instant::now();
            for ev in &events[..n] {
                // Copy out of the (possibly packed) struct first.
                let data = { ev.data };
                let bits = { ev.events };
                match data {
                    LISTENER_DATA => self.accept_ready(now),
                    WAKE_DATA => self.drain_wake(),
                    token => self.conn_ready(token as usize, bits, now, &mut scratch),
                }
            }
            self.mailbox.take(&mut completions);
            for c in completions.drain(..) {
                self.complete(c, now);
            }
            due.clear();
            self.wheel.advance(now, &mut due);
            for entry in due.drain(..) {
                self.fire_timer(entry, now);
            }
            if self.shared.shutting_down.load(Ordering::Acquire) {
                if !self.draining {
                    self.begin_drain();
                }
                if self.live == 0 {
                    break;
                }
            }
        }
    }

    /// Accept every queued connection: admit into the slab or turn away
    /// with the honest `503 + Retry-After` once past the cap.
    fn accept_ready(&mut self, now: Instant) {
        loop {
            let (stream, _) = match self.listener.as_ref().map(|l| l.accept()) {
                Some(Ok(pair)) => pair,
                Some(Err(e)) if e.kind() == ErrorKind::WouldBlock => return,
                Some(Err(e)) if e.kind() == ErrorKind::Interrupted => continue,
                Some(Err(_)) => continue,
                None => return, // draining: listener already closed
            };
            self.shared.wire.connection_opened();
            if self.live >= self.shared.config.max_connections || self.draining {
                self.reject(stream);
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                self.shared.wire.connection_closed();
                continue;
            }
            let _ = stream.set_nodelay(true);
            self.next_generation += 1;
            let conn = Conn {
                stream,
                generation: self.next_generation,
                parser: Parser::new(),
                pending: VecDeque::new(),
                in_flight: false,
                write_buf: Vec::new(),
                write_pos: 0,
                close_after_flush: false,
                poisoned: false,
                peer_closed: false,
                interest: sys::EPOLLIN | sys::EPOLLRDHUP,
                last_activity: now,
                request_start: None,
                read_paused: false,
                write_start: None,
                write_timer: false,
                timers: 0,
            };
            let token = match self.free.pop() {
                Some(t) => {
                    self.conns[t] = Some(conn);
                    t
                }
                None => {
                    self.conns.push(Some(conn));
                    self.conns.len() - 1
                }
            };
            let c = self.conns[token].as_ref().expect("just inserted");
            if self
                .epoll
                .add(c.stream.as_raw_fd(), c.interest, token as u64)
                .is_err()
            {
                self.conns[token] = None;
                self.free.push(token);
                self.shared.wire.connection_closed();
                continue;
            }
            self.live += 1;
            self.arm_timer(token, now);
        }
    }

    /// Over-capacity accept: answer 503 now instead of parking the peer
    /// in an invisible kernel queue. The freshly accepted socket is
    /// still blocking, so a bounded synchronous write is fine.
    fn reject(&self, stream: TcpStream) {
        let _ = stream.set_write_timeout(Some(self.shared.config.write_timeout));
        let resp = error_response(503, "connection limit reached").with_header("Retry-After", "1");
        let mut s = stream;
        if let Ok(n) = resp.write_to(&mut s, true) {
            self.shared.wire.wrote(n);
        }
        self.shared.wire.responded(503);
        let _ = s.shutdown(Shutdown::Both);
        self.shared.wire.connection_closed();
    }

    fn drain_wake(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            match (&self.wake_rx).read(&mut buf) {
                Ok(0) => return,
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return, // WouldBlock: drained
            }
        }
    }

    /// Socket readiness for connection `token`.
    fn conn_ready(&mut self, token: usize, bits: u32, now: Instant, scratch: &mut [u8]) {
        if self.conns.get(token).is_none_or(|c| c.is_none()) {
            return; // closed earlier this same wakeup; stale event
        }
        if bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
            self.close(token);
            return;
        }
        if bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0 && !self.read_ready(token, now, scratch) {
            return;
        }
        self.pump(token, now);
    }

    /// Drain the socket into the parser. Returns `false` when the
    /// connection was closed.
    fn read_ready(&mut self, token: usize, now: Instant, scratch: &mut [u8]) -> bool {
        let mut fatal = false;
        let conn = self.conns[token].as_mut().expect("checked by caller");
        while !conn.poisoned && !conn.peer_closed && conn.pending.len() < PIPELINE_MAX {
            match conn.stream.read(scratch) {
                Ok(0) => {
                    conn.peer_closed = true;
                }
                Ok(n) => {
                    self.shared.wire.read(n as u64);
                    conn.last_activity = now;
                    let mut chunk: &[u8] = &scratch[..n];
                    // Feed the chunk, then flush every further request
                    // already buffered (pipelining) with empty feeds.
                    loop {
                        match conn.parser.feed(chunk) {
                            Ok(Some(req)) => {
                                chunk = &[];
                                conn.pending.push_back(Work::Request(req));
                            }
                            Ok(None) => break,
                            Err(e) => {
                                self.shared.wire.parse_error();
                                let resp = error_response(e.status(), &e.to_string());
                                let status = resp.status;
                                let mut bytes = Vec::new();
                                resp.write_to(&mut bytes, true).expect("vec write");
                                conn.pending.push_back(Work::Immediate { bytes, status });
                                conn.poisoned = true;
                                break;
                            }
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    fatal = true;
                    break;
                }
            }
        }
        if fatal {
            self.close(token);
            return false;
        }
        let conn = self.conns[token].as_mut().expect("still present");
        if conn.parser.is_idle() {
            conn.request_start = None;
        } else if conn.request_start.is_none() && !conn.poisoned {
            // First byte of a new request: pin the cumulative read
            // deadline here and arm a wheel entry for it — the standing
            // idle entry may be scheduled far later.
            conn.request_start = Some(now);
            self.arm_timer(token, now);
        }
        true
    }

    /// Advance the connection's output side: dispatch the next queued
    /// work, flush, and settle interest/lifecycle.
    fn pump(&mut self, token: usize, now: Instant) {
        let Some(conn) = self.conns.get_mut(token).and_then(|c| c.as_mut()) else {
            return;
        };
        while !conn.in_flight && !conn.close_after_flush {
            match conn.pending.pop_front() {
                Some(Work::Request(request)) => {
                    let shared = &self.shared;
                    let close =
                        request.wants_close() || shared.shutting_down.load(Ordering::Acquire);
                    // A panic while routing costs the peer one 500, never
                    // the reactor.
                    let routed = catch_unwind(AssertUnwindSafe(|| {
                        route(&shared.serve, shared.repl.as_ref(), &request)
                    }))
                    .unwrap_or_else(|_| Routed::Answered(handler_panicked()));
                    let resp = match routed {
                        Routed::Answered(resp) => resp,
                        Routed::Deferred(deferred) => {
                            let job = job(
                                Arc::clone(shared),
                                Arc::clone(&self.mailbox),
                                token,
                                conn.generation,
                                request,
                                deferred,
                                close,
                            );
                            match shared.serve.submit(job) {
                                Ok(()) => {
                                    conn.in_flight = true;
                                    continue;
                                }
                                Err(e) => serve_error_response(e),
                            }
                        }
                    };
                    let head = resp.head(close);
                    conn.send(&head, &resp.body, resp.status, close, now, &shared.wire);
                }
                Some(Work::Immediate { bytes, status }) => {
                    conn.write_buf.extend_from_slice(&bytes);
                    self.shared.wire.responded(status);
                    conn.close_after_flush = true;
                }
                None => break,
            }
        }
        if !self.flush(token, now) {
            return;
        }
        let conn = self.conns[token].as_ref().expect("flush keeps it");
        let flushed = conn.write_buf.is_empty();
        let quiet = !conn.in_flight && conn.pending.is_empty();
        if flushed && quiet {
            if conn.close_after_flush || conn.peer_closed {
                self.close(token);
                return;
            }
            // Graceful drain: keep-alive connections with nothing in
            // flight close as soon as the shutdown flag is up.
            if self.shared.shutting_down.load(Ordering::Acquire) && conn.parser.is_idle() {
                self.close(token);
                return;
            }
        }
        self.update_interest(token, now);
    }

    /// Write as much of `write_buf` as the socket accepts. Returns
    /// `false` when the connection was closed.
    fn flush(&mut self, token: usize, now: Instant) -> bool {
        let mut fatal = false;
        let mut progressed = false;
        let conn = self.conns[token].as_mut().expect("checked by caller");
        while conn.write_pos < conn.write_buf.len() {
            match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
                Ok(0) => {
                    fatal = true;
                    break;
                }
                Ok(n) => {
                    self.shared.wire.wrote(n as u64);
                    conn.write_pos += n;
                    conn.last_activity = now;
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    fatal = true;
                    break;
                }
            }
        }
        if fatal {
            self.close(token);
            return false;
        }
        let conn = self.conns[token].as_mut().expect("still present");
        let mut arm = false;
        if conn.write_pos == conn.write_buf.len() {
            conn.write_buf.clear();
            conn.write_pos = 0;
            conn.write_start = None;
        } else if progressed || conn.write_start.is_none() {
            // Bytes are stuck behind a slow reader: (re)start the write
            // deadline at the last byte the peer actually accepted, and
            // make sure a wheel entry covers it — the standing entry may
            // be scheduled as far out as the idle timeout.
            arm = !conn.write_timer;
            conn.write_start = Some(now);
        }
        if arm {
            self.arm_timer(token, now);
        }
        true
    }

    /// Reconcile the epoll interest mask with the connection's state:
    /// read while we may accept more requests, write while bytes wait.
    fn update_interest(&mut self, token: usize, now: Instant) {
        let Some(conn) = self.conns.get_mut(token).and_then(|c| c.as_mut()) else {
            return;
        };
        let want_read = !conn.poisoned && !conn.peer_closed;
        let mut desired = 0;
        if want_read && conn.pending.len() < PIPELINE_MAX {
            desired |= sys::EPOLLIN | sys::EPOLLRDHUP;
            if conn.read_paused {
                // Reads were suspended for backpressure — time the peer
                // spent waiting on *our* backlog must not count against
                // its cumulative read deadline, so re-pin it here.
                conn.read_paused = false;
                if conn.request_start.is_some() {
                    conn.request_start = Some(now);
                }
            }
        } else if want_read {
            conn.read_paused = true;
        }
        if !conn.write_buf.is_empty() {
            desired |= sys::EPOLLOUT;
        }
        if desired != conn.interest {
            conn.interest = desired;
            let _ = self
                .epoll
                .modify(conn.stream.as_raw_fd(), desired, token as u64);
        }
    }

    /// A worker finished a request: send its response (order preserved
    /// — only one request per connection is ever in flight) and move
    /// the machine along.
    fn complete(&mut self, c: Completion, now: Instant) {
        let Some(conn) = self.conns.get_mut(c.token).and_then(|s| s.as_mut()) else {
            return; // connection died while the query ran
        };
        if conn.generation != c.generation {
            return; // slot reused; response belongs to a previous tenant
        }
        conn.in_flight = false;
        conn.send(&c.head, &c.body, c.status, c.close, now, &self.shared.wire);
        self.pump(c.token, now);
    }

    /// Arm one wheel entry for the connection's current next deadline.
    fn arm_timer(&mut self, token: usize, now: Instant) {
        let config = &self.shared.config;
        let Some(conn) = self.conns.get_mut(token).and_then(|c| c.as_mut()) else {
            return;
        };
        let deadline =
            conn.next_deadline(config.read_timeout, config.write_timeout, config.idle_timeout);
        conn.timers += 1;
        let write = conn.write_start.is_some() && !conn.write_timer;
        conn.write_timer |= write;
        self.wheel.schedule(
            now,
            TimerEntry {
                token,
                generation: conn.generation,
                deadline,
                write,
            },
        );
    }

    /// A wheel entry fired: re-check the connection's *actual* state
    /// (entries are lazy hints), act on expired deadlines, re-arm.
    fn fire_timer(&mut self, entry: TimerEntry, now: Instant) {
        let config = self.shared.config.clone();
        let Some(conn) = self.conns.get_mut(entry.token).and_then(|c| c.as_mut()) else {
            return;
        };
        if conn.generation != entry.generation {
            return;
        }
        conn.timers -= 1;
        if entry.write {
            conn.write_timer = false;
        }
        if let Some(write_start) = conn.write_start {
            if now.saturating_duration_since(write_start) >= config.write_timeout {
                // The peer has accepted no response bytes for a full
                // write_timeout: cut it off, so a slow reader cannot
                // pin its buffer forever.
                self.close(entry.token);
                return;
            }
        }
        let Some(conn) = self.conns.get_mut(entry.token).and_then(|c| c.as_mut()) else {
            return;
        };
        if let Some(start) = conn.request_start {
            if now.saturating_duration_since(start) >= config.read_timeout
                && !conn.poisoned
                && !conn.read_paused
            {
                // Cumulative read deadline blown: the whole transfer
                // has taken too long, however steadily bytes trickled.
                let resp = error_response(408, "request read timed out");
                let status = resp.status;
                let mut bytes = Vec::new();
                resp.write_to(&mut bytes, true).expect("vec write");
                conn.pending.push_back(Work::Immediate { bytes, status });
                conn.poisoned = true;
                conn.request_start = None;
                self.pump(entry.token, now);
            }
        } else if conn.parser.is_idle()
            && !conn.in_flight
            && conn.pending.is_empty()
            && now.saturating_duration_since(conn.last_activity) >= config.idle_timeout
        {
            self.shared.wire.connection_reaped();
            self.close(entry.token);
            return;
        }
        // Keep exactly one standing entry per live connection, and one
        // for the write deadline while a write is stalled: progress has
        // moved `write_start` since the entry that just fired was armed.
        if let Some(conn) = self.conns.get_mut(entry.token).and_then(|c| c.as_mut()) {
            if conn.timers == 0 || (conn.write_start.is_some() && !conn.write_timer) {
                self.arm_timer(entry.token, now);
            }
        }
    }

    fn begin_drain(&mut self) {
        self.draining = true;
        if let Some(listener) = self.listener.take() {
            let _ = self.epoll.del(listener.as_raw_fd());
            // Dropping closes the fd: new connects are refused rather
            // than parked in a backlog nobody will ever accept.
        }
        // Idle keep-alive connections close immediately; the rest
        // finish their in-flight request (bounded by the read deadline
        // and the serve-layer deadline) and close on flush.
        let idle: Vec<usize> = self
            .conns
            .iter()
            .enumerate()
            .filter_map(|(t, c)| c.as_ref().map(|c| (t, c)))
            .filter(|(_, c)| {
                c.parser.is_idle()
                    && !c.in_flight
                    && c.pending.is_empty()
                    && c.write_buf.is_empty()
            })
            .map(|(t, _)| t)
            .collect();
        for token in idle {
            self.close(token);
        }
    }

    fn close(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(token).and_then(|c| c.take()) else {
            return;
        };
        let _ = self.epoll.del(conn.stream.as_raw_fd());
        let _ = conn.stream.shutdown(Shutdown::Both);
        self.free.push(token);
        self.live -= 1;
        self.shared.wire.connection_closed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoll_round_trips_readiness() {
        let epoll = sys::Epoll::new().unwrap();
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        epoll.add(a.as_raw_fd(), sys::EPOLLIN, 7).unwrap();
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; 8];
        // Nothing readable yet: wait times out empty.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
        (&b).write_all(b"x").unwrap();
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let data = { events[0].data };
        assert_eq!(data, 7);
        assert_ne!({ events[0].events } & sys::EPOLLIN, 0);
        // Deregistered fds stop reporting.
        epoll.del(a.as_raw_fd()).unwrap();
        (&b).write_all(b"y").unwrap();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn wheel_fires_due_entries_and_reinserts_far_ones() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0);
        wheel.schedule(
            t0,
            TimerEntry { token: 1, generation: 1, deadline: t0 + Duration::from_millis(30), write: false },
        );
        // Far beyond one revolution: must survive the wrap.
        let far = t0 + WHEEL_TICK * (WHEEL_SLOTS as u32 * 3);
        wheel.schedule(t0, TimerEntry { token: 2, generation: 1, deadline: far, write: false });
        let mut due = Vec::new();
        wheel.advance(t0 + Duration::from_millis(100), &mut due);
        assert_eq!(due.len(), 1, "only the near entry is due");
        assert_eq!(due[0].token, 1);
        due.clear();
        wheel.advance(far + WHEEL_TICK, &mut due);
        assert_eq!(due.len(), 1, "far entry fires after the wrap");
        assert_eq!(due[0].token, 2);
    }

    #[test]
    fn wheel_delivers_past_deadlines_next_tick() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0);
        // A deadline already in the past must still fire (lazily, one
        // tick later) rather than be lost behind the cursor.
        wheel.schedule(t0, TimerEntry { token: 9, generation: 1, deadline: t0, write: false });
        let mut due = Vec::new();
        wheel.advance(t0 + WHEEL_TICK * 2, &mut due);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].token, 9);
    }
}
