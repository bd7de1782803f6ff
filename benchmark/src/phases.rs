//! The two measured phases: closed loop for throughput, open loop for
//! latency. Both drive the stack over loopback TCP from `clients`
//! keep-alive connections, block by block, check every reply, and take
//! one pass of the speed reference after every block.

use crate::metrics;
use crate::ops::{Call, Class, Inputs, Op, Workload};
use crate::reference::{Reference, NOMINAL_PASS_S};
use crate::stack::{expected_body, Stack};
use covidkg_net::{ClientResponse, HttpClient};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// An open-loop request answered later than this after it was due
/// counts as failed.
const OVERDUE: Duration = Duration::from_secs(2);
/// Measured replies kept for the byte-identity check: one in this many,
/// and at most this many per connection and phase slice (each costs
/// the request over again, in process).
const KEEP_EVERY: usize = 97;
const KEEP_AT_MOST: usize = 6;
/// Replies compared with in-process serialisation per ingest.
const VERIFY_PER_INGEST: usize = 2;
/// Client threads that run the reference after a block, at the same
/// time, so the pass sees both vCPUs as the block did.
const REFERENCE_THREADS: usize = 2;
/// Open loop: a block's first request is due this long after the
/// block's start is set, so every client is back from the barrier.
const BLOCK_LEAD: Duration = Duration::from_millis(1);

/// One timed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Block of the phase, counted over all its slices.
    pub block: u32,
    pub group: u8,
    /// Answered from the serve cache (`X-Cache: hit`).
    pub hit: bool,
    /// Seconds; in the open loop, from the due time.
    pub latency: f64,
}

/// What went wrong, by kind; every entry also counts in `failed`.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub non_200: u64,
    pub io_errors: u64,
    pub generation_regressions: u64,
    pub mismatches: u64,
    pub not_visible: u64,
    pub overdue: u64,
    pub hits: u64,
    pub misses: u64,
    pub stale: u64,
    pub verified: u64,
    /// Ingests attempted.
    pub ingests: u64,
    /// What the first few failures were, for the result file.
    pub notes: Vec<String>,
}

/// Failures described in a result; the counts are complete regardless.
const NOTES_KEPT: usize = 8;

impl Tally {
    pub fn absorb(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.non_200 += o.non_200;
        self.io_errors += o.io_errors;
        self.generation_regressions += o.generation_regressions;
        self.mismatches += o.mismatches;
        self.not_visible += o.not_visible;
        self.overdue += o.overdue;
        self.hits += o.hits;
        self.misses += o.misses;
        self.stale += o.stale;
        self.verified += o.verified;
        self.ingests += o.ingests;
        let room = NOTES_KEPT.saturating_sub(self.notes.len());
        self.notes.extend(o.notes.iter().take(room).cloned());
    }

    pub fn hit_ratio(&self) -> f64 {
        let served = self.hits + self.misses + self.stale;
        if served == 0 {
            0.0
        } else {
            self.hits as f64 / served as f64
        }
    }
}

/// A measured reply kept for the byte-identity check after the phase.
struct Kept {
    op: usize,
    generation: u64,
    body: Vec<u8>,
}

#[derive(Default)]
pub struct PhaseResult {
    /// Closed loop: seconds per block, barrier to barrier.
    pub block_times: Vec<f64>,
    /// Seconds the reference pass after each block took (the mean of
    /// the threads that ran it).
    pub reference_times: Vec<f64>,
    /// Closed loop: `/proc/stat` steal ticks, over all vCPUs, during
    /// each block and the pass after it.
    pub steal_ticks: Vec<f64>,
    pub samples: Vec<Sample>,
    /// `Server::ingest` call to first read that returns the new
    /// publication, seconds.
    pub ingest_visible: Vec<f64>,
    pub tally: Tally,
    /// Open loop: how late each request was sent, seconds.
    pub late: Vec<f64>,
    pub backlog_max: u64,
    pub elapsed: f64,
    pub blocks_done: usize,
    /// Open loop: the op after the last one taken.
    pub next_op: usize,
}

impl PhaseResult {
    /// Append a later slice of the same phase.
    pub fn extend(&mut self, slice: PhaseResult) {
        self.block_times.extend(slice.block_times);
        self.reference_times.extend(slice.reference_times);
        self.steal_ticks.extend(slice.steal_ticks);
        self.samples.extend(slice.samples);
        self.ingest_visible.extend(slice.ingest_visible);
        self.tally.absorb(&slice.tally);
        self.late.extend(slice.late);
        self.backlog_max = self.backlog_max.max(slice.backlog_max);
        self.elapsed += slice.elapsed;
        self.blocks_done += slice.blocks_done;
        self.next_op = slice.next_op;
    }
}

struct Reply {
    hit: bool,
    generation: u64,
    body: Vec<u8>,
}

/// One keep-alive connection and what it has seen.
struct Conn<'a> {
    stack: &'a Stack,
    client: HttpClient,
    last_generation: u64,
    tally: Tally,
}

impl<'a> Conn<'a> {
    fn open(stack: &'a Stack) -> Result<Conn<'a>, String> {
        Ok(Conn {
            stack,
            client: stack.connect().map_err(|e| format!("connect: {e}"))?,
            last_generation: 0,
            tally: Tally::default(),
        })
    }

    fn fail(&mut self, what: impl FnOnce() -> String) {
        self.tally.failed += 1;
        if self.tally.notes.len() < NOTES_KEPT {
            self.tally.notes.push(what());
        }
    }

    /// One GET, checked: 200, cache and generation headers present, the
    /// generation not behind what this connection saw before.
    fn get(&mut self, target: &str) -> Option<Reply> {
        self.tally.attempted += 1;
        let request = format!("GET {target} HTTP/1.1\r\nHost: covidkg\r\n\r\n");
        let resp: ClientResponse = match self.client.send_raw(request.as_bytes()) {
            Ok(r) => r,
            Err(e) => {
                self.tally.io_errors += 1;
                self.fail(|| format!("{target}: {e}"));
                // The byte stream is unusable; later requests get a new one.
                if let Ok(c) = self.stack.connect() {
                    self.client = c;
                }
                return None;
            }
        };
        if resp.status != 200 {
            self.tally.non_200 += 1;
            self.fail(|| format!("{target}: status {}", resp.status));
            return None;
        }
        let generation = resp
            .header("x-generation")
            .and_then(|v| v.parse::<u64>().ok());
        let cache = resp.header("x-cache").map(str::to_string);
        let (Some(generation), Some(cache)) = (generation, cache) else {
            self.tally.non_200 += 1;
            self.fail(|| format!("{target}: no X-Generation or X-Cache header"));
            return None;
        };
        if generation < self.last_generation {
            self.tally.generation_regressions += 1;
            let last = self.last_generation;
            self.fail(|| format!("{target}: generation {generation} after {last}"));
            return None;
        }
        self.last_generation = generation;
        match cache.as_str() {
            "hit" => self.tally.hits += 1,
            "miss" => self.tally.misses += 1,
            _ => self.tally.stale += 1,
        }
        Some(Reply {
            hit: cache == "hit",
            generation,
            body: resp.body,
        })
    }

    /// `Server::ingest` of one publication, then reads until one returns
    /// it at the commit's generation or later. Seconds, or `None`.
    fn ingest(&mut self, inputs: &Inputs, op: &Op) -> Option<f64> {
        let Call::Ingest(ix) = op.call else {
            unreachable!("ingest op")
        };
        let publication = &inputs.new_pubs[ix];
        let t0 = Instant::now();
        self.tally.attempted += 1;
        self.tally.ingests += 1;
        // A panic inside the program is this op's failure, not the run's:
        // unwinding further would leave the other clients at the barrier.
        let ingested = catch_unwind(AssertUnwindSafe(|| {
            self.stack.server.ingest(std::slice::from_ref(publication))
        }));
        match ingested {
            Ok(Ok(1)) => {}
            Ok(other) => {
                self.fail(|| format!("ingest of {}: {other:?}", publication.id));
                return None;
            }
            Err(_) => {
                self.fail(|| format!("ingest of {} panicked", publication.id));
                return None;
            }
        }
        let committed = self.stack.server.generation();
        let needle = format!("\"{}\"", publication.id);
        for _ in 0..3 {
            let reply = self.get(&op.target)?;
            if reply.generation >= committed && contains(&reply.body, needle.as_bytes()) {
                return Some(t0.elapsed().as_secs_f64());
            }
        }
        self.tally.not_visible += 1;
        self.fail(|| format!("{} not readable after its ingest", publication.id));
        None
    }

    /// Fetch `n` hot targets and compare each with in-process
    /// serialisation. Only the caller writes, so the generation a reply
    /// names is still the system's when the comparison runs.
    fn verify_reads(&mut self, inputs: &Inputs, from: usize, n: usize) {
        for k in 0..n {
            let op = &inputs.warmup[(from + k) % inputs.warmup.len()];
            let Some(reply) = self.get(&op.target) else {
                continue;
            };
            let expected = self.stack.server.with_system(|s| {
                (s.generation() == reply.generation).then(|| expected_body(s, op))
            });
            match expected {
                Some(Some(body)) if body.as_bytes() == reply.body.as_slice() => {
                    self.tally.verified += 1
                }
                _ => {
                    self.tally.mismatches += 1;
                    let generation = reply.generation;
                    self.fail(|| {
                        format!(
                            "{} differs from in-process serialisation at generation {generation}",
                            op.target
                        )
                    });
                }
            }
        }
    }
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// What one client thread brings back.
#[derive(Default)]
struct ThreadOut {
    samples: Vec<Sample>,
    ingest_visible: Vec<f64>,
    kept: Vec<Kept>,
    late: Vec<f64>,
    backlog_max: u64,
    block_times: Vec<f64>,
    reference_times: Vec<f64>,
    steal_ticks: Vec<f64>,
    tally: Tally,
}

fn run_op(
    conn: &mut Conn,
    inputs: &Inputs,
    ix: usize,
    block: u32,
    due: Option<Instant>,
    out: &mut ThreadOut,
) {
    let op = &inputs.ops[ix];
    let t0 = due.unwrap_or_else(Instant::now);
    if op.class == Class::Ingest {
        if let Some(visible) = conn.ingest(inputs, op) {
            out.ingest_visible.push(visible);
            out.samples.push(Sample {
                block,
                group: op.group,
                hit: false,
                latency: visible,
            });
        }
        return;
    }
    let Some(reply) = conn.get(&op.target) else {
        return;
    };
    let latency = t0.elapsed();
    if due.is_some() && latency > OVERDUE {
        conn.tally.overdue += 1;
        conn.fail(|| format!("{}: answered {latency:?} after it was due", op.target));
        return;
    }
    out.samples.push(Sample {
        block,
        group: op.group,
        hit: reply.hit,
        latency: latency.as_secs_f64(),
    });
    if inputs.workload != Workload::MixedIngest
        && ix.is_multiple_of(KEEP_EVERY)
        && out.kept.len() < KEEP_AT_MOST
    {
        out.kept.push(Kept {
            op: ix,
            generation: reply.generation,
            body: reply.body,
        });
    }
}

fn merge(outs: Vec<ThreadOut>, stack: &Stack, inputs: &Inputs, elapsed: f64) -> PhaseResult {
    let mut r = PhaseResult {
        elapsed,
        ..PhaseResult::default()
    };
    let mut passes = 0usize;
    for o in outs {
        r.samples.extend(o.samples);
        r.ingest_visible.extend(o.ingest_visible);
        r.late.extend(o.late);
        r.backlog_max = r.backlog_max.max(o.backlog_max);
        r.tally.absorb(&o.tally);
        if !o.block_times.is_empty() {
            r.block_times = o.block_times;
            r.steal_ticks = o.steal_ticks;
        }
        if !o.reference_times.is_empty() {
            passes += 1;
            r.reference_times.resize(o.reference_times.len(), 0.0);
            for (sum, t) in r.reference_times.iter_mut().zip(o.reference_times) {
                *sum += t;
            }
        }
        // Nothing wrote during the phase, so every kept reply names the
        // generation the system still has.
        for k in o.kept {
            let same = stack.server.with_system(|s| {
                s.generation() == k.generation
                    && expected_body(s, &inputs.ops[k.op])
                        .is_some_and(|b| b.as_bytes() == k.body.as_slice())
            });
            if same {
                r.tally.verified += 1;
            } else {
                r.tally.mismatches += 1;
                r.tally.failed += 1;
                if r.tally.notes.len() < NOTES_KEPT {
                    r.tally.notes.push(format!(
                        "{} differs from in-process serialisation at generation {}",
                        inputs.ops[k.op].target, k.generation
                    ));
                }
            }
        }
    }
    for sum in r.reference_times.iter_mut() {
        *sum /= passes as f64;
    }
    r.blocks_done = r.reference_times.len();
    r
}

/// What every client thread of a slice shares.
struct Slice<'a> {
    stack: &'a Stack,
    reference: &'a Reference,
    barrier: Barrier,
    /// Set before a block's first barrier, read after it: every client
    /// leaves the loop at the same block.
    stop: AtomicBool,
    error: Mutex<Option<String>>,
    /// The slice ends with the block during which this passes.
    deadline: Instant,
}

impl<'a> Slice<'a> {
    fn connect(&self) -> Option<Conn<'a>> {
        match Conn::open(self.stack) {
            Ok(c) => Some(c),
            Err(e) => {
                *self.error.lock().expect("error slot") = Some(e);
                self.stop.store(true, Ordering::SeqCst);
                None
            }
        }
    }

    /// After a block's closing barrier: the reference pass, and on the
    /// first client the deadline check.
    fn after_block(&self, t: usize, out: &mut ThreadOut) {
        if t < REFERENCE_THREADS {
            out.reference_times.push(self.reference.pass());
        }
        if t == 0 && Instant::now() > self.deadline {
            self.stop.store(true, Ordering::SeqCst);
        }
    }
}

fn run_clients<'a>(
    slice: &Slice<'a>,
    clients: usize,
    client: impl Fn(usize, Option<Conn<'a>>) -> ThreadOut + Sync,
) -> Result<Vec<ThreadOut>, String> {
    let outs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                let client = &client;
                scope.spawn(move || client(t, slice.connect()))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    match slice.error.lock().expect("error slot").take() {
        Some(e) => Err(e),
        None => Ok(outs),
    }
}

/// Closed loop over the op-list blocks in `blocks`, the phase's blocks
/// `first_block..`: `clients` callers, each sending its next op when
/// the previous returns; a block is timed barrier to barrier.
pub fn closed_loop(
    stack: &Stack,
    inputs: &Inputs,
    reference: &Reference,
    clients: usize,
    blocks: Range<usize>,
    first_block: usize,
    deadline: Instant,
) -> Result<PhaseResult, String> {
    let block_ops = inputs.block_ops;
    let cursors: Vec<AtomicUsize> = blocks.clone().map(|_| AtomicUsize::new(0)).collect();
    let slice = Slice {
        stack,
        reference,
        barrier: Barrier::new(clients),
        stop: AtomicBool::new(false),
        error: Mutex::new(None),
        deadline,
    };
    let started = Instant::now();
    let outs = run_clients(&slice, clients, |t, mut conn| {
        let mut out = ThreadOut::default();
        for (k, (b, cursor)) in blocks.clone().zip(&cursors).enumerate() {
            // Read before the barrier, so that every client starts the
            // block together.
            let steal0 = if t == 0 { metrics::steal_ticks() } else { 0.0 };
            slice.barrier.wait();
            if slice.stop.load(Ordering::SeqCst) {
                break;
            }
            let t0 = Instant::now();
            if let Some(conn) = conn.as_mut() {
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= block_ops {
                        break;
                    }
                    let block = (first_block + k) as u32;
                    run_op(conn, inputs, b * block_ops + i, block, None, &mut out);
                }
            }
            slice.barrier.wait();
            if t == 0 {
                out.block_times.push(t0.elapsed().as_secs_f64());
            }
            slice.after_block(t, &mut out);
            if t == 0 {
                out.steal_ticks.push(metrics::steal_ticks() - steal0);
            }
            // Between blocks nothing writes and nothing is timed.
            if t == 0 && inputs.workload == Workload::MixedIngest {
                if let Some(conn) = conn.as_mut() {
                    conn.verify_reads(inputs, b * VERIFY_PER_INGEST, VERIFY_PER_INGEST);
                }
            }
        }
        if let Some(conn) = conn {
            out.tally = conn.tally;
        }
        out
    })?;
    Ok(merge(outs, stack, inputs, started.elapsed().as_secs_f64()))
}

/// Sleep most of the way to `due`, spin the rest: `thread::sleep`
/// alone overshoots by a scheduler tick.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(100);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// The open loop's schedule and, in `mixed-ingest`, its writer.
pub struct OpenLoop<'a> {
    /// Where in the op list the slice starts, and which block of the
    /// phase its first block is.
    pub first_op: usize,
    pub first_block: usize,
    /// Requests per second of nominal time within a block, and the
    /// workload's `speed_exponent`.
    pub rate: f64,
    pub speed_exponent: f64,
    pub blocks: usize,
    /// Reads per block.
    pub block_ops: usize,
    /// What the writer thread ingests on a connection of its own, one
    /// at the start of every `ingest_every`-th block (a fixed schedule
    /// in nominal time, as the reads'); empty for no writer.
    pub ingests: &'a [Op],
    pub ingest_every: usize,
}

/// Open loop over `plan.blocks` blocks of reads taken from the op list
/// at `plan.first_op` onwards (its own ingests passed over): read `j` of a block is due at the block's
/// start + `j / rate` whatever the replies do; whichever connection is
/// free sends it, and its latency runs from the due time.
pub fn open_loop(
    stack: &Stack,
    inputs: &Inputs,
    reference: &Reference,
    clients: usize,
    plan: &OpenLoop,
    deadline: Instant,
) -> Result<PhaseResult, String> {
    let (block_ops, first_op) = (plan.block_ops, plan.first_op);
    let reads: Vec<usize> = (first_op..inputs.ops.len())
        .filter(|&i| inputs.ops[i].class != Class::Ingest)
        .take(plan.blocks * block_ops)
        .collect();
    if reads.len() < plan.blocks * block_ops {
        return Err("the op list is too short for the open loop".into());
    }
    let cursors: Vec<AtomicUsize> = (0..plan.blocks).map(|_| AtomicUsize::new(0)).collect();
    let writer = !plan.ingests.is_empty();
    let slice = Slice {
        stack,
        reference,
        barrier: Barrier::new(clients + usize::from(writer)),
        stop: AtomicBool::new(false),
        error: Mutex::new(None),
        deadline,
    };
    let started = Instant::now();
    // Nanoseconds after `started` at which the current block begins,
    // and between two of its requests.
    let block_start = AtomicU64::new(0);
    let block_step = AtomicU64::new(0);
    let writer_out = Mutex::new(ThreadOut::default());
    let outs = std::thread::scope(|scope| {
        if writer {
            let (slice, writer_out) = (&slice, &writer_out);
            scope.spawn(move || {
                let mut conn = slice.connect();
                let mut out = ThreadOut::default();
                let mut ingests = plan.ingests.iter().enumerate();
                for b in 0..plan.blocks {
                    slice.barrier.wait();
                    if slice.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    if let (Some(conn), true) = (conn.as_mut(), b % plan.ingest_every == 0) {
                        if let Some((k, op)) = ingests.next() {
                            if let Some(visible) = conn.ingest(inputs, op) {
                                out.ingest_visible.push(visible);
                            }
                            conn.verify_reads(inputs, k * VERIFY_PER_INGEST, VERIFY_PER_INGEST);
                        }
                    }
                    slice.barrier.wait();
                }
                if let Some(conn) = conn {
                    out.tally = conn.tally;
                }
                *writer_out.lock().expect("writer slot") = out;
            });
        }
        run_clients(&slice, clients, |t, mut conn| {
            let mut out = ThreadOut::default();
            // The rate is frozen in nominal time, as every timing is
            // reported: on a host where the workload runs 1.5x slower
            // than nominal the requests come 1.5x further apart, so the
            // load offered is the same share of what the host can do,
            // and the queueing part of the latency scales with the rest.
            let mut last_pass = if t == 0 { reference.pass() } else { 0.0 };
            for (b, cursor) in cursors.iter().enumerate() {
                if t == 0 {
                    let step = (last_pass / NOMINAL_PASS_S).powf(plan.speed_exponent) / plan.rate;
                    block_step.store((step * 1e9) as u64, Ordering::SeqCst);
                    let start = started.elapsed() + BLOCK_LEAD;
                    block_start.store(start.as_nanos() as u64, Ordering::SeqCst);
                }
                slice.barrier.wait();
                if slice.stop.load(Ordering::SeqCst) {
                    break;
                }
                let t0 = started + Duration::from_nanos(block_start.load(Ordering::SeqCst));
                let step = Duration::from_nanos(block_step.load(Ordering::SeqCst));
                if let Some(conn) = conn.as_mut() {
                    loop {
                        let j = cursor.fetch_add(1, Ordering::Relaxed);
                        if j >= block_ops {
                            break;
                        }
                        let due = t0 + step * j as u32;
                        wait_until(due);
                        let late = due.elapsed().as_secs_f64();
                        out.late.push(late);
                        out.backlog_max = out.backlog_max.max((late / step.as_secs_f64()) as u64);
                        let block = (plan.first_block + b) as u32;
                        run_op(
                            conn,
                            inputs,
                            reads[b * block_ops + j],
                            block,
                            Some(due),
                            &mut out,
                        );
                    }
                }
                slice.barrier.wait();
                slice.after_block(t, &mut out);
                if t == 0 {
                    last_pass = *out.reference_times.last().expect("a pass per block");
                }
            }
            if let Some(conn) = conn {
                out.tally = conn.tally;
            }
            out
        })
    });
    let mut outs = outs?;
    outs.push(writer_out.into_inner().expect("writer slot"));
    let mut r = merge(outs, stack, inputs, started.elapsed().as_secs_f64());
    r.next_op = reads[..r.blocks_done * block_ops]
        .last()
        .map_or(first_op, |&i| i + 1);
    Ok(r)
}
