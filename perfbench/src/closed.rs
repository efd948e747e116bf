//! The closed-loop client: every client submits one window, waits for all
//! of its tickets, then submits the next (`local`, `cross`, `durable`).
//!
//! An operation's latency runs from the `Session` call that issued it
//! until the `Ticket::wait` that returned its completion.  In a traced
//! segment every ticket also gets a `Ticket::then` stamp registered right
//! after the call that issued it, which splits the latency into
//! submit call → server (until the stamp) → harvest (stamp until `wait`
//! returns).  The three add up to the whole by construction; a ticket that
//! is already fulfilled when the stamp is registered is stamped at
//! registration.

use crate::gen::{ClientGen, Kind, Window, TICKET_DEADLINE};
use crate::stats::ns32;
use crate::trace::{self, Span, SPAN_OPS};
use ix_manager::{Completion, ManagerRuntime, Session, Ticket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stage samples of traced operations.
#[derive(Debug, Default)]
pub struct Stages {
    /// Server time per operation (submit call end → fulfil stamp), ns.
    pub server: Vec<u32>,
    /// Harvest time per operation (fulfil stamp → `wait` returns), ns.
    pub harvest: Vec<u32>,
    /// Signed sums for the means: submit call, server, harvest, end to end.
    pub sums: [i128; 4],
    /// Operations the sums cover.
    pub ops: usize,
}

/// What one or more clients saw in one driven segment.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations issued in the timed phase.
    pub attempted: u64,
    /// Timed operations that failed (wrong completion, shed, unresolved).
    pub failed: u64,
    /// Actions committed over the whole segment, warm-up included.
    pub committed: u64,
    /// Actions the schedule says the issued operations commit.
    pub expected: u64,
    /// Actions committed by timed operations.
    pub committed_timed: u64,
    /// Committed multi-owner executes over the whole segment.
    pub committed_chain: u64,
    /// A ticket did not resolve before its deadline.
    pub stalled: bool,
    /// End-to-end latency of successful timed operations, ns.
    pub lat: Vec<u32>,
    /// The same, split by operation kind.
    pub lat_kind: [Vec<u32>; Kind::COUNT],
    /// Duration of every timed `Session` call, ns.
    pub calls: Vec<u32>,
    /// Stage split of traced operations.
    pub stages: Stages,
    /// Spans of the first traced operations.
    pub spans: Vec<Span>,
    /// Duration of every `checkpoint()` call, ns.
    pub checkpoint_ns: Vec<u32>,
    /// Duration of every timed `Vault::sync` call, ns.
    pub sync_ns: Vec<u32>,
    /// Length of the timed phase.
    pub elapsed: Duration,
}

impl Tally {
    /// Folds another tally in (latency vectors are concatenated; elapsed
    /// times add, so rates over several segments weigh each by its length).
    pub fn merge(&mut self, mut other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.committed += other.committed;
        self.expected += other.expected;
        self.committed_timed += other.committed_timed;
        self.committed_chain += other.committed_chain;
        self.stalled |= other.stalled;
        self.lat.append(&mut other.lat);
        for (mine, theirs) in self.lat_kind.iter_mut().zip(other.lat_kind.iter_mut()) {
            mine.append(theirs);
        }
        self.calls.append(&mut other.calls);
        self.stages.server.append(&mut other.stages.server);
        self.stages.harvest.append(&mut other.stages.harvest);
        for (mine, theirs) in self.stages.sums.iter_mut().zip(other.stages.sums) {
            *mine += theirs;
        }
        self.stages.ops += other.stages.ops;
        self.spans.append(&mut other.spans);
        self.checkpoint_ns.append(&mut other.checkpoint_ns);
        self.sync_ns.append(&mut other.sync_ns);
        self.elapsed += other.elapsed;
    }

    /// Timed commits per second.
    pub fn commit_per_s(&self) -> f64 {
        self.committed_timed as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// How to drive one closed-loop segment.
#[derive(Clone, Copy, Debug)]
pub struct Drive {
    /// Untimed lead-in (caches fill, tiers compile).
    pub warmup: Duration,
    /// Timed phase.
    pub measure: Duration,
    /// Stamp and span every timed operation.
    pub traced: bool,
    /// Client 0 calls `checkpoint()` whenever the runtime-wide commit count
    /// passes another multiple of this (0 = never).
    pub checkpoint_every: u64,
    /// Client 0 times one `Vault::sync` after each timed window.
    pub time_sync: bool,
    /// Operations issued (all clients) at which `VmHWM` is read.
    pub rss_ops: u64,
}

/// Shared between the clients of one segment.
struct Shared {
    ops: AtomicU64,
    commits: AtomicU64,
    rss_read: AtomicBool,
    rss_mb: AtomicU64,
}

/// Runs one segment: one thread per session, each driving its generator.
/// Returns the merged tally and the `VmHWM` reading taken at `rss_ops`
/// operations (`None` if the segment issued fewer).
pub fn drive(
    runtime: &ManagerRuntime,
    sessions: &[Session],
    gens: &mut [ClientGen],
    cfg: Drive,
) -> (Tally, Option<f64>) {
    let shared = Shared {
        ops: AtomicU64::new(0),
        commits: AtomicU64::new(0),
        rss_read: AtomicBool::new(false),
        rss_mb: AtomicU64::new(0),
    };
    let start = Instant::now();
    let warm_end = start + cfg.warmup;
    let end = warm_end + cfg.measure;
    let tallies: Vec<(Tally, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter()
            .zip(gens.iter_mut())
            .enumerate()
            .map(|(client, (session, gen))| {
                let shared = &shared;
                scope.spawn(move || {
                    run_client(runtime, session, gen, client, cfg, shared, warm_end, end)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut total = Tally::default();
    let mut last_end = warm_end;
    for (tally, client_end) in tallies {
        last_end = last_end.max(client_end);
        total.merge(tally);
    }
    total.elapsed = last_end.saturating_duration_since(warm_end);
    let rss = shared
        .rss_read
        .load(Ordering::SeqCst)
        .then(|| f64::from_bits(shared.rss_mb.load(Ordering::SeqCst)));
    (total, rss)
}

#[allow(clippy::too_many_arguments)]
fn run_client(
    runtime: &ManagerRuntime,
    session: &Session,
    gen: &mut ClientGen,
    client: usize,
    cfg: Drive,
    shared: &Shared,
    warm_end: Instant,
    end: Instant,
) -> (Tally, Instant) {
    let mut tally = Tally::default();
    let mut window = Window::default();
    let mut last_end = warm_end;
    let mut traced_ops = 0u32;
    let mut next_checkpoint = cfg.checkpoint_every;
    let vault = if cfg.time_sync && client == 0 { runtime.vault() } else { None };
    loop {
        let begin = Instant::now();
        if begin >= end || tally.stalled {
            break;
        }
        let timed = begin >= warm_end;
        gen.next_window(&mut window);
        let trace = (cfg.traced && timed).then_some((client as u32, &mut traced_ops));
        let committed = run_window(session, &window, timed, trace, &mut tally);
        let ops =
            shared.ops.fetch_add(window.len() as u64, Ordering::Relaxed) + window.len() as u64;
        let commits = shared.commits.fetch_add(committed, Ordering::Relaxed) + committed;
        if timed {
            last_end = Instant::now();
        }
        if ops >= cfg.rss_ops && !shared.rss_read.swap(true, Ordering::SeqCst) {
            shared.rss_mb.store(crate::stats::peak_rss_mb().to_bits(), Ordering::SeqCst);
        }
        if client != 0 {
            continue;
        }
        if cfg.checkpoint_every > 0 && commits >= next_checkpoint {
            next_checkpoint = (commits / cfg.checkpoint_every + 1) * cfg.checkpoint_every;
            let t0 = Instant::now();
            runtime.checkpoint().expect("checkpoint of a healthy vault");
            tally.checkpoint_ns.push(ns32(t0.elapsed().as_nanos()));
        }
        if let (Some(vault), true) = (&vault, timed) {
            let t0 = Instant::now();
            vault.sync();
            tally.sync_ns.push(ns32(t0.elapsed().as_nanos()));
        }
    }
    (tally, last_end)
}

/// One issued operation of a window.
struct Issued {
    ticket: Ticket<Completion>,
    /// The `Session` call that issued it: start and end.
    call: (Instant, Instant),
}

/// A confirm issued for a granted ask while harvesting.
struct Confirming {
    op: usize,
    ticket: Ticket<Completion>,
    call: (Instant, Instant),
    /// When the ask's own `wait` returned.
    ask_done: Instant,
}

/// Submits a window, harvests it, and records the outcome.  Returns the
/// number of actions committed.
fn run_window(
    session: &Session,
    window: &Window,
    timed: bool,
    trace: Option<(u32, &mut u32)>,
    tally: &mut Tally,
) -> u64 {
    let n = window.len();
    // Fulfil stamps: slot `op` for the issuing call's ticket, `n + op` for
    // the confirm of an ask.  Registered right after each call returns.
    let stamps: Option<Arc<Vec<AtomicU64>>> =
        trace.is_some().then(|| Arc::new((0..2 * n).map(|_| AtomicU64::new(0)).collect()));
    let mut issued: Vec<Issued> = Vec::with_capacity(n);
    let mut i = 0;
    while i < n {
        let t0 = Instant::now();
        let tickets = match window.kinds[i] {
            Kind::Local | Kind::Chain => {
                let run = window.kinds[i..]
                    .iter()
                    .take_while(|k| matches!(k, Kind::Local | Kind::Chain))
                    .count();
                session.submit_batch(&window.actions[i..i + run])
            }
            Kind::AskConfirm => vec![session.ask(&window.actions[i])],
            Kind::Probe => vec![session.is_permitted(&window.actions[i])],
        };
        let t1 = Instant::now();
        if timed {
            tally.calls.push(ns32((t1 - t0).as_nanos()));
        }
        for ticket in tickets {
            if let Some(stamps) = &stamps {
                stamp_on_fulfil(&ticket, stamps, i);
            }
            issued.push(Issued { ticket, call: (t0, t1) });
            i += 1;
        }
    }
    let deadline = Instant::now() + TICKET_DEADLINE;
    let mut done: Vec<Option<Instant>> = vec![None; n];
    let mut confirms: Vec<Confirming> = Vec::new();
    let mut committed = 0u64;
    for (op, issue) in issued.iter().enumerate() {
        let kind = window.kinds[op];
        let expected = kind.commits();
        tally.expected += u64::from(expected);
        let Some(completion) = wait(&issue.ticket, deadline) else {
            tally.stalled = true;
            continue;
        };
        let now = Instant::now();
        let ok = match (kind, completion) {
            (Kind::Local | Kind::Chain, Completion::Executed { .. }) => true,
            (Kind::Probe, Completion::Status { permitted: true }) => true,
            (Kind::AskConfirm, Completion::Granted { reservation }) => {
                let c0 = Instant::now();
                let ticket = session.confirm(reservation);
                let call = (c0, Instant::now());
                if timed {
                    tally.calls.push(ns32((call.1 - call.0).as_nanos()));
                }
                if let Some(stamps) = &stamps {
                    stamp_on_fulfil(&ticket, stamps, n + op);
                }
                confirms.push(Confirming { op, ticket, call, ask_done: now });
                continue;
            }
            _ => false,
        };
        if ok {
            done[op] = Some(now);
            committed += u64::from(expected);
            tally.committed_chain += u64::from(kind == Kind::Chain);
        }
    }
    for c in &confirms {
        match wait(&c.ticket, deadline) {
            Some(Completion::Confirmed { .. }) => {
                done[c.op] = Some(Instant::now());
                committed += 1;
            }
            Some(_) => {}
            None => tally.stalled = true,
        }
    }
    tally.committed += committed;
    if !timed {
        return committed;
    }
    tally.committed_timed += committed;
    tally.attempted += n as u64;
    for (op, finished) in done.iter().enumerate() {
        let Some(finished) = finished else {
            tally.failed += 1;
            continue;
        };
        let lat = ns32((*finished - issued[op].call.0).as_nanos());
        tally.lat.push(lat);
        tally.lat_kind[window.kinds[op].index()].push(lat);
    }
    if let (Some((client, traced_ops)), Some(stamps)) = (trace, &stamps) {
        for op in 0..n {
            let Some(finished) = done[op] else { continue };
            let id = *traced_ops;
            *traced_ops += 1;
            let confirm = confirms.iter().find(|c| c.op == op);
            let first = (issued[op].call, op, confirm.map_or(finished, |c| c.ask_done));
            let second = confirm.map(|c| (c.call, n + op, finished));
            let (mut submit, mut server, mut harvest) = (0i128, 0i128, 0i128);
            for ((c0, c1), slot, leg_done) in std::iter::once(first).chain(second) {
                let (c0, c1, leg_done) = (trace::ns(c0), trace::ns(c1), trace::ns(leg_done));
                let stamp = read_stamp(&stamps[slot]);
                submit += i128::from(c1) - i128::from(c0);
                server += i128::from(stamp) - i128::from(c1);
                harvest += i128::from(leg_done) - i128::from(stamp);
                if id < SPAN_OPS {
                    let span =
                        |name, start, end| Span { session: client, op: id, name, start, end };
                    tally.spans.push(span(call_name(window.kinds[op], slot >= n), c0, c1));
                    tally.spans.push(span("runtime.server", c1, stamp.max(c1)));
                    tally.spans.push(span("ticket.harvest", stamp.min(leg_done), leg_done));
                }
            }
            let e2e = i128::from(trace::ns(finished)) - i128::from(trace::ns(issued[op].call.0));
            if id < SPAN_OPS {
                tally.spans.push(Span {
                    session: client,
                    op: id,
                    name: "op",
                    start: trace::ns(issued[op].call.0),
                    end: trace::ns(finished),
                });
            }
            let st = &mut tally.stages;
            st.server.push(clamp32(server));
            st.harvest.push(clamp32(harvest));
            for (sum, v) in st.sums.iter_mut().zip([submit, server, harvest, e2e]) {
                *sum += v;
            }
            st.ops += 1;
        }
    }
    committed
}

fn call_name(kind: Kind, confirm: bool) -> &'static str {
    match (kind, confirm) {
        (_, true) => "session.confirm",
        (Kind::Local | Kind::Chain, _) => "session.submit_batch",
        (Kind::AskConfirm, _) => "session.ask",
        (Kind::Probe, _) => "session.is_permitted",
    }
}

fn clamp32(v: i128) -> u32 {
    u32::try_from(v.max(0)).unwrap_or(u32::MAX)
}

fn stamp_on_fulfil(ticket: &Ticket<Completion>, stamps: &Arc<Vec<AtomicU64>>, slot: usize) {
    let stamps = Arc::clone(stamps);
    // 0 marks "not yet fulfilled", so a stamp is at least 1.
    ticket.then(move |_| stamps[slot].store(trace::now_ns().max(1), Ordering::Release));
}

/// The fulfil stamp of a slot.  `wait` can return a moment before the
/// fulfilling thread runs the callbacks, so wait until the stamp lands.
fn read_stamp(slot: &AtomicU64) -> u64 {
    let since = Instant::now();
    loop {
        let v = slot.load(Ordering::Acquire);
        if v != 0 {
            return v;
        }
        assert!(since.elapsed() < TICKET_DEADLINE, "a fulfilled ticket never ran its callback");
        std::thread::yield_now();
    }
}

fn wait(ticket: &Ticket<Completion>, deadline: Instant) -> Option<Completion> {
    ticket.wait_timeout(deadline.saturating_duration_since(Instant::now()))
}
