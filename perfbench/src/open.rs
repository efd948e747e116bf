//! The open-loop generator of `overload`: one thread offers operations at
//! a fixed rate, whatever the runtime does with them.
//!
//! Offer `i` is due at `start + i / rate`.  The generator spins until an
//! offer is due (a sleep would overshoot the 20 µs gaps by the timer
//! slack and measure the host's timers instead of the runtime) and issues
//! every due offer, so a stall shows up as lateness (reported) and as
//! latency of the offers it delayed.  A shed offer is a polite client's:
//! it is offered again once its `retry_after` has passed, and fails only
//! if it is still shed [`TICKET_DEADLINE`] after its due time.  An
//! operation's latency runs from its due time until its ticket is
//! fulfilled, stamped by a `Ticket::then` callback, retries included.

use crate::gen::{Kind, OfferGen, TICKET_DEADLINE};
use crate::stats::ns32;
use crate::trace::{self, Span, SPAN_OPS};
use crate::Seg;
use ix_core::Action;
use ix_manager::{Completion, ManagerError, Session, Ticket};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome codes packed into the low bits of a fulfil stamp.
const OK: u64 = 1;
const SHED: u64 = 2;
const WRONG: u64 = 3;

/// Offers `action` once: its ticket, or the retry-after hint of a shed.
/// Probes are shed inline, as a ticket that is already `Failed`.
fn offer(session: &Session, kind: Kind, action: &Action) -> Result<Ticket<Completion>, Duration> {
    if kind != Kind::Probe {
        return session.submit(action).map_err(|e| e.retry_after());
    }
    let ticket = session.is_permitted(action);
    match ticket.poll() {
        Some(Completion::Failed { error: ManagerError::Overloaded { retry_after } }) => {
            Err(retry_after)
        }
        _ => Ok(ticket),
    }
}

/// Drives `warmup + measure` of offers at `rate` per second through one
/// session.  Traced: every timed offer is split into lateness, submit
/// call and server time.
pub(crate) fn drive(
    session: &Session,
    gen: &mut OfferGen,
    rate: f64,
    warmup: Duration,
    measure: Duration,
    traced: bool,
    rss_ops: u64,
) -> Seg {
    let period = 1.0 / rate;
    let total = ((warmup + measure).as_secs_f64() * rate).ceil() as usize;
    let warm = (warmup.as_secs_f64() * rate).ceil() as usize;
    let stamps: Arc<Vec<AtomicU64>> = Arc::new((0..total).map(|_| AtomicU64::new(0)).collect());
    let mut out = Seg::default();
    // Everything the generator appends to is allocated up front: growing a
    // vector of millions of samples would stall the generator for
    // milliseconds and show up as latency of the offers it delayed.
    out.late.reserve_exact(total - warm);
    out.tally.calls.reserve_exact(total - warm);
    out.retry_after.reserve_exact(total - warm);
    let mut admitted = vec![false; total];
    let mut kinds = vec![Kind::Local; total];
    // Traced: the (start, end) of the call that admitted each timed offer.
    let mut calls: Vec<(u64, u64)> = if traced { vec![(0, 0); total - warm] } else { Vec::new() };
    // Shed offers waiting out their retry-after, earliest first.
    let mut retries: BinaryHeap<Reverse<(Instant, usize)>> = BinaryHeap::new();
    let mut shed: HashMap<usize, Action> = HashMap::new();
    let start = Instant::now();
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 * period);
    let mut next = 0;
    loop {
        let now = Instant::now();
        let (i, action) = match retries.peek() {
            Some(&Reverse((at, i))) if at <= now => {
                retries.pop();
                let action = shed.remove(&i).expect("a queued retry keeps its action");
                if now > due(i) + TICKET_DEADLINE {
                    continue;
                }
                (i, action)
            }
            _ if next < total && due(next) <= now => {
                let (kind, action) = gen.next_offer();
                kinds[next] = kind;
                if next >= warm {
                    out.late.push(ns32(now.saturating_duration_since(due(next)).as_nanos()));
                }
                if next as u64 + 1 == rss_ops {
                    out.rss_mb = Some(crate::stats::peak_rss_mb());
                }
                next += 1;
                (next - 1, action)
            }
            _ if next == total && retries.is_empty() => break,
            _ => {
                std::thread::yield_now();
                continue;
            }
        };
        let kind = kinds[i];
        out.offered[usize::from(kind != Kind::Probe)] += 1;
        let t0 = Instant::now();
        let result = offer(session, kind, &action);
        let t1 = Instant::now();
        if i >= warm {
            out.tally.calls.push(ns32((t1 - t0).as_nanos()));
        }
        match result {
            Ok(ticket) => {
                admitted[i] = true;
                if traced && i >= warm {
                    calls[i - warm] = (trace::ns(t0), trace::ns(t1));
                }
                let stamps = Arc::clone(&stamps);
                ticket.then(move |completion| {
                    let code = match completion {
                        Completion::Executed { .. } | Completion::Status { permitted: true } => OK,
                        Completion::Failed { error: ManagerError::Overloaded { .. } } => SHED,
                        _ => WRONG,
                    };
                    stamps[i].store(trace::now_ns().max(1) << 2 | code, Ordering::Release);
                });
            }
            Err(retry_after) => {
                if i >= warm {
                    out.retry_after.push(ns32(retry_after.as_nanos()));
                }
                retries.push(Reverse((t1 + retry_after, i)));
                shed.insert(i, action);
            }
        }
    }
    let deadline = Instant::now() + TICKET_DEADLINE;
    for (i, stamp) in stamps.iter().enumerate() {
        while admitted[i] && stamp.load(Ordering::Acquire) == 0 {
            if Instant::now() >= deadline {
                out.tally.stalled = true;
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    let t = &mut out.tally;
    // Goodput: timed commits over the span from the first timed offer's
    // due time to the last timed fulfilment, so a runtime that falls
    // behind the offered rate reads lower.
    let first_due = trace::ns(due(warm));
    let mut last_fulfilled = first_due;
    for i in 0..total {
        let stamp = stamps[i].load(Ordering::Acquire);
        let code = stamp & 3;
        let commits = kinds[i] != Kind::Probe;
        if admitted[i] && commits {
            // The schedule commits every admitted work offer.
            t.expected += 1;
        }
        let ok = code == OK;
        if ok && commits {
            t.committed += 1;
        }
        if i < warm {
            continue;
        }
        t.attempted += 1;
        if !ok {
            t.failed += 1;
            continue;
        }
        t.committed_timed += u64::from(commits);
        let fulfilled = stamp >> 2;
        last_fulfilled = last_fulfilled.max(fulfilled);
        let due_ns = trace::ns(due(i));
        let lat = ns32(u128::from(fulfilled.saturating_sub(due_ns)));
        t.lat.push(lat);
        t.lat_kind[kinds[i].index()].push(lat);
        if traced {
            let (c0, c1) = calls[i - warm];
            let op = (i - warm) as u32;
            let server = i128::from(fulfilled) - i128::from(c1);
            t.stages.server.push(u32::try_from(server.max(0)).unwrap_or(u32::MAX));
            let sums = [i128::from(c1) - i128::from(c0), server, 0, i128::from(lat)];
            for (sum, v) in t.stages.sums.iter_mut().zip(sums) {
                *sum += v;
            }
            t.stages.ops += 1;
            if op < SPAN_OPS {
                let span = |name, start, end| Span { session: 0, op, name, start, end };
                t.spans.push(span("op", due_ns, fulfilled));
                t.spans.push(span("bench.generator_late", due_ns, c0.max(due_ns)));
                t.spans.push(span("session.submit", c0, c1));
                t.spans.push(span("runtime.server", c1, fulfilled.max(c1)));
            }
        }
    }
    t.elapsed = Duration::from_nanos(last_fulfilled.saturating_sub(first_due));
    out
}
