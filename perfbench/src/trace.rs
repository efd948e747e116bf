//! Spans the benchmark records around its calls into the runtime.
//!
//! A span is a named interval on one clock; the spans of one operation
//! share its `(session, op)` identifier, and the operation's own `op` span
//! is the parent of the others.  Spans stay in memory during the run and
//! are written once at the end.

use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Operations per session whose spans are kept; the stage histograms use
/// every operation, the span file only the first ones.
pub const SPAN_OPS: u32 = 2_000;

/// The trace clock's origin, fixed by its first use.
pub fn base() -> Instant {
    static BASE: OnceLock<Instant> = OnceLock::new();
    *BASE.get_or_init(Instant::now)
}

/// Nanoseconds of `t` on the trace clock.
pub fn ns(t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(base()).as_nanos()).unwrap_or(u64::MAX)
}

/// Now, on the trace clock.
pub fn now_ns() -> u64 {
    ns(Instant::now())
}

/// One recorded interval.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Client session the operation belongs to.
    pub session: u32,
    /// Operation index within the session's traced segment.
    pub op: u32,
    /// Layer boundary the span covers.
    pub name: &'static str,
    /// Start, on the trace clock.
    pub start: u64,
    /// End, on the trace clock.
    pub end: u64,
}

/// Writes spans as tab-separated `session op name start_ns end_ns` lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "session\top\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(out, "{}\t{}\t{}\t{}\t{}", s.session, s.op, s.name, s.start, s.end)?;
    }
    out.flush()
}
