//! The repository's benchmark: four workloads against the public surface of
//! `ix_manager` (`ManagerRuntime`, `Session`, `Ticket`), end-to-end metrics
//! from an untraced run and per-layer metrics from a traced one.
//!
//! `METRICS.md` next to this crate says why each workload exists and which
//! end-to-end metric each per-layer metric should move.

pub mod closed;
pub mod gen;
pub mod layers;
pub mod open;
pub mod stats;
pub mod trace;

use closed::{Drive, Tally};
use gen::{ClientGen, OfferGen, Workload, CHECKPOINT_EVERY, TICKET_DEADLINE};
use ix_core::{parse, Action, Expr, Partition};
use ix_manager::{
    inspect_vault, Completion, ManagerRuntime, MemVault, RuntimeOptions, Session, VaultInspection,
};
use ix_state::WordStatus;
use stats::{frac, mean_us, median, quantile_us, Metrics};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("commit_per_s", "1/s"),
    ("lat_p50_us", "us"),
    ("lat_p90_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("runtime.submit_call_p50_us", "us"),
    ("runtime.submit_call_p99_us", "us"),
    ("runtime.server_p50_us", "us"),
    ("runtime.server_p99_us", "us"),
    ("runtime.queue_wait_p50_us", "us"),
    ("runtime.queue_wait_p99_us", "us"),
    ("runtime.service_p50_us", "us"),
    ("runtime.service_p99_us", "us"),
    ("runtime.sched.rebalances", "count"),
    ("ticket.harvest_p50_us", "us"),
    ("ticket.harvest_p99_us", "us"),
    ("runtime.admit.shed_frac.probe", "frac"),
    ("runtime.admit.shed_frac.speculative", "frac"),
    ("runtime.admit.shed_frac.commit", "frac"),
    ("runtime.admit.peak_depth", "count"),
    ("runtime.admit.retry_after_p50_us", "us"),
    ("runtime.cross.conditional_votes", "count"),
    ("runtime.cross.invalidated_votes", "count"),
    ("runtime.cross.promote_frac", "frac"),
    ("runtime.cross.cascaded_frac", "frac"),
    ("runtime.cross.exec_lat_p50_us", "us"),
    ("runtime.cross.ask_confirm_lat_p50_us", "us"),
    ("runtime.cross.probe_lat_p50_us", "us"),
    ("state.step_ns", "ns"),
    ("state.cow_step_ns", "ns"),
    ("state.tier_hit_frac", "frac"),
    ("state.compile_ms", "ms"),
    ("state.monolithic_step_ns", "ns"),
    ("manager.blocking_commit_per_s", "1/s"),
    ("manager.try_execute_p50_ns", "ns"),
    ("manager.runtime_vs_blocking", "ratio"),
    ("durability.checkpoint_ms_p50", "ms"),
    ("durability.checkpoint_ms_max", "ms"),
    ("durability.snapshot_bytes", "B"),
    ("durability.snapshot_log_entries", "count"),
    ("durability.tail_records", "count"),
    ("durability.memvault_commit_per_s", "1/s"),
    ("durability.volatile_commit_per_s", "1/s"),
    ("durability.recover_ms", "ms"),
    ("durability.disk_bytes_per_commit", "B"),
    ("durable.sync_us_p50", "us"),
    ("core.parse_us", "us"),
    ("core.partition_us", "us"),
    ("bench.gen_late_p99_us", "us"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.accounted_frac", "frac"),
];

/// Set-ups per sub-run; `setup_s` is the median over all of them.
const SETUP_REPS: usize = 9;
/// Independent sub-runs of an untraced run.
const SUBRUNS: usize = 10;

/// One benchmark run.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Offered rate of `overload`, offers per second.
    pub overload_rate: f64,
    /// Directory for vaults and span files.
    pub out_dir: PathBuf,
}

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Of those, operations that failed.
    pub failed: u64,
    /// The metrics of the result line (`END_TO_END` or `PER_LAYER`).
    pub metrics: Metrics,
    /// Further readings, printed in the human-readable report only.
    pub extra: Metrics,
}

/// A set-up runtime with its sessions.
struct Built {
    expr: Expr,
    partition: Partition,
    runtime: ManagerRuntime,
    sessions: Vec<Session>,
    vault: Option<PathBuf>,
}

/// Durations of one set-up: parse, `Partition::of`, and the whole.
struct SetupTimes {
    parse: Duration,
    partition: Duration,
    total: Duration,
}

/// Parses, partitions and constructs the runtime (over a fresh file vault
/// when the workload is durable), up to the first session.
fn build(cfg: &Config, options: RuntimeOptions, tag: &str) -> Result<(Built, SetupTimes), String> {
    let w = cfg.workload;
    let src = w.expr_src();
    let vault = (w == Workload::Durable)
        .then(|| cfg.out_dir.join(format!("vault-{}-{tag}", std::process::id())));
    if let Some(dir) = &vault {
        remove_dir(dir)?;
    }
    let t0 = Instant::now();
    let expr = parse(&src).map_err(|e| format!("parse: {e}"))?;
    let t1 = Instant::now();
    let partition = Partition::of(&expr);
    let t2 = Instant::now();
    let runtime = match &vault {
        Some(dir) => ManagerRuntime::with_durability_path(&expr, options, dir),
        None => ManagerRuntime::with_options(&expr, options),
    }
    .map_err(|e| format!("runtime construction: {e}"))?;
    let sessions: Vec<Session> = (0..w.clients()).map(|c| runtime.session(c as u64)).collect();
    let t3 = Instant::now();
    let times = SetupTimes { parse: t1 - t0, partition: t2 - t1, total: t3 - t0 };
    Ok((Built { expr, partition, runtime, sessions, vault }, times))
}

/// Shuts a runtime down and removes its vault.
fn retire(built: Built) -> Result<Vec<Action>, String> {
    drop(built.sessions);
    let report = built.runtime.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    if let Some(dir) = &built.vault {
        remove_dir(dir)?;
    }
    Ok(report.log)
}

fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("removing {}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}

/// Sets up `SETUP_REPS` times and keeps the last runtime.  Returns the
/// per-set-up `[total s, parse us, partition us]` readings.
fn setup(cfg: &Config, options: RuntimeOptions) -> Result<(Built, Vec<[f64; 3]>), String> {
    let mut kept: Option<Built> = None;
    let mut times = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let (built, t) = build(cfg, options, &format!("setup{rep}"))?;
        times.push([
            t.total.as_secs_f64(),
            t.parse.as_secs_f64() * 1e6,
            t.partition.as_secs_f64() * 1e6,
        ]);
        if let Some(old) = kept.replace(built) {
            retire(old)?;
        }
    }
    Ok((kept.expect("at least one set-up"), times))
}

/// Median of one column of set-up readings.
fn setup_median(times: &[[f64; 3]], column: usize) -> f64 {
    median(&times.iter().map(|t| t[column]).collect::<Vec<_>>())
}

/// The clients of a workload: closed-loop generators or the open-loop
/// offer stream.
enum Clients {
    Closed(Vec<ClientGen>),
    Open(OfferGen),
}

impl Clients {
    fn new(w: Workload, seed: u64) -> Clients {
        match w {
            Workload::Overload => Clients::Open(OfferGen::new(seed)),
            _ => Clients::Closed((0..w.clients()).map(|c| ClientGen::new(w, seed, c)).collect()),
        }
    }
}

/// One driven segment's readings.
#[derive(Debug, Default)]
pub(crate) struct Seg {
    /// The common counters and samples.
    pub(crate) tally: Tally,
    /// `VmHWM` once the workload's `rss_ops` operations had been issued.
    pub(crate) rss_mb: Option<f64>,
    /// Open loop: offers of each class (probe, commit), warm-up included.
    pub(crate) offered: [u64; 2],
    /// Open loop: how late the generator issued each timed offer, ns.
    pub(crate) late: Vec<u32>,
    /// Open loop: retry-after hints of shed commit offers, ns.
    pub(crate) retry_after: Vec<u32>,
}

impl Seg {
    fn merge(&mut self, other: Seg) {
        self.tally.merge(other.tally);
        self.rss_mb = self.rss_mb.or(other.rss_mb);
        self.offered[0] += other.offered[0];
        self.offered[1] += other.offered[1];
        self.late.extend(other.late);
        self.retry_after.extend(other.retry_after);
    }
}

fn segment(
    cfg: &Config,
    built: &Built,
    clients: &mut Clients,
    warmup: Duration,
    measure: Duration,
    traced: bool,
) -> Seg {
    let w = cfg.workload;
    match clients {
        Clients::Closed(gens) => {
            let drive = Drive {
                warmup,
                measure,
                traced,
                checkpoint_every: if built.runtime.vault().is_some() {
                    CHECKPOINT_EVERY
                } else {
                    0
                },
                time_sync: traced && w == Workload::Durable,
                rss_ops: w.rss_ops(),
            };
            let (tally, rss_mb) = closed::drive(&built.runtime, &built.sessions, gens, drive);
            Seg { tally, rss_mb, ..Seg::default() }
        }
        Clients::Open(gen) => open::drive(
            &built.sessions[0],
            gen,
            cfg.overload_rate,
            warmup,
            measure,
            traced,
            w.rss_ops(),
        ),
    }
}

/// The output checks of a runtime after its segments: every issued
/// operation resolved, the commits match the schedule, the merged log has
/// one entry per commit and is a word of the expression, and admission
/// kept every queue inside its limit.  Returns the merged log.
fn verify(cfg: &Config, built: &Built, tally: &Tally) -> Result<Vec<Action>, String> {
    let name = cfg.workload.name();
    if tally.stalled {
        return Err(format!("{name}: a ticket did not resolve within {TICKET_DEADLINE:?}"));
    }
    if tally.committed != tally.expected {
        return Err(format!(
            "{name}: committed {} actions, the schedule commits {}",
            tally.committed, tally.expected
        ));
    }
    let log = built.runtime.log();
    if log.len() as u64 != tally.committed {
        return Err(format!(
            "{name}: merged log holds {} actions, clients saw {} commits",
            log.len(),
            tally.committed
        ));
    }
    let confirmations = built.runtime.stats().confirmations;
    if confirmations != tally.committed {
        return Err(format!(
            "{name}: runtime counted {confirmations} confirmations, clients saw {} commits",
            tally.committed
        ));
    }
    match ix_state::word_problem(&built.expr, &log) {
        Ok(WordStatus::Illegal) => {
            return Err(format!("{name}: the merged log is not a word of the expression"))
        }
        Err(e) => return Err(format!("{name}: word problem: {e}")),
        Ok(_) => {}
    }
    let load = built.runtime.load_report();
    if load.queue_limit > 0 && load.peak_depth() > load.queue_limit {
        let (peak, limit) = (load.peak_depth(), load.queue_limit);
        return Err(format!("{name}: a shard queue reached {peak} > limit {limit}"));
    }
    Ok(log)
}

/// Readings of the crash and recovery at the end of a durable run.
struct Recovery {
    recover_ms: f64,
    disk_bytes: u64,
    inspection: VaultInspection,
}

/// Ends a runtime.  Durable: reads the vault at the crash, shuts down,
/// recovers from the directory and times recovery until the recovered
/// runtime answers `next`; the recovered log must equal the pre-crash log.
/// Otherwise: shuts down and compares the final log with `log`.
fn close(
    cfg: &Config,
    built: Built,
    log: &[Action],
    next: Option<Action>,
) -> Result<Option<Recovery>, String> {
    let name = cfg.workload.name();
    let (Some(dir), Some(next)) = (built.vault.clone(), next) else {
        let final_log = retire(built)?;
        return if final_log == log {
            Ok(None)
        } else {
            Err(format!("{name}: the shutdown log differs from the live log"))
        };
    };
    let vault = built.runtime.vault().ok_or("durable runtime without a vault")?;
    let inspection = inspect_vault(&vault).map_err(|e| format!("inspect_vault: {e}"))?;
    drop(vault);
    let disk_bytes = stats::dir_bytes(&dir);
    drop(built.sessions);
    let report = built.runtime.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    if report.log != log {
        return Err(format!("{name}: the shutdown log differs from the live log"));
    }
    let t0 = Instant::now();
    let recovered = ManagerRuntime::recover_path(&dir, cfg.workload.options())
        .map_err(|e| format!("recover_path: {e}"))?;
    let session = recovered.session(0);
    let answer = session.execute(&next).wait_timeout(TICKET_DEADLINE);
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    if !matches!(answer, Some(Completion::Executed { .. })) {
        return Err(format!("{name}: the recovered runtime answered {answer:?} to {next}"));
    }
    let recovered_log = recovered.log();
    let n = log.len();
    if recovered_log.len() != n + 1 || recovered_log[..n] != *log || recovered_log[n] != next {
        return Err(format!(
            "{name}: recovered log ({} actions) is not the pre-crash log ({n}) plus {next}",
            recovered_log.len()
        ));
    }
    drop(session);
    recovered.shutdown().map_err(|e| format!("shutdown after recovery: {e}"))?;
    remove_dir(&dir)?;
    Ok(Some(Recovery { recover_ms, disk_bytes, inspection }))
}

fn next_action(clients: &mut Clients) -> Option<Action> {
    match clients {
        Clients::Closed(gens) => Some(gens[0].next_action()),
        Clients::Open(_) => None,
    }
}

/// Warm-up before a timed phase of length `measure`.
fn warmup(measure: Duration) -> Duration {
    (measure / 10).min(Duration::from_secs(1))
}

/// Runs one configuration and returns its metrics, or the failed check.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    trace::base();
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("creating {}: {e}", cfg.out_dir.display()))?;
    let outcome = if cfg.trace { traced_run(cfg)? } else { end_to_end_run(cfg)? };
    let want = if cfg.trace { PER_LAYER } else { END_TO_END };
    let printed: Vec<(&str, &str)> =
        outcome.metrics.0.iter().map(|(name, m)| (name.as_str(), m.unit)).collect();
    let mut declared = want.to_vec();
    declared.sort_unstable();
    assert_eq!(printed, declared, "the result line must carry exactly the declared metrics");
    Ok(outcome)
}

/// The untraced run: `SUBRUNS` independent sub-runs, each on a freshly
/// set-up runtime with inputs from its own seed stream.  Every end-to-end
/// metric is the median over the sub-runs, which damps bursts of host
/// interference (CPU steal, thread placement) shorter than half the run.
fn end_to_end_run(cfg: &Config) -> Result<Outcome, String> {
    let w = cfg.workload;
    let per = Duration::from_secs_f64(cfg.seconds / SUBRUNS as f64);
    let (mut rates, mut p50s, mut p90s, mut p99s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut recover_ms, mut disk_per_commit) = (Vec::new(), Vec::new());
    let mut setups = Vec::new();
    let mut rss_mb = None;
    let (mut attempted, mut failed, mut committed, mut samples) = (0, 0, 0, 0);
    let mut check = Duration::ZERO;
    for sub in 0..SUBRUNS {
        let (built, times) = setup(cfg, w.options())?;
        setups.extend(times);
        let mut clients = Clients::new(w, subrun_seed(cfg.seed, sub));
        let mut seg = segment(cfg, &built, &mut clients, warmup(per), per, false);
        rss_mb = rss_mb.or(seg.rss_mb).or_else(|| Some(stats::peak_rss_mb()));
        let t = &mut seg.tally;
        rates.push(t.commit_per_s());
        p50s.push(quantile_us(&mut t.lat, 0.50));
        p90s.push(quantile_us(&mut t.lat, 0.90));
        p99s.push(quantile_us(&mut t.lat, 0.99));
        attempted += t.attempted;
        failed += t.failed;
        committed += t.committed_timed;
        samples += t.lat.len() as u64;
        let t0 = Instant::now();
        let log = verify(cfg, &built, &seg.tally)?;
        check += t0.elapsed();
        let next = next_action(&mut clients);
        if let Some(r) = close(cfg, built, &log, next)? {
            recover_ms.push(r.recover_ms);
            disk_per_commit.push(frac(r.disk_bytes as f64, log.len() as f64));
        }
    }
    let mut m = Metrics::default();
    m.put("commit_per_s", median(&rates), "1/s", committed);
    m.put("lat_p50_us", median(&p50s), "us", samples);
    m.put("lat_p90_us", median(&p90s), "us", samples);
    m.put("setup_s", setup_median(&setups, 0), "s", setups.len() as u64);
    m.put("peak_rss_mb", rss_mb.unwrap_or_default(), "MB", 1);
    let mut extra = Metrics::default();
    // p99 follows the host's CPU steal too closely to be bounded (see
    // METRICS.md); it is reported beside the bounded p90.
    extra.put("lat_p99_us", median(&p99s), "us", samples);
    extra.put("fail_frac", frac(failed as f64, attempted as f64), "frac", attempted);
    extra.put("check_s", check.as_secs_f64(), "s", SUBRUNS as u64);
    if !recover_ms.is_empty() {
        extra.put("recover_ms", median(&recover_ms), "ms", recover_ms.len() as u64);
        let n = disk_per_commit.len() as u64;
        extra.put("disk_bytes_per_commit", median(&disk_per_commit), "B", n);
    }
    extra.put("final_rss_mb", stats::peak_rss_mb(), "MB", 1);
    Ok(Outcome { attempted, failed, metrics: m, extra })
}

/// The input seed of sub-run `sub`.
fn subrun_seed(seed: u64, sub: usize) -> u64 {
    seed.wrapping_add((sub as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The traced run: the per-layer metrics, from a runtime traced against
/// an untraced twin on the same schedule, plus the engine replay and the
/// blocking-manager baseline.
fn traced_run(cfg: &Config) -> Result<Outcome, String> {
    let w = cfg.workload;
    let options = w.options();
    let (a, setup) = setup(cfg, options)?;
    let traced_options = RuntimeOptions { queue_metrics: true, ..options };
    let (b, _) = build(cfg, traced_options, "traced")?;
    let mut clients_a = Clients::new(w, cfg.seed);
    let mut clients_b = Clients::new(w, cfg.seed);
    // Untraced and traced segments alternate on two runtimes, so drift on
    // the host hits both sides alike.
    let quarter = Duration::from_secs_f64(cfg.seconds / 4.0);
    let mut u = Seg::default();
    let mut t = Seg::default();
    for round in 0..2 {
        let warm = if round == 0 { warmup(quarter) } else { Duration::ZERO };
        u.merge(segment(cfg, &a, &mut clients_a, warm, quarter, false));
        let mut traced = segment(cfg, &b, &mut clients_b, warm, quarter, true);
        if round > 0 {
            // Operation ids restart per segment: keep the first segment's
            // spans only, so an id names one operation.
            traced.tally.spans.clear();
        }
        t.merge(traced);
    }
    let log_a = verify(cfg, &a, &u.tally)?;
    let log_b = verify(cfg, &b, &t.tally)?;

    let mut m = Metrics::default();
    let tt = &mut t.tally;
    let calls = tt.calls.len() as u64;
    m.put("runtime.submit_call_p50_us", quantile_us(&mut tt.calls, 0.50), "us", calls);
    m.put("runtime.submit_call_p99_us", quantile_us(&mut tt.calls, 0.99), "us", calls);
    let ops = tt.stages.server.len() as u64;
    m.put("runtime.server_p50_us", quantile_us(&mut tt.stages.server, 0.50), "us", ops);
    m.put("runtime.server_p99_us", quantile_us(&mut tt.stages.server, 0.99), "us", ops);
    let harvested = tt.stages.harvest.len() as u64;
    m.put("ticket.harvest_p50_us", quantile_us(&mut tt.stages.harvest, 0.50), "us", harvested);
    m.put("ticket.harvest_p99_us", quantile_us(&mut tt.stages.harvest, 0.99), "us", harvested);
    let [submit, server, harvest, e2e] = tt.stages.sums.map(|s| mean_us(s, tt.stages.ops));
    let accounted = frac(submit + server + harvest, e2e);
    m.put("bench.accounted_frac", accounted, "frac", tt.stages.ops as u64);
    let overhead = 1.0 - frac(tt.commit_per_s(), u.tally.commit_per_s());
    m.put("bench.trace_overhead_frac", overhead, "frac", tt.committed_timed);

    let (mut waits, mut services): (Vec<u32>, Vec<u32>) = b
        .runtime
        .drain_queue_samples()
        .into_iter()
        .map(|(w, s)| (stats::ns32(u128::from(w)), stats::ns32(u128::from(s))))
        .unzip();
    let qn = waits.len() as u64;
    m.put("runtime.queue_wait_p50_us", quantile_us(&mut waits, 0.50), "us", qn);
    m.put("runtime.queue_wait_p99_us", quantile_us(&mut waits, 0.99), "us", qn);
    m.put("runtime.service_p50_us", quantile_us(&mut services, 0.50), "us", qn);
    m.put("runtime.service_p99_us", quantile_us(&mut services, 0.99), "us", qn);
    m.put("runtime.sched.rebalances", a.runtime.sched_stats().rebalances as f64, "count", 1);

    let load = a.runtime.load_report();
    let sum = |f: fn(&ix_manager::ShardLoad) -> u64| load.shards.iter().map(f).sum::<u64>() as f64;
    let [probes, commits] = u.offered.map(|n| n as f64);
    let shed_probes = frac(sum(|s| s.shed_probes), probes);
    m.put("runtime.admit.shed_frac.probe", shed_probes, "frac", u.offered[0]);
    // Overload offers no multi-owner work, the only speculative class.
    m.put("runtime.admit.shed_frac.speculative", frac(sum(|s| s.shed_speculative), 0.0), "frac", 0);
    let shed_commits = frac(sum(|s| s.shed_commits), commits);
    m.put("runtime.admit.shed_frac.commit", shed_commits, "frac", u.offered[1]);
    m.put("runtime.admit.peak_depth", load.peak_depth() as f64, "count", 1);
    let sheds = u.retry_after.len() as u64;
    m.put("runtime.admit.retry_after_p50_us", quantile_us(&mut u.retry_after, 0.50), "us", sheds);
    let late = u.late.len() as u64;
    m.put("bench.gen_late_p99_us", quantile_us(&mut u.late, 0.99), "us", late);

    let cascade = a.runtime.cascade_stats();
    let conditional = cascade.conditional_votes as f64;
    m.put("runtime.cross.conditional_votes", conditional, "count", 1);
    m.put("runtime.cross.invalidated_votes", cascade.invalidated_votes as f64, "count", 1);
    m.put(
        "runtime.cross.promote_frac",
        frac(cascade.promoted_votes as f64, conditional),
        "frac",
        1,
    );
    let chains = u.tally.committed_chain as f64;
    m.put("runtime.cross.cascaded_frac", frac(cascade.cascaded_commits as f64, chains), "frac", 1);
    for (name, kind) in [
        ("runtime.cross.exec_lat_p50_us", gen::Kind::Chain),
        ("runtime.cross.ask_confirm_lat_p50_us", gen::Kind::AskConfirm),
        ("runtime.cross.probe_lat_p50_us", gen::Kind::Probe),
    ] {
        let samples = &mut u.tally.lat_kind[kind.index()];
        let n = samples.len() as u64;
        let v = if w == Workload::Cross { quantile_us(samples, 0.50) } else { 0.0 };
        m.put(name, v, "us", n);
    }

    let tier = a.runtime.tier_stats();
    let lookups = (tier.hits + tier.fallbacks) as f64;
    m.put("state.tier_hit_frac", frac(tier.hits as f64, lookups), "frac", lookups as u64);
    m.put("state.compile_ms", tier.compile_nanos as f64 / 1e6, "ms", tier.compiles);
    let replay = layers::replay(&a.expr, &a.partition, &log_a, options.tier_budget)
        .map_err(|e| format!("{}: {e}", w.name()))?;
    m.put("state.step_ns", replay.step_ns, "ns", replay.steps);
    m.put("state.cow_step_ns", replay.cow_step_ns, "ns", replay.steps);
    m.put("state.monolithic_step_ns", replay.monolithic_step_ns, "ns", replay.steps);

    let mut blocking = layers::blocking(w, &a.expr, cfg.seed, quarter)?;
    let calls = blocking.try_execute_ns.len() as u64;
    m.put("manager.blocking_commit_per_s", blocking.commit_per_s, "1/s", calls);
    let p50_ns = quantile_us(&mut blocking.try_execute_ns, 0.50) * 1e3;
    m.put("manager.try_execute_p50_ns", p50_ns, "ns", calls);
    let vs = frac(u.tally.commit_per_s(), blocking.commit_per_s);
    m.put("manager.runtime_vs_blocking", vs, "ratio", 1);

    let durable = w == Workload::Durable;
    let mut ckpt = std::mem::take(&mut tt.checkpoint_ns);
    let nckpt = ckpt.len() as u64;
    m.put("durability.checkpoint_ms_p50", quantile_us(&mut ckpt, 0.50) / 1e3, "ms", nckpt);
    let max_ms = ckpt.iter().copied().max().map_or(0.0, |v| f64::from(v) / 1e6);
    m.put("durability.checkpoint_ms_max", max_ms, "ms", nckpt);
    let mut syncs = std::mem::take(&mut tt.sync_ns);
    let nsync = syncs.len() as u64;
    m.put("durable.sync_us_p50", quantile_us(&mut syncs, 0.50), "us", nsync);
    let (memvault, volatile) =
        if durable { durability_baselines(cfg, quarter)? } else { (0.0, 0.0) };
    m.put("durability.memvault_commit_per_s", memvault, "1/s", 1);
    m.put("durability.volatile_commit_per_s", volatile, "1/s", 1);

    let spans = std::mem::take(&mut t.tally.spans);
    let span_file = cfg.out_dir.join(format!("{}-seed{}.spans.tsv", w.name(), cfg.seed));
    trace::write_spans(&span_file, &spans)
        .map_err(|e| format!("writing {}: {e}", span_file.display()))?;

    let next_a = next_action(&mut clients_a);
    let recovery = close(cfg, a, &log_a, next_a)?;
    let next_b = next_action(&mut clients_b);
    close(cfg, b, &log_b, next_b)?;
    let (recover_ms, disk_per_commit, inspection) = match &recovery {
        Some(r) => {
            (r.recover_ms, frac(r.disk_bytes as f64, log_a.len() as f64), Some(&r.inspection))
        }
        None => (0.0, 0.0, None),
    };
    m.put("durability.recover_ms", recover_ms, "ms", u64::from(durable));
    m.put("durability.disk_bytes_per_commit", disk_per_commit, "B", u64::from(durable));
    let shard_sum = |f: fn(&ix_manager::ShardInspection) -> u64| {
        inspection.map_or(0.0, |i| i.shards.iter().map(f).sum::<u64>() as f64)
    };
    m.put("durability.snapshot_bytes", shard_sum(|s| s.snapshot_bytes), "B", 1);
    m.put("durability.snapshot_log_entries", shard_sum(|s| s.log_entries), "count", 1);
    m.put("durability.tail_records", shard_sum(|s| s.tail_records), "count", 1);
    m.put("core.parse_us", setup_median(&setup, 1), "us", setup.len() as u64);
    m.put("core.partition_us", setup_median(&setup, 2), "us", setup.len() as u64);

    if w == Workload::Local {
        // BENCHMARK.json lists only `local` and `overload`: the end-to-end
        // figures of `cross` and `durable` follow the host's CPU speed and
        // disk too closely to bound.  Their layers are still measured here,
        // by traced runs of a quarter of the length: `durable` is `local`'s
        // schedule over a file vault, `cross` the only rendezvous and
        // compiled-table load.
        for (workload, layers) in [
            (Workload::Durable, &["durability.", "durable."][..]),
            (Workload::Cross, &["runtime.cross.", "state.tier_hit_frac", "state.compile_ms"][..]),
        ] {
            let nested = Config { workload, seconds: cfg.seconds / 4.0, ..cfg.clone() };
            let out = traced_run(&nested)?;
            for (name, metric) in out.metrics.0 {
                if layers.iter().any(|prefix| name.starts_with(prefix)) {
                    m.0.insert(name, metric);
                }
            }
        }
    }

    let mut extra = Metrics::default();
    extra.put("traced_commit_per_s", t.tally.commit_per_s(), "1/s", t.tally.committed_timed);
    extra.put("untraced_commit_per_s", u.tally.commit_per_s(), "1/s", u.tally.committed_timed);
    extra.put("spans_written", spans.len() as f64, "count", 1);
    Ok(Outcome { attempted: u.tally.attempted, failed: u.tally.failed, metrics: m, extra })
}

/// `durable`'s schedule over a `MemVault` and without any vault, so the
/// codec cost and the file/fsync cost separate.  Commits per second.
fn durability_baselines(cfg: &Config, measure: Duration) -> Result<(f64, f64), String> {
    let w = cfg.workload;
    let expr = parse(&w.expr_src()).map_err(|e| format!("parse: {e}"))?;
    let options = w.options();
    let mut rates = [0.0; 2];
    for (i, rate) in rates.iter_mut().enumerate() {
        let runtime = if i == 0 {
            ManagerRuntime::with_durability(&expr, options, Arc::new(MemVault::new()))
        } else {
            ManagerRuntime::with_options(&expr, options)
        }
        .map_err(|e| format!("runtime construction: {e}"))?;
        let partition = Partition::of(&expr);
        let sessions = (0..w.clients()).map(|c| runtime.session(c as u64)).collect();
        let built = Built { expr: expr.clone(), partition, runtime, sessions, vault: None };
        let mut clients = Clients::new(w, cfg.seed);
        let seg = segment(cfg, &built, &mut clients, warmup(measure), measure, false);
        if seg.tally.stalled || seg.tally.committed != seg.tally.expected {
            return Err(format!("{}: baseline run lost commits", w.name()));
        }
        *rate = seg.tally.commit_per_s();
        retire(built)?;
    }
    Ok((rates[0], rates[1]))
}
