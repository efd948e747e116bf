//! Seeded input generation: the workloads' expressions, runtime options and
//! per-client operation schedules.
//!
//! Everything the runtime receives is made here from the `--seed`
//! argument, so the same seed gives the same inputs.  Every generated
//! operation is permitted by its expression whatever the interleaving of
//! the clients, so a schedule predicts exactly what commits.

use ix_core::{Action, Symbol, Value};
use ix_manager::{FsyncPolicy, ProtocolVariant, RuntimeOptions, ShedPolicy};
use std::time::Duration;

/// The four workloads of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, two sessions on two disjoint quantified components.
    Local,
    /// Closed loop under `Simple`, four finite-state components sharing
    /// `audit`, ~25% multi-owner operations.
    Cross,
    /// The `local` schedule over a file vault fsynced on every append.
    Durable,
    /// Open loop at a fixed offered rate into bounded admission.
    Overload,
}

/// Operations per closed-loop window (one `submit_batch` call on `local`).
const WINDOW: usize = 64;
/// Client commits between two `checkpoint()` calls on `durable`.
pub const CHECKPOINT_EVERY: u64 = 8_192;
/// Per-shard admission limit on `overload`.
const QUEUE_LIMIT: usize = 64;
/// Every this-many-th `overload` offer is an `is_permitted` probe.
const PROBE_EVERY: u64 = 16;
/// Pools of the `overload` expression.
const POOLS: usize = 4;
/// Zipf exponent of the `overload` pool choice.
const ZIPF_S: f64 = 1.1;

impl Workload {
    /// All workloads, in report order.
    pub const ALL: [Workload; 4] =
        [Workload::Local, Workload::Cross, Workload::Durable, Workload::Overload];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Local => "local",
            Workload::Cross => "cross",
            Workload::Durable => "durable",
            Workload::Overload => "overload",
        }
    }

    /// Source text of the workload's interaction expression.
    pub fn expr_src(self) -> String {
        let join = |parts: Vec<String>| parts.join(" @ ");
        match self {
            // overlap_constraint(2, 0): two disjoint quantified components.
            Workload::Local | Workload::Durable => join(
                (0..2)
                    .map(|k| format!("(some p {{ call_dept{k}(p) - perform_dept{k}(p) }})*"))
                    .collect(),
            ),
            // Four unquantified finite-state protocols; `audit` is in every
            // alphabet (so it has four owners) but runs in parallel with the
            // local protocol, so it is permitted in every state.
            Workload::Cross => join(
                (0..4)
                    .map(|k| format!("((open{k} - (read{k} + write{k})* - close{k})* | audit*)"))
                    .collect(),
            ),
            Workload::Overload => {
                join((0..POOLS).map(|k| format!("(some p {{ work_{k}(p) }})*")).collect())
            }
        }
    }

    /// Runtime options of the measured runtime.
    pub fn options(self) -> RuntimeOptions {
        let base = RuntimeOptions::default();
        match self {
            Workload::Local => RuntimeOptions { variant: ProtocolVariant::Combined, ..base },
            Workload::Cross => RuntimeOptions { variant: ProtocolVariant::Simple, ..base },
            Workload::Durable => RuntimeOptions {
                variant: ProtocolVariant::Combined,
                fsync: FsyncPolicy::Always,
                ..base
            },
            Workload::Overload => RuntimeOptions {
                variant: ProtocolVariant::Combined,
                queue_limit: QUEUE_LIMIT,
                shed: ShedPolicy::default(),
                // The spinning generator and one worker: a core each.
                worker_threads: 1,
                ..base
            },
        }
    }

    /// Client threads (one session each).  At most two, the core count of
    /// the host the seed figures were taken on.
    pub fn clients(self) -> usize {
        match self {
            Workload::Overload => 1,
            _ => 2,
        }
    }

    /// Operations issued after which `peak_rss_mb` is read: memory is
    /// compared at equal history, so a faster runtime is not charged for
    /// retaining the longer log it commits in the same seconds.
    pub fn rss_ops(self) -> u64 {
        match self {
            Workload::Local => 500_000,
            Workload::Cross => 250_000,
            Workload::Durable => 4_096,
            Workload::Overload => 80_000,
        }
    }
}

/// splitmix64: small, fast, and good enough to pick schedule choices.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// The generator of one input stream (`lane`) of a seed.
    pub fn new(seed: u64, lane: u64) -> Rng {
        let mut rng = Rng(seed ^ lane.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A case identifier.
    pub fn case(&mut self) -> Value {
        Value::int((self.next_u64() >> 24) as i64)
    }
}

/// What a generated operation is and how the client submits it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A single-owner execute.
    Local,
    /// A multi-owner execute (an `audit` of a depth-4 chain on `cross`).
    Chain,
    /// An `ask` whose grant is then confirmed; one operation, one commit.
    AskConfirm,
    /// An `is_permitted` probe; expected to answer "permitted".
    Probe,
}

impl Kind {
    /// Whether the operation commits an action when it succeeds.
    pub fn commits(self) -> bool {
        !matches!(self, Kind::Probe)
    }

    /// Number of kinds (for per-kind sample arrays).
    pub const COUNT: usize = 4;

    /// Dense index of the kind.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One window of a closed-loop client: operations in submission order.
/// Consecutive executes are contiguous in `actions`, so they go to the
/// runtime as one `submit_batch` slice without copying.
#[derive(Default, Debug)]
pub struct Window {
    /// The operations' actions.
    pub actions: Vec<Action>,
    /// The operations' kinds, aligned with `actions`.
    pub kinds: Vec<Kind>,
}

impl Window {
    fn push(&mut self, kind: Kind, action: Action) {
        self.kinds.push(kind);
        self.actions.push(action);
    }

    fn clear(&mut self) {
        self.actions.clear();
        self.kinds.clear();
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True if the window holds no operation.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }
}

/// The schedule of one closed-loop client.
#[derive(Debug)]
pub struct ClientGen {
    workload: Workload,
    rng: Rng,
    /// `local`/`durable`: the `call` and `perform` names of the client's
    /// component.
    names: [Symbol; 2],
    /// `cross`: `[open, read, write, close]` of each owned component.
    protocol: [[Action; 4]; 2],
    /// `cross`: whether each owned component is inside `open … close`.
    open: [bool; 2],
}

impl ClientGen {
    /// Client `client`'s schedule under `seed`.
    pub fn new(workload: Workload, seed: u64, client: usize) -> ClientGen {
        let protocol = [0, 1].map(|slot| {
            let k = 2 * client + slot;
            ["open", "read", "write", "close"]
                .map(|verb| Action::nullary(Symbol::new(&format!("{verb}{k}"))))
        });
        ClientGen {
            workload,
            rng: Rng::new(seed, client as u64 + 1),
            names: [
                Symbol::new(&format!("call_dept{client}")),
                Symbol::new(&format!("perform_dept{client}")),
            ],
            protocol,
            open: [false; 2],
        }
    }

    /// Refills `window` with the client's next operations.
    pub fn next_window(&mut self, window: &mut Window) {
        window.clear();
        match self.workload {
            Workload::Local | Workload::Durable => self.local_window(window),
            Workload::Cross => self.cross_window(window),
            Workload::Overload => unreachable!("overload is an open loop"),
        }
    }

    /// The next action this client would commit (the first submission a
    /// recovered runtime answers).
    pub fn next_action(&mut self) -> Action {
        let mut window = Window::default();
        self.next_window(&mut window);
        window.actions.swap_remove(0)
    }

    fn local_window(&mut self, window: &mut Window) {
        for _ in 0..WINDOW / 2 {
            let case = self.rng.case();
            window.push(Kind::Local, Action::concrete(self.names[0], [case]));
            window.push(Kind::Local, Action::concrete(self.names[1], [case]));
        }
    }

    fn cross_window(&mut self, window: &mut Window) {
        let audit = Action::nullary("audit");
        while window.len() < WINDOW {
            // One draw in seven is multi-owner; a draw yields two operations
            // on average (a chain of 4, an ask/confirm, or a probe), so
            // 2/7 / (6/7 + 2/7) = 25% of the operations are multi-owner.
            if self.rng.below(7) == 0 {
                match self.rng.below(3) {
                    0 => (0..4).for_each(|_| window.push(Kind::Chain, audit.clone())),
                    1 => window.push(Kind::AskConfirm, audit.clone()),
                    _ => window.push(Kind::Probe, audit.clone()),
                }
                continue;
            }
            let slot = self.rng.below(2) as usize;
            let step = if !self.open[slot] {
                0
            } else {
                match self.rng.below(20) {
                    0..=11 => 1,
                    12..=16 => 2,
                    _ => 3,
                }
            };
            self.open[slot] = step != 3;
            window.push(Kind::Local, self.protocol[slot][step].clone());
        }
    }
}

/// The open-loop offer stream of `overload`: Zipf-skewed pool choice,
/// fresh case per commit offer, every [`PROBE_EVERY`]-th offer a probe.
#[derive(Debug)]
pub struct OfferGen {
    rng: Rng,
    cdf: Vec<f64>,
    names: Vec<Symbol>,
    offered: u64,
}

impl OfferGen {
    /// The offer stream of `seed`.
    pub fn new(seed: u64) -> OfferGen {
        let weights: Vec<f64> = (0..POOLS).map(|k| 1.0 / ((k + 1) as f64).powf(ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        let names = (0..POOLS).map(|k| Symbol::new(&format!("work_{k}"))).collect();
        OfferGen { rng: Rng::new(seed, 0), cdf, names, offered: 0 }
    }

    /// The next offer.
    pub fn next_offer(&mut self) -> (Kind, Action) {
        self.offered += 1;
        let u = self.rng.unit();
        let k = self.cdf.iter().position(|&c| u < c).unwrap_or(POOLS - 1);
        if self.offered.is_multiple_of(PROBE_EVERY) {
            (Kind::Probe, Action::concrete(self.names[k], [Value::int(1)]))
        } else {
            (Kind::Local, Action::concrete(self.names[k], [self.rng.case()]))
        }
    }
}

/// How long a closed-loop client waits for one ticket before counting it
/// as unresolved and stopping.
pub const TICKET_DEADLINE: Duration = Duration::from_secs(30);
