//! The experiment runner: executes one benchmark scenario and
//! measures atomic-broadcast latency the way the paper defines it
//! (Section 5.1): `L = min_i(t_deliver_i) − t_broadcast`, averaged
//! over many messages and several independent replications.
//!
//! A scenario is a [`FaultScript`]; the runner compiles it against
//! the run dimensions, schedules the resulting injection stream, and
//! measures either the steady flow or — when the script carries a
//! probe — the probe broadcast alone. The whole pipeline is generic
//! over the [`Backend`]: [`Backend::Sim`] runs on the deterministic
//! simulator, [`Backend::Real`] runs the same schedule on OS threads
//! ([`neko::RealRuntime`]), the compiled `(Time, Injection)` stream
//! replayed on the wall clock.
//! Replications and whole parameter sweeps fan out across OS threads
//! ([`run_sweep`]) with per-replication derived seeds and a
//! deterministic merge order, so simulated results never depend on
//! scheduling.

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the sweep executor runs whole simulations on scoped OS threads, which take work \
              from an atomic cursor and fill locked result slots; results merge in input order, \
              so no simulated number depends on scheduling"
)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use abcast::{AbcastEvent, BatchConfig, Batched, FdNode, GmNode, Pack, Payload, Uniformity};
use fdet::SuspectSet;
use neko::{
    derive_seed, Dur, NetParams, NetStats, NetworkModel, Pid, Process, RealRuntime, Runtime,
    Schedule, Sim, SimBuilder, Time,
};
use ringpaxos::RingNode;

use crate::script::{CompiledScript, FaultScript, ScriptAction};
use crate::stats::{Reservoir, Running, Summary};
use crate::workload::poisson_arrivals;

/// Which algorithm (and variant) to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Chandra–Toueg atomic broadcast (failure detectors used
    /// directly).
    Fd,
    /// [`Algorithm::Fd`] without the coordinator-renumbering
    /// optimisation (ablation).
    FdNoRenumber,
    /// Fixed-sequencer atomic broadcast over group membership,
    /// uniform.
    Gm,
    /// The non-uniform GM variant of the paper's Section 8.
    GmNonUniform,
    /// Ring Paxos-style atomic broadcast (beyond the paper):
    /// consensus on compact message ids, payload repair forwarded
    /// around a ring of f+1 acceptors.
    Ring,
}

impl Algorithm {
    /// The two algorithms the paper compares.
    pub const PAPER: [Algorithm; 2] = [Algorithm::Fd, Algorithm::Gm];

    /// The study's full three-way comparison: the paper's two
    /// algorithms plus the ring contender.
    pub const STUDY: [Algorithm; 3] = [Algorithm::Fd, Algorithm::Gm, Algorithm::Ring];
}

/// Which [`neko::Runtime`] backend executes a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The deterministic discrete-event simulator — instantaneous,
    /// bit-reproducible, contention-modelled. The default.
    #[default]
    Sim,
    /// The thread-based real-time runtime: the same compiled schedule
    /// replayed on the wall clock, with crashes pausing process
    /// threads, partitions gating each thread's sends and the
    /// script's FD edges as the only failure detector. A run *blocks*
    /// for its full wall-clock duration (warm-up + measurement +
    /// drain), and latencies include genuine OS scheduling noise.
    Real,
}

/// Default bound on retained per-message latency samples per run (see
/// [`RunParams::with_latency_sample_cap`]).
pub const DEFAULT_LATENCY_SAMPLE_CAP: usize = 65_536;

/// Run dimensions shared by all scenarios.
#[derive(Clone, Debug)]
pub struct RunParams {
    n: usize,
    throughput: f64,
    warmup: Dur,
    measure: Dur,
    drain: Dur,
    replications: usize,
    net: NetParams,
    saturation_frac: f64,
    backend: Backend,
    latency_cap: usize,
    batching: Option<BatchConfig>,
    schedule: Schedule,
}

impl RunParams {
    /// Parameters for `n` processes at overall rate `throughput`
    /// (1/s), with the paper's network model (1 ms unit, λ = 1) and
    /// moderate defaults: 1 s warm-up, 10 s measurement, 3 s drain,
    /// 5 replications.
    pub fn new(n: usize, throughput: f64) -> Self {
        RunParams {
            n,
            throughput,
            warmup: Dur::from_secs(1),
            measure: Dur::from_secs(10),
            drain: Dur::from_secs(3),
            replications: 5,
            net: NetParams::default(),
            saturation_frac: 0.05,
            backend: Backend::Sim,
            latency_cap: DEFAULT_LATENCY_SAMPLE_CAP,
            batching: None,
            schedule: Schedule::Fifo,
        }
    }

    /// Group size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Nominal overall throughput `T` (1/s).
    pub fn throughput(&self) -> f64 {
        self.throughput
    }

    /// Replaces the nominal throughput, keeping every other dimension
    /// — the knob [`crate::find_saturation`] turns while searching
    /// for the knee.
    ///
    /// # Panics
    ///
    /// Panics if `t` is negative or not finite.
    pub fn with_throughput(mut self, t: f64) -> Self {
        assert!(
            t.is_finite() && t >= 0.0,
            "throughput must be finite and non-negative"
        );
        self.throughput = t;
        self
    }

    /// Enables adaptive message batching: A-broadcast payloads are
    /// aggregated into packs of up to [`BatchConfig::max_batch`]
    /// payloads (flushed no later than [`BatchConfig::max_delay`]
    /// after the first), and each pack rides the broadcast stack as
    /// one wire message. Off by default — and when off, the run takes
    /// the pre-batching code path bit-identically.
    pub fn with_batching(mut self, cfg: BatchConfig) -> Self {
        self.batching = Some(cfg);
        self
    }

    /// The configured batching knobs, if batching is enabled.
    pub fn batching(&self) -> Option<BatchConfig> {
        self.batching
    }

    /// Sets the measurement window.
    pub fn with_measure(mut self, d: Dur) -> Self {
        self.measure = d;
        self
    }

    /// Sets the warm-up window (discarded from statistics).
    pub fn with_warmup(mut self, d: Dur) -> Self {
        self.warmup = d;
        self
    }

    /// Sets the drain window after the last send.
    pub fn with_drain(mut self, d: Dur) -> Self {
        self.drain = d;
        self
    }

    /// Sets the number of independent replications.
    pub fn with_replications(mut self, r: usize) -> Self {
        self.replications = r.max(1);
        self
    }

    /// Number of independent replications.
    pub fn replications(&self) -> usize {
        self.replications
    }

    /// Sets the network model (λ sweeps, coalescing ablation, …).
    pub fn with_net(mut self, net: NetParams) -> Self {
        self.net = net;
        self
    }

    /// Selects the network topology, keeping the other network
    /// parameters — the run dimension that puts every scenario on
    /// every topology (shared medium, switched, WAN).
    pub fn with_network_model(mut self, model: NetworkModel) -> Self {
        self.net = self.net.with_model(model);
        self
    }

    /// The configured network topology.
    pub fn network_model(&self) -> NetworkModel {
        self.net.model()
    }

    /// Sets the fraction of measured messages that may remain
    /// undelivered before the run is declared saturated.
    pub fn with_saturation_frac(mut self, f: f64) -> Self {
        self.saturation_frac = f;
        self
    }

    /// Selects the execution backend (default: [`Backend::Sim`]).
    /// With [`Backend::Real`] the same compiled fault script and
    /// workload are replayed on OS threads and the wall clock.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// The configured execution backend.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Bounds the per-message latency samples one run retains
    /// (default: [`DEFAULT_LATENCY_SAMPLE_CAP`]). Up to the cap,
    /// p50/p95/p99 over [`RunOutput::messages`] are exact; beyond it
    /// a deterministic reservoir ([`crate::Reservoir`]) keeps a
    /// uniform subsample, so the percentiles become unbiased
    /// estimates and memory stays bounded however long the run.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn with_latency_sample_cap(mut self, cap: usize) -> Self {
        assert!(cap > 0, "a reservoir must hold at least one sample");
        self.latency_cap = cap;
        self
    }

    /// The configured latency-sample bound.
    pub fn latency_sample_cap(&self) -> usize {
        self.latency_cap
    }

    /// Selects the simulator's same-time tie-break policy (default:
    /// [`Schedule::Fifo`], bit-identical to runs predating the knob).
    /// Non-default policies deterministically permute the
    /// interleavings a run explores — see [`neko::Schedule`] and the
    /// schedule explorer ([`crate::explore`]). Ignored by
    /// [`Backend::Real`], whose interleavings come from the OS
    /// scheduler.
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// The configured tie-break policy.
    pub fn schedule(&self) -> Schedule {
        self.schedule
    }
}

/// The outcome of one simulation run.
#[derive(Clone, Debug)]
pub struct SingleRun {
    /// Mean latency (ms) over measured messages; `None` when the run
    /// saturated (too many messages never delivered).
    pub mean_latency_ms: Option<f64>,
    /// Messages inside the measurement window (broadcast by a process
    /// that was up at the send instant).
    pub measured: u64,
    /// Measured messages that were never delivered anywhere.
    pub undelivered: u64,
    /// Latency (ms) of measured, delivered messages — in payload
    /// order, and exact, while the run stays below
    /// [`RunParams::with_latency_sample_cap`]; a deterministic uniform
    /// reservoir subsample beyond it.
    pub latencies: Vec<f64>,
    /// Network-model counters for the whole run.
    pub net: NetStats,
}

/// Aggregated outcome over replications.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// Mean-of-means latency with a 95% CI; `None` when more than half
    /// the replications saturated.
    pub latency: Option<Summary>,
    /// Per-message latencies pooled over the sustaining replications,
    /// for p50/p95/p99 — exact while every replication stayed below
    /// [`RunParams::with_latency_sample_cap`], reservoir estimates
    /// beyond it; `None` when the scenario saturated.
    pub messages: Option<Summary>,
    /// How many replications saturated.
    pub saturated: usize,
    /// The individual runs.
    pub runs: Vec<SingleRun>,
}

impl RunOutput {
    /// Mean latency in milliseconds, if the scenario was sustainable.
    pub fn mean_latency_ms(&self) -> Option<f64> {
        self.latency.as_ref().map(Summary::mean)
    }
}

/// One configuration of a parameter sweep: algorithm × scenario ×
/// run dimensions, under a master seed.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// The algorithm to run.
    pub alg: Algorithm,
    /// The fault script to run it under.
    pub script: FaultScript,
    /// The run dimensions.
    pub params: RunParams,
    /// Master seed; replication `r` runs with `derive_seed(seed, r)`.
    pub seed: u64,
}

impl SweepPoint {
    /// Bundles one sweep configuration.
    pub fn new(alg: Algorithm, script: FaultScript, params: RunParams, seed: u64) -> Self {
        SweepPoint {
            alg,
            script,
            params,
            seed,
        }
    }
}

/// Runs every replication of every sweep point across all CPU cores
/// and aggregates per point, in input order.
///
/// The unit of parallelism is a single simulation run, so a fig4-style
/// sweep (dozens of points × several replications) keeps every core
/// busy. Each run's seed depends only on its point and replication
/// index — never on scheduling — and results are merged in
/// deterministic order, so the output is bit-identical to a
/// sequential execution.
pub fn run_sweep(points: &[SweepPoint]) -> Vec<RunOutput> {
    run_sweep_with_workers(points, sweep_workers())
}

/// The sweep worker pool's thread count: `STUDY_SWEEP_THREADS`
/// overrides it (benchmarking, scaling studies); the default is one
/// worker per CPU core. Shared by the sweep executor and the schedule
/// explorer ([`crate::explore`]).
pub(crate) fn sweep_workers() -> usize {
    std::env::var("STUDY_SWEEP_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&w| w > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The sweep worker pool: applies `f` to every item on up to
/// `workers` scoped threads and returns the results **in input
/// order** — scheduling never leaks into the output. The unit of
/// parallelism is one item, so callers get full-core utilisation by
/// submitting fine-grained items (single runs, single explorer
/// tuples). A single item runs on the calling thread: every
/// saturation probe is one job, and a thread of its own bought it no
/// parallelism.
pub(crate) fn parallel_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if let [item] = items {
        return vec![f(item)];
    }
    let results: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = workers.clamp(1, items.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let j = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(j) else {
                    break;
                };
                *results[j].lock().expect("result slot poisoned") = Some(f(item));
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker completed")
        })
        .collect()
}

/// [`run_sweep`] with an explicit worker-thread count. The output is
/// bit-identical for every `workers` value — scheduling never leaks
/// into the results.
pub fn run_sweep_with_workers(points: &[SweepPoint], workers: usize) -> Vec<RunOutput> {
    let jobs: Vec<(usize, u64)> = points
        .iter()
        .enumerate()
        .flat_map(|(i, p)| (0..p.params.replications as u64).map(move |r| (i, r)))
        .collect();
    let runs = parallel_map(&jobs, workers, |&(pi, rep)| {
        let p = &points[pi];
        run_once(p.alg, &p.script, &p.params, derive_seed(p.seed, rep))
    });
    let mut slots = runs.into_iter();
    points
        .iter()
        .map(|p| {
            let runs: Vec<SingleRun> = (0..p.params.replications)
                .map(|_| slots.next().expect("one slot per job"))
                .collect();
            aggregate(runs)
        })
        .collect()
}

/// Does nothing. It once switched a thread-local pool that carried the
/// simulator's allocations from one run to the next on a worker
/// thread; measured, the pool cost memory and bought no measurable
/// throughput, so it was removed. Kept so existing callers compile.
pub fn set_run_scratch(_on: bool) {}

/// Runs `replications` independent simulations (in parallel threads)
/// and aggregates.
pub fn run_replicated(
    alg: Algorithm,
    script: &FaultScript,
    params: &RunParams,
    seed: u64,
) -> RunOutput {
    run_sweep(&[SweepPoint::new(alg, script.clone(), params.clone(), seed)])
        .pop()
        .expect("one point in, one output out")
}

fn aggregate(runs: Vec<SingleRun>) -> RunOutput {
    let means: Vec<f64> = runs.iter().filter_map(|r| r.mean_latency_ms).collect();
    let saturated = runs.len() - means.len();
    let sustained = means.len() * 2 > runs.len();
    let latency = sustained.then(|| Summary::from_samples(&means));
    let messages = sustained
        .then(|| {
            let pooled: Vec<f64> = runs
                .iter()
                .filter(|r| r.mean_latency_ms.is_some())
                .flat_map(|r| r.latencies.iter().copied())
                .collect();
            (!pooled.is_empty()).then(|| Summary::from_samples(&pooled))
        })
        .flatten();
    RunOutput {
        latency,
        messages,
        saturated,
        runs,
    }
}

/// Runs one simulation of `alg` under `script`.
pub fn run_once(alg: Algorithm, script: &FaultScript, params: &RunParams, seed: u64) -> SingleRun {
    let n = params.n;
    // Probe runs drain from the probe instant (the paper's
    // crash-transient methodology: the sample is one broadcast, given
    // the full drain window to deliver); steady runs drain after the
    // measurement window closes.
    let end = match script.probe_time(params.warmup) {
        Some(probe_at) => probe_at + params.drain,
        None => Time::ZERO + params.warmup + params.measure + params.drain,
    };
    let compiled = script.compile(n, params.warmup, end, seed);
    let probe = compiled.entries().iter().find_map(|(t, a)| match a {
        ScriptAction::Probe(b) => Some((*t, *b)),
        _ => None,
    });
    let ancient = compiled.ancient_crashes();
    // A probe run loads every process until the end (a crashed
    // process's post-crash arrivals are dropped by the runtime); a
    // steady run sends over the measurement window from the processes
    // that were up at the start.
    let (horizon, senders): (Time, Vec<Pid>) = match probe {
        Some((_, broadcaster)) => {
            assert!(
                !ancient.contains(&broadcaster),
                "the probe's broadcaster must be alive"
            );
            (end, Pid::all(n).collect())
        }
        None => (
            Time::ZERO + params.warmup + params.measure,
            Pid::all(n).filter(|p| !ancient.contains(p)).collect(),
        ),
    };
    let arrivals = poisson_arrivals(
        n,
        params.throughput,
        horizon,
        &senders,
        derive_seed(seed, 0x40AD),
    );
    let run = Execution {
        params,
        seed,
        end,
        compiled: &compiled,
        arrivals: &arrivals,
        arrivals_first: probe.is_some(),
    }
    .run(alg);
    match probe {
        Some((probe_at, _)) => probe_run(run, probe_at),
        None => steady_run(run, &arrivals, &compiled, params, seed),
    }
}

/// The probe's payload: outside the dense workload payload space.
const PROBE: u64 = u64::MAX;

/// One simulation, fully specified: the run dimensions and backend,
/// the compiled fault script and the command stream. Every run of the
/// study — a figure's replication, a saturation probe, an explorer
/// tuple — executes through [`Execution::run`].
pub(crate) struct Execution<'a> {
    pub(crate) params: &'a RunParams,
    pub(crate) seed: u64,
    pub(crate) end: Time,
    pub(crate) compiled: &'a CompiledScript,
    pub(crate) arrivals: &'a [(Time, Pid, u64)],
    /// Schedule the arrivals before the script (probe runs) rather
    /// than after it. Same-time events run in scheduling order, so the
    /// order is part of the execution.
    pub(crate) arrivals_first: bool,
}

/// What one [`Execution`] produced.
pub(crate) struct Executed {
    pub(crate) outputs: Vec<(Time, Pid, AbcastEvent<u64>)>,
    pub(crate) net: NetStats,
    /// Whether the stack's [`Stack::quorum_collapsed`] hook fired for
    /// some live process at the end of the run (simulator only).
    pub(crate) quorum_collapsed: bool,
}

/// One protocol stack, built the same way with or without batching.
trait Stack {
    type Node<P: Payload + Send>: Process<Cmd = P, Out = AbcastEvent<P>, Msg: Send> + Send;

    fn node<P: Payload + Send>(&self, me: Pid, n: usize, initial: &SuspectSet) -> Self::Node<P>;

    /// Whether `node` ends the run wedged for a reason the algorithm's
    /// model permits, which waives the explorer's completeness bars.
    fn quorum_collapsed<P: Payload + Send>(
        &self,
        _node: &Self::Node<P>,
        _crashed: &dyn Fn(Pid) -> bool,
    ) -> bool {
        false
    }
}

/// The FD algorithm, with or without coordinator renumbering.
struct Fd {
    renumber: bool,
}

impl Stack for Fd {
    type Node<P: Payload + Send> = FdNode<P>;

    fn node<P: Payload + Send>(&self, me: Pid, n: usize, initial: &SuspectSet) -> FdNode<P> {
        let node = FdNode::new(me, n, initial);
        if self.renumber {
            node
        } else {
            node.without_renumbering()
        }
    }
}

/// The GM algorithm, uniform or not.
struct Gm(Uniformity);

impl Stack for Gm {
    type Node<P: Payload + Send> = GmNode<P>;

    fn node<P: Payload + Send>(&self, me: Pid, n: usize, initial: &SuspectSet) -> GmNode<P> {
        GmNode::with_uniformity(me, n, initial, self.0)
    }

    /// A live process wedged in a view change of a view that has lost
    /// its quorum: the view-change consensus runs among the closing
    /// view's members, so once wrong exclusions shrink the view and
    /// real crashes take half of what is left, no further view can
    /// ever install — the GM model's inherent primary-partition limit
    /// (the paper's Section 4.3 hazard), not an implementation bug.
    fn quorum_collapsed<P: Payload + Send>(
        &self,
        node: &GmNode<P>,
        crashed: &dyn Fn(Pid) -> bool,
    ) -> bool {
        let a = node.algorithm();
        let live = a.view().members().iter().filter(|m| !crashed(**m)).count();
        a.in_view_change() && live < a.view().majority()
    }
}

/// The ring contender.
struct Ring;

impl Stack for Ring {
    type Node<P: Payload + Send> = RingNode<P>;

    fn node<P: Payload + Send>(&self, me: Pid, n: usize, initial: &SuspectSet) -> RingNode<P> {
        RingNode::new(me, n, initial)
    }
}

impl Execution<'_> {
    /// Builds `alg`'s stack on the selected backend, runs it to `end`
    /// and returns what it produced.
    pub(crate) fn run(&self, alg: Algorithm) -> Executed {
        match alg {
            Algorithm::Fd => self.stack(Fd { renumber: true }),
            Algorithm::FdNoRenumber => self.stack(Fd { renumber: false }),
            Algorithm::Gm => self.stack(Gm(Uniformity::Uniform)),
            Algorithm::GmNonUniform => self.stack(Gm(Uniformity::NonUniform)),
            Algorithm::Ring => self.stack(Ring),
        }
    }

    /// With batching on, each node is wrapped in the [`Batched`] shell
    /// and the algorithm itself runs over whole packs; with batching
    /// off the node runs on bare payloads (bit-identically to the
    /// pre-batching code — the golden tests pin this).
    fn stack<S: Stack>(&self, stack: S) -> Executed {
        let n = self.params.n;
        let initial = self.compiled.initial_suspects();
        match self.params.batching {
            None => self.backend(
                |p| stack.node::<u64>(p, n, initial),
                |node, crashed| stack.quorum_collapsed(node, crashed),
            ),
            Some(cfg) => self.backend(
                |p| Batched::new(p, stack.node::<Pack<u64>>(p, n, initial), cfg),
                |node, crashed| stack.quorum_collapsed(node.inner(), crashed),
            ),
        }
    }

    fn backend<P>(
        &self,
        factory: impl FnMut(Pid) -> P,
        collapsed: impl Fn(&P, &dyn Fn(Pid) -> bool) -> bool,
    ) -> Executed
    where
        P: Process<Cmd = u64, Out = AbcastEvent<u64>, Msg: Send> + Send,
    {
        let (n, params) = (self.params.n, self.params);
        match params.backend {
            Backend::Sim => {
                let mut sim: Sim<P> = SimBuilder::new(n)
                    .seed(self.seed)
                    .network(params.net)
                    .schedule(params.schedule)
                    .build_with(factory);
                self.schedule(&mut sim);
                sim.run_until(self.end);
                let quorum_collapsed = Pid::all(n).any(|p| {
                    !sim.is_crashed(p) && collapsed(sim.process(p), &|m| sim.is_crashed(m))
                });
                Executed {
                    outputs: sim.take_outputs(),
                    net: sim.net_stats(),
                    quorum_collapsed,
                }
            }
            Backend::Real => {
                let mut rt = RealRuntime::new(n, self.seed, factory);
                self.schedule(&mut rt);
                rt.run_until(self.end);
                Executed {
                    outputs: rt.take_outputs(),
                    net: rt.net_stats(),
                    quorum_collapsed: false,
                }
            }
        }
    }

    /// Schedules the compiled script verbatim (injections as
    /// themselves, the probe as a marked command) and the arrivals,
    /// in the execution's order.
    fn schedule<P, R>(&self, rt: &mut R)
    where
        P: Process<Cmd = u64, Out = AbcastEvent<u64>>,
        R: Runtime<P>,
    {
        let arrivals = |rt: &mut R| {
            for &(t, p, payload) in self.arrivals {
                rt.schedule_command(t, p, payload);
            }
        };
        if self.arrivals_first {
            arrivals(rt);
        }
        for (t, act) in self.compiled.entries() {
            match act {
                ScriptAction::Inject(inj) => rt.schedule_injection(*t, inj.clone()),
                ScriptAction::Probe(b) => rt.schedule_command(*t, *b, PROBE),
            }
        }
        if !self.arrivals_first {
            arrivals(rt);
        }
    }
}

/// Steady-state measurement: Poisson workload over the whole
/// measurement window, latency averaged over every measured message.
fn steady_run(
    run: Executed,
    arrivals: &[(Time, Pid, u64)],
    compiled: &CompiledScript,
    params: &RunParams,
    seed: u64,
) -> SingleRun {
    // Payload = arrival index (see `poisson_arrivals`), so first
    // deliveries are kept by index and `arrivals` itself is the send
    // log, walked below in ascending payload order.
    let mut first_delivery: Vec<Option<Time>> = vec![None; arrivals.len()];
    for (t, _, ev) in run.outputs {
        let AbcastEvent::Delivered { payload, .. } = ev;
        if let Some(first @ None) = first_delivery.get_mut(payload as usize) {
            *first = Some(t);
        }
    }

    let w0 = Time::ZERO + params.warmup;
    let send_horizon = w0 + params.measure;
    // Both accumulators see every delivered latency: `lat` computes
    // the mean with Welford's recurrence — which MUST stay, because
    // the golden-equivalence tests pin the pre-refactor Welford bit
    // patterns and a sum/len mean can differ in the last ulp — while
    // `latencies` retains the samples for percentiles, bounded by the
    // deterministic reservoir so multi-minute runs cannot grow memory
    // without limit (exact below the cap, uniform subsample above).
    let mut lat = Running::new();
    let mut latencies = Reservoir::new(params.latency_cap, derive_seed(seed, 0x1A7E));
    let mut measured = 0u64;
    let mut undelivered = 0u64;
    for (&(sent, sender, _), first) in arrivals.iter().zip(&first_delivery) {
        if sent < w0 || sent >= send_horizon {
            continue;
        }
        // A broadcast attempted by a process that was down at the
        // send instant never entered the system: not a measurement.
        if compiled.is_down(sender, sent) {
            continue;
        }
        measured += 1;
        match first {
            Some(t) => {
                let l = (*t - sent).as_millis_f64();
                lat.push(l);
                latencies.push(l);
            }
            None => undelivered += 1,
        }
    }
    let saturated = saturation_exceeded(measured, undelivered, params.saturation_frac);
    SingleRun {
        mean_latency_ms: if saturated || lat.is_empty() {
            None
        } else {
            Some(lat.mean())
        },
        measured,
        undelivered,
        latencies: latencies.into_samples(),
        net: run.net,
    }
}

/// Probe measurement (the crash-transient methodology): background
/// load for the whole run, one marked broadcast whose latency is the
/// sample.
fn probe_run(run: Executed, probe_at: Time) -> SingleRun {
    let first = run.outputs.into_iter().find_map(|(t, _, ev)| {
        let AbcastEvent::Delivered { payload, .. } = ev;
        (payload == PROBE).then_some(t)
    });
    let lat = first.map(|t| (t - probe_at).as_millis_f64());
    SingleRun {
        mean_latency_ms: lat,
        measured: 1,
        undelivered: u64::from(first.is_none()),
        latencies: lat.into_iter().collect(),
        net: run.net,
    }
}

/// The paper's sustainability predicate: a run saturates when
/// *strictly more* than `frac × measured` messages were never
/// delivered (or when nothing was measured at all). Exactly at the
/// threshold the run still counts as sustained —
/// [`SingleRun::mean_latency_ms`] flips to `None` one message past
/// it, and [`crate::find_saturation`] brackets the knee against this
/// same predicate.
pub(crate) fn saturation_exceeded(measured: u64, undelivered: u64, frac: f64) -> bool {
    measured == 0 || (undelivered as f64) > frac * measured as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::ScriptTime;
    use fdet::QosParams;

    fn quick(n: usize, t: f64) -> RunParams {
        RunParams::new(n, t)
            .with_warmup(Dur::from_millis(200))
            .with_measure(Dur::from_secs(2))
            .with_drain(Dur::from_secs(1))
            .with_replications(2)
    }

    #[test]
    fn normal_steady_runs_both_algorithms() {
        for alg in Algorithm::PAPER {
            let out = run_replicated(alg, &FaultScript::normal_steady(), &quick(3, 50.0), 1);
            let lat = out.latency.expect("not saturated");
            assert!(
                lat.mean() > 5.0 && lat.mean() < 30.0,
                "{alg:?}: {}",
                lat.mean()
            );
            assert_eq!(out.saturated, 0);
        }
    }

    #[test]
    fn fd_and_gm_agree_in_normal_steady() {
        let p = quick(3, 100.0);
        let fd = run_replicated(Algorithm::Fd, &FaultScript::normal_steady(), &p, 2);
        let gm = run_replicated(Algorithm::Gm, &FaultScript::normal_steady(), &p, 2);
        let (f, g) = (fd.mean_latency_ms().unwrap(), gm.mean_latency_ms().unwrap());
        assert!(
            (f - g).abs() < 1e-9,
            "same workload, same seeds, identical patterns: fd={f} gm={g}"
        );
    }

    #[test]
    fn ring_matches_fd_in_normal_steady() {
        // The ring algorithm's steady state reuses the FD algorithm's
        // dissemination and ordering machinery; only the consensus
        // *values* shrink (ids instead of id+payload batches). The
        // cost model charges per message, not per byte, so the two
        // must produce bit-identical suspicion-free runs.
        let p = quick(3, 100.0);
        let fd = run_replicated(Algorithm::Fd, &FaultScript::normal_steady(), &p, 2);
        let ring = run_replicated(Algorithm::Ring, &FaultScript::normal_steady(), &p, 2);
        let (f, r) = (
            fd.mean_latency_ms().unwrap(),
            ring.mean_latency_ms().unwrap(),
        );
        assert!(
            (f - r).abs() < 1e-9,
            "same workload, same seeds, identical patterns: fd={f} ring={r}"
        );
    }

    #[test]
    fn crash_steady_is_faster_than_normal() {
        // Fewer senders → less load → lower latency (paper Fig. 5).
        let p = quick(3, 300.0);
        let normal = run_replicated(Algorithm::Fd, &FaultScript::normal_steady(), &p, 3)
            .mean_latency_ms()
            .expect("normal sustains");
        let crashed = run_replicated(
            Algorithm::Fd,
            &FaultScript::crash_steady(&[Pid::new(2)]),
            &p,
            3,
        )
        .mean_latency_ms()
        .expect("crash-steady sustains");
        assert!(crashed < normal, "crashed={crashed} normal={normal}");
    }

    #[test]
    fn every_topology_runs_both_algorithms() {
        use neko::WanParams;
        let models = [
            NetworkModel::SharedMedium,
            NetworkModel::Switched,
            NetworkModel::Wan(WanParams::default()),
        ];
        for model in models {
            for alg in Algorithm::PAPER {
                let p = quick(3, 50.0).with_network_model(model);
                assert_eq!(p.network_model(), model);
                let out = run_replicated(alg, &FaultScript::normal_steady(), &p, 9);
                let lat = out
                    .latency
                    .unwrap_or_else(|| panic!("{alg:?}/{model:?} saturated"));
                assert!(lat.mean() > 0.0, "{alg:?}/{model:?}: {}", lat.mean());
                // WAN pair latency (≥ 10 ms one way) dominates the
                // 1 ms-unit contention models at this light load.
                if matches!(model, NetworkModel::Wan(_)) {
                    assert!(lat.mean() > 20.0, "{alg:?}/{model:?}: {}", lat.mean());
                } else {
                    assert!(lat.mean() < 30.0, "{alg:?}/{model:?}: {}", lat.mean());
                }
            }
        }
    }

    #[test]
    fn topology_dimension_is_deterministic() {
        let p = quick(3, 80.0).with_network_model(NetworkModel::Switched);
        let a = run_replicated(Algorithm::Fd, &FaultScript::normal_steady(), &p, 7);
        let b = run_replicated(Algorithm::Fd, &FaultScript::normal_steady(), &p, 7);
        assert_eq!(a.mean_latency_ms(), b.mean_latency_ms());
    }

    #[test]
    fn oversaturated_run_reports_none() {
        // 5000 msg/s is far beyond the model's capacity.
        let p = quick(3, 5000.0).with_replications(1);
        let out = run_replicated(Algorithm::Fd, &FaultScript::normal_steady(), &p, 4);
        assert!(out.latency.is_none());
        assert!(out.messages.is_none());
        assert_eq!(out.saturated, 1);
    }

    #[test]
    fn crash_transient_latency_exceeds_detection_time() {
        let td = Dur::from_millis(50);
        let script = FaultScript::crash_transient(Pid::new(0), Pid::new(1), td);
        let p = quick(3, 20.0).with_drain(Dur::from_secs(2));
        for alg in Algorithm::PAPER {
            let out = run_replicated(alg, &script, &p, 5);
            let lat = out.latency.expect("probe delivered");
            assert!(
                lat.mean() >= td.as_millis_f64(),
                "{alg:?}: latency {} must exceed T_D {}",
                lat.mean(),
                td.as_millis_f64()
            );
            assert!(lat.mean() < 200.0, "{alg:?}: {}", lat.mean());
        }
    }

    #[test]
    fn suspicion_steady_with_rare_mistakes_matches_normal() {
        let qos = QosParams::new()
            .with_mistake_recurrence(Dur::from_secs(10_000))
            .with_mistake_duration(Dur::ZERO);
        let p = quick(3, 50.0);
        let normal =
            run_replicated(Algorithm::Gm, &FaultScript::normal_steady(), &p, 6).mean_latency_ms();
        let rare = run_replicated(Algorithm::Gm, &FaultScript::suspicion_steady(qos), &p, 6)
            .mean_latency_ms();
        assert_eq!(normal, rare, "no mistakes in the window ⇒ identical run");
    }

    #[test]
    fn message_percentiles_bracket_the_mean() {
        let out = run_replicated(
            Algorithm::Fd,
            &FaultScript::normal_steady(),
            &quick(3, 100.0),
            8,
        );
        let msgs = out.messages.as_ref().expect("sustained");
        let (p50, p99) = (msgs.p50().unwrap(), msgs.p99().unwrap());
        assert!(p50 <= p99, "p50={p50} p99={p99}");
        assert!(msgs.len() as u64 >= out.runs.iter().map(|r| r.measured).sum::<u64>() / 2);
        assert!(p99 >= out.mean_latency_ms().unwrap() * 0.5);
    }

    #[test]
    fn crash_recover_runs_end_to_end() {
        // p3 crashes mid-measurement and recovers; the group keeps
        // delivering throughout and the run must not saturate: the
        // recovered process's broadcasts count again.
        let script = FaultScript::crash_recover(
            Pid::new(2),
            Dur::from_millis(200),
            Dur::from_millis(600),
            Dur::from_millis(30),
        );
        for alg in Algorithm::PAPER {
            let out = run_replicated(alg, &script, &quick(3, 50.0), 11);
            let lat = out.latency.unwrap_or_else(|| panic!("{alg:?} saturated"));
            assert!(lat.mean() > 0.0, "{alg:?}: {}", lat.mean());
            assert_eq!(out.saturated, 0, "{alg:?}");
        }
    }

    #[test]
    fn crash_recover_excludes_downtime_broadcasts_from_measurement() {
        let script = FaultScript::crash_recover(
            Pid::new(2),
            Dur::from_millis(200),
            Dur::from_millis(600),
            Dur::from_millis(30),
        );
        let p = quick(3, 90.0);
        let down = run_replicated(Algorithm::Fd, &script, &p, 12);
        let up = run_replicated(Algorithm::Fd, &FaultScript::normal_steady(), &p, 12);
        let down_measured: u64 = down.runs.iter().map(|r| r.measured).sum();
        let up_measured: u64 = up.runs.iter().map(|r| r.measured).sum();
        assert!(
            down_measured < up_measured,
            "downtime broadcasts must not count: {down_measured} vs {up_measured}"
        );
    }

    #[test]
    fn healing_partition_runs_end_to_end() {
        // A minority process is cut off for a while; the majority
        // keeps delivering. Broadcasts by the isolated minority can
        // stay undelivered until the heal, so allow a generous
        // saturation margin.
        let script = FaultScript::healing_partition(
            vec![vec![Pid::new(0), Pid::new(1)], vec![Pid::new(2)]],
            Dur::from_millis(200),
            Dur::from_millis(500),
            Dur::from_millis(30),
        );
        let p = quick(3, 50.0)
            .with_drain(Dur::from_secs(2))
            .with_saturation_frac(0.5);
        for alg in Algorithm::PAPER {
            let out = run_replicated(alg, &script, &p, 13);
            let lat = out.latency.unwrap_or_else(|| panic!("{alg:?} saturated"));
            assert!(lat.mean() > 0.0, "{alg:?}: {}", lat.mean());
        }
    }

    #[test]
    fn churn_scenario_runs_end_to_end() {
        let script = FaultScript::default()
            .churn(
                ScriptTime::AfterWarmup(Dur::from_millis(100)),
                Pid::new(2),
                Dur::from_millis(300),
                Dur::from_millis(20),
            )
            .churn(
                ScriptTime::AfterWarmup(Dur::from_millis(800)),
                Pid::new(1),
                Dur::from_millis(300),
                Dur::from_millis(20),
            );
        let out = run_replicated(Algorithm::Fd, &script, &quick(3, 40.0), 14);
        assert!(out.latency.is_some(), "churn must be sustainable");
    }

    #[test]
    fn late_probe_gets_its_full_drain_window() {
        // Probe 1 s past warm-up with a 1 s drain: a fixed
        // warmup+drain horizon would end the run at the probe instant
        // and report every replication saturated.
        let script = FaultScript::default()
            .crash(
                ScriptTime::AfterWarmup(Dur::from_secs(1)),
                Pid::new(0),
                Dur::from_millis(30),
            )
            .with_probe(ScriptTime::AfterWarmup(Dur::from_secs(1)), Pid::new(1));
        let out = run_replicated(Algorithm::Fd, &script, &quick(3, 20.0), 15);
        let lat = out.latency.expect("late probe must still deliver");
        assert!(lat.mean() > 0.0);
        assert_eq!(out.saturated, 0);
    }

    #[test]
    fn saturation_predicate_is_strict_at_the_threshold() {
        // Binary-friendly numbers so `frac × measured` is exact:
        // 8 measured at frac 0.25 tolerates exactly 2 undelivered.
        assert!(
            !saturation_exceeded(8, 2, 0.25),
            "at the threshold: sustained"
        );
        assert!(saturation_exceeded(8, 3, 0.25), "one past: saturated");
        assert!(saturation_exceeded(0, 0, 0.25), "nothing measured");
        assert!(!saturation_exceeded(8, 0, 0.0), "zero tolerance, zero loss");
        assert!(saturation_exceeded(8, 1, 0.0), "zero tolerance, any loss");
    }

    #[test]
    fn mean_latency_flips_to_none_exactly_at_the_undelivered_threshold() {
        // A healing partition leaves some minority broadcasts
        // undelivered. Re-running the *same seeded run* with the
        // tolerance set just above / just below the observed
        // undelivered fraction must flip `mean_latency_ms` between
        // `Some` and `None` — the threshold is sharp.
        let script = FaultScript::healing_partition(
            vec![vec![Pid::new(0), Pid::new(1)], vec![Pid::new(2)]],
            Dur::from_millis(200),
            Dur::from_millis(500),
            Dur::from_millis(30),
        );
        let base = quick(3, 60.0)
            .with_replications(1)
            .with_drain(Dur::from_secs(2));
        let out = run_replicated(
            Algorithm::Fd,
            &script,
            &base.clone().with_saturation_frac(1.0),
            13,
        );
        let (m, u) = (out.runs[0].measured, out.runs[0].undelivered);
        assert!(u > 0, "scenario must leave something undelivered");
        assert!(m > u);
        let frac_above = (u as f64 + 0.5) / m as f64;
        let frac_below = (u as f64 - 0.5) / m as f64;
        let sustained = run_replicated(
            Algorithm::Fd,
            &script,
            &base.clone().with_saturation_frac(frac_above),
            13,
        );
        assert!(sustained.runs[0].mean_latency_ms.is_some());
        assert_eq!(sustained.runs[0].undelivered, u, "same seeded run");
        let saturated = run_replicated(
            Algorithm::Fd,
            &script,
            &base.with_saturation_frac(frac_below),
            13,
        );
        assert!(saturated.runs[0].mean_latency_ms.is_none());
        assert!(saturated.mean_latency_ms().is_none(), "aggregate follows");
    }

    #[test]
    fn batching_sustains_loads_that_saturate_unbatched() {
        use abcast::BatchConfig;
        // 2000/s is nearly 3× the unbatched knee (~700/s on the
        // shared medium). With ~10 payloads per pack the wire cost
        // per payload collapses and the same load sustains.
        let p = quick(3, 2000.0).with_replications(2);
        for alg in Algorithm::PAPER {
            let unbatched = run_replicated(alg, &FaultScript::normal_steady(), &p, 21);
            assert!(
                unbatched.latency.is_none(),
                "{alg:?}: 2000/s must saturate the unbatched stack"
            );
            let batched = run_replicated(
                alg,
                &FaultScript::normal_steady(),
                &p.clone()
                    .with_batching(BatchConfig::new(32, Dur::from_millis(10))),
                21,
            );
            let lat = batched
                .latency
                .as_ref()
                .unwrap_or_else(|| panic!("{alg:?}: the same load must sustain with batching"));
            assert!(lat.mean() > 0.0);
            assert_eq!(
                batched.runs[0].measured, unbatched.runs[0].measured,
                "the workload is identical; only the transport changed"
            );
            let wire = |o: &RunOutput| o.runs.iter().map(|r| r.net.wire_messages).sum::<u64>();
            assert!(
                wire(&batched) < wire(&unbatched),
                "{alg:?}: packs must cut wire traffic: {} vs {}",
                wire(&batched),
                wire(&unbatched)
            );
        }
    }

    #[test]
    fn batching_knob_round_trips_and_defaults_off() {
        use abcast::BatchConfig;
        let p = quick(3, 100.0);
        assert_eq!(p.batching(), None);
        let cfg = BatchConfig::new(4, Dur::from_millis(1));
        let p = p.with_batching(cfg);
        assert_eq!(p.batching(), Some(cfg));
    }

    #[test]
    fn latency_sample_cap_bounds_retained_samples() {
        let p = quick(3, 200.0).with_latency_sample_cap(32);
        let out = run_replicated(Algorithm::Fd, &FaultScript::normal_steady(), &p, 16);
        let lat = out.latency.expect("sustained");
        for run in &out.runs {
            assert!(run.latencies.len() <= 32, "{}", run.latencies.len());
            assert!(run.measured > 32, "cap must actually bite");
        }
        // The mean comes from the Welford accumulator over *all*
        // samples — capping retention must not move it.
        let uncapped = run_replicated(
            Algorithm::Fd,
            &FaultScript::normal_steady(),
            &quick(3, 200.0),
            16,
        );
        assert_eq!(
            lat.mean().to_bits(),
            uncapped.latency.unwrap().mean().to_bits()
        );
        // Capped percentiles stay inside the observed range.
        let msgs = out.messages.expect("pooled reservoir samples");
        let all = uncapped.messages.unwrap();
        assert!(msgs.p50().unwrap() >= all.percentile(1.0).unwrap());
        assert!(msgs.p50().unwrap() <= all.percentile(100.0).unwrap());
    }

    #[test]
    fn capped_runs_stay_deterministic_across_worker_counts() {
        let p = quick(3, 150.0)
            .with_latency_sample_cap(16)
            .with_replications(2);
        let points = vec![SweepPoint::new(
            Algorithm::Gm,
            FaultScript::normal_steady(),
            p,
            77,
        )];
        let serial = run_sweep_with_workers(&points, 1);
        let fanned = run_sweep_with_workers(&points, 4);
        let bits = |o: &RunOutput| {
            o.runs
                .iter()
                .flat_map(|r| r.latencies.iter().map(|l| l.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&serial[0]), bits(&fanned[0]));
    }

    #[test]
    fn real_backend_runs_normal_steady() {
        // A short wall-clock run: ~0.9 s. The real backend must
        // sustain the load and report meaningful stats.
        let p = RunParams::new(3, 60.0)
            .with_warmup(Dur::from_millis(150))
            .with_measure(Dur::from_millis(400))
            .with_drain(Dur::from_millis(300))
            .with_replications(1)
            .with_backend(Backend::Real);
        assert_eq!(p.backend(), Backend::Real);
        let out = run_replicated(Algorithm::Fd, &FaultScript::normal_steady(), &p, 5);
        let lat = out.latency.expect("real backend must sustain 60 msg/s");
        assert!(lat.mean() > 0.0);
        assert_eq!(out.saturated, 0);
        let run = &out.runs[0];
        assert!(run.measured > 0);
        assert!(run.net.wire_messages > 0);
        assert!(run.net.cpu_busy > Dur::ZERO);
    }

    #[test]
    fn schedule_knob_round_trips_and_permuted_runs_are_deterministic() {
        use neko::Schedule;
        let p = quick(3, 80.0);
        assert_eq!(p.schedule(), Schedule::Fifo);
        let p = p.with_schedule(Schedule::SeededRandom(5));
        assert_eq!(p.schedule(), Schedule::SeededRandom(5));
        let a = run_replicated(Algorithm::Fd, &FaultScript::normal_steady(), &p, 7);
        let b = run_replicated(Algorithm::Fd, &FaultScript::normal_steady(), &p, 7);
        assert_eq!(
            a.mean_latency_ms().map(f64::to_bits),
            b.mean_latency_ms().map(f64::to_bits),
            "a permuted schedule is still a pure function of its seed"
        );
    }

    #[test]
    fn sweep_is_deterministic_across_worker_counts() {
        let p = quick(3, 70.0).with_replications(3);
        let points = vec![
            SweepPoint::new(Algorithm::Fd, FaultScript::normal_steady(), p.clone(), 31),
            SweepPoint::new(Algorithm::Gm, FaultScript::normal_steady(), p, 32),
        ];
        let serial = run_sweep_with_workers(&points, 1);
        let fanned = run_sweep_with_workers(&points, 4);
        for (a, b) in serial.iter().zip(&fanned) {
            let bits = |o: &RunOutput| {
                o.runs
                    .iter()
                    .map(|r| r.mean_latency_ms.map(f64::to_bits))
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(a), bits(b), "scheduling leaked into the results");
        }
    }

    #[test]
    fn sweep_matches_individual_runs_in_order() {
        let p = quick(3, 60.0);
        let points = vec![
            SweepPoint::new(Algorithm::Fd, FaultScript::normal_steady(), p.clone(), 21),
            SweepPoint::new(
                Algorithm::Gm,
                FaultScript::crash_steady(&[Pid::new(2)]),
                p.clone(),
                22,
            ),
            SweepPoint::new(Algorithm::Fd, FaultScript::normal_steady(), p.clone(), 23),
        ];
        let swept = run_sweep(&points);
        assert_eq!(swept.len(), 3);
        for (point, out) in points.iter().zip(&swept) {
            let solo = run_replicated(point.alg, &point.script, &point.params, point.seed);
            assert_eq!(solo.mean_latency_ms(), out.mean_latency_ms());
            assert_eq!(solo.saturated, out.saturated);
        }
    }
}
