//! Adversarial schedule exploration: seeded fuzzing of the space the
//! fixed benchmarks never visit.
//!
//! The golden scenarios and proptests all run under the simulator's
//! default FIFO tie-break, so they exercise exactly *one* interleaving
//! per seed — ties between simultaneous deliveries, a timer racing a
//! message, a crash racing a command always resolve the same way. The
//! [`Explorer`] drives the same protocol stacks through
//! deterministically *permuted* schedules ([`neko::Schedule`]) while
//! fuzzing the fault script, the algorithm, the group size and the
//! network topology, and judges every run with the shared
//! [`crate::oracle`]: uniform agreement, total order, integrity, and
//! validity within a bounded quiescence deadline.
//!
//! One fuzz case is a [`Tuple`] — everything needed to reproduce a
//! run bit-for-bit. When a tuple fails the oracle, the explorer
//! **shrinks** it: events are greedily dropped from the fault script
//! and event times halved toward zero, re-searching a small budget of
//! schedule seeds whenever a mutation loses the failure, until no
//! smaller script still fails. The result is a [`Repro`] whose
//! [`replay`](Repro::replay) re-runs the minimal failing tuple in one
//! call — same tuple, same verdict, every time.
//!
//! ```
//! use study::explore::{run_tuple, Explorer, Verdict};
//!
//! let explorer = Explorer::new(42).with_budget(8);
//! let outcome = explorer.explore();
//! assert!(outcome.repro.is_none(), "all three stacks survive 24 tuples");
//! // Every examined tuple can be regenerated and replayed on its own.
//! let t = explorer.tuple(study::Algorithm::Fd, 3);
//! assert!(matches!(run_tuple(&t), Verdict::Pass { .. }));
//! ```

use std::collections::BTreeSet;
use std::fmt;

use fdet::QosParams;
use neko::{derive_seed, stream_rng, DestSet, Dur, NetworkModel, Pid, Schedule, Time};
use rand::RngCore;

use crate::oracle::{self, Expectations, Violation};
use crate::runner::{parallel_map, sweep_workers, Algorithm, Execution, RunParams};
use crate::script::{CompiledScript, FaultEvent, FaultScript, ScriptAction, ScriptTime};
use crate::workload::poisson_arrivals;

/// One fuzz case: everything that determines a run, so a stored tuple
/// replays bit-identically.
#[derive(Clone, Debug, PartialEq)]
pub struct Tuple {
    /// The algorithm under test. Only uniform variants are judged
    /// soundly: the oracle's total-order check holds every process's
    /// log to the common prefix, which non-uniform GM deliberately
    /// relaxes, so [`Explorer::with_algorithms`] rejects
    /// [`Algorithm::GmNonUniform`].
    pub alg: Algorithm,
    /// Group size.
    pub n: usize,
    /// Network topology.
    pub topology: NetworkModel,
    /// Same-time tie-break policy.
    pub schedule: Schedule,
    /// The fault script (absolute [`ScriptTime::At`] anchors).
    pub script: FaultScript,
    /// Master seed of the simulation and the workload.
    pub seed: u64,
    /// Overall Poisson broadcast rate (1/s).
    pub throughput: f64,
    /// Broadcasts stop here.
    pub horizon: Dur,
    /// Extra time for the system to quiesce; the oracle's deadline is
    /// `horizon + drain`.
    pub drain: Dur,
}

/// The oracle's judgement of one tuple.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// No invariant was violated; `delivered` is the length of the
    /// longest delivery log (how much the run actually exercised).
    Pass {
        /// Deliveries in the longest log.
        delivered: usize,
    },
    /// The first invariant breach the oracle found.
    Fail(Violation),
}

impl Verdict {
    /// The violation, if the verdict is a failure.
    pub fn violation(&self) -> Option<&Violation> {
        match self {
            Verdict::Pass { .. } => None,
            Verdict::Fail(v) => Some(v),
        }
    }
}

/// A minimal, deterministic reproduction of an invariant violation.
#[derive(Clone, Debug)]
pub struct Repro {
    /// The shrunk tuple: [`run_tuple`] on it yields `violation`.
    pub tuple: Tuple,
    /// The violation the shrunk tuple reproduces.
    pub violation: Violation,
    /// The originally-found (unshrunk) failing tuple, for reference.
    pub found: Tuple,
}

impl Repro {
    /// Re-runs the shrunk tuple; deterministic — the same tuple
    /// always returns the same verdict.
    pub fn replay(&self) -> Verdict {
        run_tuple(&self.tuple)
    }
}

impl fmt::Display for Repro {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "violation: {}", self.violation)?;
        writeln!(
            f,
            "tuple: {:?} n={} {:?} schedule={:?} seed={:#x} T={}/s horizon={} drain={}",
            self.tuple.alg,
            self.tuple.n,
            self.tuple.topology,
            self.tuple.schedule,
            self.tuple.seed,
            self.tuple.throughput,
            self.tuple.horizon,
            self.tuple.drain,
        )?;
        writeln!(
            f,
            "script ({} events, shrunk from {}):",
            self.tuple.script.events().len(),
            self.found.script.events().len(),
        )?;
        for ev in self.tuple.script.events() {
            writeln!(f, "  {ev:?}")?;
        }
        Ok(())
    }
}

/// Outcome of one exploration.
#[derive(Clone, Debug)]
pub struct Exploration {
    /// Tuples examined (all of them on a clean run; up to and
    /// including the first failure otherwise).
    pub examined: usize,
    /// The shrunk first failure, if any.
    pub repro: Option<Repro>,
}

/// The fuzzing driver: generates [`Tuple`]s deterministically from a
/// master seed, runs them on the sweep worker pool, and shrinks the
/// first failure.
#[derive(Clone, Debug)]
pub struct Explorer {
    seed: u64,
    budget: usize,
    algorithms: Vec<Algorithm>,
    group_sizes: (usize, usize),
    /// Size of the occasional large-group tuple (every 16th index),
    /// exercising the multi-word destination masks; `None` disables
    /// the class.
    large_group: Option<usize>,
    throughput: f64,
    horizon: Dur,
    drain: Dur,
    workers: Option<usize>,
}

/// The topologies small tuples draw from.
const TOPOLOGIES: [NetworkModel; 2] = [NetworkModel::SharedMedium, NetworkModel::Switched];

/// How many alternative schedule seeds the shrinker re-searches when a
/// mutation loses the failure.
const RESEED_BUDGET: u64 = 6;

impl Explorer {
    /// An explorer with the documented default budget: 1000 tuples
    /// per study algorithm (the paper's two plus the ring contender),
    /// groups of 3–5 on the shared-medium and switched topologies
    /// (every 16th tuple a 64-process group on the switched fabric),
    /// ~80 broadcasts/s over a 1.2 s horizon with a 2.5 s quiescence
    /// deadline.
    pub fn new(seed: u64) -> Self {
        Explorer {
            seed,
            budget: 1000,
            algorithms: Algorithm::STUDY.to_vec(),
            group_sizes: (3, 5),
            large_group: Some(64),
            throughput: 80.0,
            horizon: Dur::from_millis(1_200),
            drain: Dur::from_millis(2_500),
            workers: None,
        }
    }

    /// Sets the number of tuples explored per algorithm.
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }

    /// Restricts the algorithms explored (uniform variants only).
    ///
    /// # Panics
    ///
    /// Panics if `algorithms` is empty or names
    /// [`Algorithm::GmNonUniform`], whose relaxed delivery the
    /// uniform oracle would report as a total-order violation.
    pub fn with_algorithms(mut self, algorithms: &[Algorithm]) -> Self {
        assert!(!algorithms.is_empty(), "need at least one algorithm");
        assert!(
            !algorithms.contains(&Algorithm::GmNonUniform),
            "the oracle judges uniform variants only"
        );
        self.algorithms = algorithms.to_vec();
        self
    }

    /// Sets the inclusive range of group sizes drawn from (up to
    /// [`neko::MAX_PROCESSES`] since the destination mask went
    /// multi-word).
    pub fn with_group_sizes(mut self, lo: usize, hi: usize) -> Self {
        assert!(
            (1..=neko::MAX_PROCESSES).contains(&lo) && lo <= hi && hi <= neko::MAX_PROCESSES,
            "bad range"
        );
        self.group_sizes = (lo, hi);
        self
    }

    /// Sets (or, with `None`, disables) the large-group tuple class:
    /// every 16th tuple runs `n` processes on the switched topology.
    pub fn with_large_group(mut self, n: Option<usize>) -> Self {
        if let Some(n) = n {
            assert!((2..=neko::MAX_PROCESSES).contains(&n), "bad group size");
        }
        self.large_group = n;
        self
    }

    /// Sets the workload rate (1/s).
    pub fn with_throughput(mut self, t: f64) -> Self {
        assert!(t.is_finite() && t > 0.0, "rate must be positive");
        self.throughput = t;
        self
    }

    /// Overrides the worker-thread count (default: the sweep pool's,
    /// i.e. one per core or `STUDY_SWEEP_THREADS`).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// The deterministic tuple at `index` for `alg` — the same
    /// `(seed, alg, index)` always generates the same tuple, so any
    /// examined case can be regenerated without storing it.
    pub fn tuple(&self, alg: Algorithm, index: usize) -> Tuple {
        let tseed = derive_seed(derive_seed(self.seed, alg_tag(alg)), index as u64);
        let mut rng = stream_rng(tseed, 0xEC5E);
        if let Some(large_n) = self.large_group {
            if index % 16 == 11 {
                return self.large_tuple(alg, large_n, tseed, &mut rng);
            }
        }
        let (lo, hi) = self.group_sizes;
        let n = lo + (rng.next_u64() as usize) % (hi - lo + 1);
        let minority = (n - 1) / 2;
        let topology = TOPOLOGIES[(rng.next_u64() as usize) % TOPOLOGIES.len()];
        let schedule = schedule(index as u64 % 8, tseed, &mut rng);
        let horizon_ms = self.horizon.as_micros() / 1_000;
        let mut script = FaultScript::default();
        if rng.next_u64().is_multiple_of(2) {
            // Mistake recurrence stays at or above 250 ms — already
            // far harsher than the paper's suspicion-steady regime
            // (T_MR ≥ 500 ms). Below that, wrong exclusions churn
            // views faster than laggards can cross them, a region
            // where GM's flush/rejoin protocol is known to still
            // diverge (see ROADMAP open items); the explorer found
            // and drove the fixes for everything at this level and
            // above.
            let qos = QosParams::new()
                .with_mistake_recurrence(Dur::from_millis(250 + rng.next_u64() % 700))
                .with_mistake_duration(Dur::from_millis(rng.next_u64() % 30));
            script = script.suspicion_burst(
                ScriptTime::At(Time::ZERO),
                ScriptTime::At(Time::from_millis(horizon_ms)),
                qos,
                None,
            );
        }
        // Up to `minority` fault slots, each hitting a distinct
        // process from the top of the pid range (so the union of
        // crashed and cut-off processes never exceeds a minority and
        // a connected majority quorum always survives).
        let slots = ((rng.next_u64() % 3) as usize).min(minority);
        let mut partitioned = false;
        for i in 0..slots {
            let victim = Pid::new(n - 1 - i);
            let at_ms = horizon_ms / 8 + rng.next_u64() % (horizon_ms / 2);
            let at = ScriptTime::At(Time::from_millis(at_ms));
            let detection = Dur::from_millis(10 + rng.next_u64() % 30);
            match rng.next_u64() % 3 {
                0 => script = script.crash(at, victim, detection),
                1 => {
                    script = script.churn(
                        at,
                        victim,
                        Dur::from_millis(100 + rng.next_u64() % 300),
                        detection,
                    );
                }
                _ if !partitioned => {
                    partitioned = true;
                    let cut = 1 + (rng.next_u64() as usize) % minority;
                    let cut_off: Vec<Pid> = (0..cut).map(|j| Pid::new(n - 1 - j)).collect();
                    let majority: Vec<Pid> = Pid::all(n).filter(|p| !cut_off.contains(p)).collect();
                    let heal_ms = at_ms + 150 + rng.next_u64() % 250;
                    script = script.partition(
                        at,
                        vec![majority, cut_off],
                        Some(ScriptTime::At(Time::from_millis(heal_ms))),
                        detection,
                    );
                }
                _ => script = script.crash(at, victim, detection),
            }
        }
        Tuple {
            alg,
            n,
            topology,
            schedule,
            script,
            seed: derive_seed(tseed, 3),
            throughput: self.throughput,
            horizon: self.horizon,
            drain: self.drain,
        }
    }

    /// The large-group tuple class: `n` processes on the switched
    /// fabric (shared-medium contention at this scale starves the
    /// drain window), same schedule-policy mix as the main corpus,
    /// and at most one crash — the class exists to push traffic
    /// through the multi-word destination masks under adversarial
    /// schedules, not to churn 64-member views.
    fn large_tuple(&self, alg: Algorithm, n: usize, tseed: u64, rng: &mut impl RngCore) -> Tuple {
        // Picked from the tuple's own stream rather than `index % 8`:
        // large indices share a residue class mod 8, which would pin
        // the whole class to one policy.
        let pick = rng.next_u64() % 8;
        let schedule = schedule(pick, tseed, rng);
        let horizon_ms = self.horizon.as_micros() / 1_000;
        let mut script = FaultScript::default();
        if rng.next_u64().is_multiple_of(2) {
            let victim = Pid::new(n - 1);
            let at_ms = horizon_ms / 8 + rng.next_u64() % (horizon_ms / 2);
            let detection = Dur::from_millis(10 + rng.next_u64() % 30);
            script = script.crash(ScriptTime::At(Time::from_millis(at_ms)), victim, detection);
        }
        Tuple {
            alg,
            n,
            topology: NetworkModel::Switched,
            schedule,
            script,
            seed: derive_seed(tseed, 3),
            // The aggregate rate is scaled down so the *per-process*
            // load matches the small corpus — at the full 80/s a
            // 64-way fan-out saturates every CPU and the backlog
            // outlives the drain window, reporting overload as a
            // (bogus) liveness violation.
            throughput: self.throughput * 6.0 / n as f64,
            horizon: self.horizon,
            drain: self.drain,
        }
    }

    /// Runs the whole budget on the worker pool, stopping at the
    /// first tuple (in generation order — scheduling never changes
    /// which one) that violates the oracle, and shrinks it.
    pub fn explore(&self) -> Exploration {
        let workers = self.workers.unwrap_or_else(sweep_workers);
        let tuples: Vec<Tuple> = self
            .algorithms
            .iter()
            .flat_map(|&alg| (0..self.budget).map(move |i| (alg, i)))
            .map(|(alg, i)| self.tuple(alg, i))
            .collect();
        let chunk = (workers * 4).max(16);
        let mut examined = 0;
        for batch in tuples.chunks(chunk) {
            let verdicts = parallel_map(batch, workers, run_tuple);
            for (tuple, verdict) in batch.iter().zip(&verdicts) {
                examined += 1;
                if let Verdict::Fail(violation) = verdict {
                    let repro = self.shrink(tuple.clone(), violation.clone());
                    return Exploration {
                        examined,
                        repro: Some(repro),
                    };
                }
            }
        }
        Exploration {
            examined,
            repro: None,
        }
    }

    /// Deterministically minimizes a failing tuple: greedily drop
    /// fault-script events, then halve event times toward zero,
    /// re-searching schedule seeds whenever a mutation loses the
    /// failure.
    fn shrink(&self, mut tuple: Tuple, mut violation: Violation) -> Repro {
        let found = tuple.clone();
        // Pass 1: drop whole events until no single drop still fails.
        loop {
            let events = tuple.script.events().to_vec();
            let dropped = (0..events.len()).rev().find_map(|i| {
                let mut kept = events.clone();
                kept.remove(i);
                let candidate = rebuild(&kept, &tuple.script);
                self.still_fails(&tuple, candidate)
            });
            match dropped {
                Some((shrunk, schedule, v)) => {
                    tuple.script = shrunk;
                    tuple.schedule = schedule;
                    violation = v;
                }
                None => break,
            }
        }
        // Pass 2: halve every absolute event time while the failure
        // persists (smaller times make the repro quicker to read and
        // to replay).
        loop {
            let events = tuple.script.events().to_vec();
            let mut improved = false;
            for i in 0..events.len() {
                let mut halved = events.clone();
                if !halve_times(&mut halved[i]) {
                    continue;
                }
                let candidate = rebuild(&halved, &tuple.script);
                if let Some((shrunk, schedule, v)) = self.still_fails(&tuple, candidate) {
                    tuple.script = shrunk;
                    tuple.schedule = schedule;
                    violation = v;
                    improved = true;
                    break;
                }
            }
            if !improved {
                break;
            }
        }
        Repro {
            tuple,
            violation,
            found,
        }
    }

    /// Does the mutated script still fail — under the tuple's current
    /// schedule, or (re-searching) under FIFO or a small budget of
    /// fresh schedule seeds? Returns the first failing combination.
    fn still_fails(
        &self,
        base: &Tuple,
        script: FaultScript,
    ) -> Option<(FaultScript, Schedule, Violation)> {
        let mut candidate = base.clone();
        candidate.script = script;
        let reseed = derive_seed(base.seed, 0x5EED);
        let schedules = std::iter::once(base.schedule)
            .chain(std::iter::once(Schedule::Fifo))
            .chain((0..RESEED_BUDGET).map(|j| Schedule::SeededRandom(derive_seed(reseed, j))));
        for schedule in schedules {
            candidate.schedule = schedule;
            if let Verdict::Fail(v) = run_tuple(&candidate) {
                return Some((candidate.script, schedule, v));
            }
        }
        None
    }
}

/// Rebuilds a script from an event list, keeping the original's probe
/// (generated scripts have none, but keep the function total).
fn rebuild(events: &[FaultEvent], original: &FaultScript) -> FaultScript {
    debug_assert!(!original.has_probe(), "explorer scripts carry no probe");
    events
        .iter()
        .cloned()
        .fold(FaultScript::default(), FaultScript::event)
}

/// Halves every non-zero absolute time anchor inside one event;
/// returns whether anything changed.
fn halve_times(ev: &mut FaultEvent) -> bool {
    let halve = |st: &mut ScriptTime| -> bool {
        if let ScriptTime::At(t) = st {
            let ms = t.as_micros() / 1_000;
            if ms > 0 {
                *st = ScriptTime::At(Time::from_millis(ms / 2));
                return true;
            }
        }
        false
    };
    match ev {
        FaultEvent::Crash { at, .. }
        | FaultEvent::Recover { at, .. }
        | FaultEvent::Churn { at, .. } => halve(at),
        FaultEvent::SuspicionBurst { from, until, .. } => {
            // Keep the window non-empty: halve only the start.
            let _ = until;
            halve(from)
        }
        FaultEvent::Partition { at, heal_at, .. } => {
            let a = halve(at);
            let b = heal_at.as_mut().is_some_and(halve);
            a || b
        }
    }
}

/// Runs one tuple and judges it with the oracle. Pure: the same tuple
/// always produces the same verdict (the simulation, the workload and
/// the schedule policy are all functions of the tuple's seeds).
pub fn run_tuple(t: &Tuple) -> Verdict {
    let params = RunParams::new(t.n, t.throughput)
        .with_warmup(Dur::ZERO)
        .with_measure(t.horizon)
        .with_drain(t.drain)
        .with_network_model(t.topology)
        .with_schedule(t.schedule);
    let end = Time::ZERO + t.horizon + t.drain;
    let compiled = t.script.compile(t.n, Dur::ZERO, end, t.seed);
    let senders: Vec<Pid> = Pid::all(t.n).collect();
    let arrivals = poisson_arrivals(
        t.n,
        t.throughput,
        Time::ZERO + t.horizon,
        &senders,
        derive_seed(t.seed, 0xE791),
    );
    let run = Execution {
        params: &params,
        seed: t.seed,
        end,
        compiled: &compiled,
        arrivals: &arrivals,
        arrivals_first: false,
    }
    .run(t.alg);
    let logs = oracle::delivery_logs(t.n, run.outputs);
    let mut exp = expectations(t, &compiled, &arrivals);
    // A stack wedged for a reason its model permits (GM's lost view
    // quorum) still owes safety, which is still checked; the
    // completeness deadline is waived.
    if run.quorum_collapsed {
        exp.must_deliver.clear();
        exp.correct.clear();
    }
    match oracle::check(&logs, &exp) {
        Ok(()) => Verdict::Pass {
            delivered: logs.iter().map(Vec::len).max().unwrap_or(0),
        },
        Err(v) => Verdict::Fail(v),
    }
}

/// Safety margin around a partition window: a message emitted this
/// close to the cut may still be queued at the sending CPU when the
/// cut lands (and one emitted this close to the heal may race it), so
/// its delivery is excused rather than guaranteed.
const PARTITION_MARGIN: Dur = Dur::from_millis(200);

/// Derives what the run owed from its compiled script and workload:
/// which payloads could enter the system, which must have been
/// delivered, and which processes are held to the completeness bars.
fn expectations(
    t: &Tuple,
    compiled: &CompiledScript,
    arrivals: &[(Time, Pid, u64)],
) -> Expectations {
    let n = t.n;
    // Partition windows, widened by the safety margin.
    let mut windows: Vec<(Time, Time)> = Vec::new();
    let mut open: Option<Time> = None;
    let end = Time::ZERO + t.horizon + t.drain;
    for (at, act) in compiled.entries() {
        match act {
            ScriptAction::Inject(neko::Injection::Partition(_)) => {
                open.get_or_insert(*at);
            }
            ScriptAction::Inject(neko::Injection::Heal) => {
                if let Some(from) = open.take() {
                    windows.push((from, *at));
                }
            }
            _ => {}
        }
    }
    if let Some(from) = open {
        windows.push((from, end));
    }
    let partitioned = |at: Time| {
        windows.iter().any(|(cut, heal)| {
            let from =
                Time::from_micros(cut.as_micros().saturating_sub(PARTITION_MARGIN.as_micros()));
            at >= from && at < *heal + PARTITION_MARGIN
        })
    };
    // Processes cut off from the largest partition group. A DestSet
    // (multi-word mask) keeps the bookkeeping valid past 64 processes.
    let mut minority = DestSet::new();
    for ev in t.script.events() {
        if let FaultEvent::Partition { groups, .. } = ev {
            let largest = groups.iter().map(Vec::len).max().unwrap_or(0);
            for group in groups.iter().filter(|g| g.len() < largest) {
                for p in group {
                    minority.insert(*p);
                }
            }
        }
    }
    // Processes that were ever *effectively* suspected (read from the
    // compiled FD edges): the GM algorithm excludes such a process
    // from the view, and any payload it A-broadcasts from the first
    // suspicion until its rejoin completes can be legitimately
    // dropped — the paper's suspicion-steady measurements tolerate
    // exactly this loss as `undelivered`. The rejoin happens lazily
    // (the ex-member discovers its exclusion only through its own
    // traffic), so no time bound on the exclusion is sound; an
    // ever-suspected sender's broadcasts stay in `sent` but are not
    // guaranteed. Edges whose observer cannot carry a view change —
    // it is down, or itself cut off in a partition minority — do not
    // endanger the subject and are ignored.
    let mut ever_suspected = DestSet::new();
    for (at, act) in compiled.entries() {
        if let ScriptAction::Inject(neko::Injection::Fd(q, neko::FdEvent::Suspect(p))) = act {
            let observer_down = compiled.is_down(*q, *at);
            let observer_cut = minority.contains(*q) && partitioned(*at);
            if !observer_down && !observer_cut {
                ever_suspected.insert(*p);
            }
        }
    }

    let mut sent = BTreeSet::new();
    let mut must_deliver = BTreeSet::new();
    for &(at, p, v) in arrivals {
        sent.insert(v);
        // A broadcast is guaranteed only when its sender was clearly
        // up (strictly outside every down interval and not at a
        // crash/recover boundary, where a permuted tie may drop the
        // command), never under suspicion, and the network was
        // clearly whole.
        let down_or_boundary = compiled.is_down(p, at)
            || compiled
                .down_intervals()
                .get(p.index())
                .is_some_and(|down| down.iter().any(|&(_, until)| until == Some(at)));
        if !down_or_boundary && !partitioned(at) && !ever_suspected.contains(p) {
            must_deliver.insert(v);
        }
    }

    // Correct = never crashed, never cut off from the largest
    // partition group, and never effectively suspected. A recovering
    // or rejoining process may still be catching up when the run ends
    // — and a process wrongly excluded *after its last broadcast
    // attempt* never learns of the exclusion at all, so no deadline
    // applies to it (the pre-existing proptests hold the same line:
    // only never-disturbed processes owe full logs).
    let mut excluded = ever_suspected;
    for p in minority.iter() {
        excluded.insert(p);
    }
    for (i, intervals) in compiled.down_intervals().iter().enumerate() {
        if !intervals.is_empty() {
            excluded.insert(Pid::new(i));
        }
    }
    let correct = Pid::all(n).filter(|&p| !excluded.contains(p)).collect();
    Expectations {
        sent,
        must_deliver,
        correct,
    }
}

/// The schedule policy of residue `pick` (mod 8) for the tuple seeded
/// `tseed`: one FIFO baseline in every eight; the rest split between
/// uniform tie permutation and PCT-style demotion, whose change period
/// is the next draw from `rng`.
fn schedule(pick: u64, tseed: u64, rng: &mut impl RngCore) -> Schedule {
    match pick {
        0 => Schedule::Fifo,
        1..=5 => Schedule::SeededRandom(derive_seed(tseed, 1)),
        _ => Schedule::Pct {
            seed: derive_seed(tseed, 2),
            change_period: 3 + (rng.next_u64() % 14) as u32,
        },
    }
}

fn alg_tag(alg: Algorithm) -> u64 {
    match alg {
        Algorithm::Fd => 0xA1,
        Algorithm::FdNoRenumber => 0xA2,
        Algorithm::Gm => 0xA3,
        Algorithm::GmNonUniform => 0xA4,
        Algorithm::Ring => 0xA5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_explorer(seed: u64) -> Explorer {
        Explorer::new(seed)
            .with_budget(12)
            .with_group_sizes(3, 4)
            .with_throughput(60.0)
    }

    #[test]
    fn tuple_generation_is_deterministic_and_varied() {
        let e = quick_explorer(7);
        for alg in Algorithm::PAPER {
            for i in 0..12 {
                assert_eq!(e.tuple(alg, i), e.tuple(alg, i), "tuple {alg:?}/{i}");
            }
        }
        let schedules: BTreeSet<String> = (0..12)
            .map(|i| format!("{:?}", e.tuple(Algorithm::Fd, i).schedule))
            .collect();
        assert!(schedules.len() > 2, "schedules must vary: {schedules:?}");
        assert!(
            (0..40).any(|i| !e.tuple(Algorithm::Fd, i).script.events().is_empty()),
            "some tuples must carry faults"
        );
        assert!(
            (0..40).any(|i| e.tuple(Algorithm::Fd, i).script.events().is_empty()),
            "some tuples must be fault-free baselines"
        );
    }

    #[test]
    fn generated_faults_never_exceed_a_minority() {
        let e = Explorer::new(3).with_group_sizes(3, 5);
        for i in 0..40 {
            let t = e.tuple(Algorithm::Gm, i);
            let minority = (t.n - 1) / 2;
            let mut victims = BTreeSet::new();
            for ev in t.script.events() {
                match ev {
                    FaultEvent::Crash { pid, .. }
                    | FaultEvent::Recover { pid, .. }
                    | FaultEvent::Churn { pid, .. } => {
                        victims.insert(*pid);
                    }
                    FaultEvent::Partition { groups, .. } => {
                        let largest = groups.iter().map(Vec::len).max().unwrap();
                        for g in groups.iter().filter(|g| g.len() < largest) {
                            victims.extend(g.iter().copied());
                        }
                    }
                    FaultEvent::SuspicionBurst { .. } => {}
                }
            }
            assert!(
                victims.len() <= minority,
                "tuple {i}: {victims:?} exceeds minority {minority} of n={}",
                t.n
            );
        }
    }

    #[test]
    fn verdicts_are_reproducible_from_the_tuple_alone() {
        let e = quick_explorer(11);
        for i in [0, 1, 6] {
            let t = e.tuple(Algorithm::Fd, i);
            let a = run_tuple(&t);
            let b = run_tuple(&t);
            assert_eq!(a, b, "tuple {i} must judge identically twice");
            assert!(matches!(a, Verdict::Pass { .. }), "tuple {i}: {a:?}");
        }
    }

    #[test]
    fn small_clean_budget_passes_for_all_algorithms() {
        let out = quick_explorer(5).explore();
        assert!(out.repro.is_none(), "violation: {}", out.repro.unwrap());
        assert_eq!(out.examined, 36, "12 tuples × 3 algorithms");
    }

    #[test]
    fn exploration_is_deterministic() {
        let a = quick_explorer(9).explore();
        let b = quick_explorer(9).explore();
        assert_eq!(a.examined, b.examined);
        assert_eq!(a.repro.is_none(), b.repro.is_none());
    }

    #[test]
    fn pass_verdicts_report_real_work() {
        let e = quick_explorer(13);
        let t = e.tuple(Algorithm::Gm, 0);
        match run_tuple(&t) {
            Verdict::Pass { delivered } => {
                assert!(
                    delivered > 20,
                    "a tuple must exercise the stack: {delivered}"
                )
            }
            Verdict::Fail(v) => panic!("clean tuple failed: {v}"),
        }
    }

    #[test]
    #[should_panic(expected = "uniform variants only")]
    fn non_uniform_gm_is_not_explored() {
        let _ = Explorer::new(1).with_algorithms(&[Algorithm::Gm, Algorithm::GmNonUniform]);
    }

    #[test]
    fn halve_times_shrinks_absolute_anchors_only() {
        let mut ev = FaultEvent::Crash {
            at: ScriptTime::At(Time::from_millis(400)),
            pid: Pid::new(2),
            detection: Dur::from_millis(20),
        };
        assert!(halve_times(&mut ev));
        assert!(matches!(
            ev,
            FaultEvent::Crash {
                at: ScriptTime::At(t),
                ..
            } if t == Time::from_millis(200)
        ));
        let mut warm = FaultEvent::Crash {
            at: ScriptTime::AfterWarmup(Dur::from_millis(100)),
            pid: Pid::new(2),
            detection: Dur::ZERO,
        };
        assert!(!halve_times(&mut warm), "relative anchors stay put");
    }
}
