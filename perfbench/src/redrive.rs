//! Rebuilding runs from the program's public pieces: the fault-script
//! compiler, the arrival generator, `SimBuilder` with every node
//! wrapped in [`Traced`], and `Sim::run_until`.
//!
//! A re-driven run must reproduce its untraced counterpart bit for bit
//! ([`same_run`]); that is what lets the per-layer numbers speak for
//! the program the end-to-end metrics measured.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use abcast::{AbcastEvent, BatchConfig, Batched, FdNode, GmNode, Pack};
use neko::{
    derive_seed, Dur, Injection, NetParams, NetStats, NetworkModel, Pid, Process, Schedule,
    SimBuilder, Time,
};
use ringpaxos::RingNode;
use study::explore::Tuple;
use study::oracle::{check_uniform_total_order, delivery_logs};
use study::{
    poisson_arrivals, Algorithm, Arrival, CompiledScript, FaultScript, Reservoir, RunParams,
    Running, ScriptAction, SingleRun,
};

use crate::trace::{Classify, Layer, Tally, Traced};

/// Seed stream of the runner's workload (`study`'s steady runs derive
/// their arrivals from it).
const ARRIVALS_STREAM: u64 = 0x40AD;
/// Seed stream of the runner's latency reservoir.
const RESERVOIR_STREAM: u64 = 0x1A7E;
/// Seed stream of the explorer's workload.
const EXPLORE_ARRIVALS_STREAM: u64 = 0xE791;
/// The runner's default saturation threshold
/// (`RunParams::with_saturation_frac`).
const SATURATION_FRAC: f64 = 0.05;

/// The run dimensions a workload sets; `RunParams` keeps its fields
/// private, so the benchmark holds its own copy to rebuild runs from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Config {
    /// Group size.
    pub n: usize,
    /// Offered load (1/s).
    pub throughput: f64,
    /// Warm-up window, discarded from statistics.
    pub warmup: Dur,
    /// Measurement window.
    pub measure: Dur,
    /// Drain window after the last send.
    pub drain: Dur,
    /// Network topology.
    pub model: NetworkModel,
    /// Batching knobs, if the stack is batched.
    pub batching: Option<BatchConfig>,
}

impl Config {
    /// The runner's parameters for these dimensions (one replication).
    pub fn params(&self) -> RunParams {
        let p = RunParams::new(self.n, self.throughput)
            .with_warmup(self.warmup)
            .with_measure(self.measure)
            .with_drain(self.drain)
            .with_network_model(self.model)
            .with_replications(1);
        match self.batching {
            Some(cfg) => p.with_batching(cfg),
            None => p,
        }
    }

    /// Simulated time one run covers.
    pub fn span(&self) -> Dur {
        self.warmup + self.measure + self.drain
    }
}

/// One `study::run_once` call.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// The algorithm.
    pub alg: Algorithm,
    /// The fault script (steady: no probe).
    pub script: FaultScript,
    /// The run dimensions.
    pub cfg: Config,
    /// The run's seed.
    pub seed: u64,
}

/// Host timings and counts of one re-driven run.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Handler counts and times.
    pub tally: Tally,
    /// `FaultScript::compile` wall time.
    pub compile_ns: u64,
    /// Entries of the compiled script (injections, incl. `fdet` plans).
    pub compile_entries: u64,
    /// `poisson_arrivals` wall time.
    pub arrivals_ns: u64,
    /// Arrivals generated.
    pub arrivals: u64,
    /// `SimBuilder` plus scheduling wall time.
    pub build_ns: u64,
    /// `Sim::run_until` wall time.
    pub run_until_ns: u64,
    /// Events the kernel processed.
    pub events: u64,
    /// Deepest the kernel event queue got.
    pub queue_peak: u64,
    /// Oracle (`check_uniform_total_order`) wall time.
    pub oracle_ns: u64,
    /// Deliveries the oracle checked.
    pub deliveries: u64,
    /// Wall time of the whole re-drive.
    pub wall_ns: u64,
    /// Network counters of the run.
    pub net: NetStats,
    /// Group size.
    pub n: usize,
    /// Simulated time covered.
    pub span: Dur,
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Whether two runs agree bit for bit: `measured`, `undelivered`, the
/// mean, every latency sample and `NetStats`.
pub fn same_run(a: &SingleRun, b: &SingleRun) -> bool {
    a.mean_latency_ms.map(f64::to_bits) == b.mean_latency_ms.map(f64::to_bits)
        && a.measured == b.measured
        && a.undelivered == b.undelivered
        && bits(&a.latencies) == bits(&b.latencies)
        && a.net == b.net
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// What [`drive`] hands back.
struct Driven {
    outputs: Vec<(Time, Pid, AbcastEvent<u64>)>,
    trace: Trace,
}

/// Builds the simulation with wrapped nodes, schedules the compiled
/// script and then the arrivals (the runner's order), and runs it.
fn drive<N>(
    sim: SimBuilder,
    compiled: &CompiledScript,
    arrivals: &[Arrival],
    end: Time,
    mut factory: impl FnMut(Pid, &Rc<RefCell<Tally>>) -> N,
) -> Result<Driven, String>
where
    N: Process<Cmd = u64, Out = AbcastEvent<u64>>,
{
    let tally = Rc::new(RefCell::new(Tally::default()));
    let t0 = Instant::now();
    let mut sim = sim.build_with(|p| factory(p, &tally));
    for (at, act) in compiled.entries() {
        match act {
            ScriptAction::Inject(inj) => sim.schedule_injection(*at, inj.clone()),
            ScriptAction::Probe(_) => return Err("workload scripts carry no probe".into()),
        }
    }
    for &(at, p, v) in arrivals {
        sim.schedule_command(at, p, v);
    }
    let build_ns = ns(t0);
    let t1 = Instant::now();
    let events = sim.run_until(end) as u64;
    let run_until_ns = ns(t1);
    let trace = Trace {
        build_ns,
        run_until_ns,
        events,
        queue_peak: sim.event_queue_peak(),
        net: sim.net_stats(),
        n: sim.n(),
        ..Trace::default()
    };
    let outputs = sim.take_outputs();
    drop(sim);
    let tally = std::mem::take(&mut *tally.borrow_mut());
    Ok(Driven {
        outputs,
        trace: Trace { tally, ..trace },
    })
}

/// Wraps an unbatched node.
fn whole<P: Process>(node: P, tally: &Rc<RefCell<Tally>>) -> Traced<P>
where
    P::Msg: Classify,
{
    Traced::new(node, Layer::Whole, Rc::clone(tally))
}

/// Wraps a batched node: one wrapper outside `Batched`, one around the
/// algorithm inside it.
fn batched<N>(
    p: Pid,
    node: N,
    cfg: BatchConfig,
    tally: &Rc<RefCell<Tally>>,
) -> Traced<Batched<u64, Traced<N>>>
where
    N: Process<Cmd = Pack<u64>, Out = AbcastEvent<Pack<u64>>>,
    N::Msg: Classify,
{
    let inner = Traced::new(node, Layer::Alg, Rc::clone(tally));
    Traced::new(Batched::new(p, inner, cfg), Layer::Outer, Rc::clone(tally))
}

/// Dispatches [`drive`] over the algorithm and batching choice.
fn drive_alg(
    alg: Algorithm,
    n: usize,
    batching: Option<BatchConfig>,
    sim: SimBuilder,
    compiled: &CompiledScript,
    arrivals: &[Arrival],
    end: Time,
) -> Result<Driven, String> {
    let init = compiled.initial_suspects().clone();
    match (alg, batching) {
        (Algorithm::Fd, None) => drive(sim, compiled, arrivals, end, |p, t| {
            whole(FdNode::<u64>::new(p, n, &init), t)
        }),
        (Algorithm::Gm, None) => drive(sim, compiled, arrivals, end, |p, t| {
            whole(GmNode::<u64>::new(p, n, &init), t)
        }),
        (Algorithm::Ring, None) => drive(sim, compiled, arrivals, end, |p, t| {
            whole(RingNode::<u64>::new(p, n, &init), t)
        }),
        (Algorithm::Fd, Some(cfg)) => drive(sim, compiled, arrivals, end, |p, t| {
            batched(p, FdNode::<Pack<u64>>::new(p, n, &init), cfg, t)
        }),
        (Algorithm::Gm, Some(cfg)) => drive(sim, compiled, arrivals, end, |p, t| {
            batched(p, GmNode::<Pack<u64>>::new(p, n, &init), cfg, t)
        }),
        (Algorithm::Ring, Some(cfg)) => drive(sim, compiled, arrivals, end, |p, t| {
            batched(p, RingNode::<Pack<u64>>::new(p, n, &init), cfg, t)
        }),
        (other, _) => Err(format!("the benchmark does not drive {other:?}")),
    }
}

/// Per-process down intervals `[crash, recover)` read back from the
/// compiled script — the runner's rule for which broadcasts count.
fn down_intervals(compiled: &CompiledScript, n: usize) -> Vec<Vec<(Time, Option<Time>)>> {
    let mut edges: Vec<(Time, bool, Pid)> = compiled
        .entries()
        .iter()
        .filter_map(|(t, a)| match a {
            ScriptAction::Inject(Injection::Crash(p)) => Some((*t, true, *p)),
            ScriptAction::Inject(Injection::Recover(p)) => Some((*t, false, *p)),
            _ => None,
        })
        .collect();
    edges.sort_by_key(|(t, is_crash, _)| (*t, !*is_crash));
    let mut down: Vec<Vec<(Time, Option<Time>)>> = vec![Vec::new(); n];
    for (t, is_crash, p) in edges {
        let intervals = &mut down[p.index()];
        if is_crash {
            if !matches!(intervals.last(), Some((_, None))) {
                intervals.push((t, None));
            }
        } else if let Some((_, until @ None)) = intervals.last_mut() {
            *until = Some(t);
        }
    }
    down
}

/// The inputs `study`'s runner builds for one steady run, timed.
struct Inputs {
    /// The compiled fault script.
    compiled: CompiledScript,
    /// The arrival stream, numbered in send order.
    arrivals: Vec<Arrival>,
    /// `FaultScript::compile` wall time.
    compile_ns: u64,
    /// `poisson_arrivals` wall time.
    arrivals_ns: u64,
}

impl Inputs {
    /// Compiles the script and generates the arrivals of `spec`.
    fn of(spec: &RunSpec) -> Result<Inputs, String> {
        let cfg = &spec.cfg;
        if spec.script.has_probe() {
            return Err("workload scripts carry no probe".into());
        }
        let t = Instant::now();
        let compiled = spec
            .script
            .compile(cfg.n, cfg.warmup, Time::ZERO + cfg.span(), spec.seed);
        let compile_ns = ns(t);
        let t = Instant::now();
        let ancient = compiled.ancient_crashes();
        let senders: Vec<Pid> = Pid::all(cfg.n).filter(|p| !ancient.contains(p)).collect();
        let arrivals = poisson_arrivals(
            cfg.n,
            cfg.throughput,
            Time::ZERO + cfg.warmup + cfg.measure,
            &senders,
            derive_seed(spec.seed, ARRIVALS_STREAM),
        );
        let arrivals_ns = ns(t);
        Ok(Inputs {
            compiled,
            arrivals,
            compile_ns,
            arrivals_ns,
        })
    }

    /// The arrivals the runner measures: sent inside the measurement
    /// window by a process that was up at the send instant.
    fn measured<'a>(&'a self, cfg: &Config) -> impl Iterator<Item = &'a Arrival> + 'a {
        let downtime = down_intervals(&self.compiled, cfg.n);
        let (w0, w1) = (
            Time::ZERO + cfg.warmup,
            Time::ZERO + cfg.warmup + cfg.measure,
        );
        self.arrivals.iter().filter(move |(sent, sender, _)| {
            *sent >= w0
                && *sent < w1
                && !downtime[sender.index()]
                    .iter()
                    .any(|(from, until)| sent >= from && until.is_none_or(|u| *sent < u))
        })
    }
}

/// Re-drives one steady `run_once` call with every node wrapped;
/// fails when the delivery logs break uniform total order.
pub fn redrive_run(spec: &RunSpec) -> Result<(SingleRun, Trace), String> {
    let start = Instant::now();
    let cfg = &spec.cfg;
    let n = cfg.n;
    let inputs = Inputs::of(spec)?;
    let sim = SimBuilder::new(n)
        .seed(spec.seed)
        .network(NetParams::default().with_model(cfg.model))
        .schedule(Schedule::Fifo);
    let Driven { outputs, trace } = drive_alg(
        spec.alg,
        n,
        cfg.batching,
        sim,
        &inputs.compiled,
        &inputs.arrivals,
        Time::ZERO + cfg.span(),
    )?;

    let mut first_delivery: BTreeMap<u64, Time> = BTreeMap::new();
    for (t, _, AbcastEvent::Delivered { payload, .. }) in &outputs {
        first_delivery.entry(*payload).or_insert(*t);
    }
    let mut lat = Running::new();
    let mut latencies = Reservoir::new(
        RunParams::new(n, cfg.throughput).latency_sample_cap(),
        derive_seed(spec.seed, RESERVOIR_STREAM),
    );
    let (mut measured, mut undelivered) = (0u64, 0u64);
    // Arrivals are numbered in send order, so this walks payload order.
    for &(sent, _, payload) in inputs.measured(cfg) {
        measured += 1;
        match first_delivery.get(&payload) {
            Some(t) => {
                let l = (*t - sent).as_millis_f64();
                lat.push(l);
                latencies.push(l);
            }
            None => undelivered += 1,
        }
    }
    let saturated = measured == 0 || (undelivered as f64) > SATURATION_FRAC * measured as f64;
    let out = SingleRun {
        mean_latency_ms: (!saturated && !lat.is_empty()).then(|| lat.mean()),
        measured,
        undelivered,
        latencies: latencies.into_samples(),
        net: trace.net,
    };

    let logs = delivery_logs(n, outputs);
    let t = Instant::now();
    check_uniform_total_order(&logs)
        .map_err(|v| format!("{:?} seed {}: {v}", spec.alg, spec.seed))?;
    let oracle_ns = ns(t);

    let trace = Trace {
        compile_ns: inputs.compile_ns,
        compile_entries: inputs.compiled.entries().len() as u64,
        arrivals_ns: inputs.arrivals_ns,
        arrivals: inputs.arrivals.len() as u64,
        oracle_ns,
        deliveries: logs.iter().map(|l| l.len() as u64).sum(),
        wall_ns: ns(start),
        span: cfg.span(),
        ..trace
    };
    Ok((out, trace))
}

/// One re-driven explorer tuple.
#[derive(Clone, Debug)]
pub struct TupleRun {
    /// Latency (ms) of every delivered broadcast, in payload order.
    pub latencies: Vec<f64>,
    /// Deliveries in the longest log (`Verdict::Pass::delivered`).
    pub delivered: usize,
}

/// Re-drives one explorer tuple the way `study::explore::run_tuple`
/// builds it; fails when the delivery logs break uniform total order.
pub fn redrive_tuple(t: &Tuple) -> Result<(TupleRun, Trace), String> {
    let start = Instant::now();
    let end = Time::ZERO + t.horizon + t.drain;

    let t0 = Instant::now();
    let compiled = t.script.compile(t.n, Dur::ZERO, end, t.seed);
    let compile_ns = ns(t0);

    let t0 = Instant::now();
    let senders: Vec<Pid> = Pid::all(t.n).collect();
    let arrivals = poisson_arrivals(
        t.n,
        t.throughput,
        Time::ZERO + t.horizon,
        &senders,
        derive_seed(t.seed, EXPLORE_ARRIVALS_STREAM),
    );
    let arrivals_ns = ns(t0);

    let sim = SimBuilder::new(t.n)
        .seed(t.seed)
        .network(NetParams::default().with_model(t.topology))
        .schedule(t.schedule);
    let Driven { outputs, trace } = drive_alg(t.alg, t.n, None, sim, &compiled, &arrivals, end)?;

    let mut first_delivery: BTreeMap<u64, Time> = BTreeMap::new();
    for (at, _, AbcastEvent::Delivered { payload, .. }) in &outputs {
        first_delivery.entry(*payload).or_insert(*at);
    }
    let latencies = first_delivery
        .iter()
        .map(|(payload, at)| (*at - arrivals[*payload as usize].0).as_millis_f64())
        .collect();

    let logs = delivery_logs(t.n, outputs);
    let t0 = Instant::now();
    check_uniform_total_order(&logs).map_err(|v| format!("{:?} seed {:#x}: {v}", t.alg, t.seed))?;
    let oracle_ns = ns(t0);

    let trace = Trace {
        compile_ns,
        compile_entries: compiled.entries().len() as u64,
        arrivals_ns,
        arrivals: arrivals.len() as u64,
        oracle_ns,
        deliveries: logs.iter().map(|l| l.len() as u64).sum(),
        wall_ns: ns(start),
        span: t.horizon + t.drain,
        ..trace
    };
    let delivered = logs.iter().map(Vec::len).max().unwrap_or(0);
    Ok((
        TupleRun {
            latencies,
            delivered,
        },
        trace,
    ))
}
