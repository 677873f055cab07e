//! The four workloads and the two ways of running them: untraced for
//! the end-to-end metrics, traced for the per-layer ones.
//!
//! A workload is a sequence of *chunks* — one `run_sweep_with_workers`
//! call, one `find_saturation` search, or one `Explorer::explore` call —
//! each with its own seed derived from the workload seed. A fixed
//! number of leading chunks have their simulated results pooled, so the
//! simulated metrics are a pure function of the seed. The timed region keeps running further chunks
//! until `--seconds` have passed; host metrics are medians over every
//! chunk run.

use std::time::Instant;

use abcast::BatchConfig;
use fdet::QosParams;
use neko::{derive_seed, Dur, NetworkModel, Pid};
use study::explore::{run_tuple, Exploration, Explorer, Tuple, Verdict};
use study::oracle::Violation;
use study::{
    find_saturation, run_once, run_sweep_with_workers, set_run_scratch, Algorithm, FaultScript,
    RunOutput, SaturationResult, SaturationSearch, SingleRun, Summary, SweepPoint,
};

use crate::redrive::{redrive_run, redrive_tuple, same_run, Config, RunSpec, Trace, TupleRun};
use crate::report::{median, peak_rss_mb, reset_peak_rss, Report};
use crate::trace::{allocations, count_allocations, Class, CLASSES};

/// The algorithms every workload compares.
pub const ALGS: [Algorithm; 3] = Algorithm::STUDY;
/// Their names in metric names.
pub const ALG_NAMES: [&str; 3] = ["fd", "gm", "ring"];

fn alg_index(alg: Algorithm) -> usize {
    ALGS.iter()
        .position(|&a| a == alg)
        .expect("workloads run only the study's three algorithms")
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's traffic under its fault scenarios, n = 3 and 7.
    PaperFaults,
    /// Normal-steady at n = 64 on the switched topology.
    ScaleN64,
    /// The saturation search over the batched stacks.
    SaturateBatched,
    /// The adversarial schedule explorer's default tuple mix.
    ExploreMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperFaults,
        Workload::ScaleN64,
        Workload::SaturateBatched,
        Workload::ExploreMix,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFaults => "paper-faults",
            Workload::ScaleN64 => "scale-n64",
            Workload::SaturateBatched => "saturate-batched",
            Workload::ExploreMix => "explore-mix",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work a run does: the benchmark's size, or a tiny one for
/// the benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A few simulated seconds per workload, for self-tests.
    Tiny,
}

/// One benchmark run's settings.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// The workload.
    pub workload: Workload,
    /// The workload seed; every input derives from it.
    pub seed: u64,
    /// Least host time the timed region runs for.
    pub seconds: f64,
    /// Sweep and explorer worker threads.
    pub workers: usize,
    /// The size.
    pub size: Size,
}

/// The offered load of `paper-faults` (1/s). The paper's 300/s puts GM
/// at n = 7 under suspicion-steady on its knee: run means range from
/// 220 to 1 500 ms from seed to seed and long windows leave broadcasts
/// undelivered. At 200/s GM still changes views on every wrong
/// suspicion, but its tail is a measurement rather than a lottery.
const PAPER_RATE: f64 = 200.0;
/// The offered load of `scale-n64` (1/s): about 1 000 measured
/// broadcasts per run; a broadcast costs 75.4 wire messages (traced run,
/// seed 201).
const N64_RATE: f64 = 200.0;
/// Set-ups per run; `setup_s` is their median. The first runs before the
/// timed region, the others between its pooled chunks, so the median
/// samples the host over the whole run rather than its first second.
const SETUP_REPEATS: usize = 9;
/// Seed of the set-up's warm-up chunk. It is fixed, so every seed's
/// set-up does the same work and `setup_s` carries only the host's
/// noise.
const WARMUP_SEED: u64 = 0x5E70;

/// A workload's fixed amount of pooled work.
struct Shape {
    /// Chunks whose simulated results are pooled.
    chunks: usize,
    /// Replications per sweep point or saturation probe.
    reps: usize,
    /// Explorer tuples per algorithm and chunk.
    budget: usize,
}

fn shape(o: &Opts) -> Shape {
    let full = o.size == Size::Full;
    match o.workload {
        Workload::PaperFaults => Shape {
            chunks: if full { 24 } else { 1 },
            reps: if full { 2 } else { 1 },
            budget: 0,
        },
        Workload::ScaleN64 => Shape {
            chunks: if full { 12 } else { 1 },
            reps: if full { 2 } else { 1 },
            budget: 0,
        },
        // One replication per probe keeps one run in memory at a time,
        // so the peak resident size does not depend on which runs
        // happen to overlap.
        Workload::SaturateBatched => Shape {
            chunks: if full { 12 } else { 3 },
            reps: 1,
            budget: 0,
        },
        Workload::ExploreMix => Shape {
            chunks: if full { 48 } else { 1 },
            reps: 1,
            budget: if full { 50 } else { 16 },
        },
    }
}

fn secs(d: Dur) -> f64 {
    d.as_micros() as f64 / 1e6
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn paper_cfg(n: usize, size: Size) -> Config {
    let full = size == Size::Full;
    Config {
        n,
        throughput: PAPER_RATE,
        warmup: Dur::from_secs(1),
        measure: if full {
            Dur::from_secs(5)
        } else {
            Dur::from_millis(500)
        },
        drain: if full {
            Dur::from_secs(3)
        } else {
            Dur::from_secs(1)
        },
        model: NetworkModel::SharedMedium,
        batching: None,
    }
}

/// normal-steady, crash-steady (a minority of non-coordinators down
/// from the start), suspicion-steady (T_MR = 1 s, T_M = 10 ms) and a
/// coordinator crash 2 s into the measurement, recovering 1 s later.
fn paper_scripts(n: usize) -> Vec<FaultScript> {
    let crashed: Vec<Pid> = (0..(n - 1) / 2).map(|i| Pid::new(n - 1 - i)).collect();
    let qos = QosParams::new()
        .with_mistake_recurrence(Dur::from_secs(1))
        .with_mistake_duration(Dur::from_millis(10));
    vec![
        FaultScript::normal_steady(),
        FaultScript::crash_steady(&crashed),
        FaultScript::suspicion_steady(qos),
        FaultScript::crash_recover(
            Pid::new(0),
            Dur::from_secs(2),
            Dur::from_secs(1),
            Dur::from_millis(10),
        ),
    ]
}

fn n64_cfg(size: Size) -> Config {
    let full = size == Size::Full;
    Config {
        n: 64,
        throughput: N64_RATE,
        warmup: Dur::from_secs(1),
        measure: if full {
            Dur::from_secs(5)
        } else {
            Dur::from_millis(300)
        },
        drain: if full {
            Dur::from_secs(3)
        } else {
            Dur::from_secs(1)
        },
        model: NetworkModel::Switched,
        batching: None,
    }
}

fn saturate_cfg(size: Size) -> Config {
    Config {
        n: 3,
        throughput: 0.0,
        warmup: Dur::from_millis(500),
        measure: if size == Size::Full {
            Dur::from_secs(2)
        } else {
            Dur::from_millis(300)
        },
        drain: Dur::from_secs(1),
        model: NetworkModel::Switched,
        batching: Some(BatchConfig::new(32, Dur::from_millis(10))),
    }
}

fn saturate_search(size: Size) -> SaturationSearch {
    SaturationSearch::default()
        .with_start(100.0)
        .with_ceiling(102_400.0)
        .with_rel_tol(if size == Size::Full { 0.05 } else { 0.5 })
}

/// One unit of the workload's work.
#[derive(Clone, Debug)]
pub enum Chunk {
    /// One `run_sweep_with_workers` call, with each point's dimensions.
    Sweep {
        /// The sweep points.
        points: Vec<SweepPoint>,
        /// Each point's run dimensions.
        cfgs: Vec<Config>,
    },
    /// One `find_saturation` search.
    Search {
        /// The algorithm searched.
        alg: Algorithm,
        /// The search's master seed.
        seed: u64,
    },
    /// One `Explorer::explore` call on the worker pool.
    Explore {
        /// The explorer, with its budget and workers set.
        explorer: Explorer,
    },
}

/// Chunk `c` of the workload: a pure function of the options.
pub fn chunk(o: &Opts, c: usize) -> Chunk {
    let seed = derive_seed(o.seed, c as u64);
    let reps = shape(o).reps;
    let sweep = |runs: Vec<(Algorithm, FaultScript, Config)>| {
        let points = runs
            .iter()
            .map(|(alg, script, cfg)| {
                SweepPoint::new(
                    *alg,
                    script.clone(),
                    cfg.params().with_replications(reps),
                    seed,
                )
            })
            .collect();
        let cfgs = runs.iter().map(|(_, _, cfg)| *cfg).collect();
        Chunk::Sweep { points, cfgs }
    };
    match o.workload {
        Workload::PaperFaults => {
            let mut runs = Vec::new();
            for n in [3, 7] {
                for script in paper_scripts(n) {
                    for alg in ALGS {
                        runs.push((alg, script.clone(), paper_cfg(n, o.size)));
                    }
                }
            }
            sweep(runs)
        }
        Workload::ScaleN64 => sweep(
            ALGS.iter()
                .map(|&alg| (alg, FaultScript::normal_steady(), n64_cfg(o.size)))
                .collect(),
        ),
        Workload::SaturateBatched => Chunk::Search {
            alg: ALGS[c % ALGS.len()],
            seed: derive_seed(o.seed, (c / ALGS.len()) as u64),
        },
        Workload::ExploreMix => Chunk::Explore {
            explorer: Explorer::new(seed)
                .with_budget(shape(o).budget)
                .with_workers(o.workers),
        },
    }
}

/// The simulated results pooled over the fixed chunks.
#[derive(Clone, Debug, Default)]
struct Pool {
    /// Latency samples (ms) per algorithm.
    lat: [Vec<f64>; 3],
    /// Delivered measured broadcasts per algorithm.
    delivered: [f64; 3],
    /// Simulated seconds of sending window per algorithm.
    window_s: [f64; 3],
    /// `T*` of each search per algorithm.
    t_star: [Vec<f64>; 3],
    attempted: u64,
    failed: u64,
    /// Examined explorer tuples, re-driven for latency afterwards, each
    /// with whether the exploration found it failing.
    tuples: Vec<(Tuple, bool)>,
}

/// Host cost of one chunk.
struct Timed {
    wall: f64,
    sim_s: f64,
    runs: f64,
}

/// Checks a sweep's outputs and pools them: no point may saturate, and
/// on normal-steady the three algorithms produce the very same
/// latencies (paper Fig. 1: identical message patterns).
fn check_sweep(
    points: &[SweepPoint],
    cfgs: &[Config],
    outs: &[RunOutput],
    pool: &mut Pool,
) -> Result<(), String> {
    for ((p, cfg), out) in points.iter().zip(cfgs).zip(outs) {
        if out.latency.is_none() {
            return Err(format!(
                "{:?} n={} {:?} saturated at {}/s",
                p.alg, cfg.n, p.script, cfg.throughput
            ));
        }
        let a = alg_index(p.alg);
        for run in &out.runs {
            pool.attempted += run.measured;
            pool.failed += run.undelivered;
            pool.delivered[a] += (run.measured - run.undelivered) as f64;
            pool.window_s[a] += secs(cfg.measure);
            pool.lat[a].extend_from_slice(&run.latencies);
        }
    }
    let normal = FaultScript::normal_steady();
    for (i, p) in points.iter().enumerate() {
        for (j, q) in points.iter().enumerate().skip(i + 1) {
            let twins = p.script == normal && q.script == normal && cfgs[i] == cfgs[j];
            if twins
                && !outs[i]
                    .runs
                    .iter()
                    .zip(&outs[j].runs)
                    .all(|(x, y)| same_latencies(x, y))
            {
                return Err(format!(
                    "normal-steady n={}: {:?} and {:?} deliver differently",
                    cfgs[i].n, p.alg, q.alg
                ));
            }
        }
    }
    Ok(())
}

fn same_latencies(a: &SingleRun, b: &SingleRun) -> bool {
    a.measured == b.measured
        && a.undelivered == b.undelivered
        && a.latencies.len() == b.latencies.len()
        && a.latencies
            .iter()
            .zip(&b.latencies)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Checks a saturation search: the ceiling was not hit (else `T*` is a
/// bound, not a measurement) and the knee's runs exist.
fn check_search(alg: Algorithm, res: &SaturationResult) -> Result<&RunOutput, String> {
    if res.saturated_at.is_none() {
        return Err(format!("{alg:?}: T* search sustained its ceiling"));
    }
    match &res.at_t_star {
        Some(at) if res.t_star > 0.0 => Ok(at),
        _ => Err(format!("{alg:?}: no sustainable load found")),
    }
}

fn pool_search(alg: Algorithm, res: &SaturationResult, at: &RunOutput, pool: &mut Pool) {
    let a = alg_index(alg);
    pool.t_star[a].push(res.t_star);
    for run in at.runs.iter().filter(|r| r.mean_latency_ms.is_some()) {
        pool.attempted += run.measured;
        pool.failed += run.undelivered;
        pool.lat[a].extend_from_slice(&run.latencies);
    }
}

/// Whether a violation breaks only the quiescence deadline (a broadcast
/// not delivered in time) rather than safety.
fn is_liveness(v: &Violation) -> bool {
    matches!(
        v,
        Violation::Lagging { .. } | Violation::NeverDelivered { .. }
    )
}

/// Checks an exploration and returns how many tuples failed. A
/// liveness failure is a failed operation, reported on standard error;
/// any other violation fails the run.
fn check_exploration(ex: &Exploration) -> Result<u64, String> {
    match &ex.repro {
        None => Ok(0),
        Some(r) if is_liveness(&r.violation) => {
            eprintln!(
                "perfbench: {:?} n={} seed {:#x}: {}",
                r.found.alg, r.found.n, r.found.seed, r.violation
            );
            Ok(1)
        }
        Some(r) => Err(format!("the oracle found a safety violation:\n{r}")),
    }
}

/// The tuples `ex` examined out of the explorer's `generated` ones, each
/// with whether it is the failure `explore` stopped at.
fn examined(generated: Vec<Tuple>, ex: &Exploration) -> Vec<(Tuple, bool)> {
    let mut tuples: Vec<(Tuple, bool)> = generated
        .into_iter()
        .take(ex.examined)
        .map(|t| (t, false))
        .collect();
    if let (Some(last), Some(_)) = (tuples.last_mut(), &ex.repro) {
        last.1 = true;
    }
    tuples
}

/// Ties a re-drive to the program's own verdict on the tuple: the
/// verdict fails exactly where the exploration stopped, and a passing
/// verdict delivered as many broadcasts as the re-drive's longest log.
fn check_tuple(t: &Tuple, fails: bool, verdict: &Verdict, run: &TupleRun) -> Result<(), String> {
    match verdict {
        Verdict::Pass { delivered } if !fails && *delivered == run.delivered => Ok(()),
        Verdict::Fail(_) if fails => Ok(()),
        _ => Err(format!(
            "{:?} seed {:#x}: run_tuple gave {verdict:?} where the exploration {} and the \
             traced re-drive delivered {}",
            t.alg,
            t.seed,
            if fails { "failed" } else { "passed" },
            run.delivered
        )),
    }
}

/// Simulated time of one explorer tuple (all tuples share it).
fn tuple_span(explorer: &Explorer) -> Dur {
    let t = explorer.tuple(Algorithm::Fd, 0);
    t.horizon + t.drain
}

/// Runs one chunk untraced and times the program call alone.
fn exec(o: &Opts, chunk: &Chunk, pool: Option<&mut Pool>) -> Result<Timed, String> {
    let sh = shape(o);
    match chunk {
        Chunk::Sweep { points, cfgs } => {
            let t = Instant::now();
            let outs = run_sweep_with_workers(points, o.workers);
            let wall = t.elapsed().as_secs_f64();
            let mut unpooled = Pool::default();
            check_sweep(points, cfgs, &outs, pool.unwrap_or(&mut unpooled))?;
            let runs = (points.len() * sh.reps) as f64;
            let sim_s = cfgs.iter().map(|c| secs(c.span())).sum::<f64>() * sh.reps as f64;
            Ok(Timed { wall, sim_s, runs })
        }
        Chunk::Search { alg, seed } => {
            let cfg = saturate_cfg(o.size);
            let params = cfg.params().with_replications(sh.reps);
            let t = Instant::now();
            let res = find_saturation(
                *alg,
                &FaultScript::normal_steady(),
                &params,
                *seed,
                &saturate_search(o.size),
            );
            let wall = t.elapsed().as_secs_f64();
            let at = check_search(*alg, &res)?;
            if let Some(pool) = pool {
                pool_search(*alg, &res, at, pool);
            }
            let runs = (res.probes.len() * sh.reps) as f64;
            Ok(Timed {
                wall,
                sim_s: runs * secs(cfg.span()),
                runs,
            })
        }
        Chunk::Explore { explorer } => {
            let t = Instant::now();
            let ex = explorer.explore();
            let wall = t.elapsed().as_secs_f64();
            let failed = check_exploration(&ex)?;
            if let Some(pool) = pool {
                pool.attempted += ex.examined as u64;
                pool.failed += failed;
                pool.tuples
                    .extend(examined(tuples_of(explorer, sh.budget), &ex));
            }
            let runs = ex.examined as f64;
            Ok(Timed {
                wall,
                sim_s: runs * secs(tuple_span(explorer)),
                runs,
            })
        }
    }
}

/// Every tuple of `explorer`, in the order `explore` examines them.
fn tuples_of(explorer: &Explorer, budget: usize) -> Vec<Tuple> {
    ALGS.iter()
        .flat_map(|&alg| (0..budget).map(move |i| explorer.tuple(alg, i)))
        .collect()
}

/// Runs every pooled explorer tuple again, through `run_tuple` and
/// through the traced re-drive, for the latency metrics the explorer's
/// verdicts do not carry; each re-drive must agree with the program's
/// verdict. Outside the timed region, split over `workers` threads.
fn pool_tuple_latencies(o: &Opts, pool: &mut Pool) -> Result<(), String> {
    let tuples = std::mem::take(&mut pool.tuples);
    let rerun = |(t, fails): &(Tuple, bool)| -> Result<TupleRun, String> {
        let verdict = run_tuple(t);
        let (run, _) = redrive_tuple(t)?;
        check_tuple(t, *fails, &verdict, &run)?;
        Ok(run)
    };
    let part = tuples.len().div_ceil(o.workers.max(1)).max(1);
    let runs: Vec<Result<TupleRun, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = tuples
            .chunks(part)
            .map(|slice| s.spawn(move || slice.iter().map(rerun).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a re-drive thread panicked"))
            .collect()
    });
    for ((t, _), run) in tuples.iter().zip(runs) {
        let run = run?;
        let a = alg_index(t.alg);
        pool.lat[a].extend_from_slice(&run.latencies);
        pool.delivered[a] += run.delivered as f64;
        pool.window_s[a] += secs(t.horizon);
    }
    Ok(())
}

/// The `run_once` call behind replication `rep` of a sweep point.
fn spec_of(p: &SweepPoint, cfg: &Config, rep: usize) -> RunSpec {
    RunSpec {
        alg: p.alg,
        script: p.script.clone(),
        cfg: *cfg,
        seed: derive_seed(p.seed, rep as u64),
    }
}

/// The set-up: builds the fixed chunks, then runs chunk 0 of the
/// workload at the tiny size as a warm-up, through the same program
/// call as the timed region, so lazy initialisation, cold caches and
/// thread start-up stay out of it.
fn setup(o: &Opts) -> Result<Vec<Chunk>, String> {
    let chunks: Vec<Chunk> = (0..shape(o).chunks).map(|c| chunk(o, c)).collect();
    let warm = Opts {
        seed: WARMUP_SEED,
        size: Size::Tiny,
        ..*o
    };
    exec(&warm, &chunk(&warm, 0), None)?;
    Ok(chunks)
}

/// The untraced run: every end-to-end metric.
pub fn run_untraced(o: &Opts) -> Result<Report, String> {
    let sh = shape(o);
    let timed_setup = || -> Result<(Vec<Chunk>, f64), String> {
        let t = Instant::now();
        let chunks = setup(o)?;
        Ok((chunks, t.elapsed().as_secs_f64()))
    };
    let (chunks, first) = timed_setup()?;
    let mut setups = vec![first];
    let setup_every = (sh.chunks / (SETUP_REPEATS - 1)).max(1);

    let mut pool = Pool::default();
    let (mut rates, mut tuple_rates, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut c = 0;
    while c < sh.chunks || start.elapsed().as_secs_f64() < o.seconds {
        let extra;
        let ch = match chunks.get(c) {
            Some(ch) => ch,
            None => {
                extra = chunk(o, c);
                &extra
            }
        };
        reset_peak_rss()?;
        let timed = exec(o, ch, (c < sh.chunks).then_some(&mut pool))?;
        peaks.push(peak_rss_mb()?);
        rates.push(timed.sim_s / timed.wall);
        tuple_rates.push(timed.runs / timed.wall);
        c += 1;
        if c % setup_every == 0 && setups.len() < SETUP_REPEATS {
            setups.push(timed_setup()?.1);
        }
    }
    if o.workload == Workload::ExploreMix {
        pool_tuple_latencies(o, &mut pool)?;
    }

    let mut r = Report {
        attempted: pool.attempted,
        failed: pool.failed,
        ..Report::default()
    };
    r.host("setup_s", median(&setups), "s");
    r.host("sim_s_per_wall_s", median(&rates), "s/s");
    r.host("tuples_per_s", median(&tuple_rates), "1/s");
    r.host("peak_rss_mb", median(&peaks), "MB");
    let summaries: Vec<Summary> = pool
        .lat
        .iter()
        .zip(ALG_NAMES)
        .map(|(lat, name)| {
            if lat.is_empty() {
                Err(format!("{name}: no latency samples"))
            } else {
                Ok(Summary::from_samples(lat))
            }
        })
        .collect::<Result<_, _>>()?;
    for (pct, label) in [(50.0, "p50"), (99.0, "p99")] {
        for (s, name) in summaries.iter().zip(ALG_NAMES) {
            let v = s.percentile(pct).expect("from_samples keeps the samples");
            r.sim(format!("latency_{label}_ms.{name}"), v, "ms");
        }
    }
    for (a, name) in ALG_NAMES.iter().enumerate() {
        // The knee where the workload searches for it; elsewhere the
        // delivered rate at the one load offered, a lower bound on T*.
        let t_star = if o.workload == Workload::SaturateBatched {
            pool.t_star[a].iter().sum::<f64>() / pool.t_star[a].len() as f64
        } else {
            pool.delivered[a] / pool.window_s[a]
        };
        r.sim(format!("t_star_per_s.{name}"), t_star, "1/s");
    }
    Ok(r)
}

/// Per-algorithm sums of the re-drives' handler tallies.
#[derive(Clone, Debug, Default)]
struct AlgLayers {
    msgs: [u64; CLASSES],
    msg_ns: [u64; CLASSES],
    instances: u64,
    outer_cmds: u64,
    alg_cmds: u64,
    cmd_ns: u64,
    timer_calls: u64,
    timer_sends: u64,
    sends: u64,
    deadline_flushes: u64,
}

/// Everything the traced run adds up.
#[derive(Clone, Debug, Default)]
struct Layers {
    alg: [AlgLayers; 3],
    events: u64,
    self_ns: u64,
    queue_peak: u64,
    wire: u64,
    merges: u64,
    cpu_busy_us: u64,
    cpu_cap_us: u64,
    net_busy_us: u64,
    net_cap_us: u64,
    queue_highwater: u64,
    compile_ns: u64,
    compile_entries: u64,
    arrivals_ns: u64,
    arrivals: u64,
    oracle_ns: u64,
    deliveries: u64,
    redrives: u64,
    redrive_ns: u64,
    /// Untraced program calls matched by the re-drives.
    untraced_ns: u64,
    /// Wall time of the parallel pass (sweep, searches or exploration).
    pass_ns: u64,
    allocs: u64,
    probes: u64,
    gen_ns: u64,
    gen_tuples: u64,
    /// `run_tuple` time and count per [small, n64] × algorithm.
    tuple_ns: [[u64; 3]; 2],
    tuple_n: [[u64; 3]; 2],
    /// Scratch pool A/B: (tuples/s, allocations/tuple) with it [on, off].
    scratch: [(f64, f64); 2],
}

impl Layers {
    fn add(&mut self, alg: Algorithm, tr: &Trace) {
        let a = &mut self.alg[alg_index(alg)];
        let t = &tr.tally;
        for c in 0..CLASSES {
            a.msgs[c] += t.msgs[c];
            a.msg_ns[c] += t.msg_ns[c];
        }
        a.instances += t.instances.len() as u64;
        a.outer_cmds += t.outer_cmds;
        a.alg_cmds += t.alg_cmds;
        a.cmd_ns += t.cmd_ns;
        a.timer_calls += t.timer_calls;
        a.timer_sends += t.timer_sends;
        a.sends += t.sends;
        a.deadline_flushes += t.deadline_flushes;
        let span_us = tr.span.as_micros();
        self.events += tr.events;
        self.self_ns += tr.run_until_ns.saturating_sub(t.handler_ns);
        self.queue_peak = self.queue_peak.max(tr.queue_peak);
        self.wire += tr.net.wire_messages;
        self.merges += tr.net.merges;
        self.cpu_busy_us += tr.net.cpu_busy.as_micros();
        self.cpu_cap_us += tr.n as u64 * span_us;
        self.net_busy_us += tr.net.net_busy.as_micros();
        self.net_cap_us += tr.net.links_used * span_us;
        self.queue_highwater = self.queue_highwater.max(tr.net.queue_highwater);
        self.compile_ns += tr.compile_ns;
        self.compile_entries += tr.compile_entries;
        self.arrivals_ns += tr.arrivals_ns;
        self.arrivals += tr.arrivals;
        self.oracle_ns += tr.oracle_ns;
        self.deliveries += tr.deliveries;
        self.redrives += 1;
        self.redrive_ns += tr.wall_ns;
    }

    /// Times one untraced program call, counting its allocations.
    fn untraced<R>(&mut self, f: impl FnOnce() -> R) -> (R, u64) {
        let a0 = allocations();
        let t = Instant::now();
        let r = f();
        let dt = ns(t);
        self.untraced_ns += dt;
        self.allocs += allocations() - a0;
        (r, dt)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Traced runner sweep: the parallel sweep, then every run again alone
/// through `run_once` and through the re-drive, all three bit for bit.
fn traced_sweep(
    o: &Opts,
    points: &[SweepPoint],
    cfgs: &[Config],
    pool: &mut Pool,
    layers: &mut Layers,
) -> Result<(), String> {
    let t = Instant::now();
    let outs = run_sweep_with_workers(points, o.workers);
    layers.pass_ns += ns(t);
    check_sweep(points, cfgs, &outs, pool)?;
    for ((p, cfg), out) in points.iter().zip(cfgs).zip(&outs) {
        for (r, swept) in out.runs.iter().enumerate() {
            let spec = spec_of(p, cfg, r);
            let (once, _) =
                layers.untraced(|| run_once(spec.alg, &spec.script, &p.params, spec.seed));
            if !same_run(&once, swept) {
                return Err(format!("{spec:?}: run_once differs from its sweep run"));
            }
            redrive_matched(&spec, &once, layers)?;
        }
    }
    Ok(())
}

/// Re-drives `spec` and requires it to reproduce `once` bit for bit.
fn redrive_matched(spec: &RunSpec, once: &SingleRun, layers: &mut Layers) -> Result<(), String> {
    let (again, tr) = redrive_run(spec)?;
    if !same_run(once, &again) {
        return Err(format!(
            "{:?} n={} at {}/s seed {}: the traced re-drive differs from run_once",
            spec.alg, spec.cfg.n, spec.cfg.throughput, spec.seed
        ));
    }
    layers.add(spec.alg, &tr);
    Ok(())
}

/// Traced saturation searches: each search, then every probe's runs
/// through `run_once` and the re-drive. The probes' verdicts and the
/// runs at `T*` must match the search's own.
fn traced_search(o: &Opts, pool: &mut Pool, layers: &mut Layers) -> Result<(), String> {
    let sh = shape(o);
    let base = saturate_cfg(o.size);
    let script = FaultScript::normal_steady();
    for c in 0..ALGS.len() {
        let Chunk::Search { alg, seed } = chunk(o, c) else {
            unreachable!("saturate-batched chunks are searches")
        };
        let t = Instant::now();
        let res = find_saturation(
            alg,
            &script,
            &base.params().with_replications(sh.reps),
            seed,
            &saturate_search(o.size),
        );
        layers.pass_ns += ns(t);
        let at = check_search(alg, &res)?;
        pool_search(alg, &res, at, pool);
        layers.probes += res.probes.len() as u64;
        for &(load, sustained) in &res.probes {
            let cfg = Config {
                throughput: load,
                ..base
            };
            let mut runs = Vec::new();
            for r in 0..sh.reps {
                let spec = RunSpec {
                    alg,
                    script: script.clone(),
                    cfg,
                    seed: derive_seed(seed, r as u64),
                };
                let (once, _) =
                    layers.untraced(|| run_once(alg, &script, &cfg.params(), spec.seed));
                redrive_matched(&spec, &once, layers)?;
                runs.push(once);
            }
            let held = runs.iter().filter(|r| r.mean_latency_ms.is_some()).count() * 2 > sh.reps;
            let knee_matches = load != res.t_star
                || (at.runs.len() == runs.len()
                    && at.runs.iter().zip(&runs).all(|(x, y)| same_run(x, y)));
            if held != sustained || !knee_matches {
                return Err(format!(
                    "{alg:?} at {load}/s: run_once disagrees with find_saturation"
                ));
            }
        }
    }
    Ok(())
}

/// Traced exploration: tuple generation, the `explore` call, every
/// examined tuple alone through `run_tuple` and the re-drive, and the
/// scratch-pool A/B.
fn traced_explore(o: &Opts, pool: &mut Pool, layers: &mut Layers) -> Result<(), String> {
    let budget = shape(o).budget;
    let Chunk::Explore { explorer } = chunk(o, 0) else {
        unreachable!("explore-mix chunks are explorations")
    };
    let t = Instant::now();
    let generated = tuples_of(&explorer, budget);
    layers.gen_ns += ns(t);
    layers.gen_tuples += generated.len() as u64;

    let t = Instant::now();
    let ex = explorer.explore();
    layers.pass_ns += ns(t);

    pool.attempted += ex.examined as u64;
    pool.failed += check_exploration(&ex)?;
    let tuples = examined(generated, &ex);
    for (tuple, fails) in &tuples {
        let (verdict, dt) = layers.untraced(|| run_tuple(tuple));
        let class = usize::from(tuple.n >= 64);
        let a = alg_index(tuple.alg);
        layers.tuple_ns[class][a] += dt;
        layers.tuple_n[class][a] += 1;
        let (run, tr) = redrive_tuple(tuple)?;
        check_tuple(tuple, *fails, &verdict, &run)?;
        layers.add(tuple.alg, &tr);
    }

    // Scratch-pool A/B over the same tuples, alternating, best of two.
    let mut best = [(f64::INFINITY, 0u64); 2];
    for on in [true, false, true, false] {
        set_run_scratch(on);
        let a0 = allocations();
        let t = Instant::now();
        for (tuple, _) in &tuples {
            std::hint::black_box(run_tuple(std::hint::black_box(tuple)));
        }
        let wall = t.elapsed().as_secs_f64();
        let slot = &mut best[usize::from(!on)];
        if wall < slot.0 {
            *slot = (wall, allocations() - a0);
        }
    }
    set_run_scratch(true);
    let n = tuples.len() as f64;
    for (i, (wall, allocs)) in best.into_iter().enumerate() {
        layers.scratch[i] = (n / wall, allocs as f64 / n);
    }
    Ok(())
}

/// The traced run: chunk 0 of the workload, every per-layer metric.
pub fn run_traced(o: &Opts) -> Result<Report, String> {
    count_allocations(true);
    let mut pool = Pool::default();
    let mut layers = Layers::default();
    match chunk(o, 0) {
        Chunk::Sweep { points, cfgs, .. } => {
            traced_sweep(o, &points, &cfgs, &mut pool, &mut layers)?
        }
        Chunk::Search { .. } => traced_search(o, &mut pool, &mut layers)?,
        Chunk::Explore { .. } => traced_explore(o, &mut pool, &mut layers)?,
    }
    count_allocations(false);
    let mut r = Report {
        attempted: pool.attempted,
        failed: pool.failed,
        ..Report::default()
    };
    layer_metrics(o, &layers, &mut r);
    Ok(r)
}

fn layer_metrics(o: &Opts, l: &Layers, r: &mut Report) {
    let f = |x: u64| x as f64;
    let bcasts: u64 = l.alg.iter().map(|a| a.outer_cmds).sum();
    r.sim("neko.events", f(l.events), "count");
    r.host(
        "neko.self_ns_per_event",
        ratio(f(l.self_ns), f(l.events)),
        "ns",
    );
    r.sim("neko.queue_peak", f(l.queue_peak), "count");
    r.sim("neko.wire_per_bcast", ratio(f(l.wire), f(bcasts)), "count");
    r.sim(
        "neko.merges_per_bcast",
        ratio(f(l.merges), f(bcasts)),
        "count",
    );
    r.sim(
        "neko.cpu_util",
        ratio(f(l.cpu_busy_us), f(l.cpu_cap_us)),
        "ratio",
    );
    r.sim(
        "neko.net_util",
        ratio(f(l.net_busy_us), f(l.net_cap_us)),
        "ratio",
    );
    r.sim("neko.queue_highwater", f(l.queue_highwater), "count");

    let class = |alg: usize, c: Class, r: &mut Report, prefix: &str, count: &str| {
        let a = &l.alg[alg];
        let i = c as usize;
        r.sim(format!("{prefix}.{count}"), f(a.msgs[i]), "count");
        r.host(
            format!("{prefix}.ns_per_msg"),
            ratio(f(a.msg_ns[i]), f(a.msgs[i])),
            "ns",
        );
    };
    for (alg, name) in [(0, "fd"), (2, "ring")] {
        class(alg, Class::Rbcast, r, &format!("rbcast.{name}"), "msgs");
    }
    for (alg, name) in [(0, "fd"), (2, "ring")] {
        class(
            alg,
            Class::Consensus,
            r,
            &format!("consensus.{name}"),
            "msgs",
        );
        r.sim(
            format!("consensus.{name}.instances"),
            f(l.alg[alg].instances),
            "count",
        );
    }
    class(1, Class::Sequencer, r, "abcast.gm", "seq_msgs");
    class(1, Class::Membership, r, "membership.gm", "msgs");
    for (a, name) in ALG_NAMES.iter().enumerate() {
        r.sim(
            format!("abcast.{name}.nudges"),
            f(l.alg[a].timer_sends),
            "count",
        );
    }
    r.sim(
        "ringpaxos.ring.repair_msgs",
        f(l.alg[2].msgs[Class::Repair as usize]),
        "count",
    );
    for (a, name) in ALG_NAMES.iter().enumerate() {
        let al = &l.alg[a];
        r.sim(
            format!("abcast.{name}.timer_calls"),
            f(al.timer_calls),
            "count",
        );
        r.host(
            format!("abcast.{name}.cmd_ns"),
            ratio(f(al.cmd_ns), f(al.alg_cmds)),
            "ns",
        );
        r.sim(
            format!("abcast.{name}.sends_per_bcast"),
            ratio(f(al.sends), f(al.outer_cmds)),
            "count",
        );
    }
    let packs: u64 = l.alg.iter().map(|a| a.alg_cmds).sum();
    r.sim(
        "abcast.batch.payloads_per_pack",
        ratio(f(bcasts), f(packs)),
        "count",
    );
    r.sim(
        "abcast.batch.deadline_flushes",
        f(l.alg.iter().map(|a| a.deadline_flushes).sum()),
        "count",
    );

    r.host(
        "study.compile_us",
        ratio(f(l.compile_ns), f(l.redrives)) / 1e3,
        "us",
    );
    r.sim(
        "study.compile_entries",
        ratio(f(l.compile_entries), f(l.redrives)),
        "count",
    );
    r.host(
        "study.arrivals_us_per_k",
        ratio(f(l.arrivals_ns), f(l.arrivals)),
        "us",
    );
    r.host(
        "study.run_once_ms",
        ratio(f(l.untraced_ns), f(l.redrives)) / 1e6,
        "ms",
    );
    r.host(
        "study.sweep_util",
        ratio(f(l.untraced_ns), o.workers as f64 * f(l.pass_ns)),
        "ratio",
    );
    r.sim("study.saturate.probes", f(l.probes), "count");
    r.host(
        "study.oracle.ns_per_delivery",
        ratio(f(l.oracle_ns), f(l.deliveries)),
        "ns",
    );
    r.host(
        "study.explore.gen_us",
        ratio(f(l.gen_ns), f(l.gen_tuples)) / 1e3,
        "us",
    );
    for (class, label) in ["small", "n64"].iter().enumerate() {
        for (a, name) in ALG_NAMES.iter().enumerate() {
            r.host(
                format!("study.explore.tuple_ms.{label}.{name}"),
                ratio(f(l.tuple_ns[class][a]), f(l.tuple_n[class][a])) / 1e6,
                "ms",
            );
        }
    }
    r.host(
        "alloc.per_bcast",
        ratio(f(l.allocs), f(l.arrivals)),
        "allocs",
    );
    r.host(
        "alloc.per_tuple",
        ratio(f(l.allocs), f(l.redrives)),
        "allocs",
    );
    r.host("study.scratch.tuples_per_s.on", l.scratch[0].0, "1/s");
    r.host("study.scratch.tuples_per_s.off", l.scratch[1].0, "1/s");
    r.host("alloc.per_tuple.on", l.scratch[0].1, "allocs");
    r.host("alloc.per_tuple.off", l.scratch[1].1, "allocs");
    r.host(
        "trace.overhead",
        ratio(f(l.redrive_ns), f(l.untraced_ns)),
        "ratio",
    );
    r.sim("trace.redrive_runs", f(l.redrives), "count");
}
