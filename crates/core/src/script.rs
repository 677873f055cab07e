//! The fault-script layer: composable, timed fault injection.
//!
//! A [`FaultScript`] is an ordered timeline of typed fault events —
//! crashes, recoveries, suspicion bursts, network partitions, churn —
//! that *compiles* down to the kernel's unified injection stream
//! ([`neko::Injection`]). The paper's four benchmark scenarios
//! (Section 5.2) are four one-line constructors; anything richer —
//! crash-then-recover, a healing partition, rolling churn — is the
//! same grammar with more events.
//!
//! The compiled `(Time, Injection)` stream is backend-agnostic: any
//! [`neko::Runtime`] can schedule it. The simulator interprets the
//! timestamps as simulated time; the real-time runtime replays the
//! same stream as a wall-clock schedule (crashes pause threads, each
//! thread gates its own sends across a partition, FD edges update its
//! suspect set as in the kernel) — that is what makes every scenario
//! below runnable *for real* through `Backend::Real`.
//!
//! Compilation is the one place that gives a fault its meaning: a
//! crash, recovery or partition becomes its kernel injection plus the
//! failure-detector edges it causes `T_D` later (only wrong suspicions
//! are sampled, by [`fdet::suspicion_burst_plan`]), and the compiled
//! script carries each process's down intervals
//! ([`CompiledScript::down_intervals`]), which the runner and the
//! schedule explorer read to tell which broadcasts could enter the
//! system.
//!
//! ## Grammar
//!
//! * [`FaultScript::normal_steady`] — the empty script;
//! * [`FaultScript::crash_steady`] — crashes that happened long ago;
//! * [`FaultScript::suspicion_steady`] — wrong suspicions at a QoS;
//! * [`FaultScript::crash_transient`] — one crash after warm-up with
//!   a probe broadcast at the crash instant;
//! * builder methods ([`crash`](FaultScript::crash),
//!   [`recover`](FaultScript::recover),
//!   [`suspicion_burst`](FaultScript::suspicion_burst),
//!   [`partition`](FaultScript::partition),
//!   [`churn`](FaultScript::churn),
//!   [`with_probe`](FaultScript::with_probe)) compose freely.
//!
//! Times are [`ScriptTime`]s: absolute, warm-up-relative, or "end of
//! run" — so one script runs unchanged under different run
//! dimensions.
//!
//! ```
//! use neko::{Dur, Pid};
//! use study::FaultScript;
//!
//! // The paper's crash-transient scenario (Fig. 8) …
//! let fig8 = FaultScript::crash_transient(Pid::new(0), Pid::new(1), Dur::from_millis(10));
//! assert!(fig8.has_probe());
//!
//! // … and one the paper could not measure: crash, then recover.
//! let beyond = FaultScript::crash_recover(
//!     Pid::new(0),
//!     Dur::from_millis(200),
//!     Dur::from_millis(500),
//!     Dur::from_millis(30),
//! );
//! assert_eq!(beyond.events().len(), 2);
//! ```

use fdet::{suspicion_burst_plan, QosParams, SuspectSet};
use neko::{derive_seed, Dur, FdEvent, Injection, Partition, Pid, Time};

/// A point on a script's timeline, resolved against the run
/// dimensions when the script is compiled.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ScriptTime {
    /// An absolute simulated time.
    At(Time),
    /// The given duration after the end of the warm-up window.
    AfterWarmup(Dur),
    /// The end of the run.
    End,
}

impl ScriptTime {
    fn resolve(self, warmup: Dur, end: Time) -> Time {
        match self {
            ScriptTime::At(t) => t,
            ScriptTime::AfterWarmup(d) => Time::ZERO + warmup + d,
            ScriptTime::End => end,
        }
    }
}

/// One typed fault on a script's timeline.
///
/// A crash resolving to time zero is an **ancient** crash: the
/// process has been down since long before the measurement, so every
/// survivor suspects it from the start, it never broadcasts, and no
/// detection delay applies — exactly the paper's crash-steady
/// semantics.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultEvent {
    /// `pid` crashes at `at`; every survivor suspects it `detection`
    /// later.
    Crash {
        /// Crash instant.
        at: ScriptTime,
        /// The crashing process.
        pid: Pid,
        /// Failure-detector detection time `T_D`.
        detection: Dur,
    },
    /// `pid` recovers at `at` with its pre-crash state; every other
    /// process trusts it again `detection` later.
    Recover {
        /// Recovery instant.
        at: ScriptTime,
        /// The recovering process.
        pid: Pid,
        /// Time for the detectors to notice the recovery.
        detection: Dur,
    },
    /// Wrong suspicions inside `[from, until)` at the given QoS
    /// (`T_MR`, `T_M`), independently per monitored pair; `targets`
    /// restricts *who gets suspected* (everyone when `None`).
    SuspicionBurst {
        /// Start of the burst window.
        from: ScriptTime,
        /// End of the burst window.
        until: ScriptTime,
        /// Mistake recurrence/duration parameters.
        qos: QosParams,
        /// The processes wrongly suspected (all when `None`).
        targets: Option<Vec<Pid>>,
    },
    /// The network splits into `groups` at `at` (crossing messages
    /// are dropped); `detection` later each side suspects the other.
    /// When `heal_at` is given the partition heals there and the
    /// suspicions are withdrawn `detection` after the heal.
    Partition {
        /// Cut instant.
        at: ScriptTime,
        /// The disjoint process groups.
        groups: Vec<Vec<Pid>>,
        /// Heal instant, if the partition heals inside the run.
        heal_at: Option<ScriptTime>,
        /// Failure-detector detection time for cut and heal.
        detection: Dur,
    },
    /// `pid` leaves at `at` and rejoins `downtime` later — one step
    /// of a rolling-churn schedule (sugar for a crash plus a
    /// recovery).
    Churn {
        /// Leave instant.
        at: ScriptTime,
        /// The churning process.
        pid: Pid,
        /// How long the process stays away.
        downtime: Dur,
        /// Failure-detector detection time for leave and rejoin.
        detection: Dur,
    },
}

impl FaultEvent {
    /// The down (`true`) and up (`false`) edges of a crash, a recovery
    /// or a churn, as `(process, instant, down)`. A churn is a crash
    /// plus a recovery `downtime` later.
    fn edges(
        &self,
        resolve: impl Fn(ScriptTime) -> Time,
    ) -> impl Iterator<Item = (Pid, Time, bool)> {
        let edges = match *self {
            FaultEvent::Crash { at, pid, .. } => [Some((pid, resolve(at), true)), None],
            FaultEvent::Recover { at, pid, .. } => [Some((pid, resolve(at), false)), None],
            FaultEvent::Churn {
                at, pid, downtime, ..
            } => {
                let t = resolve(at);
                [Some((pid, t, true)), Some((pid, t + downtime, false))]
            }
            FaultEvent::SuspicionBurst { .. } | FaultEvent::Partition { .. } => [None, None],
        };
        edges.into_iter().flatten()
    }
}

/// A probe measurement: one marked broadcast whose latency is
/// measured on its own (the paper's crash-transient methodology).
#[derive(Clone, Copy, Debug, PartialEq)]
struct Probe {
    at: ScriptTime,
    broadcaster: Pid,
}

/// An ordered timeline of fault events, plus an optional probe.
///
/// Scripts compile ([`FaultScript::compile`]) to a stream of
/// timestamped [`ScriptAction`]s that the experiment runner — or any
/// driver of a [`neko::Sim`] — schedules verbatim.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultScript {
    events: Vec<FaultEvent>,
    probe: Option<Probe>,
}

impl FaultScript {
    /// The empty script: neither crashes nor wrong suspicions (the
    /// paper's **normal-steady** scenario).
    pub fn normal_steady() -> Self {
        FaultScript::default()
    }

    /// The paper's **crash-steady** scenario: the listed processes
    /// crashed long before the measurement.
    pub fn crash_steady(crashed: &[Pid]) -> Self {
        crashed.iter().fold(FaultScript::default(), |s, &pid| {
            s.crash(ScriptTime::At(Time::ZERO), pid, Dur::ZERO)
        })
    }

    /// The paper's **suspicion-steady** scenario: no crashes, wrong
    /// suspicions at the given QoS for the whole run.
    pub fn suspicion_steady(qos: QosParams) -> Self {
        FaultScript::default().suspicion_burst(
            ScriptTime::At(Time::ZERO),
            ScriptTime::End,
            qos,
            None,
        )
    }

    /// The paper's **crash-transient** scenario: `crash` fails right
    /// after warm-up while `broadcaster` broadcasts a probe at the
    /// same instant; survivors detect the crash `detection` later.
    ///
    /// # Panics
    ///
    /// Panics if `crash == broadcaster` (the probe's broadcaster must
    /// survive).
    pub fn crash_transient(crash: Pid, broadcaster: Pid, detection: Dur) -> Self {
        assert_ne!(crash, broadcaster, "the probe's broadcaster must survive");
        FaultScript::default()
            .crash(ScriptTime::AfterWarmup(Dur::ZERO), crash, detection)
            .with_probe(ScriptTime::AfterWarmup(Dur::ZERO), broadcaster)
    }

    /// Beyond the paper: `pid` crashes `crash_after` past warm-up and
    /// recovers `downtime` later.
    pub fn crash_recover(pid: Pid, crash_after: Dur, downtime: Dur, detection: Dur) -> Self {
        FaultScript::default()
            .crash(ScriptTime::AfterWarmup(crash_after), pid, detection)
            .recover(
                ScriptTime::AfterWarmup(crash_after + downtime),
                pid,
                detection,
            )
    }

    /// Beyond the paper: the network splits into `groups` at
    /// `cut_after` past warm-up and heals `healing` later.
    pub fn healing_partition(
        groups: Vec<Vec<Pid>>,
        cut_after: Dur,
        healing: Dur,
        detection: Dur,
    ) -> Self {
        FaultScript::default().partition(
            ScriptTime::AfterWarmup(cut_after),
            groups,
            Some(ScriptTime::AfterWarmup(cut_after + healing)),
            detection,
        )
    }

    /// Appends a crash event.
    pub fn crash(self, at: ScriptTime, pid: Pid, detection: Dur) -> Self {
        self.event(FaultEvent::Crash { at, pid, detection })
    }

    /// Appends a recovery event.
    pub fn recover(self, at: ScriptTime, pid: Pid, detection: Dur) -> Self {
        self.event(FaultEvent::Recover { at, pid, detection })
    }

    /// Appends a suspicion burst.
    pub fn suspicion_burst(
        self,
        from: ScriptTime,
        until: ScriptTime,
        qos: QosParams,
        targets: Option<Vec<Pid>>,
    ) -> Self {
        self.event(FaultEvent::SuspicionBurst {
            from,
            until,
            qos,
            targets,
        })
    }

    /// Appends a partition (healing at `heal_at`, if given).
    pub fn partition(
        self,
        at: ScriptTime,
        groups: Vec<Vec<Pid>>,
        heal_at: Option<ScriptTime>,
        detection: Dur,
    ) -> Self {
        self.event(FaultEvent::Partition {
            at,
            groups,
            heal_at,
            detection,
        })
    }

    /// Appends one churn step: `pid` leaves at `at`, rejoins
    /// `downtime` later.
    pub fn churn(self, at: ScriptTime, pid: Pid, downtime: Dur, detection: Dur) -> Self {
        self.event(FaultEvent::Churn {
            at,
            pid,
            downtime,
            detection,
        })
    }

    /// Appends an arbitrary event.
    pub fn event(mut self, ev: FaultEvent) -> Self {
        self.events.push(ev);
        self
    }

    /// Marks the run as a probe measurement: `broadcaster` broadcasts
    /// one marked message at `at` and only that message's latency is
    /// measured (the crash-transient methodology). Scheduled after
    /// any crash injection at the same instant.
    pub fn with_probe(mut self, at: ScriptTime, broadcaster: Pid) -> Self {
        self.probe = Some(Probe { at, broadcaster });
        self
    }

    /// The script's events, in timeline order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether this script measures a probe instead of the steady
    /// flow.
    pub fn has_probe(&self) -> bool {
        self.probe.is_some()
    }

    /// The probe's broadcaster, if any.
    pub fn probe_broadcaster(&self) -> Option<Pid> {
        self.probe.map(|p| p.broadcaster)
    }

    /// The probe's resolved broadcast instant, if any. The run's
    /// drain window counts from here, so a late probe still gets its
    /// full delivery time.
    ///
    /// # Panics
    ///
    /// Panics if the probe is anchored at [`ScriptTime::End`] — such
    /// a probe could never be delivered.
    pub fn probe_time(&self, warmup: Dur) -> Option<Time> {
        self.probe.map(|p| {
            assert!(
                !matches!(p.at, ScriptTime::End),
                "a probe at the end of the run can never be delivered"
            );
            p.at.resolve(warmup, Time::ZERO)
        })
    }

    /// Compiles the script for a system of `n` processes against the
    /// run dimensions: `warmup` resolves
    /// [`ScriptTime::AfterWarmup`], `end` resolves
    /// [`ScriptTime::End`], and `seed` drives the stochastic events
    /// (suspicion bursts).
    pub fn compile(&self, n: usize, warmup: Dur, end: Time, seed: u64) -> CompiledScript {
        let resolve = |st: ScriptTime| st.resolve(warmup, end);
        // Crashes resolving to time zero are ancient: suspected from
        // the start and excluded from the workload.
        let ancient: Vec<Pid> = self
            .events
            .iter()
            .filter_map(|ev| match ev {
                FaultEvent::Crash { at, pid, .. } if resolve(*at) == Time::ZERO => Some(*pid),
                _ => None,
            })
            .collect();
        // Per-process `[crash, recover)` intervals over the whole
        // timeline. At a same-instant tie the crash comes first, a
        // second crash leaves the open interval open, and a recovery
        // of a process that is up is ignored.
        let down: Vec<Vec<(Time, Option<Time>)>> = Pid::all(n)
            .map(|p| {
                let mut edges: Vec<(Time, bool)> = self
                    .events
                    .iter()
                    .flat_map(|ev| ev.edges(&resolve))
                    .filter(|&(pid, ..)| pid == p)
                    .map(|(_, t, crash)| (t, !crash))
                    .collect();
                edges.sort();
                let mut intervals: Vec<(Time, Option<Time>)> = Vec::new();
                for (t, up) in edges {
                    match (intervals.last_mut(), up) {
                        (Some((_, until @ None)), true) => *until = Some(t),
                        (Some((_, None)), false) | (_, true) => {}
                        (_, false) => intervals.push((t, None)),
                    }
                }
                intervals
            })
            .collect();
        let mut entries: Vec<(Time, ScriptAction)> = Vec::new();
        for &c in &ancient {
            entries.push(inject(Time::ZERO, Injection::Crash(c)));
        }
        // Every survivor suspects every ancient crash from the start.
        for q in Pid::all(n).filter(|q| !ancient.contains(q)) {
            for &p in &ancient {
                entries.push(inject(Time::ZERO, Injection::Fd(q, FdEvent::Suspect(p))));
            }
        }

        let mut bursts = 0u64;
        for ev in &self.events {
            match ev {
                FaultEvent::Crash { at, .. } if resolve(*at) == Time::ZERO => {
                    // Ancient, handled above.
                }
                FaultEvent::Crash { detection, .. }
                | FaultEvent::Recover { detection, .. }
                | FaultEvent::Churn { detection, .. } => {
                    for (pid, t, down_edge) in ev.edges(&resolve) {
                        // `T_D` after the crash (recovery) every other
                        // process suspects (trusts) `pid`.
                        let (action, seen) = if down_edge {
                            (Injection::Crash(pid), FdEvent::Suspect(pid))
                        } else {
                            (Injection::Recover(pid), FdEvent::Trust(pid))
                        };
                        entries.push(inject(t, action));
                        let noticed = t + *detection;
                        entries.extend(
                            Pid::all(n)
                                .filter(|&q| q != pid)
                                .map(|q| inject(noticed, Injection::Fd(q, seen))),
                        );
                        if down_edge {
                            continue;
                        }
                        // A process that recovers missed every FD edge
                        // delivered while it was down (the kernel drops
                        // them), so its own detector is resynchronized
                        // with ground truth at the delay its peers need
                        // to notice the recovery: otherwise stale
                        // suspicions from before the crash (e.g. a
                        // partition that healed in the meantime) poison
                        // the group forever. Redundant edges are dropped
                        // by the kernel, so this is a no-op for every
                        // pair the detector already has right.
                        for q in Pid::all(n).filter(|&q| q != pid) {
                            let truth = if down_at(&down, q, noticed) {
                                FdEvent::Suspect(q)
                            } else {
                                FdEvent::Trust(q)
                            };
                            entries.push(inject(noticed, Injection::Fd(pid, truth)));
                        }
                    }
                }
                FaultEvent::SuspicionBurst {
                    from,
                    until,
                    qos,
                    targets,
                } => {
                    // Burst #0 keeps the historical stream id so the
                    // paper's suspicion-steady runs stay bit-identical.
                    let stream = 0xFD ^ (bursts << 32);
                    bursts += 1;
                    let plan = suspicion_burst_plan(
                        n,
                        resolve(*from),
                        resolve(*until),
                        *qos,
                        derive_seed(seed, stream),
                        targets.as_deref(),
                    );
                    entries.extend(plan.into_iter().map(|(t, inj)| inject(t, inj)));
                }
                FaultEvent::Partition {
                    at,
                    groups,
                    heal_at,
                    detection,
                } => {
                    // `T_D` after the cut (heal) every process suspects
                    // (trusts) every process the cut hides from it.
                    let part = Partition::split(groups);
                    let t = resolve(*at);
                    entries.push(inject(t, Injection::Partition(part.clone())));
                    entries.extend(cross_edges(n, &part, t + *detection, FdEvent::Suspect));
                    if let Some(h) = heal_at {
                        let ht = resolve(*h);
                        entries.push(inject(ht, Injection::Heal));
                        entries.extend(cross_edges(n, &part, ht + *detection, FdEvent::Trust));
                    }
                }
            }
        }
        // Canonicalize: schedule order follows the timeline, with
        // same-instant ties broken by script (event-append) order —
        // the stable sort makes two scripts with the same timeline
        // compile identically however their events were appended.
        entries.sort_by_key(|(t, _)| *t);
        if let Some(probe) = self.probe {
            let t = resolve(probe.at);
            // After everything strictly earlier, and after crash
            // injections at the probe instant (a probe racing its own
            // trigger crash is broadcast by a survivor *after* the
            // crash took effect).
            let pos = entries
                .iter()
                .rposition(|(et, act)| {
                    *et < t
                        || (*et == t && matches!(act, ScriptAction::Inject(Injection::Crash(_))))
                })
                .map_or(0, |i| i + 1);
            entries.insert(pos, (t, ScriptAction::Probe(probe.broadcaster)));
        }
        CompiledScript {
            initial_suspects: ancient.iter().copied().collect(),
            ancient,
            down,
            entries,
        }
    }
}

/// The entry that schedules `inj` at `at`.
fn inject(at: Time, inj: Injection) -> (Time, ScriptAction) {
    (at, ScriptAction::Inject(inj))
}

/// The FD edges of a partition cut or heal at `at`: `edge(p)`
/// reported to every `q` that `part` cuts off from `p`.
fn cross_edges(
    n: usize,
    part: &Partition,
    at: Time,
    edge: fn(Pid) -> FdEvent,
) -> impl Iterator<Item = (Time, ScriptAction)> + '_ {
    Pid::all(n).flat_map(move |q| {
        Pid::all(n)
            .filter(move |&p| p != q && !part.allows(q, p))
            .map(move |p| inject(at, Injection::Fd(q, edge(p))))
    })
}

/// Whether `p` is inside one of its `[crash, recover)` intervals at
/// `at`.
fn down_at(down: &[Vec<(Time, Option<Time>)>], p: Pid, at: Time) -> bool {
    down.get(p.index()).is_some_and(|intervals| {
        intervals
            .iter()
            .any(|&(from, until)| at >= from && until.is_none_or(|u| at < u))
    })
}

/// One action of a compiled script. Schedule [`ScriptAction::Inject`]
/// entries via [`neko::Sim::schedule_injection`]; a
/// [`ScriptAction::Probe`] is the driver's cue to inject its marked
/// probe broadcast.
#[derive(Clone, Debug, PartialEq)]
pub enum ScriptAction {
    /// A kernel fault injection.
    Inject(Injection),
    /// The probe broadcast by the given process.
    Probe(Pid),
}

/// A [`FaultScript`] compiled against concrete run dimensions.
#[derive(Clone, Debug, PartialEq)]
pub struct CompiledScript {
    initial_suspects: SuspectSet,
    ancient: Vec<Pid>,
    down: Vec<Vec<(Time, Option<Time>)>>,
    entries: Vec<(Time, ScriptAction)>,
}

impl CompiledScript {
    /// What every failure detector reports at time zero (the ancient
    /// crashes); seeds the protocol state machines.
    pub fn initial_suspects(&self) -> &SuspectSet {
        &self.initial_suspects
    }

    /// Processes that crashed before the run started; they take no
    /// part in the workload.
    pub fn ancient_crashes(&self) -> &[Pid] {
        &self.ancient
    }

    /// The timestamped actions, in schedule order (order breaks
    /// same-instant ties).
    pub fn entries(&self) -> &[(Time, ScriptAction)] {
        &self.entries
    }

    /// Each process's down intervals `[crash, recover)`, indexed by
    /// pid, in time order (`None`: down for good).
    pub fn down_intervals(&self) -> &[Vec<(Time, Option<Time>)>] {
        &self.down
    }

    /// Whether `p` is down at `at`, by [`Self::down_intervals`].
    pub fn is_down(&self, p: Pid, at: Time) -> bool {
        down_at(&self.down, p, at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: Dur = Dur::from_millis(200);

    fn end() -> Time {
        Time::from_secs(3)
    }

    #[test]
    fn normal_steady_compiles_to_nothing() {
        let c = FaultScript::normal_steady().compile(3, W, end(), 1);
        assert!(c.entries().is_empty());
        assert!(c.initial_suspects().is_empty());
        assert!(c.ancient_crashes().is_empty());
    }

    #[test]
    fn crash_steady_marks_ancient_crashes() {
        let c = FaultScript::crash_steady(&[Pid::new(2)]).compile(3, W, end(), 1);
        assert_eq!(c.ancient_crashes(), &[Pid::new(2)]);
        assert!(c.initial_suspects().contains(Pid::new(2)));
        // Crash injection first, then one suspect edge per survivor,
        // all at time zero.
        assert_eq!(c.entries().len(), 3);
        assert_eq!(
            c.entries()[0],
            (
                Time::ZERO,
                ScriptAction::Inject(Injection::Crash(Pid::new(2)))
            )
        );
        for (t, act) in &c.entries()[1..] {
            assert_eq!(*t, Time::ZERO);
            assert!(matches!(
                act,
                ScriptAction::Inject(Injection::Fd(_, FdEvent::Suspect(_)))
            ));
        }
    }

    #[test]
    fn crash_transient_orders_crash_probe_edges() {
        let td = Dur::from_millis(50);
        let c = FaultScript::crash_transient(Pid::new(0), Pid::new(1), td).compile(3, W, end(), 1);
        assert!(
            c.ancient_crashes().is_empty(),
            "a warm-up crash is not ancient"
        );
        let tc = Time::ZERO + W;
        assert_eq!(
            c.entries()[0],
            (tc, ScriptAction::Inject(Injection::Crash(Pid::new(0))))
        );
        assert_eq!(c.entries()[1], (tc, ScriptAction::Probe(Pid::new(1))));
        for (t, act) in &c.entries()[2..] {
            assert_eq!(*t, tc + td);
            assert!(matches!(act, ScriptAction::Inject(Injection::Fd(..))));
        }
    }

    #[test]
    fn probe_follows_crash_even_at_zero_detection() {
        let c = FaultScript::crash_transient(Pid::new(0), Pid::new(1), Dur::ZERO).compile(
            3,
            W,
            end(),
            1,
        );
        assert!(matches!(
            c.entries()[0].1,
            ScriptAction::Inject(Injection::Crash(_))
        ));
        assert!(matches!(c.entries()[1].1, ScriptAction::Probe(_)));
    }

    #[test]
    fn crash_recover_emits_suspects_then_trusts() {
        let c = FaultScript::crash_recover(
            Pid::new(2),
            Dur::from_millis(100),
            Dur::from_millis(400),
            Dur::from_millis(30),
        )
        .compile(3, W, end(), 1);
        let tc = Time::ZERO + W + Dur::from_millis(100);
        let tr = tc + Dur::from_millis(400);
        let kinds: Vec<_> = c.entries().iter().map(|(t, a)| (*t, a.clone())).collect();
        assert_eq!(
            kinds[0],
            (tc, ScriptAction::Inject(Injection::Crash(Pid::new(2))))
        );
        assert!(kinds[1..3]
            .iter()
            .all(|(t, a)| *t == tc + Dur::from_millis(30)
                && matches!(
                    a,
                    ScriptAction::Inject(Injection::Fd(_, FdEvent::Suspect(_)))
                )));
        assert_eq!(
            kinds[3],
            (tr, ScriptAction::Inject(Injection::Recover(Pid::new(2))))
        );
        assert!(kinds[4..6]
            .iter()
            .all(|(t, a)| *t == tr + Dur::from_millis(30)
                && matches!(a, ScriptAction::Inject(Injection::Fd(_, FdEvent::Trust(_))))));
    }

    #[test]
    fn healing_partition_cuts_suspects_heals_trusts() {
        let groups = vec![vec![Pid::new(0), Pid::new(1)], vec![Pid::new(2)]];
        let c = FaultScript::healing_partition(
            groups,
            Dur::from_millis(100),
            Dur::from_millis(500),
            Dur::from_millis(20),
        )
        .compile(3, W, end(), 1);
        let cut = Time::ZERO + W + Dur::from_millis(100);
        let heal = cut + Dur::from_millis(500);
        assert!(matches!(
            c.entries()[0],
            (t, ScriptAction::Inject(Injection::Partition(_))) if t == cut
        ));
        let heal_pos = c
            .entries()
            .iter()
            .position(|(_, a)| matches!(a, ScriptAction::Inject(Injection::Heal)))
            .expect("heals");
        assert_eq!(c.entries()[heal_pos].0, heal);
        // 4 cross suspicions before the heal, 4 trusts after.
        assert_eq!(heal_pos, 5);
        assert_eq!(c.entries().len(), 10);
    }

    #[test]
    fn churn_desugars_to_crash_plus_recover() {
        let sugar = FaultScript::default()
            .churn(
                ScriptTime::AfterWarmup(Dur::from_millis(50)),
                Pid::new(1),
                Dur::from_millis(200),
                Dur::from_millis(10),
            )
            .compile(4, W, end(), 7);
        let manual = FaultScript::default()
            .crash(
                ScriptTime::AfterWarmup(Dur::from_millis(50)),
                Pid::new(1),
                Dur::from_millis(10),
            )
            .recover(
                ScriptTime::AfterWarmup(Dur::from_millis(250)),
                Pid::new(1),
                Dur::from_millis(10),
            )
            .compile(4, W, end(), 7);
        assert_eq!(sugar, manual);
    }

    #[test]
    fn suspicion_bursts_use_independent_streams() {
        let qos = QosParams::new()
            .with_mistake_recurrence(Dur::from_millis(50))
            .with_mistake_duration(Dur::from_millis(5));
        let twice = FaultScript::default()
            .suspicion_burst(ScriptTime::At(Time::ZERO), ScriptTime::End, qos, None)
            .suspicion_burst(ScriptTime::At(Time::ZERO), ScriptTime::End, qos, None)
            .compile(2, W, end(), 3);
        let once = FaultScript::suspicion_steady(qos).compile(2, W, end(), 3);
        // The first burst keeps the historical stream: every entry of
        // the single-burst compilation appears, in order, inside the
        // two-burst one (interleaved by time with the second burst's
        // independent — and differently sized — stream).
        assert!(twice.entries().len() > once.entries().len());
        let mut rest = twice.entries().iter();
        for e in once.entries() {
            assert!(
                rest.any(|x| x == e),
                "burst #0 entry missing from the pair: {e:?}"
            );
        }
    }

    #[test]
    fn compile_is_canonical_in_event_append_order() {
        // Two scripts with the same timeline, events appended in
        // opposite orders: the compiled schedule (including the
        // probe's same-instant placement) must be identical.
        let d = Dur::from_millis(10);
        let a = FaultScript::default()
            .crash(ScriptTime::At(Time::from_millis(50)), Pid::new(0), d)
            .recover(ScriptTime::At(Time::from_millis(100)), Pid::new(0), d)
            .with_probe(ScriptTime::At(Time::from_millis(100)), Pid::new(1));
        let b = FaultScript::default()
            .recover(ScriptTime::At(Time::from_millis(100)), Pid::new(0), d)
            .crash(ScriptTime::At(Time::from_millis(50)), Pid::new(0), d)
            .with_probe(ScriptTime::At(Time::from_millis(100)), Pid::new(1));
        assert_eq!(a.compile(3, W, end(), 1), b.compile(3, W, end(), 1));
    }

    /// The failure-detector edges of a compiled script, in order.
    fn fd_edges(c: &CompiledScript) -> Vec<(Time, Pid, FdEvent)> {
        c.entries()
            .iter()
            .filter_map(|(t, a)| match a {
                ScriptAction::Inject(Injection::Fd(q, ev)) => Some((*t, *q, *ev)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn crash_steady_survivors_suspect_every_ancient_crash_at_zero() {
        let c = FaultScript::crash_steady(&[Pid::new(2)]).compile(4, W, end(), 1);
        let edges = fd_edges(&c);
        assert_eq!(edges.len(), 3, "three survivors suspect p3");
        for (t, q, ev) in edges {
            assert_eq!(t, Time::ZERO);
            assert_ne!(q, Pid::new(2));
            assert_eq!(ev, FdEvent::Suspect(Pid::new(2)));
        }
        let c = FaultScript::crash_steady(&[Pid::new(0), Pid::new(1)]).compile(4, W, end(), 1);
        let edges = fd_edges(&c);
        // p3 and p4 each suspect p1 and p2.
        assert_eq!(edges.len(), 4);
        for (t, q, ev) in edges {
            assert_eq!(t, Time::ZERO);
            assert!(q.index() >= 2, "only survivors observe");
            assert!(matches!(ev, FdEvent::Suspect(p) if p.index() < 2));
        }
        assert_eq!(c.down_intervals()[0], vec![(Time::ZERO, None)]);
        assert!(c.down_intervals()[2].is_empty());
    }

    #[test]
    fn crash_and_recovery_are_noticed_detection_time_later() {
        let (crash, td) = (Pid::new(1), Dur::from_millis(40));
        let c = FaultScript::crash_recover(crash, Dur::from_millis(100), Dur::from_millis(400), td)
            .compile(3, W, end(), 1);
        let tc = Time::ZERO + W + Dur::from_millis(100);
        let tr = tc + Dur::from_millis(400);
        let edges = fd_edges(&c);
        // Two observers suspect, then trust; then the recovered
        // process's own detector is resynced (both peers are up).
        assert_eq!(edges.len(), 6);
        for &(t, q, ev) in &edges[..2] {
            assert_eq!((t, ev), (tc + td, FdEvent::Suspect(crash)));
            assert_ne!(q, crash);
        }
        for &(t, q, ev) in &edges[2..4] {
            assert_eq!((t, ev), (tr + td, FdEvent::Trust(crash)));
            assert_ne!(q, crash);
        }
        for &(t, q, ev) in &edges[4..] {
            assert_eq!((t, q), (tr + td, crash));
            assert!(matches!(ev, FdEvent::Trust(p) if p != crash));
        }
        assert_eq!(c.down_intervals()[1], vec![(tc, Some(tr))]);
        assert!(c.is_down(crash, tc) && !c.is_down(crash, tr));
    }

    #[test]
    fn partitions_cut_and_heal_exactly_the_cut_pairs() {
        let groups = vec![vec![Pid::new(0), Pid::new(1)], vec![Pid::new(2)]];
        let part = Partition::split(&groups);
        let td = Dur::from_millis(30);
        let c = FaultScript::healing_partition(
            groups,
            Dur::from_millis(100),
            Dur::from_millis(500),
            td,
        )
        .compile(3, W, end(), 1);
        let cut = Time::ZERO + W + Dur::from_millis(100) + td;
        let heal = cut + Dur::from_millis(500);
        let edges = fd_edges(&c);
        // p1⇹p3 and p2⇹p3, in both directions: suspected at the cut,
        // trusted at the heal.
        assert_eq!(edges.len(), 8);
        for (i, (t, q, ev)) in edges.into_iter().enumerate() {
            assert!(!part.allows(q, ev.subject()), "{q} -> {ev:?}");
            if i < 4 {
                assert_eq!(t, cut);
                assert!(matches!(ev, FdEvent::Suspect(_)));
            } else {
                assert_eq!(t, heal);
                assert!(matches!(ev, FdEvent::Trust(_)));
            }
        }
        assert!(c.down_intervals().iter().all(Vec::is_empty));
    }

    #[test]
    fn down_intervals_put_the_crash_first_and_ignore_redundant_edges() {
        let d = Dur::from_millis(10);
        let at = |ms| ScriptTime::At(Time::from_millis(ms));
        let p = Pid::new(1);
        let c = FaultScript::default()
            .recover(at(50), p, d) // of a process that is up: ignored
            .crash(at(100), p, d)
            .crash(at(150), p, d) // while down: the interval stays open
            .recover(at(300), p, d)
            .crash(at(400), p, d)
            .recover(at(400), p, d) // same-instant tie: crash first
            .compile(3, W, end(), 1);
        let ms = Time::from_millis;
        assert_eq!(
            c.down_intervals()[1],
            vec![(ms(100), Some(ms(300))), (ms(400), Some(ms(400)))]
        );
        assert!(!c.is_down(p, ms(99)) && c.is_down(p, ms(299)) && !c.is_down(p, ms(400)));
    }

    #[test]
    fn compile_is_deterministic() {
        let qos = QosParams::new().with_mistake_recurrence(Dur::from_millis(40));
        let script = FaultScript::suspicion_steady(qos);
        assert_eq!(
            script.compile(3, W, end(), 9),
            script.compile(3, W, end(), 9)
        );
        assert_ne!(
            script.compile(3, W, end(), 9),
            script.compile(3, W, end(), 10)
        );
    }

    /// Everything `compile` produces, pinned by value over a corpus:
    /// an FNV-1a digest of the `Debug` text of the entries, the
    /// ancient crashes, the initially suspected pids and the
    /// per-process down intervals. The corpus is the paper's scenario
    /// constructors at n = 3 and 7, the beyond-the-paper constructors,
    /// a churn, and the first 64 explorer tuples of four algorithms.
    #[test]
    fn compiled_scripts_are_pinned() {
        use crate::explore::Explorer;
        use crate::paper::{
            fig5_series, fig6_scenario, fig6_tmr_values_ms, fig7_scenario, fig7_tm_values_ms,
            fig8_scenario, FIG7_PANELS, FIG8_TD_MS, GROUP_SIZES,
        };
        use crate::runner::Algorithm;

        let d = Dur::from_millis(30);
        let at = |ms| ScriptTime::AfterWarmup(Dur::from_millis(ms));
        // (n, script, warm-up, end)
        let mut corpus: Vec<(usize, FaultScript, Dur, Time)> = Vec::new();
        for (_, n, _, crashed) in fig5_series() {
            corpus.push((n, FaultScript::crash_steady(&crashed), W, end()));
        }
        for n in GROUP_SIZES {
            corpus.push((n, FaultScript::normal_steady(), W, end()));
            for tmr in fig6_tmr_values_ms() {
                corpus.push((n, fig6_scenario(tmr), W, end()));
            }
            for td in FIG8_TD_MS {
                corpus.push((n, fig8_scenario(td), W, end()));
            }
            corpus.push((
                n,
                FaultScript::crash_recover(
                    Pid::new(0),
                    Dur::from_millis(100),
                    Dur::from_millis(400),
                    d,
                ),
                W,
                end(),
            ));
            let (left, right) = Pid::all(n).partition(|p| p.index() < n / 2 + 1);
            corpus.push((
                n,
                FaultScript::healing_partition(
                    vec![left, right],
                    Dur::from_millis(100),
                    Dur::from_millis(500),
                    d,
                ),
                W,
                end(),
            ));
        }
        for (n, _, tmr) in FIG7_PANELS {
            for tm in fig7_tm_values_ms() {
                corpus.push((n, fig7_scenario(tmr, tm), W, end()));
            }
        }
        let churn = (0..6).fold(FaultScript::default(), |s, i| {
            s.churn(
                at(100 * i),
                Pid::new(1 + i as usize % 3),
                Dur::from_millis(250),
                d,
            )
        });
        corpus.push((7, churn, W, end()));
        // A second crash of a down process and a recovery of an up one.
        let doubled = FaultScript::default()
            .crash(at(100), Pid::new(2), d)
            .crash(at(150), Pid::new(2), d)
            .recover(at(300), Pid::new(2), d)
            .recover(at(400), Pid::new(2), d);
        corpus.push((3, doubled, W, end()));
        let e = Explorer::new(0x5EED);
        for alg in [
            Algorithm::Fd,
            Algorithm::FdNoRenumber,
            Algorithm::Gm,
            Algorithm::Ring,
        ] {
            for i in 0..64 {
                let t = e.tuple(alg, i);
                let stop = Time::ZERO + t.horizon + t.drain;
                corpus.push((t.n, t.script, Dur::ZERO, stop));
            }
        }

        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (i, (n, script, warmup, stop)) in corpus.iter().enumerate() {
            let c = script.compile(*n, *warmup, *stop, i as u64);
            let suspected: Vec<Pid> = Pid::all(*n)
                .filter(|&p| c.initial_suspects().contains(p))
                .collect();
            let down = c.down_intervals();
            let text = format!(
                "{:?}\n{:?}\n{suspected:?}\n{down:?}\n",
                c.entries(),
                c.ancient_crashes()
            );
            for b in text.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(h, 0x43cf_b13a_67f2_e9cb, "{h:#018x}");
    }
}
