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
//! same stream as a wall-clock schedule (crashes pause threads,
//! partitions gate a router, FD edges force the heartbeat detector's
//! mask) — that is what makes every scenario below runnable *for
//! real* through `Backend::Real`.
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

use fdet::{
    crash_steady_plan, crash_transient_plan, partition_cut_plan, partition_heal_plan,
    recovery_plan, suspicion_burst_plan, QosParams, SuspectSet,
};
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
        let mut initial_suspects = SuspectSet::new();
        for &c in &ancient {
            initial_suspects.apply(FdEvent::Suspect(c));
        }
        let mut entries: Vec<(Time, ScriptAction)> = Vec::new();
        let inject = |entries: &mut Vec<(Time, ScriptAction)>, plan: Vec<(Time, Injection)>| {
            entries.extend(
                plan.into_iter()
                    .map(|(t, inj)| (t, ScriptAction::Inject(inj))),
            );
        };
        // Per-process up/down edges over the whole timeline, for the
        // detector resync below: a process that recovers missed every
        // FD edge delivered while it was down (the kernel drops them),
        // so its own detector must be re-synchronized with ground
        // truth at recovery — otherwise stale suspicions from before
        // the crash (e.g. a partition that healed in the meantime)
        // poison the group forever.
        let mut updown: Vec<Vec<(Time, bool)>> = vec![Vec::new(); n];
        for (pid, t, down) in self.events.iter().flat_map(|ev| ev.edges(&resolve)) {
            updown[pid.index()].push((t, down));
        }
        for tl in &mut updown {
            tl.sort();
        }
        let down_at = |q: Pid, t: Time| {
            updown[q.index()]
                .iter()
                .rev()
                .find(|(edge, _)| *edge <= t)
                .is_some_and(|(_, down)| *down)
        };
        // The recovered process's own detector, resynced at the same
        // detection delay its peers need to notice the recovery:
        // suspect exactly the processes that are down at that instant
        // (redundant edges are dropped by the kernel, so this is a
        // no-op for every pair the detector already has right).
        let resync = |entries: &mut Vec<(Time, ScriptAction)>, pid: Pid, at: Time| {
            for q in Pid::all(n) {
                if q == pid {
                    continue;
                }
                let edge = if down_at(q, at) {
                    FdEvent::Suspect(q)
                } else {
                    FdEvent::Trust(q)
                };
                entries.push((at, ScriptAction::Inject(Injection::Fd(pid, edge))));
            }
        };
        for &c in &ancient {
            entries.push((Time::ZERO, ScriptAction::Inject(Injection::Crash(c))));
        }
        inject(&mut entries, crash_steady_plan(n, &ancient));

        let mut bursts = 0u64;
        for ev in &self.events {
            match ev {
                FaultEvent::Crash { at, .. } if resolve(*at) == Time::ZERO => {
                    // Ancient, handled above.
                }
                FaultEvent::Crash { detection, .. }
                | FaultEvent::Recover { detection, .. }
                | FaultEvent::Churn { detection, .. } => {
                    for (pid, t, down) in ev.edges(&resolve) {
                        if down {
                            entries.push((t, ScriptAction::Inject(Injection::Crash(pid))));
                            inject(&mut entries, crash_transient_plan(n, pid, t, *detection));
                        } else {
                            entries.push((t, ScriptAction::Inject(Injection::Recover(pid))));
                            inject(&mut entries, recovery_plan(n, pid, t, *detection));
                            resync(&mut entries, pid, t + *detection);
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
                    inject(
                        &mut entries,
                        suspicion_burst_plan(
                            n,
                            resolve(*from),
                            resolve(*until),
                            *qos,
                            derive_seed(seed, stream),
                            targets.as_deref(),
                        ),
                    );
                }
                FaultEvent::Partition {
                    at,
                    groups,
                    heal_at,
                    detection,
                } => {
                    let part = Partition::split(groups);
                    let t = resolve(*at);
                    entries.push((t, ScriptAction::Inject(Injection::Partition(part.clone()))));
                    inject(&mut entries, partition_cut_plan(n, &part, t, *detection));
                    if let Some(h) = heal_at {
                        let ht = resolve(*h);
                        entries.push((ht, ScriptAction::Inject(Injection::Heal)));
                        inject(&mut entries, partition_heal_plan(n, &part, ht, *detection));
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
            initial_suspects,
            ancient,
            entries,
        }
    }
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
        assert!(c.initial_suspects().is_suspected(Pid::new(2)));
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
}
