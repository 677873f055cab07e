//! Failure detectors modelled by their quality of service, after
//! Chen, Toueg and Aguilera (*On the quality of service of failure
//! detectors*, IEEE ToC 2002) — exactly as the paper does (Section
//! 6.2).
//!
//! In a system of `n` processes each process monitors every other, so
//! there are `n(n−1)` failure-detector modules. Each module is
//! characterised by three metrics:
//!
//! * **detection time** `T_D` — from the crash of `p` to the time `q`
//!   starts suspecting `p` permanently (constant in the paper);
//! * **mistake recurrence time** `T_MR` — time between two consecutive
//!   wrong suspicions (exponential);
//! * **mistake duration** `T_M` — how long a wrong suspicion lasts
//!   (exponential).
//!
//! Modules are independent and identically distributed, as in the
//! paper. `T_D` is a plain delay, which the fault-script compiler
//! (`study::FaultScript::compile`) adds to each crash, recovery and
//! partition edge it emits. The wrong suspicions need sampling:
//! [`suspicion_burst_plan`] turns `T_MR` and `T_M` into a *plan*, a
//! stream of timestamped [`neko::Injection::Fd`] edges ready for
//! [`neko::Sim::schedule_plan`].

use neko::{sample_exp_micros, stream_rng, Dur, FdEvent, Injection, Pid, Time};

/// The wrong-suspicion QoS parameters (`T_MR`, `T_M`) of the
/// (identically distributed) failure-detector modules. The detection
/// time `T_D` is a parameter of each crash, recovery and partition
/// of a fault script instead.
///
/// ```
/// use fdet::QosParams;
/// use neko::Dur;
///
/// let q = QosParams::new()
///     .with_mistake_recurrence(Dur::from_millis(1000))
///     .with_mistake_duration(Dur::from_millis(10));
/// assert!(q.makes_mistakes());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QosParams {
    mistake_recurrence: Dur,
    mistake_duration: Dur,
}

impl QosParams {
    /// A perfect detector: no mistakes.
    pub fn new() -> Self {
        QosParams {
            mistake_recurrence: Dur::MAX,
            mistake_duration: Dur::ZERO,
        }
    }

    /// Sets the mean mistake recurrence time `T_MR`. `Dur::MAX` means
    /// "never makes mistakes".
    pub fn with_mistake_recurrence(mut self, tmr: Dur) -> Self {
        self.mistake_recurrence = tmr;
        self
    }

    /// Sets the mean mistake duration `T_M`. Zero-duration mistakes
    /// still deliver a `Suspect` edge immediately followed by a
    /// `Trust` edge — algorithms react to the edge.
    pub fn with_mistake_duration(mut self, tm: Dur) -> Self {
        self.mistake_duration = tm;
        self
    }

    /// The mean mistake recurrence time `T_MR`.
    pub fn mistake_recurrence(&self) -> Dur {
        self.mistake_recurrence
    }

    /// The mean mistake duration `T_M`.
    pub fn mistake_duration(&self) -> Dur {
        self.mistake_duration
    }

    /// Whether this detector ever makes mistakes.
    pub fn makes_mistakes(&self) -> bool {
        self.mistake_recurrence != Dur::MAX
    }
}

impl Default for QosParams {
    fn default() -> Self {
        Self::new()
    }
}

/// Plan for a **suspicion burst**: wrong suspicions according to the
/// given QoS, but only inside the window `[from, until)` and — when
/// `targets` is given — only *about* the listed processes (every
/// process still observes them independently).
///
/// Overlapping mistakes of one pair are merged into a single
/// suspicion interval, so the emitted edges strictly alternate
/// `Suspect`/`Trust` per pair. Zero-length mistakes emit both edges
/// at the same instant (`Suspect` first), which is how the paper's
/// `T_M = 0` configuration still perturbs the algorithms.
pub fn suspicion_burst_plan(
    n: usize,
    from: Time,
    until: Time,
    params: QosParams,
    seed: u64,
    targets: Option<&[Pid]>,
) -> Vec<(Time, Injection)> {
    let mut plan = Vec::new();
    if !params.makes_mistakes() || until <= from {
        return plan;
    }
    let window = until.as_micros() - from.as_micros();
    let tmr_mean = params.mistake_recurrence().as_micros() as f64;
    let tm_mean = params.mistake_duration().as_micros() as f64;
    for q in Pid::all(n) {
        for p in Pid::all(n) {
            if p == q || targets.is_some_and(|ts| !ts.contains(&p)) {
                continue;
            }
            let stream = (q.index() * n + p.index()) as u64;
            let mut rng = stream_rng(seed, 0xFD00_0000 + stream);
            // Current merged suspicion interval [start, end), if any.
            let mut interval: Option<(u64, u64)> = None;
            // First mistake: stationary start — offset into the cycle.
            let mut next_start = sample_exp_micros(&mut rng, tmr_mean);
            while next_start < window {
                let dur = sample_exp_micros(&mut rng, tm_mean);
                let end = next_start.saturating_add(dur);
                interval = match interval {
                    None => Some((next_start, end)),
                    Some((s, e)) if next_start <= e => Some((s, e.max(end))),
                    Some((s, e)) => {
                        push_interval(&mut plan, q, p, s, e, from, window);
                        Some((next_start, end))
                    }
                };
                next_start =
                    next_start.saturating_add(sample_exp_micros(&mut rng, tmr_mean).max(1));
            }
            if let Some((s, e)) = interval {
                push_interval(&mut plan, q, p, s, e, from, window);
            }
        }
    }
    plan.sort_by_key(|(t, inj)| match inj {
        Injection::Fd(q, ev) => (*t, q.index(), matches!(ev, FdEvent::Trust(_))),
        _ => unreachable!("burst plans contain only FD edges"),
    });
    plan
}

fn push_interval(
    plan: &mut Vec<(Time, Injection)>,
    q: Pid,
    p: Pid,
    start: u64,
    end: u64,
    from: Time,
    window: u64,
) {
    let base = from.as_micros();
    plan.push((
        Time::from_micros(base + start),
        Injection::Fd(q, FdEvent::Suspect(p)),
    ));
    // The correction lands strictly after the mistake, even at
    // `T_M = 0` (1 µs later): two edges at the same instant rely on
    // insertion order, and a permuted schedule (`neko::Schedule`)
    // could deliver the Trust before the Suspect — turning a
    // zero-duration blip into a *permanent* wrong suspicion that no
    // correction ever follows, which breaks the eventual accuracy
    // both algorithms rely on.
    // (`start < window` always holds — the caller's loop condition —
    // so the lower bound never collides with the window clamp.)
    let end = end.max(start + 1).min(window);
    plan.push((
        Time::from_micros(base + end),
        Injection::Fd(q, FdEvent::Trust(p)),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Destructures an entry that must be an FD edge.
    fn fd(entry: &(Time, Injection)) -> (Time, Pid, FdEvent) {
        match entry {
            (t, Injection::Fd(q, ev)) => (*t, *q, *ev),
            other => panic!("expected an FD edge, got {other:?}"),
        }
    }

    #[test]
    fn qos_params_accessors_and_mistake_predicate() {
        let q = QosParams::new();
        assert_eq!(q.mistake_recurrence(), Dur::MAX);
        assert_eq!(q.mistake_duration(), Dur::ZERO);
        assert!(!q.makes_mistakes(), "the default detector is perfect");
        let q = q
            .with_mistake_recurrence(Dur::from_secs(2))
            .with_mistake_duration(Dur::from_millis(7));
        assert_eq!(q.mistake_recurrence(), Dur::from_secs(2));
        assert_eq!(q.mistake_duration(), Dur::from_millis(7));
        assert!(q.makes_mistakes());
        assert_eq!(QosParams::default(), QosParams::new());
    }

    #[test]
    fn burst_plan_is_empty_for_an_empty_window() {
        let params = QosParams::new()
            .with_mistake_recurrence(Dur::from_millis(10))
            .with_mistake_duration(Dur::from_millis(5));
        let t = Time::from_secs(1);
        assert!(suspicion_burst_plan(3, t, t, params, 1, None).is_empty());
        assert!(suspicion_burst_plan(3, t, Time::from_millis(500), params, 1, None).is_empty());
    }

    #[test]
    fn zero_duration_corrections_land_strictly_after_their_mistake() {
        // The T_M = 0 configuration must never emit a Suspect/Trust
        // pair at the same instant: under a permuted event schedule
        // (`neko::Schedule`) same-instant edges can swap, turning a
        // momentary blip into a permanent wrong suspicion. Every
        // trust lands ≥ 1 µs after its suspect, per pair.
        let params = QosParams::new()
            .with_mistake_recurrence(Dur::from_millis(50))
            .with_mistake_duration(Dur::ZERO);
        let plan = suspicion_burst_plan(3, Time::ZERO, Time::from_secs(5), params, 17, None);
        assert!(!plan.is_empty());
        for q in Pid::all(3) {
            for p in Pid::all(3) {
                let mut open: Option<Time> = None;
                for entry in &plan {
                    let (t, at, ev) = fd(entry);
                    if at != q || ev.subject() != p {
                        continue;
                    }
                    match ev {
                        FdEvent::Suspect(_) => open = Some(t),
                        FdEvent::Trust(_) => {
                            let s = open.take().expect("trust follows suspect");
                            assert!(t > s, "{q}->{p}: trust at {t} not after {s}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn suspicion_plan_is_empty_for_perfect_detector() {
        let plan = suspicion_burst_plan(
            3,
            Time::ZERO,
            Time::from_secs(10),
            QosParams::new(),
            1,
            None,
        );
        assert!(plan.is_empty());
    }

    #[test]
    fn suspicion_plan_alternates_per_pair() {
        let params = QosParams::new()
            .with_mistake_recurrence(Dur::from_millis(50))
            .with_mistake_duration(Dur::from_millis(20));
        let plan = suspicion_burst_plan(3, Time::ZERO, Time::from_secs(20), params, 7, None);
        assert!(!plan.is_empty());
        // Per ordered pair, edges alternate S, T, S, T, … and never
        // move backwards in time.
        for q in Pid::all(3) {
            for p in Pid::all(3) {
                let edges: Vec<_> = plan
                    .iter()
                    .map(fd)
                    .filter(|(_, at, ev)| *at == q && ev.subject() == p)
                    .collect();
                let mut suspected = false;
                let mut last = Time::ZERO;
                for (t, _, ev) in edges {
                    assert!(t >= last);
                    last = t;
                    match ev {
                        FdEvent::Suspect(_) => {
                            assert!(!suspected, "double suspect for {q}->{p}");
                            suspected = true;
                        }
                        FdEvent::Trust(_) => {
                            assert!(suspected, "trust without suspect for {q}->{p}");
                            suspected = false;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn suspicion_plan_zero_duration_mistakes_emit_both_edges() {
        let params = QosParams::new()
            .with_mistake_recurrence(Dur::from_millis(100))
            .with_mistake_duration(Dur::ZERO);
        let plan = suspicion_burst_plan(2, Time::ZERO, Time::from_secs(10), params, 3, None);
        assert!(!plan.is_empty());
        assert_eq!(plan.len() % 2, 0);
        // Every suspect is matched by a trust *strictly after* it
        // (1 µs for a zero-duration mistake): a same-instant pair
        // would rely on insertion order, which a permuted schedule
        // (`neko::Schedule`) does not preserve — the Trust could land
        // first and leave a permanent wrong suspicion behind.
        let suspects = plan
            .iter()
            .map(fd)
            .filter(|(_, _, e)| matches!(e, FdEvent::Suspect(_)));
        let trusts: Vec<_> = plan
            .iter()
            .map(fd)
            .filter(|(_, _, e)| matches!(e, FdEvent::Trust(_)))
            .collect();
        for (i, (t, q, _)) in suspects.enumerate() {
            assert_eq!(trusts[i].0, t + Dur::from_micros(1));
            assert_eq!(trusts[i].1, q);
        }
    }

    #[test]
    fn suspicion_plan_mistake_rate_tracks_tmr() {
        let tmr = Dur::from_millis(200);
        let params = QosParams::new()
            .with_mistake_recurrence(tmr)
            .with_mistake_duration(Dur::ZERO);
        let horizon = Time::from_secs(400);
        let plan = suspicion_burst_plan(2, Time::ZERO, horizon, params, 11, None);
        // 2 ordered pairs × (400 s / 0.2 s) ≈ 4000 mistakes expected;
        // each mistake is 2 edges. Allow ±15%.
        let mistakes = plan.len() as f64 / 2.0;
        let expected = 2.0 * horizon.as_secs_f64() / tmr.as_secs_f64();
        assert!(
            (mistakes - expected).abs() < 0.15 * expected,
            "observed {mistakes}, expected ≈ {expected}"
        );
    }

    #[test]
    fn suspicion_plan_deterministic_in_seed() {
        let params = QosParams::new()
            .with_mistake_recurrence(Dur::from_millis(50))
            .with_mistake_duration(Dur::from_millis(5));
        let a = suspicion_burst_plan(3, Time::ZERO, Time::from_secs(5), params, 42, None);
        let b = suspicion_burst_plan(3, Time::ZERO, Time::from_secs(5), params, 42, None);
        let c = suspicion_burst_plan(3, Time::ZERO, Time::from_secs(5), params, 43, None);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn burst_plan_stays_inside_its_window() {
        let params = QosParams::new()
            .with_mistake_recurrence(Dur::from_millis(20))
            .with_mistake_duration(Dur::from_millis(10));
        let from = Time::from_secs(2);
        let until = Time::from_secs(3);
        let plan = suspicion_burst_plan(3, from, until, params, 9, None);
        assert!(!plan.is_empty());
        for (t, _) in &plan {
            assert!(*t >= from && *t <= until, "edge at {t} escapes window");
        }
    }

    #[test]
    fn burst_plan_targets_restrict_subjects_not_observers() {
        let params = QosParams::new()
            .with_mistake_recurrence(Dur::from_millis(20))
            .with_mistake_duration(Dur::from_millis(5));
        let target = Pid::new(2);
        let plan = suspicion_burst_plan(
            4,
            Time::ZERO,
            Time::from_secs(2),
            params,
            13,
            Some(&[target]),
        );
        assert!(!plan.is_empty());
        let mut observers = std::collections::BTreeSet::new();
        for entry in &plan {
            let (_, q, ev) = fd(entry);
            assert_eq!(ev.subject(), target, "only the target is suspected");
            observers.insert(q.index());
        }
        assert_eq!(observers.len(), 3, "every other process observes");
    }
}
