//! Property tests for the ring crate's two load-bearing claims.
//!
//! 1. **Ring membership is the reference rotation.** `ring_members` /
//!    `ring_successor` must match an independently written model under
//!    arbitrary suspicion churn — the ring is derived locally from FD
//!    output on every process, so any divergence between two
//!    formulations is a split-brain repair overlay.
//! 2. **Payload forwarding is exactly-once.** A laggard that lost an
//!    arbitrary subset of payload bodies, then lives through a
//!    coordinator failover, must end with the group's exact delivery
//!    log — no duplicate from retried fetches or double-served
//!    forwards, no gap, no reordering — even when every repair
//!    message is adversarially duplicated on the wire.

use abcast::{Machine, MsgId};
use fdet::SuspectSet;
use neko::{FdEvent, Pid};
use proptest::prelude::*;
use ringpaxos::{ring_members, ring_size, ring_successor, RingAbcast, RingAction, RingMsg};

/// Deterministic helper RNG (the vendored proptest generates the
/// seeds; this expands one seed into a stream of choices).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An independent formulation of the ring: rank every process by
/// `(suspected, rotation distance from first)`, take the best f+1,
/// then order the chosen by rotation distance. Unsuspected processes
/// in rotation order come first, suspected ones pad in rotation order
/// when trust runs out — the same contract as `ring_members`, reached
/// through a sort instead of a two-pass scan.
fn reference_members(n: usize, first: Pid, suspects: &SuspectSet) -> Vec<Pid> {
    let size = ring_size(n).min(n);
    let mut ranked: Vec<(bool, usize, Pid)> = (0..n)
        .map(|i| {
            let p = Pid::new(i);
            let d = (n + i - first.index()) % n;
            (suspects.contains(p), d, p)
        })
        .collect();
    ranked.sort();
    let mut chosen: Vec<(usize, Pid)> = ranked
        .into_iter()
        .take(size)
        .map(|(_, d, p)| (d, p))
        .collect();
    chosen.sort();
    chosen.into_iter().map(|(_, p)| p).collect()
}

type Queue = Vec<(usize, usize, RingMsg<u32>)>;

/// Pushes a node's output onto the FIFO wire, duplicating every
/// repair message (`Fetch`/`Fwd`) when `dup_repair` — the adversary
/// the exactly-once property must survive.
fn route(
    from: usize,
    out: Vec<RingAction<u32>>,
    n: usize,
    dup_repair: bool,
    queue: &mut Queue,
    logs: &mut [Vec<(MsgId, u32)>],
) {
    for a in out {
        match a {
            RingAction::Send(to, m) => {
                let copies =
                    if dup_repair && matches!(m, RingMsg::Fetch { .. } | RingMsg::Fwd { .. }) {
                        2
                    } else {
                        1
                    };
                for _ in 0..copies {
                    queue.push((from, to.index(), m.clone()));
                }
            }
            RingAction::Multicast(m) => {
                for to in 0..n {
                    if to != from {
                        queue.push((from, to, m.clone()));
                    }
                }
            }
            RingAction::Deliver { id, payload } => logs[from].push((id, payload)),
            RingAction::Group(_) | RingAction::Retry(_) => {}
        }
    }
}

/// Runs the wire to quiescence.
fn drain(
    nodes: &mut [RingAbcast<u32>],
    queue: &mut Queue,
    dup_repair: bool,
    logs: &mut [Vec<(MsgId, u32)>],
) {
    let n = nodes.len();
    let mut steps = 0;
    while !queue.is_empty() {
        steps += 1;
        assert!(steps < 200_000, "no quiescence");
        let (from, to, m) = queue.remove(0);
        let mut out = Vec::new();
        nodes[to].on_message(Pid::new(from), m, &mut out);
        route(to, out, n, dup_repair, queue, logs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ring_rotation_matches_the_reference_model_under_churn(
        n in 1usize..=9,
        first in 0usize..9,
        seed in any::<u64>(),
        steps in 1usize..40,
    ) {
        let first = Pid::new(first % n);
        let mut s = SuspectSet::new();
        let mut rng = seed;
        for _ in 0..steps {
            let r = splitmix64(&mut rng);
            let p = Pid::new((r as usize >> 8) % n);
            s.apply(if r & 1 == 0 {
                FdEvent::Suspect(p)
            } else {
                FdEvent::Trust(p)
            });

            let members = ring_members(n, first, &s);
            assert_eq!(members, reference_members(n, first, &s), "{s:?}");
            // Always exactly f+1 distinct members.
            assert_eq!(members.len(), ring_size(n).min(n));
            let set: std::collections::BTreeSet<Pid> = members.iter().copied().collect();
            assert_eq!(set.len(), members.len(), "duplicate member");

            // Walking successors from the head visits every member
            // exactly once and wraps — the ring really is a ring.
            if members.len() > 1 {
                let mut at = members[0];
                let mut walk = vec![at];
                for _ in 1..members.len() {
                    at = ring_successor(at, n, first, &s).expect("ring of ≥ 2");
                    walk.push(at);
                }
                assert_eq!(walk, members, "successor walk is the ring");
                assert_eq!(
                    ring_successor(at, n, first, &s),
                    Some(members[0]),
                    "the walk wraps"
                );
            } else {
                assert_eq!(ring_successor(members[0], n, first, &s), None);
            }
            // A non-member enters at the head.
            for i in 0..n {
                let p = Pid::new(i);
                if !members.contains(&p) {
                    assert_eq!(ring_successor(p, n, first, &s), Some(members[0]));
                }
            }
        }
    }

    #[test]
    fn payload_forwarding_is_exactly_once_across_coordinator_failover(
        n in 3usize..=5,
        seed in any::<u64>(),
    ) {
        failover_case(n, seed);
    }
}

fn failover_case(n: usize, seed: u64) {
    let lag = n - 1;
    let mut rng = seed;
    let mut nodes: Vec<RingAbcast<u32>> = (0..n)
        .map(|i| RingAbcast::new(Pid::new(i), n, &SuspectSet::new()))
        .collect();
    let mut logs: Vec<Vec<(MsgId, u32)>> = vec![Vec::new(); n];

    // Phase 1 — the cut: live processes broadcast and decide among
    // themselves; everything addressed to the laggard is captured,
    // everything the laggard sends is captured.
    let mut to_lag: Vec<(usize, RingMsg<u32>)> = Vec::new();
    let mut from_lag: Vec<RingMsg<u32>> = Vec::new();
    let mut queue: Queue = Vec::new();
    for (i, node) in nodes.iter_mut().take(n - 1).enumerate() {
        let mut out = Vec::new();
        node.broadcast(100 + i as u32, &mut out);
        route(i, out, n, false, &mut queue, &mut logs);
    }
    {
        let mut out = Vec::new();
        nodes[lag].broadcast(900, &mut out);
        for a in out {
            if let RingAction::Multicast(m) = a {
                from_lag.push(m);
            }
        }
    }
    let mut steps = 0;
    while !queue.is_empty() {
        steps += 1;
        assert!(steps < 200_000, "no quiescence during the cut");
        let (from, to, m) = queue.remove(0);
        if to == lag {
            to_lag.push((from, m));
            continue;
        }
        let mut out = Vec::new();
        nodes[to].on_message(Pid::new(from), m, &mut out);
        route(to, out, n, false, &mut queue, &mut logs);
    }
    let group_log = logs[0].clone();
    assert_eq!(group_log.len(), n - 1, "live group delivered its own");

    // Phase 2 — lossy replay: the laggard hears the captured
    // stream in order, except each payload body is dropped with
    // probability one half. Its replies are still lost to the cut
    // (only its deliveries count — those are local).
    for (from, m) in to_lag {
        if matches!(m, RingMsg::Data(_)) && splitmix64(&mut rng) & 1 == 0 {
            continue;
        }
        let mut out = Vec::new();
        nodes[lag].on_message(Pid::new(from), m, &mut out);
        for a in out {
            if let RingAction::Deliver { id, payload } = a {
                logs[lag].push((id, payload));
            }
        }
    }

    // Phase 3 — coordinator failover boundary: every process
    // suspects p1 while the laggard's repair is mid-flight, so
    // rings rotate and in-flight fetches re-target.
    let mut queue: Queue = Vec::new();
    for (i, node) in nodes.iter_mut().enumerate() {
        let mut out = Vec::new();
        node.on_fd(FdEvent::Suspect(Pid::new(0)), &mut out);
        route(i, out, n, true, &mut queue, &mut logs);
    }

    // Phase 4 — heal: the laggard's own broadcast finally reaches
    // the live group, and repeated stall probes drive the payload
    // repair to completion. Every Fetch/Fwd is duplicated on the
    // wire: exactly-once must come from the machine, not the
    // network being polite.
    for m in from_lag {
        for to in 0..n - 1 {
            queue.push((lag, to, m.clone()));
        }
    }
    drain(&mut nodes, &mut queue, true, &mut logs);
    for _ in 0..8 {
        if logs.iter().all(|l| l.len() == n) {
            break;
        }
        for (i, node) in nodes.iter_mut().enumerate() {
            let mut out = Vec::new();
            node.probe(&mut out);
            route(i, out, n, true, &mut queue, &mut logs);
        }
        drain(&mut nodes, &mut queue, true, &mut logs);
    }

    // Exactly-once, in the agreed order, at every process.
    for (i, log) in logs.iter().enumerate() {
        assert_eq!(
            log.len(),
            n,
            "p{} delivered everything once: {log:?}",
            i + 1
        );
        let ids: std::collections::BTreeSet<MsgId> = log.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids.len(), log.len(), "p{} delivered a duplicate", i + 1);
        assert_eq!(log, &logs[0], "p{} diverged from the group order", i + 1);
    }
    assert!(
        logs[lag].starts_with(&group_log),
        "the laggard replayed the group's history verbatim"
    );
    assert!(nodes[lag].missing_payloads().is_empty());
}
