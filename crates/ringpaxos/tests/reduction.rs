//! The FD reduction's state-machine tests, run against both of its
//! strategies — the FD algorithm's payload-carrying batches
//! ([`Bodies`]) and the ring's ids-only values ([`Ring`]) — plus the
//! ring-only payload-repair tests.

use abcast::{Bodies, CastAction, CastMsg, FdAbcast, Machine, MsgId, Strategy};
use consensus::ConsensusMsg;
use fdet::SuspectSet;
use neko::{FdEvent, Pid};
use ringpaxos::{Ring, RingAbcast, RingAction, RingMsg};

type Msg<S> = <S as Strategy<u32>>::Msg;
type Act<S> = CastAction<Msg<S>, u32>;
type Queue<M> = Vec<(usize, usize, M)>;

fn nodes<S: Strategy<u32>>(n: usize) -> Vec<FdAbcast<u32, S>> {
    (0..n)
        .map(|i| FdAbcast::new(Pid::new(i), n, &SuspectSet::new()))
        .collect()
}

fn is_data<S: Strategy<u32>>(m: &Msg<S>) -> bool {
    matches!(S::split(m.clone()), Ok(CastMsg::Data(_)))
}

fn is_decision<S: Strategy<u32>>(m: &Msg<S>, k: u64) -> bool {
    matches!(
        S::split(m.clone()),
        Ok(CastMsg::Cons { k: kk, inner: ConsensusMsg::Decide(_) }) if kk == k
    )
}

/// Routes actions until quiescence (FIFO), returning deliveries
/// per process.
fn drive<S: Strategy<u32>>(
    nodes: &mut [FdAbcast<u32, S>],
    mut queue: Queue<Msg<S>>,
) -> Vec<Vec<(MsgId, u32)>> {
    let n = nodes.len();
    let mut delivered = vec![Vec::new(); n];
    let mut steps = 0;
    while !queue.is_empty() {
        steps += 1;
        assert!(steps < 100_000, "no quiescence");
        let (from, to, m) = queue.remove(0);
        let mut out = Vec::new();
        nodes[to].on_message(Pid::new(from), m, &mut out);
        route(to, out, n, &mut queue, None, &mut delivered);
    }
    delivered
}

/// Routes actions onto the FIFO wire and records deliveries. With
/// `cut`, traffic addressed to p3 is captured there for manual replay
/// instead (p3 is cut off and lagging).
fn route<M: Clone>(
    from: usize,
    out: Vec<CastAction<M, u32>>,
    n: usize,
    queue: &mut Queue<M>,
    mut cut: Option<&mut Vec<(usize, M)>>,
    delivered: &mut [Vec<(MsgId, u32)>],
) {
    let mut push = |to: usize, m: M| match cut.as_deref_mut() {
        Some(to_p3) if to == 2 => to_p3.push((from, m)),
        _ => queue.push((from, to, m)),
    };
    for a in out {
        match a {
            CastAction::Send(to, m) => push(to.index(), m),
            CastAction::Multicast(m) => {
                for to in (0..n).filter(|&to| to != from) {
                    push(to, m.clone());
                }
            }
            CastAction::Deliver { id, payload } => delivered[from].push((id, payload)),
            CastAction::Group(_) | CastAction::Retry(_) => {}
        }
    }
}

/// p1 and p2 each A-broadcast one of `values` and decide among
/// themselves while everything addressed to p3 is captured.
fn decide_without_p3<S: Strategy<u32>>(
    ns: &mut [FdAbcast<u32, S>],
    values: &[(usize, u32)],
) -> Vec<(usize, Msg<S>)> {
    let mut to_p3 = Vec::new();
    let mut delivered = vec![Vec::new(); 3];
    for &(origin, v) in values {
        let mut out = Vec::new();
        ns[origin].broadcast(v, &mut out);
        let mut queue = Vec::new();
        route(origin, out, 3, &mut queue, Some(&mut to_p3), &mut delivered);
        let mut steps = 0;
        while !queue.is_empty() {
            steps += 1;
            assert!(steps < 100_000, "no quiescence");
            let (from, to, m) = queue.remove(0);
            let mut out = Vec::new();
            ns[to].on_message(Pid::new(from), m, &mut out);
            route(to, out, 3, &mut queue, Some(&mut to_p3), &mut delivered);
        }
    }
    to_p3
}

fn single_broadcast_delivered_everywhere_in_same_order<S: Strategy<u32>>() {
    let mut ns = nodes::<S>(3);
    let mut out = Vec::new();
    let id = ns[1].broadcast(77, &mut out);
    let mut queue = Vec::new();
    let mut delivered = vec![Vec::new(); 3];
    route(1, out, 3, &mut queue, None, &mut delivered);
    let more = drive(&mut ns, queue);
    for (i, d) in more.iter().enumerate() {
        let mut all = delivered[i].clone();
        all.extend(d.iter().cloned());
        assert_eq!(all, vec![(id, 77)], "at p{}", i + 1);
    }
    // One decision, applied everywhere: every process advanced to
    // the next instance.
    for n in &ns {
        assert_eq!(n.instance(), 2, "all advanced");
    }
}

fn concurrent_broadcasts_are_totally_ordered<S: Strategy<u32>>() {
    let mut ns = nodes::<S>(3);
    let mut queue = Vec::new();
    let mut delivered = vec![Vec::new(); 3];
    for (i, n) in ns.iter_mut().enumerate() {
        let mut out = Vec::new();
        n.broadcast(10 + i as u32, &mut out);
        route(i, out, 3, &mut queue, None, &mut delivered);
    }
    let more = drive(&mut ns, queue);
    let mut logs: Vec<Vec<(MsgId, u32)>> = Vec::new();
    for i in 0..3 {
        let mut all = delivered[i].clone();
        all.extend(more[i].iter().cloned());
        logs.push(all);
    }
    assert_eq!(logs[0].len(), 3);
    assert_eq!(logs[0], logs[1]);
    assert_eq!(logs[1], logs[2]);
}

fn back_to_back_broadcasts_all_ordered<S: Strategy<u32>>() {
    // Messages that arrive while a consensus is in flight are
    // decided by a later instance; nothing is lost and the order
    // is identical everywhere.
    let mut ns = nodes::<S>(3);
    let mut queue = Vec::new();
    let mut delivered = vec![Vec::new(); 3];
    for v in [1u32, 2u32, 3u32] {
        let mut out = Vec::new();
        ns[0].broadcast(v, &mut out);
        route(0, out, 3, &mut queue, None, &mut delivered);
    }
    let more = drive(&mut ns, queue);
    for i in 0..3 {
        let mut all = delivered[i].clone();
        all.extend(more[i].iter().cloned());
        assert_eq!(all.len(), 3, "at p{}", i + 1);
    }
    assert_eq!(ns[0].delivered_log(), ns[1].delivered_log());
    assert_eq!(ns[1].delivered_log(), ns[2].delivered_log());
    assert_eq!(ns[0].pending(), 0);
}

/// Regression for a total-order violation found by the schedule
/// explorer (`study::explore`): a lagging process buffers early
/// consensus traffic per instance in `future`. Draining that
/// buffer can *decide* the instance and chain-advance `k`; the
/// remaining buffered messages — here a second copy of the
/// instance's decision, as the relay produces — must still go to
/// the instance they were buffered for. Before the fix they were
/// fed to the new current instance, which then "decided" with the
/// old instance's value and silently diverged from the group.
fn buffered_duplicate_decision_stays_in_its_instance<S: Strategy<u32>>() {
    let mut ns = nodes::<S>(3);
    // Instances 1 and 2 decide among p1 and p2 while p3 hears
    // nothing (quorum 2 of 3 suffices).
    let to_p3 = decide_without_p3(&mut ns, &[(0, 10), (1, 20)]);
    assert_eq!(ns[0].instance(), 3);
    assert_eq!(ns[0].delivered_log(), ns[1].delivered_log());
    assert_eq!(ns[0].delivered_log().len(), 2);

    // What the wire holds for p3: the rb payloads and each
    // instance's decision.
    let datas: Vec<(usize, Msg<S>)> = to_p3
        .iter()
        .filter(|(_, m)| is_data::<S>(m))
        .cloned()
        .collect();
    let decide = |k: u64| {
        to_p3
            .iter()
            .find(|(_, m)| is_decision::<S>(m, k))
            .cloned()
            .unwrap_or_else(|| panic!("instance {k}'s decision crossed the wire"))
    };
    let (f1, d1) = decide(1);
    let (f2, d2) = decide(2);

    // p3 receives the payloads, A-broadcasts one of its own (so it
    // keeps something pending), then gets instance 2's decision
    // twice — multicast plus relay copy — while still at instance
    // 1, and finally instance 1's decision.
    let mut out = Vec::new();
    for (from, m) in datas {
        ns[2].on_message(Pid::new(from), m, &mut out);
    }
    ns[2].broadcast(30, &mut out);
    ns[2].on_message(Pid::new(f2), d2.clone(), &mut out);
    ns[2].on_message(Pid::new(f2), d2, &mut out);
    ns[2].on_message(Pid::new(f1), d1, &mut out);

    // p3 catches up in the group's exact order …
    let p3_deliveries: Vec<MsgId> = out
        .iter()
        .filter_map(|a| match a {
            CastAction::Deliver { id, .. } => Some(*id),
            _ => None,
        })
        .collect();
    assert_eq!(p3_deliveries, ns[0].delivered_log());
    assert_eq!(ns[2].delivered_log(), ns[0].delivered_log());
    // … and the duplicate decision copy must not have fabricated a
    // decision for instance 3 (whose real batch is still open).
    assert_eq!(
        ns[2].instance(),
        3,
        "a duplicate buffered decision must stay in its own instance"
    );
    assert_eq!(ns[2].pending(), 1, "p3's own broadcast is still undecided");
}

/// Incoming consensus traffic opens the current instance even at a
/// process that holds no payload of it: p3 hears instance 1's
/// decision before any data, with nothing pending, and must still
/// apply it once the data arrives.
fn decision_opens_the_instance_without_pending<S: Strategy<u32>>() {
    let mut ns = nodes::<S>(3);
    let to_p3 = decide_without_p3(&mut ns, &[(0, 10)]);
    assert_eq!(ns[0].instance(), 2);
    let (decisions, datas): (Vec<_>, Vec<_>) = to_p3
        .into_iter()
        .filter(|(_, m)| is_decision::<S>(m, 1) || is_data::<S>(m))
        .partition(|(_, m)| is_decision::<S>(m, 1));
    assert!(
        !decisions.is_empty(),
        "instance 1's decision crossed the wire"
    );
    let mut out = Vec::new();
    for (from, m) in decisions.into_iter().chain(datas) {
        ns[2].on_message(Pid::new(from), m, &mut out);
    }
    assert_eq!(ns[2].delivered_log(), ns[0].delivered_log());
    assert_eq!(ns[2].instance(), ns[0].instance());
}

/// The Data multicast of a fresh broadcast from p1.
fn data_of_a_broadcast<S: Strategy<u32>>(ns: &mut [FdAbcast<u32, S>]) -> Msg<S> {
    let mut out: Vec<Act<S>> = Vec::new();
    ns[0].broadcast(9, &mut out);
    out.into_iter()
        .find_map(|a| match a {
            CastAction::Multicast(m) if is_data::<S>(&m) => Some(m),
            _ => None,
        })
        .expect("data multicast")
}

fn duplicate_data_is_idempotent<S: Strategy<u32>>() {
    let mut ns = nodes::<S>(3);
    let data = data_of_a_broadcast(&mut ns);
    // Deliver the Data multicast twice to p2.
    let mut out1 = Vec::new();
    ns[1].on_message(Pid::new(0), data.clone(), &mut out1);
    assert_eq!(ns[1].pending(), 1);
    let mut out2 = Vec::new();
    ns[1].on_message(Pid::new(0), data, &mut out2);
    assert!(out2.is_empty(), "duplicate ignored: {out2:?}");
    assert_eq!(ns[1].pending(), 1);
}

fn suspicion_relays_pending_payloads<S: Strategy<u32>>() {
    let mut ns = nodes::<S>(3);
    let data = data_of_a_broadcast(&mut ns);
    let mut out1 = Vec::new();
    ns[1].on_message(Pid::new(0), data, &mut out1);
    let mut out_fd = Vec::new();
    ns[1].on_fd(FdEvent::Suspect(Pid::new(0)), &mut out_fd);
    assert!(
        out_fd
            .iter()
            .any(|a| matches!(a, CastAction::Multicast(m) if is_data::<S>(m))),
        "pending payload from the suspect is relayed: {out_fd:?}"
    );
}

/// Instantiates each generic test once per strategy.
macro_rules! for_both_strategies {
    ($($name:ident),* $(,)?) => {
        mod fd {
            $(#[test]
            fn $name() {
                super::$name::<abcast::Bodies>();
            })*
        }
        mod ring {
            $(#[test]
            fn $name() {
                super::$name::<ringpaxos::Ring<u32>>();
            })*
        }
    };
}

for_both_strategies!(
    single_broadcast_delivered_everywhere_in_same_order,
    concurrent_broadcasts_are_totally_ordered,
    back_to_back_broadcasts_all_ordered,
    buffered_duplicate_decision_stays_in_its_instance,
    decision_opens_the_instance_without_pending,
    duplicate_data_is_idempotent,
    suspicion_relays_pending_payloads,
);

/// FD's decisions carry their bodies, so they never wait for one.
#[test]
fn fd_never_blocks_on_a_missing_payload() {
    let mut ns = nodes::<Bodies>(3);
    let to_p3 = decide_without_p3(&mut ns, &[(0, 10)]);
    // p3 never receives the payload, only the decision, after a
    // broadcast of its own.
    let mut out = Vec::new();
    ns[2].broadcast(30, &mut out);
    for (from, m) in to_p3
        .into_iter()
        .filter(|(_, m)| is_decision::<Bodies>(m, 1))
    {
        ns[2].on_message(Pid::new(from), m, &mut out);
    }
    assert_eq!(ns[2].delivered_log(), ns[0].delivered_log());
    assert!(ns[2].missing_payloads().is_empty());
}

/// The ring's raison d'être: a decision whose payload never
/// arrived blocks delivery, a fetch walks to a holder, and the
/// forwarded body unblocks delivery in the agreed order.
#[test]
fn missing_payload_is_fetched_and_delivery_stays_in_order() {
    let mut ns = nodes::<Ring<u32>>(3);
    // p1 and p2 decide two batches while p3 hears nothing.
    let to_p3 = decide_without_p3(&mut ns, &[(0, 10), (1, 20)]);
    assert_eq!(ns[0].delivered_log().len(), 2);

    // The cut heals selectively: p3 receives the *second*
    // broadcast's body and both decisions, but the first
    // broadcast's Data multicast is lost for good. p3 must block
    // on batch 1, not deliver out of order or out of thin air.
    let mut out = Vec::new();
    let second_data = to_p3
        .iter()
        .find(|(from, m)| *from == 1 && matches!(m, RingMsg::Data(_)))
        .cloned()
        .expect("second broadcast's data");
    ns[2].on_message(Pid::new(second_data.0), second_data.1, &mut out);
    for (from, m) in to_p3
        .iter()
        .filter(|(_, m)| {
            matches!(
                m,
                RingMsg::Cons {
                    inner: ConsensusMsg::Decide(_),
                    ..
                }
            )
        })
        .cloned()
    {
        ns[2].on_message(Pid::new(from), m, &mut out);
    }
    assert!(
        !out.iter().any(|a| matches!(a, RingAction::Deliver { .. })),
        "batch 1's payload is missing, so nothing may deliver: {out:?}"
    );
    assert!(
        out.iter()
            .any(|a| matches!(a, RingAction::Send(_, RingMsg::Fetch { .. }))),
        "blocked delivery issues a fetch: {out:?}"
    );
    assert_eq!(ns[2].missing_payloads().len(), 1);

    // Route p3's repair traffic against the live group until
    // quiescent: the fetched body arrives and p3 ends with the
    // group's exact log.
    let mut queue = Vec::new();
    let mut delivered = vec![Vec::new(); 3];
    route(2, out, 3, &mut queue, None, &mut delivered);
    drive(&mut ns, queue);
    assert_eq!(
        ns[2].delivered_log(),
        ns[0].delivered_log(),
        "fetched payloads deliver in the agreed order"
    );
    assert!(ns[2].missing_payloads().is_empty());
}

/// A fetch hop that holds nothing forwards the remainder to its
/// ring successor with a decremented ttl, and a ttl of 1 ends the
/// walk.
#[test]
fn fetch_forwards_around_the_ring_and_ttl_bounds_the_walk() {
    let mut ns: Vec<RingAbcast<u32>> = nodes(5);
    let id = MsgId {
        origin: Pid::new(3),
        seq: 0,
    };
    let mut out = Vec::new();
    ns[1].on_message(
        Pid::new(0),
        RingMsg::Fetch {
            requester: Pid::new(0),
            ids: vec![id],
            ttl: 3,
        },
        &mut out,
    );
    // p2 holds nothing: no Fwd, one forward to its ring successor.
    assert_eq!(out.len(), 1);
    match &out[0] {
        RingAction::Send(
            to,
            RingMsg::Fetch {
                requester,
                ids,
                ttl,
            },
        ) => {
            assert_eq!(*to, Pid::new(2), "ring successor of p2");
            assert_eq!(*requester, Pid::new(0));
            assert_eq!(ids, &vec![id]);
            assert_eq!(*ttl, 2);
        }
        other => panic!("expected a forwarded fetch, got {other:?}"),
    }
    let mut out = Vec::new();
    ns[1].on_message(
        Pid::new(0),
        RingMsg::Fetch {
            requester: Pid::new(0),
            ids: vec![id],
            ttl: 1,
        },
        &mut out,
    );
    assert!(out.is_empty(), "ttl exhausted: {out:?}");
}

/// Duplicate forwarded bodies (two acceptors both answered, or a
/// retried fetch double-resolved) deliver exactly once.
#[test]
fn duplicate_fwd_is_idempotent() {
    let mut ns = nodes::<Ring<u32>>(3);
    let to_p3 = decide_without_p3(&mut ns, &[(0, 10)]);
    let decision = to_p3
        .iter()
        .find(|(_, m)| is_decision::<Ring<u32>>(m, 1))
        .cloned()
        .expect("decision");
    // p3 A-broadcasts its own message (its multicast is lost to
    // the cut) so it has a pending message and an open instance —
    // the state any real participant is in when consensus traffic
    // reaches it.
    let mut out = Vec::new();
    ns[2].broadcast(30, &mut out);
    let mut out = Vec::new();
    ns[2].on_message(Pid::new(decision.0), decision.1, &mut out);
    let fwd = RingMsg::Fwd {
        msgs: vec![(ns[0].delivered_log()[0], 10)],
    };
    let mut out1 = Vec::new();
    ns[2].on_message(Pid::new(0), fwd.clone(), &mut out1);
    let deliveries = |v: &Vec<RingAction<u32>>| {
        v.iter()
            .filter(|a| matches!(a, RingAction::Deliver { .. }))
            .count()
    };
    assert_eq!(deliveries(&out1), 1, "first copy delivers: {out1:?}");
    let mut out2 = Vec::new();
    ns[2].on_message(Pid::new(1), fwd, &mut out2);
    assert_eq!(deliveries(&out2), 0, "second copy is a no-op: {out2:?}");
    assert_eq!(ns[2].delivered_log().len(), 1);
}

#[test]
fn ring_messages_never_merge() {
    use neko::Message;
    let mut ns = nodes::<Ring<u32>>(3);
    let data = data_of_a_broadcast(&mut ns);
    let mut a = data.clone();
    assert!(!a.try_merge(&data));
}
