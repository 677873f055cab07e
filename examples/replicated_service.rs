//! Active replication — the paper's motivating application (Section
//! 5.1): a service replicated with atomic broadcast, where the client
//! waits for the *first* reply, so client response time tracks the
//! broadcast's min-latency.
//!
//! A tiny replicated key-value store runs on top of the FD algorithm:
//! every replica A-broadcasts client commands, applies the totally
//! ordered command stream to its local map, and the example checks all
//! replicas end in the same state even though one replica crashes
//! mid-run.
//!
//! ```text
//! cargo run --release --example replicated_service
//! ```

use std::collections::BTreeMap;

use abcast::{AbcastEvent, FdNode};
use fdet::SuspectSet;
use neko::{Dur, FdEvent, Injection, Pid, SimBuilder, Time};

/// A client command: `SET key value`, encoded as a payload string.
fn set(key: &str, value: u64) -> String {
    format!("{key}={value}")
}

/// Applies the totally ordered command log to a state machine.
fn apply(log: &[String]) -> BTreeMap<String, u64> {
    let mut kv = BTreeMap::new();
    for cmd in log {
        let (k, v) = cmd.split_once('=').expect("well-formed command");
        kv.insert(k.to_string(), v.parse().expect("numeric value"));
    }
    kv
}

fn main() {
    let n = 3;
    let suspects = SuspectSet::new();
    let mut sim = SimBuilder::new(n)
        .seed(7)
        .build_with(|p| FdNode::<String>::new(p, n, &suspects));

    // Clients send SETs through different replicas; two writers race
    // on the same key, so replicas agree only if the order is total.
    let mut t = Time::from_millis(5);
    for i in 0..30u64 {
        let replica = Pid::new((i % 3) as usize);
        sim.schedule_command(t, replica, set(&format!("k{}", i % 5), i));
        sim.schedule_command(t, Pid::new(((i + 1) % 3) as usize), set("contended", i));
        t += Dur::from_millis(7);
    }

    // Replica p3 crashes mid-run; detection 20 ms later.
    let crash_at = Time::from_millis(100);
    sim.schedule_crash(crash_at, Pid::new(2));
    sim.schedule_plan(Pid::all(n).filter(|&q| q != Pid::new(2)).map(|q| {
        (
            crash_at + Dur::from_millis(20),
            Injection::Fd(q, FdEvent::Suspect(Pid::new(2))),
        )
    }));

    sim.run_until(Time::from_secs(2));

    // Collect each replica's command log from its deliveries.
    let mut logs: Vec<Vec<String>> = vec![Vec::new(); n];
    let mut first_delivery: BTreeMap<String, Time> = BTreeMap::new();
    for (at, p, ev) in sim.take_outputs() {
        let AbcastEvent::Delivered { payload, .. } = ev;
        first_delivery.entry(payload.clone()).or_insert(at);
        logs[p.index()].push(payload);
    }

    let survivors = [0usize, 1];
    let reference = apply(&logs[0]);
    for &r in &survivors {
        assert_eq!(apply(&logs[r]), reference, "replica p{} diverged", r + 1);
        assert_eq!(logs[r], logs[0], "command order differs at p{}", r + 1);
    }
    // The crashed replica's log is a prefix of the survivors' (uniform
    // atomic broadcast: nothing it delivered can be missing elsewhere).
    assert!(
        logs[0].starts_with(&logs[2]) || logs[2].is_empty(),
        "crashed replica delivered something the group did not"
    );

    println!("replicated KV store over uniform atomic broadcast (FD algorithm)");
    println!("  commands delivered : {}", logs[0].len());
    println!("  final state        : {} keys", reference.len());
    println!("  contended key      : {:?}", reference.get("contended"));
    println!(
        "  crashed replica log: {} commands (prefix of the group's)",
        logs[2].len()
    );
    println!("all surviving replicas applied the same command sequence ✓");
}
