//! The same protocol code, off the simulator: run the FD atomic
//! broadcast over OS threads with the real-time runtime, replay a
//! compiled fault script that crashes a process for real, and verify
//! the survivors still agree on one total order.
//!
//! This is the "prototyping" half of the Neko-style framework — the
//! [`neko::Runtime`] trait means the schedule below would drive a
//! [`neko::Sim`] verbatim; here it drives threads and wall-clock
//! time instead. The failure detector is the script's: the survivors
//! suspect p3 exactly `T_D` after it crashes.
//!
//! ```text
//! cargo run --release --example real_runtime
//! ```

use abcast::{AbcastEvent, FdNode};
use fdet::SuspectSet;
use neko::{Dur, Pid, RealRuntime, Runtime, Time};
use study::{FaultScript, ScriptAction, ScriptTime};

fn main() {
    let n = 3;
    let end = Time::from_secs(2);
    let suspects = SuspectSet::new();
    let mut rt = RealRuntime::new(n, 0, |p| FdNode::<u64>::new(p, n, &suspects));

    for i in 0..20u64 {
        rt.schedule_command(Time::from_millis(20 + i * 8), Pid::new((i % 3) as usize), i);
    }
    // p3 crashes for real mid-run (its thread pauses); the survivors
    // suspect it 60 ms later, when the compiled script says so.
    let script = FaultScript::normal_steady().crash(
        ScriptTime::At(Time::from_millis(100)),
        Pid::new(2),
        Dur::from_millis(60),
    );
    let compiled = script.compile(n, Dur::ZERO, end, 0);
    rt.schedule_plan(compiled.entries().iter().filter_map(|(t, act)| match act {
        ScriptAction::Inject(inj) => Some((*t, inj.clone())),
        ScriptAction::Probe(_) => None,
    }));

    rt.run_until(end);

    let mut logs: Vec<Vec<u64>> = vec![Vec::new(); n];
    for (_, p, ev) in &rt.take_outputs() {
        let AbcastEvent::Delivered { payload, .. } = ev;
        logs[p.index()].push(*payload);
    }

    println!("real-time runtime (threads + compiled fault script)");
    for (i, log) in logs.iter().enumerate() {
        println!("  p{}: delivered {} messages", i + 1, log.len());
    }
    let stats = rt.net_stats();
    println!(
        "  wire: {} msgs, {} dropped at the crashed thread, cpu busy {}",
        stats.wire_messages, stats.dropped_to_crashed, stats.cpu_busy
    );
    assert_eq!(logs[0], logs[1], "survivors must agree on the total order");
    assert!(
        logs[0].starts_with(&logs[2]),
        "crashed process's deliveries must be a prefix"
    );
    println!("survivors delivered identical sequences ✓");
}
