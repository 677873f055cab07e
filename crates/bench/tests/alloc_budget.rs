//! Pins an upper bound on heap allocations per delivered message on
//! the atomic-broadcast hot path. The zero-copy fan-out work (`Arc`
//! interning in the kernel, incremental queue counters in the network
//! models) is only worth keeping if it *stays* cheap — this test turns
//! the allocation rate into a regression gate the same way the stat
//! tests pin latencies.
//!
//! The budget is deliberately loose (~2.5× the observed rate) so it only
//! trips on structural regressions — a per-hop clone creeping back
//! into the fan-out path, a per-event box in the scheduler — not on
//! allocator noise or small protocol tweaks.

#![expect(
    clippy::disallowed_types,
    reason = "the allocation counter is a thread-local `Cell`, so tests on parallel harness threads \
              never bill each other"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use abcast::BatchConfig;
use neko::{Dur, NetworkModel};
use study::{run_once, Algorithm, FaultScript, RunParams, SingleRun};

/// Counts every allocation this test binary makes. Tests are separate
/// binaries, so this global allocator is scoped to this file; the
/// count is per thread, so the tests of this file, which the harness
/// runs on parallel threads, never bill each other (a simulated run
/// allocates on its calling thread only). That is why this file does
/// not use `figures::CountingAlloc`: its one process-wide counter
/// would bill each test for the allocations of the others.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: defers all real work to `System`; only a counter is added.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `alg` once with seed 42 after a warm-up run with seed 41 (so
/// one-time lazy setup — thread-locals, interned tables, the first
/// growth of every Vec — does not bill the budget), and returns the
/// measured run with the allocations it made.
fn counted_run(alg: Algorithm, params: &RunParams) -> (SingleRun, u64) {
    run_once(alg, &FaultScript::normal_steady(), params, 41);
    let before = ALLOCATIONS.with(Cell::get);
    let run = run_once(alg, &FaultScript::normal_steady(), params, 42);
    (run, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn abcast_hot_path_allocation_budget() {
    // One simulated second of FD atomic broadcast at 300 msg/s, n = 3
    // — the same steady-state workload the latency figures run on.
    let params = RunParams::new(3, 300.0)
        .with_warmup(Dur::from_millis(100))
        .with_measure(Dur::from_millis(900))
        .with_drain(Dur::from_millis(500));

    let (run, allocs) = counted_run(Algorithm::Fd, &params);

    let delivered = run.measured - run.undelivered;
    assert!(
        delivered > 200,
        "workload too small to be meaningful: {delivered}"
    );

    let per_message = allocs as f64 / delivered as f64;
    // Observed ≈ 41 allocations per delivered broadcast with the
    // timing-wheel kernel and Arc fan-out (each broadcast is a full
    // consensus instance: estimate + proposal + acks across n = 3,
    // plus measurement bookkeeping). Budget 100 ≈ 2.5× headroom.
    assert!(
        per_message < 100.0,
        "allocation budget exceeded: {per_message:.1} allocs per delivered \
         message ({allocs} allocations / {delivered} delivered) — a clone or \
         box crept back into the kernel/network hot path"
    );
}

/// The batched stacks at the saturation benchmark's knob setting:
/// every layer below the batcher handles whole packs, so allocations
/// scale with packs, not payloads, as long as no layer deep-copies a
/// pack. At 32 payloads per pack that is well under one allocation
/// per delivered payload; deep-copying the pack's payload vector at
/// every rbcast, consensus and membership hop pushes all three stacks
/// past it.
#[test]
fn batched_stacks_allocate_less_than_once_per_payload() {
    let params = RunParams::new(3, 12_800.0)
        .with_warmup(Dur::from_millis(100))
        .with_measure(Dur::from_millis(900))
        .with_drain(Dur::from_millis(500))
        .with_network_model(NetworkModel::Switched)
        .with_batching(BatchConfig::new(32, Dur::from_millis(10)));
    for alg in [Algorithm::Fd, Algorithm::Gm, Algorithm::Ring] {
        let (run, allocs) = counted_run(alg, &params);
        let delivered = run.measured - run.undelivered;
        assert!(
            delivered > 10_000,
            "{alg:?}: workload too small to be meaningful: {delivered}"
        );
        let per_payload = allocs as f64 / delivered as f64;
        // Observed ≈ 0.35–0.45 with shared packs (FD, GM, Ring), and
        // 1.06–1.61 when every hop deep-copies the pack.
        assert!(
            per_payload < 1.0,
            "{alg:?}: {per_payload:.2} allocs per delivered payload ({allocs} \
             allocations / {delivered} delivered) — a pack is being copied \
             instead of shared"
        );
    }
}

/// Normal-steady at n = 64 on the switched topology, the benchmark's
/// scale workload: each broadcast fans out to 63 receivers, so every
/// allocation in the per-message bookkeeping (delivered sets,
/// retransmission stores, pending sets, the sequencer's sn maps) is
/// paid up to 64 times. The measured window is long enough for the
/// steady state to outweigh the first registration of each origin.
/// Counts are deterministic per seed, so the bounds sit close to the
/// observed rates.
#[test]
fn n64_stacks_allocation_budget() {
    let params = RunParams::new(64, 200.0)
        .with_warmup(Dur::from_millis(500))
        .with_measure(Dur::from_millis(3000))
        .with_drain(Dur::from_millis(500))
        .with_network_model(NetworkModel::Switched);
    // Observed 62.9 / 46.0 / 88.9 with dense per-origin bookkeeping;
    // 88.5 / 88.9 / 114.6 when those sets and maps were search trees.
    for (alg, budget) in [
        (Algorithm::Fd, 70.0),
        (Algorithm::Gm, 52.0),
        (Algorithm::Ring, 98.0),
    ] {
        let (run, allocs) = counted_run(alg, &params);
        let delivered = run.measured - run.undelivered;
        assert!(
            delivered > 500,
            "{alg:?}: workload too small to be meaningful: {delivered}"
        );
        let per_bcast = allocs as f64 / delivered as f64;
        assert!(
            per_bcast < budget,
            "{alg:?}: {per_bcast:.1} allocs per delivered broadcast ({allocs} \
             allocations / {delivered} delivered) exceeds {budget} — the \
             per-message bookkeeping allocates again"
        );
    }
}
