//! Differential property test: the timing wheel must agree with the
//! reference binary heap (`neko::wheel::ReferenceHeap`) event for
//! event on random interleaved insert/pop sequences — the heap
//! is the structure the kernel ran on before, so agreement here is
//! what "the optimization changes speed, not executions" means at the
//! queue level.
//!
//! Tie keys are drawn in the three shapes the kernel's `Schedule`
//! policies produce: all-zero (`Fifo`), uniform `u64`
//! (`SeededRandom`), and mostly-halved-with-rare-`u64::MAX`
//! demotions (`Pct`).

use neko::wheel::{ReferenceHeap, TimingWheel};
use proptest::prelude::*;

/// A deterministic splitmix64 stream — the vendored proptest has no
/// recursive strategies, so op sequences derive from one drawn seed.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Clone, Copy, Debug)]
enum TieShape {
    Fifo,
    SeededRandom,
    Pct,
}

impl TieShape {
    /// Draws one tie key with the same distribution the matching
    /// `Schedule` policy feeds the queue.
    fn draw(self, state: &mut u64) -> u64 {
        match self {
            TieShape::Fifo => 0,
            TieShape::SeededRandom => mix(state),
            TieShape::Pct => {
                if mix(state).is_multiple_of(5) {
                    u64::MAX // priority-change demotion
                } else {
                    mix(state) >> 1
                }
            }
        }
    }
}

/// Time offsets biased hard toward collisions, so same-instant tie
/// batches actually form: many zero/small deltas, a few far-future
/// jumps that exercise the upper wheel levels.
fn draw_delta(state: &mut u64) -> u64 {
    match mix(state) % 8 {
        0..=2 => 0,
        3 => mix(state) % 4,
        4 => mix(state) % 1_000,
        5 => mix(state) % 1_000_000,
        6 => mix(state) % 10_000_000,
        _ => mix(state) % (1 << 40),
    }
}

/// Runs one random schedule against both queues and asserts every pop
/// (bounded and unbounded) returns the identical entry.
fn run_differential(seed: u64, ops: usize, shape: TieShape) {
    let mut state = seed;
    let mut wheel: TimingWheel<u64> = TimingWheel::new();
    let mut heap: ReferenceHeap<u64> = ReferenceHeap::new();
    let mut seq = 0u64;

    for _ in 0..ops {
        match mix(&mut state) % 9 {
            // Insert (the majority, so the queues stay populated).
            0..=5 => {
                // The kernel never schedules behind its clock; the
                // wheel's cursor is exactly that clock.
                let at = wheel.cursor().saturating_add(draw_delta(&mut state));
                let tie = shape.draw(&mut state);
                seq += 1;
                wheel.insert(at, tie, seq, seq);
                heap.insert(at, tie, seq, seq);
            }
            // Pop with a random horizon (how the simulator drives it).
            6 | 7 => {
                let until = wheel.cursor().saturating_add(draw_delta(&mut state));
                assert_eq!(wheel.pop_due(until), heap.pop_due(until), "{shape:?}");
            }
            // Unbounded pop.
            _ => {
                assert_eq!(wheel.pop_due(u64::MAX), heap.pop_due(u64::MAX), "{shape:?}");
            }
        }
        assert_eq!(wheel.len(), heap.len(), "{shape:?}");
    }

    // Drain what's left: the tail must agree too.
    loop {
        let (a, b) = (wheel.pop_due(u64::MAX), heap.pop_due(u64::MAX));
        assert_eq!(a, b, "{shape:?}: drain order drifted");
        if a.is_none() {
            break;
        }
    }
    assert!(wheel.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wheel_matches_heap_under_fifo_ties(seed in any::<u64>(), ops in 1usize..800) {
        run_differential(seed, ops, TieShape::Fifo);
    }

    #[test]
    fn wheel_matches_heap_under_random_ties(seed in any::<u64>(), ops in 1usize..800) {
        run_differential(seed, ops, TieShape::SeededRandom);
    }

    #[test]
    fn wheel_matches_heap_under_pct_ties(seed in any::<u64>(), ops in 1usize..800) {
        run_differential(seed, ops, TieShape::Pct);
    }
}
