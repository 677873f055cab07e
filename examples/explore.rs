//! The adversarial schedule explorer, as a runnable budget: fuzzes
//! (schedule × fault script × algorithm × topology) tuples through
//! the shared atomic-broadcast oracle and exits non-zero with a
//! minimized, replayable repro if any invariant breaks.
//!
//! This is the CI smoke of `study::explore` (see EXPERIMENTS.md,
//! "Exploring schedules and shrinking failures"):
//!
//! ```sh
//! cargo run --release --example explore            # 1000 tuples/algorithm
//! ATOMBENCH_EXPLORE_BUDGET=10000 \
//! ATOMBENCH_EXPLORE_SEED=7 \
//!     cargo run --release --example explore        # deeper hunt
//! ATOMBENCH_EXPLORE_BUDGET=500000 \
//!     cargo run --release --example explore        # ~million-tuple soak
//! ```
//!
//! The soak budget (500 000 per algorithm, three study algorithms —
//! the paper's two plus the ring contender, 1.5 million tuples)
//! runs in about an hour at the measured explorer throughput (see
//! `explore_throughput`).

#![expect(
    clippy::disallowed_methods,
    reason = "prints how long the exploration took in wall-clock time; verdicts never read the clock"
)]

use study::explore::Explorer;

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let seed = env_u64("ATOMBENCH_EXPLORE_SEED", 0x5EED);
    let budget = env_u64("ATOMBENCH_EXPLORE_BUDGET", 1000) as usize;
    let explorer = Explorer::new(seed).with_budget(budget);
    println!("exploring {budget} tuples per algorithm (seed {seed:#x}) …");
    let start = std::time::Instant::now();
    let outcome = explorer.explore();
    println!(
        "examined {} tuples in {:.1?}",
        outcome.examined,
        start.elapsed()
    );
    if let Some(repro) = outcome.repro {
        eprintln!("INVARIANT VIOLATION (minimized):\n{repro}");
        eprintln!("replay verdict: {:?}", repro.replay());
        std::process::exit(1);
    }
    println!("clean: every tuple upheld the atomic-broadcast contract");
}
