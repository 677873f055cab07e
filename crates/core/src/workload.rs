//! The paper's workload (Section 5.1): every (correct) destination
//! process A-broadcasts at the same constant rate, arrivals forming a
//! Poisson process; the *throughput* `T` is the overall nominal rate.

use neko::{sample_exp_micros, stream_rng, Pid, Time};

/// One A-broadcast stimulus: at `time`, process `.1` broadcasts the
/// (globally unique) payload `.2`.
pub type Arrival = (Time, Pid, u64);

/// Generates Poisson arrivals over `[0, horizon)`.
///
/// * `n` — the *initial* group size; the per-process rate is `T / n`
///   regardless of crashes (this is why crashed processes reduce the
///   effective load in the paper's Fig. 5);
/// * `senders` — the processes that actually broadcast (e.g. the
///   survivors in a crash-steady run);
/// * payloads are consecutive integers, unique across the run, and
///   double as latency-tracking keys: each arrival's payload is its
///   index in the returned (time-sorted) vector. The study runner
///   relies on "payload = arrival index": it keeps first deliveries
///   in a vector indexed by payload and walks the arrivals themselves
///   as the send log, with no map from payload to send time.
///
/// ```
/// use neko::{Pid, Time};
/// use study::poisson_arrivals;
///
/// let senders: Vec<Pid> = Pid::all(3).collect();
/// let arr = poisson_arrivals(3, 300.0, Time::from_secs(10), &senders, 7);
/// // ~3000 arrivals expected.
/// assert!((2_500..3_500).contains(&arr.len()));
/// assert!(arr.windows(2).all(|w| w[0].0 <= w[1].0), "sorted by time");
/// ```
pub fn poisson_arrivals(
    n: usize,
    throughput_per_sec: f64,
    horizon: Time,
    senders: &[Pid],
    seed: u64,
) -> Vec<Arrival> {
    assert!(n > 0, "group size must be positive");
    assert!(throughput_per_sec >= 0.0, "throughput must be non-negative");
    let mut arrivals = Vec::new();
    if throughput_per_sec == 0.0 {
        return arrivals;
    }
    let per_process = throughput_per_sec / n as f64;
    let mean_gap_us = 1e6 / per_process;
    for &p in senders {
        let mut rng = stream_rng(seed, 0x4A0B_0000 + p.index() as u64);
        let mut t = sample_exp_micros(&mut rng, mean_gap_us);
        while t < horizon.as_micros() {
            arrivals.push((Time::from_micros(t), p, 0));
            t = t.saturating_add(sample_exp_micros(&mut rng, mean_gap_us).max(1));
        }
    }
    arrivals.sort_by_key(|(t, p, _)| (*t, p.index()));
    for (i, a) in arrivals.iter_mut().enumerate() {
        a.2 = i as u64;
    }
    arrivals
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_matches_request() {
        let senders: Vec<Pid> = Pid::all(5).collect();
        let arr = poisson_arrivals(5, 500.0, Time::from_secs(40), &senders, 3);
        let expected = 500.0 * 40.0;
        let got = arr.len() as f64;
        assert!(
            (got - expected).abs() < 0.05 * expected,
            "got {got}, expected ≈ {expected}"
        );
    }

    // Pins the "payload = arrival index" contract the runner relies on.
    #[test]
    fn payloads_are_unique_and_dense() {
        let senders: Vec<Pid> = Pid::all(3).collect();
        let arr = poisson_arrivals(3, 100.0, Time::from_secs(5), &senders, 1);
        for (i, (_, _, v)) in arr.iter().enumerate() {
            assert_eq!(*v, i as u64);
        }
    }

    #[test]
    fn crashed_senders_reduce_load_but_not_rate() {
        // Same per-process rate: half the senders, half the arrivals.
        let all: Vec<Pid> = Pid::all(4).collect();
        let half: Vec<Pid> = Pid::all(2).collect();
        let a = poisson_arrivals(4, 400.0, Time::from_secs(20), &all, 9);
        let b = poisson_arrivals(4, 400.0, Time::from_secs(20), &half, 9);
        let ratio = b.len() as f64 / a.len() as f64;
        assert!((ratio - 0.5).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn deterministic_per_seed_and_per_sender_stream() {
        let senders: Vec<Pid> = Pid::all(3).collect();
        let a = poisson_arrivals(3, 100.0, Time::from_secs(2), &senders, 5);
        let b = poisson_arrivals(3, 100.0, Time::from_secs(2), &senders, 5);
        assert_eq!(a, b);
        // Removing one sender leaves the others' arrival times intact.
        let fewer: Vec<Pid> = vec![Pid::new(0), Pid::new(1)];
        let c = poisson_arrivals(3, 100.0, Time::from_secs(2), &fewer, 5);
        let a_times: Vec<Time> = a
            .iter()
            .filter(|(_, p, _)| p.index() < 2)
            .map(|(t, _, _)| *t)
            .collect();
        let c_times: Vec<Time> = c.iter().map(|(t, _, _)| *t).collect();
        assert_eq!(a_times, c_times);
    }

    #[test]
    fn zero_throughput_is_empty() {
        let senders: Vec<Pid> = Pid::all(3).collect();
        assert!(poisson_arrivals(3, 0.0, Time::from_secs(5), &senders, 1).is_empty());
    }
}
