//! Property tests for the batching layer's edge cases: `Batcher`
//! flush boundaries (empty flush-timer fire, exactly `max_batch`,
//! payloads arriving at the very instant a flush fires) and the
//! pack/unpack round trip — whatever goes into packs comes out as the
//! same payload sequence, each exactly once.

use abcast::{AbcastEvent, BatchConfig, Batched, Batcher, FdNode, MsgId, Pack};
use fdet::SuspectSet;
use neko::{stream_rng, Dur, Pid, SimBuilder, Time};
use proptest::prelude::*;
use rand::RngCore;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pack/unpack round trip at the `Batcher` level: pushing any
    /// payload sequence yields full packs exactly at `max_batch`
    /// boundaries, a final flush drains the remainder, and the
    /// concatenation reproduces the inputs in order under strictly
    /// increasing, origin-tagged ids.
    #[test]
    fn batcher_round_trips_any_payload_sequence(
        seed in any::<u64>(),
        len in 0usize..40,
        max_batch in 1usize..7,
    ) {
        let mut rng = stream_rng(seed, 0xBA7C);
        let payloads: Vec<u32> = (0..len).map(|_| rng.next_u32()).collect();
        let me = Pid::new(1);
        let mut b: Batcher<u32> = Batcher::new(me, BatchConfig::new(max_batch, Dur::ZERO));
        let mut packs: Vec<Pack<u32>> = Vec::new();
        for (i, &v) in payloads.iter().enumerate() {
            assert_eq!(b.len(), i % max_batch);
            let (id, full) = b.push(v);
            assert_eq!(id, MsgId { origin: me, seq: i as u64 });
            match full {
                Some(pack) => {
                    assert_eq!(pack.len(), max_batch, "full packs only at the size knob");
                    assert!(b.is_empty());
                    packs.push(pack);
                }
                None => assert_eq!(b.len(), (i + 1) % max_batch),
            }
        }
        // The time knob's flush drains exactly the remainder; a second
        // flush (an empty timer fire) is a no-op.
        if let Some(rest) = b.flush() {
            assert_eq!(rest.len(), payloads.len() % max_batch);
            packs.push(rest);
        } else {
            assert_eq!(payloads.len() % max_batch, 0);
        }
        assert!(b.flush().is_none(), "empty flush yields nothing");
        let unpacked: Vec<u32> = packs.iter().flat_map(|p| p.iter()).map(|(_, v)| *v).collect();
        assert_eq!(unpacked, payloads.clone());
        let ids: Vec<u64> = packs.iter().flat_map(|p| p.iter()).map(|(id, _)| id.seq).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids strictly increase");
    }

    /// End to end through the simulator: whatever the arrival pattern
    /// — including several payloads at one instant and arrivals at
    /// the exact flush-timer boundary — every payload is A-delivered
    /// exactly once at every process, in per-origin arrival order.
    #[test]
    fn batched_stack_delivers_every_payload_exactly_once(
        seed in any::<u64>(),
        len in 1usize..24,
        max_batch in 1usize..6,
        delay_ms in 1u64..8,
    ) {
        let mut rng = stream_rng(seed, 0x0FF5);
        let offsets: Vec<u64> = (0..len).map(|_| rng.next_u64() % 20).collect();
        let n = 3;
        let cfg = BatchConfig::new(max_batch, Dur::from_millis(delay_ms));
        let suspects = SuspectSet::new();
        let mut sim = SimBuilder::new(n)
            .seed(11)
            .build_with(|p| Batched::new(p, FdNode::<Pack<u64>>::new(p, n, &suspects), cfg));
        let mut t = Time::ZERO;
        for (i, &step) in offsets.iter().enumerate() {
            // Steps of exactly `delay_ms` land new payloads on the
            // previous batch's flush instant — the boundary tie the
            // explorer's schedule layer also permutes.
            t += Dur::from_millis(step.min(delay_ms));
            sim.schedule_command(t, Pid::new(i % n), i as u64);
        }
        sim.run_until(t + Dur::from_secs(2));
        let mut per_process: Vec<Vec<(MsgId, u64)>> = vec![Vec::new(); n];
        for (_, p, ev) in sim.take_outputs() {
            let AbcastEvent::Delivered { id, payload } = ev;
            per_process[p.index()].push((id, payload));
        }
        for (pi, log) in per_process.iter().enumerate() {
            assert_eq!(log.len(), offsets.len(), "p{} must deliver all", pi + 1);
            let mut ids: Vec<MsgId> = log.iter().map(|(id, _)| *id).collect();
            ids.sort();
            ids.dedup();
            assert_eq!(ids.len(), offsets.len(), "p{} delivered a duplicate", pi + 1);
            // Per-origin payload order equals arrival order.
            for origin in 0..n {
                let vals: Vec<u64> = log
                    .iter()
                    .filter(|(id, _)| id.origin.index() == origin)
                    .map(|(_, v)| *v)
                    .collect();
                let mut sorted = vals.clone();
                sorted.sort();
                assert_eq!(vals, sorted, "origin order broken at p{}", pi + 1);
            }
        }
        // All three logs agree (total order on a fault-free run).
        assert_eq!(&per_process[0], &per_process[1]);
        assert_eq!(&per_process[1], &per_process[2]);
    }
}
