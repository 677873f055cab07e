//! Model-based tests for the dense id structures of `rbcast::dense`:
//! random operation sequences must agree with `BTreeSet`/`BTreeMap`
//! reference models on every answer and on iteration order.
//!
//! The keys mix in-order sequence numbers (the common case), duplicates
//! and stragglers below the frontier, small gaps above it, and
//! far-future values up to `u64::MAX`, which must land in the sparse
//! overflow instead of growing the dense part.

use std::collections::{BTreeMap, BTreeSet};

use neko::Pid;
use proptest::prelude::*;
use rbcast::dense::SLACK;
use rbcast::{MsgId, SeqWindow, WatermarkSet, WindowMap};

/// A deterministic splitmix64 stream — the vendored proptest has no
/// recursive strategies, so op sequences derive from one drawn seed.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sequence numbers a window must keep out of its dense part.
const FAR: [u64; 4] = [u64::MAX, u64::MAX - 1, 1 << 40, (1 << 40) + 3];

/// Draws a sequence number around `frontier`, advancing it on in-order
/// draws.
fn draw_seq(state: &mut u64, frontier: &mut u64) -> u64 {
    let r = mix(state);
    match r % 10 {
        0..=4 => {
            let s = *frontier;
            *frontier += 1;
            s
        }
        // A duplicate or a straggler below the frontier.
        5 | 6 => frontier.saturating_sub(mix(state) % 24),
        // A small gap above it.
        7 => *frontier + mix(state) % 40,
        // Just past a window's reach, or anywhere in the far future.
        8 => *frontier + SLACK + 1 + mix(state) % 500,
        _ => FAR[(mix(state) % FAR.len() as u64) as usize],
    }
}

/// A few origins, sparse and out of registration order.
const ORIGINS: [usize; 5] = [3, 0, 64, 1, 255];

fn draw_origin(state: &mut u64) -> usize {
    (mix(state) % ORIGINS.len() as u64) as usize
}

fn id(origin: usize, seq: u64) -> MsgId {
    MsgId {
        origin: Pid::new(ORIGINS.get(origin).copied().unwrap_or_default()),
        seq,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn watermark_set_agrees_with_btreeset(seed in any::<u64>(), ops in 1usize..400) {
        let mut state = seed;
        let mut frontiers = [0u64; ORIGINS.len()];
        let mut set = WatermarkSet::new();
        let mut model = BTreeSet::new();
        for _ in 0..ops {
            let o = draw_origin(&mut state);
            let seq = draw_seq(&mut state, &mut frontiers[o]);
            let k = id(o, seq);
            assert_eq!(set.insert(k), model.insert(k), "insert {k:?}");
            let probe = id(o, draw_seq(&mut state, &mut frontiers[o].clone()));
            assert_eq!(set.contains(probe), model.contains(&probe), "contains {probe:?}");
        }
        for (o, &frontier) in frontiers.iter().enumerate() {
            let origin = id(o, 0).origin;
            let expect = (0..).find(|&s| !model.contains(&id(o, s))).unwrap_or(0);
            assert_eq!(set.watermark(origin), expect, "watermark of {origin}");
            for s in (0..frontier + 50).chain(FAR) {
                assert_eq!(set.contains(id(o, s)), model.contains(&id(o, s)), "{o}/{s}");
            }
        }
    }

    #[test]
    fn seq_window_agrees_with_btreemap(seed in any::<u64>(), ops in 1usize..400) {
        let mut state = seed;
        let mut frontier = mix(&mut state) % 1_000;
        let mut window = SeqWindow::new();
        let mut model = BTreeMap::new();
        for step in 0..ops as u64 {
            let r = mix(&mut state) % 100;
            let key = draw_seq(&mut state, &mut frontier);
            if r < 55 {
                let span = window.span();
                assert_eq!(window.insert(key, step), model.insert(key, step), "insert {key}");
                assert!(
                    window.span() <= span + SLACK as usize + 1,
                    "inserting {key} grew the window from {span} to {}",
                    window.span()
                );
            } else if r < 75 {
                // Remove a present key (below, inside or above the
                // window) or an absent one.
                let present = model.keys().nth((mix(&mut state) % 8) as usize).copied();
                let key = if r < 68 { present.unwrap_or(key) } else { key };
                assert_eq!(window.remove(key), model.remove(&key), "remove {key}");
            } else if r < 90 {
                if let Some(v) = window.get_mut(key) {
                    *v += 1;
                }
                if let Some(v) = model.get_mut(&key) {
                    *v += 1;
                }
            } else if r < 99 {
                assert_eq!(window.get(key), model.get(&key), "get {key}");
                assert_eq!(window.contains_key(key), model.contains_key(&key));
            } else {
                window.clear();
                model.clear();
            }
            assert_eq!(window.len(), model.len());
            assert_eq!(window.is_empty(), model.is_empty());
        }
        assert_eq!(
            window.iter().map(|(k, v)| (k, *v)).collect::<Vec<_>>(),
            model.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>(),
            "iteration order or content diverged"
        );
    }

    #[test]
    fn window_map_agrees_with_btreemap(seed in any::<u64>(), ops in 1usize..600) {
        let mut state = seed;
        let mut frontiers = [0u64; ORIGINS.len()];
        let mut map = WindowMap::<u64>::new();
        let mut model = BTreeMap::new();
        for step in 0..ops as u64 {
            let o = draw_origin(&mut state);
            let k = id(o, draw_seq(&mut state, &mut frontiers[o]));
            let r = mix(&mut state) % 100;
            if r < 55 {
                assert_eq!(map.insert(k, step), model.insert(k, step), "insert {k:?}");
            } else if r < 80 {
                // Mostly the oldest entries go, as deliveries drain a
                // pending set; sometimes any present or absent id.
                let present = model.keys().nth((mix(&mut state) % 3) as usize).copied();
                let k = if r < 72 { present.unwrap_or(k) } else { k };
                assert_eq!(map.remove(k), model.remove(&k), "remove {k:?}");
            } else if r < 90 {
                if let Some(v) = map.get_mut(k) {
                    *v += 7;
                }
                if let Some(v) = model.get_mut(&k) {
                    *v += 7;
                }
            } else if r < 99 {
                assert_eq!(map.get(k), model.get(&k), "get {k:?}");
                assert_eq!(map.contains_key(k), model.contains_key(&k));
            } else {
                map.clear();
                model.clear();
            }
            assert_eq!(map.len(), model.len());
            assert_eq!(map.is_empty(), model.is_empty());
            if step % 16 == 0 {
                assert_eq!(
                    map.keys().collect::<Vec<_>>(),
                    model.keys().copied().collect::<Vec<_>>()
                );
            }
        }
        assert_eq!(
            map.iter().map(|(k, v)| (k, *v)).collect::<Vec<_>>(),
            model.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>(),
            "iteration order or content diverged"
        );
        for o in 0..ORIGINS.len() {
            let origin = id(o, 0).origin;
            assert_eq!(
                map.iter_origin(origin).map(|(k, v)| (k, *v)).collect::<Vec<_>>(),
                model
                    .range(id(o, 0)..=id(o, u64::MAX))
                    .map(|(k, v)| (*k, *v))
                    .collect::<Vec<_>>(),
                "iter_origin({origin}) diverged"
            );
        }
    }
}

#[test]
fn far_keys_never_grow_the_dense_part() {
    let mut window = SeqWindow::new();
    for s in 0..10 {
        window.insert(s, ());
    }
    for &far in &FAR {
        window.insert(far, ());
    }
    assert_eq!(window.span(), 10, "far keys went to the overflow");
    assert_eq!(window.len(), 10 + FAR.len());

    // A window emptied by removals starts again at the next key, which
    // costs one slot whatever its value.
    let mut window = SeqWindow::new();
    window.insert(u64::MAX, 1);
    assert_eq!(window.span(), 1);
    window.insert(0, 2);
    assert_eq!(window.span(), 1, "0 is far from a window at u64::MAX");
    assert_eq!(
        window.iter().collect::<Vec<_>>(),
        vec![(0, &2), (u64::MAX, &1)]
    );
    assert_eq!(window.remove(u64::MAX), Some(1));
    assert_eq!(window.remove(0), Some(2));
    assert!(window.is_empty());

    let mut set = WatermarkSet::new();
    for &far in &FAR {
        assert!(set.insert(id(0, far)));
        assert!(!set.insert(id(0, far)));
    }
    assert_eq!(set.watermark(id(0, 0).origin), 0);
    assert!(set.insert(id(0, 0)));
    assert_eq!(set.watermark(id(0, 0).origin), 1);
    assert!(set.contains(id(0, u64::MAX)) && !set.contains(id(0, 1)));
}

#[test]
fn overflow_keys_move_into_a_window_that_reaches_them() {
    // 300 is past the reach of a window at 0; once the window has grown
    // to 100, it is within reach, and extending the window to 301 must
    // carry 300 into its slot.
    let mut window = SeqWindow::new();
    window.insert(0, 0);
    window.insert(300, 300);
    assert_eq!(window.span(), 1);
    for s in 1..=100 {
        window.insert(s, s);
    }
    window.insert(301, 301);
    assert_eq!(window.span(), 302);
    assert_eq!(window.get(300), Some(&300));
    let keys: Vec<u64> = window.iter().map(|(k, _)| k).collect();
    assert_eq!(keys, (0..=100).chain([300, 301]).collect::<Vec<_>>());
    // Draining from the front shrinks the window to its live span.
    for s in 0..=100 {
        window.remove(s);
    }
    assert_eq!(window.span(), 2);
}
