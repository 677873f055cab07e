//! A hierarchical timing wheel: the kernel's event queue.
//!
//! The discrete-event kernel orders events by `(time, tie, insertion
//! seq)`. A binary heap gives that order in O(log n) per operation —
//! with n beyond ~10⁵ pending events (failure-detector heartbeats
//! dominate at large group sizes) the sift paths become cache-miss
//! chains and the heap is the simulator's bottleneck. This wheel
//! gives the *same total order* in amortized O(1) per event:
//!
//! * Eleven levels of 64 slots cover the full `u64` microsecond
//!   domain (6 bits per level, 66 ≥ 64): level 0 resolves single
//!   microseconds, each level above is 64× coarser, and the top
//!   levels act as the deterministic overflow for far-future timers
//!   ("never"-style timeouts included).
//! * An event due at `at` lives on the level of the *highest bit in
//!   which `at` differs from the cursor* (the current time floor), in
//!   the slot given by its bits at that level. Advancing the cursor
//!   *cascades* the first occupied slot of the lowest occupied level:
//!   its events re-file into finer levels, and events due exactly at
//!   the new cursor land in the **due heap**.
//! * The due batch holds only events at the cursor instant, kept
//!   sorted by `(tie, seq)` — so same-time ties pop in exactly the
//!   order the [`crate::Schedule`] policy dictates, bit-identical to
//!   the reference heap. Its size is bounded by the same-instant
//!   batch, not the whole queue, and under the default FIFO policy
//!   (monotonic keys) maintaining it is O(1) per event.
//!
//! [`TimingWheel::pop_due`] takes the run horizon and never advances
//! the cursor past it, so a caller that stops at `until` can keep
//! inserting events at any `at ≥ until` afterwards.
//!
//! Cancellation ([`TimingWheel::cancel`]) is lazy — a tombstone by
//! insertion seq, dropped when the event surfaces. The kernel keeps
//! its own timer tombstones (cancelled timers still count as
//! processed events, which golden executions pin); the wheel-level
//! cancel exists for direct users and the differential tests. The
//! tombstone set is a `BTreeSet`: it is only ever probed by key, but
//! a deterministic structure keeps the queue free of hash-order state
//! by construction (clippy.toml rule D1) rather than by argument.

use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

/// Bits consumed per level; each slot array is `2^SLOT_BITS` wide.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Levels needed to cover 64 time bits at 6 bits per level.
const LEVELS: usize = 11;

/// A scheduled item: the full ordering key plus the payload.
#[derive(Debug, PartialEq, Eq)]
pub struct Entry<T> {
    /// Due time (the kernel uses microseconds).
    pub at: u64,
    /// Same-time tie-break key (drawn by the schedule policy).
    pub tie: u64,
    /// Insertion sequence number — the final, unique tie-break.
    pub seq: u64,
    /// The payload.
    pub item: T,
}

/// A due-batch entry: an event at the cursor instant. The batch is
/// kept ascending by `(tie, seq)`; the key is unique because `seq` is.
struct Due<T> {
    tie: u64,
    seq: u64,
    item: T,
}

/// The low `bits` bits set (saturating: ≥ 64 bits is all-ones).
fn low_mask(bits: u32) -> u64 {
    if bits >= u64::BITS {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// A hierarchical timing wheel ordered by `(at, tie, seq)`.
///
/// ```
/// use neko::wheel::TimingWheel;
///
/// let mut w = TimingWheel::new();
/// w.insert(5, 0, 1, "late");
/// w.insert(2, 0, 2, "early");
/// w.insert(2, 0, 3, "early too");
/// assert_eq!(w.pop_due(u64::MAX).map(|e| (e.at, e.item)), Some((2, "early")));
/// assert_eq!(w.pop_due(3).map(|e| e.item), Some("early too"));
/// assert_eq!(w.pop_due(3).map(|e| e.item), None); // horizon before 5
/// assert_eq!(w.pop_due(u64::MAX).map(|e| e.item), Some("late"));
/// ```
pub struct TimingWheel<T> {
    /// Current time floor: every stored event has `at ≥ cursor`, and
    /// events at exactly `cursor` sit in `due`.
    cursor: u64,
    /// Per-level bitmap of non-empty slots.
    occupancy: [u64; LEVELS],
    /// `LEVELS × SLOTS` buckets; drained buckets keep their capacity.
    slots: Vec<Vec<Entry<T>>>,
    /// Events due exactly at `cursor`, sorted ascending by
    /// `(tie, seq)` and popped from the front.
    due: VecDeque<Due<T>>,
    /// Lazily-cancelled insertion seqs.
    cancelled: BTreeSet<u64>,
    /// Live entries (cancelled ones count until they surface).
    len: usize,
    /// High-water mark of `len`.
    peak: usize,
}

impl<T> TimingWheel<T> {
    /// An empty wheel with its cursor at time zero.
    pub fn new() -> Self {
        TimingWheel {
            cursor: 0,
            occupancy: [0; LEVELS],
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            due: VecDeque::new(),
            cancelled: BTreeSet::new(),
            len: 0,
            peak: 0,
        }
    }

    /// Pending entries, including not-yet-surfaced cancelled ones.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The deepest the wheel has ever been.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// The current time floor (equals the `at` of the last pop).
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Schedules `item` at `(at, tie, seq)`. `seq` must be unique
    /// across the wheel's lifetime; `at` must not lie before the
    /// cursor (the kernel never schedules into the past).
    pub fn insert(&mut self, at: u64, tie: u64, seq: u64, item: T) {
        debug_assert!(
            at >= self.cursor,
            "insert at {at} behind cursor {}",
            self.cursor
        );
        self.len += 1;
        self.peak = self.peak.max(self.len);
        self.place(Entry { at, tie, seq, item });
    }

    /// Lazily cancels the entry inserted with `seq` (must currently be
    /// pending). The slot is reclaimed when the entry surfaces.
    pub fn cancel(&mut self, seq: u64) {
        self.cancelled.insert(seq);
    }

    /// Files an entry into the due batch (at the cursor instant) or
    /// the slot addressed by the highest bit where `at` differs from
    /// the cursor.
    fn place(&mut self, e: Entry<T>) {
        let diff = e.at ^ self.cursor;
        if diff == 0 {
            self.push_due(Due {
                tie: e.tie,
                seq: e.seq,
                item: e.item,
            });
            return;
        }
        let level = ((u64::BITS - 1 - diff.leading_zeros()) / SLOT_BITS) as usize;
        let slot = (e.at >> (level as u32 * SLOT_BITS)) & low_mask(SLOT_BITS);
        self.occupancy[level] |= 1 << slot;
        self.slots[level * SLOTS + slot as usize].push(e);
    }

    /// Appends to the due batch, keeping it ascending by `(tie, seq)`.
    /// Under FIFO scheduling every tie key is 0 and seqs arrive
    /// increasing, so the common case is a plain push; randomized
    /// policies occasionally pay an ordered insert.
    fn push_due(&mut self, d: Due<T>) {
        match self.due.back() {
            Some(last) if (last.tie, last.seq) > (d.tie, d.seq) => {
                let i = self
                    .due
                    .partition_point(|e| (e.tie, e.seq) < (d.tie, d.seq));
                self.due.insert(i, d);
            }
            _ => self.due.push_back(d),
        }
    }

    /// Pops the earliest event with `at ≤ until`, or `None` (leaving
    /// the cursor at most at `until`, so later inserts at `≥ until`
    /// stay valid). Earliest means minimal `(at, tie, seq)` — the
    /// identical total order a binary heap over those keys yields.
    pub fn pop_due(&mut self, until: u64) -> Option<Entry<T>> {
        loop {
            // Everything at the cursor instant sits in `due`, already
            // in (tie, seq) order.
            while let Some(e) = self.due.pop_front() {
                self.len -= 1;
                if !self.cancelled.is_empty() && self.cancelled.remove(&e.seq) {
                    continue;
                }
                return Some(Entry {
                    at: self.cursor,
                    tie: e.tie,
                    seq: e.seq,
                    item: e.item,
                });
            }
            // Advance: the first occupied slot of the lowest occupied
            // level holds the globally earliest pending events.
            let level = (0..LEVELS).find(|&l| self.occupancy[l] != 0)?;
            let slot = self.occupancy[level].trailing_zeros() as u64;
            let shift = level as u32 * SLOT_BITS;
            let base = (self.cursor & !low_mask(shift + SLOT_BITS)) | (slot << shift);
            if base > until {
                return None;
            }
            self.cursor = base;
            self.occupancy[level] &= !(1 << slot);
            let idx = level * SLOTS + slot as usize;
            if level == 0 {
                // A level-0 slot spans exactly one microsecond: every
                // entry is due at the new cursor, no re-filing needed.
                if self.slots[idx].len() == 1 {
                    // By far the hottest path: a lone event at a fresh
                    // instant returns without touching the due batch.
                    let e = self.slots[idx].pop().expect("occupied slot was empty");
                    self.len -= 1;
                    if !self.cancelled.is_empty() && self.cancelled.remove(&e.seq) {
                        continue;
                    }
                    return Some(e);
                }
                let mut batch = std::mem::take(&mut self.slots[idx]);
                for e in batch.drain(..) {
                    if !self.cancelled.is_empty() && self.cancelled.remove(&e.seq) {
                        self.len -= 1;
                        continue;
                    }
                    self.due.push_back(Due {
                        tie: e.tie,
                        seq: e.seq,
                        item: e.item,
                    });
                }
                self.slots[idx] = batch;
                // One linear-ish sort per same-instant batch replaces
                // per-event heap sifts (and is a no-op scan under
                // FIFO, where the batch arrives already ascending).
                self.due
                    .make_contiguous()
                    .sort_unstable_by_key(|d| (d.tie, d.seq));
            } else if self.slots[idx].len() == 1 {
                // Singleton upper-level slot: re-file the lone entry
                // without cycling the bucket through `mem::take`.
                let e = self.slots[idx].pop().expect("occupied slot was empty");
                if !self.cancelled.is_empty() && self.cancelled.remove(&e.seq) {
                    self.len -= 1;
                    continue;
                }
                self.place(e);
            } else {
                let mut cascading = std::mem::take(&mut self.slots[idx]);
                for e in cascading.drain(..) {
                    if !self.cancelled.is_empty() && self.cancelled.remove(&e.seq) {
                        self.len -= 1;
                        continue;
                    }
                    // Re-files strictly below `level` (or into `due`):
                    // the cursor now shares this slot's high bits.
                    self.place(e);
                }
                // Hand the (empty) bucket back to reuse its capacity.
                self.slots[idx] = cascading;
            }
        }
    }
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// The ordering oracle: a binary heap over the same `(at, tie, seq)`
/// key with the same `pop_due`/`cancel` semantics. The kernel ran on
/// this structure before the wheel; it stays public so differential
/// tests can assert the wheel agrees with it event for event, and so
/// benchmarks can measure the two on identical workloads.
pub struct ReferenceHeap<T> {
    heap: BinaryHeap<RefEntry<T>>,
    cancelled: BTreeSet<u64>,
    len: usize,
}

/// Min-order by `(at, tie, seq)` under `std`'s max-heap.
struct RefEntry<T>(Entry<T>);

impl<T> PartialEq for RefEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.seq == other.0.seq
    }
}
impl<T> Eq for RefEntry<T> {}
impl<T> PartialOrd for RefEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for RefEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        let key = |e: &Entry<T>| (e.at, e.tie, e.seq);
        key(&other.0).cmp(&key(&self.0))
    }
}

impl<T> ReferenceHeap<T> {
    /// An empty reference queue.
    pub fn new() -> Self {
        ReferenceHeap {
            heap: BinaryHeap::new(),
            cancelled: BTreeSet::new(),
            len: 0,
        }
    }

    /// Pending entries (cancelled ones count until they surface).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `item` at `(at, tie, seq)`.
    pub fn insert(&mut self, at: u64, tie: u64, seq: u64, item: T) {
        self.len += 1;
        self.heap.push(RefEntry(Entry { at, tie, seq, item }));
    }

    /// Lazily cancels the entry inserted with `seq`.
    pub fn cancel(&mut self, seq: u64) {
        self.cancelled.insert(seq);
    }

    /// Pops the minimal `(at, tie, seq)` entry with `at ≤ until`.
    pub fn pop_due(&mut self, until: u64) -> Option<Entry<T>> {
        loop {
            if self.heap.peek()?.0.at > until {
                return None;
            }
            let e = self.heap.pop().expect("peeked entry vanished").0;
            self.len -= 1;
            if !self.cancelled.is_empty() && self.cancelled.remove(&e.seq) {
                continue;
            }
            return Some(e);
        }
    }
}

impl<T> Default for ReferenceHeap<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains the wheel up to `until`, returning `(at, seq)` pairs.
    fn drain(w: &mut TimingWheel<u32>, until: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = w.pop_due(until) {
            out.push((e.at, e.seq));
        }
        out
    }

    #[test]
    fn pops_in_time_then_tie_then_seq_order() {
        let mut w = TimingWheel::new();
        w.insert(10, 5, 1, 0);
        w.insert(10, 1, 2, 0);
        w.insert(3, 9, 3, 0);
        w.insert(10, 1, 4, 0);
        assert_eq!(
            drain(&mut w, u64::MAX),
            vec![(3, 3), (10, 2), (10, 4), (10, 1)]
        );
        assert!(w.is_empty());
    }

    #[test]
    fn far_future_events_cascade_correctly() {
        // Span every level: exponentially spaced delays up to near
        // the top of the u64 domain.
        let mut w = TimingWheel::new();
        let times: Vec<u64> = (0..63).map(|b| 1u64 << b).collect();
        for (i, &t) in times.iter().enumerate() {
            w.insert(t, 0, i as u64, 0);
        }
        let popped: Vec<u64> = {
            let mut out = Vec::new();
            while let Some(e) = w.pop_due(u64::MAX) {
                out.push(e.at);
            }
            out
        };
        assert_eq!(popped, times);
    }

    #[test]
    fn horizon_bounds_the_cursor() {
        let mut w = TimingWheel::new();
        w.insert(1_000_000, 0, 1, 0);
        assert_eq!(w.pop_due(999), None);
        assert!(w.cursor() <= 999);
        // Inserting between the horizon and the pending event is
        // legal and pops in order.
        w.insert(5_000, 0, 2, 0);
        assert_eq!(drain(&mut w, u64::MAX), vec![(5_000, 2), (1_000_000, 1)]);
    }

    #[test]
    fn interleaved_inserts_at_the_cursor_instant() {
        let mut w = TimingWheel::new();
        w.insert(7, 0, 1, 0);
        let first = w.pop_due(u64::MAX).unwrap();
        assert_eq!((first.at, first.seq), (7, 1));
        // The simulator inserts "now" events while handling one.
        w.insert(7, 0, 2, 0);
        w.insert(8, 0, 3, 0);
        w.insert(7, 0, 4, 0);
        assert_eq!(drain(&mut w, u64::MAX), vec![(7, 2), (7, 4), (8, 3)]);
    }

    #[test]
    fn cancel_suppresses_and_reclaims() {
        let mut w = TimingWheel::new();
        w.insert(5, 0, 1, 0);
        w.insert(5, 0, 2, 0);
        w.insert(90_000, 0, 3, 0); // a different level entirely
        w.cancel(1);
        w.cancel(3);
        assert_eq!(w.len(), 3);
        assert_eq!(drain(&mut w, u64::MAX), vec![(5, 2)]);
        assert!(w.is_empty());
    }

    #[test]
    fn peak_tracks_the_high_water_mark() {
        let mut w = TimingWheel::new();
        for i in 0..10 {
            w.insert(i, 0, i, 0);
        }
        for _ in 0..5 {
            w.pop_due(u64::MAX).unwrap();
        }
        w.insert(100, 0, 100, 0);
        assert_eq!(w.peak(), 10);
        assert_eq!(w.len(), 6);
    }

    #[test]
    fn zero_time_events_pop_at_the_initial_cursor() {
        let mut w = TimingWheel::new();
        w.insert(0, 2, 1, 0);
        w.insert(0, 1, 2, 0);
        assert_eq!(drain(&mut w, 0), vec![(0, 2), (0, 1)]);
    }

    #[test]
    fn reference_heap_matches_the_wheel() {
        // Deterministic pseudo-random churn; the proptest in
        // `tests/wheel_vs_heap.rs` drives this far harder.
        let mut wheel = TimingWheel::new();
        let mut heap = ReferenceHeap::new();
        let mut state = 0x1234_5678u64;
        let mut mix = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for seq in 0..500u64 {
            // The kernel never schedules behind the cursor; mirror that.
            let at = wheel.cursor() + mix() % 100_000;
            let tie = mix() % 3;
            wheel.insert(at, tie, seq, seq as u32);
            heap.insert(at, tie, seq, seq as u32);
            if seq % 3 == 0 {
                let horizon = wheel.cursor() + mix() % 50_000;
                assert_eq!(wheel.pop_due(horizon), heap.pop_due(horizon));
            }
            if seq % 7 == 0 {
                wheel.cancel(seq);
                heap.cancel(seq);
            }
        }
        loop {
            let (a, b) = (wheel.pop_due(u64::MAX), heap.pop_due(u64::MAX));
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn max_time_is_representable() {
        let mut w = TimingWheel::new();
        w.insert(u64::MAX, 0, 1, 0);
        assert_eq!(w.pop_due(u64::MAX - 1), None);
        assert_eq!(drain(&mut w, u64::MAX), vec![(u64::MAX, 1)]);
    }
}
