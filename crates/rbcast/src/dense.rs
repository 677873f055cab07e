//! Dense bookkeeping for [`MsgId`]s.
//!
//! Every broadcast in the stack is named by a [`MsgId`]: its origin and
//! a sequence number the origin assigns densely from 0. GM's sequencer
//! numbers messages densely within a view. Sets and maps over such
//! keys are therefore kept as arrays indexed by sequence number rather
//! than as search trees:
//!
//! * [`WatermarkSet`] — a delivered set that never shrinks: per origin,
//!   a watermark below which every sequence number is in the set, plus
//!   a sorted overflow of the members above it.
//! * [`SeqWindow`] — a map over sequence numbers: a window of slots
//!   spanning the keys currently present, plus a sparse overflow for
//!   keys far outside it.
//! * [`WindowMap`] — one [`SeqWindow`] per origin; iterates in
//!   `(origin, seq)` order, the order of [`MsgId`]'s `Ord`.
//!
//! Sequence numbers come off the wire, so no key may force an
//! allocation proportional to its value: a key more than [`SLACK`]
//! positions away from a window goes to the window's sparse overflow,
//! and a watermark only advances over sequence numbers inserted.

use std::collections::{BTreeMap, VecDeque};
use std::ops::Bound;

use neko::Pid;

use crate::MsgId;

/// How far past either end of a [`SeqWindow`] a key may land and still
/// extend the window; keys farther away go to the sparse overflow. It
/// bounds the slots one insertion can allocate.
pub const SLACK: u64 = 256;

/// Per-origin entries, sorted by origin. A single origin, the usual
/// case of a consensus instance's decision broadcast, is kept inline.
#[derive(Clone, Debug)]
enum Origins<T> {
    Inline(Option<(Pid, T)>),
    Heap(Vec<(Pid, T)>),
}

impl<T> Origins<T> {
    const fn new() -> Self {
        Origins::Inline(None)
    }

    fn entries(&self) -> &[(Pid, T)] {
        match self {
            Origins::Inline(one) => one.as_slice(),
            Origins::Heap(all) => all,
        }
    }

    fn entries_mut(&mut self) -> &mut [(Pid, T)] {
        match self {
            Origins::Inline(one) => one.as_mut_slice(),
            Origins::Heap(all) => all,
        }
    }

    /// The slot of `p`, or where to insert it.
    fn find(&self, p: Pid) -> Result<usize, usize> {
        // Sorted and unique, so `p` sits at or below slot `p.index()`:
        // exactly there when every lower origin is present, a few
        // slots below while a few have not shown up yet.
        let entries = self.entries();
        let hi = (p.index() + 1).min(entries.len());
        let lo = hi.saturating_sub(4);
        for i in (lo..hi).rev() {
            match entries.get(i) {
                Some((q, _)) if *q == p => return Ok(i),
                Some((q, _)) if *q < p => return Err(i + 1),
                _ => {}
            }
        }
        entries
            .get(..lo)
            .map_or(Err(0), |head| head.binary_search_by_key(&p, |(q, _)| *q))
    }

    fn get(&self, p: Pid) -> Option<&T> {
        let i = self.find(p).ok()?;
        self.entries().get(i).map(|(_, t)| t)
    }

    /// The entry of `p`, or where to insert one.
    fn get_mut(&mut self, p: Pid) -> Result<&mut T, usize> {
        let i = self.find(p)?;
        self.entries_mut().get_mut(i).map(|(_, t)| t).ok_or(i)
    }

    fn insert(&mut self, i: usize, p: Pid, t: T) {
        match self {
            Origins::Inline(one @ None) => *one = Some((p, t)),
            Origins::Inline(one) => {
                let mut all = Vec::with_capacity(4);
                all.extend(one.take());
                all.insert(i, (p, t));
                *self = Origins::Heap(all);
            }
            Origins::Heap(all) => all.insert(i, (p, t)),
        }
    }

    fn iter(&self) -> impl Iterator<Item = (Pid, &T)> + Clone {
        self.entries().iter().map(|(p, t)| (*p, t))
    }

    fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.entries_mut().iter_mut().map(|(_, t)| t)
    }
}

/// One origin's part of a [`WatermarkSet`].
#[derive(Clone, Debug, Default)]
struct Watermark {
    /// Every sequence number below this is in the set.
    below: u64,
    /// The members at or above `below`, ascending. Usually empty:
    /// ids are mostly inserted in sequence order.
    above: Vec<u64>,
}

impl Watermark {
    fn contains(&self, seq: u64) -> bool {
        seq < self.below || self.above.binary_search(&seq).is_ok()
    }

    fn insert(&mut self, seq: u64) -> bool {
        if seq < self.below {
            return false;
        }
        if seq > self.below || seq == u64::MAX {
            return match self.above.binary_search(&seq) {
                Ok(_) => false,
                Err(i) => {
                    self.above.insert(i, seq);
                    true
                }
            };
        }
        self.below += 1;
        // Absorb the run of overflow members the watermark now reaches.
        let mut run = 0;
        while self.below < u64::MAX && self.above.get(run) == Some(&self.below) {
            run += 1;
            self.below += 1;
        }
        self.above.drain(..run);
        true
    }
}

/// A set of [`MsgId`]s that only grows: per origin, a watermark below
/// which every sequence number is a member, plus the members above it.
///
/// Membership tests and in-order insertions cost a lookup of the
/// origin and a comparison; the set's size is the number of members
/// above their origin's watermark, not the number of members.
#[derive(Clone, Debug)]
pub struct WatermarkSet {
    origins: Origins<Watermark>,
}

impl Default for WatermarkSet {
    fn default() -> Self {
        Self::new()
    }
}

impl WatermarkSet {
    /// The empty set.
    pub const fn new() -> Self {
        WatermarkSet {
            origins: Origins::new(),
        }
    }

    /// Adds `id`; returns whether it was not yet a member.
    pub fn insert(&mut self, id: MsgId) -> bool {
        match self.origins.get_mut(id.origin) {
            Ok(mark) => mark.insert(id.seq),
            Err(i) => {
                let mut mark = Watermark::default();
                mark.insert(id.seq);
                self.origins.insert(i, id.origin, mark);
                true
            }
        }
    }

    /// Whether `id` is a member.
    pub fn contains(&self, id: MsgId) -> bool {
        self.origins
            .get(id.origin)
            .is_some_and(|mark| mark.contains(id.seq))
    }

    /// The first sequence number of `origin` that is not a member:
    /// every one below it is.
    pub fn watermark(&self, origin: Pid) -> u64 {
        self.origins.get(origin).map_or(0, |mark| mark.below)
    }
}

/// A map over sequence numbers: a window of slots spanning the keys
/// present, plus a sparse overflow for keys more than [`SLACK`] away
/// from it.
///
/// Keys inside the window's span always live in the window; the
/// overflow only holds keys outside it. Removing the keys at either end
/// shrinks the window, so a map whose keys advance (a retransmission
/// store, a pending set) stays as small as its live span.
#[derive(Clone, Debug)]
pub struct SeqWindow<V> {
    /// The key of the first slot.
    base: u64,
    /// Slot `i` holds key `base + i`; both end slots are occupied.
    slots: VecDeque<Option<V>>,
    /// Entries whose key lies outside the window's span.
    far: BTreeMap<u64, V>,
    len: usize,
}

impl<V> Default for SeqWindow<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> SeqWindow<V> {
    /// The empty map.
    pub const fn new() -> Self {
        SeqWindow {
            base: 0,
            slots: VecDeque::new(),
            far: BTreeMap::new(),
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots of the dense window (occupied or not).
    pub fn span(&self) -> usize {
        self.slots.len()
    }

    fn offset(&self, key: u64) -> Option<usize> {
        usize::try_from(key.checked_sub(self.base)?).ok()
    }

    fn slot(&self, key: u64) -> Option<&Option<V>> {
        self.slots.get(self.offset(key)?)
    }

    fn slot_mut(&mut self, key: u64) -> Option<&mut Option<V>> {
        let i = self.offset(key)?;
        self.slots.get_mut(i)
    }

    /// The entry of `key`.
    pub fn get(&self, key: u64) -> Option<&V> {
        match self.slot(key) {
            Some(slot) => slot.as_ref(),
            None => self.far.get(&key),
        }
    }

    /// The entry of `key`, mutably.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        let i = self.offset(key).filter(|&i| i < self.slots.len());
        match i {
            Some(i) => self.slots.get_mut(i).and_then(Option::as_mut),
            None => self.far.get_mut(&key),
        }
    }

    /// Whether `key` has an entry.
    pub fn contains_key(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Sets the entry of `key`; returns the one it replaces.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        let old = match self.slot_mut(key) {
            Some(slot) => slot.replace(value),
            None => match self.far.get_mut(&key) {
                Some(entry) => Some(std::mem::replace(entry, value)),
                None => {
                    if let Err(value) = self.extend(key, value) {
                        self.far.insert(key, value);
                    }
                    None
                }
            },
        };
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Grows the window to `key` (outside its span and absent) and
    /// stores `value` there, unless `key` is more than [`SLACK`] past
    /// either end.
    fn extend(&mut self, key: u64, value: V) -> Result<(), V> {
        let Some(last) = self.last() else {
            // An empty window starts at whatever key comes first: one
            // slot, whatever its value.
            self.base = key;
            self.slots.push_back(Some(value));
            return Ok(());
        };
        if key > last {
            if key - last > SLACK {
                return Err(value);
            }
            for _ in last + 1..key {
                self.slots.push_back(None);
            }
            self.slots.push_back(Some(value));
            self.adopt(last, key);
        } else {
            let first = self.base;
            if first - key > SLACK {
                return Err(value);
            }
            for _ in key + 1..first {
                self.slots.push_front(None);
            }
            self.slots.push_front(Some(value));
            self.base = key;
            self.adopt(key, first);
        }
        Ok(())
    }

    /// Moves the overflow entries strictly between `lo` and `hi`, now
    /// inside the window's span, into their slots.
    fn adopt(&mut self, lo: u64, hi: u64) {
        if hi - lo < 2 || self.far.is_empty() {
            return;
        }
        let mut inside = self.far.split_off(&(lo + 1));
        let mut above = inside.split_off(&hi);
        self.far.append(&mut above);
        for (key, value) in inside {
            match self.slot_mut(key) {
                Some(slot) => *slot = Some(value),
                None => {
                    self.far.insert(key, value);
                }
            }
        }
    }

    /// The key of the window's last slot.
    fn last(&self) -> Option<u64> {
        let len = self.slots.len() as u64;
        (len > 0).then(|| self.base + (len - 1))
    }

    /// Removes the entry of `key`.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let old = match self.slot_mut(key) {
            Some(slot) => slot.take(),
            None => self.far.remove(&key),
        };
        if old.is_some() {
            self.len -= 1;
            while matches!(self.slots.front(), Some(None)) {
                self.slots.pop_front();
                self.base = self.base.saturating_add(1);
            }
            while matches!(self.slots.back(), Some(None)) {
                self.slots.pop_back();
            }
        }
        old
    }

    /// Removes every entry, keeping the window's capacity.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.far.clear();
        self.len = 0;
    }

    /// The entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> + Clone {
        let base = self.base;
        let window = self
            .slots
            .iter()
            .zip(0u64..)
            .filter_map(move |(slot, i)| Some((base + i, slot.as_ref()?)));
        let after = match self.last() {
            Some(last) => Bound::Excluded(last),
            None => Bound::Included(base),
        };
        // The overflow is almost always empty: build no ranges then.
        let far = Some(&self.far).filter(|far| !far.is_empty());
        let below = far.into_iter().flat_map(move |far| far.range(..base));
        let above = far
            .into_iter()
            .flat_map(move |far| far.range((after, Bound::Unbounded)));
        below
            .map(|(k, v)| (*k, v))
            .chain(window)
            .chain(above.map(|(k, v)| (*k, v)))
    }
}

/// A map over [`MsgId`]s, kept as one [`SeqWindow`] per origin.
/// Iterates in `(origin, seq)` order.
#[derive(Clone, Debug)]
pub struct WindowMap<V> {
    origins: Origins<SeqWindow<V>>,
    len: usize,
}

impl<V> Default for WindowMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> WindowMap<V> {
    /// The empty map.
    pub const fn new() -> Self {
        WindowMap {
            origins: Origins::new(),
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots of the dense windows (occupied or not).
    pub fn span(&self) -> usize {
        self.origins.iter().map(|(_, w)| w.span()).sum()
    }

    /// The entry of `id`.
    pub fn get(&self, id: MsgId) -> Option<&V> {
        self.origins.get(id.origin)?.get(id.seq)
    }

    /// The entry of `id`, mutably.
    pub fn get_mut(&mut self, id: MsgId) -> Option<&mut V> {
        self.origins.get_mut(id.origin).ok()?.get_mut(id.seq)
    }

    /// Whether `id` has an entry.
    pub fn contains_key(&self, id: MsgId) -> bool {
        self.get(id).is_some()
    }

    /// Sets the entry of `id`; returns the one it replaces.
    pub fn insert(&mut self, id: MsgId, value: V) -> Option<V> {
        let old = match self.origins.get_mut(id.origin) {
            Ok(window) => window.insert(id.seq, value),
            Err(i) => {
                let mut window = SeqWindow::new();
                window.insert(id.seq, value);
                self.origins.insert(i, id.origin, window);
                None
            }
        };
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes the entry of `id`.
    pub fn remove(&mut self, id: MsgId) -> Option<V> {
        let old = self.origins.get_mut(id.origin).ok()?.remove(id.seq);
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Removes every entry, keeping the windows' capacity.
    pub fn clear(&mut self) {
        self.origins.values_mut().for_each(SeqWindow::clear);
        self.len = 0;
    }

    /// The entries in `(origin, seq)` order.
    pub fn iter(&self) -> impl Iterator<Item = (MsgId, &V)> + Clone {
        self.origins
            .iter()
            .filter(|(_, window)| !window.is_empty())
            .flat_map(|(origin, window)| {
                window
                    .iter()
                    .map(move |(seq, v)| (MsgId { origin, seq }, v))
            })
    }

    /// The ids in `(origin, seq)` order.
    pub fn keys(&self) -> impl Iterator<Item = MsgId> + Clone + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// The entries of one origin, in `seq` order.
    pub fn iter_origin(&self, origin: Pid) -> impl Iterator<Item = (MsgId, &V)> + Clone {
        self.origins
            .get(origin)
            .into_iter()
            .flat_map(move |window| {
                window
                    .iter()
                    .map(move |(seq, v)| (MsgId { origin, seq }, v))
            })
    }
}
