//! The programming model: processes, messages and the context through
//! which a process acts on the world.
//!
//! Protocol stacks implement [`Process`]; the same implementation runs
//! unchanged on the discrete-event simulator ([`crate::Sim`]) and on
//! the thread-based real-time runtime ([`crate::RealRuntime`]) — this
//! mirrors the Neko framework the paper used. Drivers talk to either
//! backend through [`crate::Runtime`].

use core::fmt;

use rand::RngCore;

use crate::time::{Dur, Time};

/// Maximum number of processes the simulation engine supports:
/// destination sets, suspect masks and partition groups are
/// `MASK_WORDS`-word bit masks of this width. (The thread-per-process
/// real-time backend, [`crate::RealRuntime`], keeps its own lower cap.)
pub const MAX_PROCESSES: usize = 256;

/// 64-bit words per pid bit mask.
pub(crate) const MASK_WORDS: usize = MAX_PROCESSES / 64;

/// Identifier of a process in a system of `n` processes.
///
/// Internally 0-based; displayed 1-based (`p1`, `p2`, …) to match the
/// paper's figures.
///
/// ```
/// use neko::Pid;
///
/// let p = Pid::new(0);
/// assert_eq!(p.index(), 0);
/// assert_eq!(p.to_string(), "p1");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(u32);

impl Pid {
    /// Creates the pid with 0-based index `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 256` ([`MAX_PROCESSES`]); destination sets
    /// and suspect masks are fixed-width bit masks.
    pub fn new(index: usize) -> Self {
        assert!(index < MAX_PROCESSES, "at most 256 processes are supported");
        Pid(index as u32)
    }

    /// The 0-based index of this process.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterates over the pids `p1 … pn` of a system of `n` processes.
    pub fn all(n: usize) -> impl Iterator<Item = Pid> + Clone {
        (0..n).map(Pid::new)
    }
}

impl fmt::Debug for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0 + 1)
    }
}

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0 + 1)
    }
}

/// An edge reported by a failure detector to the process it serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FdEvent {
    /// The detector started suspecting `Pid` to have crashed.
    Suspect(Pid),
    /// The detector stopped suspecting `Pid` (it corrected a mistake).
    Trust(Pid),
}

impl FdEvent {
    /// The process the event is about.
    pub fn subject(self) -> Pid {
        match self {
            FdEvent::Suspect(p) | FdEvent::Trust(p) => p,
        }
    }
}

/// A protocol message.
///
/// [`Message::try_merge`] implements *message packing*: when a message
/// is still queued at the sending host's CPU (i.e. not yet being
/// processed) and a new message with the same destinations is sent,
/// the engine offers the new one to the queued one. Protocols use this
/// for the paper's "seqnum, ack and deliver messages can carry several
/// sequence numbers", which is essential for good performance under
/// high load.
pub trait Message: Clone + fmt::Debug + 'static {
    /// Attempts to absorb `other` into `self`, returning `true` on
    /// success. The default never merges.
    ///
    /// Implementations must preserve the *content* of both messages
    /// (e.g. concatenate the carried sequence numbers); the engine
    /// then transmits the merged message once.
    fn try_merge(&mut self, other: &Self) -> bool {
        let _ = other;
        false
    }
}

impl Message for () {}
impl Message for u64 {}
impl Message for String {}
impl Message for &'static str {}

/// Handle to a pending timer, returned by [`Ctx::set_timer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub(crate) u64);

/// The interface through which a process observes and acts on its
/// environment. Implemented by both the simulator and the real-time
/// runtime.
pub trait Ctx<M: Message, O> {
    /// The current (simulated or real) time.
    fn now(&self) -> Time;
    /// This process's identifier.
    fn pid(&self) -> Pid;
    /// The total number of processes in the system.
    fn n(&self) -> usize;
    /// Sends `msg` to `to`. A message to `self` is delivered locally
    /// without occupying the CPU or the network.
    fn send(&mut self, to: Pid, msg: M);
    /// Sends `msg` to every process in `dests` (local copy, if any, is
    /// free; remote copies occupy the sender CPU once and the network
    /// once — a true multicast).
    fn multicast(&mut self, dests: &[Pid], msg: M);
    /// Sends `msg` to all `n` processes including the caller.
    fn broadcast(&mut self, msg: M);
    /// Arms a timer that fires `after` from now, delivering `tag` to
    /// [`Process::on_timer`].
    fn set_timer(&mut self, after: Dur, tag: u64) -> TimerId;
    /// Cancels a pending timer. Cancelling an already-fired timer is
    /// a no-op.
    fn cancel_timer(&mut self, id: TimerId);
    /// Emits an observable output (e.g. an A-deliver event) to the
    /// experiment harness.
    fn emit(&mut self, out: O);
    /// Queries the local failure detector: is `p` currently suspected?
    fn is_suspected(&self, p: Pid) -> bool;
    /// This process's private random-number generator.
    fn rng(&mut self) -> &mut dyn RngCore;
}

/// An event-driven process (a whole protocol stack on one host).
///
/// All methods receive a [`Ctx`] through which the process sends
/// messages, arms timers and emits outputs. The engine guarantees that
/// calls on one process never overlap.
pub trait Process: Sized + 'static {
    /// The message type exchanged between the `n` replicas of this
    /// process.
    type Msg: Message;
    /// External commands injected by the driver (e.g. "A-broadcast this
    /// payload").
    type Cmd: fmt::Debug + 'static;
    /// Observable outputs (e.g. "A-delivered this payload").
    type Out: fmt::Debug + 'static;

    /// Invoked once at time zero, before any other event.
    fn on_start(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>) {
        let _ = ctx;
    }

    /// Invoked when the driver injects a command for this process.
    fn on_command(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, cmd: Self::Cmd);

    /// Invoked when a message from `from` is delivered to this process.
    fn on_message(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, from: Pid, msg: Self::Msg);

    /// Invoked when the local failure detector changes its mind about
    /// some process. The suspect set visible through
    /// [`Ctx::is_suspected`] is updated *before* this call.
    fn on_fd(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, ev: FdEvent) {
        let _ = (ctx, ev);
    }

    /// Invoked when a timer armed with [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, id: TimerId, tag: u64) {
        let _ = (ctx, id, tag);
    }

    /// Invoked when the driver *recovers* this previously crashed
    /// process (crash-recovery model: the state is the pre-crash
    /// state, as if read back from stable storage). Timers due while
    /// the process was down did **not** fire, so periodic work must
    /// be re-armed here.
    fn on_recover(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>) {
        let _ = ctx;
    }
}

/// A set of processes, stored as a multi-word bit mask (hence the
/// [`MAX_PROCESSES`]-process limit). Serves as the engine's multicast
/// destination set, failure-detector suspect mask (`fdet::SuspectSet`
/// is this type; [`DestSet::apply`] folds an [`FdEvent`] into it) and
/// partition group.
///
/// Deliberately **not** `Copy`: at four words the set is large enough
/// that hot loops (fan-out, coalescing) should borrow or move it
/// rather than duplicate it silently — pass `&DestSet` unless the
/// callee stores the set.
///
/// ```
/// use neko::{DestSet, Pid};
///
/// let s: DestSet = [Pid::new(2), Pid::new(200)].into_iter().collect();
/// assert_eq!(s.len(), 2);
/// assert!(s.contains(Pid::new(200)));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![Pid::new(2), Pid::new(200)]);
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct DestSet {
    words: [u64; MASK_WORDS],
}

impl DestSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The set containing exactly `p`.
    pub fn single(p: Pid) -> Self {
        let mut s = Self::default();
        s.insert(p);
        s
    }

    #[inline]
    fn word_bit(p: Pid) -> (usize, u64) {
        (p.index() >> 6, 1u64 << (p.index() & 63))
    }

    /// Adds `p` to the set.
    #[inline]
    pub fn insert(&mut self, p: Pid) {
        let (w, bit) = Self::word_bit(p);
        self.words[w] |= bit;
    }

    /// Removes `p` from the set.
    #[inline]
    pub fn remove(&mut self, p: Pid) {
        let (w, bit) = Self::word_bit(p);
        self.words[w] &= !bit;
    }

    /// Whether `p` is a member.
    #[inline]
    pub fn contains(&self, p: Pid) -> bool {
        let (w, bit) = Self::word_bit(p);
        self.words[w] & bit != 0
    }

    /// Whether the set has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The number of members (a popcount per word).
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Applies a failure-detector edge to a suspect set: `Suspect(p)`
    /// inserts `p`, `Trust(p)` removes it. Returns `true` if the set
    /// changed, so a redundant edge can be dropped.
    ///
    /// ```
    /// use neko::{DestSet, FdEvent, Pid};
    ///
    /// let mut s = DestSet::new();
    /// assert!(s.apply(FdEvent::Suspect(Pid::new(1))));
    /// assert!(s.contains(Pid::new(1)));
    /// assert!(!s.apply(FdEvent::Suspect(Pid::new(1)))); // redundant
    /// assert!(s.apply(FdEvent::Trust(Pid::new(1))));
    /// assert!(!s.contains(Pid::new(1)));
    /// ```
    pub fn apply(&mut self, ev: FdEvent) -> bool {
        match ev {
            FdEvent::Suspect(p) if !self.contains(p) => self.insert(p),
            FdEvent::Trust(p) if self.contains(p) => self.remove(p),
            _ => return false,
        }
        true
    }

    /// The sole member, if the set has exactly one — the engine's
    /// single-destination fast path keys off this.
    pub fn as_single(&self) -> Option<Pid> {
        let mut found: Option<Pid> = None;
        for (w, &bits) in self.words.iter().enumerate() {
            if bits == 0 {
                continue;
            }
            if found.is_some() || !bits.is_power_of_two() {
                return None;
            }
            found = Some(Pid::new((w << 6) | bits.trailing_zeros() as usize));
        }
        found
    }

    /// Iterates members in ascending pid order. Walks set bits
    /// directly (clear-lowest-bit per word), so iterating a k-element
    /// set costs k steps plus one skip per empty word — fan-out loops
    /// run this per message. The iterator snapshots the words, so the
    /// set may be mutated while an iterator is live.
    pub fn iter(&self) -> impl Iterator<Item = Pid> + Clone {
        let words = self.words;
        let mut w = 0usize;
        let mut bits = words[0];
        std::iter::from_fn(move || loop {
            if bits == 0 {
                w += 1;
                if w >= MASK_WORDS {
                    return None;
                }
                bits = words[w];
                continue;
            }
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            return Some(Pid::new((w << 6) | i));
        })
    }
}

impl FromIterator<Pid> for DestSet {
    fn from_iter<I: IntoIterator<Item = Pid>>(iter: I) -> Self {
        let mut s = Self::default();
        for p in iter {
            s.insert(p);
        }
        s
    }
}

impl fmt::Debug for DestSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pid_display_is_one_based() {
        assert_eq!(Pid::new(0).to_string(), "p1");
        assert_eq!(format!("{:?}", Pid::new(6)), "p7");
        assert_eq!(Pid::new(3).index(), 3);
    }

    #[test]
    fn pid_all_enumerates() {
        let v: Vec<_> = Pid::all(3).collect();
        assert_eq!(v, vec![Pid::new(0), Pid::new(1), Pid::new(2)]);
    }

    #[test]
    #[should_panic(expected = "at most 256")]
    fn pid_out_of_range_panics() {
        let _ = Pid::new(MAX_PROCESSES);
    }

    #[test]
    fn fd_event_subject() {
        assert_eq!(FdEvent::Suspect(Pid::new(1)).subject(), Pid::new(1));
        assert_eq!(FdEvent::Trust(Pid::new(2)).subject(), Pid::new(2));
    }

    #[test]
    fn dest_set_roundtrip() {
        let mut s = DestSet::default();
        assert!(s.is_empty());
        s.insert(Pid::new(0));
        s.insert(Pid::new(5));
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![Pid::new(0), Pid::new(5)]);
        assert!(!s.is_empty());
        assert_eq!(s.len(), 2);
        s.remove(Pid::new(0));
        assert_eq!(s.as_single(), Some(Pid::new(5)));
    }

    #[test]
    fn dest_set_crosses_word_boundaries() {
        let mut s = DestSet::new();
        for i in [63, 64, 127, 128, 255] {
            s.insert(Pid::new(i));
        }
        assert_eq!(s.len(), 5);
        let v: Vec<usize> = s.iter().map(Pid::index).collect();
        assert_eq!(v, vec![63, 64, 127, 128, 255]);
        assert!(s.contains(Pid::new(128)));
        assert!(!s.contains(Pid::new(129)));
        assert_eq!(s.as_single(), None);
        s.remove(Pid::new(63));
        s.remove(Pid::new(64));
        s.remove(Pid::new(127));
        s.remove(Pid::new(128));
        assert_eq!(s.as_single(), Some(Pid::new(255)));
    }

    #[test]
    fn apply_reports_changes() {
        let mut s = DestSet::new();
        assert!(s.apply(FdEvent::Suspect(Pid::new(3))));
        assert!(!s.apply(FdEvent::Suspect(Pid::new(3))));
        assert!(!s.apply(FdEvent::Trust(Pid::new(1))));
        assert_eq!(s.len(), 1);
        assert!(s.apply(FdEvent::Trust(Pid::new(3))));
        assert!(s.is_empty());
    }

    #[test]
    fn default_message_never_merges() {
        let mut a = 1u64;
        assert!(!Message::try_merge(&mut a, &2u64));
    }
}
