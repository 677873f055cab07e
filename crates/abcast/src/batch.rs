//! Adaptive message batching: many A-broadcasts, one wire message.
//!
//! Both algorithms pay per *message* on the network model (and on a
//! real wire, per packet), so under heavy load the biggest throughput
//! lever is aggregating pending A-broadcast payloads into one carrier
//! broadcast — the Ring Paxos observation. This module implements
//! that as a layer *around* the algorithms, not inside them:
//!
//! * a [`Pack`] is the batched payload — a run of `(id, payload)`
//!   pairs that rides through [`rbcast`] and [`consensus`] as one
//!   opaque value (both are payload-generic, so agreement, total
//!   order and validity apply to whole packs unchanged);
//! * a [`Batcher`] accumulates payloads with two knobs: `max_batch`
//!   (flush when this many are buffered) and `max_delay` (flush a
//!   non-empty buffer this long after its first payload arrived);
//! * [`Batched`] wraps any atomic-broadcast [`Process`] whose command
//!   type is a pack — [`FdNode<Pack<P>>`](crate::FdNode) or
//!   [`GmNode<Pack<P>>`](crate::GmNode) — into a process whose
//!   command type is the bare payload `P`: commands are buffered,
//!   packs are flushed on size immediately or on a kernel timer
//!   ([`neko::Ctx::set_timer`], so it works identically on the
//!   simulator and the real-time runtime), and pack deliveries are
//!   **unbatched** back into one [`AbcastEvent::Delivered`] per
//!   payload, in pack order.
//!
//! Total order on packs plus a deterministic order inside each pack
//! gives total order on payloads, so the unbatched measurement
//! pipeline (latency per payload, delivery logs) runs unchanged on
//! batched stacks. With batching *off* the study runner never
//! constructs this layer, so unbatched runs stay bit-identical.

use std::sync::Arc;

use neko::{Ctx, Dur, FdEvent, Message, Pid, Process, Time, TimerId};
use rand::RngCore;

use crate::common::{AbcastEvent, MsgId, Payload};

/// The batched wire payload: origin-unique ids with their payloads,
/// in arrival order. Rides through reliable broadcast and consensus
/// as a single opaque value.
///
/// A pack is immutable once shipped: the [`Batcher`] freezes its
/// buffer into a fresh pack at flush, and no layer below ever changes
/// one, because agreement is on the value and every process must
/// unbatch the same payloads. So the layers share a pack instead of
/// copying it. Every `clone()` that rbcast, consensus, membership or
/// the kernel's fan-out makes of a pack-valued message is a refcount
/// bump, not a copy of the payload run, and the host cost of a
/// batched run scales with the payloads it carries, not with the hops
/// each pack takes.
pub type Pack<P> = Arc<[(MsgId, P)]>;

/// The two batching knobs.
///
/// ```
/// use abcast::BatchConfig;
/// use neko::Dur;
///
/// let cfg = BatchConfig::new(8, Dur::from_millis(2));
/// assert_eq!(cfg.max_batch(), 8);
/// assert_eq!(cfg.max_delay(), Dur::from_millis(2));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchConfig {
    max_batch: usize,
    max_delay: Dur,
}

impl BatchConfig {
    /// Flush a pack once `max_batch` payloads are buffered, or
    /// `max_delay` after the first buffered payload — whichever comes
    /// first. `max_batch == 1` degenerates to unbatched behaviour
    /// (every payload ships immediately in a singleton pack).
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub fn new(max_batch: usize, max_delay: Dur) -> Self {
        assert!(max_batch > 0, "a batch must hold at least one payload");
        BatchConfig {
            max_batch,
            max_delay,
        }
    }

    /// The size knob: flush when this many payloads are buffered.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// The time knob: flush a non-empty buffer this long after its
    /// first payload arrived.
    pub fn max_delay(&self) -> Dur {
        self.max_delay
    }
}

/// Accumulates payloads into [`Pack`]s and assigns each one an
/// origin-unique [`MsgId`] (its own per-origin counter; these ids
/// identify *payloads*, disjoint from the pack-level rb ids the inner
/// algorithm assigns).
#[derive(Debug)]
pub struct Batcher<P> {
    me: Pid,
    max_batch: usize,
    next_seq: u64,
    /// The pack being filled; its capacity is reused across packs.
    buf: Vec<(MsgId, P)>,
}

impl<P: Payload> Batcher<P> {
    /// An empty batcher for process `me`.
    pub fn new(me: Pid, cfg: BatchConfig) -> Self {
        Batcher {
            me,
            max_batch: cfg.max_batch,
            next_seq: 0,
            buf: Vec::new(),
        }
    }

    /// Buffers one payload under a fresh id; returns the full pack
    /// when the size knob is reached.
    pub fn push(&mut self, payload: P) -> (MsgId, Option<Pack<P>>) {
        let id = MsgId {
            origin: self.me,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.buf.push((id, payload));
        let full = (self.buf.len() >= self.max_batch).then(|| self.freeze());
        (id, full)
    }

    /// Takes whatever is buffered (the time knob firing), or `None`
    /// when the buffer is empty.
    pub fn flush(&mut self) -> Option<Pack<P>> {
        (!self.buf.is_empty()).then(|| self.freeze())
    }

    /// Moves the buffered payloads into a new pack (one allocation)
    /// and leaves the buffer empty.
    fn freeze(&mut self) -> Pack<P> {
        self.buf.drain(..).collect()
    }

    /// Number of buffered payloads.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Timer tag of the flush timer (disambiguated from inner-layer
/// timers by [`TimerId`], not by tag).
const TAG_FLUSH: u64 = 0xBA7C;

/// Wraps a pack-valued atomic-broadcast process into a payload-valued
/// one: commands are batched on the way in, deliveries unbatched on
/// the way out. Everything else — messages, FD edges, the inner
/// layer's own timers — passes straight through.
///
/// ```
/// use abcast::{AbcastEvent, BatchConfig, Batched, FdNode, Pack};
/// use neko::{Dur, Pid, SimBuilder, Time};
///
/// let suspects = fdet::SuspectSet::new();
/// let cfg = BatchConfig::new(4, Dur::from_millis(2));
/// let mut sim = SimBuilder::new(3)
///     .build_with(|p| Batched::new(p, FdNode::<Pack<u64>>::new(p, 3, &suspects), cfg));
/// for v in 0..4 {
///     sim.schedule_command(Time::ZERO, Pid::new(0), v); // fills one pack
/// }
/// sim.run_until(Time::from_millis(50));
/// // Every process A-delivered all four payloads, individually.
/// assert_eq!(sim.take_outputs().len(), 12);
/// ```
#[derive(Debug)]
pub struct Batched<P: Payload, N> {
    inner: N,
    batcher: Batcher<P>,
    max_delay: Dur,
    flush_timer: Option<TimerId>,
}

impl<P: Payload, N> Batched<P, N> {
    /// Wraps `inner` (running at process `me`) under the given knobs.
    pub fn new(me: Pid, inner: N, cfg: BatchConfig) -> Self {
        Batched {
            inner,
            batcher: Batcher::new(me, cfg),
            max_delay: cfg.max_delay,
            flush_timer: None,
        }
    }

    /// The wrapped process (inspection in tests/examples).
    pub fn inner(&self) -> &N {
        &self.inner
    }
}

impl<P, N> Batched<P, N>
where
    P: Payload,
    N: Process<Cmd = Pack<P>, Out = AbcastEvent<Pack<P>>>,
{
    fn ship(&mut self, ctx: &mut dyn Ctx<N::Msg, AbcastEvent<P>>, pack: Pack<P>) {
        if let Some(id) = self.flush_timer.take() {
            ctx.cancel_timer(id);
        }
        self.inner.on_command(&mut Unbatch { ctx }, pack);
    }
}

impl<P, N> Process for Batched<P, N>
where
    P: Payload,
    N: Process<Cmd = Pack<P>, Out = AbcastEvent<Pack<P>>>,
{
    type Msg = N::Msg;
    type Cmd = P;
    type Out = AbcastEvent<P>;

    fn on_start(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>) {
        self.inner.on_start(&mut Unbatch { ctx });
    }

    fn on_command(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, cmd: P) {
        let (_id, full) = self.batcher.push(cmd);
        if let Some(pack) = full {
            self.ship(ctx, pack);
        } else if self.flush_timer.is_none() {
            self.flush_timer = Some(ctx.set_timer(self.max_delay, TAG_FLUSH));
        }
    }

    fn on_message(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, from: Pid, msg: Self::Msg) {
        self.inner.on_message(&mut Unbatch { ctx }, from, msg);
    }

    fn on_fd(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, ev: FdEvent) {
        self.inner.on_fd(&mut Unbatch { ctx }, ev);
    }

    fn on_timer(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>, id: TimerId, tag: u64) {
        if self.flush_timer == Some(id) {
            self.flush_timer = None;
            if let Some(pack) = self.batcher.flush() {
                self.ship(ctx, pack);
            }
        } else {
            self.inner.on_timer(&mut Unbatch { ctx }, id, tag);
        }
    }

    fn on_recover(&mut self, ctx: &mut dyn Ctx<Self::Msg, Self::Out>) {
        // A flush timer armed before the crash never fired; payloads
        // buffered in the pre-crash state still need a ride.
        self.flush_timer =
            (!self.batcher.is_empty()).then(|| ctx.set_timer(self.max_delay, TAG_FLUSH));
        self.inner.on_recover(&mut Unbatch { ctx });
    }
}

/// The context the inner (pack-valued) layer sees: everything
/// forwards to the real context except [`Ctx::emit`], which unbatches
/// a delivered pack into one event per payload, in pack order.
struct Unbatch<'a, 'c, M: Message, P> {
    ctx: &'a mut (dyn Ctx<M, AbcastEvent<P>> + 'c),
}

impl<M: Message, P: Payload> Ctx<M, AbcastEvent<Pack<P>>> for Unbatch<'_, '_, M, P> {
    fn now(&self) -> Time {
        self.ctx.now()
    }

    fn pid(&self) -> Pid {
        self.ctx.pid()
    }

    fn n(&self) -> usize {
        self.ctx.n()
    }

    fn send(&mut self, to: Pid, msg: M) {
        self.ctx.send(to, msg);
    }

    fn multicast(&mut self, dests: &[Pid], msg: M) {
        self.ctx.multicast(dests, msg);
    }

    fn broadcast(&mut self, msg: M) {
        self.ctx.broadcast(msg);
    }

    fn set_timer(&mut self, after: Dur, tag: u64) -> TimerId {
        self.ctx.set_timer(after, tag)
    }

    fn cancel_timer(&mut self, id: TimerId) {
        self.ctx.cancel_timer(id);
    }

    fn emit(&mut self, out: AbcastEvent<Pack<P>>) {
        let AbcastEvent::Delivered { payload, .. } = out;
        for (id, p) in payload.iter() {
            self.ctx.emit(AbcastEvent::Delivered {
                id: *id,
                payload: p.clone(),
            });
        }
    }

    fn is_suspected(&self, p: Pid) -> bool {
        self.ctx.is_suspected(p)
    }

    fn rng(&mut self) -> &mut dyn RngCore {
        self.ctx.rng()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FdNode, GmNode};
    use fdet::SuspectSet;
    use neko::{SimBuilder, Time};

    #[test]
    fn batcher_flushes_on_size_with_unique_ids() {
        let mut b: Batcher<u32> = Batcher::new(Pid::new(1), BatchConfig::new(3, Dur::ZERO));
        let (id0, none) = b.push(10);
        assert!(none.is_none());
        assert_eq!(b.len(), 1);
        let (id1, none) = b.push(11);
        assert!(none.is_none());
        let (id2, full) = b.push(12);
        let pack = full.expect("third payload fills the batch");
        assert_eq!(*pack, [(id0, 10), (id1, 11), (id2, 12)]);
        assert!(b.is_empty());
        assert_eq!(id0.origin, Pid::new(1));
        assert!(id0 < id1 && id1 < id2, "ids increase in arrival order");
        // The counter keeps going across packs.
        let (id3, _) = b.push(13);
        assert!(id2 < id3);
    }

    #[test]
    fn batcher_flush_drains_partial_buffers_only() {
        let mut b: Batcher<u32> = Batcher::new(Pid::new(0), BatchConfig::new(4, Dur::ZERO));
        assert!(b.flush().is_none());
        b.push(1);
        b.push(2);
        let pack = b.flush().expect("two buffered");
        assert_eq!(pack.len(), 2);
        assert!(b.flush().is_none());
    }

    #[test]
    #[should_panic(expected = "at least one payload")]
    fn zero_batch_size_panics() {
        let _ = BatchConfig::new(0, Dur::ZERO);
    }

    fn batched_sim(n: usize, cfg: BatchConfig) -> neko::Sim<Batched<u64, FdNode<Pack<u64>>>> {
        let suspects = SuspectSet::new();
        SimBuilder::new(n)
            .seed(7)
            .build_with(move |p| Batched::new(p, FdNode::<Pack<u64>>::new(p, n, &suspects), cfg))
    }

    #[test]
    fn size_flush_ships_immediately_and_delivers_each_payload() {
        let mut sim = batched_sim(3, BatchConfig::new(2, Dur::from_secs(10)));
        // Two commands fill a pack; the 10 s time knob never fires.
        sim.schedule_command(Time::ZERO, Pid::new(0), 100);
        sim.schedule_command(Time::ZERO, Pid::new(0), 101);
        sim.run_until(Time::from_millis(100));
        let out = sim.take_outputs();
        assert_eq!(out.len(), 6, "2 payloads × 3 processes: {out:?}");
        for pid in 0..3 {
            let payloads: Vec<u64> = out
                .iter()
                .filter(|(_, p, _)| p.index() == pid)
                .map(|(_, _, AbcastEvent::Delivered { payload, .. })| *payload)
                .collect();
            assert_eq!(payloads, vec![100, 101], "pack order at p{}", pid + 1);
        }
    }

    #[test]
    fn timer_flush_ships_a_partial_pack() {
        let mut sim = batched_sim(3, BatchConfig::new(64, Dur::from_millis(5)));
        sim.schedule_command(Time::ZERO, Pid::new(1), 42);
        // Nothing can deliver before the flush timer fires at 5 ms.
        sim.run_until(Time::from_millis(4));
        assert!(sim.take_outputs().is_empty(), "pack still buffered");
        sim.run_until(Time::from_millis(100));
        let out = sim.take_outputs();
        assert_eq!(out.len(), 3, "1 payload × 3 processes");
        assert!(out.iter().all(|(t, _, _)| *t >= Time::from_millis(5)));
    }

    #[test]
    fn unbatched_ids_are_distinct_per_payload() {
        let mut sim = batched_sim(3, BatchConfig::new(4, Dur::from_millis(1)));
        for v in 0..4 {
            sim.schedule_command(Time::ZERO, Pid::new(2), v);
        }
        sim.run_until(Time::from_millis(100));
        let out = sim.take_outputs();
        let ids: std::collections::BTreeSet<MsgId> = out
            .iter()
            .filter(|(_, p, _)| p.index() == 0)
            .map(|(_, _, AbcastEvent::Delivered { id, .. })| *id)
            .collect();
        assert_eq!(ids.len(), 4, "each payload keeps its own id");
        assert!(ids.iter().all(|id| id.origin == Pid::new(2)));
    }

    #[test]
    fn gm_stack_batches_too() {
        let suspects = SuspectSet::new();
        let cfg = BatchConfig::new(3, Dur::from_millis(2));
        let mut sim = SimBuilder::new(3)
            .seed(9)
            .build_with(move |p| Batched::new(p, GmNode::<Pack<u64>>::new(p, 3, &suspects), cfg));
        for v in 0..3 {
            sim.schedule_command(Time::ZERO, Pid::new(0), 200 + v);
        }
        sim.run_until(Time::from_millis(100));
        let out = sim.take_outputs();
        assert_eq!(out.len(), 9, "3 payloads × 3 processes: {out:?}");
    }

    #[test]
    fn batching_reduces_wire_messages() {
        let run = |cfg: Option<BatchConfig>| {
            let suspects = SuspectSet::new();
            match cfg {
                Some(cfg) => {
                    let mut sim = SimBuilder::new(3).seed(3).build_with(move |p| {
                        Batched::new(p, FdNode::<Pack<u64>>::new(p, 3, &suspects), cfg)
                    });
                    for v in 0..16u64 {
                        sim.schedule_command(Time::from_micros(v * 10), Pid::new(0), v);
                    }
                    sim.run_until(Time::from_millis(200));
                    assert_eq!(sim.take_outputs().len(), 48);
                    sim.net_stats().wire_messages
                }
                None => {
                    let mut sim = SimBuilder::new(3)
                        .seed(3)
                        .build_with(|p| FdNode::<u64>::new(p, 3, &suspects));
                    for v in 0..16u64 {
                        sim.schedule_command(Time::from_micros(v * 10), Pid::new(0), v);
                    }
                    sim.run_until(Time::from_millis(200));
                    assert_eq!(sim.take_outputs().len(), 48);
                    sim.net_stats().wire_messages
                }
            }
        };
        let unbatched = run(None);
        let batched = run(Some(BatchConfig::new(16, Dur::from_millis(1))));
        assert!(
            batched * 2 < unbatched,
            "16-deep packs must at least halve wire traffic: batched {batched} vs {unbatched}"
        );
    }
}
