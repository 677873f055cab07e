//! The **GM algorithm**: fixed-sequencer uniform atomic broadcast on
//! top of group membership (paper Section 4.2).
//!
//! In-view protocol: the origin multicasts `Data`; the *sequencer*
//! (first member of the current view) assigns a sequence number and
//! multicasts `Seq`; other members acknowledge once they hold both the
//! payload and its number; the sequencer A-delivers after a **majority
//! of the current view** acked and multicasts `Deliver`, upon which
//! the rest A-deliver in `sn` order. `Seq`, `AckSn` and `Deliver`
//! carry several sequence numbers when the sending host's CPU is busy
//! (see [`neko::Message::try_merge`]) — the aggregation the paper
//! calls essential under high load.
//!
//! When a member is suspected, a view change (`view_change.rs`, over
//! the [`membership`] crate's views and wire messages) excludes it;
//! unstable messages (everything not yet known to be both stable and
//! locally delivered) are exchanged and the agreed union is delivered
//! at the view boundary. A wrongly excluded process learns of its
//! exclusion from the view-change consensus it takes part in, rejoins,
//! and catches up with a **state transfer** (the missed suffix of the
//! delivery log, served by the sequencer).
//!
//! The **non-uniform variant** of the paper's Section 8 is provided as
//! [`Uniformity::NonUniform`]: A-delivery happens as soon as a process
//! holds `Data` + `Seq` (two multicasts end to end). Acknowledgements
//! are still sent — off the critical path — so stability tracking and
//! flush pruning keep working; `Deliver` messages degenerate to
//! stability announcements.

use std::collections::{BTreeMap, BTreeSet};

use fdet::SuspectSet;
use membership::{GmMsg, View, ViewId};
use neko::{DestSet, FdEvent, Message, Pid};
use rbcast::{SeqWindow, WatermarkSet, WindowMap};

use crate::common::{CastAction, MsgId, Payload, StallRule};
use crate::node::Machine;

mod view_change;

use view_change::{Mode, Vc, VcProgress};

/// Outputs of the GM state machine.
type Actions<P> = Vec<CastAction<GmCastMsg<P>, P>>;

/// The retry timer of an excluded process's join requests.
const TAG_JOIN_RETRY: u64 = 1;
/// The retry timer of a catching-up process's state requests.
const TAG_CATCHUP_RETRY: u64 = 2;

/// Whether the algorithm provides uniform or non-uniform total order
/// (Section 8 trade-off).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Uniformity {
    /// Deliver only after a majority of the view acknowledged
    /// (4 communication steps; safe for state transfer).
    #[default]
    Uniform,
    /// Deliver on `Data`+`Seq` (2 communication steps); a process that
    /// crashes or is excluded right after delivering may have
    /// delivered messages nobody else does.
    NonUniform,
}

/// The unstable-message bundle exchanged at view changes: payloads
/// plus their sequence number, if one was assigned in the closing
/// view, and the contributor's in-view delivery pointer.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Bundle<P> {
    /// The unstable messages: `(assigned sn, payload)` per id.
    pub msgs: BTreeMap<MsgId, (Option<u64>, P)>,
    /// One past the highest sn the contributor had A-delivered in the
    /// closing view. Merging keeps the maximum: every sn below the
    /// merged horizon was delivered *by some contributor*, so a
    /// member that still holds such a message (stable entries are
    /// pruned from the contributors' bundles, but stability means
    /// everyone holds them) must deliver it at the view boundary —
    /// while a held message at or above the horizon was delivered by
    /// nobody and must wait for its origin to re-send it.
    pub delivered_sn: u64,
}

impl<P: Payload> Bundle<P> {
    /// Merges another process's bundle into this one (the union of the
    /// unstable messages).
    fn merge(&mut self, other: &Self) {
        for (id, (sn, p)) in &other.msgs {
            match self.msgs.get_mut(id) {
                None => {
                    self.msgs.insert(*id, (*sn, p.clone()));
                }
                Some(entry) => {
                    // A sequence number is assigned once per view, so a
                    // `Some` never conflicts with a different `Some`.
                    if entry.0.is_none() {
                        entry.0 = *sn;
                    }
                }
            }
        }
        self.delivered_sn = self.delivered_sn.max(other.delivered_sn);
    }
}

/// The per-view store: payload and assigned sn, if any, per message.
type Store<P> = WindowMap<(Option<u64>, P)>;

/// Messages held back, per view, until that view is installed.
type Buffered<M> = BTreeMap<ViewId, Vec<(Pid, M)>>;

/// Wire messages of the GM algorithm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GmCastMsg<P> {
    /// The origin's multicast of a payload (within a view).
    Data {
        /// View the message is sent in.
        view: ViewId,
        /// Broadcast identity.
        id: MsgId,
        /// Application payload.
        payload: P,
    },
    /// Sequence numbers assigned by the sequencer (coalesces).
    Seq {
        /// View of the assignments.
        view: ViewId,
        /// `(message, sequence number)` pairs.
        sns: Vec<(MsgId, u64)>,
    },
    /// Acknowledgement of held `Data`+`Seq` pairs (coalesces).
    AckSn {
        /// View of the acknowledgement.
        view: ViewId,
        /// Acknowledged sequence numbers.
        sns: Vec<u64>,
    },
    /// Cumulative acknowledgement used by the non-uniform variant:
    /// the sender holds every pair with `sn < up_to`. Sent every
    /// [`NONUNIFORM_ACK_EVERY`] deliveries, purely for stability
    /// tracking (garbage collection of flush bundles) — delivery does
    /// not wait for it.
    AckUpTo {
        /// View of the acknowledgement.
        view: ViewId,
        /// One past the highest contiguously held sequence number.
        up_to: u64,
    },
    /// The sequencer's permission to deliver (coalesces); also carries
    /// the stability horizon for flush pruning.
    Deliver {
        /// View of the delivery.
        view: ViewId,
        /// Deliverable sequence numbers.
        sns: Vec<u64>,
        /// All sequence numbers below this are acked by every member.
        stable_up_to: u64,
    },
    /// Membership traffic (flushes, view-change consensus, joins).
    Gm(GmMsg<Bundle<P>>),
    /// A rejoined process asking for the delivery-log suffix it
    /// missed.
    StateReq {
        /// First missing position of the requester's delivery log.
        from_index: u64,
    },
    /// The state-transfer reply.
    StateResp {
        /// Echo of the request.
        from_index: u64,
        /// The missed `(id, payload)` suffix, in delivery order.
        entries: Vec<(MsgId, P)>,
        /// The responder's delivered-sn pointer in `view` (where the
        /// joiner resumes in-view delivery).
        resume_sn: u64,
        /// The view the response refers to.
        view: ViewId,
    },
}

impl<P: Payload> Message for GmCastMsg<P> {
    /// `Seq`, `AckSn` and `Deliver` carry several sequence numbers when
    /// queued behind each other (paper Section 4.2).
    fn try_merge(&mut self, other: &Self) -> bool {
        match (self, other) {
            (GmCastMsg::Seq { view: v1, sns: a }, GmCastMsg::Seq { view: v2, sns: b })
                if v1 == v2 =>
            {
                a.extend(b.iter().copied());
                true
            }
            (GmCastMsg::AckSn { view: v1, sns: a }, GmCastMsg::AckSn { view: v2, sns: b })
                if v1 == v2 =>
            {
                a.extend(b.iter().copied());
                true
            }
            (
                GmCastMsg::Deliver {
                    view: v1,
                    sns: a,
                    stable_up_to: s1,
                },
                GmCastMsg::Deliver {
                    view: v2,
                    sns: b,
                    stable_up_to: s2,
                },
            ) if v1 == v2 => {
                a.extend(b.iter().copied());
                *s1 = (*s1).max(*s2);
                true
            }
            (
                GmCastMsg::AckUpTo { view: v1, up_to: a },
                GmCastMsg::AckUpTo { view: v2, up_to: b },
            ) if v1 == v2 => {
                *a = (*a).max(*b);
                true
            }
            _ => false,
        }
    }
}

/// How many deliveries a non-uniform receiver batches into one
/// cumulative stability acknowledgement. Bounds both the ack overhead
/// (one unicast per `NONUNIFORM_ACK_EVERY` messages) and the tail of
/// unstable messages kept for flushes.
pub const NONUNIFORM_ACK_EVERY: u64 = 16;

/// Per-process endpoint of the GM atomic broadcast algorithm.
///
/// Pure state machine; the [`crate::GmNode`] shell adapts it to
/// [`neko::Process`].
///
/// The delivery log is retained in full to serve state transfers; a
/// production deployment would truncate it below the oldest offset a
/// rejoining process could still need.
#[derive(Debug)]
pub struct GmAbcast<P: Payload> {
    me: Pid,
    uniformity: Uniformity,
    // ---- membership (see `view_change.rs`) ----
    /// The current view (the last one installed as a member).
    view: View,
    mode: Mode,
    vc: Option<Vc<P>>,
    /// Every process that has ever been a member — join requests go to
    /// all of them, because the view that excluded us may itself have
    /// been superseded (its members may all be excluded by now).
    universe: BTreeSet<Pid>,
    pending_joins: BTreeSet<Pid>,
    suspects: SuspectSet,
    /// View-change traffic for views we have not installed yet.
    future_gm: Buffered<GmMsg<Bundle<P>>>,
    /// A view was installed in this entry point and its follow-up has
    /// not run yet.
    install_pending: bool,
    join_attempts: u64,
    /// An exclusion in the current entry point owes a join request
    /// (see `with_due_joins`).
    joins_due: bool,
    /// Set by the stall probe: the current view change has made no
    /// progress for a while, so a Welcome for the very next view may
    /// be adopted even though our own consensus on it is still
    /// nominally in flight (its decision was lost to us).
    stale_jump_armed: bool,
    // ---- per-view protocol state (reset at each install) ----
    // Sequence numbers restart at 0 with every view and are assigned
    // densely, so the sn-keyed maps are windows indexed by sn.
    store: Store<P>,
    /// Sns whose `Seq` arrived before the message's `Data` (the store
    /// holds the sn of every message it has).
    assigned: WindowMap<u64>,
    by_sn: SeqWindow<MsgId>,
    /// Ack bitmaps per sequence number: only membership and a count
    /// are ever needed, so a [`DestSet`] replaces a tree of pids.
    acks: SeqWindow<DestSet>,
    deliverable: SeqWindow<()>,
    /// Sequencer: messages with `Data` received but no `sn` yet.
    unsequenced: WindowMap<()>,
    /// Sequencer: the first sn past the currently outstanding batch
    /// (`None` when no batch is in flight).
    batch_end: Option<u64>,
    next_sn: u64,
    delivered_sn: u64,
    stable_up_to: u64,
    pruned_up_to: u64,
    /// Sequencer, non-uniform: cumulative ack per member.
    ack_cum: BTreeMap<Pid, u64>,
    /// Non-uniform receiver: last cumulative ack sent.
    acked_up_to: u64,
    // ---- cross-view state ----
    delivered_ids: WatermarkSet,
    delivered_log: Vec<(MsgId, P)>,
    next_local_seq: u64,
    unsent: Vec<(MsgId, P)>,
    catching_up: bool,
    catchup_buf: Vec<(Pid, GmCastMsg<P>)>,
    future_inview: Buffered<GmCastMsg<P>>,
    /// The view change in progress, across repair probes.
    vc_stall: StallRule<(ViewId, VcProgress)>,
}

impl<P: Payload> GmAbcast<P> {
    /// Creates the endpoint for `me` in a group that bootstraps with
    /// all `n` processes as view `v0`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is not one of the `n` processes.
    pub fn new(me: Pid, n: usize, suspects: &SuspectSet, uniformity: Uniformity) -> Self {
        let view = View::initial(n);
        assert!(
            view.contains(me),
            "process must start as a member of its view"
        );
        GmAbcast {
            me,
            uniformity,
            universe: view.members().clone(),
            view,
            mode: Mode::Member,
            vc: None,
            pending_joins: BTreeSet::new(),
            suspects: suspects.clone(),
            future_gm: BTreeMap::new(),
            install_pending: false,
            join_attempts: 0,
            joins_due: false,
            stale_jump_armed: false,
            store: WindowMap::new(),
            assigned: WindowMap::new(),
            by_sn: SeqWindow::new(),
            acks: SeqWindow::new(),
            deliverable: SeqWindow::new(),
            unsequenced: WindowMap::new(),
            batch_end: None,
            next_sn: 0,
            delivered_sn: 0,
            stable_up_to: 0,
            pruned_up_to: 0,
            ack_cum: BTreeMap::new(),
            acked_up_to: 0,
            delivered_ids: WatermarkSet::new(),
            delivered_log: Vec::new(),
            next_local_seq: 0,
            unsent: Vec::new(),
            catching_up: false,
            catchup_buf: Vec::new(),
            future_inview: BTreeMap::new(),
            vc_stall: StallRule::default(),
        }
    }

    /// Installs `view` as the current one; multicasts from here on go
    /// to its other members.
    fn set_view(&mut self, view: View, out: &mut Actions<P>) {
        self.view = view;
        out.push(CastAction::Group(self.view.others(self.me)));
    }

    /// The A-delivery order so far.
    pub fn delivered_log(&self) -> &[(MsgId, P)] {
        &self.delivered_log
    }

    /// The current view.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// Whether this process is currently excluded from the group.
    pub fn is_excluded(&self) -> bool {
        !self.is_member()
    }

    /// Whether a state transfer is in progress.
    pub fn is_catching_up(&self) -> bool {
        self.catching_up
    }

    /// Number of messages buffered because the process cannot send
    /// right now (view change, exclusion, catch-up).
    pub fn backlog(&self) -> usize {
        self.unsent.len()
    }

    /// Whether a view change is currently in progress.
    pub fn in_view_change(&self) -> bool {
        self.vc.is_some()
    }

    fn is_sequencer(&self) -> bool {
        self.is_member() && self.view.sequencer() == self.me
    }

    fn can_send(&self) -> bool {
        self.is_member() && !self.in_view_change() && !self.catching_up
    }

    /// Re-sends the state request (retry timer). The request goes to
    /// every member we know of — any of them can serve it, and the
    /// sequencer may have crashed since we were welcomed.
    fn request_state(&mut self, out: &mut Actions<P>) {
        if self.catching_up && self.is_member() {
            for m in self.view.others(self.me).iter() {
                out.push(CastAction::Send(
                    m,
                    GmCastMsg::StateReq {
                        from_index: self.delivered_log.len() as u64,
                    },
                ));
            }
        }
    }

    /// [`Machine::on_message`] without the join requests it owes:
    /// messages replayed from a buffer come through here.
    fn receive(&mut self, from: Pid, msg: GmCastMsg<P>, out: &mut Actions<P>) {
        if self.catching_up && !matches!(msg, GmCastMsg::StateResp { .. }) {
            // While the state transfer is in flight nothing may touch
            // the delivery log (or the view), otherwise the
            // `from_index` prefix alignment with the responder breaks.
            self.catchup_buf.push((from, msg));
            return;
        }
        // The flush barrier: once a view change is in progress, the
        // unstable bundles are already snapshotted (ours went out with
        // our `Flush`), so any in-view delivery progress made *after*
        // that point would be invisible to the agreed bundle — a
        // lagging member would then flush those messages in a
        // different order than the members that delivered them mid-
        // change (total-order violation; found by the schedule
        // explorer, pinned by `tests/explore.rs`). Sequencing, acking
        // and delivering freeze until the new view installs; the
        // flush delivers the agreed bundle instead, and `Data` is
        // still accepted so origins can re-send undelivered payloads
        // in the new view.
        let frozen = self.in_view_change();
        match msg {
            GmCastMsg::Data { view, id, payload } => match self.classify(view) {
                ViewRelation::Current => self.handle_data(id, payload, out),
                ViewRelation::Future => {
                    self.buffer_future(view, from, GmCastMsg::Data { view, id, payload })
                }
                ViewRelation::Past => self.notify_stale(from, out),
            },
            GmCastMsg::Seq { view, sns } => match self.classify(view) {
                ViewRelation::Current if !frozen => self.handle_seq(sns, out),
                ViewRelation::Current => {}
                ViewRelation::Future => {
                    self.buffer_future(view, from, GmCastMsg::Seq { view, sns })
                }
                ViewRelation::Past => self.notify_stale(from, out),
            },
            GmCastMsg::AckSn { view, sns } => {
                if self.classify(view) == ViewRelation::Current && self.is_sequencer() && !frozen {
                    for sn in sns {
                        self.note_ack(sn, from);
                    }
                    self.flush_deliveries(out);
                }
            }
            GmCastMsg::AckUpTo { view, up_to } => {
                if self.classify(view) == ViewRelation::Current && self.is_sequencer() && !frozen {
                    let cum = self.ack_cum.entry(from).or_insert(0);
                    *cum = (*cum).max(up_to);
                    self.advance_cumulative_stability();
                    self.flush_deliveries(out);
                }
            }
            GmCastMsg::Deliver {
                view,
                sns,
                stable_up_to,
            } => match self.classify(view) {
                ViewRelation::Current if !frozen => {
                    for &sn in &sns {
                        self.deliverable.insert(sn, ());
                    }
                    self.stable_up_to = self.stable_up_to.max(stable_up_to);
                    self.try_deliver(out);
                    self.prune_stable();
                }
                ViewRelation::Current => {}
                ViewRelation::Future => self.buffer_future(
                    view,
                    from,
                    GmCastMsg::Deliver {
                        view,
                        sns,
                        stable_up_to,
                    },
                ),
                ViewRelation::Past => self.notify_stale(from, out),
            },
            GmCastMsg::Gm(m) => {
                self.handle_gm(from, m, out);
                self.finish_installs(out);
            }
            GmCastMsg::StateReq { from_index } => {
                if self.is_member() && !self.catching_up {
                    let from_index = (from_index as usize).min(self.delivered_log.len());
                    let missed = self.delivered_log.get(from_index..).unwrap_or_default();
                    out.push(CastAction::Send(
                        from,
                        GmCastMsg::StateResp {
                            from_index: from_index as u64,
                            entries: missed.to_vec(),
                            resume_sn: self.delivered_sn,
                            view: self.view.id(),
                        },
                    ));
                }
            }
            GmCastMsg::StateResp {
                entries,
                resume_sn,
                view,
                ..
            } => {
                self.handle_state_resp(entries, resume_sn, view, out);
            }
        }
    }

    // ---- in-view protocol ----

    fn send_data(&mut self, id: MsgId, payload: P, out: &mut Actions<P>) {
        out.push(CastAction::Multicast(GmCastMsg::Data {
            view: self.view.id(),
            id,
            payload: payload.clone(),
        }));
        self.handle_data(id, payload, out);
    }

    fn handle_data(&mut self, id: MsgId, payload: P, out: &mut Actions<P>) {
        if self.delivered_ids.contains(id) || self.store.contains_key(id) {
            return;
        }
        let sn = self.assigned.remove(id);
        self.store.insert(id, (sn, payload));
        if self.in_view_change() {
            // Flush barrier: record the payload (the origin re-sends
            // undelivered ones in the next view) but make no ack or
            // delivery progress the snapshotted bundles cannot see.
            return;
        }
        if let Some(sn) = sn {
            // Seq arrived before Data: we can ack (and maybe deliver) now.
            self.complete_pair(sn, out);
        } else if self.is_sequencer() {
            self.unsequenced.insert(id, ());
            self.maybe_open_batch(out);
        }
        self.try_deliver(out);
    }

    /// Sequencer: assigns sequence numbers to everything accumulated,
    /// as **one batch**, when the previous batch has completed. One
    /// outstanding batch at a time gives the GM algorithm exactly the
    /// aggregation granularity of the FD algorithm's consensus
    /// instances (paper Section 4.2: "seqnum, ack and deliver messages
    /// can carry several sequence numbers"), and makes the two
    /// algorithms' message patterns identical in suspicion-free runs.
    fn maybe_open_batch(&mut self, out: &mut Actions<P>) {
        if self.batch_end.is_some()
            || self.unsequenced.is_empty()
            || !self.is_sequencer()
            || self.in_view_change()
        {
            return;
        }
        let ids: Vec<MsgId> = self.unsequenced.keys().collect();
        self.unsequenced.clear();
        let mut pairs = Vec::with_capacity(ids.len());
        for id in ids {
            let sn = self.next_sn;
            self.next_sn += 1;
            self.by_sn.insert(sn, id);
            match self.store.get_mut(id) {
                Some(entry) => entry.0 = Some(sn),
                None => {
                    self.assigned.insert(id, sn);
                }
            }
            pairs.push((id, sn));
        }
        self.batch_end = Some(self.next_sn);
        // The sequencer holds Data+Seq by construction. Bookkeeping
        // first (it emits nothing), so `pairs` can move into the
        // message without a clone.
        for &(_, sn) in &pairs {
            self.note_ack(sn, self.me);
            if self.uniformity == Uniformity::NonUniform {
                self.deliverable.insert(sn, ());
            }
        }
        out.push(CastAction::Multicast(GmCastMsg::Seq {
            view: self.view.id(),
            sns: pairs,
        }));
        self.flush_deliveries(out);
    }

    fn handle_seq(&mut self, sns: Vec<(MsgId, u64)>, out: &mut Actions<P>) {
        let mut to_ack = Vec::new();
        for (id, sn) in sns {
            self.by_sn.insert(sn, id);
            let Some(entry) = self.store.get_mut(id) else {
                self.assigned.insert(id, sn);
                continue;
            };
            entry.0 = Some(sn);
            to_ack.push(sn);
            if self.uniformity == Uniformity::NonUniform {
                self.deliverable.insert(sn, ());
            }
        }
        if !to_ack.is_empty() && !self.is_sequencer() && self.uniformity == Uniformity::Uniform {
            let view = &self.view;
            out.push(CastAction::Send(
                view.sequencer(),
                GmCastMsg::AckSn {
                    view: view.id(),
                    sns: to_ack,
                },
            ));
        }
        self.try_deliver(out);
        self.maybe_cumulative_ack(out);
    }

    /// Both `Data` and `Seq` for `sn` are now present locally.
    fn complete_pair(&mut self, sn: u64, out: &mut Actions<P>) {
        if self.uniformity == Uniformity::NonUniform {
            self.deliverable.insert(sn, ());
        }
        if self.is_sequencer() {
            self.note_ack(sn, self.me);
            self.flush_deliveries(out);
        } else if self.uniformity == Uniformity::Uniform {
            let view = &self.view;
            out.push(CastAction::Send(
                view.sequencer(),
                GmCastMsg::AckSn {
                    view: view.id(),
                    sns: vec![sn],
                },
            ));
        } else {
            self.maybe_cumulative_ack(out);
        }
    }

    /// Non-uniform receivers acknowledge cumulatively, every
    /// [`NONUNIFORM_ACK_EVERY`] deliveries.
    fn maybe_cumulative_ack(&mut self, out: &mut Actions<P>) {
        if self.uniformity != Uniformity::NonUniform || self.is_sequencer() {
            return;
        }
        let held = self.delivered_sn;
        if held >= self.acked_up_to + NONUNIFORM_ACK_EVERY {
            self.acked_up_to = held;
            let view = &self.view;
            out.push(CastAction::Send(
                view.sequencer(),
                GmCastMsg::AckUpTo {
                    view: view.id(),
                    up_to: held,
                },
            ));
        }
    }

    /// Sequencer, non-uniform: stability is the minimum cumulative ack
    /// across the other members (its own holdings are implicit).
    fn advance_cumulative_stability(&mut self) {
        let mut min = u64::MAX;
        let mut any = false;
        for &p in self.view.members() {
            if p == self.me {
                continue;
            }
            any = true;
            min = min.min(self.ack_cum.get(&p).copied().unwrap_or(0));
        }
        if !any {
            self.stable_up_to = self.next_sn;
            return;
        }
        self.stable_up_to = self.stable_up_to.max(min.min(self.next_sn));
    }

    /// Sequencer bookkeeping: `from` holds Data+Seq for `sn`.
    fn note_ack(&mut self, sn: u64, from: Pid) {
        if self.uniformity == Uniformity::NonUniform {
            return; // stability comes from cumulative acks instead
        }
        let acked = match self.acks.get_mut(sn) {
            Some(acks) => {
                acks.insert(from);
                acks.len()
            }
            None => {
                self.acks.insert(sn, DestSet::single(from));
                1
            }
        };
        if acked >= self.view.majority() {
            self.deliverable.insert(sn, ());
        }
        // Stability: the prefix acked by the whole view.
        let members = self.view.len();
        while self
            .acks
            .get(self.stable_up_to)
            .is_some_and(|a| a.len() >= members)
        {
            self.stable_up_to += 1;
        }
    }

    /// Sequencer: delivers what became deliverable and announces it.
    fn flush_deliveries(&mut self, out: &mut Actions<P>) {
        let before = self.delivered_sn;
        self.try_deliver(out);
        let newly: Vec<u64> = (before..self.delivered_sn).collect();
        let announce_stability =
            self.uniformity == Uniformity::NonUniform && self.stable_up_to > self.pruned_up_to;
        if !newly.is_empty() || announce_stability {
            let vid = self.view.id();
            let msg = if self.uniformity == Uniformity::Uniform {
                GmCastMsg::Deliver {
                    view: vid,
                    sns: newly,
                    stable_up_to: self.stable_up_to,
                }
            } else {
                // Non-uniform: pure stability announcement.
                GmCastMsg::Deliver {
                    view: vid,
                    sns: Vec::new(),
                    stable_up_to: self.stable_up_to,
                }
            };
            out.push(CastAction::Multicast(msg));
        }
        self.prune_stable();
        // Batch completion: everything in the outstanding batch is
        // delivered at the sequencer — open the next one.
        if self.batch_end.is_some_and(|end| self.delivered_sn >= end) {
            self.batch_end = None;
            self.maybe_open_batch(out);
        }
    }

    /// Delivers the contiguous deliverable prefix, in sn order.
    fn try_deliver(&mut self, out: &mut Actions<P>) {
        loop {
            let sn = self.delivered_sn;
            let Some(&id) = self.by_sn.get(sn) else {
                break;
            };
            if self.delivered_ids.contains(id) {
                self.delivered_sn += 1;
                continue;
            }
            if !self.deliverable.contains_key(sn) {
                break;
            }
            let Some((_, payload)) = self.store.get(id) else {
                break;
            };
            let payload = payload.clone();
            self.deliver(id, payload, out);
            self.delivered_sn += 1;
        }
    }

    /// Our own broadcasts in the store that are not delivered yet.
    fn own_undelivered(&self) -> Vec<(MsgId, P)> {
        self.store
            .iter_origin(self.me)
            .filter(|(id, _)| !self.delivered_ids.contains(*id))
            .map(|(id, (_, p))| (id, p.clone()))
            .collect()
    }

    fn deliver(&mut self, id: MsgId, payload: P, out: &mut Actions<P>) {
        if self.delivered_ids.insert(id) {
            self.delivered_log.push((id, payload.clone()));
            out.push(CastAction::Deliver { id, payload });
        }
    }

    /// Drops store entries that are both stable (acked by the whole
    /// view) and locally delivered — only those can never be needed in
    /// a flush again.
    fn prune_stable(&mut self) {
        let horizon = self.stable_up_to.min(self.delivered_sn);
        while self.pruned_up_to < horizon {
            if let Some(&id) = self.by_sn.get(self.pruned_up_to) {
                self.store.remove(id);
            }
            self.pruned_up_to += 1;
        }
    }

    // ---- view boundary ----

    /// Delivers a decided view change's agreed unstable set, then
    /// starts the (already adopted) new view.
    fn apply_install(&mut self, unstable: Bundle<P>, out: &mut Actions<P>) {
        // 1) Deliver the agreed unstable messages: sequenced ones in sn
        //    order, then unsequenced ones in id order (deterministic —
        //    every member delivers the same list).
        let mut with_sn: Vec<(u64, MsgId, P)> = Vec::new();
        let mut without: Vec<(MsgId, P)> = Vec::new();
        let mut bundled: BTreeSet<MsgId> = BTreeSet::new();
        let horizon = unstable.delivered_sn;
        for (id, (sn, p)) in unstable.msgs {
            bundled.insert(id);
            if self.delivered_ids.contains(id) {
                continue;
            }
            match sn {
                Some(sn) => with_sn.push((sn, id, p)),
                None => without.push((id, p)),
            }
        }
        // Our own sequenced holdings *below the merged delivery
        // horizon* join the flush even when absent from the agreed
        // bundle. Such a message was A-delivered by some contributor
        // (that is what the horizon says) yet every contributor's
        // bundle lacks it — which can only mean they pruned it, and
        // pruning requires stability: the whole view acked, so
        // *everyone* (including us) holds Data+Seq. If our in-view
        // delivery lagged behind the sequencer's announcements when
        // the view closed, dropping our copy would leave a permanent
        // hole in our log (total-order violation; found by the
        // schedule explorer, pinned by `tests/explore.rs`). Holdings
        // at or above the horizon were delivered by nobody and stay
        // out — delivering them here alone would be the opposite
        // divergence — as do unsequenced holdings; their origins
        // re-send them in the new view (step 2).
        for (id, (sn, p)) in self.store.iter() {
            if let Some(sn) = sn {
                if *sn < horizon && !bundled.contains(&id) && !self.delivered_ids.contains(id) {
                    with_sn.push((*sn, id, p.clone()));
                }
            }
        }
        with_sn.sort();
        for (_, id, p) in with_sn {
            self.deliver(id, p, out);
        }
        for (id, p) in without {
            self.deliver(id, p, out);
        }

        // 2) Collect what we must re-send in the new view: our own
        //    messages that are still undelivered, plus buffered
        //    commands.
        let mut mine = self.own_undelivered();
        mine.extend(std::mem::take(&mut self.unsent));

        // 3) Fresh per-view state.
        self.reset_view_state();

        // 4) Re-send in the new view.
        for (id, p) in mine {
            self.send_data(id, p, out);
        }

        // 5) In-view traffic of this view that arrived before we
        //    installed it.
        let current = self.view.id();
        if let Some(buffered) = self.future_inview.remove(&current) {
            for (from, m) in buffered {
                self.receive(from, m, out);
            }
        }
        self.future_inview.retain(|v, _| *v > current);
    }

    fn reset_view_state(&mut self) {
        self.store.clear();
        self.assigned.clear();
        self.by_sn.clear();
        self.acks.clear();
        self.deliverable.clear();
        self.unsequenced.clear();
        self.batch_end = None;
        self.next_sn = 0;
        self.delivered_sn = 0;
        self.stable_up_to = 0;
        self.pruned_up_to = 0;
        self.ack_cum.clear();
        self.acked_up_to = 0;
    }

    fn handle_state_resp(
        &mut self,
        entries: Vec<(MsgId, P)>,
        resume_sn: u64,
        view: ViewId,
        out: &mut Actions<P>,
    ) {
        if !self.catching_up || !self.is_member() || view < self.view.id() {
            return; // stale response (responder behind us); retry covers it
        }
        for (id, p) in entries {
            self.deliver(id, p, out);
        }
        if view == self.view.id() {
            // The responder answered from our view: resume in-view
            // delivery where it stood. (If it answered from a newer
            // view, the buffered installs will reset these anyway.)
            self.delivered_sn = self.delivered_sn.max(resume_sn);
            self.stable_up_to = self.stable_up_to.max(resume_sn);
            self.pruned_up_to = self.pruned_up_to.max(resume_sn);
        }
        self.catching_up = false;
        // Process everything that arrived during the transfer.
        let buffered = std::mem::take(&mut self.catchup_buf);
        for (from, m) in buffered {
            self.receive(from, m, out);
        }
        // In-view traffic of the adopted view that arrived while we
        // were still excluded (buffered by `classify`): the rejoin
        // path installs no view, so drain it here.
        let current = self.view.id();
        if let Some(buffered) = self.future_inview.remove(&current) {
            for (from, m) in buffered {
                self.receive(from, m, out);
            }
        }
        self.future_inview.retain(|v, _| *v > current);
        // Re-issue our still-undelivered messages.
        let mine = std::mem::take(&mut self.unsent);
        for (id, p) in mine {
            if !self.delivered_ids.contains(id) {
                if self.can_send() {
                    self.send_data(id, p, out);
                } else {
                    self.unsent.push((id, p));
                }
            }
        }
    }

    fn classify(&self, view: ViewId) -> ViewRelation {
        if !self.is_member() {
            // Excluded processes take no part in their stale view's
            // in-view traffic — the state transfer covers that gap —
            // but traffic of a *newer* view may be addressed to the
            // member we are about to become (our Welcome is still in
            // flight); dropping it would lose the payload for good
            // (found by the schedule explorer: a healthy member's
            // broadcast reached the rejoining sequencer-to-be as
            // "stale" and was never sequenced). Buffer it like any
            // future-view traffic.
            return if view > self.view.id() {
                ViewRelation::Future
            } else {
                ViewRelation::Past
            };
        }
        match view.cmp(&self.view.id()) {
            std::cmp::Ordering::Less => ViewRelation::Past,
            std::cmp::Ordering::Equal => ViewRelation::Current,
            std::cmp::Ordering::Greater => ViewRelation::Future,
        }
    }

    /// An old-view in-view message arrived from a process outside the
    /// current view: the group moved on and the sender never noticed
    /// (it recovered from a crash, or a partition healed, after the
    /// view change that excluded it). Nobody multicasts to a
    /// non-member, so without help it would stay wedged in its stale
    /// view forever. Tell it where the group is; its `Welcome` handler
    /// turns the news into an exclusion notice and a join request.
    fn notify_stale(&self, from: Pid, out: &mut Actions<P>) {
        if self.is_member() && !self.in_view_change() && !self.view.contains(from) {
            out.push(CastAction::Send(from, GmCastMsg::Gm(self.welcome())));
        }
    }

    fn buffer_future(&mut self, view: ViewId, from: Pid, msg: GmCastMsg<P>) {
        self.future_inview
            .entry(view)
            .or_default()
            .push((from, msg));
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ViewRelation {
    Past,
    Current,
    Future,
}

impl<P: Payload> Machine for GmAbcast<P> {
    type Payload = P;
    type Msg = GmCastMsg<P>;
    const PROBE_TAG: u64 = 4;

    /// `A-broadcast(payload)`; returns the new message's id. While the
    /// group is reconfiguring (or we are excluded) the message is
    /// buffered and sent in the next view.
    fn broadcast(&mut self, payload: P, out: &mut Actions<P>) -> MsgId {
        let id = MsgId {
            origin: self.me,
            seq: self.next_local_seq,
        };
        self.next_local_seq += 1;
        if self.can_send() {
            self.send_data(id, payload, out);
        } else {
            self.unsent.push((id, payload));
        }
        id
    }

    /// Handles a wire message.
    fn on_message(&mut self, from: Pid, msg: GmCastMsg<P>, out: &mut Actions<P>) {
        self.with_due_joins(out, |gm, out| gm.receive(from, msg, out));
    }

    fn on_fd(&mut self, ev: FdEvent, out: &mut Actions<P>) {
        self.with_due_joins(out, |gm, out| gm.handle_fd(ev, out));
    }

    fn probe(&mut self, out: &mut Actions<P>) {
        self.with_due_joins(out, Self::vc_probe);
    }

    /// An excluded process asks to rejoin again, a catching-up one
    /// for its state again, each re-arming its timer until it is
    /// back; a timer whose loop is over ends it.
    fn retry(&mut self, tag: u64, out: &mut Actions<P>) {
        match tag {
            TAG_JOIN_RETRY if self.is_excluded() => {
                out.push(CastAction::Retry(TAG_JOIN_RETRY));
                self.request_join(out);
            }
            TAG_CATCHUP_RETRY if self.catching_up => {
                out.push(CastAction::Retry(TAG_CATCHUP_RETRY));
                self.request_state(out);
            }
            _ => {}
        }
    }

    /// The retry timers armed before the crash are gone: restart the
    /// loop the pre-crash state still needs.
    fn recover(&mut self, out: &mut Actions<P>) {
        if self.is_excluded() {
            self.retry(TAG_JOIN_RETRY, out);
        } else if self.catching_up {
            out.push(CastAction::Retry(TAG_CATCHUP_RETRY));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type A = CastAction<GmCastMsg<u32>, u32>;

    fn nodes(n: usize, u: Uniformity) -> Vec<GmAbcast<u32>> {
        (0..n)
            .map(|i| GmAbcast::new(Pid::new(i), n, &SuspectSet::new(), u))
            .collect()
    }

    struct Net {
        queue: Vec<(usize, usize, GmCastMsg<u32>)>,
        delivered: Vec<Vec<(MsgId, u32)>>,
        /// Each process's group: where its multicasts go.
        groups: Vec<DestSet>,
        /// Every retry timer armed so far, in order.
        seen: Vec<(usize, &'static str)>,
        /// Whether an excluded process's join requests reach the group.
        auto_rejoin: bool,
    }

    impl Net {
        fn new(n: usize) -> Self {
            Net {
                queue: Vec::new(),
                delivered: vec![Vec::new(); n],
                groups: Pid::all(n).map(|me| View::initial(n).others(me)).collect(),
                seen: Vec::new(),
                auto_rejoin: true,
            }
        }

        fn route(&mut self, from: usize, out: Vec<A>) {
            for a in out {
                match a {
                    CastAction::Send(_, GmCastMsg::Gm(GmMsg::Join)) if !self.auto_rejoin => {}
                    CastAction::Send(to, m) => self.queue.push((from, to.index(), m)),
                    CastAction::Multicast(m) => {
                        for to in self.groups[from].iter() {
                            self.queue.push((from, to.index(), m.clone()));
                        }
                    }
                    CastAction::Group(group) => self.groups[from] = group,
                    CastAction::Deliver { id, payload } => self.delivered[from].push((id, payload)),
                    CastAction::Retry(TAG_JOIN_RETRY) => self.seen.push((from, "join")),
                    CastAction::Retry(_) => self.seen.push((from, "catchup")),
                }
            }
        }

        fn drive(&mut self, ns: &mut [GmAbcast<u32>]) {
            let steps = self.drive_bounded(ns, 200_000);
            assert!(steps < 200_000, "no quiescence");
        }

        /// FIFO delivery of at most `max` messages (exclusion/rejoin
        /// churn does not quiesce while a suspicion persists — that is
        /// the behaviour behind the paper's Fig. 7).
        fn drive_bounded(&mut self, ns: &mut [GmAbcast<u32>], max: usize) -> usize {
            let mut steps = 0;
            while steps < max {
                let Some((from, to, m)) = (if self.queue.is_empty() {
                    None
                } else {
                    Some(self.queue.remove(0))
                }) else {
                    break;
                };
                steps += 1;
                let mut out = Vec::new();
                ns[to].on_message(Pid::new(from), m, &mut out);
                self.route(to, out);
            }
            steps
        }

        fn bcast(&mut self, ns: &mut [GmAbcast<u32>], who: usize, v: u32) -> MsgId {
            let mut out = Vec::new();
            let id = ns[who].broadcast(v, &mut out);
            self.route(who, out);
            id
        }

        fn suspect(&mut self, ns: &mut [GmAbcast<u32>], at: usize, p: usize) {
            let mut out = Vec::new();
            ns[at].on_fd(FdEvent::Suspect(Pid::new(p)), &mut out);
            self.route(at, out);
        }

        fn trust(&mut self, ns: &mut [GmAbcast<u32>], at: usize, p: usize) {
            let mut out = Vec::new();
            ns[at].on_fd(FdEvent::Trust(Pid::new(p)), &mut out);
            self.route(at, out);
        }
    }

    #[test]
    fn single_broadcast_delivered_everywhere() {
        let mut ns = nodes(3, Uniformity::Uniform);
        let mut net = Net::new(3);
        let id = net.bcast(&mut ns, 1, 42);
        net.drive(&mut ns);
        for i in 0..3 {
            assert_eq!(net.delivered[i], vec![(id, 42)], "at p{}", i + 1);
        }
    }

    #[test]
    fn sequencer_delivers_first_after_majority_acks() {
        // The sequencer's own delivery requires a majority, not all.
        let mut ns = nodes(3, Uniformity::Uniform);
        let mut net = Net::new(3);
        net.bcast(&mut ns, 0, 7);
        // Process only the sequencer's own path: drive everything —
        // delivery must happen even if we'd stop acking one process.
        net.drive(&mut ns);
        assert!(!net.delivered[0].is_empty());
    }

    #[test]
    fn concurrent_broadcasts_totally_ordered() {
        let mut ns = nodes(3, Uniformity::Uniform);
        let mut net = Net::new(3);
        for i in 0..3 {
            net.bcast(&mut ns, i, 10 + i as u32);
        }
        net.drive(&mut ns);
        assert_eq!(net.delivered[0].len(), 3);
        assert_eq!(net.delivered[0], net.delivered[1]);
        assert_eq!(net.delivered[1], net.delivered[2]);
    }

    #[test]
    fn non_uniform_delivers_without_acks() {
        let mut ns = nodes(3, Uniformity::NonUniform);
        let mut net = Net::new(3);
        let id = net.bcast(&mut ns, 1, 5);
        // Sequencer p1: receives Data, assigns, delivers immediately.
        // Take only Data+Seq exchanges: full drive, then check all
        // delivered.
        net.drive(&mut ns);
        for i in 0..3 {
            assert_eq!(net.delivered[i], vec![(id, 5)], "at p{}", i + 1);
        }
    }

    #[test]
    fn exclusion_delivers_unstable_and_continues() {
        let mut ns = nodes(3, Uniformity::Uniform);
        let mut net = Net::new(3);
        let id = net.bcast(&mut ns, 1, 5);
        net.drive(&mut ns);
        // Now p1 suspects p3: view change; afterwards broadcasts still
        // work in the shrunken view. While the suspicion persists the
        // group churns (exclude/rejoin), so bound this phase…
        net.suspect(&mut ns, 0, 2);
        net.drive_bounded(&mut ns, 5_000);
        // …then end the mistake and let everything settle.
        net.trust(&mut ns, 0, 2);
        net.drive(&mut ns);
        let id2 = net.bcast(&mut ns, 0, 9);
        net.drive(&mut ns);
        for (i, n) in ns.iter().enumerate() {
            let log = n.delivered_log();
            assert!(log.contains(&(id, 5)), "p{} missing first message", i + 1);
            assert!(
                log.contains(&(id2, 9)),
                "p{} missing post-change message",
                i + 1
            );
        }
        // Total order holds.
        assert_eq!(ns[0].delivered_log(), ns[1].delivered_log());
        assert_eq!(ns[1].delivered_log(), ns[2].delivered_log());
    }

    #[test]
    fn messages_broadcast_during_view_change_are_buffered_and_sent_after() {
        let mut ns = nodes(3, Uniformity::Uniform);
        let mut net = Net::new(3);
        // Start a view change but do not deliver its messages yet.
        net.suspect(&mut ns, 0, 2);
        assert!(ns[0].in_view_change());
        let id = net.bcast(&mut ns, 0, 77);
        assert_eq!(ns[0].backlog(), 1, "buffered during flush");
        net.drive_bounded(&mut ns, 5_000);
        net.trust(&mut ns, 0, 2);
        net.drive(&mut ns);
        assert!(ns[1].delivered_log().contains(&(id, 77)));
        assert_eq!(ns[0].backlog(), 0);
    }

    #[test]
    fn excluded_process_catches_up_via_state_transfer() {
        let mut ns = nodes(3, Uniformity::Uniform);
        let mut net = Net::new(3);
        net.bcast(&mut ns, 0, 1);
        net.drive(&mut ns);
        // Exclude p3, let churn run a little, then end the mistake.
        net.suspect(&mut ns, 0, 2);
        net.drive_bounded(&mut ns, 5_000);
        net.trust(&mut ns, 0, 2);
        net.drive(&mut ns);
        let id3 = net.bcast(&mut ns, 1, 3);
        net.drive(&mut ns);
        assert!(!ns[2].is_excluded(), "p3 readmitted");
        assert!(!ns[2].is_catching_up(), "state transfer finished");
        assert_eq!(ns[0].delivered_log(), ns[2].delivered_log());
        assert!(ns[2].delivered_log().contains(&(id3, 3)));
    }

    #[test]
    fn logs_are_prefix_consistent_across_processes() {
        let mut ns = nodes(3, Uniformity::Uniform);
        let mut net = Net::new(3);
        for round in 0..5u32 {
            for i in 0..3 {
                net.bcast(&mut ns, i, round * 10 + i as u32);
            }
            net.drive(&mut ns);
        }
        let logs: Vec<_> = (0..3).map(|i| ns[i].delivered_log().to_vec()).collect();
        assert_eq!(logs[0].len(), 15);
        assert_eq!(logs[0], logs[1]);
        assert_eq!(logs[1], logs[2]);
    }

    #[test]
    fn far_future_sns_off_the_wire_deliver_nothing_and_stay_sparse() {
        let mut ns = nodes(3, Uniformity::Uniform);
        let mut net = Net::new(3);
        let a = net.bcast(&mut ns, 1, 1);
        net.drive(&mut ns);
        let view = View::initial(3).id();
        let far = |seq| MsgId {
            origin: Pid::new(1),
            seq,
        };
        let sns = vec![
            (a, u64::MAX),
            (far(1 << 40), 1 << 40),
            (far(u64::MAX), 7 << 50),
        ];
        for to in [0, 2] {
            net.queue.push((
                1,
                to,
                GmCastMsg::Seq {
                    view,
                    sns: sns.clone(),
                },
            ));
        }
        for from in [1, 2] {
            let sns = vec![u64::MAX, 1 << 40, 7 << 50];
            net.queue.push((from, 0, GmCastMsg::AckSn { view, sns }));
        }
        for to in [1, 2] {
            let sns = vec![u64::MAX, 1 << 40];
            let stable_up_to = 0;
            let msg = GmCastMsg::Deliver {
                view,
                sns,
                stable_up_to,
            };
            net.queue.push((0, to, msg));
        }
        net.drive(&mut ns);
        let b = net.bcast(&mut ns, 2, 2);
        net.drive(&mut ns);
        for n in &ns {
            assert_eq!(n.delivered_log(), vec![(a, 1), (b, 2)], "at {}", n.me);
            assert!(n.by_sn.span() <= 2 && n.acks.span() <= 2 && n.deliverable.span() <= 2);
            assert!(n.assigned.span() <= 2 && n.store.span() <= 2);
            assert_eq!(n.delivered_ids.watermark(Pid::new(1)), 1);
        }
    }

    #[test]
    fn stability_prunes_the_store() {
        let mut ns = nodes(3, Uniformity::Uniform);
        let mut net = Net::new(3);
        for v in 0..10 {
            net.bcast(&mut ns, 1, v);
            net.drive(&mut ns);
        }
        // Everything acked by everyone and delivered: stores should be
        // (almost) empty on every process.
        for (i, n) in ns.iter().enumerate() {
            assert!(
                n.store.len() <= 1,
                "p{} retains {} unstable messages",
                i + 1,
                n.store.len()
            );
        }
    }

    fn pids(ids: &[usize]) -> BTreeSet<Pid> {
        ids.iter().map(|&i| Pid::new(i)).collect()
    }

    #[test]
    fn welcome_naming_no_members_is_dropped() {
        let mut ns = nodes(3, Uniformity::Uniform);
        let mut out = Vec::new();
        let welcome = GmMsg::Welcome {
            view: ViewId(5),
            members: BTreeSet::new(),
        };
        ns[0].on_message(Pid::new(1), GmCastMsg::Gm(welcome), &mut out);
        assert!(out.is_empty());
        assert_eq!(ns[0].view(), &View::initial(3));
        assert!(!ns[0].is_excluded());
    }

    /// n = 2: p1 suspects p2 and, after a FIFO drive to quiescence,
    /// is alone in view 1.
    fn alone_in_view_one() -> (Vec<GmAbcast<u32>>, Net) {
        let mut ns = nodes(2, Uniformity::Uniform);
        let mut net = Net::new(2);
        net.suspect(&mut ns, 0, 1);
        net.drive(&mut ns);
        assert_eq!(ns[0].view().id(), ViewId(1));
        assert_eq!(ns[0].view().members(), &pids(&[0]));
        (ns, net)
    }

    /// A view of one decides its view change inside the call that
    /// starts it; the flush that started it must not expect the change
    /// to be still open.
    #[test]
    fn flush_to_a_view_of_one_is_handled() {
        let (mut ns, mut net) = alone_in_view_one();
        let flush = GmMsg::Flush {
            view: ViewId(1),
            excluded: BTreeSet::new(),
            joining: BTreeSet::new(),
            unstable: Bundle::default(),
        };
        net.queue.push((1, 0, GmCastMsg::Gm(flush)));
        net.drive(&mut ns);
        assert_eq!(ns[0].view().members(), &pids(&[0]));
        assert!(!ns[0].in_view_change());
    }

    /// The same for view-change consensus traffic.
    #[test]
    fn consensus_traffic_to_a_view_of_one_is_handled() {
        let (mut ns, mut net) = alone_in_view_one();
        let nack = GmMsg::Cons {
            view: ViewId(1),
            inner: consensus::ConsensusMsg::Nack { round: 1 },
        };
        net.queue.push((1, 0, GmCastMsg::Gm(nack)));
        net.drive(&mut ns);
        assert_eq!(ns[0].view().members(), &pids(&[0]));
        assert!(!ns[0].in_view_change());
    }

    /// The join request an exclusion owes is made when the entry
    /// point ends, with the state it left: p3, catching up, replays an
    /// exclusion and then a readmission from one state response, so it
    /// arms the join timer but asks nobody to readmit it.
    #[test]
    fn exclusion_undone_in_the_same_step_sends_no_join() {
        let mut ns = nodes(3, Uniformity::Uniform);
        let (p1, p3) = (Pid::new(0), &mut ns[2]);
        let welcome = |v, members: &[usize]| {
            let members = pids(members);
            GmCastMsg::Gm(GmMsg::Welcome {
                view: ViewId(v),
                members,
            })
        };
        let mut out = Vec::new();
        p3.on_message(p1, welcome(2, &[0, 1, 2]), &mut out);
        assert!(p3.is_catching_up());
        p3.on_message(p1, welcome(3, &[0, 1]), &mut out);
        p3.on_message(p1, welcome(4, &[0, 1, 2]), &mut out);
        out.clear();
        let resp = GmCastMsg::StateResp {
            from_index: 0,
            entries: Vec::new(),
            resume_sn: 0,
            view: ViewId(2),
        };
        p3.on_message(p1, resp, &mut out);
        let state_req = |to| CastAction::Send(Pid::new(to), GmCastMsg::StateReq { from_index: 0 });
        assert_eq!(
            out,
            vec![
                CastAction::Retry(TAG_JOIN_RETRY),
                CastAction::Group(pids(&[0, 1]).into_iter().collect()),
                state_req(0),
                state_req(1),
                CastAction::Retry(TAG_CATCHUP_RETRY),
            ]
        );
        assert_eq!(p3.view().id(), ViewId(4));
    }

    #[test]
    fn suspicion_excludes_the_suspect() {
        let mut ns = nodes(3, Uniformity::Uniform);
        let mut net = Net::new(3);
        net.auto_rejoin = false;
        net.suspect(&mut ns, 0, 2);
        net.drive(&mut ns);
        for n in &ns[..2] {
            assert_eq!(n.view().members(), &pids(&[0, 1]), "at {}", n.me);
        }
        // The excluded (correct) process learnt of its exclusion from
        // the consensus decision it took part in.
        assert!(ns[2].is_excluded());
        assert_eq!(net.seen, vec![(2, "join")]);
    }

    #[test]
    fn excluded_process_rejoins_and_is_welcomed() {
        let mut ns = nodes(3, Uniformity::Uniform);
        let mut net = Net::new(3);
        net.suspect(&mut ns, 0, 2);
        // Churn runs while the mistake persists; end it (T_M expires)…
        net.drive_bounded(&mut ns, 2_000);
        net.trust(&mut ns, 0, 2);
        // …then everything settles with p3 back in.
        net.drive(&mut ns);
        for n in &ns {
            assert_eq!(n.view().members(), &pids(&[0, 1, 2]), "at {}", n.me);
        }
        // Excluded, then readmitted by a Welcome (which starts the
        // state transfer).
        assert!(net.seen.contains(&(2, "join")));
        assert!(net.seen.contains(&(2, "catchup")));
    }

    #[test]
    fn sequencer_exclusion_promotes_next_member() {
        let mut ns = nodes(3, Uniformity::Uniform);
        let mut net = Net::new(3);
        net.auto_rejoin = false;
        net.suspect(&mut ns, 1, 0); // p2 suspects the sequencer p1
        net.drive(&mut ns);
        assert_eq!(ns[1].view().members(), &pids(&[1, 2]));
        assert_eq!(ns[1].view().sequencer(), Pid::new(1));
    }

    #[test]
    fn join_requests_from_suspected_processes_cause_churn_until_trust() {
        let mut ns = nodes(3, Uniformity::Uniform);
        let mut net = Net::new(3);
        // p1 suspects p3 persistently (long T_M): exclusion, then p3's
        // rejoin (honoured by p2) is followed by re-exclusion by p1,
        // over and over — the behaviour behind the paper's Fig. 7.
        net.suspect(&mut ns, 0, 2);
        net.drive_bounded(&mut ns, 5_000);
        let installs = ns[0].view().id().0;
        assert!(
            installs >= 3,
            "churn: exclude + rejoin cycles, got {installs}"
        );
        // The mistake ends (T_M expires): the group stabilises with p3 in.
        net.trust(&mut ns, 0, 2);
        net.drive(&mut ns);
        for n in &ns {
            assert_eq!(n.view().members(), &pids(&[0, 1, 2]), "at {}", n.me);
        }
    }

    #[test]
    fn concurrent_suspicions_merge_into_the_view_change() {
        let mut ns = nodes(5, Uniformity::Uniform);
        let mut net = Net::new(5);
        net.auto_rejoin = false;
        // Two members suspect two different victims before any
        // messages flow.
        net.suspect(&mut ns, 0, 4);
        net.suspect(&mut ns, 1, 3);
        net.drive(&mut ns);
        for n in &ns[..3] {
            assert_eq!(n.view().members(), &pids(&[0, 1, 2]), "at {}", n.me);
        }
    }

    #[test]
    fn unstable_messages_are_united_in_the_install() {
        let mut ns = nodes(3, Uniformity::Uniform);
        let mut net = Net::new(3);
        net.auto_rejoin = false;
        let a = net.bcast(&mut ns, 0, 1);
        let b = net.bcast(&mut ns, 1, 2);
        // p2 never receives `a`'s payload: only p1's flush carries it.
        net.queue.retain(|(from, to, m)| {
            !(*from == 0 && *to == 1 && matches!(m, GmCastMsg::Data { .. }))
        });
        net.suspect(&mut ns, 0, 2);
        net.drive(&mut ns);
        for n in &ns[..2] {
            assert_eq!(n.delivered_log(), vec![(a, 1), (b, 2)], "at {}", n.me);
        }
    }

    #[test]
    fn same_unstable_set_delivered_by_all_members() {
        // View synchrony: all members that install the view deliver the
        // same agreed set, whoever starts the change.
        for suspecter in 0..3 {
            let mut ns = nodes(4, Uniformity::Uniform);
            let mut net = Net::new(4);
            net.auto_rejoin = false;
            for i in 0..4 {
                net.bcast(&mut ns, i, 10 * suspecter as u32 + i as u32);
            }
            net.suspect(&mut ns, suspecter, 3);
            net.drive(&mut ns);
            let first = ns[0].delivered_log();
            assert!(first.len() >= 3, "suspecter p{}", suspecter + 1);
            for n in &ns[1..3] {
                assert_eq!(n.delivered_log(), first, "at {}", n.me);
            }
        }
    }

    #[test]
    fn welcome_resent_when_join_arrives_from_a_member() {
        let mut ns = nodes(3, Uniformity::Uniform);
        let mut net = Net::new(3);
        net.suspect(&mut ns, 0, 2);
        net.drive_bounded(&mut ns, 2_000);
        net.trust(&mut ns, 0, 2);
        net.drive(&mut ns);
        // p3 is back in: request_join is a no-op once readmitted …
        let mut out = Vec::new();
        ns[2].request_join(&mut out);
        assert!(out.is_empty());
        // … and a stale Join (e.g. after a lost Welcome) is answered
        // with a direct Welcome rather than a view change.
        let view = ns[0].view().clone();
        ns[0].on_message(Pid::new(2), GmCastMsg::Gm(GmMsg::Join), &mut out);
        let welcome = GmMsg::Welcome {
            view: view.id(),
            members: view.members().clone(),
        };
        assert_eq!(
            out,
            vec![CastAction::Send(Pid::new(2), GmCastMsg::Gm(welcome))]
        );
        net.route(0, out);
        net.drive(&mut ns);
        assert_eq!(ns[0].view(), &view, "no extra view change");
    }

    #[test]
    fn view_ids_increase_by_one_per_install() {
        let mut ns = nodes(3, Uniformity::Uniform);
        let mut net = Net::new(3);
        let mut views = vec![vec![ViewId(0)]; 3];
        let mut record = |ns: &[GmAbcast<u32>]| {
            for (n, seen) in ns.iter().zip(&mut views) {
                if seen.last() != Some(&n.view().id()) {
                    seen.push(n.view().id());
                }
            }
        };
        net.suspect(&mut ns, 0, 2);
        for step in 0..200_000 {
            if step == 2_000 {
                net.trust(&mut ns, 0, 2);
            }
            if net.drive_bounded(&mut ns, 1) == 0 && step > 2_000 {
                break;
            }
            record(&ns);
        }
        assert!(net.queue.is_empty(), "no quiescence");
        // p1 and p2 take part in every change; p3 may skip the views
        // installed while it was out.
        for (i, seen) in views.iter().enumerate() {
            assert!(seen.len() > 2, "p{} installed {seen:?}", i + 1);
            for w in seen.windows(2) {
                assert!(w[1] > w[0], "ids must increase at p{}", i + 1);
                if i < 2 {
                    assert_eq!(w[1], w[0].next(), "at p{}", i + 1);
                }
            }
        }
    }

    #[test]
    fn gm_messages_merge_per_kind_and_view() {
        use membership::ViewId;
        let v = ViewId(1);
        let w = ViewId(2);
        let mut seq: GmCastMsg<u32> = GmCastMsg::Seq {
            view: v,
            sns: vec![(
                MsgId {
                    origin: Pid::new(0),
                    seq: 0,
                },
                0,
            )],
        };
        let seq2 = GmCastMsg::Seq {
            view: v,
            sns: vec![(
                MsgId {
                    origin: Pid::new(1),
                    seq: 0,
                },
                1,
            )],
        };
        assert!(seq.try_merge(&seq2));
        let GmCastMsg::Seq { sns, .. } = &seq else {
            panic!()
        };
        assert_eq!(sns.len(), 2);

        let seq_other_view = GmCastMsg::Seq {
            view: w,
            sns: vec![(
                MsgId {
                    origin: Pid::new(1),
                    seq: 1,
                },
                0,
            )],
        };
        assert!(!seq.try_merge(&seq_other_view));

        let mut del: GmCastMsg<u32> = GmCastMsg::Deliver {
            view: v,
            sns: vec![0],
            stable_up_to: 1,
        };
        let del2 = GmCastMsg::Deliver {
            view: v,
            sns: vec![1, 2],
            stable_up_to: 3,
        };
        assert!(del.try_merge(&del2));
        let GmCastMsg::Deliver {
            sns, stable_up_to, ..
        } = &del
        else {
            panic!()
        };
        assert_eq!(sns, &vec![0, 1, 2]);
        assert_eq!(*stable_up_to, 3);

        let mut ack: GmCastMsg<u32> = GmCastMsg::AckSn {
            view: v,
            sns: vec![5],
        };
        let data = GmCastMsg::Data {
            view: v,
            id: MsgId {
                origin: Pid::new(0),
                seq: 0,
            },
            payload: 1,
        };
        assert!(!ack.try_merge(&data), "different kinds never merge");
    }
}
