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
//! When a member is suspected, the [`membership`] service excludes it
//! through a view change; unstable messages (everything not yet known
//! to be both stable and locally delivered) are exchanged and the
//! agreed union is delivered at the view boundary. A wrongly excluded
//! process learns of its exclusion from the view-change consensus it
//! takes part in, rejoins, and catches up with a **state transfer**
//! (the missed suffix of the delivery log, served by the sequencer).
//!
//! The **non-uniform variant** of the paper's Section 8 is provided as
//! [`Uniformity::NonUniform`]: A-delivery happens as soon as a process
//! holds `Data` + `Seq` (two multicasts end to end). Acknowledgements
//! are still sent — off the critical path — so stability tracking and
//! flush pruning keep working; `Deliver` messages degenerate to
//! stability announcements.

use std::collections::{BTreeMap, BTreeSet};

use fdet::SuspectSet;
use membership::{GmAction, GmMsg, Membership, Unstable, View, ViewId};
use neko::{DestSet, FdEvent, Pid};
use rbcast::{SeqWindow, WatermarkSet, WindowMap};

use crate::common::{MsgId, Payload};

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

impl<P: Payload> Unstable for Bundle<P> {
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
type Store<P> = WindowMap<MsgId, (Option<u64>, P)>;

/// The unstable bundle a view change snapshots from the store.
fn snapshot<P: Payload>(store: &Store<P>, delivered_sn: u64) -> Bundle<P> {
    Bundle {
        msgs: store
            .iter()
            .map(|(id, (sn, p))| (id, (*sn, p.clone())))
            .collect(),
        delivered_sn,
    }
}

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

/// Outputs of the GM state machine, in execution order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GmCastAction<P> {
    /// Send to one process.
    Send(Pid, GmCastMsg<P>),
    /// Send to the listed processes (one multicast).
    Multicast(Vec<Pid>, GmCastMsg<P>),
    /// `A-deliver`.
    Deliver {
        /// The broadcast's identity.
        id: MsgId,
        /// Its payload.
        payload: P,
    },
    /// We were excluded: the shell must call
    /// [`GmAbcast::request_join`] now and retry on a timer until
    /// readmitted.
    JoinNeeded,
    /// We were readmitted and sent a state request: the shell should
    /// retry [`GmAbcast::request_state`] on a timer while
    /// [`GmAbcast::is_catching_up`] holds.
    CatchupNeeded,
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
    gm: Membership<Bundle<P>>,
    // ---- per-view protocol state (reset at each install) ----
    // Sequence numbers restart at 0 with every view and are assigned
    // densely, so the sn-keyed maps are windows indexed by sn.
    store: Store<P>,
    /// Sns whose `Seq` arrived before the message's `Data` (the store
    /// holds the sn of every message it has).
    assigned: WindowMap<MsgId, u64>,
    by_sn: SeqWindow<MsgId>,
    /// Ack bitmaps per sequence number: only membership and a count
    /// are ever needed, so a [`DestSet`] replaces a tree of pids.
    acks: SeqWindow<DestSet>,
    deliverable: SeqWindow<()>,
    /// Sequencer: messages with `Data` received but no `sn` yet.
    unsequenced: WindowMap<MsgId, ()>,
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
    delivered_ids: WatermarkSet<MsgId>,
    delivered_log: Vec<(MsgId, P)>,
    next_local_seq: u64,
    unsent: Vec<(MsgId, P)>,
    catching_up: bool,
    catchup_buf: Vec<(Pid, GmCastMsg<P>)>,
    future_inview: BTreeMap<ViewId, Vec<(Pid, GmCastMsg<P>)>>,
    /// Flat copy of the current view minus us, rebuilt when the view
    /// id changes — the in-view multicast paths clone this instead of
    /// re-filtering the member tree per message.
    others_cache: Vec<Pid>,
    others_view: Option<ViewId>,
    /// View-change progress signature at the last repair probe.
    last_vc_probe: Option<(ViewId, Option<membership::VcProgress>)>,
    /// Consecutive probes with a frozen in-progress view change.
    stalled_vc_probes: u32,
}

impl<P: Payload> GmAbcast<P> {
    /// Creates the endpoint for `me` in a group that bootstraps with
    /// all `n` processes as view `v0`.
    pub fn new(me: Pid, n: usize, suspects: &SuspectSet, uniformity: Uniformity) -> Self {
        GmAbcast {
            me,
            uniformity,
            gm: Membership::new(me, View::initial(n), suspects),
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
            others_cache: Vec::new(),
            others_view: None,
            last_vc_probe: None,
            stalled_vc_probes: 0,
        }
    }

    /// The current view's members other than us, as an owned vector
    /// (the action type carries ownership). Cached per view id.
    fn others_vec(&mut self) -> Vec<Pid> {
        let vid = self.gm.view().id();
        if self.others_view != Some(vid) {
            self.others_cache = self.gm.view().others(self.me);
            self.others_view = Some(vid);
        }
        self.others_cache.clone()
    }

    /// The A-delivery order so far.
    pub fn delivered_log(&self) -> &[(MsgId, P)] {
        &self.delivered_log
    }

    /// The current view.
    pub fn view(&self) -> &View {
        self.gm.view()
    }

    /// Whether this process is currently excluded from the group.
    pub fn is_excluded(&self) -> bool {
        !self.gm.is_member()
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
        self.gm.in_view_change()
    }

    /// Periodic view-change repair probe. Call at a coarse interval
    /// (the [`crate::GmNode`] shell uses a timer): when a view change
    /// has made *no* observable progress since the last probe, re-send
    /// our flush exchange and the view-change consensus's directed
    /// state ([`membership::Membership::vc_resend`]) — unwedging a
    /// member-to-be that missed the flush and cross-round consensus
    /// stalls. Quiet whenever no view change is in progress or it is
    /// progressing, so healthy runs are untouched.
    pub fn vc_probe(&mut self, out: &mut Vec<GmCastAction<P>>) {
        let sig = (self.gm.view().id(), self.gm.vc_progress());
        let stalled = self.gm.in_view_change() && self.last_vc_probe.as_ref() == Some(&sig);
        self.last_vc_probe = Some(sig);
        if stalled {
            self.stalled_vc_probes += 1;
        } else {
            self.stalled_vc_probes = 0;
        }
        // Two consecutive frozen probes (≥ 2 intervals of zero
        // progress) separate a genuine wedge from a view change that
        // is merely slow under load.
        if self.stalled_vc_probes < 2 {
            return;
        }
        // Believe straggler Welcomes from here on: our copy of the
        // view-change decision is apparently lost.
        self.gm.arm_stale_jump();
        let mut gm_out = Vec::new();
        self.gm.vc_resend(&mut gm_out);
        self.process_gm(gm_out, out);
    }

    fn is_sequencer(&self) -> bool {
        self.gm.is_member() && self.gm.view().sequencer() == self.me
    }

    fn can_send(&self) -> bool {
        self.gm.is_member() && !self.gm.in_view_change() && !self.catching_up
    }

    /// `A-broadcast(payload)`; returns the new message's id. While the
    /// group is reconfiguring (or we are excluded) the message is
    /// buffered and sent in the next view.
    pub fn broadcast(&mut self, payload: P, out: &mut Vec<GmCastAction<P>>) -> MsgId {
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

    /// Re-sends the join request (shell timer callback).
    pub fn request_join(&mut self, out: &mut Vec<GmCastAction<P>>) {
        let mut gm_out = Vec::new();
        self.gm.request_join(&mut gm_out);
        self.process_gm(gm_out, out);
    }

    /// Re-sends the state request (shell timer callback). The request
    /// goes to every member we know of — any of them can serve it, and
    /// the sequencer may have crashed since we were welcomed.
    pub fn request_state(&mut self, out: &mut Vec<GmCastAction<P>>) {
        if self.catching_up && self.gm.is_member() {
            for m in self.gm.view().others(self.me) {
                out.push(GmCastAction::Send(
                    m,
                    GmCastMsg::StateReq {
                        from_index: self.delivered_log.len() as u64,
                    },
                ));
            }
        }
    }

    /// Handles a failure-detector edge.
    pub fn on_fd(&mut self, ev: FdEvent, out: &mut Vec<GmCastAction<P>>) {
        let Self {
            gm,
            store,
            delivered_sn,
            ..
        } = self;
        let mut gm_out = Vec::new();
        gm.on_fd(ev, &mut || snapshot(store, *delivered_sn), &mut gm_out);
        self.process_gm(gm_out, out);
    }

    /// Handles a wire message.
    pub fn on_message(&mut self, from: Pid, msg: GmCastMsg<P>, out: &mut Vec<GmCastAction<P>>) {
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
        let frozen = self.gm.in_view_change();
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
                let Self {
                    gm,
                    store,
                    delivered_sn,
                    ..
                } = self;
                let mut gm_out = Vec::new();
                gm.on_message(from, m, &mut || snapshot(store, *delivered_sn), &mut gm_out);
                self.process_gm(gm_out, out);
            }
            GmCastMsg::StateReq { from_index } => {
                if self.gm.is_member() && !self.catching_up {
                    let from_index = (from_index as usize).min(self.delivered_log.len());
                    out.push(GmCastAction::Send(
                        from,
                        GmCastMsg::StateResp {
                            from_index: from_index as u64,
                            entries: self.delivered_log[from_index..].to_vec(),
                            resume_sn: self.delivered_sn,
                            view: self.gm.view().id(),
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

    fn send_data(&mut self, id: MsgId, payload: P, out: &mut Vec<GmCastAction<P>>) {
        let dests = self.others_vec();
        out.push(GmCastAction::Multicast(
            dests,
            GmCastMsg::Data {
                view: self.gm.view().id(),
                id,
                payload: payload.clone(),
            },
        ));
        self.handle_data(id, payload, out);
    }

    fn handle_data(&mut self, id: MsgId, payload: P, out: &mut Vec<GmCastAction<P>>) {
        if self.delivered_ids.contains(id) || self.store.contains_key(id) {
            return;
        }
        let sn = self.assigned.remove(id);
        self.store.insert(id, (sn, payload));
        if self.gm.in_view_change() {
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
    fn maybe_open_batch(&mut self, out: &mut Vec<GmCastAction<P>>) {
        if self.batch_end.is_some()
            || self.unsequenced.is_empty()
            || !self.is_sequencer()
            || self.gm.in_view_change()
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
        let dests = self.others_vec();
        out.push(GmCastAction::Multicast(
            dests,
            GmCastMsg::Seq {
                view: self.gm.view().id(),
                sns: pairs,
            },
        ));
        self.flush_deliveries(out);
    }

    fn handle_seq(&mut self, sns: Vec<(MsgId, u64)>, out: &mut Vec<GmCastAction<P>>) {
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
            let view = self.gm.view();
            out.push(GmCastAction::Send(
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
    fn complete_pair(&mut self, sn: u64, out: &mut Vec<GmCastAction<P>>) {
        if self.uniformity == Uniformity::NonUniform {
            self.deliverable.insert(sn, ());
        }
        if self.is_sequencer() {
            self.note_ack(sn, self.me);
            self.flush_deliveries(out);
        } else if self.uniformity == Uniformity::Uniform {
            let view = self.gm.view();
            out.push(GmCastAction::Send(
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
    fn maybe_cumulative_ack(&mut self, out: &mut Vec<GmCastAction<P>>) {
        if self.uniformity != Uniformity::NonUniform || self.is_sequencer() {
            return;
        }
        let held = self.delivered_sn;
        if held >= self.acked_up_to + NONUNIFORM_ACK_EVERY {
            self.acked_up_to = held;
            let view = self.gm.view();
            out.push(GmCastAction::Send(
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
        for &p in self.gm.view().members() {
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
        if acked >= self.gm.view().majority() {
            self.deliverable.insert(sn, ());
        }
        // Stability: the prefix acked by the whole view.
        let members = self.gm.view().len();
        while self
            .acks
            .get(self.stable_up_to)
            .is_some_and(|a| a.len() >= members)
        {
            self.stable_up_to += 1;
        }
    }

    /// Sequencer: delivers what became deliverable and announces it.
    fn flush_deliveries(&mut self, out: &mut Vec<GmCastAction<P>>) {
        let before = self.delivered_sn;
        self.try_deliver(out);
        let newly: Vec<u64> = (before..self.delivered_sn).collect();
        let announce_stability =
            self.uniformity == Uniformity::NonUniform && self.stable_up_to > self.pruned_up_to;
        if !newly.is_empty() || announce_stability {
            let vid = self.gm.view().id();
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
            let dests = self.others_vec();
            out.push(GmCastAction::Multicast(dests, msg));
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
    fn try_deliver(&mut self, out: &mut Vec<GmCastAction<P>>) {
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

    fn deliver(&mut self, id: MsgId, payload: P, out: &mut Vec<GmCastAction<P>>) {
        if self.delivered_ids.insert(id) {
            self.delivered_log.push((id, payload.clone()));
            out.push(GmCastAction::Deliver { id, payload });
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

    // ---- membership plumbing ----

    fn process_gm(&mut self, gm_out: Vec<GmAction<Bundle<P>>>, out: &mut Vec<GmCastAction<P>>) {
        for a in gm_out {
            match a {
                GmAction::Send(p, m) => out.push(GmCastAction::Send(p, GmCastMsg::Gm(m))),
                GmAction::Multicast(dests, m) => {
                    out.push(GmCastAction::Multicast(dests, GmCastMsg::Gm(m)))
                }
                GmAction::Install { view, unstable, .. } => self.apply_install(view, unstable, out),
                GmAction::Excluded { .. } => {
                    // Our own undelivered broadcasts would die with the
                    // old view's store (the rejoin resets it); queue
                    // them for re-issue once we are readmitted and
                    // caught up — the state transfer marks the ones
                    // the group delivered without us, and the rest go
                    // out again under their original ids.
                    let mine = self.own_undelivered();
                    self.unsent.extend(mine);
                    out.push(GmCastAction::JoinNeeded)
                }
                GmAction::Readmitted { view } => {
                    // A member that fell a whole view behind adopts
                    // the newer view through this same path without
                    // passing through `Excluded` — save our own
                    // undelivered broadcasts from the state reset.
                    let mine = self.own_undelivered();
                    for (id, p) in mine {
                        if !self.unsent.iter().any(|(uid, _)| *uid == id) {
                            self.unsent.push((id, p));
                        }
                    }
                    self.catching_up = true;
                    self.reset_view_state();
                    for m in view.others(self.me) {
                        out.push(GmCastAction::Send(
                            m,
                            GmCastMsg::StateReq {
                                from_index: self.delivered_log.len() as u64,
                            },
                        ));
                    }
                    out.push(GmCastAction::CatchupNeeded);
                }
            }
        }
        // Driving contract of the membership machine.
        while self.gm.needs_poll() {
            let Self {
                gm,
                store,
                delivered_sn,
                ..
            } = self;
            let mut gm_out = Vec::new();
            gm.poll(&mut || snapshot(store, *delivered_sn), &mut gm_out);
            self.process_gm(gm_out, out);
        }
    }

    fn apply_install(&mut self, view: View, unstable: Bundle<P>, out: &mut Vec<GmCastAction<P>>) {
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
        debug_assert_eq!(self.gm.view().id(), view.id());

        // 4) Re-send in the new view.
        for (id, p) in mine {
            self.send_data(id, p, out);
        }

        // 5) In-view traffic of this view that arrived before we
        //    installed it.
        if let Some(buffered) = self.future_inview.remove(&view.id()) {
            for (from, m) in buffered {
                self.on_message(from, m, out);
            }
        }
        let current = self.gm.view().id();
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
        out: &mut Vec<GmCastAction<P>>,
    ) {
        if !self.catching_up || !self.gm.is_member() || view < self.gm.view().id() {
            return; // stale response (responder behind us); retry covers it
        }
        for (id, p) in entries {
            self.deliver(id, p, out);
        }
        if view == self.gm.view().id() {
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
            self.on_message(from, m, out);
        }
        // In-view traffic of the adopted view that arrived while we
        // were still excluded (buffered by `classify`): the rejoin
        // path installs no view, so drain it here.
        let current = self.gm.view().id();
        if let Some(buffered) = self.future_inview.remove(&current) {
            for (from, m) in buffered {
                self.on_message(from, m, out);
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
        if !self.gm.is_member() {
            // Excluded processes take no part in their stale view's
            // in-view traffic — the state transfer covers that gap —
            // but traffic of a *newer* view may be addressed to the
            // member we are about to become (our Welcome is still in
            // flight); dropping it would lose the payload for good
            // (found by the schedule explorer: a healthy member's
            // broadcast reached the rejoining sequencer-to-be as
            // "stale" and was never sequenced). Buffer it like any
            // future-view traffic.
            return if view > self.gm.view().id() {
                ViewRelation::Future
            } else {
                ViewRelation::Past
            };
        }
        match view.cmp(&self.gm.view().id()) {
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
    /// view forever. Tell it where the group is; its membership
    /// machine turns the news into an exclusion notice and a join
    /// request.
    fn notify_stale(&self, from: Pid, out: &mut Vec<GmCastAction<P>>) {
        if self.gm.is_member() && !self.gm.in_view_change() && !self.gm.view().contains(from) {
            out.push(GmCastAction::Send(
                from,
                GmCastMsg::Gm(GmMsg::Welcome {
                    view: self.gm.view().id(),
                    members: self.gm.view().members().clone(),
                }),
            ));
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

#[cfg(test)]
mod tests {
    use super::*;

    type A = GmCastAction<u32>;

    fn nodes(n: usize, u: Uniformity) -> Vec<GmAbcast<u32>> {
        (0..n)
            .map(|i| GmAbcast::new(Pid::new(i), n, &SuspectSet::new(), u))
            .collect()
    }

    fn route(
        from: usize,
        out: Vec<A>,
        queue: &mut Vec<(usize, usize, GmCastMsg<u32>)>,
        delivered: &mut [Vec<(MsgId, u32)>],
        flags: &mut Vec<(usize, &'static str)>,
    ) {
        for a in out {
            match a {
                GmCastAction::Send(to, m) => queue.push((from, to.index(), m)),
                GmCastAction::Multicast(dests, m) => {
                    for to in dests {
                        queue.push((from, to.index(), m.clone()));
                    }
                }
                GmCastAction::Deliver { id, payload } => delivered[from].push((id, payload)),
                GmCastAction::JoinNeeded => flags.push((from, "join")),
                GmCastAction::CatchupNeeded => flags.push((from, "catchup")),
            }
        }
    }

    struct Net {
        queue: Vec<(usize, usize, GmCastMsg<u32>)>,
        delivered: Vec<Vec<(MsgId, u32)>>,
        flags: Vec<(usize, &'static str)>,
    }

    impl Net {
        fn new(n: usize) -> Self {
            Net {
                queue: Vec::new(),
                delivered: vec![Vec::new(); n],
                flags: Vec::new(),
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
                route(
                    to,
                    out,
                    &mut self.queue,
                    &mut self.delivered,
                    &mut self.flags,
                );
                // Shell behaviour: act on join/catchup flags directly.
                let flags = std::mem::take(&mut self.flags);
                for (who, what) in flags {
                    let mut out = Vec::new();
                    match what {
                        "join" => ns[who].request_join(&mut out),
                        "catchup" => ns[who].request_state(&mut out),
                        _ => {}
                    }
                    route(
                        who,
                        out,
                        &mut self.queue,
                        &mut self.delivered,
                        &mut self.flags,
                    );
                }
            }
            steps
        }

        fn bcast(&mut self, ns: &mut [GmAbcast<u32>], who: usize, v: u32) -> MsgId {
            let mut out = Vec::new();
            let id = ns[who].broadcast(v, &mut out);
            route(
                who,
                out,
                &mut self.queue,
                &mut self.delivered,
                &mut self.flags,
            );
            id
        }

        fn suspect(&mut self, ns: &mut [GmAbcast<u32>], at: usize, p: usize) {
            let mut out = Vec::new();
            ns[at].on_fd(FdEvent::Suspect(Pid::new(p)), &mut out);
            route(
                at,
                out,
                &mut self.queue,
                &mut self.delivered,
                &mut self.flags,
            );
        }

        fn trust(&mut self, ns: &mut [GmAbcast<u32>], at: usize, p: usize) {
            let mut out = Vec::new();
            ns[at].on_fd(FdEvent::Trust(Pid::new(p)), &mut out);
            route(
                at,
                out,
                &mut self.queue,
                &mut self.delivered,
                &mut self.flags,
            );
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
        assert!(ns[0].gm.in_view_change());
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
}
