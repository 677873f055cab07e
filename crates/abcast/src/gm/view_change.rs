//! The GM algorithm's view change (paper Section 4.3, after Malloth &
//! Schiper): a member that suspects another starts a view change;
//! every member *flushes* (multicasts its unstable messages); once a
//! process holds flushes from every member it does not exclude or
//! suspect, it proposes the pair `(P, U)` to a per-view consensus run
//! among the **old** view's members (so a wrongly suspected process
//! takes part, sees the decision, and learns of its own exclusion). The
//! decision installs the next view after delivering `U`'s messages
//! deterministically.
//!
//! Joins: an excluded process sends [`GmMsg::Join`] to the members it
//! knows of; a member that does not suspect the joiner triggers a view
//! change that readmits it; the new view's sequencer sends
//! [`GmMsg::Welcome`], and the joiner catches up by state transfer. A
//! member that still suspects the joiner ignores the request — with a
//! long mistake duration `T_M` this is what makes the group churn
//! (exclude → rejoin → exclude …), the effect the paper measures in
//! Fig. 7.
//!
//! An install is finished in two steps: the decision delivers `U` and
//! starts the new view at once (`apply_install`); view-change
//! traffic buffered for the new view, lingering suspicions and queued
//! joins are taken up at the end of the entry point that installed it.

use std::collections::{BTreeMap, BTreeSet};

use consensus::{Consensus, ConsensusAction, ConsensusConfig};
use membership::{GmMsg, View, ViewId, ViewProposal};
use neko::{FdEvent, Pid};

use super::{Actions, Bundle, GmAbcast, GmCastMsg, TAG_CATCHUP_RETRY, TAG_JOIN_RETRY};
use crate::common::{CastAction, Payload};

/// Whether this process belongs to the group.
#[derive(Clone, Debug)]
pub(super) enum Mode {
    Member,
    /// Excluded: `known` is the most recent view we know of (where to
    /// send join requests).
    Excluded {
        known: View,
    },
}

/// An in-progress view change of the current view.
#[derive(Debug)]
pub(super) struct Vc<P: Payload> {
    excluded: BTreeSet<Pid>,
    joining: BTreeSet<Pid>,
    exchanges: BTreeMap<Pid, Bundle<P>>,
    cons: Consensus<ViewProposal<Bundle<P>>>,
    proposed: bool,
}

/// Progress signature of a view change: `(excluded, joining,
/// exchanges, proposed, consensus progress)`.
pub(super) type VcProgress = (usize, usize, usize, bool, (u32, &'static str, usize, usize));

impl<P: Payload> Vc<P> {
    /// `GmAbcast::vc_probe` compares two successive signatures and
    /// re-sends the flush and consensus state only when they are equal.
    /// The contract is therefore: any progress of the view change (an
    /// exclusion, a join, a flush exchange, the proposal or any step of
    /// its consensus) must change the signature.
    fn progress(&self) -> VcProgress {
        (
            self.excluded.len(),
            self.joining.len(),
            self.exchanges.len(),
            self.proposed,
            self.cons.progress(),
        )
    }
}

impl<P: Payload> GmAbcast<P> {
    pub(super) fn is_member(&self) -> bool {
        matches!(self.mode, Mode::Member)
    }

    /// Handles a failure-detector edge.
    pub(super) fn handle_fd(&mut self, ev: FdEvent, out: &mut Actions<P>) {
        self.suspects.apply(ev);
        if let Some(vc) = &mut self.vc {
            let mut cons_out = Vec::new();
            vc.cons.on_fd(ev, &mut cons_out);
            self.pump_cons(cons_out, out);
        }
        // While an install is pending its follow-up re-checks the
        // suspicions.
        if let FdEvent::Suspect(p) = ev {
            if !self.install_pending && self.is_member() && self.view.contains(p) && p != self.me {
                if self.vc.is_none() {
                    let mut excluded = self.view.suspected_others(self.me, &self.suspects);
                    excluded.insert(p);
                    self.start_vc(excluded, BTreeSet::new(), out);
                } else {
                    // Already flushing: a new suspicion shrinks the set
                    // of flushes we wait for.
                    self.check_propose(out);
                }
            }
        }
        self.finish_installs(out);
    }

    /// Periodic view-change repair probe (the shell's probe timer):
    /// when a view change has made *no* observable progress for two
    /// probes, re-send our flush exchange and the view-change
    /// consensus's directed state — unwedging a member-to-be that
    /// missed the flush and cross-round consensus stalls. Quiet
    /// whenever no view change is in progress or it is progressing, so
    /// healthy runs are untouched.
    pub(super) fn vc_probe(&mut self, out: &mut Actions<P>) {
        let sig = self.vc.as_ref().map(|vc| (self.view.id(), vc.progress()));
        if !self.vc_stall.stalled(sig) {
            return;
        }
        // Believe straggler Welcomes from here on: our copy of the
        // view-change decision is apparently lost. Cleared by any
        // install.
        self.stale_jump_armed = true;
        self.vc_resend(out);
        self.finish_installs(out);
    }

    /// Sends a join request (at exclusion, and again on the retry
    /// timer until readmitted; members that still suspect us ignore
    /// the request). The first attempt asks every member of the view
    /// that excluded us; retries rotate through every process that has
    /// ever been a member, because that view may itself have been
    /// superseded.
    pub(super) fn request_join(&mut self, out: &mut Actions<P>) {
        let Mode::Excluded { known } = &self.mode else {
            return;
        };
        if self.join_attempts == 0 {
            // The common case: the group is stable and any member of
            // the excluding view can sponsor the rejoin.
            for &m in known.members() {
                if m != self.me {
                    out.push(CastAction::Send(m, GmCastMsg::Gm(GmMsg::Join)));
                }
            }
        } else {
            // One process at a time — flooding everyone on every retry
            // would saturate the very network the view change needs.
            let candidates: Vec<Pid> = self
                .universe
                .iter()
                .copied()
                .filter(|&m| m != self.me)
                .collect();
            if let Some(&target) =
                candidates.get(self.join_attempts as usize % candidates.len().max(1))
            {
                out.push(CastAction::Send(target, GmCastMsg::Gm(GmMsg::Join)));
            }
        }
        self.join_attempts += 1;
    }

    /// Runs an entry point's `step`, then sends the join requests its
    /// exclusions owe, each right behind the retry action of its
    /// exclusion. They are made only now, with the state the whole
    /// step left: a later part of it may have readmitted us (then there
    /// is nothing to ask) or named a newer view to ask.
    pub(super) fn with_due_joins(
        &mut self,
        out: &mut Actions<P>,
        step: impl FnOnce(&mut Self, &mut Actions<P>),
    ) {
        let start = out.len();
        step(self, out);
        if !std::mem::take(&mut self.joins_due) {
            return;
        }
        let mut next = start;
        while let Some(a) = out.get(next) {
            next += 1;
            if matches!(a, CastAction::Retry(TAG_JOIN_RETRY)) {
                let end = out.len();
                self.request_join(out);
                let added = out.len() - end;
                if let Some(after) = out.get_mut(next..) {
                    after.rotate_right(added);
                }
                next += added;
            }
        }
    }

    /// The current view, as a `Welcome` names it.
    pub(super) fn welcome(&self) -> GmMsg<Bundle<P>> {
        GmMsg::Welcome {
            view: self.view.id(),
            members: self.view.members().clone(),
        }
    }

    /// Runs the deferred part of every install: drains view-change
    /// traffic buffered for the new view, then re-checks lingering
    /// suspicions and queued joins.
    pub(super) fn finish_installs(&mut self, out: &mut Actions<P>) {
        while self.install_pending {
            self.install_pending = false;
            if !self.is_member() {
                return;
            }
            if let Some(msgs) = self.future_gm.remove(&self.view.id()) {
                for (from, m) in msgs {
                    self.handle_gm(from, m, out);
                }
            }
            let current = self.view.id();
            self.future_gm.retain(|vid, _| *vid > current);
            if self.install_pending {
                continue; // a drained message installed another view
            }
            if self.vc.is_none() {
                let excluded = self.view.suspected_others(self.me, &self.suspects);
                let joining: BTreeSet<Pid> = std::mem::take(&mut self.pending_joins)
                    .into_iter()
                    .filter(|&p| !self.view.contains(p) && !self.suspects.contains(p))
                    .collect();
                if !excluded.is_empty() || !joining.is_empty() {
                    self.start_vc(excluded, joining, out);
                }
            }
        }
    }

    /// Handles a membership message; the entry point runs
    /// `finish_installs` after it.
    pub(super) fn handle_gm(&mut self, from: Pid, msg: GmMsg<Bundle<P>>, out: &mut Actions<P>) {
        match msg {
            GmMsg::Flush { view, .. } | GmMsg::Cons { view, .. } => {
                self.on_vc_traffic(from, view, msg, out)
            }
            GmMsg::Join => {
                if !self.is_member() {
                    return;
                }
                if self.view.contains(from) {
                    // Already in (our Welcome may have been missed):
                    // answer directly.
                    out.push(CastAction::Send(from, GmCastMsg::Gm(self.welcome())));
                    return;
                }
                if self.suspects.contains(from) {
                    return; // still suspected: refuse (the joiner retries)
                }
                if self.vc.is_some() || self.install_pending {
                    self.pending_joins.insert(from);
                } else {
                    self.start_vc(BTreeSet::new(), BTreeSet::from([from]), out);
                }
            }
            GmMsg::Welcome { view, members } => {
                // An empty member set names no installable view.
                if view <= self.view.id() || members.is_empty() {
                    return;
                }
                let v = View::new(view, members);
                self.universe.extend(v.members().iter().copied());
                if v.contains(self.me) {
                    // Admitted: adopt the view. Besides an excluded
                    // process whose join succeeded, this covers a
                    // *member that fell behind* — crash recovery
                    // brought it back mid-view-change and the group
                    // finished without its vote. A live member racing
                    // its own in-flight consensus decision must NOT
                    // jump (the decision is normally a message away,
                    // and jumping would abandon its vote and churn
                    // the group): while we are a member, adopt only
                    // when the gap cannot be healed by the ordinary
                    // flow — no view change of our own in flight, the
                    // Welcome is more than one view ahead, or our
                    // stall probe armed the jump.
                    let member_may_jump =
                        self.vc.is_none() || view > self.view.id().next() || self.stale_jump_armed;
                    if !self.is_member() || member_may_jump {
                        self.set_view(v, out);
                        self.mode = Mode::Member;
                        self.vc = None;
                        self.stale_jump_armed = false;
                        self.future_gm.retain(|vid, _| *vid >= view);
                        self.readmitted(out);
                        self.install_pending = true;
                    }
                } else {
                    // A newer view that excludes us: the group
                    // reconfigured while we were down (crash-recovery,
                    // healed partition) and this is how we find out.
                    match &mut self.mode {
                        Mode::Member => self.excluded(v, out),
                        Mode::Excluded { known } if view > known.id() => *known = v,
                        Mode::Excluded { .. } => {}
                    }
                }
            }
        }
    }

    /// A flush or consensus message of the view change of `view`.
    fn on_vc_traffic(
        &mut self,
        from: Pid,
        view: ViewId,
        msg: GmMsg<Bundle<P>>,
        out: &mut Actions<P>,
    ) {
        if view < self.view.id() && self.is_member() {
            self.welcome_straggler(from, out);
        } else if view > self.view.id() || !self.is_member() || self.install_pending {
            // A later view's, or ours between its decision and the
            // install's follow-up: keep it for then. An excluded process
            // keeps it too: it may be the member-to-be this very view
            // change readmits — its Welcome is still in flight, and
            // dropping the flush would wedge the change (the sender
            // waits for our exchange forever once we adopt the view).
            // Adopting the view drains the buffer; stale views are
            // pruned.
            self.future_gm.entry(view).or_default().push((from, msg));
        } else if let GmMsg::Flush {
            excluded,
            joining,
            unstable,
            ..
        } = msg
        {
            if self.vc.is_none() {
                self.start_vc(excluded.clone(), joining.clone(), out);
            }
            // A view of one decides its own change inside `start_vc`,
            // and the install leaves no change for the flush to join.
            let Some(vc) = &mut self.vc else { return };
            vc.excluded.extend(excluded.iter().copied());
            for j in joining {
                if !vc.excluded.contains(&j) {
                    vc.joining.insert(j);
                }
            }
            vc.exchanges.insert(from, unstable);
            self.check_propose(out);
        } else if let GmMsg::Cons { inner, .. } = msg {
            if self.vc.is_none() {
                // Dragged into a view change we have not heard of (our
                // flush was not awaited, i.e. we are being excluded) —
                // flush anyway and take part in the consensus.
                let excluded = self.view.suspected_others(self.me, &self.suspects);
                self.start_vc(excluded, BTreeSet::new(), out);
            }
            // As for a flush: a view of one may have installed already.
            let Some(vc) = &mut self.vc else { return };
            let mut cons_out = Vec::new();
            vc.cons.on_message(from, inner, &mut cons_out);
            self.pump_cons(cons_out, out);
        }
    }

    /// We left the group: `known` is the view we are not part of.
    fn excluded(&mut self, known: View, out: &mut Actions<P>) {
        self.vc = None;
        self.mode = Mode::Excluded { known };
        self.join_attempts = 0;
        // Our own undelivered broadcasts would die with the old view's
        // store (the rejoin resets it); queue them for re-issue once
        // we are readmitted and caught up — the state transfer marks
        // the ones the group delivered without us, and the rest go out
        // again under their original ids.
        let mine = self.own_undelivered();
        self.unsent.extend(mine);
        // Ask to rejoin now and on the retry timer; the request itself
        // goes out when the entry point ends (`with_due_joins`).
        out.push(CastAction::Retry(TAG_JOIN_RETRY));
        self.joins_due = true;
    }

    /// We adopted the current view from a `Welcome`: catch up on what
    /// it delivered without us by state transfer.
    fn readmitted(&mut self, out: &mut Actions<P>) {
        // A member that fell a whole view behind adopts the newer view
        // through this same path without passing through `excluded` —
        // save our own undelivered broadcasts from the state reset.
        let mine = self.own_undelivered();
        for (id, p) in mine {
            if !self.unsent.iter().any(|(uid, _)| *uid == id) {
                self.unsent.push((id, p));
            }
        }
        self.catching_up = true;
        self.reset_view_state();
        self.request_state(out);
        out.push(CastAction::Retry(TAG_CATCHUP_RETRY));
    }

    /// Repairs a stalled view change: re-multicasts our flush
    /// exchange (it may have been dropped while a member-to-be had
    /// not yet adopted the view) and re-emits the view-change
    /// consensus's directed state toward every other old-view member
    /// (unwedging cross-round stalls — see
    /// [`consensus::Consensus::resend_to`]). Everything re-sent is
    /// idempotent at the receivers.
    fn vc_resend(&mut self, out: &mut Actions<P>) {
        let cons_out = {
            let Some(vc) = &self.vc else { return };
            if let Some(own) = vc.exchanges.get(&self.me) {
                out.push(CastAction::Multicast(GmCastMsg::Gm(GmMsg::Flush {
                    view: self.view.id(),
                    excluded: vc.excluded.clone(),
                    joining: vc.joining.clone(),
                    unstable: own.clone(),
                })));
            }
            let mut cons_out = Vec::new();
            for p in self.view.others(self.me).iter() {
                vc.cons.resend_to(p, &mut cons_out);
            }
            cons_out
        };
        self.pump_cons(cons_out, out);
    }

    /// A process sent view-change traffic for a view we have already
    /// left behind: it is stuck in the past — it recovered from a
    /// crash mid-view-change, or its flush raced its own exclusion —
    /// and since nobody multicasts to it any more, dropping the
    /// message silently would wedge it (and every view change waiting
    /// for its exchange) forever. Tell it where the group is; its
    /// Welcome handler turns the news into a rejoin or a catch-up.
    fn welcome_straggler(&self, from: Pid, out: &mut Actions<P>) {
        if self.is_member() && from != self.me {
            out.push(CastAction::Send(from, GmCastMsg::Gm(self.welcome())));
        }
    }

    fn start_vc(&mut self, excluded: BTreeSet<Pid>, joining: BTreeSet<Pid>, out: &mut Actions<P>) {
        debug_assert!(self.vc.is_none());
        // Our flush: the unstable messages of the closing view.
        let u = Bundle {
            msgs: self
                .store
                .iter()
                .map(|(id, (sn, p))| (id, (*sn, p.clone())))
                .collect(),
            delivered_sn: self.delivered_sn,
        };
        let cfg = ConsensusConfig {
            me: self.me,
            order: self.view.members().iter().copied().collect(),
        };
        let vc = Vc {
            excluded: excluded.clone(),
            joining: joining.clone(),
            exchanges: BTreeMap::from([(self.me, u.clone())]),
            cons: Consensus::new(cfg, &self.suspects),
            proposed: false,
        };
        out.push(CastAction::Multicast(GmCastMsg::Gm(GmMsg::Flush {
            view: self.view.id(),
            excluded,
            joining,
            unstable: u,
        })));
        self.vc = Some(vc);
        self.check_propose(out);
    }

    fn check_propose(&mut self, out: &mut Actions<P>) {
        let Some(vc) = &mut self.vc else { return };
        if vc.proposed {
            return;
        }
        let me = self.me;
        let wait_set: Vec<Pid> = self
            .view
            .members()
            .iter()
            .copied()
            .filter(|&p| !vc.excluded.contains(&p) && (p == me || !self.suspects.contains(p)))
            .collect();
        if !wait_set.iter().all(|p| vc.exchanges.contains_key(p)) {
            return;
        }
        // A proposal must merge enough of the closing view's
        // exchanges to *intersect every possible ack-majority*, not
        // just the unsuspected ones. Uniform delivery is backed by a
        // majority of acks, and every acker's exchange still carries
        // an acked message until it is stable at the whole view — so
        // a proposal built from at least `n − majority + 1` exchanges
        // provably contains every message anyone delivered in the
        // closing view. Proposing from fewer (wrong suspicions can
        // shrink the wait set to a single process) can drop a
        // delivered message's payload or sequence number from the
        // agreed bundle, and a lagging member would then flush a
        // different order than its peers delivered (total-order
        // violation; found by the schedule explorer, pinned in
        // `tests/explore.rs`). Wrongly suspected members are alive
        // and their flushes do arrive; only the loss of a real
        // quorum blocks this bound — in particular a two-member view
        // needs just its own exchange, so losing one of two members
        // never wedges the survivor.
        if vc.exchanges.len() < self.view.len() - self.view.majority() + 1 {
            return;
        }
        let mut exchanges = vc.exchanges.values();
        let Some(mut unstable) = exchanges.next().cloned() else {
            return;
        };
        for u in exchanges {
            unstable.merge(u);
        }
        vc.proposed = true;
        let mut members: BTreeSet<Pid> = self
            .view
            .members()
            .iter()
            .copied()
            .filter(|p| !vc.excluded.contains(p))
            .collect();
        members.extend(
            vc.joining
                .iter()
                .copied()
                .filter(|j| !vc.excluded.contains(j)),
        );
        if members.is_empty() {
            members.insert(self.me); // never propose an empty view
        }
        let cons_out = {
            let mut cons_out = Vec::new();
            vc.cons
                .propose(ViewProposal { members, unstable }, &mut cons_out);
            cons_out
        };
        self.pump_cons(cons_out, out);
    }

    fn pump_cons(
        &mut self,
        cons_out: Vec<ConsensusAction<ViewProposal<Bundle<P>>>>,
        out: &mut Actions<P>,
    ) {
        let vid = self.view.id();
        let mut decided = None;
        for a in cons_out {
            match a {
                ConsensusAction::Send(p, m) => {
                    out.push(CastAction::Send(
                        p,
                        GmCastMsg::Gm(GmMsg::Cons {
                            view: vid,
                            inner: m,
                        }),
                    ));
                }
                ConsensusAction::Multicast(m) => {
                    out.push(CastAction::Multicast(GmCastMsg::Gm(GmMsg::Cons {
                        view: vid,
                        inner: m,
                    })));
                }
                ConsensusAction::Decided(p) => decided = Some(p),
            }
        }
        if let Some(proposal) = decided {
            self.install(proposal, out);
        }
    }

    /// The view change's decision: install the next view — delivering
    /// the agreed unstable set first — or learn that we are not in it.
    fn install(&mut self, proposal: ViewProposal<Bundle<P>>, out: &mut Actions<P>) {
        let new_view = View::new(self.view.id().next(), proposal.members);
        self.universe.extend(new_view.members().iter().copied());
        let joined: Vec<Pid> = new_view
            .members()
            .iter()
            .copied()
            .filter(|p| !self.view.contains(*p))
            .collect();
        self.vc = None;
        self.stale_jump_armed = false;
        if !new_view.contains(self.me) {
            self.excluded(new_view, out);
            return;
        }
        self.set_view(new_view, out);
        self.mode = Mode::Member;
        self.install_pending = true;
        self.apply_install(proposal.unstable, out);
        if self.view.sequencer() == self.me {
            for j in joined {
                out.push(CastAction::Send(j, GmCastMsg::Gm(self.welcome())));
            }
        }
    }
}
