//! The group-membership state machine (one per process).
//!
//! Implements the view-change protocol of the paper's Section 4.3
//! (after Malloth & Schiper): a member that suspects another starts a
//! view change; every member *flushes* (multicasts its unstable
//! messages); once a process holds flushes from every member it does
//! not exclude or suspect, it proposes the pair `(P, U)` to a
//! per-view consensus run among the **old** view's members (so a
//! wrongly suspected process takes part, sees the decision, and learns
//! of its own exclusion). The decision installs the next view after
//! delivering `U`'s messages deterministically.
//!
//! Joins: an excluded process sends [`GmMsg::Join`] to the members it
//! knows of; a member that does not suspect the joiner triggers a view
//! change that readmits it; the new view's sequencer sends
//! [`GmMsg::Welcome`]. A member that still suspects the joiner ignores
//! the request — with a long mistake duration `T_M` this is what makes
//! the group churn (exclude → rejoin → exclude …), the effect the
//! paper measures in Fig. 7.
//!
//! ## Driving contract
//!
//! The machine is pure. Some transitions (a view install) must be
//! applied by the layer above *before* the machine may ask it for a
//! fresh unstable bundle, so after every call the owner must check
//! [`Membership::needs_poll`] and, while it returns `true`, apply the
//! emitted actions and call [`Membership::poll`].

use std::collections::{BTreeMap, BTreeSet};

use consensus::{Consensus, ConsensusAction, ConsensusConfig};
use fdet::SuspectSet;
use neko::{FdEvent, Pid};

use crate::msg::{GmAction, GmMsg, Unstable, ViewProposal};
use crate::view::{View, ViewId};

/// Supplier of the local unstable-message bundle, invoked exactly when
/// the machine needs to flush.
pub type UnstableSupplier<'a, U> = &'a mut dyn FnMut() -> U;

/// Progress signature of an in-progress view change:
/// `(excluded, joining, exchanges, proposed, consensus progress)`,
/// as returned by [`Membership::vc_progress`].
pub type VcProgress = (usize, usize, usize, bool, (u32, &'static str, usize, usize));

#[derive(Clone, Debug)]
enum Mode {
    Member,
    /// Excluded: `known` is the most recent view we know of (where to
    /// send join requests).
    Excluded {
        known: View,
    },
}

#[derive(Debug)]
struct Vc<U: Unstable> {
    excluded: BTreeSet<Pid>,
    joining: BTreeSet<Pid>,
    exchanges: BTreeMap<Pid, U>,
    cons: Consensus<ViewProposal<U>>,
    proposed: bool,
}

/// Group-membership endpoint of one process.
#[derive(Debug)]
pub struct Membership<U: Unstable> {
    me: Pid,
    /// Every process that has ever been a member — join requests go to
    /// all of them, because the view that excluded us may itself have
    /// been superseded (its members may all be excluded by now).
    universe: BTreeSet<Pid>,
    view: View,
    mode: Mode,
    vc: Option<Vc<U>>,
    pending_joins: BTreeSet<Pid>,
    suspects: SuspectSet,
    future: BTreeMap<ViewId, Vec<(Pid, GmMsg<U>)>>,
    needs_poll: bool,
    join_attempts: u64,
    /// Set by the owner's stall probe: the current view change has
    /// made no progress for a while, so a Welcome for the very next
    /// view may be adopted even though our own consensus on it is
    /// still nominally in flight (its decision was lost to us).
    stale_jump_armed: bool,
}

impl<U: Unstable> Membership<U> {
    /// Creates the endpoint for `me`, starting in `view` with the
    /// failure detector's current output.
    ///
    /// # Panics
    ///
    /// Panics if `me` is not a member of `view`.
    pub fn new(me: Pid, view: View, suspects: &SuspectSet) -> Self {
        assert!(
            view.contains(me),
            "process must start as a member of its view"
        );
        Membership {
            me,
            universe: view.members().clone(),
            view,
            mode: Mode::Member,
            vc: None,
            pending_joins: BTreeSet::new(),
            suspects: suspects.clone(),
            future: BTreeMap::new(),
            needs_poll: false,
            join_attempts: 0,
            stale_jump_armed: false,
        }
    }

    /// The current view (the last one installed as a member).
    pub fn view(&self) -> &View {
        &self.view
    }

    /// Whether this process is currently a group member.
    pub fn is_member(&self) -> bool {
        matches!(self.mode, Mode::Member)
    }

    /// Whether a view change is in progress (the layer above should
    /// pause multicasting new payloads while flushing).
    pub fn in_view_change(&self) -> bool {
        self.vc.is_some()
    }

    /// `true` when the owner must apply pending actions and call
    /// [`poll`](Self::poll).
    pub fn needs_poll(&self) -> bool {
        self.needs_poll
    }

    /// Progress signature of the in-progress view change, `None` when
    /// none is in progress.
    ///
    /// `GmAbcast::vc_probe` compares two successive signatures and
    /// re-sends the flush and consensus state only when they are
    /// equal. The contract is therefore: any progress of the view
    /// change (an exclusion, a join, a flush exchange, the proposal or
    /// any step of its consensus) must change the signature.
    pub fn vc_progress(&self) -> Option<VcProgress> {
        self.vc.as_ref().map(|vc| {
            (
                vc.excluded.len(),
                vc.joining.len(),
                vc.exchanges.len(),
                vc.proposed,
                vc.cons.progress(),
            )
        })
    }

    /// Continues deferred work after an install (drains buffered
    /// messages for the new view, re-checks lingering suspicions and
    /// queued joins). Call while [`needs_poll`](Self::needs_poll)
    /// returns `true`, after applying previously emitted actions.
    pub fn poll(&mut self, unstable: UnstableSupplier<'_, U>, out: &mut Vec<GmAction<U>>) {
        self.needs_poll = false;
        if !self.is_member() {
            return;
        }
        if let Some(msgs) = self.future.remove(&self.view.id()) {
            for (from, m) in msgs {
                self.on_message(from, m, unstable, out);
            }
        }
        let current = self.view.id();
        self.future.retain(|vid, _| *vid > current);
        if self.needs_poll {
            return; // a drained message installed another view
        }
        if self.vc.is_none() {
            let excluded: BTreeSet<Pid> = self
                .view
                .members()
                .iter()
                .copied()
                .filter(|&p| p != self.me && self.suspects.is_suspected(p))
                .collect();
            let joining: BTreeSet<Pid> = std::mem::take(&mut self.pending_joins)
                .into_iter()
                .filter(|&p| !self.view.contains(p) && !self.suspects.is_suspected(p))
                .collect();
            if !excluded.is_empty() || !joining.is_empty() {
                self.start_vc(excluded, joining, unstable, out);
            }
        }
    }

    /// Handles a failure-detector edge.
    pub fn on_fd(
        &mut self,
        ev: FdEvent,
        unstable: UnstableSupplier<'_, U>,
        out: &mut Vec<GmAction<U>>,
    ) {
        self.suspects.apply(ev);
        if self.vc.is_some() {
            let cons_out = {
                let vc = self.vc.as_mut().expect("checked above");
                let mut cons_out = Vec::new();
                vc.cons.on_fd(ev, &mut cons_out);
                cons_out
            };
            self.pump_cons(cons_out, out);
        }
        let FdEvent::Suspect(p) = ev else { return };
        if self.needs_poll {
            return; // an install is pending; poll will re-check
        }
        if self.is_member() && self.view.contains(p) && p != self.me {
            if self.vc.is_none() {
                let mut excluded: BTreeSet<Pid> = self
                    .view
                    .members()
                    .iter()
                    .copied()
                    .filter(|&q| q != self.me && self.suspects.is_suspected(q))
                    .collect();
                excluded.insert(p);
                self.start_vc(excluded, BTreeSet::new(), unstable, out);
            } else {
                // Already flushing: a new suspicion shrinks the set of
                // flushes we wait for.
                self.check_propose(out);
            }
        }
    }

    /// Handles a membership protocol message.
    pub fn on_message(
        &mut self,
        from: Pid,
        msg: GmMsg<U>,
        unstable: UnstableSupplier<'_, U>,
        out: &mut Vec<GmAction<U>>,
    ) {
        match msg {
            GmMsg::Flush {
                view,
                excluded,
                joining,
                unstable: u,
            } => {
                if !self.is_member() {
                    // We may be the member-to-be this very view change
                    // readmits — our Welcome is still in flight, so
                    // dropping the flush would wedge the change (the
                    // sender waits for our exchange forever once we
                    // adopt the view). Keep it; adopting the view
                    // drains the buffer, and stale views are pruned.
                    self.buffer(
                        view,
                        from,
                        GmMsg::Flush {
                            view,
                            excluded,
                            joining,
                            unstable: u,
                        },
                    );
                    return;
                }
                match view.cmp(&self.view.id()) {
                    std::cmp::Ordering::Less => self.welcome_straggler(from, out),
                    std::cmp::Ordering::Greater => self.buffer(
                        view,
                        from,
                        GmMsg::Flush {
                            view,
                            excluded,
                            joining,
                            unstable: u,
                        },
                    ),
                    std::cmp::Ordering::Equal => {
                        if self.needs_poll {
                            // Between decision and poll: treat as future.
                            self.buffer(
                                view,
                                from,
                                GmMsg::Flush {
                                    view,
                                    excluded,
                                    joining,
                                    unstable: u,
                                },
                            );
                            return;
                        }
                        if self.vc.is_none() {
                            self.start_vc(excluded.clone(), joining.clone(), unstable, out);
                        }
                        let vc = self.vc.as_mut().expect("started above");
                        vc.excluded.extend(excluded.iter().copied());
                        for j in joining {
                            if !vc.excluded.contains(&j) {
                                vc.joining.insert(j);
                            }
                        }
                        vc.exchanges.insert(from, u);
                        self.check_propose(out);
                    }
                }
            }
            GmMsg::Cons { view, inner } => {
                if !self.is_member() {
                    // Same as for `Flush`: we may be about to adopt
                    // exactly this view via a Welcome in flight.
                    self.buffer(view, from, GmMsg::Cons { view, inner });
                    return;
                }
                match view.cmp(&self.view.id()) {
                    std::cmp::Ordering::Less => self.welcome_straggler(from, out),
                    std::cmp::Ordering::Greater => {
                        self.buffer(view, from, GmMsg::Cons { view, inner })
                    }
                    std::cmp::Ordering::Equal => {
                        if self.needs_poll {
                            self.buffer(view, from, GmMsg::Cons { view, inner });
                            return;
                        }
                        if self.vc.is_none() {
                            // Dragged into a view change we have not
                            // heard of (our flush was not awaited, i.e.
                            // we are being excluded) — flush anyway and
                            // take part in the consensus.
                            let excluded: BTreeSet<Pid> = self
                                .view
                                .members()
                                .iter()
                                .copied()
                                .filter(|&q| q != self.me && self.suspects.is_suspected(q))
                                .collect();
                            self.start_vc(excluded, BTreeSet::new(), unstable, out);
                        }
                        let cons_out = {
                            let vc = self.vc.as_mut().expect("started above");
                            let mut cons_out = Vec::new();
                            vc.cons.on_message(from, inner, &mut cons_out);
                            cons_out
                        };
                        self.pump_cons(cons_out, out);
                    }
                }
            }
            GmMsg::Join => {
                if !self.is_member() {
                    return;
                }
                if self.view.contains(from) {
                    // Already in (our Welcome may have been missed):
                    // answer directly.
                    out.push(GmAction::Send(
                        from,
                        GmMsg::Welcome {
                            view: self.view.id(),
                            members: self.view.members().clone(),
                        },
                    ));
                    return;
                }
                if self.suspects.is_suspected(from) {
                    return; // still suspected: refuse (the joiner retries)
                }
                if self.vc.is_some() || self.needs_poll {
                    self.pending_joins.insert(from);
                } else {
                    self.start_vc(BTreeSet::new(), BTreeSet::from([from]), unstable, out);
                }
            }
            GmMsg::Welcome { view, members } => {
                if view <= self.view.id() {
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
                        self.view = v.clone();
                        self.mode = Mode::Member;
                        self.vc = None;
                        self.stale_jump_armed = false;
                        self.future.retain(|vid, _| *vid >= view);
                        out.push(GmAction::Readmitted { view: v });
                        self.needs_poll = true;
                    }
                } else {
                    // A newer view that excludes us: the group
                    // reconfigured while we were down (crash-recovery,
                    // healed partition) and this is how we find out.
                    match &mut self.mode {
                        Mode::Member => {
                            self.vc = None;
                            self.mode = Mode::Excluded { known: v.clone() };
                            self.join_attempts = 0;
                            out.push(GmAction::Excluded { view: v });
                        }
                        Mode::Excluded { known } if view > known.id() => *known = v,
                        Mode::Excluded { .. } => {}
                    }
                }
            }
        }
    }

    /// Repairs a stalled view change: re-multicasts our flush
    /// exchange (it may have been dropped while a member-to-be had
    /// not yet adopted the view) and re-emits the view-change
    /// consensus's directed state toward every other old-view member
    /// (unwedging cross-round stalls — see
    /// [`consensus::Consensus::resend_to`]). Everything re-sent is
    /// idempotent at the receivers, so the caller may invoke this on
    /// a coarse no-progress probe without perturbing healthy runs.
    /// Arms the stale-view jump (see [`Membership::vc_resend`]): the
    /// owner's probe observed a stalled view change, so a Welcome for
    /// the next view — normally outrun by our own consensus decision
    /// — should be believed. Cleared by any install.
    pub fn arm_stale_jump(&mut self) {
        self.stale_jump_armed = true;
    }

    pub fn vc_resend(&mut self, out: &mut Vec<GmAction<U>>) {
        let cons_out = {
            let Some(vc) = &self.vc else { return };
            let others = self.view.others(self.me);
            if let Some(own) = vc.exchanges.get(&self.me) {
                out.push(GmAction::Multicast(
                    others.clone(),
                    GmMsg::Flush {
                        view: self.view.id(),
                        excluded: vc.excluded.clone(),
                        joining: vc.joining.clone(),
                        unstable: own.clone(),
                    },
                ));
            }
            let mut cons_out = Vec::new();
            for p in others {
                vc.cons.resend_to(p, &mut cons_out);
            }
            cons_out
        };
        self.pump_cons(cons_out, out);
    }

    /// Sends a join request to every process that has ever been a
    /// member (the view that excluded us may have been superseded, and
    /// any current member can sponsor the join). Call when
    /// [`GmAction::Excluded`] is emitted, and again on a timer until
    /// [`GmAction::Readmitted`] arrives (members that still suspect us
    /// ignore the request).
    pub fn request_join(&mut self, out: &mut Vec<GmAction<U>>) {
        let Mode::Excluded { known } = &self.mode else {
            return;
        };
        if self.join_attempts == 0 {
            // First attempt: ask every member of the view that excluded
            // us (the common case: the group is stable and any of them
            // can sponsor the rejoin).
            for &m in known.members() {
                if m != self.me {
                    out.push(GmAction::Send(m, GmMsg::Join));
                }
            }
        } else {
            // Retries rotate through the whole universe one process at
            // a time — the excluding view may have been superseded, and
            // flooding everyone on every retry would saturate the very
            // network the view change needs.
            let candidates: Vec<Pid> = self
                .universe
                .iter()
                .copied()
                .filter(|&m| m != self.me)
                .collect();
            if let Some(&target) =
                candidates.get(self.join_attempts as usize % candidates.len().max(1))
            {
                out.push(GmAction::Send(target, GmMsg::Join));
            }
        }
        self.join_attempts += 1;
    }

    fn buffer(&mut self, view: ViewId, from: Pid, msg: GmMsg<U>) {
        self.future.entry(view).or_default().push((from, msg));
    }

    /// A process sent view-change traffic for a view we have already
    /// left behind: it is stuck in the past — it recovered from a
    /// crash mid-view-change, or its flush raced its own exclusion —
    /// and since nobody multicasts to it any more, dropping the
    /// message silently would wedge it (and every view change waiting
    /// for its exchange) forever. Tell it where the group is; its
    /// Welcome handler turns the news into a rejoin or a catch-up.
    fn welcome_straggler(&self, from: Pid, out: &mut Vec<GmAction<U>>) {
        if self.is_member() && from != self.me {
            out.push(GmAction::Send(
                from,
                GmMsg::Welcome {
                    view: self.view.id(),
                    members: self.view.members().clone(),
                },
            ));
        }
    }

    fn start_vc(
        &mut self,
        excluded: BTreeSet<Pid>,
        joining: BTreeSet<Pid>,
        unstable: UnstableSupplier<'_, U>,
        out: &mut Vec<GmAction<U>>,
    ) {
        debug_assert!(self.vc.is_none());
        let u = unstable();
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
        out.push(GmAction::Multicast(
            self.view.others(self.me),
            GmMsg::Flush {
                view: self.view.id(),
                excluded,
                joining,
                unstable: u,
            },
        ));
        self.vc = Some(vc);
        self.check_propose(out);
    }

    fn check_propose(&mut self, out: &mut Vec<GmAction<U>>) {
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
            .filter(|&p| !vc.excluded.contains(&p) && (p == me || !self.suspects.is_suspected(p)))
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
        let mut exchanges = vc.exchanges.values();
        let mut unstable = exchanges.next().expect("own exchange present").clone();
        for u in exchanges {
            unstable.merge(u);
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
        cons_out: Vec<ConsensusAction<ViewProposal<U>>>,
        out: &mut Vec<GmAction<U>>,
    ) {
        let vid = self.view.id();
        let others = self.view.others(self.me);
        let mut decided = None;
        for a in cons_out {
            match a {
                ConsensusAction::Send(p, m) => {
                    out.push(GmAction::Send(
                        p,
                        GmMsg::Cons {
                            view: vid,
                            inner: m,
                        },
                    ));
                }
                ConsensusAction::Multicast(m) => {
                    out.push(GmAction::Multicast(
                        others.clone(),
                        GmMsg::Cons {
                            view: vid,
                            inner: m,
                        },
                    ));
                }
                ConsensusAction::Decided(p) => decided = Some(p),
            }
        }
        if let Some(proposal) = decided {
            self.install(proposal, out);
        }
    }

    fn install(&mut self, proposal: ViewProposal<U>, out: &mut Vec<GmAction<U>>) {
        let new_view = View::new(self.view.id().next(), proposal.members);

        self.universe.extend(new_view.members().iter().copied());
        let joined: BTreeSet<Pid> = new_view
            .members()
            .iter()
            .copied()
            .filter(|p| !self.view.contains(*p))
            .collect();
        self.vc = None;
        self.stale_jump_armed = false;
        if new_view.contains(self.me) {
            out.push(GmAction::Install {
                view: new_view.clone(),
                unstable: proposal.unstable,
                joined: joined.clone(),
            });
            if new_view.sequencer() == self.me {
                for &j in &joined {
                    out.push(GmAction::Send(
                        j,
                        GmMsg::Welcome {
                            view: new_view.id(),
                            members: new_view.members().clone(),
                        },
                    ));
                }
            }
            self.view = new_view;
            self.mode = Mode::Member;
            self.needs_poll = true;
        } else {
            self.mode = Mode::Excluded {
                known: new_view.clone(),
            };
            self.join_attempts = 0;
            out.push(GmAction::Excluded { view: new_view });
        }
    }
}
