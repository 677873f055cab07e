//! Ring membership as a pure function of the failure detector.
//!
//! The ring is the payload-repair overlay: the f+1 = ⌊n/2⌋+1
//! processes a [`crate::RingMsg::Fetch`] walks, unicast hop by
//! unicast hop, until a holder of the missing payload is found. It is
//! never negotiated — every process derives it locally from `(n,
//! first, suspects)`, so reconfiguration is exactly as fast (and as
//! fallible) as the failure detector driving it, and two processes
//! with the same FD output agree on the ring without a message.

use fdet::SuspectSet;
use neko::Pid;

/// Number of ring members for a group of `n`: a majority, f+1.
pub fn ring_size(n: usize) -> usize {
    n / 2 + 1
}

/// The current ring: the first f+1 processes in rotation order
/// starting at `first`, preferring unsuspected ones — a suspected
/// acceptor is rotated out and the next trusted process in rotation
/// order takes its slot. When fewer than f+1 processes are trusted
/// (FD mistakes), suspected ones fill the remaining slots so the ring
/// always has f+1 members. The result is ordered by rotation
/// position, so walking it is walking "around the ring".
pub fn ring_members(n: usize, first: Pid, suspects: &SuspectSet) -> Vec<Pid> {
    let size = ring_size(n).min(n);
    let rotation: Vec<Pid> = (0..n).map(|i| Pid::new((first.index() + i) % n)).collect();
    let mut members: Vec<Pid> = rotation
        .iter()
        .copied()
        .filter(|&p| !suspects.contains(p))
        .take(size)
        .collect();
    if members.len() < size {
        for &p in &rotation {
            if members.len() == size {
                break;
            }
            if !members.contains(&p) {
                members.push(p);
            }
        }
    }
    // Canonical order: rotation position, regardless of which slots
    // were filled by the suspected-member fallback.
    members.sort_by_key(|p| (n + p.index() - first.index()) % n);
    members
}

/// `me`'s successor on the current ring — the next member in rotation
/// order, wrapping. A process outside the ring enters at the ring's
/// head. `None` when the ring holds no process other than `me`.
pub fn ring_successor(me: Pid, n: usize, first: Pid, suspects: &SuspectSet) -> Option<Pid> {
    let members = ring_members(n, first, suspects);
    match members.iter().position(|&p| p == me) {
        Some(i) => {
            let succ = members[(i + 1) % members.len()];
            (succ != me).then_some(succ)
        }
        None => members.first().copied().filter(|&p| p != me),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neko::FdEvent;

    #[test]
    fn trusted_prefix_in_rotation_order() {
        let s = SuspectSet::new();
        assert_eq!(
            ring_members(5, Pid::new(0), &s),
            vec![Pid::new(0), Pid::new(1), Pid::new(2)]
        );
        assert_eq!(
            ring_members(5, Pid::new(3), &s),
            vec![Pid::new(3), Pid::new(4), Pid::new(0)]
        );
    }

    #[test]
    fn suspected_member_is_rotated_out() {
        let mut s = SuspectSet::new();
        s.apply(FdEvent::Suspect(Pid::new(1)));
        assert_eq!(
            ring_members(5, Pid::new(0), &s),
            vec![Pid::new(0), Pid::new(2), Pid::new(3)]
        );
    }

    #[test]
    fn suspects_fill_slots_when_trust_runs_out() {
        let mut s = SuspectSet::new();
        for i in 1..5 {
            s.apply(FdEvent::Suspect(Pid::new(i)));
        }
        // Only p1 is trusted; the ring still has f+1 = 3 members,
        // completed in rotation order.
        assert_eq!(
            ring_members(5, Pid::new(0), &s),
            vec![Pid::new(0), Pid::new(1), Pid::new(2)]
        );
    }

    #[test]
    fn successor_wraps_and_skips_suspects() {
        let mut s = SuspectSet::new();
        s.apply(FdEvent::Suspect(Pid::new(1)));
        // Ring of 5 from p1: {p1, p3, p4}.
        assert_eq!(
            ring_successor(Pid::new(0), 5, Pid::new(0), &s),
            Some(Pid::new(2))
        );
        assert_eq!(
            ring_successor(Pid::new(3), 5, Pid::new(0), &s),
            Some(Pid::new(0))
        );
        // A non-member enters at the head.
        assert_eq!(
            ring_successor(Pid::new(4), 5, Pid::new(0), &s),
            Some(Pid::new(0))
        );
    }

    #[test]
    fn a_group_of_one_has_no_successor() {
        let s = SuspectSet::new();
        assert_eq!(ring_successor(Pid::new(0), 1, Pid::new(0), &s), None);
    }
}
