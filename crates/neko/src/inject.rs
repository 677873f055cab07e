//! Driver-side fault injection: the unified event vocabulary that
//! fault scripts compile down to.
//!
//! A simulation driver perturbs a run by scheduling [`Injection`]s
//! (via [`crate::Sim::schedule_injection`] or, for whole timelines,
//! [`crate::Sim::schedule_plan`]). Next to the original crash and
//! failure-detector events the kernel also supports *recovery*
//! (crash-recovery model: the process resumes with its pre-crash
//! state, as if from perfect stable storage) and *network partitions*
//! (messages crossing partition boundaries are dropped when they
//! leave the sending host's CPU; messages already on the wire still
//! arrive).

use crate::process::{DestSet, FdEvent, Pid};

/// One kernel-level fault injection.
#[derive(Clone, Debug, PartialEq)]
pub enum Injection {
    /// Process `Pid` crashes (software crash: messages already handed
    /// to its CPU are still sent).
    Crash(Pid),
    /// A crashed process resumes with its pre-crash state. Messages
    /// addressed to it while it was down are lost; recovering a
    /// process that never crashed is a no-op.
    Recover(Pid),
    /// A failure-detector edge delivered to the detector of `.0`
    /// about `.1`'s subject. Redundant edges are dropped, as with
    /// [`crate::Sim::schedule_fd_event`].
    Fd(Pid, FdEvent),
    /// The network splits into the given groups; replaces any
    /// partition currently in force.
    Partition(Partition),
    /// The network heals: all links work again.
    Heal,
}

/// A network partition: a set of disjoint process groups. Messages
/// between two processes flow only if some group contains both;
/// processes not listed in any group are isolated (they can only talk
/// to themselves).
///
/// ```
/// use neko::{Partition, Pid};
///
/// let p = Partition::split(&[
///     vec![Pid::new(0), Pid::new(1)],
///     vec![Pid::new(2)],
/// ]);
/// assert!(p.allows(Pid::new(0), Pid::new(1)));
/// assert!(!p.allows(Pid::new(1), Pid::new(2)));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// One member set per group.
    masks: Vec<DestSet>,
}

impl Partition {
    /// A partition with the given groups.
    ///
    /// # Panics
    ///
    /// Panics if the groups are not disjoint.
    pub fn split(groups: &[Vec<Pid>]) -> Self {
        let mut masks = Vec::with_capacity(groups.len());
        let mut seen = DestSet::new();
        for group in groups {
            let mut mask = DestSet::new();
            for &p in group {
                assert!(!seen.contains(p), "{p} appears in two partition groups");
                seen.insert(p);
                mask.insert(p);
            }
            masks.push(mask);
        }
        Partition { masks }
    }

    /// Whether a message from `a` may reach `b` under this partition.
    pub fn allows(&self, a: Pid, b: Pid) -> bool {
        if a == b {
            return true;
        }
        self.masks.iter().any(|m| m.contains(a) && m.contains(b))
    }

    /// The member groups, as sets over process indices.
    pub fn group_masks(&self) -> &[DestSet] {
        &self.masks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_groups_partition_reachability() {
        let p = Partition::split(&[
            vec![Pid::new(0), Pid::new(1)],
            vec![Pid::new(2), Pid::new(3)],
        ]);
        assert!(p.allows(Pid::new(0), Pid::new(1)));
        assert!(p.allows(Pid::new(3), Pid::new(2)));
        assert!(!p.allows(Pid::new(0), Pid::new(2)));
        assert!(!p.allows(Pid::new(3), Pid::new(1)));
    }

    #[test]
    fn unlisted_processes_are_isolated_but_reach_themselves() {
        let p = Partition::split(&[vec![Pid::new(0), Pid::new(1)]]);
        assert!(!p.allows(Pid::new(2), Pid::new(0)));
        assert!(!p.allows(Pid::new(0), Pid::new(2)));
        assert!(p.allows(Pid::new(2), Pid::new(2)));
    }

    #[test]
    #[should_panic(expected = "appears in two partition groups")]
    fn overlapping_groups_panic() {
        let _ = Partition::split(&[vec![Pid::new(0)], vec![Pid::new(0), Pid::new(1)]]);
    }
}
