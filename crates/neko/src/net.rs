//! The network layer: pluggable topology models behind a common
//! resource-scheduling interface.
//!
//! The default model is the contention-aware shared medium of Urbán,
//! Défago and Schiper (IC3N 2000), used by the paper for all its
//! results. Two kinds of resources appear in it:
//!
//! * one **CPU** resource per host, representing the network
//!   controllers and the networking stack: a message occupies the
//!   sender's CPU for `λ` time units on emission and the receiver's
//!   CPU for `λ` time units on reception;
//! * one shared **network** resource, representing the transmission
//!   medium: each message occupies it for 1 time unit, and a
//!   *multicast occupies it only once* (Ethernet-style).
//!
//! A message waits in a FIFO queue in front of each busy resource.
//! The cost of running the algorithm itself is neglected, as in the
//! paper. The paper's presented results use a time unit of 1 ms and
//! `λ = 1`.
//!
//! The CPU layer is common to all topologies; what happens *between*
//! the sending CPU and the receiving CPUs is delegated to a
//! [`NetworkModel`]:
//!
//! * [`NetworkModel::SharedMedium`] — the paper's single shared
//!   medium (the default; described above);
//! * [`NetworkModel::Switched`] — a full-duplex switch: every ordered
//!   pair of hosts has its own link with its own FIFO queue, so
//!   disjoint transfers proceed in parallel and aggregate bandwidth
//!   scales with the number of links (the Ring Paxos setting). A
//!   multicast pays per-destination unicast cost on the wire;
//! * [`NetworkModel::Wan`] — wide-area latency: each unordered pair
//!   of hosts gets a deterministic one-way latency drawn once from a
//!   seeded uniform distribution, and there is no contention at all
//!   (infinite capacity, FIFO per pair).

use std::collections::VecDeque;
use std::sync::Arc;

use crate::process::{DestSet, Message, Pid};
use crate::rng::derive_seed;
use crate::time::{Dur, Time};

/// The network occupancy per message: the model's time unit (the
/// paper's 1 ms).
const NET_DELAY: Dur = Dur::from_millis(1);

/// Parameters of the network model.
///
/// ```
/// use neko::{Dur, NetParams};
///
/// let p = NetParams::default();
/// assert_eq!(p.net_delay(), Dur::from_millis(1));
/// assert_eq!(p.cpu_delay(), Dur::from_millis(1)); // λ = 1
/// let fast_hosts = NetParams::default().with_lambda(0.1);
/// assert_eq!(fast_hosts.cpu_delay(), Dur::from_micros(100));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetParams {
    lambda: f64,
    coalesce: bool,
    model: NetworkModel,
}

impl NetParams {
    /// The paper's configuration: network time unit 1 ms, `λ = 1`,
    /// message coalescing enabled, shared-medium topology.
    pub fn new() -> Self {
        NetParams {
            lambda: 1.0,
            coalesce: true,
            model: NetworkModel::SharedMedium,
        }
    }

    /// Selects the network topology model (default:
    /// [`NetworkModel::SharedMedium`], the paper's).
    pub fn with_model(mut self, model: NetworkModel) -> Self {
        self.model = model;
        self
    }

    /// The configured topology model.
    pub fn model(&self) -> NetworkModel {
        self.model
    }

    /// Sets `λ`, the CPU cost of sending or receiving one message
    /// relative to the network time unit.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative or not finite.
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "lambda must be finite and non-negative"
        );
        self.lambda = lambda;
        self
    }

    /// Enables or disables message coalescing (see
    /// [`crate::Message::try_merge`]). Disabling it is only useful for
    /// ablation studies.
    pub fn with_coalescing(mut self, on: bool) -> Self {
        self.coalesce = on;
        self
    }

    /// The network occupancy per message.
    pub fn net_delay(&self) -> Dur {
        NET_DELAY
    }

    /// `λ` as configured.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The CPU occupancy per message emission or reception
    /// (`λ ×` [`net_delay`](Self::net_delay)).
    pub fn cpu_delay(&self) -> Dur {
        NET_DELAY.mul_f64(self.lambda)
    }

    /// Whether message coalescing is enabled.
    pub fn coalescing(&self) -> bool {
        self.coalesce
    }
}

impl Default for NetParams {
    fn default() -> Self {
        Self::new()
    }
}

/// Which topology carries messages between host CPUs.
///
/// All models share the per-host CPU layer (emission and reception
/// cost `λ`, coalescing at the send queue); they differ in what the
/// wire between the CPUs looks like.
///
/// ```
/// use neko::{Dur, NetParams, NetworkModel, WanParams};
///
/// assert_eq!(NetParams::default().model(), NetworkModel::SharedMedium);
/// let switched = NetParams::default().with_model(NetworkModel::Switched);
/// assert_eq!(switched.model(), NetworkModel::Switched);
/// let wan = NetworkModel::Wan(WanParams::new(Dur::from_millis(10), Dur::from_millis(50)));
/// assert_ne!(wan, NetworkModel::Switched);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[non_exhaustive]
pub enum NetworkModel {
    /// The paper's model: one shared Ethernet-style medium. Each
    /// message occupies it for the network time unit; a multicast
    /// occupies it **once**; messages serialize in a global FIFO.
    #[default]
    SharedMedium,
    /// A full-duplex switch: one dedicated link per ordered pair of
    /// hosts, each with its own FIFO queue and per-message occupancy
    /// of one network time unit. Disjoint transfers overlap; a
    /// multicast to `k` destinations puts `k` copies on `k` links.
    Switched,
    /// Wide-area latency regime: each unordered pair of hosts has a
    /// constant one-way latency drawn once from a seeded uniform
    /// distribution; capacity is unlimited (no queuing on the wire,
    /// FIFO per pair), so only CPUs contend.
    Wan(WanParams),
}

/// Parameters of the [`NetworkModel::Wan`] topology.
///
/// ```
/// use neko::{Dur, WanParams};
///
/// let w = WanParams::new(Dur::from_millis(10), Dur::from_millis(50));
/// assert_eq!(w, WanParams::default());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WanParams {
    min: Dur,
    max: Dur,
}

impl WanParams {
    /// Per-pair one-way latencies drawn uniformly from `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    pub fn new(min: Dur, max: Dur) -> Self {
        assert!(min <= max, "WAN latency range is empty: {min} > {max}");
        WanParams { min, max }
    }
}

impl Default for WanParams {
    /// A continental-scale default: 10–50 ms one way.
    fn default() -> Self {
        WanParams {
            min: Dur::from_millis(10),
            max: Dur::from_millis(50),
        }
    }
}

/// A payload travelling through the engine: either uniquely owned or
/// interned behind an [`Arc`].
///
/// Multicasts intern once ([`Payload::Shared`]) so the sender's CPU
/// queue, every wire copy and every destination CPU share one
/// allocation — fanning out to `k` links bumps a refcount `k` times
/// instead of deep-cloning the message. A unicast never fans out, so
/// it skips the `Arc` round-trip entirely ([`Payload::Own`]): the
/// message moves through CPU queue, wire and delivery by value, no
/// heap allocation at all.
#[derive(Clone, Debug)]
pub(crate) enum Payload<M> {
    /// Uniquely owned — the single-destination fast path.
    Own(M),
    /// Interned once; shared by every fan-out copy.
    Shared(Arc<M>),
}

impl<M: Message> Payload<M> {
    /// Borrows the message.
    pub(crate) fn get(&self) -> &M {
        match self {
            Payload::Own(m) => m,
            Payload::Shared(a) => a,
        }
    }

    /// Mutable access for coalescing. A still-shared `Arc` (e.g. with
    /// a pending local self-delivery of the same multicast) is copied
    /// on write, exactly the [`Arc::make_mut`] semantics the engine
    /// has always had; an owned payload merges in place.
    pub(crate) fn make_mut(&mut self) -> &mut M {
        match self {
            Payload::Own(m) => m,
            Payload::Shared(a) => Arc::make_mut(a),
        }
    }

    /// The message, owned — moves out when unique, clones only while
    /// sibling fan-out copies are still in flight.
    pub(crate) fn into_inner(self) -> M {
        match self {
            Payload::Own(m) => m,
            Payload::Shared(a) => Arc::try_unwrap(a).unwrap_or_else(|m| (*m).clone()),
        }
    }
}

/// A message travelling from `from` to the destination set `dests`.
#[derive(Clone, Debug)]
pub(crate) struct SendJob<M> {
    pub(crate) from: Pid,
    pub(crate) dests: DestSet,
    pub(crate) msg: Payload<M>,
}

impl<M: Message> SendJob<M> {
    /// Splits the job into one `(from, dest, payload)` copy per
    /// destination without cloning the message when the destination
    /// is unique — the fan-out primitive every topology uses.
    fn fan_out(self, mut f: impl FnMut(Pid, Pid, Payload<M>)) {
        let SendJob { from, dests, msg } = self;
        match msg {
            Payload::Own(m) => match dests.as_single() {
                Some(dest) => f(from, dest, Payload::Own(m)),
                None => {
                    // An owned payload normally rides a single-member
                    // set; intern late if a caller fanned one out.
                    let arc = Arc::new(m);
                    for dest in dests.iter() {
                        f(from, dest, Payload::Shared(Arc::clone(&arc)));
                    }
                }
            },
            Payload::Shared(arc) => {
                for dest in dests.iter() {
                    f(from, dest, Payload::Shared(Arc::clone(&arc)));
                }
            }
        }
    }
}

/// Work queued on a host CPU: either emitting or receiving a message.
#[derive(Clone, Debug)]
pub(crate) enum CpuJob<M> {
    Send(SendJob<M>),
    Recv { from: Pid, msg: Payload<M> },
}

/// One host CPU: a single server with a FIFO queue shared by
/// emissions and receptions.
#[derive(Debug)]
pub(crate) struct Cpu<M> {
    pub(crate) queue: VecDeque<CpuJob<M>>,
    pub(crate) in_service: Option<CpuJob<M>>,
}

impl<M> Cpu<M> {
    pub(crate) fn new() -> Self {
        Cpu {
            queue: VecDeque::new(),
            in_service: None,
        }
    }

    pub(crate) fn busy(&self) -> bool {
        self.in_service.is_some()
    }
}

/// Identifies one wire resource inside a topology (the shared medium,
/// a switch link, a WAN pair). Carried by `Ev::NetDone` so the kernel
/// can tell the topology *which* transmission finished.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct LinkId(pub(crate) u32);

impl LinkId {
    /// The only link of the shared-medium topology.
    pub(crate) const SHARED: LinkId = LinkId(0);
}

/// Effects a topology asks the kernel to apply, in order: first hand
/// messages to destination CPUs, then schedule wire-completion events.
/// Buffers are drained by the kernel and reused across calls.
#[derive(Debug)]
pub(crate) struct NetFx<M> {
    /// `(dest, from, msg)` triples ready for the destination CPU.
    pub(crate) deliver: Vec<(Pid, Pid, Payload<M>)>,
    /// `Ev::NetDone { link }` events to schedule.
    pub(crate) schedule: Vec<(Time, LinkId)>,
}

impl<M> Default for NetFx<M> {
    fn default() -> Self {
        NetFx {
            deliver: Vec::new(),
            schedule: Vec::new(),
        }
    }
}

/// A network topology: everything between the sending host's CPU and
/// the receiving hosts' CPUs.
///
/// The kernel calls [`submit`](Topology::submit) when a send job
/// leaves the sender's CPU and [`complete`](Topology::complete) when
/// a previously scheduled wire event fires; the topology responds by
/// filling [`NetFx`]. Implementations must be deterministic: the same
/// call sequence must produce the same effects in the same order.
pub(crate) trait Topology<M: Message> {
    /// Takes a job onto the wire (or queues it behind a busy link).
    fn submit(&mut self, now: Time, job: SendJob<M>, fx: &mut NetFx<M>, stats: &mut NetStats);

    /// The transmission tracked by `link` finished.
    fn complete(&mut self, now: Time, link: LinkId, fx: &mut NetFx<M>, stats: &mut NetStats);
}

/// Builds the topology selected by `params` for a system of `n`
/// processes. `seed` feeds models with random structure (WAN pair
/// latencies); the same seed always yields the same network.
pub(crate) fn build_topology<M: Message>(
    params: &NetParams,
    n: usize,
    seed: u64,
) -> Box<dyn Topology<M>> {
    match params.model() {
        NetworkModel::SharedMedium => Box::new(SharedMedium::new(params.net_delay())),
        NetworkModel::Switched => Box::new(Switched::new(n, params.net_delay())),
        NetworkModel::Wan(wan) => Box::new(Wan::new(n, wan, seed)),
    }
}

/// The paper's single shared medium: one server, one global FIFO.
#[derive(Debug)]
struct SharedMedium<M> {
    net_delay: Dur,
    queue: VecDeque<SendJob<M>>,
    in_service: Option<SendJob<M>>,
    /// Current backlog before the wire (in-service job + queue),
    /// maintained incrementally so highwater tracking costs O(1) per
    /// event instead of a queue measurement.
    depth: u64,
    used: bool,
}

impl<M> SharedMedium<M> {
    fn new(net_delay: Dur) -> Self {
        SharedMedium {
            net_delay,
            queue: VecDeque::new(),
            in_service: None,
            depth: 0,
            used: false,
        }
    }
}

impl<M: Message> Topology<M> for SharedMedium<M> {
    fn submit(&mut self, now: Time, job: SendJob<M>, fx: &mut NetFx<M>, stats: &mut NetStats) {
        if self.in_service.is_some() {
            self.queue.push_back(job);
        } else {
            self.in_service = Some(job);
            fx.schedule.push((now + self.net_delay, LinkId::SHARED));
        }
        // Full backlog standing before the wire: the in-service job
        // (always present here) plus everything queued behind it.
        self.depth += 1;
        stats.queue_highwater = stats.queue_highwater.max(self.depth);
    }

    fn complete(&mut self, now: Time, _link: LinkId, fx: &mut NetFx<M>, stats: &mut NetStats) {
        if !self.used {
            self.used = true;
            stats.links_used += 1;
        }
        stats.wire_messages += 1;
        stats.net_busy += self.net_delay;
        let job = self.in_service.take().expect("NetDone for an idle network");
        self.depth -= 1;
        job.fan_out(|from, dest, msg| fx.deliver.push((dest, from, msg)));
        if let Some(next) = self.queue.pop_front() {
            self.in_service = Some(next);
            fx.schedule.push((now + self.net_delay, LinkId::SHARED));
        }
    }
}

/// One unicast copy on a switch link or WAN pair. Shares the payload
/// allocation with its sibling copies (see [`SendJob`]).
#[derive(Debug)]
struct Unicast<M> {
    from: Pid,
    dest: Pid,
    msg: Payload<M>,
}

/// One full-duplex switch link: its own server, its own FIFO.
#[derive(Debug)]
struct Link<M> {
    queue: VecDeque<Unicast<M>>,
    in_service: Option<Unicast<M>>,
    /// Backlog on this link (in-service + queued), kept incrementally
    /// — see [`SharedMedium::depth`].
    depth: u64,
    used: bool,
}

impl<M> Link<M> {
    fn new() -> Self {
        Link {
            queue: VecDeque::new(),
            in_service: None,
            depth: 0,
            used: false,
        }
    }
}

/// Full-duplex point-to-point topology: `n(n−1)` independent links,
/// one per ordered pair of hosts.
#[derive(Debug)]
struct Switched<M> {
    n: u32,
    net_delay: Dur,
    links: Vec<Link<M>>,
}

impl<M> Switched<M> {
    fn new(n: usize, net_delay: Dur) -> Self {
        Switched {
            n: n as u32,
            net_delay,
            links: (0..n * n).map(|_| Link::new()).collect(),
        }
    }
}

impl<M: Message> Topology<M> for Switched<M> {
    fn submit(&mut self, now: Time, job: SendJob<M>, fx: &mut NetFx<M>, stats: &mut NetStats) {
        // A multicast becomes one unicast per destination; each copy
        // occupies only its own link, so copies to distinct hosts
        // transmit in parallel.
        let net_delay = self.net_delay;
        let n = self.n;
        job.fan_out(|from, dest, msg| {
            let id = from.index() as u32 * n + dest.index() as u32;
            let link = &mut self.links[id as usize];
            let unicast = Unicast { from, dest, msg };
            if link.in_service.is_some() {
                link.queue.push_back(unicast);
            } else {
                link.in_service = Some(unicast);
                fx.schedule.push((now + net_delay, LinkId(id)));
            }
            link.depth += 1;
            stats.queue_highwater = stats.queue_highwater.max(link.depth);
        });
    }

    fn complete(&mut self, now: Time, link: LinkId, fx: &mut NetFx<M>, stats: &mut NetStats) {
        let l = &mut self.links[link.0 as usize];
        if !l.used {
            l.used = true;
            stats.links_used += 1;
        }
        stats.wire_messages += 1;
        stats.net_busy += self.net_delay;
        let unicast = l.in_service.take().expect("NetDone for an idle link");
        l.depth -= 1;
        fx.deliver.push((unicast.dest, unicast.from, unicast.msg));
        if let Some(next) = l.queue.pop_front() {
            l.in_service = Some(next);
            fx.schedule.push((now + self.net_delay, link));
        }
    }
}

/// WAN topology: constant per-pair latency, unlimited capacity.
#[derive(Debug)]
struct Wan<M> {
    n: u32,
    /// One-way latency per ordered pair (symmetric), drawn once.
    latency: Vec<Dur>,
    /// Messages in flight per ordered pair. Latency per pair is
    /// constant, so arrival order equals send order: a FIFO suffices.
    in_flight: Vec<VecDeque<Unicast<M>>>,
    used: Vec<bool>,
}

impl<M> Wan<M> {
    fn new(n: usize, params: WanParams, seed: u64) -> Self {
        let mut latency = vec![Dur::ZERO; n * n];
        Self::fill_latencies(&mut latency, n, params, seed);
        Wan {
            n: n as u32,
            latency,
            in_flight: (0..n * n).map(|_| VecDeque::new()).collect(),
            used: vec![false; n * n],
        }
    }

    fn fill_latencies(latency: &mut [Dur], n: usize, params: WanParams, seed: u64) {
        let span = params.max.as_micros() - params.min.as_micros();
        for i in 0..n {
            for j in (i + 1)..n {
                // Symmetric one-way latency, deterministic in the seed.
                let stream = 0x77A4_0000 + (i * n + j) as u64;
                let jitter = if span == 0 {
                    0
                } else {
                    derive_seed(seed, stream) % (span + 1)
                };
                let lat = params.min + Dur::from_micros(jitter);
                latency[i * n + j] = lat;
                latency[j * n + i] = lat;
            }
        }
    }
}

impl<M: Message> Topology<M> for Wan<M> {
    fn submit(&mut self, now: Time, job: SendJob<M>, fx: &mut NetFx<M>, _stats: &mut NetStats) {
        let n = self.n;
        job.fan_out(|from, dest, msg| {
            let id = from.index() as u32 * n + dest.index() as u32;
            let lat = self.latency[id as usize];
            self.in_flight[id as usize].push_back(Unicast { from, dest, msg });
            fx.schedule.push((now + lat, LinkId(id)));
        });
    }

    fn complete(&mut self, _now: Time, link: LinkId, fx: &mut NetFx<M>, stats: &mut NetStats) {
        if !self.used[link.0 as usize] {
            self.used[link.0 as usize] = true;
            stats.links_used += 1;
        }
        stats.wire_messages += 1;
        // No occupancy: the WAN has unlimited capacity, so `net_busy`
        // (time wire resources were *contended*) stays untouched.
        let unicast = self.in_flight[link.0 as usize]
            .pop_front()
            .expect("NetDone for an empty WAN pair");
        fx.deliver.push((unicast.dest, unicast.from, unicast.msg));
    }
}

/// Counters describing what the network model did during a run.
///
/// `wire_messages` counts transmissions completed on the wire — under
/// [`NetworkModel::SharedMedium`] a multicast counts **once**; under
/// [`NetworkModel::Switched`] and [`NetworkModel::Wan`] it counts once
/// **per destination**. `deliveries` counts hand-offs to
/// [`crate::Process::on_message`] (a multicast to `k` live remote
/// destinations counts `k` times) under every model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct NetStats {
    /// Application-level `send`/`multicast`/`broadcast` calls.
    pub send_calls: u64,
    /// Messages that completed transmission on the shared network.
    pub wire_messages: u64,
    /// Messages delivered to processes (including self-deliveries).
    pub deliveries: u64,
    /// Local copies delivered without using CPU or network.
    pub self_deliveries: u64,
    /// Messages absorbed into a queued message by coalescing.
    pub merges: u64,
    /// Messages dropped because their destination had crashed.
    pub dropped_to_crashed: u64,
    /// Unicast copies dropped at the sending CPU because a network
    /// partition separated sender and destination.
    pub dropped_partitioned: u64,
    /// Total time wire resources were busy, summed over links
    /// (zero under [`NetworkModel::Wan`], which has no contention).
    pub net_busy: Dur,
    /// Total CPU busy time summed over all hosts.
    pub cpu_busy: Dur,
    /// Highwater mark of the backlog standing before any single wire
    /// link: the message in transmission plus everything queued
    /// behind it. A link that carried traffic but never double-queued
    /// reports `1`, so shared-medium and switched runs are directly
    /// comparable. Two carve-outs report `0`: [`NetworkModel::Wan`]
    /// (unlimited capacity, never queues) and the real-time backend
    /// ([`crate::RealRuntime`], which has no modelled wire to queue
    /// on).
    pub queue_highwater: u64,
    /// Distinct wire links that carried at least one message.
    pub links_used: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_defaults_match_paper() {
        let p = NetParams::default();
        assert_eq!(p.net_delay(), Dur::from_millis(1));
        assert_eq!(p.lambda(), 1.0);
        assert_eq!(p.cpu_delay(), Dur::from_millis(1));
        assert!(p.coalescing());
    }

    #[test]
    fn lambda_scales_cpu_delay() {
        let p = NetParams::default().with_lambda(2.5);
        assert_eq!(p.cpu_delay(), Dur::from_micros(2_500));
        let p0 = NetParams::default().with_lambda(0.0);
        assert_eq!(p0.cpu_delay(), Dur::ZERO);
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn negative_lambda_panics() {
        let _ = NetParams::default().with_lambda(-1.0);
    }

    #[test]
    fn resources_start_idle() {
        let cpu: Cpu<u64> = Cpu::new();
        assert!(!cpu.busy());
    }

    #[test]
    fn default_model_is_shared_medium() {
        assert_eq!(NetParams::default().model(), NetworkModel::SharedMedium);
        assert_eq!(NetworkModel::default(), NetworkModel::SharedMedium);
    }

    #[test]
    #[should_panic(expected = "latency range is empty")]
    fn inverted_wan_range_panics() {
        let _ = WanParams::new(Dur::from_millis(5), Dur::from_millis(4));
    }

    fn job(from: usize, dests: &[usize], msg: u64) -> SendJob<u64> {
        let mut set = DestSet::default();
        for &d in dests {
            set.insert(Pid::new(d));
        }
        // Mirror the kernel: unicasts ride owned, multicasts interned.
        let msg = if dests.len() == 1 {
            Payload::Own(msg)
        } else {
            Payload::Shared(Arc::new(msg))
        };
        SendJob {
            from: Pid::new(from),
            dests: set,
            msg,
        }
    }

    #[test]
    fn shared_medium_serializes_and_multicasts_once() {
        let mut m: SharedMedium<u64> = SharedMedium::new(Dur::from_millis(1));
        let mut fx = NetFx::default();
        let mut stats = NetStats::default();
        m.submit(Time::ZERO, job(0, &[1, 2], 7), &mut fx, &mut stats);
        m.submit(Time::ZERO, job(1, &[2], 8), &mut fx, &mut stats);
        // Only the first job starts; the second queues behind it —
        // backlog 2 (one in service + one queued).
        assert_eq!(fx.schedule, vec![(Time::from_millis(1), LinkId::SHARED)]);
        assert_eq!(stats.queue_highwater, 2);
        fx.schedule.clear();
        m.complete(Time::from_millis(1), LinkId::SHARED, &mut fx, &mut stats);
        // The multicast crossed the wire once but delivers twice, and
        // the queued job starts.
        assert_eq!(stats.wire_messages, 1);
        assert_eq!(fx.deliver.len(), 2);
        assert_eq!(fx.schedule, vec![(Time::from_millis(2), LinkId::SHARED)]);
        assert_eq!(stats.links_used, 1);
    }

    #[test]
    fn switched_gives_each_pair_its_own_link() {
        let mut m: Switched<u64> = Switched::new(3, Dur::from_millis(1));
        let mut fx = NetFx::default();
        let mut stats = NetStats::default();
        // Two disjoint unicasts start simultaneously on distinct links.
        m.submit(Time::ZERO, job(0, &[1], 1), &mut fx, &mut stats);
        m.submit(Time::ZERO, job(2, &[1], 2), &mut fx, &mut stats);
        assert_eq!(fx.schedule.len(), 2);
        assert_ne!(fx.schedule[0].1, fx.schedule[1].1);
        assert_eq!(fx.schedule[0].0, fx.schedule[1].0);
        // A multicast fans out to one copy per destination.
        fx.schedule.clear();
        m.submit(Time::ZERO, job(0, &[1, 2], 3), &mut fx, &mut stats);
        assert_eq!(fx.schedule.len(), 1); // 0→1 busy (queued), 0→2 starts
        assert_eq!(stats.queue_highwater, 2); // 0→1: in service + 1 queued
    }

    #[test]
    fn queue_highwater_counts_the_in_service_job() {
        // A network that never double-queues still carried traffic:
        // the in-service message counts, so the highwater is 1, not 0
        // — shared-medium and switched values stay comparable.
        let mut shared: SharedMedium<u64> = SharedMedium::new(Dur::from_millis(1));
        let mut fx = NetFx::default();
        let mut stats = NetStats::default();
        shared.submit(Time::ZERO, job(0, &[1], 7), &mut fx, &mut stats);
        assert_eq!(stats.queue_highwater, 1);

        let mut switched: Switched<u64> = Switched::new(3, Dur::from_millis(1));
        let mut stats = NetStats::default();
        switched.submit(Time::ZERO, job(0, &[1], 7), &mut fx, &mut stats);
        switched.submit(Time::ZERO, job(1, &[2], 8), &mut fx, &mut stats);
        assert_eq!(stats.queue_highwater, 1, "disjoint links never stack");
    }

    #[test]
    fn wan_latencies_are_symmetric_seeded_and_in_range() {
        let params = WanParams::new(Dur::from_millis(10), Dur::from_millis(50));
        let a: Wan<u64> = Wan::new(4, params, 42);
        let b: Wan<u64> = Wan::new(4, params, 42);
        let c: Wan<u64> = Wan::new(4, params, 43);
        assert_eq!(a.latency, b.latency);
        assert_ne!(a.latency, c.latency);
        for i in 0..4 {
            for j in 0..4 {
                if i == j {
                    continue;
                }
                let lat = a.latency[i * 4 + j];
                assert_eq!(lat, a.latency[j * 4 + i], "asymmetric pair ({i},{j})");
                assert!(lat >= Dur::from_millis(10) && lat <= Dur::from_millis(50));
            }
        }
    }

    #[test]
    fn wan_has_no_contention() {
        let params = WanParams::new(Dur::from_millis(20), Dur::from_millis(20));
        let mut m: Wan<u64> = Wan::new(2, params, 1);
        let mut fx = NetFx::default();
        let mut stats = NetStats::default();
        // Three back-to-back sends on the same pair all fly at once.
        for v in 0..3 {
            m.submit(Time::ZERO, job(0, &[1], v), &mut fx, &mut stats);
        }
        assert_eq!(fx.schedule.len(), 3);
        assert!(fx.schedule.iter().all(|(t, _)| *t == Time::from_millis(20)));
        let link = fx.schedule[0].1;
        for _ in 0..3 {
            m.complete(Time::from_millis(20), link, &mut fx, &mut stats);
        }
        // FIFO per pair: values arrive in send order.
        let values: Vec<u64> = fx.deliver.iter().map(|(_, _, v)| *v.get()).collect();
        assert_eq!(values, vec![0, 1, 2]);
        assert_eq!(stats.net_busy, Dur::ZERO);
        assert_eq!(stats.queue_highwater, 0);
        assert_eq!(stats.links_used, 1);
    }
}
