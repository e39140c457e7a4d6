//! Message-level data-center network simulation.
//!
//! A flat L2/L3 fabric: every registered node has a NIC with a serialization
//! rate, and every pair of nodes is connected with a base propagation
//! latency plus jitter. Failure injection covers node crashes, link
//! partitions and random message loss — enough to exercise the UStore
//! stack's heartbeating, failover and retry behaviour. Every message's
//! jitter and loss are keyed by (run seed, `from`, `to`, its number in the
//! flow), so no message moves another flow's latencies; the destination's
//! liveness is judged at arrival, wherever it lives.

use std::any::Any;
use std::cell::RefCell;

use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use ustore_sim::faultgen::mix_seed;
use ustore_sim::{
    FastMap, FastSet, LookaheadMatrix, Routed, Sim, SimTime, TraceLevel, TrafficMatrix,
};

use crate::stream::Tallies;

/// A network address (host name). Cheap to clone and safe to move across
/// shard threads.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Addr(Arc<str>);

impl Addr {
    /// Creates an address from a name.
    pub fn new(name: impl AsRef<str>) -> Self {
        Addr(Arc::from(name.as_ref()))
    }

    /// The address as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Addr {
    fn from(s: &str) -> Self {
        Addr::new(s)
    }
}

/// A message payload: typed, reference-counted, and `Send + Sync` so
/// envelopes can cross shard boundaries. Receivers downcast to the
/// expected type.
pub type Payload = Arc<dyn Any + Send + Sync>;

/// A delivered message.
#[derive(Clone)]
pub struct Envelope {
    /// Sender address.
    pub from: Addr,
    /// Destination address.
    pub to: Addr,
    /// Wire size used for serialization-delay accounting.
    pub bytes: u64,
    /// The typed payload; receivers downcast to the expected type.
    pub payload: Payload,
}

impl fmt::Debug for Envelope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Envelope")
            .field("from", &self.from)
            .field("to", &self.to)
            .field("bytes", &self.bytes)
            .finish()
    }
}

/// Network-wide configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// One-way propagation latency between any two nodes.
    pub base_latency: Duration,
    /// Uniform extra latency in `[0, jitter]`.
    pub jitter: Duration,
    /// NIC serialization rate, bytes/s (default 10 GbE).
    pub nic_rate: f64,
    /// Probability an individual message is silently lost.
    pub loss_probability: f64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            base_latency: Duration::from_micros(100),
            jitter: Duration::from_micros(20),
            nic_rate: 1.25e9,
            loss_probability: 0.0,
        }
    }
}

struct Node {
    handler: Option<Rc<dyn Fn(&Sim, Envelope)>>,
    nic_busy: SimTime,
    up: bool,
    /// Per destination: the key of the node's ordinary messages to it and
    /// how many it has sent.
    flows: FastMap<Addr, (u64, u64)>,
}

/// The timing of one keyed flow: every message `n` of the flow
/// `from → to` takes base latency + serialization + a jitter drawn from a
/// stream keyed by `(run seed, from, to, n)`. A stream's messages never
/// queue on the sender's NIC, so their latency is a pure function that
/// the sender and the receiver can both evaluate, in any world, without
/// simulating the message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyedFlow {
    key: u64,
    fixed: Duration,
    jitter_ns: f64,
}

impl KeyedFlow {
    /// Latency of message `n`.
    pub fn latency(&self, n: u64) -> Duration {
        let u = unit(mix_seed(self.key, n));
        self.fixed + Duration::from_nanos((self.jitter_ns * u) as u64)
    }

    /// An upper bound on [`KeyedFlow::latency`].
    pub fn max_latency(&self) -> Duration {
        self.fixed + self.jitter_span()
    }

    /// An upper bound on how far two latencies of the flow differ.
    pub fn jitter_span(&self) -> Duration {
        Duration::from_nanos(self.jitter_ns as u64)
    }
}

/// A change to the network's drop rules, announced to
/// [`Network::on_rule_change`] hooks just *before* it takes effect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleChange {
    /// The node goes down.
    Down(Addr),
    /// The node comes back up.
    Up(Addr),
    /// The directed link `from -> to` is blocked.
    Block(Addr, Addr),
    /// Every link block is removed.
    Heal,
}

impl RuleChange {
    /// Whether the change can alter what the sender-side rules (see
    /// [`Network::path_clear`]) drop of `from -> to`.
    pub fn touches(&self, from: &Addr, to: &Addr) -> bool {
        match self {
            RuleChange::Down(a) | RuleChange::Up(a) => a == from,
            RuleChange::Block(f, t) => f == from && t == to,
            RuleChange::Heal => true,
        }
    }
}

/// An out-of-band notice between two components' models (see
/// [`Network::notify`]): routed like a message, counted nowhere, and
/// never dropped.
struct Notice(Payload);

type NoticeHandler = Rc<dyn Fn(&Sim, Payload)>;
type RuleHook = Rc<dyn Fn(&Sim, &RuleChange)>;

/// Shard-routing state: when a `Network` is one world of a sharded
/// simulation, sends whose destination lives in another world are
/// buffered here instead of being scheduled locally.
struct Routing {
    /// This network's world id.
    world: usize,
    /// Static address → world-id placement map, shared by every world.
    placement: Arc<FastMap<Addr, usize>>,
    /// Cross-world sends buffered since the last drain, in send order.
    outbox: Vec<Routed<Envelope>>,
    /// Monotone per-world sequence for the canonical merge.
    seq: u64,
    /// Optional wall-clock profiler hook: every cross-world send is
    /// recorded as `(src_world, dst_world, slack)` where slack is
    /// `deliver_at − send_time − base_latency` — the margin by which the
    /// message clears the conservative lookahead bound.
    traffic: Option<Arc<TrafficMatrix>>,
    /// Per-world-pair lookahead matrix shared with the shard
    /// coordinator. Every cross-world send is checked against it: the
    /// pair must be reachable (hard assert — an unreachable pair means
    /// the matrix mis-modeled the topology and the conservative bounds
    /// are unsound) and the delivery latency must clear the pair's
    /// minimum (debug assert).
    lookahead: Arc<LookaheadMatrix>,
}

struct Inner {
    config: NetConfig,
    /// The run seed every keyed draw starts from.
    seed: u64,
    nodes: FastMap<Addr, Node>,
    blocked: FastSet<(Addr, Addr)>,
    routing: Option<Routing>,
    sent: u64,
    delivered: u64,
    dropped: u64,
    /// Notice handlers by destination address.
    notice_handlers: FastMap<Addr, NoticeHandler>,
    /// Hooks told about every drop-rule change before it applies.
    rule_hooks: Vec<RuleHook>,
    /// The halves of computed streams, counted in closed form.
    tallies: Tallies,
    /// Endpoint teardown hooks, run once by [`Network::teardown`].
    /// Endpoints whose handler tables cycle back to their owning
    /// components (see [`Network::on_teardown`]) register breakers here.
    teardown_hooks: Vec<Box<dyn FnOnce()>>,
}

/// Handle to the shared network fabric.
///
/// # Examples
///
/// ```
/// use ustore_sim::Sim;
/// use ustore_net::{Addr, NetConfig, Network};
///
/// let sim = Sim::new(1);
/// let net = Network::new(NetConfig::default(), sim.seed());
/// let a = Addr::new("a");
/// let b = Addr::new("b");
/// net.register(&a);
/// net.register(&b);
/// net.bind(&b, |_, env| {
///     let msg: &String = env.payload.downcast_ref().expect("typed payload");
///     assert_eq!(msg, "hello");
/// });
/// net.send(&sim, &a, &b, 64, std::sync::Arc::new("hello".to_string()));
/// sim.run();
/// ```
#[derive(Clone)]
pub struct Network {
    inner: Rc<RefCell<Inner>>,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let i = self.inner.borrow();
        f.debug_struct("Network")
            .field("nodes", &i.nodes.len())
            .field("sent", &i.sent)
            .field("delivered", &i.delivered)
            .finish()
    }
}

impl Network {
    /// Creates an empty network whose keyed draws start from the run
    /// seed `seed` (the scenario's seed, in every world of a sharded run).
    pub fn new(config: NetConfig, seed: u64) -> Self {
        Network {
            inner: Rc::new(RefCell::new(Inner {
                config,
                seed,
                nodes: FastMap::default(),
                blocked: FastSet::default(),
                routing: None,
                sent: 0,
                delivered: 0,
                dropped: 0,
                notice_handlers: FastMap::default(),
                rule_hooks: Vec::new(),
                tallies: Tallies::default(),
                teardown_hooks: Vec::new(),
            })),
        }
    }

    /// Registers a node (idempotent). Nodes start up.
    pub fn register(&self, addr: &Addr) {
        self.inner
            .borrow_mut()
            .nodes
            .entry(addr.clone())
            .or_insert(Node {
                handler: None,
                nic_busy: SimTime::ZERO,
                up: true,
                flows: FastMap::default(),
            });
    }

    /// Installs the receive handler for `addr` (replacing any previous).
    ///
    /// # Panics
    ///
    /// Panics if `addr` was never registered.
    pub fn bind(&self, addr: &Addr, handler: impl Fn(&Sim, Envelope) + 'static) {
        let mut i = self.inner.borrow_mut();
        let node = i.nodes.get_mut(addr).expect("bind: node not registered");
        node.handler = Some(Rc::new(handler));
    }

    /// Sends a message. Delivery is asynchronous; lost/blocked messages
    /// vanish silently (like UDP — reliability belongs to the RPC layer).
    pub fn send(&self, sim: &Sim, from: &Addr, to: &Addr, bytes: u64, payload: Payload) {
        self.send_keyed(sim, from, to, bytes, payload, None);
    }

    /// The keyed flow `from → to` for messages of `bytes` on the wire.
    pub fn keyed_flow(&self, from: &Addr, to: &Addr, bytes: u64) -> KeyedFlow {
        let i = self.inner.borrow();
        flow(&i.config, flow_key(i.seed, from, to), bytes)
    }

    /// The root of every draw this run keys by `addr`: the run seed mixed
    /// with the address.
    pub fn key_of(&self, addr: &Addr) -> u64 {
        mix_seed(self.inner.borrow().seed, addr_hash(addr))
    }

    /// Whether a message `from -> to` sent now passes every sender-side
    /// drop rule: `from` is up, the link is not blocked, and the network
    /// loses nothing. (The destination's liveness is judged where it
    /// lives.)
    pub fn path_clear(&self, from: &Addr, to: &Addr) -> bool {
        let i = self.inner.borrow();
        i.config.loss_probability == 0.0
            && i.nodes.get(from).is_some_and(|n| n.up)
            && !i.blocked.contains(&(from.clone(), to.clone()))
    }

    /// Whether `addr` is a registered node that is up.
    pub fn is_up(&self, addr: &Addr) -> bool {
        self.inner.borrow().nodes.get(addr).is_some_and(|n| n.up)
    }

    /// Runs `f` on this network's computed-stream tallies (see
    /// [`crate::stream`]) with what they count into ([`Count`]).
    pub(crate) fn tallies<R>(&self, f: impl FnOnce(&mut Tallies, &mut Count) -> R) -> R {
        let mut guard = self.inner.borrow_mut();
        let i = &mut *guard;
        let (nodes, sent, delivered, dropped) =
            (&i.nodes, &mut i.sent, &mut i.delivered, &mut i.dropped);
        f(&mut i.tallies, &mut |to, n| {
            let up = to.is_none_or(|a| nodes.get(a).is_some_and(|n| n.up));
            *match (to, up) {
                (None, _) => &mut *sent,
                (_, true) => &mut *delivered,
                _ => &mut *dropped,
            } += n;
            up
        })
    }

    /// Installs the notice handler for `addr` (replacing any previous).
    pub fn bind_notices(&self, addr: &Addr, handler: impl Fn(&Sim, Payload) + 'static) {
        self.inner
            .borrow_mut()
            .notice_handlers
            .insert(addr.clone(), Rc::new(handler));
    }

    /// Sends an out-of-band notice from `from`'s model to `to`'s: it
    /// arrives exactly one base latency from now (the smallest latency
    /// any message has, so it is never behind a message sent after it),
    /// crosses worlds like a message, and is handed to `to`'s notice
    /// handler whatever the drop rules say. It counts in no counter. A
    /// notice keeps a computed model in step with the simulated one; it
    /// is not traffic.
    pub(crate) fn notify(&self, sim: &Sim, from: &Addr, to: &Addr, payload: Payload) {
        let env = Envelope {
            from: from.clone(),
            to: to.clone(),
            bytes: 0,
            payload: Arc::new(Notice(payload)),
        };
        let at = sim.now() + self.inner.borrow().config.base_latency;
        self.route(sim, at, env);
    }

    /// Registers a hook told about every drop-rule change (node up/down,
    /// link block, heal) just before it takes effect.
    pub fn on_rule_change(&self, hook: impl Fn(&Sim, &RuleChange) + 'static) {
        self.inner.borrow_mut().rule_hooks.push(Rc::new(hook));
    }

    fn rule_change(&self, sim: &Sim, change: RuleChange) {
        // Computed arrivals so far count under the rule they arrived under.
        if let RuleChange::Down(a) | RuleChange::Up(a) = &change {
            self.tallies(|ts, c| ts.count_node(a, sim.now(), c));
        }
        let hooks = self.inner.borrow().rule_hooks.clone();
        for hook in hooks {
            hook(sim, &change);
        }
    }

    /// Sends a message as [`Network::send`] does, or, when `keyed` is
    /// `Some((flow, n))`, as message `n` of the stream `flow` (see
    /// [`KeyedFlow`]): numbered by the caller, not by the network, and
    /// off the sender's NIC, so its latency is exactly `flow.latency(n)`.
    pub(crate) fn send_keyed(
        &self,
        sim: &Sim,
        from: &Addr,
        to: &Addr,
        bytes: u64,
        payload: Payload,
        keyed: Option<(&KeyedFlow, u64)>,
    ) {
        let at = {
            let mut guard = self.inner.borrow_mut();
            let i = &mut *guard;
            i.sent += 1;
            // No partitions installed (the common case) skips the tuple
            // hash entirely.
            let blocked = !i.blocked.is_empty() && i.blocked.contains(&(from.clone(), to.clone()));
            let (c, seed, now) = (&i.config, i.seed, sim.now());
            let at = i.nodes.get_mut(from).and_then(|sender| {
                let (flow, n) = match keyed {
                    Some((flow, n)) => (*flow, n),
                    None => {
                        // Ordinary messages draw apart from the flow's
                        // streams, which number their own.
                        let f = sender
                            .flows
                            .entry(to.clone())
                            .or_insert_with(|| (mix_seed(flow_key(seed, from, to), u64::MAX), 0));
                        f.1 += 1;
                        (flow(c, f.0, bytes), f.1)
                    }
                };
                let loss = c.loss_probability;
                if !sender.up || blocked || unit(mix_seed(mix_seed(flow.key, n), 0)) < loss {
                    return None;
                }
                let mut start = now;
                if keyed.is_none() {
                    start = now.max(sender.nic_busy);
                    // Serialization occupies the NIC.
                    sender.nic_busy = start + (flow.fixed - c.base_latency);
                }
                Some(start + flow.latency(n))
            });
            i.dropped += u64::from(at.is_none());
            at
        };
        if let Some(at) = at {
            let env = Envelope {
                from: from.clone(),
                to: to.clone(),
                bytes,
                payload,
            };
            self.route(sim, at, env);
        }
    }

    /// Delivers `env` at `at`: scheduled here, or buffered into the outbox
    /// when its destination lives in another world.
    fn route(&self, sim: &Sim, at: SimTime, env: Envelope) {
        let mut i = self.inner.borrow_mut();
        let base_latency = i.config.base_latency;
        let remote = i.routing.as_mut().and_then(|r| {
            let dst = r.placement.get(&env.to).copied()?;
            (dst != r.world).then_some((r, dst))
        });
        let Some((r, dst_world)) = remote else {
            drop(i);
            return self.schedule_delivery(sim, at, env);
        };
        let m = &r.lookahead;
        assert!(
            m.reachable(r.world, dst_world),
            "cross-world send {} -> {} but the lookahead matrix says the pair \
             cannot talk (conservative bounds would be unsound)",
            r.world,
            dst_world
        );
        debug_assert!(
            at.duration_since(sim.now()).as_nanos() >= u128::from(m.get_ns(r.world, dst_world)),
            "cross-world delivery latency undercuts the lookahead matrix"
        );
        if let Some(m) = &r.traffic {
            let slack = at
                .duration_since(sim.now())
                .saturating_sub(base_latency)
                .as_nanos()
                .min(u128::from(u64::MAX)) as u64;
            m.record(r.world, dst_world, slack);
        }
        let seq = r.seq;
        r.seq += 1;
        r.outbox.push(Routed {
            deliver_at: at,
            src_world: r.world,
            dst_world,
            seq,
            msg: env,
        });
    }

    /// Schedules the destination-side half of a delivery: liveness and
    /// handler checks plus the delivered/dropped accounting happen at the
    /// delivery instant.
    fn schedule_delivery(&self, sim: &Sim, at: SimTime, env: Envelope) {
        let this = self.clone();
        sim.schedule_at(at, move |sim| {
            if let Some(notice) = env.payload.downcast_ref::<Notice>() {
                let handler = this.inner.borrow().notice_handlers.get(&env.to).cloned();
                if let Some(h) = handler {
                    h(sim, Arc::clone(&notice.0));
                }
                return;
            }
            let handler = {
                let mut i = this.inner.borrow_mut();
                match i.nodes.get(&env.to) {
                    Some(n) if n.up => {
                        let h = n.handler.clone();
                        if h.is_some() {
                            i.delivered += 1;
                        } else {
                            i.dropped += 1;
                        }
                        h
                    }
                    _ => {
                        i.dropped += 1;
                        None
                    }
                }
            };
            if let Some(h) = handler {
                h(sim, env);
            }
        });
    }

    /// Marks this network as world `world` of a sharded simulation, using
    /// the shared address placement map to split local from cross-world
    /// sends. The `sent` counter stays source-side; `delivered`/`dropped`
    /// are accounted by the destination world, so summing the per-world
    /// gauges reproduces the single-world totals.
    ///
    /// `lookahead` is the per-pair [`LookaheadMatrix`] the shard
    /// coordinator schedules with. Every cross-world send is validated
    /// against it: sends between pairs the matrix declares unreachable
    /// panic (the adaptive scheduler's safety proof would be void), and
    /// in debug builds the computed delivery latency is checked against
    /// the pair's minimum.
    pub fn enable_shard_routing(
        &self,
        world: usize,
        placement: Arc<FastMap<Addr, usize>>,
        lookahead: Arc<LookaheadMatrix>,
    ) {
        self.inner.borrow_mut().routing = Some(Routing {
            world,
            placement,
            outbox: Vec::new(),
            seq: 0,
            traffic: None,
            lookahead,
        });
    }

    /// Attaches a shared cross-world [`TrafficMatrix`]: every subsequent
    /// cross-world send records its `(src, dst)` pair and lookahead slack.
    /// Recording is lock-free and never touches simulation state, so
    /// results are bit-identical with or without a matrix attached.
    ///
    /// # Panics
    ///
    /// Panics if shard routing was not enabled first (the matrix is
    /// meaningless without world placement).
    pub fn set_traffic_matrix(&self, matrix: Arc<TrafficMatrix>) {
        let mut i = self.inner.borrow_mut();
        let r = i
            .routing
            .as_mut()
            .expect("set_traffic_matrix: enable_shard_routing first");
        r.traffic = Some(matrix);
    }

    /// Appends the buffered cross-world sends to `out` in send order,
    /// keeping the outbox's capacity (the zero-allocation epoch-exchange
    /// path). A no-op when shard routing is not enabled.
    pub fn drain_outbox_into(&self, out: &mut Vec<Routed<Envelope>>) {
        if let Some(r) = self.inner.borrow_mut().routing.as_mut() {
            out.append(&mut r.outbox);
        }
    }

    /// Injects a message routed from another world. The delivery instant
    /// was computed at the source; destination liveness, handler dispatch
    /// and the delivered/dropped counters are evaluated here exactly as
    /// for a local send.
    pub fn deliver_remote(&self, sim: &Sim, routed: Routed<Envelope>) {
        debug_assert!(
            routed.deliver_at >= sim.now(),
            "remote delivery in the past"
        );
        self.schedule_delivery(sim, routed.deliver_at, routed.msg);
    }

    /// Crashes a node: in-flight messages to it are dropped on arrival and
    /// it can no longer send.
    pub fn set_down(&self, sim: &Sim, addr: &Addr) {
        self.rule_change(sim, RuleChange::Down(addr.clone()));
        if let Some(n) = self.inner.borrow_mut().nodes.get_mut(addr) {
            n.up = false;
        }
        sim.trace(TraceLevel::Warn, "net", format!("{addr} is down"));
    }

    /// Restores a crashed node.
    pub fn set_up(&self, sim: &Sim, addr: &Addr) {
        self.rule_change(sim, RuleChange::Up(addr.clone()));
        if let Some(n) = self.inner.borrow_mut().nodes.get_mut(addr) {
            n.up = true;
        }
        sim.trace(TraceLevel::Info, "net", format!("{addr} is up"));
    }

    /// Blocks the directed link `from -> to` (one direction of a partition).
    pub fn block(&self, sim: &Sim, from: &Addr, to: &Addr) {
        self.rule_change(sim, RuleChange::Block(from.clone(), to.clone()));
        self.inner
            .borrow_mut()
            .blocked
            .insert((from.clone(), to.clone()));
    }

    /// Blocks both directions between two nodes.
    pub fn partition(&self, sim: &Sim, a: &Addr, b: &Addr) {
        self.block(sim, a, b);
        self.block(sim, b, a);
    }

    /// Removes all link blocks.
    pub fn heal(&self, sim: &Sim) {
        self.rule_change(sim, RuleChange::Heal);
        self.inner.borrow_mut().blocked.clear();
    }

    /// `(sent, delivered, dropped)` counters, as of the last
    /// [`Sim::settle`] for messages whose send or delivery is computed.
    pub fn stats(&self) -> (u64, u64, u64) {
        let i = self.inner.borrow();
        (i.sent, i.delivered, i.dropped)
    }

    /// Publishes the fabric-wide message totals, as of the last
    /// [`Sim::settle`], as gauges under component `"net"` (gauges, not
    /// counter deltas, so re-publishing on every scrape is idempotent). A
    /// rising `net.dropped` between scrapes is a watchdog-visible sign of
    /// partitions or crashed peers.
    pub fn publish_metrics(&self, sim: &Sim) {
        let (sent, delivered, dropped) = self.stats();
        sim.gauge_set("net", "net.sent", sent as f64);
        sim.gauge_set("net", "net.delivered", delivered as f64);
        sim.gauge_set("net", "net.dropped", dropped as f64);
    }

    /// The configured parameters.
    pub fn config(&self) -> NetConfig {
        self.inner.borrow().config.clone()
    }

    /// Registers a hook to run once at [`Network::teardown`] time.
    ///
    /// Every bound handler is an `Rc` closure capturing its endpoint, and
    /// endpoints in turn hold handler tables capturing the components that
    /// own them — reference cycles the event-queue teardown cannot reach.
    /// Endpoints register a breaker here (capturing their state weakly so
    /// the registry itself keeps nothing alive) to clear those tables.
    pub fn on_teardown(&self, hook: impl FnOnce() + 'static) {
        self.inner.borrow_mut().teardown_hooks.push(Box::new(hook));
    }

    /// Drops every node's receive handler, the routing outbox, and runs
    /// the registered endpoint teardown hooks — breaking the component
    /// `Rc` cycles rooted in this fabric. The network stays usable for
    /// counter reads (`stats`, `publish_metrics`) but delivers nothing
    /// afterwards. Harnesses arm this via `sim.on_teardown(..)` so one
    /// `Sim::teardown` call releases the whole deployment.
    pub fn teardown(&self) {
        let (handlers, outbox, hooks, notices, rules) = {
            let mut i = self.inner.borrow_mut();
            let notices = std::mem::take(&mut i.notice_handlers);
            let rules = std::mem::take(&mut i.rule_hooks);
            let handlers: Vec<_> = i
                .nodes
                .values_mut()
                .filter_map(|n| n.handler.take())
                .collect();
            let outbox = i
                .routing
                .as_mut()
                .map(|r| std::mem::take(&mut r.outbox))
                .unwrap_or_default();
            let hooks = std::mem::take(&mut i.teardown_hooks);
            let tallies = std::mem::take(&mut i.tallies);
            (handlers, outbox, hooks, notices, (rules, tallies))
        };
        // Run hooks (and drop closures) outside the borrow: a handler drop
        // may release the last strong ref to a component that holds this
        // network.
        for hook in hooks {
            hook();
        }
        drop(handlers);
        drop(outbox);
        drop((notices, rules));
    }
}

/// `count(to, n)` counts `n` messages of a computed stream: sent (`to` is
/// `None`), or arrived at `to`, delivered while it is up and dropped while
/// down. Returns whether they counted as sent or delivered.
pub(crate) type Count<'a> = dyn FnMut(Option<&Addr>, u64) -> bool + 'a;

/// The keyed flow of `bytes`-byte messages whose draws start from `key`.
fn flow(c: &NetConfig, key: u64, bytes: u64) -> KeyedFlow {
    KeyedFlow {
        key,
        fixed: c.base_latency + Duration::from_secs_f64(bytes as f64 / c.nic_rate),
        jitter_ns: c.jitter.as_nanos() as f64,
    }
}

/// The key of the flow `from → to` in the run seeded `seed`.
fn flow_key(seed: u64, from: &Addr, to: &Addr) -> u64 {
    mix_seed(mix_seed(seed, addr_hash(from)), addr_hash(to))
}

/// The 53 high bits of a keyed draw: a uniform f64 in [0, 1).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// FNV-1a of an address: a stable per-name key for keyed flows.
fn addr_hash(a: &Addr) -> u64 {
    a.as_str().bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn setup() -> (Sim, Network, Addr, Addr) {
        let sim = Sim::new(5);
        let net = Network::new(
            NetConfig {
                jitter: Duration::ZERO,
                ..NetConfig::default()
            },
            sim.seed(),
        );
        let a = Addr::new("a");
        let b = Addr::new("b");
        net.register(&a);
        net.register(&b);
        (sim, net, a, b)
    }

    #[test]
    fn delivers_typed_payload_with_latency() {
        let (sim, net, a, b) = setup();
        let at = Rc::new(Cell::new(SimTime::ZERO));
        let at2 = at.clone();
        net.bind(&b, move |sim, env| {
            assert_eq!(*env.payload.downcast_ref::<u32>().expect("u32"), 42);
            at2.set(sim.now());
        });
        net.send(&sim, &a, &b, 1000, Arc::new(42u32));
        sim.run();
        // 1000 B / 1.25 GB/s = 0.8 us serialization + 100 us latency.
        assert_eq!(at.get(), SimTime::from_nanos(800 + 100_000));
    }

    #[test]
    fn sender_nic_serializes() {
        let (sim, net, a, b) = setup();
        let times = Rc::new(RefCell::new(Vec::new()));
        let t = times.clone();
        net.bind(&b, move |sim, _| t.borrow_mut().push(sim.now()));
        // Two 1.25 MB messages: 1 ms serialization each, shared NIC.
        for _ in 0..2 {
            net.send(&sim, &a, &b, 1_250_000, Arc::new(()));
        }
        sim.run();
        let times = times.borrow();
        assert_eq!(times[0], SimTime::from_micros(1100));
        assert_eq!(times[1], SimTime::from_micros(2100));
    }

    #[test]
    fn down_node_drops_messages() {
        let (sim, net, a, b) = setup();
        let got = Rc::new(Cell::new(false));
        let g = got.clone();
        net.bind(&b, move |_, _| g.set(true));
        net.set_down(&sim, &b);
        net.send(&sim, &a, &b, 10, Arc::new(()));
        sim.run();
        assert!(!got.get());
        net.set_up(&sim, &b);
        net.send(&sim, &a, &b, 10, Arc::new(()));
        sim.run();
        assert!(got.get());
    }

    #[test]
    fn crash_drops_in_flight_messages() {
        let (sim, net, a, b) = setup();
        let got = Rc::new(Cell::new(false));
        let g = got.clone();
        net.bind(&b, move |_, _| g.set(true));
        net.send(&sim, &a, &b, 10, Arc::new(()));
        // Crash b while the message is in flight.
        let net2 = net.clone();
        let b2 = b.clone();
        sim.schedule_in(Duration::from_micros(1), move |sim| net2.set_down(sim, &b2));
        sim.run();
        assert!(!got.get());
    }

    #[test]
    fn partition_and_heal() {
        let (sim, net, a, b) = setup();
        let count = Rc::new(Cell::new(0));
        let c = count.clone();
        net.bind(&b, move |_, _| c.set(c.get() + 1));
        net.partition(&sim, &a, &b);
        net.send(&sim, &a, &b, 10, Arc::new(()));
        sim.run();
        assert_eq!(count.get(), 0);
        net.heal(&sim);
        net.send(&sim, &a, &b, 10, Arc::new(()));
        sim.run();
        assert_eq!(count.get(), 1);
    }

    #[test]
    fn loss_probability_drops_some() {
        let sim = Sim::new(9);
        let net = Network::new(
            NetConfig {
                loss_probability: 0.5,
                jitter: Duration::ZERO,
                ..NetConfig::default()
            },
            sim.seed(),
        );
        let a = Addr::new("a");
        let b = Addr::new("b");
        net.register(&a);
        net.register(&b);
        let count = Rc::new(Cell::new(0u32));
        let c = count.clone();
        net.bind(&b, move |_, _| c.set(c.get() + 1));
        for _ in 0..200 {
            net.send(&sim, &a, &b, 10, Arc::new(()));
        }
        sim.run();
        let got = count.get();
        assert!(got > 60 && got < 140, "got {got} of 200 at 50% loss");
    }

    /// Arrival instants at `b` and `d` of messages `a → b` and `c → d`,
    /// one each per millisecond for 20 ms, with one more message `e → f`
    /// at 5 ms when `extra`.
    fn flow_arrivals(seed: u64, extra: bool) -> Vec<(Addr, SimTime)> {
        let sim = Sim::new(seed);
        let net = Network::new(NetConfig::default(), sim.seed());
        let got = Rc::new(RefCell::new(Vec::new()));
        for name in ["a", "b", "c", "d", "e", "f"] {
            let addr = Addr::new(name);
            net.register(&addr);
            let g = got.clone();
            net.bind(&addr, move |sim, env| {
                g.borrow_mut().push((env.to, sim.now()))
            });
        }
        let mut sends = Vec::new();
        for k in 0..20 {
            sends.push((k, "a", "b"));
            sends.push((k, "c", "d"));
        }
        if extra {
            sends.push((5, "e", "f"));
        }
        for (k, from, to) in sends {
            let net = net.clone();
            sim.schedule_at(SimTime::from_millis(k), move |sim| {
                net.send(sim, &Addr::new(from), &Addr::new(to), 100, Arc::new(()));
            });
        }
        sim.run();
        let f = Addr::new("f");
        let got = got.borrow();
        got.iter().filter(|(to, _)| *to != f).cloned().collect()
    }

    #[test]
    fn a_message_on_one_flow_moves_no_other_flows_arrivals() {
        let base = flow_arrivals(7, false);
        assert_eq!(base.len(), 40);
        assert_eq!(flow_arrivals(7, true), base, "the e → f message moved them");
        assert_ne!(flow_arrivals(8, false), base, "the seed decides the draws");
    }

    #[test]
    fn a_destination_down_at_send_is_judged_at_arrival() {
        // Down when the message leaves, up 1 µs later, long before it
        // arrives: delivered, whether it travels in one world or two.
        let arrive = |remote: bool| {
            let (sim, net, a, b) = setup();
            let at = Rc::new(Cell::new(None));
            let dst = if remote {
                let mut placement = FastMap::default();
                placement.insert(a.clone(), 0usize);
                placement.insert(b.clone(), 1usize);
                let placement = Arc::new(placement);
                let matrix = Arc::new(LookaheadMatrix::uniform(2, net.config().base_latency));
                net.enable_shard_routing(0, placement.clone(), matrix.clone());
                let dst = (Sim::new(6), Network::new(net.config(), 5));
                dst.1.enable_shard_routing(1, placement, matrix);
                dst.1.register(&b);
                dst
            } else {
                (sim.clone(), net.clone())
            };
            let (dsim, dnet) = &dst;
            let a2 = at.clone();
            dnet.bind(&b, move |sim, _| a2.set(Some(sim.now())));
            dnet.set_down(dsim, &b);
            net.send(&sim, &a, &b, 10, Arc::new(()));
            let mut out = Vec::new();
            net.drain_outbox_into(&mut out);
            for r in out {
                dnet.deliver_remote(dsim, r);
            }
            let up = dnet.clone();
            let b2 = b.clone();
            dsim.schedule_in(Duration::from_micros(1), move |sim| up.set_up(sim, &b2));
            dsim.run();
            (at.get(), dnet.stats().1, dnet.stats().2)
        };
        let local = arrive(false);
        assert_eq!(local.0, Some(SimTime::from_nanos(8 + 100_000)));
        assert_eq!((local.1, local.2), (1, 0), "delivered, not dropped");
        assert_eq!(local, arrive(true));
    }

    #[test]
    fn unbound_node_counts_drop() {
        let (sim, net, a, b) = setup();
        net.send(&sim, &a, &b, 10, Arc::new(()));
        sim.run();
        let (sent, delivered, dropped) = net.stats();
        assert_eq!((sent, delivered, dropped), (1, 0, 1));
    }

    #[test]
    fn publish_metrics_exports_gauges() {
        let (sim, net, a, b) = setup();
        net.bind(&b, |_, _| {});
        net.send(&sim, &a, &b, 10, Arc::new(()));
        sim.run();
        net.publish_metrics(&sim);
        net.publish_metrics(&sim); // idempotent re-publish
        let m = sim.metrics_snapshot();
        assert_eq!(m.gauge("net", "net.sent"), Some(1.0));
        assert_eq!(m.gauge("net", "net.delivered"), Some(1.0));
        assert_eq!(m.gauge("net", "net.dropped"), Some(0.0));
    }

    #[test]
    fn addr_semantics() {
        let a = Addr::new("host-1");
        assert_eq!(a.to_string(), "host-1");
        assert_eq!(a, Addr::from("host-1"));
        assert_eq!(a.as_str(), "host-1");
    }

    #[test]
    fn shard_routing_buffers_and_delivers_cross_world_sends() {
        // World 0 hosts "a", world 1 hosts "b"; a cross-world send must be
        // buffered (not locally scheduled), carry a delivery instant one
        // base-latency out, and be deliverable on the destination world
        // with destination-side counters.
        let mut placement = FastMap::default();
        placement.insert(Addr::new("a"), 0usize);
        placement.insert(Addr::new("b"), 1usize);
        let placement = Arc::new(placement);

        let cfg = NetConfig {
            jitter: Duration::ZERO,
            ..NetConfig::default()
        };
        let sim0 = Sim::new(1);
        let net0 = Network::new(cfg.clone(), 1);
        let matrix = Arc::new(LookaheadMatrix::uniform(2, cfg.base_latency));
        net0.enable_shard_routing(0, placement.clone(), matrix.clone());
        let a = Addr::new("a");
        let b = Addr::new("b");
        net0.register(&a);

        let sim1 = Sim::new(2);
        let net1 = Network::new(cfg, 1);
        net1.enable_shard_routing(1, placement, matrix);
        net1.register(&b);
        let got = Rc::new(Cell::new(false));
        let g = got.clone();
        net1.bind(&b, move |_, env| {
            assert_eq!(*env.payload.downcast_ref::<u32>().expect("u32"), 7);
            g.set(true);
        });

        net0.send(&sim0, &a, &b, 1000, Arc::new(7u32));
        sim0.run();
        assert!(!got.get(), "cross-world send must not deliver locally");
        let mut outbox = Vec::new();
        net0.drain_outbox_into(&mut outbox);
        assert_eq!(outbox.len(), 1);
        let r = &outbox[0];
        assert_eq!((r.src_world, r.dst_world, r.seq), (0, 1, 0));
        // 1000 B / 1.25 GB/s = 0.8 us serialization + 100 us latency.
        assert_eq!(r.deliver_at, SimTime::from_nanos(800 + 100_000));
        assert_eq!(net0.stats().0, 1, "sent counted at source");

        net1.deliver_remote(&sim1, outbox.pop().expect("one routed send"));
        sim1.run();
        assert!(got.get());
        let (_, delivered, dropped) = net1.stats();
        assert_eq!(
            (delivered, dropped),
            (1, 0),
            "delivery counted at destination"
        );
        net0.drain_outbox_into(&mut outbox);
        assert!(outbox.is_empty(), "outbox drained");
    }

    #[test]
    fn traffic_matrix_records_cross_world_sends_with_slack() {
        let mut placement = FastMap::default();
        placement.insert(Addr::new("a"), 0usize);
        placement.insert(Addr::new("b"), 1usize);
        let placement = Arc::new(placement);
        let sim = Sim::new(3);
        let cfg = NetConfig {
            jitter: Duration::ZERO,
            ..NetConfig::default()
        };
        let net = Network::new(cfg.clone(), sim.seed());
        let lookahead = Arc::new(LookaheadMatrix::uniform(2, cfg.base_latency));
        net.enable_shard_routing(0, placement, lookahead);
        let a = Addr::new("a");
        let b = Addr::new("b");
        net.register(&a);
        let matrix = Arc::new(TrafficMatrix::new(2));
        net.set_traffic_matrix(matrix.clone());
        // 1000 B / 1.25 GB/s = 800 ns serialization; zero jitter, so the
        // slack over the base latency is exactly the serialization time.
        net.send(&sim, &a, &b, 1000, Arc::new(7u32));
        // Local sends (none here) and drops must not be recorded.
        let snap = matrix.snapshot();
        assert_eq!(snap.total_messages(), 1);
        let cell = snap.busiest().expect("one cell");
        assert_eq!((cell.src, cell.dst), (0, 1));
        assert_eq!(cell.min_slack_ns, 800);
    }

    fn lookahead_setup(reachable: bool) -> (Sim, Network, Addr, Addr) {
        let mut placement = FastMap::default();
        placement.insert(Addr::new("a"), 0usize);
        placement.insert(Addr::new("b"), 1usize);
        let sim = Sim::new(4);
        let cfg = NetConfig {
            jitter: Duration::ZERO,
            ..NetConfig::default()
        };
        let net = Network::new(cfg.clone(), sim.seed());
        let matrix = if reachable {
            LookaheadMatrix::uniform(2, cfg.base_latency)
        } else {
            LookaheadMatrix::disconnected(2)
        };
        net.enable_shard_routing(0, Arc::new(placement), Arc::new(matrix));
        let a = Addr::new("a");
        let b = Addr::new("b");
        net.register(&a);
        (sim, net, a, b)
    }

    #[test]
    fn lookahead_matrix_admits_reachable_cross_world_sends() {
        let (sim, net, a, b) = lookahead_setup(true);
        net.send(&sim, &a, &b, 1000, Arc::new(7u32));
        let mut out = Vec::new();
        net.drain_outbox_into(&mut out);
        assert_eq!(out.len(), 1);
        // The computed latency (serialization + base latency) clears the
        // matrix's minimum (= base latency) with the serialization slack.
        assert!(out[0].deliver_at.duration_since(sim.now()) >= NetConfig::default().base_latency);
        out.clear();
        net.drain_outbox_into(&mut out);
        assert!(out.is_empty(), "outbox drained");
    }

    #[test]
    #[should_panic(expected = "cannot talk")]
    fn lookahead_matrix_rejects_unreachable_cross_world_sends() {
        let (sim, net, a, b) = lookahead_setup(false);
        net.send(&sim, &a, &b, 1000, Arc::new(7u32));
    }

    #[test]
    fn local_sends_unaffected_by_shard_routing() {
        let (sim, net, a, b) = setup();
        let mut placement = FastMap::default();
        placement.insert(a.clone(), 0usize);
        placement.insert(b.clone(), 0usize);
        let lookahead = Arc::new(LookaheadMatrix::disconnected(1));
        net.enable_shard_routing(0, Arc::new(placement), lookahead);
        let got = Rc::new(Cell::new(false));
        let g = got.clone();
        net.bind(&b, move |_, _| g.set(true));
        net.send(&sim, &a, &b, 10, Arc::new(()));
        sim.run();
        assert!(got.get());
        let mut outbox = Vec::new();
        net.drain_outbox_into(&mut outbox);
        assert!(outbox.is_empty());
    }
}
