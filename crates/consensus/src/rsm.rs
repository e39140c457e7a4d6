//! Multi-Paxos replicated state machine serving the znode store.
//!
//! Five of these servers form the coordination cluster the paper co-deploys
//! with the Master (§V-B: "The Master and ZooKeeper are co-deployed in a
//! small cluster (e.g., 5 machines)"). Each log slot is one single-decree
//! Paxos instance ([`crate::paxos`]); a leader elected by out-racing rivals
//! with a higher ballot runs phase 1 once for its whole term and then
//! drives phase 2 per command. Committed commands apply to the
//! [`ZnodeStore`] in slot order on every replica.
//!
//! The leader additionally owns the *service* concerns: client sessions
//! (expiring them through the log so every replica agrees), and watches
//! (notifications pushed to clients when applied commands touch watched
//! paths; clients re-register after a leader change, as real ZooKeeper
//! clients re-sync on reconnect).
//!
//! ## Learns
//!
//! Every heartbeat interval the leader casts each follower a *learn*: its
//! ballot, the chosen entries the follower lacks, and what the leader
//! believes the follower has. A learn at the follower's ballot or above
//! makes it a follower of that leader and moves its election deadline; the
//! follower answers (`paxos.learned`) only when the belief is wrong, and
//! answers only steer what the leader resends, never what is chosen. A
//! learn is a keyed flow (`Network::keyed_flow`), numbered per follower
//! within the leader's term, so its latency is a pure function both ends
//! can evaluate. While a leader→follower flow is steady (see
//! `S::steady`) its learns are computed rather than simulated (DESIGN §17
//! "Computed streams"), over the stream primitive of
//! [`ustore_net::stream`]: the leader stops ticking, and the follower
//! takes in what the learns would have done before anything reads or
//! changes its state.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use ustore_net::{
    Addr, End, Network, Open, Payload, Receiver, Responder, RpcNode, RuleChange, Sender,
};
use ustore_sim::faultgen::mix_seed;
use ustore_sim::{CounterHandle, EventId, Sim, SimTime, TraceLevel};

use crate::paxos::{AcceptReply, Acceptor, Ballot, PrepareReply, Proposer};
use crate::store::{Applied, Command, SessionId, StoreError, WatchEvent, ZnodeStore};

/// Cluster timing parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CoordConfig {
    /// Leader heartbeat / commit-broadcast interval.
    pub heartbeat_interval: Duration,
    /// Minimum follower election timeout (randomized up to the max).
    pub election_timeout_min: Duration,
    /// Maximum follower election timeout.
    pub election_timeout_max: Duration,
    /// Internal RPC timeout for Paxos messages.
    pub rpc_timeout: Duration,
    /// Client session expiry when no pings arrive.
    pub session_timeout: Duration,
    /// How often the leader sweeps for expired sessions.
    pub session_sweep_interval: Duration,
}

impl Default for CoordConfig {
    fn default() -> Self {
        CoordConfig {
            heartbeat_interval: Duration::from_millis(50),
            election_timeout_min: Duration::from_millis(150),
            election_timeout_max: Duration::from_millis(300),
            rpc_timeout: Duration::from_millis(100),
            session_timeout: Duration::from_secs(3),
            session_sweep_interval: Duration::from_millis(500),
        }
    }
}

// ---- Wire messages (RPC bodies) ---------------------------------------

#[derive(Clone)]
pub(crate) struct PrepareReq {
    pub ballot: Ballot,
    pub from_slot: u64,
}

#[derive(Clone)]
pub(crate) struct PrepareResp {
    pub from: u32,
    pub ok: bool,
    pub promised: Ballot,
    /// Accepted-but-not-known-chosen entries at or above `from_slot`.
    pub accepted: Vec<(u64, Ballot, Command)>,
    /// Chosen entries at or above `from_slot` the responder knows about.
    pub chosen: Vec<(u64, Command)>,
}

#[derive(Clone)]
pub(crate) struct AcceptReq {
    pub ballot: Ballot,
    pub slot: u64,
    pub cmd: Command,
}

#[derive(Clone)]
pub(crate) struct AcceptResp {
    pub from: u32,
    pub ok: bool,
}

/// Leader → follower, one way (`paxos.learn`). Every learn of a
/// computed stream is an empty one.
#[derive(Clone)]
pub(crate) struct LearnReq {
    pub ballot: Ballot,
    pub leader: u32,
    /// The chosen entries from `belief` up to the leader's commit index.
    pub entries: Vec<(u64, Command)>,
    /// What the leader believes the follower has: slots below this are
    /// chosen there.
    pub belief: u64,
}

/// Follower → leader, one way (`paxos.learned`), sent only when the
/// learn's belief was wrong.
#[derive(Clone)]
pub(crate) struct Learned {
    pub from: u32,
    /// Slots below this are chosen at the follower.
    pub have_upto: u64,
}

/// Bytes of a learn body on the wire.
const LEARN_BYTES: u64 = 256;

// ---- Client-facing messages --------------------------------------------

/// A read-only query against the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOp {
    /// Fetch data and stat.
    Get(String),
    /// Existence check.
    Exists(String),
    /// Sorted child names.
    Children(String),
}

/// Watch registration accompanying a read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchReg {
    /// Client-chosen id echoed back in the notification.
    pub watch_id: u64,
    /// Watch children changes instead of node create/delete/data.
    pub children: bool,
}

/// Results of a read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadResult {
    /// For [`ReadOp::Get`].
    Data(Option<(Vec<u8>, u64)>),
    /// For [`ReadOp::Exists`].
    Exists(bool),
    /// For [`ReadOp::Children`].
    Children(Vec<String>),
}

#[derive(Clone)]
pub(crate) enum ClientReq {
    Write(Command),
    Read { op: ReadOp, watch: Option<WatchReg> },
    Ping { session: SessionId },
}

#[derive(Clone)]
pub(crate) enum ClientResp {
    /// Not the leader; hints at who might be.
    Redirect(Option<u32>),
    Write(Result<Applied, StoreError>),
    Read(ReadResult),
    Pong,
}

/// Watch notification pushed to a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchNotification {
    /// Echo of the registered watch id.
    pub watch_id: u64,
    /// What happened.
    pub event: WatchEvent,
}

// ---- Server -------------------------------------------------------------

enum Role {
    Follower { leader: Option<u32> },
    Candidate { promises: Vec<PrepareResp> },
    Leader,
}

struct WatchEntry {
    watch_id: u64,
    client: Addr,
}

/// What one computed learn does at its follower.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Effect {
    /// Nothing: the follower is paused or down, or the learn is stale and
    /// its belief right.
    Nothing,
    /// Only the election deadline moves: the follower already follows
    /// this leader at this ballot, and the belief is right.
    Deadline,
    /// Anything more (an adopted ballot or role, a reply): the learn is
    /// handled as an event at its arrival.
    Handle,
}

struct S {
    id: u32,
    peers: Vec<Addr>,
    config: CoordConfig,
    paused: bool,

    // Timers.
    /// Key of this server's election-timeout stream: the run seed keyed
    /// by its address.
    election_key: u64,
    /// When an election starts unless something moves it first; `None`
    /// while leading or paused.
    deadline: Option<SimTime>,
    /// The one pending election timer, at or before the deadline.
    timer: Option<(SimTime, EventId)>,
    /// Origin of the session-sweep grid: construction or last restart.
    sweep_origin: SimTime,
    /// The leader's pending session sweep.
    sweeper: Option<EventId>,
    /// Start of the leader's term: origin of its tick grid.
    term_start: SimTime,
    /// The leader's pending tick.
    tick: Option<EventId>,

    // Paxos state.
    ballot: Ballot, // highest ballot seen/promised
    role: Role,
    acceptors: BTreeMap<u64, Acceptor<Command>>,
    chosen: BTreeMap<u64, Command>,
    applied: u64, // next slot to apply
    store: ZnodeStore,

    // Leader state.
    next_slot: u64,
    proposers: HashMap<u64, Proposer<Command>>,
    pending: HashMap<u64, Responder>,
    peer_have: HashMap<u32, u64>,
    /// Learns to each peer in the leader's term, indexed by replica id.
    out: Vec<Sender<u32, LearnReq>>,

    // Follower state.
    /// Computed learn streams pointed at this replica, by leader.
    inbound: Receiver<u32, LearnReq>,

    // Service state (leader-owned).
    session_last_heard: HashMap<SessionId, SimTime>,
    data_watches: HashMap<String, Vec<WatchEntry>>,
    child_watches: HashMap<String, Vec<WatchEntry>>,
}

impl S {
    fn quorum(&self) -> usize {
        self.peers.len() / 2 + 1
    }
    fn commit_upto(&self) -> u64 {
        // First gap at or after `applied`.
        let mut upto = self.applied;
        while self.chosen.contains_key(&upto) {
            upto += 1;
        }
        upto
    }

    fn peer_have(&self, pid: u32) -> u64 {
        self.peer_have.get(&pid).copied().unwrap_or(0)
    }

    /// The committed entries each replica lacks, indexed by replica id.
    /// The leader's own slot stays empty: it has its whole log.
    fn learn_entries(&self) -> Vec<Vec<(u64, Command)>> {
        let commit = self.commit_upto();
        (0..self.peers.len() as u32)
            .map(|pid| {
                if pid == self.id {
                    return Vec::new();
                }
                self.chosen
                    .range(self.peer_have(pid)..commit)
                    .map(|(k, v)| (*k, v.clone()))
                    .collect()
            })
            .collect()
    }

    /// This server's election timeout at `ballot`: a draw in
    /// `[min, max)` keyed by the server and the ballot, so every arm
    /// under one ballot waits the same time.
    fn election_timeout(&self) -> Duration {
        let min = self.config.election_timeout_min.as_nanos() as u64;
        let max = self.config.election_timeout_max.as_nanos() as u64;
        let draw = mix_seed(
            mix_seed(self.election_key, self.ballot.round),
            self.ballot.node.into(),
        );
        Duration::from_nanos(min + draw % max.saturating_sub(min).max(1))
    }

    /// The next point of `origin + k · interval` strictly after `now`.
    fn next_on_grid(origin: SimTime, interval: Duration, now: SimTime) -> SimTime {
        let step = interval.as_nanos() as u64;
        let k = now.as_nanos().saturating_sub(origin.as_nanos()) / step + 1;
        origin + Duration::from_nanos(k * step)
    }

    /// The leader's part of whether the learns to peer `pid` can be
    /// computed: it leads and is live; the peer has the whole committed log
    /// and no accept is in flight (every learn repeats an empty one); and a
    /// live stream can never let the peer's election timeout fire.
    fn steady(&mut self, pid: usize) -> bool {
        let flow = self.out[pid].flow(&self.peers[pid]);
        !self.paused
            && matches!(self.role, Role::Leader)
            && self.proposers.is_empty()
            && self.peer_have(pid as u32) == self.commit_upto()
            && self.config.heartbeat_interval + flow.max_latency()
                < self.config.election_timeout_min
    }

    /// What the next learn of a stream, `st`, does here, with this node
    /// `up` or not.
    fn effect(&self, st: &LearnReq, up: bool) -> Effect {
        if self.paused || !up {
            return Effect::Nothing;
        }
        let belief_right = self.commit_upto() == st.belief;
        if st.ballot < self.ballot {
            return if belief_right {
                Effect::Nothing
            } else {
                Effect::Handle
            };
        }
        let following = matches!(self.role, Role::Follower { leader: Some(l) } if l == st.leader);
        if st.ballot == self.ballot && following && belief_right && self.deadline.is_some() {
            Effect::Deadline
        } else {
            Effect::Handle
        }
    }
}

/// Per-replica consensus counters, resolved once at construction so the
/// proposal hot path never formats the `coord-{id}` label.
#[derive(Debug, Clone)]
struct CoordMetrics {
    elections: CounterHandle,
    leader_changes: CounterHandle,
    redirects: CounterHandle,
    proposals: CounterHandle,
}

/// One replica of the coordination service.
#[derive(Clone)]
pub struct CoordServer {
    rpc: RpcNode,
    metrics: CoordMetrics,
    inner: Rc<RefCell<S>>,
}

impl fmt::Debug for CoordServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.inner.borrow();
        f.debug_struct("CoordServer")
            .field("id", &s.id)
            .field("ballot", &s.ballot)
            .field(
                "role",
                &match s.role {
                    Role::Follower { .. } => "follower",
                    Role::Candidate { .. } => "candidate",
                    Role::Leader => "leader",
                },
            )
            .field("applied", &s.applied)
            .finish()
    }
}

impl CoordServer {
    /// Creates replica `id` of a cluster whose members live at `peers`
    /// (this replica's address is `peers[id]`).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn new(sim: &Sim, net: &Network, id: u32, peers: Vec<Addr>, config: CoordConfig) -> Self {
        assert!((id as usize) < peers.len(), "server id out of range");
        let rpc = RpcNode::new(net, peers[id as usize].clone());
        // Metric component = the replica's address ("coord-3", or
        // "p1-coord-3" for a metadata-partition group), so co-located
        // clusters never merge counters.
        let label = rpc.addr().to_string();
        let metrics = CoordMetrics {
            elections: sim.counter(&label, "consensus.elections"),
            leader_changes: sim.counter(&label, "consensus.leader_changes"),
            redirects: sim.counter(&label, "consensus.redirects"),
            proposals: sim.counter(&label, "consensus.proposals"),
        };
        let cast = ("paxos.learn", LEARN_BYTES);
        let interval = config.heartbeat_interval;
        let out = peers
            .iter()
            .map(|_| Sender::new(&rpc, id, cast, interval, None))
            .collect();
        let inbound = Receiver::new(net, rpc.addr().clone());
        let election_key = net.key_of(rpc.addr());
        let server = CoordServer {
            rpc,
            metrics,
            inner: Rc::new(RefCell::new(S {
                id,
                out,
                inbound,
                peers,
                config,
                paused: false,
                election_key,
                deadline: None,
                timer: None,
                sweep_origin: sim.now(),
                sweeper: None,
                term_start: sim.now(),
                tick: None,
                ballot: Ballot::ZERO,
                role: Role::Follower { leader: None },
                acceptors: BTreeMap::new(),
                chosen: BTreeMap::new(),
                applied: 0,
                store: ZnodeStore::new(),
                next_slot: 0,
                proposers: HashMap::new(),
                pending: HashMap::new(),
                peer_have: HashMap::new(),
                session_last_heard: HashMap::new(),
                data_watches: HashMap::new(),
                child_watches: HashMap::new(),
            })),
        };
        server.install_handlers();
        let this = server.clone();
        net.bind_notices(server.rpc.addr(), move |sim, notice| {
            this.event(sim, |this| this.on_notice(sim, &notice));
        });
        let this = server.clone();
        net.on_rule_change(move |sim, change| this.on_rule_change(sim, change));
        server.event(sim, |this| this.arm_election(sim));
        server
    }

    /// This replica's id.
    pub fn id(&self) -> u32 {
        self.inner.borrow().id
    }

    /// This replica's address.
    pub fn addr(&self) -> Addr {
        self.rpc.addr().clone()
    }

    /// Whether this replica currently believes it is the leader.
    pub fn is_leader(&self) -> bool {
        matches!(self.inner.borrow().role, Role::Leader)
    }

    /// Who this replica believes leads, if anyone.
    pub fn believed_leader(&self) -> Option<u32> {
        let s = self.inner.borrow();
        match &s.role {
            Role::Leader => Some(s.id),
            Role::Follower { leader } => *leader,
            Role::Candidate { .. } => None,
        }
    }

    /// The highest ballot this replica has seen or promised.
    pub fn ballot(&self) -> Ballot {
        self.inner.borrow().ballot
    }

    /// Number of applied log entries.
    pub fn applied_len(&self) -> u64 {
        self.inner.borrow().applied
    }

    /// Runs `f` against the replica's applied store snapshot.
    pub fn with_store<R>(&self, f: impl FnOnce(&ZnodeStore) -> R) -> R {
        f(&self.inner.borrow().store)
    }

    /// The applied command log prefix (for cross-replica safety checks).
    pub fn applied_log(&self) -> Vec<Command> {
        let s = self.inner.borrow();
        (0..s.applied)
            .map(|i| {
                s.chosen
                    .get(&i)
                    .expect("applied entries are chosen")
                    .clone()
            })
            .collect()
    }

    /// Simulates a process crash: the replica ignores everything until
    /// [`CoordServer::restart`]. (Network-level crash should be injected
    /// separately via [`Network::set_down`].)
    pub fn pause(&self, sim: &Sim) {
        self.event(sim, |this| {
            let mut s = this.inner.borrow_mut();
            s.paused = true;
            s.deadline = None;
        });
    }

    /// Restarts a paused replica (durable state intact, volatile leadership
    /// forgotten).
    pub fn restart(&self, sim: &Sim) {
        self.event(sim, |this| {
            {
                let mut s = this.inner.borrow_mut();
                s.paused = false;
                s.role = Role::Follower { leader: None };
                s.proposers.clear();
                s.pending.clear();
                s.sweep_origin = sim.now();
            }
            this.arm_election(sim);
        });
    }

    // ---- Events -------------------------------------------------------------

    /// Runs `f` as one event of this replica: the computed learns that
    /// arrived by now are settled first, and afterwards the replica's
    /// timers and streams are brought in line with its new state.
    fn event(&self, sim: &Sim, f: impl FnOnce(&Self)) {
        let up = self.up();
        self.settle_in(sim, up);
        f(self);
        self.sync(sim, self.up());
    }

    fn up(&self) -> bool {
        self.rpc.network().is_up(self.rpc.addr())
    }

    /// Brings timers and streams in line with the replica's state (this
    /// node `up` or not):
    ///
    /// - a leader's computed streams that are no longer steady end, and
    ///   its ticks run while any peer's learns are simulated;
    /// - a replica that does not lead (or is paused) has no ticks, no
    ///   session sweeps and no outgoing streams;
    /// - a computed learn that must be handled as an event gets one at
    ///   its arrival;
    /// - the election timer is pending at the deadline, unless a computed
    ///   stream moves the deadline before it is reached.
    fn sync(&self, sim: &Sim, up: bool) {
        self.sync_leader(sim);
        self.sync_follower(sim, up);
    }

    fn sync_leader(&self, sim: &Sim) {
        let mut guard = self.inner.borrow_mut();
        let s = &mut *guard;
        let leading = !s.paused && matches!(s.role, Role::Leader);
        if !leading {
            for id in s.tick.take().into_iter().chain(s.sweeper.take()) {
                sim.cancel(id);
            }
        }
        let mut ticking = false;
        for pid in 0..s.peers.len() {
            // (A drop rule touching the path ended the stream already.)
            if !leading || !s.steady(pid) {
                s.out[pid].end(sim);
            }
            ticking |= leading && pid as u32 != s.id && s.out[pid].streaming().is_none();
        }
        if ticking && s.tick.is_none() {
            let at = S::next_on_grid(s.term_start, s.config.heartbeat_interval, sim.now());
            drop(guard);
            self.arm_tick(sim, at);
        }
    }

    fn sync_follower(&self, sim: &Sim, up: bool) {
        let (wanted, timer) = {
            let mut guard = self.inner.borrow_mut();
            let s = &mut *guard;
            let mut kept = false;
            let mut wakes = Vec::new();
            for (&leader, st) in s.inbound.iter() {
                let effect = st.pending().then(|| s.effect(&st.state, up));
                let next = st.arrival(st.next);
                if effect == Some(Effect::Deadline)
                    && !st.is_ended()
                    && s.deadline.is_some_and(|d| d > next)
                {
                    kept = true;
                }
                wakes.push((leader, (effect == Some(Effect::Handle)).then_some(next)));
            }
            for (leader, at) in wakes {
                let this = self.clone();
                s.inbound
                    .wake(sim, &leader, at, move |sim| this.event(sim, |_| {}));
            }
            let wanted = if kept { None } else { s.deadline };
            (wanted, s.timer)
        };
        match (wanted, timer) {
            (None, Some((_, id))) => {
                sim.cancel(id);
                self.inner.borrow_mut().timer = None;
            }
            (Some(w), t) if t.is_none_or(|(at, _)| at > w) => {
                if let Some((_, id)) = t {
                    sim.cancel(id);
                }
                let this = self.clone();
                let id = sim.schedule_at(w, move |sim| {
                    this.event(sim, |this| this.on_election_timer(sim));
                });
                self.inner.borrow_mut().timer = Some((w, id));
            }
            _ => {}
        }
    }

    // ---- Timers ---------------------------------------------------------

    /// Moves the election deadline to one timeout from now. The pending
    /// timer stays where it is; when it fires before the deadline it
    /// re-arms itself there.
    fn arm_election(&self, sim: &Sim) {
        let mut s = self.inner.borrow_mut();
        let d = s.election_timeout();
        s.deadline = Some(sim.now() + d);
    }

    fn on_election_timer(&self, sim: &Sim) {
        let expired = {
            let mut s = self.inner.borrow_mut();
            s.timer = None;
            let due = s.deadline.is_some_and(|d| d <= sim.now());
            if due {
                s.deadline = None;
            }
            due && !s.paused && !matches!(s.role, Role::Leader)
        };
        if expired {
            self.start_election(sim);
        }
    }

    /// Arms the session sweeper at the next point of this replica's sweep
    /// grid, so a leader sweeps when every replica sweeping would.
    fn arm_sweeper(&self, sim: &Sim) {
        let at = {
            let s = self.inner.borrow();
            S::next_on_grid(s.sweep_origin, s.config.session_sweep_interval, sim.now())
        };
        let this = self.clone();
        let id = sim.schedule_at(at, move |sim| {
            this.event(sim, |this| {
                this.inner.borrow_mut().sweeper = None;
                let leading = {
                    let s = this.inner.borrow();
                    !s.paused && matches!(s.role, Role::Leader)
                };
                if leading {
                    this.sweep_sessions(sim);
                    this.arm_sweeper(sim);
                }
            });
        });
        if let Some(old) = self.inner.borrow_mut().sweeper.replace(id) {
            sim.cancel(old);
        }
    }

    fn sweep_sessions(&self, sim: &Sim) {
        let expired: Vec<SessionId> = {
            let s = self.inner.borrow();
            let deadline = s.config.session_timeout;
            s.store
                .session_ids()
                .into_iter()
                .filter(|id| {
                    s.session_last_heard
                        .get(id)
                        .is_none_or(|t| sim.now().saturating_duration_since(*t) > deadline)
                })
                .collect()
        };
        for id in expired {
            sim.trace(
                TraceLevel::Warn,
                "coord",
                format!("leader {} expiring session {id}", self.id()),
            );
            self.propose_internal(sim, Command::ExpireSession { id }, None);
        }
    }

    // ---- Election ---------------------------------------------------------

    fn start_election(&self, sim: &Sim) {
        let (ballot, from_slot, peers, me) = {
            let mut s = self.inner.borrow_mut();
            let ballot = s.ballot.next_for(s.id);
            s.ballot = ballot;
            s.role = Role::Candidate {
                promises: Vec::new(),
            };
            (ballot, s.applied, s.peers.clone(), s.id)
        };
        self.metrics.elections.inc();
        sim.trace(
            TraceLevel::Info,
            "coord",
            format!("{me} starts election at ballot {ballot}"),
        );
        let req = PrepareReq { ballot, from_slot };
        let timeout = self.inner.borrow().config.rpc_timeout;
        for addr in &peers {
            let this = self.clone();
            self.rpc.call::<PrepareResp>(
                sim,
                addr,
                "paxos.prepare",
                Arc::new(req.clone()),
                128,
                timeout,
                move |sim, resp| {
                    if let Ok(r) = resp {
                        this.event(sim, |this| this.on_prepare_resp(sim, ballot, (*r).clone()));
                    }
                },
            );
        }
        // If the election stalls, the timer fires again with a higher ballot.
        self.arm_election(sim);
    }

    fn on_prepare_resp(&self, sim: &Sim, ballot: Ballot, resp: PrepareResp) {
        let won = {
            let mut s = self.inner.borrow_mut();
            if s.paused || s.ballot != ballot {
                return;
            }
            let Role::Candidate { promises } = &mut s.role else {
                return;
            };
            if !resp.ok {
                // Someone promised higher; adopt and fall back.
                if resp.promised > s.ballot {
                    s.ballot = resp.promised;
                }
                s.role = Role::Follower { leader: None };
                return;
            }
            if promises.iter().any(|p| p.from == resp.from) {
                return;
            }
            promises.push(resp);
            promises.len() >= s.quorum()
        };
        if won {
            self.become_leader(sim, ballot);
        }
    }

    fn become_leader(&self, sim: &Sim, ballot: Ballot) {
        let reproposals: Vec<(u64, Command)> = {
            let mut s = self.inner.borrow_mut();
            let Role::Candidate { promises } = &mut s.role else {
                return;
            };
            let promises = std::mem::take(promises);
            // Merge everything learned during the election.
            let mut best_accepted: BTreeMap<u64, (Ballot, Command)> = BTreeMap::new();
            for p in &promises {
                for (slot, cmd) in &p.chosen {
                    s.chosen.entry(*slot).or_insert_with(|| cmd.clone());
                }
                for (slot, b, cmd) in &p.accepted {
                    match best_accepted.get(slot) {
                        Some((bb, _)) if bb >= b => {}
                        _ => {
                            best_accepted.insert(*slot, (*b, cmd.clone()));
                        }
                    }
                }
            }
            s.role = Role::Leader;
            s.deadline = None; // stop follower timer
            let max_seen = best_accepted
                .keys()
                .last()
                .copied()
                .max(s.chosen.keys().last().copied());
            s.next_slot = max_seen.map_or(s.applied, |m| m + 1).max(s.applied);
            // Re-propose accepted-but-unchosen values, and no-ops for gaps.
            let mut todo = Vec::new();
            for slot in s.applied..s.next_slot {
                if s.chosen.contains_key(&slot) {
                    continue;
                }
                let cmd = best_accepted
                    .get(&slot)
                    .map(|(_, c)| c.clone())
                    .unwrap_or(Command::Noop);
                todo.push((slot, cmd));
            }
            // Fresh leader: give all sessions a grace period.
            let now = sim.now();
            let ids = s.store.session_ids();
            for id in ids {
                s.session_last_heard.insert(id, now);
            }
            s.peer_have.clear();
            // A new term: its learns are numbered from 1 on a fresh grid.
            s.term_start = now;
            for out in &mut s.out {
                out.restart();
            }
            todo
        };
        self.metrics.leader_changes.inc();
        sim.trace(
            TraceLevel::Info,
            "coord",
            format!("{} became leader at {ballot}", self.id()),
        );
        for (slot, cmd) in reproposals {
            self.send_accepts(sim, ballot, slot, cmd);
        }
        self.apply_ready(sim);
        // The first learn goes out now, at the origin of the term's grid:
        // a follower whose election deadline falls within the first
        // interval would otherwise campaign against this leader.
        self.on_tick(sim, sim.now());
        self.arm_sweeper(sim);
    }

    // ---- Learns (leader side) -------------------------------------------

    /// Arms the leader's tick at `at`. Ticks are early events: a learn
    /// due at `t` is sent before anything else happens at `t`, which is
    /// also how a computed stream counts it.
    fn arm_tick(&self, sim: &Sim, at: SimTime) {
        let this = self.clone();
        let id = sim.schedule_early_at(at, move |sim| {
            this.event(sim, |this| this.on_tick(sim, at));
        });
        if let Some(old) = self.inner.borrow_mut().tick.replace(id) {
            sim.cancel(old);
        }
    }

    /// One heartbeat: a simulated learn to every peer whose learns are
    /// not computed, each of those flows that is now steady opening a
    /// computed stream. Ticks stop once every flow is computed.
    fn on_tick(&self, sim: &Sim, at: SimTime) {
        let (leading, interval) = {
            let mut s = self.inner.borrow_mut();
            s.tick = None;
            let leading = !s.paused && matches!(s.role, Role::Leader);
            (leading, s.config.heartbeat_interval)
        };
        if leading && self.broadcast_learn(sim, true) {
            self.arm_tick(sim, at + interval);
        }
    }

    /// Casts a learn to every peer whose learns are simulated; on a tick
    /// (`open`), each of those flows that is now steady opens a computed
    /// stream. Returns whether any flow is still simulated.
    fn broadcast_learn(&self, sim: &Sim, open: bool) -> bool {
        let mut per_peer = self.inner.borrow().learn_entries();
        let mut simulated = false;
        for (pid, entries) in per_peer.iter_mut().enumerate() {
            let mut guard = self.inner.borrow_mut();
            let s = &mut *guard;
            if pid as u32 == s.id || s.out[pid].streaming().is_some() {
                continue;
            }
            let steady = open && s.steady(pid);
            let learn = LearnReq {
                ballot: s.ballot,
                leader: s.id,
                entries: Vec::new(),
                belief: s.commit_upto(),
            };
            let req = LearnReq {
                entries: std::mem::take(entries),
                belief: s.peer_have(pid as u32),
                ..learn.clone()
            };
            let to = Some(&s.peers[pid]);
            simulated |= !s.out[pid].send(sim, to, |_| Arc::new(req), steady, |_| learn);
        }
        simulated
    }

    fn on_learned(&self, msg: &Learned) {
        let mut s = self.inner.borrow_mut();
        let e = s.peer_have.entry(msg.from).or_insert(0);
        *e = (*e).max(msg.have_upto);
    }

    // ---- Learns (follower side) -------------------------------------------

    /// What a learn does at this replica, simulated or computed: a learn
    /// at this replica's ballot or above makes it a follower of `leader`
    /// and moves its election deadline; the reply goes out only when the
    /// leader's belief of what this replica has is wrong.
    fn apply_learn(&self, sim: &Sim, req: &LearnReq) {
        let stale = {
            let mut s = self.inner.borrow_mut();
            if s.paused {
                return;
            }
            let stale = req.ballot < s.ballot;
            if !stale {
                s.ballot = req.ballot;
                if req.leader != s.id {
                    s.role = Role::Follower {
                        leader: Some(req.leader),
                    };
                }
                for (slot, cmd) in &req.entries {
                    s.chosen.entry(*slot).or_insert_with(|| cmd.clone());
                }
            }
            stale
        };
        if !stale {
            self.arm_election(sim);
            self.apply_ready(sim);
        }
        let (have, me, to) = {
            let s = self.inner.borrow();
            (s.commit_upto(), s.id, s.peers[req.leader as usize].clone())
        };
        if have != req.belief {
            let msg = Learned {
                from: me,
                have_upto: have,
            };
            self.rpc.cast(sim, &to, "paxos.learned", Arc::new(msg), 64);
        }
    }

    /// Takes in the computed learns that arrived by now, this node being
    /// `up` or not since the last time: each does what [`S::effect`]
    /// says. (The network counts them.)
    fn settle_in(&self, sim: &Sim, up: bool) {
        let now = sim.now();
        let mut from = 0;
        loop {
            let handled = {
                let mut guard = self.inner.borrow_mut();
                let s = &mut *guard;
                let Some((&leader, st)) = s.inbound.range(from..).next() else {
                    break;
                };
                let Some(n) = st.arrived_by(now).filter(|&n| n >= st.next) else {
                    if !st.pending() {
                        s.inbound.remove(sim, &leader);
                    }
                    from = leader + 1;
                    continue;
                };
                let (effect, at) = (s.effect(&st.state, up), st.arrival(n));
                let handle = effect == Effect::Handle;
                debug_assert!(!handle || st.arrival(st.next) == now, "handled late");
                let learn = handle.then(|| st.state.clone());
                if effect == Effect::Deadline {
                    s.deadline = Some(at + s.election_timeout());
                }
                // A handled learn runs as its own event, one at a time.
                let st = s.inbound.get_mut(&leader).expect("stream");
                st.next = if handle { st.next + 1 } else { n + 1 };
                learn
            };
            if let Some(req) = handled {
                self.apply_learn(sim, &req);
            }
        }
    }

    fn on_notice(&self, sim: &Sim, notice: &Payload) {
        let mut s = self.inner.borrow_mut();
        if let Some(open) = notice.downcast_ref::<Open<u32, LearnReq>>() {
            s.inbound.open(sim, open, open.payload.clone());
        } else if let Some(end) = notice.downcast_ref::<End<u32>>() {
            if s.inbound.end(sim, end).is_some_and(|st| !st.pending()) {
                s.inbound.remove(sim, &end.key);
            }
        }
    }

    /// A drop rule is about to change: streams out of this replica whose
    /// path it touches end now, and a change to this replica's own node
    /// settles what arrived under the old rule before it applies.
    fn on_rule_change(&self, sim: &Sim, change: &RuleChange) {
        for out in &mut self.inner.borrow_mut().out {
            out.on_rule_change(sim, change);
        }
        let me = self.rpc.addr();
        let up_after = match change {
            RuleChange::Down(a) if a == me => false,
            RuleChange::Up(a) if a == me => true,
            _ => {
                self.sync_leader(sim);
                return;
            }
        };
        self.settle_in(sim, self.up());
        self.sync(sim, up_after);
    }

    // ---- Proposing --------------------------------------------------------

    /// Proposes a command on the replicated log (leader only). The optional
    /// responder is answered with the apply result once committed.
    fn propose_internal(&self, sim: &Sim, cmd: Command, responder: Option<Responder>) {
        let (ballot, slot) = {
            let mut s = self.inner.borrow_mut();
            if !matches!(s.role, Role::Leader) {
                drop(s);
                self.metrics.redirects.inc();
                if let Some(r) = responder {
                    let hint = self.believed_leader();
                    r.reply(sim, Arc::new(ClientResp::Redirect(hint)), 16);
                }
                return;
            }
            let slot = s.next_slot;
            s.next_slot += 1;
            (s.ballot, slot)
        };
        self.metrics.proposals.inc();
        if let Some(r) = responder {
            self.inner.borrow_mut().pending.insert(slot, r);
        }
        self.send_accepts(sim, ballot, slot, cmd);
        // An accept in flight: no learn flow is steady.
        self.sync_leader(sim);
    }

    fn send_accepts(&self, sim: &Sim, ballot: Ballot, slot: u64, cmd: Command) {
        {
            let mut s = self.inner.borrow_mut();
            let quorum = s.quorum();
            s.proposers.insert(slot, Proposer::new(ballot, quorum));
            if let Some(p) = s.proposers.get_mut(&slot) {
                p.choose_value(cmd.clone());
            }
        }
        let (peers, timeout) = {
            let s = self.inner.borrow();
            (s.peers.clone(), s.config.rpc_timeout)
        };
        let req = AcceptReq { ballot, slot, cmd };
        for addr in &peers {
            let this = self.clone();
            self.rpc.call::<AcceptResp>(
                sim,
                addr,
                "paxos.accept",
                Arc::new(req.clone()),
                256,
                timeout,
                move |sim, resp| {
                    if let Ok(r) = resp {
                        this.event(sim, |this| {
                            this.on_accept_resp(sim, ballot, slot, (*r).clone())
                        });
                    }
                },
            );
        }
    }

    fn on_accept_resp(&self, sim: &Sim, ballot: Ballot, slot: u64, resp: AcceptResp) {
        let chosen_now = {
            let mut s = self.inner.borrow_mut();
            if s.paused || s.ballot != ballot || !matches!(s.role, Role::Leader) {
                return;
            }
            if !resp.ok {
                // A higher ballot exists somewhere: step down.
                s.role = Role::Follower { leader: None };
                s.proposers.clear();
                drop(s);
                self.fail_pending(sim);
                self.arm_election(sim);
                return;
            }
            let Some(p) = s.proposers.get_mut(&slot) else {
                return;
            };
            if p.on_accepted(resp.from) {
                let cmd = p.value().expect("phase 2 value").clone();
                s.chosen.insert(slot, cmd);
                s.proposers.remove(&slot);
                true
            } else {
                false
            }
        };
        if chosen_now {
            self.apply_ready(sim);
            self.broadcast_learn(sim, false);
        }
    }

    fn fail_pending(&self, sim: &Sim) {
        let pending: Vec<Responder> = {
            let mut s = self.inner.borrow_mut();
            s.pending.drain().map(|(_, r)| r).collect()
        };
        for r in pending {
            r.reply(sim, Arc::new(ClientResp::Redirect(None)), 16);
        }
    }

    // ---- Applying -----------------------------------------------------------

    fn apply_ready(&self, sim: &Sim) {
        loop {
            let step = {
                let mut s = self.inner.borrow_mut();
                let slot = s.applied;
                let Some(cmd) = s.chosen.get(&slot).cloned() else {
                    break;
                };
                let (result, events) = s.store.apply(&cmd);
                s.applied += 1;
                let responder = s.pending.remove(&slot);
                // Track new sessions for expiry on the leader.
                if let Command::CreateSession { id } = cmd {
                    let now = sim.now();
                    s.session_last_heard.insert(id, now);
                }
                (result, events, responder)
            };
            let (result, events, responder) = step;
            if let Some(r) = responder {
                r.reply(sim, Arc::new(ClientResp::Write(result)), 64);
            }
            self.fire_watches(sim, &events);
        }
    }

    fn fire_watches(&self, sim: &Sim, events: &[WatchEvent]) {
        let mut to_send: Vec<(Addr, WatchNotification)> = Vec::new();
        {
            let mut s = self.inner.borrow_mut();
            if !matches!(s.role, Role::Leader) {
                return;
            }
            for ev in events {
                let (map, path) = match ev {
                    WatchEvent::ChildrenChanged(p) => (&mut s.child_watches, p.clone()),
                    other => (&mut s.data_watches, other.path().to_owned()),
                };
                if let Some(entries) = map.remove(&path) {
                    for e in entries {
                        to_send.push((
                            e.client,
                            WatchNotification {
                                watch_id: e.watch_id,
                                event: ev.clone(),
                            },
                        ));
                    }
                }
            }
        }
        let timeout = self.inner.borrow().config.rpc_timeout;
        for (client, notif) in to_send {
            self.rpc.call::<()>(
                sim,
                &client,
                "coord.event",
                Arc::new(notif),
                64,
                timeout,
                |_, _| {},
            );
        }
    }

    // ---- RPC handlers --------------------------------------------------------

    fn install_handlers(&self) {
        let this = self.clone();
        self.rpc.serve("paxos.prepare", move |sim, req, responder| {
            let req: &PrepareReq = req.downcast_ref().expect("PrepareReq");
            this.event(sim, |this| {
                if let Some(resp) = this.handle_prepare(req) {
                    responder.reply(sim, Arc::new(resp), 256);
                }
            });
        });
        let this = self.clone();
        self.rpc.serve("paxos.accept", move |sim, req, responder| {
            let req: &AcceptReq = req.downcast_ref().expect("AcceptReq");
            this.event(sim, |this| {
                if let Some(resp) = this.handle_accept(sim, req) {
                    responder.reply(sim, Arc::new(resp), 64);
                }
            });
        });
        let this = self.clone();
        self.rpc.serve_cast("paxos.learn", move |sim, req| {
            let req: &LearnReq = req.downcast_ref().expect("LearnReq");
            this.event(sim, |this| this.apply_learn(sim, req));
        });
        let this = self.clone();
        self.rpc.serve_cast("paxos.learned", move |sim, msg| {
            let msg: &Learned = msg.downcast_ref().expect("Learned");
            this.event(sim, |this| this.on_learned(msg));
        });
        let this = self.clone();
        self.rpc.serve("coord.request", move |sim, req, responder| {
            let req: &ClientReq = req.downcast_ref().expect("ClientReq");
            this.event(sim, |this| this.handle_client(sim, req.clone(), responder));
        });
    }

    fn handle_prepare(&self, req: &PrepareReq) -> Option<PrepareResp> {
        let mut s = self.inner.borrow_mut();
        if s.paused {
            return None;
        }
        let me = s.id;
        if req.ballot < s.ballot {
            return Some(PrepareResp {
                from: me,
                ok: false,
                promised: s.ballot,
                accepted: Vec::new(),
                chosen: Vec::new(),
            });
        }
        s.ballot = req.ballot;
        if req.ballot.node != me {
            s.role = Role::Follower { leader: None };
            s.proposers.clear();
        }
        // Promise on every slot >= from_slot (a term-wide phase 1).
        let mut accepted = Vec::new();
        for (slot, acc) in s.acceptors.range_mut(req.from_slot..) {
            match acc.on_prepare(req.ballot) {
                PrepareReply::Promised {
                    accepted: Some((b, v)),
                    ..
                } => {
                    accepted.push((*slot, b, v));
                }
                PrepareReply::Promised { .. } => {}
                PrepareReply::Rejected { .. } => unreachable!("ballot >= promised"),
            }
        }
        let chosen = s
            .chosen
            .range(req.from_slot..)
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        Some(PrepareResp {
            from: me,
            ok: true,
            promised: req.ballot,
            accepted,
            chosen,
        })
    }

    fn handle_accept(&self, sim: &Sim, req: &AcceptReq) -> Option<AcceptResp> {
        let mut s = self.inner.borrow_mut();
        if s.paused {
            return None;
        }
        let me = s.id;
        if req.ballot < s.ballot {
            return Some(AcceptResp {
                from: me,
                ok: false,
            });
        }
        s.ballot = req.ballot;
        if req.ballot.node != me {
            s.role = Role::Follower {
                leader: Some(req.ballot.node),
            };
            drop(s);
            self.arm_election(sim);
            s = self.inner.borrow_mut();
        }
        let reply = s
            .acceptors
            .entry(req.slot)
            .or_insert_with(Acceptor::new)
            .on_accept(req.ballot, req.cmd.clone());
        Some(AcceptResp {
            from: me,
            ok: matches!(reply, AcceptReply::Accepted { .. }),
        })
    }

    fn handle_client(&self, sim: &Sim, req: ClientReq, responder: Responder) {
        let is_leader = {
            let s = self.inner.borrow();
            if s.paused {
                return;
            }
            matches!(s.role, Role::Leader)
        };
        if !is_leader {
            let hint = self.believed_leader();
            responder.reply(sim, Arc::new(ClientResp::Redirect(hint)), 16);
            return;
        }
        match req {
            ClientReq::Write(cmd) => {
                // Any client activity refreshes its session.
                if let Command::Create { session, .. } = &cmd {
                    let now = sim.now();
                    self.inner
                        .borrow_mut()
                        .session_last_heard
                        .insert(*session, now);
                }
                self.propose_internal(sim, cmd, Some(responder));
            }
            ClientReq::Ping { session } => {
                let now = sim.now();
                self.inner
                    .borrow_mut()
                    .session_last_heard
                    .insert(session, now);
                responder.reply(sim, Arc::new(ClientResp::Pong), 8);
            }
            ClientReq::Read { op, watch } => {
                let peer = responder.peer().clone();
                let result = {
                    let mut s = self.inner.borrow_mut();
                    let result = match &op {
                        ReadOp::Get(p) => {
                            ReadResult::Data(s.store.get(p).map(|(d, stat)| (d, stat.version)))
                        }
                        ReadOp::Exists(p) => ReadResult::Exists(s.store.exists(p)),
                        ReadOp::Children(p) => {
                            ReadResult::Children(s.store.children(p).map(str::to_owned).collect())
                        }
                    };
                    if let Some(w) = watch {
                        let path = match &op {
                            ReadOp::Get(p) | ReadOp::Exists(p) | ReadOp::Children(p) => p.clone(),
                        };
                        let entry = WatchEntry {
                            watch_id: w.watch_id,
                            client: peer,
                        };
                        if w.children {
                            s.child_watches.entry(path).or_default().push(entry);
                        } else {
                            s.data_watches.entry(path).or_default().push(entry);
                        }
                    }
                    result
                };
                responder.reply(sim, Arc::new(ClientResp::Read(result)), 128);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::CreateMode;
    use ustore_net::NetConfig;

    fn cluster(sim: &Sim, n: usize) -> (Network, Vec<CoordServer>) {
        let net = Network::new(NetConfig::default(), sim.seed());
        let addrs: Vec<Addr> = (0..n).map(|i| Addr::new(format!("coord-{i}"))).collect();
        let servers = (0..n)
            .map(|i| CoordServer::new(sim, &net, i as u32, addrs.clone(), CoordConfig::default()))
            .collect();
        (net, servers)
    }

    fn leader(servers: &[CoordServer]) -> Option<&CoordServer> {
        let mut leaders: Vec<&CoordServer> = servers.iter().filter(|s| s.is_leader()).collect();
        (leaders.len() == 1).then(|| leaders.remove(0))
    }

    #[test]
    fn exactly_one_leader_emerges() {
        let sim = Sim::new(11);
        let (_net, servers) = cluster(&sim, 5);
        sim.run_until(SimTime::from_secs(3));
        let l = leader(&servers);
        assert!(l.is_some(), "one leader expected");
        // Everyone agrees on who it is.
        let lid = l.expect("leader").id();
        for s in &servers {
            assert_eq!(s.believed_leader(), Some(lid), "server {} hint", s.id());
        }
    }

    fn propose_ok(sim: &Sim, s: &CoordServer, cmd: Command) {
        s.propose_internal(sim, cmd, None);
    }

    #[test]
    fn committed_commands_apply_everywhere() {
        let sim = Sim::new(12);
        let (_net, servers) = cluster(&sim, 5);
        sim.run_until(SimTime::from_secs(2));
        let l = leader(&servers).expect("leader").clone();
        propose_ok(&sim, &l, Command::CreateSession { id: 7 });
        propose_ok(
            &sim,
            &l,
            Command::Create {
                session: 7,
                path: "/units".into(),
                data: b"16 disks".to_vec(),
                mode: CreateMode::Persistent,
            },
        );
        sim.run_until(SimTime::from_secs(4));
        for s in &servers {
            assert!(
                s.with_store(|st| st.get("/units").is_some()),
                "replica {} applied",
                s.id()
            );
        }
    }

    #[test]
    fn logs_are_consistent_prefixes() {
        let sim = Sim::new(13);
        let (_net, servers) = cluster(&sim, 5);
        sim.run_until(SimTime::from_secs(2));
        let l = leader(&servers).expect("leader").clone();
        propose_ok(&sim, &l, Command::CreateSession { id: 1 });
        for k in 0..10 {
            propose_ok(
                &sim,
                &l,
                Command::Create {
                    session: 1,
                    path: format!("/n{k}"),
                    data: vec![],
                    mode: CreateMode::Persistent,
                },
            );
        }
        sim.run_until(SimTime::from_secs(4));
        let logs: Vec<Vec<Command>> = servers.iter().map(|s| s.applied_log()).collect();
        let longest = logs.iter().map(Vec::len).max().expect("logs");
        assert!(longest >= 11);
        for log in &logs {
            assert_eq!(
                &logs[0][..log.len().min(logs[0].len())],
                &log[..log.len().min(logs[0].len())]
            );
        }
    }

    #[test]
    fn leader_crash_elects_new_leader_and_preserves_log() {
        let sim = Sim::new(14);
        let (net, servers) = cluster(&sim, 5);
        sim.run_until(SimTime::from_secs(2));
        let old = leader(&servers).expect("leader").clone();
        propose_ok(&sim, &old, Command::CreateSession { id: 1 });
        propose_ok(
            &sim,
            &old,
            Command::Create {
                session: 1,
                path: "/durable".into(),
                data: vec![],
                mode: CreateMode::Persistent,
            },
        );
        sim.run_until(SimTime::from_secs(3));
        // Crash the leader (process + network).
        old.pause(&sim);
        net.set_down(&sim, &old.addr());
        sim.run_until(SimTime::from_secs(6));
        let survivors: Vec<&CoordServer> = servers.iter().filter(|s| s.id() != old.id()).collect();
        let new_leaders: Vec<&&CoordServer> = survivors.iter().filter(|s| s.is_leader()).collect();
        assert_eq!(new_leaders.len(), 1, "new leader among survivors");
        let nl = new_leaders[0];
        assert_ne!(nl.id(), old.id());
        assert!(
            nl.with_store(|st| st.get("/durable").is_some()),
            "log preserved"
        );
    }

    #[test]
    fn partitioned_leader_steps_down_on_heal() {
        let sim = Sim::new(15);
        let (net, servers) = cluster(&sim, 5);
        sim.run_until(SimTime::from_secs(2));
        let old = leader(&servers).expect("leader").clone();
        // Cut the old leader off from everyone.
        for s in &servers {
            if s.id() != old.id() {
                net.partition(&sim, &old.addr(), &s.addr());
            }
        }
        sim.run_until(SimTime::from_secs(6));
        let majority_leader: Vec<&CoordServer> = servers
            .iter()
            .filter(|s| s.id() != old.id() && s.is_leader())
            .collect();
        assert_eq!(majority_leader.len(), 1, "majority side elected a leader");
        net.heal(&sim);
        sim.run_until(SimTime::from_secs(10));
        // Exactly one leader overall after healing.
        let l: Vec<&CoordServer> = servers.iter().filter(|s| s.is_leader()).collect();
        assert_eq!(l.len(), 1, "single leader after heal");
    }

    #[test]
    fn paused_replica_catches_up_after_restart() {
        let sim = Sim::new(16);
        let (_net, servers) = cluster(&sim, 5);
        sim.run_until(SimTime::from_secs(2));
        let l = leader(&servers).expect("leader").clone();
        let bystander = servers
            .iter()
            .find(|s| !s.is_leader())
            .expect("follower")
            .clone();
        bystander.pause(&sim);
        propose_ok(&sim, &l, Command::CreateSession { id: 3 });
        propose_ok(
            &sim,
            &l,
            Command::Create {
                session: 3,
                path: "/late".into(),
                data: vec![],
                mode: CreateMode::Persistent,
            },
        );
        sim.run_until(SimTime::from_secs(4));
        assert!(bystander.with_store(|st| st.get("/late").is_none()));
        bystander.restart(&sim);
        sim.run_until(SimTime::from_secs(8));
        assert!(
            bystander.with_store(|st| st.get("/late").is_some()),
            "caught up after restart"
        );
    }

    #[test]
    fn minority_cannot_commit() {
        let sim = Sim::new(17);
        let (net, servers) = cluster(&sim, 5);
        sim.run_until(SimTime::from_secs(2));
        let l = leader(&servers).expect("leader").clone();
        // Split the cluster: the leader and one peer (a minority of 2)
        // against the other three.
        let kept = servers
            .iter()
            .find(|s| s.id() != l.id())
            .expect("peer")
            .id();
        let minority = |s: &CoordServer| s.id() == l.id() || s.id() == kept;
        for a in servers.iter().filter(|s| minority(s)) {
            for b in servers.iter().filter(|s| !minority(s)) {
                net.partition(&sim, &a.addr(), &b.addr());
            }
        }
        // Give the majority side time to elect; then the old leader proposes.
        sim.run_until(SimTime::from_secs(4));
        propose_ok(&sim, &l, Command::CreateSession { id: 99 });
        sim.run_until(SimTime::from_secs(6));
        assert!(
            servers.iter().any(|s| !minority(s) && s.is_leader()),
            "the majority side elected a leader"
        );
        // The command must not be applied on the majority side.
        for s in servers.iter().filter(|s| !minority(s)) {
            assert!(
                s.with_store(|st| !st.has_session(99)),
                "minority proposal must not commit on majority"
            );
        }
    }

    #[test]
    fn caught_up_followers_and_the_leader_learn_nothing() {
        let sim = Sim::new(18);
        let (_net, servers) = cluster(&sim, 5);
        sim.run_until(SimTime::from_secs(2));
        let l = leader(&servers).expect("leader").clone();
        for id in 0..200 {
            propose_ok(&sim, &l, Command::CreateSession { id });
        }
        sim.run_until(SimTime::from_secs(4));
        let s = l.inner.borrow();
        assert!(s.commit_upto() >= 200, "long committed log");
        assert!(
            !s.peer_have.contains_key(&s.id),
            "the leader tracks no progress of its own"
        );
        let entries = s.learn_entries();
        assert_eq!(entries.len(), 5);
        assert_eq!(
            entries[s.id as usize].capacity(),
            0,
            "no list built for the leader"
        );
        assert!(
            entries.iter().all(Vec::is_empty),
            "heartbeats carry no entries"
        );
    }

    /// Events an idle 5-replica cluster executes per simulated minute once
    /// its learn flows are computed: the leader's session sweep every
    /// 500 ms (120 a minute), plus one where the window's edge splits a
    /// sweep interval. Learns, their replies and election timers cost
    /// none.
    const IDLE_EVENTS_PER_MINUTE: u64 = 121;

    #[test]
    fn an_idle_cluster_costs_only_its_session_sweeps() {
        for seed in [11, 12, 13] {
            let sim = Sim::new(seed);
            let (net, servers) = cluster(&sim, 5);
            sim.run_until(SimTime::from_secs(5));
            let l = leader(&servers).expect("leader").id();
            let before = sim.events_processed();
            sim.run_until(SimTime::from_secs(65));
            let events = sim.events_processed() - before;
            assert!(
                events <= IDLE_EVENTS_PER_MINUTE,
                "seed {seed}: an idle minute took {events} events"
            );
            // The learns still happened, as far as anyone can tell.
            sim.settle();
            let (sent, delivered, dropped) = net.stats();
            assert!(sent > 4 * 60 * 19, "seed {seed}: {sent} messages sent");
            assert_eq!((delivered, dropped), (sent, 0));
            assert_eq!(leader(&servers).expect("leader").id(), l, "no election");
        }
    }

    /// A new leader's first learn goes out when it wins, so no follower's
    /// start-up election deadline passes before it hears the leader: an
    /// idle cluster elects exactly one leader.
    #[test]
    fn an_idle_cluster_elects_one_leader_at_start_up() {
        for seed in [11, 12, 13] {
            let sim = Sim::new(seed);
            let (_net, servers) = cluster(&sim, 5);
            sim.run_until(SimTime::from_secs(5));
            let wins: Vec<String> = sim.with_trace(|t| {
                t.events()
                    .iter()
                    .filter(|e| e.message.contains("became leader"))
                    .map(|e| format!("{:?} {}", e.at, e.message))
                    .collect()
            });
            assert_eq!(wins.len(), 1, "seed {seed}: {wins:?}");
            assert!(leader(&servers).is_some(), "seed {seed}: no leader");
        }
    }

    /// What an observer sees of a 5-replica cluster running `scenario`
    /// until `end` ms: every 100 ms each replica's ballot, role and
    /// applied length, and the network's counts; then the applied logs
    /// and the trace log (elections and leaders, with their instants).
    /// Also the engine's event count, which may differ.
    fn observe(
        seed: u64,
        end: u64,
        scenario: impl Fn(&Sim, &Network, &[CoordServer]),
    ) -> (String, u64) {
        let sim = Sim::new(seed);
        let (net, servers) = cluster(&sim, 5);
        scenario(&sim, &net, &servers);
        let mut seen = String::new();
        let mut t = 0;
        while t < end {
            t += 100;
            sim.run_until(SimTime::from_millis(t));
            sim.settle();
            let row: Vec<_> = servers
                .iter()
                .map(|s| {
                    (
                        s.ballot(),
                        s.is_leader(),
                        s.believed_leader(),
                        s.applied_len(),
                    )
                })
                .collect();
            seen += &format!("{t} {row:?} {:?}\n", net.stats());
        }
        for s in &servers {
            seen += &format!("{:?}\n", s.applied_log());
        }
        sim.with_trace(|tr| {
            for e in tr.events() {
                seen += &format!("{e:?}\n");
            }
        });
        (seen, sim.events_processed())
    }

    /// Runs `scenario` with learns computed and with every learn
    /// simulated: both must look the same, and computing must save
    /// events.
    fn assert_learns_match(
        name: &str,
        end: u64,
        scenario: impl Fn(&Sim, &Network, &[CoordServer]) + Copy,
    ) {
        for seed in [21, 22] {
            let run = |on| ustore_net::with_simulated_streams(on, || observe(seed, end, scenario));
            let ((a, ea), (b, eb)) = (run(false), run(true));
            if let Some(i) = a.lines().zip(b.lines()).position(|(x, y)| x != y) {
                panic!(
                    "{name}, seed {seed}: computed and simulated learns differ at line {i}:\n  computed:  {:?}\n  simulated: {:?}",
                    a.lines().nth(i),
                    b.lines().nth(i)
                );
            }
            assert_eq!(a, b, "{name}, seed {seed}");
            assert!(
                ea < eb,
                "{name}: computed learns should save events ({ea} vs {eb})"
            );
        }
    }

    /// Schedules `f` at `at` ms on the replica that leads then.
    fn on_leader(
        sim: &Sim,
        servers: &[CoordServer],
        at: u64,
        f: impl Fn(&Sim, &CoordServer) + 'static,
    ) {
        let servers = servers.to_vec();
        sim.schedule_at(SimTime::from_millis(at), move |sim| {
            if let Some(l) = servers.iter().find(|s| s.is_leader()) {
                f(sim, l);
            }
        });
    }

    /// Schedules `f` at `at` ms on the first replica that does not lead
    /// then.
    fn on_follower(
        sim: &Sim,
        servers: &[CoordServer],
        at: u64,
        f: impl Fn(&Sim, &CoordServer) + 'static,
    ) {
        let servers = servers.to_vec();
        sim.schedule_at(SimTime::from_millis(at), move |sim| {
            if let Some(s) = servers.iter().find(|s| !s.is_leader()) {
                f(sim, s);
            }
        });
    }

    fn kill(sim: &Sim, s: &CoordServer) {
        s.pause(sim);
        s.rpc.network().set_down(sim, &s.addr());
    }

    fn revive(sim: &Sim, s: &CoordServer) {
        s.rpc.network().set_up(sim, &s.addr());
        s.restart(sim);
    }

    #[test]
    fn a_leader_kill_matches_with_every_learn_simulated() {
        assert_learns_match("leader kill", 8_000, |sim, _, servers| {
            on_leader(sim, servers, 3_000, kill);
        });
    }

    #[test]
    fn a_follower_kill_and_restart_matches_with_every_learn_simulated() {
        // The follower misses a whole election, so on its return it must
        // adopt the new leader's ballot from a computed learn.
        assert_learns_match("follower kill and restart", 10_000, |sim, _, servers| {
            let all = servers.to_vec();
            on_follower(sim, servers, 3_000, move |sim, f| {
                kill(sim, f);
                let all = all.clone();
                sim.schedule_in(Duration::from_millis(500), move |sim| {
                    if let Some(l) = all.iter().find(|s| s.is_leader()) {
                        kill(sim, l);
                    }
                });
                let f = f.clone();
                sim.schedule_in(Duration::from_secs(3), move |sim| revive(sim, &f));
            });
        });
    }

    #[test]
    fn a_competing_candidate_matches_with_every_learn_simulated() {
        assert_learns_match("competing candidate", 6_000, |sim, _, servers| {
            on_follower(sim, servers, 3_000, |sim, f| {
                f.event(sim, |f| f.start_election(sim));
            });
        });
    }

    #[test]
    fn a_partition_and_heal_matches_with_every_learn_simulated() {
        assert_learns_match("partition and heal", 9_000, |sim, net, servers| {
            let (net, all) = (net.clone(), servers.to_vec());
            on_leader(sim, servers, 3_000, move |sim, l| {
                for s in all.iter().filter(|s| s.id() != l.id()) {
                    net.partition(sim, &l.addr(), &s.addr());
                }
                let net = net.clone();
                sim.schedule_in(Duration::from_secs(2), move |sim| net.heal(sim));
            });
        });
    }

    #[test]
    fn a_paused_follower_catching_up_matches_with_every_learn_simulated() {
        assert_learns_match("paused follower", 8_000, |sim, _, servers| {
            on_follower(sim, servers, 3_000, |sim, f| {
                f.pause(sim);
                let f = f.clone();
                sim.schedule_in(Duration::from_secs(2), move |sim| f.restart(sim));
            });
            on_leader(sim, servers, 3_500, |sim, l| {
                propose_ok(sim, l, Command::CreateSession { id: 5 });
                propose_ok(sim, l, Command::CreateSession { id: 6 });
            });
        });
    }

    /// The leader's link to a follower is blocked exactly on a send
    /// instant of its learns, the next point of the term's grid after 3 s,
    /// while the stream to that follower is open. Ticks are early events,
    /// so that learn counts as sent before the block applies, in both
    /// runs; the stream ends with it, and the re-armed tick must send the
    /// next one. An off-by-one in either moves the network's counts.
    #[test]
    fn a_stream_ended_on_a_send_instant_matches_with_every_learn_simulated() {
        assert_learns_match("block on a send instant", 6_000, |sim, net, servers| {
            let (net, all) = (net.clone(), servers.to_vec());
            on_leader(sim, servers, 3_000, move |sim, l| {
                let (at, pid) = {
                    let s = l.inner.borrow();
                    let at = S::next_on_grid(s.term_start, s.config.heartbeat_interval, sim.now());
                    (at, (l.id() as usize + 1) % s.peers.len())
                };
                let (net, l, to) = (net.clone(), l.clone(), all[pid].addr());
                sim.schedule_at(at, move |sim| {
                    let open = l.inner.borrow().out[pid].streaming().is_some();
                    assert!(open || ustore_net::simulated_streams(), "no stream open");
                    net.block(sim, &l.addr(), &to);
                    let net = net.clone();
                    sim.schedule_in(Duration::from_secs(1), move |sim| net.heal(sim));
                });
            });
        });
    }

    #[test]
    fn a_proposal_mid_stream_matches_with_every_learn_simulated() {
        assert_learns_match("proposal mid-stream", 6_000, |sim, _, servers| {
            for (k, at) in [3_000, 3_020, 4_000].into_iter().enumerate() {
                on_leader(sim, servers, at, move |sim, l| {
                    propose_ok(sim, l, Command::CreateSession { id: k as u64 });
                });
            }
        });
    }
}
