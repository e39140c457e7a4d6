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

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use ustore_net::{Addr, Network, Responder, RpcNode};
use ustore_sim::{CounterHandle, Sim, SimTime, TraceLevel};

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

#[derive(Clone)]
pub(crate) struct LearnReq {
    pub ballot: Ballot,
    pub leader: u32,
    pub entries: Vec<(u64, Command)>,
}

#[derive(Clone)]
pub(crate) struct LearnResp {
    /// Slots below this are chosen at the responder.
    pub have_upto: u64,
}

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

struct S {
    id: u32,
    peers: Vec<Addr>,
    config: CoordConfig,
    paused: bool,
    timer_gen: u64,

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

    /// The committed entries each replica lacks, indexed by replica id.
    /// The leader's own slot stays empty: it has its whole log.
    fn learn_entries(&self) -> Vec<Vec<(u64, Command)>> {
        let commit = self.commit_upto();
        (0..self.peers.len() as u32)
            .map(|pid| {
                if pid == self.id {
                    return Vec::new();
                }
                let have = self.peer_have.get(&pid).copied().unwrap_or(0);
                self.chosen
                    .range(have..commit)
                    .map(|(k, v)| (*k, v.clone()))
                    .collect()
            })
            .collect()
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
        let server = CoordServer {
            rpc,
            metrics,
            inner: Rc::new(RefCell::new(S {
                id,
                peers,
                config,
                paused: false,
                timer_gen: 0,
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
        server.arm_election_timer(sim);
        server.arm_session_sweeper(sim);
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
    pub fn pause(&self) {
        let mut s = self.inner.borrow_mut();
        s.paused = true;
        s.timer_gen += 1;
    }

    /// Restarts a paused replica (durable state intact, volatile leadership
    /// forgotten).
    pub fn restart(&self, sim: &Sim) {
        {
            let mut s = self.inner.borrow_mut();
            s.paused = false;
            s.role = Role::Follower { leader: None };
            s.proposers.clear();
            s.pending.clear();
        }
        self.arm_election_timer(sim);
        self.arm_session_sweeper(sim);
    }

    // ---- Timers ---------------------------------------------------------

    fn arm_election_timer(&self, sim: &Sim) {
        let (gen, delay) = {
            let mut s = self.inner.borrow_mut();
            s.timer_gen += 1;
            let min = s.config.election_timeout_min.as_nanos() as u64;
            let max = s.config.election_timeout_max.as_nanos() as u64;
            let d = sim.with_rng(|r| r.range_u64(min, max.max(min + 1)));
            (s.timer_gen, Duration::from_nanos(d))
        };
        let this = self.clone();
        sim.schedule_in(delay, move |sim| {
            let expired = {
                let s = this.inner.borrow();
                !s.paused && s.timer_gen == gen && !matches!(s.role, Role::Leader)
            };
            if expired {
                this.start_election(sim);
            }
        });
    }

    fn arm_session_sweeper(&self, sim: &Sim) {
        let this = self.clone();
        let interval = self.inner.borrow().config.session_sweep_interval;
        sim.schedule_in(interval, move |sim| {
            {
                let s = this.inner.borrow();
                if s.paused {
                    return; // resumed by restart()
                }
            }
            this.sweep_sessions(sim);
            this.arm_session_sweeper(sim);
        });
    }

    fn sweep_sessions(&self, sim: &Sim) {
        let expired: Vec<SessionId> = {
            let s = self.inner.borrow();
            if !matches!(s.role, Role::Leader) {
                return;
            }
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
        for (pid, addr) in peers.iter().enumerate() {
            let this = self.clone();
            self.rpc.call::<PrepareResp>(
                sim,
                addr,
                "paxos.prepare",
                Arc::new(req.clone()),
                128,
                timeout,
                move |sim, resp| {
                    let _ = pid;
                    if let Ok(r) = resp {
                        this.on_prepare_resp(sim, ballot, (*r).clone());
                    }
                },
            );
        }
        // If the election stalls, the timer fires again with a higher ballot.
        self.arm_election_timer(sim);
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
            s.timer_gen += 1; // stop follower timer
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
            todo
        };
        self.metrics.leader_changes.inc();
        sim.trace(
            TraceLevel::Info,
            "coord",
            format!("{} became leader at {ballot}", self.id()),
        );
        for (slot, cmd) in reproposals {
            self.send_accepts(sim, ballot, slot, cmd, None);
        }
        self.apply_ready(sim);
        self.arm_heartbeat(sim);
    }

    fn arm_heartbeat(&self, sim: &Sim) {
        let interval = self.inner.borrow().config.heartbeat_interval;
        let this = self.clone();
        sim.schedule_in(interval, move |sim| {
            let go = {
                let s = this.inner.borrow();
                !s.paused && matches!(s.role, Role::Leader)
            };
            if go {
                this.broadcast_learn(sim);
                this.arm_heartbeat(sim);
            }
        });
    }

    fn broadcast_learn(&self, sim: &Sim) {
        let (ballot, me, peers, mut per_peer) = {
            let s = self.inner.borrow();
            (s.ballot, s.id, s.peers.clone(), s.learn_entries())
        };
        let timeout = self.inner.borrow().config.rpc_timeout;
        for (pid, addr) in peers.iter().enumerate() {
            if pid as u32 == me {
                continue;
            }
            let req = LearnReq {
                ballot,
                leader: me,
                entries: std::mem::take(&mut per_peer[pid]),
            };
            let this = self.clone();
            let pid = pid as u32;
            self.rpc.call::<LearnResp>(
                sim,
                addr,
                "paxos.learn",
                Arc::new(req),
                256,
                timeout,
                move |_sim, resp| {
                    if let Ok(r) = resp {
                        let mut s = this.inner.borrow_mut();
                        let e = s.peer_have.entry(pid).or_insert(0);
                        *e = (*e).max(r.have_upto);
                    }
                },
            );
        }
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
        self.send_accepts(sim, ballot, slot, cmd, None);
    }

    fn send_accepts(&self, sim: &Sim, ballot: Ballot, slot: u64, cmd: Command, _: Option<()>) {
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
                        this.on_accept_resp(sim, ballot, slot, (*r).clone());
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
                self.arm_election_timer(sim);
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
            self.broadcast_learn(sim);
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
            let resp = this.handle_prepare(sim, req);
            if let Some(resp) = resp {
                responder.reply(sim, Arc::new(resp), 256);
            }
        });
        let this = self.clone();
        self.rpc.serve("paxos.accept", move |sim, req, responder| {
            let req: &AcceptReq = req.downcast_ref().expect("AcceptReq");
            if let Some(resp) = this.handle_accept(sim, req) {
                responder.reply(sim, Arc::new(resp), 64);
            }
        });
        let this = self.clone();
        self.rpc.serve("paxos.learn", move |sim, req, responder| {
            let req: &LearnReq = req.downcast_ref().expect("LearnReq");
            if let Some(resp) = this.handle_learn(sim, req) {
                responder.reply(sim, Arc::new(resp), 64);
            }
        });
        let this = self.clone();
        self.rpc.serve("coord.request", move |sim, req, responder| {
            let req: &ClientReq = req.downcast_ref().expect("ClientReq");
            this.handle_client(sim, req.clone(), responder);
        });
    }

    fn handle_prepare(&self, _sim: &Sim, req: &PrepareReq) -> Option<PrepareResp> {
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
            s.timer_gen += 1;
            drop(s);
            self.arm_election_timer(sim);
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

    fn handle_learn(&self, sim: &Sim, req: &LearnReq) -> Option<LearnResp> {
        {
            let mut s = self.inner.borrow_mut();
            if s.paused {
                return None;
            }
            if req.ballot < s.ballot {
                let have = s.commit_upto();
                return Some(LearnResp { have_upto: have });
            }
            s.ballot = req.ballot;
            if req.leader != s.id {
                s.role = Role::Follower {
                    leader: Some(req.leader),
                };
                s.timer_gen += 1;
            }
            for (slot, cmd) in &req.entries {
                s.chosen.entry(*slot).or_insert_with(|| cmd.clone());
            }
        }
        self.arm_election_timer(sim);
        self.apply_ready(sim);
        let s = self.inner.borrow();
        Some(LearnResp {
            have_upto: s.commit_upto(),
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
    use std::cell::Cell;
    use ustore_net::NetConfig;

    fn cluster(sim: &Sim, n: usize) -> (Network, Vec<CoordServer>) {
        let net = Network::new(NetConfig::default());
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
        old.pause();
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
                net.partition(&old.addr(), &s.addr());
            }
        }
        sim.run_until(SimTime::from_secs(6));
        let majority_leader: Vec<&CoordServer> = servers
            .iter()
            .filter(|s| s.id() != old.id() && s.is_leader())
            .collect();
        assert_eq!(majority_leader.len(), 1, "majority side elected a leader");
        net.heal();
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
        bystander.pause();
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
        // Partition the leader with just one peer (minority of 2).
        let mut kept = 0;
        for s in &servers {
            if s.id() != l.id() {
                if kept < 1 {
                    kept += 1;
                    continue;
                }
                net.partition(&l.addr(), &s.addr());
            }
        }
        // Give the majority side time to elect; then the old leader proposes.
        sim.run_until(SimTime::from_secs(4));
        let done = Rc::new(Cell::new(false));
        propose_ok(&sim, &l, Command::CreateSession { id: 99 });
        let _ = done;
        sim.run_until(SimTime::from_secs(6));
        // The command must not be applied on the majority side.
        for s in &servers {
            if s.id() != l.id() && s.is_leader() {
                assert!(
                    s.with_store(|st| !st.has_session(99)),
                    "minority proposal must not commit on majority"
                );
            }
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
}
