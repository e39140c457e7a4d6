//! Session-oriented client for the coordination service.
//!
//! [`CoordClient`] hides the cluster topology: it discovers the leader by
//! following redirects, retries across leader changes, keeps its session
//! alive with pings, and dispatches watch notifications to registered
//! callbacks. [`Election`] is the classic ZooKeeper leader-election recipe
//! (ephemeral-sequential children, watch your predecessor) that the UStore
//! Master's active/standby processes use (§V-B: "The active process is
//! elected by ZooKeeper").

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use ustore_net::{Addr, Network, Replicas, RetryPolicy, RpcNode, Verdict};
use ustore_sim::faultgen::mix_seed;
use ustore_sim::{Sim, TraceLevel};

use crate::rsm::{ClientReq, ClientResp, ReadOp, ReadResult, WatchNotification, WatchReg};
use crate::store::{Applied, Command, CreateMode, SessionId, StoreError, WatchEvent};

/// Client-side tunables.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientConfig {
    /// Session keep-alive interval (must beat the server's
    /// `session_timeout`).
    pub ping_interval: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            ping_interval: Duration::from_millis(500),
        }
    }
}

/// How a request finds the leader: per-attempt timeout, attempts across
/// servers, and the delay between them.
const REQUEST: RetryPolicy = RetryPolicy {
    timeout: Duration::from_millis(400),
    attempts: 10,
    backoff: Duration::from_millis(150),
};

/// Client-visible failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Could not reach a leader within the retry budget.
    NoLeader,
    /// The store rejected the command.
    Store(StoreError),
    /// An operation requiring a session ran before [`CoordClient::connect`].
    NotConnected,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::NoLeader => write!(f, "no coordination leader reachable"),
            ClientError::Store(e) => write!(f, "store error: {e}"),
            ClientError::NotConnected => write!(f, "client has no session"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<StoreError> for ClientError {
    fn from(e: StoreError) -> Self {
        ClientError::Store(e)
    }
}

type WatchCb = Box<dyn FnOnce(&Sim, WatchEvent)>;

struct C {
    config: ClientConfig,
    session: Option<SessionId>,
    pinging: bool,
    /// Sessions this client has asked for, which keys the next one's id.
    connects: u64,
    next_watch: u64,
    watches: HashMap<u64, WatchCb>,
}

/// A coordination-service client bound to one network address.
#[derive(Clone)]
pub struct CoordClient {
    servers: Replicas,
    inner: Rc<RefCell<C>>,
}

impl fmt::Debug for CoordClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.inner.borrow();
        f.debug_struct("CoordClient")
            .field("addr", self.rpc().addr())
            .field("session", &c.session)
            .finish()
    }
}

impl CoordClient {
    /// Creates a client at `addr` that talks to the cluster at `servers`.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty.
    pub fn new(net: &Network, addr: Addr, servers: Vec<Addr>, config: ClientConfig) -> Self {
        assert!(!servers.is_empty(), "need at least one server");
        let rpc = RpcNode::new(net, addr);
        let client = CoordClient {
            servers: Replicas::new(rpc.clone(), servers),
            inner: Rc::new(RefCell::new(C {
                config,
                session: None,
                pinging: false,
                connects: 0,
                next_watch: 0,
                watches: HashMap::new(),
            })),
        };
        let c = client.clone();
        rpc.serve("coord.event", move |sim, req, responder| {
            let notif: &WatchNotification = req.downcast_ref().expect("WatchNotification");
            let cb = c.inner.borrow_mut().watches.remove(&notif.watch_id);
            responder.reply(sim, Arc::new(()), 8);
            if let Some(cb) = cb {
                cb(sim, notif.event.clone());
            }
        });
        // Pending watch callbacks capture whoever registered them — which
        // is usually the component that owns this client, a cycle the RPC
        // endpoint's own breaker cannot see. Clear them at teardown,
        // capturing weakly so the registry keeps nothing alive.
        let weak = Rc::downgrade(&client.inner);
        net.on_teardown(move || {
            if let Some(inner) = weak.upgrade() {
                let watches = std::mem::take(&mut inner.borrow_mut().watches);
                drop(watches);
            }
        });
        client
    }

    /// The current session id, if connected.
    pub fn session(&self) -> Option<SessionId> {
        self.inner.borrow().session
    }

    /// The client's network address.
    pub fn addr(&self) -> Addr {
        self.rpc().addr().clone()
    }

    /// The client's RPC endpoint (for co-hosting other protocols).
    pub fn rpc(&self) -> &RpcNode {
        self.servers.rpc()
    }

    // ---- Core request/retry machinery ------------------------------------

    /// Sends `req` to the leader: a follower's redirect names it, and a
    /// server that cannot say (or does not answer) passes the request on.
    fn request(
        &self,
        sim: &Sim,
        req: ClientReq,
        cb: impl FnOnce(&Sim, Result<ClientResp, ClientError>) + 'static,
    ) {
        self.servers.call::<ClientResp, _>(
            sim,
            "coord.request",
            Arc::new(req),
            256,
            REQUEST,
            |_, resp| match resp.map(Arc::unwrap_or_clone) {
                Ok(ClientResp::Redirect(Some(h))) => Verdict::Redirect(h as usize),
                Ok(ClientResp::Redirect(None)) | Err(_) => Verdict::Next,
                Ok(other) => Verdict::Done(other),
            },
            move |sim, resp| cb(sim, resp.ok_or(ClientError::NoLeader)),
        );
    }

    fn write(
        &self,
        sim: &Sim,
        cmd: Command,
        cb: impl FnOnce(&Sim, Result<Applied, ClientError>) + 'static,
    ) {
        self.request(sim, ClientReq::Write(cmd), move |sim, resp| {
            let r = match resp {
                Err(e) => Err(e),
                Ok(ClientResp::Write(Ok(applied))) => Ok(applied),
                Ok(ClientResp::Write(Err(e))) => Err(ClientError::Store(e)),
                Ok(_) => Err(ClientError::NoLeader),
            };
            cb(sim, r);
        });
    }

    // ---- Session ----------------------------------------------------------

    /// Establishes a session; `cb` receives the session id, keyed by the
    /// client's address and how many sessions it has asked for. Pings start
    /// automatically to keep the session (and its ephemerals) alive.
    pub fn connect(
        &self,
        sim: &Sim,
        cb: impl FnOnce(&Sim, Result<SessionId, ClientError>) + 'static,
    ) {
        let connects = {
            let mut c = self.inner.borrow_mut();
            c.connects += 1;
            c.connects
        };
        let rpc = self.rpc();
        let id: SessionId = mix_seed(rpc.network().key_of(rpc.addr()), connects) | 1;
        let this = self.clone();
        self.write(sim, Command::CreateSession { id }, move |sim, r| match r {
            Ok(_) => {
                {
                    let mut c = this.inner.borrow_mut();
                    c.session = Some(id);
                    c.pinging = true;
                }
                this.arm_ping(sim);
                sim.trace(
                    TraceLevel::Info,
                    "coord-client",
                    format!("session {id} open"),
                );
                cb(sim, Ok(id));
            }
            Err(e) => cb(sim, Err(e)),
        });
    }

    fn arm_ping(&self, sim: &Sim) {
        let interval = self.inner.borrow().config.ping_interval;
        let this = self.clone();
        sim.schedule_in(interval, move |sim| {
            let session = {
                let c = this.inner.borrow();
                if !c.pinging {
                    return;
                }
                c.session
            };
            if let Some(s) = session {
                this.request(sim, ClientReq::Ping { session: s }, |_, _| {});
            }
            this.arm_ping(sim);
        });
    }

    /// Stops keep-alive pings; the server will expire the session (and
    /// delete its ephemerals) after its session timeout. Simulates a client
    /// crash.
    pub fn stop_pinging(&self) {
        self.inner.borrow_mut().pinging = false;
    }

    fn require_session(&self) -> Result<SessionId, ClientError> {
        self.inner.borrow().session.ok_or(ClientError::NotConnected)
    }

    // ---- Writes -------------------------------------------------------------

    /// Creates a znode; `cb` receives the actual path (sequential modes
    /// append a suffix).
    pub fn create(
        &self,
        sim: &Sim,
        path: impl Into<String>,
        data: Vec<u8>,
        mode: CreateMode,
        cb: impl FnOnce(&Sim, Result<String, ClientError>) + 'static,
    ) {
        let session = match self.require_session() {
            Ok(s) => s,
            Err(e) => {
                sim.schedule_now(move |sim| cb(sim, Err(e)));
                return;
            }
        };
        self.write(
            sim,
            Command::Create {
                session,
                path: path.into(),
                data,
                mode,
            },
            move |sim, r| {
                cb(
                    sim,
                    r.map(|a| match a {
                        Applied::Created(p) => p,
                        other => unreachable!("create returned {other:?}"),
                    }),
                );
            },
        );
    }

    /// Deletes a znode (optionally version-checked).
    pub fn delete(
        &self,
        sim: &Sim,
        path: impl Into<String>,
        version: Option<u64>,
        cb: impl FnOnce(&Sim, Result<(), ClientError>) + 'static,
    ) {
        self.write(
            sim,
            Command::Delete {
                path: path.into(),
                version,
            },
            move |sim, r| {
                cb(sim, r.map(|_| ()));
            },
        );
    }

    /// Replaces a znode's data; `cb` receives the new version.
    pub fn set_data(
        &self,
        sim: &Sim,
        path: impl Into<String>,
        data: Vec<u8>,
        version: Option<u64>,
        cb: impl FnOnce(&Sim, Result<u64, ClientError>) + 'static,
    ) {
        self.write(
            sim,
            Command::SetData {
                path: path.into(),
                data,
                version,
            },
            move |sim, r| {
                cb(
                    sim,
                    r.map(|a| match a {
                        Applied::DataSet(v) => v,
                        other => unreachable!("set_data returned {other:?}"),
                    }),
                );
            },
        );
    }

    // ---- Reads and watches ---------------------------------------------------

    fn read(
        &self,
        sim: &Sim,
        op: ReadOp,
        watch: Option<WatchCb>,
        children_watch: bool,
        cb: impl FnOnce(&Sim, Result<ReadResult, ClientError>) + 'static,
    ) {
        let reg = watch.map(|cb| {
            let mut c = self.inner.borrow_mut();
            let id = c.next_watch;
            c.next_watch += 1;
            c.watches.insert(id, cb);
            WatchReg {
                watch_id: id,
                children: children_watch,
            }
        });
        self.request(sim, ClientReq::Read { op, watch: reg }, move |sim, resp| {
            let r = match resp {
                Err(e) => Err(e),
                Ok(ClientResp::Read(rr)) => Ok(rr),
                Ok(_) => Err(ClientError::NoLeader),
            };
            cb(sim, r);
        });
    }

    /// Reads a node's data and version (None if it does not exist).
    pub fn get(
        &self,
        sim: &Sim,
        path: impl Into<String>,
        cb: impl FnOnce(&Sim, Result<Option<(Vec<u8>, u64)>, ClientError>) + 'static,
    ) {
        self.read(sim, ReadOp::Get(path.into()), None, false, move |sim, r| {
            cb(
                sim,
                r.map(|rr| match rr {
                    ReadResult::Data(d) => d,
                    other => unreachable!("get returned {other:?}"),
                }),
            );
        });
    }

    /// Existence check, optionally leaving a one-shot watch that fires when
    /// the node is created, deleted or its data changes.
    pub fn exists_watch(
        &self,
        sim: &Sim,
        path: impl Into<String>,
        watch: Option<Box<dyn FnOnce(&Sim, WatchEvent)>>,
        cb: impl FnOnce(&Sim, Result<bool, ClientError>) + 'static,
    ) {
        self.read(
            sim,
            ReadOp::Exists(path.into()),
            watch,
            false,
            move |sim, r| {
                cb(
                    sim,
                    r.map(|rr| match rr {
                        ReadResult::Exists(b) => b,
                        other => unreachable!("exists returned {other:?}"),
                    }),
                );
            },
        );
    }

    /// Sorted child names, optionally leaving a one-shot children watch.
    pub fn children_watch(
        &self,
        sim: &Sim,
        path: impl Into<String>,
        watch: Option<Box<dyn FnOnce(&Sim, WatchEvent)>>,
        cb: impl FnOnce(&Sim, Result<Vec<String>, ClientError>) + 'static,
    ) {
        self.read(
            sim,
            ReadOp::Children(path.into()),
            watch,
            true,
            move |sim, r| {
                cb(
                    sim,
                    r.map(|rr| match rr {
                        ReadResult::Children(c) => c,
                        other => unreachable!("children returned {other:?}"),
                    }),
                );
            },
        );
    }
}

// ---- Leader election recipe ----------------------------------------------

/// ZooKeeper-style leader election: each participant creates an
/// ephemeral-sequential node under a base path; the smallest sequence
/// leads; everyone else watches its predecessor.
///
/// The `on_change` callback fires with `true` when this participant
/// acquires leadership. Losing leadership happens only via session expiry
/// (crash), at which point the process is presumed dead.
pub struct Election {
    client: CoordClient,
    base: String,
    me: Rc<RefCell<Option<String>>>,
    on_change: Rc<dyn Fn(&Sim, bool)>,
}

impl fmt::Debug for Election {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Election")
            .field("base", &self.base)
            .field("me", &*self.me.borrow())
            .finish()
    }
}

impl Election {
    /// Joins the election under `base` (created if missing). Requires a
    /// connected client.
    pub fn join(
        sim: &Sim,
        client: &CoordClient,
        base: impl Into<String>,
        on_change: impl Fn(&Sim, bool) + 'static,
    ) -> Rc<Election> {
        let e = Rc::new(Election {
            client: client.clone(),
            base: base.into(),
            me: Rc::new(RefCell::new(None)),
            on_change: Rc::new(on_change),
        });
        // Ensure every component of the base path exists, then register a
        // candidate node and evaluate.
        let components: Vec<String> = {
            let mut acc = String::new();
            e.base
                .split('/')
                .filter(|s| !s.is_empty())
                .map(|seg| {
                    acc.push('/');
                    acc.push_str(seg);
                    acc.clone()
                })
                .collect()
        };
        fn ensure(sim: &Sim, e: Rc<Election>, components: Vec<String>, idx: usize) {
            if idx == components.len() {
                let e2 = e.clone();
                let path = format!("{}/cand-", e.base);
                e.client.create(
                    sim,
                    path,
                    Vec::new(),
                    CreateMode::EphemeralSequential,
                    move |sim, r| match r {
                        Ok(actual) => {
                            *e2.me.borrow_mut() = Some(actual);
                            e2.evaluate(sim);
                        }
                        Err(err) => sim.trace(
                            TraceLevel::Error,
                            "election",
                            format!("cannot create candidate node: {err}"),
                        ),
                    },
                );
                return;
            }
            let path = components[idx].clone();
            let e2 = e.clone();
            e.client.create(
                sim,
                path,
                Vec::new(),
                CreateMode::Persistent,
                move |sim, r| match r {
                    Ok(_) | Err(ClientError::Store(StoreError::NodeExists)) => {
                        ensure(sim, e2, components, idx + 1);
                    }
                    Err(other) => sim.trace(
                        TraceLevel::Error,
                        "election",
                        format!("cannot ensure base path: {other}"),
                    ),
                },
            );
        }
        ensure(sim, e.clone(), components, 0);
        e
    }

    fn evaluate(self: &Rc<Self>, sim: &Sim) {
        let Some(me) = self.me.borrow().clone() else {
            return;
        };
        let this = self.clone();
        self.client
            .children_watch(sim, self.base.clone(), None, move |sim, r| {
                let Ok(mut kids) = r else { return };
                kids.sort();
                let my_name = me.rsplit('/').next().expect("path has name").to_owned();
                let Some(my_idx) = kids.iter().position(|k| *k == my_name) else {
                    // Our node is gone (session expired): we lost.
                    (this.on_change)(sim, false);
                    return;
                };
                if my_idx == 0 {
                    sim.trace(
                        TraceLevel::Info,
                        "election",
                        format!("{} leads {}", my_name, this.base),
                    );
                    (this.on_change)(sim, true);
                } else {
                    // Watch the predecessor's deletion, then re-evaluate.
                    let pred = format!("{}/{}", this.base, kids[my_idx - 1]);
                    let this2 = this.clone();
                    let watch: Box<dyn FnOnce(&Sim, WatchEvent)> = Box::new(move |sim, _ev| {
                        this2.evaluate(sim);
                    });
                    let this3 = this.clone();
                    this.client
                        .exists_watch(sim, pred, Some(watch), move |sim, r| {
                            // If the predecessor vanished between listing and watch
                            // registration, re-evaluate immediately.
                            if let Ok(false) = r {
                                this3.evaluate(sim);
                            }
                        });
                }
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsm::{CoordConfig, CoordServer};
    use std::cell::Cell;
    use ustore_net::NetConfig;
    use ustore_sim::SimTime;

    struct Fixture {
        sim: Sim,
        net: Network,
        servers: Vec<CoordServer>,
    }

    fn fixture(seed: u64) -> Fixture {
        let sim = Sim::new(seed);
        let net = Network::new(NetConfig::default(), sim.seed());
        let addrs: Vec<Addr> = (0..5).map(|i| Addr::new(format!("coord-{i}"))).collect();
        let servers = (0..5)
            .map(|i| CoordServer::new(&sim, &net, i, addrs.clone(), CoordConfig::default()))
            .collect();
        Fixture { sim, net, servers }
    }

    fn coord_addrs() -> Vec<Addr> {
        (0..5).map(|i| Addr::new(format!("coord-{i}"))).collect()
    }

    fn connected_client(f: &Fixture, name: &str) -> CoordClient {
        let client = CoordClient::new(
            &f.net,
            Addr::new(name),
            coord_addrs(),
            ClientConfig::default(),
        );
        let ok = Rc::new(Cell::new(false));
        let o = ok.clone();
        client.connect(&f.sim, move |_, r| {
            r.expect("connect");
            o.set(true);
        });
        f.sim.run_until(f.sim.now() + Duration::from_secs(5));
        assert!(ok.get(), "client connected");
        client
    }

    #[test]
    fn connect_and_crud() {
        let f = fixture(21);
        f.sim.run_until(SimTime::from_secs(2));
        let client = connected_client(&f, "client-a");
        let done = Rc::new(Cell::new(false));
        let d = done.clone();
        let c2 = client.clone();
        client.create(
            &f.sim,
            "/cfg",
            b"v1".to_vec(),
            CreateMode::Persistent,
            move |sim, r| {
                assert_eq!(r.expect("create"), "/cfg");
                let c3 = c2.clone();
                c2.set_data(sim, "/cfg", b"v2".to_vec(), None, move |sim, r| {
                    assert_eq!(r.expect("set"), 1);
                    let c4 = c3.clone();
                    c3.get(sim, "/cfg", move |sim, r| {
                        assert_eq!(r.expect("get"), Some((b"v2".to_vec(), 1)));
                        c4.delete(sim, "/cfg", None, move |_, r| {
                            r.expect("delete");
                            d.set(true);
                        });
                    });
                });
            },
        );
        f.sim.run_until(f.sim.now() + Duration::from_secs(5));
        assert!(done.get());
    }

    #[test]
    fn store_errors_surface() {
        let f = fixture(22);
        f.sim.run_until(SimTime::from_secs(2));
        let client = connected_client(&f, "client-a");
        let got = Rc::new(Cell::new(false));
        let g = got.clone();
        client.delete(&f.sim, "/missing", None, move |_, r| {
            assert_eq!(r.unwrap_err(), ClientError::Store(StoreError::NoNode));
            g.set(true);
        });
        f.sim.run_until(f.sim.now() + Duration::from_secs(5));
        assert!(got.get());
    }

    #[test]
    fn create_before_connect_fails() {
        let f = fixture(26);
        let client = CoordClient::new(
            &f.net,
            Addr::new("client-x"),
            coord_addrs(),
            ClientConfig::default(),
        );
        let got = Rc::new(Cell::new(false));
        let g = got.clone();
        client.create(&f.sim, "/x", vec![], CreateMode::Persistent, move |_, r| {
            assert_eq!(r.unwrap_err(), ClientError::NotConnected);
            g.set(true);
        });
        f.sim.run_until(SimTime::from_secs(1));
        assert!(got.get());
    }

    #[test]
    fn operations_survive_leader_failover() {
        let f = fixture(23);
        f.sim.run_until(SimTime::from_secs(2));
        let client = connected_client(&f, "client-a");
        // Kill the current leader.
        let leader = f
            .servers
            .iter()
            .find(|s| s.is_leader())
            .expect("leader")
            .clone();
        leader.pause(&f.sim);
        f.net.set_down(&f.sim, &leader.addr());
        // Issue a write immediately; the client should retry to the new
        // leader.
        let done = Rc::new(Cell::new(false));
        let d = done.clone();
        client.create(
            &f.sim,
            "/survives",
            Vec::new(),
            CreateMode::Persistent,
            move |_, r| {
                r.expect("create after failover");
                d.set(true);
            },
        );
        f.sim.run_until(f.sim.now() + Duration::from_secs(10));
        assert!(done.get());
    }

    #[test]
    fn ephemerals_vanish_when_client_stops_pinging() {
        let f = fixture(24);
        f.sim.run_until(SimTime::from_secs(2));
        let a = connected_client(&f, "client-a");
        let b = connected_client(&f, "client-b");
        a.create(
            &f.sim,
            "/live",
            Vec::new(),
            CreateMode::Persistent,
            |_, r| {
                r.expect("base");
            },
        );
        f.sim.run_until(f.sim.now() + Duration::from_secs(2));
        a.create(
            &f.sim,
            "/live/host-a",
            Vec::new(),
            CreateMode::Ephemeral,
            |_, r| {
                r.expect("ephemeral");
            },
        );
        f.sim.run_until(f.sim.now() + Duration::from_secs(2));
        // Watch from b, then crash a.
        let fired = Rc::new(Cell::new(false));
        let fi = fired.clone();
        let watch: Box<dyn FnOnce(&Sim, WatchEvent)> = Box::new(move |_, ev| {
            assert_eq!(ev, WatchEvent::Deleted("/live/host-a".into()));
            fi.set(true);
        });
        b.exists_watch(&f.sim, "/live/host-a", Some(watch), |_, r| {
            assert!(r.expect("exists"), "node present before crash");
        });
        f.sim.run_until(f.sim.now() + Duration::from_secs(1));
        a.stop_pinging();
        f.sim.run_until(f.sim.now() + Duration::from_secs(10));
        assert!(fired.get(), "deletion watch fired after session expiry");
        let check = Rc::new(Cell::new(false));
        let ch = check.clone();
        b.exists_watch(&f.sim, "/live/host-a", None, move |_, r| {
            assert!(!r.expect("exists check"));
            ch.set(true);
        });
        f.sim.run_until(f.sim.now() + Duration::from_secs(3));
        assert!(check.get());
    }

    #[test]
    fn election_picks_one_and_fails_over() {
        let f = fixture(25);
        f.sim.run_until(SimTime::from_secs(2));
        let a = connected_client(&f, "master-a");
        let b = connected_client(&f, "master-b");
        let a_leads = Rc::new(Cell::new(false));
        let b_leads = Rc::new(Cell::new(false));
        let al = a_leads.clone();
        let _ea = Election::join(&f.sim, &a, "/election/master", move |_, lead| {
            al.set(lead);
        });
        f.sim.run_until(f.sim.now() + Duration::from_secs(3));
        let bl = b_leads.clone();
        let _eb = Election::join(&f.sim, &b, "/election/master", move |_, lead| {
            bl.set(lead);
        });
        f.sim.run_until(f.sim.now() + Duration::from_secs(3));
        assert!(a_leads.get(), "first joiner leads");
        assert!(!b_leads.get(), "second joiner waits");
        // Crash a: its ephemeral candidate node expires, b takes over.
        a.stop_pinging();
        f.sim.run_until(f.sim.now() + Duration::from_secs(12));
        assert!(b_leads.get(), "standby took over after leader crash");
    }
}
