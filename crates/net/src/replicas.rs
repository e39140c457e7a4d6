//! Reaching a replicated service.
//!
//! The coordination ensemble (one Paxos leader), the Master (one active
//! process, §IV-A) and each unit's Controllers (a primary and a backup,
//! §IV-C) all serve from one replica at a time. A [`Replicas`] holds the
//! addresses and a hint at the serving one, shared by every call made
//! through it. The hint moves on [`Verdict::Next`] only if it still names
//! the replica that attempt used, so a late failure never moves it back.
//! A one-way message to the [hinted](Replicas::hinted) replica hears
//! nothing back; the service moves the hint itself by naming its serving
//! replica ([`Replicas::point_at`]).

use std::any::Any;
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use ustore_sim::Sim;

use crate::network::{Addr, Payload};
use crate::rpc::{RpcError, RpcNode};

/// How one caller retries across replicas.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Per-attempt RPC timeout.
    pub timeout: Duration,
    /// RPCs issued before the call fails.
    pub attempts: u32,
    /// Delay before each further attempt. Zero retries inside the
    /// callback that judged the reply, with no event of its own.
    pub backoff: Duration,
}

/// What one reply means to the caller.
#[derive(Debug)]
pub enum Verdict<T> {
    /// The call is answered.
    Done(T),
    /// The reply names the serving replica (by index): retry there.
    Redirect(usize),
    /// This replica cannot serve the call: retry on the next one.
    Next,
}

/// A replicated service's addresses and the hint at its serving replica.
/// Clones share the hint.
#[derive(Debug, Clone)]
pub struct Replicas(Rc<Set>);

#[derive(Debug)]
struct Set {
    rpc: RpcNode,
    addrs: Box<[Addr]>,
    hint: Cell<usize>,
}

impl Replicas {
    /// A replica set reached from `rpc`, hinting at the first address.
    /// An empty set fails every call.
    pub fn new(rpc: RpcNode, addrs: Vec<Addr>) -> Self {
        Replicas(Rc::new(Set {
            rpc,
            addrs: addrs.into(),
            hint: Cell::new(0),
        }))
    }

    /// The endpoint calls are issued from.
    pub fn rpc(&self) -> &RpcNode {
        &self.0.rpc
    }

    /// The hinted replica's address (`None` for an empty set).
    pub fn hinted(&self) -> Option<&Addr> {
        self.0.addrs.get(self.0.hint.get())
    }

    /// Points the hint at `addr`, if it is one of the replicas.
    pub fn point_at(&self, addr: &Addr) {
        let set = &*self.0;
        if let Some(i) = set.addrs.iter().position(|a| a == addr) {
            set.hint.set(i);
        }
    }

    /// Calls `method` on the hinted replica until `judge` returns
    /// [`Verdict::Done`] or `policy.attempts` RPCs have been issued. `done`
    /// receives the answer, or `None` once the budget is spent (after the
    /// last attempt's backoff).
    pub fn call<Resp: Any + Send + Sync, T: 'static>(
        &self,
        sim: &Sim,
        method: &'static str,
        body: Payload,
        bytes: u64,
        policy: RetryPolicy,
        mut judge: impl FnMut(&Sim, Result<Arc<Resp>, RpcError>) -> Verdict<T> + 'static,
        done: impl FnOnce(&Sim, Option<T>) + 'static,
    ) {
        let set = &*self.0;
        if policy.attempts == 0 || set.addrs.is_empty() {
            return done(sim, None);
        }
        let used = set.hint.get();
        let this = self.clone();
        let to = &set.addrs[used];
        set.rpc.call(
            sim,
            to,
            method,
            Arc::clone(&body),
            bytes,
            policy.timeout,
            move |sim, r| {
                let set = &*this.0;
                match judge(sim, r) {
                    Verdict::Done(v) => return done(sim, Some(v)),
                    Verdict::Redirect(i) if i < set.addrs.len() => set.hint.set(i),
                    _ if set.hint.get() == used => set.hint.set((used + 1) % set.addrs.len()),
                    _ => {}
                }
                let rest = RetryPolicy {
                    attempts: policy.attempts - 1,
                    ..policy
                };
                if rest.backoff.is_zero() {
                    this.call(sim, method, body, bytes, rest, judge, done);
                } else {
                    sim.schedule_in(rest.backoff, move |sim| {
                        this.call(sim, method, body, bytes, rest, judge, done)
                    });
                }
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{NetConfig, Network};
    use std::cell::RefCell;
    use ustore_sim::SimTime;

    const MS: Duration = Duration::from_millis(1);

    fn policy(attempts: u32, backoff: Duration) -> RetryPolicy {
        RetryPolicy {
            timeout: 100 * MS,
            attempts,
            backoff,
        }
    }

    /// A network with `n` servers `s0..` answering "who" with their index,
    /// and a client replica set over them.
    fn setup(n: usize) -> (Sim, Network, Replicas) {
        let sim = Sim::new(3);
        let net = Network::new(
            NetConfig {
                jitter: Duration::ZERO,
                ..NetConfig::default()
            },
            sim.seed(),
        );
        for i in 0..n {
            RpcNode::new(&net, Addr::new(format!("s{i}")))
                .serve("who", move |sim, _, r| r.reply(sim, Arc::new(i), 8));
        }
        let addrs = (0..n).map(|i| Addr::new(format!("s{i}"))).collect();
        let replicas = Replicas::new(RpcNode::new(&net, Addr::new("client")), addrs);
        (sim, net, replicas)
    }

    /// Calls "who", judging every reply with `judge`; returns where the
    /// outcome lands.
    fn who(
        sim: &Sim,
        replicas: &Replicas,
        p: RetryPolicy,
        judge: impl FnMut(&Sim, Result<Arc<usize>, RpcError>) -> Verdict<usize> + 'static,
    ) -> Rc<RefCell<Vec<Option<usize>>>> {
        let out = Rc::new(RefCell::new(Vec::new()));
        let o = out.clone();
        replicas.call(sim, "who", Arc::new(()), 8, p, judge, move |_, v| {
            o.borrow_mut().push(v)
        });
        out
    }

    #[test]
    fn a_redirect_is_followed() {
        let (sim, _net, replicas) = setup(3);
        // s0 names s2 as the server; s2 answers.
        let out = who(&sim, &replicas, policy(3, 10 * MS), |_, r| match r {
            Ok(i) if *i == 2 => Verdict::Done(2),
            Ok(_) => Verdict::Redirect(2),
            Err(_) => Verdict::Next,
        });
        sim.run();
        assert_eq!(*out.borrow(), vec![Some(2)]);
        assert_eq!(replicas.0.hint.get(), 2, "the redirect moved the hint");
    }

    #[test]
    fn a_stale_failure_does_not_move_the_hint_backwards() {
        let (sim, net, replicas) = setup(2);
        net.set_down(&sim, &Addr::new("s0"));
        // Two concurrent calls both fail on dead s0. The first failure
        // moves the hint to s1; the second, judged after it, was sent to
        // s0 as well and must not rotate the hint back to s0.
        let ok = |_: &Sim, r: Result<Arc<usize>, RpcError>| match r {
            Ok(i) => Verdict::Done(*i),
            Err(_) => Verdict::Next,
        };
        let a = who(&sim, &replicas, policy(2, 10 * MS), ok);
        let b = who(&sim, &replicas, policy(2, 10 * MS), ok);
        sim.run();
        assert_eq!(*a.borrow(), vec![Some(1)]);
        assert_eq!(*b.borrow(), vec![Some(1)]);
        assert_eq!(replicas.0.hint.get(), 1);
    }

    #[test]
    fn an_exhausted_budget_reports_failure_once() {
        let (sim, net, replicas) = setup(2);
        net.set_down(&sim, &Addr::new("s0"));
        net.set_down(&sim, &Addr::new("s1"));
        let judged = Rc::new(Cell::new(0));
        let j = judged.clone();
        let out = who(&sim, &replicas, policy(3, 10 * MS), move |_, r| {
            j.set(j.get() + 1);
            assert_eq!(r.unwrap_err(), RpcError::Timeout);
            Verdict::Next
        });
        sim.run();
        assert_eq!(judged.get(), 3, "one verdict per attempt");
        assert_eq!(*out.borrow(), vec![None]);
        // Three timeouts and three backoffs, the last before the report.
        assert_eq!(sim.now().duration_since(SimTime::ZERO), 330 * MS);
    }

    #[test]
    fn point_at_moves_the_hint_to_a_replica_only() {
        let (_sim, _net, replicas) = setup(2);
        assert_eq!(replicas.hinted(), Some(&Addr::new("s0")));
        replicas.point_at(&Addr::new("nowhere"));
        assert_eq!(replicas.hinted(), Some(&Addr::new("s0")));
        replicas.point_at(&Addr::new("s1"));
        assert_eq!(replicas.hinted(), Some(&Addr::new("s1")));
    }

    #[test]
    fn a_zero_backoff_retry_schedules_no_extra_event() {
        let events = |backoff: Duration| {
            let (sim, net, replicas) = setup(2);
            net.set_down(&sim, &Addr::new("s0"));
            let out = who(&sim, &replicas, policy(2, backoff), |_, r| match r {
                Ok(i) => Verdict::Done(*i),
                Err(_) => Verdict::Next,
            });
            sim.run();
            assert_eq!(*out.borrow(), vec![Some(1)]);
            sim.events_processed()
        };
        // The backoff is the only event the delayed retry adds.
        assert_eq!(events(10 * MS), events(Duration::ZERO) + 1);
        // Zero backoff costs exactly the two calls' own events: s0's
        // request (dropped on arrival) and timeout, then s1's request and
        // reply deliveries.
        let (sim, _net, replicas) = setup(2);
        who(&sim, &replicas, policy(1, Duration::ZERO), |_, r| {
            Verdict::Done(*r.expect("s0 answers"))
        });
        sim.run();
        assert_eq!(events(Duration::ZERO), 2 + sim.events_processed());
    }
}
