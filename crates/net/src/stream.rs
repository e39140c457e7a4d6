//! Computed message streams: the one primitive behind every periodic
//! keyed flow (DESIGN §17 "Computed streams").
//!
//! An EndPoint's heartbeats and a Paxos leader's learns say the same thing
//! every period while nothing changes. While such a flow is *steady*, its
//! sender stops simulating it and both ends evaluate message `n` in closed
//! form: sent at `phase + (n − first) · interval` ([`BeatClock`]), arrived
//! one keyed latency ([`KeyedFlow`]) later. A [`Sender`] numbers and
//! simulates a flow's messages and opens a stream when the flow is steady,
//! with an [`Open`] notice carrying its owner's payload; any change ends
//! it with an [`End`]. A [`Receiver`] keeps the streams pointed at one
//! node. The network counts both halves in closed form on
//! [`Sim::settle`], visiting only halves with a message due, so every
//! counter reads what the simulated model would count.
//!
//! [`with_simulated_streams`] turns computing off: every message is
//! simulated as events under the same model. Outputs must not change;
//! only the engine's event counts may. That is the differential oracle
//! for every computed flow.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::{Deref, DerefMut, RangeBounds};
use std::sync::Arc;
use std::time::Duration;

use ustore_sim::{CounterHandle, EventId, FastMap, Sim, SimTime};

use crate::network::{Addr, Count, KeyedFlow, Network, Payload, RuleChange};
use crate::rpc::RpcNode;

/// The send schedule of a computed stream: message `first` is sent at
/// `phase`, each later one `interval` after the previous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BeatClock {
    /// Number of the first computed message.
    pub first: u64,
    /// When message `first` is sent.
    pub phase: SimTime,
    /// Time between two sends.
    pub interval: Duration,
}

impl BeatClock {
    /// When message `n` (≥ `first`) is sent.
    pub fn sent_at(&self, n: u64) -> SimTime {
        let k = n - self.first;
        self.phase + Duration::from_nanos(k * self.interval.as_nanos() as u64)
    }

    /// When message `n` (≥ `first`) arrives over `flow`.
    pub fn arrival(&self, n: u64, flow: &KeyedFlow) -> SimTime {
        self.sent_at(n) + flow.latency(n)
    }

    /// The last message sent at or before `t`, if any.
    pub fn last_sent_by(&self, t: SimTime) -> Option<u64> {
        let since = t.as_nanos().checked_sub(self.phase.as_nanos())?;
        Some(self.first + since / self.interval.as_nanos() as u64)
    }

    /// The last message that has arrived by `t` over `flow`. Needs every
    /// latency to be shorter than the interval, so arrivals keep order.
    pub fn last_arrived_by(&self, t: SimTime, flow: &KeyedFlow) -> Option<u64> {
        let n = self.last_sent_by(t)?;
        if self.arrival(n, flow) <= t {
            Some(n)
        } else {
            n.checked_sub(1).filter(|&m| m >= self.first)
        }
    }
}

/// Notice: from message `clock.first` on, stream `key` repeats
/// `payload` on `clock`, over `flow`, until an [`End`].
#[derive(Debug, Clone)]
pub struct Open<K, P> {
    /// The stream's key at its receiver.
    pub key: K,
    /// When each message is sent.
    pub clock: BeatClock,
    /// How long each message takes.
    pub flow: KeyedFlow,
    /// What every message says.
    pub payload: P,
}

/// Notice: stream `key` ends with message `last` (`first − 1` when it
/// ended before its first computed message).
#[derive(Debug, Clone)]
pub struct End<K> {
    /// The stream's key at its receiver.
    pub key: K,
    /// The last message sent.
    pub last: u64,
}

/// One half of a computed stream, as the network counts it.
struct Tally {
    clock: BeatClock,
    /// At a receiver: the flow and the receiving node.
    recv: Option<(KeyedFlow, Addr)>,
    /// The first message not yet counted.
    next: u64,
    last: Option<u64>,
    /// Also counts every message sent or delivered.
    counter: Option<CounterHandle>,
    /// Its group in [`Tallies::due`].
    at: Option<SimTime>,
}

impl Tally {
    /// When the next message to count is sent, unless the stream ended
    /// before it.
    fn key(&self) -> Option<SimTime> {
        let ended = self.last.is_some_and(|l| self.next > l);
        (!ended).then(|| self.clock.sent_at(self.next))
    }

    /// Counts the messages sent (arrived, at a receiver) by `now`.
    fn count(&mut self, now: SimTime, count: &mut Count) {
        let done = match &self.recv {
            Some((flow, _)) => self.clock.last_arrived_by(now, flow),
            None => self.clock.last_sent_by(now),
        };
        let n = done.map_or(0, |n| self.last.map_or(n, |l| n.min(l)) + 1);
        if n > self.next && count(self.recv.as_ref().map(|(_, to)| to), n - self.next) {
            self.counter.iter().for_each(|c| c.add(n - self.next));
        }
        self.next = self.next.max(n);
    }
}

/// The computed-stream halves of one network.
#[derive(Default)]
pub(crate) struct Tallies {
    ids: u64,
    open: FastMap<u64, Tally>,
    /// Halves by the send instant of their next message to count (one group
    /// per send grid); an id whose half left or moved on is skipped.
    due: BTreeMap<SimTime, Vec<u64>>,
    /// Whether `Sim::settle` counts them.
    hooked: bool,
}

impl Tallies {
    /// Changes half `id` with `f`, then files it under its next send.
    fn update(&mut self, id: u64, f: impl FnOnce(&mut Tally)) {
        let Some(t) = self.open.get_mut(&id) else {
            return;
        };
        f(t);
        let key = t.key();
        if key != t.at {
            t.at = key;
            if let Some(k) = key {
                self.due.entry(k).or_default().push(id);
            }
        }
    }

    /// Counts every half whose next message was sent by `now` (one still in
    /// flight is counted again by the next settle).
    pub(crate) fn settle(&mut self, now: SimTime, count: &mut Count) {
        let mut late = Vec::new();
        while let Some(group) = self.due.first_entry().filter(|g| *g.key() <= now) {
            let (at, ids) = group.remove_entry();
            for id in ids {
                let Some(t) = self.open.get_mut(&id).filter(|t| t.at == Some(at)) else {
                    continue;
                };
                t.count(now, count);
                t.at = t.key();
                match t.at {
                    Some(k) if k <= now => late.push((k, id)),
                    Some(k) => self.due.entry(k).or_default().push(id),
                    None => {}
                }
            }
        }
        for (k, id) in late {
            self.due.entry(k).or_default().push(id);
        }
    }

    /// Counts every half received at `node` up to `now` (it goes down or up).
    pub(crate) fn count_node(&mut self, node: &Addr, now: SimTime, count: &mut Count) {
        let at =
            |(id, t): (&u64, &Tally)| t.recv.as_ref().filter(|(_, to)| to == node).map(|_| *id);
        for id in self.open.iter().filter_map(at).collect::<Vec<_>>() {
            self.update(id, |t| t.count(now, count));
        }
    }
}

impl Network {
    /// Starts counting a half; the first of a network hooks [`Sim::settle`].
    fn open_tally(
        &self,
        sim: &Sim,
        clock: BeatClock,
        recv: Option<(KeyedFlow, Addr)>,
        counter: Option<CounterHandle>,
    ) -> u64 {
        let (next, last, at) = (clock.first, None, None);
        let t = Tally {
            clock,
            recv,
            next,
            last,
            counter,
            at,
        };
        let (id, hook) = self.tallies(|ts, _| {
            ts.ids += 1;
            ts.open.insert(ts.ids, t);
            ts.update(ts.ids, |_| {});
            (ts.ids, !std::mem::replace(&mut ts.hooked, true))
        });
        if hook {
            let net = self.clone();
            sim.on_settle(move |sim| net.tallies(|ts, c| ts.settle(sim.now(), c)));
        }
        id
    }

    /// Counts half `id` up to now and forgets it; returns its last message.
    fn close_tally(&self, sim: &Sim, id: u64) -> u64 {
        self.tallies(|ts, c| {
            let mut t = ts.open.remove(&id).expect("open tally");
            t.count(sim.now(), c);
            t.next - 1
        })
    }
}

thread_local! {
    static SIMULATED: Cell<bool> = const { Cell::new(false) };
}

/// Test support: runs `f` with every component built on this thread
/// (and, for a sharded pod built here, on its worker threads) simulating
/// each message of its periodic flows (EndPoint heartbeats, Paxos
/// learns) as events, under the same model, instead of computing steady
/// streams. Outputs must not change; only the engine's event counts may.
#[doc(hidden)]
pub fn with_simulated_streams<R>(on: bool, f: impl FnOnce() -> R) -> R {
    let before = SIMULATED.with(|s| s.replace(on));
    let r = f();
    SIMULATED.with(|s| s.set(before));
    r
}

/// Whether components built on this thread simulate every message of a
/// periodic flow (see [`with_simulated_streams`]).
pub fn simulated_streams() -> bool {
    SIMULATED.with(Cell::get)
}

/// The sending half of a periodic keyed flow: numbers its messages,
/// simulates each while the flow is not steady, and computes them while
/// it is. `K` keys the stream at its receiver; `P` is what every message
/// of an open stream says.
pub struct Sender<K, P> {
    rpc: RpcNode,
    key: K,
    /// The method and body bytes of one message.
    cast: (&'static str, u64),
    interval: Duration,
    /// Simulate every message (see [`with_simulated_streams`]).
    simulated: bool,
    /// Also counts every message sent.
    counter: Option<CounterHandle>,
    /// The keyed flow to the destination last asked for.
    flow: Option<(Addr, KeyedFlow)>,
    /// Number of the last message sent before the open stream, if any.
    sent: u64,
    /// The open stream: destination, payload, clock and tally.
    stream: Option<(Addr, P, BeatClock, u64)>,
}

impl<K: Clone + Send + Sync + 'static, P: Clone + Send + Sync + 'static> Sender<K, P> {
    /// A flow from `rpc` of `cast = (method, body bytes)` casts every
    /// `interval`, keyed `key` at its receiver, counted into `counter`.
    pub fn new(
        rpc: &RpcNode,
        key: K,
        cast: (&'static str, u64),
        interval: Duration,
        counter: Option<CounterHandle>,
    ) -> Self {
        Sender {
            rpc: rpc.clone(),
            key,
            cast,
            interval,
            simulated: simulated_streams(),
            counter,
            flow: None,
            sent: 0,
            stream: None,
        }
    }

    /// Numbers the flow from 1 again (a new term; no stream is open).
    pub fn restart(&mut self) {
        self.sent = 0;
    }

    /// What the open stream's messages say.
    pub fn streaming(&self) -> Option<&P> {
        self.stream.as_ref().map(|(_, p, _, _)| p)
    }

    /// The keyed flow to `to`.
    pub fn flow(&mut self, to: &Addr) -> KeyedFlow {
        match &self.flow {
            Some((a, f)) if a == to => *f,
            _ => {
                let wire = RpcNode::cast_wire_bytes(self.cast.1);
                let f = self.rpc.network().keyed_flow(self.rpc.addr(), to, wire);
                self.flow = Some((to.clone(), f));
                f
            }
        }
    }

    /// Simulates the next message (`body` of its number) to `to`, or to
    /// nobody: it still counts. Then, if the owner finds the flow `steady`
    /// and the flow is (the switch is off, latencies are below the interval
    /// and the path has no drop rule), opens a stream whose messages from
    /// the next on say `payload(first)`. Returns whether it opened.
    pub fn send(
        &mut self,
        sim: &Sim,
        to: Option<&Addr>,
        body: impl FnOnce(u64) -> Payload,
        steady: bool,
        payload: impl FnOnce(u64) -> P,
    ) -> bool {
        self.sent += 1;
        let n = self.sent;
        self.counter.iter().for_each(CounterHandle::inc);
        let Some(to) = to else {
            return false;
        };
        let ((method, bytes), flow) = (self.cast, self.flow(to));
        self.rpc
            .cast_keyed(sim, to, method, body(n), bytes, &flow, n);
        let net = self.rpc.network();
        if !steady
            || self.simulated
            || flow.max_latency() >= self.interval
            || !net.path_clear(self.rpc.addr(), to)
        {
            return false;
        }
        let (first, interval) = (n + 1, self.interval);
        let clock = BeatClock {
            first,
            phase: sim.now() + interval,
            interval,
        };
        let (key, payload) = (self.key.clone(), payload(first));
        let tally = net.open_tally(sim, clock, None, self.counter.clone());
        let open = Open {
            key,
            clock,
            flow,
            payload: payload.clone(),
        };
        net.notify(sim, self.rpc.addr(), to, Arc::new(open));
        self.stream = Some((to.clone(), payload, clock, tally));
        true
    }

    /// Ends the open stream if a drop-rule change about to apply touches
    /// its path (see [`Sender::end`]).
    pub fn on_rule_change(&mut self, sim: &Sim, change: &RuleChange) -> Option<SimTime> {
        let (to, ..) = self.stream.as_ref()?;
        if !change.touches(self.rpc.addr(), to) {
            return None;
        }
        self.end(sim)
    }

    /// Ends the open stream, if any: its messages up to now were sent, and
    /// its receiver hears where it stopped one base latency later, before
    /// the next message could arrive. Returns when the next simulated send
    /// is due, on the stream's grid.
    pub fn end(&mut self, sim: &Sim) -> Option<SimTime> {
        let (to, _, clock, tally) = self.stream.take()?;
        let net = self.rpc.network();
        self.sent = net.close_tally(sim, tally);
        let end = End {
            key: self.key.clone(),
            last: self.sent,
        };
        net.notify(sim, self.rpc.addr(), &to, Arc::new(end));
        Some(clock.sent_at(self.sent + 1))
    }
}

/// A computed stream at its receiver, with what the receiver's owner
/// keeps of it.
pub struct Inbound<S> {
    /// The first message the owner has not taken in yet (its cursor).
    pub next: u64,
    /// What the owner keeps of the stream.
    pub state: S,
    clock: BeatClock,
    flow: KeyedFlow,
    /// The last message, once the end notice arrived.
    last: Option<u64>,
    /// The first message heard: delivered while the receiver counts into
    /// a counter (see [`Receiver::count_into`]); `None` while it does not.
    heard_from: Option<u64>,
    tally: u64,
    /// An event pending at one of the stream's arrivals (cancellable, or
    /// one of [`Receiver::wake_all`]'s).
    wake: Option<(SimTime, Option<EventId>)>,
}

impl<S> Inbound<S> {
    /// When message `n` arrives.
    pub fn arrival(&self, n: u64) -> SimTime {
        self.clock.arrival(n, &self.flow)
    }

    /// The latest message arrived by `now`, if any.
    pub fn arrived_by(&self, now: SimTime) -> Option<u64> {
        let n = self.clock.last_arrived_by(now, &self.flow)?;
        let n = self.last.map_or(n, |l| n.min(l));
        (n >= self.clock.first).then_some(n)
    }

    /// The first message heard, while the receiver hears.
    pub fn heard_from(&self) -> Option<u64> {
        self.heard_from
    }

    /// The latest message heard by `now`, if any.
    pub fn heard_by(&self, now: SimTime) -> Option<u64> {
        let from = self.heard_from?;
        self.arrived_by(now).filter(|&n| n >= from)
    }

    /// The first message to arrive after `now`, unless the stream ended
    /// before it.
    pub fn next_after(&self, now: SimTime) -> Option<u64> {
        let n = self.arrived_by(now).map_or(self.clock.first, |n| n + 1);
        self.last.is_none_or(|l| n <= l).then_some(n)
    }

    /// Whether the stream has a message at or after `next`.
    pub fn pending(&self) -> bool {
        self.last.is_none_or(|l| self.next <= l)
    }

    /// Whether the stream's end notice arrived.
    pub fn is_ended(&self) -> bool {
        self.last.is_some()
    }

    /// The largest gap between two consecutive arrivals: the interval
    /// plus the flow's jitter span.
    pub fn gap(&self) -> Duration {
        self.clock.interval + self.flow.jitter_span()
    }
}

/// The receiving half: the computed streams pointed at one node, by key,
/// in a map reached through `Deref`. Streams come and go only through
/// [`Receiver::open`] and [`Receiver::remove`].
pub struct Receiver<K, S> {
    net: Network,
    node: Addr,
    /// Also counts every message delivered.
    counter: Option<CounterHandle>,
    streams: BTreeMap<K, Inbound<S>>,
    /// Streams whose end notice arrived before their last message.
    ended: BTreeSet<K>,
}

impl<K: Ord + Clone, S> Receiver<K, S> {
    /// No streams yet, received at `node` of `net`.
    pub fn new(net: &Network, node: Addr) -> Self {
        Receiver {
            net: net.clone(),
            node,
            counter: None,
            streams: BTreeMap::new(),
            ended: BTreeSet::new(),
        }
    }

    /// Whether deliveries count into a counter ([`Receiver::count_into`]).
    pub fn hearing(&self) -> bool {
        self.counter.is_some()
    }

    /// An [`Open`] notice arrived: the stream starts, its owner keeping
    /// `state`. One with the same key is removed first.
    pub fn open<P>(&mut self, sim: &Sim, open: &Open<K, P>, state: S) {
        self.remove(sim, &open.key);
        let (clock, flow, recv) = (open.clock, open.flow, Some((open.flow, self.node.clone())));
        let tally = self.net.open_tally(sim, clock, recv, self.counter.clone());
        let heard_from = self.counter.as_ref().map(|_| clock.first);
        let st = Inbound {
            clock,
            flow,
            last: None,
            next: clock.first,
            heard_from,
            state,
            tally,
            wake: None,
        };
        self.streams.insert(open.key.clone(), st);
    }

    /// An [`End`] notice arrived: the stream's last message is known. Until
    /// it arrives, the stream is among the [ended](Receiver::ended) ones.
    pub fn end(&mut self, sim: &Sim, end: &End<K>) -> Option<&mut Inbound<S>> {
        let st = self.streams.get_mut(&end.key)?;
        st.last = Some(end.last);
        if st.next_after(sim.now()).is_some() {
            self.ended.insert(end.key.clone());
        }
        let last = st.last;
        self.net
            .tallies(|ts, _| ts.update(st.tally, |t| t.last = last));
        Some(st)
    }

    /// Forgets stream `key`: its arrivals up to now are counted, later
    /// ones never are, and its pending wake is cancelled.
    pub fn remove(&mut self, sim: &Sim, key: &K) -> Option<Inbound<S>> {
        self.ended.remove(key);
        let st = self.streams.remove(key)?;
        self.net.close_tally(sim, st.tally);
        if let Some((_, Some(id))) = st.wake {
            sim.cancel(id);
        }
        Some(st)
    }

    /// Counts every stream's arrivals up to now, then hears later ones:
    /// counts their deliveries into `counter` too (none for `None`).
    pub fn count_into(&mut self, sim: &Sim, counter: Option<CounterHandle>) {
        let now = sim.now();
        self.net.tallies(|ts, c| {
            for st in self.streams.values_mut() {
                ts.update(st.tally, |t| {
                    t.count(now, c);
                    t.counter.clone_from(&counter);
                });
                st.heard_from = counter.as_ref().and_then(|_| st.next_after(now));
            }
        });
        self.counter = counter;
    }

    /// The ended streams in `range` whose last message arrived by `now`.
    pub fn ended(&self, now: SimTime, range: impl RangeBounds<K>) -> Vec<K> {
        let gone = |k: &&K| self.streams[*k].next_after(now).is_none();
        self.ended.range(range).filter(gone).cloned().collect()
    }

    /// Schedules `f`, once per instant, at the next arrival of each stream in
    /// `range` not woken there yet; returns each stream's next arrival.
    pub fn wake_all(
        &mut self,
        sim: &Sim,
        range: impl RangeBounds<K>,
        f: impl Fn(&Sim) + Clone + 'static,
    ) -> Vec<(K, SimTime)> {
        let (now, mut at, mut due) = (sim.now(), Vec::new(), Vec::new());
        for (key, st) in self.streams.range_mut(range) {
            let Some(next) = st.next_after(now).map(|n| st.arrival(n)) else {
                continue;
            };
            due.push((key.clone(), next));
            if st.wake.map(|w| w.0) != Some(next) {
                st.wake = Some((next, None));
                at.push(next);
            }
        }
        at.sort_unstable();
        at.dedup();
        for t in at {
            sim.schedule_at(t, f.clone());
        }
        due
    }

    /// Keeps one cancellable event, `f`, pending at `at` for stream `key`
    /// (none for `None`), cancelling one pending elsewhere.
    pub fn wake(
        &mut self,
        sim: &Sim,
        key: &K,
        at: Option<SimTime>,
        f: impl FnOnce(&Sim) + 'static,
    ) {
        if let Some(st) = self
            .streams
            .get_mut(key)
            .filter(|st| st.wake.map(|w| w.0) != at)
        {
            if let Some((_, Some(id))) = st.wake.take() {
                sim.cancel(id);
            }
            st.wake = at.map(|t| (t, Some(sim.schedule_at(t, f))));
        }
    }
}

impl<K, S> Deref for Receiver<K, S> {
    type Target = BTreeMap<K, Inbound<S>>;

    fn deref(&self) -> &Self::Target {
        &self.streams
    }
}

impl<K, S> DerefMut for Receiver<K, S> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.streams
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    use ustore_sim::faultgen::mix_seed;

    use crate::network::NetConfig;

    #[test]
    fn clock_finds_the_last_sent_and_arrived_messages() {
        let clock = BeatClock {
            first: 5,
            phase: SimTime::from_millis(300),
            interval: Duration::from_millis(300),
        };
        assert_eq!(clock.sent_at(7), SimTime::from_millis(900));
        assert_eq!(clock.last_sent_by(SimTime::from_millis(299)), None);
        assert_eq!(clock.last_sent_by(SimTime::from_millis(300)), Some(5));
        assert_eq!(clock.last_sent_by(SimTime::from_millis(899)), Some(6));
        let net = Network::new(NetConfig::default());
        let flow = net.keyed_flow(&Addr::new("h"), &Addr::new("m"), 248);
        let arrival = clock.arrival(6, &flow);
        assert_eq!(arrival, clock.sent_at(6) + flow.latency(6));
        assert_eq!(clock.last_arrived_by(arrival, &flow), Some(6));
        let just_before = SimTime::from_nanos(arrival.as_nanos() - 1);
        assert_eq!(clock.last_arrived_by(just_before, &flow), Some(5));
        assert_eq!(
            clock.last_arrived_by(SimTime::from_millis(300), &flow),
            None
        );
    }

    #[test]
    fn the_switch_is_scoped_to_its_closure() {
        assert!(!simulated_streams());
        let inner = with_simulated_streams(true, || {
            with_simulated_streams(false, simulated_streams) || !simulated_streams()
        });
        assert!(!inner);
        assert!(!simulated_streams());
    }

    const INTERVAL: Duration = Duration::from_millis(50);

    /// The sending side of a case: a tick chain on the send grid (every
    /// `INTERVAL` from 0), and whether its owner finds the flow steady.
    #[derive(Clone)]
    struct Beater {
        to: Addr,
        state: Rc<RefCell<(Sender<u8, u64>, bool)>>,
    }

    impl Beater {
        fn arm(&self, sim: &Sim, at: SimTime) {
            let this = self.clone();
            sim.schedule_early_at(at, move |sim| {
                let opened = {
                    let (sender, steady) = &mut *this.state.borrow_mut();
                    sender.send(sim, Some(&this.to), |n| Arc::new(n), *steady, |_| 7)
                };
                if !opened {
                    this.arm(sim, at + INTERVAL);
                }
            });
        }

        fn resume(&self, sim: &Sim, at: Option<SimTime>) {
            if let Some(at) = at {
                self.arm(sim, at);
            }
        }
    }

    /// The receiving side of a case: its streams, and every message it
    /// got with its arrival instant.
    struct Probe {
        recv: Receiver<u8, ()>,
        seen: Vec<(u64, SimTime)>,
    }

    impl Probe {
        /// Takes in every computed arrival by now, recording the delivered
        /// ones (the node being `up` since the last time).
        fn take_in(&mut self, sim: &Sim, up: bool) {
            for key in self.recv.keys().copied().collect::<Vec<_>>() {
                let st = self.recv.get_mut(&key).expect("stream");
                if let Some(n) = st.arrived_by(sim.now()) {
                    let fresh = (st.next..=n).map(|m| (m, st.arrival(m)));
                    self.seen.extend(fresh.filter(|_| up));
                    st.next = st.next.max(n + 1);
                }
                if !st.pending() {
                    self.recv.remove(sim, &key);
                }
            }
        }
    }

    /// One seeded case on a bare network: a sender beating every
    /// `INTERVAL` to one receiver for 10 s, under random owner changes
    /// (the stream ends, and the owner may find the flow unsteady for a
    /// while), sender-side rule changes (the sender's node down or up, the
    /// link blocked or healed) and downs and ups of the receiver's node,
    /// a third of them on a send instant. Returns the network's counts
    /// every 100 ms, every message the receiver got with its arrival
    /// instant, and the engine's event count.
    fn stream_case(seed: u64) -> (Vec<(u64, u64, u64)>, Vec<(u64, SimTime)>, u64) {
        let sim = Sim::new(seed);
        let net = Network::new(NetConfig::default());
        let (from, to) = (Addr::new("s"), Addr::new("r"));
        let (srpc, rrpc) = (
            RpcNode::new(&net, from.clone()),
            RpcNode::new(&net, to.clone()),
        );
        let sender = Sender::new(&srpc, 1, ("case.msg", 64), INTERVAL, None);
        let beater = Beater {
            to: to.clone(),
            state: Rc::new(RefCell::new((sender, true))),
        };
        let probe = Rc::new(RefCell::new(Probe {
            recv: Receiver::new(&net, to.clone()),
            seen: Vec::new(),
        }));
        let p = probe.clone();
        rrpc.serve_cast("case.msg", move |sim, body| {
            let n = *body.downcast_ref::<u64>().expect("number");
            p.borrow_mut().seen.push((n, sim.now()));
        });
        let (p, n2, r) = (probe.clone(), net.clone(), to.clone());
        net.bind_notices(&to, move |sim, notice| {
            let mut p = p.borrow_mut();
            p.take_in(sim, n2.is_up(&r));
            if let Some(open) = notice.downcast_ref::<Open<u8, u64>>() {
                assert_eq!(open.payload, 7);
                p.recv.open(sim, open, ());
            } else if let Some(end) = notice.downcast_ref::<End<u8>>() {
                p.recv.end(sim, end);
                p.take_in(sim, n2.is_up(&r));
            }
        });
        let (p, n2, r, b) = (probe.clone(), net.clone(), to.clone(), beater.clone());
        net.on_rule_change(move |sim, change| {
            if let RuleChange::Down(a) | RuleChange::Up(a) = change {
                if *a == r {
                    p.borrow_mut().take_in(sim, n2.is_up(&r));
                }
            }
            let at = b.state.borrow_mut().0.on_rule_change(sim, change);
            b.resume(sim, at);
        });
        beater.arm(&sim, SimTime::ZERO + INTERVAL);
        for i in 0..24 {
            let draw = move |salt: u64| mix_seed(mix_seed(seed, i), salt);
            let mut at = SimTime::from_nanos(draw(0) % 10_000_000_000);
            if draw(1) % 3 == 0 {
                let step = INTERVAL.as_nanos() as u64;
                at = SimTime::from_nanos(at.as_nanos() / step * step);
            }
            let (net, b, from, to) = (net.clone(), beater.clone(), from.clone(), to.clone());
            let coin = draw(2) % 2 == 0;
            sim.schedule_at(at, move |sim| match draw(3) % 4 {
                0 => {
                    let at = {
                        let (sender, steady) = &mut *b.state.borrow_mut();
                        *steady = coin;
                        sender.end(sim)
                    };
                    b.resume(sim, at);
                }
                1 if net.is_up(&from) => net.set_down(sim, &from),
                1 => net.set_up(sim, &from),
                2 if coin => net.block(sim, &from, &to),
                2 => net.heal(sim),
                _ if net.is_up(&to) => net.set_down(sim, &to),
                _ => net.set_up(sim, &to),
            });
        }
        let mut counts = Vec::new();
        for k in 1..=100 {
            sim.run_until(SimTime::from_millis(100 * k));
            sim.settle();
            counts.push(net.stats());
        }
        probe.borrow_mut().take_in(&sim, net.is_up(&to));
        let mut seen = std::mem::take(&mut probe.borrow_mut().seen);
        seen.sort();
        (counts, seen, sim.events_processed())
    }

    /// The primitive alone, differentially: every seeded case gives the
    /// same counts and the same arrivals with its streams computed as
    /// with every message simulated. Computing never costs events, and
    /// saves some in most cases (the others keep the flow unsteady).
    #[test]
    fn a_computed_stream_matches_its_simulated_messages() {
        let mut saved = 0;
        for seed in 0..24 {
            let run = |on| with_simulated_streams(on, || stream_case(seed));
            let ((counts, seen, events), (sim_counts, sim_seen, sim_events)) =
                (run(false), run(true));
            if let Some(i) = counts.iter().zip(&sim_counts).position(|(a, b)| a != b) {
                panic!(
                    "seed {seed}: (sent, delivered, dropped) differ at {} ms: computed {:?}, simulated {:?}",
                    100 * (i + 1),
                    counts[i],
                    sim_counts[i]
                );
            }
            assert_eq!(seen, sim_seen, "seed {seed}: arrivals differ");
            let delivered = counts.last().expect("counts").1;
            assert_eq!(seen.len() as u64, delivered, "seed {seed}");
            assert!(
                events <= sim_events,
                "seed {seed}: {events} vs {sim_events} events"
            );
            saved += usize::from(events < sim_events);
        }
        assert!(saved >= 20, "streams computed in only {saved} of 24 cases");
    }
}
