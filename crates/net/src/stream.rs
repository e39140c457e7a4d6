//! Computed message streams: the shared send clock and the test switch.
//!
//! Some periodic one-way flows say the same thing every period while
//! nothing changes: an EndPoint's heartbeats to the Master and a Paxos
//! leader's learns to its followers. While such a flow is *steady*, its
//! sender stops simulating it and both ends evaluate message `n` in
//! closed form: sent at `phase + (n − first) · interval` ([`BeatClock`]),
//! arrived one keyed latency ([`KeyedFlow`]) later. The sender counts
//! what it sent and the receiver what it received whenever a reader
//! could tell ([`ustore_sim::Sim::settle`]).
//!
//! [`with_simulated_streams`] turns computing off: every message is
//! simulated as events under the same model. Outputs must not change;
//! only the engine's event counts may. That is the differential oracle
//! for every computed flow.

use std::cell::Cell;
use std::time::Duration;

use ustore_sim::SimTime;

use crate::network::KeyedFlow;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Addr, NetConfig, Network};

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
}
