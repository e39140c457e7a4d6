//! Computed heartbeat streams (DESIGN §17 "Heartbeats").
//!
//! While nothing about an EndPoint's heartbeat changes, its beats are a
//! pure function of time: beat `n` is sent at `phase + (n − first) ·
//! interval` and arrives one keyed latency ([`KeyedFlow`]) later. The
//! EndPoint then stops simulating them and tells the Master so with a
//! `BeatsOpen` notice; both sides compute what they would have counted
//! and seen. Any change ends the stream with a `BeatsEnd` notice naming
//! the last beat sent under it, and real beats resume from the next tick.

use std::cell::Cell;
use std::time::Duration;

use ustore_fabric::HostId;
use ustore_net::KeyedFlow;
use ustore_sim::SimTime;

use crate::ids::UnitId;
use crate::messages::Heartbeat;

/// The send schedule of a computed stream: beat `first` is sent at
/// `phase`, each later one `interval` after the previous.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BeatClock {
    pub(crate) first: u64,
    pub(crate) phase: SimTime,
    pub(crate) interval: Duration,
}

impl BeatClock {
    /// When beat `n` (≥ `first`) is sent.
    pub(crate) fn sent_at(&self, n: u64) -> SimTime {
        let k = n - self.first;
        self.phase + Duration::from_nanos(k * self.interval.as_nanos() as u64)
    }

    /// The last beat sent at or before `t`, if any.
    pub(crate) fn last_sent_by(&self, t: SimTime) -> Option<u64> {
        let since = t.as_nanos().checked_sub(self.phase.as_nanos())?;
        Some(self.first + since / self.interval.as_nanos() as u64)
    }

    /// The last beat that has arrived by `t` over `flow`. Needs every
    /// latency to be shorter than the interval, so arrivals keep order.
    pub(crate) fn last_arrived_by(&self, t: SimTime, flow: &KeyedFlow) -> Option<u64> {
        let n = self.last_sent_by(t)?;
        if self.sent_at(n) + flow.latency(n) <= t {
            Some(n)
        } else {
            n.checked_sub(1).filter(|&m| m >= self.first)
        }
    }
}

/// EndPoint → Master notice: the beats after `beat` repeat it (with the
/// next sequence numbers) on `clock`, over `flow`, until a [`BeatsEnd`].
#[derive(Debug, Clone)]
pub(crate) struct BeatsOpen {
    pub(crate) beat: Heartbeat,
    pub(crate) clock: BeatClock,
    pub(crate) flow: KeyedFlow,
}

/// EndPoint → Master notice: the stream of `(unit, host)` ends with beat
/// `last` (`first − 1` when it ended before its first computed beat).
#[derive(Debug, Clone)]
pub(crate) struct BeatsEnd {
    pub(crate) unit: UnitId,
    pub(crate) host: HostId,
    pub(crate) last: u64,
}

thread_local! {
    static SIMULATED: Cell<bool> = const { Cell::new(false) };
}

/// Test support: runs `f` with every EndPoint built on this thread
/// (and, for a sharded pod built here, on its worker threads) simulating
/// each heartbeat as events, under the same model, instead of computing
/// steady streams. Outputs must not change; only the engine's event
/// counts may. This is the differential oracle for computed beats.
#[doc(hidden)]
pub fn with_simulated_beats<R>(on: bool, f: impl FnOnce() -> R) -> R {
    let before = SIMULATED.with(|s| s.replace(on));
    let r = f();
    SIMULATED.with(|s| s.set(before));
    r
}

/// Whether EndPoints built on this thread simulate every beat.
pub(crate) fn simulated_beats() -> bool {
    SIMULATED.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ustore_net::{Addr, NetConfig, Network};

    #[test]
    fn clock_finds_the_last_sent_and_arrived_beats() {
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
        let arrival = clock.sent_at(6) + flow.latency(6);
        assert_eq!(clock.last_arrived_by(arrival, &flow), Some(6));
        let just_before = SimTime::from_nanos(arrival.as_nanos() - 1);
        assert_eq!(clock.last_arrived_by(just_before, &flow), Some(5));
        assert_eq!(
            clock.last_arrived_by(SimTime::from_millis(300), &flow),
            None
        );
    }
}
