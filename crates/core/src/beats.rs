//! Computed heartbeat streams (DESIGN §17 "Heartbeats").
//!
//! While nothing about an EndPoint's heartbeat changes, its beats are a
//! pure function of time: beat `n` is sent at `phase + (n − first) ·
//! interval` ([`BeatClock`]) and arrives one keyed latency ([`KeyedFlow`])
//! later. The EndPoint then stops simulating them and tells the Master so
//! with a `BeatsOpen` notice; both sides compute what they would have
//! counted and seen. Any change ends the stream with a `BeatsEnd` notice
//! naming the last beat sent under it, and real beats resume from the
//! next tick. [`ustore_net::with_simulated_streams`] turns computing off.

use ustore_fabric::HostId;
use ustore_net::{BeatClock, KeyedFlow};

use crate::ids::UnitId;
use crate::messages::Heartbeat;

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
