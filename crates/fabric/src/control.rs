//! The fabric's control plane (§III-B).
//!
//! Switches are driven by a side channel: a microcontroller (the paper
//! uses Arduino Mega boards) connected over USB to one of the hosts. To
//! survive that host's failure, a second microcontroller on a different
//! host is wired in, and *"the signals of the two microcontrollers are
//! XOR-ed together to form the final controlling signal"*. During normal
//! operation only one is powered; when control over it is lost the backup
//! powers on and can still set every switch to any position by choosing
//! its own bits relative to the stuck primary's output.
//!
//! The control plane also drives power relays on the 12 V rails of disks
//! and hubs, enabling rolling spin-up (§III-B) and interconnect power-down
//! (§IV-F).

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

use crate::topology::{DiskId, HubId, SwitchId, SwitchPos};

/// Control-plane failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlError {
    /// Neither microcontroller is both powered and reachable.
    ControlLost,
    /// The switch is not wired to the control plane.
    UnknownSwitch(SwitchId),
}

impl fmt::Display for ControlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlError::ControlLost => write!(f, "no reachable microcontroller"),
            ControlError::UnknownSwitch(s) => write!(f, "switch {s} not wired"),
        }
    }
}

impl std::error::Error for ControlError {}

/// One microcontroller: a bank of output bits, one per switch.
#[derive(Debug, Clone)]
pub struct Microcontroller {
    bits: BTreeMap<SwitchId, bool>,
    /// Whether the board has power (an unpowered board outputs zeros).
    powered: bool,
    /// Whether its controlling host can still send it commands.
    reachable: bool,
}

impl Microcontroller {
    /// Creates a board wired to `switches`, powered or not.
    pub fn new(switches: impl IntoIterator<Item = SwitchId>, powered: bool) -> Self {
        Microcontroller {
            bits: switches.into_iter().map(|s| (s, false)).collect(),
            powered,
            reachable: true,
        }
    }

    /// The board's effective output for a switch (zero when unpowered).
    pub fn output(&self, s: SwitchId) -> bool {
        self.powered && self.bits.get(&s).copied().unwrap_or(false)
    }

    /// Whether commands can currently be executed on this board.
    pub fn controllable(&self) -> bool {
        self.powered && self.reachable
    }

    /// Powers the board on or off.
    pub fn set_powered(&mut self, on: bool) {
        self.powered = on;
    }

    /// Marks the board's controlling host alive or dead.
    pub fn set_reachable(&mut self, ok: bool) {
        self.reachable = ok;
    }
}

/// Relay bank for the 12 V rails of disks and hubs.
#[derive(Debug, Clone, Default)]
pub struct RelayBank {
    disks: BTreeMap<DiskId, bool>,
    hubs: BTreeMap<HubId, bool>,
}

impl RelayBank {
    /// Creates a bank with every listed relay closed (powered).
    pub fn new(
        disks: impl IntoIterator<Item = DiskId>,
        hubs: impl IntoIterator<Item = HubId>,
    ) -> Self {
        RelayBank {
            disks: disks.into_iter().map(|d| (d, true)).collect(),
            hubs: hubs.into_iter().map(|h| (h, true)).collect(),
        }
    }

    /// Sets a disk's 12 V relay.
    pub fn set_disk(&mut self, d: DiskId, on: bool) {
        self.disks.insert(d, on);
    }

    /// Sets a hub's relay.
    pub fn set_hub(&mut self, h: HubId, on: bool) {
        self.hubs.insert(h, on);
    }

    /// Whether a disk's rail is powered.
    pub fn disk_on(&self, d: DiskId) -> bool {
        self.disks.get(&d).copied().unwrap_or(false)
    }

    /// Whether a hub is powered.
    pub fn hub_on(&self, h: HubId) -> bool {
        self.hubs.get(&h).copied().unwrap_or(false)
    }

    /// Number of powered hubs.
    pub fn hubs_on(&self) -> usize {
        self.hubs.values().filter(|&&v| v).count()
    }
}

/// The dual-microcontroller control plane.
#[derive(Debug, Clone)]
pub struct ControlPlane {
    mc: [Microcontroller; 2],
    active: usize,
    /// Hardware latency of one switch actuation.
    switch_latency: Duration,
}

impl ControlPlane {
    /// Default per-switch actuation latency (relay settle + firmware).
    pub const DEFAULT_SWITCH_LATENCY: Duration = Duration::from_millis(5);

    /// Creates the control plane for `switches`, with microcontroller 0
    /// active and powered, 1 as the cold standby.
    pub fn new(switches: impl IntoIterator<Item = SwitchId> + Clone) -> Self {
        ControlPlane {
            mc: [
                Microcontroller::new(switches.clone(), true),
                Microcontroller::new(switches, false),
            ],
            active: 0,
            switch_latency: Self::DEFAULT_SWITCH_LATENCY,
        }
    }

    /// Actuation latency for one switch turn.
    pub fn switch_latency(&self) -> Duration {
        self.switch_latency
    }

    /// The XOR-combined signal currently applied to a switch.
    pub fn signal(&self, s: SwitchId) -> SwitchPos {
        if self.mc[0].output(s) ^ self.mc[1].output(s) {
            SwitchPos::B
        } else {
            SwitchPos::A
        }
    }

    /// Marks a microcontroller's controlling host dead or alive.
    pub fn set_host_alive(&mut self, mc_index: usize, alive: bool) {
        self.mc[mc_index].set_reachable(alive);
    }

    /// Cuts or restores a microcontroller's own power. Cutting the power
    /// of a board that had bits set flips those switches (its contribution
    /// to the XOR becomes zero) — callers must re-command afterwards.
    pub fn set_mc_powered(&mut self, mc_index: usize, on: bool) {
        self.mc[mc_index].set_powered(on);
    }

    /// Fails over to the other microcontroller: powers it on and makes it
    /// the command target. The old board's outputs keep contributing to
    /// the XOR, so current switch positions are preserved.
    pub fn activate_backup(&mut self) {
        self.active = 1 - self.active;
        self.mc[self.active].set_powered(true);
    }

    /// Commands the active microcontroller to drive switch `s` to `pos`.
    ///
    /// # Errors
    ///
    /// [`ControlError::ControlLost`] if the active board is unreachable or
    /// unpowered; [`ControlError::UnknownSwitch`] if `s` is not wired.
    pub fn turn_switch(&mut self, s: SwitchId, pos: SwitchPos) -> Result<(), ControlError> {
        let other = 1 - self.active;
        let other_out = self.mc[other].output(s);
        let mc = &mut self.mc[self.active];
        if !mc.controllable() {
            return Err(ControlError::ControlLost);
        }
        if !mc.bits.contains_key(&s) {
            return Err(ControlError::UnknownSwitch(s));
        }
        let want = matches!(pos, SwitchPos::B);
        // Choose our bit so that (ours XOR other's) == desired signal.
        let bit = want ^ other_out;
        mc.bits.insert(s, bit);
        Ok(())
    }

    /// Whether any board can currently execute commands.
    pub fn controllable(&self) -> bool {
        self.mc[self.active].controllable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn switches() -> Vec<SwitchId> {
        (0..4).map(SwitchId).collect()
    }

    #[test]
    fn turn_and_read_back() {
        let mut cp = ControlPlane::new(switches());
        assert_eq!(cp.signal(SwitchId(0)), SwitchPos::A);
        cp.turn_switch(SwitchId(0), SwitchPos::B).expect("turn");
        assert_eq!(cp.signal(SwitchId(0)), SwitchPos::B);
        cp.turn_switch(SwitchId(0), SwitchPos::A)
            .expect("turn back");
        assert_eq!(cp.signal(SwitchId(0)), SwitchPos::A);
    }

    #[test]
    fn unknown_switch_rejected() {
        let mut cp = ControlPlane::new(switches());
        assert_eq!(
            cp.turn_switch(SwitchId(99), SwitchPos::B),
            Err(ControlError::UnknownSwitch(SwitchId(99)))
        );
    }

    #[test]
    fn failover_preserves_positions_and_restores_control() {
        let mut cp = ControlPlane::new(switches());
        cp.turn_switch(SwitchId(1), SwitchPos::B).expect("turn");
        cp.turn_switch(SwitchId(2), SwitchPos::B).expect("turn");
        // Primary's host dies: control lost, but signals persist.
        cp.set_host_alive(0, false);
        assert!(!cp.controllable());
        assert_eq!(
            cp.turn_switch(SwitchId(3), SwitchPos::B),
            Err(ControlError::ControlLost)
        );
        assert_eq!(cp.signal(SwitchId(1)), SwitchPos::B);
        // Backup takes over: positions unchanged, control restored.
        cp.activate_backup();
        assert!(cp.controllable());
        assert_eq!(cp.signal(SwitchId(1)), SwitchPos::B);
        assert_eq!(cp.signal(SwitchId(2)), SwitchPos::B);
        // The backup can turn any switch to any position via XOR.
        cp.turn_switch(SwitchId(1), SwitchPos::A)
            .expect("xor override");
        assert_eq!(cp.signal(SwitchId(1)), SwitchPos::A);
        cp.turn_switch(SwitchId(3), SwitchPos::B)
            .expect("fresh turn");
        assert_eq!(cp.signal(SwitchId(3)), SwitchPos::B);
    }

    #[test]
    fn primary_power_loss_flips_its_contribution() {
        let mut cp = ControlPlane::new(switches());
        cp.turn_switch(SwitchId(0), SwitchPos::B).expect("turn");
        // The primary board loses its own power: its XOR contribution
        // drops to zero and the switch reverts.
        cp.set_mc_powered(0, false);
        assert_eq!(cp.signal(SwitchId(0)), SwitchPos::A);
        // Backup can restore the desired position.
        cp.activate_backup();
        cp.turn_switch(SwitchId(0), SwitchPos::B).expect("restore");
        assert_eq!(cp.signal(SwitchId(0)), SwitchPos::B);
    }

    #[test]
    fn relay_bank_controls() {
        let mut rb = RelayBank::new((0..3).map(DiskId), (0..2).map(HubId));
        assert!(rb.disk_on(DiskId(0)));
        rb.set_disk(DiskId(0), false);
        assert!(!rb.disk_on(DiskId(0)));
        assert_eq!(rb.hubs_on(), 2);
        rb.set_hub(HubId(1), false);
        assert_eq!(rb.hubs_on(), 1);
        assert!(!rb.disk_on(DiskId(9)), "unknown relay reads off");
    }
}
