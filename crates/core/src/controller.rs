//! The UStore Controller (§IV-C).
//!
//! Two Controllers per deploy unit run on two of the controlling hosts in
//! primary/backup fashion. The Master sends explicit topology scheduling
//! commands ("connect disk A to host H1"); the Controller executes them
//! against the fabric — locking, Algorithm 1, actuation through the
//! microcontroller, verification against the USB trees reported by the
//! EndPoints, and rollback on timeout — all implemented by
//! [`FabricRuntime::execute`]. It also plans failover evacuations on the
//! Master's behalf, since it owns the detailed fabric knowledge.

use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use ustore_fabric::FabricRuntime;
use ustore_net::RpcNode;
use ustore_sim::TraceLevel;

use crate::ids::UnitId;
use crate::messages::{ExecuteReq, ExecuteResp, PlanReq, PlanResp};

/// One Controller process, serving `ctl.*` RPC methods on its host's node.
pub struct Controller {
    unit: UnitId,
    rpc: RpcNode,
    runtime: FabricRuntime,
}

impl fmt::Debug for Controller {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Controller")
            .field("unit", &self.unit)
            .field("addr", self.rpc.addr())
            .finish()
    }
}

impl Controller {
    /// Starts a Controller for `unit` on the host owning `rpc`, directly
    /// connected to the unit's control plane.
    pub fn new(unit: UnitId, rpc: RpcNode, runtime: FabricRuntime) -> Rc<Self> {
        let ctl = Rc::new(Controller { unit, rpc, runtime });

        let c = ctl.clone();
        ctl.rpc.serve("ctl.plan", move |sim, req, responder| {
            let req: &PlanReq = req.downcast_ref().expect("PlanReq");
            let plan: PlanResp = c
                .runtime
                .with_state(|s| {
                    if req.pull_cohort {
                        s.plan_move(&req.disks, &req.targets)
                    } else {
                        s.plan_evacuation(&req.disks, &req.targets)
                    }
                })
                .map_err(|e| e.to_string());
            responder.reply(sim, Arc::new(plan), 256);
        });

        let c = ctl.clone();
        ctl.rpc.serve("ctl.execute", move |sim, req, responder| {
            let req: &ExecuteReq = req.downcast_ref().expect("ExecuteReq");
            sim.trace(
                TraceLevel::Info,
                "controller",
                format!("{}: executing {} pairs", c.rpc.addr(), req.pairs.len()),
            );
            c.runtime.execute(sim, req.pairs.clone(), move |sim, r| {
                let resp: ExecuteResp = r.map_err(|e| e.to_string());
                responder.reply(sim, Arc::new(resp), 64);
            });
        });

        ctl
    }

    /// The deploy unit this Controller manages.
    pub fn unit(&self) -> UnitId {
        self.unit
    }

    /// The fabric runtime (for co-located components).
    pub fn runtime(&self) -> &FabricRuntime {
        &self.runtime
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::time::Duration;
    use ustore_fabric::{DiskId, HostId};
    use ustore_net::{Addr, NetConfig, Network};
    use ustore_sim::Sim;

    fn setup() -> (Sim, Network, Rc<Controller>, RpcNode) {
        let sim = Sim::new(41);
        let net = Network::new(NetConfig::default(), sim.seed());
        let runtime = FabricRuntime::prototype(&sim);
        let ctl_rpc = RpcNode::new(&net, Addr::new("host-0"));
        let ctl = Controller::new(UnitId(0), ctl_rpc, runtime);
        let master = RpcNode::new(&net, Addr::new("master-0"));
        sim.run_until(sim.now() + Duration::from_secs(10)); // enumeration
        (sim, net, ctl, master)
    }

    #[test]
    fn plan_and_execute_over_rpc() {
        let (sim, _net, ctl, master) = setup();
        let done = Rc::new(Cell::new(false));
        let d = done.clone();
        let runtime = ctl.runtime().clone();
        master.call::<PlanResp>(
            &sim,
            &Addr::new("host-0"),
            "ctl.plan",
            Arc::new(PlanReq {
                disks: (0..4).map(DiskId).collect(),
                targets: vec![HostId(1), HostId(2), HostId(3)],
                pull_cohort: false,
            }),
            128,
            Duration::from_secs(1),
            move |_sim, resp| {
                let plan = resp.expect("rpc").as_ref().clone().expect("plan");
                assert_eq!(plan.len(), 4);
                let _ = &runtime;
                d.set(true);
            },
        );
        sim.run_until(sim.now() + Duration::from_secs(2));
        assert!(done.get());
    }

    #[test]
    fn execute_moves_disks() {
        let (sim, _net, ctl, master) = setup();
        let done = Rc::new(Cell::new(false));
        let d = done.clone();
        master.call::<ExecuteResp>(
            &sim,
            &Addr::new("host-0"),
            "ctl.execute",
            Arc::new(ExecuteReq {
                pairs: (0..4).map(|i| (DiskId(i), HostId(2))).collect(),
            }),
            128,
            Duration::from_secs(30),
            move |_, resp| {
                resp.expect("rpc").as_ref().clone().expect("execute");
                d.set(true);
            },
        );
        sim.run_until(sim.now() + Duration::from_secs(30));
        assert!(done.get());
        assert_eq!(ctl.runtime().attached_host(DiskId(0)), Some(HostId(2)));
    }

    #[test]
    fn execute_error_propagates() {
        let (sim, _net, _ctl, master) = setup();
        let done = Rc::new(Cell::new(false));
        let d = done.clone();
        // Moving a single disk of a group conflicts (Algorithm 1).
        master.call::<ExecuteResp>(
            &sim,
            &Addr::new("host-0"),
            "ctl.execute",
            Arc::new(ExecuteReq {
                pairs: vec![(DiskId(0), HostId(1))],
            }),
            128,
            Duration::from_secs(5),
            move |_, resp| {
                let err = resp.expect("rpc").as_ref().clone().unwrap_err();
                assert!(err.contains("disconnect"), "{err}");
                d.set(true);
            },
        );
        sim.run_until(sim.now() + Duration::from_secs(5));
        assert!(done.get());
    }
}
