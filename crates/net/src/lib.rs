//! # ustore-net — simulated network, RPC and iSCSI-style block protocol
//!
//! The data-center substrate UStore assumes already exists: a [`Network`]
//! of hosts with NIC serialization and failure injection, a typed
//! request/response [`RpcNode`] layer with timeouts, retries across a
//! service's [`Replicas`], the [`BlockDevice`]
//! abstraction UStore exports (§IV-D), and the iSCSI-style protocol
//! ([`IscsiServer`] / [`IscsiSession`]) EndPoints use to expose disks
//! (§IV-B), and computed periodic streams ([`Sender`], [`Receiver`]).
//!
//! ## Example
//!
//! ```
//! use std::rc::Rc;
//! use std::time::Duration;
//! use ustore_sim::Sim;
//! use ustore_net::{Addr, IscsiServer, IscsiSession, MemDevice, NetConfig, Network, RpcNode};
//!
//! let sim = Sim::new(0);
//! let net = Network::new(NetConfig::default());
//! let server = IscsiServer::new(RpcNode::new(&net, Addr::new("ep0")));
//! server.expose("lun0", Rc::new(MemDevice::new(4096, Duration::ZERO)));
//! let client = RpcNode::new(&net, Addr::new("c0"));
//! IscsiSession::login(&sim, &client, &Addr::new("ep0"), "lun0",
//!     Duration::from_secs(1), |_, sess| {
//!         assert_eq!(sess.expect("login").capacity(), 4096);
//!     });
//! sim.run();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blockdev;
pub mod iscsi;
pub mod network;
pub mod replicas;
pub mod rpc;
pub mod stream;

pub use blockdev::{BlockDevice, BlockError, MemDevice, Partition, ReadCb, WriteCb};
pub use iscsi::{IscsiError, IscsiServer, IscsiSession};
pub use network::{Addr, Envelope, KeyedFlow, NetConfig, Network, Payload, RuleChange};
pub use replicas::{Replicas, RetryPolicy, Verdict};
pub use rpc::{Responder, RpcError, RpcNode};
pub use stream::{
    simulated_streams, with_simulated_streams, BeatClock, End, Inbound, Open, Receiver, Sender,
};
