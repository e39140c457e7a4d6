//! A miniature replicated distributed file system (the paper's §VII-B
//! upper-layer service).
//!
//! The paper deploys Hadoop 1.2.1 over UStore disks — one namenode, three
//! datanodes, three replicas — and shows that a disk switch only causes
//! "error for several seconds, then it resumes", while reads fail over to
//! another replica without interruption. This module implements the
//! minimal HDFS-like machinery that experiment needs: a [`NameNode`]
//! tracking block locations, [`DataNode`]s storing blocks on any
//! [`BlockDevice`] (in the experiments: mounted UStore spaces), pipelined
//! replicated writes with retry, and replica-failover reads.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use ustore_net::{Addr, BlockDevice, RpcNode};
use ustore_sim::{Sim, SimTime, TraceLevel};

/// DFS tunables.
#[derive(Debug, Clone)]
pub struct DfsConfig {
    /// Block size (kept small to bound event counts; HDFS uses 64 MB).
    pub block_bytes: u64,
    /// Replication factor (the paper uses 3).
    pub replication: usize,
    /// RPC timeout for namenode and datanode calls.
    pub rpc_timeout: Duration,
    /// Backoff before retrying a failed block write.
    pub retry_backoff: Duration,
    /// Attempts per block before the client gives up.
    pub max_attempts: u32,
}

impl Default for DfsConfig {
    fn default() -> Self {
        DfsConfig {
            block_bytes: 8 << 20,
            replication: 3,
            rpc_timeout: Duration::from_millis(1500),
            retry_backoff: Duration::from_millis(500),
            max_attempts: 40,
        }
    }
}

/// DFS-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfsError {
    /// The namenode is unreachable or refused.
    NameNode(String),
    /// A block could not be written within the retry budget.
    WriteFailed(String),
    /// A block could not be read from any replica.
    ReadFailed(String),
    /// Unknown file.
    NoSuchFile,
}

impl fmt::Display for DfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfsError::NameNode(w) => write!(f, "namenode: {w}"),
            DfsError::WriteFailed(w) => write!(f, "block write failed: {w}"),
            DfsError::ReadFailed(w) => write!(f, "block read failed: {w}"),
            DfsError::NoSuchFile => write!(f, "no such file"),
        }
    }
}

impl std::error::Error for DfsError {}

// ---- Wire messages ---------------------------------------------------------

#[derive(Clone)]
struct RegisterReq {
    addr: Addr,
}

#[derive(Clone)]
struct CreateBlockReq {
    #[allow(dead_code)] // carried for namenode-side logging/debugging
    file: String,
}

#[derive(Debug, Clone)]
struct BlockPlan {
    id: u64,
    pipeline: Vec<Addr>,
}

type CreateBlockResp = Result<BlockPlan, String>;

#[derive(Clone)]
struct FinishBlockReq {
    file: String,
    id: u64,
    len: u64,
    replicas: Vec<Addr>,
}

#[derive(Clone)]
struct LocateReq {
    file: String,
}

#[derive(Debug, Clone)]
struct BlockMeta {
    id: u64,
    #[allow(dead_code)] // part of the metadata schema; used by tooling
    len: u64,
    replicas: Vec<Addr>,
}

type LocateResp = Result<Vec<BlockMeta>, DfsError>;

#[derive(Clone)]
struct WriteBlockReq {
    id: u64,
    data: Vec<u8>,
    rest: Vec<Addr>,
}

type WriteBlockResp = Result<(), String>;

#[derive(Clone)]
struct ReadBlockReq {
    id: u64,
}

type ReadBlockResp = Result<Vec<u8>, String>;

// ---- NameNode ----------------------------------------------------------------

struct NnState {
    config: DfsConfig,
    datanodes: Vec<Addr>,
    files: HashMap<String, Vec<BlockMeta>>,
    next_block: u64,
    rr: usize,
}

/// The metadata server: tracks datanodes and block locations.
#[derive(Clone)]
pub struct NameNode {
    rpc: RpcNode,
    inner: Rc<RefCell<NnState>>,
}

impl fmt::Debug for NameNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NameNode")
            .field("addr", self.rpc.addr())
            .finish()
    }
}

impl NameNode {
    /// Starts a namenode on `rpc`.
    pub fn new(rpc: RpcNode, config: DfsConfig) -> NameNode {
        let nn = NameNode {
            rpc,
            inner: Rc::new(RefCell::new(NnState {
                config,
                datanodes: Vec::new(),
                files: HashMap::new(),
                next_block: 0,
                rr: 0,
            })),
        };
        let n = nn.clone();
        nn.rpc.serve("nn.register", move |sim, req, responder| {
            let req: &RegisterReq = req.downcast_ref().expect("RegisterReq");
            let mut s = n.inner.borrow_mut();
            if !s.datanodes.contains(&req.addr) {
                s.datanodes.push(req.addr.clone());
            }
            responder.reply(sim, Arc::new(()), 8);
        });
        let n = nn.clone();
        nn.rpc.serve("nn.create_block", move |sim, req, responder| {
            let _req: &CreateBlockReq = req.downcast_ref().expect("CreateBlockReq");
            let resp: CreateBlockResp = {
                let mut s = n.inner.borrow_mut();
                if s.datanodes.len() < s.config.replication {
                    Err(format!(
                        "need {} datanodes, have {}",
                        s.config.replication,
                        s.datanodes.len()
                    ))
                } else {
                    let id = s.next_block;
                    s.next_block += 1;
                    // Round-robin pipeline placement.
                    let n_dn = s.datanodes.len();
                    let start = s.rr;
                    s.rr = (s.rr + 1) % n_dn;
                    let pipeline: Vec<Addr> = (0..s.config.replication)
                        .map(|k| s.datanodes[(start + k) % n_dn].clone())
                        .collect();
                    Ok(BlockPlan { id, pipeline })
                }
            };
            responder.reply(sim, Arc::new(resp), 64);
        });
        let n = nn.clone();
        nn.rpc.serve("nn.finish_block", move |sim, req, responder| {
            let req: &FinishBlockReq = req.downcast_ref().expect("FinishBlockReq");
            n.inner
                .borrow_mut()
                .files
                .entry(req.file.clone())
                .or_default()
                .push(BlockMeta {
                    id: req.id,
                    len: req.len,
                    replicas: req.replicas.clone(),
                });
            responder.reply(sim, Arc::new(()), 8);
        });
        let n = nn.clone();
        nn.rpc.serve("nn.locate", move |sim, req, responder| {
            let req: &LocateReq = req.downcast_ref().expect("LocateReq");
            let resp: LocateResp = n
                .inner
                .borrow()
                .files
                .get(&req.file)
                .cloned()
                .ok_or(DfsError::NoSuchFile);
            responder.reply(sim, Arc::new(resp), 128);
        });
        nn
    }

    /// Registered datanode count.
    pub fn datanode_count(&self) -> usize {
        self.inner.borrow().datanodes.len()
    }

    /// Stored file names, sorted.
    pub fn files(&self) -> Vec<String> {
        let mut v: Vec<String> = self.inner.borrow().files.keys().cloned().collect();
        v.sort();
        v
    }
}

// ---- DataNode ------------------------------------------------------------------

struct DnState {
    blocks: HashMap<u64, (u64, u64)>, // id -> (offset, len)
    next_offset: u64,
}

/// A block server over any [`BlockDevice`] (a mounted UStore space in the
/// experiments).
#[derive(Clone)]
pub struct DataNode {
    rpc: RpcNode,
    backing: Rc<dyn BlockDevice>,
    inner: Rc<RefCell<DnState>>,
    config: DfsConfig,
}

impl fmt::Debug for DataNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DataNode")
            .field("addr", self.rpc.addr())
            .finish()
    }
}

impl DataNode {
    /// Starts a datanode on `rpc` storing blocks on `backing`, and
    /// registers it with the namenode at `namenode`.
    pub fn new(
        sim: &Sim,
        rpc: RpcNode,
        backing: Rc<dyn BlockDevice>,
        namenode: &Addr,
        config: DfsConfig,
    ) -> DataNode {
        let dn = DataNode {
            rpc,
            backing,
            inner: Rc::new(RefCell::new(DnState {
                blocks: HashMap::new(),
                next_offset: 0,
            })),
            config: config.clone(),
        };
        let d = dn.clone();
        dn.rpc.serve("dn.write_block", move |sim, req, responder| {
            let req: &WriteBlockReq = req.downcast_ref().expect("WriteBlockReq");
            d.handle_write(sim, req.clone(), responder);
        });
        let d = dn.clone();
        dn.rpc.serve("dn.read_block", move |sim, req, responder| {
            let req: &ReadBlockReq = req.downcast_ref().expect("ReadBlockReq");
            let slot = d.inner.borrow().blocks.get(&req.id).copied();
            match slot {
                None => responder.reply(
                    sim,
                    Arc::new(Err("no such block".to_owned()) as ReadBlockResp),
                    16,
                ),
                Some((offset, len)) => {
                    d.backing.read(
                        sim,
                        offset,
                        len,
                        Box::new(move |sim, r| {
                            let bytes = r.as_ref().map_or(16, |d| d.len() as u64 + 16);
                            let resp: ReadBlockResp = r.map_err(|e| e.to_string());
                            responder.reply(sim, Arc::new(resp), bytes);
                        }),
                    );
                }
            }
        });
        // Register with the namenode.
        let addr = dn.rpc.addr().clone();
        dn.rpc.call::<()>(
            sim,
            namenode,
            "nn.register",
            Arc::new(RegisterReq { addr }),
            32,
            config.rpc_timeout,
            |_, _| {},
        );
        dn
    }

    /// This datanode's address.
    pub fn addr(&self) -> Addr {
        self.rpc.addr().clone()
    }

    /// Number of blocks stored.
    pub fn block_count(&self) -> usize {
        self.inner.borrow().blocks.len()
    }

    fn handle_write(&self, sim: &Sim, req: WriteBlockReq, responder: ustore_net::Responder) {
        // Reserve space locally.
        let offset = {
            let mut s = self.inner.borrow_mut();
            let len = req.data.len() as u64;
            let offset = s.next_offset;
            if offset + len > self.backing.capacity() {
                drop(s);
                responder.reply(
                    sim,
                    Arc::new(Err("datanode out of space".to_owned()) as WriteBlockResp),
                    16,
                );
                return;
            }
            s.next_offset += len;
            s.blocks.insert(req.id, (offset, len));
            offset
        };
        // Pipeline: local write and downstream forwarding run in parallel;
        // ack only after both succeed (HDFS-style).
        let pending = Rc::new(RefCell::new((2u8, Ok::<(), String>(()), Some(responder))));
        let finish =
            |sim: &Sim,
             pending: &Rc<RefCell<(u8, Result<(), String>, Option<ustore_net::Responder>)>>,
             res: Result<(), String>| {
                let mut p = pending.borrow_mut();
                p.0 -= 1;
                if res.is_err() && p.1.is_ok() {
                    p.1 = res;
                }
                if p.0 == 0 {
                    let responder = p.2.take().expect("responder present");
                    let out = p.1.clone();
                    drop(p);
                    responder.reply(sim, Arc::new(out as WriteBlockResp), 16);
                }
            };
        let p1 = pending.clone();
        self.backing.write(
            sim,
            offset,
            req.data.clone().into(),
            Box::new(move |sim, r| {
                finish(sim, &p1, r.map_err(|e| e.to_string()));
            }),
        );
        if req.rest.is_empty() {
            finish(sim, &pending, Ok(()));
        } else {
            let next = req.rest[0].clone();
            let fwd = WriteBlockReq {
                id: req.id,
                data: req.data,
                rest: req.rest[1..].to_vec(),
            };
            let bytes = fwd.data.len() as u64 + 64;
            let p2 = pending.clone();
            // Give the whole downstream pipeline time to finish.
            let timeout = self.config.rpc_timeout * 2;
            self.rpc.call::<WriteBlockResp>(
                sim,
                &next,
                "dn.write_block",
                Arc::new(fwd),
                bytes,
                timeout,
                move |sim, r| {
                    let res = match r {
                        Ok(inner) => (*inner).clone(),
                        Err(e) => Err(e.to_string()),
                    };
                    finish(sim, &p2, res);
                },
            );
        }
    }
}

// ---- Client -----------------------------------------------------------------------

/// Statistics of one client operation stream (the §VII-B measurement).
#[derive(Debug, Clone, Default)]
pub struct DfsClientStats {
    /// Block-level errors encountered (each triggers a retry).
    pub errors: u64,
    /// Virtual times at which errors were observed.
    pub error_times: Vec<SimTime>,
    /// When the last block write that needed a retry finally landed.
    pub recovered_at: Option<SimTime>,
    /// Replica failovers during reads.
    pub read_failovers: u64,
}

impl DfsClientStats {
    /// Span from the first observed error until the client wrote again
    /// (the client-visible disruption window). A single error still
    /// disrupts the client until its retry lands.
    pub fn error_window(&self) -> Option<Duration> {
        let first = self.error_times.first()?;
        let end = self.error_times.last().max(self.recovered_at.as_ref())?;
        Some(end.saturating_duration_since(*first))
    }
}

/// A DFS client bound to one RPC node.
#[derive(Clone)]
pub struct DfsClient {
    rpc: RpcNode,
    namenode: Addr,
    config: DfsConfig,
    stats: Rc<RefCell<DfsClientStats>>,
}

impl fmt::Debug for DfsClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DfsClient")
            .field("addr", self.rpc.addr())
            .finish()
    }
}

impl DfsClient {
    /// Creates a client talking to `namenode`.
    pub fn new(rpc: RpcNode, namenode: Addr, config: DfsConfig) -> DfsClient {
        DfsClient {
            rpc,
            namenode,
            config,
            stats: Rc::new(RefCell::new(DfsClientStats::default())),
        }
    }

    /// Snapshot of the client's error statistics.
    pub fn stats(&self) -> DfsClientStats {
        self.stats.borrow().clone()
    }

    /// Writes `data` as `file` (replicated, pipelined, with retries).
    pub fn put(
        &self,
        sim: &Sim,
        file: impl Into<String>,
        data: Vec<u8>,
        cb: impl FnOnce(&Sim, Result<(), DfsError>) + 'static,
    ) {
        let file = file.into();
        let blocks: Vec<Vec<u8>> = data
            .chunks(self.config.block_bytes as usize)
            .map(<[u8]>::to_vec)
            .collect();
        self.put_blocks(sim, file, blocks, 0, Box::new(cb));
    }

    fn put_blocks(
        &self,
        sim: &Sim,
        file: String,
        blocks: Vec<Vec<u8>>,
        idx: usize,
        cb: Box<dyn FnOnce(&Sim, Result<(), DfsError>)>,
    ) {
        if idx >= blocks.len() {
            cb(sim, Ok(()));
            return;
        }
        let this = self.clone();
        self.write_one_block(
            sim,
            file.clone(),
            blocks[idx].clone(),
            0,
            Box::new(move |sim, r| match r {
                Err(e) => cb(sim, Err(e)),
                Ok(()) => this.put_blocks(sim, file, blocks, idx + 1, cb),
            }),
        );
    }

    fn write_one_block(
        &self,
        sim: &Sim,
        file: String,
        data: Vec<u8>,
        attempt: u32,
        cb: Box<dyn FnOnce(&Sim, Result<(), DfsError>)>,
    ) {
        if attempt >= self.config.max_attempts {
            cb(
                sim,
                Err(DfsError::WriteFailed("retry budget exhausted".into())),
            );
            return;
        }
        let this = self.clone();
        let retry = move |this: DfsClient,
                          sim: &Sim,
                          why: String,
                          file: String,
                          data: Vec<u8>,
                          cb: Box<dyn FnOnce(&Sim, Result<(), DfsError>)>| {
            {
                let mut s = this.stats.borrow_mut();
                s.errors += 1;
                let now = sim.now();
                s.error_times.push(now);
            }
            sim.trace(
                TraceLevel::Warn,
                "dfs-client",
                format!("block write error: {why}; retrying"),
            );
            let backoff = this.config.retry_backoff;
            let t2 = this.clone();
            sim.schedule_in(backoff, move |sim| {
                t2.write_one_block(sim, file, data, attempt + 1, cb);
            });
        };
        // Ask the namenode for a block id + pipeline.
        self.rpc.call::<CreateBlockResp>(
            sim,
            &self.namenode,
            "nn.create_block",
            Arc::new(CreateBlockReq { file: file.clone() }),
            64,
            self.config.rpc_timeout,
            move |sim, r| {
                let plan = match r {
                    Ok(resp) => match &*resp {
                        Ok(p) => p.clone(),
                        Err(e) => {
                            retry(this, sim, e.clone(), file, data, cb);
                            return;
                        }
                    },
                    Err(e) => {
                        retry(this, sim, e.to_string(), file, data, cb);
                        return;
                    }
                };
                let head = plan.pipeline[0].clone();
                let req = WriteBlockReq {
                    id: plan.id,
                    data: data.clone(),
                    rest: plan.pipeline[1..].to_vec(),
                };
                let bytes = req.data.len() as u64 + 64;
                let this2 = this.clone();
                let timeout = this.config.rpc_timeout * 3;
                this.rpc.call::<WriteBlockResp>(
                    sim,
                    &head,
                    "dn.write_block",
                    Arc::new(req),
                    bytes,
                    timeout,
                    move |sim, r| {
                        let ok = matches!(r.as_deref(), Ok(Ok(())));
                        if !ok {
                            let why = match r {
                                Ok(inner) => format!("{inner:?}"),
                                Err(e) => e.to_string(),
                            };
                            retry(this2, sim, why, file, data, cb);
                            return;
                        }
                        if attempt > 0 {
                            this2.stats.borrow_mut().recovered_at = Some(sim.now());
                        }
                        // Commit the block.
                        let len = data.len() as u64;
                        let fin = FinishBlockReq {
                            file: file.clone(),
                            id: plan.id,
                            len,
                            replicas: plan.pipeline.clone(),
                        };
                        let timeout = this2.config.rpc_timeout;
                        this2.rpc.call::<()>(
                            sim,
                            &this2.namenode,
                            "nn.finish_block",
                            Arc::new(fin),
                            64,
                            timeout,
                            move |sim, r| match r {
                                Ok(_) => cb(sim, Ok(())),
                                Err(e) => cb(sim, Err(DfsError::NameNode(e.to_string()))),
                            },
                        );
                    },
                );
            },
        );
    }

    /// Reads `file` back, failing over between replicas as needed.
    pub fn get(
        &self,
        sim: &Sim,
        file: impl Into<String>,
        cb: impl FnOnce(&Sim, Result<Vec<u8>, DfsError>) + 'static,
    ) {
        let file = file.into();
        let this = self.clone();
        self.rpc.call::<LocateResp>(
            sim,
            &self.namenode,
            "nn.locate",
            Arc::new(LocateReq { file }),
            64,
            self.config.rpc_timeout,
            move |sim, r| {
                let blocks = match r {
                    Ok(resp) => match &*resp {
                        Ok(b) => b.clone(),
                        Err(e) => {
                            cb(sim, Err(e.clone()));
                            return;
                        }
                    },
                    Err(e) => {
                        cb(sim, Err(DfsError::NameNode(e.to_string())));
                        return;
                    }
                };
                this.read_blocks(sim, blocks, 0, Vec::new(), Box::new(cb));
            },
        );
    }

    fn read_blocks(
        &self,
        sim: &Sim,
        blocks: Vec<BlockMeta>,
        idx: usize,
        mut acc: Vec<u8>,
        cb: Box<dyn FnOnce(&Sim, Result<Vec<u8>, DfsError>)>,
    ) {
        if idx >= blocks.len() {
            cb(sim, Ok(acc));
            return;
        }
        let this = self.clone();
        let meta = blocks[idx].clone();
        self.read_one_block(
            sim,
            meta,
            0,
            Box::new(move |sim, r| match r {
                Err(e) => cb(sim, Err(e)),
                Ok(mut data) => {
                    acc.append(&mut data);
                    this.read_blocks(sim, blocks, idx + 1, acc, cb);
                }
            }),
        );
    }

    fn read_one_block(
        &self,
        sim: &Sim,
        meta: BlockMeta,
        replica: usize,
        cb: Box<dyn FnOnce(&Sim, Result<Vec<u8>, DfsError>)>,
    ) {
        if replica >= meta.replicas.len() {
            cb(sim, Err(DfsError::ReadFailed("all replicas failed".into())));
            return;
        }
        let this = self.clone();
        let target = meta.replicas[replica].clone();
        self.rpc.call::<ReadBlockResp>(
            sim,
            &target,
            "dn.read_block",
            Arc::new(ReadBlockReq { id: meta.id }),
            32,
            self.config.rpc_timeout * 2,
            move |sim, r| {
                if let Ok(resp) = r {
                    if let Ok(data) = &*resp {
                        cb(sim, Ok(data.clone()));
                        return;
                    }
                }
                // Fail over to the next replica (reads are uninterrupted
                // from the application's perspective).
                this.stats.borrow_mut().read_failovers += 1;
                this.read_one_block(sim, meta, replica + 1, cb);
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::time::Duration;
    use ustore_net::{MemDevice, NetConfig, Network};

    struct Fixture {
        sim: Sim,
        net: Network,
        nn: NameNode,
        dns: Vec<DataNode>,
        client: DfsClient,
    }

    fn fixture(seed: u64, datanodes: usize) -> Fixture {
        let sim = Sim::new(seed);
        let net = Network::new(NetConfig::default(), sim.seed());
        let config = DfsConfig {
            block_bytes: 1 << 20,
            ..DfsConfig::default()
        };
        let nn_addr = Addr::new("nn");
        let nn = NameNode::new(RpcNode::new(&net, nn_addr.clone()), config.clone());
        let dns: Vec<DataNode> = (0..datanodes)
            .map(|i| {
                DataNode::new(
                    &sim,
                    RpcNode::new(&net, Addr::new(format!("dn-{i}"))),
                    Rc::new(MemDevice::new(64 << 20, Duration::from_micros(200))),
                    &nn_addr,
                    config.clone(),
                )
            })
            .collect();
        let client = DfsClient::new(RpcNode::new(&net, Addr::new("dfs-client")), nn_addr, config);
        sim.run_until(sim.now() + Duration::from_secs(1));
        Fixture {
            sim,
            net,
            nn,
            dns,
            client,
        }
    }

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn put_get_roundtrip_with_replication() {
        let f = fixture(81, 3);
        assert_eq!(f.nn.datanode_count(), 3);
        let data = payload(3 << 20); // 3 blocks
        let expect = data.clone();
        let ok = Rc::new(Cell::new(false));
        let o = ok.clone();
        let client = f.client.clone();
        f.client
            .put(&f.sim, "/logs/2015-01.tar", data, move |sim, r| {
                r.expect("put");
                client.get(sim, "/logs/2015-01.tar", move |_, r| {
                    assert_eq!(r.expect("get"), expect);
                    o.set(true);
                });
            });
        f.sim.run_until(f.sim.now() + Duration::from_secs(60));
        assert!(ok.get());
        assert_eq!(f.nn.files(), vec!["/logs/2015-01.tar".to_string()]);
        // Every datanode holds all three blocks (3x replication on 3 nodes).
        for dn in &f.dns {
            assert_eq!(dn.block_count(), 3);
        }
        assert_eq!(f.client.stats().errors, 0);
    }

    #[test]
    fn read_fails_over_to_replica() {
        let f = fixture(82, 3);
        let data = payload(1 << 20);
        let expect = data.clone();
        let done = Rc::new(Cell::new(false));
        let d = done.clone();
        let client = f.client.clone();
        let net = f.net.clone();
        // The first block's pipeline starts at the first datanode to
        // register.
        let head = f.nn.inner.borrow().datanodes[0].clone();
        f.client.put(&f.sim, "/f", data, move |sim, r| {
            r.expect("put");
            // Kill the first replica's datanode; the read must still work.
            net.set_down(sim, &head);
            client.get(sim, "/f", move |_, r| {
                assert_eq!(r.expect("get despite dead replica"), expect);
                d.set(true);
            });
        });
        f.sim.run_until(f.sim.now() + Duration::from_secs(60));
        assert!(done.get());
        assert!(f.client.stats().read_failovers >= 1);
    }

    #[test]
    fn write_retries_through_transient_failure() {
        let f = fixture(83, 4);
        // Take one datanode down *before* writing: pipelines through it
        // fail and the client retries until a healthy pipeline works
        // (round-robin placement rotates the head).
        f.net.set_down(&f.sim, &Addr::new("dn-1"));
        let data = payload(2 << 20);
        let ok = Rc::new(Cell::new(false));
        let o = ok.clone();
        f.client.put(&f.sim, "/resilient", data, move |_, r| {
            r.expect("put eventually succeeds");
            o.set(true);
        });
        f.sim.run_until(f.sim.now() + Duration::from_secs(120));
        assert!(ok.get());
        let stats = f.client.stats();
        assert!(stats.errors > 0, "client saw transient errors");
        assert!(stats.error_window().is_some());
    }

    #[test]
    fn missing_file_errors() {
        let f = fixture(84, 3);
        let got = Rc::new(Cell::new(false));
        let g = got.clone();
        f.client.get(&f.sim, "/nope", move |_, r| {
            assert_eq!(r.unwrap_err(), DfsError::NoSuchFile);
            g.set(true);
        });
        f.sim.run_until(f.sim.now() + Duration::from_secs(5));
        assert!(got.get());
    }

    #[test]
    fn insufficient_datanodes_rejected_then_recovers() {
        let f = fixture(85, 2); // below replication factor
        let ok = Rc::new(Cell::new(None));
        let o = ok.clone();
        f.client.put(&f.sim, "/f", payload(100), move |_, r| {
            o.set(Some(r.is_ok()));
        });
        // With only 2 datanodes the create_block calls keep failing until
        // the retry budget runs out.
        f.sim.run_until(f.sim.now() + Duration::from_secs(120));
        assert_eq!(ok.get(), Some(false), "put fails without enough datanodes");
    }
}
