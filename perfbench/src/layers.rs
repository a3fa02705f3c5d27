//! Timing wrappers around the calls into each layer, kept in the
//! benchmark so the program under test is unchanged.
//!
//! * [`Observed`] is a `Protocol` that delegates `cost`/`handle`/
//!   `on_restart` to [`Xenic`], records the exact latency of each
//!   committed metric transaction, and in the traced run times every
//!   `handle` call, keyed by `XMsg` variant. What it records lives in the
//!   node's own state, so each lane thread only touches the nodes it
//!   owns; the per-node tallies are merged when the run ends.
//! * [`TimedWorkload`] times a generator's `preload` and `next_txn`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use xenic::api::{TxnSpec, Workload};
use xenic::engine::{Xenic, XenicNode};
use xenic::msg::XMsg;
use xenic_hw::HwParams;
use xenic_net::{Exec, Protocol, Runtime};
use xenic_sim::{DetRng, SimTime};
use xenic_store::{Key, Value};

/// Every `XMsg` variant, in declaration order; the index is the key of
/// the per-variant handler tallies.
pub const VARIANTS: [&str; 29] = [
    "StartTxn",
    "RetryTxn",
    "ReadSet",
    "WritesReady",
    "Outcome",
    "ApplyLog",
    "AppliedAck",
    "TxnSubmit",
    "LocalCommit",
    "Execute",
    "ExecuteResp",
    "Validate",
    "ValidateResp",
    "LogReq",
    "LogResp",
    "CommitReq",
    "CommitAck",
    "AbortReq",
    "RaftAppend",
    "RaftNack",
    "HermesInv",
    "HermesVal",
    "ExecShip",
    "ExecShipResp",
    "DmaLookupDone",
    "RetryCommitApply",
    "RetryBackupLog",
    "DmaLogDone",
    "PhaseTimeout",
];

/// The index of `msg`'s variant in [`VARIANTS`]. `CommitTick` shares
/// `PhaseTimeout`'s slot: both are loss-tolerance timers that never fire
/// on a reliable fabric.
fn variant(msg: &XMsg) -> usize {
    match msg {
        XMsg::StartTxn { .. } => 0,
        XMsg::RetryTxn { .. } => 1,
        XMsg::ReadSet { .. } => 2,
        XMsg::WritesReady { .. } => 3,
        XMsg::Outcome { .. } => 4,
        XMsg::ApplyLog { .. } => 5,
        XMsg::AppliedAck { .. } => 6,
        XMsg::TxnSubmit(_) => 7,
        XMsg::LocalCommit(_) => 8,
        XMsg::Execute(_) => 9,
        XMsg::ExecuteResp(_) => 10,
        XMsg::Validate(_) => 11,
        XMsg::ValidateResp { .. } => 12,
        XMsg::LogReq(_) => 13,
        XMsg::LogResp { .. } => 14,
        XMsg::CommitReq(_) => 15,
        XMsg::CommitAck { .. } => 16,
        XMsg::AbortReq(_) => 17,
        XMsg::RaftAppend(_) => 18,
        XMsg::RaftNack { .. } => 19,
        XMsg::HermesInv(_) => 20,
        XMsg::HermesVal { .. } => 21,
        XMsg::ExecShip(_) => 22,
        XMsg::ExecShipResp(_) => 23,
        XMsg::DmaLookupDone(_) => 24,
        XMsg::RetryCommitApply(_) => 25,
        XMsg::RetryBackupLog(_) => 26,
        XMsg::DmaLogDone(_) => 27,
        XMsg::PhaseTimeout { .. } | XMsg::CommitTick { .. } => 28,
    }
}

/// Handler calls and wall nanoseconds per `XMsg` variant.
#[derive(Clone, Copy, Default)]
pub struct HandlerTimes {
    pub calls: [u64; VARIANTS.len()],
    pub ns: [u64; VARIANTS.len()],
}

impl HandlerTimes {
    pub fn add(&mut self, other: &HandlerTimes) {
        for i in 0..VARIANTS.len() {
            self.calls[i] += other.calls[i];
            self.ns[i] += other.ns[i];
        }
    }

    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

/// A node of the [`Observed`] protocol: the engine's state plus what the
/// wrapper saw.
pub struct ObservedNode {
    pub node: XenicNode,
    /// Time every handler call (the traced run) or not.
    timed: bool,
    pub times: HandlerTimes,
    /// Exact latency of every committed metric transaction in the window.
    pub latencies: Vec<u64>,
    latency_sum: u64,
    /// Handler calls that recorded more than one latency sample, whose
    /// samples cannot be told apart.
    pub ambiguous: u64,
}

impl ObservedNode {
    pub fn new(node: XenicNode, timed: bool) -> Self {
        ObservedNode {
            node,
            timed,
            times: HandlerTimes::default(),
            latencies: Vec::new(),
            latency_sum: 0,
            ambiguous: 0,
        }
    }

    /// Opens the measure window: the engine discards its warmup
    /// statistics, and so does the wrapper.
    pub fn start_measuring(&mut self, now: SimTime) {
        self.node.stats.start_measuring(now);
        self.times = HandlerTimes::default();
        self.latencies.clear();
        self.latency_sum = 0;
    }

    /// Recovers the samples the engine added to its latency histogram.
    /// The histogram keeps only bucket counts, which would quantize the
    /// reported percentiles to ~3%, but its exact mean times its count is
    /// the exact sum of its samples (integers far below 2^53), so one new
    /// sample is that sum minus the samples seen before.
    fn note_latencies(&mut self, before: u64) {
        let hist = &self.node.stats.latency;
        let count = hist.count();
        if count == before {
            return;
        }
        let sum = (hist.mean() * count as f64).round() as u64;
        if count == before + 1 {
            self.latencies.push(sum - self.latency_sum);
        } else {
            self.ambiguous += 1;
        }
        self.latency_sum = sum;
    }
}

/// [`Xenic`] observed from outside: exact commit latencies always, and
/// every `handle` call timed when the node is `timed`.
pub struct Observed;

impl Protocol for Observed {
    type Msg = XMsg;
    type State = ObservedNode;

    fn cost(msg: &XMsg, exec: Exec, params: &HwParams) -> u64 {
        Xenic::cost(msg, exec, params)
    }

    fn handle(state: &mut ObservedNode, rt: &mut Runtime<XMsg>, node: usize, msg: XMsg) {
        let before = state.node.stats.latency.count();
        if state.timed {
            let v = variant(&msg);
            let t0 = Instant::now();
            Xenic::handle(&mut state.node, rt, node, msg);
            state.times.ns[v] += t0.elapsed().as_nanos() as u64;
            state.times.calls[v] += 1;
        } else {
            Xenic::handle(&mut state.node, rt, node, msg);
        }
        state.note_latencies(before);
    }

    fn on_restart(state: &mut ObservedNode, rt: &mut Runtime<XMsg>, node: usize) {
        Xenic::on_restart(&mut state.node, rt, node);
    }
}

/// Wall time a node's generator spent, written only by the thread that
/// owns the node.
#[derive(Default)]
pub struct WorkloadTimes {
    pub preload_ns: AtomicU64,
    pub next_txn_ns: AtomicU64,
    pub next_txn_calls: AtomicU64,
}

impl WorkloadTimes {
    pub fn get(&self) -> (u64, u64, u64) {
        (
            self.preload_ns.load(Ordering::Relaxed),
            self.next_txn_ns.load(Ordering::Relaxed),
            self.next_txn_calls.load(Ordering::Relaxed),
        )
    }
}

/// A generator with its `preload` and `next_txn` calls timed.
pub struct TimedWorkload {
    pub inner: Box<dyn Workload>,
    pub times: Arc<WorkloadTimes>,
}

impl Workload for TimedWorkload {
    fn next_txn(&mut self, node: usize, rng: &mut DetRng) -> TxnSpec {
        let t0 = Instant::now();
        let spec = self.inner.next_txn(node, rng);
        let ns = t0.elapsed().as_nanos() as u64;
        self.times.next_txn_ns.fetch_add(ns, Ordering::Relaxed);
        self.times.next_txn_calls.fetch_add(1, Ordering::Relaxed);
        spec
    }

    fn value_bytes(&self) -> u32 {
        self.inner.value_bytes()
    }

    fn preload(&self, shard: u32) -> Vec<(Key, Value)> {
        let t0 = Instant::now();
        let rows = self.inner.preload(shard);
        let ns = t0.elapsed().as_nanos() as u64;
        self.times.preload_ns.fetch_add(ns, Ordering::Relaxed);
        rows
    }
}
