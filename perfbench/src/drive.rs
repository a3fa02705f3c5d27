//! The benchmark's own run loop: the same steps as
//! `xenic::harness::run_xenic_cluster`, split into timed phases (build,
//! warmup, measure, drain, check), on the observing wrapper of
//! `crate::layers`.

use std::sync::Arc;
use std::time::Instant;

use xenic::api::{Partitioning, Workload};
use xenic::audit::{logs_drained, no_locks_held};
use xenic::engine::XenicNode;
use xenic::harness::RunResult;
use xenic::msg::XMsg;
use xenic::XenicConfig;
use xenic_hw::HwParams;
use xenic_net::{Cluster, Exec, LaneAssignment, LaneStats, NetConfig, ParCluster, Runtime};
use xenic_sim::{Histogram, SimTime, TraceConfig};
use xenic_store::nic_index::IndexStats;

use crate::alloc;
use crate::layers::{HandlerTimes, Observed, ObservedNode, TimedWorkload, WorkloadTimes};

/// Simulated time after the measure window in which the drained cluster
/// must go quiet. Draining stops new transactions, so the queue empties
/// long before this.
const DRAIN_NS: u64 = 200_000_000;

/// One benchmark workload: a cluster shape and a generator.
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub nodes: usize,
    pub windows: usize,
    pub lanes: usize,
    /// Seeds each invocation pools its modeled metrics over (see
    /// [`sub_seed`]).
    pub seeds: usize,
    /// NIC cache budget in values per node; `None` keeps the default,
    /// which holds the whole keyspace.
    pub nic_cache_values: Option<usize>,
    pub warmup_us: u64,
    pub measure_us: u64,
    pub mk: fn(u32) -> Box<dyn Workload>,
}

impl Spec {
    pub fn params(&self) -> HwParams {
        HwParams {
            nodes: self.nodes,
            ..HwParams::paper_testbed()
        }
    }

    pub fn cfg(&self) -> XenicConfig {
        let full = XenicConfig::full();
        XenicConfig {
            nic_cache_values: self.nic_cache_values.unwrap_or(full.nic_cache_values),
            ..full
        }
    }

    /// Every workload runs the per-node RNG discipline, which lanes need.
    pub fn net(&self) -> NetConfig {
        NetConfig::full().with_per_node_rng()
    }

    pub fn part(&self) -> Partitioning {
        Partitioning::new(self.nodes as u32, self.cfg().replication)
    }

    pub fn warmup(&self) -> SimTime {
        SimTime::from_us(self.warmup_us)
    }

    pub fn horizon(&self) -> SimTime {
        SimTime::from_us(self.warmup_us + self.measure_us)
    }

    pub fn workload(&self) -> Box<dyn Workload> {
        (self.mk)(self.nodes as u32)
    }
}

/// The `i`-th seed an invocation with `--seed seed` runs: the seed itself,
/// then a Weyl sequence from it.
pub fn sub_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// What must repeat exactly for one seed, whatever the scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub committed: u64,
    pub aborted: u64,
    pub digest: u64,
    pub events: u64,
}

/// Post-drain audit results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Audit {
    /// Backup `(key, value, version)` entries that differ from their
    /// primary.
    pub diverged_pairs: u64,
    pub locks_held: usize,
    pub log_outstanding: usize,
}

/// How a run is instrumented.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Nothing added: the end-to-end configuration.
    Plain,
    /// Timed handlers and generators, and counted allocations.
    Layers,
    /// The simulator's own span tracer (serial by construction).
    Spans,
}

/// Everything one run measured.
pub struct Run {
    /// Process CPU seconds of build and preload.
    pub setup_cpu_s: f64,
    /// Process CPU seconds of the warmup plus measure event loop, every
    /// lane thread included.
    pub run_cpu_s: f64,
    pub setup_s: f64,
    pub warmup_s: f64,
    pub measure_s: f64,
    pub drain_s: f64,
    pub audit_s: f64,
    pub result: RunResult,
    /// Exact latency of every committed metric transaction, ns, sorted.
    pub latencies: Vec<u64>,
    /// Whether the exact samples reproduce the engine's own histogram
    /// (count, mean, bucketed p50 and p99).
    pub latencies_consistent: bool,
    pub fp: Fingerprint,
    pub audit: Audit,
    pub lane: LaneStats,
    pub msgs_sent: u64,
    pub committed_all: u64,
    pub multihop: u64,
    pub nic_executed: u64,
    pub nic: IndexStats,
    pub handlers: HandlerTimes,
    pub preload_ns: u64,
    pub next_txn_ns: u64,
    pub next_txn_calls: u64,
    pub setup_allocs: u64,
    pub measure_allocs: u64,
    /// Median simulated Execute / Validate / Log span, ns (spans mode).
    pub phase_p50_ns: [u64; 3],
}

impl Run {
    /// Wall seconds of the warmup plus measure event loop.
    pub fn run_s(&self) -> f64 {
        self.warmup_s + self.measure_s
    }
}

/// The scheduler behind a run: serial, or the multi-lane scheduler.
enum Sched {
    Serial(Cluster<Observed>),
    Par(ParCluster<Observed>),
}

impl Sched {
    fn run_until(&mut self, horizon: SimTime) -> u64 {
        match self {
            Sched::Serial(c) => c.run_until(horizon),
            Sched::Par(p) => p.run_until(horizon),
        }
    }

    fn now(&self) -> SimTime {
        match self {
            Sched::Serial(c) => c.rt.now(),
            Sched::Par(p) => p.now(),
        }
    }

    fn state_mut(&mut self, node: usize) -> &mut ObservedNode {
        match self {
            Sched::Serial(c) => &mut c.states[node],
            Sched::Par(p) => p.state_mut(node),
        }
    }

    fn rt_for(&self, node: usize) -> &Runtime<XMsg> {
        match self {
            Sched::Serial(c) => &c.rt,
            Sched::Par(p) => p.rt_for(node),
        }
    }

    fn lane_stats(&self) -> LaneStats {
        match self {
            Sched::Serial(_) => LaneStats::default(),
            Sched::Par(p) => p.stats(),
        }
    }

    fn finish(self) -> Cluster<Observed> {
        match self {
            Sched::Serial(c) => c,
            Sched::Par(p) => p.into_cluster(),
        }
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Confines the calling thread, and every thread it starts afterwards,
/// to the lowest-numbered core it may run on. Returns that core.
pub fn pin_to_one_core() -> Option<usize> {
    use std::os::raw::c_int;
    extern "C" {
        fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let core = (0..mask.len() * 64).find(|&i| mask[i / 64] >> (i % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[core / 64] = 1 << (core % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes naming a core
    // from the thread's own affinity mask.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(core)
}

/// CPU seconds this process has used so far, over all its threads,
/// finished ones included (`clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`).
/// Unlike wall time it does not count the time a thread waits for a
/// core, so lane threads that a shared host deschedules cost no more.
fn cpu_s() -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two `long`s on
    // Linux) and the clock id is the kernel's process CPU-time clock.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

fn add_index_stats(sum: &mut IndexStats, s: IndexStats) {
    sum.hits += s.hits;
    sum.misses += s.misses;
    sum.evictions += s.evictions;
}

/// Builds, warms, measures, drains and audits one cluster.
pub fn run(spec: &Spec, seed: u64, lanes: usize, mode: Mode) -> Run {
    let params = spec.params();
    let cfg = spec.cfg();
    let part = spec.part();
    let windows = spec.windows;
    let nodes = spec.nodes;
    let net = match mode {
        Mode::Spans => spec.net().with_trace(TraceConfig::spans()),
        _ => spec.net(),
    };
    let wl_times: Vec<Arc<WorkloadTimes>> = (0..nodes).map(|_| Arc::default()).collect();
    alloc::set_counting(mode == Mode::Layers);

    // Build and preload.
    let a0 = alloc::allocs();
    let c = cpu_s();
    let t = Instant::now();
    let mut cluster: Cluster<Observed> = Cluster::new(params, net, seed, |node| {
        let wl = spec.workload();
        let wl: Box<dyn Workload> = if mode == Mode::Layers {
            Box::new(TimedWorkload {
                inner: wl,
                times: wl_times[node].clone(),
            })
        } else {
            wl
        };
        ObservedNode::new(
            XenicNode::new(node, cfg, part, wl, windows),
            mode == Mode::Layers,
        )
    });
    for node in 0..nodes {
        for slot in 0..windows {
            cluster.seed(
                SimTime::from_ns((node * windows + slot) as u64 * 97),
                node,
                Exec::Host,
                XMsg::StartTxn { slot: slot as u32 },
            );
        }
    }
    let mut sched = if lanes > 1 && ParCluster::eligible(&cluster) {
        Sched::Par(ParCluster::from_cluster_assigned(
            cluster,
            &LaneAssignment::contiguous(nodes, lanes),
        ))
    } else {
        Sched::Serial(cluster)
    };
    let setup_s = secs(t);
    let setup_cpu_s = cpu_s() - c;
    let setup_allocs = alloc::allocs() - a0;

    // Warmup.
    let c = cpu_s();
    let t = Instant::now();
    let warm_events = sched.run_until(spec.warmup());
    let warmup_s = secs(t);
    let warmup_cpu_s = cpu_s() - c;

    let mstart = sched.now();
    let mut nic0 = IndexStats::default();
    for n in 0..nodes {
        let st = sched.state_mut(n);
        st.start_measuring(mstart);
        add_index_stats(&mut nic0, st.node.nic_index.stats());
    }
    let rt_sum = |sched: &Sched, f: &dyn Fn(&Runtime<XMsg>, usize) -> u64| -> u64 {
        (0..nodes).map(|n| f(sched.rt_for(n), n)).sum()
    };
    let host_busy0 = rt_sum(&sched, &|rt, n| rt.pool_busy_ns(n, Exec::Host));
    let nic_busy0 = rt_sum(&sched, &|rt, n| rt.pool_busy_ns(n, Exec::Nic));
    let lio0 = rt_sum(&sched, &|rt, n| rt.lio_tx_bytes(n));
    let cx50 = rt_sum(&sched, &|rt, n| rt.cx5_tx_bytes(n));
    let dma0 = rt_sum(&sched, &|rt, n| rt.dma_elements(n));
    let msgs0 = rt_sum(&sched, &|rt, n| rt.net_msgs_sent(n));
    let wl0: Vec<(u64, u64, u64)> = wl_times.iter().map(|w| w.get()).collect();

    // Measure.
    let a1 = alloc::allocs();
    let c = cpu_s();
    let t = Instant::now();
    let horizon = spec.horizon();
    let measure_events = sched.run_until(horizon);
    let measure_s = secs(t);
    let run_cpu_s = warmup_cpu_s + cpu_s() - c;
    let measure_allocs = alloc::allocs() - a1;
    alloc::set_counting(false);
    let mend = sched.now().max(horizon);
    let lane = sched.lane_stats();

    // Drain: reassemble the cluster, read the window, then quiesce.
    let t = Instant::now();
    let mut cluster = sched.finish();
    let mut drain_s = secs(t);
    let msgs_sent = (0..nodes).map(|n| cluster.rt.net_msgs_sent(n)).sum::<u64>() - msgs0;
    let result = collect(
        &cluster, mstart, mend, host_busy0, nic_busy0, lio0, cx50, dma0,
    );
    let mut nic1 = IndexStats::default();
    let mut handlers = HandlerTimes::default();
    let mut latencies = Vec::with_capacity(result.committed as usize);
    let mut ambiguous = 0;
    for st in &cluster.states {
        add_index_stats(&mut nic1, st.node.nic_index.stats());
        handlers.add(&st.times);
        latencies.extend_from_slice(&st.latencies);
        ambiguous += st.ambiguous;
    }
    latencies.sort_unstable();
    let mut rebuilt = Histogram::new();
    for &l in &latencies {
        rebuilt.record(l);
    }
    let latencies_consistent = ambiguous == 0
        && rebuilt.count() == result.committed
        && rebuilt.median() == result.p50_ns
        && rebuilt.p99() == result.p99_ns
        && rebuilt.mean().to_bits() == result.mean_ns.to_bits();
    let (mut preload_ns, mut next_txn_ns, mut next_txn_calls) = (0, 0, 0);
    for (w, w0) in wl_times.iter().zip(&wl0) {
        let (p, n, c) = w.get();
        preload_ns += p;
        next_txn_ns += n - w0.1;
        next_txn_calls += c - w0.2;
    }
    let phase_p50_ns = if mode == Mode::Spans {
        phase_p50s(&cluster, mstart)
    } else {
        [0; 3]
    };
    let stat_sum = |f: fn(&XenicNode) -> u64| cluster.states.iter().map(|s| f(&s.node)).sum();
    let committed_all = stat_sum(|s| s.stats.committed_all.get());
    let multihop = stat_sum(|s| s.stats.multihop.get());
    let nic_executed = stat_sum(|s| s.stats.nic_executed.get());
    let fp = Fingerprint {
        committed: result.committed,
        aborted: result.aborted,
        digest: digest(cluster.states.iter().map(|s| &s.node)),
        events: warm_events + measure_events,
    };

    let t = Instant::now();
    for st in &mut cluster.states {
        st.node.draining = true;
    }
    cluster.run_until(SimTime::from_ns(horizon.as_ns() + DRAIN_NS));
    drain_s += secs(t);

    let t = Instant::now();
    let states: Vec<XenicNode> = cluster.states.into_iter().map(|s| s.node).collect();
    let audit = Audit {
        diverged_pairs: diverged_pairs(&states, &part),
        locks_held: no_locks_held(&states).err().map_or(0, |held| held.len()),
        log_outstanding: logs_drained(&states).err().unwrap_or(0),
    };
    let audit_s = secs(t);

    Run {
        setup_cpu_s,
        run_cpu_s,
        setup_s,
        warmup_s,
        measure_s,
        drain_s,
        audit_s,
        latencies,
        latencies_consistent,
        result,
        fp,
        audit,
        lane,
        msgs_sent,
        committed_all,
        multihop,
        nic_executed,
        nic: IndexStats {
            hits: nic1.hits - nic0.hits,
            misses: nic1.misses - nic0.misses,
            evictions: nic1.evictions - nic0.evictions,
        },
        handlers,
        preload_ns,
        next_txn_ns,
        next_txn_calls,
        setup_allocs,
        measure_allocs,
        phase_p50_ns,
    }
}

/// The sample at quantile `q` of sorted `xs`, ranked as
/// `Histogram::quantile` ranks (the `ceil(q * n)`-th smallest), so the
/// exact value falls in the bucket the histogram reports.
pub fn quantile(xs: &[u64], q: f64) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    let rank = ((q * xs.len() as f64).ceil() as usize).max(1);
    xs[rank - 1]
}

/// Median simulated Execute / Validate / Log span durations of spans
/// that began in the measure window.
fn phase_p50s(cluster: &Cluster<Observed>, mstart: SimTime) -> [u64; 3] {
    let mut hist = [Histogram::new(), Histogram::new(), Histogram::new()];
    for s in cluster.rt.tracer().spans() {
        if s.begin < mstart {
            continue;
        }
        let i = match s.name {
            "Execute" => 0,
            "Validate" => 1,
            "Log" => 2,
            _ => continue,
        };
        hist[i].record(s.dur_ns());
    }
    hist.map(|h| h.median())
}

/// The whole-cluster state digest of `xenic::harness::cluster_digest`,
/// over any engine's nodes.
pub fn digest<'a>(nodes: impl Iterator<Item = &'a XenicNode>) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for st in nodes {
        let mut keys: Vec<u64> = st.host_table.iter_keys().map(|(k, _)| k).collect();
        keys.sort_unstable();
        for k in keys {
            let (v, ver) = st.host_table.get(k).expect("key listed by iter_keys");
            for b in v.bytes() {
                digest = (digest ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
            }
            digest = (digest ^ ver).wrapping_mul(0x100_0000_01b3);
        }
    }
    digest
}

/// Counts backup entries whose value or version differs from the
/// primary's (or whose key the primary lacks).
fn diverged_pairs(states: &[XenicNode], part: &Partitioning) -> u64 {
    let mut diverged = 0;
    for shard in 0..part.nodes {
        let primary = &states[part.primary(shard)];
        for b in part.backups(shard) {
            let Some(map) = states[b].backups.get(&shard) else {
                continue;
            };
            for (k, (bv, bver)) in map {
                match primary.host_table.get(*k) {
                    Some((pv, pver)) if pver == *bver && pv == bv => {}
                    _ => diverged += 1,
                }
            }
        }
    }
    diverged
}

/// The window metrics, computed exactly as the harness computes them so
/// the two can be compared bit for bit.
#[allow(clippy::too_many_arguments)]
fn collect(
    cluster: &Cluster<Observed>,
    mstart: SimTime,
    mend: SimTime,
    host_busy0: u64,
    nic_busy0: u64,
    lio0: u64,
    cx50: u64,
    dma0: u64,
) -> RunResult {
    let nodes = cluster.rt.node_count();
    let secs = mend.since(mstart) as f64 / 1e9;
    let mut latency = Histogram::new();
    let mut committed = 0u64;
    let mut aborted = 0u64;
    let mut all_committed = 0u64;
    let mut log_ship_writes = 0u64;
    let mut cxl_log_writes = 0u64;
    for st in cluster.states.iter().map(|s| &s.node) {
        latency.merge(&st.stats.latency);
        committed += st.stats.committed.events();
        aborted += st.stats.aborted.get();
        all_committed += st.stats.committed_all.get();
        log_ship_writes += st.stats.log_ship_writes.get();
        cxl_log_writes += st.stats.cxl_log_writes.get();
    }
    let window_ns = mend.since(mstart) as f64;
    let rt = &cluster.rt;
    let sum = |f: &dyn Fn(usize) -> u64| (0..nodes).map(f).sum::<u64>();
    let host_busy = sum(&|n| rt.pool_busy_ns(n, Exec::Host)) - host_busy0;
    let nic_busy = sum(&|n| rt.pool_busy_ns(n, Exec::Nic)) - nic_busy0;
    let lio_bytes = sum(&|n| rt.lio_tx_bytes(n)) - lio0;
    let cx5_bytes = sum(&|n| rt.cx5_tx_bytes(n)) - cx50;
    let dma_elements = sum(&|n| rt.dma_elements(n)) - dma0;
    let line_bytes = rt.params.net_gbps / 8.0 * window_ns;
    let ops_per_frame = (0..nodes).map(|n| rt.ops_per_frame(n)).sum::<f64>() / nodes as f64;
    let dma_vector_fill = (0..nodes).map(|n| rt.dma_vector_fill(n)).sum::<f64>() / nodes as f64;
    RunResult {
        tput_per_server: committed as f64 / secs / nodes as f64,
        p50_ns: latency.median(),
        p99_ns: latency.p99(),
        mean_ns: latency.mean(),
        committed,
        aborted,
        host_busy_cores: host_busy as f64 / window_ns / nodes as f64,
        nic_busy_cores: nic_busy as f64 / window_ns / nodes as f64,
        lio_utilization: lio_bytes as f64 / (line_bytes * nodes as f64),
        cx5_utilization: cx5_bytes as f64 / (line_bytes * nodes as f64),
        ops_per_frame,
        dma_vector_fill,
        dma_elements_per_txn: if all_committed == 0 {
            0.0
        } else {
            dma_elements as f64 / all_committed as f64
        },
        log_ship_writes,
        cxl_log_writes,
        cross_lane_events: 0,
        barriers: 0,
    }
}

/// The fields of a [`RunResult`] that a scheduler choice must not move,
/// as exact bit patterns.
pub fn result_bits(r: &RunResult) -> [u64; 15] {
    [
        r.tput_per_server.to_bits(),
        r.p50_ns,
        r.p99_ns,
        r.mean_ns.to_bits(),
        r.committed,
        r.aborted,
        r.host_busy_cores.to_bits(),
        r.nic_busy_cores.to_bits(),
        r.lio_utilization.to_bits(),
        r.cx5_utilization.to_bits(),
        r.ops_per_frame.to_bits(),
        r.dma_vector_fill.to_bits(),
        r.dma_elements_per_txn.to_bits(),
        r.log_ship_writes,
        r.cxl_log_writes,
    ]
}
