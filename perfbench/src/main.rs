//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --manifest > BENCHMARK.json
//! ```
//!
//! Each invocation pins itself to one core, builds, warms, measures and
//! drains one workload's cluster over and over for `--seconds`, timing
//! each phase separately, then checks the outputs (see `README.md` in this directory). With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! adds a timed run (handler, generator and allocation tallies), a span
//! tracer run and, on multi-lane workloads, a serial run, and reports
//! the per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod alloc;
mod drive;
mod layers;

use std::fmt::Write as _;
use std::time::Instant;

use xenic::api::Workload;
use xenic::harness::{cluster_digest, run_xenic_cluster_with, LaneAssign, RunOptions};
use xenic_check::{check_history, CheckOptions, HistoryRecorder};
use xenic_sim::SimTime;
use xenic_workloads::{
    Retwis, RetwisConfig, Smallbank, SmallbankConfig, Tpcc, TpccConfig, TpccMix, YcsbE, YcsbEConfig,
};

use drive::{result_bits, sub_seed, Fingerprint, Mode, Run, Spec};
use layers::VARIANTS;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Seconds each invocation measures (the manifest's `run_seconds`).
const RUN_SECONDS: u64 = 20;
/// A cap on repeats per invocation, for short workloads.
const MAX_REPEATS: usize = 40;

fn mk_retwis(nodes: u32) -> Box<dyn Workload> {
    Box::new(Retwis::new(RetwisConfig::sim(nodes)))
}

fn mk_tpcc(nodes: u32) -> Box<dyn Workload> {
    Box::new(Tpcc::new(TpccConfig::sim(nodes, TpccMix::Full)))
}

fn mk_ycsbe(nodes: u32) -> Box<dyn Workload> {
    Box::new(YcsbE::new(YcsbEConfig::sim(nodes)))
}

fn mk_smallbank(nodes: u32) -> Box<dyn Workload> {
    Box::new(Smallbank::new(SmallbankConfig {
        accounts_per_node: 1_000,
        ..SmallbankConfig::sim(nodes)
    }))
}

const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "retwis-smallcache",
        why: "Retwis with a NIC cache of 1/8 of the keys: the only working set that exceeds the cache, and the event loop dominates",
        nodes: 6,
        windows: 64,
        lanes: 1,
        seeds: 3,
        nic_cache_values: Some(12_500),
        warmup_us: 300,
        measure_us: 1_000,
        mk: mk_retwis,
    },
    Spec {
        name: "tpcc-full",
        why: "TPC-C five-type mix: wide write sets, heavy aborts, log and apply handlers, and the heaviest build and preload",
        nodes: 6,
        windows: 64,
        lanes: 1,
        seeds: 3,
        nic_cache_values: None,
        warmup_us: 500,
        measure_us: 2_000,
        mk: mk_tpcc,
    },
    Spec {
        name: "ycsbe-scan",
        why: "YCSB-E, 95% range scans: NIC ordered-index walks dominate handler time; nothing else stresses scans",
        nodes: 6,
        windows: 64,
        lanes: 1,
        seeds: 6,
        nic_cache_values: None,
        warmup_us: 500,
        measure_us: 4_000,
        mk: mk_ycsbe,
    },
    // 8 windows per node, not 2: with 2 the median transaction never
    // queues, so `p50_us` reads the same on every seed.
    Spec {
        name: "smallbank-64n-lanes2",
        why: "Smallbank on 64 nodes with 2 scheduler lanes: the only workload that runs the multi-lane scheduler",
        seeds: 5,
        nodes: 64,
        windows: 8,
        lanes: 2,
        nic_cache_values: None,
        warmup_us: 60,
        measure_us: 500,
        mk: mk_smallbank,
    },
];

/// An end-to-end metric: what a user of the modeled system, or of the
/// simulator, sees. `bound` is the share of the parent's median by which
/// it may worsen.
struct Metric {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
}

/// `setup_s` and `run_s` are CPU seconds of the process, pinned to one
/// core, not wall seconds: with lane threads on separate cores of a
/// shared host, wall time measures how long a descheduled lane keeps the
/// others waiting at a barrier. Host speed still drifts by 10-15% over tens of seconds, so `run_s`
/// gets the widest bound short of `setup_s`'s, which is the widest of
/// all so that work moved into set-up shows.
const END_TO_END: [Metric; 7] = [
    Metric {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    Metric {
        name: "run_s",
        unit: "s",
        better: "lower",
        bound: 0.24,
    },
    Metric {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.1,
    },
    Metric {
        name: "tput_per_server",
        unit: "txn/s",
        better: "higher",
        bound: 0.1,
    },
    Metric {
        name: "p50_us",
        unit: "us",
        better: "lower",
        bound: 0.1,
    },
    Metric {
        name: "p99_us",
        unit: "us",
        better: "lower",
        bound: 0.15,
    },
    Metric {
        name: "abort_rate",
        unit: "ratio",
        better: "lower",
        bound: 0.25,
    },
];

/// Per-layer metrics that do not depend on the message variant:
/// `(name, unit, better)`.
const LAYER_METRICS: [(&str, &str, &str); 36] = [
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("net.dispatch_s", "s", "lower"),
    ("net.msgs_sent", "count", "lower"),
    ("hw.ops_per_frame", "ratio", "higher"),
    ("lanes.cross_lane_events", "count", "lower"),
    ("lanes.cross_lane_fraction", "ratio", "lower"),
    ("lanes.barriers", "count", "lower"),
    ("lanes.speedup_vs_serial", "ratio", "higher"),
    ("core.handle_s", "s", "lower"),
    ("core.multihop_frac", "ratio", "higher"),
    ("core.nic_executed_frac", "ratio", "higher"),
    ("core.phase.execute_p50_us", "us", "lower"),
    ("core.phase.validate_p50_us", "us", "lower"),
    ("core.phase.log_p50_us", "us", "lower"),
    ("workloads.preload_s", "s", "lower"),
    ("workloads.next_txn_ns", "ns", "lower"),
    ("store.build_s", "s", "lower"),
    ("store.nic_hit_rate", "ratio", "higher"),
    ("store.nic_evictions", "count", "lower"),
    ("hw.nic_busy_cores", "cores", "lower"),
    ("hw.host_busy_cores", "cores", "lower"),
    ("hw.dma_vector_fill", "ratio", "higher"),
    ("hw.dma_elements_per_txn", "ratio", "lower"),
    ("repl.log_ship_writes_per_txn", "ratio", "lower"),
    ("audit_diverged_pairs", "count", "lower"),
    ("check.dsg_s", "s", "lower"),
    ("check.audit_s", "s", "lower"),
    ("alloc.setup_allocs", "count", "lower"),
    ("alloc.measure_allocs_per_txn", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("phase.warmup_s", "s", "lower"),
    ("phase.measure_s", "s", "lower"),
    ("phase.drain_s", "s", "lower"),
    ("host.nproc", "count", "higher"),
    ("host.lanes", "count", "higher"),
];

/// The `XMsg` variants whose handlers run on at least one workload; the
/// others (replication backends other than log shipping, loss-tolerance
/// timers and acks, full-ring retries) never fire on a reliable fabric.
const REPORTED_VARIANTS: [&str; 21] = [
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
    "AbortReq",
    "ExecShip",
    "ExecShipResp",
    "DmaLookupDone",
    "DmaLogDone",
];

/// Every per-layer metric, handler variants included.
fn per_layer_metrics() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<_> = LAYER_METRICS
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u, b))
        .collect();
    for v in REPORTED_VARIANTS {
        out.push((format!("core.handle.{v}.calls"), "count", "lower"));
        out.push((format!("core.handle.{v}.ns_per_call"), "ns", "lower"));
    }
    out
}

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Bench(Args),
    Manifest,
}

fn parse_args() -> Result<Command, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--manifest") {
        return Ok(Command::Manifest);
    }
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let spec = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or(format!("unknown workload {name}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace takes 0 or 1, got {t}")),
    };
    Ok(Command::Bench(Args {
        spec,
        seed,
        seconds,
        trace,
    }))
}

fn main() {
    match parse_args() {
        Ok(Command::Manifest) => print!("{}", manifest()),
        Ok(Command::Bench(args)) => bench(&args),
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> | --manifest"
            );
            std::process::exit(2);
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `BENCHMARK.json`, generated from the catalogues above.
fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n");
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"why\": {}}}{sep}",
            json_str(w.name),
            json_str(w.why)
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{sep}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better),
            m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer_metrics();
    for (i, (n, u, b)) in layers.iter().enumerate() {
        let sep = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{sep}",
            json_str(n),
            json_str(u),
            json_str(b)
        );
    }
    s.push_str("  ]\n}\n");
    s
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Failed checks, reported on standard error.
#[derive(Default)]
struct Checks {
    failures: Vec<String>,
}

impl Checks {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("CHECK FAILED: {msg}");
            self.failures.push(msg);
        }
    }
}

/// Runs the repository harness on the same seed with a history recorder
/// attached (which keeps it on the serial scheduler) and checks that it
/// agrees with the benchmark's own run loop, then checks the history for
/// serializability. Returns the DSG check's wall seconds.
fn harness_check(spec: &Spec, seed: u64, first: &Run, checks: &mut Checks) -> f64 {
    let recorder = HistoryRecorder::new();
    let hook = recorder.clone();
    let opts = RunOptions {
        windows: spec.windows,
        warmup: spec.warmup(),
        measure: SimTime::from_us(spec.measure_us),
        seed,
        lanes: spec.lanes,
        assignment: LaneAssign::Contiguous,
    };
    let (result, cluster) = run_xenic_cluster_with(
        spec.params(),
        spec.net(),
        spec.cfg(),
        &opts,
        |_| spec.workload(),
        move |c| {
            for st in &mut c.states {
                st.set_recorder(hook.clone());
            }
        },
    );
    let fp = Fingerprint {
        committed: result.committed,
        aborted: result.aborted,
        digest: cluster_digest(&cluster),
        events: cluster.rt.queue.processed(),
    };
    drop(cluster);
    checks.expect(result_bits(&result) == result_bits(&first.result), || {
        format!(
            "harness RunResult differs from the benchmark's: {result:?} vs {:?}",
            first.result
        )
    });
    checks.expect(fp == first.fp, || {
        format!(
            "serial harness fingerprint {fp:?} != benchmark fingerprint {:?}",
            first.fp
        )
    });
    let history = recorder.snapshot();
    let t = Instant::now();
    let report = check_history(&history, &CheckOptions::strict());
    let dsg_s = t.elapsed().as_secs_f64();
    checks.expect(report.is_serializable(), || {
        format!("DSG check failed: {}", report.describe())
    });
    println!(
        "# check: serial harness run agrees, DSG strict: {} [{dsg_s:.3}s]",
        report.describe()
    );
    dsg_s
}

fn print_run(label: &str, r: &Run) {
    println!(
        "# {label}: cpu setup {:.4}s run {:.4}s | wall setup {:.4}s warmup {:.4}s measure {:.4}s drain {:.4}s audit {:.4}s | events {} committed {} aborted {} digest {:016x} | peak rss {:.1} MB",
        r.setup_cpu_s,
        r.run_cpu_s,
        r.setup_s,
        r.warmup_s,
        r.measure_s,
        r.drain_s,
        r.audit_s,
        r.fp.events,
        r.fp.committed,
        r.fp.aborted,
        r.fp.digest,
        peak_rss_mb()
    );
}

fn bench(args: &Args) {
    let spec = args.spec;
    let nproc = xenic::resolve_parallelism(0);
    // One core for the whole process, lane threads included: a lane that
    // waits at a barrier for a descheduled peer then costs no CPU time.
    let core = drive::pin_to_one_core();
    println!("# workload {}: {}", spec.name, spec.why);
    println!(
        "# host: nproc={nproc} core={} lanes={} seed={} ({} seeds) rng=per-node nodes={} windows={} warmup={}us measure={}us",
        core.map_or("unpinned".to_string(), |c| c.to_string()),
        spec.lanes,
        args.seed,
        spec.seeds,
        spec.nodes,
        spec.windows,
        spec.warmup_us,
        spec.measure_us
    );
    let mut checks = Checks::default();

    // End-to-end repeats, nothing traced. Repeat `i` runs seed
    // `i % spec.seeds`: modeled metrics pool the first round, so they do
    // not depend on how many repeats the host managed, and every repeat
    // after the first round re-runs a seed whose fingerprint must match.
    let t0 = Instant::now();
    let mut runs: Vec<Run> = Vec::new();
    let mut peak_rss = 0.0;
    while runs.len() <= spec.seeds
        || (runs.len() < MAX_REPEATS && t0.elapsed().as_secs_f64() < args.seconds)
    {
        let seed = sub_seed(args.seed, runs.len() % spec.seeds);
        let r = drive::run(spec, seed, spec.lanes, Mode::Plain);
        print_run(&format!("repeat {} (seed {seed})", runs.len()), &r);
        runs.push(r);
        if runs.len() == 1 {
            // A fresh process's peak; later repeats only add allocator
            // fragmentation, by an amount that depends on their number.
            peak_rss = peak_rss_mb();
        }
    }
    let first = &runs[0];
    let round = &runs[..spec.seeds];
    for (i, r) in runs.iter().enumerate().skip(spec.seeds) {
        let same = &runs[i % spec.seeds];
        checks.expect(r.fp == same.fp && r.audit == same.audit, || {
            format!(
                "repeat {i} fingerprint {:?} != repeat {} {:?}",
                r.fp,
                i % spec.seeds,
                same.fp
            )
        });
    }
    for (i, r) in round.iter().enumerate() {
        checks.expect(r.audit.locks_held == 0, || {
            format!("seed {i}: {} locks held after drain", r.audit.locks_held)
        });
        checks.expect(r.audit.log_outstanding == 0, || {
            format!(
                "seed {i}: {} log records unapplied after drain",
                r.audit.log_outstanding
            )
        });
        checks.expect(r.result.committed > 0, || {
            format!("seed {i}: nothing committed")
        });
        checks.expect(r.latencies_consistent, || {
            format!("seed {i}: exact latency samples do not reproduce the engine's histogram")
        });
    }
    checks.expect(peak_rss > 0.0, || {
        "peak RSS unreadable from /proc/self/status".into()
    });
    if spec.lanes > 1 {
        checks.expect(first.lane.cross_lane_events > 0, || {
            "multi-lane workload ran on the serial scheduler".into()
        });
    }
    let dsg_s = harness_check(spec, args.seed, first, &mut checks);
    if first.audit.diverged_pairs > 0 {
        println!(
            "# KNOWN DEFECT: {} backup entries differ from their primary after drain (see perfbench/README.md)",
            first.audit.diverged_pairs
        );
    }

    let med = |f: fn(&Run) -> f64| median(runs.iter().map(f).collect());
    let run_s = med(|r| r.run_cpu_s);
    let run_wall_s = med(Run::run_s);
    let r = &first.result;
    let committed_all = first.committed_all as f64;
    let sum = |f: fn(&Run) -> u64| round.iter().map(f).sum::<u64>() as f64;
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.push((name.to_string(), value, unit));
    };
    if !args.trace {
        put("setup_s", med(|r| r.setup_cpu_s), "s");
        put("run_s", run_s, "s");
        put("peak_rss_mb", peak_rss, "MB");
        let mut latencies: Vec<u64> = round
            .iter()
            .flat_map(|r| r.latencies.iter().copied())
            .collect();
        latencies.sort_unstable();
        let aborted = sum(|r| r.result.aborted);
        put(
            "tput_per_server",
            round.iter().map(|r| r.result.tput_per_server).sum::<f64>() / spec.seeds as f64,
            "txn/s",
        );
        put(
            "p50_us",
            drive::quantile(&latencies, 0.5) as f64 / 1e3,
            "us",
        );
        put(
            "p99_us",
            drive::quantile(&latencies, 0.99) as f64 / 1e3,
            "us",
        );
        put(
            "abort_rate",
            ratio(aborted, sum(|r| r.committed_all) + aborted),
            "ratio",
        );
        println!(
            "# modeled metrics pool {} seeds; latency samples (p50_us, p99_us): {}",
            spec.seeds,
            latencies.len()
        );
    } else {
        let traced = drive::run(spec, args.seed, spec.lanes, Mode::Layers);
        print_run("traced", &traced);
        checks.expect(traced.fp == first.fp, || {
            format!(
                "traced fingerprint {:?} != untraced {:?}",
                traced.fp, first.fp
            )
        });
        let spans = drive::run(spec, args.seed, 1, Mode::Spans);
        print_run("spans", &spans);
        checks.expect(spans.fp == first.fp, || {
            format!(
                "span-traced fingerprint {:?} != untraced {:?}",
                spans.fp, first.fp
            )
        });
        let serial_run_s = if spec.lanes > 1 {
            let serial = drive::run(spec, args.seed, 1, Mode::Plain);
            print_run("serial", &serial);
            checks.expect(serial.fp == first.fp, || {
                format!("serial fingerprint {:?} != lanes {:?}", serial.fp, first.fp)
            });
            serial.run_s()
        } else {
            run_wall_s
        };
        let h = &traced.handlers;
        let handle_s = h.total_ns() as f64 / 1e9;
        let preload_s = traced.preload_ns as f64 / 1e9;
        let events = first.fp.events as f64;
        put("sim.events", events, "count");
        put("sim.events_per_s", events / run_s, "1/s");
        put("net.dispatch_s", traced.measure_s - handle_s, "s");
        put("net.msgs_sent", first.msgs_sent as f64, "count");
        put("hw.ops_per_frame", r.ops_per_frame, "ratio");
        put(
            "lanes.cross_lane_events",
            first.lane.cross_lane_events as f64,
            "count",
        );
        put(
            "lanes.cross_lane_fraction",
            first.lane.cross_lane_events as f64 / events,
            "ratio",
        );
        put("lanes.barriers", first.lane.barriers as f64, "count");
        put("lanes.speedup_vs_serial", serial_run_s / run_wall_s, "ratio");
        put("core.handle_s", handle_s, "s");
        put(
            "core.multihop_frac",
            ratio(first.multihop as f64, committed_all),
            "ratio",
        );
        put(
            "core.nic_executed_frac",
            ratio(first.nic_executed as f64, committed_all),
            "ratio",
        );
        for (i, phase) in ["execute", "validate", "log"].iter().enumerate() {
            put(
                &format!("core.phase.{phase}_p50_us"),
                spans.phase_p50_ns[i] as f64 / 1e3,
                "us",
            );
        }
        put("workloads.preload_s", preload_s, "s");
        put(
            "workloads.next_txn_ns",
            ratio(traced.next_txn_ns as f64, traced.next_txn_calls as f64),
            "ns",
        );
        put("store.build_s", traced.setup_s - preload_s, "s");
        put(
            "store.nic_hit_rate",
            ratio(
                first.nic.hits as f64,
                (first.nic.hits + first.nic.misses) as f64,
            ),
            "ratio",
        );
        put("store.nic_evictions", first.nic.evictions as f64, "count");
        put("hw.nic_busy_cores", r.nic_busy_cores, "cores");
        put("hw.host_busy_cores", r.host_busy_cores, "cores");
        put("hw.dma_vector_fill", r.dma_vector_fill, "ratio");
        put("hw.dma_elements_per_txn", r.dma_elements_per_txn, "ratio");
        put(
            "repl.log_ship_writes_per_txn",
            ratio(r.log_ship_writes as f64, committed_all),
            "ratio",
        );
        put(
            "audit_diverged_pairs",
            first.audit.diverged_pairs as f64,
            "count",
        );
        put("check.dsg_s", dsg_s, "s");
        put("check.audit_s", med(|r| r.audit_s), "s");
        put("alloc.setup_allocs", traced.setup_allocs as f64, "count");
        put(
            "alloc.measure_allocs_per_txn",
            ratio(traced.measure_allocs as f64, traced.committed_all as f64),
            "ratio",
        );
        put("trace.overhead_ratio", traced.run_cpu_s / run_s, "ratio");
        put("phase.warmup_s", med(|r| r.warmup_s), "s");
        put("phase.measure_s", med(|r| r.measure_s), "s");
        put("phase.drain_s", med(|r| r.drain_s), "s");
        put("host.nproc", nproc as f64, "count");
        put("host.lanes", spec.lanes as f64, "count");
        for (i, v) in VARIANTS.iter().enumerate() {
            if !REPORTED_VARIANTS.contains(v) {
                if h.calls[i] > 0 {
                    println!("# note: unreported handler {v} ran {} times", h.calls[i]);
                }
                continue;
            }
            put(
                &format!("core.handle.{v}.calls"),
                h.calls[i] as f64,
                "count",
            );
            put(
                &format!("core.handle.{v}.ns_per_call"),
                ratio(h.ns[i] as f64, h.calls[i] as f64),
                "ns",
            );
        }
    }

    // The emitted set must be exactly the manifest's.
    let mut expected: Vec<String> = if args.trace {
        per_layer_metrics().into_iter().map(|(n, _, _)| n).collect()
    } else {
        END_TO_END.iter().map(|m| m.name.to_string()).collect()
    };
    let mut emitted: Vec<String> = metrics.iter().map(|(n, _, _)| n.clone()).collect();
    expected.sort();
    emitted.sort();
    checks.expect(expected == emitted, || {
        "emitted metrics differ from the manifest".into()
    });
    for (name, value, _) in &metrics {
        checks.expect(value.is_finite(), || format!("{name} is not finite"));
    }

    let mut json = String::from("{");
    let _ = write!(
        json,
        "\"correct\": {}, \"attempted\": {}, \"failed\": 0, \"metrics\": {{",
        checks.failures.is_empty(),
        runs.iter().map(|r| r.committed_all).sum::<u64>()
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        println!("{name} = {value} {unit}");
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            json,
            "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        );
    }
    json.push_str("}}");
    println!("{json}");
}
