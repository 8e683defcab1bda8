//! The repo benchmark: host microseconds per command and sim-time latency
//! over five cluster workloads, with per-layer attribution. The contract
//! is `BENCHMARK.json` at the repo root; this package's `README.md` says
//! why each workload exists and which metric should move on which.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! benchmark --check
//! benchmark --compare OLD NEW [--bounds BENCHMARK.json]
//! ```
//!
//! Two clocks, never mixed: *sim time* is the paper's clock (Fig 10/11),
//! exact per seed and checked to be bit-identical across the samples of a
//! run; *host time* is the implementation's clock, reported as a median
//! over repeated samples. Everything runs on one thread and drives the
//! product crates through their public functions only.

mod alloc;
mod compare;
mod json;
mod layers;
mod stats;
mod trace;
mod workloads;

use json::Value;
use layers::{Layers, Metric};
use std::collections::BTreeMap;
use std::io::Write;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Trace;
use workloads::{check_paper_mean, run_sample, time_setup, Sample, Workload, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The seed the committed numbers in the README were measured with.
const DEFAULT_SEED: u64 = 2006;
const DEFAULT_SECONDS: u64 = 12;
/// Timed samples never fewer than this, however short `--seconds` is.
const MIN_TIMED_SAMPLES: usize = 3;
/// `setup_s` is the median set-up pass of this long a stretch: a pass is
/// 0.1-4 ms, and a few dozen of them fit inside one scheduler hiccup.
const SETUP_STRETCH: Duration = Duration::from_secs(1);
const TRACE_FILE: &str = "trace.json";
const MIB: f64 = 1024.0 * 1024.0;

#[derive(Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<String>,
    check: bool,
    compare: Option<(String, String)>,
    bounds: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        check: false,
        compare: None,
        bounds: "BENCHMARK.json".into(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = Some(value()?),
            "--check" => args.check = true,
            "--compare" => args.compare = Some((value()?, value()?)),
            "--bounds" => args.bounds = value()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!("usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]");
            eprintln!("       benchmark --check");
            eprintln!("       benchmark --compare OLD NEW [--bounds BENCHMARK.json]");
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!("workloads: {}", names.join(", "));
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((old, new)) = &args.compare {
        run_compare(old, new, &args.bounds)
    } else if args.check {
        run_check(&args)
    } else {
        match args
            .workload
            .as_deref()
            .map(|name| (name, Workload::by_name(name)))
        {
            Some((_, Some(w))) => run_one(&w, &args).map(|r| r.correct),
            Some((name, None)) => Err(format!("unknown workload {name}")),
            None => Err("give --workload, --check or --compare".into()),
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_compare(old: &str, new: &str, bounds: &str) -> Result<bool, String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let specs = compare::parse_specs(&read(bounds)?)?;
    let old = compare::parse_results(&read(old)?).map_err(|e| format!("{old}: {e}"))?;
    let new = compare::parse_results(&read(new)?).map_err(|e| format!("{new}: {e}"))?;
    let (table, regressed) = compare::compare(&specs, &old, &new);
    print!("{table}");
    Ok(!regressed)
}

/// `--check`: every workload at about a tenth of its size, 1 + 2 samples,
/// both the end-to-end and the per-layer pass, all output checks on; then
/// the metric names against `BENCHMARK.json` if it is in reach.
fn run_check(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let spec = std::fs::read_to_string(&args.bounds)
        .ok()
        .map(|t| json::parse(&t))
        .transpose()?;
    for w in WORKLOADS {
        for trace in [false, true] {
            let small = Args {
                trace,
                seconds: 0,
                check: true,
                ..args.clone()
            };
            let result = run_one(&w.tenth(), &small)?;
            ok &= result.correct;
            if let Some(spec) = &spec {
                let key = if trace { "per_layer" } else { "end_to_end" };
                ok &= names_match(spec, key, &result.metrics);
            }
        }
    }
    println!("benchmark --check: {}", if ok { "OK" } else { "FAILED" });
    Ok(ok)
}

/// Does this run report exactly the metrics `BENCHMARK.json` lists under
/// `key`, with the same units?
fn names_match(spec: &Value, key: &str, reported: &[Metric]) -> bool {
    let listed: BTreeMap<&str, &str> = spec
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| Some((m.get("name")?.as_str()?, m.get("unit")?.as_str()?)))
        .collect();
    let ours: BTreeMap<&str, &str> = reported.iter().map(|m| (m.name.as_str(), m.unit)).collect();
    if listed != ours {
        for (name, unit) in &ours {
            if listed.get(name) != Some(unit) {
                eprintln!("BENCHMARK.json {key}: reported {name} [{unit}] is not listed so");
            }
        }
        for name in listed.keys().filter(|n| !ours.contains_key(*n)) {
            eprintln!("BENCHMARK.json {key}: listed {name} is not reported");
        }
    }
    listed == ours
}

struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl RunResult {
    /// The members of the result line; `with_spread` adds the quartiles
    /// and sample count behind each median (the `--out` file keeps them
    /// for `--compare`, the driver's line must not carry them).
    fn to_json(&self, with_spread: bool) -> Vec<(&'static str, Value)> {
        let metric = |m: &Metric| {
            let mut fields = vec![("value", Value::Num(m.value)), ("unit", Value::str(m.unit))];
            if let (true, Some((q1, q3, n))) = (with_spread, m.spread) {
                fields.extend([
                    ("q1", Value::Num(q1)),
                    ("q3", Value::Num(q3)),
                    ("n", Value::Num(n as f64)),
                ]);
            }
            (m.name.clone(), Value::obj(fields))
        };
        vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::obj(self.metrics.iter().map(metric))),
        ]
    }
}

/// One run of one workload: warm-up sample with the output checks, timed
/// samples for `--seconds`, then either the allocation-counted sample
/// (`--trace 0`, end-to-end metrics) or the traced sample and the layer
/// drivers (`--trace 1`, per-layer metrics). Prints the table and, last,
/// the result line.
fn run_one(w: &Workload, args: &Args) -> Result<RunResult, String> {
    let mut failures = Vec::new();
    let mut trace = Trace::new(args.trace);
    let mut off = Trace::new(false);

    // Set-up is timed first, on the heap of a fresh process: after a sample
    // it costs up to 60 % more or less with what that sample's clusters left
    // behind, which depends on the seed.
    let stretch = if args.check {
        Duration::ZERO
    } else {
        SETUP_STRETCH
    };
    let started = Instant::now();
    let mut setup = Vec::new();
    while setup.len() < MIN_TIMED_SAMPLES || started.elapsed() < stretch {
        setup.push(time_setup(w, args.seed));
    }

    let warm = run_sample(w, args.seed, true, &mut off, &mut failures);
    check_paper_mean(w, &warm.sim, &mut failures);

    // The traced run needs the untraced median only as the base of
    // `trace_overhead_pct`; it spends the rest of its time on the layers.
    let budget = Duration::from_secs(if args.trace { 0 } else { args.seconds });
    let min_samples = if args.check { 2 } else { MIN_TIMED_SAMPLES };
    let started = Instant::now();
    let mut timed: Vec<Sample> = Vec::new();
    while timed.len() < min_samples || started.elapsed() < budget {
        timed.push(run_sample(w, args.seed, false, &mut off, &mut failures));
    }

    // The last sample runs with the allocator counting (and, traced, with
    // spans): it supplies the counts, never a host time.
    alloc::enable();
    trace.begin(format!("sample {}", w.name));
    let counted = run_sample(w, args.seed, false, &mut trace, &mut failures);
    trace.end();

    for (i, s) in timed.iter().chain([&counted]).enumerate() {
        if s.sim != warm.sim || s.counts != warm.counts {
            failures.push(format!(
                "{}: sample {} differs from the warm-up sample in sim time or counts \
                 (must be bit-identical per seed):\n  {:?}\n  {:?}\nvs\n  {:?}\n  {:?}",
                w.name,
                i + 1,
                s.sim,
                s.counts,
                warm.sim,
                warm.counts
            ));
            break;
        }
    }

    let host: Vec<f64> = timed.iter().map(Sample::host_us_per_cmd).collect();
    let mut shares = Vec::new();
    let metrics = if args.trace {
        let mut layers = Layers::new(&mut trace, args.check);
        layers.run_all(w);
        let drivers = layers.out;
        alloc::disable();
        shares = attribution(w, &counted, &drivers);
        let metrics = per_layer_metrics(w, &counted, stats::median(&host), &drivers, &shares);
        write_trace(w, args, &trace, &metrics)?;
        metrics
    } else {
        alloc::disable();
        end_to_end_metrics(&timed, &counted, &setup)
    };

    let run = RunResult {
        correct: failures.is_empty(),
        attempted: warm.sim.scripted,
        failed: warm.sim.scripted - warm.sim.answered,
        metrics,
    };
    println!(
        "{}  seed {}  trace {}  {} timed samples (+1 warm-up, +1 counted)  {} commands per sample",
        w.name,
        args.seed,
        u8::from(args.trace),
        timed.len(),
        run.attempted
    );
    for m in &run.metrics {
        let spread = m.spread.map_or(String::new(), |(q1, q3, n)| {
            format!("   (q1 {q1:.4}, q3 {q3:.4}, n {n})")
        });
        println!("  {:<44} {:>16.4} {:<6}{spread}", m.name, m.value, m.unit);
    }
    if !shares.is_empty() {
        println!("  estimated host us per command by layer (count x per-call cost):");
        for (layer, us) in &shares {
            println!("    {layer:<42} {us:>16.4} us");
        }
    }
    for f in &failures {
        println!("CHECK FAILED: {f}");
    }
    if let Some(path) = &args.out {
        let mut line = vec![
            ("workload", Value::str(w.name)),
            ("seed", Value::Num(args.seed as f64)),
            ("trace", Value::Num(f64::from(u8::from(args.trace)))),
        ];
        line.extend(run.to_json(true));
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(file, "{}", Value::obj(line)).map_err(|e| format!("{path}: {e}"))?;
    }
    // The driver reads the last line of stdout.
    println!("{}", Value::obj(run.to_json(false)));
    Ok(run)
}

/// The ten end-to-end metrics. Host time is the median over the timed
/// samples and set-up the median over the set-up passes; sim time is exact,
/// so any sample's value is the value; allocations come from the counted
/// sample.
fn end_to_end_metrics(timed: &[Sample], counted: &Sample, setup: &[f64]) -> Vec<Metric> {
    let host: Vec<f64> = timed.iter().map(Sample::host_us_per_cmd).collect();
    let sim = &counted.sim;
    let cmds = sim.answered.max(1) as f64;
    vec![
        Metric::median_of("host_us_per_cmd", &host, "us"),
        Metric::exact("sim_lat_mean_ms", sim.mean_ms(), "ms"),
        Metric::exact("sim_lat_p50_ms", sim.lat_p50_ns as f64 / 1e6, "ms"),
        Metric::exact("sim_lat_p99_ms", sim.lat_p99_ns as f64 / 1e6, "ms"),
        Metric::exact(
            "sim_lat_worst_mean_ms",
            sim.lat_worst_mean_ns as f64 / 1e6,
            "ms",
        ),
        Metric::exact("sim_cmds_per_s", sim.cmds_per_s(), "1/s"),
        Metric::exact("alloc_count_per_cmd", counted.allocs as f64 / cmds, "count"),
        Metric::exact(
            "alloc_bytes_per_cmd",
            counted.alloc_bytes as f64 / cmds,
            "B",
        ),
        Metric::exact(
            "alloc_peak_mib",
            counted.alloc_peak_bytes as f64 / MIB,
            "MiB",
        ),
        Metric::median_of("setup_s", setup, "s"),
    ]
}

/// The per-layer table: the drivers' numbers, the counts harvested from
/// the traced end-to-end sample, and the residual that no layer explains.
fn per_layer_metrics(
    w: &Workload,
    traced: &Sample,
    untraced_host_us: f64,
    drivers: &[Metric],
    shares: &[(&'static str, f64)],
) -> Vec<Metric> {
    let c = &traced.counts;
    let cmds = traced.sim.answered.max(1) as f64;
    let clusters = w.clusters as f64;
    let mut out = drivers.to_vec();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        out.push(Metric::exact(name, value, unit));
    };
    put("sim.world.events_per_cmd", c.events as f64 / cmds, "count");
    put(
        "sim.world.host_ns_per_event",
        traced.host_ns as f64 / c.events.max(1) as f64,
        "ns",
    );
    put(
        "sim.network.frames_per_cmd",
        c.frames as f64 / cmds,
        "count",
    );
    put("sim.network.bytes_per_cmd", c.net_bytes as f64 / cmds, "B");
    put("sim.network.dropped", c.dropped as f64, "count");
    put("sim.disk.bytes_per_cmd", c.disk_bytes as f64 / cmds, "B");
    put("gcs.group.view_changes", c.view_changes as f64, "count");
    put("gcs.group.flush_attempts", c.flush_attempts as f64, "count");
    put("gcs.group.ejections", c.ejections as f64, "count");
    put(
        "pbs.proc.client_retries_per_kcmd",
        c.retries as f64 * 1e3 / cmds,
        "count",
    );
    put(
        "pbs.proc.client_wait_max_ms",
        traced.sim.lat_max_ns as f64 / 1e6,
        "ms",
    );
    put("pbs.mom.real_runs", c.real_runs as f64, "count");
    put(
        "core.persist.rejoin_sim_ms",
        c.rejoin_sim_ns as f64 / clusters / 1e6,
        "ms",
    );
    put(
        "core.persist.wal_replayed",
        c.wal_replayed as f64 / clusters,
        "count",
    );
    put(
        "core.server.payloads_per_cmd",
        c.payloads_applied as f64 / cmds,
        "count",
    );
    put(
        "core.server.broadcasts_per_cmd",
        c.broadcasts as f64 / cmds,
        "count",
    );
    put(
        "core.server.wal_records_per_cmd",
        c.wal_records as f64 / cmds,
        "count",
    );
    put(
        "core.server.snapshots_written",
        c.snapshots_written as f64,
        "count",
    );

    let traced_host_us = traced.host_us_per_cmd();
    let explained: f64 = shares.iter().map(|(_, us)| us).sum();
    put(
        "core.server.residual_us_per_cmd",
        traced_host_us - explained,
        "us",
    );
    put(
        "trace_overhead_pct",
        (traced_host_us / untraced_host_us - 1.0) * 100.0,
        "%",
    );
    out
}

/// Host microseconds per command each layer accounts for on this workload:
/// exact counts from the traced sample times the per-call costs the layer
/// drivers measured. An estimate (per-call cost depends on state the
/// drivers only approximate, above all job-history length) until spans
/// inside the product crates replace it; what it leaves over is reported
/// as `core.server.residual_us_per_cmd`, not hidden.
fn attribution(w: &Workload, traced: &Sample, drivers: &[Metric]) -> Vec<(&'static str, f64)> {
    let ns = |name: &str| {
        drivers
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let c = &traced.counts;
    let cmds = traced.sim.answered.max(1) as f64;
    let heads = w.heads as f64;
    let per_cmd = |count: u64| count as f64 / cmds;

    // Kernel: every routed message is one delivery event, the rest of the
    // events are timers (5 ms ticks, modelled CPU delays, client timeouts).
    let kernel = per_cmd(c.frames) * ns("sim.world.deliver_ns_per_msg")
        + per_cmd(c.events.saturating_sub(c.frames)) * ns("sim.world.timer_ns_per_event");
    // Group: ordering every payload a head applied (commands, output
    // releases, jmutex traffic, obituaries) through a group of this size,
    // plus the idle 5 ms tick of every head. Heartbeat receipt is not
    // counted separately and lands in the residual.
    let order_ns = match w.heads {
        1 => ns("gcs.group.order_ns_per_msg.n1"),
        2 => ns("gcs.group.order_ns_per_msg.n2"),
        3 => (ns("gcs.group.order_ns_per_msg.n2") + ns("gcs.group.order_ns_per_msg.n4")) / 2.0,
        _ => ns("gcs.group.order_ns_per_msg.n4"),
    };
    let group =
        per_cmd(c.payloads_applied) * order_ns + per_cmd(c.head_ticks) * ns("gcs.group.tick_ns.n4");
    // PBS: every head applies every qsub, its obituary and every qstat, at
    // a job history that grows from 0 to the number of jobs submitted.
    let history = (c.qsubs as f64 / w.clusters as f64 / 2.0).min(2000.0) / 2000.0;
    let at_history = |h0: f64, h2000: f64| h0 + (h2000 - h0) * history;
    let h0 = ns("pbs.server.qsub_ns.h0");
    let pbs = heads
        * (per_cmd(c.qsubs)
            * (at_history(h0, ns("pbs.server.qsub_ns.h2000"))
                + at_history(h0, ns("pbs.server.finish_ns.h2000")))
            + per_cmd(c.qstats) * at_history(h0, ns("pbs.server.qstat_ns.h2000")));
    // Persistence: one head's record and snapshot counts stand for each head;
    // `.h1000` is the state after 1 000 commands of this same script mix,
    // and the average snapshot is taken half-way through the script.
    let persist = heads
        * (per_cmd(c.wal_records) * ns("core.persist.log_command_ns")
            + per_cmd(c.snapshots_written)
                * ns("core.persist.save_snapshot_ns.h1000")
                * (w.cmds_per_cluster() as f64 / 2.0 / 1000.0));
    vec![
        ("sim.world", kernel / 1e3),
        ("gcs.group", group / 1e3),
        ("pbs.server", pbs / 1e3),
        ("core.persist", persist / 1e3),
    ]
}

/// `trace.json`: the span log and the harvested counters of a traced run.
fn write_trace(w: &Workload, args: &Args, trace: &Trace, metrics: &[Metric]) -> Result<(), String> {
    let counters = Value::obj(metrics.iter().map(|m| {
        (
            m.name.clone(),
            Value::obj([("value", Value::Num(m.value)), ("unit", Value::str(m.unit))]),
        )
    }));
    let doc = Value::obj([
        ("workload", Value::str(w.name)),
        ("seed", Value::Num(args.seed as f64)),
        ("spans", trace.to_json(w.name)),
        ("counters", counters),
    ]);
    std::fs::write(TRACE_FILE, format!("{doc}\n")).map_err(|e| format!("{TRACE_FILE}: {e}"))
}
