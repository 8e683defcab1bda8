//! The five end-to-end workloads: what each cluster looks like, how one
//! sample of it is run and timed, which counters are harvested, and the
//! output checks that make a run `correct`.
//!
//! Load is closed-loop: `PbsClientProcess` clients inside the simulator
//! send their next command when the previous one is answered, so load is
//! sized by client count and script length. One thread, no sockets.

use crate::alloc;
use crate::trace::Trace;
use joshua_core::cluster::{Cluster, ClusterConfig, HaMode};
use joshua_core::config::PersistConfig;
use joshua_core::workload;
use jrs_gcs::GroupStats;
use jrs_pbs::job::exit;
use jrs_pbs::{JobState, ServerCmd, SubmitRecord};
use jrs_sim::metrics::DurationHistogram;
use jrs_sim::{SimDuration, SimTime};
use std::time::Instant;

/// Command script of one client.
#[derive(Clone, Copy, Debug)]
pub enum Script {
    /// `n` back-to-back trivial qsubs (the paper's Fig 10/11 load).
    Burst(usize),
    /// `n` commands mixing qsub/qstat/qdel/qhold/qrls, a different mix for
    /// each client of each cluster of the sample.
    Mixed(usize),
}

impl Script {
    pub fn len(self) -> usize {
        match self {
            Script::Burst(n) | Script::Mixed(n) => n,
        }
    }

    /// The commands client `c` of the sample's `k`-th cluster replays.
    /// Scripts are the workload, not the seed: `--seed` changes only what
    /// the simulator draws at random (the LAN delays), so runs with
    /// different seeds measure the same load and their spread is the
    /// system's, not the script generator's.
    pub fn commands(self, k: usize, c: usize) -> Vec<ServerCmd> {
        match self {
            Script::Burst(n) => workload::burst(n),
            Script::Mixed(n) => workload::mixed(n, (k * 10 + c) as u64),
        }
    }
}

/// One benchmark workload. Everything not listed is the repo default:
/// 100 Mbit hub, LAN delay N(220 us, 40 us), default cost model,
/// sequencer engine, 2 compute nodes.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub heads: usize,
    pub durable: bool,
    pub clients: usize,
    pub script: Script,
    /// Clusters run back to back in one sample, seeded [`cluster_seed`].
    pub clusters: usize,
    /// Crash head 1, restart it, then crash head 0 (see [`FAULTS`]).
    pub faults: bool,
    /// The paper's Fig 10 mean latency this workload reproduces, if any.
    pub paper_mean_ms: Option<f64>,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "fig10_serial_4h",
        heads: 4,
        durable: false,
        clients: 1,
        script: Script::Burst(100),
        clusters: 50,
        faults: false,
        paper_mean_ms: Some(349.0),
    },
    Workload {
        name: "fig10_serial_1h",
        heads: 1,
        durable: false,
        clients: 1,
        script: Script::Burst(100),
        clusters: 400,
        faults: false,
        paper_mean_ms: Some(134.0),
    },
    Workload {
        name: "sustained_concurrent_4h",
        heads: 4,
        durable: false,
        clients: 4,
        script: Script::Burst(500),
        clusters: 1,
        faults: false,
        paper_mean_ms: None,
    },
    Workload {
        name: "durable_mixed_3h",
        heads: 3,
        durable: true,
        clients: 3,
        script: Script::Mixed(1000),
        clusters: 1,
        faults: false,
        paper_mean_ms: None,
    },
    Workload {
        name: "failover_recover_3h",
        heads: 3,
        durable: true,
        clients: 2,
        script: Script::Mixed(300),
        clusters: 10,
        faults: true,
        paper_mean_ms: None,
    },
];

/// EXPERIMENTS.md tolerance on the Fig 10 means.
const PAPER_TOLERANCE: f64 = 0.10;

/// Fault schedule of `failover_recover_3h`, in sim time per cluster.
pub struct Faults {
    /// Crash head 1 (a follower).
    pub crash_follower: SimDuration,
    /// `restart_joshua_head(1)`: WAL recovery, then delta catch-up.
    pub restart_follower: SimDuration,
    /// Crash head 0 (sequencer and responder) with clients still submitting.
    pub crash_leader: SimDuration,
}

pub const FAULTS: Faults = Faults {
    crash_follower: SimDuration::from_secs(10),
    restart_follower: SimDuration::from_secs(25),
    crash_leader: SimDuration::from_secs(45),
};

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// About a tenth of the work, for `--check`: fewer clusters where there
    /// are several (the fault schedule needs full-length scripts), shorter
    /// scripts where there is one.
    pub fn tenth(mut self) -> Workload {
        if self.clusters > 1 {
            self.clusters /= 10;
        } else {
            self.script = match self.script {
                Script::Burst(n) => Script::Burst(n / 10),
                Script::Mixed(n) => Script::Mixed(n / 10),
            };
        }
        self
    }

    pub fn cmds_per_cluster(&self) -> u64 {
        (self.clients * self.script.len()) as u64
    }

    /// The head whose `JoshuaStats` stand for "a head" in the `core.server`
    /// counts: one that lives through the whole timed region. Under
    /// [`FAULTS`] heads 0 and 1 both crash, so it is head 2.
    fn witness_head(&self) -> usize {
        if self.faults {
            2
        } else {
            0
        }
    }

    fn config(&self, seed: u64) -> ClusterConfig {
        let mut cfg = ClusterConfig::new(HaMode::Joshua { heads: self.heads });
        cfg.seed = seed;
        if self.durable {
            cfg.persist = PersistConfig::durable();
        }
        cfg
    }
}

/// Seed of the `k`-th cluster of a sample. Neighbouring `--seed` values
/// must not share clusters: runs that differ only in seed would otherwise
/// report nearly the same sim-time numbers and understate their spread.
pub fn cluster_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(k as u64)
}

/// Exact counts behind one sample's time, summed over its clusters at the
/// end of each timed region.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub events: u64,
    pub frames: u64,
    pub net_bytes: u64,
    pub dropped: u64,
    pub disk_bytes: u64,
    /// Scripted qsub and qstat commands (the two whose cost grows with the
    /// job history).
    pub qsubs: u64,
    pub qstats: u64,
    pub retries: u64,
    pub real_runs: u64,
    /// One head that lives through the whole timed region (head 0; head 2
    /// under the fault schedule): ordered payloads applied, WAL records
    /// and snapshots it wrote.
    pub payloads_applied: u64,
    pub wal_records: u64,
    pub snapshots_written: u64,
    /// Summed over heads, both lives of a restarted head included.
    pub broadcasts: u64,
    pub view_changes: u64,
    pub flush_attempts: u64,
    pub ejections: u64,
    /// `GroupMember::tick` calls, from live heads x sim time / tick period.
    pub head_ticks: u64,
    /// Failover only: restart of head 1 to its re-establishment, and the
    /// WAL records its recovery replayed.
    pub rejoin_sim_ns: u64,
    pub wal_replayed: u64,
}

impl Counts {
    fn add_group(&mut self, g: GroupStats) {
        self.broadcasts += g.broadcasts;
        self.view_changes += g.view_changes;
        self.flush_attempts += g.flush_attempts;
        self.ejections += g.ejections;
    }
}

/// Sim-time results of one sample. Deterministic per seed: every sample of
/// a run must produce the same value, bit for bit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimSummary {
    pub scripted: u64,
    pub answered: u64,
    pub lat_sum_ns: u64,
    pub lat_p50_ns: u64,
    pub lat_p99_ns: u64,
    /// Each client's worst wait, averaged over the sample's clients.
    pub lat_worst_mean_ns: u64,
    /// The single worst wait of the sample: exact per seed like the rest,
    /// but one draw from the tail, so it swings up to 15 % from seed to seed
    /// where the mean above moves by half that. Reported per layer only.
    pub lat_max_ns: u64,
    /// Summed `ClientDone.finished - started`.
    pub busy_ns: u64,
}

impl SimSummary {
    pub fn mean_ms(&self) -> f64 {
        self.lat_sum_ns as f64 / self.answered.max(1) as f64 / 1e6
    }

    pub fn cmds_per_s(&self) -> f64 {
        self.answered as f64 / (self.busy_ns.max(1) as f64 / 1e9)
    }
}

/// One sample: host time of the timed regions, the sim-time summary, the counts, and (when the allocator is counting) allocations
/// and bytes inside the timed regions and the high-water mark of live heap
/// bytes of a cluster, from before its set-up to the end of its timed
/// region, averaged over the sample's clusters.
pub struct Sample {
    pub host_ns: u64,
    pub sim: SimSummary,
    pub counts: Counts,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub alloc_peak_bytes: u64,
}

impl Sample {
    pub fn host_us_per_cmd(&self) -> f64 {
        self.host_ns as f64 / 1e3 / self.sim.answered.max(1) as f64
    }
}

/// Set-up of the `k`-th cluster of a sample: script generation,
/// `Cluster::build` and `spawn_client`. Counts the scripted qsubs and qstats.
fn set_up(w: &Workload, seed: u64, k: usize, counts: &mut Counts) -> Cluster {
    let mut cluster = Cluster::build(w.config(cluster_seed(seed, k)));
    for c in 0..w.clients {
        let script = w.script.commands(k, c);
        for cmd in &script {
            counts.qsubs += u64::from(matches!(cmd, ServerCmd::Qsub(_)));
            counts.qstats += u64::from(matches!(cmd, ServerCmd::Qstat(_)));
        }
        cluster.spawn_client(script);
    }
    cluster
}

/// Host seconds to set up every cluster of one sample, with nothing run in
/// between.
pub fn time_setup(w: &Workload, seed: u64) -> f64 {
    let mut ns = 0;
    let mut unused = Counts::default();
    for k in 0..w.clusters {
        let t = Instant::now();
        let cluster = set_up(w, seed, k, &mut unused);
        ns += t.elapsed().as_nanos();
        drop(cluster);
    }
    ns as f64 / 1e9
}

/// Run one sample. With `verify`, every cluster is afterwards run on to
/// quiescence (untimed) and put through the output checks; failures are
/// appended to `failures`.
pub fn run_sample(
    w: &Workload,
    seed: u64,
    verify: bool,
    trace: &mut Trace,
    failures: &mut Vec<String>,
) -> Sample {
    let mut host_ns = 0;
    let mut counts = Counts::default();
    let mut waits = DurationHistogram::new();
    let (mut busy_ns, mut worst_waits_ns) = (0, 0);
    let (mut allocs, mut alloc_bytes, mut alloc_peaks) = (0, 0, 0);

    for k in 0..w.clusters {
        let cluster_seed = cluster_seed(seed, k);
        trace.begin(format!("cluster seed={cluster_seed}"));

        trace.begin("setup: scripts + Cluster::build + spawn_client");
        let heap_mark = alloc::mark();
        let mut cluster = set_up(w, seed, k, &mut counts);
        trace.end();

        trace.begin("timed: first send to last ClientDone");
        let before = alloc::totals();
        let t = Instant::now();
        let run = drive(w, &mut cluster);
        host_ns += t.elapsed().as_nanos() as u64;
        let after = alloc::totals();
        trace.end();
        allocs += after.0 - before.0;
        alloc_bytes += after.1 - before.1;
        alloc_peaks += alloc::peak_since(heap_mark);

        for &wait in &run.waits {
            waits.record(wait);
        }
        worst_waits_ns += run.client_worst_ns.iter().sum::<u64>();
        busy_ns += run.busy_ns;
        counts.retries += run.retries;
        counts.head_ticks += run.head_ticks;
        counts.rejoin_sim_ns += run.rejoin_sim_ns;
        harvest(w, &cluster, &mut counts);
        if let Some(first_life) = run.group_before_restart {
            counts.add_group(first_life);
        }

        if verify {
            trace.begin("verify: quiesce + output checks");
            let tag = format!("{} seed {cluster_seed}", w.name);
            for f in verify_cluster(w, &mut cluster, &run) {
                failures.push(format!("{tag}: {f}"));
            }
            trace.end();
        }
        trace.end();
    }

    let scripted = w.cmds_per_cluster() * w.clusters as u64;
    let quantile_ns = |h: &mut DurationHistogram, q| h.quantile(q).map_or(0, SimDuration::as_nanos);
    let sim = SimSummary {
        scripted,
        answered: waits.len() as u64,
        lat_sum_ns: waits.samples().iter().map(|d| d.as_nanos()).sum(),
        lat_p50_ns: quantile_ns(&mut waits, 0.50),
        lat_p99_ns: quantile_ns(&mut waits, 0.99),
        lat_worst_mean_ns: worst_waits_ns / (w.clients * w.clusters) as u64,
        lat_max_ns: quantile_ns(&mut waits, 1.0),
        busy_ns,
    };
    let alloc_peak_bytes = alloc_peaks / w.clusters as u64;
    Sample {
        host_ns,
        sim,
        counts,
        allocs,
        alloc_bytes,
        alloc_peak_bytes,
    }
}

/// Check a whole sample against the paper's Fig 10 mean, where the
/// workload reproduces one.
pub fn check_paper_mean(w: &Workload, sim: &SimSummary, failures: &mut Vec<String>) {
    if let Some(paper) = w.paper_mean_ms {
        let off = (sim.mean_ms() - paper).abs() / paper;
        if off > PAPER_TOLERANCE {
            failures.push(format!(
                "{}: sim_lat_mean_ms {:.2} is {:.1}% from the paper's {paper} (tolerance {:.0}%)",
                w.name,
                sim.mean_ms(),
                off * 100.0,
                PAPER_TOLERANCE * 100.0
            ));
        }
    }
}

/// What the timed region of one cluster produced.
struct Run {
    waits: Vec<SimDuration>,
    /// Worst wait of each client, in `cluster.clients` order.
    client_worst_ns: Vec<u64>,
    busy_ns: u64,
    retries: u64,
    head_ticks: u64,
    rejoin_sim_ns: u64,
    /// Head 1's `(catch_ups_applied, snapshots_installed)` at the moment it
    /// re-established after its restart.
    rejoined_with: Option<(u64, u64)>,
    /// How far through [`FAULTS`] the cluster got (3 = all injected).
    faults_injected: u32,
    /// Head 1's group counters when it was restarted: its first life's
    /// share, which the fresh process no longer shows.
    group_before_restart: Option<GroupStats>,
}

/// The timed region: advance in 100 ms sim slices until every client
/// reported `ClientDone`, never to a fixed horizon. The runaway guard (an
/// event cap on the world plus a slice cap here) ends a wedged cluster
/// with unanswered commands instead of a hang or an out-of-memory kill.
fn drive(w: &Workload, cluster: &mut Cluster) -> Run {
    let cmds = w.cmds_per_cluster();
    let max_events = cmds * 5_000 + 200_000;
    let max_slices = cmds * 20 + 600;
    cluster.world.set_max_events(max_events);

    let tick_ns = cluster.cfg.group.tick_every.as_nanos();
    let mut run = Run {
        waits: Vec::with_capacity(cmds as usize),
        client_worst_ns: vec![0; w.clients],
        busy_ns: 0,
        retries: 0,
        head_ticks: 0,
        rejoin_sim_ns: 0,
        rejoined_with: None,
        faults_injected: 0,
        group_before_restart: None,
    };
    let mut restarted_at: Option<SimTime> = None;
    let mut done = 0;
    let mut slices = 0;
    while done < w.clients && slices < max_slices && cluster.world.events_processed() < max_events {
        // Finer slices while head 1 rejoins, so its re-establishment is
        // timed to 10 ms; slicing never changes the event order.
        let slice = SimDuration::from_millis(if restarted_at.is_some() { 10 } else { 100 });
        let live = cluster
            .heads
            .iter()
            .filter(|p| cluster.world.is_proc_alive(**p))
            .count() as u64;
        run.head_ticks += live * slice.as_nanos() / tick_ns;
        cluster.run_for(slice);
        slices += 1;

        if w.faults {
            let since_start = cluster.world.now().since(SimTime::ZERO);
            match run.faults_injected {
                0 if since_start >= FAULTS.crash_follower => {
                    cluster.crash_head(1);
                    run.faults_injected = 1;
                }
                1 if since_start >= FAULTS.restart_follower => {
                    run.group_before_restart = Some(cluster.joshua(1).group_stats());
                    cluster.restart_joshua_head(1);
                    restarted_at = Some(cluster.world.now());
                    run.faults_injected = 2;
                }
                2 if since_start >= FAULTS.crash_leader => {
                    cluster.crash_head(0);
                    run.faults_injected = 3;
                }
                _ => {}
            }
            if let Some(at) = restarted_at {
                let head1 = cluster.joshua(1);
                if head1.is_established() {
                    let stats = head1.stats();
                    run.rejoin_sim_ns = cluster.world.now().since(at).as_nanos();
                    run.rejoined_with = Some((stats.catch_ups_applied, stats.snapshots_installed));
                    restarted_at = None;
                }
            }
        }

        for d in cluster.take_dones() {
            done += 1;
            run.busy_ns += d.finished.since(d.started).as_nanos();
        }
        for (_, client, r) in cluster.world.take_emitted::<SubmitRecord>() {
            run.waits.push(r.latency);
            let wait = r.latency.as_nanos();
            if let Some(i) = cluster.clients.iter().position(|c| *c == client) {
                run.client_worst_ns[i] = run.client_worst_ns[i].max(wait);
            }
            run.retries += u64::from(r.attempts.saturating_sub(1));
        }
    }
    run
}

fn harvest(w: &Workload, cluster: &Cluster, counts: &mut Counts) {
    let world = &cluster.world;
    counts.events += world.events_processed();
    let net = world.network();
    counts.frames += net.sent;
    counts.net_bytes += net.bytes_sent;
    counts.dropped += net.dropped_loss + net.dropped_partition;
    for &node in &cluster.head_nodes {
        let disk = world.disk(node);
        counts.disk_bytes += disk
            .paths()
            .iter()
            .map(|p| disk.durable_len(p) as u64)
            .sum::<u64>();
    }
    counts.real_runs += cluster.total_real_runs();

    let witness = cluster.joshua(w.witness_head());
    counts.payloads_applied += witness.stats().payloads_applied;
    counts.wal_records += witness.stats().wal_records;
    counts.snapshots_written += witness.stats().snapshots_written;
    for i in 0..w.heads {
        counts.add_group(cluster.joshua(i).group_stats());
    }
    if w.faults {
        counts.wal_replayed += cluster
            .joshua(1)
            .recovery_report()
            .map_or(0, |r| r.wal_replayed as u64);
    }
}

/// Run the cluster on until no live head has a job queued, running or
/// exiting, then apply the output checks. Returns what failed.
fn verify_cluster(w: &Workload, cluster: &mut Cluster, run: &Run) -> Vec<String> {
    let mut failures = Vec::new();
    let cmds = w.cmds_per_cluster();
    if run.waits.len() as u64 != cmds {
        failures.push(format!(
            "only {}/{cmds} scripted commands answered",
            run.waits.len()
        ));
        // A wedged cluster cannot quiesce; the remaining checks would only
        // restate that.
        return failures;
    }
    if w.faults && run.faults_injected != 3 {
        failures.push(format!(
            "clients finished after {}/3 scheduled faults",
            run.faults_injected
        ));
    }

    // Each job holds the (exclusive) cluster for a second or two of sim
    // time; allow 20 s apiece before calling the cluster wedged.
    let max_events = cluster.world.events_processed() + cmds * 20_000 + 1_000_000;
    cluster.world.set_max_events(max_events);
    let live: Vec<usize> = (0..w.heads)
        .filter(|&i| cluster.world.is_proc_alive(cluster.heads[i]))
        .collect();
    let mut quiet = false;
    for _ in 0..cmds * 4 + 40 {
        cluster.run_for(SimDuration::from_secs(5));
        let unfinished: usize = live
            .iter()
            .map(|&i| {
                let pbs = cluster.joshua(i).pbs();
                pbs.count_state(JobState::Queued)
                    + pbs.count_state(JobState::Running)
                    + pbs.count_state(JobState::Exiting)
            })
            .sum();
        if unfinished == 0 {
            quiet = true;
            break;
        }
        if cluster.world.events_processed() >= max_events {
            break;
        }
    }
    if !quiet {
        failures.push("did not reach quiescence (jobs still queued or running)".into());
        return failures;
    }
    // Let the last obituaries and jmutex releases reach every replica.
    cluster.run_for(SimDuration::from_secs(5));

    // Panics with a state diff on divergence: a diverged replica is a
    // product bug this benchmark must not paper over.
    let consistent = cluster.assert_replicas_consistent();
    if consistent != live.len() {
        failures.push(format!(
            "{consistent} established consistent replicas, {} live heads",
            live.len()
        ));
    }
    let fingerprints: Vec<u64> = live
        .iter()
        .map(|&i| cluster.joshua(i).state_fingerprint())
        .collect();
    if fingerprints.windows(2).any(|p| p[0] != p[1]) {
        failures.push(format!(
            "live heads' state fingerprints differ: {fingerprints:x?}"
        ));
    }

    // Exactly-once launch. Every job of a qsub-only script runs; in a
    // mixed script a deleted job may or may not have started first.
    let runs = cluster.total_real_runs();
    let pbs = cluster.joshua(live[0]).pbs();
    let finished = |status: i32| {
        pbs.jobs_in_order()
            .filter(|j| j.exit_status == Some(status))
            .count() as u64
    };
    let (ok, cancelled) = (finished(exit::OK), finished(exit::CANCELLED));
    let (lo, hi) = match w.script {
        Script::Burst(_) => (cmds, cmds),
        Script::Mixed(_) => (ok, ok + cancelled),
    };
    if runs < lo || runs > hi {
        failures.push(format!(
            "{runs} real job launches, expected {lo}..={hi} ({ok} completed, {cancelled} cancelled)"
        ));
    }

    if w.faults {
        let head1 = cluster.joshua(1);
        if !head1.is_established() {
            failures.push("restarted head 1 is not established at quiescence".into());
        }
        // Judged at the moment it re-established: the leader crash that
        // follows may eject head 1 once more (the survivors then re-admit
        // it with a full snapshot), which is failover behaviour, reported
        // as `gcs.group.ejections`, not a failed recovery.
        if run.rejoined_with != Some((1, 0)) {
            failures.push(format!(
                "head 1 did not rejoin by delta after its restart: \
                 (catch-ups applied, snapshots installed) = {:?}",
                run.rejoined_with
            ));
        }
        match head1.recovery_report() {
            None => failures.push("head 1 has no recovery report".into()),
            Some(r) if r.torn_tail_truncated || r.corruption_offset.is_some() => {
                failures.push(format!(
                    "head 1 recovery saw damage: torn tail {}, corruption {:?}",
                    r.torn_tail_truncated, r.corruption_offset
                ))
            }
            Some(_) => {}
        }
    }
    failures
}
