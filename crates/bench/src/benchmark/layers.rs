//! Per-layer drivers: host time per call, timed from here around the
//! public functions of each product module, plus the exact counts behind
//! those times. Module names are the layer names. Each driver runs a few
//! batches and reports the median batch, so a scheduler hiccup in one
//! batch does not move the number.
//!
//! Inputs are the workload's own command stream (its first client's script), so
//! a payload here is the payload the end-to-end run replicated.

use crate::alloc;
use crate::stats::{median, quartiles};
use crate::trace::Trace;
use crate::workloads::Workload;
use joshua_core::cluster::{Cluster, ClusterConfig, HaMode};
use joshua_core::config::PolicyKind;
use joshua_core::payload::{JMutexState, Payload, ReplicaState};
use joshua_core::persist::HeadStore;
use joshua_core::workload;
use jrs_gcs::engine::{Engine, EngineOut};
use jrs_gcs::link::LinkManager;
use jrs_gcs::{
    EngineKind, EngineMsg, GcsEvent, GcsMsg, GroupConfig, GroupMember, OrderedMsg, Output, ViewId,
    Wire,
};
use jrs_pbs::job::exit;
use jrs_pbs::server::{MomReport, PbsServerCore, ServerAction};
use jrs_pbs::{CmdReply, JobId, JobSpec, ServerCmd};
use jrs_sim::{Ctx, Msg, ProcId, Process, SimDisk, SimDuration, SimTime, TimerId, World};
use jrs_store::{Codec, SnapshotStore, Wal};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One reported number: the value, and for a median of samples the
/// quartiles and sample count behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub spread: Option<(f64, f64, usize)>,
}

impl Metric {
    pub fn exact(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            spread: None,
        }
    }

    pub fn median_of(name: &str, samples: &[f64], unit: &'static str) -> Metric {
        let (q1, med, q3) = quartiles(samples);
        Metric {
            name: name.into(),
            value: med,
            unit,
            spread: Some((q1, q3, samples.len())),
        }
    }
}

/// Collects the layer metrics of one traced run.
pub struct Layers<'a> {
    trace: &'a mut Trace,
    /// `--check`: a tenth of the sizes and two batches, to prove the
    /// drivers work rather than to measure.
    quick: bool,
    pub out: Vec<Metric>,
}

impl<'a> Layers<'a> {
    pub fn new(trace: &'a mut Trace, quick: bool) -> Self {
        Layers {
            trace,
            quick,
            out: Vec::new(),
        }
    }

    fn put(&mut self, name: impl AsRef<str>, value: f64, unit: &'static str) {
        self.out.push(Metric::exact(name.as_ref(), value, unit));
    }

    fn size(&self, full: usize) -> usize {
        if self.quick {
            (full / 10).max(4)
        } else {
            full
        }
    }

    /// Median, over the batches, of nanoseconds per operation. `batch`
    /// times the calls it is about and returns that time with the number
    /// of operations it covers; its set-up stays outside the time. The
    /// first batch warms caches and is dropped.
    fn ns_per_op(&mut self, span: &str, mut batch: impl FnMut() -> (Duration, u64)) -> f64 {
        let batches = if self.quick { 2 } else { 5 };
        self.trace.begin(span);
        batch();
        let per_op: Vec<f64> = (0..batches)
            .map(|_| {
                self.trace.begin("batch");
                let (elapsed, ops) = batch();
                self.trace.end();
                elapsed.as_nanos() as f64 / ops.max(1) as f64
            })
            .collect();
        self.trace.end();
        median(&per_op)
    }

    /// Run every driver for `w`.
    pub fn run_all(&mut self, w: &Workload) {
        self.trace.begin("layers");
        let stream = payload_stream(w, self.size(1000));
        self.sim_world();
        let blobs: Vec<Vec<u8>> = stream.iter().map(Codec::to_bytes).collect();
        let state = replica_state_after(&stream);
        self.sim_disk(&blobs);
        self.store(&stream, &blobs, &state);
        self.gcs_link(&stream);
        self.gcs_engine(&stream);
        self.gcs_group(&stream);
        self.pbs();
        self.core_payload();
        self.core_persist(&stream, &state);
        self.core_cluster();
        self.trace.end();
    }

    // ------------------------------------------------------------------
    // sim
    // ------------------------------------------------------------------

    fn sim_world(&mut self) {
        let n = self.size(50_000) as u64;
        let timer = self.ns_per_op("sim.world: timer events, trivial process", || {
            let mut world = World::new(1);
            let node = world.add_node("n");
            world.add_process(node, Ticker { left: n });
            let t = Instant::now();
            world.run_until_idle();
            (t.elapsed(), world.events_processed())
        });
        self.put("sim.world.timer_ns_per_event", timer, "ns");

        let deliver = self.ns_per_op(
            "sim.world: deliveries across the hub, trivial processes",
            || {
                let mut world = World::new(1);
                let (a, b) = (world.add_node("a"), world.add_node("b"));
                let echo = world.add_process(a, Echo);
                let pinger = world.add_process(b, Echo);
                world.inject(
                    echo,
                    Ball {
                        left: n,
                        peer: pinger,
                    },
                );
                let t = Instant::now();
                world.run_until_idle();
                (t.elapsed(), world.network().sent)
            },
        );
        self.put("sim.world.deliver_ns_per_msg", deliver, "ns");

        let idle_for = SimDuration::from_secs(self.size(100) as u64);
        let idle = self.ns_per_op("sim.world: 4 idle heads", || {
            let mut cluster = Cluster::build(ClusterConfig::new(HaMode::Joshua { heads: 4 }));
            let t = Instant::now();
            cluster.run_for(idle_for);
            (t.elapsed(), cluster.world.events_processed())
        });
        self.put("sim.world.idle_ns_per_event", idle, "ns");
    }

    fn sim_disk(&mut self, blobs: &[Vec<u8>]) {
        let ns = self.ns_per_op("sim.disk: append + fsync", || {
            let mut disk = SimDisk::new();
            let t = Instant::now();
            for b in blobs {
                disk.append("bench.wal", b);
                disk.fsync("bench.wal", SimTime::ZERO);
            }
            (t.elapsed(), blobs.len() as u64)
        });
        self.put("sim.disk.append_fsync_ns", ns, "ns");
    }

    // ------------------------------------------------------------------
    // store
    // ------------------------------------------------------------------

    fn store(&mut self, stream: &[Payload], blobs: &[Vec<u8>], state: &ReplicaState) {
        let n = stream.len() as u64;
        let bytes: usize = blobs.iter().map(Vec::len).sum();
        self.put("store.codec.payload_bytes", bytes as f64 / n as f64, "B");

        let encode = self.ns_per_op("store.codec: Payload::to_bytes", || {
            let t = Instant::now();
            for p in stream {
                black_box(p.to_bytes());
            }
            (t.elapsed(), n)
        });
        self.put("store.codec.payload_encode_ns", encode, "ns");
        let decode = self.ns_per_op("store.codec: Payload::from_bytes", || {
            let t = Instant::now();
            for b in blobs {
                black_box(Payload::from_bytes(b).ok());
            }
            (t.elapsed(), n)
        });
        self.put("store.codec.payload_decode_ns", decode, "ns");

        let state_bytes = state.to_bytes();
        self.put(
            "store.codec.state_bytes.h1000",
            state_bytes.len() as f64,
            "B",
        );
        let reps = self.size(40) as u64;
        let encode = self.ns_per_op("store.codec: ReplicaState::to_bytes", || {
            let t = Instant::now();
            for _ in 0..reps {
                black_box(state.to_bytes());
            }
            (t.elapsed(), reps)
        });
        self.put("store.codec.state_encode_ns.h1000", encode, "ns");
        let decode = self.ns_per_op("store.codec: ReplicaState::from_bytes", || {
            let t = Instant::now();
            for _ in 0..reps {
                black_box(ReplicaState::from_bytes(&state_bytes).ok());
            }
            (t.elapsed(), reps)
        });
        self.put("store.codec.state_decode_ns.h1000", decode, "ns");

        let wal = Wal::new("bench.wal");
        let append = self.ns_per_op("store.wal: append", || {
            let mut disk = SimDisk::new();
            let t = Instant::now();
            for (i, b) in blobs.iter().enumerate() {
                wal.append(&mut disk, i as u64, b);
            }
            (t.elapsed(), n)
        });
        self.put("store.wal.append_ns", append, "ns");
        let mut disk = SimDisk::new();
        for (i, b) in blobs.iter().enumerate() {
            wal.append(&mut disk, i as u64, b);
        }
        disk.fsync(wal.path(), SimTime::ZERO);
        self.put(
            "store.wal.bytes_per_record",
            disk.durable_len(wal.path()) as f64 / n as f64,
            "B",
        );
        let replay = self.ns_per_op("store.wal: replay", || {
            let t = Instant::now();
            let replayed = wal.replay(&disk).map_or(0, |r| r.entries.len());
            let elapsed = t.elapsed();
            assert_eq!(replayed as u64, n, "WAL replay must invert append");
            (elapsed, n)
        });
        self.put("store.wal.replay_ns_per_record", replay, "ns");

        let snap = SnapshotStore::new("bench.snap");
        let mut disk = SimDisk::new();
        let save = self.ns_per_op("store.snapshot: save", || {
            let t = Instant::now();
            for i in 0..reps {
                black_box(snap.save(&mut disk, SimTime::ZERO, i, &state_bytes));
            }
            (t.elapsed(), reps)
        });
        self.put("store.snapshot.save_ns.h1000", save, "ns");
        let load = self.ns_per_op("store.snapshot: load", || {
            let t = Instant::now();
            for _ in 0..reps {
                black_box(snap.load(&disk));
            }
            (t.elapsed(), reps)
        });
        self.put("store.snapshot.load_ns.h1000", load, "ns");
    }

    // ------------------------------------------------------------------
    // gcs
    // ------------------------------------------------------------------

    /// A `LinkManager` pair driven directly: frame at the sender, sequence
    /// and ack at the receiver, clear the retransmission buffer on the ack.
    fn gcs_link(&mut self, stream: &[Payload]) {
        let (a, b) = (ProcId(0), ProcId(1));
        let now = SimTime::ZERO;
        let n = stream.len() as u64;
        let view_id = ViewId::bootstrap(a);
        let msgs: Vec<GcsMsg<Payload>> = stream
            .iter()
            .enumerate()
            .map(|(i, p)| GcsMsg::Engine {
                view_id,
                msg: EngineMsg::Ordered(OrderedMsg {
                    seq: i as u64 + 1,
                    origin: a,
                    local_id: i as u64 + 1,
                    payload: p.clone(),
                }),
            })
            .collect();
        let rto = GroupConfig::default().rto;

        let (mut send, mut on_wire) = (Vec::new(), Vec::new());
        let tick = self.ns_per_op("gcs.link: send / on_wire / tick", || {
            let mut tx = LinkManager::<Payload>::new(rto);
            let mut rx = LinkManager::<Payload>::new(rto);
            let batch = msgs.clone();

            let t = Instant::now();
            let wires: Vec<Wire<Payload>> = batch.into_iter().map(|m| tx.send(now, b, m)).collect();
            send.push(t.elapsed().as_nanos() as f64 / n as f64);

            let t = Instant::now();
            let acks: Vec<Wire<Payload>> = wires
                .into_iter()
                .filter_map(|w| rx.on_wire(now, a, w).reply)
                .collect();
            for ack in acks {
                black_box(tx.on_wire(now, b, ack));
            }
            on_wire.push(t.elapsed().as_nanos() as f64 / (2 * n) as f64);
            assert_eq!(tx.unacked_total(), 0, "every frame acked");

            // The scan each 5 ms tick pays: three peers, a couple of
            // frames in flight to each, none of them due yet.
            for (peer, m) in (1..=3).cycle().zip(msgs.iter().take(6)) {
                tx.send(now, ProcId(peer), m.clone());
            }
            let t = Instant::now();
            for _ in 0..n {
                black_box(tx.tick(now));
            }
            (t.elapsed(), n)
        });
        self.put("gcs.link.send_ns", median(&send), "ns");
        self.put("gcs.link.on_wire_ns", median(&on_wire), "ns");
        self.put("gcs.link.tick_ns", tick, "ns");
    }

    /// `Engine::{install, submit, on_msg, tick}` in an n-member loop: no
    /// link, no group, so this is the ordering protocol alone.
    fn gcs_engine(&mut self, stream: &[Payload]) {
        for (kind, label, sizes) in [
            (EngineKind::Sequencer, "seq", &[1u32, 2, 4][..]),
            (EngineKind::Token, "token", &[4u32][..]),
        ] {
            for &n in sizes {
                let mut sent = EngineMsgCounts::default();
                let ns = self.ns_per_op(&format!("gcs.engine: {label} n{n}"), || {
                    let (elapsed, counts) = engine_loop(kind, n, stream.to_vec());
                    sent = counts;
                    (elapsed, stream.len() as u64)
                });
                self.put(format!("gcs.engine.{label}_ns_per_msg.n{n}"), ns, "ns");
                if kind == EngineKind::Sequencer && n == 4 {
                    let per_cmd = |c: u64| c as f64 / stream.len() as f64;
                    self.put(
                        "gcs.engine.msgs_per_cmd.n4.request",
                        per_cmd(sent.request),
                        "count",
                    );
                    self.put(
                        "gcs.engine.msgs_per_cmd.n4.ordered",
                        per_cmd(sent.ordered),
                        "count",
                    );
                    self.put("gcs.engine.msgs_per_cmd.n4.ack", per_cmd(sent.ack), "count");
                    self.put(
                        "gcs.engine.msgs_per_cmd.n4.stable",
                        per_cmd(sent.stable),
                        "count",
                    );
                }
            }
        }
    }

    /// `GroupMember::{start, broadcast, on_wire, tick}` under the
    /// benchmark's own FIFO pump, with real `Payload::Client` payloads.
    fn gcs_group(&mut self, stream: &[Payload]) {
        let msgs = stream.len() as f64;
        for n in [1u32, 2, 4] {
            let mut allocs = 0;
            let ns = self.ns_per_op(&format!("gcs.group: order n{n}"), || {
                let mut pump = GroupPump::start(n, false);
                let batch = stream.to_vec();
                let before = alloc::totals().0;
                let t = Instant::now();
                for (i, p) in batch.into_iter().enumerate() {
                    pump.order(ProcId(i as u32 % n), p);
                }
                let elapsed = t.elapsed();
                allocs = alloc::totals().0 - before;
                (elapsed, stream.len() as u64)
            });
            self.put(format!("gcs.group.order_ns_per_msg.n{n}"), ns, "ns");
            self.put(
                format!("gcs.group.allocs_per_msg.n{n}"),
                allocs as f64 / msgs,
                "count",
            );
        }

        // Same loop with a clock around every call and the frames sorted
        // by kind; not used for the per-message time above because the
        // clock reads cost about as much as a cheap call.
        self.trace
            .begin("gcs.group: per-call times and frame counts, n4");
        let mut pump = GroupPump::start(4, true);
        for (i, p) in stream.iter().enumerate() {
            pump.order(ProcId(i as u32 % 4), p.clone());
        }
        let per_call = |c: &CallTime| c.ns as f64 / c.calls.max(1) as f64;
        self.put("gcs.group.broadcast_ns", per_call(&pump.broadcast), "ns");
        self.put("gcs.group.on_wire_ns", per_call(&pump.on_wire), "ns");
        let ordering_frames = pump.frames;
        // The tick that matters end to end is the idle one: a head ticks
        // every 5 ms whether or not a command is in flight, and every
        // tenth tick sends heartbeats.
        pump.tick = CallTime::default();
        for _ in 0..self.size(2000) {
            pump.tick_all();
            pump.drain();
        }
        self.put("gcs.group.tick_ns.n4", per_call(&pump.tick), "ns");
        self.trace.end();
        let pump = GroupPump {
            frames: ordering_frames,
            ..pump
        };
        self.put(
            "gcs.group.frames_per_msg.n4.data",
            pump.frames.data as f64 / msgs,
            "count",
        );
        self.put(
            "gcs.group.frames_per_msg.n4.ack",
            pump.frames.ack as f64 / msgs,
            "count",
        );
        self.put(
            "gcs.group.frames_per_msg.n4.raw",
            pump.frames.raw as f64 / msgs,
            "count",
        );
        self.put(
            "gcs.group.frame_bytes_per_msg.n4",
            pump.frames.bytes as f64 / msgs,
            "B",
        );

        // Crash one member of four and tick the survivors to the new view.
        let warm = self.size(100).min(stream.len());
        let mut frames = 0;
        let ns = self.ns_per_op("gcs.group: view change n4", || {
            let mut pump = GroupPump::start(4, false);
            for (i, p) in stream[..warm].iter().enumerate() {
                pump.order(ProcId(i as u32 % 4), p.clone());
            }
            let before = pump.frames.total();
            let t = Instant::now();
            pump.crash_and_reform(ProcId(3));
            let elapsed = t.elapsed();
            frames = pump.frames.total() - before;
            (elapsed, 1)
        });
        self.put("gcs.group.view_change_ns.n4", ns, "ns");
        self.put("gcs.group.view_change_frames.n4", frames as f64, "count");
    }

    // ------------------------------------------------------------------
    // pbs
    // ------------------------------------------------------------------

    /// `PbsServerCore` at an empty history and after 2 000 completed jobs
    /// (`hN`): the growth from `.h0` to `.h2000` is what long runs pay.
    fn pbs(&mut self) {
        let now = SimTime::ZERO;
        let copies = self.size(16);
        let rounds = 8;
        let history = self.size(2000);
        let qsub = |i: usize| ServerCmd::Qsub(JobSpec::trivial(format!("bench-{i}")));
        let h0 = Head::after(std::iter::empty()).pbs;
        let h2000 = Head::after(workload::burst(history).into_iter()).pbs;
        for (label, base, base_jobs) in [("h0", &h0, 0), ("h2000", &h2000, history)] {
            let mut finish_ns = Vec::new();
            let qsub_ns = self.ns_per_op(&format!("pbs.server: qsub + finish {label}"), || {
                let mut cores: Vec<PbsServerCore> = (0..copies).map(|_| base.clone()).collect();
                let (mut submitting, mut finishing) = (Duration::ZERO, Duration::ZERO);
                for r in 0..rounds {
                    let cmd = qsub(r);
                    let t = Instant::now();
                    for pbs in &mut cores {
                        black_box(pbs.apply(now, &cmd));
                    }
                    submitting += t.elapsed();
                    // The idle cluster started the job at once; finish it.
                    let job = JobId((base_jobs + r + 1) as u64);
                    let report = MomReport::Finished {
                        job,
                        exit: exit::OK,
                    };
                    let t = Instant::now();
                    for pbs in &mut cores {
                        black_box(pbs.on_report(now, &report));
                    }
                    finishing += t.elapsed();
                }
                let ops = (copies * rounds) as u64;
                finish_ns.push(finishing.as_nanos() as f64 / ops as f64);
                (submitting, ops)
            });
            self.put(format!("pbs.server.qsub_ns.{label}"), qsub_ns, "ns");
            if label == "h2000" {
                self.put("pbs.server.finish_ns.h2000", median(&finish_ns), "ns");
            }
        }

        let reps = self.size(20) as u64;
        let mut pbs = h2000.clone();
        let qstat = self.ns_per_op("pbs.server: qstat", || {
            let t = Instant::now();
            for _ in 0..reps {
                black_box(pbs.apply(now, &ServerCmd::Qstat(None)));
            }
            (t.elapsed(), reps)
        });
        self.put("pbs.server.qstat_ns.h2000", qstat, "ns");
        let snapshot = self.ns_per_op("pbs.server: snapshot", || {
            let t = Instant::now();
            for _ in 0..reps {
                black_box(pbs.snapshot());
            }
            (t.elapsed(), reps)
        });
        self.put("pbs.server.snapshot_ns.h2000", snapshot, "ns");
        let snap = pbs.snapshot();
        let restore = self.ns_per_op("pbs.server: restore", || {
            let t = Instant::now();
            for _ in 0..reps {
                pbs.restore(black_box(&snap));
            }
            (t.elapsed(), reps)
        });
        self.put("pbs.server.restore_ns.h2000", restore, "ns");
        let hash = self.ns_per_op("pbs.server: state_hash", || {
            let t = Instant::now();
            for _ in 0..reps {
                black_box(pbs.state_hash());
            }
            (t.elapsed(), reps)
        });
        self.put("pbs.server.state_hash_ns.h2000", hash, "ns");

        // One job holds the (exclusive) cluster, 100 wait behind it.
        let mut busy = h0.clone();
        for i in 0..=100 {
            busy.apply(now, &qsub(i));
        }
        let reps = self.size(200) as u64;
        let kick = self.ns_per_op("pbs.sched: kick_schedule", || {
            let t = Instant::now();
            for _ in 0..reps {
                black_box(busy.kick_schedule(now));
            }
            (t.elapsed(), reps)
        });
        self.put("pbs.sched.kick_ns.q100", kick, "ns");
    }

    // ------------------------------------------------------------------
    // core
    // ------------------------------------------------------------------

    fn core_payload(&mut self) {
        let jobs = self.size(1000) as u64;
        let mut release = Vec::new();
        let acquire = self.ns_per_op("core.payload: jmutex acquire / release", || {
            let mut jmutex = JMutexState::new();
            let t = Instant::now();
            for j in 1..=jobs {
                black_box(jmutex.acquire(JobId(j), MOM, 1, HEAD, false));
            }
            let acquiring = t.elapsed();
            let t = Instant::now();
            for j in 1..=jobs {
                jmutex.release(JobId(j));
            }
            release.push(t.elapsed().as_nanos() as f64 / jobs as f64);
            (acquiring, jobs)
        });
        self.put("core.payload.jmutex_acquire_ns", acquire, "ns");
        self.put("core.payload.jmutex_release_ns", median(&release), "ns");
    }

    fn core_persist(&mut self, stream: &[Payload], state: &ReplicaState) {
        let store = HeadStore::new();
        let now = SimTime::ZERO;
        let n = stream.len() as u64;
        let log = self.ns_per_op("core.persist: log_command", || {
            let mut disk = SimDisk::new();
            let t = Instant::now();
            for (i, p) in stream.iter().enumerate() {
                black_box(store.log_command(&mut disk, now, i as u64 + 1, p));
            }
            (t.elapsed(), n)
        });
        self.put("core.persist.log_command_ns", log, "ns");

        let reps = self.size(40) as u64;
        let mut disk = SimDisk::new();
        let save = self.ns_per_op("core.persist: save_snapshot", || {
            let t = Instant::now();
            for _ in 0..reps {
                black_box(store.save_snapshot(&mut disk, now, state.applied_index, state));
            }
            (t.elapsed(), reps)
        });
        self.put("core.persist.save_snapshot_ns.h1000", save, "ns");

        // Recovery = snapshot load + decode, then scan and decode the WAL.
        for records in [32usize, 2000] {
            let mut disk = SimDisk::new();
            store.save_snapshot(&mut disk, now, state.applied_index, state);
            for (i, p) in stream.iter().cycle().take(self.size(records)).enumerate() {
                store.log_command(&mut disk, now, state.applied_index + i as u64 + 1, p);
            }
            let reps = self.size(10) as u64;
            let recover = self.ns_per_op(&format!("core.persist: recover w{records}"), || {
                let t = Instant::now();
                for _ in 0..reps {
                    black_box(store.recover(&mut disk));
                }
                (t.elapsed(), reps)
            });
            self.put(format!("core.persist.recover_ns.w{records}"), recover, "ns");
        }
    }

    fn core_cluster(&mut self) {
        let reps = self.size(100) as u64;
        let build = self.ns_per_op("core.cluster: build 4 heads", || {
            let t = Instant::now();
            for seed in 0..reps {
                let mut cfg = ClusterConfig::new(HaMode::Joshua { heads: 4 });
                cfg.seed = seed;
                black_box(Cluster::build(cfg));
            }
            (t.elapsed(), reps)
        });
        self.put("core.cluster.build_us.h4", build / 1e3, "us");
    }
}

// ----------------------------------------------------------------------
// Inputs
// ----------------------------------------------------------------------

const HEAD: ProcId = ProcId(0);
const MOM: ProcId = ProcId(50);
const CLIENT: ProcId = ProcId(100);

/// `n` replicated client commands as the workload's first client sends
/// them (its script, repeated if shorter than `n`).
fn payload_stream(w: &Workload, n: usize) -> Vec<Payload> {
    let script = w.script.commands(0, 0);
    script
        .iter()
        .cycle()
        .take(n)
        .enumerate()
        .map(|(i, cmd)| Payload::Client {
            client: CLIENT,
            req_id: i as u64 + 1,
            cmd: cmd.clone(),
        })
        .collect()
}

/// The replicated state of one head, driven directly through the public
/// state machines: every job a command starts is granted its jmutex,
/// finishes and is released at once, so after N commands the state holds
/// N commands' worth of *completed* history.
struct Head {
    pbs: PbsServerCore,
    jmutex: JMutexState,
    last_reply: Option<CmdReply>,
    applied: u64,
}

impl Head {
    fn after(cmds: impl Iterator<Item = ServerCmd>) -> Head {
        let mut pbs = PbsServerCore::new(
            "bench",
            ["c00".to_string(), "c01".to_string()],
            PolicyKind::FifoExclusive.make(),
        );
        pbs.register_mom("c00", MOM);
        let mut head = Head {
            pbs,
            jmutex: JMutexState::new(),
            last_reply: None,
            applied: 0,
        };
        let now = SimTime::ZERO;
        for cmd in cmds {
            let (reply, mut todo) = head.pbs.apply(now, &cmd);
            head.last_reply = Some(reply);
            head.applied += 1;
            while let Some(action) = todo.pop() {
                let report = match action {
                    ServerAction::Start { job, .. } => {
                        head.jmutex.acquire(job, MOM, 1, HEAD, false);
                        head.jmutex.release(job);
                        head.applied += 3; // acquire, obituary, release
                        MomReport::Finished {
                            job,
                            exit: exit::OK,
                        }
                    }
                    ServerAction::Cancel { job, .. } => {
                        head.applied += 1;
                        MomReport::Finished {
                            job,
                            exit: exit::CANCELLED,
                        }
                    }
                };
                todo.extend(head.pbs.on_report(now, &report));
            }
        }
        head
    }
}

fn replica_state_after(stream: &[Payload]) -> ReplicaState {
    let cmds = stream.iter().filter_map(|p| match p {
        Payload::Client { cmd, .. } => Some(cmd.clone()),
        // `payload_stream` builds client commands only; the rest of the
        // replicated stream is generated by `Head::after` itself.
        Payload::Output { .. }
        | Payload::MomFinished { .. }
        | Payload::JMutexAcquire { .. }
        | Payload::JMutexRelease { .. }
        | Payload::Snapshot { .. }
        | Payload::Hello { .. }
        | Payload::CatchUp { .. } => None,
    });
    let head = Head::after(cmds);
    ReplicaState {
        pbs: head.pbs.snapshot(),
        jmutex: head.jmutex,
        applied: head
            .last_reply
            .map(|reply| (CLIENT, stream.len() as u64, reply))
            .into_iter()
            .collect(),
        needs_snapshot: vec![],
        applied_index: head.applied,
        hellos: vec![],
    }
}

// ----------------------------------------------------------------------
// Trivial processes for the kernel-only rows. Their callbacks must not be
// able to panic (jrs-flow F003 covers every `Process` in the workspace).
// ----------------------------------------------------------------------

/// Re-arms a 1 ms timer `left` times.
struct Ticker {
    left: u64,
}

impl Process for Ticker {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_millis(1), 0);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: ProcId, _msg: Msg) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _timer: TimerId, _tag: u64) {
        self.left = self.left.saturating_sub(1);
        if self.left > 0 {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
    }
}

/// Bounces between two [`Echo`] processes until `left` runs out.
struct Ball {
    left: u64,
    peer: ProcId,
}

struct Echo;

impl Process for Echo {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ProcId, msg: Msg) {
        let Ok(ball) = msg.downcast::<Ball>() else {
            return;
        };
        if ball.left > 0 {
            ctx.send(
                ball.peer,
                Ball {
                    left: ball.left - 1,
                    peer: ctx.me(),
                },
            );
        }
    }
}

// ----------------------------------------------------------------------
// Engine loop
// ----------------------------------------------------------------------

#[derive(Clone, Copy, Debug, Default)]
struct EngineMsgCounts {
    request: u64,
    ordered: u64,
    ack: u64,
    stable: u64,
    token: u64,
}

/// Order `payloads` through `n` engines wired by a FIFO queue; returns the
/// time and the engine messages sent, by kind.
fn engine_loop(kind: EngineKind, n: u32, payloads: Vec<Payload>) -> (Duration, EngineMsgCounts) {
    let cfg = GroupConfig::default();
    let members: Vec<ProcId> = (0..n).map(ProcId).collect();
    let mut engines: Vec<Engine<Payload>> = members
        .iter()
        .map(|&me| Engine::with_retry(kind, me, cfg.token_idle_pass, cfg.request_retry))
        .collect();
    let mut queue: VecDeque<(ProcId, ProcId, EngineMsg<Payload>)> = VecDeque::new();
    let mut counts = EngineMsgCounts::default();
    let mut absorb =
        |from: ProcId,
         out: EngineOut<Payload>,
         queue: &mut VecDeque<(ProcId, ProcId, EngineMsg<Payload>)>| {
            for (to, msg) in out.sends {
                // Exhaustive: a new engine message must be counted (F004).
                match &msg {
                    EngineMsg::Request { .. } => counts.request += 1,
                    EngineMsg::Ordered(_) => counts.ordered += 1,
                    EngineMsg::Ack { .. } => counts.ack += 1,
                    EngineMsg::Stable { .. } => counts.stable += 1,
                    EngineMsg::Token { .. } => counts.token += 1,
                }
                queue.push_back((from, to, msg));
            }
            black_box(out.deliver);
        };

    let mut now = SimTime::ZERO;
    let t = Instant::now();
    for (i, engine) in engines.iter_mut().enumerate() {
        let out = engine.install(now, members.clone(), 1, &[], i == 0);
        absorb(members[i], out, &mut queue);
    }
    for (i, payload) in payloads.into_iter().enumerate() {
        let origin = i % n as usize;
        let out = engines[origin].submit(now, payload);
        absorb(members[origin], out, &mut queue);
        let target = i as u64 + 1;
        // Deliver what is in flight, then tick (stability announcements
        // and token passes are tick-driven) until every member delivered.
        for round in 0.. {
            while let Some((from, to, msg)) = queue.pop_front() {
                let out = engines[to.index()].on_msg(now, from, msg);
                absorb(to, out, &mut queue);
            }
            if engines.iter().all(|e| e.delivered_up_to() >= target) {
                break;
            }
            assert!(
                round < 1_000,
                "engine loop: message {target} never delivered everywhere"
            );
            now += cfg.tick_every;
            for (j, engine) in engines.iter_mut().enumerate() {
                let out = engine.tick(now);
                absorb(members[j], out, &mut queue);
            }
        }
    }
    (t.elapsed(), counts)
}

// ----------------------------------------------------------------------
// Group pump
// ----------------------------------------------------------------------

#[derive(Clone, Copy, Debug, Default)]
struct FrameCounts {
    data: u64,
    ack: u64,
    raw: u64,
    bytes: u64,
}

impl FrameCounts {
    fn total(&self) -> u64 {
        self.data + self.ack + self.raw
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct CallTime {
    ns: u64,
    calls: u64,
}

/// `n` group members wired by one FIFO queue, zero latency. Time advances
/// one tick period per tick round, so heartbeats go out as they would in
/// the simulator.
struct GroupPump {
    members: Vec<Option<GroupMember<Payload>>>,
    queue: VecDeque<(ProcId, ProcId, Wire<Payload>)>,
    now: SimTime,
    tick_every: SimDuration,
    ordered: u64,
    frames: FrameCounts,
    /// Clock every call (costs two clock reads per call).
    per_call: bool,
    broadcast: CallTime,
    on_wire: CallTime,
    tick: CallTime,
}

impl GroupPump {
    fn start(n: u32, per_call: bool) -> GroupPump {
        let cfg = GroupConfig::default();
        let ids: Vec<ProcId> = (0..n).map(ProcId).collect();
        let mut pump = GroupPump {
            members: Vec::new(),
            queue: VecDeque::new(),
            now: SimTime::ZERO,
            tick_every: cfg.tick_every,
            ordered: 0,
            frames: FrameCounts::default(),
            per_call,
            broadcast: CallTime::default(),
            on_wire: CallTime::default(),
            tick: CallTime::default(),
        };
        for &id in &ids {
            let mut member = GroupMember::new(id, cfg.clone(), ids.clone());
            let out = member.start(pump.now);
            pump.members.push(Some(member));
            pump.absorb(id, out);
        }
        pump.drain();
        pump
    }

    fn absorb(&mut self, from: ProcId, out: Output<Payload>) {
        for (to, frame, bytes) in out.wire {
            match &frame {
                Wire::Data { .. } => self.frames.data += 1,
                Wire::Ack { .. } => self.frames.ack += 1,
                Wire::Raw(_) => self.frames.raw += 1,
            }
            self.frames.bytes += u64::from(bytes);
            self.queue.push_back((from, to, frame));
        }
        for event in out.events {
            match event {
                GcsEvent::Deliver { payload, .. } => drop(black_box(payload)),
                GcsEvent::ViewChange { .. } | GcsEvent::Ejected => {}
            }
        }
    }

    /// Run `call` on member `who`, clocked if this pump clocks calls.
    fn call(
        &mut self,
        who: ProcId,
        which: fn(&mut GroupPump) -> &mut CallTime,
        call: impl FnOnce(&mut GroupMember<Payload>, SimTime) -> Output<Payload>,
    ) {
        let now = self.now;
        let Some(member) = self.members[who.index()].as_mut() else {
            return;
        };
        let t = self.per_call.then(Instant::now);
        let out = call(member, now);
        if let Some(t) = t {
            let spent = t.elapsed().as_nanos() as u64;
            let slot = which(self);
            slot.ns += spent;
            slot.calls += 1;
        }
        self.absorb(who, out);
    }

    fn drain(&mut self) {
        while let Some((from, to, frame)) = self.queue.pop_front() {
            // Frames to a crashed member fall on the floor inside `call`.
            self.call(to, |p| &mut p.on_wire, |m, now| m.on_wire(now, from, frame));
        }
    }

    fn tick_all(&mut self) {
        self.now += self.tick_every;
        for i in 0..self.members.len() {
            self.call(ProcId(i as u32), |p| &mut p.tick, |m, now| m.tick(now));
        }
    }

    fn live(&self) -> impl Iterator<Item = &GroupMember<Payload>> {
        self.members.iter().flatten()
    }

    /// Broadcast from `origin` and pump until every live member delivered.
    fn order(&mut self, origin: ProcId, payload: Payload) {
        self.call(
            origin,
            |p| &mut p.broadcast,
            |m, now| m.broadcast(now, payload),
        );
        self.ordered += 1;
        let target = self.ordered;
        for round in 0.. {
            self.drain();
            if self.live().all(|m| m.delivered_up_to() >= target) {
                break;
            }
            assert!(
                round < 1_000,
                "group pump: message {target} never delivered everywhere"
            );
            self.tick_all();
        }
    }

    /// Crash `who` and tick the survivors until all of them installed a
    /// view without it.
    fn crash_and_reform(&mut self, who: ProcId) {
        self.members[who.index()] = None;
        for round in 0.. {
            self.tick_all();
            self.drain();
            if self
                .live()
                .all(|m| !m.view().contains(who) && m.is_installed() && !m.is_blocked())
            {
                break;
            }
            assert!(
                round < 10_000,
                "group pump: survivors never dropped {who} from the view"
            );
        }
    }
}
