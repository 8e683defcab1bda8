//! End-to-end tests of the unreplicated baseline: a measuring client, one
//! PBS head (TORQUE stand-in) and mom daemons on compute nodes, over the
//! simulated Fast-Ethernet network. This is the paper's Figure 1
//! architecture and the "TORQUE" row of Figures 10/11.

use jrs_pbs::{
    ClientDone, CmdReply, FifoExclusive, JobId, JobSpec, JobState, PbsClientProcess,
    PbsHeadProcess, PbsMomCore, PbsMomProcess, PbsServerCore, ServerCmd, SubmitRecord,
};
use jrs_sim::{NetworkConfig, ProcId, SimDuration, SimTime, World};

struct Testbed {
    world: World,
    head: ProcId,
    moms: Vec<ProcId>,
    client: ProcId,
}

fn testbed(compute_nodes: usize, script: Vec<ServerCmd>) -> Testbed {
    let mut world = World::with_network(42, NetworkConfig::default());
    let head_node = world.add_node("head");
    let mut core = PbsServerCore::new(
        "head",
        (0..compute_nodes).map(|i| format!("c{i:02}")),
        FifoExclusive,
    );
    // Moms get the ProcIds right after the head's (head is proc 0).
    for i in 0..compute_nodes {
        core.register_mom(&format!("c{i:02}"), ProcId(1 + i as u32));
    }
    let head = world.add_process(head_node, PbsHeadProcess::new(core));
    let mut moms = Vec::new();
    for i in 0..compute_nodes {
        let n = world.add_node(format!("c{i:02}"));
        let mom = world.add_process(n, PbsMomProcess::new(PbsMomCore::new()));
        assert_eq!(mom, ProcId(1 + i as u32));
        moms.push(mom);
    }
    let login = world.add_node("login");
    let client = world.add_process(login, PbsClientProcess::new(vec![head], script));
    Testbed {
        world,
        head,
        moms,
        client,
    }
}

fn run_to_idle(tb: &mut Testbed) {
    tb.world
        .run_until(SimTime::ZERO + SimDuration::from_secs(600));
}

#[test]
fn submit_run_complete_cycle() {
    let script = vec![
        ServerCmd::Qsub(JobSpec::with_runtime("j1", SimDuration::from_secs(2))),
        ServerCmd::Qsub(JobSpec::with_runtime("j2", SimDuration::from_secs(2))),
    ];
    let mut tb = testbed(2, script);
    run_to_idle(&mut tb);
    let head = tb.world.proc_ref::<PbsHeadProcess>(tb.head).unwrap().core();
    assert_eq!(head.count_state(JobState::Complete), 2);
    assert_eq!(head.job(JobId(1)).unwrap().exit_status, Some(0));
    assert_eq!(head.job(JobId(2)).unwrap().exit_status, Some(0));
    // Exactly one real execution per job, on the first node's mom.
    let mom0 = tb
        .world
        .proc_ref::<PbsMomProcess>(tb.moms[0])
        .unwrap()
        .core();
    assert_eq!(mom0.real_runs, 2);
}

#[test]
fn submission_latency_in_paper_ballpark() {
    // Figure 10 baseline: ~98 ms per submission on the paper's testbed.
    // The cost model is calibrated to land near that; assert the ballpark
    // so calibration regressions are caught.
    let script: Vec<ServerCmd> = (0..20)
        .map(|i| ServerCmd::Qsub(JobSpec::trivial(format!("j{i}"))))
        .collect();
    let mut tb = testbed(2, script);
    run_to_idle(&mut tb);
    let records = tb.world.take_emitted::<SubmitRecord>();
    assert_eq!(records.len(), 20);
    let mean_ns = records
        .iter()
        .map(|(_, _, r)| r.latency.as_nanos())
        .sum::<u64>()
        / records.len() as u64;
    assert!(
        (85_000_000..115_000_000).contains(&mean_ns),
        "baseline submission latency {mean_ns}ns is outside the calibrated \
         window around the paper's 98ms"
    );
}

#[test]
fn throughput_batch_matches_serialized_latency() {
    // Figure 11 baseline: 10 jobs ≈ 0.93 s (≈ 10 × latency, closed loop).
    let script: Vec<ServerCmd> = (0..10)
        .map(|i| ServerCmd::Qsub(JobSpec::trivial(format!("j{i}"))))
        .collect();
    let mut tb = testbed(2, script);
    run_to_idle(&mut tb);
    let done = tb.world.take_emitted::<ClientDone>();
    assert_eq!(done.len(), 1);
    let d = done[0].2;
    let total = d.finished.since(d.started);
    let secs = total.as_secs_f64();
    assert!(
        (0.8..1.2).contains(&secs),
        "10-job batch took {secs:.2}s, expected ≈0.93s"
    );
}

#[test]
fn qdel_running_job_via_client() {
    let script = vec![
        ServerCmd::Qsub(JobSpec::with_runtime("long", SimDuration::from_secs(500))),
        ServerCmd::Qdel(JobId(1)),
    ];
    let mut tb = testbed(1, script);
    run_to_idle(&mut tb);
    let head = tb.world.proc_ref::<PbsHeadProcess>(tb.head).unwrap().core();
    let j = head.job(JobId(1)).unwrap();
    assert_eq!(j.state, JobState::Complete);
    assert_eq!(j.exit_status, Some(jrs_pbs::job::exit::CANCELLED));
}

#[test]
fn qstat_reports_current_states() {
    let script = vec![
        ServerCmd::Qsub(JobSpec::with_runtime(
            "running",
            SimDuration::from_secs(300),
        )),
        ServerCmd::Qsub(JobSpec::trivial("queued")),
        ServerCmd::Qstat(None),
    ];
    let mut tb = testbed(1, script);
    run_to_idle(&mut tb);
    let records = tb.world.take_emitted::<SubmitRecord>();
    let stat = records
        .iter()
        .find_map(|(_, _, r)| match &r.reply {
            CmdReply::Status(rows) => Some(rows.clone()),
            _ => None,
        })
        .expect("qstat reply");
    assert_eq!(stat.len(), 2);
    assert_eq!(stat[0].state, 'R');
    assert_eq!(stat[1].state, 'Q');
    let _ = tb.client;
}

#[test]
fn walltime_kill_end_to_end() {
    let mut spec = JobSpec::trivial("hog");
    spec.runtime = SimDuration::from_secs(100);
    spec.walltime = SimDuration::from_secs(5);
    let mut tb = testbed(1, vec![ServerCmd::Qsub(spec)]);
    run_to_idle(&mut tb);
    let head = tb.world.proc_ref::<PbsHeadProcess>(tb.head).unwrap().core();
    assert_eq!(
        head.job(JobId(1)).unwrap().exit_status,
        Some(jrs_pbs::job::exit::WALLTIME)
    );
}

#[test]
fn head_crash_stops_service_baseline() {
    // The motivating failure: with a single head, a crash interrupts the
    // whole service — later submissions never get replies.
    let script: Vec<ServerCmd> = (0..10)
        .map(|i| ServerCmd::Qsub(JobSpec::trivial(format!("j{i}"))))
        .collect();
    let mut tb = testbed(1, script);
    let head_node = jrs_sim::NodeId(0);
    tb.world
        .schedule_at(SimTime::ZERO + SimDuration::from_millis(250), move |w| {
            w.crash_node(head_node)
        });
    tb.world
        .run_until(SimTime::ZERO + SimDuration::from_secs(120));
    let records = tb.world.take_emitted::<SubmitRecord>();
    assert!(
        records.len() < 10,
        "single-head service should have been interrupted, got {} replies",
        records.len()
    );
    let done = tb.world.take_emitted::<ClientDone>();
    assert!(done.is_empty(), "client script must not complete");
}
