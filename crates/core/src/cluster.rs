//! Cluster harness: assembles head nodes, compute nodes and measuring
//! clients into a simulated Beowulf cluster under any of the four HA
//! architectures the paper discusses (Figures 1–4), and provides the
//! fault-injection and inspection hooks the experiments use.

use crate::config::{JoshuaConfig, PersistConfig};
use crate::ha::ActiveStandbyHead;
use crate::server::JoshuaServer;
use jrs_gcs::{FrameCost, GroupConfig};
use jrs_pbs::proc::{PbsClientProcess, PbsHeadProcess, PbsMomProcess};
use jrs_pbs::server::PbsServerCore;
use jrs_pbs::{ClientDone, PbsMomCore, ServerCmd, SubmitRecord};
use jrs_sim::{NodeId, ProcId, SimDuration, SimTime, World};

/// Compute nodes of every cluster, as on the paper's testbed.
const COMPUTE_NODES: usize = 2;

/// Which high-availability architecture to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HaMode {
    /// Figure 1: one head node, no redundancy (plain TORQUE baseline).
    SingleHead,
    /// Figure 2: primary + warm standby with periodic checkpoints.
    ActiveStandby,
    /// Figure 3: `heads` independent head nodes, each owning a partition
    /// of the compute nodes, client-side round-robin.
    Asymmetric {
        /// Number of independent heads.
        heads: usize,
    },
    /// Figure 4: JOSHUA symmetric active/active replication over `heads`
    /// head nodes.
    Joshua {
        /// Number of replicated heads.
        heads: usize,
    },
}

impl HaMode {
    /// Number of head nodes this mode deploys.
    pub fn head_count(self) -> usize {
        match self {
            HaMode::SingleHead => 1,
            HaMode::ActiveStandby => 2,
            HaMode::Asymmetric { heads } | HaMode::Joshua { heads } => heads,
        }
    }

    /// Short label for experiment tables.
    pub fn label(self) -> String {
        match self {
            HaMode::SingleHead => "TORQUE".into(),
            HaMode::ActiveStandby => "ACTIVE/STANDBY".into(),
            HaMode::Asymmetric { heads } => format!("ASYM-A/A x{heads}"),
            HaMode::Joshua { heads } => format!("JOSHUA/TORQUE x{heads}"),
        }
    }
}

/// Cluster construction parameters.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// HA architecture.
    pub mode: HaMode,
    /// Simulation seed.
    pub seed: u64,
    /// Group communication tunables and frame cost (JOSHUA mode).
    pub group: GroupConfig,
    /// How often an active/standby primary checkpoints its state to the
    /// standby.
    pub checkpoint_every: SimDuration,
    /// Durability of head-node state (JOSHUA mode): WAL + snapshots on
    /// each head's local simulated disk. Off by default (the paper's
    /// diskless configuration).
    pub persist: PersistConfig,
    /// Reproduce the paper's TORQUE mom obituary bug.
    pub mom_obituary_bug: bool,
    /// Client failover timeout.
    pub client_timeout: SimDuration,
}

impl ClusterConfig {
    /// Defaults matching the paper's testbed (2 compute nodes, hub LAN).
    pub fn new(mode: HaMode) -> Self {
        ClusterConfig {
            mode,
            seed: 42,
            group: GroupConfig {
                cost: FrameCost::TRANSIS,
                ..GroupConfig::default()
            },
            checkpoint_every: SimDuration::from_secs(10),
            persist: PersistConfig::default(),
            mom_obituary_bug: false,
            client_timeout: SimDuration::from_millis(1500),
        }
    }
}

/// A built cluster.
pub struct Cluster {
    /// The simulation world.
    pub world: World,
    /// Configuration used.
    pub cfg: ClusterConfig,
    /// Head nodes (sim node ids), same order as `heads`.
    pub head_nodes: Vec<NodeId>,
    /// Head processes.
    pub heads: Vec<ProcId>,
    /// Compute nodes.
    pub mom_nodes: Vec<NodeId>,
    /// Mom processes.
    pub moms: Vec<ProcId>,
    /// Clients spawned so far.
    pub clients: Vec<ProcId>,
    login_node: NodeId,
}

/// The `(node name, mom)` table: compute node `i` is `c0i`, run by `moms[i]`.
fn node_table(moms: &[ProcId]) -> Vec<(String, ProcId)> {
    moms.iter()
        .enumerate()
        .map(|(i, m)| (format!("c{i:02}"), *m))
        .collect()
}

/// The daemon configuration every JOSHUA head of this cluster gets.
fn joshua_config(cfg: &ClusterConfig, moms: &[ProcId]) -> JoshuaConfig {
    JoshuaConfig {
        nodes: node_table(moms),
        group: cfg.group.clone(),
        persist: cfg.persist,
    }
}

impl Cluster {
    /// Build the cluster (no clients yet).
    pub fn build(cfg: ClusterConfig) -> Cluster {
        let mut world = World::new(cfg.seed);
        let h = cfg.mode.head_count();
        let c = COMPUTE_NODES;
        assert!(h >= 1);

        // Topology: head nodes first, compute nodes, then a login node.
        let head_nodes: Vec<NodeId> = (0..h)
            .map(|i| world.add_node(format!("head-{i}")))
            .collect();
        let mom_nodes: Vec<NodeId> = (0..c).map(|i| world.add_node(format!("c{i:02}"))).collect();
        let login_node = world.add_node("login");

        // Process ids are sequential: heads 0..h, moms h..h+c.
        let h32 = u32::try_from(h).expect("head count fits u32");
        let c32 = u32::try_from(c).expect("compute-node count fits u32");
        let head_ids: Vec<ProcId> = (0..h32).map(ProcId).collect();
        let mom_ids: Vec<ProcId> = (0..c32).map(|i| ProcId(h32 + i)).collect();
        let all_nodes = node_table(&mom_ids);

        let mut heads = Vec::new();
        match cfg.mode {
            HaMode::SingleHead => {
                let core = PbsServerCore::with_moms(&all_nodes);
                let p = world.add_process(head_nodes[0], PbsHeadProcess::new(core));
                heads.push(p);
            }
            HaMode::ActiveStandby => {
                for i in 0..2 {
                    let core = PbsServerCore::with_moms(&all_nodes);
                    let peer = head_ids[1 - i];
                    let head = ActiveStandbyHead::new(
                        core,
                        cfg.checkpoint_every,
                        peer,
                        i == 0,
                        mom_ids.clone(),
                    );
                    let p = world.add_process(head_nodes[i], head);
                    heads.push(p);
                }
            }
            HaMode::Asymmetric { heads: n } => {
                // Each head owns a disjoint partition of the nodes.
                #[expect(clippy::needless_range_loop, reason = "indexes parallel arrays")]
                for i in 0..n {
                    let my_nodes: Vec<(String, ProcId)> = all_nodes
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| j % n == i)
                        .map(|(_, nm)| nm.clone())
                        .collect();
                    let core = PbsServerCore::with_moms(&my_nodes);
                    let p = world.add_process(head_nodes[i], PbsHeadProcess::new(core));
                    heads.push(p);
                }
            }
            HaMode::Joshua { heads: n } => {
                for i in 0..n {
                    let jc = joshua_config(&cfg, &mom_ids);
                    let p = world.add_process(
                        head_nodes[i],
                        JoshuaServer::new(head_ids[i], jc, head_ids.clone()),
                    );
                    heads.push(p);
                }
            }
        }
        assert_eq!(heads, head_ids, "head process ids must be predictable");

        let mut moms = Vec::new();
        for &node in &mom_nodes {
            let mut core = PbsMomCore::new();
            core.obituary_bug = cfg.mom_obituary_bug;
            moms.push(world.add_process(node, PbsMomProcess::new(core)));
        }
        assert_eq!(moms, mom_ids, "mom process ids must be predictable");

        Cluster {
            world,
            cfg,
            head_nodes,
            heads,
            mom_nodes,
            moms,
            clients: Vec::new(),
            login_node,
        }
    }

    /// Spawn a closed-loop measuring client on the login node with the
    /// mode-appropriate target strategy. The script starts immediately.
    pub fn spawn_client(&mut self, script: Vec<ServerCmd>) -> ProcId {
        let targets = self.heads.clone();
        let mut client =
            PbsClientProcess::new(targets, script).with_timeout(self.cfg.client_timeout);
        if matches!(self.cfg.mode, HaMode::Asymmetric { .. }) {
            client = client.with_round_robin();
        }
        let login = self.login_node;
        let p = self.world.add_process(login, client);
        self.clients.push(p);
        p
    }

    /// Run the world for a virtual duration.
    pub fn run_for(&mut self, d: SimDuration) {
        self.world.run_for(d);
    }

    /// Run until an absolute virtual time.
    pub fn run_until(&mut self, t: SimTime) {
        self.world.run_until(t);
    }

    /// Drain the measured per-command records.
    pub fn take_records(&mut self) -> Vec<SubmitRecord> {
        self.world
            .take_emitted::<SubmitRecord>()
            .into_iter()
            .map(|(_, _, r)| r)
            .collect()
    }

    /// Drain client completion events.
    pub fn take_dones(&mut self) -> Vec<ClientDone> {
        self.world
            .take_emitted::<ClientDone>()
            .into_iter()
            .map(|(_, _, d)| d)
            .collect()
    }

    /// Crash head `i` (power-off).
    pub fn crash_head(&mut self, i: usize) {
        self.world.crash_node(self.head_nodes[i]);
    }

    /// Add a replacement JOSHUA head that joins the running group via
    /// state transfer. Returns its process id.
    pub fn add_joshua_head(&mut self) -> ProcId {
        let HaMode::Joshua { .. } = self.cfg.mode else {
            panic!("replacement heads only exist in JOSHUA mode");
        };
        let node = self
            .world
            .add_node(format!("head-{}", self.head_nodes.len()));
        let contacts = self.heads.clone();
        let jc = joshua_config(&self.cfg, &self.moms);
        // The new process id is not in `contacts`, so it starts as a
        // joiner using them as contact points.
        let me = ProcId(self.world_proc_count());
        let p = self
            .world
            .add_process(node, JoshuaServer::new(me, jc, contacts));
        assert_eq!(p, me);
        self.head_nodes.push(node);
        self.heads.push(p);
        p
    }

    /// Restart a crashed JOSHUA head *in place*: revive its node (the
    /// simulated disk survives the crash) and boot a fresh daemon under
    /// the same process id. With durability enabled the new daemon
    /// recovers from its local WAL + snapshot, rejoins the survivors and
    /// catches up only the delta; diskless it rejoins empty and receives
    /// a full snapshot.
    pub fn restart_joshua_head(&mut self, i: usize) -> ProcId {
        let me = self.heads[i];
        let contacts: Vec<ProcId> = self.heads.iter().copied().filter(|p| *p != me).collect();
        if contacts.is_empty() {
            // No survivors to join through (single-head cluster): this is
            // a one-member cold restart — bootstrap as the initial member.
            return self.respawn_joshua_head(i, vec![me]);
        }
        self.respawn_joshua_head(i, contacts)
    }

    /// Power off the entire cluster at once: every head node and every
    /// compute node (the login node keeps its clients, which will retry).
    pub fn blackout(&mut self) {
        for n in self.head_nodes.clone() {
            self.world.crash_node(n);
        }
        for n in self.mom_nodes.clone() {
            self.world.crash_node(n);
        }
    }

    /// Power the cluster back on after a [`blackout`](Cluster::blackout):
    /// boot fresh moms (compute state is not durable — jobs that were
    /// running died and will be relaunched), then cold-restart every head
    /// with the full bootstrap member list so the group re-forms and
    /// reconciles the recovered states (most advanced index wins).
    pub fn cold_restart(&mut self) {
        for i in 0..self.mom_nodes.len() {
            self.restart_mom(i);
        }
        let contacts = self.heads.clone();
        for i in 0..self.heads.len() {
            self.respawn_joshua_head(i, contacts.clone());
        }
    }

    /// Restart a crashed mom with a fresh (empty) core.
    pub(crate) fn restart_mom(&mut self, i: usize) -> ProcId {
        let node = self.mom_nodes[i];
        if !self.world.is_node_alive(node) {
            self.world.revive_node(node);
        }
        let mut core = PbsMomCore::new();
        core.obituary_bug = self.cfg.mom_obituary_bug;
        self.world
            .restart_proc(self.moms[i], Box::new(PbsMomProcess::new(core)));
        self.moms[i]
    }

    fn respawn_joshua_head(&mut self, i: usize, initial: Vec<ProcId>) -> ProcId {
        let HaMode::Joshua { .. } = self.cfg.mode else {
            panic!("head restart only exists in JOSHUA mode");
        };
        let node = self.head_nodes[i];
        if !self.world.is_node_alive(node) {
            self.world.revive_node(node);
        }
        let jc = joshua_config(&self.cfg, &self.moms);
        let me = self.heads[i];
        self.world
            .restart_proc(me, Box::new(JoshuaServer::new(me, jc, initial)));
        me
    }

    fn world_proc_count(&self) -> u32 {
        // Heads + moms + clients + any previous replacements: the world
        // assigns sequential ids, so the next is the total spawned so far.
        u32::try_from(self.heads.len() + self.moms.len() + self.clients.len())
            .expect("process count fits u32")
    }

    /// Borrow a JOSHUA head (panics in other modes).
    pub fn joshua(&self, i: usize) -> &JoshuaServer {
        self.world
            .proc_ref::<JoshuaServer>(self.heads[i])
            .expect("not a JOSHUA head (wrong mode or crashed before start)")
    }

    /// Borrow a mom core.
    pub(crate) fn mom(&self, i: usize) -> &PbsMomCore {
        self.world
            .proc_ref::<PbsMomProcess>(self.moms[i])
            .expect("mom process")
            .core()
    }

    /// Total real job executions across all moms (exactly-once checks).
    pub fn total_real_runs(&self) -> u64 {
        (0..self.moms.len()).map(|i| self.mom(i).real_runs).sum()
    }

    /// Assert every *established* live JOSHUA head holds consistent
    /// replicated PBS state; returns how many heads were compared.
    pub fn assert_replicas_consistent(&self) -> usize {
        let snapshots: Vec<(usize, jrs_pbs::server::ServerSnapshot)> = self
            .heads
            .iter()
            .enumerate()
            .filter(|(i, p)| {
                self.world.is_proc_alive(**p)
                    && self
                        .world
                        .proc_ref::<JoshuaServer>(self.heads[*i])
                        .map(|j| j.is_established())
                        .unwrap_or(false)
            })
            .map(|(i, _)| (i, self.joshua(i).pbs().snapshot()))
            .collect();
        for w in snapshots.windows(2) {
            let (ia, a) = &w[0];
            let (ib, b) = &w[1];
            assert!(
                a.consistent_with(b),
                "replica divergence between head {ia} and head {ib}:\n{a:#?}\nvs\n{b:#?}"
            );
        }
        snapshots.len()
    }
}
