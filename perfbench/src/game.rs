//! Workloads and whole-game runs through the program's public entry points.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use sdso_core::{DsoError, ObsSet, WireConfig};
use sdso_game::{run_node, run_node_obs, Block, NodeStats, Protocol, Scenario};
use sdso_net::reactor::ReactorMesh;
use sdso_net::{Endpoint, NetError, TraceConfig};
use sdso_sim::{NetworkModel, SimCluster};

use crate::host::process_cpu_ns;
use crate::probe::{LogSink, NodeLog, Probe, ProbeMode};

/// Where a workload's games run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// The virtual-time simulator over `NetworkModel::paper_testbed()`.
    PaperTestbed,
    /// A reactor mesh over real loopback sockets, one thread per node.
    Loopback,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Transport.
    pub transport: Transport,
    /// Consistency protocol.
    pub protocol: Protocol,
    /// Nodes (teams).
    pub teams: u16,
    /// Sensing range.
    pub range: u16,
    /// Ticks per game.
    pub ticks: u64,
    /// Placement seeds (maps) per run: the run plays each in turn, and
    /// virtual metrics average over them.
    pub maps: u64,
    /// Whether the wire format is `WireConfig::compressed()` (v2 codec,
    /// XOR-delta, batch dedup) rather than v1.
    pub compressed: bool,
    /// Whether messages are modelled at the paper's fixed 2048-byte frame
    /// size (`false`: at their encoded size).
    pub paper_frames: bool,
}

/// The benchmark's workloads.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "paper16-r3-msync2",
        transport: Transport::PaperTestbed,
        protocol: Protocol::Msync2,
        teams: 16,
        range: 3,
        ticks: 500,
        maps: 4,
        compressed: false,
        paper_frames: true,
    },
    Workload {
        name: "paper16-r3-ec",
        transport: Transport::PaperTestbed,
        protocol: Protocol::Entry,
        teams: 16,
        range: 3,
        ticks: 150,
        maps: 8,
        compressed: false,
        paper_frames: true,
    },
    Workload {
        name: "loopback2-bsync-v2",
        transport: Transport::Loopback,
        protocol: Protocol::Bsync,
        teams: 2,
        range: 3,
        ticks: 6000,
        maps: 4,
        compressed: true,
        paper_frames: false,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The scenario for one placement seed.
    pub fn scenario(&self, seed: u64) -> Scenario {
        let mut s = Scenario::paper(self.teams, self.range)
            .with_seed(seed)
            .with_ticks(self.ticks)
            .with_wire(if self.compressed { WireConfig::compressed() } else { WireConfig::v1() });
        if !self.paper_frames {
            s.frame_wire_len = None;
        }
        s
    }

    /// The placement seeds one run plays, derived from the run's seed.
    pub fn map_seeds(&self, seed: u64) -> Vec<u64> {
        (0..self.maps).map(|i| seed.wrapping_mul(self.maps).wrapping_add(i)).collect()
    }

    /// The same workload on the simulator: for a real-socket workload,
    /// the reference its games are checked against and its virtual
    /// metrics come from.
    pub fn simulated(&self) -> Workload {
        Workload { transport: Transport::PaperTestbed, ..*self }
    }

    /// The simulator's link model (`None` on real sockets).
    pub fn model(&self) -> Option<NetworkModel> {
        match self.transport {
            Transport::PaperTestbed => Some(NetworkModel::paper_testbed()),
            Transport::Loopback => None,
        }
    }
}

/// Everything one game produced.
#[derive(Debug)]
pub struct GameRun {
    /// Placement seed.
    pub seed: u64,
    /// Whether calls were traced.
    pub traced: bool,
    /// Host time when the game was started.
    pub called: Instant,
    /// Host time when every node had returned.
    pub returned: Instant,
    /// Process CPU nanoseconds used by the game.
    pub cpu_ns: u64,
    /// Per-node statistics, by node id (empty when the game failed).
    pub stats: Vec<NodeStats>,
    /// Per-node probe logs, by node id.
    pub logs: Vec<NodeLog>,
    /// The flight recorders, for a traced game.
    pub obs: Option<ObsSet>,
    /// Why the game or its output check failed.
    pub failure: Option<String>,
}

/// Flight-recorder events one node records per tick, with headroom (the
/// two-node loopback game records about 160 per node, the EC game up to
/// about 300).
const EVENTS_PER_TICK: usize = 512;

/// Plays one game of `workload` on placement `seed`.
pub fn play(workload: &Workload, seed: u64, mode: ProbeMode) -> GameRun {
    let scenario = workload.scenario(seed);
    let traced = mode == ProbeMode::Calls;
    // `TraceConfig::full()`'s ring, grown to hold a whole game so the
    // exchange spans cover every tick rather than the tail.
    let capacity = (TraceConfig::full().capacity).max(workload.ticks as usize * EVENTS_PER_TICK);
    let obs =
        traced.then(|| ObsSet::new(workload.teams, TraceConfig::full_with_capacity(capacity)));
    let sink: LogSink = Arc::new(Mutex::new(Vec::new()));
    let ticks_hint = workload.ticks as usize + 1;
    let model = workload.model();

    let cpu0 = process_cpu_ns();
    let called = Instant::now();
    let results: Vec<Result<NodeStats, String>> = match workload.transport {
        Transport::PaperTestbed => {
            let (sink, obs, scenario) = (Arc::clone(&sink), obs.clone(), scenario.clone());
            let protocol = workload.protocol;
            let outcome =
                SimCluster::new(usize::from(workload.teams), NetworkModel::paper_testbed()).run(
                    move |ep| {
                        let probe = Probe::new(ep, mode, model, Arc::clone(&sink), ticks_hint);
                        run_probed(probe, &scenario, protocol, obs.as_ref()).map_err(NetError::from)
                    },
                );
            match outcome {
                Ok(outcome) => {
                    outcome.nodes.into_iter().map(|n| n.result.map_err(|e| e.to_string())).collect()
                }
                Err(e) => vec![Err(e.to_string())],
            }
        }
        Transport::Loopback => match ReactorMesh::local(usize::from(workload.teams)) {
            Err(e) => vec![Err(format!("mesh setup: {e}"))],
            Ok(endpoints) => std::thread::scope(|scope| {
                let handles: Vec<_> = endpoints
                    .into_iter()
                    .map(|ep| {
                        let (sink, obs, scenario) = (Arc::clone(&sink), &obs, &scenario);
                        let protocol = workload.protocol;
                        scope.spawn(move || {
                            let probe = Probe::new(ep, mode, None, sink, ticks_hint);
                            run_probed(probe, scenario, protocol, obs.as_ref())
                                .map_err(|e| e.to_string())
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|_| Err("node thread panicked".into())))
                    .collect()
            }),
        },
    };
    let returned = Instant::now();
    let cpu_ns = process_cpu_ns().saturating_sub(cpu0);

    let mut logs = std::mem::take(&mut *sink.lock().expect("probe sink poisoned"));
    logs.sort_by_key(|log| log.node);
    let mut run = GameRun {
        seed,
        traced,
        called,
        returned,
        cpu_ns,
        stats: Vec::new(),
        logs,
        obs,
        failure: None,
    };
    match results.into_iter().collect::<Result<Vec<_>, _>>() {
        Ok(stats) => {
            run.stats = stats;
            run.failure = check_game(workload, &run).err();
        }
        Err(e) => run.failure = Some(e),
    }
    run
}

/// Runs one node's game on a probed endpoint, recording into its bundle
/// of `obs` when the game is traced.
fn run_probed<E: Endpoint>(
    probe: Probe<E>,
    scenario: &Scenario,
    protocol: Protocol,
    obs: Option<&ObsSet>,
) -> Result<NodeStats, DsoError> {
    match obs {
        Some(set) => {
            let node_obs = set.node(probe.node_id());
            run_node_obs(probe, scenario, protocol, node_obs)
        }
        None => run_node(probe, scenario, protocol),
    }
}

/// The per-game output check: every node ran every tick (as both the
/// program and the probe count them) and all final replicas converged.
fn check_game(workload: &Workload, run: &GameRun) -> Result<(), String> {
    let n = usize::from(workload.teams);
    if run.stats.len() != n || run.logs.len() != n {
        return Err(format!(
            "{} stats and {} probe logs for {n} nodes",
            run.stats.len(),
            run.logs.len()
        ));
    }
    for (stats, log) in run.stats.iter().zip(&run.logs) {
        if stats.ticks != workload.ticks || log.host.len() as u64 != workload.ticks {
            return Err(format!(
                "node {}: {} ticks played, {} tick boundaries seen, {} expected",
                stats.node,
                stats.ticks,
                log.host.len(),
                workload.ticks
            ));
        }
    }
    let first: &[Block] = &run.stats[0].final_world;
    if let Some(other) = run.stats.iter().find(|s| s.final_world != first) {
        return Err(format!("node {} final world differs from node 0's", other.node));
    }
    Ok(())
}

/// A node's outcome as the output check compares it across repeats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Game score.
    pub score: i64,
    /// Object modifications.
    pub modifications: u64,
    /// Messages sent.
    pub msgs: u64,
    /// Bytes sent.
    pub bytes: u64,
    /// Execution time on the endpoint clock (µs).
    pub exec_us: u64,
}

/// Per-node fingerprints of a game.
pub fn fingerprints(stats: &[NodeStats]) -> Vec<Fingerprint> {
    stats
        .iter()
        .map(|s| Fingerprint {
            score: s.score,
            modifications: s.modifications,
            msgs: s.net.total_sent(),
            bytes: s.net.bytes_sent(),
            exec_us: s.exec_time.as_micros(),
        })
        .collect()
}
