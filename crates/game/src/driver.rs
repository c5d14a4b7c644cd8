//! Per-node game drivers: one per consistency protocol.
//!
//! The game logic itself ([`GameCore`]) is protocol-agnostic — it reads and
//! writes blocks through a [`BlockPort`]. Each driver wires that port to a
//! protocol: the lookahead family writes through the S-DSO runtime and
//! rendezvous after every iteration; entry consistency (and LRC) bracket
//! each iteration in a lockset; causal memory pushes every write.

use std::collections::{BTreeMap, BTreeSet};

use sdso_core::{
    DsoConfig, DsoError, DsoMetrics, EveryTick, ObjectId, Obs, SFunction, SdsoRuntime, SendMode,
};
use sdso_net::{Endpoint, NetMetricsSnapshot, NodeId, SimSpan};
use sdso_protocols::{
    CausalMemory, CausalMetrics, EcMetrics, EntryConsistency, LockMode, LockRequest, Lookahead,
    Lrc, LrcMetrics,
};

use crate::ai::{decide, Action};
use crate::block::{Block, FireRecord};
use crate::scenario::{Scenario, GOAL_POINTS};
use crate::world::{Direction, Pos};

/// The protocols the evaluation compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Broadcast lookahead: everyone, every tick.
    Bsync,
    /// Multicast lookahead on row/column alignment.
    Msync,
    /// Multicast lookahead on alignment and proximity.
    Msync2,
    /// Entry consistency (lock-based baseline).
    Entry,
    /// Lazy release consistency (Ext. D).
    Lrc,
    /// Causal memory (Ext. D).
    Causal,
    /// Multicast lookahead with region sharding: MSYNC2's interaction
    /// bound within a shared region group, a fixed aligned heartbeat
    /// across groups, and interest-routed diffs (the scaling extension;
    /// see [`crate::shard`]).
    Msync2Shard,
}

impl Protocol {
    /// The four protocols of the paper's evaluation, in its order.
    pub const PAPER: [Protocol; 4] =
        [Protocol::Entry, Protocol::Bsync, Protocol::Msync, Protocol::Msync2];

    /// All implemented protocols. `Msync2Shard` stays last: replay
    /// fixtures index into this array.
    pub const ALL: [Protocol; 7] = [
        Protocol::Entry,
        Protocol::Bsync,
        Protocol::Msync,
        Protocol::Msync2,
        Protocol::Lrc,
        Protocol::Causal,
        Protocol::Msync2Shard,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Bsync => "BSYNC",
            Protocol::Msync => "MSYNC",
            Protocol::Msync2 => "MSYNC2",
            Protocol::Entry => "EC",
            Protocol::Lrc => "LRC",
            Protocol::Causal => "CAUSAL",
            Protocol::Msync2Shard => "MSYNC2-SHARD",
        }
    }
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything one process reports after a run (the raw material for every
/// figure in the paper's evaluation).
#[derive(Debug, Clone, Default)]
pub struct NodeStats {
    /// This process's id.
    pub node: NodeId,
    /// Iterations performed.
    pub ticks: u64,
    /// Object modifications performed (Fig. 5's normaliser).
    pub modifications: u64,
    /// Game score.
    pub score: i64,
    /// Goal visits.
    pub goals: u64,
    /// Times this team's tank was destroyed.
    pub deaths: u64,
    /// Shots fired.
    pub shots: u64,
    /// Bonuses collected.
    pub bonuses: u64,
    /// Virtual (or wall) execution time of the whole run.
    pub exec_time: SimSpan,
    /// Modelled local compute time.
    pub compute_time: SimSpan,
    /// Transport counters (message/byte counts by class, blocked time).
    pub net: NetMetricsSnapshot,
    /// Transport counters up to the end of the last game tick, before the
    /// terminal measurement flush (the final barrier/settle that forces
    /// every replica to the globally newest versions so cross-replica
    /// oracles can compare worlds). This is the steady-state traffic a
    /// long-running deployment sustains — the basis for the sharding
    /// traffic gate, which must not be diluted by a flush that ships every
    /// suppressed diff once at shutdown.
    pub net_live: NetMetricsSnapshot,
    /// S-DSO runtime counters (exchange counts/times; zero under EC).
    pub dso: DsoMetrics,
    /// EC counters (lock waits/pulls; zero under the lookahead family).
    pub ec: EcMetrics,
    /// LRC counters (zero elsewhere).
    pub lrc: LrcMetrics,
    /// Causal-memory counters (zero elsewhere).
    pub causal: CausalMetrics,
    /// This process's final replica of the whole world (decoded blocks in
    /// row-major order) — the raw material for rendering and for
    /// cross-replica consistency oracles.
    pub final_world: Vec<Block>,
    /// Crash/restart cycles this process performed (crash runs only).
    pub recoveries: u64,
    /// WAL records replayed across all recoveries.
    pub wal_replayed: u64,
    /// Virtual time this process was absent from the group: from each
    /// crash instant to the completed rejoin (snapshot installed), summed
    /// over recoveries. The raw material for the recovery-time gate.
    pub recovery_time: SimSpan,
}

impl NodeStats {
    /// Execution time divided by modifications — the paper's Figure 5
    /// metric ("average execution time per process normalized by average
    /// number of object modifications").
    pub fn time_per_modification(&self) -> SimSpan {
        match self.exec_time.as_micros().checked_div(self.modifications) {
            None => SimSpan::ZERO,
            Some(per_mod) => SimSpan::from_micros(per_mod),
        }
    }
}

/// Read/write access to the shared world, as a specific protocol provides
/// it.
pub trait BlockPort {
    /// Reads the block at `pos`.
    ///
    /// # Errors
    ///
    /// Propagates store errors.
    fn read_block(&self, pos: Pos) -> Result<Block, DsoError>;

    /// Writes the block at `pos`.
    ///
    /// # Errors
    ///
    /// Propagates store, lock and transport errors.
    fn write_block(&mut self, pos: Pos, block: Block) -> Result<(), DsoError>;
}

/// One team's tank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TankState {
    /// Current (or respawn-pending) position.
    pub pos: Pos,
    /// Hit points left.
    pub hp: u8,
    /// Facing.
    pub facing: Direction,
    /// False while waiting to respawn (one-tick limbo after destruction or
    /// a goal visit).
    pub alive: bool,
}

/// The protocol-agnostic game state of one process.
#[derive(Debug)]
pub struct GameCore {
    scenario: Scenario,
    me: NodeId,
    /// Whether the lock-free lowest-ID-blocks arbitration is in force (the
    /// lookahead family and causal memory; lock-based protocols rely on
    /// their locks instead).
    arbitrate: bool,
    /// Whether a clobbered own-tank cell is a hard error. True only under
    /// the lookahead family, whose freshness guarantees make arbitration
    /// infallible — a clobber there means a protocol bug, not a race.
    strict: bool,
    /// The team's tank (the paper fixes team size to one).
    pub tank: TankState,
    /// Iterations performed so far.
    pub tick: u64,
    /// Accumulated score.
    pub score: i64,
    /// Goal visits.
    pub goals: u64,
    /// Deaths.
    pub deaths: u64,
    /// Shots fired.
    pub shots: u64,
    /// Bonuses collected.
    pub bonuses: u64,
    /// Object writes performed.
    pub modifications: u64,
    /// Highest fire-record tick processed per enemy team (deduplication).
    processed_fires: BTreeMap<NodeId, u64>,
    /// Navigation detour after scoring (disperses play; see
    /// [`Scenario::patrol_of`]).
    waypoint: Option<Pos>,
}

impl GameCore {
    /// A fresh game state with the tank on its spawn point, using lock-free
    /// contention arbitration (the lookahead default).
    pub fn new(scenario: Scenario, me: NodeId) -> Self {
        GameCore::with_arbitration(scenario, me, true)
    }

    /// A fresh game state with explicit control over the contention rule
    /// (lock-based drivers pass `false`).
    pub fn with_arbitration(scenario: Scenario, me: NodeId, arbitrate: bool) -> Self {
        Self::with_flags(scenario, me, arbitrate, arbitrate)
    }

    /// Full control: `arbitrate` enables the lowest-ID-blocks rule,
    /// `strict` makes an own-cell clobber a hard protocol error (lookahead
    /// only — causal memory arbitrates on possibly-stale data and must
    /// tolerate the resulting last-writer-wins outcome).
    pub fn with_flags(scenario: Scenario, me: NodeId, arbitrate: bool, strict: bool) -> Self {
        let tank = TankState {
            pos: scenario.start_of(me),
            hp: scenario.tank_hp,
            facing: Direction::North,
            alive: true,
        };
        // Start with a patrol leg: teams cross the map to staggered
        // interior points before converging on the goal, decorrelating
        // their arrival times the way run-until-goal games do.
        let waypoint = Some(scenario.patrol_of(me));
        GameCore {
            scenario,
            me,
            arbitrate,
            strict,
            tank,
            tick: 0,
            score: 0,
            goals: 0,
            deaths: 0,
            shots: 0,
            bonuses: 0,
            modifications: 0,
            processed_fires: BTreeMap::new(),
            waypoint,
        }
    }

    /// Whether the next tick begins with a respawn write (EC includes the
    /// spawn cell in its lockset then — it is the tank's own cell).
    pub fn respawn_pending(&self) -> bool {
        !self.tank.alive
    }

    /// Serialises the dynamic game state — everything
    /// [`GameCore::with_flags`] cannot reconstruct from its arguments —
    /// for the crash-recovery WAL (`DurRecord::App`, tag 0).
    /// Fixed-width little-endian fields behind a leading version byte;
    /// the format is private to this crate.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(72 + 10 * self.processed_fires.len());
        out.push(1); // version
        out.extend_from_slice(&self.tank.pos.x.to_le_bytes());
        out.extend_from_slice(&self.tank.pos.y.to_le_bytes());
        out.push(self.tank.hp);
        out.push(self.tank.facing.index());
        out.push(u8::from(self.tank.alive));
        for word in
            [self.tick, self.goals, self.deaths, self.shots, self.bonuses, self.modifications]
        {
            out.extend_from_slice(&word.to_le_bytes());
        }
        out.extend_from_slice(&self.score.to_le_bytes());
        match self.waypoint {
            Some(p) => {
                out.push(1);
                out.extend_from_slice(&p.x.to_le_bytes());
                out.extend_from_slice(&p.y.to_le_bytes());
            }
            None => out.extend_from_slice(&[0; 5]),
        }
        out.extend_from_slice(&(self.processed_fires.len() as u16).to_le_bytes());
        for (&team, &tick) in &self.processed_fires {
            out.extend_from_slice(&team.to_le_bytes());
            out.extend_from_slice(&tick.to_le_bytes());
        }
        out
    }

    /// Rebuilds a core from [`GameCore::encode`] bytes over the
    /// constructor arguments a restarted process still knows (they are
    /// deterministic, so recovery does not persist them). Returns `None`
    /// on a foreign version or a truncated payload.
    pub fn decode(
        scenario: Scenario,
        me: NodeId,
        arbitrate: bool,
        strict: bool,
        bytes: &[u8],
    ) -> Option<Self> {
        let mut cur = StateCursor { bytes, pos: 0 };
        if cur.u8()? != 1 {
            return None;
        }
        let pos = Pos::new(cur.u16()?, cur.u16()?);
        let hp = cur.u8()?;
        let facing = Direction::from_index(cur.u8()?)?;
        let alive = cur.u8()? != 0;
        let [tick, goals, deaths, shots, bonuses, modifications] =
            [cur.u64()?, cur.u64()?, cur.u64()?, cur.u64()?, cur.u64()?, cur.u64()?];
        let score = i64::from_le_bytes(cur.take::<8>()?);
        let waypoint = match cur.u8()? {
            0 => {
                cur.take::<4>()?;
                None
            }
            _ => Some(Pos::new(cur.u16()?, cur.u16()?)),
        };
        let fires = cur.u16()?;
        let mut processed_fires = BTreeMap::new();
        for _ in 0..fires {
            let team = cur.u16()?;
            processed_fires.insert(team, cur.u64()?);
        }
        let mut core = GameCore::with_flags(scenario, me, arbitrate, strict);
        core.tank = TankState { pos, hp, facing, alive };
        core.tick = tick;
        core.score = score;
        core.goals = goals;
        core.deaths = deaths;
        core.shots = shots;
        core.bonuses = bonuses;
        core.modifications = modifications;
        core.processed_fires = processed_fires;
        core.waypoint = waypoint;
        Some(core)
    }

    fn write(&mut self, port: &mut impl BlockPort, pos: Pos, block: Block) -> Result<(), DsoError> {
        port.write_block(pos, block)?;
        self.modifications += 1;
        Ok(())
    }

    fn my_tank_block(&self, fired: Option<FireRecord>) -> Block {
        Block::Tank { team: self.me, tank: 0, hp: self.tank.hp, facing: self.tank.facing, fired }
    }

    /// Runs one game iteration: respawn if pending, absorb incoming fire,
    /// decide, act. Returns the number of object modifications made.
    ///
    /// # Errors
    ///
    /// Propagates port errors.
    pub fn run_tick(&mut self, port: &mut impl BlockPort) -> Result<u64, DsoError> {
        let mods_before = self.modifications;
        self.tick += 1;

        if !self.tank.alive {
            // One-tick limbo is over: materialise on the spawn point and
            // stop — the tank may only start acting once every process that
            // could contend with it has seen it at the spawn (this tick's
            // rendezvous delivers the write). Acting in the materialise
            // tick would let an invisible tank race an unaware neighbour
            // into the same block, bypassing the lowest-ID arbitration.
            self.tank.pos = self.scenario.start_of(self.me);
            self.tank.hp = self.scenario.tank_hp;
            self.tank.alive = true;
            let block = self.my_tank_block(None);
            self.write(port, self.tank.pos, block)?;
            return Ok(self.modifications - mods_before);
        }

        self.absorb_damage(port)?;
        if self.tank.alive && self.strict {
            // Freshness oracle: under the lookahead family nobody may ever
            // have driven onto this tank's block — the s-functions force
            // per-tick exchanges within contention distance and the
            // lowest-ID rule then picks a unique winner. A clobbered cell
            // here means those guarantees broke; fail loudly.
            let here = port.read_block(self.tank.pos)?;
            match here {
                Block::Tank { team, .. } if team == self.me => {}
                other => {
                    return Err(DsoError::ProtocolViolation(format!(
                        "process {}: own tank block at {:?} clobbered by {:?} —                          spatial consistency violated",
                        self.me, self.tank.pos, other
                    )));
                }
            }
        }
        if self.tank.alive {
            if self.waypoint.is_some_and(|w| self.tank.pos.manhattan(w) <= 2) {
                self.waypoint = None;
            }
            let target = self.waypoint.unwrap_or_else(|| self.scenario.goal());
            let view = |pos: Pos| port.read_block(pos).unwrap_or(Block::Empty);
            let action =
                decide(&self.scenario, &view, self.me, self.tank.pos, target, self.arbitrate);
            self.apply(action, port)?;
        }
        Ok(self.modifications - mods_before)
    }

    /// The team's final act before leaving the group: clear its tank off
    /// the board so the view-change barrier propagates the departure to
    /// every remaining process. Counts as this process's trigger-tick
    /// iteration. Returns the number of object modifications made.
    ///
    /// # Errors
    ///
    /// Propagates port errors.
    pub fn retire(&mut self, port: &mut impl BlockPort) -> Result<u64, DsoError> {
        let mods_before = self.modifications;
        self.tick += 1;
        if self.tank.alive {
            self.write(port, self.tank.pos, Block::Empty)?;
            self.tank.alive = false;
        }
        Ok(self.modifications - mods_before)
    }

    /// Victim-side damage: scan for enemy fire records targeting this
    /// tank's position. Records carry the shooter's iteration count; only
    /// records newer than the last processed one (per shooter) and at most
    /// two ticks old count — one tick of rendezvous delay plus one more for
    /// lock-based protocols, whose pulls deliver records an iteration later
    /// than the lookahead family's pushes.
    fn absorb_damage(&mut self, port: &mut impl BlockPort) -> Result<(), DsoError> {
        let grid = self.scenario.grid;
        let mut hits = 0u8;
        // A relevant shooter fired from within fire range of the targeted
        // cell and has moved at most two cells since (the freshness window),
        // so scanning the surrounding box is equivalent to scanning the
        // whole grid at a fraction of the cost.
        let radius = i32::from(self.scenario.fire_range) + 3;
        let (cx, cy) = (i32::from(self.tank.pos.x), i32::from(self.tank.pos.y));
        let xs =
            (cx - radius).max(0) as u16..=((cx + radius).min(i32::from(grid.width) - 1)) as u16;
        for pos in xs.flat_map(|x| {
            let ys = (cy - radius).max(0) as u16
                ..=((cy + radius).min(i32::from(grid.height) - 1)) as u16;
            ys.map(move |y| Pos::new(x, y))
        }) {
            let Block::Tank { team, fired: Some(record), .. } = port.read_block(pos)? else {
                continue;
            };
            if team == self.me || record.target != self.tank.pos {
                continue;
            }
            let last = self.processed_fires.get(&team).copied().unwrap_or(0);
            if record.tick <= last || record.tick + 1 < self.tick.saturating_sub(1) {
                continue;
            }
            self.processed_fires.insert(team, record.tick);
            hits += 1;
        }
        for _ in 0..hits {
            if self.tank.hp > 1 {
                self.tank.hp -= 1;
                // Re-publish the tank with its reduced hp.
                let block = self.my_tank_block(None);
                self.write(port, self.tank.pos, block)?;
            } else {
                self.die(port)?;
                break;
            }
        }
        Ok(())
    }

    /// Removes the tank from the board; it respawns at the next tick.
    fn die(&mut self, port: &mut impl BlockPort) -> Result<(), DsoError> {
        self.write(port, self.tank.pos, Block::Empty)?;
        self.deaths += 1;
        self.tank.alive = false;
        self.tank.pos = self.scenario.start_of(self.me);
        Ok(())
    }

    fn apply(&mut self, action: Action, port: &mut impl BlockPort) -> Result<(), DsoError> {
        match action {
            Action::Hold => Ok(()),
            Action::Fire { target, dir } => {
                self.tank.facing = dir;
                self.shots += 1;
                let record = FireRecord { target, tick: self.tick };
                let block = self.my_tank_block(Some(record));
                self.write(port, self.tank.pos, block)
            }
            Action::Move { to, dir } => {
                self.tank.facing = dir;
                match port.read_block(to)? {
                    Block::Bonus { points } => {
                        self.score += i64::from(points);
                        self.bonuses += 1;
                        self.complete_move(port, to)
                    }
                    Block::Bomb => {
                        // Drive onto the bomb: both vanish; respawn next
                        // tick.
                        self.write(port, to, Block::Empty)?;
                        self.die(port)
                    }
                    Block::Goal => {
                        self.score += GOAL_POINTS;
                        self.goals += 1;
                        self.waypoint = Some(self.scenario.patrol_of(self.me));
                        // Score and teleport home (the goal block itself is
                        // never overwritten).
                        self.write(port, self.tank.pos, Block::Empty)?;
                        self.tank.alive = false;
                        self.tank.pos = self.scenario.start_of(self.me);
                        Ok(())
                    }
                    Block::Empty => self.complete_move(port, to),
                    // The AI never targets these; replicas may race a tick
                    // behind, in which case holding is the safe outcome.
                    Block::Obstacle | Block::Tank { .. } => Ok(()),
                }
            }
        }
    }

    fn complete_move(&mut self, port: &mut impl BlockPort, to: Pos) -> Result<(), DsoError> {
        self.write(port, self.tank.pos, Block::Empty)?;
        self.tank.pos = to;
        let block = self.my_tank_block(None);
        self.write(port, to, block)
    }
}

/// Bounds-checked little-endian reader for [`GameCore::decode`].
struct StateCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl StateCursor<'_> {
    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let slice = self.bytes.get(self.pos..self.pos + N)?;
        self.pos += N;
        slice.try_into().ok()
    }
    fn u8(&mut self) -> Option<u8> {
        self.take::<1>().map(|b| b[0])
    }
    fn u16(&mut self) -> Option<u16> {
        self.take::<2>().map(u16::from_le_bytes)
    }
    fn u64(&mut self) -> Option<u64> {
        self.take::<8>().map(u64::from_le_bytes)
    }
}

// ---------------------------------------------------------------------
// Ports
// ---------------------------------------------------------------------

/// Port over the S-DSO runtime (lookahead family and causal pushes go
/// through protocol-specific wrappers below).
pub(crate) struct RuntimePort<'a, E: Endpoint> {
    pub(crate) runtime: &'a mut SdsoRuntime<E>,
    pub(crate) scenario: &'a Scenario,
}

impl<E: Endpoint> BlockPort for RuntimePort<'_, E> {
    fn read_block(&self, pos: Pos) -> Result<Block, DsoError> {
        let bytes = self.runtime.read(self.scenario.grid.object_at(pos))?;
        Block::decode(bytes)
            .ok_or_else(|| DsoError::ProtocolViolation(format!("corrupt block at {pos:?}")))
    }
    fn write_block(&mut self, pos: Pos, block: Block) -> Result<(), DsoError> {
        let object = self.scenario.grid.object_at(pos);
        self.runtime.write(object, 0, &block.encode(self.scenario.block_bytes))
    }
}

/// Port over entry consistency: writes go through the lock layer and the
/// modified set is recorded for the release.
pub(crate) struct EcPort<'a, E: Endpoint> {
    pub(crate) ec: &'a mut EntryConsistency<E>,
    pub(crate) scenario: &'a Scenario,
    pub(crate) modified: &'a mut BTreeSet<ObjectId>,
}

impl<E: Endpoint> BlockPort for EcPort<'_, E> {
    fn read_block(&self, pos: Pos) -> Result<Block, DsoError> {
        let bytes = self.ec.read(self.scenario.grid.object_at(pos))?;
        Block::decode(bytes)
            .ok_or_else(|| DsoError::ProtocolViolation(format!("corrupt block at {pos:?}")))
    }
    fn write_block(&mut self, pos: Pos, block: Block) -> Result<(), DsoError> {
        let object = self.scenario.grid.object_at(pos);
        self.ec.write(object, 0, &block.encode(self.scenario.block_bytes))?;
        self.modified.insert(object);
        Ok(())
    }
}

/// Port over LRC: writes enter the open interval.
struct LrcPort<'a, E: Endpoint> {
    lrc: &'a mut Lrc<E>,
    scenario: &'a Scenario,
}

impl<E: Endpoint> BlockPort for LrcPort<'_, E> {
    fn read_block(&self, pos: Pos) -> Result<Block, DsoError> {
        let bytes = self.lrc.read(self.scenario.grid.object_at(pos))?;
        Block::decode(bytes)
            .ok_or_else(|| DsoError::ProtocolViolation(format!("corrupt block at {pos:?}")))
    }
    fn write_block(&mut self, pos: Pos, block: Block) -> Result<(), DsoError> {
        let object = self.scenario.grid.object_at(pos);
        self.lrc.write(object, 0, &block.encode(self.scenario.block_bytes))
    }
}

/// Port over causal memory: every write is pushed to all processes.
struct CausalPort<'a, E: Endpoint> {
    causal: &'a mut CausalMemory<E>,
    scenario: &'a Scenario,
}

impl<E: Endpoint> BlockPort for CausalPort<'_, E> {
    fn read_block(&self, pos: Pos) -> Result<Block, DsoError> {
        let bytes = self.causal.read(self.scenario.grid.object_at(pos))?;
        Block::decode(bytes)
            .ok_or_else(|| DsoError::ProtocolViolation(format!("corrupt block at {pos:?}")))
    }
    fn write_block(&mut self, pos: Pos, block: Block) -> Result<(), DsoError> {
        let object = self.scenario.grid.object_at(pos);
        self.causal.write(object, 0, &block.encode(self.scenario.block_bytes))
    }
}

// ---------------------------------------------------------------------
// Runners
// ---------------------------------------------------------------------

/// Builds a game runtime holding the deterministic initial world, minus the
/// tanks of teams for which `starts_empty` holds: churn and crash runs
/// leave the spawn cells of teams that are not initial members clear
/// until they join. Every process (joiners included) shares the identical
/// initial bodies, so a snapshot only ever carries objects modified since
/// the start.
pub(crate) fn build_runtime<E: Endpoint>(
    endpoint: E,
    scenario: &Scenario,
    starts_empty: impl Fn(NodeId) -> bool,
    obs: Obs,
) -> Result<SdsoRuntime<E>, DsoError> {
    let config = DsoConfig {
        frame_wire_len: scenario.frame_wire_len,
        merge_diffs: scenario.merge_diffs,
        reliability: scenario.reliability,
        wire: scenario.wire,
        batch_frames: true,
        ..DsoConfig::paper()
    };
    let mut rt = SdsoRuntime::with_obs(endpoint, config, obs);
    let mut world = scenario.initial_world();
    for team in (0..scenario.teams).filter(|&team| starts_empty(team)) {
        world[scenario.grid.object_at(scenario.start_of(team)).0 as usize] = Block::Empty;
    }
    for (idx, block) in world.iter().enumerate() {
        rt.share(ObjectId(idx as u32), block.encode(scenario.block_bytes))?;
    }
    Ok(rt)
}

/// Decodes a runtime's final replica of the whole grid.
pub(crate) fn snapshot_world<E: Endpoint>(rt: &SdsoRuntime<E>, scenario: &Scenario) -> Vec<Block> {
    scenario
        .grid
        .iter()
        .map(|pos| {
            rt.read(scenario.grid.object_at(pos))
                .ok()
                .and_then(Block::decode)
                .unwrap_or(Block::Empty)
        })
        .collect()
}

/// Per-tick modelled compute: the look phase plus the decision.
pub(crate) fn think_cost(scenario: &Scenario) -> SimSpan {
    let blocks_looked = 4 * u64::from(scenario.range);
    SimSpan::from_micros(scenario.look_cost.as_micros() * blocks_looked) + scenario.decide_cost
}

pub(crate) fn write_cost(scenario: &Scenario, mods: u64) -> SimSpan {
    SimSpan::from_micros(scenario.write_cost.as_micros() * mods)
}

/// Runs one process of the game under the given protocol to completion
/// (`scenario.ticks` iterations) and reports its statistics.
///
/// This is the entry point the evaluation harness calls once per simulated
/// (or real) node.
///
/// # Errors
///
/// Propagates transport, store and protocol errors.
pub fn run_node<E: Endpoint>(
    endpoint: E,
    scenario: &Scenario,
    protocol: Protocol,
) -> Result<NodeStats, DsoError> {
    run_node_obs(endpoint, scenario, protocol, Obs::disabled())
}

/// Like [`run_node`], but records into the given observability bundle:
/// flight-recorder events (exchanges, rendezvous waits, locks, faults)
/// land in `obs`'s recorder and every counter in its registry. The
/// harness constructs one bundle per node up front (an
/// [`sdso_core::ObsSet`]) so it can export a cluster-wide trace after
/// the run.
///
/// # Errors
///
/// Propagates transport, store and protocol errors.
pub fn run_node_obs<E: Endpoint>(
    endpoint: E,
    scenario: &Scenario,
    protocol: Protocol,
    obs: Obs,
) -> Result<NodeStats, DsoError> {
    assert_eq!(
        scenario.team_size, 1,
        "multi-tank teams are not implemented (the paper fixes team size to one)"
    );
    match protocol {
        Protocol::Bsync => run_lookahead(endpoint, scenario, EveryTick, None, obs),
        Protocol::Msync => {
            let me = endpoint.node_id();
            let sfunc = crate::sfuncs::Msync::new(me, scenario.clone());
            run_lookahead(endpoint, scenario, sfunc, None, obs)
        }
        Protocol::Msync2 => {
            let me = endpoint.node_id();
            let sfunc = crate::sfuncs::Msync2::new(me, scenario.clone());
            run_lookahead(endpoint, scenario, sfunc, None, obs)
        }
        Protocol::Msync2Shard => {
            let me = endpoint.node_id();
            let sfunc = crate::shard::ShardMsync2::new(me, scenario.clone());
            let router = Box::new(crate::shard::ShardRouter::new(scenario.clone(), me));
            run_lookahead(endpoint, scenario, sfunc, Some(router), obs)
        }
        Protocol::Entry => run_entry(endpoint, scenario, obs),
        Protocol::Lrc => run_lrc(endpoint, scenario, obs),
        Protocol::Causal => run_causal(endpoint, scenario, obs),
    }
}

fn run_lookahead<E: Endpoint, S: SFunction>(
    endpoint: E,
    scenario: &Scenario,
    sfunc: S,
    router: Option<Box<dyn sdso_core::DiffRouter>>,
    obs: Obs,
) -> Result<NodeStats, DsoError> {
    let me = endpoint.node_id();
    let mut rt = build_runtime(endpoint, scenario, |_| false, obs)?;
    rt.set_diff_router(router);
    let mut node = Lookahead::new(rt, sfunc)?;
    let mut core = GameCore::new(scenario.clone(), me);
    let mut compute = SimSpan::ZERO;

    for _ in 0..scenario.ticks {
        let think = think_cost(scenario);
        node.runtime_mut().advance(think);
        compute += think;

        let mods = {
            let mut port = RuntimePort { runtime: node.runtime_mut(), scenario };
            core.run_tick(&mut port)?
        };
        let wc = write_cost(scenario, mods);
        node.runtime_mut().advance(wc);
        compute += wc;

        node.step()?;
    }

    let mut rt = node.into_runtime();
    // Deltas, not lifetime-cumulative: stats must cover this run only even
    // when the endpoint outlives it (TCP meshes, repeated runs).
    let net_live = rt.net_metrics_delta();
    // Terminal full synchronisation: one broadcast rendezvous flushes every
    // buffered slot (MSYNC-family slots for non-due peers would otherwise
    // stay pending forever), then the reliability layer — when on —
    // retransmits until the tail is acknowledged. After this, every replica
    // holds the globally newest version of every object.
    rt.exchange(true, SendMode::Broadcast, &mut sdso_core::Never)?;
    rt.settle()?;
    Ok(NodeStats {
        node: me,
        ticks: core.tick,
        modifications: core.modifications,
        score: core.score,
        goals: core.goals,
        deaths: core.deaths,
        shots: core.shots,
        bonuses: core.bonuses,
        exec_time: rt.now().saturating_since(sdso_net::SimInstant::ZERO),
        compute_time: compute,
        net: net_live.merged(&rt.net_metrics_delta()),
        net_live,
        dso: rt.metrics(),
        final_world: snapshot_world(&rt, scenario),
        ..NodeStats::default()
    })
}

/// The paper's EC lockset: write locks on the tank's own block and the four
/// adjacent blocks (anywhere it might move), read locks on the remaining
/// aligned blocks within sensing range — 5 locks at range 1, 13 (5 write)
/// at range 3, fewer at the grid edge.
pub fn ec_lockset(scenario: &Scenario, pos: Pos) -> Vec<LockRequest> {
    let grid = scenario.grid;
    let mut locks = vec![LockRequest::write(grid.object_at(pos))];
    for dir in Direction::ALL {
        let mut cursor = pos;
        for step in 1..=scenario.range {
            let Some(next) = cursor.step(dir, grid) else {
                break;
            };
            cursor = next;
            let mode = if step == 1 { LockMode::Write } else { LockMode::Read };
            locks.push(LockRequest { object: grid.object_at(cursor), mode });
        }
    }
    locks
}

fn run_entry<E: Endpoint>(
    endpoint: E,
    scenario: &Scenario,
    obs: Obs,
) -> Result<NodeStats, DsoError> {
    let me = endpoint.node_id();
    let rt = build_runtime(endpoint, scenario, |_| false, obs)?;
    let mut ec = EntryConsistency::new(rt);
    let mut core = GameCore::with_arbitration(scenario.clone(), me, false);
    let mut compute = SimSpan::ZERO;

    for _ in 0..scenario.ticks {
        ec.service_pending()?;
        let think = think_cost(scenario);
        ec.runtime_mut().advance(think);
        compute += think;

        let lockset = ec_lockset(scenario, core.tank.pos);
        ec.acquire(&lockset)?;

        let mut modified = BTreeSet::new();
        let mods = {
            let mut port = EcPort { ec: &mut ec, scenario, modified: &mut modified };
            core.run_tick(&mut port)?
        };
        let wc = write_cost(scenario, mods);
        ec.runtime_mut().advance(wc);
        compute += wc;

        ec.release_all(&modified)?;
    }
    let net_live = ec.runtime_mut().net_metrics_delta();
    ec.finish()?;
    // Pull-based EC leaves replicas stale wherever this process never
    // locked; the final-sync barrier disseminates every object's newest
    // version so snapshots agree across processes. The settle pass then
    // keeps retransmitting (and acknowledging) until the tail of the
    // barrier itself is delivered — without it, a process whose last
    // SyncDone was dropped would exit and leave its peers starving.
    ec.final_sync()?;
    ec.runtime_mut().settle()?;

    Ok(NodeStats {
        node: me,
        ticks: core.tick,
        modifications: core.modifications,
        score: core.score,
        goals: core.goals,
        deaths: core.deaths,
        shots: core.shots,
        bonuses: core.bonuses,
        exec_time: ec.runtime().now().saturating_since(sdso_net::SimInstant::ZERO),
        compute_time: compute,
        net: net_live.merged(&ec.runtime_mut().net_metrics_delta()),
        net_live,
        dso: ec.runtime().metrics(),
        ec: ec.metrics(),
        final_world: snapshot_world(ec.runtime(), scenario),
        ..NodeStats::default()
    })
}

fn run_lrc<E: Endpoint>(endpoint: E, scenario: &Scenario, obs: Obs) -> Result<NodeStats, DsoError> {
    let me = endpoint.node_id();
    let rt = build_runtime(endpoint, scenario, |_| false, obs)?;
    let mut lrc = Lrc::new(rt);
    let mut core = GameCore::with_arbitration(scenario.clone(), me, false);
    let mut compute = SimSpan::ZERO;

    for _ in 0..scenario.ticks {
        lrc.service_pending()?;
        let think = think_cost(scenario);
        lrc.runtime_mut().advance(think);
        compute += think;

        // LRC locks are plain synchronisation variables; the game uses one
        // lock per block it would write-lock under EC, acquired in order.
        let mut locks: Vec<u32> = ec_lockset(scenario, core.tank.pos)
            .into_iter()
            .filter(|l| l.mode == LockMode::Write)
            .map(|l| l.object.0)
            .collect();
        locks.sort_unstable();
        for &lock in &locks {
            lrc.acquire(lock)?;
        }

        let mods = {
            let mut port = LrcPort { lrc: &mut lrc, scenario };
            core.run_tick(&mut port)?
        };
        let wc = write_cost(scenario, mods);
        lrc.runtime_mut().advance(wc);
        compute += wc;

        for &lock in locks.iter().rev() {
            lrc.release(lock)?;
        }
    }
    let net_live = lrc.runtime_mut().net_metrics_delta();
    lrc.finish()?;

    Ok(NodeStats {
        node: me,
        ticks: core.tick,
        modifications: core.modifications,
        score: core.score,
        goals: core.goals,
        deaths: core.deaths,
        shots: core.shots,
        bonuses: core.bonuses,
        exec_time: lrc.runtime().now().saturating_since(sdso_net::SimInstant::ZERO),
        compute_time: compute,
        net: net_live.merged(&lrc.runtime_mut().net_metrics_delta()),
        net_live,
        lrc: lrc.metrics(),
        final_world: snapshot_world(lrc.runtime(), scenario),
        ..NodeStats::default()
    })
}

fn run_causal<E: Endpoint>(
    endpoint: E,
    scenario: &Scenario,
    obs: Obs,
) -> Result<NodeStats, DsoError> {
    let me = endpoint.node_id();
    let rt = build_runtime(endpoint, scenario, |_| false, obs)?;
    let mut causal = CausalMemory::new(rt);
    // Causal memory arbitrates on possibly-stale views: races resolve by
    // last-writer-wins, so clobbers are tolerated rather than fatal.
    let mut core = GameCore::with_flags(scenario.clone(), me, true, false);
    let mut compute = SimSpan::ZERO;

    for _ in 0..scenario.ticks {
        causal.deliver_pending()?;
        let think = think_cost(scenario);
        causal.runtime_mut().advance(think);
        compute += think;

        let mods = {
            let mut port = CausalPort { causal: &mut causal, scenario };
            core.run_tick(&mut port)?
        };
        let wc = write_cost(scenario, mods);
        causal.runtime_mut().advance(wc);
        compute += wc;
    }
    // Push-based and non-blocking: no termination handshake needed, so
    // live and total counters coincide.
    let net = causal.runtime_mut().net_metrics_delta();

    Ok(NodeStats {
        node: me,
        ticks: core.tick,
        modifications: core.modifications,
        score: core.score,
        goals: core.goals,
        deaths: core.deaths,
        shots: core.shots,
        bonuses: core.bonuses,
        exec_time: causal.runtime().now().saturating_since(sdso_net::SimInstant::ZERO),
        compute_time: compute,
        net,
        net_live: net,
        causal: causal.metrics(),
        final_world: snapshot_world(causal.runtime(), scenario),
        ..NodeStats::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap as Map;

    /// An in-memory port for exercising GameCore in isolation.
    #[derive(Debug, Default)]
    struct LocalPort {
        blocks: Map<Pos, Block>,
    }

    impl LocalPort {
        fn from_world(scenario: &Scenario) -> Self {
            let mut blocks = Map::new();
            for (idx, block) in scenario.initial_world().into_iter().enumerate() {
                blocks.insert(scenario.grid.pos_of(ObjectId(idx as u32)), block);
            }
            LocalPort { blocks }
        }
    }

    impl BlockPort for LocalPort {
        fn read_block(&self, pos: Pos) -> Result<Block, DsoError> {
            Ok(self.blocks.get(&pos).copied().unwrap_or(Block::Empty))
        }
        fn write_block(&mut self, pos: Pos, block: Block) -> Result<(), DsoError> {
            self.blocks.insert(pos, block);
            Ok(())
        }
    }

    fn scenario() -> Scenario {
        Scenario::paper(2, 1).with_ticks(50)
    }

    #[test]
    fn tank_progresses_toward_goal() {
        let s = scenario();
        let mut port = LocalPort::from_world(&s);
        let mut core = GameCore::new(s.clone(), 0);
        let d0 = core.tank.pos.manhattan(s.goal());
        for _ in 0..10 {
            core.run_tick(&mut port).unwrap();
        }
        let d1 = core.tank.pos.manhattan(s.goal());
        assert!(d1 < d0, "tank should close in on the goal ({d0} -> {d1})");
        assert!(core.modifications > 0);
    }

    #[test]
    fn goal_visit_scores_and_respawns() {
        let s = scenario();
        let mut port = LocalPort::from_world(&s);
        let mut core = GameCore::new(s.clone(), 0);
        for _ in 0..200 {
            core.run_tick(&mut port).unwrap();
            if core.goals > 0 {
                break;
            }
        }
        assert!(core.goals >= 1, "tank should reach the goal in 200 ticks");
        assert!(core.score >= GOAL_POINTS);
        // The goal block itself is never destroyed.
        assert_eq!(port.read_block(s.goal()).unwrap(), Block::Goal);
    }

    #[test]
    fn respawn_takes_one_limbo_tick() {
        let s = scenario();
        let mut port = LocalPort::from_world(&s);
        let mut core = GameCore::new(s.clone(), 0);
        // Surround the spawn with a bomb on the tank's chosen path.
        // Simpler: force death directly.
        core.die(&mut port).unwrap();
        assert!(core.respawn_pending());
        assert_eq!(port.read_block(s.start_of(0)).unwrap(), Block::Empty);
        core.run_tick(&mut port).unwrap();
        assert!(core.tank.alive);
        assert!(matches!(
            port.read_block(core.tank.pos).unwrap(),
            Block::Tank { team: 0, .. } | Block::Empty
        ));
        assert_eq!(core.deaths, 1);
    }

    #[test]
    fn fire_record_damages_victim_once() {
        let s = scenario();
        let mut port = LocalPort::from_world(&s);
        let mut core = GameCore::new(s.clone(), 0);
        let my_pos = core.tank.pos;
        // An enemy within firing distance has fired at our cell on its
        // tick 1 (records from shooters beyond fire range + movement slack
        // are irrelevant by construction and excluded from the scan).
        let enemy_pos = Pos::new(my_pos.x + 1, my_pos.y + 1);
        port.write_block(
            enemy_pos,
            Block::Tank {
                team: 1,
                tank: 0,
                hp: 2,
                facing: Direction::North,
                fired: Some(FireRecord { target: my_pos, tick: 1 }),
            },
        )
        .unwrap();
        let hp_before = core.tank.hp;
        core.run_tick(&mut port).unwrap();
        assert_eq!(core.tank.hp, hp_before - 1, "one hit absorbed");
        // The same record must not damage again.
        let hp_after = core.tank.hp;
        // Tank moved; put the record's target where the tank now is? No —
        // the record is stale (same shooter tick), so nothing happens.
        core.run_tick(&mut port).unwrap();
        assert_eq!(core.tank.hp, hp_after, "stale record ignored");
    }

    #[test]
    fn lethal_hit_kills_and_respawns() {
        let s = scenario();
        let mut port = LocalPort::from_world(&s);
        let mut core = GameCore::new(s.clone(), 0);
        core.tank.hp = 1;
        let my_pos = core.tank.pos;
        port.write_block(
            Pos::new(my_pos.x + 1, my_pos.y + 1),
            Block::Tank {
                team: 1,
                tank: 0,
                hp: 2,
                facing: Direction::North,
                fired: Some(FireRecord { target: my_pos, tick: 1 }),
            },
        )
        .unwrap();
        core.run_tick(&mut port).unwrap();
        assert_eq!(core.deaths, 1);
        assert!(core.respawn_pending());
    }

    #[test]
    fn ec_lockset_sizes_match_paper() {
        // Interior position, range 1: 5 locks, all write.
        let s1 = Scenario::paper(4, 1);
        let locks = ec_lockset(&s1, Pos::new(10, 10));
        assert_eq!(locks.len(), 5);
        assert!(locks.iter().all(|l| l.mode == LockMode::Write));
        // Interior position, range 3: 13 locks, 5 write.
        let s3 = Scenario::paper(4, 3);
        let locks = ec_lockset(&s3, Pos::new(10, 10));
        assert_eq!(locks.len(), 13);
        assert_eq!(locks.iter().filter(|l| l.mode == LockMode::Write).count(), 5);
        // Corner position: clipped.
        let locks = ec_lockset(&s3, Pos::new(0, 0));
        assert_eq!(locks.len(), 7);
    }

    #[test]
    fn bonus_pickup_adds_score() {
        let s = scenario();
        let mut port = LocalPort::from_world(&s);
        let mut core = GameCore::new(s.clone(), 0);
        // Plant a bonus straight on the tank's next step.
        let view = |pos: Pos| port.read_block(pos).unwrap_or(Block::Empty);
        let Action::Move { to, .. } = decide(&s, &view, 0, core.tank.pos, s.goal(), true) else {
            panic!("expected a move");
        };
        port.write_block(to, Block::Bonus { points: 10 }).unwrap();
        core.run_tick(&mut port).unwrap();
        assert_eq!(core.score, 10);
        assert_eq!(core.bonuses, 1);
        assert_eq!(core.tank.pos, to);
    }

    #[test]
    fn bomb_destroys_and_consumes() {
        let s = scenario();
        let mut port = LocalPort::from_world(&s);
        let mut core = GameCore::new(s.clone(), 0);
        let view = |pos: Pos| port.read_block(pos).unwrap_or(Block::Empty);
        let Action::Move { to, .. } = decide(&s, &view, 0, core.tank.pos, s.goal(), true) else {
            panic!("expected a move");
        };
        port.write_block(to, Block::Bomb).unwrap();
        core.run_tick(&mut port).unwrap();
        assert_eq!(core.deaths, 1);
        assert!(core.respawn_pending());
        assert_eq!(port.read_block(to).unwrap(), Block::Empty, "bomb consumed");
    }
}
