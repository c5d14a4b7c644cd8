//! The game's semantic functions: BSYNC, MSYNC and MSYNC2 attributes.
//!
//! * **BSYNC** reuses [`sdso_core::EveryTick`]: every process re-exchanges
//!   with every other after each modification — a purely *temporal*
//!   worst-case.
//! * **MSYNC** "computes the logical exchange times with each process by
//!   halving the distance between the nearest tanks in any two teams",
//!   assuming worst-case mutual approach, and treats "any enemy tank in the
//!   same row or column […] as potentially affecting a local tank's next
//!   operation" — so it exchanges every tick once row/column alignment is
//!   possible within a tick.
//! * **MSYNC2** "refines this assumption by only exchanging […] with those
//!   processes whose tanks could have moved into the same row or column as
//!   a local tank, and the distance to those enemy tanks is less than d
//!   blocks" — alignment *and* proximity.
//!
//! # Symmetry
//!
//! A rendezvous schedule only works if both endpoints compute identical
//! times (see [`sdso_core::SFunction`]'s contract). These s-functions
//! derive the pair's schedule exclusively from (a) the two teams' tank
//! positions as recorded in the exchanged blocks — identical on both sides
//! immediately after a rendezvous — and (b) the static spawn points. Spawn
//! points participate as *ghost positions*: a destroyed or goal-scoring
//! tank teleports to its spawn, which worst-case movement from its last
//! known position cannot predict, so the pair must bound the interaction
//! time over the spawn positions too.

use sdso_core::{LogicalTime, ObjectStore, Revision, SFunction};
use sdso_net::NodeId;

use crate::block::Block;
use crate::scenario::Scenario;
use crate::world::Pos;

/// Every team's tanks in a replica of the world, found in one pass over
/// the store.
#[derive(Debug, Clone, Default)]
pub(crate) struct TankScan {
    /// Indexed by team.
    teams: Vec<Tanks>,
}

/// One team's entry in a [`TankScan`].
#[derive(Debug, Clone, Default)]
struct Tanks {
    /// Cells holding the team's tank blocks, in object-id order.
    cells: Vec<Pos>,
    /// The latest-versioned of those cells with its stamp (the first in
    /// id order on a tie).
    latest: Option<(Pos, LogicalTime)>,
}

impl TankScan {
    /// Scans `store`, decoding every block once.
    pub(crate) fn of(store: &ObjectStore, scenario: &Scenario) -> Self {
        let grid = scenario.grid;
        let mut teams: Vec<Tanks> = Vec::new();
        for (id, replica) in store.iter() {
            let Some(Block::Tank { team, .. }) = Block::decode(replica.data()) else {
                continue;
            };
            let team = usize::from(team);
            if teams.len() <= team {
                teams.resize_with(team + 1, Tanks::default);
            }
            let tanks = &mut teams[team];
            let seen = (grid.pos_of(id), replica.version().time);
            tanks.cells.push(seen.0);
            if tanks.latest.is_none_or(|best| seen.1 > best.1) {
                tanks.latest = Some(seen);
            }
        }
        TankScan { teams }
    }

    /// Every team id up to the highest with a tank block, ascending.
    pub(crate) fn teams(&self) -> impl Iterator<Item = NodeId> {
        (0..self.teams.len()).map(|team| team as NodeId)
    }

    /// `team`'s tank cells in object-id order (phantoms included).
    pub(crate) fn cells(&self, team: NodeId) -> &[Pos] {
        self.teams.get(usize::from(team)).map_or(&[], |t| &t.cells)
    }

    /// `team`'s latest-versioned tank cell and its stamp, if it has any.
    pub(crate) fn latest(&self, team: NodeId) -> Option<(Pos, LogicalTime)> {
        self.teams.get(usize::from(team)).and_then(|t| t.latest)
    }
}

/// A [`TankScan`] memoised on the store's [`Revision`]: rescheduling every
/// due peer after a rendezvous costs one scan, not one (or two) per peer.
/// Equal revisions mean identical contents (the [`SFunction`] memo rule),
/// so the memo can never serve a scan of other contents.
#[derive(Debug, Clone, Default)]
pub(crate) struct ScanMemo {
    at: Option<Revision>,
    scan: TankScan,
}

impl ScanMemo {
    /// The scan of `view`, rebuilt only if `view` changed since the last
    /// call.
    pub(crate) fn scan(&mut self, view: &ObjectStore, scenario: &Scenario) -> &TankScan {
        let revision = view.revision();
        if self.at != Some(revision) {
            self.scan = TankScan::of(view, scenario);
            self.at = Some(revision);
        }
        &self.scan
    }
}

/// Extracts `team`'s tank positions from a replica of the world.
pub fn team_positions(store: &ObjectStore, scenario: &Scenario, team: NodeId) -> Vec<Pos> {
    TankScan::of(store, scenario).cells(team).to_vec()
}

/// The minimum of `bound` over every cross-team pair of candidate
/// positions. A team's candidates are its visible tanks plus its spawn
/// point (the ghost position respawns teleport to).
fn min_over_candidates(
    scan: &TankScan,
    scenario: &Scenario,
    a: NodeId,
    b: NodeId,
    bound: impl Fn(Pos, Pos) -> u64,
) -> u64 {
    let candidates = |team| scan.cells(team).iter().copied().chain([scenario.start_of(team)]);
    let mut best = u64::MAX;
    for m in candidates(a) {
        for t in candidates(b) {
            best = best.min(bound(m, t));
        }
    }
    best
}

/// Ticks until *any* cross-team tank pair could reach row/column alignment
/// (the MSYNC trigger), minimised over pairs and ghost positions.
fn ticks_to_any_alignment(scan: &TankScan, scenario: &Scenario, a: NodeId, b: NodeId) -> u64 {
    min_over_candidates(scan, scenario, a, b, |m, t| m.ticks_to_alignment(t))
}

/// Ticks until any cross-team pair could be aligned **and** within `d`
/// blocks (the MSYNC2 trigger).
fn ticks_to_any_interaction(
    scan: &TankScan,
    scenario: &Scenario,
    a: NodeId,
    b: NodeId,
    d: u32,
) -> u64 {
    min_over_candidates(scan, scenario, a, b, |m, t| {
        m.ticks_to_alignment(t).max(m.ticks_to_within(t, d))
    })
}

/// The MSYNC s-function.
#[derive(Debug, Clone)]
pub struct Msync {
    me: NodeId,
    scenario: Scenario,
    memo: ScanMemo,
}

impl Msync {
    /// Creates the s-function for process `me`.
    pub fn new(me: NodeId, scenario: Scenario) -> Self {
        Msync { me, scenario, memo: ScanMemo::default() }
    }
}

impl SFunction for Msync {
    fn next_exchange(
        &mut self,
        peer: NodeId,
        now: LogicalTime,
        view: &ObjectStore,
    ) -> Option<LogicalTime> {
        let scan = self.memo.scan(view, &self.scenario);
        let delta = ticks_to_any_alignment(scan, &self.scenario, self.me, peer);
        Some(now.plus(delta.max(1)))
    }
}

/// The MSYNC2 s-function.
#[derive(Debug, Clone)]
pub struct Msync2 {
    me: NodeId,
    scenario: Scenario,
    d: u32,
    memo: ScanMemo,
}

impl Msync2 {
    /// Creates the s-function for process `me`, with the scenario's
    /// relevance distance as `d`.
    pub fn new(me: NodeId, scenario: Scenario) -> Self {
        let d = scenario.relevance_distance();
        Msync2 { me, scenario, d, memo: ScanMemo::default() }
    }
}

impl SFunction for Msync2 {
    fn next_exchange(
        &mut self,
        peer: NodeId,
        now: LogicalTime,
        view: &ObjectStore,
    ) -> Option<LogicalTime> {
        let scan = self.memo.scan(view, &self.scenario);
        let delta = ticks_to_any_interaction(scan, &self.scenario, self.me, peer, self.d);
        Some(now.plus(delta.max(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a store holding a world with the given tank placements.
    fn store_with_tanks(scenario: &Scenario, tanks: &[(NodeId, Pos)]) -> ObjectStore {
        let mut store = ObjectStore::new();
        let grid = scenario.grid;
        for pos in grid.iter() {
            let block = tanks
                .iter()
                .find(|&&(_, p)| p == pos)
                .map(|&(team, _)| Block::Tank {
                    team,
                    tank: 0,
                    hp: 2,
                    facing: crate::world::Direction::North,
                    fired: None,
                })
                .unwrap_or(Block::Empty);
            store.share(grid.object_at(pos), block.encode(scenario.block_bytes)).unwrap();
        }
        store
    }

    fn scenario() -> Scenario {
        // Starts in the corners-ish; two teams.
        Scenario::paper(2, 1)
    }

    #[test]
    fn team_positions_finds_tanks() {
        let s = scenario();
        let store = store_with_tanks(&s, &[(0, Pos::new(3, 3)), (1, Pos::new(20, 10))]);
        assert_eq!(team_positions(&store, &s, 0), vec![Pos::new(3, 3)]);
        assert_eq!(team_positions(&store, &s, 1), vec![Pos::new(20, 10)]);
        assert!(team_positions(&store, &s, 5).is_empty());
    }

    #[test]
    fn msync_schedules_every_tick_when_aligned() {
        let s = scenario();
        // Same row — and make the spawn ghosts irrelevant by distance.
        let store = store_with_tanks(&s, &[(0, Pos::new(3, 10)), (1, Pos::new(25, 10))]);
        let mut f = Msync::new(0, s);
        let next = f.next_exchange(1, LogicalTime::from_ticks(5), &store).unwrap();
        assert_eq!(next, LogicalTime::from_ticks(6), "aligned → every tick");
    }

    #[test]
    fn msync_halves_the_axis_gap() {
        let s = scenario();
        // Rows differ by 8; columns far apart. Spawn ghosts may tighten the
        // bound, so compare against the full candidate-set computation.
        let store = store_with_tanks(&s, &[(0, Pos::new(3, 2)), (1, Pos::new(25, 10))]);
        let expected = ticks_to_any_alignment(&TankScan::of(&store, &s), &s, 0, 1).max(1);
        let mut f = Msync::new(0, s);
        let next = f.next_exchange(1, LogicalTime::from_ticks(0), &store).unwrap();
        assert_eq!(next.as_ticks(), expected);
        // The pure pair term (without ghosts) is ceil(8/2) = 4, and ghosts
        // can only shorten it.
        assert!(expected <= 4);
        assert!(expected >= 1);
    }

    #[test]
    fn msync2_waits_longer_than_msync() {
        let s = Scenario::paper(2, 1);
        // Aligned but far apart: MSYNC fires every tick, MSYNC2 waits for
        // proximity.
        let store = store_with_tanks(&s, &[(0, Pos::new(2, 12)), (1, Pos::new(28, 12))]);
        let now = LogicalTime::from_ticks(0);
        let m1 = Msync::new(0, s.clone()).next_exchange(1, now, &store).unwrap();
        let m2 = Msync2::new(0, s).next_exchange(1, now, &store).unwrap();
        assert!(m2 >= m1, "MSYNC2 ({m2}) must not exchange more often than MSYNC ({m1})");
        assert_eq!(m1.as_ticks(), 1, "aligned → MSYNC every tick");
        assert!(m2.as_ticks() > 1, "far apart → MSYNC2 waits: {m2}");
    }

    #[test]
    fn schedules_are_symmetric() {
        // The load-bearing property: both endpoints compute the same time.
        let s = Scenario::paper(2, 3);
        for (pa, pb) in [
            (Pos::new(3, 3), Pos::new(20, 15)),
            (Pos::new(10, 10), Pos::new(10, 20)),
            (Pos::new(1, 1), Pos::new(2, 2)),
            (Pos::new(31, 0), Pos::new(0, 23)),
        ] {
            let store = store_with_tanks(&s, &[(0, pa), (1, pb)]);
            let now = LogicalTime::from_ticks(9);
            let a = Msync::new(0, s.clone()).next_exchange(1, now, &store);
            let b = Msync::new(1, s.clone()).next_exchange(0, now, &store);
            assert_eq!(a, b, "MSYNC asymmetric for {pa:?}/{pb:?}");
            let a2 = Msync2::new(0, s.clone()).next_exchange(1, now, &store);
            let b2 = Msync2::new(1, s.clone()).next_exchange(0, now, &store);
            assert_eq!(a2, b2, "MSYNC2 asymmetric for {pa:?}/{pb:?}");
        }
    }

    #[test]
    fn spawn_ghosts_bound_the_schedule() {
        let s = Scenario::paper(2, 1);
        // Both tanks sit right next to team 1's spawn while team 0's tank
        // is far from team 1's tank? Construct: team 1's tank far away, but
        // team 0's tank adjacent to team 1's spawn — a respawn would put
        // them in contact instantly, so the schedule must stay tight.
        let spawn1 = s.start_of(1);
        let near_spawn = Pos::new(spawn1.x, spawn1.y.saturating_sub(2));
        let far = Pos::new(
            (spawn1.x + s.grid.width / 2) % s.grid.width,
            (spawn1.y + s.grid.height / 2) % s.grid.height,
        );
        let store = store_with_tanks(&s, &[(0, near_spawn), (1, far)]);
        let mut f = Msync2::new(0, s);
        let next = f.next_exchange(1, LogicalTime::from_ticks(0), &store).unwrap();
        assert!(next.as_ticks() <= 2, "spawn ghost must keep the schedule tight, got {next}");
    }
}
