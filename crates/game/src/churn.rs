//! Churn-aware node runners: the tank game under a [`MembershipPlan`].
//!
//! The static runners ([`crate::driver::run_node`]) assume the paper's
//! fixed process group. The runners here execute the same game loop while
//! players leave and join at planned trigger ticks, transitioning between
//! membership epochs through a view-change barrier.
//!
//! # The view-change barrier
//!
//! A change triggered at tick `T` proceeds in lock-step:
//!
//! 1. every old-view member runs its tick-`T` iteration — a leaver's
//!    iteration is [`GameCore::retire`], clearing its tank off the board;
//! 2. every old-view member performs one full barrier exchange: under the
//!    lookahead family a broadcast rendezvous
//!    ([`sdso_protocols::Lookahead::step_barrier`]), under EC a state-flush
//!    barrier ([`sdso_protocols::EntryConsistency::view_sync`]). All
//!    tick-`T` writes, including the leaver's tombstone, converge across
//!    the old view;
//! 3. leavers settle their reliability tails and exit with their stats —
//!    their pending per-peer diff slots are compacted by the view change,
//!    not leaked;
//! 4. continuers apply the view change (epoch bump; leavers pruned from
//!    exchange list, slotted buffer, reliability links and transport;
//!    joiners scheduled);
//! 5. the donor — the lowest continuing member — pushes one O(objects)
//!    state snapshot to each joiner;
//! 6. joiners install the snapshot (replica bodies plus the logical-clock
//!    frontier) and enter the loop at tick `T + 1`; their tank
//!    materialises on its spawn through the regular respawn path, so no
//!    peer can contend with it before seeing it.
//!
//! Epoch stamps keep the transition safe under skew: rendezvous traffic
//! from a peer that already crossed the barrier is buffered until this
//! process catches up, residue from a departed peer is acknowledged and
//! dropped, and EC lock traffic from beyond the barrier is deferred until
//! the lock state it must land on exists.
//!
//! Tick numbering is global: a joiner's [`GameCore`] starts at the trigger
//! tick, so cross-team fire-record freshness windows stay comparable and
//! [`NodeStats::ticks`] reports the global tick a process reached (a
//! leaver reports its trigger tick).

use std::collections::BTreeSet;

use sdso_core::{
    DsoError, EveryTick, MembershipPlan, Never, Obs, SFunction, SdsoRuntime, SendMode,
};
use sdso_net::{Endpoint, NodeId, SimSpan};
use sdso_protocols::{EntryConsistency, LockRequest, Lookahead};

use crate::driver::{
    build_runtime, ec_lockset, snapshot_world, think_cost, write_cost, EcPort, GameCore, NodeStats,
    Protocol, RuntimePort,
};
use crate::scenario::Scenario;

/// Runs one process of the game under `protocol` and the membership plan.
///
/// Every capacity slot runs this function (the transport is provisioned at
/// `plan.capacity()` endpoints): initial members play from tick 1; a
/// planned joiner blocks until its donor's snapshot arrives, then plays
/// from its join tick; a planned leaver exits at its trigger tick with the
/// stats it accumulated. Supported protocols are the paper's four
/// (BSYNC/MSYNC/MSYNC2/EC); LRC and causal memory have no membership
/// barrier and are rejected.
///
/// # Errors
///
/// Propagates transport, store and protocol errors, and rejects plans or
/// protocols the churn machinery does not cover.
///
/// # Panics
///
/// Panics if the plan's capacity differs from `scenario.teams` or a
/// trigger tick falls outside `1..scenario.ticks`.
pub fn run_churn_node<E: Endpoint>(
    endpoint: E,
    scenario: &Scenario,
    protocol: Protocol,
    plan: &MembershipPlan,
) -> Result<NodeStats, DsoError> {
    run_churn_node_obs(endpoint, scenario, protocol, plan, Obs::disabled())
}

/// Like [`run_churn_node`], but records into the given observability
/// bundle (view changes, snapshot transfers and peer events land in its
/// flight recorder alongside the usual exchange and lock events).
///
/// # Errors
///
/// Propagates transport, store and protocol errors, and rejects plans or
/// protocols the churn machinery does not cover.
///
/// # Panics
///
/// Panics if the plan's capacity differs from `scenario.teams` or a
/// trigger tick falls outside `1..scenario.ticks`.
pub fn run_churn_node_obs<E: Endpoint>(
    endpoint: E,
    scenario: &Scenario,
    protocol: Protocol,
    plan: &MembershipPlan,
    obs: Obs,
) -> Result<NodeStats, DsoError> {
    assert_eq!(
        plan.capacity(),
        usize::from(scenario.teams),
        "one team per membership capacity slot"
    );
    for &(t, _) in plan.changes() {
        assert!(
            t >= 1 && t < scenario.ticks,
            "view-change trigger {t} must fall inside the run (1..{})",
            scenario.ticks
        );
    }
    match protocol {
        Protocol::Bsync => run_churn_lookahead(endpoint, scenario, plan, EveryTick, None, obs),
        Protocol::Msync => {
            let me = endpoint.node_id();
            let sfunc = crate::sfuncs::Msync::new(me, scenario.clone());
            run_churn_lookahead(endpoint, scenario, plan, sfunc, None, obs)
        }
        Protocol::Msync2 => {
            let me = endpoint.node_id();
            let sfunc = crate::sfuncs::Msync2::new(me, scenario.clone());
            run_churn_lookahead(endpoint, scenario, plan, sfunc, None, obs)
        }
        Protocol::Msync2Shard => {
            let me = endpoint.node_id();
            let sfunc = crate::shard::ShardMsync2::new(me, scenario.clone());
            let router = Box::new(crate::shard::ShardRouter::new(scenario.clone(), me));
            run_churn_lookahead(endpoint, scenario, plan, sfunc, Some(router), obs)
        }
        Protocol::Entry => run_churn_entry(endpoint, scenario, plan, obs),
        Protocol::Lrc | Protocol::Causal => Err(DsoError::ProtocolViolation(format!(
            "{protocol} has no view-change barrier; churn runs cover the paper's four protocols"
        ))),
    }
}

/// Brings a runtime into the group: initial members install the plan's
/// initial view; joiners install the view of their join epoch and block
/// for the donor's snapshot. Returns the first game tick this process
/// executes.
fn enter<E: Endpoint>(
    rt: &mut SdsoRuntime<E>,
    plan: &MembershipPlan,
    me: NodeId,
) -> Result<u64, DsoError> {
    if plan.is_initial(me) {
        rt.set_membership(plan.view_at(0));
        return Ok(1);
    }
    let join = plan.join_tick_of(me).ok_or_else(|| {
        DsoError::ProtocolViolation(format!(
            "process {me} is neither an initial member nor a planned joiner"
        ))
    })?;
    let change = plan.change_at(join).expect("join tick carries its change");
    let view = plan.view_at(join);
    let donor = view.donor_for(change).ok_or_else(|| {
        DsoError::ProtocolViolation("view change admits joiners but leaves no donor".into())
    })?;
    rt.set_membership(view);
    rt.await_snapshot(donor)?;
    Ok(join + 1)
}

/// Starts the game state at `start_tick`: a late joiner begins in respawn
/// limbo (its tank materialises on the spawn at its first tick, the same
/// path a destroyed tank takes) with the global tick counter aligned.
fn align_core(core: &mut GameCore, start_tick: u64) {
    if start_tick > 1 {
        core.tick = start_tick - 1;
        core.tank.alive = false;
    }
}

fn run_churn_lookahead<E: Endpoint, S: SFunction>(
    endpoint: E,
    scenario: &Scenario,
    plan: &MembershipPlan,
    sfunc: S,
    router: Option<Box<dyn sdso_core::DiffRouter>>,
    obs: Obs,
) -> Result<NodeStats, DsoError> {
    let me = endpoint.node_id();
    let mut rt = build_runtime(endpoint, scenario, |team| !plan.is_initial(team), obs)?;
    rt.set_diff_router(router);
    let start_tick = enter(&mut rt, plan, me)?;
    let mut node = Lookahead::new(rt, sfunc)?;
    let mut core = GameCore::new(scenario.clone(), me);
    align_core(&mut core, start_tick);
    let leave_tick = plan.leave_tick_of(me);
    let mut compute = SimSpan::ZERO;

    for tick in start_tick..=scenario.ticks {
        let leaving = leave_tick == Some(tick);
        let think = think_cost(scenario);
        node.runtime_mut().advance(think);
        compute += think;

        let mods = {
            let mut port = RuntimePort { runtime: node.runtime_mut(), scenario };
            if leaving {
                core.retire(&mut port)?
            } else {
                core.run_tick(&mut port)?
            }
        };
        let wc = write_cost(scenario, mods);
        node.runtime_mut().advance(wc);
        compute += wc;

        let Some(change) = plan.change_at(tick) else {
            node.step()?;
            continue;
        };
        // The barrier replaces the tick's regular exchange, keeping one
        // logical tick per iteration.
        node.step_barrier()?;
        if leaving {
            let mut rt = node.into_runtime();
            let net_live = rt.net_metrics_delta();
            rt.settle()?;
            return Ok(lookahead_stats(&mut rt, &core, compute, scenario, net_live));
        }
        node.apply_view_change(change)?;
        if node.runtime().membership().donor_for(change) == Some(me) {
            for &joiner in &change.joined {
                node.runtime_mut().send_snapshot(joiner)?;
            }
        }
    }

    let mut rt = node.into_runtime();
    let net_live = rt.net_metrics_delta();
    // Terminal full synchronisation over the final view (see
    // `driver::run_lookahead`).
    rt.exchange(true, SendMode::Broadcast, &mut Never)?;
    rt.settle()?;
    Ok(lookahead_stats(&mut rt, &core, compute, scenario, net_live))
}

fn run_churn_entry<E: Endpoint>(
    endpoint: E,
    scenario: &Scenario,
    plan: &MembershipPlan,
    obs: Obs,
) -> Result<NodeStats, DsoError> {
    let me = endpoint.node_id();
    let mut rt = build_runtime(endpoint, scenario, |team| !plan.is_initial(team), obs)?;
    let start_tick = enter(&mut rt, plan, me)?;
    let mut ec = EntryConsistency::new(rt);
    let mut core = GameCore::with_arbitration(scenario.clone(), me, false);
    align_core(&mut core, start_tick);
    let leave_tick = plan.leave_tick_of(me);
    let mut compute = SimSpan::ZERO;

    for tick in start_tick..=scenario.ticks {
        let leaving = leave_tick == Some(tick);
        ec.service_pending()?;
        let think = think_cost(scenario);
        ec.runtime_mut().advance(think);
        compute += think;

        let mut modified = BTreeSet::new();
        let mods = if leaving {
            // The leaver's last iteration touches only its own cell.
            if core.tank.alive {
                let own = scenario.grid.object_at(core.tank.pos);
                ec.acquire(&[LockRequest::write(own)])?;
            }
            let mut port = EcPort { ec: &mut ec, scenario, modified: &mut modified };
            core.retire(&mut port)?
        } else {
            let lockset = ec_lockset(scenario, core.tank.pos);
            ec.acquire(&lockset)?;
            let mut port = EcPort { ec: &mut ec, scenario, modified: &mut modified };
            core.run_tick(&mut port)?
        };
        let wc = write_cost(scenario, mods);
        ec.runtime_mut().advance(wc);
        compute += wc;
        ec.release_all(&modified)?;

        let Some(change) = plan.change_at(tick) else { continue };
        // Flush barrier over the old view: all newest copies (including
        // the leaver's tombstone) disseminate before the epoch turns.
        ec.view_sync()?;
        if leaving {
            let net_live = ec.runtime_mut().net_metrics_delta();
            ec.runtime_mut().settle()?;
            return Ok(entry_stats(&mut ec, &core, compute, scenario, net_live));
        }
        ec.apply_view_change(change)?;
        if ec.runtime().membership().donor_for(change) == Some(me) {
            for &joiner in &change.joined {
                ec.runtime_mut().send_snapshot(joiner)?;
            }
        }
    }
    let net_live = ec.runtime_mut().net_metrics_delta();
    ec.finish()?;
    ec.final_sync()?;
    ec.runtime_mut().settle()?;
    Ok(entry_stats(&mut ec, &core, compute, scenario, net_live))
}

fn lookahead_stats<E: Endpoint>(
    rt: &mut SdsoRuntime<E>,
    core: &GameCore,
    compute: SimSpan,
    scenario: &Scenario,
    net_live: sdso_net::NetMetricsSnapshot,
) -> NodeStats {
    NodeStats {
        node: rt.node_id(),
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
        final_world: snapshot_world(rt, scenario),
        ..NodeStats::default()
    }
}

fn entry_stats<E: Endpoint>(
    ec: &mut EntryConsistency<E>,
    core: &GameCore,
    compute: SimSpan,
    scenario: &Scenario,
    net_live: sdso_net::NetMetricsSnapshot,
) -> NodeStats {
    NodeStats {
        node: ec.runtime().node_id(),
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use sdso_core::ViewChange;
    use sdso_net::memory::MemoryHub;

    /// 4 capacity slots, 3 initial members; node 1 leaves and node 3
    /// joins at the same barrier.
    fn plan() -> MembershipPlan {
        MembershipPlan::new(4, [0, 1, 2]).with_change(4, ViewChange::new([3], [1]))
    }

    fn run_all(protocol: Protocol) -> Vec<NodeStats> {
        let scenario = Scenario::paper(4, 1).with_ticks(10);
        let plan = plan();
        let mut handles = Vec::new();
        for ep in MemoryHub::new(4).into_endpoints() {
            let s = scenario.clone();
            let p = plan.clone();
            handles.push(std::thread::spawn(move || run_churn_node(ep, &s, protocol, &p)));
        }
        handles.into_iter().map(|h| h.join().unwrap().unwrap()).collect()
    }

    fn assert_churn_run(protocol: Protocol) {
        let stats = run_all(protocol);
        assert_eq!(stats[1].ticks, 4, "the leaver exits at its trigger tick");
        assert_eq!(stats[0].ticks, 10);
        assert_eq!(stats[3].ticks, 10, "the joiner plays to the end");
        // Every final-view member converges to the identical world.
        assert_eq!(stats[0].final_world, stats[2].final_world, "{protocol}: 0 vs 2");
        assert_eq!(stats[0].final_world, stats[3].final_world, "{protocol}: 0 vs 3");
        // The leaver's tank is gone from the converged world; the joiner's
        // team has a presence record (its tank, unless currently in limbo).
        let tanks: Vec<u16> = stats[0]
            .final_world
            .iter()
            .filter_map(|b| match b {
                Block::Tank { team, .. } => Some(*team),
                _ => None,
            })
            .collect();
        assert!(!tanks.contains(&1), "{protocol}: leaver's tank must be gone");
    }

    #[test]
    fn bsync_survives_leave_and_join() {
        assert_churn_run(Protocol::Bsync);
    }

    #[test]
    fn msync_survives_leave_and_join() {
        assert_churn_run(Protocol::Msync);
    }

    #[test]
    fn msync2_survives_leave_and_join() {
        assert_churn_run(Protocol::Msync2);
    }

    #[test]
    fn entry_survives_leave_and_join() {
        assert_churn_run(Protocol::Entry);
    }

    #[test]
    fn snapshot_is_o_objects_not_o_history() {
        // Same plan, 4x the ticks before the join: the snapshot's byte
        // count must not grow with history, only with modified objects
        // (bounded by the object count).
        let sizes: Vec<u64> = [6u64, 24]
            .into_iter()
            .map(|join_tick| {
                let scenario = Scenario::paper(4, 1).with_ticks(join_tick + 2);
                let plan =
                    MembershipPlan::new(4, [0, 1, 2]).with_change(join_tick, ViewChange::join([3]));
                let mut handles = Vec::new();
                for ep in MemoryHub::new(4).into_endpoints() {
                    let s = scenario.clone();
                    let p = plan.clone();
                    handles.push(std::thread::spawn(move || {
                        run_churn_node(ep, &s, Protocol::Bsync, &p)
                    }));
                }
                let stats: Vec<NodeStats> =
                    handles.into_iter().map(|h| h.join().unwrap().unwrap()).collect();
                // The donor (node 0) counted the snapshot bytes it sent.
                stats[0].dso.snapshot_bytes
            })
            .collect();
        assert!(sizes[0] > 0, "a snapshot was sent");
        let cells = u64::from(Scenario::paper(4, 1).grid.cells());
        let bound = cells * (64 + 32);
        assert!(
            sizes[1] <= bound && sizes[0] <= bound,
            "snapshot sizes {sizes:?} must stay O(objects), bound {bound}"
        );
    }

    #[test]
    fn lrc_and_causal_are_rejected() {
        let scenario = Scenario::paper(4, 1).with_ticks(10);
        let ep = MemoryHub::new(4).into_endpoints().remove(0);
        let err = run_churn_node(ep, &scenario, Protocol::Lrc, &plan()).unwrap_err();
        assert!(matches!(err, DsoError::ProtocolViolation(_)));
    }
}
