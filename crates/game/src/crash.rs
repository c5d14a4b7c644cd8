//! Crash-fault tolerant node runners: the tank game under a [`FaultPlan`]
//! with seeded, deterministically replayable crash/restart events.
//!
//! # The crash model
//!
//! Fail-stop at barrier granularity. A process scheduled to crash at tick
//! `C` runs its tick-`C` iteration and the tick's barrier exchange like
//! everyone else, then dies abruptly: no reliability settling, no view
//! change, no farewell write — its tank freezes on the board exactly
//! where the barrier left it. Volatile state (runtime, reliability links,
//! game core) vanishes; two things survive, as they would on a real host:
//!
//! * **stable storage** — the [`DurStore`] byte pair (WAL + snapshot
//!   image) the process maintained while alive, held by the driver across
//!   incarnations the way a disk outlives a reboot;
//! * **the endpoint** — a rebooted host keeps its address, so the
//!   transport endpoint is threaded through the crash.
//!
//! Survivors observe the crash through the membership plan derived by
//! [`crash_membership_plan`]: the crash tick carries a leave-flavoured
//! view change, so the regular churn machinery (epoch bump, slot
//! compaction, link pruning) executes the failure.
//!
//! # Recovery
//!
//! At its restart tick the process re-opens stable storage
//! ([`DurStore::from_bytes`]): the WAL's whole-record prefix replays over
//! the newest checkpoint image, yielding the pre-crash identity, epoch,
//! logical-clock frontier and game state ([`GameCore::decode`] of the
//! newest tag-0 `App` record). It then rejoins through the late-joiner
//! path — install the rejoin view, drain crash-era residue frames
//! ([`sdso_core::SdsoRuntime::drain_crash_residue`]), pull the donor's
//! snapshot — and resumes playing from the tick after its rejoin with its
//! pre-crash score, tank and fire-record history intact. While the
//! process is down its tank sits frozen and invulnerable (fire records
//! are absorbed by the owning process), which keeps the schedule
//! deterministic: replaying the same [`FaultPlan`] reproduces the same
//! run.

use std::collections::BTreeSet;

use sdso_core::{
    DsoError, Epoch, EveryTick, LogicalTime, MembershipPlan, Never, Obs, SFunction, SdsoRuntime,
    SendMode,
};
use sdso_dur::{
    crash_membership_plan, validate_crash_plan, DurRecord, DurStore, MemSink, SnapshotImage,
};
use sdso_net::{Endpoint, FaultPlan, NodeId, SimSpan};
use sdso_obs::EventKind;
use sdso_protocols::{EntryConsistency, Lookahead};

use crate::block::Block;
use crate::driver::{
    build_runtime, ec_lockset, snapshot_world, think_cost, write_cost, BlockPort, EcPort, GameCore,
    NodeStats, Protocol, RuntimePort,
};
use crate::scenario::Scenario;

/// Checkpoint cadence: fold the WAL into a snapshot image every this many
/// ticks, bounding replay length to one checkpoint interval.
const CHECKPOINT_EVERY: u64 = 8;

/// Runs one process of the game under `protocol` and the fault plan's
/// crash schedule (chaos faults in the same plan are ignored here; they
/// belong to the transport layer).
///
/// Every team slot runs this function. A process without a crash event
/// plays start to finish, weathering other processes' crashes as view
/// changes. A process with a crash event dies abruptly at its crash tick
/// and — if the event has a restart tick — recovers from its WAL and
/// rejoins, finishing the game with its pre-crash state. Supported
/// protocols are the paper's four (BSYNC/MSYNC/MSYNC2/EC).
///
/// # Errors
///
/// Propagates transport, store and protocol errors, and rejects
/// unrealisable crash schedules or uncovered protocols.
///
/// # Panics
///
/// Panics if a crash or restart tick falls outside `1..scenario.ticks`.
pub fn run_crash_node<E: Endpoint>(
    endpoint: E,
    scenario: &Scenario,
    protocol: Protocol,
    faults: &FaultPlan,
) -> Result<NodeStats, DsoError> {
    run_crash_node_obs(endpoint, scenario, protocol, faults, Obs::disabled())
}

/// Like [`run_crash_node`], but records into the given observability
/// bundle: WAL replays, recoveries and the usual exchange/view-change
/// events land in its flight recorder, and `dso.recovery.*` counters in
/// its registry.
///
/// # Errors
///
/// Propagates transport, store and protocol errors, and rejects
/// unrealisable crash schedules or uncovered protocols.
///
/// # Panics
///
/// Panics if a crash or restart tick falls outside `1..scenario.ticks`.
pub fn run_crash_node_obs<E: Endpoint>(
    endpoint: E,
    scenario: &Scenario,
    protocol: Protocol,
    faults: &FaultPlan,
    obs: Obs,
) -> Result<NodeStats, DsoError> {
    validate_crash_plan(faults, usize::from(scenario.teams))
        .map_err(|e| DsoError::ProtocolViolation(format!("unrealisable crash schedule: {e}")))?;
    for crash in &faults.crashes {
        assert!(
            crash.crash_tick >= 1 && crash.crash_tick < scenario.ticks,
            "crash tick {} must fall inside the run (1..{})",
            crash.crash_tick,
            scenario.ticks
        );
        if let Some(r) = crash.restart_tick {
            assert!(
                r < scenario.ticks,
                "restart tick {r} must fall inside the run (1..{})",
                scenario.ticks
            );
        }
    }
    let plan = crash_membership_plan(usize::from(scenario.teams), 0..scenario.teams, faults);
    match protocol {
        Protocol::Bsync => {
            run_crash_lookahead(endpoint, scenario, faults, &plan, |_| EveryTick, obs)
        }
        Protocol::Msync => run_crash_lookahead(
            endpoint,
            scenario,
            faults,
            &plan,
            |me| crate::sfuncs::Msync::new(me, scenario.clone()),
            obs,
        ),
        Protocol::Msync2 => run_crash_lookahead(
            endpoint,
            scenario,
            faults,
            &plan,
            |me| crate::sfuncs::Msync2::new(me, scenario.clone()),
            obs,
        ),
        Protocol::Entry => run_crash_entry(endpoint, scenario, faults, &plan, obs),
        Protocol::Lrc | Protocol::Causal | Protocol::Msync2Shard => {
            Err(DsoError::ProtocolViolation(format!(
                "{protocol} has no crash runner; crash runs cover the paper's four protocols"
            )))
        }
    }
}

fn dur_err(e: std::io::Error) -> DsoError {
    DsoError::ProtocolViolation(format!("durable store failure: {e}"))
}

fn log_ident(store: &mut DurStore<MemSink>, me: NodeId, epoch: Epoch) -> Result<(), DsoError> {
    store.append(&DurRecord::Ident { node: me, epoch: epoch.0 }).map_err(dur_err)
}

/// Logs one completed tick: the clock frontier, the full (small) game
/// state as the tag-0 application record, and — on the checkpoint cadence
/// — a WAL-truncating snapshot image.
fn log_tick<E: Endpoint>(
    store: &mut DurStore<MemSink>,
    rt: &SdsoRuntime<E>,
    core: &GameCore,
    tick: u64,
    obs: &Obs,
) -> Result<(), DsoError> {
    let (time, lamport) = (rt.logical_now().as_ticks(), rt.lamport());
    store.append(&DurRecord::Tick { time, lamport }).map_err(dur_err)?;
    let state = core.encode();
    obs.record(rt.now().as_micros(), EventKind::WalAppend, tick as u32, state.len() as u32, 0);
    store.append(&DurRecord::App { tag: 0, bytes: state }).map_err(dur_err)?;
    if tick % CHECKPOINT_EVERY == 0 {
        let image = SnapshotImage {
            node: rt.node_id(),
            epoch: rt.membership().epoch().0,
            time,
            lamport,
            objects: Vec::new(),
            app: core.encode(),
        };
        store.checkpoint(&image).map_err(dur_err)?;
    }
    Ok(())
}

/// What a restarted incarnation learned from stable storage.
struct Recovered {
    store: DurStore<MemSink>,
    app: Vec<u8>,
    time: u64,
    lamport: u64,
    records: u64,
    truncated: u64,
}

/// Re-opens the stable byte pair and validates the recovered identity.
fn recover_store(wal: Vec<u8>, snap: Vec<u8>, me: NodeId) -> Result<Recovered, DsoError> {
    let (store, image) = DurStore::from_bytes(wal, snap).map_err(dur_err)?;
    let (node, _epoch) = image.ident().ok_or_else(|| {
        DsoError::ProtocolViolation("recovered storage holds no identity record".into())
    })?;
    if node != me {
        return Err(DsoError::ProtocolViolation(format!(
            "recovered identity {node} does not match process {me}"
        )));
    }
    let app = image
        .app_state(0)
        .ok_or_else(|| DsoError::ProtocolViolation("recovered storage holds no game state".into()))?
        .to_vec();
    let (time, lamport) = image.frontier();
    Ok(Recovered {
        store,
        app,
        time,
        lamport,
        records: image.records.len() as u64,
        truncated: image.truncated_bytes,
    })
}

/// Rejoins the group after recovery: installs the rejoin view, drains
/// crash-era residue, pulls the donor's snapshot and restores the clock
/// frontier. Returns the rebuilt runtime.
fn rejoin<E: Endpoint>(
    endpoint: E,
    scenario: &Scenario,
    plan: &MembershipPlan,
    restart: u64,
    recovered: &Recovered,
    obs: &Obs,
) -> Result<SdsoRuntime<E>, DsoError> {
    let me = endpoint.node_id();
    let mut rt = build_runtime(endpoint, scenario, |team| !plan.is_initial(team), obs.clone())?;
    rt.restore_frontier(LogicalTime::from_ticks(recovered.time), recovered.lamport);
    obs.record(
        rt.now().as_micros(),
        EventKind::WalReplay,
        recovered.records as u32,
        recovered.truncated as u32,
        0,
    );
    let change = plan.change_at(restart).ok_or_else(|| {
        DsoError::ProtocolViolation(format!("restart tick {restart} carries no view change"))
    })?;
    let view = plan.view_at(restart);
    let donor = view.donor_for(change).ok_or_else(|| {
        DsoError::ProtocolViolation("rejoin view change leaves no snapshot donor".into())
    })?;
    rt.set_membership(view);
    rt.drain_crash_residue()?;
    rt.await_snapshot(donor)?;
    obs.record(
        rt.now().as_micros(),
        EventKind::Recover,
        u32::from(me),
        recovered.records as u32,
        rt.membership().epoch().0,
    );
    Ok(rt)
}

/// Restores the recovered game state for the rejoin: the tick counter
/// aligns with the global tick, and the tank falls back to the respawn
/// path if its cell no longer holds it (defensive; the board cannot
/// normally change under a frozen tank).
fn align_recovered_core(
    core: &mut GameCore,
    me: NodeId,
    restart: u64,
    port: &impl BlockPort,
) -> Result<(), DsoError> {
    core.tick = restart;
    if core.tank.alive {
        match port.read_block(core.tank.pos)? {
            Block::Tank { team, .. } if team == me => {}
            _ => core.tank.alive = false,
        }
    }
    Ok(())
}

fn record_recovery(obs: &Obs, records: u64, downtime: SimSpan) {
    obs.registry().counter("dso.recovery.recoveries").add(1);
    obs.registry().counter("dso.recovery.wal_replayed").add(records);
    obs.registry().counter("dso.recovery.downtime_micros").add(downtime.as_micros());
}

fn run_crash_lookahead<E: Endpoint, S: SFunction, F: Fn(NodeId) -> S>(
    endpoint: E,
    scenario: &Scenario,
    faults: &FaultPlan,
    plan: &MembershipPlan,
    make_sfunc: F,
    obs: Obs,
) -> Result<NodeStats, DsoError> {
    let me = endpoint.node_id();
    let crash = faults.crash_of(me).cloned();
    let mut store = DurStore::in_memory();
    let mut compute = SimSpan::ZERO;
    let mut recoveries = 0u64;
    let mut wal_replayed = 0u64;
    let mut recovery_time = SimSpan::ZERO;

    let mut rt = build_runtime(endpoint, scenario, |team| !plan.is_initial(team), obs.clone())?;
    rt.set_membership(plan.view_at(0));
    log_ident(&mut store, me, rt.membership().epoch())?;
    let mut node = Lookahead::new(rt, make_sfunc(me))?;
    let mut core = GameCore::new(scenario.clone(), me);
    let mut tick = 1u64;

    loop {
        let mut crashed = false;
        while tick <= scenario.ticks {
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

            let change = plan.change_at(tick);
            if change.is_some() {
                // The barrier replaces the tick's regular exchange — the
                // crasher participates so its tick-`C` writes (the frozen
                // tank) converge before it dies.
                node.step_barrier()?;
            } else {
                node.step()?;
            }
            log_tick(&mut store, node.runtime(), &core, tick, &obs)?;

            if crash.as_ref().is_some_and(|c| c.crash_tick == tick) {
                crashed = true;
                break;
            }
            if let Some(change) = change {
                node.apply_view_change(change)?;
                log_ident(&mut store, me, node.runtime().membership().epoch())?;
                if node.runtime().membership().donor_for(change) == Some(me) {
                    for &joiner in &change.joined {
                        node.runtime_mut().send_snapshot(joiner)?;
                    }
                }
            }
            tick += 1;
        }

        if !crashed {
            break;
        }

        // --- fail-stop: volatile state vanishes; the disk bytes and the
        // endpoint (the host) survive ---
        let mut rt = node.into_runtime();
        let down_at = rt.now();
        let Some(restart) = crash.as_ref().and_then(|c| c.restart_tick) else {
            // Crashed for good. Report the stats the process had
            // accumulated (no settling — it died); the endpoint must
            // outlive the survivors' view-change settling, so leak it
            // the way a dead host's address outlives the process.
            let net_live = rt.net_metrics_delta();
            let stats = lookahead_stats(
                &mut rt,
                &core,
                compute,
                scenario,
                net_live,
                recoveries,
                wal_replayed,
                recovery_time,
            );
            std::mem::forget(rt.into_endpoint());
            return Ok(stats);
        };
        let endpoint = rt.into_endpoint();
        let (wal, snap) = store.into_bytes();

        // --- recovery: WAL replay, then the late-joiner path ---
        let recovered = recover_store(wal, snap, me)?;
        wal_replayed += recovered.records;
        recoveries += 1;
        let mut core2 = GameCore::decode(scenario.clone(), me, true, true, &recovered.app)
            .ok_or_else(|| {
                DsoError::ProtocolViolation("recovered game state failed to decode".into())
            })?;
        let mut rt = rejoin(endpoint, scenario, plan, restart, &recovered, &obs)?;
        let downtime = rt.now().saturating_since(down_at);
        recovery_time += downtime;
        record_recovery(&obs, recovered.records, downtime);
        store = recovered.store;
        log_ident(&mut store, me, rt.membership().epoch())?;
        {
            let port = RuntimePort { runtime: &mut rt, scenario };
            align_recovered_core(&mut core2, me, restart, &port)?;
        }
        core = core2;
        node = Lookahead::new(rt, make_sfunc(me))?;
        tick = restart + 1;
    }

    let mut rt = node.into_runtime();
    let net_live = rt.net_metrics_delta();
    // Terminal full synchronisation over the final view (see
    // `driver::run_lookahead`).
    rt.exchange(true, SendMode::Broadcast, &mut Never)?;
    rt.settle()?;
    Ok(lookahead_stats(
        &mut rt,
        &core,
        compute,
        scenario,
        net_live,
        recoveries,
        wal_replayed,
        recovery_time,
    ))
}

fn run_crash_entry<E: Endpoint>(
    endpoint: E,
    scenario: &Scenario,
    faults: &FaultPlan,
    plan: &MembershipPlan,
    obs: Obs,
) -> Result<NodeStats, DsoError> {
    let me = endpoint.node_id();
    let crash = faults.crash_of(me).cloned();
    let mut store = DurStore::in_memory();
    let mut compute = SimSpan::ZERO;
    let mut recoveries = 0u64;
    let mut wal_replayed = 0u64;
    let mut recovery_time = SimSpan::ZERO;

    let mut rt = build_runtime(endpoint, scenario, |team| !plan.is_initial(team), obs.clone())?;
    rt.set_membership(plan.view_at(0));
    log_ident(&mut store, me, rt.membership().epoch())?;
    let mut ec = EntryConsistency::new(rt);
    let mut core = GameCore::with_arbitration(scenario.clone(), me, false);
    let mut tick = 1u64;

    loop {
        let mut crashed = false;
        while tick <= scenario.ticks {
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

            let change = plan.change_at(tick);
            if change.is_some() {
                // Flush barrier over the old view: the crasher's frozen
                // tank disseminates before the epoch turns.
                ec.view_sync()?;
            }
            log_tick(&mut store, ec.runtime(), &core, tick, &obs)?;

            if crash.as_ref().is_some_and(|c| c.crash_tick == tick) {
                crashed = true;
                break;
            }
            if let Some(change) = change {
                ec.apply_view_change(change)?;
                log_ident(&mut store, me, ec.runtime().membership().epoch())?;
                if ec.runtime().membership().donor_for(change) == Some(me) {
                    for &joiner in &change.joined {
                        ec.runtime_mut().send_snapshot(joiner)?;
                    }
                }
            }
            tick += 1;
        }

        if !crashed {
            break;
        }

        let mut rt = ec.into_runtime();
        let down_at = rt.now();
        let Some(restart) = crash.as_ref().and_then(|c| c.restart_tick) else {
            let net_live = rt.net_metrics_delta();
            let stats = crashed_entry_stats(
                &mut rt,
                &core,
                compute,
                scenario,
                net_live,
                recoveries,
                wal_replayed,
                recovery_time,
            );
            std::mem::forget(rt.into_endpoint());
            return Ok(stats);
        };
        let endpoint = rt.into_endpoint();
        let (wal, snap) = store.into_bytes();

        let recovered = recover_store(wal, snap, me)?;
        wal_replayed += recovered.records;
        recoveries += 1;
        let mut core2 = GameCore::decode(scenario.clone(), me, false, false, &recovered.app)
            .ok_or_else(|| {
                DsoError::ProtocolViolation("recovered game state failed to decode".into())
            })?;
        let rt = rejoin(endpoint, scenario, plan, restart, &recovered, &obs)?;
        let downtime = rt.now().saturating_since(down_at);
        recovery_time += downtime;
        record_recovery(&obs, recovered.records, downtime);
        store = recovered.store;
        let mut next = EntryConsistency::new(rt);
        log_ident(&mut store, me, next.runtime().membership().epoch())?;
        {
            let mut modified = BTreeSet::new();
            let port = EcPort { ec: &mut next, scenario, modified: &mut modified };
            align_recovered_core(&mut core2, me, restart, &port)?;
        }
        core = core2;
        ec = next;
        tick = restart + 1;
    }

    let net_live = ec.runtime_mut().net_metrics_delta();
    ec.finish()?;
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
        recoveries,
        wal_replayed,
        recovery_time,
        ..NodeStats::default()
    })
}

#[allow(clippy::too_many_arguments)]
fn lookahead_stats<E: Endpoint>(
    rt: &mut SdsoRuntime<E>,
    core: &GameCore,
    compute: SimSpan,
    scenario: &Scenario,
    net_live: sdso_net::NetMetricsSnapshot,
    recoveries: u64,
    wal_replayed: u64,
    recovery_time: SimSpan,
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
        recoveries,
        wal_replayed,
        recovery_time,
        ..NodeStats::default()
    }
}

/// Stats for an EC process that crashed for good: reported off the bare
/// runtime (the lock layer died with the process).
#[allow(clippy::too_many_arguments)]
fn crashed_entry_stats<E: Endpoint>(
    rt: &mut SdsoRuntime<E>,
    core: &GameCore,
    compute: SimSpan,
    scenario: &Scenario,
    net_live: sdso_net::NetMetricsSnapshot,
    recoveries: u64,
    wal_replayed: u64,
    recovery_time: SimSpan,
) -> NodeStats {
    lookahead_stats(rt, core, compute, scenario, net_live, recoveries, wal_replayed, recovery_time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdso_net::memory::MemoryHub;

    fn run_all(protocol: Protocol, teams: u16, ticks: u64, faults: &FaultPlan) -> Vec<NodeStats> {
        let scenario = Scenario::paper(teams, 1).with_ticks(ticks);
        let mut handles = Vec::new();
        for ep in MemoryHub::new(usize::from(teams)).into_endpoints() {
            let s = scenario.clone();
            let f = faults.clone();
            handles.push(std::thread::spawn(move || run_crash_node(ep, &s, protocol, &f)));
        }
        handles.into_iter().map(|h| h.join().unwrap().unwrap()).collect()
    }

    #[test]
    fn crash_and_restart_rejoins_with_pre_crash_state() {
        let faults = FaultPlan::new(7).with_crash(2, 4, Some(8));
        let stats = run_all(Protocol::Bsync, 4, 12, &faults);

        assert_eq!(stats[2].recoveries, 1, "one crash/restart cycle");
        assert!(stats[2].wal_replayed > 0, "the WAL replayed something");
        assert_eq!(stats[2].ticks, 12, "the restarted process finishes the game");
        for survivor in [0usize, 1, 3] {
            assert_eq!(stats[survivor].recoveries, 0);
            assert_eq!(stats[survivor].ticks, 12);
        }
        // Every final-view member — the restarted process included —
        // converges to the identical world.
        for other in 1..4 {
            assert_eq!(stats[0].final_world, stats[other].final_world, "node 0 vs node {other}");
        }
    }

    #[test]
    fn entry_crash_restart_converges() {
        let faults = FaultPlan::new(11).with_crash(1, 4, Some(8));
        let stats = run_all(Protocol::Entry, 3, 12, &faults);
        assert_eq!(stats[1].recoveries, 1);
        assert_eq!(stats[1].ticks, 12);
        assert_eq!(stats[0].final_world, stats[1].final_world);
        assert_eq!(stats[0].final_world, stats[2].final_world);
    }

    #[test]
    fn replaying_the_same_fault_plan_is_deterministic() {
        let faults = FaultPlan::new(23).with_crash(1, 3, Some(6)).with_crash(3, 7, None);
        let a = run_all(Protocol::Msync, 4, 10, &faults);
        let b = run_all(Protocol::Msync, 4, 10, &faults);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.ticks, y.ticks);
            assert_eq!(x.score, y.score);
            assert_eq!(x.final_world, y.final_world, "node {}", x.node);
        }
        // Live members (3 never came back) converge.
        assert_eq!(a[0].final_world, a[1].final_world);
        assert_eq!(a[0].final_world, a[2].final_world);
        assert_eq!(a[3].ticks, 7, "the unrecovered crasher died at its crash tick");
    }

    #[test]
    fn unrealisable_schedules_and_uncovered_protocols_are_rejected() {
        let scenario = Scenario::paper(4, 1).with_ticks(10);
        let oob = FaultPlan::new(1).with_crash(9, 2, None);
        let ep = MemoryHub::new(4).into_endpoints().remove(0);
        let err = run_crash_node(ep, &scenario, Protocol::Bsync, &oob).unwrap_err();
        assert!(matches!(err, DsoError::ProtocolViolation(_)));

        let plan = FaultPlan::new(1).with_crash(1, 2, None);
        let ep = MemoryHub::new(4).into_endpoints().remove(0);
        let err = run_crash_node(ep, &scenario, Protocol::Lrc, &plan).unwrap_err();
        assert!(matches!(err, DsoError::ProtocolViolation(_)));
    }

    #[test]
    fn game_core_round_trips_through_the_wal_codec() {
        let scenario = Scenario::paper(4, 1).with_ticks(10);
        let mut core = GameCore::new(scenario.clone(), 2);
        core.tick = 17;
        core.score = -3;
        core.goals = 1;
        core.deaths = 2;
        core.shots = 9;
        core.bonuses = 4;
        core.modifications = 55;
        core.tank.hp = 1;
        core.tank.alive = false;
        let bytes = core.encode();
        let back = GameCore::decode(scenario, 2, true, true, &bytes).expect("decodes");
        assert_eq!(back.encode(), bytes, "re-encode is identical");
        assert_eq!(back.tick, 17);
        assert_eq!(back.score, -3);
        assert_eq!(back.tank.hp, 1);
        assert!(!back.tank.alive);
        assert!(GameCore::decode(Scenario::paper(4, 1), 2, true, true, &bytes[..bytes.len() - 1])
            .is_none());
    }
}
