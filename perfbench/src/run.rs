//! One benchmark run: play games of a workload for the requested time,
//! check each game's output, keep a small summary of it, and reduce the
//! summaries to named metrics.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use sdso_core::DsoMetrics;
use sdso_game::NodeStats;
use sdso_net::EventKind;
use sdso_protocols::EcMetrics;

use crate::game::{fingerprints, play, Fingerprint, GameRun, Transport, Workload};
use crate::host::peak_rss_mb;
use crate::probe::{CallProfile, CallTotals, Captured, ProbeMode};
use crate::replay::{replay, ReplayCosts};
use crate::stats::{mean, median, percentile, sorted};

/// The end-to-end metrics an untraced run's last line carries (every
/// other metric is printed for reading only); `BENCHMARK.json` lists the
/// same names.
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "vtick_p50_us",
    "vtick_p99_us",
    "secs_per_mod",
    "bytes_per_node_tick",
    "msgs_per_node_tick",
    "peak_rss_mb",
];

/// Printed for reading only, never in a run's last line.
pub const GAMES: &str = "games";

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Node-ticks attempted.
    pub attempted: u64,
    /// Node-ticks of games that failed or whose output check failed.
    pub failed: u64,
    /// Why games failed.
    pub failures: Vec<String>,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Remarks for the reader: percentiles left out for lack of samples
    /// beyond them, and the spread of host metrics across games.
    pub notes: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric { name, value, unit, samples });
    }

    /// Publishes the median over games of each game's percentile, or
    /// notes why it cannot be published.
    fn put_pct(&mut self, name: &'static str, per_game: &[&Pcts], i: usize) {
        let samples = per_game.iter().map(|p| p.n).sum();
        let values: Option<Vec<f64>> = per_game.iter().map(|p| p.at[i]).collect();
        match values {
            Some(v) if !v.is_empty() => self.put(name, median(&v), "us", samples),
            _ => self.notes.push(format!("{name} not published: fewer than ten samples beyond it")),
        }
    }
}

/// The percentiles every timing sample is reduced to.
const PCTS: [f64; 3] = [0.5, 0.99, 0.999];

/// One sample's size and its [`PCTS`] (`None`: not publishable).
#[derive(Debug, Clone, Copy)]
struct Pcts {
    n: usize,
    at: [Option<f64>; 3],
}

impl Pcts {
    fn of(samples: &[f64]) -> Pcts {
        let sorted = sorted(samples);
        Pcts { n: sorted.len(), at: PCTS.map(|p| percentile(&sorted, p)) }
    }
}

/// Seconds between two instants.
fn secs(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64()
}

/// Node-ticks a game attempts.
fn node_ticks(w: &Workload) -> u64 {
    u64::from(w.teams) * w.ticks
}

/// What a run keeps of one game once it is checked; the game's logs are
/// dropped, so memory stays flat however many games a run plays.
struct Summary {
    traced: bool,
    ok: bool,
    setup_s: f64,
    node_ticks_per_s: f64,
    cpu_us_per_node_tick: f64,
    /// Whether this is the first play of its map in the run.
    first_play: bool,
    /// Host per-node-tick intervals.
    tick: Pcts,
    /// The endpoint-clock intervals themselves (µs), kept only for the
    /// first play of a simulator map, whose replays repeat them exactly.
    vtick_us: Vec<f64>,
    secs_per_mod: f64,
    bytes_per_node_tick: f64,
    msgs_per_node_tick: f64,
    layers: Option<Layers>,
}

/// The per-layer raw material of a traced game.
struct Layers {
    profile: CallProfile,
    spans_us: Vec<f64>,
    stats: Vec<NodeStats>,
    wall_s: f64,
    cpu_s: f64,
    obs_events: u64,
    obs_dropped: u64,
    replay: Option<ReplayCosts>,
}

/// Reduces a checked game to its summary. `first_play`: the game is the
/// first of its map in the run. `replay`: the replay micro-costs timed on
/// this game's captured payloads, if it was the run's replay sample.
fn summarise(w: &Workload, run: GameRun, first_play: bool, replay: Option<ReplayCosts>) -> Summary {
    let first = run.logs.iter().filter_map(|l| l.host.first().copied());
    let last = run.logs.iter().filter_map(|l| l.host.last().copied());
    let setup_s = first.clone().max().map_or(0.0, |t| secs(run.called, t));
    let span = match (first.min(), last.max()) {
        (Some(s), Some(e)) => secs(s, e),
        _ => 0.0,
    };
    let mut tick_us = Vec::new();
    let mut vtick_us = Vec::new();
    for log in &run.logs {
        tick_us.extend(log.host.windows(2).map(|p| p[1].duration_since(p[0]).as_secs_f64() * 1e6));
        vtick_us.extend(log.clock.windows(2).map(|p| p[1].saturating_sub(p[0]) as f64));
    }
    let nt = node_ticks(w) as f64;
    let ok = run.failure.is_none();
    let stats = &run.stats;
    let mut summary = Summary {
        traced: run.traced,
        ok,
        setup_s,
        node_ticks_per_s: tick_us.len() as f64 / span,
        cpu_us_per_node_tick: run.cpu_ns as f64 / 1e3 / nt,
        first_play,
        tick: Pcts::of(&tick_us),
        vtick_us: if first_play && w.transport == Transport::PaperTestbed {
            vtick_us
        } else {
            Vec::new()
        },
        secs_per_mod: mean(
            &stats
                .iter()
                .map(|s| s.exec_time.as_secs_f64() / s.modifications.max(1) as f64)
                .collect::<Vec<_>>(),
        ),
        bytes_per_node_tick: stats.iter().map(|s| s.net.bytes_sent()).sum::<u64>() as f64 / nt,
        msgs_per_node_tick: stats.iter().map(|s| s.net.total_sent()).sum::<u64>() as f64 / nt,
        layers: None,
    };
    if ok && run.traced {
        let mut profile = CallProfile::default();
        for p in run.logs.iter().filter_map(|l| l.profile.as_ref()) {
            profile.send = profile.send.merged(p.send);
            profile.recv = profile.recv.merged(p.recv);
            profile.advance = profile.advance.merged(p.advance);
            profile.other = profile.other.merged(p.other);
            profile.outside = profile.outside.merged(p.outside);
            profile.msgs_sent += p.msgs_sent;
            profile.transmit_us += p.transmit_us;
        }
        let obs = run.obs.as_ref();
        let (spans_us, obs_events, obs_dropped) = obs.map_or((Vec::new(), 0, 0), |o| {
            (exchange_spans(o), o.total_events(), o.total_dropped())
        });
        let mut stats = run.stats;
        for s in &mut stats {
            s.final_world = Vec::new();
        }
        summary.layers = Some(Layers {
            profile,
            spans_us,
            stats,
            wall_s: secs(run.called, run.returned),
            cpu_s: run.cpu_ns as f64 / 1e9,
            obs_events,
            obs_dropped,
            replay,
        });
    }
    summary
}

/// The output checks of a traced game: the probe saw every message the
/// program counted, and, when the game is the run's replay sample, its
/// captured traffic round-trips through both codecs (timing them).
fn check_traced(run: &GameRun, replay_sample: bool) -> Result<Option<ReplayCosts>, String> {
    let profiles = || run.logs.iter().filter_map(|l| l.profile.as_ref());
    let seen: u64 = profiles().map(|p| p.msgs_sent).sum();
    let counted: u64 = run.stats.iter().map(|s| s.net.total_sent()).sum();
    if seen != counted {
        return Err(format!("probe saw {seen} messages sent, the program counted {counted}"));
    }
    if !replay_sample {
        return Ok(None);
    }
    let sample: Vec<Captured> = profiles().flat_map(|p| p.captured.iter().cloned()).collect();
    replay(&sample).map(Some)
}

/// Exchange spans (µs, sorted) from the program's own recorder events,
/// paired per node in order.
fn exchange_spans(obs: &sdso_core::ObsSet) -> Vec<f64> {
    let mut spans = Vec::new();
    for (_, events) in obs.events() {
        let mut open = None;
        for e in events {
            match e.kind {
                EventKind::ExchangeBegin => open = Some(e.at),
                EventKind::ExchangeEnd => {
                    if let Some(at) = open.take() {
                        spans.push(e.at.saturating_sub(at) as f64);
                    }
                }
                _ => {}
            }
        }
    }
    sorted(&spans)
}

/// The output checks that span games: a simulator game must reproduce
/// its map's first outcome exactly, a loopback game must match the
/// simulator's per-node (score, modifications) for the same scenario.
struct Checker {
    reference: BTreeMap<u64, Vec<(i64, u64)>>,
    first_seen: BTreeMap<u64, Vec<Fingerprint>>,
}

impl Checker {
    /// A checker for games of `maps`. A real-socket workload first plays
    /// each map on the simulator; those reference games are returned.
    fn new(w: &Workload, maps: &[u64]) -> Result<(Checker, Vec<Summary>), String> {
        let mut reference = BTreeMap::new();
        let mut references = Vec::new();
        if w.transport == Transport::Loopback {
            let sim = w.simulated();
            for &seed in maps {
                let run = play(&sim, seed, ProbeMode::Ticks);
                if let Some(why) = &run.failure {
                    return Err(format!("reference simulation of map {seed} failed: {why}"));
                }
                let outcome = run.stats.iter().map(|s| (s.score, s.modifications)).collect();
                reference.insert(seed, outcome);
                references.push(summarise(&sim, run, true, None));
            }
        }
        Ok((Checker { reference, first_seen: BTreeMap::new() }, references))
    }

    fn check(&mut self, run: &GameRun) -> Option<String> {
        let prints = fingerprints(&run.stats);
        if let Some(expected) = self.reference.get(&run.seed) {
            let got: Vec<(i64, u64)> = prints.iter().map(|f| (f.score, f.modifications)).collect();
            return (*expected != got).then(|| {
                format!("map {}: loopback outcome differs from the simulator's", run.seed)
            });
        }
        match self.first_seen.get(&run.seed) {
            Some(first) if *first != prints => {
                Some(format!("map {}: outcome differs from its first play", run.seed))
            }
            Some(_) => None,
            None => {
                self.first_seen.insert(run.seed, prints);
                None
            }
        }
    }
}

/// Plays games until `seconds` have passed and at least `min_games` were
/// played; `next(i)` picks the i-th game's map (one of `maps`) and probe
/// mode. Counts attempted and failed node-ticks into `report`. Returns
/// the games and, for a real-socket workload, the simulator reference
/// games of its maps.
fn play_for(
    w: &Workload,
    seconds: f64,
    min_games: usize,
    maps: &[u64],
    mut next: impl FnMut(usize) -> (u64, ProbeMode),
    report: &mut Report,
) -> Result<(Vec<Summary>, Vec<Summary>), String> {
    let (mut checker, references) = Checker::new(w, maps)?;
    let mut played = BTreeSet::new();
    let mut replayed = false;
    let started = Instant::now();
    let mut games = Vec::new();
    while games.len() < min_games || started.elapsed().as_secs_f64() < seconds {
        let (seed, mode) = next(games.len());
        let mut run = play(w, seed, mode);
        if run.failure.is_none() {
            run.failure = checker.check(&run);
        }
        let mut replay = None;
        if run.failure.is_none() && run.traced {
            match check_traced(&run, !replayed) {
                Ok(costs) => replay = costs,
                Err(why) => run.failure = Some(why),
            }
            replayed |= replay.is_some();
        }
        report.attempted += node_ticks(w);
        if let Some(why) = &run.failure {
            report.failed += node_ticks(w);
            report.failures.push(why.clone());
        }
        let first_play = played.insert(seed);
        games.push(summarise(w, run, first_play, replay));
    }
    Ok((games, references))
}

/// Median of `f` over `games`.
fn med(games: &[&Summary], f: impl Fn(&Summary) -> f64) -> f64 {
    median(&games.iter().map(|g| f(g)).collect::<Vec<_>>())
}

/// The untraced run: end-to-end metrics.
///
/// # Errors
///
/// Fails when the loopback reference game fails or no game succeeded.
pub fn run_untraced(w: &Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let maps = w.map_seeds(seed);
    let mut report = Report::default();
    let next = |i: usize| (maps[i % maps.len()], ProbeMode::Ticks);
    let (games, references) = play_for(w, seconds, maps.len() + 1, &maps, next, &mut report)?;
    let ok: Vec<&Summary> = games.iter().filter(|g| g.ok).collect();
    if ok.is_empty() {
        return Err(format!("every game failed: {}", report.failures.join("; ")));
    }
    let n = ok.len();
    report.put("setup_s", med(&ok, |g| g.setup_s), "s", n);
    report.put("node_ticks_per_s", med(&ok, |g| g.node_ticks_per_s), "1/s", n);
    let per_game = sorted(&ok.iter().map(|g| g.node_ticks_per_s).collect::<Vec<_>>());
    report.notes.push(format!(
        "node_ticks_per_s over {n} games: min {:.1}, median {:.1}, max {:.1}",
        per_game[0],
        median(&per_game),
        per_game[n - 1]
    ));
    report.put("cpu_us_per_node_tick", med(&ok, |g| g.cpu_us_per_node_tick), "us", n);

    let ticks: Vec<&Pcts> = ok.iter().map(|g| &g.tick).collect();
    for (i, name) in ["tick_p50_us", "tick_p99_us", "tick_p999_us"].into_iter().enumerate() {
        report.put_pct(name, &ticks, i);
    }
    // Virtual results are deterministic per map: they come from each
    // map's first play on the simulator (for a real-socket workload, its
    // reference games), with the maps' tick samples pooled.
    let sim = w.transport == Transport::PaperTestbed;
    let firsts: Vec<&Summary> = if sim {
        ok.iter().copied().filter(|g| g.first_play).collect()
    } else {
        references.iter().collect()
    };
    let pooled =
        Pcts::of(&firsts.iter().flat_map(|g| g.vtick_us.iter().copied()).collect::<Vec<_>>());
    for (i, name) in ["vtick_p50_us", "vtick_p99_us", "vtick_p999_us"].into_iter().enumerate() {
        report.put_pct(name, &[&pooled], i);
    }
    let per_map = |f: fn(&Summary) -> f64| mean(&firsts.iter().map(|g| f(g)).collect::<Vec<_>>());
    report.put(
        "secs_per_mod",
        per_map(|g| g.secs_per_mod),
        "s",
        firsts.len() * usize::from(w.teams),
    );
    // Traffic is counted on the workload's own transport: per map on the
    // simulator, per game on real sockets.
    let traffic = |f: fn(&Summary) -> f64| if sim { per_map(f) } else { med(&ok, f) };
    let traffic_nt = if sim { firsts.len() } else { n } * node_ticks(w) as usize;
    report.put("bytes_per_node_tick", traffic(|g| g.bytes_per_node_tick), "B", traffic_nt);
    report.put("msgs_per_node_tick", traffic(|g| g.msgs_per_node_tick), "count", traffic_nt);
    let failed_frac = report.failed as f64 / report.attempted as f64;
    report.put("failed_frac", failed_frac, "ratio", report.attempted as usize);
    report.put("peak_rss_mb", peak_rss_mb(), "MB", 1);
    report.put(GAMES, games.len() as f64, "count", 1);
    Ok(report)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The traced run: per-layer metrics, the attribution of execution time
/// and the tracing overhead. Untraced and traced games of the run's first
/// map alternate, so the overhead compares like with like.
///
/// # Errors
///
/// Fails when the loopback reference game fails, no traced and untraced
/// game both succeeded, or the probe or replay checks fail.
pub fn run_traced(w: &Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let map = w.map_seeds(seed)[0];
    let mut report = Report::default();
    let next = |i: usize| (map, if i % 2 == 0 { ProbeMode::Ticks } else { ProbeMode::Calls });
    let (games, _) = play_for(w, seconds, 2, &[map], next, &mut report)?;
    let untraced: Vec<&Summary> = games.iter().filter(|g| g.ok && !g.traced).collect();
    let traced: Vec<&Summary> = games.iter().filter(|g| g.layers.is_some()).collect();
    let layers: Vec<&Layers> = traced.iter().filter_map(|g| g.layers.as_ref()).collect();
    let (Some(first), false) = (layers.first(), untraced.is_empty()) else {
        return Err(format!(
            "no traced and untraced game succeeded: {}",
            report.failures.join("; ")
        ));
    };
    let n = layers.len();
    let med_layer =
        |f: &dyn Fn(&Layers) -> f64| median(&layers.iter().map(|l| f(l)).collect::<Vec<_>>());
    let sim = w.transport == Transport::PaperTestbed;
    let on_sim = |v: f64| if sim { v } else { 0.0 };
    let host_s = |t: CallTotals| t.host_ns as f64 / 1e9;
    let clock_s = |t: CallTotals| t.clock_us as f64 / 1e6;
    let all_calls = |p: &CallProfile| p.send.merged(p.recv).merged(p.advance).merged(p.other);
    let probe = &first.profile;
    let stats = &first.stats;
    let sum = |f: &dyn Fn(&NodeStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let costs = first.replay.ok_or("the first traced game kept no replay sample")?;

    // sdso-sim: host cost of the simulator's endpoint calls.
    report.put("sim.call_thread_s", on_sim(med_layer(&|l| host_s(all_calls(&l.profile)))), "s", n);
    report.put("sim.calls", on_sim(all_calls(probe).calls as f64), "count", 1);
    let msgs_per_s = med_layer(&|l| l.profile.msgs_sent as f64 / l.wall_s);
    report.put("sim.msgs_per_host_s", on_sim(msgs_per_s), "1/s", n);
    report.put("sim.wall_over_cpu", on_sim(med_layer(&|l| l.wall_s / l.cpu_s)), "ratio", n);

    // sdso-net: transport calls and traffic.
    report.put("net.send_thread_s", med_layer(&|l| host_s(l.profile.send)), "s", n);
    report.put("net.send_calls", probe.send.calls as f64, "count", 1);
    report.put("net.recv_wait_thread_s", med_layer(&|l| host_s(l.profile.recv)), "s", n);
    report.put("net.recv_calls", probe.recv.calls as f64, "count", 1);
    report.put("net.msgs_sent", sum(&|s| s.net.total_sent()), "count", 1);
    report.put("net.bytes_sent", sum(&|s| s.net.bytes_sent()), "B", 1);
    report.put("net.data_msgs", sum(&|s| s.net.data_sent.msgs), "count", 1);
    report.put("net.control_msgs", sum(&|s| s.net.control_sent.msgs), "count", 1);
    report.put("frame.encode_ns_per_msg", costs.frame_encode_ns, "ns", costs.msgs);
    report.put("frame.decode_ns_per_msg", costs.frame_decode_ns, "ns", costs.msgs);

    // The link model and blocking.
    report.put("link.transmit_virt_s", on_sim(probe.transmit_us as f64 / 1e6), "s", 1);
    let blocked = sum(&|s| s.net.blocked_micros) / 1e6;
    report.put("net.blocked_virt_s", blocked, "s", 1);

    // sdso-core runtime.
    report.put("runtime.outside_thread_s", med_layer(&|l| host_s(l.profile.outside)), "s", n);
    let dso = stats.iter().fold(DsoMetrics::default(), |a, s| a.merged(&s.dso));
    report.put("dso.exchanges", dso.exchanges as f64, "count", 1);
    report.put("dso.rendezvous_peers", dso.rendezvous_peers as f64, "count", 1);
    report.put("dso.updates_sent", dso.updates_sent as f64, "count", 1);
    report.put("dso.updates_applied", dso.updates_applied as f64, "count", 1);
    report.put("dso.updates_stale", dso.updates_stale as f64, "count", 1);
    let offered = dso.updates_applied + dso.updates_stale;
    report.put("dso.apply_ratio", ratio(dso.updates_applied, offered), "ratio", offered as usize);
    report.put("dso.exchange_virt_s", dso.exchange_time.as_secs_f64(), "s", 1);
    report.put("dso.exchange_wait_virt_s", dso.exchange_wait.as_secs_f64(), "s", 1);
    report.put("dso.batch_deduped", dso.batch_deduped as f64, "count", 1);
    report.put("dso.codec_v2_sent", dso.codec_v2_sent as f64, "count", 1);
    report.put("dso.codec_v2_fallbacks", dso.codec_v2_fallbacks as f64, "count", 1);
    for (name, p) in [("dso.exchange_p50_us", 0.5), ("dso.exchange_p99_us", 0.99)] {
        let value = percentile(&first.spans_us, p);
        if value.is_none() && !first.spans_us.is_empty() {
            report.notes.push(format!("{name} not published: fewer than ten spans beyond it"));
        }
        report.put(name, value.unwrap_or(0.0), "us", first.spans_us.len());
    }
    report.put("wire.encode_ns_per_msg", costs.wire_encode_ns, "ns", costs.msgs);
    report.put("wire.decode_ns_per_msg", costs.wire_decode_ns, "ns", costs.msgs);

    // sdso-protocols entry consistency.
    let ec = stats.iter().fold(EcMetrics::default(), |a, s| a.merged(&s.ec));
    report.put("ec.acquires", ec.acquires as f64, "count", 1);
    report.put("ec.local_grants", ec.local_grants as f64, "count", 1);
    let grant_ratio = ratio(ec.local_grants, ec.acquires);
    report.put("ec.local_grant_ratio", grant_ratio, "ratio", ec.acquires as usize);
    report.put("ec.pulls", ec.pulls as f64, "count", 1);
    report.put("ec.lock_wait_virt_s", ec.lock_wait.as_secs_f64(), "s", 1);
    report.put("ec.pull_virt_s", ec.pull_time.as_secs_f64(), "s", 1);

    // sdso-game.
    let compute: f64 = stats.iter().map(|s| s.compute_time.as_secs_f64()).sum();
    let mods = sum(&|s| s.modifications);
    report.put("game.compute_virt_s", compute, "s", 1);
    report.put("game.modifications", mods, "count", 1);
    report.put("game.mods_per_tick", mods / node_ticks(w) as f64, "count", node_ticks(w) as usize);

    // Attribution of every node's exec_time on its endpoint clock: the
    // probe sees every clock movement, inside calls or between them.
    let exec: f64 = stats.iter().map(|s| s.exec_time.as_secs_f64()).sum();
    let recv_stack = clock_s(probe.recv) - blocked;
    let outside = clock_s(probe.outside) + clock_s(probe.other);
    let advance = clock_s(probe.advance);
    let seen = advance + clock_s(probe.send) + blocked + recv_stack + outside;
    report.put("attr.exec_s", exec, "s", usize::from(w.teams));
    report.put("attr.advance_s", advance, "s", 1);
    report.put("attr.send_s", clock_s(probe.send), "s", 1);
    report.put("attr.recv_stack_s", recv_stack, "s", 1);
    report.put("attr.outside_s", outside, "s", 1);
    report.put("attr.residual_s", exec - seen, "s", 1);
    let wait =
        dso.exchange_wait.as_secs_f64() + ec.lock_wait.as_secs_f64() + ec.pull_time.as_secs_f64();
    report.put("attr.protocol_wait_s", wait, "s", 1);
    report.put("attr.protocol_residual_s", exec - advance - wait, "s", 1);

    // sdso-obs and the cost of tracing itself.
    report.put("obs.events", first.obs_events as f64, "count", 1);
    report.put("obs.dropped", first.obs_dropped as f64, "count", 1);
    let cost = |gs: &[&Summary]| med(gs, |g| 1.0 / g.node_ticks_per_s);
    let overhead = cost(&traced) / cost(&untraced) - 1.0;
    report.put("trace.overhead_frac", overhead, "ratio", n + untraced.len());
    report.put(GAMES, games.len() as f64, "count", 1);
    Ok(report)
}
