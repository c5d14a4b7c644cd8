//! Self-tests of the benchmark's own machinery: the tick-boundary probe,
//! its transparency on the simulator, the percentile rule, and agreement
//! between `BENCHMARK.json` and what runs print.

use std::collections::BTreeSet;

use sdso_game::{run_node, NodeStats, Protocol};
use sdso_net::NetError;
use sdso_perfbench::game::{fingerprints, play, Transport, Workload, WORKLOADS};
use sdso_perfbench::probe::ProbeMode;
use sdso_perfbench::run::{run_traced, run_untraced, END_TO_END, GAMES};
use sdso_perfbench::stats::percentile;
use sdso_sim::{NetworkModel, SimCluster};

/// A workload shrunk to test size.
fn small(w: &Workload) -> Workload {
    Workload { teams: w.teams.min(4), ticks: 30, ..*w }
}

#[test]
fn probe_counts_every_tick_of_every_protocol() {
    for w in WORKLOADS.iter().map(small) {
        for mode in [ProbeMode::Ticks, ProbeMode::Calls] {
            let run = play(&w, 7, mode);
            assert_eq!(run.failure, None, "{} {mode:?}", w.name);
            assert_eq!(run.logs.len(), usize::from(w.teams));
            for log in &run.logs {
                assert_eq!(log.host.len() as u64, w.ticks, "{} node {}", w.name, log.node);
                assert_eq!(log.clock.len() as u64, w.ticks, "{} node {}", w.name, log.node);
                assert_eq!(log.profile.is_some(), mode == ProbeMode::Calls);
            }
        }
    }
}

/// Plays `w` on the simulator with bare, unwrapped endpoints.
fn play_bare(w: &Workload, seed: u64) -> Vec<NodeStats> {
    let scenario = w.scenario(seed);
    let protocol = w.protocol;
    SimCluster::new(usize::from(w.teams), NetworkModel::paper_testbed())
        .run(move |ep| run_node(ep, &scenario, protocol).map_err(NetError::from))
        .expect("cluster runs")
        .into_results()
        .expect("every node finishes")
}

#[test]
fn probe_leaves_simulator_runs_bit_identical() {
    let protocols: Vec<Protocol> = WORKLOADS.iter().map(|w| w.protocol).collect();
    for protocol in protocols {
        let w = Workload { transport: Transport::PaperTestbed, protocol, ..small(&WORKLOADS[0]) };
        let bare = play_bare(&w, 11);
        for mode in [ProbeMode::Ticks, ProbeMode::Calls] {
            let wrapped = play(&w, 11, mode);
            assert_eq!(wrapped.failure, None);
            assert_eq!(fingerprints(&wrapped.stats), fingerprints(&bare), "{protocol} {mode:?}");
            for (a, b) in wrapped.stats.iter().zip(&bare) {
                assert_eq!(a.exec_time, b.exec_time);
                assert_eq!(a.net, b.net);
                assert_eq!(a.dso, b.dso);
                assert_eq!(a.ec, b.ec);
                assert_eq!(a.final_world, b.final_world);
            }
        }
    }
}

#[test]
fn percentile_needs_ten_samples_beyond_it() {
    let upto = |n: u32| (1..=n).map(f64::from).collect::<Vec<_>>();
    assert_eq!(percentile(&upto(999), 0.99), None);
    assert_eq!(percentile(&upto(1000), 0.99), Some(990.0));
    assert_eq!(percentile(&upto(9999), 0.999), None);
    assert_eq!(percentile(&upto(10_000), 0.999), Some(9990.0));
    assert_eq!(percentile(&upto(5), 0.5), Some(3.0));
    assert_eq!(percentile(&[], 0.5), None);
}

/// Every `"name": "…"` value in the repository's `BENCHMARK.json`.
fn benchmark_json_names() -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    text.split("\"name\": \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .map(str::to_owned)
        .collect()
}

#[test]
fn benchmark_json_names_exactly_the_workloads_and_metrics_runs_print() {
    // 600 ticks: enough samples beyond every end-to-end percentile.
    let w = Workload { ticks: 600, ..Workload::by_name("loopback2-bsync-v2").expect("workload") };
    let untraced = run_untraced(&w, 1, 0.0).expect("untraced run");
    let traced = run_traced(&w, 1, 0.0).expect("traced run");
    assert_eq!((untraced.failed, traced.failed), (0, 0));
    let printed: BTreeSet<&str> = untraced.metrics.iter().map(|m| m.name).collect();
    for name in END_TO_END {
        assert!(printed.contains(name), "{name} not printed");
    }
    let mut expected: BTreeSet<String> = WORKLOADS.iter().map(|w| w.name.to_owned()).collect();
    expected.extend(END_TO_END.iter().map(|m| (*m).to_owned()));
    expected.extend(traced.metrics.iter().map(|m| m.name.to_owned()).filter(|n| n != GAMES));
    assert_eq!(benchmark_json_names(), expected);
}
