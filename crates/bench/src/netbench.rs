//! The transport benchmark behind `perf net` (`BENCH_3.json`).
//!
//! One scenario, two transports: a hub-and-spokes echo exchange at 256
//! simulated peers, run over the event-driven reactor
//! ([`ReactorMesh::star`](sdso_net::reactor::ReactorMesh)) and over the
//! thread-per-peer `TcpMesh` star it replaces. Every spoke keeps a small
//! window of pings in flight to the hub; the hub echoes each one back;
//! the round-trip time of every ping lands in a log₂ histogram.
//!
//! What is gated, and how, follows the split the other baselines use:
//!
//! * **Work metrics** (`total_msgs`, `payload_bytes`) are exact counts —
//!   they drift only when the benchmark itself changes, and are gated
//!   ±tolerance against the committed baseline like `BENCH_1`–`2`.
//! * **`p99_us`** is a log₂-bucket bound, gated within one bucket of the
//!   committed baseline per transport (`BENCH_1` percentile semantics).
//! * **Throughput** is wall-clock and host-dependent, so the absolute
//!   number is informational; what `check` enforces fresh, on one host in
//!   one process, is the *ratio*: the reactor must sustain at least
//!   [`NET_PARITY_FLOOR`] × the thread-per-peer baseline's msgs/sec. That
//!   is the contract the reactor migration was sold on — one poll thread
//!   must not be slower than 256 reader threads.

use std::time::Instant;

use sdso_net::{Endpoint, Payload, SimSpan};

use crate::json::{obj, Json};

/// Bumped when the report layout changes incompatibly.
pub const NET_SCHEMA_VERSION: u64 = 1;

/// Minimum fresh-measured reactor/threaded sustained-throughput ratio the
/// check enforces (1.0 = exact parity; the margin absorbs scheduler
/// noise on loaded CI hosts without hiding a real regression).
pub const NET_PARITY_FLOOR: f64 = 0.9;

/// Spoke count the committed baseline is recorded at.
pub const NET_DEFAULT_SPOKES: usize = 256;

/// Pings each spoke exchanges with the hub.
pub const NET_DEFAULT_PINGS: u32 = 100;

/// Ping body size in bytes (fits one cache line with its header; the
/// exchange is syscall-bound, not bandwidth-bound, at this size).
const PING_BYTES: usize = 56;

/// Pings a spoke keeps in flight at once.
const WINDOW: u32 = 4;

/// Fresh-cluster repetitions per transport; the best run is reported
/// (min-of-N absorbs scheduler jitter, the same estimator the macro
/// suite's recorder-overhead measurement uses).
const NET_REPEATS: usize = 3;

/// One transport's result.
#[derive(Debug, Clone, PartialEq)]
pub struct NetCell {
    /// Transport name (`tcp-reactor` or `tcp`).
    pub transport: String,
    /// Application messages delivered cluster-wide (pings + echoes).
    /// Exact; gated.
    pub total_msgs: u64,
    /// Application payload bytes delivered cluster-wide. Exact; gated.
    pub payload_bytes: u64,
    /// Sustained delivered messages per wall-clock second. Informational
    /// (host-dependent); the reactor/threaded ratio is gated fresh.
    pub msgs_per_sec: f64,
    /// Median ping round-trip, log₂-bucket upper bound in microseconds.
    /// Informational.
    pub p50_us: u64,
    /// 99th-percentile ping round-trip, log₂-bucket upper bound in
    /// microseconds. Gated within one bucket.
    pub p99_us: u64,
}

/// A full transport benchmark report (`BENCH_3.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct NetReport {
    /// Schema version ([`NET_SCHEMA_VERSION`]).
    pub schema: u64,
    /// Spokes the exchange ran with (peers = spokes, plus the hub).
    pub spokes: u64,
    /// Pings per spoke.
    pub pings: u64,
    /// Reactor / threaded sustained-throughput ratio measured on the
    /// recording host. Recorded for the log; the check re-measures fresh.
    pub throughput_ratio: f64,
    /// One cell per transport.
    pub cells: Vec<NetCell>,
}

impl NetReport {
    /// Serializes the report as pretty-printed JSON.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                obj(vec![
                    ("transport", Json::Str(c.transport.clone())),
                    ("total_msgs", Json::Num(c.total_msgs as f64)),
                    ("payload_bytes", Json::Num(c.payload_bytes as f64)),
                    ("msgs_per_sec", Json::Num(c.msgs_per_sec)),
                    ("p50_us", Json::Num(c.p50_us as f64)),
                    ("p99_us", Json::Num(c.p99_us as f64)),
                ])
            })
            .collect();
        obj(vec![
            ("schema", Json::Num(self.schema as f64)),
            ("spokes", Json::Num(self.spokes as f64)),
            ("pings", Json::Num(self.pings as f64)),
            ("throughput_ratio", Json::Num(self.throughput_ratio)),
            ("cells", Json::Arr(cells)),
        ])
        .pretty()
    }

    /// Parses a report previously written by [`NetReport::to_json_string`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or missing field.
    pub fn parse(text: &str) -> Result<NetReport, String> {
        let root = Json::parse(text)?;
        let num = |key: &str| -> Result<f64, String> {
            root.get(key).and_then(Json::as_f64).ok_or_else(|| format!("missing numeric `{key}`"))
        };
        let schema = num("schema")? as u64;
        let spokes = num("spokes")? as u64;
        let pings = num("pings")? as u64;
        let throughput_ratio = num("throughput_ratio")?;
        let raw_cells = root
            .get("cells")
            .and_then(Json::as_array)
            .ok_or_else(|| "missing `cells` array".to_owned())?;
        let mut cells = Vec::with_capacity(raw_cells.len());
        for (i, c) in raw_cells.iter().enumerate() {
            let field = |key: &str| -> Result<f64, String> {
                c.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("cell {i}: missing numeric `{key}`"))
            };
            cells.push(NetCell {
                transport: c
                    .get("transport")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("cell {i}: missing `transport`"))?
                    .to_owned(),
                total_msgs: field("total_msgs")? as u64,
                payload_bytes: field("payload_bytes")? as u64,
                msgs_per_sec: field("msgs_per_sec")?,
                p50_us: field("p50_us")? as u64,
                p99_us: field("p99_us")? as u64,
            });
        }
        Ok(NetReport { schema, spokes, pings, throughput_ratio, cells })
    }

    /// Compares `current` against this baseline: exact work metrics within
    /// ±`tolerance` relative, p99 within one log₂ bucket, per transport;
    /// no cells may appear or vanish. The throughput parity floor is NOT
    /// checked here — it is re-measured fresh by `perf net check` (ratios
    /// travel across hosts, absolute wall numbers do not). Returns
    /// human-readable violations; empty means pass.
    #[must_use]
    pub fn compare(&self, current: &NetReport, tolerance: f64) -> Vec<String> {
        let mut violations = Vec::new();
        if self.schema != current.schema {
            violations.push(format!(
                "schema changed: baseline {} vs current {}",
                self.schema, current.schema
            ));
            return violations;
        }
        if self.spokes != current.spokes || self.pings != current.pings {
            violations.push(format!(
                "shape mismatch: baseline {} spokes × {} pings vs current {} × {}",
                self.spokes, self.pings, current.spokes, current.pings
            ));
            return violations;
        }
        for base in &self.cells {
            let Some(cur) = current.cells.iter().find(|c| c.transport == base.transport) else {
                violations.push(format!("[{}] cell missing from current run", base.transport));
                continue;
            };
            for (metric, b, c) in [
                ("total_msgs", base.total_msgs, cur.total_msgs),
                ("payload_bytes", base.payload_bytes, cur.payload_bytes),
            ] {
                if !within_rel(b as f64, c as f64, tolerance) {
                    violations.push(format!(
                        "[{}] {metric}: baseline {b} vs current {c} (>±{:.0}%)",
                        base.transport,
                        tolerance * 100.0
                    ));
                }
            }
            if !within_one_bucket(base.p99_us, cur.p99_us) {
                violations.push(format!(
                    "[{}] p99_us moved more than one log2 bucket: baseline {} vs current {}",
                    base.transport, base.p99_us, cur.p99_us
                ));
            }
        }
        for cur in &current.cells {
            if !self.cells.iter().any(|b| b.transport == cur.transport) {
                violations.push(format!(
                    "[{}] new cell not in baseline; re-record BENCH_3.json",
                    cur.transport
                ));
            }
        }
        violations
    }
}

/// `b` within ±`tol` relative of `a` (exact zeros must match).
fn within_rel(a: f64, b: f64, tol: f64) -> bool {
    if a == 0.0 {
        return b == 0.0;
    }
    ((b - a) / a).abs() <= tol
}

/// Log₂-bucket percentile bounds may legitimately land one bucket away.
fn within_one_bucket(baseline: u64, current: u64) -> bool {
    let (lo, hi) = if baseline <= current { (baseline, current) } else { (current, baseline) };
    if lo == 0 {
        return hi <= 1;
    }
    hi <= lo.saturating_mul(2).saturating_add(1)
}

/// Rounds `us` up to its log₂ bucket bound, matching the flight
/// recorder's histogram resolution so percentiles stay comparable with
/// the `BENCH_1` exchange histograms.
fn log2_bucket_bound(us: u64) -> u64 {
    if us <= 1 {
        return us;
    }
    u64::MAX >> us.leading_zeros()
}

/// Percentile over raw round-trip samples, reported as a log₂ bound.
fn percentile_us(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    log2_bucket_bound(sorted[rank.min(sorted.len() - 1)])
}

/// Runs the star echo exchange over already-built endpoints (`eps[0]` is
/// the hub) and summarizes it as a [`NetCell`].
fn run_star_echo<E: Endpoint + Send + 'static>(
    transport: &'static str,
    mut eps: Vec<E>,
    pings: u32,
) -> Result<NetCell, String> {
    let spokes = eps.len() - 1;
    let mut hub = eps.remove(0);
    let started = Instant::now();
    let handles: Vec<_> = eps
        .into_iter()
        .map(|mut ep| {
            std::thread::spawn(move || -> Result<(E, Vec<u64>), String> {
                let me = ep.node_id();
                let mut rtts = Vec::with_capacity(pings as usize);
                let mut sent_at = std::collections::VecDeque::with_capacity(WINDOW as usize);
                let mut sent = 0u32;
                let mut acked = 0u32;
                while acked < pings {
                    while sent < pings && sent - acked < WINDOW {
                        let mut body = vec![0u8; PING_BYTES];
                        body[..4].copy_from_slice(&sent.to_le_bytes());
                        sent_at.push_back(Instant::now());
                        ep.send(0, Payload::control(body))
                            .map_err(|e| format!("{transport} spoke {me} send: {e}"))?;
                        sent += 1;
                    }
                    let echo = ep
                        .recv_deadline(SimSpan::from_millis(30_000))
                        .map_err(|e| format!("{transport} spoke {me} recv: {e}"))?
                        .ok_or_else(|| format!("{transport} spoke {me} starved at {acked}"))?;
                    let t0: Instant = sent_at
                        .pop_front()
                        .ok_or_else(|| format!("{transport} spoke {me} echo with no ping"))?;
                    let mut seq = [0u8; 4];
                    seq.copy_from_slice(&echo.payload.bytes[..4]);
                    if u32::from_le_bytes(seq) != acked {
                        return Err(format!("{transport} spoke {me} echo out of order at {acked}"));
                    }
                    rtts.push(t0.elapsed().as_micros() as u64);
                    acked += 1;
                }
                Ok((ep, rtts))
            })
        })
        .collect();

    let total_pings = spokes as u64 * u64::from(pings);
    for _ in 0..total_pings {
        let ping = hub
            .recv_deadline(SimSpan::from_millis(30_000))
            .map_err(|e| format!("{transport} hub recv: {e}"))?
            .ok_or_else(|| format!("{transport} hub starved"))?;
        hub.send(ping.from, Payload::control(ping.payload.bytes))
            .map_err(|e| format!("{transport} hub echo: {e}"))?;
    }

    let mut rtts = Vec::with_capacity(total_pings as usize);
    let mut spoke_eps = Vec::with_capacity(spokes);
    for handle in handles {
        let (ep, spoke_rtts) =
            handle.join().map_err(|_| format!("{transport} spoke panicked"))??;
        rtts.extend(spoke_rtts);
        spoke_eps.push(ep);
    }
    let elapsed = started.elapsed();
    drop(spoke_eps);
    drop(hub);
    rtts.sort_unstable();
    // Pings + echoes, each delivered exactly once.
    let total_msgs = total_pings * 2;
    Ok(NetCell {
        transport: transport.to_owned(),
        total_msgs,
        payload_bytes: total_msgs * PING_BYTES as u64,
        msgs_per_sec: total_msgs as f64 / elapsed.as_secs_f64(),
        p50_us: percentile_us(&rtts, 50.0),
        p99_us: percentile_us(&rtts, 99.0),
    })
}

/// Runs the full suite — the reactor star and the thread-per-peer star,
/// same host, back to back — and assembles the report. Progress lines go
/// to stderr like the other suites'.
///
/// # Errors
///
/// Returns transport setup/run errors; on non-Linux hosts, an error that
/// the reactor transport is unavailable.
pub fn run_net_suite(spokes: usize, pings: u32) -> Result<NetReport, String> {
    let mut reactor = run_reactor_cell(spokes, pings)?;
    let mut threaded = {
        let eps = sdso_net::tcp::TcpMesh::star(spokes + 1).map_err(|e| format!("tcp star: {e}"))?;
        run_star_echo("tcp", eps, pings)?
    };
    for _ in 1..NET_REPEATS {
        let r = run_reactor_cell(spokes, pings)?;
        if r.msgs_per_sec > reactor.msgs_per_sec {
            reactor = r;
        }
        let eps = sdso_net::tcp::TcpMesh::star(spokes + 1).map_err(|e| format!("tcp star: {e}"))?;
        let t = run_star_echo("tcp", eps, pings)?;
        if t.msgs_per_sec > threaded.msgs_per_sec {
            threaded = t;
        }
    }
    eprintln!(
        "  tcp-reactor: {:>9.0} msgs/s, p50 {}us, p99 {}us (best of {NET_REPEATS})",
        reactor.msgs_per_sec, reactor.p50_us, reactor.p99_us
    );
    eprintln!(
        "  tcp        : {:>9.0} msgs/s, p50 {}us, p99 {}us (best of {NET_REPEATS})",
        threaded.msgs_per_sec, threaded.p50_us, threaded.p99_us
    );
    let throughput_ratio = reactor.msgs_per_sec / threaded.msgs_per_sec;
    eprintln!("  reactor/threaded throughput ratio: {throughput_ratio:.2}x");
    Ok(NetReport {
        schema: NET_SCHEMA_VERSION,
        spokes: spokes as u64,
        pings: u64::from(pings),
        throughput_ratio,
        cells: vec![reactor, threaded],
    })
}

#[cfg(target_os = "linux")]
fn run_reactor_cell(spokes: usize, pings: u32) -> Result<NetCell, String> {
    let eps = sdso_net::reactor::ReactorMesh::star(spokes + 1)
        .map_err(|e| format!("reactor star: {e}"))?;
    run_star_echo("tcp-reactor", eps, pings)
}

#[cfg(not(target_os = "linux"))]
fn run_reactor_cell(_spokes: usize, _pings: u32) -> Result<NetCell, String> {
    Err("the tcp-reactor transport requires Linux; `perf net` cannot run here".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> NetReport {
        NetReport {
            schema: NET_SCHEMA_VERSION,
            spokes: 4,
            pings: 10,
            throughput_ratio: 1.2,
            cells: vec![
                NetCell {
                    transport: "tcp-reactor".into(),
                    total_msgs: 80,
                    payload_bytes: 80 * PING_BYTES as u64,
                    msgs_per_sec: 5000.0,
                    p50_us: 127,
                    p99_us: 511,
                },
                NetCell {
                    transport: "tcp".into(),
                    total_msgs: 80,
                    payload_bytes: 80 * PING_BYTES as u64,
                    msgs_per_sec: 4000.0,
                    p50_us: 255,
                    p99_us: 1023,
                },
            ],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = report();
        let parsed = NetReport::parse(&r.to_json_string()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn compare_accepts_identical_and_one_bucket_drift() {
        let base = report();
        let mut cur = report();
        assert!(base.compare(&cur, 0.25).is_empty());
        cur.cells[0].p99_us = 1023; // one bucket up from 511
        cur.cells[0].msgs_per_sec = 1.0; // informational: never gated here
        assert!(base.compare(&cur, 0.25).is_empty());
    }

    #[test]
    fn compare_flags_work_and_percentile_drift() {
        let base = report();
        let mut cur = report();
        cur.cells[1].total_msgs = 200;
        cur.cells[0].p99_us = 4095; // three buckets up
        let violations = base.compare(&cur, 0.25);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations.iter().any(|v| v.contains("total_msgs")));
        assert!(violations.iter().any(|v| v.contains("p99_us")));
    }

    #[test]
    fn compare_flags_shape_and_cell_set_changes() {
        let base = report();
        let mut wrong_shape = report();
        wrong_shape.spokes = 8;
        assert_eq!(base.compare(&wrong_shape, 0.25).len(), 1);
        let mut extra = report();
        extra.cells.push(NetCell {
            transport: "udp".into(),
            total_msgs: 1,
            payload_bytes: 1,
            msgs_per_sec: 1.0,
            p50_us: 1,
            p99_us: 1,
        });
        assert!(base.compare(&extra, 0.25).iter().any(|v| v.contains("new cell")));
    }

    #[test]
    fn log2_bounds_match_recorder_buckets() {
        assert_eq!(log2_bucket_bound(0), 0);
        assert_eq!(log2_bucket_bound(1), 1);
        assert_eq!(log2_bucket_bound(2), 3);
        assert_eq!(log2_bucket_bound(200), 255);
        assert_eq!(log2_bucket_bound(512), 1023);
        assert!(within_one_bucket(511, 1023));
        assert!(!within_one_bucket(511, 2047));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn small_star_suite_runs_end_to_end() {
        // A tiny shape keeps this a unit test; CI runs the full 256-spoke
        // shape via `perf net`.
        let report = run_net_suite(4, 10).unwrap();
        assert_eq!(report.cells.len(), 2);
        for cell in &report.cells {
            assert_eq!(cell.total_msgs, 80);
            assert!(cell.msgs_per_sec > 0.0);
        }
        assert!(report.throughput_ratio > 0.0);
    }
}
