//! The scale benchmark behind `perf shard` (`BENCH_4.json`).
//!
//! Two cluster sizes, two protocols: the region-sharded MSYNC2-SHARD
//! against full-mesh MSYNC2 on [`Scenario::scaled`] grids at 64 and 256
//! nodes, run under the deterministic virtual-time simulator. The gated
//! metric is the paper-extension scaling contract: sharded per-node
//! *live* bytes/tick as a fraction of full-mesh, measured in a
//! steady-state window (see [`sdso_harness::ShardWindow`] — the
//! cumulative short-run ratio flatters the mesh, whose far-pair trail
//! debt only ships late in a run).
//!
//! What is gated, and how:
//!
//! * **Work metrics** (steady bytes/node-tick per protocol, the
//!   exchange ratio, the suppressed-diff count) are exact under the
//!   virtual-time simulator — they drift only when the protocols
//!   change — and are gated ±tolerance against the committed baseline
//!   like `BENCH_1`–`3`.
//! * **Ratio ceilings** are the contract itself, enforced *fresh* at
//!   both record and check time: the 256-node steady traffic ratio must
//!   stay at or below [`SHARD_RATIO_CEILING_256`] (the flagship ≤25%
//!   scale claim), the 64-node one below [`SHARD_RATIO_CEILING_64`].
//! * **Sub-linear growth**: quadrupling the cluster (64 → 256) must not
//!   quadruple sharded per-node traffic — the growth factor is capped
//!   fresh at [`SHARD_GROWTH_CAP`], while the mesh's same factor is
//!   reported for contrast.

use sdso_harness::{run_shard_window, ShardWindow};
use sdso_sim::NetworkModel;

use crate::json::{obj, Json};

/// Bumped when the report layout changes incompatibly.
pub const SHARD_SCHEMA_VERSION: u64 = 1;

/// Flagship ceiling: at 256 nodes, sharded steady bytes/node-tick must
/// be at most this fraction of full-mesh.
pub const SHARD_RATIO_CEILING_256: f64 = 0.25;

/// Ceiling at 64 nodes. Looser than the 256-node one: with fewer nodes
/// the interest sets cover a larger fraction of the grid, so sharding
/// buys less — the contract is that the ratio *improves* with scale.
/// (Measured steady ratio ~0.50 at the recorded shape.)
pub const SHARD_RATIO_CEILING_64: f64 = 0.55;

/// Cap on sharded steady bytes/node-tick growth across the 64 → 256
/// step (a 4× cluster). Full-mesh traffic grows roughly with the
/// cluster; O(interest) traffic must grow far slower.
pub const SHARD_GROWTH_CAP: f64 = 2.5;

/// The benchmark shapes: `(nodes, warmup ticks, full ticks)`. The
/// 256-node window starts at 48 ticks — past the warmup transient where
/// the mesh's far pairs have not yet come due — and 96 ticks keeps the
/// pairing affordable on a CI runner while reproducing the longer-window
/// ratio to within a point.
pub const SHARD_SHAPES: &[(u16, u64, u64)] = &[(64, 12, 60), (256, 48, 96)];

/// One cluster size's result.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCell {
    /// Cluster size (one team per node).
    pub nodes: u64,
    /// Warmup run length in ticks (excluded from the steady window).
    pub warmup: u64,
    /// Full run length in ticks.
    pub ticks: u64,
    /// Full-mesh MSYNC2 live bytes/node-tick in the steady window.
    /// Exact; gated.
    pub mesh_bytes_per_node_tick: f64,
    /// Sharded MSYNC2-SHARD live bytes/node-tick in the steady window.
    /// Exact; gated.
    pub sharded_bytes_per_node_tick: f64,
    /// Sharded / mesh steady rate — the contract metric. Gated fresh
    /// against the per-size ceiling and ±tolerance against baseline.
    pub traffic_ratio: f64,
    /// Sharded / mesh live exchanges per node-tick over the full run.
    /// Exact; gated.
    pub exchange_ratio: f64,
    /// Diffs the interest router held back from live exchanges over the
    /// full run. Exact; gated (and must be non-zero fresh).
    pub suppressed: u64,
}

/// A full scale benchmark report (`BENCH_4.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Schema version ([`SHARD_SCHEMA_VERSION`]).
    pub schema: u64,
    /// One cell per cluster size, ascending.
    pub cells: Vec<ShardCell>,
}

impl ShardReport {
    /// Serializes the report as pretty-printed JSON.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                obj(vec![
                    ("nodes", Json::Num(c.nodes as f64)),
                    ("warmup", Json::Num(c.warmup as f64)),
                    ("ticks", Json::Num(c.ticks as f64)),
                    ("mesh_bytes_per_node_tick", Json::Num(c.mesh_bytes_per_node_tick)),
                    ("sharded_bytes_per_node_tick", Json::Num(c.sharded_bytes_per_node_tick)),
                    ("traffic_ratio", Json::Num(c.traffic_ratio)),
                    ("exchange_ratio", Json::Num(c.exchange_ratio)),
                    ("suppressed", Json::Num(c.suppressed as f64)),
                ])
            })
            .collect();
        obj(vec![("schema", Json::Num(self.schema as f64)), ("cells", Json::Arr(cells))]).pretty()
    }

    /// Parses a report previously written by
    /// [`ShardReport::to_json_string`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or missing field.
    pub fn parse(text: &str) -> Result<ShardReport, String> {
        let root = Json::parse(text)?;
        let schema = root
            .get("schema")
            .and_then(Json::as_f64)
            .ok_or_else(|| "missing numeric `schema`".to_owned())? as u64;
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
            cells.push(ShardCell {
                nodes: field("nodes")? as u64,
                warmup: field("warmup")? as u64,
                ticks: field("ticks")? as u64,
                mesh_bytes_per_node_tick: field("mesh_bytes_per_node_tick")?,
                sharded_bytes_per_node_tick: field("sharded_bytes_per_node_tick")?,
                traffic_ratio: field("traffic_ratio")?,
                exchange_ratio: field("exchange_ratio")?,
                suppressed: field("suppressed")? as u64,
            });
        }
        Ok(ShardReport { schema, cells })
    }

    /// Compares `current` against this baseline: every work metric
    /// within ±`tolerance` relative, per cluster size; no cells may
    /// appear or vanish; shapes must match exactly. The ratio ceilings
    /// and the growth cap are NOT checked here — `perf shard check`
    /// enforces them fresh on the current run (the contract must hold
    /// outright, not merely not-drift). Returns human-readable
    /// violations; empty means pass.
    #[must_use]
    pub fn compare(&self, current: &ShardReport, tolerance: f64) -> Vec<String> {
        let mut violations = Vec::new();
        if self.schema != current.schema {
            violations.push(format!(
                "schema changed: baseline {} vs current {}",
                self.schema, current.schema
            ));
            return violations;
        }
        for base in &self.cells {
            let Some(cur) = current.cells.iter().find(|c| c.nodes == base.nodes) else {
                violations.push(format!("[n={}] cell missing from current run", base.nodes));
                continue;
            };
            if base.warmup != cur.warmup || base.ticks != cur.ticks {
                violations.push(format!(
                    "[n={}] shape mismatch: baseline {}..{} ticks vs current {}..{}",
                    base.nodes, base.warmup, base.ticks, cur.warmup, cur.ticks
                ));
                continue;
            }
            for (metric, b, c) in [
                (
                    "mesh_bytes_per_node_tick",
                    base.mesh_bytes_per_node_tick,
                    cur.mesh_bytes_per_node_tick,
                ),
                (
                    "sharded_bytes_per_node_tick",
                    base.sharded_bytes_per_node_tick,
                    cur.sharded_bytes_per_node_tick,
                ),
                ("traffic_ratio", base.traffic_ratio, cur.traffic_ratio),
                ("exchange_ratio", base.exchange_ratio, cur.exchange_ratio),
                ("suppressed", base.suppressed as f64, cur.suppressed as f64),
            ] {
                if !within_rel(b, c, tolerance) {
                    violations.push(format!(
                        "[n={}] {metric}: baseline {b:.4} vs current {c:.4} (>±{:.0}%)",
                        base.nodes,
                        tolerance * 100.0
                    ));
                }
            }
        }
        for cur in &current.cells {
            if !self.cells.iter().any(|b| b.nodes == cur.nodes) {
                violations.push(format!(
                    "[n={}] new cell not in baseline; re-record BENCH_4.json",
                    cur.nodes
                ));
            }
        }
        violations
    }

    /// Enforces the scale contract on this (freshly measured) report:
    /// per-size ratio ceilings, non-zero suppression, and the sub-linear
    /// growth cap across the 64 → 256 step. Returns violations; empty
    /// means the contract holds.
    #[must_use]
    pub fn contract_violations(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for cell in &self.cells {
            let ceiling = match cell.nodes {
                64 => SHARD_RATIO_CEILING_64,
                256 => SHARD_RATIO_CEILING_256,
                _ => continue,
            };
            if cell.traffic_ratio > ceiling {
                violations.push(format!(
                    "[n={}] steady traffic ratio {:.4} exceeds the {ceiling} ceiling",
                    cell.nodes, cell.traffic_ratio
                ));
            }
            if cell.suppressed == 0 {
                violations.push(format!(
                    "[n={}] the interest router suppressed nothing — routing is inert",
                    cell.nodes
                ));
            }
        }
        if let (Some(small), Some(large)) =
            (self.cells.iter().find(|c| c.nodes == 64), self.cells.iter().find(|c| c.nodes == 256))
        {
            if small.sharded_bytes_per_node_tick > 0.0 {
                let growth = large.sharded_bytes_per_node_tick / small.sharded_bytes_per_node_tick;
                if growth > SHARD_GROWTH_CAP {
                    violations.push(format!(
                        "sharded per-node traffic grew {growth:.2}x across the 4x cluster step \
                         (cap {SHARD_GROWTH_CAP}x): scaling is not sub-linear"
                    ));
                }
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

/// Summarizes one steady-state window pairing as a report cell.
fn cell_from_window(nodes: u16, warmup: u64, ticks: u64, win: &ShardWindow) -> ShardCell {
    ShardCell {
        nodes: u64::from(nodes),
        warmup,
        ticks,
        mesh_bytes_per_node_tick: win.mesh_steady_rate(),
        sharded_bytes_per_node_tick: win.sharded_steady_rate(),
        traffic_ratio: win.steady_traffic_ratio(),
        exchange_ratio: win.full.exchange_ratio(),
        suppressed: win.full.suppressed(),
    }
}

/// Runs the full suite — both cluster sizes of [`SHARD_SHAPES`], each a
/// mesh/sharded pairing at warmup and full length — and assembles the
/// report. Progress lines go to stderr like the other suites'.
///
/// # Errors
///
/// Returns simulator errors, and fails outright if any run's replicas
/// do not converge: a traffic number from a diverged run is meaningless.
pub fn run_shard_suite() -> Result<ShardReport, String> {
    let mut cells = Vec::with_capacity(SHARD_SHAPES.len());
    for &(nodes, warmup, ticks) in SHARD_SHAPES {
        let t0 = std::time::Instant::now();
        let win = run_shard_window(nodes, 1, warmup, ticks, NetworkModel::paper_testbed())
            .map_err(|e| format!("n={nodes}: {e}"))?;
        for (tag, cmp) in [("warmup", &win.warmup), ("full", &win.full)] {
            if !cmp.both_converged() {
                return Err(format!("n={nodes}: {tag} run did not converge on every replica"));
            }
        }
        let cell = cell_from_window(nodes, warmup, ticks, &win);
        eprintln!(
            "  n={nodes:<3} window {warmup}..{ticks}t: mesh {:.0} B/nt, sharded {:.0} B/nt, \
             ratio {:.4}, suppressed {} [{:.1?} wall]",
            cell.mesh_bytes_per_node_tick,
            cell.sharded_bytes_per_node_tick,
            cell.traffic_ratio,
            cell.suppressed,
            t0.elapsed()
        );
        cells.push(cell);
    }
    Ok(ShardReport { schema: SHARD_SCHEMA_VERSION, cells })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ShardReport {
        ShardReport {
            schema: SHARD_SCHEMA_VERSION,
            cells: vec![
                ShardCell {
                    nodes: 64,
                    warmup: 12,
                    ticks: 60,
                    mesh_bytes_per_node_tick: 10_000.0,
                    sharded_bytes_per_node_tick: 4_000.0,
                    traffic_ratio: 0.4,
                    exchange_ratio: 1.1,
                    suppressed: 50_000,
                },
                ShardCell {
                    nodes: 256,
                    warmup: 48,
                    ticks: 96,
                    mesh_bytes_per_node_tick: 40_000.0,
                    sharded_bytes_per_node_tick: 8_000.0,
                    traffic_ratio: 0.2,
                    exchange_ratio: 1.1,
                    suppressed: 1_000_000,
                },
            ],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = report();
        let parsed = ShardReport::parse(&r.to_json_string()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn compare_accepts_identical_and_flags_drift() {
        let base = report();
        assert!(base.compare(&report(), 0.05).is_empty());
        let mut cur = report();
        cur.cells[1].sharded_bytes_per_node_tick *= 2.0;
        cur.cells[0].suppressed = 1;
        let violations = base.compare(&cur, 0.05);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations.iter().any(|v| v.contains("sharded_bytes_per_node_tick")));
        assert!(violations.iter().any(|v| v.contains("suppressed")));
    }

    #[test]
    fn compare_flags_shape_and_cell_set_changes() {
        let base = report();
        let mut wrong = report();
        wrong.cells[0].ticks = 99;
        assert_eq!(base.compare(&wrong, 0.05).len(), 1);
        let mut extra = report();
        extra.cells.push(ShardCell { nodes: 1024, ..report().cells[1].clone() });
        assert!(base.compare(&extra, 0.05).iter().any(|v| v.contains("new cell")));
    }

    #[test]
    fn contract_enforces_ceilings_and_growth() {
        assert!(report().contract_violations().is_empty());
        let mut over = report();
        over.cells[1].traffic_ratio = 0.3;
        assert!(over.contract_violations().iter().any(|v| v.contains("ceiling")));
        let mut inert = report();
        inert.cells[0].suppressed = 0;
        assert!(inert.contract_violations().iter().any(|v| v.contains("inert")));
        let mut linear = report();
        linear.cells[1].sharded_bytes_per_node_tick =
            linear.cells[0].sharded_bytes_per_node_tick * 4.0;
        assert!(linear.contract_violations().iter().any(|v| v.contains("sub-linear")));
    }
}
