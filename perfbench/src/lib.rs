//! End-to-end, layer-by-layer benchmark of whole tank-game runs.
//!
//! Every game runs through the program's public entry points only
//! (`SimCluster::run`, `ReactorMesh::local`, `run_node` /
//! `run_node_obs`); each layer is timed from outside by the [`probe`]
//! wrapped around the endpoint `run_node` is handed. See `README.md` in
//! this directory for the workloads and how to read the metrics.

pub mod game;
pub mod host;
pub mod probe;
pub mod replay;
pub mod run;
pub mod stats;
