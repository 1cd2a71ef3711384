//! The six workloads. Each file states why its workload exists and
//! which layer dominates it.

pub mod call_rate;
pub mod coll;
pub mod graph_frontier;
pub mod sort_bulk;

/// Workload names in the order they run and are reported.
pub const NAMES: [&str; 6] = [
    "sort_bulk",
    "graph_frontier",
    "call_rate",
    "coll_blocking",
    "coll_nonblocking",
    "coll_persistent",
];
