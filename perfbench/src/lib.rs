//! End-to-end and per-layer benchmark of the macgame workspace.
//!
//! One command runs one of three workloads — the single-hop and spatial
//! slot engines, and the `served` socket path with a hot and a churning
//! cache — and prints its metrics as one JSON line. See `README.md` for
//! the workloads, the metrics, and how to run it.

pub mod engines;
pub mod multihop;
pub mod report;
pub mod rng;
pub mod serve;
pub mod singlehop;
pub mod stats;
pub mod trace;

use report::{Args, Outcome, Workload};
use trace::Tracer;

/// Runs the workload `args` names.
///
/// # Errors
///
/// Fails when the benchmark itself cannot proceed; wrong outputs are
/// counted in the outcome instead.
pub fn run(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    match args.workload {
        Workload::SlotEngines => engines::run(args, tracer),
        Workload::ServeHot => serve::run(&serve::HOT, args, tracer),
        Workload::ServeChurn => serve::run(&serve::CHURN, args, tracer),
    }
}
