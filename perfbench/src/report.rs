//! The metric catalogue, the command line, and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names and units;
//! `tests/contract.rs` keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use macgame_telemetry::Snapshot;

use crate::stats::ratio;

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("qps", "queries/s"),
    ("batch_p50_ms", "ms"),
    ("batch_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_ratio", "1"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run. A layer
/// the workload does not exercise reads 0. Counts and busy times are per
/// unit of fixed work: per query on the serve workloads, per pass on
/// slot-engines. `serve.socket` is derived by subtraction;
/// `bench.harness` is the benchmark's own time inside its root spans.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.frame.us_per_query", "us"),
    ("serve.parse.us_per_query", "us"),
    ("serve.batch.us_per_query", "us"),
    ("serve.encode.us_per_query", "us"),
    ("serve.reply_bytes_per_query", "bytes"),
    ("serve.socket.ms_per_batch", "ms"),
    ("serve.reply_cache.hit_ratio", "1"),
    ("serve.reply_cache.evictions", "count"),
    ("serve.coalesced_ratio", "1"),
    ("dcf.solve_cache.hit_ratio", "1"),
    ("dcf.solver.solves", "count"),
    ("dcf.solver.iterations_per_solve", "count"),
    ("dcf.optimal.busy_s", "s"),
    ("sim.engine.busy_s", "s"),
    ("sim.engine.slots", "count"),
    ("sim.engine.mslots_per_s", "Mslots/s"),
    ("sim.engine.idle_ratio", "1"),
    ("multihop.topology.busy_s", "s"),
    ("multihop.localgame.busy_s", "s"),
    ("multihop.convergence.busy_s", "s"),
    ("multihop.convergence.rounds", "count"),
    ("multihop.spatial.busy_s", "s"),
    ("multihop.spatial.slots", "count"),
    ("multihop.spatial.mslots_per_s", "Mslots/s"),
    ("multihop.spatial.attempts_per_slot", "1"),
    ("bench.client.us_per_query", "us"),
    ("telemetry.overhead_ratio", "1"),
    ("bench.harness.self_share", "1"),
    ("bench.client.self_share", "1"),
    ("serve.socket.self_share", "1"),
    ("serve.frame.self_share", "1"),
    ("serve.parse.self_share", "1"),
    ("serve.batch.self_share", "1"),
    ("serve.encode.self_share", "1"),
    ("dcf.optimal.self_share", "1"),
    ("sim.engine.self_share", "1"),
    ("multihop.topology.self_share", "1"),
    ("multihop.localgame.self_share", "1"),
    ("multihop.convergence.self_share", "1"),
    ("multihop.spatial.self_share", "1"),
];

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Tables II and III on the single-hop slot engine, then the Section
    /// VII.B run on the spatial one.
    SlotEngines,
    /// `served` over TCP, every query a reply-cache hit.
    ServeHot,
    /// `served` over TCP, most queries miss, solve and evict.
    ServeChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SlotEngines,
        Workload::ServeHot,
        Workload::ServeChurn,
    ];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SlotEngines => "slot-engines",
            Workload::ServeHot => "serve-hot",
            Workload::ServeChurn => "serve-churn",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is drawn from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// The `served` executable the serve workloads spawn.
    pub served: PathBuf,
}

/// Usage text.
pub const USAGE: &str = "usage: perfbench --workload <slot-engines|serve-hot|serve-churn> \
--seed <n> --seconds <s> --trace <0|1> --served <path>";

/// Parses `argv[1..]`.
///
/// # Errors
///
/// Returns a message naming the bad or missing flag.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut iter = args.into_iter();
    while let Some(flag) = iter.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("unexpected argument `{flag}`"));
        };
        if !matches!(name, "workload" | "seed" | "seconds" | "trace" | "served") {
            return Err(format!("unknown flag `{flag}`"));
        }
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let get = |name: &str| {
        flags
            .get(name)
            .ok_or_else(|| format!("--{name} is required"))
    };
    let name = get("workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name.as_str())
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".to_string());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    let served = PathBuf::from(get("served")?);
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        served,
    })
}

/// What one run measured and checked.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Checked operations.
    pub attempted: u64,
    /// Checked operations whose output was wrong or missing.
    pub failed: u64,
    /// Metric values by catalogue name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// `failed / attempted` (0 when nothing was attempted).
    #[must_use]
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Sets the solver metrics from telemetry counters: solves per unit of
    /// work (`units` of it were counted), iterations per solve, and the
    /// solve cache's hit ratio.
    pub fn set_solver_metrics(&mut self, counts: &Snapshot, units: f64) {
        let solves = counts.counter("dcf.solver.solves") as f64;
        let hits = counts.counter("dcf.cache.hits") as f64;
        let lookups = hits + counts.counter("dcf.cache.misses") as f64;
        self.set("dcf.solver.solves", solves / units);
        self.set(
            "dcf.solver.iterations_per_solve",
            ratio(counts.counter("dcf.solver.iterations") as f64, solves),
        );
        self.set("dcf.solve_cache.hit_ratio", ratio(hits, lookups));
    }
}

/// Renders the result line: every end-to-end metric (untraced) or every
/// per-layer metric (traced), with its unit.
///
/// # Errors
///
/// Fails when nothing was checked, on a metric outside the catalogue, a
/// missing end-to-end metric, or a non-finite value — all bugs in a
/// workload.
pub fn render(outcome: &Outcome, trace: bool) -> Result<String, String> {
    if outcome.attempted == 0 {
        return Err("the run checked no operation".to_string());
    }
    let catalogue = if trace { PER_LAYER } else { END_TO_END };
    if let Some(stray) = outcome
        .metrics
        .keys()
        .find(|k| !catalogue.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric `{stray}` is not in the catalogue"));
    }
    let mut metrics = String::new();
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric `{name}` was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric `{name}` is {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let args = parse_args(argv(
            "--served s --workload serve-hot --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(args.workload, Workload::ServeHot);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--served s --workload nope --seed 1 --seconds 1 --trace 0",
            "--served s --workload serve-hot --seed 1 --seconds 1",
            "--served s --workload serve-hot --seed x --seconds 1 --trace 0",
            "--served s --workload serve-hot --seed 1 --seconds 1 --trace 2",
            "--served s --workload serve-hot --seed 1 --seconds 0 --trace 0",
            "--workload serve-hot --seed 1 --seconds 1 --trace 0",
            "--bogus 1",
        ] {
            assert!(parse_args(argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn render_requires_every_end_to_end_metric_and_rejects_strays() {
        let mut outcome = Outcome {
            attempted: 4,
            failed: 0,
            metrics: BTreeMap::new(),
        };
        assert!(render(&outcome, false).is_err());
        for (name, _) in END_TO_END {
            outcome.set(name, 1.5);
        }
        let line = render(&outcome, false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0"));
        outcome.set("serve.frame.us_per_query", 1.0);
        assert!(render(&outcome, false).is_err());
    }
}
