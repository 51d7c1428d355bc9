//! The `slot-engines` workload: a fixed, seeded pass of reproduction work
//! on both slot engines, repeated for the measured phase.
//!
//! A pass reproduces Tables II and III on the single-hop engine
//! ([`crate::singlehop`]), then the Section VII.B run on the spatial engine
//! ([`crate::multihop`]). The two share one workload because the
//! single-hop engine alone was the most sensitive to the reference
//! machine's noisy neighbours (its run-to-run spread reached 0.54 against a
//! 0.25 bound); the spatial engine's larger, steadier share dilutes that.
//!
//! Every pass of one run does the same work on the same seed, so any pass
//! whose deterministic counters differ from the first is a failure, and
//! every difference between the times of two passes comes from the
//! machine, not the program. On the reference machine (a shared VM) the
//! same CPU-bound point ran up to twice as slow in stretches lasting from
//! seconds to minutes, so a median pass time measures how much of the run
//! fell into slow stretches. `run_s` is instead the quiet pass time: the
//! sum, over the pass's experiment points, of each point's fastest time in
//! the run ([`quiet_seconds`]). The pass is also this workload's "batch":
//! its work is fixed, so on a quiet machine every pass takes the same time
//! and `batch_p50_ms` and `batch_p90_ms` both report the quiet pass time.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use macgame_telemetry::{self as telemetry, CollectingRecorder, Snapshot};

use crate::report::{Args, Outcome};
use crate::stats::{median, peak_rss_mib, ratio};
use crate::trace::Tracer;
use crate::{multihop, singlehop};

/// Fewest passes a phase runs, however long they take.
pub const MIN_PASSES: usize = 2;

/// What one pass did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Pass {
    /// Wall time of each experiment point, in the order the pass ran them.
    pub points: Vec<f64>,
    /// Calls into layer functions (the pass's "queries").
    pub queries: u64,
    /// Outcome of each output check of the pass.
    pub checks: Vec<bool>,
    /// Deterministic counters that must repeat exactly in every pass.
    pub fingerprint: Vec<u64>,
    /// Workload-specific work counts of the pass.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Pass {
    /// Appends everything `other` did to this pass.
    pub fn absorb(&mut self, other: Pass) {
        self.queries += other.queries;
        self.points.extend(other.points);
        self.checks.extend(other.checks);
        self.fingerprint.extend(other.fingerprint);
        self.counts.extend(other.counts);
    }

    /// Runs one experiment point `f` inside a root span of group `group`.
    ///
    /// # Errors
    ///
    /// Propagates `f`'s error.
    pub fn point<T>(
        &mut self,
        tracer: &Tracer,
        group: usize,
        f: impl FnOnce(&mut Pass) -> Result<T, String>,
    ) -> Result<T, String> {
        let start = Instant::now();
        let done = tracer.root("bench.harness", group as u64, || f(self));
        self.points.push(start.elapsed().as_secs_f64());
        done
    }
}

/// Runs `pass(index)` until `seconds` have passed, at least
/// [`MIN_PASSES`] times.
///
/// # Errors
///
/// Propagates the first failing pass.
pub fn repeat(
    seconds: f64,
    first_index: usize,
    mut pass: impl FnMut(usize) -> Result<Pass, String>,
) -> Result<Vec<Pass>, String> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        passes.push(pass(first_index + passes.len())?);
    }
    Ok(passes)
}

/// The quiet pass time: the sum over experiment points of each point's
/// fastest time across `passes`. Slow stretches of the machine only add
/// time, so a point's fastest run is the one least disturbed by them; a
/// point needs one undisturbed moment in the run, where a whole pass would
/// need an undisturbed stretch as long as itself.
#[must_use]
pub fn quiet_seconds(passes: &[Pass]) -> f64 {
    let points = passes.iter().map(|p| p.points.len()).min().unwrap_or(0);
    (0..points)
        .map(|i| {
            passes
                .iter()
                .map(|p| p.points[i])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// Counts checks: each pass's own checks, plus one repetition check per
/// pass after the first (its fingerprint must equal the first pass's).
fn tally(passes: &[Pass], outcome: &mut Outcome) {
    for pass in passes {
        outcome.attempted += pass.checks.len() as u64;
        outcome.failed += pass.checks.iter().filter(|ok| !**ok).count() as u64;
    }
    for pass in passes.iter().skip(1) {
        outcome.attempted += 1;
        outcome.failed += u64::from(pass.fingerprint != passes[0].fingerprint);
    }
}

/// The traced run's passes with spans and the telemetry recorder.
#[derive(Debug)]
pub struct Traced {
    /// The traced passes.
    pub traced: Vec<Pass>,
    /// Telemetry counters of the traced passes.
    pub counts: Snapshot,
    /// Self seconds per layer over the traced passes.
    pub own: BTreeMap<&'static str, f64>,
}

impl Traced {
    /// Mean of workload count `name` over the traced passes.
    #[must_use]
    pub fn per_pass(&self, name: &str) -> f64 {
        self.traced
            .iter()
            .map(|p| p.counts.get(name).copied().unwrap_or(0.0))
            .sum::<f64>()
            / self.traced.len() as f64
    }

    /// Self seconds of `layer` per traced pass.
    #[must_use]
    pub fn busy_s(&self, layer: &str) -> f64 {
        self.own.get(layer).copied().unwrap_or(0.0) / self.traced.len() as f64
    }

    /// Telemetry counter `name` per traced pass.
    #[must_use]
    pub fn counter_per_pass(&self, name: &str) -> f64 {
        self.counts.counter(name) as f64 / self.traced.len() as f64
    }
}

/// One pass over both engines.
fn pass(
    (single, multi): &(singlehop::Inputs, multihop::Inputs),
    index: usize,
    tracer: &Tracer,
) -> Result<Pass, String> {
    let mut pass = singlehop::pass(single, index, tracer)?;
    pass.absorb(multihop::pass(multi, index, tracer)?);
    Ok(pass)
}

/// Runs the workload: the untraced run reports the end-to-end metrics; the
/// traced run alternates untraced and traced passes and takes the
/// per-layer metrics from the traced ones.
///
/// # Errors
///
/// Propagates failures of set-up or passes.
pub fn run(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let set_up = || -> Result<_, String> {
        Ok((singlehop::inputs(args.seed)?, multihop::inputs(args.seed)?))
    };
    let mut outcome = Outcome::default();
    if !args.trace {
        // Every pass builds its own inputs, so the set-ups are timed
        // across the whole run, in the same mix of quiet and slow
        // stretches as the passes, not only in its first moments.
        let off = Tracer::new(false);
        let mut setup_s = Vec::new();
        let passes = repeat(args.seconds, 0, |i| {
            let start = Instant::now();
            let inputs = set_up()?;
            setup_s.push(start.elapsed().as_secs_f64());
            pass(&inputs, i, &off)
        })?;
        tally(&passes, &mut outcome);
        let run_s = quiet_seconds(&passes);
        outcome.set("setup_s", median(&setup_s));
        outcome.set("run_s", run_s);
        outcome.set("qps", ratio(passes[0].queries as f64, run_s));
        outcome.set("batch_p50_ms", run_s * 1e3);
        outcome.set("batch_p90_ms", run_s * 1e3);
        outcome.set("peak_rss_mb", peak_rss_mib(None).unwrap_or(0.0));
        outcome.set("ok_ratio", 1.0 - outcome.fail_ratio());
        return Ok(outcome);
    }

    // Traced and untraced passes alternate, so drift in machine speed
    // cancels out of the overhead ratio. The recorder is installed only
    // while a traced pass runs.
    let inputs = set_up()?;
    let off = Tracer::new(false);
    let recorder = Arc::new(CollectingRecorder::new());
    let all = repeat(args.seconds, 0, |i| {
        if i % 2 == 0 {
            return pass(&inputs, i, &off);
        }
        telemetry::set_recorder(recorder.clone());
        let done = pass(&inputs, i, tracer);
        telemetry::clear_recorder();
        done
    })?;
    tally(&all, &mut outcome);
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    for (i, done) in all.into_iter().enumerate() {
        if i % 2 == 1 {
            traced.push(done)
        } else {
            untraced.push(done)
        }
    }

    outcome.set(
        "telemetry.overhead_ratio",
        quiet_seconds(&traced) / quiet_seconds(&untraced),
    );
    let own = tracer.self_seconds();
    let total: f64 = own.values().sum();
    for (layer, secs) in &own {
        if let Some(&(name, _)) = crate::report::PER_LAYER
            .iter()
            .find(|(n, _)| n.strip_suffix(".self_share") == Some(*layer))
        {
            outcome.set(name, secs / total);
        }
        if let Some(&(name, _)) = crate::report::PER_LAYER
            .iter()
            .find(|(n, _)| n.strip_suffix(".busy_s") == Some(*layer))
        {
            outcome.set(name, secs / traced.len() as f64);
        }
    }
    let counts = recorder.snapshot();
    outcome.set_solver_metrics(&counts, traced.len() as f64);
    let traced = Traced {
        traced,
        counts,
        own,
    };
    singlehop::layer_metrics(&traced, &mut outcome);
    multihop::layer_metrics(&traced, &mut outcome);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timed(points: &[f64]) -> Pass {
        Pass {
            points: points.to_vec(),
            ..Pass::default()
        }
    }

    #[test]
    fn quiet_time_sums_each_points_fastest_run() {
        let passes = [timed(&[3.0, 1.0, 5.0]), timed(&[2.0, 4.0, 6.0])];
        assert_eq!(quiet_seconds(&passes), 2.0 + 1.0 + 5.0);
        assert_eq!(quiet_seconds(&[]), 0.0);
    }
}
