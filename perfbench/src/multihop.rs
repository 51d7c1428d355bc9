//! The Section VII.B run, the spatial half of the `slot-engines` workload.
//!
//! Set-up places n = 100 random-waypoint nodes (`SpatialConfig::paper`,
//! RTS/CTS) and builds their topology. A pass solves the local games, runs
//! TFT to convergence, measures the quasi-optimality of `W_m` with its
//! window sweep on the mobile network, and measures `p_hn` per window on
//! the static snapshot. Its experiment points are the local games, the
//! convergence, the quasi-optimality evaluation, and one static run per
//! window.

use macgame_dcf::MicroSecs;
use macgame_multihop::convergence::tft_converge;
use macgame_multihop::localgame::{analytic_p_hn, local_optimal_windows, local_taus, LocalRule};
use macgame_multihop::metrics::evaluate_quasi_optimality;
use macgame_multihop::spatialsim::{SpatialConfig, SpatialEngine};
use macgame_multihop::{Point, Topology};

use crate::engines::{Pass, Traced};
use crate::report::Outcome;
use crate::rng::SplitMix64;
use crate::stats::ratio;
use crate::trace::Tracer;

/// Nodes in the network (the paper's 100).
pub const NODES: usize = 100;
/// Simulated time per quasi-optimality point: a twentieth of the paper's
/// 1000 s, so a run holds enough passes for a steady median.
pub const DURATION_SECONDS: f64 = 50.0;
/// Nodes sampled for the local quasi-optimality metric.
pub const SAMPLE: usize = 10;
/// Strategy-space bound of the local games.
pub const LOCAL_W_MAX: u32 = 2048;

/// Runs the timed closure in a span and maps its error to a string.
fn traced<T, E: ToString>(
    tracer: &Tracer,
    name: &'static str,
    f: impl FnOnce() -> Result<T, E>,
) -> Result<T, String> {
    tracer.span(name, f).map_err(|e| e.to_string())
}

/// The placed network every pass starts from.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The Section VII.B scenario.
    pub config: SpatialConfig,
    /// Initial node positions.
    pub positions: Vec<Point>,
    /// Neighbour topology of the initial placement.
    pub topology: Topology,
}

/// Places the nodes for `seed`.
///
/// # Errors
///
/// Propagates engine construction failures.
pub fn inputs(seed: u64) -> Result<Inputs, String> {
    let config = SpatialConfig::paper(SplitMix64::new(seed, 4).next_u64());
    let engine =
        SpatialEngine::new(NODES, &vec![64; NODES], config.clone()).map_err(|e| e.to_string())?;
    Ok(Inputs {
        positions: engine.positions().to_vec(),
        topology: engine.topology().clone(),
        config,
    })
}

/// One pass of the Section VII.B run.
///
/// # Errors
///
/// Propagates model and simulator errors.
pub fn pass(inputs: &Inputs, index: usize, tracer: &Tracer) -> Result<Pass, String> {
    let Inputs {
        config,
        positions,
        topology: topo,
    } = inputs;
    let mut out = Pass::default();
    // Groups 0..32 of a pass belong to the single-hop rows.
    let group = |k: usize| index * 64 + 32 + k;

    let local = out.point(tracer, group(0), |out| {
        out.queries += 1;
        traced(tracer, "multihop.localgame", || {
            local_optimal_windows(
                topo,
                &config.params,
                &config.utility,
                LOCAL_W_MAX,
                LocalRule::ExactArgmax,
            )
        })
    })?;
    let w_m = out.point(tracer, group(1), |out| {
        let trace = traced(tracer, "multihop.convergence", || {
            tft_converge(topo, &local)
        })?;
        out.queries += 1;
        // Theorem 3: in the largest component every node converges to the
        // component's smallest local optimum.
        let component = topo
            .components()
            .into_iter()
            .max_by_key(Vec::len)
            .unwrap_or_default();
        let w_m = component.iter().map(|&i| local[i]).min().unwrap_or(0);
        out.checks
            .push(w_m > 0 && component.iter().all(|&i| trace.final_windows[i] == w_m));
        out.fingerprint
            .extend([u64::from(w_m), trace.rounds_needed as u64]);
        out.counts.insert("rounds", trace.rounds_needed as f64);
        Ok(w_m)
    })?;

    let sweep: Vec<u32> = [w_m / 4, w_m / 2, w_m, w_m * 2, w_m * 4]
        .into_iter()
        .filter(|&w| w >= 1)
        .collect();
    let sample: Vec<usize> = (0..NODES)
        .filter(|&i| topo.degree(i) >= 1)
        .step_by((NODES / SAMPLE).max(1))
        .take(SAMPLE)
        .collect();
    let duration = MicroSecs::from_seconds(DURATION_SECONDS);
    out.point(tracer, group(2), |out| {
        let quality = traced(tracer, "multihop.spatial", || {
            evaluate_quasi_optimality(positions, w_m, &sweep, &sample, &sweep, config, duration)
        })?;
        out.queries += 1;
        out.fingerprint
            .extend(quality.global_sweep.iter().map(|s| s.payoff.to_bits()));
        out.fingerprint
            .extend(quality.local.iter().map(|l| l.fraction.to_bits()));
        Ok(())
    })?;

    // p_hn per window on the static snapshot, so the comparison isolates
    // the window's effect.
    let static_config = SpatialConfig {
        mobility: None,
        ..config.clone()
    };
    let p_hn_duration = MicroSecs::from_seconds((DURATION_SECONDS / 10.0).max(5.0));
    let (mut slots, mut attempts) = (0u64, 0u64);
    for (k, &w) in sweep.iter().enumerate() {
        out.point(tracer, group(3 + k), |out| {
            let mut engine = traced(tracer, "multihop.topology", || {
                SpatialEngine::with_positions(
                    positions.clone(),
                    &vec![w; NODES],
                    static_config.clone(),
                )
            })?;
            let report = tracer.span("multihop.spatial", || engine.run_for(p_hn_duration));
            traced(tracer, "multihop.localgame", || {
                local_taus(topo, w, &static_config.params)
                    .and_then(|taus| analytic_p_hn(topo, &taus))
            })?;
            out.queries += 3;
            let run_attempts: u64 = report.node_stats.iter().map(|s| s.attempts).sum();
            let losses: u64 = report.hidden.iter().map(|h| h.hidden_losses).sum();
            out.fingerprint.extend([report.slots, run_attempts, losses]);
            slots += report.slots;
            attempts += run_attempts;
            Ok(())
        })?;
    }
    out.counts.insert("static_slots", slots as f64);
    out.counts.insert("static_attempts", attempts as f64);
    Ok(out)
}

/// The multi-hop per-layer metrics of a traced run.
pub fn layer_metrics(traced: &Traced, outcome: &mut Outcome) {
    let slots = traced.counter_per_pass("multihop.spatial.slots");
    outcome.set("multihop.convergence.rounds", traced.per_pass("rounds"));
    outcome.set("multihop.spatial.slots", slots);
    outcome.set(
        "multihop.spatial.mslots_per_s",
        ratio(slots, traced.busy_s("multihop.spatial")) / 1e6,
    );
    outcome.set(
        "multihop.spatial.attempts_per_slot",
        ratio(
            traced.per_pass("static_attempts"),
            traced.per_pass("static_slots"),
        ),
    );
}
