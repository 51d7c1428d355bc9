//! Tables II and III, the single-hop half of the `slot-engines` workload.
//!
//! For each access mode and each population in [`TABLES`], a pass takes
//! the analytic `W_c*` from `dcf::optimal::efficient_cw`, sweeps the
//! seeded slot engine around it (the paper's simulated `W_c*` column),
//! and validates the fixed point at the efficient NE. Each (mode, n) row
//! is one experiment point (one span group of the traced run).

use macgame_conformance::fixtures::NeIntervalGolden;
use macgame_dcf::optimal::efficient_cw;
use macgame_dcf::{AccessMode, DcfParams, MicroSecs, UtilityParams};
use macgame_sim::{validate_fixed_point, Engine, SimConfig};

use crate::engines::{Pass, Traced};
use crate::report::Outcome;
use crate::rng::SplitMix64;
use crate::stats::ratio;
use crate::trace::Tracer;

/// The rows of each table: the paper's n = 5, 20, 50, plus n = 10 in
/// Table II, which the golden file also pins.
pub const TABLES: [(AccessMode, &[usize]); 2] = [
    (AccessMode::Basic, &[5, 10, 20, 50]),
    (AccessMode::RtsCts, &[5, 20, 50]),
];
/// Strategy-space bound of the analytic search (the golden rows' bound).
pub const W_MAX: u32 = 4096;
/// Simulated time per sweep point (the paper used 1000 s).
pub const SWEEP_SECONDS: f64 = 10.0;
/// Slots per fixed-point validation run.
pub const VALIDATE_SLOTS: u64 = 200_000;

/// The checked-in Table II/III golden rows.
const GOLDEN: &str = include_str!("../../tests/golden/ne_intervals.json");

/// One table row to reproduce.
#[derive(Debug, Clone)]
pub struct Row {
    /// Access mode.
    pub mode: AccessMode,
    /// Population.
    pub n: usize,
    /// The mode's protocol parameters.
    pub params: DcfParams,
    /// The golden `W_c*`, when the golden file has this row.
    pub golden: Option<u32>,
}

/// Everything a pass needs, built from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Rows in table order.
    pub rows: Vec<Row>,
    /// Utility parameters.
    pub utility: UtilityParams,
    /// Seed of the slot-engine runs.
    pub sim_seed: u64,
}

/// Builds the rows and reads their golden `W_c*`.
///
/// # Errors
///
/// Fails on unparseable golden rows or invalid parameters.
pub fn inputs(seed: u64) -> Result<Inputs, String> {
    let golden: NeIntervalGolden = serde_json::from_str(GOLDEN).map_err(|e| e.to_string())?;
    let mut rows = Vec::new();
    for (mode, populations) in TABLES {
        let params = DcfParams::builder()
            .access_mode(mode)
            .build()
            .map_err(|e| e.to_string())?;
        for &n in populations {
            let golden = golden
                .rows
                .iter()
                .find(|r| r.n == n && r.mode == mode.to_string())
                .map(|r| r.upper);
            rows.push(Row {
                mode,
                n,
                params,
                golden,
            });
        }
    }
    Ok(Inputs {
        rows,
        utility: UtilityParams::default(),
        sim_seed: SplitMix64::new(seed, 3).next_u64(),
    })
}

/// One pass over every row.
///
/// # Errors
///
/// Propagates solver and simulator errors.
pub fn pass(inputs: &Inputs, index: usize, tracer: &Tracer) -> Result<Pass, String> {
    let mut out = Pass::default();
    let (mut slots, mut sweep_slots, mut idle) = (0u64, 0u64, 0u64);
    for (r, row) in inputs.rows.iter().enumerate() {
        out.point(tracer, index * 64 + r, |out| {
            let ne = tracer
                .span("dcf.optimal", || {
                    efficient_cw(row.n, &row.params, &inputs.utility, W_MAX)
                })
                .map_err(|e| e.to_string())?;
            out.queries += 1;
            if let Some(golden) = row.golden {
                out.checks.push(ne.window == golden);
            }
            out.fingerprint.push(u64::from(ne.window));
            let half = (ne.window / 4).max(8);
            let step = (half / 8).max(1);
            let mut w = ne.window.saturating_sub(half).max(1);
            while w <= ne.window + half {
                let config = SimConfig::builder()
                    .params(row.params)
                    .utility(inputs.utility)
                    .symmetric(row.n, w)
                    .seed(inputs.sim_seed ^ u64::from(w))
                    .build()
                    .map_err(|e| e.to_string())?;
                let report = tracer.span("sim.engine", || {
                    Engine::new(&config).run_for(MicroSecs::from_seconds(SWEEP_SECONDS))
                });
                let channel = report.channel;
                out.fingerprint
                    .extend([channel.idle, channel.success, channel.collision]);
                sweep_slots += channel.total();
                idle += channel.idle;
                out.queries += 1;
                w += step;
            }
            let validation = tracer
                .span("sim.engine", || {
                    validate_fixed_point(
                        &vec![ne.window; row.n],
                        &row.params,
                        VALIDATE_SLOTS,
                        inputs.sim_seed,
                    )
                })
                .map_err(|e| e.to_string())?;
            out.fingerprint
                .push(validation.throughput_measured.to_bits());
            slots += validation.slots;
            out.queries += 1;
            Ok(())
        })?;
    }
    out.counts.insert("slots", (slots + sweep_slots) as f64);
    out.counts.insert("sweep_slots", sweep_slots as f64);
    out.counts.insert("idle_slots", idle as f64);
    Ok(out)
}

/// The single-hop per-layer metrics of a traced run.
pub fn layer_metrics(traced: &Traced, outcome: &mut Outcome) {
    let slots = traced.per_pass("slots");
    outcome.set("sim.engine.slots", slots);
    outcome.set(
        "sim.engine.mslots_per_s",
        ratio(slots, traced.busy_s("sim.engine")) / 1e6,
    );
    outcome.set(
        "sim.engine.idle_ratio",
        ratio(
            traced.per_pass("idle_slots"),
            traced.per_pass("sweep_slots"),
        ),
    );
}
