//! Performance stamping for the `BENCH_<name>.json` reports.
//!
//! Every `--json` run records, next to the sweep results themselves, how fast
//! they were produced: total wall time, simulated cycles per second, a
//! dense-contention microbenchmark that times the event-driven [`SimEngine`]
//! against the allocating [`msfu_sim::reference`] engine on the sweep's most
//! congested point, a mapping-phase microbenchmark that times the delta-cost
//! force-directed refinement against the full-recompute
//! [`msfu_layout::reference`] pipeline on the sweep's largest FD point, and
//! the evaluation-cache hit/miss counters of the run. The stamp is what
//! `bench-diff` gates wall-time regressions on; the recorded speedups
//! document where each optimisation pays off.

use std::time::{Duration, Instant};

use serde::Serialize;

use msfu_core::{effective_factory, CacheStats, SweepResults, SweepSpec};
use msfu_distill::Factory;
use msfu_graph::InteractionGraph;
use msfu_layout::{
    force_directed_config_from_params, reference as layout_reference, FactoryMapper,
    ForceDirectedMapper, LinearMapper,
};
use msfu_sim::SimEngine;

/// How often the dense-contention point is re-simulated per engine. The
/// simulators are deterministic, so repeats only smooth wall-clock noise.
const DENSE_REPEATS: u32 = 5;

/// How often the mapping-phase point is re-refined per implementation.
const MAPPING_REPEATS: u32 = 3;

/// Wall-time and throughput metadata stamped into a JSON report.
#[derive(Debug, Clone, Serialize)]
pub struct PerfStamp {
    /// End-to-end sweep wall time in seconds (mapping + simulation).
    pub wall_seconds: f64,
    /// Whether the sweep ran on all cores or serially.
    pub parallel: bool,
    /// Number of sweep points evaluated.
    pub points: usize,
    /// Total simulated cycles across all rows (sum of realised latencies).
    pub cycles_simulated: u64,
    /// `cycles_simulated / wall_seconds`.
    pub cycles_per_second: f64,
    /// Event-driven vs reference engine timing on the most congested point.
    pub dense: Option<DenseContentionPerf>,
    /// Delta-cost vs full-recompute refinement timing on the largest
    /// force-directed point (absent when the sweep has no FD point).
    pub mapping: Option<MappingPhasePerf>,
    /// Evaluation-cache hit/miss counters of the run (absent when the caller
    /// did not sample them).
    pub cache: Option<CacheStats>,
}

/// Timing of the sweep's heaviest force-directed mapping under both
/// refinement implementations: the production delta-cost path
/// ([`ForceDirectedMapper::refine`]) and the preserved full-recompute
/// pipeline ([`msfu_layout::reference::refine`]). Both produce byte-identical
/// mappings (asserted by `tests/refine_equivalence.rs`); the ratio records
/// the mapping-phase speedup that `bench-diff` gates at a coarse wall
/// tolerance.
#[derive(Debug, Clone, Serialize)]
pub struct MappingPhasePerf {
    /// Row label of the measured point.
    pub label: String,
    /// Strategy short name of the measured point.
    pub strategy: String,
    /// Total factory capacity of the measured point.
    pub capacity: usize,
    /// Logical qubits placed (graph vertices).
    pub qubits: usize,
    /// Refinement repetitions per implementation.
    pub repeats: u32,
    /// Total delta-cost refinement wall time across the repeats, seconds.
    pub refine_seconds: f64,
    /// Total full-recompute refinement wall time across the repeats, seconds.
    pub reference_seconds: f64,
    /// `reference_seconds / refine_seconds`.
    pub speedup: f64,
}

/// Timing of the sweep's dense-contention point under both simulator
/// implementations ([`SimEngine`] vs [`msfu_sim::reference`]).
#[derive(Debug, Clone, Serialize)]
pub struct DenseContentionPerf {
    /// Row label of the measured point.
    pub label: String,
    /// Strategy short name of the measured point.
    pub strategy: String,
    /// Total factory capacity of the measured point.
    pub capacity: usize,
    /// Routing conflicts of the point (the congestion that selected it).
    pub routing_conflicts: u64,
    /// Simulation repetitions per engine.
    pub repeats: u32,
    /// Total event-driven engine wall time across the repeats, seconds.
    pub event_driven_seconds: f64,
    /// Total reference engine wall time across the repeats, seconds.
    pub reference_seconds: f64,
    /// `reference_seconds / event_driven_seconds`.
    pub speedup: f64,
}

/// Assembles the perf stamp for an executed sweep, including the
/// dense-contention engine comparison, the mapping-phase refinement
/// comparison and the run's evaluation-cache counters.
pub fn stamp(
    spec: &SweepSpec,
    results: &SweepResults,
    wall: Duration,
    parallel: bool,
    cache: Option<CacheStats>,
) -> PerfStamp {
    let wall_seconds = wall.as_secs_f64();
    let cycles_simulated: u64 = results
        .rows
        .iter()
        .map(|r| r.evaluation.latency_cycles)
        .sum();
    PerfStamp {
        wall_seconds,
        parallel,
        points: results.rows.len(),
        cycles_simulated,
        cycles_per_second: if wall_seconds > 0.0 {
            cycles_simulated as f64 / wall_seconds
        } else {
            0.0
        },
        dense: dense_contention(spec, results),
        mapping: mapping_phase(spec, results),
        cache,
    }
}

/// Re-simulates the sweep's most braid-congested point `DENSE_REPEATS` times
/// under each engine. Rows and spec points correspond one to one, so the
/// point's factory and layout are rebuilt exactly as the sweep built them.
fn dense_contention(spec: &SweepSpec, results: &SweepResults) -> Option<DenseContentionPerf> {
    let (i, row) = results
        .rows
        .iter()
        .enumerate()
        .max_by_key(|(_, r)| r.evaluation.routing_conflicts)?;
    let point = spec.points.get(i)?;
    let factory = Factory::build(&point.factory).ok()?;
    let layout = point.strategy.map(&factory).ok()?;
    let effective = effective_factory(&factory, &layout).ok()?;
    let circuit = effective.circuit();

    let mut engine = SimEngine::new(spec.eval.sim);
    let t0 = Instant::now();
    for _ in 0..DENSE_REPEATS {
        engine
            .run(circuit, &layout)
            .expect("the sweep already simulated this point");
    }
    let event_driven_seconds = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    for _ in 0..DENSE_REPEATS {
        msfu_sim::reference::run(&spec.eval.sim, circuit, &layout)
            .expect("the sweep already simulated this point");
    }
    let reference_seconds = t1.elapsed().as_secs_f64();

    Some(DenseContentionPerf {
        label: row.label.clone(),
        strategy: row.evaluation.strategy.clone(),
        capacity: row.evaluation.factory.capacity(),
        routing_conflicts: row.evaluation.routing_conflicts,
        repeats: DENSE_REPEATS,
        event_driven_seconds,
        reference_seconds,
        speedup: if event_driven_seconds > 0.0 {
            reference_seconds / event_driven_seconds
        } else {
            0.0
        },
    })
}

/// Re-refines the sweep's largest force-directed point `MAPPING_REPEATS`
/// times under the delta-cost and the full-recompute implementations. The
/// point is rebuilt exactly as the sweep mapped it (linear start + FD
/// refinement with the point's parameters).
fn mapping_phase(spec: &SweepSpec, results: &SweepResults) -> Option<MappingPhasePerf> {
    let (i, row) = results
        .rows
        .iter()
        .enumerate()
        .filter(|(i, _)| {
            spec.points
                .get(*i)
                .is_some_and(|p| p.strategy.key() == "force_directed")
        })
        .max_by_key(|(_, r)| (r.evaluation.logical_qubits, r.evaluation.factory.capacity()))?;
    let point = spec.points.get(i)?;
    let cfg = force_directed_config_from_params(point.strategy.params()).ok()?;
    let factory = Factory::build(&point.factory).ok()?;
    let graph = InteractionGraph::from_circuit(factory.circuit());
    let initial = LinearMapper::new().map_factory(&factory).ok()?.mapping;

    let mapper = ForceDirectedMapper::with_config(cfg);
    let t0 = Instant::now();
    for _ in 0..MAPPING_REPEATS {
        mapper
            .refine(&graph, &initial)
            .expect("the sweep already refined this point");
    }
    let refine_seconds = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    for _ in 0..MAPPING_REPEATS {
        layout_reference::refine(&cfg, &graph, &initial)
            .expect("the sweep already refined this point");
    }
    let reference_seconds = t1.elapsed().as_secs_f64();

    Some(MappingPhasePerf {
        label: row.label.clone(),
        strategy: row.evaluation.strategy.clone(),
        capacity: row.evaluation.factory.capacity(),
        qubits: row.evaluation.logical_qubits,
        repeats: MAPPING_REPEATS,
        refine_seconds,
        reference_seconds,
        speedup: if refine_seconds > 0.0 {
            reference_seconds / refine_seconds
        } else {
            0.0
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness_eval_config;
    use msfu_core::Strategy;
    use msfu_distill::FactoryConfig;

    #[test]
    fn stamp_records_throughput_and_dense_point() {
        let spec = SweepSpec::new("t", harness_eval_config())
            .point("a", FactoryConfig::single_level(2), Strategy::linear())
            .point("b", FactoryConfig::single_level(4), Strategy::random(1));
        let results = spec.run().unwrap();
        let stamp = stamp(
            &spec,
            &results,
            Duration::from_millis(500),
            true,
            Some(CacheStats::default()),
        );
        assert_eq!(stamp.points, 2);
        assert!(stamp.cycles_simulated > 0);
        assert!(stamp.cycles_per_second > 0.0);
        let dense = stamp.dense.expect("dense point measured");
        assert_eq!(dense.repeats, DENSE_REPEATS);
        assert!(dense.event_driven_seconds > 0.0);
        assert!(dense.reference_seconds > 0.0);
        // The selected point is the most congested row of the sweep.
        let max_conflicts = results
            .rows
            .iter()
            .map(|r| r.evaluation.routing_conflicts)
            .max()
            .unwrap();
        assert_eq!(dense.routing_conflicts, max_conflicts);
        // No force-directed point: no mapping-phase comparison.
        assert!(stamp.mapping.is_none());
        assert_eq!(stamp.cache, Some(CacheStats::default()));
    }

    #[test]
    fn stamp_measures_the_mapping_phase_on_fd_points() {
        use msfu_layout::ForceDirectedConfig;
        let fd = Strategy::force_directed(ForceDirectedConfig {
            seed: 1,
            iterations: 6,
            repulsion_sample: 400,
            ..ForceDirectedConfig::default()
        });
        let spec = SweepSpec::new("t", harness_eval_config())
            .point("a", FactoryConfig::single_level(2), fd.clone())
            .point("b", FactoryConfig::single_level(4), fd);
        let results = spec.run().unwrap();
        let stamp = stamp(&spec, &results, Duration::from_millis(500), true, None);
        let mapping = stamp.mapping.expect("mapping phase measured");
        // The larger of the two FD points is selected.
        assert_eq!(mapping.capacity, 4);
        assert_eq!(mapping.strategy, "FD");
        assert_eq!(mapping.repeats, MAPPING_REPEATS);
        assert!(mapping.refine_seconds > 0.0);
        assert!(mapping.reference_seconds > 0.0);
        assert!(mapping.speedup > 0.0);
        assert!(stamp.cache.is_none());
    }

    #[test]
    fn empty_sweep_has_no_dense_point() {
        let spec = SweepSpec::new("empty", harness_eval_config());
        let results = spec.run().unwrap();
        let stamp = stamp(&spec, &results, Duration::from_millis(1), false, None);
        assert_eq!(stamp.points, 0);
        assert!(stamp.dense.is_none());
        assert!(stamp.mapping.is_none());
    }
}
