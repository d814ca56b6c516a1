//! End-to-end evaluation: factory → mapping → simulation → volume.

use std::borrow::Cow;
use std::cell::RefCell;

use serde::{Deserialize, Serialize};

use msfu_distill::{Factory, FactoryConfig};
use msfu_layout::Layout;
use msfu_sim::{SimConfig, SimEngine};

use crate::{Result, Strategy};

/// Configuration of an end-to-end evaluation run.
///
/// `#[non_exhaustive]` so the service protocol can grow evaluation knobs
/// without a semver break: construct with [`EvaluationConfig::default`] and
/// refine with the `with_*` builders.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub struct EvaluationConfig {
    /// Simulator configuration (latency model, routing policy, cycle limit).
    pub sim: SimConfig,
}

impl EvaluationConfig {
    /// Replaces the simulator configuration (builder style).
    pub fn with_sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }
}

/// The outcome of evaluating one factory configuration under one strategy:
/// the quantities plotted in Fig. 10 and tabulated in Table I of the paper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// Strategy report label ("Random", "Random+S", "Line", "FD", "GP",
    /// "HS" for the built-in line-up; custom strategies carry their own).
    pub strategy: String,
    /// The factory configuration that was evaluated.
    pub factory: FactoryConfig,
    /// Realised circuit latency in cycles.
    pub latency_cycles: u64,
    /// Consumed logical-qubit area (bounding box of the placement).
    pub area: usize,
    /// Space-time (quantum) volume: `area × latency`.
    pub volume: u64,
    /// Total stall cycles inserted by braid congestion.
    pub stall_cycles: u64,
    /// Number of failed braid-routing attempts.
    pub routing_conflicts: u64,
    /// Critical-path lower bound on latency (unlimited resources).
    pub critical_path_cycles: u64,
    /// Lower bound on volume: critical path × the factory's logical qubit
    /// count (the "Critical" row of Table I).
    pub critical_volume: u64,
    /// Number of logical qubits the factory allocates (minimum possible area).
    pub logical_qubits: usize,
}

impl Evaluation {
    /// Ratio of realised volume to the lower-bound volume (≥ 1 in practice).
    pub fn volume_ratio_to_critical(&self) -> f64 {
        if self.critical_volume == 0 {
            return 0.0;
        }
        self.volume as f64 / self.critical_volume as f64
    }

    /// Ratio of realised latency to the critical-path latency.
    pub fn latency_ratio_to_critical(&self) -> f64 {
        if self.critical_path_cycles == 0 {
            return 0.0;
        }
        self.latency_cycles as f64 / self.critical_path_cycles as f64
    }
}

/// Builds a factory for `factory_config`, maps it with `strategy` and
/// simulates the braid schedule.
///
/// # Errors
///
/// Propagates factory-construction, placement and simulation failures.
pub fn evaluate(
    factory_config: &FactoryConfig,
    strategy: &Strategy,
    config: &EvaluationConfig,
) -> Result<Evaluation> {
    let factory = Factory::build(factory_config)?;
    evaluate_factory(&factory, strategy, config)
}

/// Evaluates an already-built factory. The factory is never mutated: if the
/// strategy's layout carries an output-port rebinding (hierarchical
/// stitching), it is applied to a private copy before simulation, so one
/// built factory can be shared — including across threads — by any number of
/// concurrent evaluations.
///
/// # Errors
///
/// Propagates placement and simulation failures.
pub fn evaluate_factory(
    factory: &Factory,
    strategy: &Strategy,
    config: &EvaluationConfig,
) -> Result<Evaluation> {
    with_thread_engine(config.sim, |engine| {
        evaluate_factory_with(engine, factory, strategy, config)
    })
}

/// [`evaluate_factory`] against a caller-held [`SimEngine`], so a loop of
/// evaluations reuses one set of simulator arenas.
///
/// # Errors
///
/// Propagates placement and simulation failures.
pub fn evaluate_factory_with(
    engine: &mut SimEngine,
    factory: &Factory,
    strategy: &Strategy,
    config: &EvaluationConfig,
) -> Result<Evaluation> {
    let layout = strategy.map(factory)?;
    let effective = effective_factory(factory, &layout)?;
    evaluate_mapped_with(engine, &effective, &layout, strategy.short_name(), config)
}

/// Resolves the factory a layout must be simulated against: the factory
/// itself, or a rewired private copy when the layout carries a port
/// assignment.
///
/// # Errors
///
/// Propagates an invalid port assignment.
pub fn effective_factory<'a>(factory: &'a Factory, layout: &Layout) -> Result<Cow<'a, Factory>> {
    if layout.requires_port_rewiring() {
        Ok(Cow::Owned(factory.apply_port_assignment(&layout.ports)?))
    } else {
        Ok(Cow::Borrowed(factory))
    }
}

/// Simulates a mapped factory and assembles the [`Evaluation`] record.
/// `factory` must already be the effective (port-rewired) factory for
/// `layout` — see [`effective_factory`].
///
/// # Errors
///
/// Propagates simulation failures.
pub fn evaluate_mapped(
    factory: &Factory,
    layout: &Layout,
    strategy_name: &str,
    config: &EvaluationConfig,
) -> Result<Evaluation> {
    with_thread_engine(config.sim, |engine| {
        evaluate_mapped_with(engine, factory, layout, strategy_name, config)
    })
}

/// [`evaluate_mapped`] against a caller-held [`SimEngine`].
///
/// # Errors
///
/// Propagates simulation failures.
pub fn evaluate_mapped_with(
    engine: &mut SimEngine,
    factory: &Factory,
    layout: &Layout,
    strategy_name: &str,
    config: &EvaluationConfig,
) -> Result<Evaluation> {
    engine.set_config(config.sim);
    let result = engine.run(factory.circuit(), layout)?;
    let critical_path_cycles = factory.circuit().critical_path_cycles(&config.sim.latency);
    let logical_qubits = factory.num_qubits();
    Ok(Evaluation {
        strategy: strategy_name.to_string(),
        factory: *factory.config(),
        latency_cycles: result.cycles,
        area: result.area,
        volume: result.volume(),
        stall_cycles: result.stall_cycles,
        routing_conflicts: result.routing_conflicts,
        critical_path_cycles,
        critical_volume: critical_path_cycles * logical_qubits as u64,
        logical_qubits,
    })
}

thread_local! {
    /// One simulator engine per thread: entry points that don't take an
    /// explicit [`SimEngine`] still amortise arenas across calls (and across
    /// the sweep engine's worker threads).
    static THREAD_ENGINE: RefCell<SimEngine> = RefCell::new(SimEngine::default());
}

/// Runs `f` against this thread's reusable [`SimEngine`], configured with
/// `sim`. Used by every evaluation entry point that does not thread an
/// explicit engine handle.
pub(crate) fn with_thread_engine<T>(sim: SimConfig, f: impl FnOnce(&mut SimEngine) -> T) -> T {
    THREAD_ENGINE.with(|cell| {
        let mut engine = cell.borrow_mut();
        engine.set_config(sim);
        f(&mut engine)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use msfu_distill::ReusePolicy;
    use msfu_layout::ForceDirectedConfig;

    fn cheap_fd(seed: u64) -> Strategy {
        Strategy::force_directed(ForceDirectedConfig {
            seed,
            iterations: 3,
            repulsion_sample: 200,
            ..ForceDirectedConfig::default()
        })
    }

    #[test]
    fn linear_single_level_evaluation_is_consistent() {
        let eval = evaluate(
            &FactoryConfig::single_level(2),
            &Strategy::linear(),
            &EvaluationConfig::default(),
        )
        .unwrap();
        assert_eq!(eval.strategy, "Line");
        assert!(eval.latency_cycles >= eval.critical_path_cycles);
        assert_eq!(eval.volume, eval.latency_cycles * eval.area as u64);
        assert!(eval.area >= eval.logical_qubits);
        assert!(eval.volume >= eval.critical_volume);
        assert!(eval.volume_ratio_to_critical() >= 1.0);
        assert!(eval.latency_ratio_to_critical() >= 1.0);
    }

    #[test]
    fn linear_beats_random_on_single_level_volume() {
        let cfg = FactoryConfig::single_level(4);
        let random = evaluate(&cfg, &Strategy::random(1), &EvaluationConfig::default()).unwrap();
        let linear = evaluate(&cfg, &Strategy::linear(), &EvaluationConfig::default()).unwrap();
        assert!(
            linear.volume < random.volume,
            "linear ({}) should beat random ({})",
            linear.volume,
            random.volume
        );
    }

    #[test]
    fn all_strategies_evaluate_a_two_level_factory() {
        let cfg = FactoryConfig::two_level(2).with_reuse(ReusePolicy::Reuse);
        for strategy in [
            Strategy::random(2),
            Strategy::linear(),
            cheap_fd(2),
            Strategy::graph_partition(2),
            Strategy::hierarchical_stitching(Default::default()),
        ] {
            let eval = evaluate(&cfg, &strategy, &EvaluationConfig::default()).unwrap();
            assert!(eval.latency_cycles > 0, "{}", strategy.short_name());
            assert!(eval.latency_cycles >= eval.critical_path_cycles);
        }
    }

    #[test]
    fn reuse_reduces_area_for_linear_mapping() {
        let reuse = evaluate(
            &FactoryConfig::two_level(2).with_reuse(ReusePolicy::Reuse),
            &Strategy::linear(),
            &EvaluationConfig::default(),
        )
        .unwrap();
        let no_reuse = evaluate(
            &FactoryConfig::two_level(2).with_reuse(ReusePolicy::NoReuse),
            &Strategy::linear(),
            &EvaluationConfig::default(),
        )
        .unwrap();
        assert!(reuse.logical_qubits < no_reuse.logical_qubits);
        assert!(reuse.area <= no_reuse.area);
    }
}
