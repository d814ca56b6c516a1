//! The parallel sweep engine: declarative grids of
//! `FactoryConfig × Strategy` points evaluated with a shared factory cache.
//!
//! The paper's entire evaluation (Figs. 6–10, Table I) is a grid sweep over
//! factory capacity, level count, reuse policy, mapping strategy and seed.
//! This module turns such a sweep into data: a [`SweepSpec`] lists the points
//! once, and [`SweepSpec::run`] executes them in parallel with each distinct
//! [`FactoryConfig`] built exactly once and shared (immutably, via `Arc`)
//! across every strategy and seed that maps it. Strategies never mutate the
//! factory — port-rewiring decisions travel on the layout as a
//! `PortAssignment` and are applied to a private copy per point — which is
//! what makes the sharing sound.
//!
//! Results are deterministic: [`SweepSpec::run`] and [`SweepSpec::run_serial`]
//! produce identical [`SweepResults`] regardless of thread count or
//! interleaving, because every point's evaluation is a pure function of the
//! point and row order follows point order.
//!
//! # Example
//!
//! ```
//! use msfu_core::{EvaluationConfig, Strategy, SweepSpec};
//! use msfu_distill::FactoryConfig;
//!
//! let results = SweepSpec::new("demo", EvaluationConfig::default())
//!     .point("a", FactoryConfig::single_level(2), Strategy::linear())
//!     .point("b", FactoryConfig::single_level(2), Strategy::random(1))
//!     .run()
//!     .unwrap();
//! assert_eq!(results.rows.len(), 2);
//! // The linear baseline beats random placement on volume.
//! assert!(results.rows[0].evaluation.volume < results.rows[1].evaluation.volume);
//! ```

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use msfu_distill::{Factory, FactoryConfig};
use msfu_graph::{metrics::MappingMetrics, InteractionGraph};
use msfu_sim::SimEngine;

use crate::cache::{evaluation_key, open_eval_cache, CacheStats, EvalCache};
use crate::evaluate::{effective_factory, evaluate_mapped_with, with_thread_engine};
use crate::pipeline::{per_round_breakdown_with, RoundBreakdown};
use crate::progress::{ProgressEvent, RunControl};
use crate::{Evaluation, EvaluationConfig, Result, Strategy};

/// Points evaluated per parallel batch. Cancellation and deadlines are
/// honoured between batches, so this bounds how much work a cancelled sweep
/// still finishes; it is a fixed constant (not thread-count derived) so the
/// progress-event stream of a given spec is identical on every machine.
const SWEEP_BATCH: usize = 32;

/// One point of a sweep grid: map `factory` with `strategy` and simulate.
///
/// `#[non_exhaustive]`: construct with [`SweepPoint::new`] (or the
/// [`SweepSpec::point`]/[`SweepSpec::grid`] builders) so new per-point knobs
/// can be added without a semver break.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SweepPoint {
    /// Caller-chosen tag used to select rows out of the results (e.g. the
    /// figure panel the point belongs to).
    pub label: String,
    /// The factory configuration to build (deduplicated across points).
    pub factory: FactoryConfig,
    /// The mapping strategy to apply.
    pub strategy: Strategy,
}

/// A declarative sweep: an evaluation configuration plus the list of points.
///
/// `#[non_exhaustive]`: construct with [`SweepSpec::new`] and the builder
/// methods so the spec (and the JSON protocol carrying it) can grow fields
/// without a semver break.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SweepSpec {
    /// Sweep name (carried into [`SweepResults`] and JSON reports).
    pub name: String,
    /// Simulator configuration shared by every point.
    pub eval: EvaluationConfig,
    /// The grid, in result order.
    pub points: Vec<SweepPoint>,
    /// Also simulate each round / permutation step in isolation
    /// ([`SweepRow::breakdown`]).
    pub collect_breakdowns: bool,
    /// Also compute the Fig. 6 congestion metrics of each mapping
    /// ([`SweepRow::metrics`]).
    pub collect_mapping_metrics: bool,
    /// Share one content-addressed [`EvalCache`] across the run's workers so
    /// duplicate `(factory, layout, eval config)` points simulate once.
    /// Enabled by default; results are byte-identical either way (the cache
    /// key is the full content, never a lossy hash).
    pub use_eval_cache: bool,
    /// Root directory of the persistent cache tier: previously simulated
    /// evaluations load from hash-bucketed segment files under it on open,
    /// and new simulations append to them, so repeated runs — and cluster
    /// workers sharing one directory — warm each other across processes.
    /// Rows are byte-identical with or without it. `None` (default) keeps
    /// the cache memory-only; ignored when `use_eval_cache` is off.
    pub cache_dir: Option<std::path::PathBuf>,
}

/// The outcome of one sweep point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepRow {
    /// The point's label.
    pub label: String,
    /// End-to-end evaluation (latency, area, volume, bounds).
    pub evaluation: Evaluation,
    /// Per-round latency breakdown, when requested.
    pub breakdown: Option<Vec<RoundBreakdown>>,
    /// Congestion metrics of the mapping, when requested.
    pub metrics: Option<MappingMetrics>,
}

/// All rows of an executed sweep, in point order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepResults {
    /// The sweep's name.
    pub name: String,
    /// One row per point, in the spec's point order.
    pub rows: Vec<SweepRow>,
}

/// The outcome of a controllable sweep run: the rows that completed, plus
/// whether the run was interrupted (cancelled or past its deadline) before
/// evaluating every point.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SweepOutcome {
    /// The completed rows, in point order — all of them when
    /// `interrupted == false`, a prefix otherwise.
    pub results: SweepResults,
    /// `true` when the run stopped at a batch boundary before finishing.
    pub interrupted: bool,
    /// Evaluation-cache counters of this run (all zero when the cache is
    /// disabled). Each distinct key misses exactly once — racing workers
    /// serialize on the slot's compute guard, so late arrivals count as hits
    /// — making the counters identical for parallel and serial runs of a
    /// completed sweep.
    pub cache: CacheStats,
}

impl SweepResults {
    /// Rows carrying the given label, in order.
    pub fn labeled<'a>(&'a self, label: &'a str) -> impl Iterator<Item = &'a SweepRow> {
        self.rows.iter().filter(move |r| r.label == label)
    }

    /// The first row matching label, strategy short name and total factory
    /// capacity.
    ///
    /// This is a linear scan; callers looping over table cells should build a
    /// [`SweepIndex`] once via [`SweepResults::index`] instead.
    pub fn find(&self, label: &str, strategy: &str, capacity: usize) -> Option<&SweepRow> {
        self.rows.iter().find(|r| {
            r.label == label
                && r.evaluation.strategy == strategy
                && r.evaluation.factory.capacity() == capacity
        })
    }

    /// Builds the `(label, strategy, capacity)` row index in one pass over
    /// the results, making every subsequent per-cell lookup O(1). The figure
    /// and table binaries print grids of `labels × strategies × capacities`,
    /// which a [`SweepResults::find`] per cell turns quadratic.
    pub fn index(&self) -> SweepIndex<'_> {
        let mut by_key: IndexMap<'_> = HashMap::new();
        for (i, row) in self.rows.iter().enumerate() {
            by_key
                .entry(row.label.as_str())
                .or_default()
                .entry(row.evaluation.strategy.as_str())
                .or_default()
                .entry(row.evaluation.factory.capacity())
                .or_default()
                .push(i);
        }
        SweepIndex {
            results: self,
            by_key,
        }
    }
}

/// Nested borrowed-key maps so lookups with short-lived `&str`s allocate
/// nothing: `label -> strategy -> capacity -> row indices`.
type IndexMap<'a> = HashMap<&'a str, HashMap<&'a str, HashMap<usize, Vec<usize>>>>;

/// A one-pass index over [`SweepResults`] rows keyed by
/// `(label, strategy short name, total factory capacity)`.
#[derive(Debug)]
pub struct SweepIndex<'a> {
    results: &'a SweepResults,
    by_key: IndexMap<'a>,
}

impl<'a> SweepIndex<'a> {
    /// All rows under the key, in point order.
    pub fn rows(
        &self,
        label: &str,
        strategy: &str,
        capacity: usize,
    ) -> impl Iterator<Item = &'a SweepRow> + '_ {
        self.by_key
            .get(label)
            .and_then(|by_strategy| by_strategy.get(strategy))
            .and_then(|by_capacity| by_capacity.get(&capacity))
            .into_iter()
            .flatten()
            .map(|&i| &self.results.rows[i])
    }

    /// The first row under the key ([`SweepResults::find`], indexed).
    pub fn find(&self, label: &str, strategy: &str, capacity: usize) -> Option<&'a SweepRow> {
        self.rows(label, strategy, capacity).next()
    }

    /// Of the rows under the key, the one with the smallest quantum volume —
    /// how the paper picks each strategy's better reuse policy for its final
    /// plots (Section VIII-C1).
    pub fn best_reuse(&self, label: &str, strategy: &str, capacity: usize) -> Option<&'a SweepRow> {
        self.rows(label, strategy, capacity)
            .min_by_key(|r| r.evaluation.volume)
    }
}

impl SweepPoint {
    /// Creates a point.
    pub fn new(label: impl Into<String>, factory: FactoryConfig, strategy: Strategy) -> Self {
        SweepPoint {
            label: label.into(),
            factory,
            strategy,
        }
    }
}

impl SweepSpec {
    /// Creates an empty sweep.
    pub fn new(name: impl Into<String>, eval: EvaluationConfig) -> Self {
        SweepSpec {
            name: name.into(),
            eval,
            points: Vec::new(),
            collect_breakdowns: false,
            collect_mapping_metrics: false,
            use_eval_cache: true,
            cache_dir: None,
        }
    }

    /// Enables or disables the shared evaluation cache (builder style). Rows
    /// are byte-identical either way; disabling only forces duplicate points
    /// to re-simulate (the reference mode of the cache-correctness tests).
    pub fn with_eval_cache(mut self, enabled: bool) -> Self {
        self.use_eval_cache = enabled;
        self
    }

    /// Attaches the persistent cache tier rooted at `dir` (builder style):
    /// evaluations already on disk are served without simulating, new ones
    /// are appended. Rows are byte-identical with or without the tier.
    pub fn with_cache_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// The sub-sweep covering `points[range]` — the shard a cluster
    /// coordinator dispatches to one worker. Every other knob (eval config,
    /// cache, collection flags, name) is carried unchanged, so
    /// concatenating the rows of the slices `0..a`, `a..b`, …, `z..len` in
    /// order reproduces the full sweep's rows byte-for-byte: each row is a
    /// pure function of its point and the shared configuration.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds, like slice indexing.
    pub fn slice(&self, range: std::ops::Range<usize>) -> SweepSpec {
        let mut shard = self.clone();
        shard.points = self.points[range].to_vec();
        shard
    }

    /// Appends one point (builder style).
    pub fn point(
        mut self,
        label: impl Into<String>,
        factory: FactoryConfig,
        strategy: Strategy,
    ) -> Self {
        self.points.push(SweepPoint {
            label: label.into(),
            factory,
            strategy,
        });
        self
    }

    /// Appends the full `factories × strategies(factory)` grid under one
    /// label. The strategy list may depend on the factory (e.g. size-scaled
    /// force-directed parameters).
    pub fn grid(
        mut self,
        label: impl Into<String>,
        factories: &[FactoryConfig],
        strategies: impl Fn(&FactoryConfig) -> Vec<Strategy>,
    ) -> Self {
        let label = label.into();
        for factory in factories {
            for strategy in strategies(factory) {
                self.points.push(SweepPoint {
                    label: label.clone(),
                    factory: *factory,
                    strategy,
                });
            }
        }
        self
    }

    /// Requests per-round latency breakdowns on every row.
    pub fn with_breakdowns(mut self) -> Self {
        self.collect_breakdowns = true;
        self
    }

    /// Requests Fig. 6 congestion metrics on every row.
    pub fn with_mapping_metrics(mut self) -> Self {
        self.collect_mapping_metrics = true;
        self
    }

    /// Executes every point in parallel across the machine's cores.
    ///
    /// Each distinct `FactoryConfig` is built once, shared immutably by all
    /// points that use it. Results are in point order and identical to
    /// [`SweepSpec::run_serial`].
    ///
    /// # Errors
    ///
    /// Returns the first (in point order) factory-construction, placement or
    /// simulation error.
    pub fn run(&self) -> Result<SweepResults> {
        Ok(self.run_with(&RunControl::default())?.results)
    }

    /// [`SweepSpec::run`] under a [`RunControl`]: progress events stream to
    /// the control's sink as batches complete, and cancellation/deadline are
    /// honoured between batches of [`SWEEP_BATCH`](self) points. An
    /// interrupted run returns the rows completed so far with
    /// [`SweepOutcome::interrupted`] set, never an error.
    ///
    /// Row values are identical to [`SweepSpec::run`]; a run with the default
    /// control behaves byte-for-byte like it.
    ///
    /// # Errors
    ///
    /// Returns the first (in point order) factory-construction, placement or
    /// simulation error among the batches that ran.
    pub fn run_with(&self, ctrl: &RunControl<'_>) -> Result<SweepOutcome> {
        let total = self.points.len();
        let mut rows: Vec<SweepRow> = Vec::with_capacity(total);
        let mut interrupted = ctrl.interrupted();
        let eval_cache = open_eval_cache(self.use_eval_cache, self.cache_dir.as_deref())?;

        if !interrupted {
            // Build each distinct factory once, in parallel.
            let mut distinct: Vec<FactoryConfig> = Vec::new();
            for p in &self.points {
                if !distinct.contains(&p.factory) {
                    distinct.push(p.factory);
                }
            }
            let built: Vec<crate::Result<Arc<FactoryEntry>>> = distinct
                .par_iter()
                .map(|config| Ok(Arc::new(FactoryEntry::build(config)?)))
                .collect();
            let mut cache: FactoryCache = HashMap::new();
            for (config, entry) in distinct.iter().zip(built) {
                cache.insert(*config, entry?);
            }

            for chunk in self.points.chunks(SWEEP_BATCH) {
                if ctrl.interrupted() {
                    interrupted = true;
                    break;
                }
                let batch: Vec<crate::Result<SweepRow>> = chunk
                    .par_iter()
                    .map(|point| {
                        let entry = cache
                            .get(&point.factory)
                            .expect("every point's config was pre-built")
                            .clone();
                        // Each worker thread reuses one simulator engine
                        // across every point it evaluates (arena reuse;
                        // results are unaffected).
                        with_thread_engine(self.eval.sim, |engine| {
                            self.evaluate_point(point, &entry, engine, eval_cache.as_ref())
                        })
                    })
                    .collect();
                for row in batch {
                    let index = rows.len();
                    rows.push(row?);
                    ctrl.emit(&ProgressEvent::RowCompleted {
                        name: &self.name,
                        index,
                        total,
                        row: &rows[index],
                    });
                }
                ctrl.emit(&ProgressEvent::BatchFinished {
                    name: &self.name,
                    completed: rows.len(),
                    total,
                });
            }
        }

        Ok(SweepOutcome {
            results: SweepResults {
                name: self.name.clone(),
                rows,
            },
            interrupted,
            cache: eval_cache.map(|c| c.stats()).unwrap_or_default(),
        })
    }

    /// Executes every point sequentially on the calling thread (reference
    /// implementation for determinism tests, and a baseline for measuring the
    /// parallel speedup). The factory cache applies here too.
    ///
    /// # Errors
    ///
    /// Returns the first factory-construction, placement or simulation error.
    pub fn run_serial(&self) -> Result<SweepResults> {
        Ok(self.run_serial_with(&RunControl::default())?.results)
    }

    /// [`SweepSpec::run_serial`] under a [`RunControl`]: rows stream to the
    /// control's sink as each point completes, and cancellation/deadline are
    /// honoured between points (a serial "batch" is one point).
    ///
    /// The calling thread's simulator engine is reused across calls, so a
    /// long-lived process (e.g. `msfu serve`) pays the arena allocations
    /// once, not per job.
    ///
    /// # Errors
    ///
    /// Returns the first factory-construction, placement or simulation error
    /// among the points that ran.
    pub fn run_serial_with(&self, ctrl: &RunControl<'_>) -> Result<SweepOutcome> {
        let total = self.points.len();
        let mut cache: FactoryCache = HashMap::new();
        let eval_cache = open_eval_cache(self.use_eval_cache, self.cache_dir.as_deref())?;
        with_thread_engine(self.eval.sim, |engine| {
            let mut rows: Vec<SweepRow> = Vec::with_capacity(total);
            let mut interrupted = false;
            for point in &self.points {
                if ctrl.interrupted() {
                    interrupted = true;
                    break;
                }
                let entry = self.entry_for(&mut cache, point.factory)?;
                let index = rows.len();
                rows.push(self.evaluate_point(point, &entry, engine, eval_cache.as_ref())?);
                ctrl.emit(&ProgressEvent::RowCompleted {
                    name: &self.name,
                    index,
                    total,
                    row: &rows[index],
                });
            }
            ctrl.emit(&ProgressEvent::BatchFinished {
                name: &self.name,
                completed: rows.len(),
                total,
            });
            Ok(SweepOutcome {
                results: SweepResults {
                    name: self.name.clone(),
                    rows,
                },
                interrupted,
                cache: eval_cache.map(|c| c.stats()).unwrap_or_default(),
            })
        })
    }

    fn entry_for(
        &self,
        cache: &mut FactoryCache,
        config: FactoryConfig,
    ) -> Result<Arc<FactoryEntry>> {
        if let Some(entry) = cache.get(&config) {
            return Ok(entry.clone());
        }
        let entry = Arc::new(FactoryEntry::build(&config)?);
        cache.insert(config, entry.clone());
        Ok(entry)
    }

    /// Evaluates one point against a shared, immutable factory, simulating
    /// through the caller's reusable engine. With a cache, the mapping phase
    /// always runs (it produces the content address) but the simulation of a
    /// duplicate `(factory, layout, eval)` is answered from the shared map.
    fn evaluate_point(
        &self,
        point: &SweepPoint,
        entry: &FactoryEntry,
        engine: &mut SimEngine,
        cache: Option<&EvalCache>,
    ) -> Result<SweepRow> {
        let factory = &entry.factory;
        let layout = point.strategy.map(factory)?;
        let effective = effective_factory(factory, &layout)?;
        let simulate = |engine: &mut SimEngine| {
            evaluate_mapped_with(
                engine,
                &effective,
                &layout,
                point.strategy.short_name(),
                &self.eval,
            )
        };
        let evaluation = match cache {
            Some(cache) => cache.get_or_compute(
                evaluation_key(factory.config(), &layout, &self.eval),
                point.strategy.short_name(),
                || simulate(engine),
            )?,
            None => simulate(engine)?,
        };
        let breakdown = if self.collect_breakdowns {
            Some(per_round_breakdown_with(
                engine,
                &effective,
                &layout,
                &self.eval.sim,
            )?)
        } else {
            None
        };
        let metrics = if self.collect_mapping_metrics {
            // The interaction graph depends only on the circuit, so points
            // sharing an unrewired factory share one lazily built graph; a
            // port-rewired circuit differs and gets its own.
            let computed;
            let graph = if layout.requires_port_rewiring() {
                computed = InteractionGraph::from_circuit(effective.circuit());
                &computed
            } else {
                entry
                    .graph
                    .get_or_init(|| InteractionGraph::from_circuit(factory.circuit()))
            };
            Some(MappingMetrics::compute(graph, &layout.mapping.to_points()))
        } else {
            None
        };
        Ok(SweepRow {
            label: point.label.clone(),
            evaluation,
            breakdown,
            metrics,
        })
    }
}

/// A cached factory plus lazily derived, factory-invariant artifacts shared
/// by every point that maps it.
struct FactoryEntry {
    factory: Factory,
    graph: OnceLock<InteractionGraph>,
}

impl FactoryEntry {
    fn build(config: &FactoryConfig) -> Result<Self> {
        Ok(FactoryEntry {
            factory: Factory::build(config)?,
            graph: OnceLock::new(),
        })
    }
}

type FactoryCache = HashMap<FactoryConfig, Arc<FactoryEntry>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate;
    use msfu_distill::ReusePolicy;
    use msfu_layout::StitchingConfig;

    fn small_spec() -> SweepSpec {
        let caps = [
            FactoryConfig::single_level(2),
            FactoryConfig::single_level(4),
        ];
        SweepSpec::new("test", EvaluationConfig::default())
            .grid("g", &caps, |_| {
                vec![Strategy::linear(), Strategy::random(7)]
            })
            .point(
                "hs",
                FactoryConfig::two_level(2),
                Strategy::hierarchical_stitching(StitchingConfig::default()),
            )
    }

    #[test]
    fn grid_builder_enumerates_every_combination() {
        let spec = small_spec();
        assert_eq!(spec.points.len(), 5);
        assert_eq!(spec.points[0].label, "g");
        assert_eq!(spec.points[4].label, "hs");
    }

    #[test]
    fn parallel_and_serial_runs_are_identical() {
        let spec = small_spec().with_breakdowns();
        let parallel = spec.run().unwrap();
        let serial = spec.run_serial().unwrap();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn cached_factories_match_fresh_builds() {
        // The same config appears in several points; the engine builds it
        // once. Results must equal per-point fresh builds via evaluate().
        let spec = small_spec();
        let results = spec.run().unwrap();
        for (point, row) in spec.points.iter().zip(&results.rows) {
            let fresh = evaluate(&point.factory, &point.strategy, &spec.eval).unwrap();
            assert_eq!(row.evaluation, fresh, "{}", point.label);
        }
    }

    #[test]
    fn optional_collections_default_off() {
        let results = SweepSpec::new("t", EvaluationConfig::default())
            .point("p", FactoryConfig::single_level(2), Strategy::linear())
            .run()
            .unwrap();
        assert!(results.rows[0].breakdown.is_none());
        assert!(results.rows[0].metrics.is_none());
    }

    #[test]
    fn mapping_metrics_are_collected_on_request() {
        let results = SweepSpec::new("t", EvaluationConfig::default())
            .point("p", FactoryConfig::single_level(4), Strategy::random(3))
            .with_mapping_metrics()
            .run()
            .unwrap();
        let metrics = results.rows[0].metrics.unwrap();
        assert!(metrics.avg_edge_length > 0.0);
    }

    #[test]
    fn breakdowns_cover_every_round() {
        let results = SweepSpec::new("t", EvaluationConfig::default())
            .point("p", FactoryConfig::two_level(2), Strategy::linear())
            .with_breakdowns()
            .run()
            .unwrap();
        let breakdown = results.rows[0].breakdown.as_ref().unwrap();
        assert_eq!(breakdown.len(), 2);
        assert!(breakdown[0].permutation_cycles > 0);
    }

    #[test]
    fn errors_propagate_in_point_order() {
        let spec = SweepSpec::new("t", EvaluationConfig::default())
            .point("ok", FactoryConfig::single_level(2), Strategy::linear())
            .point("bad", FactoryConfig::new(0, 1), Strategy::linear());
        assert!(spec.run().is_err());
        assert!(spec.run_serial().is_err());
    }

    #[test]
    fn find_selects_by_label_strategy_and_capacity() {
        let results = small_spec().run().unwrap();
        let row = results.find("g", "Line", 4).unwrap();
        assert_eq!(row.evaluation.factory.capacity(), 4);
        assert!(results.find("g", "HS", 4).is_none());
        assert_eq!(results.labeled("g").count(), 4);
    }

    #[test]
    fn index_agrees_with_linear_find() {
        let results = small_spec().run().unwrap();
        let index = results.index();
        for row in &results.rows {
            let key = (
                row.label.as_str(),
                row.evaluation.strategy.as_str(),
                row.evaluation.factory.capacity(),
            );
            assert_eq!(
                index.find(key.0, key.1, key.2).map(|r| r as *const _),
                results.find(key.0, key.1, key.2).map(|r| r as *const _),
            );
        }
        assert!(index.find("g", "HS", 4).is_none());
        assert_eq!(index.rows("g", "Line", 4).count(), 1);
    }

    #[test]
    fn index_best_reuse_picks_the_smaller_volume() {
        use msfu_distill::ReusePolicy;
        let base = FactoryConfig::two_level(2);
        let results = SweepSpec::new("t", EvaluationConfig::default())
            .point("x", base.with_reuse(ReusePolicy::Reuse), Strategy::linear())
            .point(
                "x",
                base.with_reuse(ReusePolicy::NoReuse),
                Strategy::linear(),
            )
            .run()
            .unwrap();
        let index = results.index();
        let best = index.best_reuse("x", "Line", 4).unwrap();
        let min = results.rows.iter().map(|r| r.evaluation.volume).min();
        assert_eq!(Some(best.evaluation.volume), min);
    }

    #[test]
    fn reuse_policies_are_distinct_cache_keys() {
        let reuse = FactoryConfig::two_level(2).with_reuse(ReusePolicy::Reuse);
        let no_reuse = FactoryConfig::two_level(2).with_reuse(ReusePolicy::NoReuse);
        let results = SweepSpec::new("t", EvaluationConfig::default())
            .point("r", reuse, Strategy::linear())
            .point("nr", no_reuse, Strategy::linear())
            .run()
            .unwrap();
        assert!(
            results.rows[0].evaluation.logical_qubits < results.rows[1].evaluation.logical_qubits
        );
    }
}
