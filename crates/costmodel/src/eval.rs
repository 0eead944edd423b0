//! The evaluator front door: `(layer, mapping) → CostReport` (or the
//! compact `LayerCost` the search carries).

use crate::accelerator::{HwConfig, Platform};
use crate::analysis::{analyze, analyze_into};
use crate::area::{AreaModel, AREA_MODEL_15NM};
use crate::energy::{EnergyModel, ENERGY_MODEL_DEFAULT};
use crate::error::EvalError;
use crate::latency::latency;
use crate::mapping::Mapping;
use crate::report::{CostReport, LayerCost};
use crate::scratch::EvalScratch;
use digamma_workload::Layer;
use std::cell::RefCell;

thread_local! {
    /// The lazily-created per-thread scratch backing [`Evaluator::evaluate`]:
    /// the public signature stays scratch-free while every call on a given
    /// thread reuses one arena. (An `Evaluator` is shared immutably across
    /// worker threads, so it cannot own the scratch itself without a lock
    /// on the hot path.)
    static THREAD_SCRATCH: RefCell<EvalScratch> = RefCell::new(EvalScratch::new());
}

/// Runs `f` on this thread's `THREAD_SCRATCH`.
fn with_thread_scratch<R>(f: impl FnOnce(&mut EvalScratch) -> R) -> R {
    THREAD_SCRATCH.with(|scratch| match scratch.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        // Unreachable in practice (evaluation never re-enters), but a
        // fresh scratch keeps even that case correct.
        Err(_) => f(&mut EvalScratch::new()),
    })
}

/// Evaluates `(layer, mapping)` pairs on a platform.
///
/// This plays the role MAESTRO plays in the paper's evaluation block
/// (Fig. 3(a)): it runs the reuse analysis, the latency/energy models, and
/// derives the hardware (buffer allocation strategy) and its area.
///
/// # Example
///
/// ```
/// use digamma_costmodel::{Evaluator, Mapping, Platform};
/// use digamma_workload::Layer;
///
/// let layer = Layer::gemm("fc", 256, 64, 512);
/// let mapping = Mapping::row_major_example(&layer, 4, 8);
/// let report = Evaluator::new(Platform::edge()).evaluate(&layer, &mapping)?;
/// assert!(report.utilization > 0.0);
/// # Ok::<(), digamma_costmodel::EvalError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Evaluator {
    platform: Platform,
    area_model: AreaModel,
    energy_model: EnergyModel,
}

impl Evaluator {
    /// Creates an evaluator with the default area and energy models.
    pub fn new(platform: Platform) -> Evaluator {
        Evaluator { platform, area_model: AREA_MODEL_15NM, energy_model: ENERGY_MODEL_DEFAULT }
    }

    /// Overrides the area model.
    pub fn with_area_model(mut self, area_model: AreaModel) -> Evaluator {
        self.area_model = area_model;
        self
    }

    /// Overrides the energy model.
    pub fn with_energy_model(mut self, energy_model: EnergyModel) -> Evaluator {
        self.energy_model = energy_model;
        self
    }

    /// The platform this evaluator scores against.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The active area model.
    pub fn area_model(&self) -> &AreaModel {
        &self.area_model
    }

    /// The active energy model.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy_model
    }

    /// Feeds every model constant the cost model reads — platform
    /// bandwidths plus area/energy coefficients — into `hasher`, in the
    /// same order [`crate::cachekey::layer_eval_key`] uses. Higher-level
    /// caches (the genome-level memo) build their stable keys on this so
    /// the evaluator's identity hashes one way everywhere.
    pub fn write_model_constants(&self, hasher: &mut crate::cachekey::StableHasher) {
        hasher.write_f64(self.platform.bw_dram);
        hasher.write_f64(self.platform.bw_noc);
        hasher.write_f64(self.area_model.pe_um2);
        hasher.write_f64(self.area_model.l1_um2_per_word);
        hasher.write_f64(self.area_model.mid_um2_per_word);
        hasher.write_f64(self.area_model.l2_um2_per_word);
        hasher.write_f64(self.energy_model.mac_pj);
        hasher.write_f64(self.energy_model.l1_pj);
        hasher.write_f64(self.energy_model.mid_pj);
        hasher.write_f64(self.energy_model.l2_pj);
        hasher.write_f64(self.energy_model.noc_pj);
        hasher.write_f64(self.energy_model.dram_pj);
    }

    /// Stable memo key for [`Evaluator::evaluate`] on this evaluator:
    /// equal keys guarantee identical [`CostReport`]s (see
    /// [`crate::cachekey`]).
    pub fn cache_key(&self, layer: &Layer, mapping: &Mapping) -> u64 {
        crate::cachekey::layer_eval_key(
            self.platform.bw_dram,
            self.platform.bw_noc,
            &self.area_model,
            &self.energy_model,
            layer,
            mapping,
        )
    }

    /// Evaluates a mapping, deriving minimum-footprint hardware
    /// (DiGamma's buffer allocation strategy).
    ///
    /// Internally this borrows a lazily-created per-thread
    /// [`EvalScratch`], so repeated calls on one thread are
    /// allocation-free apart from the returned report; callers managing
    /// their own scratch (batch evaluators, benchmark loops) should use
    /// [`Evaluator::evaluate_with_scratch`] directly.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] when the mapping is structurally invalid for
    /// the layer. Over-budget designs still evaluate — the constraint
    /// checker upstream decides their fate.
    pub fn evaluate(&self, layer: &Layer, mapping: &Mapping) -> Result<CostReport, EvalError> {
        with_thread_scratch(|scratch| self.evaluate_with_scratch(layer, mapping, scratch))
    }

    /// The search's evaluation: the three fields of
    /// [`Evaluator::evaluate`]'s report that design aggregation reads,
    /// bit-identical to them, filled straight from the reuse analysis on
    /// the per-thread scratch. Skips the report's latency breakdown,
    /// traffic, derived hardware and area, so it allocates nothing
    /// beyond the latency model's per-link vector.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] when the mapping is structurally invalid.
    pub fn layer_cost(&self, layer: &Layer, mapping: &Mapping) -> Result<LayerCost, EvalError> {
        with_thread_scratch(|scratch| {
            analyze_into(layer, mapping, scratch.analysis_mut())?;
            let analysis = scratch.analysis();
            Ok(LayerCost {
                latency_cycles: latency(analysis, &self.platform).total_cycles,
                energy_pj: self.energy_model.energy_pj(analysis),
                buffers: analysis.buffers,
            })
        })
    }

    /// [`Evaluator::evaluate`] against an explicit reusable scratch: one
    /// reuse analysis (the baseline ran two), no intermediate
    /// allocations beyond what the returned [`CostReport`] owns.
    ///
    /// Results are bit-identical to [`Evaluator::evaluate_baseline`];
    /// the equivalence tests below enforce it.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] when the mapping is structurally invalid.
    pub fn evaluate_with_scratch(
        &self,
        layer: &Layer,
        mapping: &Mapping,
        scratch: &mut EvalScratch,
    ) -> Result<CostReport, EvalError> {
        analyze_into(layer, mapping, scratch.analysis_mut())?;
        let analysis = scratch.analysis();
        let hw = HwConfig::for_mapping_buffers(mapping.pe_shape(), &analysis.buffers);
        let lat = latency(analysis, &self.platform);
        let energy = self.energy_model.energy_pj(analysis);
        let area = self.area_model.area_um2(&hw);
        let pe_area = self.area_model.pe_area_um2(&hw);
        Ok(CostReport::assemble(analysis, lat, energy, area, pe_area, hw))
    }

    /// The pre-scratch **allocating reference path**, kept verbatim (it
    /// runs the reuse analysis twice: once to derive the hardware, once
    /// to score it). Exists so the equivalence tests and the perf
    /// harness (`digamma_bench::perfjson`) can measure and verify the
    /// optimized path against the original behaviour.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] when the mapping is structurally invalid.
    pub fn evaluate_baseline(
        &self,
        layer: &Layer,
        mapping: &Mapping,
    ) -> Result<CostReport, EvalError> {
        let fanouts: Vec<u64> = mapping.pe_shape();
        let analysis = analyze(layer, mapping)?;
        let hw = HwConfig::for_mapping_buffers(fanouts, &analysis.buffers);
        self.finish(layer, mapping, hw)
    }

    /// Evaluates a mapping against **given** hardware (the Fixed-HW
    /// use-case and the GAMMA baseline). The report carries the given
    /// hardware's area; callers should first check
    /// [`HwConfig::accommodates`] and penalize misfits.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] when the mapping is structurally invalid.
    pub fn evaluate_on_hw(
        &self,
        layer: &Layer,
        mapping: &Mapping,
        hw: &HwConfig,
    ) -> Result<CostReport, EvalError> {
        self.finish(layer, mapping, hw.clone())
    }

    fn finish(
        &self,
        layer: &Layer,
        mapping: &Mapping,
        hw: HwConfig,
    ) -> Result<CostReport, EvalError> {
        let analysis = analyze(layer, mapping)?;
        let lat = latency(&analysis, &self.platform);
        let energy = self.energy_model.energy_pj(&analysis);
        let area = self.area_model.area_um2(&hw);
        let pe_area = self.area_model.pe_area_um2(&hw);
        Ok(CostReport::assemble(&analysis, lat, energy, area, pe_area, hw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use digamma_workload::zoo;

    #[test]
    fn evaluate_every_layer_of_every_model() {
        // The cost model must handle every shape in the zoo without error.
        let eval = Evaluator::new(Platform::edge());
        for model in zoo::all_models() {
            for layer in model.layers() {
                let m = Mapping::row_major_example(layer, 4, 8);
                let r = eval
                    .evaluate(layer, &m)
                    .unwrap_or_else(|e| panic!("{}/{}: {e}", model.name(), layer.name()));
                assert!(r.latency_cycles.is_finite() && r.latency_cycles > 0.0);
                assert!(r.energy_pj > 0.0);
                assert!(r.area_um2 > 0.0);
                assert!(r.utilization > 0.0 && r.utilization <= 1.0 + 1e-9);
            }
        }
    }

    #[test]
    fn derived_hw_matches_buffer_requirement() {
        let layer = digamma_workload::Layer::conv("l", 64, 32, 16, 16, 3, 3, 1);
        let m = Mapping::row_major_example(&layer, 8, 4);
        let r = Evaluator::new(Platform::edge()).evaluate(&layer, &m).unwrap();
        assert_eq!(r.hw.l2_words, r.buffers.l2_words);
        assert_eq!(r.hw.l1_words_per_pe, r.buffers.l1_words_per_pe);
        assert_eq!(r.hw.num_pes(), 32);
    }

    #[test]
    fn evaluate_on_hw_uses_given_area() {
        let layer = digamma_workload::Layer::conv("l", 64, 32, 16, 16, 3, 3, 1);
        let m = Mapping::row_major_example(&layer, 8, 4);
        let eval = Evaluator::new(Platform::edge());
        let derived = eval.evaluate(&layer, &m).unwrap();
        // An oversized fixed HW costs more area for identical latency.
        let big_hw = HwConfig {
            fanouts: vec![8, 4],
            l2_words: derived.hw.l2_words * 10,
            mid_words_per_unit: vec![],
            l1_words_per_pe: derived.hw.l1_words_per_pe * 10,
        };
        let fixed = eval.evaluate_on_hw(&layer, &m, &big_hw).unwrap();
        assert!(fixed.area_um2 > derived.area_um2);
        assert!((fixed.latency_cycles - derived.latency_cycles).abs() < 1e-9);
    }

    /// Bit-exact equality of two cost reports, field by field.
    fn assert_bit_identical(a: &CostReport, b: &CostReport, context: &str) {
        assert_eq!(a.latency_cycles.to_bits(), b.latency_cycles.to_bits(), "{context}");
        assert_eq!(a.latency.compute_cycles.to_bits(), b.latency.compute_cycles.to_bits());
        assert_eq!(a.latency.dram_cycles.to_bits(), b.latency.dram_cycles.to_bits());
        assert_eq!(a.latency.noc_cycles.len(), b.latency.noc_cycles.len());
        for (x, y) in a.latency.noc_cycles.iter().zip(&b.latency.noc_cycles) {
            assert_eq!(x.to_bits(), y.to_bits(), "{context}");
        }
        assert_eq!(a.latency.fill_cycles.to_bits(), b.latency.fill_cycles.to_bits());
        assert_eq!(a.latency.total_cycles.to_bits(), b.latency.total_cycles.to_bits());
        assert_eq!(a.latency.bottleneck, b.latency.bottleneck, "{context}");
        assert_eq!(a.energy_pj.to_bits(), b.energy_pj.to_bits(), "{context}");
        assert_eq!(a.area_um2.to_bits(), b.area_um2.to_bits(), "{context}");
        assert_eq!(a.pe_area_um2.to_bits(), b.pe_area_um2.to_bits(), "{context}");
        assert_eq!(a.hw, b.hw, "{context}");
        assert_eq!(a.buffers, b.buffers, "{context}");
        assert_eq!(a.traffic, b.traffic, "{context}");
        assert_eq!(a.utilization.to_bits(), b.utilization.to_bits(), "{context}");
        assert_eq!(a.macs, b.macs, "{context}");
    }

    #[test]
    fn scratch_path_is_bit_identical_to_allocating_baseline() {
        // One reused scratch across every layer of every zoo model and
        // several PE shapes: the optimized path must reproduce the
        // original double-analysis path to the bit, with no state
        // leaking between consecutive evaluations.
        let mut scratch = crate::EvalScratch::new();
        for platform in [Platform::edge(), Platform::cloud()] {
            let eval = Evaluator::new(platform);
            for model in zoo::all_models() {
                for layer in model.layers().iter().take(8) {
                    for (rows, cols) in [(4, 8), (8, 4)] {
                        let m = Mapping::row_major_example(layer, rows, cols);
                        let baseline = eval.evaluate_baseline(layer, &m).unwrap();
                        let scratched =
                            eval.evaluate_with_scratch(layer, &m, &mut scratch).unwrap();
                        let threaded = eval.evaluate(layer, &m).unwrap();
                        let context = format!("{}/{}", model.name(), layer.name());
                        assert_bit_identical(&baseline, &scratched, &context);
                        assert_bit_identical(&baseline, &threaded, &context);
                    }
                }
            }
        }
    }

    #[test]
    fn layer_cost_is_bit_identical_to_the_reports_fields() {
        // The search's compact value must carry exactly the three
        // fields aggregation reads from the full report, for every zoo
        // layer on both platforms and both PE-array orientations.
        for platform in [Platform::edge(), Platform::cloud()] {
            let eval = Evaluator::new(platform);
            for model in zoo::all_models() {
                for layer in model.layers() {
                    for (rows, cols) in [(4, 8), (8, 4)] {
                        let m = Mapping::row_major_example(layer, rows, cols);
                        let report = eval.evaluate(layer, &m).unwrap();
                        let cost = eval.layer_cost(layer, &m).unwrap();
                        let context = format!("{}/{}", model.name(), layer.name());
                        assert_eq!(
                            cost.latency_cycles.to_bits(),
                            report.latency_cycles.to_bits(),
                            "{context}"
                        );
                        assert_eq!(
                            cost.energy_pj.to_bits(),
                            report.energy_pj.to_bits(),
                            "{context}"
                        );
                        assert_eq!(cost.buffers, report.buffers, "{context}");
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_survives_errors_between_evaluations() {
        let eval = Evaluator::new(Platform::edge());
        let layer = digamma_workload::Layer::gemm("g", 64, 32, 64);
        let good = Mapping::row_major_example(&layer, 4, 4);
        let mut scratch = crate::EvalScratch::new();
        // An invalid mapping (zero fan-out) errors without poisoning the
        // scratch for the next evaluation.
        let bad = Mapping::new(vec![crate::LevelSpec {
            fanout: 0,
            spatial_dim: digamma_workload::Dim::K,
            order: digamma_workload::Dim::ALL,
            tile: digamma_workload::DimVec::splat(1),
        }]);
        assert!(eval.evaluate_with_scratch(&layer, &bad, &mut scratch).is_err());
        let after_error = eval.evaluate_with_scratch(&layer, &good, &mut scratch).unwrap();
        let baseline = eval.evaluate_baseline(&layer, &good).unwrap();
        assert_bit_identical(&baseline, &after_error, "post-error");
    }

    #[test]
    fn report_metrics_compose() {
        let layer = digamma_workload::Layer::gemm("g", 128, 64, 256);
        let m = Mapping::row_major_example(&layer, 4, 4);
        let r = Evaluator::new(Platform::cloud()).evaluate(&layer, &m).unwrap();
        assert!((r.edp() - r.energy_pj * r.latency_cycles).abs() < 1e-6);
        assert!(r.latency_area_product() > 0.0);
        let (pe, buf) = r.area_ratio_percent();
        assert!((pe + buf - 100.0).abs() < 1e-9);
        // Display must render without panicking and mention the bottleneck.
        let shown = format!("{r}");
        assert!(shown.contains("latency"));
    }
}
