//! Human-readable reports of flow results.

use acim_chip::TenantMetrics;
use acim_dse::{ChipDesignPoint, DesignPoint};
use acim_telemetry::{Histogram, MetricValue, TelemetrySnapshot};

use crate::chip::ChipFlowResult;
use crate::flow::{FlowResult, GeneratedDesign};

/// Formats a Pareto frontier (or any list of design points) as an aligned
/// text table, one row per design.
pub fn frontier_table(points: &[DesignPoint]) -> String {
    let mut out = String::new();
    out.push_str(
        "  H      W      L   B  | SNR(dB)  T(TOPS)   E(fJ/MAC)  eff(TOPS/W)  area(F2/bit)\n",
    );
    out.push_str(
        "-------------------------------------------------------------------------------\n",
    );
    for p in points {
        out.push_str(&format!(
            "{:>5} {:>6} {:>4} {:>3}  | {:>7.1} {:>8.3} {:>10.2} {:>12.0} {:>13.0}\n",
            p.spec.height(),
            p.spec.width(),
            p.spec.local_array(),
            p.spec.adc_bits(),
            p.metrics.snr_db,
            p.metrics.throughput_tops,
            p.metrics.energy_per_mac_fj,
            p.metrics.tops_per_watt,
            p.metrics.area_f2_per_bit,
        ));
    }
    out
}

/// Formats one generated design (netlist + layout) as a report block.
pub fn design_report(design: &GeneratedDesign) -> String {
    let m = &design.layout.metrics;
    let s = &design.netlist_stats;
    format!(
        "design {spec}\n\
         \x20 estimated: {point}\n\
         \x20 netlist  : {cells} SRAM cells, {lc} compute cells, {tr} transistors, {caps} capacitors\n\
         \x20 layout   : core {w:.0} x {h:.0} um ({density:.0} F2/bit), total {tw:.0} x {th:.0} um\n\
         \x20 wiring   : {wl:.0} um routed, {vias} vias, {inst} placed instances\n\
         \x20 runtime  : {ms} ms netlist+layout generation\n",
        spec = design.point.spec,
        point = design.point,
        cells = s.sram_cells,
        lc = s.compute_cells,
        tr = s.transistors,
        caps = s.capacitors,
        w = m.core_width_um,
        h = m.core_height_um,
        density = m.core_area_f2_per_bit,
        tw = m.total_width_um,
        th = m.total_height_um,
        wl = m.wirelength_um,
        vias = m.via_count,
        inst = m.instance_count,
        ms = design.generation_time.as_millis(),
    )
}

/// Formats a chip-level Pareto front as an aligned text table, one row
/// per chip.
pub fn chip_frontier_table(points: &[ChipDesignPoint]) -> String {
    let mut out = String::new();
    out.push_str(
        "grid    macro          buf(KiB) | acc(dB)  T(TOPS)  E(pJ/inf)  area(MF2)  lat(ns)\n",
    );
    out.push_str(
        "---------------------------------------------------------------------------------\n",
    );
    for p in points {
        let macro_desc = if p.chip.grid.is_uniform() {
            let spec = p.chip.grid.spec(0);
            format!(
                "{:>4}x{:<4} L={:<2} B={}",
                spec.height(),
                spec.width(),
                spec.local_array(),
                spec.adc_bits(),
            )
        } else {
            format!(
                "{:<18}",
                format!("{} macro shapes", p.chip.grid.distinct_specs().len())
            )
        };
        out.push_str(&format!(
            "{:>2}x{:<2}  {} {:>6}  | {:>7.1} {:>8.3} {:>10.1} {:>10.1} {:>8.1}\n",
            p.chip.grid.rows(),
            p.chip.grid.cols(),
            macro_desc,
            p.chip.buffer_kib,
            p.metrics.accuracy_db,
            p.metrics.throughput_tops,
            p.metrics.energy_per_inference_pj,
            p.metrics.area_mf2,
            p.metrics.latency_ns,
        ));
    }
    out
}

/// Formats the per-tenant breakdown of one frontier chip as an aligned
/// text table, one row per tenant.  Empty for single-tenant points, so
/// single-network reports are unchanged.
pub fn tenant_table(tenants: &[TenantMetrics]) -> String {
    if tenants.len() < 2 {
        return String::new();
    }
    let mut out = String::new();
    out.push_str("tenant              weight | acc(dB)  T(TOPS)  E(pJ/inf)   lat(ns)  util\n");
    out.push_str("------------------------------------------------------------------------\n");
    for t in tenants {
        out.push_str(&format!(
            "{:<18} {:>6.1}  | {:>7.1} {:>8.3} {:>10.1} {:>9.1} {:>5.2}\n",
            t.name,
            t.weight,
            t.metrics.accuracy_db,
            t.metrics.throughput_tops,
            t.metrics.energy_per_inference_pj,
            t.metrics.latency_ns,
            t.metrics.mean_utilization,
        ));
    }
    out
}

/// One report line for the macro-metric reuse layer, empty when the run
/// had no macro-metric cache (so cold single-run reports are unchanged).
/// For a multi-tenant run, `tenants` (the best chip's per-tenant
/// breakdown) appends each tenant's share of the reuse: its per-tile
/// macro-metric reads, all served from the chip's once-per-distinct-macro
/// derivation.  Counts only — the line stays `NaN`/`inf`-free even for
/// full-cache-hit replays whose timing stats are all zero.
fn macro_cache_line(engine: &acim_moga::EvalStats, tenants: Option<&[TenantMetrics]>) -> String {
    if engine.macro_cache.total() == 0 {
        return String::new();
    }
    let mut line = format!("macro-metric reuse: {}", engine.macro_cache);
    if let Some(tenants) = tenants {
        if tenants.len() > 1 {
            let shares: Vec<String> = tenants
                .iter()
                .map(|t| format!("{} {} reads", t.name, t.macro_reads))
                .collect();
            line.push_str(&format!(" (best chip, per tenant: {})", shares.join(", ")));
        }
    }
    line.push('\n');
    line
}

/// The always-rendered `telemetry:` report line: generation-latency
/// quantiles (p50/p90/p99 over the run's per-generation wall-clock) and
/// the cache hit rate.  Every value is guaranteed finite
/// — a `--quick` full-cache-hit replay whose generations all land below
/// the timer resolution renders zeros, never `NaN`/`inf`
/// (`tests/service.rs` asserts this).
fn telemetry_line(engine: &acim_moga::EvalStats) -> String {
    let histogram = Histogram::latency();
    for &seconds in &engine.generation_seconds {
        histogram.observe(seconds);
    }
    let snapshot = histogram.snapshot();
    format!(
        "telemetry: generation p50 {:.1} ms / p90 {:.1} ms / p99 {:.1} ms, \
         cache hit rate {:.1}%\n",
        snapshot.quantile(0.50) * 1e3,
        snapshot.quantile(0.90) * 1e3,
        snapshot.quantile(0.99) * 1e3,
        engine.cache.hit_rate() * 100.0,
    )
}

/// Renders a service telemetry snapshot ([`TelemetrySnapshot`]) as an
/// indented human-readable section: one line per counter/gauge, a
/// `p50/p90/p99` line per histogram, plus the span-buffer tally.  Empty
/// snapshot (telemetry disabled) → empty string.  All values render
/// finite (the snapshot types sanitise on construction).
pub fn telemetry_section(snapshot: &TelemetrySnapshot) -> String {
    if snapshot.is_empty() {
        return String::new();
    }
    let mut out = String::from("telemetry:\n");
    for sample in &snapshot.samples {
        let labels = if sample.labels.is_empty() {
            String::new()
        } else {
            let pairs: Vec<String> = sample
                .labels
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            format!("{{{}}}", pairs.join(","))
        };
        match &sample.value {
            MetricValue::Counter(v) => {
                out.push_str(&format!("  {}{labels} {v}\n", sample.name));
            }
            MetricValue::Gauge(v) => {
                out.push_str(&format!("  {}{labels} {v:.3}\n", sample.name));
            }
            MetricValue::Histogram(h) => {
                out.push_str(&format!(
                    "  {}{labels} count {} p50 {:.6} p90 {:.6} p99 {:.6}\n",
                    sample.name,
                    h.count,
                    h.quantile(0.50),
                    h.quantile(0.90),
                    h.quantile(0.99),
                ));
            }
        }
    }
    out.push_str(&format!(
        "  spans: {} recorded, {} dropped\n",
        snapshot.spans.len(),
        snapshot.spans_dropped,
    ));
    out
}

/// Summarises the chip-composition stage: the front, the evaluation-engine
/// stats, the best chip, and the behavioural validation when present.
pub fn chip_report(result: &ChipFlowResult) -> String {
    let mut out = format!(
        "chip composition: {} frontier chips ({} evaluations in {:.2} s)\n\
         evaluation engine: {:.0} evals/s, cache {}, {:.1} ms mean per generation\n{}{}{}",
        result.front.len(),
        result.engine.evaluations,
        result.exploration_time.as_secs_f64(),
        result.engine.evaluations_per_second(),
        result.engine.cache,
        result.engine.mean_generation_seconds() * 1e3,
        macro_cache_line(
            &result.engine,
            result.best_throughput().map(|p| p.tenants.as_slice()),
        ),
        telemetry_line(&result.engine),
        chip_frontier_table(&result.front),
    );
    if let Some(best) = result.best_throughput() {
        out.push_str(&format!("best throughput: {best}\n"));
        let tenants = tenant_table(&best.tenants);
        if !tenants.is_empty() {
            out.push_str("per-tenant breakdown (best-throughput chip):\n");
            out.push_str(&tenants);
        }
    }
    if let Some(best) = result.best_energy() {
        out.push_str(&format!("best energy    : {best}\n"));
    }
    if let Some(best) = result.best_area() {
        out.push_str(&format!("best area      : {best}\n"));
    }
    if let Some(validation) = &result.validation {
        out.push_str(&format!(
            "behavioural validation: {} layers, {} total cycles, max relative error {:.4}\n",
            validation.layers.len(),
            validation.layers.iter().map(|l| l.cycles).sum::<u64>(),
            validation.max_relative_error(),
        ));
        for layer in &validation.layers {
            out.push_str(&format!(
                "  {:<12} {:>4} tiles on {} macros, {:>6} cycles, err {:.4}\n",
                layer.name, layer.tiles, layer.macros_used, layer.cycles, layer.relative_error,
            ));
        }
    }
    if let Some(validation) = &result.mix_validation {
        out.push_str(&format!(
            "behavioural validation (interleaved streams): {} tenants, {} total cycles, \
             makespan {:.1} ns, max relative error {:.4}\n",
            validation.tenants.len(),
            validation.total_cycles,
            validation.makespan_ns,
            validation.max_relative_error(),
        ));
        for tenant in &validation.tenants {
            out.push_str(&format!(
                "  {:<18} {} layers, {:>6} cycles, err {:.4}\n",
                tenant.name,
                tenant.report.layers.len(),
                tenant.report.layers.iter().map(|l| l.cycles).sum::<u64>(),
                tenant.report.max_relative_error(),
            ));
        }
    }
    out
}

/// Summarises a whole flow run (frontier size, timings, generated designs).
pub fn flow_summary(result: &FlowResult) -> String {
    let mut out = format!(
        "EasyACIM flow: {} frontier points, {} after distillation, {} layouts generated\n\
         exploration: {} evaluations in {:.2} s ({:.0} evals/s, cache {}); \
         total runtime {:.2} s\n{}{}",
        result.frontier.len(),
        result.distilled.len(),
        result.designs.len(),
        result.engine.evaluations,
        result.exploration_time.as_secs_f64(),
        result.engine.evaluations_per_second(),
        result.engine.cache,
        result.total_time.as_secs_f64(),
        macro_cache_line(&result.engine, None),
        telemetry_line(&result.engine),
    );
    for design in &result.designs {
        out.push_str(&design_report(design));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use acim_arch::AcimSpec;
    use acim_model::{evaluate, ModelParams};

    fn points() -> Vec<DesignPoint> {
        [(128usize, 128usize, 8usize, 3u32), (64, 256, 8, 3)]
            .iter()
            .map(|&(h, w, l, b)| {
                let spec = AcimSpec::from_dimensions(h, w, l, b).unwrap();
                DesignPoint::new(spec, evaluate(&spec, &ModelParams::s28_default()).unwrap())
            })
            .collect()
    }

    #[test]
    fn frontier_table_has_one_row_per_point_plus_header() {
        let table = frontier_table(&points());
        assert_eq!(table.lines().count(), 2 + 2);
        assert!(table.contains("TOPS/W"));
        assert!(table.contains("128"));
    }

    #[test]
    fn empty_frontier_renders_header_only() {
        let table = frontier_table(&[]);
        assert_eq!(table.lines().count(), 2);
    }

    #[test]
    fn telemetry_line_renders_finite_even_for_zero_duration_runs() {
        // A full-cache-hit replay: every generation below the timer
        // resolution, zero misses.
        let engine = acim_moga::EvalStats {
            generation_seconds: vec![0.0; 8],
            ..Default::default()
        };
        let line = telemetry_line(&engine);
        assert!(line.starts_with("telemetry:"));
        assert!(!line.contains("NaN") && !line.contains("inf"));
    }

    #[test]
    fn tenant_table_renders_only_for_mixes() {
        let tenant = |name: &str, weight: f64, reads: usize| TenantMetrics {
            name: name.into(),
            weight,
            metrics: acim_chip::ChipMetrics {
                latency_ns: 100.0,
                inferences_per_s: 1e7,
                throughput_tops: 0.5,
                energy_per_inference_pj: 42.0,
                area_mf2: 1.0,
                accuracy_db: 18.0,
                mean_utilization: 0.75,
                layers: Vec::new(),
            },
            macro_reads: reads,
        };
        assert!(tenant_table(&[tenant("solo", 1.0, 4)]).is_empty());
        let table = tenant_table(&[tenant("cnn", 2.0, 8), tenant("snn", 4.0, 3)]);
        assert_eq!(table.lines().count(), 2 + 2);
        assert!(table.contains("cnn"));
        assert!(table.contains("snn"));

        // The reuse line breaks the best chip's reads down per tenant and
        // stays NaN/inf-free even when every timing stat is zero (a
        // full-cache-hit replay).
        let engine = acim_moga::EvalStats {
            macro_cache: acim_moga::CacheStats {
                hits: 7,
                misses: 0,
                evictions: 0,
            },
            ..Default::default()
        };
        let line = macro_cache_line(
            &engine,
            Some(&[tenant("cnn", 2.0, 8), tenant("snn", 4.0, 3)]),
        );
        assert!(line.starts_with("macro-metric reuse:"));
        assert!(line.contains("cnn 8 reads"));
        assert!(line.contains("snn 3 reads"));
        assert!(!line.contains("NaN") && !line.contains("inf"));
        // Single-tenant runs keep the pre-mix line verbatim.
        let single = macro_cache_line(&engine, Some(&[tenant("solo", 1.0, 4)]));
        assert!(!single.contains("reads"));
    }

    #[test]
    fn telemetry_section_renders_samples_and_spans() {
        let empty = TelemetrySnapshot::default();
        assert!(telemetry_section(&empty).is_empty());

        let telemetry = acim_telemetry::Telemetry::new();
        telemetry
            .registry()
            .counter("demo_total", "demo", &[("kind", "x")])
            .inc();
        telemetry
            .registry()
            .histogram("demo_seconds", "demo", &[])
            .observe(0.25);
        drop(telemetry.span("demo"));
        let section = telemetry_section(&telemetry.snapshot());
        assert!(section.starts_with("telemetry:\n"));
        assert!(section.contains("demo_total{kind=x} 1"));
        assert!(section.contains("demo_seconds"));
        assert!(section.contains("spans: 1 recorded, 0 dropped"));
        assert!(!section.contains("NaN") && !section.contains("inf"));
    }
}
