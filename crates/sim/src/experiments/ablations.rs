//! Ablations beyond the paper's figures, isolating the design choices
//! DESIGN.md calls out.
//!
//! 1. **Software barriers vs hardware flow control** (§IV-C's discussed
//!    alternative): `count` with a processor-wide barrier after every
//!    record, versus plain no-flow-control, versus Millipede's flow
//!    control. The paper found record-granularity barriers "perform
//!    similarly to Millipede-no-flow-control" — ours reproduce that: on the
//!    memory-bound kernel the barrier waits hide behind the fill waits, so
//!    the barriers buy nothing that the hardware flow control doesn't
//!    already provide (and on compute-bound kernels they would serialize).
//! 2. **FR-FCFS queue depth**: how much of SSMC's row locality the
//!    controller's reorder window buys.
//! 3. **Banks per channel**: bank-level parallelism under Millipede's
//!    sequential row stream vs SSMC's interleaved block streams.
//! 4. **Channel width**: sweeps the compute:memory balance point across the
//!    boundedness regimes — the knob behind DESIGN.md's calibration note.
//! 5. **Column width (slab-interleaving)**: §IV-C's layout flexibility
//!    claim — wide columns leave Millipede's slabs unchanged but break SIMT
//!    coalescing ("GPGPUs must use word-size columns").

use crate::arch::{gpgpu_config, millipede_config, ssmc_config};
use crate::config::SimConfig;
use crate::report::{f2, f3, Table};
use millipede_core::NodeResult;
use millipede_workloads::{count, Benchmark, Workload};

/// Results of the software-barrier ablation.
#[derive(Debug, Clone)]
pub struct BarrierAblation {
    /// Millipede with hardware flow control.
    pub flow_control: NodeResult,
    /// Row-orientedness without flow control.
    pub no_flow_control: NodeResult,
    /// No flow control, software barrier after every record.
    pub barriers: NodeResult,
}

/// Runs the software-barrier ablation on `count`.
pub fn software_barriers(cfg: &SimConfig) -> BarrierAblation {
    let plain = Workload::build(Benchmark::Count, cfg.num_chunks, cfg.row_bytes, cfg.seed);
    let barred = count::build_with_barriers(cfg.num_chunks, cfg.row_bytes, cfg.seed);

    let mk = |flow_control: bool| millipede_config(cfg, flow_control, false);
    let flow_control = millipede_core::run(&plain, &mk(true));
    let no_flow_control = millipede_core::run(&plain, &mk(false));
    let barriers = millipede_core::run(&barred, &mk(false));
    assert!(flow_control.output_ok && no_flow_control.output_ok && barriers.output_ok);
    BarrierAblation {
        flow_control,
        no_flow_control,
        barriers,
    }
}

impl BarrierAblation {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec!["configuration", "time (µs)", "vs flow control"]);
        let base = self.flow_control.elapsed_ps as f64;
        for (name, r) in [
            ("hardware flow control", &self.flow_control),
            ("no flow control", &self.no_flow_control),
            ("software barrier per record", &self.barriers),
        ] {
            t.row(vec![
                name.to_string(),
                format!("{:.1}", r.runtime_us()),
                f2(base / r.elapsed_ps as f64),
            ]);
        }
        t.render()
    }
}

/// One (parameter, result) sweep point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The swept parameter value.
    pub value: u64,
    /// The run.
    pub result: NodeResult,
}

/// Sweeps the FR-FCFS queue depth on SSMC (`classify`, the benchmark whose
/// straying produces the most row misses).
pub fn queue_depth(cfg: &SimConfig, depths: &[usize]) -> Vec<SweepPoint> {
    let w = Workload::build(Benchmark::Classify, cfg.num_chunks, cfg.row_bytes, cfg.seed);
    depths
        .iter()
        .map(|&d| {
            let mut c = ssmc_config(cfg);
            c.dram_queue = d;
            let result = millipede_ssmc::run(&w, &c);
            assert!(result.output_ok);
            SweepPoint {
                value: d as u64,
                result,
            }
        })
        .collect()
}

/// Sweeps banks per channel for Millipede and SSMC on `classify`.
pub fn banks(cfg: &SimConfig, bank_counts: &[usize]) -> Vec<(SweepPoint, SweepPoint)> {
    let w = Workload::build(Benchmark::Classify, cfg.num_chunks, cfg.row_bytes, cfg.seed);
    bank_counts
        .iter()
        .map(|&n| {
            let mut mc = millipede_config(cfg, true, false);
            mc.geometry.banks = n;
            let mut sc = ssmc_config(cfg);
            sc.geometry.banks = n;
            let milli = millipede_core::run(&w, &mc);
            let ssmc = millipede_ssmc::run(&w, &sc);
            assert!(milli.output_ok && ssmc.output_ok);
            (
                SweepPoint {
                    value: n as u64,
                    result: milli,
                },
                SweepPoint {
                    value: n as u64,
                    result: ssmc,
                },
            )
        })
        .collect()
}

/// Sweeps the channel width (bits) for Millipede on `count` and `gda`,
/// reporting the rate-matched clock — showing where each kernel flips from
/// memory- to compute-bound.
pub fn channel_width(cfg: &SimConfig, widths: &[u32]) -> Vec<(u32, NodeResult, NodeResult)> {
    widths
        .iter()
        .map(|&bits| {
            let mut mk = millipede_config(cfg, true, true);
            mk.timing.width_bits = bits;
            let count = Workload::build(Benchmark::Count, cfg.num_chunks, cfg.row_bytes, cfg.seed);
            let gda = Workload::build(Benchmark::Gda, cfg.num_chunks, cfg.row_bytes, cfg.seed);
            let rc = millipede_core::run(&count, &mk);
            let rg = millipede_core::run(&gda, &mk);
            assert!(rc.output_ok && rg.output_ok);
            (bits, rc, rg)
        })
        .collect()
}

/// One row of the column-width (slab-interleaving) ablation.
#[derive(Debug, Clone)]
pub struct ColumnRow {
    /// The benchmark.
    pub bench: Benchmark,
    /// GPGPU with word-size columns (coalesced).
    pub gpgpu_narrow: NodeResult,
    /// GPGPU with wide columns (uncoalesced).
    pub gpgpu_wide: NodeResult,
    /// Millipede with its usual slab assignment.
    pub millipede_narrow: NodeResult,
    /// Millipede with wide columns.
    pub millipede_wide: NodeResult,
}

/// Runs the slab-interleaving ablation.
pub fn column_width(cfg: &SimConfig, benches: &[Benchmark]) -> Vec<ColumnRow> {
    benches
        .iter()
        .map(|&bench| {
            let w = Workload::build(bench, cfg.num_chunks, cfg.row_bytes, cfg.seed);
            let mut g = gpgpu_config(cfg, cfg.corelets, false);
            let gpgpu_narrow = millipede_gpgpu::run(&w, &g);
            g.wide_columns = true;
            let gpgpu_wide = millipede_gpgpu::run(&w, &g);
            let mut m = millipede_config(cfg, true, false);
            let millipede_narrow = millipede_core::run(&w, &m);
            m.wide_columns = true;
            let millipede_wide = millipede_core::run(&w, &m);
            for r in [
                &gpgpu_narrow,
                &gpgpu_wide,
                &millipede_narrow,
                &millipede_wide,
            ] {
                assert!(r.output_ok, "{}", bench.name());
            }
            ColumnRow {
                bench,
                gpgpu_narrow,
                gpgpu_wide,
                millipede_narrow,
                millipede_wide,
            }
        })
        .collect()
}

/// Renders all five ablations.
pub fn render_all(cfg: &SimConfig) -> String {
    let mut out = String::new();

    out.push_str("Ablation 1 — software barriers vs flow control (count)\n\n");
    out.push_str(&software_barriers(cfg).render());

    out.push_str("\nAblation 2 — FR-FCFS queue depth (SSMC, classify)\n\n");
    let mut t = Table::new(vec!["queue depth", "time (µs)", "row miss rate"]);
    for p in queue_depth(cfg, &[4, 8, 16, 32]) {
        t.row(vec![
            p.value.to_string(),
            format!("{:.1}", p.result.runtime_us()),
            f3(p.result.dram.row_miss_rate()),
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\nAblation 3 — banks per channel (classify)\n\n");
    let mut t = Table::new(vec![
        "banks",
        "Millipede µs",
        "Millipede miss",
        "SSMC µs",
        "SSMC miss",
    ]);
    for (m, s) in banks(cfg, &[1, 2, 4, 8]) {
        t.row(vec![
            m.value.to_string(),
            format!("{:.1}", m.result.runtime_us()),
            f3(m.result.dram.row_miss_rate()),
            format!("{:.1}", s.result.runtime_us()),
            f3(s.result.dram.row_miss_rate()),
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\nAblation 4 — channel width vs rate-matched clock\n\n");
    let mut t = Table::new(vec![
        "width (bits)",
        "count clock (MHz)",
        "count µs",
        "gda clock (MHz)",
        "gda µs",
    ]);
    for (bits, c, g) in channel_width(cfg, &[16, 32, 64, 128]) {
        t.row(vec![
            bits.to_string(),
            format!("{:.0}", c.stats.rate_match_final_mhz),
            format!("{:.1}", c.runtime_us()),
            format!("{:.0}", g.stats.rate_match_final_mhz),
            format!("{:.1}", g.runtime_us()),
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\nAblation 5 — column width / slab-interleaving (count, kmeans)\n\n");
    let mut t = Table::new(vec![
        "Benchmark",
        "GPGPU word µs",
        "GPGPU wide µs",
        "GPGPU word L1 txns",
        "GPGPU wide L1 txns",
        "Millipede word µs",
        "Millipede wide µs",
    ]);
    for row in column_width(cfg, &[Benchmark::Count, Benchmark::Kmeans]) {
        let txns = |r: &NodeResult| r.stats.l1_hits + r.stats.l1_misses;
        t.row(vec![
            row.bench.name().to_string(),
            format!("{:.1}", row.gpgpu_narrow.runtime_us()),
            format!("{:.1}", row.gpgpu_wide.runtime_us()),
            txns(&row.gpgpu_narrow).to_string(),
            txns(&row.gpgpu_wide).to_string(),
            format!("{:.1}", row.millipede_narrow.runtime_us()),
            format!("{:.1}", row.millipede_wide.runtime_us()),
        ]);
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SimConfig {
        SimConfig {
            num_chunks: 4,
            ..Default::default()
        }
    }

    #[test]
    fn every_ablation_honours_the_observation_settings() {
        // Each ablation builds its configs through the one `SimConfig`
        // mapping, so a walked (fast-forward off), traced config reaches
        // every run it makes.
        let cfg = SimConfig {
            num_chunks: 2,
            fast_forward: false,
            telemetry: millipede_telemetry::TelemetryConfig::enabled_with_epoch(1024),
            ..Default::default()
        };
        let b = software_barriers(&cfg);
        let mut runs = vec![b.flow_control, b.no_flow_control, b.barriers];
        runs.extend(queue_depth(&cfg, &[8]).into_iter().map(|p| p.result));
        for (m, s) in banks(&cfg, &[2]) {
            runs.extend([m.result, s.result]);
        }
        for (_, c, g) in channel_width(&cfg, &[64]) {
            runs.extend([c, g]);
        }
        for r in column_width(&cfg, &[Benchmark::Count]) {
            runs.extend([
                r.gpgpu_narrow,
                r.gpgpu_wide,
                r.millipede_narrow,
                r.millipede_wide,
            ]);
        }
        assert_eq!(runs.len(), 12);
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(r.stats.ff_skipped_cycles, 0, "run {i} fast-forwarded");
            assert!(r.telemetry.enabled(), "run {i} recorded no telemetry");
        }
    }

    #[test]
    fn per_record_barriers_never_beat_flow_control() {
        let a = software_barriers(&small());
        // The paper: software barriers "perform similarly to
        // Millipede-no-flow-control" — correct, but no better than the
        // hardware flow control, while executing extra instructions.
        assert!(a.barriers.elapsed_ps >= a.flow_control.elapsed_ps);
        assert!(a.barriers.stats.instructions > a.flow_control.stats.instructions);
        assert!(a.barriers.output_ok);
    }

    #[test]
    fn deeper_queues_do_not_hurt_row_locality() {
        let points = queue_depth(&small(), &[4, 16]);
        assert!(
            points[1].result.dram.row_miss_rate() <= points[0].result.dram.row_miss_rate() + 0.05
        );
    }

    #[test]
    fn millipede_tolerates_a_single_bank() {
        // Row-granularity requests keep the bus busy even with one bank;
        // the sweep must stay functionally correct throughout.
        for (m, s) in banks(&small(), &[1, 4]) {
            assert!(m.result.output_ok && s.result.output_ok);
        }
    }

    #[test]
    fn wide_columns_uncoalesce_gpgpu_not_millipede() {
        let rows = column_width(&small(), &[Benchmark::Count]);
        let r = &rows[0];
        // The GPGPU's warp loads split into ~4× the L1 transactions and it
        // never gets faster; Millipede is untouched (same slabs).
        let narrow_txns = r.gpgpu_narrow.stats.l1_hits + r.gpgpu_narrow.stats.l1_misses;
        let wide_txns = r.gpgpu_wide.stats.l1_hits + r.gpgpu_wide.stats.l1_misses;
        assert!(wide_txns >= 3 * narrow_txns, "{wide_txns} vs {narrow_txns}");
        assert!(r.gpgpu_wide.elapsed_ps >= r.gpgpu_narrow.elapsed_ps);
        let m_ratio = r.millipede_wide.elapsed_ps as f64 / r.millipede_narrow.elapsed_ps as f64;
        assert!((0.95..1.05).contains(&m_ratio), "Millipede ratio {m_ratio}");
    }

    #[test]
    fn wider_channels_push_clocks_to_nominal() {
        // Long enough that DFS converges past its startup transient.
        let cfg = SimConfig {
            num_chunks: 16,
            ..Default::default()
        };
        let sweep = channel_width(&cfg, &[16, 128]);
        let narrow_count = sweep[0].1.stats.rate_match_final_mhz;
        let wide_count = sweep[1].1.stats.rate_match_final_mhz;
        assert!(
            wide_count >= narrow_count,
            "count clock should rise with bandwidth: {narrow_count} → {wide_count}"
        );
        assert!(
            wide_count > 620.0,
            "128-bit channel should leave count compute-bound (got {wide_count})"
        );
    }
}
