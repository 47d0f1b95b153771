//! Table III — hardware parameters.

use crate::arch::ssmc_config;
use crate::config::SimConfig;
use crate::report::Table;
use millipede_core::LOCAL_BYTES_PER_CORELET;
use millipede_dram::QUEUE_DEPTH;
use millipede_engine::COMPUTE_MHZ;
use millipede_gpgpu::{L1_BLOCK, L1_BYTES, SHARED_BANKS};

/// Renders Table III from the configuration actually used, flagging the
/// documented calibration deviations from the paper.
pub fn render(cfg: &SimConfig) -> String {
    let t3 = cfg.timing();
    let g = cfg.geometry();
    let mut t = Table::new(vec!["Parameter", "Value", "Paper"]);
    t.row(vec![
        "# processors / SMs simulated".into(),
        "1".to_string(),
        "1 of 32".into(),
    ]);
    t.row(vec![
        "Compute clock".into(),
        format!("{COMPUTE_MHZ} MHz"),
        "700 MHz".into(),
    ]);
    t.row(vec![
        "# corelets/lanes/cores per processor".into(),
        cfg.corelets.to_string(),
        "32".into(),
    ]);
    t.row(vec![
        "# multithreading contexts".into(),
        cfg.contexts.to_string(),
        "4".into(),
    ]);
    t.row(vec![
        "# registers per corelet/lane/core".into(),
        "32".to_string(),
        "32".into(),
    ]);
    t.row(vec![
        "Local memory per corelet".into(),
        format!("{} KB", LOCAL_BYTES_PER_CORELET / 1024),
        "4 KB".into(),
    ]);
    t.row(vec![
        "Prefetch buffer per corelet".into(),
        format!("{} x 64 B", cfg.pbuf_entries),
        "16 x 64 B".into(),
    ]);
    t.row(vec![
        "L1 D-cache per SM (GPGPU)".into(),
        format!("{} KB, {L1_BLOCK} B lines", L1_BYTES / 1024),
        "32 KB, 128 B".into(),
    ]);
    t.row(vec![
        "Shared memory per SM".into(),
        format!("{SHARED_BANKS} banks, 4 B interleave"),
        "128 KB, 4 B interleave".into(),
    ]);
    t.row(vec![
        "L1 D-cache per SSMC core".into(),
        format!(
            "{} KB, {} B lines (slab-sized)",
            millipede_ssmc::L1_BYTES / 1024,
            ssmc_config(cfg).l1_block
        ),
        "5 KB, 128 B".into(),
    ]);
    t.row(vec![
        "Channel clock".into(),
        "1.2 GHz".to_string(),
        "1.2 GHz".into(),
    ]);
    t.row(vec![
        "Channel width".into(),
        format!("{} bits (calibrated; DESIGN.md)", t3.width_bits),
        "128 bits".into(),
    ]);
    t.row(vec![
        "DRAM tCAS-tRP-tRCD-tRAS".into(),
        format!("{}-{}-{}-{}", t3.t_cas, t3.t_rp, t3.t_rcd, t3.t_ras),
        "9-9-9-27".into(),
    ]);
    t.row(vec![
        "DRAM row size, banks/channel".into(),
        format!("{} B, {}", g.row_bytes, g.banks),
        "2 KB, 4".into(),
    ]);
    t.row(vec![
        "Memory controller".into(),
        format!("FR-FCFS ({QUEUE_DEPTH} deep)"),
        "FR-FCFS (16 deep)".into(),
    ]);
    t.row(vec![
        "DRAM access energy".into(),
        format!("{} pJ/bit", cfg.energy.dram_pj_per_bit),
        "6 pJ/bit".into(),
    ]);
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_key_parameters() {
        let s = render(&SimConfig::default());
        assert!(s.contains("700 MHz"));
        assert!(s.contains("FR-FCFS"));
        assert!(s.contains("9-9-9-27"));
        assert!(s.contains("16 x 64 B"));
    }
}
