//! SM configuration.

use millipede_dram::{DramGeometry, DramTiming};
use millipede_telemetry::TelemetryConfig;

/// Configuration of one SM (Table III defaults).
#[derive(Debug, Clone)]
pub struct GpgpuConfig {
    /// Lanes per SM (Table III: 32).
    pub lanes: usize,
    /// Warp-multithreading depth: threads = lanes × contexts (Table III: 4).
    pub contexts: usize,
    /// Warp width (32 = GPGPU, 4 = VWS's converged choice).
    pub warp_width: usize,
    /// Compute clock in MHz.
    pub compute_mhz: f64,
    /// L1 D-cache bytes (Table III: 32 KB).
    pub l1_bytes: u64,
    /// L1 line bytes (Table III: 128).
    pub l1_block: u64,
    /// L1 associativity.
    pub l1_assoc: usize,
    /// MSHR entries.
    pub mshrs: usize,
    /// Sequential block-prefetch lookahead; `None` derives it from L1
    /// capacity.
    pub prefetch_degree: Option<u64>,
    /// Shared-memory banks (Table III: 4 B interleaving, one bank/lane).
    pub shared_banks: usize,
    /// Row-oriented input path (VWS-row): row prefetch buffer + flow
    /// control instead of block prefetch into the L1.
    pub row_oriented: bool,
    /// Use the slab-interleaved ("wide column") record assignment instead
    /// of word-size columns — deliberately uncoalesceable on SIMT (§IV-C);
    /// exists for the layout ablation.
    pub wide_columns: bool,
    /// Row prefetch-buffer entries when `row_oriented`.
    pub pbuf_entries: usize,
    /// DRAM geometry.
    pub geometry: DramGeometry,
    /// DRAM timing.
    pub timing: DramTiming,
    /// FR-FCFS queue depth.
    pub dram_queue: usize,
    /// Deadlock guard.
    pub max_idle_cycles: u64,
    /// Idle-cycle fast-forward (bit-exact; see DESIGN.md). Off reproduces
    /// the cycle-by-cycle schedule for differential testing.
    pub fast_forward: bool,
    /// Cycle-domain telemetry (off by default; purely observational).
    pub telemetry: TelemetryConfig,
}

impl GpgpuConfig {
    /// The plain GPGPU baseline: 32-wide warps.
    pub fn gpgpu() -> GpgpuConfig {
        GpgpuConfig {
            lanes: 32,
            contexts: 4,
            warp_width: 32,
            compute_mhz: 700.0,
            l1_bytes: 32 * 1024,
            l1_block: 128,
            l1_assoc: 8,
            mshrs: 16,
            prefetch_degree: None,
            shared_banks: 32,
            row_oriented: false,
            wide_columns: false,
            pbuf_entries: 16,
            geometry: DramGeometry::default(),
            timing: DramTiming::default(),
            dram_queue: 16,
            max_idle_cycles: 2_000_000,
            fast_forward: true,
            telemetry: TelemetryConfig::from_env(),
        }
    }

    /// VWS at its converged 4-wide operating point.
    pub fn vws() -> GpgpuConfig {
        GpgpuConfig {
            warp_width: 4,
            ..GpgpuConfig::gpgpu()
        }
    }

    /// VWS-row: VWS plus row-orientedness and flow control.
    pub fn vws_row() -> GpgpuConfig {
        GpgpuConfig {
            warp_width: 4,
            row_oriented: true,
            ..GpgpuConfig::gpgpu()
        }
    }

    /// Total hardware threads.
    pub fn threads(&self) -> usize {
        self.lanes * self.contexts
    }

    /// Number of warps.
    pub fn num_warps(&self) -> usize {
        self.threads() / self.warp_width
    }

    /// Issue clusters per cycle (lane groups of one warp width).
    pub fn clusters(&self) -> usize {
        self.lanes / self.warp_width
    }
}
