//! SM configuration.

use millipede_dram::{DramGeometry, DramTiming};
use millipede_telemetry::TelemetryConfig;

/// L1 D-cache bytes per SM (Table III: 32 KB).
pub const L1_BYTES: u64 = 32 * 1024;
/// L1 line bytes (Table III: 128 B): the coalescing, fill, and block
/// prefetch granule.
pub const L1_BLOCK: u64 = 128;
/// L1 associativity.
pub const L1_ASSOC: usize = 8;
/// MSHR entries per SM.
pub const MSHRS: usize = 16;
/// Shared-memory banks (Table III: 4 B interleaving, one bank per lane of
/// the 32-lane SM; a wider Fig. 6 SM keeps 32 banks).
pub const SHARED_BANKS: usize = 32;
/// Sequential block-prefetch lookahead in L1 blocks: a quarter of the L1.
/// Running the stream to the cache edge would let fills evict blocks that
/// lagging warps still need.
pub const PREFETCH_DEGREE: u64 = L1_BYTES / L1_BLOCK / 4;

/// Configuration of one SM.
///
/// Holds only what a caller varies; the Table III values every run shares
/// are constants: the compute clock ([`millipede_engine::COMPUTE_MHZ`]), the
/// FR-FCFS queue depth ([`millipede_dram::QUEUE_DEPTH`]), the L1 and MSHR
/// sizes ([`L1_BYTES`], [`L1_BLOCK`], [`L1_ASSOC`], [`MSHRS`]), the shared
/// memory banking ([`SHARED_BANKS`]), and the deadlock guard
/// ([`millipede_engine::MAX_IDLE_CYCLES`]).
#[derive(Debug, Clone)]
pub struct GpgpuConfig {
    /// Lanes per SM (Table III: 32).
    pub lanes: usize,
    /// Warp-multithreading depth: threads = lanes × contexts (Table III: 4).
    pub contexts: usize,
    /// Warp width (32 = GPGPU, 4 = VWS's converged choice).
    pub warp_width: usize,
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
            row_oriented: false,
            wide_columns: false,
            pbuf_entries: 16,
            geometry: DramGeometry::default(),
            timing: DramTiming::default(),
            fast_forward: true,
            telemetry: TelemetryConfig::default(),
        }
    }

    /// VWS at its converged 4-wide operating point.
    pub fn vws() -> GpgpuConfig {
        GpgpuConfig {
            warp_width: crate::vws::NARROW,
            ..GpgpuConfig::gpgpu()
        }
    }

    /// VWS-row: VWS plus row-orientedness and flow control.
    pub fn vws_row() -> GpgpuConfig {
        GpgpuConfig {
            warp_width: crate::vws::NARROW,
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
