//! Pinned `sim::digest_run` digests of every benchmark point at seed 42.
//!
//! A digest covers every simulated counter, the simulated runtime, the
//! energy split and the reduced output, so a host-only change must leave
//! this table untouched. Regenerate it only with a change that is meant to
//! alter simulated results: a failing `*_matches_pinned_digests` test
//! prints the table to paste here.

/// The seed the table is pinned at.
pub const PINNED_SEED: u64 = 42;

/// `(point label, digest)` for all 58 points.
pub const PINNED: &[(&str, u64)] = &[
    // stream
    ("millipede-count", 0x42a3106f375dbb5e),
    ("millipede-no-flow-control-sample", 0x9b300422a5936385),
    ("ssmc-count", 0x0a4c5dd641c38ff1),
    ("vws-row-count", 0x9fecbfb40153761a),
    ("gpgpu-variance", 0x90d83c1cf14e236a),
    // compute
    ("ssmc-gda", 0x5e99f6748e811245),
    ("vws-row-kmeans", 0xa4daf60521279455),
    ("ssmc-gemm", 0x465fbc7cebc0a85c),
    ("millipede-pca", 0x63facb28ba7f0fbe),
    // starved
    ("starved-millipede-no-rate-match-count", 0x09258ab83a67b6d5),
    // sweep: Arch::FIG3 × Benchmark::BMLA at 8 chunks
    ("fig3/GPGPU/classify", 0xe47e0596ddc1b8db),
    ("fig3/GPGPU/count", 0xedc552c464ee5710),
    ("fig3/GPGPU/gda", 0x5f786c062559366f),
    ("fig3/GPGPU/kmeans", 0xfd20415c71e19300),
    ("fig3/GPGPU/nbayes", 0xa1e65e049eb7c867),
    ("fig3/GPGPU/pca", 0xe53ac8f15ac97674),
    ("fig3/GPGPU/sample", 0x966ce541406a1bf9),
    ("fig3/GPGPU/variance", 0xe0bdc2cfad9deee9),
    (
        "fig3/Millipede-no-flow-control/classify",
        0x2b45de22bc7609c1,
    ),
    ("fig3/Millipede-no-flow-control/count", 0x7890df849ae5dd9a),
    ("fig3/Millipede-no-flow-control/gda", 0xc4572abcc7afe175),
    ("fig3/Millipede-no-flow-control/kmeans", 0x5e02011d376ddc72),
    ("fig3/Millipede-no-flow-control/nbayes", 0x04cf73cdaaa896f8),
    ("fig3/Millipede-no-flow-control/pca", 0x0679d149df0f4960),
    ("fig3/Millipede-no-flow-control/sample", 0x3880c41cd50d4c50),
    (
        "fig3/Millipede-no-flow-control/variance",
        0x68a5e040c2cde27e,
    ),
    ("fig3/Millipede-no-rate-match/classify", 0xce57ad44f2dae9f3),
    ("fig3/Millipede-no-rate-match/count", 0xf563adba096974f0),
    ("fig3/Millipede-no-rate-match/gda", 0x8638c8961b3d2a9b),
    ("fig3/Millipede-no-rate-match/kmeans", 0x9ab18ce08e4b383c),
    ("fig3/Millipede-no-rate-match/nbayes", 0x1af73fed082d6536),
    ("fig3/Millipede-no-rate-match/pca", 0x058c5845643c3ef2),
    ("fig3/Millipede-no-rate-match/sample", 0xeb8233461dbb3242),
    ("fig3/Millipede-no-rate-match/variance", 0xaf0850e1a3202178),
    ("fig3/SSMC/classify", 0x287d5db389b379a8),
    ("fig3/SSMC/count", 0x9b734f9d3ca4713d),
    ("fig3/SSMC/gda", 0x1651356a5adfa005),
    ("fig3/SSMC/kmeans", 0x98e6f0e5e88418ea),
    ("fig3/SSMC/nbayes", 0x5a6ca85ecf9cc659),
    ("fig3/SSMC/pca", 0x94cd0631016900f8),
    ("fig3/SSMC/sample", 0x9dfacd247aa035f4),
    ("fig3/SSMC/variance", 0xa578930a12a7b42e),
    ("fig3/VWS-row/classify", 0x02e2bdf11705bd00),
    ("fig3/VWS-row/count", 0x7679bac56ab1c612),
    ("fig3/VWS-row/gda", 0x575bf77d48e131ff),
    ("fig3/VWS-row/kmeans", 0x8b30778ae2c62678),
    ("fig3/VWS-row/nbayes", 0x10f3c887b9ee9765),
    ("fig3/VWS-row/pca", 0xefd038d9040316c9),
    ("fig3/VWS-row/sample", 0x727960e64729b1ab),
    ("fig3/VWS-row/variance", 0xd8104328d754a306),
    ("fig3/VWS/classify", 0x066da4672d7714fc),
    ("fig3/VWS/count", 0x24a855d8c08e86f6),
    ("fig3/VWS/gda", 0xde61670a4f900344),
    ("fig3/VWS/kmeans", 0x27e07a2ea7b79701),
    ("fig3/VWS/nbayes", 0x4ec2b73fe6d75f4a),
    ("fig3/VWS/pca", 0x4ba3cbdfea0fd480),
    ("fig3/VWS/sample", 0xd507dac2099c121f),
    ("fig3/VWS/variance", 0x9faa7d91f72b0445),
];
