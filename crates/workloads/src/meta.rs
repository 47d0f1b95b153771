//! Benchmark metadata: the paper's Table II application-behaviour summary
//! ([`TABLE_II`]).

use crate::Benchmark;

/// One row of the paper's Table II ("Summary of application behavior").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchMeta {
    /// The benchmark.
    pub bench: Benchmark,
    /// Input record description (Table II column 2).
    pub input_record: &'static str,
    /// Per-node live state description (column 3).
    pub live_state: &'static str,
    /// Operations per byte (column 4).
    pub ops_per_byte: &'static str,
    /// Record arity in this reproduction (4-byte fields per record).
    pub num_fields: usize,
    /// Whether the kernel's inner arithmetic is floating point.
    pub float: bool,
}

/// Table II, one row per benchmark.
pub const TABLE_II: [BenchMeta; 8] = [
    BenchMeta {
        bench: Benchmark::Count,
        input_record: "Movie rating",
        live_state: "Bin count",
        ops_per_byte: "O(1)",
        num_fields: 1,
        float: false,
    },
    BenchMeta {
        bench: Benchmark::Sample,
        input_record: "Movie rating",
        live_state: "(count, elements) per bin",
        ops_per_byte: "O(1)",
        num_fields: 1,
        float: false,
    },
    BenchMeta {
        bench: Benchmark::Variance,
        input_record: "Movie rating",
        live_state: "Bin count, bin sum of squares",
        ops_per_byte: "O(1)",
        num_fields: 1,
        float: false,
    },
    BenchMeta {
        bench: Benchmark::NBayes,
        input_record: "N-dim. point + Bin-id",
        live_state: "Conditional probability per bin",
        ops_per_byte: "O(1)",
        num_fields: crate::nbayes::NUM_FIELDS,
        float: false,
    },
    BenchMeta {
        bench: Benchmark::Classify,
        input_record: "N-dim. point",
        live_state: "N-dim. centroids",
        ops_per_byte: "O(k) - nearest centroid",
        num_fields: crate::classify::DIMS,
        float: true,
    },
    BenchMeta {
        bench: Benchmark::Kmeans,
        input_record: "N-dim. point",
        live_state: "Mean and counts per cluster",
        ops_per_byte: "O(1) - mean, O(k) - assignment",
        num_fields: crate::classify::DIMS, // kmeans shares classify's record type
        float: true,
    },
    BenchMeta {
        bench: Benchmark::Pca,
        input_record: "N-dim. point",
        live_state: "Mean, covariance",
        ops_per_byte: "O(N) - covariance",
        num_fields: crate::pca::DIMS,
        float: true,
    },
    BenchMeta {
        bench: Benchmark::Gda,
        input_record: "N-dim. point + Bin-id",
        live_state: "Per-class mean, covariance",
        ops_per_byte: "O(N) - covariance",
        num_fields: crate::gda::NUM_FIELDS,
        float: true,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arities_match_built_workloads() {
        for m in TABLE_II {
            let w = crate::Workload::build(m.bench, 1, 256, 1);
            assert_eq!(
                w.dataset.layout.num_fields,
                m.num_fields,
                "{}",
                m.bench.name()
            );
        }
    }

    #[test]
    fn table_ii_is_exactly_the_bmla_set() {
        assert_eq!(
            TABLE_II.map(|m| m.bench),
            Benchmark::BMLA,
            "Table II rows must stay the paper's eight, in order"
        );
    }
}
