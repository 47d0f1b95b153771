//! The compiled-in benchmark suite: the paper's eight BMLAs plus two
//! bracketing workload families the paper never had.
//!
//! Each benchmark supplies four pieces:
//!
//! 1. a **kernel** in the mini-ISA implementing the Map + partial-Reduce in
//!    the field-major visit order the interleaved layout demands (records
//!    span `num_fields` consecutive DRAM rows, so kernels walk a chunk row
//!    by row, keeping per-record-slot partial state in local memory — this
//!    is why the paper's software-barrier alternative fails: "the full
//!    records far exceed the prefetch buffer entries", §IV-C);
//! 2. a **dataset generator** (deterministic, seeded) producing records with
//!    the paper's characteristics — notably data-dependent branches with
//!    roughly 70/30 taken splits (§VI-A);
//! 3. a **host Reduce** combining the per-thread live states (§IV-D); and
//! 4. a **pure-Rust reference** that replays the exact per-thread visit
//!    order and `f32` arithmetic, so golden tests compare bit-exactly.
//!
//! The paper's BMLA benchmarks appear in Table IV's order of increasing
//! instructions per input word: `count`, `sample`, `variance`, `nbayes`,
//! `classify`, `kmeans`, `pca`, `gda` ([`Benchmark::BMLA`]). Dimensionalities
//! (chosen to fit each context's 1 KB live-state partition while preserving
//! the paper's compute-intensity ordering) are constants in each module.
//!
//! Two further families bracket the BMLAs' regular record streaming
//! (ROADMAP open item 2):
//!
//! * **graph analytics** ([`Benchmark::GRAPH`]): `pagerank` and `bfs` over
//!   a deterministic CSR edge stream — the irregular-access adversarial
//!   case (Tesseract-style), with data-dependent indexed local accesses
//!   and divergent frontier branches;
//! * **dense kernels** ([`Benchmark::DENSE`]): tiled `gemm` plus the
//!   PrIM-style `streamadd` / `reduction` / `scan` microkernels — the
//!   regular dense case, spanning the two extremes of arithmetic
//!   intensity.

#![warn(missing_docs)]
// Reference implementations use indexed loops that mirror the kernels'
// address arithmetic one-for-one; iterator rewrites would obscure that.
#![allow(clippy::needless_range_loop)]

pub mod bfs;
pub mod classify;
pub mod count;
pub mod gda;
pub mod gemm;
pub mod gen;
pub mod graph;
pub mod kmeans;
pub mod meta;
pub mod nbayes;
pub mod pagerank;
pub mod pca;
pub mod prim;
pub mod sample;
pub mod skeleton;
pub mod variance;

use millipede_engine::{FuncStats, LaunchParams, ThreadCtx, Trap};
use millipede_isa::Program;
use millipede_mapreduce::{Dataset, ThreadGrid};
use std::fmt;

/// Workload family a benchmark belongs to (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// The paper's eight BMLA benchmarks (Table II / Table IV).
    Bmla,
    /// Graph analytics over a CSR edge stream (irregular-access case).
    Graph,
    /// Dense kernels: tiled GEMM + PrIM-style streaming microkernels.
    Dense,
}

impl Family {
    /// Lower-case family label.
    pub fn name(self) -> &'static str {
        match self {
            Family::Bmla => "bmla",
            Family::Graph => "graph",
            Family::Dense => "dense",
        }
    }
}

/// The compiled-in benchmarks: the eight BMLAs (Table IV order) followed
/// by the graph-analytics and dense-kernel families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Benchmark {
    /// Filtered histogram of movie ratings.
    Count,
    /// Systematic per-bin sample selection.
    Sample,
    /// Per-bin count / sum / sum-of-squares statistics.
    Variance,
    /// Naive Bayes conditional-probability counting (Table I).
    NBayes,
    /// Supervised classification via Euclidean distance to fixed centroids.
    Classify,
    /// One k-means iteration: assign + accumulate new centroids.
    Kmeans,
    /// Principal component analysis: mean + covariance accumulation.
    Pca,
    /// Gaussian discriminant analysis: per-class mean + covariance.
    Gda,
    /// One push-style PageRank power-iteration step over a CSR edge stream.
    Pagerank,
    /// One BFS frontier-relaxation sweep over a CSR edge stream.
    Bfs,
    /// Tiled dense matrix multiply streamed along the k dimension.
    Gemm,
    /// PrIM-style vector add with running sum + XOR checksum.
    StreamAdd,
    /// PrIM-style single-pass sum / min / max reduction.
    Reduction,
    /// PrIM-style per-thread inclusive prefix sum with order-sensitive
    /// checksum.
    Scan,
}

impl Benchmark {
    /// Every compiled-in benchmark: [`Benchmark::BMLA`] first (so the
    /// paper-table indices stay stable), then [`Benchmark::GRAPH`], then
    /// [`Benchmark::DENSE`].
    pub const ALL: [Benchmark; 14] = [
        Benchmark::Count,
        Benchmark::Sample,
        Benchmark::Variance,
        Benchmark::NBayes,
        Benchmark::Classify,
        Benchmark::Kmeans,
        Benchmark::Pca,
        Benchmark::Gda,
        Benchmark::Pagerank,
        Benchmark::Bfs,
        Benchmark::Gemm,
        Benchmark::StreamAdd,
        Benchmark::Reduction,
        Benchmark::Scan,
    ];

    /// The paper's eight BMLA benchmarks in Table IV order — the set every
    /// paper figure and table sweeps.
    pub const BMLA: [Benchmark; 8] = [
        Benchmark::Count,
        Benchmark::Sample,
        Benchmark::Variance,
        Benchmark::NBayes,
        Benchmark::Classify,
        Benchmark::Kmeans,
        Benchmark::Pca,
        Benchmark::Gda,
    ];

    /// The graph-analytics family.
    pub const GRAPH: [Benchmark; 2] = [Benchmark::Pagerank, Benchmark::Bfs];

    /// The dense-kernel family.
    pub const DENSE: [Benchmark; 4] = [
        Benchmark::Gemm,
        Benchmark::StreamAdd,
        Benchmark::Reduction,
        Benchmark::Scan,
    ];

    /// The workload family this benchmark belongs to.
    pub fn family(self) -> Family {
        match self {
            Benchmark::Count
            | Benchmark::Sample
            | Benchmark::Variance
            | Benchmark::NBayes
            | Benchmark::Classify
            | Benchmark::Kmeans
            | Benchmark::Pca
            | Benchmark::Gda => Family::Bmla,
            Benchmark::Pagerank | Benchmark::Bfs => Family::Graph,
            Benchmark::Gemm | Benchmark::StreamAdd | Benchmark::Reduction | Benchmark::Scan => {
                Family::Dense
            }
        }
    }

    /// The benchmark's name as used in the paper's tables and figures.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Count => "count",
            Benchmark::Sample => "sample",
            Benchmark::Variance => "variance",
            Benchmark::NBayes => "nbayes",
            Benchmark::Classify => "classify",
            Benchmark::Kmeans => "kmeans",
            Benchmark::Pca => "pca",
            Benchmark::Gda => "gda",
            Benchmark::Pagerank => "pagerank",
            Benchmark::Bfs => "bfs",
            Benchmark::Gemm => "gemm",
            Benchmark::StreamAdd => "streamadd",
            Benchmark::Reduction => "reduction",
            Benchmark::Scan => "scan",
        }
    }

    /// Parses a benchmark name.
    pub fn from_name(name: &str) -> Option<Benchmark> {
        Benchmark::ALL.into_iter().find(|b| b.name() == name)
    }
}

/// The standard static-inspection [`Workload`] for one kernel: a single
/// chunk on the default 2 KB row with a fixed seed — just enough to
/// materialize the program and its live local footprint for the static
/// verifier and disassembler, identical across every sweep that only
/// inspects code.
pub fn kernel_workload(bench: Benchmark) -> Workload {
    Workload::build(bench, 1, 2048, 1)
}

/// The final reduced output of a benchmark, comparable against its golden
/// reference.
#[derive(Debug, Clone, PartialEq)]
pub enum Reduced {
    /// Integer outputs (counts, integer sums).
    Ints(Vec<i64>),
    /// `f32` outputs (means, covariances, centroid sums) — compared
    /// bit-exactly because the reference replays kernel arithmetic order.
    Floats(Vec<f32>),
    /// Both kinds (e.g. kmeans: cluster counts + centroid sums).
    Mixed {
        /// Integer outputs.
        ints: Vec<i64>,
        /// `f32` outputs.
        floats: Vec<f32>,
    },
}

impl Reduced {
    /// Number of output elements.
    pub fn len(&self) -> usize {
        match self {
            Reduced::Ints(v) => v.len(),
            Reduced::Floats(v) => v.len(),
            Reduced::Mixed { ints, floats } => ints.len() + floats.len(),
        }
    }

    /// Whether the output is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A fully instantiated benchmark: kernel + dataset + live-state contract.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which benchmark this is.
    pub bench: Benchmark,
    /// The kernel program.
    pub program: Program,
    /// The generated dataset.
    pub dataset: Dataset,
    /// Per-context live-state bytes (≤ 1024: a 4 KB corelet local memory
    /// partitioned across 4 contexts).
    pub live_bytes: usize,
    /// Initial live-state words `(byte_addr, value)` written into every
    /// context before launch (constants such as classify's centroids).
    pub live_init: Vec<(u64, u32)>,
}

impl Workload {
    /// Builds `bench` over `num_chunks` chunks of input with the given
    /// deterministic `seed` and DRAM `row_bytes`.
    ///
    /// ```
    /// use millipede_workloads::{Benchmark, Workload};
    /// use millipede_mapreduce::ThreadGrid;
    ///
    /// let w = Workload::build(Benchmark::Count, 2, 2048, 7);
    /// assert_eq!(w.dataset.num_records(), 2 * 512);
    /// // Functional execution reproduces the golden reference.
    /// let grid = ThreadGrid::paper_default();
    /// let run = w.run_functional(&grid, 10_000_000).unwrap();
    /// assert_eq!(w.reduce(&run.states()), w.reference(&grid));
    /// ```
    pub fn build(bench: Benchmark, num_chunks: usize, row_bytes: u64, seed: u64) -> Workload {
        match bench {
            Benchmark::Count => count::build(num_chunks, row_bytes, seed),
            Benchmark::Sample => sample::build(num_chunks, row_bytes, seed),
            Benchmark::Variance => variance::build(num_chunks, row_bytes, seed),
            Benchmark::NBayes => nbayes::build(num_chunks, row_bytes, seed),
            Benchmark::Classify => classify::build(num_chunks, row_bytes, seed),
            Benchmark::Kmeans => kmeans::build(num_chunks, row_bytes, seed),
            Benchmark::Pca => pca::build(num_chunks, row_bytes, seed),
            Benchmark::Gda => gda::build(num_chunks, row_bytes, seed),
            Benchmark::Pagerank => pagerank::build(num_chunks, row_bytes, seed),
            Benchmark::Bfs => bfs::build(num_chunks, row_bytes, seed),
            Benchmark::Gemm => gemm::build(num_chunks, row_bytes, seed),
            Benchmark::StreamAdd => prim::build_streamadd(num_chunks, row_bytes, seed),
            Benchmark::Reduction => prim::build_reduction(num_chunks, row_bytes, seed),
            Benchmark::Scan => prim::build_scan(num_chunks, row_bytes, seed),
        }
    }

    /// Launch parameters for thread `(corelet, context)` of `grid`.
    pub fn launch_params(&self, grid: &ThreadGrid, corelet: usize, context: usize) -> LaunchParams {
        grid.launch_params(&self.dataset.layout, corelet, context)
    }

    /// Creates an initialized thread context for `(corelet, context)`.
    pub fn make_ctx(&self, grid: &ThreadGrid, corelet: usize, context: usize) -> ThreadCtx {
        let params = self.launch_params(grid, corelet, context);
        let mut ctx = ThreadCtx::new(self.live_bytes, &params);
        for &(addr, value) in &self.live_init {
            ctx.local
                .store(addr, value)
                .expect("live_init within live_bytes");
        }
        ctx
    }

    /// Host-side per-node Reduce over the threads' final live states, in
    /// thread order (`corelet`-major, then `context`).
    pub fn reduce(&self, states: &[&[u32]]) -> Reduced {
        match self.bench {
            Benchmark::Count => count::reduce(states),
            Benchmark::Sample => sample::reduce(states),
            Benchmark::Variance => variance::reduce(states),
            Benchmark::NBayes => nbayes::reduce(states),
            Benchmark::Classify => classify::reduce(states),
            Benchmark::Kmeans => kmeans::reduce(states),
            Benchmark::Pca => pca::reduce(states),
            Benchmark::Gda => gda::reduce(states),
            Benchmark::Pagerank => pagerank::reduce(states),
            Benchmark::Bfs => bfs::reduce(states),
            Benchmark::Gemm => gemm::reduce(states),
            Benchmark::StreamAdd => prim::reduce_streamadd(states),
            Benchmark::Reduction => prim::reduce_reduction(states),
            Benchmark::Scan => prim::reduce_scan(states),
        }
    }

    /// Runs every thread of `grid` on the functional engine (no timing
    /// model), corelet-major, each under `step_limit` instructions. This is
    /// the one functional run of a whole workload: Table IV's dynamic
    /// columns, the analytic multicore, `millipede-cli run --kernels` and
    /// the golden tests all take it. The first thread to trap ends the run
    /// and names itself in the error.
    pub fn run_functional(
        &self,
        grid: &ThreadGrid,
        step_limit: u64,
    ) -> Result<FunctionalRun, ThreadTrap> {
        let mut run = FunctionalRun {
            stats: FuncStats::default(),
            threads: Vec::with_capacity(grid.num_threads()),
        };
        for corelet in 0..grid.corelets {
            for context in 0..grid.contexts {
                let mut ctx = self.make_ctx(grid, corelet, context);
                let stats = millipede_engine::run_functional(
                    &mut ctx,
                    &self.program,
                    &self.dataset.image,
                    step_limit,
                )
                .map_err(|trap| ThreadTrap {
                    corelet,
                    context,
                    pc: ctx.pc,
                    trap,
                })?;
                run.stats.merge(&stats);
                run.threads.push(ctx);
            }
        }
        Ok(run)
    }

    /// Splits the dataset chunk-wise into `n` shards, one per PNM
    /// processor — the paper's cluster model ("BMLA input data is sharded
    /// across a cluster ... where each node performs its Map and partial
    /// Reduce", §III-A). Shard outputs recombine with [`combine_outputs`].
    ///
    /// # Panics
    ///
    /// Panics unless the chunk count divides evenly by `n`.
    pub fn shard(&self, n: usize) -> Vec<Workload> {
        assert!(n > 0);
        assert!(
            self.dataset.layout.num_chunks.is_multiple_of(n),
            "{} chunks not divisible into {n} shards",
            self.dataset.layout.num_chunks
        );
        let chunks_per = self.dataset.layout.num_chunks / n;
        let recs_per = chunks_per * self.dataset.layout.row_words();
        (0..n)
            .map(|i| {
                let layout = millipede_mapreduce::InterleavedLayout::new(
                    self.dataset.layout.num_fields,
                    self.dataset.layout.row_bytes,
                    chunks_per,
                );
                let records = self.dataset.records[i * recs_per..(i + 1) * recs_per].to_vec();
                Workload {
                    bench: self.bench,
                    program: self.program.clone(),
                    dataset: Dataset::new(layout, records),
                    live_bytes: self.live_bytes,
                    live_init: self.live_init.clone(),
                }
            })
            .collect()
    }

    /// Golden reference output, replaying the per-thread visit order of
    /// `grid` with kernel-identical arithmetic.
    pub fn reference(&self, grid: &ThreadGrid) -> Reduced {
        match self.bench {
            Benchmark::Count => count::reference(self, grid),
            Benchmark::Sample => sample::reference(self, grid),
            Benchmark::Variance => variance::reference(self, grid),
            Benchmark::NBayes => nbayes::reference(self, grid),
            Benchmark::Classify => classify::reference(self, grid),
            Benchmark::Kmeans => kmeans::reference(self, grid),
            Benchmark::Pca => pca::reference(self, grid),
            Benchmark::Gda => gda::reference(self, grid),
            Benchmark::Pagerank => pagerank::reference(self, grid),
            Benchmark::Bfs => bfs::reference(self, grid),
            Benchmark::Gemm => gemm::reference(self, grid),
            Benchmark::StreamAdd => prim::reference_streamadd(self, grid),
            Benchmark::Reduction => prim::reference_reduction(self, grid),
            Benchmark::Scan => prim::reference_scan(self, grid),
        }
    }
}

/// A whole grid's functional run ([`Workload::run_functional`]).
#[derive(Debug, Clone)]
pub struct FunctionalRun {
    /// Every thread's dynamic statistics, merged.
    pub stats: FuncStats,
    /// The threads' final contexts in grid order (corelet-major, then
    /// context).
    pub threads: Vec<ThreadCtx>,
}

impl FunctionalRun {
    /// The threads' final live states in grid order, as
    /// [`Workload::reduce`] takes them.
    pub fn states(&self) -> Vec<&[u32]> {
        self.threads.iter().map(|c| c.local.words()).collect()
    }
}

/// The thread that trapped in a functional grid run, and the engine's
/// reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadTrap {
    /// The thread's corelet.
    pub corelet: usize,
    /// The thread's context on that corelet.
    pub context: usize,
    /// The thread's program counter when it stopped.
    pub pc: u32,
    /// What the engine reported.
    pub trap: Trap,
}

impl fmt::Display for ThreadTrap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trap at pc {} on thread ({}, {}): {}",
            self.pc, self.corelet, self.context, self.trap
        )
    }
}

impl std::error::Error for ThreadTrap {}

/// Combines per-shard reduced outputs into the cluster-level final Reduce
/// (§III-A's "global final Reduce"). Every benchmark's outputs combine by
/// elementwise addition, except `sample`'s kept-representative section
/// (maximum, see `sample::combine`) and `bfs`'s relaxation targets
/// (minimum, see `bfs::combine`).
pub fn combine_outputs(bench: Benchmark, outputs: &[Reduced]) -> Reduced {
    assert!(!outputs.is_empty());
    if bench == Benchmark::Sample {
        return sample::combine(outputs);
    }
    if bench == Benchmark::Bfs {
        return bfs::combine(outputs);
    }
    let mut acc = outputs[0].clone();
    for out in &outputs[1..] {
        match (&mut acc, out) {
            (Reduced::Ints(a), Reduced::Ints(b)) => {
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
            }
            (Reduced::Floats(a), Reduced::Floats(b)) => {
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
            }
            (
                Reduced::Mixed {
                    ints: ai,
                    floats: af,
                },
                Reduced::Mixed {
                    ints: bi,
                    floats: bf,
                },
            ) => {
                assert_eq!(ai.len(), bi.len());
                assert_eq!(af.len(), bf.len());
                for (x, y) in ai.iter_mut().zip(bi) {
                    *x += y;
                }
                for (x, y) in af.iter_mut().zip(bf) {
                    *x += y;
                }
            }
            _ => panic!("mismatched shard output kinds"),
        }
    }
    acc
}

#[cfg(test)]
impl Workload {
    /// The golden tests' form of [`Workload::run_functional`]: the reduced
    /// output of a run that must not trap.
    fn functional_output(&self, grid: &ThreadGrid) -> Reduced {
        let run = self
            .run_functional(grid, millipede_engine::DEFAULT_STEP_LIMIT)
            .unwrap_or_else(|t| panic!("{}: {t}", self.bench.name()));
        self.reduce(&run.states())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_names_round_trip() {
        for b in Benchmark::ALL {
            assert_eq!(Benchmark::from_name(b.name()), Some(b));
        }
        assert_eq!(Benchmark::from_name("bogus"), None);
    }

    #[test]
    fn table_iv_order() {
        assert_eq!(Benchmark::ALL[0].name(), "count");
        assert_eq!(Benchmark::ALL[7].name(), "gda");
        // ALL is BMLA ++ GRAPH ++ DENSE, so paper-table indices are stable.
        assert_eq!(&Benchmark::ALL[..8], &Benchmark::BMLA);
        assert_eq!(&Benchmark::ALL[8..10], &Benchmark::GRAPH);
        assert_eq!(&Benchmark::ALL[10..], &Benchmark::DENSE);
    }

    #[test]
    fn families_partition_the_benchmarks() {
        for b in Benchmark::BMLA {
            assert_eq!(b.family(), Family::Bmla);
        }
        for b in Benchmark::GRAPH {
            assert_eq!(b.family(), Family::Graph);
        }
        for b in Benchmark::DENSE {
            assert_eq!(b.family(), Family::Dense);
        }
        assert_eq!(
            Benchmark::BMLA.len() + Benchmark::GRAPH.len() + Benchmark::DENSE.len(),
            Benchmark::ALL.len()
        );
    }

    #[test]
    fn reduced_len() {
        assert_eq!(Reduced::Ints(vec![1, 2]).len(), 2);
        assert_eq!(Reduced::Floats(vec![]).len(), 0);
        assert!(Reduced::Floats(vec![]).is_empty());
    }

    #[test]
    fn sharding_partitions_the_records() {
        let w = Workload::build(Benchmark::NBayes, 8, 256, 3);
        let shards = w.shard(4);
        assert_eq!(shards.len(), 4);
        let total: usize = shards.iter().map(|s| s.dataset.num_records()).sum();
        assert_eq!(total, w.dataset.num_records());
        // Concatenated shard records equal the original records.
        let cat: Vec<_> = shards
            .iter()
            .flat_map(|s| s.dataset.records.iter().cloned())
            .collect();
        assert_eq!(cat, w.dataset.records);
    }

    #[test]
    fn shard_references_combine_to_the_full_reference() {
        let grid = ThreadGrid::slab(8, 4);
        for bench in [Benchmark::Count, Benchmark::Variance, Benchmark::NBayes] {
            let w = Workload::build(bench, 4, 256, 9);
            let refs: Vec<Reduced> = w.shard(2).iter().map(|s| s.reference(&grid)).collect();
            assert_eq!(
                combine_outputs(bench, &refs),
                w.reference(&grid),
                "{}",
                bench.name()
            );
        }
    }

    #[test]
    fn sharded_functional_runs_combine_to_the_full_reference() {
        let grid = ThreadGrid::slab(8, 4);
        let w = Workload::build(Benchmark::Kmeans, 4, 256, 11);
        let outs: Vec<Reduced> = w
            .shard(4)
            .iter()
            .map(|s| s.functional_output(&grid))
            .collect();
        let refs: Vec<Reduced> = w.shard(4).iter().map(|s| s.reference(&grid)).collect();
        assert_eq!(
            combine_outputs(Benchmark::Kmeans, &outs),
            combine_outputs(Benchmark::Kmeans, &refs)
        );
    }

    #[test]
    fn a_trapped_thread_is_named_in_the_error() {
        // Two single-context corelets; the second one's lane offset (half a
        // 256-byte row) puts its load past the end of the input.
        let program = millipede_isa::assemble("oob", "li r10, 0\nld.in r11, 252(r1)\nhalt")
            .expect("assembles");
        let layout = millipede_mapreduce::InterleavedLayout::new(1, 256, 1);
        let w = Workload {
            bench: Benchmark::Count,
            program,
            dataset: Dataset::generate(layout, |i| vec![i as u32]),
            live_bytes: 64,
            live_init: Vec::new(),
        };
        let grid = ThreadGrid::slab(2, 1);
        let err = w.run_functional(&grid, 100).unwrap_err();
        let want = ThreadTrap {
            corelet: 1,
            context: 0,
            pc: 1,
            trap: Trap::Input { addr: 380 },
        };
        assert_eq!(err, want);
        assert_eq!(
            err.to_string(),
            "trap at pc 1 on thread (1, 0): bad input load at byte address 0x17c"
        );
        // The first thread alone halts cleanly.
        let run = w.run_functional(&ThreadGrid::slab(1, 1), 100).unwrap();
        assert_eq!((run.threads.len(), run.stats.instructions), (1, 3));
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn shard_rejects_uneven_splits() {
        let w = Workload::build(Benchmark::Count, 3, 256, 1);
        let _ = w.shard(2);
    }
}
