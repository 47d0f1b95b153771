//! The benchmark's four workloads and one pass over each.
//!
//! A pass simulates every point of its workload from scratch — cold caches,
//! empty prefetch buffers, as in the paper's runs — timing each layer
//! boundary around public calls only: `Workload::build`,
//! `DecodedProgram::of`, `Arch::run` / `core_arch::run` + `energy::compute`,
//! and `sim::run_many_with`. Every simulated result is checked: its output
//! must match the workload's golden reference, its `sim::digest_run` digest
//! must match the pinned table (seed 42) and every earlier pass, and its
//! exact counts must repeat. A panicking point counts as failed instead of
//! ending the run; a panicking sweep fails all of its points.

use crate::digests::{PINNED, PINNED_SEED};
use crate::host::{Calibrator, CALIB_REF_S, POOL_CALIB_ROUNDS};
use crate::layers;
use crate::trace::Tracer;
use millipede::core_arch::{self, MillipedeConfig, NodeResult};
use millipede::dram::{DramGeometry, DramTiming};
use millipede::energy::{self, ArchKind};
use millipede::engine::DecodedProgram;
use millipede::mapreduce::ThreadGrid;
use millipede::sim::{digest_run, run_many_with, Arch, RunResult, SimConfig};
use millipede::workloads::{Benchmark, Workload};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// Memory-bound BMLA points: row prefetch, flow control and the DRAM
    /// and L1 paths are all in play.
    Stream,
    /// Compute-bound points: the interpreter, the issue scan and SSMC's L1
    /// probes carry the cost, and fast-forward skips almost nothing.
    Compute,
    /// One bandwidth-starved point: ~90% of compute edges are idle and
    /// fast-forwarded, so it exercises the clock and scheduler's skipping.
    Starved,
    /// The Fig. 3 design-space sweep through the parallel sweep pool: many
    /// short points, where per-point set-up and the pool's balance matter.
    Sweep,
}

impl Suite {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Suite; 4] = [Suite::Stream, Suite::Compute, Suite::Starved, Suite::Sweep];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Suite::Stream => "stream",
            Suite::Compute => "compute",
            Suite::Starved => "starved",
            Suite::Sweep => "sweep",
        }
    }

    /// Parses a command-line workload name.
    pub fn from_name(name: &str) -> Option<Suite> {
        Suite::ALL.into_iter().find(|s| s.name() == name)
    }

    /// The individually simulated points (empty for the sweep, whose points
    /// run inside the sweep pool).
    fn points(self) -> &'static [Point] {
        match self {
            Suite::Stream => &STREAM,
            Suite::Compute => &COMPUTE,
            Suite::Starved => &STARVED,
            Suite::Sweep => &[],
        }
    }
}

/// What simulates a point.
#[derive(Debug, Clone, Copy)]
enum Node {
    /// One of the compared architectures at the paper's defaults.
    Arch(Arch),
    /// Millipede without rate matching on a bandwidth-starved node: 64
    /// corelets × 1 context on an 8-bit channel, so each 2 KB row takes far
    /// longer to arrive than to consume.
    Starved,
}

/// One simulated point.
#[derive(Debug)]
struct Point {
    label: &'static str,
    node: Node,
    bench: Benchmark,
    chunks: usize,
}

const fn point(label: &'static str, node: Node, bench: Benchmark, chunks: usize) -> Point {
    Point {
        label,
        node,
        bench,
        chunks,
    }
}

/// Memory-bound points at 128 chunks, each retiring only ~1M
/// instructions.
const STREAM: [Point; 5] = [
    point(
        "millipede-count",
        Node::Arch(Arch::Millipede),
        Benchmark::Count,
        128,
    ),
    point(
        "millipede-no-flow-control-sample",
        Node::Arch(Arch::MillipedeNoFlowControl),
        Benchmark::Sample,
        128,
    ),
    point("ssmc-count", Node::Arch(Arch::Ssmc), Benchmark::Count, 128),
    point(
        "vws-row-count",
        Node::Arch(Arch::VwsRow),
        Benchmark::Count,
        128,
    ),
    point(
        "gpgpu-variance",
        Node::Arch(Arch::Gpgpu),
        Benchmark::Variance,
        128,
    ),
];

/// Compute-bound points: long ALU runs, where the interpreter and the issue
/// scan carry the cost.
const COMPUTE: [Point; 4] = [
    point("ssmc-gda", Node::Arch(Arch::Ssmc), Benchmark::Gda, 16),
    point(
        "vws-row-kmeans",
        Node::Arch(Arch::VwsRow),
        Benchmark::Kmeans,
        32,
    ),
    point("ssmc-gemm", Node::Arch(Arch::Ssmc), Benchmark::Gemm, 16),
    point(
        "millipede-pca",
        Node::Arch(Arch::Millipede),
        Benchmark::Pca,
        32,
    ),
];

/// The bandwidth-starved point.
const STARVED: [Point; 1] = [point(
    "starved-millipede-no-rate-match-count",
    Node::Starved,
    Benchmark::Count,
    512,
)];

/// Chunks per sweep point.
const SWEEP_CHUNKS: usize = 8;

/// The sweep's points: every Fig. 3 architecture on every BMLA benchmark.
pub fn sweep_pairs() -> Vec<(Arch, Benchmark)> {
    Benchmark::BMLA
        .iter()
        .flat_map(|&b| Arch::FIG3.iter().map(move |&a| (a, b)))
        .collect()
}

/// A sweep point's label in the digest table.
fn sweep_label(arch: Arch, bench: Benchmark) -> String {
    format!("fig3/{}/{}", arch.label(), bench.name())
}

/// The starved point's processor configuration.
fn starved_config() -> MillipedeConfig {
    MillipedeConfig {
        corelets: 64,
        contexts: 1,
        rate_match: false,
        timing: DramTiming {
            width_bits: 8,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// The structure a point's layer replays are sized from.
#[derive(Debug, Clone, Copy)]
struct Shape {
    corelets: usize,
    contexts: usize,
    pbuf_entries: usize,
    geometry: DramGeometry,
    timing: DramTiming,
}

impl Shape {
    fn of_sim(cfg: &SimConfig) -> Shape {
        Shape {
            corelets: cfg.corelets,
            contexts: cfg.contexts,
            pbuf_entries: cfg.pbuf_entries,
            geometry: cfg.geometry(),
            timing: cfg.timing(),
        }
    }

    fn of_millipede(cfg: &MillipedeConfig) -> Shape {
        Shape {
            corelets: cfg.corelets,
            contexts: cfg.contexts,
            pbuf_entries: cfg.pbuf_entries,
            geometry: cfg.geometry,
            timing: cfg.timing,
        }
    }
}

impl Point {
    fn config(&self, seed: u64) -> SimConfig {
        SimConfig {
            num_chunks: self.chunks,
            seed,
            ..Default::default()
        }
    }

    fn shape(&self, cfg: &SimConfig) -> Shape {
        match self.node {
            Node::Arch(_) => Shape::of_sim(cfg),
            Node::Starved => Shape::of_millipede(&starved_config()),
        }
    }

    /// Simulates the built workload and attaches its energy.
    fn simulate(&self, w: &Workload, cfg: &SimConfig) -> RunResult {
        let (arch, node, (kind, lanes)) = match self.node {
            Node::Arch(arch) => (arch, arch.run(w, cfg), arch.energy_kind(cfg)),
            Node::Starved => {
                let c = starved_config();
                (
                    Arch::MillipedeNoRateMatch,
                    core_arch::run(w, &c),
                    (ArchKind::Millipede, c.corelets),
                )
            }
        };
        let energy = energy::compute(
            kind,
            lanes,
            &node.stats,
            &node.dram,
            node.elapsed_ps,
            &cfg.energy,
        );
        RunResult {
            arch,
            bench: self.bench,
            node,
            energy,
            wall: Duration::ZERO,
        }
    }
}

/// Exact simulated counts, summed over a pass's points. They must repeat
/// exactly from pass to pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Thread-level instructions retired.
    pub instructions: u64,
    /// Issue events.
    pub issues: u64,
    /// Compute-clock cycles simulated.
    pub compute_cycles: u64,
    /// Compute cycles fast-forwarded over instead of walked.
    pub skipped_cycles: u64,
    /// Event-wheel deep sleeps.
    pub wheel_sleeps: u64,
    /// Event-wheel wakes.
    pub wheel_wakes: u64,
    /// Issue opportunities.
    pub issue_slots: u64,
    /// Issue opportunities with no ready work.
    pub stall_slots: u64,
    /// Prefetch-buffer demand hits.
    pub pbuf_hits: u64,
    /// Flow-control trigger blocks.
    pub flow_blocks: u64,
    /// Demand accesses that stalled on a missing or filling row or block.
    pub demand_stalls: u64,
    /// L1 demand hits.
    pub l1_hits: u64,
    /// L1 demand misses.
    pub l1_misses: u64,
    /// DRAM requests served.
    pub dram_requests: u64,
    /// DRAM row activations.
    pub dram_activations: u64,
    /// DRAM requests served from an open row.
    pub dram_row_hits: u64,
    /// DRAM bytes transferred.
    pub dram_bytes: u64,
    /// Simulated runtime in ps.
    pub elapsed_ps: u64,
}

impl Counts {
    fn of(n: &NodeResult) -> Counts {
        let s = &n.stats;
        Counts {
            instructions: s.instructions,
            issues: s.issues,
            compute_cycles: s.compute_cycles,
            skipped_cycles: s.ff_skipped_cycles,
            wheel_sleeps: n.profile.sleeps,
            wheel_wakes: n.profile.wakes,
            issue_slots: s.issue_slots,
            stall_slots: s.stall_slots,
            pbuf_hits: s.pbuf_hits,
            flow_blocks: s.flow_blocks,
            demand_stalls: s.demand_stalls,
            l1_hits: s.l1_hits,
            l1_misses: s.l1_misses,
            dram_requests: n.dram.requests,
            dram_activations: n.dram.activations,
            dram_row_hits: n.dram.row_hits,
            dram_bytes: n.dram.bytes_transferred,
            elapsed_ps: n.elapsed_ps,
        }
    }

    fn add(&mut self, o: &Counts) {
        self.instructions += o.instructions;
        self.issues += o.issues;
        self.compute_cycles += o.compute_cycles;
        self.skipped_cycles += o.skipped_cycles;
        self.wheel_sleeps += o.wheel_sleeps;
        self.wheel_wakes += o.wheel_wakes;
        self.issue_slots += o.issue_slots;
        self.stall_slots += o.stall_slots;
        self.pbuf_hits += o.pbuf_hits;
        self.flow_blocks += o.flow_blocks;
        self.demand_stalls += o.demand_stalls;
        self.l1_hits += o.l1_hits;
        self.l1_misses += o.l1_misses;
        self.dram_requests += o.dram_requests;
        self.dram_activations += o.dram_activations;
        self.dram_row_hits += o.dram_row_hits;
        self.dram_bytes += o.dram_bytes;
        self.elapsed_ps += o.elapsed_ps;
    }
}

/// Host time of one replayed layer over a pass, in calibrated ns.
#[derive(Debug, Default, Clone, Copy)]
pub struct Layer {
    /// Time spent replaying.
    pub ns: f64,
    /// Operations replayed.
    pub ops: u64,
    /// Σ over points of (replay ns per op × the point's simulated count):
    /// the simulate time this layer accounts for.
    pub attributed_ns: f64,
}

impl Layer {
    fn add(&mut self, ns: f64, ops: u64, count: u64) {
        self.ns += ns;
        self.ops += ops;
        if ops > 0 {
            self.attributed_ns += ns * count as f64 / ops as f64;
        }
    }

    /// Replay cost per operation, in ns.
    pub fn ns_per_op(&self) -> f64 {
        self.ns / self.ops.max(1) as f64
    }
}

/// The four layer replays of a traced pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct Layers {
    /// Functional interpreter (`engine::run_functional`).
    pub interp: Layer,
    /// Row prefetch buffer (`RowPrefetchBuffer`).
    pub pbuf: Layer,
    /// L1 cache probes (`mem::Cache`).
    pub cache: Layer,
    /// DRAM controller (`MemoryController`).
    pub dram: Layer,
}

/// Times `replay` as span `name` under `parent`; returns its operations and
/// its time in ns, multiplied by `scale`.
fn timed(
    tr: &mut Tracer,
    name: &str,
    parent: u32,
    scale: f64,
    replay: impl FnOnce() -> u64,
) -> (u64, f64) {
    let s = tr.begin(name, parent);
    let ops = replay();
    (ops, tr.end(s) * scale * 1e9)
}

impl Layers {
    /// Replays every layer for one point as children of span `parent`,
    /// scaling replay times by the point's calibration `scale`.
    fn replay(
        &mut self,
        w: &Workload,
        shape: &Shape,
        counts: &Counts,
        scale: f64,
        tr: &mut Tracer,
        parent: u32,
    ) {
        let grid = ThreadGrid::slab(shape.corelets, shape.contexts);
        let (ops, ns) = timed(tr, "replay.interp", parent, scale, || {
            layers::interp(w, &grid)
        });
        self.interp.add(ns, ops, counts.instructions);

        let layout = w.dataset.layout;
        let words = u32::try_from(layout.row_words() / shape.corelets)
            .expect("row words per corelet fit in u32");
        let (ops, ns) = timed(tr, "replay.pbuf", parent, scale, || {
            layers::pbuf(
                shape.pbuf_entries,
                shape.corelets,
                words.max(1),
                layout.total_rows(),
            )
        });
        self.pbuf.add(ns, ops, counts.pbuf_hits);

        let probes = counts.l1_hits + counts.l1_misses;
        let (ops, ns) = timed(tr, "replay.cache", parent, scale, || {
            layers::cache(probes.max(layers::MIN_OPS))
        });
        self.cache.add(ns, ops, probes);

        let bytes = layers::request_bytes(
            counts.dram_bytes / counts.dram_requests.max(1),
            shape.geometry.row_bytes,
        );
        let (ops, ns) = timed(tr, "replay.dram", parent, scale, || {
            layers::dram(
                counts.dram_requests.max(layers::MIN_OPS),
                bytes,
                shape.geometry,
                shape.timing,
            )
        });
        self.dram.add(ns, ops, counts.dram_requests);
    }
}

/// Per-point host times of one sweep pass, from `RunResult::wall`.
#[derive(Debug, Default, Clone)]
pub struct Pool {
    /// Wall time of the `run_many_with` call, in s.
    pub wall: f64,
    /// Each point's own wall time, in s.
    pub point_walls: Vec<f64>,
    /// Worker threads.
    pub threads: usize,
}

/// Raw times of one point's phases, in seconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct Phases {
    /// `Workload::build`.
    pub build: f64,
    /// `DecodedProgram::of`.
    pub decode: f64,
    /// Simulation plus `energy::compute`.
    pub simulate: f64,
    /// Digest and comparison.
    pub check: f64,
}

/// Everything one pass measured. Times are calibrated seconds: each point
/// (for the sweep, each step) is followed by the calibration loop and
/// scaled by `CALIB_REF_S / calib_s` (see `host.rs`).
#[derive(Debug, Default, Clone)]
pub struct Pass {
    /// Build → simulate → check: the sum of the timed phases, without the
    /// calibration loops and layer replays between them.
    pub wall: f64,
    /// `wall` before calibration.
    pub raw_wall: f64,
    /// `Workload::build` + `DecodedProgram::of` over every point.
    pub setup: f64,
    /// `Workload::build` alone.
    pub build: f64,
    /// `DecodedProgram::of` alone.
    pub decode: f64,
    /// Simulation (and energy) alone.
    pub simulate: f64,
    /// Digest and comparison alone.
    pub check: f64,
    /// Σ of the calibration loop times.
    pub calib_total: f64,
    /// Calibration loops run.
    pub calibrations: usize,
    /// Counts summed over the points that completed.
    pub counts: Counts,
    /// Points simulated.
    pub attempted: usize,
    /// Points that panicked, gave a wrong output, or did not reproduce
    /// their digest or counts.
    pub failed: usize,
    /// Layer replays (traced passes only).
    pub layers: Layers,
    /// Sweep-pool times (sweep only).
    pub pool: Option<Pool>,
}

impl Pass {
    /// The simulate time the layer replays divide up, in calibrated s: the
    /// points' own simulate spans, or for the sweep the sum of its points'
    /// walls (the pool's span overlaps points on its threads).
    pub fn replayed_simulate_s(&self) -> f64 {
        self.pool
            .as_ref()
            .map_or(self.simulate, |p| p.point_walls.iter().sum())
    }

    /// Runs the calibration loop `rounds` times on `threads` threads as span
    /// `parent`'s child; returns the factor that takes the times measured
    /// just before it to reference-host times.
    fn calibrate(
        &mut self,
        cal: &mut Calibrator,
        threads: usize,
        rounds: u32,
        tr: &mut Tracer,
        parent: u32,
    ) -> f64 {
        let s = tr.begin("calibrate", parent);
        let calib_s = cal.run(threads, rounds);
        tr.end(s);
        self.calib_total += calib_s;
        self.calibrations += 1;
        CALIB_REF_S / calib_s
    }

    /// Mean calibration loop time over the pass, in s.
    pub fn calib_s(&self) -> f64 {
        self.calib_total / self.calibrations.max(1) as f64
    }

    /// Adds one point's phases, measured before a calibration that gave
    /// `scale`.
    fn add(&mut self, t: &Phases, scale: f64) {
        let setup = t.build + t.decode;
        let raw = setup + t.simulate + t.check;
        self.build += t.build * scale;
        self.decode += t.decode * scale;
        self.setup += setup * scale;
        self.simulate += t.simulate * scale;
        self.check += t.check * scale;
        self.wall += raw * scale;
        self.raw_wall += raw;
    }
}

/// Checks every simulated result against the pinned digests and against
/// every earlier pass of the run.
#[derive(Debug)]
pub struct Checker {
    pinned: bool,
    seen: BTreeMap<String, (u64, Counts)>,
}

impl Checker {
    /// A checker for a run with `seed`; only seed 42 has pinned digests.
    pub fn new(seed: u64) -> Checker {
        Checker {
            pinned: seed == PINNED_SEED,
            seen: BTreeMap::new(),
        }
    }

    /// Whether `r` is a correct result for point `label`.
    fn check(&mut self, label: &str, r: &RunResult, counts: Counts) -> bool {
        let digest = digest_run(r);
        let repeats = match self.seen.entry(label.to_string()) {
            Entry::Occupied(e) => *e.get() == (digest, counts),
            Entry::Vacant(e) => {
                e.insert((digest, counts));
                true
            }
        };
        let pinned = !self.pinned || PINNED.iter().any(|&(l, d)| l == label && d == digest);
        r.node.output_ok && pinned && repeats
    }
}

/// Runs one pass of `suite`, replaying the layers after each point when
/// `replay` is set.
pub fn run_pass(
    suite: Suite,
    seed: u64,
    threads: usize,
    ck: &mut Checker,
    cal: &mut Calibrator,
    tr: &mut Tracer,
    replay: bool,
) -> Pass {
    match suite {
        Suite::Sweep => sweep_pass(seed, threads, ck, cal, tr, replay),
        _ => points_pass(suite.points(), seed, ck, cal, tr, replay),
    }
}

/// A simulated and checked point.
struct Simulated {
    workload: Workload,
    counts: Counts,
    ok: bool,
}

/// Builds, decodes, simulates and checks point `p`, timing each phase into
/// `t` as a child span of `parent`.
fn run_point(
    p: &Point,
    cfg: &SimConfig,
    ck: &mut Checker,
    tr: &mut Tracer,
    parent: u32,
    t: &mut Phases,
) -> Simulated {
    let s = tr.begin("build", parent);
    let workload = Workload::build(p.bench, cfg.num_chunks, cfg.row_bytes, cfg.seed);
    t.build = tr.end(s);
    let s = tr.begin("decode", parent);
    black_box(DecodedProgram::of(&workload.program));
    t.decode = tr.end(s);
    let s = tr.begin("simulate", parent);
    let r = p.simulate(&workload, cfg);
    t.simulate = tr.end(s);
    let s = tr.begin("check", parent);
    let counts = Counts::of(&r.node);
    let ok = ck.check(p.label, &r, counts);
    t.check = tr.end(s);
    Simulated {
        workload,
        counts,
        ok,
    }
}

fn points_pass(
    points: &[Point],
    seed: u64,
    ck: &mut Checker,
    cal: &mut Calibrator,
    tr: &mut Tracer,
    replay: bool,
) -> Pass {
    let mut pass = Pass::default();
    let span = tr.begin("pass", 0);
    for p in points {
        pass.attempted += 1;
        let point_span = tr.begin(p.label, span.id());
        let parent = point_span.id();
        let cfg = p.config(seed);
        let mut t = Phases::default();
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_point(p, &cfg, ck, tr, parent, &mut t)
        }));
        let scale = pass.calibrate(cal, 1, 1, tr, parent);
        pass.add(&t, scale);
        let ok = match run {
            Ok(sim) => {
                pass.counts.add(&sim.counts);
                let replayed = !replay
                    || catch_unwind(AssertUnwindSafe(|| {
                        pass.layers.replay(
                            &sim.workload,
                            &p.shape(&cfg),
                            &sim.counts,
                            scale,
                            tr,
                            parent,
                        );
                    }))
                    .is_ok();
                sim.ok && replayed
            }
            Err(_) => false,
        };
        pass.failed += usize::from(!ok);
        tr.end(point_span);
    }
    tr.end(span);
    pass
}

fn sweep_pass(
    seed: u64,
    threads: usize,
    ck: &mut Checker,
    cal: &mut Calibrator,
    tr: &mut Tracer,
    replay: bool,
) -> Pass {
    let pairs = sweep_pairs();
    let cfg = SimConfig {
        num_chunks: SWEEP_CHUNKS,
        seed,
        ..Default::default()
    };
    let mut pass = Pass {
        attempted: pairs.len(),
        ..Pass::default()
    };

    // The pool builds each point inside `run_one`, out of reach of a span,
    // so set-up is timed in a step of its own before the pass.
    let setup = tr.begin("setup", 0);
    let mut t = Phases::default();
    for &(_, bench) in &pairs {
        let s = tr.begin("build", setup.id());
        let w = Workload::build(bench, cfg.num_chunks, cfg.row_bytes, cfg.seed);
        t.build += tr.end(s);
        let s = tr.begin("decode", setup.id());
        black_box(DecodedProgram::of(&w.program));
        t.decode += tr.end(s);
    }
    let scale = pass.calibrate(cal, 1, 1, tr, setup.id());
    tr.end(setup);
    pass.build = t.build * scale;
    pass.decode = t.decode * scale;
    pass.setup = (t.build + t.decode) * scale;

    let span = tr.begin("pass", 0);
    let s = tr.begin("simulate", span.id());
    let results = catch_unwind(AssertUnwindSafe(|| run_many_with(&pairs, &cfg, threads)));
    let simulate_s = tr.end(s);
    let s = tr.begin("check", span.id());
    match &results {
        Ok(results) => {
            for r in results {
                let counts = Counts::of(&r.node);
                let label = sweep_label(r.arch, r.bench);
                pass.failed += usize::from(!ck.check(&label, r, counts));
                pass.counts.add(&counts);
            }
        }
        Err(_) => pass.failed = pairs.len(),
    }
    let check_s = tr.end(s);
    let scale = pass.calibrate(cal, threads, POOL_CALIB_ROUNDS, tr, span.id());
    tr.end(span);
    pass.simulate = simulate_s * scale;
    pass.check = check_s * scale;
    pass.wall = (simulate_s + check_s) * scale;
    pass.raw_wall = simulate_s + check_s;

    let Ok(results) = results else {
        return pass;
    };
    pass.pool = Some(Pool {
        wall: pass.simulate,
        point_walls: results
            .iter()
            .map(|r| r.wall.as_secs_f64() * scale)
            .collect(),
        threads,
    });
    if replay {
        let shape = Shape::of_sim(&cfg);
        for r in &results {
            let span = tr.begin(&sweep_label(r.arch, r.bench), 0);
            let parent = span.id();
            let counts = Counts::of(&r.node);
            let replayed = catch_unwind(AssertUnwindSafe(|| {
                let w = Workload::build(r.bench, cfg.num_chunks, cfg.row_bytes, cfg.seed);
                pass.layers.replay(&w, &shape, &counts, scale, tr, parent);
            }));
            tr.end(span);
            pass.failed += usize::from(replayed.is_err());
        }
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One pass of `suite` at the pinned seed must reproduce every pinned
    /// digest; on failure the message carries the table to pin.
    fn assert_pinned(suite: Suite) {
        let mut ck = Checker::new(PINNED_SEED);
        let mut tr = Tracer::new();
        let mut cal = Calibrator::new(2);
        let pass = run_pass(suite, PINNED_SEED, 2, &mut ck, &mut cal, &mut tr, false);
        let points = match suite {
            Suite::Sweep => sweep_pairs().len(),
            _ => suite.points().len(),
        };
        assert_eq!(pass.attempted, points);
        let table: Vec<String> = ck
            .seen
            .iter()
            .map(|(l, (d, _))| format!("(\"{l}\", {d:#018x}),"))
            .collect();
        assert_eq!(
            pass.failed,
            0,
            "{}: digests\n{}",
            suite.name(),
            table.join("\n")
        );
    }

    #[test]
    fn stream_matches_pinned_digests() {
        assert_pinned(Suite::Stream);
    }

    #[test]
    fn compute_matches_pinned_digests() {
        assert_pinned(Suite::Compute);
    }

    #[test]
    fn starved_matches_pinned_digests() {
        assert_pinned(Suite::Starved);
    }

    #[test]
    fn sweep_matches_pinned_digests() {
        assert_pinned(Suite::Sweep);
    }

    #[test]
    fn pinned_table_covers_every_point_once() {
        let mut labels: Vec<String> = Suite::ALL
            .iter()
            .flat_map(|s| s.points().iter().map(|p| p.label.to_string()))
            .chain(sweep_pairs().into_iter().map(|(a, b)| sweep_label(a, b)))
            .collect();
        assert_eq!(labels.len(), 58);
        labels.sort();
        let mut pinned: Vec<String> = PINNED.iter().map(|(l, _)| (*l).to_string()).collect();
        pinned.sort();
        assert_eq!(labels, pinned);
    }

    #[test]
    fn point_times_are_scaled_by_their_calibration() {
        let mut pass = Pass::default();
        let t = Phases {
            build: 0.1,
            decode: 0.1,
            simulate: 0.6,
            check: 0.2,
        };
        pass.add(&t, 0.5);
        pass.add(&t, 1.0);
        assert!((pass.raw_wall - 2.0).abs() < 1e-12);
        assert!((pass.wall - 1.5).abs() < 1e-12);
        assert!((pass.setup - 0.3).abs() < 1e-12);
        assert!((pass.simulate - 0.9).abs() < 1e-12);
        let mut tr = Tracer::new();
        let scale = pass.calibrate(&mut Calibrator::new(1), 1, 1, &mut tr, 0);
        assert!((scale * pass.calib_s() - CALIB_REF_S).abs() < 1e-12);
    }

    #[test]
    fn a_wrong_digest_fails_the_point() {
        let p = &STARVED[0];
        let cfg = SimConfig {
            num_chunks: 2,
            ..p.config(PINNED_SEED)
        };
        let w = Workload::build(p.bench, cfg.num_chunks, cfg.row_bytes, cfg.seed);
        let r = p.simulate(&w, &cfg);
        let counts = Counts::of(&r.node);
        // Two chunks is not the pinned size, so the pinned digest misses.
        assert!(!Checker::new(PINNED_SEED).check(p.label, &r, counts));
        let mut ck = Checker::new(7);
        assert!(ck.check(p.label, &r, counts));
        assert!(ck.check(p.label, &r, counts));
        let mut changed = counts;
        changed.skipped_cycles += 1;
        assert!(!ck.check(p.label, &r, changed), "counts must repeat");
    }
}
