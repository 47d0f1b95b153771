//! Run execution and parallel sweeps.
//!
//! [`run_many`] fans a list of (architecture, benchmark) points over a
//! bounded `std::thread::scope` worker pool; results always come back in
//! input order, so report output is byte-identical regardless of how the
//! OS schedules the workers. Fig. 5's multi-processor runs fan their
//! shards out over the same pool. The worker count comes from
//! `MILLIPEDE_SWEEP_THREADS` (or the host's available parallelism);
//! `MILLIPEDE_SWEEP_THREADS=1` reproduces the serial baseline exactly.

use crate::arch::Arch;
use crate::config::SimConfig;
use millipede_core::NodeResult;
use millipede_energy::EnergyBreakdown;
use millipede_workloads::{Benchmark, Workload};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// One completed run: architecture, benchmark, timing, and energy.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The architecture that ran.
    pub arch: Arch,
    /// The benchmark.
    pub bench: Benchmark,
    /// Timing result and statistics.
    pub node: NodeResult,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Host wall-clock time this point took to simulate. Profiling
    /// metadata only: never feeds digests, tables, or any simulated
    /// quantity.
    pub wall: Duration,
}

impl RunResult {
    /// Speedup of this run over `baseline` (same benchmark).
    pub fn speedup_over(&self, baseline: &RunResult) -> f64 {
        self.node.speedup_over(&baseline.node)
    }

    /// Energy relative to `baseline` (same benchmark).
    pub fn energy_vs(&self, baseline: &RunResult) -> f64 {
        self.energy.total_pj() / baseline.energy.total_pj()
    }
}

/// Runs `bench` on `arch`, attaching energy numbers.
pub fn run_one(arch: Arch, bench: Benchmark, cfg: &SimConfig) -> RunResult {
    let start = std::time::Instant::now();
    let workload = Workload::build(bench, cfg.num_chunks, cfg.row_bytes, cfg.seed);
    let node = arch.run(&workload, cfg);
    assert!(
        node.output_ok,
        "{} produced an incorrect {} result",
        arch.label(),
        bench.name()
    );
    let (kind, lanes) = arch.energy_kind(cfg);
    let energy = millipede_energy::compute(
        kind,
        lanes,
        &node.stats,
        &node.dram,
        node.elapsed_ps,
        &cfg.energy,
    );
    RunResult {
        arch,
        bench,
        node,
        energy,
        wall: start.elapsed(),
    }
}

/// Reads one boolean `MILLIPEDE_*` environment knob: unset → `None` (the
/// caller supplies its default), empty or `0` → `Some(false)`, anything
/// else → `Some(true)`. The env knobs steer only the host harness (worker
/// count, progress lines), never a simulated result.
pub fn env_flag(name: &str) -> Option<bool> {
    std::env::var(name).ok().map(|v| !v.is_empty() && v != "0")
}

/// Whether sweeps emit a per-point progress line to stderr: set
/// `MILLIPEDE_SWEEP_PROGRESS` to anything but empty or `0` ([`env_flag`]
/// semantics). Off by default so harness output stays quiet.
pub fn sweep_progress_from_env() -> bool {
    env_flag("MILLIPEDE_SWEEP_PROGRESS").unwrap_or(false)
}

/// Emits one whole, pre-formatted progress line for a finished point.
///
/// The line is built first and written with a single `writeln!` on a
/// locked stderr handle, so concurrent sweep workers can never interleave
/// mid-row — each point appears as one intact line, in completion order.
fn progress_line(idx: usize, total: usize, r: &RunResult) {
    use std::io::Write as _;
    let line = format!(
        "[{}/{}] {} {} {:.1} ms",
        idx + 1,
        total,
        r.arch.label(),
        r.bench.name(),
        r.wall.as_secs_f64() * 1e3
    );
    let stderr = std::io::stderr();
    let mut handle = stderr.lock();
    let _ = writeln!(handle, "{line}");
}

/// Sweep worker count: `MILLIPEDE_SWEEP_THREADS` if set (minimum 1),
/// otherwise the host's available parallelism. A value that does not parse
/// as a thread count (say, `O8` for `08`) warns on stderr and runs the
/// serial baseline — not the host's parallelism, which would silently hide
/// the typo; an empty value counts as unset.
pub fn sweep_threads() -> usize {
    match std::env::var("MILLIPEDE_SWEEP_THREADS") {
        Ok(v) if !v.is_empty() => match v.parse::<usize>() {
            Ok(n) => n.max(1),
            Err(_) => {
                eprintln!(
                    "warning: MILLIPEDE_SWEEP_THREADS={v:?} is not a thread count; \
                     running the sweep serially"
                );
                1
            }
        },
        _ => std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
    }
}

/// Runs a set of (arch, bench) pairs over [`sweep_threads`] workers,
/// preserving input order in the output.
pub fn run_many(pairs: &[(Arch, Benchmark)], cfg: &SimConfig) -> Vec<RunResult> {
    run_many_with(pairs, cfg, sweep_threads())
}

/// Runs a set of (arch, bench) pairs over at most `threads` workers,
/// preserving input order in the output.
///
/// Every simulation is a pure function of `(arch, bench, cfg)`; the only
/// scheduling-dependent quantity is the `wall` profiling field, so the
/// returned vector is identical for any worker count.
pub fn run_many_with(
    pairs: &[(Arch, Benchmark)],
    cfg: &SimConfig,
    threads: usize,
) -> Vec<RunResult> {
    let progress = sweep_progress_from_env();
    pool_map(pairs, threads, |idx, &(arch, bench)| {
        let r = run_one(arch, bench, cfg);
        if progress {
            progress_line(idx, pairs.len(), &r);
        }
        r
    })
}

/// The sweep pool: maps `f` over `items` (with each item's index) on at
/// most `threads` scoped worker threads and returns the results in input
/// order. Workers claim items from a shared atomic cursor, so an
/// expensive item never serializes the rest behind it. One thread, or one
/// item, runs serially on the calling thread.
pub(crate) fn pool_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    if threads <= 1 || items.len() <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads.min(items.len()) {
            scope.spawn(|| loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(idx) else {
                    break;
                };
                let result = f(idx, item);
                slots
                    .lock()
                    .expect("sweep result mutex poisoned")
                    .push((idx, result));
            });
        }
    });
    let mut indexed = slots.into_inner().expect("sweep result mutex poisoned");
    indexed.sort_unstable_by_key(|(idx, _)| *idx);
    assert_eq!(indexed.len(), items.len(), "sweep lost a point");
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Runs every architecture of `archs` on every benchmark of `benches` as
/// one [`run_many`] sweep, returned as `runs[bench][arch]` in the order of
/// the two lists.
pub fn sweep(benches: &[Benchmark], archs: &[Arch], cfg: &SimConfig) -> Vec<Vec<RunResult>> {
    let pairs: Vec<(Arch, Benchmark)> = benches
        .iter()
        .flat_map(|&b| archs.iter().map(move |&a| (a, b)))
        .collect();
    let mut flat = run_many(&pairs, cfg).into_iter();
    benches
        .iter()
        .map(|_| flat.by_ref().take(archs.len()).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SimConfig {
        SimConfig {
            num_chunks: 2,
            ..Default::default()
        }
    }

    #[test]
    fn run_one_attaches_energy() {
        let r = run_one(Arch::Millipede, Benchmark::Count, &tiny());
        assert!(r.energy.total_pj() > 0.0);
        assert!(r.node.output_ok);
    }

    #[test]
    fn run_many_preserves_order() {
        let pairs = [
            (Arch::Millipede, Benchmark::Count),
            (Arch::Ssmc, Benchmark::Sample),
        ];
        let rs = run_many(&pairs, &tiny());
        assert_eq!(rs[0].arch, Arch::Millipede);
        assert_eq!(rs[0].bench, Benchmark::Count);
        assert_eq!(rs[1].arch, Arch::Ssmc);
        assert_eq!(rs[1].bench, Benchmark::Sample);
    }

    #[test]
    fn serial_and_parallel_sweeps_agree() {
        let cfg = tiny();
        let pairs = [
            (Arch::Millipede, Benchmark::Count),
            (Arch::Gpgpu, Benchmark::Sample),
            (Arch::Ssmc, Benchmark::Count),
            (Arch::Vws, Benchmark::Sample),
        ];
        let serial = run_many_with(&pairs, &cfg, 1);
        let parallel = run_many_with(&pairs, &cfg, 4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!((s.arch, s.bench), (p.arch, p.bench));
            assert_eq!(s.node.elapsed_ps, p.node.elapsed_ps);
            assert_eq!(s.node.stats, p.node.stats);
            assert_eq!(s.node.dram, p.node.dram);
            assert_eq!(s.node.output, p.node.output);
            assert_eq!(s.energy.total_pj(), p.energy.total_pj());
        }
    }

    #[test]
    fn pool_keeps_input_order() {
        // Early items cost the most, so with several workers later items
        // finish first; the output must still come back in input order.
        let items: Vec<u64> = (0..24).rev().collect();
        let work = |idx: usize, &n: &u64| {
            let spin = (0..n * 20_000).fold(0u64, |a, x| a.wrapping_add(x ^ a));
            (idx, n, std::hint::black_box(spin))
        };
        let serial = pool_map(&items, 1, work);
        let parallel = pool_map(&items, 4, work);
        for (i, &n) in items.iter().enumerate() {
            assert_eq!((serial[i].0, serial[i].1), (i, n));
        }
        assert_eq!(serial, parallel);
    }

    #[test]
    fn speedup_and_energy_ratios() {
        let cfg = tiny();
        let m = run_one(Arch::Millipede, Benchmark::Count, &cfg);
        let g = run_one(Arch::Gpgpu, Benchmark::Count, &cfg);
        let s = m.speedup_over(&g);
        assert!(s > 0.0);
        assert!(m.energy_vs(&g) > 0.0);
        assert!((g.speedup_over(&g) - 1.0).abs() < 1e-12);
    }
}
