//! `millipede-benchmark` — the repository benchmark: simulator host
//! performance on four workloads, end to end and layer by layer.
//!
//! ```text
//! millipede-benchmark --workload <stream|compute|starved|sweep> [--seed S]
//!                     [--seconds N] [--trace 0|1] [--trace-out FILE]
//! ```
//!
//! One process runs one workload as a closed loop on at most
//! `min(2, nproc)` threads: one untimed warm-up pass, then back-to-back
//! timed passes until `--seconds` (default 25) have elapsed. Every point
//! (for the sweep, every step) is followed by the drift-calibration loop
//! (see `host.rs`), and every time is reported in calibrated reference-host
//! seconds. `--seed` (default 42) feeds `Workload::build` /
//! `SimConfig::seed`.
//!
//! The workloads (`suite.rs`): `stream` (five memory-bound BMLA points),
//! `compute` (four compute-bound points), `starved` (one bandwidth-starved
//! Millipede point) and `sweep` (the Fig. 3 design-space sweep through the
//! sweep pool). They stress different layers, so a change to one layer
//! should move one workload and leave another alone; README.md maps each
//! metric to its layer and workload.
//!
//! Output: one JSON line listing every metric with its name, unit, value
//! and sample count, then — as the last line — a summary object with
//! `correct`, `attempted`, `failed` and the metrics `BENCHMARK.json` names:
//! the end-to-end set without `--trace`, the per-layer set with `--trace 1`.
//! A traced run alternates traced and untraced passes and replays each
//! layer after every point (`layers.rs`); `--trace-out FILE` (which implies
//! `--trace 1`) also writes the spans as a Chrome trace. End-to-end metrics
//! always come from untraced passes.
//!
//! Every simulated result is checked (`suite.rs`). The process exits 1 after
//! printing if any point failed, and 2 on a usage error or when any
//! `MILLIPEDE_*` variable is set: those switch simulator defaults, and the
//! benchmark measures the configuration that ships.
//!
//! The timing model is not validated against hardware, and the repository
//! holds no hardware reference results: the benchmark scores the
//! simulator's host performance, and simulated results are pinned
//! (`digests.rs`), not scored.

mod digests;
mod host;
mod layers;
mod suite;
mod trace;

use host::{median, peak_rss_mb, tail, Calibrator, CALIB_REF_S};
use millipede::metrics::json;
use std::num::NonZero;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use suite::{run_pass, Checker, Pass, Suite};
use trace::Tracer;

const USAGE: &str = "usage: millipede-benchmark --workload <stream|compute|starved|sweep> \
                     [--seed S] [--seconds N] [--trace 0|1] [--trace-out FILE]";

/// End-to-end metrics as `(name, unit)`, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("sim_mips", "Minstr/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("passed_frac", "ratio"),
];

/// Per-layer metrics as `(name, unit)`, in `BENCHMARK.json` order: every
/// one a traced run reports on every workload.
const PER_LAYER: [(&str, &str); 34] = [
    ("engine.instructions", "count"),
    ("engine.issues", "count"),
    ("core.compute_cycles", "count"),
    ("core.walked_edges", "count"),
    ("core.ff_skip_ratio", "ratio"),
    ("engine.wheel_sleeps", "count"),
    ("engine.wheel_wakes", "count"),
    ("core.stall_slot_ratio", "ratio"),
    ("core.pbuf_hits", "count"),
    ("core.flow_blocks", "count"),
    ("core.demand_stalls", "count"),
    ("mem.l1_probes", "count"),
    ("mem.l1_hit_ratio", "ratio"),
    ("dram.requests", "count"),
    ("dram.activations", "count"),
    ("dram.row_hit_ratio", "ratio"),
    ("workloads.build_ms", "ms"),
    ("engine.decode_us", "us"),
    ("sim.simulate_s", "s"),
    ("sim.check_ms", "ms"),
    ("model.ns_per_instr", "ns"),
    ("model.ns_per_walked_edge", "ns"),
    ("engine.interp_ns_per_op", "ns"),
    ("engine.interp_share", "ratio"),
    ("core.pbuf_ns_per_op", "ns"),
    ("core.pbuf_share", "ratio"),
    ("mem.cache_ns_per_probe", "ns"),
    ("mem.cache_share", "ratio"),
    ("dram.ns_per_req", "ns"),
    ("dram.share", "ratio"),
    ("model.residual_share", "ratio"),
    ("host.raw_wall_s", "s"),
    ("host.calib_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    suite: Suite,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut suite = None;
    let mut args = Args {
        suite: Suite::Stream,
        seed: 42,
        seconds: 25,
        trace: false,
        trace_out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                suite = Some(
                    Suite::from_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or("--seconds needs a positive integer")?;
            }
            "--trace" => {
                args.trace |= match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--trace-out" => {
                args.trace_out = Some(value()?.to_string());
                args.trace = true;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    args.suite = suite.ok_or("--workload is required")?;
    Ok(args)
}

/// The first `MILLIPEDE_*` environment variable set, if any.
fn millipede_var() -> Option<String> {
    std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .find(|k| k.starts_with("MILLIPEDE_"))
}

/// Everything a run measured.
#[derive(Debug, Default)]
struct Run {
    plain: Vec<Pass>,
    traced: Vec<Pass>,
    attempted: usize,
    failed: usize,
    /// Peak resident memory after the warm-up pass, in MB, less the
    /// calibration tables (see [`peak_rss_mb`]). This is the declared
    /// value: the allocator's footprint keeps creeping up pass after pass,
    /// so a reading at exit would grow with the number of passes the host's
    /// speed allowed.
    rss_mb: Option<f64>,
    /// The same reading after the last pass, so growth across passes (a
    /// leak, a cache that keeps filling) still shows in the detail line.
    rss_exit_mb: Option<f64>,
}

/// Runs the warm-up pass, then timed passes until `args.seconds` elapse.
fn run(args: &Args, threads: usize, tr: &mut Tracer) -> Run {
    let mut ck = Checker::new(args.seed);
    let mut cal = Calibrator::new(threads);
    let cal_mb = cal.bytes() as f64 / 1e6;
    let rss_mb = || peak_rss_mb().map(|mb| mb - cal_mb);
    let mut out = Run::default();
    let mut pass = |record: bool, out: &mut Run, tr: &mut Tracer| {
        tr.start_pass(record);
        let p = run_pass(
            args.suite, args.seed, threads, &mut ck, &mut cal, tr, record,
        );
        out.attempted += p.attempted;
        out.failed += p.failed;
        p
    };
    pass(false, &mut out, tr);
    out.rss_mb = rss_mb();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    loop {
        let p = pass(false, &mut out, tr);
        out.plain.push(p);
        if args.trace {
            let p = pass(true, &mut out, tr);
            out.traced.push(p);
        }
        if Instant::now() >= deadline {
            out.rss_exit_mb = rss_mb();
            return out;
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// Passes the value summarizes.
    samples: usize,
    /// `(percentile, value)`: the highest percentile with at least ten
    /// samples beyond it (end-to-end timings only).
    tail: Option<(f64, f64)>,
}

/// The median of `f` over `samples`.
fn over<T>(name: &'static str, unit: &'static str, samples: &[T], f: impl Fn(&T) -> f64) -> Metric {
    let v: Vec<f64> = samples.iter().map(f).collect();
    Metric {
        name,
        unit,
        value: median(&v),
        samples: v.len(),
        tail: None,
    }
}

/// [`over`], plus the tail on the side where the metric gets worse.
fn timing(
    name: &'static str,
    unit: &'static str,
    passes: &[Pass],
    lower_is_better: bool,
    f: impl Fn(&Pass) -> f64,
) -> Metric {
    let v: Vec<f64> = passes.iter().map(&f).collect();
    Metric {
        tail: tail(&v, lower_is_better),
        ..over(name, unit, passes, f)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A layer's share of the simulate time its pass replayed.
fn share(l: &suite::Layer, p: &Pass) -> f64 {
    l.attributed_ns / (p.replayed_simulate_s() * 1e9)
}

/// Every metric of a run, end-to-end first. Pass times are already
/// calibrated. `rss_mb` is the peak after warm-up, `rss_exit_mb` at exit.
fn metrics(run: &Run, rss_mb: f64, rss_exit_mb: f64) -> Vec<Metric> {
    let plain = &run.plain;
    let n = plain.len();
    let exact = |name, unit, value| Metric {
        name,
        unit,
        value,
        samples: n,
        tail: None,
    };
    let c = plain[0].counts;
    let walked = c.compute_cycles - c.skipped_cycles;
    let failed_frac = run.failed as f64 / run.attempted as f64;
    let mut m = vec![
        timing("wall_s", "s", plain, true, |p| p.wall),
        timing("sim_mips", "Minstr/s", plain, false, |p| {
            p.counts.instructions as f64 / p.simulate / 1e6
        }),
        timing("setup_s", "s", plain, true, |p| p.setup),
        exact("peak_rss_mb", "MB", rss_mb),
        Metric {
            samples: run.attempted,
            ..exact("passed_frac", "ratio", 1.0 - failed_frac)
        },
        Metric {
            samples: run.attempted,
            ..exact("failed_frac", "ratio", failed_frac)
        },
        Metric {
            samples: n + run.traced.len(),
            ..exact("host.rss_growth_mb", "MB", rss_exit_mb - rss_mb)
        },
        exact("engine.instructions", "count", c.instructions as f64),
        exact("engine.issues", "count", c.issues as f64),
        exact("core.compute_cycles", "count", c.compute_cycles as f64),
        exact("core.walked_edges", "count", walked as f64),
        exact(
            "core.ff_skip_ratio",
            "ratio",
            ratio(c.skipped_cycles, c.compute_cycles),
        ),
        exact("engine.wheel_sleeps", "count", c.wheel_sleeps as f64),
        exact("engine.wheel_wakes", "count", c.wheel_wakes as f64),
        exact(
            "core.stall_slot_ratio",
            "ratio",
            ratio(c.stall_slots, c.issue_slots),
        ),
        exact("core.pbuf_hits", "count", c.pbuf_hits as f64),
        exact("core.flow_blocks", "count", c.flow_blocks as f64),
        exact("core.demand_stalls", "count", c.demand_stalls as f64),
        exact("mem.l1_probes", "count", (c.l1_hits + c.l1_misses) as f64),
        exact(
            "mem.l1_hit_ratio",
            "ratio",
            ratio(c.l1_hits, c.l1_hits + c.l1_misses),
        ),
        exact("dram.requests", "count", c.dram_requests as f64),
        exact("dram.activations", "count", c.dram_activations as f64),
        exact(
            "dram.row_hit_ratio",
            "ratio",
            ratio(c.dram_row_hits, c.dram_requests),
        ),
        exact("sim.elapsed_us", "us", c.elapsed_ps as f64 / 1e6),
        over("host.raw_wall_s", "s", plain, |p| p.raw_wall),
        over("host.calib_s", "s", plain, Pass::calib_s),
    ];
    let traced = &run.traced;
    if traced.is_empty() {
        return m;
    }
    m.extend([
        over("workloads.build_ms", "ms", traced, |p| p.build * 1e3),
        over("engine.decode_us", "us", traced, |p| p.decode * 1e6),
        over("sim.simulate_s", "s", traced, |p| p.simulate),
        over("sim.check_ms", "ms", traced, |p| p.check * 1e3),
        over("model.ns_per_instr", "ns", traced, |p| {
            p.simulate * 1e9 / c.instructions.max(1) as f64
        }),
        over("model.ns_per_walked_edge", "ns", traced, |p| {
            p.simulate * 1e9 / walked.max(1) as f64
        }),
        over("engine.interp_ns_per_op", "ns", traced, |p| {
            p.layers.interp.ns_per_op()
        }),
        over("engine.interp_share", "ratio", traced, |p| {
            share(&p.layers.interp, p)
        }),
        over("core.pbuf_ns_per_op", "ns", traced, |p| {
            p.layers.pbuf.ns_per_op()
        }),
        over("core.pbuf_share", "ratio", traced, |p| {
            share(&p.layers.pbuf, p)
        }),
        over("mem.cache_ns_per_probe", "ns", traced, |p| {
            p.layers.cache.ns_per_op()
        }),
        over("mem.cache_share", "ratio", traced, |p| {
            share(&p.layers.cache, p)
        }),
        over("dram.ns_per_req", "ns", traced, |p| {
            p.layers.dram.ns_per_op()
        }),
        over("dram.share", "ratio", traced, |p| share(&p.layers.dram, p)),
        over("model.residual_share", "ratio", traced, |p| {
            let l = &p.layers;
            1.0 - [&l.interp, &l.pbuf, &l.cache, &l.dram]
                .into_iter()
                .map(|layer| share(layer, p))
                .sum::<f64>()
        }),
    ]);
    let pools: Option<Vec<&suite::Pool>> = traced.iter().map(|p| p.pool.as_ref()).collect();
    if let Some(pools) = pools {
        m.extend([
            over("sweep.pool_utilization", "ratio", &pools, |p| {
                p.point_walls.iter().sum::<f64>() / (p.threads as f64 * p.wall)
            }),
            over("sweep.tail_share", "ratio", &pools, |p| {
                p.point_walls.iter().copied().fold(0.0, f64::max) / p.wall
            }),
            over("sweep.point_p50_ms", "ms", &pools, |p| {
                median(&p.point_walls) * 1e3
            }),
        ]);
    }
    let wall = |v: &[Pass]| median(&v.iter().map(|p| p.wall).collect::<Vec<_>>());
    m.push(Metric {
        samples: traced.len(),
        ..exact(
            "trace.overhead_frac",
            "ratio",
            wall(traced) / wall(plain) - 1.0,
        )
    });
    m
}

/// Every metric as one JSON object, one line.
fn detail_json(args: &Args, threads: usize, run: &Run, metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            let tail = m.tail.map_or(String::new(), |(pct, v)| {
                format!(
                    ",\"tail_pct\":{},\"tail\":{}",
                    json::fmt_f64(pct),
                    json::fmt_f64(v)
                )
            });
            format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"value\":{},\"samples\":{}{tail}}}",
                json::escape(m.name),
                json::escape(m.unit),
                json::fmt_f64(m.value),
                m.samples,
            )
        })
        .collect();
    format!(
        "{{\"benchmark\":\"millipede-benchmark\",\"workload\":\"{}\",\"seed\":{},\
         \"max_threads\":{threads},\"passes\":{},\"traced_passes\":{},\"calib_ref_s\":{},\
         \"attempted\":{},\"failed\":{},\"metrics\":[{}]}}",
        args.suite.name(),
        args.seed,
        run.plain.len(),
        run.traced.len(),
        json::fmt_f64(CALIB_REF_S),
        run.attempted,
        run.failed,
        items.join(","),
    )
}

/// The closing summary line: `correct`, `attempted`, `failed`, and the
/// metrics named in `wanted`.
fn summary_json(run: &Run, metrics: &[Metric], wanted: &[(&str, &str)]) -> String {
    let items: Vec<String> = wanted
        .iter()
        .map(|&(name, _)| {
            let m = metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("metric {name} was not computed"));
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                json::escape(name),
                json::fmt_f64(m.value),
                json::escape(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        run.failed == 0,
        run.attempted,
        run.failed,
        items.join(",")
    )
}

fn main() -> ExitCode {
    if let Some(var) = millipede_var() {
        eprintln!(
            "millipede-benchmark: {var} is set; unset every MILLIPEDE_* variable so the \
             benchmark measures the simulator's default configuration"
        );
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("millipede-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism()
        .map_or(1, NonZero::get)
        .min(2);
    let mut tr = Tracer::new();
    let run = run(&args, threads, &mut tr);
    let (Some(rss_mb), Some(rss_exit_mb)) = (run.rss_mb, run.rss_exit_mb) else {
        eprintln!("millipede-benchmark: cannot read VmHWM from /proc/self/status");
        return ExitCode::from(2);
    };
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, trace::chrome_trace(tr.spans())) {
            eprintln!("millipede-benchmark: {path}: {e}");
            return ExitCode::from(2);
        }
    }
    let metrics = metrics(&run, rss_mb, rss_exit_mb);
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", detail_json(&args, threads, &run, &metrics));
    println!("{}", summary_json(&run, &metrics, wanted));
    if run.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use millipede::metrics::json::Json;
    use std::path::Path;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    /// A run of synthetic sweep passes (the only workload with pool
    /// metrics), traced or not: pass `k` takes `k`× the base times.
    fn synthetic_run(traced: bool) -> Run {
        let pass = |k: f64| {
            let mut pass = Pass {
                wall: 0.5 * k,
                raw_wall: 0.6 * k,
                setup: 0.01 * k,
                build: 0.008 * k,
                decode: 0.002 * k,
                simulate: 0.4 * k,
                check: 0.001 * k,
                attempted: 48,
                pool: Some(suite::Pool {
                    wall: 0.4 * k,
                    point_walls: vec![0.01 * k; 48],
                    threads: 2,
                }),
                ..Pass::default()
            };
            pass.counts.instructions = 1_000_000;
            pass.counts.compute_cycles = 500_000;
            pass.counts.skipped_cycles = 100_000;
            pass.layers.interp.ns = 1e6;
            pass.layers.interp.ops = 1_000_000;
            pass.layers.interp.attributed_ns = 4.8e7 * k;
            pass
        };
        Run {
            plain: (1..=12).map(|i| pass(1.0 + f64::from(i) / 100.0)).collect(),
            traced: if traced {
                vec![pass(1.0), pass(1.2)]
            } else {
                vec![]
            },
            attempted: 14 * 48,
            failed: 0,
            rss_mb: Some(100.0),
            rss_exit_mb: Some(100.5),
        }
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a =
            parse_args(&argv("--workload sweep --seed 7 --seconds 3 --trace 1")).expect("valid");
        assert_eq!(
            a,
            Args {
                suite: Suite::Sweep,
                seed: 7,
                seconds: 3,
                trace: true,
                trace_out: None,
            }
        );
        let a = parse_args(&argv("--trace-out t.json --workload stream")).expect("valid");
        assert!(a.trace);
        for bad in [
            "",
            "--workload nope",
            "--workload stream --seconds 0",
            "--workload stream --trace 2",
            "--workload stream --seed",
            "--workload stream --frobnicate 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let m = metrics(&synthetic_run(true), 100.0, 100.5);
        let mut names: Vec<&str> = m.iter().map(|m| m.name).collect();
        for name in &names {
            assert!(
                !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "bad metric name `{name}`"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric names");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let found = m.iter().find(|m| m.name == *name).expect(name);
            assert_eq!(found.unit, *unit, "{name}");
        }
    }

    #[test]
    fn metrics_summarize_the_passes() {
        let m = metrics(&synthetic_run(false), 100.0, 100.5);
        let get = |name: &str| m.iter().find(|m| m.name == name).expect(name);
        // Twelve passes at k = 1.01 ..= 1.12: the median k is 1.065.
        assert!((get("wall_s").value - 0.5 * 1.065).abs() < 1e-12);
        assert!((get("setup_s").value - 0.01 * 1.065).abs() < 1e-12);
        assert!((get("host.raw_wall_s").value - 0.6 * 1.065).abs() < 1e-12);
        let mips = (2.5 / 1.06 + 2.5 / 1.07) / 2.0;
        assert!((get("sim_mips").value - mips).abs() < 1e-9);
        // Two passes are worse than the tail value, plus ten beyond it.
        let (pct, v) = get("wall_s").tail.expect("12 samples have a tail");
        assert!((pct - 100.0 * 2.0 / 12.0).abs() < 1e-9 && (v - 0.5 * 1.02).abs() < 1e-12);
        assert_eq!(get("wall_s").samples, 12);
        assert!((get("core.ff_skip_ratio").value - 0.2).abs() < 1e-12);
        assert_eq!(get("passed_frac").value, 1.0);
        assert_eq!(get("failed_frac").value, 0.0);
        assert!((get("host.rss_growth_mb").value - 0.5).abs() < 1e-12);
        assert!(m.iter().all(|m| !m.name.starts_with("sweep.")));

        let m = metrics(&synthetic_run(true), 100.0, 100.5);
        let get = |name: &str| m.iter().find(|m| m.name == name).expect(name).value;
        // The interpreter accounts for a tenth of every pass's 0.48·k s.
        assert!((get("engine.interp_share") - 0.1).abs() < 1e-12);
        assert!((get("model.residual_share") - 0.9).abs() < 1e-12);
        assert!((get("sweep.pool_utilization") - 0.6).abs() < 1e-12);
        assert!((get("trace.overhead_frac") - (0.55 / (0.5 * 1.065) - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn output_round_trips_through_the_json_parser() {
        let run = synthetic_run(true);
        let m = metrics(&run, 100.0, 100.5);
        let args = parse_args(&argv("--workload sweep --trace 1")).expect("valid");
        let detail = Json::parse(&detail_json(&args, 2, &run, &m)).expect("detail parses");
        let items = detail
            .get("metrics")
            .and_then(Json::as_array)
            .expect("array");
        assert_eq!(items.len(), m.len());
        for (item, metric) in items.iter().zip(&m) {
            assert_eq!(item.get("name").and_then(Json::as_str), Some(metric.name));
            assert_eq!(item.get("unit").and_then(Json::as_str), Some(metric.unit));
            assert_eq!(item.get("value").and_then(Json::as_f64), Some(metric.value));
            assert_eq!(
                item.get("samples").and_then(Json::as_f64),
                Some(metric.samples as f64)
            );
        }
        for wanted in [&END_TO_END[..], &PER_LAYER[..]] {
            let line = Json::parse(&summary_json(&run, &m, wanted)).expect("summary parses");
            assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
            let got = line
                .get("metrics")
                .and_then(Json::as_object)
                .expect("object");
            let names: Vec<&str> = got.iter().map(|(k, _)| k.as_str()).collect();
            let want: Vec<&str> = wanted.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, want);
        }
    }

    /// The metric lists here are the ones `BENCHMARK.json` declares, with
    /// the same units, in the same order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let file = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .map(|d| d.join("BENCHMARK.json"))
            .find(|p| p.is_file())
            .expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&std::fs::read_to_string(file).expect("readable")).expect("valid");
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<(&str, &str)> = doc
                .get(key)
                .and_then(Json::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).expect("name"),
                        m.get("unit").and_then(Json::as_str).expect("unit"),
                    )
                })
                .collect();
            assert_eq!(declared, list, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = Suite::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(workloads, ours);
    }
}
