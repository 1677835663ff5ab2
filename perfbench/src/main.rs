//! The KISS benchmark: three seeded workloads, end-to-end metrics from
//! untraced runs, per-layer metrics from a separate traced run.
//!
//! ```text
//! kbench --workload race_sweep|prop_sweep|serve_mix --seed <n> \
//!        --seconds <s> --trace 0|1 --kissc <path to kissc>
//! ```
//!
//! Prints one line per metric, then one JSON result line with the
//! metrics `BENCHMARK.json` lists: the end-to-end ones with `--trace 0`
//! and the per-layer ones with `--trace 1`. `perfbench/run.py` builds
//! this binary and `kissc` and supplies `--kissc`.

mod batch;
mod gen;
mod oracle;
mod pipeline;
mod report;
mod rng;
mod serve;
mod trace;

use std::path::PathBuf;

use report::{metric, Metric};

/// The result line's end-to-end metrics. `BENCHMARK.json` gives every
/// workload one list, so each gated name is one every workload has: the
/// batch workloads report checks, `serve_mix` requests. The p50s, and
/// the p99 of `serve_mix`, are printed by name but not gated.
pub fn end_to_end(setup_s: f64, per_s: f64, p95_ms: f64, decided: f64, rss: f64) -> Vec<Metric> {
    vec![
        metric("setup_s", setup_s, "s"),
        metric("throughput_per_s", per_s, "1/s"),
        metric("latency_p95_ms", p95_ms, "ms"),
        metric("decided_pct", decided, "%"),
        metric("peak_rss_mb", rss, "MiB"),
    ]
}

/// Every per-layer metric, in `BENCHMARK.json` order. A layer a
/// workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 33] = [
    ("lang.parse_us", "us"),
    ("core.harness_us", "us"),
    ("core.transform_us", "us"),
    ("core.prune_pct", "%"),
    ("exec.lower_us", "us"),
    ("exec.instrs", "count"),
    ("seq.explore_us", "us"),
    ("seq.steps", "count"),
    ("seq.states_stored", "count"),
    ("seq.store_bytes", "bytes"),
    ("seq.frontier_peak", "count"),
    ("seq.bound_hits", "%"),
    ("seq.wasted_steps", "%"),
    ("core.trace_map_us", "us"),
    ("conc.validate_us", "us"),
    ("conc.validated_pct", "%"),
    ("ltl.buchi_us", "us"),
    ("ltl.product_us", "us"),
    ("ltl.product_states", "count"),
    ("core.self_us", "us"),
    ("trace.check_us", "us"),
    ("trace.overhead_pct", "%"),
    ("serve.rtt_hit_us", "us"),
    ("serve.rtt_miss_us", "us"),
    ("serve.hit_pct", "%"),
    ("serve.queue_peak", "count"),
    ("serve.admission_waits", "count"),
    ("serve.shard_contended_pct", "%"),
    ("serve.journal_bytes", "bytes"),
    ("serve.compactions", "count"),
    ("serve.check_p50_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.checks", "count"),
];

/// The result line's per-layer metrics, picked from `measured`.
pub fn per_layer(measured: &[Metric]) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            metric(name, value, unit)
        })
        .collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    kissc: PathBuf,
}

const USAGE: &str = "usage: kbench --workload race_sweep|prop_sweep|serve_mix --seed <n> \
                     --seconds <s> --trace 0|1 [--kissc <path>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        kissc: PathBuf::from(".bench_build/release/kissc"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: cannot parse `{value}` as {what}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("a number"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--kissc" => args.kissc = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let spans =
        PathBuf::from(".bench_work").join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    if args.trace {
        let _ = std::fs::create_dir_all(".bench_work");
    }
    let outcome = match args.workload.as_str() {
        "race_sweep" | "prop_sweep" => {
            let kind = if args.workload == "race_sweep" {
                batch::Kind::RaceSweep
            } else {
                batch::Kind::PropSweep
            };
            if args.trace {
                batch::run_traced(kind, args.seed, args.seconds, &spans)
            } else {
                batch::run(kind, args.seed, args.seconds)
            }
        }
        "serve_mix" => match serve::run(&args.kissc, args.seed, args.seconds, args.trace) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("kbench: serve_mix failed: {e}");
                std::process::exit(1);
            }
        },
        other => {
            eprintln!("kbench: unknown workload `{other}`\n{USAGE}");
            std::process::exit(2);
        }
    };
    outcome.print();
}
