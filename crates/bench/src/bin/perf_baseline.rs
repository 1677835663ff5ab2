//! Performance baseline for the sequential engines and the end-to-end
//! table run — the perf trajectory's fixed measuring stick.
//!
//! ```text
//! cargo run --release -p kiss-bench --bin perf_baseline -- \
//!     [--quick] [--iters <n>] [--jobs <n>] [--out <path>] [--compare <path>]
//! ```
//!
//! Five measurements, written as one JSON object (default
//! `BENCH_seq.json`, the checked-in baseline) together with the
//! `hardware_threads` of the measuring machine:
//!
//! * **engines** — each sequential engine (`explicit`, `bfs`,
//!   `summary`) checks the whole `kiss-samples` suite through the KISS
//!   pipeline (the suite is parsed once, outside the timed region);
//!   wall-clock is the median of `--iters` iterations and steps/sec
//!   divides the (deterministic) step total by it.
//! * **ltl** — the LTL product engine (`ProductChecker`) on the
//!   spinlock pair and the `G !bad` differential corpus at `MAX` 0 and
//!   1, transformed and lowered outside the timed region; reported
//!   like an engine, in product expansions per second.
//! * **drivers** — the explicit engine (`ExplicitChecker`) checking
//!   every field of the 18 paper drivers for races under the naive
//!   harness at `MAX` 0 and the default per-field budget
//!   (`table::default_budget()`). Harnessing, transformation and
//!   lowering happen outside the timed region, so the leg times the
//!   DFS on driver-shaped states — wide heaps, where per-state
//!   fingerprinting shows — in steps per second.
//! * **table1** — an end-to-end corpus run at a reduced per-field
//!   budget, once with `jobs = 1` and once with `--jobs` workers, so
//!   the serial/parallel ratio is recorded alongside the raw numbers.
//! * **memory** — one BFS pass over the samples recording the state
//!   store's gauges: states stored, store bytes, and the peak frontier.
//!
//! `--quick` shrinks the iteration count and the table budget for CI
//! smoke use. `--compare <path>` reads a previously written baseline
//! and exits 1 if any engine's, the LTL product's or the drivers leg's
//! steps/sec regressed more than 30% against it, or if the BFS
//! store-bytes footprint grew more than 50% (the LTL, drivers and
//! memory gates only when the baseline records those sections) —
//! engine throughput and store footprint are workload-independent
//! across modes, so a `--quick` run may be compared against a full
//! baseline (the table numbers are informational and never gated).
//! A baseline's retired `parallel_explore` section is ignored.

use std::time::Instant;

use kiss_bench::runner::default_jobs;
use kiss_core::checker::{Engine, Kiss};
use kiss_core::harness::dispatch_harness;
use kiss_core::supervisor::Supervisor;
use kiss_core::transform::{transform, TransformConfig};
use kiss_core::RaceTarget;
use kiss_drivers::table::{check_corpus_parallel, default_budget};
use kiss_exec::Module;
use kiss_ltl::{Buchi, ProductChecker, ResolvedAtom};
use kiss_obs::json::Json;
use kiss_seq::{Budget, ExplicitChecker};

const USAGE: &str = "options: --quick --iters <n> --jobs <n> --out <path> --compare <path>";

struct Options {
    quick: bool,
    iters: usize,
    jobs: usize,
    out: String,
    compare: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        quick: false,
        iters: 0,
        jobs: default_jobs(),
        out: "BENCH_seq.json".to_string(),
        compare: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--iters" => {
                let v = args.next().ok_or_else(|| format!("{arg} needs a value\n{USAGE}"))?;
                opts.iters = v.parse().map_err(|_| format!("{arg}: cannot parse `{v}`"))?;
            }
            "--jobs" => {
                let v = args.next().ok_or_else(|| format!("{arg} needs a value\n{USAGE}"))?;
                opts.jobs = v.parse().map_err(|_| format!("{arg}: cannot parse `{v}`"))?;
                if opts.jobs == 0 {
                    return Err(format!("--jobs needs at least 1\n{USAGE}"));
                }
            }
            "--out" => {
                opts.out = args.next().ok_or_else(|| format!("{arg} needs a path\n{USAGE}"))?;
            }
            "--compare" => {
                opts.compare =
                    Some(args.next().ok_or_else(|| format!("{arg} needs a path\n{USAGE}"))?);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if opts.iters == 0 {
        opts.iters = if opts.quick { 3 } else { 5 };
    }
    Ok(opts)
}

/// `reps` engine passes over the whole samples suite; returns the
/// summed step count (deterministic across iterations). One suite pass
/// is under two milliseconds, so repetitions stretch each timed
/// iteration far enough above scheduler noise for a ±30% gate. The
/// suite is parsed once, outside the timed region: the measurement
/// tracks the checking pipeline (transform, lowering, search), not the
/// front end.
fn run_suite(engine: Engine, programs: &[kiss_lang::hir::Program], reps: usize) -> u64 {
    let mut steps = 0u64;
    for _ in 0..reps {
        for p in programs {
            let outcome = Kiss::new()
                .with_engine(engine)
                .with_validation(false)
                .with_budget(Budget::steps_states(2_000_000, 60_000))
                .check_assertions(p);
            steps += outcome.stats().map_or(0, |st| st.steps());
        }
    }
    steps
}

/// The LTL leg's programs and formulas: the spinlock pair under the
/// response property, and the `G !bad` corpus of the product engine's
/// differential suite.
const LTL_CORPUS: &[(&str, &str)] = &[
    (
        "int locked; void worker() { locked = 0; }
         void main() { locked = 1; async worker(); while (locked == 1) { skip; } }",
        "G (locked -> F !locked)",
    ),
    (
        "int locked; void worker() { skip; }
         void main() { locked = 1; async worker(); while (locked == 1) { skip; } }",
        "G (locked -> F !locked)",
    ),
    ("int bad; void main() { bad = 1; }", "G !bad"),
    ("int bad; int x; void main() { x = 0; if (x == 1) { bad = 1; } }", "G !bad"),
    ("int bad; int x; void main() { x = 2; if (x == 2) { bad = 1; } }", "G !bad"),
    ("int bad; int i; void main() { while (i != 3) { i = i + 1; } bad = 1; }", "G !bad"),
    ("int bad; void worker() { bad = 1; } void main() { async worker(); }", "G !bad"),
    (
        "int bad; int flag; void worker() { if (flag == 1) { bad = 1; } }
         void main() { async worker(); flag = 1; }",
        "G !bad",
    ),
    ("int bad; void main() { choice { skip; bad = 1; } }", "G !bad"),
];

/// Each [`LTL_CORPUS`] entry transformed at `MAX` 0 and 1 and lowered,
/// with its negated-formula automaton and resolved atoms.
fn ltl_cases() -> Vec<(Module, Buchi, Vec<ResolvedAtom>)> {
    let mut cases = Vec::new();
    for (src, formula) in LTL_CORPUS {
        let program = kiss_lang::parse_and_lower(src).expect("LTL corpus parses");
        let buchi = Buchi::for_negation(&kiss_ltl::parse(formula).expect("formula parses"));
        for max_ts in 0..=1 {
            let cfg = TransformConfig { max_ts, race: None, alias_prune: true };
            let module = Module::lower(transform(&program, &cfg).expect("transforms").program);
            let atoms = kiss_ltl::resolve_atoms(&module.program, &buchi.atoms).expect("atoms");
            cases.push((module, buchi.clone(), atoms));
        }
    }
    cases
}

/// `reps` product explorations of every LTL case; returns the summed
/// expansion count.
fn run_ltl(cases: &[(Module, Buchi, Vec<ResolvedAtom>)], reps: usize) -> u64 {
    let mut steps = 0u64;
    for _ in 0..reps {
        for (module, buchi, atoms) in cases {
            let (_, stats) = ProductChecker::new(module, buchi, atoms.clone())
                .with_budget(Budget::steps_states(2_000_000, 60_000))
                .check_with_stats();
            steps += stats.steps;
        }
    }
    steps
}

/// Every field of the 18 paper drivers as a race check under the naive
/// harness: harnessed, race-instrumented at `MAX` 0 and lowered, the
/// same front end `table1` runs per field.
fn driver_cases() -> Vec<Module> {
    let mut modules = Vec::new();
    for model in kiss_drivers::generate_corpus() {
        let program = kiss_lang::parse_and_lower(&model.source).expect("drivers parse");
        for field in 0..model.fields.len() {
            let pairs = model.field_pairs(field, false);
            let pairs: Vec<(&str, &str)> = pairs.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
            let harnessed = dispatch_harness(&program, Some("DriverInit"), &pairs).expect("harness");
            let race = RaceTarget::resolve(&harnessed, &model.race_spec(field)).expect("race spec");
            let cfg = TransformConfig { max_ts: 0, race: Some(race), alias_prune: true };
            modules.push(Module::lower(transform(&harnessed, &cfg).expect("transforms").program));
        }
    }
    modules
}

/// One explicit-engine pass over every driver case at the default
/// per-field budget; returns the summed step count.
fn run_drivers(modules: &[Module]) -> u64 {
    modules
        .iter()
        .map(|m| ExplicitChecker::new(m).with_budget(default_budget()).check_with_stats().1.steps)
        .sum()
}

/// Runs `pass` `iters` times; returns its (deterministic) step count
/// and the median wall-clock microseconds.
fn timed(iters: usize, mut pass: impl FnMut() -> u64) -> (u64, u64) {
    let mut steps = 0;
    let mut walls: Vec<u64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            steps = pass();
            t0.elapsed().as_micros() as u64
        })
        .collect();
    walls.sort_unstable();
    (steps, walls[walls.len() / 2])
}

/// One BFS pass over the samples suite collecting the state-store
/// gauges: total entries stored, total store bytes, and the largest
/// frontier any sample reached. The counts are deterministic, so one
/// pass suffices.
fn measure_memory(programs: &[kiss_lang::hir::Program]) -> (u64, u64, u64) {
    let (mut stored, mut bytes, mut frontier) = (0u64, 0u64, 0u64);
    for p in programs {
        let outcome = Kiss::new()
            .with_engine(Engine::Bfs)
            .with_validation(false)
            .with_budget(Budget::steps_states(2_000_000, 60_000))
            .check_assertions(p);
        if let Some(st) = outcome.stats() {
            stored += st.seq.states_stored as u64;
            bytes += st.seq.store_bytes as u64;
            frontier = frontier.max(st.seq.frontier_peak as u64);
        }
    }
    (stored, bytes, frontier)
}

/// End-to-end corpus run at `budget`, returning wall-clock
/// microseconds.
fn run_table1(budget: Budget, jobs: usize) -> u64 {
    let corpus = kiss_drivers::generate_corpus();
    let supervisor = Supervisor::new(budget).with_retries(0);
    let t0 = Instant::now();
    let rows = check_corpus_parallel(&corpus, false, &supervisor, None, jobs, |_| {});
    assert_eq!(rows.len(), corpus.len());
    t0.elapsed().as_micros() as u64
}

fn steps_per_sec(steps: u64, wall_us: u64) -> u64 {
    (steps as f64 * 1_000_000.0 / wall_us.max(1) as f64) as u64
}

/// Returns the gates that failed vs `baseline`: any engine — and, when
/// the baseline records them, the LTL product and the drivers leg —
/// that regressed >30% in steps/sec, and, when the baseline records a
/// memory section, a BFS store-bytes footprint that grew >50%.
fn regressions(current: &str, baseline: &str) -> Result<Vec<String>, String> {
    let cur = Json::parse(current).ok_or("current result does not parse")?;
    let base = Json::parse(baseline).ok_or("baseline does not parse")?;
    let mut failed = Vec::new();
    let mut gate_rate = |name: &str, b: &Json, c: Option<&Json>| -> Result<(), String> {
        let b_rate = b.get("steps_per_sec").and_then(Json::as_u64).ok_or("bad baseline rate")?;
        let c_rate = c
            .and_then(|e| e.get("steps_per_sec"))
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("current run has no rate for {name}"))?;
        let floor = (b_rate as f64) * 0.70;
        println!(
            "compare {name}: current {c_rate} steps/s vs baseline {b_rate} (floor {})",
            floor as u64
        );
        if (c_rate as f64) < floor {
            failed.push(name.to_string());
        }
        Ok(())
    };
    let engines = base.get("engines").and_then(Json::as_obj).ok_or("baseline has no engines")?;
    for (name, b) in engines {
        gate_rate(name, b, cur.get("engines").and_then(|e| e.get(name)))?;
    }
    // Older baselines predate the LTL leg; its gate only arms once a
    // baseline carrying it is checked in.
    if let Some(b) = base.get("ltl") {
        gate_rate("ltl", b, cur.get("ltl"))?;
    }
    // Likewise for the drivers leg.
    if let Some(b) = base.get("drivers") {
        gate_rate("drivers", b, cur.get("drivers"))?;
    }
    // Older baselines predate the memory section; the gate only arms
    // once a baseline carrying it is checked in.
    let base_bytes = base.get("memory").and_then(|m| m.get("bfs_store_bytes")).and_then(Json::as_u64);
    if let Some(b_bytes) = base_bytes {
        let c_bytes = cur
            .get("memory")
            .and_then(|m| m.get("bfs_store_bytes"))
            .and_then(Json::as_u64)
            .ok_or("current run has no memory section")?;
        let ceiling = (b_bytes as f64) * 1.50;
        println!(
            "compare memory: current {c_bytes} bfs store bytes vs baseline {b_bytes} \
             (ceiling {})",
            ceiling as u64
        );
        if (c_bytes as f64) > ceiling {
            failed.push("bfs store bytes".to_string());
        }
    }
    Ok(failed)
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("perf_baseline: {msg}");
            std::process::exit(2);
        }
    };
    let samples = kiss_samples::all();
    let programs: Vec<_> = samples.iter().map(|s| s.program()).collect();
    let reps = if opts.quick { 8 } else { 20 };

    let mut engine_json = Vec::new();
    for engine in [Engine::Explicit, Engine::Bfs, Engine::Summary] {
        let name = engine.name();
        let (steps, wall_us) = timed(opts.iters, || run_suite(engine, &programs, reps));
        let rate = steps_per_sec(steps, wall_us);
        println!("{name}: {steps} steps, median {wall_us} us, {rate} steps/s");
        engine_json.push(format!(
            "\"{name}\":{{\"steps\":{steps},\"wall_us_median\":{wall_us},\"steps_per_sec\":{rate}}}"
        ));
    }

    let cases = ltl_cases();
    let ltl_reps = if opts.quick { 20 } else { 50 };
    let (ltl_steps, ltl_wall_us) = timed(opts.iters, || run_ltl(&cases, ltl_reps));
    let ltl_rate = steps_per_sec(ltl_steps, ltl_wall_us);
    println!("ltl: {ltl_steps} steps, median {ltl_wall_us} us, {ltl_rate} steps/s");

    let drivers = driver_cases();
    let (driver_steps, driver_wall_us) = timed(opts.iters, || run_drivers(&drivers));
    let driver_rate = steps_per_sec(driver_steps, driver_wall_us);
    println!(
        "drivers ({} field checks): {driver_steps} steps, median {driver_wall_us} us, \
         {driver_rate} steps/s",
        drivers.len()
    );

    // A reduced per-field budget keeps the end-to-end leg tractable;
    // the serial/parallel ratio is what the baseline tracks.
    let budget = if opts.quick {
        Budget::steps_states(50_000, 8_000)
    } else {
        Budget::steps_states(200_000, 20_000)
    };
    let serial_us = run_table1(budget, 1);
    let parallel_us = run_table1(budget, opts.jobs);
    println!(
        "table1 (max_steps={}, max_states={}): serial {serial_us} us, \
         parallel {parallel_us} us with {} jobs",
        budget.max_steps, budget.max_states, opts.jobs
    );

    let (stored, store_bytes, frontier_peak) = measure_memory(&programs);
    println!(
        "memory (bfs over samples): {stored} states stored, {store_bytes} store bytes, \
         frontier peak {frontier_peak}"
    );

    let hardware_threads = default_jobs();
    println!("hardware threads: {hardware_threads}");

    let json = format!(
        "{{\"version\":3,\"hardware_threads\":{hardware_threads},\"quick\":{},\"iters\":{},\
         \"engines\":{{{}}},\
         \"ltl\":{{\"steps\":{ltl_steps},\"wall_us_median\":{ltl_wall_us},\
         \"steps_per_sec\":{ltl_rate}}},\
         \"drivers\":{{\"steps\":{driver_steps},\"wall_us_median\":{driver_wall_us},\
         \"steps_per_sec\":{driver_rate}}},\
         \"table1\":{{\"budget_max_steps\":{},\"budget_max_states\":{},\
         \"serial_wall_us\":{serial_us},\"parallel_wall_us\":{parallel_us},\"jobs\":{}}},\
         \"memory\":{{\"bfs_states_stored\":{stored},\"bfs_store_bytes\":{store_bytes},\
         \"bfs_frontier_peak\":{frontier_peak}}}}}\n",
        opts.quick,
        opts.iters,
        engine_json.join(","),
        budget.max_steps,
        budget.max_states,
        opts.jobs,
    );
    if let Err(e) = std::fs::write(&opts.out, &json) {
        eprintln!("perf_baseline: cannot write {}: {e}", opts.out);
        std::process::exit(2);
    }
    println!("wrote {}", opts.out);

    if let Some(path) = &opts.compare {
        let baseline = match std::fs::read_to_string(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("perf_baseline: cannot read baseline {path}: {e}");
                std::process::exit(2);
            }
        };
        match regressions(&json, &baseline) {
            Ok(failed) if failed.is_empty() => {
                println!("no engine, ltl or drivers rate regressed >30%")
            }
            Ok(failed) => {
                eprintln!("perf_baseline: steps/sec regressed >30% on: {}", failed.join(", "));
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("perf_baseline: {e}");
                std::process::exit(2);
            }
        }
    }
}
