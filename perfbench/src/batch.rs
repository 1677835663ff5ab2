//! The batch workloads, `race_sweep` and `prop_sweep`: closed,
//! single-threaded streams of checks run through the checker's public
//! API, one after another, for the measured window.

use std::time::{Duration, Instant};

use kiss_core::checker::{Engine, Kiss, KissOutcome};
use kiss_core::harness::dispatch_harness;
use kiss_core::transform::TransformConfig;
use kiss_core::{RaceTarget, Supervised, Supervisor};
use kiss_drivers::{table, DriverModel, FieldClass};
use kiss_lang::Program;
use kiss_seq::Budget;

use crate::gen::{self, Family, PropCheck, PropDraw};
use crate::oracle::{self, Expect};
use crate::pipeline::{self, Counters};
use crate::report::{host_ref_ms, median, metric, pct, peak_rss_mb, quantile, Outcome};
use crate::trace::{self, Tracer};

/// Fewest set-up samples in a run; `setup_s` is their median.
pub const SETUP_SAMPLES: usize = 11;

/// One set-up sample repeats the build until this much time has
/// passed and counts the time per build, so a build of a millisecond
/// is not read off a coarse clock tick or one scheduler hiccup.
const SETUP_SAMPLE: Duration = Duration::from_millis(50);

/// Checks in one `race_sweep` pass: the first checks of the
/// interleaved table, a seeded sample with every field class and both
/// harnesses in proportion.
pub const RACE_PASS: usize = 240;

/// Which batch workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    RaceSweep,
    PropSweep,
}

struct Driver {
    model: DriverModel,
    program: Program,
}

#[derive(Debug, Clone, Copy)]
enum Item {
    Race {
        driver: usize,
        field: usize,
        refined: bool,
    },
    Prop(PropDraw),
}

/// A workload's inputs, generated and parsed.
struct Inputs {
    drivers: Vec<Driver>,
    programs: Vec<(Program, Family)>,
    formula: kiss_ltl::Formula,
    /// One pass over the workload, in a seeded order that spreads each
    /// class of check evenly.
    items: Vec<(Item, Expect)>,
}

/// What one check came to.
#[derive(Debug, Clone, PartialEq)]
enum CheckResult {
    /// The refined harness rules the race out without a search.
    Searchless,
    /// The harness or race target could not be built.
    Failed(String),
    /// The supervised check ran.
    Ran(Supervised),
}

fn parse(tr: &mut Tracer, source: &str) -> Program {
    tr.time("lang.parse", || kiss_lang::parse_and_lower(source))
        .unwrap_or_else(|e| panic!("generated input does not parse: {e}"))
}

/// Generates and parses the inputs of `kind` for `seed`.
fn build(kind: Kind, seed: u64, tr: &mut Tracer) -> Inputs {
    let formula = kiss_ltl::parse(gen::SPIN_FORMULA).expect("formula parses");
    let mut inputs = Inputs {
        drivers: Vec::new(),
        programs: Vec::new(),
        formula,
        items: Vec::new(),
    };
    match kind {
        Kind::RaceSweep => {
            let specs = kiss_drivers::paper_table()
                .into_iter()
                .chain(gen::synthetic_specs(seed));
            for spec in specs {
                let model = kiss_drivers::generate_driver(&spec);
                let program = parse(tr, &model.source);
                inputs.drivers.push(Driver { model, program });
            }
            // Group by (driver, class, harness), then interleave, so
            // every prefix of the pass holds each group in proportion:
            // the seed picks which fields, not how many of each kind.
            let classes = FieldClass::Clean as usize + 1;
            let mut groups: Vec<Vec<(Item, Expect)>> =
                vec![Vec::new(); inputs.drivers.len() * classes * 2];
            for (driver, d) in inputs.drivers.iter().enumerate() {
                for (field, info) in d.model.fields.iter().enumerate() {
                    for refined in [false, true] {
                        let group =
                            (driver * classes + info.class as usize) * 2 + usize::from(refined);
                        groups[group].push((
                            Item::Race {
                                driver,
                                field,
                                refined,
                            },
                            oracle::field(info.class, refined),
                        ));
                    }
                }
            }
            let mut rng = crate::rng::Rng::stream(seed, 10);
            for g in &mut groups {
                rng.shuffle(g);
            }
            groups.retain(|g| !g.is_empty());
            inputs.items = gen::interleave(groups);
            inputs.items.truncate(RACE_PASS);
        }
        Kind::PropSweep => {
            let prop = gen::prop_inputs(seed);
            for p in &prop.programs {
                inputs.programs.push((parse(tr, &p.source), p.family));
            }
            inputs.items = prop
                .draws
                .iter()
                .map(|d| (Item::Prop(*d), d.expect(prop.programs[d.program].family)))
                .collect();
        }
    }
    inputs
}

/// Runs one check; with `counters`, through the traced pipeline.
fn run_check(
    inputs: &Inputs,
    item: Item,
    sup: &Supervisor,
    tr: &mut Tracer,
    mut counters: Option<&mut Counters>,
) -> CheckResult {
    match item {
        Item::Race {
            driver,
            field,
            refined,
        } => {
            let d = &inputs.drivers[driver];
            let pairs = d.model.field_pairs(field, refined);
            if pairs.is_empty() {
                return CheckResult::Searchless;
            }
            let refs: Vec<(&str, &str)> = pairs
                .iter()
                .map(|(a, b)| (a.as_str(), b.as_str()))
                .collect();
            let harnessed = match tr.time("core.harness", || {
                dispatch_harness(&d.program, Some("DriverInit"), &refs)
            }) {
                Ok(h) => h,
                Err(e) => return CheckResult::Failed(format!("harness: {e}")),
            };
            let Some(target) = RaceTarget::resolve(&harnessed, &d.model.race_spec(field)) else {
                return CheckResult::Failed("race spec did not resolve".to_string());
            };
            let cfg = TransformConfig {
                max_ts: 0,
                race: Some(target),
                alias_prune: true,
            };
            CheckResult::Ran(
                sup.run(|budget, cancel| match counters.as_deref_mut() {
                    Some(n) => {
                        pipeline::check(tr, n, &harnessed, &cfg, Engine::Explicit, budget, cancel)
                    }
                    None => Kiss::new()
                        .with_budget(budget)
                        .with_cancel(cancel)
                        .check_race(&harnessed, target),
                })
                .result,
            )
        }
        Item::Prop(draw) => {
            let program = &inputs.programs[draw.program].0;
            let formula = &inputs.formula;
            CheckResult::Ran(
                sup.run(
                    |budget, cancel| match (draw.check, counters.as_deref_mut()) {
                        (PropCheck::Assert { max_ts, engine }, Some(n)) => {
                            let cfg = TransformConfig {
                                max_ts,
                                race: None,
                                alias_prune: true,
                            };
                            pipeline::check(tr, n, program, &cfg, engine, budget, cancel)
                        }
                        (PropCheck::Assert { max_ts, engine }, None) => Kiss::new()
                            .with_max_ts(max_ts)
                            .with_engine(engine)
                            .with_budget(budget)
                            .with_cancel(cancel)
                            .check_assertions(program),
                        (PropCheck::Ltl { max_ts }, Some(n)) => {
                            pipeline::check_ltl(tr, n, program, formula, max_ts, budget, cancel)
                        }
                        (PropCheck::Ltl { max_ts }, None) => Kiss::new()
                            .with_max_ts(max_ts)
                            .with_budget(budget)
                            .with_cancel(cancel)
                            .check_ltl(program, formula)
                            .unwrap_or_else(|e| KissOutcome::RuntimeError(e.to_string())),
                    },
                )
                .result,
            )
        }
    }
}

/// Judges one result against its expectation.
fn judge(item: Item, expect: Expect, result: &CheckResult) -> oracle::Judged {
    let (verdict, replay_ok) = match result {
        CheckResult::Searchless => (oracle::Verdict::NoError, None),
        CheckResult::Failed(_) | CheckResult::Ran(Supervised::Crashed { .. }) => {
            (oracle::Verdict::Failed, None)
        }
        CheckResult::Ran(Supervised::Completed(outcome)) => {
            let (verdict, validated) = pipeline::classify(outcome);
            match item {
                // A race harness reports races, nothing else.
                Item::Race { .. }
                    if !matches!(outcome, KissOutcome::RaceDetected(_))
                        && verdict == oracle::Verdict::Error =>
                {
                    (oracle::Verdict::Failed, None)
                }
                // Explicit and BFS errors carry a trace, and the trace
                // must replay on the concurrent program.
                Item::Prop(PropDraw {
                    check:
                        PropCheck::Assert {
                            engine: Engine::Explicit | Engine::Bfs,
                            ..
                        },
                    ..
                }) if verdict == oracle::Verdict::Error => (verdict, Some(validated == Some(true))),
                _ => (verdict, None),
            }
        }
    };
    oracle::judge(expect, verdict, replay_ok)
}

/// No retries, and for `race_sweep` the budget `table1` gives one
/// field. `prop_sweep` uses a third of its steps and states: its draws
/// are there to reach the instrumentation, engines, LTL product and
/// replay, and a draw that needs more only runs out of budget later.
fn supervisor(kind: Kind) -> Supervisor {
    let budget = match kind {
        Kind::RaceSweep => table::default_budget(),
        Kind::PropSweep => Budget::steps_states(1_000_000, 20_000),
    };
    Supervisor::new(budget).with_retries(0)
}

/// One set-up sample: builds the inputs again and again until
/// `SETUP_SAMPLE` has passed; returns the last inputs and the time per
/// build in seconds.
fn setup_sample(kind: Kind, seed: u64, tr: &mut Tracer) -> (Inputs, f64) {
    let t0 = Instant::now();
    let mut builds = 0u32;
    loop {
        let inputs = build(kind, seed, tr);
        builds += 1;
        if t0.elapsed() >= SETUP_SAMPLE {
            return (inputs, t0.elapsed().as_secs_f64() / f64::from(builds));
        }
    }
}

/// One pass over the workload.
struct Pass {
    /// Each check's result, in pass order.
    results: Vec<CheckResult>,
    /// Each check's time, in ms.
    times_ms: Vec<f64>,
    /// The pass's wall time, in s.
    wall_s: f64,
}

/// Runs one pass; with `traced`, each check runs through the traced
/// pipeline inside a `check` span of its own trace.
fn run_pass(
    inputs: &Inputs,
    sup: &Supervisor,
    mut traced: Option<(&mut Tracer, &mut Counters)>,
) -> Pass {
    let mut off = Tracer::off();
    let len = inputs.items.len();
    let mut pass = Pass {
        results: Vec::with_capacity(len),
        times_ms: Vec::with_capacity(len),
        wall_s: 0.0,
    };
    let start = Instant::now();
    for &(item, _) in &inputs.items {
        let t0 = Instant::now();
        let result = match traced.as_mut() {
            Some((tr, n)) => {
                n.checks += 1;
                tr.set_trace(n.checks);
                let root = tr.enter("check");
                let result = run_check(inputs, item, sup, tr, Some(n));
                tr.exit(root);
                result
            }
            None => run_check(inputs, item, sup, &mut off, None),
        };
        pass.times_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        pass.results.push(result);
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass
}

/// Verdict tallies over every check run.
#[derive(Default)]
struct Tally {
    decided: u64,
    wrong: u64,
    failed: u64,
}

fn tally<'a>(inputs: &Inputs, passes: impl IntoIterator<Item = &'a Pass>) -> Tally {
    let mut t = Tally::default();
    for pass in passes {
        for (result, &(item, expect)) in pass.results.iter().zip(&inputs.items) {
            let j = judge(item, expect, result);
            t.decided += u64::from(j.decided);
            t.wrong += u64::from(j.wrong);
            t.failed += u64::from(j.failed);
        }
    }
    t
}

/// One untraced run: the end-to-end metrics. The pass repeats until
/// `seconds` have elapsed (at least once), with a set-up sample after
/// each, so set-up is timed on the same host as the checks.
///
/// Every pass runs the same checks, and a neighbour's load on a shared
/// host only ever adds time (here it slows stretches of several seconds
/// by up to half), so each check's time is its fastest over the passes,
/// and throughput is the checks of a pass over the sum of those times.
pub fn run(kind: Kind, seed: u64, seconds: f64) -> Outcome {
    // Untimed, so the process's first allocations do not count.
    build(kind, seed, &mut Tracer::off());
    let mut off = Tracer::off();
    let (mut inputs, first) = setup_sample(kind, seed, &mut off);
    let mut setup = vec![first];
    let mut host = vec![host_ref_ms()];
    let sup = supervisor(kind);
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        passes.push(run_pass(&inputs, &sup, None));
        host.push(host_ref_ms());
        let (fresh, t) = setup_sample(kind, seed, &mut off);
        inputs = fresh;
        setup.push(t);
    }
    while setup.len() < SETUP_SAMPLES {
        let (fresh, t) = setup_sample(kind, seed, &mut off);
        inputs = fresh;
        setup.push(t);
    }
    let setup_s = median(&setup);
    let t = tally(&inputs, &passes);
    let ran = (passes.len() * inputs.items.len()) as f64;
    let mut lat: Vec<f64> = (0..inputs.items.len())
        .map(|i| {
            passes
                .iter()
                .map(|p| p.times_ms[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let checks_per_s = 1e3 * lat.len() as f64 / lat.iter().sum::<f64>();
    lat.sort_by(f64::total_cmp);
    let p50 = quantile(&lat, 0.50);
    let p95 = quantile(&lat, 0.95);
    let decided = pct(t.decided as f64, ran);
    let rss = peak_rss_mb(None);
    Outcome {
        correct: t.wrong == 0,
        attempted: ran as u64,
        failed: t.failed,
        detail: vec![
            metric("setup_s", setup_s, "s"),
            metric("checks_per_s", checks_per_s, "checks/s"),
            metric("check_p50_ms", p50, "ms"),
            metric("check_p95_ms", p95, "ms"),
            metric("check_samples", lat.len() as f64, "count"),
            metric("passes", passes.len() as f64, "count"),
            metric("decided_pct", decided, "%"),
            metric("wrong_verdicts", t.wrong as f64, "count"),
            metric("failed_pct", pct(t.failed as f64, ran), "%"),
            metric("peak_rss_mb", rss, "MiB"),
            metric("host_ref_ms", median(&host), "ms"),
        ],
        result: crate::end_to_end(setup_s, checks_per_s, p95, decided, rss),
    }
}

/// One traced run: untraced and traced passes alternate until
/// `seconds` have elapsed, so host drift hits both alike, and the
/// tracing overhead is the median ratio of a traced pass to the
/// untraced pass before it. Every traced verdict must equal the
/// untraced one; the per-layer numbers come from the traced passes only.
pub fn run_traced(kind: Kind, seed: u64, seconds: f64, spans_out: &std::path::Path) -> Outcome {
    let mut tr = Tracer::new();
    let (inputs, _) = setup_sample(kind, seed, &mut tr);
    let sup = supervisor(kind);
    let mut n = Counters::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while untraced.is_empty() || start.elapsed().as_secs_f64() < seconds {
        untraced.push(run_pass(&inputs, &sup, None));
        traced.push(run_pass(&inputs, &sup, Some((&mut tr, &mut n))));
    }
    let same = untraced
        .iter()
        .chain(&traced)
        .all(|p| p.results == untraced[0].results);
    let ratios: Vec<f64> = untraced
        .iter()
        .zip(&traced)
        .map(|(u, t)| t.wall_s / u.wall_s)
        .collect();
    let overhead = 100.0 * (median(&ratios) - 1.0);
    let _ = tr.write_jsonl(spans_out);

    // Set-up spans carry trace 0; each check has its own trace id.
    let in_check = |s: &trace::Span| s.trace != 0;
    let selfs = trace::self_times(tr.spans(), in_check);
    let check_spans = tr.spans().iter().filter(|s| in_check(s)).count();
    let parse_spans = trace::counts(tr.spans(), |s| !in_check(s))
        .get("lang.parse")
        .copied()
        .unwrap_or(0);
    let parse_ns = trace::self_times(tr.spans(), |s| !in_check(s))
        .get("lang.parse")
        .copied()
        .unwrap_or(0);
    let per_check =
        |name: &str| selfs.get(name).copied().unwrap_or(0) as f64 / 1e3 / n.checks as f64;
    // The traced check time is measured on the `check` roots alone; the
    // reported layer self times plus core.self_us must add up to it.
    let (roots, root_ns) = trace::roots(tr.spans(), in_check);
    let check_us = root_ns as f64 / 1e3 / n.checks as f64;
    let layer_sum: f64 = LAYERS.iter().map(|l| per_check(l)).sum::<f64>() + per_check("check");
    let balanced = roots == n.checks
        && selfs.values().sum::<u64>() == root_ns
        && (layer_sum - check_us).abs() <= 1e-9 * check_us.max(1.0);
    let t = tally(&inputs, untraced.iter().chain(&traced));
    let mean = |v: u64, over: u64| {
        if over == 0 {
            0.0
        } else {
            v as f64 / over as f64
        }
    };
    let mut detail = vec![
        metric("lang.parse_us", mean(parse_ns, parse_spans) / 1e3, "us"),
        metric("core.harness_us", per_check("core.harness"), "us"),
        metric("core.transform_us", per_check("core.transform"), "us"),
        metric(
            "core.prune_pct",
            pct(n.pruned as f64, (n.pruned + n.emitted) as f64),
            "%",
        ),
        metric("exec.lower_us", per_check("exec.lower"), "us"),
        metric("exec.instrs", mean(n.instrs, n.lowered), "count"),
        metric("seq.explore_us", per_check("seq.explore"), "us"),
        metric("seq.steps", mean(n.steps, n.explored), "count"),
        metric(
            "seq.states_stored",
            mean(n.states_stored, n.explored),
            "count",
        ),
        metric("seq.store_bytes", n.store_bytes_peak as f64, "bytes"),
        metric("seq.frontier_peak", n.frontier_peak as f64, "count"),
        metric(
            "seq.bound_hits",
            pct(n.bound_hits as f64, n.explored as f64),
            "%",
        ),
        metric(
            "seq.wasted_steps",
            pct(n.wasted_steps as f64, n.steps as f64),
            "%",
        ),
        metric("core.trace_map_us", per_check("core.trace_map"), "us"),
        metric("conc.validate_us", per_check("conc.validate"), "us"),
        metric(
            "conc.validated_pct",
            pct(n.validated as f64, n.validations as f64),
            "%",
        ),
        metric("ltl.buchi_us", per_check("ltl.buchi"), "us"),
        metric("ltl.product_us", per_check("ltl.product"), "us"),
        metric(
            "ltl.product_states",
            mean(n.product_states, n.ltl_checks),
            "count",
        ),
        metric("core.self_us", per_check("check"), "us"),
        metric("trace.check_us", check_us, "us"),
        metric("trace.overhead_pct", overhead, "%"),
        metric("trace.checks", n.checks as f64, "count"),
        metric("trace.spans", check_spans as f64, "count"),
    ];
    let result = crate::per_layer(&detail);
    detail.push(metric(
        "trace.verdicts_match",
        f64::from(u8::from(same)),
        "bool",
    ));
    detail.push(metric(
        "trace.layers_balanced",
        f64::from(u8::from(balanced)),
        "bool",
    ));
    Outcome {
        correct: t.wrong == 0 && same && balanced,
        attempted: ((untraced.len() + traced.len()) * inputs.items.len()) as u64,
        failed: t.failed,
        detail,
        result,
    }
}

/// The layer spans inside a check, besides the `check` root itself.
const LAYERS: [&str; 8] = [
    "core.harness",
    "core.transform",
    "exec.lower",
    "seq.explore",
    "core.trace_map",
    "conc.validate",
    "ltl.buchi",
    "ltl.product",
];

#[cfg(test)]
mod tests {
    use super::*;

    /// A small slice of each workload, traced and untraced, must agree
    /// with ground truth and with itself.
    #[test]
    fn traced_pipeline_matches_the_checker() {
        for kind in [Kind::RaceSweep, Kind::PropSweep] {
            let inputs = build(kind, 1, &mut Tracer::off());
            let sup = supervisor(kind);
            let mut tr = Tracer::new();
            let mut n = Counters::default();
            for &(item, expect) in inputs.items.iter().take(40) {
                let plain = run_check(&inputs, item, &sup, &mut Tracer::off(), None);
                let traced = run_check(&inputs, item, &sup, &mut tr, Some(&mut n));
                assert_eq!(plain, traced, "{item:?}");
                let j = judge(item, expect, &plain);
                assert!(!j.wrong && !j.failed, "{item:?}: {plain:?}");
            }
        }
    }

    #[test]
    fn inputs_are_seeded() {
        let labels = |seed| {
            let i = build(Kind::RaceSweep, seed, &mut Tracer::off());
            let sources: Vec<String> = i.drivers.iter().map(|d| d.model.source.clone()).collect();
            (sources, format!("{:?}", i.items))
        };
        assert_eq!(labels(2), labels(2));
        assert_ne!(labels(2), labels(3));
    }
}
