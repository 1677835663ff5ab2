//! The check pipeline, one public layer call at a time.
//!
//! The untraced run calls `Kiss::check_race`, `Kiss::check_assertions`
//! and `Kiss::check_ltl` as users do. The traced run makes the same
//! sequence of calls those methods make — transform, lower, explore,
//! trace map, replay validation; transform, Büchi, lower, product for
//! LTL — each inside its own span, and builds the same `KissOutcome`.
//! The benchmark checks that both runs return equal outcomes, so the
//! traced numbers describe the code path users take.

use kiss_core::checker::{
    CheckStats, Engine, ErrorReport, KissOutcome, LivenessReport, RaceReport,
};
use kiss_core::trace_map;
use kiss_core::transform::{transform, TransformConfig, Transformed};
use kiss_exec::Module;
use kiss_lang::hir::Origin;
use kiss_lang::Program;
use kiss_seq::{
    BfsChecker, Budget, CancelToken, ErrorTrace, ExplicitChecker, SummaryChecker, Verdict,
};

use crate::oracle;
use crate::trace::Tracer;

/// Work counters gathered alongside the spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Checks run (traced).
    pub checks: u64,
    /// Race checks the transform kept.
    pub emitted: u64,
    /// Race checks alias pruning removed.
    pub pruned: u64,
    /// Lowered modules and their total instruction count.
    pub lowered: u64,
    pub instrs: u64,
    /// Explorations (assertion/race engines and the LTL product).
    pub explored: u64,
    pub steps: u64,
    pub states_stored: u64,
    pub store_bytes_peak: u64,
    pub frontier_peak: u64,
    /// Explorations that ended on a budget bound, and their steps.
    pub bound_hits: u64,
    pub wasted_steps: u64,
    /// Replay validations attempted and confirmed.
    pub validations: u64,
    pub validated: u64,
    /// LTL product checks and their product states.
    pub ltl_checks: u64,
    pub product_states: u64,
}

impl Counters {
    fn explored(&mut self, stats: &kiss_seq::EngineStats, bound: bool) {
        self.explored += 1;
        self.steps += stats.steps;
        self.states_stored += stats.states_stored as u64;
        self.store_bytes_peak = self.store_bytes_peak.max(stats.store_bytes as u64);
        self.frontier_peak = self.frontier_peak.max(stats.frontier_peak as u64);
        if bound {
            self.bound_hits += 1;
            self.wasted_steps += stats.steps;
        }
    }
}

/// Maps an outcome to the oracle's verdict classes, plus whether a
/// reported assertion error replayed (`None` when not validated).
pub fn classify(outcome: &KissOutcome) -> (oracle::Verdict, Option<bool>) {
    match outcome {
        KissOutcome::RaceDetected(_) | KissOutcome::LivenessViolated(_) => {
            (oracle::Verdict::Error, None)
        }
        KissOutcome::AssertionViolation(r) => (oracle::Verdict::Error, r.validated),
        KissOutcome::NoErrorFound(_) => (oracle::Verdict::NoError, None),
        KissOutcome::Inconclusive { .. } => (oracle::Verdict::Inconclusive, None),
        KissOutcome::RuntimeError(_) | KissOutcome::TransformFailed(_) => {
            (oracle::Verdict::Failed, None)
        }
    }
}

/// What `Kiss::run` does for an assertion or race check, span by span.
#[allow(clippy::too_many_arguments)]
pub fn check(
    tr: &mut Tracer,
    n: &mut Counters,
    program: &Program,
    cfg: &TransformConfig,
    engine: Engine,
    budget: Budget,
    cancel: CancelToken,
) -> KissOutcome {
    let info = tr.time("core.transform", || transform(program, cfg));
    let mut info = match info {
        Ok(t) => t,
        Err(e) => return KissOutcome::TransformFailed(e),
    };
    n.emitted += info.checks_emitted as u64;
    n.pruned += info.checks_pruned as u64;
    let module = tr.time("exec.lower", || {
        Module::lower(std::mem::take(&mut info.program))
    });
    n.lowered += 1;
    n.instrs += module.instr_count() as u64;
    let (verdict, seq) = tr.time("seq.explore", || match engine {
        Engine::Explicit => ExplicitChecker::new(&module)
            .with_budget(budget)
            .with_cancel(cancel.clone())
            .check_with_stats(),
        Engine::Summary => SummaryChecker::new(&module)
            .with_budget(budget)
            .with_cancel(cancel.clone())
            .check_with_stats(),
        Engine::Bfs => BfsChecker::new(&module)
            .with_budget(budget)
            .with_cancel(cancel.clone())
            .with_jobs(1)
            .check_with_stats(),
    });
    n.explored(&seq, verdict.is_inconclusive());
    let stats = CheckStats {
        engine,
        seq,
        checks_emitted: info.checks_emitted,
        checks_pruned: info.checks_pruned,
    };
    match verdict {
        Verdict::Pass => KissOutcome::NoErrorFound(stats),
        Verdict::ResourceBound { reason, .. } => KissOutcome::Inconclusive { stats, reason },
        Verdict::RuntimeError(e, _) => KissOutcome::RuntimeError(e.to_string()),
        Verdict::Fail(trace) => report(tr, n, program, &module, &info, trace, stats),
    }
}

/// What `Kiss::report` does: map the trace back, tell a race from an
/// assertion, and replay an assertion's schedule on the concurrent
/// program.
fn report(
    tr: &mut Tracer,
    n: &mut Counters,
    program: &Program,
    module: &Module,
    info: &Transformed,
    trace: ErrorTrace,
    stats: CheckStats,
) -> KissOutcome {
    let mapped = tr.time("core.trace_map", || {
        trace_map::map_trace(module, info, &trace)
    });
    let failing_origin = trace.steps.last().map(|s| s.origin);
    let is_race = failing_origin == Some(Origin::Check)
        || trace
            .steps
            .last()
            .map(|s| Some(s.func) == info.check_r || Some(s.func) == info.check_w)
            .unwrap_or(false);
    if is_race {
        let sites = tr.time("core.trace_map", || {
            trace_map::race_sites(module, info, &trace)
        });
        if let Some((first, second)) = sites {
            return KissOutcome::RaceDetected(RaceReport {
                first,
                second,
                mapped,
                stats,
            });
        }
    }
    let validated = if !mapped.pattern.is_empty() {
        let verdict = tr.time("conc.validate", || {
            let orig = Module::lower(program.clone());
            kiss_conc::Explorer::new(&orig)
                .with_mode(kiss_conc::ScheduleMode::Pattern(mapped.pattern.clone()))
                .check()
        });
        let ok = verdict.is_fail() || matches!(verdict, kiss_conc::ConcVerdict::RuntimeError(..));
        n.validations += 1;
        n.validated += u64::from(ok);
        Some(ok)
    } else {
        None
    };
    KissOutcome::AssertionViolation(ErrorReport {
        mapped,
        validated,
        stats,
    })
}

/// What `Kiss::check_ltl` does, span by span.
#[allow(clippy::too_many_arguments)]
pub fn check_ltl(
    tr: &mut Tracer,
    n: &mut Counters,
    program: &Program,
    formula: &kiss_ltl::Formula,
    max_ts: usize,
    budget: Budget,
    cancel: CancelToken,
) -> KissOutcome {
    let cfg = TransformConfig {
        max_ts,
        race: None,
        alias_prune: true,
    };
    let info = tr.time("core.transform", || transform(program, &cfg));
    let mut info = match info {
        Ok(t) => t,
        Err(e) => return KissOutcome::TransformFailed(e),
    };
    n.emitted += info.checks_emitted as u64;
    n.pruned += info.checks_pruned as u64;
    let buchi = tr.time("ltl.buchi", || kiss_ltl::Buchi::for_negation(formula));
    let module = tr.time("exec.lower", || {
        Module::lower(std::mem::take(&mut info.program))
    });
    n.lowered += 1;
    n.instrs += module.instr_count() as u64;
    let atoms = match kiss_ltl::resolve_atoms(&module.program, &buchi.atoms) {
        Ok(a) => a,
        Err(name) => return KissOutcome::RuntimeError(format!("unknown proposition {name}")),
    };
    let (verdict, seq) = tr.time("ltl.product", || {
        kiss_ltl::ProductChecker::new(&module, &buchi, atoms)
            .with_budget(budget)
            .with_cancel(cancel.clone())
            .with_jobs(1)
            .check_with_stats()
    });
    let bound = matches!(verdict, kiss_ltl::LtlVerdict::ResourceBound { .. });
    n.explored(&seq, bound);
    n.ltl_checks += 1;
    n.product_states += seq.product_states as u64;
    let stats = CheckStats {
        engine: Engine::Bfs,
        seq,
        checks_emitted: info.checks_emitted,
        checks_pruned: info.checks_pruned,
    };
    match verdict {
        kiss_ltl::LtlVerdict::Holds => KissOutcome::NoErrorFound(stats),
        kiss_ltl::LtlVerdict::ResourceBound { reason, .. } => {
            KissOutcome::Inconclusive { stats, reason }
        }
        kiss_ltl::LtlVerdict::RuntimeError(e, _) => KissOutcome::RuntimeError(e.to_string()),
        kiss_ltl::LtlVerdict::Violated(lasso) => KissOutcome::LivenessViolated(LivenessReport {
            formula: formula.to_string(),
            stem: lasso.stem,
            cycle: lasso.cycle,
            stats,
        }),
    }
}
