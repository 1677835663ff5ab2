//! Legacy-vs-cow state-store equivalence over the full sample corpus.
//!
//! The copy-on-write store changes *how* states are remembered, never
//! *which* states the engines visit: for every sample and every engine,
//! both store modes must produce the same verdict, execute the same
//! number of steps, record the same number of states and paths, and
//! reconstruct the same raw error trace. Store *byte* gauges are the
//! one legitimate difference between modes, so engine statistics are
//! compared field by field rather than with one `assert_eq!`.
//!
//! The store is an engine-level switch no user surface sets, so the
//! engines are driven directly on the transformed, lowered sample —
//! the same program the pipeline hands them.

use kiss_core::checker::{Engine, Kiss};
use kiss_core::transform::{transform, TransformConfig};
use kiss_exec::Module;
use kiss_seq::{
    BfsChecker, Budget, EngineStats, ExplicitChecker, StoreKind, SummaryChecker, Verdict,
};

const ENGINES: [Engine; 3] = [Engine::Explicit, Engine::Bfs, Engine::Summary];

fn budget() -> Budget {
    Budget::steps_states(2_000_000, 60_000)
}

/// The sample as the pipeline checks its assertions: transformed at
/// `MAX = 0` with alias pruning, then lowered.
fn lowered(sample: &kiss_samples::Sample) -> Module {
    let cfg = TransformConfig { max_ts: 0, race: None, alias_prune: true };
    let info = transform(&sample.program(), &cfg).expect("samples transform");
    Module::lower(info.program)
}

fn run(module: &Module, engine: Engine, store: StoreKind) -> (Verdict, EngineStats) {
    match engine {
        Engine::Explicit => ExplicitChecker::new(module)
            .with_budget(budget())
            .with_store(store)
            .check_with_stats(),
        Engine::Bfs => BfsChecker::new(module)
            .with_budget(budget())
            .with_store(store)
            .check_with_stats(),
        Engine::Summary => SummaryChecker::new(module)
            .with_budget(budget())
            .with_store(store)
            .check_with_stats(),
    }
}

#[test]
fn every_engine_explores_identically_under_both_stores() {
    for sample in kiss_samples::all() {
        let module = lowered(&sample);
        for engine in ENGINES {
            let (lv, ls) = run(&module, engine, StoreKind::Legacy);
            let (cv, cs) = run(&module, engine, StoreKind::Cow);
            let label = format!("{} under {}", sample.name, engine.name());
            // Verdict equality covers the raw error trace step by step.
            assert_eq!(lv, cv, "verdicts or traces diverge for {label}");
            assert_eq!(ls.steps, cs.steps, "steps diverge for {label}");
            assert_eq!(ls.states, cs.states, "states diverge for {label}");
            assert_eq!(ls.paths, cs.paths, "paths diverge for {label}");
        }
    }
}

#[test]
fn the_pipeline_explores_with_the_cow_store() {
    // What users run — `Kiss` at its defaults — reports exactly the
    // cow store's statistics, byte gauges included.
    for sample in kiss_samples::all() {
        let module = lowered(&sample);
        for engine in ENGINES {
            let outcome = Kiss::new()
                .with_engine(engine)
                .with_validation(false)
                .with_budget(budget())
                .check_assertions(&sample.program());
            let (_, cow) = run(&module, engine, StoreKind::Cow);
            assert_eq!(
                outcome.stats().map(|s| s.seq),
                Some(cow),
                "{} under {}",
                sample.name,
                engine.name()
            );
        }
    }
}
