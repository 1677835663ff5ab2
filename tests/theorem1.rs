//! Property-based test of the paper's Theorem 1 (Completeness):
//!
//! > Suppose the multiset `ts` is unbounded. If a balanced execution of
//! > a concurrent program `s` goes wrong by failing an assertion, then
//! > the sequential program `Check(s)` also goes wrong, and vice versa.
//!
//! We generate random small concurrent programs (no loops, bounded
//! forks, so `MAX = 2` behaves as an unbounded `ts`), and check both
//! directions against the ground-truth interleaving explorer of
//! `kiss-conc` restricted to balanced (stack-disciplined) schedules.
//!
//! The same generator, extended with calls through a function pointer,
//! also drives a cross-engine differential: the explicit, BFS and
//! summary engines must agree on what kind of verdict a program gets.

use proptest::prelude::*;

use kiss::conc::{Explorer, ScheduleMode};
use kiss::exec::Module;
use kiss::{Budget, Engine, Kiss, KissOutcome};

/// A tiny statement language rendered to KISS-C text.
#[derive(Debug, Clone)]
enum S {
    Set(u8, i8),
    AddFrom(u8, u8, i8),
    Assert(u8, i8, bool),
    If(u8, i8, Box<S>, Box<S>),
    Choice(Box<S>, Box<S>),
    Seq(Box<S>, Box<S>),
    Atomic(Box<S>),
    CallHelper,
    /// `fp = helper;` or `fp = unary;` (when `unary`), then a call
    /// through `fp` with one argument (when `arg`) or none. A mismatch,
    /// locally or because another thread re-pointed `fp` in between,
    /// is an arity runtime error.
    CallPtr { unary: bool, arg: bool },
    Skip,
}

impl S {
    fn render(&self, out: &mut String) {
        match self {
            S::Set(g, c) => out.push_str(&format!("g{} = {};\n", g % 3, c)),
            S::AddFrom(g, h, c) => {
                out.push_str(&format!("g{} = g{} + {};\n", g % 3, h % 3, c))
            }
            S::Assert(g, c, eq) => out.push_str(&format!(
                "assert g{} {} {};\n",
                g % 3,
                if *eq { "==" } else { "!=" },
                c
            )),
            S::If(g, c, t, e) => {
                out.push_str(&format!("if (g{} == {}) {{\n", g % 3, c));
                t.render(out);
                out.push_str("} else {\n");
                e.render(out);
                out.push_str("}\n");
            }
            S::Choice(a, b) => {
                out.push_str("choice {\n");
                a.render(out);
                out.push_str("[]\n");
                b.render(out);
                out.push_str("}\n");
            }
            S::Seq(a, b) => {
                a.render(out);
                b.render(out);
            }
            S::Atomic(inner) => {
                out.push_str("atomic {\n");
                inner.render_atomic(out);
                out.push_str("}\n");
            }
            S::CallHelper => out.push_str("helper();\n"),
            S::CallPtr { unary, arg } => {
                out.push_str(if *unary { "fp = unary;\n" } else { "fp = helper;\n" });
                out.push_str(if *arg { "fp(1);\n" } else { "fp();\n" });
            }
            S::Skip => out.push_str("skip;\n"),
        }
    }

    /// Renders inside an `atomic` block: calls and nested atomics are
    /// forbidden by well-formedness, so they degrade to plain updates;
    /// composites recurse in atomic mode.
    fn render_atomic(&self, out: &mut String) {
        match self {
            S::Atomic(inner) => inner.render_atomic(out),
            S::CallHelper => out.push_str("g0 = g0 + 1;\n"),
            S::CallPtr { unary, .. } => {
                out.push_str(if *unary { "fp = unary;\n" } else { "fp = helper;\n" });
            }
            S::Seq(a, b) => {
                a.render_atomic(out);
                b.render_atomic(out);
            }
            S::Choice(a, b) => {
                out.push_str("choice {\n");
                a.render_atomic(out);
                out.push_str("[]\n");
                b.render_atomic(out);
                out.push_str("}\n");
            }
            S::If(g, c, t, e) => {
                out.push_str(&format!("if (g{} == {}) {{\n", g % 3, c));
                t.render_atomic(out);
                out.push_str("} else {\n");
                e.render_atomic(out);
                out.push_str("}\n");
            }
            other => other.render(out),
        }
    }
}

fn stmt_strategy() -> impl Strategy<Value = S> {
    stmt_tree(Just(S::CallHelper))
}

/// [`stmt_strategy`] with calls through the function pointer `fp` as an
/// extra leaf.
fn stmt_strategy_with_fn_ptr() -> impl Strategy<Value = S> {
    stmt_tree(
        prop_oneof![
            Just(S::CallHelper),
            // `unary` is called with no argument one time in four.
            (any::<bool>(), 0u8..4).prop_map(|(unary, k)| S::CallPtr { unary, arg: unary && k != 0 }),
        ])
}

/// Random statements over the leaves plus `calls`.
fn stmt_tree(calls: impl Strategy<Value = S> + 'static) -> impl Strategy<Value = S> {
    let leaf = prop_oneof![
        (any::<u8>(), -2i8..3).prop_map(|(g, c)| S::Set(g, c)),
        (any::<u8>(), any::<u8>(), -1i8..2).prop_map(|(g, h, c)| S::AddFrom(g, h, c)),
        (any::<u8>(), -1i8..3, any::<bool>()).prop_map(|(g, c, e)| S::Assert(g, c, e)),
        Just(S::Skip),
    ];
    let leaf = prop_oneof![leaf, calls];
    leaf.prop_recursive(3, 12, 3, |inner| {
        prop_oneof![
            (any::<u8>(), 0i8..2, inner.clone(), inner.clone())
                .prop_map(|(g, c, t, e)| S::If(g, c, Box::new(t), Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| S::Choice(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| S::Seq(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| S::Atomic(Box::new(a))),
        ]
    })
}

/// What kind of verdict an engine reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Error,
    RuntimeError,
    Clean,
}

fn class(outcome: &KissOutcome) -> Class {
    match outcome {
        KissOutcome::NoErrorFound(_) => Class::Clean,
        KissOutcome::RuntimeError(_) => Class::RuntimeError,
        other if other.found_error() => Class::Error,
        other => panic!("unexpected outcome {other:?}"),
    }
}

/// Renders a whole program: two workers, a main that forks both and
/// runs its own statements interleaved with a synchronous call.
fn render_program(w1: &S, w2: &S, m1: &S, m2: &S) -> String {
    let mut src = String::from("int g0;\nint g1;\nint g2;\n");
    src.push_str("void helper() {\ng2 = g2 + 1;\nif (g2 == 3) { g1 = g0; }\n}\n");
    src.push_str("void w1() {\n");
    w1.render(&mut src);
    src.push_str("}\nvoid w2() {\n");
    w2.render(&mut src);
    src.push_str("}\nvoid main() {\nasync w1();\n");
    m1.render(&mut src);
    src.push_str("async w2();\n");
    m2.render(&mut src);
    src.push_str("}\n");
    src
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, max_shrink_iters: 200, ..ProptestConfig::default() })]

    /// Both directions of Theorem 1 on random programs.
    #[test]
    fn kiss_errs_iff_a_balanced_execution_errs(
        w1 in stmt_strategy(),
        w2 in stmt_strategy(),
        m1 in stmt_strategy(),
        m2 in stmt_strategy(),
    ) {
        let src = render_program(&w1, &w2, &m1, &m2);
        let program = kiss::parse(&src).expect("generated programs are well-formed");

        // Ground truth: balanced-schedule exploration of the original
        // concurrent program.
        let module = Module::lower(program.clone());
        let conc = Explorer::new(&module)
            .with_mode(ScheduleMode::Balanced)
            .with_budget(3_000_000, 300_000)
            .check();
        prop_assume!(!matches!(conc, kiss::conc::ConcVerdict::ResourceBound { .. }));
        let balanced_fails = conc.is_fail();

        // KISS with ts effectively unbounded (2 forks, MAX = 2).
        let outcome = Kiss::new()
            .with_max_ts(2)
            .with_validation(false)
            .check_assertions(&program);
        prop_assume!(!outcome.is_inconclusive());
        let kiss_fails = outcome.found_error();

        prop_assert_eq!(
            kiss_fails,
            balanced_fails,
            "Theorem 1 violated on:\n{}\nconc: {:?}\nkiss: {:?}",
            src, conc, outcome
        );
    }

    /// The weaker soundness direction against *free* exploration: a
    /// KISS-reported error is reproducible under some interleaving —
    /// "our technique never reports false errors".
    #[test]
    fn kiss_never_reports_false_errors(
        w1 in stmt_strategy(),
        m1 in stmt_strategy(),
        max_ts in 0usize..3,
    ) {
        let mut src = String::from("int g0;\nint g1;\nint g2;\n");
        src.push_str("void helper() {\ng2 = g2 + 1;\nif (g2 == 3) { g1 = g0; }\n}\n");
        src.push_str("void w1() {\n");
        w1.render(&mut src);
        src.push_str("}\nvoid main() {\nasync w1();\n");
        m1.render(&mut src);
        src.push_str("}\n");
        let program = kiss::parse(&src).expect("generated programs are well-formed");

        let outcome = Kiss::new()
            .with_max_ts(max_ts)
            .with_validation(false)
            .check_assertions(&program);
        if outcome.found_error() {
            let module = Module::lower(program);
            let conc = Explorer::new(&module)
                .with_budget(3_000_000, 300_000)
                .check();
            prop_assert!(
                conc.is_fail(),
                "KISS reported an error no interleaving exhibits:\n{}\nconc: {:?}",
                src, conc
            );
        }
    }

    /// Cross-engine differential: explicit, BFS and summary agree on
    /// the verdict class. Each engine stops at the first error it
    /// meets, in its own search order, so when a program can both fail
    /// an assertion and hit an arity error, engines may legitimately
    /// report different ones; only such programs may split between the
    /// two error classes. A clean verdict is exhaustive and must be
    /// unanimous.
    #[test]
    fn engines_agree_on_the_verdict_class(
        w1 in stmt_strategy_with_fn_ptr(),
        w2 in stmt_strategy_with_fn_ptr(),
        m1 in stmt_strategy_with_fn_ptr(),
        m2 in stmt_strategy_with_fn_ptr(),
        max_ts in 0usize..3,
    ) {
        let src = format!(
            "fn fp;\nvoid unary(int a) {{\ng1 = g1 + a;\n}}\n{}",
            render_program(&w1, &w2, &m1, &m2)
        );
        let program = kiss::parse(&src).expect("generated programs are well-formed");
        let mut classes = Vec::new();
        for engine in [Engine::Explicit, Engine::Bfs, Engine::Summary] {
            let outcome = Kiss::new()
                .with_engine(engine)
                .with_max_ts(max_ts)
                .with_validation(false)
                .with_budget(Budget::steps_states(2_000_000, 200_000))
                .check_assertions(&program);
            prop_assume!(!outcome.is_inconclusive());
            classes.push(class(&outcome));
        }
        let both_errors_possible = src.contains("assert") && src.contains("fp(");
        let agree = classes.iter().all(|&c| c == classes[0])
            || (both_errors_possible && !classes.contains(&Class::Clean));
        prop_assert!(agree, "engines disagree ({:?}) on:\n{}", classes, src);
    }
}
