//! Seeded input generators. The same seed gives byte-identical inputs;
//! the program under test only ever sees what these functions build.

use kiss_drivers::{DriverSpec, FieldClass};

use crate::oracle::{self, Expect};
use crate::rng::Rng;

/// Stream tags, one per input family.
const SYNTH: u64 = 1;
const PROP: u64 = 2;
const SERVE_PLAN: u64 = 3;

/// Synthetic drivers added to the paper's 18 in `race_sweep`.
pub const SYNTH_DRIVERS: usize = 6;

/// Field counts and code sizes (KLOC) of the synthetic drivers. The
/// seed deals them out, so it changes which driver is which size but
/// not the total size of the sweep's inputs.
const SYNTH_FIELDS: [usize; SYNTH_DRIVERS] = [16, 19, 22, 25, 28, 31];
const SYNTH_KLOC: [f64; SYNTH_DRIVERS] = [0.5, 2.3, 4.1, 5.9, 7.7, 9.5];

/// Seeded `DriverSpec` rows: field count, class mix and code size vary
/// per driver. The Heavy (bound-limited) share of the synthetic fields
/// is drawn from 10–14%, around the paper's 13%, so the seed moves the
/// bound-limited tail without swamping the rest of the sweep.
pub fn synthetic_specs(seed: u64) -> Vec<DriverSpec> {
    let mut rng = Rng::stream(seed, SYNTH);
    let (mut sizes, mut klocs) = (SYNTH_FIELDS, SYNTH_KLOC);
    rng.shuffle(&mut sizes);
    rng.shuffle(&mut klocs);
    let mut out = Vec::with_capacity(SYNTH_DRIVERS);
    for (i, (fields, kloc)) in sizes.into_iter().zip(klocs).enumerate() {
        let heavy = (fields as f64 * (0.10 + 0.04 * rng.unit())).round() as usize;
        let spurious = rng.range(0, fields / 8);
        let real = rng.range(0, 2);
        let benign = rng.range(0, 1);
        let clean = fields - heavy - spurious - real - benign;
        let name: &'static str =
            Box::leak(format!("synth{i}_{:04x}", rng.below(1 << 16)).into_boxed_str());
        out.push(DriverSpec {
            name,
            kloc,
            fields,
            races_naive: spurious + real + benign,
            no_races: clean,
            races_refined: real + benign,
            benign,
            ioctl_spurious: rng.below(4) == 0,
        });
    }
    out
}

/// Which family a `prop_sweep` program belongs to, with its ground
/// truth parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// A `kiss-samples` program.
    Sample { buggy: bool, balanced_bug: bool },
    /// A Figure 2 Bluetooth model (`buggy` or a correct variant).
    Bluetooth { buggy: bool },
    /// The handshake family of depth `d` (`max_ablation`).
    Handshake { depth: usize },
    /// The lock-protected counter with `n` threads (`scalability`).
    Counter,
    /// The spinlock family under `G (locked -> F !locked)`.
    Spinlock { stuck: bool },
}

/// The check a `prop_sweep` draw runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropCheck {
    /// User assertions at `MAX` with an engine.
    Assert {
        max_ts: usize,
        engine: kiss_core::checker::Engine,
    },
    /// The spinlock liveness formula at `MAX`.
    Ltl { max_ts: usize },
}

/// One `prop_sweep` program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropProgram {
    /// Short label, e.g. `handshake-d3`.
    pub label: String,
    /// KISS-C source.
    pub source: String,
    /// Ground-truth family.
    pub family: Family,
}

/// One `prop_sweep` draw: a program (index into the program list) and
/// a check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PropDraw {
    /// Index into [`PropInputs::programs`].
    pub program: usize,
    /// What to check.
    pub check: PropCheck,
}

impl PropDraw {
    /// The oracle's expectation for this draw.
    pub fn expect(&self, family: Family) -> Expect {
        let max_ts = match self.check {
            PropCheck::Assert { max_ts, .. } | PropCheck::Ltl { max_ts } => max_ts,
        };
        match family {
            Family::Sample {
                buggy,
                balanced_bug,
            } => oracle::sample(buggy, balanced_bug, max_ts),
            Family::Bluetooth { buggy } => oracle::bluetooth(buggy, max_ts),
            Family::Handshake { depth } => oracle::handshake(depth, max_ts),
            Family::Counter => Expect::CLEAN,
            Family::Spinlock { stuck } => oracle::spinlock(stuck),
        }
    }
}

/// The LTL formula of the spinlock family.
pub const SPIN_FORMULA: &str = "G (locked -> F !locked)";

/// Seeded `prop_sweep` inputs: the programs and one pass of draws.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropInputs {
    pub programs: Vec<PropProgram>,
    /// One pass: every assertion program at `MAX` 0..3 under every
    /// engine, plus every spinlock variant, in a seeded order that
    /// spreads each family evenly over the pass.
    pub draws: Vec<PropDraw>,
}

/// Spinlock variants per pass (half correct, half stuck).
const SPINLOCKS: usize = 8;

/// Builds the `prop_sweep` inputs for `seed`.
pub fn prop_inputs(seed: u64) -> PropInputs {
    use kiss_core::checker::Engine;
    let mut rng = Rng::stream(seed, PROP);
    let mut programs = Vec::new();
    for s in kiss_samples::all() {
        programs.push(PropProgram {
            label: format!("sample-{}", s.name),
            source: s.source.to_string(),
            family: Family::Sample {
                buggy: s.buggy,
                balanced_bug: s.balanced_bug,
            },
        });
    }
    for (label, source, buggy) in [
        (
            "bluetooth-buggy",
            kiss_drivers::bluetooth::BLUETOOTH_BUGGY,
            true,
        ),
        (
            "bluetooth-fixed",
            kiss_drivers::bluetooth::BLUETOOTH_FIXED,
            false,
        ),
        (
            "bluetooth-fakemodem",
            kiss_drivers::bluetooth::FAKEMODEM_REFCOUNT,
            false,
        ),
    ] {
        programs.push(PropProgram {
            label: label.to_string(),
            source: source.to_string(),
            family: Family::Bluetooth { buggy },
        });
    }
    for depth in 1..=5 {
        programs.push(PropProgram {
            label: format!("handshake-d{depth}"),
            source: handshake(depth),
            family: Family::Handshake { depth },
        });
    }
    for threads in 2..=7 {
        programs.push(PropProgram {
            label: format!("counter-n{threads}"),
            source: counter(threads),
            family: Family::Counter,
        });
    }
    let asserting = programs.len();
    for k in 0..SPINLOCKS {
        let stuck = k % 2 == 1;
        programs.push(PropProgram {
            label: format!("spinlock-{}{k}", if stuck { "stuck" } else { "ok" }),
            source: spinlock(&mut rng, stuck),
            family: Family::Spinlock { stuck },
        });
    }
    // One group per program, so every window of the pass sees the
    // same mix of families, sizes, MAX values and engines.
    let mut groups: Vec<Vec<PropDraw>> = Vec::new();
    for program in 0..asserting {
        let mut group = Vec::new();
        for max_ts in 0..=3 {
            for engine in [Engine::Explicit, Engine::Bfs, Engine::Summary] {
                group.push(PropDraw {
                    program,
                    check: PropCheck::Assert { max_ts, engine },
                });
            }
        }
        rng.shuffle(&mut group);
        groups.push(group);
    }
    groups.push(
        (asserting..programs.len())
            .map(|program| PropDraw {
                program,
                check: PropCheck::Ltl { max_ts: 0 },
            })
            .collect(),
    );
    rng.shuffle(&mut groups);
    PropInputs {
        programs,
        draws: interleave(groups),
    }
}

/// A bug that needs `depth` nested suspensions (the `max_ablation`
/// family): found iff `MAX >= depth - 1`.
pub fn handshake(depth: usize) -> String {
    let mut src = String::from("int phase;\n");
    for d in 0..depth {
        src.push_str(&format!("void stager{d}() {{ phase = phase + 1; }}\n"));
    }
    let spawns: String = (0..depth)
        .map(|d| format!("    async stager{d}();\n"))
        .collect();
    let mut observes = String::new();
    for d in 1..=depth {
        observes.push_str(&format!(
            "    t = phase;\n    if (t == {d}) {{ c = c + 1; }}\n"
        ));
    }
    src.push_str(&format!(
        "void worker() {{\n    int t;\n    int c;\n    c = 0;\n{observes}    assert c < {depth};\n}}\n"
    ));
    src.push_str(&format!("void main() {{\n{spawns}    worker();\n}}\n"));
    src
}

/// `n` forked workers each do a locked increment (the `scalability`
/// family); no assertion can fail.
pub fn counter(n: usize) -> String {
    let spawns: String = (0..n)
        .map(|_| "    async worker();\n".to_string())
        .collect();
    format!(
        "int g_lock;\nint counter;\n\
         void acquire() {{ atomic {{ assume g_lock == 0; g_lock = 1; }} }}\n\
         void release() {{ atomic {{ g_lock = 0; }} }}\n\
         void worker() {{\n    int t;\n    acquire();\n    t = counter;\n    counter = t + 1;\n    release();\n}}\n\
         void main() {{\n{spawns}    assert counter >= 0;\n}}"
    )
}

/// A spinlock: main takes the lock, forks seeded noise threads and a
/// worker, and spins until the lock is free. The correct worker
/// releases the lock after seeded busy work; the stuck one never does.
fn spinlock(rng: &mut Rng, stuck: bool) -> String {
    let noise = rng.range(0, 3);
    let busy = rng.range(0, 3);
    let mut src = String::from("int locked;\nint work;\n");
    for i in 0..noise {
        src.push_str(&format!("int n{i};\n"));
    }
    for i in 0..noise {
        let bumps: String = (0..rng.range(1, 3))
            .map(|_| format!(" n{i} = n{i} + 1;"))
            .collect();
        src.push_str(&format!("void noise{i}() {{{bumps} }}\n"));
    }
    let busy_work: String = (0..busy).map(|_| " work = work + 1;").collect();
    let release = if stuck { " skip;" } else { " locked = 0;" };
    src.push_str(&format!("void worker() {{{busy_work}{release} }}\n"));
    let forks: String = (0..noise).map(|i| format!(" async noise{i}();")).collect();
    src.push_str(&format!(
        "void main() {{ locked = 1;{forks} async worker(); while (locked == 1) {{ skip; }} }}\n"
    ));
    src
}

/// Merges groups so each is spread evenly over the result: at every
/// step, take from the group that is furthest behind its share.
pub fn interleave<T>(groups: Vec<Vec<T>>) -> Vec<T> {
    let total: usize = groups.iter().map(Vec::len).sum();
    let sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
    let mut iters: Vec<_> = groups.into_iter().map(Vec::into_iter).collect();
    let mut taken = vec![0usize; iters.len()];
    let mut out = Vec::with_capacity(total);
    for _ in 0..total {
        let next = (0..iters.len())
            .filter(|&g| taken[g] < sizes[g])
            .min_by(|&a, &b| {
                let pos = |g: usize| (taken[g] as f64 + 0.5) / sizes[g] as f64;
                pos(a).total_cmp(&pos(b))
            })
            .expect("items remain");
        out.push(iters[next].next().expect("group not exhausted"));
        taken[next] += 1;
    }
    out
}

/// One corpus entry the daemon can check, with its ground truth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeEntry {
    /// `driver/field`.
    pub label: String,
    /// The harnessed program, pretty-printed KISS-C.
    pub source: String,
    /// `Ext.field`.
    pub race_spec: String,
    /// Expected verdict under the naive harness.
    pub expect: Expect,
}

/// The naive-harness race checks of the paper corpus, minus the Heavy
/// fields (those only measure the budget, and a served check should
/// finish).
pub fn serve_corpus() -> Vec<ServeEntry> {
    let classes: std::collections::HashMap<String, FieldClass> = kiss_drivers::generate_corpus()
        .into_iter()
        .flat_map(|m| {
            let name = m.name.clone();
            m.fields
                .into_iter()
                .enumerate()
                .map(move |(i, f)| (format!("{name}/{i}"), f.class))
        })
        .collect();
    kiss_drivers::corpus_batch(false)
        .into_iter()
        .filter_map(|e| {
            let class = classes[&e.label];
            (class != FieldClass::Heavy).then(|| ServeEntry {
                expect: oracle::field(class, false),
                label: e.label,
                source: e.source,
                race_spec: e.race_spec,
            })
        })
        .collect()
}

/// Share of `serve_mix` requests that are novel (cache misses).
pub const NOVEL_SHARE: f64 = 0.10;
/// Size of the prefilled hot set.
pub const HOT_SET: usize = 48;

/// The `serve_mix` request stream: about 90% repeats of a seeded hot
/// set, about 10% novel checks — unused corpus entries first, then
/// seeded α-renamings of a local variable, which keep the verdict.
#[derive(Debug, Clone)]
pub struct MixStream {
    entries: Vec<ServeEntry>,
    hot: usize,
    next_novel: usize,
    renamings: u64,
    rng: Rng,
}

impl MixStream {
    /// The stream for `seed` over `corpus`.
    pub fn new(seed: u64, mut corpus: Vec<ServeEntry>) -> MixStream {
        let mut rng = Rng::stream(seed, SERVE_PLAN);
        rng.shuffle(&mut corpus);
        let hot = HOT_SET.min(corpus.len() / 2);
        MixStream {
            entries: corpus,
            hot,
            next_novel: hot,
            renamings: 0,
            rng,
        }
    }

    /// The prefilled hot set.
    pub fn hot(&self) -> &[ServeEntry] {
        &self.entries[..self.hot]
    }

    /// The next request of the mix, and whether it is novel.
    pub fn next_entry(&mut self) -> (ServeEntry, bool) {
        if self.rng.unit() >= NOVEL_SHARE {
            let i = self.rng.below(self.hot);
            return (self.entries[i].clone(), false);
        }
        if self.next_novel < self.entries.len() {
            self.next_novel += 1;
            return (self.entries[self.next_novel - 1].clone(), true);
        }
        let base = &self.entries[self.rng.below(self.entries.len())];
        self.renamings += 1;
        let fresh = format!("t_{}_{:x}", self.renamings, self.rng.below(1 << 20));
        let mut renamed = base.clone();
        renamed.source = rename_ident(&base.source, "t", &fresh);
        renamed.label = format!("{}~{fresh}", base.label);
        (renamed, true)
    }
}

/// Replaces every whole-identifier occurrence of `from` by `to`.
pub fn rename_ident(source: &str, from: &str, to: &str) -> String {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut out = String::with_capacity(source.len() + 64);
    let mut word = String::new();
    for c in source.chars().chain(std::iter::once('\0')) {
        if is_ident(c) {
            word.push(c);
            continue;
        }
        out.push_str(if word == from { to } else { &word });
        word.clear();
        if c != '\0' {
            out.push(c);
        }
    }
    out
}

/// Seeded open-loop arrival offsets (seconds from the phase start): a
/// Poisson process at `rate` per second over `seconds`.
pub fn arrivals(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut rng = Rng::stream(seed, SERVE_PLAN + 100);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_specs_are_seeded_and_consistent() {
        assert_eq!(synthetic_specs(5), synthetic_specs(5));
        assert_ne!(synthetic_specs(5), synthetic_specs(6));
        for spec in synthetic_specs(11) {
            assert_eq!(
                spec.fields,
                spec.races_naive + spec.no_races + spec.inconclusive()
            );
            assert!(spec.benign <= spec.races_refined && spec.races_refined <= spec.races_naive);
            let heavy = spec.inconclusive() as f64 / spec.fields as f64;
            assert!((0.05..0.2).contains(&heavy), "{spec:?}");
        }
    }

    #[test]
    fn synthetic_drivers_generate_identical_sources() {
        let a: Vec<String> = synthetic_specs(3)
            .iter()
            .map(|s| kiss_drivers::generate_driver(s).source)
            .collect();
        let b: Vec<String> = synthetic_specs(3)
            .iter()
            .map(|s| kiss_drivers::generate_driver(s).source)
            .collect();
        assert_eq!(a, b);
        for src in &a {
            kiss_lang::parse_and_lower(src).expect("generated driver parses");
        }
    }

    #[test]
    fn prop_inputs_are_seeded() {
        assert_eq!(prop_inputs(9), prop_inputs(9));
        assert_ne!(prop_inputs(9).draws, prop_inputs(10).draws);
        for p in &prop_inputs(9).programs {
            kiss_lang::parse_and_lower(&p.source)
                .unwrap_or_else(|e| panic!("{} does not parse: {e}", p.label));
        }
    }

    #[test]
    fn interleave_spreads_groups_evenly() {
        let out = interleave(vec![vec!['a'; 2], vec!['b'; 6]]);
        assert_eq!(out.len(), 8);
        let first_half = out[..4].iter().filter(|&&c| c == 'a').count();
        assert_eq!(first_half, 1, "{out:?}");
    }

    #[test]
    fn serve_stream_is_seeded() {
        let corpus = serve_corpus();
        let take = |seed| {
            let mut s = MixStream::new(seed, corpus.clone());
            (0..2000).map(|_| s.next_entry()).collect::<Vec<_>>()
        };
        assert_eq!(take(4), take(4));
        assert_ne!(take(4), take(5));
        assert_eq!(arrivals(4, 200.0, 2.0), arrivals(4, 200.0, 2.0));
        let novel = take(4).iter().filter(|(_, n)| *n).count();
        assert!((100..300).contains(&novel), "about 10% novel: {novel}");
    }

    #[test]
    fn renamed_entries_keep_their_race_target() {
        let corpus = serve_corpus();
        let mut s = MixStream::new(1, corpus.clone());
        s.next_novel = corpus.len();
        let (entry, novel) = loop {
            let (e, n) = s.next_entry();
            if n {
                break (e, n);
            }
        };
        assert!(novel);
        assert!(
            corpus.iter().all(|c| c.source != entry.source),
            "renaming changes the text"
        );
        let program = kiss_lang::parse_and_lower(&entry.source).expect("renamed source parses");
        assert!(kiss_core::RaceTarget::resolve(&program, &entry.race_spec).is_some());
    }

    #[test]
    fn rename_is_whole_word() {
        assert_eq!(
            rename_ident("int t; t = tt + t1;", "t", "u"),
            "int u; u = tt + t1;"
        );
    }
}
