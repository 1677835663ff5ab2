//! Breadth-first variant of the explicit-state checker: finds a
//! counterexample of **minimal branch depth**.
//!
//! The DFS engine ([`crate::explicit`]) returns the first error it
//! stumbles into, which can be needlessly long; model checkers like
//! SLAM put effort into short traces because humans read them. This
//! engine explores configurations in breadth-first order over
//! *decision points* (nondeterministic branches and loop entries) and
//! reconstructs the trace through a parent map. It is the breadth-first
//! frontier policy around [`crate::step`]: each frontier node runs
//! [`step`] until a [`Step::Branch`] and parks there.
//!
//! The BFS frontier stores whole configurations, so it trades memory
//! for trace quality; prefer the DFS engine for pure verdicts.
//!
//! State bookkeeping keys an open-addressing [`VisitedTable`] on
//! [`Config::fingerprint`]s (at a branch, the part the alternatives
//! share is hashed once and each alternative finishes in O(1)),
//! indexes the parent map by dense [`StateId`]s, and interns the
//! per-edge trace segments — the `schedule()` preambles repeat heavily,
//! so the historical owned `Vec<TraceStep>` clone per edge stored the
//! same steps once per edge instead of once per distinct segment. The historical `HashSet` +
//! owned-clone storage stays behind [`StoreKind::Legacy`] as the
//! reference the store-equivalence tests compare against.

use std::collections::{HashMap, HashSet, VecDeque};

use kiss_exec::{ExecError, Module, Value};
use kiss_obs::Obs;

use crate::budget::{BoundReason, Budget, Meter, BYTES_PER_FINGERPRINT};
use crate::cancel::CancelToken;
use crate::config::Config;
use crate::stats::EngineStats;
use crate::step::{step, Step};
use crate::store::{SegId, SegmentInterner, StateCapExceeded, StateId, StoreKind, VisitedTable};
use crate::verdict::{ErrorTrace, TraceStep, Verdict};

/// Parent map over decision points: child fingerprint ->
/// (parent fingerprint, steps taken between them).
type ParentMap = HashMap<(u64, u64), ((u64, u64), Vec<TraceStep>)>;

/// A frontier node's handle into the active store.
#[derive(Clone, Copy)]
enum NodeKey {
    /// Legacy store: the node's full fingerprint.
    Fp(u64, u64),
    /// Cow store: the node's dense id in the visited table.
    Id(StateId),
}

/// The per-run state storage, selected by [`StoreKind`].
enum BfsStore {
    Legacy {
        visited: HashSet<(u64, u64)>,
        parents: ParentMap,
    },
    Cow {
        visited: VisitedTable,
        /// Indexed by [`StateId`]; the root is its own parent.
        parents: Vec<(StateId, SegId)>,
        interner: SegmentInterner,
    },
}

impl BfsStore {
    fn len(&self) -> usize {
        match self {
            BfsStore::Legacy { visited, .. } => visited.len(),
            BfsStore::Cow { visited, .. } => visited.len(),
        }
    }

    /// Bytes held by visited + parent storage: exact for the cow
    /// store, the historical estimate plus owned-segment sizes for
    /// legacy.
    fn bytes(&self) -> usize {
        match self {
            BfsStore::Legacy { visited, parents } => {
                visited.len() * BYTES_PER_FINGERPRINT
                    + parents
                        .values()
                        .map(|(_, steps)| {
                            BYTES_PER_FINGERPRINT
                                + steps.capacity() * std::mem::size_of::<TraceStep>()
                        })
                        .sum::<usize>()
            }
            BfsStore::Cow { visited, parents, interner } => {
                visited.bytes()
                    + parents.capacity() * std::mem::size_of::<(StateId, SegId)>()
                    + interner.bytes()
            }
        }
    }
}

/// The breadth-first checker.
#[derive(Debug, Clone)]
pub struct BfsChecker<'a> {
    module: &'a Module,
    budget: Budget,
    cancel: CancelToken,
    obs: Obs,
    store: StoreKind,
    state_cap: Option<u32>,
}

impl<'a> BfsChecker<'a> {
    /// Creates a checker over a lowered module.
    pub fn new(module: &'a Module) -> Self {
        BfsChecker {
            module,
            budget: Budget::default(),
            cancel: CancelToken::default(),
            obs: Obs::off(),
            store: StoreKind::default(),
            state_cap: None,
        }
    }

    /// Selects the state-storage implementation. The legacy store is
    /// kept only as the reference the store-equivalence tests compare
    /// against.
    #[doc(hidden)]
    pub fn with_store(mut self, store: StoreKind) -> Self {
        self.store = store;
        self
    }

    /// Does nothing: exploration is always serial. Kept so callers
    /// written against the former worker-count knob, such as the
    /// `perfbench` pipeline's `.with_jobs(1)`, still compile.
    #[doc(hidden)]
    pub fn with_jobs(self, _jobs: usize) -> Self {
        self
    }

    /// Caps the visited table at `cap` entries, surfacing
    /// [`BoundReason::StateCap`] when the search outgrows it. Primarily
    /// a testing and hard-memory-ceiling knob; the default cap is the
    /// full id space.
    pub fn with_state_cap(mut self, cap: u32) -> Self {
        self.state_cap = Some(cap);
        self
    }

    /// Replaces the budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Installs a cancellation token polled from the search loop.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Attaches an observer; the search emits throttled progress and
    /// budget-violation events through it.
    pub fn with_observer(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Runs the check; a `Fail` verdict carries a minimal-depth trace.
    pub fn check(&self) -> Verdict {
        self.check_with_stats().0
    }

    /// Runs the check, also returning statistics.
    pub fn check_with_stats(&self) -> (Verdict, EngineStats) {
        // The frontier stores whole configurations; charge a coarse
        // per-state estimate well above a bare fingerprint.
        let mut meter = Meter::new(self.budget, self.cancel.clone())
            .with_state_size(256)
            .with_observer(self.obs.clone(), "bfs");
        let mut frontier_peak = 1usize;
        let root = Config::initial(self.module);
        let root_fp = root.fingerprint();
        let mut frontier: VecDeque<(Config, NodeKey)> = VecDeque::new();
        let mut store = match self.store {
            StoreKind::Legacy => {
                let mut visited = HashSet::new();
                visited.insert(root_fp);
                frontier.push_back((root, NodeKey::Fp(root_fp.0, root_fp.1)));
                BfsStore::Legacy { visited, parents: HashMap::new() }
            }
            StoreKind::Cow => {
                let mut visited = match self.state_cap {
                    Some(cap) => VisitedTable::new().with_capacity_limit(cap),
                    None => VisitedTable::new(),
                };
                let (root_id, _) =
                    visited.insert(root_fp).expect("an empty table is never at capacity");
                frontier.push_back((root, NodeKey::Id(root_id)));
                BfsStore::Cow {
                    visited,
                    // The root is its own parent — the reconstruction
                    // walk's termination sentinel.
                    parents: vec![(root_id, SegId::EMPTY)],
                    interner: SegmentInterner::new(),
                }
            }
        };

        let stats = |meter: &Meter, store: &BfsStore, frontier_peak: usize| EngineStats {
            steps: meter.usage.steps,
            states: store.len(),
            frontier_peak,
            states_stored: store.len(),
            store_bytes: store.bytes(),
            ..EngineStats::default()
        };

        // Segment steps and call arguments accumulate into scratch
        // buffers reused across segments instead of fresh allocations.
        let mut steps: Vec<TraceStep> = Vec::with_capacity(64);
        let mut args: Vec<Value> = Vec::new();
        while let Some((config, key)) = frontier.pop_front() {
            // Run the segment to the next decision point (or to an
            // end), collecting its steps.
            match self.run_segment(config, &mut meter, &mut steps, &mut args) {
                SegmentEnd::Budget(reason) => {
                    return (
                        Verdict::ResourceBound {
                            steps: meter.usage.steps,
                            states: meter.usage.states,
                            reason,
                        },
                        stats(&meter, &store, frontier_peak),
                    )
                }
                SegmentEnd::Fail => {
                    let trace = Self::reconstruct(&store, key, std::mem::take(&mut steps));
                    return (Verdict::Fail(trace), stats(&meter, &store, frontier_peak));
                }
                SegmentEnd::Error(e) => {
                    let trace = Self::reconstruct(&store, key, std::mem::take(&mut steps));
                    return (Verdict::RuntimeError(e, trace), stats(&meter, &store, frontier_peak));
                }
                SegmentEnd::Done => {}
                SegmentEnd::Branch(mut config, targets) => {
                    // The config is parked on its NondetJump; the
                    // alternatives differ only in the top pc, so the
                    // shared part is hashed once and each alternative
                    // is fingerprinted *before* it exists. Only
                    // genuinely new states pay for a clone.
                    let base = config.fingerprint_base();
                    let mut capped = false;
                    match &mut store {
                        BfsStore::Legacy { visited, parents } => {
                            let NodeKey::Fp(f0, f1) = key else {
                                unreachable!("legacy store hands out Fp keys")
                            };
                            for &t in targets {
                                let afp = base.with_pc(t);
                                if visited.insert(afp) {
                                    meter.note_states(visited.len());
                                    parents.insert(afp, ((f0, f1), steps.clone()));
                                    let mut c = config.clone();
                                    c.stack.last_mut().expect("nonempty").pc = t;
                                    frontier.push_back((c, NodeKey::Fp(afp.0, afp.1)));
                                }
                            }
                        }
                        BfsStore::Cow { visited, parents, interner } => {
                            let NodeKey::Id(parent_id) = key else {
                                unreachable!("cow store hands out Id keys")
                            };
                            // Intern the edge segment only when some
                            // alternative is new. The last new
                            // alternative inherits the parked config
                            // instead of cloning it.
                            let mut seg = None;
                            let mut pending = None;
                            for &t in targets {
                                let afp = base.with_pc(t);
                                let (id, new) = match visited.insert(afp) {
                                    Ok(entry) => entry,
                                    Err(StateCapExceeded) => {
                                        capped = true;
                                        break;
                                    }
                                };
                                if new {
                                    meter.note_states(visited.len());
                                    debug_assert_eq!(parents.len(), id.0 as usize);
                                    let seg =
                                        *seg.get_or_insert_with(|| interner.intern(&steps));
                                    parents.push((parent_id, seg));
                                    if let Some((pt, pid)) = pending.replace((t, id)) {
                                        let mut c = config.clone();
                                        c.stack.last_mut().expect("nonempty").pc = pt;
                                        frontier.push_back((c, NodeKey::Id(pid)));
                                    }
                                }
                            }
                            if let Some((pt, pid)) = pending {
                                config.stack.last_mut().expect("nonempty").pc = pt;
                                frontier.push_back((config, NodeKey::Id(pid)));
                            }
                        }
                    }
                    if capped {
                        // The id space is structural: retrying with a
                        // larger budget cannot widen it, so the typed
                        // reason marks this non-retryable.
                        meter.emit_violation(BoundReason::StateCap);
                        return (
                            Verdict::ResourceBound {
                                steps: meter.usage.steps,
                                states: meter.usage.states,
                                reason: BoundReason::StateCap,
                            },
                            stats(&meter, &store, frontier_peak),
                        );
                    }
                    frontier_peak = frontier_peak.max(frontier.len());
                }
            }
            if let Some(reason) = meter.over_budget() {
                return (
                    Verdict::ResourceBound {
                        steps: meter.usage.steps,
                        states: meter.usage.states,
                        reason,
                    },
                    stats(&meter, &store, frontier_peak),
                );
            }
        }
        (Verdict::Pass, stats(&meter, &store, frontier_peak))
    }

    /// Rebuilds the full trace for the node at `key` by walking parent
    /// edges back to the root — lazily, only when a violation is
    /// actually reported.
    fn reconstruct(store: &BfsStore, key: NodeKey, tail: Vec<TraceStep>) -> ErrorTrace {
        let steps = match (store, key) {
            (BfsStore::Legacy { parents, .. }, NodeKey::Fp(f0, f1)) => {
                let mut fp = (f0, f1);
                let mut segments = vec![tail];
                while let Some((parent, steps)) = parents.get(&fp) {
                    segments.push(steps.clone());
                    fp = *parent;
                }
                segments.reverse();
                segments.concat()
            }
            (BfsStore::Cow { parents, interner, .. }, NodeKey::Id(mut id)) => {
                let mut segments: Vec<SegId> = Vec::new();
                loop {
                    let (parent, seg) = parents[id.0 as usize];
                    if parent == id {
                        break;
                    }
                    segments.push(seg);
                    id = parent;
                }
                let total: usize =
                    segments.iter().map(|&s| interner.get(s).len()).sum();
                let mut steps = Vec::with_capacity(total + tail.len());
                for &seg in segments.iter().rev() {
                    steps.extend_from_slice(interner.get(seg));
                }
                steps.extend(tail);
                steps
            }
            _ => unreachable!("store and key kinds always match"),
        };
        ErrorTrace { steps, globals: Vec::new() }
    }

    /// Runs [`step`] until the next branch (returning the parked
    /// config), an error, an end, or the budget. The executed steps land
    /// in `steps` (cleared first); `steps` and the call-argument buffer
    /// `args` are reused across segments.
    fn run_segment(
        &self,
        mut config: Config,
        meter: &mut Meter,
        steps: &mut Vec<TraceStep>,
        args: &mut Vec<Value>,
    ) -> SegmentEnd<'a> {
        let module = self.module;
        steps.clear();
        while let Some(frame) = config.stack.last() {
            if let Err(reason) = meter.tick() {
                return SegmentEnd::Budget(reason);
            }
            let (func, pc) = (frame.func, frame.pc);
            let meta = module.body(func).meta[pc];
            steps.push(TraceStep { func, pc, origin: meta.origin, span: meta.span });
            match step(module, &mut config, args) {
                Step::Next => {}
                Step::Pruned => return SegmentEnd::Done,
                Step::Fail => return SegmentEnd::Fail,
                Step::Error(e) => return SegmentEnd::Error(e),
                // Hand the parked config back; the caller steers its pc
                // through the targets, cloning only new states.
                Step::Branch(targets) => return SegmentEnd::Branch(config, targets),
            }
        }
        SegmentEnd::Done
    }
}

/// How a segment ended. The segment's steps are in the caller's scratch
/// buffer, which is also the tail of any error trace.
enum SegmentEnd<'m> {
    /// Segment finished (termination or pruned assume).
    Done,
    /// Hit a nondeterministic branch: the configuration parked on its
    /// `NondetJump`, with the jump's targets.
    Branch(Config, &'m [usize]),
    /// A false assertion.
    Fail,
    /// A runtime error.
    Error(ExecError),
    /// Out of budget, with the axis that tripped.
    Budget(BoundReason),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explicit::ExplicitChecker;
    use kiss_exec::Instr;
    use kiss_lang::parse_and_lower;

    fn module(src: &str) -> Module {
        Module::lower(parse_and_lower(src).unwrap())
    }

    #[test]
    fn agrees_with_dfs_on_verdicts() {
        let corpus = [
            ("int g; void main() { g = 1; assert g == 1; }", false),
            ("int g; void main() { g = 1; assert g == 2; }", true),
            ("int g; void main() { choice { g = 1; [] g = 2; } assert g == 1; }", true),
            ("int g; void main() { iter { g = g + 1; assume g <= 3; } assert g <= 3; }", false),
            ("int g; void main() { iter { g = g + 1; assume g <= 3; } assert g < 3; }", true),
        ];
        for (src, fails) in corpus {
            let m = module(src);
            let bfs = BfsChecker::new(&m).check();
            let dfs = ExplicitChecker::new(&m).check();
            assert_eq!(bfs.is_fail(), fails, "bfs on {src}: {bfs:?}");
            assert_eq!(dfs.is_fail(), fails, "dfs on {src}: {dfs:?}");
        }
    }

    #[test]
    fn legacy_and_cow_stores_explore_identically() {
        let corpus = [
            "int g; void main() { g = 1; assert g == 1; }",
            "int g; void main() { g = 1; assert g == 2; }",
            "int g; void main() { choice { g = 1; [] g = 2; } assert g == 1; }",
            "int g; void main() { iter { g = g + 1; assume g <= 3; } assert g <= 3; }",
            "int g; void main() { iter { g = g + 1; assume g <= 3; } assert g < 3; }",
            "int g;
             int pick() { choice { return 1; [] return 2; } }
             void main() { int x; x = pick(); g = x; assert g == 1; }",
        ];
        for src in corpus {
            let m = module(src);
            let (lv, ls) =
                BfsChecker::new(&m).with_store(StoreKind::Legacy).check_with_stats();
            let (cv, cs) = BfsChecker::new(&m).with_store(StoreKind::Cow).check_with_stats();
            // Everything the search *observes* is identical; only the
            // store's byte accounting may differ between the two
            // representations.
            assert_eq!(lv, cv, "verdicts diverge on {src}");
            assert_eq!(ls.steps, cs.steps, "steps diverge on {src}");
            assert_eq!(ls.states, cs.states, "states diverge on {src}");
            assert_eq!(ls.paths, cs.paths, "paths diverge on {src}");
            assert_eq!(ls.frontier_peak, cs.frontier_peak, "frontier diverges on {src}");
            assert_eq!(ls.states_stored, cs.states_stored, "stored diverge on {src}");
        }
    }

    #[test]
    fn finds_a_trace_no_longer_than_dfs() {
        // The bug is reachable immediately via the second branch, but a
        // DFS taking first branches first wanders through the loop.
        let src = "
            int g;
            void main() {
                choice {
                    iter { g = g + 1; assume g <= 30; }
                    g = 99;
                []
                    g = 99;
                }
                assert g != 99;
            }
        ";
        let m = module(src);
        let Verdict::Fail(bfs_trace) = BfsChecker::new(&m).check() else { panic!("bfs") };
        let Verdict::Fail(dfs_trace) = ExplicitChecker::new(&m).check() else { panic!("dfs") };
        assert!(
            bfs_trace.steps.len() <= dfs_trace.steps.len(),
            "bfs {} vs dfs {}",
            bfs_trace.steps.len(),
            dfs_trace.steps.len()
        );
        // And the BFS trace is genuinely short: straight to the second
        // branch.
        assert!(bfs_trace.steps.len() < 12, "{}", bfs_trace.steps.len());
    }

    #[test]
    fn reconstructed_trace_ends_at_the_assert() {
        let src = "int g; void main() { choice { g = 1; [] g = 2; } assert g == 1; }";
        let m = module(src);
        let Verdict::Fail(trace) = BfsChecker::new(&m).check() else { panic!() };
        let last = trace.steps.last().unwrap();
        assert!(matches!(m.body(last.func).instrs[last.pc], Instr::Assert(_)));
        // The trace starts at pc 0 of main.
        assert_eq!(trace.steps.first().unwrap().pc, 0);
    }

    #[test]
    fn budget_trips() {
        let m = module("int g; void main() { iter { g = g + 1; } }");
        let v = BfsChecker::new(&m).with_budget(Budget::steps_states(5_000, 200)).check();
        assert!(v.is_inconclusive(), "{v:?}");
    }

    #[test]
    fn cancellation_is_observed() {
        let m = module("int g; void main() { iter { g = g + 1; } }");
        let cancel = CancelToken::new();
        cancel.cancel();
        let v = BfsChecker::new(&m).with_cancel(cancel).check();
        let Verdict::ResourceBound { reason, .. } = v else { panic!("{v:?}") };
        assert_eq!(reason, BoundReason::Cancelled);
    }

    #[test]
    fn expired_deadline_reports_deadline() {
        let m = module("int g; void main() { iter { g = g + 1; } }");
        let budget = Budget::generous().with_deadline(std::time::Duration::ZERO);
        let v = BfsChecker::new(&m).with_budget(budget).check();
        let Verdict::ResourceBound { reason, .. } = v else { panic!("{v:?}") };
        assert_eq!(reason, BoundReason::Deadline);
    }

    #[test]
    fn serial_state_cap_reports_typed_inconclusive() {
        let m = module("int g; void main() { choice { g = 1; [] g = 2; } assert g == 1; }");
        let v = BfsChecker::new(&m).with_state_cap(1).check();
        let Verdict::ResourceBound { reason, states, .. } = v else { panic!("{v:?}") };
        assert_eq!(reason, BoundReason::StateCap);
        assert!(!reason.retryable(), "a structural cap must not trigger retries");
        assert!(states <= 1, "nothing past the cap is stored");
    }

    #[test]
    fn works_through_calls() {
        let src = "
            int g;
            int pick() { choice { return 1; [] return 2; } }
            void main() { int x; x = pick(); g = x; assert g == 1; }
        ";
        let m = module(src);
        assert!(BfsChecker::new(&m).check().is_fail());
    }
}
