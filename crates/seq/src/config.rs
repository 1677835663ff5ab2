//! The sequential execution configuration: shared memory plus a single
//! call stack.

use std::hash::{Hash, Hasher};

use kiss_exec::{Addr, Env, ExecError, Memory, Module, TwoLaneHasher, Value};
use kiss_lang::hir::{FuncId, LocalId, Place, VarRef};

/// One stack frame.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Frame {
    /// The executing function.
    pub func: FuncId,
    /// Program counter into the function's lowered body.
    pub pc: usize,
    /// Local variable values (parameters first).
    pub locals: Vec<Value>,
    /// Where the caller wants the return value stored (resolved in the
    /// caller's frame after this one pops).
    pub dest: Option<Place>,
}

impl Frame {
    /// A frame entering `func` with the given arguments; remaining
    /// locals are defaulted per their declared types.
    pub fn enter(module: &Module, func: FuncId, args: &[Value], dest: Option<Place>) -> Frame {
        let def = module.program.func(func);
        let mut locals: Vec<Value> = Vec::with_capacity(def.locals.len());
        for (i, l) in def.locals.iter().enumerate() {
            if i < args.len() {
                locals.push(args[i]);
            } else {
                locals.push(Value::default_for(l.ty.as_ref()));
            }
        }
        Frame { func, pc: 0, locals, dest }
    }
}

/// The whole sequential state: memory plus the call stack. Not `Hash`:
/// engines identify states by [`Config::fingerprint`] alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Globals and heap.
    pub mem: Memory,
    /// Call stack; the last frame is executing.
    pub stack: Vec<Frame>,
}

impl Config {
    /// The initial configuration: initialized globals, empty heap, one
    /// frame entering `main`.
    pub fn initial(module: &Module) -> Config {
        Config {
            mem: Memory::initial(&module.program),
            stack: vec![Frame::enter(module, module.program.main, &[], None)],
        }
    }

    /// The 128-bit visited-state fingerprint every `Config` engine
    /// keys its store on: `fingerprint_base` finished with the top
    /// frame's pc, or with a fixed sentinel pc once the stack is empty
    /// (the LTL product fingerprints terminated configurations, which
    /// stutter).
    pub fn fingerprint(&self) -> (u64, u64) {
        let pc = self.stack.last().map_or(EMPTY_STACK_PC, |f| f.pc);
        self.fingerprint_base().with_pc(pc)
    }

    /// Everything a fingerprint covers except the top frame's pc.
    ///
    /// Memory goes in through the per-chunk digests [`CowVec`] caches
    /// until the chunk is next written, so a fingerprint costs one
    /// digest load per clean chunk plus a rehash of the chunks written
    /// since the last one — not a walk over all of memory. The stack
    /// (locals are small) is hashed element-wise.
    ///
    /// On a nondeterministic branch every alternative shares memory,
    /// stack and locals with its siblings and differs only in the top
    /// pc, so the BFS engine computes the base once and finishes each
    /// alternative with [`FpBase::with_pc`].
    ///
    /// [`CowVec`]: kiss_exec::CowVec
    pub(crate) fn fingerprint_base(&self) -> FpBase {
        let mut h = TwoLaneHasher::new();
        self.mem.globals.hash_cached(&mut h);
        self.mem.heap.hash_cached(&mut h);
        h.write_usize(self.stack.len());
        let top = self.stack.len().wrapping_sub(1);
        for (i, frame) in self.stack.iter().enumerate() {
            frame.func.hash(&mut h);
            if i != top {
                frame.pc.hash(&mut h);
            }
            frame.locals.hash(&mut h);
            frame.dest.hash(&mut h);
        }
        FpBase { h }
    }
}

/// The pc [`Config::fingerprint`] finishes with when the stack is
/// empty. The stack depth is hashed too, so it cannot be confused with
/// a frame's real pc.
const EMPTY_STACK_PC: usize = usize::MAX;

/// A partially computed [`Config`] fingerprint: everything but the top
/// frame's pc is already mixed in. `Copy`, so deriving a sibling's
/// fingerprint copies two lane states and finishes.
#[derive(Clone, Copy)]
pub(crate) struct FpBase {
    h: TwoLaneHasher,
}

impl FpBase {
    /// Completes the fingerprint for the alternative whose top frame
    /// sits at `pc`.
    #[inline]
    pub fn with_pc(&self, pc: usize) -> (u64, u64) {
        let mut h = self.h;
        h.write_usize(pc);
        h.finish_pair()
    }
}

/// A 128-bit single-pass fingerprint of any hashable value, with the
/// two-lane hasher [`Config::fingerprint`] uses. The summary engine
/// keys its per-body visited tables on interprocedural `State`s rather
/// than `Config`s, and the serve cache keys requests with it.
pub fn fingerprint_of<T: Hash>(value: &T) -> (u64, u64) {
    let mut h = TwoLaneHasher::new();
    value.hash(&mut h);
    h.finish_pair()
}

/// [`Env`] implementation: a module plus a mutable configuration.
pub struct SeqEnv<'a> {
    /// The lowered program.
    pub module: &'a Module,
    /// The configuration being stepped.
    pub config: &'a mut Config,
}

impl SeqEnv<'_> {
    fn top(&self) -> &Frame {
        self.config.stack.last().expect("empty stack")
    }

    fn top_mut(&mut self) -> &mut Frame {
        self.config.stack.last_mut().expect("empty stack")
    }
}

impl Env for SeqEnv<'_> {
    fn read_var(&self, v: VarRef) -> Value {
        match v {
            VarRef::Global(g) => self.config.mem.globals[g.0 as usize],
            VarRef::Local(LocalId(l)) => self.top().locals[l as usize],
        }
    }

    fn write_var(&mut self, v: VarRef, val: Value) {
        match v {
            VarRef::Global(g) => self.config.mem.globals[g.0 as usize] = val,
            VarRef::Local(LocalId(l)) => self.top_mut().locals[l as usize] = val,
        }
    }

    fn read_addr(&self, a: Addr) -> Result<Value, ExecError> {
        match a {
            Addr::Global(g) => Ok(self.config.mem.globals[g.0 as usize]),
            Addr::Heap { obj, field } => self
                .config
                .mem
                .heap
                .get(obj as usize)
                .and_then(|o| o.fields.get(field as usize))
                .copied()
                .ok_or(ExecError::BadField),
            Addr::Local { tid: _, frame, local } => self
                .config
                .stack
                .get(frame as usize)
                .and_then(|f| f.locals.get(local as usize))
                .copied()
                .ok_or(ExecError::DanglingLocal),
        }
    }

    fn write_addr(&mut self, a: Addr, val: Value) -> Result<(), ExecError> {
        match a {
            Addr::Global(g) => {
                self.config.mem.globals[g.0 as usize] = val;
                Ok(())
            }
            Addr::Heap { obj, field } => {
                let cell = self
                    .config
                    .mem
                    .heap
                    .get_mut(obj as usize)
                    .and_then(|o| o.fields.get_mut(field as usize))
                    .ok_or(ExecError::BadField)?;
                *cell = val;
                Ok(())
            }
            Addr::Local { tid: _, frame, local } => {
                let cell = self
                    .config
                    .stack
                    .get_mut(frame as usize)
                    .and_then(|f| f.locals.get_mut(local as usize))
                    .ok_or(ExecError::DanglingLocal)?;
                *cell = val;
                Ok(())
            }
        }
    }

    fn addr_of_var(&self, v: VarRef) -> Addr {
        match v {
            VarRef::Global(g) => Addr::Global(g),
            VarRef::Local(LocalId(l)) => Addr::Local {
                tid: 0,
                frame: (self.config.stack.len() - 1) as u32,
                local: l,
            },
        }
    }

    fn malloc(&mut self, sid: kiss_lang::hir::StructId) -> u32 {
        self.config.mem.malloc(&self.module.program, sid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiss_lang::parse_and_lower;
    use proptest::prelude::*;

    fn module(src: &str) -> Module {
        Module::lower(parse_and_lower(src).unwrap())
    }

    #[test]
    fn initial_config_enters_main() {
        let m = module("int g = 7; void main() { int x; bool b; skip; }");
        let c = Config::initial(&m);
        assert_eq!(c.stack.len(), 1);
        assert_eq!(c.stack[0].func, m.program.main);
        assert_eq!(c.stack[0].locals, vec![Value::Int(0), Value::Bool(false)]);
        assert_eq!(c.mem.globals, vec![Value::Int(7)]);
    }

    #[test]
    fn frame_enter_binds_args_then_defaults() {
        let m = module("void f(int a, bool b) { int c; skip; } void main() { f(1, true); }");
        let f = m.program.func_by_name("f").unwrap();
        let fr = Frame::enter(&m, f, &[Value::Int(9), Value::Bool(true)], None);
        assert_eq!(fr.locals, vec![Value::Int(9), Value::Bool(true), Value::Int(0)]);
    }

    #[test]
    fn fingerprints_distinguish_configs() {
        let m = module("int g; void main() { g = 1; }");
        let c1 = Config::initial(&m);
        let mut c2 = c1.clone();
        assert_eq!(c1.fingerprint(), c2.fingerprint());
        c2.mem.globals[0] = Value::Int(1);
        assert_ne!(c1.fingerprint(), c2.fingerprint());
        let mut c3 = c1.clone();
        c3.stack[0].pc = 1;
        assert_ne!(c1.fingerprint(), c3.fingerprint());
    }

    #[test]
    fn env_reads_and_writes_locals_and_globals() {
        let m = module("int g; void main() { int x; skip; }");
        let mut c = Config::initial(&m);
        let mut env = SeqEnv { module: &m, config: &mut c };
        env.write_var(VarRef::Global(kiss_lang::GlobalId(0)), Value::Int(5));
        env.write_var(VarRef::Local(LocalId(0)), Value::Int(6));
        assert_eq!(env.read_var(VarRef::Global(kiss_lang::GlobalId(0))), Value::Int(5));
        assert_eq!(env.read_var(VarRef::Local(LocalId(0))), Value::Int(6));
        // Address-of local points at the top frame.
        let a = env.addr_of_var(VarRef::Local(LocalId(0)));
        assert_eq!(env.read_addr(a), Ok(Value::Int(6)));
    }

    /// The historical fingerprint: two complete `DefaultHasher`
    /// traversals, the second seeded. Kept as the distribution oracle:
    /// any family of configurations the old scheme kept distinct, the
    /// new single-pass hasher must keep distinct too (no new
    /// collisions), and equal configurations must still fingerprint
    /// equally (guaranteed structurally — fingerprint is a pure
    /// function of the hashed writes).
    fn double_pass_fingerprint(c: &Config) -> (u64, u64) {
        let c = (&c.mem, &c.stack);
        let mut h1 = std::collections::hash_map::DefaultHasher::new();
        c.hash(&mut h1);
        let mut h2 = std::collections::hash_map::DefaultHasher::new();
        0xDEAD_BEEFu64.hash(&mut h2);
        c.hash(&mut h2);
        (h1.finish(), h2.finish())
    }

    #[test]
    fn single_pass_fingerprint_is_deterministic_across_clones() {
        let m = module(
            "struct D { int x; int y; }
             int g; bool b;
             void f(int a) { int l; l = a; }
             void main() { int x; D *p; p = malloc(D); f(3); }",
        );
        let mut c = Config::initial(&m);
        // Equal configurations fingerprint equally at every mutation
        // step: globals, pc, extra frames, heap objects — every part of
        // the hashed structure.
        assert_eq!(c.fingerprint(), c.clone().fingerprint());
        c.mem.globals[0] = Value::Int(41);
        assert_eq!(c.fingerprint(), c.clone().fingerprint());
        c.stack[0].pc = 2;
        assert_eq!(c.fingerprint(), c.clone().fingerprint());
        let f = m.program.func_by_name("f").unwrap();
        c.stack.push(Frame::enter(&m, f, &[Value::Int(7)], None));
        assert_eq!(c.fingerprint(), c.clone().fingerprint());
        let sid = kiss_lang::hir::StructId(0);
        c.mem.malloc(&m.program, sid);
        assert_eq!(c.fingerprint(), c.clone().fingerprint());
    }

    #[test]
    fn fingerprint_distribution_matches_the_double_pass_scheme() {
        // A family of systematically distinct configurations spanning
        // globals, pc, stack depth, and heap contents. The old
        // double-pass scheme kept all of them distinct; the single-pass
        // hasher must introduce no new collisions.
        let m = module(
            "struct D { int x; int y; }
             int g; int h;
             void f(int a) { int l; l = a; }
             void main() { D *p; g = 1; h = 2; }",
        );
        let mut old_seen = std::collections::HashSet::new();
        let mut new_seen = std::collections::HashSet::new();
        let mut count = 0usize;
        for g in 0..40 {
            for h in 0..40 {
                for shape in 0..4 {
                    let mut c = Config::initial(&m);
                    c.mem.globals[0] = Value::Int(g);
                    c.mem.globals[1] = Value::Int(h);
                    match shape {
                        0 => {}
                        1 => c.stack[0].pc = 1,
                        2 => {
                            let f = m.program.func_by_name("f").unwrap();
                            c.stack.push(Frame::enter(&m, f, &[Value::Int(g)], None));
                        }
                        _ => {
                            let obj = c.mem.malloc(&m.program, kiss_lang::hir::StructId(0));
                            c.mem.heap[obj as usize].fields[0] = Value::Int(h);
                        }
                    }
                    old_seen.insert(double_pass_fingerprint(&c));
                    new_seen.insert(c.fingerprint());
                    count += 1;
                }
            }
        }
        // The old scheme kept every configuration distinct...
        assert_eq!(old_seen.len(), count);
        // ...and the new one must too: no new collisions.
        assert_eq!(new_seen.len(), count);
    }

    #[test]
    fn split_fingerprints_agree_with_a_direct_computation() {
        let m = module(
            "int g; void f(int a) { int l; l = a; } void main() { g = 1; g = 2; }",
        );
        let mut c = Config::initial(&m);
        c.mem.globals[0] = Value::Int(3);
        // Sibling alternatives: same base, different top pc. Each must
        // equal the split fingerprint computed from scratch on a config
        // that actually sits at that pc, and distinct pcs must yield
        // distinct fingerprints.
        let base = c.fingerprint_base();
        let mut seen = std::collections::HashSet::new();
        for pc in 0..3usize {
            let mut alt = c.clone();
            alt.stack[0].pc = pc;
            assert_eq!(base.with_pc(pc), alt.fingerprint());
            assert!(seen.insert(base.with_pc(pc)), "pc {pc} collided");
        }
        // The base is sensitive to everything below the top pc.
        let mut other = c.clone();
        other.mem.globals[0] = Value::Int(4);
        assert_ne!(base.with_pc(0), other.fingerprint_base().with_pc(0));
        let f = m.program.func_by_name("f").unwrap();
        let mut deeper = c.clone();
        deeper.stack.push(Frame::enter(&m, f, &[Value::Int(1)], None));
        assert_ne!(base.with_pc(0), deeper.fingerprint_base().with_pc(0));
    }

    #[test]
    fn empty_stack_fingerprint_is_deterministic_and_distinct() {
        let m = module("int g; void main() { g = 1; }");
        let one_frame = Config::initial(&m);
        let mut done = one_frame.clone();
        done.stack.pop();
        assert_eq!(done.fingerprint(), done.clone().fingerprint());
        assert_eq!(done.fingerprint(), done.fingerprint_base().with_pc(EMPTY_STACK_PC));
        assert_ne!(done.fingerprint(), one_frame.fingerprint());
        // Not even a frame sitting at the sentinel pc collides with it.
        let mut at_sentinel = one_frame.clone();
        at_sentinel.stack[0].pc = EMPTY_STACK_PC;
        assert_ne!(done.fingerprint(), at_sentinel.fingerprint());
    }

    /// The program the digest-caching property mutates: globals and
    /// heap objects spanning several copy-on-write chunks, and a callee
    /// with locals to push.
    const SCRIPT_PROGRAM: &str = "struct D { int x; int y; }
         int g0; int g1; int g2; int g3; int g4; int g5; int g6; int g7;
         int g8; int g9; int g10; int g11;
         void f(int a) { int l; l = a; }
         void main() { int x; int y; D *p; skip; }";

    /// One step of a random mutation script, applied through the same
    /// [`Env`] write paths the engines use.
    #[derive(Debug, Clone)]
    enum Op {
        /// Writes a global.
        Global(u8, i8),
        /// Allocates a `D`.
        Malloc,
        /// Writes a field of an allocated object (no-op on an empty heap).
        Field(u8, u8, i8),
        /// Writes a local of the top frame (no-op on an empty stack).
        Local(u8, i8),
        /// Enters `f` with an argument.
        Push(i8),
        /// Pops the top frame (no-op on an empty stack).
        Pop,
        /// Writes a global, fingerprints, then restores the old value.
        WriteRestore(u8, i8),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (any::<u8>(), 0i8..3).prop_map(|(g, v)| Op::Global(g, v)),
            Just(Op::Malloc),
            (any::<u8>(), any::<u8>(), 0i8..3).prop_map(|(o, f, v)| Op::Field(o, f, v)),
            (any::<u8>(), 0i8..3).prop_map(|(l, v)| Op::Local(l, v)),
            (0i8..3).prop_map(Op::Push),
            Just(Op::Pop),
            (any::<u8>(), 0i8..3).prop_map(|(g, v)| Op::WriteRestore(g, v)),
        ]
    }

    fn apply(m: &Module, c: &mut Config, op: &Op) {
        let globals = c.mem.globals.len();
        let heap = c.mem.heap.len();
        let mut env = SeqEnv { module: m, config: c };
        let global = |g: u8| Addr::Global(kiss_lang::GlobalId(u32::from(g) % globals as u32));
        match *op {
            Op::Global(g, v) => env.write_addr(global(g), Value::Int(v.into())).unwrap(),
            Op::Malloc => {
                env.malloc(kiss_lang::hir::StructId(0));
            }
            Op::Field(o, f, v) if heap > 0 => {
                let a = Addr::Heap { obj: u32::from(o) % heap as u32, field: u32::from(f) % 2 };
                env.write_addr(a, Value::Int(v.into())).unwrap();
            }
            Op::Local(l, v) => {
                if let Some(frame) = env.config.stack.len().checked_sub(1) {
                    let locals = env.config.stack[frame].locals.len() as u32;
                    let a = Addr::Local { tid: 0, frame: frame as u32, local: u32::from(l) % locals };
                    // `main`'s pointer local takes an int here too: only
                    // equality of contents matters to the property.
                    env.write_addr(a, Value::Int(v.into())).unwrap();
                }
            }
            Op::Push(v) => {
                let f = m.program.func_by_name("f").unwrap();
                c.stack.push(Frame::enter(m, f, &[Value::Int(v.into())], None));
            }
            Op::Pop => {
                c.stack.pop();
            }
            Op::WriteRestore(g, v) => {
                let a = global(g);
                let old = env.read_addr(a).unwrap();
                env.write_addr(a, Value::Int(v.into())).unwrap();
                let _ = env.config.fingerprint();
                env.write_addr(a, old).unwrap();
            }
            Op::Field(..) => {}
        }
    }

    /// The configuration rebuilt from its contents alone: fresh chunks
    /// that were never sealed, so no cached digest can leak in.
    fn rebuilt(c: &Config) -> Config {
        Config {
            mem: Memory { globals: c.mem.globals.to_vec().into(), heap: c.mem.heap.to_vec().into() },
            stack: c.stack.clone(),
        }
    }

    proptest! {
        /// Cached chunk digests never go stale. Two clones of one
        /// configuration run the same script, except that `b` may have
        /// one operation replaced; `a` is fingerprinted after every
        /// step (sealing its chunks), `b` only at random points. Equal
        /// configurations must fingerprint equally, and on every
        /// generated case distinct ones differently — a stale seal
        /// would make two distinct states share a fingerprint and the
        /// DFS prune a reachable one.
        #[test]
        fn cached_fingerprints_separate_exactly_the_distinct_configs(
            ops in prop::collection::vec(op_strategy(), 1..40),
            (twisted, at, other) in (any::<bool>(), any::<prop::sample::Index>(), op_strategy()),
            seal_b in prop::collection::vec(any::<bool>(), 40..41),
        ) {
            let m = module(SCRIPT_PROGRAM);
            let mut a = Config::initial(&m);
            let mut b = a.clone();
            let twist = twisted.then(|| (at.index(ops.len()), other));
            for (k, op) in ops.iter().enumerate() {
                apply(&m, &mut a, op);
                match &twist {
                    Some((i, other)) if *i == k => apply(&m, &mut b, other),
                    _ => apply(&m, &mut b, op),
                }
                let fa = a.fingerprint();
                prop_assert_eq!(fa, rebuilt(&a).fingerprint());
                if seal_b[k] || k + 1 == ops.len() {
                    let fb = b.fingerprint();
                    prop_assert_eq!(fb, rebuilt(&b).fingerprint());
                    prop_assert_eq!(a == b, fa == fb, "a: {:?}\nb: {:?}", a, b);
                }
            }
        }
    }

    #[test]
    fn fingerprint_of_matches_itself_and_separates_values() {
        assert_eq!(fingerprint_of(&(1u64, 2u64)), fingerprint_of(&(1u64, 2u64)));
        assert_ne!(fingerprint_of(&(1u64, 2u64)), fingerprint_of(&(2u64, 1u64)));
    }

    #[test]
    fn dangling_local_read_is_an_error() {
        let m = module("void main() { int x; skip; }");
        let mut c = Config::initial(&m);
        let mut env = SeqEnv { module: &m, config: &mut c };
        let bad = Addr::Local { tid: 0, frame: 7, local: 0 };
        assert_eq!(env.read_addr(bad), Err(ExecError::DanglingLocal));
        assert_eq!(env.write_addr(bad, Value::Int(1)), Err(ExecError::DanglingLocal));
    }
}
