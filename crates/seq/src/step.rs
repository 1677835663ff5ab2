//! The sequential semantics, one instruction at a time.
//!
//! [`step`] is the only interpreter of lowered instructions over a
//! [`Config`]. The explicit (DFS), BFS and LTL-product engines differ
//! only in how they order the work, so each is a frontier policy around
//! it:
//!
//! * DFS ([`crate::explicit`]) records a visited state before every
//!   `Call` and [`Step::Branch`], follows the first branch target and
//!   stacks the rest;
//! * BFS ([`crate::bfs`]) runs [`step`] until a [`Step::Branch`] and
//!   parks the configuration there as a frontier node;
//! * the LTL product (`kiss-ltl`) takes one [`step`] per product edge,
//!   treats [`Step::Fail`] as a prune, drops the transformation's RAISE
//!   branch arms and stutters on an empty stack.
//!
//! The summary engine and the `kiss-conc` interleaving explorers keep
//! their own loops: their states are frame-less entry states and
//! multi-thread configurations with blocking `assume`, not a `Config`.

use kiss_exec::{eval, Env as _, ExecError, Instr, Module, Value};

use crate::config::{Config, Frame, SeqEnv};

/// What one [`step`] did to the configuration.
#[derive(Debug, PartialEq, Eq)]
pub enum Step<'m> {
    /// The top frame moved on: its pc advanced or jumped, a callee's
    /// frame was pushed, or the frame returned and was popped. An empty
    /// stack afterwards means the program finished.
    Next,
    /// Parked on a `NondetJump` with these targets; the pc did not move,
    /// so the caller chooses which successors to build.
    Branch(&'m [usize]),
    /// A false `assert`.
    Fail,
    /// A false `assume`: the path is infeasible.
    Pruned,
    /// The instruction has no defined semantics here.
    Error(ExecError),
}

/// Executes the instruction at the top frame of `config`, in place.
///
/// `arg_vals` is a scratch buffer for evaluated call arguments, reused
/// across steps so a call does not allocate. Instructions are
/// **borrowed** from the module body rather than cloned per executed
/// step: `Call` argument lists and `NondetJump` target vectors are
/// heap-backed, and the per-step clone showed up as the single largest
/// line in the interpreter profile.
///
/// # Panics
///
/// Panics if `config` has an empty stack (a finished program).
#[inline]
pub fn step<'m>(module: &'m Module, config: &mut Config, arg_vals: &mut Vec<Value>) -> Step<'m> {
    let frame = config.stack.last().expect("step needs a frame");
    let instr = &module.body(frame.func).instrs[frame.pc];
    match instr {
        Instr::Assign(place, rv) => {
            if let Err(e) = eval::exec_assign(&mut SeqEnv { module, config }, place, rv) {
                return Step::Error(e);
            }
        }
        Instr::Assert(cond) | Instr::Assume(cond) => {
            match eval::eval_cond(&SeqEnv { module, config }, cond) {
                Ok(true) => {}
                Ok(false) if matches!(instr, Instr::Assert(_)) => return Step::Fail,
                Ok(false) => return Step::Pruned,
                Err(e) => return Step::Error(e),
            }
        }
        Instr::Call { dest, target, args } => {
            let env = SeqEnv { module, config };
            let callee = match eval::resolve_call(&env, &module.program, *target, args, arg_vals) {
                Ok(f) => f,
                Err(e) => return Step::Error(e),
            };
            // Advance the caller past the call before pushing.
            top(config).pc += 1;
            config
                .stack
                .push(Frame::enter(module, callee, arg_vals, *dest));
            return Step::Next;
        }
        Instr::Async { .. } => return Step::Error(ExecError::AsyncInSequential),
        Instr::Return(op) => {
            let ret = op.map_or(Value::Null, |o| {
                eval::eval_operand(&SeqEnv { module, config }, &o)
            });
            let finished = config.stack.pop().expect("nonempty");
            if let (Some(dest), false) = (finished.dest, config.stack.is_empty()) {
                let mut env = SeqEnv { module, config };
                if let Err(e) = eval::place_addr(&env, &dest).and_then(|a| env.write_addr(a, ret)) {
                    return Step::Error(e);
                }
            }
            return Step::Next;
        }
        Instr::Jump(t) => {
            // No visited check needed here: every cycle in lowered code
            // passes through a NondetJump (the `iter` header) or a Call.
            top(config).pc = *t;
            return Step::Next;
        }
        Instr::NondetJump(targets) => return Step::Branch(targets),
        // Atomicity is vacuous sequentially.
        Instr::AtomicBegin | Instr::AtomicEnd => {}
    }
    top(config).pc += 1;
    Step::Next
}

fn top(config: &mut Config) -> &mut Frame {
    config.stack.last_mut().expect("nonempty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiss_lang::parse_and_lower;

    fn module(src: &str) -> Module {
        Module::lower(parse_and_lower(src).unwrap())
    }

    /// Steps `config` until it stops moving on, returning the last
    /// non-`Next` outcome (or `Next` if the program finished).
    fn run<'m>(m: &'m Module, config: &mut Config) -> Step<'m> {
        let mut args = Vec::new();
        while !config.stack.is_empty() {
            match step(m, config, &mut args) {
                Step::Next => {}
                other => return other,
            }
        }
        Step::Next
    }

    #[test]
    fn each_outcome_is_reported() {
        let m = module("int g; void main() { g = 1; assert g == 2; }");
        assert_eq!(run(&m, &mut Config::initial(&m)), Step::Fail);
        let m = module("int g; void main() { assume g == 1; }");
        assert_eq!(run(&m, &mut Config::initial(&m)), Step::Pruned);
        let m = module("void w() { skip; } void main() { async w(); }");
        assert_eq!(
            run(&m, &mut Config::initial(&m)),
            Step::Error(ExecError::AsyncInSequential)
        );
        let m = module("int g; void main() { g = 1; }");
        let mut config = Config::initial(&m);
        assert_eq!(run(&m, &mut config), Step::Next);
        assert!(config.stack.is_empty(), "main returned");
    }

    #[test]
    fn branch_parks_without_moving_the_pc() {
        let m = module("int g; void main() { choice { g = 1; [] g = 2; } }");
        let mut config = Config::initial(&m);
        let Step::Branch(targets) = run(&m, &mut config) else {
            panic!("expected a branch")
        };
        assert_eq!(targets.len(), 2);
        let pc = config.stack.last().expect("parked on the branch").pc;
        assert!(matches!(
            m.body(m.program.main).instrs[pc],
            Instr::NondetJump(_)
        ));
    }
}
