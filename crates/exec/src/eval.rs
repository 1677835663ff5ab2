//! Context-generic evaluation of operands, rvalues and assignments.
//!
//! The engines differ in how a "current frame" and shared memory are
//! organised; they implement [`Env`] and get the entire statement
//! semantics from this module for free.

use kiss_lang::hir::{
    BinOp, CallTarget, Cond, FuncId, Operand, Place, Program, Rvalue, StructId, UnOp, VarRef,
};

use crate::error::ExecError;
use crate::value::{Addr, Value};

/// Access to the execution context of one step: the current frame's
/// locals, shared globals, and the heap.
pub trait Env {
    /// Reads a variable (local of the current frame, or global).
    fn read_var(&self, v: VarRef) -> Value;
    /// Writes a variable.
    fn write_var(&mut self, v: VarRef, val: Value);
    /// Reads a memory cell by address.
    ///
    /// # Errors
    ///
    /// Fails on dangling local addresses or corrupted heap addresses.
    fn read_addr(&self, a: Addr) -> Result<Value, ExecError>;
    /// Writes a memory cell by address.
    ///
    /// # Errors
    ///
    /// Fails on dangling local addresses or corrupted heap addresses.
    fn write_addr(&mut self, a: Addr, val: Value) -> Result<(), ExecError>;
    /// The address of a variable (for `&v`).
    fn addr_of_var(&self, v: VarRef) -> Addr;
    /// Allocates a struct instance and returns the object index.
    fn malloc(&mut self, sid: StructId) -> u32;
}

/// Resolves a call's callee, checks its arity, and evaluates the
/// arguments into `arg_vals` (cleared first). Every engine dispatches
/// `Call` and `Async` through this, so they agree on which calls are
/// runtime errors.
///
/// # Errors
///
/// Fails if an indirect target does not hold a function, or if the
/// argument count differs from the callee's parameter count.
pub fn resolve_call(
    env: &impl Env,
    program: &Program,
    target: CallTarget,
    args: &[Operand],
    arg_vals: &mut Vec<Value>,
) -> Result<FuncId, ExecError> {
    let callee = match target {
        CallTarget::Direct(f) => f,
        CallTarget::Indirect(v) => match env.read_var(v) {
            Value::Fn(f) => f,
            other => return Err(ExecError::NotAFunction { found: other.type_name() }),
        },
    };
    let expected = program.func(callee).param_count;
    if expected as usize != args.len() {
        return Err(ExecError::ArityMismatch { func: callee, expected, got: args.len() as u32 });
    }
    arg_vals.clear();
    arg_vals.extend(args.iter().map(|a| eval_operand(env, a)));
    Ok(callee)
}

/// Evaluates an operand.
pub fn eval_operand(env: &impl Env, op: &Operand) -> Value {
    match op {
        Operand::Const(c) => Value::from_const(*c),
        Operand::Var(v) => env.read_var(*v),
    }
}

/// Resolves a place to the address it denotes.
///
/// # Errors
///
/// Fails if a pointer-typed step encounters a non-pointer value.
pub fn place_addr(env: &impl Env, place: &Place) -> Result<Addr, ExecError> {
    match place {
        Place::Var(v) => Ok(env.addr_of_var(*v)),
        Place::Deref(v) => match env.read_var(*v) {
            Value::Ptr(a) => Ok(a),
            other => Err(ExecError::NullDeref { found: other.type_name() }),
        },
        Place::Field(v, _sid, fidx) => match env.read_var(*v) {
            Value::Ptr(Addr::Heap { obj, .. }) => Ok(Addr::Heap { obj, field: *fidx }),
            Value::Ptr(_) => Err(ExecError::BadField),
            other => Err(ExecError::NullDeref { found: other.type_name() }),
        },
    }
}

/// Evaluates a condition (`v` / `!v`).
///
/// # Errors
///
/// Fails if the variable does not hold a boolean.
pub fn eval_cond(env: &impl Env, cond: &Cond) -> Result<bool, ExecError> {
    match env.read_var(cond.var) {
        Value::Bool(b) => Ok(b != cond.negated),
        other => Err(ExecError::TypeMismatch {
            op: if cond.negated { "assume/assert !v" } else { "assume/assert v" },
            lhs: other.type_name(),
            rhs: None,
        }),
    }
}

/// Evaluates an rvalue.
///
/// # Errors
///
/// Propagates dereference, type and arithmetic errors.
pub fn eval_rvalue(env: &mut impl Env, rv: &Rvalue) -> Result<Value, ExecError> {
    match rv {
        Rvalue::Operand(op) => Ok(eval_operand(env, op)),
        Rvalue::Load(place) => {
            let addr = place_addr(env, place)?;
            env.read_addr(addr)
        }
        Rvalue::AddrOf(v) => Ok(Value::Ptr(env.addr_of_var(*v))),
        Rvalue::AddrOfField(v, _sid, fidx) => match env.read_var(*v) {
            Value::Ptr(Addr::Heap { obj, .. }) => Ok(Value::Ptr(Addr::Heap { obj, field: *fidx })),
            Value::Ptr(_) => Err(ExecError::BadField),
            other => Err(ExecError::NullDeref { found: other.type_name() }),
        },
        Rvalue::BinOp(op, a, b) => {
            let a = eval_operand(env, a);
            let b = eval_operand(env, b);
            eval_binop(*op, a, b)
        }
        Rvalue::UnOp(op, a) => {
            let a = eval_operand(env, a);
            eval_unop(*op, a)
        }
        Rvalue::Malloc(sid) => {
            let obj = env.malloc(*sid);
            Ok(Value::Ptr(Addr::Heap { obj, field: 0 }))
        }
    }
}

/// Executes `place = rvalue`.
///
/// # Errors
///
/// Propagates evaluation errors from either side.
pub fn exec_assign(env: &mut impl Env, place: &Place, rv: &Rvalue) -> Result<(), ExecError> {
    let val = eval_rvalue(env, rv)?;
    match place {
        Place::Var(v) => {
            env.write_var(*v, val);
            Ok(())
        }
        _ => {
            let addr = place_addr(env, place)?;
            env.write_addr(addr, val)
        }
    }
}

/// Applies a binary operator to two values.
///
/// # Errors
///
/// Fails on operand type mismatches and on `%` by zero.
pub fn eval_binop(op: BinOp, a: Value, b: Value) -> Result<Value, ExecError> {
    use BinOp::*;
    let mismatch = |opname| ExecError::TypeMismatch { op: opname, lhs: a.type_name(), rhs: Some(b.type_name()) };
    match op {
        Add | Sub | Mul | Mod => match (a, b) {
            (Value::Int(x), Value::Int(y)) => match op {
                Add => x.checked_add(y).map(Value::Int).ok_or(ExecError::Overflow),
                Sub => x.checked_sub(y).map(Value::Int).ok_or(ExecError::Overflow),
                Mul => x.checked_mul(y).map(Value::Int).ok_or(ExecError::Overflow),
                Mod => {
                    if y == 0 {
                        Err(ExecError::DivisionByZero)
                    } else {
                        Ok(Value::Int(x.rem_euclid(y)))
                    }
                }
                _ => unreachable!(),
            },
            _ => Err(mismatch(binop_name(op))),
        },
        Lt | Le | Gt | Ge => match (a, b) {
            (Value::Int(x), Value::Int(y)) => Ok(Value::Bool(match op {
                Lt => x < y,
                Le => x <= y,
                Gt => x > y,
                Ge => x >= y,
                _ => unreachable!(),
            })),
            _ => Err(mismatch(binop_name(op))),
        },
        // Equality is defined across all value shapes; values of
        // different shapes are simply unequal (null != any pointer,
        // null != any function, ...).
        Eq => Ok(Value::Bool(a == b)),
        Ne => Ok(Value::Bool(a != b)),
        And | Or => match (a, b) {
            (Value::Bool(x), Value::Bool(y)) => {
                Ok(Value::Bool(if matches!(op, And) { x && y } else { x || y }))
            }
            _ => Err(mismatch(binop_name(op))),
        },
    }
}

/// Applies a unary operator.
///
/// # Errors
///
/// Fails on operand type mismatches.
pub fn eval_unop(op: UnOp, a: Value) -> Result<Value, ExecError> {
    match (op, a) {
        (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
        (UnOp::Neg, Value::Int(n)) => n.checked_neg().map(Value::Int).ok_or(ExecError::Overflow),
        (UnOp::Not, other) => {
            Err(ExecError::TypeMismatch { op: "!", lhs: other.type_name(), rhs: None })
        }
        (UnOp::Neg, other) => {
            Err(ExecError::TypeMismatch { op: "-", lhs: other.type_name(), rhs: None })
        }
    }
}

fn binop_name(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Mod => "%",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::And => "&&",
        BinOp::Or => "||",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiss_lang::hir::{Const, GlobalId};

    /// A toy Env over a flat global array, for unit-testing evaluation.
    struct TestEnv {
        globals: Vec<Value>,
        heap: Vec<Vec<Value>>,
    }

    impl Env for TestEnv {
        fn read_var(&self, v: VarRef) -> Value {
            match v {
                VarRef::Global(g) => self.globals[g.0 as usize],
                VarRef::Local(_) => unimplemented!("test env has no locals"),
            }
        }
        fn write_var(&mut self, v: VarRef, val: Value) {
            match v {
                VarRef::Global(g) => self.globals[g.0 as usize] = val,
                VarRef::Local(_) => unimplemented!(),
            }
        }
        fn read_addr(&self, a: Addr) -> Result<Value, ExecError> {
            match a {
                Addr::Global(g) => Ok(self.globals[g.0 as usize]),
                Addr::Heap { obj, field } => self.heap[obj as usize]
                    .get(field as usize)
                    .copied()
                    .ok_or(ExecError::BadField),
                Addr::Local { .. } => Err(ExecError::DanglingLocal),
            }
        }
        fn write_addr(&mut self, a: Addr, val: Value) -> Result<(), ExecError> {
            match a {
                Addr::Global(g) => {
                    self.globals[g.0 as usize] = val;
                    Ok(())
                }
                Addr::Heap { obj, field } => {
                    *self.heap[obj as usize].get_mut(field as usize).ok_or(ExecError::BadField)? = val;
                    Ok(())
                }
                Addr::Local { .. } => Err(ExecError::DanglingLocal),
            }
        }
        fn addr_of_var(&self, v: VarRef) -> Addr {
            match v {
                VarRef::Global(g) => Addr::Global(g),
                VarRef::Local(_) => unimplemented!(),
            }
        }
        fn malloc(&mut self, _sid: StructId) -> u32 {
            self.heap.push(vec![Value::Int(0), Value::Int(0)]);
            (self.heap.len() - 1) as u32
        }
    }

    fn env() -> TestEnv {
        TestEnv { globals: vec![Value::Int(10), Value::Bool(true), Value::Null], heap: vec![] }
    }

    fn gv(i: u32) -> VarRef {
        VarRef::Global(GlobalId(i))
    }

    #[test]
    fn arithmetic_and_comparison() {
        assert_eq!(eval_binop(BinOp::Add, Value::Int(2), Value::Int(3)), Ok(Value::Int(5)));
        assert_eq!(eval_binop(BinOp::Sub, Value::Int(2), Value::Int(3)), Ok(Value::Int(-1)));
        assert_eq!(eval_binop(BinOp::Mul, Value::Int(4), Value::Int(3)), Ok(Value::Int(12)));
        assert_eq!(eval_binop(BinOp::Mod, Value::Int(7), Value::Int(3)), Ok(Value::Int(1)));
        assert_eq!(eval_binop(BinOp::Lt, Value::Int(1), Value::Int(2)), Ok(Value::Bool(true)));
        assert_eq!(eval_binop(BinOp::Ge, Value::Int(1), Value::Int(2)), Ok(Value::Bool(false)));
    }

    #[test]
    fn modulo_by_zero_and_overflow_are_errors() {
        assert_eq!(eval_binop(BinOp::Mod, Value::Int(1), Value::Int(0)), Err(ExecError::DivisionByZero));
        assert_eq!(
            eval_binop(BinOp::Add, Value::Int(i64::MAX), Value::Int(1)),
            Err(ExecError::Overflow)
        );
        assert_eq!(eval_unop(UnOp::Neg, Value::Int(i64::MIN)), Err(ExecError::Overflow));
    }

    #[test]
    fn equality_spans_value_shapes() {
        assert_eq!(eval_binop(BinOp::Eq, Value::Null, Value::Null), Ok(Value::Bool(true)));
        assert_eq!(
            eval_binop(BinOp::Eq, Value::Null, Value::Ptr(Addr::Heap { obj: 0, field: 0 })),
            Ok(Value::Bool(false))
        );
        assert_eq!(
            eval_binop(BinOp::Ne, Value::Int(1), Value::Bool(true)),
            Ok(Value::Bool(true))
        );
    }

    #[test]
    fn boolean_operators_require_booleans() {
        assert_eq!(
            eval_binop(BinOp::And, Value::Bool(true), Value::Bool(false)),
            Ok(Value::Bool(false))
        );
        assert!(eval_binop(BinOp::And, Value::Int(1), Value::Bool(true)).is_err());
        assert!(eval_unop(UnOp::Not, Value::Int(0)).is_err());
        assert_eq!(eval_unop(UnOp::Not, Value::Bool(false)), Ok(Value::Bool(true)));
    }

    #[test]
    fn conditions_read_through_env() {
        let e = env();
        assert_eq!(eval_cond(&e, &Cond::pos(gv(1))), Ok(true));
        assert_eq!(eval_cond(&e, &Cond::neg(gv(1))), Ok(false));
        assert!(eval_cond(&e, &Cond::pos(gv(0))).is_err());
    }

    #[test]
    fn deref_of_null_is_an_error() {
        let mut e = env();
        let rv = Rvalue::Load(Place::Deref(gv(2)));
        assert!(matches!(eval_rvalue(&mut e, &rv), Err(ExecError::NullDeref { .. })));
    }

    #[test]
    fn malloc_then_field_roundtrip() {
        let mut e = env();
        // g0 = malloc(S); then treat g0 as pointer: write via place, read back.
        exec_assign(&mut e, &Place::Var(gv(0)), &Rvalue::Malloc(StructId(0))).unwrap();
        let pl = Place::Field(gv(0), StructId(0), 1);
        exec_assign(&mut e, &pl, &Rvalue::Operand(Operand::Const(Const::Int(9)))).unwrap();
        let mut e2 = e;
        assert_eq!(eval_rvalue(&mut e2, &Rvalue::Load(pl)), Ok(Value::Int(9)));
    }

    #[test]
    fn addr_of_field_requires_heap_pointer() {
        let mut e = env();
        let rv = Rvalue::AddrOfField(gv(2), StructId(0), 0);
        assert!(eval_rvalue(&mut e, &rv).is_err());
        exec_assign(&mut e, &Place::Var(gv(2)), &Rvalue::Malloc(StructId(0))).unwrap();
        let got = eval_rvalue(&mut e, &Rvalue::AddrOfField(gv(2), StructId(0), 1)).unwrap();
        assert_eq!(got, Value::Ptr(Addr::Heap { obj: 0, field: 1 }));
    }

    #[test]
    fn assign_through_deref_pointer() {
        let mut e = env();
        // g2 = &g0; *g2 = 42;
        exec_assign(&mut e, &Place::Var(gv(2)), &Rvalue::AddrOf(gv(0))).unwrap();
        exec_assign(&mut e, &Place::Deref(gv(2)), &Rvalue::Operand(Operand::Const(Const::Int(42))))
            .unwrap();
        assert_eq!(e.globals[0], Value::Int(42));
    }
}
