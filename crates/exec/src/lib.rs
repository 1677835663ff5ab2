//! # kiss-exec
//!
//! The shared execution substrate for the KISS reproduction: dynamic
//! values, addresses and heap objects ([`value`]), a flat control-flow
//! instruction form lowered from the core IR ([`mod@cfg`]), and a
//! context-generic evaluator for instructions ([`eval`]).
//!
//! Both the sequential checkers (`kiss-seq`, the stand-in for SLAM) and
//! the concurrent baseline explorer (`kiss-conc`) are built on this
//! crate, so a statement is guaranteed to mean the same thing under
//! sequential and interleaved execution — which is what makes the
//! completeness theorem (paper Theorem 1) empirically testable.

pub mod cfg;
pub mod cow;
pub mod error;
pub mod eval;
pub mod value;

pub use cfg::{FuncBody, Instr, InstrMeta, Module};
pub use cow::CowVec;
pub use error::ExecError;
pub use eval::{eval_operand, eval_rvalue, exec_assign, place_addr, resolve_call, Env};
pub use value::{Addr, HeapObj, Memory, Value};
