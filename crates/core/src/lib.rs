//! Semantic algebras and standard continuation semantics for `L_λ`
//! (Figure 2 of *Monitoring Semantics*, Kishon/Hudak/Consel, PLDI 1991).
//!
//! The paper expresses the standard semantics as valuation *functionals*
//! in continuation style; their fixpoints are the valuation functions. In
//! Rust we realize the same semantics two ways:
//!
//! * [`machine`] — the production evaluator: continuations are
//!   **defunctionalized** into an explicit frame stack (a CEK machine).
//!   Every transition of the machine corresponds to one continuation
//!   application of the paper's semantics, preserving the linear ordering
//!   of evaluation events that monitoring relies on (§2). The machine is
//!   generic in a [`Monitor`](spec::Monitor) (Definition 5.1, in [`spec`];
//!   the context its hooks see is a [`Scope`](scope::Scope)): the
//!   standard semantics is the monitored one at [`NoMonitor`](spec::NoMonitor),
//!   which accepts no annotation — the oblivious functional `G_obl` of
//!   Definition 7.1.
//! * [`closure_cps`] — a direct transliteration using boxed Rust closures
//!   as continuations (with a trampoline for stack safety). It shares no
//!   transition code with the machine, so it validates the machine against
//!   the paper's own style: it is the independent oracle of the Theorem 7.7
//!   soundness checks, and an ablation point for the benchmarks.
//!
//! The semantic algebras (Figure 2, *Alg*) live in [`value`], [`mod@env`] and
//! [`prims`]; the §3.1 *answer algebras* in [`answer`]; the §9.2 lazy and
//! imperative language modules, each again one machine generic in the
//! monitor, in [`lazy`] and [`imperative`]. Before the
//! first transition every engine runs [`mod@resolve`], the static pass that
//! rewrites variable occurrences to lexical `(depth, slot)` addresses so the
//! hot loop does pointer hops instead of name comparisons.
//!
//! # Example
//!
//! ```
//! use monsem_core::machine::eval;
//! use monsem_core::value::Value;
//! use monsem_syntax::parse_expr;
//!
//! let prog = parse_expr(
//!     "letrec fac = lambda x. if x = 0 then 1 else x * (fac (x - 1)) in fac 5",
//! )?;
//! assert_eq!(eval(&prog)?, Value::Int(120));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod answer;
pub mod closure_cps;
pub mod env;
pub mod error;
pub mod freeze;
pub mod imperative;
pub mod lazy;
pub mod machine;
pub mod prelude;
pub mod prims;
pub mod programs;
pub mod resolve;
pub mod scope;
pub mod spec;
pub mod value;

pub use answer::{AnswerAlgebra, BasAnswer, StringAnswer, ValueAnswer};
pub use env::Env;
pub use error::EvalError;
pub use machine::{eval, eval_with, EvalOptions, LookupMode};
pub use resolve::{resolve, resolve_closed, resolve_for, resolve_rc};
pub use value::{Closure, Value};
