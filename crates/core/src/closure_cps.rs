//! The standard semantics transliterated with *boxed-closure continuations*
//! — the style the paper itself uses (higher-order `Kont = V → Ans`
//! functions), adapted to Rust ownership with `FnOnce` continuations and a
//! trampoline for stack safety.
//!
//! This evaluator exists for two reasons:
//!
//! 1. **Fidelity** — it demonstrates that the defunctionalized
//!    [`machine`](crate::machine) computes the same function as a direct
//!    reading of Figure 2 (the test suite runs both on the same programs).
//!    It shares no transition code with the machine, so it is the
//!    independent standard-semantics oracle of the Theorem 7.7 checks
//!    (`monsem_monitor::soundness`). It does not evaluate `par`, so those
//!    checks run on par-free programs;
//! 2. **Ablation** — `monsem-bench` compares closure continuations against
//!    defunctionalized frames (DESIGN.md §5).

use crate::env::{Env, LetrecPlan};
use crate::error::EvalError;
use crate::machine::{constant, prepare, EvalOptions};
use crate::value::{Closure, Value};
use monsem_syntax::Expr;
use std::rc::Rc;
use std::sync::Arc;

/// `Ans` — the final answer domain of the transliteration.
type Ans = Result<Value, EvalError>;

/// A trampoline step: either a final answer or more work.
enum Bounce {
    Done(Ans),
    More(Box<dyn FnOnce() -> Bounce>),
}

/// `Kont = V → Ans` (boxed, single-shot).
type Kont = Box<dyn FnOnce(Value) -> Bounce>;

fn done_err(e: EvalError) -> Bounce {
    Bounce::Done(Err(e))
}

/// One clause application of the valuation function. Every recursive call
/// is wrapped in [`Bounce::More`], so Rust stack depth stays constant and
/// the trampoline loop can meter fuel.
fn step(expr: Arc<Expr>, env: Env, k: Kont) -> Bounce {
    match &*expr {
        Expr::Con(c) => k(constant(c)),
        Expr::VarAt(_, addr) => k(env.lookup_addr(addr)),
        Expr::Var(x) => match env.lookup(x) {
            Some(v) => k(v),
            None => done_err(EvalError::UnboundVariable(x.clone())),
        },
        Expr::Lambda(l) => k(Value::Closure(Rc::new(Closure {
            param: l.param.clone(),
            body: l.body.clone(),
            env,
        }))),
        Expr::If(c, t, e) => {
            let (c, t, e) = (c.clone(), t.clone(), e.clone());
            let env2 = env.clone();
            Bounce::More(Box::new(move || {
                step(
                    c,
                    env2,
                    Box::new(move |v| match v {
                        Value::Bool(true) => Bounce::More(Box::new(move || step(t, env, k))),
                        Value::Bool(false) => Bounce::More(Box::new(move || step(e, env, k))),
                        other => done_err(EvalError::NonBooleanCondition(other.to_string())),
                    }),
                )
            }))
        }
        Expr::App(f, a) => {
            // E⟦e₂⟧ ρ {λv₂. E⟦e₁⟧ ρ {λv₁. (v₁|Fun) v₂ κ}}
            let (f, a) = (f.clone(), a.clone());
            let env2 = env.clone();
            Bounce::More(Box::new(move || {
                step(
                    a,
                    env2,
                    Box::new(move |v2| {
                        Bounce::More(Box::new(move || {
                            step(f, env, Box::new(move |v1| apply(v1, v2, k)))
                        }))
                    }),
                )
            }))
        }
        Expr::Let(x, v, b) => {
            let (x, v, b) = (x.clone(), v.clone(), b.clone());
            let env2 = env.clone();
            Bounce::More(Box::new(move || {
                step(
                    v,
                    env2,
                    Box::new(move |value| {
                        let env = env.extend(x, value);
                        Bounce::More(Box::new(move || step(b, env, k)))
                    }),
                )
            }))
        }
        Expr::Letrec(bs, body) => {
            let plan = Rc::new(LetrecPlan::of(bs));
            let env = if plan.values == 0 {
                plan.push_rec(&env)
            } else {
                env
            };
            bind_from(plan, 0, body.clone(), env, k)
        }
        Expr::Ann(_, inner) => {
            let inner = inner.clone();
            Bounce::More(Box::new(move || step(inner, env, k)))
        }
        Expr::Seq(a, b) => {
            let (a, b) = (a.clone(), b.clone());
            let env2 = env.clone();
            Bounce::More(Box::new(move || {
                step(
                    a,
                    env2,
                    Box::new(move |_| Bounce::More(Box::new(move || step(b, env, k)))),
                )
            }))
        }
        Expr::Assign(..) => done_err(EvalError::UnsupportedConstruct("assignment")),
        Expr::While(..) => done_err(EvalError::UnsupportedConstruct("while")),
        Expr::Par(..) => done_err(EvalError::UnsupportedConstruct(
            "par (only the strict machines evaluate it)",
        )),
    }
}

/// Evaluates the `index`-th planned letrec binding, then the rest, then
/// the body (pushing the rec frame after the value bindings).
fn bind_from(plan: Rc<LetrecPlan>, index: usize, body: Arc<Expr>, env: Env, k: Kont) -> Bounce {
    if index == plan.ordered.len() {
        return Bounce::More(Box::new(move || step(body, env, k)));
    }
    let value_expr = plan.ordered[index].value.clone();
    let env2 = env.clone();
    Bounce::More(Box::new(move || {
        step(
            value_expr,
            env2,
            Box::new(move |v| {
                let mut env = plan.bind(&env, index, v);
                if index + 1 == plan.values {
                    env = plan.push_rec(&env);
                }
                bind_from(plan, index + 1, body, env, k)
            }),
        )
    }))
}

/// `(v₁|Fun) v₂ κ`.
fn apply(fun: Value, arg: Value, k: Kont) -> Bounce {
    match fun {
        Value::Closure(c) => {
            let env = c.env.extend(c.param.clone(), arg);
            let body = c.body.clone();
            Bounce::More(Box::new(move || step(body, env, k)))
        }
        Value::Prim(p, collected) => {
            let mut args = collected.as_ref().clone();
            args.push(arg);
            if args.len() == p.arity() {
                match p.apply(&args) {
                    Ok(v) => k(v),
                    Err(e) => done_err(e),
                }
            } else {
                k(Value::Prim(p, Rc::new(args)))
            }
        }
        other => done_err(EvalError::NotAFunction(other.to_string())),
    }
}

/// Evaluates `expr` with boxed-closure continuations.
///
/// # Errors
///
/// Any [`EvalError`] the program provokes.
pub fn eval_cps(expr: &Expr) -> Result<Value, EvalError> {
    eval_cps_with(expr, &Env::empty(), &EvalOptions::default())
}

/// Evaluates `expr` in `env`, metering fuel at the trampoline.
///
/// # Errors
///
/// Any [`EvalError`] the program provokes, including
/// [`EvalError::FuelExhausted`].
pub fn eval_cps_with(expr: &Expr, env: &Env, options: &EvalOptions) -> Result<Value, EvalError> {
    // κ_init = {λv. φ v} with φ the identity here; answer algebras are
    // applied by callers (see `answer`).
    let mut bounce = step(
        prepare(expr, env, options),
        env.clone(),
        Box::new(|v| Bounce::Done(Ok(v))),
    );
    let mut fuel = options.fuel;
    loop {
        match bounce {
            Bounce::Done(ans) => return ans,
            Bounce::More(f) => {
                if fuel == 0 {
                    return Err(EvalError::FuelExhausted);
                }
                fuel -= 1;
                bounce = f();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::eval;
    use monsem_syntax::parse_expr;

    const PROGRAMS: &[&str] = &[
        "letrec fac = lambda x. if x = 0 then 1 else x * (fac (x - 1)) in fac 10",
        "letrec fib = lambda n. if n < 2 then n else (fib (n-1)) + (fib (n-2)) in fib 12",
        "let twice = lambda f. lambda x. f (f x) in twice (lambda n. n * 2) 5",
        "letrec sum = lambda l. if null? l then 0 else (hd l) + (sum (tl l)) in sum [1,2,3]",
        "letrec even = lambda n. if n = 0 then true else odd (n - 1) \
         and odd = lambda n. if n = 0 then false else even (n - 1) in even 9",
        "letrec a = 2 in letrec b = a * 3 in a + b",
        "{root}:(letrec f = lambda x. {l}:(x + 1) in f 41)",
        "1 + true",
        "missing (1 / 0)",
        "hd []",
    ];

    #[test]
    fn agrees_with_the_machine_on_values_and_errors() {
        for src in PROGRAMS {
            let e = parse_expr(src).unwrap();
            assert_eq!(eval_cps(&e), eval(&e), "program: {src}");
        }
    }

    #[test]
    fn deep_recursion_is_stack_safe() {
        let e = parse_expr(
            "letrec count = lambda n. if n = 0 then 0 else count (n - 1) in count 100000",
        )
        .unwrap();
        assert_eq!(eval_cps(&e), Ok(Value::Int(0)));
    }

    #[test]
    fn fuel_is_metered_at_the_trampoline() {
        let e = parse_expr("letrec loop = lambda x. loop x in loop 0").unwrap();
        assert_eq!(
            eval_cps_with(&e, &Env::empty(), &EvalOptions::with_fuel(5_000)),
            Err(EvalError::FuelExhausted)
        );
    }
}
