//! The lazy (call-by-need) language module (§9.2).
//!
//! The paper's Haskell environment "allows automatic integration of
//! monitoring tools with several language modules (lazy, strict and
//! imperative languages)". This module gives `L_λ` a call-by-need
//! semantics: function arguments and `let`/`letrec`-bound values are
//! suspended as memoized thunks and forced on first use.
//!
//! Primitives are strict in all arguments, and data constructors (`cons`)
//! are built from forced values, so laziness lives exactly in *bindings*:
//! an argument that is never used is never evaluated. Self-dependent
//! values are detected as [`EvalError::BlackHole`].
//!
//! One machine serves both semantics. [`eval_monitored_lazy`] is the
//! Definition 4.2 construction: one extra transition for `{μ}:e` and one
//! `κ_post` frame; everything else is the standard clause.
//! [`eval_lazy`] runs the same machine with [`NoMonitor`], which accepts no
//! annotation. Note that under call-by-need an annotation inside a
//! never-forced binding never fires — monitoring reflects the actual
//! demand-driven evaluation order, which is precisely what a lazy tracer
//! is for.

use crate::env::{Env, LetrecPlan};
use crate::error::EvalError;
use crate::machine::{constant, prepare, EvalOptions};
use crate::prims::Prim;
use crate::scope::Scope;
use crate::spec::{HookPhase, Monitor, NoMonitor, Outcome};
use crate::value::{Closure, ThunkRef, ThunkState, Value};
use monsem_syntax::{Binding, Expr};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Continuation frames of the lazy machine.
#[derive(Debug)]
enum Frame {
    /// After the function value of `e₁ e₂` arrives, apply it to a thunk of
    /// the (unevaluated) argument. Call-by-name order: the function
    /// expression is evaluated first.
    ApplyTo { arg: Arc<Expr>, env: Env },
    /// Waiting for the condition of an `if`.
    Branch {
        then: Arc<Expr>,
        els: Arc<Expr>,
        env: Env,
    },
    /// Memoize the value into the thunk being forced.
    Update(ThunkRef),
    /// A primitive waiting for its `index`-th argument to be forced.
    PrimArgs {
        prim: Prim,
        args: Vec<Value>,
        index: usize,
    },
    /// Discard and evaluate the second expression of a sequence.
    Discard { second: Arc<Expr>, env: Env },
    /// `κ_post`: apply the post-monitoring function to the value of the
    /// annotated expression; `node` is the `{μ}:e` node itself.
    Post { node: Arc<Expr>, env: Env },
}

enum State {
    Eval(Arc<Expr>, Env),
    Continue(Value),
}

/// Evaluates `expr` call-by-need in the initial environment.
///
/// # Errors
///
/// Any [`EvalError`]; additionally [`EvalError::BlackHole`] when a value
/// depends on itself.
pub fn eval_lazy(expr: &Expr) -> Result<Value, EvalError> {
    eval_lazy_with(expr, &Env::empty(), &EvalOptions::default())
}

/// Evaluates `expr` call-by-need in `env` with the given options.
///
/// # Errors
///
/// Same as [`eval_lazy`], plus [`EvalError::FuelExhausted`].
pub fn eval_lazy_with(expr: &Expr, env: &Env, options: &EvalOptions) -> Result<Value, EvalError> {
    eval_monitored_lazy_with(expr, env, &NoMonitor, (), options).map(|(v, ())| v)
}

/// Evaluates the annotated program call-by-need under monitor `m`.
///
/// # Errors
///
/// Any [`EvalError`] the program provokes.
pub fn eval_monitored_lazy<M: Monitor>(
    expr: &Expr,
    monitor: &M,
) -> Result<(Value, M::State), EvalError> {
    eval_monitored_lazy_with(
        expr,
        &Env::empty(),
        monitor,
        monitor.initial_state(),
        &EvalOptions::default(),
    )
}

/// Full-control variant of [`eval_monitored_lazy`].
///
/// # Errors
///
/// Any [`EvalError`], including [`EvalError::FuelExhausted`].
pub fn eval_monitored_lazy_with<M: Monitor>(
    expr: &Expr,
    env: &Env,
    monitor: &M,
    sigma: M::State,
    options: &EvalOptions,
) -> Result<(Value, M::State), EvalError> {
    let mut stack: Vec<Frame> = Vec::new();
    let mut state = State::Eval(prepare(expr, env, options), env.clone());
    let mut sigma = sigma;
    let mut fuel = options.fuel;

    loop {
        if fuel == 0 {
            return Err(EvalError::FuelExhausted);
        }
        fuel -= 1;

        state = match state {
            State::Eval(expr, env) => match &*expr {
                Expr::Ann(ann, inner) => {
                    if monitor.accepts(ann) {
                        if monitor.accepts_event(ann, HookPhase::Pre) {
                            sigma = match monitor.try_pre(ann, inner, &Scope::pure(&env), sigma) {
                                Outcome::Continue(s) => s,
                                Outcome::Abort {
                                    monitor, reason, ..
                                } => return Err(EvalError::MonitorAbort { monitor, reason }),
                            };
                        }
                        stack.push(Frame::Post {
                            node: expr.clone(),
                            env: env.clone(),
                        });
                    }
                    State::Eval(inner.clone(), env)
                }
                Expr::Con(c) => State::Continue(constant(c)),
                Expr::VarAt(_, addr) => match env.lookup_addr(addr) {
                    Value::Thunk(t) => force(t, &mut stack)?,
                    v => State::Continue(v),
                },
                Expr::Var(x) => match env.lookup(x) {
                    Some(Value::Thunk(t)) => force(t, &mut stack)?,
                    Some(v) => State::Continue(v),
                    None => return Err(EvalError::UnboundVariable(x.clone())),
                },
                Expr::Lambda(l) => State::Continue(Value::Closure(Rc::new(Closure {
                    param: l.param.clone(),
                    body: l.body.clone(),
                    env: env.clone(),
                }))),
                Expr::If(c, t, e) => {
                    stack.push(Frame::Branch {
                        then: t.clone(),
                        els: e.clone(),
                        env: env.clone(),
                    });
                    State::Eval(c.clone(), env)
                }
                Expr::App(f, a) => {
                    stack.push(Frame::ApplyTo {
                        arg: a.clone(),
                        env: env.clone(),
                    });
                    State::Eval(f.clone(), env)
                }
                Expr::Let(x, v, b) => {
                    let t = suspend(v.clone(), env.clone());
                    State::Eval(b.clone(), env.extend(x.clone(), t))
                }
                Expr::Letrec(bs, body) => State::Eval(body.clone(), letrec_env(bs, &env)),
                Expr::Seq(a, b) => {
                    stack.push(Frame::Discard {
                        second: b.clone(),
                        env: env.clone(),
                    });
                    State::Eval(a.clone(), env)
                }
                Expr::Par(..) => {
                    return Err(EvalError::UnsupportedConstruct(
                        "par (only the strict machines evaluate it)",
                    ))
                }
                Expr::Assign(..) => return Err(EvalError::UnsupportedConstruct("assignment")),
                Expr::While(..) => return Err(EvalError::UnsupportedConstruct("while")),
            },
            State::Continue(value) => match stack.pop() {
                None => return Ok((value, sigma)),
                Some(Frame::Post { node, env }) => {
                    let Expr::Ann(ann, expr) = &*node else {
                        return Err(EvalError::Internal("post frame without an annotation"));
                    };
                    if monitor.accepts_event(ann, HookPhase::Post) {
                        sigma = match monitor.try_post(ann, expr, &Scope::pure(&env), &value, sigma)
                        {
                            Outcome::Continue(s) => s,
                            Outcome::Abort {
                                monitor, reason, ..
                            } => return Err(EvalError::MonitorAbort { monitor, reason }),
                        };
                    }
                    State::Continue(value)
                }
                Some(Frame::ApplyTo { arg, env }) => match value {
                    Value::Closure(c) => {
                        let t = suspend(arg, env);
                        State::Eval(c.body.clone(), c.env.extend(c.param.clone(), t))
                    }
                    Value::Prim(p, collected) => {
                        let mut args = collected.as_ref().clone();
                        args.push(suspend(arg, env));
                        if args.len() == p.arity() {
                            prim_step(p, args, &mut stack)?
                        } else {
                            State::Continue(Value::Prim(p, Rc::new(args)))
                        }
                    }
                    other => return Err(EvalError::NotAFunction(other.to_string())),
                },
                Some(Frame::Branch { then, els, env }) => match value {
                    Value::Bool(true) => State::Eval(then, env),
                    Value::Bool(false) => State::Eval(els, env),
                    other => return Err(EvalError::NonBooleanCondition(other.to_string())),
                },
                Some(Frame::Update(t)) => {
                    *t.borrow_mut() = ThunkState::Forced(value.clone());
                    State::Continue(value)
                }
                Some(Frame::PrimArgs {
                    prim,
                    mut args,
                    index,
                }) => {
                    args[index] = value;
                    prim_step(prim, args, &mut stack)?
                }
                Some(Frame::Discard { second, env }) => State::Eval(second, env),
            },
        };
    }
}

/// Wraps an expression as a pending thunk (constants are bound directly —
/// a worthwhile and semantics-preserving shortcut).
fn suspend(expr: Arc<Expr>, env: Env) -> Value {
    if let Expr::Con(c) = &*expr {
        return constant(c);
    }
    Value::Thunk(Rc::new(RefCell::new(ThunkState::Pending { expr, env })))
}

/// Begins forcing a thunk: memoized values return immediately; pending
/// thunks are marked in-progress and entered under an update frame.
fn force(t: ThunkRef, stack: &mut Vec<Frame>) -> Result<State, EvalError> {
    let taken = {
        let mut state = t.borrow_mut();
        match &*state {
            ThunkState::Forced(v) => return Ok(State::Continue(v.clone())),
            ThunkState::InProgress => return Err(EvalError::BlackHole),
            ThunkState::Pending { .. } => std::mem::replace(&mut *state, ThunkState::InProgress),
        }
    };
    match taken {
        ThunkState::Pending { expr, env } => {
            stack.push(Frame::Update(t));
            Ok(State::Eval(expr, env))
        }
        _ => unreachable!("checked above"),
    }
}

/// Forces the first outstanding thunk among a primitive's arguments, or
/// applies the primitive once all are forced. Already-memoized thunks are
/// replaced inline without a machine step.
fn prim_step(prim: Prim, mut args: Vec<Value>, stack: &mut Vec<Frame>) -> Result<State, EvalError> {
    let mut i = 0;
    while i < args.len() {
        if let Value::Thunk(t) = &args[i] {
            let t = t.clone();
            let forced = {
                let state = t.borrow();
                match &*state {
                    ThunkState::Forced(v) => Some(v.clone()),
                    ThunkState::InProgress => return Err(EvalError::BlackHole),
                    ThunkState::Pending { .. } => None,
                }
            };
            match forced {
                Some(v) => {
                    args[i] = v;
                    continue;
                }
                None => {
                    stack.push(Frame::PrimArgs {
                        prim,
                        args: args.clone(),
                        index: i,
                    });
                    return force(t, stack);
                }
            }
        }
        i += 1;
    }
    Ok(State::Continue(prim.apply(&args)?))
}

/// Builds the `letrec` environment: lambda bindings go into a rec frame;
/// other bindings become thunks whose environment is the *final*
/// environment (patched after construction), so value bindings may refer
/// to each other — and a self-dependent value is caught as a black hole
/// rather than an unbound variable.
fn letrec_env(bs: &[Binding], env: &Env) -> Env {
    let plan = LetrecPlan::of(bs);
    let mut env = env.clone();
    let mut value_thunks: Vec<ThunkRef> = Vec::new();
    let mut annotated_thunks: Vec<ThunkRef> = Vec::new();
    let suspend_binding = |env: &Env, b: &Binding, created: &mut Vec<ThunkRef>| match suspend(
        b.value.clone(),
        Env::empty(),
    ) {
        Value::Thunk(t) => {
            created.push(t.clone());
            env.extend(b.name.clone(), Value::Thunk(t))
        }
        constant_value => env.extend(b.name.clone(), constant_value),
    };
    for b in &plan.ordered[..plan.values] {
        env = suspend_binding(&env, b, &mut value_thunks);
    }
    env = plan.push_rec(&env);
    let rec_env = env.clone();
    for b in &plan.ordered[plan.values..] {
        env = suspend_binding(&env, b, &mut annotated_thunks);
    }
    // Tie the knot. Value bindings see the *final* environment (shadow
    // frames included), so they may refer to the group's functions and
    // self-dependence surfaces as a black hole; the resolver leaves their
    // free variables unaddressed (barrier) precisely because the strict
    // engines give them a different, shorter view. Annotated lambda
    // bindings instead close over the rec-rooted environment — the one
    // shape the resolver predicts for the group's function bodies, and the
    // same shape the strict engines use after `LetrecPlan::bind` rebinds
    // shadows to the rec closure.
    for t in value_thunks {
        let mut state = t.borrow_mut();
        if let ThunkState::Pending { env: thunk_env, .. } = &mut *state {
            *thunk_env = env.clone();
        }
    }
    for t in annotated_thunks {
        let mut state = t.borrow_mut();
        if let ThunkState::Pending { env: thunk_env, .. } = &mut *state {
            *thunk_env = rec_env.clone();
        }
    }
    env
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::eval;
    use monsem_syntax::{parse_expr, Annotation, Ident};

    fn run_lazy(src: &str) -> Result<Value, EvalError> {
        eval_lazy(&parse_expr(src).expect("parses"))
    }

    #[test]
    fn agrees_with_strict_on_factorial() {
        let src = "letrec fac = lambda x. if x = 0 then 1 else x * (fac (x - 1)) in fac 6";
        let e = parse_expr(src).unwrap();
        assert_eq!(eval_lazy(&e), eval(&e));
        assert_eq!(eval_lazy(&e), Ok(Value::Int(720)));
    }

    #[test]
    fn unused_erroneous_argument_is_never_evaluated() {
        // Strict evaluation would divide by zero; call-by-need never
        // touches the argument.
        assert_eq!(run_lazy("(lambda x. 42) (1 / 0)"), Ok(Value::Int(42)));
    }

    /// Smallest fuel for which the program completes (binary search).
    fn min_fuel(e: &Expr) -> u64 {
        let (mut lo, mut hi) = (1u64, 50_000_000u64);
        assert!(eval_lazy_with(e, &Env::empty(), &EvalOptions::with_fuel(hi)).is_ok());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if eval_lazy_with(e, &Env::empty(), &EvalOptions::with_fuel(mid)).is_ok() {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    #[test]
    fn bindings_are_memoized_not_re_evaluated() {
        // With call-by-name (no memoization), using `x` four times would
        // pay for `fib 14` four times. Call-by-need pays once: the 4-use
        // program must cost far less than twice the 1-use program.
        const FIB: &str =
            "letrec fib = lambda n. if n < 2 then n else (fib (n-1)) + (fib (n-2)) in ";
        let once = parse_expr(&format!("{FIB} let x = fib 14 in x + 0")).unwrap();
        let four = parse_expr(&format!("{FIB} let x = fib 14 in x + x + x + x")).unwrap();
        let cost_once = min_fuel(&once);
        let cost_four = min_fuel(&four);
        assert!(
            cost_four < cost_once + cost_once / 2,
            "sharing lost: 1 use costs {cost_once}, 4 uses cost {cost_four}"
        );
    }

    #[test]
    fn black_hole_is_detected() {
        assert_eq!(run_lazy("letrec x = x + 1 in x"), Err(EvalError::BlackHole));
    }

    #[test]
    fn call_by_need_uses_function_first_order() {
        // The function position errors before the argument is touched.
        assert_eq!(
            run_lazy("missing (1 / 0)"),
            Err(EvalError::UnboundVariable(Ident::new("missing")))
        );
    }

    #[test]
    fn annotations_are_transparent() {
        assert_eq!(
            run_lazy("letrec f = lambda x. {l}:(x + 1) in {m}:(f 1)"),
            Ok(Value::Int(2))
        );
    }

    #[test]
    fn primitives_force_all_arguments() {
        assert_eq!(run_lazy("let x = 1 + 1 in x * x"), Ok(Value::Int(4)));
        assert_eq!(
            run_lazy("let bad = 1 / 0 in bad + 1"),
            Err(EvalError::DivisionByZero)
        );
    }

    #[test]
    fn lazy_letrec_value_bindings() {
        assert_eq!(
            run_lazy("letrec a = 1 + 1 in letrec b = a * 10 in b"),
            Ok(Value::Int(20))
        );
    }

    #[derive(Debug, Clone, Default)]
    struct Log;
    impl Monitor for Log {
        type State = Vec<String>;
        fn name(&self) -> &str {
            "log"
        }
        fn initial_state(&self) -> Vec<String> {
            Vec::new()
        }
        fn pre(&self, a: &Annotation, _: &Expr, _: &Scope<'_>, mut s: Vec<String>) -> Vec<String> {
            s.push(format!("pre {}", a.name()));
            s
        }
        fn post(
            &self,
            a: &Annotation,
            _: &Expr,
            _: &Scope<'_>,
            v: &Value,
            mut s: Vec<String>,
        ) -> Vec<String> {
            s.push(format!("post {} = {v}", a.name()));
            s
        }
    }

    #[test]
    fn answers_match_the_unmonitored_lazy_machine() {
        let e = parse_expr(
            "letrec fac = lambda x. {f}:if x = 0 then 1 else x * (fac (x - 1)) in fac 5",
        )
        .unwrap();
        let (v, _) = eval_monitored_lazy(&e, &Log).unwrap();
        assert_eq!(Ok(v), eval_lazy(&e));
        let (v, ()) = eval_monitored_lazy(&e, &NoMonitor).unwrap();
        assert_eq!(Ok(v), eval_lazy(&e));
    }

    #[test]
    fn unused_annotated_argument_never_fires_the_monitor() {
        let e = parse_expr("(lambda x. 1) ({never}:(2 + 3))").unwrap();
        let (v, log) = eval_monitored_lazy(&e, &Log).unwrap();
        assert_eq!(v, Value::Int(1));
        assert!(log.is_empty(), "monitor fired on unused binding: {log:?}");
    }

    #[test]
    fn forced_annotated_argument_fires_exactly_once_despite_two_uses() {
        let e = parse_expr("(lambda x. x + x) ({once}:(2 + 3))").unwrap();
        let (v, log) = eval_monitored_lazy(&e, &Log).unwrap();
        assert_eq!(v, Value::Int(10));
        assert_eq!(
            log,
            vec!["pre once".to_string(), "post once = 5".to_string()]
        );
    }

    #[test]
    fn abort_verdict_stops_lazy_evaluation() {
        #[derive(Debug)]
        struct NoBigValues;
        impl Monitor for NoBigValues {
            type State = ();
            fn name(&self) -> &str {
                "no-big"
            }
            fn initial_state(&self) {}
            fn try_post(
                &self,
                _: &Annotation,
                _: &Expr,
                _: &Scope<'_>,
                v: &Value,
                _: (),
            ) -> Outcome<()> {
                if matches!(v, Value::Int(i) if *i > 10) {
                    return Outcome::abort((), "no-big", format!("saw {v}"));
                }
                Outcome::Continue(())
            }
        }
        let e = parse_expr("let x = {x}:(6 * 7) in x + 1").unwrap();
        assert_eq!(
            eval_monitored_lazy(&e, &NoBigValues).unwrap_err(),
            EvalError::MonitorAbort {
                monitor: "no-big".into(),
                reason: "saw 42".into(),
            }
        );
        // A never-demanded annotation never gets the chance to abort.
        let e = parse_expr("let x = {x}:(6 * 7) in 1").unwrap();
        assert_eq!(
            eval_monitored_lazy(&e, &NoBigValues).unwrap(),
            (Value::Int(1), ())
        );
    }

    #[test]
    fn demand_order_shows_in_the_event_log() {
        // `y` is demanded before `x` because `+` forces left-to-right but
        // the outer expression is `y + x`... make it explicit:
        let e = parse_expr("let x = {x}:1 in let y = {y}:2 in y + x").unwrap();
        let (_, log) = eval_monitored_lazy(&e, &Log).unwrap();
        assert_eq!(
            log,
            vec!["pre y", "post y = 2", "pre x", "post x = 1"]
                .into_iter()
                .map(String::from)
                .collect::<Vec<_>>()
        );
    }
}
