//! The imperative language module (§9.2).
//!
//! Extends `L_λ` with assignment `x := e`, sequencing `e₁ ; e₂` and
//! `while e₁ do e₂ end`, under a store-threading continuation semantics:
//! every binder allocates a store location, environments map identifiers
//! to locations, and variable reference dereferences the store. Closures
//! capture location-bearing environments, so mutation is visible through
//! captured variables — the behaviour a Pascal-style monitor like Magpie's
//! demons (§8) observes.
//!
//! One machine serves both semantics. [`eval_monitored_imperative`] is the
//! Definition 4.2 construction; its monitoring functions receive a
//! [`Scope`] that carries the store, so a monitor can observe the *current
//! contents* of mutable variables. [`eval_imperative`] runs the same
//! machine with [`NoMonitor`], which accepts no annotation.

use crate::env::{Env, LetrecPlan};
use crate::error::EvalError;
use crate::machine::{constant, prepare, EvalOptions};
use crate::scope::Scope;
use crate::spec::{HookPhase, Monitor, NoMonitor, Outcome};
use crate::value::{Closure, Value};
use monsem_syntax::{Expr, Ident};
use std::rc::Rc;
use std::sync::Arc;

/// The store `σ : Loc → V`.
#[derive(Debug, Clone, Default)]
pub struct Store(Vec<Value>);

impl Store {
    /// An empty store.
    pub fn new() -> Store {
        Store::default()
    }

    /// Allocates a fresh location holding `v`.
    pub fn alloc(&mut self, v: Value) -> usize {
        self.0.push(v);
        self.0.len() - 1
    }

    /// Reads a location.
    pub fn read(&self, loc: usize) -> &Value {
        &self.0[loc]
    }

    /// Overwrites a location.
    pub fn write(&mut self, loc: usize, v: Value) {
        self.0[loc] = v;
    }

    /// Number of allocated cells.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no cell has been allocated.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[derive(Debug)]
enum Frame {
    Arg {
        func: Arc<Expr>,
        env: Env,
    },
    Apply {
        arg: Value,
    },
    Branch {
        then: Arc<Expr>,
        els: Arc<Expr>,
        env: Env,
    },
    Bind {
        name: Ident,
        body: Arc<Expr>,
        env: Env,
    },
    LetrecBind {
        plan: Rc<LetrecPlan>,
        index: usize,
        body: Arc<Expr>,
        env: Env,
    },
    Discard {
        second: Arc<Expr>,
        env: Env,
    },
    /// Store the value into the location and yield unit.
    Write {
        loc: usize,
    },
    /// Condition of a `while` just evaluated.
    LoopTest {
        cond: Arc<Expr>,
        body: Arc<Expr>,
        env: Env,
    },
    /// Body of a `while` just evaluated; re-test the condition.
    LoopBack {
        cond: Arc<Expr>,
        body: Arc<Expr>,
        env: Env,
    },
    /// `κ_post`: apply the post-monitoring function, with the store in
    /// scope, to the value of the annotated expression; `node` is the
    /// `{μ}:e` node itself.
    Post {
        node: Arc<Expr>,
        env: Env,
    },
}

enum State {
    Eval(Arc<Expr>, Env),
    Continue(Value),
}

/// Evaluates `expr` under the imperative semantics with a fresh store.
///
/// # Errors
///
/// Any [`EvalError`] the program provokes.
pub fn eval_imperative(expr: &Expr) -> Result<Value, EvalError> {
    eval_imperative_with(expr, &Env::empty(), &EvalOptions::default()).map(|(v, _)| v)
}

/// Evaluates `expr` under the imperative semantics, returning the value
/// and the final store.
///
/// # Errors
///
/// Any [`EvalError`] the program provokes, including
/// [`EvalError::FuelExhausted`].
pub fn eval_imperative_with(
    expr: &Expr,
    env: &Env,
    options: &EvalOptions,
) -> Result<(Value, Store), EvalError> {
    eval_monitored_imperative_with(expr, env, &NoMonitor, (), options).map(|(v, (), s)| (v, s))
}

/// Evaluates the annotated program imperatively under monitor `m`.
///
/// # Errors
///
/// Any [`EvalError`] the program provokes.
pub fn eval_monitored_imperative<M: Monitor>(
    expr: &Expr,
    monitor: &M,
) -> Result<(Value, M::State), EvalError> {
    eval_monitored_imperative_with(
        expr,
        &Env::empty(),
        monitor,
        monitor.initial_state(),
        &EvalOptions::default(),
    )
    .map(|(v, s, _)| (v, s))
}

/// Full-control variant of [`eval_monitored_imperative`]; also returns the
/// final store.
///
/// # Errors
///
/// Any [`EvalError`], including [`EvalError::FuelExhausted`].
pub fn eval_monitored_imperative_with<M: Monitor>(
    expr: &Expr,
    env: &Env,
    monitor: &M,
    sigma: M::State,
    options: &EvalOptions,
) -> Result<(Value, M::State, Store), EvalError> {
    let mut store = Store::new();
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
                            sigma = match monitor.try_pre(
                                ann,
                                inner,
                                &Scope::with_store(&env, &store),
                                sigma,
                            ) {
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
                    Value::Loc(l) => State::Continue(store.read(l).clone()),
                    v => State::Continue(v),
                },
                Expr::Var(x) => match env.lookup(x) {
                    Some(Value::Loc(l)) => State::Continue(store.read(l).clone()),
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
                    stack.push(Frame::Arg {
                        func: f.clone(),
                        env: env.clone(),
                    });
                    State::Eval(a.clone(), env)
                }
                Expr::Let(x, v, b) => {
                    stack.push(Frame::Bind {
                        name: x.clone(),
                        body: b.clone(),
                        env: env.clone(),
                    });
                    State::Eval(v.clone(), env)
                }
                Expr::Letrec(bs, body) => {
                    let plan = Rc::new(LetrecPlan::of(bs));
                    let env = if plan.values == 0 {
                        plan.push_rec(&env)
                    } else {
                        env
                    };
                    if plan.ordered.is_empty() {
                        State::Eval(body.clone(), env)
                    } else {
                        let first = plan.ordered[0].value.clone();
                        stack.push(Frame::LetrecBind {
                            plan,
                            index: 0,
                            body: body.clone(),
                            env: env.clone(),
                        });
                        State::Eval(first, env)
                    }
                }
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
                Expr::Assign(x, e) => match env.lookup(x) {
                    Some(Value::Loc(l)) => {
                        stack.push(Frame::Write { loc: l });
                        State::Eval(e.clone(), env)
                    }
                    Some(_) => return Err(EvalError::NotAssignable(x.clone())),
                    None => return Err(EvalError::UnboundVariable(x.clone())),
                },
                Expr::While(c, b) => {
                    stack.push(Frame::LoopTest {
                        cond: c.clone(),
                        body: b.clone(),
                        env: env.clone(),
                    });
                    State::Eval(c.clone(), env)
                }
            },
            State::Continue(value) => match stack.pop() {
                None => return Ok((value, sigma, store)),
                Some(Frame::Post { node, env }) => {
                    let Expr::Ann(ann, expr) = &*node else {
                        return Err(EvalError::Internal("post frame without an annotation"));
                    };
                    if monitor.accepts_event(ann, HookPhase::Post) {
                        sigma = match monitor.try_post(
                            ann,
                            expr,
                            &Scope::with_store(&env, &store),
                            &value,
                            sigma,
                        ) {
                            Outcome::Continue(s) => s,
                            Outcome::Abort {
                                monitor, reason, ..
                            } => return Err(EvalError::MonitorAbort { monitor, reason }),
                        };
                    }
                    State::Continue(value)
                }
                Some(Frame::Arg { func, env }) => {
                    stack.push(Frame::Apply { arg: value });
                    State::Eval(func, env)
                }
                Some(Frame::Apply { arg }) => match value {
                    Value::Closure(c) => {
                        let loc = store.alloc(arg);
                        State::Eval(
                            c.body.clone(),
                            c.env.extend(c.param.clone(), Value::Loc(loc)),
                        )
                    }
                    Value::Prim(p, collected) => {
                        let mut args = collected.as_ref().clone();
                        args.push(arg);
                        if args.len() == p.arity() {
                            State::Continue(p.apply(&args)?)
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
                Some(Frame::Bind { name, body, env }) => {
                    let loc = store.alloc(value);
                    State::Eval(body, env.extend(name, Value::Loc(loc)))
                }
                Some(Frame::LetrecBind {
                    plan,
                    index,
                    body,
                    env,
                }) => {
                    // Function bindings stay immutable (recursion resolves
                    // through the rec frame, so mutating them would be
                    // unsound); value bindings get store cells.
                    let bound = if index < plan.values {
                        Value::Loc(store.alloc(value))
                    } else {
                        value
                    };
                    let mut env = plan.bind(&env, index, bound);
                    if index + 1 == plan.values {
                        env = plan.push_rec(&env);
                    }
                    if index + 1 < plan.ordered.len() {
                        let next = plan.ordered[index + 1].value.clone();
                        stack.push(Frame::LetrecBind {
                            plan,
                            index: index + 1,
                            body,
                            env: env.clone(),
                        });
                        State::Eval(next, env)
                    } else {
                        State::Eval(body, env)
                    }
                }
                Some(Frame::Discard { second, env }) => State::Eval(second, env),
                Some(Frame::Write { loc }) => {
                    store.write(loc, value);
                    State::Continue(Value::Unit)
                }
                Some(Frame::LoopTest { cond, body, env }) => match value {
                    Value::Bool(true) => {
                        stack.push(Frame::LoopBack {
                            cond,
                            body: body.clone(),
                            env: env.clone(),
                        });
                        State::Eval(body, env)
                    }
                    Value::Bool(false) => State::Continue(Value::Unit),
                    other => return Err(EvalError::NonBooleanCondition(other.to_string())),
                },
                Some(Frame::LoopBack { cond, body, env }) => {
                    stack.push(Frame::LoopTest {
                        cond: cond.clone(),
                        body,
                        env: env.clone(),
                    });
                    State::Eval(cond, env)
                }
            },
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monsem_syntax::{parse_expr, Annotation};

    fn run_imp(src: &str) -> Result<Value, EvalError> {
        eval_imperative(&parse_expr(src).expect("parses"))
    }

    #[test]
    fn assignment_and_while_compute_factorial() {
        assert_eq!(
            run_imp(
                "let n = 5 in let acc = 1 in \
                 (while n > 0 do acc := acc * n; n := n - 1 end); acc"
            ),
            Ok(Value::Int(120))
        );
    }

    #[test]
    fn closures_share_mutable_state() {
        assert_eq!(
            run_imp(
                "let counter = 0 in \
                 let bump = lambda u. counter := counter + 1 in \
                 bump (); bump (); bump (); counter"
            ),
            Ok(Value::Int(3))
        );
    }

    #[test]
    fn pure_programs_agree_with_the_pure_machine() {
        let src = "letrec fac = lambda x. if x = 0 then 1 else x * (fac (x - 1)) in fac 5";
        let e = parse_expr(src).unwrap();
        assert_eq!(eval_imperative(&e), crate::machine::eval(&e));
    }

    #[test]
    fn assignment_to_letrec_function_is_rejected() {
        assert_eq!(
            run_imp("letrec f = lambda x. x in (f := 1)"),
            Err(EvalError::NotAssignable(Ident::new("f")))
        );
    }

    #[test]
    fn while_with_non_boolean_condition_errors() {
        assert_eq!(
            run_imp("while 1 do 2 end"),
            Err(EvalError::NonBooleanCondition("1".into()))
        );
    }

    #[test]
    fn while_result_is_unit() {
        assert_eq!(
            run_imp("let x = 0 in while false do x := 1 end"),
            Ok(Value::Unit)
        );
    }

    #[test]
    fn parameters_are_assignable() {
        assert_eq!(
            run_imp("(lambda x. (x := x + 1; x)) 41"),
            Ok(Value::Int(42))
        );
    }

    #[test]
    fn final_store_is_observable() {
        let e = parse_expr("let x = 1 in x := 2; x").unwrap();
        let (v, store) = eval_imperative_with(&e, &Env::empty(), &EvalOptions::default()).unwrap();
        assert_eq!(v, Value::Int(2));
        assert!(!store.is_empty());
        assert_eq!(store.read(0), &Value::Int(2));
    }

    #[test]
    fn annotations_are_transparent() {
        assert_eq!(run_imp("let x = 0 in {w}:(x := 5); x"), Ok(Value::Int(5)));
    }

    #[test]
    fn fuel_bounds_infinite_loops() {
        let e = parse_expr("while true do 1 end").unwrap();
        assert_eq!(
            eval_imperative_with(&e, &Env::empty(), &EvalOptions::with_fuel(1000)).map(|(v, _)| v),
            Err(EvalError::FuelExhausted)
        );
    }

    /// Watches a named mutable variable at annotated points: records its
    /// current store contents at each `pre` event.
    #[derive(Debug, Clone)]
    struct Watch(Ident);
    impl Monitor for Watch {
        type State = Vec<Value>;
        fn name(&self) -> &str {
            "watch"
        }
        fn initial_state(&self) -> Vec<Value> {
            Vec::new()
        }
        fn pre(
            &self,
            _: &Annotation,
            _: &Expr,
            scope: &Scope<'_>,
            mut s: Vec<Value>,
        ) -> Vec<Value> {
            if let Some(v) = scope.lookup(&self.0) {
                s.push(v);
            }
            s
        }
    }

    #[test]
    fn monitor_observes_mutation_through_the_store() {
        let e = parse_expr("let n = 0 in while n < 3 do {tick}:(n := n + 1) end; n").unwrap();
        let (v, seen) = eval_monitored_imperative(&e, &Watch(Ident::new("n"))).unwrap();
        assert_eq!(v, Value::Int(3));
        assert_eq!(seen, vec![Value::Int(0), Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn answers_match_the_unmonitored_imperative_machine() {
        let src = "let n = 5 in let acc = 1 in \
                   (while n > 0 do {step}:(acc := acc * n); n := n - 1 end); acc";
        let e = parse_expr(src).unwrap();
        let (v, _) = eval_monitored_imperative(&e, &Watch(Ident::new("acc"))).unwrap();
        assert_eq!(Ok(v), eval_imperative(&e));
        let (v, ()) = eval_monitored_imperative(&e, &NoMonitor).unwrap();
        assert_eq!(Ok(v), eval_imperative(&e));
    }

    #[test]
    fn abort_verdict_stops_imperative_evaluation_mid_loop() {
        /// Aborts as soon as the watched variable's store contents exceed
        /// the bound — a §8 demon with teeth, reading through the store.
        #[derive(Debug, Clone)]
        struct Ceiling(Ident, i64);
        impl Monitor for Ceiling {
            type State = ();
            fn name(&self) -> &str {
                "ceiling"
            }
            fn initial_state(&self) {}
            fn try_pre(&self, _: &Annotation, _: &Expr, scope: &Scope<'_>, _: ()) -> Outcome<()> {
                if let Some(Value::Int(n)) = scope.lookup(&self.0) {
                    if n > self.1 {
                        return Outcome::abort((), "ceiling", format!("{} reached {n}", self.0));
                    }
                }
                Outcome::Continue(())
            }
        }
        let e = parse_expr("let n = 0 in while true do {tick}:(n := n + 1) end; n").unwrap();
        assert_eq!(
            eval_monitored_imperative(&e, &Ceiling(Ident::new("n"), 2)).unwrap_err(),
            EvalError::MonitorAbort {
                monitor: "ceiling".into(),
                reason: "n reached 3".into(),
            }
        );
    }

    #[test]
    fn post_sees_the_assignment_result() {
        #[derive(Debug, Clone)]
        struct PostVals;
        impl Monitor for PostVals {
            type State = Vec<String>;
            fn name(&self) -> &str {
                "post-vals"
            }
            fn initial_state(&self) -> Vec<String> {
                Vec::new()
            }
            fn post(
                &self,
                _: &Annotation,
                _: &Expr,
                scope: &Scope<'_>,
                v: &Value,
                mut s: Vec<String>,
            ) -> Vec<String> {
                s.push(format!("{v} with x = {}", scope.render(&Ident::new("x"))));
                s
            }
        }
        let e = parse_expr("let x = 1 in {w}:(x := 2); x").unwrap();
        let (v, log) = eval_monitored_imperative(&e, &PostVals).unwrap();
        assert_eq!(v, Value::Int(2));
        // The assignment returns unit; the store already holds 2.
        assert_eq!(log, vec!["() with x = 2".to_string()]);
    }
}
