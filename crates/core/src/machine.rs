//! The continuation semantics of `L_λ` as a defunctionalized machine:
//! the standard semantics of Figure 2 and the monitored semantics of
//! Figure 3 are one loop.
//!
//! Every clause of the paper's valuation functional `G_λ` becomes a machine
//! transition; every continuation becomes a frame on an explicit stack.
//! The correspondence, clause by clause:
//!
//! | Figure 2 | here |
//! |---|---|
//! | `⟦k⟧ : κ (K⟦k⟧)` | `Eval(Con) → Continue(value)` |
//! | `⟦x⟧ : κ (ρ x)` | `Eval(Var) → Continue(ρ x)` |
//! | `⟦lambda x.e⟧ : κ (… in Fun)` | `Eval(Lambda) → Continue(closure)` |
//! | `⟦if⟧ : E⟦e₁⟧ ρ {λv. v|Bool → …}` | push a `Branch` frame, eval `e₁` |
//! | `⟦e₁ e₂⟧ : E⟦e₂⟧ ρ {λv₂. E⟦e₁⟧ ρ {λv₁. (v₁|Fun) v₂ κ}}` | push an `Arg` frame, eval `e₂` **first** (the paper's order) |
//! | `⟦letrec⟧ : E⟦e₂⟧ ρ' κ` | rec frame in [`Env`], then eval the body |
//!
//! The machine is generic in a [`Monitor`] and adds exactly what
//! Definition 4.2 adds to the standard semantics:
//!
//! * a transition for `{μ}:e` the monitor accepts: thread the state
//!   through `updPre = M_pre ⟦μ⟧ ⟦e⟧ ρ`, push the post-processing
//!   continuation `κ_post` (a `Post` frame), and evaluate `e`;
//! * on return to `κ_post`: thread the state through
//!   `updPost = M_post ⟦μ⟧ ⟦e⟧ ρ v` and resume the original continuation;
//! * every other clause, including `{μ}:e` for a foreign annotation, is the
//!   standard one — the fixpoint of the derived functional exhibits the
//!   new behaviour at **all** levels of recursion, which here falls out of
//!   the machine loop handling every subexpression.
//!
//! The standard entry points ([`eval`], [`eval_with`], [`eval_stats`])
//! run the machine with [`NoMonitor`], which accepts no annotation: every
//! `{μ}:e` is skipped, so the machine *is* the oblivious functional
//! `G_obl` of Definition 7.1, and monomorphization removes the hook code.
//! The meaning of a monitored program is `MS → (Ans × MS)`: see
//! [`monitored_meaning`] for the literal form and [`eval_monitored`] for
//! the convenient one.

use crate::env::{Env, LetrecPlan};
use crate::error::EvalError;
use crate::resolve::resolve_for;
use crate::scope::Scope;
use crate::spec::{HookPhase, Monitor, NoMonitor, Outcome};
use crate::value::{Closure, Value};
use monsem_syntax::{Annotation, Con, Expr, Ident};
use std::rc::Rc;
use std::sync::Arc;

/// How variable occurrences are dispatched to the environment.
///
/// The default, [`LookupMode::ByAddress`], statically resolves the program
/// (`crate::resolve`) before the first transition and follows lexical
/// addresses at `Expr::VarAt` occurrences — zero comparisons on the hot
/// path. [`LookupMode::BySymbol`] skips the pass; it is the reference the
/// resolver's differential tests compare against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LookupMode {
    /// Resolve once, then follow `(depth, slot)` addresses
    /// ([`Env::lookup_addr`]); unresolved occurrences fall back to
    /// interned-symbol lookup.
    #[default]
    ByAddress,
    /// No resolution pass; every occurrence walks the chain comparing
    /// interned symbols ([`Env::lookup`]).
    BySymbol,
}

/// Evaluation options.
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Maximum number of machine transitions before
    /// [`EvalError::FuelExhausted`]. The default is effectively unlimited.
    pub fuel: u64,
    /// Variable lookup discipline; defaults to [`LookupMode::ByAddress`].
    pub lookup: LookupMode,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            fuel: u64::MAX,
            lookup: LookupMode::default(),
        }
    }
}

impl EvalOptions {
    /// Options with a step budget (used by property tests over generated
    /// programs, where nontermination must be cut off deterministically).
    pub fn with_fuel(fuel: u64) -> Self {
        EvalOptions {
            fuel,
            ..EvalOptions::default()
        }
    }

    /// Options with an explicit lookup discipline.
    pub fn with_lookup(lookup: LookupMode) -> Self {
        EvalOptions {
            lookup,
            ..EvalOptions::default()
        }
    }
}

/// The program an engine runs: lexically addressed under
/// [`LookupMode::ByAddress`], as written otherwise. Annotations are
/// structure, not binders, so the resolver threads `{μ}:e` through
/// unchanged and monitored transitions see the same addresses the
/// oblivious ones do.
pub(crate) fn prepare(expr: &Expr, env: &Env, options: &EvalOptions) -> Arc<Expr> {
    match options.lookup {
        LookupMode::ByAddress => Arc::new(resolve_for(expr, env)),
        LookupMode::BySymbol => Arc::new(expr.clone()),
    }
}

/// Defunctionalized continuations. A stack of frames is one continuation
/// `κ`; the empty stack is the initial continuation `κ_init`.
#[derive(Debug)]
enum Frame {
    /// Waiting for the argument value of `e₁ e₂`; then evaluate `e₁`.
    Arg { func: Arc<Expr>, env: Env },
    /// Waiting for the function value; then apply it to the saved argument.
    Apply { arg: Value },
    /// Waiting for the condition of an `if`.
    Branch {
        then: Arc<Expr>,
        els: Arc<Expr>,
        env: Env,
    },
    /// Waiting for the bound value of a `let`.
    Bind {
        name: Ident,
        body: Arc<Expr>,
        env: Env,
    },
    /// Waiting for the value of the `index`-th binding of a `letrec` (per
    /// the [`LetrecPlan`] order: values, rec frame, annotated lambdas).
    LetrecBind {
        plan: Rc<LetrecPlan>,
        index: usize,
        body: Arc<Expr>,
        env: Env,
    },
    /// Discard the value of `e₁` in `e₁ ; e₂` and evaluate `e₂`.
    Discard { second: Arc<Expr>, env: Env },
    /// Collecting the element values of a `par(e₁, …, eₙ)` left-to-right.
    /// This sequential ordering is the reference semantics for the
    /// fork-join machine (`monsem_monitor::parallel`): hooks fired inside
    /// the elements observe the same linear event order as any other
    /// expression.
    Par {
        items: Vec<Arc<Expr>>,
        done: Vec<Value>,
        env: Env,
    },
    /// `κ_post = {λv. (κ v) ∘ updPost}`: when the value of the annotated
    /// expression arrives, apply the post-monitoring function and fall
    /// through to the continuation below. `node` is the `{μ}:e` node
    /// itself, which keeps this frame as small as the others.
    Post { node: Arc<Expr>, env: Env },
}

/// Machine states: evaluating an expression, or returning a value to the
/// topmost frame.
enum State {
    Eval(Arc<Expr>, Env),
    Continue(Value),
}

/// Statistics from a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Machine transitions taken.
    pub steps: u64,
    /// High-water mark of the continuation stack.
    pub max_stack: usize,
}

/// Rewrites a saturated `par_map f xs` into entering `par(f x₁, …, f xₙ)`
/// in a synthetic environment binding `f` and each list element under
/// names no source program can shadow (they are not lexable). Shared by
/// the sequential and fork-join strict machines, so `par_map` inherits all
/// of `par`'s machinery — including fork-join sharding under the parallel
/// machine.
pub fn par_map_enter(f: Value, xs: Value) -> Result<(Arc<Expr>, Env), EvalError> {
    let items = xs.iter_list().ok_or_else(|| EvalError::TypeError {
        expected: "a proper list",
        found: xs.to_string(),
        operation: "par_map",
    })?;
    let fun_name = Ident::new("·par_map·f");
    let mut env = Env::empty().extend(fun_name.clone(), f);
    let mut elems = Vec::with_capacity(items.len());
    for (i, item) in items.into_iter().enumerate() {
        let x = Ident::new(format!("·par_map·x{i}"));
        env = env.extend(x.clone(), item.clone());
        elems.push(Arc::new(Expr::App(
            Arc::new(Expr::Var(fun_name.clone())),
            Arc::new(Expr::Var(x)),
        )));
    }
    Ok((Arc::new(Expr::Par(elems)), env))
}

/// Evaluates `expr` in the initial (primitive-only) environment.
///
/// # Errors
///
/// Any [`EvalError`] the program provokes.
///
/// ```
/// use monsem_core::{machine::eval, value::Value};
/// use monsem_syntax::parse_expr;
/// let e = parse_expr("(lambda x. x * x) 7")?;
/// assert_eq!(eval(&e)?, Value::Int(49));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn eval(expr: &Expr) -> Result<Value, EvalError> {
    eval_with(expr, &Env::empty(), &EvalOptions::default())
}

/// Evaluates `expr` in `env` with the given options.
///
/// # Errors
///
/// Any [`EvalError`] the program provokes, including
/// [`EvalError::FuelExhausted`] when the step budget runs out.
pub fn eval_with(expr: &Expr, env: &Env, options: &EvalOptions) -> Result<Value, EvalError> {
    eval_stats(expr, env, options).0
}

/// Evaluates `expr` and applies an answer algebra's `φ` as the initial
/// continuation would: `κ_init = {λv. φ v}` (§3.1).
///
/// # Errors
///
/// Any [`EvalError`] the program provokes, or the algebra's rejection of
/// the final value.
///
/// ```
/// use monsem_core::answer::StringAnswer;
/// use monsem_core::machine::eval_with_algebra;
/// use monsem_syntax::parse_expr;
/// let e = parse_expr("6 * 7")?;
/// assert_eq!(eval_with_algebra(&e, &StringAnswer)?, "The result is: 42");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn eval_with_algebra<Alg: crate::answer::AnswerAlgebra>(
    expr: &Expr,
    algebra: &Alg,
) -> Result<Alg::Ans, EvalError> {
    let value = eval(expr)?;
    algebra.phi(value)
}

/// Like [`eval_with`] but also reports [`EvalStats`].
pub fn eval_stats(
    expr: &Expr,
    env: &Env,
    options: &EvalOptions,
) -> (Result<Value, EvalError>, EvalStats) {
    let mut exec = Execution::new(expr, env, &NoMonitor, (), options);
    let result = exec.run();
    let stats = EvalStats {
        steps: exec.steps_taken(),
        max_stack: exec.max_stack,
    };
    (result, stats)
}

/// Evaluates the annotated program under monitor `m`, starting from the
/// monitor's initial state. Returns the pair `(Ans, MS)` — the paper's
/// `(fix Ḡ) ⟦s̄⟧ a* κ σ`.
///
/// # Errors
///
/// Any [`EvalError`] the program provokes. Soundness (Theorem 7.7)
/// guarantees the error (or value) is the one the standard semantics
/// produces.
pub fn eval_monitored<M: Monitor>(
    expr: &Expr,
    monitor: &M,
) -> Result<(Value, M::State), EvalError> {
    eval_monitored_with(
        expr,
        &Env::empty(),
        monitor,
        monitor.initial_state(),
        &EvalOptions::default(),
    )
}

/// The meaning of a program in monitoring semantics: `MS → (Ans × MS)`.
///
/// This is the answer-transformer view of §2 made literal — partially
/// applying everything but the initial monitor state.
pub fn monitored_meaning<'a, M: Monitor>(
    expr: &'a Expr,
    monitor: &'a M,
) -> impl Fn(M::State) -> Result<(Value, M::State), EvalError> + 'a {
    move |sigma| eval_monitored_with(expr, &Env::empty(), monitor, sigma, &EvalOptions::default())
}

/// Evaluates under monitor `m` in `env`, from an explicit initial monitor
/// state, with options.
///
/// # Errors
///
/// Any [`EvalError`] the program provokes, including
/// [`EvalError::FuelExhausted`].
pub fn eval_monitored_with<M: Monitor>(
    expr: &Expr,
    env: &Env,
    monitor: &M,
    sigma: M::State,
    options: &EvalOptions,
) -> Result<(Value, M::State), EvalError> {
    Execution::new(expr, env, monitor, sigma, options).finish()
}

/// [`eval_monitored_with`] that additionally reports the number of
/// machine transitions taken — the same count the fuel budget meters, so
/// callers (the fork-join driver, accounting tests) can charge the steps
/// a sub-evaluation consumed back against an enclosing budget.
///
/// # Errors
///
/// As for [`eval_monitored_with`].
pub fn eval_monitored_stats_with<M: Monitor>(
    expr: &Expr,
    env: &Env,
    monitor: &M,
    sigma: M::State,
    options: &EvalOptions,
) -> Result<(Value, M::State, u64), EvalError> {
    let mut exec = Execution::new(expr, env, monitor, sigma, options);
    let answer = exec.run()?;
    let sigma = exec.take_sigma()?;
    Ok((answer, sigma, exec.steps_taken()))
}

/// A monitoring event, as surfaced by [`Execution::next_event`].
///
/// Events are emitted *after* the corresponding monitoring function has
/// updated the monitor state, so `Execution::monitor_state` always shows
/// the post-event σ.
#[derive(Debug, Clone)]
pub enum Event {
    /// Evaluation entered an accepted annotated expression
    /// (`M_pre` has run).
    Pre {
        /// The annotation.
        ann: Annotation,
        /// The annotated expression.
        expr: Arc<Expr>,
        /// The environment at the program point.
        env: Env,
    },
    /// The annotated expression produced a value (`M_post` has run).
    Post {
        /// The annotation.
        ann: Annotation,
        /// The annotated expression.
        expr: Arc<Expr>,
        /// The environment at the program point.
        env: Env,
        /// The produced value.
        value: Value,
    },
    /// Evaluation completed with the program's answer.
    Done {
        /// The final answer.
        answer: Value,
    },
}

/// A **resumable** monitored evaluation: the §8 remark that interactive
/// monitors need "an input as well as an output stream" as a pull API.
///
/// Each call to [`Execution::next_event`] advances the machine to the
/// next monitoring event (or to completion), handing control back to the
/// caller in between — the substrate for interactive debuggers, steppers
/// and front ends, which the scripted debugger monitor approximates in
/// batch.
///
/// ```
/// use monsem_core::machine::{EvalOptions, Event, Execution};
/// use monsem_core::spec::IdentityMonitor;
/// use monsem_core::Env;
/// use monsem_syntax::parse_expr;
///
/// let prog = parse_expr("{a}:1 + {b}:2")?;
/// let mut exec =
///     Execution::new(&prog, &Env::empty(), &IdentityMonitor, (), &EvalOptions::default());
/// let mut seen = Vec::new();
/// while let Some(event) = exec.next_event()? {
///     match event {
///         Event::Pre { ann, .. } => seen.push(format!("pre {}", ann.name())),
///         Event::Post { ann, value, .. } => seen.push(format!("post {} = {value}", ann.name())),
///         Event::Done { answer } => seen.push(format!("done {answer}")),
///     }
/// }
/// assert_eq!(seen, ["pre b", "post b = 2", "pre a", "post a = 1", "done 3"]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Execution<'m, M: Monitor> {
    monitor: &'m M,
    stack: Vec<Frame>,
    state: Option<State>,
    sigma: Option<M::State>,
    /// The terminal answer or error, recorded when the event stream ends.
    outcome: Option<Result<Value, EvalError>>,
    fuel: u64,
    initial_fuel: u64,
    max_stack: usize,
}

impl<'m, M: Monitor> Execution<'m, M> {
    /// Prepares a monitored evaluation (no work happens until the first
    /// [`Execution::next_event`]).
    pub fn new(
        expr: &Expr,
        env: &Env,
        monitor: &'m M,
        sigma: M::State,
        options: &EvalOptions,
    ) -> Self {
        Execution {
            monitor,
            stack: Vec::new(),
            state: Some(State::Eval(prepare(expr, env, options), env.clone())),
            sigma: Some(sigma),
            outcome: None,
            fuel: options.fuel,
            initial_fuel: options.fuel,
            max_stack: 0,
        }
    }

    /// Machine transitions taken so far — the count the fuel budget
    /// meters (each transition decrements the fuel by one).
    pub fn steps_taken(&self) -> u64 {
        self.initial_fuel - self.fuel
    }

    /// The current monitor state σ (present until [`Execution::finish`]
    /// consumes it).
    pub fn monitor_state(&self) -> Option<&M::State> {
        self.sigma.as_ref()
    }

    /// Advances to the next monitoring event. Returns `Ok(None)` once the
    /// execution has already delivered [`Event::Done`] (or failed).
    ///
    /// # Errors
    ///
    /// Any [`EvalError`]; after an error the execution is finished.
    pub fn next_event(&mut self) -> Result<Option<Event>, EvalError> {
        let event = self.advance();
        if let Err(err) = &event {
            self.outcome = Some(Err(err.clone()));
        }
        event
    }

    /// Drives the execution to completion, discarding intermediate events.
    /// After earlier polling this returns what the stream ended with: the
    /// answer, or the error an earlier [`Execution::next_event`] reported.
    ///
    /// # Errors
    ///
    /// Any [`EvalError`] the program provokes.
    pub fn finish(mut self) -> Result<(Value, M::State), EvalError> {
        let answer = self.run()?;
        Ok((answer, self.take_sigma()?))
    }

    /// Runs to the end of the event stream and returns its outcome,
    /// leaving σ in place.
    fn run(&mut self) -> Result<Value, EvalError> {
        while self.next_event()?.is_some() {}
        self.outcome.take().unwrap_or(Err(EvalError::Internal(
            "execution ended without an outcome",
        )))
    }

    fn take_sigma(&mut self) -> Result<M::State, EvalError> {
        self.sigma
            .take()
            .ok_or(EvalError::Internal("monitor state missing at completion"))
    }

    fn advance(&mut self) -> Result<Option<Event>, EvalError> {
        let Some(mut state) = self.state.take() else {
            return Ok(None);
        };
        let monitor = self.monitor;
        loop {
            if self.fuel == 0 {
                return Err(EvalError::FuelExhausted);
            }
            self.fuel -= 1;
            self.max_stack = self.max_stack.max(self.stack.len());

            state = match state {
                State::Eval(expr, env) => match &*expr {
                    // ⟦{μ}:e⟧ : (V̄⟦e⟧ ρ κ_post) ∘ updPre — for annotations
                    // the monitor accepts; foreign annotations are skipped
                    // exactly as the standard semantics skips all of them.
                    Expr::Ann(ann, inner) => {
                        if monitor.accepts(ann) {
                            // `accepts_event` may rule a phase's hook the
                            // identity; the frame and session event stream
                            // are unchanged either way.
                            if monitor.accepts_event(ann, HookPhase::Pre) {
                                let sigma = self.sigma.take().ok_or(EvalError::Internal(
                                    "monitor state missing at pre hook",
                                ))?;
                                match monitor.try_pre(ann, inner, &Scope::pure(&env), sigma) {
                                    Outcome::Continue(s) => self.sigma = Some(s),
                                    Outcome::Abort {
                                        state,
                                        monitor,
                                        reason,
                                    } => {
                                        // The final σ stays observable through
                                        // `monitor_state` for post-mortem reports.
                                        self.sigma = Some(state);
                                        return Err(EvalError::MonitorAbort { monitor, reason });
                                    }
                                }
                            }
                            self.stack.push(Frame::Post {
                                node: expr.clone(),
                                env: env.clone(),
                            });
                            let event = Event::Pre {
                                ann: ann.clone(),
                                expr: inner.clone(),
                                env: env.clone(),
                            };
                            self.state = Some(State::Eval(inner.clone(), env));
                            return Ok(Some(event));
                        }
                        State::Eval(inner.clone(), env)
                    }
                    Expr::Con(c) => State::Continue(constant(c)),
                    Expr::VarAt(_, addr) => State::Continue(env.lookup_addr(addr)),
                    Expr::Var(x) => match env.lookup(x) {
                        Some(v) => State::Continue(v),
                        None => return Err(EvalError::UnboundVariable(x.clone())),
                    },
                    Expr::Lambda(l) => State::Continue(Value::Closure(Rc::new(Closure {
                        param: l.param.clone(),
                        body: l.body.clone(),
                        env: env.clone(),
                    }))),
                    Expr::If(c, t, e) => {
                        self.stack.push(Frame::Branch {
                            then: t.clone(),
                            els: e.clone(),
                            env: env.clone(),
                        });
                        State::Eval(c.clone(), env)
                    }
                    Expr::App(f, a) => {
                        // Paper order: evaluate the argument first.
                        self.stack.push(Frame::Arg {
                            func: f.clone(),
                            env: env.clone(),
                        });
                        State::Eval(a.clone(), env)
                    }
                    Expr::Let(x, v, b) => {
                        self.stack.push(Frame::Bind {
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
                            self.stack.push(Frame::LetrecBind {
                                plan,
                                index: 0,
                                body: body.clone(),
                                env: env.clone(),
                            });
                            State::Eval(first, env)
                        }
                    }
                    Expr::Seq(a, b) => {
                        self.stack.push(Frame::Discard {
                            second: b.clone(),
                            env: env.clone(),
                        });
                        State::Eval(a.clone(), env)
                    }
                    Expr::Par(items) => match items.split_first() {
                        None => State::Continue(Value::Nil),
                        Some((first, _)) => {
                            self.stack.push(Frame::Par {
                                items: items.clone(),
                                done: Vec::new(),
                                env: env.clone(),
                            });
                            State::Eval(first.clone(), env)
                        }
                    },
                    Expr::Assign(..) => return Err(EvalError::UnsupportedConstruct("assignment")),
                    Expr::While(..) => return Err(EvalError::UnsupportedConstruct("while")),
                },
                State::Continue(value) => match self.stack.pop() {
                    None => {
                        self.outcome = Some(Ok(value.clone()));
                        return Ok(Some(Event::Done { answer: value }));
                    }
                    Some(Frame::Post { node, env }) => {
                        let Expr::Ann(ann, expr) = &*node else {
                            return Err(EvalError::Internal("post frame without an annotation"));
                        };
                        if monitor.accepts_event(ann, HookPhase::Post) {
                            let sigma = self
                                .sigma
                                .take()
                                .ok_or(EvalError::Internal("monitor state missing at post hook"))?;
                            match monitor.try_post(ann, expr, &Scope::pure(&env), &value, sigma) {
                                Outcome::Continue(s) => self.sigma = Some(s),
                                Outcome::Abort {
                                    state,
                                    monitor,
                                    reason,
                                } => {
                                    self.sigma = Some(state);
                                    return Err(EvalError::MonitorAbort { monitor, reason });
                                }
                            }
                        }
                        let event = Event::Post {
                            ann: ann.clone(),
                            expr: expr.clone(),
                            env,
                            value: value.clone(),
                        };
                        self.state = Some(State::Continue(value));
                        return Ok(Some(event));
                    }
                    Some(Frame::Arg { func, env }) => {
                        self.stack.push(Frame::Apply { arg: value });
                        State::Eval(func, env)
                    }
                    // (v₁|Fun) v₂ κ
                    Some(Frame::Apply { arg }) => match value {
                        Value::Closure(c) => {
                            State::Eval(c.body.clone(), c.env.extend(c.param.clone(), arg))
                        }
                        Value::Prim(p, collected) => {
                            let mut args = collected.as_ref().clone();
                            args.push(arg);
                            if args.len() == p.arity() {
                                if p == crate::prims::Prim::ParMap {
                                    let xs = args.pop().expect("par_map has two arguments");
                                    let f = args.pop().expect("par_map has two arguments");
                                    let (expr, env) = par_map_enter(f, xs)?;
                                    State::Eval(expr, env)
                                } else {
                                    State::Continue(p.apply(&args)?)
                                }
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
                        State::Eval(body, env.extend(name, value))
                    }
                    Some(Frame::LetrecBind {
                        plan,
                        index,
                        body,
                        env,
                    }) => {
                        let mut env = plan.bind(&env, index, value);
                        if index + 1 == plan.values {
                            env = plan.push_rec(&env);
                        }
                        if index + 1 < plan.ordered.len() {
                            let next = plan.ordered[index + 1].value.clone();
                            self.stack.push(Frame::LetrecBind {
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
                    Some(Frame::Par {
                        items,
                        mut done,
                        env,
                    }) => {
                        done.push(value);
                        match items.get(done.len()).cloned() {
                            Some(next) => {
                                let elem_env = env.clone();
                                self.stack.push(Frame::Par { items, done, env });
                                State::Eval(next, elem_env)
                            }
                            None => State::Continue(Value::list(done)),
                        }
                    }
                    Some(Frame::Discard { second, env }) => State::Eval(second, env),
                },
            };
        }
    }
}

/// `K : Con → V` — the meaning of constants (Figure 2).
pub fn constant(c: &Con) -> Value {
    match c {
        Con::Int(n) => Value::Int(*n),
        Con::Bool(b) => Value::Bool(*b),
        Con::Str(s) => Value::Str(s.clone()),
        Con::Nil => Value::Nil,
        Con::Unit => Value::Unit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs;
    use crate::spec::IdentityMonitor;
    use monsem_syntax::parse_expr;

    fn run_src(src: &str) -> Result<Value, EvalError> {
        eval(&parse_expr(src).expect("parses"))
    }

    #[test]
    fn factorial_of_five_is_120() {
        assert_eq!(
            run_src("letrec fac = lambda x. if x = 0 then 1 else x * (fac (x - 1)) in fac 5"),
            Ok(Value::Int(120))
        );
    }

    #[test]
    fn paper_profiler_program_evaluates_to_120_with_annotations() {
        assert_eq!(
            run_src(
                "letrec fac = lambda x. if (x = 0) then {A}:1 else {B}:(x * (fac (x - 1))) \
                 in fac 5"
            ),
            Ok(Value::Int(120))
        );
    }

    #[test]
    fn higher_order_functions() {
        assert_eq!(
            run_src("let twice = lambda f. lambda x. f (f x) in twice (lambda n. n + 3) 10"),
            Ok(Value::Int(16))
        );
    }

    #[test]
    fn application_evaluates_argument_first() {
        // The argument's division by zero fires even though the function
        // expression is unbound — matching the paper's order E⟦e₂⟧ first.
        assert_eq!(run_src("missing (1 / 0)"), Err(EvalError::DivisionByZero));
    }

    #[test]
    fn mutual_recursion_via_and() {
        assert_eq!(
            run_src(
                "letrec even = lambda n. if n = 0 then true else odd (n - 1) \
                 and odd = lambda n. if n = 0 then false else even (n - 1) in even 10"
            ),
            Ok(Value::Bool(true))
        );
    }

    #[test]
    fn letrec_with_non_lambda_rhs_behaves_sequentially() {
        assert_eq!(
            run_src("letrec a = 1 + 1 in letrec b = a * 10 in b"),
            Ok(Value::Int(20))
        );
    }

    #[test]
    fn letrec_mixing_values_and_functions() {
        assert_eq!(
            run_src("letrec base = 10 and add = lambda x. x + base in add 5"),
            // `base` is bound before `add` is *called* (all bindings are
            // evaluated before the body), so the call sees base = 10 via
            // the plain frame stacked above the rec frame.
            Ok(Value::Int(15))
        );
    }

    #[test]
    fn annotations_are_invisible_to_the_standard_semantics() {
        let plain = run_src("letrec f = lambda x. x * 2 in f 21");
        assert_eq!(plain, Ok(Value::Int(42)));
        let annotated = parse_expr("letrec f = lambda x. {lbl}:(x * 2) in {root}:(f 21)").unwrap();
        assert_eq!(eval(&annotated), plain);
        // The standard machine is the monitored one at `NoMonitor`, and the
        // identity monitor's events leave the answer alone too.
        assert_eq!(
            eval_monitored(&annotated, &NoMonitor).map(|(v, ())| v),
            plain
        );
        assert_eq!(
            eval_monitored(&annotated, &IdentityMonitor).map(|(v, ())| v),
            plain
        );
        assert_eq!(std::mem::size_of::<NoMonitor>(), 0);
    }

    #[test]
    fn deep_recursion_does_not_overflow_the_rust_stack() {
        assert_eq!(
            run_src("letrec count = lambda n. if n = 0 then 0 else count (n - 1) in count 200000"),
            Ok(Value::Int(0))
        );
    }

    #[test]
    fn fuel_exhaustion_is_reported() {
        let e = parse_expr("letrec loop = lambda x. loop x in loop 0").unwrap();
        assert_eq!(
            eval_with(&e, &Env::empty(), &EvalOptions::with_fuel(10_000)),
            Err(EvalError::FuelExhausted)
        );
    }

    #[test]
    fn runtime_errors_surface() {
        assert_eq!(
            run_src("1 + true"),
            Err(EvalError::TypeError {
                expected: "an integer",
                found: "true".into(),
                operation: "+",
            })
        );
        assert_eq!(
            run_src("nonexistent"),
            Err(EvalError::UnboundVariable(Ident::new("nonexistent")))
        );
        assert_eq!(
            run_src("1 2"),
            Err(EvalError::NotAFunction("1".to_string()))
        );
        assert_eq!(
            run_src("if 3 then 1 else 2"),
            Err(EvalError::NonBooleanCondition("3".into()))
        );
    }

    #[test]
    fn imperative_constructs_are_rejected_by_the_pure_machine() {
        assert_eq!(
            run_src("x := 1"),
            Err(EvalError::UnsupportedConstruct("assignment"))
        );
        assert_eq!(
            run_src("while true do 1 end"),
            Err(EvalError::UnsupportedConstruct("while"))
        );
    }

    #[test]
    fn seq_discards_the_first_value() {
        assert_eq!(run_src("1; 2"), Ok(Value::Int(2)));
    }

    #[test]
    fn list_programs() {
        assert_eq!(
            run_src(
                "letrec sum = lambda l. if null? l then 0 else (hd l) + (sum (tl l)) \
                 in sum [1, 2, 3, 4]"
            ),
            Ok(Value::Int(10))
        );
        assert_eq!(run_src("length (1 : 2 : [])"), Ok(Value::Int(2)));
    }

    #[test]
    fn curried_primitives_are_first_class() {
        assert_eq!(run_src("let inc = (+) 1 in inc 41"), Ok(Value::Int(42)));
        assert_eq!(
            run_src(
                "letrec map = lambda f. lambda l. \
                   if null? l then [] else (f (hd l)) : (map f (tl l)) \
                 in map ((+) 10) [1, 2]"
            ),
            Ok(Value::list([Value::Int(11), Value::Int(12)]))
        );
    }

    #[test]
    fn stats_count_steps_and_stack() {
        let e = parse_expr("1 + 2").unwrap();
        let (r, stats) = eval_stats(&e, &Env::empty(), &EvalOptions::default());
        assert_eq!(r, Ok(Value::Int(3)));
        assert!(stats.steps >= 5, "steps = {}", stats.steps);
        assert!(stats.max_stack >= 1);
    }

    #[test]
    fn shadowing_respects_lexical_scope() {
        assert_eq!(
            run_src("let x = 1 in (lambda x. x + 1) 10 + x"),
            Ok(Value::Int(12))
        );
    }

    #[test]
    fn closures_capture_their_environment() {
        assert_eq!(
            run_src(
                "let make = lambda n. lambda x. x + n in \
                 let add3 = make 3 in let add5 = make 5 in add3 1 + add5 1"
            ),
            Ok(Value::Int(10))
        );
    }

    #[test]
    fn par_yields_the_list_of_element_values() {
        assert_eq!(
            run_src("par(1 + 2, 4 * 5, 0 - 1)"),
            Ok(Value::list([Value::Int(3), Value::Int(20), Value::Int(-1)]))
        );
        assert_eq!(run_src("par()"), Ok(Value::Nil));
        assert_eq!(run_src("hd par(7, 8)"), Ok(Value::Int(7)));
    }

    #[test]
    fn par_evaluates_left_to_right() {
        // Each element closes over the same outer binding; ordering is
        // observable through error precedence: the leftmost failing
        // element decides the error.
        let err = run_src("par(1, 1 / 0, undefined_var)").unwrap_err();
        assert!(matches!(err, EvalError::DivisionByZero), "{err:?}");
    }

    #[test]
    fn par_map_applies_the_function_to_each_element() {
        assert_eq!(
            run_src("par_map (lambda x. x * x) [1, 2, 3, 4]"),
            Ok(Value::list([
                Value::Int(1),
                Value::Int(4),
                Value::Int(9),
                Value::Int(16)
            ]))
        );
        assert_eq!(run_src("par_map (lambda x. x) []"), Ok(Value::Nil));
    }

    #[test]
    fn par_map_requires_a_proper_list() {
        assert!(matches!(
            run_src("par_map (lambda x. x) 3"),
            Err(EvalError::TypeError { .. })
        ));
    }

    /// Records the interleaving of pre/post events with their labels —
    /// enough to check the *ordering* guarantees of §2.
    #[derive(Debug, Clone, Default)]
    struct EventLog;
    impl Monitor for EventLog {
        type State = Vec<String>;
        fn name(&self) -> &str {
            "event-log"
        }
        fn initial_state(&self) -> Vec<String> {
            Vec::new()
        }
        fn pre(
            &self,
            ann: &Annotation,
            _: &Expr,
            _: &Scope<'_>,
            mut s: Vec<String>,
        ) -> Vec<String> {
            s.push(format!("pre {}", ann.name()));
            s
        }
        fn post(
            &self,
            ann: &Annotation,
            _: &Expr,
            _: &Scope<'_>,
            v: &Value,
            mut s: Vec<String>,
        ) -> Vec<String> {
            s.push(format!("post {} = {v}", ann.name()));
            s
        }
    }

    #[test]
    fn identity_monitor_reproduces_standard_answers() {
        for prog in [
            programs::fac_ab(5),
            programs::fac_mul_traced(3),
            programs::inclist_demon(),
        ] {
            let standard = eval(&prog);
            let (v, ()) = eval_monitored(&prog, &IdentityMonitor).unwrap();
            assert_eq!(Ok(v), standard);
            let (v, ()) = eval_monitored(&prog, &NoMonitor).unwrap();
            assert_eq!(Ok(v), standard);
        }
    }

    #[test]
    fn pre_and_post_bracket_the_evaluation() {
        let e = parse_expr("{outer}:({inner}:(1 + 2) * 2)").unwrap();
        let (v, log) = eval_monitored(&e, &EventLog).unwrap();
        assert_eq!(v, Value::Int(6));
        assert_eq!(
            log,
            vec![
                "pre outer".to_string(),
                "pre inner".to_string(),
                "post inner = 3".to_string(),
                "post outer = 6".to_string(),
            ]
        );
    }

    #[test]
    fn events_follow_the_continuation_order() {
        // Application evaluates the argument before the function (Fig. 2).
        let e = parse_expr("({f}:(lambda x. x)) ({a}:1)").unwrap();
        let (_, log) = eval_monitored(&e, &EventLog).unwrap();
        assert_eq!(
            log,
            vec!["pre a", "post a = 1", "pre f", "post f = <function:x>"]
                .into_iter()
                .map(String::from)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn foreign_annotations_are_skipped() {
        struct OnlyNs;
        impl Monitor for OnlyNs {
            type State = u32;
            fn name(&self) -> &str {
                "only-ns"
            }
            fn accepts(&self, ann: &Annotation) -> bool {
                ann.namespace.as_str() == "mine"
            }
            fn initial_state(&self) -> u32 {
                0
            }
            fn pre(&self, _: &Annotation, _: &Expr, _: &Scope<'_>, n: u32) -> u32 {
                n + 1
            }
        }
        let e = parse_expr("{mine/a}:({other/b}:1)").unwrap();
        let (v, n) = eval_monitored(&e, &OnlyNs).unwrap();
        assert_eq!((v, n), (Value::Int(1), 1));
    }

    #[test]
    fn post_fires_with_the_value_of_a_recursive_call_each_time() {
        let e = parse_expr(
            "letrec fac = lambda x. {fac}:if x = 0 then 1 else x * (fac (x - 1)) in fac 3",
        )
        .unwrap();
        let (_, log) = eval_monitored(&e, &EventLog).unwrap();
        let posts: Vec<&String> = log.iter().filter(|l| l.starts_with("post")).collect();
        assert_eq!(
            posts,
            [
                "post fac = 1",
                "post fac = 1",
                "post fac = 2",
                "post fac = 6"
            ]
            .iter()
            .collect::<Vec<_>>()
        );
    }

    #[test]
    fn errors_abort_with_pending_posts_dropped() {
        let e = parse_expr("{a}:(1 / 0)").unwrap();
        assert_eq!(
            eval_monitored(&e, &EventLog).unwrap_err(),
            EvalError::DivisionByZero
        );
    }

    #[test]
    fn monitored_meaning_is_a_state_transformer() {
        let e = parse_expr("{a}:42").unwrap();
        let meaning = monitored_meaning(&e, &EventLog);
        let (v1, s1) = meaning(vec!["seed".into()]).unwrap();
        assert_eq!(v1, Value::Int(42));
        assert_eq!(
            s1,
            vec!["seed", "pre a", "post a = 42"]
                .into_iter()
                .map(String::from)
                .collect::<Vec<_>>()
        );
        // Different initial states, same answer — Definition 7.4's R.
        let (v2, _) = meaning(Vec::new()).unwrap();
        assert_eq!(v1, v2);
    }

    #[test]
    fn execution_pauses_at_events_and_exposes_sigma() {
        let e = parse_expr("{a}:({b}:1 + 2)").unwrap();
        let mut exec = Execution::new(
            &e,
            &Env::empty(),
            &EventLog,
            Vec::new(),
            &EvalOptions::default(),
        );
        // First event: pre a; σ already updated.
        let ev = exec.next_event().unwrap().unwrap();
        assert!(matches!(&ev, Event::Pre { ann, .. } if ann.name().as_str() == "a"));
        assert_eq!(exec.monitor_state().unwrap(), &vec!["pre a".to_string()]);
        // Second: pre b.
        assert!(matches!(
            exec.next_event().unwrap().unwrap(),
            Event::Pre { .. }
        ));
        // Third: post b with the value 1.
        let ev = exec.next_event().unwrap().unwrap();
        assert!(
            matches!(&ev, Event::Post { ann, value, .. }
                if ann.name().as_str() == "b" && *value == Value::Int(1)),
            "{ev:?}"
        );
        // Then post a = 3 and Done.
        assert!(matches!(
            exec.next_event().unwrap().unwrap(),
            Event::Post { .. }
        ));
        assert!(matches!(
            exec.next_event().unwrap().unwrap(),
            Event::Done {
                answer: Value::Int(3)
            }
        ));
        assert!(exec.next_event().unwrap().is_none(), "stream is exhausted");
    }

    #[test]
    fn execution_finish_after_partial_polling() {
        let e = parse_expr("{a}:40 + 2").unwrap();
        let mut exec = Execution::new(
            &e,
            &Env::empty(),
            &EventLog,
            Vec::new(),
            &EvalOptions::default(),
        );
        let _ = exec.next_event().unwrap(); // consume pre a
        let (v, log) = exec.finish().unwrap();
        assert_eq!(v, Value::Int(42));
        assert_eq!(log, vec!["pre a".to_string(), "post a = 40".to_string()]);
    }

    #[test]
    fn execution_errors_end_the_stream() {
        let e = parse_expr("{a}:(1 / 0)").unwrap();
        let mut exec = Execution::new(
            &e,
            &Env::empty(),
            &EventLog,
            Vec::new(),
            &EvalOptions::default(),
        );
        let _ = exec.next_event().unwrap(); // pre a
        assert_eq!(exec.next_event().unwrap_err(), EvalError::DivisionByZero);
        assert!(exec.next_event().unwrap().is_none());
    }

    #[test]
    fn finish_after_a_polled_error_returns_that_error() {
        let e = parse_expr("{a}:(1 / 0)").unwrap();
        let mut exec = Execution::new(
            &e,
            &Env::empty(),
            &EventLog,
            Vec::new(),
            &EvalOptions::default(),
        );
        assert!(matches!(exec.next_event(), Ok(Some(Event::Pre { .. }))));
        assert_eq!(exec.next_event().unwrap_err(), EvalError::DivisionByZero);
        assert_eq!(exec.finish().unwrap_err(), EvalError::DivisionByZero);
    }

    /// Aborts when a labelled point produces a value above `limit`.
    #[derive(Debug, Clone)]
    pub(crate) struct Bound(pub i64);
    impl Monitor for Bound {
        type State = u64;
        fn name(&self) -> &str {
            "bound"
        }
        fn initial_state(&self) -> u64 {
            0
        }
        fn try_post(
            &self,
            ann: &Annotation,
            _: &Expr,
            _: &Scope<'_>,
            v: &Value,
            n: u64,
        ) -> Outcome<u64> {
            if matches!(v, Value::Int(i) if *i > self.0) {
                return Outcome::abort(
                    n,
                    self.name(),
                    format!("`{}` produced {v}, over the bound {}", ann.name(), self.0),
                );
            }
            Outcome::Continue(n + 1)
        }
    }

    #[test]
    fn abort_verdict_stops_evaluation_with_reason() {
        let e = parse_expr("{a}:2 + {b}:99 + {c}:3").unwrap();
        let err = eval_monitored(&e, &Bound(10)).unwrap_err();
        assert_eq!(
            err,
            EvalError::MonitorAbort {
                monitor: "bound".into(),
                reason: "`b` produced 99, over the bound 10".into(),
            }
        );
        assert_eq!(
            err.to_string(),
            "monitor `bound` aborted evaluation: `b` produced 99, over the bound 10"
        );
    }

    #[test]
    fn abort_leaves_sigma_observable_in_executions() {
        let e = parse_expr("{a}:2 + {b}:99").unwrap();
        let mut exec = Execution::new(&e, &Env::empty(), &Bound(10), 0, &EvalOptions::default());
        loop {
            match exec.next_event() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("expected an abort"),
                Err(EvalError::MonitorAbort { monitor, .. }) => {
                    assert_eq!(monitor, "bound");
                    break;
                }
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        // σ at the moment of the veto: only {b} had produced a value, and
        // its event aborted before counting.
        assert_eq!(exec.monitor_state(), Some(&0));
    }

    #[test]
    fn pre_hooks_can_abort_too() {
        #[derive(Debug)]
        struct NoEntry;
        impl Monitor for NoEntry {
            type State = ();
            fn name(&self) -> &str {
                "no-entry"
            }
            fn initial_state(&self) {}
            fn try_pre(&self, ann: &Annotation, _: &Expr, _: &Scope<'_>, _: ()) -> Outcome<()> {
                Outcome::abort((), "no-entry", format!("refused to enter `{}`", ann.name()))
            }
        }
        let e = parse_expr("1 + {gate}:2").unwrap();
        assert_eq!(
            eval_monitored(&e, &NoEntry).unwrap_err(),
            EvalError::MonitorAbort {
                monitor: "no-entry".into(),
                reason: "refused to enter `gate`".into(),
            }
        );
    }

    #[test]
    fn fuel_exhaustion_matches_the_standard_machine() {
        let e = parse_expr("letrec loop = lambda x. {l}:(loop x) in loop 0").unwrap();
        let r = eval_monitored_with(
            &e,
            &Env::empty(),
            &IdentityMonitor,
            (),
            &EvalOptions::with_fuel(10_000),
        );
        assert_eq!(r.unwrap_err(), EvalError::FuelExhausted);
    }
}
