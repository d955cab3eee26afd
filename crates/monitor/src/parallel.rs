//! Fork-join monitored evaluation: `par(e₁, …, eₙ)` elements on worker
//! threads, monitor states split at the fork and merged at the join.
//!
//! The sequential monitored machine ([`crate::machine`]) gives `par` its
//! reference semantics — evaluate the elements left-to-right, yield the
//! list of values, fire hooks in the linear order of §2. This machine
//! produces the **same answer and the same final monitor state** for any
//! [`MergeMonitor`] whose split/merge obey the documented laws, but shards
//! the element evaluations across a [`std::thread::scope`]:
//!
//! 1. At a top-level `par` with more than one element, the current
//!    environment is frozen **once** ([`monsem_core::freeze`]) and each
//!    element becomes a work item.
//! 2. Each shard starts from [`MergeMonitor::split`] of the fork-point
//!    state σ, thaws the environment on its worker thread, and runs the
//!    ordinary sequential monitored machine — so nested `par`s inside a
//!    shard evaluate sequentially, and every hook, abort, and fault policy
//!    behaves exactly as in [`crate::machine`].
//! 3. The join merges shard states **deterministically left-to-right**
//!    with [`MergeMonitor::merge_outcome`], regardless of completion
//!    order; shard answers are thawed into the result list in element
//!    order. Determinism is what lets the property tests pin
//!    `parallel ≡ sequential` bit-for-bit.
//!
//! Faults follow the PR 2 policy surface: a shard whose *monitor* panics
//! behaves per its [`Guarded`](crate::fault::Guarded) wrapper on the
//! worker thread (quarantine degrades, fatal propagates); a panic that
//! does escape a shard is caught at the join and surfaced as
//! [`EvalError::MonitorAbort`] — it never poisons the scope or the other
//! shards. Errors are ranked leftmost-first, matching the sequential
//! machine, which would have hit the leftmost failing element before
//! evaluating anything to its right.
//!
//! Resource accounting is **global**, as in the sequential machine:
//!
//! * **Fuel** is one shared budget. Sequential segments deduct the steps
//!   they consumed; at a join, each shard's actual step count is charged
//!   back to the parent, so the elements of a `par` jointly cannot burn
//!   more fuel than a sequential run of the same program could. (The
//!   driver's own spine transitions are not charged, so a parallel run
//!   may use *slightly less* fuel than the sequential machine — never
//!   more.)
//! * **Guarded budgets** are metered on a fork-shared
//!   [`BudgetLedger`](crate::fault::BudgetLedger), installed by
//!   [`MergeMonitor::fork`] — see [`Guarded`](crate::fault::Guarded),
//!   whose `per_shard_budgets` builder is the documented opt-in back to
//!   the historical per-shard accounting.

use crate::fault::panic_message;
use crate::machine::eval_monitored_stats_with;
use crate::scope::Scope;
use crate::spec::{HookPhase, MergeMonitor, Outcome};
use monsem_core::env::Env;
use monsem_core::error::EvalError;
use monsem_core::freeze::{freeze, freeze_env, thaw, thaw_env, FrozenValue};
use monsem_core::machine::{constant, par_map_enter, EvalOptions, LookupMode};
use monsem_core::prims::Prim;
use monsem_core::resolve::resolve_for;
use monsem_core::value::{Closure, Value};
use monsem_syntax::Expr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Options for the fork-join machine.
#[derive(Debug, Clone)]
pub struct ParOptions {
    /// Worker threads used per `par` fork. Defaults to the machine's
    /// available parallelism (at least 1). A value of 1 still exercises
    /// the freeze/split/merge path, on the calling thread's schedule.
    pub threads: usize,
    /// Options threaded into each shard's sequential machine. The fuel
    /// budget is *global*: shards draw on the one remaining budget, and
    /// their actual step counts are charged back at the join.
    pub eval: EvalOptions,
}

impl Default for ParOptions {
    fn default() -> Self {
        ParOptions {
            threads: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            eval: EvalOptions::default(),
        }
    }
}

impl ParOptions {
    /// Sets the worker-thread count (clamped to at least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// What one shard sends back across the scope boundary: the frozen
/// value, the shard's final monitor state, and the machine steps the
/// shard consumed (charged back to the parent's fuel at the join).
type ShardResult<S> = Result<(FrozenValue, S, u64), EvalError>;

/// Evaluates `expr` under `monitor`, forking at top-level `par` forms.
///
/// Equivalent to [`eval_monitored`](crate::machine::eval_monitored) —
/// same answer, same final monitor state — whenever the monitor's
/// split/merge laws hold.
///
/// # Errors
///
/// Any [`EvalError`] the program provokes, ranked as the sequential
/// machine would rank it (leftmost shard first).
pub fn eval_parallel<M>(expr: &Expr, monitor: &M) -> Result<(Value, M::State), EvalError>
where
    M: MergeMonitor + Sync,
    M::State: Send,
{
    eval_parallel_with(
        expr,
        &Env::empty(),
        monitor,
        monitor.initial_state(),
        &ParOptions::default(),
    )
}

/// [`eval_parallel`] with an explicit environment, initial monitor state
/// and options.
///
/// # Errors
///
/// As for [`eval_parallel`].
pub fn eval_parallel_with<M>(
    expr: &Expr,
    env: &Env,
    monitor: &M,
    sigma: M::State,
    options: &ParOptions,
) -> Result<(Value, M::State), EvalError>
where
    M: MergeMonitor + Sync,
    M::State: Send,
{
    // Resolve once up front (as the sequential machines do); the driver
    // below then evaluates with addresses already in place.
    let program = match options.eval.lookup {
        LookupMode::ByAddress => Arc::new(resolve_for(expr, env)),
        LookupMode::BySymbol => Arc::new(expr.clone()),
    };
    let mut driver_options = options.clone();
    // The program is already resolved; shards must not resolve again
    // against their thawed (value-bearing) environments.
    driver_options.eval.lookup = LookupMode::BySymbol;
    // The one fuel budget, drawn down by sequential segments and shard
    // charge-backs alike.
    let mut fuel = options.eval.fuel;
    drive(&program, env, monitor, sigma, &driver_options, &mut fuel)
}

/// Evaluates `expr`, forking at *top-level* `par` forms — a `par` that is
/// the spine of the program (possibly under annotations, lets, seqs, …)
/// is found by running the sequential machine until it would evaluate the
/// `par`, which we do here with a small driver: evaluate the whole
/// expression sequentially, except that `Expr::Par` nodes reached by this
/// driver fork.
///
/// Rather than duplicating the machine, the driver rewrites the program:
/// it walks to each `Par` node reachable without entering a lambda and
/// evaluates those shards in parallel; everything else is delegated to
/// the sequential monitored machine. `par` forms *inside* functions
/// called by the program are evaluated sequentially by the shard's
/// machine — fork-join nesting is deliberately flat (one scope per
/// top-level `par`).
fn drive<M>(
    expr: &Arc<Expr>,
    env: &Env,
    monitor: &M,
    sigma: M::State,
    options: &ParOptions,
    fuel: &mut u64,
) -> Result<(Value, M::State), EvalError>
where
    M: MergeMonitor + Sync,
    M::State: Send,
{
    match &**expr {
        Expr::Par(items) if items.len() > 1 => fork_join(items, env, monitor, sigma, options, fuel),
        Expr::Par(items) => match items.split_first() {
            // Degenerate `par`s don't pay for a scope.
            None => Ok((Value::Nil, sigma)),
            Some((only, _)) => {
                let (v, sigma) = drive(only, env, monitor, sigma, options, fuel)?;
                Ok((Value::list([v]), sigma))
            }
        },
        // Evaluation-order-transparent spine forms: recurse so a `par`
        // under a `let`, `seq`, annotation, or `if` still forks.
        Expr::Ann(ann, inner) if !monitor.accepts(ann) => {
            drive(inner, env, monitor, sigma, options, fuel)
        }
        // Accepted annotations bracket the drive of their body with the
        // same pre/post hooks the sequential machine fires, so
        // `{μ}:par(…)` still forks.
        Expr::Ann(ann, inner) => {
            let sigma = if monitor.accepts_event(ann, HookPhase::Pre) {
                match monitor.try_pre(ann, inner, &Scope::pure(env), sigma) {
                    Outcome::Continue(s) => s,
                    Outcome::Abort {
                        monitor, reason, ..
                    } => return Err(EvalError::MonitorAbort { monitor, reason }),
                }
            } else {
                sigma
            };
            let (value, sigma) = drive(inner, env, monitor, sigma, options, fuel)?;
            let sigma = if monitor.accepts_event(ann, HookPhase::Post) {
                match monitor.try_post(ann, inner, &Scope::pure(env), &value, sigma) {
                    Outcome::Continue(s) => s,
                    Outcome::Abort {
                        monitor, reason, ..
                    } => return Err(EvalError::MonitorAbort { monitor, reason }),
                }
            } else {
                sigma
            };
            Ok((value, sigma))
        }
        Expr::Let(x, v, b) => {
            let (bound, sigma) = drive(v, env, monitor, sigma, options, fuel)?;
            let env = env.extend(x.clone(), bound);
            drive(b, &env, monitor, sigma, options, fuel)
        }
        Expr::Seq(a, b) => {
            let (_, sigma) = drive(a, env, monitor, sigma, options, fuel)?;
            drive(b, env, monitor, sigma, options, fuel)
        }
        Expr::If(c, t, e) => {
            let (cond, sigma) = drive(c, env, monitor, sigma, options, fuel)?;
            match cond {
                Value::Bool(true) => drive(t, env, monitor, sigma, options, fuel),
                Value::Bool(false) => drive(e, env, monitor, sigma, options, fuel),
                other => Err(EvalError::NonBooleanCondition(other.to_string())),
            }
        }
        // Trivial leaves, evaluated in place.
        Expr::Con(c) => Ok((constant(c), sigma)),
        Expr::Lambda(l) => Ok((
            Value::Closure(Rc::new(Closure {
                param: l.param.clone(),
                body: l.body.clone(),
                env: env.clone(),
            })),
            sigma,
        )),
        // A saturated top-level `par_map f xs` forks like the `par` it
        // rewrites to. The machine evaluates the argument before the
        // function (paper order), so hooks in `xs` fire before hooks in
        // `f` — `drive` preserves that here.
        Expr::App(pmf, xs_expr) => {
            let forked = match &**pmf {
                Expr::App(pm, f_expr) if resolves_to_par_map(pm, env) => Some(f_expr),
                _ => None,
            };
            match forked {
                Some(f_expr) => {
                    let (xs, sigma) = drive(xs_expr, env, monitor, sigma, options, fuel)?;
                    let (f, sigma) = drive(f_expr, env, monitor, sigma, options, fuel)?;
                    let (par_expr, par_env) = par_map_enter(f, xs)?;
                    drive(&par_expr, &par_env, monitor, sigma, options, fuel)
                }
                None => delegate(expr, env, monitor, sigma, options, fuel),
            }
        }
        // Anything else (letrec, vars, …): hand the subtree to the
        // sequential monitored machine. `par` forms inside it evaluate
        // sequentially.
        _ => delegate(expr, env, monitor, sigma, options, fuel),
    }
}

/// Hands a subtree to the sequential monitored machine with the fuel
/// that remains, and deducts the steps it actually consumed.
fn delegate<M>(
    expr: &Arc<Expr>,
    env: &Env,
    monitor: &M,
    sigma: M::State,
    options: &ParOptions,
    fuel: &mut u64,
) -> Result<(Value, M::State), EvalError>
where
    M: MergeMonitor + Sync,
    M::State: Send,
{
    let mut eval_options = options.eval.clone();
    eval_options.fuel = *fuel;
    let (value, sigma, steps) =
        eval_monitored_stats_with(expr, env, monitor, sigma, &eval_options)?;
    *fuel -= steps;
    Ok((value, sigma))
}

/// Whether `expr` is a variable that denotes the (unapplied) `par_map`
/// primitive in `env` — checked through the environment, so a program
/// that shadows the name keeps its own binding and evaluates sequentially.
fn resolves_to_par_map(expr: &Expr, env: &Env) -> bool {
    let v = match expr {
        Expr::VarAt(_, addr) => Some(env.lookup_addr(addr)),
        Expr::Var(x) => env.lookup(x),
        _ => None,
    };
    matches!(v, Some(Value::Prim(Prim::ParMap, args)) if args.is_empty())
}

/// The fork-join proper: one scope, `min(threads, n)` workers pulling
/// shard indices from an atomic queue.
fn fork_join<M>(
    items: &[Arc<Expr>],
    env: &Env,
    monitor: &M,
    sigma: M::State,
    options: &ParOptions,
    fuel: &mut u64,
) -> Result<(Value, M::State), EvalError>
where
    M: MergeMonitor + Sync,
    M::State: Send,
{
    let n = items.len();
    // Freeze the fork-point environment once; every shard thaws its own
    // copy. A program whose environment holds thunks/locations cannot
    // fork (only the lazy/imperative engines create those, and they don't
    // evaluate `par` at all).
    let frozen_env = freeze_env(env)?;
    // The fork hook runs once on the fork-point state, before any split:
    // monitors that need fork-wide shared bookkeeping (Guarded's global
    // budget ledger) install it here, and every shard's split inherits it.
    let sigma = monitor.fork(sigma);
    // One split per shard, all relative to the same fork-point σ — taken
    // on this thread, in order, so monitors with ordered internals see a
    // deterministic split sequence.
    let seeds: Vec<M::State> = (0..n).map(|_| monitor.split(&sigma)).collect();

    // Each shard runs with everything that remains of the global fuel;
    // the join charges back what the shards *actually* consumed, so the
    // elements jointly cannot outspend the budget (checked below).
    let mut shard_options = options.eval.clone();
    shard_options.fuel = *fuel;

    let workers = options.threads.min(n).max(1);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<ShardResult<M::State>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let seeds: Vec<Mutex<Option<M::State>>> =
        seeds.into_iter().map(|s| Mutex::new(Some(s))).collect();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let seed = seeds[i]
                    .lock()
                    .expect("seed mutex")
                    .take()
                    .expect("each shard seed is taken exactly once");
                // Panics are confined *per shard*: a monitor under
                // `FaultPolicy::Fatal` (or a machine bug) fails its own
                // shard as a MonitorAbort at the join, never poisons the
                // scope, and the worker goes on to its next shard.
                let result = catch_unwind(AssertUnwindSafe(|| {
                    let shard_env = thaw_env(&frozen_env);
                    eval_monitored_stats_with(&items[i], &shard_env, monitor, seed, &shard_options)
                        .and_then(|(v, s, steps)| Ok((freeze(&v)?, s, steps)))
                }))
                .unwrap_or_else(|payload| {
                    Err(EvalError::MonitorAbort {
                        monitor: "parallel".to_string(),
                        reason: format!("shard {i} panicked: {}", panic_message(payload.as_ref())),
                    })
                });
                *slots[i].lock().expect("slot mutex") = Some(result);
            });
        }
    });
    // The scope joined every worker. A worker that panicked (a monitor
    // under FaultPolicy::Fatal, or a bug) left its slot empty — and,
    // because each worker owns many shards, possibly later slots too.
    // Collect in element order so the leftmost failure wins, exactly as
    // the sequential machine would have failed there first.
    let mut values = Vec::with_capacity(n);
    let mut acc = sigma;
    for (i, slot) in slots.into_iter().enumerate() {
        let result = slot.into_inner().expect("slot mutex").unwrap_or_else(|| {
            Err(EvalError::MonitorAbort {
                monitor: "parallel".to_string(),
                reason: format!("shard {i} of par(..{n}) panicked before producing a result"),
            })
        });
        let (frozen_value, shard_sigma, steps) = result?;
        // Charge the shard's steps against the shared budget, in element
        // order, so the leftmost over-spending shard exhausts the fuel
        // exactly where the sequential machine would have.
        *fuel = fuel.checked_sub(steps).ok_or(EvalError::FuelExhausted)?;
        values.push(thaw(&frozen_value));
        acc = match monitor.merge_outcome(acc, shard_sigma) {
            Outcome::Continue(s) => s,
            Outcome::Abort {
                state,
                monitor,
                reason,
            } => {
                let _ = state;
                return Err(EvalError::MonitorAbort { monitor, reason });
            }
        };
    }
    Ok((Value::list(values), acc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::eval_monitored;
    use crate::scope::Scope;
    use crate::spec::{IdentityMonitor, Monitor};
    use monsem_syntax::{parse_expr, Annotation};

    /// Counts pre events — the simplest cumulative MergeMonitor.
    #[derive(Debug, Clone, Copy)]
    struct Count;
    impl Monitor for Count {
        type State = u64;
        fn name(&self) -> &str {
            "count"
        }
        fn initial_state(&self) -> u64 {
            0
        }
        fn pre(&self, _: &Annotation, _: &Expr, _: &Scope<'_>, n: u64) -> u64 {
            n + 1
        }
    }
    impl MergeMonitor for Count {
        fn split(&self, _: &u64) -> u64 {
            0
        }
        fn merge(&self, left: u64, right: u64) -> u64 {
            left + right
        }
    }

    const FIB_PAR: &str = "letrec fib = lambda n. {call}:(if n < 2 then n \
         else fib (n - 1) + fib (n - 2)) in par(fib 10, fib 11, fib 9, fib 8)";

    #[test]
    fn parallel_matches_sequential_answer_and_state() {
        let e = parse_expr(FIB_PAR).unwrap();
        let seq = eval_monitored(&e, &Count).unwrap();
        let par = eval_parallel(&e, &Count).unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    fn identity_monitor_forks_too() {
        let e = parse_expr("par(1 + 1, 2 + 2, 3 + 3)").unwrap();
        let (v, ()) = eval_parallel(&e, &IdentityMonitor).unwrap();
        assert_eq!(
            v,
            Value::list([Value::Int(2), Value::Int(4), Value::Int(6)])
        );
    }

    #[test]
    fn single_and_empty_pars_skip_the_scope() {
        let e = parse_expr("par(41 + 1)").unwrap();
        let (v, _) = eval_parallel(&e, &Count).unwrap();
        assert_eq!(v, Value::list([Value::Int(42)]));
        let e = parse_expr("par()").unwrap();
        let (v, _) = eval_parallel(&e, &Count).unwrap();
        assert_eq!(v, Value::Nil);
    }

    #[test]
    fn par_under_let_and_seq_still_forks() {
        let e = parse_expr("let n = 20 in par(n + 1, n + 2, n + 3)").unwrap();
        let seq = eval_monitored(&e, &Count).unwrap();
        let par = eval_parallel(&e, &Count).unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    fn leftmost_shard_error_wins() {
        let e = parse_expr("par(1 + 1, 1 / 0, undefined_name)").unwrap();
        let err = eval_parallel(&e, &Count).unwrap_err();
        assert_eq!(err, EvalError::DivisionByZero);
    }

    #[test]
    fn one_thread_is_still_correct() {
        let e = parse_expr(FIB_PAR).unwrap();
        let seq = eval_monitored(&e, &Count).unwrap();
        let par = eval_parallel_with(
            &e,
            &Env::empty(),
            &Count,
            0,
            &ParOptions::default().with_threads(1),
        )
        .unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    fn par_map_forks_through_the_prim() {
        let e = parse_expr("par_map (lambda x. x * x) [1, 2, 3, 4, 5]").unwrap();
        let seq = eval_monitored(&e, &Count).unwrap();
        let par = eval_parallel(&e, &Count).unwrap();
        assert_eq!(par, seq);
        assert_eq!(par.0, Value::list([1, 4, 9, 16, 25].map(Value::Int)));
    }
}
