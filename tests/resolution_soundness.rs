//! E11 — the lexical-addressing pass is semantically invisible.
//!
//! The static resolver (`monsem_core::resolve`) rewrites variable
//! occurrences to `(depth, slot)` addresses before evaluation; the engines
//! then follow pointers instead of comparing names. These properties pin
//! down that the rewrite changes *nothing observable*: for randomly
//! generated programs with randomly sprinkled annotations, every engine
//! run by address agrees with the same engine run by interned-symbol
//! lookup — on answers, on errors, and on the monitor's final state.
//!
//! The mode comparison is exact: resolution happens before the first
//! transition and an addressed occurrence costs the same one transition a
//! named one does, so even `FuelExhausted` outcomes must coincide.

use monitoring_semantics::core::imperative::eval_imperative_with;
use monitoring_semantics::core::lazy::eval_lazy_with;
use monitoring_semantics::core::machine::{eval_with, EvalOptions, LookupMode};
use monitoring_semantics::core::{closure_cps, Env, EvalError, Value};
use monitoring_semantics::monitor::imperative::eval_monitored_imperative_with;
use monitoring_semantics::monitor::lazy::eval_monitored_lazy_with;
use monitoring_semantics::monitor::machine::eval_monitored_with;
use monitoring_semantics::monitor::scope::Scope;
use monitoring_semantics::monitor::Monitor;
use monitoring_semantics::monitors::Profiler;
use monitoring_semantics::syntax::gen::{
    gen_imperative_program, gen_program, sprinkle_annotations, GenConfig,
};
use monitoring_semantics::syntax::{parse_expr, Annotation, Expr, Namespace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FUEL: u64 = 400_000;

fn opts(lookup: LookupMode) -> EvalOptions {
    EvalOptions { fuel: FUEL, lookup }
}

const MODES: [LookupMode; 2] = [LookupMode::ByAddress, LookupMode::BySymbol];

fn generated(seed: u64, density_milli: u16) -> Expr {
    let mut rng = StdRng::seed_from_u64(seed);
    let plain = gen_program(&mut rng, &GenConfig::default());
    sprinkle_annotations(
        &mut rng,
        &plain,
        &Namespace::anonymous(),
        f64::from(density_milli) / 1000.0,
    )
}

/// A monitor whose state is a rendered event log — order, labels and
/// (displayed) values. Strings make the state comparable across runs,
/// which `Value`s are not (closures compare by pointer identity).
struct RenderLog;
impl Monitor for RenderLog {
    type State = Vec<String>;
    fn name(&self) -> &str {
        "render-log"
    }
    fn initial_state(&self) -> Vec<String> {
        Vec::new()
    }
    fn pre(&self, a: &Annotation, e: &Expr, _: &Scope<'_>, mut s: Vec<String>) -> Vec<String> {
        s.push(format!("pre {} {e}", a.name()));
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

/// `Err`s with closure payloads would also compare by pointer; render.
fn shown(r: Result<Value, EvalError>) -> Result<String, String> {
    r.map(|v| v.to_string()).map_err(|e| e.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Strict machine, CPS transliteration and lazy machine: identical
    /// answers in both lookup modes.
    #[test]
    fn pure_engines_agree_across_lookup_modes(seed: u64, density in 0u16..=1000) {
        let program = generated(seed, density);
        let baseline = shown(eval_with(&program, &Env::empty(), &opts(LookupMode::ByAddress)));
        for mode in MODES {
            let o = opts(mode);
            prop_assert_eq!(
                shown(eval_with(&program, &Env::empty(), &o)),
                baseline.clone(),
                "standard machine, mode {:?}", mode
            );
            prop_assert_eq!(
                shown(closure_cps::eval_cps_with(&program, &Env::empty(), &o)),
                baseline.clone(),
                "closure-CPS engine, mode {:?}", mode
            );
        }
        let lazy_baseline =
            shown(eval_lazy_with(&program, &Env::empty(), &opts(LookupMode::ByAddress)));
        for mode in MODES {
            prop_assert_eq!(
                shown(eval_lazy_with(&program, &Env::empty(), &opts(mode))),
                lazy_baseline.clone(),
                "lazy machine, mode {:?}", mode
            );
        }
    }

    /// Monitored strict machine: answers AND final monitor states agree —
    /// the profiler's counters and an order-sensitive rendered event log.
    #[test]
    fn monitored_machine_agrees_across_lookup_modes(seed: u64, density in 0u16..=1000) {
        let program = generated(seed, density);
        let run = |mode: LookupMode| {
            let log = eval_monitored_with(
                &program, &Env::empty(), &RenderLog, Vec::new(), &opts(mode));
            let counts = eval_monitored_with(
                &program, &Env::empty(), &Profiler::new(), Default::default(), &opts(mode));
            (
                log.map(|(v, s)| (v.to_string(), s)).map_err(|e| e.to_string()),
                counts.map(|(v, s)| (v.to_string(), s)).map_err(|e| e.to_string()),
            )
        };
        let baseline = run(LookupMode::ByAddress);
        for mode in MODES {
            prop_assert_eq!(run(mode), baseline.clone(), "mode {:?}", mode);
        }
    }

    /// Monitored lazy machine: demand order (which annotations fire, and
    /// when) is part of the compared state.
    #[test]
    fn monitored_lazy_agrees_across_lookup_modes(seed: u64, density in 0u16..=1000) {
        let program = generated(seed, density);
        let run = |mode: LookupMode| {
            eval_monitored_lazy_with(
                &program, &Env::empty(), &RenderLog, Vec::new(), &opts(mode))
            .map(|(v, s)| (v.to_string(), s))
            .map_err(|e| e.to_string())
        };
        let baseline = run(LookupMode::ByAddress);
        for mode in MODES {
            prop_assert_eq!(run(mode), baseline.clone(), "mode {:?}", mode);
        }
    }

    /// Monitored imperative machine, on programs with assignment and
    /// `while`: the store-threaded engine agrees too.
    #[test]
    fn monitored_imperative_agrees_across_lookup_modes(seed: u64, density in 0u16..=1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let plain = gen_imperative_program(&mut rng, &Default::default());
        let program = sprinkle_annotations(
            &mut rng,
            &plain,
            &Namespace::anonymous(),
            f64::from(density) / 1000.0,
        );
        let unmonitored = |mode: LookupMode| {
            shown(eval_imperative_with(&program, &Env::empty(), &opts(mode)).map(|(v, _)| v))
        };
        let run = |mode: LookupMode| {
            eval_monitored_imperative_with(
                &program, &Env::empty(), &RenderLog, Vec::new(), &opts(mode))
            .map(|(v, _, _s)| v.to_string())
            .map_err(|e| e.to_string())
        };
        let baseline = unmonitored(LookupMode::ByAddress);
        for mode in MODES {
            prop_assert_eq!(unmonitored(mode), baseline.clone(), "unmonitored, mode {:?}", mode);
        }
        let monitored_baseline = run(LookupMode::ByAddress);
        for mode in MODES {
            prop_assert_eq!(run(mode), monitored_baseline.clone(), "monitored, mode {:?}", mode);
        }
    }
}

/// The `letrec` frame discipline is where addressing is subtlest — value
/// bindings, the rec frame and annotated-lambda shadow frames each occupy
/// one statically predicted slot. Exercise the corner cases directly.
#[test]
fn annotated_letrec_corner_cases_agree_across_modes() {
    let cases = [
        // Annotated lambda binding, recursive through the rec frame.
        "letrec f = {m}:(lambda x. if x = 0 then 0 else f (x - 1)) in f 5",
        // Mutual recursion, one side annotated.
        "letrec even = {e}:(lambda n. if n = 0 then true else odd (n - 1)) \
         and odd = lambda n. if n = 0 then false else even (n - 1) in even 9",
        // Values + rec frame + two annotated shadows, body uses them all.
        "letrec base = 10 and f = {a}:(lambda x. x + base) \
         and g = {b}:(lambda x. f (x * 2)) in g base",
        // Value binding whose expression closes over an outer binder
        // (resolution stops at the barrier; name lookup takes over).
        "lambda k. letrec v = k + 1 and f = {m}:(lambda x. x * v) in f v",
        // Annotated lambda referring to a later annotated lambda.
        "letrec f = {a}:(lambda x. g x) and g = {b}:(lambda x. x + 1) in f 41",
        // Shadowing across the whole plan.
        "let f = 1 in letrec f = {m}:(lambda x. x) in f f",
    ];
    for src in cases {
        let program = match parse_expr(src) {
            Ok(e) => e,
            Err(err) => panic!("{src}: {err}"),
        };
        let applied = |e: &Expr| match e {
            // The 4th case is a function of k; apply it.
            Expr::Lambda(_) => Expr::app(e.clone(), Expr::int(7)),
            _ => e.clone(),
        };
        let program = applied(&program);
        let run = |mode: LookupMode| {
            eval_monitored_with(&program, &Env::empty(), &RenderLog, Vec::new(), &opts(mode))
                .map(|(v, s)| (v.to_string(), s))
                .map_err(|e| e.to_string())
        };
        let lazy_run = |mode: LookupMode| {
            eval_monitored_lazy_with(&program, &Env::empty(), &RenderLog, Vec::new(), &opts(mode))
                .map(|(v, s)| (v.to_string(), s))
                .map_err(|e| e.to_string())
        };
        let baseline = run(LookupMode::ByAddress);
        let lazy_baseline = lazy_run(LookupMode::ByAddress);
        for mode in MODES {
            assert_eq!(run(mode), baseline, "strict, mode {mode:?}, program {src}");
            assert_eq!(
                lazy_run(mode),
                lazy_baseline,
                "lazy, mode {mode:?}, program {src}"
            );
        }
    }
}
