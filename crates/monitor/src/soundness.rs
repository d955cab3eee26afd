//! Executable soundness (§7, Theorem 7.7).
//!
//! The theorem: for any well-specified semantics, any program `s`, any
//! annotation placement `s̄` and any monitor,
//!
//! ```text
//! (fix G)⟦s⟧ a* κ / Ans_std  =  ((fix Ḡ)⟦s̄⟧ a* κ σ)↓₁ / Ans_mon
//! ```
//!
//! i.e. the monitored run's first projection equals the standard answer,
//! for every initial monitor state σ. This module turns that statement
//! into a checkable harness used by the integration property tests: it
//! runs a standard-semantics oracle on the erased program and the
//! monitored machine on the annotated program and compares `Result`s —
//! values *and* errors must agree (an unsound monitor could otherwise
//! "fix" a crash).
//!
//! The oracle is the boxed-closure transliteration
//! [`closure_cps`](monsem_core::closure_cps), not the standard machine:
//! the standard machine *is* the monitored machine at
//! [`NoMonitor`](monsem_core::spec::NoMonitor), so checking one against
//! the other would compare a loop with itself. The transliteration shares
//! no transition code with the machine. It does not evaluate `par` or
//! `par_map` (it answers
//! [`UnsupportedConstruct`](monsem_core::EvalError::UnsupportedConstruct)
//! or a type error), so the checks are meant for **par-free** programs —
//! the default generator configurations never produce `par`.
//!
//! Two *intended* divergences from the theorem are classified rather than
//! reported as violations:
//!
//! * **Fuel** — the monitored machine takes extra transitions at annotated
//!   points (one `{μ}:e` step plus one `κ_post` return per accepted
//!   annotation), and the oracle meters fuel per trampoline bounce rather
//!   than per transition, so a run that exhausts fuel in only one engine
//!   is [`SoundnessOutcome::Inconclusive`]. The same reasoning covers the
//!   specialized `pe` engine, which *fuses* transitions (a two-argument
//!   primitive application is one step instead of several) and therefore
//!   exhausts the same fuel later than the interpreters — the differential
//!   test `tests/fuel_accounting.rs` pins down both directions.
//! * **Abort verdicts** — a checking monitor that returns
//!   [`Outcome::Abort`](crate::spec::Outcome::Abort) *means* to change the
//!   observable behaviour: the paper's Theorem 7.7 covers pure `MS → MS`
//!   monitoring functions, and an aborting monitor is deliberately outside
//!   that class. A monitored run ending in
//!   [`EvalError::MonitorAbort`] is reported as
//!   [`SoundnessOutcome::MonitorAborted`], never as a violation. (A
//!   *quarantined* faulty monitor, by contrast, degrades to the identity
//!   monitor and is back inside the theorem — the fault-isolation property
//!   tests hold it to exact answer equality.)

use crate::machine::eval_monitored_with;
use crate::spec::Monitor;
use monsem_core::closure_cps::eval_cps_with;
use monsem_core::error::EvalError;
use monsem_core::machine::EvalOptions;
use monsem_core::{Env, Value};
use monsem_syntax::Expr;
use std::fmt;

/// Result of one soundness check.
#[derive(Debug, Clone, PartialEq)]
pub enum SoundnessOutcome {
    /// Both engines agreed (on a value or on an error).
    Agreed(Result<Value, EvalError>),
    /// At least one engine ran out of fuel; no verdict.
    Inconclusive,
    /// The monitor vetoed the monitored run
    /// ([`EvalError::MonitorAbort`]). Not a violation: an abort verdict is
    /// an intended departure from Theorem 7.7's pure-monitor premise.
    MonitorAborted {
        /// The vetoing monitor.
        monitor: String,
        /// Its stated reason.
        reason: String,
    },
}

/// A soundness violation: the monitored semantics changed the program's
/// observable behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct SoundnessViolation {
    /// What the standard-semantics oracle produced (on the erased program).
    pub standard: Result<Value, EvalError>,
    /// What the monitored semantics produced (first projection).
    pub monitored: Result<Value, EvalError>,
    /// The annotated program, pretty-printed.
    pub program: String,
}

impl fmt::Display for SoundnessViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "soundness violation on `{}`: standard = {:?}, monitored = {:?}",
            self.program, self.standard, self.monitored
        )
    }
}

impl std::error::Error for SoundnessViolation {}

/// Checks Theorem 7.7 on one annotated program and monitor.
///
/// The standard side runs the closure-continuation oracle on the *erased*
/// program (`s` from `s̄`); the monitored side runs the machine on `s̄`
/// from the monitor's initial state. `annotated` must be par-free (see
/// the module documentation).
///
/// # Errors
///
/// [`SoundnessViolation`] (boxed — it carries both results and the
/// program text) when the two observable results differ.
pub fn check_soundness<M: Monitor>(
    annotated: &Expr,
    monitor: &M,
    options: &EvalOptions,
) -> Result<SoundnessOutcome, Box<SoundnessViolation>> {
    let erased = annotated.erase_annotations();
    let standard = eval_cps_with(&erased, &Env::empty(), options);
    let monitored = eval_monitored_with(
        annotated,
        &Env::empty(),
        monitor,
        monitor.initial_state(),
        options,
    )
    .map(|(v, _)| v);

    match (&standard, &monitored) {
        (Err(EvalError::FuelExhausted), _) | (_, Err(EvalError::FuelExhausted)) => {
            Ok(SoundnessOutcome::Inconclusive)
        }
        (_, Err(EvalError::MonitorAbort { monitor, reason })) => {
            Ok(SoundnessOutcome::MonitorAborted {
                monitor: monitor.clone(),
                reason: reason.clone(),
            })
        }
        _ if standard == monitored => Ok(SoundnessOutcome::Agreed(standard)),
        _ => Err(Box::new(SoundnessViolation {
            standard,
            monitored,
            program: annotated.to_string(),
        })),
    }
}

/// Checks the σ-independence half of Theorem 7.7: the monitored answer's
/// first projection must not depend on the initial monitor state.
///
/// # Errors
///
/// [`SoundnessViolation`] when two initial states lead to different
/// observable answers.
pub fn check_sigma_independence<M: Monitor>(
    annotated: &Expr,
    monitor: &M,
    sigmas: impl IntoIterator<Item = M::State>,
    options: &EvalOptions,
) -> Result<(), Box<SoundnessViolation>> {
    let mut first: Option<Result<Value, EvalError>> = None;
    for sigma in sigmas {
        let r =
            eval_monitored_with(annotated, &Env::empty(), monitor, sigma, options).map(|(v, _)| v);
        if matches!(r, Err(EvalError::FuelExhausted)) {
            continue;
        }
        match &first {
            None => first = Some(r),
            Some(prev) if *prev == r => {}
            Some(prev) => {
                return Err(Box::new(SoundnessViolation {
                    standard: prev.clone(),
                    monitored: r,
                    program: annotated.to_string(),
                }))
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::Scope;
    use crate::spec::IdentityMonitor;
    use monsem_core::programs;
    use monsem_syntax::{parse_expr, Annotation};

    #[test]
    fn paper_programs_are_sound_under_the_identity_monitor() {
        for prog in [
            programs::fac_ab(5),
            programs::fac_mul_traced(3),
            programs::inclist_demon(),
            programs::collecting_fac(3),
        ] {
            let outcome =
                check_soundness(&prog, &IdentityMonitor, &EvalOptions::default()).unwrap();
            assert!(matches!(outcome, SoundnessOutcome::Agreed(Ok(_))));
        }
    }

    #[test]
    fn erroneous_programs_agree_on_the_error() {
        let e = parse_expr("{a}:(hd [])").unwrap();
        let outcome = check_soundness(&e, &IdentityMonitor, &EvalOptions::default()).unwrap();
        assert_eq!(
            outcome,
            SoundnessOutcome::Agreed(Err(EvalError::EmptyList("hd")))
        );
    }

    #[test]
    fn an_unsound_monitor_is_caught() {
        // The trait gives monitors no channel back into evaluation, so a
        // genuinely unsound monitor is not expressible; assert the
        // violation report itself constructs and displays.
        let v = SoundnessViolation {
            standard: Ok(Value::Int(1)),
            monitored: Ok(Value::Int(2)),
            program: "p".into(),
        };
        assert!(v.to_string().contains("soundness violation"));
    }

    #[test]
    fn sigma_independence_holds_for_a_counting_monitor() {
        #[derive(Debug)]
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
        let prog = programs::fac_ab(6);
        check_sigma_independence(
            &prog,
            &Count,
            [0, 1, 17, u64::MAX / 2],
            &EvalOptions::default(),
        )
        .unwrap();
    }

    #[test]
    fn abort_verdicts_are_classified_not_violations() {
        use crate::spec::Outcome;
        #[derive(Debug)]
        struct Veto;
        impl Monitor for Veto {
            type State = ();
            fn name(&self) -> &str {
                "veto"
            }
            fn initial_state(&self) {}
            fn try_pre(&self, _: &Annotation, _: &Expr, _: &Scope<'_>, _: ()) -> Outcome<()> {
                Outcome::abort((), "veto", "no annotations allowed")
            }
        }
        let e = parse_expr("{a}:1 + 2").unwrap();
        let outcome = check_soundness(&e, &Veto, &EvalOptions::default()).unwrap();
        assert_eq!(
            outcome,
            SoundnessOutcome::MonitorAborted {
                monitor: "veto".into(),
                reason: "no annotations allowed".into(),
            }
        );
    }

    #[test]
    fn quarantined_faults_stay_inside_the_theorem() {
        use crate::fault::{FaultPolicy, Guarded};
        #[derive(Debug)]
        struct Bomb;
        impl Monitor for Bomb {
            type State = ();
            fn name(&self) -> &str {
                "soundness-bomb"
            }
            fn initial_state(&self) {}
            fn pre(&self, _: &Annotation, _: &Expr, _: &Scope<'_>, _: ()) {
                panic!("boom");
            }
        }
        let prog = programs::fac_ab(5);
        let guarded = Guarded::new(Bomb).policy(FaultPolicy::Quarantine);
        let outcome = check_soundness(&prog, &guarded, &EvalOptions::default()).unwrap();
        assert!(matches!(outcome, SoundnessOutcome::Agreed(Ok(_))));
    }

    #[test]
    fn fuel_differences_are_inconclusive_not_violations() {
        let e = parse_expr("letrec loop = lambda x. {l}:(loop x) in loop 0").unwrap();
        let outcome =
            check_soundness(&e, &IdentityMonitor, &EvalOptions::with_fuel(5_000)).unwrap();
        assert_eq!(outcome, SoundnessOutcome::Inconclusive);
    }
}
