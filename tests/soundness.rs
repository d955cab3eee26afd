//! Experiment E10 — Theorem 7.7 as property tests.
//!
//! For randomly generated programs with randomly sprinkled annotations,
//! under every toolbox monitor (and stacks of them), the monitored run's
//! answer must equal the standard run's answer — values *and* errors.
//!
//! The standard side is the closure-continuation oracle
//! (`core::closure_cps`), which shares no code with the machine under
//! test. It rejects `par`, so every generator configuration here is
//! par-free (the defaults never produce `par`).

use monitoring_semantics::core::machine::EvalOptions;
use monitoring_semantics::monitor::compose::boxed;
use monitoring_semantics::monitor::soundness::{
    check_sigma_independence, check_soundness, SoundnessOutcome,
};
use monitoring_semantics::monitor::{IdentityMonitor, Monitor, MonitorStack};
use monitoring_semantics::monitors::collecting::Collecting;
use monitoring_semantics::monitors::coverage::Coverage;
use monitoring_semantics::monitors::demon::UnsortedDemon;
use monitoring_semantics::monitors::logger::EventLogger;
use monitoring_semantics::monitors::profiler::Profiler;
use monitoring_semantics::monitors::stepper::Stepper;
use monitoring_semantics::monitors::tracer::Tracer;
use monitoring_semantics::syntax::gen::{gen_program, sprinkle_annotations, GenConfig};
use monitoring_semantics::syntax::{Expr, Namespace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FUEL: u64 = 400_000;

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

/// Inconclusive (fuel) is allowed; disagreement is not.
fn assert_sound<M: Monitor>(program: &Expr, monitor: &M) -> SoundnessOutcome {
    check_soundness(program, monitor, &EvalOptions::with_fuel(FUEL))
        .unwrap_or_else(|violation| panic!("{violation}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn monitored_answers_equal_standard_answers(seed: u64, density in 0u16..=1000) {
        let program = generated(seed, density);
        assert_sound(&program, &IdentityMonitor);
        assert_sound(&program, &Profiler::new());
        assert_sound(&program, &Collecting::new());
        assert_sound(&program, &UnsortedDemon::new());
        assert_sound(&program, &Stepper::new());
        assert_sound(&program, &EventLogger::new());
        assert_sound(&program, &Coverage::new());
        // Tracer accepts only headers; the sprinkled labels exercise its
        // `accepts` rejection path.
        assert_sound(&program, &Tracer::new());
    }

    #[test]
    fn monitor_stacks_are_sound_too(seed: u64, density in 0u16..=600) {
        let program = generated(seed, density);
        // Label-shaped monitors need disjoint namespaces; here only the
        // profiler listens on the anonymous namespace, the rest listen on
        // namespaces the program never uses — the point is that a whole
        // stack still never changes the answer.
        let stack: MonitorStack = boxed(Profiler::new())
            & boxed(Collecting::in_namespace(Namespace::new("c")))
            & boxed(UnsortedDemon::new())
            & boxed(Tracer::in_namespace(Namespace::new("t")));
        assert_sound(&program, &stack);
    }

    #[test]
    fn answers_do_not_depend_on_the_initial_monitor_state(seed: u64) {
        let program = generated(seed, 300);
        check_sigma_independence(
            &program,
            &Profiler::new(),
            [
                Default::default(),
                monitoring_semantics::monitors::profiler::CounterEnv::init()
                    .inc(&monitoring_semantics::syntax::Ident::new("ghost")),
            ],
            &EvalOptions::with_fuel(FUEL),
        )
        .unwrap_or_else(|violation| panic!("{violation}"));
    }

    /// The oblivious-functional half of §7: the standard machine produces
    /// identical results on the annotated and erased programs.
    #[test]
    fn standard_semantics_is_oblivious_to_annotations(seed: u64, density in 0u16..=1000) {
        use monitoring_semantics::core::machine::eval_with;
        use monitoring_semantics::core::Env;
        let annotated = generated(seed, density);
        let erased = annotated.erase_annotations();
        let opts = EvalOptions::with_fuel(FUEL);
        let a = eval_with(&annotated, &Env::empty(), &opts);
        let b = eval_with(&erased, &Env::empty(), &opts);
        // Annotation skipping costs a transition, so fuel boundaries may
        // differ; everything else must agree.
        use monitoring_semantics::core::EvalError;
        if a != Err(EvalError::FuelExhausted) && b != Err(EvalError::FuelExhausted) {
            prop_assert_eq!(a, b);
        }
    }
}

/// The property above tolerates `Inconclusive`, so it could pass vacuously
/// if fuel ran out on most programs. Over a fixed sample of the same
/// generated programs, nine checks in ten must agree on a verdict.
#[test]
fn soundness_checks_mostly_reach_a_verdict() {
    let (mut agreed, mut inconclusive, mut total) = (0u32, 0u32, 0u32);
    for seed in 0..64u64 {
        let density = u16::try_from(seed * 157 % 1001).expect("below 1001");
        let program = generated(seed, density);
        for outcome in [
            assert_sound(&program, &IdentityMonitor),
            assert_sound(&program, &Profiler::new()),
            assert_sound(&program, &Stepper::new()),
        ] {
            total += 1;
            match outcome {
                SoundnessOutcome::Agreed(_) => agreed += 1,
                SoundnessOutcome::Inconclusive => inconclusive += 1,
                SoundnessOutcome::MonitorAborted { .. } => {}
            }
        }
    }
    println!("soundness sample: {agreed} agreed, {inconclusive} inconclusive of {total}");
    assert!(
        agreed * 10 >= total * 9,
        "only {agreed} of {total} checks agreed ({inconclusive} inconclusive)"
    );
}

/// E10 across language modules: Theorem 7.7 holds per module — the
/// monitored lazy/imperative machines agree with their unmonitored
/// counterparts on annotated programs.
mod per_module {
    use super::*;
    use monitoring_semantics::core::imperative::eval_imperative_with;
    use monitoring_semantics::core::lazy::eval_lazy_with;
    use monitoring_semantics::core::{Env, EvalError};
    use monitoring_semantics::monitor::imperative::eval_monitored_imperative_with;
    use monitoring_semantics::monitor::lazy::eval_monitored_lazy_with;
    use monitoring_semantics::monitors::profiler::Profiler;
    use monitoring_semantics::syntax::gen::gen_imperative_program;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn lazy_module_soundness(seed: u64, density in 0u16..=800) {
            let annotated = generated(seed, density);
            let erased = annotated.erase_annotations();
            let opts = EvalOptions::with_fuel(FUEL);
            let standard = eval_lazy_with(&erased, &Env::empty(), &opts);
            let monitored = eval_monitored_lazy_with(
                &annotated,
                &Env::empty(),
                &Profiler::new(),
                Default::default(),
                &opts,
            )
            .map(|(v, _)| v);
            let fuel = |r: &Result<_, EvalError>| matches!(r, Err(EvalError::FuelExhausted));
            if !fuel(&standard) && !fuel(&monitored) {
                prop_assert_eq!(standard, monitored);
            }
        }

        #[test]
        fn imperative_module_soundness(seed: u64, density in 0u16..=800) {
            let mut rng = StdRng::seed_from_u64(seed);
            let plain = gen_imperative_program(&mut rng, &Default::default());
            let annotated = sprinkle_annotations(
                &mut rng,
                &plain,
                &Namespace::anonymous(),
                f64::from(density) / 1000.0,
            );
            let erased = annotated.erase_annotations();
            let opts = EvalOptions::with_fuel(FUEL);
            let standard =
                eval_imperative_with(&erased, &Env::empty(), &opts).map(|(v, _)| v);
            let monitored = eval_monitored_imperative_with(
                &annotated,
                &Env::empty(),
                &Profiler::new(),
                Default::default(),
                &opts,
            )
            .map(|(v, _, _)| v);
            let fuel = |r: &Result<_, EvalError>| matches!(r, Err(EvalError::FuelExhausted));
            if !fuel(&standard) && !fuel(&monitored) {
                prop_assert_eq!(standard, monitored);
            }
        }
    }
}
