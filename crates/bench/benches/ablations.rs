//! Ablations for the design choices DESIGN.md §5 calls out:
//!
//! * defunctionalized frames vs boxed-closure continuations;
//! * variable lookup: string comparison vs interned symbols vs lexical
//!   addresses (and, for reference, the compiled de Bruijn engine);
//! * owned-state (`MS → MS`) monitor hooks vs interior-mutability hooks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use monsem_bench::labelled_countdown;
use monsem_core::closure_cps::eval_cps_with;
use monsem_core::machine::{eval_with, EvalOptions, LookupMode};
use monsem_core::{programs, resolve_closed, Env, Value};
use monsem_monitor::machine::eval_monitored_with;
use monsem_monitor::scope::Scope;
use monsem_monitor::Monitor;
use monsem_pe::engine::compile;
use monsem_syntax::{Annotation, Expr};
use std::cell::Cell;
use std::rc::Rc;

/// The owned-state counting monitor (the library's idiom).
struct OwnedCounter;
impl Monitor for OwnedCounter {
    type State = u64;
    fn name(&self) -> &str {
        "owned-counter"
    }
    fn initial_state(&self) -> u64 {
        0
    }
    fn pre(&self, _: &Annotation, _: &Expr, _: &Scope<'_>, n: u64) -> u64 {
        n + 1
    }
}

/// The same monitor with interior mutability: the threaded state is `()`
/// and the count lives in a `Cell` inside the monitor.
struct CellCounter(Rc<Cell<u64>>);
impl Monitor for CellCounter {
    type State = ();
    fn name(&self) -> &str {
        "cell-counter"
    }
    fn initial_state(&self) {}
    fn pre(&self, _: &Annotation, _: &Expr, _: &Scope<'_>, (): ()) {
        self.0.set(self.0.get() + 1);
    }
}

fn bench_ablations(c: &mut Criterion) {
    let opts = EvalOptions::default();
    let mut group = c.benchmark_group("ablations");
    group.sample_size(40);
    group.measurement_time(std::time::Duration::from_secs(2));

    // Continuation encoding.
    let fib = programs::fib(17);
    group.bench_function("continuations/defunctionalized", |b| {
        b.iter(|| assert_eq!(eval_with(&fib, &Env::empty(), &opts), Ok(Value::Int(1597))))
    });
    group.bench_function("continuations/boxed-closures", |b| {
        b.iter(|| {
            assert_eq!(
                eval_cps_with(&fib, &Env::empty(), &opts),
                Ok(Value::Int(1597))
            )
        })
    });

    // Variable lookup discipline, head to head on the classic recursion
    // benchmarks. `interned-symbol` is one u32 compare per frame;
    // `lexical-address` follows resolver-computed (depth, slot) addresses
    // — no comparisons. The lexical row evaluates a *pre-resolved* tree: resolution is a
    // one-time pass (hoisted out of the timed loop exactly like `compile`
    // below), and `BySymbol` stops `eval_with` from redundantly
    // re-resolving per iteration — the `VarAt` nodes take the address
    // path unconditionally in every mode.
    let workloads: [(&str, Expr, Value); 3] = [
        ("fac-12", programs::fac(12), Value::Int(479_001_600)),
        ("fib-17", programs::fib(17), Value::Int(1597)),
        ("ack-2-3", programs::ack(2, 3), Value::Int(9)),
    ];
    for (name, program, expected) in &workloads {
        let resolved = resolve_closed(program);
        for (mode_name, mode, program) in [
            ("interned-symbol", LookupMode::BySymbol, program),
            ("lexical-address", LookupMode::BySymbol, &resolved),
        ] {
            let o = EvalOptions::with_lookup(mode);
            group.bench_with_input(
                BenchmarkId::new(format!("environments/{mode_name}"), name),
                program,
                |b, program| {
                    b.iter(|| {
                        assert_eq!(eval_with(program, &Env::empty(), &o), Ok(expected.clone()))
                    })
                },
            );
        }
    }
    // Reference point: the pe crate's closure-compiled de Bruijn engine.
    let compiled = compile(&fib).expect("compiles");
    group.bench_function("environments/compiled-de-bruijn/fib-17", |b| {
        b.iter(|| compiled.run().unwrap())
    });

    // Monitor state style.
    let labelled = labelled_countdown(2_000);
    group.bench_function("monitor-state/owned", |b| {
        b.iter(|| eval_monitored_with(&labelled, &Env::empty(), &OwnedCounter, 0, &opts).unwrap())
    });
    group.bench_function("monitor-state/interior-mutable", |b| {
        b.iter(|| {
            let m = CellCounter(Rc::new(Cell::new(0)));
            eval_monitored_with(&labelled, &Env::empty(), &m, (), &opts).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
