//! The `monitored_eval` workload: one thread runs a seeded schedule of
//! (program × monitor × rung) jobs over the evaluation ladder — the
//! standard machine, the monitored machine, the compiled engine, the
//! `instrument_spec` residual, a `TieredSession`, and
//! record-then-check through a checkpointed tape.

use crate::rng::Rng;
use crate::tally::Tally;
use crate::trace::Recorder;
use monsem_bench::{labelled_countdown, trace_density_program, traced_fac_mul, traced_fib};
use monsem_core::closure_cps::eval_cps;
use monsem_core::machine::eval_stats;
use monsem_core::{eval, Env, EvalOptions, Value};
use monsem_monitor::{eval_monitored_with, record_monitored_with, MemorySink, Monitor, SharedSink};
use monsem_monitors::demon::PredicateDemon;
use monsem_monitors::profiler::Profiler;
use monsem_monitors::tracer::Tracer;
use monsem_pe::{compile, compile_monitored, instrument_spec, CompiledProgram, TieredSession};
use monsem_syntax::{parse_expr, Expr};
use monsem_tape::{check_tape_from, write_tape_checkpointed};
use monsem_tspec::{SpecMonitor, TapeOutcome};
use std::time::{Duration, Instant};

/// Checkpoint interval of the record-then-check tapes, in events.
const CKPT_EVERY: usize = 512;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Profiler,
    Tracer,
    Demon,
    Spec,
}

impl Kind {
    fn monitored_span(self) -> &'static str {
        match self {
            Kind::Profiler => "monitor.machine.eval_monitored.profiler",
            Kind::Tracer => "monitor.machine.eval_monitored.tracer",
            Kind::Demon => "monitor.machine.eval_monitored.demon",
            Kind::Spec => "monitor.machine.eval_monitored.spec",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    Standard,
    Monitored,
    Engine,
    Residual,
    Tiered,
    RecordCheck,
}

/// A program of the workload as source text, with its safety spec and
/// the monitors that observe its annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramSpec {
    pub name: &'static str,
    pub source: String,
    pub spec: String,
    pub kinds: Vec<Kind>,
}

/// One job: `mon` indexes `ProgramSpec::kinds` (unused by the rungs
/// that only run the safety spec or no monitor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    pub prog: usize,
    pub mon: usize,
    pub rung: Rung,
}

/// The `monsem-bench` fixtures (no `par` fixture: it would need more
/// workers than the host has cores). The seed picks the spec bounds, so
/// violations fall at seeded steps.
pub fn programs(seed: u64) -> Vec<ProgramSpec> {
    let mut rng = Rng::new(seed, 0x3_0000);
    let text = |e: Expr| e.to_string();
    vec![
        ProgramSpec {
            name: "labelled_countdown",
            source: text(labelled_countdown(1500)),
            spec: "always(post(B) => value >= 0)".into(),
            kinds: vec![Kind::Profiler, Kind::Demon, Kind::Spec],
        },
        ProgramSpec {
            name: "traced_fib",
            source: text(traced_fib(14)),
            spec: format!("always(post(fib) => value < {})", rng.range(34, 400)),
            kinds: vec![Kind::Tracer, Kind::Spec],
        },
        ProgramSpec {
            name: "fac_mul",
            source: text(traced_fac_mul(20)),
            spec: format!(
                "always(post(fac) => value < {})",
                10i64.pow(rng.range(6, 20) as u32)
            ),
            kinds: vec![Kind::Tracer, Kind::Spec],
        },
        ProgramSpec {
            name: "trace_density_sparse",
            source: text(trace_density_program(3000, 150)),
            spec: format!("always(post(t) => value < {})", rng.range(100, 200)),
            kinds: vec![Kind::Tracer, Kind::Spec],
        },
        ProgramSpec {
            name: "trace_density_dense",
            source: text(trace_density_program(3000, 3000)),
            spec: format!("always(post(t) => value < {})", rng.range(1000, 4000)),
            kinds: vec![Kind::Tracer, Kind::Spec],
        },
    ]
}

/// Every valid job, once: the standard rung per program, the monitored
/// machine and engine per (program, monitor), and the spec-only rungs.
pub fn jobs(progs: &[ProgramSpec]) -> Vec<Job> {
    let mut out = Vec::new();
    for (p, spec) in progs.iter().enumerate() {
        let spec_mon = spec
            .kinds
            .iter()
            .position(|&k| k == Kind::Spec)
            .expect("every program has a spec");
        out.push(Job {
            prog: p,
            mon: spec_mon,
            rung: Rung::Standard,
        });
        for mon in 0..spec.kinds.len() {
            out.push(Job {
                prog: p,
                mon,
                rung: Rung::Monitored,
            });
            out.push(Job {
                prog: p,
                mon,
                rung: Rung::Engine,
            });
        }
        for rung in [Rung::Residual, Rung::Tiered, Rung::RecordCheck] {
            out.push(Job {
                prog: p,
                mon: spec_mon,
                rung,
            });
        }
    }
    out
}

/// The seeded job schedule: each pass is a fresh shuffle of the
/// indices of the job list.
pub struct Schedule {
    rng: Rng,
    pass: Vec<usize>,
}

impl Schedule {
    pub fn new(seed: u64, jobs: &[Job]) -> Schedule {
        Schedule {
            rng: Rng::new(seed, 0x3_1000),
            pass: (0..jobs.len()).collect(),
        }
    }

    pub fn next_pass(&mut self) -> &[usize] {
        self.rng.shuffle(&mut self.pass);
        &self.pass
    }
}

/// A monitor with its compiled engine program and the reference state
/// every rung must reproduce.
struct Pair<M: Monitor> {
    monitor: M,
    engine: CompiledProgram,
    reference: Option<M::State>,
}

enum Mon {
    Profiler(Pair<Profiler>),
    Tracer(Pair<Tracer>),
    Demon(Pair<PredicateDemon>),
    Spec(Pair<SpecMonitor>),
}

/// A program with every artifact the rungs need.
pub struct Built {
    expr: Expr,
    mons: Vec<Mon>,
    spec: SpecMonitor,
    residual: CompiledProgram,
    tiered: TieredSession,
    answer: Value,
    pub steps: u64,
    pub events: u64,
}

/// Set-up cost, per layer.
#[derive(Debug, Default, Clone)]
pub struct SetupTimes {
    pub total: Duration,
    pub parse: Vec<f64>,
    pub compile: Vec<f64>,
    pub instrument: Vec<f64>,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn demon() -> PredicateDemon {
    PredicateDemon::new(
        "multiple-of-7",
        |v| matches!(v, Value::Int(n) if n % 7 == 0),
    )
}

/// Parse, compile, instrument and open the tiered sessions: the
/// workload's set-up, timed as a whole and per layer.
pub fn build(progs: &[ProgramSpec]) -> Result<(Vec<Built>, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let t_all = Instant::now();
    let mut built = Vec::with_capacity(progs.len());
    for p in progs {
        let t0 = Instant::now();
        let expr = parse_expr(&p.source).map_err(|e| format!("{}: {e}", p.name))?;
        times.parse.push(us(t0.elapsed()));
        let spec = SpecMonitor::new(p.name, &p.spec).map_err(|e| format!("{}: {e}", p.name))?;
        let mut mons = Vec::new();
        for &kind in &p.kinds {
            let t0 = Instant::now();
            let compiled = |m: &dyn Fn() -> Result<
                CompiledProgram,
                monsem_pe::engine::CompileError,
            >| { m().map_err(|e| format!("{}: {e:?}", p.name)) };
            mons.push(match kind {
                Kind::Profiler => {
                    let monitor = Profiler::new();
                    let engine = compiled(&|| compile_monitored(&expr, &monitor))?;
                    Mon::Profiler(Pair {
                        monitor,
                        engine,
                        reference: None,
                    })
                }
                Kind::Tracer => {
                    let monitor = Tracer::new();
                    let engine = compiled(&|| compile_monitored(&expr, &monitor))?;
                    Mon::Tracer(Pair {
                        monitor,
                        engine,
                        reference: None,
                    })
                }
                Kind::Demon => {
                    let monitor = demon();
                    let engine = compiled(&|| compile_monitored(&expr, &monitor))?;
                    Mon::Demon(Pair {
                        monitor,
                        engine,
                        reference: None,
                    })
                }
                Kind::Spec => {
                    let monitor = spec.clone();
                    let engine = compiled(&|| compile_monitored(&expr, &monitor))?;
                    Mon::Spec(Pair {
                        monitor,
                        engine,
                        reference: None,
                    })
                }
            });
            times.compile.push(us(t0.elapsed()));
        }
        let t0 = Instant::now();
        let residual_expr = instrument_spec(&expr, &spec);
        times.instrument.push(us(t0.elapsed()));
        let residual = compile(&residual_expr).map_err(|e| format!("{}: {e:?}", p.name))?;
        let tiered =
            TieredSession::new(&expr, spec.clone()).map_err(|e| format!("{}: {e:?}", p.name))?;
        built.push(Built {
            expr,
            mons,
            spec,
            residual,
            tiered,
            answer: Value::Int(0),
            steps: 0,
            events: 0,
        });
    }
    times.total = t_all.elapsed();
    Ok((built, times))
}

/// Fills in the oracles, outside any timed phase: the answer from the
/// `closure_cps` evaluator, the reference monitor state from the
/// monitored machine (its answer checked against the CPS one), machine
/// steps, and the number of annotation events on the run's tape.
pub fn oracles(built: &mut [Built], tally: &mut Tally) {
    let opts = EvalOptions::default();
    for b in built.iter_mut() {
        let answer = match eval_cps(&b.expr) {
            Ok(v) => v,
            Err(e) => {
                tally.record(Err(format!("closure_cps: {e}")));
                continue;
            }
        };
        let (std_answer, stats) = eval_stats(&b.expr, &Env::empty(), &opts);
        tally.record(match std_answer {
            Ok(v) if v == answer => Ok(()),
            other => Err(format!(
                "standard machine {other:?} != closure_cps {answer}"
            )),
        });
        b.steps = stats.steps;
        let mem = MemorySink::new();
        let recorded = record_monitored_with(
            &b.expr,
            &Env::empty(),
            b.spec.clone(),
            &SharedSink::new(mem.clone()),
            &opts,
        );
        tally.record(recorded.map(|_| ()).map_err(|e| format!("record: {e}")));
        b.events = mem.events().len().saturating_sub(1) as u64;
        for m in &mut b.mons {
            let outcome = match m {
                Mon::Profiler(p) => reference(&b.expr, p, &answer),
                Mon::Tracer(p) => reference(&b.expr, p, &answer),
                Mon::Demon(p) => reference(&b.expr, p, &answer),
                Mon::Spec(p) => reference(&b.expr, p, &answer),
            };
            tally.record(outcome);
        }
        b.answer = answer;
    }
}

fn reference<M: Monitor>(expr: &Expr, p: &mut Pair<M>, answer: &Value) -> Result<(), String> {
    let m = &p.monitor;
    let (v, s) = eval_monitored_with(
        expr,
        &Env::empty(),
        m,
        m.initial_state(),
        &EvalOptions::default(),
    )
    .map_err(|e| format!("{}: {e}", m.name()))?;
    if &v != answer {
        return Err(format!(
            "{}: monitored answer {v} != closure_cps {answer}",
            m.name()
        ));
    }
    p.reference = Some(s);
    Ok(())
}

/// The oracle comparison of a job, run after its timed calls (and with
/// it, the teardown of the job's outputs). Yields the annotation events
/// the job observed.
type Check<'a> = Box<dyn FnOnce() -> Result<u64, String> + 'a>;

/// Runs one job's calls inside spans under `root` and returns its check.
fn run_job<'a>(
    b: &'a mut Built,
    job: Job,
    rec: &mut Recorder,
    root: Option<usize>,
    id: u64,
) -> Result<Check<'a>, String> {
    let opts = EvalOptions::default();
    let events = b.events;
    match job.rung {
        Rung::Standard => {
            let v = rec
                .time("core.machine.eval", root, id, || eval(&b.expr))
                .map_err(|e| e.to_string())?;
            rec.count("core.machine.steps", b.steps);
            Ok(Box::new(move || {
                same_answer(v, &b.answer, "standard").map(|()| 0)
            }))
        }
        Rung::Monitored | Rung::Engine => {
            let engine = job.rung == Rung::Engine;
            let (expr, answer) = (&b.expr, &b.answer);
            let check = match &b.mons[job.mon] {
                Mon::Profiler(p) => ladder(p, Kind::Profiler, expr, engine, answer, rec, root, id)?,
                Mon::Tracer(p) => ladder(p, Kind::Tracer, expr, engine, answer, rec, root, id)?,
                Mon::Demon(p) => ladder(p, Kind::Demon, expr, engine, answer, rec, root, id)?,
                Mon::Spec(p) => ladder(p, Kind::Spec, expr, engine, answer, rec, root, id)?,
            };
            let name = if engine {
                "pe.engine.run_monitored"
            } else {
                Kind::monitored_span(kind_of(&b.mons[job.mon]))
            };
            rec.count(name, events);
            Ok(Box::new(move || check().map(|()| events)))
        }
        Rung::Residual => {
            let v = rec
                .time("pe.instrument.residual_run", root, id, || b.residual.run())
                .map_err(|e| e.to_string())?;
            rec.count("pe.instrument.residual_run", events);
            let b = &*b;
            Ok(Box::new(move || {
                let (answer, state) = match v {
                    Value::Pair(a, s) => ((*a).clone(), (*s).clone()),
                    other => return Err(format!("residual computed {other}, not answer : state")),
                };
                same_answer(answer, &b.answer, "residual")?;
                let want = spec_reference(b).state;
                if state != Value::Int(i64::from(want)) {
                    return Err(format!("residual final state {state} != monitored {want}"));
                }
                Ok(events)
            }))
        }
        Rung::Tiered => {
            let run = rec
                .time("pe.tiered.run", root, id, || b.tiered.run())
                .map_err(|e| e.to_string())?;
            rec.count("pe.tiered.run", events);
            let b = &*b;
            Ok(Box::new(move || {
                same_answer(run.value, &b.answer, "tiered")?;
                let want = spec_reference(b).state;
                if run.state != want {
                    return Err(format!(
                        "tiered final state {} != monitored {want}",
                        run.state
                    ));
                }
                Ok(events)
            }))
        }
        Rung::RecordCheck => {
            let mem = MemorySink::new();
            let sink = SharedSink::new(mem.clone());
            let live = rec
                .time("monitor.tape.record", root, id, || {
                    record_monitored_with(&b.expr, &Env::empty(), b.spec.clone(), &sink, &opts)
                })
                .map_err(|e| e.to_string())?;
            let tape_events = mem.take();
            let tape = rec.time("tape.checkpoint.write", root, id, || {
                write_tape_checkpointed(&tape_events, &b.spec, None, CKPT_EVERY)
            });
            let check = rec
                .time("tape.checkpoint.check", root, id, || {
                    check_tape_from(&b.spec, &tape, 0)
                })
                .map_err(|e| e.to_string())?;
            for name in [
                "monitor.tape.record",
                "tape.checkpoint.write",
                "tape.checkpoint.check",
            ] {
                rec.count(name, events);
            }
            let b = &*b;
            Ok(Box::new(move || {
                same_answer(live.0, &b.answer, "record")?;
                if &live.1 != spec_reference(b) {
                    return Err(
                        "recorded run's monitor state differs from the monitored machine's".into(),
                    );
                }
                let live_ok = b.spec.finish(&live.1).is_ok();
                let offline_ok = matches!(check.check.outcome, TapeOutcome::Satisfied);
                if live_ok != offline_ok {
                    return Err(format!(
                        "offline check {:?} does not reproduce the live verdict (ok = {live_ok})",
                        check.check.outcome
                    ));
                }
                drop((tape_events, tape));
                Ok(events)
            }))
        }
    }
}

fn kind_of(m: &Mon) -> Kind {
    match m {
        Mon::Profiler(_) => Kind::Profiler,
        Mon::Tracer(_) => Kind::Tracer,
        Mon::Demon(_) => Kind::Demon,
        Mon::Spec(_) => Kind::Spec,
    }
}

fn spec_reference(b: &Built) -> &monsem_tspec::SpecState {
    b.mons
        .iter()
        .find_map(|m| match m {
            Mon::Spec(p) => p.reference.as_ref(),
            _ => None,
        })
        .expect("spec reference computed")
}

fn same_answer(got: Value, want: &Value, rung: &str) -> Result<(), String> {
    if &got == want {
        Ok(())
    } else {
        Err(format!("{rung} answer {got} != closure_cps {want}"))
    }
}

/// Runs a monitor on the monitored machine or the compiled engine, and
/// returns the check of its answer and state against the references.
#[allow(clippy::too_many_arguments)]
fn ladder<'a, M: Monitor>(
    p: &'a Pair<M>,
    kind: Kind,
    expr: &Expr,
    engine: bool,
    answer: &'a Value,
    rec: &mut Recorder,
    root: Option<usize>,
    id: u64,
) -> Result<Box<dyn FnOnce() -> Result<(), String> + 'a>, String>
where
    M::State: PartialEq,
{
    let opts = EvalOptions::default();
    let m = &p.monitor;
    let out = if engine {
        rec.time("pe.engine.run_monitored", root, id, || {
            p.engine.run_monitored(m, &opts)
        })
    } else {
        rec.time(kind.monitored_span(), root, id, || {
            eval_monitored_with(expr, &Env::empty(), m, m.initial_state(), &opts)
        })
    };
    let (v, s) = out.map_err(|e| format!("{}: {e}", m.name()))?;
    Ok(Box::new(move || {
        same_answer(v, answer, m.name())?;
        if Some(&s) != p.reference.as_ref() {
            return Err(format!(
                "{} state differs across rungs ({})",
                m.name(),
                if engine {
                    "engine"
                } else {
                    "monitored machine"
                }
            ));
        }
        Ok(())
    }))
}

/// What a run of the schedule measured.
#[derive(Debug)]
pub struct Measured {
    pub tally: Tally,
    pub events: u64,
    pub jobs: u64,
    pub job_ms: Vec<f64>,
    /// Job times scaled to the nominal host by the calibration sample
    /// taken just before their pass.
    pub job_norm_ms: Vec<f64>,
    /// Pass times, scaled the same way.
    pub pass_norm_ms: Vec<f64>,
    /// Reference-kernel times, one before each pass.
    pub calib_ms: Vec<f64>,
    pub wall: Duration,
    pub rec: Recorder,
}

/// Runs whole passes of the schedule until `seconds` have elapsed (a
/// pass started before the deadline is finished, so every run measures
/// the same job mix).
pub fn run(built: &mut [Built], seed: u64, jobs: &[Job], seconds: f64, traced: bool) -> Measured {
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let mut schedule = Schedule::new(seed, jobs);
    let mut m = Measured {
        tally: Tally::default(),
        events: 0,
        jobs: 0,
        job_ms: Vec::new(),
        job_norm_ms: Vec::new(),
        pass_norm_ms: Vec::new(),
        calib_ms: Vec::new(),
        wall: Duration::ZERO,
        rec: Recorder::new(traced, epoch),
    };
    while Instant::now() < deadline {
        let calib_ms = crate::calib::kernel();
        m.calib_ms.push(calib_ms);
        let slowdown = crate::calib::slowdown(&[calib_ms]);
        let pass_start = Instant::now();
        for &ix in schedule.next_pass() {
            let job = jobs[ix];
            let id = m.jobs;
            let t0 = Instant::now();
            let root = m.rec.open("eval.job", None, id);
            let check = run_job(&mut built[job.prog], job, &mut m.rec, root, id);
            m.rec.close(root);
            let dt = t0.elapsed();
            let out = check.and_then(|check| check());
            m.jobs += 1;
            if let Ok(events) = &out {
                m.events += events;
                m.job_ms.push(dt.as_secs_f64() * 1e3);
                m.job_norm_ms.push(dt.as_secs_f64() * 1e3 / slowdown);
            }
            m.tally.record(out.map(|_| ()));
        }
        m.pass_norm_ms
            .push(pass_start.elapsed().as_secs_f64() * 1e3 / slowdown);
    }
    m.wall = epoch.elapsed();
    m
}

/// Warms every job up once (this also promotes the tiered sessions), so
/// lazy set-up is finished before the clock starts.
pub fn warm_up(built: &mut [Built], jobs: &[Job], tally: &mut Tally) {
    let mut rec = Recorder::new(false, Instant::now());
    for _ in 0..2 {
        for &job in jobs {
            tally.record(
                run_job(&mut built[job.prog], job, &mut rec, None, 0)
                    .and_then(|check| check())
                    .map(|_| ()),
            );
        }
    }
}

/// Tiered-session counters summed over the programs.
pub fn tier_counts(built: &[Built]) -> (u64, u64) {
    built.iter().fold((0, 0), |(p, e), b| {
        let s = b.tiered.stats();
        (p + s.promotions, e + s.guard_failures)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let progs = programs(1);
        let all = jobs(&progs);
        assert_eq!(programs(1), progs);
        let passes = |seed| {
            let mut s = Schedule::new(seed, &all);
            (0..3).map(|_| s.next_pass().to_vec()).collect::<Vec<_>>()
        };
        assert_eq!(passes(1), passes(1));
        assert_ne!(passes(1), passes(2));
        assert_ne!(programs(1), programs(2));
    }

    #[test]
    fn every_rung_agrees_with_the_oracles() {
        let progs = programs(7);
        let (mut built, _) = build(&progs).unwrap();
        let mut tally = Tally::default();
        oracles(&mut built, &mut tally);
        let all = jobs(&progs);
        warm_up(&mut built, &all, &mut tally);
        assert_eq!(tally.failed, 0, "{:?}", tally.first);
        let m = run(&mut built, 7, &all, 0.01, true);
        assert_eq!(m.tally.failed, 0, "{:?}", m.tally.first);
        assert_eq!(m.jobs as usize % all.len(), 0, "only whole passes run");
        assert!(tier_counts(&built).0 >= 1, "the tiered sessions promote");
    }
}
