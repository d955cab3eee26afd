//! `perfbench` — the seeded end-to-end and per-layer benchmark of the
//! monitor server and the evaluation ladder.
//!
//! ```text
//! perfbench --workload ingest|session_churn|monitored_eval --seed N
//!           --seconds S --trace 0|1 --monsem <path to monsem binary>
//!           [--out DIR] [--revision REV]
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`: with `--trace 0`
//! the end-to-end metrics, with `--trace 1` the per-layer ones (the
//! traced run also writes its spans and a report under `--out`). See
//! `NOTES.md` beside this crate for why each workload exists.

mod calib;
mod churn;
mod eval;
mod ingest;
mod rng;
mod server;
mod stats;
mod tally;
mod trace;

use server::ServerProc;
use stats::{median, percentile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use tally::Tally;
use trace::Recorder;

/// Server spawns per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Builds of the evaluation artifacts per run; `setup_s` is their median.
const EVAL_SETUP_REPS: usize = 9;
/// Seconds each companion workload runs in a traced run.
const COMPANION_SECONDS: f64 = 3.0;
/// The client-side sum check: a session's or job's direct child spans
/// must cover its wall time but for this share of it, or but for
/// `COVERAGE_FLOOR_NS` (the harness's own few microseconds between
/// calls, which dominate the shortest jobs).
const COVERAGE_TOLERANCE: f64 = 0.05;
const COVERAGE_FLOOR_NS: u64 = 50_000;

/// End-to-end metrics, in output order: (name, unit).
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, in output order: (name, unit).
const PER_LAYER: [(&str, &str); 37] = [
    ("tape.format.encode_ns_per_event", "ns"),
    ("tape.format.decode_ns_per_event", "ns"),
    ("tape.net.send_batch_ns_per_event", "ns"),
    ("tape.net.ingest_close_ms", "ms"),
    ("tape.server.inproc_ns_per_event", "ns"),
    ("tspec.fold_ns_per_event", "ns"),
    ("stream.fold_ns_per_event", "ns"),
    ("tape.wire_bytes_per_event", "B"),
    ("tape.net.acks_per_kevent", "count"),
    ("tape.net.connect_us", "us"),
    ("tape.net.open_ms", "ms"),
    ("tape.net.swap_ms", "ms"),
    ("tape.net.close_ms", "ms"),
    ("tape.server.inproc_session_us", "us"),
    ("tspec.compile_us", "us"),
    ("stream.compile_us", "us"),
    ("syntax.parse_us", "us"),
    ("core.machine.ns_per_step", "ns"),
    ("monitor.machine.ns_per_event.profiler", "ns"),
    ("monitor.machine.ns_per_event.tracer", "ns"),
    ("monitor.machine.ns_per_event.demon", "ns"),
    ("monitor.machine.ns_per_event.spec", "ns"),
    ("pe.engine.compile_us", "us"),
    ("pe.engine.ns_per_event", "ns"),
    ("pe.instrument.instrument_us", "us"),
    ("pe.instrument.residual_ns_per_event", "ns"),
    ("pe.tiered.ns_per_event", "ns"),
    ("pe.tiered.promotions", "count"),
    ("pe.tiered.escapes", "count"),
    ("monitor.tape.record_ns_per_event", "ns"),
    ("tape.checkpoint.write_ns_per_event", "ns"),
    ("tape.checkpoint.check_ns_per_event", "ns"),
    ("core.machine.steps_per_job", "count"),
    ("monitor.events_per_job", "count"),
    ("trace.events_per_s_overhead_pct", "%"),
    ("trace.span_coverage_min", "ratio"),
    ("trace.spans", "count"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Ingest,
    Churn,
    Eval,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "ingest" => Some(Workload::Ingest),
            "session_churn" => Some(Workload::Churn),
            "monitored_eval" => Some(Workload::Eval),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Churn => "session_churn",
            Workload::Eval => "monitored_eval",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    monsem: PathBuf,
    out: PathBuf,
    revision: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |name: &str| flag(name).ok_or_else(|| format!("missing {name}"));
    Ok(Args {
        workload: Workload::parse(need("--workload")?)
            .ok_or("--workload must be ingest, session_churn or monitored_eval")?,
        seed: need("--seed")?
            .parse()
            .map_err(|_| "--seed needs an integer")?,
        seconds: need("--seconds")?
            .parse()
            .ok()
            .filter(|s: &f64| *s > 0.0)
            .ok_or("--seconds needs a positive number")?,
        trace: match flag("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
        monsem: PathBuf::from(need("--monsem")?),
        out: PathBuf::from(flag("--out").unwrap_or(".bench_out")),
        revision: flag("--revision").unwrap_or("unknown").to_string(),
    })
}

/// Metric values by name, plus the sample count behind each percentile.
#[derive(Debug, Default)]
struct Metrics {
    values: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, usize>,
    /// Raw (unscaled) values and the host slowdown, for the provenance.
    raw: Vec<(String, f64)>,
    /// Why a percentile could not be reported, if one could not.
    refused: Option<String>,
}

impl Metrics {
    /// Records the raw (unscaled) values of a CPU-bound phase and the
    /// host slowdown its calibration samples show (see `calib`).
    fn record_raw(&mut self, raw: &[(&str, f64)], calib_ms: &[f64]) {
        self.raw
            .push(("host_slowdown".into(), calib::slowdown(calib_ms)));
        self.raw
            .push(("calib_samples".into(), calib_ms.len() as f64));
        for (name, v) in raw {
            self.raw.push((format!("raw.{name}"), *v));
        }
    }

    fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    /// Sets `p50` and `p90` of `samples`. An under-sampled percentile
    /// is not set; the refusal is kept in `refused`.
    fn percentiles(&mut self, p50: &'static str, p90: &'static str, samples: &[f64]) {
        for (name, p) in [(p50, 0.5), (p90, 0.9)] {
            match percentile(samples, p) {
                Ok((v, n)) => {
                    self.set(name, v);
                    self.samples.insert(name, n);
                }
                Err(e) => {
                    self.refused.get_or_insert(format!("{name}: {e}"));
                }
            }
        }
    }
}

/// Everything one workload phase needs from its set-up.
struct Inputs {
    seed: u64,
    templates: Vec<ingest::Template>,
    ingest_want: Vec<Vec<ingest::Expected>>,
    script: churn::Script,
    churn_want: Vec<ingest::Expected>,
    progs: Vec<eval::ProgramSpec>,
}

impl Inputs {
    fn new(seed: u64, needs: &[Workload]) -> Inputs {
        let mut inputs = Inputs {
            seed,
            templates: Vec::new(),
            ingest_want: Vec::new(),
            script: churn::Script {
                pool: Vec::new(),
                plans: Vec::new(),
            },
            churn_want: Vec::new(),
            progs: Vec::new(),
        };
        if needs.contains(&Workload::Ingest) {
            inputs.templates = (0..ingest::PRODUCERS)
                .map(|p| ingest::template(seed, p))
                .collect();
            inputs.ingest_want = inputs.templates.iter().map(ingest::oracle).collect();
        }
        if needs.contains(&Workload::Churn) {
            inputs.script = churn::script(seed);
            inputs.churn_want = churn::oracle(&inputs.script);
        }
        if needs.contains(&Workload::Eval) {
            inputs.progs = eval::programs(seed);
        }
        inputs
    }
}

/// One measured phase of a workload: its end-to-end metrics, failures
/// and spans.
struct Phase {
    metrics: Metrics,
    tally: Tally,
    rec: Recorder,
    /// The root span name whose coverage is the client-side sum check.
    root: &'static str,
}

fn ingest_phase(inp: &Inputs, server: &ServerProc, seconds: f64, traced: bool) -> Phase {
    let m = ingest::run(
        server.addr,
        &inp.templates,
        &inp.ingest_want,
        seconds,
        traced,
    );
    let mut metrics = Metrics::default();
    // The median round: a round hit by a burst of host noise moves it
    // less than it moves the total.
    metrics.set("events_per_s", median(&m.round_events_per_s));
    metrics.set("ops_per_s", median(&m.round_chunks_per_s));
    metrics
        .raw
        .push(("rounds".into(), m.round_events_per_s.len() as f64));
    metrics
        .raw
        .push(("mean.events_per_s".into(), m.events as f64 / m.rounds_s));
    metrics.percentiles("op_ms_p50", "op_ms_p90", &m.chunk_ms);
    metrics.set("peak_rss_mb", server.peak_rss_mb());
    Phase {
        metrics,
        tally: m.tally,
        rec: m.rec,
        root: "ingest.session",
    }
}

fn churn_phase(inp: &Inputs, server: &ServerProc, seconds: f64, traced: bool) -> Phase {
    let m = churn::run(server.addr, &inp.script, &inp.churn_want, seconds, traced);
    let wall = m.wall.as_secs_f64();
    let mut metrics = Metrics::default();
    metrics.set("events_per_s", m.events as f64 / wall);
    metrics.set("ops_per_s", m.sessions as f64 / wall);
    metrics.percentiles("op_ms_p50", "op_ms_p90", &m.session_ms);
    metrics.set("peak_rss_mb", server.peak_rss_mb());
    Phase {
        metrics,
        tally: m.tally,
        rec: m.rec,
        root: "churn.session",
    }
}

/// The evaluation ladder's state between phases of one run.
struct EvalState {
    built: Vec<eval::Built>,
    jobs: Vec<eval::Job>,
    setup: eval::SetupTimes,
    setup_s: f64,
    tally: Tally,
}

fn eval_setup(inp: &Inputs) -> Result<EvalState, String> {
    // Each build is scaled by a calibration sample taken just before it.
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..EVAL_SETUP_REPS {
        let slowdown = calib::slowdown(&[calib::kernel()]);
        let (built, setup) = eval::build(&inp.progs)?;
        times.push(setup.total.as_secs_f64() / slowdown);
        last = Some((built, setup));
    }
    let (mut built, setup) = last.expect("at least one build");
    let mut tally = Tally::default();
    eval::oracles(&mut built, &mut tally);
    let jobs = eval::jobs(&inp.progs);
    eval::warm_up(&mut built, &jobs, &mut tally);
    Ok(EvalState {
        built,
        jobs,
        setup,
        setup_s: median(&times),
        tally,
    })
}

fn eval_phase(inp: &Inputs, st: &mut EvalState, seconds: f64, traced: bool) -> Phase {
    let m = eval::run(&mut st.built, inp.seed, &st.jobs, seconds, traced);
    let passes = m.jobs as f64 / st.jobs.len() as f64;
    let wall = m.wall.as_secs_f64();
    let pass_s = median(&m.pass_norm_ms) / 1e3;
    let mut metrics = Metrics::default();
    metrics.record_raw(
        &[
            ("events_per_s", m.events as f64 / wall),
            ("ops_per_s", m.jobs as f64 / wall),
        ],
        &m.calib_ms,
    );
    // A pass at median speed on the nominal host.
    metrics.set("events_per_s", m.events as f64 / passes / pass_s);
    metrics.set("ops_per_s", st.jobs.len() as f64 / pass_s);
    metrics.percentiles("op_ms_p50", "op_ms_p90", &m.job_norm_ms);
    metrics.set("peak_rss_mb", server::peak_rss_mb("/proc/self/status"));
    Phase {
        metrics,
        tally: m.tally,
        rec: m.rec,
        root: "eval.job",
    }
}

/// The server, spawned `SETUP_REPS` times for the set-up median.
fn spawn_server(args: &Args) -> Result<(ServerProc, f64), String> {
    ServerProc::spawn_median(&args.monsem, SETUP_REPS)
}

fn run_phase(
    w: Workload,
    inp: &Inputs,
    server: Option<&ServerProc>,
    eval: Option<&mut EvalState>,
    seconds: f64,
    traced: bool,
) -> Phase {
    match w {
        Workload::Ingest => ingest_phase(inp, server.expect("server running"), seconds, traced),
        Workload::Churn => churn_phase(inp, server.expect("server running"), seconds, traced),
        Workload::Eval => eval_phase(inp, eval.expect("eval set up"), seconds, traced),
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(
    table: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    let mut parts = Vec::new();
    for (name, unit) in table {
        let v = values
            .get(name)
            .copied()
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not a number ({v})"));
        }
        parts.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(v),
            json_str(unit)
        ));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let all = [Workload::Ingest, Workload::Churn, Workload::Eval];
    let needs: Vec<Workload> = if args.trace { all.to_vec() } else { vec![w] };
    let inp = Inputs::new(args.seed, &needs);
    let uses_server = needs.iter().any(|&n| n != Workload::Eval);

    let mut tally = Tally::default();
    let mut eval_state = if needs.contains(&Workload::Eval) {
        Some(eval_setup(&inp)?)
    } else {
        None
    };
    if let Some(st) = &mut eval_state {
        tally.merge(std::mem::take(&mut st.tally));
    }
    let (server, server_setup_s) = if uses_server {
        let (s, t) = spawn_server(args)?;
        (Some(s), Some(t))
    } else {
        (None, None)
    };
    let setup_s = match w {
        Workload::Eval => eval_state.as_ref().expect("eval set up").setup_s,
        _ => server_setup_s.expect("server spawned"),
    };

    let mut provenance: Vec<(String, String)> = vec![
        ("workload".into(), json_str(w.name())),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), json_num(args.seconds)),
        ("trace".into(), args.trace.to_string()),
        (
            "nproc".into(),
            std::thread::available_parallelism()
                .map_or(1, usize::from)
                .to_string(),
        ),
        ("revision".into(), json_str(&args.revision)),
    ];
    if let Some(s) = &server {
        provenance.push(("server_cmdline".into(), json_str(&s.cmdline)));
        provenance.push(("server_backend".into(), json_str(&s.backend)));
        provenance.push(("server_banner".into(), json_str(&s.banner)));
    }

    let outcome = if args.trace {
        traced_run(
            args,
            &inp,
            server.as_ref(),
            eval_state.as_mut(),
            setup_s,
            &mut tally,
            &mut provenance,
        )
    } else {
        let mut phase = run_phase(
            w,
            &inp,
            server.as_ref(),
            eval_state.as_mut(),
            args.seconds,
            false,
        );
        if let Some(why) = phase.metrics.refused.take() {
            return Err(why);
        }
        phase.metrics.set("setup_s", setup_s);
        tally.merge(phase.tally);
        for (name, n) in &phase.metrics.samples {
            provenance.push((format!("samples.{name}"), n.to_string()));
        }
        for (name, v) in &phase.metrics.raw {
            provenance.push((name.clone(), json_num(*v)));
        }
        metrics_json(&END_TO_END, &phase.metrics.values).map(|m| (m, true))
    };
    // Stops the server (see `ServerProc`'s `Drop`).
    drop(server);
    let (metrics, checks_ok) = outcome?;
    provenance.push(("error_rate".into(), json_num(tally.error_rate())));
    if let Some(first) = &tally.first {
        eprintln!("perfbench: first failure: {first}");
        provenance.push(("first_failure".into(), json_str(first)));
    }
    let prov = provenance
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect::<Vec<_>>()
        .join(", ");
    println!("{{\"provenance\": {{{prov}}}}}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        tally.failed == 0 && checks_ok,
        tally.attempted.max(1),
        tally.failed
    );
    Ok(())
}

/// The traced run: the workload untraced and traced for half the time
/// each (their ratio is the tracing overhead), the other two workloads
/// traced briefly as companions so every per-layer metric is measured,
/// and the in-process replicas. Spans and a report go under `--out`.
fn traced_run(
    args: &Args,
    inp: &Inputs,
    server: Option<&ServerProc>,
    mut eval_state: Option<&mut EvalState>,
    setup_s: f64,
    tally: &mut Tally,
    provenance: &mut Vec<(String, String)>,
) -> Result<(String, bool), String> {
    let w = args.workload;
    let half = args.seconds / 2.0;
    let mut untraced = run_phase(w, inp, server, eval_state.as_deref_mut(), half, false);
    let mut traced = run_phase(w, inp, server, eval_state.as_deref_mut(), half, true);
    if let Some(why) = untraced
        .metrics
        .refused
        .take()
        .or(traced.metrics.refused.take())
    {
        return Err(why);
    }
    untraced.metrics.set("setup_s", setup_s);
    traced.metrics.set("setup_s", setup_s);
    let mut overhead = Vec::new();
    for (name, unit) in END_TO_END {
        let (u, t) = (untraced.metrics.values[name], traced.metrics.values[name]);
        eprintln!("perfbench: tracing overhead {name}: untraced {u:.6} {unit}, traced {t:.6} {unit} ({:+.2}%)", (t / u - 1.0) * 100.0);
        overhead.push(format!(
            "{}: {{\"untraced\": {}, \"traced\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(u),
            json_num(t),
            json_str(unit)
        ));
    }
    let overhead_pct = (1.0
        - traced.metrics.values["events_per_s"] / untraced.metrics.values["events_per_s"])
        * 100.0;
    tally.merge(std::mem::take(&mut untraced.tally));

    let mut phases: BTreeMap<&'static str, Phase> = BTreeMap::new();
    phases.insert(w.name(), traced);
    for other in [Workload::Ingest, Workload::Churn, Workload::Eval] {
        if other != w {
            let seconds = COMPANION_SECONDS.min(args.seconds);
            phases.insert(
                other.name(),
                run_phase(other, inp, server, eval_state.as_deref_mut(), seconds, true),
            );
        }
    }

    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    // Ingest: TCP-side spans, then the in-process replicas beside them.
    let rec = &phases["ingest"].rec;
    let sent = rec.counts.get("ingest.events_sent").copied().unwrap_or(0) as f64;
    v.insert(
        "tape.net.send_batch_ns_per_event",
        rec.total("tape.net.send_batch").0 as f64 / sent,
    );
    v.insert(
        "tape.net.ingest_close_ms",
        median(&rec.durations_ms("tape.net.close")),
    );
    v.insert(
        "tape.net.acks_per_kevent",
        rec.counts.get("tape.net.acks").copied().unwrap_or(0) as f64 / (sent / 1e3),
    );
    let r = ingest::replica(&inp.templates[0], &inp.ingest_want[0], 1024, tally);
    v.insert("tape.format.encode_ns_per_event", r.encode_ns_per_event);
    v.insert("tape.format.decode_ns_per_event", r.decode_ns_per_event);
    v.insert("tape.server.inproc_ns_per_event", r.inproc_ns_per_event);
    v.insert("tspec.fold_ns_per_event", r.tspec_fold_ns_per_event);
    v.insert("stream.fold_ns_per_event", r.stream_fold_ns_per_event);
    v.insert("tape.wire_bytes_per_event", r.wire_bytes_per_event);
    // Churn.
    let rec = &phases["session_churn"].rec;
    v.insert(
        "tape.net.connect_us",
        median(&rec.durations_ms("tape.net.connect")) * 1e3,
    );
    v.insert(
        "tape.net.open_ms",
        median(&rec.durations_ms("tape.net.open")),
    );
    v.insert(
        "tape.net.swap_ms",
        median(&rec.durations_ms("tape.net.swap")),
    );
    v.insert(
        "tape.net.close_ms",
        median(&rec.durations_ms("tape.net.close")),
    );
    v.insert(
        "tape.server.inproc_session_us",
        median(&churn::inproc_session_us(
            &inp.script,
            &inp.churn_want,
            churn::PLANS,
            tally,
        )),
    );
    let (tspec_us, stream_us) = churn::compile_us(&inp.script, 5);
    v.insert("tspec.compile_us", median(&tspec_us));
    v.insert("stream.compile_us", median(&stream_us));
    // The evaluation ladder.
    let st = eval_state.expect("eval set up in a traced run");
    v.insert("syntax.parse_us", median(&st.setup.parse));
    v.insert("pe.engine.compile_us", median(&st.setup.compile));
    v.insert("pe.instrument.instrument_us", median(&st.setup.instrument));
    let rec = &phases["monitored_eval"].rec;
    let per =
        |span: &str| rec.total(span).0 as f64 / rec.counts.get(span).copied().unwrap_or(0) as f64;
    v.insert(
        "core.machine.ns_per_step",
        rec.total("core.machine.eval").0 as f64 / rec.counts["core.machine.steps"] as f64,
    );
    for (metric, span) in [
        (
            "monitor.machine.ns_per_event.profiler",
            "monitor.machine.eval_monitored.profiler",
        ),
        (
            "monitor.machine.ns_per_event.tracer",
            "monitor.machine.eval_monitored.tracer",
        ),
        (
            "monitor.machine.ns_per_event.demon",
            "monitor.machine.eval_monitored.demon",
        ),
        (
            "monitor.machine.ns_per_event.spec",
            "monitor.machine.eval_monitored.spec",
        ),
        ("pe.engine.ns_per_event", "pe.engine.run_monitored"),
        (
            "pe.instrument.residual_ns_per_event",
            "pe.instrument.residual_run",
        ),
        ("pe.tiered.ns_per_event", "pe.tiered.run"),
        ("monitor.tape.record_ns_per_event", "monitor.tape.record"),
        (
            "tape.checkpoint.write_ns_per_event",
            "tape.checkpoint.write",
        ),
        (
            "tape.checkpoint.check_ns_per_event",
            "tape.checkpoint.check",
        ),
    ] {
        v.insert(metric, per(span));
    }
    let (promotions, escapes) = eval::tier_counts(&st.built);
    v.insert("pe.tiered.promotions", promotions as f64);
    v.insert("pe.tiered.escapes", escapes as f64);
    let standard_jobs = rec.total("core.machine.eval").1 as f64;
    v.insert(
        "core.machine.steps_per_job",
        rec.counts["core.machine.steps"] as f64 / standard_jobs,
    );
    let jobs = rec.total("eval.job").1 as f64;
    let events: u64 = rec
        .counts
        .iter()
        .filter(|(k, _)| {
            k.starts_with("monitor.machine")
                || [
                    "pe.engine.run_monitored",
                    "pe.instrument.residual_run",
                    "pe.tiered.run",
                    "monitor.tape.record",
                ]
                .contains(k)
        })
        .map(|(_, n)| n)
        .sum();
    v.insert("monitor.events_per_job", events as f64 / jobs);

    // The client-side sum check, over every traced phase.
    let mut coverage_min = 1.0f64;
    let mut failing_roots = 0;
    let mut coverage = Vec::new();
    let mut spans = 0usize;
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    for (name, phase) in &mut phases {
        let (worst, roots, failing) =
            phase
                .rec
                .coverage(phase.root, COVERAGE_TOLERANCE, COVERAGE_FLOOR_NS);
        coverage_min = coverage_min.min(worst);
        failing_roots += failing;
        coverage.push(format!(
            "{}: {{\"root\": {}, \"roots\": {roots}, \"failing\": {failing}, \"min_coverage\": {}}}",
            json_str(name),
            json_str(phase.root),
            json_num(worst)
        ));
        spans += phase.rec.spans.len();
        let path = args
            .out
            .join(format!("{}-seed{}-{name}.spans.jsonl", w.name(), args.seed));
        std::fs::write(&path, phase.rec.to_jsonl())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        tally.merge(std::mem::take(&mut phase.tally));
    }
    let coverage_ok = failing_roots == 0;
    if !coverage_ok {
        eprintln!(
            "perfbench: sum check failed on {failing_roots} sessions or jobs: child spans leave more than {:.0}% and {} us uncovered",
            COVERAGE_TOLERANCE * 100.0,
            COVERAGE_FLOOR_NS / 1000
        );
    }
    v.insert("trace.events_per_s_overhead_pct", overhead_pct);
    v.insert("trace.span_coverage_min", coverage_min);
    v.insert("trace.spans", spans as f64);

    for (name, n) in &phases[w.name()].metrics.samples {
        provenance.push((format!("samples.{name}"), n.to_string()));
    }
    let metrics = metrics_json(&PER_LAYER, &v)?;
    let report = format!(
        "{{\"provenance\": {{{}}},\n \"tracing_overhead\": {{{}}},\n \"sum_check\": {{\"tolerance\": {COVERAGE_TOLERANCE}, \"floor_ns\": {COVERAGE_FLOOR_NS}, \"phases\": {{{}}}}},\n \"per_layer\": {metrics}}}\n",
        provenance.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect::<Vec<_>>().join(", "),
        overhead.join(", "),
        coverage.join(", "),
    );
    let path = args
        .out
        .join(format!("{}-seed{}.report.json", w.name(), args.seed));
    std::fs::write(&path, report).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok((metrics, coverage_ok))
}
