//! The `session_churn` workload: two threads in a closed loop, each
//! session on a fresh TCP connection — connect, `Open` with a spec from
//! a seeded pool, one small batch, a `Swap` on a quarter of the
//! sessions, `Close`, disconnect.

use crate::ingest::{compare, names, Expected};
use crate::rng::Rng;
use crate::tally::Tally;
use crate::trace::Recorder;
use monsem_core::Value;
use monsem_monitor::TapeEvent;
use monsem_stream::StreamMonitor;
use monsem_tape::{write_tape, Client, MonitorServer, Request, Response, ServerConfig, Verdict};
use monsem_tspec::{SpecMonitor, TapeOutcome};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::sync_channel;
use std::time::{Duration, Instant};

pub const THREADS: usize = 2;
/// Specs in the pool; a quarter of each kind.
pub const POOL: usize = 16;
/// Session plans per run; threads cycle through them.
pub const PLANS: usize = 512;
/// Events per session batch (a `done` marker follows).
pub const BATCH: usize = 64;
/// Names the churn events are drawn from (so every pool spec sees them).
const CHURN_NAMES: u64 = 8;

/// A safety spec, optionally with a stream (SLO) spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolSpec {
    pub spec: String,
    pub stream: Option<String>,
}

/// One session: which spec it opens, its batch, and the spec it swaps
/// to, if any.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub spec: usize,
    pub events: Vec<TapeEvent>,
    pub swap_to: Option<usize>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    pub pool: Vec<PoolSpec>,
    pub plans: Vec<Plan>,
}

/// The seeded spec pool: cheap `always`/`never` specs next to bounded
/// `respond` and counting specs that cost ~50x more to compile (about a
/// millisecond each); every other spec carries an SLO stream spec. The
/// bounds are fixed, so the compile cost of the pool does not depend on
/// the seed; the seed picks the names and thresholds.
pub fn pool(rng: &mut Rng) -> Vec<PoolSpec> {
    let name = |rng: &mut Rng| format!("svc{:02}", rng.below(CHURN_NAMES));
    (0..POOL)
        .map(|i| {
            let spec = match i % 4 {
                0 => format!("always(post({}) => value >= 0)", name(rng)),
                1 => format!("never(post(_) and value < -{})", rng.range(1, 50)),
                2 => format!("respond(pre({}), post({}), 5)", name(rng), name(rng)),
                _ => format!("!(any* ; ([post({})] ; any*){{12}})", name(rng)),
            };
            let stream = (i % 2 == 0).then(|| {
                format!(
                    "stream neg = count(value < 0) over window({})\ntrigger hot = neg >= 2",
                    rng.range(8, 32)
                )
            });
            PoolSpec { spec, stream }
        })
        .collect()
}

pub fn script(seed: u64) -> Script {
    let mut rng = Rng::new(seed, 0x2_0000);
    let pool = pool(&mut rng);
    let names = names();
    let mut plans = Vec::with_capacity(PLANS);
    for _ in 0..PLANS / 8 {
        // Exactly two swaps in every block of eight sessions keeps the
        // swap share at 25% in any run, far from the p50 and p90 ranks.
        // Likewise each spec kind opens exactly two of the eight.
        let mut swaps = [true, true, false, false, false, false, false, false];
        let mut kinds = [0, 0, 1, 1, 2, 2, 3, 3];
        rng.shuffle(&mut swaps);
        rng.shuffle(&mut kinds);
        for (swap, kind) in swaps.into_iter().zip(kinds) {
            let mut events: Vec<TapeEvent> = (0..BATCH as u64)
                .map(|step| {
                    let ann = &names[rng.below(CHURN_NAMES) as usize];
                    if rng.below(2) == 0 {
                        TapeEvent::pre(ann, step)
                    } else {
                        let v = if rng.below(16) == 0 {
                            rng.range(-60, 0)
                        } else {
                            rng.range(0, 1000)
                        };
                        TapeEvent::post(ann, &Value::Int(v), step)
                    }
                })
                .collect();
            events.push(TapeEvent::done(BATCH as u64));
            let spec = kind + 4 * rng.below(POOL as u64 / 4) as usize;
            let swap_to = swap.then(|| (spec + 1 + rng.below(POOL as u64 - 1) as usize) % POOL);
            plans.push(Plan {
                spec,
                events,
                swap_to,
            });
        }
    }
    Script { pool, plans }
}

/// The offline oracle for each plan: the spec in force at Close checked
/// over the whole batch, and the opening stream spec (which survives a
/// safety-spec swap) over the same events.
pub fn oracle(s: &Script) -> Vec<Expected> {
    let specs: Vec<SpecMonitor> = s
        .pool
        .iter()
        .map(|p| SpecMonitor::new("oracle", &p.spec).expect("pool spec compiles"))
        .collect();
    let streams: Vec<Option<StreamMonitor>> = s
        .pool
        .iter()
        .map(|p| {
            p.stream
                .as_ref()
                .map(|src| StreamMonitor::new("oracle", src).expect("compiles"))
        })
        .collect();
    s.plans
        .iter()
        .map(|p| {
            let c = specs[p.swap_to.unwrap_or(p.spec)].check_tape(p.events.iter());
            Expected {
                ingested: p.events.len() as u64,
                earliest: c.earliest_violation,
                violated: matches!(c.outcome, TapeOutcome::Violated(_)),
                firings: streams[p.spec]
                    .as_ref()
                    .map_or(0, |m| m.check_tape(p.events.iter()).fired_total),
            }
        })
        .collect()
}

#[derive(Debug)]
pub struct Measured {
    pub tally: Tally,
    pub events: u64,
    pub sessions: u64,
    pub session_ms: Vec<f64>,
    pub wall: Duration,
    pub rec: Recorder,
}

pub fn run(
    addr: SocketAddr,
    s: &Script,
    want: &[Expected],
    seconds: f64,
    traced: bool,
) -> Measured {
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let outs: Vec<Measured> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || churn(addr, t, s, want, deadline, Recorder::new(traced, epoch)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("churn thread"))
            .collect()
    });
    let mut total = Measured {
        tally: Tally::default(),
        events: 0,
        sessions: 0,
        session_ms: Vec::new(),
        wall: epoch.elapsed(),
        rec: Recorder::new(traced, epoch),
    };
    for m in outs {
        total.tally.merge(m.tally);
        total.events += m.events;
        total.sessions += m.sessions;
        total.session_ms.extend(m.session_ms);
        total.rec.merge(m.rec);
    }
    total
}

fn churn(
    addr: SocketAddr,
    thread: usize,
    s: &Script,
    want: &[Expected],
    deadline: Instant,
    mut rec: Recorder,
) -> Measured {
    let mut m = Measured {
        tally: Tally::default(),
        events: 0,
        sessions: 0,
        session_ms: Vec::new(),
        wall: Duration::ZERO,
        rec: Recorder::new(false, Instant::now()),
    };
    let mut j = thread;
    while Instant::now() < deadline {
        let plan_ix = j % s.plans.len();
        let session = 1_000_000 + j as u64;
        j += THREADS;
        let t0 = Instant::now();
        let root = rec.open("churn.session", None, session);
        let outcome = one_session(addr, session, s, plan_ix, &mut rec, root);
        rec.close(root);
        let latency = t0.elapsed();
        let outcome = outcome.and_then(|(client, v)| {
            rec.time("tape.net.disconnect", None, session, || drop(client));
            compare(&v, &want[plan_ix])?;
            m.events += v.ingested;
            m.sessions += 1;
            m.session_ms.push(latency.as_secs_f64() * 1e3);
            Ok(())
        });
        m.tally.record(outcome);
    }
    m.rec = rec;
    m
}

fn one_session(
    addr: SocketAddr,
    session: u64,
    s: &Script,
    plan_ix: usize,
    rec: &mut Recorder,
    root: Option<usize>,
) -> Result<(Client<TcpStream>, Verdict), String> {
    let plan = &s.plans[plan_ix];
    let err = |what: &str, e: &dyn std::fmt::Debug| format!("session {session}: {what}: {e:?}");
    let mut client = rec
        .time("tape.net.connect", root, session, || {
            Client::connect_tcp(addr)
        })
        .map_err(|e| err("connect", &e))?;
    let open = &s.pool[plan.spec];
    let opened = rec.time("tape.net.open", root, session, || match &open.stream {
        Some(stream) => client.open_with_stream(session, &open.spec, stream, false),
        None => client.open(session, &open.spec, false),
    });
    match opened {
        Ok(Response::Ok) => {}
        other => return Err(err("open", &other)),
    }
    rec.time("tape.net.send_batch", root, session, || {
        client.send_batch(session, &plan.events)
    })
    .map_err(|e| err("send_batch", &e))?;
    if let Some(to) = plan.swap_to {
        match rec.time("tape.net.swap", root, session, || {
            client.swap(session, &s.pool[to].spec)
        }) {
            // A swap answers with the re-judged verdict; Close's is the one checked.
            Ok(Response::Ok | Response::Verdict(_)) => {}
            other => return Err(err("swap", &other)),
        }
    }
    match rec.time("tape.net.close", root, session, || client.close(session)) {
        Ok(Response::Verdict(v)) => Ok((client, v)),
        other => Err(err("close", &other)),
    }
}

/// The same plans through an in-process `MonitorServer`: per-session
/// wall time in microseconds, every verdict checked.
pub fn inproc_session_us(
    s: &Script,
    want: &[Expected],
    sessions: usize,
    tally: &mut Tally,
) -> Vec<f64> {
    let server = MonitorServer::start(ServerConfig::default());
    let (tx, rx) = sync_channel(1 << 12);
    let mut times = Vec::with_capacity(sessions);
    for j in 0..sessions {
        let ix = j % s.plans.len();
        let (plan, open) = (&s.plans[ix], &s.pool[s.plans[ix].spec]);
        let session = j as u64;
        let t0 = Instant::now();
        let opened = match &open.stream {
            Some(stream) => server.open_with_stream(session, &open.spec, stream, false),
            None => server.open(session, &open.spec, false),
        };
        server.post(
            Request::EventBatch {
                session,
                tape: write_tape(&plan.events),
            },
            tx.clone(),
        );
        let swapped = plan
            .swap_to
            .map(|to| server.swap(session, &s.pool[to].spec));
        let closed = server.close(session);
        times.push(t0.elapsed().as_secs_f64() * 1e6);
        tally.record(match (opened, swapped, closed) {
            (
                Response::Ok,
                None | Some(Response::Ok | Response::Verdict(_)),
                Response::Verdict(v),
            ) => compare(&v, &want[ix]),
            other => Err(format!("in-process churn: {other:?}")),
        });
        while rx.try_recv().is_ok() {}
    }
    server.shutdown();
    times
}

/// Compile times in microseconds of every pool spec: safety specs
/// (`SpecMonitor::new`) and stream specs (`StreamMonitor::new`).
pub fn compile_us(s: &Script, reps: usize) -> (Vec<f64>, Vec<f64>) {
    let (mut tspec, mut stream) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        for p in &s.pool {
            let t0 = Instant::now();
            std::hint::black_box(SpecMonitor::new("c", &p.spec).expect("compiles"));
            tspec.push(t0.elapsed().as_secs_f64() * 1e6);
            if let Some(src) = &p.stream {
                let t0 = Instant::now();
                std::hint::black_box(StreamMonitor::new("c", src).expect("compiles"));
                stream.push(t0.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    (tspec, stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_pool_and_tapes_other_seed_differs() {
        let image = |s: &Script| {
            let mut bytes = Vec::new();
            for p in &s.pool {
                bytes.extend(p.spec.as_bytes());
                bytes.extend(p.stream.as_deref().unwrap_or("-").as_bytes());
            }
            for p in &s.plans {
                bytes.extend(write_tape(&p.events));
                bytes.extend([p.spec as u8, p.swap_to.map_or(255, |t| t as u8)]);
            }
            bytes
        };
        assert_eq!(image(&script(9)), image(&script(9)));
        assert_ne!(image(&script(9)), image(&script(10)));
        assert_ne!(script(9).pool, script(10).pool);
    }

    #[test]
    fn a_quarter_of_sessions_swap_and_every_plan_matches_in_process() {
        let s = script(4);
        assert_eq!(
            s.plans.iter().filter(|p| p.swap_to.is_some()).count(),
            PLANS / 4
        );
        let want = oracle(&s);
        assert!(want.iter().any(|w| w.violated) && want.iter().any(|w| !w.violated));
        assert!(want.iter().any(|w| w.firings > 0));
        let mut tally = Tally::default();
        inproc_session_us(&s, &want, PLANS, &mut tally);
        assert_eq!(tally.failed, 0, "{:?}", tally.first);
    }
}
