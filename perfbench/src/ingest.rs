//! The `ingest` workload: two producer threads, one TCP connection
//! each, stream long sessions through `Client::send_batch` at
//! `DEFAULT_BATCH` and close them. Every Close verdict is compared with
//! the offline oracle for exactly the prefix that was sent.

use crate::rng::Rng;
use crate::tally::Tally;
use crate::trace::Recorder;
use monsem_core::Value;
use monsem_monitor::Monitor;
use monsem_monitor::TapeEvent;
use monsem_stream::StreamMonitor;
use monsem_syntax::Annotation;
use monsem_tape::{
    read_frame, read_tape, write_frame, write_tape, Client, MonitorServer, Request, Response,
    ServerConfig, Verdict, DEFAULT_BATCH,
};
use monsem_tspec::{SpecMonitor, TapeOutcome};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Producer threads (and connections).
pub const PRODUCERS: usize = 2;
/// Annotation names the events are drawn from.
pub const NAMES: usize = 32;
/// Distinct event batches a session template is assembled from.
pub const POOL: usize = 48;
/// Batches in a full session (`SESSION_BATCHES * DEFAULT_BATCH` events).
pub const SESSION_BATCHES: usize = 4096;
/// Batches per timed chunk: the workload's operation is pushing one
/// chunk (`CHUNK_BATCHES * DEFAULT_BATCH` events) through `send_batch`.
pub const CHUNK_BATCHES: usize = 64;
/// Popularity rank of the name the safety spec guards; fixed so the
/// share of events the spec must judge does not depend on the seed.
const GUARDED_RANK: usize = 3;

/// One producer's session script: every session it opens streams
/// `order` (batches drawn from `pool`, re-stamped with consecutive
/// steps) until the template or the run ends.
#[derive(Debug, Clone)]
pub struct Template {
    pub spec: String,
    pub stream: String,
    pub pool: Vec<Vec<TapeEvent>>,
    pub order: Vec<u32>,
}

/// The close verdict the server owes a session: for `ingest`, one
/// closed after `k` batches and a `done` marker; for `session_churn`,
/// one plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub ingested: u64,
    pub earliest: Option<u64>,
    pub violated: bool,
    pub firings: u64,
}

pub fn names() -> Vec<Annotation> {
    (0..NAMES)
        .map(|i| Annotation::label(format!("svc{i:02}").as_str()))
        .collect()
}

/// The seeded template of producer `producer`.
pub fn template(seed: u64, producer: usize) -> Template {
    let mut rng = Rng::new(seed, 0x1_0000 + producer as u64);
    let names = names();
    // The seed decides which name holds which popularity rank.
    let mut by_rank: Vec<usize> = (0..NAMES).collect();
    rng.shuffle(&mut by_rank);
    let guarded = by_rank[GUARDED_RANK];
    let event = |rng: &mut Rng| {
        // Skewed towards low ranks: a few hot names, a long tail.
        let i = by_rank[rng.below(NAMES as u64).min(rng.below(NAMES as u64)) as usize];
        if rng.below(2) == 0 {
            return TapeEvent::pre(&names[i], 0);
        }
        let v = if i != guarded && rng.below(1024) == 0 {
            rng.range(-1000, 0)
        } else {
            rng.range(0, 1_000_000)
        };
        TapeEvent::post(&names[i], &Value::Int(v), 0)
    };
    let mut pool: Vec<Vec<TapeEvent>> = (0..POOL)
        .map(|_| (0..DEFAULT_BATCH).map(|_| event(&mut rng)).collect())
        .collect();
    // The one batch that violates the safety spec, placed at a seeded
    // point of the template.
    let mut bad = pool[rng.below(POOL as u64) as usize].clone();
    let at = rng.below(DEFAULT_BATCH as u64) as usize;
    bad[at] = TapeEvent::post(&names[guarded], &Value::Int(-rng.range(1, 100)), 0);
    pool.push(bad);
    let mut order: Vec<u32> = (0..SESSION_BATCHES)
        .map(|_| rng.below(POOL as u64) as u32)
        .collect();
    let lo = SESSION_BATCHES as i64 / 8;
    order[rng.range(lo, 4 * lo) as usize] = POOL as u32;
    Template {
        spec: format!("always(post(svc{guarded:02}) => value >= 0)"),
        stream: "stream neg = count(value < 0) over window(512)\n\
                 stream peak = max(post(_)) over window(64)\n\
                 trigger burst = neg >= 2"
            .to_string(),
        pool,
        order,
    }
}

/// Gives the `k`-th batch of a session its tape steps.
pub fn stamp(batch: &mut [TapeEvent], k: usize) {
    let base = (k * DEFAULT_BATCH) as u64;
    for (i, ev) in batch.iter_mut().enumerate() {
        ev.step = base + i as u64;
    }
}

/// The offline oracle for every prefix of `t`: entry `k` is the verdict
/// of a session closed after `k` batches and a `done` marker, folded by
/// the offline checkers (`check_tape_seeded`) batch by batch.
pub fn oracle(t: &Template) -> Vec<Expected> {
    let spec = SpecMonitor::new("oracle", &t.spec).expect("template spec compiles");
    let stream = StreamMonitor::new("oracle-stream", &t.stream).expect("template stream compiles");
    let mut pool = t.pool.clone();
    let mut ss = spec.initial_state();
    let mut st = stream.initial_state();
    let mut earliest = None;
    let mut out = Vec::with_capacity(t.order.len() + 1);
    for k in 0..=t.order.len() {
        let done = [TapeEvent::done((k * DEFAULT_BATCH) as u64)];
        let fin = spec.check_tape_seeded(ss.clone(), done.iter());
        let sfin = stream.check_tape_seeded(st.clone(), done.iter());
        out.push(Expected {
            ingested: (k * DEFAULT_BATCH) as u64 + 1,
            earliest,
            violated: earliest.is_some() || matches!(fin.outcome, TapeOutcome::Violated(_)),
            firings: sfin.fired_total,
        });
        if k == t.order.len() {
            break;
        }
        let batch = &mut pool[t.order[k] as usize];
        stamp(batch, k);
        let c = spec.check_tape_seeded(ss, batch.iter());
        earliest = earliest.or(c.earliest_violation);
        ss = c.state;
        st = stream.check_tape_seeded(st, batch.iter()).state;
    }
    out
}

pub fn compare(v: &Verdict, want: &Expected) -> Result<(), String> {
    let got = Expected {
        ingested: v.ingested,
        earliest: v.earliest_violation,
        violated: v.violation.is_some(),
        firings: v.firings,
    };
    if &got == want {
        Ok(())
    } else {
        Err(format!(
            "session {}: server said {got:?}, oracle {want:?}",
            v.session
        ))
    }
}

/// Sends `Close` and reads replies up to the verdict, counting the
/// cumulative acks that were waiting in front of it.
fn close_counting_acks(stream: &TcpStream, session: u64) -> io::Result<(Response, u64)> {
    let mut s = stream;
    write_frame(&mut s, &Request::Close { session }.encode())?;
    let mut acks = 0;
    loop {
        let frame = read_frame(&mut s)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
        match Response::decode(&frame).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))? {
            Response::Ack { .. } => acks += 1,
            resp => return Ok((resp, acks)),
        }
    }
}

/// What the producers measured.
#[derive(Debug)]
pub struct Measured {
    pub tally: Tally,
    pub events: u64,
    pub batches: u64,
    /// Time to push each complete chunk of `CHUNK_BATCHES` batches.
    pub chunk_ms: Vec<f64>,
    /// Total time of the rounds.
    pub rounds_s: f64,
    /// Verified events and chunks per second of each round.
    pub round_events_per_s: Vec<f64>,
    pub round_chunks_per_s: Vec<f64>,
    pub rec: Recorder,
    rounds: Vec<Round>,
}

/// One producer's share of a round.
#[derive(Debug, Clone, Copy)]
struct Round {
    start: Instant,
    end: Instant,
    events: u64,
    chunks: u64,
}

impl Measured {
    fn new(rec: Recorder) -> Measured {
        Measured {
            tally: Tally::default(),
            events: 0,
            batches: 0,
            chunk_ms: Vec::new(),
            rounds_s: 0.0,
            round_events_per_s: Vec::new(),
            round_chunks_per_s: Vec::new(),
            rec,
            rounds: Vec::new(),
        }
    }
}

/// Round synchronisation between the producers.
struct Rounds {
    barrier: Barrier,
    go: AtomicBool,
    broken: AtomicBool,
}

/// Runs the producers against `addr` for `seconds`, in rounds: both
/// producers open a session at the same moment, and the round ends when
/// both have closed theirs, so the two always stream concurrently.
pub fn run(
    addr: SocketAddr,
    templates: &[Template],
    expected: &[Vec<Expected>],
    seconds: f64,
    traced: bool,
) -> Measured {
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let sync = Rounds {
        barrier: Barrier::new(PRODUCERS),
        go: AtomicBool::new(false),
        broken: AtomicBool::new(false),
    };
    let outs: Vec<Measured> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let (t, want, sync) = (&templates[p], &expected[p], &sync);
                scope.spawn(move || {
                    produce(
                        addr,
                        p,
                        t,
                        want,
                        deadline,
                        sync,
                        Recorder::new(traced, epoch),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("producer thread"))
            .collect()
    });
    let mut total = Measured::new(Recorder::new(traced, epoch));
    for r in 0..outs[0].rounds.len() {
        let shares: Vec<Round> = outs.iter().map(|m| m.rounds[r]).collect();
        let start = shares.iter().map(|s| s.start).min().expect("producers");
        let end = shares.iter().map(|s| s.end).max().expect("producers");
        let secs = (end - start).as_secs_f64();
        total.rounds_s += secs;
        let chunks = shares.iter().map(|s| s.chunks).sum::<u64>();
        // A round the deadline cut before it streamed a chunk measures
        // only Open and Close; it counts in the totals, not the median.
        if chunks > 0 {
            total
                .round_events_per_s
                .push(shares.iter().map(|s| s.events).sum::<u64>() as f64 / secs);
            total.round_chunks_per_s.push(chunks as f64 / secs);
        }
    }
    for m in outs {
        total.tally.merge(m.tally);
        total.events += m.events;
        total.batches += m.batches;
        total.chunk_ms.extend(m.chunk_ms);
        total.rec.merge(m.rec);
    }
    total
}

fn produce(
    addr: SocketAddr,
    producer: usize,
    t: &Template,
    want: &[Expected],
    deadline: Instant,
    sync: &Rounds,
    mut rec: Recorder,
) -> Measured {
    let mut m = Measured::new(Recorder::new(false, Instant::now()));
    let conn = rec
        .time("tape.net.connect", None, 0, || TcpStream::connect(addr))
        .map_err(|e| {
            m.tally
                .record(Err(format!("producer {producer}: connect: {e}")))
        })
        .ok();
    if conn.is_none() {
        sync.broken.store(true, Ordering::SeqCst);
    }
    let mut client = conn.as_ref().map(Client::new);
    let mut pool = t.pool.clone();
    let mut session = producer as u64;
    loop {
        // Every producer passes the same barriers each round, so a
        // failed one keeps the other from waiting forever.
        if sync.barrier.wait().is_leader() {
            let go = Instant::now() < deadline && !sync.broken.load(Ordering::SeqCst);
            sync.go.store(go, Ordering::SeqCst);
        }
        sync.barrier.wait();
        if !sync.go.load(Ordering::SeqCst) {
            break;
        }
        let start = Instant::now();
        let (events, chunks) = (m.events, m.chunk_ms.len());
        if let (Some(client), Some(conn)) = (client.as_mut(), conn.as_ref()) {
            // Producer p uses ids ≡ p (mod PRODUCERS), so the two
            // concurrent sessions never share a shard of the default four.
            session += PRODUCERS as u64;
            let root = rec.open("ingest.session", None, session);
            let outcome = stream_session(
                client, conn, session, t, &mut pool, deadline, &mut rec, root, &mut m,
            )
            .and_then(|(v, k)| {
                compare(&v, &want[k])?;
                m.events += v.ingested;
                Ok(())
            });
            rec.close(root);
            if !m.tally.record(outcome) {
                sync.broken.store(true, Ordering::SeqCst);
            }
        }
        m.rounds.push(Round {
            start,
            end: Instant::now(),
            events: m.events - events,
            chunks: (m.chunk_ms.len() - chunks) as u64,
        });
    }
    m.rec = rec;
    m
}

#[allow(clippy::too_many_arguments)]
fn stream_session(
    client: &mut Client<&TcpStream>,
    conn: &TcpStream,
    session: u64,
    t: &Template,
    pool: &mut [Vec<TapeEvent>],
    deadline: Instant,
    rec: &mut Recorder,
    root: Option<usize>,
    m: &mut Measured,
) -> Result<(Verdict, usize), String> {
    let err = |what: &str, e: &dyn std::fmt::Display| format!("session {session}: {what}: {e}");
    match rec.time("tape.net.open", root, session, || {
        client.open_with_stream(session, &t.spec, &t.stream, false)
    }) {
        Ok(Response::Ok) => {}
        Ok(other) => return Err(err("open", &format!("{other:?}"))),
        Err(e) => return Err(err("open", &e)),
    }
    let mut k = 0;
    let mut chunk_start = Instant::now();
    while k < t.order.len() && Instant::now() < deadline {
        let batch = &mut pool[t.order[k] as usize];
        stamp(batch, k);
        if k % CHUNK_BATCHES == 0 {
            chunk_start = Instant::now();
        }
        rec.time("tape.net.send_batch", root, session, || {
            client.send_batch(session, batch)
        })
        .map_err(|e| err("send_batch", &e))?;
        if k % CHUNK_BATCHES == CHUNK_BATCHES - 1 {
            m.chunk_ms.push(chunk_start.elapsed().as_secs_f64() * 1e3);
        }
        rec.count("ingest.events_sent", DEFAULT_BATCH as u64);
        k += 1;
    }
    m.batches += k as u64;
    let done = [TapeEvent::done((k * DEFAULT_BATCH) as u64)];
    rec.time("tape.net.send_batch", root, session, || {
        client.send_batch(session, &done)
    })
    .map_err(|e| err("send done", &e))?;
    let (resp, acks) = rec
        .time("tape.net.close", root, session, || {
            close_counting_acks(conn, session)
        })
        .map_err(|e| err("close", &e))?;
    rec.count("tape.net.acks", acks);
    match resp {
        Response::Verdict(v) => Ok((v, k)),
        other => Err(err("close", &format!("{other:?}"))),
    }
}

/// In-process replicas on producer 0's template, reported beside the
/// TCP numbers and never summed with them: encode, decode, the two
/// offline folds, and the same session through an in-process
/// `MonitorServer`.
#[derive(Debug)]
pub struct Replica {
    pub encode_ns_per_event: f64,
    pub decode_ns_per_event: f64,
    pub tspec_fold_ns_per_event: f64,
    pub stream_fold_ns_per_event: f64,
    pub wire_bytes_per_event: f64,
    pub inproc_ns_per_event: f64,
}

pub fn replica(t: &Template, want: &[Expected], batches: usize, tally: &mut Tally) -> Replica {
    let batches = batches.min(t.order.len());
    let events = (batches * DEFAULT_BATCH) as f64;
    let mut pool = t.pool.clone();
    let mut session_batches = Vec::with_capacity(batches);
    for k in 0..batches {
        let b = &mut pool[t.order[k] as usize];
        stamp(b, k);
        session_batches.push(b.clone());
    }
    let t0 = Instant::now();
    let tapes: Vec<Vec<u8>> = session_batches.iter().map(write_tape).collect();
    let encode = t0.elapsed();
    let t0 = Instant::now();
    let decoded: Vec<Vec<TapeEvent>> = tapes
        .iter()
        .map(|b| read_tape(b).expect("own tape decodes"))
        .collect();
    let decode = t0.elapsed();
    tally.record(if decoded == session_batches {
        Ok(())
    } else {
        Err("replica: read_tape(write_tape(batch)) != batch".to_string())
    });
    let wire: usize = tapes
        .iter()
        .map(|tape| {
            4 + Request::EventBatch {
                session: 1,
                tape: tape.clone(),
            }
            .encode()
            .len()
        })
        .sum();

    let spec = SpecMonitor::new("replica", &t.spec).expect("compiles");
    let t0 = Instant::now();
    let mut ss = spec.initial_state();
    for b in &decoded {
        ss = spec.check_tape_seeded(ss, b.iter()).state;
    }
    let tspec_fold = t0.elapsed();
    std::hint::black_box(&ss);
    let stream = StreamMonitor::new("replica", &t.stream).expect("compiles");
    let t0 = Instant::now();
    let mut st = stream.initial_state();
    for b in &decoded {
        st = stream.check_tape_seeded(st, b.iter()).state;
    }
    let stream_fold = t0.elapsed();
    std::hint::black_box(&st);

    let server = MonitorServer::start(ServerConfig::default());
    let (tx, rx) = sync_channel(1 << 16);
    let session = 7;
    let t0 = Instant::now();
    let opened = server.open_with_stream(session, &t.spec, &t.stream, false);
    for b in session_batches
        .iter()
        .map(Vec::as_slice)
        .chain([&[TapeEvent::done(events as u64)][..]])
    {
        server.post(
            Request::EventBatch {
                session,
                tape: write_tape(b),
            },
            tx.clone(),
        );
    }
    let closed = server.close(session);
    let inproc = t0.elapsed();
    server.shutdown();
    drop(rx);
    tally.record(match (opened, closed) {
        (Response::Ok, Response::Verdict(v)) => compare(&v, &want[batches]),
        other => Err(format!("in-process replica: {other:?}")),
    });
    let per_event = |d: Duration| d.as_nanos() as f64 / events;
    Replica {
        encode_ns_per_event: per_event(encode),
        decode_ns_per_event: per_event(decode),
        tspec_fold_ns_per_event: per_event(tspec_fold),
        stream_fold_ns_per_event: per_event(stream_fold),
        wire_bytes_per_event: wire as f64 / events,
        inproc_ns_per_event: per_event(inproc),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_tapes_other_seed_other_tapes() {
        let image = |seed| {
            let t = template(seed, 0);
            let mut pool = t.pool.clone();
            let mut bytes = t.spec.clone().into_bytes();
            bytes.extend(t.stream.as_bytes());
            for (k, &i) in t.order.iter().enumerate().take(64) {
                stamp(&mut pool[i as usize], k);
                bytes.extend(write_tape(&pool[i as usize]));
            }
            bytes
        };
        assert_eq!(image(5), image(5));
        assert_ne!(image(5), image(6));
        assert_ne!(template(5, 0).order, template(5, 1).order);
    }

    #[test]
    fn the_template_violates_once_and_fires_the_slo() {
        let t = template(3, 1);
        let want = oracle(&t);
        let full = want.last().unwrap();
        assert!(full.violated && full.earliest.is_some());
        assert!(full.firings > 0, "the SLO trigger must fire: {full:?}");
        assert!(!want[0].violated && want[0].ingested == 1);
    }

    #[test]
    fn an_in_process_session_matches_the_oracle_and_a_wrong_verdict_fails() {
        let t = template(11, 0);
        let want = oracle(&t);
        let mut tally = Tally::default();
        replica(&t, &want, 600, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (2, 0), "{:?}", tally.first);
        // An injected wrong verdict is a failure, and raises the error rate.
        let mut v = Verdict {
            session: 1,
            ingested: want[600].ingested,
            health: "ok".into(),
            violation: want[600].violated.then(|| "x".into()),
            earliest_violation: want[600].earliest,
            accepted: Some(true),
            swap_truncated: false,
            firings: want[600].firings,
            missed: 0,
        };
        assert!(tally.record(compare(&v, &want[600])));
        v.firings += 1;
        assert!(!tally.record(compare(&v, &want[600])));
        assert_eq!(tally.failed, 1);
        assert!(tally.error_rate() > 0.0);
        assert!(tally.first.unwrap().contains("oracle"));
    }
}
