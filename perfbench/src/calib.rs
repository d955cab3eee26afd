//! Host-speed calibration. The benchmark host is a shared VM whose
//! speed swings by ±15–20% within minutes (neighbours on the same
//! physical cores), which no amount of repetition inside one run
//! averages out. So `monitored_eval`, which is single-threaded, runs
//! this fixed reference kernel before each pass and each set-up build,
//! and scales its results to a nominal host: a run on a host running 20% slow reports what it
//! would have measured at the nominal speed. The server workloads are
//! not scaled: for `ingest` neither the kernel between rounds (server
//! idle) nor its thread CPU time during rounds tracked the throughput,
//! and `session_churn` is bound by timers, not by the CPU.
//!
//! The kernel uses only `std` (ordered-map inserts, string formatting,
//! reference-counted allocation, pointer chasing — the mix an
//! interpreter does), so no change to the program under test can move
//! it. Raw values and the factor are printed in the provenance line.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// The kernel's median time, in ms, on the host the bounds were set on.
pub const NOMINAL_MS: f64 = 1.5;

/// Runs the reference kernel once; returns its time in ms.
pub fn kernel() -> f64 {
    let t0 = Instant::now();
    let mut map = BTreeMap::new();
    for i in 0..6000u64 {
        map.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), format!("v{i}"));
    }
    let mut acc = 0u64;
    for (k, v) in &map {
        acc ^= k ^ v.len() as u64;
    }
    let list: Vec<Rc<(u64, String)>> = map.into_iter().map(Rc::new).collect();
    for x in &list {
        acc = acc.wrapping_add(x.0 >> 3);
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64() * 1e3
}

/// How much slower than nominal the host ran, from kernel samples taken
/// during the run (>1 means slower).
pub fn slowdown(samples_ms: &[f64]) -> f64 {
    crate::stats::median(samples_ms) / NOMINAL_MS
}
