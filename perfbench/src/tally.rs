//! Attempted/failed accounting shared by the workloads. A failure is an
//! I/O error, a `Response::Err`, or an output that disagrees with its
//! offline oracle; the run keeps going so the failure share is reported
//! instead of aborting on the first one.

#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first failure, verbatim.
    pub first: Option<String>,
}

impl Tally {
    /// Counts one attempted operation with its outcome; returns whether
    /// it succeeded.
    pub fn record(&mut self, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(msg) => {
                self.failed += 1;
                self.first.get_or_insert(msg);
                false
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first.is_none() {
            self.first = other.first;
        }
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}
