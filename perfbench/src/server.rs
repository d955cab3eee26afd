//! The system under test for the server workloads: a child
//! `monsem serve --tcp 127.0.0.1:0` process with its defaults.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running server child.
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    stderr: Option<JoinHandle<()>>,
    pub addr: SocketAddr,
    /// The listening banner, e.g. `; monitor server listening on tcp
    /// 127.0.0.1:40123 (threaded io)`.
    pub banner: String,
    /// The I/O backend the banner names.
    pub backend: String,
    pub cmdline: String,
}

pub const SERVE_ARGS: [&str; 3] = ["serve", "--tcp", "127.0.0.1:0"];

impl ServerProc {
    /// Spawns the server and returns it with its set-up time: from the
    /// spawn until the first TCP connection to it is accepted.
    pub fn spawn(monsem: &Path) -> Result<(ServerProc, Duration), String> {
        let t0 = Instant::now();
        let mut child = Command::new(monsem)
            .args(SERVE_ARGS)
            // The backend matrix some CI jobs export must not change
            // what is measured: the server runs with its defaults.
            .env_remove("MONSEM_IO_BACKEND")
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", monsem.display()))?;
        let mut lines = BufReader::new(child.stderr.take().expect("piped stderr")).lines();
        let banner = match lines.next() {
            Some(Ok(line)) => line,
            other => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("server printed no banner: {other:?}"));
            }
        };
        let parsed = banner
            .split_whitespace()
            .find_map(|w| w.parse::<SocketAddr>().ok())
            .zip(
                banner
                    .rsplit_once('(')
                    .and_then(|(_, b)| b.strip_suffix(" io)")),
            );
        let Some((addr, backend)) = parsed else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("unexpected server banner `{banner}`"));
        };
        let probe = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let setup = t0.elapsed();
        drop(probe);
        // Keep draining stderr so the child never blocks on a full pipe.
        let stderr = std::thread::spawn(move || for _ in lines.by_ref() {});
        let server = ServerProc {
            stdin: child.stdin.take(),
            child,
            stderr: Some(stderr),
            addr,
            backend: backend.to_string(),
            banner,
            cmdline: format!("monsem {}", SERVE_ARGS.join(" ")),
        };
        Ok((server, setup))
    }

    /// Spawns `n` servers in turn, keeps the last, and returns it with
    /// the median set-up time of the `n`.
    pub fn spawn_median(monsem: &Path, n: usize) -> Result<(ServerProc, f64), String> {
        let mut times = Vec::with_capacity(n);
        let mut last = None;
        for _ in 0..n.max(1) {
            let (server, setup) = ServerProc::spawn(monsem)?;
            times.push(setup.as_secs_f64());
            drop(last.replace(server));
        }
        Ok((
            last.expect("at least one server"),
            crate::stats::median(&times),
        ))
    }

    /// The child's peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for ServerProc {
    /// Stops the child on every path out of the benchmark: asks it to
    /// drain and exit, and kills it if it has not within ten seconds.
    fn drop(&mut self) {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = stdin.write_all(b"stop\n");
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MB (0 when unreadable).
pub fn peak_rss_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
