//! The daemon under test: `qelectctl serve` as its own process, with
//! flags sized to a 2-core box and named explicitly, so a later change
//! of a default never changes the workload.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::http::Client;

/// The daemon's command-line shape (recorded in every result).
pub const FLAGS: [&str; 8] = [
    "--addr",
    "127.0.0.1:0",
    "--shards",
    "1",
    "--workers",
    "2",
    "--io-threads",
    "2",
];

pub struct Daemon {
    child: Child,
    drain: Option<JoinHandle<()>>,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Launch `qelectctl serve` and wait until `GET /healthz` answers.
    pub fn start(exe: &Path, store: Option<&Path>) -> Result<Daemon, String> {
        let mut cmd = Command::new(exe);
        cmd.arg("serve")
            .args(FLAGS)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some(store) = store {
            cmd.arg("--store").arg(store);
        }
        let mut child = cmd.spawn().map_err(|e| format!("spawn {exe:?}: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut lines = BufReader::new(stdout).lines();
        let mut addr = None;
        for line in &mut lines {
            let Ok(line) = line else { break };
            if let Some(rest) = line.strip_prefix("qelectd listening on ") {
                addr = rest.split_whitespace().next().and_then(|a| a.parse().ok());
                break;
            }
        }
        // Keep reading the daemon's stdout so its final metrics dump can
        // never block it; the thread ends when the daemon exits.
        let drain = std::thread::spawn(move || for _ in lines {});
        let mut daemon = Daemon {
            child,
            drain: Some(drain),
            addr: addr.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0))),
        };
        if addr.is_none() {
            daemon.kill();
            return Err("qelectd exited before printing its listening line".into());
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let healthy = Client::connect(daemon.addr)
                .and_then(|mut c| c.request("GET", "/healthz", ""))
                .is_ok_and(|(code, _)| code == 200);
            if healthy {
                return Ok(daemon);
            }
            if Instant::now() > deadline {
                daemon.kill();
                return Err("qelectd never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Peak resident set (VmHWM) of the daemon process, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Drain through `POST /shutdown` and wait for the process to exit
    /// (killing it if it has not exited within 10 s).
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = Client::connect(self.addr).and_then(|mut c| c.request("POST", "/shutdown", ""));
        let deadline = Instant::now() + Duration::from_secs(10);
        while asked.is_ok() && Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                self.reap();
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.kill();
        Err(format!("qelectd did not drain and exit: {:?}", asked.err()))
    }

    /// Stop the process at once (set-up measurements need no drain).
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.drain.is_some() {
            self.kill();
        }
    }
}

/// VmHWM from a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{status_path} has no VmHWM line"))
}
