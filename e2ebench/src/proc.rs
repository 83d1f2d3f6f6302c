//! Server processes: spawn a real `wgrap` binary on a loopback port chosen
//! by the kernel, learn the port from its stderr banner, read its peak
//! memory, and kill it. Every [`Server`] is killed and reaped when dropped,
//! so no process outlives the benchmark, even on an error path.

use std::fs::File;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed at
/// 100 on Linux).
const USER_HZ: f64 = 100.0;

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// How long a process may take to print its listening banner.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// One running `wgrap serve` process.
#[derive(Debug)]
pub struct Server {
    /// A short label for messages (`serve`, `shard0`, `router`, …).
    pub name: String,
    /// The `host:port` it listens on.
    pub addr: String,
    child: Child,
    log: PathBuf,
}

impl Server {
    /// Spawn `bin args… --listen 127.0.0.1:0`, with stderr captured in
    /// `dir/<name>.log`, without waiting for it to listen (see
    /// [`Server::ready`]).
    pub fn start(bin: &Path, args: &[String], dir: &Path, name: &str) -> Result<Self, String> {
        let log = dir.join(format!("{name}.log"));
        let err = File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut command = Command::new(bin);
        command
            .args(args)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err);
        // SAFETY: prctl is async-signal-safe; PR_SET_PDEATHSIG (1) with
        // SIGKILL (9) makes the kernel kill the server if the benchmark
        // dies before it can.
        unsafe {
            command.pre_exec(|| {
                prctl(1, 9, 0, 0, 0);
                Ok(())
            });
        }
        let child = command.spawn().map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        Ok(Self { name: name.to_string(), addr: String::new(), child, log })
    }

    /// Wait for the "listening on" banner and record the address.
    pub fn ready(&mut self) -> Result<(), String> {
        self.addr = self.wait_banner()?;
        Ok(())
    }

    fn wait_banner(&mut self) -> Result<String, String> {
        let start = Instant::now();
        loop {
            let text = std::fs::read_to_string(&self.log).unwrap_or_default();
            // Only a complete banner line counts: the file may be read while
            // the line is half written.
            let banner = text
                .split_inclusive('\n')
                .filter(|l| {
                    l.ends_with('\n') && l.contains("listening on") && !l.contains("metrics")
                })
                .find_map(|l| {
                    l.trim_end().rsplit(' ').next()?.parse::<std::net::SocketAddr>().ok()
                });
            if let Some(addr) = banner {
                return Ok(addr.to_string());
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("{} exited ({status}) before listening: {text}", self.name));
            }
            if start.elapsed() > START_TIMEOUT {
                return Err(format!("{} did not start listening: {text}", self.name));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The process's peak resident set (`VmHWM`) in KiB.
    pub fn peak_rss_kib(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
    }

    /// CPU time (user + system, all threads) the process has used, in
    /// seconds. Time the host steals from the machine is not counted.
    pub fn cpu_seconds(&self) -> Option<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id())).ok()?;
        // Fields after the parenthesised command name: state is field 3,
        // utime and stime are fields 14 and 15.
        let rest = &stat[stat.rfind(')')? + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
        Some(ticks as f64 / USER_HZ)
    }

    /// Everything the process wrote to stderr so far.
    pub fn log_text(&self) -> String {
        std::fs::read_to_string(&self.log).unwrap_or_default()
    }

    /// SIGKILL the process and reap it.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Build the default-feature release `wgrap` binary from the checkout at
/// `root` and return its path. The target directory follows
/// `CARGO_TARGET_DIR` (relative to `root`) and defaults to `target`.
pub fn build_wgrap(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(root)
        .args(["build", "--release", "--quiet", "--bin", "wgrap"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building wgrap failed ({status})"));
    }
    let bin = target_dir(root).join("release").join("wgrap");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("built binary not found at {}", bin.display()))
    }
}

/// The cargo target directory of the checkout at `root`.
pub fn target_dir(root: &Path) -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    }
}
