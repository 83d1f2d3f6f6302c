//! Deployments: one `wgrap serve --listen` process, or shard processes
//! behind a `serve --router`. A deployment's set-up time runs from the
//! first spawn to the first successful response through its front door.

use crate::net::Conn;
use crate::proc::Server;
use std::path::Path;
use std::time::{Duration, Instant};
use wgrap_service::json::{self, Json};

/// How long a fresh deployment may take to answer its first request.
const FIRST_OK_TIMEOUT: Duration = Duration::from_secs(60);

/// A running deployment; the front door is the last server.
#[derive(Debug)]
pub struct Deployment {
    /// Every process, shards first, the front door last.
    pub servers: Vec<Server>,
}

/// What to start.
#[derive(Debug, Clone)]
pub enum Spec {
    /// One `serve <instance> <args…>` process.
    Single {
        /// Instance file.
        instance: String,
        /// Extra serve flags.
        args: Vec<String>,
    },
    /// One `serve <shard file> <args…>` per shard file, then
    /// `serve --router <their addresses>`.
    Routed {
        /// Shard instance files, in shard order.
        shards: Vec<String>,
        /// Extra serve flags for every shard.
        args: Vec<String>,
    },
}

impl Deployment {
    /// Start `spec` and wait for its first successful response. Returns
    /// the deployment and its set-up time in seconds.
    pub fn start(bin: &Path, dir: &Path, spec: &Spec) -> Result<(Self, f64), String> {
        let t0 = Instant::now();
        let servers = match spec {
            Spec::Single { instance, args } => {
                let mut argv = vec!["serve".to_string(), instance.clone()];
                argv.extend(args.iter().cloned());
                let mut s = Server::start(bin, &argv, dir, "serve")?;
                s.ready()?;
                vec![s]
            }
            Spec::Routed { shards, args } => {
                // Shards load their instances in parallel; the router
                // needs all of them listening.
                let mut servers = shards
                    .iter()
                    .enumerate()
                    .map(|(i, file)| {
                        let mut argv = vec!["serve".to_string(), file.clone()];
                        argv.extend(args.iter().cloned());
                        Server::start(bin, &argv, dir, &format!("shard{i}"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                for s in &mut servers {
                    s.ready()?;
                }
                let addrs: Vec<&str> = servers.iter().map(|s| s.addr.as_str()).collect();
                let argv = vec!["serve".to_string(), "--router".to_string(), addrs.join(",")];
                let mut router = Server::start(bin, &argv, dir, "router")?;
                router.ready()?;
                servers.push(router);
                servers
            }
        };
        let deployment = Self { servers };
        deployment.first_ok()?;
        Ok((deployment, t0.elapsed().as_secs_f64()))
    }

    /// The front door's address.
    pub fn front(&self) -> &str {
        &self.servers.last().expect("a deployment has a server").addr
    }

    /// The shard processes (empty for a single server).
    pub fn shards(&self) -> &[Server] {
        &self.servers[..self.servers.len() - 1]
    }

    /// Poll the front door with `stats` until it answers `ok`.
    fn first_ok(&self) -> Result<(), String> {
        let start = Instant::now();
        loop {
            if let Ok(mut conn) = Conn::connect(self.front()) {
                if let Ok(line) = conn.call(r#"{"op":"stats"}"#) {
                    if is_ok(&line) {
                        return Ok(());
                    }
                }
            }
            if start.elapsed() > FIRST_OK_TIMEOUT {
                let logs: Vec<String> = self.servers.iter().map(Server::log_text).collect();
                return Err(format!("no successful response: {}", logs.join(" | ")));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Peak resident memory summed over every process, in MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        self.servers.iter().filter_map(Server::peak_rss_kib).sum::<u64>() as f64 / 1024.0
    }

    /// CPU seconds used so far, summed over every process.
    pub fn cpu_seconds(&self) -> f64 {
        self.servers.iter().filter_map(Server::cpu_seconds).sum()
    }

    /// Kill every process (SIGKILL) and reap it.
    pub fn kill(&mut self) {
        for s in &mut self.servers {
            s.kill();
        }
    }
}

/// Start `spec` `times` times and keep the last deployment; the set-up
/// time is the median. `reset` runs before every start (a durable
/// deployment wipes its data directory, so each start is a clean one).
pub fn start_median(
    bin: &Path,
    dir: &Path,
    spec: &Spec,
    times: usize,
    reset: &dyn Fn() -> Result<(), String>,
) -> Result<(Deployment, Vec<f64>), String> {
    let mut setups = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        if let Some(mut d) = last.take() {
            Deployment::kill(&mut d);
        }
        reset()?;
        let (d, secs) = Deployment::start(bin, dir, spec)?;
        setups.push(secs);
        last = Some(d);
    }
    Ok((last.expect("times >= 1"), setups))
}

/// Did a response line answer `"ok":true` (a `batch` only if every entry
/// did)?
pub fn is_ok(line: &str) -> bool {
    let Ok(v) = json::parse(line) else { return false };
    let entry_ok = |e: &Json| e.get("ok").and_then(Json::as_bool).unwrap_or(true);
    v.get("ok").and_then(Json::as_bool) == Some(true)
        && v.get("results")
            .and_then(Json::as_arr)
            .is_none_or(|entries| entries.iter().all(entry_ok))
}

/// A v2 `stats` snapshot from `addr`.
pub fn stats(addr: &str) -> Result<Json, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("stats connect {addr}: {e}"))?;
    let line = conn.call(r#"{"v":2,"op":"stats"}"#).map_err(|e| format!("stats {addr}: {e}"))?;
    json::parse(&line).map_err(|e| format!("stats reply: {e}"))
}

/// A numeric member at `path` of a JSON object (0 when absent).
pub fn num(v: &Json, path: &[&str]) -> f64 {
    let mut cur = v;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}
