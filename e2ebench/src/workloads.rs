//! The three workloads, each run against real `wgrap serve` processes:
//! set-up (several times, median), the workload's own phases, a rate
//! ladder for the saturation knee, and the correctness checks.

use crate::check::{self, Check, Replica, Sample};
use crate::deploy::{self, Deployment, Spec};
use crate::gen;
use crate::net::{self, Conn, Done, Kind, Scheduled};
use crate::stats::{self, Summary};
use crate::traffic::{self, ColdTraffic, HotTraffic, Payload, Traffic, VenueTraffic};
use rand::RngExt;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use wgrap_core::engine::PruningPolicy;
use wgrap_service::json::{self, Json};
use wgrap_service::Update;

/// Client connections (and load threads): the machine's two cores.
pub const CONNS: usize = 2;
/// Times each deployment is started to take the median set-up time.
pub const SETUPS: usize = 9;
/// The latency limit on the tail percentile behind `knee_rps`, in ms.
pub const LATENCY_LIMIT_MS: f64 = 250.0;
/// Seconds each ladder rung runs at least.
pub const RUNG_SECONDS: f64 = 3.0;
/// Requests each ladder rung sends at least (a slow rung runs longer).
pub const RUNG_REQUESTS: f64 = 60.0;
/// Closed-loop `stats` calls behind `stats_rtt_ms`.
const RTT_CALLS: usize = 20;
/// Generator lag (p99, ms) above which a run's latencies are flagged.
pub const LAG_LIMIT_MS: f64 = 10.0;
/// How long after its last due time a phase waits for stragglers.
const DRAIN: Duration = Duration::from_secs(20);
/// Served reads re-solved in-process per run.
const CHECK_SAMPLES: usize = 16;

/// What one run needs to know.
#[derive(Debug, Clone)]
pub struct Env {
    /// The `wgrap` binary.
    pub bin: PathBuf,
    /// A scratch directory for instance files, logs and data dirs.
    pub work: PathBuf,
    /// The workload seed.
    pub seed: u64,
    /// Length of the nominal-rate phase.
    pub seconds: f64,
    /// Also collect the live per-layer counts and probes.
    pub trace: bool,
    /// Ladder rates for the knee, overriding the workload's own (none but
    /// `jra_cold`'s by default).
    pub ladder: Option<Vec<f64>>,
}

/// One named number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Requests sent, answered `ok`, and failed in one phase.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Phase name.
    pub phase: String,
    /// Requests attempted.
    pub sent: u64,
    /// Answered `"ok":true`.
    pub ok: u64,
    /// `ok:false`, `busy`, unparsable or no reply.
    pub failed: u64,
}

/// Everything a workload run reports.
#[derive(Debug, Default)]
pub struct RunReport {
    /// End-to-end metrics (and workload-specific extras).
    pub metrics: Vec<Metric>,
    /// Per-layer numbers read from the live processes (trace runs only).
    pub live_layers: Vec<Metric>,
    /// Per-phase request tallies.
    pub tallies: Vec<Tally>,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Human-readable lines (latency at each ladder rate, warnings).
    pub notes: Vec<String>,
    /// The instance the workload served (its text), for the traced run.
    pub instance_text: String,
    /// Stats-line round trip to a serving process, ms (trace runs only).
    pub stats_rtt_ms: Option<f64>,
}

impl RunReport {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.live_layers.push(Metric { name, value, unit });
    }

    /// Requests attempted over all phases.
    pub fn attempted(&self) -> u64 {
        self.tallies.iter().map(|t| t.sent).sum()
    }

    /// Requests failed over all phases.
    pub fn failed(&self) -> u64 {
        self.tallies.iter().map(|t| t.failed).sum()
    }
}

/// Latencies of one open-loop phase, by kind.
#[derive(Debug, Default)]
struct Phase {
    jra: Vec<f64>,
    batch: Vec<f64>,
    update: Vec<f64>,
    lag: Vec<f64>,
    tally: Tally,
    /// From the last due time to the last response, ms.
    overhang_ms: f64,
    /// Server CPU time per request over the phase, ms.
    cpu_ms_per_request: f64,
}

fn analyze(name: &str, sched: &[Scheduled], done: &[Done]) -> Phase {
    let mut p =
        Phase { tally: Tally { phase: name.into(), ..Tally::default() }, ..Phase::default() };
    let mut last_recv: f64 = 0.0;
    for (s, d) in sched.iter().zip(done) {
        p.tally.sent += 1;
        p.lag.push(d.lag_ms());
        let ok = d.response.as_deref().is_some_and(deploy::is_ok);
        if !ok {
            p.tally.failed += 1;
            continue;
        }
        p.tally.ok += 1;
        let latency = d.latency_ms().expect("answered");
        last_recv = last_recv.max(d.recv.unwrap_or(0.0));
        match s.kind {
            Kind::Jra => p.jra.push(latency),
            Kind::Batch => p.batch.push(latency),
            Kind::Update => p.update.push(latency),
        }
    }
    let last_due = sched.last().map_or(0.0, |s| s.due);
    p.overhang_ms = ((last_recv - last_due) * 1e3).max(0.0);
    p
}

fn summary_line(what: &str, values: &[f64]) -> String {
    match Summary::of(values) {
        Some(s) => format!("{what}: n={} p50={:.3} ms p{}={:.3} ms", s.n, s.p50, s.tail_q, s.tail),
        None => format!("{what}: no samples"),
    }
}

/// Run one open-loop phase and analyse it.
fn drive(front: &str, name: &str, sched: &[Scheduled]) -> Result<(Phase, Vec<Done>), String> {
    let done = net::open_loop(front, sched, CONNS, DRAIN).map_err(|e| format!("{name}: {e}"))?;
    Ok((analyze(name, sched, &done), done))
}

/// [`drive`] the nominal phase on `dep`, also recording the deployment's
/// CPU time per request into the phase.
fn drive_nominal(dep: &Deployment, sched: &[Scheduled]) -> Result<(Phase, Vec<Done>), String> {
    let cpu = dep.cpu_seconds();
    let (mut phase, done) = drive(dep.front(), "nominal", sched)?;
    phase.cpu_ms_per_request = (dep.cpu_seconds() - cpu) * 1e3 / sched.len().max(1) as f64;
    Ok((phase, done))
}

/// The saturation knee: run `traffic` at each ladder rate in turn, stopping
/// at the first rate that misses the limit, and interpolate the rate at
/// which the tail latency reaches [`LATENCY_LIMIT_MS`] between the last
/// rate within it and the first over it. A rate is within the limit when
/// nothing failed, its tail is at most the limit, and the backlog it left
/// (last response after its last due time) is too. A rung's effective tail
/// is the larger of its tail and that overhang, so a backlog counts
/// against it. If every rate stays within the limit, the knee is the
/// highest rate (a floor, noted in the output).
fn knee(
    front: &str,
    traffic: &mut dyn Traffic,
    env: &Env,
    (nominal_rate, nominal): (f64, &Phase),
    rungs: &[f64],
    report: &mut RunReport,
) -> Result<(f64, Vec<(Payload, Done)>), String> {
    let mut arrivals = gen::rng(env.seed, 3);
    let mut answered = Vec::new();
    let mut tally = Tally { phase: "ladder".into(), ..Tally::default() };
    // The nominal phase is the ladder's first rate.
    let all: Vec<f64> =
        nominal.jra.iter().chain(&nominal.batch).chain(&nominal.update).copied().collect();
    let nominal_tail = Summary::of(&all).map_or(f64::INFINITY, |s| s.tail).max(nominal.overhang_ms);
    if nominal.tally.failed > 0 || nominal_tail > LATENCY_LIMIT_MS {
        report
            .notes
            .push("the nominal rate already misses the limit: knee_rps scaled down from it".into());
        report.tallies.push(tally);
        return Ok((nominal_rate * (LATENCY_LIMIT_MS / nominal_tail).min(1.0), answered));
    }
    let mut last_within = (nominal_rate, nominal_tail);
    let mut knee = None;
    for &rate in rungs {
        let seconds = RUNG_SECONDS.max(RUNG_REQUESTS / rate);
        let (sched, payloads) = traffic::schedule(traffic, &mut arrivals, rate, seconds);
        let (phase, done) = drive(front, "ladder", &sched)?;
        let all: Vec<f64> =
            phase.jra.iter().chain(&phase.batch).chain(&phase.update).copied().collect();
        let s = Summary::of(&all).ok_or("empty ladder rung")?;
        let effective = s.tail.max(phase.overhang_ms);
        let within = phase.tally.failed == 0 && effective <= LATENCY_LIMIT_MS;
        report.notes.push(format!(
            "ladder {rate:>6.1}/s: {} | overhang {:.1} ms | {}",
            summary_line("all", &all),
            phase.overhang_ms,
            if within { "within limit" } else { "over limit" }
        ));
        tally.sent += phase.tally.sent;
        tally.ok += phase.tally.ok;
        tally.failed += phase.tally.failed;
        answered.extend(payloads.into_iter().zip(done));
        if within {
            last_within = (rate, effective);
            continue;
        }
        let (lo, lo_tail) = last_within;
        let hi_tail = if phase.tally.failed > 0 { f64::INFINITY } else { effective };
        let frac = ((LATENCY_LIMIT_MS - lo_tail) / (hi_tail - lo_tail)).clamp(0.0, 1.0);
        knee = Some(lo + (rate - lo) * frac);
        break;
    }
    report.tallies.push(tally);
    let knee = match knee {
        Some(k) => k,
        None => {
            report
                .notes
                .push("every ladder rate stayed within the limit: knee_rps is a floor".into());
            last_within.0
        }
    };
    Ok((knee, answered))
}

/// Write the instance file and return its path as a string.
fn write_instance(env: &Env, name: &str, text: &str) -> Result<String, String> {
    let path = env.work.join(name);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.to_string_lossy().into_owned())
}

/// The served reads to verify: every entry of a batch whose flight
/// overlapped an update's (see [`Sample::overlapped`]) and a seeded sample
/// of [`CHECK_SAMPLES`] of the rest.
fn sample_reads(env: &Env, answered: &[(Payload, Done)]) -> Vec<Sample> {
    let flight = |d: &Done| (d.sent, d.recv.unwrap_or(f64::INFINITY));
    let updates: Vec<(f64, f64)> = answered
        .iter()
        .filter(|(p, _)| matches!(p, Payload::Update(_)))
        .map(|(_, d)| flight(d))
        .collect();
    let overlaps = |d: &Done| {
        let (a, b) = flight(d);
        updates.iter().any(|&(c, e)| a < e && c < b)
    };
    let mut rng = gen::rng(env.seed, 5);
    let all: Vec<Sample> = answered
        .iter()
        .filter_map(|(p, d)| Some((p, d, d.response.as_deref()?)))
        .filter(|(_, _, r)| deploy::is_ok(r))
        .flat_map(|(p, d, r)| {
            check::samples_of(p, r, matches!(p, Payload::Batch(_)) && overlaps(d))
        })
        .collect();
    let (mut picked, mut all): (Vec<Sample>, Vec<Sample>) =
        all.into_iter().partition(|s| s.overlapped);
    let wanted = picked.len() + CHECK_SAMPLES;
    while picked.len() < wanted && !all.is_empty() {
        let i = rng.random_range(0..all.len());
        picked.push(all.swap_remove(i));
    }
    picked
}

/// Verify served reads; torn batch entries are reported as
/// `shard.torn_entries`.
fn verify(report: &mut RunReport, replica: &mut Replica, samples: &[Sample], updates: &[Update]) {
    let read = check::verify_reads(replica, samples, updates);
    report.checks.push(read.check);
    report.layer("shard.torn_entries", read.torn as f64, "count");
    if read.torn > 0 {
        report.notes.push(format!(
            "DEFECT: {} routed batch entries carry an epoch label one newer than the data they \
             were answered from (the router labels a batch with its epoch after the batch)",
            read.torn
        ));
    }
}

/// Acknowledged updates in acknowledgement order (they share one
/// connection, so that is generation order).
fn acked_updates(answered: &[(Payload, Done)]) -> Vec<(Update, u64)> {
    answered
        .iter()
        .filter_map(|(p, d)| match p {
            Payload::Update(u) if d.response.as_deref().is_some_and(deploy::is_ok) => {
                let v = json::parse(d.response.as_deref()?).ok()?;
                Some((u.clone(), v.get("epoch")?.as_usize()? as u64))
            }
            _ => None,
        })
        .collect()
}

/// Record the end-to-end metrics every workload shares.
fn shared_metrics(report: &mut RunReport, setups: &[f64], main: &Phase, rss: f64, rtt: f64) {
    let jra = Summary::of(&main.jra).expect("the nominal phase answers jra requests");
    report.metric("setup_s", stats::median(setups).expect("setups ran"), "s");
    report.metric("stats_rtt_ms", rtt, "ms");
    report.metric("server_cpu_ms", main.cpu_ms_per_request, "ms");
    report.metric("jra_mean_ms", stats::mean(&main.jra), "ms");
    report.metric("jra_p50_ms", jra.p50, "ms");
    report.metric("jra_tail_ms", jra.tail, "ms");
    report.metric("server_rss_mb", rss, "MiB");
    report.notes.push(format!(
        "setup {:?} s | nominal phase {} | {} | {} | lag {}",
        setups.iter().map(|s| (s * 1e4).round() / 1e4).collect::<Vec<_>>(),
        summary_line("jra", &main.jra),
        summary_line("batch", &main.batch),
        summary_line("update", &main.update),
        summary_line("lag", &main.lag),
    ));
    let lag = stats::percentile(&main.lag, 99.0).unwrap_or(0.0);
    if lag > LAG_LIMIT_MS {
        report.notes.push(format!(
            "WARNING: generator lag p99 {lag:.2} ms: latencies of this run are suspect"
        ));
    }
}

/// Record the tail summary of an optional request class under its names.
fn class_metrics(report: &mut RunReport, values: &[f64], p50: &'static str, tail: &'static str) {
    if let Some(s) = Summary::of(values) {
        report.metric(p50, s.p50, "ms");
        report.metric(tail, s.tail, "ms");
    }
}

/// The live per-layer numbers every traced run reads off a serving
/// process's v2 `stats` deltas.
fn live_counts(report: &mut RunReport, main: &Phase, before: &[Json], after: &[Json]) {
    let delta = |path: &[&str]| -> f64 {
        after.iter().map(|a| deploy::num(a, path)).sum::<f64>()
            - before.iter().map(|b| deploy::num(b, path)).sum::<f64>()
    };
    let hits = delta(&["cache", "hits"]);
    let misses = delta(&["cache", "misses"]);
    let batches = delta(&["frontend", "batches"]);
    let batched = delta(&["frontend", "batched_requests"]);
    let rejected = delta(&["frontend", "rejected"]);
    report.layer("loadgen.lag_p99_ms", stats::percentile(&main.lag, 99.0).unwrap_or(0.0), "ms");
    report.layer("api.cache_hit_ratio", hits / (hits + misses).max(1.0), "ratio");
    report.layer("frontend.batch_occupancy", batched / batches.max(1.0), "count");
    report.layer("frontend.rejected_ratio", rejected / (main.jra.len() as f64).max(1.0), "ratio");
    let updates = delta(&["store", "updates"]);
    if updates > 0.0 {
        report.layer(
            "store.pages_cloned_per_update",
            delta(&["store", "pages_cloned"]) / updates,
            "count",
        );
        // (WAL bytes are not read here: a checkpoint truncates the log.)
        if after.iter().any(|a| a.get("durability").is_some()) {
            report.layer(
                "durable.fsyncs_per_update",
                delta(&["durability", "fsyncs"]) / updates,
                "count",
            );
        }
    }
}

fn all_stats(addrs: &[&str]) -> Result<Vec<Json>, String> {
    addrs.iter().map(|a| deploy::stats(a)).collect()
}

/// Median round trip (ms) of a v1 `stats` line on a fresh connection.
fn stats_rtt_ms(addr: &str) -> Result<f64, String> {
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    let mut rtts = Vec::new();
    for _ in 0..RTT_CALLS {
        let t = Instant::now();
        conn.call(r#"{"op":"stats"}"#).map_err(|e| e.to_string())?;
        rtts.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(stats::median(&rtts).expect("samples"))
}

/// Closed-loop medians (ms) of `line` sent to `addr` `n` times.
fn call_median(conn: &mut Conn, line: &str, n: usize) -> Result<f64, String> {
    let mut t = Vec::new();
    for _ in 0..n {
        let start = Instant::now();
        let r = conn.call(line).map_err(|e| e.to_string())?;
        if !deploy::is_ok(&r) {
            return Err(format!("probe failed: {r}"));
        }
        t.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(stats::median(&t).expect("samples"))
}

/// The shard probes: the same cache hit through the router and direct to
/// its shard, and a two-shard batch through the router against the slower
/// of its direct per-shard halves.
fn shard_probes(
    report: &mut RunReport,
    routed: &Deployment,
    num_papers: usize,
    hot: &[u32],
) -> Result<(), String> {
    let plan = wgrap_service::ShardPlan::balanced(num_papers, 2).map_err(|e| e.to_string())?;
    let local = |p: u32| -> (usize, usize) {
        let s = (0..2).find(|&s| plan.range(s).contains(&(p as usize))).expect("in a shard");
        (s, p as usize - plan.range(s).start)
    };
    let mut router = Conn::connect(routed.front()).map_err(|e| e.to_string())?;
    let mut direct: Vec<Conn> = routed
        .shards()
        .iter()
        .map(|s| Conn::connect(&s.addr))
        .collect::<std::io::Result<_>>()
        .map_err(|e| e.to_string())?;
    let p = hot[0];
    let (s, lp) = local(p);
    let via = format!(r#"{{"v":2,"op":"jra","paper_id":{p}}}"#);
    let own = format!(r#"{{"v":2,"op":"jra","paper_id":{lp}}}"#);
    call_median(&mut router, &via, 1)?;
    let overhead = call_median(&mut router, &via, 15)? - call_median(&mut direct[s], &own, 15)?;
    report.layer("shard.router_overhead_ms", overhead, "ms");

    let ids: Vec<u32> = hot.iter().copied().take(8).collect();
    let entries = |ps: &[usize]| -> String {
        let e: Vec<String> = ps.iter().map(|p| format!(r#"{{"paper_id":{p}}}"#)).collect();
        format!(r#"{{"v":2,"op":"batch","queries":[{}]}}"#, e.join(","))
    };
    let global: Vec<usize> = ids.iter().map(|&p| p as usize).collect();
    let mut halves: Vec<Vec<usize>> = vec![Vec::new(); 2];
    for &p in &ids {
        let (s, lp) = local(p);
        halves[s].push(lp);
    }
    call_median(&mut router, &entries(&global), 1)?;
    let routed_ms = call_median(&mut router, &entries(&global), 15)?;
    let mut slowest: f64 = 0.0;
    for (s, half) in halves.iter().enumerate() {
        if !half.is_empty() {
            slowest = slowest.max(call_median(&mut direct[s], &entries(half), 15)?);
        }
    }
    report.layer("shard.fanout_ms", routed_ms - slowest, "ms");
    Ok(())
}

/// Start a two-shard router deployment over `inst_path` for the shard
/// probes of a workload that does not serve through the router itself.
fn probe_router(env: &Env, inst_path: &str, args: &[String]) -> Result<Deployment, String> {
    let shards = split_instance(env, inst_path, "probe")?;
    let spec = Spec::Routed { shards, args: args.to_vec() };
    Ok(Deployment::start(&env.bin, &env.work, &spec)?.0)
}

/// `wgrap shard <inst> 2 <prefix>`; returns the shard files.
fn split_instance(env: &Env, inst_path: &str, prefix: &str) -> Result<Vec<String>, String> {
    let prefix = env.work.join(prefix).to_string_lossy().into_owned();
    let out = std::process::Command::new(&env.bin)
        .args(["shard", inst_path, "2", &prefix])
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("wgrap shard: {}", String::from_utf8_lossy(&out.stderr)));
    }
    Ok((0..2).map(|s| format!("{prefix}-{s}.wgrap")).collect())
}

fn seed_args(env: &Env, extra: &[&str]) -> Vec<String> {
    let mut v: Vec<String> = extra.iter().map(|s| s.to_string()).collect();
    v.extend(["--seed".to_string(), env.seed.to_string()]);
    v
}

/// `jra_cold`: unique cold `jra` queries against one `serve --pruning
/// auto` process on the sparse T=300 instance.
pub mod jra_cold {
    use super::*;

    /// Nominal rate (requests/s), about half the seed commit's knee
    /// (`knee_rps` 28–50/s).
    pub const RATE: f64 = 15.0;
    /// Ladder rates (requests/s) above the nominal one.
    pub const LADDER: [f64; 3] = [30.0, 40.0, 50.0];

    /// Run the workload.
    pub fn run(env: &Env) -> Result<RunReport, String> {
        let mut report = RunReport::default();
        let inst = gen::sparse_instance(env.seed);
        report.instance_text = wgrap_core::io::write_instance(&inst);
        let path = write_instance(env, "sparse.wgrap", &report.instance_text)?;
        let args = seed_args(env, &["--pruning", "auto"]);
        let spec = Spec::Single { instance: path.clone(), args: args.clone() };
        let (mut dep, setups) =
            deploy::start_median(&env.bin, &env.work, &spec, SETUPS, &|| Ok(()))?;
        let front = dep.front().to_string();
        let before = all_stats(&[&front])?;

        let mut traffic = ColdTraffic::new(&inst, env.seed);
        let (sched, payloads) =
            traffic::schedule(&mut traffic, &mut gen::rng(env.seed, 2), RATE, env.seconds);
        let (main, done) = drive_nominal(&dep, &sched)?;
        let after = all_stats(&[&front])?;
        let rungs = env.ladder.clone().unwrap_or(LADDER.to_vec());
        let (knee, _) = knee(&front, &mut traffic, env, (RATE, &main), &rungs, &mut report)?;
        let rss = dep.peak_rss_mib();
        let rtt = stats_rtt_ms(&front)?;
        if env.trace {
            live_counts(&mut report, &main, &before, &after);
            report.stats_rtt_ms = Some(rtt);
        }
        dep.kill();
        report.tallies.insert(0, main.tally.clone());
        shared_metrics(&mut report, &setups, &main, rss, rtt);
        report.metric("knee_rps", knee, "1/s");

        let answered: Vec<(Payload, Done)> = payloads.into_iter().zip(done).collect();
        let mut replica = Replica::new(&report.instance_text, env.seed, PruningPolicy::Auto);
        let samples = sample_reads(env, &answered);
        verify(&mut report, &mut replica, &samples, &[]);
        let hits = answered
            .iter()
            .filter(|(_, d)| d.response.as_deref().is_some_and(|r| r.contains("\"cache\":\"hit\"")))
            .count();
        report.checks.push(Check {
            name: "no jra_cold answer is a cache hit".into(),
            passed: hits == 0,
            detail: format!("{hits} hits of {}", answered.len()),
        });
        if env.trace {
            let hot: Vec<u32> = (0..8).map(|p| p * 997 % inst.num_papers() as u32).collect();
            let mut probe = probe_router(env, &path, &args)?;
            shard_probes(&mut report, &probe, inst.num_papers(), &hot)?;
            probe.kill();
        }
        Ok(report)
    }
}

/// `venue_mixed`: CRA, then reads beside updates, then a crash and a
/// restart, on one durable `serve --data-dir --fsync batch` process over
/// the paper-shaped T=30 instance.
pub mod venue_mixed {
    use super::*;

    /// Cold `assign` runs (the median is `assign_s`).
    pub const ASSIGNS: usize = 3;
    /// Nominal rate (requests/s; 30% are updates). A light load: the seed
    /// commit's tail crosses the latency limit at about 1250/s (`--ladder
    /// 800,1200,1800,2700`), but at half that a 20 s phase's add_paper
    /// and add_reviewer updates would grow the 120-paper instance about
    /// ninefold, so the end of the phase would serve a different instance
    /// from its start. At 100/s it grows about twofold.
    pub const RATE: f64 = 100.0;

    /// Run the workload.
    pub fn run(env: &Env) -> Result<RunReport, String> {
        let mut report = RunReport::default();
        let inst = gen::venue_instance(env.seed);
        report.instance_text = wgrap_core::io::write_instance(&inst);
        let path = write_instance(env, "venue.wgrap", &report.instance_text)?;
        let data = env.work.join("data");
        let data_str = data.to_string_lossy().into_owned();
        let args = seed_args(env, &["--data-dir", &data_str, "--fsync", "batch"]);
        let spec = Spec::Single { instance: path.clone(), args };
        let reset = || -> Result<(), String> {
            if data.exists() {
                std::fs::remove_dir_all(&data).map_err(|e| e.to_string())?;
            }
            Ok(())
        };
        let (mut dep, setups) = deploy::start_median(&env.bin, &env.work, &spec, SETUPS, &reset)?;
        let front = dep.front().to_string();

        // Phase 1: quiescent cold assigns. A patch that rewrites reviewer
        // 0 with its own profile publishes a new epoch (so the next assign
        // cannot hit the cache) on an identical state.
        let noop = Update::PatchScores { reviewer: 0, expertise: inst.reviewer(0).clone() };
        let mut conn = Conn::connect(&front).map_err(|e| e.to_string())?;
        let mut assign_times = Vec::new();
        let mut assigns = Vec::new();
        let mut acked: Vec<(Update, u64)> = Vec::new();
        let mut tally = Tally { phase: "assign".into(), ..Tally::default() };
        for i in 0..ASSIGNS {
            if i > 0 {
                let r = conn.call(&traffic::update_line(&noop)).map_err(|e| e.to_string())?;
                tally.sent += 1;
                if deploy::is_ok(&r) {
                    tally.ok += 1;
                    let epoch = json::parse(&r).ok().and_then(|v| v.get("epoch")?.as_usize());
                    acked.push((noop.clone(), epoch.unwrap_or(0) as u64));
                } else {
                    tally.failed += 1;
                }
            }
            let t = Instant::now();
            let r = conn.call(r#"{"v":2,"op":"assign"}"#).map_err(|e| e.to_string())?;
            assign_times.push(t.elapsed().as_secs_f64());
            tally.sent += 1;
            if deploy::is_ok(&r) {
                tally.ok += 1;
            } else {
                tally.failed += 1;
            }
            assigns.push(r);
        }
        report.tallies.push(tally);
        drop(conn);

        // Phase 2: reads beside updates, open loop.
        let before = all_stats(&[&front])?;
        let mut traffic = VenueTraffic::new(&inst, env.seed);
        let (sched, payloads) =
            traffic::schedule(&mut traffic, &mut gen::rng(env.seed, 2), RATE, env.seconds);
        let (main, done) = drive_nominal(&dep, &sched)?;
        let after = all_stats(&[&front])?;
        let rss = dep.peak_rss_mib();
        if env.trace {
            live_counts(&mut report, &main, &before, &after);
            report.notes.push(format!(
                "checkpoints during the nominal phase: {}",
                deploy::num(&after[0], &["durability", "checkpoints"])
                    - deploy::num(&before[0], &["durability", "checkpoints"])
            ));
        }
        let mut answered: Vec<(Payload, Done)> = payloads.into_iter().zip(done).collect();
        if let Some(rungs) = &env.ladder {
            let (knee, more) = knee(&front, &mut traffic, env, (RATE, &main), rungs, &mut report)?;
            report.metric("knee_rps", knee, "1/s");
            answered.extend(more);
        }
        let rtt = stats_rtt_ms(&front)?;
        report.stats_rtt_ms = Some(rtt);
        acked.extend(acked_updates(&answered));
        let last_epoch = acked.last().map_or(0, |(_, e)| *e);

        // Phase 3: SIGKILL, then restart on the same data dir.
        dep.kill();
        let (mut restarted, recovery) = Deployment::start(&env.bin, &env.work, &spec)?;
        let recovered = deploy::stats(restarted.front())?;
        restarted.kill();
        let recovered_epoch = deploy::num(&recovered, &["epoch"]) as u64;
        report.tallies.push(Tally { phase: "recovery".into(), sent: 1, ok: 1, failed: 0 });

        report.tallies.insert(0, main.tally.clone());
        shared_metrics(&mut report, &setups, &main, rss, rtt);
        class_metrics(&mut report, &main.update, "update_p50_ms", "update_tail_ms");
        report.metric("assign_s", stats::median(&assign_times).expect("assigns ran"), "s");
        report.metric("recovery_s", recovery, "s");
        report.notes.push(format!(
            "assign times {:?} s | recovery {recovery:.4} s to epoch {recovered_epoch}",
            assign_times.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>()
        ));

        // Checks.
        let mut replica = Replica::new(&report.instance_text, env.seed, PruningPolicy::default());
        let coverage = replica.assign_coverage()?;
        let mut bad = Vec::new();
        for (i, r) in assigns.iter().enumerate() {
            let v = json::parse(r).map_err(|e| e.to_string())?;
            let groups: Vec<Vec<usize>> = v
                .get("groups")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .map(|g| g.as_arr().unwrap_or(&[]).iter().filter_map(Json::as_usize).collect())
                .collect();
            let served = v.get("coverage").and_then(Json::as_f64).unwrap_or(f64::NAN);
            match replica.validate(groups) {
                Err(e) => bad.push(format!("assign {i}: invalid: {e}")),
                Ok(_) if served.to_bits() != coverage.to_bits() => {
                    bad.push(format!("assign {i}: coverage {served} vs in-process {coverage}"))
                }
                Ok(_) => {}
            }
        }
        report.checks.push(Check::tally(
            "assign passes Assignment::validate; coverage == in-process SDGA-SRA (bit-exact)",
            assigns.len(),
            &bad,
        ));
        let updates: Vec<Update> = acked.iter().map(|(u, _)| u.clone()).collect();
        let expected: Vec<u64> = (1..=acked.len() as u64).collect();
        let epochs: Vec<u64> = acked.iter().map(|(_, e)| *e).collect();
        report.checks.push(Check {
            name: "update epochs are consecutive".into(),
            passed: epochs == expected,
            detail: format!("{} updates acknowledged", epochs.len()),
        });
        report.checks.push(Check {
            name: "recovered epoch == last acknowledged update's epoch".into(),
            passed: recovered_epoch == last_epoch && last_epoch > 0,
            detail: format!("recovered {recovered_epoch}, acknowledged {last_epoch}"),
        });
        let samples = sample_reads(env, &answered);
        verify(&mut report, &mut replica, &samples, &updates);
        if env.trace {
            let hot: Vec<u32> = (0..8).map(|p| p * 13 % inst.num_papers() as u32).collect();
            let mut probe = probe_router(env, &path, &seed_args(env, &[]))?;
            shard_probes(&mut report, &probe, inst.num_papers(), &hot)?;
            probe.kill();
        }
        Ok(report)
    }
}

/// `router_hot`: cache-hit reads, two-shard batches and rare broadcast
/// patches through `serve --router` over two shard processes.
pub mod router_hot {
    use super::*;

    /// Nominal rate (requests/s), about half the rate at which the seed
    /// commit's tail crosses the latency limit (6.6–9.6/s over seeds 1–3,
    /// `--ladder 5,6,7,8,10,12`).
    pub const RATE: f64 = 4.0;

    /// Run the workload.
    pub fn run(env: &Env) -> Result<RunReport, String> {
        let mut report = RunReport::default();
        let inst = gen::sparse_instance(env.seed);
        report.instance_text = wgrap_core::io::write_instance(&inst);
        let path = write_instance(env, "sparse.wgrap", &report.instance_text)?;
        let shards = split_instance(env, &path, "shard")?;
        let spec = Spec::Routed { shards, args: seed_args(env, &["--pruning", "auto"]) };
        let (mut dep, setups) =
            deploy::start_median(&env.bin, &env.work, &spec, SETUPS, &|| Ok(()))?;
        let front = dep.front().to_string();

        // Untimed warm-up: every hot paper once, so the cache holds them.
        let mut traffic = HotTraffic::new(&inst, 2, env.seed);
        let mut conn = Conn::connect(&front).map_err(|e| e.to_string())?;
        let mut tally = Tally { phase: "warmup".into(), ..Tally::default() };
        for &p in &traffic.hot.papers {
            let r = conn
                .call(&format!(r#"{{"v":2,"op":"jra","paper_id":{p}}}"#))
                .map_err(|e| e.to_string())?;
            tally.sent += 1;
            if deploy::is_ok(&r) {
                tally.ok += 1;
            } else {
                tally.failed += 1;
            }
        }
        report.tallies.push(tally);
        drop(conn);

        let shard_addrs: Vec<String> = dep.shards().iter().map(|s| s.addr.clone()).collect();
        let shard_refs: Vec<&str> = shard_addrs.iter().map(String::as_str).collect();
        let before = all_stats(&shard_refs)?;
        let (sched, payloads) =
            traffic::schedule(&mut traffic, &mut gen::rng(env.seed, 2), RATE, env.seconds);
        let (main, done) = drive_nominal(&dep, &sched)?;
        let after = all_stats(&shard_refs)?;
        let rss = dep.peak_rss_mib();
        let mut answered: Vec<(Payload, Done)> = payloads.into_iter().zip(done).collect();
        if let Some(rungs) = &env.ladder {
            let (knee, more) = knee(&front, &mut traffic, env, (RATE, &main), rungs, &mut report)?;
            report.metric("knee_rps", knee, "1/s");
            answered.extend(more);
        }
        let rtt = stats_rtt_ms(&front)?;
        if env.trace {
            live_counts(&mut report, &main, &before, &after);
            report.stats_rtt_ms = Some(stats_rtt_ms(&shard_addrs[0])?);
            let hot = traffic.hot.papers.clone();
            shard_probes(&mut report, &dep, inst.num_papers(), &hot)?;
        }
        dep.kill();
        report.tallies.insert(0, main.tally.clone());
        shared_metrics(&mut report, &setups, &main, rss, rtt);
        class_metrics(&mut report, &main.batch, "batch_p50_ms", "batch_tail_ms");
        class_metrics(&mut report, &main.update, "update_p50_ms", "update_tail_ms");
        let hits = answered
            .iter()
            .filter(|(p, _)| matches!(p, Payload::Jra(_)))
            .filter(|(_, d)| d.response.as_deref().is_some_and(|r| r.contains("\"cache\":\"hit\"")))
            .count();
        let reads = answered.iter().filter(|(p, _)| matches!(p, Payload::Jra(_))).count();
        let delta = |key: &str| -> f64 {
            after
                .iter()
                .zip(&before)
                .map(|(a, b)| deploy::num(a, &["cache", key]) - deploy::num(b, &["cache", key]))
                .sum()
        };
        report.notes.push(format!(
            "jra cache hits {hits} of {reads}; shard cache over the phase: {} hits, {} misses",
            delta("hits"),
            delta("misses")
        ));

        let updates: Vec<Update> = acked_updates(&answered).into_iter().map(|(u, _)| u).collect();
        let mut replica = Replica::new(&report.instance_text, env.seed, PruningPolicy::Auto);
        let samples = sample_reads(env, &answered);
        verify(&mut report, &mut replica, &samples, &updates);
        report.checks.push(Check {
            name: "most router_hot reads hit the cache".into(),
            passed: hits * 2 > reads,
            detail: format!("{hits} hits of {reads}"),
        });
        Ok(report)
    }
}

/// Remove a scratch directory, ignoring a missing one.
pub fn remove_dir(path: &Path) {
    let _ = std::fs::remove_dir_all(path);
}
