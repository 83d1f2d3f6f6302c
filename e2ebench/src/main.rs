//! `e2ebench` — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload jra_cold|venue_mixed|router_hot --seed N --seconds S --trace 0|1 \
//!     [--ladder R1,R2,…]
//! ```
//!
//! Run from the root of a checkout. It builds the default-feature release
//! `wgrap` binary from that checkout, generates the workload's instance
//! and request streams from `--seed`, starts real `wgrap serve` (and
//! `serve --router`) processes on loopback, drives them open-loop from two
//! threads over two connections for `--seconds`, checks the answers
//! against in-process solves, and prints every metric by name and unit.
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`
//! with the end-to-end metrics under `--trace 0` and the per-layer metrics
//! under `--trace 1`. A `--trace 1` run repeats the live run to read the
//! processes' own counters, then replays the same requests in-process
//! under layer spans (written to `<target dir>/e2ebench-spans/`).
//! `--ladder` runs the knee ladder at the given rates after the nominal
//! phase (on any workload; `jra_cold` always runs its own). The command
//! exits non-zero when a check or a request failed.

mod check;
mod deploy;
mod gen;
mod net;
mod proc;
mod stats;
mod traced;
mod traffic;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Env, Metric, RunReport};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["jra_cold", "venue_mixed", "router_hot"];

/// End-to-end metrics every workload reports (`--trace 0`).
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("stats_rtt_ms", "ms"), ("server_rss_mb", "MiB")];

/// Per-layer metrics every workload reports (`--trace 1`).
pub const PER_LAYER: [(&str, &str); 31] = [
    ("loadgen.lag_p99_ms", "ms"),
    ("server.line_us", "us"),
    ("server.parse_us", "us"),
    ("server.tcp_floor_ms", "ms"),
    ("frontend.batch_occupancy", "count"),
    ("frontend.rejected_ratio", "ratio"),
    ("api.plan_us", "us"),
    ("api.cache_hit_ratio", "ratio"),
    ("store.pool_us", "us"),
    ("store.pool_size", "count"),
    ("store.build_ms", "ms"),
    ("store.publish_us", "us"),
    ("store.pages_cloned_per_update", "count"),
    ("store.snapshot_mb", "MiB"),
    ("jra.solve_ms", "ms"),
    ("jra.nodes", "count"),
    ("jra.ns_per_node", "ns"),
    ("batch.run_ms", "ms"),
    ("cra.sdga_s", "s"),
    ("cra.sra_s", "s"),
    ("durable.append_us", "us"),
    ("durable.fsync_us", "us"),
    ("durable.fsyncs_per_update", "count"),
    ("durable.bytes_per_update", "B"),
    ("durable.checkpoint_ms", "ms"),
    ("durable.replay_ms_per_frame", "ms"),
    ("shard.router_overhead_ms", "ms"),
    ("shard.fanout_ms", "ms"),
    ("shard.torn_entries", "count"),
    ("telemetry.overhead_us", "us"),
    ("trace.overhead_pct", "%"),
];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    ladder: Option<Vec<f64>>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed =
        Args { workload: String::new(), seed: 1, seconds: 20.0, trace: false, ladder: None };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| "--seconds needs a number")?;
                if !parsed.seconds.is_finite() || parsed.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--ladder" => {
                let rates: Result<Vec<f64>, _> = value.split(',').map(str::parse).collect();
                match rates {
                    Ok(r) if r.iter().all(|x: &f64| x.is_finite() && *x > 0.0) => {
                        parsed.ladder = Some(r)
                    }
                    _ => return Err("--ladder takes positive rates, comma-separated".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(parsed)
}

/// The JSON result line: `names` picked from `metrics`, in order.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(&str, &str)],
    metrics: &[Metric],
) -> Result<String, String> {
    let mut fields = Vec::new();
    for (name, unit) in names {
        let m = metrics
            .iter()
            .find(|m| m.name == *name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if m.unit != *unit || !m.value.is_finite() {
            return Err(format!("metric {name}: {} {} (expected unit {unit})", m.value, m.unit));
        }
        fields.push(format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", m.value));
    }
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        fields.join(",")
    ))
}

fn run_workload(env: &Env, workload: &str) -> Result<RunReport, String> {
    match workload {
        "jra_cold" => workloads::jra_cold::run(env),
        "venue_mixed" => workloads::venue_mixed::run(env),
        _ => workloads::router_hot::run(env),
    }
}

/// Run the benchmark: the JSON result line and whether every check held.
fn run(args: &Args, root: &Path) -> Result<(String, bool), String> {
    let bin = proc::build_wgrap(root)?;
    let target = proc::target_dir(root);
    let work = target.join("e2ebench-work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    workloads::remove_dir(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let env = Env {
        bin,
        work: work.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        ladder: args.ladder.clone(),
    };
    let result = run_in(&env, args, &target);
    workloads::remove_dir(&work);
    result
}

fn run_in(env: &Env, args: &Args, target: &Path) -> Result<(String, bool), String> {
    let report = run_workload(env, &args.workload)?;
    println!("# workload {} seed {} seconds {}", args.workload, args.seed, args.seconds);
    for t in &report.tallies {
        println!("# phase {:<8} sent {:>6} ok {:>6} failed {:>4}", t.phase, t.sent, t.ok, t.failed);
    }
    for note in &report.notes {
        println!("# {note}");
    }
    let attempted = report.attempted();
    let failed = report.failed();
    println!("metric error_rate {} ratio", failed as f64 / attempted.max(1) as f64);
    for m in &report.metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    for c in &report.checks {
        println!("check {} {}: {}", if c.passed { "PASS" } else { "FAIL" }, c.name, c.detail);
    }
    let correct = failed == 0 && report.checks.iter().all(|c| c.passed);
    if !args.trace {
        let line = result_line(correct, attempted, failed, &END_TO_END, &report.metrics)?;
        return Ok((line, correct));
    }

    let spans_dir = target.join("e2ebench-spans");
    std::fs::create_dir_all(&spans_dir).map_err(|e| e.to_string())?;
    let spans = spans_dir.join(format!("{}-seed{}.ndjson", args.workload, args.seed));
    let traced = traced::run(
        &args.workload,
        &report.instance_text,
        args.seed,
        args.seconds,
        &env.work,
        &spans,
    )?;
    println!("# traced replay: {} requests, spans in {}", traced.replayed, spans.display());
    // Live counts win over in-process stand-ins for the same metric.
    let mut layers = report.live_layers.clone();
    if let Some(rtt) = report.stats_rtt_ms {
        layers.push(Metric {
            name: "server.tcp_floor_ms",
            value: rtt - traced.stats_line_ms,
            unit: "ms",
        });
    }
    for m in traced.metrics {
        if !layers.iter().any(|l| l.name == m.name) {
            layers.push(m);
        }
    }
    for m in &layers {
        println!("layer {} {} {}", m.name, m.value, m.unit);
    }
    // Where the cache-hit path's median goes: the transport floor against
    // the in-process line. (The router overhead is measured closed loop,
    // where every hop waits out its delayed ACK; open-loop traffic lets
    // later requests carry those ACKs, so it is printed, not summed.)
    let p50 = report.metrics.iter().find(|m| m.name == "jra_p50_ms");
    if let (Some(p50), "router_hot") = (p50, args.workload.as_str()) {
        let get = |n: &str| layers.iter().find(|m| m.name == n).map_or(0.0, |m| m.value);
        let floor = get("server.tcp_floor_ms");
        println!(
            "# accounting: jra_p50 {:.3} ms; tcp floor {floor:.3} ms ({:.0}%); hit line {:.4} ms; \
             router overhead (closed loop) {:.3} ms",
            p50.value,
            100.0 * floor / p50.value,
            get("server.line_us") / 1e3,
            get("shard.router_overhead_ms"),
        );
    }
    Ok((result_line(correct, attempted, failed, &PER_LAYER, &layers)?, correct))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".");
    if !root.join("Cargo.toml").is_file() || !root.join("crates/service").is_dir() {
        eprintln!("e2ebench: run from the root of a wgrap checkout");
        return ExitCode::from(2);
    }
    match run(&args, &root) {
        Ok((line, correct)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("e2ebench: a correctness check failed or a request failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names printed here are the names `BENCHMARK.json` declares.
    #[test]
    fn names_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v = wgrap_service::json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(|x| x.as_arr())
                .unwrap()
                .iter()
                .map(|e| {
                    let s = |k: &str| e.get(k).and_then(|x| x.as_str()).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_requires_every_metric() {
        let m = vec![Metric { name: "setup_s", value: 0.5, unit: "s" }];
        let line = result_line(true, 3, 0, &[("setup_s", "s")], &m).unwrap();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#
        );
        assert!(result_line(true, 3, 0, &[("knee_rps", "1/s")], &m).is_err());
    }

    #[test]
    fn args_are_validated() {
        let a = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&a("--workload jra_cold --seed 4 --seconds 10 --trace 1")).unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace, ok.ladder), (4, 10.0, true, None));
        let d = parse_args(&a("--workload router_hot --ladder 8,16.5")).unwrap();
        assert_eq!((d.seconds, d.ladder), (20.0, Some(vec![8.0, 16.5])));
        assert!(parse_args(&a("--workload router_hot --ladder 8,x")).is_err());
        assert!(parse_args(&a("--workload nope --seed 1")).is_err());
        assert!(parse_args(&a("--workload jra_cold --trace 2")).is_err());
    }
}
