//! The traced run: the workload's seeded request sequence replayed
//! in-process, calling each layer's public entry point under a span.
//!
//! Spans carry a name, start, end, parent and request id; they stay in
//! memory and are written out as NDJSON when the run ends. The layers are
//! called one after another under a per-request root span, so each layer
//! span's self time (its duration minus its children's) is the cost of that
//! entry point alone.

use crate::gen;
use crate::stats::{self, mean};
use crate::traffic::{self, ColdTraffic, HotTraffic, Payload, Traffic, VenueTraffic};
use crate::workloads::Metric;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use wgrap_core::cra::CraAlgorithm;
use wgrap_core::engine::spec::MethodKind;
use wgrap_core::engine::PruningPolicy;
use wgrap_core::jra::bba::{self, BbaOptions};
use wgrap_core::prelude::{Instance, Scoring};
use wgrap_service::api::{PaperRef, ServeOptions, Service, SolveRequest};
use wgrap_service::durable::{self, checkpoint, wal::Wal, DurableOptions, FsyncPolicy};
use wgrap_service::{json, server, Frontend, JraBatch, JraQuery, QueryPaper, Snapshot, Update};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer entry point.
    pub name: &'static str,
    /// Start, ns after the tracer was created.
    pub start_ns: u64,
    /// End, ns after the tracer was created (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request it belongs to.
    pub request: u64,
}

/// An in-memory span recorder. A disabled tracer records nothing, so the
/// same replay code runs traced and untraced.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` under a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, request);
        let r = f();
        self.close(id);
        r
    }

    /// Open a span; returns its index.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: 0, parent, request });
        Some(self.spans.len() - 1)
    }

    /// Close a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Self time (ns) of every span, grouped by name: its duration minus
    /// the durations of its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            out.entry(s.name).or_default().push(own as f64);
        }
        out
    }

    /// Write every span as one NDJSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            text.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}\n",
                s.name, s.start_ns, s.end_ns, s.request
            ));
        }
        std::fs::write(path, text)
    }
}

/// The request sequence of a workload's nominal phase, regenerated from
/// the same seeds the live run used.
fn replay_sequence(
    workload: &str,
    inst: &Instance,
    seed: u64,
    seconds: f64,
) -> Vec<(String, Payload)> {
    let mut arrivals = gen::rng(seed, 2);
    let mut traffic: Box<dyn Traffic> = match workload {
        "jra_cold" => Box::new(ColdTraffic::new(inst, seed)),
        "venue_mixed" => Box::new(VenueTraffic::new(inst, seed)),
        _ => Box::new(HotTraffic::new(inst, 2, seed)),
    };
    let rate = match workload {
        "jra_cold" => crate::workloads::jra_cold::RATE,
        "venue_mixed" => crate::workloads::venue_mixed::RATE,
        _ => crate::workloads::router_hot::RATE,
    };
    let (sched, payloads) = traffic::schedule(traffic.as_mut(), &mut arrivals, rate, seconds);
    sched.into_iter().map(|s| s.line).zip(payloads).collect()
}

/// Everything the traced run measured.
pub struct Traced {
    /// Per-layer metrics.
    pub metrics: Vec<Metric>,
    /// In-process `handle_line` time of a v1 `stats` line, ms.
    pub stats_line_ms: f64,
    /// Requests replayed.
    pub replayed: usize,
}

/// Run the traced replay of `workload` on `instance_text`. Spans go to
/// `spans_path`; `work` holds scratch WAL and checkpoint directories.
pub fn run(
    workload: &str,
    instance_text: &str,
    seed: u64,
    seconds: f64,
    work: &Path,
    spans_path: &Path,
) -> Result<Traced, String> {
    let inst = wgrap_core::io::parse_instance(instance_text).map_err(|e| e.to_string())?;
    let pruning =
        if workload == "venue_mixed" { PruningPolicy::default() } else { PruningPolicy::Auto };
    let options = ServeOptions { pruning, ..ServeOptions::default() };
    let service =
        Arc::new(Service::with_options(inst.clone(), Scoring::WeightedCoverage, seed, options));
    let frontend = Frontend::with_defaults(Arc::clone(&service));
    let sequence = replay_sequence(workload, &inst, seed, seconds);
    let mut tracer = Tracer::new(true);
    let mut m: Vec<Metric> = Vec::new();
    let mut pool_sizes = Vec::new();
    let mut nodes = Vec::new();
    let mut pages = Vec::new();
    let mut updates: Vec<Update> = Vec::new();
    let mut jra_specs = Vec::new();
    let mut hit_line = None;
    let budget = Instant::now();
    let mut replayed = 0;
    for (i, (line, payload)) in sequence.iter().enumerate() {
        if budget.elapsed().as_secs_f64() > seconds && replayed >= 8 {
            break;
        }
        replayed += 1;
        let req = i as u64;
        let root = tracer.open("request", None, req);
        match payload {
            Payload::Jra(spec) => {
                jra_specs.push(spec.clone());
                tracer.span("server.parse", root, req, || black_box(json::parse(line)).is_ok());
                let plan = tracer
                    .span("api.plan", root, req, || service.plan(&SolveRequest::Jra(spec.clone())));
                let snapshot = Arc::clone(&plan.snapshot);
                let pool = tracer.span("store.pool", root, req, || match &spec.paper {
                    PaperRef::Id(p) => snapshot.candidates().candidates(*p).0.len(),
                    PaperRef::Adhoc(v) => snapshot.candidate_pool_adhoc(v).map_or(0, |p| p.len()),
                    PaperRef::Name(_) => 0,
                });
                pool_sizes.push(pool as f64);
                if let (PaperRef::Id(p), true) = (&spec.paper, spec.exclude.is_empty()) {
                    let opts = BbaOptions { top_k: spec.top_k, ..BbaOptions::default() };
                    let policy = spec.pruning.unwrap_or(pruning);
                    let r = tracer.span("jra.solve", root, req, || {
                        bba::solve_ctx_pruned(snapshot.ctx(), *p, &opts, policy)
                    });
                    nodes.push(r.and_then(|r| r.first().map(|g| g.nodes)).unwrap_or(0) as f64);
                }
                tracer.span("server.line_cold", root, req, || server::handle_line(&frontend, line));
                tracer.span("server.line_hit", root, req, || server::handle_line(&frontend, line));
                if matches!(spec.paper, PaperRef::Id(_)) {
                    hit_line.get_or_insert_with(|| line.clone());
                }
            }
            Payload::Batch(specs) => {
                let snapshot = service.snapshot();
                tracer.span("batch.run", root, req, || run_batch(&snapshot, specs, pruning));
                tracer
                    .span("server.line_batch", root, req, || server::handle_line(&frontend, line));
            }
            Payload::Update(u) => {
                updates.push(u.clone());
                pages.push(traced_update(&mut tracer, &service, u, root, req)?);
            }
        }
        tracer.close(root);
    }

    // Batches of eight of the workload's own reads, where it sends none.
    if !sequence.iter().any(|(_, p)| matches!(p, Payload::Batch(_))) {
        let snapshot = service.snapshot();
        for (b, chunk) in jra_specs.chunks(8).take(4).enumerate() {
            let req = (sequence.len() + b) as u64;
            tracer.span("batch.run", None, req, || run_batch(&snapshot, chunk, pruning));
        }
    }
    // Write-path layers need updates; seeded patches top up a workload
    // that sends fewer than 16 (replay per frame is a difference of two
    // recoveries, too small to read over a frame or two).
    if updates.len() < 16 {
        let mut patches = HotTraffic::new(&inst, 2, seed);
        let have = updates.len();
        updates.extend((have..16).map(|_| patches.next_update()));
        for (k, u) in updates.iter().enumerate().skip(have) {
            let req = (sequence.len() + 100 + k) as u64;
            pages.push(traced_update(&mut tracer, &service, u, None, req)?);
        }
    }
    durable_layers(&mut tracer, &inst, seed, &updates, work, &mut m)?;
    cra_layers(&mut tracer, seed);

    let times = tracer.self_times();
    let us = |name: &str| mean(times.get(name).map_or(&[][..], |v| &v[..])) / 1e3;
    m.push(Metric { name: "server.parse_us", value: us("server.parse"), unit: "us" });
    m.push(Metric { name: "server.line_us", value: us("server.line_hit"), unit: "us" });
    m.push(Metric { name: "api.plan_us", value: us("api.plan"), unit: "us" });
    m.push(Metric { name: "store.pool_us", value: us("store.pool"), unit: "us" });
    m.push(Metric { name: "store.pool_size", value: mean(&pool_sizes), unit: "count" });
    m.push(Metric { name: "store.build_ms", value: us("store.build") / 1e3, unit: "ms" });
    m.push(Metric { name: "store.publish_us", value: us("store.publish"), unit: "us" });
    m.push(Metric { name: "store.pages_cloned_per_update", value: mean(&pages), unit: "count" });
    m.push(Metric {
        name: "store.snapshot_mb",
        value: service.snapshot().memory_bytes() as f64 / (1024.0 * 1024.0),
        unit: "MiB",
    });
    m.push(Metric { name: "jra.solve_ms", value: us("jra.solve") / 1e3, unit: "ms" });
    m.push(Metric { name: "jra.nodes", value: mean(&nodes), unit: "count" });
    let solve_ns: f64 = times.get("jra.solve").map_or(0.0, |v| v.iter().sum());
    m.push(Metric {
        name: "jra.ns_per_node",
        value: solve_ns / nodes.iter().sum::<f64>().max(1.0),
        unit: "ns",
    });
    m.push(Metric { name: "batch.run_ms", value: us("batch.run") / 1e3, unit: "ms" });
    m.push(Metric { name: "cra.sdga_s", value: us("cra.sdga") / 1e6, unit: "s" });
    m.push(Metric { name: "cra.sra_s", value: us("cra.sra") / 1e6, unit: "s" });
    m.push(Metric { name: "durable.append_us", value: us("durable.append"), unit: "us" });
    m.push(Metric { name: "durable.fsync_us", value: us("durable.fsync"), unit: "us" });
    m.push(Metric {
        name: "durable.checkpoint_ms",
        value: us("durable.checkpoint") / 1e3,
        unit: "ms",
    });

    let hit_line = hit_line
        .unwrap_or_else(|| traffic::jra_line(&wgrap_service::api::JraSpec::new(PaperRef::Id(0))));
    m.push(Metric {
        name: "telemetry.overhead_us",
        value: telemetry_overhead_us(&inst, seed, pruning, &hit_line),
        unit: "us",
    });
    m.push(Metric {
        name: "trace.overhead_pct",
        value: tracing_overhead_pct(&service, &sequence[..replayed]),
        unit: "%",
    });
    let stats_line_ms = median_ns(200, || {
        black_box(server::handle_line(&frontend, r#"{"op":"stats"}"#));
    }) / 1e6;
    tracer.write(spans_path).map_err(|e| format!("{}: {e}", spans_path.display()))?;
    Ok(Traced { metrics: m, stats_line_ms, replayed })
}

/// Build and publish one update under `store.build` / `store.publish`
/// spans; returns the pages it cloned.
fn traced_update(
    tracer: &mut Tracer,
    service: &Service,
    update: &Update,
    parent: Option<usize>,
    req: u64,
) -> Result<f64, String> {
    let before = service.store().stats().total_pages_cloned;
    let pending = tracer.span("store.build", parent, req, || {
        service.store().begin_update(std::slice::from_ref(update))
    });
    let pending = pending.map_err(|e| e.to_string())?;
    tracer.span("store.publish", parent, req, || pending.publish()).map_err(|e| e.to_string())?;
    Ok((service.store().stats().total_pages_cloned - before) as f64)
}

fn run_batch(
    snapshot: &Arc<Snapshot>,
    specs: &[wgrap_service::api::JraSpec],
    pruning: PruningPolicy,
) -> usize {
    let mut batch = JraBatch::new(Arc::clone(snapshot), pruning);
    for s in specs {
        let paper = match &s.paper {
            PaperRef::Id(p) => QueryPaper::Stored(*p),
            PaperRef::Adhoc(v) => QueryPaper::Adhoc(v.clone()),
            PaperRef::Name(_) => continue,
        };
        let mut q = JraQuery::new(paper);
        q.top_k = s.top_k;
        q.exclude = s.exclude.clone();
        q.pruning = s.pruning;
        batch.push(q);
    }
    batch.run().into_iter().filter(|r| r.is_ok()).count()
}

/// Median wall time (ns) of `n` calls of `f`.
fn median_ns(n: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&samples).expect("n > 0")
}

/// The cost of telemetry recording on a cache-hit `handle_line`: the same
/// line through a front end with telemetry on and one with it off, in
/// alternating blocks, as a difference of medians (µs).
fn telemetry_overhead_us(inst: &Instance, seed: u64, pruning: PruningPolicy, line: &str) -> f64 {
    let frontend = |telemetry: bool| {
        let options = ServeOptions { pruning, telemetry, ..ServeOptions::default() };
        let service = Service::with_options(inst.clone(), Scoring::WeightedCoverage, seed, options);
        let f = Frontend::with_defaults(Arc::new(service));
        server::handle_line(&f, line);
        f
    };
    let (on, off) = (frontend(true), frontend(false));
    let mut diffs = Vec::new();
    for _ in 0..5 {
        let a = median_ns(400, || {
            black_box(server::handle_line(&on, line));
        });
        let b = median_ns(400, || {
            black_box(server::handle_line(&off, line));
        });
        diffs.push((a - b) / 1e3);
    }
    stats::median(&diffs).expect("blocks ran")
}

/// Tracing overhead: the request-side layers of the replayed reads (parse,
/// plan, pool) timed untraced and traced, alternating, as the traced
/// run's extra share of the untraced time (%).
fn tracing_overhead_pct(service: &Service, sequence: &[(String, Payload)]) -> f64 {
    let pass = |tracer: &mut Tracer| {
        let t = Instant::now();
        for (i, (line, payload)) in sequence.iter().enumerate() {
            let Payload::Jra(spec) = payload else { continue };
            let req = i as u64;
            let root = tracer.open("request", None, req);
            tracer.span("server.parse", root, req, || black_box(json::parse(line)).is_ok());
            let plan = tracer
                .span("api.plan", root, req, || service.plan(&SolveRequest::Jra(spec.clone())));
            tracer.span("store.pool", root, req, || match &spec.paper {
                PaperRef::Id(p) => plan.snapshot.candidates().candidates(*p).0.len(),
                PaperRef::Adhoc(v) => plan.snapshot.candidate_pool_adhoc(v).map_or(0, |p| p.len()),
                PaperRef::Name(_) => 0,
            });
            tracer.close(root);
        }
        t.elapsed().as_secs_f64()
    };
    // Enough alternating passes for each side to run about 200 ms.
    let passes = (0.2 / pass(&mut Tracer::new(false)).max(1e-4)).ceil().clamp(5.0, 200.0) as usize;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..passes {
        plain.push(pass(&mut Tracer::new(false)));
        traced.push(pass(&mut Tracer::new(true)));
    }
    let median = |v: &[f64]| stats::median(v).expect("at least five passes");
    let (p, t) = (median(&plain), median(&traced));
    100.0 * (t - p) / p.max(1e-9)
}

/// WAL append and fsync per update, a checkpoint of the instance, and the
/// replay cost per WAL frame during recovery.
fn durable_layers(
    tracer: &mut Tracer,
    inst: &Instance,
    seed: u64,
    updates: &[Update],
    work: &Path,
    m: &mut Vec<Metric>,
) -> Result<(), String> {
    let err = |e: std::io::Error| e.to_string();
    let wal_dir = work.join("traced-wal");
    std::fs::create_dir_all(&wal_dir).map_err(err)?;
    let mut wal = Wal::open(&wal_dir, FsyncPolicy::Batch, 0, 0).map_err(err)?;
    let req0 = 1_000_000u64;
    for (k, u) in updates.iter().enumerate() {
        let req = req0 + k as u64;
        tracer
            .span("durable.append", None, req, || wal.append(k as u64 + 1, std::slice::from_ref(u)))
            .map_err(err)?;
        tracer.span("durable.fsync", None, req, || wal.sync()).map_err(err)?;
    }
    m.push(Metric {
        name: "durable.bytes_per_update",
        value: wal.bytes() as f64 / updates.len().max(1) as f64,
        unit: "B",
    });
    let snapshot = Snapshot::build(inst.clone(), Scoring::WeightedCoverage, seed);
    let ck_dir = work.join("traced-ckpt");
    std::fs::create_dir_all(&ck_dir).map_err(err)?;
    tracer
        .span("durable.checkpoint", None, req0 - 1, || {
            checkpoint::write_checkpoint(&ck_dir, &snapshot)
        })
        .map_err(err)?;

    // Recovery with and without the frames: the difference per frame.
    let recover_ms = |frames: &[Update], dir: &Path| -> Result<(f64, u64), String> {
        let opts = |d: &Path| DurableOptions {
            dir: d.to_path_buf(),
            fsync: FsyncPolicy::Never,
            checkpoint_every: u64::MAX,
        };
        let (store, _) = durable::recover(opts(dir), inst.clone(), Scoring::WeightedCoverage, seed)
            .map_err(|e| e.to_string())?;
        for u in frames {
            store.apply(std::slice::from_ref(u)).map_err(|e| e.to_string())?;
        }
        drop(store);
        // The median of three recoveries of the same directory.
        let mut times = Vec::new();
        let mut frames = 0;
        for _ in 0..3 {
            let t = Instant::now();
            let (store, info) =
                durable::recover(opts(dir), inst.clone(), Scoring::WeightedCoverage, seed)
                    .map_err(|e| e.to_string())?;
            times.push(t.elapsed().as_secs_f64() * 1e3);
            frames = info.frames_replayed;
            drop(store);
        }
        Ok((crate::stats::median(&times).expect("three recoveries"), frames))
    };
    let (base_ms, _) = recover_ms(&[], &work.join("traced-rec0"))?;
    let (full_ms, frames) = recover_ms(updates, &work.join("traced-rec1"))?;
    m.push(Metric {
        name: "durable.replay_ms_per_frame",
        value: (full_ms - base_ms) / frames.max(1) as f64,
        unit: "ms",
    });
    m.push(Metric {
        name: "durable.fsyncs_per_update",
        value: wal.fsyncs() as f64 / updates.len().max(1) as f64,
        unit: "count",
    });
    Ok(())
}

/// SDGA and SDGA-SRA through the method registry on the paper-shaped
/// instance of this seed (the CRA solvers at `venue_mixed`'s size).
fn cra_layers(tracer: &mut Tracer, seed: u64) {
    let snapshot = Snapshot::build(gen::venue_instance(seed), Scoring::WeightedCoverage, seed);
    for (name, algo) in [("cra.sdga", CraAlgorithm::Sdga), ("cra.sra", CraAlgorithm::SdgaSra)] {
        let solver = MethodKind::Cra(algo).solver_with(PruningPolicy::default());
        tracer.span(name, None, 2_000_000, || black_box(solver.solve(snapshot.ctx())).is_ok());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.open("request", None, 7);
        t.span("child", root, 7, || std::thread::sleep(Duration::from_millis(20)));
        std::thread::sleep(Duration::from_millis(5));
        t.close(root);
        let times = t.self_times();
        let own = times["request"][0] / 1e6;
        let child = times["child"][0] / 1e6;
        assert!(child >= 20.0, "child {child} ms");
        assert!((5.0..20.0).contains(&own), "root self time {own} ms");
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].request, 7);
        let mut off = Tracer::new(false);
        let id = off.open("x", None, 0);
        off.close(id);
        assert!(off.spans.is_empty());
    }
}
