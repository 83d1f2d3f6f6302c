//! [`Router`]: the `wgrap serve --router` front-end. Speaks the existing
//! NDJSON v1/v2 protocol upstream and fans requests out to shard
//! processes (each a plain `wgrap serve --listen` over its sub-instance)
//! downstream, merging answers into one aggregated response.
//!
//! # Routing
//!
//! * `jra` by `paper_id` rewrites the global id to the owning shard's
//!   local id and forwards; by `paper_name` it scatters in shard order
//!   and returns the owning shard's answer; ad-hoc `paper` vectors go to
//!   shard 0 (the reviewer pool is replicated, every shard answers
//!   identically). Routed responses come back verbatim — `epoch` (and the
//!   v2 `key`) are the owning shard's.
//! * `batch` splits its queries the same way, solves per-shard
//!   sub-batches, and splices the per-entry answers back positionally.
//!   The router adds no batch-level `cache`/`key` diagnostics (there is
//!   no single downstream outcome to report).
//! * `update` splits by kind — `add_paper` to the last shard, reviewer
//!   updates broadcast — after replaying the unsharded global capacity
//!   check. The **last shard applies first**: it is the only shard whose
//!   failures are shard-specific (its sub-batch carries the `add_paper`
//!   entries), so a rejection there aborts the fan-out before any other
//!   shard diverges; the remaining failure modes are common to all shards
//!   (the broadcast entries are identical), which keeps replicas in
//!   agreement without a cross-process two-phase commit.
//! * `assign` runs per-shard CRA solves, concatenates the groups in shard
//!   order, then runs the cross-shard
//!   [capacity-reconciliation pass](crate::shard::merge::reconcile_capacity)
//!   with `δp = 1` JRA requests to the owning shards as the substitute
//!   oracle. The response adds a `swaps` member; `coverage` is the sum of
//!   the per-shard solver coverages (the router holds no scores, so it
//!   cannot re-score after swaps — the in-process
//!   [`ShardedStore`](crate::shard::ShardedStore) does).
//! * `stats` aggregates (papers sum across shards, shared members from
//!   the first reachable shard) and, under v2, appends the `"shards"`
//!   section: per shard its paper `range`, `epoch`, `papers`, downstream
//!   `queued` depth and router-side `requests` count, plus `qps` when
//!   `"timings":true` (wall-clock, never golden-diffed).
//!
//! # Failure semantics
//!
//! A downstream that cannot be reached (after one reconnect attempt)
//! yields a structured `{"ok":false,"shard":N,"error":"shard_down: shard
//! N unreachable"}` response — never a hang. Reads against live shards
//! keep working; `batch` degrades per entry. Startup is strict: every
//! shard must answer the initial `stats` probe, because the shard plan is
//! built from the reported paper counts.

use crate::json::{self, Json};
use crate::server::{error_response, respond_to, versioned_error, LineHandler, Protocol};
use crate::shard::{merge, ShardPlan};
use crate::telemetry::{Counter, Gauge, Telemetry};
use crate::{Error, Result};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The fixed request-counter whitelist (mirrors the front-end's): only
/// known ops mint `requests_total{op=…}` series, so attacker-controlled
/// op strings can never grow the registry.
const COUNTED_OPS: [&str; 6] = ["jra", "batch", "update", "assign", "stats", "metrics"];

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// Record telemetry (the `wgrap_shard_*` series and per-op request
    /// counters). `false` swaps in a no-op registry.
    pub telemetry: bool,
}

impl Default for RouterOptions {
    fn default() -> Self {
        Self { telemetry: true }
    }
}

/// One downstream shard: its address, the persistent connection, and its
/// telemetry series.
#[derive(Debug)]
struct ShardConn {
    addr: String,
    conn: Mutex<Option<BufReader<TcpStream>>>,
    /// Requests the router sent (or tried to send) to this shard.
    requests: Arc<Counter>,
    /// Requests that ended `shard_down` after the reconnect attempt.
    downs: Arc<Counter>,
    /// 1 while the last contact succeeded, 0 after a failure.
    up: Arc<Gauge>,
    /// The shard's epoch as of its last `stats` probe.
    epoch: Arc<Gauge>,
}

impl ShardConn {
    /// One request/response round trip on the persistent connection, with
    /// a single reconnect attempt when the connection is stale (the shard
    /// may have restarted since the last request).
    fn request(&self, line: &str) -> io::Result<String> {
        self.requests.inc();
        fn round_trip(conn: &mut BufReader<TcpStream>, line: &str) -> io::Result<String> {
            // One write per request on a TCP_NODELAY socket: see the
            // Transport section of `crate::server`.
            conn.get_mut().write_all(format!("{line}\n").as_bytes())?;
            let mut response = String::new();
            if conn.read_line(&mut response)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "shard closed the connection",
                ));
            }
            Ok(response.trim_end().to_string())
        }
        let mut guard = self.conn.lock().expect("shard connection lock");
        if let Some(conn) = guard.as_mut() {
            match round_trip(conn, line) {
                Ok(response) => {
                    self.up.set(1);
                    return Ok(response);
                }
                Err(_) => *guard = None,
            }
        }
        let fresh = TcpStream::connect(&self.addr)
            .and_then(|stream| stream.set_nodelay(true).map(|()| BufReader::new(stream)))
            .and_then(|mut conn| round_trip(&mut conn, line).map(|r| (conn, r)));
        match fresh {
            Ok((conn, response)) => {
                *guard = Some(conn);
                self.up.set(1);
                Ok(response)
            }
            Err(e) => {
                self.up.set(0);
                self.downs.inc();
                Err(e)
            }
        }
    }
}

/// The scatter-gather front-end over N shard processes. Internally
/// synchronized (`&self` everywhere) — share it behind an `Arc` across
/// connection threads, like a [`Frontend`](crate::frontend::Frontend).
#[derive(Debug)]
pub struct Router {
    shards: Vec<ShardConn>,
    plan: Mutex<ShardPlan>,
    /// Global reviewer count (grows with `add_reviewer` — replicated on
    /// every shard, counted once).
    reviewers: AtomicUsize,
    delta_p: usize,
    delta_r: usize,
    /// The router's global epoch: update requests routed successfully.
    /// Matches an unsharded store's epoch for the same session.
    epoch: AtomicU64,
    telemetry: Arc<Telemetry>,
    started: Instant,
}

impl Router {
    /// Connect to every shard, probe it with a `stats` request, and build
    /// the shard plan from the reported paper counts (shard order =
    /// global paper order). Startup is strict — an unreachable shard or
    /// one whose reviewer pool / `δ` parameters disagree with shard 0 is
    /// an error.
    pub fn connect(addrs: &[String], options: RouterOptions) -> Result<Self> {
        if addrs.is_empty() {
            return Err(Error::InvalidInstance("need at least one shard address".into()));
        }
        let telemetry =
            Arc::new(if options.telemetry { Telemetry::new() } else { Telemetry::disabled() });
        let shards: Vec<ShardConn> = addrs
            .iter()
            .enumerate()
            .map(|(s, addr)| ShardConn {
                addr: addr.clone(),
                conn: Mutex::new(None),
                requests: telemetry.counter(&format!("shard_requests_total{{shard=\"{s}\"}}")),
                downs: telemetry.counter(&format!("shard_down_total{{shard=\"{s}\"}}")),
                up: telemetry.gauge(&format!("shard_up{{shard=\"{s}\"}}")),
                epoch: telemetry.gauge(&format!("shard_epoch{{shard=\"{s}\"}}")),
            })
            .collect();
        let mut sizes = Vec::with_capacity(shards.len());
        let mut pool = None;
        for (s, shard) in shards.iter().enumerate() {
            let response = shard.request(r#"{"v":2,"op":"stats"}"#).map_err(|e| {
                Error::Io(format!("shard {s} ({}) unreachable at startup: {e}", shard.addr))
            })?;
            let stats = json::parse(&response)
                .map_err(|e| Error::Io(format!("shard {s}: bad stats response: {e}")))?;
            let field = |name: &str| {
                stats.get(name).and_then(Json::as_usize).ok_or_else(|| {
                    Error::Io(format!("shard {s}: stats response missing \"{name}\""))
                })
            };
            sizes.push(field("papers")?);
            let this = (field("reviewers")?, field("delta_p")?, field("delta_r")?);
            match pool {
                None => pool = Some(this),
                Some(first) if first != this => {
                    return Err(Error::InvalidInstance(format!(
                        "shard {s} reports (R, delta_p, delta_r) = {this:?}, shard 0 reports \
                         {first:?} — shards must share the reviewer pool and constraints"
                    )))
                }
                Some(_) => {}
            }
            shard.epoch.set(stats.get("epoch").and_then(Json::as_usize).unwrap_or(0) as i64);
        }
        let (reviewers, delta_p, delta_r) = pool.expect("at least one shard");
        Ok(Self {
            shards,
            plan: Mutex::new(ShardPlan::from_sizes(&sizes)?),
            reviewers: AtomicUsize::new(reviewers),
            delta_p,
            delta_r,
            epoch: AtomicU64::new(0),
            telemetry,
            started: Instant::now(),
        })
    }

    /// The router's telemetry registry (the CLI serves it on
    /// `--metrics-listen`, where the shard series appear as
    /// `wgrap_shard_*`).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Number of downstream shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Handle one request line and render the aggregated response (never
    /// panics on bad input — every error becomes an `{"ok":false,...}`
    /// response, every unreachable shard a structured `shard_down`).
    pub fn handle_line(&self, line: &str) -> Json {
        respond_to(line, |op, request, proto| {
            if COUNTED_OPS.contains(&op) {
                self.telemetry.counter(&format!("requests_total{{op=\"{op}\"}}")).inc();
            }
            match op {
                "jra" => self.route_jra(request, proto),
                "batch" => self.route_batch(request, proto),
                "update" => self.route_update(request, proto),
                "assign" => self.route_assign(request, proto),
                "stats" => self.route_stats(request, proto),
                "metrics" => self.route_metrics(request, proto),
                other => Err(format!("unknown op '{other}'")),
            }
        })
    }

    /// Forward `line` to shard `s` and parse its response; an unreachable
    /// shard becomes the structured `shard_down` response.
    fn forward(&self, s: usize, line: &str, proto: Protocol) -> Json {
        match self.shards[s].request(line) {
            Ok(response) => match json::parse(&response) {
                Ok(v) => v,
                Err(e) => versioned_error(proto, &format!("shard {s}: bad response JSON: {e}")),
            },
            Err(_) => shard_down_response(proto, s),
        }
    }

    fn plan(&self) -> ShardPlan {
        self.plan.lock().expect("router plan lock").clone()
    }

    fn route_jra(&self, request: &Json, proto: Protocol) -> std::result::Result<Json, String> {
        let plan = self.plan();
        if let Some(p) = request.get("paper_id").and_then(Json::as_usize) {
            let Some((s, local)) = plan.locate(p) else {
                // The exact Display rendering the unsharded solve produces.
                return Err(Error::InvalidInstance(format!(
                    "paper {p} out of range (P = {})",
                    plan.num_papers()
                ))
                .to_string());
            };
            let mut forwarded = request.clone();
            set_member(&mut forwarded, "paper_id", Json::Num(local as f64));
            return Ok(self.forward(s, &forwarded.to_string(), proto));
        }
        if let Some(name) = request.get("paper_name").and_then(Json::as_str) {
            // Scatter in shard order; the owning shard answers, the others
            // report the name as unknown. A non-"unknown paper" error from
            // the owning shard (bad delta_p, infeasible, …) wins over the
            // unknown-name noise from the rest.
            let line = request.to_string();
            let unknown = format!("unknown paper '{name}'");
            let mut real_error = None;
            let mut fallback = None;
            for s in 0..plan.num_shards() {
                let response = self.forward(s, &line, proto);
                if response.get("ok").and_then(Json::as_bool) == Some(true) {
                    return Ok(response);
                }
                let is_unknown =
                    response.get("error").and_then(Json::as_str) == Some(unknown.as_str());
                if !is_unknown && real_error.is_none() {
                    real_error = Some(response);
                } else if fallback.is_none() {
                    fallback = Some(response);
                }
            }
            return Ok(real_error.or(fallback).expect("at least one shard"));
        }
        // Ad-hoc vectors (and malformed requests, which shard 0 rejects
        // with the standard error) go to shard 0.
        Ok(self.forward(0, &request.to_string(), proto))
    }

    fn route_batch(&self, request: &Json, proto: Protocol) -> std::result::Result<Json, String> {
        let plan = self.plan();
        let queries =
            request.get("queries").and_then(Json::as_arr).ok_or("\"queries\" must be an array")?;
        /// Where one positional entry went.
        enum Slot {
            /// One shard, at this index of its sub-batch.
            Routed { shard: usize, index: usize },
            /// Scattered to every shard (a `paper_name` entry): per-shard
            /// sub-batch indexes, plus the name for error arbitration.
            Scatter { indexes: Vec<usize>, name: String },
            /// Failed at the router (global id out of range).
            Failed(String),
        }
        let mut subs: Vec<Vec<Json>> = vec![Vec::new(); plan.num_shards()];
        let slots: Vec<Slot> = queries
            .iter()
            .map(|query| {
                if let Some(p) = query.get("paper_id").and_then(Json::as_usize) {
                    let Some((shard, local)) = plan.locate(p) else {
                        return Slot::Failed(
                            Error::InvalidInstance(format!(
                                "paper {p} out of range (P = {})",
                                plan.num_papers()
                            ))
                            .to_string(),
                        );
                    };
                    let mut entry = query.clone();
                    set_member(&mut entry, "paper_id", Json::Num(local as f64));
                    subs[shard].push(entry);
                    return Slot::Routed { shard, index: subs[shard].len() - 1 };
                }
                if let Some(name) = query.get("paper_name").and_then(Json::as_str) {
                    let indexes = subs
                        .iter_mut()
                        .map(|sub| {
                            sub.push(query.clone());
                            sub.len() - 1
                        })
                        .collect();
                    return Slot::Scatter { indexes, name: name.to_string() };
                }
                subs[0].push(query.clone());
                Slot::Routed { shard: 0, index: subs[0].len() - 1 }
            })
            .collect();
        // Solve each non-empty sub-batch. A request-level downstream error
        // (bad pruning, …) is common to all shards and fails the whole
        // request with the first shard's message, like the unsharded path.
        enum ShardAnswer {
            Results(Vec<Json>),
            Down,
            Unused,
        }
        let mut answers = Vec::with_capacity(plan.num_shards());
        for (s, sub) in subs.into_iter().enumerate() {
            if sub.is_empty() {
                answers.push(ShardAnswer::Unused);
                continue;
            }
            let mut members = Vec::new();
            if proto == Protocol::V2 {
                members.push(("v", Json::Num(2.0)));
            }
            members.push(("op", Json::Str("batch".into())));
            if let Some(pruning) = request.get("pruning") {
                members.push(("pruning", pruning.clone()));
            }
            members.push(("queries", Json::Arr(sub)));
            match self.shards[s].request(&Json::obj(members).to_string()) {
                Err(_) => answers.push(ShardAnswer::Down),
                Ok(response) => {
                    let response = json::parse(&response)
                        .map_err(|e| format!("shard {s}: bad response JSON: {e}"))?;
                    if response.get("ok").and_then(Json::as_bool) != Some(true) {
                        let message = response
                            .get("error")
                            .and_then(Json::as_str)
                            .unwrap_or("malformed shard error")
                            .to_string();
                        return Err(message);
                    }
                    let results = response
                        .get("results")
                        .and_then(Json::as_arr)
                        .ok_or_else(|| format!("shard {s}: batch response missing results"))?;
                    answers.push(ShardAnswer::Results(results.to_vec()));
                }
            }
        }
        // Gather positionally.
        let results: Vec<Json> = slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Failed(message) => error_response(&message),
                Slot::Routed { shard, index } => match &answers[shard] {
                    ShardAnswer::Results(entries) => entries[index].clone(),
                    ShardAnswer::Down => shard_down_entry(shard),
                    ShardAnswer::Unused => unreachable!("routed entries fill their sub-batch"),
                },
                Slot::Scatter { indexes, name } => {
                    let unknown = format!("unknown paper '{name}'");
                    let mut real_error = None;
                    let mut fallback = None;
                    for (shard, &index) in indexes.iter().enumerate() {
                        let entry = match &answers[shard] {
                            ShardAnswer::Results(entries) => entries[index].clone(),
                            ShardAnswer::Down => shard_down_entry(shard),
                            ShardAnswer::Unused => {
                                unreachable!("scatter entries fill every sub-batch")
                            }
                        };
                        if entry.get("ok").and_then(Json::as_bool) == Some(true) {
                            return entry;
                        }
                        let is_unknown =
                            entry.get("error").and_then(Json::as_str) == Some(unknown.as_str());
                        if !is_unknown && real_error.is_none() {
                            real_error = Some(entry);
                        } else if fallback.is_none() {
                            fallback = Some(entry);
                        }
                    }
                    real_error.or(fallback).expect("at least one shard")
                }
            })
            .collect();
        let mut members = vec![("ok", Json::Bool(true))];
        if proto == Protocol::V2 {
            members.push(("v", Json::Num(2.0)));
        }
        members.push(("op", Json::Str("batch".into())));
        members.push(("epoch", Json::Num(self.epoch.load(Ordering::Acquire) as f64)));
        members.push(("results", Json::Arr(results)));
        Ok(Json::obj(members))
    }

    fn route_update(&self, request: &Json, proto: Protocol) -> std::result::Result<Json, String> {
        let plan = self.plan();
        let items =
            request.get("updates").and_then(Json::as_arr).ok_or("\"updates\" must be an array")?;
        let kind_of = |entry: &Json| -> Option<String> {
            entry.get("kind").and_then(Json::as_str).map(str::to_string)
        };
        // Replay the unsharded global capacity check — each shard's local
        // check (full R, a slice of P) is looser, so without this a
        // sharded deployment would admit papers the unsharded store
        // rejects. The error string matches the unsharded path's.
        let mut papers = plan.num_papers();
        let mut reviewers = self.reviewers.load(Ordering::Acquire);
        for entry in items {
            match kind_of(entry).as_deref() {
                Some("add_paper") => {
                    if reviewers * self.delta_r < (papers + 1) * self.delta_p {
                        // The exact Display rendering the unsharded apply
                        // produces for the same batch.
                        return Err(Error::InvalidInstance(format!(
                            "capacity shortfall after adding a paper: R*delta_r = {} < (P+1)*delta_p = {}",
                            reviewers * self.delta_r,
                            (papers + 1) * self.delta_p
                        ))
                        .to_string());
                    }
                    papers += 1;
                }
                Some("add_reviewer") => reviewers += 1,
                _ => {} // malformed entries are rejected downstream, see below
            }
        }
        let last = plan.num_shards() - 1;
        let mut subs: Vec<Vec<Json>> = vec![Vec::new(); plan.num_shards()];
        for entry in items {
            if kind_of(entry).as_deref() == Some("add_paper") {
                subs[last].push(entry.clone());
            } else {
                for sub in &mut subs {
                    sub.push(entry.clone());
                }
            }
        }
        // Last shard first: its sub-batch carries the add_paper entries,
        // the only shard-specific failure mode — a rejection there aborts
        // before any other shard applies. Remaining entries are identical
        // broadcasts, so later shards can only fail in ways the last shard
        // already failed (see the module docs).
        for s in std::iter::once(last).chain(0..last) {
            if subs[s].is_empty() {
                continue;
            }
            let body = Json::obj([
                ("op", Json::Str("update".into())),
                ("updates", Json::Arr(std::mem::take(&mut subs[s]))),
            ]);
            let response = match self.shards[s].request(&body.to_string()) {
                Err(_) => return Ok(shard_down_response(proto, s)),
                Ok(r) => {
                    json::parse(&r).map_err(|e| format!("shard {s}: bad response JSON: {e}"))?
                }
            };
            if response.get("ok").and_then(Json::as_bool) != Some(true) {
                return Err(response
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("malformed shard error")
                    .to_string());
            }
        }
        let added_papers =
            items.iter().filter(|e| kind_of(e).as_deref() == Some("add_paper")).count();
        let added_reviewers =
            items.iter().filter(|e| kind_of(e).as_deref() == Some("add_reviewer")).count();
        if added_papers > 0 {
            self.plan.lock().expect("router plan lock").note_papers_added(added_papers);
        }
        self.reviewers.fetch_add(added_reviewers, Ordering::AcqRel);
        let epoch = if items.is_empty() {
            self.epoch.load(Ordering::Acquire)
        } else {
            self.epoch.fetch_add(1, Ordering::AcqRel) + 1
        };
        let mut members = vec![("ok", Json::Bool(true))];
        if proto == Protocol::V2 {
            members.push(("v", Json::Num(2.0)));
        }
        members.extend([
            ("op", Json::Str("update".into())),
            ("epoch", Json::Num(epoch as f64)),
            ("applied", Json::Num(items.len() as f64)),
            ("papers", Json::Num((papers) as f64)),
            ("reviewers", Json::Num(reviewers as f64)),
        ]);
        Ok(Json::obj(members))
    }

    fn route_assign(&self, request: &Json, proto: Protocol) -> std::result::Result<Json, String> {
        let plan = self.plan();
        let mut body = Vec::new();
        if proto == Protocol::V2 {
            body.push(("v", Json::Num(2.0)));
        }
        body.push(("op", Json::Str("assign".into())));
        for key in ["method", "pruning"] {
            if let Some(v) = request.get(key) {
                body.push((key, v.clone()));
            }
        }
        let line = Json::obj(body).to_string();
        let mut groups: Vec<Vec<usize>> = Vec::with_capacity(plan.num_papers());
        let mut coverage = 0.0;
        let mut method = None;
        for s in 0..plan.num_shards() {
            if plan.range(s).is_empty() {
                continue;
            }
            let response = match self.shards[s].request(&line) {
                Err(_) => return Ok(shard_down_response(proto, s)),
                Ok(r) => {
                    json::parse(&r).map_err(|e| format!("shard {s}: bad response JSON: {e}"))?
                }
            };
            if response.get("ok").and_then(Json::as_bool) != Some(true) {
                return Err(response
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("malformed shard error")
                    .to_string());
            }
            coverage += response
                .get("coverage")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("shard {s}: assign response missing coverage"))?;
            if method.is_none() {
                method = response.get("method").cloned();
            }
            let shard_groups = response
                .get("groups")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("shard {s}: assign response missing groups"))?;
            for group in shard_groups {
                let ids = group
                    .as_arr()
                    .map(|g| g.iter().filter_map(Json::as_usize).collect::<Vec<_>>())
                    .ok_or_else(|| format!("shard {s}: malformed assign group"))?;
                groups.push(ids);
            }
        }
        let pruning = request.get("pruning").cloned();
        let swaps = merge::reconcile_capacity(
            &mut groups,
            self.reviewers.load(Ordering::Acquire),
            self.delta_r,
            |p, exclude| {
                let (s, local) = plan.locate(p).expect("reconciled paper is in range");
                let mut oracle = vec![
                    ("op", Json::Str("jra".into())),
                    ("paper_id", Json::Num(local as f64)),
                    ("delta_p", Json::Num(1.0)),
                    ("exclude", Json::nums(exclude.iter().map(|&x| x as f64))),
                ];
                if let Some(pruning) = &pruning {
                    oracle.push(("pruning", pruning.clone()));
                }
                let response = self.shards[s]
                    .request(&Json::obj(oracle).to_string())
                    .map_err(|_| Error::Infeasible(format!("shard_down: shard {s} unreachable")))?;
                let response = json::parse(&response)
                    .map_err(|e| Error::Infeasible(format!("shard {s}: bad response JSON: {e}")))?;
                if response.get("ok").and_then(Json::as_bool) != Some(true) {
                    let message = response
                        .get("error")
                        .and_then(Json::as_str)
                        .unwrap_or("malformed shard error");
                    return Err(Error::Infeasible(message.to_string()));
                }
                response
                    .get("results")
                    .and_then(Json::as_arr)
                    .and_then(|r| r.first())
                    .and_then(|r| r.get("group"))
                    .and_then(Json::as_arr)
                    .and_then(|g| g.first())
                    .and_then(Json::as_usize)
                    .ok_or_else(|| {
                        Error::Infeasible(format!("shard {s}: malformed jra oracle response"))
                    })
            },
        )
        .map_err(|e| match e {
            // The oracle wraps downstream messages in `Infeasible`; unwrap
            // them so the client sees the shard's error verbatim.
            Error::Infeasible(message) => message,
            other => other.to_string(),
        })?;
        let group_json: Vec<Json> =
            groups.iter().map(|g| Json::nums(g.iter().map(|&r| r as f64))).collect();
        let mut members = vec![("ok", Json::Bool(true))];
        if proto == Protocol::V2 {
            members.push(("v", Json::Num(2.0)));
        }
        members.extend([
            ("op", Json::Str("assign".into())),
            ("epoch", Json::Num(self.epoch.load(Ordering::Acquire) as f64)),
            ("method", method.unwrap_or_else(|| Json::Str("SDGA-SRA".into()))),
            ("coverage", Json::Num(coverage)),
            ("swaps", Json::Num(swaps as f64)),
            ("groups", Json::Arr(group_json)),
        ]);
        Ok(Json::obj(members))
    }

    fn route_stats(&self, request: &Json, proto: Protocol) -> std::result::Result<Json, String> {
        let plan = self.plan();
        let timings = request.get("timings").and_then(Json::as_bool) == Some(true);
        let mut shard_entries = Vec::with_capacity(plan.num_shards());
        let mut papers_total = 0usize;
        let mut shared: Option<Json> = None;
        for s in 0..plan.num_shards() {
            let range = plan.range(s);
            let range_json = Json::nums([range.start as f64, range.end as f64]);
            let response = match self.shards[s].request(r#"{"v":2,"op":"stats"}"#) {
                Ok(r) => json::parse(&r).ok(),
                Err(_) => None,
            };
            let Some(response) =
                response.filter(|r| r.get("ok").and_then(Json::as_bool) == Some(true))
            else {
                shard_entries.push(Json::obj([
                    ("shard", Json::Num(s as f64)),
                    ("range", range_json),
                    ("up", Json::Bool(false)),
                    ("error", Json::Str("shard_down".into())),
                ]));
                continue;
            };
            let epoch = response.get("epoch").and_then(Json::as_usize).unwrap_or(0);
            let papers = response.get("papers").and_then(Json::as_usize).unwrap_or(0);
            let queued = response
                .get("frontend")
                .and_then(|f| f.get("queued"))
                .and_then(Json::as_usize)
                .unwrap_or(0);
            self.shards[s].epoch.set(epoch as i64);
            papers_total += papers;
            if shared.is_none() {
                shared = Some(response.clone());
            }
            let mut entry = vec![
                ("shard", Json::Num(s as f64)),
                ("range", range_json),
                ("up", Json::Bool(true)),
                ("epoch", Json::Num(epoch as f64)),
                ("papers", Json::Num(papers as f64)),
                ("queued", Json::Num(queued as f64)),
                ("requests", Json::Num(self.shards[s].requests.get() as f64)),
            ];
            if timings {
                let elapsed = self.started.elapsed().as_secs_f64().max(1e-9);
                entry.push(("qps", Json::Num(self.shards[s].requests.get() as f64 / elapsed)));
            }
            shard_entries.push(Json::obj(entry));
        }
        let Some(shared) = shared else {
            return Err("shard_down: all shards unreachable".into());
        };
        let mut members = vec![("ok", Json::Bool(true))];
        if proto == Protocol::V2 {
            members.push(("v", Json::Num(2.0)));
        }
        members.extend([
            ("op", Json::Str("stats".into())),
            ("epoch", Json::Num(self.epoch.load(Ordering::Acquire) as f64)),
            ("papers", Json::Num(papers_total as f64)),
        ]);
        for key in ["reviewers", "topics", "delta_p", "delta_r", "scoring"] {
            if let Some(v) = shared.get(key) {
                members.push((key, v.clone()));
            }
        }
        if proto == Protocol::V2 {
            members.push(("shards", Json::Arr(shard_entries)));
        }
        Ok(Json::obj(members))
    }

    fn route_metrics(&self, request: &Json, proto: Protocol) -> std::result::Result<Json, String> {
        if proto != Protocol::V2 {
            return Err("\"metrics\" requires protocol v2 (send \"v\":2)".into());
        }
        let timings = request.get("timings").and_then(Json::as_bool) == Some(true);
        let mut obj = vec![
            ("ok".to_string(), Json::Bool(true)),
            ("v".to_string(), Json::Num(2.0)),
            ("op".to_string(), Json::Str("metrics".into())),
        ];
        let Json::Obj(body) = self.telemetry.snapshot().to_json(timings) else {
            unreachable!("snapshot renders an object")
        };
        obj.extend(body);
        if request.get("slow").and_then(Json::as_bool) == Some(true) {
            let slow = self.telemetry.traces().slow();
            obj.push((
                "slow".to_string(),
                Json::Arr(slow.iter().map(|t| t.to_json(timings)).collect()),
            ));
        }
        Ok(Json::Obj(obj))
    }
}

/// The structured degraded-mode response: the shard exists in the plan
/// but cannot be reached. `"shard"` tells the operator which process to
/// look at; the error string is deterministic (no OS error text), so
/// degradation cases can be golden-tested.
fn shard_down_response(proto: Protocol, s: usize) -> Json {
    let mut members = vec![("ok", Json::Bool(false))];
    if proto == Protocol::V2 {
        members.push(("v", Json::Num(2.0)));
    }
    members.push(("shard", Json::Num(s as f64)));
    members.push(("error", Json::Str(format!("shard_down: shard {s} unreachable"))));
    Json::obj(members)
}

/// Per-entry `batch` variant of [`shard_down_response`] (no `"v"`, like
/// every per-entry error).
fn shard_down_entry(s: usize) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("shard", Json::Num(s as f64)),
        ("error", Json::Str(format!("shard_down: shard {s} unreachable"))),
    ])
}

/// Replace an existing member's value in a JSON object (no-op when the
/// key is absent — callers only rewrite members they just read).
fn set_member(obj: &mut Json, key: &str, value: Json) {
    if let Json::Obj(members) = obj {
        if let Some(member) = members.iter_mut().find(|(k, _)| k == key) {
            member.1 = value;
        }
    }
}

impl LineHandler for Router {
    fn respond(&self, line: &str) -> Json {
        self.handle_line(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Service;
    use crate::frontend::Frontend;
    use crate::server::{handle_line, serve_connection, serve_tcp};
    use std::net::TcpListener;
    use std::time::Duration;
    use wgrap_core::prelude::{Instance, Scoring};
    use wgrap_core::topic::TopicVector;

    fn tv(v: &[f64]) -> TopicVector {
        TopicVector::new(v.to_vec())
    }

    /// 6 papers, 4 reviewers, δp = 2, δr = 4, one COI.
    fn instance() -> Instance {
        let papers = vec![
            tv(&[0.7, 0.3, 0.0]),
            tv(&[0.0, 0.5, 0.5]),
            tv(&[0.2, 0.2, 0.6]),
            tv(&[1.0, 0.0, 0.0]),
            tv(&[0.0, 0.0, 1.0]),
            tv(&[0.3, 0.4, 0.3]),
        ];
        let reviewers = vec![
            tv(&[0.9, 0.1, 0.0]),
            tv(&[0.0, 0.8, 0.2]),
            tv(&[0.3, 0.3, 0.4]),
            tv(&[0.0, 0.0, 1.0]),
        ];
        let mut inst = Instance::new(papers, reviewers, 2, 4).unwrap();
        inst.add_coi(0, 3);
        inst
    }

    fn shard_frontend(sub: Instance) -> Arc<Frontend> {
        Arc::new(Frontend::with_defaults(Arc::new(Service::new(
            sub,
            Scoring::WeightedCoverage,
            42,
        ))))
    }

    /// Launch one in-process shard server per sub-instance; returns their
    /// addresses.
    fn spawn_shards(inst: &Instance, n: usize) -> Vec<String> {
        let plan = ShardPlan::balanced(inst.num_papers(), n).unwrap();
        plan.split_instance(inst)
            .unwrap()
            .into_iter()
            .map(|sub| {
                let frontend = shard_frontend(sub);
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let addr = listener.local_addr().unwrap().to_string();
                std::thread::spawn(move || {
                    let _ = serve_tcp(listener, frontend);
                });
                addr
            })
            .collect()
    }

    fn unsharded() -> Frontend {
        Frontend::with_defaults(Arc::new(Service::new(instance(), Scoring::WeightedCoverage, 42)))
    }

    #[test]
    fn routed_requests_match_the_unsharded_server() {
        let inst = instance();
        let addrs = spawn_shards(&inst, 3);
        let router = Router::connect(&addrs, RouterOptions::default()).unwrap();
        let reference = unsharded();
        // jra by global id / name / ad-hoc vector — byte-identical v1
        // responses (epoch 0 everywhere pre-update).
        for line in [
            r#"{"op":"jra","paper_id":0}"#,
            r#"{"op":"jra","paper_id":4,"top_k":2}"#,
            r#"{"op":"jra","paper_name":"paper-5"}"#,
            r#"{"op":"jra","paper":[0.1,0.8,0.1]}"#,
            r#"{"op":"jra","paper_id":99}"#,
            r#"{"op":"jra","paper_name":"no-such"}"#,
            r#"{"op":"batch","queries":[{"paper_id":5},{"paper_id":0},{"paper_id":99},{"paper_name":"paper-2"}]}"#,
            r#"{"op":"nope"}"#,
        ] {
            let got = router.handle_line(line).to_string();
            let want = handle_line(&reference, line).to_string();
            assert_eq!(got, want, "router diverged on {line}");
        }
        // v1 stats matches the unsharded response member for member, minus
        // candidate_support (per-shard supports cannot be aggregated).
        let got = router.handle_line(r#"{"op":"stats"}"#).to_string();
        let mut want = handle_line(&reference, r#"{"op":"stats"}"#);
        if let Json::Obj(members) = &mut want {
            members.retain(|(k, _)| k != "candidate_support");
        }
        assert_eq!(got, want.to_string());
        // Broadcast update: router and unsharded agree on the response and
        // on subsequent reads.
        let update = r#"{"op":"update","updates":[{"kind":"add_reviewer","name":"eve","expertise":[0.5,0.5,0.0]}]}"#;
        assert_eq!(
            router.handle_line(update).to_string(),
            handle_line(&reference, update).to_string()
        );
        let query = r#"{"op":"jra","paper_id":3}"#;
        assert_eq!(
            router.handle_line(query).to_string(),
            handle_line(&reference, query).to_string()
        );
        // add_paper routes to the last shard; the new paper is queryable
        // by its global id and the global capacity bookkeeping holds.
        let add = r#"{"op":"update","updates":[{"kind":"add_paper","name":"p-new","topics":[0.2,0.6,0.2]}]}"#;
        assert_eq!(router.handle_line(add).to_string(), handle_line(&reference, add).to_string());
        let query = r#"{"op":"jra","paper_name":"p-new"}"#;
        assert_eq!(
            router.handle_line(query).get("results").map(Json::to_string),
            handle_line(&reference, query).get("results").map(Json::to_string),
        );
    }

    #[test]
    fn v2_stats_carries_the_shards_section() {
        let inst = instance();
        let addrs = spawn_shards(&inst, 3);
        let router = Router::connect(&addrs, RouterOptions::default()).unwrap();
        let stats = router.handle_line(r#"{"v":2,"op":"stats"}"#);
        assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(stats.get("papers").and_then(Json::as_usize), Some(6));
        let shards = stats.get("shards").and_then(Json::as_arr).unwrap();
        assert_eq!(shards.len(), 3);
        for (s, entry) in shards.iter().enumerate() {
            assert_eq!(entry.get("shard").and_then(Json::as_usize), Some(s));
            assert_eq!(entry.get("up").and_then(Json::as_bool), Some(true));
            assert_eq!(entry.get("papers").and_then(Json::as_usize), Some(2));
            assert!(entry.get("requests").and_then(Json::as_usize).unwrap() >= 1);
        }
        // v1 stats never grows the section.
        let v1 = router.handle_line(r#"{"op":"stats"}"#);
        assert!(v1.get("shards").is_none());
        // The registry carries the wgrap_shard_* series.
        let prom = router.telemetry().snapshot().to_prometheus();
        assert!(prom.contains("wgrap_shard_up{shard=\"0\"}"), "{prom}");
        assert!(prom.contains("wgrap_shard_requests_total{shard=\"2\"}"), "{prom}");
    }

    #[test]
    fn assign_aggregates_and_reconciles() {
        let inst = instance();
        let addrs = spawn_shards(&inst, 2);
        let router = Router::connect(&addrs, RouterOptions::default()).unwrap();
        let v = router.handle_line(r#"{"v":2,"op":"assign","method":"greedy"}"#);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v}");
        let groups = v.get("groups").and_then(Json::as_arr).unwrap();
        assert_eq!(groups.len(), 6);
        let mut loads = vec![0usize; 4];
        for g in groups {
            let g = g.as_arr().unwrap();
            assert_eq!(g.len(), 2);
            for r in g {
                loads[r.as_usize().unwrap()] += 1;
            }
        }
        assert!(loads.iter().all(|&l| l <= 4), "loads {loads:?}");
        assert!(v.get("swaps").and_then(Json::as_usize).is_some());
        assert!(v.get("coverage").and_then(Json::as_f64).unwrap().is_finite());
    }

    #[test]
    fn unreachable_shard_degrades_to_structured_errors() {
        let inst = instance();
        let plan = ShardPlan::balanced(inst.num_papers(), 3).unwrap();
        let mut subs = plan.split_instance(&inst).unwrap();
        let dying = subs.pop().unwrap();
        let mut addrs: Vec<String> = subs
            .into_iter()
            .map(|sub| {
                let frontend = shard_frontend(sub);
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let addr = listener.local_addr().unwrap().to_string();
                std::thread::spawn(move || {
                    let _ = serve_tcp(listener, frontend);
                });
                addr
            })
            .collect();
        // Shard 2 answers exactly one request (the startup probe), then
        // drops its listener — every later contact is a dead connection
        // plus a refused reconnect.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        addrs.push(listener.local_addr().unwrap().to_string());
        let frontend = shard_frontend(dying);
        std::thread::spawn(move || {
            let (socket, _) = listener.accept().unwrap();
            let mut line = String::new();
            BufReader::new(socket.try_clone().unwrap()).read_line(&mut line).unwrap();
            serve_connection(line.as_bytes(), socket, |l| handle_line(&frontend, l)).unwrap();
        });
        let router = Router::connect(&addrs, RouterOptions::default()).unwrap();
        // A paper on the dead shard: structured shard_down, not a hang.
        let v = router.handle_line(r#"{"v":2,"op":"jra","paper_id":5}"#);
        assert_eq!(
            v.to_string(),
            r#"{"ok":false,"v":2,"shard":2,"error":"shard_down: shard 2 unreachable"}"#
        );
        // A paper on a live shard still answers.
        let live = router.handle_line(r#"{"op":"jra","paper_id":0}"#);
        assert_eq!(live.get("ok").and_then(Json::as_bool), Some(true));
        // Batch degrades per entry.
        let batch =
            router.handle_line(r#"{"op":"batch","queries":[{"paper_id":0},{"paper_id":5}]}"#);
        let results = batch.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(results[0].get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            results[1].get("error").and_then(Json::as_str),
            Some("shard_down: shard 2 unreachable")
        );
        // Stats marks the shard down and keeps aggregating the live ones.
        let stats = router.handle_line(r#"{"v":2,"op":"stats"}"#);
        assert_eq!(stats.get("papers").and_then(Json::as_usize), Some(4));
        let shards = stats.get("shards").and_then(Json::as_arr).unwrap();
        assert_eq!(shards[2].get("up").and_then(Json::as_bool), Some(false));
        assert_eq!(shards[2].get("error").and_then(Json::as_str), Some("shard_down"));
        assert_eq!(shards[0].get("up").and_then(Json::as_bool), Some(true));
    }

    /// A sink that keeps each `write` call's bytes apart.
    #[derive(Default)]
    struct WriteLog(Vec<Vec<u8>>);

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn serve_connection_writes_each_response_line_once() {
        let input = concat!(
            "{\"op\":\"jra\",\"paper_id\":0}\n",
            "{\"v\":2,\"op\":\"batch\",\"queries\":[{\"paper_id\":1},{\"paper_name\":\"paper-5\"}]}\n",
            "\n",
            "not json\n",
            "{\"v\":2,\"op\":\"stats\"}\n",
        );
        let writes = |respond: &dyn Fn(&str) -> Json| {
            let mut log = WriteLog::default();
            serve_connection(input.as_bytes(), &mut log, respond).unwrap();
            log.0
        };
        let frontend = unsharded();
        let router =
            Router::connect(&spawn_shards(&instance(), 2), RouterOptions::default()).unwrap();
        for (who, log) in [
            ("frontend", writes(&|line| handle_line(&frontend, line))),
            ("router", writes(&|line| router.handle_line(line))),
        ] {
            assert_eq!(log.len(), 4, "{who}: one write per non-blank request line");
            for write in &log {
                let text = std::str::from_utf8(write).unwrap();
                assert!(text.ends_with('\n') && text.matches('\n').count() == 1, "{who}: {text}");
                assert!(json::parse(text).is_ok(), "{who}: a whole response per write: {text}");
            }
        }
    }

    #[test]
    fn routed_round_trips_do_not_wait_for_delayed_acks() {
        // Closed loop through a TCP router over two TCP shards: each
        // round trip crosses three sockets. A response split over many
        // writes waits ~40 ms per hop for the peer's delayed ACK.
        let router =
            Router::connect(&spawn_shards(&instance(), 2), RouterOptions::default()).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || serve_tcp(listener, Arc::new(router)));
        let mut client = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let started = Instant::now();
        for _ in 0..20 {
            client.write_all(b"{\"op\":\"stats\"}\n").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains("\"ok\":true"), "{line}");
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(400),
            "20 routed stats round trips took {elapsed:?}"
        );
    }
}
