//! Per-workload request streams. Each generator is seeded from the
//! workload seed and emits request lines together with their typed form,
//! which the correctness checks replay in-process.

use crate::gen::{self, HotSet, WithoutReplacement};
use crate::net::{Kind, Scheduled};
use rand::rngs::StdRng;
use rand::RngExt;
use wgrap_core::engine::PruningPolicy;
use wgrap_core::prelude::Instance;
use wgrap_service::api::{JraSpec, PaperRef};
use wgrap_service::Update;

/// The typed form of one request line.
#[derive(Debug, Clone)]
pub enum Payload {
    /// A single `jra`.
    Jra(JraSpec),
    /// A `batch` of `jra` entries.
    Batch(Vec<JraSpec>),
    /// A single-update `update`.
    Update(Update),
}

/// One generated request: its line, kind, connection and typed payload.
#[derive(Debug, Clone)]
pub struct Request {
    /// The NDJSON line.
    pub line: String,
    /// Its kind.
    pub kind: Kind,
    /// The connection it is sent on.
    pub conn: usize,
    /// Its typed form.
    pub payload: Payload,
}

/// A request source: yields the next request of a workload's mix.
pub trait Traffic {
    /// The next request.
    fn next_request(&mut self) -> Request;

    /// A phase of `requests` requests begins.
    fn start_phase(&mut self, _requests: usize) {}
}

/// Schedule `traffic` open-loop at `rate` per second for `seconds`
/// ([`gen::arrivals`]).
pub fn schedule(
    traffic: &mut dyn Traffic,
    arrivals: &mut StdRng,
    rate: f64,
    seconds: f64,
) -> (Vec<Scheduled>, Vec<Payload>) {
    let mut sched = Vec::new();
    let mut payloads = Vec::new();
    let n = (rate * seconds).round() as usize;
    traffic.start_phase(n);
    for due in gen::arrivals(n, seconds, arrivals) {
        let r = traffic.next_request();
        sched.push(Scheduled { due, line: r.line, kind: r.kind, conn: r.conn });
        payloads.push(r.payload);
    }
    (sched, payloads)
}

fn spec_line(spec: &JraSpec) -> String {
    let mut fields = Vec::new();
    match &spec.paper {
        PaperRef::Id(p) => fields.push(format!("\"paper_id\":{p}")),
        PaperRef::Adhoc(v) => fields.push(format!("\"paper\":{}", gen::json_vector(v))),
        PaperRef::Name(n) => fields.push(format!("\"paper_name\":\"{n}\"")),
    }
    if spec.top_k != 1 {
        fields.push(format!("\"top_k\":{}", spec.top_k));
    }
    if !spec.exclude.is_empty() {
        let ids: Vec<String> = spec.exclude.iter().map(u32::to_string).collect();
        fields.push(format!("\"exclude\":[{}]", ids.join(",")));
    }
    if let Some(pruning) = spec.pruning {
        fields.push(format!("\"pruning\":\"{pruning}\""));
    }
    fields.join(",")
}

/// A v2 `jra` line.
pub fn jra_line(spec: &JraSpec) -> String {
    format!("{{\"v\":2,\"op\":\"jra\",{}}}", spec_line(spec))
}

/// A v2 `batch` line.
pub fn batch_line(specs: &[JraSpec]) -> String {
    let entries: Vec<String> = specs.iter().map(|s| format!("{{{}}}", spec_line(s))).collect();
    format!("{{\"v\":2,\"op\":\"batch\",\"queries\":[{}]}}", entries.join(","))
}

/// A v2 single-update `update` line.
pub fn update_line(update: &Update) -> String {
    let body = match update {
        Update::AddPaper { name, topics, coi } => {
            let coi: Vec<String> = coi.iter().map(u32::to_string).collect();
            format!(
                "\"kind\":\"add_paper\",{}\"topics\":{},\"coi\":[{}]",
                name.as_ref().map(|n| format!("\"name\":\"{n}\",")).unwrap_or_default(),
                gen::json_vector(topics),
                coi.join(",")
            )
        }
        Update::AddReviewer { name, expertise } => format!(
            "\"kind\":\"add_reviewer\",{}\"expertise\":{}",
            name.as_ref().map(|n| format!("\"name\":\"{n}\",")).unwrap_or_default(),
            gen::json_vector(expertise)
        ),
        Update::RetireReviewer { reviewer } => {
            format!("\"kind\":\"retire_reviewer\",\"reviewer\":{reviewer}")
        }
        Update::PatchScores { reviewer, expertise } => format!(
            "\"kind\":\"patch_scores\",\"reviewer\":{reviewer},\"expertise\":{}",
            gen::json_vector(expertise)
        ),
    };
    format!("{{\"v\":2,\"op\":\"update\",\"updates\":[{{{body}}}]}}")
}

fn jra_request(spec: JraSpec, conn: usize) -> Request {
    Request { line: jra_line(&spec), kind: Kind::Jra, conn, payload: Payload::Jra(spec) }
}

fn update_request(update: Update) -> Request {
    // Updates share one connection, so their epochs follow generation
    // order and every update the generator judged valid stays valid.
    Request {
        line: update_line(&update),
        kind: Kind::Update,
        conn: 0,
        payload: Payload::Update(update),
    }
}

/// `jra_cold`: unique queries only. Stored papers are drawn without
/// replacement, the rest are fresh ad-hoc vectors; a seeded share asks
/// for `top_k` > 1 with excluded reviewers.
#[derive(Debug)]
pub struct ColdTraffic {
    ids: WithoutReplacement,
    rng: StdRng,
    topics: usize,
    reviewers: usize,
    sent: usize,
}

impl ColdTraffic {
    /// Share of queries naming a stored paper (the rest are ad hoc).
    pub const STORED_SHARE: f64 = 0.5;
    /// Share of queries with `top_k` > 1 and an `exclude` list.
    pub const TOPK_SHARE: f64 = 0.2;

    /// Traffic over `inst`, seeded by `seed`.
    pub fn new(inst: &Instance, seed: u64) -> Self {
        Self {
            ids: WithoutReplacement::new(inst.num_papers(), gen::rng(seed, 21)),
            rng: gen::rng(seed, 22),
            topics: inst.num_topics(),
            reviewers: inst.num_reviewers(),
            sent: 0,
        }
    }
}

impl Traffic for ColdTraffic {
    fn next_request(&mut self) -> Request {
        let paper = match self.rng.random_bool(Self::STORED_SHARE) {
            true => self.ids.draw().map(|p| PaperRef::Id(p as usize)),
            false => None,
        }
        .unwrap_or_else(|| {
            PaperRef::Adhoc(gen::sparse_vector(self.topics, gen::PAPER_NNZ, &mut self.rng))
        });
        let mut spec = JraSpec::new(paper);
        if self.rng.random_bool(Self::TOPK_SHARE) {
            spec.top_k = self.rng.random_range(2..=3);
            spec.exclude =
                (0..2).map(|_| self.rng.random_range(0..self.reviewers as u32)).collect();
        }
        self.sent += 1;
        jra_request(spec, self.sent)
    }
}

/// `venue_mixed`: reads of stored papers beside single updates of every
/// kind, generated so that none fails (spare capacity for `add_paper`,
/// at most a tenth of the reviewers retired, no update to a retired
/// reviewer).
#[derive(Debug)]
pub struct VenueTraffic {
    rng: StdRng,
    topics: usize,
    base_papers: usize,
    papers: usize,
    reviewers: usize,
    retired: Vec<bool>,
    delta_p: usize,
    delta_r: usize,
}

impl VenueTraffic {
    /// Share of requests that are updates.
    pub const UPDATE_SHARE: f64 = 0.3;
    /// Reads ask for bounded-loss candidate pruning: the exact search over
    /// the whole dense reviewer pool costs 4-6 ms per read and varies by
    /// ±15% between seeded instances, which would drown the write path this
    /// workload exists to measure. The server's default (exact) still
    /// applies to `assign`.
    pub const READ_PRUNING: PruningPolicy = PruningPolicy::TopK(24);

    /// Traffic over `inst`, seeded by `seed`.
    pub fn new(inst: &Instance, seed: u64) -> Self {
        Self {
            rng: gen::rng(seed, 31),
            topics: inst.num_topics(),
            base_papers: inst.num_papers(),
            papers: inst.num_papers(),
            reviewers: inst.num_reviewers(),
            retired: vec![false; inst.num_reviewers()],
            delta_p: inst.delta_p(),
            delta_r: inst.delta_r(),
        }
    }

    fn active_reviewer(&mut self) -> u32 {
        loop {
            let r = self.rng.random_range(0..self.reviewers);
            if !self.retired[r] {
                return r as u32;
            }
        }
    }

    /// The next update: add_paper, add_reviewer, patch_scores or
    /// retire_reviewer.
    pub fn next_update(&mut self) -> Update {
        let roll = self.rng.random::<f64>();
        let capacity_ok = self.reviewers * self.delta_r >= (self.papers + 1) * self.delta_p;
        let retired = self.retired.iter().filter(|&&r| r).count();
        if roll < 0.25 && capacity_ok {
            self.papers += 1;
            let coi = vec![self.active_reviewer()];
            Update::AddPaper {
                name: None,
                topics: gen::dense_vector(self.topics, &mut self.rng),
                coi,
            }
        } else if roll < 0.5 {
            self.reviewers += 1;
            self.retired.push(false);
            Update::AddReviewer {
                name: None,
                expertise: gen::dense_vector(self.topics, &mut self.rng),
            }
        } else if roll < 0.9 || retired * 10 >= self.reviewers {
            let reviewer = self.active_reviewer();
            Update::PatchScores {
                reviewer,
                expertise: gen::dense_vector(self.topics, &mut self.rng),
            }
        } else {
            let reviewer = self.active_reviewer();
            self.retired[reviewer as usize] = true;
            Update::RetireReviewer { reviewer }
        }
    }
}

impl Traffic for VenueTraffic {
    fn next_request(&mut self) -> Request {
        if self.rng.random_bool(Self::UPDATE_SHARE) {
            return update_request(self.next_update());
        }
        // Reads go out on their own connection (a reader client beside a
        // writer client), so no read waits behind a write's fsync on the
        // connection. Only papers present from the start are read: a read
        // may overtake the add_paper that creates a newer id.
        let p = self.rng.random_range(0..self.base_papers);
        let mut spec = JraSpec::new(PaperRef::Id(p));
        spec.pruning = Some(Self::READ_PRUNING);
        jra_request(spec, 1)
    }
}

/// `router_hot`: reads of a fixed hot set spanning both shards, batches
/// of eight hot papers (half from each shard), and rare broadcast
/// `patch_scores` updates: [`HotTraffic::PATCHES`] per phase at fixed
/// positions. Each patch empties the result cache, so a phase re-solves
/// each hot paper at most `PATCHES` times and hits otherwise.
#[derive(Debug)]
pub struct HotTraffic {
    /// The hot papers.
    pub hot: HotSet,
    rng: StdRng,
    topics: usize,
    reviewers: usize,
    /// Requests of the current phase so far.
    sent: usize,
    /// A patch every this many requests of the phase, `PATCHES` times.
    patch_every: usize,
}

impl HotTraffic {
    /// Hot papers per shard.
    pub const PER_SHARD: usize = 12;
    /// Entries per `batch`.
    pub const BATCH: usize = 8;
    /// Share of requests that are batches.
    pub const BATCH_SHARE: f64 = 0.3;
    /// Broadcast patches per phase, evenly spaced.
    pub const PATCHES: usize = 2;

    /// Traffic over `inst` served by `shards` shards, seeded by `seed`.
    pub fn new(inst: &Instance, shards: usize, seed: u64) -> Self {
        let mut rng = gen::rng(seed, 41);
        let hot = HotSet::new(inst.num_papers(), shards, Self::PER_SHARD, &mut rng);
        Self {
            hot,
            rng,
            topics: inst.num_topics(),
            reviewers: inst.num_reviewers(),
            sent: 0,
            patch_every: usize::MAX,
        }
    }

    /// A patch of a random reviewer to a fresh sparse profile.
    pub fn next_update(&mut self) -> Update {
        Update::PatchScores {
            reviewer: self.rng.random_range(0..self.reviewers as u32),
            expertise: gen::sparse_vector(self.topics, gen::REVIEWER_NNZ, &mut self.rng),
        }
    }

    /// Eight hot papers, alternating between the shards' halves of the
    /// hot set (which [`HotSet`] interleaves).
    fn next_batch(&mut self) -> Vec<JraSpec> {
        let n = self.hot.papers.len();
        (0..Self::BATCH)
            .map(|i| {
                let slot = 2 * self.rng.random_range(0..n / 2) + i % 2;
                JraSpec::new(PaperRef::Id(self.hot.papers[slot] as usize))
            })
            .collect()
    }
}

impl Traffic for HotTraffic {
    fn start_phase(&mut self, requests: usize) {
        self.sent = 0;
        self.patch_every = (requests / (Self::PATCHES + 1)).max(1);
    }

    fn next_request(&mut self) -> Request {
        let roll = self.rng.random::<f64>();
        self.sent += 1;
        let patch = self.sent.is_multiple_of(self.patch_every)
            && self.sent / self.patch_every <= Self::PATCHES;
        if patch {
            update_request(self.next_update())
        } else if roll < Self::BATCH_SHARE {
            let specs = self.next_batch();
            Request {
                line: batch_line(&specs),
                kind: Kind::Batch,
                conn: self.sent,
                payload: Payload::Batch(specs),
            }
        } else {
            let p = self.hot.pick(&mut self.rng);
            jra_request(JraSpec::new(PaperRef::Id(p as usize)), self.sent)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_traffic_never_repeats_a_query() {
        let inst = gen::venue_instance(3);
        let mut t = ColdTraffic::new(&inst, 3);
        let lines: Vec<String> = (0..300).map(|_| t.next_request().line).collect();
        let mut unique = lines.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), lines.len());
        let mut again = ColdTraffic::new(&inst, 3);
        assert!(lines.iter().all(|l| *l == again.next_request().line));
    }

    #[test]
    fn hot_traffic_patches_at_fixed_positions_of_each_phase() {
        let inst = gen::venue_instance(5);
        let mut t = HotTraffic::new(&inst, 2, 5);
        let hot = t.hot.papers.clone();
        for requests in [90, 7] {
            t.start_phase(requests);
            let kinds: Vec<Kind> = (0..requests).map(|_| t.next_request().kind).collect();
            let at: Vec<usize> = (0..requests).filter(|&i| kinds[i] == Kind::Update).collect();
            let every = requests / (HotTraffic::PATCHES + 1);
            assert_eq!(at, (1..=HotTraffic::PATCHES).map(|k| k * every - 1).collect::<Vec<_>>());
        }
        assert_eq!(t.hot.papers, hot, "the hot set stays fixed");
    }

    #[test]
    fn lines_parse_as_the_server_reads_them() {
        let inst = gen::venue_instance(4);
        let mut v = VenueTraffic::new(&inst, 4);
        let mut h = HotTraffic::new(&gen::venue_instance(4), 2, 4);
        for _ in 0..200 {
            for r in [v.next_request(), h.next_request()] {
                let parsed = wgrap_service::json::parse(&r.line).expect("valid JSON");
                assert_eq!(parsed.get("v").and_then(|x| x.as_usize()), Some(2));
            }
        }
    }
}
