//! Seeded instance and request-stream generators. Every function here is a
//! pure function of its seed argument: the same seed yields byte-identical
//! instance files and request lines, so a run can be repeated exactly and
//! the served program receives nothing but these generated inputs.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use wgrap_core::prelude::Instance;
use wgrap_core::topic::TopicVector;
use wgrap_datagen::{Area, DatasetSpec};

/// The sparse topic-model shape of `jra_cold` and `router_hot`.
pub const SPARSE_P: usize = 4000;
/// Reviewers in the sparse shape.
pub const SPARSE_R: usize = 1000;
/// Topics in the sparse shape.
pub const SPARSE_T: usize = 300;
/// Nonzero topics per paper in the sparse shape.
pub const PAPER_NNZ: usize = 4;
/// Nonzero topics per reviewer in the sparse shape.
pub const REVIEWER_NNZ: usize = 6;
/// Group size for every workload.
pub const DELTA_P: usize = 2;

/// Papers in the paper-shaped `venue_mixed` instance (reviewers are twice
/// as many, as in the paper's Table 3 presets).
pub const VENUE_P: usize = 120;
/// Reviewers in the `venue_mixed` instance.
pub const VENUE_R: usize = 240;
/// Spare reviewer capacity added on top of the minimal `δr`, so that
/// `add_paper` updates have room.
pub const VENUE_SPARE_DELTA_R: usize = 2;

/// A workload-local seeded generator; `stream` separates independent
/// draws made from one workload seed.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A normalised vector with `nnz` random topics (repeats merge).
pub fn sparse_vector(t: usize, nnz: usize, rng: &mut StdRng) -> TopicVector {
    let entries: Vec<(usize, f64)> =
        (0..nnz).map(|_| (rng.random_range(0..t), rng.random::<f64>().max(1e-3))).collect();
    TopicVector::from_sparse(t, &entries).normalized()
}

/// A normalised dense vector over all `t` topics.
pub fn dense_vector(t: usize, rng: &mut StdRng) -> TopicVector {
    TopicVector::new((0..t).map(|_| rng.random::<f64>().max(1e-3)).collect()).normalized()
}

/// The sparse shape: P=4000, R=1000, T=300, 4 nonzero topics per paper and
/// 6 per reviewer, δp=2, δr two above the minimum.
pub fn sparse_instance(seed: u64) -> Instance {
    let mut rng = rng(seed, 1);
    let papers = (0..SPARSE_P).map(|_| sparse_vector(SPARSE_T, PAPER_NNZ, &mut rng)).collect();
    let reviewers =
        (0..SPARSE_R).map(|_| sparse_vector(SPARSE_T, REVIEWER_NNZ, &mut rng)).collect();
    let delta_r = Instance::minimal_delta_r(SPARSE_P, SPARSE_R, DELTA_P) + 2;
    Instance::new(papers, reviewers, DELTA_P, delta_r).expect("valid sparse instance")
}

/// The paper-shaped dense T=30 instance from the data generator, rebuilt
/// with spare `δr` (the generator emits the exact minimum, on which every
/// `add_paper` fails with a capacity shortfall).
pub fn venue_instance(seed: u64) -> Instance {
    let spec = DatasetSpec {
        name: "VENUE",
        area: Area::Databases,
        year: 2026,
        num_papers: VENUE_P,
        num_reviewers: VENUE_R,
    };
    let inst = wgrap_datagen::vectors::area_instance(&spec, DELTA_P, seed);
    let delta_r = inst.delta_r() + VENUE_SPARE_DELTA_R;
    inst.with_constraints(DELTA_P, delta_r).expect("spare capacity keeps the instance valid")
}

/// `n` arrival offsets (seconds) of a Poisson process on `[0, seconds)`
/// conditioned on its count: sorted uniform draws. Fixing the count keeps
/// the offered load identical across seeds while arrivals stay bursty.
pub fn arrivals(n: usize, seconds: f64, rng: &mut StdRng) -> Vec<f64> {
    let mut out: Vec<f64> = (0..n).map(|_| rng.random::<f64>() * seconds).collect();
    out.sort_by(f64::total_cmp);
    out
}

/// Draw ids from `0..n` without replacement, in a seeded order (a lazy
/// Fisher–Yates shuffle: the first `k` draws cost `O(k)` after `O(n)` set-up).
#[derive(Debug, Clone)]
pub struct WithoutReplacement {
    ids: Vec<u32>,
    next: usize,
    rng: StdRng,
}

impl WithoutReplacement {
    /// A sampler over `0..n`.
    pub fn new(n: usize, rng: StdRng) -> Self {
        Self { ids: (0..n as u32).collect(), next: 0, rng }
    }

    /// The next unseen id, or `None` once all `n` are drawn.
    pub fn draw(&mut self) -> Option<u32> {
        if self.next == self.ids.len() {
            return None;
        }
        let j = self.rng.random_range(self.next..self.ids.len());
        self.ids.swap(self.next, j);
        self.next += 1;
        Some(self.ids[self.next - 1])
    }
}

/// A fixed hot set of stored papers drawn from every shard's range, and a
/// skewed seeded choice among them (half the draws go to the hottest
/// quarter), so repeated keys keep the result cache busy.
#[derive(Debug, Clone)]
pub struct HotSet {
    /// The hot paper ids, hottest first.
    pub papers: Vec<u32>,
}

impl HotSet {
    /// `per_shard` distinct papers from each of `shards` equal ranges of
    /// `0..num_papers`, interleaved so every prefix spans all shards.
    pub fn new(num_papers: usize, shards: usize, per_shard: usize, rng: &mut StdRng) -> Self {
        let width = num_papers / shards;
        let mut per: Vec<Vec<u32>> = (0..shards)
            .map(|s| {
                let mut draw = WithoutReplacement::new(width, StdRng::seed_from_u64(rng.random()));
                (0..per_shard)
                    .map(|_| (s * width) as u32 + draw.draw().expect("per_shard <= width"))
                    .collect()
            })
            .collect();
        let mut papers = Vec::with_capacity(shards * per_shard);
        for i in 0..per_shard {
            for ids in &mut per {
                papers.push(ids[i]);
            }
        }
        Self { papers }
    }

    /// One seeded pick.
    pub fn pick(&self, rng: &mut StdRng) -> u32 {
        let n = self.papers.len();
        if rng.random_bool(0.5) {
            self.papers[rng.random_range(0..n.div_ceil(4))]
        } else {
            self.papers[rng.random_range(0..n)]
        }
    }
}

/// Render a topic vector as a JSON number array. Rust's shortest
/// round-trip float formatting keeps every weight bit-exact on the wire.
pub fn json_vector(v: &TopicVector) -> String {
    let parts: Vec<String> = v.as_slice().iter().map(|w| format!("{w}")).collect();
    format!("[{}]", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn without_replacement_is_deterministic_and_distinct() {
        let draw = |seed| {
            let mut s = WithoutReplacement::new(50, rng(seed, 7));
            (0..50).map(|_| s.draw().unwrap()).collect::<Vec<_>>()
        };
        let a = draw(3);
        assert_eq!(a, draw(3));
        assert_ne!(a, draw(4));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        let mut s = WithoutReplacement::new(2, rng(1, 1));
        assert!(s.draw().is_some() && s.draw().is_some() && s.draw().is_none());
    }

    #[test]
    fn hot_set_is_deterministic_and_spans_shards() {
        let make = |seed| {
            let mut r = rng(seed, 9);
            let hot = HotSet::new(4000, 2, 8, &mut r);
            let picks: Vec<u32> = (0..100).map(|_| hot.pick(&mut r)).collect();
            (hot.papers, picks)
        };
        let (papers, picks) = make(11);
        assert_eq!((papers.clone(), picks.clone()), make(11));
        assert_ne!(papers, make(12).0);
        assert_eq!(papers.len(), 16);
        assert!(papers[0] < 2000 && papers[1] >= 2000, "interleaved across shards");
        assert!(picks.iter().all(|p| papers.contains(p)));
    }

    #[test]
    fn instances_are_deterministic() {
        let text = |i: &Instance| wgrap_core::io::write_instance(i);
        assert_eq!(text(&venue_instance(5)), text(&venue_instance(5)));
        let v = venue_instance(5);
        assert!(v.num_reviewers() * v.delta_r() > v.num_papers() * v.delta_p());
    }
}
