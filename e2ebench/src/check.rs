//! Correctness checks against an in-process replica: the same instance
//! file, scoring, seed and pruning as the served process, with the same
//! updates applied in the same order, answering through
//! [`Service::execute`] at the epoch each served answer reports.

use crate::traffic::Payload;
use wgrap_core::engine::PruningPolicy;
use wgrap_core::jra::JraResult;
use wgrap_core::prelude::{Assignment, Scoring};
use wgrap_service::api::{Answer, JraSpec, ServeOptions, Service, SolveRequest};
use wgrap_service::json::{self, Json};
use wgrap_service::Update;

/// One named check and its outcome.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Did it hold?
    pub passed: bool,
    /// How many items it covered, or what differed.
    pub detail: String,
}

impl Check {
    /// A check over `items` items that failed on `bad` of them.
    pub fn tally(name: &str, items: usize, bad: &[String]) -> Self {
        Self {
            name: name.to_string(),
            passed: bad.is_empty() && items > 0,
            detail: if bad.is_empty() {
                format!("{items} compared")
            } else {
                format!("{} of {items} differ: {}", bad.len(), bad[0])
            },
        }
    }
}

/// The in-process replica of a served store.
pub struct Replica {
    service: Service,
    epoch: u64,
}

impl Replica {
    /// Parse `instance_text` and build the service the CLI would build for
    /// `serve --seed seed [--pruning …]`.
    pub fn new(instance_text: &str, seed: u64, pruning: PruningPolicy) -> Self {
        let inst =
            wgrap_core::io::parse_instance(instance_text).expect("generated instance parses");
        let options = ServeOptions { pruning, telemetry: false, ..ServeOptions::default() };
        Self {
            service: Service::with_options(inst, Scoring::WeightedCoverage, seed, options),
            epoch: 0,
        }
    }

    /// The replica's epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Apply one update (publishing the next epoch).
    pub fn apply(&mut self, update: &Update) -> Result<(), String> {
        self.service
            .execute(&SolveRequest::Update(vec![update.clone()]))
            .map_err(|e| e.to_string())?;
        self.epoch += 1;
        Ok(())
    }

    /// One JRA query at the current epoch.
    pub fn jra(&self, spec: &JraSpec) -> Result<Vec<JraResult>, String> {
        let outcome =
            self.service.execute(&SolveRequest::Jra(spec.clone())).map_err(|e| e.to_string())?;
        let Answer::Jra(mut answers) = outcome.answer else { unreachable!("jra answer") };
        answers.remove(0).map(|a| a.results)
    }

    /// The coverage of a full default CRA solve at the current epoch.
    pub fn assign_coverage(&self) -> Result<f64, String> {
        let outcome = self.service.execute(&SolveRequest::cra()).map_err(|e| e.to_string())?;
        let Answer::Cra(answer) = outcome.answer else { unreachable!("cra answer") };
        Ok(answer.coverage)
    }

    /// Validate served `groups` on the replica's current instance.
    pub fn validate(&self, groups: Vec<Vec<usize>>) -> Result<(), String> {
        let snapshot = self.service.snapshot();
        Assignment::from_groups(groups).validate(snapshot.instance()).map_err(|e| e.to_string())
    }
}

/// Does a served `results` array equal ours bit for bit (groups, score
/// bits, node counts)?
pub fn same_results(served: &Json, ours: &[JraResult]) -> Result<(), String> {
    let arr = served.as_arr().ok_or("results is not an array")?;
    if arr.len() != ours.len() {
        return Err(format!("{} results served, {} in-process", arr.len(), ours.len()));
    }
    for (s, o) in arr.iter().zip(ours) {
        let group: Option<Vec<usize>> = s
            .get("group")
            .and_then(Json::as_arr)
            .map(|g| g.iter().filter_map(Json::as_usize).collect());
        let score = s.get("score").and_then(Json::as_f64).map(f64::to_bits);
        let nodes = s.get("nodes").and_then(Json::as_f64).map(|n| n as u64);
        if group.as_ref() != Some(&o.group)
            || score != Some(o.score.to_bits())
            || nodes != Some(o.nodes)
        {
            return Err(format!(
                "served {group:?}/{score:?}/{nodes:?} vs in-process {:?}/{}/{}",
                o.group, o.score, o.nodes
            ));
        }
    }
    Ok(())
}

/// A served read to verify: its epoch and what to compare.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The epoch the served answer reports.
    pub epoch: u64,
    /// An entry of a routed `batch` whose flight overlapped an update's.
    /// The router labels a batch with its epoch as read after the batch,
    /// so such an entry can be torn: answered by its shard one epoch
    /// before the label.
    pub overlapped: bool,
    /// The query.
    pub spec: JraSpec,
    /// The served `results` array.
    pub results: Json,
}

/// Turn a served answer to `payload` into samples (one per `jra`, one per
/// `batch` entry). `overlapped` marks a batch that overlapped an update.
pub fn samples_of(payload: &Payload, response: &str, overlapped: bool) -> Vec<Sample> {
    let Ok(v) = json::parse(response) else { return Vec::new() };
    let epoch = v.get("epoch").and_then(Json::as_usize).unwrap_or(0) as u64;
    match payload {
        Payload::Jra(spec) => v
            .get("results")
            .map(|r| {
                vec![Sample { epoch, overlapped: false, spec: spec.clone(), results: r.clone() }]
            })
            .unwrap_or_default(),
        Payload::Batch(specs) => {
            let entries = v.get("results").and_then(Json::as_arr).unwrap_or(&[]);
            specs
                .iter()
                .zip(entries)
                .filter_map(|(spec, e)| {
                    Some(Sample {
                        epoch,
                        overlapped,
                        spec: spec.clone(),
                        results: e.get("results")?.clone(),
                    })
                })
                .collect()
        }
        Payload::Update(_) => Vec::new(),
    }
}

/// What [`verify_reads`] found.
#[derive(Debug, Clone)]
pub struct ReadCheck {
    /// Every sample equals the replica at the epoch it reports, except the
    /// torn ones.
    pub check: Check,
    /// Overlapped batch entries that differ from the replica at their
    /// reported epoch and equal it one epoch earlier: answers whose label
    /// is newer than their data.
    pub torn: usize,
}

/// Verify `samples` against the replica at the epoch each reports,
/// applying `updates` (in the order the server acknowledged them) as the
/// replica advances. An overlapped entry that differs is also compared one
/// epoch earlier: if it matches there it is counted as torn, not as a
/// wrong answer, so the router's labelling defect is reported by name.
pub fn verify_reads(replica: &mut Replica, samples: &[Sample], updates: &[Update]) -> ReadCheck {
    // (epoch, labelled?, sample) probe points, in epoch order.
    let mut points: Vec<(u64, bool, usize)> =
        samples.iter().enumerate().map(|(i, s)| (s.epoch, true, i)).collect();
    points.extend(
        samples
            .iter()
            .enumerate()
            .filter(|(_, s)| s.overlapped && s.epoch > 0)
            .map(|(i, s)| (s.epoch - 1, false, i)),
    );
    points.sort_unstable();
    let mut at_label: Vec<Result<(), String>> = vec![Err(String::new()); samples.len()];
    let mut before_label = vec![false; samples.len()];
    let mut next = 0;
    for &(epoch, labelled, i) in &points {
        while replica.epoch() < epoch && next < updates.len() {
            if let Err(e) = replica.apply(&updates[next]) {
                at_label[i] = Err(format!("replaying update {next}: {e}"));
            }
            next += 1;
        }
        let s = &samples[i];
        let outcome = if replica.epoch() != epoch {
            Err(format!("no replica state for epoch {epoch}"))
        } else {
            replica.jra(&s.spec).and_then(|ours| same_results(&s.results, &ours))
        };
        if labelled {
            at_label[i] = outcome.map_err(|e| format!("epoch {epoch} {:?}: {e}", s.spec.paper));
        } else {
            before_label[i] = outcome.is_ok();
        }
    }
    let mut bad = Vec::new();
    let mut torn = 0;
    for (i, outcome) in at_label.into_iter().enumerate() {
        match outcome {
            Ok(()) => {}
            Err(_) if before_label[i] => torn += 1,
            Err(e) => bad.push(e),
        }
    }
    let mut check = Check::tally(
        "jra answers == in-process Service::execute at their reported epoch (bit-exact)",
        samples.len(),
        &bad,
    );
    if torn > 0 {
        check.detail.push_str(&format!(
            "; {torn} torn routed batch entries equal the epoch before their label \
             (shard.torn_entries)"
        ));
    }
    ReadCheck { check, torn }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wgrap_service::api::PaperRef;

    fn served(replica: &Replica, spec: &JraSpec, epoch: u64, overlapped: bool) -> Sample {
        let results = replica.jra(spec).unwrap();
        let arr: Vec<String> = results
            .iter()
            .map(|r| {
                let g: Vec<String> = r.group.iter().map(usize::to_string).collect();
                format!(
                    r#"{{"group":[{}],"score":{:?},"nodes":{}}}"#,
                    g.join(","),
                    r.score,
                    r.nodes
                )
            })
            .collect();
        let results = json::parse(&format!("[{}]", arr.join(","))).unwrap();
        Sample { epoch, overlapped, spec: spec.clone(), results }
    }

    /// Entries are compared at the epoch they report; an overlapped entry
    /// holding the previous epoch's data is torn, any other mismatch fails.
    #[test]
    fn reads_are_compared_at_their_reported_epoch() {
        let inst = crate::gen::venue_instance(7);
        let text = wgrap_core::io::write_instance(&inst);
        // Reviewer 0 becomes an exact match for paper 0.
        let patch = Update::PatchScores { reviewer: 0, expertise: inst.paper(0).clone() };
        let old = Replica::new(&text, 7, PruningPolicy::default());
        let mut new = Replica::new(&text, 7, PruningPolicy::default());
        new.apply(&patch).unwrap();
        let reviewer_0_matters = (0..inst.num_papers()).find(|&p| {
            let spec = JraSpec::new(PaperRef::Id(p));
            old.jra(&spec).unwrap()[0].score != new.jra(&spec).unwrap()[0].score
        });
        let spec = JraSpec::new(PaperRef::Id(reviewer_0_matters.expect("some paper changes")));
        let updates = [patch];
        let check = |s: Sample| {
            let mut replica = Replica::new(&text, 7, PruningPolicy::default());
            verify_reads(&mut replica, &[s], &updates)
        };
        // Epoch-0 data labelled epoch 0: correct.
        let r = check(served(&old, &spec, 0, false));
        assert!(r.check.passed && r.torn == 0);
        // Epoch-0 data labelled epoch 1 in an overlapped batch: torn.
        let r = check(served(&old, &spec, 1, true));
        assert!(r.check.passed && r.torn == 1, "{:?}", r.check);
        // The same answer outside an overlapped batch: wrong.
        let r = check(served(&old, &spec, 1, false));
        assert!(!r.check.passed && r.torn == 0);
    }
}
