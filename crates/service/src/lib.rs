//! # wgrap-service — WGRAP as a long-running assignment service
//!
//! The paper's JRA scenario is inherently *online*: journal queries arrive
//! one at a time against a standing reviewer pool, papers and reviewers
//! come and go, and a batch CRA run is an occasional heavyweight consumer
//! of the same data. This crate turns the one-shot
//! [`wgrap_core::engine`] into that service, in four layers:
//!
//! 1. **Versioned store** ([`store`]) — epoch-numbered copy-on-write
//!    snapshots over an owned [`ScoreContext`](wgrap_core::engine::ScoreContext)
//!    plus its untruncated candidate set. An [`Update`] batch (add paper,
//!    add reviewer, retire reviewer, patch scores) is applied
//!    *incrementally* — new papers extend the flat CSR paper view and get
//!    their candidate row through the topic → reviewers inverted index;
//!    reviewer changes splice exactly the affected candidate lists —
//!    and the result is proptested **bit-identical** to rebuilding from
//!    the final instance, for every scoring. The write path is two-phase:
//!    [`VersionedStore::begin_update`] builds off the read path,
//!    [`PendingUpdate::publish`] is a bare `Arc` swap — so admissions
//!    never wait on a build.
//! 2. **Query executor** ([`batch`]) — a [`JraBatch`] admits a group of
//!    JRA queries at one epoch and fans them out on the engine's
//!    deterministic work-stealing substrate (`rayon` feature). Positional
//!    writes keep batched answers bit-identical to one-at-a-time solves
//!    under any worker count. CRA runs admit-at-epoch the same way, so a
//!    long solve never blocks updates.
//! 3. **Typed request API** ([`api`]) — the one entry point everything
//!    else routes through: a [`SolveRequest`] canonicalizes to a stable,
//!    hashable [`RequestKey`], plans into a [`Plan`] (resolved solver,
//!    admitted epoch, pruning bounds) and executes to an [`Outcome`]
//!    (answer + epoch/cache/timing/support diagnostics), with a
//!    **per-epoch result cache** whose hits are bit-identical to cold
//!    solves and which every publish invalidates.
//! 4. **Concurrent front-end** ([`frontend`] + [`server`]) — `wgrap
//!    serve`: newline-delimited JSON over stdin/stdout, plain `std::net`
//!    TCP (thread per connection), or a deterministic multi-session
//!    harness ([`serve_multi`]), exposing `jra`, `batch`, `update`,
//!    `assign` and `stats` in two protocol versions: v1 (byte-identical
//!    to the pre-`api` server, golden-tested) and v2 (`"v":2` —
//!    cache/key/loss diagnostics and stats counters). A [`Frontend`]
//!    adds admission control (bounded in-flight solves + bounded queue,
//!    structured `"busy"` rejections) and an epoch-coalescing
//!    auto-batcher that collects concurrent `jra` requests admitted at
//!    the same epoch into one [`JraBatch`] — a pure perf transform, since
//!    batched answers are bit-identical to one-at-a-time solves. The
//!    result cache is LRU-bounded ([`ServeOptions::cache_cap`]). See
//!    `src/README.md` for the migration guide and tuning flags.
//!
//! ```
//! use wgrap_core::prelude::*;
//! use wgrap_core::topic::TopicVector;
//! use wgrap_service::{JraBatch, JraQuery, QueryPaper, Update, VersionedStore};
//! use wgrap_core::engine::PruningPolicy;
//!
//! let inst = Instance::new(
//!     vec![TopicVector::new(vec![0.6, 0.4])],
//!     vec![TopicVector::new(vec![0.9, 0.1]), TopicVector::new(vec![0.2, 0.8])],
//!     1,
//!     2,
//! )?;
//! let mut store = VersionedStore::new(inst, Scoring::WeightedCoverage, 42);
//!
//! // An online query against epoch 0 ...
//! let mut batch = JraBatch::new(store.snapshot(), PruningPolicy::Auto);
//! batch.push(JraQuery::new(QueryPaper::Adhoc(TopicVector::new(vec![0.1, 0.9]))));
//! let answers = batch.run();
//! assert_eq!(answers[0].as_ref().unwrap()[0].group, vec![1]);
//!
//! // ... an incremental update publishes epoch 1; the old snapshot lives
//! // on for any in-flight work.
//! let epoch = store.apply(&[Update::AddReviewer {
//!     name: None,
//!     expertise: TopicVector::new(vec![0.0, 1.0]),
//! }])?;
//! assert_eq!(epoch, 1);
//! # Ok::<(), wgrap_core::error::Error>(())
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod batch;
pub mod durable;
pub mod frontend;
pub mod json;
pub mod server;
pub mod shard;
pub mod store;
pub mod telemetry;
#[doc(hidden)]
pub mod testutil;

pub use api::{
    Answer, CraAnswer, Diagnostics, JraAnswer, JraSpec, Outcome, PaperRef, Plan, RequestKey,
    ServeOptions, Service, SolveRequest, StatsAnswer, UpdateAnswer,
};
pub use batch::{JraBatch, JraQuery, QueryPaper};
pub use durable::{DurabilityStats, DurableOptions, FsyncPolicy, RecoveryInfo};
pub use frontend::{Frontend, FrontendCounters, FrontendOptions, JraOutcome};
pub use server::{
    serve_connection, serve_metrics, serve_multi, serve_stdio, serve_tcp, LineHandler,
};
pub use shard::{Router, RouterOptions, ShardPlan, ShardedCraAnswer, ShardedStore};
pub use store::{PendingUpdate, Snapshot, StoreStats, Update, VersionedStore};
pub use telemetry::{MetricsSnapshot, Telemetry};
pub use wgrap_core::error::{Error, Result};
