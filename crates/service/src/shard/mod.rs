//! Shard-by-paper scale-out: a [`ShardedStore`] over per-shard
//! [`VersionedStore`](crate::store::VersionedStore)s, and a scatter-gather
//! NDJSON [`Router`] for multi-process deployments.
//!
//! # Why papers are the shard key
//!
//! Everything per-paper in the engine is self-contained: candidate lists,
//! CSR rows, COI masks and the result-cache key all hang off one paper id,
//! and no score ever crosses papers. Reviewers, by contrast, are global —
//! every paper may draw from the whole pool. The plan therefore partitions
//! **papers into contiguous ranges** ([`ShardPlan`]) and **replicates the
//! reviewer pool** on every shard. A shard is then a complete, valid
//! sub-instance: the same reviewers, a slice of the papers, the same
//! `δp`/`δr`. Because a JRA query targets exactly one paper, routing it to
//! the owning shard reproduces the unsharded solve *bit for bit* — same
//! candidate row, same forbidden mask, same branch-and-bound trace — which
//! is the property the shard proptests pin down.
//!
//! # Lockstep epochs
//!
//! An admitted [`Update`](crate::store::Update) batch is split by paper
//! range (paper additions go to the last shard, reviewer changes broadcast
//! to all) and applied under a two-phase prepare/publish: every affected
//! shard's copy-on-write build runs first (each holding its store's
//! builder gate), and only when **all** builds succeed are they published,
//! in shard order, under one global epoch. Any build failure drops every
//! pending build — no shard ever publishes a batch another shard rejected.
//!
//! # Module map
//!
//! * [`plan`] — [`ShardPlan`]: contiguous paper ranges, update splitting,
//!   sub-instance construction.
//! * [`store`] — [`ShardedStore`]: lockstep apply, scatter-gather JRA,
//!   CRA with cross-shard capacity reconciliation.
//! * [`merge`] — gather kernels: top-k merging with the unsharded
//!   tie-break order, and the capacity-reconciliation pass.
//! * [`router`] — [`Router`]: the `wgrap serve --router` front-end that
//!   speaks NDJSON v1/v2 upstream and fans out to shard processes over
//!   TCP, degrading to structured `"shard_down"` errors when a downstream
//!   is unreachable.

pub mod merge;
pub mod plan;
pub mod router;
pub mod store;

pub use plan::ShardPlan;
pub use router::{Router, RouterOptions};
pub use store::{ShardedCraAnswer, ShardedStore};
