//! Sharded multi-tenant encrypted-memory service over the DEUCE simulator.
//!
//! [`deuce_sim::Simulator`] answers "what does this trace cost?"; this
//! crate answers "what does this *service* sustain?". A
//! [`ServiceBuilder`] stands up one isolated key domain per tenant —
//! its own [`deuce_sim::SimConfig`] (key seed, scheme, store backend)
//! behind its own [`deuce_sim::StepSession`] — and a pool of worker
//! shards, each a thread draining a bounded queue of batched read/write
//! submissions. Tenant `i` (its registration index) belongs to shard
//! `i % shards`: every request of the tenant travels that shard's queue,
//! and only that shard's worker ever steps the tenant's session.
//!
//! The layer makes three promises:
//!
//! - **Isolation.** Tenants never share a key, a line store, or a
//!   counter cache. A shard steps only the sessions it owns, so a full
//!   or failed shard affects only its own tenants.
//! - **Backpressure, not blocking.** [`ServeHandle::submit`] checks the
//!   tenant's shard for room and enqueues the batch under one lock. If
//!   the queue is full the whole batch is rejected with
//!   [`SubmitError::QueueFull`] — carrying a `retry_after` hint — and
//!   *no request from the batch is ever applied*. Accepted batches are
//!   applied exactly once.
//! - **Determinism.** A tenant's requests share one FIFO, so its shard
//!   applies them in submission order by construction; the `n`-th is
//!   stepped as [`request_event`]`(n, ..)`. A tenant's final memory
//!   image ([`TenantReport::fingerprint`]) and summary
//!   ([`TenantReport::result`]) are bit-identical to a single-threaded
//!   replay of its request stream through
//!   [`request_event`] + [`deuce_sim::Simulator::run_source`],
//!   regardless of shard count or interleaving.
//!
//! Failure semantics: an uncorrectable write (device end of life) does
//! **not** stop the tenant — the session keeps stepping, exactly as the
//! single-threaded replay would, so bit-identity survives the failure.
//! The tenant is flagged [`TenantReport::degraded`] and, when the
//! service was built [`ServiceBuilder::with_flight_recorder`], the
//! flight ring is snapshotted at the first uncorrectable write for a
//! post-mortem. Store I/O errors (paged backends) latch inside the
//! session and surface as `Err` in [`TenantReport::result`] at
//! shutdown. A shard whose worker panics strands only its own tenants:
//! they are reported with an `Err` result, the shard is listed in
//! [`ServeReport::panicked_shards`], and every other tenant finishes
//! normally.
//!
//! # Examples
//!
//! ```
//! use deuce_serve::{Request, ServiceBuilder};
//! use deuce_sim::{SchemeKind, SimConfig};
//! use deuce_trace::LineAddr;
//!
//! let handle = ServiceBuilder::new()
//!     .shards(2)
//!     .tenant("alpha", SimConfig::new(SchemeKind::Deuce))
//!     .tenant("beta", SimConfig::new(SchemeKind::Deuce).key_seed(7))
//!     .start()
//!     .expect("service starts");
//!
//! let alpha = handle.tenant("alpha").expect("registered");
//! handle
//!     .submit(alpha, &[
//!         Request::write(LineAddr::new(3), [0xAB; 64]),
//!         Request::read(LineAddr::new(3)),
//!     ])
//!     .expect("queues have room");
//!
//! let report = handle.shutdown();
//! assert_eq!(report.applied, 2);
//! assert!(report.tenants.iter().all(|t| t.result.is_ok()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod report;
mod request;
mod service;

pub use report::{ServeReport, ServeStats, ShardReport, TenantReport};
pub use request::{request_event, Request};
pub use service::{ServeError, ServeHandle, ServiceBuilder, SubmitError, TenantId};
