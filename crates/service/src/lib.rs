//! # sadp-service
//!
//! Routing-as-a-service: a job-oriented layer over the staged
//! [`RoutingSession`](sadp_router::RoutingSession) API. Callers
//! describe *what* to route — a typed [`RouteRequest`] naming the
//! layout source, SADP process, flow arm, [`JobBudget`], and
//! [`Priority`] — and the service owns *how*: a pool of worker
//! threads, priority + fair-share scheduling (credit-weighted 4/2/1
//! round-robin, so a burst of 100k-net jobs cannot starve small
//! interactive ones), cooperative cancellation via budget slicing,
//! and graceful degradation (a panicking job is contained by
//! `catch_unwind` and reported as a typed failure; the daemon never
//! dies with it).
//!
//! Two front doors share one engine:
//!
//! * **In-process** — [`Service::start`], then
//!   [`submit`](Service::submit) / [`poll`](Service::poll) /
//!   [`wait`](Service::wait) / [`cancel`](Service::cancel) /
//!   [`shutdown`](Service::shutdown).
//! * **`sadpd`** — a binary speaking deterministic JSON-lines over
//!   stdin/stdout or a unix socket; see [`wire`] for the protocol and
//!   [`wire::serve`] for the in-process-testable loop.
//!
//! Determinism is part of the contract: an identical [`RouteRequest`]
//! yields the same [`RouteRequest::run_id`] and the same
//! [`outcome_fingerprint`] whether it ran on a bare session, an
//! in-process service of any pool size, or through `sadpd` — pinned
//! by the crate's determinism tests.
//!
//! Durability is opt-in via [`Service::start_durable`]: accepted jobs
//! are written to a checksummed write-ahead [`journal`] before the
//! submit returns, terminal responses are journaled before they are
//! reported, and long jobs checkpoint their routing session at slice
//! boundaries. After a crash — process kill included — reopening the
//! journal replays finished jobs verbatim and re-enqueues interrupted
//! ones, warm-starting from checkpoints, with the same fingerprint an
//! uninterrupted run would have produced (DESIGN.md §3.9).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod job;
pub mod journal;
pub mod service;
pub mod wire;

pub use job::{
    Arm, JobBudget, JobEvent, JobId, JobOutcome, JobSource, Priority, RouteRequest, RouteResponse,
    RouteSummary,
};
pub use journal::{DurabilityConfig, Journal, RecoveredJob, JOURNAL_HEADER};
/// Re-exported from the router crate, where it sits next to
/// [`RoutingOutcome`](sadp_router::RoutingOutcome).
pub use sadp_router::outcome_fingerprint;
pub use service::{
    JobState, JobStatus, RecoveryReport, Service, ServiceConfig, ServiceStats, ShutdownHandle,
    ShutdownMode, SubmitError,
};
