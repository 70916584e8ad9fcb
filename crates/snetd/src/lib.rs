//! `snetd`: the long-running network-verification service.
//!
//! A dependency-free HTTP/1.1 daemon over `std::net` that turns the
//! workspace's one-shot pipelines (compile → check → persist, the §4
//! adversary, the depth-optimal search) into queryable endpoints with a
//! job manager in front:
//!
//! | endpoint              | answer |
//! |-----------------------|--------|
//! | `POST /v1/check`      | `snet-verdict/1` sort certificate or lowest-index counterexample |
//! | `POST /v1/adversary`  | §4 adversary witness verdict for a `(d,l)`-network |
//! | `POST /v1/search`     | job id + ND-JSON progress stream (chunked) |
//! | `GET /v1/jobs/{id}`   | job status / result document |
//! | `DELETE /v1/jobs/{id}`| cooperative cancel (search spills stay resumable) |
//! | `GET /v1/trace/{id}`  | stored span tree of a finished request (JSONL) |
//! | `GET /v1/debug/requests` | tracez-style ring: active + recently finished requests |
//! | `GET /metrics`        | Prometheus text exposition of the live registry |
//! | `GET /healthz`        | liveness + drain state |
//!
//! The interesting machinery is in [`jobs`]: content-addressed request
//! coalescing (N identical in-flight checks compile once) and per-job
//! progress capture, routed from [`snet_obs`] events by the one capture
//! sink that also fills request traces, around the
//! [`verdicts`] path `snetctl` shares: a warm hit replays the stored
//! verdict bytes verbatim once their claim re-checks, so responses are
//! byte-identical across cold/warm/coalesced. [`server`] adds the bounded worker pool and the
//! SIGTERM graceful drain; [`http`] is the hand-rolled wire layer;
//! [`client`] is the matching blocking client `snetctl query` uses.
//!
//! [`telemetry`] threads a trace context through all of it: an
//! `x-snet-trace` request header (or a fresh server-side id when
//! absent/malformed) names every span, progress frame, access-log line,
//! and RED histogram sample the request produces, coalesced riders link
//! to their leader's trace via `x-snet-link`, and finished span trees
//! are queryable back out of `/v1/trace/{id}` for `snetctl trace` to
//! merge with the client's own spans into one cross-process timeline.

pub mod client;
pub mod http;
pub mod jobs;
pub mod server;
pub mod telemetry;
pub mod verdicts;

pub use http::{HttpError, Limits};
pub use jobs::{CheckAnswer, FramePoll, Job, JobManager, JobsConfig};
pub use server::{install_signal_handlers, serve, spawn, ServeConfig, ServerHandle};
pub use telemetry::{RequestCtx, LINK_HEADER};
