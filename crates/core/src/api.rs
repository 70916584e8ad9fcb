//! Wire schemas for the `snetd` query service.
//!
//! These are the request/response bodies the daemon speaks over HTTP and
//! `snetctl query` consumes. A check or adversary answer is the
//! [`Verdict`](crate::verdict::Verdict) document itself, its stored bytes
//! verbatim, with the [`CacheState`] in an `x-snet-cache` header. The
//! bodies here keep the same byte contract: field order is fixed, so a
//! coalesced or warm response can be fanned out / replayed
//! byte-identically.
//!
//! Everything here serializes through the same hand-written
//! [`Serialize`]/[`Deserialize`] idiom as [`crate::verdict`]; the schema
//! tag [`API_SCHEMA`] is stamped into every response so clients can
//! reject a daemon speaking a different revision instead of misparsing
//! it.
//!
//! Progress for long-running jobs streams as newline-delimited JSON
//! [`ProgressFrame`]s (one compact JSON object per line, no embedded
//! newlines) over chunked transfer encoding.

use crate::element::ElementKind;
use crate::network::ComparatorNetwork;
use crate::verdict::field;
use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use snet_obs::json::obj;

/// Schema tag stamped into every service response; bump on breaking
/// changes so old clients fail loudly instead of misparsing.
pub const API_SCHEMA: &str = "snet-api/1";

/// Where a service answer came from, in cost order: a warm store hit
/// replays bytes, a coalesced answer shares another request's compile,
/// a miss paid the full compile + check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheState {
    /// Computed by this request (compile + verify + persist).
    Miss,
    /// Replayed verbatim from the content-addressed store.
    Hit,
    /// Attached to an identical in-flight request; compiled once.
    Coalesced,
}

impl CacheState {
    /// Stable wire name.
    pub fn name(&self) -> &'static str {
        match self {
            CacheState::Miss => "miss",
            CacheState::Hit => "hit",
            CacheState::Coalesced => "coalesced",
        }
    }

    /// Parses [`CacheState::name`] output.
    pub fn parse(s: &str) -> Option<CacheState> {
        match s {
            "miss" => Some(CacheState::Miss),
            "hit" => Some(CacheState::Hit),
            "coalesced" => Some(CacheState::Coalesced),
            _ => None,
        }
    }
}

impl Serialize for CacheState {
    fn serialize(&self) -> Value {
        self.name().serialize()
    }
}

impl Deserialize for CacheState {
    fn deserialize(v: &Value) -> Result<Self, SerdeError> {
        let s = String::deserialize(v)?;
        CacheState::parse(&s)
            .ok_or_else(|| SerdeError::custom(format!("unknown cache state {s:?}")))
    }
}

/// `POST /v1/check` body: a network to verdict exhaustively.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckRequest {
    /// The network to check (validated on deserialize).
    pub network: ComparatorNetwork,
}

impl Serialize for CheckRequest {
    fn serialize(&self) -> Value {
        obj(vec![("network", self.network.serialize())])
    }
}

impl Deserialize for CheckRequest {
    fn deserialize(v: &Value) -> Result<Self, SerdeError> {
        Ok(CheckRequest { network: ComparatorNetwork::deserialize(field(v, "network")?)? })
    }
}

/// `POST /v1/adversary` body: a shuffle-based `(d,l)`-network, given as
/// per-stage op vectors (the form the §4 adversary consumes), plus the
/// number of reverse-delta blocks `k` to absorb (defaults to `l`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdversaryRequest {
    /// Number of wires (`2^l`).
    pub n: u32,
    /// Per-stage op vectors (`n/2` ops each).
    pub stages: Vec<Vec<ElementKind>>,
    /// Blocks to absorb; `None` means `l = log2 n`.
    pub k: Option<u32>,
}

impl Serialize for AdversaryRequest {
    fn serialize(&self) -> Value {
        let mut fields = vec![
            ("n", self.n.serialize()),
            ("stages", Value::Array(self.stages.iter().map(|s| s.serialize()).collect())),
        ];
        if let Some(k) = self.k {
            fields.push(("k", k.serialize()));
        }
        obj(fields)
    }
}

impl Deserialize for AdversaryRequest {
    fn deserialize(v: &Value) -> Result<Self, SerdeError> {
        let stages = field(v, "stages")?
            .as_array()
            .ok_or_else(|| SerdeError::custom("`stages` is not an array"))?
            .iter()
            .map(Vec::<ElementKind>::deserialize)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(AdversaryRequest {
            n: u32::deserialize(field(v, "n")?)?,
            stages,
            k: match v.get("k") {
                Some(kv) => Some(u32::deserialize(kv)?),
                None => None,
            },
        })
    }
}

/// `POST /v1/search` body: a depth-optimality search job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchRequest {
    /// Number of wires.
    pub n: u32,
    /// Search mode, [`name`](crate::api)d as on the CLI:
    /// `"unrestricted"` or `"shuffle-legal"`.
    pub mode: String,
    /// Depth ceiling; `None` lets the engine pick its default.
    pub max_depth: Option<u32>,
    /// Worker threads; `None` lets the daemon pick.
    pub threads: Option<u32>,
}

impl Serialize for SearchRequest {
    fn serialize(&self) -> Value {
        let mut fields = vec![("n", self.n.serialize()), ("mode", self.mode.serialize())];
        if let Some(d) = self.max_depth {
            fields.push(("max_depth", d.serialize()));
        }
        if let Some(t) = self.threads {
            fields.push(("threads", t.serialize()));
        }
        obj(fields)
    }
}

impl Deserialize for SearchRequest {
    fn deserialize(v: &Value) -> Result<Self, SerdeError> {
        Ok(SearchRequest {
            n: u32::deserialize(field(v, "n")?)?,
            mode: String::deserialize(field(v, "mode")?)?,
            max_depth: match v.get("max_depth") {
                Some(d) => Some(u32::deserialize(d)?),
                None => None,
            },
            threads: match v.get("threads") {
                Some(t) => Some(u32::deserialize(t)?),
                None => None,
            },
        })
    }
}

/// Lifecycle of a service job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker slot.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished with a result.
    Done,
    /// Stopped by `DELETE /v1/jobs/{id}` or daemon shutdown.
    Cancelled,
    /// Failed; see the status `error` field.
    Failed,
}

impl JobState {
    /// Stable wire name.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }

    /// Parses [`JobState::name`] output.
    pub fn parse(s: &str) -> Option<JobState> {
        match s {
            "queued" => Some(JobState::Queued),
            "running" => Some(JobState::Running),
            "done" => Some(JobState::Done),
            "cancelled" => Some(JobState::Cancelled),
            "failed" => Some(JobState::Failed),
            _ => None,
        }
    }

    /// True once the job will never change state again.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobState::Done | JobState::Cancelled | JobState::Failed)
    }
}

impl Serialize for JobState {
    fn serialize(&self) -> Value {
        self.name().serialize()
    }
}

impl Deserialize for JobState {
    fn deserialize(v: &Value) -> Result<Self, SerdeError> {
        let s = String::deserialize(v)?;
        JobState::parse(&s).ok_or_else(|| SerdeError::custom(format!("unknown job state {s:?}")))
    }
}

/// `GET /v1/jobs/{id}` response.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// Always [`API_SCHEMA`].
    pub schema: String,
    /// The job's identifier (`job-<seq>`).
    pub id: String,
    /// What the job runs (`"search"`, `"check"`, ...).
    pub kind: String,
    /// Current lifecycle state.
    pub state: JobState,
    /// Error detail when `state == Failed`.
    pub error: Option<String>,
    /// Job-kind-specific result document once terminal (e.g. the search
    /// summary); `None` while the job is live.
    pub result: Option<Value>,
}

impl JobStatus {
    /// Compact canonical JSON bytes.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("job status serializes")
    }

    /// Parses [`JobStatus::to_json`] output, rejecting foreign schemas.
    pub fn parse(text: &str) -> Result<JobStatus, String> {
        let s: JobStatus = serde_json::from_str(text).map_err(|e| e.to_string())?;
        if s.schema != API_SCHEMA {
            return Err(format!("unrecognized api schema {:?}", s.schema));
        }
        Ok(s)
    }
}

impl Serialize for JobStatus {
    fn serialize(&self) -> Value {
        let mut fields = vec![
            ("schema", self.schema.serialize()),
            ("id", self.id.serialize()),
            ("kind", self.kind.serialize()),
            ("state", self.state.serialize()),
        ];
        if let Some(e) = &self.error {
            fields.push(("error", e.serialize()));
        }
        if let Some(r) = &self.result {
            fields.push(("result", r.clone()));
        }
        obj(fields)
    }
}

impl Deserialize for JobStatus {
    fn deserialize(v: &Value) -> Result<Self, SerdeError> {
        Ok(JobStatus {
            schema: String::deserialize(field(v, "schema")?)?,
            id: String::deserialize(field(v, "id")?)?,
            kind: String::deserialize(field(v, "kind")?)?,
            state: JobState::deserialize(field(v, "state")?)?,
            error: match v.get("error") {
                Some(e) => Some(String::deserialize(e)?),
                None => None,
            },
            result: v.get("result").cloned(),
        })
    }
}

/// Payload of one ND-JSON progress frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameKind {
    /// The job changed lifecycle state.
    Lifecycle {
        /// The state entered.
        state: JobState,
    },
    /// A named observation from the job's worker (counter deltas,
    /// span completions — whatever the per-job sink captured).
    Event {
        /// Dotted metric/span name, e.g. `search.rounds`.
        name: String,
        /// The observed value.
        value: u64,
    },
    /// Free-text progress note.
    Log {
        /// The note (no embedded newlines on the wire).
        message: String,
    },
}

/// One newline-delimited JSON progress frame of a streaming job
/// response. Serialized compact (one line), parsed line-by-line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgressFrame {
    /// The job this frame belongs to.
    pub job: String,
    /// Monotone per-job sequence number (0-based, no gaps).
    pub seq: u64,
    /// Hex trace id of the request that owns this job, when the daemon
    /// traced it; stable across miss/coalesced/hit deliveries of the
    /// same job so stream consumers can join frames to request traces.
    pub trace: Option<String>,
    /// The payload.
    pub kind: FrameKind,
}

impl ProgressFrame {
    /// The frame as one compact JSON line **without** the trailing
    /// newline; the transport adds the `\n` delimiter.
    pub fn to_json_line(&self) -> String {
        let line = serde_json::to_string(self).expect("progress frame serializes");
        debug_assert!(!line.contains('\n'), "frame must fit one line");
        line
    }

    /// Parses one line produced by [`ProgressFrame::to_json_line`].
    pub fn parse_line(line: &str) -> Result<ProgressFrame, String> {
        serde_json::from_str(line).map_err(|e| e.to_string())
    }
}

impl Serialize for ProgressFrame {
    fn serialize(&self) -> Value {
        let mut fields = vec![("job", self.job.serialize()), ("seq", self.seq.serialize())];
        if let Some(t) = &self.trace {
            fields.push(("trace", t.serialize()));
        }
        match &self.kind {
            FrameKind::Lifecycle { state } => {
                fields.push(("frame", "lifecycle".serialize()));
                fields.push(("state", state.serialize()));
            }
            FrameKind::Event { name, value } => {
                fields.push(("frame", "event".serialize()));
                fields.push(("name", name.serialize()));
                fields.push(("value", value.serialize()));
            }
            FrameKind::Log { message } => {
                fields.push(("frame", "log".serialize()));
                fields.push(("message", message.serialize()));
            }
        }
        obj(fields)
    }
}

impl Deserialize for ProgressFrame {
    fn deserialize(v: &Value) -> Result<Self, SerdeError> {
        let frame = String::deserialize(field(v, "frame")?)?;
        let kind = match frame.as_str() {
            "lifecycle" => {
                FrameKind::Lifecycle { state: JobState::deserialize(field(v, "state")?)? }
            }
            "event" => FrameKind::Event {
                name: String::deserialize(field(v, "name")?)?,
                value: u64::deserialize(field(v, "value")?)?,
            },
            "log" => FrameKind::Log { message: String::deserialize(field(v, "message")?)? },
            other => return Err(SerdeError::custom(format!("unknown frame kind {other:?}"))),
        };
        Ok(ProgressFrame {
            job: String::deserialize(field(v, "job")?)?,
            seq: u64::deserialize(field(v, "seq")?)?,
            trace: match v.get("trace") {
                Some(t) => Some(String::deserialize(t)?),
                None => None,
            },
            kind,
        })
    }
}

/// Error body every non-2xx service response carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorBody {
    /// Human-readable description of what was rejected and why.
    pub error: String,
}

impl ErrorBody {
    /// Wraps a message.
    pub fn new(msg: impl Into<String>) -> ErrorBody {
        ErrorBody { error: msg.into() }
    }

    /// Compact JSON bytes.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("error body serializes")
    }
}

impl Serialize for ErrorBody {
    fn serialize(&self) -> Value {
        obj(vec![("error", self.error.serialize())])
    }
}

impl Deserialize for ErrorBody {
    fn deserialize(v: &Value) -> Result<Self, SerdeError> {
        Ok(ErrorBody { error: String::deserialize(field(v, "error")?)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Element;
    use crate::network::Level;

    fn two_sorter() -> ComparatorNetwork {
        ComparatorNetwork::new(2, vec![Level::of_elements(vec![Element::cmp(0, 1)])]).unwrap()
    }

    #[test]
    fn check_request_roundtrips() {
        let req = CheckRequest { network: two_sorter() };
        let json = serde_json::to_string(&req).unwrap();
        let back: CheckRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn adversary_request_roundtrips_with_and_without_k() {
        use crate::element::ElementKind;
        let stages = vec![vec![ElementKind::Cmp; 4], vec![ElementKind::Pass; 4]];
        for k in [None, Some(3)] {
            let req = AdversaryRequest { n: 8, stages: stages.clone(), k };
            let json = serde_json::to_string(&req).unwrap();
            let back: AdversaryRequest = serde_json::from_str(&json).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn search_request_roundtrips() {
        let req =
            SearchRequest { n: 6, mode: "unrestricted".into(), max_depth: Some(6), threads: None };
        let json = serde_json::to_string(&req).unwrap();
        let back: SearchRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn job_states_roundtrip_and_classify() {
        for s in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Cancelled,
            JobState::Failed,
        ] {
            assert_eq!(JobState::parse(s.name()), Some(s));
        }
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(JobState::Done.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
        assert!(JobState::Failed.is_terminal());
        assert_eq!(JobState::parse("zombie"), None);
    }

    #[test]
    fn progress_frames_roundtrip_one_line_each() {
        let frames = vec![
            ProgressFrame {
                job: "job-0".into(),
                seq: 0,
                trace: None,
                kind: FrameKind::Lifecycle { state: JobState::Running },
            },
            ProgressFrame {
                job: "job-0".into(),
                seq: 1,
                trace: Some("deadbeef0000000000000000cafef00d".into()),
                kind: FrameKind::Event { name: "search.rounds".into(), value: 3 },
            },
            ProgressFrame {
                job: "job-0".into(),
                seq: 2,
                trace: None,
                kind: FrameKind::Log { message: "round 3: depth 5 refuted".into() },
            },
        ];
        for f in frames {
            let line = f.to_json_line();
            assert!(!line.contains('\n'));
            assert_eq!(ProgressFrame::parse_line(&line).unwrap(), f);
        }
        assert!(ProgressFrame::parse_line("{\"frame\":\"warp\"}").is_err());
    }

    #[test]
    fn job_status_roundtrips() {
        let status = JobStatus {
            schema: API_SCHEMA.into(),
            id: "job-7".into(),
            kind: "search".into(),
            state: JobState::Failed,
            error: Some("mode must be one of: unrestricted, shuffle-legal".into()),
            result: None,
        };
        let back = JobStatus::parse(&status.to_json()).unwrap();
        assert_eq!(back, status);
    }
}
