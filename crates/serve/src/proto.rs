//! Fleet wire protocol: newline-delimited JSON frames between the
//! coordinator and its worker processes.
//!
//! The coordinator owns each worker's stdin/stdout pipe pair. Frames
//! are one JSON object per line — the same hand-rolled JSON as the rest
//! of the workspace, hardened the same way: a frame that fails to parse
//! is a typed [`ProtoError`], never a panic, and the peer that sent it
//! is treated as faulty rather than trusted.
//!
//! Worker → coordinator: [`WorkerFrame::Hello`] once at startup,
//! [`WorkerFrame::Heartbeat`] on a timer (the liveness signal leases
//! hang off), one [`WorkerFrame::Event`] per event of the running
//! attempt (wave progress, sent once that wave's checkpoint is on disk;
//! stage spans; residual, retry and panic points), and
//! [`WorkerFrame::Done`] when a leased job finishes. An event frame
//! carries the attempt's `(job, lease)` and the event's kind and
//! fields exactly as the in-process executor would publish them; the
//! coordinator drops it unless the lease is still current. A frame
//! naming the `terminal` kind is rejected: only the ledger's
//! exactly-once finalize publishes a terminal event.
//!
//! Coordinator → worker: [`CoordFrame::Lease`] assigning one job (spec
//! embedded, checkpoint path shared through the coordinator's data
//! directory — that file is the cross-process resume handoff), and
//! [`CoordFrame::Drain`] asking the worker to exit once idle.
//!
//! Every `Done` is keyed by `(job, lease)` and the journal key adds the
//! [`spec_fingerprint`]: a revived worker reporting under an expired
//! lease is detected and ignored by the job ledger, which is what makes
//! finalize idempotent across processes.

use crate::events::{EventKind, Fields};
use crate::job::JobSpec;
use sprout_board::io::fnv1a64;
use sprout_telemetry::json::{self, Json, Obj};
use sprout_telemetry::Value;
use std::fmt;

/// Longest accepted frame line (bytes). A worker that emits more is
/// malfunctioning or hostile; the coordinator drops the frame.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// A frame the protocol could not accept.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoError {
    /// The line is not valid JSON.
    Json(String),
    /// The `type` field is missing or unknown.
    UnknownType(String),
    /// A required field is missing or mistyped for the frame type.
    Field(&'static str),
    /// The line exceeds [`MAX_FRAME_BYTES`].
    Oversized(usize),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Json(e) => write!(f, "frame is not valid JSON: {e}"),
            ProtoError::UnknownType(t) => write!(f, "unknown frame type `{t}`"),
            ProtoError::Field(what) => write!(f, "missing or mistyped frame field `{what}`"),
            ProtoError::Oversized(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME_BYTES}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Fingerprint of a job spec — FNV-1a over its canonical JSON line.
/// The journal's idempotent-finalize key is `(job id, fingerprint)`:
/// a terminal record only counts for the job it was actually computed
/// for, even across coordinator restarts and id reuse by a corrupt
/// journal.
pub fn spec_fingerprint(spec: &JobSpec) -> u64 {
    fnv1a64(spec.to_json().as_bytes())
}

/// The classified outcome of one attempt, from either executor: a
/// worker process sends it as a `done` frame, an in-thread slot hands
/// it over as a value. The attempt *classifies*; the job ledger
/// *decides* (retry vs finalize), so the retry policy lives in one
/// place.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DoneFrame {
    /// Job id.
    pub job: u64,
    /// The lease this run was performed under.
    pub lease: u64,
    /// Outcome hint: `completed`, `expired`, `cancelled`, or `failed`.
    /// The ledger settles an attempt lost with its worker as a
    /// retryable `worker_panic` or `worker_died`; those never cross the
    /// wire.
    pub state: String,
    /// Rails restored from the checkpoint instead of re-routed.
    pub resumed: usize,
    /// Rails complete at the end of the attempt.
    pub rails_complete: usize,
    /// Rails in the job.
    pub rails_total: usize,
    /// Shipped metal area (mm²).
    pub area_mm2: f64,
    /// Linear solves spent.
    pub solves: u64,
    /// Routing wall clock (ms).
    pub run_ms: f64,
    /// First typed error, for non-completed outcomes.
    pub error: Option<String>,
    /// `true` when the failure class is worth re-dispatching.
    pub retryable: bool,
}

impl DoneFrame {
    /// The frame of an attempt that routed nothing: `failed`, not
    /// retryable, no error recorded yet.
    pub(crate) fn unrun(job: u64, lease: u64, rails_total: usize) -> DoneFrame {
        DoneFrame {
            job,
            lease,
            state: "failed".into(),
            rails_total,
            ..DoneFrame::default()
        }
    }
}

/// A frame sent by a worker process.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerFrame {
    /// First frame after startup.
    Hello {
        /// The worker's OS process id.
        pid: u32,
    },
    /// Periodic liveness signal.
    Heartbeat {
        /// Monotone per-worker sequence number.
        seq: u64,
    },
    /// One event of the running attempt, for the job's event stream.
    Event {
        /// Job id.
        job: u64,
        /// Lease id.
        lease: u64,
        /// Event class; never [`EventKind::Terminal`].
        kind: EventKind,
        /// The event's kind-specific members.
        fields: Fields,
    },
    /// A leased job finished.
    Done(DoneFrame),
}

impl WorkerFrame {
    /// Serializes the frame as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut o = Obj::new();
        match self {
            WorkerFrame::Hello { pid } => {
                o.str("type", "hello").u64("pid", u64::from(*pid));
            }
            WorkerFrame::Heartbeat { seq } => {
                o.str("type", "heartbeat").u64("seq", *seq);
            }
            WorkerFrame::Event {
                job,
                lease,
                kind,
                fields,
            } => {
                let mut f = Obj::new();
                for (k, v) in fields {
                    f.value(k, v);
                }
                o.str("type", "event")
                    .u64("job", *job)
                    .u64("lease", *lease)
                    .str("kind", kind.name())
                    .raw("fields", &f.finish());
            }
            WorkerFrame::Done(d) => {
                o.str("type", "done")
                    .u64("job", d.job)
                    .u64("lease", d.lease)
                    .str("state", &d.state)
                    .u64("resumed", d.resumed as u64)
                    .u64("rails_complete", d.rails_complete as u64)
                    .u64("rails_total", d.rails_total as u64)
                    .f64("area_mm2", d.area_mm2)
                    .u64("solves", d.solves)
                    .f64("run_ms", d.run_ms)
                    .bool("retryable", d.retryable);
                if let Some(e) = &d.error {
                    o.str("error", e);
                }
            }
        }
        o.finish()
    }

    /// Parses one frame line.
    ///
    /// # Errors
    ///
    /// A typed [`ProtoError`]; hostile input never panics.
    pub fn parse(line: &str) -> Result<WorkerFrame, ProtoError> {
        let root = parse_frame(line)?;
        let ty = frame_type(&root)?;
        match ty.as_str() {
            "hello" => Ok(WorkerFrame::Hello {
                pid: need_u64(&root, "pid")? as u32,
            }),
            "heartbeat" => Ok(WorkerFrame::Heartbeat {
                seq: need_u64(&root, "seq")?,
            }),
            "event" => Ok(WorkerFrame::Event {
                job: need_u64(&root, "job")?,
                lease: need_u64(&root, "lease")?,
                kind: root
                    .get("kind")
                    .and_then(Json::as_str)
                    .and_then(EventKind::from_name)
                    .filter(|k| *k != EventKind::Terminal)
                    .ok_or(ProtoError::Field("kind"))?,
                fields: root
                    .get("fields")
                    .and_then(Json::as_object)
                    .and_then(|members| members.iter().map(event_field).collect())
                    .ok_or(ProtoError::Field("fields"))?,
            }),
            "done" => Ok(WorkerFrame::Done(DoneFrame {
                job: need_u64(&root, "job")?,
                lease: need_u64(&root, "lease")?,
                state: root
                    .get("state")
                    .and_then(Json::as_str)
                    .ok_or(ProtoError::Field("state"))?
                    .to_owned(),
                resumed: need_u64(&root, "resumed")? as usize,
                rails_complete: need_u64(&root, "rails_complete")? as usize,
                rails_total: need_u64(&root, "rails_total")? as usize,
                area_mm2: root.get("area_mm2").and_then(Json::as_f64).unwrap_or(0.0),
                solves: root.get("solves").and_then(Json::as_u64).unwrap_or(0),
                run_ms: root.get("run_ms").and_then(Json::as_f64).unwrap_or(0.0),
                error: root.get("error").and_then(Json::as_str).map(str::to_owned),
                retryable: matches!(root.get("retryable"), Some(Json::Bool(true))),
            })),
            other => Err(ProtoError::UnknownType(other.to_owned())),
        }
    }
}

/// A frame sent by the coordinator.
#[derive(Debug, Clone, PartialEq)]
pub enum CoordFrame {
    /// Assign one job under a lease.
    Lease {
        /// Job id.
        job: u64,
        /// Lease id — unique per dispatch, so a re-dispatched job's
        /// stale first run is distinguishable from the live one.
        lease: u64,
        /// Dispatch attempt (0-based) — the fault plan's and backoff's
        /// escalation key.
        attempt: usize,
        /// The job spec, embedded.
        spec: JobSpec,
        /// Wall budget remaining at dispatch (ms).
        deadline_ms: Option<f64>,
        /// Supervisor checkpoint path, shared through the coordinator's
        /// data directory: attempt `n+1` on any worker resumes from the
        /// waves attempt `n` finished on whichever worker ran it.
        checkpoint: Option<String>,
    },
    /// Finish the current job (if any), then exit cleanly.
    Drain,
}

impl CoordFrame {
    /// Serializes the frame as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut o = Obj::new();
        match self {
            CoordFrame::Lease {
                job,
                lease,
                attempt,
                spec,
                deadline_ms,
                checkpoint,
            } => {
                o.str("type", "lease")
                    .u64("job", *job)
                    .u64("lease", *lease)
                    .u64("attempt", *attempt as u64)
                    .raw("spec", &spec.to_json());
                if let Some(d) = deadline_ms {
                    o.f64("deadline_ms", *d);
                }
                if let Some(c) = checkpoint {
                    o.str("checkpoint", c);
                }
            }
            CoordFrame::Drain => {
                o.str("type", "drain");
            }
        }
        o.finish()
    }

    /// Parses one frame line.
    ///
    /// # Errors
    ///
    /// A typed [`ProtoError`]; hostile input never panics.
    pub fn parse(line: &str) -> Result<CoordFrame, ProtoError> {
        let root = parse_frame(line)?;
        let ty = frame_type(&root)?;
        match ty.as_str() {
            "lease" => {
                let spec = root
                    .get("spec")
                    .map(JobSpec::from_json)
                    .ok_or(ProtoError::Field("spec"))?
                    .map_err(|e| ProtoError::Json(format!("embedded spec: {e}")))?;
                Ok(CoordFrame::Lease {
                    job: need_u64(&root, "job")?,
                    lease: need_u64(&root, "lease")?,
                    attempt: need_u64(&root, "attempt")? as usize,
                    spec,
                    deadline_ms: root.get("deadline_ms").and_then(Json::as_f64),
                    checkpoint: root
                        .get("checkpoint")
                        .and_then(Json::as_str)
                        .map(str::to_owned),
                })
            }
            "drain" => Ok(CoordFrame::Drain),
            other => Err(ProtoError::UnknownType(other.to_owned())),
        }
    }
}

fn parse_frame(line: &str) -> Result<Json, ProtoError> {
    if line.len() > MAX_FRAME_BYTES {
        return Err(ProtoError::Oversized(line.len()));
    }
    json::parse(line.trim()).map_err(ProtoError::Json)
}

fn frame_type(root: &Json) -> Result<String, ProtoError> {
    root.get("type")
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or(ProtoError::Field("type"))
}

/// An event member as the in-process publish would have rendered it
/// (a `null` is a non-finite float, which renders as `null` again), or
/// `None` for a nested value or a member the bus itself writes.
fn event_field((key, v): &(String, Json)) -> Option<(String, Value)> {
    let value = match v {
        Json::Null => Value::F64(f64::NAN),
        Json::Bool(b) => Value::Bool(*b),
        Json::Int(n) => Value::U64(*n),
        Json::Num(x) => Value::F64(*x),
        Json::Str(s) => Value::Str(s.clone()),
        Json::Arr(_) | Json::Obj(_) => return None,
    };
    let reserved = matches!(key.as_str(), "seq" | "job" | "event");
    (!reserved).then(|| (key.clone(), value))
}

fn need_u64(root: &Json, field: &'static str) -> Result<u64, ProtoError> {
    root.get(field)
        .and_then(Json::as_u64)
        .ok_or(ProtoError::Field(field))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_frames_round_trip() {
        let frames = [
            WorkerFrame::Hello { pid: 4242 },
            WorkerFrame::Heartbeat { seq: 17 },
            WorkerFrame::Event {
                job: 3,
                lease: 9,
                kind: EventKind::Progress,
                fields: vec![
                    ("wave".into(), Value::U64(1)),
                    ("elapsed_ms".into(), Value::F64(12.5)),
                ],
            },
            WorkerFrame::Event {
                job: 3,
                lease: 9,
                kind: EventKind::Stage,
                fields: vec![
                    ("stage".into(), Value::Str("grow".into())),
                    ("elapsed_ms".into(), Value::F64(3.5)),
                    ("complete".into(), Value::Bool(true)),
                ],
            },
            WorkerFrame::Event {
                job: 3,
                lease: 9,
                kind: EventKind::Retry,
                fields: Vec::new(),
            },
            WorkerFrame::Done(DoneFrame {
                job: 3,
                lease: 9,
                state: "completed".into(),
                resumed: 1,
                rails_complete: 2,
                rails_total: 2,
                area_mm2: 38.5,
                solves: 120,
                run_ms: 41.25,
                error: None,
                retryable: false,
            }),
            WorkerFrame::Done(DoneFrame {
                job: 4,
                lease: 11,
                state: "failed".into(),
                resumed: 0,
                rails_complete: 0,
                rails_total: 2,
                area_mm2: 0.0,
                solves: 0,
                run_ms: 1.0,
                error: Some("solver diverged".into()),
                retryable: true,
            }),
        ];
        for f in frames {
            assert_eq!(WorkerFrame::parse(&f.to_json()).expect("roundtrip"), f);
        }
    }

    #[test]
    fn coord_frames_round_trip() {
        let frames = [
            CoordFrame::Lease {
                job: 5,
                lease: 21,
                attempt: 1,
                spec: JobSpec::two_rail(20.0),
                deadline_ms: Some(1500.0),
                checkpoint: Some("/tmp/fleet/ckpt-5".into()),
            },
            CoordFrame::Lease {
                job: 6,
                lease: 22,
                attempt: 0,
                spec: JobSpec::two_rail(22.0),
                deadline_ms: None,
                checkpoint: None,
            },
            CoordFrame::Drain,
        ];
        for f in frames {
            assert_eq!(CoordFrame::parse(&f.to_json()).expect("roundtrip"), f);
        }
    }

    #[test]
    fn hostile_frames_are_typed_rejections() {
        assert!(matches!(
            WorkerFrame::parse("not json"),
            Err(ProtoError::Json(_))
        ));
        assert!(matches!(
            WorkerFrame::parse("{}"),
            Err(ProtoError::Field("type"))
        ));
        assert!(matches!(
            WorkerFrame::parse(r#"{"type":"warp"}"#),
            Err(ProtoError::UnknownType(_))
        ));
        assert!(matches!(
            WorkerFrame::parse(r#"{"type":"heartbeat"}"#),
            Err(ProtoError::Field("seq"))
        ));
        assert!(matches!(
            CoordFrame::parse(r#"{"type":"lease","job":1,"lease":1,"attempt":0}"#),
            Err(ProtoError::Field("spec"))
        ));
        // Event frames: the kind must be a non-terminal one, the fields
        // a flat object that leaves the bus's own members alone, and the
        // frame must name its job and lease.
        for (members, field) in [
            (r#""job":1,"lease":2,"kind":"warp","fields":{}"#, "kind"),
            (r#""job":1,"lease":2,"kind":"terminal","fields":{}"#, "kind"),
            (r#""job":1,"lease":2,"fields":{}"#, "kind"),
            (r#""job":1,"lease":2,"kind":"stage","fields":[1]"#, "fields"),
            (r#""job":1,"lease":2,"kind":"stage","fields":"x""#, "fields"),
            (r#""job":1,"lease":2,"kind":"stage""#, "fields"),
            (
                r#""job":1,"lease":2,"kind":"stage","fields":{"a":{}}"#,
                "fields",
            ),
            (r#""lease":2,"kind":"stage","fields":{}"#, "job"),
            (r#""job":1,"kind":"stage","fields":{}"#, "lease"),
            (r#""job":-1,"lease":2,"kind":"stage","fields":{}"#, "job"),
        ] {
            let frame = format!(r#"{{"type":"event",{members}}}"#);
            assert_eq!(
                WorkerFrame::parse(&frame),
                Err(ProtoError::Field(field)),
                "{frame}"
            );
        }
        let big = format!(
            r#"{{"type":"heartbeat","seq":1,"pad":"{}"}}"#,
            "x".repeat(MAX_FRAME_BYTES)
        );
        assert!(matches!(
            WorkerFrame::parse(&big),
            Err(ProtoError::Oversized(_))
        ));
    }

    #[test]
    fn fingerprint_tracks_the_spec() {
        let a = JobSpec::two_rail(20.0);
        let mut b = JobSpec::two_rail(20.0);
        assert_eq!(spec_fingerprint(&a), spec_fingerprint(&b));
        b.rails[0].budget_mm2 = 21.0;
        assert_ne!(spec_fingerprint(&a), spec_fingerprint(&b));
    }
}
