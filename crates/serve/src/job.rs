//! Job specifications, states, and snapshots.
//!
//! A [`JobSpec`] is what a client submits: which board, which rails,
//! at what priority and deadline. It round-trips through the
//! workspace's hand-rolled JSON ([`sprout_telemetry::json`]) — the same
//! format is accepted over HTTP, written to the admission journal, and
//! re-parsed during crash recovery. Parsing is hardened: every field is
//! validated with explicit bounds and a typed [`SpecError`]; hostile
//! bodies (wrong types, absurd counts, non-finite numbers) are rejected
//! without panicking.
//!
//! A job moves `Queued → Running → <terminal>` where the terminal
//! states are exactly [`JobState::Completed`], [`JobState::BestSoFar`]
//! (partial result under degradation), or a typed failure
//! ([`Failed`](JobState::Failed) / [`Shed`](JobState::Shed) /
//! [`Expired`](JobState::Expired) / [`Cancelled`](JobState::Cancelled)).
//! The service enforces that every accepted job reaches exactly one
//! terminal state — the chaos suite asserts it under injected faults.

use sprout_board::presets::{self, RandomBoardConfig};
use sprout_board::Board;
use sprout_core::supervisor::RailRequest;
use sprout_telemetry::json::{self, Json, Obj};
use std::fmt;

/// Admission priority. Under queue saturation, lower priorities are
/// shed first; within a priority the queue is FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Shed first under overload.
    Low,
    /// The default.
    #[default]
    Normal,
    /// Sheds `Low`/`Normal` work when the queue is full.
    High,
}

impl Priority {
    /// Parses the wire name (`low` / `normal` / `high`).
    pub fn parse(s: &str) -> Option<Priority> {
        match s {
            "low" => Some(Priority::Low),
            "normal" => Some(Priority::Normal),
            "high" => Some(Priority::High),
            _ => None,
        }
    }

    /// The wire name.
    pub fn name(&self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }
}

/// Which board a job routes on. Boards are referenced, not embedded:
/// the job journal and the wire format stay small, and a recovered job
/// reconstructs a bit-identical board from the reference.
#[derive(Debug, Clone, PartialEq)]
pub enum BoardSpec {
    /// A named preset: `two_rail`, `three_rail`, or `six_rail`.
    Preset(String),
    /// A seeded random board ([`presets::random_board`]).
    Random {
        /// Generator seed.
        seed: u64,
        /// Number of power nets.
        nets: usize,
    },
}

/// One rail request of a job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RailSpec {
    /// Index into the board's power-net order.
    pub net: usize,
    /// Routing layer (stackup index).
    pub layer: usize,
    /// Metal area budget (mm²).
    pub budget_mm2: f64,
}

/// A routing job submission.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Board reference.
    pub board: BoardSpec,
    /// Rails to route, in request order.
    pub rails: Vec<RailSpec>,
    /// Admission priority.
    pub priority: Priority,
    /// Wall-clock deadline for the whole job (ms), measured from
    /// admission; `None` uses the service default.
    pub deadline_ms: Option<f64>,
    /// Tile pitch override (mm); `None` uses the service default.
    pub tile_pitch_mm: Option<f64>,
    /// Free-form client label, echoed in status responses.
    pub tag: String,
}

/// Hard caps on spec fields — the admission-side input hardening.
pub const MAX_RAILS_PER_JOB: usize = 256;
const MAX_TAG_BYTES: usize = 256;
const MAX_LAYER: usize = 64;
const MAX_RANDOM_NETS: usize = 16;
const PITCH_RANGE_MM: (f64, f64) = (0.05, 5.0);

/// A typed job-spec rejection. Every variant maps to HTTP 400.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The body is not valid JSON.
    Json(String),
    /// A required field is missing or has the wrong type.
    Field(&'static str),
    /// A field is outside its accepted range.
    Range(&'static str, String),
    /// The board preset name is not known.
    UnknownPreset(String),
    /// A rail's net index exceeds the board's power-net count.
    UnknownNet {
        /// Requested index.
        index: usize,
        /// Power nets on the board.
        nets: usize,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "invalid JSON: {e}"),
            SpecError::Field(what) => write!(f, "missing or mistyped field `{what}`"),
            SpecError::Range(what, detail) => write!(f, "field `{what}` out of range: {detail}"),
            SpecError::UnknownPreset(p) => write!(
                f,
                "unknown board preset `{p}` (expected two_rail, three_rail, six_rail, or random)"
            ),
            SpecError::UnknownNet { index, nets } => {
                write!(
                    f,
                    "rail net index {index} out of range (board has {nets} power nets)"
                )
            }
        }
    }
}

impl std::error::Error for SpecError {}

impl JobSpec {
    /// A two-rail job at the given budget — the smoke-test staple.
    pub fn two_rail(budget_mm2: f64) -> JobSpec {
        JobSpec {
            board: BoardSpec::Preset("two_rail".into()),
            rails: vec![
                RailSpec {
                    net: 0,
                    layer: presets::TWO_RAIL_ROUTE_LAYER,
                    budget_mm2,
                },
                RailSpec {
                    net: 1,
                    layer: presets::TWO_RAIL_ROUTE_LAYER,
                    budget_mm2,
                },
            ],
            priority: Priority::Normal,
            deadline_ms: None,
            tile_pitch_mm: None,
            tag: String::new(),
        }
    }

    /// Serializes the spec as one JSON line (the wire/journal format).
    pub fn to_json(&self) -> String {
        let mut o = Obj::new();
        let mut b = Obj::new();
        match &self.board {
            BoardSpec::Preset(name) => {
                b.str("preset", name);
            }
            BoardSpec::Random { seed, nets } => {
                b.str("preset", "random")
                    .u64("seed", *seed)
                    .u64("nets", *nets as u64);
            }
        }
        o.raw("board", &b.finish());
        let rails = json::array(self.rails.iter().map(|r| {
            let mut ro = Obj::new();
            ro.u64("net", r.net as u64)
                .u64("layer", r.layer as u64)
                .f64("budget_mm2", r.budget_mm2);
            ro.finish()
        }));
        o.raw("rails", &rails);
        o.str("priority", self.priority.name());
        if let Some(d) = self.deadline_ms {
            o.f64("deadline_ms", d);
        }
        if let Some(p) = self.tile_pitch_mm {
            o.f64("tile_pitch_mm", p);
        }
        if !self.tag.is_empty() {
            o.str("tag", &self.tag);
        }
        o.finish()
    }

    /// Parses and validates a submission body.
    ///
    /// # Errors
    ///
    /// A typed [`SpecError`] naming the offending construct. Never
    /// panics, whatever the input.
    pub fn parse(text: &str) -> Result<JobSpec, SpecError> {
        JobSpec::from_json(&json::parse(text.trim()).map_err(SpecError::Json)?)
    }

    /// Validates an already-parsed spec object: the form a spec takes
    /// inside journal lines and lease frames.
    ///
    /// # Errors
    ///
    /// As [`JobSpec::parse`].
    pub fn from_json(root: &Json) -> Result<JobSpec, SpecError> {
        let board_obj = root.get("board").ok_or(SpecError::Field("board"))?;
        let preset = board_obj
            .get("preset")
            .and_then(Json::as_str)
            .ok_or(SpecError::Field("board.preset"))?;
        let board = match preset {
            "two_rail" | "three_rail" | "six_rail" => BoardSpec::Preset(preset.to_owned()),
            "random" => {
                let seed = board_obj
                    .get("seed")
                    .and_then(Json::as_u64)
                    .ok_or(SpecError::Field("board.seed"))?;
                let nets = board_obj.get("nets").and_then(Json::as_u64).unwrap_or(2) as usize;
                if nets == 0 || nets > MAX_RANDOM_NETS {
                    return Err(SpecError::Range(
                        "board.nets",
                        format!("{nets} not in 1..={MAX_RANDOM_NETS}"),
                    ));
                }
                BoardSpec::Random { seed, nets }
            }
            other => return Err(SpecError::UnknownPreset(other.to_owned())),
        };

        let rails_json = root
            .get("rails")
            .and_then(Json::as_array)
            .ok_or(SpecError::Field("rails"))?;
        if rails_json.is_empty() {
            return Err(SpecError::Range("rails", "empty rail list".into()));
        }
        if rails_json.len() > MAX_RAILS_PER_JOB {
            return Err(SpecError::Range(
                "rails",
                format!(
                    "{} rails exceeds the cap of {MAX_RAILS_PER_JOB}",
                    rails_json.len()
                ),
            ));
        }
        let mut rails = Vec::with_capacity(rails_json.len());
        for r in rails_json {
            let net = r
                .get("net")
                .and_then(Json::as_u64)
                .ok_or(SpecError::Field("rails[].net"))? as usize;
            let layer = r
                .get("layer")
                .and_then(Json::as_u64)
                .ok_or(SpecError::Field("rails[].layer"))? as usize;
            if layer > MAX_LAYER {
                return Err(SpecError::Range(
                    "rails[].layer",
                    format!("{layer} exceeds {MAX_LAYER}"),
                ));
            }
            let budget_mm2 = r
                .get("budget_mm2")
                .and_then(Json::as_f64)
                .ok_or(SpecError::Field("rails[].budget_mm2"))?;
            if !budget_mm2.is_finite() || budget_mm2 <= 0.0 {
                return Err(SpecError::Range(
                    "rails[].budget_mm2",
                    format!("{budget_mm2} is not a positive finite area"),
                ));
            }
            rails.push(RailSpec {
                net,
                layer,
                budget_mm2,
            });
        }

        let priority = match root.get("priority").and_then(Json::as_str) {
            None => Priority::Normal,
            Some(p) => Priority::parse(p).ok_or(SpecError::Field("priority"))?,
        };
        let deadline_ms = match root.get("deadline_ms") {
            None => None,
            Some(v) => {
                let d = v.as_f64().ok_or(SpecError::Field("deadline_ms"))?;
                if !d.is_finite() || d <= 0.0 {
                    return Err(SpecError::Range(
                        "deadline_ms",
                        format!("{d} is not a positive finite duration"),
                    ));
                }
                Some(d)
            }
        };
        let tile_pitch_mm = match root.get("tile_pitch_mm") {
            None => None,
            Some(v) => {
                let p = v.as_f64().ok_or(SpecError::Field("tile_pitch_mm"))?;
                if !(PITCH_RANGE_MM.0..=PITCH_RANGE_MM.1).contains(&p) {
                    return Err(SpecError::Range(
                        "tile_pitch_mm",
                        format!("{p} not in {}..={} mm", PITCH_RANGE_MM.0, PITCH_RANGE_MM.1),
                    ));
                }
                Some(p)
            }
        };
        let tag = root
            .get("tag")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_owned();
        if tag.len() > MAX_TAG_BYTES {
            return Err(SpecError::Range(
                "tag",
                format!("{} bytes exceeds {MAX_TAG_BYTES}", tag.len()),
            ));
        }

        Ok(JobSpec {
            board,
            rails,
            priority,
            deadline_ms,
            tile_pitch_mm,
            tag,
        })
    }

    /// Materializes the referenced board. Deterministic: the same spec
    /// always reconstructs the same board (the crash-recovery and
    /// checkpoint-fingerprint guarantee).
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownPreset`] for unresolvable references.
    pub fn resolve_board(&self) -> Result<Board, SpecError> {
        match &self.board {
            BoardSpec::Preset(name) => match name.as_str() {
                "two_rail" => Ok(presets::two_rail()),
                "three_rail" => Ok(presets::three_rail()),
                "six_rail" => Ok(presets::six_rail()),
                other => Err(SpecError::UnknownPreset(other.to_owned())),
            },
            BoardSpec::Random { seed, nets } => Ok(presets::random_board(
                *seed,
                RandomBoardConfig {
                    nets: *nets,
                    ..RandomBoardConfig::default()
                },
            )),
        }
    }

    /// Resolves the rail list against `board` into supervisor requests.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownNet`] when a net index is out of range.
    pub fn requests(&self, board: &Board) -> Result<Vec<RailRequest>, SpecError> {
        let nets: Vec<_> = board.power_nets().map(|(id, _)| id).collect();
        let mut out = Vec::with_capacity(self.rails.len());
        for r in &self.rails {
            let net = *nets.get(r.net).ok_or(SpecError::UnknownNet {
                index: r.net,
                nets: nets.len(),
            })?;
            out.push((net, r.layer, r.budget_mm2));
        }
        Ok(out)
    }
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting in the queue (possibly for a retry slot).
    Queued,
    /// A worker is routing it.
    Running,
    /// Terminal: every rail completed (routed or restored).
    Completed,
    /// Terminal: a partial result shipped — some rails completed, the
    /// rest carry typed errors (graceful degradation under overload,
    /// deadline pressure, or persistent faults).
    BestSoFar,
    /// Terminal: no rail completed; the record carries the typed error.
    Failed,
    /// Terminal: evicted from a full queue by a higher-priority job.
    Shed,
    /// Terminal: the deadline expired before the job could finish.
    Expired,
    /// Terminal: cancelled by the client or a non-draining shutdown.
    Cancelled,
}

impl JobState {
    /// `true` for the six terminal states.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }

    /// The wire name.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::BestSoFar => "best_so_far",
            JobState::Failed => "failed",
            JobState::Shed => "shed",
            JobState::Expired => "expired",
            JobState::Cancelled => "cancelled",
        }
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A point-in-time public view of one job.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// Job id.
    pub id: u64,
    /// Client tag.
    pub tag: String,
    /// Current state.
    pub state: JobState,
    /// Admission priority.
    pub priority: Priority,
    /// Service-level attempts so far.
    pub attempts: usize,
    /// Rails requested.
    pub rails_total: usize,
    /// Rails complete (routed or checkpoint-restored).
    pub rails_complete: usize,
    /// Rails restored from a checkpoint instead of re-routed.
    pub resumed: usize,
    /// `true` when the job was re-admitted by crash recovery.
    pub recovered: bool,
    /// `true` when an injected mid-job kill crashed this job's worker
    /// (the job stays non-terminal until a restarted service recovers
    /// it).
    pub killed: bool,
    /// Time spent queued (ms).
    pub queue_ms: f64,
    /// Routing wall-clock of the last attempt (ms).
    pub run_ms: f64,
    /// Linear solves across all completed rails.
    pub solves: u64,
    /// Total shipped metal area (mm²).
    pub area_mm2: f64,
    /// The typed error, for failed/shed/expired/cancelled jobs.
    pub error: Option<String>,
    /// Terminal transitions recorded — the never-more-than-once
    /// invariant the chaos suite asserts.
    pub terminal_transitions: usize,
}

impl JobSnapshot {
    /// One JSON line for HTTP status responses.
    pub fn to_json(&self) -> String {
        let mut o = Obj::new();
        o.u64("id", self.id)
            .str("state", self.state.name())
            .str("priority", self.priority.name())
            .u64("attempts", self.attempts as u64)
            .u64("rails_total", self.rails_total as u64)
            .u64("rails_complete", self.rails_complete as u64)
            .u64("resumed", self.resumed as u64)
            .bool("recovered", self.recovered)
            .f64("queue_ms", self.queue_ms)
            .f64("run_ms", self.run_ms)
            .u64("solves", self.solves)
            .f64("area_mm2", self.area_mm2)
            .u64("terminal_transitions", self.terminal_transitions as u64);
        if !self.tag.is_empty() {
            o.str("tag", &self.tag);
        }
        if let Some(e) = &self.error {
            o.str("error", e);
        }
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_json() {
        let mut spec = JobSpec::two_rail(20.0);
        spec.priority = Priority::High;
        spec.deadline_ms = Some(1500.0);
        spec.tile_pitch_mm = Some(0.5);
        spec.tag = "roundtrip".into();
        let parsed = JobSpec::parse(&spec.to_json()).expect("roundtrip");
        assert_eq!(parsed, spec);
    }

    #[test]
    fn hostile_specs_are_rejected_with_typed_errors() {
        assert!(matches!(
            JobSpec::parse("not json"),
            Err(SpecError::Json(_))
        ));
        assert!(matches!(
            JobSpec::parse("{}"),
            Err(SpecError::Field("board"))
        ));
        assert!(matches!(
            JobSpec::parse(r#"{"board":{"preset":"nope"},"rails":[]}"#),
            Err(SpecError::UnknownPreset(_))
        ));
        assert!(matches!(
            JobSpec::parse(r#"{"board":{"preset":"two_rail"},"rails":[]}"#),
            Err(SpecError::Range("rails", _))
        ));
        assert!(matches!(
            JobSpec::parse(
                r#"{"board":{"preset":"two_rail"},"rails":[{"net":0,"layer":6,"budget_mm2":-3}]}"#
            ),
            Err(SpecError::Range("rails[].budget_mm2", _))
        ));
        assert!(matches!(
            JobSpec::parse(
                r#"{"board":{"preset":"two_rail"},"rails":[{"net":0,"layer":6,"budget_mm2":20}],"deadline_ms":0}"#
            ),
            Err(SpecError::Range("deadline_ms", _))
        ));
    }

    #[test]
    fn net_index_is_validated_against_the_board() {
        let mut spec = JobSpec::two_rail(20.0);
        spec.rails[1].net = 99;
        let board = spec.resolve_board().unwrap();
        assert!(matches!(
            spec.requests(&board),
            Err(SpecError::UnknownNet { index: 99, nets: 2 })
        ));
    }

    #[test]
    fn terminal_states_are_exactly_the_six() {
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        for s in [
            JobState::Completed,
            JobState::BestSoFar,
            JobState::Failed,
            JobState::Shed,
            JobState::Expired,
            JobState::Cancelled,
        ] {
            assert!(s.is_terminal());
        }
    }
}
