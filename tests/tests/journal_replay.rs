//! Journal replay idempotence: the on-disk half of the fleet's
//! exactly-once guarantee.
//!
//! The journal is append-only and the writer can die mid-line, write
//! duplicate terminal records (a revived worker double-reporting around
//! a coordinator restart), or interleave records across jobs. Replay
//! must collapse all of that to one verdict per job: **exactly one
//! terminal state, or a pending slot to re-admit — never both, never
//! two.**

use sprout_serve::fleet::{replay_journal, FleetConfig, FleetCoordinator};
use sprout_serve::job::{BoardSpec, JobSpec, JobState};
use sprout_serve::ledger::JOURNAL_FILE;
use sprout_serve::proto::{spec_fingerprint, CoordFrame};
use sprout_telemetry::json::Obj;
use std::path::PathBuf;
use std::time::Duration;

fn admit_line(id: u64, spec: &JobSpec) -> String {
    let mut o = Obj::new();
    o.str("kind", "admit")
        .u64("id", id)
        .u64("fp", spec_fingerprint(spec))
        .raw("spec", &spec.to_json());
    o.finish()
}

fn done_line(id: u64, spec: &JobSpec, state: &str) -> String {
    let mut o = Obj::new();
    o.str("kind", "done")
        .u64("id", id)
        .u64("fp", spec_fingerprint(spec))
        .str("state", state);
    o.finish()
}

#[test]
fn duplicate_terminal_records_collapse_to_the_first() {
    let spec = JobSpec::two_rail(20.0);
    // A slow-then-revived worker reporting after the replacement: the
    // same job ends up with conflicting terminal records. First wins.
    let journal = [
        admit_line(1, &spec),
        done_line(1, &spec, "completed"),
        done_line(1, &spec, "failed"),
        done_line(1, &spec, "completed"),
    ]
    .join("\n");
    let r = replay_journal(&journal);
    assert_eq!(r.pending.len(), 0);
    assert_eq!(r.terminal.len(), 1);
    assert_eq!(
        r.terminal.get(&1).map(|(s, _)| s.as_str()),
        Some("completed"),
        "the first terminal record wins"
    );
    assert_eq!(r.duplicates, 2, "both later records are duplicates");
}

#[test]
fn interleaved_records_stay_per_job_idempotent() {
    let a = JobSpec::two_rail(20.0);
    let b = JobSpec::two_rail(22.0);
    let c = JobSpec::two_rail(24.0);
    // Records land in arrival order, not job order; job 3 never
    // finished and must be the one re-admitted.
    let journal = [
        admit_line(1, &a),
        admit_line(2, &b),
        done_line(2, &b, "completed"),
        admit_line(3, &c),
        done_line(1, &a, "best_so_far"),
        done_line(2, &b, "failed"),
        done_line(1, &a, "best_so_far"),
    ]
    .join("\n");
    let r = replay_journal(&journal);
    assert_eq!(r.terminal.len(), 2);
    assert_eq!(r.duplicates, 2);
    assert_eq!(r.pending.len(), 1);
    assert_eq!(r.pending[0].0, 3, "only the unfinished job is pending");
    assert!(r.next_id > 3);
}

#[test]
fn garbage_and_mismatched_fingerprints_are_ignored() {
    let spec = JobSpec::two_rail(20.0);
    let other = JobSpec::two_rail(99.0);
    let mut tampered = admit_line(2, &spec);
    // An admit whose fingerprint belongs to a different spec: the
    // record is internally inconsistent and must not be trusted.
    tampered = tampered.replace(
        &spec_fingerprint(&spec).to_string(),
        &spec_fingerprint(&other).to_string(),
    );
    let journal = [
        admit_line(1, &spec),
        "not json at all".to_owned(),
        "{\"kind\":\"admit\"}".to_owned(),
        tampered,
        done_line(2, &spec, "completed"),
        "{\"kind\":\"done\",\"id\":1}".to_owned(),
    ]
    .join("\n")
        + "\n{\"kind\":\"admit\",\"id\":9,\"fp\":\"00\",\"spec\":{\"truncated";
    let r = replay_journal(&journal);
    assert_eq!(r.pending.len(), 1, "only the well-formed admit survives");
    assert_eq!(r.pending[0].0, 1);
    assert_eq!(
        r.terminal.len(),
        0,
        "done for a never-admitted job is dropped"
    );
    assert!(r.malformed >= 5);
}

#[test]
fn restarted_coordinator_replays_duplicates_to_one_terminal_state() {
    // End-to-end: hand-write a journal with one finished job (with a
    // conflicting duplicate terminal record) and one unfinished job,
    // then boot a real coordinator on it. It must re-admit and finish
    // only the unfinished job, and append exactly one new done line.
    let mut dir = std::env::temp_dir();
    dir.push(format!("sprout-journal-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create data dir");

    let finished = JobSpec::two_rail(20.0);
    let pending = JobSpec::two_rail(22.0);
    let journal = [
        admit_line(1, &finished),
        admit_line(2, &pending),
        done_line(1, &finished, "completed"),
        done_line(1, &finished, "failed"),
    ]
    .join("\n")
        + "\n";
    std::fs::write(dir.join(JOURNAL_FILE), &journal).expect("write journal");

    let config = FleetConfig {
        workers: 1,
        worker_cmd: Some(PathBuf::from(env!("CARGO_BIN_EXE_fleet_worker"))),
        worker_args: vec!["--router".into(), "fast".into()],
        data_dir: Some(dir.clone()),
        ..FleetConfig::default()
    };
    let fleet = FleetCoordinator::start(config).expect("fleet start");
    let m = fleet.metrics();
    assert_eq!(m.recovered, 1, "only job 2 should be re-admitted");
    assert!(
        m.journal_duplicates >= 1,
        "the conflicting record is counted"
    );
    assert!(
        fleet.wait_idle(Duration::from_secs(120)),
        "job 2 did not settle"
    );
    let snap = fleet.status(2).expect("job 2 known");
    assert!(snap.state.is_terminal());
    assert_eq!(snap.terminal_transitions, 1);
    // The finished job is remembered terminal (its in-memory record is
    // the guard against any late double finalize) — but never re-run.
    let done = fleet.status(1).expect("terminal job stays queryable");
    assert_eq!(done.state, JobState::Completed, "the first record won");
    assert_eq!(done.terminal_transitions, 1);
    fleet.drain(Duration::from_secs(30));
    drop(fleet);

    let text = std::fs::read_to_string(dir.join(JOURNAL_FILE)).expect("journal readable");
    let dones_for_2 = text
        .lines()
        .filter(|l| l.contains("\"kind\":\"done\"") && l.contains("\"id\":2"))
        .count();
    assert_eq!(
        dones_for_2, 1,
        "job 2 must gain exactly one terminal record"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seeds_past_two_to_the_53_round_trip_exactly() {
    // JSON numbers were once all f64, which rounds 2^53 + 1 to 2^53 and
    // silently routes a different random board.
    let mut spec = JobSpec::two_rail(20.0);
    spec.board = BoardSpec::Random {
        seed: (1 << 53) + 1,
        nets: 2,
    };
    assert_eq!(JobSpec::parse(&spec.to_json()).expect("spec parses"), spec);

    let lease = CoordFrame::Lease {
        job: 1,
        lease: 1,
        attempt: 0,
        spec: spec.clone(),
        deadline_ms: None,
        checkpoint: None,
    };
    match CoordFrame::parse(&lease.to_json()).expect("lease parses") {
        CoordFrame::Lease { spec: leased, .. } => assert_eq!(leased, spec),
        other => panic!("expected a lease, got {other:?}"),
    }

    let r = replay_journal(&admit_line(1, &spec));
    assert_eq!(r.malformed, 0, "the fingerprint must survive the journal");
    assert_eq!(r.pending.len(), 1);
    assert_eq!(r.pending[0].1, spec);
}
