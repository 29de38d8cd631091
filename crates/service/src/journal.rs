//! The write-ahead job journal behind a durable [`Service`]: every
//! accepted request is appended — checksummed and fsynced — *before*
//! `submit` returns its `JobId`, and every terminal response is
//! appended when the job resolves, so a crash at any instant loses no
//! accepted job, and restart can tell exactly which jobs still owe an
//! answer.
//!
//! ## On-disk format
//!
//! One file, `journal.log`, of length-prefixed binary frames:
//!
//! ```text
//! [u32 LE payload-len][u64 LE fnv1a(payload)][payload bytes]
//! ```
//!
//! The first frame's payload is the header line `sadpd-journal v1`;
//! every later payload is one JSON record in the service's own wire
//! grammar ([`sadp_trace::json::parse`]):
//!
//! * `{"rec":"accept","job":N,"run_id":"<hex16>","request":{…}}` —
//!   the canonical wire text of the request
//!   ([`crate::wire::encode_request`]), written before `submit`
//!   returns.
//! * `{"rec":"complete","job":N,"run_id":"<hex16>","outcome":…}` —
//!   the deterministic fields of the terminal response (summary for
//!   `completed`, kind + error for `failed`, nothing extra for
//!   `cancelled`). The observability report is *not* journaled;
//!   replayed responses carry a stub report tagged `journal_replay`.
//! * `{"rec":"highwater","next":N}` — written by compaction so job-id
//!   numbering survives even after retired records are dropped.
//!
//! ## Recovery semantics
//!
//! [`Journal::open`] scans the log front to back. A torn or
//! checksum-bad frame at the tail (the signature of a crash mid-write)
//! is truncated away and scanning stops — everything before it is
//! intact by construction, because each append is fsynced before the
//! caller proceeds. A bad *header* (wrong version line, or a first
//! frame that is not the header) and semantically impossible records
//! (duplicate completion, completion without an accept) are refused
//! with a typed [`RouteError::Durability`] instead: they mean the file
//! is not what we wrote, and guessing would risk replaying the wrong
//! work.
//!
//! ## Compaction
//!
//! Once enough completions have retired (`compact_after`, and at least
//! as many as remain live), the journal is rewritten to a temp file —
//! header, highwater, then the live accepts in id order — and renamed
//! into place. Retired jobs' responses are no longer replayable after
//! a compaction; the in-memory service still has them, and the
//! highwater record keeps every historical `JobId` reserved.
//!
//! ## Fault injection
//!
//! Appends honor the `io.torn_write` and `io.fsync_fail` failpoints
//! and scans honor `io.short_read` (see the `faultinject` crate's
//! failpoint table), which the crash-recovery chaos suite uses to
//! exercise every torn/failed-write path deterministically. A torn
//! write *freezes* the journal — every later append fails — modeling
//! a process that died mid-record.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use sadp_grid::RouteError;
use sadp_router::Termination;
use sadp_trace::json::{self, Value};
use sadp_trace::{fnv1a, JsonReport, RouteObserver};

use crate::job::{JobId, JobOutcome, RouteRequest, RouteResponse, RouteSummary};
use crate::wire;

/// The header payload of the first journal frame; the `v1` suffix is
/// the format version and a mismatch is refused at open.
pub const JOURNAL_HEADER: &str = "sadpd-journal v1";

/// Hard cap on one record's payload; a length prefix beyond it is
/// treated as corruption, not an allocation request.
const MAX_RECORD: usize = 64 << 20;

/// Default completion count that triggers a compacting rewrite.
const DEFAULT_COMPACT_AFTER: usize = 32;

fn durability(reason: impl Into<String>) -> RouteError {
    RouteError::Durability {
        what: "journal".into(),
        reason: reason.into(),
    }
}

/// Where a durable [`Service`](crate::Service) persists, and how often
/// running sessions snapshot.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding `journal.log` and per-job `ckpt-N.txt`
    /// session snapshots (created if missing).
    pub dir: PathBuf,
    /// Write a session checkpoint every N budget-slice boundaries
    /// (`0` disables checkpoints; the journal alone still guarantees
    /// recovery, just from a cold start).
    pub checkpoint_every: usize,
}

impl DurabilityConfig {
    /// Durability under `dir` with a checkpoint at every slice
    /// boundary (slices grow geometrically, so that is O(log cap)
    /// snapshots per job).
    pub fn new(dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            dir: dir.into(),
            checkpoint_every: 1,
        }
    }
}

/// One job reconstructed by a journal scan: its id, the decoded
/// request, and — when a completion record survived — the replayable
/// terminal response.
#[derive(Debug)]
pub struct RecoveredJob {
    /// The id the job had (and keeps) in the service.
    pub id: JobId,
    /// The request, decoded from the journaled canonical wire text.
    pub request: RouteRequest,
    /// The terminal response, for jobs that completed before the
    /// crash; `None` means the job must run (again).
    pub response: Option<RouteResponse>,
}

/// The append side of the write-ahead log. Owned by the durable
/// service behind a mutex; also usable directly (tests, benches,
/// tooling) to build or inspect journal state.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    /// Live accepts (no completion yet), by job id — the set a
    /// compaction preserves.
    pending: BTreeMap<u64, RouteRequest>,
    /// Completions appended since the last compaction.
    retired: usize,
    /// 1 + the highest job id ever journaled (monotone, survives
    /// compaction via the highwater record).
    next_id: u64,
    /// Completion count that triggers compaction (see module docs).
    compact_after: usize,
    /// Set by a torn write: the process "died" mid-record and every
    /// later append must fail.
    frozen: bool,
}

impl Journal {
    /// Opens (or creates) the journal under `dir`, scanning any
    /// existing log. Returns the journal, the recovered jobs in id
    /// order, and whether a torn tail was truncated away.
    ///
    /// # Errors
    ///
    /// [`RouteError::Durability`] for an unreadable directory, a
    /// header/version mismatch, or a semantically corrupt record
    /// (duplicate completion, completion without an accept, request
    /// text that no longer decodes).
    pub fn open(dir: &Path) -> Result<(Journal, Vec<RecoveredJob>, bool), RouteError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| durability(format!("create {}: {e}", dir.display())))?;
        let path = dir.join("journal.log");
        let mut scan = Scan::default();
        let mut truncated = false;
        let fresh = !path.exists();
        if !fresh {
            let bytes = std::fs::read(&path)
                .map_err(|e| durability(format!("read {}: {e}", path.display())))?;
            // A short read hands the scanner a prefix of the real
            // file; recovery must still be graceful, but the physical
            // truncate below is skipped (the torn point is a read
            // artifact, not the end of the file).
            let full_read = !faultinject::should_fail("io.short_read");
            let seen = if full_read {
                bytes.len()
            } else {
                bytes.len() / 2
            };
            let bytes = &bytes[..seen];
            let mut pos = 0usize;
            let mut good = 0usize;
            while pos < bytes.len() {
                let Some(payload) = next_frame(bytes, &mut pos) else {
                    truncated = true;
                    break;
                };
                scan.apply(payload)?;
                good = pos;
            }
            if !scan.saw_header && good > 0 {
                // Unreachable with well-formed frames (apply errors
                // first), but keep the invariant explicit.
                return Err(durability("journal has no valid header record"));
            }
            if truncated && good == 0 {
                // The header frame itself is torn: the file never
                // held a durable record of ours. Refuse rather than
                // silently reinitialize over foreign bytes.
                return Err(durability("journal header record is torn or corrupt"));
            }
            if truncated && full_read {
                let f = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| durability(format!("open for truncate: {e}")))?;
                f.set_len(good as u64)
                    .map_err(|e| durability(format!("truncate torn tail: {e}")))?;
                f.sync_data()
                    .map_err(|e| durability(format!("fsync after truncate: {e}")))?;
            }
        }
        let file = OpenOptions::new()
            .append(true)
            .create(true)
            .open(&path)
            .map_err(|e| durability(format!("open {}: {e}", path.display())))?;
        let mut journal = Journal {
            file,
            path,
            pending: BTreeMap::new(),
            retired: 0,
            next_id: scan.next_id.max(1),
            compact_after: DEFAULT_COMPACT_AFTER,
            frozen: false,
        };
        if fresh || !scan.saw_header {
            journal.append(JOURNAL_HEADER)?;
        }
        let mut recovered = Vec::with_capacity(scan.jobs.len());
        for (id, (request, response)) in scan.jobs {
            if response.is_none() {
                journal.pending.insert(id, request.clone());
            } else {
                journal.retired += 1;
            }
            recovered.push(RecoveredJob {
                id: JobId(id),
                request,
                response,
            });
        }
        Ok((journal, recovered, truncated))
    }

    /// Appends the accept record for `id` and fsyncs. Called before
    /// `submit` returns, under the scheduler lock, so journal order
    /// is id order.
    ///
    /// # Errors
    ///
    /// [`RouteError::Durability`] when the record could not be made
    /// durable (the caller must roll the job back).
    pub fn append_accept(&mut self, id: JobId, request: &RouteRequest) -> Result<(), RouteError> {
        if self.pending.contains_key(&id.0) {
            return Err(durability(format!("duplicate accept for {id}")));
        }
        let payload = encode_accept(id, request);
        self.append(&payload)?;
        self.next_id = self.next_id.max(id.0 + 1);
        self.pending.insert(id.0, request.clone());
        Ok(())
    }

    /// Appends the completion record for a terminal response and
    /// fsyncs; compacts when enough records have retired.
    ///
    /// # Errors
    ///
    /// [`RouteError::Durability`] on a failed write — the job outcome
    /// is still correct in memory, and a crash before a retry simply
    /// re-runs the (deterministic) job.
    pub fn append_complete(&mut self, resp: &RouteResponse) -> Result<(), RouteError> {
        if !self.pending.contains_key(&resp.job.0) {
            return Err(durability(format!(
                "completion for {} without a pending accept",
                resp.job
            )));
        }
        let payload = encode_complete(resp);
        self.append(&payload)?;
        self.pending.remove(&resp.job.0);
        self.retired += 1;
        if self.retired >= self.compact_after && self.retired >= self.pending.len() {
            self.compact()?;
        }
        Ok(())
    }

    /// Rewrites the log to just the header, the id highwater, and the
    /// live accepts (atomic tmp + rename).
    ///
    /// # Errors
    ///
    /// [`RouteError::Durability`] on I/O failure; the original log is
    /// untouched in that case and a later completion retries.
    pub fn compact(&mut self) -> Result<(), RouteError> {
        let tmp = self.path.with_extension("tmp");
        let mut frames = Vec::new();
        push_frame(&mut frames, JOURNAL_HEADER);
        push_frame(
            &mut frames,
            &format!(r#"{{"rec":"highwater","next":{}}}"#, self.next_id),
        );
        for (id, request) in &self.pending {
            push_frame(&mut frames, &encode_accept(JobId(*id), request));
        }
        let write = |path: &Path| -> std::io::Result<()> {
            let mut f = File::create(path)?;
            f.write_all(&frames)?;
            f.sync_data()
        };
        write(&tmp).map_err(|e| durability(format!("compact write: {e}")))?;
        std::fs::rename(&tmp, &self.path)
            .map_err(|e| durability(format!("compact rename: {e}")))?;
        if let Some(parent) = self.path.parent() {
            // Make the rename itself durable (best effort; not all
            // filesystems support directory fsync).
            if let Ok(d) = File::open(parent) {
                let _ = d.sync_all();
            }
        }
        self.file = OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| durability(format!("reopen after compact: {e}")))?;
        self.retired = 0;
        Ok(())
    }

    /// Accept records without a completion — the jobs a restart must
    /// re-enqueue.
    pub fn live_records(&self) -> usize {
        self.pending.len()
    }

    /// 1 + the highest job id ever journaled.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Lowers the compaction trigger (tests and benches).
    pub fn set_compact_after(&mut self, n: usize) {
        self.compact_after = n.max(1);
    }

    /// `true` after a torn write killed this journal handle.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// One durable append: frame, write, fsync — with the io
    /// failpoints applied and rollback on a failed fsync.
    fn append(&mut self, payload: &str) -> Result<(), RouteError> {
        if self.frozen {
            return Err(durability("journal is frozen after a torn write"));
        }
        if payload.len() > MAX_RECORD {
            return Err(durability(format!(
                "record of {} bytes exceeds the {MAX_RECORD}-byte cap",
                payload.len()
            )));
        }
        let start = self
            .file
            .seek(SeekFrom::End(0))
            .map_err(|e| durability(format!("seek: {e}")))?;
        let mut frame = Vec::with_capacity(12 + payload.len());
        push_frame(&mut frame, payload);
        if faultinject::should_fail("io.torn_write") {
            // Die mid-record: half the frame reaches the disk, the
            // rest never will, and this handle is dead.
            let _ = self.file.write_all(&frame[..frame.len() / 2]);
            let _ = self.file.sync_data();
            self.frozen = true;
            return Err(durability("torn write (failpoint io.torn_write)"));
        }
        if let Err(e) = self.file.write_all(&frame) {
            let _ = self.file.set_len(start);
            return Err(durability(format!("append: {e}")));
        }
        if faultinject::should_fail("io.fsync_fail") {
            let _ = self.file.set_len(start);
            return Err(durability("fsync failed (failpoint io.fsync_fail)"));
        }
        if let Err(e) = self.file.sync_data() {
            let _ = self.file.set_len(start);
            return Err(durability(format!("fsync: {e}")));
        }
        Ok(())
    }
}

/// Frames `payload` into `out` (length prefix + checksum + bytes).
/// Public so tests can craft journals byte-for-byte.
pub fn frame(payload: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + payload.len());
    push_frame(&mut out, payload);
    out
}

fn push_frame(out: &mut Vec<u8>, payload: &str) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload.as_bytes()).to_le_bytes());
    out.extend_from_slice(payload.as_bytes());
}

/// Reads one frame; `None` means torn/corrupt (short length field,
/// absurd length, payload past EOF, checksum mismatch, or non-UTF-8).
fn next_frame<'b>(bytes: &'b [u8], pos: &mut usize) -> Option<&'b str> {
    let rest = &bytes[*pos..];
    let len_bytes: [u8; 4] = rest.get(0..4)?.try_into().ok()?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_RECORD {
        return None;
    }
    let sum_bytes: [u8; 8] = rest.get(4..12)?.try_into().ok()?;
    let sum = u64::from_le_bytes(sum_bytes);
    let payload = rest.get(12..12 + len)?;
    if fnv1a(payload) != sum {
        return None;
    }
    let text = std::str::from_utf8(payload).ok()?;
    *pos += 12 + len;
    Some(text)
}

/// Accumulates the scan state of [`Journal::open`].
#[derive(Default)]
struct Scan {
    saw_header: bool,
    jobs: BTreeMap<u64, (RouteRequest, Option<RouteResponse>)>,
    next_id: u64,
}

impl Scan {
    fn apply(&mut self, payload: &str) -> Result<(), RouteError> {
        if !self.saw_header {
            if payload == JOURNAL_HEADER {
                self.saw_header = true;
                self.next_id = self.next_id.max(1);
                return Ok(());
            }
            if payload.starts_with("sadpd-journal ") {
                return Err(durability(format!(
                    "version mismatch: journal is {payload:?}, this build reads {JOURNAL_HEADER:?}"
                )));
            }
            return Err(durability("not a job journal (bad header record)"));
        }
        let v = json::parse(payload)
            .map_err(|e| durability(format!("unparsable journal record: {e}")))?;
        match v.get("rec").and_then(Value::as_str) {
            Some("accept") => {
                let (id, run_id) = record_identity(&v)?;
                let request = v
                    .get("request")
                    .ok_or_else(|| durability("accept record missing request"))
                    .and_then(|r| {
                        wire::decode_request(r)
                            .map_err(|e| durability(format!("accept record request: {e}")))
                    })?;
                if request.run_id() != run_id {
                    return Err(durability(format!(
                        "accept record for job {id} has run_id {run_id:016x} \
                         but its request hashes to {:016x}",
                        request.run_id()
                    )));
                }
                if self.jobs.insert(id, (request, None)).is_some() {
                    return Err(durability(format!("duplicate accept record for job {id}")));
                }
                self.next_id = self.next_id.max(id + 1);
            }
            Some("complete") => {
                let (id, run_id) = record_identity(&v)?;
                let Some(entry) = self.jobs.get_mut(&id) else {
                    return Err(durability(format!(
                        "completion record for job {id} without an accept"
                    )));
                };
                if entry.1.is_some() {
                    return Err(durability(format!(
                        "duplicate completion record for job {id}"
                    )));
                }
                let (outcome, dropped_events) = decode_outcome(&v, run_id)?;
                entry.1 = Some(RouteResponse {
                    job: JobId(id),
                    run_id,
                    outcome,
                    dropped_events,
                });
            }
            Some("highwater") => {
                let next = v
                    .get("next")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| durability("highwater record missing next"))?;
                self.next_id = self.next_id.max(next);
            }
            other => {
                return Err(durability(format!("unknown journal record type {other:?}")));
            }
        }
        Ok(())
    }
}

/// The `job` + `run_id` pair every accept/complete record carries.
fn record_identity(v: &Value) -> Result<(u64, u64), RouteError> {
    let id = v
        .get("job")
        .and_then(Value::as_u64)
        .filter(|&id| id >= 1)
        .ok_or_else(|| durability("record missing job id"))?;
    let run_id = v
        .get("run_id")
        .and_then(Value::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| durability(format!("record for job {id} missing run_id")))?;
    Ok((id, run_id))
}

fn encode_accept(id: JobId, request: &RouteRequest) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(
        out,
        r#"{{"rec":"accept","job":{},"run_id":"{:016x}","request":"#,
        id.0,
        request.run_id()
    );
    wire::encode_request(&mut out, request);
    out.push('}');
    out
}

fn encode_complete(resp: &RouteResponse) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(
        out,
        r#"{{"rec":"complete","job":{},"run_id":"{:016x}","outcome":"{}""#,
        resp.job.0,
        resp.run_id,
        resp.outcome.name()
    );
    wire::encode_outcome(&mut out, &resp.outcome);
    let _ = write!(out, r#","dropped_events":{}}}"#, resp.dropped_events);
    out
}

fn decode_outcome(v: &Value, run_id: u64) -> Result<(JobOutcome, usize), RouteError> {
    let dropped = v.get("dropped_events").and_then(Value::as_u64).unwrap_or(0) as usize;
    let outcome = match v.get("outcome").and_then(Value::as_str) {
        Some("cancelled") => JobOutcome::Cancelled,
        Some("failed") => JobOutcome::Failed {
            kind: v
                .get("kind")
                .and_then(Value::as_str)
                .unwrap_or("unknown")
                .into(),
            error: v
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .into(),
        },
        Some("completed") => {
            let field_u64 = |name: &str| {
                v.get(name)
                    .and_then(Value::as_u64)
                    .ok_or_else(|| durability(format!("completion record missing {name}")))
            };
            let field_bool = |name: &str| {
                v.get(name)
                    .and_then(Value::as_bool)
                    .ok_or_else(|| durability(format!("completion record missing {name}")))
            };
            let fingerprint = v
                .get("fingerprint")
                .and_then(Value::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| durability("completion record missing fingerprint"))?;
            let termination = v
                .get("termination")
                .and_then(Value::as_str)
                .and_then(Termination::parse)
                .ok_or_else(|| durability("completion record missing termination"))?;
            let summary = RouteSummary {
                routed_all: field_bool("routed_all")?,
                congestion_free: field_bool("congestion_free")?,
                fvp_free: field_bool("fvp_free")?,
                colorable: field_bool("colorable")?,
                termination,
                wirelength: field_u64("wirelength")?,
                vias: field_u64("vias")?,
                nets: field_u64("nets")? as usize,
                fingerprint,
            };
            JobOutcome::Completed {
                summary,
                report: Box::new(replay_report(run_id)),
            }
        }
        other => {
            return Err(durability(format!(
                "completion record with unknown outcome {other:?}"
            )));
        }
    };
    Ok((outcome, dropped))
}

/// The stub report attached to a journal-replayed completed response:
/// the run's phase data died with the process, so the report carries
/// only the run identity and a marker note.
fn replay_report(run_id: u64) -> JsonReport {
    let mut report = JsonReport::with_run_id(format!("{run_id:016x}"), run_id);
    report.note("journal_replay", "true");
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSource;
    use sadp_grid::SadpKind;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sadp-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn request(nets: usize, seed: u64) -> RouteRequest {
        RouteRequest::new(JobSource::Synthetic { nets, seed }, SadpKind::Sim)
    }

    #[test]
    fn accept_complete_round_trip_and_live_count() {
        let dir = tmp_dir("roundtrip");
        let (mut journal, recovered, truncated) = Journal::open(&dir).unwrap();
        assert!(recovered.is_empty() && !truncated);
        let req = request(4, 1);
        journal.append_accept(JobId(1), &req).unwrap();
        journal.append_accept(JobId(2), &request(5, 2)).unwrap();
        assert_eq!(journal.live_records(), 2);
        journal
            .append_complete(&RouteResponse {
                job: JobId(1),
                run_id: req.run_id(),
                outcome: JobOutcome::Cancelled,
                dropped_events: 3,
            })
            .unwrap();
        assert_eq!(journal.live_records(), 1);
        drop(journal);

        let (journal, recovered, truncated) = Journal::open(&dir).unwrap();
        assert!(!truncated);
        assert_eq!(journal.live_records(), 1);
        assert_eq!(journal.next_id(), 3);
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered[0].id, JobId(1));
        assert_eq!(recovered[0].request, req);
        let resp = recovered[0].response.as_ref().unwrap();
        assert!(matches!(resp.outcome, JobOutcome::Cancelled));
        assert_eq!(resp.dropped_events, 3);
        assert!(recovered[1].response.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_preserves_live_set_and_highwater() {
        let dir = tmp_dir("compact");
        let (mut journal, _, _) = Journal::open(&dir).unwrap();
        journal.set_compact_after(2);
        for i in 1..=4u64 {
            let req = request(3 + i as usize, i);
            journal.append_accept(JobId(i), &req).unwrap();
        }
        for i in [1u64, 2, 3] {
            journal
                .append_complete(&RouteResponse {
                    job: JobId(i),
                    run_id: request(3 + i as usize, i).run_id(),
                    outcome: JobOutcome::Cancelled,
                    dropped_events: 0,
                })
                .unwrap();
        }
        // Compaction fired at the second completion (2 retired >=
        // max(2, 2 live)), dropping jobs 1-2; job 3's completion was
        // then appended to the compacted log.
        assert_eq!(journal.retired, 1, "post-compaction completion count");
        drop(journal);
        let (journal, recovered, _) = Journal::open(&dir).unwrap();
        // Compacted-away jobs are gone; the post-compaction
        // completion replays, the live accept requeues, and the id
        // highwater survives.
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered[0].id, JobId(3));
        assert!(recovered[0].response.is_some());
        assert_eq!(recovered[1].id, JobId(4));
        assert!(recovered[1].response.is_none());
        assert_eq!(journal.live_records(), 1);
        assert_eq!(journal.next_id(), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_survives() {
        let dir = tmp_dir("torn");
        let (mut journal, _, _) = Journal::open(&dir).unwrap();
        journal.append_accept(JobId(1), &request(4, 9)).unwrap();
        let path = journal.path().to_path_buf();
        drop(journal);
        let clean_len = std::fs::metadata(&path).unwrap().len();
        // Half a frame of a second accept: a crash mid-write.
        let torn = frame(&encode_accept(JobId(2), &request(5, 9)));
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&torn[..torn.len() / 2]).unwrap();
        drop(f);

        let (journal, recovered, truncated) = Journal::open(&dir).unwrap();
        assert!(truncated);
        assert_eq!(recovered.len(), 1);
        assert_eq!(std::fs::metadata(journal.path()).unwrap().len(), clean_len);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn semantic_corruption_is_refused_with_typed_errors() {
        // Duplicate completion.
        let dir = tmp_dir("dupe");
        let (mut journal, _, _) = Journal::open(&dir).unwrap();
        let req = request(4, 3);
        journal.append_accept(JobId(1), &req).unwrap();
        let complete = encode_complete(&RouteResponse {
            job: JobId(1),
            run_id: req.run_id(),
            outcome: JobOutcome::Cancelled,
            dropped_events: 0,
        });
        let path = journal.path().to_path_buf();
        drop(journal);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&frame(&complete)).unwrap();
        f.write_all(&frame(&complete)).unwrap();
        drop(f);
        match Journal::open(&dir) {
            Err(RouteError::Durability { what, reason }) => {
                assert_eq!(what, "journal");
                assert!(reason.contains("duplicate completion"), "{reason}");
            }
            other => panic!("expected duplicate-completion rejection, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);

        // Completion without an accept.
        let dir = tmp_dir("orphan");
        let (journal, _, _) = Journal::open(&dir).unwrap();
        let path = journal.path().to_path_buf();
        drop(journal);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&frame(&complete)).unwrap();
        drop(f);
        match Journal::open(&dir) {
            Err(RouteError::Durability { reason, .. }) => {
                assert!(reason.contains("without an accept"), "{reason}");
            }
            other => panic!("expected orphan-completion rejection, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_is_refused() {
        let dir = tmp_dir("version");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("journal.log"), frame("sadpd-journal v999")).unwrap();
        match Journal::open(&dir) {
            Err(RouteError::Durability { reason, .. }) => {
                assert!(reason.contains("version mismatch"), "{reason}");
            }
            other => panic!("expected version rejection, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
