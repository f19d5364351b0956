//! Crash-safe service durability: the write-ahead job journal and the
//! durable result store behind `hqr serve`.
//!
//! The journal is the daemon's source of truth for job lifecycles. Every
//! transition — accepted, started, checkpointed, suspended,
//! completed, failed, quarantined, cancelled, shed — is appended as one
//! self-contained record *before* the transition is acknowledged, and no
//! acknowledgement precedes the `fdatasync` that covers its record, so a
//! SIGKILL (or power loss) at any instant loses only records nobody has
//! been told about. A restarted daemon folds the journal through the
//! pool's own rules ([`PoolState::replayed`]) and drives every
//! previously-accepted job back to a terminal state: completed jobs keep
//! their stored results, running jobs resume from their last
//! checkpoint, queued jobs are resubmitted from their recorded specs.
//!
//! ## Record framing
//!
//! The journal file is a sequence of length-prefixed records:
//!
//! ```text
//! (len: u64 LE | record bytes)*
//! ```
//!
//! where each record is a complete checksummed section container
//! ([`hqr_tile::io`], magic `HQRJRNL\0`) holding meta words plus optional
//! text / spec / dedup-key sections. Because every record carries its own
//! checksum trailer, a torn tail — the expected state after a crash
//! mid-append — is detected and discarded by [`Journal::read`] without
//! losing any earlier record; there is no window in which the whole file
//! is unverifiable. Only the *last* record can be a torn tail: a complete
//! record of another format version or magic, or damage before the end,
//! is a typed [`JournalError`], so a journal this reader cannot read is
//! never mistaken for an empty one.
//!
//! Appends go to the live file, streamed from the event (an `Accepted`
//! spec is never copied into a record), and one `fdatasync` covers a whole
//! batch ([`Journal::append`], group commit); the only whole-file
//! rewrite is [`Journal::compact`], which uses the shared
//! [`atomic_write`] fsync-then-rename discipline.
//!
//! ## Result store
//!
//! A completed job's result is its finished checkpoint: the
//! [`crate::checkpoint`] container with every task complete and the job id
//! in its header word, holding R and V in the tiles and the V/T factor
//! families. The pool streams it from the factorization in place to
//! `job-<id>.result` ([`ResultStore`]), and [`result_from_bytes`] reads it
//! back; it is resumable like any checkpoint, with nothing left to run.
//! The store is a flat directory with count, byte and age retention. It
//! reads the directory once and decides retention from its in-memory set;
//! the oldest (smallest job id) results are pruned, each prune journaled
//! before its file is unlinked, so replay knows the result is gone rather
//! than lost.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, SystemTime};

use hqr_tile::io::{
    atomic_write, bytes_of_u64s, read_frame_into, u64s_of_bytes, BinFormatError, FrameError,
    SectionList, SectionReader, MAX_FRAME,
};

use crate::checkpoint::{checkpoint_from_bytes, Checkpoint, CheckpointError};
use crate::exec::relock;
use crate::pool::{JobResult, PoolConfig};
use crate::pool_step::{snapshot, PoolState};

/// Magic bytes opening every journal record container.
pub const JOURNAL_MAGIC: [u8; 8] = *b"HQRJRNL\0";
/// Journal record version (2: `checksum64` trailer).
pub const JOURNAL_VERSION: u32 = 2;

const J_META: u32 = 1;
const J_TEXT: u32 = 2;
const J_SPEC: u32 = 3;
const J_DEDUP: u32 = 4;

/// Why the journal or a result container could not be used.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure, with the path involved.
    Io {
        /// The path being written or read.
        path: String,
        /// The underlying OS error.
        message: String,
    },
    /// A record or container is corrupt or malformed.
    Format(BinFormatError),
    /// A record decoded but its contents are inconsistent.
    Inconsistent {
        /// What invariant failed.
        message: String,
    },
    /// A record longer than [`MAX_FRAME`]: refused on append, and an error
    /// on read (a torn append leaves a prefix of what was written, so no
    /// torn tail declares such a length).
    TooLarge {
        /// The journal file.
        path: String,
        /// The record's length.
        declared: u64,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, message } => write!(f, "{path}: {message}"),
            JournalError::Format(e) => write!(f, "journal format error: {e}"),
            JournalError::Inconsistent { message } => {
                write!(f, "inconsistent journal record: {message}")
            }
            JournalError::TooLarge { path, declared } => {
                write!(f, "{path}: record of {declared} bytes exceeds the {MAX_FRAME}-byte cap")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<BinFormatError> for JournalError {
    fn from(e: BinFormatError) -> Self {
        JournalError::Format(e)
    }
}

pub(crate) fn io_err(path: &Path, e: std::io::Error) -> JournalError {
    JournalError::Io { path: path.display().to_string(), message: e.to_string() }
}

fn frame_err(path: &Path, e: FrameError) -> JournalError {
    let path = path.display().to_string();
    match e {
        FrameError::TooLarge { declared } => JournalError::TooLarge { path, declared },
        e => JournalError::Io { path, message: e.to_string() },
    }
}

fn inconsistent(message: impl Into<String>) -> JournalError {
    JournalError::Inconsistent { message: message.into() }
}

/// One job lifecycle transition, as recorded in the write-ahead journal.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalEvent {
    /// The pool accepted a job. `spec` holds the serialized [`crate::pool::JobSpec`]
    /// (so replay can resubmit it); compaction of already-terminal jobs
    /// drops the payload and keeps only the metadata.
    Accepted {
        /// The job's stable id.
        id: u64,
        /// Attempts already consumed when accepted (nonzero after recovery).
        attempts: u32,
        /// Tasks in the job's DAG (for restored listings).
        tasks_total: u64,
        /// Client-supplied idempotency key, if any.
        dedup: Option<String>,
        /// Serialized spec, absent once the job is terminal and compacted.
        spec: Option<Vec<u8>>,
    },
    /// An attempt of the job was activated onto the pool.
    Started {
        /// The job's stable id.
        id: u64,
        /// Attempts started so far, including this one.
        attempt: u32,
    },
    /// A panel-boundary checkpoint of the running job was persisted.
    Checkpointed {
        /// The job's stable id.
        id: u64,
        /// Tasks complete in the checkpoint.
        tasks_done: u64,
        /// Checkpoint file name, relative to the state directory.
        file: String,
    },
    /// The job was halted at a quiescent point and its state captured.
    Suspended {
        /// The job's stable id.
        id: u64,
        /// Why (drain, explicit suspend, preemption, periodic checkpoint).
        reason: String,
    },
    /// The job completed; its factors may be in the result store.
    Completed {
        /// The job's stable id.
        id: u64,
        /// Result file name relative to the state directory, if persisted.
        file: Option<String>,
    },
    /// An attempt failed; the job is waiting out a retry backoff.
    Failed {
        /// The job's stable id.
        id: u64,
        /// Attempts consumed so far.
        attempts: u32,
        /// The failure message.
        error: String,
    },
    /// The job exhausted its retry budget.
    Quarantined {
        /// The job's stable id.
        id: u64,
        /// The final failure message.
        error: String,
    },
    /// The tenant cancelled the job.
    Cancelled {
        /// The job's stable id.
        id: u64,
    },
    /// The job was evicted by load shedding or shutdown.
    Shed {
        /// The job's stable id.
        id: u64,
        /// Why it was shed.
        reason: String,
    },
    /// The retention policy removed the job's stored result.
    ResultPruned {
        /// The job's stable id.
        id: u64,
    },
    /// Retired: an idle pool once admitted a job over its memory budget
    /// and noted it here. No pool writes this record any more (submission
    /// refuses such a job outright); it still decodes, as the no-op it
    /// always was on replay, so journals written before then stay readable.
    OverBudgetAdmitted {
        /// The job's stable id.
        id: u64,
        /// Bytes the job needed.
        need: u64,
        /// The configured budget it exceeded.
        budget: u64,
    },
}

impl JournalEvent {
    fn kind_word(&self) -> u64 {
        match self {
            JournalEvent::Accepted { .. } => 1,
            JournalEvent::Started { .. } => 2,
            JournalEvent::Checkpointed { .. } => 3,
            JournalEvent::Suspended { .. } => 4,
            JournalEvent::Completed { .. } => 5,
            JournalEvent::Failed { .. } => 6,
            JournalEvent::Quarantined { .. } => 7,
            JournalEvent::Cancelled { .. } => 8,
            JournalEvent::Shed { .. } => 9,
            JournalEvent::ResultPruned { .. } => 10,
            JournalEvent::OverBudgetAdmitted { .. } => 11,
        }
    }

    /// The stable job id this event concerns.
    pub fn job_id(&self) -> u64 {
        match self {
            JournalEvent::Accepted { id, .. }
            | JournalEvent::Started { id, .. }
            | JournalEvent::Checkpointed { id, .. }
            | JournalEvent::Suspended { id, .. }
            | JournalEvent::Completed { id, .. }
            | JournalEvent::Failed { id, .. }
            | JournalEvent::Quarantined { id, .. }
            | JournalEvent::Cancelled { id }
            | JournalEvent::Shed { id, .. }
            | JournalEvent::ResultPruned { id }
            | JournalEvent::OverBudgetAdmitted { id, .. } => *id,
        }
    }

    /// Serialize into one self-checksummed record container.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.sections().into_bytes()
    }

    /// The record container over this event's own fields: an `Accepted`
    /// spec goes to the file from where it lies, uncopied.
    fn sections(&self) -> SectionList<'_> {
        let (x1, x2): (u64, u64) = match self {
            JournalEvent::Accepted { attempts, tasks_total, .. } => {
                (*attempts as u64, *tasks_total)
            }
            JournalEvent::Started { attempt, .. } => (*attempt as u64, 0),
            JournalEvent::Checkpointed { tasks_done, .. } => (*tasks_done, 0),
            JournalEvent::Failed { attempts, .. } => (*attempts as u64, 0),
            JournalEvent::OverBudgetAdmitted { need, budget, .. } => (*need, *budget),
            _ => (0, 0),
        };
        let mut w = SectionList::new(JOURNAL_MAGIC, JOURNAL_VERSION);
        w.section(J_META, bytes_of_u64s(&[self.kind_word(), self.job_id(), x1, x2]));
        let text: Option<&str> = match self {
            JournalEvent::Checkpointed { file, .. } => Some(file),
            JournalEvent::Suspended { reason, .. } => Some(reason),
            JournalEvent::Completed { file, .. } => file.as_deref(),
            JournalEvent::Failed { error, .. } => Some(error),
            JournalEvent::Quarantined { error, .. } => Some(error),
            JournalEvent::Shed { reason, .. } => Some(reason),
            _ => None,
        };
        if let Some(t) = text {
            w.section(J_TEXT, t.as_bytes());
        }
        if let JournalEvent::Accepted { dedup, spec, .. } = self {
            if let Some(k) = dedup {
                w.section(J_DEDUP, k.as_bytes());
            }
            if let Some(s) = spec {
                w.section(J_SPEC, s);
            }
        }
        w
    }

    /// Decode the inverse of [`JournalEvent::to_bytes`], from owned bytes
    /// or in place.
    pub fn from_bytes(bytes: impl AsRef<[u8]>) -> Result<JournalEvent, JournalError> {
        let r = SectionReader::from_bytes(bytes, JOURNAL_MAGIC, JOURNAL_VERSION)?;
        let meta = u64s_of_bytes(J_META, r.require(J_META)?)?;
        if meta.len() != 4 {
            return Err(inconsistent(format!("meta holds {} words, expected 4", meta.len())));
        }
        let [kind, id, x1, x2] = [meta[0], meta[1], meta[2], meta[3]];
        // Section `tag` as text, if present; `what` names it in the error.
        let opt_text = |tag: u32, what: &str| -> Result<Option<String>, JournalError> {
            let utf8 = |b: &[u8]| String::from_utf8(b.to_vec());
            let text = r.section(tag).map(utf8).transpose();
            text.map_err(|_| inconsistent(format!("{what} is not UTF-8")))
        };
        let text = |what: &str| -> Result<String, JournalError> {
            opt_text(J_TEXT, what)?
                .ok_or_else(|| BinFormatError::MissingSection { tag: J_TEXT }.into())
        };
        let ev = match kind {
            1 => {
                let dedup = opt_text(J_DEDUP, "dedup key")?;
                let spec = r.section(J_SPEC).map(|b| b.to_vec());
                JournalEvent::Accepted { id, attempts: x1 as u32, tasks_total: x2, dedup, spec }
            }
            2 => JournalEvent::Started { id, attempt: x1 as u32 },
            3 => JournalEvent::Checkpointed { id, tasks_done: x1, file: text("checkpoint file")? },
            4 => JournalEvent::Suspended { id, reason: text("suspend reason")? },
            5 => JournalEvent::Completed { id, file: opt_text(J_TEXT, "result file")? },
            6 => JournalEvent::Failed { id, attempts: x1 as u32, error: text("error")? },
            7 => JournalEvent::Quarantined { id, error: text("error")? },
            8 => JournalEvent::Cancelled { id },
            9 => JournalEvent::Shed { id, reason: text("shed reason")? },
            10 => JournalEvent::ResultPruned { id },
            11 => JournalEvent::OverBudgetAdmitted { id, need: x1, budget: x2 },
            other => return Err(inconsistent(format!("unknown record kind {other}"))),
        };
        Ok(ev)
    }
}

/// The length of the `Accepted` record of a job with this encoded spec and
/// dedup key (a section's header does not depend on its payload's length).
pub(crate) fn accepted_len(dedup: Option<&str>, spec: &[u8]) -> u64 {
    let (dedup, payload) = (dedup.map(|_| String::new()), dedup.map_or(0, str::len) + spec.len());
    let ev =
        JournalEvent::Accepted { id: 0, attempts: 0, tasks_total: 0, dedup, spec: Some(vec![]) };
    (ev.sections().encoded_len() + payload) as u64
}

/// Append-only handle on the write-ahead journal file.
pub struct Journal {
    path: PathBuf,
    file: std::fs::File,
    /// File length right after the last [`Journal::rotate`] (0 before the
    /// first). Rotation hysteresis: a journal dominated by one large live
    /// job compacts to roughly its previous size, and re-rotating on every
    /// subsequent append would rewrite the whole file each time.
    floor: u64,
}

impl Journal {
    /// Open (creating if absent) the journal at `path` for appending.
    ///
    /// A leftover rotate-in-progress marker (from a crash mid-
    /// [`Journal::rotate`]) is removed here: the rewrite itself is the
    /// atomic fsync-then-rename of [`Journal::compact`], so whichever of
    /// the old or the rotated file survived the crash is complete and
    /// self-checksummed — the marker only records that a rotation was
    /// underway, never an inconsistent file.
    pub fn open(path: &Path) -> Result<Journal, JournalError> {
        let marker = Self::rotate_marker(path);
        if marker.exists() {
            std::fs::remove_file(&marker).map_err(|e| io_err(&marker, e))?;
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        Ok(Journal { path: path.to_path_buf(), file, floor: 0 })
    }

    /// True when size-threshold rotation should run: the file has grown
    /// `rotate_at` bytes past the last compacted snapshot (or past zero,
    /// before any rotation). Without the floor a journal whose live
    /// records alone exceed the threshold would rewrite itself in full on
    /// every append.
    pub fn rotate_due(&self, rotate_at: u64) -> bool {
        rotate_at > 0 && self.len() > self.floor.saturating_add(rotate_at)
    }

    /// Sibling marker file that exists exactly while a rotation is in
    /// progress.
    fn rotate_marker(path: &Path) -> PathBuf {
        let mut name = path
            .file_name()
            .map_or_else(|| std::ffi::OsString::from("journal"), std::ffi::OsStr::to_os_string);
        name.push(".rotating");
        path.with_file_name(name)
    }

    /// Append records, in order, each framed and streamed from its event,
    /// then `fdatasync` once (group commit). They are durable when this
    /// returns: a crash one instant later replays them, and one before it
    /// leaves a prefix of them, the last possibly torn — what
    /// [`Journal::read`] tolerates. Appending nothing syncs nothing.
    ///
    /// A record past [`MAX_FRAME`] is refused unwritten, after the rest of
    /// the batch is written and synced.
    pub fn append(&mut self, events: &[JournalEvent]) -> Result<(), JournalError> {
        if events.is_empty() {
            return Ok(());
        }
        let mut refused = Ok(());
        for ev in events {
            match ev.sections().write_frame(&mut self.file) {
                Err(e @ FrameError::TooLarge { .. }) => refused = refused.and(Err(e)),
                written => written.map_err(|e| frame_err(&self.path, e))?,
            }
        }
        self.file.sync_data().map_err(|e| io_err(&self.path, e))?;
        refused.map_err(|e| frame_err(&self.path, e))
    }

    /// Read every intact record from the journal at `path`, oldest first.
    ///
    /// A missing file is an empty journal. A torn *tail* — a truncated
    /// length prefix, a record shorter than its prefix says, or a *last*
    /// record that is truncated inside or fails its checksum: the expected
    /// residue of a crash mid-append — ends the scan without an error:
    /// everything before it was fsynced and is returned.
    ///
    /// Anything else that does not decode is an error, not a tail: a
    /// complete record with the wrong magic or another format version (a
    /// journal written by a different release — reading it as empty would
    /// let the caller compact every accepted job away), a record that
    /// decodes to nonsense, a length past [`MAX_FRAME`], or damage anywhere
    /// but the end of the file.
    pub fn read(path: &Path) -> Result<Vec<JournalEvent>, JournalError> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(io_err(path, e)),
        };
        let (mut rest, mut record, mut events) = (&bytes[..], Vec::new(), Vec::new());
        loop {
            match read_frame_into(&mut rest, &mut record) {
                Ok(true) => {}
                // The end of the file, or a torn tail: a record longer than
                // what survived, or a cut length word.
                Ok(false) | Err(FrameError::Truncated) => break,
                Err(e) => return Err(frame_err(path, e)),
            }
            match JournalEvent::from_bytes(&record[..]) {
                Ok(ev) => events.push(ev),
                Err(JournalError::Format(
                    BinFormatError::Truncated { .. } | BinFormatError::ChecksumMismatch { .. },
                )) if rest.is_empty() => break, // torn tail record: discard it and stop
                Err(e) => return Err(e),
            }
        }
        Ok(events)
    }

    /// Atomically rewrite the journal to hold exactly `events` (the
    /// fsync-then-rename discipline of [`atomic_write`]), then reopen the
    /// append handle on the new file. Used after replay to drop records
    /// for jobs that are gone and re-seed the log with the live set.
    pub fn compact(&mut self, events: &[JournalEvent]) -> Result<(), JournalError> {
        let mut bytes = Vec::new();
        for ev in events {
            ev.sections().write_frame(&mut bytes).map_err(|e| frame_err(&self.path, e))?;
        }
        atomic_write(&self.path, &bytes)?;
        self.file = std::fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| io_err(&self.path, e))?;
        Ok(())
    }

    /// Current journal file size in bytes (what size-threshold rotation
    /// compares against).
    fn len(&self) -> u64 {
        self.file.metadata().map_or(0, |m| m.len())
    }

    /// Size-threshold rotation: atomically rewrite the journal down to the
    /// [`snapshot`] of the state it folds to, minus the settled jobs with
    /// nothing durable left (no stored result to stay listed for). This
    /// bounds journal growth under sustained churn: the specs and
    /// per-transition records of settled jobs dominate the file.
    ///
    /// Crash safety: a `<journal>.rotating` marker is created and synced
    /// before the rewrite and removed after. The rewrite itself is the
    /// atomic rename of [`Journal::compact`], so a kill at any instant
    /// leaves either the complete old file or the complete new one;
    /// [`Journal::open`] clears a stale marker on the next start, and
    /// replay of either file drives every accepted job terminal.
    ///
    /// Returns the number of bytes the rotation reclaimed.
    pub fn rotate(&mut self) -> Result<u64, JournalError> {
        let before = self.len();
        let marker = Self::rotate_marker(&self.path);
        {
            let f = std::fs::File::create(&marker).map_err(|e| io_err(&marker, e))?;
            f.sync_all().map_err(|e| io_err(&marker, e))?;
        }
        let mut state =
            PoolState::<()>::replayed(PoolConfig::default(), Journal::read(&self.path)?);
        state.forget(|j| j.settled().is_some() && j.result_file.is_none());
        let keep = snapshot(&state);
        self.compact(&keep)?;
        std::fs::remove_file(&marker).map_err(|e| io_err(&marker, e))?;
        self.floor = self.len();
        Ok(before.saturating_sub(self.floor))
    }
}

// ---------------------------------------------------------------------------
// Durable result containers
// ---------------------------------------------------------------------------

/// A decoded stored result.
#[derive(Debug)]
pub struct StoredResult {
    /// The job the result belongs to.
    pub id: u64,
    /// The factorization.
    pub result: JobResult,
}

/// Decode a stored result: a checkpoint container, verified in full, whose
/// every task is complete; its header word is the job id.
pub fn result_from_bytes(bytes: Vec<u8>) -> Result<StoredResult, JournalError> {
    let ckpt = checkpoint_from_bytes(bytes).map_err(|e| match e {
        CheckpointError::Format(e) => JournalError::Format(e),
        e => inconsistent(e.to_string()),
    })?;
    let (done, total) = (ckpt.completed_tasks(), ckpt.completed.len());
    if done != total {
        return Err(inconsistent(format!("a result with {done} of {total} tasks complete")));
    }
    let Checkpoint { job, a, factors, .. } = ckpt;
    Ok(StoredResult { id: job, result: JobResult { a, factors } })
}

/// Flat directory of per-job result containers with count, byte, and age
/// retention limits (each `0`/`None` disables that limit).
///
/// The directory is read once, at open; from then on the store keeps the
/// retained set in memory and decides every limit from it, so a completion
/// costs one file write and no directory walk. Retention is two steps the
/// caller orders around its journal: [`ResultStore::prune`] drops ids from
/// the set, [`ResultStore::unlink`] deletes their files once the prunes are
/// durable — a crash in between leaves orphan files, never a journaled
/// result without its file, and recovery unlinks the orphans.
pub struct ResultStore {
    dir: PathBuf,
    cap: usize,
    max_bytes: u64,
    max_age: Option<Duration>,
    /// The retained set: job id -> (file bytes, modification time).
    kept: Mutex<BTreeMap<u64, (u64, SystemTime)>>,
}

impl ResultStore {
    /// Open (creating if absent) the store rooted at `dir`, reading what it
    /// holds. `cap` bounds the result *count*, `max_bytes` the total size (a few
    /// huge R/V/T containers can fill a disk long before any count cap
    /// trips), and `max_age` the age of the oldest retained file. Zero /
    /// `None` disables the corresponding limit.
    pub fn with_retention(
        dir: &Path,
        cap: usize,
        max_bytes: u64,
        max_age: Option<Duration>,
    ) -> Result<ResultStore, JournalError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let entries = std::fs::read_dir(dir).map_err(|e| io_err(dir, e))?;
        let kept = entries
            .flatten()
            .filter_map(|e| {
                let name = e.file_name();
                let id = name.to_str()?.strip_prefix("job-")?.strip_suffix(".result")?;
                let meta = e.metadata().ok()?;
                let mtime = meta.modified().unwrap_or_else(|_| SystemTime::now());
                Some((id.parse().ok()?, (meta.len(), mtime)))
            })
            .collect();
        let kept = Mutex::new(kept);
        Ok(ResultStore { dir: dir.to_path_buf(), cap, max_bytes, max_age, kept })
    }

    /// Canonical file name for a job's result.
    pub fn file_name(id: u64) -> String {
        format!("job-{id}.result")
    }

    /// Full path of a job's result file.
    pub fn path_of(&self, id: u64) -> PathBuf {
        self.dir.join(Self::file_name(id))
    }

    /// Durably store `container` (a finished job's checkpoint) as `id`'s
    /// result — streamed into the file, fsync-then-rename — and return the
    /// file name relative to the store.
    pub(crate) fn put(&self, id: u64, container: &SectionList<'_>) -> Result<String, JournalError> {
        container.write_atomic(&self.path_of(id))?;
        relock(&self.kept).insert(id, (container.encoded_len() as u64, SystemTime::now()));
        Ok(Self::file_name(id))
    }

    /// Raw container bytes for `id`, if it is retained.
    pub fn get(&self, id: u64) -> Option<Vec<u8>> {
        let kept = relock(&self.kept).contains_key(&id);
        kept.then(|| std::fs::read(self.path_of(id)).ok()).flatten()
    }

    /// Retained job ids, ascending.
    pub fn list(&self) -> Vec<u64> {
        relock(&self.kept).keys().copied().collect()
    }

    /// Enforce every configured retention limit on the retained set,
    /// oldest (smallest-id) results first: drop results older than
    /// `max_age`, then shrink to at most `cap` results, then to at most
    /// `max_bytes` in total. Returns the dropped ids, ascending, for the
    /// caller to journal as `result-pruned` and then [`ResultStore::unlink`].
    pub fn prune(&self) -> Vec<u64> {
        let mut kept = relock(&self.kept);
        let now = SystemTime::now();
        let too_old = |t: &SystemTime| {
            self.max_age.is_some_and(|max| now.duration_since(*t).is_ok_and(|age| age > max))
        };
        let mut pruned: Vec<u64> =
            kept.iter().filter(|(_, (_, t))| too_old(t)).map(|(&id, _)| id).collect();
        for id in &pruned {
            kept.remove(id);
        }
        let mut total: u64 = kept.values().map(|&(n, _)| n).sum();
        while (self.cap > 0 && kept.len() > self.cap)
            || (self.max_bytes > 0 && total > self.max_bytes)
        {
            let Some((id, (n, _))) = kept.pop_first() else { break };
            total -= n;
            pruned.push(id);
        }
        pruned.sort_unstable();
        pruned
    }

    /// Forget `ids` and delete their files.
    pub fn unlink(&self, ids: &[u64]) {
        for &id in ids {
            relock(&self.kept).remove(&id);
            let _ = std::fs::remove_file(self.path_of(id));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{
        checkpoint_sections, checkpoint_to_bytes, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
    };
    use crate::fault::splitmix64;
    use crate::pool::JobState;
    use crate::pool_step::Job;

    /// The jobs a journal's records fold to.
    fn fold(events: &[JournalEvent]) -> std::collections::BTreeMap<u64, Job> {
        PoolState::<()>::replayed(PoolConfig::default(), events.iter().cloned()).jobs
    }

    fn every_event() -> Vec<JournalEvent> {
        vec![
            JournalEvent::Accepted {
                id: 1,
                attempts: 0,
                tasks_total: 12,
                dedup: Some("key-a".into()),
                spec: Some(vec![1, 2, 3, 4]),
            },
            JournalEvent::Accepted { id: 2, attempts: 3, tasks_total: 7, dedup: None, spec: None },
            JournalEvent::Started { id: 1, attempt: 1 },
            JournalEvent::Checkpointed { id: 1, tasks_done: 5, file: "ckpt/job-1.ckpt".into() },
            JournalEvent::Suspended { id: 1, reason: "drain".into() },
            JournalEvent::Completed { id: 2, file: Some("results/job-2.result".into()) },
            JournalEvent::Completed { id: 3, file: None },
            JournalEvent::Failed { id: 1, attempts: 2, error: "task 4 panicked".into() },
            JournalEvent::Quarantined { id: 1, error: "budget exhausted".into() },
            JournalEvent::Cancelled { id: 4 },
            JournalEvent::Shed { id: 5, reason: "higher-QoS arrival".into() },
            JournalEvent::ResultPruned { id: 2 },
            JournalEvent::OverBudgetAdmitted { id: 6, need: 1 << 30, budget: 1 << 20 },
        ]
    }

    #[test]
    fn every_event_kind_roundtrips() {
        for ev in every_event() {
            let back = JournalEvent::from_bytes(ev.to_bytes()).unwrap();
            assert_eq!(back, ev);
        }
    }

    #[test]
    fn corrupt_record_is_typed() {
        let mut bytes = JournalEvent::Cancelled { id: 9 }.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(JournalEvent::from_bytes(bytes).is_err());
    }

    #[test]
    fn journal_appends_replay_in_order() {
        let dir = std::env::temp_dir().join(format!("hqr_journal_t{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("order.wal");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::open(&path).unwrap();
        let events = every_event();
        j.append(&events).unwrap();
        assert_eq!(Journal::read(&path).unwrap(), events);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_journal_is_empty() {
        assert!(Journal::read(Path::new("/no/such/journal.wal")).unwrap().is_empty());
    }

    #[test]
    fn torn_tail_at_every_byte_keeps_the_fsynced_prefix() {
        // A crash mid-append can leave any prefix of the file; every such
        // truncation must yield exactly the records whose frames survived
        // intact — never an error, never a phantom record.
        let events = every_event();
        let mut bytes = Vec::new();
        let mut boundaries = vec![0usize];
        for ev in &events {
            let body = ev.to_bytes();
            bytes.extend_from_slice(&(body.len() as u64).to_le_bytes());
            bytes.extend_from_slice(&body);
            boundaries.push(bytes.len());
        }
        let dir = std::env::temp_dir().join(format!("hqr_journal_torn{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.wal");
        for cut in 0..=bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let got = Journal::read(&path).unwrap();
            let intact = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(got.len(), intact, "cut at {cut}");
            assert_eq!(got[..], events[..intact], "cut at {cut}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bitflip_in_tail_record_discards_only_the_tail() {
        let events = every_event();
        let dir = std::env::temp_dir().join(format!("hqr_journal_flip{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flip.wal");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::open(&path).unwrap();
        j.append(&events).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0x40; // corrupt inside the last record's checksum
        std::fs::write(&path, &bytes).unwrap();
        let got = Journal::read(&path).unwrap();
        assert_eq!(got[..], events[..events.len() - 1]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `body` as the journal file frames it: length prefix, then the bytes.
    fn framed(body: &[u8]) -> Vec<u8> {
        let mut frame = (body.len() as u64).to_le_bytes().to_vec();
        frame.extend_from_slice(body);
        frame
    }

    /// One framed record whose container header says `version`, trailer
    /// valid for those bytes — what another release's journal looks like.
    fn framed_record_of_version(version: u32) -> Vec<u8> {
        let mut w = SectionList::new(JOURNAL_MAGIC, version);
        w.section(J_META, bytes_of_u64s(&[8, 7, 0, 0]));
        framed(&w.into_bytes())
    }

    #[test]
    fn other_version_or_magic_is_an_error_not_an_empty_journal() {
        // Regression: any decode error used to end the scan as a "torn
        // tail", so a journal from another format version read as empty and
        // recovery then compacted every accepted job away.
        let dir = std::env::temp_dir().join(format!("hqr_journal_ver{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old.wal");
        std::fs::write(&path, framed_record_of_version(JOURNAL_VERSION - 1)).unwrap();
        let err = Journal::read(&path).unwrap_err();
        assert!(
            matches!(
                err,
                JournalError::Format(BinFormatError::UnsupportedVersion { found, .. })
                    if found == JOURNAL_VERSION - 1
            ),
            "{err}"
        );
        // The same after good records: the old record is complete, so it is
        // not a tail to discard.
        let mut bytes = framed(&JournalEvent::Cancelled { id: 3 }.to_bytes());
        bytes.extend_from_slice(&framed_record_of_version(JOURNAL_VERSION + 1));
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Journal::read(&path),
            Err(JournalError::Format(BinFormatError::UnsupportedVersion { .. }))
        ));
        let mut foreign = framed_record_of_version(JOURNAL_VERSION);
        foreign[8] ^= 0x20; // first magic byte, inside the length-prefixed record
        std::fs::write(&path, &foreign).unwrap();
        assert!(matches!(
            Journal::read(&path),
            Err(JournalError::Format(BinFormatError::BadMagic { .. }))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_length_past_the_frame_cap_is_an_error_not_a_tail() {
        let mut bytes = framed(&JournalEvent::Cancelled { id: 3 }.to_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        let dir = std::env::temp_dir().join(format!("hqr_journal_cap{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cap.wal");
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Journal::read(&path),
            Err(JournalError::TooLarge { declared: u64::MAX, .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A record past the cap is refused before any of its bytes reach the
    /// file, and the records around it in the batch are still written and
    /// synced. The oversized spec is never touched, so never paged in.
    #[test]
    fn an_oversized_record_is_refused_without_losing_the_rest_of_its_batch() {
        let dir = std::env::temp_dir().join(format!("hqr_journal_big{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("big.wal");
        let _ = std::fs::remove_file(&path);
        let big = JournalEvent::Accepted {
            id: 2,
            attempts: 0,
            tasks_total: 1,
            dedup: None,
            spec: Some(vec![0; MAX_FRAME as usize]),
        };
        let (before, after) =
            (JournalEvent::Cancelled { id: 1 }, JournalEvent::Cancelled { id: 3 });
        let mut j = Journal::open(&path).unwrap();
        let err = j.append(&[before.clone(), big, after.clone()]).unwrap_err();
        assert!(matches!(err, JournalError::TooLarge { declared, .. } if declared > MAX_FRAME));
        assert_eq!(Journal::read(&path).unwrap(), vec![before, after]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damage_before_the_last_record_is_an_error() {
        let mut bytes: Vec<u8> =
            every_event().iter().flat_map(|ev| framed(&ev.to_bytes())).collect();
        bytes[8 + 30] ^= 0x01; // inside the first record's body
        let dir = std::env::temp_dir().join(format!("hqr_journal_mid{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mid.wal");
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Journal::read(&path),
            Err(JournalError::Format(BinFormatError::ChecksumMismatch { .. }))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_rewrites_and_keeps_appending() {
        let dir = std::env::temp_dir().join(format!("hqr_journal_compact{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("compact.wal");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::open(&path).unwrap();
        j.append(&every_event()).unwrap();
        let keep = vec![JournalEvent::Accepted {
            id: 7,
            attempts: 0,
            tasks_total: 3,
            dedup: None,
            spec: None,
        }];
        j.compact(&keep).unwrap();
        // Appends after compaction must land in the *new* file, not the
        // renamed-away inode.
        j.append(&[JournalEvent::Started { id: 7, attempt: 1 }]).unwrap();
        let got = Journal::read(&path).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], keep[0]);
        assert_eq!(got[1], JournalEvent::Started { id: 7, attempt: 1 });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_folds_lifecycles() {
        let events = vec![
            JournalEvent::Accepted {
                id: 1,
                attempts: 0,
                tasks_total: 9,
                dedup: Some("k".into()),
                spec: Some(vec![1]),
            },
            JournalEvent::Started { id: 1, attempt: 1 },
            JournalEvent::Checkpointed { id: 1, tasks_done: 4, file: "c1".into() },
            JournalEvent::Checkpointed { id: 1, tasks_done: 6, file: "c1".into() },
            JournalEvent::Accepted {
                id: 2,
                attempts: 0,
                tasks_total: 5,
                dedup: None,
                spec: Some(vec![2]),
            },
            JournalEvent::Started { id: 2, attempt: 1 },
            JournalEvent::Completed { id: 2, file: Some("r2".into()) },
            JournalEvent::Accepted {
                id: 3,
                attempts: 0,
                tasks_total: 5,
                dedup: None,
                spec: Some(vec![3]),
            },
        ];
        let jobs = fold(&events);
        assert_eq!(jobs.len(), 3);
        let j1 = &jobs[&1];
        assert_eq!(j1.state, JobState::Running, "running job is not terminal");
        assert_eq!(j1.ckpt_file.as_deref(), Some("c1"));
        assert_eq!(j1.ckpt_tasks_done, 6);
        assert_eq!(j1.dedup.as_deref(), Some("k"));
        let j2 = &jobs[&2];
        assert_eq!(j2.settled(), Some(JobState::Completed));
        assert_eq!(j2.result_file.as_deref(), Some("r2"));
        let j3 = &jobs[&3];
        assert_eq!(j3.settled(), None);
        assert!(j3.ckpt_file.is_none(), "never ran: resubmit from spec");
        assert_eq!(j3.spec.as_deref(), Some(&[3u8][..]));
    }

    #[test]
    fn rotation_keeps_live_jobs_and_stored_results_only() {
        let dir = std::env::temp_dir().join(format!("hqr_journal_rot{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rotate.wal");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::open(&path).unwrap();
        // 50 settled jobs with fat specs (the unbounded-growth pattern),
        // one live job mid-flight, one completed job with a stored result,
        // one completed job whose result was pruned.
        for id in 1..=50u64 {
            j.append(&[JournalEvent::Accepted {
                id,
                attempts: 0,
                tasks_total: 100,
                dedup: None,
                spec: Some(vec![0xAB; 4096]),
            }])
            .unwrap();
            j.append(&[JournalEvent::Started { id, attempt: 1 }]).unwrap();
            j.append(&[JournalEvent::Cancelled { id }]).unwrap();
        }
        j.append(&[JournalEvent::Accepted {
            id: 90,
            attempts: 0,
            tasks_total: 7,
            dedup: Some("live".into()),
            spec: Some(vec![1, 2, 3]),
        }])
        .unwrap();
        j.append(&[JournalEvent::Started { id: 90, attempt: 1 }]).unwrap();
        j.append(&[JournalEvent::Checkpointed { id: 90, tasks_done: 3, file: "c90".into() }])
            .unwrap();
        j.append(&[JournalEvent::Accepted {
            id: 91,
            attempts: 0,
            tasks_total: 7,
            dedup: None,
            spec: Some(vec![9; 2048]),
        }])
        .unwrap();
        j.append(&[JournalEvent::Completed { id: 91, file: Some("r91".into()) }]).unwrap();
        j.append(&[JournalEvent::Accepted {
            id: 92,
            attempts: 0,
            tasks_total: 7,
            dedup: None,
            spec: Some(vec![9; 2048]),
        }])
        .unwrap();
        j.append(&[JournalEvent::Completed { id: 92, file: Some("r92".into()) }]).unwrap();
        j.append(&[JournalEvent::ResultPruned { id: 92 }]).unwrap();
        let before = j.len();
        let reclaimed = j.rotate().unwrap();
        assert!(reclaimed > 0 && j.len() < before / 10, "rotation must shrink the file");
        assert!(!Journal::rotate_marker(&path).exists(), "marker must be cleaned up");
        let jobs = fold(&Journal::read(&path).unwrap());
        // Settled jobs (cancelled; completed-then-pruned) are gone.
        assert_eq!(jobs.keys().copied().collect::<Vec<_>>(), vec![90, 91]);
        let live = &jobs[&90];
        assert_eq!(live.state, JobState::Running);
        assert_eq!(live.spec.as_deref(), Some(&[1u8, 2, 3][..]));
        assert_eq!(live.ckpt_file.as_deref(), Some("c90"));
        assert_eq!(live.ckpt_tasks_done, 3);
        assert_eq!(live.attempts, 1);
        assert_eq!(live.dedup.as_deref(), Some("live"));
        let done = &jobs[&91];
        assert_eq!(done.settled(), Some(JobState::Completed));
        assert_eq!(done.result_file.as_deref(), Some("r91"));
        // The journal still appends after rotation.
        j.append(&[JournalEvent::Cancelled { id: 90 }]).unwrap();
        let jobs = fold(&Journal::read(&path).unwrap());
        assert_eq!(jobs[&90].settled(), Some(JobState::Cancelled));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_rotate_marker_is_cleared_on_open() {
        // A kill between marker creation and marker removal leaves the
        // marker on disk next to a complete (old or new) journal file —
        // open must clear it and replay normally.
        let dir = std::env::temp_dir().join(format!("hqr_journal_marker{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("marked.wal");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::open(&path).unwrap();
        j.append(&[JournalEvent::Accepted {
            id: 1,
            attempts: 0,
            tasks_total: 4,
            dedup: None,
            spec: Some(vec![7]),
        }])
        .unwrap();
        drop(j);
        std::fs::write(Journal::rotate_marker(&path), b"").unwrap();
        let j = Journal::open(&path).unwrap();
        assert!(!Journal::rotate_marker(&path).exists());
        assert_eq!(Journal::read(&path).unwrap().len(), 1);
        drop(j);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A finished 4x3-tile flat-tree job, every task complete, as the pool
    /// stores it for job `id`.
    fn finished(id: u64) -> Checkpoint {
        use crate::graph::TaskGraph;
        let (mt, nt, b) = (4, 3, 4);
        let mut elims = Vec::new();
        for k in 0..nt {
            for i in (k + 1)..mt {
                elims.push(crate::elim::ElimOp::new(k as u32, i as u32, k as u32, true));
            }
        }
        let graph = TaskGraph::build(mt, nt, b, &elims);
        let mut a = hqr_tile::TiledMatrix::random(mt, nt, b, 3);
        let factors = crate::exec::execute_serial_ib(&graph, &mut a, 2);
        let done = vec![true; graph.tasks().len()];
        Checkpoint { job: id, ..Checkpoint::capture(&graph, elims, done, a, factors) }
    }

    #[test]
    fn a_result_is_a_finished_checkpoint_and_nothing_else() {
        let ckpt = finished(4);
        let stored = result_from_bytes(checkpoint_to_bytes(&ckpt)).expect("a finished job decodes");
        assert_eq!(stored.id, 4);
        assert_eq!(stored.result.a.to_dense().data(), ckpt.a.to_dense().data());
        assert!(stored.result.factors.bitwise_eq(&ckpt.factors));
        // A state with work left is a checkpoint, not a result.
        let mut partial = ckpt.clone();
        *partial.completed.last_mut().unwrap() = false;
        let err = result_from_bytes(checkpoint_to_bytes(&partial)).unwrap_err();
        assert!(matches!(err, JournalError::Inconsistent { .. }), "{err}");
        // The retired result container (its own magic, version 3) is a
        // typed format error, not a result.
        let retired = [b'H', b'Q', b'R', b'R', b'S', b'L', b'T', 0];
        let mut old = SectionList::new(retired, 3);
        old.section(1, bytes_of_u64s(&[4, 1, 1, 2]));
        assert!(matches!(
            result_from_bytes(old.into_bytes()),
            Err(JournalError::Format(BinFormatError::BadMagic { .. }))
        ));
    }

    /// A 48-byte container standing in for a result.
    fn blob(id: u64) -> SectionList<'static> {
        let mut c = SectionList::new(CHECKPOINT_MAGIC, CHECKPOINT_VERSION);
        c.section(1, vec![id as u8; 16]);
        c
    }

    #[test]
    fn result_store_byte_and_age_retention() {
        let dir = std::env::temp_dir().join(format!("hqr_results_bytes{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Byte cap of 100: four 48-byte results exceed it; the two oldest
        // must go even though the count cap (10) is nowhere near tripped.
        let store = ResultStore::with_retention(&dir, 10, 100, None).unwrap();
        for id in 1..=4u64 {
            store.put(id, &blob(id)).unwrap();
        }
        assert_eq!(store.prune(), vec![1, 2]);
        assert_eq!(store.list(), vec![3, 4]);
        store.unlink(&[1, 2]);
        // Age cap of zero: everything still stored is older than the
        // limit and is pruned regardless of count/byte headroom.
        let aged = ResultStore::with_retention(&dir, 0, 0, Some(Duration::ZERO)).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(aged.prune(), vec![3, 4]);
        assert!(aged.list().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn result_store_retention_prunes_oldest_and_unlinks_on_request() {
        let dir = std::env::temp_dir().join(format!("hqr_results_t{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::with_retention(&dir, 2, 0, None).unwrap();
        for id in 1..=4u64 {
            store.put(id, &blob(id)).unwrap();
        }
        assert_eq!(store.prune(), vec![1, 2]);
        assert_eq!(store.list(), vec![3, 4]);
        // Pruned means not served; the file waits for `unlink`.
        assert!(store.get(1).is_none());
        assert!(store.path_of(1).exists());
        assert_eq!(store.get(4).unwrap(), blob(4).into_bytes());
        store.unlink(&[1, 2]);
        assert!(!store.path_of(1).exists() && !store.path_of(2).exists());
        // A second store reads what the directory holds, once.
        let unlimited = ResultStore::with_retention(&dir, 0, 0, None).unwrap();
        assert_eq!(unlimited.list(), vec![3, 4]);
        assert!(unlimited.prune().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_records_are_the_framed_containers() {
        let events = every_event();
        let dir = std::env::temp_dir().join(format!("hqr_journal_stream{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.wal");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::open(&path).unwrap();
        j.append(&events).unwrap();
        let framed_all: Vec<u8> = events.iter().flat_map(|ev| framed(&ev.to_bytes())).collect();
        assert_eq!(std::fs::read(&path).unwrap(), framed_all);
        // The bytes every record kind had when records were gathered into a
        // buffer first (the parent commit's digest of the same events).
        let all: Vec<u8> = events.iter().flat_map(JournalEvent::to_bytes).collect();
        assert_eq!((all.len(), hqr_tile::io::fnv1a64(&all)), (1026, 632511323393590529));
        // A big spec, by the digest the gathering writer gave it.
        let spec: Vec<u8> = (0..100_003u32).map(|i| (i * 7) as u8).collect();
        let ev = JournalEvent::Accepted {
            id: 3,
            attempts: 1,
            tasks_total: 9,
            dedup: None,
            spec: Some(spec),
        };
        let big = ev.to_bytes();
        assert_eq!((big.len(), hqr_tile::io::fnv1a64(&big)), (100_079, 6568368018919831968));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The store streams a finished job's checkpoint in place; the file is
    /// exactly `checkpoint_to_bytes` of it (whose bytes
    /// `checkpoint_encoding_is_pinned` pins).
    #[test]
    fn result_store_put_streams_exactly_checkpoint_to_bytes() {
        let ckpt = finished(7);
        let want = checkpoint_to_bytes(&ckpt);
        let dir = std::env::temp_dir().join(format!("hqr_results_stream{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::with_retention(&dir, 0, 0, None).unwrap();
        store.put(7, &checkpoint_sections(&ckpt)).unwrap();
        assert_eq!(std::fs::read(store.path_of(7)).unwrap(), want);
        assert_eq!(store.get(7).unwrap(), want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Retention as it was decided before the store kept its set in memory: a
    /// walk of the directory — list, stat, oldest (smallest id) first. The
    /// oracle only decides; the store under test unlinks.
    fn walk_prune(dir: &Path, cap: usize, max_bytes: u64, max_age: Option<Duration>) -> Vec<u64> {
        let mut live: Vec<(u64, u64, SystemTime)> = std::fs::read_dir(dir)
            .expect("read_dir")
            .flatten()
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                let id = name.strip_prefix("job-")?.strip_suffix(".result")?.parse().ok()?;
                let meta = e.metadata().ok()?;
                Some((id, meta.len(), meta.modified().ok()?))
            })
            .collect();
        live.sort_unstable();
        let mut pruned = Vec::new();
        if let Some(max_age) = max_age {
            let now = SystemTime::now();
            live.retain(|&(id, _, t)| {
                let too_old = now.duration_since(t).is_ok_and(|age| age > max_age);
                if too_old {
                    pruned.push(id);
                }
                !too_old
            });
        }
        if cap > 0 && live.len() > cap {
            let drop_n = live.len() - cap;
            pruned.extend(live.drain(..drop_n).map(|(id, ..)| id));
        }
        if max_bytes > 0 {
            let mut total: u64 = live.iter().map(|&(_, n, _)| n).sum();
            for &(id, n, _) in &live {
                if total <= max_bytes {
                    break;
                }
                pruned.push(id);
                total -= n;
            }
        }
        pruned.sort_unstable();
        pruned
    }

    #[test]
    fn in_memory_retention_prunes_what_the_directory_walk_pruned() {
        let mut rng = 0x5eed_u64;
        let mut draw = |n: u64| splitmix64(&mut rng) % n;
        for round in 0..4 {
            let dir =
                std::env::temp_dir().join(format!("hqr_retention_{round}_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let cap = draw(6) as usize;
            let max_bytes = [0, 150, 400][draw(3) as usize];
            // Ages are whole 100 ms steps apart, far from the 250 ms limit.
            let max_age = (round % 2 == 1).then_some(Duration::from_millis(250));
            let store = ResultStore::with_retention(&dir, cap, max_bytes, max_age).expect("open");
            for id in 1..=14u64 {
                if max_age.is_some() && draw(4) == 0 {
                    std::thread::sleep(Duration::from_millis(100));
                }
                let mut c = SectionList::new(*b"HQRTEST\0", 1);
                c.section(1, vec![id as u8; draw(120) as usize]);
                store.put(id, &c).expect("put");
                let expect = walk_prune(&dir, cap, max_bytes, max_age);
                let pruned = store.prune();
                let at = format!("round {round} (cap {cap}, {max_bytes} B, {max_age:?}), put {id}");
                assert_eq!(pruned, expect, "{at}");
                store.unlink(&pruned);
                assert_eq!(store.list(), listed(&dir), "{at}");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Result ids with a file in `dir`, ascending.
    fn listed(dir: &Path) -> Vec<u64> {
        let mut ids: Vec<u64> = std::fs::read_dir(dir)
            .expect("read_dir")
            .flatten()
            .filter_map(|e| {
                e.file_name()
                    .into_string()
                    .ok()?
                    .strip_prefix("job-")?
                    .strip_suffix(".result")?
                    .parse()
                    .ok()
            })
            .collect();
        ids.sort_unstable();
        ids
    }
}
