//! Wire protocol for the `hqr serve` daemon.
//!
//! Transport: a local Unix-domain stream socket carrying length-prefixed
//! frames — a u64 little-endian payload length followed by that many bytes.
//! Each payload is a [`hqr_tile::io`] section container (the same sectioned
//! binary format used by checkpoints, job specs and the journal),
//! so the protocol inherits the container's magic/version handshake and
//! tolerates unknown trailing sections for forward compatibility.
//!
//! One request frame yields exactly one response frame. Connections may
//! pipeline multiple request/response exchanges; either side closing the
//! stream between frames is a clean end of conversation.

use hqr_runtime::{FaultPlan, JobSpec, JobState, QosClass};
use hqr_tile::io::{
    bytes_of_u64s, read_frame_into, u64s_of_bytes, BinFormatError, FrameError, SectionList,
    SectionReader,
};
use std::io::{self, Read, Write};

/// Magic bytes identifying a protocol frame payload.
pub const PROTO_MAGIC: [u8; 8] = *b"HQRPROT\0";
/// Protocol version; bumped on incompatible changes. v2 adds durable
/// result retrieval (`Result`), checkpoint-backed suspension
/// (`Suspend`/`ResumeJob`), and the dedup flag on `Submitted`; v3 changes
/// the frame trailer to `hqr_tile::io::checksum64`.
pub const PROTO_VERSION: u32 = 3;

// Section tags.
const TAG_KIND: u32 = 1; // u64 discriminant
const TAG_WORDS: u32 = 2; // small fixed u64 payloads (ids, counts, codes)
const TAG_TEXT: u32 = 3; // UTF-8 text (tags, error messages)
const TAG_SPEC: u32 = 4; // embedded JobSpec container
const TAG_PLAN: u32 = 5; // fault-injection plan words
const TAG_IDS: u32 = 6; // u64 id lists (drain report)
const TAG_BLOB: u32 = 7; // opaque byte payloads (result containers)
/// Per-job sections in a `Jobs` response start here; stride 4.
const TAG_JOB_BASE: u32 = 16;
const JOB_STRIDE: u32 = 4;

// Request discriminants.
const K_PING: u64 = 1;
const K_SUBMIT: u64 = 2;
const K_JOBS: u64 = 3;
const K_CANCEL: u64 = 4;
const K_DRAIN: u64 = 5;
const K_RESULT: u64 = 6;
const K_SUSPEND: u64 = 7;
const K_RESUME_JOB: u64 = 8;
// Response discriminants.
const K_PONG: u64 = 101;
const K_SUBMITTED: u64 = 102;
const K_JOB_LIST: u64 = 103;
const K_CANCELLED: u64 = 104;
const K_DRAINED: u64 = 105;
const K_ERROR: u64 = 106;
const K_RESULT_BYTES: u64 = 107;
const K_SUSPENDED: u64 = 108;
const K_RESUMED: u64 = 109;

/// A decoding failure: the peer sent bytes we do not understand.
#[derive(Debug)]
pub struct ProtoError(pub String);

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

impl From<BinFormatError> for ProtoError {
    fn from(e: BinFormatError) -> Self {
        ProtoError(e.to_string())
    }
}

fn bad<T>(msg: impl Into<String>) -> Result<T, ProtoError> {
    Err(ProtoError(msg.into()))
}

/// A `u32` field carried in a `u64` word; a wider value is refused, not
/// truncated.
fn narrow(word: u64, what: &str) -> Result<u32, ProtoError> {
    u32::try_from(word).map_err(|_| ProtoError(format!("{what} {word} overflows u32")))
}

/// The fault plan a `Submit` carries, under the name the protocol has
/// always given it.
pub type WirePlan = FaultPlan;

/// A plan's section words, `[seed, n, (task, attempts)*]`.
fn plan_words(plan: &FaultPlan) -> Vec<u64> {
    let mut w = vec![plan.seed(), plan.failing_tasks().count() as u64];
    w.extend(plan.failing_tasks().flat_map(|(task, attempts)| [task as u64, attempts as u64]));
    w
}

fn plan_of_words(words: &[u64]) -> Result<FaultPlan, ProtoError> {
    let [seed, n, pairs @ ..] = words else {
        return bad("plan section too short");
    };
    // The count is checked against the words really present, so a
    // hostile count neither overflows nor sizes an allocation.
    if !pairs.len().is_multiple_of(2) || (pairs.len() / 2) as u64 != *n {
        return bad("plan section length mismatch");
    }
    pairs.chunks_exact(2).try_fold(FaultPlan::new(*seed), |plan, p| {
        Ok(plan.fail_task(narrow(p[0], "plan task")?, narrow(p[1], "plan attempts")?))
    })
}

/// A client request.
#[derive(Debug)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Submit a job: the encoded [`JobSpec`] plus an injection plan. Specs
    /// do not serialize plans; the frame carries the plan's seed and its
    /// per-task failures, and no other kind.
    Submit { spec: Box<JobSpec>, plan: FaultPlan },
    /// List all jobs the daemon knows about.
    Jobs,
    /// Cancel one job by id.
    Cancel(u64),
    /// Gracefully drain: stop admitting, give in-flight jobs `grace_ms`,
    /// suspend the rest, persist the queue, then exit.
    Drain { grace_ms: u64 },
    /// Fetch the durable result container of a completed job.
    Result(u64),
    /// Suspend one job: queued jobs park immediately, running jobs are
    /// checkpointed at their next quiescent point and then park.
    Suspend(u64),
    /// Resume a job parked by `Suspend`, continuing from its checkpoint.
    ResumeJob(u64),
}

impl Request {
    /// Encode into a frame payload: the kind, then its one word if it has
    /// one, then (for a submission) the spec and any injection plan.
    pub fn to_bytes(&self) -> Vec<u8> {
        let (kind, word) = match self {
            Request::Ping => (K_PING, None),
            Request::Submit { .. } => (K_SUBMIT, None),
            Request::Jobs => (K_JOBS, None),
            Request::Cancel(id) => (K_CANCEL, Some(*id)),
            Request::Drain { grace_ms } => (K_DRAIN, Some(*grace_ms)),
            Request::Result(id) => (K_RESULT, Some(*id)),
            Request::Suspend(id) => (K_SUSPEND, Some(*id)),
            Request::ResumeJob(id) => (K_RESUME_JOB, Some(*id)),
        };
        let mut w = SectionList::new(PROTO_MAGIC, PROTO_VERSION);
        w.section(TAG_KIND, bytes_of_u64s(&[kind]));
        if let Some(word) = word {
            w.section(TAG_WORDS, bytes_of_u64s(&[word]));
        }
        if let Request::Submit { spec, plan } = self {
            w.section(TAG_SPEC, spec.to_bytes());
            if plan.planned_failures() > 0 {
                w.section(TAG_PLAN, bytes_of_u64s(&plan_words(plan)));
            }
        }
        w.into_bytes()
    }

    /// Decode a frame payload; a submission's spec is decoded straight out
    /// of the frame.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Request, ProtoError> {
        let r = reader(&bytes)?;
        match kind(&r)? {
            K_PING => Ok(Request::Ping),
            K_SUBMIT => {
                let raw = r.require(TAG_SPEC)?;
                let spec = JobSpec::from_bytes(raw)
                    .map_err(|e| ProtoError(format!("bad job spec: {e}")))?;
                let plan = match r.section(TAG_PLAN) {
                    None => FaultPlan::default(),
                    Some(raw) => plan_of_words(&u64s_of_bytes(TAG_PLAN, raw)?)?,
                };
                Ok(Request::Submit { spec: Box::new(spec), plan })
            }
            K_JOBS => Ok(Request::Jobs),
            K_CANCEL => Ok(Request::Cancel(words1(&r)?)),
            K_DRAIN => Ok(Request::Drain { grace_ms: words1(&r)? }),
            K_RESULT => Ok(Request::Result(words1(&r)?)),
            K_SUSPEND => Ok(Request::Suspend(words1(&r)?)),
            K_RESUME_JOB => Ok(Request::ResumeJob(words1(&r)?)),
            other => bad(format!("unknown request kind {other}")),
        }
    }
}

/// One job's status row in a [`Response::JobList`] — [`hqr_runtime::JobView`]
/// flattened into wire-friendly fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireJob {
    /// Job id.
    pub id: u64,
    /// Caller-supplied label.
    pub tag: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Quality-of-service class.
    pub qos: QosClass,
    /// Activation attempts so far.
    pub attempts: u32,
    /// Tasks retired / total tasks.
    pub tasks_done: u64,
    /// Total tasks in the job's DAG.
    pub tasks_total: u64,
    /// Failure description, if the job failed.
    pub error: Option<String>,
    /// Wall-clock milliseconds if the job reached a terminal state.
    pub wall_ms: Option<u64>,
}

/// A daemon response.
#[derive(Debug)]
pub enum Response {
    /// The daemon is alive; carries the number of non-terminal jobs.
    Pong { live_jobs: u64 },
    /// Submission accepted under this id. `deduped` is true when the
    /// spec's dedup key matched an existing job and no new job was
    /// created.
    Submitted {
        /// The accepted (or deduplicated) job id.
        id: u64,
        /// Whether an existing job was returned instead of a new one.
        deduped: bool,
    },
    /// All jobs, newest last.
    JobList(Vec<WireJob>),
    /// Cancellation outcome: true if the job existed and was cancellable.
    Cancelled(bool),
    /// Drain finished: counts mirror [`hqr_runtime::DrainReport`].
    Drained { finished: u64, suspended: Vec<u64>, persisted: u64 },
    /// A completed job's encoded result container.
    ResultBytes(Vec<u8>),
    /// Suspension outcome: true if the job existed and was suspendable.
    Suspended(bool),
    /// Resumption outcome: true if the job was parked and is now queued.
    Resumed(bool),
    /// The request failed. `code` classifies submission rejections
    /// (1 invalid, 2 over budget, 3 queue full, 4 draining, 0 other).
    Error { code: u64, message: String },
}

impl Response {
    /// Encode into a frame payload: the kind, its fixed words if it has
    /// any, then whatever variable-length sections the kind carries.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.sections().into_bytes()
    }

    /// The payload over this response's own fields: a result container is
    /// borrowed, not copied.
    fn sections(&self) -> SectionList<'_> {
        let (kind, words) = match self {
            Response::Pong { live_jobs } => (K_PONG, vec![*live_jobs]),
            Response::Submitted { id, deduped } => (K_SUBMITTED, vec![*id, *deduped as u64]),
            Response::JobList(jobs) => (K_JOB_LIST, vec![jobs.len() as u64]),
            Response::Cancelled(ok) => (K_CANCELLED, vec![*ok as u64]),
            Response::Drained { finished, persisted, .. } => {
                (K_DRAINED, vec![*finished, *persisted])
            }
            Response::Error { code, .. } => (K_ERROR, vec![*code]),
            Response::ResultBytes(_) => (K_RESULT_BYTES, vec![]),
            Response::Suspended(ok) => (K_SUSPENDED, vec![*ok as u64]),
            Response::Resumed(ok) => (K_RESUMED, vec![*ok as u64]),
        };
        let mut w = SectionList::new(PROTO_MAGIC, PROTO_VERSION);
        w.section(TAG_KIND, bytes_of_u64s(&[kind]));
        if !words.is_empty() {
            w.section(TAG_WORDS, bytes_of_u64s(&words));
        }
        match self {
            Response::JobList(jobs) => {
                for (i, j) in jobs.iter().enumerate() {
                    let base = TAG_JOB_BASE + i as u32 * JOB_STRIDE;
                    let meta = [
                        j.id,
                        word_of(&STATES, j.state),
                        word_of(&QOS, j.qos),
                        j.attempts as u64,
                        j.tasks_done,
                        j.tasks_total,
                        j.wall_ms.unwrap_or(u64::MAX),
                    ];
                    w.section(base, bytes_of_u64s(&meta));
                    w.section(base + 1, j.tag.as_bytes());
                    if let Some(e) = &j.error {
                        w.section(base + 2, e.as_bytes());
                    }
                }
            }
            Response::Drained { suspended, .. } => {
                w.section(TAG_IDS, bytes_of_u64s(suspended));
            }
            Response::Error { message, .. } => {
                w.section(TAG_TEXT, message.as_bytes());
            }
            Response::ResultBytes(blob) => {
                w.section(TAG_BLOB, &blob[..]);
            }
            _ => {}
        }
        w
    }

    /// Decode a frame payload. A result container is taken out of the
    /// frame in place, not copied out of it.
    pub fn from_bytes(mut bytes: Vec<u8>) -> Result<Response, ProtoError> {
        let r = reader(&bytes)?;
        match kind(&r)? {
            K_PONG => Ok(Response::Pong { live_jobs: words1(&r)? }),
            K_SUBMITTED => {
                let w = wordsn(&r, 2)?;
                Ok(Response::Submitted { id: w[0], deduped: w[1] != 0 })
            }
            K_JOB_LIST => {
                // Every job has its own sections: a count beyond the
                // sections present is a lie, refused before allocating.
                let n = words1(&r)?;
                if n >= r.tags().len() as u64 {
                    return bad(format!("a list of {n} jobs in {} sections", r.tags().len()));
                }
                let n = n as usize;
                let mut jobs = Vec::with_capacity(n);
                for i in 0..n {
                    let base = TAG_JOB_BASE + i as u32 * JOB_STRIDE;
                    let raw = r.require(base)?;
                    let m = u64s_of_bytes(base, raw)?;
                    if m.len() != 7 {
                        return bad(format!("job {i}: meta has {} words, want 7", m.len()));
                    }
                    let tag = text(&r, base + 1)?.unwrap_or_default();
                    jobs.push(WireJob {
                        id: m[0],
                        state: of_word(&STATES, m[1], "job state")?,
                        qos: of_word(&QOS, m[2], "qos")?,
                        attempts: narrow(m[3], "job attempts")?,
                        tasks_done: m[4],
                        tasks_total: m[5],
                        error: text(&r, base + 2)?,
                        wall_ms: (m[6] != u64::MAX).then_some(m[6]),
                        tag,
                    });
                }
                Ok(Response::JobList(jobs))
            }
            K_CANCELLED => Ok(Response::Cancelled(words1(&r)? != 0)),
            K_DRAINED => {
                let w = wordsn(&r, 2)?;
                let raw = r.require(TAG_IDS)?;
                let suspended = u64s_of_bytes(TAG_IDS, raw)?;
                Ok(Response::Drained { finished: w[0], suspended, persisted: w[1] })
            }
            K_ERROR => Ok(Response::Error {
                code: words1(&r)?,
                message: text(&r, TAG_TEXT)?.unwrap_or_default(),
            }),
            K_RESULT_BYTES => {
                let raw = r.require(TAG_BLOB)?;
                let start = raw.as_ptr() as usize - bytes.as_ptr() as usize;
                let end = start + raw.len();
                drop(r);
                bytes.truncate(end);
                bytes.drain(..start);
                Ok(Response::ResultBytes(bytes))
            }
            K_SUSPENDED => Ok(Response::Suspended(words1(&r)? != 0)),
            K_RESUMED => Ok(Response::Resumed(words1(&r)? != 0)),
            other => bad(format!("unknown response kind {other}")),
        }
    }
}

fn reader(bytes: &[u8]) -> Result<SectionReader<&[u8]>, ProtoError> {
    Ok(SectionReader::from_bytes(bytes, PROTO_MAGIC, PROTO_VERSION)?)
}

fn kind(r: &SectionReader<&[u8]>) -> Result<u64, ProtoError> {
    let raw = r.require(TAG_KIND)?;
    let words = u64s_of_bytes(TAG_KIND, raw)?;
    match words.as_slice() {
        [k] => Ok(*k),
        _ => bad("kind section must hold exactly one word"),
    }
}

fn wordsn(r: &SectionReader<&[u8]>, n: usize) -> Result<Vec<u64>, ProtoError> {
    let raw = r.require(TAG_WORDS)?;
    let words = u64s_of_bytes(TAG_WORDS, raw)?;
    if words.len() != n {
        return bad(format!("words section has {} entries, want {n}", words.len()));
    }
    Ok(words)
}

fn words1(r: &SectionReader<&[u8]>) -> Result<u64, ProtoError> {
    Ok(wordsn(r, 1)?[0])
}

fn text(r: &SectionReader<&[u8]>, tag: u32) -> Result<Option<String>, ProtoError> {
    let utf8 = |raw: &[u8]| String::from_utf8(raw.to_vec());
    let text = r.section(tag).map(utf8).transpose();
    text.map_err(|_| ProtoError(format!("section {tag} is not UTF-8")))
}

/// Wire words of [`JobState`] and [`QosClass`]: the index in these tables,
/// so the encoder and the decoder cannot drift apart.
const STATES: [JobState; 8] = [
    JobState::Queued,
    JobState::Running,
    JobState::Completed,
    JobState::Backoff,
    JobState::Cancelled,
    JobState::Shed,
    JobState::Quarantined,
    JobState::Suspended,
];
const QOS: [QosClass; 3] = [QosClass::Batch, QosClass::Normal, QosClass::Interactive];

fn word_of<T: PartialEq>(table: &[T], v: T) -> u64 {
    table.iter().position(|x| *x == v).expect("every variant is in its table") as u64
}

fn of_word<T: Copy>(table: &[T], w: u64, what: &str) -> Result<T, ProtoError> {
    match usize::try_from(w).ok().and_then(|i| table.get(i)) {
        Some(v) => Ok(*v),
        None => bad(format!("unknown {what} word {w}")),
    }
}

/// A frame failure as `io::Error`: an oversized frame is `InvalidData`, a
/// frame cut short `UnexpectedEof`.
fn io_error(e: FrameError) -> io::Error {
    let kind = match e {
        FrameError::Io(e) => return e,
        FrameError::TooLarge { .. } => io::ErrorKind::InvalidData,
        FrameError::Truncated => io::ErrorKind::UnexpectedEof,
    };
    io::Error::new(kind, e.to_string())
}

/// Write one length-prefixed frame (`hqr_tile::io::write_frame`: a frame
/// past `MAX_FRAME` writes nothing).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    hqr_tile::io::write_frame(w, payload).map_err(io_error)
}

/// `write_frame(w, &resp.to_bytes())`, except that the payload is sent from
/// where its fields lie — a result container uncopied — in one writev.
pub fn write_response(w: &mut impl Write, resp: &Response) -> io::Result<()> {
    resp.sections().write_frame(w).map_err(io_error)
}

/// Read one length-prefixed frame. Returns `Ok(None)` on a clean EOF at a
/// frame boundary (the peer hung up between exchanges); a truncated frame
/// is an error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut payload = Vec::new();
    Ok(read_frame_into(r, &mut payload).map_err(io_error)?.then_some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqr_runtime::ElimOp;
    use hqr_tile::TiledMatrix;
    use std::time::Duration;

    #[test]
    fn request_roundtrips() {
        let cases = [
            Request::Ping,
            Request::Jobs,
            Request::Cancel(42),
            Request::Drain { grace_ms: 1500 },
            Request::Result(9),
            Request::Suspend(10),
            Request::ResumeJob(10),
        ];
        for req in cases {
            let back = Request::from_bytes(req.to_bytes()).expect("decode");
            assert_eq!(format!("{req:?}"), format!("{back:?}"));
        }
    }

    #[test]
    fn older_protocol_version_is_refused_by_version_not_by_checksum() {
        let mut old_client = Request::Ping.to_bytes();
        old_client[8..12].copy_from_slice(&2u32.to_le_bytes());
        let err = Request::from_bytes(old_client).expect_err("v2 frame must be refused");
        assert!(err.to_string().contains("unsupported format version 2"), "{err}");
    }

    #[test]
    fn submit_roundtrips_spec_and_plan() {
        let elims = vec![ElimOp::new(0, 1, 0, true)];
        let mut spec = JobSpec::fresh(elims, TiledMatrix::random(2, 1, 4, 7));
        spec.qos = QosClass::Interactive;
        spec.deadline = Some(Duration::from_millis(250));
        spec.tag = "tenant-a".into();
        let plan = FaultPlan::new(9).fail_task(0, 2).fail_task(3, 1);
        let req = Request::Submit { spec: Box::new(spec), plan: plan.clone() };
        let bytes = req.to_bytes();
        match Request::from_bytes(bytes).expect("decode") {
            Request::Submit { spec, plan: p } => {
                assert_eq!(spec.tag, "tenant-a");
                assert_eq!(spec.qos, QosClass::Interactive);
                assert_eq!(spec.deadline, Some(Duration::from_millis(250)));
                assert_eq!(p, plan);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn response_roundtrips() {
        let jobs = vec![
            WireJob {
                id: 1,
                tag: "a".into(),
                state: JobState::Completed,
                qos: QosClass::Normal,
                attempts: 1,
                tasks_done: 6,
                tasks_total: 6,
                error: None,
                wall_ms: Some(12),
            },
            WireJob {
                id: 2,
                tag: String::new(),
                state: JobState::Quarantined,
                qos: QosClass::Batch,
                attempts: 3,
                tasks_done: 2,
                tasks_total: 6,
                error: Some("deadline exceeded".into()),
                wall_ms: None,
            },
        ];
        let cases = [
            Response::Pong { live_jobs: 3 },
            Response::Submitted { id: 17, deduped: false },
            Response::Submitted { id: 4, deduped: true },
            Response::JobList(jobs),
            Response::Cancelled(true),
            Response::Drained { finished: 2, suspended: vec![4, 5], persisted: 3 },
            Response::Error { code: 2, message: "over budget".into() },
            Response::ResultBytes(vec![1, 2, 3, 255]),
            Response::Suspended(true),
            Response::Resumed(false),
        ];
        for resp in cases {
            let back = Response::from_bytes(resp.to_bytes()).expect("decode");
            assert_eq!(format!("{resp:?}"), format!("{back:?}"));
        }
    }

    /// The encodings themselves, not just that they round-trip: a daemon
    /// and a client of different builds agree only if these bytes stay put.
    #[test]
    fn wire_encodings_are_pinned() {
        let job = WireJob {
            id: 2,
            tag: "t".into(),
            state: JobState::Quarantined,
            qos: QosClass::Batch,
            attempts: 3,
            tasks_done: 2,
            tasks_total: 6,
            error: Some("deadline exceeded".into()),
            wall_ms: None,
        };
        let spec =
            JobSpec::fresh(vec![ElimOp::new(0, 1, 0, true)], TiledMatrix::random(2, 1, 4, 7));
        let plan = FaultPlan::new(9).fail_task(0, 2).fail_task(3, 1);
        let mut bytes = Vec::new();
        for req in [
            Request::Ping,
            Request::Submit { spec: Box::new(spec), plan },
            Request::Jobs,
            Request::Cancel(42),
            Request::Drain { grace_ms: 1500 },
            Request::Result(9),
            Request::Suspend(10),
            Request::ResumeJob(11),
        ] {
            bytes.extend(req.to_bytes());
        }
        for resp in [
            Response::Pong { live_jobs: 3 },
            Response::Submitted { id: 4, deduped: true },
            Response::JobList(vec![job]),
            Response::Cancelled(true),
            Response::Drained { finished: 2, suspended: vec![4, 5], persisted: 3 },
            Response::Error { code: 2, message: "over budget".into() },
            Response::ResultBytes(vec![1, 2, 3, 255]),
            Response::Suspended(true),
            Response::Resumed(false),
        ] {
            bytes.extend(resp.to_bytes());
        }
        let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!((bytes.len(), fnv), (1685, 12_895_646_396_341_803_543));
    }

    #[test]
    fn result_frames_stream_what_write_frame_sends_and_decode_in_place() {
        for n in [0usize, 1, 7, 8, 4093, 100_000] {
            let blob: Vec<u8> = (0..n).map(|i| (i * 31 % 251) as u8).collect();
            let resp = Response::ResultBytes(blob.clone());
            let mut gathered = Vec::new();
            write_frame(&mut gathered, &resp.to_bytes()).unwrap();
            let mut streamed = Vec::new();
            write_response(&mut streamed, &resp).unwrap();
            assert_eq!(streamed, gathered, "{n}-byte blob");
            let payload = read_frame(&mut std::io::Cursor::new(streamed)).unwrap().unwrap();
            match Response::from_bytes(payload).unwrap() {
                Response::ResultBytes(back) => assert_eq!(back, blob, "{n}-byte blob"),
                other => panic!("wrong response: {other:?}"),
            }
        }
        let mut out = Vec::new();
        write_response(&mut out, &Response::Cancelled(true)).unwrap();
        let mut expect = Vec::new();
        write_frame(&mut expect, &Response::Cancelled(true).to_bytes()).unwrap();
        assert_eq!(out, expect);
    }

    #[test]
    fn frames_roundtrip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cur = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cur).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut cur).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut cur).unwrap(), None);

        let mut lying = Vec::new();
        lying.extend_from_slice(&(hqr_tile::io::MAX_FRAME + 1).to_le_bytes());
        let err = read_frame(&mut std::io::Cursor::new(lying)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// `bytes` with section `tag` carrying `words` instead: a well-formed,
    /// checksummed frame with hostile content.
    fn with_words(bytes: Vec<u8>, tag: u32, words: &[u64]) -> Vec<u8> {
        let r = SectionReader::from_bytes(bytes, PROTO_MAGIC, PROTO_VERSION).unwrap();
        let mut w = SectionList::new(PROTO_MAGIC, PROTO_VERSION);
        for t in r.tags() {
            let payload =
                if t == tag { bytes_of_u64s(words) } else { r.section(t).unwrap().to_vec() };
            w.section(t, payload);
        }
        w.into_bytes()
    }

    #[test]
    fn hostile_plan_words_are_typed_errors() {
        let elims = vec![ElimOp::new(0, 1, 0, true)];
        let spec = JobSpec::fresh(elims, TiledMatrix::random(2, 1, 4, 7));
        let plan = FaultPlan::new(9).fail_task(0, 2);
        let bytes = Request::Submit { spec: Box::new(spec), plan }.to_bytes();
        for (words, why) in [
            (&[9, 1 << 63][..], "length mismatch"),
            (&[9, u64::MAX, 0, 1], "length mismatch"),
            (&[9, 1, (1 << 32) + 1, 1], "plan task 4294967297 overflows u32"),
            (&[9, 1, 0, (1 << 32) + 1], "plan attempts 4294967297 overflows u32"),
        ] {
            let err = Request::from_bytes(with_words(bytes.clone(), TAG_PLAN, words)).unwrap_err();
            assert!(err.to_string().contains(why), "{words:?}: {err}");
        }
        assert!(Request::from_bytes(bytes).is_ok(), "the valid frame decodes as before");
    }

    #[test]
    fn hostile_job_list_count_is_a_typed_error() {
        let bytes = Response::JobList(Vec::new()).to_bytes();
        for n in [1 << 62, u64::MAX, 2] {
            let err = Response::from_bytes(with_words(bytes.clone(), TAG_WORDS, &[n])).unwrap_err();
            assert!(err.to_string().contains(&format!("a list of {n} jobs")), "{err}");
        }
        let err = Response::from_bytes(with_words(bytes.clone(), TAG_WORDS, &[1])).unwrap_err();
        assert!(err.to_string().contains("missing section"), "{err}");
        assert!(matches!(Response::from_bytes(bytes), Ok(Response::JobList(j)) if j.is_empty()));
    }

    #[test]
    fn garbage_is_a_typed_error() {
        assert!(Request::from_bytes(vec![0; 32]).is_err());
        assert!(Response::from_bytes(b"HQRPROT\0junkjunkjunk".to_vec()).is_err());
    }
}
