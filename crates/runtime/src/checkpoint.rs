//! Durable checkpoints of tiled QR factorizations: the file format, and
//! the check that a decoded checkpoint is a resumable state of a plan.
//!
//! [`crate::JobPool`] is the one writer and the one resumer. It takes a
//! checkpoint at a quiescent point of a job's run: the run is halted and
//! no task is in flight. A task completes only after all of its
//! predecessors did, so the completed set is then closed under
//! dependencies: a consistent state with no in-flight coordination to
//! record. [`Checkpoint::capture`] ties that state to its plan, and a
//! [`crate::JobSpec::resume`] of it runs the tasks that are left. A
//! finished job's checkpoint — every task complete — is its stored result
//! (`crate::journal::result_from_bytes`).
//!
//! A checkpoint is a single binary file (section container from
//! [`hqr_tile::io`], `checksum64` trailer, written atomically via a sibling
//! temp file + rename) holding:
//!
//! * a header (`mt`, `nt`, `b`, `ib`, task count, completed count, graph
//!   fingerprint, job id),
//! * the elimination list (so a resume can rebuild the identical graph),
//! * the completed-task bitmap,
//! * the tile store (R above the diagonal, V and V2 below it and in
//!   place), and
//! * the two `TFactors` buffer families (presence bitmap + packed
//!   payloads: each factor kernel's τ, `hqr_kernels::tau_len(b)` doubles).
//!
//! No V copy and no T factor is stored: a resumed run rebuilds the ones
//! its pending readers need from the factored tiles (and τ).
//!
//! The [`graph_fingerprint`] binds a checkpoint to the exact plan that
//! produced it: resuming against a different elimination list, tile
//! layout, or inner block size is rejected with
//! [`CheckpointError::FingerprintMismatch`] instead of producing silent
//! numerical garbage.

use std::borrow::Cow;
use std::fmt;
use std::path::Path;

use hqr_kernels::tau_len;
use hqr_tile::io::{
    bytes_of_u64s, f64s_from_le, f64s_le, fnv1a64, tiled_from_bytes, tiled_parts, u64s_of_bytes,
    BinFormatError, SectionList, SectionReader,
};
use hqr_tile::TiledMatrix;

use crate::analysis::kind_index;
use crate::elim::ElimOp;
use crate::exec::{factor_slots, TFactors};
use crate::graph::TaskGraph;
use crate::task::SlotFamily;

/// Magic bytes opening every checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"HQRCKPT\0";
/// Checkpoint container version (2: `checksum64` trailer; 3: T factors of
/// `t_len(b, ib)` doubles, no longer zero-padded to `b × b`; 4: each T
/// factor is its panels' packed upper triangles; 5: each V copy is V's
/// strict lower triangle, `v_len(b)` doubles, not a `b × b` tile; 6: no V
/// copies, V lives in the factored tiles; 7: each factor slot keeps τ,
/// `tau_len(b)` doubles, not its T). A stored result is a checkpoint
/// container, so it carries this version too.
pub const CHECKPOINT_VERSION: u32 = 7;

const SEC_HEADER: u32 = 1;
const SEC_ELIMS: u32 = 2;
const SEC_DONE: u32 = 3;
const SEC_TILES: u32 = 4;
// Tag 5 held the V copies up to version 5.
const SEC_TG: u32 = 6;
const SEC_TK: u32 = 7;

/// Why a checkpoint could not be written, read, or resumed.
#[derive(Debug)]
pub enum CheckpointError {
    /// The on-disk container is unreadable, truncated, corrupt, or
    /// malformed (see [`BinFormatError`] for the exact failure).
    Format(BinFormatError),
    /// The checkpoint was taken for a different plan (elimination list,
    /// tile layout, or inner block size changed since it was written).
    FingerprintMismatch {
        /// Fingerprint recomputed from the graph being resumed.
        expected: u64,
        /// Fingerprint stored in the checkpoint file.
        found: u64,
    },
    /// The file decoded but its contents are not a consistent runtime
    /// state (bitmap not closed under dependencies, factor buffers that
    /// don't match the graph's allocation pattern, …).
    Inconsistent {
        /// What invariant failed.
        message: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Format(e) => write!(f, "checkpoint format error: {e}"),
            CheckpointError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint fingerprint mismatch: graph expects {expected:#018x}, \
                 file holds {found:#018x} (elimination list, tile layout, or ib changed)"
            ),
            CheckpointError::Inconsistent { message } => {
                write!(f, "inconsistent checkpoint: {message}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Format(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BinFormatError> for CheckpointError {
    fn from(e: BinFormatError) -> Self {
        CheckpointError::Format(e)
    }
}

fn inconsistent(message: impl Into<String>) -> CheckpointError {
    CheckpointError::Inconsistent { message: message.into() }
}

/// Structural fingerprint of a task graph plus the inner block size it
/// will be executed with.
///
/// FNV-1a over `(mt, nt, b, ib)` and every task's `(kind, k, i, piv, j)`.
/// Two graphs share a fingerprint iff they would run the same kernels on
/// the same tiles in the same program order — the condition under which a
/// checkpoint of one is a valid mid-run state of the other.
pub fn graph_fingerprint(graph: &TaskGraph, ib: usize) -> u64 {
    let mut words: Vec<u64> = Vec::with_capacity(5 + 2 * graph.tasks().len());
    words.extend([
        graph.mt() as u64,
        graph.nt() as u64,
        graph.b() as u64,
        ib as u64,
        graph.tasks().len() as u64,
    ]);
    for t in graph.tasks() {
        words.push(
            ((kind_index(t.kind) as u64) << 48)
                | ((t.k as u64) << 32)
                | ((t.i as u64) << 16)
                | t.piv as u64,
        );
        words.push(t.j as u64);
    }
    fnv1a64(&bytes_of_u64s(&words))
}

/// A fully decoded checkpoint: everything needed to rebuild the graph and
/// continue the factorization.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Tile rows of the checkpointed matrix.
    pub mt: usize,
    /// Tile columns.
    pub nt: usize,
    /// Tile size.
    pub b: usize,
    /// Inner block size the run was using (`== b` for unblocked kernels).
    pub ib: usize,
    /// Fingerprint of the graph + `ib` this state belongs to.
    pub fingerprint: u64,
    /// The job this state belongs to: the pool writes the job id of every
    /// checkpoint and result it stores; 0 for a state captured elsewhere.
    pub job: u64,
    /// The elimination list the graph was built from.
    pub elims: Vec<ElimOp>,
    /// Per-task completion bitmap, program order.
    pub completed: Vec<bool>,
    /// The tile store at the quiescent point.
    pub a: TiledMatrix,
    /// T factors accumulated so far.
    pub factors: TFactors,
}

impl Checkpoint {
    /// The checkpoint of `graph` run with the inner block size `factors`
    /// are laid out for, quiesced with `completed` done: the one place the
    /// fingerprint is tied to the state it describes. `job` starts at 0.
    pub fn capture(
        graph: &TaskGraph,
        elims: Vec<ElimOp>,
        completed: Vec<bool>,
        a: TiledMatrix,
        factors: TFactors,
    ) -> Checkpoint {
        let ib = factors.ib;
        Checkpoint {
            mt: graph.mt(),
            nt: graph.nt(),
            b: graph.b(),
            ib,
            fingerprint: graph_fingerprint(graph, ib),
            job: 0,
            elims,
            completed,
            a,
            factors,
        }
    }

    /// Number of tasks marked complete.
    pub fn completed_tasks(&self) -> usize {
        self.completed.iter().filter(|&&d| d).count()
    }

    /// Check this checkpoint is a valid mid-run state of `graph` executed
    /// with inner block size `ib`: the plan's fingerprint, T buffers in
    /// exactly the slots the graph allocates, and a completed set closed
    /// under dependencies.
    pub fn validate_against(&self, graph: &TaskGraph, ib: usize) -> Result<(), CheckpointError> {
        let expected = graph_fingerprint(graph, ib);
        if expected != self.fingerprint {
            return Err(CheckpointError::FingerprintMismatch { expected, found: self.fingerprint });
        }
        if graph.tasks().len() != self.completed.len() {
            return Err(inconsistent("bitmap length does not match task count"));
        }
        // A slot mismatch pairs the bitmap with foreign buffers: a missing
        // one is a kernel writing through nothing.
        let families = [SlotFamily::Tg, SlotFamily::Tk];
        let mut allocated = families.map(|_| vec![false; graph.mt() * graph.nt()]);
        for (fam, i, k) in factor_slots(graph) {
            allocated[families.iter().position(|&f| f == fam).expect("a T family")]
                [i + k * graph.mt()] = true;
        }
        let f = &self.factors;
        let present = [&f.tg, &f.tk].map(|v| v.iter().map(Option::is_some).collect::<Vec<_>>());
        if present != allocated {
            return Err(inconsistent("factor buffers do not match the graph's allocation pattern"));
        }
        // Closure under dependencies: no completed task may have a
        // pending predecessor.
        for p in 0..graph.tasks().len() {
            if self.completed[p] {
                continue;
            }
            for &s in graph.successors(p) {
                if self.completed[s as usize] {
                    return Err(inconsistent(format!(
                        "completed task {s} depends on pending task {p}"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Pack an elimination list as `[count, (k, victim, killer, ts)*]` words —
/// the encoding shared by checkpoint files and encoded job specs.
pub(crate) fn elims_to_words(elims: &[ElimOp]) -> Vec<u64> {
    let mut words: Vec<u64> = Vec::with_capacity(1 + 4 * elims.len());
    words.push(elims.len() as u64);
    for e in elims {
        words.extend([e.k as u64, e.victim as u64, e.killer as u64, e.ts as u64]);
    }
    words
}

/// Decode the inverse of [`elims_to_words`], reporting malformed input
/// against section `tag`.
pub(crate) fn elims_from_words(tag: u32, words: &[u64]) -> Result<Vec<ElimOp>, CheckpointError> {
    let (&count, body) = words.split_first().ok_or_else(|| {
        CheckpointError::Format(BinFormatError::BadSection {
            tag,
            message: "missing elimination count".into(),
        })
    })?;
    // The count is checked against the words the section really holds, so
    // a hostile count neither overflows nor sizes an allocation.
    if !body.len().is_multiple_of(4) || (body.len() / 4) as u64 != count {
        return Err(CheckpointError::Format(BinFormatError::BadSection {
            tag,
            message: format!("{} words for {count} eliminations", words.len()),
        }));
    }
    let mut elims = Vec::with_capacity(body.len() / 4);
    for chunk in body.chunks_exact(4) {
        let narrow = |v: u64, what: &str| {
            u32::try_from(v).map_err(|_| {
                CheckpointError::Format(BinFormatError::BadSection {
                    tag,
                    message: format!("{what} {v} overflows u32"),
                })
            })
        };
        elims.push(ElimOp::new(
            narrow(chunk[0], "panel")?,
            narrow(chunk[1], "victim")?,
            narrow(chunk[2], "killer")?,
            chunk[3] != 0,
        ));
    }
    Ok(elims)
}

fn bitmap_to_words(bits: &[bool]) -> Vec<u64> {
    let mut words = vec![0u64; bits.len().div_ceil(64)];
    for (i, &bit) in bits.iter().enumerate() {
        if bit {
            words[i / 64] |= 1u64 << (i % 64);
        }
    }
    words
}

fn bitmap_from_words(tag: u32, words: &[u64], nbits: usize) -> Result<Vec<bool>, CheckpointError> {
    if words.len() != nbits.div_ceil(64) {
        return Err(CheckpointError::Format(BinFormatError::BadSection {
            tag,
            message: format!("bitmap holds {} words, expected {}", words.len(), nbits.div_ceil(64)),
        }));
    }
    let bits: Vec<bool> = (0..nbits).map(|i| words[i / 64] >> (i % 64) & 1 == 1).collect();
    // Padding bits past `nbits` must be zero, or the file was tampered with.
    for (w, &word) in words.iter().enumerate() {
        let live = if (w + 1) * 64 <= nbits { 64 } else { nbits.saturating_sub(w * 64) };
        if live < 64 && word >> live != 0 {
            return Err(CheckpointError::Format(BinFormatError::BadSection {
                tag,
                message: "nonzero padding bits in bitmap".into(),
            }));
        }
    }
    Ok(bits)
}

/// One `TFactors` family as [`SectionList`] pieces: presence bitmap words,
/// then the payloads of present slots in index order, in place.
fn family_parts(family: &[Option<Box<[f64]>>]) -> impl Iterator<Item = Cow<'_, [u8]>> {
    let present: Vec<bool> = family.iter().map(Option::is_some).collect();
    let bitmap = Cow::Owned(bytes_of_u64s(&bitmap_to_words(&present)));
    std::iter::once(bitmap).chain(family.iter().flatten().map(|t| f64s_le(t)))
}

/// Decode a family of `slots` slots whose buffers hold `len` doubles each:
/// presence bitmap words, then the present buffers in index order.
fn family_from_bytes(
    tag: u32,
    bytes: &[u8],
    slots: usize,
    len: usize,
) -> Result<Vec<Option<Box<[f64]>>>, CheckpointError> {
    let words = slots.div_ceil(64);
    if bytes.len() < words * 8 {
        return Err(CheckpointError::Format(BinFormatError::BadSection {
            tag,
            message: format!("family section too short for {slots}-slot bitmap"),
        }));
    }
    let (bitmap_bytes, payload_bytes) = bytes.split_at(words * 8);
    let present = bitmap_from_words(tag, &u64s_of_bytes(tag, bitmap_bytes)?, slots)?;
    let count = present.iter().filter(|&&p| p).count();
    // Checked: `len` comes from the file, and a wrapped product could match
    // the payload length by accident.
    let per_buffer = len.checked_mul(8);
    let expect = per_buffer.and_then(|x| x.checked_mul(count));
    let (Some(per_buffer), Some(expect)) = (per_buffer, expect) else {
        return Err(CheckpointError::Format(BinFormatError::BadSection {
            tag,
            message: format!("{count} buffers of {len} doubles overflow"),
        }));
    };
    if payload_bytes.len() != expect {
        return Err(CheckpointError::Format(BinFormatError::BadSection {
            tag,
            message: format!(
                "family payload holds {} bytes, expected {expect} ({count} buffers of {len} doubles)",
                payload_bytes.len(),
            ),
        }));
    }
    let mut buffers = (0..count).map(|n| &payload_bytes[n * per_buffer..][..per_buffer]);
    let mut family: Vec<Option<Box<[f64]>>> = Vec::with_capacity(slots);
    for &p in &present {
        family.push(match p {
            true => {
                let mut buf = vec![0.0; len].into_boxed_slice();
                let bytes = buffers.next().expect("payload length checked above");
                f64s_from_le(tag, bytes, &mut buf)?;
                Some(buf)
            }
            false => None,
        });
    }
    Ok(family)
}

/// A checkpoint as a section container over its own buffers, ready for
/// [`SectionList::into_bytes`] or [`SectionList::write_atomic`] — what the
/// result store streams to a finished job's file.
pub(crate) fn checkpoint_sections(ckpt: &Checkpoint) -> SectionList<'_> {
    let header = [
        ckpt.mt as u64,
        ckpt.nt as u64,
        ckpt.b as u64,
        ckpt.ib as u64,
        ckpt.completed.len() as u64,
        ckpt.completed_tasks() as u64,
        ckpt.fingerprint,
        ckpt.job,
    ];
    let elims = elims_to_words(&ckpt.elims);
    let mut w = SectionList::new(CHECKPOINT_MAGIC, CHECKPOINT_VERSION);
    w.section(SEC_HEADER, bytes_of_u64s(&header))
        .section(SEC_ELIMS, bytes_of_u64s(&elims))
        .section(SEC_DONE, bytes_of_u64s(&bitmap_to_words(&ckpt.completed)))
        .section_of(SEC_TILES, tiled_parts(&ckpt.a));
    let f = &ckpt.factors;
    for (tag, family) in [(SEC_TG, &f.tg), (SEC_TK, &f.tk)] {
        w.section_of(tag, family_parts(family));
    }
    w
}

/// Write `ckpt` to `path` atomically (sibling temp file + rename).
pub fn write_checkpoint(path: &Path, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
    checkpoint_sections(ckpt).write_atomic(path)?;
    Ok(())
}

/// Serialize a checkpoint into the same checksummed container bytes
/// [`write_checkpoint`] puts on disk — used to embed a checkpoint inside an
/// encoded resume-job spec.
pub fn checkpoint_to_bytes(ckpt: &Checkpoint) -> Vec<u8> {
    checkpoint_sections(ckpt).into_bytes()
}

/// Decode checkpoint container bytes (the inverse of
/// [`checkpoint_to_bytes`]), verifying the container checksum and every
/// section's internal consistency.
pub fn checkpoint_from_bytes(bytes: Vec<u8>) -> Result<Checkpoint, CheckpointError> {
    decode_checkpoint(SectionReader::from_bytes(bytes, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)?)
}

/// Read and fully decode a checkpoint file, verifying the container
/// checksum and every section's internal consistency.
pub fn read_checkpoint(path: &Path) -> Result<Checkpoint, CheckpointError> {
    decode_checkpoint(SectionReader::read(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)?)
}

fn decode_checkpoint(r: SectionReader) -> Result<Checkpoint, CheckpointError> {
    let header = u64s_of_bytes(SEC_HEADER, r.require(SEC_HEADER)?)?;
    if header.len() != 8 {
        return Err(CheckpointError::Format(BinFormatError::BadSection {
            tag: SEC_HEADER,
            message: format!("header holds {} words, expected 8", header.len()),
        }));
    }
    let [mt, nt, b, ib, ntasks, ncompleted, fingerprint, job] =
        [header[0], header[1], header[2], header[3], header[4], header[5], header[6], header[7]];
    let (mt, nt, b, ib, ntasks) =
        (mt as usize, nt as usize, b as usize, ib as usize, ntasks as usize);
    if mt == 0 || nt == 0 || b == 0 || ib == 0 || ib > b || b.checked_mul(b).is_none() {
        return Err(inconsistent(format!("degenerate shape mt={mt} nt={nt} b={b} ib={ib}")));
    }

    let elim_words = u64s_of_bytes(SEC_ELIMS, r.require(SEC_ELIMS)?)?;
    let elims = elims_from_words(SEC_ELIMS, &elim_words)?;

    let completed =
        bitmap_from_words(SEC_DONE, &u64s_of_bytes(SEC_DONE, r.require(SEC_DONE)?)?, ntasks)?;
    let found_done = completed.iter().filter(|&&d| d).count();
    if found_done as u64 != ncompleted {
        return Err(inconsistent(format!(
            "header claims {ncompleted} completed tasks, bitmap holds {found_done}"
        )));
    }

    let a = tiled_from_bytes(SEC_TILES, r.require(SEC_TILES)?)?;
    if a.mt() != mt || a.nt() != nt || a.b() != b {
        return Err(inconsistent(format!(
            "tile store is {}x{} tiles of {} but header says {mt}x{nt} of {b}",
            a.mt(),
            a.nt(),
            a.b()
        )));
    }

    let slots = mt * nt;
    let mut factors = TFactors::empty(mt, nt, b, ib);
    for (tag, fam) in [(SEC_TG, SlotFamily::Tg), (SEC_TK, SlotFamily::Tk)] {
        let family = family_from_bytes(tag, r.require(tag)?, slots, tau_len(b))?;
        *factors.family_mut(fam).expect("a factor family") = family;
    }

    Ok(Checkpoint { mt, nt, b, ib, fingerprint, job, elims, completed, a, factors })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// `bytes`, a container of `magic`/`version`, with section `tag`
    /// carrying `words` instead: well-formed and checksummed, but hostile.
    pub(crate) fn with_words(
        bytes: Vec<u8>,
        (magic, version): ([u8; 8], u32),
        tag: u32,
        words: &[u64],
    ) -> Vec<u8> {
        let r = SectionReader::from_bytes(bytes, magic, version).unwrap();
        let mut w = SectionList::new(magic, version);
        for t in r.tags() {
            let payload =
                if t == tag { bytes_of_u64s(words) } else { r.section(t).unwrap().to_vec() };
            w.section(t, payload);
        }
        w.into_bytes()
    }

    #[test]
    fn hostile_elimination_count_is_a_typed_error() {
        let elims = vec![ElimOp::new(0, 1, 0, true)];
        let graph = TaskGraph::build(2, 1, 4, &elims);
        let factors = TFactors::allocate_for(&graph, 2);
        let done = vec![false; graph.tasks().len()];
        let a = TiledMatrix::random(2, 1, 4, 5);
        let bytes = checkpoint_to_bytes(&Checkpoint::capture(&graph, elims, done, a, factors));
        let format = (CHECKPOINT_MAGIC, CHECKPOINT_VERSION);
        for words in [&[1 << 62][..], &[u64::MAX], &[1 << 62, 0, 1, 0, 1], &[2, 0, 1, 0, 1]] {
            let hostile = with_words(bytes.clone(), format, SEC_ELIMS, words);
            assert!(
                matches!(
                    checkpoint_from_bytes(hostile),
                    Err(CheckpointError::Format(BinFormatError::BadSection { tag: SEC_ELIMS, .. }))
                ),
                "{words:?}"
            );
        }
        assert_eq!(checkpoint_from_bytes(bytes).expect("the valid file decodes").elims.len(), 1);
    }

    /// A finished job written by a version-3 binary, which stored each T
    /// factor as `ib` rows by `b` columns (each panel's triangle over
    /// zeros), is refused by its version, as a checkpoint and as a stored
    /// result alike, and never decoded against packed lengths.
    #[test]
    fn a_checkpoint_or_result_from_before_packed_t_is_a_version_error() {
        let (b, ib) = (4, 2);
        let elims = vec![ElimOp::new(0, 1, 0, true)];
        let graph = TaskGraph::build(2, 1, b, &elims);
        let mut a = TiledMatrix::random(2, 1, b, 5);
        let factors = crate::exec::execute_serial_ib(&graph, &mut a, ib);
        let done = vec![true; graph.tasks().len()];
        let ckpt = Checkpoint { job: 9, ..Checkpoint::capture(&graph, elims, done, a, factors) };
        let unpacked = |t: &[f64]| -> Box<[f64]> {
            let (mut old, mut tri) = (Vec::new(), t.iter());
            for j in 0..b {
                old.extend(tri.by_ref().take(j % ib + 1));
                old.resize(old.len() + ib - (j % ib + 1), 0.0);
            }
            old.into()
        };
        let bytes = checkpoint_to_bytes(&ckpt);
        let r = SectionReader::from_bytes(bytes, CHECKPOINT_MAGIC, CHECKPOINT_VERSION).unwrap();
        let mut w = SectionList::new(CHECKPOINT_MAGIC, 3);
        for tag in r.tags() {
            let payload = match tag {
                SEC_TG | SEC_TK => {
                    let family = if tag == SEC_TG { &ckpt.factors.tg } else { &ckpt.factors.tk };
                    let old: Vec<_> = family.iter().map(|t| t.as_deref().map(unpacked)).collect();
                    family_parts(&old).flat_map(Cow::into_owned).collect()
                }
                _ => r.section(tag).unwrap().to_vec(),
            };
            w.section(tag, payload);
        }
        let old = w.into_bytes();
        let refused = |e: &BinFormatError| {
            matches!(
                e,
                BinFormatError::UnsupportedVersion { expected: CHECKPOINT_VERSION, found: 3 }
            )
        };
        match checkpoint_from_bytes(old.clone()) {
            Err(CheckpointError::Format(e)) if refused(&e) => {}
            other => panic!("a version-3 checkpoint: {other:?}"),
        }
        match crate::journal::result_from_bytes(old) {
            Err(crate::journal::JournalError::Format(e)) if refused(&e) => {}
            other => panic!("a version-3 stored result: {:?}", other.map(|r| r.id)),
        }
    }

    /// A checkpoint or stored result written by a version-6 binary carries
    /// each factor slot's whole T (`t_len(b, ib)` doubles) where version 7
    /// keeps τ. It is refused by its version, as a checkpoint and as a
    /// stored result alike, and never decoded as a state whose T sections
    /// fail on their lengths, or worse, are read as τ.
    #[test]
    fn a_checkpoint_or_result_with_t_factors_is_a_version_error() {
        use hqr_kernels::{t_from_tau, t_len, KernelKind};
        let (b, ib) = (4, 2);
        // A TT kill: both rows are factored by a GEQRT.
        let elims = vec![ElimOp::new(0, 1, 0, false)];
        let graph = TaskGraph::build(2, 1, b, &elims);
        let mut a = TiledMatrix::random(2, 1, b, 6);
        let factors = crate::exec::execute_serial_ib(&graph, &mut a, ib);
        let done = vec![true; graph.tasks().len()];
        let ckpt = Checkpoint { job: 10, ..Checkpoint::capture(&graph, elims, done, a, factors) };
        let t = |fam: SlotFamily, i: usize, kind: KernelKind| {
            let mut t = vec![0.0; t_len(b, ib)];
            let tau = ckpt.factors.slot(fam, i, 0).expect("a factor slot");
            t_from_tau(kind, b, ib, ckpt.a.tile(i, 0), tau, &mut t);
            Some(t.into_boxed_slice())
        };
        let tg = [t(SlotFamily::Tg, 0, KernelKind::Geqrt), t(SlotFamily::Tg, 1, KernelKind::Geqrt)];
        let tk = [None, t(SlotFamily::Tk, 1, KernelKind::Ttqrt)];
        assert_ne!(t_len(b, ib), tau_len(b), "a T section is longer than a τ one");
        let bytes = checkpoint_to_bytes(&ckpt);
        let r = SectionReader::from_bytes(bytes, CHECKPOINT_MAGIC, CHECKPOINT_VERSION).unwrap();
        let mut w = SectionList::new(CHECKPOINT_MAGIC, 6);
        for tag in r.tags() {
            match tag {
                SEC_TG => w.section_of(tag, family_parts(&tg)),
                SEC_TK => w.section_of(tag, family_parts(&tk)),
                _ => w.section(tag, r.section(tag).unwrap().to_vec()),
            };
        }
        let old = w.into_bytes();
        let refused = |e: &BinFormatError| {
            matches!(e, BinFormatError::UnsupportedVersion { expected: 7, found: 6 })
        };
        match checkpoint_from_bytes(old.clone()) {
            Err(CheckpointError::Format(e)) if refused(&e) => {}
            other => panic!("a version-6 checkpoint: {:?}", other.map(|c| c.job)),
        }
        match crate::journal::result_from_bytes(old) {
            Err(crate::journal::JournalError::Format(e)) if refused(&e) => {}
            other => panic!("a version-6 stored result: {:?}", other.map(|r| r.id)),
        }
    }

    /// A factorization of 1 x 1 tiles survives a checkpoint round trip:
    /// its τ are one double each, and it has no V to store.
    #[test]
    fn a_one_by_one_tile_checkpoint_round_trips() {
        let elims = vec![ElimOp::new(0, 1, 0, false)];
        let graph = TaskGraph::build(2, 1, 1, &elims);
        let mut a = TiledMatrix::random(2, 1, 1, 7);
        let factors = crate::exec::execute_serial_ib(&graph, &mut a, 1);
        assert_eq!(factors.tg(1, 0).map(<[f64]>::len), Some(1));
        let done = vec![true; graph.tasks().len()];
        let ckpt = Checkpoint::capture(&graph, elims, done, a, factors);
        let back = checkpoint_from_bytes(checkpoint_to_bytes(&ckpt)).expect("decodes");
        assert!(back.factors.bitwise_eq(&ckpt.factors));
        assert_eq!(back.a.to_dense().data(), ckpt.a.to_dense().data());
        back.validate_against(&graph, 1).expect("a valid state of its plan");
    }
}
