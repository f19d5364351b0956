//! Wire messages: checksummed sectioned containers inside length frames.
//!
//! Every message is one `hqr_tile::io` sectioned container — the same
//! `magic | version | (tag,len,payload)* | checksum64 trailer` format the
//! checkpoint and journal files use on disk — carried in one
//! length-prefixed frame. Decoding therefore validates magic, version,
//! per-section bounds, and the whole-container checksum before any field
//! is believed; corruption anywhere yields a typed [`NetError::Frame`],
//! never a panic. Dispatch is by a kind word, mirroring the job-service
//! protocol in `hqr-cli`.
//!
//! A tile crosses each hop in three passes over its bytes: the `f64`s of
//! [`Msg::Put`] / [`Msg::SlotData`] are encoded straight into the frame's
//! buffer (`SectionWriter::section_f64s`), the trailer is the memory-speed
//! word-parallel `checksum64`, and the receiver verifies it and decodes
//! the payload once, into the message's `Vec<f64>`. Version 2 is the
//! first with that trailer; a version-1 peer is refused as
//! `UnsupportedVersion` before any checksum is compared.

use crate::error::NetError;
use crate::frame::{read_frame, write_frame};
use hqr_kernels::KernelKind;
use hqr_runtime::task::SlotFamily;
use hqr_runtime::Task;
use hqr_tile::io::{bytes_of_u64s, f64s_of_bytes, u64s_of_bytes, SectionReader, SectionWriter};
use std::io::{Read, Write};
use std::time::Duration;

/// Container magic for every net message.
pub const NET_MAGIC: [u8; 8] = *b"HQRNETV0";
/// Protocol version; bumped on any incompatible change.
pub const NET_VERSION: u32 = 2;

const TAG_KIND: u32 = 1;
const TAG_META: u32 = 2;
const TAG_DATA: u32 = 3;
const TAG_TEXT: u32 = 4;

const KIND_HELLO: u64 = 1;
const KIND_HELLO_OK: u64 = 2;
const KIND_PUT: u64 = 3;
const KIND_PUT_OK: u64 = 4;
const KIND_GET: u64 = 5;
const KIND_SLOT_DATA: u64 = 6;
const KIND_RUN: u64 = 7;
const KIND_DONE: u64 = 8;
const KIND_PING: u64 = 9;
const KIND_PONG: u64 = 10;
const KIND_DIE: u64 = 11;
const KIND_SHUTDOWN: u64 = 12;
const KIND_BYE: u64 = 13;
const KIND_ERR: u64 = 14;

/// One protocol message.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// Coordinator introduces a run to a worker.
    Hello {
        /// Identifies the run; a worker serves one run at a time.
        run_id: u64,
        /// Tile rows of the matrix.
        mt: u64,
        /// Tile columns of the matrix.
        nt: u64,
        /// Tile side length.
        b: u64,
        /// Inner block size (`ib == b` selects unblocked kernels).
        ib: u64,
    },
    /// Worker acknowledges the run configuration.
    HelloOk,
    /// Install one slot's `b*b` buffer on the worker.
    Put {
        /// Slot family.
        fam: SlotFamily,
        /// Tile row.
        i: u64,
        /// Tile column.
        j: u64,
        /// The buffer, exactly `b*b` doubles.
        data: Vec<f64>,
    },
    /// Put acknowledged.
    PutOk,
    /// Fetch one slot's buffer.
    Get {
        /// Slot family.
        fam: SlotFamily,
        /// Tile row.
        i: u64,
        /// Tile column.
        j: u64,
    },
    /// Reply to [`Msg::Get`].
    SlotData {
        /// Slot family.
        fam: SlotFamily,
        /// Tile row.
        i: u64,
        /// Tile column.
        j: u64,
        /// The buffer.
        data: Vec<f64>,
    },
    /// Execute one kernel task (idempotent: re-sends of the same
    /// `task_id` wait for / reuse the first execution).
    Run {
        /// Coordinator's task index — the dedup key.
        task_id: u64,
        /// The kernel task itself.
        task: Task,
    },
    /// Task finished.
    Done {
        /// Echo of the request's task id.
        task_id: u64,
    },
    /// Heartbeat probe.
    Ping {
        /// Monotonic sequence number.
        seq: u64,
    },
    /// Heartbeat reply.
    Pong {
        /// Echo of the probe's sequence number.
        seq: u64,
    },
    /// Chaos kill switch: `hard` aborts the process (SIGKILL-equivalent);
    /// otherwise the worker severs every connection and stops serving.
    Die {
        /// Abort the whole process instead of severing.
        hard: bool,
    },
    /// Orderly shutdown request.
    Shutdown,
    /// Orderly shutdown acknowledged.
    Bye,
    /// Application-level failure report.
    Err {
        /// Human-readable reason.
        detail: String,
    },
}

fn fam_code(f: SlotFamily) -> u64 {
    match f {
        SlotFamily::A => 0,
        SlotFamily::Vg => 1,
        SlotFamily::Tg => 2,
        SlotFamily::Tk => 3,
    }
}

fn fam_of(code: u64) -> Result<SlotFamily, NetError> {
    Ok(match code {
        0 => SlotFamily::A,
        1 => SlotFamily::Vg,
        2 => SlotFamily::Tg,
        3 => SlotFamily::Tk,
        other => return Err(NetError::Proto(format!("unknown slot family code {other}"))),
    })
}

fn kind_code(k: KernelKind) -> u64 {
    match k {
        KernelKind::Geqrt => 0,
        KernelKind::Unmqr => 1,
        KernelKind::Tsqrt => 2,
        KernelKind::Tsmqr => 3,
        KernelKind::Ttqrt => 4,
        KernelKind::Ttmqr => 5,
    }
}

fn kind_of(code: u64) -> Result<KernelKind, NetError> {
    Ok(match code {
        0 => KernelKind::Geqrt,
        1 => KernelKind::Unmqr,
        2 => KernelKind::Tsqrt,
        3 => KernelKind::Tsmqr,
        4 => KernelKind::Ttqrt,
        5 => KernelKind::Ttmqr,
        other => return Err(NetError::Proto(format!("unknown kernel kind code {other}"))),
    })
}

fn u16_of(v: u64, what: &str) -> Result<u16, NetError> {
    u16::try_from(v).map_err(|_| NetError::Proto(format!("{what} {v} out of u16 range")))
}

impl Msg {
    /// Encode into one checksummed container.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SectionWriter::new(NET_MAGIC, NET_VERSION);
        match self {
            Msg::Hello { run_id, mt, nt, b, ib } => {
                w.section(TAG_KIND, &bytes_of_u64s(&[KIND_HELLO]));
                w.section(TAG_META, &bytes_of_u64s(&[*run_id, *mt, *nt, *b, *ib]));
            }
            Msg::HelloOk => {
                w.section(TAG_KIND, &bytes_of_u64s(&[KIND_HELLO_OK]));
            }
            Msg::Put { fam, i, j, data } => {
                w.section(TAG_KIND, &bytes_of_u64s(&[KIND_PUT]));
                w.section(TAG_META, &bytes_of_u64s(&[fam_code(*fam), *i, *j]));
                w.section_f64s(TAG_DATA, data);
            }
            Msg::PutOk => {
                w.section(TAG_KIND, &bytes_of_u64s(&[KIND_PUT_OK]));
            }
            Msg::Get { fam, i, j } => {
                w.section(TAG_KIND, &bytes_of_u64s(&[KIND_GET]));
                w.section(TAG_META, &bytes_of_u64s(&[fam_code(*fam), *i, *j]));
            }
            Msg::SlotData { fam, i, j, data } => {
                w.section(TAG_KIND, &bytes_of_u64s(&[KIND_SLOT_DATA]));
                w.section(TAG_META, &bytes_of_u64s(&[fam_code(*fam), *i, *j]));
                w.section_f64s(TAG_DATA, data);
            }
            Msg::Run { task_id, task } => {
                w.section(TAG_KIND, &bytes_of_u64s(&[KIND_RUN]));
                w.section(
                    TAG_META,
                    &bytes_of_u64s(&[
                        *task_id,
                        kind_code(task.kind),
                        task.k as u64,
                        task.i as u64,
                        task.piv as u64,
                        task.j as u64,
                    ]),
                );
            }
            Msg::Done { task_id } => {
                w.section(TAG_KIND, &bytes_of_u64s(&[KIND_DONE]));
                w.section(TAG_META, &bytes_of_u64s(&[*task_id]));
            }
            Msg::Ping { seq } => {
                w.section(TAG_KIND, &bytes_of_u64s(&[KIND_PING]));
                w.section(TAG_META, &bytes_of_u64s(&[*seq]));
            }
            Msg::Pong { seq } => {
                w.section(TAG_KIND, &bytes_of_u64s(&[KIND_PONG]));
                w.section(TAG_META, &bytes_of_u64s(&[*seq]));
            }
            Msg::Die { hard } => {
                w.section(TAG_KIND, &bytes_of_u64s(&[KIND_DIE]));
                w.section(TAG_META, &bytes_of_u64s(&[u64::from(*hard)]));
            }
            Msg::Shutdown => {
                w.section(TAG_KIND, &bytes_of_u64s(&[KIND_SHUTDOWN]));
            }
            Msg::Bye => {
                w.section(TAG_KIND, &bytes_of_u64s(&[KIND_BYE]));
            }
            Msg::Err { detail } => {
                w.section(TAG_KIND, &bytes_of_u64s(&[KIND_ERR]));
                w.section(TAG_TEXT, detail.as_bytes());
            }
        }
        w.into_bytes()
    }

    /// Decode a container, validating checksum and structure throughout.
    pub fn decode(bytes: Vec<u8>) -> Result<Msg, NetError> {
        let r = SectionReader::from_bytes(bytes, NET_MAGIC, NET_VERSION)?;
        let kind = *u64s_of_bytes(TAG_KIND, r.require(TAG_KIND)?)?
            .first()
            .ok_or_else(|| NetError::Proto("empty kind section".into()))?;
        let meta = |n: usize| -> Result<Vec<u64>, NetError> {
            let v = u64s_of_bytes(TAG_META, r.require(TAG_META)?)?;
            if v.len() < n {
                return Err(NetError::Proto(format!(
                    "meta section has {} words, message kind {kind} needs {n}",
                    v.len()
                )));
            }
            Ok(v)
        };
        Ok(match kind {
            KIND_HELLO => {
                let m = meta(5)?;
                Msg::Hello { run_id: m[0], mt: m[1], nt: m[2], b: m[3], ib: m[4] }
            }
            KIND_HELLO_OK => Msg::HelloOk,
            KIND_PUT => {
                let m = meta(3)?;
                let data = f64s_of_bytes(TAG_DATA, r.require(TAG_DATA)?)?;
                Msg::Put { fam: fam_of(m[0])?, i: m[1], j: m[2], data }
            }
            KIND_PUT_OK => Msg::PutOk,
            KIND_GET => {
                let m = meta(3)?;
                Msg::Get { fam: fam_of(m[0])?, i: m[1], j: m[2] }
            }
            KIND_SLOT_DATA => {
                let m = meta(3)?;
                let data = f64s_of_bytes(TAG_DATA, r.require(TAG_DATA)?)?;
                Msg::SlotData { fam: fam_of(m[0])?, i: m[1], j: m[2], data }
            }
            KIND_RUN => {
                let m = meta(6)?;
                let task = Task {
                    kind: kind_of(m[1])?,
                    k: u16_of(m[2], "k")?,
                    i: u16_of(m[3], "i")?,
                    piv: u16_of(m[4], "piv")?,
                    j: u16_of(m[5], "j")?,
                };
                Msg::Run { task_id: m[0], task }
            }
            KIND_DONE => Msg::Done { task_id: meta(1)?[0] },
            KIND_PING => Msg::Ping { seq: meta(1)?[0] },
            KIND_PONG => Msg::Pong { seq: meta(1)?[0] },
            KIND_DIE => Msg::Die { hard: meta(1)?[0] != 0 },
            KIND_SHUTDOWN => Msg::Shutdown,
            KIND_BYE => Msg::Bye,
            KIND_ERR => {
                let text = r.require(TAG_TEXT)?;
                Msg::Err {
                    detail: String::from_utf8(text.to_vec())
                        .map_err(|_| NetError::Proto("error detail is not UTF-8".into()))?,
                }
            }
            other => return Err(NetError::Proto(format!("unknown message kind {other}"))),
        })
    }
}

/// Send one message as one frame.
pub fn send_msg(w: &mut impl Write, msg: &Msg) -> Result<(), NetError> {
    write_frame(w, &msg.encode())
}

/// Receive one message under the socket's configured read deadline.
pub fn recv_msg(r: &mut impl Read, what: &str, deadline: Duration) -> Result<Msg, NetError> {
    Msg::decode(read_frame(r, what, deadline)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Msg> {
        vec![
            Msg::Hello { run_id: 7, mt: 8, nt: 4, b: 16, ib: 8 },
            Msg::HelloOk,
            Msg::Put { fam: SlotFamily::A, i: 3, j: 1, data: vec![1.5, -0.0, f64::MAX] },
            Msg::PutOk,
            Msg::Get { fam: SlotFamily::Tk, i: 0, j: 0 },
            Msg::SlotData { fam: SlotFamily::Vg, i: 2, j: 2, data: vec![0.25; 9] },
            Msg::Run { task_id: 42, task: Task::update(1, 3, 2, 5, true) },
            Msg::Done { task_id: 42 },
            Msg::Ping { seq: 9 },
            Msg::Pong { seq: 9 },
            Msg::Die { hard: true },
            Msg::Die { hard: false },
            Msg::Shutdown,
            Msg::Bye,
            Msg::Err { detail: "no such slot".into() },
        ]
    }

    #[test]
    fn every_message_roundtrips() {
        for m in samples() {
            let decoded = Msg::decode(m.encode()).unwrap();
            assert_eq!(decoded, m);
        }
    }

    #[test]
    fn run_preserves_kernel_kind_exactly() {
        for task in [
            Task::geqrt(0, 0),
            Task::unmqr(0, 0, 1),
            Task::kill(0, 1, 0, true),
            Task::kill(0, 1, 0, false),
            Task::update(0, 1, 0, 1, true),
            Task::update(0, 1, 0, 1, false),
        ] {
            let m = Msg::Run { task_id: 1, task };
            assert_eq!(Msg::decode(m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn bit_flips_are_typed_errors_never_panics() {
        for m in samples() {
            let clean = m.encode();
            for byte in 0..clean.len() {
                for bit in [0u8, 3, 7] {
                    let mut dirty = clean.clone();
                    dirty[byte] ^= 1 << bit;
                    // Magic/version flips fail structurally; any other flip
                    // fails the checksum trailer (each absorb step is
                    // injective, so one flipped byte always changes the
                    // sum). Either way: typed error, no panic.
                    assert!(Msg::decode(dirty).is_err(), "flip at {byte}.{bit} accepted");
                }
            }
        }
    }

    #[test]
    fn truncation_at_every_cut_is_a_typed_error() {
        let clean = Msg::Put { fam: SlotFamily::A, i: 1, j: 2, data: vec![3.0; 16] }.encode();
        for cut in 0..clean.len() {
            assert!(Msg::decode(clean[..cut].to_vec()).is_err(), "cut {cut} accepted");
        }
    }

    #[test]
    fn wrong_magic_and_version_rejected() {
        let clean = Msg::Ping { seq: 1 }.encode();
        let mut bad_magic = clean.clone();
        bad_magic[0] ^= 0xFF;
        assert!(Msg::decode(bad_magic).is_err());
        // A version-1 peer (FNV trailer) is told its version is wrong; the
        // differing checksum is never what it hears about.
        let mut old_peer = clean;
        old_peer[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            Msg::decode(old_peer),
            Err(NetError::Frame(hqr_tile::BinFormatError::UnsupportedVersion {
                expected: NET_VERSION,
                found: 1
            }))
        ));
    }
}
