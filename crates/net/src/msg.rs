//! Wire messages: checksummed sectioned containers inside length frames.
//!
//! Every message is one `hqr_tile::io` sectioned container — the same
//! `magic | version | (tag,len,payload)* | checksum64 trailer` format the
//! checkpoint and journal files use on disk — carried in one
//! length-prefixed frame. Decoding therefore validates magic, version,
//! per-section bounds, and the whole-container checksum before any field
//! is believed; corruption anywhere yields a typed [`NetError::Frame`],
//! never a panic. Every kind has the same five parts — a head (kind word,
//! then fixed fields), two word lists, a text and tile buffers — so there
//! is one encoder and one decoder under all of them.
//!
//! Passes over a tile's bytes per hop, none into fresh memory. The sender
//! makes two on a scatter or a recovery placement — the `checksum64`
//! trailer and the socket write, straight from the coordinator's matrix —
//! and three on a push or a gather, whose bytes must leave the shard lock
//! first: the encode into the sender's reused frame buffer, the checksum,
//! the write. The receiver makes three: the socket read into the
//! connection's reused buffer, the checksum verification, and the decode
//! into a buffer from the worker's pool, or straight into the coordinator's
//! result. Version 3 is the owner-computes protocol; a version-2 peer (the
//! per-task relay) is refused as `UnsupportedVersion` before any checksum
//! is compared.

use crate::error::NetError;
use crate::frame::{read_frame_into, write_frame};
use hqr_kernels::KernelKind;
use hqr_runtime::task::SlotFamily;
use hqr_runtime::Slot;
use hqr_runtime::Task;
use hqr_tile::io::{
    bytes_of_u64s, f64s_from_le, f64s_le, u64s_of_bytes, SectionList, SectionReader,
};
use std::io::{Read, Write};
use std::net::SocketAddr;
use std::time::Duration;

/// Container magic for every net message.
pub const NET_MAGIC: [u8; 8] = *b"HQRNETV0";
/// Protocol version; bumped on any incompatible change (4: a T factor
/// travels as its `t_len(b, ib)` doubles, not as a zero-padded `b*b` tile;
/// 5: those doubles are its panels' packed upper triangles; 6: a V copy
/// travels as V's strict lower triangle, `v_len(b)` doubles; 7: a gather
/// carries no V copy, and a coordinator expects none).
pub const NET_VERSION: u32 = 7;

const TAG_HEAD: u32 = 1;
const TAG_LIST_A: u32 = 2;
const TAG_LIST_B: u32 = 3;
const TAG_TEXT: u32 = 4;
/// `(family, row, column)` of each tile the message carries.
const TAG_COORDS: u32 = 5;
/// Buffer of the message's `n`-th tile is section `TAG_DATA + n`.
const TAG_DATA: u32 = 16;

const KIND_HELLO: u64 = 1;
const KIND_OK: u64 = 2;
const KIND_PUT: u64 = 3;
const KIND_START: u64 = 4;
const KIND_PUSH: u64 = 5;
const KIND_COMPLETED: u64 = 6;
const KIND_PROGRESS: u64 = 7;
const KIND_GATHER: u64 = 8;
const KIND_END: u64 = 9;
const KIND_PING: u64 = 10;
const KIND_SHUTDOWN: u64 = 11;
const KIND_ERR: u64 = 12;

/// One protocol message. `T` is how a tile buffer is held: owned doubles
/// (the default, what [`Msg::decode`] returns), or, on the data plane, the
/// little-endian bytes still in the frame ([`Msg::decode_with`]).
#[derive(Clone, Debug, PartialEq)]
pub enum Msg<T = Vec<f64>> {
    /// Coordinator introduces run `run_id` to a worker (one at a time).
    /// `dims` is `[mt, nt, b, ib, p, q, me]`: `mt x nt` tiles of `b x b`,
    /// inner block `ib` (`ib == b` selects unblocked kernels), a `p x q`
    /// tile-owner grid served by the `p * q` workers at `addrs`, the
    /// receiver being `addrs[me]`. `tasks` is `TaskGraph::tasks()` in
    /// program order: every worker rebuilds the same DAG from it. Grid rank
    /// `r` starts out on worker `r`; [`Msg::Start`] says where it is now.
    Hello { run_id: u64, dims: [u64; 7], addrs: Vec<SocketAddr>, tasks: Vec<Task> },
    /// The positive answer to `Hello`, `Start`, `Ping` and `Shutdown`.
    Ok,
    /// Install one slot's buffer at the receiver: `b*b` doubles for a
    /// tile, `v_len(b)` for a V copy, `t_len(b, ib)` for a T factor.
    /// Unacknowledged: the scatter and a recovery's placements stream these
    /// to a worker (the acknowledged `Ping` that closes the stream is the
    /// barrier), the gather streams them back.
    Put { slot: Slot, data: T },
    /// Begin (or, after a worker loss, resume) executing owned tasks:
    /// `owners` maps grid rank → worker index, `completed` lists the tasks
    /// that count as done, whoever ran them. `epoch` is 1 at first and
    /// bumped by every recovery; idempotent per `(run_id, epoch)`.
    Start { run_id: u64, epoch: u64, owners: Vec<u64>, completed: Vec<u64> },
    /// Worker → worker, unacknowledged: `task_id` (the dedup key) finished
    /// on the sender in `epoch`, and `slots` are the slots it wrote that the
    /// receiver's tasks touch. A push of another run or epoch is ignored.
    Push { run_id: u64, epoch: u64, task_id: u64, slots: Vec<(Slot, T)> },
    /// Cursor read of the tasks this worker ran, past the first `after`.
    /// With `halt`, the worker first stops at the next task boundary (and
    /// ignores pushes until the next `Start`). Idempotent.
    Completed { run_id: u64, after: u64, halt: bool },
    /// Reply to [`Msg::Completed`]: task ids run here, in completion
    /// order, from the cursor on. A halted worker adds `accepted`, every
    /// task whose push it installed this epoch: a push overwrites the slot
    /// in place, so recovery must count its sender as having run, even if
    /// the sender died before it could say so.
    Progress { ids: Vec<u64>, accepted: Vec<u64> },
    /// Stream back every slot whose last writer this worker owns, as
    /// [`Msg::Put`] frames closed by one [`Msg::End`].
    Gather { run_id: u64 },
    /// End of the gather stream, with the `Push` frames (and the doubles
    /// in them) this worker sent during the run.
    End { pushes: u64, push_floats: u64 },
    /// The barrier that closes a tile stream: a connection is served in
    /// order, so its `Ok` says every `Put` before it is installed. (No
    /// sequence number to echo: an exchange that fails drops its
    /// connection, so a reply is never a late one.)
    Ping,
    /// Orderly shutdown request.
    Shutdown,
    /// Application-level failure report with a human-readable reason.
    Err { detail: String },
}

const FAMILIES: [SlotFamily; 4] = [SlotFamily::A, SlotFamily::Vg, SlotFamily::Tg, SlotFamily::Tk];
const KERNELS: [KernelKind; 6] = [
    KernelKind::Geqrt,
    KernelKind::Unmqr,
    KernelKind::Tsqrt,
    KernelKind::Tsmqr,
    KernelKind::Ttqrt,
    KernelKind::Ttmqr,
];

/// Position of `x` in its code table (every variant is listed).
fn code_of<T: PartialEq>(table: &[T], x: &T) -> u64 {
    table.iter().position(|y| y == x).expect("every variant has a code") as u64
}

fn of_code<T: Copy>(table: &[T], code: u64, what: &str) -> Result<T, NetError> {
    let known = usize::try_from(code).ok().and_then(|c| table.get(c).copied());
    known.ok_or_else(|| NetError::Proto(format!("unknown {what} code {code}")))
}

fn narrow<T: TryFrom<u64>>(v: u64, what: &str) -> Result<T, NetError> {
    T::try_from(v).map_err(|_| NetError::Proto(format!("{what} {v} out of range")))
}

/// The one encoder. Tile buffers are borrowed, not copied: the container
/// is written from where each tile lives ([`crate::frame::write_list`]).
fn sections<'a>(
    head: &[u64],
    a: &[u64],
    b: &[u64],
    text: &str,
    tiles: &[(Slot, &'a [f64])],
) -> SectionList<'a> {
    let coord = |&((fam, i, j), _): &(Slot, _)| [code_of(&FAMILIES, &fam), i as u64, j as u64];
    let coords: Vec<u64> = tiles.iter().flat_map(coord).collect();
    let mut w = SectionList::new(NET_MAGIC, NET_VERSION);
    w.section(TAG_HEAD, bytes_of_u64s(head)).section(TAG_LIST_A, bytes_of_u64s(a));
    w.section(TAG_LIST_B, bytes_of_u64s(b)).section(TAG_TEXT, text.as_bytes().to_vec());
    w.section(TAG_COORDS, bytes_of_u64s(&coords));
    for (n, (_, data)) in tiles.iter().enumerate() {
        w.section(TAG_DATA + n as u32, f64s_le(data));
    }
    w
}

fn encode(head: &[u64], a: &[u64], b: &[u64], text: &str, tiles: &[(Slot, &[f64])]) -> Vec<u8> {
    sections(head, a, b, text, tiles).into_bytes()
}

/// [`Msg::Put`] over the buffer the tile lives in.
pub(crate) fn put_frame(slot: Slot, data: &[f64]) -> SectionList<'_> {
    sections(&[KIND_PUT], &[], &[], "", &[(slot, data)])
}

/// [`Msg::Push`] over the shard's buffers.
pub(crate) fn push_frame<'a>(
    run_id: u64,
    epoch: u64,
    task_id: u64,
    slots: &[(Slot, &'a [f64])],
) -> SectionList<'a> {
    sections(&[KIND_PUSH, run_id, epoch, task_id], &[], &[], "", slots)
}

/// Encode `frame` into `buf`, replacing what it held: a sender that must
/// release the shard lock before it writes keeps one such buffer.
pub(crate) fn encode_into(buf: &mut Vec<u8>, frame: &SectionList<'_>) {
    buf.clear();
    frame.write_to(buf).expect("writing into a Vec cannot fail");
}

/// A data-plane message: its tiles are their bytes in the frame buffer.
pub(crate) fn decode_borrowed(bytes: &[u8]) -> Result<Msg<&[u8]>, NetError> {
    Msg::decode_with(bytes, |_, raw| Ok(raw))
}

/// Decode a tile of a [`decode_borrowed`] message into `dst`, which must
/// be exactly its size.
pub(crate) fn decode_tile(raw: &[u8], dst: &mut [f64]) -> Result<(), NetError> {
    Ok(f64s_from_le(TAG_DATA, raw, dst)?)
}

impl Msg {
    /// Encode into one checksummed container.
    pub fn encode(&self) -> Vec<u8> {
        let plain = |head: &[u64]| encode(head, &[], &[], "", &[]);
        match self {
            Msg::Hello { run_id, dims, addrs, tasks } => {
                let words = |t: &Task| {
                    [code_of(&KERNELS, &t.kind), t.k.into(), t.i.into(), t.piv.into(), t.j.into()]
                };
                let words: Vec<u64> = tasks.iter().flat_map(words).collect();
                let text: Vec<String> = addrs.iter().map(SocketAddr::to_string).collect();
                let head = [&[KIND_HELLO, *run_id], &dims[..]].concat();
                encode(&head, &words, &[], &text.join("\n"), &[])
            }
            Msg::Ok => plain(&[KIND_OK]),
            Msg::Put { slot, data } => put_frame(*slot, data).into_bytes(),
            Msg::Start { run_id, epoch, owners, completed } => {
                encode(&[KIND_START, *run_id, *epoch], owners, completed, "", &[])
            }
            Msg::Push { run_id, epoch, task_id, slots } => {
                let views: Vec<(Slot, &[f64])> = slots.iter().map(|(s, d)| (*s, &d[..])).collect();
                push_frame(*run_id, *epoch, *task_id, &views).into_bytes()
            }
            Msg::Completed { run_id, after, halt } => {
                plain(&[KIND_COMPLETED, *run_id, *after, u64::from(*halt)])
            }
            Msg::Progress { ids, accepted } => encode(&[KIND_PROGRESS], ids, accepted, "", &[]),
            Msg::Gather { run_id } => plain(&[KIND_GATHER, *run_id]),
            Msg::End { pushes, push_floats } => plain(&[KIND_END, *pushes, *push_floats]),
            Msg::Ping => plain(&[KIND_PING]),
            Msg::Shutdown => plain(&[KIND_SHUTDOWN]),
            Msg::Err { detail } => encode(&[KIND_ERR], &[], &[], detail, &[]),
        }
    }

    /// Decode a container, validating checksum and structure throughout.
    pub fn decode(bytes: Vec<u8>) -> Result<Msg, NetError> {
        Msg::decode_with(&bytes, |tag, raw| {
            let mut data = crate::pool::fresh(raw.len() / 8).into_vec();
            f64s_from_le(tag, raw, &mut data)?;
            Ok(data)
        })
    }
}

impl<T> Msg<T> {
    /// [`Msg::decode`] over borrowed bytes: each tile of a `Put` or `Push`
    /// is made by `tile(tag, section bytes)`, after every other field has
    /// been checked; the tiles of any other kind are not looked at.
    pub fn decode_with<'a>(
        bytes: &'a [u8],
        mut tile: impl FnMut(u32, &'a [u8]) -> Result<T, NetError>,
    ) -> Result<Msg<T>, NetError> {
        let r = SectionReader::from_bytes(bytes, NET_MAGIC, NET_VERSION)?;
        let words =
            |tag: u32| -> Result<Vec<u64>, NetError> { Ok(u64s_of_bytes(tag, r.require(tag)?)?) };
        let (head, a, b, coords) =
            (words(TAG_HEAD)?, words(TAG_LIST_A)?, words(TAG_LIST_B)?, words(TAG_COORDS)?);
        let text = std::str::from_utf8(r.require(TAG_TEXT)?)
            .map_err(|_| NetError::Proto("text section is not UTF-8".into()))?;
        let cut_short = |what: &str| NetError::Proto(format!("{what} is cut short"));
        let h = |i: usize| head.get(i).copied().ok_or_else(|| cut_short("head"));
        let mut tiles = Vec::with_capacity(coords.len() / 3);
        for (n, c) in coords.chunks(3).enumerate() {
            let &[fam, i, j] = c else { return Err(cut_short("tile coordinate list")) };
            let fam = of_code(&FAMILIES, fam, "slot family")?;
            let slot: Slot = (fam, narrow(i, "tile row")?, narrow(j, "tile column")?);
            let tag = TAG_DATA + narrow::<u32>(n as u64, "tile count")?;
            tiles.push((slot, tag, r.require_borrowed(tag)?));
        }
        let mut decoded = || -> Result<Vec<(Slot, T)>, NetError> {
            tiles.iter().map(|&(slot, tag, raw)| Ok((slot, tile(tag, raw)?))).collect()
        };
        Ok(match h(0)? {
            KIND_HELLO => Msg::Hello {
                run_id: h(1)?,
                dims: head.get(2..9).and_then(|d| d.try_into().ok()).ok_or(cut_short("head"))?,
                addrs: (text.lines())
                    .map(|l| l.parse().map_err(|_| NetError::Proto(format!("bad address `{l}`"))))
                    .collect::<Result<_, _>>()?,
                tasks: (a.chunks(5))
                    .map(|t| {
                        let &[kind, k, i, piv, j] = t else { return Err(cut_short("task list")) };
                        let kind = of_code(&KERNELS, kind, "kernel kind")?;
                        let (k, i) = (narrow(k, "panel")?, narrow(i, "row")?);
                        Ok(Task { kind, k, i, piv: narrow(piv, "pivot")?, j: narrow(j, "column")? })
                    })
                    .collect::<Result<_, NetError>>()?,
            },
            KIND_OK => Msg::Ok,
            KIND_PUT if tiles.len() == 1 => {
                let (slot, data) = decoded()?.pop().expect("one slot");
                Msg::Put { slot, data }
            }
            KIND_PUT => return Err(NetError::Proto("a put carries exactly one slot".into())),
            KIND_START => Msg::Start { run_id: h(1)?, epoch: h(2)?, owners: a, completed: b },
            KIND_PUSH => {
                Msg::Push { run_id: h(1)?, epoch: h(2)?, task_id: h(3)?, slots: decoded()? }
            }
            KIND_COMPLETED => Msg::Completed { run_id: h(1)?, after: h(2)?, halt: h(3)? != 0 },
            KIND_PROGRESS => Msg::Progress { ids: a, accepted: b },
            KIND_GATHER => Msg::Gather { run_id: h(1)? },
            KIND_END => Msg::End { pushes: h(1)?, push_floats: h(2)? },
            KIND_PING => Msg::Ping,
            KIND_SHUTDOWN => Msg::Shutdown,
            KIND_ERR => Msg::Err { detail: text.to_string() },
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
    let mut frame = Vec::new();
    read_frame_into(r, &mut frame, what, deadline)?;
    Msg::decode(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Msg> {
        let slot = |fam, i, j, x: f64, n| ((fam, i, j), vec![x; n]);
        vec![
            Msg::Hello {
                run_id: 7,
                dims: [8, 4, 16, 8, 2, 1, 1],
                addrs: vec!["127.0.0.1:4001".parse().unwrap(), "[::1]:4002".parse().unwrap()],
                tasks: vec![Task::geqrt(0, 0), Task::update(1, 3, 2, 5, true)],
            },
            Msg::Ok,
            Msg::Put { slot: (SlotFamily::A, 3, 1), data: vec![1.5, -0.0, f64::MAX] },
            Msg::Start { run_id: 7, epoch: 2, owners: vec![1, 1], completed: vec![0, 5, 9] },
            Msg::Push {
                run_id: 7,
                epoch: 2,
                task_id: 42,
                slots: vec![
                    slot(SlotFamily::A, 2, 0, 0.25, 9),
                    slot(SlotFamily::Tk, 2, 0, -1.0, 9),
                ],
            },
            Msg::Push { run_id: 7, epoch: 1, task_id: 3, slots: vec![] },
            Msg::Completed { run_id: 7, after: 12, halt: true },
            Msg::Progress { ids: vec![3, 1, 4, 1, 5], accepted: vec![2, 6] },
            Msg::Gather { run_id: 7 },
            Msg::End { pushes: 17, push_floats: 17 * 512 },
            Msg::Ping,
            Msg::Shutdown,
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
    fn hello_preserves_kernel_kind_exactly() {
        let tasks = vec![
            Task::geqrt(0, 0),
            Task::unmqr(0, 0, 1),
            Task::kill(0, 1, 0, true),
            Task::kill(0, 1, 0, false),
            Task::update(0, 1, 0, 1, true),
            Task::update(0, 1, 0, 1, false),
        ];
        let m = Msg::Hello { run_id: 1, dims: [2, 2, 4, 4, 1, 1, 0], addrs: vec![], tasks };
        assert_eq!(Msg::decode(m.encode()).unwrap(), m);
    }

    #[test]
    fn unknown_codes_and_cut_lists_are_typed_errors() {
        // A well-formed container whose words no message can have.
        let kernel = encode(&[KIND_HELLO, 1, 1, 1, 4, 4, 1, 1, 0], &[6, 0, 0, 0, 0], &[], "", &[]);
        assert!(matches!(Msg::decode(kernel), Err(NetError::Proto(_))), "kernel kind 6");
        let row =
            encode(&[KIND_HELLO, 1, 1, 1, 4, 4, 1, 1, 0], &[0, 0, 1 << 16, 0, 0], &[], "", &[]);
        assert!(matches!(Msg::decode(row), Err(NetError::Proto(_))), "row beyond u16");
        let cut = encode(&[KIND_HELLO, 1, 1, 1, 4, 4, 1, 1, 0], &[0, 0, 0, 0], &[], "", &[]);
        assert!(matches!(Msg::decode(cut), Err(NetError::Proto(_))), "four-word task");
        let head = encode(&[KIND_START, 1], &[], &[], "", &[]);
        assert!(matches!(Msg::decode(head), Err(NetError::Proto(_))), "start without an epoch");
        let family = {
            let mut w = SectionList::new(NET_MAGIC, NET_VERSION);
            w.section(TAG_HEAD, bytes_of_u64s(&[KIND_PUT])).section(TAG_LIST_A, &b""[..]);
            w.section(TAG_LIST_B, &b""[..]).section(TAG_TEXT, &b""[..]);
            w.section(TAG_COORDS, bytes_of_u64s(&[4, 0, 0])).section(TAG_DATA, f64s_le(&[0.0]));
            w.into_bytes()
        };
        assert!(matches!(Msg::decode(family), Err(NetError::Proto(_))), "slot family 4");
        let kind = encode(&[99], &[], &[], "", &[]);
        assert!(matches!(Msg::decode(kind), Err(NetError::Proto(_))), "kind 99");
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
        for m in samples() {
            let clean = m.encode();
            for cut in 0..clean.len() {
                assert!(Msg::decode(clean[..cut].to_vec()).is_err(), "cut {cut} accepted");
            }
        }
    }

    /// A version-5 peer sent a V copy as the whole `b × b` factored tile.
    /// Its frame is refused by its version, before any slot length is
    /// looked at.
    #[test]
    fn a_full_tile_v_copy_from_a_version_5_peer_is_a_version_error() {
        let tile: Vec<f64> = (0..16).map(|e| e as f64 * 0.5).collect();
        let put = Msg::Put { slot: (SlotFamily::Vg, 1, 0), data: tile }.encode();
        let r = SectionReader::from_bytes(put, NET_MAGIC, NET_VERSION).unwrap();
        let mut w = SectionList::new(NET_MAGIC, 5);
        for tag in r.tags() {
            w.section(tag, r.section(tag).unwrap().to_vec());
        }
        assert!(matches!(
            Msg::decode(w.into_bytes()),
            Err(NetError::Frame(hqr_tile::BinFormatError::UnsupportedVersion {
                expected: NET_VERSION,
                found: 5
            }))
        ));
    }

    #[test]
    fn wrong_magic_and_older_versions_rejected() {
        let clean = Msg::Ping.encode();
        let mut bad_magic = clean.clone();
        bad_magic[0] ^= 0xFF;
        assert!(Msg::decode(bad_magic).is_err());
        // A version-2 peer (the per-task relay) or a version-1 peer (FNV
        // trailer) is told its version is wrong; a differing checksum or
        // layout is never what it hears about.
        for old in [1u32, 2] {
            let mut old_peer = clean.clone();
            old_peer[8..12].copy_from_slice(&old.to_le_bytes());
            assert!(matches!(
                Msg::decode(old_peer),
                Err(NetError::Frame(hqr_tile::BinFormatError::UnsupportedVersion {
                    expected: NET_VERSION,
                    found
                })) if found == old
            ));
        }
    }
}
