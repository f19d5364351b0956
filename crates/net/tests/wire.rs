//! Wire-format hardening: property tests feeding truncated, bit-flipped,
//! oversized, and arbitrary byte streams into the frame/message decoders
//! and into `hqr_tile::io` — everything must come back as a typed error
//! (or a valid message), never a panic, never an unbounded allocation.

use hqr_net::{
    read_frame, recv_msg, send_msg, shutdown, spawn_local, write_frame, Msg, NetError,
    WorkerOptions, MAX_FRAME,
};
use hqr_runtime::task::SlotFamily;
use hqr_runtime::Task;
use hqr_tile::io::{
    bytes_of_f64s, bytes_of_u64s, tiled_from_bytes, tiled_to_bytes, u64s_of_bytes, SectionReader,
    SectionWriter,
};
use hqr_tile::TiledMatrix;
use proptest::prelude::*;
use std::time::Duration;

/// Tiny splitmix-style stream for deterministic fuzz inputs (the
/// vendored proptest only generates scalars).
fn stream(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut next = stream(seed);
    (0..len).map(|_| next() as u8).collect()
}

/// Flip `n` pseudo-random bits of `buf` in place.
fn flip_bits(buf: &mut [u8], seed: u64, n: usize) {
    let mut next = stream(seed ^ 0xF11B);
    for _ in 0..n {
        let r = next();
        let pos = (r as usize >> 3) % buf.len();
        buf[pos] ^= 1 << (r & 7);
    }
}

fn sample_msgs() -> Vec<Msg> {
    vec![
        Msg::Hello { run_id: 1, mt: 4, nt: 4, b: 8, ib: 4 },
        Msg::Put { fam: SlotFamily::A, i: 1, j: 2, data: vec![1.0; 64] },
        Msg::Get { fam: SlotFamily::Tg, i: 0, j: 3 },
        Msg::Run { task_id: 17, task: Task::update(0, 2, 1, 3, false) },
        Msg::Err { detail: "boom".into() },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary byte soup never panics the message decoder.
    #[test]
    fn arbitrary_bytes_never_panic_decoder(seed in any::<u64>(), len in 0usize..512) {
        let _ = Msg::decode(random_bytes(seed, len));
    }

    /// Random mutations of valid messages never panic and — unless the
    /// flips cancelled out — never silently decode to something else.
    #[test]
    fn mutated_messages_error_or_roundtrip(
        which in 0usize..5,
        seed in any::<u64>(),
        nflips in 1usize..8,
    ) {
        let original = sample_msgs().swap_remove(which);
        let clean = original.encode();
        let mut dirty = clean.clone();
        flip_bits(&mut dirty, seed, nflips);
        if let Ok(m) = Msg::decode(dirty) {
            prop_assert_eq!(m, original, "corruption accepted");
        }
    }

    /// Truncation of valid messages at any point is a typed error.
    #[test]
    fn truncated_messages_are_typed_errors(which in 0usize..5, frac in 0.0f64..1.0) {
        let clean = sample_msgs().swap_remove(which).encode();
        let cut = (clean.len() as f64 * frac) as usize;
        if cut < clean.len() {
            prop_assert!(Msg::decode(clean[..cut].to_vec()).is_err());
        }
    }

    /// A frame header declaring any length beyond the cap is rejected
    /// before allocation, no matter the declared value.
    #[test]
    fn oversized_frame_lengths_rejected(extra in 1u64..u64::MAX - MAX_FRAME) {
        let declared = MAX_FRAME + extra;
        let mut wire = declared.to_le_bytes().to_vec();
        wire.extend_from_slice(&[0u8; 16]);
        let err = read_frame(&mut wire.as_slice(), "t", Duration::ZERO).unwrap_err();
        let typed = matches!(err, NetError::FrameTooLarge { declared: d, .. } if d == declared);
        prop_assert!(typed);
    }

    /// Frames round-trip any payload; truncating the stream anywhere
    /// inside a frame is a typed error, not a hang or a panic.
    #[test]
    fn frames_roundtrip_and_reject_truncation(seed in any::<u64>(), len in 0usize..256, frac in 0.0f64..1.0) {
        let payload = random_bytes(seed, len);
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let back = read_frame(&mut wire.as_slice(), "t", Duration::ZERO).unwrap();
        prop_assert_eq!(back, payload);
        let cut = (wire.len() as f64 * frac) as usize;
        if cut < wire.len() {
            prop_assert!(read_frame(&mut wire[..cut].to_vec().as_slice(), "t", Duration::ZERO).is_err());
        }
    }

    /// The same treatment for `hqr_tile::io` containers: random
    /// mutations of a valid sectioned container error out or decode to
    /// the identical content — never panic.
    #[test]
    fn tile_io_containers_survive_mutation(seed in any::<u64>(), nflips in 1usize..6) {
        const MAGIC: [u8; 8] = *b"WIRETEST";
        let m = TiledMatrix::random(2, 2, 3, seed);
        let mut w = SectionWriter::new(MAGIC, 1);
        w.section(1, &tiled_to_bytes(&m));
        w.section(2, &bytes_of_u64s(&[seed]));
        w.section(3, &bytes_of_f64s(&[1.0, -2.5]));
        let clean = w.into_bytes();
        let mut dirty = clean.clone();
        flip_bits(&mut dirty, seed, nflips);
        match SectionReader::from_bytes(dirty, MAGIC, 1) {
            Err(_) => {}
            Ok(r) => {
                // Only reachable when the flips cancelled out.
                let back = tiled_from_bytes(1, r.require(1).unwrap()).unwrap();
                let (d_back, d_m) = (back.to_dense(), m.to_dense());
                prop_assert_eq!(d_back.data(), d_m.data());
                prop_assert_eq!(u64s_of_bytes(2, r.require(2).unwrap()).unwrap(), vec![seed]);
            }
        }
    }

    /// Truncated tile-io containers are typed errors at every cut.
    #[test]
    fn tile_io_truncation_always_errors(seed in any::<u64>(), frac in 0.0f64..1.0) {
        const MAGIC: [u8; 8] = *b"WIRETEST";
        let mut w = SectionWriter::new(MAGIC, 1);
        w.section(1, &bytes_of_u64s(&[seed, seed ^ 1]));
        let clean = w.into_bytes();
        let cut = (clean.len() as f64 * frac) as usize;
        if cut < clean.len() {
            prop_assert!(SectionReader::from_bytes(clean[..cut].to_vec(), MAGIC, 1).is_err());
        }
    }

    /// Arbitrary byte soup never panics the tile-io container reader.
    #[test]
    fn arbitrary_bytes_never_panic_tile_io(seed in any::<u64>(), len in 0usize..512) {
        const MAGIC: [u8; 8] = *b"WIRETEST";
        let _ = SectionReader::from_bytes(random_bytes(seed, len), MAGIC, 1);
    }
}

/// A section declaring a giant length inside a small container must be
/// rejected by bounds checks, not by attempting the allocation.
#[test]
fn lying_section_length_rejected_without_allocation() {
    const MAGIC: [u8; 8] = *b"WIRETEST";
    let mut w = SectionWriter::new(MAGIC, 1);
    w.section(7, b"tiny");
    let clean = w.into_bytes();
    // Find the section length word (after magic[8] + version[4] + tag[4])
    // and replace it with something absurd.
    let mut dirty = clean;
    let len_off = 8 + 4 + 4;
    dirty[len_off..len_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(SectionReader::from_bytes(dirty, MAGIC, 1).is_err());
}

/// A `Hello` whose kernel shape no kernel accepts (`b = 0`, `ib = 0`,
/// `ib > b`, `b * b` overflowing) must be refused with `Msg::Err` when it
/// arrives. Accepted, it made the first `Run` trip a kernel assertion
/// while the shard's mutex was held, poisoning it for every connection.
#[test]
fn hostile_hello_is_rejected_and_the_worker_stays_usable() {
    let worker = spawn_local(WorkerOptions::default()).expect("spawn worker");
    let mut conn = std::net::TcpStream::connect(worker.addr).expect("connect");
    let mut rpc = |msg: Msg| {
        send_msg(&mut conn, &msg).expect("send");
        recv_msg(&mut conn, "reply", Duration::from_secs(5)).expect("reply")
    };
    for (b, ib) in [(0, 0), (0, 1), (8, 0), (8, 9), (u64::MAX, 1), (1 << 40, 1 << 40)] {
        let reply = rpc(Msg::Hello { run_id: 1, mt: 1, nt: 1, b, ib });
        assert!(matches!(reply, Msg::Err { .. }), "b={b} ib={ib}: {reply:?}");
        // No run was configured, so nothing downstream can reach a kernel.
        let run = rpc(Msg::Run { task_id: 0, task: Task::geqrt(0, 0) });
        assert!(matches!(run, Msg::Err { .. }), "b={b} ib={ib}: {run:?}");
    }
    // The same worker still serves a well-formed run on both `ib` sides.
    for (run_id, ib) in [(2, 4), (3, 2)] {
        assert_eq!(rpc(Msg::Hello { run_id, mt: 1, nt: 1, b: 4, ib }), Msg::HelloOk);
        let data: Vec<f64> = (0..16).map(|x| ((x * 7) % 5) as f64 - 1.5).collect();
        assert_eq!(rpc(Msg::Put { fam: SlotFamily::A, i: 0, j: 0, data }), Msg::PutOk);
        let done = rpc(Msg::Run { task_id: 0, task: Task::geqrt(0, 0) });
        assert_eq!(done, Msg::Done { task_id: 0 });
    }
    shutdown(worker.addr).expect("orderly shutdown");
    worker.join().expect("worker thread");
}
