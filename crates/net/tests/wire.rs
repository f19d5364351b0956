//! Wire-format hardening: property tests feeding truncated, bit-flipped,
//! oversized, and arbitrary byte streams into the frame/message decoders
//! and into `hqr_tile::io` — everything must come back as a typed error
//! (or a valid message), never a panic, never an unbounded allocation.

use hqr_kernels::t_len;
use hqr_net::{
    read_frame, recv_msg, send_msg, shutdown, spawn_local, write_frame, Msg, NetError,
    WorkerOptions, MAX_FRAME, NET_MAGIC, NET_VERSION,
};
use hqr_runtime::task::SlotFamily;
use hqr_runtime::{execute_serial_ib, recompute_slots, ElimOp, Slot, TFactors, Task, TaskGraph};
use hqr_tile::io::{
    bytes_of_u64s, f64s_le, tiled_from_bytes, tiled_parts, u64s_of_bytes, SectionList,
    SectionReader,
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

/// How many messages [`sample_msgs`] returns.
const SAMPLES: usize = 8;

fn sample_msgs() -> Vec<Msg> {
    let tile = |fam, i, j| ((fam, i, j), vec![1.0; 64]);
    let samples = vec![
        Msg::Hello {
            run_id: 1,
            dims: [4, 4, 8, 4, 2, 1, 0],
            addrs: vec!["127.0.0.1:9".parse().unwrap(), "127.0.0.1:10".parse().unwrap()],
            tasks: vec![Task::geqrt(0, 0), Task::update(0, 2, 1, 3, false)],
        },
        Msg::Put { slot: (SlotFamily::A, 1, 2), data: vec![1.0; 64] },
        Msg::Start { run_id: 1, epoch: 3, owners: vec![0, 0], completed: vec![0, 1, 7] },
        Msg::Push {
            run_id: 1,
            epoch: 3,
            task_id: 17,
            slots: vec![tile(SlotFamily::A, 2, 0), tile(SlotFamily::Tk, 2, 0)],
        },
        Msg::Completed { run_id: 1, after: 5, halt: false },
        Msg::Progress { ids: vec![9, 2, 6], accepted: vec![4] },
        Msg::End { pushes: 12, push_floats: 768 },
        Msg::Err { detail: "boom".into() },
    ];
    assert_eq!(samples.len(), SAMPLES);
    samples
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
        which in 0usize..SAMPLES,
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
    fn truncated_messages_are_typed_errors(which in 0usize..SAMPLES, frac in 0.0f64..1.0) {
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
        let mut w = SectionList::new(MAGIC, 1);
        w.section_of(1, tiled_parts(&m));
        w.section(2, bytes_of_u64s(&[seed]));
        w.section(3, f64s_le(&[1.0, -2.5]));
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
        let mut w = SectionList::new(MAGIC, 1);
        w.section(1, bytes_of_u64s(&[seed, seed ^ 1]));
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
    let mut w = SectionList::new(MAGIC, 1);
    w.section(7, &b"tiny"[..]);
    let clean = w.into_bytes();
    // Find the section length word (after magic[8] + version[4] + tag[4])
    // and replace it with something absurd.
    let mut dirty = clean;
    let len_off = 8 + 4 + 4;
    dirty[len_off..len_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(SectionReader::from_bytes(dirty, MAGIC, 1).is_err());
}

/// One request/reply exchange on a hand-driven connection to a worker.
fn rpc(conn: &mut std::net::TcpStream, msg: Msg) -> Msg {
    send_msg(conn, &msg).expect("send");
    recv_msg(conn, "reply", Duration::from_secs(5)).expect("reply")
}

/// Poll `Completed` until the worker has run `want` tasks.
fn wait_for_tasks(conn: &mut std::net::TcpStream, run_id: u64, want: usize) -> Vec<u64> {
    for _ in 0..2_000 {
        match rpc(conn, Msg::Completed { run_id, after: 0, halt: false }) {
            Msg::Progress { ids, .. } if ids.len() >= want => return ids,
            Msg::Progress { .. } => std::thread::sleep(Duration::from_millis(2)),
            other => panic!("expected Progress, got {other:?}"),
        }
    }
    panic!("worker never ran {want} tasks");
}

/// `Gather`, collected: the streamed slots and the `End` that closed them.
fn gather(conn: &mut std::net::TcpStream, run_id: u64) -> (Vec<(Slot, Vec<f64>)>, Msg) {
    send_msg(conn, &Msg::Gather { run_id }).expect("send gather");
    let mut slots = Vec::new();
    loop {
        match recv_msg(conn, "gather stream", Duration::from_secs(5)).expect("gather frame") {
            Msg::Put { slot, data } => slots.push((slot, data)),
            end => return (slots, end),
        }
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// What `execute_serial_ib` leaves in `slot`, which a gather streams back.
fn serial_slot<'a>(a: &'a TiledMatrix, f: &'a TFactors, (fam, i, j): Slot) -> &'a [f64] {
    match fam {
        SlotFamily::A => a.tile(i, j),
        SlotFamily::Vg => panic!("a gather carries no V copy: Vg({i},{j})"),
        SlotFamily::Tg => f.tg(i, j).expect("tg"),
        SlotFamily::Tk => f.tk(i, j).expect("tk"),
    }
}

/// A `Hello` no worker can run must be refused with `Msg::Err` when it
/// arrives: a kernel shape no kernel accepts (`b = 0`, `ib = 0`, `ib > b`,
/// `b * b` overflowing — accepted, it made the first task trip a kernel
/// assertion while the shard's mutex was held, poisoning it for every
/// connection), a task list with a row, column or panel outside the
/// matrix or coordinates its kernel cannot have, a matrix larger than its
/// task list, or a fleet that does not cover the grid. An unknown kernel
/// kind does not even decode. After each, the worker serves the next run.
#[test]
fn hostile_hello_is_rejected_and_the_worker_stays_usable() {
    let worker = spawn_local(WorkerOptions::default()).expect("spawn worker");
    let mut conn = std::net::TcpStream::connect(worker.addr).expect("connect");
    let me = vec![worker.addr];
    let hello = |run_id, dims, addrs: &Vec<_>, tasks| Msg::Hello {
        run_id,
        dims,
        addrs: addrs.clone(),
        tasks,
    };
    let refused = |conn: &mut std::net::TcpStream, msg: Msg, why: &str| {
        let reply = rpc(conn, msg);
        assert!(matches!(reply, Msg::Err { .. }), "{why}: {reply:?}");
        // No run was configured, so nothing downstream can reach a kernel.
        let start = Msg::Start { run_id: 1, epoch: 1, owners: vec![0], completed: vec![] };
        let started = rpc(conn, start);
        assert!(matches!(started, Msg::Err { .. }), "{why}: {started:?}");
    };
    for (b, ib) in [(0, 0), (0, 1), (8, 0), (8, 9), (u64::MAX, 1), (1 << 40, 1 << 40)] {
        let msg = hello(1, [1, 1, b, ib, 1, 1, 0], &me, vec![Task::geqrt(0, 0)]);
        refused(&mut conn, msg, &format!("b={b} ib={ib}"));
    }
    let two = vec![worker.addr, "127.0.0.1:9".parse().unwrap()];
    for (why, dims, addrs, tasks) in [
        ("row out of range", [1, 1, 4, 4, 1, 1, 0], &me, vec![Task::geqrt(0, 5)]),
        ("pivot out of range", [2, 1, 4, 4, 1, 1, 0], &me, vec![Task::kill(0, 1, 7, true); 2]),
        ("column out of range", [1, 2, 4, 4, 1, 1, 0], &me, vec![Task::unmqr(0, 0, 2); 2]),
        ("panel out of range", [2, 2, 4, 4, 1, 1, 0], &me, vec![Task::geqrt(2, 1); 4]),
        (
            "a kill of the pivot by itself",
            [2, 1, 4, 4, 1, 1, 0],
            &me,
            vec![Task::kill(0, 1, 1, true); 2],
        ),
        ("more tiles than tasks", [3, 3, 4, 4, 1, 1, 0], &me, vec![Task::geqrt(0, 0)]),
        ("one worker on a 2x1 grid", [1, 1, 4, 4, 2, 1, 0], &me, vec![Task::geqrt(0, 0)]),
        ("two workers on a 1x1 grid", [1, 1, 4, 4, 1, 1, 0], &two, vec![Task::geqrt(0, 0)]),
        ("a worker index outside the fleet", [1, 1, 4, 4, 2, 1, 2], &two, vec![Task::geqrt(0, 0)]),
        ("an empty grid", [1, 1, 4, 4, 0, 0, 0], &vec![], vec![Task::geqrt(0, 0)]),
    ] {
        refused(&mut conn, hello(1, dims, addrs, tasks), why);
    }
    // Kernel kind 6 names no kernel: the frame is a valid container that is
    // not a message, so the worker hangs up on it — and keeps serving.
    let unknown_kind = {
        let (addr, none) = (worker.addr.to_string(), &b""[..]);
        let mut w = SectionList::new(NET_MAGIC, NET_VERSION);
        w.section(1, bytes_of_u64s(&[1, 1, 1, 1, 4, 4, 1, 1, 0]));
        w.section(2, bytes_of_u64s(&[6, 0, 0, 0, 0])).section(3, none);
        w.section(4, addr.as_bytes()).section(5, none);
        w.into_bytes()
    };
    assert!(matches!(Msg::decode(unknown_kind.clone()), Err(NetError::Proto(_))));
    write_frame(&mut conn, &unknown_kind).expect("send");
    assert!(recv_msg(&mut conn, "hang-up", Duration::from_secs(5)).is_err());
    let mut conn = std::net::TcpStream::connect(worker.addr).expect("reconnect");

    // The same worker still serves a well-formed run on both `ib` sides —
    // and refuses a `Start` whose owner table does not cover its grid.
    let graph = TaskGraph::build(1, 1, 4, &[]);
    let data: Vec<f64> = (0..16).map(|x| ((x * 7) % 5) as f64 - 1.5).collect();
    for (run_id, ib) in [(2, 4), (3, 2)] {
        let plan = hello(run_id, [1, 1, 4, ib, 1, 1, 0], &me, graph.tasks().to_vec());
        assert_eq!(rpc(&mut conn, plan), Msg::Ok);
        send_msg(&mut conn, &Msg::Put { slot: (SlotFamily::A, 0, 0), data: data.clone() })
            .expect("put");
        for owners in [vec![], vec![0, 0], vec![1]] {
            let bad = rpc(&mut conn, Msg::Start { run_id, epoch: 1, owners, completed: vec![] });
            assert!(matches!(bad, Msg::Err { .. }), "{bad:?}");
        }
        let bad = Msg::Start { run_id, epoch: 1, owners: vec![0], completed: vec![1] };
        assert!(matches!(rpc(&mut conn, bad), Msg::Err { .. }));
        let start = Msg::Start { run_id, epoch: 1, owners: vec![0], completed: vec![] };
        assert_eq!(rpc(&mut conn, start), Msg::Ok);
        assert_eq!(wait_for_tasks(&mut conn, run_id, 1), vec![0]);
        let mut a = TiledMatrix::random(1, 1, 4, 0);
        a.tile_mut(0, 0).copy_from_slice(&data);
        let f = execute_serial_ib(&graph, &mut a, ib as usize);
        let (slots, end) = gather(&mut conn, run_id);
        assert_eq!(end, Msg::End { pushes: 0, push_floats: 0 });
        assert_eq!(slots.len(), 2, "A and Tg of the one GEQRT, no V copy");
        for (slot, got) in slots {
            assert_eq!(bits(&got), bits(serial_slot(&a, &f, slot)), "ib={ib}: {slot:?}");
        }
    }
    shutdown(worker.addr).expect("orderly shutdown");
    worker.join().expect("worker thread");
}

/// Pushes that do not belong — one sent before the first `Start`, an old
/// run, an old epoch, an unknown task, a slot the named task does not
/// write, a wrong-sized buffer, a task the receiver owns itself, a repeat
/// of an accepted push — change nothing and never panic: the worker's
/// share of the run still comes out bitwise equal to the serial reference.
#[test]
fn stale_and_hostile_pushes_change_nothing() {
    // Two tile rows on a 2x1 grid, the second killed into the first by a
    // TT kernel: worker 1 (under test) owns GEQRT(1,0) and the TTQRT, and
    // needs A(0,0) as GEQRT(0,0) left it — from worker 0, which is us.
    let (b, ib, run_id) = (4usize, 2usize, 11u64);
    let graph = TaskGraph::build(2, 1, b, &[ElimOp::new(0, 1, 0, false)]);
    assert_eq!(graph.tasks(), [Task::geqrt(0, 0), Task::geqrt(0, 1), Task::kill(0, 1, 0, false)]);
    let input = TiledMatrix::random(2, 1, b, 77);
    let pivot: Slot = (SlotFamily::A, 0, 0);
    let after_geqrt = recompute_slots(&graph, &input, ib, &[0], &[pivot]).unwrap();
    let (good, junk) = (after_geqrt[&pivot].to_vec(), vec![f64::NAN; b * b]);

    let worker = spawn_local(WorkerOptions::default()).expect("spawn worker");
    // Worker 0's address only has to exist: nothing is pushed to it.
    let nobody = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addrs = vec![nobody.local_addr().unwrap(), worker.addr];
    let mut conn = std::net::TcpStream::connect(worker.addr).expect("connect");
    let dims = [2, 1, b as u64, ib as u64, 2, 1, 1];
    let plan = Msg::Hello { run_id, dims, addrs, tasks: graph.tasks().to_vec() };
    assert_eq!(rpc(&mut conn, plan), Msg::Ok);
    let mine = Msg::Put { slot: (SlotFamily::A, 1, 0), data: input.tile(1, 0).to_vec() };
    send_msg(&mut conn, &mine).expect("put");
    let push = |run_id, epoch, task_id, slot: Slot, data: &Vec<f64>| Msg::Push {
        run_id,
        epoch,
        task_id,
        slots: vec![(slot, data.clone())],
    };
    // Before the first `Start` there is no owner table to look the task up
    // in, and epoch 0 is the epoch the worker is "in".
    send_msg(&mut conn, &push(run_id, 0, 0, pivot, &junk)).expect("push before start");
    let start = Msg::Start { run_id, epoch: 2, owners: vec![0, 1], completed: vec![] };
    assert_eq!(rpc(&mut conn, start), Msg::Ok);

    for hostile in [
        push(run_id - 1, 2, 0, pivot, &junk),
        push(run_id, 1, 0, pivot, &junk),
        push(run_id, 2, 99, pivot, &junk),
        push(run_id, 2, u64::MAX, pivot, &junk),
        push(run_id, 2, 0, (SlotFamily::A, 1, 0), &junk),
        push(run_id, 2, 0, pivot, &vec![f64::NAN; b * b - 1]),
        push(run_id, 2, 1, (SlotFamily::A, 1, 0), &junk),
        push(run_id, 2, 0, pivot, &good),
        push(run_id, 2, 0, pivot, &junk),
    ] {
        send_msg(&mut conn, &hostile).expect("push");
    }
    assert_eq!(wait_for_tasks(&mut conn, run_id, 2), vec![1, 2]);
    // A halt names the one push that was taken in, once.
    let halted = rpc(&mut conn, Msg::Completed { run_id, after: 0, halt: true });
    assert_eq!(halted, Msg::Progress { ids: vec![1, 2], accepted: vec![0] });

    let mut a = input.clone();
    let f = execute_serial_ib(&graph, &mut a, ib);
    let (slots, end) = gather(&mut conn, run_id);
    assert_eq!(end, Msg::End { pushes: 0, push_floats: 0 });
    let mut got: Vec<Slot> = slots.iter().map(|(slot, _)| *slot).collect();
    got.sort();
    let want = [
        (SlotFamily::A, 0, 0),
        (SlotFamily::A, 1, 0),
        (SlotFamily::Tg, 1, 0),
        (SlotFamily::Tk, 1, 0),
    ];
    assert_eq!(got, want, "the slots whose last writer worker 1 owns");
    for (slot, data) in slots {
        assert_eq!(bits(&data), bits(serial_slot(&a, &f, slot)), "{slot:?} diverged");
    }
    shutdown(worker.addr).expect("orderly shutdown");
    worker.join().expect("worker thread");
}

/// A `Put` whose tile is not `b x b` doubles is dropped when it arrives: the
/// slot stays absent from the shard (the gather does not stream it back),
/// and the task that needs it fails with the typed "needs ... of b * b
/// doubles here" error.
#[test]
fn a_wrong_sized_put_is_dropped_on_arrival() {
    let worker = spawn_local(WorkerOptions::default()).expect("spawn worker");
    let mut conn = std::net::TcpStream::connect(worker.addr).expect("connect");
    let (run_id, pivot) = (5, (SlotFamily::A, 0, 0));
    let graph = TaskGraph::build(1, 1, 4, &[]);
    let dims = [1, 1, 4, 4, 1, 1, 0];
    let plan = Msg::Hello { run_id, dims, addrs: vec![worker.addr], tasks: graph.tasks().to_vec() };
    assert_eq!(rpc(&mut conn, plan), Msg::Ok);
    send_msg(&mut conn, &Msg::Put { slot: pivot, data: vec![1.0; 15] }).expect("put");
    let start = Msg::Start { run_id, epoch: 1, owners: vec![0], completed: vec![] };
    assert_eq!(rpc(&mut conn, start), Msg::Ok);
    let failure = (0..2_000).find_map(|_| {
        match rpc(&mut conn, Msg::Completed { run_id, after: 0, halt: false }) {
            Msg::Err { detail } => Some(detail),
            Msg::Progress { ids, .. } => {
                assert!(ids.is_empty(), "GEQRT ran on a 15-double tile");
                std::thread::sleep(Duration::from_millis(2));
                None
            }
            other => panic!("expected Progress or Err, got {other:?}"),
        }
    });
    let failure = failure.expect("the task never failed");
    assert!(failure.contains("needs A(0,0) of 16 doubles here"), "{failure}");
    let (slots, _) = gather(&mut conn, run_id);
    assert!(slots.iter().all(|(slot, _)| *slot != pivot), "the tile entered the shard");
    shutdown(worker.addr).expect("orderly shutdown");
    worker.join().expect("worker thread");
}

/// A T factor travels in a push or put as its `t_len(b, ib)` doubles (a
/// gather sends its τ instead). A push or put whose
/// T payload has any other length — the zero-padded `b * b` tile of the
/// previous protocol version among them — is dropped whole on arrival: the
/// kernel that reads the T sees only the one of the right length, and the
/// kernel that writes it finds no misfit buffer in its way.
#[test]
fn factor_payloads_that_are_not_t_len_long_are_dropped() {
    let (b, ib) = (4usize, 2usize);
    let tg: Slot = (SlotFamily::Tg, 0, 0);
    let (padded, short) = (vec![f64::NAN; b * b], vec![f64::NAN; t_len(b, ib) - 1]);

    // Push: one tile row on a 1x2 grid. Worker 1 (under test) owns the
    // UNMQR, which reads GEQRT(0,0)'s V and T from worker 0 — us.
    let graph = TaskGraph::build(1, 2, b, &[]);
    assert_eq!(graph.tasks(), [Task::geqrt(0, 0), Task::unmqr(0, 0, 1)]);
    let input = TiledMatrix::random(1, 2, b, 5);
    let vg: Slot = (SlotFamily::Vg, 0, 0);
    let geqrt = recompute_slots(&graph, &input, ib, &[0], &[vg, tg]).unwrap();
    let (v, t) = (geqrt[&vg].to_vec(), geqrt[&tg].to_vec());
    assert_eq!(t.len(), t_len(b, ib));

    let worker = spawn_local(WorkerOptions::default()).expect("spawn worker");
    let nobody = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addrs = vec![nobody.local_addr().unwrap(), worker.addr];
    let mut conn = std::net::TcpStream::connect(worker.addr).expect("connect");
    let dims = [1, 2, b as u64, ib as u64, 1, 2, 1];
    let plan = Msg::Hello { run_id: 1, dims, addrs, tasks: graph.tasks().to_vec() };
    assert_eq!(rpc(&mut conn, plan), Msg::Ok);
    let mine = Msg::Put { slot: (SlotFamily::A, 0, 1), data: input.tile(0, 1).to_vec() };
    send_msg(&mut conn, &mine).expect("put");
    let start = Msg::Start { run_id: 1, epoch: 1, owners: vec![0, 1], completed: vec![] };
    assert_eq!(rpc(&mut conn, start), Msg::Ok);
    let push = |t: &Vec<f64>| Msg::Push {
        run_id: 1,
        epoch: 1,
        task_id: 0,
        slots: vec![(vg, v.clone()), (tg, t.clone())],
    };
    for t in [&padded, &short, &t, &padded] {
        send_msg(&mut conn, &push(t)).expect("push");
    }
    assert_eq!(wait_for_tasks(&mut conn, 1, 1), vec![1]);
    let halted = rpc(&mut conn, Msg::Completed { run_id: 1, after: 0, halt: true });
    assert_eq!(halted, Msg::Progress { ids: vec![1], accepted: vec![0] });
    let mut a = input.clone();
    execute_serial_ib(&graph, &mut a, ib);
    let (slots, _) = gather(&mut conn, 1);
    let updated = (SlotFamily::A, 0, 1);
    let (_, got) = slots.iter().find(|(slot, _)| *slot == updated).expect("A(0,1) gathered");
    assert_eq!(bits(got), bits(a.tile(0, 1)), "UNMQR ran with the t_len-long T only");

    // Put: a 1x1 run, all of it on the worker. A misfit Tg installed
    // before the GEQRT would make the kernel refuse its operand.
    let graph = TaskGraph::build(1, 1, b, &[]);
    let dims = [1, 1, b as u64, ib as u64, 1, 1, 0];
    let plan =
        Msg::Hello { run_id: 2, dims, addrs: vec![worker.addr], tasks: graph.tasks().to_vec() };
    assert_eq!(rpc(&mut conn, plan), Msg::Ok);
    let data = input.tile(0, 0).to_vec();
    send_msg(&mut conn, &Msg::Put { slot: (SlotFamily::A, 0, 0), data }).expect("put");
    for t in [&padded, &short] {
        send_msg(&mut conn, &Msg::Put { slot: tg, data: t.clone() }).expect("put");
    }
    let start = Msg::Start { run_id: 2, epoch: 1, owners: vec![0], completed: vec![] };
    assert_eq!(rpc(&mut conn, start), Msg::Ok);
    assert_eq!(wait_for_tasks(&mut conn, 2, 1), vec![0]);
    let mut a = TiledMatrix::zeros(1, 1, b);
    a.tile_mut(0, 0).copy_from_slice(input.tile(0, 0));
    let f_one = execute_serial_ib(&graph, &mut a, ib);
    let (slots, _) = gather(&mut conn, 2);
    // The gather carries what a result keeps of the T: its τ.
    let (_, got) = slots.iter().find(|(slot, _)| *slot == tg).expect("Tg(0,0) gathered");
    assert_eq!(got.len(), hqr_kernels::tau_len(b));
    assert_eq!(bits(got), bits(f_one.tg(0, 0).unwrap()));
    shutdown(worker.addr).expect("orderly shutdown");
    worker.join().expect("worker thread");
}

/// A late duplicate `Start` of an older epoch is refused with `Msg::Err` and
/// changes nothing: the worker neither rolls back to that epoch's owner
/// table nor re-runs what it ran, and the run completes bitwise under the
/// newer epoch.
#[test]
fn a_start_of_an_older_epoch_is_refused() {
    let (b, ib, run_id) = (4usize, 2usize, 3u64);
    let graph = TaskGraph::build(2, 2, b, &[ElimOp::new(0, 1, 0, false)]);
    let input = TiledMatrix::random(2, 2, b, 41);
    let worker = spawn_local(WorkerOptions::default()).expect("spawn worker");
    let mut conn = std::net::TcpStream::connect(worker.addr).expect("connect");
    let dims = [2, 2, b as u64, ib as u64, 1, 1, 0];
    let plan = Msg::Hello { run_id, dims, addrs: vec![worker.addr], tasks: graph.tasks().to_vec() };
    assert_eq!(rpc(&mut conn, plan), Msg::Ok);
    for (i, j) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
        let put = Msg::Put { slot: (SlotFamily::A, i, j), data: input.tile(i, j).to_vec() };
        send_msg(&mut conn, &put).expect("put");
    }
    let start = |epoch| Msg::Start { run_id, epoch, owners: vec![0], completed: vec![] };
    assert_eq!(rpc(&mut conn, start(2)), Msg::Ok);
    let late = rpc(&mut conn, start(1));
    assert!(matches!(late, Msg::Err { .. }), "an older epoch was adopted: {late:?}");
    let n = graph.tasks().len();
    assert_eq!(wait_for_tasks(&mut conn, run_id, n), (0..n as u64).collect::<Vec<_>>());
    let mut a = input.clone();
    let f = execute_serial_ib(&graph, &mut a, ib);
    let (slots, end) = gather(&mut conn, run_id);
    assert_eq!(end, Msg::End { pushes: 0, push_floats: 0 });
    assert_eq!(slots.len(), 4 + 3 + 1, "A, the Tg of three GEQRTs, the Tk");
    for (slot, data) in slots {
        assert_eq!(bits(&data), bits(serial_slot(&a, &f, slot)), "{slot:?} diverged");
    }
    shutdown(worker.addr).expect("orderly shutdown");
    worker.join().expect("worker thread");
}
