//! The tile worker: a process (or thread) that owns a shard of tiles
//! and executes kernel tasks on command.
//!
//! One worker serves many connections concurrently — the coordinator
//! opens separate exec, data, and heartbeat connections — each handled
//! by its own thread over the shared state. Heartbeats therefore keep
//! flowing while a kernel runs: a slow worker is *slow*, not dead, and
//! the failure detector can tell the difference.
//!
//! `Run` is idempotent: task ids land in a done-set, and a re-sent id
//! (the coordinator retrying after a lost reply) waits for / reuses the
//! first execution instead of corrupting read-modify-write kernels by
//! running them twice.
//!
//! Chaos hooks: [`WorkerOptions::die_after_tasks`] makes the worker die
//! at a deterministic kill-point — `die_hard` aborts the process
//! (SIGKILL-equivalent), otherwise it severs every connection and stops
//! serving, which is the in-process stand-in the property tests use.

use crate::error::NetError;
use crate::kernel::{run_task_on_map, Slot};
use crate::msg::{recv_msg, send_msg, Msg};
use std::collections::{HashMap, HashSet};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Behavior knobs, mostly for chaos testing.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerOptions {
    /// Die when asked to run a task after this many completed ones.
    pub die_after_tasks: Option<u64>,
    /// When dying, abort the whole process (SIGKILL-equivalent) instead
    /// of severing connections.
    pub die_hard: bool,
    /// Sleep this long inside every task (slow-but-alive simulation).
    pub slow_task_ms: u64,
}

/// A run's kernel shape, checked where it enters: `1 <= ib <= b` and
/// `b * b` representable, so no kernel precondition can fail (and poison
/// the shard's mutex) on the first `Run`.
#[derive(Clone, Copy)]
struct RunCfg {
    run_id: u64,
    b: usize,
    ib: usize,
}

impl RunCfg {
    fn checked(run_id: u64, b: u64, ib: u64) -> Result<RunCfg, String> {
        let tile = usize::try_from(b).ok().filter(|&b| b >= 1 && b.checked_mul(b).is_some());
        match (tile, usize::try_from(ib)) {
            (Some(b), Ok(ib)) if (1..=b).contains(&ib) => Ok(RunCfg { run_id, b, ib }),
            _ => Err(format!(
                "hello rejected: need tile size b >= 1 and 1 <= ib <= b, got b={b} ib={ib}"
            )),
        }
    }
}

struct WorkerState {
    opts: WorkerOptions,
    slots: Mutex<HashMap<Slot, Box<[f64]>>>,
    cfg: Mutex<Option<RunCfg>>,
    done: Mutex<HashSet<u64>>,
    running: Mutex<HashSet<u64>>,
    tasks_run: AtomicU64,
    dead: AtomicBool,
    conns: Mutex<Vec<TcpStream>>,
}

impl WorkerState {
    fn die(&self) {
        if self.opts.die_hard {
            // The real thing: no destructors, no goodbyes — indistinguishable
            // from SIGKILL for every peer.
            std::process::abort();
        }
        self.die_soft();
    }

    /// Sever every connection and stop serving — the in-process
    /// SIGKILL stand-in.
    fn die_soft(&self) {
        self.dead.store(true, Ordering::SeqCst);
        for c in self.conns.lock().unwrap().iter() {
            let _ = c.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// Serve until orderly shutdown or a (soft) death. Blocks the caller;
/// `hqr worker` calls this directly, tests use [`spawn_local`].
pub fn serve(listener: TcpListener, opts: WorkerOptions) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let state = Arc::new(WorkerState {
        opts,
        slots: Mutex::new(HashMap::new()),
        cfg: Mutex::new(None),
        done: Mutex::new(HashSet::new()),
        running: Mutex::new(HashSet::new()),
        tasks_run: AtomicU64::new(0),
        dead: AtomicBool::new(false),
        conns: Mutex::new(Vec::new()),
    });
    let mut handlers = Vec::new();
    while !state.dead.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                if let Ok(clone) = stream.try_clone() {
                    state.conns.lock().unwrap().push(clone);
                }
                let st = Arc::clone(&state);
                handlers.push(thread::spawn(move || handle_conn(stream, &st)));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    for h in handlers {
        let _ = h.join();
    }
    Ok(())
}

fn handle_conn(mut stream: TcpStream, state: &Arc<WorkerState>) {
    loop {
        if state.dead.load(Ordering::SeqCst) {
            return;
        }
        let msg = match recv_msg(&mut stream, "request", Duration::ZERO) {
            Ok(m) => m,
            // Peer hung up, link severed, or the frame was corrupt beyond
            // trust — drop the connection either way.
            Err(_) => return,
        };
        let reply = match msg {
            Msg::Hello { run_id, mt: _, nt: _, b, ib } => match RunCfg::checked(run_id, b, ib) {
                Ok(run) => {
                    let mut cfg = state.cfg.lock().unwrap();
                    let fresh = cfg.is_none_or(|c| c.run_id != run_id);
                    if fresh {
                        // New run: forget the previous run's shard and dedup set.
                        state.slots.lock().unwrap().clear();
                        state.done.lock().unwrap().clear();
                        state.tasks_run.store(0, Ordering::SeqCst);
                    }
                    *cfg = Some(run);
                    Msg::HelloOk
                }
                Err(detail) => Msg::Err { detail },
            },
            Msg::Put { fam, i, j, data } => match state.cfg.lock().unwrap().as_ref() {
                Some(cfg) if data.len() == cfg.b * cfg.b => {
                    state
                        .slots
                        .lock()
                        .unwrap()
                        .insert((fam, i as usize, j as usize), data.into_boxed_slice());
                    Msg::PutOk
                }
                Some(cfg) => Msg::Err {
                    detail: format!(
                        "put of {} floats does not match tile size {}",
                        data.len(),
                        cfg.b
                    ),
                },
                None => Msg::Err { detail: "put before hello".into() },
            },
            Msg::Get { fam, i, j } => {
                let slots = state.slots.lock().unwrap();
                match slots.get(&(fam, i as usize, j as usize)) {
                    Some(buf) => Msg::SlotData { fam, i, j, data: buf.to_vec() },
                    None => {
                        Msg::Err { detail: format!("no such slot {fam:?}({i},{j}) on this worker") }
                    }
                }
            }
            Msg::Run { task_id, task } => run_rpc(state, task_id, &task),
            Msg::Ping { seq } => Msg::Pong { seq },
            Msg::Die { hard } => {
                if hard {
                    std::process::abort();
                }
                state.die_soft();
                return;
            }
            Msg::Shutdown => {
                let _ = send_msg(&mut stream, &Msg::Bye);
                state.die_soft();
                return;
            }
            other => Msg::Err { detail: format!("unexpected message for a worker: {other:?}") },
        };
        if send_msg(&mut stream, &reply).is_err() {
            return;
        }
    }
}

fn run_rpc(state: &Arc<WorkerState>, task_id: u64, task: &hqr_runtime::Task) -> Msg {
    // Dedup / in-progress wait: a re-sent id never re-executes.
    loop {
        if state.done.lock().unwrap().contains(&task_id) {
            return Msg::Done { task_id };
        }
        let mut running = state.running.lock().unwrap();
        if !running.contains(&task_id) {
            running.insert(task_id);
            break;
        }
        drop(running);
        thread::sleep(Duration::from_millis(2));
    }
    // Kill-point check happens only for a *first* execution, so the
    // dedup path above can still acknowledge past work.
    if let Some(limit) = state.opts.die_after_tasks {
        if state.tasks_run.load(Ordering::SeqCst) >= limit {
            state.running.lock().unwrap().remove(&task_id);
            state.die();
            return Msg::Err { detail: "worker dying at kill-point".into() };
        }
    }
    let Some(cfg) = *state.cfg.lock().unwrap() else {
        state.running.lock().unwrap().remove(&task_id);
        return Msg::Err { detail: "run before hello".into() };
    };
    if state.opts.slow_task_ms > 0 {
        thread::sleep(Duration::from_millis(state.opts.slow_task_ms));
    }
    let result = {
        let mut slots = state.slots.lock().unwrap();
        run_task_on_map(&mut slots, task, cfg.b, cfg.ib)
    };
    state.running.lock().unwrap().remove(&task_id);
    match result {
        Ok(()) => {
            state.tasks_run.fetch_add(1, Ordering::SeqCst);
            state.done.lock().unwrap().insert(task_id);
            Msg::Done { task_id }
        }
        Err(e) => Msg::Err { detail: e.to_string() },
    }
}

/// An in-process worker for tests and the spawned-workers CLI mode.
pub struct LocalWorker {
    /// Address the worker listens on.
    pub addr: SocketAddr,
    handle: thread::JoinHandle<io::Result<()>>,
}

impl LocalWorker {
    /// Wait for the worker's serve loop to end (after [`shutdown`] or a
    /// soft death).
    pub fn join(self) -> io::Result<()> {
        self.handle.join().map_err(|_| io::Error::other("worker thread panicked"))?
    }
}

/// Bind `127.0.0.1:0` and serve on a background thread.
pub fn spawn_local(opts: WorkerOptions) -> io::Result<LocalWorker> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let handle = thread::spawn(move || serve(listener, opts));
    Ok(LocalWorker { addr, handle })
}

/// Orderly shutdown of a worker by address; errors are reported but a
/// dead worker is simply already shut down.
pub fn shutdown(addr: SocketAddr) -> Result<(), NetError> {
    let mut s = TcpStream::connect_timeout(&addr, Duration::from_millis(500))
        .map_err(|e| NetError::Io(format!("connect {addr}: {e}")))?;
    let _ = s.set_read_timeout(Some(Duration::from_millis(500)));
    send_msg(&mut s, &Msg::Shutdown)?;
    match recv_msg(&mut s, "bye", Duration::from_millis(500))? {
        Msg::Bye => Ok(()),
        other => Err(NetError::Proto(format!("expected Bye, got {other:?}"))),
    }
}
