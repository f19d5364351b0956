//! Teardown guards. Whatever path a run leaves by — success, a failed
//! operation, an error, a panic — dropping these removes the temporary
//! directory, shuts the worker fleet down and joins it, and drains or
//! kills the daemon child and waits for it.

use crate::sysinfo::out_dir;
use hqr_cli::proto::{read_frame, write_frame, Request, Response};
use hqr_net::{shutdown_workers, spawn_local, LocalWorker, WorkerOptions};
use std::net::SocketAddr;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// Deadline of a single operation; past it the operation is a failed one.
pub const OP_DEADLINE: Duration = Duration::from_secs(60);

/// A directory under `benchmark/out/`, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(label: &str) -> Result<TempDir, String> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join(format!("tmp-{}-{n}-{label}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// In-process loopback tile workers, shut down and joined on drop.
pub struct Fleet {
    workers: Vec<LocalWorker>,
}

impl Fleet {
    pub fn spawn(n: usize) -> Result<Fleet, String> {
        let mut fleet = Fleet { workers: Vec::with_capacity(n) };
        for _ in 0..n {
            let w =
                spawn_local(WorkerOptions::default()).map_err(|e| format!("spawn worker: {e}"))?;
            fleet.workers.push(w);
        }
        Ok(fleet)
    }

    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.workers.iter().map(|w| w.addr).collect()
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        shutdown_workers(&self.addrs());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Make a child die with this process, so that no exit path — not even
/// this process being killed — leaves it running. (On other exits the
/// guards below stop their children in an orderly way first.)
pub fn die_with_parent(cmd: &mut Command) -> &mut Command {
    #[cfg(target_os = "linux")]
    {
        use std::os::unix::process::CommandExt;
        extern "C" {
            fn prctl(option: i32, ...) -> i32;
        }
        const PR_SET_PDEATHSIG: i32 = 1;
        const SIGKILL: u64 = 9;
        // SAFETY: the closure runs in the forked child before exec and
        // makes one async-signal-safe system call; it allocates nothing
        // and touches no state shared with the parent.
        unsafe {
            cmd.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL);
                Ok(())
            });
        }
    }
    cmd
}

/// A path short enough for a Unix socket address (108 bytes): relative to
/// the current directory when `path` lies under it.
fn socket_address(path: &Path) -> PathBuf {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or_else(|| path.to_path_buf())
}

/// One framed request/response exchange. Returns the response with the
/// request and response payload sizes.
pub fn exchange(
    stream: &mut UnixStream,
    req: &Request,
) -> Result<(Response, usize, usize), String> {
    let payload = req.to_bytes();
    write_frame(stream, &payload).map_err(|e| format!("send: {e}"))?;
    match read_frame(stream) {
        Ok(Some(bytes)) => {
            let len = bytes.len();
            let resp = Response::from_bytes(bytes).map_err(|e| e.to_string())?;
            Ok((resp, payload.len(), len))
        }
        Ok(None) => Err("daemon closed the connection".into()),
        Err(e) => Err(format!("receive: {e}")),
    }
}

/// The `hqr serve` daemon as a child process: this executable re-run with
/// the hidden `daemon` sub-command, which hands its arguments to
/// `hqr_cli::run(["serve", ...])`.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
    /// Socket and state directory; removed after the daemon has stopped
    /// (fields drop after `Drop::drop` ran).
    dir: TempDir,
}

impl Daemon {
    /// Spawn the daemon with its socket and state directory in a fresh
    /// temporary directory and wait until it answers a `Ping`.
    pub fn start(threads: usize) -> Result<Daemon, String> {
        let dir = TempDir::new("serve")?;
        let socket = socket_address(&dir.path().join("hqr.sock"));
        let state = dir.path().join("state");
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let child = die_with_parent(&mut Command::new(exe))
            .arg("daemon")
            .args(["--threads", &threads.to_string(), "--result-cap", "16"])
            .arg("--socket")
            .arg(&socket)
            .arg("--state-dir")
            .arg(&state)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let mut daemon = Daemon { child, socket, dir };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(mut stream) = daemon.connect() {
                match exchange(&mut stream, &Request::Ping) {
                    Ok((Response::Pong { .. }, ..)) => return Ok(daemon),
                    Ok((other, ..)) => return Err(format!("expected Pong, got {other:?}")),
                    Err(e) => return Err(format!("first ping: {e}")),
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("daemon did not come up within 20 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A new connection whose reads give up at the operation deadline.
    pub fn connect(&self) -> Result<UnixStream, String> {
        let stream = UnixStream::connect(&self.socket).map_err(|e| format!("connect: {e}"))?;
        stream.set_read_timeout(Some(OP_DEADLINE)).map_err(|e| e.to_string())?;
        stream.set_write_timeout(Some(OP_DEADLINE)).map_err(|e| e.to_string())?;
        Ok(stream)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The directory holding the daemon's state.
    pub fn dir(&self) -> &Path {
        self.dir.path()
    }
}

impl Drop for Daemon {
    /// Ask for an immediate drain, give the daemon five seconds to exit,
    /// then kill it; wait for it either way.
    fn drop(&mut self) {
        if let Ok(mut stream) = UnixStream::connect(&self.socket) {
            let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
            let _ = exchange(&mut stream, &Request::Drain { grace_ms: 0 });
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_dirs_are_distinct_and_removed() {
        let (a, b) = (TempDir::new("t").unwrap(), TempDir::new("t").unwrap());
        assert_ne!(a.path(), b.path());
        assert!(a.path().starts_with(out_dir()));
        let kept = a.path().to_path_buf();
        std::fs::write(kept.join("f"), b"x").unwrap();
        drop(a);
        assert!(!kept.exists());
    }

    #[test]
    fn fleet_shuts_down_on_drop() {
        let fleet = Fleet::spawn(2).unwrap();
        let addrs = fleet.addrs();
        assert_eq!(addrs.len(), 2);
        drop(fleet); // joins: returns only once both serve loops ended
        assert!(
            std::net::TcpStream::connect_timeout(&addrs[0], Duration::from_millis(200)).is_err()
        );
    }

    #[test]
    fn socket_addresses_are_relative_under_the_cwd() {
        let cwd = std::env::current_dir().unwrap();
        assert_eq!(socket_address(&cwd.join("a/b.sock")), PathBuf::from("a/b.sock"));
        assert_eq!(
            socket_address(Path::new("/nonexistent/x.sock")),
            PathBuf::from("/nonexistent/x.sock")
        );
    }
}
