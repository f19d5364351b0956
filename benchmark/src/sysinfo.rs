//! What the like-for-like record of a results file says about the machine
//! and the checkout, and the memory high-water mark of a process.

use std::path::{Path, PathBuf};

/// The benchmark's own directory (`benchmark/` of the checkout it was
/// built in); everything the harness writes goes under `out/` in it.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Where results, traces and temporary state go.
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// Peak resident set (`VmHWM`) of process `pid` in MB, from
/// `/proc/<pid>/status`. `None` where procfs does not provide it.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `"tmpfs"` or `"disk (<fstype>)"` for the filesystem holding `dir`,
/// from the longest matching mount point in `/proc/mounts`.
pub fn fs_kind(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let fstype = mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|&(len, _)| len)
        .map(|(_, t)| t);
    match fstype {
        Some("tmpfs") => "tmpfs".to_string(),
        Some(t) => format!("disk ({t})"),
        None => "unknown".to_string(),
    }
}

/// The commit the checkout is at, read from `.git` beside the benchmark
/// directory without running git; `"unknown"` outside a repository (the
/// driver's checkouts are not repositories).
pub fn git_commit() -> String {
    let git = bench_dir().join("../.git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head; // detached HEAD holds the hash itself
    };
    read(git.join(reference))
        .or_else(|| {
            // Packed refs: "<hash> <ref>" lines.
            read(git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|hash| hash.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        if Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb(std::process::id()).unwrap() > 0.5);
            assert_ne!(fs_kind(&bench_dir()), "unknown");
        }
        assert!(nproc() >= 1);
        assert!(bench_dir().join("Cargo.toml").exists());
        let commit = git_commit();
        assert!(commit == "unknown" || commit.len() >= 7, "{commit}");
    }
}
