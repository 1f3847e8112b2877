//! Run conditions: the pinned `IVMF_*` environment and the machine and
//! source identity recorded with every result.

use std::path::Path;

use crate::json::Json;

/// Every `IVMF_*` knob the workspace reads.
pub const KNOBS: [&str; 15] = [
    ivmf_env::THREADS,
    ivmf_env::PREFETCH,
    ivmf_env::EXACT_INTERVAL,
    ivmf_env::SHARD_ROWS,
    ivmf_env::SPARSE_THRESHOLD,
    ivmf_env::TOPK_EIGEN,
    ivmf_env::SNAPSHOT_DIR,
    ivmf_env::WORKERS,
    ivmf_env::WORKER_SPAWN,
    ivmf_env::SHARD_FORMAT,
    ivmf_env::REPLICATES,
    ivmf_env::SCALE,
    ivmf_env::BENCH_SMOKE,
    ivmf_env::BENCH_OUT,
    ivmf_env::BENCH_ISVD_OUT,
];

/// Pins the run conditions: one compute thread (the prefetch thread is the
/// second, which equals this machine's two cores) and every other
/// `IVMF_*` variable cleared, so the prefetch depth is its default of 1.
/// Returns the variables that were set before, for the record.
///
/// Call before any other thread exists: it edits the process environment.
pub fn pin_environment() -> Vec<(String, String)> {
    let inherited: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("IVMF_"))
        .collect();
    for (k, _) in &inherited {
        std::env::remove_var(k);
    }
    std::env::set_var(ivmf_env::THREADS, "1");
    inherited
}

/// The value of every knob as this process sees it (`null` = unset).
pub fn environment_record(inherited: &[(String, String)]) -> Json {
    let mut knobs = Json::obj();
    for k in KNOBS {
        knobs.set(k, std::env::var(k).ok());
    }
    let mut cleared = Json::obj();
    for (k, v) in inherited {
        cleared.set(k, v.as_str());
    }
    Json::obj()
        .with("knobs", knobs)
        .with("prefetch_depth", ivmf_env::prefetch())
        .with("cleared_on_start", cleared)
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// `model name` of the first CPU in `/proc/cpuinfo`.
pub fn cpu_model() -> Option<String> {
    read("/proc/cpuinfo")?
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Size of the highest-level data or unified cache of CPU 0, in bytes.
pub fn llc_bytes() -> Option<usize> {
    let mut best: Option<(u32, usize)> = None;
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let (Some(level), Some(size), Some(kind)) = (
            read(&format!("{dir}/level")),
            read(&format!("{dir}/size")),
            read(&format!("{dir}/type")),
        ) else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let level: u32 = level.trim().parse().ok()?;
        let size = size.trim();
        let bytes = if let Some(k) = size.strip_suffix('K') {
            k.parse::<usize>().ok()? * 1024
        } else if let Some(m) = size.strip_suffix('M') {
            m.parse::<usize>().ok()? * 1024 * 1024
        } else {
            size.parse().ok()?
        };
        if best.map_or(true, |(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, b)| b)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = read("/proc/self/status")?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The commit checked out in `root`, when `root` is a git work tree.
pub fn commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// FNV-1a over the paths and bytes of every file that builds the program
/// (the crates, the manifests, the lock file and the cargo config): an
/// identity of the code under test that also exists where no git metadata
/// does.
pub fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    collect_files(&root.join("crates"), &mut files);
    for f in ["Cargo.toml", "Cargo.lock", ".cargo/config.toml"] {
        files.push(root.join(f));
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            let rel = f.strip_prefix(root).unwrap_or(&f);
            fold(rel.to_string_lossy().as_bytes());
            fold(&bytes);
        }
    }
    h
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_files(&p, out);
        } else {
            out.push(p);
        }
    }
}
