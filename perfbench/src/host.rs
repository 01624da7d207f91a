//! What the benchmark reads about its own process and host from `/proc`.

use std::fs;
use std::path::Path;

/// Peak resident set size (`VmHWM`) of this process in MB, if readable.
pub fn peak_rss_mb() -> Option<f64> {
    status_mb("VmHWM:")
}

fn status_mb(key: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Host-wide CPU time counters from `/proc/stat`: (steal, total) in ticks.
pub fn cpu_steal_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Return freed heap memory to the kernel, then reset this process's peak
/// resident set size to its current RSS (write `5` to
/// `/proc/self/clear_refs`), so that [`peak_rss_mb`] reports the peak of
/// what follows rather than memory an earlier phase freed but the
/// allocator kept. Returns false where the kernel refuses the reset.
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: glibc's `malloc_trim` takes a plain integer, touches only the
    // allocator's own free lists under its locks, and is safe to call from
    // any thread at any time.
    unsafe {
        malloc_trim(0);
    }
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Bytes this process has passed to `write`-family calls so far (`wchar`
/// of `/proc/self/io`, summed over its threads), if readable.
pub fn written_bytes() -> Option<u64> {
    let io = fs::read_to_string("/proc/self/io").ok()?;
    let line = io.lines().find(|l| l.starts_with("wchar:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Filesystem type of the mount holding `path` (longest mount-point prefix
/// in `/proc/self/mountinfo`), or `"unknown"`.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(canonical) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // Fields: id parent major:minor root mount-point options ... - fstype source
        let fields: Vec<&str> = line.split_whitespace().collect();
        let (Some(mount), Some(dash)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        let Some(fstype) = fields.get(dash + 1) else {
            continue;
        };
        if canonical.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len)
        {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// The build profile this binary was compiled with.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}
