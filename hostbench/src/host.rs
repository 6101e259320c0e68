//! What the benchmark learns about the machine it runs on, and the
//! scratch directories it writes under its working directory.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// Directory (relative to the working directory) for store files and
/// trace output.
pub const OUT_DIR: &str = ".bench_out";

/// The process's resident-set high-water mark in MiB (`VmHWM`), or
/// `None` where `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live heap bytes and their high-water
/// mark. The resident set also holds whatever freed memory the
/// allocator's per-thread arenas keep, which varies from run to run
/// with thread start-up order; the live-byte peak is what the workload
/// itself needed. The counters are statistics only (`Relaxed`).
pub struct CountingAlloc;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the wrapper only updates
// two counters and never touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations are `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and `new_size` meets `realloc`'s
        // requirements as the caller guarantees.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const MIB: f64 = 1024.0 * 1024.0;

/// Runs `f` while a sampler thread records the live-heap high-water
/// mark, in MiB, of each of `windows` equal slices of `budget`. The
/// largest coexistence of buffers depends on how threads interleave;
/// the median over slices repeats where the single largest does not.
pub fn heap_peaks<T>(budget: Duration, windows: u32, f: impl FnOnce() -> T) -> (T, Vec<f64>) {
    let (stop, wait) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let sampler = scope.spawn(move || {
            let mut peaks = Vec::new();
            PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
            for _ in 0..windows {
                if wait.recv_timeout(budget / windows) != Err(RecvTimeoutError::Timeout) {
                    break;
                }
                let peak = PEAK.swap(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
                peaks.push(peak as f64 / MIB);
            }
            peaks
        });
        let out = f();
        // The sampler may already have finished and dropped its end.
        let _ = stop.send(());
        (out, sampler.join().expect("heap sampler panicked"))
    })
}

/// Usable hardware threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `dir` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
pub fn fs_type(dir: &Path) -> String {
    let Ok(path) = dir.canonicalize() else { return "unknown".into() };
    let Ok(info) = fs::read_to_string("/proc/self/mountinfo") else { return "unknown".into() };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else { continue };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(sep + 1)) else { continue };
        let len = mount.len();
        if path.starts_with(mount) && best.as_ref().is_none_or(|(l, _)| len >= *l) {
            best = Some((len, (*fstype).to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// A fresh, empty scratch directory `OUT_DIR/<name>-<pid>`, removed
/// again on drop.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates the directory, clearing any leftover of the same name.
    pub fn new(name: &str) -> std::io::Result<ScratchDir> {
        let path = Path::new(OUT_DIR).join(format!("{name}-{}", std::process::id()));
        if path.exists() {
            fs::remove_dir_all(&path)?;
        }
        fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The directory as a string (the daemon takes its store path so).
    pub fn as_string(&self) -> String {
        self.path.to_string_lossy().into_owned()
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}
