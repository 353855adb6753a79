//! The program under test: building the release `mcc` binary from the
//! checkout, running it as a child process (reaped with its peak memory,
//! killed if abandoned), and pinning each side of a run to its own CPU.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

use mobile_cloud_cache::model::Json;

/// Builds `mcc` in release mode from the workspace in the current
/// directory and returns the path of the executable cargo reports.
pub fn build() -> Result<PathBuf, String> {
    if !std::path::Path::new("Cargo.toml").is_file() || !std::path::Path::new("crates").is_dir() {
        return Err("run from the repository root: no Cargo.toml / crates here".into());
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let out = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "mcc-cli",
            "--bin",
            "mcc",
            "--message-format=json",
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building mcc failed ({})", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .filter_map(|l| Json::parse(l).ok())
        .filter(|m| {
            m.get("target")
                .and_then(|t| t.get("name"))
                .and_then(Json::as_str)
                == Some("mcc")
        })
        .find_map(|m| {
            m.get("executable")
                .and_then(Json::as_str)
                .map(PathBuf::from)
        })
        .ok_or_else(|| "cargo reported no mcc executable".into())
}

/// The `VmHWM` (peak resident set) of a live process, in MiB.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen longs
/// starting with `ru_maxrss` (KiB).
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut RUsage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Which of the CPUs this process may use serves which side of a run.
#[derive(Clone, Copy)]
pub enum Side {
    /// The program under test (the daemon, or the replayed loop).
    Server,
    /// The benchmark's writer and reader threads.
    Client,
}

/// The CPUs this process may use, as a bit mask (first 64 only).
fn allowed() -> u64 {
    let mut mask = 0u64;
    // SAFETY: `mask` is a live, exclusively borrowed 8-byte CPU set and
    // `size` says so.
    let r = unsafe { sched_getaffinity(0, std::mem::size_of::<u64>(), &mut mask) };
    if r == 0 {
        mask
    } else {
        0
    }
}

fn set(pid: u32, mask: u64) {
    let Ok(pid) = i32::try_from(pid) else { return };
    if mask == 0 {
        return;
    }
    // SAFETY: `mask` is a live 8-byte CPU set and `size` says so; the
    // call only reads it.
    let _ = unsafe { sched_setaffinity(pid, std::mem::size_of::<u64>(), &mask) };
}

static START_MASK: std::sync::OnceLock<u64> = std::sync::OnceLock::new();

/// The CPUs the process started with (call once before any [`pin`]).
pub fn start_mask() -> u64 {
    *START_MASK.get_or_init(allowed)
}

/// Pins process or thread `pid` (`0`: the calling thread) to one CPU of
/// its side — the lowest CPU the process started with for the client,
/// the next for the server — so the load generator and the program
/// under test do not take turns on one CPU. Does nothing with fewer
/// than two CPUs.
pub fn pin(pid: u32, side: Side) {
    let all = start_mask();
    if all.count_ones() < 2 {
        return;
    }
    let client = all & all.wrapping_neg();
    let rest = all & !client;
    let server = rest & rest.wrapping_neg();
    set(
        pid,
        match side {
            Side::Client => client,
            Side::Server => server,
        },
    );
}

/// Lets the calling thread run on every CPU the process started with.
pub fn unpin() {
    set(0, start_mask());
}

/// How a reaped child ended.
pub struct Exit {
    /// Exit code (`None` if a signal ended it).
    pub code: Option<i32>,
    /// Peak resident set over the child's life, MiB — the kernel's
    /// `ru_maxrss`, the same figure as `VmHWM` read just before exit.
    pub peak_rss_mb: f64,
}

/// A child process that is killed and reaped if it is dropped before
/// [`Proc::reap`], so no error path leaves one running.
pub struct Proc {
    /// The child; take its pipes from here.
    pub child: Child,
    reaped: bool,
}

impl Proc {
    /// Spawns `cmd`.
    pub fn spawn(cmd: &mut Command) -> Result<Proc, String> {
        let child = cmd.spawn().map_err(|e| format!("cannot start mcc: {e}"))?;
        Ok(Proc {
            child,
            reaped: false,
        })
    }

    /// The child's pid.
    pub fn id(&self) -> u32 {
        self.child.id()
    }

    /// Waits for the child to end and reaps it with `wait4`, which also
    /// reports its peak memory.
    pub fn reap(mut self) -> Result<Exit, String> {
        let pid = i32::try_from(self.child.id()).map_err(|_| "pid out of range".to_string())?;
        let mut status = 0i32;
        let mut usage = RUsage {
            utime: [0; 2],
            stime: [0; 2],
            maxrss: 0,
            rest: [0; 13],
        };
        loop {
            // SAFETY: `status` and `usage` are valid, exclusively borrowed
            // out-parameters of the layout the kernel writes, and `pid`
            // is our own child, not yet reaped (`reaped` is false).
            let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
            if r == pid {
                break;
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(format!("wait4: {err}"));
            }
        }
        self.reaped = true;
        let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
        Ok(Exit {
            code,
            peak_rss_mb: usage.maxrss as f64 / 1024.0,
        })
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
