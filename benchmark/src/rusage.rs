//! Spawn a child, wait for it with `wait4`, and read what it cost.
//!
//! `std::process` reports an exit status and nothing else; the per-child
//! CPU seconds and peak resident set come from the `rusage` the kernel
//! fills in on `wait4`. No libc crate is vendored, so the two foreign
//! functions and their struct are declared here (Linux, 64-bit `long`).
//!
//! A child's `ru_maxrss` starts from the resident set of the process that
//! spawned it (the kernel folds the pre-`exec` address space into the
//! high-water mark), so a harness holding a 40 MB instance pool would
//! report 40 MB for an 8 MB `rex`. Operations are therefore spawned
//! through [`launch`]: a fresh `rexbench launch` process that holds
//! nothing, runs the one child, and prints what it cost.

use std::process::{Command, Stdio};
use std::time::Instant;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Clone, Copy, Default, Debug)]
pub struct Timeval {
    pub tv_sec: i64,
    pub tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Clone, Copy, Default, Debug)]
pub struct Rusage {
    pub ru_utime: Timeval,
    pub ru_stime: Timeval,
    /// Peak resident set size, in KiB on Linux.
    pub ru_maxrss: i64,
    pub ru_ixrss: i64,
    pub ru_idrss: i64,
    pub ru_isrss: i64,
    pub ru_minflt: i64,
    pub ru_majflt: i64,
    pub ru_nswap: i64,
    pub ru_inblock: i64,
    pub ru_oublock: i64,
    pub ru_msgsnd: i64,
    pub ru_msgrcv: i64,
    pub ru_nsignals: i64,
    pub ru_nvcsw: i64,
    pub ru_nivcsw: i64,
}

extern "C" {
    fn wait4(pid: i32, wstatus: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// CPU seconds (user + system, all threads) this process has used so far.
pub fn self_cpu_s() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `repr(C)` mirror of the kernel's
    // `struct rusage` for the whole call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    cost_of(&ru).0
}

/// What one child process cost, as the kernel accounted it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChildCost {
    /// Spawn → exit wall-clock seconds.
    pub wall_s: f64,
    /// User + system CPU seconds, summed over the child's threads.
    pub cpu_s: f64,
    /// Peak resident set in MiB.
    pub rss_mb: f64,
    /// True when the child exited normally with status 0.
    pub ok: bool,
}

/// CPU seconds and peak RSS (MiB) out of a filled-in `rusage`.
pub fn cost_of(ru: &Rusage) -> (f64, f64) {
    let secs = |t: Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    (
        secs(ru.ru_utime) + secs(ru.ru_stime),
        ru.ru_maxrss as f64 / 1024.0,
    )
}

/// True when a `wait` status word says "exited normally with code 0"
/// (`WIFEXITED && WEXITSTATUS == 0`).
pub fn exited_ok(wstatus: i32) -> bool {
    wstatus & 0x7f == 0 && (wstatus >> 8) & 0xff == 0
}

/// Runs `cmd` to completion with stdout and stderr appended to `log`,
/// and reports its wall time, CPU time, peak RSS and whether it succeeded.
///
/// The child is reaped by `wait4` here, not by `std::process::Child`, so
/// the `Child` handle is dropped unwaited on purpose.
pub fn run_child(cmd: &mut Command, log: &std::path::Path) -> std::io::Result<ChildCost> {
    let sink = || {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
    };
    cmd.stdin(Stdio::null()).stdout(sink()?).stderr(sink()?);
    let start = Instant::now();
    let child = cmd.spawn()?;
    let pid = i32::try_from(child.id()).expect("pid fits in pid_t");
    let mut wstatus = 0i32;
    let mut ru = Rusage::default();
    // SAFETY: `wstatus` and `ru` are live, writable, correctly laid out
    // (`repr(C)` mirrors of the kernel structs) for the whole call, and
    // `pid` is our own unreaped child, so the call cannot reap a stranger.
    let reaped = unsafe { wait4(pid, &mut wstatus, 0, &mut ru) };
    let wall_s = start.elapsed().as_secs_f64();
    if reaped != pid {
        return Err(std::io::Error::last_os_error());
    }
    let (cpu_s, rss_mb) = cost_of(&ru);
    Ok(ChildCost {
        wall_s,
        cpu_s,
        rss_mb,
        ok: exited_ok(wstatus),
    })
}

/// `rexbench launch LOG PROG ARGS...`: runs the one child and prints
/// `wall_s cpu_s rss_mb ok` on stdout. Must stay allocation-light — its own
/// resident set is the floor of what it can measure.
pub fn launch_main(args: &[String]) -> Result<(), String> {
    let [log, prog, rest @ ..] = args else {
        return Err("usage: rexbench launch LOG PROG [ARGS...]".into());
    };
    let c = run_child(Command::new(prog).args(rest), log.as_ref())
        .map_err(|e| format!("launching {prog}: {e}"))?;
    println!("{} {} {} {}", c.wall_s, c.cpu_s, c.rss_mb, u8::from(c.ok));
    Ok(())
}

/// Runs `prog args` through a fresh launcher process (this executable in
/// `launch` mode) with `REX_THREADS=threads`, and returns the child's cost
/// as the launcher measured it.
pub fn launch(
    prog: &std::path::Path,
    args: &[String],
    threads: usize,
    log: &std::path::Path,
) -> Result<ChildCost, String> {
    let me = std::env::current_exe().map_err(|e| format!("locating rexbench: {e}"))?;
    let out = Command::new(me)
        .arg("launch")
        .arg(log)
        .arg(prog)
        .args(args)
        .env("REX_THREADS", threads.to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the launcher: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    parse_launch_line(&text).ok_or_else(|| format!("launcher printed `{}`", text.trim()))
}

/// Parses the launcher's `wall_s cpu_s rss_mb ok` line.
pub fn parse_launch_line(line: &str) -> Option<ChildCost> {
    let mut it = line.split_whitespace();
    let mut num = || it.next()?.parse::<f64>().ok();
    let (wall_s, cpu_s, rss_mb, ok) = (num()?, num()?, num()?, num()?);
    Some(ChildCost {
        wall_s,
        cpu_s,
        rss_mb,
        ok: ok == 1.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rusage_layout_matches_the_kernel_struct() {
        // 2 × timeval (16 bytes) + 14 × long (8 bytes) on 64-bit Linux.
        assert_eq!(std::mem::size_of::<Rusage>(), 144);
    }

    #[test]
    fn cost_sums_user_and_system_time_and_converts_kib_to_mib() {
        let ru = Rusage {
            ru_utime: Timeval {
                tv_sec: 2,
                tv_usec: 250_000,
            },
            ru_stime: Timeval {
                tv_sec: 0,
                tv_usec: 500_000,
            },
            ru_maxrss: 3 * 1024,
            ..Default::default()
        };
        assert_eq!(cost_of(&ru), (2.75, 3.0));
    }

    #[test]
    fn status_word_decoding() {
        assert!(exited_ok(0));
        assert!(!exited_ok(1 << 8), "exit code 1");
        assert!(!exited_ok(9), "killed by SIGKILL");
    }

    #[test]
    fn launch_line_round_trips() {
        let c = parse_launch_line("0.25 0.5 8.125 1\n").unwrap();
        assert_eq!(
            (c.wall_s, c.cpu_s, c.rss_mb, c.ok),
            (0.25, 0.5, 8.125, true)
        );
        assert!(!parse_launch_line("0.25 0.5 8.125 0").unwrap().ok);
        assert!(parse_launch_line("0.25 0.5").is_none());
        assert!(parse_launch_line("error: no such file").is_none());
    }

    #[test]
    fn a_real_child_is_reaped_with_its_cost() {
        let log = std::env::temp_dir().join("rexbench-rusage-test.log");
        let ok = run_child(Command::new("true").arg("x"), &log).unwrap();
        assert!(ok.ok && ok.wall_s > 0.0 && ok.rss_mb > 0.0);
        let bad = run_child(&mut Command::new("false"), &log).unwrap();
        assert!(!bad.ok);
        std::fs::remove_file(&log).ok();
    }
}
