//! OS accounting of processes, read from Linux `/proc`.
//!
//! CPU time is `utime + stime` from `/proc/<pid>/stat`: what the kernel
//! charges to every thread of the process, exited threads included. It
//! is counted in clock ticks of 1/100 s (`USER_HZ` on Linux). Peak
//! memory is `VmHWM` from `/proc/<pid>/status`.

use std::fs;

/// `USER_HZ`: clock ticks per second in `/proc/<pid>/stat`.
const TICKS_PER_SECOND: f64 = 100.0;

/// A process to read: this one, or a child by pid.
#[derive(Debug, Clone, Copy)]
pub enum Proc {
    /// The benchmark process itself.
    This,
    /// Another process.
    Pid(u32),
}

impl Proc {
    fn path(self, file: &str) -> String {
        match self {
            Proc::This => format!("/proc/self/{file}"),
            Proc::Pid(pid) => format!("/proc/{pid}/{file}"),
        }
    }

    /// CPU seconds (user + system) charged to the process so far.
    ///
    /// # Errors
    ///
    /// The process is gone or `/proc` is unreadable.
    pub fn cpu_seconds(self) -> Result<f64, String> {
        let stat = fs::read_to_string(self.path("stat")).map_err(|e| e.to_string())?;
        parse_cpu_seconds(&stat)
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    ///
    /// # Errors
    ///
    /// The process is gone or `/proc` is unreadable.
    pub fn peak_rss_mb(self) -> Result<f64, String> {
        let status = fs::read_to_string(self.path("status")).map_err(|e| e.to_string())?;
        parse_vm_hwm_mb(&status)
    }
}

fn parse_cpu_seconds(stat: &str) -> Result<f64, String> {
    // Fields after the parenthesised command name start at field 3
    // (`state`); utime and stime are fields 14 and 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("malformed /proc stat field {}", i + 3))
    };
    Ok((tick(11)? + tick(12)?) as f64 / TICKS_PER_SECOND)
}

fn parse_vm_hwm_mb(status: &str) -> Result<f64, String> {
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("malformed VmHWM")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_spaces_in_the_command() {
        let stat = "42 (lift server) S 1 42 42 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0";
        assert_eq!(parse_cpu_seconds(stat), Ok(3.0));
        assert!(parse_cpu_seconds("garbage").is_err());
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t 9000 kB\nVmHWM:\t    2048 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Ok(2.0));
    }

    #[test]
    fn reads_this_process() {
        assert!(Proc::This.cpu_seconds().expect("own stat") >= 0.0);
        assert!(Proc::This.peak_rss_mb().expect("own status") > 0.0);
    }
}
