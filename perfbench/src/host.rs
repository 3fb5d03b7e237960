//! The host shape every result carries: visible cores, front workers, L3
//! size, transparent-hugepage mode, toolchain and commit.

use std::process::Command;

/// Cores this process may run on (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// The selected mode in a sysfs `[always] madvise never` list.
fn selected(list: &str) -> String {
    list.split_whitespace()
        .find_map(|w| w.strip_prefix('[').and_then(|w| w.strip_suffix(']')))
        .unwrap_or(list)
        .to_string()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The host shape as one JSON object.
pub fn host_json(front_workers: u32) -> String {
    // The benchmark may run from a plain copy of the sources; only ask git
    // when this directory is itself a checkout.
    let commit = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    format!(
        "{{\"nproc\":{},\"online_cores\":{},\"front_workers\":{},\"l3\":{},\"thp\":{},\
         \"rustc\":{},\"commit\":{}}}",
        nproc(),
        hercules_runtime::affinity::online_cores().len(),
        front_workers,
        json_str(&read_trimmed(
            "/sys/devices/system/cpu/cpu0/cache/index3/size"
        )),
        json_str(&selected(&read_trimmed(
            "/sys/kernel/mm/transparent_hugepage/enabled"
        ))),
        json_str(&command_line("rustc", &["--version"])),
        json_str(&commit),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selected_mode_is_the_bracketed_word() {
        assert_eq!(selected("always [madvise] never"), "madvise");
        assert_eq!(selected("unknown"), "unknown");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }
}
