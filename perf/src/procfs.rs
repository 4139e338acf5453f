//! Readers for the Linux `/proc` files the benchmark samples. Each reader
//! is split into a pure parser over the file's text (unit-tested on
//! sample text) and a thin function that reads the live file.

use std::fs;
use std::path::Path;

/// The value of a `Name:  <number> kB`-style line of a `status` file.
pub fn status_kb(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Voluntary plus involuntary context switches of one task `status`.
pub fn ctx_switches(status: &str) -> Option<u64> {
    Some(
        status_kb(status, "voluntary_ctxt_switches")?
            + status_kb(status, "nonvoluntary_ctxt_switches")?,
    )
}

/// `write_bytes` of an `io` file: bytes this process caused to be sent to
/// the storage device.
pub fn io_write_bytes(io: &str) -> Option<u64> {
    io.lines()
        .find_map(|line| line.strip_prefix("write_bytes:")?.trim().parse().ok())
}

/// The filesystem type of the mount holding `path` (an absolute,
/// canonical path), from `mounts` text: the entry with the longest mount
/// point that is a prefix of `path`.
pub fn mount_fs_type(mounts: &str, path: &Path) -> Option<String> {
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let _device = fields.next()?;
            let point = unescape_mount(fields.next()?);
            let fs = fields.next()?;
            path.starts_with(&point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

/// Undoes the kernel's octal escaping of mount points (`\040` = space).
fn unescape_mount(raw: &str) -> String {
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        let octal = bytes.get(i + 1..i + 4).and_then(|d| {
            std::str::from_utf8(d)
                .ok()
                .and_then(|s| u8::from_str_radix(s, 8).ok())
        });
        match (bytes[i], octal) {
            (b'\\', Some(b)) => {
                out.push(b);
                i += 4;
            }
            (b, _) => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Peak resident set size of this process (`VmHWM`), in KiB.
pub fn peak_rss_kb() -> Option<u64> {
    status_kb(&fs::read_to_string("/proc/self/status").ok()?, "VmHWM")
}

/// Context switches summed over every thread of this process.
/// `/proc/self/status` alone covers only the main thread.
pub fn task_ctx_switches() -> Option<u64> {
    let mut total = 0;
    for entry in fs::read_dir("/proc/self/task").ok()?.flatten() {
        // A thread may exit between the listing and the read.
        if let Ok(status) = fs::read_to_string(entry.path().join("status")) {
            total += ctx_switches(&status)?;
        }
    }
    Some(total)
}

/// Threads of this process right now.
pub fn thread_count() -> Option<usize> {
    Some(fs::read_dir("/proc/self/task").ok()?.count())
}

/// Bytes this process has caused to be written to storage so far.
pub fn write_bytes() -> Option<u64> {
    io_write_bytes(&fs::read_to_string("/proc/self/io").ok()?)
}

/// The running kernel's release string.
pub fn kernel() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// The filesystem type holding `dir` (which must exist).
pub fn fs_type(dir: &Path) -> String {
    let path = fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    fs::read_to_string("/proc/self/mounts")
        .ok()
        .and_then(|mounts| mount_fs_type(&mounts, &path))
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\thts-perf\nState:\tS (sleeping)\nVmPeak:\t  812344 kB\n\
VmHWM:\t   53120 kB\nVmRSS:\t   41012 kB\nThreads:\t9\n\
voluntary_ctxt_switches:\t1520\nnonvoluntary_ctxt_switches:\t37\n";

    #[test]
    fn status_fields_parse() {
        assert_eq!(status_kb(STATUS, "VmHWM"), Some(53120));
        assert_eq!(status_kb(STATUS, "VmRSS"), Some(41012));
        assert_eq!(status_kb(STATUS, "Threads"), Some(9));
        assert_eq!(status_kb(STATUS, "VmSwap"), None);
        // A field name that is only a prefix of another must not match it.
        assert_eq!(status_kb(STATUS, "Vm"), None);
        assert_eq!(ctx_switches(STATUS), Some(1557));
        assert_eq!(ctx_switches("Name:\tx\n"), None);
    }

    #[test]
    fn io_write_bytes_parses() {
        let io = "rchar: 4096\nwchar: 8192\nsyscr: 3\nsyscw: 2\nread_bytes: 0\n\
write_bytes: 1236992\ncancelled_write_bytes: 4096\n";
        assert_eq!(io_write_bytes(io), Some(1_236_992));
        assert_eq!(io_write_bytes("rchar: 1\n"), None);
    }

    #[test]
    fn mount_lookup_picks_the_longest_prefix() {
        let mounts = "overlay / overlay rw,relatime 0 0\n\
proc /proc proc rw,nosuid 0 0\n\
/dev/vda /data ext4 rw,relatime 0 0\n\
/dev/vdb /data/with\\040space xfs rw 0 0\n";
        assert_eq!(
            mount_fs_type(mounts, Path::new("/data/wal/server-0")),
            Some("ext4".into())
        );
        assert_eq!(
            mount_fs_type(mounts, Path::new("/data/with space/x")),
            Some("xfs".into())
        );
        assert_eq!(
            mount_fs_type(mounts, Path::new("/home/x")),
            Some("overlay".into())
        );
        // Component-wise prefix: /database is not under /data.
        assert_eq!(
            mount_fs_type(mounts, Path::new("/database")),
            Some("overlay".into())
        );
        assert_eq!(mount_fs_type("", Path::new("/x")), None);
    }
}
