//! `/proc/self/io` counters (Linux). `wchar` counts every byte this process
//! passed to a write syscall; the harness writes nothing during an ingest
//! phase, so its delta is exactly what the store wrote.

/// Byte and syscall counters of this process.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcIo {
    pub rchar: u64,
    pub wchar: u64,
    pub syscr: u64,
    pub syscw: u64,
}

/// Parse the text of `/proc/self/io`; `None` unless all four counters are
/// present and numeric.
pub fn parse(text: &str) -> Option<ProcIo> {
    let field = |name: &str| {
        text.lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(':'))
            .and_then(|v| v.trim().parse::<u64>().ok())
    };
    Some(ProcIo {
        rchar: field("rchar")?,
        wchar: field("wchar")?,
        syscr: field("syscr")?,
        syscw: field("syscw")?,
    })
}

/// Current counters; `None` off Linux or when `/proc` is not readable, in
/// which case the metrics derived from them are reported as `null`.
pub fn read() -> Option<ProcIo> {
    parse(&std::fs::read_to_string("/proc/self/io").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_kernel_format() {
        let text = "rchar: 3012\nwchar: 184\nsyscr: 12\nsyscw: 3\nread_bytes: 0\n\
                    write_bytes: 4096\ncancelled_write_bytes: 0\n";
        assert_eq!(
            parse(text),
            Some(ProcIo {
                rchar: 3012,
                wchar: 184,
                syscr: 12,
                syscw: 3
            })
        );
    }

    #[test]
    fn missing_or_malformed_counters_fall_back_to_none() {
        assert_eq!(parse(""), None);
        assert_eq!(parse("rchar: 1\nwchar: x\nsyscr: 1\nsyscw: 1\n"), None);
        assert_eq!(parse("rchar: 1\nsyscr: 1\nsyscw: 1\n"), None);
    }

    #[test]
    fn live_counters_grow_with_writes_on_linux() {
        let Some(before) = read() else {
            if cfg!(target_os = "linux") {
                panic!("/proc/self/io unreadable on Linux");
            }
            return;
        };
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("procio-test-{}", std::process::id()));
        std::fs::write(&path, vec![0u8; 10_000]).unwrap();
        std::fs::remove_file(&path).unwrap();
        let after = read().unwrap();
        assert!(after.wchar - before.wchar >= 10_000);
        assert!(after.syscw > before.syscw);
    }
}
