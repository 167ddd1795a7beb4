//! A resident-memory probe for the Figure 6 reproduction.
//!
//! The paper reports the memory footprint of the incremental TbI computation as a function
//! of Σd². On Linux we read `VmRSS` from `/proc/self/status`; on other platforms the probe
//! returns `None` and the harness reports the state-size proxy instead.

/// The current resident set size in bytes, if the platform exposes it.
pub fn resident_bytes() -> Option<u64> {
    proc_status_bytes("VmRSS:")
}

fn proc_status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            let kb: u64 = rest
                .split_whitespace()
                .next()
                .and_then(|v| v.parse().ok())?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Formats a byte count as mebibytes with one decimal, or `"n/a"` when unknown.
pub fn fmt_bytes(bytes: Option<u64>) -> String {
    match bytes {
        Some(b) => format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0)),
        None => "n/a".to_string(),
    }
}

/// The increase in resident memory across a closure, together with the closure's result.
pub fn measure_growth<T>(f: impl FnOnce() -> T) -> (T, Option<u64>) {
    let before = resident_bytes();
    let result = f();
    let after = resident_bytes();
    let growth = match (before, after) {
        (Some(b), Some(a)) => Some(a.saturating_sub(b)),
        _ => None,
    };
    (result, growth)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resident_bytes_is_positive_on_linux() {
        if let Some(bytes) = resident_bytes() {
            assert!(bytes > 1024 * 1024, "suspiciously small RSS: {bytes}");
        }
    }

    #[test]
    fn growth_is_observed_for_a_large_allocation() {
        let (len, growth) = measure_growth(|| {
            let v = vec![7u8; 64 * 1024 * 1024];
            v.len()
        });
        assert_eq!(len, 64 * 1024 * 1024);
        if let Some(grown) = growth {
            // The allocation may already be returned to the OS; just check we got a number.
            assert!(grown < 1024 * 1024 * 1024);
        }
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_bytes(None), "n/a");
        assert_eq!(fmt_bytes(Some(1024 * 1024)), "1.0 MiB");
    }
}
