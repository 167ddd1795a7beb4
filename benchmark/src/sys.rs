//! Facts about the process and the machine that every result file records.

use std::path::PathBuf;
use std::process::Command;

use wpinq_expr::Json;

fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_mb("VmHWM:")
}

/// Current resident set size of this process (`VmRSS`), in MiB.
pub fn rss_mb() -> f64 {
    proc_status_mb("VmRSS:")
}

/// The benchmark package directory: where `cargo run` says the manifest is, or where it
/// was when this binary was built.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// `benchmark/out/`, created on demand.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = package_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(package_dir())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Removes every `WPINQ_*` variable from this process's environment (and so from every
/// child's): the product reads its toggles lazily from the environment, and a run must
/// measure the defaults, not whatever the caller's shell had exported. Call before any
/// thread is started. Returns the names removed.
pub fn scrub_wpinq_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(name, _)| name.into_string().ok())
        .filter(|name| name.starts_with("WPINQ_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

/// The current value of a counter on the product's telemetry registry.
pub fn counter(name: &str) -> u64 {
    wpinq_telemetry::registry().counter_value(name)
}

/// The environment record written into every result file.
pub fn environment() -> Json {
    let threads = wpinq::plan::available_threads();
    Json::Obj(vec![
        ("nproc".into(), Json::num(threads)),
        (
            "git_rev".into(),
            Json::str(first_line_of("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("rustc".into(), Json::str(first_line_of("rustc", &["-V"]))),
        (
            "library_executor".into(),
            Json::str(format!("{:?}", wpinq::plan::default_executor())),
        ),
        (
            "incremental_engine".into(),
            Json::str(format!("{:?}", wpinq::plan::IncrementalEngine::from_env())),
        ),
        (
            "optimize_level".into(),
            Json::str(format!("{:?}", wpinq::plan::OptimizeLevel::from_env())),
        ),
    ])
}
