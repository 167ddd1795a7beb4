//! The `wpinq-service` binary: a measurement server speaking newline-delimited JSON.
//!
//! Modes:
//!
//! * `wpinq-service --demo` (default) — registers a small built-in graph, grants the
//!   `demo` analyst a budget, measures the degree-CCDF workload through the JSON front
//!   door, and prints the request, the response, and the audit log. Deterministic
//!   (fixed seed), so it doubles as a CI smoke test of the whole service path.
//! * `wpinq-service --serve` — reads one [`MeasureRequest`](wpinq_service::MeasureRequest)
//!   envelope per stdin line and writes one response envelope per stdout line.
//! * `wpinq-service --listen <addr>` — the same envelopes over TCP: an accept loop and
//!   a worker threadpool share one `MeasurementService`, so concurrent analysts are
//!   served in parallel (budget debits stay all-or-nothing; identical repeats hit the
//!   measurement cache). `<addr>` like `127.0.0.1:7878`.
//! * `wpinq-service --tcp-demo` — starts a loopback server on an OS-chosen port, runs
//!   the demo workload through a real TCP client twice, and asserts the repeat came
//!   back byte-identical with zero extra ε charged. The CI TCP smoke step.
//! * `wpinq-service --metrics-demo` — starts a loopback server *and* the Prometheus
//!   metrics endpoint, drives a traced measurement and an `{"op":"stats"}` request
//!   through TCP, scrapes the endpoint, and asserts the core metric families are
//!   present. The CI observability smoke step.
//!
//! `--listen` additionally accepts `--metrics-addr <addr>` to serve the Prometheus
//! text exposition endpoint on a second listener (e.g. `--metrics-addr
//! 127.0.0.1:9090`).
//!
//! Datasets and grants come from `--demo`-style built-ins; a production deployment
//! would load them from its own storage. The serving modes seed the noise RNG from
//! `/dev/urandom` — the seed is the curator's secret and never leaves the process (the
//! server refuses to start without an entropy source).

use std::io::{BufRead, Write};
use std::sync::Arc;

use wpinq::plan::executor_for_threads;
use wpinq::{Expr, Plan, PrivacyBudget, WeightedDataset};
use wpinq_service::{Client, MeasurementService, Tcp};

/// The built-in demo graph: a triangle with a tail plus a 4-cycle, as symmetric
/// directed edges.
fn demo_edges() -> WeightedDataset<(u32, u32)> {
    let undirected = [
        (0u32, 1u32),
        (1, 2),
        (0, 2),
        (2, 3),
        (4, 5),
        (5, 6),
        (6, 7),
        (7, 4),
    ];
    WeightedDataset::from_records(undirected.iter().flat_map(|&(a, b)| [(a, b), (b, a)]))
}

/// The degree-CCDF workload in expression form (the same definition
/// `wpinq_analyses::degree::degree_ccdf_plan_expr` builds).
fn degree_ccdf_plan() -> Plan<u64> {
    let edges = Plan::<(u32, u32)>::source_expr("edges");
    edges
        .select_expr::<u32>(Expr::input().field(0))
        .shave_const(1.0)
        .select_expr::<u64>(Expr::input().field(1))
}

fn build_service(noise_seed: Option<u64>) -> MeasurementService {
    let mut service = MeasurementService::new()
        .with_executor(executor_for_threads(wpinq::plan::available_threads()));
    if let Some(seed) = noise_seed {
        service = service.with_noise_seed(seed);
    }
    service
        .register("edges", &demo_edges())
        .expect("demo dataset registers");
    service
        .grant("demo", "edges", PrivacyBudget::new(10.0))
        .expect("demo grant");
    service
}

fn run_demo() {
    let service = build_service(Some(42));
    let plan = degree_ccdf_plan();
    let spec = plan.to_spec().expect("expression-built plan serializes");
    let request = wpinq_service::MeasureRequest {
        analyst: "demo".into(),
        epsilon: 0.5,
        spec,
        id: Some("demo-1".into()),
        trace: false,
        encoding: wpinq_service::ResponseEncoding::Json,
    };
    let request_json = request.to_json_string();
    println!("--- request ---");
    println!("{request_json}");

    let response = service.handle_line(&request_json);
    println!("--- response ---");
    println!("{response}");

    println!("--- audit log ---");
    for entry in service.audit_log() {
        println!("{entry}");
    }
    println!(
        "--- budget remaining for demo@edges: {} ---",
        service.remaining("demo", "edges").unwrap_or(f64::NAN)
    );
    assert!(
        response.contains("\"ok\":true"),
        "demo measurement must succeed"
    );
    assert!(
        response.contains("\"id\":\"demo-1\""),
        "response must echo the request id"
    );
}

/// An unpredictable noise seed from the OS entropy pool. Differential privacy stands or
/// falls with this: a guessable seed (e.g. the wall clock) would let an analyst replay
/// the Laplace stream and de-noise every release.
fn entropy_seed() -> u64 {
    use std::io::Read;
    let mut bytes = [0u8; 8];
    match std::fs::File::open("/dev/urandom").and_then(|mut f| f.read_exact(&mut bytes)) {
        Ok(()) => u64::from_le_bytes(bytes),
        Err(e) => {
            // No entropy device (non-unix dev box): refuse to serve rather than hand
            // out breakable noise.
            eprintln!("cannot read /dev/urandom for the noise seed: {e}");
            std::process::exit(1);
        }
    }
}

fn run_serve() {
    let service = build_service(Some(entropy_seed()));
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(line) => line,
            Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = service.handle_line(&line);
        if writeln!(out, "{response}")
            .and_then(|_| out.flush())
            .is_err()
        {
            break;
        }
    }
}

fn run_listen(addr: &str, metrics_addr: Option<&str>) {
    let service = Arc::new(build_service(Some(entropy_seed())));
    let workers = wpinq::plan::available_threads().max(2);
    let handle = match wpinq_service::serve_tcp(service.clone(), addr, workers) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("cannot listen on {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!("listening on {} ({workers} workers)", handle.local_addr());
    let _metrics_handle = metrics_addr.map(|metrics_addr| {
        match wpinq_service::serve_metrics(service, metrics_addr) {
            Ok(handle) => {
                println!("metrics on http://{}/metrics", handle.local_addr());
                handle
            }
            Err(e) => {
                eprintln!("cannot serve metrics on {metrics_addr}: {e}");
                std::process::exit(1);
            }
        }
    });
    // Serve until the process is killed.
    loop {
        std::thread::park();
    }
}

/// Scrapes `addr` once over plain HTTP and returns the exposition body.
fn scrape_metrics(addr: std::net::SocketAddr) -> String {
    use std::io::Read;
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to metrics endpoint");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")
        .expect("send scrape");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read scrape response");
    assert!(
        response.starts_with("HTTP/1.1 200 OK"),
        "metrics endpoint must answer 200, got: {}",
        response.lines().next().unwrap_or("")
    );
    let body_start = response
        .find("\r\n\r\n")
        .expect("scrape response has a header/body split");
    response[body_start + 4..].to_string()
}

fn run_metrics_demo() {
    let service = Arc::new(build_service(Some(entropy_seed())));
    let handle =
        wpinq_service::serve_tcp(service.clone(), "127.0.0.1:0", 4).expect("loopback server");
    let metrics = wpinq_service::serve_metrics(service.clone(), "127.0.0.1:0")
        .expect("loopback metrics endpoint");
    println!(
        "metrics-demo server on {}, metrics on {}",
        handle.local_addr(),
        metrics.local_addr()
    );

    // One traced measurement through real TCP: the trace must ride the response.
    let plan = degree_ccdf_plan();
    let mut request = wpinq_service::MeasureRequest {
        analyst: "demo".into(),
        epsilon: 0.5,
        spec: plan.to_spec().expect("expression-built plan serializes"),
        id: Some("metrics-smoke".into()),
        trace: true,
        encoding: wpinq_service::ResponseEncoding::Json,
    };
    use wpinq_service::Transport;
    let tcp = Tcp::new(handle.local_addr().to_string());
    let traced = tcp
        .roundtrip(&request.to_json_string())
        .expect("traced measurement");
    assert!(
        traced.contains("\"ok\":true"),
        "measurement failed: {traced}"
    );
    assert!(
        traced.contains("\"trace\":") && traced.contains("\"spans\":"),
        "trace:true response must carry the trace"
    );
    assert!(
        traced.contains("\"analyze\""),
        "the trace must embed the EXPLAIN ANALYZE report"
    );
    // The identical request without the flag must release the very same bytes (the
    // flag is not part of the cache key, so this replays the cached measurement).
    request.trace = false;
    let untraced = tcp
        .roundtrip(&request.to_json_string())
        .expect("untraced repeat");
    assert!(
        !untraced.contains("\"trace\":"),
        "untraced response stays clean"
    );

    // The stats sideband op answers with the registry as JSON.
    let stats = tcp.roundtrip("{\"op\":\"stats\"}").expect("stats op");
    assert!(
        stats.contains("\"ok\":true") && stats.contains("\"stats\":"),
        "stats op must answer with the registry: {stats}"
    );
    assert!(
        stats.contains("wpinq_requests_total"),
        "stats carries request counts"
    );

    // The Prometheus endpoint exposes every core family.
    let body = scrape_metrics(metrics.local_addr());
    for family in [
        "# TYPE wpinq_requests_total counter",
        "# TYPE wpinq_request_latency_ms histogram",
        "wpinq_request_latency_ms_bucket{le=\"+Inf\"}",
        "# TYPE wpinq_response_encode_ms histogram",
        "wpinq_response_bytes_bucket{encoding=\"json\",le=\"+Inf\"}",
        "wpinq_cache_hits_total",
        "wpinq_cache_misses_total",
        "wpinq_budget_epsilon_spent",
        "wpinq_budget_epsilon_remaining",
    ] {
        assert!(
            body.contains(family),
            "scrape is missing '{family}':\n{body}"
        );
    }
    println!("ok: traced response, stats op, and Prometheus scrape all check out");
    metrics.shutdown();
    handle.shutdown();
}

fn run_tcp_demo() {
    let service = Arc::new(build_service(Some(entropy_seed())));
    let handle =
        wpinq_service::serve_tcp(service.clone(), "127.0.0.1:0", 4).expect("loopback server");
    let addr = handle.local_addr();
    println!("tcp-demo server on {addr}");

    let client = Client::new(Tcp::new(addr.to_string()), "demo");
    let plan = degree_ccdf_plan();
    let first = client
        .measure_with_id(&plan, 0.5, Some("smoke".into()))
        .expect("first TCP measurement");
    let spent_after_first = 10.0 - service.remaining("demo", "edges").expect("grant exists");
    let second = client
        .measure_with_id(&plan, 0.5, Some("smoke".into()))
        .expect("repeated TCP measurement");
    let spent_after_second = 10.0 - service.remaining("demo", "edges").expect("grant exists");

    assert_eq!(
        first.raw, second.raw,
        "identical repeat must be byte-identical"
    );
    assert!(
        (spent_after_second - spent_after_first).abs() < 1e-12,
        "cached repeat must charge zero epsilon"
    );
    println!(
        "ok: {} released records, {} epsilon charged once, repeat byte-identical from cache \
         (hits={})",
        first.records.len(),
        spent_after_first,
        service.cache_stats().hits
    );
    handle.shutdown();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("--demo") => run_demo(),
        Some("--serve") => run_serve(),
        Some("--listen") => match args.get(1) {
            Some(addr) => {
                let metrics_addr = args
                    .iter()
                    .position(|a| a == "--metrics-addr")
                    .and_then(|i| args.get(i + 1))
                    .map(String::as_str);
                run_listen(addr, metrics_addr)
            }
            None => {
                eprintln!("--listen needs an address, e.g. --listen 127.0.0.1:7878");
                std::process::exit(2);
            }
        },
        Some("--tcp-demo") => run_tcp_demo(),
        Some("--metrics-demo") => run_metrics_demo(),
        Some(other) => {
            eprintln!(
                "unknown mode '{other}'; use --demo (default), --serve, --listen <addr> \
                 [--metrics-addr <addr>], --tcp-demo, or --metrics-demo"
            );
            std::process::exit(2);
        }
    }
}
