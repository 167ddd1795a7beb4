//! Line framing over real loopback sockets, both directions.
//!
//! The client (`Tcp`) reads replies in blocks: a reply may arrive in any number of
//! segments, a segment may carry the end of one reply and the start of the next, and
//! whatever a broken connection had buffered must die with it. The server reassembles
//! request lines from any segmentation, answers each exactly once and in order, and
//! refuses a line longer than `MAX_REQUEST_LINE` instead of buffering it.
//!
//! The client tests run against a scripted `TcpListener` peer. The pauses between a
//! script's writes only make it likely that the client sees the segments apart; every
//! assertion holds under any interleaving.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use wpinq::prelude::*;
use wpinq_analyses::degree::degree_ccdf_plan_expr;
use wpinq_analyses::edges::{symmetric_edge_dataset, EDGES_DATASET};
use wpinq_graph::Graph;
use wpinq_service::{
    serve_tcp, ClientError, MeasureRequest, MeasurementService, ResponseEncoding, ServerHandle,
    Tcp, Transport, MAX_REQUEST_LINE,
};

const PAUSE: Duration = Duration::from_millis(2);

/// Runs `script` on a listener thread and returns the address to dial.
fn scripted_peer(
    script: impl FnOnce(TcpListener) + Send + 'static,
) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    (addr, std::thread::spawn(move || script(listener)))
}

/// A buffered read half and a write half of one no-delay stream.
fn halves(stream: TcpStream) -> (BufReader<TcpStream>, TcpStream) {
    stream.set_nodelay(true).expect("nodelay");
    (BufReader::new(stream.try_clone().expect("clone")), stream)
}

fn accept(listener: &TcpListener) -> (BufReader<TcpStream>, TcpStream) {
    halves(listener.accept().expect("accept").0)
}

fn read_request(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read request");
    line
}

/// Writes `bytes` as the given segments, pausing between them.
fn write_segments(stream: &mut TcpStream, segments: &[&[u8]]) {
    for segment in segments.iter().filter(|s| !s.is_empty()) {
        stream.write_all(segment).expect("write segment");
        std::thread::sleep(PAUSE);
    }
}

#[test]
fn a_reply_dribbled_one_byte_per_segment_is_reassembled() {
    let reply = "{\"ok\":true,\"note\":\"é→𝛆 dribbled\"}";
    let (addr, peer) = scripted_peer(move |listener| {
        let (mut reader, mut stream) = accept(&listener);
        assert_eq!(read_request(&mut reader), "ping\n");
        let framed = format!("{reply}\n");
        let bytes: Vec<&[u8]> = framed.as_bytes().chunks(1).collect();
        write_segments(&mut stream, &bytes);
        assert_eq!(read_request(&mut reader), "again\n");
        stream.write_all(b"second\n").expect("write");
    });
    let tcp = Tcp::new(addr.to_string());
    assert_eq!(tcp.roundtrip("ping").as_deref(), Ok(reply));
    assert_eq!(tcp.roundtrip("again").as_deref(), Ok("second"));
    peer.join().expect("peer script");
}

/// Two replies cut into two segments at every offset from before the first newline to
/// the very end (one segment carrying both): the first round trip returns exactly the
/// first reply, and the second reply — already delivered — is returned by the next
/// round trip, not lost and not glued to the first.
#[test]
fn replies_split_at_every_offset_around_the_newline_come_back_one_per_round_trip() {
    let (first, second) = ("{\"ok\":true,\"id\":\"é1\"}", "{\"ok\":false}");
    let both = format!("{first}\n{second}\n").into_bytes();
    let cuts: Vec<usize> = (first.len() - 3..=first.len() + 4)
        .chain([both.len() - 1, both.len()])
        .collect();
    for cut in cuts {
        let both = both.clone();
        let (addr, peer) = scripted_peer(move |listener| {
            let (mut reader, mut stream) = accept(&listener);
            assert_eq!(read_request(&mut reader), "one\n");
            write_segments(&mut stream, &[&both[..cut], &both[cut..]]);
            assert_eq!(read_request(&mut reader), "two\n");
            // Nothing more to say: the second reply went out with the first.
            assert_eq!(read_request(&mut reader), "", "the client hangs up");
        });
        let tcp = Tcp::new(addr.to_string());
        assert_eq!(tcp.roundtrip("one").as_deref(), Ok(first), "cut at {cut}");
        assert_eq!(tcp.roundtrip("two").as_deref(), Ok(second), "cut at {cut}");
        drop(tcp);
        peer.join().expect("peer script");
    }
}

#[test]
fn a_non_utf8_reply_is_an_error_and_the_next_call_reconnects() {
    let (addr, peer) = scripted_peer(|listener| {
        let (mut reader, mut stream) = accept(&listener);
        assert_eq!(read_request(&mut reader), "one\n");
        stream.write_all(b"\xff\xfe\nleft over").expect("write");
        let (mut reader, mut stream) = accept(&listener);
        assert_eq!(read_request(&mut reader), "two\n");
        stream.write_all(b"fresh\n").expect("write");
    });
    let tcp = Tcp::new(addr.to_string());
    assert_eq!(
        tcp.roundtrip("one"),
        Err(ClientError::Transport("response is not UTF-8".into()))
    );
    assert_eq!(tcp.roundtrip("two").as_deref(), Ok("fresh"));
    peer.join().expect("peer script");
}

/// A peer that closes in the middle of a line: the call fails, and the next one dials
/// again and sees only what the new connection sent — in particular none of the bytes
/// the old connection had delivered past its last complete reply.
#[test]
fn a_peer_closing_mid_line_fails_the_call_and_leaves_nothing_stale_behind() {
    let (addr, peer) = scripted_peer(|listener| {
        let (mut reader, mut stream) = accept(&listener);
        assert_eq!(read_request(&mut reader), "one\n");
        // A whole reply and the beginning of another in one segment, then the end.
        stream.write_all(b"first\n{\"ok\":tr").expect("write");
        drop((reader, stream));
        let (mut reader, mut stream) = accept(&listener);
        assert_eq!(read_request(&mut reader), "three\n");
        stream.write_all(b"fresh\n").expect("write");
    });
    let tcp = Tcp::new(addr.to_string());
    assert_eq!(tcp.roundtrip("one").as_deref(), Ok("first"));
    let broken = tcp.roundtrip("two");
    assert!(
        matches!(broken, Err(ClientError::Transport(_))),
        "half a line is not a reply: {broken:?}"
    );
    assert_eq!(tcp.roundtrip("three").as_deref(), Ok("fresh"));
    peer.join().expect("peer script");
}

// ---------------------------------------------------------------------------------
// Server side.

fn server(workers: usize) -> (ServerHandle, Arc<MeasurementService>) {
    let service = MeasurementService::new().with_noise_seed(11);
    let toy = Graph::from_edges([(0, 1), (1, 2), (0, 2), (2, 3)]);
    service
        .register(EDGES_DATASET, &symmetric_edge_dataset(&toy))
        .unwrap();
    service
        .grant("analyst", EDGES_DATASET, PrivacyBudget::new(10.0))
        .unwrap();
    let service = Arc::new(service);
    let handle = serve_tcp(service.clone(), "127.0.0.1:0", workers).expect("bind loopback");
    (handle, service)
}

fn request_line(id: &str) -> String {
    MeasureRequest {
        analyst: "analyst".into(),
        epsilon: 0.5,
        spec: degree_ccdf_plan_expr(&Plan::source_expr(EDGES_DATASET))
            .to_spec()
            .expect("expression plans serialize"),
        id: Some(id.into()),
        trace: false,
        encoding: ResponseEncoding::Json,
    }
    .to_json_string()
}

fn connect(server: &ServerHandle) -> (BufReader<TcpStream>, TcpStream) {
    halves(TcpStream::connect(server.local_addr()).expect("connect"))
}

/// Asserts that the server has nothing more to say on this connection for now.
fn assert_quiet(reader: &mut BufReader<TcpStream>) {
    reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_millis(150)))
        .expect("timeout");
    let mut extra = String::new();
    let outcome = reader.read_line(&mut extra);
    assert!(
        outcome.is_err() && extra.is_empty(),
        "an unrequested reply: {outcome:?} {extra:?}"
    );
    reader.get_ref().set_read_timeout(None).expect("timeout");
}

#[test]
fn split_and_coalesced_requests_get_exactly_one_reply_each_in_order() {
    let (server, _service) = server(2);
    let (mut reader, mut stream) = connect(&server);
    let mut reply = String::new();

    // One request across three writes, the last carrying only the newline.
    let line = request_line("split");
    let (head, tail) = line.as_bytes().split_at(line.len() / 2);
    write_segments(&mut stream, &[head, tail, b"\n"]);
    reader.read_line(&mut reply).expect("reply");
    assert!(
        reply.starts_with("{\"ok\":true,\"id\":\"split\","),
        "{reply}"
    );
    assert_quiet(&mut reader);

    // Two requests and a blank line in one write, then a third cut mid-line.
    let third = request_line("c");
    let burst = format!(
        "{}\n\n{}\n{}",
        request_line("a"),
        request_line("b"),
        &third[..40]
    );
    stream.write_all(burst.as_bytes()).expect("write");
    for id in ["a", "b"] {
        reply.clear();
        reader.read_line(&mut reply).expect("reply");
        assert!(
            reply.starts_with(&format!("{{\"ok\":true,\"id\":\"{id}\",")) && reply.ends_with("}\n"),
            "{id}: {reply}"
        );
    }
    assert_quiet(&mut reader);
    stream
        .write_all(format!("{}\n", &third[40..]).as_bytes())
        .expect("write");
    reply.clear();
    reader.read_line(&mut reply).expect("reply");
    assert!(reply.starts_with("{\"ok\":true,\"id\":\"c\","), "{reply}");
    server.shutdown();
}

/// The request-line bound, on a server with a single worker: two megabytes without a
/// newline get one `request_too_large` line and end of stream — not unbounded
/// buffering — and the worker is free again for the next connection.
#[test]
fn an_over_long_request_line_is_refused_and_the_worker_survives() {
    let (server, service) = server(1);

    let (mut reader, mut stream) = connect(&server);
    let flood = vec![b'x'; 2 << 20];
    // The server may stop reading at any point past the limit; a failed write is fine.
    let _ = stream.write_all(&flood);
    let mut replies = String::new();
    reader
        .read_to_string(&mut replies)
        .expect("the refusal, then end of stream");
    assert!(
        replies.starts_with("{\"ok\":false,\"error\":{\"code\":\"request_too_large\",")
            && replies.ends_with("}\n")
            && replies.lines().count() == 1,
        "{replies}"
    );
    drop((reader, stream));

    // The bound is on the line, newline excluded: exactly the limit is still a request.
    let (mut reader, mut stream) = connect(&server);
    let mut padded = String::from("{\"op\":\"stats\"}");
    padded.push_str(&" ".repeat(MAX_REQUEST_LINE - padded.len()));
    padded.push('\n');
    stream.write_all(padded.as_bytes()).expect("write");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("reply");
    assert!(
        reply.starts_with("{\"ok\":true,\"stats\":"),
        "{}",
        &reply[..80.min(reply.len())]
    );
    // One byte more is refused even though its newline is already there.
    padded.insert(0, ' ');
    stream.write_all(padded.as_bytes()).expect("write");
    replies.clear();
    reader
        .read_to_string(&mut replies)
        .expect("the refusal, then end of stream");
    assert!(replies.contains("\"request_too_large\"") && replies.lines().count() == 1);
    drop((reader, stream));

    // And the single worker serves a measurement on a fresh connection.
    let tcp = Tcp::new(server.local_addr().to_string());
    let reply = tcp.roundtrip(&request_line("after")).expect("served");
    assert!(
        reply.starts_with("{\"ok\":true,\"id\":\"after\","),
        "{reply}"
    );
    assert_eq!(service.cache_stats().misses, 1);
    drop(tcp);
    server.shutdown();
}

/// A line nested far deeper than any request (200 KB of `[`) is refused with one `wire`
/// error, in process and over TCP, instead of overflowing the parser's stack and taking
/// the curator down; the same service and connection then answer a measurement.
#[test]
fn a_deeply_nested_line_gets_one_wire_error_and_the_server_keeps_serving() {
    let (server, service) = server(1);
    let nested = "[".repeat(200 << 10);
    let is_wire_error = |reply: &str| {
        reply.starts_with("{\"ok\":false,\"error\":{\"code\":\"wire\",") && reply.ends_with('}')
    };

    let reply = service.handle_line(&nested);
    assert!(is_wire_error(&reply) && !reply.contains('\n'), "{reply}");
    let reply = service.handle_line(&request_line("in-process"));
    assert!(
        reply.starts_with("{\"ok\":true,\"id\":\"in-process\","),
        "{reply}"
    );

    let (mut reader, mut stream) = connect(&server);
    stream
        .write_all(format!("{nested}\n").as_bytes())
        .expect("write");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("reply");
    assert!(is_wire_error(reply.trim_end_matches('\n')), "{reply}");
    assert_quiet(&mut reader);
    stream
        .write_all(format!("{}\n", request_line("after")).as_bytes())
        .expect("write");
    reply.clear();
    reader.read_line(&mut reply).expect("reply");
    assert!(
        reply.starts_with("{\"ok\":true,\"id\":\"after\","),
        "{reply}"
    );
    drop((reader, stream));
    server.shutdown();
}
