//! End-to-end exercise of the experiment server over a real TCP socket:
//! a cold fig5 sweep, a byte-identical warm hit that must be at least an
//! order of magnitude faster, progress streaming, a lint pass over every
//! line the server says, and hostile requests that must not kill it.

use mpiq_bench::jsonlint::{self, Json};
use mpiq_bench::service::{self, Server, ServiceConfig};
use mpiq_bench::spec::{BenchSpec, RunSpec};
use mpiq_bench::NicVariant;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Instant;

fn start_server() -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        code_version: "e2e-test".to_string(),
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound").to_string();
    let handle = std::thread::spawn(move || server.serve().expect("serve"));
    (addr, handle)
}

/// A fig5 sweep big enough that execution dominates the round trip:
/// 3 NIC configs x 21 queue depths.
fn fig5_spec() -> RunSpec {
    RunSpec {
        bench: BenchSpec::Fig5 {
            configs: NicVariant::ALL.to_vec(),
            max_queue: 200,
            step: 10,
            fractions: vec![1.0],
            sizes: vec![0],
        },
        seed: None,
        faults: None,
        threads: 0,
        sweep_threads: 0,
    }
}

#[test]
fn warm_fig5_sweep_is_a_byte_identical_order_of_magnitude_win() {
    let (addr, handle) = start_server();

    let mut progress_events = 0u64;
    let mut last = (0u64, 0u64);
    let cold_start = Instant::now();
    let cold = service::submit_with(&addr, &fig5_spec(), &mut |done, total| {
        progress_events += 1;
        last = (done, total);
    })
    .expect("cold run");
    let cold_wall = cold_start.elapsed();

    assert!(!cold.cached);
    assert_eq!(cold.runs_executed, 1);
    assert_eq!(cold.result.bench, "fig5");
    assert_eq!(cold.result.rows.len(), 3 * 21);
    // Progress arrived and ended on done == total (the final tick is
    // never throttled).
    assert!(progress_events >= 1, "no progress events for a 63-cell sweep");
    assert_eq!(last, (63, 63), "progress must end complete");

    // The warm hit: same spec, byte-identical payload, no re-execution,
    // and at least 10x faster than the cold run (the acceptance bar).
    let warm_start = Instant::now();
    let warm = service::submit(&addr, &fig5_spec()).expect("warm run");
    let warm_wall = warm_start.elapsed();

    assert!(warm.cached);
    assert_eq!(warm.runs_executed, 1, "cache hit must not re-run");
    assert_eq!(warm.payload, cold.payload, "cache hit must be byte-identical");
    assert_eq!(warm.result, cold.result);
    assert!(
        warm_wall.as_secs_f64() * 10.0 <= cold_wall.as_secs_f64(),
        "warm submission took {warm_wall:?}, cold took {cold_wall:?} — less than a 10x win"
    );

    // Every line of both transcripts is valid single-line JSON with a
    // recognized event tag.
    for line in cold.transcript.iter().chain(&warm.transcript) {
        let doc = jsonlint::parse(line).unwrap_or_else(|e| panic!("bad server JSON: {e}\n{line}"));
        if let Some(event) = doc.get("event").and_then(|j| j.as_str().map(str::to_string)) {
            assert!(
                ["accepted", "progress", "result"].contains(&event.as_str()),
                "unexpected event {event} in {line}"
            );
        } else {
            // The only non-event line is the result payload itself.
            assert!(doc.get("rows").is_some(), "unexpected line {line}");
        }
    }

    // The daemon agrees: one execution, one cache entry, and its own
    // metrics snapshot embedded in the status line.
    let status_line = service::status(&addr).expect("status");
    let doc = jsonlint::parse(&status_line).expect("status is valid JSON");
    assert_eq!(doc.get("runs_executed").and_then(Json::as_u64), Some(1));
    assert_eq!(doc.get("cache_entries").and_then(Json::as_u64), Some(1));
    assert_eq!(doc.get("code_version").and_then(Json::as_str), Some("e2e-test"));
    let counters = doc.get("metrics").and_then(|m| m.get("counters")).expect("metrics counters");
    assert_eq!(counters.get("service.cache.hit").and_then(Json::as_u64), Some(1));
    assert_eq!(counters.get("service.cache.miss").and_then(Json::as_u64), Some(1));

    service::shutdown(&addr).expect("shutdown");
    handle.join().expect("server thread exits");
}

#[test]
fn concurrent_identical_submissions_execute_once() {
    let (addr, handle) = start_server();
    let spec = RunSpec {
        bench: BenchSpec::Breakeven { max_queue: 6 },
        seed: None,
        faults: None,
        threads: 0,
        sweep_threads: 1,
    };

    // Race several clients on the same key; in-flight dedup means the
    // job runs once and every client gets the same bytes.
    let submissions: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let addr = addr.clone();
                let spec = spec.clone();
                scope.spawn(move || service::submit(&addr, &spec).expect("submit"))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    let payload = &submissions[0].payload;
    for s in &submissions {
        assert_eq!(&s.payload, payload, "all clients must see identical bytes");
        assert_eq!(s.runs_executed, 1, "the job must execute exactly once");
    }
    assert_eq!(submissions.iter().filter(|s| !s.cached).count(), 1, "exactly one cold submission");

    service::shutdown(&addr).expect("shutdown");
    handle.join().expect("server thread exits");
}

/// Regression: one request line nested 100k levels deep used to overflow
/// a worker's stack in the recursive-descent parser and abort the whole
/// daemon. It must come back as an error event, and the daemon must still
/// answer the next request.
#[test]
fn deeply_nested_request_is_refused_and_the_daemon_survives() {
    let (addr, handle) = start_server();

    let mut stream = TcpStream::connect(&addr).expect("connect");
    let line = format!("{{\"op\":\"run\",\"spec\":{}\n", "[".repeat(100_000));
    stream
        .write_all(line.as_bytes())
        .expect("send hostile line");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .expect("read reply");
    let doc = jsonlint::parse(reply.trim()).expect("error reply is valid JSON");
    assert_eq!(
        doc.get("event").and_then(Json::as_str),
        Some("error"),
        "{reply}"
    );
    let message = doc
        .get("message")
        .and_then(Json::as_str)
        .unwrap_or_default();
    assert!(message.contains("nesting deeper than"), "{message}");

    let status_line = service::status(&addr).expect("daemon still answers status");
    let status = jsonlint::parse(&status_line).expect("status is valid JSON");
    assert_eq!(status.get("runs_executed").and_then(Json::as_u64), Some(0));

    service::shutdown(&addr).expect("shutdown");
    handle.join().expect("server thread exits");
}

/// Regression: the server read a request line without bound, so one
/// client could make a worker buffer as much as it cared to send. A line
/// past `MAX_REQUEST_LINE` must come back as an error event, and the
/// daemon must still answer the next request.
#[test]
fn oversize_request_line_is_refused_and_the_daemon_survives() {
    let (addr, handle) = start_server();

    // One byte over the cap, twice the cap, and a line longer than the
    // loopback socket buffers, so the server refuses it while the client
    // is still writing (closing on unread input would reset the client).
    let sizes = [
        service::MAX_REQUEST_LINE + 1,
        2 * service::MAX_REQUEST_LINE,
        8 * service::MAX_REQUEST_LINE,
    ];
    for size in sizes {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        let line = "x".repeat(size);
        stream.write_all(line.as_bytes()).expect("send oversize line");
        stream.shutdown(Shutdown::Write).expect("half-close");
        let mut reply = String::new();
        BufReader::new(stream)
            .read_line(&mut reply)
            .expect("read reply");
        let doc = jsonlint::parse(reply.trim()).expect("error reply is valid JSON");
        assert_eq!(doc.get("event").and_then(Json::as_str), Some("error"), "{reply}");
        let message = doc.get("message").and_then(Json::as_str).unwrap_or_default();
        assert!(message.contains("exceeds"), "{size}: {message}");
    }

    let status_line = service::status(&addr).expect("daemon still answers status");
    let status = jsonlint::parse(&status_line).expect("status is valid JSON");
    assert_eq!(status.get("runs_executed").and_then(Json::as_u64), Some(0));
    let counters = status.get("metrics").and_then(|m| m.get("counters")).expect("counters");
    assert_eq!(
        counters.get("service.rejected.oversize_line").and_then(Json::as_u64),
        Some(sizes.len() as u64)
    );

    service::shutdown(&addr).expect("shutdown");
    handle.join().expect("server thread exits");
}
