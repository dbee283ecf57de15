//! End-to-end sweep-service test: N concurrent clients against one
//! in-process server over real TCP.
//!
//! The claims under test, straight from the service's contract:
//!
//! 1. every client's `/artifact` bytes are identical to every other's
//!    AND to the committed `BENCH_sweep.json` (serving may change
//!    wall-clock, never a simulated byte);
//! 2. later jobs see a warm compile cache (`cache_hits > 0` in their
//!    status) — concurrent clients *share* the process-wide cache;
//! 3. a full queue answers 503 with a `Retry-After` hint instead of
//!    accepting unbounded work;
//! 4. the event stream is chunked NDJSON that terminates with an `end`
//!    record;
//! 5. `/diff` between two identical done jobs reports no regressions;
//! 6. `DELETE /jobs/:id` cancels a queued job and refuses (409) any other.

use overlap_suite::service::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const COMMITTED: &str = include_str!("../BENCH_sweep.json");

/// Minimal HTTP client: one request, read to close, split head/body.
fn talk(addr: SocketAddr, request: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(600))).unwrap();
    s.write_all(request.as_bytes()).expect("send");
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("UTF-8 response");
    let (head, body) = text
        .split_once("\r\n\r\n")
        .expect("response has a head/body split");
    (head.to_string(), body.to_string())
}

fn get(addr: SocketAddr, path: &str) -> (String, String) {
    talk(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

fn post_json(addr: SocketAddr, path: &str, body: &str) -> (String, String) {
    talk(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn status_of(head: &str) -> u16 {
    head.split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code in response line")
}

/// Grab `"field": <int>` out of a (pretty-printed) JSON body.
fn int_field(body: &str, field: &str) -> i64 {
    let needle = format!("\"{field}\": ");
    let rest = &body[body.find(&needle).unwrap_or_else(|| panic!("no {field} in {body}")) + needle.len()..];
    rest.split(|c: char| !c.is_ascii_digit() && c != '-')
        .next()
        .unwrap()
        .parse()
        .unwrap_or_else(|_| panic!("unparsable {field} in {body}"))
}

fn wait_done(addr: SocketAddr, id: i64) -> String {
    let deadline = std::time::Instant::now() + Duration::from_secs(600);
    loop {
        let (head, body) = get(addr, &format!("/jobs/{id}"));
        assert_eq!(status_of(&head), 200, "{body}");
        if body.contains("\"state\": \"done\"") {
            return body;
        }
        assert!(
            !body.contains("\"failed\"") && !body.contains("\"cancelled\""),
            "job {id} ended badly: {body}"
        );
        assert!(std::time::Instant::now() < deadline, "job {id} never finished");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn concurrent_clients_share_one_server_and_get_identical_bytes() {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        queue_capacity: 8,
        default_threads: 2,
    })
    .expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run().expect("run"));

    // N clients race to submit the quick grid.
    const N: usize = 3;
    let submitted: Vec<i64> = {
        let mut joins = Vec::new();
        for _ in 0..N {
            joins.push(std::thread::spawn(move || {
                let (head, body) =
                    post_json(addr, "/jobs", r#"{"grid_file": "scenarios/quick.toml"}"#);
                assert_eq!(status_of(&head), 202, "{body}");
                int_field(&body, "id")
            }));
        }
        joins.into_iter().map(|j| j.join().expect("client")).collect()
    };
    assert_eq!(submitted.len(), N);

    // Each client polls its own job and fetches its artifact.
    let artifacts: Vec<String> = {
        let mut joins = Vec::new();
        for &id in &submitted {
            joins.push(std::thread::spawn(move || {
                wait_done(addr, id);
                let (head, body) = get(addr, &format!("/jobs/{id}/artifact"));
                assert_eq!(status_of(&head), 200, "{body}");
                body
            }));
        }
        joins.into_iter().map(|j| j.join().expect("client")).collect()
    };
    for a in &artifacts[1..] {
        assert_eq!(a, &artifacts[0], "artifacts differ between clients");
    }
    // ... and every one is byte-identical to the committed baseline: the
    // service changed nothing about simulated time.
    assert_eq!(
        artifacts[0], COMMITTED,
        "served artifact differs from the committed BENCH_sweep.json"
    );

    // The jobs ran FIFO in one process: whichever ran last must have hit
    // the shared compile cache (the first run filled it).
    let last = *submitted.iter().max().unwrap();
    let body = wait_done(addr, last);
    assert!(
        int_field(&body, "cache_hits") > 0,
        "last job saw a cold cache: {body}"
    );

    // The event stream is chunked NDJSON ending in an `end` record.
    let first = *submitted.iter().min().unwrap();
    let (head, events) = get(addr, &format!("/jobs/{first}/events"));
    assert_eq!(status_of(&head), 200);
    assert!(head.contains("Transfer-Encoding: chunked"), "{head}");
    for needle in [
        "\"event\": \"job-accepted\"",
        "\"event\": \"sweep-started\"",
        "\"event\": \"scenario-finished\"",
        "\"event\": \"sweep-finished\"",
        "\"event\": \"end\"",
    ] {
        assert!(events.contains(needle), "missing {needle} in {events}");
    }

    // Identical done jobs diff clean.
    let (head, body) = get(addr, &format!("/jobs/{last}/diff?baseline={first}"));
    assert_eq!(status_of(&head), 200, "{body}");
    assert!(body.contains("\"has_regressions\": false"), "{body}");

    handle.shutdown();
    server_thread.join().expect("server exits");
}

#[test]
fn full_queue_gets_backpressure_not_acceptance() {
    // Capacity 1: one job can wait while one runs. Submissions beyond
    // that must see 503 + Retry-After until the worker catches up.
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        queue_capacity: 1,
        default_threads: 1,
    })
    .expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run().expect("run"));

    // Pin the worker with a job big enough to outlast the burst below
    // (a quick sweep drains in milliseconds; this one is ~40 scenarios).
    let slow_grid = r#"schema = \"overlap-grid/v1\"\n\n[grid]\nworkloads = [\"direct\", \"direct2d\", \"indirect\", \"fft\", \"adi\"]\nsize = \"small\"\nnps = [2, 4]\nmodels = [\"mpich\", \"mpich-gm\"]\ntile_sizes = [\"auto\", 8, 16]\nvariants = [\"compare\"]\n"#;
    let (head, body) = post_json(addr, "/jobs", &format!(r#"{{"grid_toml": "{slow_grid}"}}"#));
    assert_eq!(status_of(&head), 202, "{body}");

    // Burst submissions, faster than the pinned worker can drain.
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    let mut saw_retry_after = false;
    for _ in 0..8 {
        let (head, body) = post_json(addr, "/jobs", r#"{"grid_file": "scenarios/quick.toml"}"#);
        match status_of(&head) {
            202 => accepted += 1,
            503 => {
                rejected += 1;
                saw_retry_after = head.contains("Retry-After:");
                assert!(body.contains("retry_after_s"), "{body}");
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert!(accepted >= 1, "at least the first submission fits");
    assert!(
        rejected >= 1,
        "a 1-slot queue must push back on an 8-submission burst"
    );
    assert!(saw_retry_after, "503 responses carry a Retry-After header");

    handle.shutdown();
    server_thread.join().expect("server exits");
}

#[test]
fn delete_cancels_a_queued_job_and_only_that() {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        queue_capacity: 8,
        default_threads: 1,
    })
    .expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run().expect("run"));
    let delete = |path: &str| talk(addr, &format!("DELETE {path} HTTP/1.1\r\nHost: t\r\n\r\n"));

    // A 256-rank job keeps the worker busy while the quick one waits.
    let (head, body) = post_json(addr, "/jobs", r#"{"grid_file": "scenarios/smoke256.toml"}"#);
    assert_eq!(status_of(&head), 202, "{body}");
    let running = int_field(&body, "id");
    let (head, body) = post_json(addr, "/jobs", r#"{"grid_file": "scenarios/quick.toml"}"#);
    assert_eq!(status_of(&head), 202, "{body}");
    let queued = int_field(&body, "id");
    while get(addr, &format!("/jobs/{running}")).1.contains("\"state\": \"queued\"") {
        std::thread::sleep(Duration::from_millis(5));
    }

    // Queued: cancelled, and the answer is the job's status.
    let (head, body) = delete(&format!("/jobs/{queued}"));
    assert_eq!(status_of(&head), 200, "{body}");
    assert!(body.contains("\"state\": \"cancelled\""), "{body}");
    assert_eq!(int_field(&body, "id"), queued);
    // Terminal, running, unknown: each says which.
    let (head, body) = delete(&format!("/jobs/{queued}"));
    assert_eq!(status_of(&head), 409, "{body}");
    assert!(body.contains("\"state\": \"cancelled\""), "{body}");
    let (head, body) = delete(&format!("/jobs/{running}"));
    assert_eq!(status_of(&head), 409, "{body}");
    assert!(body.contains("\"state\": \"running\"") || body.contains("\"state\": \"done\""), "{body}");
    let (head, body) = delete("/jobs/99");
    assert_eq!(status_of(&head), 404, "{body}");
    // The collection itself has no DELETE.
    assert_eq!(status_of(&delete("/jobs").0), 405);

    // The job that was running is untouched by all of it.
    wait_done(addr, running);
    handle.shutdown();
    server_thread.join().expect("server exits");
}
