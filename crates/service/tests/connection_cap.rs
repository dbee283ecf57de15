//! The connection bound, alone in its binary: it counts this process's
//! threads through `/proc/self/task`, which any test running beside it
//! would disturb.
#![cfg(target_os = "linux")]

mod common;

use common::*;
use std::io::Write;
use std::time::{Duration, Instant};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .count()
}

#[test]
fn the_connection_past_the_cap_gets_503_and_idle_workers_go_away() {
    let server = start_server();
    // One request first, so the listener is known to be up; its worker
    // is gone again before the count is taken.
    assert_eq!(status_code(&get(server.addr, "/jobs/1")), 404);
    std::thread::sleep(IDLE_LINGER + Duration::from_millis(200));
    let threads_at_start = threads();

    // Every slot held by a peer that has connected and says nothing.
    let mut held: Vec<_> = (0..MAX_CONNECTIONS).map(|_| connect(server.addr)).collect();

    // The accept thread answers the next one itself, at once.
    let begun = Instant::now();
    let refused = get(server.addr, "/jobs/1");
    assert!(
        begun.elapsed() < Duration::from_secs(1),
        "{:?}",
        begun.elapsed()
    );
    assert_eq!(status_code(&refused), 503, "{refused}");
    assert!(refused.contains("Retry-After: 1\r\n"), "{refused}");
    assert!(threads() >= threads_at_start + MAX_CONNECTIONS);

    // A peer that does send its request is still served by its worker.
    held[0].write_all(b"GET /jobs/1 HTTP/1.1\r\n\r\n").unwrap();
    assert_eq!(status_code(&read_all(&mut held[0])), 404);

    drop(held);
    // The workers read the closes and idle; a request is served again ...
    let deadline = Instant::now() + Duration::from_secs(5);
    while status_code(&get(server.addr, "/jobs/1")) != 404 {
        assert!(
            Instant::now() < deadline,
            "still refusing after the peers left"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // ... and with nothing to do, the workers exit.
    let deadline = Instant::now() + IDLE_LINGER + Duration::from_secs(1);
    while threads() != threads_at_start {
        assert!(
            Instant::now() < deadline,
            "{} threads, {threads_at_start} at the start",
            threads()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    server.stop();
}
