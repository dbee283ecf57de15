//! The connection layer over raw TCP: the shutdown wake, the request
//! deadline, streams that outlive a shutdown request, many followers of
//! one job, the admission timetable, and a soak with peers that walk away.

mod common;

use common::*;
use std::io::{Read, Write};
use std::sync::Barrier;
use std::time::{Duration, Instant};

#[test]
fn shutdown_wakes_a_listener_nobody_is_talking_to() {
    // Never had a connection: only the wake can end the blocked accept.
    let took = start_server().stop();
    assert!(
        took < Duration::from_millis(250),
        "idle drain took {took:?}"
    );

    // With a finished job behind it and idle workers still lingering.
    let server = start_server();
    let id = submit(server.addr, "quick.toml");
    wait_for_state(server.addr, id, &["done"]);
    let took = server.stop();
    assert!(took < Duration::from_millis(250), "drain took {took:?}");
}

#[test]
fn a_dripped_request_gets_408_at_the_deadline() {
    let server = start_server();
    let mut s = connect(server.addr);
    s.set_read_timeout(Some(Duration::from_millis(400)))
        .unwrap();
    let begun = Instant::now();
    s.write_all(b"GET /jobs/1 HTTP/1.1\r\nX-Drip: ").unwrap();
    // A byte every 400 ms: each read succeeds well inside any per-read
    // timeout, so only a deadline on the whole request ends this.
    let mut response = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        let _ = s.write_all(b"a");
        match s.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => response.extend_from_slice(&buf[..n]),
            Err(_) if response.is_empty() => {}
            Err(_) => break,
        }
        assert!(
            begun.elapsed() < READ_TIMEOUT + Duration::from_secs(3),
            "no answer to a dripping peer after {:?}",
            begun.elapsed()
        );
    }
    let took = begun.elapsed();
    let response = String::from_utf8_lossy(&response);
    assert_eq!(status_code(&response), 408, "{response}");
    assert!(
        took >= READ_TIMEOUT - Duration::from_secs(1),
        "408 after only {took:?}"
    );
    assert!(
        took <= READ_TIMEOUT + Duration::from_secs(1),
        "408 after {took:?}"
    );
    server.stop();
}

#[test]
fn a_peer_that_never_reads_does_not_hold_its_slot() {
    let server = start_server();
    let id = submit(server.addr, "quick.toml");
    wait_for_state(server.addr, id, &["done"]);
    let mut deaf = connect(server.addr);
    deaf.write_all(format!("GET /jobs/{id}/artifact HTTP/1.1\r\n\r\n").as_bytes())
        .unwrap();
    // `run` returns only when every worker has let go of its connection.
    // (Loopback buffers swallow an artifact this small, so this pins
    // "the server does not wait for the peer", not the timer itself.)
    let took = server.stop();
    assert!(
        took < WRITE_TIMEOUT + Duration::from_secs(1),
        "drain took {took:?}"
    );
    drop(deaf);
}

#[test]
fn eight_followers_read_the_same_events_while_status_stays_quick() {
    let server = start_server();
    // The followed job waits behind a 256-rank one, so every follower is
    // connected before its first event.
    let blocker = submit(server.addr, "smoke256.toml");
    let id = submit(server.addr, "quick.toml");
    let connected = Barrier::new(9);
    let streams: Vec<String> = std::thread::scope(|scope| {
        let followers: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    let mut s = connect(server.addr);
                    s.write_all(format!("GET /jobs/{id}/events HTTP/1.1\r\n\r\n").as_bytes())
                        .unwrap();
                    let mut first = [0u8; 1];
                    s.read_exact(&mut first).expect("the stream's head");
                    connected.wait();
                    format!("H{}", read_all(&mut s))
                })
            })
            .collect();
        connected.wait();
        let begun = Instant::now();
        let state = state_of(server.addr, blocker);
        let took = begun.elapsed();
        assert!(
            took < Duration::from_millis(100),
            "status took {took:?} ({state})"
        );
        followers.into_iter().map(|f| f.join().unwrap()).collect()
    });
    let events: Vec<String> = streams
        .iter()
        .map(|response| {
            assert_eq!(status_code(response), 200, "{response}");
            dechunk(body(response))
        })
        .collect();
    for other in &events[1..] {
        assert_eq!(other, &events[0], "followers saw different events");
    }
    let last = events[0].lines().last().expect("a last event");
    assert_eq!(last, r#"{"event": "end", "state": "done"}"#);
    assert!(events[0].contains("\"sweep-finished\""), "{}", events[0]);
    server.stop();
}

#[test]
fn a_stream_open_at_shutdown_still_gets_its_end_record() {
    let server = start_server();
    let id = submit(server.addr, "smoke256.toml");
    let mut s = connect(server.addr);
    s.write_all(format!("GET /jobs/{id}/events HTTP/1.1\r\n\r\n").as_bytes())
        .unwrap();
    wait_for_state(server.addr, id, &["running", "done"]);
    let handle = server.handle.clone();
    std::thread::scope(|scope| {
        // `run` cannot return before the follower's worker is through.
        let follower = scope.spawn(move || read_all(&mut s));
        handle.shutdown();
        // Late submitters get their 503 for as long as the drain lasts:
        // this connection queues behind the wake `shutdown` has made.
        let late = post_grid(server.addr, "quick.toml");
        assert_eq!(status_code(&late), 503, "{late}");
        let response = follower.join().unwrap();
        let events = dechunk(body(&response));
        let last = events.lines().last().expect("a last event");
        assert_eq!(last, r#"{"event": "end", "state": "done"}"#, "{events}");
    });
    server.stop();
}

#[test]
fn clients_that_ask_without_pause_are_admitted_on_the_timetable() {
    let server = start_server();
    let addr = server.addr;
    // Long enough idle to bank every turn that can be banked.
    std::thread::sleep(ADMIT_BANK + ADMIT_INTERVAL);
    const EACH: u32 = 300;
    let begun = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(move || {
                for _ in 0..EACH {
                    assert_eq!(status_code(&get(addr, "/jobs/1")), 404);
                }
            });
        }
    });
    let took = begun.elapsed();
    // The banked turns go at once, the rest keep time.
    let least = ADMIT_INTERVAL * (2 * EACH - 1) - ADMIT_BANK;
    assert!(took >= least, "{} requests in {took:?}", 2 * EACH);
    // Held, not refused or starved: nowhere near two seconds for 0.2 s of turns.
    assert!(took < Duration::from_secs(2), "{} requests took {took:?}", 2 * EACH);
    server.stop();
}

#[test]
fn soak_with_peers_that_walk_away() {
    let server = start_server();
    let addr = server.addr;
    std::thread::scope(|scope| {
        for t in 0..4 {
            scope.spawn(move || {
                for i in 0..500 {
                    match (i % 10, (i / 10 + t) % 2) {
                        // Connected, then gone without a byte.
                        (0, 0) => drop(connect(addr)),
                        // Gone a few bytes into a declared body.
                        (0, _) => {
                            let mut s = connect(addr);
                            let _ = s.write_all(
                                b"POST /jobs HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"grid",
                            );
                        }
                        _ => {
                            let response = get(addr, "/jobs/1");
                            let code = status_code(&response);
                            assert!(code == 200 || code == 404, "{response}");
                        }
                    }
                }
            });
        }
        // Meanwhile a well-behaved client gets its bytes, every time.
        for _ in 0..5 {
            let id = submit(addr, "quick.toml");
            wait_for_state(addr, id, &["done"]);
            let response = get(addr, &format!("/jobs/{id}/artifact"));
            assert_eq!(status_code(&response), 200, "{response}");
            assert_eq!(body(&response), COMMITTED, "served artifact differs");
        }
    });
    server.stop();
}
