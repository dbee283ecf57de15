//! What the raw-TCP connection tests share: a server on an ephemeral
//! port and a one-request client that reads to the close.
#![allow(dead_code)] // each test binary uses its own subset

use service::{Server, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub const COMMITTED: &str = include_str!("../../../../BENCH_sweep.json");

/// The service's own limits, private there and restated here: a change
/// to one must be made in both places.
pub const MAX_CONNECTIONS: usize = 64;
pub const READ_TIMEOUT: Duration = Duration::from_secs(10);
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(5);
pub const IDLE_LINGER: Duration = Duration::from_secs(1);
pub const ADMIT_INTERVAL: Duration = Duration::from_micros(500);
pub const ADMIT_BANK: Duration = Duration::from_millis(100);

pub struct Running {
    pub addr: SocketAddr,
    pub handle: ServerHandle,
    thread: JoinHandle<()>,
}

pub fn start_server() -> Running {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        queue_capacity: 8,
        default_threads: 1,
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run().expect("server run"));
    Running {
        addr,
        handle,
        thread,
    }
}

impl Running {
    /// Ask for the drain and wait for `run` to return; answers how long
    /// that took.
    pub fn stop(self) -> Duration {
        let begun = Instant::now();
        self.handle.shutdown();
        self.thread.join().expect("server thread exits cleanly");
        begun.elapsed()
    }
}

pub fn connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    s
}

/// Send raw bytes, read the whole response (the server closes after).
pub fn talk(addr: SocketAddr, request: &str) -> String {
    let mut s = connect(addr);
    s.write_all(request.as_bytes()).expect("write request");
    read_all(&mut s)
}

/// Everything up to the close. A reset after the last byte (the server
/// closed with part of the request unread) loses nothing already read.
pub fn read_all(s: &mut TcpStream) -> String {
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    String::from_utf8_lossy(&out).into_owned()
}

pub fn get(addr: SocketAddr, path: &str) -> String {
    talk(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

pub fn status_code(response: &str) -> u16 {
    response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status code in {response:?}"))
}

pub fn body(response: &str) -> &str {
    response.split_once("\r\n\r\n").expect("head/body split").1
}

/// `POST /jobs` with a grid file from the repository's `scenarios/`;
/// answers the whole response.
pub fn post_grid(addr: SocketAddr, grid: &str) -> String {
    let json = format!(
        r#"{{"grid_file": "{}/../../scenarios/{grid}"}}"#,
        env!("CARGO_MANIFEST_DIR")
    );
    talk(
        addr,
        &format!(
            "POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{json}",
            json.len()
        ),
    )
}

/// Submit a grid file; answers the job id.
pub fn submit(addr: SocketAddr, grid: &str) -> u64 {
    let response = post_grid(addr, grid);
    assert_eq!(status_code(&response), 202, "{response}");
    let body = body(&response);
    let rest = &body[body.find("\"id\": ").expect("id in the reply") + 6..];
    rest.split(|c: char| !c.is_ascii_digit())
        .next()
        .unwrap()
        .parse()
        .expect("numeric id")
}

pub fn state_of(addr: SocketAddr, id: u64) -> String {
    let response = get(addr, &format!("/jobs/{id}"));
    assert_eq!(status_code(&response), 200, "{response}");
    let body = body(&response);
    let rest = &body[body.find("\"state\": \"").expect("state in the reply") + 10..];
    rest[..rest.find('"').unwrap()].to_string()
}

pub fn wait_for_state(addr: SocketAddr, id: u64, wanted: &[&str]) -> String {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let state = state_of(addr, id);
        if wanted.contains(&state.as_str()) {
            return state;
        }
        assert!(Instant::now() < deadline, "job {id} stuck in {state}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Undo chunked transfer coding (the response's body, head removed).
pub fn dechunk(mut body: &str) -> String {
    let mut out = String::new();
    loop {
        let (size, rest) = body.split_once("\r\n").expect("chunk size line");
        let size = usize::from_str_radix(size, 16).expect("hex chunk size");
        if size == 0 {
            return out;
        }
        out.push_str(&rest[..size]);
        body = rest[size..]
            .strip_prefix("\r\n")
            .expect("CRLF after a chunk");
    }
}
