//! Tests of the TCP line transport itself: cache hits through a router
//! finish without Nagle or accept-poll waits, a `shutdown` wakes a
//! listener blocked in `accept()` even when it is bound to an
//! unspecified address, and closed connections leave no file
//! descriptors behind.
//!
//! The tests share one lock: the descriptor count is process-wide, so
//! no other test may hold sockets open while it is measured.

use std::io::{BufRead, BufReader};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::channel;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gtl_serve::{
    serve_listener, Event, LiftClient, LiftRequest, LiftRouter, LiftServer, Request, RouterConfig,
    ServerConfig,
};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn small_server() -> LiftServer {
    LiftServer::start(ServerConfig {
        workers: 1,
        queue_capacity: 8,
        ..ServerConfig::default()
    })
}

/// A lift server behind `serve_listener` on `bind`, returning the
/// address clients reach it at and the thread that returns once the
/// listener stops.
fn spawn_replica(bind: &str) -> (String, JoinHandle<()>) {
    let listener = TcpListener::bind(bind).expect("bind replica");
    let port = listener.local_addr().expect("local addr").port();
    let thread = std::thread::spawn(move || {
        let server = small_server();
        serve_listener(listener, "transport-replica", || server.handle());
        server.shutdown();
    });
    (format!("127.0.0.1:{port}"), thread)
}

fn send_shutdown(addr: &str) {
    let mut client = LiftClient::connect(addr).expect("connect for shutdown");
    client.shutdown().expect("send shutdown");
}

#[test]
fn cache_hits_through_a_router_pay_no_transport_waits() {
    let _serial = serial();
    let (replica_addr, replica) = spawn_replica("127.0.0.1:0");
    let router_listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
    let router_addr = router_listener.local_addr().expect("addr").to_string();
    let router = LiftRouter::new(RouterConfig {
        replicas: vec![replica_addr],
        ..RouterConfig::default()
    });
    let router_thread = std::thread::spawn(move || {
        serve_listener(router_listener, "transport-router", || router.handle());
    });

    let mut client = LiftClient::connect(&router_addr).expect("connect router");
    let cold = client
        .lift(LiftRequest::benchmark("cold", "blas_dot"))
        .expect("cold lift");
    assert!(
        matches!(cold.last(), Some(Event::Done { cached: false, .. })),
        "the first lift solves: {cold:?}"
    );

    // Every hit crosses two sockets (client-router, router-replica),
    // opens a fresh replica connection and carries `verified` then
    // `done`. A Nagle stall or a polled accept costs 40-50 ms per hit.
    let started = Instant::now();
    for n in 0..20 {
        let events = client
            .lift(LiftRequest::benchmark(format!("hit-{n}"), "blas_dot"))
            .expect("cached lift");
        assert!(events.len() >= 2, "hit {n} streamed {events:?}");
        assert!(
            matches!(events.last(), Some(Event::Done { cached: true, .. })),
            "hit {n} is a cache hit: {events:?}"
        );
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(500),
        "20 cache hits took {elapsed:?}"
    );

    // The router broadcasts shutdown to its replica.
    client.shutdown().expect("send shutdown");
    router_thread.join().expect("router thread");
    replica.join().expect("replica thread");
}

#[test]
fn shutdown_wakes_a_listener_bound_to_an_unspecified_address() {
    let _serial = serial();
    let (addr, thread) = spawn_replica("0.0.0.0:0");
    let (done_tx, done_rx) = channel();
    let waiter = std::thread::spawn(move || {
        thread.join().expect("replica thread");
        let _ = done_tx.send(());
    });

    // One idle sibling, parked in the server's blocking read.
    let mut idle = TcpStream::connect(&addr).expect("connect idle sibling");
    let mut probe = LiftClient::connect(&addr).expect("connect probe");
    probe.stats().expect("the listener serves");

    let asked = Instant::now();
    send_shutdown(&addr);
    done_rx
        .recv_timeout(Duration::from_secs(2))
        .unwrap_or_else(|_| {
            panic!(
                "listener still running {:?} after shutdown",
                asked.elapsed()
            )
        });
    waiter.join().expect("waiter");

    // The sibling's connection was shut down, not left hanging.
    let _ = idle.set_read_timeout(Some(Duration::from_secs(2)));
    let mut line = String::new();
    let read = BufReader::new(&mut idle).read_line(&mut line);
    assert!(
        matches!(read, Ok(0) | Err(_)),
        "the idle sibling must see its connection end: {read:?} {line:?}"
    );
}

#[cfg(target_os = "linux")]
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("list /proc/self/fd")
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn closed_connections_release_their_descriptors() {
    let _serial = serial();
    let (addr, thread) = spawn_replica("127.0.0.1:0");
    // Warm up: the server's threads and the first connection allocate
    // whatever they keep for good.
    LiftClient::connect(&addr)
        .expect("connect")
        .stats()
        .expect("stats");
    let before = open_fds();

    for n in 0..1_000 {
        // A round trip proves the listener accepted (and registered)
        // the connection before the client drops it.
        let mut client = LiftClient::connect(&addr).expect("connect");
        client
            .send(&Request::Stats)
            .unwrap_or_else(|e| panic!("stats {n}: {e}"));
        match client.next_event() {
            Ok(Some(Event::Stats { .. })) => {}
            other => panic!("connection {n}: expected stats, got {other:?}"),
        }
    }

    // Connection threads close their sockets asynchronously.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut after = open_fds();
    while after > before + 16 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        after = open_fds();
    }
    assert!(
        after <= before + 16,
        "1000 closed connections left {after} descriptors open (started with {before})"
    );

    send_shutdown(&addr);
    thread.join().expect("replica thread");
}
