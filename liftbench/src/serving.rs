//! The serving workloads: two `lift_server` replicas (one worker each,
//! empty stores, sharing solved lifts with each other) behind one
//! `lift_router`, driven by closed-loop connections.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use gtl_serve::{Event, LiftClient, LiftRequest, Request, ServerStats};

use crate::outcome::{Grader, Outcome, TimedRun};
use crate::procfs::Proc;
use crate::stats::Rng;
use crate::tally::TerminalTally;

/// Closed-loop connections, each with one request in flight.
pub const CONNECTIONS: usize = 2;

/// How long a process set may take to answer `stats`.
const READY_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a connection may stay silent before the benchmark gives up
/// on its request (running lifts report progress every 100 ms).
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// Set-up and warm window per `serve_warm` cycle: the run is split into
/// this many cycles so its set-up time is a median of several.
const WARM_CYCLES: usize = 3;

/// The shortest warm window a cycle measures, so the window holds
/// enough requests even when set-up ate most of the cycle.
const MIN_WARM_WINDOW: Duration = Duration::from_secs(2);

/// The serving binaries built from the workspace.
#[derive(Debug, Clone)]
pub struct Binaries {
    /// `lift_server`.
    pub server: PathBuf,
    /// `lift_router`.
    pub router: PathBuf,
}

/// A running replica set: two replicas and the router in front.
pub struct ServerSet {
    children: Vec<Child>,
    /// Replica addresses.
    pub replicas: Vec<String>,
    /// The router's address.
    pub router: String,
    /// Directory holding the replicas' stores.
    pub dir: PathBuf,
}

fn free_ports(n: usize) -> Result<Vec<u16>, String> {
    // Hold every listener until all ports are known, so they differ.
    let listeners = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("reserving a port: {e}"))?;
    listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.port()))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())
}

impl ServerSet {
    /// Spawns the replicas and the router with empty stores under `dir`
    /// and waits until each answers `stats`.
    ///
    /// # Errors
    ///
    /// A process that fails to start or to answer in time.
    pub fn start(bins: &Binaries, dir: &Path) -> Result<ServerSet, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let ports = free_ports(3)?;
        let addr = |p: u16| format!("127.0.0.1:{p}");
        let mut set = ServerSet {
            children: Vec::new(),
            replicas: vec![addr(ports[0]), addr(ports[1])],
            router: addr(ports[2]),
            dir: dir.to_path_buf(),
        };
        for i in 0..2 {
            let store = dir.join(format!("replica{i}.log"));
            let mut cmd = Command::new(&bins.server);
            cmd.arg("--listen")
                .arg(&set.replicas[i])
                .args(["--workers", "1", "--search-jobs", "1", "--accept-shares"])
                .arg("--peers")
                .arg(&set.replicas[1 - i])
                .arg("--store")
                .arg(&store);
            set.spawn(cmd)?;
        }
        let mut cmd = Command::new(&bins.router);
        cmd.arg("--listen")
            .arg(&set.router)
            .arg("--replicas")
            .arg(set.replicas.join(","))
            .args(["--search-jobs", "1"]);
        set.spawn(cmd)?;
        let mut all = set.replicas.clone();
        all.push(set.router.clone());
        let started = Instant::now();
        for addr in &all {
            while stats(addr).is_err() {
                if started.elapsed() > READY_TIMEOUT {
                    return Err(format!("{addr} did not answer stats in time"));
                }
                set.check_alive()?;
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Ok(set)
    }

    fn spawn(&mut self, mut cmd: Command) -> Result<(), String> {
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {cmd:?}: {e}"))?;
        self.children.push(child);
        Ok(())
    }

    fn check_alive(&mut self) -> Result<(), String> {
        for child in &mut self.children {
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("server process exited early: {status}"));
            }
        }
        Ok(())
    }

    fn procs(&self) -> impl Iterator<Item = Proc> + '_ {
        self.children.iter().map(|c| Proc::Pid(c.id()))
    }

    /// CPU seconds charged so far to the replicas and the router.
    ///
    /// # Errors
    ///
    /// A process is gone.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        self.procs().map(Proc::cpu_seconds).sum()
    }

    /// Summed peak memory of the replicas and the router.
    ///
    /// # Errors
    ///
    /// A process is gone.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        self.procs().map(Proc::peak_rss_mb).sum()
    }

    /// Stops the set through the router's `shutdown` broadcast, and
    /// kills whatever has not exited after a grace period.
    pub fn stop(mut self) {
        if let Ok(mut client) = LiftClient::connect(&self.router) {
            let _ = client.shutdown();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        for child in &mut self.children {
            while matches!(child.try_wait(), Ok(None)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        // Drop kills and reaps any straggler.
    }
}

impl Drop for ServerSet {
    fn drop(&mut self) {
        for child in &mut self.children {
            if matches!(child.try_wait(), Ok(None)) {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
    }
}

/// A `stats` snapshot from one process.
///
/// # Errors
///
/// Connection or protocol failure.
pub fn stats(addr: &str) -> Result<ServerStats, String> {
    let mut client = LiftClient::connect(addr).map_err(|e| e.to_string())?;
    client.stats().map_err(|e| e.to_string())
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Index of the benchmark in the suite.
    pub kernel: usize,
    /// Send to terminal event.
    pub latency: Duration,
    /// The terminal event, if one arrived.
    pub terminal: Option<Event>,
}

/// Everything one closed-loop session produced.
#[derive(Debug, Default)]
pub struct Session {
    /// Requests in completion order per connection.
    pub exchanges: Vec<Exchange>,
    /// The exactly-one-terminal tally over every connection.
    pub tally: TerminalTally,
    /// Wall time from the first send to the last terminal.
    pub wall: Duration,
    /// Request lines sent, when recorded.
    pub request_lines: Vec<String>,
    /// Events received, when recorded.
    pub events: Vec<Event>,
}

/// Drives `addr` with [`CONNECTIONS`] closed-loop connections until
/// `next` runs dry. `next` yields benchmark indices into `names`.
pub fn closed_loop(
    addr: &str,
    names: &[&str],
    next: &(dyn Fn() -> Option<usize> + Sync),
    record: bool,
) -> Session {
    let merged = Mutex::new(Session::default());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for conn in 0..CONNECTIONS {
            let merged = &merged;
            scope.spawn(move || {
                let mine = connection(addr, conn, names, next, record);
                let mut all = merged.lock().expect("session lock poisoned");
                all.exchanges.extend(mine.exchanges);
                all.tally.merge(&mine.tally);
                all.request_lines.extend(mine.request_lines);
                all.events.extend(mine.events);
            });
        }
    });
    let mut session = merged.into_inner().expect("session lock poisoned");
    session.wall = started.elapsed();
    session
}

fn connection(
    addr: &str,
    conn: usize,
    names: &[&str],
    next: &(dyn Fn() -> Option<usize> + Sync),
    record: bool,
) -> Session {
    let mut s = Session::default();
    let mut client = match LiftClient::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            // Every request this connection would have sent is lost.
            if let Some(kernel) = next() {
                s.tally.sent(&format!("c{conn}-unconnected"));
                s.exchanges.push(Exchange {
                    kernel,
                    latency: Duration::ZERO,
                    terminal: None,
                });
            }
            return s;
        }
    };
    let _ = client.set_read_timeout(Some(REQUEST_TIMEOUT));
    let mut n = 0u64;
    while let Some(kernel) = next() {
        let id = format!("c{conn}-{n}");
        n += 1;
        let request = Request::Lift(LiftRequest::benchmark(&id, names[kernel]));
        if record {
            s.request_lines.push(request.to_line());
        }
        s.tally.sent(&id);
        let sent = Instant::now();
        let mut terminal = None;
        if client.send(&request).is_ok() {
            while let Ok(Some(event)) = client.next_event() {
                let closes = s.tally.observe(&event);
                if record {
                    s.events.push(event.clone());
                }
                if closes && event.id() == Some(id.as_str()) {
                    terminal = Some(event);
                    break;
                }
            }
        }
        let broken = terminal.is_none();
        s.exchanges.push(Exchange {
            kernel,
            latency: sent.elapsed(),
            terminal,
        });
        if broken {
            break;
        }
    }
    s
}

/// A `next` source that hands out `order` once across connections.
pub fn once_through(order: &[usize]) -> impl Fn() -> Option<usize> + Sync + '_ {
    let cursor = AtomicUsize::new(0);
    move || order.get(cursor.fetch_add(1, Ordering::SeqCst)).copied()
}

/// A `next` source of seeded uniform draws over `n` kernels until
/// `deadline` (or until `limit` draws, when given).
pub fn draws_until(
    n: usize,
    rng: Rng,
    deadline: Option<Instant>,
    limit: Option<usize>,
) -> impl Fn() -> Option<usize> + Sync {
    let state = Mutex::new((rng, 0usize));
    move || {
        let mut guard = state.lock().expect("draw state poisoned");
        let (rng, drawn) = &mut *guard;
        if deadline.is_some_and(|d| Instant::now() >= d) || limit.is_some_and(|l| *drawn >= l) {
            return None;
        }
        *drawn += 1;
        Some(rng.below(n))
    }
}

/// Grades every request of a session; returns the distinct benchmarks
/// that were solved and passed the output check.
pub fn grade_session(
    session: &Session,
    names: &[&str],
    grader: &mut Grader,
) -> std::collections::BTreeSet<String> {
    let mut solved = std::collections::BTreeSet::new();
    for ex in &session.exchanges {
        let name = names[ex.kernel];
        if grader.grade(name, &Outcome::of_terminal(ex.terminal.as_ref())) {
            solved.insert(name.to_string());
        }
    }
    // Lost streams are graded above as requests without a terminal;
    // duplicates and strays are failures of their own.
    for _ in 0..session.tally.duplicates + session.tally.strays {
        grader.fail("terminal-event rule broken (duplicate or stray event)".to_string());
    }
    solved
}

fn completed(session: &Session) -> usize {
    session
        .exchanges
        .iter()
        .filter(|e| e.terminal.is_some())
        .count()
}

fn latencies_ms(session: &Session) -> impl Iterator<Item = f64> + '_ {
    session
        .exchanges
        .iter()
        .filter(|e| e.terminal.is_some())
        .map(|e| e.latency.as_secs_f64() * 1e3)
}

/// The timed `serve_cold` run: each cycle starts a fresh replica set
/// (its set-up) and sends the 77 benchmarks once, in seeded order, so
/// every request misses the cache.
pub fn run_cold(
    bins: &Binaries,
    work: &Path,
    seed: u64,
    seconds: f64,
    grader: &mut Grader,
) -> Result<TimedRun, String> {
    let names: Vec<&str> = gtl_benchsuite::all_benchmarks()
        .iter()
        .map(|b| b.name)
        .collect();
    let mut run = TimedRun::default();
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut cycle = 0u64;
    while (cycle as usize) < crate::suite::MIN_PASSES || started.elapsed() < budget {
        let dir = work.join(format!("cold{cycle}"));
        let setup_started = Instant::now();
        let set = ServerSet::start(bins, &dir)?;
        run.setup_s.push(setup_started.elapsed().as_secs_f64());
        let cpu_before = set.cpu_seconds()?;
        let order = Rng::new(seed, cycle).permutation(names.len());
        let session = closed_loop(&set.router, &names, &once_through(&order), false);
        let cpu = set.cpu_seconds()? - cpu_before;
        run.peak_rss_mb.push(set.peak_rss_mb()?);
        set.stop();
        let _ = std::fs::remove_dir_all(&dir);
        let wall = session.wall.as_secs_f64();
        run.suite_s.push(wall);
        run.cpu_s.push(cpu);
        run.rps.push(completed(&session) as f64 / wall);
        run.lat_ms.extend(latencies_ms(&session));
        run.solved
            .push(grade_session(&session, &names, grader).len() as f64);
        cycle += 1;
    }
    Ok(run)
}

/// The set-up of one `serve_warm` cycle: a fresh replica set plus the
/// cold pass that fills its caches. Returns the set and the fill.
pub fn start_warm(
    bins: &Binaries,
    dir: &Path,
    names: &[&str],
    order: &[usize],
    record: bool,
) -> Result<(ServerSet, Session), String> {
    let set = ServerSet::start(bins, dir)?;
    let fill = closed_loop(&set.router, names, &once_through(order), record);
    Ok((set, fill))
}

/// The timed `serve_warm` run: [`WARM_CYCLES`] cycles of set-up (start
/// plus cold fill) and a warm window of seeded uniform draws, every one
/// a cache hit. Wall, CPU and throughput are totals over the windows,
/// scaled to 77 requests, so the 10 ms CPU tick stays small beside them.
pub fn run_warm(
    bins: &Binaries,
    work: &Path,
    seed: u64,
    seconds: f64,
    grader: &mut Grader,
) -> Result<TimedRun, String> {
    let names: Vec<&str> = gtl_benchsuite::all_benchmarks()
        .iter()
        .map(|b| b.name)
        .collect();
    let mut run = TimedRun::default();
    let per_cycle = Duration::from_secs_f64(seconds / WARM_CYCLES as f64);
    let (mut wall, mut cpu, mut done) = (0.0, 0.0, 0usize);
    for cycle in 0..WARM_CYCLES as u64 {
        let dir = work.join(format!("warm{cycle}"));
        let cycle_started = Instant::now();
        let order = Rng::new(seed, cycle).permutation(names.len());
        let (set, fill) = start_warm(bins, &dir, &names, &order, false)?;
        run.setup_s.push(cycle_started.elapsed().as_secs_f64());
        run.solved
            .push(grade_session(&fill, &names, grader).len() as f64);
        let window_end = (cycle_started + per_cycle).max(Instant::now() + MIN_WARM_WINDOW);
        let cpu_before = set.cpu_seconds()?;
        let draws = draws_until(
            names.len(),
            Rng::new(seed, 1000 + cycle),
            Some(window_end),
            None,
        );
        let warm = closed_loop(&set.router, &names, &draws, false);
        cpu += set.cpu_seconds()? - cpu_before;
        run.peak_rss_mb.push(set.peak_rss_mb()?);
        set.stop();
        let _ = std::fs::remove_dir_all(&dir);
        grade_session(&warm, &names, grader);
        done += completed(&warm);
        wall += warm.wall.as_secs_f64();
        run.lat_ms.extend(latencies_ms(&warm));
    }
    let per_suite = names.len() as f64 / done.max(1) as f64;
    run.suite_s.push(wall * per_suite);
    run.cpu_s.push(cpu * per_suite);
    run.rps.push(done as f64 / wall);
    Ok(run)
}
